//! The pattern digest (`--pattern-digest`): compiles the update pattern
//! of every campaign case, its [`hostile`] twin and its
//! [`multi_op`](crate::multi_op) case, and condenses every compiled
//! pattern's key, simplified denials, template texts and post checks into
//! one digest.
//!
//! It is an exactness gate, not an oracle: a change to the Datalog layer,
//! to `Simp` or to the translator that must not change what is compiled
//! proves it by printing the digest recorded in
//! `crates/difftest/corpus/patterns.digest`, byte for byte.

use xic_xml::XUpdateDoc;
use xicheck::{Checker, SharedGamma, Strategy};

use crate::multi_op::generate_multi_op_case;
use crate::{each_case, generate_case, hostile, Case, Config, Outcome};

/// What a digest run compiled.
#[derive(Debug)]
pub struct DigestReport {
    /// The configuration that produced it.
    pub config: Config,
    /// Compiled patterns, summed over every case's checker.
    pub patterns: u64,
    /// Simplified denials over those patterns.
    pub denials: u64,
    /// Query templates over those patterns.
    pub templates: u64,
    /// FNV-1a over each pattern's key, denials, templates and post checks,
    /// in case order and, within a case, in key order.
    pub digest: u64,
}

impl DigestReport {
    /// The run's [`Outcome`]: one summary line, no divergences, no floor.
    pub fn outcome(&self) -> Outcome {
        let Config { seed, cases } = self.config;
        let summary = format!(
            "pattern-digest: {cases} cases from seed {seed} — {} patterns, {} denials, \
             {} templates, digest {:016x}",
            self.patterns, self.denials, self.templates, self.digest
        );
        Outcome { summary, divergences: Vec::new(), floor: Ok(()) }
    }
}

/// FNV-1a, 64 bits: stable across toolchains, unlike `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn write(&mut self, text: &str) {
        for byte in text.bytes().chain([0]) {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Compiles the patterns of `config`'s seeds and digests them.
pub fn run_pattern_digest(config: Config) -> DigestReport {
    let mut report = DigestReport { config, patterns: 0, denials: 0, templates: 0, digest: 0 };
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    each_case(config, |seed, _| {
        let case = generate_case(seed);
        for case in [hostile::case(&case), generate_multi_op_case(seed), case] {
            let mut compiled = compile(&case);
            compiled.sort_by(|a, b| a.key.cmp(&b.key));
            for pattern in compiled {
                report.patterns += 1;
                report.denials += pattern.simplified.len() as u64;
                report.templates += pattern.queries.len() as u64;
                fnv.write(&pattern.key);
                for denial in &pattern.simplified {
                    fnv.write(&denial.to_string());
                }
                for query in &pattern.queries {
                    fnv.write(&query.text);
                }
                for (i, denial, query) in &pattern.post_checks {
                    fnv.write(&format!("post {i} {denial}"));
                    fnv.write(&query.text);
                }
            }
        }
    });
    report.digest = fnv.0;
    report
}

/// The patterns a checker over `case` compiles for its statement, on a
/// decision and on an explicit registration; none when the case does not
/// set up or its statement does not map.
fn compile(case: &Case) -> Vec<xicheck::CompiledPattern> {
    let Ok(gamma) = SharedGamma::compile(&case.dtd, &case.constraints) else {
        return Vec::new();
    };
    let (Ok(mut checker), Ok(stmt)) =
        (Checker::from_shared(&case.doc_xml, &gamma), XUpdateDoc::parse(&case.stmt_text()))
    else {
        return Vec::new();
    };
    let _ = checker.decide_only(&stmt, Strategy::Optimized);
    let _ = checker.register_pattern(&stmt);
    checker.patterns().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_digest_is_a_function_of_its_seeds() {
        let run = |seed| run_pattern_digest(Config { seed, cases: 20 });
        let (a, b) = (run(0), run(0));
        assert!(a.patterns > 0 && a.denials > 0 && a.templates > 0, "{a:?}");
        assert_eq!(a.outcome().summary, b.outcome().summary);
        assert_ne!(a.digest, run(20).digest);
    }
}
