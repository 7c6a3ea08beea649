//! The multi-operation campaign (`--multi-op`): the campaign's six
//! oracles ([`crate::check_case`]) over statements of one to four
//! operations whose selects are unions, `//name`, `*[k]`, `text()` and
//! `name[last()]` ([`gen::multi_ops`]) — the traffic in which a later
//! operation's select meets what an earlier one did, and in which one
//! statement inserts a name and removes it too.
//!
//! Each case is the campaign's case for its seed (document, DTD and
//! constraints) with the statement drawn again from a stream of its own,
//! so a printed seed replays with `--multi-op --cases 1 --seed N`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use xic_xml::{apply, parse_document, Dtd, NodeId, UndoEntry, XUpdateDoc};
use xicheck::{xpath_resolver, RelSchema};

use crate::tally;
use crate::{check_case, each_case, gen, shrink, Case, Config, Discrepancy, Outcome};

/// Mixed into a seed to draw the statement of its multi-operation case.
const STREAM: u64 = 0x6d75_6c74_692d_6f70;

/// The multi-operation case for `seed`: the campaign's case with the
/// statement replaced by one from [`gen::multi_ops`].
pub fn generate_multi_op_case(seed: u64) -> Case {
    let mut case = crate::generate_case(seed);
    let (doc, _) = parse_document(&case.doc_xml).expect("generated document parses");
    let dtd = Dtd::parse(&case.dtd).expect("generated DTD parses");
    case.ops = gen::multi_ops(&mut StdRng::seed_from_u64(seed ^ STREAM), &dtd, &doc);
    case
}

/// What a multi-operation run found and covered.
#[derive(Debug)]
pub struct MultiOpReport {
    /// The configuration that produced it.
    pub config: Config,
    /// All confirmed discrepancies, in seed order.
    pub discrepancies: Vec<Discrepancy>,
    /// Statements that inserted an element of a relation and removed
    /// another of the same relation: the write footprint's merge of a
    /// removal into an insertion.
    pub merged: u64,
    /// Statements with a later operation whose select matched other nodes
    /// after the operations before it than before them.
    pub observing: u64,
    /// What the run added to the [`tally`], in [`tally::NAMES`] order.
    pub counts: [u64; tally::NAMES.len()],
}

impl MultiOpReport {
    /// The run's [`Outcome`]. Floors (≥ 100 cases): every operation kind
    /// generated, and both kinds of traffic the pass exists for seen at
    /// least once.
    pub fn outcome(&self) -> Outcome {
        let Config { seed, cases } = self.config;
        let mix: Vec<String> =
            tally::OPS.map(|i| format!("{}={}", tally::NAMES[i], self.counts[i])).collect();
        let summary = format!(
            "multi-op: {cases} cases from seed {seed} — {} discrepancies, {} statements \
             inserting into and removing from one relation, {} with a later select that \
             observes an earlier operation\nop mix: {}",
            self.discrepancies.len(),
            self.merged,
            self.observing,
            mix.join(" "),
        );
        let missing: Vec<&str> =
            tally::OPS.filter(|&i| self.counts[i] == 0).map(|i| tally::NAMES[i]).collect();
        let floor = if cases < crate::COVERAGE_FLOOR_CASES {
            Ok(())
        } else if !missing.is_empty() {
            Err(format!(
                "multi-op: operation kinds never generated in {cases} cases: {}",
                missing.join(", ")
            ))
        } else if self.merged == 0 || self.observing == 0 {
            Err(format!(
                "multi-op: in {cases} cases, {} statements inserted into and removed from one \
                 relation and {} had a later select observe an earlier operation",
                self.merged, self.observing
            ))
        } else {
            Ok(())
        };
        let divergences = self.discrepancies.iter().map(Discrepancy::report).collect();
        Outcome { summary, divergences, floor }
    }
}

/// Runs `config.cases` multi-operation cases, minimizing every
/// discrepancy found.
pub fn run_multi_op(config: Config) -> MultiOpReport {
    let before = tally::counts();
    let mut report = MultiOpReport {
        config,
        discrepancies: Vec::new(),
        merged: 0,
        observing: 0,
        counts: [0; tally::NAMES.len()],
    };
    each_case(config, |seed, _| {
        let case = generate_multi_op_case(seed);
        let (merged, observing) = coverage(&case);
        report.merged += u64::from(merged);
        report.observing += u64::from(observing);
        if let Err((oracle, detail)) = check_case(&case) {
            let minimized = shrink::minimize(&case, oracle);
            report.discrepancies.push(Discrepancy { seed, oracle, detail, minimized });
        }
    });
    let after = tally::counts();
    report.counts = std::array::from_fn(|i| after[i] - before[i]);
    report
}

/// Whether `case`'s statement (applied to a copy of its document) both
/// inserted and removed tuples of one relation, and whether a later
/// operation's select resolved differently after the operations before it.
/// Measured on the document, not predicted from the statement's text.
fn coverage(case: &Case) -> (bool, bool) {
    let (Ok((doc, _)), Ok(stmt), Ok(dtd)) = (
        parse_document(&case.doc_xml),
        XUpdateDoc::parse(&case.stmt_text()),
        Dtd::parse(&case.dtd),
    ) else {
        return (false, false);
    };
    let observing = (1..stmt.ops.len()).any(|k| {
        let mut after = doc.clone();
        let prefix = XUpdateDoc { ops: stmt.ops[..k].to_vec() };
        apply(&mut after, &prefix, &xpath_resolver).is_ok()
            && xpath_resolver(&doc, stmt.ops[k].select()).ok()
                != xpath_resolver(&after, stmt.ops[k].select()).ok()
    });
    let merged = RelSchema::from_dtd(&dtd).is_ok_and(|schema| {
        let mut after = doc.clone();
        let Ok(applied) = apply(&mut after, &stmt, &xpath_resolver) else {
            return false;
        };
        let relations = |node: NodeId| -> Vec<String> {
            std::iter::once(node)
                .chain(after.descendants(node))
                .filter_map(|n| after.name(n))
                .filter(|name| schema.pred(name).is_some())
                .map(str::to_string)
                .collect()
        };
        let (mut inserted, mut removed) = (Vec::new(), Vec::new());
        for entry in applied.log() {
            match entry {
                UndoEntry::Detach(node) => inserted.extend(relations(*node)),
                UndoEntry::Reattach { node, .. } => removed.extend(relations(*node)),
                UndoEntry::Rename { .. } => {}
            }
        }
        inserted.iter().any(|r| removed.contains(r))
    });
    (merged, observing)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_replay_under_their_seed() {
        let a = generate_multi_op_case(7);
        let b = generate_multi_op_case(7);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.doc_xml, crate::generate_case(7).doc_xml);
        for seed in 0..40 {
            let case = generate_multi_op_case(seed);
            assert!((1..=4).contains(&case.ops.len()), "seed {seed}: {:?}", case.ops);
            XUpdateDoc::parse(&case.stmt_text()).expect("statement parses");
        }
    }

    #[test]
    fn floors_need_both_kinds_of_traffic() {
        let report = |cases, merged, observing| MultiOpReport {
            config: Config { seed: 1, cases },
            discrepancies: Vec::new(),
            merged,
            observing,
            counts: [1; tally::NAMES.len()],
        };
        assert_eq!(report(100, 1, 1).outcome().floor, Ok(()));
        for (merged, observing) in [(0, 1), (1, 0)] {
            let floor = report(100, merged, observing).outcome().floor.unwrap_err();
            assert!(floor.contains("inserted into and removed from"), "{floor}");
        }
        assert_eq!(report(99, 0, 0).outcome().floor, Ok(()), "a short run is not held to it");
    }

    #[test]
    fn coverage_is_measured_on_the_document() {
        let case = |ops: &[&str]| Case {
            seed: 0,
            mode: "paper",
            dtd: crate::PAPER_DTD.to_string(),
            doc_xml: "<collection><dblp/><review><track><name>T</name><rev><name>r</name>\
                      <sub><title>S</title><auts><name>a</name></auts></sub></rev>\
                      </track></review></collection>"
                .to_string(),
            constraints: xic_workload::conflict_constraint().to_string(),
            ops: ops.iter().map(|s| s.to_string()).collect(),
        };
        let sub = "<sub><title>N</title><auts><name>b</name></auts></sub>";
        let rev = "/collection/review/track[1]/rev[1]";
        let append = format!("<xupdate:append select=\"{rev}\">{sub}</xupdate:append>");
        let remove_first = format!("<xupdate:remove select=\"{rev}/sub[1]\"/>");
        let remove_last = format!("<xupdate:remove select=\"{rev}/sub[last()]\"/>");
        assert_eq!(coverage(&case(&[&append, &remove_first])), (true, false));
        assert_eq!(coverage(&case(&[&append, &remove_last])), (true, true));
        assert_eq!(coverage(&case(&[&remove_first])), (false, false));
    }
}
