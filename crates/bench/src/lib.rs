//! Shared harness for the Section 7 experiments.
//!
//! Each figure of the paper compares, across document sizes, the time to
//! (i) verify the original constraint against the whole document, (ii)
//! verify the optimized (simplified, pre-update) constraint, and (iii)
//! execute an update and verify the original constraint — the paper's
//! diamonds, squares and triangles. (iii) is timed as the checker runs
//! it: the update is applied to a copy, the copy is checked, and nothing
//! is undone, because the copy is dropped.
//!
//! Beside the paper's figures the crate times what one version of the
//! document costs against its size. These tables are information: each
//! claim they illustrate is gated by a count-based test (EXPERIMENTS.md
//! maps the claims to their tests), and service, journal and recovery
//! costs are the wire-level suite's (`benchmark/`).
//!
//! In the system-inventory table of `DESIGN.md` this crate is item 13 (benchmark harness).

pub mod report;

use std::time::{Duration, Instant};
use xic_workload::{generate, legal_insert, Workload, WorkloadConfig};
use xic_xml::XUpdateDoc;
use xicheck::{obs, xpath_resolver, Checker, Strategy, UpdateOutcome};

/// Which of the two running examples an experiment exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Figure 1(a): conflict of interests (Examples 1/3/6).
    ConflictOfInterests,
    /// Figure 1(b): conference workload (the aggregate constraints of
    /// Examples 2 and 7).
    ConferenceWorkload,
}

/// A prepared experiment instance: checker + one legal and one illegal
/// statement matching the compiled pattern.
pub struct Instance {
    /// The checker, loaded with the sized corpus.
    pub checker: Checker,
    /// Corpus size in bytes (serialized).
    pub corpus_bytes: usize,
    /// A statement that passes the constraint.
    pub legal: XUpdateDoc,
    /// A statement that violates it.
    pub illegal: XUpdateDoc,
}

/// The paper's combined DTD.
pub fn dtd_text() -> &'static str {
    "<!ELEMENT collection (dblp, review)>\n<!ELEMENT dblp (pub)*>\n\
     <!ELEMENT pub (title, aut+)>\n<!ELEMENT aut (name)>\n\
     <!ELEMENT review (track)+>\n<!ELEMENT track (name,rev+)>\n\
     <!ELEMENT rev (name, sub+)>\n<!ELEMENT sub (title, auts+)>\n\
     <!ELEMENT title (#PCDATA)>\n<!ELEMENT auts (name)>\n\
     <!ELEMENT name (#PCDATA)>"
}

/// A statement appending `n` fresh-author submissions to one reviewer.
fn multi_insert(track: usize, rev: usize, n: usize, serial: usize) -> String {
    let mut subs = String::new();
    for i in 0..n {
        subs.push_str(&format!(
            "<sub><title>Batch {serial}-{i}</title>\
             <auts><name>newcomer{serial:05}x{i}</name></auts></sub>"
        ));
    }
    format!(
        r#"<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
  <xupdate:append select="/collection/review/track[{}]/rev[{}]">{subs}</xupdate:append>
</xupdate:modifications>"#,
        track + 1,
        rev + 1
    )
}

/// A statement appending one submission with `authors` fresh authors to
/// the first reviewer: one more `auts` is one more pattern shape.
pub fn authored_insert(authors: usize) -> String {
    let auts: String =
        (0..authors).map(|i| format!("<auts><name>newcomer{i:05}</name></auts>")).collect();
    format!(
        r#"<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
  <xupdate:append select="/collection/review/track[1]/rev[1]"><sub><title>Fresh</title>{auts}</sub></xupdate:append>
</xupdate:modifications>"#
    )
}

/// The wire-level benchmark's three constraints — conflict of interests,
/// conference workload, review load — over a sized corpus, at thresholds
/// no insertion reaches.
pub fn benchmark_checker(kib: usize, seed: u64) -> Checker {
    benchmark_instance(WorkloadConfig::sized_kib(kib, seed)).1
}

fn benchmark_instance(config: WorkloadConfig) -> (Workload, Checker) {
    let w = generate(config);
    let gamma = format!(
        "{}. {}. {}",
        xic_workload::conflict_constraint(),
        xic_workload::workload_constraint(3, 1_000_000),
        xic_workload::review_load_constraint(1_000_000),
    );
    let checker = Checker::new(&w.xml, dtd_text(), &gamma).expect("generated corpus must load");
    (w, checker)
}

/// What one version of the document costs at one size: median
/// microseconds over a stream of legal appends under the benchmark's Γ,
/// on a corpus whose reviewers' neighbourhood does not grow with it
/// ([`WorkloadConfig::fixed_neighbourhood_kib`]).
#[derive(Debug, Clone, Copy)]
pub struct VersionRow {
    /// Corpus size in KiB.
    pub kib: usize,
    /// Nodes in the parsed corpus.
    pub nodes: usize,
    /// Milliseconds `parse_document` takes over the corpus text.
    pub parse_ms: f64,
    /// Milliseconds `Checker::open_store` takes over a store holding one
    /// checkpoint of the corpus and an empty journal suffix.
    pub open_ms: f64,
    /// Cloning the committed version (the value indexes built).
    pub clone_us: f64,
    /// Applying one legal append to that fresh copy, its select
    /// resolved beforehand as the optimized decision resolves it.
    pub apply_us: f64,
    /// Dropping the version the copy replaces.
    pub drop_us: f64,
    /// Deciding the append on the optimized path.
    pub decide_optimized_us: f64,
    /// The slowest of those decisions, where a cost one decision in many
    /// pays hides from the median.
    pub decide_max_us: f64,
    /// Median engine steps (XPath nodes visited plus XQuery bindings) per
    /// decision.
    pub decide_steps: u64,
    /// Checking the whole of Γ.
    pub check_full_us: f64,
}

fn median_us(mut samples: Vec<Duration>) -> f64 {
    samples.sort_unstable();
    samples[samples.len() / 2].as_secs_f64() * 1e6
}

/// Measures one row of the version sweep: `iters` parses of the corpus
/// and `iters` reopenings of a store checkpointed over it, `iters` full
/// checks, then 64 × `iters` legal appends (to reviewers across the
/// corpus) decided on the optimized path, then committed one after
/// another as the checker commits them — clone, apply to the clone, drop
/// the replaced version.
pub fn measure_versions(kib: usize, seed: u64, iters: usize) -> VersionRow {
    let (w, mut checker) = benchmark_instance(WorkloadConfig::fixed_neighbourhood_kib(kib, seed));
    let stmts: Vec<XUpdateDoc> = (0..64 * iters)
        .map(|i| {
            let (track, rev) = (i % w.config.tracks, i % w.config.revs_per_track);
            XUpdateDoc::parse(&legal_insert(track, rev, i)).expect("statement parses")
        })
        .collect();
    let timed = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed()
    };
    let parse = (0..iters).map(|_| {
        timed(&mut || drop(xic_xml::parse_document(&w.xml).expect("corpus parses")))
    });
    let parse_ms = median_us(parse.collect()) / 1e3;
    let dir = std::env::temp_dir()
        .join(format!("xic-bench-{}-versions-open-{kib}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    checker.attach_store(&dir, false).expect("store attaches");
    checker.checkpoint().expect("checkpoint");
    let open = (0..iters).map(|_| {
        timed(&mut || {
            let (reopened, report) = Checker::open_store(&dir, &w.xml, checker.shared_gamma(), false)
                .expect("store reopens");
            assert_eq!((report.generation, report.replayed, report.degraded), (1, 0, false));
            drop(reopened);
        })
    });
    let open_ms = median_us(open.collect()) / 1e3;
    let _ = std::fs::remove_dir_all(&dir);
    let check_full = (0..iters).map(|_| {
        timed(&mut || assert_eq!(checker.check_full().expect("full check"), None))
    });
    let check_full_us = median_us(check_full.collect());
    // The first decision builds the value indexes every later one reads.
    let decide = |stmt: &XUpdateDoc| {
        assert_eq!(checker.decide_only(stmt, Strategy::Optimized).expect("decides"), None);
    };
    decide(&stmts[0]);
    let steps = || {
        obs::counter(obs::Counter::XpathNodesVisited)
            + obs::counter(obs::Counter::XqueryBindingsVisited)
    };
    let (mut decisions, mut decide_steps) = (Vec::new(), Vec::new());
    for stmt in &stmts {
        let before = steps();
        decisions.push(timed(&mut || decide(stmt)));
        decide_steps.push(steps() - before);
    }
    decide_steps.sort_unstable();
    let decide_max_us = decisions.iter().max().expect("64 decisions").as_secs_f64() * 1e6;
    let decide_optimized_us = median_us(decisions);
    let mut current = checker.doc().clone();
    let nodes = current.node_count();
    drop(checker);
    let (mut clone, mut apply, mut dropped) = (Vec::new(), Vec::new(), Vec::new());
    for stmt in &stmts {
        // The decision resolved the select on this version; the commit
        // applies from what it found.
        let targets = xpath_resolver(&current, stmt.ops[0].select()).expect("select resolves");
        let mut next = None;
        clone.push(timed(&mut || next = Some(current.clone())));
        let mut next = next.expect("cloned above");
        apply.push(timed(&mut || {
            let resolved = |_: &xic_xml::Document, _: &str| Ok(targets.clone());
            xic_xml::apply(&mut next, stmt, &resolved).expect("the append applies");
        }));
        let mut replaced = Some(std::mem::replace(&mut current, next));
        dropped.push(timed(&mut || drop(replaced.take())));
    }
    VersionRow {
        kib,
        nodes,
        parse_ms,
        open_ms,
        clone_us: median_us(clone),
        apply_us: median_us(apply),
        drop_us: median_us(dropped),
        decide_optimized_us,
        decide_max_us,
        decide_steps: decide_steps[decide_steps.len() / 2],
        check_full_us,
    }
}

/// Mean milliseconds a first sight of `stmt`'s pattern costs `checker`
/// over `runs` compiles: map + Simp + translate + template precompilation,
/// all that `register_pattern` runs.
pub fn measure_first_sight(checker: &mut Checker, stmt: &XUpdateDoc, runs: u32) -> f64 {
    let start = Instant::now();
    for _ in 0..runs {
        checker.register_pattern(stmt).expect("pattern registration");
    }
    let ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(runs);
    assert!(checker.patterns().all(|p| p.is_incremental()), "every pattern is incremental");
    ms
}

/// Builds an experiment instance at roughly `kib` KiB.
///
/// For the conference-workload experiment the aggregate thresholds are
/// derived from the corpus so that it starts exactly consistent: the
/// per-reviewer-node bound sits one above the generated fan-out, making a
/// single-submission insert legal and a two-submission batch illegal.
pub fn instance(exp: Experiment, kib: usize, seed: u64) -> Instance {
    let w: Workload = generate(WorkloadConfig::sized_kib(kib, seed));
    let corpus_bytes = w.xml.len();
    let (constraints, legal_text, illegal_text) = match exp {
        Experiment::ConflictOfInterests => (
            xic_workload::conflict_constraint().to_string(),
            xic_workload::legal_insert(0, 0, 900_001),
            xic_workload::illegal_insert(0, 0, &w.reviewers[0][0]),
        ),
        Experiment::ConferenceWorkload => {
            // Highest per-name submission load in the corpus.
            let mut counts = std::collections::HashMap::new();
            for track in &w.reviewers {
                for r in track {
                    *counts.entry(r.as_str()).or_insert(0usize) += w.config.subs_per_rev;
                }
            }
            let max_name_subs = counts.values().copied().max().unwrap_or(0);
            let constraints = format!(
                "{}. {}",
                xic_workload::workload_constraint(3, max_name_subs + 1),
                xic_workload::review_load_constraint(w.config.subs_per_rev + 1),
            );
            (
                constraints,
                xic_workload::legal_insert(0, 0, 900_001),
                multi_insert(0, 0, 2, 900_002),
            )
        }
    };
    let mut checker =
        Checker::new(&w.xml, dtd_text(), &constraints).expect("generated corpus must load");
    let legal = XUpdateDoc::parse(&legal_text).expect("legal stmt");
    let illegal = XUpdateDoc::parse(&illegal_text).expect("illegal stmt");
    // Schema-design-time compilation: register both patterns once.
    checker.register_pattern(&legal).expect("pattern registration");
    checker
        .register_pattern(&illegal)
        .expect("pattern registration");
    Instance {
        checker,
        corpus_bytes,
        legal,
        illegal,
    }
}

/// Times `f` over `iters` runs and returns the mean duration (with one
/// warm-up run, as in the paper's protocol).
pub fn time_mean<F: FnMut()>(iters: usize, mut f: F) -> Duration {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed() / u32::try_from(iters.max(1)).expect("small iter counts")
}

/// One row of a figure: mean milliseconds for the three curves.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Corpus size in KiB (x axis).
    pub kib: usize,
    /// Actual serialized bytes.
    pub bytes: usize,
    /// (i) full check of the original constraint (diamonds).
    pub full_ms: f64,
    /// (ii) optimized pre-update check (squares).
    pub optimized_ms: f64,
    /// (iii) copy + apply + full check (triangles): the baseline
    /// decision, `decide_only` under [`Strategy::FullWithRollback`].
    pub copy_apply_check_ms: f64,
}

/// Measures one figure row.
pub fn measure_row(exp: Experiment, kib: usize, seed: u64, iters: usize) -> Row {
    let inst = instance(exp, kib, seed);

    let full = time_mean(iters, || {
        let v = inst.checker.check_full().expect("full check");
        assert!(v.is_none(), "corpus must be consistent");
    });

    let legal = inst.legal.clone();
    let optimized = time_mean(iters, || {
        let v = inst.checker.decide_only(&legal, Strategy::Optimized).expect("optimized");
        assert!(v.is_none(), "legal update must pass");
    });

    let copy_apply_check = time_mean(iters, || {
        let v = inst.checker.decide_only(&legal, Strategy::FullWithRollback).expect("baseline");
        assert!(v.is_none(), "legal update must pass");
    });

    Row {
        kib,
        bytes: inst.corpus_bytes,
        full_ms: full.as_secs_f64() * 1e3,
        optimized_ms: optimized.as_secs_f64() * 1e3,
        copy_apply_check_ms: copy_apply_check.as_secs_f64() * 1e3,
    }
}

/// End-to-end handling of an illegal statement under both strategies
/// (E5): optimized = reject before execution; baseline = apply to a copy
/// + full check, the copy dropped.
#[derive(Debug, Clone, Copy)]
pub struct IllegalRow {
    /// Corpus size in KiB.
    pub kib: usize,
    /// Optimized end-to-end rejection time (ms).
    pub optimized_reject_ms: f64,
    /// Baseline apply + check + drop time (ms).
    pub baseline_reject_ms: f64,
}

/// Measures the illegal-update scenario.
pub fn measure_illegal(exp: Experiment, kib: usize, seed: u64, iters: usize) -> IllegalRow {
    let mut inst = instance(exp, kib, seed);
    let illegal = inst.illegal.clone();

    let optimized = time_mean(iters, || {
        let out = inst.checker.try_update(&illegal).expect("try_update");
        assert!(!out.applied(), "illegal update must be rejected");
        assert!(matches!(out, UpdateOutcome::Rejected { .. }));
    });

    // Baseline: the decision `try_update` would reach without the
    // optimized check — apply to a copy, full check, drop the copy.
    let baseline = time_mean(iters, || {
        let v = inst.checker.decide_only(&illegal, Strategy::FullWithRollback).expect("baseline");
        assert!(v.is_some(), "violation must be detected post-update");
    });

    IllegalRow {
        kib,
        optimized_reject_ms: optimized.as_secs_f64() * 1e3,
        baseline_reject_ms: baseline.as_secs_f64() * 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_builds_and_checks() {
        for exp in [Experiment::ConflictOfInterests, Experiment::ConferenceWorkload] {
            let mut inst = instance(exp, 8, 42);
            assert!(inst.checker.check_full().unwrap().is_none(), "{exp:?}");
            assert!(
                inst.checker.decide_only(&inst.legal, Strategy::Optimized).unwrap().is_none(),
                "{exp:?}"
            );
            let out = inst.checker.try_update(&inst.illegal).unwrap();
            assert!(!out.applied(), "{exp:?}");
        }
    }

    #[test]
    fn rows_have_positive_times() {
        let row = measure_row(Experiment::ConflictOfInterests, 8, 1, 1);
        assert!(row.full_ms > 0.0);
        assert!(row.optimized_ms > 0.0);
        assert!(row.copy_apply_check_ms > 0.0);
        assert!(row.bytes > 4096);
    }

    #[test]
    fn illegal_rows_measure_both_paths() {
        let r = measure_illegal(Experiment::ConferenceWorkload, 8, 2, 1);
        assert!(r.optimized_reject_ms > 0.0);
        assert!(r.baseline_reject_ms > 0.0);
    }

    #[test]
    fn version_rows_time_every_stage() {
        let r = measure_versions(8, 3, 1);
        assert!(r.nodes > 500);
        let stages = [
            r.parse_ms, r.open_ms, r.clone_us, r.apply_us, r.drop_us, r.decide_optimized_us, r.check_full_us,
        ];
        assert!(stages.iter().all(|&us| us > 0.0), "{r:?}");
        assert!(r.decide_max_us >= r.decide_optimized_us && r.decide_steps > 0, "{r:?}");
    }
}
