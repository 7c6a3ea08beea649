//! `xic-difftest` — a seed-deterministic differential-fuzzing subsystem
//! that checks **optimized ≡ baseline** across the whole update language.
//!
//! Every case is a pure function of a single `u64` seed: a schema (the
//! paper's conference DTD or a freshly generated random one), a DTD-valid
//! document, a set of XPathLog denial constraints the initial document
//! satisfies (the paper's standing Σ-consistency assumption), and an
//! XUpdate statement drawn from generators that cover **all six**
//! operation kinds — insert-before, insert-after, append, remove, update,
//! rename — including multi-operation batches.
//!
//! Six oracles run per case (a seventh has a pass of its own):
//!
//! 1. **Decision equivalence** — the optimized pre-update check
//!    ([`Checker::try_update`] / [`Strategy::Optimized`]) and the baseline
//!    (apply + full check + rollback, [`Strategy::FullWithRollback`]) must
//!    accept/reject/fail identically, and agree with a plain
//!    apply-then-serialize reference on the final document state.
//! 2. **Rollback fidelity** — applying a statement and undoing it must
//!    restore a byte-identical serialization, coherent tag-name symbols
//!    ([`xic_xml::Document::audit_symbols`]) *and* — after the apply as
//!    after the undo — element and value indexes equal to a scan
//!    ([`xic_xml::Document::audit_indexes`], over indexes asked for in
//!    every key shape the document has), for both complete and
//!    mid-batch-failed applications; every recovery is audited the same
//!    way after its replay.
//! 3. **DTD-validity preservation** — when an accepted update's post-state
//!    conforms to the DTD under plain application, the checker's final
//!    state must validate too.
//! 4. **XPath/XQuery differential** — random queries from a small
//!    generated subset are evaluated by the real engine and by the naive
//!    reference evaluator in [`mod@reference`]; node-sets, `count()` values
//!    and the short-circuiting existential evaluators
//!    (`evaluate_exists` / `eval_query_exists`) must agree, value joins
//!    and grouped aggregates — the shapes the engine answers from keyed
//!    sequences — included.
//! 5. **Order-cache coherence** — sorting and deduplicating an adversarial
//!    node multiset through the cached document-order ranks must agree
//!    with a from-scratch path-key recomputation, on the pre-state, after
//!    the statement mutates the tree, and after the compensating undo.
//! 6. **Independence equivalence** — replaying the statement with the
//!    static update/constraint independence mask forced *on* and forced
//!    *off* ([`Checker::set_independence`]) must produce identical
//!    verdicts, violation reports, and byte-identical post-states, for
//!    both `try_update` and `decide_only(FullWithRollback)`. Difftest
//!    cases never arm evaluation budgets, so the on/off comparison is
//!    well-posed (a budget abort could otherwise depend on how many
//!    checks run).
//!
//! 7. **Snapshot decide** (its own pass, `--snapshot-decide`; see
//!    [`snapshot`]) — `ReadSnapshot::decide` on a service's snapshot must
//!    answer what `try_update` on a twin answers (verdict, violation,
//!    error text), take the optimized path exactly where
//!    `decide_only(Optimized)` is defined and the baseline's answer
//!    elsewhere, under both engine modes and with independence on and
//!    off.
//!
//! Discrepancies are greedily minimized ([`shrink`]) and reported with a
//! one-line replay command (`cargo run -p xic-difftest -- --seed N`).
//! Progress is observable through the harness's own [`tally`] counters
//! (`difftest_shrink_step`, `reference_queries`, the two
//! `*_joins_planned` counts and one `difftest_op_*` counter per operation
//! kind).
//!
//! **Gates.** Every pass — this campaign, [`crash`], [`chaos`], [`shard`]
//! (matrix and chaos), [`snapshot`] — takes the same [`Config`], walks its
//! seeds through `each_case` (case `i` is seed `seed + i`, so a printed
//! seed replays alone with `--cases 1`), keeps a typed report, and
//! condenses it into one [`Outcome`]: the summary the `difftest` binary
//! prints, the rendered divergences, and the verdict of the pass's
//! coverage floors. The binary is a table of those passes and nothing
//! else; a new proof obligation is one oracle module and one row.
//!
//! In the system-inventory table of `DESIGN.md` this crate is item 15 (differential fuzzer).

pub mod chaos;
pub mod crash;
pub mod gen;
pub mod reference;
pub mod shard;
pub mod shrink;
pub mod snapshot;
pub mod tally;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tally::Tally;
use xic_workload::{
    conflict_constraint, generate, random_batch, review_load_constraint, workload_constraint,
    WorkloadConfig,
};
use xic_xml::{apply, parse_document, serialize, undo, Document, Dtd, NodeId, XUpdateDoc, XUpdateOp};
use xicheck::{xpath_resolver, Checker, CheckerError, Strategy, UpdateOutcome};

/// A scratch file or directory name for one harness case. Unique per
/// call, not per seed: two runs in one process (tests of one binary run
/// in parallel) may draw the same seed and must not share files.
pub(crate) fn scratch_name(kind: &str, seed: u64) -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    format!("xic-{kind}-{}-{n}-{seed}", std::process::id())
}

/// Recovers `case`'s checkpointed store at `dir` after a simulated crash
/// (fsync per record, as the crash and chaos passes attach it).
pub(crate) fn recover_store(
    dir: &std::path::Path,
    case: &Case,
) -> Result<(Checker, xicheck::RecoveryReport), CheckerError> {
    let gamma = xicheck::SharedGamma::compile(&case.dtd, &case.constraints)?;
    let (checker, report) = Checker::recover_store(dir, &case.doc_xml, &gamma, true)?;
    // The attached bits and per-tag lists were maintained through the
    // replay: they must equal a scan of what it produced. (Value indexes
    // are kept by the same four mutators; the rollback oracle audits those
    // with every shape of the case's document built.)
    checker
        .doc()
        .audit_indexes()
        .map_err(|e| CheckerError::Query(format!("indexes corrupt after replay: {e}")))?;
    Ok((checker, report))
}

/// Asks the document for the members of every shape it has — an element
/// with a text node zero, one or two levels below it, keyed by that path:
/// `tag` by `text()`, by `child/text()` and by `child/grandchild/text()`,
/// the shapes the translator's joins take — so that every one of those
/// indexes is built, over whatever the generator produced, and a
/// statement's edits land on members, on key paths and beside them.
fn ask_indexes(doc: &Document) {
    let mut shapes: Vec<(Option<xic_xml::Symbol>, Vec<Option<xic_xml::Symbol>>)> = Vec::new();
    for text in doc.descendants(doc.document_node()) {
        if !matches!(doc.node(text).kind, xic_xml::NodeKind::Text(_)) {
            continue;
        }
        let mut path = Vec::new();
        let mut member = doc.node(text).parent;
        while let (Some(tag), true) = (member.and_then(|m| doc.symbol(m)), path.len() < 3) {
            let shape = (Some(tag), path.clone());
            if !shapes.contains(&shape) {
                shapes.push(shape);
            }
            path.insert(0, Some(tag));
            member = member.and_then(|m| doc.node(m).parent);
        }
    }
    for (tag, path) in &shapes {
        doc.members_keyed(*tag, path, []);
    }
}

/// The paper's combined DTD (publication catalog + review tree), the
/// schema of "paper"-mode cases.
pub const PAPER_DTD: &str = "<!ELEMENT collection (dblp, review)>\n\
    <!ELEMENT dblp (pub)*>\n<!ELEMENT pub (title, aut+)>\n\
    <!ELEMENT aut (name)>\n<!ELEMENT review (track)+>\n\
    <!ELEMENT track (name,rev+)>\n<!ELEMENT rev (name, sub+)>\n\
    <!ELEMENT sub (title, auts+)>\n<!ELEMENT title (#PCDATA)>\n\
    <!ELEMENT auts (name)>\n<!ELEMENT name (#PCDATA)>";

/// Run parameters, the same for every pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Config {
    /// Base seed; case `i` uses seed `seed + i`.
    pub seed: u64,
    /// Number of cases to run.
    pub cases: u64,
}

/// Calls `case(seed, scratch)` for each seed of a run — case `i` is
/// `config.seed + i`, wrapping, in every pass — with the directory its
/// on-disk artifacts go under (each case names its own entry with
/// [`scratch_name`] and removes it).
pub(crate) fn each_case(config: Config, mut case: impl FnMut(u64, &std::path::Path)) {
    let scratch = std::env::temp_dir();
    for i in 0..config.cases {
        case(config.seed.wrapping_add(i), &scratch);
    }
}

/// What a pass hands the `difftest` binary: all it prints and exits on.
#[derive(Debug)]
pub struct Outcome {
    /// The pass's stdout summary: one line starting with the pass's name
    /// (the campaign and the crash matrix add a second, `op mix: …` /
    /// `fired by site: …`).
    pub summary: String,
    /// Every divergence, rendered, each ending in its one-line replay
    /// command.
    pub divergences: Vec<String>,
    /// The coverage floors' verdict: `Err` says which floor a run long
    /// enough to be held to it fell under.
    pub floor: Result<(), String>,
}

/// From this many cases on, a campaign or snapshot-decide run must have
/// covered what it exists to cover (every operation kind, …).
pub(crate) const COVERAGE_FLOOR_CASES: u64 = 100;

/// From this many cases on, a fault-injecting pass in which no armed
/// fault ever fired has tested nothing. The smallest count ci.sh runs
/// any of them at, so every fault-injecting stage is under the floor.
pub(crate) const FAULT_FLOOR_CASES: u64 = 40;

/// The floor the three fault-injecting passes share.
pub(crate) fn fault_floor(pass: &str, cases: u64, fired: u64) -> Result<(), String> {
    if cases >= FAULT_FLOOR_CASES && fired == 0 {
        return Err(format!("{pass}: no armed fault ever fired in {cases} cases"));
    }
    Ok(())
}

/// One fully materialized differential case. Every field is a pure
/// function of [`Case::seed`], so printing the seed is a complete
/// reproducer.
#[derive(Debug, Clone)]
pub struct Case {
    /// The generating seed.
    pub seed: u64,
    /// `"paper"` (conference schema + workload corpus) or `"random"`
    /// (generated DTD + Glushkov-guided document).
    pub mode: &'static str,
    /// DTD text.
    pub dtd: String,
    /// Serialized initial document (valid against [`Case::dtd`]).
    pub doc_xml: String,
    /// `.`-separated XPathLog denials the initial document satisfies.
    pub constraints: String,
    /// The statement's operation elements (kept separate so the shrinker
    /// can drop them one at a time).
    pub ops: Vec<String>,
}

impl Case {
    /// The full `<xupdate:modifications>` statement text.
    pub fn stmt_text(&self) -> String {
        format!(
            "<xupdate:modifications version=\"1.0\" \
             xmlns:xupdate=\"http://www.xmldb.org/xupdate\">{}</xupdate:modifications>",
            self.ops.concat()
        )
    }
}

/// A confirmed oracle failure, with its greedily minimized reproducer.
#[derive(Debug, Clone)]
pub struct Discrepancy {
    /// Seed of the failing case.
    pub seed: u64,
    /// Which oracle tripped (`"decision"`, `"rollback"`,
    /// `"dtd-preservation"`, `"xpath-differential"`, `"order-cache"`,
    /// `"independence"`, `"setup"`, `"generator"`).
    pub oracle: &'static str,
    /// Human-readable mismatch description from the first failure.
    pub detail: String,
    /// The minimized case (same oracle still fails on it).
    pub minimized: Case,
}

impl Discrepancy {
    /// A multi-line report ending in the one-line replay command.
    pub fn report(&self) -> String {
        format!(
            "DISCREPANCY oracle={} seed={} mode={}\n  {}\n  minimized dtd: {}\n  \
             minimized document: {}\n  constraints: {}\n  minimized statement: {}\n  \
             replay: cargo run -p xic-difftest -- --seed {} --cases 1",
            self.oracle,
            self.seed,
            self.minimized.mode,
            self.detail,
            self.minimized.dtd.replace('\n', " "),
            self.minimized.doc_xml,
            self.minimized.constraints,
            self.minimized.stmt_text(),
            self.seed,
        )
    }
}

/// Outcome of a fuzzing run.
#[derive(Debug)]
pub struct Report {
    /// The configuration that produced it.
    pub config: Config,
    /// All confirmed discrepancies, in seed order.
    pub discrepancies: Vec<Discrepancy>,
    /// What the run added to the [`tally`], in [`tally::NAMES`] order.
    pub counts: [u64; tally::NAMES.len()],
}

impl Report {
    /// The run's [`Outcome`]. Floors: a run long enough to be
    /// statistically meaningful must have exercised every operation
    /// kind, the engine-vs-reference oracle must actually have compared
    /// queries (it runs per case, so a silent regression that skips it
    /// would otherwise pass), and both it and the strategy oracles must
    /// have seen queries the engine planned a join for — or the planned
    /// evaluation went unchecked.
    pub fn outcome(&self) -> Outcome {
        let Config { seed, cases } = self.config;
        let reference_queries = self.counts[Tally::ReferenceQuery as usize];
        let reference_joins = self.counts[Tally::ReferenceJoin as usize];
        let constraint_joins = self.counts[Tally::ConstraintJoin as usize];
        let index_probes = self.counts[Tally::ReferenceIndexProbe as usize];
        let tables = self.counts[Tally::ReferenceTable as usize];
        let pos_shifts = self.counts[Tally::PosShift as usize];
        let mix: Vec<String> =
            tally::OPS.map(|i| format!("{}={}", tally::NAMES[i], self.counts[i])).collect();
        let summary = format!(
            "difftest: {cases} cases from seed {seed} — \
             {} discrepancies, {} shrink steps, {reference_queries} reference queries \
             ({reference_joins} XQuery shapes over them planned as joins, {tables} with a \
             per-evaluation table, {index_probes} sites answered from the document's index), \
             {constraint_joins} cases with a planned join in their constraints, {pos_shifts} \
             shifting a position their constraints read\n\
             op mix: {}",
            self.discrepancies.len(),
            self.counts[Tally::ShrinkStep as usize],
            mix.join(" "),
        );
        let missing: Vec<&str> =
            tally::OPS.filter(|&i| self.counts[i] == 0).map(|i| tally::NAMES[i]).collect();
        let floor = if cases < COVERAGE_FLOOR_CASES {
            Ok(())
        } else if !missing.is_empty() {
            Err(format!(
                "difftest: operation kinds never generated in {cases} cases: {}",
                missing.join(", ")
            ))
        } else if reference_queries == 0 {
            Err(format!("difftest: engine-vs-reference oracle never ran in {cases} cases"))
        } else if reference_joins == 0 || constraint_joins == 0 {
            Err(format!(
                "difftest: no join was planned in {cases} cases ({reference_joins} reference \
                 queries, {constraint_joins} constraint sets)"
            ))
        } else if index_probes == 0 || tables == 0 {
            Err(format!(
                "difftest: a tier of the planned evaluation went unchecked in {cases} cases \
                 ({index_probes} sites answered from the document's index, {tables} queries \
                 with a per-evaluation table)"
            ))
        } else if pos_shifts == 0 {
            Err(format!(
                "difftest: no case paired a position-reading denial with a non-tail insert or \
                 a removal in {cases} cases"
            ))
        } else {
            Ok(())
        };
        let divergences = self.discrepancies.iter().map(Discrepancy::report).collect();
        Outcome { summary, divergences, floor }
    }
}

/// Materializes the case for `seed`. Roughly half the seeds draw a
/// paper-schema case (workload corpus, paper constraints, statements from
/// `xic_workload::random_batch`), the other half a random-schema case
/// (everything from [`gen`]).
pub fn generate_case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    if rng.gen_bool(0.5) {
        paper_case(seed, &mut rng)
    } else {
        random_case(seed, &mut rng)
    }
}

fn strip_wrapper(stmt: &str) -> String {
    let open_end = stmt.find('>').expect("wrapper open tag") + 1;
    let close = stmt.rfind("</xupdate:modifications>").expect("wrapper close tag");
    stmt[open_end..close].trim().to_string()
}

fn paper_case(seed: u64, rng: &mut StdRng) -> Case {
    let config = WorkloadConfig {
        seed: rng.gen::<u64>(),
        pubs: 4 + rng.gen_range(0..8),
        tracks: 1 + rng.gen_range(0..2),
        revs_per_track: 1 + rng.gen_range(0..3),
        subs_per_rev: 1 + rng.gen_range(0..3),
        name_pool: 12,
    };
    let w = generate(config);
    let constraint = match rng.gen_range(0..3) {
        0 => conflict_constraint().to_string(),
        1 => review_load_constraint(config.subs_per_rev + rng.gen_range(0..2)),
        _ => workload_constraint(2, config.subs_per_rev * config.tracks + 1),
    };
    // The paper assumes the database is Σ-consistent before any update;
    // keep only a constraint the generated corpus actually satisfies.
    let consistent = Checker::new(&w.xml, PAPER_DTD, &constraint)
        .map(|c| matches!(c.check_full(), Ok(None)))
        .unwrap_or(false);
    let constraints = if consistent {
        constraint
    } else {
        conflict_constraint().to_string()
    };
    let nops = 1 + rng.gen_range(0..3);
    let ops = (0..nops)
        .map(|_| strip_wrapper(&random_batch(rng, &w, 1)))
        .collect();
    Case {
        seed,
        mode: "paper",
        dtd: PAPER_DTD.to_string(),
        doc_xml: w.xml,
        constraints,
        ops,
    }
}

fn random_case(seed: u64, rng: &mut StdRng) -> Case {
    let schema = gen::random_schema(rng);
    let doc_xml = gen::random_document(rng, &schema);
    let constraints = gen::random_constraints(rng, &schema, &doc_xml);
    let (doc, _) = parse_document(&doc_xml).expect("generated document parses");
    let ops = gen::random_ops(rng, &schema, &doc);
    Case {
        seed,
        mode: "random",
        dtd: schema.dtd_text,
        doc_xml,
        constraints,
        ops,
    }
}

/// The order-cache oracle: sorting an adversarial node multiset (reversed
/// preorder plus duplicates) through the cached-rank fast path must agree
/// with the from-scratch path-key sort of a cache-disabled clone, and so
/// must the engine's `dedupe_doc_order`.
fn order_cache_oracle(doc: &Document) -> Result<(), String> {
    let mut nodes: Vec<NodeId> = doc.descendants(doc.document_node()).collect();
    nodes.reverse();
    let dups: Vec<NodeId> = nodes.iter().copied().step_by(3).collect();
    nodes.extend(dups);

    let mut plain = doc.clone();
    plain.disable_order_cache();

    let mut fast = nodes.clone();
    doc.sort_document_order(&mut fast);
    let mut slow = nodes.clone();
    plain.sort_document_order(&mut slow);
    if fast != slow {
        return Err(format!(
            "rank-cached sort disagrees with path-key sort over {} nodes",
            nodes.len()
        ));
    }

    let mut fast_refs: Vec<xic_xpath::NodeRef> =
        nodes.iter().map(|&n| xic_xpath::NodeRef::Node(n)).collect();
    let mut slow_refs = fast_refs.clone();
    xic_xpath::dedupe_doc_order(doc, &mut fast_refs);
    xic_xpath::dedupe_doc_order(&plain, &mut slow_refs);
    if fast_refs != slow_refs {
        return Err(format!(
            "rank-cached dedupe disagrees with path-key dedupe over {} refs",
            nodes.len()
        ));
    }
    Ok(())
}

/// The independence oracle: a fresh checker pair replays the statement
/// with the static skip mask forced on and forced off. Soundness of the
/// analysis means the mask is *observationally invisible*: decisions,
/// violation reports and post-states must not depend on it — including
/// for a statement that breaks DTD-edge conformance.
fn independence_oracle(case: &Case, stmt: &XUpdateDoc) -> Result<(), String> {
    let mut on = Checker::new(&case.doc_xml, &case.dtd, &case.constraints)
        .map_err(|e| format!("masked checker setup failed: {e}"))?;
    on.set_independence(true);
    let mut off = Checker::new(&case.doc_xml, &case.dtd, &case.constraints)
        .map_err(|e| format!("unmasked checker setup failed: {e}"))?;
    off.set_independence(false);

    // decide_only(FullWithRollback) exercises the masked full check
    // without committing, so the subsequent try_update still sees the
    // pristine document.
    let da = on.decide_only(stmt, Strategy::FullWithRollback);
    let db = off.decide_only(stmt, Strategy::FullWithRollback);
    if format!("{da:?}") != format!("{db:?}") {
        return Err(format!(
            "decide_only verdict depends on the mask: on {da:?}, off {db:?}"
        ));
    }

    let a = on.try_update(stmt);
    let b = off.try_update(stmt);
    if format!("{a:?}") != format!("{b:?}") {
        return Err(format!(
            "try_update outcome depends on the mask: on {a:?}, off {b:?}"
        ));
    }
    if serialize(on.doc()) != serialize(off.doc()) {
        return Err("post-state depends on the mask".to_string());
    }
    Ok(())
}

/// The campaign's one `op → kind` classification.
pub(crate) fn op_counter(op: &XUpdateOp) -> Tally {
    match op {
        XUpdateOp::InsertBefore { .. } => Tally::OpInsertBefore,
        XUpdateOp::InsertAfter { .. } => Tally::OpInsertAfter,
        XUpdateOp::Append { .. } => Tally::OpAppend,
        XUpdateOp::Remove { .. } => Tally::OpRemove,
        XUpdateOp::Update { .. } => Tally::OpUpdate,
        XUpdateOp::Rename { .. } => Tally::OpRename,
    }
}

/// Runs the five oracles against one case. `Err((oracle, detail))` names
/// the first oracle that tripped. Does not touch the case counters (the
/// shrinker re-enters this function), except for the coverage counters
/// (operation kinds, planned joins, shifted position reads).
pub fn check_case(case: &Case) -> Result<(), (&'static str, String)> {
    let gen_err = |what: &str, e: &dyn std::fmt::Display| {
        ("generator", format!("{what}: {e}"))
    };
    let (mut doc, _) =
        parse_document(&case.doc_xml).map_err(|e| gen_err("document does not parse", &e))?;
    let dtd = Dtd::parse(&case.dtd).map_err(|e| gen_err("dtd does not parse", &e))?;
    let stmt = XUpdateDoc::parse(&case.stmt_text())
        .map_err(|e| gen_err("statement does not parse", &e))?;
    for op in &stmt.ops {
        tally::incr(op_counter(op));
    }
    let original = serialize(&doc);

    // Oracle 4: XPath/XQuery vs the naive reference evaluator (pre-state).
    reference::differential(case.seed, &dtd, &doc).map_err(|d| ("xpath-differential", d))?;

    // Oracle 5: cached document-order keys vs from-scratch recomputation,
    // on the pristine pre-state…
    order_cache_oracle(&doc).map_err(|d| ("order-cache", d))?;

    // Oracle 2: rollback fidelity of plain apply + undo — and, along the
    // way, the plain-application post-state the decision oracle compares
    // final documents against.
    ask_indexes(&doc);
    let audit = |doc: &Document, when: &str| {
        doc.audit_indexes().map_err(|e| ("rollback", format!("indexes corrupt after {when}: {e}")))
    };
    let (post_xml, post_conforming) = match apply(&mut doc, &stmt, &xpath_resolver) {
        Ok(applied) => {
            audit(&doc, "apply")?;
            let post = serialize(&doc);
            let conforming = dtd.validate(&doc).is_ok();
            // …after the statement mutated the tree (cache invalidation)…
            order_cache_oracle(&doc).map_err(|d| ("order-cache", d))?;
            undo(&mut doc, applied);
            (Some(post), conforming)
        }
        Err((_, partial)) => {
            undo(&mut doc, partial);
            (None, false)
        }
    };
    // …and after the compensating undo.
    order_cache_oracle(&doc).map_err(|d| ("order-cache", d))?;
    if serialize(&doc) != original {
        return Err((
            "rollback",
            "apply + undo did not restore a byte-identical document".to_string(),
        ));
    }
    doc.audit_symbols()
        .map_err(|e| ("rollback", format!("tag-name symbols corrupt after undo: {e}")))?;
    audit(&doc, "undo")?;

    // Oracle 1: decision equivalence. The baseline decides via apply +
    // full check + rollback; the optimized engine decides however
    // `try_update` sees fit (simplified pre-check for insertion patterns,
    // baseline otherwise). They must agree — and the accepted final state
    // must equal plain application's.
    let mut base = Checker::new(&case.doc_xml, &case.dtd, &case.constraints)
        .map_err(|e| ("setup", format!("baseline checker setup failed: {e}")))?;
    let planned = |q: &xicheck::QueryTemplate| {
        xic_xquery::parse_query(&q.text)
            .is_ok_and(|parsed| xic_xquery::XProgram::compile(&parsed).plan_sites() > 0)
    };
    if base.shared_gamma().full_queries().iter().any(planned) {
        tally::incr(Tally::ConstraintJoin);
    }
    let shifts = |op: &XUpdateOp| matches!(op, XUpdateOp::InsertBefore { .. } | XUpdateOp::Remove { .. });
    if gen::reads_position(&case.constraints) && stmt.ops.iter().any(shifts) {
        tally::incr(Tally::PosShift);
    }
    let baseline = base.decide_only(&stmt, Strategy::FullWithRollback);
    if serialize(base.doc()) != original {
        return Err((
            "rollback",
            "decide_only(FullWithRollback) left the document modified".to_string(),
        ));
    }
    let mut opt = Checker::new(&case.doc_xml, &case.dtd, &case.constraints)
        .map_err(|e| ("setup", format!("optimized checker setup failed: {e}")))?;
    let outcome = opt.try_update(&stmt);
    match (&baseline, &outcome) {
        (Err(CheckerError::Statement(_)), Err(CheckerError::Statement(_))) => {
            // Both report the statement unapplicable; the plain reference
            // must have failed to apply too.
            if post_xml.is_some() {
                return Err((
                    "decision",
                    "both strategies error on a statement plain apply accepts".to_string(),
                ));
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            return Err((
                "decision",
                format!(
                    "strategy disagreement on failure: baseline {:?}, optimized {:?} ({e})",
                    baseline.as_ref().map(|v| v.is_none()).map_err(|e| e.to_string()),
                    outcome.as_ref().map(|o| o.applied()).map_err(|e| e.to_string()),
                ),
            ));
        }
        (Ok(verdict), Ok(out)) => {
            let accepted = verdict.is_none();
            if accepted != out.applied() {
                let violation = match (verdict, out) {
                    (Some(v), _) => format!("baseline: {}", v.denial),
                    (None, UpdateOutcome::Rejected { violation, .. }) => {
                        format!("optimized: {} via {}", violation.denial, violation.query)
                    }
                    (None, _) => "-".to_string(),
                };
                return Err((
                    "decision",
                    format!(
                        "baseline {} but optimized {} ({violation})",
                        if accepted { "accepts" } else { "rejects" },
                        if out.applied() { "applies" } else { "rejects" },
                    ),
                ));
            }
            let final_xml = serialize(opt.doc());
            if out.applied() {
                match &post_xml {
                    Some(post) if *post == final_xml => {}
                    Some(_) => {
                        return Err((
                            "decision",
                            "accepted update's final state differs from plain application"
                                .to_string(),
                        ));
                    }
                    None => {
                        return Err((
                            "decision",
                            "strategies accept a statement plain apply fails on".to_string(),
                        ));
                    }
                }
                // Oracle 3: DTD-validity preservation.
                if post_conforming {
                    dtd.validate(opt.doc()).map_err(|e| {
                        (
                            "dtd-preservation",
                            format!("accepted conforming update left an invalid document: {e}"),
                        )
                    })?;
                }
            } else if final_xml != original {
                return Err((
                    "rollback",
                    "rejected update left the document modified".to_string(),
                ));
            }
            opt.doc()
                .audit_symbols()
                .map_err(|e| ("rollback", format!("checker tag-name symbols corrupt: {e}")))?;
            audit(opt.doc(), "the checker's update")?;
            audit(base.doc(), "the baseline's apply and undo")?;

            // Cross-check the pure optimized decision path where it is
            // defined (insertion-only statements with an incremental
            // pattern); `Err` just means the pattern is not incrementally
            // checkable, which is the documented fallback, not a bug.
            if stmt.insertions_only() {
                if let Ok(v) = base.decide_only(&stmt, Strategy::Optimized) {
                    if v.is_none() != accepted {
                        return Err((
                            "decision",
                            format!(
                                "decide_only(Optimized) {} but baseline {}",
                                if v.is_none() { "accepts" } else { "rejects" },
                                if accepted { "accepts" } else { "rejects" },
                            ),
                        ));
                    }
                }
            }
        }
    }

    // Oracle 6: the static independence mask must be observationally
    // invisible.
    independence_oracle(case, &stmt).map_err(|d| ("independence", d))?;
    Ok(())
}

/// Generates and checks the case for `seed`; `None` means all oracles
/// passed.
pub fn run_case(seed: u64) -> Option<(&'static str, String)> {
    check_case(&generate_case(seed)).err()
}

/// Runs `config.cases` seeds starting at `config.seed`, minimizing every
/// discrepancy found.
pub fn run(config: Config) -> Report {
    let before = tally::counts();
    let mut discrepancies = Vec::new();
    each_case(config, |seed, _| {
        let case = generate_case(seed);
        if let Err((oracle, detail)) = check_case(&case) {
            let minimized = shrink::minimize(&case, oracle);
            discrepancies.push(Discrepancy {
                seed,
                oracle,
                detail,
                minimized,
            });
        }
    });
    let after = tally::counts();
    Report {
        config,
        discrepancies,
        counts: std::array::from_fn(|i| after[i] - before[i]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_under_seed() {
        let a = generate_case(42);
        let b = generate_case(42);
        assert_eq!(a.dtd, b.dtd);
        assert_eq!(a.doc_xml, b.doc_xml);
        assert_eq!(a.constraints, b.constraints);
        assert_eq!(a.ops, b.ops);
        let c = generate_case(43);
        assert!(a.doc_xml != c.doc_xml || a.ops != c.ops);
    }

    #[test]
    fn generated_cases_are_well_formed_and_consistent() {
        for seed in 0..24 {
            let case = generate_case(seed);
            let (doc, _) = parse_document(&case.doc_xml).expect("doc parses");
            let dtd = Dtd::parse(&case.dtd).expect("dtd parses");
            dtd.validate(&doc).expect("initial document is DTD-valid");
            XUpdateDoc::parse(&case.stmt_text()).expect("statement parses");
            let checker =
                Checker::new(&case.doc_xml, &case.dtd, &case.constraints).expect("setup");
            assert!(
                matches!(checker.check_full(), Ok(None)),
                "seed {seed}: initial document violates its constraints"
            );
        }
    }

    #[test]
    fn campaign_floors_hold_from_100_cases() {
        let report = |cases, counts| Report {
            config: Config { seed: 1, cases },
            discrepancies: Vec::new(),
            counts,
        };
        let covered = [0, 1, 1, 1, 1, 1, 1, 6, 2, 1, 1, 1, 1];
        assert_eq!(report(100, covered).outcome().floor, Ok(()));
        let mut no_rename = covered;
        no_rename[Tally::OpRename as usize] = 0;
        let floor = report(100, no_rename).outcome().floor.unwrap_err();
        assert!(floor.contains("never generated") && floor.contains("difftest_op_rename"), "{floor}");
        assert_eq!(report(99, no_rename).outcome().floor, Ok(()), "a short run is not held to it");
        let mut no_reference = covered;
        no_reference[Tally::ReferenceQuery as usize] = 0;
        let floor = report(100, no_reference).outcome().floor.unwrap_err();
        assert!(floor.contains("engine-vs-reference oracle never ran"), "{floor}");
        for tier in [Tally::ReferenceIndexProbe, Tally::ReferenceTable] {
            let mut counts = covered;
            counts[tier as usize] = 0;
            let floor = report(100, counts).outcome().floor.unwrap_err();
            assert!(floor.contains("a tier of the planned evaluation went unchecked"), "{floor}");
        }
        let mut unshifted = covered;
        unshifted[Tally::PosShift as usize] = 0;
        let floor = report(100, unshifted).outcome().floor.unwrap_err();
        assert!(floor.contains("position-reading denial"), "{floor}");
        for unplanned in [Tally::ReferenceJoin, Tally::ConstraintJoin] {
            let mut counts = covered;
            counts[unplanned as usize] = 0;
            let floor = report(100, counts).outcome().floor.unwrap_err();
            assert!(floor.contains("no join was planned"), "{floor}");
            assert_eq!(report(99, counts).outcome().floor, Ok(()));
        }
    }

    #[test]
    fn strip_wrapper_extracts_op() {
        let stmt = "<xupdate:modifications version=\"1.0\" xmlns:xupdate=\"x\">\
                    <xupdate:remove select=\"/a\"/></xupdate:modifications>";
        assert_eq!(strip_wrapper(stmt), "<xupdate:remove select=\"/a\"/>");
    }
}
