//! `xic-difftest` — a seed-deterministic differential-fuzzing subsystem
//! that checks **optimized ≡ baseline** across the whole update language.
//!
//! Every case is a pure function of a single `u64` seed: a schema (the
//! paper's conference DTD or a freshly generated random one), a DTD-valid
//! document, a set of XPathLog denial constraints the initial document
//! satisfies (the paper's standing Σ-consistency assumption), and an
//! XUpdate statement drawn from generators that cover **all six**
//! operation kinds — insert-before, insert-after, append, remove, update,
//! rename — including multi-operation batches. The [`multi_op`] pass runs
//! the same oracles over statements of up to four operations whose
//! selects may observe each other.
//!
//! Seven oracles run per case, 1–6 and 8 (the seventh has a pass of its own):
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
//!    mid-batch-failed applications, while a clone taken before the
//!    apply stays the pre-state and audits clean; every recovery is
//!    audited the same way after its replay. The post-state must also
//!    parse back from its serialization to the same serialization
//!    (`round-trip`), as a checkpoint of it must.
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
//! 5. **Document order** — deduplicating an adversarial node multiset as
//!    the engine does and sorting it with `Document::sort_document_order`
//!    must give the order of a preorder walk from the document node, on
//!    the pre-state, on the post-state, and after the compensating undo.
//! 6. **Independence equivalence** — replaying the statement with the
//!    static update/constraint independence mask *on* and *off* — two
//!    checkers over two Γs, one compiled by
//!    [`xicheck::SharedGamma::compile_unmasked`] — must produce identical
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
//!    elsewhere, with independence on and off.
//! 8. **Delta** (in this campaign, beside 1–6) — a text update
//!    `map_update` maps writes, in the relational image, exactly the
//!    cells its pattern predicts ([`delta`]).
//!
//! Every case also runs as its [`hostile`] twin: one operation aimed at a
//! text node, a comment, a processing instruction, the document node or
//! the root element, held to the same oracles and, where XUpdate does not
//! define it, to a typed refusal everywhere.
//!
//! Discrepancies are greedily minimized ([`shrink`]) and reported with a
//! one-line replay command (`cargo run -p xic-difftest -- --seed N`).
//! Progress is observable through the harness's own [`tally`] counters
//! (`difftest_shrink_step`, `reference_queries`, the two
//! `*_joins_planned` counts and one `difftest_op_*` counter per operation
//! kind).
//!
//! **Gates.** Every pass — this campaign, [`multi_op`], [`fault`],
//! [`snapshot`], [`digest`] — takes the same
//! [`Config`], walks its seeds through `each_case` (case `i` is seed
//! `seed + i`, so a printed seed replays alone with `--cases 1`), keeps a
//! typed report, and condenses it into one [`Outcome`]: the summary the
//! `difftest` binary prints, the rendered divergences, and the verdict of
//! the pass's coverage floors. The binary is a table of those passes and nothing
//! else; a new proof obligation is one oracle module and one row.
//!
//! In the system-inventory table of `DESIGN.md` this crate is item 15 (differential fuzzer).

pub mod crash_states;
pub mod delta;
pub mod digest;
pub mod fault;
pub mod gen;
pub mod hostile;
pub mod multi_op;
pub mod reference;
pub mod shrink;
pub mod snapshot;
pub mod tally;

use std::path::Path;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tally::Tally;
use xic_workload::{
    conflict_constraint, generate, random_batch, review_load_constraint, workload_constraint,
    WorkloadConfig,
};
use xic_xml::{apply, parse_document, serialize, undo, Document, Dtd, NodeKind, XUpdateDoc, XUpdateOp};
use xic_xpath::NodeRef;
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
pub(crate) fn each_case(config: Config, mut case: impl FnMut(u64, &Path)) {
    let scratch = std::env::temp_dir();
    for i in 0..config.cases {
        case(config.seed.wrapping_add(i), &scratch);
    }
}

/// What a pass hands the `difftest` binary: all it prints and exits on.
#[derive(Debug)]
pub struct Outcome {
    /// The pass's stdout summary: one line starting with the pass's name
    /// (the campaign and the fault harness add a second, `op mix: …` /
    /// `fired by operation …`).
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
        modifications(&self.ops)
    }
}

/// The `<xupdate:modifications>` statement text around operation
/// elements.
pub(crate) fn modifications(ops: &[String]) -> String {
    format!(
        "<xupdate:modifications version=\"1.0\" \
         xmlns:xupdate=\"http://www.xmldb.org/xupdate\">{}</xupdate:modifications>",
        ops.concat()
    )
}

/// A confirmed oracle failure, with its greedily minimized reproducer.
#[derive(Debug, Clone)]
pub struct Discrepancy {
    /// Seed of the failing case.
    pub seed: u64,
    /// Which oracle tripped (`"decision"`, `"rollback"`,
    /// `"dtd-preservation"`, `"xpath-differential"`, `"order"`,
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
    /// The hostile cases it ran per (target, operation) pair
    /// ([`hostile::covered`]).
    pub hostile: [u64; hostile::PAIRS],
}

/// From this many cases on, a campaign must have aimed every operation
/// kind at every hostile target.
pub(crate) const HOSTILE_FLOOR_CASES: u64 = 500;

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
        let narrowed = self.counts[Tally::ReferenceNarrowed as usize];
        let pos_shifts = self.counts[Tally::PosShift as usize];
        let deltas = self.counts[Tally::DeltaChecked as usize];
        let cross_checked = self.counts[Tally::TextUpdateCrossChecked as usize];
        let mix: Vec<String> =
            tally::OPS.map(|i| format!("{}={}", tally::NAMES[i], self.counts[i])).collect();
        let summary = format!(
            "difftest: {cases} cases from seed {seed} — \
             {} discrepancies, {} shrink steps, {reference_queries} reference queries \
             ({reference_joins} XQuery shapes over them planned as joins, \
             {index_probes} sites answered from the document's index, \
             {narrowed} hits narrowed by a later join), {constraint_joins} cases with a planned \
             join in their constraints, {pos_shifts} shifting a position their constraints read, \
             {deltas} text updates' mapped deltas checked, {cross_checked} text updates decided \
             optimized and held to the baseline, \
             {} hostile statements over {}/{} (target, operation) pairs\n\
             op mix: {}",
            self.discrepancies.len(),
            self.counts[Tally::ShrinkStep as usize],
            self.hostile.iter().sum::<u64>(),
            self.hostile.iter().filter(|&&n| n > 0).count(),
            hostile::PAIRS,
            mix.join(" "),
        );
        let unaimed: Vec<String> = (0..hostile::PAIRS)
            .filter(|&i| self.hostile[i] == 0)
            .map(|i| format!("{} at {}", hostile::OPS[i % 6], hostile::TARGETS[i / 6]))
            .collect();
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
        } else if index_probes == 0 {
            Err(format!(
                "difftest: no planned site was answered from the document's index in {cases} cases"
            ))
        } else if narrowed == 0 {
            Err(format!("difftest: no probe's hit was narrowed by a later join in {cases} cases"))
        } else if pos_shifts == 0 {
            Err(format!(
                "difftest: no case paired a position-reading denial with a non-tail insert or \
                 a removal in {cases} cases"
            ))
        } else if deltas == 0 || cross_checked == 0 {
            Err(format!(
                "difftest: {deltas} text updates' deltas checked and {cross_checked} decided \
                 optimized in {cases} cases"
            ))
        } else if cases >= HOSTILE_FLOOR_CASES && !unaimed.is_empty() {
            Err(format!("difftest: never aimed in {cases} cases: {}", unaimed.join(", ")))
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

/// The document-order oracle: the document's nodes — every attribute
/// after its owner — in reverse, a third of them twice, made
/// duplicate-free as the engine dedups a node-set and put in order by
/// `Document::sort_document_order`, must come out exactly as a preorder
/// walk from the document node meets them.
fn order_oracle(doc: &Document) -> Result<(), String> {
    let mut walk = Vec::new();
    for n in reference::preorder(doc) {
        walk.push(NodeRef::Node(n));
        if let NodeKind::Element { attrs, .. } = &doc.node(n).kind {
            let mut names: Vec<&str> = attrs.iter().map(|(name, _)| &**name).collect();
            names.sort_unstable();
            walk.extend(names.into_iter().map(|name| NodeRef::Attr { owner: n, name: name.into() }));
        }
    }
    let mut nodes: Vec<NodeRef> = walk.iter().rev().chain(walk.iter().step_by(3)).cloned().collect();
    xic_xpath::dedup_nodes(&mut nodes);
    if nodes.len() != walk.len() {
        return Err(format!("the dedup kept {} of {} distinct nodes", nodes.len(), walk.len()));
    }
    doc.sort_document_order(&mut nodes, NodeRef::anchor);
    match (0..walk.len()).find(|&i| nodes[i] != walk[i]) {
        Some(i) => Err(format!(
            "sort_document_order puts {:?} where a preorder walk meets {:?} ({i} of {})",
            nodes[i],
            walk[i],
            walk.len()
        )),
        None => Ok(()),
    }
}

/// The independence oracle: a fresh checker pair replays the statement
/// with the static skip mask on and off, each over a Γ of its own, so the
/// pre-filtered pattern compile is compared against the unfiltered one.
/// Soundness of the analysis means the mask is *observationally
/// invisible*: decisions, violation reports and post-states must not
/// depend on it — including for a statement that breaks DTD-edge
/// conformance.
fn independence_oracle(case: &Case, stmt: &XUpdateDoc) -> Result<(), String> {
    use xicheck::SharedGamma;
    let checker = |gamma: Result<Arc<SharedGamma>, CheckerError>, side: &str| {
        gamma
            .and_then(|gamma| Checker::from_shared(&case.doc_xml, &gamma))
            .map_err(|e| format!("{side} checker setup failed: {e}"))
    };
    let mut on = checker(SharedGamma::compile(&case.dtd, &case.constraints), "masked")?;
    let off = SharedGamma::compile_unmasked(&case.dtd, &case.constraints);
    let mut off = checker(off, "unmasked")?;

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

    // Oracle 4: XPath/XQuery vs the naive reference evaluator, on the
    // pre-state here and on the post-state below — of the generated case:
    // its hostile twin's document only adds a comment and a PI.
    let twin = case.mode == "hostile";
    if !twin {
        reference::differential(case.seed, &dtd, &doc).map_err(|d| ("xpath-differential", d))?;
    }

    // Oracle 5: document order against a preorder walk, on the pristine
    // pre-state…
    order_oracle(&doc).map_err(|d| ("order", d))?;

    // Oracle 2: rollback fidelity of plain apply + undo — and, along the
    // way, the plain-application post-state the decision oracle compares
    // final documents against.
    ask_indexes(&doc);
    let audit = |doc: &Document, when: &str| {
        doc.audit_indexes().map_err(|e| ("rollback", format!("indexes corrupt after {when}: {e}")))
    };
    // A clone shares every chunk of the pre-state (as a service snapshot
    // does): the apply and the undo write copies, never the shared chunks.
    let pinned = doc.clone();
    let intact = |when: &str| {
        let fail = |e: String| ("rollback", format!("the clone taken before the apply, after {when}: {e}"));
        if serialize(&pinned) != original {
            return Err(fail("no longer serializes to the pre-state".to_string()));
        }
        pinned.audit_indexes().map_err(fail)?;
        pinned.audit_symbols().map_err(fail)
    };
    let (post_xml, post_conforming) = match apply(&mut doc, &stmt, &xpath_resolver) {
        Ok(applied) => {
            audit(&doc, "apply")?;
            intact("apply")?;
            let post = serialize(&doc);
            // A committed state comes back from its own serialization
            // unchanged: a checkpoint of it is keyed by that text's crc.
            let round_trip = parse_document(&post).map(|(back, _)| serialize(&back));
            if round_trip.as_ref() != Ok(&post) {
                let detail = format!("{post} parses back as {round_trip:?}");
                return Err(("round-trip", detail));
            }
            let conforming = dtd.validate(&doc).is_ok();
            // Oracle 4 again, on the post-state: an insert-before or -after
            // leaves the per-tag lists out of document order, a rename moves
            // an element between them, a removal leaves allocated nodes
            // detached.
            if !twin {
                reference::differential(case.seed, &dtd, &doc)
                    .map_err(|d| ("xpath-differential", format!("after apply: {d}")))?;
            }
            // …on the post-state, where inserts have put ids out of
            // document order…
            order_oracle(&doc).map_err(|d| ("order", d))?;
            // Oracle 8: a mapped text update writes what its pattern says.
            if let Ok(schema) = xic_mapping::RelSchema::from_dtd(&dtd) {
                if delta::oracle(&schema, &pinned, &doc, &stmt).map_err(|d| ("delta", d))? {
                    tally::incr(Tally::DeltaChecked);
                }
            }
            undo(&mut doc, applied);
            (Some(post), conforming)
        }
        Err((_, partial)) => {
            intact("a failed apply")?;
            undo(&mut doc, partial);
            (None, false)
        }
    };
    // …and after the compensating undo.
    order_oracle(&doc).map_err(|d| ("order", d))?;
    if serialize(&doc) != original {
        return Err((
            "rollback",
            "apply + undo did not restore a byte-identical document".to_string(),
        ));
    }
    doc.audit_symbols()
        .map_err(|e| ("rollback", format!("tag-name symbols corrupt after undo: {e}")))?;
    audit(&doc, "undo")?;
    intact("undo")?;

    // Oracle 1: decision equivalence. The baseline decides via apply to
    // a copy + full check; the optimized engine decides however
    // `try_update` sees fit (simplified pre-check for insertion patterns,
    // baseline otherwise). They must agree — and the accepted final state
    // must equal plain application's.
    // Γ compiled once: every checker of the case shares it.
    let gamma = xicheck::SharedGamma::compile(&case.dtd, &case.constraints)
        .map_err(|e| ("setup", format!("constraint set setup failed: {e}")))?;
    let base = Checker::from_shared(&case.doc_xml, &gamma)
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
    let mut opt = Checker::from_shared(&case.doc_xml, &gamma)
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
            audit(base.doc(), "the baseline's decision on a copy")?;

            // Cross-check the pure optimized decision path wherever it is
            // defined (insertions and one-cell text updates with an
            // incremental pattern); `Err` just means the statement has no
            // optimized check, which is the documented fallback, not a bug.
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
                if matches!(stmt.ops.as_slice(), [XUpdateOp::Update { .. }]) {
                    tally::incr(Tally::TextUpdateCrossChecked);
                }
            }
        }
    }

    // Oracle 6: the static independence mask must be observationally
    // invisible.
    independence_oracle(case, &stmt).map_err(|d| ("independence", d))?;
    if twin {
        hostile::oracle(case, &gamma, &stmt).map_err(|d| ("hostile", d))?;
    }
    Ok(())
}

/// The cases the campaign runs for `seed`: the generated one and its
/// [`hostile`] twin.
fn cases(seed: u64) -> [Case; 2] {
    let case = generate_case(seed);
    [hostile::case(&case), case]
}

/// Generates and checks the cases for `seed`; `None` means all oracles
/// passed on both.
pub fn run_case(seed: u64) -> Option<(&'static str, String)> {
    cases(seed).iter().find_map(|case| check_case(case).err())
}

/// Runs `config.cases` seeds starting at `config.seed`, minimizing every
/// discrepancy found.
pub fn run(config: Config) -> Report {
    let (before, hostile_before) = (tally::counts(), hostile::covered());
    let mut discrepancies = Vec::new();
    each_case(config, |seed, _| {
        for case in cases(seed) {
            if let Err((oracle, detail)) = check_case(&case) {
                let minimized = shrink::minimize(&case, oracle);
                discrepancies.push(Discrepancy {
                    seed,
                    oracle,
                    detail,
                    minimized,
                });
            }
        }
    });
    let (after, hostile_after) = (tally::counts(), hostile::covered());
    Report {
        config,
        discrepancies,
        counts: std::array::from_fn(|i| after[i] - before[i]),
        hostile: std::array::from_fn(|i| hostile_after[i] - hostile_before[i]),
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
            hostile: [1; hostile::PAIRS],
        };
        let covered = [0, 1, 1, 1, 1, 1, 1, 6, 2, 1, 1, 1, 1, 1, 1];
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
        let mut unprobed = covered;
        unprobed[Tally::ReferenceIndexProbe as usize] = 0;
        let floor = report(100, unprobed).outcome().floor.unwrap_err();
        assert!(floor.contains("answered from the document's index"), "{floor}");
        let mut unnarrowed = covered;
        unnarrowed[Tally::ReferenceNarrowed as usize] = 0;
        let floor = report(100, unnarrowed).outcome().floor.unwrap_err();
        assert!(floor.contains("narrowed by a later join"), "{floor}");
        assert_eq!(report(99, unnarrowed).outcome().floor, Ok(()));
        let mut unaimed = report(500, covered);
        unaimed.hostile[hostile::PAIRS - 1] = 0;
        let floor = unaimed.outcome().floor.unwrap_err();
        assert!(floor.contains("never aimed in 500 cases: rename at root"), "{floor}");
        unaimed.config.cases = 499;
        assert_eq!(unaimed.outcome().floor, Ok(()));
        for unchecked in [Tally::DeltaChecked, Tally::TextUpdateCrossChecked] {
            let mut counts = covered;
            counts[unchecked as usize] = 0;
            let floor = report(100, counts).outcome().floor.unwrap_err();
            assert!(floor.contains("text updates' deltas checked"), "{floor}");
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
