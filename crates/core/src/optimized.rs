//! The optimized pre-update check (the paper's squares): one evaluator,
//! shared by the writer and every snapshot reader.
//!
//! Deciding an insertion, or a text update of one compacted column,
//! *before* executing it is a plain query over the current state:
//! `map_update` abstracts the statement into its update pattern and this
//! statement's parameter bindings, the pattern's simplified denials
//! Simp<sup>U</sup><sub>Δ</sub>(Γ) are looked up (or compiled on first
//! sight), and each one is evaluated existentially with the bindings
//! plugged in. A denial the pattern could not simplify (a *residual*) is
//! read off a copy with the statement applied, once the others passed;
//! the writer commits that copy. Nothing here needs write access to the
//! document, a [`crate::Checker`], or the thread that owns one — so the
//! decision is a function of the document and Γ, and serves
//! [`crate::Checker::try_update`], [`crate::Checker::decide_only`] and
//! [`crate::service::ReadSnapshot::decide`] alike. Compiled patterns live
//! in one place, the [`PatternCache`] that Γ owns; a first sight compiles
//! and publishes there, whoever the caller is. A `Verdict::NotIncremental`
//! answer falls back to the baseline strategy in one place,
//! `SharedGamma::decide`, for the writer and every snapshot alike;
//! [`crate::Checker::decide_only`] reports it instead. The only bound on
//! an evaluation is the step budget the caller armed around the call
//! ([`xic_xpath::budget::arm`]); when it runs out the answer is
//! [`CheckerError::BudgetExhausted`], never a retry on the costlier path.
//!
//! In `DESIGN.md`'s system inventory this is row 25.

use crate::checker::{CheckerError, Violation};
use crate::compile::{compile_pattern, CompiledPattern};
use crate::gamma::{apply_to_copy, count_retained, SharedGamma};
use crate::resolver::{resolved_targets, xpath_resolver};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;
use xic_datalog::Value;
use xic_mapping::{map_update, pattern_key, MappedUpdate, UpdateMapError};
use xic_translate::{ParamKind, QueryTemplate, TemplateError};
use xic_xml::{Document, NodeId, XUpdateDoc, XUpdateOp};
use xic_xpath::{Axis, BinOp, Expr, NodeRef, NodeTest, Step, XValue};
use xic_xquery::{parse_query, XProgram};

/// One precompiled pattern template: `%{name}` placeholders become
/// leading program parameters (`$xic_p_name`) instead of text
/// substitutions, so the per-update cost drops from render-text + parse +
/// compile + evaluate to bind-values + evaluate.
struct IrTemplate {
    program: XProgram,
    /// Placeholder name and kind per program parameter, in parameter order.
    params: Vec<(String, ParamKind)>,
}

/// A compiled update pattern bundled with its IR precompilation: one
/// program per template in `compiled.queries`.
/// Entries are immutable once built, so they are shared (`Arc`) between
/// the [`PatternCache`] and everyone evaluating through it.
pub(crate) struct PatternEntry {
    pub(crate) compiled: CompiledPattern,
    ir: Vec<IrTemplate>,
    /// One program per `compiled.post_checks` entry.
    post_ir: Vec<IrTemplate>,
}

impl PatternEntry {
    /// The first of the pattern's simplified checks that fires on `doc`
    /// with `bindings` plugged in. The compiled pattern's parameter names
    /// are positionally identical to the freshly mapped ones (the mapping
    /// is deterministic), so a statement's bindings apply directly.
    fn violation(
        &self,
        doc: &Document,
        bindings: &HashMap<String, Value>,
    ) -> Result<Option<Violation>, CheckerError> {
        let _check = xic_obs::phase("check");
        let _optimized = xic_obs::phase("optimized");
        let compiled = &self.compiled;
        for ((t, q), d) in self.ir.iter().zip(&compiled.queries).zip(&compiled.simplified) {
            if let Some(violation) = fires(doc, t, q, d, bindings)? {
                return Ok(Some(violation));
            }
        }
        Ok(None)
    }

    /// Precompiles `compiled`'s templates. A template that cannot be
    /// precompiled makes the whole pattern non-incremental (the reason is
    /// recorded in `unsupported`), so its statements take the baseline.
    /// A post check that cannot be precompiled is dropped: its
    /// constraint's full-check query reads the copy instead.
    fn build(mut compiled: CompiledPattern) -> Arc<PatternEntry> {
        let ir: Vec<IrTemplate> = match compiled.queries.iter().map(compile_template_ir).collect() {
            Ok(ir) => ir,
            Err(reason) => {
                compiled.queries.clear();
                compiled.unsupported = Some(reason);
                Vec::new()
            }
        };
        let mut post_ir = Vec::new();
        compiled.post_checks.retain(|(_, _, q)| {
            compile_template_ir(q).map(|t| post_ir.push(t)).is_ok()
        });
        Arc::new(PatternEntry { compiled, ir, post_ir })
    }
}

/// The pattern store (DESIGN.md row 23): every [`SharedGamma`] owns
/// exactly one, built empty when Γ is compiled, and nothing else builds
/// one. Every checker, shard and read snapshot over one Γ therefore
/// shares it: an update pattern first seen anywhere is compiled (and
/// IR-precompiled) exactly once — the others adopt the entry instead of
/// re-running Simp<sup>U</sup><sub>Δ</sub> and template compilation — and
/// `DECIDE` evaluates the same compiled checks the writer commits with.
///
/// Patterns are keyed by [`xic_mapping::pattern_key`], which is a pure
/// function of the statement shape and the relational schema — never of
/// a document instance, nor of the constraints. An entry compiled against
/// one document is valid on every document over the same Γ; checkers
/// over two Γs never share a store, so a key cannot carry one Γ's checks
/// into another.
pub struct PatternCache {
    entries: RwLock<HashMap<String, Arc<PatternEntry>>>,
    /// Compiles run for this cache — a sibling's that lost the publish
    /// race included — and their total wall time in µs.
    compiles: AtomicU64,
    compile_us: AtomicU64,
}

impl PatternCache {
    /// An empty store, for a Γ being compiled.
    pub(crate) fn new() -> PatternCache {
        PatternCache {
            entries: RwLock::default(),
            compiles: AtomicU64::new(0),
            compile_us: AtomicU64::new(0),
        }
    }

    /// Compiled patterns currently cached.
    pub fn len(&self) -> usize {
        self.read_entries().len()
    }

    /// True when no pattern has been published yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn read_entries(&self) -> std::sync::RwLockReadGuard<'_, HashMap<String, Arc<PatternEntry>>> {
        // A poisoned lock only means a sibling panicked mid-insert; the
        // map itself is always in a consistent state (single HashMap op).
        self.entries.read().unwrap_or_else(|e| e.into_inner())
    }

    fn get(&self, key: &str) -> Option<Arc<PatternEntry>> {
        self.read_entries().get(key).cloned()
    }

    /// The compiled patterns currently cached, in no particular order.
    pub(crate) fn compiled(&self) -> Vec<CompiledPattern> {
        self.read_entries().values().map(|e| e.compiled.clone()).collect()
    }

    /// How many patterns were compiled for this cache, and in how many µs
    /// all told (the `patterns_compiled=` and `pattern_compile_us=` of
    /// `STATS`).
    pub(crate) fn compile_stats(&self) -> (u64, u64) {
        (self.compiles.load(Ordering::Relaxed), self.compile_us.load(Ordering::Relaxed))
    }

    /// Runs `compile`, counts it and its time, and publishes the entry
    /// under `key` (see [`PatternCache::publish`]).
    fn compile_and_publish(
        &self,
        key: &str,
        compile: impl FnOnce() -> Arc<PatternEntry>,
    ) -> Arc<PatternEntry> {
        let start = Instant::now();
        let entry = compile();
        self.compiles.fetch_add(1, Ordering::Relaxed);
        self.compile_us.fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
        self.publish(key, entry)
    }

    /// Publishes `entry` under `key` unless a sibling got there first,
    /// and returns the entry the cache holds afterwards: the first
    /// publisher wins, everyone else adopts the winner.
    fn publish(&self, key: &str, entry: Arc<PatternEntry>) -> Arc<PatternEntry> {
        let mut map = self.entries.write().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(key.to_string()).or_insert(entry))
    }
}

/// Precompiles a query template, or says why it cannot be (placeholder
/// name that is not a legal variable suffix, or text that no longer
/// parses after substitution).
fn compile_template_ir(t: &QueryTemplate) -> Result<IrTemplate, String> {
    let mut text = t.text.clone();
    let mut params = Vec::with_capacity(t.params.len());
    let mut names = Vec::with_capacity(t.params.len());
    for (name, kind) in &t.params {
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("check template placeholder {name:?} is not a variable name"));
        }
        let var = format!("xic_p_{name}");
        text = text.replace(&format!("%{{{name}}}"), &format!("${var}"));
        params.push((name.clone(), *kind));
        names.push(var);
    }
    let parsed =
        parse_query(&text).map_err(|e| format!("check template does not parse: {text}: {e}"))?;
    Ok(IrTemplate {
        program: XProgram::compile_with_params(&parsed, &names),
        params,
    })
}

/// Renders an update's bindings as IR parameter values. Unbound
/// placeholders and detached or non-integer node parameters fail with the
/// [`TemplateError`]s [`QueryTemplate::instantiate`] reports for them; a
/// string is passed as it is — a value needs no quoting.
fn bind_ir_params(
    t: &IrTemplate,
    doc: &Document,
    bindings: &HashMap<String, Value>,
) -> Result<Vec<XValue>, TemplateError> {
    t.params
        .iter()
        .map(|(name, kind)| {
            let value = bindings
                .get(name)
                .ok_or_else(|| TemplateError::Unbound(name.clone()))?;
            Ok(match kind {
                ParamKind::NodePath => {
                    let id = value
                        .as_int()
                        .and_then(|i| u32::try_from(i).ok())
                        .ok_or_else(|| TemplateError::BadNode(name.clone()))?;
                    if !doc.is_attached(NodeId(id)) {
                        return Err(TemplateError::BadNode(name.clone()));
                    }
                    XValue::Nodes(vec![NodeRef::Node(NodeId(id))])
                }
                ParamKind::Value => match value {
                    Value::Int(i) => XValue::Num(*i as f64),
                    Value::Str(s) => XValue::Str(s.clone()),
                },
            })
        })
        .collect()
}

/// The first operation of an insertion statement whose `select` could
/// observe what an earlier operation inserted (see
/// [`Fallback::ObservesEarlierOp`]). A single operation never does; a
/// `select` that does not parse is left to `map_update` to report.
fn observes_earlier_op(stmt: &XUpdateDoc) -> Option<usize> {
    let mut inserted: HashSet<&str> = HashSet::new();
    for (k, op) in stmt.ops.iter().enumerate() {
        if k > 0 && xic_xpath::parse(op.select()).is_ok_and(|e| observes(&e, &inserted)) {
            return Some(k);
        }
        if let Some(content) = op.content() {
            inserted.extend((0..content.nodes().len()).filter_map(|i| content.name(i)));
        }
    }
    None
}

/// True if `expr` can evaluate differently once elements named in
/// `inserted` (with their text) were added somewhere: it names one of
/// them, tests or counts nodes without naming them, or reads the string
/// value of a node an insertion may have landed beneath.
fn observes(expr: &Expr, inserted: &HashSet<&str>) -> bool {
    let steps = |steps: &[Step]| {
        steps.iter().any(|s| {
            !matches!(&s.test, NodeTest::Name(n) if !inserted.contains(n.as_str()))
                || s.predicates.iter().any(|p| observes(p, inserted))
        })
    };
    // Compared, computed with or converted, a node-set stands for its
    // nodes' string values; only an attribute's is out of an insertion's
    // reach.
    let value = |e: &Expr| {
        let last = match e {
            Expr::Path(path) => path.steps.last(),
            Expr::Filter { steps, .. } => steps.last(),
            _ => return observes(e, inserted),
        };
        !last.is_some_and(|s| s.axis == Axis::Attribute) || observes(e, inserted)
    };
    match expr {
        Expr::Path(path) => steps(&path.steps),
        Expr::Filter { primary, predicates, steps: trailing } => {
            observes(primary, inserted)
                || predicates.iter().any(|p| observes(p, inserted))
                || steps(trailing)
        }
        Expr::Literal(_) | Expr::Number(_) => false,
        Expr::Binary(a, BinOp::Or | BinOp::And | BinOp::Union, b) => {
            observes(a, inserted) || observes(b, inserted)
        }
        Expr::Binary(a, _, b) => value(a) || value(b),
        Expr::Neg(a) => value(a),
        Expr::Call(name, args) => match name.as_str() {
            "count" | "not" | "boolean" => args.iter().any(|a| observes(a, inserted)),
            // Without arguments a call reads the context: its position,
            // its size or its string value.
            "true" | "false" => false,
            _ => args.is_empty() || args.iter().any(value),
        },
    }
}

/// Why a statement has no optimized pre-update check — exactly the cases
/// [`crate::Checker::try_update`] sends down the baseline strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Fallback {
    /// The statement removes or renames, updates text beside other
    /// operations, or updates the text of anything but one compacted
    /// column: the simplification covers insertions (Section 5) and the
    /// modification of one cell. Such a statement costs apply + write
    /// footprint, plus a full check of only the constraints the footprint
    /// keeps live: none at all for a removal under a Γ that fewer tuples
    /// cannot violate.
    NonInsertion,
    /// A later operation's `select` could match differently once the
    /// earlier operations of the statement ran, and `map_update` resolves
    /// every `select` against the state before all of them: it uses `//`,
    /// `*`, `node()`, `text()`, `comment()` or a context-reading function
    /// such as `last()` or `position()`, names an element an earlier
    /// operation inserts, or compares an element's string value.
    ObservesEarlierOp {
        /// The 0-based index of the first such operation.
        op: usize,
    },
    /// `map_update` could not abstract the statement against this
    /// document (select matching zero or several nodes, fragment that
    /// does not fit the schema).
    Unmappable(UpdateMapError),
    /// The statement's pattern has no incremental check: no live
    /// constraint could be simplified for it, or a check could not be
    /// translated.
    NonIncremental {
        /// The statement's pattern key.
        key: String,
    },
    /// A non-tail insert pushes existing siblings one position on, and a
    /// constraint reads the `Pos` column of their relation. The update
    /// pattern holds only the added tuples, so the simplified checks
    /// would not see the shift (ROADMAP item 2 models it).
    PosShift {
        /// The displaced siblings' relation.
        rel: String,
    },
}

impl Fallback {
    /// The name of each kind of fallback, as `STATS` reports it after
    /// `decides_fallback_`, in the order [`Fallback::kind`] numbers them.
    pub(crate) const NAMES: [&'static str; 5] =
        ["non_insertion", "observes_earlier_op", "unmappable", "non_incremental", "pos_shift"];

    /// This fallback's kind: its index into [`Fallback::NAMES`].
    pub(crate) fn kind(&self) -> usize {
        match self {
            Fallback::NonInsertion => 0,
            Fallback::ObservesEarlierOp { .. } => 1,
            Fallback::Unmappable(_) => 2,
            Fallback::NonIncremental { .. } => 3,
            Fallback::PosShift { .. } => 4,
        }
    }
}

impl fmt::Display for Fallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fallback::NonInsertion => UpdateMapError::NotInsertion.fmt(f),
            Fallback::ObservesEarlierOp { op } => write!(
                f,
                "the select of operation {} could observe an earlier operation of the statement",
                op + 1
            ),
            Fallback::Unmappable(e) => e.fmt(f),
            Fallback::NonIncremental { key } => {
                write!(f, "no compiled incremental pattern for key {key}")
            }
            Fallback::PosShift { rel } => {
                write!(f, "the insert shifts `{rel}` siblings whose position a constraint reads")
            }
        }
    }
}

/// What the optimized pre-update check says about one statement.
#[derive(Debug)]
pub(crate) enum Verdict {
    /// Every simplified check passed, and every residual one on the
    /// updated copy: executing the statement keeps Γ.
    Legal(Legal),
    /// A simplified check fired: executing the statement would violate Γ.
    Violated(Violation),
    /// No optimized check exists for this statement in this state; the
    /// baseline strategy (apply to a copy, full check) decides it.
    NotIncremental(Fallback),
}

/// A legal statement, as its decision left it.
#[derive(Debug)]
pub(crate) enum Legal {
    /// Decided on the current version alone: the node each operation's
    /// `select` resolved to there, in statement order.
    Targets(Vec<NodeId>),
    /// Decided on this copy, the statement applied to it (the pattern has
    /// residual constraints): the version a commit swaps in.
    Applied(Document),
}

impl Verdict {
    /// The verdict as the decide-only entry point reports it: a statement
    /// without an optimized check is an error there, not a fallback.
    pub(crate) fn decision(self) -> Result<Option<Violation>, CheckerError> {
        match self {
            Verdict::Legal(_) => Ok(None),
            Verdict::Violated(v) => Ok(Some(v)),
            Verdict::NotIncremental(reason) => Err(CheckerError::Statement(reason.to_string())),
        }
    }
}

/// The optimized pre-update check: Γ's methods, over one document state.
impl SharedGamma {
    /// Compiles `mapped`'s pattern against Γ, IR-precompiled, and publishes
    /// it under `key` in Γ's store (a sibling that published the key first
    /// wins, and its entry is returned).
    pub(crate) fn compile_and_publish(&self, key: &str, mapped: &MappedUpdate) -> Arc<PatternEntry> {
        self.patterns().compile_and_publish(key, || {
            PatternEntry::build(compile_pattern(
                mapped,
                self.constraints(),
                self.schema(),
                self.independence(),
            ))
        })
    }

    /// Decides `stmt` against `doc` — the writer's live document or a
    /// reader's snapshot — without touching it. A first sight is compiled
    /// here and published; a sibling that published the same key
    /// meanwhile wins and its entry is the one evaluated.
    pub(crate) fn decide_optimized(
        &self,
        doc: &Document,
        stmt: &XUpdateDoc,
    ) -> Result<Verdict, CheckerError> {
        match self.decide_inner(doc, stmt) {
            // A spent budget cannot pay for the costlier path either: say
            // so before a reader copies the document to find out.
            Ok(Verdict::NotIncremental(_)) if xic_xpath::budget::remaining() == Some(0) => {
                Err(CheckerError::BudgetExhausted)
            }
            verdict => verdict,
        }
    }

    fn decide_inner(&self, doc: &Document, stmt: &XUpdateDoc) -> Result<Verdict, CheckerError> {
        let text_update = matches!(stmt.ops.as_slice(), [XUpdateOp::Update { .. }]);
        if !stmt.insertions_only() && !text_update {
            return Ok(Verdict::NotIncremental(Fallback::NonInsertion));
        }
        if let Some(op) = observes_earlier_op(stmt) {
            return Ok(Verdict::NotIncremental(Fallback::ObservesEarlierOp { op }));
        }
        let mapped = match map_update(doc, self.schema(), stmt, &xpath_resolver) {
            Ok(mapped) => mapped,
            Err(UpdateMapError::BudgetExhausted) => return Err(CheckerError::BudgetExhausted),
            Err(UpdateMapError::NotInsertion) => {
                return Ok(Verdict::NotIncremental(Fallback::NonInsertion))
            }
            Err(e) => return Ok(Verdict::NotIncremental(Fallback::Unmappable(e))),
        };
        if let Some(rel) = mapped.displaced.iter().find(|rel| self.reads_pos(rel)) {
            return Ok(Verdict::NotIncremental(Fallback::PosShift { rel: rel.clone() }));
        }
        let key = pattern_key(&mapped.update);
        let entry = self.patterns().get(&key).unwrap_or_else(|| self.compile_and_publish(&key, &mapped));
        if !entry.compiled.is_incremental() {
            return Ok(Verdict::NotIncremental(Fallback::NonIncremental { key }));
        }
        let compiled = &entry.compiled;
        if self.independence() {
            count_retained(&compiled.live, compiled.live.len());
        }
        if let Some(violation) = entry.violation(doc, &mapped.bindings)? {
            return Ok(Verdict::Violated(violation));
        }
        if !compiled.has_residual() {
            return Ok(Verdict::Legal(Legal::Targets(mapped.targets)));
        }
        // What `After` could not rewrite is read off the updated copy.
        let (copy, violation) = self.decide_residual(doc, stmt, &mapped, &entry)?;
        Ok(match violation {
            Some(violation) => Verdict::Violated(violation),
            None => Verdict::Legal(Legal::Applied(copy)),
        })
    }

    /// The second half of a decision whose pattern keeps constraints
    /// `After` could not rewrite: applies `stmt` to a copy of `doc`,
    /// answered from the targets the mapping resolved, and checks in the
    /// copy the residual constraints the applied delta can reach (the
    /// masked full check [`SharedGamma::decide_full`] makes, restricted to
    /// them) — each by its post check where the modification has one, by
    /// its full-check query otherwise. Returns the copy with the verdict;
    /// `doc` is never touched.
    fn decide_residual(
        &self,
        doc: &Document,
        stmt: &XUpdateDoc,
        mapped: &MappedUpdate,
        entry: &PatternEntry,
    ) -> Result<(Document, Option<Violation>), CheckerError> {
        let (copy, applied) = apply_to_copy(doc, stmt, &resolved_targets(stmt, &mapped.targets))?;
        let live = self.live_mask(&copy, &applied);
        let _check = xic_obs::phase("check");
        let _residual = xic_obs::phase("residual");
        let residual = entry.compiled.residual.iter().enumerate().filter(|&(_, &r)| r);
        for (i, _) in residual.filter(|(i, _)| live.as_ref().is_none_or(|l| l[*i])) {
            let post = entry.compiled.post_checks.iter().position(|(k, ..)| *k == i);
            let violation = match post {
                Some(k) => {
                    let (_, denial, q) = &entry.compiled.post_checks[k];
                    fires(&copy, &entry.post_ir[k], q, denial, &mapped.bindings)?
                }
                None => self.violation_of(&copy, i)?,
            };
            if violation.is_some() {
                return Ok((copy, violation));
            }
        }
        Ok((copy, None))
    }
}

/// The violation of `denial` if its template `t` (`q`'s program)
/// fires on `doc` with `bindings` plugged in.
fn fires(
    doc: &Document,
    t: &IrTemplate,
    q: &QueryTemplate,
    denial: &xic_datalog::Denial,
    bindings: &HashMap<String, Value>,
) -> Result<Option<Violation>, CheckerError> {
    if !violates(doc, t, q, bindings)? {
        return Ok(None);
    }
    // The text is for the report only: a value that cannot be quoted
    // leaves the template as it is.
    let query = q.instantiate(doc, bindings).unwrap_or_else(|_| q.text.clone());
    Ok(Some(Violation { denial: denial.to_string(), query }))
}

/// One template evaluation with the update's parameters bound directly:
/// does the simplified denial fire on `doc`?
fn violates(
    doc: &Document,
    t: &IrTemplate,
    q: &QueryTemplate,
    bindings: &HashMap<String, Value>,
) -> Result<bool, CheckerError> {
    let params =
        bind_ir_params(t, doc, bindings).map_err(|e| CheckerError::Query(e.to_string()))?;
    t.program.eval_exists(doc, &params).map_err(|e| CheckerError::eval(&q.text, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Checker;
    use xic_xml::XUpdateOp;
    use xic_workload::{
        conflict_constraint, generate, legal_insert, review_load_constraint, workload_constraint,
        WorkloadConfig,
    };

    const DTD: &str = "<!ELEMENT collection (dblp, review)>\n<!ELEMENT dblp (pub)*>\n\
        <!ELEMENT pub (title, aut+)>\n<!ELEMENT aut (name)>\n\
        <!ELEMENT review (track)+>\n<!ELEMENT track (name,rev+)>\n\
        <!ELEMENT rev (name, sub+)>\n<!ELEMENT sub (title, auts+)>\n\
        <!ELEMENT title (#PCDATA)>\n<!ELEMENT auts (name)>\n<!ELEMENT name (#PCDATA)>";

    /// A pre-update check compares the document against `%{param}`s, which
    /// take one value per evaluation: one probe each, which the document's
    /// own index answers. The templates that look a value up anywhere in
    /// the document (3: `some … in //aut`, 4: the two keyed steps) are
    /// planned and ask for their indexes; the two that only navigate from
    /// the update's target have nothing to plan. The full-check queries
    /// of the same Γ are planned as they were.
    #[test]
    fn pre_update_templates_probe_the_documents_index() {
        let w = generate(WorkloadConfig::sized_kib(8, 1));
        let gamma = format!(
            "{}. {}. {}",
            conflict_constraint(),
            workload_constraint(3, 1_000),
            review_load_constraint(1_000)
        );
        let mut c = Checker::new(&w.xml, DTD, &gamma).expect("corpus loads");
        let key = c.register_pattern_str(&legal_insert(0, 0, 1)).expect("pattern compiles");
        let pattern = c.patterns().find(|p| p.key == key).expect("just registered");
        let programs: Vec<XProgram> =
            pattern.queries.iter().map(|q| compile_template_ir(q).expect("precompiles").program).collect();
        let sites: Vec<usize> = programs.iter().map(XProgram::plan_sites).collect();
        assert_eq!(sites, [0, 0, 1, 2]);
        // Deciding the insert asks the document for the templates' three
        // shapes — `aut` by `name`, `track` by `rev/name`, `rev` by `name`
        // — once; the next decision finds them built.
        let stmt = XUpdateDoc::parse(&legal_insert(0, 0, 1)).expect("statement parses");
        for builds in [3, 0] {
            xic_obs::reset();
            assert_eq!(c.decide_only(&stmt, crate::Strategy::Optimized).expect("decides"), None);
            assert_eq!(xic_obs::counter(xic_obs::Counter::IndexProbe), 3);
            assert_eq!(xic_obs::counter(xic_obs::Counter::IndexBuild), builds);
        }
        let full: Vec<XProgram> = c
            .shared_gamma()
            .full_queries()
            .iter()
            .map(|q| XProgram::compile(&parse_query(&q.text).expect("parses")))
            .collect();
        assert_eq!(full.iter().map(XProgram::plan_sites).collect::<Vec<_>>(), [0, 1, 2, 0]);
        // Below its boolean root, nothing a template or a full-check query
        // evaluates can observe document order.
        for p in programs.iter().chain(&full) {
            let root = p.root as usize;
            assert!(p.ordered.iter().enumerate().all(|(i, &bit)| !bit || i == root));
            assert!(!p.xp.ordered.contains(&true), "{:?}", p.insts[root]);
        }
    }

    /// The work of compiling the benchmark's pattern, by counts: `After`
    /// expands Γ into 12 clauses, `Optimize` drops 8 of them by
    /// subsumption, and only the 16 pairs whose literal signatures allow
    /// it are searched — without the signature check it is every pair
    /// `optimize` tries, 68.
    #[test]
    fn a_compile_searches_only_the_pairs_its_signatures_allow() {
        let w = generate(WorkloadConfig::sized_kib(32, 7));
        let gamma = format!(
            "{}. {}. {}",
            conflict_constraint(),
            workload_constraint(3, 1_000),
            review_load_constraint(1_000)
        );
        let mut c = Checker::new(&w.xml, DTD, &gamma).expect("corpus loads");
        xic_obs::reset();
        c.register_pattern_str(&legal_insert(0, 0, 1)).expect("pattern compiles");
        let count = xic_obs::counter;
        assert_eq!(count(xic_obs::Counter::ClausesExpanded), 12);
        assert_eq!(count(xic_obs::Counter::ClausesSurviving), 4);
        assert_eq!(count(xic_obs::Counter::DenialsSubsumed), 8);
        assert_eq!(count(xic_obs::Counter::SubsumptionSearches), 16);
    }

    /// Relations named by capitalized tags keep their own checks: `After`
    /// expands the two constraints into `← Book(…, $v)` and
    /// `← Paper(…, $v)`, which differ only in the predicate and must not
    /// be de-duplicated as variants of each other — the insert repeats a
    /// `Paper`'s text, not a `Book`'s.
    #[test]
    fn capitalized_relations_are_not_variants_of_each_other() {
        let dtd = "<!ELEMENT db (Book*, Paper*, Rev*)> <!ELEMENT Book (t)> \
                   <!ELEMENT Paper (t)> <!ELEMENT Rev (t)> <!ELEMENT t (#PCDATA)>";
        let xml = "<db><Book><t>a</t></Book><Paper><t>b</t></Paper><Rev><t>c</t></Rev></db>";
        let gamma = "<- //Book/t/text() -> X & //Rev/t/text() -> X. \
                     <- //Paper/t/text() -> X & //Rev/t/text() -> X";
        let c = Checker::new(xml, dtd, gamma).expect("document loads");
        let stmt = XUpdateDoc::parse(
            "<xupdate:modifications xmlns:xupdate=\"x\"><xupdate:append select=\"/db\">\
             <Rev><t>b</t></Rev></xupdate:append></xupdate:modifications>",
        )
        .expect("statement parses");
        let optimized = c.decide_only(&stmt, crate::Strategy::Optimized).expect("decides");
        let baseline = c.decide_only(&stmt, crate::Strategy::FullWithRollback).expect("decides");
        assert!(baseline.is_some(), "the insert repeats a Paper's text");
        assert!(optimized.is_some(), "the optimized check missed the Paper constraint");
    }

    /// Which later selects could observe an earlier operation (the
    /// statement of seed 100287, `crates/core/tests/error_paths.rs`): one
    /// operation, or a later one that names nothing the earlier ones
    /// insert, keeps the optimized check.
    #[test]
    fn a_select_observes_what_it_names_or_does_not_name() {
        let stmt = XUpdateDoc::parse(
            "<xupdate:modifications xmlns:xupdate=\"http://www.xmldb.org/xupdate\">\
             <xupdate:insert-before select=\"/e0/e2[1]\"><e2><e3>beta</e3></e2></xupdate:insert-before>\
             <xupdate:insert-before select=\"/e0/e2[1]/e4[1]\"><e4>gamma</e4></xupdate:insert-before>\
             </xupdate:modifications>",
        )
        .expect("statement parses");
        assert_eq!(observes_earlier_op(&stmt), Some(1), "it names the inserted e2");
        let single = XUpdateDoc { ops: stmt.ops[..1].to_vec() };
        assert_eq!(observes_earlier_op(&single), None);
        let second_select = |s: &str| {
            let mut apart = stmt.clone();
            if let XUpdateOp::InsertBefore { select, .. } = &mut apart.ops[1] {
                *select = s.to_string();
            }
            observes_earlier_op(&apart)
        };
        for apart in ["/e0/e1[1]", "/e0/e1[@a = 'x']", "/e0/e1[count(e5) = 1]"] {
            assert_eq!(second_select(apart), None, "{apart}");
        }
        for observing in [
            "//e1",
            "/e0/*[1]",
            "/e0/e1/text()",
            "/e0/e1[last()]",
            "/e0/e1[position() = 1]",
            "/e0/e1[count(e3) = 1]",
            // An e3 inserted beneath an e5 changes the e5's string value.
            "/e0/e1[e5 = 'beta']",
            "/e0/e1[string-length(e5) > 4]",
        ] {
            assert_eq!(second_select(observing), Some(1), "{observing}");
        }
    }
}
