//! The optimized pre-update check (the paper's squares): one evaluator,
//! shared by the writer and every snapshot reader.
//!
//! Deciding an insertion *before* executing it is a plain query over the
//! current state: `map_update` abstracts the statement into its update
//! pattern and this statement's parameter bindings, the pattern's
//! simplified denials Simp<sup>U</sup><sub>Δ</sub>(Γ) are looked up (or
//! compiled on first sight), and each one is evaluated existentially
//! with the bindings plugged in. Nothing here needs write access to the
//! document, a [`crate::Checker`], or the thread that owns one — so
//! `OptimizedCheck::decide` is a function of the document, Γ and the
//! pattern store, and serves [`crate::Checker::try_update`],
//! [`crate::Checker::decide_only`] and
//! [`crate::service::ReadSnapshot::decide`] alike. Compiled patterns live
//! in one place, the [`PatternCache`] the caller hands in (a checker's
//! own, or the one a service or shard set shares); a first sight compiles
//! and publishes there, whoever the caller is. What differs between the
//! callers is only what they do with a `Verdict::NotIncremental` answer
//! (fall back to the baseline strategy, or report it). The only bound on
//! an evaluation is the step budget the caller armed around the call
//! ([`xic_xpath::budget::arm`]); when it runs out the answer is
//! [`CheckerError::BudgetExhausted`], never a retry on the costlier path.
//!
//! In `DESIGN.md`'s system inventory this is row 25.

use crate::checker::{CheckerError, Violation};
use crate::compile::{compile_pattern, CompiledPattern};
use crate::gamma::SharedGamma;
use crate::resolver::xpath_resolver;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, RwLock};
use xic_datalog::Value;
use xic_mapping::{map_update, pattern_key, UpdateMapError};
use xic_translate::{ParamKind, QueryTemplate, TemplateError};
use xic_xml::{Document, NodeId, XUpdateDoc};
use xic_xpath::{NodeRef, XValue};
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
}

impl PatternEntry {
    /// Precompiles `compiled`'s templates. A template that cannot be
    /// precompiled makes the whole pattern non-incremental (the reason is
    /// recorded in `unsupported`), so its statements take the baseline.
    pub(crate) fn build(mut compiled: CompiledPattern) -> Arc<PatternEntry> {
        let ir: Vec<IrTemplate> = match compiled.queries.iter().map(compile_template_ir).collect() {
            Ok(ir) => ir,
            Err(reason) => {
                compiled.queries.clear();
                compiled.unsupported = Some(reason);
                Vec::new()
            }
        };
        Arc::new(PatternEntry { compiled, ir })
    }
}

/// The pattern store (DESIGN.md row 23): every checker has exactly one —
/// its own fresh one until [`crate::Checker::set_pattern_cache`] swaps in
/// a shared one. The shards of a [`crate::shards::ShardSet`] hand every
/// checker the same cache, so an update pattern first seen on one
/// shard is compiled (and IR-precompiled) exactly once — siblings adopt
/// the entry instead of re-running Simp<sup>U</sup><sub>Δ</sub> and
/// template compilation — and a [`crate::service::CheckerService`]
/// hands it to its read snapshots, so `DECIDE` evaluates the same
/// compiled checks the writer commits with.
///
/// Patterns are keyed by [`xic_mapping::pattern_key`], which is a pure
/// function of the statement shape and the relational schema — never of
/// a document instance — so an entry compiled against one document is
/// valid on every document sharing the same [`SharedGamma`]. Entries are
/// not recompiled when a checker's independence flag flips (the
/// templates are identical either way).
#[derive(Default)]
pub struct PatternCache {
    entries: RwLock<HashMap<String, Arc<PatternEntry>>>,
}

impl PatternCache {
    /// A fresh, empty cache behind an `Arc`, ready to hand to
    /// [`crate::Checker::set_pattern_cache`] on each sharing checker.
    pub fn new() -> Arc<PatternCache> {
        Arc::new(PatternCache::default())
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

    pub(crate) fn get(&self, key: &str) -> Option<Arc<PatternEntry>> {
        self.read_entries().get(key).cloned()
    }

    /// The compiled patterns currently cached, in no particular order.
    pub(crate) fn compiled(&self) -> Vec<CompiledPattern> {
        self.read_entries().values().map(|e| e.compiled.clone()).collect()
    }

    /// Publishes every entry of this cache into `other` (first publisher
    /// wins there, as always). The entries are copied out first, so no
    /// lock is held across the two caches (`other` may be `self`).
    pub(crate) fn republish_into(&self, other: &PatternCache) {
        let entries: Vec<_> =
            self.read_entries().iter().map(|(k, e)| (k.clone(), Arc::clone(e))).collect();
        for (key, entry) in entries {
            other.publish(&key, entry);
        }
    }

    /// Publishes `entry` under `key` unless a sibling got there first,
    /// and returns the entry the cache holds afterwards: the first
    /// publisher wins, everyone else adopts the winner.
    pub(crate) fn publish(&self, key: &str, entry: Arc<PatternEntry>) -> Arc<PatternEntry> {
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

/// Why a statement has no optimized pre-update check — exactly the cases
/// [`crate::Checker::try_update`] sends down the baseline strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Fallback {
    /// The statement removes, updates or renames; the simplification
    /// framework targets insertions (Section 5).
    NonInsertion,
    /// `map_update` could not abstract the statement against this
    /// document (select matching zero or several nodes, fragment that
    /// does not fit the schema).
    Unmappable(UpdateMapError),
    /// The statement's pattern has no incremental check: simplification
    /// or translation is unsupported for it.
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

impl fmt::Display for Fallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fallback::NonInsertion => UpdateMapError::NotInsertion.fmt(f),
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
    /// Every simplified check passed: executing the statement keeps Γ.
    Legal,
    /// A simplified check fired: executing the statement would violate Γ.
    Violated(Violation),
    /// No optimized check exists for this statement in this state; the
    /// baseline strategy (apply, full check, roll back) decides it.
    NotIncremental(Fallback),
}

impl Verdict {
    /// The verdict as the decide-only entry point reports it: a statement
    /// without an optimized check is an error there, not a fallback.
    pub(crate) fn decision(self) -> Result<Option<Violation>, CheckerError> {
        match self {
            Verdict::Legal => Ok(None),
            Verdict::Violated(v) => Ok(Some(v)),
            Verdict::NotIncremental(reason) => Err(CheckerError::Statement(reason.to_string())),
        }
    }
}

/// The optimized pre-update check over one document state: everything
/// the evaluation reads, none of it mutable.
pub(crate) struct OptimizedCheck<'a> {
    /// The state the statement is decided against (the writer's live
    /// document or a reader's snapshot).
    pub(crate) doc: &'a Document,
    /// The compiled constraint set.
    pub(crate) gamma: &'a SharedGamma,
    /// Whether the static independence analysis is on (compile-time
    /// pre-filtering of Γ and the skip/retain counters).
    pub(crate) independence: bool,
}

impl OptimizedCheck<'_> {
    /// Compiles `mapped`'s pattern against Γ, IR-precompiled and ready
    /// to share.
    fn compile(&self, mapped: &xic_mapping::MappedUpdate) -> Arc<PatternEntry> {
        PatternEntry::build(compile_pattern(
            mapped,
            self.gamma.constraints(),
            self.gamma.schema(),
            self.independence,
        ))
    }

    /// Decides `stmt` against the document without touching it, and
    /// reports whether its pattern was already in `patterns` (`None` when
    /// the statement never got as far as a pattern key). A first sight is
    /// compiled here and published; a sibling that published the same key
    /// meanwhile wins and its entry is the one evaluated.
    pub(crate) fn decide(
        &self,
        stmt: &XUpdateDoc,
        patterns: &PatternCache,
    ) -> (Result<Verdict, CheckerError>, Option<bool>) {
        let mut hit = None;
        let verdict = match self.decide_inner(stmt, patterns, &mut hit) {
            // A spent budget cannot pay for the costlier path either: say
            // so before a reader copies the document to find out.
            Ok(Verdict::NotIncremental(_)) if xic_xpath::budget::remaining() == Some(0) => {
                Err(CheckerError::BudgetExhausted)
            }
            verdict => verdict,
        };
        (verdict, hit)
    }

    fn decide_inner(
        &self,
        stmt: &XUpdateDoc,
        patterns: &PatternCache,
        hit: &mut Option<bool>,
    ) -> Result<Verdict, CheckerError> {
        if !stmt.insertions_only() {
            return Ok(Verdict::NotIncremental(Fallback::NonInsertion));
        }
        let mapped = match map_update(self.doc, self.gamma.schema(), stmt, &xpath_resolver) {
            Ok(mapped) => mapped,
            Err(UpdateMapError::BudgetExhausted) => return Err(CheckerError::BudgetExhausted),
            Err(e) => return Ok(Verdict::NotIncremental(Fallback::Unmappable(e))),
        };
        if let Some(rel) = mapped.displaced.iter().find(|rel| self.gamma.reads_pos(rel)) {
            return Ok(Verdict::NotIncremental(Fallback::PosShift { rel: rel.clone() }));
        }
        let key = pattern_key(&mapped.update);
        let cached = patterns.get(&key);
        *hit = Some(cached.is_some());
        let entry = cached.unwrap_or_else(|| patterns.publish(&key, self.compile(&mapped)));
        if !entry.compiled.is_incremental() {
            return Ok(Verdict::NotIncremental(Fallback::NonIncremental { key }));
        }
        let compiled = &entry.compiled;
        // The compiled pattern's parameter names are positionally
        // identical to the freshly mapped ones (the mapping is
        // deterministic), so the new bindings apply directly.
        let _check = xic_obs::phase("check");
        let _optimized = xic_obs::phase("optimized");
        if self.independence {
            let skipped = compiled.live.iter().filter(|&&l| !l).count();
            xic_obs::add(xic_obs::Counter::ChecksSkippedStatic, skipped as u64);
            xic_obs::add(
                xic_obs::Counter::ChecksRetainedStatic,
                (compiled.live.len() - skipped) as u64,
            );
        }
        for ((t, q), d) in entry.ir.iter().zip(&compiled.queries).zip(&compiled.simplified) {
            if self.violates(t, q, &mapped.bindings)? {
                // The text is for the report only: a value that cannot be
                // quoted leaves the template as it is.
                let query =
                    q.instantiate(self.doc, &mapped.bindings).unwrap_or_else(|_| q.text.clone());
                return Ok(Verdict::Violated(Violation { denial: d.to_string(), query }));
            }
        }
        Ok(Verdict::Legal)
    }

    /// One template evaluation with the update's parameters bound
    /// directly: does the simplified denial fire?
    fn violates(
        &self,
        t: &IrTemplate,
        q: &QueryTemplate,
        bindings: &HashMap<String, Value>,
    ) -> Result<bool, CheckerError> {
        let params = bind_ir_params(t, self.doc, bindings)
            .map_err(|e| CheckerError::Query(e.to_string()))?;
        t.program.eval_exists(self.doc, &params).map_err(|e| CheckerError::eval(&q.text, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Checker;
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
        let sites: Vec<usize> = pattern
            .queries
            .iter()
            .map(|q| compile_template_ir(q).expect("precompiles").program.plan_sites())
            .collect();
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
        let planned: Vec<usize> = c
            .shared_gamma()
            .full_queries()
            .iter()
            .map(|q| XProgram::compile(&parse_query(&q.text).expect("parses")).plan_sites())
            .collect();
        assert_eq!(planned, [0, 1, 2, 0]);
    }
}
