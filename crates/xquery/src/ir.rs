//! The XQuery evaluator: slot-bound FLWOR/quantifier evaluation over
//! the flat XPath IR.
//!
//! [`XProgram::compile`] lowers an [`XQuery`] tree into a flat node
//! arena whose embedded XPath leaves all share one
//! [`xic_xpath::ir::Program`] (one name pool, one slot table). Lexical
//! scoping is resolved at compile time: every `for`/`let`/quantifier
//! binder gets a dense slot, and each XPath leaf records which slots are
//! visible at its position, so evaluation never builds (or clones) a
//! name-keyed environment per binding.
//!
//! Sequence → XPath-value conversion happens once per *binding* instead
//! of once per variable per embedded XPath evaluation; a conversion
//! failure is remembered on the slot and raised as soon as any XPath
//! leaf with that slot in scope is evaluated — a variable with no XPath
//! equivalent is an error wherever it is visible, used or not.
//!
//! FLWORs and quantifiers share one driver (`for_each_tuple`): an
//! explicit backtracking frame stack (clause index + live item iterator)
//! rather than recursion per clause. The materializing evaluator is
//! structurally recursive (depth bounded by the query text, never by
//! the data).
//!
//! **Loop invariance.** A `for`/quantifier source that reads no variable
//! of the clauses before it ([`XFor::hoistable`], decided at compile time
//! on slots) is evaluated the first time its clause is reached and kept
//! for the rest of the loop nest, so `some $a in //x, $b in //y satisfies
//! …` is two sequence scans plus the pair loop, not a scan of `//y` per
//! `$a`.
//!
//! **Order.** [`XProgram::mark_order`] marks where the query can observe
//! order; a constraint check (`exists`, `some`, `count`, comparisons)
//! puts nothing in document order.
//!
//! **Value joins.** The translator's denials join on values: `some $a in
//! A, $b in //tag satisfies K($b) = O($a) and …`. When the first conjunct
//! of the `satisfies` that reads a `some`'s last binder `$b` is such an
//! equality — `K` a path from `$b` of child name steps ending in `text()`,
//! `O` reading some variable but not `$b` — and `$b`'s source is `//tag`,
//! the compiler attaches a [`Probe`] carrying the [`IndexShape`] `(tag,
//! K)`. Each outer binding then asks the document
//! ([`xic_xml::Document::members_keyed`], which builds the index the first
//! time) for the members `O`'s value selects, ascending by id, and
//! iterates only those: the source is never walked (a quantifier's
//! sources are unordered, [`XProgram::mark_order`]). The whole `satisfies`
//! still runs on every candidate, so the probe only ever skips members the
//! scan would have found false. Like the XPath half
//! ([`xic_xpath::ir::Inst::Keyed`], which this compiler enables by telling
//! the XPath builder which slots are parameters) it is a compile-time
//! fact, not a mode: an outer binding whose probe cannot stand in for the
//! comparison — `O` raises, or is a number or boolean, or a conjunct
//! before the join raises — iterates the source, which is the scan.
//!
//! **Narrowing.** Each join after the first narrows the index's hits
//! instead of asking again: its `O` is evaluated once per outer binding
//! into a [`ValueSet`], and a hit stays if its `K` — any slot-free steps —
//! meets it. A join that cannot stand in for its comparison for this outer
//! binding (its `O` raises or is a number or boolean, or its `K` raises on
//! a hit) stops the narrowing there and leaves the rest to the
//! `satisfies`, which raises what the scan raises. So the co-author check,
//! `some $r in //rev, $a in //aut satisfies $r/name/text() =
//! $a/name/text() and $r/sub/auts/name/text() = $a/../aut/name/text()`,
//! reads each reviewer's own `aut`s off the index and keeps those whose pub
//! names an author the reviewer reviews.
//!
//! This is the only evaluator: the one-shot entry points in
//! [`crate::eval`] compile and run here, the expected-value tests there
//! are its specification, and the difftest oracle holds it to the naive
//! reference answer for every generated query.

use crate::ast::{Clause, XQuery};
use crate::eval::{node_to_constructed, XQueryError};
use crate::item::{
    effective_boolean, sequence_to_xvalue, xvalue_to_sequence, Constructed, ConstructedChild,
    Item, Sequence,
};
use xic_xml::{Document, NodeId, Symbol};
use xic_xpath::ir::{self, Builder, ExprId, IndexShape, IrStart, IrStep, Scope, SlotId};
use xic_xpath::{BinOp, EvalError, NodeRef, ValueSet, XValue};

/// Index of a node in [`XProgram::insts`].
pub type XId = u32;

/// Pre-resolved XQuery-level function discriminant.
#[derive(Debug, Clone, PartialEq)]
pub enum XCall {
    /// `exists(seq)`
    Exists,
    /// `distinct-values(seq)`
    DistinctValues,
    /// `max(seq)`
    Max,
    /// `min(seq)`
    Min,
    /// `empty(seq)`
    Empty,
    /// `count(seq)`
    Count,
    /// `not(v)`
    Not,
    /// `boolean(v)`
    Boolean,
    /// `string(seq)`
    String,
    /// Unsupported at the XQuery level; errors when (and only when)
    /// evaluated.
    Unknown(Box<str>),
}

impl XCall {
    fn display_name(&self) -> &str {
        match self {
            XCall::Exists => "exists",
            XCall::DistinctValues => "distinct-values",
            XCall::Max => "max",
            XCall::Min => "min",
            XCall::Empty => "empty",
            XCall::Count => "count",
            XCall::Not => "not",
            XCall::Boolean => "boolean",
            XCall::String => "string",
            XCall::Unknown(n) => n,
        }
    }

    fn from_name(name: &str) -> XCall {
        match name {
            "exists" => XCall::Exists,
            "distinct-values" => XCall::DistinctValues,
            "max" => XCall::Max,
            "min" => XCall::Min,
            "empty" => XCall::Empty,
            "count" => XCall::Count,
            "not" => XCall::Not,
            "boolean" => XCall::Boolean,
            "string" => XCall::String,
            other => XCall::Unknown(other.into()),
        }
    }
}

/// One compiled `for` clause or quantifier binder.
#[derive(Debug, Clone, PartialEq)]
pub struct XFor {
    /// Binding slot.
    pub slot: SlotId,
    /// Source expression.
    pub source: XId,
    /// True if an earlier clause of the same loop nest loops and the
    /// source reads no slot those clauses bind: it is then evaluated once
    /// per loop nest instead of once per outer binding.
    pub hoistable: bool,
    /// The value-join plan of a `some`'s last binder, if it has one.
    pub probe: Option<Probe>,
}

/// The joins `K($b) = O` found in a `some … satisfies` (module
/// documentation): what to ask the document's index per outer binding,
/// and what to narrow its hits by.
#[derive(Debug, Clone, PartialEq)]
pub struct Probe {
    /// The conjuncts before the first join, in order. None of them reads
    /// the binder, so one false one empties the candidates for this outer
    /// binding and one that raises hands it to the scan.
    pub guards: Box<[XId]>,
    /// `(K($b), O)` of the first conjunct that reads the binder and of
    /// the join conjuncts directly after it. The candidates are the
    /// members every one of them selects; a later one that cannot be
    /// probed for some outer binding just stops narrowing them.
    pub joins: Box<[(XId, XId)]>,
    /// What to ask the document for in place of the binder's source and
    /// the first join.
    pub index: IndexShape,
}

/// One compiled clause of a loop nest.
#[derive(Debug, Clone, PartialEq)]
pub enum XClause {
    /// `for $slot in source`, or one quantifier binder.
    For(XFor),
    /// `let $slot := value`
    Let {
        /// Binding slot.
        slot: SlotId,
        /// Value expression.
        value: XId,
    },
    /// `where cond`
    Where(XId),
}

impl XClause {
    /// The slot the clause binds, if it binds one.
    fn slot(&self) -> Option<SlotId> {
        match self {
            XClause::For(f) => Some(f.slot),
            XClause::Let { slot, .. } => Some(*slot),
            XClause::Where(_) => None,
        }
    }
}

/// One flat XQuery node.
#[derive(Debug, Clone, PartialEq)]
pub enum XInst {
    /// An embedded XPath leaf. `scope` lists the slots lexically visible
    /// here (innermost binding per name), checked for conversion errors
    /// before evaluation.
    XPath {
        /// Root of the compiled expression in the shared XPath arena.
        expr: ExprId,
        /// Slots in scope at this leaf.
        scope: Box<[SlotId]>,
    },
    /// `(e1, e2, …)`
    Sequence(Box<[XId]>),
    /// FLWOR expression.
    Flwor {
        /// Clauses in order.
        clauses: Box<[XClause]>,
        /// Return expression.
        ret: XId,
    },
    /// `some`/`every` quantifier.
    Quantified {
        /// True for `some`, false for `every`.
        some: bool,
        /// Bindings in order, every one an [`XClause::For`].
        binds: Box<[XClause]>,
        /// The satisfies condition.
        satisfies: XId,
    },
    /// Conditional.
    If {
        /// Condition.
        cond: XId,
        /// Then branch.
        then: XId,
        /// Else branch.
        els: XId,
    },
    /// Element constructor.
    Construct {
        /// Element name.
        name: String,
        /// Content expressions.
        content: Box<[XId]>,
    },
    /// XQuery-level function call.
    Call(XCall, Box<[XId]>),
    /// Binary operation.
    Binary(XId, BinOp, XId),
}

/// A compiled XQuery: flat node arena over one shared XPath program.
#[derive(Debug, Clone)]
pub struct XProgram {
    /// The shared XPath program (arena, name pool, slot table).
    pub xp: ir::Program,
    /// Flat XQuery node arena.
    pub insts: Vec<XInst>,
    /// Root node.
    pub root: XId,
    /// Number of leading slots reserved for caller-supplied parameters.
    pub num_params: usize,
    /// Per node: whether its consumer observes the order of its value
    /// ([`XProgram::mark_order`]); a union reads it.
    pub ordered: Vec<bool>,
}

impl XProgram {
    /// Compiles a query with no parameters.
    pub fn compile(q: &XQuery) -> XProgram {
        XProgram::compile_with_params(q, &[])
    }

    /// Compiles a query whose variables `params` are supplied by the
    /// caller at evaluation time: `params[i]` is bound to slot `i`.
    pub fn compile_with_params(q: &XQuery, params: &[String]) -> XProgram {
        let mut c = Compiler {
            xp: Builder::new(),
            insts: Vec::new(),
            scope: Vec::new(),
        };
        for p in params {
            let slot = c.xp.fresh_param_slot(p);
            c.scope.push((p.clone(), slot));
        }
        let root = c.add(q);
        let mut prog = XProgram {
            xp: c.xp.finish(),
            ordered: vec![false; c.insts.len()],
            insts: c.insts,
            root,
            num_params: params.len(),
        };
        prog.mark_order(root, true);
        prog
    }

    /// Sets the order bits of `id`, whose consumer observes the order of
    /// its value if `ordered` (the root's: [`XProgram::eval_seq`]), and of
    /// everything under it, top down. A sequence, a FLWOR's `return` and
    /// `for` sources and an `if`'s branches pass the bit on; a `let` value
    /// is ordered where an ordered path reads its slot (the clauses after
    /// it are marked first). Element content, `string`, `max`, `min` and
    /// arithmetic observe order; `exists`, `empty`, `count`, `not`,
    /// `boolean`, comparisons, unions, `where` and quantifiers do not.
    pub fn mark_order(&mut self, id: XId, ordered: bool) {
        self.ordered[id as usize] |= ordered;
        // Cloned: a `let`'s bit is read off the slots the marking of the
        // clauses after it set.
        let inst = self.insts[id as usize].clone();
        match &inst {
            XInst::XPath { expr, .. } => self.xp.mark_order(*expr, ordered),
            XInst::Sequence(items) => items.iter().for_each(|&i| self.mark_order(i, ordered)),
            XInst::Flwor { clauses, ret: body } | XInst::Quantified { binds: clauses, satisfies: body, .. } => {
                let ordered = ordered && matches!(inst, XInst::Flwor { .. });
                self.mark_order(*body, ordered);
                for clause in clauses.iter().rev() {
                    match clause {
                        XClause::For(f) => self.mark_order(f.source, ordered),
                        XClause::Let { slot, value } => {
                            self.mark_order(*value, self.xp.ordered_slots[*slot as usize]);
                        }
                        XClause::Where(cond) => self.mark_order(*cond, false),
                    }
                }
            }
            XInst::If { cond, then, els } => {
                self.mark_order(*cond, false);
                self.mark_order(*then, ordered);
                self.mark_order(*els, ordered);
            }
            XInst::Construct { content, .. } => content.iter().for_each(|&c| self.mark_order(c, true)),
            XInst::Call(op, args) => {
                let bit = match op {
                    XCall::Exists | XCall::Empty | XCall::Count | XCall::Not | XCall::Boolean => false,
                    XCall::DistinctValues => ordered,
                    XCall::String | XCall::Max | XCall::Min | XCall::Unknown(_) => true,
                };
                args.iter().for_each(|&a| self.mark_order(a, bit));
            }
            XInst::Binary(a, op, b) => {
                let first_item = ir::is_arithmetic(*op);
                self.mark_order(*a, first_item);
                self.mark_order(*b, first_item);
            }
        }
    }

    /// How many places of the query the compiler planned a probe of the
    /// document's index at: keyed XPath steps plus quantifier binders
    /// iterated by probe.
    pub fn plan_sites(&self) -> usize {
        let probed = |c: &XClause| matches!(c, XClause::For(f) if f.probe.is_some());
        let quantifiers = self
            .insts
            .iter()
            .filter(|i| matches!(i, XInst::Quantified { binds, .. } if binds.iter().any(probed)))
            .count();
        self.xp.keyed_sites as usize + quantifiers
    }

    /// Existential evaluation (the checker's mode); see
    /// [`crate::eval_query_exists`].
    pub fn eval_exists(&self, doc: &Document, params: &[XValue]) -> Result<bool, XQueryError> {
        let mut st = self.state(doc, params);
        eval_ebv(self.root, &mut st)
    }

    /// Materializing boolean evaluation; see
    /// [`crate::eval_query_bool`].
    pub fn eval_bool(&self, doc: &Document, params: &[XValue]) -> Result<bool, XQueryError> {
        Ok(effective_boolean(&self.eval_seq(doc, params)?))
    }

    /// Materializing evaluation; see [`crate::eval_query`].
    pub fn eval_seq(&self, doc: &Document, params: &[XValue]) -> Result<Sequence, XQueryError> {
        let mut st = self.state(doc, params);
        eval(self.root, &mut st)
    }

    /// A join key `K` of a [`Probe`]: the slots in scope at its XPath leaf,
    /// and the steps it takes from the binder, which read no slot.
    fn key_path(&self, key: XId) -> (&[SlotId], &[IrStep]) {
        let XInst::XPath { expr, scope } = &self.insts[key as usize] else {
            unreachable!("a join key is an XPath leaf");
        };
        let ir::Inst::Path { steps, .. } = &self.xp.exprs[*expr as usize] else {
            unreachable!("a join key is a path from the binder");
        };
        (scope, steps)
    }

    fn state<'p, 'd>(&'p self, doc: &'d Document, params: &[XValue]) -> St<'p, 'd> {
        assert_eq!(
            params.len(),
            self.num_params,
            "compiled query takes {} parameter(s)",
            self.num_params
        );
        let n = self.xp.num_slots();
        let mut st = St {
            prog: self,
            doc,
            xvals: vec![None; n],
            conv: vec![None; n],
            resolved: self.xp.resolve(doc),
        };
        for (i, v) in params.iter().enumerate() {
            st.xvals[i] = Some(v.clone());
        }
        st
    }
}

struct Compiler {
    xp: Builder,
    insts: Vec<XInst>,
    /// Lexical binder stack (name, slot); innermost last.
    scope: Vec<(String, SlotId)>,
}

impl Compiler {
    fn push(&mut self, inst: XInst) -> XId {
        let id = u32::try_from(self.insts.len()).expect("xquery arena fits u32");
        self.insts.push(inst);
        id
    }

    /// The slots visible here: innermost binding per distinct name.
    fn visible_slots(&self) -> Box<[SlotId]> {
        let mut out: Vec<SlotId> = Vec::with_capacity(self.scope.len());
        for (i, (name, slot)) in self.scope.iter().enumerate() {
            let shadowed = self.scope[i + 1..].iter().any(|(n, _)| n == name);
            if !shadowed {
                out.push(*slot);
            }
        }
        out.into_boxed_slice()
    }

    /// Compiles one `for` clause or quantifier binder coming after
    /// `earlier` in its loop nest, and decides whether its source is
    /// loop-invariant there: the one rule for both loop forms.
    fn add_for(&mut self, var: &str, source: &XQuery, earlier: &[XClause]) -> XFor {
        let source = self.add(source);
        let loops = earlier.iter().any(|c| matches!(c, XClause::For(_)));
        let hoistable = loops && !self.reads_slot_of(source, earlier);
        let slot = self.xp.fresh_param_slot(var);
        self.scope.push((var.to_string(), slot));
        XFor { slot, source, hoistable, probe: None }
    }

    /// The value-join plan for `last`, the final binder of a `some` over
    /// `satisfies` (module documentation), if the query has that shape.
    fn plan_probe(&self, last: &XFor, satisfies: XId) -> Option<Probe> {
        let reads_last = |id: XId| self.reads_slot(id, &|s| s == last.slot);
        let xp = self.xp.program();
        // `c` as a join `(K, O)`: an equality, in either order, between a
        // path from `$b` whose steps read no variable and an operand that
        // does not read `$b` but does read some other variable.
        let join = |c: XId| {
            let XInst::Binary(l, BinOp::Eq, r) = self.insts[c as usize] else {
                return None;
            };
            [(l, r), (r, l)].into_iter().find(|&(key, outer)| {
                let XInst::XPath { expr, .. } = self.insts[key as usize] else {
                    return false;
                };
                let key_path = matches!(
                    &xp.exprs[expr as usize],
                    ir::Inst::Path { start: IrStart::Slot(s), steps }
                        if *s == last.slot && xp.slot_free(steps)
                );
                key_path && !reads_last(outer) && self.reads_slot(outer, &|s| s != last.slot)
            })
        };
        let mut conjuncts = Vec::new();
        self.conjuncts(satisfies, &mut conjuncts);
        let at = conjuncts.iter().position(|&c| reads_last(c))?;
        let joins: Box<[_]> = conjuncts[at..].iter().map_while(|&c| join(c)).collect();
        let steps_of = |id: XId| match self.insts[id as usize] {
            XInst::XPath { expr, .. } => match &xp.exprs[expr as usize] {
                ir::Inst::Path { start, steps } => Some((*start, &**steps)),
                _ => None,
            },
            _ => None,
        };
        // The index stands in for the source and the first join; further
        // joins narrow its hits.
        let (IrStart::Root, members) = steps_of(last.source)? else {
            return None;
        };
        let index = IndexShape::of(members, steps_of(joins.first()?.0)?.1)?;
        Some(Probe { guards: conjuncts[..at].into(), joins, index })
    }

    /// Flattens the `and` tree rooted at `id` into its conjuncts, in the
    /// order evaluation short-circuits through them.
    fn conjuncts(&self, id: XId, out: &mut Vec<XId>) {
        match self.insts[id as usize] {
            XInst::Binary(a, BinOp::And, b) => {
                self.conjuncts(a, out);
                self.conjuncts(b, out);
            }
            _ => out.push(id),
        }
    }

    /// True if `id` reads a slot that one of `clauses` binds.
    fn reads_slot_of(&self, id: XId, clauses: &[XClause]) -> bool {
        self.reads_slot(id, &|s| clauses.iter().any(|c| c.slot() == Some(s)))
    }

    /// True if evaluating `id` can read a slot `is` accepts.
    fn reads_slot(&self, id: XId, is: &dyn Fn(SlotId) -> bool) -> bool {
        let any = |ids: &[XId]| ids.iter().any(|&i| self.reads_slot(i, is));
        match &self.insts[id as usize] {
            XInst::XPath { expr, .. } => self.xp.program().reads_slot(*expr, is),
            XInst::Sequence(ids) | XInst::Call(_, ids) | XInst::Construct { content: ids, .. } => {
                any(ids)
            }
            XInst::Flwor { clauses, ret: body }
            | XInst::Quantified { binds: clauses, satisfies: body, .. } => {
                any(&[*body])
                    || clauses.iter().any(|c| match c {
                        XClause::For(XFor { source: e, .. })
                        | XClause::Let { value: e, .. }
                        | XClause::Where(e) => self.reads_slot(*e, is),
                    })
            }
            XInst::If { cond, then, els } => any(&[*cond, *then, *els]),
            XInst::Binary(a, _, b) => any(&[*a, *b]),
        }
    }

    fn add(&mut self, q: &XQuery) -> XId {
        match q {
            XQuery::XPath(e) => {
                let scope_list = self.visible_slots();
                // The borrow checker won't let the closure capture
                // `self.scope` while `self.xp` is mutably borrowed, so
                // snapshot the (small) binder stack.
                let snapshot = self.scope.clone();
                let expr = self.xp.add_expr(e, &|name| {
                    snapshot
                        .iter()
                        .rev()
                        .find(|(n, _)| n == name)
                        .map(|&(_, s)| s)
                });
                self.push(XInst::XPath {
                    expr,
                    scope: scope_list,
                })
            }
            XQuery::Sequence(items) => {
                let ids = items.iter().map(|i| self.add(i)).collect();
                self.push(XInst::Sequence(ids))
            }
            XQuery::Flwor { clauses, ret } => {
                let depth = self.scope.len();
                let mut compiled: Vec<XClause> = Vec::with_capacity(clauses.len());
                for c in clauses {
                    let clause = match c {
                        Clause::For { var, source } => {
                            XClause::For(self.add_for(var, source, &compiled))
                        }
                        Clause::Let { var, value } => {
                            let value = self.add(value);
                            let slot = self.xp.fresh_slot(var);
                            self.scope.push((var.clone(), slot));
                            XClause::Let { slot, value }
                        }
                        Clause::Where(cond) => XClause::Where(self.add(cond)),
                    };
                    compiled.push(clause);
                }
                let ret = self.add(ret);
                self.scope.truncate(depth);
                self.push(XInst::Flwor {
                    clauses: compiled.into_boxed_slice(),
                    ret,
                })
            }
            XQuery::Quantified {
                some,
                binds,
                satisfies,
            } => {
                let depth = self.scope.len();
                let mut compiled: Vec<XClause> = Vec::with_capacity(binds.len());
                for (var, src) in binds {
                    let bind = self.add_for(var, src, &compiled);
                    compiled.push(XClause::For(bind));
                }
                let satisfies = self.add(satisfies);
                self.scope.truncate(depth);
                if let (true, Some(XClause::For(last))) = (*some, compiled.last_mut()) {
                    last.probe = self.plan_probe(last, satisfies);
                }
                self.push(XInst::Quantified {
                    some: *some,
                    binds: compiled.into_boxed_slice(),
                    satisfies,
                })
            }
            XQuery::If { cond, then, els } => {
                let cond = self.add(cond);
                let then = self.add(then);
                let els = self.add(els);
                self.push(XInst::If { cond, then, els })
            }
            XQuery::Construct { name, content } => {
                let content = content.iter().map(|c| self.add(c)).collect();
                self.push(XInst::Construct {
                    name: name.clone(),
                    content,
                })
            }
            XQuery::Call(name, args) => {
                let args = args.iter().map(|a| self.add(a)).collect();
                self.push(XInst::Call(XCall::from_name(name), args))
            }
            XQuery::Binary(a, op, b) => {
                let a = self.add(a);
                let b = self.add(b);
                self.push(XInst::Binary(a, *op, b))
            }
        }
    }
}

/// Evaluation state: slot values plus the per-evaluation resolved name
/// pool. Binding a slot converts its sequence to an XPath value once;
/// conversion failures are remembered and raised at the first XPath leaf
/// that has the slot in scope.
struct St<'p, 'd> {
    prog: &'p XProgram,
    doc: &'d Document,
    xvals: Vec<Option<XValue>>,
    conv: Vec<Option<String>>,
    resolved: Vec<Option<Symbol>>,
}

impl<'p, 'd> St<'p, 'd> {
    fn inst(&self, id: XId) -> &'p XInst {
        &self.prog.insts[id as usize]
    }

    fn bind(&mut self, slot: SlotId, seq: Sequence) {
        match sequence_to_xvalue(&seq) {
            Ok(v) => {
                self.xvals[slot as usize] = Some(v);
                self.conv[slot as usize] = None;
            }
            Err(m) => {
                self.xvals[slot as usize] = None;
                self.conv[slot as usize] = Some(m);
            }
        }
    }

    /// Raises the conversion error of any in-scope slot whose last
    /// binding had no XPath equivalent.
    fn check_scope(&self, scope: &[SlotId]) -> Result<(), XQueryError> {
        for &s in scope {
            if let Some(m) = &self.conv[s as usize] {
                return Err(XQueryError::Type(format!(
                    "variable ${}: {m}",
                    self.prog.xp.var_names[s as usize]
                )));
            }
        }
        Ok(())
    }

    fn xp_scope(&self) -> Scope<'p, 'd, '_> {
        Scope {
            prog: &self.prog.xp,
            doc: self.doc,
            item: NodeRef::Node(self.doc.document_node()),
            position: 1,
            size: 1,
            slots: &self.xvals,
            resolved: &self.resolved,
        }
    }
}

#[inline]
fn charge_budget() -> Result<(), XQueryError> {
    xic_xpath::budget::charge(1)
        .map_err(|_| XQueryError::XPath(xic_xpath::EvalError::BudgetExhausted))
}

/// Lazy effective-boolean-value evaluation (see
/// [`crate::eval_query_exists`]).
fn eval_ebv(id: XId, st: &mut St) -> Result<bool, XQueryError> {
    match st.inst(id) {
        XInst::XPath { expr, scope } => {
            st.check_scope(scope)?;
            Ok(ir::eval_exists(*expr, &st.xp_scope())?)
        }
        XInst::Quantified {
            some,
            binds,
            satisfies,
        } => eval_quantified(binds, *satisfies, st, *some, true),
        XInst::If { cond, then, els } => {
            if eval_ebv(*cond, st)? {
                eval_ebv(*then, st)
            } else {
                eval_ebv(*els, st)
            }
        }
        XInst::Binary(a, BinOp::Or, b) => Ok(eval_ebv(*a, st)? || eval_ebv(*b, st)?),
        XInst::Binary(a, BinOp::And, b) => Ok(eval_ebv(*a, st)? && eval_ebv(*b, st)?),
        XInst::Call(op, args) if args.len() == 1 => match op {
            XCall::Exists => eval_nonempty(args[0], st),
            XCall::Empty => Ok(!eval_nonempty(args[0], st)?),
            XCall::Not => Ok(!eval_ebv(args[0], st)?),
            XCall::Boolean => eval_ebv(args[0], st),
            _ => Ok(effective_boolean(&eval(id, st)?)),
        },
        _ => Ok(effective_boolean(&eval(id, st)?)),
    }
}

/// Lazy sequence-nonemptiness (the `exists()`/`empty()` semantics:
/// `[""]` is non-empty even though its effective boolean value is false).
fn eval_nonempty(id: XId, st: &mut St) -> Result<bool, XQueryError> {
    match st.inst(id) {
        XInst::XPath { expr, scope } => {
            st.check_scope(scope)?;
            Ok(ir::eval_nonempty(*expr, &st.xp_scope())?)
        }
        XInst::Sequence(items) => {
            for &i in items.iter() {
                if eval_nonempty(i, st)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        // Stops at the first binding whose `where` chain passes and whose
        // `return` is non-empty.
        XInst::Flwor { clauses, ret } => {
            for_each_tuple(clauses, st, true, |st| eval_nonempty(*ret, st))
        }
        XInst::If { cond, then, els } => {
            if eval_ebv(*cond, st)? {
                eval_nonempty(*then, st)
            } else {
                eval_nonempty(*els, st)
            }
        }
        // A constructor always yields exactly one element.
        XInst::Construct { .. } => Ok(true),
        // Everything else yields a single item by construction (booleans,
        // numbers, comparison results) or has no cheaper existential form
        // than evaluating it (unions); fall back to the materializer.
        _ => Ok(!eval(id, st)?.is_empty()),
    }
}

/// A boolean test of `id`: consumed existentially when `lazy`, through
/// the materializer otherwise. The answer is the same either way.
fn truth(id: XId, st: &mut St, lazy: bool) -> Result<bool, XQueryError> {
    if lazy {
        eval_ebv(id, st)
    } else {
        Ok(effective_boolean(&eval(id, st)?))
    }
}

/// Quantifier evaluation. `lazy` selects existential consumption of the
/// satisfies condition — it is a boolean test either way, so the result
/// is identical.
fn eval_quantified(
    binds: &[XClause],
    satisfies: XId,
    st: &mut St,
    some: bool,
    lazy: bool,
) -> Result<bool, XQueryError> {
    // `some`: a witness suffices; `every`: a counterexample kills.
    let stopped = for_each_tuple(binds, st, lazy, |st| Ok(truth(satisfies, st, lazy)? == some))?;
    Ok(stopped == some)
}

/// Where the items of one `for` frame come from.
enum Items {
    /// The source, evaluated for this descent.
    Owned(std::vec::IntoIter<Item>),
    /// Every position of the clause's hoisted source.
    All(std::ops::Range<usize>),
    /// The members the document's index selected, standing in for the
    /// source.
    Indexed(std::vec::IntoIter<NodeId>),
}

/// The one loop driver: runs the loop nest `clauses` on an explicit
/// backtracking stack and calls `body` once per complete tuple of
/// bindings, in iteration order, until it returns true; the result says
/// whether it did. One frame per `for` clause holds its clause index and
/// live item iterator; `let` bindings are (re)established on each
/// descent, so no unbinding is needed on backtrack. `lazy` is how
/// `where` conditions are consumed (see [`truth`]).
fn for_each_tuple(
    clauses: &[XClause],
    st: &mut St,
    lazy: bool,
    mut body: impl FnMut(&mut St) -> Result<bool, XQueryError>,
) -> Result<bool, XQueryError> {
    // A hoistable source, evaluated when its clause was first reached.
    let mut hoisted: Vec<Option<Sequence>> = clauses.iter().map(|_| None).collect();
    let mut frames: Vec<(usize, Items)> = Vec::new();
    let mut idx = 0;
    let mut descending = true;
    loop {
        if descending {
            let Some(clause) = clauses.get(idx) else {
                if body(st)? {
                    return Ok(true);
                }
                descending = false;
                continue;
            };
            match clause {
                XClause::Let { slot, value } => {
                    let seq = eval(*value, st)?;
                    st.bind(*slot, seq);
                    idx += 1;
                }
                XClause::Where(cond) => {
                    if truth(*cond, st, lazy)? {
                        idx += 1;
                    } else {
                        descending = false;
                    }
                }
                XClause::For(f) => {
                    let indexed =
                        f.probe.as_ref().and_then(|p| indexed_candidates(p, st, lazy)).transpose()?;
                    let items = if let Some(hits) = indexed {
                        Items::Indexed(hits.into_iter())
                    } else if f.hoistable {
                        if hoisted[idx].is_none() {
                            hoisted[idx] = Some(eval(f.source, st)?);
                        }
                        Items::All(0..hoisted[idx].as_ref().expect("just evaluated").len())
                    } else {
                        Items::Owned(eval(f.source, st)?.into_iter())
                    };
                    frames.push((idx, items));
                    descending = false; // the backtrack arm pulls the first item
                }
            }
        } else {
            let Some((fidx, items)) = frames.last_mut() else {
                return Ok(false);
            };
            let at = |i: usize| {
                hoisted[*fidx].as_ref().expect("evaluated before it is iterated")[i].clone()
            };
            let next = match items {
                Items::Owned(iter) => iter.next(),
                Items::All(range) => range.next().map(at),
                Items::Indexed(hits) => hits.next().map(|n| Item::Node(NodeRef::Node(n))),
            };
            match next {
                Some(item) => {
                    xic_obs::incr(xic_obs::Counter::XqueryBindingsVisited);
                    charge_budget()?;
                    let XClause::For(f) = &clauses[*fidx] else {
                        unreachable!("frames are pushed for For clauses only");
                    };
                    idx = *fidx + 1;
                    st.bind(f.slot, vec![item]);
                    descending = true;
                }
                None => {
                    frames.pop();
                }
            }
        }
    }
}

/// The value-join plan at run time: the members the document's index
/// pairs with the current outer binding under the probe's first join,
/// [`narrow`]ed by the joins after it, or `None` when the binder has to be
/// iterated from its source — a guard or the operand raises, or the
/// operand is a number or boolean. The one error is a spent budget: in the
/// document's first build of the index, or while narrowing.
fn indexed_candidates(
    probe: &Probe,
    st: &mut St,
    lazy: bool,
) -> Option<Result<Vec<NodeId>, XQueryError>> {
    if !guards_hold(probe, st, lazy)? {
        return Some(Ok(Vec::new()));
    }
    let outer = eval_xvalue(probe.joins[0].1, st).ok()?;
    let hits = match ir::index_members(&probe.index, &outer, st.doc, &st.resolved) {
        Ok(hits) => hits?,
        Err(e) => return Some(Err(e.into())),
    };
    Some(narrow(probe, hits, st))
}

/// Whether every guard of `probe` holds for the current outer binding;
/// `None` if one raises (the scan then raises it where it should).
fn guards_hold(probe: &Probe, st: &mut St, lazy: bool) -> Option<bool> {
    for &guard in probe.guards.iter() {
        if !truth(guard, st, lazy).ok()? {
            return Some(false);
        }
    }
    Some(true)
}

/// `hits`, the members the probe's first join selected for the current
/// outer binding, narrowed by each join `K = O` after it to the members
/// `m` with `K(m) = O`: `O` is evaluated once, and `K` on each member. A
/// join stops the narrowing, and leaves the rest to the `satisfies`,
/// where it cannot stand in for the comparison: `O` raises or is a number
/// or boolean, a binding in scope at `K` has no XPath value, or `K` raises
/// on a member — that member and those after it are kept, so the
/// `satisfies` raises where the scan would. The `satisfies` still runs on
/// every member kept, so narrowing only drops members it would find false.
/// The one error is a spent budget.
fn narrow(probe: &Probe, mut hits: Vec<NodeId>, st: &mut St) -> Result<Vec<NodeId>, XQueryError> {
    for &(key, outer) in &probe.joins[1..] {
        if hits.is_empty() {
            break;
        }
        let Ok(outer) = eval_xvalue(outer, st) else {
            break;
        };
        let (leaf, steps) = st.prog.key_path(key);
        let (Some(values), Ok(())) = (ValueSet::of(&outer, st.doc), st.check_scope(leaf)) else {
            break;
        };
        let scope = st.xp_scope();
        let mut kept = Vec::with_capacity(hits.len());
        let mut rest = hits.into_iter();
        while let Some(hit) = rest.next() {
            match ir::key_nodes(NodeRef::Node(hit), steps, &scope) {
                Ok(keys) if values.met_by(&keys, st.doc) => kept.push(hit),
                Ok(_) => xic_obs::incr(xic_obs::Counter::ProbeNarrowed),
                Err(e @ EvalError::BudgetExhausted) => return Err(e.into()),
                Err(_) => {
                    kept.push(hit);
                    kept.extend(rest);
                    return Ok(kept);
                }
            }
        }
        hits = kept;
    }
    Ok(hits)
}

/// Materializing evaluation.
fn eval(id: XId, st: &mut St) -> Result<Sequence, XQueryError> {
    match st.inst(id) {
        XInst::XPath { expr, scope } => {
            st.check_scope(scope)?;
            let v = ir::eval_operand(*expr, &st.xp_scope())?;
            Ok(xvalue_to_sequence(v))
        }
        XInst::Sequence(items) => {
            let mut out = Vec::new();
            for &i in items.iter() {
                out.extend(eval(i, st)?);
            }
            Ok(out)
        }
        XInst::Flwor { clauses, ret } => {
            let mut out = Vec::new();
            for_each_tuple(clauses, st, false, |st| {
                out.extend(eval(*ret, st)?);
                Ok(false)
            })?;
            Ok(out)
        }
        XInst::Quantified {
            some,
            binds,
            satisfies,
        } => {
            let r = eval_quantified(binds, *satisfies, st, *some, false)?;
            Ok(vec![Item::Bool(r)])
        }
        XInst::If { cond, then, els } => {
            if effective_boolean(&eval(*cond, st)?) {
                eval(*then, st)
            } else {
                eval(*els, st)
            }
        }
        XInst::Construct { name, content } => {
            let mut children = Vec::new();
            for &c in content.iter() {
                for item in eval(c, st)? {
                    children.push(match item {
                        Item::Node(n) => node_to_constructed(st.doc, &n),
                        Item::Elem(e) => ConstructedChild::Elem(*e),
                        atomic => ConstructedChild::Text(atomic.string_value(st.doc)),
                    });
                }
            }
            Ok(vec![Item::Elem(Box::new(Constructed {
                name: name.clone(),
                attrs: Vec::new(),
                children,
            }))])
        }
        XInst::Call(op, args) => eval_call(op, args, st),
        XInst::Binary(a, op, b) => eval_binary(id, *a, *op, *b, st),
    }
}

fn eval_call(op: &XCall, args: &[XId], st: &mut St) -> Result<Sequence, XQueryError> {
    let name = op.display_name();
    let one = |args: &[XId], st: &mut St| -> Result<Sequence, XQueryError> {
        if args.len() == 1 {
            eval(args[0], st)
        } else {
            Err(XQueryError::Type(format!(
                "{name}() expects 1 argument, got {}",
                args.len()
            )))
        }
    };
    match op {
        XCall::Exists => Ok(vec![Item::Bool(!one(args, st)?.is_empty())]),
        XCall::DistinctValues => {
            let seq = one(args, st)?;
            let mut seen = std::collections::HashSet::new();
            let mut out = Vec::new();
            for item in seq {
                let s = item.string_value(st.doc);
                if seen.insert(s.clone()) {
                    out.push(Item::Str(s));
                }
            }
            Ok(out)
        }
        XCall::Max | XCall::Min => {
            let seq = one(args, st)?;
            let mut best: Option<f64> = None;
            for item in seq {
                let v = item
                    .string_value(st.doc)
                    .trim()
                    .parse::<f64>()
                    .unwrap_or(f64::NAN);
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        if (matches!(op, XCall::Max)) == (v > b) {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.map(Item::Num).into_iter().collect())
        }
        XCall::Empty => Ok(vec![Item::Bool(one(args, st)?.is_empty())]),
        XCall::Count => Ok(vec![Item::Num(one(args, st)?.len() as f64)]),
        XCall::Not => Ok(vec![Item::Bool(!effective_boolean(&one(args, st)?))]),
        XCall::Boolean => Ok(vec![Item::Bool(effective_boolean(&one(args, st)?))]),
        XCall::String => {
            let seq = one(args, st)?;
            Ok(vec![Item::Str(
                seq.first()
                    .map(|i| i.string_value(st.doc))
                    .unwrap_or_default(),
            )])
        }
        XCall::Unknown(other) => Err(XQueryError::Type(format!(
            "unsupported XQuery-level function {other}()"
        ))),
    }
}

/// Evaluates an operand to the XPath value it compares and computes as.
fn eval_xvalue(id: XId, st: &mut St) -> Result<XValue, XQueryError> {
    sequence_to_xvalue(&eval(id, st)?).map_err(XQueryError::Type)
}

fn eval_binary(id: XId, a: XId, op: BinOp, b: XId, st: &mut St) -> Result<Sequence, XQueryError> {
    match op {
        BinOp::Or => {
            let l = effective_boolean(&eval(a, st)?);
            if l {
                return Ok(vec![Item::Bool(true)]);
            }
            let r = effective_boolean(&eval(b, st)?);
            return Ok(vec![Item::Bool(r)]);
        }
        BinOp::And => {
            let l = effective_boolean(&eval(a, st)?);
            if !l {
                return Ok(vec![Item::Bool(false)]);
            }
            let r = effective_boolean(&eval(b, st)?);
            return Ok(vec![Item::Bool(r)]);
        }
        _ => {}
    }
    let va = eval_xvalue(a, st)?;
    let vb = eval_xvalue(b, st)?;
    match op {
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => Ok(vec![
            Item::Bool(xic_xpath::compare_values(&va, op, &vb, st.doc)),
        ]),
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            let x = va.to_num(st.doc);
            let y = vb.to_num(st.doc);
            let r = match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                BinOp::Mod => x % y,
                _ => unreachable!(),
            };
            Ok(vec![Item::Num(r)])
        }
        BinOp::Union => match (va, vb) {
            (XValue::Nodes(mut x), XValue::Nodes(y)) => {
                x.extend(y);
                xic_xpath::dedup_nodes(&mut x);
                if st.prog.ordered[id as usize] {
                    st.doc.sort_document_order(&mut x, NodeRef::anchor);
                }
                Ok(x.into_iter().map(Item::Node).collect())
            }
            _ => Err(XQueryError::Type("union of non-node-sets".to_string())),
        },
        BinOp::Or | BinOp::And => unreachable!("handled above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_query;
    use crate::parser::parse_query;
    use xic_xml::parse_document;

    const DOC: &str = "<review>\
        <track><name>DB</name>\
          <rev><name>Ann</name>\
            <sub><title>S1</title><auts><name>Bob</name></auts></sub>\
            <sub><title>S2</title><auts><name>Ann</name></auts></sub>\
          </rev>\
          <rev><name>Dan</name>\
            <sub><title>S3</title><auts><name>Eve</name></auts></sub>\
            <sub><title>S4</title><auts><name>Flo</name></auts></sub>\
            <sub><title>S5</title><auts><name>Gus</name></auts></sub>\
            <sub><title>S6</title><auts><name>Hal</name></auts></sub>\
            <sub><title>S7</title><auts><name>Ivy</name></auts></sub>\
          </rev>\
        </track>\
      </review>";

    /// `tagK` names the K-th `tag` element in document order; text nodes
    /// hang off their parent's label. A golden written this way pins a
    /// sequence's members and their order.
    fn label(doc: &Document, n: &NodeRef) -> String {
        let elem = |id: xic_xml::NodeId| {
            let tag = doc.name(id).expect("an element");
            let k = doc
                .descendants(doc.document_node())
                .filter(|&d| doc.name(d) == Some(tag))
                .position(|d| d == id)
                .expect("attached");
            format!("{tag}{}", k + 1)
        };
        match n {
            NodeRef::Attr { owner, name } => format!("{}/@{name}", elem(*owner)),
            NodeRef::Node(id) if doc.name(*id).is_some() => elem(*id),
            NodeRef::Node(id) => match doc.node(*id).parent {
                Some(p) => format!("{}/text()", elem(p)),
                None => "/".to_string(),
            },
        }
    }

    /// The sequence, or `error: <text>`.
    fn render(doc: &Document, r: Result<Sequence, XQueryError>) -> String {
        let seq = match r {
            Ok(seq) => seq,
            Err(e) => return format!("error: {e}"),
        };
        let items: Vec<String> = seq
            .iter()
            .map(|i| match i {
                Item::Node(n) => label(doc, n),
                Item::Str(s) => format!("{s:?}"),
                Item::Num(n) => format!("{n}"),
                Item::Bool(b) => format!("{b}"),
                Item::Elem(e) => e.to_xml(),
            })
            .collect();
        format!("({})", items.join(", "))
    }

    const TITLES: &str = "(title1/text(), title2/text(), title3/text(), title4/text(), \
        title5/text(), title6/text(), title7/text())";

    /// Query, materialized sequence, effective boolean value (materialized
    /// and existential agree on it) and the number of bindings either
    /// driver visits — the values the tree-walking interpreter (retired at
    /// PR 14) returned, except the binding counts of the three
    /// `some $a in …, $b in … satisfies` rows: those are planned (their
    /// second binder iterates by probe), so they count each outer binding
    /// plus the members its value selects, not the pairs up to the
    /// witness. The nested-loop count is in the row's trailing comment.
    const GOLDEN: &[(&str, &str, bool, u64)] = &[
        (
            "some $lr in //rev satisfies $lr/sub/auts/name/text() = $lr/name/text()",
            "(true)", true, 1,
        ),
        (
            "some $lr in //rev[name/text() = 'Dan'] satisfies \
             $lr/sub/auts/name/text() = $lr/name/text()",
            "(false)", false, 1,
        ),
        (
            "exists(for $lr in //rev let $d := $lr/sub where count($d) > 4 return <idle/>)",
            "(true)", true, 2,
        ),
        (
            "exists(for $lr in //rev let $d := $lr/sub where count($d) > 5 return <idle/>)",
            "(false)", false, 2,
        ),
        (
            "every $s in //sub satisfies count($s/auts) = 1",
            "(true)", true, 7,
        ),
        (
            "every $r in //rev satisfies count($r/sub) > 3",
            "(false)", false, 1,
        ),
        (
            "not(exists(for $z in //zzz return $z))",
            "(true)", true, 0,
        ),
        (
            "empty(//zzz)",
            "(true)", true, 0,
        ),
        (
            "exists(//rev | //track)",
            "(true)", true, 0,
        ),
        (
            "if (count(//rev) = 2) then 'yes' else ''",
            "(\"yes\")", true, 0,
        ),
        (
            "boolean((for $x in //track return $x/name))",
            "(true)", true, 1,
        ),
        (
            "exists(('', ''))",
            "(true)", true, 0,
        ),
        (
            "boolean('')",
            "(false)", false, 0,
        ),
        (
            "count((1, 2, 3)) + 1",
            "(4)", true, 0,
        ),
        (
            "2 >= 3 or count(//sub) = 7",
            "(true)", true, 0,
        ),
        (
            "some $a in //rev, $b in //rev satisfies $a/name/text() = $b/name/text()",
            "(true)", true, 2, // scan: 2
        ),
        (
            "some $h in //auts, $r in //rev satisfies $h/name/text() = $r/name/text()",
            "(true)", true, 3, // scan: 5 (Bob × 2 revs, Ann × 1)
        ),
        (
            "for $s in //sub return $s/title/text()",
            TITLES, true, 7,
        ),
        (
            "for $s in //sub where $s/auts/name = 'Eve' return $s",
            "(sub3)", true, 7,
        ),
        (
            "for $a in //rev, $b in //rev return <idle/>",
            "(<idle/>, <idle/>, <idle/>, <idle/>)", true, 6,
        ),
        (
            "for $r in //rev let $titles := $r/sub/title return count($titles)",
            "(2, 5)", true, 2,
        ),
        (
            "(for $x in //track return $x/name) | //rev/name",
            "(name1, name2, name5)", true, 1,
        ),
        (
            "element wrap { //track/name }",
            "(<wrap><name>DB</name></wrap>)", true, 0,
        ),
        (
            "some $Ir in //rev, $H in //aut \
             satisfies $H/name/text() = $Ir/name/text() \
             and $H/../aut/name/text() = $Ir/sub/auts/name/text()",
            "(false)", false, 2, // scan: 2 (there is no aut)
        ),
    ];

    #[test]
    fn sequences_booleans_and_binding_counts() {
        let (doc, _) = parse_document(DOC).unwrap();
        for &(query, seq, ebv, bindings) in GOLDEN {
            let q = parse_query(query).unwrap_or_else(|e| panic!("{query}: {e}"));
            let prog = XProgram::compile(&q);
            xic_obs::reset();
            assert_eq!(render(&doc, prog.eval_seq(&doc, &[])), seq, "sequence of {query}");
            assert_eq!(
                xic_obs::counter(xic_obs::Counter::XqueryBindingsVisited),
                bindings,
                "materializing binding count of {query}"
            );
            assert_eq!(prog.eval_bool(&doc, &[]).unwrap(), ebv, "materialized boolean of {query}");
            xic_obs::reset();
            assert_eq!(prog.eval_exists(&doc, &[]).unwrap(), ebv, "existential answer of {query}");
            assert_eq!(
                xic_obs::counter(xic_obs::Counter::XqueryBindingsVisited),
                bindings,
                "existential binding count of {query}"
            );
        }
    }

    /// DOC plus a publication catalog: Ann wrote with Bob (whose S1 she
    /// reviews — the co-author conflict) and Dan wrote alone.
    fn doc_with_catalog() -> Document {
        let both = format!(
            "<all>{DOC}<dblp><pub><title>P1</title><aut><name>Ann</name></aut>\
             <aut><name>Bob</name></aut></pub>\
             <pub><title>P2</title><aut><name>Dan</name></aut></pub></dblp></all>"
        );
        parse_document(&both).unwrap().0
    }

    #[test]
    fn joins_are_planned_at_the_translators_shapes_only() {
        for (query, sites) in [
            // (1) the last binder of a `some`, probed by the loops around it.
            ("some $a in //rev, $b in //aut satisfies $a/name/text() = $b/name/text()", 1),
            ("some $a in //rev, $b in //aut satisfies $b/name/text() = $a/name/text()", 1),
            (
                "some $a in //rev, $b in //aut satisfies $a/sub/auts/name/text() = $b/name/text() \
                 and $a/name/text() = $b/../aut/name/text()",
                1,
            ),
            (
                "some $a in //rev, $b in //aut satisfies $a/name = 'Ann' and count($a/sub) > 1 \
                 and $a/name/text() = $b/name/text() and count($b/../aut) > 1",
                1,
            ),
            ("some $a in //rev, $s in $a/sub, $b in //aut satisfies $s/auts/name = $b/name/text()", 1),
            ("some $a in //rev, $b in //aut satisfies count($a/sub) = $b/name/text()", 1),
            // `every` needs all pairs; a dependent source is not one sequence.
            ("every $a in //rev, $b in //aut satisfies $a/name/text() = $b/name/text()", 0),
            ("some $a in //rev, $b in $a/sub satisfies $a/name/text() = $b/auts/name/text()", 0),
            // Only the last binder; only a first conjunct on `$b` that is a join.
            ("some $a in //rev, $b in //aut, $c in $b/.. satisfies $a/name = $b/name/text()", 0),
            (
                "some $a in //rev, $b in //aut satisfies count($b/../aut) > 1 \
                 and $a/name = $b/name/text()",
                0,
            ),
            ("some $a in //rev, $b in //aut satisfies $a/name = $b/name/text() or $a/name = 'x'", 0),
            ("some $a in //rev, $b in //aut satisfies $a/name != $b/name/text()", 0),
            ("some $a in //rev, $b in //aut satisfies $b/name/text() = $b/../aut/name", 0),
            ("some $a in //rev, $b in //aut satisfies $b/name[. = $a/name]/text() = $a/name", 0),
            // A key is steps applied to the member: steps that read a
            // variable, even the binder, are not one.
            ("some $a in //rev, $b in //aut satisfies $b/name[. = $b/name]/text() = $a/name/text()", 0),
            // A constant is not an operand to probe with.
            ("some $a in //rev, $b in //aut satisfies $b/name/text() = 'Ann'", 0),
            // (3) a parameter is, with or without a loop around the binder.
            ("some $b in //aut satisfies $b/name/text() = $p/name/text()", 1),
            ("some $b in //aut satisfies frob($p) and $p/name/text() = $b/name/text()", 1),
            ("some $a in $p/sub, $b in //aut satisfies $b/name/text() = $p/name/text()", 1),
            // Only the shape the document indexes: `//tag` keyed by child
            // names down to a `text()`.
            ("some $a in $p/sub, $b in //aut satisfies $b/name = $p/name/text()", 0),
            ("some $b in //aut satisfies $b/name = $p/name/text()", 0),
            ("some $b in //pub/aut satisfies $b/name/text() = $p/name/text()", 0),
            ("some $b in //aut satisfies $b/../aut/name/text() = $p/name/text()", 0),
            ("some $b in //aut[name] satisfies $b/name/text() = $p/name/text()", 0),
            // (2) a keyed step under a loop variable.
            (
                "exists(for $R in distinct-values(//rev/name/text()) \
                 let $g := //track[rev[name/text() = $R]] let $h := //rev[name/text() = $R]/sub \
                 where count($g) >= 1 and count($h) > 4 return <idle/>)",
                2,
            ),
            ("some $a in //rev satisfies //aut[name/text() = $a/name/text()]", 1),
            ("exists(let $g := //track[rev[name/text() = $p/name/text()]] return $g)", 1),
            ("exists(let $g := //track[rev[name = $p/name/text()]] return $g)", 0),
            ("exists(for $a in //rev let $n := $a/name return //aut[name/text() = $n])", 0),
        ] {
            let q = parse_query(query).unwrap_or_else(|e| panic!("{query}: {e}"));
            let prog = XProgram::compile_with_params(&q, &["p".to_string()]);
            assert_eq!(prog.plan_sites(), sites, "plan sites of {query}");
        }
    }

    #[test]
    fn the_probe_filters_and_the_satisfies_still_decides() {
        let doc = doc_with_catalog();
        for (query, verdict, bindings) in [
            // Ann ↔ the first aut: the witness.
            ("some $a in //rev, $b in //aut satisfies $a/name/text() = $b/name/text()", true, 2),
            // Ann's sub-authors Bob and Ann both wrote P1, which she wrote too.
            (
                "some $a in //rev, $b in //aut satisfies $a/sub/auts/name/text() = $b/name/text() \
                 and $a/name/text() = $b/../aut/name/text()",
                true,
                2,
            ),
            // Nobody Dan reviews wrote anything: no candidate.
            (
                "some $a in //rev[name = 'Dan'], $b in //aut satisfies \
                 $a/sub/auts/name/text() = $b/name/text() and $a/name/text() = $b/../aut/name/text()",
                false,
                1,
            ),
            // The residual conjunct rejects the one candidate per rev.
            (
                "some $a in //rev, $b in //aut satisfies $a/name/text() = $b/name/text() \
                 and count($b/../aut) > 2",
                false,
                4,
            ),
            // A false guard leaves nothing to try for that rev.
            (
                "some $a in //rev, $b in //aut satisfies $a/name = 'Dan' \
                 and $a/name/text() = $b/name/text() and count($b/../aut) = 1",
                true,
                3,
            ),
            // A number compares as a number: Ann's two subs against "2".
            (
                "some $a in //rev, $b in //sub satisfies count($a/sub) = $b/title/text()",
                false,
                16,
            ),
        ] {
            let prog = XProgram::compile(&parse_query(query).unwrap());
            assert_eq!(prog.plan_sites(), 1, "{query} is planned");
            xic_obs::reset();
            assert_eq!(prog.eval_exists(&doc, &[]).unwrap(), verdict, "existential {query}");
            assert_eq!(
                xic_obs::counter(xic_obs::Counter::XqueryBindingsVisited),
                bindings,
                "bindings of {query}"
            );
            assert_eq!(prog.eval_bool(&doc, &[]).unwrap(), verdict, "materialized {query}");
        }
        let numeric =
            parse_document("<r><a><y>k</y><x/><x/></a><b><v>2.0</v><w>k</w></b></r>").unwrap().0;
        let q = "some $a in //a, $b in //b satisfies count($a/x) = $b/v/text()";
        assert!(XProgram::compile(&parse_query(q).unwrap()).eval_exists(&numeric, &[]).unwrap());
        // A later join against a number does not narrow the index's hits:
        // 2 = "2.0" as numbers, not as strings.
        let q = "some $a in //a, $b in //w satisfies $a/y/text() = $b/text() \
                 and count($a/x) = $b/../v/text()";
        assert!(XProgram::compile(&parse_query(q).unwrap()).eval_exists(&numeric, &[]).unwrap());
    }

    /// A key whose steps read the binder is left to the scan, which answers
    /// what the table over the slot-free spelling of the same key answers,
    /// by trying every pair up to the witness.
    #[test]
    fn a_key_that_reads_a_variable_answers_as_the_scan() {
        let doc = doc_with_catalog();
        for (query, sites, verdict, bindings) in [
            ("some $a in //rev, $b in //aut satisfies $b/name/text() = $a/name/text()", 1, true, 2),
            (
                "some $a in //rev, $b in //aut satisfies $b/name[. = $b/name]/text() = $a/name/text()",
                0,
                true,
                2,
            ),
            ("some $a in //rev, $b in //aut satisfies $b/name/text() = $a/sub/title/text()", 1, false, 2),
            (
                "some $a in //rev, $b in //aut satisfies \
                 $b/name[. = $b/name]/text() = $a/sub/title/text()",
                0,
                false,
                2 + 2 * 3,
            ),
        ] {
            let prog = XProgram::compile(&parse_query(query).unwrap());
            assert_eq!(prog.plan_sites(), sites, "plan sites of {query}");
            xic_obs::reset();
            assert_eq!(prog.eval_exists(&doc, &[]).unwrap(), verdict, "existential {query}");
            assert_eq!(
                xic_obs::counter(xic_obs::Counter::XqueryBindingsVisited),
                bindings,
                "bindings of {query}"
            );
            assert_eq!(prog.eval_bool(&doc, &[]).unwrap(), verdict, "materialized {query}");
        }
    }

    /// A lone binder probed with a parameter — the pre-update templates'
    /// shape — on a document nobody asked before, and again.
    #[test]
    fn the_documents_index_stands_in_for_the_source_and_the_first_join() {
        let plain = doc_with_catalog();
        let ann = || {
            let all = parse_query("for $r in //rev return $r").unwrap();
            let Item::Node(n) = eval_query(&all, &plain).unwrap().remove(0) else { panic!() };
            XValue::Nodes(vec![n])
        };
        let counters = || {
            let c = xic_obs::counter;
            (c(xic_obs::Counter::IndexProbe), c(xic_obs::Counter::IndexBuild))
        };
        // (query, $p, outcome, bindings, probes)
        for (query, p, outcome, bindings, probes) in [
            // One aut is called Ann: one candidate, not all three auts.
            ("some $b in //aut satisfies $b/name/text() = $p/name/text()", ann(), "(true)", 1, 1),
            ("some $b in //aut satisfies $b/name/text() = $p", XValue::Str("Dan".into()), "(true)", 1, 1),
            ("some $b in //aut satisfies $b/name/text() = $p", XValue::Str("Zed".into()), "(false)", 0, 1),
            // The guard is evaluated once, and a false one leaves nothing to try.
            (
                "some $b in //aut satisfies exists($p/self::sub) and $b/name/text() = $p/name/text()",
                ann(),
                "(false)",
                0,
                0,
            ),
            // The later join is the `satisfies`' business: Ann's aut is
            // tried and rejected (her co-author is Bob, not Dan).
            (
                "some $b in //aut satisfies $b/name/text() = $p/name/text() \
                 and $b/../aut/name/text() = 'Dan'",
                ann(),
                "(false)",
                1,
                1,
            ),
            // What cannot be probed iterates the source, and raises what
            // that raises.
            ("some $b in //aut satisfies $b/name/text() = count($p)", ann(), "(false)", 3, 0),
            (
                "some $b in //aut satisfies frob($p) and $b/name/text() = $p",
                XValue::Str("Ann".into()),
                "error: unknown function frob()",
                1,
                0,
            ),
            (
                "some $b in //aut satisfies $b/name/text() = frob($p)",
                XValue::Str("Ann".into()),
                "error: unknown function frob()",
                1,
                0,
            ),
        ] {
            let prog = XProgram::compile_with_params(&parse_query(query).unwrap(), &["p".to_string()]);
            assert_eq!(prog.plan_sites(), 1, "{query} is planned");
            let doc = &plain.clone();
            // The first probe of a document builds; no later one does.
            for builds in [probes, 0] {
                xic_obs::reset();
                let lazy = prog.eval_exists(doc, std::slice::from_ref(&p)).map(|b| vec![Item::Bool(b)]);
                assert_eq!(render(doc, lazy), outcome, "existential {query}");
                assert_eq!(
                    xic_obs::counter(xic_obs::Counter::XqueryBindingsVisited),
                    bindings,
                    "bindings of {query}"
                );
                assert_eq!(counters(), (probes, builds), "probes and builds of {query}");
                assert_eq!(render(doc, prog.eval_seq(doc, std::slice::from_ref(&p))), outcome, "materialized {query}");
            }
        }
        // The build is charged its members (the three auts), once; a budget
        // that cannot afford it says so, and the index is there afterwards.
        let query = "some $b in //aut satisfies $b/name/text() = $p";
        let prog = XProgram::compile_with_params(&parse_query(query).unwrap(), &["p".to_string()]);
        let dan = [XValue::Str("Dan".into())];
        let steps = |doc: &Document| {
            xic_obs::reset();
            assert!(prog.eval_exists(doc, &dan).unwrap());
            xic_obs::counter(xic_obs::Counter::XpathNodesVisited)
        };
        let doc = plain.clone();
        let first = steps(&doc);
        assert_eq!(first, steps(&doc) + 3);
        let doc = plain.clone();
        let guard = xic_xpath::budget::arm(xic_xpath::budget::EvalBudget::new(0));
        let spent = prog.eval_exists(&doc, &dan);
        drop(guard);
        assert!(matches!(spent, Err(XQueryError::XPath(xic_xpath::EvalError::BudgetExhausted))), "{spent:?}");
        assert_eq!(steps(&doc) + 3, first);
        assert_eq!(counters(), (1, 0));
        // With a loop around the binder and one join, the full-check shape:
        // the source `//aut` is never read. The steps are the list of the
        // two revs, Ann's key (her name and two subs, then the name's
        // text), the build over the three auts, and the witness's
        // `satisfies` (Ann's key again, then her aut's name and its text).
        let query = "some $a in //rev, $b in //aut satisfies $a/name/text() = $b/name/text()";
        let prog = XProgram::compile(&parse_query(query).unwrap());
        xic_obs::reset();
        assert!(prog.eval_exists(&plain.clone(), &[]).unwrap());
        assert_eq!(counters(), (1, 1));
        assert_eq!(xic_obs::counter(xic_obs::Counter::XpathNodesVisited), 2 + 4 + 3 + 4 + 2);
        // Two joins, the full check's co-author shape: the index answers the
        // first, and the second narrows its hits — Ann's one aut, whose pub
        // has Bob, one of her sub-authors, is tried and is the witness.
        let two = "some $a in //rev, $b in //aut satisfies $a/name/text() = $b/name/text() \
                   and $a/sub/auts/name/text() = $b/../aut/name/text()";
        let two = XProgram::compile(&parse_query(two).unwrap());
        xic_obs::reset();
        assert!(two.eval_exists(&plain.clone(), &[]).unwrap());
        assert_eq!(counters(), (1, 1));
        assert_eq!(xic_obs::counter(xic_obs::Counter::XqueryBindingsVisited), 2);
    }

    #[test]
    fn a_planned_join_raises_what_the_scan_raises() {
        let doc = doc_with_catalog();
        for (query, outcome) in [
            // A guard that raises, with and without a pair to raise on.
            (
                "some $a in //rev, $b in //aut satisfies frob($a) and $a/name = $b/name/text()",
                "error: unknown function frob()",
            ),
            ("some $a in //rev, $b in //zzz satisfies frob($a) and $a/name = $b/name/text()", "(false)"),
            // An outer operand that raises.
            (
                "some $a in //rev, $b in //aut satisfies $b/name/text() = frob($a)",
                "error: unknown function frob()",
            ),
            ("some $a in //rev, $b in //zzz satisfies $b/name/text() = frob($a)", "(false)"),
            // A second join that raises is reached by Ann's aut only…
            (
                "some $a in //rev, $b in //aut satisfies $a/name/text() = $b/name/text() \
                 and $b/../aut/name = frob($a)",
                "error: unknown function frob()",
            ),
            // …and by nobody when the first join selects nobody.
            (
                "some $a in //rev, $b in //aut satisfies $a/sub/title/text() = $b/name/text() \
                 and $b/../aut/name = frob($a)",
                "(false)",
            ),
            // A later join's key that raises on a hit keeps the hit: the
            // `satisfies` raises on Ann's aut, where the scan does.
            (
                "some $a in //rev, $b in //aut satisfies $a/name/text() = $b/name/text() \
                 and $a/sub/auts/name/text() = $b/../aut[frob()]/name/text()",
                "error: unknown function frob()",
            ),
            // A conjunct behind the joins raises on the first candidate.
            (
                "some $a in //rev, $b in //aut satisfies $a/name/text() = $b/name/text() \
                 and frob($b)",
                "error: unknown function frob()",
            ),
        ] {
            let prog = XProgram::compile(&parse_query(query).unwrap());
            assert_eq!(prog.plan_sites(), 1, "{query} is planned");
            assert_eq!(render(&doc, prog.eval_seq(&doc, &[])), outcome, "materialized {query}");
            let lazy = prog.eval_exists(&doc, &[]).map(|b| vec![Item::Bool(b)]);
            assert_eq!(render(&doc, lazy), outcome, "existential {query}");
        }
    }

    /// The shapes the document does not index are not planned, and answer
    /// what the scan answers: a key on an element's string value, members
    /// that are not `//tag` — by a path's step or a binder's — and a binder
    /// over strings, whose key raises.
    #[test]
    fn shapes_the_index_cannot_answer_are_scanned() {
        let doc = doc_with_catalog();
        let ann = || {
            let Item::Node(n) = eval_query(&parse_query("//rev").unwrap(), &doc).unwrap().remove(0)
            else {
                panic!("a rev")
            };
            XValue::Nodes(vec![n])
        };
        for (query, outcome) in [
            ("//rev[name = $p/name/text()]/sub", "(sub1, sub2)"),
            ("some $b in //aut satisfies $b/name = $p/name/text()", "(true)"),
            ("some $a in //rev, $b in //aut satisfies $b/name = $a/sub/auts/name/text()", "(true)"),
            ("/all/review/track/rev[name/text() = $p/name/text()]/sub/title/text()", "(title1/text(), title2/text())"),
            ("some $b in /all/dblp/pub/aut satisfies $b/name/text() = $p/name/text()", "(true)"),
            (
                "some $a in //rev, $b in /all/dblp/pub/aut satisfies \
                 $b/name/text() = $a/sub/title/text()",
                "(false)",
            ),
            ("some $a in //rev, $b in ('Zed', 'Dan') satisfies $a/name/text() = $b", "(true)"),
            (
                "some $a in //rev, $b in ('Zed', 'Dan') satisfies $a/name/text() = $b/x",
                "error: cannot navigate from non-node-set variable $b",
            ),
        ] {
            let prog = XProgram::compile_with_params(&parse_query(query).unwrap(), &["p".to_string()]);
            assert_eq!(prog.plan_sites(), 0, "{query} is not planned");
            let p = [ann()];
            let eager = prog.eval_seq(&doc, &p);
            let lazy = prog.eval_exists(&doc, &p).map_err(|e| e.to_string());
            let ebv = eager.as_ref().map(effective_boolean).map_err(|e| e.to_string());
            assert_eq!(lazy, ebv, "existential {query}");
            assert_eq!(render(&doc, eager), outcome, "materialized {query}");
        }
    }

    #[test]
    fn invariant_for_sources_are_evaluated_once() {
        let (doc, _) = parse_document(DOC).unwrap();
        let visits = |query: &str| {
            let prog = XProgram::compile(&parse_query(query).unwrap());
            xic_obs::reset();
            prog.eval_seq(&doc, &[]).unwrap();
            xic_obs::counter(xic_obs::Counter::XpathNodesVisited)
        };
        // The document's lists: two revs, seven subs.
        let (revs, subs) = (visits("//rev"), visits("//sub"));
        assert_eq!((revs, subs), (2, 7));
        // The inner source is read once, not once per rev — in a FLWOR as
        // in a quantifier, across a `let` and a `where`.
        assert_eq!(visits("for $a in //rev, $b in //sub return 1"), revs + subs);
        assert_eq!(visits("for $a in //rev let $n := 1 where $n for $b in //sub return 1"), revs + subs);
        assert_eq!(visits("every $a in //rev, $b in //sub satisfies 1"), revs + subs);
        // A source that reads the loop is walked per binding (a predicated
        // step is a walk), and one the loop never reaches not at all.
        let walk = visits("//sub[true()]");
        assert_eq!(visits("for $a in //rev, $b in //sub[$a] return 1"), revs + 2 * walk);
        let nobody = visits("//rev[name = 'Zed']");
        assert_eq!(visits("for $a in //rev[name = 'Zed'], $b in //sub return 1"), nobody);
        assert_eq!(visits("some $a in //rev[name = 'Zed'], $b in //sub satisfies 1"), nobody);
    }

    #[test]
    fn parameters_bind_leading_slots() {
        let (doc, _) = parse_document(DOC).unwrap();
        // The paper's per-update residual shape: check one concrete rev.
        let q = parse_query(
            "some $lr in $xic_p_rev satisfies \
             $lr/sub/auts/name/text() = $lr/name/text()",
        )
        .unwrap();
        let prog = XProgram::compile_with_params(&q, &["xic_p_rev".to_string()]);
        let revs = {
            let all = parse_query("for $r in //rev return $r").unwrap();
            eval_query(&all, &doc).unwrap()
        };
        let node = |item: &Item| match item {
            Item::Node(n) => n.clone(),
            other => panic!("{other:?}"),
        };
        // Ann (first rev) self-reviews S2; Dan (second rev) does not.
        let ann = XValue::Nodes(vec![node(&revs[0])]);
        let dan = XValue::Nodes(vec![node(&revs[1])]);
        assert!(prog.eval_exists(&doc, &[ann]).unwrap());
        assert!(!prog.eval_exists(&doc, &[dan]).unwrap());
    }

    #[test]
    fn shadowed_binders_resolve_innermost() {
        let (doc, _) = parse_document(DOC).unwrap();
        let query = "for $x in //rev return (for $x in $x/sub return $x/title/text())";
        let q = parse_query(query).unwrap();
        let prog = XProgram::compile(&q);
        assert_eq!(render(&doc, prog.eval_seq(&doc, &[])), TITLES);
    }

    #[test]
    fn type_error_texts() {
        let (doc, _) = parse_document("<r/>").unwrap();
        for (query, outcome) in [
            ("('a', 'b') = 'a'", "error: sequence has no XPath 1.0 value equivalent"),
            ("1 | 2", "error: union of non-node-sets"),
            ("frob(//x)", "error: unknown function frob()"),
            ("exists(//x, //y)", "error: exists() expects 1 argument, got 2"),
            ("for $v in (for $a in ('a','b') return $a) return exists($v)", "(true, true)"),
        ] {
            let q = parse_query(query).unwrap();
            let prog = XProgram::compile(&q);
            assert_eq!(render(&doc, prog.eval_seq(&doc, &[])), outcome, "outcome of {query}");
        }
    }

    #[test]
    fn conversion_error_raised_even_for_unused_variable() {
        // Every in-scope variable must have an XPath value when an XPath
        // leaf is entered, whether or not the leaf mentions it.
        let (doc, _) = parse_document(DOC).unwrap();
        let query = "for $bad in exists((let $m := ('a','b') return 1)) return $bad";
        let prog = XProgram::compile(&parse_query(query).unwrap());
        assert_eq!(
            render(&doc, prog.eval_seq(&doc, &[])),
            "error: variable $m: sequence has no XPath 1.0 value equivalent"
        );
        // Direct form: a multi-atomic let in scope of an unrelated path.
        let query2 = "some $r in //rev satisfies \
            exists(for $m in ('a', 'b') let $two := ('x', 'y') where //track return $m)";
        let prog2 = XProgram::compile(&parse_query(query2).unwrap());
        assert_eq!(
            prog2.eval_exists(&doc, &[]).unwrap_err().to_string(),
            "variable $two: sequence has no XPath 1.0 value equivalent"
        );
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let (doc, _) = parse_document(DOC).unwrap();
        let q = parse_query(
            "some $a in //rev, $b in //sub satisfies $a/name/text() = $b/auts/name/text()",
        )
        .unwrap();
        let prog = XProgram::compile(&q);
        let guard = xic_xpath::budget::arm(xic_xpath::EvalBudget::new(2));
        let err = prog.eval_exists(&doc, &[]).unwrap_err();
        drop(guard);
        assert!(err.is_budget_exhausted());
    }

    /// Every allowance short of what a planned evaluation costs ends in
    /// `BudgetExhausted`, wherever it runs out: in the document's first
    /// build of the index, on its hits, or while a later join narrows them
    /// (Dan's one aut is narrowed away; Ann's is tried and rejected).
    #[test]
    fn a_budget_runs_out_in_the_build_and_the_narrowing_as_in_the_scan() {
        let plain = doc_with_catalog();
        let query = "some $a in //rev, $b in //aut satisfies $a/name/text() = $b/name/text() \
                     and $a/sub/auts/name/text() = $b/../aut/name/text() and count($b/../aut) > 2";
        let prog = XProgram::compile(&parse_query(query).unwrap());
        assert_eq!(prog.plan_sites(), 1);
        xic_obs::reset();
        assert!(!prog.eval_exists(&plain.clone(), &[]).unwrap());
        let c = xic_obs::counter;
        assert_eq!((c(xic_obs::Counter::IndexBuild), c(xic_obs::Counter::ProbeNarrowed)), (1, 1));
        let cost = c(xic_obs::Counter::XpathNodesVisited) + c(xic_obs::Counter::XqueryBindingsVisited);
        for allowance in 0..=cost {
            let guard = xic_xpath::budget::arm(xic_xpath::EvalBudget::new(allowance));
            let outcome = prog.eval_exists(&plain.clone(), &[]);
            drop(guard);
            match outcome {
                Ok(false) if allowance == cost => {}
                Err(e) if allowance < cost && e.is_budget_exhausted() => {}
                other => panic!("allowance {allowance} of {cost}: {other:?}"),
            }
        }
    }

    /// After a non-tail insert the list of `rev`s is out of document order.
    /// A FLWOR under `exists` or `count` iterates its sources unordered and
    /// a `let` nobody reads in order is bound unordered: nothing is sorted.
    /// A FLWOR whose value is the query's iterates in document order, and
    /// a `let` that `string` reads is put in it, once per binding.
    #[test]
    fn order_is_made_only_where_the_query_can_see_it() {
        let (mut doc, _) = parse_document(DOC).unwrap();
        let track = doc.root_element().and_then(|r| doc.element_children(r).first().copied()).unwrap();
        let (rev, name, zed) = (doc.create_element("rev"), doc.create_element("name"), doc.create_text("Zed"));
        doc.append_child(name, zed);
        doc.append_child(rev, name);
        doc.insert_child(track, 1, rev);
        for (query, outcome, sorts) in [
            ("count(for $n in //rev/name return $n)", "(3)", 0),
            ("exists(for $r in //rev let $n := //rev/name where count($n) = 3 return $r)", "(true)", 0),
            ("some $r in //rev satisfies $r/name/text() = 'Zed'", "(true)", 0),
            ("exists(for $r in //rev let $n := //rev/name where string($n) = 'Zed' return $r)", "(true)", 3),
            ("for $n in //rev/name return string($n)", "(\"Zed\", \"Ann\", \"Dan\")", 1),
            ("(//rev | //track)/name/text()", "(name1/text(), name2/text(), name3/text(), name6/text())", 1),
        ] {
            let prog = XProgram::compile(&parse_query(query).unwrap());
            xic_obs::reset();
            assert_eq!(render(&doc, prog.eval_seq(&doc, &[])), outcome, "{query}");
            assert_eq!(xic_obs::counter(xic_obs::Counter::DocOrderSort), sorts, "sorts of {query}");
        }
    }
}
