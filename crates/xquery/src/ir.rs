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
//! The existential FLWOR and quantifier drivers run on an explicit
//! backtracking frame stack (clause index + live item iterator) rather
//! than recursing per clause. The materializing evaluator is
//! structurally recursive (depth bounded by the query text, never by
//! the data). This is the only evaluator: the one-shot entry points in
//! [`crate::eval`] compile and run here, the expected-value tests there
//! are its specification, and the difftest oracle holds it to the naive
//! reference answer for every generated query.

use crate::ast::{Clause, XQuery};
use crate::eval::{mentions_var, node_to_constructed, XQueryError};
use crate::item::{
    effective_boolean, sequence_to_xvalue, xvalue_to_sequence, Constructed, ConstructedChild,
    Item, Sequence,
};
use xic_xml::{Document, Symbol};
use xic_xpath::ir::{self, Builder, ExprId, Scope, SlotId};
use xic_xpath::{BinOp, NodeRef, XValue};

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

/// One compiled FLWOR clause.
#[derive(Debug, Clone, PartialEq)]
pub enum XClause {
    /// `for $slot in source`
    For {
        /// Binding slot.
        slot: SlotId,
        /// Source expression.
        source: XId,
    },
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

/// One compiled quantifier binding.
#[derive(Debug, Clone, PartialEq)]
pub struct QBind {
    /// Binding slot.
    pub slot: SlotId,
    /// Source expression.
    pub source: XId,
    /// True if the source is loop-invariant w.r.t. earlier binders and
    /// may be evaluated once up front (decided at compile time from the
    /// AST; index 0 is never hoisted because it is evaluated exactly
    /// once anyway). Hoisting turns `some $a in //x, $b in //y satisfies
    /// …` from O(|x|·eval(//y)) into two sequence scans plus the pair
    /// loop.
    pub hoistable: bool,
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
        /// Bindings in order.
        binds: Box<[QBind]>,
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
            let slot = c.xp.fresh_slot(p);
            c.scope.push((p.clone(), slot));
        }
        let root = c.add(q);
        XProgram {
            xp: c.xp.finish(),
            insts: c.insts,
            root,
            num_params: params.len(),
        }
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
                let compiled: Vec<XClause> = clauses
                    .iter()
                    .map(|c| match c {
                        Clause::For { var, source } => {
                            let source = self.add(source);
                            let slot = self.xp.fresh_slot(var);
                            self.scope.push((var.clone(), slot));
                            XClause::For { slot, source }
                        }
                        Clause::Let { var, value } => {
                            let value = self.add(value);
                            let slot = self.xp.fresh_slot(var);
                            self.scope.push((var.clone(), slot));
                            XClause::Let { slot, value }
                        }
                        Clause::Where(cond) => XClause::Where(self.add(cond)),
                    })
                    .collect();
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
                let compiled: Vec<QBind> = binds
                    .iter()
                    .enumerate()
                    .map(|(i, (var, src))| {
                        let depends = binds[..i].iter().any(|(v, _)| mentions_var(src, v));
                        let source = self.add(src);
                        let slot = self.xp.fresh_slot(var);
                        self.scope.push((var.clone(), slot));
                        QBind {
                            slot,
                            source,
                            hoistable: i > 0 && !depends,
                        }
                    })
                    .collect();
                let satisfies = self.add(satisfies);
                self.scope.truncate(depth);
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
        XInst::Flwor { clauses, ret } => flwor_exists(clauses, *ret, st),
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

/// Existential FLWOR on an explicit backtracking stack: true iff the
/// iteration would emit at least one item. One frame per `for` clause
/// holds its clause index and live item iterator; `let` bindings are
/// (re)established on each descent, so no unbinding is needed on
/// backtrack. Stops at the first binding whose `where` chain passes and
/// whose `return` is non-empty.
fn flwor_exists(clauses: &[XClause], ret: XId, st: &mut St) -> Result<bool, XQueryError> {
    let mut frames: Vec<(usize, std::vec::IntoIter<Item>)> = Vec::new();
    let mut idx = 0;
    let mut descending = true;
    loop {
        if descending {
            let Some(clause) = clauses.get(idx) else {
                if eval_nonempty(ret, st)? {
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
                    if eval_ebv(*cond, st)? {
                        idx += 1;
                    } else {
                        descending = false;
                    }
                }
                XClause::For { source, .. } => {
                    let seq = eval(*source, st)?;
                    frames.push((idx, seq.into_iter()));
                    descending = false; // the backtrack arm pulls the first item
                }
            }
        } else {
            let Some((fidx, iter)) = frames.last_mut() else {
                return Ok(false);
            };
            match iter.next() {
                Some(item) => {
                    xic_obs::incr(xic_obs::Counter::XqueryBindingsVisited);
                    charge_budget()?;
                    let XClause::For { slot, .. } = clauses[*fidx] else {
                        unreachable!("frames are pushed for For clauses only");
                    };
                    idx = *fidx + 1;
                    st.bind(slot, vec![item]);
                    descending = true;
                }
                None => {
                    frames.pop();
                }
            }
        }
    }
}

/// Materializing FLWOR on the same backtracking stack, collecting every
/// emitted item.
fn flwor_collect(
    clauses: &[XClause],
    ret: XId,
    st: &mut St,
    out: &mut Sequence,
) -> Result<(), XQueryError> {
    let mut frames: Vec<(usize, std::vec::IntoIter<Item>)> = Vec::new();
    let mut idx = 0;
    let mut descending = true;
    loop {
        if descending {
            let Some(clause) = clauses.get(idx) else {
                out.extend(eval(ret, st)?);
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
                    if effective_boolean(&eval(*cond, st)?) {
                        idx += 1;
                    } else {
                        descending = false;
                    }
                }
                XClause::For { source, .. } => {
                    let seq = eval(*source, st)?;
                    frames.push((idx, seq.into_iter()));
                    descending = false;
                }
            }
        } else {
            let Some((fidx, iter)) = frames.last_mut() else {
                return Ok(());
            };
            match iter.next() {
                Some(item) => {
                    xic_obs::incr(xic_obs::Counter::XqueryBindingsVisited);
                    charge_budget()?;
                    let XClause::For { slot, .. } = clauses[*fidx] else {
                        unreachable!("frames are pushed for For clauses only");
                    };
                    idx = *fidx + 1;
                    st.bind(slot, vec![item]);
                    descending = true;
                }
                None => {
                    frames.pop();
                }
            }
        }
    }
}

/// Quantifier evaluation on an explicit frame stack. Hoistable sources
/// (loop-invariant, decided at compile time) are evaluated once up
/// front, in binding order. `lazy` selects existential consumption of
/// the satisfies condition — it is a boolean test either way, so the
/// result is identical.
fn eval_quantified(
    binds: &[QBind],
    satisfies: XId,
    st: &mut St,
    some: bool,
    lazy: bool,
) -> Result<bool, XQueryError> {
    let hoisted: Vec<Option<Sequence>> = binds
        .iter()
        .map(|b| {
            if b.hoistable {
                eval(b.source, st).map(Some)
            } else {
                Ok(None)
            }
        })
        .collect::<Result<_, _>>()?;
    let mut frames: Vec<std::vec::IntoIter<Item>> = Vec::new();
    let mut descending = true;
    loop {
        if descending {
            let idx = frames.len();
            if idx == binds.len() {
                let v = if lazy {
                    eval_ebv(satisfies, st)?
                } else {
                    effective_boolean(&eval(satisfies, st)?)
                };
                if v == some {
                    // `some`: a witness suffices; `every`: a
                    // counterexample kills.
                    return Ok(some);
                }
                descending = false;
                continue;
            }
            let items = match &hoisted[idx] {
                Some(seq) => seq.clone(),
                None => eval(binds[idx].source, st)?,
            };
            frames.push(items.into_iter());
            descending = false;
        } else {
            let Some(iter) = frames.last_mut() else {
                return Ok(!some);
            };
            match iter.next() {
                Some(item) => {
                    xic_obs::incr(xic_obs::Counter::XqueryBindingsVisited);
                    charge_budget()?;
                    let slot = binds[frames.len() - 1].slot;
                    st.bind(slot, vec![item]);
                    descending = true;
                }
                None => {
                    frames.pop();
                }
            }
        }
    }
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
            flwor_collect(clauses, *ret, st, &mut out)?;
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
        XInst::Binary(a, op, b) => eval_binary(*a, *op, *b, st),
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

fn eval_binary(a: XId, op: BinOp, b: XId, st: &mut St) -> Result<Sequence, XQueryError> {
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
    let va = sequence_to_xvalue(&eval(a, st)?).map_err(XQueryError::Type)?;
    let vb = sequence_to_xvalue(&eval(b, st)?).map_err(XQueryError::Type)?;
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
                xic_xpath::dedupe_doc_order(st.doc, &mut x);
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
    /// PR 14) returned.
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
            "(true)", true, 2,
        ),
        (
            "some $h in //auts, $r in //rev satisfies $h/name/text() = $r/name/text()",
            "(true)", true, 5,
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
            "(false)", false, 2,
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
}
