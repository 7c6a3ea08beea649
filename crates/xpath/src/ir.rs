//! The XPath evaluator: a flat, compile-once form of
//! [`crate::ast::Expr`] with interned name tests, slot-numbered variables
//! and a stack-driven existential walk.
//!
//! Compiling flattens the expression tree into one arena
//! ([`Program::exprs`]) addressed by `u32` ids, replaces variable names
//! with dense slot numbers, and pools every name test in
//! [`Program::names`]. At evaluation start the pool is resolved *once*
//! against the document's [`xic_xml::SymbolTable`]; from then on an
//! element name test is a single integer compare (a name the table has
//! never seen matches nothing, soundly, because the table is
//! append-only).
//!
//! This is the only evaluator: the one-shot entry points in
//! [`crate::eval`] compile and run here, and the expected-value tests
//! there are its specification (short-circuit rules, document-order
//! normalization and the `sibling_safe` skip, `EvalBudget` charging and
//! `xic-obs` counters, error messages). The hot existential path walk
//! (`path_exists_from`), whose recursion depth scales with the number
//! of location steps times the tree fan-out, runs on an explicit frame
//! stack instead of the call stack; fixed-depth structural recursion
//! (predicate expressions, operand trees) remains recursive. The
//! difftest oracle holds this file to the naive reference answer for
//! every generated query.

use crate::ast::{Axis, BinOp, Expr, NodeTest, PathStart, Step};
use crate::eval::{axis_iter, compare_values, dedupe_doc_order, same_depth, EvalError};
use crate::value::{NodeRef, XValue};
use std::collections::HashMap;
use xic_xml::{Document, NodeKind, Symbol};

/// Index of an expression node in [`Program::exprs`].
pub type ExprId = u32;

/// Index into the compile-time name pool ([`Program::names`]).
pub type NameId = u32;

/// Index of a variable slot.
pub type SlotId = u32;

/// A pre-resolved node test: element names are pool indexes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrTest {
    /// Name test (pool index).
    Name(NameId),
    /// `*`
    Wildcard,
    /// `text()`
    Text,
    /// `node()`
    Node,
    /// `comment()`
    Comment,
}

/// One compiled location step.
#[derive(Debug, Clone, PartialEq)]
pub struct IrStep {
    /// The axis.
    pub axis: Axis,
    /// The pre-resolved node test.
    pub test: IrTest,
    /// Predicates, applied in order.
    pub predicates: Box<[ExprId]>,
}

/// Where a compiled path starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrStart {
    /// Absolute: the document node.
    Root,
    /// The context item.
    Context,
    /// A variable slot.
    Slot(SlotId),
}

/// Pre-resolved function discriminant (no per-call string matching).
/// Arity is checked at evaluation time, so a bad call in a branch that
/// never runs never errors.
#[derive(Debug, Clone, PartialEq)]
pub enum FnOp {
    /// `position()`
    Position,
    /// `last()`
    Last,
    /// `true()`
    True,
    /// `false()`
    False,
    /// `count(ns)`
    Count,
    /// `sum(ns)`
    Sum,
    /// `not(v)`
    Not,
    /// `boolean(v)`
    Boolean,
    /// `string([v])`
    String,
    /// `number([v])`
    Number,
    /// `concat(a, b, …)`
    Concat,
    /// `contains(h, n)`
    Contains,
    /// `starts-with(h, n)`
    StartsWith,
    /// `string-length(s)`
    StringLength,
    /// `normalize-space([s])`
    NormalizeSpace,
    /// `name([ns])`
    Name,
    /// `local-name([ns])`
    LocalName,
    /// A function the compiler does not know; errors when (and only
    /// when) evaluated.
    Unknown(Box<str>),
}

impl FnOp {
    fn display_name(&self) -> &str {
        match self {
            FnOp::Position => "position",
            FnOp::Last => "last",
            FnOp::True => "true",
            FnOp::False => "false",
            FnOp::Count => "count",
            FnOp::Sum => "sum",
            FnOp::Not => "not",
            FnOp::Boolean => "boolean",
            FnOp::String => "string",
            FnOp::Number => "number",
            FnOp::Concat => "concat",
            FnOp::Contains => "contains",
            FnOp::StartsWith => "starts-with",
            FnOp::StringLength => "string-length",
            FnOp::NormalizeSpace => "normalize-space",
            FnOp::Name => "name",
            FnOp::LocalName => "local-name",
            FnOp::Unknown(n) => n,
        }
    }

    fn from_name(name: &str) -> FnOp {
        match name {
            "position" => FnOp::Position,
            "last" => FnOp::Last,
            "true" => FnOp::True,
            "false" => FnOp::False,
            "count" => FnOp::Count,
            "sum" => FnOp::Sum,
            "not" => FnOp::Not,
            "boolean" => FnOp::Boolean,
            "string" => FnOp::String,
            "number" => FnOp::Number,
            "concat" => FnOp::Concat,
            "contains" => FnOp::Contains,
            "starts-with" => FnOp::StartsWith,
            "string-length" => FnOp::StringLength,
            "normalize-space" => FnOp::NormalizeSpace,
            "name" => FnOp::Name,
            "local-name" => FnOp::LocalName,
            other => FnOp::Unknown(other.into()),
        }
    }
}

/// One flat expression node.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// String literal.
    Literal(String),
    /// Numeric literal.
    Number(f64),
    /// Unary minus.
    Neg(ExprId),
    /// A location path.
    Path {
        /// Starting point.
        start: IrStart,
        /// Compiled steps.
        steps: Box<[IrStep]>,
    },
    /// `(expr)[pred]/steps`.
    Filter {
        /// The primary expression.
        primary: ExprId,
        /// Predicates on the primary.
        predicates: Box<[ExprId]>,
        /// Trailing steps.
        steps: Box<[IrStep]>,
    },
    /// Binary operation.
    Binary(ExprId, BinOp, ExprId),
    /// Function call.
    Call(FnOp, Box<[ExprId]>),
}

/// A compiled XPath program: a flat expression arena plus its name pool
/// and slot table. One program may hold several independently rooted
/// expressions (the XQuery compiler pools every embedded XPath leaf of a
/// query into a single program).
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Flat expression arena.
    pub exprs: Vec<Inst>,
    /// Name-test pool (strings, document-independent).
    pub names: Vec<String>,
    /// Slot → variable name (used for error messages and late binding).
    pub var_names: Vec<String>,
}

impl Program {
    /// Resolves the name pool against a document's symbol table. Done
    /// once per evaluation; `None` means the name was never interned, so
    /// the corresponding element name test can never match.
    pub fn resolve(&self, doc: &Document) -> Vec<Option<Symbol>> {
        let table = doc.symbols();
        self.names.iter().map(|n| table.lookup(n)).collect()
    }

    /// Number of variable slots (bound or free).
    pub fn num_slots(&self) -> usize {
        self.var_names.len()
    }

    /// The slot of a variable name, if the program references it.
    pub fn slot_of(&self, name: &str) -> Option<SlotId> {
        self.var_names
            .iter()
            .position(|v| v == name)
            .map(|i| u32::try_from(i).expect("slot count fits u32"))
    }
}

/// Compiles one expression into a fresh single-rooted program. Free
/// variables get never-bound slots that raise `UndefinedVariable` when
/// (and only when) the evaluator actually reads them.
pub fn compile(expr: &Expr) -> (Program, ExprId) {
    let mut b = Builder::new();
    let root = b.add_expr(expr, &|_| None);
    (b.finish(), root)
}

/// Incremental program builder; the XQuery compiler drives one of these
/// across every embedded XPath leaf so they share a pool and slot table.
#[derive(Debug, Default)]
pub struct Builder {
    prog: Program,
    name_ids: HashMap<String, NameId>,
    /// Free variables (not resolved by any scope) share one slot per name.
    free_slots: HashMap<String, SlotId>,
}

impl Builder {
    /// An empty builder.
    pub fn new() -> Builder {
        Builder::default()
    }

    /// Allocates a fresh slot for `name` (one per binding site; the
    /// caller manages lexical scoping).
    pub fn fresh_slot(&mut self, name: &str) -> SlotId {
        let id = u32::try_from(self.prog.var_names.len()).expect("slot count fits u32");
        self.prog.var_names.push(name.to_string());
        id
    }

    fn name_id(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = u32::try_from(self.prog.names.len()).expect("name pool fits u32");
        self.prog.names.push(name.to_string());
        self.name_ids.insert(name.to_string(), id);
        id
    }

    fn slot_for_var(&mut self, name: &str, scope: &dyn Fn(&str) -> Option<SlotId>) -> SlotId {
        if let Some(s) = scope(name) {
            return s;
        }
        if let Some(&s) = self.free_slots.get(name) {
            return s;
        }
        let s = self.fresh_slot(name);
        self.free_slots.insert(name.to_string(), s);
        s
    }

    fn push(&mut self, inst: Inst) -> ExprId {
        let id = u32::try_from(self.prog.exprs.len()).expect("expr arena fits u32");
        self.prog.exprs.push(inst);
        id
    }

    fn add_test(&mut self, test: &NodeTest) -> IrTest {
        match test {
            NodeTest::Name(n) => IrTest::Name(self.name_id(n)),
            NodeTest::Wildcard => IrTest::Wildcard,
            NodeTest::Text => IrTest::Text,
            NodeTest::Node => IrTest::Node,
            NodeTest::Comment => IrTest::Comment,
        }
    }

    fn add_steps(&mut self, steps: &[Step], scope: &dyn Fn(&str) -> Option<SlotId>) -> Box<[IrStep]> {
        steps
            .iter()
            .map(|s| IrStep {
                axis: s.axis,
                test: self.add_test(&s.test),
                predicates: s
                    .predicates
                    .iter()
                    .map(|p| self.add_expr(p, scope))
                    .collect(),
            })
            .collect()
    }

    /// Compiles `expr` into the arena, resolving variable names through
    /// `scope` (a name the scope does not know becomes a shared free
    /// slot). Returns the root id.
    pub fn add_expr(&mut self, expr: &Expr, scope: &dyn Fn(&str) -> Option<SlotId>) -> ExprId {
        match expr {
            Expr::Literal(s) => self.push(Inst::Literal(s.clone())),
            Expr::Number(n) => self.push(Inst::Number(*n)),
            Expr::Neg(e) => {
                let inner = self.add_expr(e, scope);
                self.push(Inst::Neg(inner))
            }
            Expr::Path(p) => {
                let start = match &p.start {
                    PathStart::Root => IrStart::Root,
                    PathStart::Context => IrStart::Context,
                    PathStart::Variable(v) => IrStart::Slot(self.slot_for_var(v, scope)),
                };
                let steps = self.add_steps(&p.steps, scope);
                self.push(Inst::Path { start, steps })
            }
            Expr::Filter {
                primary,
                predicates,
                steps,
            } => {
                let primary = self.add_expr(primary, scope);
                let predicates = predicates.iter().map(|p| self.add_expr(p, scope)).collect();
                let steps = self.add_steps(steps, scope);
                self.push(Inst::Filter {
                    primary,
                    predicates,
                    steps,
                })
            }
            Expr::Binary(a, op, b) => {
                let a = self.add_expr(a, scope);
                let b = self.add_expr(b, scope);
                self.push(Inst::Binary(a, *op, b))
            }
            Expr::Call(name, args) => {
                let args = args.iter().map(|a| self.add_expr(a, scope)).collect();
                self.push(Inst::Call(FnOp::from_name(name), args))
            }
        }
    }

    /// Finalizes the program.
    pub fn finish(self) -> Program {
        self.prog
    }
}

/// The dynamic context of an evaluation: document, context item, slot
/// values, and the per-evaluation resolved name pool. Borrowed slices
/// make per-predicate context copies slot-free and cheap — what
/// [`crate::eval::Context`] is to callers, minus a `HashMap` clone on
/// every rebind.
#[derive(Debug, Clone)]
pub struct Scope<'p, 'd, 'a> {
    /// The owning program.
    pub prog: &'p Program,
    /// The document.
    pub doc: &'d Document,
    /// Context item.
    pub item: NodeRef,
    /// 1-based context position.
    pub position: usize,
    /// Context size.
    pub size: usize,
    /// Slot values; `None` is "unbound" and reads raise
    /// `UndefinedVariable`.
    pub slots: &'a [Option<XValue>],
    /// `resolved[name_id]`: the document symbol for each pooled name.
    pub resolved: &'a [Option<Symbol>],
}

impl<'p, 'd, 'a> Scope<'p, 'd, 'a> {
    fn at(&self, item: NodeRef, position: usize, size: usize) -> Scope<'p, 'd, 'a> {
        Scope {
            item,
            position,
            size,
            ..self.clone()
        }
    }

    fn slot(&self, s: SlotId) -> Result<&'a XValue, EvalError> {
        self.slots[s as usize]
            .as_ref()
            .ok_or_else(|| EvalError::UndefinedVariable(self.prog.var_names[s as usize].clone()))
    }

    fn var_name(&self, s: SlotId) -> &str {
        &self.prog.var_names[s as usize]
    }

    fn inst(&self, id: ExprId) -> &'p Inst {
        &self.prog.exprs[id as usize]
    }
}

#[inline]
fn charge_budget(n: u64) -> Result<(), EvalError> {
    crate::budget::charge(n).map_err(|_| EvalError::BudgetExhausted)
}

/// Pre-resolved node test. Element name tests are integer compares
/// against the node's cached symbol; attribute name tests remain string
/// compares (attribute refs carry their name).
fn node_test(scope: &Scope, item: &NodeRef, test: &IrTest) -> bool {
    match item {
        NodeRef::Attr { name, .. } => match test {
            IrTest::Name(nid) => scope.prog.names[*nid as usize] == *name,
            IrTest::Wildcard | IrTest::Node => true,
            _ => false,
        },
        NodeRef::Node(n) => match test {
            IrTest::Name(nid) => match scope.resolved[*nid as usize] {
                Some(sym) => scope.doc.symbol(*n) == Some(sym),
                // Never-interned name: no element can carry it.
                None => false,
            },
            // Elements are exactly the nodes with a tag-name symbol.
            IrTest::Wildcard => scope.doc.symbol(*n).is_some(),
            IrTest::Text => matches!(scope.doc.node(*n).kind, NodeKind::Text(_)),
            IrTest::Node => true,
            IrTest::Comment => matches!(scope.doc.node(*n).kind, NodeKind::Comment(_)),
        },
    }
}

/// Evaluates a compiled expression (materializing); see
/// [`crate::eval::evaluate`].
pub fn eval(id: ExprId, scope: &Scope) -> Result<XValue, EvalError> {
    match scope.inst(id) {
        Inst::Literal(s) => Ok(XValue::Str(s.clone())),
        Inst::Number(n) => Ok(XValue::Num(*n)),
        Inst::Neg(e) => Ok(XValue::Num(-eval(*e, scope)?.to_num(scope.doc))),
        Inst::Path { start, steps } => Ok(XValue::Nodes(eval_path(*start, steps, scope)?)),
        Inst::Filter {
            primary,
            predicates,
            steps,
        } => {
            let v = eval(*primary, scope)?;
            let mut nodes = match v {
                XValue::Nodes(ns) => ns,
                other if predicates.is_empty() && steps.is_empty() => return Ok(other),
                other => {
                    return Err(EvalError::Type(format!(
                        "cannot filter non-node-set value {other:?}"
                    )))
                }
            };
            for &pred in predicates.iter() {
                nodes = apply_predicate(&nodes, pred, scope, false)?;
            }
            for step in steps.iter() {
                nodes = eval_step(&nodes, step, scope)?;
            }
            Ok(XValue::Nodes(nodes))
        }
        Inst::Binary(a, op, b) => eval_binary(*a, *op, *b, scope),
        Inst::Call(op, args) => eval_call(op, args, scope),
    }
}

/// Existential evaluation; see [`crate::eval::evaluate_exists`].
pub fn eval_exists(id: ExprId, scope: &Scope) -> Result<bool, EvalError> {
    match scope.inst(id) {
        Inst::Literal(s) => Ok(!s.is_empty()),
        Inst::Number(n) => Ok(*n != 0.0 && !n.is_nan()),
        Inst::Path { start, steps } => {
            if let IrStart::Slot(s) = start {
                if steps.is_empty() {
                    return Ok(scope.slot(*s)?.to_bool());
                }
            }
            let input = path_start_nodes(*start, steps, scope)?;
            path_exists_from(&input, steps, scope)
        }
        Inst::Filter {
            primary,
            predicates,
            steps,
        } if predicates.is_empty() => match eval(*primary, scope)? {
            XValue::Nodes(ns) => path_exists_from(&ns, steps, scope),
            other if steps.is_empty() => Ok(other.to_bool()),
            other => Err(EvalError::Type(format!(
                "cannot filter non-node-set value {other:?}"
            ))),
        },
        Inst::Binary(a, BinOp::Or, b) => Ok(eval_exists(*a, scope)? || eval_exists(*b, scope)?),
        Inst::Binary(a, BinOp::And, b) => Ok(eval_exists(*a, scope)? && eval_exists(*b, scope)?),
        Inst::Call(op, args) => match (op, args.len()) {
            (FnOp::True, 0) => Ok(true),
            (FnOp::False, 0) => Ok(false),
            (FnOp::Not, 1) => Ok(!eval_exists(args[0], scope)?),
            (FnOp::Boolean, 1) => eval_exists(args[0], scope),
            _ => Ok(eval(id, scope)?.to_bool()),
        },
        _ => Ok(eval(id, scope)?.to_bool()),
    }
}

/// Sequence-nonemptiness counterpart; see
/// [`crate::eval::evaluate_nonempty`].
pub fn eval_nonempty(id: ExprId, scope: &Scope) -> Result<bool, EvalError> {
    match scope.inst(id) {
        Inst::Path { start, steps } => {
            if let IrStart::Slot(s) = start {
                if steps.is_empty() {
                    return match scope.slot(*s)? {
                        XValue::Nodes(ns) => Ok(!ns.is_empty()),
                        _ => Ok(true),
                    };
                }
            }
            let input = path_start_nodes(*start, steps, scope)?;
            path_exists_from(&input, steps, scope)
        }
        Inst::Filter {
            primary,
            predicates,
            steps,
        } if predicates.is_empty() => match eval(*primary, scope)? {
            XValue::Nodes(ns) => path_exists_from(&ns, steps, scope),
            _ if steps.is_empty() => Ok(true),
            other => Err(EvalError::Type(format!(
                "cannot filter non-node-set value {other:?}"
            ))),
        },
        _ => Ok(match eval(id, scope)? {
            XValue::Nodes(ns) => !ns.is_empty(),
            _ => true,
        }),
    }
}

/// Evaluates a rooted expression that may be a bare `$x` holding any
/// value (the XQuery layer also stores strings/numbers in variables, so
/// `$x = 3` works when `$x` holds a number) — used for operands and by
/// the XQuery layer.
pub fn eval_operand(id: ExprId, scope: &Scope) -> Result<XValue, EvalError> {
    if let Inst::Path { start, steps } = scope.inst(id) {
        if let IrStart::Slot(s) = start {
            if steps.is_empty() {
                return scope.slot(*s).cloned();
            }
        }
        return Ok(XValue::Nodes(eval_path(*start, steps, scope)?));
    }
    eval(id, scope)
}

fn path_start_nodes(
    start: IrStart,
    steps: &[IrStep],
    scope: &Scope,
) -> Result<Vec<NodeRef>, EvalError> {
    match start {
        IrStart::Root => Ok(vec![NodeRef::Node(scope.doc.document_node())]),
        IrStart::Context => Ok(vec![scope.item.clone()]),
        IrStart::Slot(s) => match scope.slot(s)? {
            XValue::Nodes(ns) => Ok(ns.clone()),
            other => {
                let v = scope.var_name(s);
                if steps.is_empty() {
                    return Err(EvalError::Type(format!(
                        "variable ${v} holds a non-node-set {other:?} (evaluate it as an \
                         expression instead)"
                    )));
                }
                Err(EvalError::Type(format!(
                    "cannot navigate from non-node-set variable ${v}"
                )))
            }
        },
    }
}

fn eval_path(start: IrStart, steps: &[IrStep], scope: &Scope) -> Result<Vec<NodeRef>, EvalError> {
    let mut cur = path_start_nodes(start, steps, scope)?;
    for step in steps {
        cur = eval_step(&cur, step, scope)?;
    }
    Ok(cur)
}

/// One frame of the explicit existential walk: a source of candidate
/// items entering step `depth`.
enum Frame<'d> {
    /// Raw axis candidates for the *previous* step, still to be charged
    /// and node-tested before they become inputs of step `depth`.
    Axis {
        depth: usize,
        iter: Box<dyn Iterator<Item = NodeRef> + 'd>,
    },
    /// Already-tested items entering step `depth` (the initial input, or
    /// a materialized predicate-step result).
    Ready {
        depth: usize,
        iter: std::vec::IntoIter<NodeRef>,
    },
}

/// Depth-first existential path evaluation on an explicit frame stack:
/// true iff applying `steps` to `input` yields at least one node.
/// Predicate-free steps stream their axis candidates one at a time (each
/// charged before its node test) and descend immediately, so the walk
/// stops at the first witness; steps with predicates materialize one
/// step's per-item result (positional predicates need the whole
/// candidate list) and continue existentially from it.
pub(crate) fn path_exists_from(
    input: &[NodeRef],
    steps: &[IrStep],
    scope: &Scope,
) -> Result<bool, EvalError> {
    if steps.is_empty() {
        return Ok(!input.is_empty());
    }
    let mut stack: Vec<Frame> = vec![Frame::Ready {
        depth: 0,
        iter: Vec::from(input).into_iter(),
    }];
    while let Some(top) = stack.last_mut() {
        // Pull the next item entering `depth`, charging each raw axis
        // candidate.
        let (depth, item) = match top {
            Frame::Ready { depth, iter } => match iter.next() {
                Some(item) => (*depth, item),
                None => {
                    stack.pop();
                    continue;
                }
            },
            Frame::Axis { depth, iter } => {
                let step = &steps[*depth - 1];
                let mut found = None;
                for n in iter.by_ref() {
                    xic_obs::incr(xic_obs::Counter::XpathNodesVisited);
                    charge_budget(1)?;
                    if node_test(scope, &n, &step.test) {
                        found = Some(n);
                        break;
                    }
                }
                match found {
                    Some(item) => (*depth, item),
                    None => {
                        stack.pop();
                        continue;
                    }
                }
            }
        };
        if depth == steps.len() {
            return Ok(true);
        }
        let step = &steps[depth];
        if step.predicates.is_empty() {
            stack.push(Frame::Axis {
                depth: depth + 1,
                iter: axis_iter(scope.doc, &item, step.axis),
            });
        } else {
            let tested = step_once(&item, step, scope)?;
            stack.push(Frame::Ready {
                depth: depth + 1,
                iter: tested.into_iter(),
            });
        }
    }
    Ok(false)
}

/// Applies one step to a *single* context item: axis traversal (lazy),
/// node test, then predicates over the per-item candidate list, so
/// positional predicates count within one input item's candidates.
fn step_once(item: &NodeRef, step: &IrStep, scope: &Scope) -> Result<Vec<NodeRef>, EvalError> {
    let mut visited = 0u64;
    let mut tested: Vec<NodeRef> = axis_iter(scope.doc, item, step.axis)
        .inspect(|_| visited += 1)
        .filter(|n| node_test(scope, n, &step.test))
        .collect();
    xic_obs::add(xic_obs::Counter::XpathNodesVisited, visited);
    charge_budget(visited)?;
    for &pred in step.predicates.iter() {
        tested = apply_predicate(&tested, pred, scope, step.axis.is_reverse())?;
    }
    Ok(tested)
}

fn eval_step(input: &[NodeRef], step: &IrStep, scope: &Scope) -> Result<Vec<NodeRef>, EvalError> {
    let mut merged: Vec<NodeRef> = Vec::new();
    for item in input {
        merged.extend(step_once(item, step, scope)?);
    }
    // Normalization (document-order sort + dedup) is the dominant cost on
    // large documents; skip it when the result is ordered and duplicate-
    // free by construction: a single context node with a forward axis, or
    // doc-ordered non-nested inputs stepped through child/attribute/self
    // (disjoint result sets, concatenated in input order). Non-nesting is
    // guaranteed when all inputs sit at the same tree depth — the common
    // case for homogeneous steps like `$x/sub/auts`.
    if input.len() <= 1 {
        if step.axis.is_reverse() {
            // Reverse-axis results from one node: flip into document order
            // (already duplicate-free).
            merged.reverse();
        }
        return Ok(merged);
    }
    let sibling_safe = matches!(step.axis, Axis::Child | Axis::Attribute | Axis::SelfAxis)
        && same_depth(scope.doc, input);
    if !sibling_safe {
        dedupe_doc_order(scope.doc, &mut merged);
    }
    Ok(merged)
}

fn apply_predicate(
    nodes: &[NodeRef],
    pred: ExprId,
    scope: &Scope,
    reverse: bool,
) -> Result<Vec<NodeRef>, EvalError> {
    let size = nodes.len();
    let mut out = Vec::with_capacity(size);
    for (i, n) in nodes.iter().enumerate() {
        let position = if reverse { size - i } else { i + 1 };
        let sub = scope.at(n.clone(), position, size);
        let v = eval(pred, &sub)?;
        let keep = match v {
            XValue::Num(k) => (position as f64) == k,
            other => other.to_bool(),
        };
        if keep {
            out.push(n.clone());
        }
    }
    Ok(out)
}

fn eval_binary(a: ExprId, op: BinOp, b: ExprId, scope: &Scope) -> Result<XValue, EvalError> {
    match op {
        BinOp::Or => {
            return Ok(XValue::Bool(
                eval(a, scope)?.to_bool() || eval(b, scope)?.to_bool(),
            ))
        }
        BinOp::And => {
            return Ok(XValue::Bool(
                eval(a, scope)?.to_bool() && eval(b, scope)?.to_bool(),
            ))
        }
        _ => {}
    }
    let va = eval_operand(a, scope)?;
    let vb = eval_operand(b, scope)?;
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            let x = va.to_num(scope.doc);
            let y = vb.to_num(scope.doc);
            let r = match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                BinOp::Mod => x % y,
                _ => unreachable!(),
            };
            Ok(XValue::Num(r))
        }
        BinOp::Union => match (va, vb) {
            (XValue::Nodes(mut x), XValue::Nodes(y)) => {
                x.extend(y);
                dedupe_doc_order(scope.doc, &mut x);
                Ok(XValue::Nodes(x))
            }
            _ => Err(EvalError::Type("union of non-node-sets".to_string())),
        },
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            Ok(XValue::Bool(compare_values(&va, op, &vb, scope.doc)))
        }
        BinOp::Or | BinOp::And => unreachable!("handled above"),
    }
}

fn eval_call(op: &FnOp, args: &[ExprId], scope: &Scope) -> Result<XValue, EvalError> {
    let name = op.display_name();
    let arity = |n: usize| -> Result<(), EvalError> {
        if args.len() == n {
            Ok(())
        } else {
            Err(EvalError::BadCall(format!(
                "{name}() expects {n} argument(s), got {}",
                args.len()
            )))
        }
    };
    match op {
        FnOp::Position => {
            arity(0)?;
            Ok(XValue::Num(scope.position as f64))
        }
        FnOp::Last => {
            arity(0)?;
            Ok(XValue::Num(scope.size as f64))
        }
        FnOp::True => {
            arity(0)?;
            Ok(XValue::Bool(true))
        }
        FnOp::False => {
            arity(0)?;
            Ok(XValue::Bool(false))
        }
        FnOp::Count => {
            arity(1)?;
            match eval_operand(args[0], scope)? {
                XValue::Nodes(ns) => Ok(XValue::Num(ns.len() as f64)),
                other => Err(EvalError::Type(format!("count() of {other:?}"))),
            }
        }
        FnOp::Sum => {
            arity(1)?;
            match eval_operand(args[0], scope)? {
                XValue::Nodes(ns) => Ok(XValue::Num(
                    ns.iter()
                        .map(|n| {
                            n.string_value(scope.doc)
                                .trim()
                                .parse()
                                .unwrap_or(f64::NAN)
                        })
                        .sum(),
                )),
                other => Err(EvalError::Type(format!("sum() of {other:?}"))),
            }
        }
        FnOp::Not => {
            arity(1)?;
            Ok(XValue::Bool(!eval_operand(args[0], scope)?.to_bool()))
        }
        FnOp::Boolean => {
            arity(1)?;
            Ok(XValue::Bool(eval_operand(args[0], scope)?.to_bool()))
        }
        FnOp::String => {
            if args.is_empty() {
                return Ok(XValue::Str(scope.item.string_value(scope.doc)));
            }
            arity(1)?;
            Ok(XValue::Str(eval_operand(args[0], scope)?.to_str(scope.doc)))
        }
        FnOp::Number => {
            if args.is_empty() {
                return Ok(XValue::Num(
                    scope
                        .item
                        .string_value(scope.doc)
                        .trim()
                        .parse()
                        .unwrap_or(f64::NAN),
                ));
            }
            arity(1)?;
            Ok(XValue::Num(eval_operand(args[0], scope)?.to_num(scope.doc)))
        }
        FnOp::Concat => {
            if args.len() < 2 {
                return Err(EvalError::BadCall(
                    "concat() expects at least 2 arguments".to_string(),
                ));
            }
            let mut out = String::new();
            for &a in args {
                out.push_str(&eval_operand(a, scope)?.to_str(scope.doc));
            }
            Ok(XValue::Str(out))
        }
        FnOp::Contains => {
            arity(2)?;
            let h = eval_operand(args[0], scope)?.to_str(scope.doc);
            let n = eval_operand(args[1], scope)?.to_str(scope.doc);
            Ok(XValue::Bool(h.contains(&n)))
        }
        FnOp::StartsWith => {
            arity(2)?;
            let h = eval_operand(args[0], scope)?.to_str(scope.doc);
            let n = eval_operand(args[1], scope)?.to_str(scope.doc);
            Ok(XValue::Bool(h.starts_with(&n)))
        }
        FnOp::StringLength => {
            arity(1)?;
            Ok(XValue::Num(
                eval_operand(args[0], scope)?
                    .to_str(scope.doc)
                    .chars()
                    .count() as f64,
            ))
        }
        FnOp::NormalizeSpace => {
            let s = if args.is_empty() {
                scope.item.string_value(scope.doc)
            } else {
                arity(1)?;
                eval_operand(args[0], scope)?.to_str(scope.doc)
            };
            Ok(XValue::Str(
                s.split_whitespace().collect::<Vec<_>>().join(" "),
            ))
        }
        FnOp::Name | FnOp::LocalName => {
            let target = if args.is_empty() {
                scope.item.clone()
            } else {
                arity(1)?;
                match eval_operand(args[0], scope)? {
                    XValue::Nodes(ns) => match ns.first() {
                        Some(n) => n.clone(),
                        None => return Ok(XValue::Str(String::new())),
                    },
                    other => return Err(EvalError::Type(format!("name() of {other:?}"))),
                }
            };
            let full = match &target {
                NodeRef::Node(n) => scope.doc.name(*n).unwrap_or("").to_string(),
                NodeRef::Attr { name, .. } => name.clone(),
            };
            let out = if matches!(op, FnOp::LocalName) {
                full.rsplit(':').next().unwrap_or("").to_string()
            } else {
                full
            };
            Ok(XValue::Str(out))
        }
        FnOp::Unknown(other) => Err(EvalError::BadCall(format!("unknown function {other}()"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate, evaluate_exists, evaluate_nodes, Context};
    use crate::parser::parse;
    use xic_xml::parse_document;

    const DOC: &str = "<review>\
        <track><name>DB</name>\
          <rev><name>Ann</name>\
            <sub><title>S1</title><auts><name>Bob</name></auts></sub>\
            <sub><title>S2</title><auts><name>Cat</name><name>Ann</name></auts></sub>\
          </rev>\
          <rev><name>Dan</name>\
            <sub><title>S3</title><auts><name>Eve</name></auts></sub>\
          </rev>\
        </track>\
        <track><name>AI</name>\
          <rev><name>Ann</name><sub><title>S4</title><auts><name>Flo</name></auts></sub></rev>\
        </track>\
      </review>";

    /// `tagK` names the K-th `tag` element in document order; text nodes
    /// and attributes hang off their parent's label. A golden written
    /// this way pins a node-set's members and their order.
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

    fn render(doc: &Document, v: &XValue) -> String {
        match v {
            XValue::Nodes(ns) => {
                let labels: Vec<String> = ns.iter().map(|n| label(doc, n)).collect();
                format!("[{}]", labels.join(" "))
            }
            XValue::Str(s) => format!("{s:?}"),
            // `+ 0.0` folds the sign of a negative zero away.
            XValue::Num(n) => format!("{}", n + 0.0),
            XValue::Bool(b) => format!("{b}"),
        }
    }

    /// Query, materialized value, existential answer — the values the
    /// tree-walking interpreter (retired at PR 14) returned.
    const GOLDEN: &[(&str, &str, bool)] = &[
        ("//rev", "[rev1 rev2 rev3]", true),
        ("//zzz", "[]", false),
        ("//never-seen-name", "[]", false),
        ("//rev/name/text()", "[name2/text() name6/text() name9/text()]", true),
        ("//sub[auts/name/text() = 'Ann']", "[sub2]", true),
        ("//sub[2]", "[sub2]", true),
        ("//sub[position() = last()]", "[sub2 sub3 sub4]", true),
        ("(//sub)[1]", "[sub1]", true),
        ("//auts/name/..", "[auts1 auts2 auts3 auts4]", true),
        ("//rev | //zzz", "[rev1 rev2 rev3]", true),
        ("not(//zzz)", "true", true),
        ("boolean(//track)", "true", true),
        ("//rev/name/text() = //auts/name/text()", "true", true),
        ("count(//sub) > 3", "true", true),
        ("//track and //rev", "true", true),
        ("//zzz or //track", "true", true),
        ("'x'", "\"x\"", true),
        ("''", "\"\"", false),
        ("0", "0", false),
        ("3", "3", true),
        ("1 + 2 * 3", "7", true),
        ("7 mod 3", "1", true),
        ("-(3)", "-3", true),
        ("'2' = 2", "true", true),
        ("true() = '1'", "true", true),
        ("//sub/preceding-sibling::name", "[name2 name6 name9]", true),
        ("//auts/ancestor::track", "[track1 track2]", true),
        (
            "//auts/ancestor-or-self::*",
            "[review1 track1 rev1 sub1 auts1 sub2 auts2 rev2 sub3 auts3 track2 rev3 sub4 auts4]",
            true,
        ),
        ("//track/name | //rev/name", "[name1 name2 name6 name8 name9]", true),
        ("//sub[2]/preceding-sibling::*[1]", "[name2]", true),
        ("concat('a', 'b')", "\"ab\"", true),
        ("string-length('héllo')", "5", true),
        ("normalize-space('  a   b ')", "\"a b\"", true),
        ("name(//track[1])", "\"track\"", true),
        ("string(//rev[1]/name)", "\"Ann\"", true),
        ("sum(//zzz)", "0", false),
        ("contains(//rev[1]/name, 'nn')", "true", true),
    ];

    #[test]
    fn materialized_and_existential_values() {
        let (doc, _) = parse_document(DOC).unwrap();
        let ctx = Context::root(&doc);
        for &(src, value, exists) in GOLDEN {
            let ast = parse(src).unwrap();
            let v = evaluate(&ast, &ctx).unwrap();
            assert_eq!(render(&doc, &v), value, "materialized value of {src}");
            assert_eq!(evaluate_exists(&ast, &ctx).unwrap(), exists, "existential answer of {src}");
        }
    }

    #[test]
    fn attribute_queries() {
        let src = "<r><a id=\"1\" lang=\"en\"/><a id=\"2\"/></r>";
        let (doc, _) = parse_document(src).unwrap();
        for (q, nodes) in [
            ("//a/@id", "[a1/@id a2/@id]"),
            ("//a[@id = '2']", "[a2]"),
            ("//a[@lang]", "[a1]"),
            ("//a/@*", "[a1/@id a1/@lang a2/@id]"),
            ("//a/@nope", "[]"),
        ] {
            let v = evaluate(&parse(q).unwrap(), &Context::root(&doc)).unwrap();
            assert_eq!(render(&doc, &v), nodes, "attribute query {q}");
        }
    }

    #[test]
    fn slots_bind_variables() {
        let (doc, _) = parse_document(DOC).unwrap();
        let ast = parse("$lr/sub").unwrap();
        let (prog, root) = compile(&ast);
        let lr = prog.slot_of("lr").expect("free variable got a slot");
        let revs = {
            let a = parse("//rev").unwrap();
            evaluate_nodes(&a, &Context::root(&doc)).unwrap()
        };
        let mut slots = vec![None; prog.num_slots()];
        slots[lr as usize] = Some(XValue::Nodes(vec![revs[0].clone()]));
        let resolved = prog.resolve(&doc);
        let scope = Scope {
            prog: &prog,
            doc: &doc,
            item: NodeRef::Node(doc.document_node()),
            position: 1,
            size: 1,
            slots: &slots,
            resolved: &resolved,
        };
        let v = eval(root, &scope).unwrap();
        assert_eq!(v.as_nodes().unwrap().len(), 2);
    }

    #[test]
    fn unbound_slot_errors_only_when_read() {
        let (doc, _) = parse_document(DOC).unwrap();
        let ctx = Context::root(&doc);
        let err = evaluate(&parse("$nope").unwrap(), &ctx).unwrap_err();
        assert_eq!(err, EvalError::UndefinedVariable("nope".to_string()));
        // …but a short-circuit that never reads the slot never errors.
        assert!(evaluate_exists(&parse("//track or $nope").unwrap(), &ctx).unwrap());
    }

    #[test]
    fn error_texts() {
        let (doc, _) = parse_document("<r/>").unwrap();
        for (src, text) in [
            ("count(1)", "count() of Num(1.0)"),
            ("1 | 2", "union of non-node-sets"),
            ("frob()", "unknown function frob()"),
            ("position(1)", "position() expects 0 argument(s), got 1"),
            ("concat('a')", "concat() expects at least 2 arguments"),
        ] {
            let err = evaluate(&parse(src).unwrap(), &Context::root(&doc)).unwrap_err();
            assert_eq!(err.to_string(), text, "error of {src}");
        }
    }

    #[test]
    fn existential_visit_counts() {
        let (doc, _) = parse_document(DOC).unwrap();
        for (src, visits) in [
            ("//sub", 15),
            ("//rev[name = 'Ann']/sub", 16),
            ("//zzz", 85),
            ("//auts/name/..", 24),
        ] {
            let ast = parse(src).unwrap();
            xic_obs::reset();
            let _ = evaluate_exists(&ast, &Context::root(&doc)).unwrap();
            assert_eq!(
                xic_obs::counter(xic_obs::Counter::XpathNodesVisited),
                visits,
                "existential visit count of {src}"
            );
        }
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let (doc, _) = parse_document(DOC).unwrap();
        let ast = parse("//sub/auts/name").unwrap();
        let guard = crate::budget::arm(crate::budget::EvalBudget::new(3));
        let err = evaluate_nodes(&ast, &Context::root(&doc)).unwrap_err();
        drop(guard);
        assert_eq!(err, EvalError::BudgetExhausted);
    }
}
