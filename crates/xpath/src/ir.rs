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
//! **Keyed steps.** A correlated value predicate — `//rev[name/text() =
//! $R]/sub` with `$R` bound by a loop — makes a scan of `//rev` per
//! binding of `$R`. Where a path from the document node opens with
//! `//tag[K = O]` (or the nested existential spelling `//tag[c[K = O]]`),
//! `K` child name steps ending in `text()` and `O` a path from a slot the
//! XQuery compiler marks a parameter ([`Builder::fresh_param_slot`]: a
//! program parameter or a `for`/`some`/`every` binder), the compiler emits
//! [`Inst::Keyed`] beside the ordinary path. The site carries the
//! [`IndexShape`] `(tag, K)` and each evaluation of it asks the document
//! ([`xic_xml::Document::members_keyed`], which builds that index the first
//! time) for the members `O`'s value selects: no walk to `//tag`, no key
//! evaluated per member, the hits charged and — once — the members a build
//! walked. That is a compile-time fact of the program, not a mode; any other
//! shape is the scan. An evaluation whose `O` raises or is a number or
//! boolean (`=` is then not a string match) runs the ordinary path instead,
//! so values, order and errors are those of the scan.
//!
//! This is the only evaluator: the one-shot entry points in
//! [`crate::eval`] compile and run here, and the expected-value tests
//! there are its specification (short-circuit rules, document order and
//! the `sibling_safe` skip, `EvalBudget` charging and `xic-obs` counters,
//! error messages).
//!
//! **Order only where it is seen** (XQuery 1.0 §3.9). A node-set is a
//! duplicate-free set in no particular order: a step or union drops
//! duplicates by id ([`crate::eval::dedup_nodes`]). One compile-time bit
//! per instruction ([`Program::mark_order`]) says whether its consumer can
//! observe the order; only there is a set not already known to be in
//! order sorted, once, by [`xic_xml::Document::sort_document_order`].
//!
//! **Paying per step, not per item.** A materialized step without
//! predicates pushes every input item's candidates that pass the node
//! test straight into the step's one result — a child step reads each
//! node's stored children — and charges the budget and
//! `XpathNodesVisited` once, with the candidates of all of them; a
//! predicated step still takes one item at a time, since a positional
//! predicate counts within one item's candidates, which the axis yields in
//! its own order. The id dedup is skipped where the result is
//! duplicate-free by construction — from one item, or through child,
//! attribute or self from items at one depth — and such a step keeps its
//! input's order. Whether the items sit at one depth is carried from step
//! to step instead of re-derived by walking each of them to the root: a
//! step from one item through child, attribute, self or parent leaves its
//! result at one depth, and so does a step that skipped the dedup. Only
//! where nothing is known — a caller's sequence, a tag's list, a probe's
//! hits, a deduplicated result — does the next flat step walk them
//! (`same_depth`).
//! The existential walk (`path_exists_from`) streams one candidate at a
//! time instead.
//!
//! **Tag lists.** A `//tag` (no predicate on either step) from the
//! document node — a path, or an existential walk — reads the document's
//! list of the tag ([`xic_xml::Document::elements_named`]), charged its
//! members, in the list's order (ascending by id): sorted only where the
//! path's order is observed.
//!
//! The hot existential path walk
//! (`path_exists_from`), whose recursion depth scales with the number
//! of location steps times the tree fan-out, runs on an explicit frame
//! stack instead of the call stack; fixed-depth structural recursion
//! (predicate expressions, operand trees) remains recursive. The
//! difftest oracle holds this file to the naive reference answer for
//! every generated query.

use crate::ast::{Axis, BinOp, Expr, NodeTest, PathStart, Step};
use crate::eval::{axis_iter, compare_values, dedup_nodes, same_depth, EvalError};
use crate::value::{NodeRef, XValue};
use std::collections::HashMap;
use xic_xml::{Document, ListIter, NodeId, NodeKind, Symbol};

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
    /// A path `//tag[K = O]/rest` answered from the document's index:
    /// see the module documentation.
    Keyed {
        /// What to ask the document for: `tag` keyed by `K`.
        index: IndexShape,
        /// The same path as an ordinary [`Inst::Path`]: what this node
        /// means, and what runs when the probe cannot answer.
        scan: ExprId,
        /// The outer operand `O`.
        outer: ExprId,
        /// The steps after the keyed one.
        rest: Box<[IrStep]>,
    },
}

/// What a site asks [`xic_xml::Document::members_keyed`] for, over this
/// program's name pool: the members `//tag`, keyed by `path[0]/…/text()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexShape {
    /// The members' tag.
    pub tag: NameId,
    /// The child element steps between a member and its key text nodes.
    pub path: Box<[NameId]>,
}

impl IndexShape {
    /// The shape of `members[key = …]`, if `members` is `//tag` and `key`
    /// is predicate-free child name steps ending in `text()`.
    pub fn of(members: &[IrStep], key: &[IrStep]) -> Option<IndexShape> {
        let Some((tag, [])) = leading_tag(members) else {
            return None;
        };
        let (text, names) = key.split_last()?;
        if !(bare(text, Axis::Child) && text.test == IrTest::Text) {
            return None;
        }
        let path = names.iter().map(|s| match s.test {
            IrTest::Name(n) if bare(s, Axis::Child) => Some(n),
            _ => None,
        });
        Some(IndexShape { tag, path: path.collect::<Option<_>>()? })
    }
}

fn bare(step: &IrStep, axis: Axis) -> bool {
    step.axis == axis && step.predicates.is_empty()
}

/// The tag `steps` open with when they open with `//tag` —
/// `descendant-or-self::node()/child::tag`, neither step predicated — and
/// the steps after it. From the document node those two steps select
/// exactly the attached elements the document lists under the tag
/// ([`xic_xml::Document::elements_named`]).
fn leading_tag(steps: &[IrStep]) -> Option<(NameId, &[IrStep])> {
    let [all, tag, rest @ ..] = steps else {
        return None;
    };
    match tag.test {
        IrTest::Name(name)
            if bare(all, Axis::DescendantOrSelf)
                && all.test == IrTest::Node
                && bare(tag, Axis::Child) =>
        {
            Some((name, rest))
        }
        _ => None,
    }
}

/// `steps` applied to `input` as the document's list of a tag and the
/// steps after it, when `input` is the document node alone and `steps`
/// open with `//tag`. The list is ascending by id, not in document order;
/// a name the document never interned lists nothing.
fn listed<'d, 's>(
    input: &[NodeRef],
    steps: &'s [IrStep],
    scope: &Scope<'_, 'd, '_>,
) -> Option<(ListIter<'d, NodeId>, &'s [IrStep])> {
    let (tag, rest) = leading_tag(steps)?;
    if !matches!(input, [NodeRef::Node(n)] if *n == scope.doc.document_node()) {
        return None;
    }
    let list = scope.resolved[tag as usize].map_or_else(ListIter::default, |sym| scope.doc.elements_named(sym));
    Some((list, rest))
}

/// The `shape` members that `=` pairs with `outer`, asked of the document
/// — ascending by id, one [`xic_obs::Counter::IndexProbe`] — or `None`
/// when `outer` is a number or boolean, for which `=` is not a comparison
/// of string values. Against the step budget the members a first ask made
/// the document walk are charged here, once; the caller charges the hits.
pub fn index_members(
    shape: &IndexShape,
    outer: &XValue,
    doc: &Document,
    resolved: &[Option<Symbol>],
) -> Result<Option<Vec<NodeId>>, EvalError> {
    let path: Vec<_> = shape.path.iter().map(|&n| resolved[n as usize]).collect();
    let ask = |values: &mut dyn Iterator<Item = &str>| {
        doc.members_keyed(resolved[shape.tag as usize], &path, values)
    };
    let (hits, walked) = match outer {
        XValue::Str(s) => ask(&mut std::iter::once(s.as_str())),
        XValue::Nodes(ns) => {
            let values: Vec<_> = ns.iter().map(|n| n.str_value(doc)).collect();
            ask(&mut values.iter().map(|v| &**v))
        }
        XValue::Num(_) | XValue::Bool(_) => return Ok(None),
    };
    xic_obs::incr(xic_obs::Counter::IndexProbe);
    visit(walked as u64)?;
    Ok(Some(hits))
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
    /// Number of [`Inst::Keyed`] sites.
    pub keyed_sites: u32,
    /// Per expression: whether its consumer observes the order of the
    /// node-set it yields ([`Program::mark_order`]). Only node-set
    /// instructions — paths, filters, keyed steps, unions — read it.
    pub ordered: Vec<bool>,
    /// Per slot: whether an ordered path reads it, so that what a `let`
    /// binds there is put in document order.
    pub ordered_slots: Vec<bool>,
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

    /// True if evaluating `expr` can read a slot `is` accepts, anywhere
    /// in it (step predicates included). Slots are per binding site, so
    /// unlike a test on variable names this is exact under shadowing.
    pub fn reads_slot(&self, expr: ExprId, is: &dyn Fn(SlotId) -> bool) -> bool {
        let any = |ids: &[ExprId]| ids.iter().any(|&e| self.reads_slot(e, is));
        match &self.exprs[expr as usize] {
            Inst::Literal(_) | Inst::Number(_) => false,
            Inst::Neg(e) => self.reads_slot(*e, is),
            Inst::Path { start, steps } => {
                matches!(start, IrStart::Slot(s) if is(*s)) || self.steps_read_slot(steps, is)
            }
            Inst::Filter { primary, predicates, steps } => {
                self.reads_slot(*primary, is) || any(predicates) || self.steps_read_slot(steps, is)
            }
            Inst::Binary(a, _, b) => self.reads_slot(*a, is) || self.reads_slot(*b, is),
            Inst::Call(_, args) => any(args),
            Inst::Keyed { scan, .. } => self.reads_slot(*scan, is),
        }
    }

    fn steps_read_slot(&self, steps: &[IrStep], is: &dyn Fn(SlotId) -> bool) -> bool {
        steps.iter().any(|s| s.predicates.iter().any(|&p| self.reads_slot(p, is)))
    }

    /// True if no predicate of `steps` reads a slot: the steps select the
    /// same nodes from an item whatever the slots hold — what a key must be.
    pub fn slot_free(&self, steps: &[IrStep]) -> bool {
        !self.steps_read_slot(steps, &|_| true)
    }

    /// Sets the order bit of `id`, whose consumer observes the order of
    /// its value if `ordered`, and of everything under it, top down. A
    /// first-node conversion (arithmetic, `string`, `name` and the other
    /// functions of strings) and a positional filter observe their
    /// operand's order; `count`, `sum`, `not`, `boolean`, `and`, `or`,
    /// comparisons, unions and step predicates do not. A keyed step passes
    /// its bit to its scan, a filter without steps to its primary, a path
    /// to the slot it starts from.
    pub fn mark_order(&mut self, id: ExprId, ordered: bool) {
        self.ordered[id as usize] |= ordered;
        let mut next: Vec<(ExprId, bool)> = Vec::new();
        let predicates = |next: &mut Vec<(ExprId, bool)>, steps: &[IrStep]| {
            next.extend(steps.iter().flat_map(|s| s.predicates.iter().map(|&p| (p, false))));
        };
        let mut read_slot = None;
        match &self.exprs[id as usize] {
            Inst::Literal(_) | Inst::Number(_) => {}
            Inst::Neg(e) => next.push((*e, true)),
            Inst::Path { start, steps } => {
                if let IrStart::Slot(s) = start {
                    read_slot = Some(*s);
                }
                predicates(&mut next, steps);
            }
            Inst::Filter { primary, predicates: preds, steps } => {
                let positional = preds.iter().any(|&p| self.positional(p));
                next.push((*primary, positional || (ordered && steps.is_empty())));
                next.extend(preds.iter().map(|&p| (p, false)));
                predicates(&mut next, steps);
            }
            Inst::Binary(a, op, b) => {
                let first_node = is_arithmetic(*op);
                next.extend([(*a, first_node), (*b, first_node)]);
            }
            Inst::Call(op, args) => {
                let whole = matches!(op, FnOp::Count | FnOp::Sum | FnOp::Not | FnOp::Boolean);
                next.extend(args.iter().map(|&a| (a, !whole)));
            }
            Inst::Keyed { scan, outer, rest, .. } => {
                next.extend([(*scan, ordered), (*outer, false)]);
                predicates(&mut next, rest);
            }
        }
        if let (Some(s), true) = (read_slot, ordered) {
            self.ordered_slots[s as usize] = true;
        }
        for (e, bit) in next {
            self.mark_order(e, bit);
        }
    }

    /// Whether filter predicate `p` can select by position: it can yield a
    /// number (a bare variable may hold one), or it reads the position or
    /// size of the context it filters.
    fn positional(&self, p: ExprId) -> bool {
        let numeric = match &self.exprs[p as usize] {
            Inst::Number(_) | Inst::Neg(_) => true,
            Inst::Binary(_, op, _) => is_arithmetic(*op),
            Inst::Call(op, _) => matches!(
                op,
                FnOp::Count | FnOp::Sum | FnOp::Number | FnOp::StringLength | FnOp::Position | FnOp::Last
            ),
            Inst::Path { start: IrStart::Slot(_), steps } => steps.is_empty(),
            Inst::Filter { primary, predicates, steps } => {
                predicates.is_empty() && steps.is_empty() && self.positional(*primary)
            }
            Inst::Literal(_) | Inst::Path { .. } | Inst::Keyed { .. } => false,
        };
        numeric || self.reads_position(p)
    }

    /// Whether `e` reads `position()` or `last()` of the context it is
    /// evaluated in — not of a predicate nested in it, which has its own.
    fn reads_position(&self, e: ExprId) -> bool {
        match &self.exprs[e as usize] {
            Inst::Neg(e) | Inst::Filter { primary: e, .. } => self.reads_position(*e),
            Inst::Binary(a, _, b) => self.reads_position(*a) || self.reads_position(*b),
            Inst::Call(op, args) => {
                matches!(op, FnOp::Position | FnOp::Last) || args.iter().any(|&a| self.reads_position(a))
            }
            Inst::Literal(_) | Inst::Number(_) | Inst::Path { .. } | Inst::Keyed { .. } => false,
        }
    }
}

/// `+`, `-`, `*`, `div` or `mod`: converts its operands by their first node.
pub fn is_arithmetic(op: BinOp) -> bool {
    matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod)
}

/// Compiles one expression into a fresh single-rooted program whose
/// value is in document order. Free variables get never-bound slots that
/// raise `UndefinedVariable` when (and only when) the evaluator actually
/// reads them.
pub fn compile(expr: &Expr) -> (Program, ExprId) {
    let mut b = Builder::new();
    let root = b.add_expr(expr, &|_| None);
    let mut prog = b.finish();
    prog.mark_order(root, true);
    (prog, root)
}

/// Incremental program builder; the XQuery compiler drives one of these
/// across every embedded XPath leaf so they share a pool and slot table.
#[derive(Debug, Default)]
pub struct Builder {
    prog: Program,
    name_ids: HashMap<String, NameId>,
    /// Free variables (not resolved by any scope) share one slot per name.
    free_slots: HashMap<String, SlotId>,
    /// Per slot: a parameter a keyed step's `O` may read (see
    /// [`Builder::fresh_param_slot`]).
    param: Vec<bool>,
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
        self.prog.ordered_slots.push(false);
        self.param.push(false);
        id
    }

    /// [`Builder::fresh_slot`] for a parameter of what reads it: of the
    /// whole program, or of a loop body — a binder that takes a new value
    /// per iteration (`for`, `some`, `every`). A path comparing against it
    /// may be a keyed step. `let`s and free variables are not parameters.
    pub fn fresh_param_slot(&mut self, name: &str) -> SlotId {
        let id = self.fresh_slot(name);
        self.param[id as usize] = true;
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
        self.prog.ordered.push(false);
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
                let path = self.push(Inst::Path { start, steps });
                self.plan_keyed(path)
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

    /// Wraps the path just compiled in an [`Inst::Keyed`] if it has the
    /// planned shape (module documentation), else returns it unchanged.
    fn plan_keyed(&mut self, path: ExprId) -> ExprId {
        let Inst::Path { start: IrStart::Root, steps } = &self.prog.exprs[path as usize] else {
            return path;
        };
        let [all, keyed, rest @ ..] = &**steps else {
            return path;
        };
        let [pred] = &*keyed.predicates else {
            return path;
        };
        let Some((key, outer)) = self.key_of(*pred) else {
            return path;
        };
        let members = [all.clone(), IrStep { predicates: Box::new([]), ..keyed.clone() }];
        let Some(index) = IndexShape::of(&members, &key) else {
            return path;
        };
        let inst = Inst::Keyed { index, scan: path, outer, rest: rest.into() };
        self.prog.keyed_sites += 1;
        self.push(inst)
    }

    /// Reads a predicate as `K = O` — a slot-free path `K` from the
    /// context node compared for equality, in either order, with a path
    /// `O` from a parameter slot — looking through the existential nesting
    /// `c[K = O]`, which tests the same thing with key `c/K`.
    fn key_of(&self, pred: ExprId) -> Option<(Vec<IrStep>, ExprId)> {
        let inst = |e: ExprId| &self.prog.exprs[e as usize];
        match inst(pred) {
            Inst::Binary(a, BinOp::Eq, b) => {
                [(*a, *b), (*b, *a)].into_iter().find_map(|(k, o)| match (inst(k), inst(o)) {
                    (
                        Inst::Path { start: IrStart::Context, steps },
                        Inst::Path { start: IrStart::Slot(s), .. },
                    ) if self.param[*s as usize] && self.prog.slot_free(steps) => {
                        Some((steps.to_vec(), o))
                    }
                    _ => None,
                })
            }
            Inst::Path { start: IrStart::Context, steps } => {
                let (last, init) = steps.split_last()?;
                let [inner] = &*last.predicates else {
                    return None;
                };
                if !self.prog.slot_free(init) {
                    return None;
                }
                let (inner_key, outer) = self.key_of(*inner)?;
                let mut key = init.to_vec();
                key.push(IrStep { predicates: Box::new([]), ..last.clone() });
                key.extend(inner_key);
                Some((key, outer))
            }
            _ => None,
        }
    }

    /// The program so far.
    pub fn program(&self) -> &Program {
        &self.prog
    }

    /// Finalizes the program.
    pub fn finish(self) -> Program {
        self.prog
    }
}

/// The nodes the slot-free `key` steps select from `member`: what a later
/// join of an XQuery probe tests the member's key against, charged as the
/// steps charge.
pub fn key_nodes(
    member: NodeRef,
    key: &[IrStep],
    scope: &Scope,
) -> Result<Vec<NodeRef>, EvalError> {
    Ok(eval_steps(vec![member], key, scope)?.0)
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

/// Counts and charges `n` nodes considered.
fn visit(n: u64) -> Result<(), EvalError> {
    xic_obs::add(xic_obs::Counter::XpathNodesVisited, n);
    charge_budget(n)
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
        Inst::Path { start, steps } => Ok(XValue::Nodes(in_order(id, eval_path(*start, steps, scope)?, scope))),
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
            let known = nodes.len() <= 1 || scope.prog.ordered[*primary as usize];
            Ok(XValue::Nodes(in_order(id, walk(nodes, steps, scope, known)?, scope)))
        }
        Inst::Binary(a, BinOp::Union, b) => match (eval_operand(*a, scope)?, eval_operand(*b, scope)?) {
            (XValue::Nodes(mut x), XValue::Nodes(y)) => {
                x.extend(y);
                dedup_nodes(&mut x);
                Ok(XValue::Nodes(in_order(id, (x, false), scope)))
            }
            _ => Err(EvalError::Type("union of non-node-sets".to_string())),
        },
        Inst::Binary(a, op, b) => eval_binary(*a, *op, *b, scope),
        Inst::Call(op, args) => eval_call(op, args, scope),
        Inst::Keyed { index, scan, outer, rest } => match probe_site(index, *outer, scope)? {
            Some(hits) => {
                let known = hits.len() <= 1;
                Ok(XValue::Nodes(in_order(id, walk(hits, rest, scope, known)?, scope)))
            }
            None => eval(*scan, scope),
        },
    }
}

/// `nodes`, the value of node-set instruction `id`, put in document order
/// when its consumer observes the order (the instruction's bit, see
/// [`Program::mark_order`]) and `known` does not say it already is.
fn in_order(id: ExprId, (mut nodes, known): (Vec<NodeRef>, bool), scope: &Scope) -> Vec<NodeRef> {
    if !known && scope.prog.ordered[id as usize] {
        scope.doc.sort_document_order(&mut nodes, NodeRef::anchor);
    }
    nodes
}

/// The members the keyed step selects, asked of the document's index —
/// ascending by id — or `None` when this evaluation has to scan (see the
/// module documentation).
fn probe_site(
    index: &IndexShape,
    outer: ExprId,
    scope: &Scope,
) -> Result<Option<Vec<NodeRef>>, EvalError> {
    let Ok(outer) = eval_operand(outer, scope) else {
        return Ok(None);
    };
    let Some(hits) = index_members(index, &outer, scope.doc, scope.resolved)? else {
        return Ok(None);
    };
    visit(hits.len() as u64)?;
    Ok(Some(hits.into_iter().map(NodeRef::Node).collect()))
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
        return Ok(XValue::Nodes(in_order(id, eval_path(*start, steps, scope)?, scope)));
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

/// A path's nodes, and whether they are known to be in document order.
/// The items a slot holds are taken to be: what a `let` binds where an
/// ordered path reads it is put in order ([`Program::ordered_slots`]).
fn eval_path(start: IrStart, steps: &[IrStep], scope: &Scope) -> Result<(Vec<NodeRef>, bool), EvalError> {
    eval_steps(path_start_nodes(start, steps, scope)?, steps, scope)
}

/// `steps` applied to `input`, a leading `//tag` from the document node
/// read off the document's list of the tag (ascending by id, not in
/// document order).
fn eval_steps(
    input: Vec<NodeRef>,
    steps: &[IrStep],
    scope: &Scope,
) -> Result<(Vec<NodeRef>, bool), EvalError> {
    let Some((list, rest)) = listed(&input, steps, scope) else {
        return walk(input, steps, scope, true);
    };
    let hits: Vec<NodeRef> = list.map(NodeRef::Node).collect();
    visit(hits.len() as u64)?;
    let known = hits.len() <= 1;
    walk(hits, rest, scope, known)
}

/// `steps` applied to `cur` one after another, carrying from each step to
/// the next whether its items are known to sit at one depth, and whether
/// they are still known to be in document order (`known`, of `cur` at the
/// start). Nothing is known of the depths of the items a walk starts from
/// (a caller's sequence, a tag's list, a probe's hits) until a step says
/// so.
fn walk(
    mut cur: Vec<NodeRef>,
    steps: &[IrStep],
    scope: &Scope,
    mut known: bool,
) -> Result<(Vec<NodeRef>, bool), EvalError> {
    let mut level = false;
    for step in steps {
        let one = cur.len() <= 1;
        (cur, level) = eval_step(&cur, step, scope, level)?;
        // A step from one item, or one that skipped the dedup, kept the order.
        known &= one || level;
    }
    Ok((cur, known))
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
/// candidate list) and continue existentially from it. A `//tag` from the
/// document node streams the document's list of the tag instead, in id
/// order: existence does not depend on the order, so nothing is sorted.
pub(crate) fn path_exists_from(
    input: &[NodeRef],
    steps: &[IrStep],
    scope: &Scope,
) -> Result<bool, EvalError> {
    if steps.is_empty() {
        return Ok(!input.is_empty());
    }
    let first = match listed(input, steps, scope) {
        Some((list, rest)) => Frame::Axis {
            depth: steps.len() - rest.len(),
            iter: Box::new(list.map(NodeRef::Node)),
        },
        None => Frame::Ready {
            depth: 0,
            iter: Vec::from(input).into_iter(),
        },
    };
    let mut stack: Vec<Frame> = vec![first];
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

/// Applies one step to a *single* context item: axis traversal and node
/// test, then predicates over the per-item candidate list, so positional
/// predicates count within one input item's candidates.
fn step_once(item: &NodeRef, step: &IrStep, scope: &Scope) -> Result<Vec<NodeRef>, EvalError> {
    let mut tested = stream_step(std::slice::from_ref(item), step, scope)?;
    for &pred in step.predicates.iter() {
        tested = apply_predicate(&tested, pred, scope, step.axis.is_reverse())?;
    }
    Ok(tested)
}

/// `step`'s axis and node test, its predicates left to the caller, over
/// every item of `input`: each item's candidates that pass the test,
/// pushed in input order into one result, and charged once. A child step
/// reads each node's children as they are stored.
fn stream_step(input: &[NodeRef], step: &IrStep, scope: &Scope) -> Result<Vec<NodeRef>, EvalError> {
    let mut out = Vec::new();
    let mut visited = 0u64;
    for item in input {
        match (item, step.axis) {
            (NodeRef::Node(n), Axis::Child) => {
                let children = &scope.doc.node(*n).children;
                visited += children.len() as u64;
                let tested = children.iter().map(|&c| NodeRef::Node(c));
                out.extend(tested.filter(|c| node_test(scope, c, &step.test)));
            }
            _ => {
                for c in axis_iter(scope.doc, item, step.axis) {
                    visited += 1;
                    if node_test(scope, &c, &step.test) {
                        out.push(c);
                    }
                }
            }
        }
    }
    visit(visited)?;
    Ok(out)
}

/// One step over every item of `input`: its result, duplicate-free, and
/// whether it is known to sit at one depth. `level` says that of `input`.
fn eval_step(
    input: &[NodeRef],
    step: &IrStep,
    scope: &Scope,
    level: bool,
) -> Result<(Vec<NodeRef>, bool), EvalError> {
    let mut merged = if step.predicates.is_empty() {
        stream_step(input, step, scope)?
    } else {
        // A positional predicate counts within one item's candidates.
        let mut merged = Vec::new();
        for item in input {
            merged.extend(step_once(item, step, scope)?);
        }
        merged
    };
    // Skip the id dedup where the result is duplicate-free by
    // construction — a single context node, or non-nested inputs stepped
    // through child/attribute/self (disjoint result sets, concatenated in
    // input order, so the input's order is kept too). Non-nesting is
    // guaranteed when all inputs sit at the same tree depth — the common
    // case for homogeneous steps like `$x/sub/auts`. A step from one node
    // through child, attribute, self or parent, or a skipped dedup, leaves
    // its result at one depth, so the next step knows without walking
    // every item up to the root (`same_depth`).
    let flat = matches!(step.axis, Axis::Child | Axis::Attribute | Axis::SelfAxis);
    if input.len() <= 1 {
        if step.axis.is_reverse() {
            // Reverse-axis results from one node: flip into document order.
            merged.reverse();
        }
        return Ok((merged, flat || step.axis == Axis::Parent));
    }
    let sibling_safe = flat && (level || same_depth(scope.doc, input));
    if !sibling_safe {
        dedup_nodes(&mut merged);
    }
    Ok((merged, sibling_safe))
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
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            Ok(XValue::Bool(compare_values(&va, op, &vb, scope.doc)))
        }
        BinOp::Or | BinOp::And | BinOp::Union => unreachable!("handled by the caller"),
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
            // `//tag` streams the document's list: the first sub is a witness…
            ("//sub", 1),
            // …and a name no element carries is no list at all.
            ("//zzz", 0),
            ("//auts/name/..", 3),
            // A walk stops at its first witness, or considers every node.
            ("/review//sub", 14),
            ("/review//zzz", 84),
            ("//rev[name = 'Ann']/sub", 16),
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

    /// Compiles `src`, its value in document order, with `$R` bound the way
    /// the XQuery compiler binds a parameter or a `for` variable (`param`),
    /// or a `let`.
    fn compile_with_r(src: &str, param: bool) -> (Program, ExprId) {
        let mut b = Builder::new();
        let slot = if param { b.fresh_param_slot("R") } else { b.fresh_slot("R") };
        let root = b.add_expr(&parse(src).unwrap(), &|name| (name == "R").then_some(slot));
        let mut prog = b.finish();
        prog.mark_order(root, true);
        (prog, root)
    }

    /// Evaluates `id` with `$R` = `r`; the rendered value and the nodes
    /// visited.
    fn eval_with_r(prog: &Program, id: ExprId, doc: &Document, r: XValue) -> (String, u64) {
        let slots = [Some(r)];
        let scope = Scope {
            prog,
            doc,
            item: NodeRef::Node(doc.document_node()),
            position: 1,
            size: 1,
            slots: &slots,
            resolved: &prog.resolve(doc),
        };
        xic_obs::reset();
        let value = match eval(id, &scope) {
            Ok(v) => render(doc, &v),
            Err(e) => format!("error: {e}"),
        };
        (value, xic_obs::counter(xic_obs::Counter::XpathNodesVisited))
    }

    /// The shape the site at `root` asks the document for, by name.
    fn asks_for(prog: &Program, root: ExprId) -> Option<(&str, Vec<&str>)> {
        let Inst::Keyed { index, .. } = &prog.exprs[root as usize] else {
            return None;
        };
        let name = |n: &NameId| prog.names[*n as usize].as_str();
        Some((name(&index.tag), index.path.iter().map(name).collect()))
    }

    /// A site is planned exactly where `O` reads a parameter and the site
    /// has the shape a document indexes; every other path is the scan.
    #[test]
    fn keyed_steps_are_planned_at_the_documents_shapes_only() {
        for (src, shape) in [
            ("//rev[name/text() = $R]/sub", Some(("rev", vec!["name"]))),
            ("//rev[$R = name/text()]", Some(("rev", vec!["name"]))),
            ("//track[rev[name/text() = $R/name/text()]]", Some(("track", vec!["rev", "name"]))),
            ("//name[$R = text()]", Some(("name", vec![]))),
            // Not `//tag`, or not child names down to a `text()`.
            ("/review/track[name/text() = $R]", None),
            ("//track/rev[name/text() = $R]", None),
            ("/review/track[name = 'DB']/rev[name/text() = $R]", None),
            ("//*[name/text() = $R]", None),
            ("//rev[name = $R]", None),
            ("//track[rev/sub[auts/name = $R/x]]/name", None),
            ("//rev[sub/auts/name/.. = $R]", None),
            ("//rev[sub[1]/title/text() = $R]", None),
            ("//rev[@id = $R]", None),
            // Not a string-keyed equality of the candidate alone.
            ("//rev[name/text() != $R]", None),
            ("//rev[name/text() = 'Ann']", None),
            ("//rev[name/text() = $R][2]", None),
            ("//rev[sub[title/text() = $R]/auts]", None),
            ("//rev[sub[1][title/text() = $R]]", None),
            ("//rev[name[. = $R]/text() = $R]", None),
            ("//rev[count(sub) = $R]", None),
            // Not from the document node, or not slot-free before the key.
            ("$R/rev[name/text() = $R]", None),
            ("name[text() = $R]", None),
            ("//track[$R]/rev[name/text() = $R]", None),
        ] {
            let (prog, root) = compile_with_r(src, true);
            assert_eq!(asks_for(&prog, root), shape, "{src}");
            assert_eq!(prog.keyed_sites, u32::from(shape.is_some()), "plan sites of {src}");
            // A `let` is not a parameter.
            assert_eq!(compile_with_r(src, false).0.keyed_sites, 0, "{src} under a let");
        }
    }

    #[test]
    fn the_documents_index_answers_a_probe_with_its_hits_and_whatever_it_built() {
        let (doc, _) = parse_document(DOC).unwrap();
        let counters = || {
            let c = xic_obs::counter;
            (c(xic_obs::Counter::IndexProbe), c(xic_obs::Counter::IndexBuild))
        };
        let ann = || XValue::Str("Ann".into());
        let (prog, root) = compile_with_r("//rev[name/text() = $R]/sub", true);
        let fresh = doc.clone();
        // No walk to `//rev`, no key evaluation: the first probe of a
        // document builds its index (the three revs), then the two hits and
        // the step from them (their 3 + 2 children).
        let (value, visits) = eval_with_r(&prog, root, &fresh, ann());
        assert_eq!((value.as_str(), visits), ("[sub1 sub2 sub4]", 3 + 2 + 5));
        assert_eq!(counters(), (1, 1));
        // The index is the document's: a later evaluation pays the hits and
        // nothing else.
        let (value, visits) = eval_with_r(&prog, root, &fresh, ann());
        assert_eq!((value.as_str(), visits), ("[sub1 sub2 sub4]", 2 + 5));
        assert_eq!(counters(), (1, 0));
        // A budget that cannot afford the build, or can afford it but not
        // what follows, says so; the pass was made all the same, and is not
        // made again.
        for allowance in [0, 2, 3 + 2 + 4] {
            let fresh = doc.clone();
            let guard = crate::budget::arm(crate::budget::EvalBudget::new(allowance));
            let (outcome, _) = eval_with_r(&prog, root, &fresh, ann());
            drop(guard);
            assert_eq!(outcome, "error: evaluation step budget exhausted", "allowance {allowance}");
            assert_eq!(counters(), (1, 1));
            assert_eq!(eval_with_r(&prog, root, &fresh, ann()).1, 2 + 5);
            assert_eq!(counters(), (1, 0));
        }
        // A name the document never interned is on no element: an empty
        // answer, and nothing built to find that out.
        let (prog, root) = compile_with_r("//rev[nickname/text() = $R]/sub", true);
        assert_eq!(eval_with_r(&prog, root, &doc, ann()), ("[]".into(), 0));
        assert_eq!(counters(), (1, 0));
    }

    /// Values, order and errors are the scan's, whatever `$R` holds: an `O`
    /// that raises or is a number or boolean makes the site scan.
    #[test]
    fn a_probe_answers_what_the_scan_answers() {
        let (doc, _) = parse_document(DOC).unwrap();
        let name = |k: usize| {
            let ns = evaluate_nodes(&parse("//rev/name/text()").unwrap(), &Context::root(&doc));
            XValue::Nodes(vec![ns.unwrap()[k].clone()])
        };
        for src in [
            "//rev[name/text() = $R]/sub",
            "//rev[$R = name/text()]/sub/title",
            "//track[rev[name/text() = $R]]/name",
            "//sub[auts/name/text() = $R]",
            // `O` raises on a string, where the scan raises too…
            "//track[rev[name/text() = $R/name/text()]]",
            // …except that the scan never evaluates it over no member.
            "//zzz[name/text() = $R/name/text()]",
        ] {
            let (prog, root) = compile_with_r(src, true);
            let Inst::Keyed { scan, .. } = prog.exprs[root as usize] else {
                panic!("{src} is not planned");
            };
            for r in [
                XValue::Str("Ann".into()),
                XValue::Str("Dan".into()),
                XValue::Str("nobody".into()),
                XValue::Str(String::new()),
                name(1),
                XValue::Nodes(vec![]),
                // Both revs, in reverse document order and twice.
                XValue::Nodes([name(1), name(0), name(1)].iter().flat_map(|v| v.as_nodes().unwrap().to_vec()).collect()),
                // `=` against these is not a string match: the site scans.
                XValue::Num(7.0),
                XValue::Bool(true),
                XValue::Bool(false),
            ] {
                let (probed, _) = eval_with_r(&prog, root, &doc, r.clone());
                let (scanned, _) = eval_with_r(&prog, scan, &doc, r.clone());
                assert_eq!(probed, scanned, "{src} with $R = {r:?}");
            }
        }
        // A number is compared as a number, which no index of strings can do.
        let (numbers, _) = parse_document("<r><a><n>2.0</n></a><a><n>2</n></a><a><n>x</n></a></r>").unwrap();
        let (prog, root) = compile_with_r("//a[n/text() = $R]", true);
        assert!(asks_for(&prog, root).is_some());
        assert_eq!(eval_with_r(&prog, root, &numbers, XValue::Num(2.0)).0, "[a1 a2]");
        assert_eq!(eval_with_r(&prog, root, &numbers, XValue::Str("2".into())).0, "[a2]");
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

    /// `//tag` reads the document's list of the tag, which an insert-before
    /// leaves out of document order, a rename moves an element between and
    /// a removal takes a subtree off: every answer is a `descendants`
    /// scan's, in its order — the steps after the list's too — and an
    /// allowance of nothing runs out as the walk (`//tag[true()]`, a
    /// predicated step) runs out.
    #[test]
    fn a_tag_list_answers_what_a_scan_answers_on_an_edited_tree() {
        let (mut doc, _) = parse_document(DOC).unwrap();
        let scan = |doc: &Document, tag: &str| -> Vec<NodeId> {
            doc.descendants(doc.document_node()).filter(|&n| doc.name(n) == Some(tag)).collect()
        };
        let (track, revs, subs) = (scan(&doc, "track")[0], scan(&doc, "rev"), scan(&doc, "sub"));
        let (new_rev, name, zed, sub) = (
            doc.create_element("rev"),
            doc.create_element("name"),
            doc.create_text("Zed"),
            doc.create_element("sub"),
        );
        doc.append_child(name, zed);
        doc.append_child(new_rev, name);
        doc.append_child(new_rev, sub);
        doc.insert_child(track, 1, new_rev);
        doc.rename(subs[0], "rev");
        doc.detach(revs[1]);
        let rev = doc.symbols().lookup("rev").unwrap();
        assert_ne!(doc.elements_named(rev).collect::<Vec<_>>(), scan(&doc, "rev"), "the list is out of document order");

        let ctx = Context::root(&doc);
        let ids = |v: XValue| -> Vec<NodeId> {
            v.as_nodes().unwrap().iter().map(|n| match n {
                NodeRef::Node(id) => *id,
                NodeRef::Attr { .. } => panic!("an attribute"),
            }).collect()
        };
        let under = |n: NodeId, tag: &str| doc.node(n).parent.filter(|&p| doc.name(p) == Some(tag));
        for tag in ["rev", "sub", "name", "track", "review"] {
            let texts: Vec<NodeId> = doc
                .descendants(doc.document_node())
                .filter(|&t| matches!(doc.node(t).kind, NodeKind::Text(_)))
                .filter(|&t| under(t, "name").and_then(|name| under(name, tag)).is_some())
                .collect();
            let elements = scan(&doc, tag);
            for (list, walk, expected) in [
                (format!("//{tag}"), format!("//{tag}[true()]"), &elements),
                (format!("//{tag}/name/text()"), format!("//{tag}[true()]/name/text()"), &texts),
            ] {
                let (list, walk) = (parse(&list).unwrap(), parse(&walk).unwrap());
                assert_eq!(&ids(evaluate(&list, &ctx).unwrap()), expected, "{list:?}");
                assert_eq!(&ids(evaluate(&walk, &ctx).unwrap()), expected, "{walk:?}");
                let exists = evaluate_exists(&list, &ctx).unwrap();
                assert_eq!(exists, !expected.is_empty(), "{list:?} exists");
                let guard = crate::budget::arm(crate::budget::EvalBudget::new(0));
                for e in [&list, &walk] {
                    assert_eq!(evaluate(e, &ctx), Err(EvalError::BudgetExhausted), "{e:?}");
                    assert_eq!(evaluate_exists(e, &ctx), Err(EvalError::BudgetExhausted), "{e:?}");
                }
                drop(guard);
            }
            let count = evaluate(&parse(&format!("count(//{tag})")).unwrap(), &ctx).unwrap();
            assert_eq!(count, XValue::Num(elements.len() as f64), "count(//{tag})");
        }
        // The steps after a list carry what they know of their items'
        // depth from one to the next: child steps over many items, items
        // at many depths, nested items, a parent step over many items.
        let texts_under = |path: &[&str]| -> Vec<NodeId> {
            doc.descendants(doc.document_node())
                .filter(|&t| matches!(doc.node(t).kind, NodeKind::Text(_)))
                .filter(|&t| path.iter().rev().try_fold(t, |n, tag| under(n, tag)).is_some())
                .collect()
        };
        let beside_auts = |t: &NodeId| {
            let parent = doc.node(*t).parent.expect("attached");
            doc.node(parent).children.iter().any(|&c| doc.name(c) == Some("auts"))
        };
        for (src, expected) in [
            ("//track/rev/sub/auts/name/text()", texts_under(&["track", "rev", "sub", "auts", "name"])),
            ("//name/text()", texts_under(&["name"])),
            ("/review//*/name/text()", texts_under(&["name"])),
            ("//auts/../title", scan(&doc, "title").into_iter().filter(beside_auts).collect()),
        ] {
            assert!(!expected.is_empty(), "{src}");
            let e = parse(src).unwrap();
            assert_eq!(ids(evaluate(&e, &ctx).unwrap()), expected, "{src}");
            assert!(evaluate_exists(&e, &ctx).unwrap(), "{src} exists");
            let guard = crate::budget::arm(crate::budget::EvalBudget::new(0));
            assert_eq!(evaluate(&e, &ctx), Err(EvalError::BudgetExhausted), "{src}");
            assert_eq!(evaluate_exists(&e, &ctx), Err(EvalError::BudgetExhausted), "{src}");
            drop(guard);
        }
        // A name no element ever carried is no list: nothing to read.
        let guard = crate::budget::arm(crate::budget::EvalBudget::new(0));
        assert_eq!(evaluate(&parse("//zzz/name").unwrap(), &ctx), Ok(XValue::Nodes(vec![])));
        drop(guard);
    }

    /// A path's order bit follows what reads it: the value, a first-node
    /// conversion and a positional filter observe order; `count`, `sum`,
    /// `not`, a comparison, a union's operands and a filter that cannot
    /// select by position do not.
    #[test]
    fn only_a_consumer_that_sees_order_marks_a_path_ordered() {
        for (src, ordered) in [
            ("//rev", true),
            ("//rev | //sub", false),
            ("count(//rev)", false),
            ("sum(//rev)", false),
            ("not(//rev)", false),
            ("//rev = 'Ann'", false),
            ("string(//rev)", true),
            ("name(//rev)", true),
            ("//rev + 1", true),
            ("count((//rev)[2])", true),
            ("count((//rev)[position() = last()])", true),
            ("count((//rev)[name])", false),
            ("count(//track[rev[1]])", false),
        ] {
            let (prog, _) = compile(&parse(src).unwrap());
            let path = prog.exprs.iter().position(|i| matches!(i, Inst::Path { start: IrStart::Root, .. }));
            assert_eq!(prog.ordered[path.unwrap()], ordered, "{src}");
        }
    }

    /// After a non-tail insert the list of `rev`s is out of document order:
    /// a set only a count reads is never sorted, and a first-node
    /// conversion reads the first node in document order, after one sort.
    #[test]
    fn a_set_is_sorted_only_where_its_order_is_read() {
        let (mut doc, _) = parse_document(DOC).unwrap();
        let track = doc.root_element().and_then(|r| doc.element_children(r).first().copied()).unwrap();
        let (rev, name, zed) = (doc.create_element("rev"), doc.create_element("name"), doc.create_text("Zed"));
        doc.append_child(name, zed);
        doc.append_child(rev, name);
        doc.insert_child(track, 1, rev);
        let ctx = Context::root(&doc);
        let run = |src: &str| {
            xic_obs::reset();
            let v = evaluate(&parse(src).unwrap(), &ctx).unwrap();
            (render(&doc, &v), xic_obs::counter(xic_obs::Counter::DocOrderSort))
        };
        assert_eq!(run("count(//rev/name)"), ("4".to_string(), 0));
        assert_eq!(run("//rev/name/text() = 'Zed'"), ("true".to_string(), 0));
        assert_eq!(run("string(//rev/name)"), ("\"Zed\"".to_string(), 1));
        assert_eq!(run("(//rev)[1]/name/text()"), ("[name2/text()]".to_string(), 1));
    }
}
