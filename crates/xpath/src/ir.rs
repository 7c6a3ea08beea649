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
//! **Keyed sequences.** A correlated value predicate inside a loop —
//! `for $R in … let $g := //rev[name/text() = $R]/sub` — makes a scan of
//! `//rev` per binding of `$R`. Where an absolute, slot-free path prefix
//! is followed by a step whose one predicate is `K = O` (or the nested
//! existential spelling `c[K = O]`) with `K` a slot-free path relative to
//! the step's candidates and `O` a path from a *loop-bound* slot (the
//! XQuery compiler says which slots those are), the compiler emits
//! [`Inst::Keyed`] beside the ordinary path: the prefix is materialized
//! once per evaluation into a [`KeyedSeq`] — its members hashed by the
//! string values of `K`'s steps applied to each member, the one rule the
//! XQuery joins build by too — and each evaluation of the step is a
//! probe with `O`'s value. That is a compile-time fact of
//! the program, not a mode. An evaluation whose table cannot be built
//! (the build raised), or whose `O` raises or is a number or boolean
//! (`=` is then not a string match), runs the ordinary path instead, so
//! values, order and errors are those of the scan.
//!
//! This is the only evaluator: the one-shot entry points in
//! [`crate::eval`] compile and run here, and the expected-value tests
//! there are its specification (short-circuit rules, document-order
//! normalization and the `sibling_safe` skip, `EvalBudget` charging and
//! `xic-obs` counters, error messages).
//!
//! **Paying per step, not per item.** A materialized step without
//! predicates pushes every input item's candidates that pass the node
//! test straight into the step's one result — a child step reads each
//! node's stored children — and charges the budget and
//! `XpathNodesVisited` once, with the candidates of all of them; a
//! predicated step still takes one item at a time, since a positional
//! predicate counts within one item's candidates. Normalization into
//! document order is skipped where the result is ordered by construction:
//! from one item, or through child, attribute or self from items at one
//! depth. Whether the items sit at one depth is carried from step to step
//! instead of re-derived by walking each of them to the root: a step from
//! one item through child, attribute, self or parent leaves its result at
//! one depth, and so does a step that skipped normalization. Only where
//! nothing is known — a caller's sequence, a tag's list, a probe's hits,
//! a normalized result — does the next flat step walk them (`same_depth`).
//! The existential walk (`path_exists_from`) streams one candidate at a
//! time instead.
//!
//! **The document's index.** Where the sequence is `//tag` and the key is
//! child name steps ending in `text()`, the site carries that
//! [`IndexShape`] and asks the document instead
//! ([`xic_xml::Document::members_keyed`], which builds the index the first
//! time): no table, no walk, the hits charged and — once — the members a
//! build walked. One probe pays then, so such a site is also planned when
//! `O` starts at a *parameter* slot, which takes one value per evaluation.
//! Any other `//tag` (no predicate on either step) from the document node
//! — a path, a keyed site's members, an existential walk — reads the
//! document's list of the tag ([`xic_xml::Document::elements_named`]),
//! charged its members: sorted into document order where it is
//! materialized, streamed as listed where only existence is asked.
//!
//! The hot existential path walk
//! (`path_exists_from`), whose recursion depth scales with the number
//! of location steps times the tree fan-out, runs on an explicit frame
//! stack instead of the call stack; fixed-depth structural recursion
//! (predicate expressions, operand trees) remains recursive. The
//! difftest oracle holds this file to the naive reference answer for
//! every generated query.

use crate::ast::{Axis, BinOp, Expr, NodeTest, PathStart, Step};
use crate::eval::{axis_iter, compare_values, dedupe_doc_order, same_depth, EvalError};
use crate::value::{NodeRef, XValue};
use std::cell::OnceCell;
use std::collections::HashMap;
use xic_xml::{Document, NodeId, NodeKind, Symbol};

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
    /// A path `/members[K = O]/rest` answered from the document's index
    /// or a [`KeyedSeq`]: see the module documentation.
    Keyed {
        /// This site's cell in the evaluation's [`KeyedCache`].
        site: u32,
        /// What to ask the document for, when `members` and `key` have an
        /// indexable shape; a site without one (`O` then starts at a
        /// loop-bound slot) builds a per-evaluation table.
        index: Option<IndexShape>,
        /// The same path as an ordinary [`Inst::Path`]: what this node
        /// means, and what runs when the probe cannot answer.
        scan: ExprId,
        /// The sequence `S`: the absolute, slot-free steps through the
        /// keyed one, its predicate dropped.
        members: Box<[IrStep]>,
        /// The key path `K`, relative to a member.
        key: Box<[IrStep]>,
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
) -> Option<(&'d [NodeId], &'s [IrStep])> {
    let (tag, rest) = leading_tag(steps)?;
    if !matches!(input, [NodeRef::Node(n)] if *n == scope.doc.document_node()) {
        return None;
    }
    let list = scope.resolved[tag as usize].map_or(&[][..], |sym| scope.doc.elements_named(sym));
    Some((list, rest))
}

/// The `shape` members that `=` pairs with `outer`, asked of the document
/// — in document order, one [`xic_obs::Counter::IndexProbe`] — or `None`
/// when `outer` is a number or boolean, for which `=` is not a comparison
/// of string values. The members a first ask made the document walk are
/// charged here, once, by [`KeyedSeq::build`]'s rule.
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

    /// An empty per-evaluation cache for this program's keyed sites.
    pub fn keyed_cache(&self) -> KeyedCache {
        KeyedCache((0..self.keyed_sites).map(|_| OnceCell::new()).collect())
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
    /// same nodes from an item whatever the slots hold — what a key must be
    /// to be [`KeyedSeq::build`]'s.
    pub fn slot_free(&self, steps: &[IrStep]) -> bool {
        !self.steps_read_slot(steps, &|_| true)
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
    /// Per slot: bound once per iteration of a loop (see
    /// [`Builder::fresh_loop_slot`]).
    loop_bound: Vec<bool>,
    /// Per slot: a caller-supplied parameter (see
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
        self.loop_bound.push(false);
        self.param.push(false);
        id
    }

    /// [`Builder::fresh_slot`] for a parameter of the whole program: one
    /// value per evaluation, so a path comparing against it is one probe
    /// — worth planning where the document's own index can answer it.
    pub fn fresh_param_slot(&mut self, name: &str) -> SlotId {
        let id = self.fresh_slot(name);
        self.param[id as usize] = true;
        id
    }

    /// [`Builder::fresh_slot`] for a binder that takes a new value per
    /// iteration (`for`, `some`, `every`): a path comparing against it is
    /// evaluated once per binding, which is what makes a keyed sequence
    /// pay. `let`s and free variables are neither loop-bound nor
    /// parameters.
    pub fn fresh_loop_slot(&mut self, name: &str) -> SlotId {
        let id = self.fresh_slot(name);
        self.loop_bound[id as usize] = true;
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
        for (i, step) in steps.iter().enumerate() {
            let keyed = match &*step.predicates {
                [pred] => self.key_of(*pred),
                _ => None,
            };
            if let Some((key, outer, looped)) = keyed {
                let mut members = steps[..=i].to_vec();
                members[i].predicates = Box::new([]);
                let index = IndexShape::of(&members, &key);
                if !looped && index.is_none() {
                    return path; // one probe per evaluation: only the document's index pays
                }
                let inst = Inst::Keyed {
                    site: self.prog.keyed_sites,
                    index,
                    scan: path,
                    members: members.into(),
                    key: key.into(),
                    outer,
                    rest: steps[i + 1..].into(),
                };
                self.prog.keyed_sites += 1;
                return self.push(inst);
            }
            if !self.prog.slot_free(std::slice::from_ref(step)) {
                return path; // the prefix must be the same sequence for every binding
            }
        }
        path
    }

    /// Reads a predicate as `K = O` — a slot-free path `K` from the
    /// context node compared for equality, in either order, with a path
    /// `O` from a loop-bound or parameter slot (the flag says which) —
    /// looking through the existential nesting `c[K = O]`, which tests
    /// the same thing with key `c/K`.
    fn key_of(&self, pred: ExprId) -> Option<(Vec<IrStep>, ExprId, bool)> {
        let inst = |e: ExprId| &self.prog.exprs[e as usize];
        match inst(pred) {
            Inst::Binary(a, BinOp::Eq, b) => {
                [(*a, *b), (*b, *a)].into_iter().find_map(|(k, o)| match (inst(k), inst(o)) {
                    (
                        Inst::Path { start: IrStart::Context, steps },
                        Inst::Path { start: IrStart::Slot(s), .. },
                    ) if (self.loop_bound[*s as usize] || self.param[*s as usize])
                        && self.prog.slot_free(steps) =>
                    {
                        Some((steps.to_vec(), o, self.loop_bound[*s as usize]))
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
                let (inner_key, outer, looped) = self.key_of(*inner)?;
                let mut key = init.to_vec();
                key.push(IrStep { predicates: Box::new([]), ..last.clone() });
                key.extend(inner_key);
                Some((key, outer, looped))
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

/// A keyed sequence: a node sequence `S` and, for a key path `K`, the map
/// string-value of a node of `K(member)` → positions of those members in
/// `S`, ascending. Built once, it answers `S[K = O]` — XPath's
/// existential `=` between `K(member)` and a string or node-set `O` — by
/// lookup instead of by evaluating `K` on every member again.
///
/// This is the per-evaluation table of a loop-bound site without an
/// [`IndexShape`]. Against the step budget the build is charged one step
/// per member on top of the walk that found them, and every probe its
/// hits; a probe of the document's own index ([`index_members`]) is
/// charged its hits, and the member count only if it built.
#[derive(Debug)]
pub struct KeyedSeq {
    members: Vec<NodeRef>,
    by_key: HashMap<String, Vec<u32>>,
}

impl KeyedSeq {
    /// Hashes `members` by the nodes the slot-free `key` steps select from
    /// each of them. Charges the step budget one step per member on top of
    /// what the steps charge.
    pub fn build(
        members: Vec<NodeRef>,
        key: &[IrStep],
        scope: &Scope,
    ) -> Result<KeyedSeq, EvalError> {
        visit(members.len() as u64)?;
        let mut by_key: HashMap<String, Vec<u32>> = HashMap::new();
        for (i, m) in members.iter().enumerate() {
            let i = u32::try_from(i).expect("sequence length fits u32");
            for k in key_nodes(m.clone(), key, scope)? {
                let value = k.str_value(scope.doc);
                match by_key.get_mut(&*value) {
                    Some(at) if at.last() == Some(&i) => {}
                    Some(at) => at.push(i),
                    None => {
                        by_key.insert(value.into_owned(), vec![i]);
                    }
                }
            }
        }
        Ok(KeyedSeq { members, by_key })
    }

    /// Positions, ascending, of the members `m` with `K(m) = outer`; or
    /// `None` when `outer` is a number or boolean, for which `=` is not a
    /// comparison of string values.
    pub fn probe(&self, outer: &XValue, doc: &Document) -> Option<Vec<u32>> {
        match outer {
            XValue::Str(s) => Some(self.by_key.get(s.as_str()).cloned().unwrap_or_default()),
            XValue::Nodes(ns) => {
                let mut hits: Vec<u32> = Vec::new();
                for n in ns {
                    hits.extend(self.by_key.get(&*n.str_value(doc)).into_iter().flatten());
                }
                hits.sort_unstable();
                hits.dedup();
                Some(hits)
            }
            XValue::Num(_) | XValue::Bool(_) => None,
        }
    }

    /// The member at position `i`.
    pub fn member(&self, i: u32) -> &NodeRef {
        &self.members[i as usize]
    }
}

/// The nodes the slot-free `key` steps select from `member`: the key a
/// [`KeyedSeq`] hashes the member by, and what a later join of an XQuery
/// probe tests the member's key against, charged as the steps charge.
pub fn key_nodes(
    member: NodeRef,
    key: &[IrStep],
    scope: &Scope,
) -> Result<Vec<NodeRef>, EvalError> {
    eval_steps(vec![member], key, scope)
}

/// The keyed sequences of one evaluation, one cell per [`Inst::Keyed`]
/// site ([`Program::keyed_cache`]). A cell holding `None` records that
/// the build raised, so the site scans for the rest of the evaluation.
#[derive(Debug)]
pub struct KeyedCache(Vec<OnceCell<Option<KeyedSeq>>>);

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
    /// The evaluation's keyed sequences.
    pub keyed: &'a KeyedCache,
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
            Ok(XValue::Nodes(walk(nodes, steps, scope)?))
        }
        Inst::Binary(a, op, b) => eval_binary(*a, *op, *b, scope),
        Inst::Call(op, args) => eval_call(op, args, scope),
        Inst::Keyed { scan, rest, .. } => match probe_site(scope.inst(id), scope)? {
            Some(hits) => Ok(XValue::Nodes(eval_steps(hits, rest, scope)?)),
            None => eval(*scan, scope),
        },
    }
}

/// The keyed step's result by probe — of the document's index where the
/// site has a shape for it, else of the evaluation's table, built by the
/// first probe that needs it — or `None` when this evaluation has to
/// scan (see the module documentation).
fn probe_site(keyed: &Inst, scope: &Scope) -> Result<Option<Vec<NodeRef>>, EvalError> {
    let Inst::Keyed { site, index, members, key, outer, .. } = keyed else {
        unreachable!("probe_site is called on keyed sites only");
    };
    let Ok(outer) = eval_operand(*outer, scope) else {
        return Ok(None);
    };
    if let Some(shape) = index {
        let Some(hits) = index_members(shape, &outer, scope.doc, scope.resolved)? else {
            return Ok(None);
        };
        visit(hits.len() as u64)?;
        return Ok(Some(hits.into_iter().map(NodeRef::Node).collect()));
    }
    let Some(keyed) = scope.keyed.0[*site as usize].get_or_init(|| {
        let root = vec![NodeRef::Node(scope.doc.document_node())];
        let seq = eval_steps(root, members, scope).ok()?;
        KeyedSeq::build(seq, key, scope).ok()
    }) else {
        return Ok(None);
    };
    let Some(hits) = keyed.probe(&outer, scope.doc) else {
        return Ok(None);
    };
    visit(hits.len() as u64)?;
    Ok(Some(hits.into_iter().map(|i| keyed.member(i).clone()).collect()))
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
    eval_steps(path_start_nodes(start, steps, scope)?, steps, scope)
}

/// `steps` applied to `input`, a leading `//tag` from the document node
/// read off the document's list of the tag.
fn eval_steps(
    input: Vec<NodeRef>,
    steps: &[IrStep],
    scope: &Scope,
) -> Result<Vec<NodeRef>, EvalError> {
    let Some((list, rest)) = listed(&input, steps, scope) else {
        return walk(input, steps, scope);
    };
    let mut hits = list.to_vec();
    visit(hits.len() as u64)?;
    scope.doc.sort_document_order(&mut hits);
    walk(hits.into_iter().map(NodeRef::Node).collect(), rest, scope)
}

/// `steps` applied to `cur` one after another, carrying from each step to
/// the next whether its items are known to sit at one depth. Nothing is
/// known of the items a walk starts from (a caller's sequence, a tag's
/// list, a probe's hits) until a step says so.
fn walk(mut cur: Vec<NodeRef>, steps: &[IrStep], scope: &Scope) -> Result<Vec<NodeRef>, EvalError> {
    let mut level = false;
    for step in steps {
        (cur, level) = eval_step(&cur, step, scope, level)?;
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
            iter: Box::new(list.iter().map(|&n| NodeRef::Node(n))),
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

/// One step over every item of `input`, and whether its result is known to
/// sit at one depth. `level` says that of `input`.
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
    // Normalization (document-order sort + dedup) is the dominant cost on
    // large documents; skip it when the result is ordered and duplicate-
    // free by construction: a single context node with a forward axis, or
    // doc-ordered non-nested inputs stepped through child/attribute/self
    // (disjoint result sets, concatenated in input order). Non-nesting is
    // guaranteed when all inputs sit at the same tree depth — the common
    // case for homogeneous steps like `$x/sub/auts`. A step from one node
    // through child, attribute, self or parent, or a skipped normalization,
    // leaves its result at one depth, so the next step knows without
    // walking every item up to the root (`same_depth`).
    let flat = matches!(step.axis, Axis::Child | Axis::Attribute | Axis::SelfAxis);
    if input.len() <= 1 {
        if step.axis.is_reverse() {
            // Reverse-axis results from one node: flip into document order
            // (already duplicate-free).
            merged.reverse();
        }
        return Ok((merged, flat || step.axis == Axis::Parent));
    }
    let sibling_safe = flat && (level || same_depth(scope.doc, input));
    if !sibling_safe {
        dedupe_doc_order(scope.doc, &mut merged);
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
            keyed: &prog.keyed_cache(),
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

    /// Compiles `src` with `$R` bound the way the XQuery compiler binds a
    /// `for` variable (`looped`) or a `let`.
    fn compile_with_r(src: &str, looped: bool) -> (Program, ExprId) {
        compile_binding_r(src, if looped { Builder::fresh_loop_slot } else { Builder::fresh_slot })
    }

    /// … or, with [`Builder::fresh_param_slot`], a program parameter.
    fn compile_binding_r(src: &str, bind: fn(&mut Builder, &str) -> SlotId) -> (Program, ExprId) {
        let mut b = Builder::new();
        let slot = bind(&mut b, "R");
        let root = b.add_expr(&parse(src).unwrap(), &|name| (name == "R").then_some(slot));
        (b.finish(), root)
    }

    /// Evaluates `id` with `$R` = `r` against `cache`; the rendered value
    /// and the nodes visited.
    fn eval_with_r(
        prog: &Program,
        id: ExprId,
        doc: &Document,
        r: XValue,
        cache: &KeyedCache,
    ) -> (String, u64) {
        let slots = [Some(r)];
        let scope = Scope {
            prog,
            doc,
            item: NodeRef::Node(doc.document_node()),
            position: 1,
            size: 1,
            slots: &slots,
            resolved: &prog.resolve(doc),
            keyed: cache,
        };
        xic_obs::reset();
        let value = match eval(id, &scope) {
            Ok(v) => render(doc, &v),
            Err(e) => format!("error: {e}"),
        };
        (value, xic_obs::counter(xic_obs::Counter::XpathNodesVisited))
    }

    #[test]
    fn keyed_steps_are_planned_for_loop_bound_comparisons_only() {
        for (src, looped, sites) in [
            ("//rev[name/text() = $R]/sub", true, 1),
            ("//rev[$R = name/text()]", true, 1),
            ("//track[rev[name/text() = $R]]", true, 1),
            ("//track[rev/sub[auts/name = $R/x]]/name", true, 1),
            ("/review/track[name = 'DB']/rev[name = $R]", true, 1),
            // A `let` takes one value per evaluation.
            ("//rev[name/text() = $R]/sub", false, 0),
            // Not a string-keyed equality of the candidate alone.
            ("//rev[name/text() != $R]", true, 0),
            ("//rev[name/text() = 'Ann']", true, 0),
            ("//rev[name/text() = $R][2]", true, 0),
            ("//rev[sub[title = $R]/auts]", true, 0),
            ("//rev[sub[1][title = $R]]", true, 0),
            ("//rev[name[. = $R]/text() = $R]", true, 0),
            ("//rev[count(sub) = $R]", true, 0),
            // Not an absolute, slot-free prefix.
            ("$R/rev[name = $R]", true, 0),
            ("//track[name = $R]/rev[name = $R]", true, 1),
            ("//track[$R]/rev[name = $R]", true, 0),
            ("name[. = $R]", true, 0),
        ] {
            let (prog, _) = compile_with_r(src, looped);
            assert_eq!(prog.keyed_sites, sites, "plan sites of {src} (looped: {looped})");
        }
        // The first keyed step wins; the one before it stays a scan.
        let (prog, root) = compile_with_r("//track[name = $R]/rev[name = $R]", true);
        let Inst::Keyed { members, rest, .. } = &prog.exprs[root as usize] else {
            panic!("{:?}", prog.exprs[root as usize]);
        };
        assert_eq!((members.len(), rest.len()), (2, 1));
    }

    /// The shape the site at `root` asks the document for, by name.
    fn asks_for(prog: &Program, root: ExprId) -> Option<(&str, Vec<&str>)> {
        let Inst::Keyed { index: Some(shape), .. } = &prog.exprs[root as usize] else {
            return None;
        };
        let name = |n: &NameId| prog.names[*n as usize].as_str();
        Some((name(&shape.tag), shape.path.iter().map(name).collect()))
    }

    /// A parameter takes one value per evaluation too, but the document's
    /// index answers one probe: such a site is planned exactly where it
    /// has the shape a document indexes.
    #[test]
    fn parameter_comparisons_are_planned_where_the_document_can_index_them() {
        for (src, shape) in [
            ("//rev[name/text() = $R]/sub", Some(("rev", vec!["name"]))),
            ("//track[rev[name/text() = $R/name/text()]]", Some(("track", vec!["rev", "name"]))),
            ("//name[$R = text()]", Some(("name", vec![]))),
            // Not `//tag`, or not child names down to a `text()`.
            ("/review/track[name/text() = $R]", None),
            ("//track/rev[name/text() = $R]", None),
            ("//*[name/text() = $R]", None),
            ("//rev[name = $R]", None),
            ("//rev[sub/auts/name/.. = $R]", None),
            ("//rev[sub[1]/title/text() = $R]", None),
            ("//rev[@id = $R]", None),
        ] {
            let (prog, root) = compile_binding_r(src, Builder::fresh_param_slot);
            assert_eq!(asks_for(&prog, root), shape, "{src}");
            assert_eq!(prog.keyed_sites, u32::from(shape.is_some()), "{src} as a parameter site");
            // Under a loop the same sites ask the document, and the others
            // are planned too: a table pays there.
            let (looped, root) = compile_with_r(src, true);
            assert_eq!(asks_for(&looped, root), shape, "{src}");
            assert_eq!(looped.keyed_sites, 1, "{src} under a loop");
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
        for bind in [Builder::fresh_loop_slot, Builder::fresh_param_slot] {
            let (prog, root) = compile_binding_r("//rev[name/text() = $R]/sub", bind);
            let fresh = doc.clone();
            // No walk to `//rev`, no key evaluation, no table: the first
            // probe of a document builds its index (the three revs), then
            // the two hits and the step from them (their 3 + 2 children).
            let (value, visits) = eval_with_r(&prog, root, &fresh, ann(), &prog.keyed_cache());
            assert_eq!((value.as_str(), visits), ("[sub1 sub2 sub4]", 3 + 2 + 5));
            assert_eq!(counters(), (1, 1));
            // The index is the document's: a later evaluation pays the
            // hits and nothing else.
            let (value, visits) = eval_with_r(&prog, root, &fresh, ann(), &prog.keyed_cache());
            assert_eq!((value.as_str(), visits), ("[sub1 sub2 sub4]", 2 + 5));
            assert_eq!(counters(), (1, 0));
            // A budget that cannot afford the build says so; the pass was
            // made all the same, and is not made again.
            let fresh = doc.clone();
            let guard = crate::budget::arm(crate::budget::EvalBudget::new(0));
            let (outcome, _) = eval_with_r(&prog, root, &fresh, ann(), &prog.keyed_cache());
            drop(guard);
            assert_eq!(outcome, "error: evaluation step budget exhausted");
            assert_eq!(counters(), (1, 1));
            assert_eq!(eval_with_r(&prog, root, &fresh, ann(), &prog.keyed_cache()).1, 2 + 5);
            assert_eq!(counters(), (1, 0));
        }
        // A name the document never interned is on no element: an empty
        // answer, and nothing built to find that out.
        let (prog, root) = compile_with_r("//rev[nickname/text() = $R]/sub", true);
        assert_eq!(eval_with_r(&prog, root, &doc, ann(), &prog.keyed_cache()), ("[]".into(), 0));
        assert_eq!(counters(), (1, 0));
        // Values, order and errors are the scan's, whatever `$R` holds.
        let names = evaluate_nodes(&parse("//rev/name/text()").unwrap(), &Context::root(&doc)).unwrap();
        let (prog, root) = compile_with_r("//track[rev[name/text() = $R]]/name", true);
        for r in [
            ann(),
            XValue::Str("nobody".into()),
            XValue::Nodes(names.iter().rev().cloned().collect()),
            XValue::Nodes(vec![]),
            XValue::Num(7.0),
            XValue::Bool(true),
        ] {
            let probed = eval_with_r(&prog, root, &doc, r.clone(), &prog.keyed_cache()).0;
            let Inst::Keyed { scan, .. } = prog.exprs[root as usize] else { panic!("not planned") };
            assert_eq!(probed, eval_with_r(&prog, scan, &doc, r.clone(), &prog.keyed_cache()).0, "{r:?}");
        }
    }

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
            "//track[rev[name/text() = $R]]",
            "//sub[auts/name = $R]",
            "/review/track[name = 'DB']/rev[name = $R]",
        ] {
            let (prog, root) = compile_with_r(src, true);
            let Inst::Keyed { scan, .. } = prog.exprs[root as usize] else {
                panic!("{src} is not planned");
            };
            let cache = prog.keyed_cache();
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
                let (probed, _) = eval_with_r(&prog, root, &doc, r.clone(), &cache);
                let (scanned, _) = eval_with_r(&prog, scan, &doc, r.clone(), &prog.keyed_cache());
                assert_eq!(probed, scanned, "{src} with $R = {r:?}");
            }
        }
        // A number is compared as a number, which no string table can do.
        let (numbers, _) = parse_document("<r><a><n>2.0</n></a><a><n>2</n></a><a><n>x</n></a></r>").unwrap();
        let (prog, root) = compile_with_r("//a[n = $R]", true);
        let cache = prog.keyed_cache();
        assert_eq!(eval_with_r(&prog, root, &numbers, XValue::Num(2.0), &cache).0, "[a1 a2]");
        assert_eq!(eval_with_r(&prog, root, &numbers, XValue::Str("2".into()), &cache).0, "[a2]");
    }

    #[test]
    fn the_table_is_built_once_per_evaluation() {
        let (doc, _) = parse_document(DOC).unwrap();
        // Keyed by an element's string value: not a shape a document
        // indexes, so the site keeps a table per evaluation.
        let (prog, root) = compile_with_r("//rev[name = $R]/sub", true);
        let Inst::Keyed { scan, index: None, .. } = prog.exprs[root as usize] else {
            panic!("not planned as a table");
        };
        let ann = || XValue::Str("Ann".into());
        let cache = prog.keyed_cache();
        // The scan walks the document to `//rev[…]` (85 visits: the 43
        // nodes from the root down, then the 42 children of them all) on
        // every call — a predicated step is no list read — evaluates
        // `name` on the three revs (their 7 children) and steps to `/sub`
        // from the two it keeps (3 + 2 children).
        let (_, scan_visits) = eval_with_r(&prog, scan, &doc, ann(), &prog.keyed_cache());
        assert_eq!(scan_visits, 85 + 7 + 5);
        // The first probe reads the members, `//rev`, off the document's
        // list (3) and evaluates their keys to build the table, is charged
        // one step per member, then one per hit.
        let (_, first) = eval_with_r(&prog, root, &doc, ann(), &cache);
        assert_eq!(first, 3 + 7 + 3 + 2 + 5);
        // Every later one is the hits and the step from them.
        let (value, second) = eval_with_r(&prog, root, &doc, ann(), &cache);
        assert_eq!(value, "[sub1 sub2 sub4]");
        assert_eq!(second, 2 + 5);
        // A fresh cache is a fresh evaluation.
        assert_eq!(eval_with_r(&prog, root, &doc, ann(), &prog.keyed_cache()).1, first);
    }

    #[test]
    fn a_budget_that_runs_out_during_the_build_is_reported() {
        let (doc, _) = parse_document(DOC).unwrap();
        let (prog, root) = compile_with_r("//rev[name = $R]/sub", true);
        let unbudgeted = eval_with_r(&prog, root, &doc, XValue::Str("Ann".into()), &prog.keyed_cache()).1;
        // Enough for the list of `//rev` and its keys, not for the table.
        let guard = crate::budget::arm(crate::budget::EvalBudget::new(unbudgeted - 10));
        let (outcome, _) = eval_with_r(&prog, root, &doc, XValue::Str("Ann".into()), &prog.keyed_cache());
        drop(guard);
        assert_eq!(outcome, "error: evaluation step budget exhausted");
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
        assert_ne!(doc.elements_named(rev), scan(&doc, "rev"), "the list is out of document order");

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
}
