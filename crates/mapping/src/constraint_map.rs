//! XPathLog → Datalog compilation (Section 4.2).
//!
//! Path expressions "generate chains of conditions over the predicates
//! corresponding to the node types traversed": each step onto a predicate
//! element emits an atom whose third argument (parent id) joins with the
//! enclosing element's first argument (id); steps onto compacted PCDATA
//! children resolve to the container atom's value column.

use crate::schema::RelSchema;
use std::collections::{HashMap, HashSet};
use std::fmt;
use xic_datalog::{Aggregate, Atom, Denial, Literal, Term, Var};
use xic_simplify::{reduce, Reduced};
use xic_xml::Dtd;
use xic_xpathlog::{
    normalize, AggFunc, LDenial, LFormula, LOperand, LPath, LStart, LStep, LTest, NormalDenial,
};

/// Constraint mapping failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// A comparison or negation uses a variable never bound by a path.
    UnboundVar(String),
    /// A variable is named like the mapping's own variables (it starts
    /// with `_` or contains `__`), which it could capture.
    ReservedVar(String),
    /// The construct has no sound relational translation under this
    /// schema.
    Unsupported(String),
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::UnboundVar(v) => write!(f, "variable {v} is never bound by a path"),
            MapError::ReservedVar(v) => write!(
                f,
                "variable {v} is reserved: names starting with _ or containing __ are the mapping's"
            ),
            MapError::Unsupported(m) => write!(f, "unsupported construct: {m}"),
        }
    }
}

impl std::error::Error for MapError {}

/// Maps a list of XPathLog denials to Datalog denials (normalizing
/// disjunctions away first, then reducing each result). Trivially
/// satisfied denials are dropped.
pub fn map_denials(
    denials: &[LDenial],
    schema: &RelSchema,
    dtd: &Dtd,
) -> Result<Vec<Denial>, MapError> {
    let mut out = Vec::new();
    for d in denials {
        for nd in normalize(d) {
            if let Some(mapped) = map_constraint(&nd, schema, dtd)? {
                out.push(mapped);
            }
        }
    }
    Ok(out)
}

/// Maps one disjunction-free denial. Returns `None` when the body reduces
/// to an unsatisfiable condition (the denial always holds).
pub fn map_constraint(
    nd: &NormalDenial,
    schema: &RelSchema,
    dtd: &Dtd,
) -> Result<Option<Denial>, MapError> {
    let mut m = Mapper {
        schema,
        dtd,
        gen: 0,
        env: HashMap::new(),
        placeholders: HashSet::new(),
        literals: Vec::new(),
    };
    // Binding-producing conjuncts first (conjunction is commutative), so
    // comparisons and negations see every variable.
    let (paths, aggs, comps, nots) = partition(nd)?;
    for p in &paths {
        m.formula(p, &Ctx::Unanchored)?;
    }
    for a in &aggs {
        m.formula(a, &Ctx::Unanchored)?;
    }
    for c in &comps {
        m.formula(c, &Ctx::Unanchored)?;
    }
    for n in &nots {
        m.formula(n, &Ctx::Unanchored)?;
    }
    let placeholders = m.placeholders.clone();
    match reduce(Denial::new(m.literals)) {
        Reduced::Denial(d) => Ok(Some(prune_implied_atoms(d, &placeholders, schema, dtd))),
        Reduced::TriviallySatisfied => Ok(None),
    }
}

/// Drops atoms whose existence is implied by their children's atoms — the
/// paper's Example 3 omits the `pub` atom because an `aut`'s parent is
/// always a `pub`. An atom `p(I, P, Par, C…)` is removable when `P`,
/// `Par` and every `C` are placeholders used nowhere else, and every other
/// occurrence of `I` is the parent column of an atom whose element can
/// only occur inside `p` according to the DTD (and there is at least one
/// such child atom).
fn prune_implied_atoms(
    denial: Denial,
    placeholders: &HashSet<Var>,
    schema: &RelSchema,
    dtd: &Dtd,
) -> Denial {
    // Occurrence counts of every variable across the whole denial
    // (aggregates included).
    let mut occurrences: HashMap<&Var, usize> = HashMap::new();
    for v in denial.body.iter().flat_map(Literal::terms).filter_map(Term::as_var) {
        *occurrences.entry(v).or_insert(0) += 1;
    }
    let unused_placeholder = |t: &Term| match t {
        Term::Var(v) => placeholders.contains(v) && occurrences.get(v) == Some(&1),
        _ => false,
    };
    // `child` can only occur inside `parent` elements.
    let unique_parent = |child: &str, parent: &str| -> bool {
        let mut parents = Vec::new();
        for e in dtd.elements() {
            let mut m = Vec::new();
            crate::schema::mentioned_names(&e.model, &mut m);
            if m.iter().any(|x| x == child) {
                parents.push(e.name.clone());
            }
        }
        parents.len() == 1 && parents[0] == parent
    };

    let mut keep: Vec<bool> = vec![true; denial.body.len()];
    for (i, l) in denial.body.iter().enumerate() {
        let Literal::Pos(a) = l else { continue };
        if a.args.len() < 3 || schema.pred(&a.pred).is_none() {
            continue;
        }
        let Term::Var(id) = &a.args[0] else { continue };
        if !a.args[1..].iter().all(unused_placeholder) {
            continue;
        }
        // Every other occurrence of the id must be as the parent column of
        // a kept positive atom whose element has this atom's predicate as
        // its unique parent.
        let total = occurrences.get(id).copied().unwrap_or(0);
        let mut explained = 1usize; // this atom's own id column
        let mut has_child = false;
        for (j, other) in denial.body.iter().enumerate() {
            if j == i {
                continue;
            }
            if let Literal::Pos(b) = other {
                for (k, t) in b.args.iter().enumerate() {
                    if t.as_var() == Some(id) {
                        if k == 2 && unique_parent(&b.pred, &a.pred) {
                            explained += 1;
                            has_child = true;
                        } else {
                            explained = usize::MAX;
                        }
                    }
                }
            } else if other.terms().any(|t| t.as_var() == Some(id)) {
                explained = usize::MAX;
            }
            if explained == usize::MAX {
                break;
            }
        }
        if has_child && explained == total {
            keep[i] = false;
        }
    }
    Denial::new(
        denial
            .body
            .into_iter()
            .zip(keep)
            .filter_map(|(l, k)| k.then_some(l))
            .collect(),
    )
}

/// The Datalog variable for the XPathLog variable `v`, refused when named
/// like the variables the pipeline makes itself — placeholders `_m{n}`,
/// aggregate-local copies `{v}__ag{n}`, `Simp`'s fresh `{v}__{n}` — which
/// it could capture.
fn written(v: &str) -> Result<Term, MapError> {
    if v.starts_with('_') || v.contains("__") {
        return Err(MapError::ReservedVar(v.to_string()));
    }
    Ok(Term::var(v))
}

#[allow(clippy::type_complexity)]
fn partition(
    nd: &NormalDenial,
) -> Result<
    (
        Vec<&LFormula>,
        Vec<&LFormula>,
        Vec<&LFormula>,
        Vec<&LFormula>,
    ),
    MapError,
> {
    let mut paths = Vec::new();
    let mut aggs = Vec::new();
    let mut comps = Vec::new();
    let mut nots = Vec::new();
    for c in &nd.conjuncts {
        match c {
            LFormula::Path(_) => paths.push(c),
            LFormula::Agg(..) => aggs.push(c),
            LFormula::Comp(..) => comps.push(c),
            LFormula::Not(_) => nots.push(c),
            LFormula::And(_) | LFormula::Or(_) => {
                return Err(MapError::Unsupported(
                    "denial is not in disjunction-free normal form".to_string(),
                ))
            }
            LFormula::Position(_) => {
                return Err(MapError::Unsupported(
                    "positional qualifier outside a step".to_string(),
                ))
            }
        }
    }
    Ok((paths, aggs, comps, nots))
}

/// What a translated variable denotes.
#[derive(Debug, Clone)]
enum Binding {
    /// A node id together with its predicate.
    Node { term: Term, pred: String },
    /// A PCDATA value.
    Value(Term),
}

impl Binding {
    fn term(&self) -> &Term {
        match self {
            Binding::Node { term, .. } | Binding::Value(term) => term,
        }
    }
}

/// Navigation context while walking a path.
#[derive(Debug, Clone)]
enum Ctx {
    /// Below an unconstrained ancestor (document root / after `//`).
    Unanchored,
    /// A dropped container element (e.g. `review`): structurally present
    /// but not represented relationally.
    Dropped(String),
    /// A predicate node: its id term, predicate name and the index of its
    /// atom in the literal list.
    Node {
        id: Term,
        pred: String,
        atom_idx: usize,
    },
}

/// The result of translating a path.
#[derive(Debug, Clone)]
enum PathVal {
    /// Ends on a predicate element.
    Node {
        id: Term,
        pred: String,
        atom_idx: usize,
    },
    /// Ends on a compacted child element (awaiting `text()`).
    Field { atom_idx: usize, col: usize },
    /// Ends on a text value.
    Value(Term),
    /// Ends inside dropped structure (pure existence, no data).
    Dropped,
}

struct Mapper<'a> {
    schema: &'a RelSchema,
    dtd: &'a Dtd,
    gen: u32,
    env: HashMap<String, Binding>,
    /// The variables that are anonymous placeholders (replaceable).
    placeholders: HashSet<Var>,
    literals: Vec<Literal>,
}

impl Mapper<'_> {
    fn fresh(&mut self) -> Term {
        let v = Var::new(&format!("_m{}", self.gen));
        self.gen += 1;
        self.placeholders.insert(v.clone());
        Term::Var(v)
    }

    fn operand(&self, op: &LOperand) -> Result<Term, MapError> {
        match op {
            LOperand::Var(v) => self
                .env
                .get(v)
                .map(|b| b.term().clone())
                .ok_or_else(|| MapError::UnboundVar(v.clone())),
            LOperand::Str(s) => Ok(Term::str(s.clone())),
            LOperand::Int(i) => Ok(Term::int(*i)),
        }
    }

    fn formula(&mut self, f: &LFormula, ctx: &Ctx) -> Result<(), MapError> {
        match f {
            LFormula::Path(p) => {
                self.path(p, ctx)?;
                Ok(())
            }
            LFormula::Comp(a, op, b) => {
                let ta = self.operand(a)?;
                let tb = self.operand(b)?;
                self.literals.push(Literal::Comp(ta, *op, tb));
                Ok(())
            }
            LFormula::And(parts) => {
                for p in parts {
                    self.formula(p, ctx)?;
                }
                Ok(())
            }
            LFormula::Or(_) => Err(MapError::Unsupported(
                "disjunction must be normalized away before mapping".to_string(),
            )),
            LFormula::Not(inner) => self.negated(inner, ctx),
            LFormula::Agg(agg, op, t) => {
                let threshold = self.operand(t)?;
                let lit = self.aggregate(agg)?;
                self.literals.push(Literal::Agg(lit, *op, threshold));
                Ok(())
            }
            LFormula::Position(_) => Err(MapError::Unsupported(
                "positional qualifier outside a step".to_string(),
            )),
        }
    }

    fn negated(&mut self, inner: &LFormula, ctx: &Ctx) -> Result<(), MapError> {
        match inner {
            LFormula::Comp(a, op, b) => {
                let ta = self.operand(a)?;
                let tb = self.operand(b)?;
                self.literals.push(Literal::Comp(ta, op.negate(), tb));
                Ok(())
            }
            LFormula::Path(p) => {
                // A negated existential is expressible only as a single
                // safe negated atom.
                let before = self.literals.len();
                let saved_env = self.env.clone();
                self.path(p, ctx)?;
                let added: Vec<Literal> = self.literals.split_off(before);
                self.env = saved_env;
                match added.as_slice() {
                    [Literal::Pos(atom)] => {
                        // Safety: every variable must be bound elsewhere
                        // or be a placeholder… placeholders make the
                        // negation unsafe (¬∃ over a column), reject them.
                        let mut vars = atom.args.iter().filter_map(Term::as_var);
                        if vars.any(|v| self.placeholders.contains(v)) {
                            return Err(MapError::Unsupported(
                                "negated path with unconstrained columns (¬∃) is not \
                                 expressible as a safe negated atom"
                                    .to_string(),
                            ));
                        }
                        self.literals.push(Literal::Neg(atom.clone()));
                        Ok(())
                    }
                    _ => Err(MapError::Unsupported(
                        "negated paths must map to exactly one atom".to_string(),
                    )),
                }
            }
            other => Err(MapError::Unsupported(format!(
                "negation of {other} is not supported"
            ))),
        }
    }

    fn aggregate(&mut self, agg: &xic_xpathlog::LAgg) -> Result<Aggregate, MapError> {
        // Translate the aggregate path in a scope that sees every outer
        // binding (outer variables are correlated) plus the declared group
        // variables; bindings *introduced* inside the aggregate and not in
        // the group list are local and renamed apart afterwards.
        let outer_env = self.env.clone();
        for g in &agg.group {
            if !outer_env.contains_key(g) {
                // Shared fresh variable: register in the outer scope so a
                // second aggregate over the same group joins on it
                // (Example 2's R).
                self.env.insert(g.clone(), Binding::Value(written(g)?));
            }
        }
        let before = self.literals.len();
        let result = self.path(&agg.path, &Ctx::Unanchored);
        let local_final = self.env.clone();
        // Restore the outer scope (keeping newly registered group vars).
        self.env.retain(|name, _| {
            outer_env.contains_key(name) || agg.group.contains(name)
        });
        let added: Vec<Literal> = self.literals.split_off(before);
        let val = result?;
        // Rename aggregate-introduced non-group variables apart so they
        // never collide with outer variables of the same name.
        let mut rename = xic_datalog::Subst::new();
        for (name, b) in &local_final {
            if agg.group.contains(name) || outer_env.contains_key(name) {
                continue;
            }
            if let Term::Var(v) = b.term() {
                rename.bind(v, &Term::Var(v.apart(self.gen)));
                self.gen += 1;
            }
        }
        let mut pattern = Vec::new();
        for mut l in added {
            rename.apply(&mut l);
            match l {
                Literal::Pos(a) => pattern.push(a),
                other => {
                    return Err(MapError::Unsupported(format!(
                        "aggregate paths must map to atoms only, found {other}"
                    )))
                }
            }
        }
        let counted: Option<Term> = match (&agg.func, &val) {
            (AggFunc::Cnt, _) => None,
            (_, PathVal::Node { id, .. }) => Some(rename.resolve(id)),
            (_, PathVal::Field { atom_idx: _, col: _ }) => {
                return Err(MapError::Unsupported(
                    "aggregate over a compacted element requires text()".to_string(),
                ))
            }
            (_, PathVal::Value(t)) => Some(rename.resolve(t)),
            (_, PathVal::Dropped) => {
                return Err(MapError::Unsupported(
                    "aggregate over dropped structure".to_string(),
                ))
            }
        };
        Ok(Aggregate::new(agg.func, counted, pattern))
    }

    /// Translates a path (absolute, variable-rooted, or relative to
    /// `rel_ctx`), emitting atoms and bindings. Handles the
    /// compacted-child → `text()` transitions.
    fn path(&mut self, p: &LPath, rel_ctx: &Ctx) -> Result<PathVal, MapError> {
        self.walk_path(p, rel_ctx)
    }

    fn step(&mut self, ctx: &Ctx, step: &LStep) -> Result<PathVal, MapError> {
        match &step.test {
            LTest::Attr(_) => Err(MapError::Unsupported(
                "attributes are not part of the relational mapping (the paper's DTDs are \
                 attribute-free)"
                    .to_string(),
            )),
            LTest::Text => {
                // Only valid right after a compacted child step; the field
                // slot becomes the value.
                Err(MapError::Unsupported(
                    "text() outside a compacted-child step".to_string(),
                ))
            }
            LTest::Elem(name) => self.elem_step(ctx, step, name),
        }
    }

    fn elem_step(&mut self, ctx: &Ctx, step: &LStep, name: &str) -> Result<PathVal, MapError> {
        if self.schema.is_dropped(name) {
            if step.binding.is_some() || !step.qualifiers.is_empty() {
                return Err(MapError::Unsupported(format!(
                    "container element <{name}> has no relational representation; bindings \
                     and qualifiers on it are not expressible"
                )));
            }
            return Ok(PathVal::Dropped);
        }
        if self.schema.is_compacted(name) {
            let Ctx::Node { id: _, pred, atom_idx } = ctx else {
                return Err(MapError::Unsupported(format!(
                    "compacted element <{name}> reached without a concrete container"
                )));
            };
            if *atom_idx == usize::MAX {
                return Err(MapError::Unsupported(format!(
                    "compacted child <{name}> of a variable-rooted node cannot be re-read; \
                     bind it where the node is first selected"
                )));
            }
            let col = self
                .schema
                .pred(pred)
                .and_then(|i| i.col_index(name))
                .ok_or_else(|| {
                    MapError::Unsupported(format!("<{name}> is not a column of {pred}"))
                })?;
            if step.descendant {
                return Err(MapError::Unsupported(
                    "descendant step onto a compacted child".to_string(),
                ));
            }
            if !step.qualifiers.is_empty() {
                return Err(MapError::Unsupported(
                    "qualifiers on compacted children are not supported".to_string(),
                ));
            }
            if let Some(v) = &step.binding {
                // Binding the element node itself: in the relational model
                // the compacted node has no identity; bind the value, which
                // is what every sensible constraint means.
                let slot = PathVal::Field {
                    atom_idx: *atom_idx,
                    col,
                };
                let term = self.field_bind(*atom_idx, col, v)?;
                let _ = slot;
                return Ok(PathVal::Value(term));
            }
            return Ok(PathVal::Field {
                atom_idx: *atom_idx,
                col,
            });
        }
        // A predicate element.
        let Some(info) = self.schema.pred(name) else {
            return Err(MapError::Unsupported(format!(
                "element <{name}> is not declared in the schema"
            )));
        };
        if step.descendant && matches!(ctx, Ctx::Node { .. }) {
            return Err(MapError::Unsupported(
                "descendant steps below a bound node lose the ancestor link in the \
                 relational mapping; use child steps"
                    .to_string(),
            ));
        }
        let parent_term = match ctx {
            Ctx::Node { id, .. } => id.clone(),
            Ctx::Unanchored | Ctx::Dropped(_) => self.fresh(),
        };
        let id_term = match &step.binding {
            Some(v) => self.bind_node_var(v, name)?,
            None => self.fresh(),
        };
        let mut args = vec![id_term.clone(), self.fresh(), parent_term];
        for _ in &info.cols {
            args.push(self.fresh());
        }
        let atom_idx = self.literals.len();
        self.literals
            .push(Literal::Pos(Atom::new(name.to_string(), args)));

        // Qualifiers.
        let node_ctx = Ctx::Node {
            id: id_term.clone(),
            pred: name.to_string(),
            atom_idx,
        };
        for q in &step.qualifiers {
            match q {
                LFormula::Position(op) => {
                    let pos_term = self.position_term(ctx, name, op)?;
                    self.set_or_eq(atom_idx, 1, pos_term)?;
                }
                other => {
                    self.qualifier(other, &node_ctx)?;
                }
            }
        }
        Ok(PathVal::Node {
            id: id_term,
            pred: name.to_string(),
            atom_idx,
        })
    }

    /// Translates a qualifier formula: paths are relative to `node_ctx`;
    /// text() resolution is handled by rewriting `name/text()` pairs here.
    fn qualifier(&mut self, f: &LFormula, node_ctx: &Ctx) -> Result<(), MapError> {
        match f {
            LFormula::Path(p) => {
                self.walk_path(p, node_ctx)?;
                Ok(())
            }
            LFormula::And(parts) => {
                for p in parts {
                    self.qualifier(p, node_ctx)?;
                }
                Ok(())
            }
            LFormula::Comp(a, op, b) => {
                let ta = self.operand(a)?;
                let tb = self.operand(b)?;
                self.literals.push(Literal::Comp(ta, *op, tb));
                Ok(())
            }
            LFormula::Not(inner) => self.negated(inner, node_ctx),
            other => self.formula(other, node_ctx),
        }
    }

    /// Walks a path step by step so `Field` → `text()` transitions work.
    fn walk_path(&mut self, p: &LPath, node_ctx: &Ctx) -> Result<PathVal, MapError> {
        let mut ctx = match &p.start {
            LStart::Rel => node_ctx.clone(),
            LStart::Root => Ctx::Unanchored,
            LStart::Var(v) => match self.env.get(v) {
                Some(Binding::Node { term, pred }) => Ctx::Node {
                    id: term.clone(),
                    pred: pred.clone(),
                    atom_idx: usize::MAX,
                },
                Some(Binding::Value(_)) => {
                    return Err(MapError::Unsupported(format!(
                        "cannot navigate from value variable {v}"
                    )))
                }
                None => return Err(MapError::UnboundVar(v.clone())),
            },
        };
        let mut val: Option<PathVal> = match &ctx {
            Ctx::Node { id, pred, atom_idx } if p.steps.is_empty() => Some(PathVal::Node {
                id: id.clone(),
                pred: pred.clone(),
                atom_idx: *atom_idx,
            }),
            _ => None,
        };
        for step in &p.steps {
            // text() after a compacted field.
            if step.test == LTest::Text {
                let Some(PathVal::Field { atom_idx, col }) = &val else {
                    return Err(MapError::Unsupported(
                        "text() is only supported on compacted PCDATA children".to_string(),
                    ));
                };
                let term = match &step.binding {
                    Some(v) => self.field_bind(*atom_idx, *col, v)?,
                    None => self.field_term(*atom_idx, *col),
                };
                val = Some(PathVal::Value(term));
                continue;
            }
            let v = self.step(&ctx, step)?;
            ctx = match &v {
                PathVal::Node { id, pred, atom_idx } => Ctx::Node {
                    id: id.clone(),
                    pred: pred.clone(),
                    atom_idx: *atom_idx,
                },
                PathVal::Dropped => match &step.test {
                    LTest::Elem(n) => Ctx::Dropped(n.clone()),
                    _ => Ctx::Unanchored,
                },
                _ => ctx,
            };
            val = Some(v);
        }
        val.ok_or_else(|| MapError::Unsupported("empty path".to_string()))
    }

    /// Computes the `Pos` column value for a positional qualifier `[n]`.
    fn position_term(&mut self, parent_ctx: &Ctx, name: &str, op: &LOperand) -> Result<Term, MapError> {
        match op {
            LOperand::Int(n) => {
                let parent_name: String = match parent_ctx {
                    Ctx::Node { pred, .. } => pred.clone(),
                    Ctx::Dropped(p) => p.clone(),
                    Ctx::Unanchored => {
                        // Unique parent from the DTD, if any.
                        let parents: Vec<String> = self
                            .dtd
                            .elements()
                            .iter()
                            .filter(|e| {
                                let mut m = Vec::new();
                                crate::schema::mentioned_names(&e.model, &mut m);
                                m.iter().any(|x| x == name)
                            })
                            .map(|e| e.name.clone())
                            .collect();
                        match parents.as_slice() {
                            [p] => p.clone(),
                            _ => {
                                return Err(MapError::Unsupported(format!(
                                    "positional qualifier on <{name}> with ambiguous parent"
                                )))
                            }
                        }
                    }
                };
                let offset = self
                    .schema
                    .position_offset(self.dtd, &parent_name, name)
                    .ok_or_else(|| {
                        MapError::Unsupported(format!(
                            "cannot derive a fixed position offset for <{name}> in \
                             <{parent_name}>"
                        ))
                    })?;
                Ok(Term::int(offset + n))
            }
            LOperand::Var(v) => {
                // position() -> V style: the variable denotes the Pos
                // column directly (Section 4.2).
                match self.env.get(v) {
                    Some(b) => Ok(b.term().clone()),
                    None => {
                        let t = written(v)?;
                        self.env.insert(v.clone(), Binding::Value(t.clone()));
                        Ok(t)
                    }
                }
            }
            LOperand::Str(s) => Err(MapError::Unsupported(format!(
                "string {s:?} as positional qualifier"
            ))),
        }
    }

    fn bind_node_var(&mut self, v: &str, pred: &str) -> Result<Term, MapError> {
        if let Some(existing) = self.env.get(v) {
            return Ok(existing.term().clone());
        }
        let t = written(v)?;
        self.env.insert(
            v.to_string(),
            Binding::Node {
                term: t.clone(),
                pred: pred.to_string(),
            },
        );
        Ok(t)
    }

    fn field_term(&self, atom_idx: usize, col: usize) -> Term {
        match &self.literals[atom_idx] {
            Literal::Pos(a) => a.args[col].clone(),
            other => unreachable!("field on non-atom literal {other}"),
        }
    }

    /// Binds variable `v` to the field; replaces the placeholder column
    /// variable when still untouched, otherwise emits an equality.
    fn field_bind(&mut self, atom_idx: usize, col: usize, v: &str) -> Result<Term, MapError> {
        let current = self.field_term(atom_idx, col);
        if let Some(existing) = self.env.get(v).map(|b| b.term().clone()) {
            // Join with an already-bound variable.
            self.set_or_eq(atom_idx, col, existing.clone())?;
            return Ok(existing);
        }
        let term = written(v)?;
        match &current {
            Term::Var(name) if self.placeholders.contains(name) => {
                self.replace_arg(atom_idx, col, term.clone());
            }
            _ => self
                .literals
                .push(Literal::Comp(current, xic_datalog::CompOp::Eq, term.clone())),
        }
        self.env
            .insert(v.to_string(), Binding::Value(term.clone()));
        Ok(term)
    }

    fn set_or_eq(&mut self, atom_idx: usize, col: usize, term: Term) -> Result<(), MapError> {
        let current = self.field_term(atom_idx, col);
        match &current {
            Term::Var(name) if self.placeholders.contains(name) => {
                self.replace_arg(atom_idx, col, term);
            }
            _ => self
                .literals
                .push(Literal::Comp(current, xic_datalog::CompOp::Eq, term)),
        }
        Ok(())
    }

    fn replace_arg(&mut self, atom_idx: usize, col: usize, term: Term) {
        if let Literal::Pos(a) = &mut self.literals[atom_idx] {
            a.args[col] = term;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::paper_dtd;
    use xic_simplify::variants;
    use xic_xpathlog::parse_denial as parse_l;

    fn map_one(src: &str) -> Vec<Denial> {
        let dtd = paper_dtd();
        let schema = RelSchema::from_dtd(&dtd).unwrap();
        let d = parse_l(src).unwrap();
        map_denials(&[d], &schema, &dtd).unwrap()
    }

    #[test]
    fn paper_example_3_conflict_of_interest() {
        let out = map_one(
            "<- //rev[name/text() -> R]/sub/auts/name/text() -> A \
             & (A = R | //pub[aut/name/text() -> A & aut/name/text() -> R])",
        );
        assert_eq!(out.len(), 2, "{out:?}");
        let want1 =
            xic_datalog::parse_denial("<- rev(Ir,_,_,R) & sub(Is,_,Ir,_) & auts(_,_,Is,R)")
                .unwrap();
        let want2 = xic_datalog::parse_denial(
            "<- rev(Ir,_,_,R) & sub(Is,_,Ir,_) & auts(_,_,Is,A) & aut(_,_,Ip,A) & aut(_,_,Ip,R)",
        )
        .unwrap();
        assert!(
            out.iter().any(|d| variants(d, &want1)),
            "missing {want1}\ngot {out:#?}"
        );
        assert!(
            out.iter().any(|d| variants(d, &want2)),
            "missing {want2}\ngot {out:#?}"
        );
    }

    #[test]
    fn duckburg_example() {
        let out = map_one(
            "<- //pub[title/text() -> T & T = \"Duckburg tales\"]/aut/name/text() -> N \
             & N = \"Goofy\"",
        );
        assert_eq!(out.len(), 1);
        let want = xic_datalog::parse_denial(
            "<- pub(Ip, _, _, \"Duckburg tales\") & aut(_, _, Ip, \"Goofy\")",
        )
        .unwrap();
        assert!(variants(&out[0], &want), "got {}", out[0]);
    }

    #[test]
    fn paper_example_2_aggregates() {
        let out = map_one(
            "<- cntd{[R]; //track[rev/name/text() -> R]} >= 3 \
             & cntd{[R]; //rev[name/text() -> R]/sub} > 10",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        let d = &out[0];
        assert_eq!(d.body.len(), 2, "{d}");
        // Both aggregates share the group variable R.
        let s = d.to_string();
        assert!(s.contains("cntd("), "{s}");
        let want = xic_datalog::parse_denial(
            "<- cntd(It; track(It,_,_,_), rev(_,_,It,R)) >= 3 \
             & cntd(Is; rev(Ir,_,_,R), sub(Is,_,Ir,_)) > 10",
        )
        .unwrap();
        assert!(variants(d, &want), "got {d}\nwant {want}");
    }

    #[test]
    fn example_7_max_reviews_per_track() {
        let out = map_one("<- //rev -> R & cnt{R/sub} > 4");
        assert_eq!(out.len(), 1);
        let want =
            xic_datalog::parse_denial("<- rev(Ir,_,_,_) & cnt(; sub(_,_,Ir,_)) > 4").unwrap();
        assert!(variants(&out[0], &want), "got {}", out[0]);
    }

    #[test]
    fn positional_qualifiers_use_offsets() {
        // /collection/review/track[2]/rev[5]: track = (name, rev+) means
        // rev[5] is element child 6; review = (track)+ keeps track[2] at 2.
        let out = map_one(
            "<- /collection/review/track[2]/rev[5]/name/text() -> N & N = \"Goofy\"",
        );
        assert_eq!(out.len(), 1);
        let want = xic_datalog::parse_denial(
            "<- track(It, 2, _, _) & rev(_, 6, It, \"Goofy\")",
        )
        .unwrap();
        assert!(variants(&out[0], &want), "got {}", out[0]);
    }

    #[test]
    fn negated_comparison() {
        let out = map_one(
            "<- //pub[title/text() -> T]/aut/name/text() -> N & not T = N",
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].to_string().contains("!="), "{}", out[0]);
    }

    #[test]
    fn unbound_variable_rejected() {
        let dtd = paper_dtd();
        let schema = RelSchema::from_dtd(&dtd).unwrap();
        let d = parse_l("<- //pub[title/text() -> T] & T = Z").unwrap();
        assert_eq!(
            map_denials(&[d], &schema, &dtd).unwrap_err(),
            MapError::UnboundVar("Z".to_string())
        );
    }

    #[test]
    fn reserved_variable_names_are_refused() {
        // `_m0` is the mapping's first placeholder: accepted, it would
        // join the review's parent column to its name.
        let dtd = paper_dtd();
        let schema = RelSchema::from_dtd(&dtd).unwrap();
        for (src, name) in [
            ("<- //rev[name/text() -> _m0]/sub/auts/name/text() -> A & A = _m0", "_m0"),
            ("<- //rev[name/text() -> R__1]/sub/auts/name/text() -> A & A = R__1", "R__1"),
        ] {
            let d = parse_l(src).unwrap();
            assert_eq!(
                map_denials(&[d], &schema, &dtd).unwrap_err(),
                MapError::ReservedVar(name.to_string())
            );
        }
    }

    #[test]
    fn attributes_unsupported() {
        let dtd = paper_dtd();
        let schema = RelSchema::from_dtd(&dtd).unwrap();
        let d = parse_l("<- //pub/@year -> Y & Y = \"2006\"").unwrap();
        assert!(matches!(
            map_denials(&[d], &schema, &dtd),
            Err(MapError::Unsupported(_))
        ));
    }

    #[test]
    fn variable_rooted_continuation() {
        let out = map_one(
            "<- //rev[name/text() -> R] -> V & V/sub/title/text() -> T & T = \"X\"",
        );
        assert_eq!(out.len(), 1);
        let want = xic_datalog::parse_denial(
            "<- rev(V, _, _, R) & sub(_, _, V, \"X\")",
        )
        .unwrap();
        assert!(variants(&out[0], &want), "got {}", out[0]);
    }

    #[test]
    fn trivially_satisfied_constraint_dropped() {
        let out = map_one("<- //pub[title/text() -> T] & T != T");
        assert!(out.is_empty(), "{out:?}");
    }
}
