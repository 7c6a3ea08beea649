//! The denial → XQuery translation algorithm.

use crate::template::{quote, ParamKind, QueryTemplate, TemplateError};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use xic_datalog::{AggFunc, Aggregate, Atom, CompOp, Denial, Literal, Term, Value, Var};
use xic_mapping::RelSchema;

/// Translation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslateError {
    /// The denial uses a construct with no XQuery counterpart under this
    /// schema.
    Unsupported(String),
    /// A predicate/arity mismatch against the schema.
    Schema(String),
    /// A variable occurs only in positions that cannot define it.
    UnsafeVar(String),
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::Unsupported(m) => write!(f, "untranslatable: {m}"),
            TranslateError::Schema(m) => write!(f, "schema mismatch: {m}"),
            TranslateError::UnsafeVar(v) => write!(f, "unsafe variable {v}"),
        }
    }
}

impl std::error::Error for TranslateError {}

impl From<TemplateError> for TranslateError {
    fn from(e: TemplateError) -> Self {
        TranslateError::Unsupported(e.to_string())
    }
}

/// Translates a set of denials; the produced queries each report `true`
/// on violation, so the constraint set holds iff every query is false.
pub fn translate_denials(
    denials: &[Denial],
    schema: &RelSchema,
) -> Result<Vec<QueryTemplate>, TranslateError> {
    denials.iter().map(|d| translate_denial(d, schema)).collect()
}

/// [`translate_denials`] for simplified denials whose parameters include
/// known node identifiers (update targets and fresh ids).
pub fn translate_denials_with(
    denials: &[Denial],
    schema: &RelSchema,
    node_params: &std::collections::BTreeSet<String>,
) -> Result<Vec<QueryTemplate>, TranslateError> {
    denials
        .iter()
        .map(|d| translate_denial_with(d, schema, node_params))
        .collect()
}

/// Translates one denial into an XQuery template returning `true` iff the
/// denial is violated in the queried document.
pub fn translate_denial(
    denial: &Denial,
    schema: &RelSchema,
) -> Result<QueryTemplate, TranslateError> {
    translate_denial_with(denial, schema, &std::collections::BTreeSet::new())
}

/// [`translate_denial`] with a set of parameters known to denote node
/// identifiers; these are always rendered as positional node paths, and
/// comparisons between node terms use identity (union-cardinality)
/// semantics rather than string values.
pub fn translate_denial_with(
    denial: &Denial,
    schema: &RelSchema,
    node_params: &std::collections::BTreeSet<String>,
) -> Result<QueryTemplate, TranslateError> {
    let mut t = Tr {
        schema,
        node_params,
        occurrences: occurrences(denial),
        node_expr: HashMap::new(),
        var_expr: HashMap::new(),
        bindings: Vec::new(),
        lets: Vec::new(),
        conds: Vec::new(),
        params: BTreeMap::new(),
        agg_counter: 0,
    };

    let mut atoms: Vec<&Atom> = Vec::new();
    let mut comps: Vec<(&Term, CompOp, &Term)> = Vec::new();
    let mut negs: Vec<&Atom> = Vec::new();
    let mut aggs: Vec<(usize, &Aggregate, CompOp, &Term)> = Vec::new();
    for (i, l) in denial.body.iter().enumerate() {
        match l {
            Literal::Pos(a) => atoms.push(a),
            Literal::Neg(a) => negs.push(a),
            Literal::Comp(x, op, y) => comps.push((x, *op, y)),
            Literal::Agg(a, op, k) => aggs.push((i, a, *op, k)),
        }
    }

    for a in order_atoms(&atoms)? {
        t.atom(a)?;
    }
    for (i, agg, op, k) in &aggs {
        t.aggregate(*i, agg, *op, k)?;
    }
    for (x, op, y) in comps {
        t.comparison(x, op, y)?;
    }
    for n in negs {
        t.negated_atom(n)?;
    }

    let params = t.params.clone();
    let text = t.assemble(!aggs.is_empty());
    Ok(QueryTemplate { text, params })
}

/// Variable occurrences across the denial: for each variable, the list of
/// body-literal indexes it appears in (with multiplicity).
fn occurrences(denial: &Denial) -> HashMap<Var, Vec<usize>> {
    let mut occ: HashMap<Var, Vec<usize>> = HashMap::new();
    for (i, l) in denial.body.iter().enumerate() {
        for v in l.terms().filter_map(Term::as_var) {
            occ.entry(v.clone()).or_default().push(i);
        }
    }
    occ
}

/// Orders atoms parent-before-child (the paper's sorting step), in body
/// order where that leaves a choice — but for one: an atom whose parent
/// nobody binds becomes a `//pred` binder, and when several such atoms are
/// ready and none has a parameter or constant column, the first that
/// joins a data column of a node bound to a single node (another `//pred`
/// binder, or a parameter id) is bound first. Its join then has one value
/// per outer binding — a reviewer's name rather than the names of all the
/// authors they review — for the document's index to answer, and the
/// joins it leaves narrow the index's hits.
fn order_atoms<'a>(atoms: &[&'a Atom]) -> Result<Vec<&'a Atom>, TranslateError> {
    let mut pending: Vec<&Atom> = atoms.to_vec();
    let mut out: Vec<&Atom> = Vec::new();
    // Node variables bound so far: the ids of the atoms placed, and their
    // parents, which are reached from them.
    let mut defined: HashSet<&Var> = HashSet::new();
    // Value variables first bound by a data column of a single node.
    let mut single: HashSet<&Var> = HashSet::new();
    let mut columns: HashSet<&Var> = HashSet::new();
    fn id(a: &Atom) -> Option<&Var> {
        a.args.first().and_then(Term::as_var)
    }
    while !pending.is_empty() {
        // Ready if the parent var is already defined, or is not the id of
        // any pending atom; params/consts never wait.
        let ready = |a: &Atom| match a.args.get(2) {
            Some(Term::Var(w)) => defined.contains(w) || !pending.iter().any(|b| id(b) == Some(w)),
            _ => true,
        };
        let binder = |a: &Atom| {
            id(a).is_some()
                && matches!(a.args.get(2), Some(Term::Var(w)) if !defined.contains(w))
        };
        // An atom addressed by a parameter whose parent is another atom's
        // id goes first: that parent is reached from it (`$w in %{p}/..`),
        // not searched for and compared.
        let reaches_parent = |a: &Atom| {
            matches!(a.args.first(), Some(Term::Param(_)))
                && matches!(a.args.get(2), Some(Term::Var(w))
                    if !defined.contains(w) && pending.iter().any(|b| id(b) == Some(w)))
        };
        let Some(first) = pending.iter().position(|a| reaches_parent(a)).or_else(|| pending.iter().position(|a| ready(a))) else {
            return Err(TranslateError::Unsupported(
                "cyclic parent links between atoms".to_string(),
            ));
        };
        let mut idx = first;
        if binder(pending[first]) {
            let rivals: Vec<usize> =
                (0..pending.len()).filter(|&i| ready(pending[i]) && binder(pending[i])).collect();
            let rigid = |a: &Atom| a.args.iter().skip(1).any(|t| !matches!(t, Term::Var(_)));
            let joins_single = |a: &Atom| {
                a.args.iter().skip(3).filter_map(Term::as_var).any(|v| single.contains(v))
            };
            idx = match rivals.iter().find(|&&i| rigid(pending[i])) {
                Some(&i) => i,
                None => rivals.into_iter().find(|&i| joins_single(pending[i])).unwrap_or(first),
            };
        }
        let one_node =
            binder(pending[idx]) || matches!(pending[idx].args.first(), Some(Term::Param(_)));
        let a = pending.remove(idx);
        for v in a.args.iter().skip(3).filter_map(Term::as_var) {
            if columns.insert(v) && one_node {
                single.insert(v);
            }
        }
        defined.extend([id(a), a.args.get(2).and_then(Term::as_var)].into_iter().flatten());
        out.push(a);
    }
    Ok(out)
}

struct Tr<'a> {
    schema: &'a RelSchema,
    node_params: &'a std::collections::BTreeSet<String>,
    occurrences: HashMap<Var, Vec<usize>>,
    /// Datalog node-id variable → XQuery node expression (`$v`, `%{p}`).
    node_expr: HashMap<Var, String>,
    /// Datalog value variable → XQuery value expression.
    var_expr: HashMap<Var, String>,
    /// `some`/`for` bindings, in order: (`$name`, source).
    bindings: Vec<(String, String)>,
    /// `let` bindings for aggregates.
    lets: Vec<(String, String)>,
    conds: Vec<String>,
    params: BTreeMap<String, ParamKind>,
    agg_counter: usize,
}

impl Tr<'_> {
    fn param(&mut self, name: &str, kind: ParamKind) -> String {
        // Known node parameters are always paths; otherwise NodePath wins
        // if a parameter is used both ways.
        let kind = if self.node_params.contains(name) {
            ParamKind::NodePath
        } else {
            kind
        };
        let slot = self.params.entry(name.to_string()).or_insert(kind);
        if kind == ParamKind::NodePath {
            *slot = ParamKind::NodePath;
        }
        format!("%{{{name}}}")
    }

    fn used_elsewhere(&self, v: &Var) -> bool {
        self.occurrences.get(v).map_or(0, Vec::len) > 1
    }

    /// True if the variable occurs in a literal other than `lit_idx`.
    fn occurs_outside(&self, v: &Var, lit_idx: usize) -> bool {
        self.occurrences
            .get(v)
            .is_some_and(|ls| ls.iter().any(|&l| l != lit_idx))
    }

    fn const_lit(v: &Value) -> Result<String, TranslateError> {
        Ok(match v {
            Value::Int(i) => i.to_string(),
            Value::Str(s) => quote(s)?,
        })
    }

    /// Renders a value-position term (columns, thresholds, comparisons).
    fn value_term(&mut self, t: &Term) -> Result<String, TranslateError> {
        match t {
            Term::Const(c) => Self::const_lit(c),
            Term::Param(p) => Ok(self.param(p, ParamKind::Value)),
            Term::Var(v) => {
                if let Some(e) = self.var_expr.get(v) {
                    Ok(e.clone())
                } else if let Some(e) = self.node_expr.get(v) {
                    Ok(e.clone())
                } else {
                    Err(TranslateError::UnsafeVar(v.to_string()))
                }
            }
        }
    }

    fn atom(&mut self, a: &Atom) -> Result<(), TranslateError> {
        let info = self.schema.pred(&a.pred).ok_or_else(|| {
            TranslateError::Schema(format!("unknown predicate {}", a.pred))
        })?;
        if a.args.len() != info.arity() {
            return Err(TranslateError::Schema(format!(
                "{} has arity {}, got {}",
                a.pred,
                info.arity(),
                a.args.len()
            )));
        }
        // Node expression for this atom.
        // `prebound`: reached from a parameter or a binding made before.
        let (self_expr, prebound) = match &a.args[0] {
            Term::Param(p) => {
                let ph = self.param(p, ParamKind::NodePath);
                // A variable id gets its name test from the `//pred` (or
                // `$parent/pred`) binding source; a parameter id is pure
                // navigation, so the membership `pred(%{p}, …)` must be
                // asserted explicitly or the residual check fires on nodes
                // of the wrong element kind.
                self.conds.push(format!("exists({ph}/self::{})", a.pred));
                (ph, true)
            }
            Term::Var(v) if self.node_expr.contains_key(v) => {
                // Bound already, as the parent of an atom placed before:
                // assert the membership, as for a parameter id.
                let bound = self.node_expr[v].clone();
                self.conds.push(format!("exists({bound}/self::{})", a.pred));
                (bound, true)
            }
            Term::Var(v) => {
                let var = format!("${v}");
                let (source, deferred_parent) = self.atom_source(a)?;
                self.bindings.push((var.clone(), source));
                self.node_expr.insert(v.clone(), var.clone());
                if let Some(w) = deferred_parent {
                    // The parent is reached from the child (`$w in $v/..`)
                    // and must therefore be bound after it.
                    let wref = format!("${w}");
                    self.bindings.push((wref.clone(), format!("{var}/..")));
                    self.node_expr.insert(w, wref);
                }
                (var, false)
            }
            Term::Const(_) => {
                return Err(TranslateError::Unsupported(
                    "constant node identifiers cannot be translated (instantiate \
                     parameters instead)"
                        .to_string(),
                ))
            }
        };
        // The parent of an atom whose id was bound before it (a parameter,
        // or a variable another atom's parent column bound): defined from
        // it when still needed, the same node as it when bound already.
        if let (true, Some(Term::Var(w))) = (prebound, a.args.get(2)) {
            if let Some(parent) = self.node_expr.get(w) {
                self.conds.push(format!("count({self_expr}/.. | {parent}) = 1"));
            } else if self.used_elsewhere(w) {
                self.bindings
                    .push((format!("${w}"), format!("{self_expr}/..")));
                self.node_expr.insert(w.clone(), format!("${w}"));
            }
        }
        // Position column.
        match &a.args[1] {
            Term::Var(v) if !self.used_elsewhere(v) => {}
            Term::Var(v) => {
                self.var_expr.insert(
                    v.clone(),
                    format!("(count({self_expr}/preceding-sibling::*) + 1)"),
                );
            }
            rigid => {
                let rendered = self.value_term(rigid)?;
                self.conds.push(format!(
                    "(count({self_expr}/preceding-sibling::*) + 1) = {rendered}"
                ));
            }
        }
        // Data columns.
        for (k, col) in info.cols.iter().enumerate() {
            let term = &a.args[3 + k];
            let expr = format!("{self_expr}/{col}/text()");
            match term {
                Term::Var(v) => {
                    if let Some(existing) = self.var_expr.get(v).cloned() {
                        self.conds.push(format!("{existing} = {expr}"));
                    } else if !self.used_elsewhere(v) {
                        // Unused column: no condition needed.
                    } else {
                        self.var_expr.insert(v.clone(), expr);
                    }
                }
                rigid => {
                    let rendered = self.value_term(rigid)?;
                    self.conds.push(format!("{expr} = {rendered}"));
                }
            }
        }
        Ok(())
    }

    /// The binding source for an atom with a variable id; the second
    /// component names a parent variable that must be defined from the
    /// child (`$w in $id/..`) *after* the child's own binding.
    fn atom_source(&mut self, a: &Atom) -> Result<(String, Option<Var>), TranslateError> {
        match a.args.get(2) {
            Some(Term::Var(w)) => {
                if let Some(parent) = self.node_expr.get(w) {
                    Ok((format!("{parent}/{}", a.pred), None))
                } else {
                    // Free parent: descendant query; the parent variable is
                    // defined from the child when anything else needs it.
                    let deferred = self.used_elsewhere(w).then(|| w.clone());
                    Ok((format!("//{}", a.pred), deferred))
                }
            }
            Some(Term::Param(p)) => {
                let ph = self.param(p, ParamKind::NodePath);
                Ok((format!("{ph}/{}", a.pred), None))
            }
            Some(Term::Const(_)) => Err(TranslateError::Unsupported(
                "constant parent identifiers cannot be translated".to_string(),
            )),
            None => Err(TranslateError::Schema(format!(
                "atom {a} lacks the parent column"
            ))),
        }
    }

    fn comparison(&mut self, x: &Term, op: CompOp, y: &Term) -> Result<(), TranslateError> {
        let is_node = |t: &Term, s: &Self| match t {
            Term::Var(v) => s.node_expr.contains_key(v),
            Term::Param(p) => s.node_params.contains(p),
            Term::Const(_) => false,
        };
        let x_node = is_node(x, self);
        let y_node = is_node(y, self);
        if x_node && y_node {
            // Node identity: XPath `=` compares string values, so use the
            // union-cardinality encoding.
            let ex = self.value_term(x)?;
            let ey = self.value_term(y)?;
            match op {
                CompOp::Eq => self.conds.push(format!("count({ex} | {ey}) = 1")),
                CompOp::Ne => self.conds.push(format!("count({ex} | {ey}) = 2")),
                other => {
                    return Err(TranslateError::Unsupported(format!(
                        "ordered comparison {other} between node identifiers"
                    )))
                }
            }
            return Ok(());
        }
        let ex = self.value_term(x)?;
        let ey = self.value_term(y)?;
        self.conds.push(format!("{ex} {} {ey}", op_str(op)));
        Ok(())
    }

    fn negated_atom(&mut self, a: &Atom) -> Result<(), TranslateError> {
        let info = self.schema.pred(&a.pred).ok_or_else(|| {
            TranslateError::Schema(format!("unknown predicate {}", a.pred))
        })?;
        // Column predicates.
        let mut preds = String::new();
        for (k, col) in info.cols.iter().enumerate() {
            match &a.args[3 + k] {
                Term::Var(v) if !self.used_elsewhere(v) => {} // ¬∃ over the column
                rigid_or_bound => {
                    let rendered = self.value_term(rigid_or_bound)?;
                    preds.push_str(&format!("[{col}/text() = {rendered}]"));
                }
            }
        }
        match &a.args[1] {
            Term::Var(v) if !self.used_elsewhere(v) => {}
            t => {
                let rendered = self.value_term(t)?;
                preds.push_str(&format!(
                    "[(count(preceding-sibling::*) + 1) = {rendered}]"
                ));
            }
        }
        let selector = match &a.args[0] {
            Term::Var(v) if self.node_expr.contains_key(v) => {
                format!("{}/self::{}{preds}", self.node_expr[v], a.pred)
            }
            Term::Param(p) => {
                let ph = self.param(p, ParamKind::NodePath);
                format!("{ph}/self::{}{preds}", a.pred)
            }
            _ => match a.args.get(2) {
                Some(Term::Var(w)) if self.node_expr.contains_key(w) => {
                    format!("{}/{}{preds}", self.node_expr[w], a.pred)
                }
                Some(Term::Param(p)) => {
                    let ph = self.param(p, ParamKind::NodePath);
                    format!("{ph}/{}{preds}", a.pred)
                }
                _ => format!("//{}{preds}", a.pred),
            },
        };
        self.conds.push(format!("not(exists({selector}))"));
        Ok(())
    }

    fn aggregate(
        &mut self,
        lit_idx: usize,
        agg: &Aggregate,
        op: CompOp,
        threshold: &Term,
    ) -> Result<(), TranslateError> {
        // Group generators: pattern variables shared with the rest of the
        // denial but not yet defined get a `for $g in distinct-values(…)`
        // binding over the first column in which they occur.
        let mut pattern_vars: Vec<&Var> = Vec::new();
        for v in agg.pattern.iter().flat_map(|a| &a.args).filter_map(Term::as_var) {
            if !pattern_vars.contains(&v) {
                pattern_vars.push(v);
            }
        }
        for v in pattern_vars {
            if self.node_expr.contains_key(v) || self.var_expr.contains_key(v) {
                continue;
            }
            if !self.occurs_outside(v, lit_idx) {
                continue; // local to this aggregate
            }
            // Column occurrence?
            let generator = self.group_generator(agg, v)?;
            self.bindings
                .push((format!("${v}"), format!("distinct-values({generator})")));
            self.var_expr.insert(v.clone(), format!("${v}"));
        }

        let (path, func_call) = self.aggregate_path(agg)?;
        let var = format!("$agg{}", self.agg_counter);
        self.agg_counter += 1;
        self.lets.push((var.clone(), path));
        let k = self.value_term(threshold)?;
        self.conds
            .push(format!("{} {} {k}", func_call.replace("()", &format!("({var})")), op_str(op)));
        Ok(())
    }

    /// A generator expression for an unbound group variable: the path to
    /// the first pattern column mentioning it.
    fn group_generator(&mut self, agg: &Aggregate, v: &Var) -> Result<String, TranslateError> {
        for a in &agg.pattern {
            let info = self.schema.pred(&a.pred).ok_or_else(|| {
                TranslateError::Schema(format!("unknown predicate {}", a.pred))
            })?;
            for (k, col) in info.cols.iter().enumerate() {
                if a.args[3 + k].as_var() == Some(v) {
                    return Ok(format!("//{}/{col}/text()", a.pred));
                }
            }
        }
        Err(TranslateError::UnsafeVar(format!(
            "group variable {v} does not occur in an aggregate column"
        )))
    }

    /// Builds the sequence path for an aggregate pattern plus the function
    /// call shape (`count()`, `count(distinct-values())`, `sum()`, …).
    fn aggregate_path(&mut self, agg: &Aggregate) -> Result<(String, String), TranslateError> {
        // Identify the counted atom/column.
        enum Target {
            Atom(usize),
            Column(usize, usize), // atom index, column index
        }
        let target = match (&agg.func, &agg.term) {
            (AggFunc::Cnt, _) | (AggFunc::CntD, None) => {
                if agg.pattern.len() != 1 {
                    // Counting join rows is not a path cardinality.
                    if agg.func == AggFunc::Cnt {
                        return Err(TranslateError::Unsupported(
                            "cnt over a multi-atom pattern".to_string(),
                        ));
                    }
                    return Err(TranslateError::Unsupported(
                        "cnt_d without a counted term over a multi-atom pattern".to_string(),
                    ));
                }
                Target::Atom(0)
            }
            (_, Some(Term::Var(v))) => {
                // Node id?
                if let Some(i) = agg
                    .pattern
                    .iter()
                    .position(|a| a.args.first().and_then(Term::as_var) == Some(v))
                {
                    Target::Atom(i)
                } else if let Some((i, k)) = agg.pattern.iter().enumerate().find_map(|(i, a)| {
                    a.args[3..]
                        .iter()
                        .position(|t| t.as_var() == Some(v))
                        .map(|k| (i, k))
                }) {
                    Target::Column(i, k)
                } else {
                    return Err(TranslateError::UnsafeVar(format!(
                        "aggregated term {v} does not occur in the pattern"
                    )));
                }
            }
            (_, t) => {
                return Err(TranslateError::Unsupported(format!(
                    "aggregated term {t:?} must be a pattern variable"
                )))
            }
        };
        let target_atom = match &target {
            Target::Atom(i) | Target::Column(i, _) => *i,
        };

        // Tree structure: child_of[i] = Some(j) when atom i's parent term
        // is atom j's id variable.
        let n = agg.pattern.len();
        let parent_of = |i: usize| -> Option<usize> {
            let p = agg.pattern[i].args.get(2)?.as_var()?;
            agg.pattern
                .iter()
                .position(|b| b.args.first().and_then(Term::as_var) == Some(p))
        };
        // Spine: target atom up to its root.
        let mut spine = vec![target_atom];
        let mut cur = target_atom;
        let mut guard = 0;
        while let Some(p) = parent_of(cur) {
            spine.push(p);
            cur = p;
            guard += 1;
            if guard > n {
                return Err(TranslateError::Unsupported(
                    "cyclic aggregate pattern".to_string(),
                ));
            }
        }
        spine.reverse();
        // Every non-spine atom must hang off a spine atom (possibly
        // transitively).
        let mut hangs: HashMap<usize, Vec<usize>> = HashMap::new();
        for i in 0..n {
            if spine.contains(&i) {
                continue;
            }
            match parent_of(i) {
                Some(p) => hangs.entry(p).or_default().push(i),
                None => {
                    return Err(TranslateError::Unsupported(
                        "disconnected aggregate pattern".to_string(),
                    ))
                }
            }
        }

        // Root anchor.
        let root = spine[0];
        let anchor = match agg.pattern[root].args.get(2) {
            Some(Term::Var(w)) => match self.node_expr.get(w) {
                Some(e) => e.clone(),
                None => "/".to_string(), // unconstrained: //pred below
            },
            Some(Term::Param(p)) => self.param(p, ParamKind::NodePath),
            _ => {
                return Err(TranslateError::Unsupported(
                    "aggregate root with constant parent".to_string(),
                ))
            }
        };

        let mut path = anchor.clone();
        for (si, &i) in spine.iter().enumerate() {
            let seg = self.pattern_segment(agg, i, &hangs, &mut HashSet::new())?;
            if si == 0 && path == "/" {
                path = format!("//{seg}");
            } else {
                path.push('/');
                path.push_str(&seg);
            }
        }
        let func_call = match (&agg.func, &target) {
            (AggFunc::Cnt | AggFunc::CntD, Target::Atom(_)) => "count()".to_string(),
            (AggFunc::CntD, Target::Column(i, k)) => {
                let col = &self.aggregate_column(agg, *i, *k)?;
                path.push_str(&format!("/{col}/text()"));
                "count(distinct-values())".to_string()
            }
            (AggFunc::Sum | AggFunc::Max | AggFunc::Min, Target::Column(i, k)) => {
                let col = &self.aggregate_column(agg, *i, *k)?;
                path.push_str(&format!("/{col}/text()"));
                match agg.func {
                    AggFunc::Sum => "sum()",
                    AggFunc::Max => "max()",
                    AggFunc::Min => "min()",
                    _ => unreachable!(),
                }
                .to_string()
            }
            (AggFunc::Sum | AggFunc::Max | AggFunc::Min, Target::Atom(_)) => {
                return Err(TranslateError::Unsupported(
                    "sum/max/min over node identifiers".to_string(),
                ))
            }
            (AggFunc::Cnt, Target::Column(..)) => "count()".to_string(),
        };
        Ok((path, func_call))
    }

    /// The column name an aggregate target `(i, k)` points at, or a typed
    /// error when the pattern names a relation the schema does not have
    /// (reachable through hand-written constraints over unknown elements).
    fn aggregate_column(
        &self,
        agg: &Aggregate,
        i: usize,
        k: usize,
    ) -> Result<String, TranslateError> {
        let pred = &agg.pattern[i].pred;
        let rel = self.schema.pred(pred).ok_or_else(|| {
            TranslateError::Unsupported(format!("aggregate over unknown relation {pred}"))
        })?;
        rel.cols.get(k).cloned().ok_or_else(|| {
            TranslateError::Unsupported(format!(
                "aggregate target column {k} out of range for relation {pred}"
            ))
        })
    }

    /// One path segment `pred[col-conds][nested child paths]`.
    fn pattern_segment(
        &mut self,
        agg: &Aggregate,
        i: usize,
        hangs: &HashMap<usize, Vec<usize>>,
        visiting: &mut HashSet<usize>,
    ) -> Result<String, TranslateError> {
        if !visiting.insert(i) {
            return Err(TranslateError::Unsupported(
                "cyclic aggregate pattern".to_string(),
            ));
        }
        let a = &agg.pattern[i];
        let info = self.schema.pred(&a.pred).ok_or_else(|| {
            TranslateError::Schema(format!("unknown predicate {}", a.pred))
        })?;
        if a.args.len() != info.arity() {
            return Err(TranslateError::Schema(format!(
                "{} has arity {}, got {}",
                a.pred,
                info.arity(),
                a.args.len()
            )));
        }
        let mut seg = a.pred.clone();
        for (k, col) in info.cols.iter().enumerate() {
            match &a.args[3 + k] {
                Term::Var(v) => {
                    if let Some(e) = self.var_expr.get(v).cloned() {
                        seg.push_str(&format!("[{col}/text() = {e}]"));
                    } else if let Some(e) = self.node_expr.get(v).cloned() {
                        seg.push_str(&format!("[{col}/text() = {e}]"));
                    }
                    // Otherwise local and unconstrained.
                }
                rigid => {
                    let rendered = self.value_term(rigid)?;
                    seg.push_str(&format!("[{col}/text() = {rendered}]"));
                }
            }
        }
        match &a.args[1] {
            Term::Var(_) => {}
            t => {
                let rendered = self.value_term(t)?;
                seg.push_str(&format!(
                    "[(count(preceding-sibling::*) + 1) = {rendered}]"
                ));
            }
        }
        if let Some(children) = hangs.get(&i) {
            for &c in children {
                let child_seg = self.pattern_segment(agg, c, hangs, visiting)?;
                seg.push_str(&format!("[{child_seg}]"));
            }
        }
        Ok(seg)
    }

    /// The paper's single-use inlining: "if a variable is used only once
    /// outside its definition, its occurrence is replaced with its
    /// definition". A quantifier `some $x in S satisfies P($x)` with a
    /// single positive use of `$x` collapses into `P(S)` — XPath's
    /// existential comparison semantics carries the quantification. This
    /// turns the six-binding conflict query into the paper's two-binding
    /// form and is the difference between O(n²) and O(n⁶) full checks.
    ///
    /// Inlining is skipped when the single occurrence sits inside `not(…)`
    /// (negation flips the quantifier), inside `count(…)` (cardinality is
    /// not existential), or in a `let` source (aggregate grouping is per
    /// binding).
    fn inline_single_use(&mut self) {
        // Token-boundary occurrence count of `var` in `text`.
        fn count_occ(text: &str, var: &str) -> usize {
            let mut n = 0;
            let mut start = 0;
            while let Some(pos) = text[start..].find(var) {
                let end = start + pos + var.len();
                let boundary = text[end..]
                    .chars()
                    .next()
                    .is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
                if boundary {
                    n += 1;
                }
                start = start + pos + 1;
            }
            n
        }
        fn replace_one(text: &str, var: &str, with: &str) -> String {
            let mut start = 0;
            while let Some(pos) = text[start..].find(var) {
                let at = start + pos;
                let end = at + var.len();
                let boundary = text[end..]
                    .chars()
                    .next()
                    .is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
                if boundary {
                    return format!("{}{}{}", &text[..at], with, &text[end..]);
                }
                start = at + 1;
            }
            text.to_string()
        }
        'outer: loop {
            for i in 0..self.bindings.len() {
                let (var, src) = self.bindings[i].clone();
                let mut uses = 0usize;
                let mut site: Option<(usize, bool)> = None; // (index, is_cond)
                for (j, (_, s)) in self.bindings.iter().enumerate() {
                    if j == i {
                        continue;
                    }
                    let c = count_occ(s, &var);
                    uses += c;
                    if c == 1 && site.is_none() {
                        site = Some((j, false));
                    }
                }
                let mut in_let = false;
                for (_, s) in &self.lets {
                    let c = count_occ(s, &var);
                    uses += c;
                    if c > 0 {
                        in_let = true;
                    }
                }
                let mut cond_site = None;
                for (j, cnd) in self.conds.iter().enumerate() {
                    let c = count_occ(cnd, &var);
                    uses += c;
                    if c == 1 && cond_site.is_none() {
                        cond_site = Some(j);
                    }
                }
                if uses != 1 || in_let {
                    continue;
                }
                match (site, cond_site) {
                    (Some((j, _)), None) => {
                        self.bindings[j].1 = replace_one(&self.bindings[j].1, &var, &src);
                        self.bindings.remove(i);
                        continue 'outer;
                    }
                    (None, Some(j)) => {
                        let cnd = &self.conds[j];
                        if cnd.contains("not(") || cnd.contains("count(") {
                            continue;
                        }
                        self.conds[j] = replace_one(cnd, &var, &src);
                        self.bindings.remove(i);
                        continue 'outer;
                    }
                    _ => {}
                }
            }
            break;
        }
    }

    fn assemble(mut self, has_aggs: bool) -> String {
        self.inline_single_use();
        let conds = if self.conds.is_empty() {
            "true()".to_string()
        } else {
            self.conds.join(" and ")
        };
        if has_aggs {
            let mut q = String::from("exists(");
            if !self.bindings.is_empty() {
                q.push_str("for ");
                q.push_str(
                    &self
                        .bindings
                        .iter()
                        .map(|(v, s)| format!("{v} in {s}"))
                        .collect::<Vec<_>>()
                        .join(", "),
                );
                q.push(' ');
            }
            for (v, e) in &self.lets {
                q.push_str(&format!("let {v} := {e} "));
            }
            q.push_str(&format!("where {conds} return <idle/>)"));
            q
        } else if self.bindings.is_empty() {
            conds
        } else {
            format!(
                "some {} satisfies {conds}",
                self.bindings
                    .iter()
                    .map(|(v, s)| format!("{v} in {s}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        }
    }
}

fn op_str(op: CompOp) -> &'static str {
    match op {
        CompOp::Eq => "=",
        CompOp::Ne => "!=",
        CompOp::Lt => "<",
        CompOp::Le => "<=",
        CompOp::Gt => ">",
        CompOp::Ge => ">=",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_datalog::{parse_denial, parse_denials};
    use xic_mapping::schema::paper_dtd;

    fn schema() -> RelSchema {
        RelSchema::from_dtd(&paper_dtd()).unwrap()
    }

    fn tr(src: &str) -> QueryTemplate {
        translate_denial(&parse_denial(src).unwrap(), &schema())
            .unwrap_or_else(|e| panic!("{src}: {e}"))
    }

    #[test]
    fn full_conflict_constraint_shape() {
        // The paper's final optimized translation of the second denial.
        let t = tr(
            "<- rev(Ir,_,_,R) & sub(Is,_,Ir,_) & auts(_,_,Is,A) \
             & aut(_,_,Ip,R2) & aut(_,_,Ip,A2) & R2 = R & A2 = A",
        );
        let q = &t.text;
        // Single-use inlining leaves the paper's two-quantifier form:
        //   some $Ir in //rev, $H in //aut
        //   satisfies $H/name/text() = $Ir/name/text()
        //   and $H/../aut/name/text() = $Ir/sub/auts/name/text()
        assert!(q.starts_with("some $Ir in //rev"), "{q}");
        assert_eq!(q.matches(" in ").count(), 2, "exactly two quantifiers: {q}");
        assert!(q.contains("$Ir/sub/auts/name/text()"), "{q}");
        assert!(q.contains("/../aut/name/text()"), "{q}");
        assert!(t.params.is_empty());
        // Parseable by the XQuery engine.
        xic_xquery::parse_query(q).unwrap_or_else(|e| panic!("{q}: {e}"));
    }

    #[test]
    fn simplified_denials_with_parameters() {
        // Simp output of Example 6: `<- rev($ir,_,_,$n)` and the coauthor
        // variant.
        let t1 = tr("<- rev($ir,_,_,$n)");
        // The membership guard keeps the residual from firing when the
        // bound node is not actually a `rev` element.
        assert_eq!(
            t1.text,
            "exists(%{ir}/self::rev) and %{ir}/name/text() = %{n}"
        );
        assert_eq!(t1.params["ir"], ParamKind::NodePath);
        assert_eq!(t1.params["n"], ParamKind::Value);

        let t2 = tr("<- rev($ir,_,_,R) & aut(_,_,Ip,$n) & aut(_,_,Ip,R)");
        let q = &t2.text;
        // Mirrors the paper: some $D in //aut satisfies $D/name/text()=%n
        // and $D/../aut/name/text()=%ir-path/name/text().
        assert!(q.contains("//aut"), "{q}");
        assert!(q.contains("%{n}"), "{q}");
        assert!(q.contains("%{ir}/name/text()"), "{q}");
        assert!(q.contains("/../aut") || q.contains("$Ip/aut"), "{q}");
    }

    #[test]
    fn aggregate_flwor_shape() {
        // Example 7 and the paper's printed translation:
        // exists(for $lr in //rev let $D := $lr/sub where count($D) > 4
        //        return <idle/>)
        let t = tr("<- rev(Ir,_,_,_) & cnt(; sub(_,_,Ir,_)) > 4");
        let q = &t.text;
        assert!(q.starts_with("exists(for $Ir in //rev let $agg0 := $Ir/sub"), "{q}");
        assert!(q.contains("count($agg0) > 4"), "{q}");
        assert!(q.ends_with("return <idle/>)"), "{q}");
        xic_xquery::parse_query(q).unwrap();
    }

    #[test]
    fn simplified_aggregate_with_param() {
        let t = tr("<- rev($ir,_,_,_) & cntd(; sub(_,_,$ir,_)) > 3");
        let q = &t.text;
        assert!(q.contains("let $agg0 := %{ir}/sub"), "{q}");
        assert!(q.contains("count($agg0) > 3"), "{q}");
    }

    #[test]
    fn example_2_group_enumeration() {
        let ds = parse_denials(
            "<- cntd(It; track(It,_,_,_), rev(_,_,It,R)) >= 3 \
             & cntd(Is; rev(Ir,_,_,R), sub(Is,_,Ir,_)) > 10",
        )
        .unwrap();
        let t = translate_denial(&ds[0], &schema()).unwrap();
        let q = &t.text;
        assert!(q.contains("for $R in distinct-values(//rev/name/text())"), "{q}");
        assert!(q.contains("//track[rev/name/text() = $R]") || q.contains("rev[name"), "{q}");
        assert!(q.contains("count($agg0) >= 3"), "{q}");
        assert!(q.contains("count($agg1) > 10"), "{q}");
        xic_xquery::parse_query(q).unwrap_or_else(|e| panic!("{q}: {e}"));
    }

    #[test]
    fn group_generators_follow_the_pattern() {
        // Two group variables of one aggregate: one generator each, in the
        // order the pattern mentions them, on every run.
        let q = tr("<- cntd(S; sub(S,_,I,T), auts(_,_,S,N)) > 1 & T != N").text;
        let (t, n) = (q.find("for $T in distinct-values"), q.find("$N in distinct-values"));
        assert!(t.is_some() && t < n, "{q}");
    }

    #[test]
    fn position_conditions() {
        let t = tr("<- track(It, 2, _, _) & rev(_, 6, It, \"Goofy\")");
        let q = &t.text;
        assert!(
            q.contains("(count($It/preceding-sibling::*) + 1) = 2"),
            "{q}"
        );
        xic_xquery::parse_query(q).unwrap();
    }

    #[test]
    fn negated_atom() {
        let t = tr("<- rev(Ir,_,_,R) & not rev(_,_,_,R)");
        // Degenerate but exercises the not(exists(…)) shape.
        assert!(t.text.contains("not(exists(//rev[name/text() = "), "{}", t.text);
        xic_xquery::parse_query(&t.text).unwrap();
    }

    #[test]
    fn node_identity_comparison() {
        let t = tr("<- rev(Ir,_,_,_) & rev(Jr,_,_,_) & Ir != Jr");
        assert!(t.text.contains("count($Ir | $Jr) = 2"), "{}", t.text);
        xic_xquery::parse_query(&t.text).unwrap();
    }

    /// An atom addressed by a parameter reaches its parent, which another
    /// atom names, instead of leaving it to be searched for unjoined; an
    /// atom whose id is bound already asserts its membership.
    #[test]
    fn a_parameter_atom_reaches_the_parent_another_atom_names() {
        let t = tr("<- rev(Ir,_,_,R) & sub($t,_,Ir,_) & R = $v");
        assert_eq!(
            t.text,
            "some $Ir in %{t}/.. satisfies exists(%{t}/self::sub) and exists($Ir/self::rev) \
             and $Ir/name/text() = %{v}"
        );
        // Two parameters with one parent: the second is the same node.
        let t = tr("<- sub($s,_,Ir,_) & sub($u,_,Ir,_)");
        assert!(t.text.contains("count(%{u}/.. | $Ir) = 1"), "{}", t.text);
    }

    /// Of the `//pred` binders ready at once, one with a parameter column
    /// binds first: the renamed reviewer's co-author check probes the new
    /// name's pubs once, not those of each author the reviewer reviews.
    #[test]
    fn a_binder_with_a_parameter_column_binds_first() {
        let t = tr("<- sub(S,_,$n,_) & auts(_,_,S,A) & aut(_,_,Ip,A) & aut(J,_,Ip,$v)");
        assert!(t.text.starts_with("some $J in //aut satisfies"), "{}", t.text);
        assert!(t.text.contains("$J/name/text() = %{v}"), "{}", t.text);
    }

    #[test]
    fn empty_denial_is_true() {
        let t = translate_denial(&Denial::always_violated(), &schema()).unwrap();
        assert_eq!(t.text, "true()");
    }

    #[test]
    fn unknown_predicate_rejected() {
        let e = translate_denial(&parse_denial("<- zzz(X)").unwrap(), &schema()).unwrap_err();
        assert!(matches!(e, TranslateError::Schema(_)));
    }

    #[test]
    fn unsafe_variable_rejected() {
        let e =
            translate_denial(&parse_denial("<- rev(Ir,_,_,R) & R = Z").unwrap(), &schema())
                .unwrap_err();
        assert!(matches!(e, TranslateError::UnsafeVar(_)));
    }

    #[test]
    fn inlining_keeps_multi_use_variables() {
        // R is used in two conditions: $Ir must stay quantified.
        let t = tr("<- rev(Ir,_,_,R) & R != \"x\" & R != \"y\"");
        assert!(t.text.contains("some $Ir in //rev"), "{}", t.text);
    }

    #[test]
    fn inlining_skips_negation_contexts() {
        // $Jr's only use is inside not(exists(…)): the quantifier must
        // survive (inlining into a negation flips the quantifier).
        let t = tr("<- rev(Ir,_,_,R) & not rev(_,_,_,R)");
        assert!(
            t.text.contains("not(exists("),
            "{}", t.text
        );
        // And the negated condition still references a defined expression.
        xic_xquery::parse_query(&t.text).unwrap();
    }

    #[test]
    fn inlining_skips_position_contexts() {
        // The position condition contains count(...): no inlining into it.
        let t = tr("<- track(It, 2, _, _)");
        assert!(t.text.contains("some $It in //track"), "{}", t.text);
        assert!(t.text.contains("count($It/preceding-sibling::*)"), "{}", t.text);
    }

    #[test]
    fn pure_existence_binding_is_kept() {
        let t = tr("<- track(It, _, _, _)");
        assert_eq!(t.text, "some $It in //track satisfies true()");
        xic_xquery::parse_query(&t.text).unwrap();
    }

    #[test]
    fn chained_inlining_collapses_paths() {
        // rev -> sub -> auts chain with one condition at the end collapses
        // completely: XPath's existential comparison carries all three
        // quantifiers.
        let t = tr("<- rev(Ir,_,_,_) & sub(Is,_,Ir,_) & auts(Ia,_,Is,\"x\")");
        assert_eq!(t.text, "//rev/sub/auts/name/text() = \"x\"");
    }

    #[test]
    fn sum_aggregate() {
        // Synthetic: sum over a value column (title used as a number).
        let t = tr("<- rev(Ir,_,_,_) & sum(T; sub(_,_,Ir,T)) > 100");
        assert!(t.text.contains("sum($agg0) > 100"), "{}", t.text);
        assert!(t.text.contains("$Ir/sub/title/text()"), "{}", t.text);
        xic_xquery::parse_query(&t.text).unwrap();
    }
}
