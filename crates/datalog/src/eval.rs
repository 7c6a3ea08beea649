//! Ground-truth evaluation of denials over a [`Database`].
//!
//! This is a straightforward index-nested-loop conjunctive-query evaluator
//! with safe negation and grouped aggregates. It defines the semantics that
//! the simplification procedure (`xic-simplify`) and the XQuery translation
//! (`xic-translate`) are tested against: both must agree with this
//! evaluator on every document.

use crate::atom::Atom;
use crate::denial::Denial;
use crate::literal::{AggFunc, Aggregate, CompOp, Literal};
use crate::store::Database;
use crate::term::{Term, Var};
use crate::value::Value;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// Errors raised when a denial cannot be evaluated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A variable occurs only in positions that cannot bind it (unsafe
    /// clause), e.g. a negated atom or a comparison over an otherwise
    /// unused variable.
    UnsafeVar(String),
    /// A parameter was not instantiated before evaluation.
    UnboundParam(String),
    /// An aggregate over non-integer values, or a malformed aggregate.
    Type(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnsafeVar(v) => write!(f, "unsafe variable {v}"),
            EvalError::UnboundParam(p) => write!(f, "unbound parameter ${p}"),
            EvalError::Type(m) => write!(f, "type error: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A binding of variable names to values — a witness that a denial body is
/// satisfiable (i.e. the constraint is violated).
pub type Witness = HashMap<Var, Value>;

/// Checks whether `denial` holds in `db` (body unsatisfiable).
pub fn denial_holds(db: &Database, denial: &Denial) -> Result<bool, EvalError> {
    Ok(find_violation(db, denial)?.is_none())
}

/// Checks whether every denial in `denials` holds in `db`.
pub fn denials_hold(db: &Database, denials: &[Denial]) -> Result<bool, EvalError> {
    for d in denials {
        if !denial_holds(db, d)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Searches for a satisfying binding of `denial`'s body in `db`. Returns
/// `Some(witness)` when the constraint is violated, `None` when it holds.
pub fn find_violation(db: &Database, denial: &Denial) -> Result<Option<Witness>, EvalError> {
    // Occurrence map: variable → indexes of body literals it appears in.
    let mut occurs: HashMap<Var, Vec<usize>> = HashMap::new();
    for (i, l) in denial.body.iter().enumerate() {
        for v in l.terms().filter_map(Term::as_var) {
            occurs.entry(v.clone()).or_default().push(i);
        }
    }
    let mut search = Search {
        db,
        occurs,
        binding: HashMap::new(),
    };
    let remaining: Vec<usize> = (0..denial.body.len()).collect();
    if search.solve(&denial.body, &remaining)? {
        Ok(Some(search.binding))
    } else {
        Ok(None)
    }
}

/// An unsafe-variable error naming `v`, or `?` when there is none.
fn unsafe_var(v: Option<&Var>) -> EvalError {
    EvalError::UnsafeVar(v.map_or_else(|| "?".to_string(), Var::to_string))
}

struct Search<'a> {
    db: &'a Database,
    occurs: HashMap<Var, Vec<usize>>,
    binding: HashMap<Var, Value>,
}

impl<'a> Search<'a> {
    /// Resolves a term to a concrete value, if possible.
    fn value_of(&self, t: &Term) -> Result<Option<Value>, EvalError> {
        match t {
            Term::Const(v) => Ok(Some(v.clone())),
            Term::Var(v) => Ok(self.binding.get(v).cloned()),
            Term::Param(p) => Err(EvalError::UnboundParam(p.clone())),
        }
    }

    fn literal_ready(&self, l: &Literal) -> Result<bool, EvalError> {
        let all_bound = |terms: &[&Term]| -> Result<bool, EvalError> {
            for t in terms {
                if self.value_of(t)?.is_none() {
                    return Ok(false);
                }
            }
            Ok(true)
        };
        match l {
            Literal::Pos(_) => Ok(true),
            Literal::Neg(a) => all_bound(&a.args.iter().collect::<Vec<_>>()),
            Literal::Comp(x, _, y) => all_bound(&[x, y]),
            Literal::Agg(_, _, t) => all_bound(&[t]),
        }
    }

    /// Picks the next literal to evaluate from `remaining`, preferring
    /// cheap ground filters, then indexed atoms, then aggregates, then
    /// equality binders.
    fn pick(&self, body: &[Literal], remaining: &[usize]) -> Result<usize, EvalError> {
        // 1. Ready non-atom literals (cheap filters).
        for (k, &i) in remaining.iter().enumerate() {
            match &body[i] {
                Literal::Pos(_) => {}
                l => {
                    if self.literal_ready(l)? {
                        // Aggregates with unbound group vars are deferred
                        // to phase 3 unless nothing else can run.
                        let unbound_group = matches!(l, Literal::Agg(..))
                            && l.terms().filter_map(Term::as_var).any(|v| {
                                !self.binding.contains_key(v) && self.is_shared(v, i)
                            });
                        if !unbound_group {
                            return Ok(k);
                        }
                    }
                }
            }
        }
        // 2. Positive atom with the most bound arguments.
        let mut best: Option<(usize, usize)> = None;
        for (k, &i) in remaining.iter().enumerate() {
            if let Literal::Pos(a) = &body[i] {
                let bound = a
                    .args
                    .iter()
                    .filter(|t| matches!(self.value_of(t), Ok(Some(_))))
                    .count();
                if best.is_none_or(|(_, b)| bound > b) {
                    best = Some((k, bound));
                }
            }
        }
        if let Some((k, _)) = best {
            return Ok(k);
        }
        // 3. Aggregate with a ground threshold (group enumeration).
        for (k, &i) in remaining.iter().enumerate() {
            if let Literal::Agg(_, _, t) = &body[i] {
                if self.value_of(t)?.is_some() {
                    return Ok(k);
                }
            }
        }
        // 4. Equality binder: Var = ground.
        for (k, &i) in remaining.iter().enumerate() {
            if let Literal::Comp(x, CompOp::Eq, y) = &body[i] {
                let xb = self.value_of(x)?.is_some();
                let yb = self.value_of(y)?.is_some();
                if xb || yb {
                    return Ok(k);
                }
            }
        }
        // Nothing is evaluable: the clause is unsafe.
        let i = remaining[0];
        Err(unsafe_var(body[i].terms().filter_map(Term::as_var).find(|v| !self.binding.contains_key(*v))))
    }

    /// True if variable `v` occurs in some literal other than literal `i`.
    fn is_shared(&self, v: &Var, i: usize) -> bool {
        self.occurs
            .get(v)
            .is_some_and(|ls| ls.iter().any(|&l| l != i))
    }

    fn solve(&mut self, body: &[Literal], remaining: &[usize]) -> Result<bool, EvalError> {
        if remaining.is_empty() {
            return Ok(true);
        }
        let k = self.pick(body, remaining)?;
        let i = remaining[k];
        let rest: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&j| j != i)
            .collect();
        match &body[i] {
            Literal::Pos(a) => self.solve_atom(a, body, &rest),
            Literal::Neg(a) => {
                let tuple = self.ground_tuple(a)?;
                if self
                    .db
                    .relation(&a.pred)
                    .is_some_and(|r| r.contains(&tuple))
                {
                    Ok(false)
                } else {
                    self.solve(body, &rest)
                }
            }
            Literal::Comp(x, op, y) => {
                match (self.value_of(x)?, self.value_of(y)?) {
                    (Some(a), Some(b)) => {
                        if op.eval(&a, &b) {
                            self.solve(body, &rest)
                        } else {
                            Ok(false)
                        }
                    }
                    // Equality binder (only Eq reaches here via pick rule 4).
                    (Some(a), None) if *op == CompOp::Eq => {
                        self.bind_and_solve(y, a, body, &rest)
                    }
                    (None, Some(b)) if *op == CompOp::Eq => {
                        self.bind_and_solve(x, b, body, &rest)
                    }
                    _ => {
                        Err(unsafe_var(x.as_var().or(y.as_var())))
                    }
                }
            }
            Literal::Agg(agg, op, t) => {
                let threshold = self
                    .value_of(t)?
                    .ok_or_else(|| EvalError::UnsafeVar(t.to_string()))?;
                let groups = self.aggregate_groups(&body[i], agg, i)?;
                for (group_binding, value) in groups {
                    if op.eval(&value, &threshold) {
                        let saved = self.binding.clone();
                        self.binding.extend(group_binding);
                        if self.solve(body, &rest)? {
                            return Ok(true);
                        }
                        self.binding = saved;
                    }
                }
                Ok(false)
            }
        }
    }

    fn bind_and_solve(
        &mut self,
        var_term: &Term,
        v: Value,
        body: &[Literal],
        rest: &[usize],
    ) -> Result<bool, EvalError> {
        let name = var_term
            .as_var()
            .ok_or_else(|| EvalError::UnsafeVar(var_term.to_string()))?
            .clone();
        self.binding.insert(name.clone(), v);
        if self.solve(body, rest)? {
            return Ok(true);
        }
        self.binding.remove(&name);
        Ok(false)
    }

    fn ground_tuple(&self, a: &Atom) -> Result<Vec<Value>, EvalError> {
        let mut out = Vec::with_capacity(a.args.len());
        for t in &a.args {
            match self.value_of(t)? {
                Some(v) => out.push(v),
                None => {
                    return Err(unsafe_var(t.as_var()))
                }
            }
        }
        Ok(out)
    }

    fn solve_atom(
        &mut self,
        a: &Atom,
        body: &[Literal],
        rest: &[usize],
    ) -> Result<bool, EvalError> {
        let Some(rel) = self.db.relation(&a.pred) else {
            return Ok(false); // empty relation: no match
        };
        let mut bound: Vec<Option<Value>> = Vec::with_capacity(a.args.len());
        for t in &a.args {
            bound.push(self.value_of(t)?);
        }
        // Collect candidate tuples up front: the borrow on `rel` must end
        // before we mutate `self.binding`.
        let candidates: Vec<Vec<Value>> = rel.select(&bound).map(<[Value]>::to_vec).collect();
        'tuples: for tuple in candidates {
            let mut newly_bound: Vec<Var> = Vec::new();
            let mut ok = true;
            for (t, v) in a.args.iter().zip(&tuple) {
                match t {
                    Term::Const(c) => {
                        if c != v {
                            ok = false;
                            break;
                        }
                    }
                    Term::Param(p) => {
                        // Clean up any bindings made for this tuple first.
                        for nb in &newly_bound {
                            self.binding.remove(nb);
                        }
                        return Err(EvalError::UnboundParam(p.clone()));
                    }
                    Term::Var(name) => match self.binding.get(name) {
                        Some(existing) => {
                            if existing != v {
                                ok = false;
                                break;
                            }
                        }
                        None => {
                            self.binding.insert(name.clone(), v.clone());
                            newly_bound.push(name.clone());
                        }
                    },
                }
            }
            if ok && self.solve(body, rest)? {
                return Ok(true);
            }
            for nb in &newly_bound {
                self.binding.remove(nb);
            }
            if !ok {
                continue 'tuples;
            }
        }
        Ok(false)
    }

    /// Evaluates an aggregate under the current binding. Returns, for each
    /// group (assignment of unbound *shared* variables), the aggregate
    /// value. With all shared variables already bound there is exactly one
    /// group (possibly with value 0 for counting aggregates, or no group at
    /// all for `Max`/`Min` over an empty pattern).
    #[allow(clippy::type_complexity)]
    fn aggregate_groups(
        &self,
        lit: &Literal,
        agg: &Aggregate,
        lit_index: usize,
    ) -> Result<Vec<(HashMap<Var, Value>, Value)>, EvalError> {
        // Enumerate all bindings of the pattern under the current binding.
        let mut rows: Vec<HashMap<Var, Value>> = Vec::new();
        self.enumerate_pattern(&agg.pattern, 0, &mut HashMap::new(), &mut rows)?;

        // Shared (group) variables: unbound here, used outside this literal.
        // (The threshold is bound, so only the aggregate's own variables
        // can be.)
        let mut group_vars: Vec<Var> = Vec::new();
        for v in lit.terms().filter_map(Term::as_var) {
            let group = !self.binding.contains_key(v) && self.is_shared(v, lit_index);
            if group && !group_vars.contains(v) {
                group_vars.push(v.clone());
            }
        }

        // Partition rows by group key.
        let mut groups: BTreeMap<Vec<Value>, Vec<HashMap<Var, Value>>> = BTreeMap::new();
        for row in rows {
            let key: Vec<Value> = group_vars
                .iter()
                .map(|g| row.get(g).cloned().unwrap_or(Value::Int(0)))
                .collect();
            groups.entry(key).or_default().push(row);
        }
        // When all shared variables are bound, counting aggregates must
        // still report 0 on an empty pattern.
        if groups.is_empty() && group_vars.is_empty() {
            groups.insert(Vec::new(), Vec::new());
        }

        let mut out = Vec::new();
        for (key, rows) in groups {
            let value = match self.aggregate_value(agg, &rows)? {
                Some(v) => v,
                None => continue, // Max/Min over empty pattern: no group
            };
            let gb: HashMap<Var, Value> = group_vars
                .iter()
                .cloned()
                .zip(key)
                .collect();
            out.push((gb, value));
        }
        Ok(out)
    }

    fn aggregate_value(
        &self,
        agg: &Aggregate,
        rows: &[HashMap<Var, Value>],
    ) -> Result<Option<Value>, EvalError> {
        let term_value = |row: &HashMap<Var, Value>| -> Result<Value, EvalError> {
            match agg.term.as_ref() {
                Some(Term::Const(c)) => Ok(c.clone()),
                Some(Term::Var(v)) => row
                    .get(v)
                    .cloned()
                    .or_else(|| self.binding.get(v).cloned())
                    .ok_or_else(|| {
                        EvalError::Type(format!("aggregated variable {v} not bound by pattern"))
                    }),
                Some(Term::Param(p)) => Err(EvalError::UnboundParam(p.clone())),
                None => Err(EvalError::Type(
                    "aggregate function requires a term".to_string(),
                )),
            }
        };
        match agg.func {
            AggFunc::Cnt => Ok(Some(Value::Int(rows.len() as i64))),
            AggFunc::CntD => {
                if agg.term.is_none() {
                    // Distinct full bindings == row count (rows are already
                    // distinct under set semantics).
                    return Ok(Some(Value::Int(rows.len() as i64)));
                }
                let mut seen: HashSet<Value> = HashSet::new();
                for row in rows {
                    seen.insert(term_value(row)?);
                }
                Ok(Some(Value::Int(seen.len() as i64)))
            }
            AggFunc::Sum => {
                let mut total: i64 = 0;
                for row in rows {
                    match term_value(row)? {
                        Value::Int(i) => total += i,
                        Value::Str(s) => {
                            return Err(EvalError::Type(format!("sum over string {s:?}")))
                        }
                    }
                }
                Ok(Some(Value::Int(total)))
            }
            AggFunc::Max | AggFunc::Min => {
                let mut best: Option<Value> = None;
                for row in rows {
                    let v = term_value(row)?;
                    best = Some(match best {
                        None => v,
                        Some(b) => {
                            if (agg.func == AggFunc::Max) == (v > b) {
                                v
                            } else {
                                b
                            }
                        }
                    });
                }
                Ok(best)
            }
        }
    }

    /// Enumerates all bindings of a conjunctive pattern (pattern-local
    /// variables only; variables bound in `self.binding` are fixed).
    fn enumerate_pattern(
        &self,
        pattern: &[Atom],
        idx: usize,
        local: &mut HashMap<Var, Value>,
        out: &mut Vec<HashMap<Var, Value>>,
    ) -> Result<(), EvalError> {
        if idx == pattern.len() {
            out.push(local.clone());
            return Ok(());
        }
        let a = &pattern[idx];
        let Some(rel) = self.db.relation(&a.pred) else {
            return Ok(());
        };
        let mut bound: Vec<Option<Value>> = Vec::with_capacity(a.args.len());
        for t in &a.args {
            let v = match t {
                Term::Const(c) => Some(c.clone()),
                Term::Param(p) => return Err(EvalError::UnboundParam(p.clone())),
                Term::Var(name) => local
                    .get(name)
                    .cloned()
                    .or_else(|| self.binding.get(name).cloned()),
            };
            bound.push(v);
        }
        let candidates: Vec<Vec<Value>> = rel.select(&bound).map(<[Value]>::to_vec).collect();
        for tuple in candidates {
            let mut newly: Vec<Var> = Vec::new();
            let mut ok = true;
            for (t, v) in a.args.iter().zip(&tuple) {
                match t {
                    Term::Const(c) => {
                        if c != v {
                            ok = false;
                            break;
                        }
                    }
                    Term::Param(_) => unreachable!("params rejected above"),
                    Term::Var(name) => {
                        let existing = local
                            .get(name)
                            .cloned()
                            .or_else(|| self.binding.get(name).cloned());
                        match existing {
                            Some(e) => {
                                if &e != v {
                                    ok = false;
                                    break;
                                }
                            }
                            None => {
                                local.insert(name.clone(), v.clone());
                                newly.push(name.clone());
                            }
                        }
                    }
                }
            }
            if ok {
                self.enumerate_pattern(pattern, idx + 1, local, out)?;
            }
            for n in &newly {
                local.remove(n);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_denial, parse_denials};

    fn db_pubs() -> Database {
        // pub(Id, Pos, IdParent, Title); aut(Id, Pos, IdParent, Name)
        let mut db = Database::new();
        let rows: &[(i64, i64, i64, &str)] = &[
            (10, 1, 0, "Duckburg tales"),
            (11, 2, 0, "Taming Web Services"),
        ];
        for &(id, pos, par, t) in rows {
            db.insert(
                "pub",
                vec![id.into(), pos.into(), par.into(), t.into()],
            );
        }
        let auts: &[(i64, i64, i64, &str)] = &[
            (20, 1, 10, "Donald"),
            (21, 2, 10, "Goofy"),
            (22, 1, 11, "Jack"),
        ];
        for &(id, pos, par, n) in auts {
            db.insert(
                "aut",
                vec![id.into(), pos.into(), par.into(), n.into()],
            );
        }
        db
    }

    #[test]
    fn violation_found_with_witness() {
        let db = db_pubs();
        let d =
            parse_denial("<- pub(Ip,_,_,\"Duckburg tales\") & aut(_,_,Ip,N) & N = \"Goofy\"")
                .unwrap();
        let w = find_violation(&db, &d).unwrap().expect("violated");
        assert_eq!(w.get(&Var::new("Ip")), Some(&Value::Int(10)));
        assert_eq!(w.get(&Var::new("N")), Some(&Value::from("Goofy")));
    }

    #[test]
    fn holds_when_no_binding() {
        let db = db_pubs();
        let d = parse_denial("<- pub(Ip,_,_,\"Nonexistent\") & aut(_,_,Ip,_)").unwrap();
        assert!(denial_holds(&db, &d).unwrap());
    }

    #[test]
    fn negation_filters() {
        let db = db_pubs();
        // Violated: there is a pub whose tuple is not mirrored in `gone`.
        let d = parse_denial("<- pub(Ip,P,Q,T) & not gone(Ip,P,Q,T)").unwrap();
        assert!(!denial_holds(&db, &d).unwrap());
        // Holds once the negated relation contains everything.
        let mut db2 = db_pubs();
        db2.insert(
            "gone",
            vec![10.into(), 1.into(), 0.into(), "Duckburg tales".into()],
        );
        db2.insert(
            "gone",
            vec![11.into(), 2.into(), 0.into(), "Taming Web Services".into()],
        );
        assert!(denial_holds(&db2, &d).unwrap());
    }

    #[test]
    fn unsafe_negation_is_an_error() {
        let db = db_pubs();
        let d = parse_denial("<- not q(X)").unwrap();
        assert!(matches!(
            find_violation(&db, &d),
            Err(EvalError::UnsafeVar(_))
        ));
    }

    #[test]
    fn equality_binder() {
        let db = db_pubs();
        let d = parse_denial("<- X = 10 & pub(X,_,_,T) & T = \"Duckburg tales\"").unwrap();
        assert!(!denial_holds(&db, &d).unwrap());
    }

    #[test]
    fn count_aggregate_bound_group() {
        let db = db_pubs();
        // pub 10 has 2 authors: violated for threshold > 1, holds for > 2.
        let d1 = parse_denial("<- pub(Ip,_,_,_) & cnt(; aut(_,_,Ip,_)) > 1").unwrap();
        assert!(!denial_holds(&db, &d1).unwrap());
        let d2 = parse_denial("<- pub(Ip,_,_,_) & cnt(; aut(_,_,Ip,_)) > 2").unwrap();
        assert!(denial_holds(&db, &d2).unwrap());
    }

    #[test]
    fn count_aggregate_zero_on_empty() {
        let db = db_pubs();
        // Every pub has < 5 authors, including the (hypothetical) zero case.
        let d = parse_denial("<- pub(Ip,_,_,_) & cnt(; aut(_,_,Ip,_)) < 5").unwrap();
        assert!(!denial_holds(&db, &d).unwrap()); // 2 < 5: violated
    }

    #[test]
    fn group_enumeration_unbound_shared_var() {
        let mut db = Database::new();
        // r(track, reviewer_name)
        for (t, n) in [(1, "ann"), (2, "ann"), (3, "ann"), (1, "bob")] {
            db.insert("r", vec![t.into(), n.into()]);
        }
        // s(sub, reviewer_name)
        for (s, n) in [(10, "ann"), (11, "ann"), (12, "bob")] {
            db.insert("s", vec![s.into(), n.into()]);
        }
        // R occurs only in the two aggregates: needs group enumeration.
        let d = parse_denial(
            "<- cntd(T; r(T,R)) >= 3 & cntd(S; s(S,R)) >= 2",
        )
        .unwrap();
        let w = find_violation(&db, &d).unwrap().expect("ann violates");
        assert_eq!(w.get(&Var::new("R")), Some(&Value::from("ann")));
        let d2 = parse_denial("<- cntd(T; r(T,R)) >= 3 & cntd(S; s(S,R)) >= 3").unwrap();
        assert!(denial_holds(&db, &d2).unwrap());
    }

    #[test]
    fn sum_max_min() {
        let mut db = Database::new();
        for (id, v) in [(1, 5), (2, 7), (3, 2)] {
            db.insert("m", vec![id.into(), v.into()]);
        }
        assert!(!denial_holds(&db, &parse_denial("<- sum(V; m(_,V)) > 13").unwrap()).unwrap());
        assert!(denial_holds(&db, &parse_denial("<- sum(V; m(_,V)) > 14").unwrap()).unwrap());
        assert!(!denial_holds(&db, &parse_denial("<- max(V; m(_,V)) = 7").unwrap()).unwrap());
        assert!(!denial_holds(&db, &parse_denial("<- min(V; m(_,V)) = 2").unwrap()).unwrap());
        // Max over empty pattern: no group, denial holds.
        assert!(denial_holds(&db, &parse_denial("<- max(V; none(_,V)) > 0").unwrap()).unwrap());
    }

    #[test]
    fn sum_over_strings_is_type_error() {
        let mut db = Database::new();
        db.insert("m", vec![1.into(), "x".into()]);
        assert!(matches!(
            find_violation(&db, &parse_denial("<- sum(V; m(_,V)) > 0").unwrap()),
            Err(EvalError::Type(_))
        ));
    }

    #[test]
    fn params_must_be_instantiated() {
        let db = db_pubs();
        let d = parse_denial("<- pub($i,_,_,_)").unwrap();
        assert!(matches!(
            find_violation(&db, &d),
            Err(EvalError::UnboundParam(_))
        ));
    }

    #[test]
    fn conflict_of_interest_example() {
        // Example 3's second denial against a small rev/pub database.
        let mut db = db_pubs();
        // rev(Id,Pos,IdParentTrack,Name); sub(Id,Pos,IdParentRev,Title);
        // auts(Id,Pos,IdParentSub,Name)
        db.insert("rev", vec![30.into(), 1.into(), 1.into(), "Donald".into()]);
        db.insert("sub", vec![40.into(), 1.into(), 30.into(), "S1".into()]);
        db.insert("auts", vec![50.into(), 1.into(), 40.into(), "Goofy".into()]);
        let gamma = parse_denials(
            "<- rev(Ir,_,_,R) & sub(Is,_,Ir,_) & auts(_,_,Is,R).
             <- rev(Ir,_,_,R) & sub(Is,_,Ir,_) & auts(_,_,Is,A) & aut(_,_,Ip,R) & aut(_,_,Ip,A).",
        )
        .unwrap();
        // Donald reviews a submission authored by Goofy, and Donald & Goofy
        // coauthored pub 10: the second denial is violated.
        assert!(denial_holds(&db, &gamma[0]).unwrap());
        assert!(!denial_holds(&db, &gamma[1]).unwrap());
    }
}
