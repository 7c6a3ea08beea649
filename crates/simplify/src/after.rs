//! The `After` transformation (Definition 2), extended to aggregates.
//!
//! `After^U(Γ)` is a set of denials that holds in the present state `D` iff
//! Γ holds in `D^U`. For plain atoms this is the textbook rewriting: every
//! atom `p(t̄)` is replaced by `p(t̄) ∨ t̄=ā₁ ∨ … ∨ t̄=āₙ` over the additions
//! on `p`, and the body is distributed to disjunctive normal form, yielding
//! one denial per choice vector. Negated atoms contribute the De Morgan
//! dual: `¬p'(t̄) ⇔ ¬p(t̄) ∧ ⋀ᵢ ⋁ⱼ tⱼ≠āᵢⱼ`, again expanded by
//! distribution.
//!
//! Aggregate literals follow the extension of \[16\] ("Simplification of
//! integrity constraints with aggregates and arithmetic built-ins"): each
//! way the added tuples can embed into the aggregate's pattern produces a
//! case where the group variables are instantiated by the embedding, the
//! residual pattern atoms move into the clause body (where the plain-atom
//! expansion gives them new-state semantics) and the threshold is shifted
//! by the embedding's contribution. See [`AfterError`] for the supported
//! fragment; outside it, callers fall back to full checking.

use crate::reduce::{reduce, Reduced};
use crate::SimpConfig;
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use xic_datalog::{
    AggFunc, Aggregate, Atom, CompOp, Denial, Literal, Subst, Term, Update, Value, Var, VarGen,
};

/// The constraint/update combination falls outside the fragment for which
/// an exact pre-update test can be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AfterError {
    /// The offending denial, rendered.
    pub denial: String,
    /// Why it cannot be simplified.
    pub reason: String,
}

impl fmt::Display for AfterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot simplify `{}`: {}", self.denial, self.reason)
    }
}

impl std::error::Error for AfterError {}

/// Computes `After^U(Γ)` (reduced and de-duplicated, but *not* yet
/// optimized against trusted hypotheses — see
/// [`optimize`](crate::optimize::optimize)), or says why the first
/// constraint it cannot rewrite is out of reach.
pub fn after(
    gamma: &[Denial],
    update: &Update,
    config: &SimpConfig,
) -> Result<Vec<Denial>, AfterError> {
    let (out, unsupported) = after_each(gamma, update, config);
    match unsupported.into_iter().next() {
        Some((_, e)) => Err(e),
        None => Ok(out),
    }
}

/// `After^U` of each constraint on its own: the reduced, de-duplicated
/// expansions of the constraints it can rewrite, and for each it cannot,
/// its index in `gamma` and why. One constraint outside the supported
/// fragment leaves the others' expansions as they are.
pub fn after_each(
    gamma: &[Denial],
    update: &Update,
    config: &SimpConfig,
) -> (Vec<Denial>, Vec<(usize, AfterError)>) {
    let mut gen = VarGen::above(gamma);
    let mut out: Vec<Denial> = Vec::new();
    let mut unsupported = Vec::new();
    let mut seen: HashSet<Denial> = HashSet::new();
    for (i, phi) in gamma.iter().enumerate() {
        let variants = deletions_supported(phi, update)
            .and_then(|()| expand_aggregates(phi.clone(), 0, update, config, &mut gen));
        let variants = match variants {
            Ok(variants) => variants,
            Err(e) => {
                unsupported.push((i, e));
                continue;
            }
        };
        for v in variants {
            for d in expand_atoms(&v, update) {
                if let Reduced::Denial(r) = reduce(d) {
                    if seen.insert(r.canonical_key()) {
                        out.push(r);
                    }
                }
            }
        }
    }
    (out, unsupported)
}

/// A removal is rewritten exactly on positive atoms only: a negated atom
/// or an aggregate over a relation the update deletes from reads the
/// tuples that survive, which no literal of the fragment denotes.
fn deletions_supported(phi: &Denial, update: &Update) -> Result<(), AfterError> {
    let deleted = |a: &Atom| update.removals_on(&a.pred).next().is_some();
    for lit in &phi.body {
        let reason = match lit {
            Literal::Neg(a) if deleted(a) => "a negated atom over a relation the update deletes from",
            Literal::Agg(agg, ..) if agg.pattern.iter().any(deleted) => {
                "an aggregate over a relation the update deletes from"
            }
            _ => continue,
        };
        return Err(AfterError { denial: phi.to_string(), reason: reason.to_string() });
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Plain-atom expansion
// ---------------------------------------------------------------------

/// Expands positive and negated database atoms against the update,
/// producing the DNF case product. Atoms inside aggregate patterns are
/// *not* touched: after [`expand_aggregates`] those denote old-state
/// values by construction. A positive atom over a relation with removals
/// keeps its old-state alternative only for the tuples that survive them
/// (Martinenghi's rule for deletions, by key): `p'(t̄) = (p(t̄) ∧ ⋀ t₁ ≠
/// r₁) ∨ ⋁ t̄ = ā`; [`deletions_supported`] keeps negations and
/// aggregates over such a relation out.
fn expand_atoms(denial: &Denial, update: &Update) -> Vec<Denial> {
    // Each literal maps to a list of alternatives; each alternative is a
    // list of literals replacing the original.
    let mut alternatives: Vec<Vec<Vec<Literal>>> = Vec::with_capacity(denial.body.len());
    let touched = |pred: &str| {
        update.additions_on(pred).next().is_some() || update.removals_on(pred).next().is_some()
    };
    for lit in &denial.body {
        match lit {
            Literal::Pos(a) if touched(&a.pred) => {
                let mut survives = vec![lit.clone()];
                let ids = update.removals_on(&a.pred).filter_map(|r| r.args.first());
                let survive = |(r, t): (&Term, &Term)| Literal::ne(t.clone(), r.clone());
                survives.extend(ids.zip(a.args.first()).map(survive));
                let mut alts: Vec<Vec<Literal>> = vec![survives];
                for add in update.additions_on(&a.pred) {
                    if add.args.len() != a.args.len() {
                        continue; // arity mismatch: cannot be this atom
                    }
                    let eqs: Vec<Literal> = a
                        .args
                        .iter()
                        .zip(&add.args)
                        .map(|(t, u)| Literal::eq(t.clone(), u.clone()))
                        .collect();
                    alts.push(eqs);
                }
                alternatives.push(alts);
            }
            Literal::Neg(a) if update.additions_on(&a.pred).next().is_some() => {
                // ¬p'(t̄) = ¬p(t̄) ∧ ⋀_additions ⋁_columns tⱼ ≠ āⱼ
                let mut alts: Vec<Vec<Literal>> = vec![vec![lit.clone()]];
                for add in update.additions_on(&a.pred) {
                    if add.args.len() != a.args.len() {
                        continue;
                    }
                    let mut next: Vec<Vec<Literal>> = Vec::new();
                    for alt in &alts {
                        for (t, u) in a.args.iter().zip(&add.args) {
                            let mut ext = alt.clone();
                            ext.push(Literal::ne(t.clone(), u.clone()));
                            next.push(ext);
                        }
                    }
                    alts = next;
                }
                alternatives.push(alts);
            }
            other => alternatives.push(vec![vec![other.clone()]]),
        }
    }
    // Cartesian product, the last literal's alternative varying fastest;
    // each case's body is cloned once, from its choice vector. A negated
    // nullary atom an addition makes true leaves no case at all.
    let mut results = Vec::new();
    if alternatives.iter().any(Vec::is_empty) {
        return results;
    }
    let mut pick = vec![0usize; alternatives.len()];
    loop {
        let body = alternatives.iter().zip(&pick).flat_map(|(alts, &p)| alts[p].iter().cloned());
        results.push(Denial::new(body.collect()));
        let Some(slot) = (0..pick.len()).rev().find(|&i| pick[i] + 1 < alternatives[i].len()) else {
            return results;
        };
        pick[slot] += 1;
        pick[slot + 1..].fill(0);
    }
}

// ---------------------------------------------------------------------
// Aggregate expansion
// ---------------------------------------------------------------------

/// One way the update's tuples can embed into an aggregate's pattern.
struct Vector {
    /// Variable bindings induced by unifying selected pattern atoms with
    /// their additions (both group and local variables).
    bindings: BTreeMap<Var, Term>,
    /// Rigid equality conditions that must hold for the embedding.
    conditions: Vec<(Term, Term)>,
    /// Pattern atoms not matched to an addition, under `bindings`, with
    /// remaining local variables renamed fresh; these must hold in the
    /// *new* state and therefore move into the clause body.
    residuals: Vec<Atom>,
    /// Contribution bookkeeping.
    contribution: Contribution,
}

enum Contribution {
    /// +1 matching binding (Cnt / Cnt_D without a counted term).
    One,
    /// One new distinct counted value, a globally fresh parameter.
    DistinctParam(String),
    /// Sum contribution of a known integer amount.
    Amount(i64),
    /// Max/Min candidate value (constant or parameter).
    Candidate(Term),
}

/// Expands aggregate literals (whose patterns mention updated predicates)
/// starting at body index `idx`, recursing over later literals.
fn expand_aggregates(
    denial: Denial,
    idx: usize,
    update: &Update,
    config: &SimpConfig,
    gen: &mut VarGen,
) -> Result<Vec<Denial>, AfterError> {
    let mut i = idx;
    while i < denial.body.len() {
        if let Literal::Agg(agg, op, threshold) = &denial.body[i] {
            let relevant: Vec<usize> = agg
                .pattern
                .iter()
                .enumerate()
                .filter(|(_, a)| update.additions_on(&a.pred).next().is_some())
                .map(|(k, _)| k)
                .collect();
            if !relevant.is_empty() {
                let cases = aggregate_cases(
                    &denial,
                    i,
                    agg,
                    *op,
                    threshold,
                    &relevant,
                    update,
                    config,
                    gen,
                )?;
                let mut out = Vec::new();
                for case in cases {
                    out.extend(expand_aggregates(case, i + 1, update, config, gen)?);
                }
                return Ok(out);
            }
        }
        i += 1;
    }
    Ok(vec![denial])
}

/// Builds the case denials for one aggregate literal.
#[allow(clippy::too_many_arguments)]
fn aggregate_cases(
    denial: &Denial,
    lit_idx: usize,
    agg: &Aggregate,
    op: CompOp,
    threshold: &Term,
    relevant: &[usize],
    update: &Update,
    config: &SimpConfig,
    gen: &mut VarGen,
) -> Result<Vec<Denial>, AfterError> {
    let unsupported = |reason: &str| AfterError {
        denial: denial.to_string(),
        reason: reason.to_string(),
    };

    // Variables of the denial that occur outside this aggregate literal
    // (group variables stay; everything else in the pattern is local).
    let mut outer: HashSet<Var> = HashSet::new();
    for (j, l) in denial.body.iter().enumerate() {
        if j != lit_idx {
            outer.extend(l.terms().filter_map(Term::as_var).cloned());
        }
    }
    outer.extend(threshold.as_var().cloned());

    let single_atom = agg.pattern.len() == 1;

    // Enumerate feasible embedding vectors: every assignment of relevant
    // pattern atoms to (DB | addition) with at least one addition.
    let mut vectors: Vec<Vector> = Vec::new();
    let choices: Vec<Vec<Option<&Atom>>> = relevant
        .iter()
        .map(|&k| {
            let mut c: Vec<Option<&Atom>> = vec![None];
            c.extend(update.additions_on(&agg.pattern[k].pred).map(Some));
            c
        })
        .collect();
    let mut pick = vec![0usize; relevant.len()];
    loop {
        let selected: Vec<(usize, &Atom)> = relevant
            .iter()
            .zip(&pick)
            .filter_map(|(&k, &p)| choices_get(&choices, relevant, k, p).map(|a| (k, a)))
            .collect();
        if !selected.is_empty() {
            if let Some(v) = build_vector(
                agg, &selected, &outer, op, threshold, config, single_atom, gen,
            )
            .map_err(|r| unsupported(&r))?
            {
                vectors.push(v);
            }
        }
        // Advance the mixed-radix counter.
        let mut done = true;
        for (slot, p) in pick.iter_mut().enumerate() {
            *p += 1;
            if *p < choices[slot].len() {
                done = false;
                break;
            }
            *p = 0;
        }
        if done {
            break;
        }
    }

    if vectors.is_empty() {
        // Every embedding is statically infeasible: the aggregate is
        // unaffected by the update.
        return Ok(vec![denial.clone()]);
    }
    if vectors.len() > 8 {
        return Err(unsupported(
            "too many aggregate embedding cases (more than 8)",
        ));
    }

    // Decide the expansion mode.
    let max_min = matches!(agg.func, AggFunc::Max | AggFunc::Min);
    if max_min {
        let ok = match agg.func {
            AggFunc::Max => op.is_lower_bound(),
            AggFunc::Min => op.is_upper_bound(),
            _ => unreachable!(),
        };
        if !ok {
            return Err(unsupported(
                "max/min aggregates support only the monotone comparison direction \
                 (max with >/>=, min with </<=)",
            ));
        }
        // Cases: unchanged literal, plus one case per vector where the
        // candidate value itself violates the bound.
        let mut out = vec![denial.clone()];
        for v in vectors {
            let Contribution::Candidate(val) = &v.contribution else {
                unreachable!("max/min vectors carry candidates")
            };
            let replacement = vec![Literal::Comp(val.clone(), op, threshold.clone())];
            out.push(assemble_case(denial, lit_idx, replacement, &[v], &outer, &[]));
        }
        return Ok(out);
    }

    // Counting/summing aggregates: threshold must be a compile-time
    // integer to shift.
    let k = match threshold {
        Term::Const(Value::Int(k)) => *k,
        _ if vectors.is_empty() => 0,
        _ => {
            return Err(unsupported(
                "aggregate threshold must be an integer constant to be shifted",
            ))
        }
    };

    let negative_sum = vectors.iter().any(|v| matches!(v.contribution, Contribution::Amount(a) if a < 0));
    let need_complements = op.is_upper_bound() || matches!(op, CompOp::Eq | CompOp::Ne) || negative_sum;
    if need_complements && !single_atom {
        return Err(unsupported(
            "non-monotone aggregate comparison over a multi-atom pattern",
        ));
    }

    // Enumerate subsets of vectors.
    let n = vectors.len();
    let mut out: Vec<Denial> = Vec::new();
    'subsets: for mask in 0u32..(1u32 << n) {
        let in_set: Vec<&Vector> = (0..n).filter(|b| mask & (1 << b) != 0).map(|b| &vectors[b]).collect();
        let out_set: Vec<&Vector> = (0..n).filter(|b| mask & (1 << b) == 0).map(|b| &vectors[b]).collect();

        // Shift for this subset.
        let mut shift: i64 = 0;
        let mut distinct: HashSet<&str> = HashSet::new();
        for v in &in_set {
            match &v.contribution {
                Contribution::One => shift += 1,
                Contribution::Amount(a) => shift += a,
                Contribution::DistinctParam(p) => {
                    if distinct.insert(p) {
                        shift += 1;
                    }
                }
                Contribution::Candidate(_) => unreachable!(),
            }
        }

        let kept = if shift == 0 {
            Literal::Agg(agg.clone(), op, threshold.clone())
        } else {
            Literal::Agg(agg.clone(), op, Term::int(k - shift))
        };

        if need_complements {
            // Exact partition: vectors outside the subset must provably
            // not contribute. Each complement picks one violated
            // condition; the product over out-vectors multiplies cases.
            let mut partial: Vec<Vec<Literal>> = vec![Vec::new()];
            for v in &out_set {
                let mut conds: Vec<(Term, Term)> = v
                    .bindings
                    .iter()
                    .filter(|(name, _)| outer.contains(*name))
                    .map(|(name, t)| (Term::Var(name.clone()), t.clone()))
                    .collect();
                conds.extend(v.conditions.iter().cloned());
                if conds.is_empty() {
                    // This vector always contributes: subsets excluding it
                    // are empty cases.
                    continue 'subsets;
                }
                let mut next = Vec::new();
                for p in &partial {
                    for (a, b) in &conds {
                        let mut ext = p.clone();
                        ext.push(Literal::ne(a.clone(), b.clone()));
                        next.push(ext);
                    }
                }
                partial = next;
            }
            for extra in partial {
                out.push(assemble_case(
                    denial,
                    lit_idx,
                    vec![kept.clone()],
                    &in_set,
                    &outer,
                    &extra,
                ));
            }
        } else {
            out.push(assemble_case(denial, lit_idx, vec![kept], &in_set, &outer, &[]));
        }
    }
    Ok(out)
}

fn choices_get<'a>(
    choices: &'a [Vec<Option<&'a Atom>>],
    relevant: &[usize],
    atom_idx: usize,
    pick: usize,
) -> Option<&'a Atom> {
    let slot = relevant.iter().position(|&k| k == atom_idx)?;
    choices[slot][pick]
}

/// Unifies the selected pattern atoms with their additions, classifying
/// outcomes. Returns `Ok(None)` when the vector is statically infeasible
/// (it can never contribute), `Err(reason)` when the aggregate falls
/// outside the supported fragment.
#[allow(clippy::too_many_arguments)]
fn build_vector(
    agg: &Aggregate,
    selected: &[(usize, &Atom)],
    outer: &HashSet<Var>,
    op: CompOp,
    _threshold: &Term,
    config: &SimpConfig,
    single_atom: bool,
    gen: &mut VarGen,
) -> Result<Option<Vector>, String> {
    let mut bindings: BTreeMap<Var, Term> = BTreeMap::new();
    let mut conditions: Vec<(Term, Term)> = Vec::new();
    for (k, add) in selected {
        let pat = &agg.pattern[*k];
        if pat.args.len() != add.args.len() {
            return Ok(None);
        }
        for (t, u) in pat.args.iter().zip(&add.args) {
            match t {
                Term::Var(x) => match bindings.get(x) {
                    Some(prev) => conditions.push((prev.clone(), u.clone())),
                    None => {
                        bindings.insert(x.clone(), u.clone());
                    }
                },
                rigid => conditions.push((rigid.clone(), u.clone())),
            }
        }
    }
    // Resolve decidable conditions.
    let mut kept_conditions = Vec::new();
    for (a, b) in conditions {
        match (&a, &b) {
            (Term::Const(x), Term::Const(y)) => {
                if x != y {
                    return Ok(None);
                }
            }
            (Term::Param(p), Term::Param(q)) if p == q => {}
            _ => kept_conditions.push((a, b)),
        }
    }

    // Residual pattern atoms (everything not selected), grounded through
    // the bindings, locals renamed fresh.
    let selected_idx: HashSet<usize> = selected.iter().map(|(k, _)| *k).collect();
    let mut rename: BTreeMap<Var, Term> = BTreeMap::new();
    let mut residuals = Vec::new();
    for (k, pat) in agg.pattern.iter().enumerate() {
        if selected_idx.contains(&k) {
            continue;
        }
        let args = pat
            .args
            .iter()
            .map(|t| match t {
                Term::Var(x) => {
                    if let Some(b) = bindings.get(x) {
                        b.clone()
                    } else if outer.contains(x) {
                        t.clone()
                    } else {
                        rename
                            .entry(x.clone())
                            .or_insert_with(|| Term::Var(gen.fresh(x)))
                            .clone()
                    }
                }
                rigid => rigid.clone(),
            })
            .collect();
        residuals.push(Atom::new(pat.pred.clone(), args));
    }

    // Contribution analysis.
    let resolve = |t: &Term| -> Term {
        match t {
            Term::Var(x) => bindings.get(x).cloned().unwrap_or_else(|| t.clone()),
            rigid => rigid.clone(),
        }
    };
    let all_fresh = selected
        .iter()
        .all(|(_, add)| config.fresh.addition_is_fresh(add));
    let contribution = match agg.func {
        AggFunc::Cnt | AggFunc::CntD if agg.term.is_none() => {
            if !single_atom {
                return Err(
                    "counting all bindings of a multi-atom pattern cannot be shifted \
                     by a constant"
                        .to_string(),
                );
            }
            if !all_fresh {
                return Err(
                    "count aggregate requires added tuples to be provably fresh \
                     (set a FreshSpec)"
                        .to_string(),
                );
            }
            Contribution::One
        }
        AggFunc::Cnt => {
            // Cnt with an explicit term counts bindings regardless of the
            // term: same as above.
            if !single_atom {
                return Err("multi-atom cnt cannot be shifted".to_string());
            }
            if !all_fresh {
                return Err("cnt requires fresh additions".to_string());
            }
            Contribution::One
        }
        AggFunc::CntD => {
            let t = agg.term.as_ref().expect("checked Some above");
            match resolve(t) {
                Term::Param(p) if is_fresh_param(&config.fresh, &p) => {
                    if !single_atom && !op.is_lower_bound() {
                        return Err(
                            "multi-atom cnt_d supports only >/>= comparisons".to_string()
                        );
                    }
                    Contribution::DistinctParam(p)
                }
                other => {
                    return Err(format!(
                        "cnt_d counted term resolves to {other}, which is not a \
                         provably fresh parameter"
                    ))
                }
            }
        }
        AggFunc::Sum => {
            if !single_atom {
                return Err("multi-atom sum cannot be shifted".to_string());
            }
            if !all_fresh {
                return Err("sum requires fresh additions".to_string());
            }
            let t = agg.term.as_ref().ok_or("sum requires a term")?;
            match resolve(t) {
                Term::Const(Value::Int(v)) => Contribution::Amount(v),
                other => {
                    return Err(format!(
                        "sum contribution {other} is not an integer constant"
                    ))
                }
            }
        }
        AggFunc::Max | AggFunc::Min => {
            if !single_atom {
                return Err("multi-atom max/min cannot be simplified".to_string());
            }
            let t = agg.term.as_ref().ok_or("max/min require a term")?;
            match resolve(t) {
                v @ (Term::Const(_) | Term::Param(_)) => Contribution::Candidate(v),
                other => {
                    return Err(format!(
                        "max/min candidate {other} is not rigid after unification"
                    ))
                }
            }
        }
    };

    Ok(Some(Vector {
        bindings,
        conditions: kept_conditions,
        residuals,
        contribution,
    }))
}

fn is_fresh_param(fresh: &crate::FreshSpec, p: &str) -> bool {
    match fresh {
        crate::FreshSpec::None => false,
        // AllFresh asserts tuple-level freshness, which does not imply any
        // particular column value is globally new.
        crate::FreshSpec::AllFresh => false,
        crate::FreshSpec::Params(ps) => ps.contains(p),
    }
}

/// Builds one case denial: the aggregate literal at `lit_idx` is replaced
/// by `replacement`, the in-vectors' conditions and residuals plus the
/// `complements` literals are added, and the merged group bindings are
/// applied as a substitution to the whole clause (complements included, so
/// exclusion conditions track the instantiated group variables).
fn assemble_case(
    denial: &Denial,
    lit_idx: usize,
    replacement: Vec<Literal>,
    in_set: &[impl std::borrow::Borrow<Vector>],
    outer: &HashSet<Var>,
    complements: &[Literal],
) -> Denial {
    // Merge group bindings; conflicts become equality conditions between
    // the competing addition terms.
    let mut group: BTreeMap<Var, Term> = BTreeMap::new();
    let mut extra: Vec<Literal> = Vec::new();
    for v in in_set {
        let v = v.borrow();
        for (name, t) in &v.bindings {
            if !outer.contains(name) {
                continue;
            }
            match group.get(name) {
                Some(prev) if prev != t => extra.push(Literal::eq(prev.clone(), t.clone())),
                Some(_) => {}
                None => {
                    group.insert(name.clone(), t.clone());
                }
            }
        }
        for (a, b) in &v.conditions {
            extra.push(Literal::eq(a.clone(), b.clone()));
        }
        for r in &v.residuals {
            extra.push(Literal::Pos(r.clone()));
        }
    }
    let mut body: Vec<Literal> = Vec::with_capacity(denial.body.len() + extra.len());
    for (j, l) in denial.body.iter().enumerate() {
        if j == lit_idx {
            body.extend(replacement.iter().cloned());
        } else {
            body.push(l.clone());
        }
    }
    body.extend(extra);
    body.extend(complements.iter().cloned());
    let mut s = Subst::new();
    for (name, t) in group {
        s.bind(&name, &t);
    }
    for l in &mut body {
        s.apply(l);
    }
    Denial::new(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FreshSpec;
    use xic_datalog::{parse_denial, parse_update};

    fn run(phi: &str, u: &str, fresh: FreshSpec) -> Result<Vec<String>, AfterError> {
        let cfg = SimpConfig { fresh };
        let out = after(
            &[parse_denial(phi).unwrap()],
            &parse_update(u).unwrap(),
            &cfg,
        )?;
        Ok(out.iter().map(std::string::ToString::to_string).collect())
    }

    #[test]
    fn example_4_after_shape() {
        // After reduction and variant dedup, Example 4 yields the original
        // plus the single instantiated case (the tautology is dropped and
        // the two symmetric cases collapse).
        let out = run("<- p(X,Y) & p(X,Z) & Y != Z", "{p($i,$t)}", FreshSpec::None).unwrap();
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().any(|s| s == "<- p(X, Y) & p(X, Z) & Y != Z"));
        assert!(out.iter().any(|s| s == "<- p($i, Y) & Y != $t"), "{out:?}");
    }

    #[test]
    fn fresh_names_never_capture_an_input_variable() {
        // The residual `b` keeps the aggregate-local `W` apart from the
        // outer `W__4`: a capture would join them and miss violations.
        let out = run(
            "<- q(W__4) & cntd(S; a(S, Z), b(Z, W)) >= 2",
            "{a($s, $z)}",
            FreshSpec::params(["s"]),
        )
        .unwrap();
        assert!(out.iter().any(|s| s.contains(">= 1 & b($z, W__5)")), "{out:?}");
        assert!(out.iter().all(|s| !s.contains("b($z, W__4)")), "{out:?}");
    }

    #[test]
    fn unrelated_update_leaves_gamma() {
        let out = run("<- p(X)", "{q($a)}", FreshSpec::None).unwrap();
        assert_eq!(out, vec!["<- p(X)"]);
    }

    #[test]
    fn negated_atom_expansion() {
        // φ: every r-fact must be mirrored in s. Adding s($a) can only
        // help; adding r($a) threatens.
        let out = run("<- r(X) & not s(X)", "{s($a)}", FreshSpec::None).unwrap();
        // Cases: original with extra X != $a, i.e. the De Morgan dual.
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].contains("not s(X)"), "{out:?}");
        assert!(out[0].contains("X != $a"), "{out:?}");

        let out2 = run("<- r(X) & not s(X)", "{r($a)}", FreshSpec::None).unwrap();
        assert_eq!(out2.len(), 2, "{out2:?}");
        assert!(out2.iter().any(|s| s == "<- not s($a)"), "{out2:?}");
    }

    #[test]
    fn aggregate_simple_count_shift() {
        let out = run(
            "<- rev(Ir,_,_,_) & cntd(; sub(_,_,Ir,_)) > 4",
            "{sub($is,$ps,$ir,$t)}",
            FreshSpec::params(["is"]),
        )
        .unwrap();
        // Lower-bound comparisons need no complements: the base case is the
        // unchanged constraint, plus the shifted in-case.
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(
            out.iter()
                .any(|s| s.contains("cntd(; sub(") && s.contains("> 3") && s.contains("$ir")),
            "{out:?}"
        );
        assert!(out.iter().any(|s| s.contains("> 4")), "{out:?}");
    }

    #[test]
    fn aggregate_count_requires_freshness() {
        let err = run(
            "<- rev(Ir,_,_,_) & cnt(; sub(_,_,Ir,_)) > 4",
            "{sub($is,$ps,$ir,$t)}",
            FreshSpec::None,
        )
        .unwrap_err();
        assert!(err.reason.contains("fresh"), "{err}");
    }

    #[test]
    fn aggregate_multi_atom_cntd() {
        // Example 2's second aggregate: distinct submissions per reviewer
        // name across tracks.
        let out = run(
            "<- cntd(Is; rev(Ir2,_,_,R), sub(Is,_,Ir2,_)) > 10 & t(R)",
            "{sub($is,$ps,$ir,$t)}",
            FreshSpec::params(["is"]),
        )
        .unwrap();
        assert_eq!(out.len(), 2, "{out:?}");
        // The in-case: threshold drops to 9, residual rev atom appears.
        let in_case = out
            .iter()
            .find(|s| s.contains("> 9"))
            .unwrap_or_else(|| panic!("no shifted case in {out:?}"));
        assert!(in_case.contains("rev($ir,"), "{in_case}");
    }

    #[test]
    fn aggregate_multi_atom_upper_bound_unsupported() {
        let err = run(
            "<- cntd(Is; rev(Ir2,_,_,R), sub(Is,_,Ir2,_)) < 2 & t(R)",
            "{sub($is,$ps,$ir,$t)}",
            FreshSpec::params(["is"]),
        )
        .unwrap_err();
        assert!(
            err.reason.contains("multi-atom") || err.reason.contains(">/>="),
            "{err}"
        );
    }

    #[test]
    fn aggregate_upper_bound_single_atom_partition() {
        // cnt < 2: inserting can only reduce slack; exact partition keeps
        // both the in and out cases.
        let out = run(
            "<- r(G) & cnt(; s(_, G)) < 2",
            "{s($i, $g)}",
            FreshSpec::params(["i"]),
        )
        .unwrap();
        assert!(out.iter().any(|s| s.contains("< 1")), "{out:?}");
        assert!(
            out.iter().any(|s| s.contains("< 2") && s.contains("!=")),
            "{out:?}"
        );
    }

    #[test]
    fn sum_shift() {
        let out = run(
            "<- acct(A) & sum(V; txn(_, A, V)) > 100",
            "{txn($t, $a, 30)}",
            FreshSpec::params(["t"]),
        )
        .unwrap();
        assert!(out.iter().any(|s| s.contains("> 70")), "{out:?}");
    }

    #[test]
    fn sum_with_param_amount_unsupported() {
        let err = run(
            "<- acct(A) & sum(V; txn(_, A, V)) > 100",
            "{txn($t, $a, $v)}",
            FreshSpec::params(["t"]),
        )
        .unwrap_err();
        assert!(err.reason.contains("integer constant"), "{err}");
    }

    #[test]
    fn max_candidate_case() {
        let out = run(
            "<- lim(G) & max(V; m(_, G, V)) > 50",
            "{m($i, $g, $v)}",
            FreshSpec::None,
        )
        .unwrap();
        // One case compares the new candidate value directly.
        assert!(out.iter().any(|s| s.contains("$v > 50")), "{out:?}");
        // The base case is the unchanged constraint (anonymous variables
        // render with their generated names).
        assert!(
            out.iter().any(|s| s.contains("max(V; m(") && s.contains("> 50") && s.contains("lim(G)")),
            "{out:?}"
        );
    }

    #[test]
    fn max_wrong_direction_unsupported() {
        let err = run(
            "<- lim(G) & max(V; m(_, G, V)) < 50",
            "{m($i, $g, $v)}",
            FreshSpec::None,
        )
        .unwrap_err();
        assert!(err.reason.contains("monotone"), "{err}");
    }

    #[test]
    fn min_candidate_case() {
        let out = run(
            "<- lim(G) & min(V; m(_, G, V)) < 5",
            "{m($i, $g, $v)}",
            FreshSpec::None,
        )
        .unwrap();
        assert!(out.iter().any(|s| s.contains("$v < 5")), "{out:?}");
    }

    #[test]
    fn two_additions_cumulative_shift() {
        let out = run(
            "<- r(G) & cnt(; s(_, G)) > 3",
            "{s($i1, $g1), s($i2, $g2)}",
            FreshSpec::params(["i1", "i2"]),
        )
        .unwrap();
        // Subset with both additions in the same group shifts by 2 and
        // requires the two group parameters to coincide.
        assert!(
            out.iter()
                .any(|s| s.contains("> 1") && s.contains("$g1 = $g2")),
            "{out:?}"
        );
        assert!(out.iter().any(|s| s.contains("> 2")), "{out:?}");
    }
}
