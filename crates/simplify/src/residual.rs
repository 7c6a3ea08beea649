//! A residual constraint of a modification, specialized to the value the
//! modification writes.
//!
//! `After` cannot rewrite a negation or an aggregate over a relation an
//! update deletes from, so under a modification such a constraint is
//! checked on the updated state instead. When it is monotone in the
//! modified relation — read only by positive atoms and by `cnt`/`cntd`
//! compared with `>`/`>=` — and every occurrence of that relation holds
//! the same variable `R` in the one column the modification changes, only
//! the group `R = $v` of the new value can be violated there. The state
//! less the removed tuple is a subset of the consistent present state, so
//! it violates nothing; adding the new tuple can only make true a
//! literal the tuple matches, under `R = $v`. So `φ[R := $v]` holds in
//! the updated state iff φ does, and reads one group instead of all.

use crate::footprint::read_footprint;
use xic_datalog::{Denial, Literal, Term, Update};

/// `φ[R := $v]` for a modification that changes one column of one tuple
/// to the parameter `$v`, when φ is monotone in the modified relation and
/// `R` is the variable every occurrence of the relation holds in that
/// column, a variable no aggregate keeps to itself. `None` otherwise: φ is
/// then checked whole.
pub fn specialize_to_new_value(phi: &Denial, update: &Update) -> Option<Denial> {
    let ([removed], [added]) = (update.removals.as_slice(), update.additions.as_slice()) else {
        return None;
    };
    let same_tuple = removed.pred == added.pred && removed.args.first() == added.args.first();
    let mut changed = removed.args.iter().zip(&added.args).enumerate().filter(|(_, (r, a))| r != a);
    let (Some((col, (_, new @ Term::Param(_)))), None) = (changed.next(), changed.next()) else {
        return None;
    };
    if !same_tuple {
        return None;
    }
    if read_footprint(phi).shrink_sensitive(&added.pred) {
        return None;
    }
    let mut occurrences = phi
        .body
        .iter()
        .flat_map(|l| match l {
            Literal::Pos(a) | Literal::Neg(a) => std::slice::from_ref(a),
            Literal::Agg(g, ..) => &g.pattern[..],
            Literal::Comp(..) => &[],
        })
        .filter(|a| a.pred == added.pred);
    let r = occurrences.next()?.args.get(col)?.as_var()?.clone();
    if !occurrences.all(|a| a.args.get(col).and_then(Term::as_var) == Some(&r)) {
        return None;
    }
    // An aggregate's local variable counts over all its values: `R` must
    // occur outside every single aggregate, so that it is a group.
    let holding: Vec<&Literal> =
        phi.body.iter().filter(|l| l.terms().any(|t| t.as_var() == Some(&r))).collect();
    if holding.len() < 2 && holding.iter().all(|l| matches!(l, Literal::Agg(..))) {
        return None;
    }
    let mut body = phi.body.clone();
    for t in body.iter_mut().flat_map(Literal::terms_mut) {
        if t.as_var() == Some(&r) {
            *t = new.clone();
        }
    }
    Some(Denial::new(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_datalog::{parse_denial, parse_update};

    #[test]
    fn a_group_aggregate_is_specialized_to_the_new_value() {
        let u = parse_update("{-rev($n, $p, $t, $o), rev($n, $p, $t, $v)}").unwrap();
        let workload = parse_denial(
            "<- cntd(T; track(T, _, _, _), rev(_, _, T, R)) >= 3 \
             & cntd(S; rev(I, _, _, R), sub(S, _, I, _)) > 10",
        )
        .unwrap();
        let want = parse_denial(
            "<- cntd(T; track(T, _, _, _), rev(_, _, T, $v)) >= 3 \
             & cntd(S; rev(I, _, _, $v), sub(S, _, I, _)) > 10",
        )
        .unwrap();
        assert!(crate::variants(&specialize_to_new_value(&workload, &u).unwrap(), &want));
        let refused = [
            // An upper bound over the relation: fewer tuples can violate it.
            "<- rev(_, _, _, R) & cntd(T; track(T, _, _, _), rev(_, _, T, R)) < 2",
            // `R` counted inside one aggregate only: all names, not one.
            "<- cntd(R; rev(_, _, _, R)) > 3",
            // Two variables in the modified column.
            "<- rev(_, _, _, R) & rev(_, _, _, Q) & cnt(; track(_, _, _, Q)) > 1",
            // A negation over the relation.
            "<- sub(_, _, I, R) & not rev(I, _, _, R)",
        ];
        for phi in refused {
            assert_eq!(specialize_to_new_value(&parse_denial(phi).unwrap(), &u), None, "{phi}");
        }
    }
}
