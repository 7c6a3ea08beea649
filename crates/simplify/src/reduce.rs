//! Denial normalization: ground built-in evaluation, equality elimination,
//! duplicate removal and tautology detection.
//!
//! These are the local rewrite rules of the `Optimize` operator ("equalities
//! involving variables are eliminated as needed", "a = a" removal, …).

use xic_datalog::{CompOp, Denial, Literal, Term, Value, Var};

/// Result of reducing a denial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reduced {
    /// The normalized denial (body may be empty: `← true`, always violated).
    Denial(Denial),
    /// The body is unsatisfiable, so the denial holds in every state and
    /// can be discarded ("the last one is a tautology", Example 5).
    TriviallySatisfied,
}

impl Reduced {
    /// Unwraps the denial, if any.
    pub fn into_denial(self) -> Option<Denial> {
        match self {
            Reduced::Denial(d) => Some(d),
            Reduced::TriviallySatisfied => None,
        }
    }
}

/// Compares two rigid terms at compile time, when possible. `None` means
/// the outcome depends on runtime parameter values.
fn eval_rigid(a: &Term, op: CompOp, b: &Term) -> Option<bool> {
    match (a, b) {
        (Term::Const(x), Term::Const(y)) => Some(op.eval(x, y)),
        (Term::Param(p), Term::Param(q)) if p == q => {
            // Same parameter, same value: reflexive comparisons decide.
            Some(matches!(op, CompOp::Eq | CompOp::Le | CompOp::Ge))
        }
        _ => None,
    }
}

/// Canonical orientation for symmetric comparison literals (`=`, `!=`):
/// variables first (alphabetically), then parameters, then constants (by
/// their rendering). This makes variant detection and display
/// deterministic.
fn orient(a: Term, op: CompOp, b: Term) -> Literal {
    let before = |x: &Term, y: &Term| match (x, y) {
        (Term::Var(x), Term::Var(y)) => x < y,
        (Term::Param(x), Term::Param(y)) => x < y,
        (Term::Const(x), Term::Const(y)) => x.to_string() < y.to_string(),
        _ => {
            let rank = |t: &Term| match t {
                Term::Var(_) => 0,
                Term::Param(_) => 1,
                Term::Const(_) => 2,
            };
            rank(x) < rank(y)
        }
    };
    if matches!(op, CompOp::Eq | CompOp::Ne) && before(&b, &a) {
        return Literal::Comp(b, op, a);
    }
    Literal::Comp(a, op, b)
}

/// Normalizes a denial to a fixpoint:
///
/// * ground comparisons are evaluated (true → dropped, false → the whole
///   denial is trivially satisfied);
/// * `X = t` binds `X` and is dropped;
/// * reflexive comparisons on equal terms are decided;
/// * duplicate literals are removed;
/// * directly contradictory comparison pairs (`t = u` with `t != u`, or
///   `t < u` with `t >= u`, …) make the denial trivially satisfied;
/// * counting aggregates compared against impossible constants (`cnt < 0`,
///   `cnt >= 0`, …) are decided.
pub fn reduce(denial: Denial) -> Reduced {
    let mut body: Vec<Literal> = denial.body;
    loop {
        // The one variable equality this pass consumes: `var := term`.
        let mut subst: Option<(Var, Term)> = None;
        let mut new_body: Vec<Literal> = Vec::with_capacity(body.len());
        let mut changed = false;
        for lit in body {
            match lit {
                Literal::Comp(a, op, b) => {
                    if a == b {
                        // Reflexive: decided by the operator alone.
                        if matches!(op, CompOp::Eq | CompOp::Le | CompOp::Ge) {
                            changed = true;
                            continue; // literal is true: drop
                        }
                        return Reduced::TriviallySatisfied;
                    }
                    if a.is_rigid() && b.is_rigid() {
                        match eval_rigid(&a, op, &b) {
                            Some(true) => {
                                changed = true;
                                continue;
                            }
                            Some(false) => return Reduced::TriviallySatisfied,
                            None => {
                                new_body.push(orient(a, op, b));
                                continue;
                            }
                        }
                    }
                    // Equality with a variable on one side: substitute.
                    match (a, b) {
                        (Term::Var(v), t) | (t, Term::Var(v))
                            if op == CompOp::Eq && subst.is_none() =>
                        {
                            subst = Some((v, t));
                            changed = true; // literal consumed by the substitution
                        }
                        (a, b) => new_body.push(orient(a, op, b)),
                    }
                }
                Literal::Agg(agg, op, t) => {
                    // Counting aggregates are always >= 0.
                    if matches!(
                        agg.func,
                        xic_datalog::AggFunc::Cnt | xic_datalog::AggFunc::CntD
                    ) {
                        if let Term::Const(Value::Int(k)) = t {
                            let decided = match op {
                                CompOp::Ge if k <= 0 => Some(true),
                                CompOp::Gt if k < 0 => Some(true),
                                CompOp::Lt if k <= 0 => Some(false),
                                CompOp::Le if k < 0 => Some(false),
                                _ => None,
                            };
                            match decided {
                                Some(true) => {
                                    changed = true;
                                    continue;
                                }
                                Some(false) => return Reduced::TriviallySatisfied,
                                None => {}
                            }
                        }
                    }
                    new_body.push(Literal::Agg(agg, op, t));
                }
                other => new_body.push(other),
            }
        }
        body = new_body;
        if let Some((v, t)) = &subst {
            // Every occurrence, aggregate patterns included.
            for x in body.iter_mut().flat_map(Literal::terms_mut) {
                if x.as_var() == Some(v) {
                    *x = t.clone();
                }
            }
            continue;
        }
        if !changed {
            break;
        }
    }

    // Duplicate removal (order-preserving).
    let mut deduped: Vec<Literal> = Vec::with_capacity(body.len());
    for l in body {
        if !deduped.contains(&l) {
            deduped.push(l);
        }
    }

    // Direct contradictions between comparison literals over the same pair
    // of terms.
    for (i, l1) in deduped.iter().enumerate() {
        if let Literal::Comp(a1, op1, b1) = l1 {
            for l2 in &deduped[i + 1..] {
                if let Literal::Comp(a2, op2, b2) = l2 {
                    let same = a1 == a2 && b1 == b2;
                    let flipped = a1 == b2 && b1 == a2;
                    if !(same || flipped) {
                        continue;
                    }
                    let o2 = if same { *op2 } else { op2.flip() };
                    if contradictory(*op1, o2) {
                        return Reduced::TriviallySatisfied;
                    }
                }
            }
        }
    }

    Reduced::Denial(Denial::new(deduped))
}

/// True if `a op1 b ∧ a op2 b` is unsatisfiable for all values.
fn contradictory(op1: CompOp, op2: CompOp) -> bool {
    use CompOp::{Eq, Ge, Gt, Le, Lt, Ne};
    matches!(
        (op1, op2),
        (Eq, Ne)
            | (Ne, Eq)
            | (Eq, Lt)
            | (Lt, Eq)
            | (Eq, Gt)
            | (Gt, Eq)
            | (Lt, Gt)
            | (Gt, Lt)
            | (Lt, Ge)
            | (Ge, Lt)
            | (Gt, Le)
            | (Le, Gt)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_datalog::parse_denial;

    fn red(s: &str) -> Reduced {
        reduce(parse_denial(s).unwrap())
    }

    fn red_str(s: &str) -> String {
        match red(s) {
            Reduced::Denial(d) => d.to_string(),
            Reduced::TriviallySatisfied => "TAUT".to_string(),
        }
    }

    #[test]
    fn ground_comparisons_evaluated() {
        assert_eq!(red_str("<- p(X) & 1 < 2"), "<- p(X)");
        assert_eq!(red_str("<- p(X) & 2 < 1"), "TAUT");
        assert_eq!(red_str("<- p(X) & \"a\" = \"a\""), "<- p(X)");
    }

    #[test]
    fn reflexive_params() {
        assert_eq!(red_str("<- p(X) & $a = $a"), "<- p(X)");
        assert_eq!(red_str("<- p(X) & $a != $a"), "TAUT");
        assert_eq!(red_str("<- p(X) & $a <= $a"), "<- p(X)");
        assert_eq!(red_str("<- p(X) & $a < $a"), "TAUT");
    }

    #[test]
    fn param_const_kept() {
        assert_eq!(red_str("<- p(X) & $a = 3"), "<- p(X) & $a = 3");
        assert_eq!(red_str("<- $a != $b"), "<- $a != $b");
    }

    #[test]
    fn equality_substitution() {
        assert_eq!(red_str("<- X = $i & p(X, Y) & Y = 3"), "<- p($i, 3)");
        assert_eq!(red_str("<- X = Y & p(X) & q(Y)"), "<- p(Y) & q(Y)");
    }

    #[test]
    fn example_4_cases() {
        // The four members of After^U({φ}) from Example 4, reduced.
        assert_eq!(
            red_str("<- p(X,Y) & X = $i & Z = $t & Y != Z"),
            "<- p($i, Y) & Y != $t"
        );
        assert_eq!(
            red_str("<- X = $i & Y = $t & X = $i & Z = $t & Y != Z"),
            "TAUT"
        );
    }

    #[test]
    fn duplicates_removed() {
        assert_eq!(red_str("<- p(X) & p(X) & q(X)"), "<- p(X) & q(X)");
    }

    #[test]
    fn contradictory_comparisons() {
        assert_eq!(red_str("<- p(X) & $a = 3 & $a != 3"), "TAUT");
        assert_eq!(red_str("<- p(X) & $a < $b & $a >= $b"), "TAUT");
        assert_eq!(red_str("<- p(X) & $a < $b & $b < $a"), "TAUT");
    }

    #[test]
    fn count_bounds() {
        assert_eq!(red_str("<- p(X) & cnt(; q(_)) >= 0"), "<- p(X)");
        assert_eq!(red_str("<- p(X) & cnt(; q(_)) < 0"), "TAUT");
        assert_eq!(red_str("<- p(X) & cnt(; q(_)) > -1"), "<- p(X)");
        assert_eq!(
            red_str("<- p(X) & cntd(; q(_)) > 3"),
            "<- p(X) & cntd(; q(_0)) > 3"
        );
    }

    #[test]
    fn symmetric_orientation_is_canonical() {
        assert_eq!(red_str("<- $t != Y & p(Y)"), red_str("<- Y != $t & p(Y)"));
    }

    #[test]
    fn empty_body_survives() {
        let d = Denial::always_violated();
        assert_eq!(reduce(d), Reduced::Denial(Denial::always_violated()));
    }
}
