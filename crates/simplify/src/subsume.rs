//! θ-subsumption between denials, with mild semantic entailment on
//! comparison and aggregate thresholds.
//!
//! A denial φ *subsumes* ψ when there is a substitution θ over φ's
//! variables such that every literal of φθ is entailed by some literal of
//! ψ. Since denials are negative clauses, this means ψ's body is at least
//! as constrained as φ's: whenever φ holds (its body is unsatisfiable), ψ
//! holds too, so ψ is redundant in any set containing φ. This unit-proof
//! restriction of the resolution-based redundancy check of \[16\] suffices
//! for every example in the paper and keeps `Optimize` trivially
//! terminating.
//!
//! A literal of ψ can only entail a literal of φ of the same *kind*: a
//! positive atom with the same predicate and arity (negated atoms
//! likewise), any comparison for a comparison, an aggregate with the same
//! function and pattern length for an aggregate. So a pair is decided in
//! two steps. First the *literal signatures*, the sorted sets of the two
//! clauses' kinds: φ can only subsume ψ when ψ's covers φ's, one merge
//! over two short lists, and most pairs `optimize` meets stop there. A
//! pair that passes is searched by backtracking over `Prepared` clauses,
//! pairing only literals of equal kind; their variables were numbered
//! once, a binding is a slot per number, and each choice point undoes the
//! bindings made since it from a trail.

use xic_datalog::{Atom, CompOp, Denial, Literal, Term, Value, Var};

/// Returns true if `phi` θ-subsumes `psi`, i.e. some substitution of
/// `phi`'s variables maps each of its literals to a literal of `psi` (or
/// one entailed by it). The two clauses may share variable names.
pub fn subsumes(phi: &Denial, psi: &Denial) -> bool {
    Prepared::new(phi).subsumes(&Prepared::new(psi))
}

/// A literal's kind: only a literal of ψ of φ's literal's kind can entail
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind<'a> {
    Pos(&'a str, usize),
    Neg(&'a str, usize),
    Comp,
    /// Aggregate function (as its discriminant) and pattern length.
    Agg(u8, usize),
}

/// A term of a prepared clause: one of its variables by number, or a
/// constant or parameter, which only matches itself.
#[derive(Debug, Clone, Copy)]
enum Slot<'a> {
    Var(usize),
    Rigid(&'a Term),
}

/// A denial prepared once for any number of subsumption tests, on either
/// side: its literals' kinds, its signature and its terms with the
/// variables numbered.
#[derive(Debug)]
pub(crate) struct Prepared<'a> {
    body: &'a [Literal],
    /// The kind of each literal of `body`.
    kinds: Vec<Kind<'a>>,
    /// `kinds`, sorted, without duplicates.
    signature: Vec<Kind<'a>>,
    /// Per literal, its terms in order; an aggregate's are its counted
    /// term, its pattern atoms' arguments back to back, and its threshold.
    slots: Vec<Vec<Slot<'a>>>,
    vars: usize,
}

impl<'a> Prepared<'a> {
    /// Numbers `denial`'s variables and computes its signature.
    pub(crate) fn new(denial: &'a Denial) -> Prepared<'a> {
        let mut names: Vec<&'a Var> = Vec::new();
        let mut slot = |t: &'a Term| match t {
            Term::Var(v) => Slot::Var(names.iter().position(|n| *n == v).unwrap_or_else(|| {
                names.push(v);
                names.len() - 1
            })),
            rigid => Slot::Rigid(rigid),
        };
        let mut kinds = Vec::with_capacity(denial.body.len());
        let mut slots = Vec::with_capacity(denial.body.len());
        for l in &denial.body {
            kinds.push(match l {
                Literal::Pos(a) => Kind::Pos(&a.pred, a.args.len()),
                Literal::Neg(a) => Kind::Neg(&a.pred, a.args.len()),
                Literal::Comp(..) => Kind::Comp,
                Literal::Agg(g, _, _) => Kind::Agg(g.func as u8, g.pattern.len()),
            });
            slots.push(l.terms().map(&mut slot).collect());
        }
        let mut signature = kinds.clone();
        signature.sort_unstable();
        signature.dedup();
        Prepared { body: &denial.body, kinds, signature, slots, vars: names.len() }
    }

    /// [`subsumes`] over prepared clauses: false at once when `psi`'s
    /// signature does not cover this clause's, a backtracking search
    /// (counted as `subsumption_searches`) when it does.
    pub(crate) fn subsumes(&self, psi: &Prepared<'a>) -> bool {
        let mut have = psi.signature.iter();
        if !self.signature.iter().all(|k| have.any(|h| h == k)) {
            return false;
        }
        xic_obs::incr(xic_obs::Counter::SubsumptionSearches);
        let mut m = Matcher { bound: vec![None; self.vars], trail: Vec::new() };
        m.search(self, 0, psi)
    }
}

/// One-sided matcher: only variables of the pattern clause may be bound.
/// Target variables are rigid symbols — binding them would wrongly let
/// `← p(X,X)` subsume `← p(A,B)`.
struct Matcher<'a> {
    /// The target term each pattern variable is bound to, by number.
    bound: Vec<Option<&'a Term>>,
    /// The variables bound so far, in binding order.
    trail: Vec<usize>,
}

impl<'a> Matcher<'a> {
    /// Number of distinct entailment variants tried per comparison literal.
    const VARIANTS: usize = 4;

    fn search(&mut self, phi: &Prepared<'a>, idx: usize, psi: &Prepared<'a>) -> bool {
        let Some(p) = phi.body.get(idx) else {
            return true;
        };
        // A comparison literal can entail the pattern under several
        // distinct substitutions (direct/flipped orientation, with or
        // without threshold weakening); each is a separate choice point.
        let variants = if matches!(p, Literal::Comp(..)) { Self::VARIANTS } else { 1 };
        let candidates = psi.body.iter().zip(&psi.kinds).filter(|(_, k)| **k == phi.kinds[idx]);
        for (t, _) in candidates {
            for variant in 0..variants {
                let mark = self.trail.len();
                if self.literal_entails(t, p, &phi.slots[idx], variant)
                    && self.search(phi, idx + 1, psi)
                {
                    return true;
                }
                self.undo(mark);
            }
        }
        false
    }

    /// Unbinds every variable bound since the trail was `mark` long.
    fn undo(&mut self, mark: usize) {
        for v in self.trail.drain(mark..) {
            self.bound[v] = None;
        }
    }

    /// The target term `p` stands for, if it is rigid or bound.
    fn resolve(&self, p: Slot<'a>) -> Option<&'a Term> {
        match p {
            Slot::Var(v) => self.bound[v],
            Slot::Rigid(r) => Some(r),
        }
    }

    fn match_term(&mut self, p: Slot<'a>, t: &'a Term) -> bool {
        match (p, self.resolve(p)) {
            (Slot::Var(v), None) => {
                self.bound[v] = Some(t);
                self.trail.push(v);
                true
            }
            (_, bound) => bound == Some(t),
        }
    }

    fn match_args(&mut self, p: &[Slot<'a>], t: &'a Atom) -> bool {
        p.iter().zip(&t.args).all(|(p, t)| self.match_term(*p, t))
    }

    /// True if target literal `t`, of the same kind, entails pattern
    /// literal `p·θ` (terms `slots`) for some extension of the bindings,
    /// using the selected match `variant` for comparison literals (0:
    /// direct, 1: flipped, 2/3: same with threshold weakening).
    fn literal_entails(&mut self, t: &'a Literal, p: &Literal, slots: &[Slot<'a>], variant: usize) -> bool {
        match (p, t) {
            (Literal::Pos(_) | Literal::Neg(_), Literal::Pos(ta) | Literal::Neg(ta)) => {
                self.match_args(slots, ta)
            }
            (Literal::Comp(_, pop, _), Literal::Comp(tl, top, tr)) => {
                let (top, a, b) = if variant % 2 == 0 { (*top, tl, tr) } else { (top.flip(), tr, tl) };
                let (pl, pr) = (slots[0], slots[1]);
                if variant < 2 {
                    // Syntactic matching of both sides.
                    return self.match_term(pl, a) && self.match_term(pr, b) && op_implies(top, *pop, None);
                }
                // Threshold weakening on constant right-hand sides:
                // `x top c'` entails `x pop c` for suitable c, c'.
                match (self.resolve(pr), b) {
                    (Some(Term::Const(cp)), Term::Const(ct)) => {
                        self.match_term(pl, a) && op_implies(top, *pop, Some((ct, cp)))
                    }
                    _ => false,
                }
            }
            (Literal::Agg(pagg, pop, _), Literal::Agg(tagg, top, tt)) => {
                // Same function and pattern length (the kind), patterns
                // equal as multisets under θ (the first embedding found is
                // kept), threshold weakened at most.
                match (&pagg.term, &tagg.term) {
                    (None, None) => {}
                    (Some(_), Some(t)) if self.match_term(slots[0], t) => {}
                    _ => return false,
                }
                let mut used = vec![false; tagg.pattern.len()];
                let atoms = &slots[usize::from(pagg.term.is_some())..];
                if !self.embed(&pagg.pattern, atoms, &tagg.pattern, &mut used) {
                    return false;
                }
                // Thresholds: the aggregate values coincide (same
                // pattern), so the entailment table applies with identical
                // left-hand sides.
                let pt = slots[slots.len() - 1];
                match (self.resolve(pt), tt) {
                    (Some(rpt), _) if rpt == tt => op_implies(*top, *pop, None),
                    (Some(Term::Const(cp)), Term::Const(ct)) => op_implies(*top, *pop, Some((ct, cp))),
                    _ => self.match_term(pt, tt) && op_implies(*top, *pop, None),
                }
            }
            _ => false,
        }
    }

    /// Injective multiset matching of pattern atoms (arguments `slots`,
    /// back to back) onto target atoms.
    fn embed(&mut self, pattern: &[Atom], slots: &[Slot<'a>], target: &'a [Atom], used: &mut [bool]) -> bool {
        let Some((first, rest)) = pattern.split_first() else {
            return true;
        };
        let (args, later) = slots.split_at(first.args.len());
        for (i, t) in target.iter().enumerate() {
            if used[i] {
                continue;
            }
            let mark = self.trail.len();
            used[i] = true;
            let fits = first.pred == t.pred && args.len() == t.args.len();
            if fits && self.match_args(args, t) && self.embed(rest, later, target, used) {
                return true;
            }
            used[i] = false;
            self.undo(mark);
        }
        false
    }
}

/// Does `x top c'` imply `x pop c`? With `consts = None`, requires the
/// right-hand sides to be syntactically equal (already matched); with
/// `Some((c', c))`, applies interval reasoning valid over any totally
/// ordered domain (no integer-adjacency tricks, so it is sound for strings
/// too).
fn op_implies(top: CompOp, pop: CompOp, consts: Option<(&Value, &Value)>) -> bool {
    use CompOp::{Eq, Ge, Gt, Le, Lt, Ne};
    match consts {
        None => {
            matches!(
                (top, pop),
                (Eq, Eq)
                    | (Ne, Ne)
                    | (Lt, Lt)
                    | (Le, Le)
                    | (Gt, Gt)
                    | (Ge, Ge)
                    | (Lt, Le)
                    | (Gt, Ge)
                    | (Lt, Ne)
                    | (Gt, Ne)
                    | (Eq, Le)
                    | (Eq, Ge)
            )
        }
        Some((ct, cp)) => match (top, pop) {
            // x = c' ⟹ x pop c  iff  c' pop c.
            (Eq, p) => p.eval(ct, cp),
            // Lower bounds.
            (Gt, Gt) | (Gt, Ge) | (Ge, Ge) => cp <= ct,
            (Ge, Gt) => cp < ct,
            // Upper bounds.
            (Lt, Lt) | (Lt, Le) | (Le, Le) => cp >= ct,
            (Le, Lt) => cp > ct,
            _ => false,
        },
    }
}

/// True if the two denials are variants of each other (mutual
/// θ-subsumption). Exact, unlike
/// [`Denial::canonical_key`](xic_datalog::Denial::canonical_key) which can
/// report false negatives when literal sorting is perturbed by variable
/// names.
pub fn variants(a: &Denial, b: &Denial) -> bool {
    subsumes(a, b) && subsumes(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_datalog::parse_denial;

    fn sub(a: &str, b: &str) -> bool {
        subsumes(&parse_denial(a).unwrap(), &parse_denial(b).unwrap())
    }

    #[test]
    fn identity_and_renaming() {
        assert!(sub("<- p(X, Y)", "<- p(A, B)"));
        assert!(sub("<- p(X, Y)", "<- p(X, Y)"));
    }

    #[test]
    fn instance_subsumed_by_general() {
        assert!(sub("<- p(X, Y)", "<- p(1, 2)"));
        assert!(!sub("<- p(1, 2)", "<- p(X, Y)"));
    }

    #[test]
    fn subset_body_subsumes_superset() {
        assert!(sub("<- p(X)", "<- p(3) & q(3)"));
        assert!(!sub("<- p(X) & q(X)", "<- p(3)"));
    }

    #[test]
    fn shared_variables_constrain() {
        assert!(sub("<- p(X, X)", "<- p(A, A)"));
        assert!(!sub("<- p(X, X)", "<- p(A, B)"));
        assert!(sub("<- p(X, Y)", "<- p(A, A)"));
    }

    #[test]
    fn freshness_hypothesis_subsumes_expanded_denial() {
        // The Example 6 removal: Δ's `<- sub($is,_,_,_)` kills any denial
        // still touching the database sub relation with the fresh id.
        assert!(sub(
            "<- sub($is, _, _, _)",
            "<- rev(Ir,_,_,$n) & sub($is,_,Ir,_)"
        ));
        assert!(!sub(
            "<- sub($other, _, _, _)",
            "<- rev(Ir,_,_,$n) & sub($is,_,Ir,_)"
        ));
    }

    #[test]
    fn params_are_rigid() {
        assert!(!sub("<- p($a)", "<- p($b)"));
        assert!(!sub("<- p($a)", "<- p(1)"));
        assert!(sub("<- p(X)", "<- p($b)"));
    }

    #[test]
    fn original_does_not_subsume_instantiated_disequality() {
        // Regression for Example 4/5: the original uniqueness constraint
        // must NOT subsume the instantiated case `<- p($i,Y) & Y != $t`,
        // because mapping both p-atoms to the same target atom forces the
        // disequality into the reflexive (false) form.
        assert!(!sub(
            "<- p(X, Y) & p(X, Z) & Y != Z",
            "<- p($i, Y) & Y != $t"
        ));
    }

    #[test]
    fn comparison_orientation() {
        assert!(sub("<- X != Y & p(X, Y)", "<- A != B & p(A, B)"));
        assert!(sub("<- X != Y & p(X, Y)", "<- B != A & p(A, B)"));
        assert!(sub("<- X < Y & p(X, Y)", "<- B > A & p(A, B)"));
    }

    #[test]
    fn comparison_strengthening() {
        assert!(sub("<- p(X) & X <= 5", "<- p(Y) & Y < 5"));
        assert!(!sub("<- p(X) & X < 5", "<- p(Y) & Y <= 5"));
        assert!(sub("<- p(X) & X != 5", "<- p(Y) & Y < 5"));
        assert!(sub("<- p(X) & X > 3", "<- p(Y) & Y > 7"));
        assert!(!sub("<- p(X) & X > 7", "<- p(Y) & Y > 3"));
        assert!(sub("<- p(X) & X >= 4", "<- p(Y) & Y = 9"));
    }

    #[test]
    fn negated_atoms_match_only_negated() {
        assert!(sub("<- not p(X) & q(X)", "<- not p(3) & q(3)"));
        assert!(!sub("<- not p(X) & q(X)", "<- p(3) & q(3)"));
    }

    #[test]
    fn aggregate_threshold_weakening() {
        // cnt > 3 is implied by cnt > 4: target with > 4 entails pattern > 3.
        assert!(sub(
            "<- r(Ir) & cntd(; sub(_, Ir)) > 3",
            "<- r(J) & cntd(; sub(_, J)) > 4"
        ));
        assert!(!sub(
            "<- r(Ir) & cntd(; sub(_, Ir)) > 4",
            "<- r(J) & cntd(; sub(_, J)) > 3"
        ));
        // Different aggregate functions never match.
        assert!(!sub(
            "<- cnt(; s(_, R)) > 3 & r(R)",
            "<- cntd(; s(_, R)) > 3 & r(R)"
        ));
    }

    #[test]
    fn aggregate_pattern_multiset_matching() {
        assert!(sub(
            "<- cntd(S; a(S, R), b(R)) > 2",
            "<- cntd(T; b(Q), a(T, Q)) > 2"
        ));
        assert!(!sub(
            "<- cntd(S; a(S, R), b(R)) > 2",
            "<- cntd(T; a(T, Q), c(Q)) > 2"
        ));
    }

    #[test]
    fn empty_body_subsumes_everything() {
        assert!(sub("<- true", "<- p(X)"));
        assert!(!sub("<- p(X)", "<- true"));
    }

    #[test]
    fn two_pattern_literals_one_target() {
        // θ-subsumption does not require injectivity on plain literals.
        assert!(sub("<- p(X, Y) & p(Y, X)", "<- p(A, A)"));
    }

    #[test]
    fn variants_detects_renamings_with_different_sort_order() {
        let a = parse_denial("<- aut(_,_,Ip,$n) & aut(_,_,Ip,R) & rev($ir,_,_,R)").unwrap();
        let b = parse_denial("<- rev($ir,_,_,Z) & aut(_,_,Q,Z) & aut(_,_,Q,$n)").unwrap();
        assert!(variants(&a, &b));
        let c = parse_denial("<- rev($ir,_,_,Z) & aut(_,_,Q,Z) & aut(_,_,Q,Z)").unwrap();
        assert!(!variants(&a, &c));
    }
}
