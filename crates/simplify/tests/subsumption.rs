//! The subsumption oracle: `subsumes` — literal signatures, variables
//! numbered per clause, bindings undone from a trail — must answer what a
//! brute-force reference answers on random small denials.
//!
//! The reference shares none of that machinery. It tries every map from
//! φ's literals to ψ's literals, and for each comparison of φ every one of
//! the four entailment variants (direct, flipped, and both with threshold
//! weakening), checking the literals in order under one growing
//! substitution. Its entailment rules are the matcher's: atoms match
//! argument by argument with the same polarity, comparisons and
//! aggregate thresholds follow the same implication table, and an
//! aggregate's pattern commits to its first injective embedding in
//! lexicographic order.

use proptest::prelude::*;
use std::collections::HashMap;
use xic_datalog::{AggFunc, Aggregate, Atom, CompOp, Denial, Literal, Term, Value, Var};
use xic_simplify::subsumes;

const VARS: &[&str] = &["X", "Y", "Z"];
const OPS: &[CompOp] = &[
    CompOp::Eq,
    CompOp::Ne,
    CompOp::Lt,
    CompOp::Le,
    CompOp::Gt,
    CompOp::Ge,
];

fn term() -> impl Strategy<Value = Term> {
    prop_oneof![
        4 => prop::sample::select(VARS).prop_map(Term::var),
        2 => (0..3i64).prop_map(Term::int),
        1 => Just(Term::param("a")),
    ]
}

/// An atom over `p/2`, `q/2` or `r/1`.
fn atom() -> impl Strategy<Value = Atom> {
    prop_oneof![
        (term(), term()).prop_map(|(a, b)| Atom::new("p", vec![a, b])),
        (term(), term()).prop_map(|(a, b)| Atom::new("q", vec![a, b])),
        term().prop_map(|a| Atom::new("r", vec![a])),
    ]
}

/// A `cnt` or `cntd` aggregate over one or two atoms whose first
/// argument is the local `L`.
fn aggregate() -> impl Strategy<Value = Literal> {
    let local = |a: Atom| {
        let mut args = a.args;
        args[0] = Term::var("L");
        Atom::new(a.pred, args)
    };
    (
        prop::sample::select(&[AggFunc::Cnt, AggFunc::CntD][..]),
        prop::bool::ANY,
        prop::collection::vec(atom(), 1..3),
        prop::sample::select(OPS),
        0..3i64,
    )
        .prop_map(move |(func, counted, pattern, op, k)| {
            let term = (func == AggFunc::CntD && counted).then(|| Term::var("L"));
            Literal::Agg(
                Aggregate::new(func, term, pattern.into_iter().map(local).collect()),
                op,
                Term::int(k),
            )
        })
}

fn literal() -> impl Strategy<Value = Literal> {
    prop_oneof![
        4 => atom().prop_map(Literal::Pos),
        2 => atom().prop_map(Literal::Neg),
        3 => (term(), prop::sample::select(OPS), term()).prop_map(|(a, op, b)| Literal::Comp(a, op, b)),
        1 => aggregate(),
    ]
}

/// `d` with its variables renamed by `map` (into variables or constants),
/// rotated by `turn`, every constant threshold or comparison operand
/// moved by `nudge`, and `extra` literals appended: a ψ that φ subsumes
/// often, but not always.
fn derive(d: &Denial, map: &[Term], turn: usize, nudge: i64, extra: Vec<Literal>) -> Denial {
    let rename = |t: &Term| match t {
        Term::Var(v) => VARS
            .iter()
            .position(|x| x == v)
            .map_or(t.clone(), |i| map[i].clone()),
        Term::Const(Value::Int(k)) => Term::int(k + nudge),
        other => other.clone(),
    };
    let atom = |a: &Atom| Atom::new(a.pred.clone(), a.args.iter().map(rename).collect());
    let mut body: Vec<Literal> = d
        .body
        .iter()
        .map(|l| match l {
            Literal::Pos(a) => Literal::Pos(atom(a)),
            Literal::Neg(a) => Literal::Neg(atom(a)),
            Literal::Comp(a, op, b) => Literal::Comp(rename(a), *op, rename(b)),
            Literal::Agg(g, op, t) => Literal::Agg(
                Aggregate::new(g.func, g.term.clone(), g.pattern.iter().map(atom).collect()),
                *op,
                rename(t),
            ),
        })
        .collect();
    body.extend(extra);
    let turn = turn % body.len().max(1);
    body.rotate_left(turn);
    Denial::new(body)
}

fn pair() -> impl Strategy<Value = (Denial, Denial)> {
    let phi = || prop::collection::vec(literal(), 1..4).prop_map(Denial::new);
    let psi = prop::collection::vec(literal(), 1..5).prop_map(Denial::new);
    let derived = (
        phi(),
        prop::collection::vec(term(), 3..4),
        0..5usize,
        prop_oneof![3 => Just(0i64), 1 => Just(1i64), 1 => Just(-1i64)],
        prop::collection::vec(literal(), 0..3),
    )
        .prop_map(
            |(phi, map, turn, nudge, extra): (Denial, Vec<Term>, usize, i64, Vec<Literal>)| {
                let psi = derive(&phi, &map, turn, nudge, extra);
                (phi, psi)
            },
        );
    prop_oneof![1 => (phi(), psi), 2 => derived]
}

// ---------------------------------------------------------------------
// The reference
// ---------------------------------------------------------------------

type Bindings = HashMap<Var, Term>;

fn match_term(p: &Term, t: &Term, s: &mut Bindings) -> bool {
    match p {
        Term::Var(x) => match s.get(x) {
            Some(bound) => bound == t,
            None => {
                s.insert(x.clone(), t.clone());
                true
            }
        },
        rigid => rigid == t,
    }
}

fn match_atom(p: &Atom, t: &Atom, s: &mut Bindings) -> bool {
    p.pred == t.pred
        && p.args.len() == t.args.len()
        && p.args.iter().zip(&t.args).all(|(p, t)| match_term(p, t, s))
}

fn resolve(p: &Term, s: &Bindings) -> Option<Term> {
    match p {
        Term::Var(x) => s.get(x).cloned(),
        rigid => Some(rigid.clone()),
    }
}

/// `x top c'` implies `x pop c`: without constants, for syntactically
/// equal right-hand sides; with `(c', c)`, by interval reasoning.
fn implies(top: CompOp, pop: CompOp, consts: Option<(&Value, &Value)>) -> bool {
    use CompOp::{Eq, Ge, Gt, Le, Lt, Ne};
    match consts {
        None => {
            top == pop
                || matches!(
                    (top, pop),
                    (Lt, Le) | (Gt, Ge) | (Lt, Ne) | (Gt, Ne) | (Eq, Le) | (Eq, Ge)
                )
        }
        Some((ct, cp)) => match (top, pop) {
            (Eq, p) => p.eval(ct, cp),
            (Gt, Gt) | (Gt, Ge) | (Ge, Ge) => cp <= ct,
            (Ge, Gt) => cp < ct,
            (Lt, Lt) | (Lt, Le) | (Le, Le) => cp >= ct,
            (Le, Lt) => cp > ct,
            _ => false,
        },
    }
}

/// Every injective map of `pattern` into `target`, first atom's target
/// most significant; the first that matches extends `s`.
fn first_embedding(pattern: &[Atom], target: &[Atom], s: &mut Bindings) -> bool {
    let n = target.len();
    let mut pick = vec![0usize; pattern.len()];
    loop {
        let injective = (0..pick.len()).all(|i| !pick[..i].contains(&pick[i]));
        if injective {
            let mut trial = s.clone();
            if pattern
                .iter()
                .zip(&pick)
                .all(|(p, &i)| match_atom(p, &target[i], &mut trial))
            {
                *s = trial;
                return true;
            }
        }
        let Some(slot) = (0..pick.len()).rev().find(|&i| pick[i] + 1 < n) else {
            return false;
        };
        pick[slot] += 1;
        pick[slot + 1..].fill(0);
    }
}

fn entails(t: &Literal, p: &Literal, variant: usize, s: &mut Bindings) -> bool {
    match (p, t) {
        (Literal::Pos(pa), Literal::Pos(ta)) | (Literal::Neg(pa), Literal::Neg(ta)) => {
            match_atom(pa, ta, s)
        }
        (Literal::Comp(pl, pop, pr), Literal::Comp(tl, top, tr)) => {
            let (top, a, b) = if variant % 2 == 0 {
                (*top, tl, tr)
            } else {
                (top.flip(), tr, tl)
            };
            if variant < 2 {
                return match_term(pl, a, s) && match_term(pr, b, s) && implies(top, *pop, None);
            }
            match (resolve(pr, s), b) {
                (Some(Term::Const(cp)), Term::Const(ct)) => {
                    match_term(pl, a, s) && implies(top, *pop, Some((ct, &cp)))
                }
                _ => false,
            }
        }
        (Literal::Agg(pg, pop, pt), Literal::Agg(tg, top, tt)) => {
            if pg.func != tg.func || pg.pattern.len() != tg.pattern.len() {
                return false;
            }
            let counted = match (&pg.term, &tg.term) {
                (None, None) => true,
                (Some(p), Some(t)) => match_term(p, t, s),
                _ => false,
            };
            if !counted || !first_embedding(&pg.pattern, &tg.pattern, s) {
                return false;
            }
            match resolve(pt, s) {
                Some(rpt) if rpt == *tt => implies(*top, *pop, None),
                Some(Term::Const(cp)) if matches!(tt, Term::Const(_)) => {
                    let Term::Const(ct) = tt else { unreachable!() };
                    implies(*top, *pop, Some((ct, &cp)))
                }
                _ => match_term(pt, tt, s) && implies(*top, *pop, None),
            }
        }
        _ => false,
    }
}

/// Tries every map from `phi`'s literals to `psi`'s, each comparison
/// under each of its four variants.
fn reference(phi: &Denial, psi: &Denial) -> bool {
    let n = psi.body.len();
    let choices: Vec<usize> = phi
        .body
        .iter()
        .map(|l| {
            if matches!(l, Literal::Comp(..)) {
                4 * n
            } else {
                n
            }
        })
        .collect();
    if choices.contains(&0) {
        return false;
    }
    let mut pick = vec![0usize; choices.len()];
    loop {
        let mut s = Bindings::new();
        let all = phi
            .body
            .iter()
            .zip(&pick)
            .all(|(p, &c)| entails(&psi.body[c % n], p, c / n, &mut s));
        if all {
            return true;
        }
        let Some(slot) = (0..pick.len()).rev().find(|&i| pick[i] + 1 < choices[i]) else {
            return false;
        };
        pick[slot] += 1;
        pick[slot + 1..].fill(0);
    }
}

#[test]
fn the_reference_reads_the_matchers_rules() {
    let d = |s: &str| xic_datalog::parse_denial(s).unwrap();
    assert!(reference(
        &d("<- p(X, Y) & X < 3"),
        &d("<- p(A, B) & 1 > A")
    ));
    assert!(reference(
        &d("<- not p(X, X)"),
        &d("<- q(1, 2) & not p(1, 1)")
    ));
    assert!(!reference(&d("<- not p(X, X)"), &d("<- p(1, 1)")));
    assert!(!reference(&d("<- p(X, X)"), &d("<- p(A, B)")));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4_000, ..ProptestConfig::default() })]

    /// `subsumes` and the brute-force reference agree on every pair, and
    /// on the pair the other way round.
    #[test]
    fn subsumes_answers_what_brute_force_answers((phi, psi) in pair()) {
        for (a, b) in [(&phi, &psi), (&psi, &phi)] {
            prop_assert_eq!(subsumes(a, b), reference(a, b), "φ = {}\nψ = {}", a, b);
        }
    }
}

/// The generator is not a coin that always lands one way: over the same
/// stream, a fair share of the pairs subsume and a fair share do not, and
/// the subsuming ones pair atoms of both polarities, comparisons and
/// aggregates.
#[test]
fn the_oracles_pairs_subsume_often_but_not_always() {
    let mut rng = proptest::TestRng::from_name("subsumption::pairs");
    let (mut yes, mut no, mut neg, mut comp, mut agg) = (0, 0, 0, 0, 0);
    for _ in 0..2_000 {
        let (phi, psi) = pair().generate(&mut rng);
        if !subsumes(&phi, &psi) {
            no += 1;
            continue;
        }
        yes += 1;
        neg += usize::from(phi.body.iter().any(|l| matches!(l, Literal::Neg(_))));
        comp += usize::from(phi.body.iter().any(|l| matches!(l, Literal::Comp(..))));
        agg += usize::from(phi.body.iter().any(|l| matches!(l, Literal::Agg(..))));
    }
    assert!(yes >= 400 && no >= 400, "{yes} subsume, {no} do not");
    assert!(
        neg >= 50 && comp >= 50 && agg >= 20,
        "negated {neg}, comparisons {comp}, aggregates {agg}"
    );
}
