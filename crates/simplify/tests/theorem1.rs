//! Property tests for the two central correctness statements:
//!
//! * **After-equivalence** (Definition 2): for *every* database state `D`
//!   satisfying the freshness hypotheses,
//!   `D ⊨ After^U(Γ)  ⇔  D^U ⊨ Γ` — no consistency precondition needed.
//! * **Theorem 1**: for every `D` consistent with `Γ ∪ Δ`,
//!   `D ⊨ Simp_Δ^U(Γ)  ⇔  D^U ⊨ Γ`.
//!
//! Databases, constraints and updates are drawn over a two-relation schema
//! shaped like the XML shredding (`p(Id, Val)`, `q(Id, Ref, Val)`), with
//! newly allocated identifiers guaranteed fresh — exactly the situation the
//! XML mapping produces. A modification (one tuple removed by its key and
//! added back with one value changed, as a text update maps) is drawn on a
//! state whose first columns are keys, as the shredding's node ids are.

use proptest::prelude::*;
use std::collections::HashMap;
use xic_datalog::{
    denials_hold, Atom, CompOp, Database, Denial, Literal, Term, Update, Value, Var,
};
use xic_simplify::{
    after, after_each, freshness_hypotheses, optimize, simp, simp_live, specialize_to_new_value,
    FreshSpec, SimpConfig,
};

const DOMAIN: i64 = 4;

fn value() -> impl Strategy<Value = i64> {
    0..DOMAIN
}

/// A random database over p/2 and q/3 with ids 0..n.
fn database() -> impl Strategy<Value = Database> {
    let p_rows = prop::collection::vec((0..6i64, value()), 0..6);
    let q_rows = prop::collection::vec((10..16i64, value(), value()), 0..6);
    (p_rows, q_rows).prop_map(|(ps, qs)| {
        let mut db = Database::new();
        for (id, v) in ps {
            db.insert("p", vec![Value::Int(id), Value::Int(v)]);
        }
        for (id, r, v) in qs {
            db.insert("q", vec![Value::Int(id), Value::Int(r), Value::Int(v)]);
        }
        db
    })
}

/// A term drawn from a variable pool or the constant domain.
fn term(vars: &'static [&'static str]) -> impl Strategy<Value = Term> {
    prop_oneof![
        3 => prop::sample::select(vars).prop_map(Term::var),
        1 => value().prop_map(Term::int),
    ]
}

const VARS: &[&str] = &["X", "Y", "Z"];

fn comp_op() -> impl Strategy<Value = CompOp> {
    prop::sample::select(&[
        CompOp::Eq,
        CompOp::Ne,
        CompOp::Lt,
        CompOp::Le,
        CompOp::Gt,
        CompOp::Ge,
    ][..])
}

/// A safe random denial: positive atoms first (binding variables), then
/// optional comparison / negation / aggregate literals over bound
/// variables.
fn denial() -> impl Strategy<Value = Denial> {
    let pos_atom = prop_oneof![
        (term(VARS), term(VARS)).prop_map(|(a, b)| Atom::new("p", vec![a, b])),
        (term(VARS), term(VARS), term(VARS)).prop_map(|(a, b, c)| Atom::new("q", vec![a, b, c])),
    ];
    let atoms = prop::collection::vec(pos_atom, 1..3);
    let tail = prop_oneof![
        // Comparison over (potentially bound) variables.
        3 => (prop::sample::select(VARS), comp_op(), term(VARS))
            .prop_map(|(v, op, t)| Some(Literal::Comp(Term::var(v), op, t))),
        // Count aggregate grouped on a shared variable.
        2 => (prop::sample::select(VARS), comp_op(), 0..4i64).prop_map(|(v, op, k)| {
            Some(Literal::Agg(
                xic_datalog::Aggregate::new(
                    xic_datalog::AggFunc::Cnt,
                    None,
                    vec![Atom::new("p", vec![Term::var("L0"), Term::var(v)])],
                ),
                op,
                Term::int(k),
            ))
        }),
        // Distinct count over a two-atom pattern (join through q.Ref).
        1 => (prop::sample::select(VARS), 0..3i64).prop_map(|(v, k)| {
            Some(Literal::Agg(
                xic_datalog::Aggregate::new(
                    xic_datalog::AggFunc::CntD,
                    Some(Term::var("L1")),
                    vec![
                        Atom::new("q", vec![Term::var("L1"), Term::var("L2"), Term::var(v)]),
                    ],
                ),
                CompOp::Gt,
                Term::int(k),
            ))
        }),
        // Safe negated atom over bound variables/constants (exercises the
        // De Morgan expansion of After).
        2 => (prop::sample::select(VARS), value()).prop_map(|(v, c)| {
            Some(Literal::Neg(Atom::new(
                "p",
                vec![Term::var(v), Term::int(c)],
            )))
        }),
        2 => Just(None),
    ];
    (atoms, tail).prop_map(|(atoms, tail)| {
        let mut body: Vec<Literal> = atoms.into_iter().map(Literal::Pos).collect();
        if let Some(t) = tail {
            // Only keep tails whose variables are bound by the atoms
            // (aggregate locals excepted).
            let bound: Vec<&Var> =
                body.iter().flat_map(Literal::terms).filter_map(Term::as_var).collect();
            let local = |v: &Var| ["L0", "L1", "L2"].iter().any(|l| v == l);
            let ok = t.terms().filter_map(Term::as_var).all(|v| local(v) || bound.contains(&v));
            if ok {
                body.push(t);
            }
        }
        Denial::new(body)
    })
}

/// A random update pattern: one or two additions with fresh-id parameters
/// in the first column and value parameters elsewhere, together with an
/// instantiation that allocates genuinely fresh identifiers.
fn update() -> impl Strategy<Value = (Update, HashMap<String, Value>, FreshSpec)> {
    let addition = prop_oneof![
        value().prop_map(|v| (Atom::new("p", vec![Term::param("f0"), Term::param("v0")]), v)),
        value().prop_map(|v| {
            (
                Atom::new(
                    "q",
                    vec![Term::param("f1"), Term::param("v1"), Term::param("v2")],
                ),
                v,
            )
        }),
    ];
    (prop::collection::vec(addition, 1..3), value(), value()).prop_map(|(adds, va, vb)| {
        let mut atoms = Vec::new();
        let mut bindings: HashMap<String, Value> = HashMap::new();
        let mut fresh_names = Vec::new();
        for (i, (a, v)) in adds.into_iter().enumerate() {
            // Rename parameters per addition so two additions do not share
            // parameters accidentally.
            let args: Vec<Term> = a
                .args
                .iter()
                .map(|t| match t {
                    Term::Param(p) => Term::param(format!("{p}_{i}")),
                    other => other.clone(),
                })
                .collect();
            let fresh_name = match &args[0] {
                Term::Param(p) => p.clone(),
                _ => unreachable!(),
            };
            // Fresh ids: far outside the generated domain and unique.
            bindings.insert(fresh_name.clone(), Value::Int(1000 + i as i64));
            fresh_names.push(fresh_name);
            for (j, t) in args.iter().enumerate().skip(1) {
                if let Term::Param(p) = t {
                    let val = match j {
                        1 => v,
                        _ => {
                            if j % 2 == 0 {
                                va
                            } else {
                                vb
                            }
                        }
                    };
                    bindings.insert(p.clone(), Value::Int(val));
                }
            }
            atoms.push(Atom::new(a.pred, args));
        }
        let u = Update::new(atoms);
        let fresh = FreshSpec::params(fresh_names);
        (u, bindings, fresh)
    })
}

/// `db` with one tuple per first-column value in each relation.
fn keyed(db: &Database) -> Database {
    let mut out = Database::new();
    for pred in ["p", "q"] {
        let mut ids = std::collections::HashSet::new();
        for t in db.relation(pred).into_iter().flat_map(|r| r.iter()) {
            if ids.insert(t[0].clone()) {
                out.insert(pred, t.to_vec());
            }
        }
    }
    out
}

/// The modification of the `pick`-th tuple of `db` (p's before q's):
/// removed by its key, added back with value `v` in column `col` (p has
/// one value column, q two), every column a parameter, with its bindings.
fn modification(db: &Database, pick: usize, col: usize, v: i64) -> Option<(Update, HashMap<String, Value>)> {
    let rows: Vec<(&str, Vec<Value>)> = ["p", "q"]
        .into_iter()
        .flat_map(|pred| db.relation(pred).into_iter().flat_map(move |r| r.iter().map(move |t| (pred, t.to_vec()))))
        .collect();
    let (pred, old) = rows.get(pick % rows.len().max(1))?;
    let col = if *pred == "p" { 1 } else { col };
    let params: Vec<Term> = (0..old.len()).map(|j| Term::param(format!("m{j}"))).collect();
    let mut bindings: HashMap<String, Value> =
        old.iter().enumerate().map(|(j, value)| (format!("m{j}"), value.clone())).collect();
    let mut new = params.clone();
    new[col] = Term::param("new");
    bindings.insert("new".to_string(), Value::Int(v));
    let u = Update::modification(vec![Atom::new(*pred, params)], vec![Atom::new(*pred, new)]);
    Some((u, bindings))
}

/// Evaluates a set of denials after parameter instantiation.
fn holds(db: &Database, denials: &[Denial], bindings: &HashMap<String, Value>) -> Option<bool> {
    let mut inst = denials.to_vec();
    for t in inst.iter_mut().flat_map(|d| &mut d.body).flat_map(Literal::terms_mut) {
        if let Some(v) = match t {
            Term::Param(p) => bindings.get(p),
            _ => None,
        } {
            *t = Term::Const(v.clone());
        }
    }
    denials_hold(db, &inst).ok()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 400,
        max_global_rejects: 40000,
        ..ProptestConfig::default()
    })]

    /// Definition 2: `D ⊨ After^U(Γ) ⇔ D^U ⊨ Γ` for every D satisfying the
    /// freshness hypotheses (no consistency precondition).
    #[test]
    fn after_is_equivalent(
        db in database(),
        gamma in prop::collection::vec(denial(), 1..3),
        (u, bindings, fresh) in update(),
    ) {
        let cfg = SimpConfig { fresh };
        let Ok(expanded) = after(&gamma, &u, &cfg) else {
            // Outside the supported aggregate fragment: nothing to check.
            return Ok(());
        };
        let Some(lhs) = holds(&db, &expanded, &bindings) else { return Ok(()); };
        let mut db2 = db.clone();
        u.instantiate(&bindings).unwrap().apply(&mut db2);
        let Some(rhs) = holds(&db2, &gamma, &bindings) else { return Ok(()); };
        prop_assert_eq!(
            lhs, rhs,
            "After mismatch\n  gamma: {:?}\n  update: {}\n  expanded: {:?}\n  bindings: {:?}",
            gamma.iter().map(std::string::ToString::to_string).collect::<Vec<_>>(),
            u,
            expanded.iter().map(std::string::ToString::to_string).collect::<Vec<_>>(),
            bindings
        );
    }

    /// Theorem 1: `D ⊨ Simp_Δ^U(Γ) ⇔ D^U ⊨ Γ` for every D consistent with
    /// Γ and the freshness hypotheses Δ.
    #[test]
    fn simp_is_equivalent_on_consistent_states(
        db in database(),
        gamma in prop::collection::vec(denial(), 1..3),
        (u, bindings, fresh) in update(),
    ) {
        // Precondition: D consistent with Γ (parameters do not occur in Γ,
        // so instantiation is a no-op there).
        let Some(consistent) = holds(&db, &gamma, &bindings) else { return Ok(()); };
        prop_assume!(consistent);

        let fresh_set: std::collections::BTreeSet<String> = match &fresh {
            FreshSpec::Params(ps) => ps.clone(),
            _ => unreachable!("update() always yields Params"),
        };
        let delta = freshness_hypotheses(&u, &fresh_set);
        // Sanity: Δ holds in D for this instantiation (ids are fresh).
        let Some(delta_holds) = holds(&db, &delta, &bindings) else { return Ok(()); };
        prop_assert!(delta_holds, "freshness hypotheses must hold by construction");

        let cfg = SimpConfig { fresh };
        let Ok(simplified) = simp(&gamma, &u, &delta, &cfg) else { return Ok(()); };
        let Some(lhs) = holds(&db, &simplified, &bindings) else { return Ok(()); };
        let mut db2 = db.clone();
        u.instantiate(&bindings).unwrap().apply(&mut db2);
        let Some(rhs) = holds(&db2, &gamma, &bindings) else { return Ok(()); };
        prop_assert_eq!(
            lhs, rhs,
            "Simp mismatch\n  gamma: {:?}\n  update: {}\n  simplified: {:?}\n  bindings: {:?}",
            gamma.iter().map(std::string::ToString::to_string).collect::<Vec<_>>(),
            u,
            simplified.iter().map(std::string::ToString::to_string).collect::<Vec<_>>(),
            bindings
        );
    }

    /// A modification on a keyed state: `After` rewrites the constraints
    /// it supports exactly on every state, and Simp on consistent ones,
    /// the others (a negation or an aggregate over the modified relation)
    /// read off the updated state: `D ⊨ After(rewritten) ∧ D^U ⊨ residual
    /// ⇔ D^U ⊨ Γ`, where a residual monotone in the relation may read the
    /// new value's group alone.
    #[test]
    fn a_modification_is_exact_denial_by_denial(
        db in database(),
        gamma in prop::collection::vec(denial(), 1..3),
        pick in 0usize..12, col in 1usize..3, v in value(),
    ) {
        let db = keyed(&db);
        let Some((u, bindings)) = modification(&db, pick, col, v) else { return Ok(()); };
        let cfg = SimpConfig::default();
        let mut db2 = db.clone();
        u.instantiate(&bindings).unwrap().apply(&mut db2);
        let Some(rhs) = holds(&db2, &gamma, &bindings) else { return Ok(()); };
        let (expanded, unsupported) = after_each(&gamma, &u, &cfg);
        let residual: Vec<Denial> = unsupported.iter().map(|(i, _)| gamma[*i].clone()).collect();
        let Some(rest) = holds(&db2, &residual, &bindings) else { return Ok(()); };
        let Some(now) = holds(&db, &expanded, &bindings) else { return Ok(()); };
        prop_assert_eq!(now && rest, rhs, "After of {} over {:?}: {:?}", u,
            gamma.iter().map(std::string::ToString::to_string).collect::<Vec<_>>(),
            expanded.iter().map(std::string::ToString::to_string).collect::<Vec<_>>());
        if holds(&db, &gamma, &bindings) == Some(true) {
            // A residual monotone in the relation reads one group: the
            // new value's.
            for phi in &residual {
                if let Some(one) = specialize_to_new_value(phi, &u) {
                    let whole = holds(&db2, std::slice::from_ref(phi), &bindings);
                    prop_assert_eq!(holds(&db2, std::slice::from_ref(&one), &bindings), whole, "{} as {}", phi, one);
                }
            }
            let simplified = simp_live(&gamma, &[], &u, &[], &cfg);
            prop_assert_eq!(simplified.residual.len(), unsupported.len());
            let Some(now) = holds(&db, &simplified.denials, &bindings) else { return Ok(()); };
            prop_assert_eq!(now && rest, rhs, "Simp of {}: {:?}", u,
                simplified.denials.iter().map(std::string::ToString::to_string).collect::<Vec<_>>());
        }
    }

    /// `Optimize` preserves meaning on consistent states even without an
    /// update: optimizing Γ against itself must keep it equivalent on the
    /// states where the hypotheses hold (it trivially collapses to ∅ there,
    /// so both sides hold).
    #[test]
    fn optimize_against_self_collapses(
        gamma in prop::collection::vec(denial(), 1..3),
    ) {
        let out = optimize(gamma.clone(), &gamma);
        prop_assert!(
            out.is_empty(),
            "every denial must be subsumed by its own copy in Δ: {:?}",
            out.iter().map(std::string::ToString::to_string).collect::<Vec<_>>()
        );
    }
}
