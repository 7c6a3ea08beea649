//! Simplification of integrity constraints (Section 5 of the paper).
//!
//! Given a constraint set Γ (denials), an update pattern `U` (ground-modulo
//! -parameters insertions, and the removals of a modification) and trusted
//! hypotheses Δ, this crate computes
//!
//! ```text
//! Simp_Δ^U(Γ) = Optimize_{Γ∪Δ}( After^U(Γ) )
//! ```
//!
//! `After` (Definition 2) rewrites Γ so that checking the result in the
//! *present* state `D` is equivalent to checking Γ in the *updated* state
//! `D^U`; `Optimize` then exploits the hypothesis that `D` is consistent
//! with Γ∪Δ to discard redundant denials, evaluate ground conditions and
//! instantiate clauses as much as possible. Theorem 1:
//!
//! > `Simp` terminates on any input and `Simp_Δ^U(Γ)` holds in a database
//! > state `D` consistent with Δ iff Γ holds in `D^U`.
//!
//! This equivalence is property-tested in `tests/theorem1.rs` against the
//! ground-truth evaluator of `xic-datalog`.
//!
//! # Example — the paper's Example 4/5 (ISSN uniqueness)
//!
//! ```
//! use xic_datalog::{parse_denial, parse_update};
//! use xic_simplify::{simp, SimpConfig};
//!
//! let phi = parse_denial("<- p(X, Y) & p(X, Z) & Y != Z").unwrap();
//! let u = parse_update("{p($i, $t)}").unwrap();
//! let out = simp(&[phi], &u, &[], &SimpConfig::default()).unwrap();
//! assert_eq!(out.len(), 1);
//! assert_eq!(out[0].to_string(), "<- p($i, Y) & Y != $t");
//! ```
//!
//! In the system-inventory table of `DESIGN.md` this crate is item 9 (simplification engine — the paper's core contribution).

pub mod after;
pub mod footprint;
pub mod hypotheses;
pub mod optimize;
pub mod reduce;
pub mod residual;
pub mod subsume;

pub use after::{after, after_each, AfterError};
pub use footprint::{
    live_set, read_footprint, read_footprints, update_write_footprint, ReadFootprint,
    WriteFootprint, WriteSet,
};
pub use hypotheses::freshness_hypotheses;
pub use optimize::optimize;
pub use reduce::{reduce, Reduced};
pub use residual::specialize_to_new_value;
pub use subsume::{subsumes, variants};

use xic_datalog::{Denial, Update};

/// How the simplifier may justify that added tuples are *new* (not already
/// present in the database). This only matters for aggregate literals:
/// plain atoms are handled exactly under set semantics either way.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum FreshSpec {
    /// No freshness assumption: aggregates over updated predicates cannot
    /// be simplified.
    #[default]
    None,
    /// The named parameters stand for globally fresh values (new XML node
    /// ids). An addition is fresh when it contains at least one of them.
    Params(std::collections::BTreeSet<String>),
    /// Every added tuple is guaranteed absent from the current state. This
    /// is always true for the XML shredding, whose first column is a newly
    /// allocated node id.
    AllFresh,
}

impl FreshSpec {
    /// Builds a [`FreshSpec::Params`] from parameter names.
    pub fn params<I, S>(names: I) -> FreshSpec
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        FreshSpec::Params(names.into_iter().map(Into::into).collect())
    }

    /// True if `atom` (an addition) is known to be absent from the present
    /// database state.
    pub fn addition_is_fresh(&self, atom: &xic_datalog::Atom) -> bool {
        match self {
            FreshSpec::None => false,
            FreshSpec::AllFresh => true,
            FreshSpec::Params(ps) => atom.args.iter().any(|t| match t {
                xic_datalog::Term::Param(p) => ps.contains(p),
                _ => false,
            }),
        }
    }
}

/// Configuration for the simplification procedure.
#[derive(Debug, Clone, Default)]
pub struct SimpConfig {
    /// Freshness justification for aggregate simplification.
    pub fresh: FreshSpec,
}

/// Computes `Simp_Δ^U(Γ)`: [`after`](after()) followed by
/// [`optimize`](optimize()) with the
/// hypothesis set `Γ ∪ Δ` (`extra_delta` is the Δ of the paper — e.g. the
/// freshness hypotheses of Example 6).
///
/// Returns [`AfterError`] when some constraint/update combination falls
/// outside the supported aggregate fragment; callers are expected to fall
/// back to full (non-incremental) checking in that case, as the paper does
/// for unrecognized updates.
pub fn simp(
    gamma: &[Denial],
    update: &Update,
    extra_delta: &[Denial],
    config: &SimpConfig,
) -> Result<Vec<Denial>, AfterError> {
    let Simplified { denials, residual } = simp_live(gamma, &[], update, extra_delta, config);
    match residual.into_iter().next() {
        Some((_, e)) => Err(e),
        None => Ok(denials),
    }
}

/// What [`simp_live`] made of Γ: the simplified denials of the
/// constraints `After` could rewrite, and the ones it could not.
#[derive(Debug, Clone, Default)]
pub struct Simplified {
    /// `Simp_Δ^U` of the live constraints `After` rewrote.
    pub denials: Vec<Denial>,
    /// The live constraints it could not rewrite, as indexes into Γ, with
    /// why: their verdict has to be read off the updated state.
    pub residual: Vec<(usize, AfterError)>,
}

/// [`simp`] restricted to the constraints `live` marks `true` (missing
/// entries count as live, so an empty slice means "all"), constraint by
/// constraint: one `After` cannot rewrite goes to
/// [`Simplified::residual`] and the others are simplified as they would
/// be without it. Skipped constraints are not expanded — the compile-time
/// saving of the static independence analysis — while the hypothesis set
/// stays the **full** `Γ ∪ Δ`, since every constraint holds in the
/// consistent pre-state whether or not the update affects it. A
/// constraint the analysis skips reads nothing the update writes, so its
/// verdict in the updated state is its verdict now: it holds.
pub fn simp_live(
    gamma: &[Denial],
    live: &[bool],
    update: &Update,
    extra_delta: &[Denial],
    config: &SimpConfig,
) -> Simplified {
    let indices: Vec<usize> =
        (0..gamma.len()).filter(|&i| live.get(i).copied().unwrap_or(true)).collect();
    let subset: Vec<Denial> = indices.iter().map(|&i| gamma[i].clone()).collect();
    let (expanded, unsupported) = {
        let _span = xic_obs::phase("after");
        after_each(&subset, update, config)
    };
    xic_obs::add(xic_obs::Counter::ClausesExpanded, expanded.len() as u64);
    let mut delta: Vec<Denial> = gamma.to_vec();
    delta.extend_from_slice(extra_delta);
    let simplified = {
        let _span = xic_obs::phase("optimize");
        // `after` already reduced and de-duplicated its output.
        let optimized = optimize::optimize_reduced(expanded, &delta);
        eliminate_fresh_comparisons(optimized, &config.fresh)
    };
    xic_obs::add(xic_obs::Counter::ClausesSurviving, simplified.len() as u64);
    let residual = unsupported.into_iter().map(|(k, e)| (indices[k], e)).collect();
    Simplified { denials: simplified, residual }
}

/// Decides (dis)equalities against globally fresh node-id parameters: a
/// fresh identifier can never equal an identifier already present in the
/// database, so `X != $fresh` (with `X` bound to an existing node id) is
/// always true and `X = $fresh` makes the denial trivially satisfied.
/// This removes the residual `B != $n` literal that `After` leaves behind
/// in uniqueness constraints (Example 4's pattern applied to node ids).
pub fn eliminate_fresh_comparisons(denials: Vec<Denial>, fresh: &FreshSpec) -> Vec<Denial> {
    use xic_datalog::{CompOp, Literal, Term};
    let FreshSpec::Params(fresh) = fresh else {
        return denials;
    };
    let mut out = Vec::with_capacity(denials.len());
    'denials: for d in denials {
        // Terms known to denote identifiers of nodes existing in the
        // present state: variables and parameters in the id/parent columns
        // of positive database atoms.
        let mut existing: std::collections::HashSet<&Term> = std::collections::HashSet::new();
        for l in &d.body {
            if let Literal::Pos(a) = l {
                for col in [0usize, 2] {
                    if let Some(t) = a.args.get(col) {
                        match t {
                            Term::Param(p) if fresh.contains(p) => {}
                            Term::Var(_) | Term::Param(_) => {
                                existing.insert(t);
                            }
                            Term::Const(_) => {}
                        }
                    }
                }
            }
        }
        // A database atom carrying a fresh parameter in its id or parent
        // column can never match an existing tuple: the body is
        // unsatisfiable and the denial trivially holds.
        for l in &d.body {
            if let Literal::Pos(a) = l {
                for col in [0usize, 2] {
                    if let Some(Term::Param(p)) = a.args.get(col) {
                        if fresh.contains(p) {
                            continue 'denials;
                        }
                    }
                }
            }
        }
        let mut body = Vec::with_capacity(d.body.len());
        for l in &d.body {
            if let Literal::Comp(x, op, y) = l {
                let fresh_side = |t: &Term| matches!(t, Term::Param(p) if fresh.contains(p));
                let decided = if fresh_side(x) && existing.contains(y)
                    || fresh_side(y) && existing.contains(x)
                    || (fresh_side(x) && fresh_side(y) && x != y)
                {
                    match op {
                        CompOp::Ne => Some(true),
                        CompOp::Eq => Some(false),
                        _ => None,
                    }
                } else {
                    None
                };
                match decided {
                    Some(true) => continue,          // literal always true: drop it
                    Some(false) => continue 'denials, // body unsatisfiable: drop denial
                    None => {}
                }
            }
            body.push(l.clone());
        }
        out.push(Denial::new(body));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_datalog::{parse_denial, parse_denials, parse_update};

    /// Example 4/5: uniqueness of ISSN.
    #[test]
    fn paper_example_4_and_5() {
        let phi = parse_denial("<- p(X, Y) & p(X, Z) & Y != Z").unwrap();
        let u = parse_update("{p($i, $t)}").unwrap();
        let out = simp(&[phi], &u, &[], &SimpConfig::default()).unwrap();
        assert_eq!(out.len(), 1, "got: {out:?}");
        assert_eq!(out[0].to_string(), "<- p($i, Y) & Y != $t");
    }

    /// Example 6: conflict of interests with freshness hypotheses.
    #[test]
    fn paper_example_6() {
        let gamma = parse_denials(
            "<- rev(Ir,_,_,R) & sub(Is,_,Ir,_) & auts(_,_,Is,R).
             <- rev(Ir,_,_,R) & sub(Is,_,Ir,_) & auts(_,_,Is,A)
                & aut(_,_,Ip,R) & aut(_,_,Ip,A).",
        )
        .unwrap();
        let u = parse_update("{sub($is, $ps, $ir, $t), auts($ia, $pa, $is, $n)}").unwrap();
        let delta = parse_denials(
            "<- sub($is,_,_,_). <- auts(_,_,$is,_). <- auts($ia,_,_,_).",
        )
        .unwrap();
        let cfg = SimpConfig {
            fresh: FreshSpec::params(["is", "ia"]),
        };
        let out = simp(&gamma, &u, &delta, &cfg).unwrap();
        let want1 = parse_denial("<- rev($ir,_,_,$n)").unwrap();
        let want2 =
            parse_denial("<- rev($ir,_,_,R) & aut(_,_,Ip,$n) & aut(_,_,Ip,R)").unwrap();
        assert_eq!(out.len(), 2, "got: {out:?}");
        assert!(out.iter().any(|d| variants(d, &want1)), "missing {want1}; got {out:?}");
        assert!(out.iter().any(|d| variants(d, &want2)), "missing {want2}; got {out:?}");
    }

    /// Example 7: per-track review-load aggregate.
    #[test]
    fn paper_example_7() {
        let phi = parse_denial("<- rev(Ir,_,_,_) & cntd(; sub(_,_,Ir,_)) > 4").unwrap();
        let u = parse_update("{sub($is, $ps, $ir, $t), auts($ia, $pa, $is, $n)}").unwrap();
        let delta = parse_denials(
            "<- sub($is,_,_,_). <- auts(_,_,$is,_). <- auts($ia,_,_,_).",
        )
        .unwrap();
        let cfg = SimpConfig {
            fresh: FreshSpec::params(["is", "ia"]),
        };
        let out = simp(&[phi], &u, &delta, &cfg).unwrap();
        assert_eq!(out.len(), 1, "got: {out:?}");
        let want = parse_denial("<- rev($ir,_,_,_) & cntd(; sub(_,_,$ir,_)) > 3").unwrap();
        assert!(variants(&out[0], &want), "got: {}", out[0]);
    }

    /// Uniqueness over node identity: the residual `B != $n` comparison
    /// against the fresh id must be eliminated.
    #[test]
    fn fresh_id_disequality_eliminated() {
        let phi = parse_denial("<- b(B,_,_,I) & b(C,_,_,I) & B != C").unwrap();
        let u = parse_update("{b($n, $p, $t, $v)}").unwrap();
        let cfg = SimpConfig {
            fresh: FreshSpec::params(["n"]),
        };
        let out = simp(&[phi], &u, &[], &cfg).unwrap();
        assert_eq!(out.len(), 1, "{out:?}");
        // The surviving denial checks for an existing book with the same
        // value — and no residual comparison with $n.
        assert!(!out[0].to_string().contains("$n"), "{}", out[0]);
        assert!(out[0].to_string().contains("$v"), "{}", out[0]);
    }

    /// An equality against a fresh id makes the whole case impossible.
    #[test]
    fn fresh_id_equality_drops_denial() {
        let phi = parse_denial("<- b(B,_,_,_) & q(Q) & B = Q").unwrap();
        let u = parse_update("{q($n)}").unwrap();
        let cfg = SimpConfig {
            fresh: FreshSpec::params(["n"]),
        };
        // Expansion yields a case with B = $n, which freshness kills; the
        // surviving denials never mention $n.
        let out = simp(&[phi], &u, &[], &cfg).unwrap();
        for d in &out {
            assert!(!d.to_string().contains("$n"), "{d}");
        }
    }

    #[test]
    fn update_on_unrelated_predicate_removes_everything() {
        let phi = parse_denial("<- p(X) & q(X)").unwrap();
        let u = parse_update("{r($a)}").unwrap();
        let out = simp(&[phi], &u, &[], &SimpConfig::default()).unwrap();
        assert!(out.is_empty(), "got: {out:?}");
    }

    #[test]
    fn always_illegal_update() {
        // Constraint: no r-fact with value 1 may exist; the update inserts
        // exactly that.
        let phi = parse_denial("<- r(1)").unwrap();
        let u = parse_update("{r(1)}").unwrap();
        let out = simp(&[phi], &u, &[], &SimpConfig::default()).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].body.is_empty(), "got: {out:?}");
    }
}
