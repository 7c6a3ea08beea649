//! Compilation of update patterns: at registration, or on the first
//! sight of a statement of the pattern's shape.

use xic_datalog::{Denial, Update};
use xic_mapping::{pattern_key, MappedUpdate, RelSchema};
use xic_simplify::{
    freshness_hypotheses, live_set, read_footprints, simp_live, update_write_footprint, FreshSpec,
    specialize_to_new_value, SimpConfig, Simplified,
};
use xic_translate::{translate_denial_with, translate_denials_with, QueryTemplate};

/// The compiled artifact for one update pattern: the simplified denials
/// and their XQuery templates, or the reason simplification was not
/// possible (in which case the runtime falls back to full checking, as
/// the paper does for unrecognized updates).
#[derive(Debug, Clone)]
pub struct CompiledPattern {
    /// Canonical pattern key (see [`xic_mapping::pattern_key`]).
    pub key: String,
    /// The parameterized update shape.
    pub update: Update,
    /// `Simp_Δ^U(Γ)`.
    pub simplified: Vec<Denial>,
    /// One pre-update XQuery template per simplified denial.
    pub queries: Vec<QueryTemplate>,
    /// Per-constraint liveness (in input Γ order) from the static
    /// independence analysis: `false` entries provably cannot change
    /// verdict under this pattern and were not simplified. All-`true`
    /// when the analysis was disabled at compile time.
    pub live: Vec<bool>,
    /// Per-constraint (in input Γ order): `true` for a live constraint
    /// `After` cannot rewrite for this pattern — a negation or an
    /// aggregate over a relation it deletes from, say. A decision reads
    /// its verdict off the updated copy (the masked full check the
    /// baseline would run); all-`false` when every live constraint has
    /// its templates.
    pub residual: Vec<bool>,
    /// The residual constraints a modification reads one group of: Γ
    /// index, `φ[R := $v]` (see
    /// [`xic_simplify::specialize_to_new_value`]) and its template,
    /// checked on the updated copy in place of φ's full-check query.
    pub post_checks: Vec<(usize, Denial, QueryTemplate)>,
    /// Why this pattern cannot be checked incrementally, if so: no live
    /// constraint could be rewritten, or a template could not be
    /// translated.
    pub unsupported: Option<String>,
}

impl CompiledPattern {
    /// True if the optimized pre-update check is available.
    pub fn is_incremental(&self) -> bool {
        self.unsupported.is_none()
    }

    /// True if a decision also checks some constraint on the updated copy.
    pub fn has_residual(&self) -> bool {
        self.residual.contains(&true)
    }
}

/// Compiles a mapped update pattern against the constraint set Γ. Never
/// fails outright: constructs that cannot be simplified or translated are
/// recorded in `residual` (a constraint `After` cannot rewrite) or
/// `unsupported` (none can be, or a template does not translate).
///
/// With `independence` on (a checker's default), constraints whose read
/// footprint shares no cell with the pattern's write footprint are
/// pre-filtered before simplification: the update cannot change their
/// verdict, so they need no check at all, and the filter saves compile
/// time and records the liveness bitset. The pattern is non-incremental
/// when `After` rewrites none of the constraints the footprint keeps,
/// with the filter on or off.
pub fn compile_pattern(
    mapped: &MappedUpdate,
    gamma: &[Denial],
    schema: &RelSchema,
    independence: bool,
) -> CompiledPattern {
    // Everything below is recorded as the `compile` phase; the simplifier
    // contributes the nested `compile/after` and `compile/optimize` spans,
    // the footprint extraction the `compile/footprint` span.
    let _span = xic_obs::phase("compile");
    let key = pattern_key(&mapped.update);
    // The constraints the update can affect, whether or not the analysis
    // masks the others: which patterns have an incremental check does not
    // depend on the setting.
    let affected = {
        let _footprint = xic_obs::phase("footprint");
        live_set(&read_footprints(gamma), &update_write_footprint(&mapped.update))
    };
    let live = if independence { affected.clone() } else { vec![true; gamma.len()] };
    let cfg = SimpConfig {
        fresh: FreshSpec::Params(mapped.fresh_params.clone()),
    };
    let delta = freshness_hypotheses(&mapped.update, &mapped.fresh_params);
    let Simplified { denials: simplified, residual: unrewritten } =
        simp_live(gamma, &live, &mapped.update, &delta, &cfg);
    let mut residual = vec![false; gamma.len()];
    for (i, _) in &unrewritten {
        residual[*i] = true;
    }
    // No constraint the update can affect rewritten: the statement is the
    // baseline's.
    let affected_unrewritten = unrewritten.iter().filter(|(i, _)| affected[*i]).count();
    let baseline = affected_unrewritten > 0
        && affected_unrewritten == affected.iter().filter(|&&a| a).count();
    let post_checks: Vec<(usize, Denial, QueryTemplate)> = unrewritten
        .iter()
        .filter(|_| !baseline)
        .filter_map(|(i, _)| {
            let one = specialize_to_new_value(&gamma[*i], &mapped.update)?;
            let query = translate_denial_with(&one, schema, &mapped.node_params).ok()?;
            Some((*i, one, query))
        })
        .collect();
    let pattern = |simplified, queries, unsupported| CompiledPattern {
        key: key.clone(),
        update: mapped.update.clone(),
        simplified,
        queries,
        live: live.clone(),
        residual: residual.clone(),
        post_checks: post_checks.clone(),
        unsupported,
    };
    if baseline {
        let reason = unrewritten.iter().find(|(i, _)| affected[*i]).map(|(_, e)| e.to_string());
        return pattern(Vec::new(), Vec::new(), reason);
    }
    let translated = {
        let _span = xic_obs::phase("translate");
        translate_denials_with(&simplified, schema, &mapped.node_params)
    };
    match translated {
        Ok(queries) => {
            // A template may only address nodes that exist *before* the
            // update: a `NodePath` parameter bound to a fresh
            // (hypothetical) node id cannot be rendered as a positional
            // path. Such residuals need Δ-side evaluation the translator
            // does not provide, so the pattern falls back to the baseline.
            let refers_to_fresh = queries.iter().any(|q| {
                q.params.iter().any(|(name, kind)| {
                    matches!(kind, xic_translate::ParamKind::NodePath)
                        && mapped.fresh_params.contains(name)
                })
            });
            if refers_to_fresh {
                let reason = "simplified check references a fresh node id as a path";
                return pattern(simplified, Vec::new(), Some(reason.to_string()));
            }
            pattern(simplified, queries, None)
        }
        Err(e) => pattern(simplified, Vec::new(), Some(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolver::xpath_resolver;
    use xic_mapping::schema::paper_dtd;
    use xic_mapping::{map_denials, map_update};
    use xic_xml::{parse_document, XUpdateDoc};

    #[test]
    fn compile_example_6_pattern() {
        let dtd = paper_dtd();
        let schema = RelSchema::from_dtd(&dtd).unwrap();
        let (doc, _) = parse_document(
            "<collection><dblp/><review><track><name>T</name>\
             <rev><name>Ann</name><sub><title>S</title>\
             <auts><name>Bob</name></auts></sub></rev></track></review></collection>",
        )
        .unwrap();
        let gamma = map_denials(
            &[xic_xpathlog::parse_denial(
                "<- //rev[name/text() -> R]/sub/auts/name/text() -> A \
                 & (A = R | //pub[aut/name/text() -> A & aut/name/text() -> R])",
            )
            .unwrap()],
            &schema,
            &dtd,
        )
        .unwrap();
        let stmt = XUpdateDoc::parse(
            r#"<xupdate:modifications xmlns:xupdate="x">
              <xupdate:insert-after select="//sub[1]">
                <sub><title>New</title><auts><name>Jack</name></auts></sub>
              </xupdate:insert-after>
            </xupdate:modifications>"#,
        )
        .unwrap();
        let mapped = map_update(&doc, &schema, &stmt, &xpath_resolver).unwrap();
        let compiled = compile_pattern(&mapped, &gamma, &schema, true);
        assert!(compiled.is_incremental(), "{:?}", compiled.unsupported);
        // Example 6 yields two simplified denials.
        assert_eq!(compiled.simplified.len(), 2, "{:?}", compiled.simplified);
        assert_eq!(compiled.queries.len(), 2);
        // Instantiation produces runnable queries.
        for q in &compiled.queries {
            let q = q.instantiate(&doc, &mapped.bindings).unwrap();
            xic_xquery::parse_query(&q).unwrap_or_else(|e| panic!("{q}: {e}"));
        }
    }
}
