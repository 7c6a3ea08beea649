//! Compilation of update patterns: at registration, or on the first
//! sight of a statement of the pattern's shape.

use xic_datalog::{Denial, Update};
use xic_mapping::{pattern_key, MappedUpdate, RelSchema};
use xic_simplify::{
    freshness_hypotheses, live_set, read_footprints, simp_live, update_write_footprint, FreshSpec,
    SimpConfig,
};
use xic_translate::{translate_denials_with, QueryTemplate};

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
    /// Why this pattern cannot be checked incrementally, if so.
    pub unsupported: Option<String>,
}

impl CompiledPattern {
    /// True if the optimized pre-update check is available.
    pub fn is_incremental(&self) -> bool {
        self.unsupported.is_none()
    }
}

/// Compiles a mapped update pattern against the constraint set Γ. Never
/// fails outright: constructs that cannot be simplified or translated are
/// recorded in `unsupported`.
///
/// With `independence` on (a checker's default), constraints whose read
/// footprint shares no relation with the pattern's added tuples are
/// pre-filtered before simplification — they would be
/// expanded unchanged by `After` and eliminated by hypothesis subsumption
/// anyway (the pattern's templates are identical either way), so the
/// filter only saves compile time and records the liveness bitset. A
/// constraint that could make simplification unsupported always mentions
/// an added predicate and is therefore always retained: supportedness
/// does not depend on the flag.
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
    let live = if independence {
        let _footprint = xic_obs::phase("footprint");
        let wfp = update_write_footprint(&mapped.update);
        live_set(&read_footprints(gamma), &wfp)
    } else {
        vec![true; gamma.len()]
    };
    let cfg = SimpConfig {
        fresh: FreshSpec::Params(mapped.fresh_params.clone()),
    };
    let delta = freshness_hypotheses(&mapped.update, &mapped.fresh_params);
    let (simplified, unsupported) =
        match simp_live(gamma, &live, &mapped.update, &delta, &cfg) {
            Ok(s) => (s, None),
            Err(e) => (Vec::new(), Some(e.to_string())),
        };
    if unsupported.is_some() {
        return CompiledPattern {
            key,
            update: mapped.update.clone(),
            simplified,
            queries: Vec::new(),
            live,
            unsupported,
        };
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
                return CompiledPattern {
                    key,
                    update: mapped.update.clone(),
                    simplified,
                    queries: Vec::new(),
                    live,
                    unsupported: Some(
                        "simplified check references a fresh node id as a path".to_string(),
                    ),
                };
            }
            CompiledPattern {
                key,
                update: mapped.update.clone(),
                simplified,
                queries,
                live,
                unsupported: None,
            }
        }
        Err(e) => CompiledPattern {
            key,
            update: mapped.update.clone(),
            simplified,
            queries: Vec::new(),
            live,
            unsupported: Some(e.to_string()),
        },
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
