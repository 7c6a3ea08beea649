//! Property tests for name interning: intern/lookup/resolve round-trips,
//! symbol distinctness, concurrent-lookup stability of the append-only
//! table, and every element's cached tag-name symbol staying coherent
//! across random update batches.

use proptest::prelude::*;
use proptest::TestCaseError;
use xic_xml::{parse_document, Document, NodeId, SelectError, Symbol, SymbolTable, XUpdateDoc};

const TAGS: &[&str] = &["a", "b", "c", "d", "e"];

fn names_strategy() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec("[a-z]{1,6}", 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    /// intern → lookup → resolve is the identity on every name, however
    /// often it repeats in the stream.
    #[test]
    fn intern_round_trips(names in names_strategy()) {
        let t = SymbolTable::new();
        for name in &names {
            let s = t.intern(name);
            prop_assert_eq!(t.lookup(name), Some(s), "lookup sees what intern minted");
            let resolved = t.resolve(s);
            prop_assert_eq!(resolved.as_deref(), Some(name.as_str()));
            prop_assert_eq!(t.intern(name), s, "re-interning is idempotent");
        }
    }

    /// Distinct names get distinct symbols, and symbols are dense: the
    /// table's size equals the number of distinct names interned.
    #[test]
    fn distinct_names_get_distinct_dense_symbols(names in names_strategy()) {
        let t = SymbolTable::new();
        let mut seen: std::collections::HashMap<String, Symbol> = Default::default();
        for name in &names {
            let s = t.intern(name);
            if let Some(&prev) = seen.get(name) {
                prop_assert_eq!(s, prev);
            } else {
                prop_assert!(
                    !seen.values().any(|&other| other == s),
                    "fresh name reused an existing symbol"
                );
                prop_assert_eq!(s.0 as usize, seen.len(), "symbols are minted densely");
                seen.insert(name.clone(), s);
            }
        }
        prop_assert_eq!(t.len(), seen.len());
    }

    /// Hammering one table from several threads (every thread interning
    /// an overlapping slice of the name stream while also looking names
    /// up) never yields two symbols for one name or a stale lookup after
    /// a local intern — the append-only contract under contention.
    #[test]
    fn concurrent_interning_is_stable(names in names_strategy()) {
        let t = SymbolTable::new();
        let results: Vec<Vec<(String, Symbol)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|offset| {
                    let names = &names;
                    let t = &t;
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        for i in 0..names.len() {
                            // Interleave thread start points so interns race.
                            let name = &names[(i + offset * 7) % names.len()];
                            let s = t.intern(name);
                            assert_eq!(
                                t.lookup(name),
                                Some(s),
                                "a symbol vanished after interning"
                            );
                            mine.push((name.clone(), s));
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("interner thread panicked")).collect()
        });
        // All threads must agree on every name's symbol.
        let mut agreed: std::collections::HashMap<String, Symbol> = Default::default();
        for pairs in results {
            for (name, s) in pairs {
                if let Some(&prev) = agreed.get(&name) {
                    prop_assert_eq!(s, prev, "threads disagree on a symbol");
                } else {
                    agreed.insert(name, s);
                }
            }
        }
        let distinct: std::collections::HashSet<&String> = names.iter().collect();
        prop_assert_eq!(t.len(), distinct.len());
    }

    /// The cached tag-name symbols survive random rename / append /
    /// remove batches: `audit_symbols` (which re-interns every attached
    /// element's name) stays clean after every statement.
    #[test]
    fn symbols_stay_coherent_across_updates(
        ops in prop::collection::vec(
            (0usize..3, prop::sample::select(TAGS), prop::sample::select(TAGS)),
            1..6,
        ),
    ) {
        let (mut doc, _) = parse_document(
            "<r><a><b>x</b><c/></a><b><d/></b><a><e>y</e></a></r>",
        )
        .expect("fixture parses");
        for (kind, tag, tag2) in ops {
            let stmt = match kind {
                0 => format!(
                    "<xupdate:modifications xmlns:xupdate=\"x\">\
                     <xupdate:rename select=\"//{tag}\">{tag2}</xupdate:rename>\
                     </xupdate:modifications>"
                ),
                1 => format!(
                    "<xupdate:modifications xmlns:xupdate=\"x\">\
                     <xupdate:append select=\"/r\"><{tag}><{tag2}/></{tag}></xupdate:append>\
                     </xupdate:modifications>"
                ),
                _ => format!(
                    "<xupdate:modifications xmlns:xupdate=\"x\">\
                     <xupdate:remove select=\"//{tag}[1]\"/>\
                     </xupdate:modifications>"
                ),
            };
            let parsed = XUpdateDoc::parse(&stmt).expect("statement parses");
            // A tiny hand-rolled resolver for the three selector shapes the
            // generator emits: `/r`, `//tag` and `//tag[1]`. Kept free of
            // xic-xpath so this crate's tests stay dependency-closed.
            let resolver = |d: &Document, sel: &str| -> Result<Vec<NodeId>, SelectError> {
                if sel == "/r" {
                    return Ok(d.root_element().into_iter().collect());
                }
                let rest = sel
                    .strip_prefix("//")
                    .ok_or_else(|| SelectError::Other(format!("unknown selector {sel}")))?;
                let (tag, first_only) = match rest.strip_suffix("[1]") {
                    Some(tag) => (tag, true),
                    None => (rest, false),
                };
                let mut hits: Vec<NodeId> = d
                    .descendants(d.document_node())
                    .filter(|&n| d.name(n) == Some(tag))
                    .collect();
                if first_only {
                    hits.truncate(1);
                }
                Ok(hits)
            };
            match xic_xml::apply(&mut doc, &parsed, &resolver) {
                Ok(_) => {}
                Err((_, partial)) => xic_xml::undo(&mut doc, partial),
            }
            doc.audit_symbols().map_err(|e| {
                TestCaseError::Fail(format!("symbols corrupt after {stmt}: {e}"))
            })?;
        }
    }
}
