//! Property test: parse ∘ serialize is the identity on serialized
//! documents, and the undo log restores exact pre-update state across
//! random update batches.

use proptest::prelude::*;
use xic_xml::{
    apply, parse_document, serialize, undo, Document, NodeId, SelectError, XUpdateDoc,
};

const TAGS: &[&str] = &["a", "b", "c", "d"];

fn doc_strategy() -> impl Strategy<Value = String> {
    // Random tree rendered to XML, with text and attributes.
    fn subtree(depth: u32) -> BoxedStrategy<String> {
        if depth == 0 {
            return "[a-z<&\" ]{0,8}"
                .prop_map(|t| xic_xml::escape::escape_text(&t))
                .boxed();
        }
        prop::collection::vec(
            prop_oneof![
                subtree(depth - 1),
                (prop::sample::select(TAGS), prop::option::of("[a-z]{1,4}"), subtree(depth - 1))
                    .prop_map(|(tag, attr, inner)| {
                        let attrs = attr
                            .map(|a| format!(" k=\"{a}\""))
                            .unwrap_or_default();
                        if inner.is_empty() {
                            format!("<{tag}{attrs}/>")
                        } else {
                            format!("<{tag}{attrs}>{inner}</{tag}>")
                        }
                    }),
            ],
            0..4,
        )
        .prop_map(|parts| parts.concat())
        .boxed()
    }
    subtree(3).prop_map(|inner| format!("<root>{inner}</root>"))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    #[test]
    fn parse_serialize_fixpoint(src in doc_strategy()) {
        let Ok((doc, _)) = parse_document(&src) else { return Ok(()); };
        let once = serialize(&doc);
        let (doc2, _) = parse_document(&once).expect("serialized output reparses");
        let twice = serialize(&doc2);
        prop_assert_eq!(once, twice, "serialize must be a fixpoint");
    }

    #[test]
    fn undo_restores_exact_state(
        src in doc_strategy(),
        ops in prop::collection::vec((0usize..3, prop::sample::select(TAGS)), 1..4),
    ) {
        let Ok((mut doc, _)) = parse_document(&src) else { return Ok(()); };
        let before = serialize(&doc);
        let before_count = doc.node_count();
        // Build a statement from random ops targeting the root.
        let body: String = ops
            .iter()
            .map(|(kind, tag)| match kind {
                0 => format!(
                    "<xupdate:append select=\"/root\"><{tag}>x</{tag}></xupdate:append>"
                ),
                1 => "<xupdate:insert-before select=\"/root\"><!-- skip --></xupdate:insert-before>"
                    .to_string(),
                _ => format!("<xupdate:update select=\"/root\">{tag}</xupdate:update>"),
            })
            .collect();
        let stmt = format!(
            "<xupdate:modifications xmlns:xupdate=\"x\">{body}</xupdate:modifications>"
        );
        let Ok(stmt) = XUpdateDoc::parse(&stmt) else { return Ok(()); };
        let resolver = |d: &Document, sel: &str| -> Result<Vec<NodeId>, SelectError> {
            if sel == "/root" {
                Ok(d.root_element().into_iter().collect())
            } else {
                Err(SelectError::Other(format!("unknown {sel}")))
            }
        };
        match apply(&mut doc, &stmt, &resolver) {
            Ok(applied) => {
                undo(&mut doc, applied);
            }
            Err((_, partial)) => {
                undo(&mut doc, partial);
            }
        }
        prop_assert_eq!(serialize(&doc), before);
        // Node slots are never reused: ids stay fresh after rollback.
        prop_assert!(doc.node_count() >= before_count);
    }
}
