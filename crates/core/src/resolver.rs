//! XPath-backed resolver for XUpdate `select` expressions.

use xic_xml::{Document, NodeId, SelectError};
use xic_xpath::{evaluate_nodes, parse, Context, EvalError, NodeRef};

/// Resolves an XUpdate `select` expression to node ids (of any kind but
/// attribute) in document order, using the full XPath engine.
pub fn xpath_resolver(doc: &Document, select: &str) -> Result<Vec<NodeId>, SelectError> {
    let expr = parse(select).map_err(|e| SelectError::Other(e.to_string()))?;
    let ctx = Context::root(doc);
    let nodes = evaluate_nodes(&expr, &ctx).map_err(|e| match e {
        EvalError::BudgetExhausted => SelectError::BudgetExhausted,
        e => SelectError::Other(e.to_string()),
    })?;
    Ok(nodes
        .into_iter()
        .filter_map(|n| match n {
            NodeRef::Node(id) => Some(id),
            NodeRef::Attr { .. } => None,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_xml::parse_document;

    #[test]
    fn resolves_positional_paths() {
        let (doc, _) = parse_document(
            "<review><track><name>A</name><rev><name>r</name></rev>\
             <rev><name>s</name></rev></track></review>",
        )
        .unwrap();
        let hits = xpath_resolver(&doc, "/review/track[1]/rev[2]").unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(doc.text_content(hits[0]), "s");
        assert!(xpath_resolver(&doc, "//nothing").unwrap().is_empty());
        assert!(xpath_resolver(&doc, "///").is_err());
    }
}
