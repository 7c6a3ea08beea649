//! XPath-backed resolver for XUpdate `select` expressions.

use xic_xml::{Document, NodeId, SelectError, XUpdateDoc};
use xic_xpath::{evaluate_nodes, parse, Context, EvalError, NodeRef};

/// Resolves an XUpdate `select` expression to node ids (of any kind but
/// attribute) in document order, using the full XPath engine (one
/// [`xic_obs::Counter::SelectResolve`]).
pub fn xpath_resolver(doc: &Document, select: &str) -> Result<Vec<NodeId>, SelectError> {
    xic_obs::incr(xic_obs::Counter::SelectResolve);
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

/// A resolver that answers each operation of `stmt` with the one node
/// `targets` holds for it (in statement order), evaluating nothing: for
/// applying a statement whose selects were resolved on the same version,
/// none of which can observe an earlier operation. An operation's
/// `select` is answered by the first operation with the same text, which
/// resolved to the same node on that version.
pub(crate) fn resolved_targets<'a>(
    stmt: &'a XUpdateDoc,
    targets: &'a [NodeId],
) -> impl Fn(&Document, &str) -> Result<Vec<NodeId>, SelectError> + 'a {
    move |_, select| {
        let k = stmt.ops.iter().position(|op| op.select() == select);
        match k.and_then(|k| targets.get(k)) {
            Some(&target) => Ok(vec![target]),
            None => Err(SelectError::Other(format!("select {select:?} was not resolved"))),
        }
    }
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
