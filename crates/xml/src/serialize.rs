//! Serialization of documents and subtrees back to XML text.

use crate::escape::{escape_attr, escape_text};
use crate::tree::{Document, NodeId, NodeKind};

/// Serializes the whole document (children of the document node, in
/// order), without an XML declaration.
pub fn serialize(doc: &Document) -> String {
    serialize_node(doc, doc.document_node())
}

/// True if the two documents serialize to byte-identical XML text — the
/// document-equality relation the differential oracles use (node ids and
/// detached arena slots are deliberately ignored).
pub fn serialize_equal(a: &Document, b: &Document) -> bool {
    serialize(a) == serialize(b)
}

/// Serializes a single node (and its subtree).
///
/// Iterative at any depth: each open element keeps its end tag and the
/// siblings after it on a heap stack, not a call frame.
pub fn serialize_node(doc: &Document, id: NodeId) -> String {
    let mut out = String::new();
    let mut stack: Vec<(&[NodeId], &str)> = Vec::new();
    let mut rest: &[NodeId] = std::slice::from_ref(&id);
    loop {
        let Some((&id, after)) = rest.split_first() else {
            let Some((siblings, name)) = stack.pop() else {
                return out;
            };
            out.push_str("</");
            out.push_str(name);
            out.push('>');
            rest = siblings;
            continue;
        };
        rest = after;
        let node = doc.node(id);
        match &node.kind {
            // Never a child, so only ever the subtree's root.
            NodeKind::Document => rest = &node.children,
            NodeKind::Element { name, attrs } => {
                out.push('<');
                out.push_str(name);
                for (k, v) in attrs {
                    out.push(' ');
                    out.push_str(k);
                    out.push_str("=\"");
                    out.push_str(&escape_attr(v));
                    out.push('"');
                }
                if node.children.is_empty() {
                    out.push_str("/>");
                } else {
                    out.push('>');
                    stack.push((rest, name));
                    rest = &node.children;
                }
            }
            NodeKind::Text(t) => out.push_str(&escape_text(t)),
            NodeKind::Comment(t) => {
                out.push_str("<!--");
                out.push_str(t);
                out.push_str("-->");
            }
            NodeKind::Pi { target, data } => {
                out.push_str("<?");
                out.push_str(target);
                if !data.is_empty() {
                    out.push(' ');
                    out.push_str(data);
                }
                out.push_str("?>");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialize_small_tree() {
        let mut d = Document::new();
        let root = d.create_element("pub");
        d.set_attr(root, "year", "2006");
        d.append_child(d.document_node(), root);
        let title = d.create_element("title");
        let t = d.create_text("A < B & C");
        d.append_child(title, t);
        d.append_child(root, title);
        let empty = d.create_element("aut");
        d.append_child(root, empty);
        assert_eq!(
            serialize(&d),
            "<pub year=\"2006\"><title>A &lt; B &amp; C</title><aut/></pub>"
        );
    }

    #[test]
    fn serialize_comment_and_pi() {
        let mut d = Document::new();
        let root = d.create_element("r");
        d.append_child(d.document_node(), root);
        let c = d.create_comment(" hello ");
        let pi = d.create_pi("xupdate", "version=\"1.0\"");
        d.append_child(root, c);
        d.append_child(root, pi);
        assert_eq!(
            serialize_node(&d, root),
            "<r><!-- hello --><?xupdate version=\"1.0\"?></r>"
        );
    }
}
