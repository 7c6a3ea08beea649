//! Building a whole document from nothing: [`DocumentBuilder`].
//!
//! A commit writes a handful of nodes through the document's persistent
//! write path, which copies whatever another version still shares. A
//! parse, a checkpoint load or a replayed statement builds every node of
//! a document no other version holds yet, so it writes owned memory
//! instead: the builder appends node records, child lists and per-tag
//! lists in document order — ids are preorder, so they compare in
//! document order until the first non-tail insert — and
//! [`DocumentBuilder::finish`] freezes them into the shared layout, the
//! indexes included, in one pass.

use crate::intern::SymbolTable;
use crate::shared::{Children, SharedVec};
use crate::tree::{
    is_kept_text, Chunk, Document, Node, NodeId, NodeKind, NodeRec, CHUNK, CHUNK_BITS, CHUNK_MASK, NO_SYM,
    VACANT,
};
use std::sync::Arc;

/// Builds a document in document order: open an element, add what it
/// holds (attributes first), close it. Every node is appended to the
/// innermost open element, or to the document node when none is open.
#[derive(Debug)]
pub struct DocumentBuilder {
    /// Node `i` is slot `i & CHUNK_MASK` of `chunks[i >> CHUNK_BITS]`,
    /// owned until [`DocumentBuilder::finish`] shares them. Boxed, so that
    /// each moves into its `Arc` alone and the arena is never held twice.
    #[allow(clippy::vec_box)]
    chunks: Vec<Box<Chunk>>,
    len: usize,
    symbols: SymbolTable,
    /// `by_tag[symbol]`: the attached elements carrying that tag, in id
    /// order.
    by_tag: Vec<Vec<NodeId>>,
    /// The open nodes, the document node first and the innermost last,
    /// each with where its children start in `kids`.
    open: Vec<(NodeId, usize)>,
    /// The children of the open nodes so far, outermost first.
    kids: Vec<NodeId>,
    /// Whether a node appended to the document node is linked under it
    /// (and so attached and indexed).
    link: bool,
}

impl DocumentBuilder {
    /// A builder holding the document node alone.
    pub fn new() -> DocumentBuilder {
        let mut b = DocumentBuilder {
            chunks: Vec::new(),
            len: 0,
            symbols: SymbolTable::new(),
            by_tag: Vec::new(),
            open: Vec::new(),
            kids: Vec::new(),
            link: true,
        };
        b.push_rec(NodeRec { node: leaf(NodeKind::Document, None), sym: NO_SYM, attached: true });
        b.open.push((NodeId(0), 0));
        b
    }

    /// A builder whose top-level nodes stay detached, so nothing below the
    /// document node is attached or indexed: for a tree that is read once
    /// and dropped (an XUpdate statement).
    pub(crate) fn unlinked() -> DocumentBuilder {
        DocumentBuilder { link: false, ..DocumentBuilder::new() }
    }

    fn push_rec(&mut self, rec: NodeRec) -> NodeId {
        let id = NodeId(u32::try_from(self.len).expect("node arena overflow"));
        if self.len & CHUNK_MASK == 0 {
            self.chunks.push(Box::new([VACANT; CHUNK]));
        }
        self.chunks[self.len >> CHUNK_BITS][self.len & CHUNK_MASK] = rec;
        self.len += 1;
        id
    }

    fn rec_mut(&mut self, id: NodeId) -> &mut NodeRec {
        &mut self.chunks[id.index() >> CHUNK_BITS][id.index() & CHUNK_MASK]
    }

    /// Appends a node of `kind` (tag symbol `sym`) to the innermost open
    /// node.
    fn append(&mut self, kind: NodeKind, sym: u32) -> NodeId {
        let &(parent, _) = self.open.last().expect("the document node stays open");
        let linked = self.link || self.open.len() > 1;
        let attached = linked && self.rec_mut(parent).attached;
        let id = self.push_rec(NodeRec { node: leaf(kind, linked.then_some(parent)), sym, attached });
        if linked {
            self.kids.push(id);
        }
        if attached && sym != NO_SYM {
            let sym = sym as usize;
            if self.by_tag.len() <= sym {
                self.by_tag.resize_with(sym + 1, Vec::new);
            }
            self.by_tag[sym].push(id);
        }
        id
    }

    /// Opens an element named `name`; what is appended until the matching
    /// [`DocumentBuilder::end_element`] goes inside it.
    pub fn start_element(&mut self, name: &str) -> NodeId {
        let (sym, name) = self.symbols.intern_owned(name);
        let id = self.append(NodeKind::Element { name, attrs: SharedVec::EMPTY }, sym.0);
        self.open.push((id, self.kids.len()));
        id
    }

    /// Gives the innermost open element the attribute `name` (its value
    /// replaced if it has one by that name already).
    ///
    /// # Panics
    /// Panics if no element is open.
    pub fn attr(&mut self, name: &str, value: impl Into<Arc<str>>) {
        let (_, name) = self.symbols.intern_owned(name);
        let &(el, _) = self.open.last().filter(|_| self.open.len() > 1).expect("an element is open");
        let NodeKind::Element { attrs, .. } = &mut self.rec_mut(el).node.kind else {
            unreachable!("an open node below the document node is an element");
        };
        let value = value.into();
        match attrs.iter().position(|(n, _)| *n == name) {
            Some(at) => attrs.make_mut()[at].1 = value,
            None => attrs.push((name, value)),
        }
    }

    /// Closes the innermost open element.
    ///
    /// # Panics
    /// Panics if no element is open.
    pub fn end_element(&mut self) {
        assert!(self.open.len() > 1, "no element is open");
        self.close();
    }

    /// Closes the innermost open node, giving it the children appended
    /// since it opened.
    fn close(&mut self) {
        let (id, from) = self.open.pop().expect("a node is open");
        let children = Children::from_slice(&self.kids[from..]);
        self.kids.truncate(from);
        self.rec_mut(id).node.children = children;
    }

    /// Appends a text node, unless `text` is text the parser drops
    /// ([`is_kept_text`]), which would not come back from the document's
    /// serialization.
    pub fn text(&mut self, text: &str) -> Option<NodeId> {
        is_kept_text(text).then(|| self.append(NodeKind::Text(text.into()), NO_SYM))
    }

    /// Appends a comment.
    pub fn comment(&mut self, text: impl Into<Arc<str>>) -> NodeId {
        self.append(NodeKind::Comment(text.into()), NO_SYM)
    }

    /// Appends a processing instruction.
    pub fn pi(&mut self, target: impl Into<Arc<str>>, data: impl Into<Arc<str>>) -> NodeId {
        self.append(NodeKind::Pi { target: target.into(), data: data.into() }, NO_SYM)
    }

    /// The document: every record, the symbols and the per-tag lists
    /// frozen into the shared layout.
    ///
    /// # Panics
    /// Panics if an element is still open.
    pub fn finish(mut self) -> Document {
        assert_eq!(self.open.len(), 1, "an element is still open");
        self.close();
        Document::freeze(self.chunks, self.len, self.symbols, self.by_tag)
    }
}

/// A node of `kind` under `parent`, with no children yet.
fn leaf(kind: NodeKind, parent: Option<NodeId>) -> Node {
    Node { kind, parent, children: Children::EMPTY }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::{serialize, serialize_node};

    /// `<r a="1"><x>t</x><!--c--><y><z/><z>u</z></y><?p d?><x/></r>`, built
    /// node by node through the commit path.
    fn node_by_node() -> Document {
        let mut d = Document::new();
        let r = d.create_element("r");
        d.set_attr(r, "a", "1");
        d.append_child(d.document_node(), r);
        let x = d.create_element("x");
        let t = d.create_text("t");
        d.append_child(x, t);
        d.append_child(r, x);
        let c = d.create_comment("c");
        d.append_child(r, c);
        let y = d.create_element("y");
        d.append_child(r, y);
        let z = d.create_element("z");
        d.append_child(y, z);
        let z2 = d.create_element("z");
        let u = d.create_text("u");
        d.append_child(z2, u);
        d.append_child(y, z2);
        let p = d.create_pi("p", "d");
        d.append_child(r, p);
        let x2 = d.create_element("x");
        d.append_child(r, x2);
        d
    }

    /// The same document through the builder, in document order, with
    /// text the parser would drop offered on the way.
    fn built() -> Document {
        let mut b = DocumentBuilder::new();
        b.start_element("r");
        b.attr("a", "1");
        assert_eq!(b.text(""), None);
        b.start_element("x");
        assert!(b.text("t").is_some());
        b.end_element();
        b.comment("c");
        assert_eq!(b.text(" \n\t"), None);
        b.start_element("y");
        b.start_element("z");
        b.end_element();
        b.start_element("z");
        b.text("u");
        b.end_element();
        b.end_element();
        b.pi("p", "d");
        b.start_element("x");
        b.end_element();
        b.end_element();
        b.finish()
    }

    /// The builder and the commit path build the same document, indexes and
    /// all, and the builder's ids are preorder.
    #[test]
    fn the_builder_builds_what_the_commit_path_builds() {
        let (slow, fast) = (node_by_node(), built());
        assert_eq!(serialize(&fast), serialize(&slow));
        assert_eq!(serialize(&fast), r#"<r a="1"><x>t</x><!--c--><y><z/><z>u</z></y><?p d?><x/></r>"#);
        for d in [&slow, &fast] {
            d.audit_indexes().expect("indexes equal a scan");
            d.audit_symbols().expect("symbols are coherent");
        }
        let walk: Vec<NodeId> = fast.descendants(fast.document_node()).collect();
        assert!(walk.windows(2).all(|w| w[0] < w[1]), "ids ascend in preorder: {walk:?}");
        assert_eq!(walk.len() + 1, fast.node_count());
        let tags = |d: &Document, tag: &str| -> Vec<String> {
            let sym = d.symbols().lookup(tag).expect("the tag is interned");
            d.elements_named(sym).map(|n| serialize_node(d, n)).collect()
        };
        for tag in ["r", "x", "y", "z"] {
            assert_eq!(tags(&fast, tag), tags(&slow, tag), "{tag}");
        }
        let texts = |d: &Document| {
            d.descendants(d.document_node()).filter(|&n| matches!(d.node(n).kind, NodeKind::Text(_))).count()
        };
        assert_eq!(texts(&fast), 2);
    }
}
