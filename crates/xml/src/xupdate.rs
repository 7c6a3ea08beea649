//! The XUpdate language \[13\]: parsing `<xupdate:modifications>` documents
//! and applying them to a [`Document`] with a compensating undo log.
//!
//! Target selection uses XPath strings; since the XPath engine lives in a
//! higher crate, application takes a [`SelectResolver`] callback that maps
//! a select expression to node ids. `xicheck` wires in the real XPath
//! evaluator; tests here use a simple positional resolver.

use crate::tree::{is_kept_text, Attr, Document, NodeId, NodeKind};
use std::fmt;

/// Resolves an XUpdate `select` expression to target nodes, in document
/// order.
pub type SelectResolver<'a> = &'a dyn Fn(&Document, &str) -> Result<Vec<NodeId>, SelectError>;

/// Why a [`SelectResolver`] produced no targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectError {
    /// The evaluation ran out of the step budget armed around it (a
    /// request deadline): a timeout, not a defect of the statement.
    BudgetExhausted,
    /// The expression does not parse or does not evaluate.
    Other(String),
}

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectError::BudgetExhausted => f.write_str("evaluation step budget exhausted"),
            SelectError::Other(m) => f.write_str(m),
        }
    }
}

/// The content an insertion carries, detached from any document: its
/// nodes in document order (pre-order), each with the index of its parent
/// — the shape of [`Document`]'s arena. The nodes without a parent are the
/// top-level nodes, inserted one after another. No walk over a fragment
/// recurses, however deep it nests, and dropping one drops a `Vec`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Fragment {
    nodes: Vec<FragmentNode>,
    /// Per node, one past the index of its last descendant.
    ends: Vec<usize>,
}

/// One node of a [`Fragment`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragmentNode {
    /// The index of the parent element in the fragment; `None` at the top.
    pub parent: Option<usize>,
    /// What the node is.
    pub kind: FragmentKind,
}

/// What a [`FragmentNode`] is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FragmentKind {
    /// An element with attributes.
    Element {
        /// Tag name.
        name: String,
        /// Attributes.
        attrs: Vec<(String, String)>,
    },
    /// A text node.
    Text(String),
}

impl Fragment {
    /// The nodes, in document order.
    pub fn nodes(&self) -> &[FragmentNode] {
        &self.nodes
    }

    /// The indexes of the top-level nodes, in order.
    pub fn roots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.nodes.len()).filter(|&i| self.nodes[i].parent.is_none())
    }

    /// The indexes of `i`'s children, in order: each child's subtree is
    /// stepped over, not walked.
    pub fn children(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let end = self.ends[i];
        std::iter::successors(Some(i + 1), |&j| self.ends.get(j).copied())
            .take_while(move |&j| j < end)
    }

    /// The indexes of `i` and its descendants.
    pub fn subtree(&self, i: usize) -> std::ops::Range<usize> {
        i..self.ends[i]
    }

    /// The text of `i`'s subtree, in document order.
    pub fn text(&self, i: usize) -> String {
        let texts = self.nodes[self.subtree(i)].iter().filter_map(|n| match &n.kind {
            FragmentKind::Text(t) => Some(t.as_str()),
            FragmentKind::Element { .. } => None,
        });
        texts.collect()
    }

    /// The element name of node `i`, if it is an element.
    pub fn name(&self, i: usize) -> Option<&str> {
        match &self.nodes[i].kind {
            FragmentKind::Element { name, .. } => Some(name),
            FragmentKind::Text(_) => None,
        }
    }

    fn push(&mut self, parent: Option<usize>, kind: FragmentKind) -> usize {
        self.nodes.push(FragmentNode { parent, kind });
        self.nodes.len() - 1
    }

    /// Pushes a text node, unless `text` is text the parser drops
    /// ([`is_kept_text`]): a fragment holds no node an insertion would
    /// commit and a reparse would not give back.
    fn push_text(&mut self, parent: Option<usize>, text: String) {
        if is_kept_text(&text) {
            self.push(parent, FragmentKind::Text(text));
        }
    }

    /// Records where each node's subtree ends, once every node is pushed:
    /// a node's subtree ends where the first node after it that is not
    /// its descendant starts.
    fn finish(mut self) -> Fragment {
        let n = self.nodes.len();
        self.ends = vec![n; n];
        let mut open: Vec<usize> = Vec::new();
        for (j, node) in self.nodes.iter().enumerate() {
            while let Some(&closed) = open.last().filter(|&&top| Some(top) != node.parent) {
                self.ends[closed] = j;
                open.pop();
            }
            open.push(j);
        }
        self
    }

    /// Materializes the fragment as detached nodes in `doc`, allocated in
    /// document order, and returns the roots of the new subtrees.
    pub fn build(&self, doc: &mut Document) -> Vec<NodeId> {
        let mut built: Vec<NodeId> = Vec::with_capacity(self.nodes.len());
        let mut roots = Vec::new();
        for node in &self.nodes {
            let n = match &node.kind {
                FragmentKind::Text(t) => doc.create_text(t.as_str()),
                FragmentKind::Element { name, attrs } => {
                    let el = doc.create_element(name);
                    for (k, v) in attrs {
                        doc.set_attr(el, k, v.as_str());
                    }
                    el
                }
            };
            match node.parent {
                Some(p) => doc.append_child(built[p], n),
                None => roots.push(n),
            }
            built.push(n);
        }
        roots
    }
}

/// One XUpdate operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XUpdateOp {
    /// `<xupdate:insert-before select="…">content</…>`
    InsertBefore {
        /// Target selection.
        select: String,
        /// Content inserted before each target.
        content: Fragment,
    },
    /// `<xupdate:insert-after select="…">content</…>`
    InsertAfter {
        /// Target selection.
        select: String,
        /// Content inserted after each target.
        content: Fragment,
    },
    /// `<xupdate:append select="…" [child="n"]>content</…>`
    Append {
        /// Target selection (the parent receiving new children).
        select: String,
        /// 1-based child position; `None` appends at the end.
        child: Option<usize>,
        /// Content appended to each target.
        content: Fragment,
    },
    /// `<xupdate:remove select="…"/>`
    Remove {
        /// Target selection.
        select: String,
    },
    /// `<xupdate:update select="…">new text</…>` — replaces the content of
    /// each target with the given text: one text node, or none when the
    /// text is empty or all whitespace, which the parser would drop too.
    Update {
        /// Target selection.
        select: String,
        /// Replacement text.
        text: String,
    },
    /// `<xupdate:rename select="…">new-name</…>`
    Rename {
        /// Target selection.
        select: String,
        /// New element name.
        name: String,
    },
}

impl XUpdateOp {
    /// The operation's select expression.
    pub fn select(&self) -> &str {
        match self {
            XUpdateOp::InsertBefore { select, .. }
            | XUpdateOp::InsertAfter { select, .. }
            | XUpdateOp::Append { select, .. }
            | XUpdateOp::Remove { select }
            | XUpdateOp::Update { select, .. }
            | XUpdateOp::Rename { select, .. } => select,
        }
    }

    /// True if the operation only inserts new content (the fragment the
    /// paper's simplification focuses on).
    pub fn is_insertion(&self) -> bool {
        self.content().is_some()
    }

    /// The content an insertion inserts.
    pub fn content(&self) -> Option<&Fragment> {
        match self {
            XUpdateOp::InsertBefore { content, .. }
            | XUpdateOp::InsertAfter { content, .. }
            | XUpdateOp::Append { content, .. } => Some(content),
            XUpdateOp::Remove { .. } | XUpdateOp::Update { .. } | XUpdateOp::Rename { .. } => None,
        }
    }
}

/// A parsed `<xupdate:modifications>` document.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct XUpdateDoc {
    /// Operations in document order.
    pub ops: Vec<XUpdateOp>,
}

/// XUpdate parsing/application failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XUpdateError {
    /// The statement is malformed, or does not apply to this document: a
    /// `select` that fails or matches nothing, an operation aimed at a
    /// node it is not defined for.
    Invalid(String),
    /// A `select` ran out of the step budget armed around the call
    /// ([`SelectError::BudgetExhausted`]).
    BudgetExhausted,
}

impl fmt::Display for XUpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XUpdateError::Invalid(m) => write!(f, "XUpdate error: {m}"),
            XUpdateError::BudgetExhausted => {
                write!(f, "XUpdate error: {}", SelectError::BudgetExhausted)
            }
        }
    }
}

impl std::error::Error for XUpdateError {}

fn local_name(qname: &str) -> &str {
    qname.rsplit(':').next().unwrap_or(qname)
}

/// `name` as a name a statement gives an element or attribute: it must
/// pass the rule the parser reads names by, or the statement is refused
/// before anything is applied (`what` says where the name came from).
fn xml_name(name: String, what: &str) -> Result<String, XUpdateError> {
    if crate::parse::is_name(&name) {
        Ok(name)
    } else {
        Err(XUpdateError::Invalid(format!("{what} {name:?} is not an XML name")))
    }
}

impl XUpdateDoc {
    /// Parses an XUpdate statement from XML text.
    pub fn parse(text: &str) -> Result<XUpdateDoc, XUpdateError> {
        let (doc, root) = crate::parse::parse_unindexed(text)
            .map_err(|e| XUpdateError::Invalid(format!("malformed XUpdate XML: {e}")))?;
        Self::from_root(&doc, root)
    }

    /// Extracts the operations under `root`, the statement's root element.
    fn from_root(doc: &Document, root: NodeId) -> Result<XUpdateDoc, XUpdateError> {
        if local_name(doc.name(root).unwrap_or("")) != "modifications" {
            return Err(XUpdateError::Invalid(format!(
                "root element must be xupdate:modifications, found <{}>",
                doc.name(root).unwrap_or("?")
            )));
        }
        let mut ops = Vec::new();
        for op_node in doc.element_children(root) {
            let op_name = local_name(doc.name(op_node).expect("element"));
            let select = doc
                .attr(op_node, "select")
                .ok_or_else(|| XUpdateError::Invalid(format!("<{op_name}> without select")))?
                .to_string();
            let op = match op_name {
                "insert-before" => XUpdateOp::InsertBefore {
                    select,
                    content: parse_content(doc, op_node)?,
                },
                "insert-after" => XUpdateOp::InsertAfter {
                    select,
                    content: parse_content(doc, op_node)?,
                },
                "append" => XUpdateOp::Append {
                    select,
                    child: doc
                        .attr(op_node, "child")
                        .map(|c| {
                            c.parse::<usize>()
                                .map_err(|_| {
                                    XUpdateError::Invalid(format!("bad child index {c:?}"))
                                })
                        })
                        .transpose()?,
                    content: parse_content(doc, op_node)?,
                },
                "remove" => XUpdateOp::Remove { select },
                "update" => XUpdateOp::Update {
                    select,
                    text: doc.text_content(op_node),
                },
                "rename" => XUpdateOp::Rename {
                    select,
                    name: xml_name(doc.text_content(op_node).trim().to_string(), "rename to")?,
                },
                other => {
                    return Err(XUpdateError::Invalid(format!(
                        "unsupported XUpdate operation <{other}>"
                    )))
                }
            };
            ops.push(op);
        }
        Ok(XUpdateDoc { ops })
    }

    /// True if every operation is an insertion (the class of updates the
    /// simplification framework targets).
    pub fn insertions_only(&self) -> bool {
        self.ops.iter().all(XUpdateOp::is_insertion)
    }

    /// Serializes the statement back to XUpdate XML. The output re-parses
    /// to an equal `XUpdateDoc` (see the round-trip test), which is what
    /// the write-ahead journal relies on to make records replayable.
    pub fn to_xml(&self) -> String {
        use crate::escape::{escape_attr, escape_text};
        fn write_fragment(f: &Fragment, out: &mut String) {
            // The elements whose end tag is still to be written, with the
            // index their subtree ends at; each is closed when it is reached.
            let mut open: Vec<(usize, &str)> = Vec::new();
            let close_until = |at: usize, open: &mut Vec<(usize, &str)>, out: &mut String| {
                while let Some(&(_, name)) = open.last().filter(|&&(end, _)| end <= at) {
                    out.push_str("</");
                    out.push_str(name);
                    out.push('>');
                    open.pop();
                }
            };
            for (i, node) in f.nodes.iter().enumerate() {
                close_until(i, &mut open, out);
                match &node.kind {
                    FragmentKind::Text(t) => out.push_str(&escape_text(t)),
                    FragmentKind::Element { name, attrs } => {
                        out.push('<');
                        out.push_str(name);
                        for (k, v) in attrs {
                            out.push(' ');
                            out.push_str(k);
                            out.push_str("=\"");
                            out.push_str(&escape_attr(v));
                            out.push('"');
                        }
                        if f.ends[i] == i + 1 {
                            out.push_str("/>");
                        } else {
                            out.push('>');
                            open.push((f.ends[i], name));
                        }
                    }
                }
            }
            close_until(f.nodes.len(), &mut open, out);
        }
        fn write_op(tag: &str, select: &str, child: Option<usize>, body: &dyn Fn(&mut String), out: &mut String) {
            out.push_str("<xupdate:");
            out.push_str(tag);
            out.push_str(" select=\"");
            out.push_str(&escape_attr(select));
            out.push('"');
            if let Some(c) = child {
                out.push_str(&format!(" child=\"{c}\""));
            }
            let mut inner = String::new();
            body(&mut inner);
            if inner.is_empty() {
                out.push_str("/>");
            } else {
                out.push('>');
                out.push_str(&inner);
                out.push_str("</xupdate:");
                out.push_str(tag);
                out.push('>');
            }
        }
        let mut out =
            String::from("<xupdate:modifications xmlns:xupdate=\"http://www.xmldb.org/xupdate\">");
        for op in &self.ops {
            match op {
                XUpdateOp::InsertBefore { select, content } => write_op(
                    "insert-before",
                    select,
                    None,
                    &|o| write_fragment(content, o),
                    &mut out,
                ),
                XUpdateOp::InsertAfter { select, content } => write_op(
                    "insert-after",
                    select,
                    None,
                    &|o| write_fragment(content, o),
                    &mut out,
                ),
                XUpdateOp::Append { select, child, content } => write_op(
                    "append",
                    select,
                    *child,
                    &|o| write_fragment(content, o),
                    &mut out,
                ),
                XUpdateOp::Remove { select } => write_op("remove", select, None, &|_| {}, &mut out),
                XUpdateOp::Update { select, text } => write_op(
                    "update",
                    select,
                    None,
                    &|o| o.push_str(&escape_text(text)),
                    &mut out,
                ),
                XUpdateOp::Rename { select, name } => write_op(
                    "rename",
                    select,
                    None,
                    &|o| o.push_str(&escape_text(name)),
                    &mut out,
                ),
            }
        }
        out.push_str("</xupdate:modifications>");
        out
    }
}

/// The content under `op_node` as a [`Fragment`], read in document order
/// off an explicit stack: text and literal elements as they are,
/// `xupdate:element` with the attributes its `xupdate:attribute` children
/// give, `xupdate:text` as its text; comments and processing
/// instructions are dropped.
fn parse_content(doc: &Document, op_node: NodeId) -> Result<Fragment, XUpdateError> {
    let named = |attrs: &[Attr], what: &str| {
        let name = attrs.iter().find(|(k, _)| &**k == "name").map(|(_, v)| v.to_string());
        let name = name.ok_or_else(|| XUpdateError::Invalid(format!("{what} without name")))?;
        xml_name(name, &format!("{what} name"))
    };
    let mut out = Fragment::default();
    // (node, the fragment index of its parent, whether that parent is an
    // `xupdate:element`, whose `xupdate:attribute` children give it
    // attributes)
    let mut pending: Vec<(NodeId, Option<usize>, bool)> =
        doc.node(op_node).children.iter().rev().map(|&c| (c, None, false)).collect();
    while let Some((node, parent, constructed)) = pending.pop() {
        let (name, attrs) = match &doc.node(node).kind {
            NodeKind::Text(t) => {
                out.push_text(parent, t.to_string());
                continue;
            }
            NodeKind::Element { name, attrs } => (name, attrs),
            _ => continue,
        };
        let constructor = name.starts_with("xupdate:");
        let kind = match (constructor, local_name(name)) {
            (true, "attribute") if constructed => {
                let attr = (named(attrs, "xupdate:attribute")?, doc.text_content(node));
                let owner = parent.expect("an xupdate:element is in the fragment");
                let FragmentKind::Element { attrs, .. } = &mut out.nodes[owner].kind else {
                    unreachable!("an xupdate:element is an element");
                };
                attrs.push(attr);
                continue;
            }
            (true, "element") => {
                FragmentKind::Element { name: named(attrs, "xupdate:element")?, attrs: Vec::new() }
            }
            (true, "text") => {
                out.push_text(parent, doc.text_content(node));
                continue;
            }
            (true, other) => {
                return Err(XUpdateError::Invalid(format!(
                    "unsupported content constructor xupdate:{other}"
                )))
            }
            (false, _) => FragmentKind::Element {
                name: name.to_string(),
                attrs: attrs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            },
        };
        let at = out.push(parent, kind);
        pending.extend(doc.node(node).children.iter().rev().map(|&c| (c, Some(at), constructor)));
    }
    Ok(out.finish())
}

// ---------------------------------------------------------------------
// Application with undo
// ---------------------------------------------------------------------

/// One compensating action — read the other way round, one thing the
/// update did to the tree.
#[derive(Debug, Clone)]
pub enum UndoEntry {
    /// Detach a node that the update inserted.
    Detach(NodeId),
    /// Re-attach a node that the update removed, at its original index.
    Reattach {
        /// The parent the node was removed from.
        parent: NodeId,
        /// Its child index under `parent` when it was removed.
        index: usize,
        /// The removed node; its subtree stays intact while detached.
        node: NodeId,
    },
    /// Restore an element's old name.
    Rename {
        /// The renamed element.
        node: NodeId,
        /// Its name before the update.
        old: String,
    },
}

/// The record of an applied update: inserted roots (for inspection) and a
/// compensating log consumed by [`undo`].
#[derive(Debug, Default)]
pub struct AppliedUpdate {
    /// Roots of subtrees the update inserted.
    pub inserted: Vec<NodeId>,
    log: Vec<UndoEntry>,
}

impl AppliedUpdate {
    /// Every change the update made to the tree, in application order.
    /// The log is complete by construction: [`undo`] restores the
    /// pre-update state from nothing else.
    pub fn log(&self) -> &[UndoEntry] {
        &self.log
    }
}

/// Applies `upd` to `doc`. `resolve` maps each operation's select string
/// to target nodes. Operations are applied in order; an error leaves the
/// document in a partially updated state — callers that need atomicity
/// should [`undo`] the returned (partial) record from the error payload…
/// which is why the error carries it.
pub fn apply(
    doc: &mut Document,
    upd: &XUpdateDoc,
    resolve: SelectResolver,
) -> Result<AppliedUpdate, (XUpdateError, AppliedUpdate)> {
    let mut applied = AppliedUpdate::default();
    for op in &upd.ops {
        if let Err(e) = apply_op(doc, op, resolve, &mut applied) {
            return Err((e, applied));
        }
    }
    Ok(applied)
}

/// Refuses an operation aimed at a node it is not defined for: only an
/// element can be renamed, appended to or have its content replaced; a
/// sibling of the root element would be a second root, and removing the
/// root element leaves no document. A `select` reaches text, comment and
/// processing-instruction nodes and the document node as easily as
/// elements, so this is input validation, not an internal invariant —
/// and a check that decides a statement without applying it refuses what
/// [`apply`] would.
pub fn check_target(doc: &Document, op: &XUpdateOp, target: NodeId) -> Result<(), XUpdateError> {
    let node = doc.node(target);
    let is_element = matches!(node.kind, NodeKind::Element { .. });
    let at_top = node.parent == Some(doc.document_node());
    let (verb, defined) = match op {
        XUpdateOp::InsertBefore { .. } => ("insert before", node.parent.is_some() && !at_top),
        XUpdateOp::InsertAfter { .. } => ("insert after", node.parent.is_some() && !at_top),
        XUpdateOp::Remove { .. } => ("remove", node.parent.is_some() && !(at_top && is_element)),
        XUpdateOp::Append { .. } => ("append to", is_element),
        XUpdateOp::Update { .. } => ("update", is_element),
        XUpdateOp::Rename { .. } => ("rename", is_element),
    };
    if defined {
        return Ok(());
    }
    let what = match &node.kind {
        NodeKind::Document => "the document node",
        NodeKind::Element { .. } if at_top => "the root element",
        _ if at_top => "a child of the document node",
        NodeKind::Element { .. } => "a detached element",
        NodeKind::Text(_) => "a text node",
        NodeKind::Comment(_) => "a comment",
        NodeKind::Pi { .. } => "a processing instruction",
    };
    Err(XUpdateError::Invalid(format!("cannot {verb} {what} (select {:?})", op.select())))
}

#[allow(clippy::explicit_counter_loop)]
fn apply_op(
    doc: &mut Document,
    op: &XUpdateOp,
    resolve: SelectResolver,
    applied: &mut AppliedUpdate,
) -> Result<(), XUpdateError> {
    let targets = resolve(doc, op.select()).map_err(|e| match e {
        SelectError::BudgetExhausted => XUpdateError::BudgetExhausted,
        SelectError::Other(m) => XUpdateError::Invalid(m),
    })?;
    if targets.is_empty() {
        return Err(XUpdateError::Invalid(format!(
            "select {:?} matched no nodes",
            op.select()
        )));
    }
    // Every target is checked before the first is touched.
    for &target in &targets {
        check_target(doc, op, target)?;
    }
    for target in targets {
        match op {
            XUpdateOp::InsertBefore { content, .. } | XUpdateOp::InsertAfter { content, .. } => {
                let parent = doc.node(target).parent.expect("check_target: attached");
                let base = doc
                    .node(parent)
                    .children
                    .iter()
                    .position(|&c| c == target)
                    .expect("target is a child of its parent");
                let mut at = if matches!(op, XUpdateOp::InsertAfter { .. }) {
                    base + 1
                } else {
                    base
                };
                for n in content.build(doc) {
                    doc.insert_child(parent, at, n);
                    applied.inserted.push(n);
                    applied.log.push(UndoEntry::Detach(n));
                    at += 1;
                }
            }
            XUpdateOp::Append { content, child, .. } => {
                let mut at = match child {
                    Some(c) => (*c).min(doc.node(target).children.len()),
                    None => doc.node(target).children.len(),
                };
                for n in content.build(doc) {
                    doc.insert_child(target, at, n);
                    applied.inserted.push(n);
                    applied.log.push(UndoEntry::Detach(n));
                    at += 1;
                }
            }
            XUpdateOp::Remove { .. } => {
                let parent = doc.node(target).parent.expect("check_target: attached");
                let index = doc.detach(target);
                applied.log.push(UndoEntry::Reattach {
                    parent,
                    index,
                    node: target,
                });
            }
            XUpdateOp::Update { text, .. } => {
                // Replace the target's content with a single text node.
                let old_children: Vec<NodeId> = doc.node(target).children.to_vec();
                for (i, c) in old_children.into_iter().enumerate().rev() {
                    let idx = doc.detach(c);
                    debug_assert_eq!(idx, i);
                    applied.log.push(UndoEntry::Reattach {
                        parent: target,
                        index: i,
                        node: c,
                    });
                }
                // No text node the parser would drop: a committed state
                // must come back from its own serialization unchanged.
                if is_kept_text(text) {
                    let t = doc.create_text(text.clone());
                    doc.insert_child(target, 0, t);
                    applied.log.push(UndoEntry::Detach(t));
                }
            }
            XUpdateOp::Rename { name, .. } => {
                let old = doc.rename(target, name.clone());
                applied.log.push(UndoEntry::Rename { node: target, old });
            }
        }
    }
    Ok(())
}

/// Reverses an applied update (the "compensating action to re-construct
/// the state prior to the update" of Section 7).
pub fn undo(doc: &mut Document, applied: AppliedUpdate) {
    for entry in applied.log.into_iter().rev() {
        match entry {
            UndoEntry::Detach(n) => {
                doc.detach(n);
            }
            UndoEntry::Reattach { parent, index, node } => {
                doc.insert_child(parent, index, node);
            }
            UndoEntry::Rename { node, old } => {
                doc.rename(node, old);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_document;
    use crate::serialize::serialize;

    /// All attached elements called `name`, in document order.
    fn named(doc: &Document, name: &str) -> Vec<NodeId> {
        doc.descendants(doc.document_node()).filter(|&n| doc.name(n) == Some(name)).collect()
    }

    /// A positional path resolver good enough for tests:
    /// `/name[i]/name[j]/...` with the same-name index semantics.
    fn resolver(doc: &Document, select: &str) -> Result<Vec<NodeId>, SelectError> {
        let mut cur = doc.document_node();
        for seg in select.split('/').filter(|s| !s.is_empty()) {
            let (name, idx) = match seg.find('[') {
                Some(b) => {
                    let n = &seg[..b];
                    let i: usize = seg[b + 1..seg.len() - 1]
                        .parse()
                        .map_err(|_| SelectError::Other(format!("bad index in {seg}")))?;
                    (n, i)
                }
                None => (seg, 1),
            };
            let mut found = None;
            let mut count = 0;
            for c in doc.element_children(cur) {
                if doc.name(c) == Some(name) {
                    count += 1;
                    if count == idx {
                        found = Some(c);
                        break;
                    }
                }
            }
            cur = found.ok_or_else(|| SelectError::Other(format!("{select}: no {name}[{idx}]")))?;
        }
        Ok(vec![cur])
    }

    const REV: &str = "<review><track><name>DB</name><rev><name>Ann</name><sub><title>S1</title><auts><name>Bob</name></auts></sub></rev></track></review>";

    /// The paper's Section 4.1 XUpdate statement, adapted to a small
    /// document.
    const PAPER_STMT: &str = r#"<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
  <xupdate:insert-after select="/review/track[1]/rev[1]/sub[1]">
    <xupdate:element name="sub">
      <title> Taming Web Services </title>
      <auts> <name> Jack </name> </auts>
    </xupdate:element>
  </xupdate:insert-after>
</xupdate:modifications>"#;

    #[test]
    fn parse_paper_statement() {
        let u = XUpdateDoc::parse(PAPER_STMT).unwrap();
        assert_eq!(u.ops.len(), 1);
        assert!(u.insertions_only());
        match &u.ops[0] {
            XUpdateOp::InsertAfter { select, content } => {
                assert_eq!(select, "/review/track[1]/rev[1]/sub[1]");
                let roots: Vec<usize> = content.roots().collect();
                assert_eq!(roots.len(), 1);
                let sub = roots[0];
                assert_eq!(content.name(sub), Some("sub"));
                let children: Vec<&str> =
                    content.children(sub).filter_map(|c| content.name(c)).collect();
                assert_eq!(children, ["title", "auts"]);
                let text = content.text(sub);
                let words: Vec<&str> = text.split_whitespace().collect();
                assert_eq!(words, ["Taming", "Web", "Services", "Jack"]);
            }
            other => panic!("unexpected op {other:?}"),
        }
    }

    #[test]
    fn apply_insert_after_and_undo() {
        let (mut doc, _) = parse_document(REV).unwrap();
        let before = serialize(&doc);
        let u = XUpdateDoc::parse(PAPER_STMT).unwrap();
        let applied = apply(&mut doc, &u, &resolver).unwrap();
        assert_eq!(applied.inserted.len(), 1);
        let after = serialize(&doc);
        assert!(after.contains("Taming Web Services"), "{after}");
        // The new sub is the second sub of the rev.
        let subs = named(&doc, "sub");
        assert_eq!(subs.len(), 2);
        assert_eq!(doc.same_name_position(subs[1]), Some(2));
        // Position over all element children: name, sub, sub → 3.
        assert_eq!(doc.element_position(subs[1]), Some(3));
        undo(&mut doc, applied);
        assert_eq!(serialize(&doc), before);
    }

    #[test]
    fn insert_before_positions() {
        let (mut doc, _) = parse_document(REV).unwrap();
        let u = XUpdateDoc::parse(
            r#"<xupdate:modifications xmlns:xupdate="x">
                 <xupdate:insert-before select="/review/track[1]/rev[1]/sub[1]">
                   <sub><title>S0</title><auts><name>Zed</name></auts></sub>
                 </xupdate:insert-before>
               </xupdate:modifications>"#,
        )
        .unwrap();
        apply(&mut doc, &u, &resolver).unwrap();
        let subs = named(&doc, "sub");
        assert_eq!(doc.text_content(doc.element_children(subs[0])[0]), "S0");
    }

    #[test]
    fn append_with_and_without_child() {
        let (mut doc, _) = parse_document("<r><a/><b/></r>").unwrap();
        let u = XUpdateDoc::parse(
            r#"<xupdate:modifications xmlns:xupdate="x">
                 <xupdate:append select="/r"><c/></xupdate:append>
                 <xupdate:append select="/r" child="0"><z/></xupdate:append>
               </xupdate:modifications>"#,
        )
        .unwrap();
        apply(&mut doc, &u, &resolver).unwrap();
        let names: Vec<&str> = doc
            .element_children(doc.root_element().unwrap())
            .iter()
            .map(|&c| doc.name(c).unwrap())
            .collect();
        assert_eq!(names, vec!["z", "a", "b", "c"]);
    }

    #[test]
    fn remove_update_rename_roundtrip() {
        let (mut doc, _) = parse_document("<r><a>old</a><b/><c/></r>").unwrap();
        let before = serialize(&doc);
        let u = XUpdateDoc::parse(
            r#"<xupdate:modifications xmlns:xupdate="x">
                 <xupdate:update select="/r/a">new</xupdate:update>
                 <xupdate:remove select="/r/b"/>
                 <xupdate:rename select="/r/c">d</xupdate:rename>
               </xupdate:modifications>"#,
        )
        .unwrap();
        assert!(!u.insertions_only());
        // The operations touch a key text and a member of indexes built
        // before them; the mutators keep both through apply and undo.
        let keyed_new = |doc: &Document, tag: &str| {
            doc.members_keyed(doc.symbols().lookup(tag), &[], ["new"]).0.len()
        };
        assert_eq!((keyed_new(&doc, "a"), keyed_new(&doc, "b")), (0, 0));
        let applied = apply(&mut doc, &u, &resolver).unwrap();
        assert_eq!(serialize(&doc), "<r><a>new</a><d/></r>");
        doc.audit_indexes().expect("indexes follow the apply");
        assert_eq!(keyed_new(&doc, "a"), 1);
        undo(&mut doc, applied);
        assert_eq!(serialize(&doc), before);
        doc.audit_indexes().expect("indexes follow the undo");
        assert_eq!(keyed_new(&doc, "a"), 0);
    }

    /// Emptying a text, or updating it to whitespace, leaves its element
    /// with no children, and an empty or all-whitespace `xupdate:text`
    /// constructs nothing, while text that is kept is inserted: every
    /// post-state comes back from its serialization as it was.
    #[test]
    fn empty_text_commits_no_text_node() {
        let (mut doc, _) = parse_document("<r><a>old</a><c>old</c><b/><d/></r>").unwrap();
        let u = XUpdateDoc::parse(
            r#"<xupdate:modifications xmlns:xupdate="x">
                 <xupdate:update select="/r/a"></xupdate:update>
                 <xupdate:update select="/r/c"> <![CDATA[ ]]> </xupdate:update>
                 <xupdate:append select="/r/b"><xupdate:text></xupdate:text></xupdate:append>
                 <xupdate:append select="/r/d"><xupdate:text><![CDATA[  ]]></xupdate:text>v</xupdate:append>
               </xupdate:modifications>"#,
        )
        .unwrap();
        apply(&mut doc, &u, &resolver).unwrap();
        let a = named(&doc, "a")[0];
        assert!(doc.node(a).children.is_empty());
        assert_eq!(serialize(&doc), "<r><a/><c/><b/><d>v</d></r>");
        let (back, _) = parse_document(&serialize(&doc)).unwrap();
        assert_eq!(serialize(&back), serialize(&doc));
        doc.audit_indexes().expect("indexes follow the apply");
    }

    #[test]
    fn xupdate_element_with_attribute_constructor() {
        let (mut doc, _) = parse_document("<r/>").unwrap();
        let u = XUpdateDoc::parse(
            r#"<xupdate:modifications xmlns:xupdate="x">
                 <xupdate:append select="/r">
                   <xupdate:element name="item">
                     <xupdate:attribute name="id">7</xupdate:attribute>
                     <xupdate:text>payload</xupdate:text>
                   </xupdate:element>
                 </xupdate:append>
               </xupdate:modifications>"#,
        )
        .unwrap();
        apply(&mut doc, &u, &resolver).unwrap();
        assert_eq!(serialize(&doc), "<r><item id=\"7\">payload</item></r>");
    }

    #[test]
    fn unmatched_select_is_error_with_partial_log() {
        let (mut doc, _) = parse_document("<r><a/></r>").unwrap();
        let u = XUpdateDoc::parse(
            r#"<xupdate:modifications xmlns:xupdate="x">
                 <xupdate:append select="/r"><x/></xupdate:append>
                 <xupdate:remove select="/r/zzz"/>
               </xupdate:modifications>"#,
        )
        .unwrap();
        let (err, partial) = apply(&mut doc, &u, &resolver).unwrap_err();
        assert!(err.to_string().contains("no zzz"), "{err}");
        // Rolling back the partial application restores the original.
        undo(&mut doc, partial);
        assert_eq!(serialize(&doc), "<r><a/></r>");
    }

    #[test]
    fn partial_failure_mid_batch_restores_pre_batch_state() {
        // The §7 rollback path beyond single ops: when op k of n fails,
        // the preceding k-1 ops (of every kind) have already mutated the
        // document, and undoing the partial record must restore the exact
        // pre-batch serialization and tag-name symbols.
        let (mut doc, _) = parse_document(
            "<r><a>old</a><b><x/></b><c/><d>keep</d></r>",
        )
        .unwrap();
        let before = serialize(&doc);
        let u = XUpdateDoc::parse(
            r#"<xupdate:modifications xmlns:xupdate="x">
                 <xupdate:update select="/r/a">new</xupdate:update>
                 <xupdate:rename select="/r/c">cc</xupdate:rename>
                 <xupdate:insert-before select="/r/b"><p>inserted</p></xupdate:insert-before>
                 <xupdate:remove select="/r/b"/>
                 <xupdate:append select="/r/missing"><q/></xupdate:append>
                 <xupdate:update select="/r/d">never reached</xupdate:update>
               </xupdate:modifications>"#,
        )
        .unwrap();
        let (err, partial) = apply(&mut doc, &u, &resolver).unwrap_err();
        assert!(err.to_string().contains("no missing"), "{err}");
        // Ops 1-4 really did run before op 5 failed.
        assert!(serialize(&doc).contains("inserted"));
        assert!(!serialize(&doc).contains("never reached"));
        undo(&mut doc, partial);
        assert_eq!(serialize(&doc), before, "partial undo must restore");
        doc.audit_symbols().expect("symbols intact after partial undo");
    }

    #[test]
    fn to_xml_round_trips_every_op_kind() {
        let u = XUpdateDoc::parse(
            r#"<xupdate:modifications xmlns:xupdate="x">
                 <xupdate:insert-before select="/r/b"><p a="1 &lt; 2">t &amp; u</p></xupdate:insert-before>
                 <xupdate:insert-after select="/r/a"><n><m/>x</n></xupdate:insert-after>
                 <xupdate:append select="/r" child="2"><q/></xupdate:append>
                 <xupdate:remove select="/r/c"/>
                 <xupdate:update select="/r/a">1 &lt; 2</xupdate:update>
                 <xupdate:rename select="/r/d">dd</xupdate:rename>
               </xupdate:modifications>"#,
        )
        .unwrap();
        let text = u.to_xml();
        let back = XUpdateDoc::parse(&text).expect("serialized statement must re-parse");
        assert_eq!(back, u, "round trip through to_xml:\n{text}");
        // And the paper's statement survives the trip too.
        let paper = XUpdateDoc::parse(PAPER_STMT).unwrap();
        assert_eq!(XUpdateDoc::parse(&paper.to_xml()).unwrap(), paper);
    }

    #[test]
    fn a_failing_op_fails_the_batch_at_that_op() {
        let (mut doc, _) = parse_document("<r><a/><b/></r>").unwrap();
        let before = serialize(&doc);
        // The second op selects nothing: it fails on its own.
        let u = XUpdateDoc::parse(
            r#"<xupdate:modifications xmlns:xupdate="x">
                 <xupdate:rename select="/r/a">aa</xupdate:rename>
                 <xupdate:rename select="/r/c">cc</xupdate:rename>
                 <xupdate:rename select="/r/b">bb</xupdate:rename>
               </xupdate:modifications>"#,
        )
        .unwrap();
        let (err, partial) = apply(&mut doc, &u, &resolver).unwrap_err();
        assert!(matches!(&err, XUpdateError::Invalid(m) if m.contains("no c[1]")), "{err}");
        assert!(!serialize(&doc).contains("<bb/>"), "nothing after the failing op runs");
        // Op 1 ran before the failure at op 2; undo restores.
        assert!(serialize(&doc).contains("<aa/>"));
        undo(&mut doc, partial);
        assert_eq!(serialize(&doc), before);
    }

    #[test]
    fn full_batch_undo_restores_index_and_text() {
        let (mut doc, _) = parse_document("<r><a>old</a><b/><c/></r>").unwrap();
        let before = serialize(&doc);
        let u = XUpdateDoc::parse(
            r#"<xupdate:modifications xmlns:xupdate="x">
                 <xupdate:rename select="/r/b">bb</xupdate:rename>
                 <xupdate:remove select="/r/c"/>
                 <xupdate:insert-after select="/r/a"><n>t</n></xupdate:insert-after>
               </xupdate:modifications>"#,
        )
        .unwrap();
        let applied = apply(&mut doc, &u, &resolver).unwrap();
        doc.audit_symbols().expect("symbols intact after batch");
        undo(&mut doc, applied);
        assert_eq!(serialize(&doc), before);
        doc.audit_symbols().expect("symbols intact after undo");
    }

    #[test]
    fn malformed_statements_rejected() {
        assert!(XUpdateDoc::parse("<not-xupdate/>").is_err());
        assert!(XUpdateDoc::parse(
            r#"<xupdate:modifications xmlns:xupdate="x"><xupdate:insert-after><a/></xupdate:insert-after></xupdate:modifications>"#
        )
        .is_err(), "missing select");
        assert!(XUpdateDoc::parse(
            r#"<xupdate:modifications xmlns:xupdate="x"><xupdate:frobnicate select="/a"/></xupdate:modifications>"#
        )
        .is_err(), "unknown op");
    }

    #[test]
    fn a_name_a_statement_gives_must_be_an_xml_name() {
        let statement = |op: String| {
            format!(r#"<xupdate:modifications xmlns:xupdate="x">{op}</xupdate:modifications>"#)
        };
        let append = |content: String| {
            statement(format!(r#"<xupdate:append select="/r">{content}</xupdate:append>"#))
        };
        let rename = |name: &str| {
            statement(format!(r#"<xupdate:rename select="/r/a">{name}</xupdate:rename>"#))
        };
        let element = |name: &str| append(format!(r#"<xupdate:element name="{name}"/>"#));
        let attribute = |name: &str| {
            append(format!(
                r#"<xupdate:element name="e"><xupdate:attribute name="{name}">v</xupdate:attribute></xupdate:element>"#
            ))
        };
        // (name, as written in the statement)
        let bad = [("1a", "1a"), ("a b", "a b"), ("a&b", "a&amp;b"), ("-a", "-a"), ("", "")];
        for (name, text) in bad {
            for (what, stmt) in [
                ("rename to", rename(text)),
                ("xupdate:element name", element(text)),
                ("xupdate:attribute name", attribute(text)),
            ] {
                let err = XUpdateDoc::parse(&stmt).expect_err(&stmt).to_string();
                assert!(err.contains(&format!("{what} {name:?} is not an XML name")), "{err}");
            }
        }
        // What the parser reads as a name, a statement may give.
        for name in ["a", "_a", "a-b.c", "ns:a", "été"] {
            for stmt in [rename(name), element(name), attribute(name)] {
                XUpdateDoc::parse(&stmt).expect(&stmt);
            }
            let (doc, _) = parse_document(&format!("<{name} {name}=\"v\"/>")).expect(name);
            assert_eq!(doc.name(doc.root_element().expect("root")), Some(name));
        }
    }
}
