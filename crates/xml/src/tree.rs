//! The ordered XML tree arena.

use crate::intern::{Symbol, SymbolTable};
use std::cmp::Ordering;
use std::fmt;
use std::sync::{RwLock, RwLockReadGuard};

/// A stable node identifier. Identifiers are allocated from a monotone
/// per-document counter and never reused — detached nodes keep their slot.
/// This freshness guarantee is load-bearing: the constraint simplifier's
/// trusted hypotheses assume a newly created node id cannot collide with
/// any id already in the document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The arena slot index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Node payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// The document node (exactly one per document, always `NodeId(0)`).
    Document,
    /// An element with a (possibly prefixed) tag name and attributes in
    /// document order.
    Element {
        /// Qualified tag name (`prefix:local` kept verbatim).
        name: String,
        /// Attribute name/value pairs.
        attrs: Vec<(String, String)>,
    },
    /// A text node.
    Text(String),
    /// A comment.
    Comment(String),
    /// A processing instruction.
    Pi {
        /// PI target.
        target: String,
        /// PI data.
        data: String,
    },
}

/// One node in the arena.
#[derive(Debug, Clone)]
pub struct Node {
    /// Payload.
    pub kind: NodeKind,
    /// Parent node, `None` for the document node and detached nodes.
    pub parent: Option<NodeId>,
    /// Children in document order (empty for text/comment/PI nodes).
    pub children: Vec<NodeId>,
}

/// Sentinel rank for nodes that were detached when the order cache was
/// built (`u32::MAX` can never be a real preorder rank: ids are `u32`
/// and the document node always occupies rank 0).
const RANK_DETACHED: u32 = u32::MAX;

/// Lazily rebuilt preorder numbering of the attached tree. `built_at`
/// records the [`Document::version`] the ranks were computed under;
/// a structural mutation bumps the version, implicitly invalidating the
/// cache without touching it.
#[derive(Debug, Default)]
struct OrderCache {
    built_at: Option<u64>,
    /// `ranks[id.index()]`: preorder rank if attached, else
    /// [`RANK_DETACHED`].
    ranks: Vec<u32>,
}

/// An in-memory XML document: an arena of nodes rooted at a document node,
/// plus interned tag-name symbols and a document-order rank cache.
#[derive(Debug)]
pub struct Document {
    nodes: Vec<Node>,
    /// Interned element/attribute names; append-only for the document's
    /// lifetime, so a missed lookup proves the name never occurred.
    symbols: SymbolTable,
    /// `elem_sym[id.index()]`: the interned tag-name symbol of an element
    /// node, [`NO_SYM`] for every other node kind. Kept in lockstep with
    /// the arena by `alloc` and `rename`.
    elem_sym: Vec<u32>,
    /// Structural version, bumped by every attach/detach. Content edits
    /// (`set_text`, `set_attr`, `rename`) do not move nodes and leave it
    /// alone.
    version: u64,
    /// Version-stamped preorder ranks; interior-mutable so `&Document`
    /// reads can rebuild it lazily, `RwLock`ed (not `RefCell`ed) so the
    /// document stays `Sync` for the readers sharing a service snapshot.
    order_cache: RwLock<OrderCache>,
    order_cache_enabled: bool,
}

impl Default for Document {
    fn default() -> Self {
        Document::new()
    }
}

/// Sentinel for "this node has no tag-name symbol" (non-element nodes).
/// Real symbols are dense indexes, so `u32::MAX` is unreachable.
const NO_SYM: u32 = u32::MAX;

impl Clone for Document {
    fn clone(&self) -> Document {
        Document {
            nodes: self.nodes.clone(),
            symbols: self.symbols.clone(),
            elem_sym: self.elem_sym.clone(),
            version: self.version,
            // The clone starts with a cold cache; it is rebuilt on first use.
            order_cache: RwLock::new(OrderCache::default()),
            order_cache_enabled: self.order_cache_enabled,
        }
    }
}

impl Document {
    /// Creates an empty document (just the document node).
    pub fn new() -> Document {
        Document {
            nodes: vec![Node {
                kind: NodeKind::Document,
                parent: None,
                children: Vec::new(),
            }],
            symbols: SymbolTable::new(),
            elem_sym: vec![NO_SYM],
            version: 0,
            order_cache: RwLock::new(OrderCache::default()),
            order_cache_enabled: true,
        }
    }

    /// Disables the document-order rank cache (ablation experiments):
    /// `sort_document_order` and friends recompute path keys from scratch
    /// on every call, as they did before the cache existed.
    pub fn disable_order_cache(&mut self) {
        self.order_cache_enabled = false;
        *self.order_cache.get_mut().expect("order cache lock poisoned") = OrderCache::default();
    }

    /// The structural version: bumped by every attach/detach, stable
    /// across content edits. Cached order ranks are tagged with it.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The document node.
    pub fn document_node(&self) -> NodeId {
        NodeId(0)
    }

    /// The root element, if any.
    pub fn root_element(&self) -> Option<NodeId> {
        self.nodes[0]
            .children
            .iter()
            .copied()
            .find(|&c| matches!(self.node(c).kind, NodeKind::Element { .. }))
    }

    /// Total number of allocated nodes (including detached ones).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node.
    ///
    /// # Panics
    /// Panics if the id does not belong to this document.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    fn alloc(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("node arena overflow"));
        let sym = match &kind {
            NodeKind::Element { name, .. } => self.symbols.intern(name).0,
            _ => NO_SYM,
        };
        self.nodes.push(Node {
            kind,
            parent: None,
            children: Vec::new(),
        });
        self.elem_sym.push(sym);
        id
    }

    /// The document's interned-name table. Append-only: compiled queries
    /// resolve their name tests against it once per evaluation.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// The interned tag-name symbol of `id`, or `None` for non-element
    /// nodes. An integer compare against this is equivalent to a string
    /// compare against [`Document::name`].
    pub fn symbol(&self, id: NodeId) -> Option<Symbol> {
        match self.elem_sym.get(id.index()) {
            Some(&s) if s != NO_SYM => Some(Symbol(s)),
            _ => None,
        }
    }

    /// Creates a detached element.
    pub fn create_element(&mut self, name: impl Into<String>) -> NodeId {
        self.alloc(NodeKind::Element {
            name: name.into(),
            attrs: Vec::new(),
        })
    }

    /// Creates a detached text node.
    pub fn create_text(&mut self, text: impl Into<String>) -> NodeId {
        self.alloc(NodeKind::Text(text.into()))
    }

    /// Creates a detached comment node.
    pub fn create_comment(&mut self, text: impl Into<String>) -> NodeId {
        self.alloc(NodeKind::Comment(text.into()))
    }

    /// Creates a detached processing instruction.
    pub fn create_pi(&mut self, target: impl Into<String>, data: impl Into<String>) -> NodeId {
        self.alloc(NodeKind::Pi {
            target: target.into(),
            data: data.into(),
        })
    }

    /// Adds an attribute to an element (appended in order).
    ///
    /// # Panics
    /// Panics if `id` is not an element.
    pub fn set_attr(&mut self, id: NodeId, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        // Attribute names join the table too, so compiled attribute name
        // tests can prove a never-seen name matches nothing.
        self.symbols.intern(&name);
        match &mut self.node_mut(id).kind {
            NodeKind::Element { attrs, .. } => {
                let value = value.into();
                if let Some(slot) = attrs.iter_mut().find(|(n, _)| *n == name) {
                    slot.1 = value;
                } else {
                    attrs.push((name, value));
                }
            }
            other => panic!("set_attr on non-element node: {other:?}"),
        }
    }

    /// Reads an attribute value.
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        match &self.node(id).kind {
            NodeKind::Element { attrs, .. } => attrs
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.as_str()),
            _ => None,
        }
    }

    /// The element's tag name, if `id` is an element.
    pub fn name(&self, id: NodeId) -> Option<&str> {
        match &self.node(id).kind {
            NodeKind::Element { name, .. } => Some(name),
            _ => None,
        }
    }

    /// Appends `child` (a detached node or subtree) as the last child of
    /// `parent`.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) {
        let idx = self.node(parent).children.len();
        self.insert_child(parent, idx, child);
    }

    /// Inserts `child` at position `idx` (0-based over all children) of
    /// `parent`.
    ///
    /// # Panics
    /// Panics if `child` is already attached, if `idx` is out of bounds,
    /// or if attaching would create a cycle.
    pub fn insert_child(&mut self, parent: NodeId, idx: usize, child: NodeId) {
        assert!(
            self.node(child).parent.is_none(),
            "node {child} is already attached"
        );
        assert!(child != self.document_node(), "cannot attach the document node");
        // Cycle check: parent must not be inside child's subtree.
        let mut cur = Some(parent);
        while let Some(c) = cur {
            assert!(c != child, "attaching {child} under itself");
            cur = self.node(c).parent;
        }
        let siblings = &mut self.node_mut(parent).children;
        assert!(idx <= siblings.len(), "insert index out of bounds");
        siblings.insert(idx, child);
        self.node_mut(child).parent = Some(parent);
        self.version += 1;
    }

    /// Detaches `child` from its parent, returning its previous index.
    ///
    /// # Panics
    /// Panics if the node is not attached.
    pub fn detach(&mut self, child: NodeId) -> usize {
        let parent = self.node(child).parent.expect("node is not attached");
        let siblings = &mut self.node_mut(parent).children;
        let idx = siblings
            .iter()
            .position(|&c| c == child)
            .expect("parent/child link out of sync");
        siblings.remove(idx);
        self.node_mut(child).parent = None;
        self.version += 1;
        idx
    }

    /// Replaces the text content of a text node, returning the old value.
    ///
    /// # Panics
    /// Panics if `id` is not a text node.
    pub fn set_text(&mut self, id: NodeId, text: impl Into<String>) -> String {
        match &mut self.node_mut(id).kind {
            NodeKind::Text(t) => std::mem::replace(t, text.into()),
            other => panic!("set_text on non-text node: {other:?}"),
        }
    }

    /// Renames an element, returning the old name.
    ///
    /// # Panics
    /// Panics if `id` is not an element.
    pub fn rename(&mut self, id: NodeId, new_name: impl Into<String>) -> String {
        let new_name = new_name.into();
        let new_sym = self.symbols.intern(&new_name).0;
        let old = match &mut self.node_mut(id).kind {
            NodeKind::Element { name, .. } => std::mem::replace(name, new_name),
            other => panic!("rename on non-element node: {other:?}"),
        };
        self.elem_sym[id.index()] = new_sym;
        old
    }

    /// Audits the cached tag-name symbols against a scan of the attached
    /// tree: every attached element must cache the symbol its current
    /// name interns to. The compiled query engine matches `//tag` steps
    /// by symbol, so an update path that renames or re-creates an element
    /// without refreshing its symbol corrupts query results long before
    /// it corrupts the serialized tree — which is why the
    /// rollback-fidelity oracle of `xic-difftest` checks this after every
    /// apply/undo round trip.
    pub fn audit_symbols(&self) -> Result<(), String> {
        for n in self.descendants(self.document_node()) {
            if let NodeKind::Element { name, .. } = &self.node(n).kind {
                let sym = self
                    .symbol(n)
                    .ok_or_else(|| format!("element {n} ({name:?}) has no cached symbol"))?;
                if self.symbols.lookup(name) != Some(sym) {
                    return Err(format!(
                        "element {n} caches symbol {sym:?} but its name {name:?} interns \
                         to {:?}",
                        self.symbols.lookup(name)
                    ));
                }
            }
        }
        Ok(())
    }

    /// The concatenated text content of the subtree rooted at `id` (the
    /// XPath `string()` value of an element).
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.collect_text(id, &mut out);
        out
    }

    fn collect_text(&self, id: NodeId, out: &mut String) {
        match &self.node(id).kind {
            NodeKind::Text(t) => out.push_str(t),
            NodeKind::Comment(_) | NodeKind::Pi { .. } => {}
            _ => {
                for &c in &self.node(id).children {
                    self.collect_text(c, out);
                }
            }
        }
    }

    /// Element children of `id`, in order.
    pub fn element_children(&self, id: NodeId) -> Vec<NodeId> {
        self.node(id)
            .children
            .iter()
            .copied()
            .filter(|&c| matches!(self.node(c).kind, NodeKind::Element { .. }))
            .collect()
    }

    /// 1-based position of an element among its parent's element children —
    /// the `Pos` column of the relational mapping (Section 4.1; e.g. an
    /// `auts` following a `title` gets position 2).
    pub fn element_position(&self, id: NodeId) -> Option<usize> {
        let parent = self.node(id).parent?;
        let mut pos = 0;
        for &c in &self.node(parent).children {
            if matches!(self.node(c).kind, NodeKind::Element { .. }) {
                pos += 1;
                if c == id {
                    return Some(pos);
                }
            }
        }
        None
    }

    /// 1-based position of an element among same-named siblings — the
    /// XPath `element[n]` predicate semantics.
    pub fn same_name_position(&self, id: NodeId) -> Option<usize> {
        let parent = self.node(id).parent?;
        let name = self.name(id)?;
        let mut pos = 0;
        for &c in &self.node(parent).children {
            if self.name(c) == Some(name) {
                pos += 1;
                if c == id {
                    return Some(pos);
                }
            }
        }
        None
    }

    /// The path of 0-based child indexes from the document node to `id`
    /// (document-order key).
    pub fn order_key(&self, id: NodeId) -> Vec<u32> {
        let mut rev = Vec::new();
        let mut cur = id;
        while let Some(parent) = self.node(cur).parent {
            let idx = self.node(parent)
                .children
                .iter()
                .position(|&c| c == cur)
                .expect("parent/child link out of sync");
            rev.push(idx as u32);
            cur = parent;
        }
        rev.reverse();
        rev
    }

    /// A read guard over the current document-order rank table, rebuilding
    /// it first if a structural mutation invalidated it. Returns `None`
    /// when the cache is disabled ([`Document::disable_order_cache`]).
    ///
    /// Holding the guard pins the table for a whole sort/dedup pass — one
    /// lock acquisition per operation, not per comparison. Concurrent
    /// readers (the threads sharing a service snapshot) share the read lock; the
    /// write lock is only ever taken for a rebuild, which at most one
    /// thread performs per version.
    pub fn order_ranks(&self) -> Option<OrderRanks<'_>> {
        if !self.order_cache_enabled {
            return None;
        }
        {
            let guard = self.order_cache.read().expect("order cache lock poisoned");
            if guard.built_at == Some(self.version) {
                return Some(OrderRanks { guard });
            }
        }
        {
            let mut guard = self.order_cache.write().expect("order cache lock poisoned");
            // Another thread may have rebuilt while we waited for the lock.
            if guard.built_at != Some(self.version) {
                self.rebuild_order_cache(&mut guard);
            }
        }
        let guard = self.order_cache.read().expect("order cache lock poisoned");
        debug_assert_eq!(guard.built_at, Some(self.version));
        Some(OrderRanks { guard })
    }

    fn rebuild_order_cache(&self, cache: &mut OrderCache) {
        xic_obs::incr(xic_obs::Counter::OrderCacheRebuild);
        cache.ranks.clear();
        cache.ranks.resize(self.nodes.len(), RANK_DETACHED);
        let mut next = 0u32;
        let mut stack = vec![self.document_node()];
        while let Some(n) = stack.pop() {
            cache.ranks[n.index()] = next;
            next += 1;
            stack.extend(self.node(n).children.iter().rev().copied());
        }
        cache.built_at = Some(self.version);
    }

    /// Compares two nodes in document order: O(1) via cached preorder
    /// ranks when both are attached, otherwise by comparing path keys —
    /// detached nodes are ordered relative to their own detached roots,
    /// matching the historical [`Document::order_key`] ordering.
    pub fn cmp_document_order(&self, a: NodeId, b: NodeId) -> Ordering {
        if let Some(ranks) = self.order_ranks() {
            if let (Some(ra), Some(rb)) = (ranks.rank(a), ranks.rank(b)) {
                return ra.cmp(&rb);
            }
        }
        self.order_key(a).cmp(&self.order_key(b))
    }

    /// Sorts node ids into document order. Uses the cached preorder ranks
    /// (O(1) comparisons, no per-node key allocation) when every id is
    /// attached; mixed or detached sets fall back to the path-key sort,
    /// which orders detached nodes relative to their own subtree roots.
    pub fn sort_document_order(&self, ids: &mut [NodeId]) {
        if ids.len() <= 1 {
            return;
        }
        if let Some(ranks) = self.order_ranks() {
            if ids.iter().all(|&n| ranks.rank(n).is_some()) {
                xic_obs::incr(xic_obs::Counter::DocOrderFastSort);
                ids.sort_unstable_by_key(|&n| ranks.rank(n).expect("all ids checked attached"));
                return;
            }
        }
        xic_obs::incr(xic_obs::Counter::DocOrderPathSort);
        let mut keyed: Vec<(Vec<u32>, NodeId)> =
            ids.iter().map(|&n| (self.order_key(n), n)).collect();
        keyed.sort();
        for (slot, (_, n)) in ids.iter_mut().zip(keyed) {
            *slot = n;
        }
    }

    /// Depth-first pre-order traversal of the subtree below `id` (not
    /// including `id` itself), yielded lazily — axis evaluation can stop
    /// at the first witness without materializing the whole subtree.
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants {
            doc: self,
            stack: self.node(id).children.iter().rev().copied().collect(),
        }
    }

    /// The absolute positional path of an element, e.g.
    /// `/review/track[2]/rev[5]`, using same-name positions — the
    /// representation Section 6 uses to instantiate node-id parameters in
    /// translated XQuery.
    pub fn positional_path(&self, id: NodeId) -> Option<String> {
        if id.index() >= self.nodes.len() {
            return None;
        }
        let mut segments = Vec::new();
        let mut cur = id;
        loop {
            let name = self.name(cur)?.to_string();
            let pos = self.same_name_position(cur)?;
            let parent = self.node(cur).parent?;
            if parent == self.document_node() {
                segments.push(format!("/{name}"));
                break;
            }
            segments.push(format!("/{name}[{pos}]"));
            cur = parent;
        }
        segments.reverse();
        Some(segments.concat())
    }
}

/// A read guard over a document's preorder rank table; created by
/// [`Document::order_ranks`]. Rank lookups are a single array read.
pub struct OrderRanks<'d> {
    guard: RwLockReadGuard<'d, OrderCache>,
}

impl OrderRanks<'_> {
    /// The preorder rank of `id`, or `None` if `id` was detached when the
    /// table was built (the document node itself has rank 0).
    pub fn rank(&self, id: NodeId) -> Option<u32> {
        match self.guard.ranks.get(id.index()) {
            Some(&r) if r != RANK_DETACHED => Some(r),
            _ => None,
        }
    }
}

/// Lazy depth-first pre-order iterator over a subtree; created by
/// [`Document::descendants`].
pub struct Descendants<'d> {
    doc: &'d Document,
    stack: Vec<NodeId>,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let n = self.stack.pop()?;
        self.stack
            .extend(self.doc.node(n).children.iter().rev().copied());
        Some(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_doc() -> (Document, NodeId, NodeId, NodeId) {
        let mut d = Document::new();
        let root = d.create_element("review");
        d.append_child(d.document_node(), root);
        let track = d.create_element("track");
        d.append_child(root, track);
        let name = d.create_element("name");
        let txt = d.create_text("DB track");
        d.append_child(name, txt);
        d.append_child(track, name);
        (d, root, track, name)
    }

    #[test]
    fn build_and_navigate() {
        let (d, root, track, name) = small_doc();
        assert_eq!(d.root_element(), Some(root));
        assert_eq!(d.node(track).parent, Some(root));
        assert_eq!(d.element_children(track), vec![name]);
        assert_eq!(d.text_content(track), "DB track");
        assert_eq!(d.name(track), Some("track"));
    }

    /// All attached elements called `name`, in document order.
    fn named(d: &Document, name: &str) -> Vec<NodeId> {
        d.descendants(d.document_node()).filter(|&n| d.name(n) == Some(name)).collect()
    }

    #[test]
    fn descendants_track_attach_and_detach() {
        let (mut d, root, track, _) = small_doc();
        assert_eq!(named(&d, "track"), vec![track]);
        let t2 = d.create_element("track");
        assert_eq!(named(&d, "track").len(), 1, "detached not reachable");
        d.append_child(root, t2);
        assert_eq!(named(&d, "track").len(), 2);
        d.detach(track);
        assert_eq!(named(&d, "track"), vec![t2]);
        // Detaching takes the whole subtree along.
        assert!(named(&d, "name").is_empty());
    }

    #[test]
    fn positions_count_element_children_only() {
        let mut d = Document::new();
        let root = d.create_element("pub");
        d.append_child(d.document_node(), root);
        let title = d.create_element("title");
        let gap = d.create_text("  ");
        let aut = d.create_element("aut");
        d.append_child(root, title);
        d.append_child(root, gap);
        d.append_child(root, aut);
        assert_eq!(d.element_position(title), Some(1));
        assert_eq!(d.element_position(aut), Some(2));
        assert_eq!(d.same_name_position(aut), Some(1));
    }

    #[test]
    fn insert_in_middle_and_document_order() {
        let (mut d, _, track, name) = small_doc();
        let rev1 = d.create_element("rev");
        let rev2 = d.create_element("rev");
        d.append_child(track, rev1);
        d.append_child(track, rev2);
        let rev_mid = d.create_element("rev");
        d.insert_child(track, 2, rev_mid); // between rev1 and rev2
        assert_eq!(named(&d, "rev"), vec![rev1, rev_mid, rev2]);
        assert_eq!(d.same_name_position(rev_mid), Some(2));
        assert_eq!(d.element_position(rev_mid), Some(3)); // name, rev, rev
        assert_eq!(d.element_position(name), Some(1));
    }

    #[test]
    fn positional_path() {
        let (mut d, root, track, _) = small_doc();
        let t2 = d.create_element("track");
        d.append_child(root, t2);
        let rev = d.create_element("rev");
        d.append_child(t2, rev);
        assert_eq!(d.positional_path(rev).unwrap(), "/review/track[2]/rev[1]");
        assert_eq!(d.positional_path(track).unwrap(), "/review/track[1]");
        assert_eq!(d.positional_path(root).unwrap(), "/review");
    }

    #[test]
    #[should_panic(expected = "already attached")]
    fn double_attach_panics() {
        let (mut d, root, track, _) = small_doc();
        d.insert_child(root, 0, track);
    }

    #[test]
    #[should_panic(expected = "under itself")]
    fn cycle_panics() {
        let (mut d, _, track, name) = small_doc();
        let n = d.detach(name);
        assert_eq!(n, 0);
        // Try to attach track under its own (now detached) child.
        d.detach(track);
        d.append_child(track, name);
        d.append_child(name, track);
    }

    #[test]
    fn attrs_set_get_overwrite() {
        let mut d = Document::new();
        let e = d.create_element("x");
        d.set_attr(e, "a", "1");
        d.set_attr(e, "b", "2");
        d.set_attr(e, "a", "3");
        assert_eq!(d.attr(e, "a"), Some("3"));
        assert_eq!(d.attr(e, "b"), Some("2"));
        assert_eq!(d.attr(e, "c"), None);
    }

    #[test]
    fn rename_updates_name_and_symbol() {
        let (mut d, _, track, _) = small_doc();
        let old = d.rename(track, "session");
        assert_eq!(old, "track");
        assert_eq!(d.name(track), Some("session"));
        assert_eq!(d.symbol(track), d.symbols().lookup("session"));
        d.audit_symbols().expect("symbol follows the rename");
    }

    #[test]
    fn set_text_returns_old() {
        let (mut d, _, _, name) = small_doc();
        let txt = d.node(name).children[0];
        let old = d.set_text(txt, "AI track");
        assert_eq!(old, "DB track");
        assert_eq!(d.text_content(name), "AI track");
    }

    #[test]
    fn descendants_preorder() {
        let (d, root, track, name) = small_doc();
        let ds: Vec<NodeId> = d.descendants(d.document_node()).collect();
        assert_eq!(ds[0], root);
        assert_eq!(ds[1], track);
        assert_eq!(ds[2], name);
        assert_eq!(ds.len(), 4); // + text node
    }

    #[test]
    fn order_keys_sort_in_document_order() {
        let (mut d, root, track, _) = small_doc();
        let t0 = d.create_element("track");
        d.insert_child(root, 0, t0);
        let mut ids = vec![track, t0];
        d.sort_document_order(&mut ids);
        assert_eq!(ids, vec![t0, track]);
    }

    #[test]
    fn order_ranks_match_preorder_and_invalidate_on_mutation() {
        let (mut d, root, track, name) = small_doc();
        {
            let ranks = d.order_ranks().expect("cache enabled");
            assert_eq!(ranks.rank(d.document_node()), Some(0));
            assert_eq!(ranks.rank(root), Some(1));
            assert_eq!(ranks.rank(track), Some(2));
            assert_eq!(ranks.rank(name), Some(3));
        }
        // A structural mutation invalidates the numbering; the next read
        // rebuilds it to reflect the new order.
        let t0 = d.create_element("track");
        d.insert_child(root, 0, t0);
        {
            let ranks = d.order_ranks().expect("cache enabled");
            assert_eq!(ranks.rank(t0), Some(2));
            assert_eq!(ranks.rank(track), Some(3));
        }
        // Detached nodes have no rank.
        let detached = d.create_element("x");
        assert_eq!(d.order_ranks().unwrap().rank(detached), None);
    }

    #[test]
    fn cmp_document_order_agrees_with_order_keys() {
        let (mut d, root, track, name) = small_doc();
        let t0 = d.create_element("track");
        d.insert_child(root, 0, t0);
        let all: Vec<NodeId> = d.descendants(d.document_node()).collect();
        for &a in &all {
            for &b in &all {
                assert_eq!(
                    d.cmp_document_order(a, b),
                    d.order_key(a).cmp(&d.order_key(b)),
                    "cmp_document_order({a}, {b})"
                );
            }
        }
        // An ancestor precedes its descendants; siblings order by index.
        assert_eq!(d.cmp_document_order(root, name), Ordering::Less);
        assert_eq!(d.cmp_document_order(track, t0), Ordering::Greater);
        assert_eq!(d.cmp_document_order(track, track), Ordering::Equal);
    }

    #[test]
    fn disabled_order_cache_still_sorts_correctly() {
        let (mut d, root, track, _) = small_doc();
        d.disable_order_cache();
        assert!(d.order_ranks().is_none());
        let t0 = d.create_element("track");
        d.insert_child(root, 0, t0);
        let mut ids = vec![track, t0];
        d.sort_document_order(&mut ids);
        assert_eq!(ids, vec![t0, track]);
    }

    #[test]
    fn sort_with_detached_nodes_falls_back_to_path_keys() {
        let (mut d, _, track, name) = small_doc();
        // Detach a subtree: its nodes keep path keys relative to the
        // detached root and must still sort deterministically.
        d.detach(track);
        let mut ids = vec![name, track];
        d.sort_document_order(&mut ids);
        assert_eq!(ids, vec![track, name]);
    }

    #[test]
    fn audit_rejects_stale_symbol() {
        let (mut d, _, track, name) = small_doc();
        d.audit_symbols().expect("fresh document is coherent");
        // Corrupt the cached symbol behind the API's back.
        d.elem_sym[track.index()] = d.elem_sym[name.index()];
        let err = d.audit_symbols().expect_err("audit catches the stale symbol");
        assert!(err.contains("caches symbol"), "unexpected message: {err}");
    }

    #[test]
    fn clone_starts_with_cold_cache_and_same_version() {
        let (d, root, ..) = small_doc();
        let _ = d.order_ranks();
        let d2 = d.clone();
        assert_eq!(d2.version(), d.version());
        assert_eq!(d2.order_ranks().unwrap().rank(root), Some(1));
    }
}
