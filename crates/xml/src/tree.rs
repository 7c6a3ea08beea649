//! The ordered XML tree arena.

use crate::intern::{Symbol, SymbolTable};
use std::cmp::Ordering;
use std::fmt;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU32, Ordering as AtomicOrdering};
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

/// While the rank table is stale, this many ids may be put in document
/// order by comparing path keys before a sort pays for the rebuild: a
/// handful of index hits per decision never walks the whole document.
const PATH_SORT_ALLOWANCE: u32 = 64;

/// One value index: its members are the attached `tag` elements, and a
/// member is keyed by the string of every text node at
/// `member/path[0]/…/path[k-1]/text()` (child steps only). Postings are
/// plain integers — the 64-bit hash of a key string and the member it
/// keys, sorted — so cloning the index is one copy, and a probe re-checks
/// the candidates' keys.
#[derive(Debug, Clone)]
struct ValueIndex {
    tag: u32,
    path: Box<[u32]>,
    /// One posting per key *node*: a member with two equal keys is
    /// listed twice, and loses one posting when one of them goes.
    postings: Vec<(u64, NodeId)>,
}

/// Adds (or removes) the posting of `member` under the key `value`.
fn post(postings: &mut Vec<(u64, NodeId)>, value: &str, member: NodeId, add: bool) {
    let posting = (hash_value(value), member);
    let at = postings.partition_point(|p| *p < posting);
    if add {
        postings.insert(at, posting);
    } else {
        assert_eq!(postings.get(at), Some(&posting), "value index lost a posting");
        postings.remove(at);
    }
}

fn hash_value(value: &str) -> u64 {
    // Fixed keys: a clone, and a fresh build, hash as the original did.
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write(value.as_bytes());
    h.finish()
}

/// An in-memory XML document: an arena of nodes rooted at a document node,
/// plus interned tag-name symbols, a document-order rank cache and the
/// element and value indexes.
///
/// **Index invariant.** `attached`, `by_tag` and every value index built
/// so far describe exactly the tree reachable from the document node. They
/// are maintained inside the primitive mutators (`insert_child`, `detach`,
/// `set_text`, `rename`) and nowhere else, so whoever edits the tree —
/// `apply`, `undo`, the parser, a test — cannot leave them stale, and a
/// clone carries them. [`Document::audit_indexes`] checks the invariant
/// against a scan.
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
    /// Ids sorted by path key since the last structural change (see
    /// [`PATH_SORT_ALLOWANCE`]).
    path_sorted: AtomicU32,
    /// `attached[id.index()]`: the node is reachable from the document
    /// node.
    attached: Vec<bool>,
    /// `by_tag[symbol]`: the attached elements carrying that tag,
    /// ascending by id (which is document order only until the first
    /// non-tail insert).
    by_tag: Vec<Vec<NodeId>>,
    /// The value indexes asked for so far: `RwLock`ed as `order_cache` is,
    /// so [`Document::members_keyed`] builds one under `&self`; the
    /// mutators go through `get_mut` (no lock on the write path).
    value_indexes: RwLock<Vec<ValueIndex>>,
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
            path_sorted: AtomicU32::new(0),
            attached: self.attached.clone(),
            by_tag: self.by_tag.clone(),
            value_indexes: RwLock::new(self.read_value_indexes().clone()),
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
            path_sorted: AtomicU32::new(0),
            attached: vec![true],
            by_tag: Vec::new(),
            value_indexes: RwLock::default(),
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
        self.attached.push(false);
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
        self.structure_changed();
        if self.attached[parent.index()] {
            self.index_subtree(child, true);
        }
    }

    /// Detaches `child` from its parent, returning its previous index.
    ///
    /// # Panics
    /// Panics if the node is not attached.
    pub fn detach(&mut self, child: NodeId) -> usize {
        let parent = self.node(child).parent.expect("node is not attached");
        if self.attached[child.index()] {
            self.index_subtree(child, false);
        }
        let siblings = &mut self.node_mut(parent).children;
        let idx = siblings
            .iter()
            .position(|&c| c == child)
            .expect("parent/child link out of sync");
        siblings.remove(idx);
        self.node_mut(child).parent = None;
        self.structure_changed();
        idx
    }

    fn structure_changed(&mut self) {
        self.version += 1;
        *self.path_sorted.get_mut() = 0;
    }

    /// Replaces the text content of a text node, returning the old value.
    ///
    /// # Panics
    /// Panics if `id` is not a text node.
    pub fn set_text(&mut self, id: NodeId, text: impl Into<String>) -> String {
        let keyed = self.attached[id.index()] && !self.value_indexes_mut().is_empty();
        if keyed {
            self.index_above(id, false);
        }
        let old = match &mut self.node_mut(id).kind {
            NodeKind::Text(t) => std::mem::replace(t, text.into()),
            other => panic!("set_text on non-text node: {other:?}"),
        };
        if keyed {
            self.index_above(id, true);
        }
        old
    }

    /// Renames an element, returning the old name.
    ///
    /// # Panics
    /// Panics if `id` is not an element.
    pub fn rename(&mut self, id: NodeId, new_name: impl Into<String>) -> String {
        let new_name = new_name.into();
        let new_sym = self.symbols.intern(&new_name).0;
        let kind = &self.node(id).kind;
        assert!(matches!(kind, NodeKind::Element { .. }), "rename on non-element node: {kind:?}");
        // An attached element is listed under its tag, is a member of that
        // tag's value indexes and a step of its ancestors' key paths: all
        // three follow the name.
        let attached = self.attached[id.index()];
        if attached {
            self.index_above(id, false);
            self.index_element(id, false);
        }
        self.elem_sym[id.index()] = new_sym;
        let NodeKind::Element { name, .. } = &mut self.node_mut(id).kind else {
            unreachable!("checked above");
        };
        let old = std::mem::replace(name, new_name);
        if attached {
            self.index_element(id, true);
            self.index_above(id, true);
        }
        old
    }

    /// True if `id` is a node of this document reachable from the
    /// document node.
    pub fn is_attached(&self, id: NodeId) -> bool {
        self.attached.get(id.index()).copied().unwrap_or(false)
    }

    /// The attached elements tagged `tag`, ascending by id — `//tag` as a
    /// list read. Not in document order: sort what you keep.
    pub fn elements_named(&self, tag: Symbol) -> &[NodeId] {
        self.by_tag.get(tag.0 as usize).map_or(&[], Vec::as_slice)
    }

    /// The attached `tag` elements with a text node at
    /// `member/path[0]/…/text()` (child steps only) equal to one of
    /// `values`, in document order, read off the `(tag, path)` index. The
    /// first call for a shape builds its index (one pass over the `tag`
    /// elements, one [`xic_obs::Counter::IndexBuild`]) and returns the
    /// members it walked beside the hits, for the caller to charge to
    /// whatever bounds its evaluation; later calls return 0. `None` is a
    /// name [`SymbolTable::lookup`] missed: no element carries it, so the
    /// answer is empty and nothing is built.
    pub fn members_keyed<'v>(
        &self,
        tag: Option<Symbol>,
        path: &[Option<Symbol>],
        values: impl IntoIterator<Item = &'v str>,
    ) -> (Vec<NodeId>, usize) {
        let (Some(Symbol(tag)), false) = (tag, path.contains(&None)) else {
            return (Vec::new(), 0);
        };
        let at = |indexes: &[ValueIndex]| {
            let steps = path.iter().copied();
            indexes.iter().position(|vi| {
                vi.tag == tag && vi.path.iter().map(|&step| Some(Symbol(step))).eq(steps.clone())
            })
        };
        let mut walked = 0;
        let mut indexes = self.read_value_indexes();
        let mut found = at(&indexes);
        if found.is_none() {
            drop(indexes);
            let mut building = self.value_indexes.write().expect("value index lock poisoned");
            // Another reader of this snapshot may have built it meanwhile.
            if at(&building).is_none() {
                xic_obs::incr(xic_obs::Counter::IndexBuild);
                let path: Box<[u32]> = path.iter().flatten().map(|step| step.0).collect();
                let members = self.elements_named(Symbol(tag));
                walked = members.len();
                let postings = self.scan_postings(&path, members);
                building.push(ValueIndex { tag, path, postings });
            }
            drop(building);
            indexes = self.read_value_indexes();
            found = at(&indexes);
        }
        let vi = &indexes[found.expect("found or built above")];
        let mut hits = Vec::new();
        for value in values {
            let h = hash_value(value);
            let from = vi.postings.partition_point(|p| p.0 < h);
            for &(_, m) in vi.postings[from..].iter().take_while(|p| p.0 == h) {
                // Equal hashes are candidates; the member's keys decide.
                let mut keyed = false;
                self.for_each_key(m, &vi.path, &mut |v| keyed |= v == value);
                if keyed {
                    hits.push(m);
                }
            }
        }
        drop(indexes);
        hits.sort_unstable();
        hits.dedup();
        self.sort_document_order(&mut hits);
        (hits, walked)
    }

    fn read_value_indexes(&self) -> RwLockReadGuard<'_, Vec<ValueIndex>> {
        self.value_indexes.read().expect("value index lock poisoned")
    }

    fn value_indexes_mut(&mut self) -> &mut Vec<ValueIndex> {
        self.value_indexes.get_mut().expect("value index lock poisoned")
    }

    /// The sorted postings of `members` under the key path `path`.
    fn scan_postings(&self, path: &[u32], members: &[NodeId]) -> Vec<(u64, NodeId)> {
        let mut postings = Vec::new();
        for &m in members {
            self.for_each_key(m, path, &mut |v| postings.push((hash_value(v), m)));
        }
        postings.sort_unstable();
        postings
    }

    /// Calls `f` with the string of every text node at
    /// `from/path[0]/…/text()`.
    fn for_each_key(&self, from: NodeId, path: &[u32], f: &mut dyn FnMut(&str)) {
        for &c in &self.node(from).children {
            match (path.split_first(), &self.node(c).kind) {
                (None, NodeKind::Text(t)) => f(t),
                (Some((&step, rest)), _) if self.elem_sym[c.index()] == step => {
                    self.for_each_key(c, rest, f);
                }
                _ => {}
            }
        }
    }

    /// Marks the subtree at `root` attached (or detached) and adds it to
    /// (or takes it out of) every index. Called with the subtree linked
    /// under its attached parent.
    fn index_subtree(&mut self, root: NodeId, add: bool) {
        let nodes: Vec<NodeId> = std::iter::once(root).chain(self.descendants(root)).collect();
        for n in nodes {
            self.attached[n.index()] = add;
            if self.elem_sym[n.index()] != NO_SYM {
                self.index_element(n, add);
            }
        }
        self.index_above(root, add);
    }

    /// Lists (or unlists) the attached element `e` under its tag, and as a
    /// member of that tag's value indexes.
    fn index_element(&mut self, e: NodeId, add: bool) {
        let sym = self.elem_sym[e.index()];
        if self.by_tag.len() <= sym as usize {
            self.by_tag.resize_with(sym as usize + 1, Vec::new);
        }
        let list = &mut self.by_tag[sym as usize];
        match (list.binary_search(&e), add) {
            (Err(at), true) => list.insert(at, e),
            (Ok(at), false) => {
                list.remove(at);
            }
            _ => panic!("tag list out of step with the tree at {e}"),
        }
        let mut indexes = std::mem::take(self.value_indexes_mut());
        for ValueIndex { path, postings, .. } in indexes.iter_mut().filter(|vi| vi.tag == sym) {
            self.for_each_key(e, path, &mut |v| post(postings, v, e, add));
        }
        *self.value_indexes_mut() = indexes;
    }

    /// Adds (or removes) the keys the attached node `x` carries for the
    /// members *above* it: `x` is a key text node, or an element on the
    /// key path of an ancestor at most `path.len()` levels up.
    fn index_above(&mut self, x: NodeId, add: bool) {
        let mut indexes = std::mem::take(self.value_indexes_mut());
        for ValueIndex { tag, path, postings } in &mut indexes {
            for depth in 1..=path.len() + 1 {
                let Some(member) = self.member_above(*tag, path, x, depth) else {
                    continue;
                };
                match &self.node(x).kind {
                    NodeKind::Text(t) => post(postings, t, member, add),
                    _ => self.for_each_key(x, &path[depth..], &mut |v| post(postings, v, member, add)),
                }
            }
        }
        *self.value_indexes_mut() = indexes;
    }

    /// The `tag` element `depth` levels above `x` whose key path `path`
    /// runs through `x`: a text node at `depth == path.len() + 1`, an
    /// element named `path[depth - 1]` otherwise, under elements named by
    /// the steps before it.
    fn member_above(&self, tag: u32, path: &[u32], x: NodeId, depth: usize) -> Option<NodeId> {
        let mut cur = x;
        for d in (1..=depth).rev() {
            let on_path = match path.get(d - 1) {
                Some(&step) => self.elem_sym[cur.index()] == step,
                None => matches!(self.node(cur).kind, NodeKind::Text(_)),
            };
            if !on_path {
                return None;
            }
            cur = self.node(cur).parent?;
        }
        (self.elem_sym[cur.index()] == tag).then_some(cur)
    }

    /// Audits the attached bits, the per-tag lists and every value index
    /// built so far against a scan of the tree reachable from the document
    /// node — the maintenance invariant of the mutators, checked by the
    /// rollback and recovery oracles of `xic-difftest` beside
    /// [`Document::audit_symbols`].
    pub fn audit_indexes(&self) -> Result<(), String> {
        let mut attached = vec![false; self.nodes.len()];
        let mut by_tag: Vec<Vec<NodeId>> = vec![Vec::new(); self.by_tag.len()];
        attached[0] = true;
        for n in self.descendants(self.document_node()) {
            attached[n.index()] = true;
            if let Some(Symbol(sym)) = self.symbol(n) {
                match by_tag.get_mut(sym as usize) {
                    Some(list) => list.push(n),
                    None => return Err(format!("attached element {n} has no tag list")),
                }
            }
        }
        if let Some(n) = (0..self.nodes.len()).find(|&i| attached[i] != self.attached[i]) {
            let (bit, reachable) = (self.attached[n], attached[n]);
            return Err(format!("node #{n}: attached bit {bit}, reachable {reachable}"));
        }
        let tag_name = |sym: u32| self.symbols.resolve(Symbol(sym)).unwrap_or_default();
        for (sym, (scan, list)) in by_tag.iter_mut().zip(&self.by_tag).enumerate() {
            scan.sort_unstable();
            if scan != list {
                let tag = tag_name(sym as u32);
                return Err(format!("tag list of {tag:?} holds {list:?}, a scan finds {scan:?}"));
            }
        }
        for vi in self.read_value_indexes().iter() {
            let members = by_tag.get(vi.tag as usize).map_or(&[][..], Vec::as_slice);
            let scan = self.scan_postings(&vi.path, members);
            if scan != vi.postings {
                return Err(format!(
                    "value index on {:?} holds {} postings, a scan finds {}",
                    tag_name(vi.tag),
                    vi.postings.len(),
                    scan.len()
                ));
            }
        }
        Ok(())
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
        self.order_ranks_for(usize::MAX)
    }

    /// [`Document::order_ranks`] for putting `set_len` ids in order: a
    /// current table is returned as it is, but a stale one is not rebuilt
    /// — `None`, so the caller compares path keys — while the sets sorted
    /// since the last structural change stay within a small allowance
    /// (64 ids). Sorting a handful of index hits then
    /// costs their depth, not a pass over the document.
    pub fn order_ranks_for(&self, set_len: usize) -> Option<OrderRanks<'_>> {
        if !self.order_cache_enabled {
            return None;
        }
        {
            let guard = self.order_cache.read().expect("order cache lock poisoned");
            if guard.built_at == Some(self.version) {
                return Some(OrderRanks { guard });
            }
        }
        // One read-modify-write (a snapshot's readers share the allowance),
        // capped so it cannot wrap before the rebuild below ends the spending.
        let set_len = u32::try_from(set_len).unwrap_or(u32::MAX).min(PATH_SORT_ALLOWANCE + 1);
        if self.path_sorted.fetch_add(set_len, AtomicOrdering::Relaxed) + set_len <= PATH_SORT_ALLOWANCE {
            return None;
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
        if let Some(ranks) = self.order_ranks_for(ids.len()) {
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

    // -----------------------------------------------------------------
    // The element and value indexes
    // -----------------------------------------------------------------

    /// The `tag` members keyed by one of `values` under `path`, and the
    /// members walked to answer.
    fn ask(d: &Document, tag: &str, path: &[&str], values: &[&str]) -> (Vec<NodeId>, usize) {
        let path: Vec<Option<Symbol>> = path.iter().map(|n| d.symbols().lookup(n)).collect();
        d.members_keyed(d.symbols().lookup(tag), &path, values.iter().copied())
    }

    fn keyed(d: &Document, tag: &str, path: &[&str], value: &str) -> Vec<NodeId> {
        ask(d, tag, path, &[value]).0
    }

    fn builds() -> u64 {
        xic_obs::counter(xic_obs::Counter::IndexBuild)
    }

    /// What the indexes answer, for comparing a state with a later one:
    /// every tag list plus the probes the tests below care about.
    fn answers(d: &Document) -> String {
        let mut out = String::new();
        for tag in ["r", "m", "k", "c", "x", "o", "z"] {
            let list = d.symbols().lookup(tag).map_or(&[][..], |s| d.elements_named(s));
            out.push_str(&format!("{tag}: {list:?}\n"));
        }
        for v in ["v1", "v2", "v3", "v4", "u"] {
            out.push_str(&format!("m/k/c = {v}: {:?}\n", keyed(d, "m", &["k", "c"], v)));
            out.push_str(&format!("k/c = {v}: {:?}\n", keyed(d, "k", &["c"], v)));
            out.push_str(&format!("x = {v}: {:?}\n", keyed(d, "x", &[], v)));
        }
        out
    }

    /// One primitive mutation; [`mutate`] returns the one that undoes it.
    #[derive(Debug, Clone)]
    enum Edit {
        Insert(NodeId, usize, NodeId),
        Detach(NodeId),
        SetText(NodeId, String),
        Rename(NodeId, String),
    }

    fn mutate(d: &mut Document, edit: Edit) -> Edit {
        match edit {
            Edit::Insert(parent, at, node) => {
                d.insert_child(parent, at, node);
                Edit::Detach(node)
            }
            Edit::Detach(node) => {
                let parent = d.node(node).parent.expect("attached somewhere");
                Edit::Insert(parent, d.detach(node), node)
            }
            Edit::SetText(node, text) => Edit::SetText(node, d.set_text(node, text)),
            Edit::Rename(node, name) => Edit::Rename(node, d.rename(node, name)),
        }
    }

    /// `<t0><t1>…value…</t1></t0>` for `tags`, detached: the ids of the
    /// elements, outermost first, then of the text.
    fn chain(d: &mut Document, tags: &[&str], value: &str) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = tags.iter().map(|t| d.create_element(*t)).collect();
        ids.push(d.create_text(value));
        for pair in ids.windows(2).rev() {
            d.append_child(pair[0], pair[1]);
        }
        ids
    }

    /// `<tag><k><c>value</c></k></tag>`, detached: `[tag, k, c, text]`.
    fn keyed_subtree(d: &mut Document, tag: &str, value: &str) -> [NodeId; 4] {
        chain(d, &[tag, "k", "c"], value).try_into().expect("four nodes")
    }

    /// `<r><m><k><c>v1</c></k><k><c>v2</c></k><x>u</x></m>
    ///     <m><k><c>v1</c></k></m><o><k><c>v3</c></k></o></r>`
    /// The tests ask for three shapes: `m` by `k/c/text()` (a key two
    /// levels below its member), `k` by `c/text()`, `x` by `text()`
    /// ([`answers`] asks for all of them); nothing is built here.
    struct Indexed {
        d: Document,
        r: NodeId,
        m1: [NodeId; 4],
        k2: [NodeId; 3],
        x: NodeId,
        u: NodeId,
        m2: [NodeId; 4],
        o: [NodeId; 4],
    }

    fn indexed_doc() -> Indexed {
        let mut d = Document::new();
        let r = d.create_element("r");
        d.append_child(d.document_node(), r);
        let m1 = keyed_subtree(&mut d, "m", "v1");
        let k2: [NodeId; 3] = chain(&mut d, &["k", "c"], "v2").try_into().expect("three nodes");
        let [x, u]: [NodeId; 2] = chain(&mut d, &["x"], "u").try_into().expect("two nodes");
        let m2 = keyed_subtree(&mut d, "m", "v1");
        let o = keyed_subtree(&mut d, "o", "v3");
        // Half the tree is attached top-down, half bottom-up.
        d.append_child(r, m1[0]);
        d.append_child(m1[0], k2[0]);
        d.append_child(m1[0], x);
        d.append_child(r, m2[0]);
        d.append_child(r, o[0]);
        Indexed { d, r, m1, k2, x, u, m2, o }
    }

    #[test]
    fn indexes_answer_by_tag_and_by_key() {
        let t = indexed_doc();
        let d = &t.d;
        xic_obs::reset();
        assert_eq!(d.elements_named(d.symbols().lookup("m").unwrap()), [t.m1[0], t.m2[0]]);
        // The first ask of a shape builds it and reports the members it
        // walked; every later one reads what was built.
        assert_eq!(ask(d, "m", &["k", "c"], &["v1"]), (vec![t.m1[0], t.m2[0]], 2));
        assert_eq!(ask(d, "m", &["k", "c"], &["v2"]), (vec![t.m1[0]], 0));
        assert_eq!(keyed(d, "m", &["k", "c"], "v3"), [], "o is not an m");
        assert_eq!(builds(), 1);
        assert_eq!(ask(d, "k", &["c"], &["v3"]), (vec![t.o[1]], 4));
        assert_eq!(ask(d, "x", &[], &["u"]), (vec![t.x], 1));
        // Hits come back in document order, whatever the ids are.
        assert_eq!(keyed(d, "k", &["c"], "v1"), [t.m1[1], t.m2[1]]);
        assert_eq!(ask(d, "k", &["c"], &["v3", "v1", "v3", "nope"]).0, [t.m1[1], t.m2[1], t.o[1]]);
        assert_eq!(builds(), 3);
        d.audit_indexes().expect("a fresh build equals a scan");
        // A clone carries what has been built, and builds the rest itself.
        let copy = d.clone();
        assert_eq!(answers(&copy), answers(d));
        assert_eq!(builds(), 3);
        assert_eq!(ask(&copy, "m", &["k"], &["v1"]), (vec![], 2));
        assert_eq!(builds(), 4);
        assert_eq!(ask(d, "m", &["k"], &["v1"]), (vec![], 2));
        copy.audit_indexes().expect("the clone's indexes equal a scan of the clone");
        assert!(d.is_attached(t.u) && d.is_attached(d.document_node()));
        assert!(!d.is_attached(NodeId(10_000)));
    }

    /// A name the symbol table never interned is on no element: the
    /// answer is empty, and no index is built to find that out.
    #[test]
    fn an_uninterned_name_answers_empty_and_builds_nothing() {
        let t = indexed_doc();
        xic_obs::reset();
        assert_eq!(ask(&t.d, "nope", &["k", "c"], &["v1"]), (vec![], 0));
        assert_eq!(ask(&t.d, "m", &["k", "nope"], &["v1"]), (vec![], 0));
        assert_eq!(builds(), 0);
        assert!(t.d.read_value_indexes().is_empty());
        // An interned name on no attached element is a shape like any other.
        let mut d = t.d.clone();
        d.create_element("spare");
        assert_eq!(ask(&d, "spare", &[], &["v1"]), (vec![], 0));
        assert_eq!(builds(), 1);
    }

    /// The readers of one snapshot share the document (and what any of
    /// them builds on it).
    const _: fn() = || {
        fn shared<T: Sync + Send>() {}
        shared::<Document>();
    };

    /// Every mutator on an attached node in each role — a member, a node
    /// on a member's key path, a node on neither — keeps the indexes equal
    /// to a scan, moves exactly the answers it should, and is undone by
    /// its inverse; whether the shapes were first asked for before the
    /// edit (the mutators maintain them through it) or after it (they are
    /// built from the edited tree, then maintained through the undo).
    #[test]
    fn every_attached_edit_keeps_the_indexes_and_undoes() {
        let t = indexed_doc();
        let before = answers(&t.d.clone());
        type Case = (&'static str, fn(&Indexed, &mut Document) -> Edit, &'static [(&'static str, usize)]);
        // (what, the edit, the `m/k/c` and `k/c` hit counts it leaves for v1)
        let cases: &[Case] = &[
            ("detach a member", |t, _| Edit::Detach(t.m1[0]), &[("m", 1), ("k", 1)]),
            ("detach a key-path element", |t, _| Edit::Detach(t.m1[1]), &[("m", 1), ("k", 1)]),
            ("detach the inner key-path element", |t, _| Edit::Detach(t.m1[2]), &[("m", 1), ("k", 1)]),
            ("detach a key text", |t, _| Edit::Detach(t.m1[3]), &[("m", 1), ("k", 1)]),
            ("detach an unrelated element", |t, _| Edit::Detach(t.x), &[("m", 2), ("k", 2)]),
            ("detach another tag's subtree", |t, _| Edit::Detach(t.o[0]), &[("m", 2), ("k", 2)]),
            ("insert a member", |t, d| Edit::Insert(t.r, 1, keyed_subtree(d, "m", "v1")[0]), &[("m", 3), ("k", 3)]),
            ("insert a key-path subtree", |t, d| Edit::Insert(t.m2[0], 0, chain(d, &["k", "c"], "v1")[0]), &[("m", 2), ("k", 3)]),
            ("insert a second key text", |t, d| Edit::Insert(t.k2[1], 1, d.create_text("v1")), &[("m", 2), ("k", 3)]),
            ("insert an unrelated element", |t, d| Edit::Insert(t.r, 0, d.create_element("z")), &[("m", 2), ("k", 2)]),
            ("edit a text two levels below a member", |t, _| Edit::SetText(t.m1[3], "v4".into()), &[("m", 1), ("k", 1)]),
            ("edit a key text to a value the member has", |t, _| Edit::SetText(t.k2[2], "v1".into()), &[("m", 2), ("k", 3)]),
            ("edit an unrelated text", |t, _| Edit::SetText(t.u, "v1".into()), &[("m", 2), ("k", 2)]),
            ("rename a member out of the demanded tag", |t, _| Edit::Rename(t.m1[0], "z".into()), &[("m", 1), ("k", 2)]),
            ("rename an element into the demanded tag", |t, _| Edit::Rename(t.o[0], "m".into()), &[("m", 2), ("k", 2)]),
            ("rename a key-path element", |t, _| Edit::Rename(t.m1[1], "z".into()), &[("m", 1), ("k", 1)]),
            ("rename the inner key-path element", |t, _| Edit::Rename(t.m2[2], "z".into()), &[("m", 1), ("k", 1)]),
            ("rename an element onto a key path", |t, _| Edit::Rename(t.x, "k".into()), &[("m", 2), ("k", 2)]),
            ("rename an unrelated element", |t, _| Edit::Rename(t.x, "z".into()), &[("m", 2), ("k", 2)]),
        ];
        for (what, edit, v1_hits) in cases {
            for asked_before in [true, false] {
                let what = format!("{what} (shapes asked for before the edit: {asked_before})");
                let mut d = t.d.clone();
                if asked_before {
                    assert_eq!(answers(&d), before);
                }
                let edit = edit(&t, &mut d);
                let inverse = mutate(&mut d, edit.clone());
                d.audit_indexes().unwrap_or_else(|e| panic!("{what} ({edit:?}): {e}"));
                for &(tag, hits) in *v1_hits {
                    let path: &[&str] = if tag == "m" { &["k", "c"] } else { &["c"] };
                    assert_eq!(keyed(&d, tag, path, "v1").len(), hits, "{what}: {tag} keyed by v1");
                }
                d.audit_indexes().unwrap_or_else(|e| panic!("first ask after {what}: {e}"));
                mutate(&mut d, inverse);
                d.audit_indexes().unwrap_or_else(|e| panic!("undo of {what}: {e}"));
                assert_eq!(answers(&d), before, "undo of {what}");
            }
        }
    }

    /// Nothing detached is indexed, whatever is done to it; attaching it
    /// indexes it as it then is.
    #[test]
    fn detached_edits_touch_no_index_until_the_subtree_attaches() {
        let t = indexed_doc();
        let mut d = t.d.clone();
        let before = answers(&d);
        let [m, k, c, text] = keyed_subtree(&mut d, "m", "v1");
        let spare = chain(&mut d, &["k", "c"], "v2");
        for edit in [
            Edit::SetText(text, "v3".into()),
            Edit::Rename(k, "z".into()),
            Edit::Rename(k, "k".into()),
            Edit::Rename(m, "o".into()),
            Edit::Rename(m, "m".into()),
            Edit::Insert(m, 1, spare[0]),
            Edit::Detach(c),
            Edit::Insert(k, 0, c),
        ] {
            mutate(&mut d, edit.clone());
            d.audit_indexes().unwrap_or_else(|e| panic!("{edit:?} on a detached subtree: {e}"));
            assert_eq!(answers(&d), before, "{edit:?} on a detached subtree");
            assert!(!d.is_attached(text) && !d.is_attached(m));
        }
        d.append_child(t.r, m);
        d.audit_indexes().expect("the attached subtree is indexed");
        assert!(d.is_attached(text));
        assert_eq!(keyed(&d, "m", &["k", "c"], "v3"), [m]);
        assert_eq!(keyed(&d, "m", &["k", "c"], "v2"), [t.m1[0], m]);
        assert_eq!(keyed(&d, "m", &["k", "c"], "v1"), [t.m1[0], t.m2[0]]);
        d.detach(m);
        assert_eq!(answers(&d), before);
    }

    #[test]
    fn audit_rejects_a_stale_index() {
        let t = indexed_doc();
        let mut stale_list = t.d.clone();
        stale_list.by_tag.iter_mut().find(|l| l.contains(&t.x)).unwrap().clear();
        assert!(stale_list.audit_indexes().unwrap_err().contains("tag list"));
        let mut stale_bit = t.d.clone();
        stale_bit.attached[t.u.index()] = false;
        assert!(stale_bit.audit_indexes().unwrap_err().contains("attached bit"));
        let mut stale_value = t.d.clone();
        assert_eq!(keyed(&stale_value, "k", &["c"], "v1").len(), 2);
        stale_value.value_indexes_mut()[0].postings.pop();
        assert!(stale_value.audit_indexes().unwrap_err().contains("value index"));
    }

    /// A commit makes the rank table stale; a handful of hits is then put
    /// in order by path keys, and only a larger set pays for the rebuild.
    #[test]
    fn small_sorts_leave_a_stale_rank_table_alone() {
        let (mut d, root, track, name) = small_doc();
        let _ = d.order_ranks();
        let t0 = d.create_element("track");
        d.insert_child(root, 0, t0);
        xic_obs::reset();
        let mut ids = vec![name, track, t0];
        d.sort_document_order(&mut ids);
        assert_eq!(ids, vec![t0, track, name]);
        assert_eq!(xic_obs::counter(xic_obs::Counter::OrderCacheRebuild), 0);
        assert_eq!(xic_obs::counter(xic_obs::Counter::DocOrderPathSort), 1);
        // The allowance is per structural version, not per sort.
        for _ in 0..PATH_SORT_ALLOWANCE {
            d.sort_document_order(&mut ids);
        }
        assert_eq!(ids, vec![t0, track, name]);
        assert_eq!(xic_obs::counter(xic_obs::Counter::OrderCacheRebuild), 1);
        assert!(xic_obs::counter(xic_obs::Counter::DocOrderFastSort) > 0);
    }
}
