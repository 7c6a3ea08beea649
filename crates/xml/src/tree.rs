//! The ordered XML tree arena.

use crate::intern::{Symbol, SymbolTable};
use crate::shared::{Children, ListIter, SharedVec, SortedList};
use std::fmt;
use std::hash::Hasher;
use std::sync::{Arc, RwLock, RwLockReadGuard};

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

/// An attribute: its name (the symbol table's copy) and value.
pub type Attr = (Arc<str>, Arc<str>);

/// Node payload. Every string is behind a shared immutable pointer — an
/// element's name is the symbol table's one copy — so a copy of a node
/// owns no heap memory of its own, and an edit replaces a pointer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// The document node (exactly one per document, always `NodeId(0)`).
    Document,
    /// An element with a (possibly prefixed) tag name and attributes in
    /// document order.
    Element {
        /// Qualified tag name (`prefix:local` kept verbatim).
        name: Arc<str>,
        /// Attribute name/value pairs.
        attrs: SharedVec<Attr>,
    },
    /// A text node.
    Text(Arc<str>),
    /// A comment.
    Comment(Arc<str>),
    /// A processing instruction.
    Pi {
        /// PI target.
        target: Arc<str>,
        /// PI data.
        data: Arc<str>,
    },
}

/// One node in the arena.
#[derive(Debug, Clone)]
pub struct Node {
    /// Payload.
    pub kind: NodeKind,
    /// Parent node, `None` for the document node and detached nodes.
    pub parent: Option<NodeId>,
    /// Children in document order (empty for text/comment/PI nodes):
    /// inline when few, else shared with the other versions until one of
    /// them writes the list.
    pub children: Children,
}

/// Slots per arena chunk (32: a commit copies the chunks it writes, so
/// they stay small) and chunks per group, powers of two: a node id
/// splits into its group (`id >> GROUP_SHIFT`), its chunk in the group
/// (`(id >> CHUNK_BITS) & GROUP_MASK`) and its slot in the chunk
/// (`id & CHUNK_MASK`).
pub(crate) const CHUNK_BITS: u32 = 5;
pub(crate) const CHUNK: usize = 1 << CHUNK_BITS;
pub(crate) const CHUNK_MASK: usize = CHUNK - 1;
const GROUP_BITS: u32 = 6;
const GROUP_MASK: usize = (1 << GROUP_BITS) - 1;
const GROUP_SHIFT: u32 = CHUNK_BITS + GROUP_BITS;

/// One arena slot: a node, the interned tag-name symbol of an element
/// ([`NO_SYM`] for every other kind) and whether the node is reachable
/// from the document node.
#[derive(Debug, Clone)]
pub(crate) struct NodeRec {
    pub(crate) node: Node,
    pub(crate) sym: u32,
    pub(crate) attached: bool,
}

/// What a chunk holds past the document's last node.
pub(crate) const VACANT: NodeRec = NodeRec {
    node: Node {
        kind: NodeKind::Document,
        parent: None,
        children: Children::EMPTY,
    },
    sym: NO_SYM,
    attached: false,
};

pub(crate) type Chunk = [NodeRec; CHUNK];

/// `1 << GROUP_BITS` chunks, the second level of the chunk table; the
/// slots past the document's last chunk are empty.
type Group = [Option<Arc<Chunk>>; GROUP_MASK + 1];

/// One value index: its members are the attached `tag` elements, and a
/// member is keyed by the string of every text node at
/// `member/path[0]/…/path[k-1]/text()` (child steps only). Postings are
/// plain integers — the 64-bit hash of a key string and the member it
/// keys, sorted — in a list the versions share leaf by leaf, and a probe
/// re-checks the candidates' keys.
#[derive(Debug, Clone)]
struct ValueIndex {
    tag: u32,
    path: Arc<[u32]>,
    /// One posting per key *node*: a member with two equal keys is
    /// listed twice, and loses one posting when one of them goes.
    postings: SortedList<(u64, NodeId)>,
}

/// A posting to add or remove: the index (its place in the document's
/// list), the key's hash and the member it keys.
type Post = (usize, u64, NodeId);

fn hash_value(value: &str) -> u64 {
    // Fixed keys: a clone, and a fresh build, hash as the original did.
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write(value.as_bytes());
    h.finish()
}

/// An in-memory XML document: an arena of nodes rooted at a document node,
/// plus interned tag-name symbols and the element and value indexes.
/// Document order is made on demand, by path keys
/// ([`Document::sort_document_order`]).
///
/// **Copy-on-write arena.** The nodes live in fixed-size chunks, each
/// behind an `Arc`, grouped under a second level of `Arc`s: a clone
/// shares every chunk with its original, and the first write to a chunk
/// that a clone still shares copies that one chunk (one
/// [`xic_obs::Counter::ChunkCopy`]), its group's table and the table of
/// groups (one pointer per 2 048 nodes). A record owns no heap memory —
/// its strings and long child lists are shared pointers — so that copy
/// is a memcpy plus refcount bumps, and dropping a replaced version frees
/// only what it alone held.
/// The symbol table, the per-tag lists and the value indexes are shared
/// the same way. A service snapshot therefore shares everything the batch
/// after it did not write.
///
/// **Index invariant.** The attached bits, `by_tag` and every value index
/// built so far describe exactly the tree reachable from the document
/// node. A `DocumentBuilder` (the `build` module) builds them whole in the
/// pass that freezes a new document; after that they are maintained
/// inside the primitive mutators (`insert_child`, `detach`, `set_text`,
/// `rename`) and nowhere else, so whoever edits the tree — `apply`,
/// `undo`, a test — cannot leave them stale, and a clone carries them.
/// [`Document::audit_indexes`] checks the invariant against a scan.
#[derive(Debug)]
pub struct Document {
    /// Node `i` is slot `i & CHUNK_MASK` of chunk `(i >> CHUNK_BITS) &
    /// GROUP_MASK` of `groups[i >> GROUP_SHIFT]`; the slots at `len` and
    /// beyond are [`VACANT`]. A clone shares the table, and a version's
    /// first write copies it: one pointer per 2 048 nodes.
    groups: Arc<[Arc<Group>]>,
    len: usize,
    /// Interned element/attribute names; append-only, and shared by every
    /// version cloned from this one (a name one of them interns is an
    /// entry the others never look up), so a missed lookup proves the
    /// name never occurred.
    symbols: Arc<SymbolTable>,
    /// `by_tag[symbol]`: the attached elements carrying that tag,
    /// ascending by id (which is document order only until the first
    /// non-tail insert).
    by_tag: Arc<Vec<SortedList<NodeId>>>,
    /// The value indexes asked for so far, the document's one
    /// interior-mutable field: [`Document::members_keyed`] builds one under
    /// `&self`, behind a `RwLock` (not a `RefCell`) so the document stays
    /// `Sync` for the readers sharing a service snapshot; the mutators go
    /// through `get_mut` (no lock on the write path).
    value_indexes: RwLock<Arc<Vec<ValueIndex>>>,
}

impl Default for Document {
    fn default() -> Self {
        Document::new()
    }
}

/// Whether `text` makes a text node. The parser drops character data
/// that is empty or all whitespace, so a node of such text would not
/// come back from its document's serialization, and a checkpoint keyed
/// by that serialization's crc would not reopen. The builder, an
/// `xupdate:update` and an insertion's content ask this before they make
/// a text node.
pub(crate) fn is_kept_text(text: &str) -> bool {
    !text.trim().is_empty()
}

/// Sentinel for "this node has no tag-name symbol" (non-element nodes).
/// Real symbols are dense indexes, so `u32::MAX` is unreachable.
pub(crate) const NO_SYM: u32 = u32::MAX;

impl Clone for Document {
    fn clone(&self) -> Document {
        Document {
            groups: Arc::clone(&self.groups),
            len: self.len,
            symbols: Arc::clone(&self.symbols),
            by_tag: Arc::clone(&self.by_tag),
            value_indexes: RwLock::new(Arc::clone(&self.read_value_indexes())),
        }
    }
}

impl Document {
    /// Creates an empty document (just the document node).
    pub fn new() -> Document {
        crate::build::DocumentBuilder::new().finish()
    }

    /// Freezes a `DocumentBuilder`'s owned chunks — node
    /// `i` is slot `i & CHUNK_MASK` of `chunks[i >> CHUNK_BITS]`, `len`
    /// nodes in all — its symbols and its per-tag lists (attached
    /// elements, ascending by id) into the shared layout, in one pass.
    #[allow(clippy::vec_box)]
    pub(crate) fn freeze(
        chunks: Vec<Box<Chunk>>,
        len: usize,
        symbols: SymbolTable,
        by_tag: Vec<Vec<NodeId>>,
    ) -> Document {
        let mut chunks = chunks.into_iter();
        let mut groups = Vec::with_capacity(len.div_ceil(1 << GROUP_SHIFT));
        for _ in 0..len.div_ceil(1 << GROUP_SHIFT) {
            let group: Group = std::array::from_fn(|_| chunks.next().map(Arc::from));
            groups.push(Arc::new(group));
        }
        let by_tag = by_tag
            .into_iter()
            .map(|list| if list.is_empty() { SortedList::default() } else { SortedList::from_sorted(list) })
            .collect();
        Document {
            groups: groups.into(),
            len,
            symbols: Arc::new(symbols),
            by_tag: Arc::new(by_tag),
            value_indexes: RwLock::default(),
        }
    }

    /// The document node.
    pub fn document_node(&self) -> NodeId {
        NodeId(0)
    }

    /// The root element, if any.
    pub fn root_element(&self) -> Option<NodeId> {
        self.node(self.document_node())
            .children
            .iter()
            .copied()
            .find(|&c| matches!(self.node(c).kind, NodeKind::Element { .. }))
    }

    /// Total number of allocated nodes (including detached ones).
    pub fn node_count(&self) -> usize {
        self.len
    }

    /// Immutable access to a node.
    ///
    /// # Panics
    /// Panics if the id does not belong to this document.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.rec(id).node
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.rec_mut(id).node
    }

    /// The arena slot of `id`, `None` past the last allocated node.
    #[inline]
    fn slot(&self, id: NodeId) -> Option<&NodeRec> {
        let i = id.index();
        if i >= self.len {
            return None;
        }
        let chunk = self.groups[i >> GROUP_SHIFT][(i >> CHUNK_BITS) & GROUP_MASK].as_deref()?;
        Some(&chunk[i & CHUNK_MASK])
    }

    #[inline]
    fn rec(&self, id: NodeId) -> &NodeRec {
        match self.slot(id) {
            Some(rec) => rec,
            None => panic!("node {id} does not belong to this document"),
        }
    }

    /// The slot of `id` for writing: the one place a chunk a clone still
    /// shares is copied, with its group's table and the table of groups.
    fn rec_mut(&mut self, id: NodeId) -> &mut NodeRec {
        let i = id.index();
        assert!(i < self.len, "node {id} does not belong to this document");
        &mut self.chunk_mut(i >> CHUNK_BITS)[i & CHUNK_MASK]
    }

    /// Chunk `c` for writing (see [`Document::rec_mut`]). This, the group
    /// table's copy and [`Document::alloc`] are the commit's write path: a
    /// whole document is built by a `DocumentBuilder`.
    fn chunk_mut(&mut self, c: usize) -> &mut Chunk {
        let group = Arc::make_mut(&mut self.groups_mut()[c >> GROUP_BITS]);
        let chunk = group[c & GROUP_MASK].as_mut().expect("a chunk holds every node");
        let shared = Arc::as_ptr(chunk);
        let chunk = Arc::make_mut(chunk);
        if !std::ptr::eq(shared, chunk) {
            xic_obs::incr(xic_obs::Counter::ChunkCopy);
        }
        chunk
    }

    /// The group table for writing: copied first while a clone shares it.
    fn groups_mut(&mut self) -> &mut [Arc<Group>] {
        if Arc::get_mut(&mut self.groups).is_none() {
            self.groups = self.groups.iter().cloned().collect();
        }
        Arc::get_mut(&mut self.groups).expect("copied above")
    }

    fn alloc(&mut self, kind: NodeKind, sym: u32) -> NodeId {
        let id = NodeId(u32::try_from(self.len).expect("node arena overflow"));
        if self.len & CHUNK_MASK == 0 {
            if self.len & ((1 << GROUP_SHIFT) - 1) == 0 {
                let group = Arc::new(std::array::from_fn(|_| None));
                self.groups = self.groups.iter().cloned().chain([group]).collect();
            }
            let at = (self.len >> CHUNK_BITS) & GROUP_MASK;
            let group = self.groups_mut().last_mut().expect("the first node started a group");
            Arc::make_mut(group)[at] = Some(Arc::new([VACANT; CHUNK]));
        }
        self.len += 1;
        *self.rec_mut(id) = NodeRec {
            node: Node {
                kind,
                parent: None,
                children: Children::EMPTY,
            },
            sym,
            attached: false,
        };
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
        match self.slot(id) {
            Some(rec) if rec.sym != NO_SYM => Some(Symbol(rec.sym)),
            _ => None,
        }
    }

    /// The cached symbol of `id` as stored: [`NO_SYM`] for non-elements.
    fn sym(&self, id: NodeId) -> u32 {
        self.rec(id).sym
    }

    /// Creates a detached element. Its name is the symbol table's copy.
    pub fn create_element(&mut self, name: impl AsRef<str>) -> NodeId {
        let (sym, name) = self.symbols.intern_name(name.as_ref());
        self.alloc(NodeKind::Element { name, attrs: SharedVec::EMPTY }, sym.0)
    }

    /// Creates a detached text node. Empty or all-whitespace text makes a
    /// node no reparse of the document gives back.
    pub fn create_text(&mut self, text: impl Into<Arc<str>>) -> NodeId {
        self.alloc(NodeKind::Text(text.into()), NO_SYM)
    }

    /// Creates a detached comment node.
    pub fn create_comment(&mut self, text: impl Into<Arc<str>>) -> NodeId {
        self.alloc(NodeKind::Comment(text.into()), NO_SYM)
    }

    /// Creates a detached processing instruction.
    pub fn create_pi(&mut self, target: impl Into<Arc<str>>, data: impl Into<Arc<str>>) -> NodeId {
        self.alloc(NodeKind::Pi { target: target.into(), data: data.into() }, NO_SYM)
    }

    /// Adds an attribute to an element (appended in order).
    ///
    /// # Panics
    /// Panics if `id` is not an element.
    pub fn set_attr(&mut self, id: NodeId, name: impl AsRef<str>, value: impl Into<Arc<str>>) {
        // Attribute names join the table too, so compiled attribute name
        // tests can prove a never-seen name matches nothing.
        let (_, name) = self.symbols.intern_name(name.as_ref());
        match &mut self.node_mut(id).kind {
            NodeKind::Element { attrs, .. } => {
                let value = value.into();
                match attrs.iter().position(|(n, _)| *n == name) {
                    Some(at) => attrs.make_mut()[at].1 = value,
                    None => attrs.push((name, value)),
                }
            }
            other => panic!("set_attr on non-element node: {other:?}"),
        }
    }

    /// Reads an attribute value.
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        match &self.node(id).kind {
            NodeKind::Element { attrs, .. } => {
                attrs.iter().find(|(n, _)| **n == *name).map(|(_, v)| &**v)
            }
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
        // Cycle check: parent must not be inside child's subtree. A child
        // without children is its whole subtree, so building a fragment
        // node by node never walks the chain it hangs from.
        let mut cur = Some(parent);
        while let Some(c) = cur {
            assert!(c != child, "attaching {child} under itself");
            cur = if self.node(child).children.is_empty() { None } else { self.node(c).parent };
        }
        self.node_mut(parent).children.insert(idx, child);
        self.node_mut(child).parent = Some(parent);
        if self.is_attached(parent) {
            self.index_subtree(child, true);
        }
    }

    /// Detaches `child` from its parent, returning its previous index.
    ///
    /// # Panics
    /// Panics if the node is not attached.
    pub fn detach(&mut self, child: NodeId) -> usize {
        let parent = self.node(child).parent.expect("node is not attached");
        if self.is_attached(child) {
            self.index_subtree(child, false);
        }
        let idx = self.node(parent)
            .children
            .iter()
            .position(|&c| c == child)
            .expect("parent/child link out of sync");
        self.node_mut(parent).children.remove(idx);
        self.node_mut(child).parent = None;
        idx
    }

    /// Replaces the text content of a text node, returning the old value.
    ///
    /// # Panics
    /// Panics if `id` is not a text node.
    pub fn set_text(&mut self, id: NodeId, text: impl Into<Arc<str>>) -> String {
        let keyed = self.is_attached(id) && !self.value_indexes_mut().is_empty();
        if keyed {
            self.index_above(id, false);
        }
        let old = match &mut self.node_mut(id).kind {
            NodeKind::Text(t) => std::mem::replace(t, text.into()).to_string(),
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
    pub fn rename(&mut self, id: NodeId, new_name: impl AsRef<str>) -> String {
        let (Symbol(new_sym), new_name) = self.symbols.intern_name(new_name.as_ref());
        let kind = &self.node(id).kind;
        assert!(matches!(kind, NodeKind::Element { .. }), "rename on non-element node: {kind:?}");
        // An attached element is listed under its tag, is a member of that
        // tag's value indexes and a step of its ancestors' key paths: all
        // three follow the name.
        let attached = self.is_attached(id);
        if attached {
            self.index_above(id, false);
            self.index_element(id, false);
        }
        let rec = self.rec_mut(id);
        rec.sym = new_sym;
        let NodeKind::Element { name, .. } = &mut rec.node.kind else {
            unreachable!("checked above");
        };
        let old = std::mem::replace(name, new_name).to_string();
        if attached {
            self.index_element(id, true);
            self.index_above(id, true);
        }
        old
    }

    /// True if `id` is a node of this document reachable from the
    /// document node.
    pub fn is_attached(&self, id: NodeId) -> bool {
        self.slot(id).is_some_and(|rec| rec.attached)
    }

    /// The attached elements tagged `tag`, ascending by id — `//tag` as a
    /// list read. Not in document order: sort what you keep.
    pub fn elements_named(&self, tag: Symbol) -> ListIter<'_, NodeId> {
        self.by_tag.get(tag.0 as usize).map_or_else(ListIter::default, SortedList::iter)
    }

    /// How many attached elements are tagged `tag`.
    fn count_named(&self, tag: Symbol) -> usize {
        self.by_tag.get(tag.0 as usize).map_or(0, SortedList::len)
    }

    /// The attached `tag` elements with a text node at
    /// `member/path[0]/…/text()` (child steps only) equal to one of
    /// `values`, ascending by id (not document order), read off the
    /// `(tag, path)` index. The
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
                let path: Arc<[u32]> = path.iter().flatten().map(|step| step.0).collect();
                walked = self.count_named(Symbol(tag));
                let postings = self.scan_postings(&path, self.elements_named(Symbol(tag)));
                Arc::make_mut(&mut building).push(ValueIndex { tag, path, postings });
            }
            drop(building);
            indexes = self.read_value_indexes();
            found = at(&indexes);
        }
        let vi = &indexes[found.expect("found or built above")];
        let mut hits = Vec::new();
        for value in values {
            let h = hash_value(value);
            for (_, m) in vi.postings.iter_from(&(h, NodeId(0))).take_while(|p| p.0 == h) {
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
        (hits, walked)
    }

    fn read_value_indexes(&self) -> RwLockReadGuard<'_, Arc<Vec<ValueIndex>>> {
        self.value_indexes.read().expect("value index lock poisoned")
    }

    fn value_indexes_mut(&mut self) -> &mut Arc<Vec<ValueIndex>> {
        self.value_indexes.get_mut().expect("value index lock poisoned")
    }

    /// The postings of `members` under the key path `path`.
    fn scan_postings(
        &self,
        path: &[u32],
        members: impl Iterator<Item = NodeId>,
    ) -> SortedList<(u64, NodeId)> {
        let mut postings = Vec::new();
        for m in members {
            self.for_each_key(m, path, &mut |v| postings.push((hash_value(v), m)));
        }
        postings.sort_unstable();
        SortedList::from_sorted(postings)
    }

    /// Adds (or removes) `posts` to (or from) the value indexes.
    fn post(&mut self, posts: Vec<Post>, add: bool) {
        if posts.is_empty() {
            return;
        }
        let indexes = Arc::make_mut(self.value_indexes_mut());
        for (i, hash, member) in posts {
            let postings = &mut indexes[i].postings;
            if add {
                postings.insert((hash, member));
            } else {
                assert!(postings.remove(&(hash, member)), "value index lost a posting");
            }
        }
    }

    /// Calls `f` with the string of every text node at
    /// `from/path[0]/…/text()`.
    fn for_each_key(&self, from: NodeId, path: &[u32], f: &mut dyn FnMut(&str)) {
        for &c in self.node(from).children.iter() {
            match (path.split_first(), &self.node(c).kind) {
                (None, NodeKind::Text(t)) => f(t),
                (Some((&step, rest)), _) if self.sym(c) == step => {
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
        let mut nodes: Vec<NodeId> = std::iter::once(root).chain(self.descendants(root)).collect();
        // In id order, one chunk at a time, and each tag's elements
        // ascending by id: a tag listed nowhere yet gets its list built
        // whole.
        nodes.sort_unstable();
        let mut tagged: Vec<Vec<NodeId>> = Vec::new();
        for run in nodes.chunk_by(|a, b| a.index() >> CHUNK_BITS == b.index() >> CHUNK_BITS) {
            let chunk = self.chunk_mut(run[0].index() >> CHUNK_BITS);
            for &n in run {
                let rec = &mut chunk[n.index() & CHUNK_MASK];
                rec.attached = add;
                if rec.sym != NO_SYM {
                    let sym = rec.sym as usize;
                    if tagged.len() <= sym {
                        tagged.resize_with(sym + 1, Vec::new);
                    }
                    tagged[sym].push(n);
                }
            }
        }
        for (sym, members) in tagged.into_iter().enumerate().filter(|(_, m)| !m.is_empty()) {
            for &e in &members {
                self.index_values(e, add);
            }
            self.index_tag(sym as u32, members, add);
        }
        self.index_above(root, add);
    }

    /// Lists (or unlists) the attached element `e` under its tag, and as a
    /// member of that tag's value indexes.
    fn index_element(&mut self, e: NodeId, add: bool) {
        self.index_tag(self.sym(e), vec![e], add);
        self.index_values(e, add);
    }

    /// Lists (or unlists) `members`, attached elements tagged `sym`,
    /// ascending by id, under their tag.
    fn index_tag(&mut self, sym: u32, members: Vec<NodeId>, add: bool) {
        let by_tag = Arc::make_mut(&mut self.by_tag);
        if by_tag.len() <= sym as usize {
            by_tag.resize_with(sym as usize + 1, SortedList::default);
        }
        let list = &mut by_tag[sym as usize];
        if add && list.len() == 0 {
            *list = SortedList::from_sorted(members);
            return;
        }
        for e in members {
            match (list.contains(&e), add) {
                (false, true) => list.insert(e),
                (true, false) => {
                    list.remove(&e);
                }
                _ => panic!("tag list out of step with the tree at {e}"),
            }
        }
    }

    /// Adds (or removes) the postings of the attached element `e` as a
    /// member of its tag's value indexes.
    fn index_values(&mut self, e: NodeId, add: bool) {
        let sym = self.sym(e);
        if !self.value_indexes_mut().iter().any(|vi| vi.tag == sym) {
            return;
        }
        let mut posts = Vec::new();
        for (i, vi) in self.read_value_indexes().iter().enumerate().filter(|(_, vi)| vi.tag == sym) {
            self.for_each_key(e, &vi.path, &mut |v| posts.push((i, hash_value(v), e)));
        }
        self.post(posts, add);
    }

    /// Adds (or removes) the keys the attached node `x` carries for the
    /// members *above* it: `x` is a key text node, or an element on the
    /// key path of an ancestor at most `path.len()` levels up.
    fn index_above(&mut self, x: NodeId, add: bool) {
        if self.value_indexes_mut().is_empty() {
            return;
        }
        let mut posts = Vec::new();
        for (i, ValueIndex { tag, path, .. }) in self.read_value_indexes().iter().enumerate() {
            for depth in 1..=path.len() + 1 {
                let Some(member) = self.member_above(*tag, path, x, depth) else {
                    continue;
                };
                let mut key = |v: &str| posts.push((i, hash_value(v), member));
                match &self.node(x).kind {
                    NodeKind::Text(t) => key(t),
                    _ => self.for_each_key(x, &path[depth..], &mut key),
                }
            }
        }
        self.post(posts, add);
    }

    /// The `tag` element `depth` levels above `x` whose key path `path`
    /// runs through `x`: a text node at `depth == path.len() + 1`, an
    /// element named `path[depth - 1]` otherwise, under elements named by
    /// the steps before it.
    fn member_above(&self, tag: u32, path: &[u32], x: NodeId, depth: usize) -> Option<NodeId> {
        let mut cur = x;
        for d in (1..=depth).rev() {
            let on_path = match path.get(d - 1) {
                Some(&step) => self.sym(cur) == step,
                None => matches!(self.node(cur).kind, NodeKind::Text(_)),
            };
            if !on_path {
                return None;
            }
            cur = self.node(cur).parent?;
        }
        (self.sym(cur) == tag).then_some(cur)
    }

    /// Audits the attached bits, the per-tag lists and every value index
    /// built so far against a scan of the tree reachable from the document
    /// node — the maintenance invariant of the mutators, checked by the
    /// rollback and recovery oracles of `xic-difftest` beside
    /// [`Document::audit_symbols`].
    pub fn audit_indexes(&self) -> Result<(), String> {
        let mut attached = vec![false; self.len];
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
        let bit = |i: usize| self.is_attached(NodeId(i as u32));
        if let Some(n) = (0..self.len).find(|&i| attached[i] != bit(i)) {
            let (bit, reachable) = (bit(n), attached[n]);
            return Err(format!("node #{n}: attached bit {bit}, reachable {reachable}"));
        }
        let tag_name = |sym: u32| self.symbols.resolve(Symbol(sym)).unwrap_or_default();
        for (sym, (scan, list)) in by_tag.iter_mut().zip(self.by_tag.iter()).enumerate() {
            scan.sort_unstable();
            if !list.iter().eq(scan.iter().copied()) {
                let tag = tag_name(sym as u32);
                let list: Vec<NodeId> = list.iter().collect();
                return Err(format!("tag list of {tag:?} holds {list:?}, a scan finds {scan:?}"));
            }
        }
        for vi in self.read_value_indexes().iter() {
            let members = by_tag.get(vi.tag as usize).map_or(&[][..], Vec::as_slice);
            let scan = self.scan_postings(&vi.path, members.iter().copied());
            if !scan.iter().eq(vi.postings.iter()) {
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
    ///
    /// Iterative at any depth: each open element keeps the siblings after
    /// it on a heap stack, not a call frame (a last child keeps nothing).
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        let mut stack: Vec<&[NodeId]> = Vec::new();
        let mut rest: &[NodeId] = std::slice::from_ref(&id);
        loop {
            let Some((&n, after)) = rest.split_first() else {
                let Some(siblings) = stack.pop() else {
                    return out;
                };
                rest = siblings;
                continue;
            };
            rest = after;
            let node = self.node(n);
            match &node.kind {
                NodeKind::Text(t) => out.push_str(t),
                NodeKind::Comment(_) | NodeKind::Pi { .. } => {}
                _ => {
                    if !rest.is_empty() {
                        stack.push(rest);
                    }
                    rest = &node.children;
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
        for &c in self.node(parent).children.iter() {
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
        for &c in self.node(parent).children.iter() {
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

    /// Sorts `items` into document order by the path keys of their anchors
    /// ([`Document::order_key`]), items with one anchor by their own order
    /// — the one place document order is made, for the consumers that can
    /// observe it. A detached node sorts by the path from its own detached
    /// root. One [`xic_obs::Counter::DocOrderSort`] per sort of two or
    /// more items.
    pub fn sort_document_order<T: Ord>(&self, items: &mut Vec<T>, anchor: impl Fn(&T) -> NodeId) {
        if items.len() < 2 {
            return;
        }
        xic_obs::incr(xic_obs::Counter::DocOrderSort);
        let mut keyed: Vec<(Vec<u32>, T)> =
            items.drain(..).map(|t| (self.order_key(anchor(&t)), t)).collect();
        keyed.sort();
        items.extend(keyed.into_iter().map(|(_, t)| t));
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
        self.slot(id)?;
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
        d.sort_document_order(&mut ids, |&n| n);
        assert_eq!(ids, vec![t0, track]);
    }

    /// Path keys order nodes as a preorder walk from the document node
    /// meets them, after a non-tail insert too, and sorting by them puts
    /// the walk's nodes, shuffled and repeated, back in walk order.
    #[test]
    fn cmp_document_order_agrees_with_order_keys() {
        let (mut d, root, track, _) = small_doc();
        let t0 = d.create_element("track");
        d.insert_child(root, 0, t0);
        let t1 = d.create_element("track");
        d.insert_child(track, 0, t1);
        let walk: Vec<NodeId> = std::iter::once(d.document_node())
            .chain(d.descendants(d.document_node()))
            .collect();
        for (i, &a) in walk.iter().enumerate() {
            for (j, &b) in walk.iter().enumerate() {
                assert_eq!(d.order_key(a).cmp(&d.order_key(b)), i.cmp(&j), "{a} against {b}");
            }
        }
        let mut ids: Vec<NodeId> = walk.iter().rev().chain(&walk).copied().collect();
        ids.sort_unstable();
        ids.dedup();
        d.sort_document_order(&mut ids, |&n| n);
        assert_eq!(ids, walk);
    }

    #[test]
    fn sort_with_detached_nodes_falls_back_to_path_keys() {
        let (mut d, _, track, name) = small_doc();
        // Detach a subtree: its nodes keep path keys relative to the
        // detached root and must still sort deterministically.
        d.detach(track);
        let mut ids = vec![name, track];
        d.sort_document_order(&mut ids, |&n| n);
        assert_eq!(ids, vec![track, name]);
    }

    #[test]
    fn audit_rejects_stale_symbol() {
        let (mut d, _, track, name) = small_doc();
        d.audit_symbols().expect("fresh document is coherent");
        // Corrupt the cached symbol behind the API's back.
        d.rec_mut(track).sym = d.sym(name);
        let err = d.audit_symbols().expect_err("audit catches the stale symbol");
        assert!(err.contains("caches symbol"), "unexpected message: {err}");
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
            let list: Vec<NodeId> = d.symbols().lookup(tag).map_or(vec![], |s| d.elements_named(s).collect());
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
        let m = d.symbols().lookup("m").unwrap();
        assert_eq!(d.elements_named(m).collect::<Vec<_>>(), [t.m1[0], t.m2[0]]);
        assert_eq!(d.count_named(m), 2);
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
    /// built from the edited tree, then maintained through the undo). Each
    /// edit lands on one of a document and its clone, which share every
    /// chunk until then: the other one stays byte-identical and audits
    /// clean through the edit and its undo.
    #[test]
    fn every_attached_edit_keeps_the_indexes_and_undoes() {
        let t = indexed_doc();
        let before = answers(&t.d.clone());
        let xml = crate::serialize::serialize(&t.d);
        let untouched = |pinned: &Document, when: &str| {
            assert_eq!(crate::serialize::serialize(pinned), xml, "{when}: the other side changed");
            pinned.audit_indexes().unwrap_or_else(|e| panic!("{when}, the other side: {e}"));
            pinned.audit_symbols().unwrap_or_else(|e| panic!("{when}, the other side: {e}"));
        };
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
            for (asked_before, edit_the_clone) in [(true, false), (false, false), (true, true), (false, true)] {
                let what = format!(
                    "{what} (shapes asked for before the edit: {asked_before}, \
                     made to the clone: {edit_the_clone})"
                );
                let mut original = t.d.clone();
                if asked_before {
                    assert_eq!(answers(&original), before);
                }
                let mut clone = original.clone();
                let (d, pinned) = if edit_the_clone {
                    (&mut clone, &original)
                } else {
                    (&mut original, &clone)
                };
                let edit = edit(&t, d);
                let inverse = mutate(d, edit.clone());
                d.audit_indexes().unwrap_or_else(|e| panic!("{what} ({edit:?}): {e}"));
                d.audit_symbols().unwrap_or_else(|e| panic!("{what} ({edit:?}): {e}"));
                untouched(pinned, &what);
                for &(tag, hits) in *v1_hits {
                    let path: &[&str] = if tag == "m" { &["k", "c"] } else { &["c"] };
                    assert_eq!(keyed(d, tag, path, "v1").len(), hits, "{what}: {tag} keyed by v1");
                }
                d.audit_indexes().unwrap_or_else(|e| panic!("first ask after {what}: {e}"));
                mutate(d, inverse);
                d.audit_indexes().unwrap_or_else(|e| panic!("undo of {what}: {e}"));
                assert_eq!(answers(d), before, "undo of {what}");
                untouched(pinned, &format!("undo of {what}"));
            }
        }
    }

    /// The chunks of `d`, in id order.
    fn chunks(d: &Document) -> Vec<&Arc<Chunk>> {
        d.groups.iter().flat_map(|group| group.iter().flatten()).collect()
    }

    /// The chunks of `b` that are not `a`'s chunk at the same place.
    fn unshared(a: &Document, b: &Document) -> usize {
        let a = chunks(a);
        let shared = |(i, c): &(usize, &&Arc<Chunk>)| a.get(*i).is_some_and(|o| Arc::ptr_eq(o, c));
        chunks(b).iter().enumerate().filter(|ic| !shared(ic)).count()
    }

    /// A clone shares every chunk, and one tail append writes the tail
    /// chunk (or starts a new one) and the parent's, whatever the size:
    /// copying what a clone shares is the one place chunks are copied.
    /// (2 047 children make 4 096 nodes: the append starts a group.)
    #[test]
    fn a_tail_append_after_a_clone_unshares_at_most_three_chunks() {
        for children in [3, 2047, 16_000] {
            let mut d = Document::new();
            let r = d.create_element("r");
            d.append_child(d.document_node(), r);
            for i in 0..children {
                let c = chain(&mut d, &["c"], &i.to_string())[0];
                d.append_child(r, c);
            }
            assert_eq!(d.node_count(), 2 + 2 * children, "the document node, `r`, each `c` and its text");
            let snapshot = d.clone();
            let xml = crate::serialize::serialize(&snapshot);
            assert_eq!(unshared(&snapshot, &d), 0);
            xic_obs::reset();
            let c = chain(&mut d, &["c"], "new")[0];
            d.append_child(r, c);
            let (copied, started) = (unshared(&snapshot, &d), chunks(&d).len() - chunks(&snapshot).len());
            assert!(copied <= 3, "{copied} of {} chunks unshared", chunks(&d).len());
            assert_eq!(xic_obs::counter(xic_obs::Counter::ChunkCopy) as usize, copied - started);
            assert_eq!(crate::serialize::serialize(&snapshot), xml);
            d.audit_indexes().expect("the appended side audits clean");
            snapshot.audit_indexes().expect("the snapshot audits clean");
        }
    }

    /// A document one level deeper per node: the serializer and the
    /// string value keep their stacks on the heap.
    #[test]
    fn a_hundred_thousand_levels_serialize_on_a_small_stack() {
        const DEPTH: usize = 100_000;
        let mut d = Document::new();
        // `<e><e>…leaf…x</e>x</e>`, built from the leaf up.
        let mut below = d.create_text("leaf");
        for _ in 0..DEPTH {
            let e = d.create_element("e");
            d.append_child(e, below);
            let x = d.create_text("x");
            d.append_child(e, x);
            below = e;
        }
        d.append_child(d.document_node(), below);
        let (xml, text) = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || (crate::serialize::serialize(&d), d.text_content(d.document_node())))
            .expect("thread spawns")
            .join()
            .expect("neither walk overflows the stack");
        assert_eq!(xml.len(), "leaf".len() + DEPTH * "<e>x</e>".len());
        assert!(xml.starts_with("<e><e>") && xml.ends_with("x</e>x</e>"));
        assert_eq!(text.len(), "leaf".len() + DEPTH);
        assert!(text.starts_with("leafxx"));
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
        let by_tag = Arc::make_mut(&mut stale_list.by_tag);
        *by_tag.iter_mut().find(|l| l.contains(&t.x)).unwrap() = SortedList::default();
        assert!(stale_list.audit_indexes().unwrap_err().contains("tag list"));
        let mut stale_bit = t.d.clone();
        stale_bit.rec_mut(t.u).attached = false;
        assert!(stale_bit.audit_indexes().unwrap_err().contains("attached bit"));
        let mut stale_value = t.d.clone();
        assert_eq!(keyed(&stale_value, "k", &["c"], "v1").len(), 2);
        let postings = &mut Arc::make_mut(stale_value.value_indexes_mut())[0].postings;
        let last = postings.iter().last().unwrap();
        assert!(postings.remove(&last));
        assert!(stale_value.audit_indexes().unwrap_err().contains("value index"));
    }
}
