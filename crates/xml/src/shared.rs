//! What the versions of a document share.
//!
//! A commit clones the document and writes a handful of nodes, so what a
//! clone copies must be pointers, and what a write copies must be the
//! part it writes. A node record owns no heap memory: its strings are
//! `Arc<str>`s and its child list a [`Children`] — a few inline, more
//! behind a shared pointer — so copying a chunk of records is a memcpy
//! plus a refcount bump per string and long list, and dropping a version
//! frees only what it alone held. [`SharedVec`] is a list behind one
//! `Arc` — an element's attributes: a copy is a refcount bump, and a
//! write copies the list. `SortedList` — the per-tag element lists and
//! the value indexes' postings — is a sorted list in two levels of
//! `Arc`s, branches of leaves of items: a copy is a refcount bump, and an
//! insert or a remove copies the branch table, one branch and one leaf
//! (path copying), never the list.

use crate::tree::NodeId;
use std::ops::Deref;
use std::sync::Arc;

/// The most children a [`Children`] holds inline.
const INLINE_KIDS: usize = 4;

/// A node's children, in order, as its record holds them: up to four
/// inline, more in a buffer shared between versions until one of them
/// writes it. A write to a buffer another version holds copies it first,
/// exactly as long as it needs to be; a buffer no other version holds
/// grows in place, doubling when full (the slots past the list hold
/// copies of an item), so appending stays amortized O(1). Reads as a
/// `&[NodeId]`.
#[derive(Debug, Clone)]
pub struct Children(Kids);

#[derive(Debug, Clone)]
enum Kids {
    Inline(u8, [NodeId; INLINE_KIDS]),
    Shared(Arc<[NodeId]>, u32),
}

impl Children {
    /// No children.
    pub(crate) const EMPTY: Children = Children(Kids::Inline(0, [NodeId(0); INLINE_KIDS]));

    /// The list `ids`: inline when it fits, else one buffer exactly as
    /// long.
    pub(crate) fn from_slice(ids: &[NodeId]) -> Children {
        match ids.len() {
            0..=INLINE_KIDS => {
                let mut inline = [NodeId(0); INLINE_KIDS];
                inline[..ids.len()].copy_from_slice(ids);
                Children(Kids::Inline(ids.len() as u8, inline))
            }
            n => Children(Kids::Shared(ids.into(), n as u32)),
        }
    }

    /// Inserts `x` at `at`, shifting the children after it.
    ///
    /// # Panics
    /// Panics if `at` is past the last child.
    pub(crate) fn insert(&mut self, at: usize, x: NodeId) {
        let len = self.len();
        assert!(at <= len, "insert index out of bounds");
        let room = match &mut self.0 {
            Kids::Inline(n, ids) if len < INLINE_KIDS => {
                ids[len] = x;
                ids[at..=len].rotate_right(1);
                *n += 1;
                return;
            }
            Kids::Shared(buf, n) if Arc::strong_count(buf) == 1 && len < buf.len() => {
                let buf = Arc::get_mut(buf).expect("no other version holds the buffer");
                buf[len] = x;
                buf[at..=len].rotate_right(1);
                *n += 1;
                return;
            }
            Kids::Shared(buf, _) if Arc::strong_count(buf) > 1 => len + 1,
            _ => (2 * len).max(2 * INLINE_KIDS),
        };
        let (before, after) = self.split_at(at);
        let items = before.iter().copied().chain([x]).chain(after.iter().copied());
        let buf = items.chain(std::iter::repeat_n(x, room - len - 1)).collect();
        self.0 = Kids::Shared(buf, len as u32 + 1);
    }

    /// Removes the child at `at`, shifting the children after it.
    pub(crate) fn remove(&mut self, at: usize) {
        let len = self.len();
        match &mut self.0 {
            Kids::Inline(n, ids) => {
                ids[at..len].rotate_left(1);
                *n -= 1;
            }
            Kids::Shared(buf, n) if Arc::strong_count(buf) == 1 => {
                Arc::get_mut(buf).expect("no other version holds the buffer")[at..len].rotate_left(1);
                *n -= 1;
            }
            Kids::Shared(..) => {
                let items = self[..at].iter().chain(&self[at + 1..]).copied();
                self.0 = Kids::Shared(items.collect(), len as u32 - 1);
            }
        }
    }
}

impl Deref for Children {
    type Target = [NodeId];

    #[inline]
    fn deref(&self) -> &[NodeId] {
        match &self.0 {
            Kids::Inline(n, ids) => &ids[..*n as usize],
            Kids::Shared(buf, n) => &buf[..*n as usize],
        }
    }
}

impl<'a> IntoIterator for &'a Children {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A list shared between versions until one of them writes it — an
/// element's attributes: a copy is a refcount bump, a write copies the
/// list (an element has few attributes). Empty, it holds no allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedVec<T>(Option<Arc<[T]>>);

impl<T> SharedVec<T> {
    /// The empty list.
    pub(crate) const EMPTY: SharedVec<T> = SharedVec(None);
}

impl<T> Deref for SharedVec<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.0.as_deref().unwrap_or_default()
    }
}

impl<'a, T> IntoIterator for &'a SharedVec<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Clone> SharedVec<T> {
    /// Appends `x`.
    pub(crate) fn push(&mut self, x: T) {
        self.0 = Some(self.iter().cloned().chain([x]).collect());
    }

    /// The items for writing in place: copied first while another
    /// version holds them.
    pub(crate) fn make_mut(&mut self) -> &mut [T] {
        let Some(buf) = &mut self.0 else {
            return &mut [];
        };
        if Arc::get_mut(buf).is_none() {
            *buf = buf.iter().cloned().collect();
        }
        Arc::get_mut(buf).expect("copied above")
    }
}

/// Most items a [`SortedList`] leaf holds, and most leaves a branch
/// holds: a write copies one leaf, one branch's leaf table and the branch
/// table (one entry per `LEAF * BRANCH` items).
const LEAF: usize = 128;
const BRANCH: usize = 64;

/// A sorted multiset of small `Copy` items in two levels of `Arc`s —
/// branches of leaves of items — shared between versions leaf by leaf
/// and written by path copying. No leaf or branch is empty, and each one
/// sorts at or before the next.
#[derive(Debug)]
pub(crate) struct SortedList<T> {
    /// `None` while empty, so an empty list holds no allocation.
    branches: Option<Arc<Vec<Branch<T>>>>,
    len: usize,
}

/// A child of a level — a leaf's items or a branch's leaves — with its
/// last item beside the pointer, so a search reads no child it skips.
#[derive(Debug, Clone)]
struct Keyed<T, C> {
    last: T,
    child: Arc<Vec<C>>,
}

type Leaf<T> = Keyed<T, T>;
type Branch<T> = Keyed<T, Leaf<T>>;

impl<T: Copy> Leaf<T> {
    fn leaf(items: Vec<T>) -> Self {
        Keyed { last: *items.last().expect("a leaf is not empty"), child: Arc::new(items) }
    }
}

impl<T: Copy> Branch<T> {
    fn branch(leaves: Vec<Leaf<T>>) -> Self {
        Keyed { last: leaves.last().expect("a branch is not empty").last, child: Arc::new(leaves) }
    }
}

impl<T> Clone for SortedList<T> {
    fn clone(&self) -> Self {
        SortedList { branches: self.branches.clone(), len: self.len }
    }
}

impl<T> Default for SortedList<T> {
    fn default() -> Self {
        SortedList { branches: None, len: 0 }
    }
}

/// The first child of `level` whose last item is not below `x`: where an
/// item equal to `x` sits if one does, and where `x` goes (past the end
/// when every item is below it).
fn child_of<T: Ord, C>(level: &[Keyed<T, C>], x: &T) -> usize {
    level.partition_point(|child| child.last < *x)
}

/// Splits `level`, one past full, in two and returns the second half:
/// just its last child when the level grew at its end, so a list built
/// by appending fills its levels.
fn split<C>(level: &mut Vec<C>, at_end: bool, full: usize) -> Vec<C> {
    level.split_off(if at_end { full } else { full / 2 })
}

impl<T: Copy + Ord> SortedList<T> {
    /// The list of `items`, which are sorted, in full leaves and branches.
    pub(crate) fn from_sorted(items: Vec<T>) -> Self {
        debug_assert!(items.windows(2).all(|w| w[0] <= w[1]), "items are sorted");
        let leaves: Vec<Leaf<T>> = items.chunks(LEAF).map(|c| Leaf::leaf(c.to_vec())).collect();
        let branches = leaves.chunks(BRANCH).map(|c| Branch::branch(c.to_vec())).collect();
        SortedList { branches: Some(Arc::new(branches)), len: items.len() }
    }

    fn branches(&self) -> &[Branch<T>] {
        self.branches.as_deref().map_or(&[], Vec::as_slice)
    }

    /// Number of items.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The branch, leaf and index in the leaf of an item equal to `x`.
    fn find(&self, x: &T) -> Option<(usize, usize, usize)> {
        let b = child_of(self.branches(), x);
        let leaves = &self.branches().get(b)?.child;
        let l = child_of(leaves, x);
        let at = leaves.get(l)?.child.binary_search(x).ok()?;
        Some((b, l, at))
    }

    /// True if an item equal to `x` is listed.
    pub(crate) fn contains(&self, x: &T) -> bool {
        self.find(x).is_some()
    }

    /// Adds `x` (beside any equal items).
    pub(crate) fn insert(&mut self, x: T) {
        let b = child_of(self.branches(), &x);
        self.len += 1;
        let branches = Arc::make_mut(self.branches.get_or_insert_with(Arc::default));
        let Some(last_branch) = branches.len().checked_sub(1) else {
            branches.push(Branch::branch(vec![Leaf::leaf(vec![x])]));
            return;
        };
        let at_end = b > last_branch;
        let b = b.min(last_branch);
        let branch = &mut branches[b];
        let leaves = Arc::make_mut(&mut branch.child);
        let l = child_of(leaves, &x).min(leaves.len() - 1);
        let leaf = &mut leaves[l];
        let items = Arc::make_mut(&mut leaf.child);
        items.insert(items.partition_point(|y| *y < x), x);
        if items.len() > LEAF {
            let tail = split(items, at_end, LEAF);
            leaf.last = *items.last().expect("half a leaf stays");
            leaves.insert(l + 1, Leaf::leaf(tail));
        } else {
            leaf.last = *items.last().expect("an item was inserted");
        }
        if leaves.len() > BRANCH {
            let tail = split(leaves, at_end, BRANCH);
            branch.last = leaves.last().expect("half a branch stays").last;
            branches.insert(b + 1, Branch::branch(tail));
        } else {
            branch.last = leaves.last().expect("a leaf was written").last;
        }
    }

    /// Removes one item equal to `x`; false if none is listed.
    pub(crate) fn remove(&mut self, x: &T) -> bool {
        let Some((b, l, at)) = self.find(x) else {
            return false;
        };
        self.len -= 1;
        let branches = Arc::make_mut(self.branches.get_or_insert_with(Arc::default));
        let branch = &mut branches[b];
        let leaves = Arc::make_mut(&mut branch.child);
        let leaf = &mut leaves[l];
        let items = Arc::make_mut(&mut leaf.child);
        items.remove(at);
        match items.last() {
            Some(&last) => leaf.last = last,
            None => {
                leaves.remove(l);
            }
        }
        match leaves.last() {
            Some(leaf) => branch.last = leaf.last,
            None => {
                branches.remove(b);
            }
        }
        true
    }

    /// The items in order.
    pub(crate) fn iter(&self) -> ListIter<'_, T> {
        ListIter { cur: [].iter(), leaves: [].iter(), branches: self.branches().iter() }
    }

    /// The items not below `x`, in order.
    pub(crate) fn iter_from(&self, x: &T) -> ListIter<'_, T> {
        let b = child_of(self.branches(), x);
        let later = self.branches().get(b + 1..).unwrap_or_default().iter();
        let Some(branch) = self.branches().get(b) else {
            return ListIter::default();
        };
        let l = child_of(&branch.child, x);
        let leaf = &branch.child[l].child;
        let cur = leaf[leaf.partition_point(|y| y < x)..].iter();
        ListIter { cur, leaves: branch.child[l + 1..].iter(), branches: later }
    }
}

/// The items of a sorted list in order, by value — what
/// [`crate::Document::elements_named`] returns.
#[derive(Debug, Clone)]
pub struct ListIter<'a, T> {
    cur: std::slice::Iter<'a, T>,
    leaves: std::slice::Iter<'a, Leaf<T>>,
    branches: std::slice::Iter<'a, Branch<T>>,
}

impl<T> Default for ListIter<'_, T> {
    /// An iterator over no items.
    fn default() -> Self {
        ListIter { cur: [].iter(), leaves: [].iter(), branches: [].iter() }
    }
}

impl<T: Copy> Iterator for ListIter<'_, T> {
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        loop {
            if let Some(&x) = self.cur.next() {
                return Some(x);
            }
            match self.leaves.next() {
                Some(leaf) => self.cur = leaf.child.iter(),
                None => self.leaves = self.branches.next()?.child.iter(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves<T: Copy + Ord>(list: &SortedList<T>) -> impl Iterator<Item = &Leaf<T>> {
        list.branches().iter().flat_map(|branch| branch.child.iter())
    }

    /// Inserts and removes in every region of a list several branches
    /// long, duplicates included, against a sorted `Vec`; a clone taken
    /// before the edits keeps what it had, and one more write shares
    /// every leaf but the one it wrote.
    #[test]
    fn a_sorted_list_matches_a_sorted_vec_and_copies_only_what_it_writes() {
        const N: u32 = 20_000;
        let mut list = SortedList::from_sorted((0..N).map(|i| i * 4).collect());
        let mut model: Vec<u32> = list.iter().collect();
        let pinned = list.clone();
        let mut state = 7u64;
        for step in 0..N {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let x = (state >> 33) as u32 % (4 * N + 200);
            if step % 3 == 2 {
                let found = model.binary_search(&x).is_ok();
                assert_eq!(list.remove(&x), found, "remove {x}");
                if found {
                    model.remove(model.binary_search(&x).unwrap());
                }
            } else {
                list.insert(x);
                model.insert(model.partition_point(|&y| y < x), x);
            }
        }
        assert_eq!(list.len(), model.len());
        assert!(list.iter().eq(model.iter().copied()));
        assert!(list.branches().len() > 1);
        for branch in list.branches() {
            assert!(!branch.child.is_empty() && branch.child.len() <= BRANCH);
            assert_eq!(branch.child.last().map(|leaf| leaf.last), Some(branch.last));
        }
        for leaf in leaves(&list) {
            assert!(!leaf.child.is_empty() && leaf.child.len() <= LEAF);
            assert_eq!(leaf.child.last(), Some(&leaf.last));
        }
        for x in [0, 1, 2, 400, 2001, 4 * N - 1, 4 * N + 199, 4 * N + 200] {
            assert_eq!(list.contains(&x), model.binary_search(&x).is_ok(), "contains {x}");
            let from = model.partition_point(|&y| y < x);
            assert!(list.iter_from(&x).eq(model[from..].iter().copied()), "from {x}");
        }
        assert!(pinned.iter().eq((0..N).map(|i| i * 4)));
        let before = list.clone();
        list.insert(2 * N);
        let written = leaves(&list).filter(|l| !leaves(&before).any(|b| Arc::ptr_eq(&l.child, &b.child)));
        assert!(written.count() <= 2, "a write copies one leaf, or splits it in two");
    }

    /// A list built by appending fills its leaves and branches.
    #[test]
    fn appends_fill_leaves_and_branches() {
        let mut list = SortedList::default();
        for i in 0..(LEAF * BRANCH * 2) as u32 {
            list.insert(i);
        }
        assert_eq!((list.branches().len(), leaves(&list).count()), (2, 2 * BRANCH));
        assert!(SortedList::<u32>::default().iter().next().is_none());
    }
}
