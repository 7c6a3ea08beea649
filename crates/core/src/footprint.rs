//! Statement-level write footprints for the static independence analysis,
//! read off the applied delta.
//!
//! Both callers of the live-constraint mask apply a statement before they
//! check it, so what the statement inserted, removed and renamed is
//! already in hand as the [`AppliedUpdate`]'s undo log.
//! [`IndependenceIndex::delta_footprint`] maps that log to the relational
//! cells the statement wrote, using only the two maps the relational
//! schema yields (which element names are predicates, which predicate
//! column stores which compacted element's text).  Intersecting the
//! result with the per-constraint read footprints from
//! `xic_simplify::footprint` yields the live-constraint mask consulted by
//! the checker's full-check paths. The log tells a removal from an
//! insertion, so a relation the statement only deleted from keeps live
//! only the constraints that fewer tuples could violate.
//!
//! Nothing is predicted.  Names are those of the nodes the log points at
//! (a removed subtree stays intact while detached), parents and following
//! siblings are the ones the document actually has, so the footprint
//! reads neither the statement's `select` text nor the DTD, and holds on
//! a document that no longer conforms to it.  It is complete because the
//! undo log is: a change `apply` made without logging would survive
//! `undo`, which the rollback-fidelity oracle of `xic-difftest` checks on
//! every case.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use xic_mapping::RelSchema;
use xic_simplify::{WriteFootprint, WriteSet};
use xic_xml::{AppliedUpdate, Document, NodeId, NodeKind, UndoEntry};

/// The relational ownership maps backing write-footprint extraction.
/// Built once per compiled Γ from the relational schema alone.
#[derive(Debug, Clone)]
pub struct IndependenceIndex {
    /// Element names that have their own predicate → its data columns.
    preds: BTreeMap<String, Range<usize>>,
    /// Compacted element name → (owning predicate, column index) pairs.
    owners: BTreeMap<String, BTreeSet<(String, usize)>>,
}

impl IndependenceIndex {
    /// Builds the index from a relational schema.
    pub fn new(schema: &RelSchema) -> IndependenceIndex {
        let mut preds = BTreeMap::new();
        let mut owners: BTreeMap<String, BTreeSet<(String, usize)>> = BTreeMap::new();
        for (name, info) in schema.preds() {
            preds.insert(
                name.to_string(),
                info.arity() - info.cols.len()..info.arity(),
            );
            for col in &info.cols {
                let index = info.col_index(col).expect("a predicate's own column");
                owners
                    .entry(col.clone())
                    .or_default()
                    .insert((name.to_string(), index));
            }
        }
        IndependenceIndex { preds, owners }
    }

    /// The relational cells the statement behind `applied` wrote, read off
    /// its log against `doc`, the version the apply produced.
    ///
    /// * An inserted **element** writes, for every element name in its
    ///   subtree, the name's tuple membership and the columns that compact
    ///   it. A removed one only deletes: the predicates in its subtree go
    ///   to [`WriteSet::removed`], a compacted element whose parent in the
    ///   subtree is a predicate left with that tuple and writes nothing,
    ///   and any other compacted element (the removed root itself, say)
    ///   writes the columns that compact it, since a surviving owner's
    ///   value changed. Either way the element displaces the element
    ///   siblings that follow it under its parent (for a removal: the
    ///   children from its old index on), shifting the `Pos` of those that
    ///   are predicates.
    /// * An inserted or removed **text** node changes the value stored
    ///   for its parent's name.
    /// * A **rename** writes both for both names: tuples move between
    ///   relations and the element's text changes owners. Node ids,
    ///   positions and parent links are unchanged.
    ///
    /// Multi-op statements need no rule of their own. Insertion and
    /// removal keep the relative order of the siblings that survive, so a
    /// sibling displaced by one op is still behind that op's position in
    /// the final child list unless a later op removed something before
    /// it — and then that op's entry covers it; a sibling a later op
    /// removed or renamed is in the log itself, so its name is already
    /// written. A name one op inserts and another removes ends up in
    /// `existence` ([`WriteSet::settle`]). Any other node kind (comment,
    /// processing instruction) is not classified: [`WriteFootprint::All`].
    pub fn delta_footprint(&self, doc: &Document, applied: &AppliedUpdate) -> WriteFootprint {
        let mut ws = WriteSet::default();
        for entry in applied.log() {
            let classified = match entry {
                UndoEntry::Detach(node) => {
                    // Inserted, and still where it was put unless a later
                    // op of the statement removed it again.
                    let parent = doc.node(*node).parent;
                    let after = parent
                        .and_then(|p| doc.node(p).children.iter().position(|c| c == node))
                        .map_or(0, |i| i + 1);
                    self.node_delta(doc, *node, parent, after, false, &mut ws)
                }
                UndoEntry::Reattach {
                    parent,
                    index,
                    node,
                } => self.node_delta(doc, *node, Some(*parent), *index, true, &mut ws),
                UndoEntry::Rename { node, old } => doc.name(*node).map(|new| {
                    for name in [old.as_str(), new] {
                        self.membership(name, &mut ws);
                        self.value(doc, name, doc.node(*node).parent, &mut ws);
                    }
                }),
            };
            if classified.is_none() {
                return WriteFootprint::All;
            }
        }
        ws.settle();
        WriteFootprint::Cells(ws)
    }

    /// `node` was inserted under, or (`removed`) removed from, `parent`,
    /// displacing the children of `parent` from child index `from` on.
    /// `None` for a node kind with no relational reading.
    fn node_delta(
        &self,
        doc: &Document,
        node: NodeId,
        parent: Option<NodeId>,
        from: usize,
        removed: bool,
        ws: &mut WriteSet,
    ) -> Option<()> {
        match doc.node(node).kind {
            NodeKind::Element { .. } => {
                if removed {
                    self.removal(doc, node, parent, ws);
                } else {
                    let names: BTreeSet<&str> = std::iter::once(node)
                        .chain(doc.descendants(node))
                        .filter_map(|n| doc.name(n))
                        .collect();
                    for name in names {
                        self.membership(name, ws);
                    }
                }
                let siblings = parent.map_or(&[][..], |p| &doc.node(p).children);
                for name in siblings.iter().skip(from).filter_map(|&s| doc.name(s)) {
                    if self.preds.contains_key(name) && !ws.pos_shift.contains(name) {
                        ws.pos_shift.insert(name.to_string());
                    }
                }
                Some(())
            }
            NodeKind::Text(_) => {
                if let Some((element, name)) = parent.and_then(|p| Some((p, doc.name(p)?))) {
                    self.value(doc, name, doc.node(element).parent, ws);
                }
                Some(())
            }
            _ => None,
        }
    }

    /// The detached subtree under `root` left `parent`: its tuples were
    /// deleted, and a compacted element outside any of them changed its
    /// owner's value.
    fn removal(&self, doc: &Document, root: NodeId, parent: Option<NodeId>, ws: &mut WriteSet) {
        for n in std::iter::once(root).chain(doc.descendants(root)) {
            let Some(name) = doc.name(n) else { continue };
            if self.preds.contains_key(name) && !ws.removed.contains(name) {
                ws.removed.insert(name.to_string());
            }
            let above = if n == root { parent } else { doc.node(n).parent };
            let above_name = above.and_then(|p| doc.name(p));
            let in_tuple = n != root && above_name.is_some_and(|p| self.preds.contains_key(p));
            if !in_tuple {
                self.owner_cells(doc, name, above, ws);
            }
        }
    }

    /// The columns storing the text of an element called `name` under
    /// `parent`: the one of `parent`'s own tuple when `parent` is a
    /// predicate that compacts `name` (no other tuple reads that
    /// element), every column that compacts the name otherwise.
    fn owner_cells(&self, doc: &Document, name: &str, parent: Option<NodeId>, ws: &mut WriteSet) {
        let owners = self.owners.get(name).into_iter().flatten();
        let parent = parent.and_then(|p| doc.name(p));
        match owners.clone().find(|(owner, _)| Some(owner.as_str()) == parent) {
            Some(cell) => {
                ws.cells.insert(cell.clone());
            }
            None => ws.cells.extend(owners.cloned()),
        }
    }

    /// Elements called `name` appeared or vanished: its tuples, if it is
    /// a predicate, and the value it compacts into its owners' columns.
    fn membership(&self, name: &str, ws: &mut WriteSet) {
        if self.preds.contains_key(name) {
            ws.existence.insert(name.to_string());
        }
        ws.cells
            .extend(self.owners.get(name).into_iter().flatten().cloned());
    }

    /// The content of a surviving element called `name` under `parent`
    /// changed: the columns that compact it (see
    /// [`IndependenceIndex::owner_cells`]) and, if it is a predicate,
    /// every data column of its own tuple.
    fn value(&self, doc: &Document, name: &str, parent: Option<NodeId>, ws: &mut WriteSet) {
        self.owner_cells(doc, name, parent, ws);
        if let Some(cols) = self.preds.get(name) {
            ws.cells.extend(cols.clone().map(|c| (name.to_string(), c)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolver::xpath_resolver;
    use xic_xml::{apply, parse_document, Dtd, XUpdateDoc};

    const DTD: &str = r#"
<!ELEMENT db (region*, misc?)>
<!ELEMENT region (name, item*)>
<!ELEMENT item (name, qty)>
<!ELEMENT misc (note*)>
<!ELEMENT note (#PCDATA)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT qty (#PCDATA)>
"#;

    const DOC: &str = "<db>\
        <region><name>r1</name>\
          <item><name>a</name><qty>1</qty></item><item><name>b</name><qty>2</qty></item>\
        </region>\
        <region><name>r2</name></region>\
        <misc><note>n</note></misc></db>";

    fn setup(dtd: &str, xml: &str) -> (IndependenceIndex, Document) {
        let dtd = Dtd::parse(dtd).expect("test DTD parses");
        let schema = RelSchema::from_dtd(&dtd).expect("schema derives");
        let (doc, _) = parse_document(xml).expect("test document parses");
        (IndependenceIndex::new(&schema), doc)
    }

    /// Applies the single operation `op` to `doc` (and leaves it applied)
    /// and returns the footprint read off its log.
    fn applied_footprint(idx: &IndependenceIndex, doc: &mut Document, op: &str) -> WriteFootprint {
        let stmt = XUpdateDoc::parse(&format!(
            r#"<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">{op}</xupdate:modifications>"#
        ))
        .expect("test statement parses");
        let applied = apply(doc, &stmt, &xpath_resolver).expect("test statement applies");
        idx.delta_footprint(doc, &applied)
    }

    fn cells(fp: WriteFootprint) -> WriteSet {
        match fp {
            WriteFootprint::Cells(ws) => ws,
            WriteFootprint::All => panic!("expected a bounded footprint"),
        }
    }

    fn names(set: &BTreeSet<String>) -> Vec<&str> {
        set.iter().map(String::as_str).collect()
    }

    #[test]
    fn append_at_end_has_no_pos_shift() {
        let (idx, mut doc) = setup(DTD, DOC);
        let ws = cells(applied_footprint(
            &idx,
            &mut doc,
            r#"<xupdate:append select="/db/region[1]"><item><name>n</name><qty>1</qty></item></xupdate:append>"#,
        ));
        assert_eq!(names(&ws.existence), ["item"]);
        assert!(ws.pos_shift.is_empty());
        // The new item's compacted children are values of item columns.
        assert!(ws.cells.contains(&("item".to_string(), 3)));
        assert!(ws.cells.contains(&("item".to_string(), 4)));
    }

    #[test]
    fn positional_append_shifts_only_the_following_siblings() {
        let (idx, mut doc) = setup(DTD, DOC);
        // Lands between the second region and misc: the regions before it
        // keep their positions.
        let ws = cells(applied_footprint(
            &idx,
            &mut doc,
            r#"<xupdate:append select="/db" child="2"><region><name>r3</name></region></xupdate:append>"#,
        ));
        assert_eq!(names(&ws.existence), ["region"]);
        assert_eq!(names(&ws.pos_shift), ["misc"]);
    }

    #[test]
    fn remove_writes_the_names_in_the_removed_subtree() {
        let (idx, mut doc) = setup(DTD, DOC);
        let ws = cells(applied_footprint(
            &idx,
            &mut doc,
            r#"<xupdate:remove select="/db/region[1]"/>"#,
        ));
        assert_eq!(names(&ws.removed), ["item", "region"]);
        assert!(ws.existence.is_empty(), "a removal adds no tuple");
        assert!(ws.cells.is_empty(), "every name and qty left with its tuple");
        assert_eq!(names(&ws.pos_shift), ["misc", "region"]);
    }

    #[test]
    fn rename_touches_only_its_two_names() {
        let (idx, mut doc) = setup(DTD, DOC);
        let ws = cells(applied_footprint(
            &idx,
            &mut doc,
            r#"<xupdate:rename select="/db/misc/note">name</xupdate:rename>"#,
        ));
        assert_eq!(names(&ws.existence), ["note"]);
        assert!(ws.pos_shift.is_empty());
    }

    #[test]
    fn removing_a_non_conforming_subtree_writes_what_is_in_it() {
        // The case nesting trust existed for: no DTD path leads from
        // `region` to `note`, but a committed rename put one there. The
        // names are read off the detached subtree, so it is seen.
        let (idx, mut doc) = setup(DTD, DOC);
        applied_footprint(
            &idx,
            &mut doc,
            r#"<xupdate:rename select="/db/region[1]/item[1]">note</xupdate:rename>"#,
        );
        let ws = cells(applied_footprint(
            &idx,
            &mut doc,
            r#"<xupdate:remove select="/db/region[1]"/>"#,
        ));
        assert_eq!(names(&ws.removed), ["item", "note", "region"]);
    }

    #[test]
    fn union_select_writes_every_operand() {
        let (idx, mut doc) = setup(DTD, DOC);
        let ws = cells(applied_footprint(
            &idx,
            &mut doc,
            r#"<xupdate:remove select="/db/region[1]/item[1] | /db/misc/note[1]"/>"#,
        ));
        assert_eq!(names(&ws.removed), ["item", "note"]);
    }

    #[test]
    fn update_on_recursive_element_covers_nested_same_name_tuples() {
        // Under `<!ELEMENT part (name, part*)>`, updating a `part` node
        // replaces its content with text — deleting nested `part`
        // subtrees. The target's own tuple survives, but same-name tuples
        // *below* it do not: they are in the detached subtrees.
        let (idx, mut doc) = setup(
            "<!ELEMENT db (part*)>\n<!ELEMENT part (name, part*)>\n<!ELEMENT name (#PCDATA)>",
            "<db><part><name>a</name><part><name>b</name></part></part></db>",
        );
        let ws = cells(applied_footprint(
            &idx,
            &mut doc,
            r#"<xupdate:update select="/db/part">zzz</xupdate:update>"#,
        ));
        assert_eq!(names(&ws.removed), ["part"]);
        assert!(ws.existence.is_empty());
        assert!(ws.cells.contains(&("part".to_string(), 3)));
        assert!(
            ws.pos_shift.is_empty(),
            "every sibling of the removed children went with them"
        );
    }

    #[test]
    fn descendant_select_shifts_the_siblings_it_finds() {
        let (idx, mut doc) = setup(DTD, DOC);
        // `//name` matches under region and under item; the items that
        // follow a removed region name move up.
        let ws = cells(applied_footprint(
            &idx,
            &mut doc,
            r#"<xupdate:remove select="//name"/>"#,
        ));
        assert_eq!(names(&ws.pos_shift), ["item"]);
        assert!(
            ws.existence.is_empty() && ws.removed.is_empty(),
            "name is compacted, not a predicate"
        );
        assert!(ws.cells.contains(&("region".to_string(), 3)));
    }

    const PAPER_DTD: &str = "<!ELEMENT collection (dblp, review)>\n<!ELEMENT dblp (pub)*>\n\
        <!ELEMENT pub (title, aut+)>\n<!ELEMENT aut (name)>\n\
        <!ELEMENT review (track)+>\n<!ELEMENT track (name,rev+)>\n\
        <!ELEMENT rev (name, sub+)>\n<!ELEMENT sub (title, auts+)>\n\
        <!ELEMENT title (#PCDATA)>\n<!ELEMENT auts (name)>\n<!ELEMENT name (#PCDATA)>";

    const PAPER_DOC: &str = "<collection><dblp><pub><title>P</title><aut><name>ann</name></aut></pub></dblp>\
        <review><track><name>T</name><rev><name>bob</name>\
          <sub><title>S1</title><auts><name>cat</name></auts></sub>\
          <sub><title>S2</title><auts><name>dan</name></auts><auts><name>eve</name></auts></sub>\
        </rev></track></review></collection>";

    #[test]
    fn removing_a_sub_only_deletes_tuples() {
        let (idx, mut doc) = setup(PAPER_DTD, PAPER_DOC);
        let ws = cells(applied_footprint(
            &idx,
            &mut doc,
            r#"<xupdate:remove select="/collection/review/track[1]/rev[1]/sub[2]"/>"#,
        ));
        assert_eq!(names(&ws.removed), ["auts", "sub"]);
        assert!(ws.existence.is_empty());
        assert!(ws.cells.is_empty(), "title and the names left with their tuples: {ws:?}");
    }

    #[test]
    fn removing_a_compacted_child_writes_its_owners_value() {
        let (idx, mut doc) = setup(PAPER_DTD, PAPER_DOC);
        let ws = cells(applied_footprint(
            &idx,
            &mut doc,
            r#"<xupdate:remove select="/collection/review/track[1]/rev[1]/name"/>"#,
        ));
        assert!(ws.removed.is_empty() && ws.existence.is_empty());
        assert!(ws.cells.contains(&("rev".to_string(), 3)), "{ws:?}");
    }

    #[test]
    fn inserting_and_removing_one_name_is_existence() {
        let (idx, mut doc) = setup(PAPER_DTD, PAPER_DOC);
        let ws = cells(applied_footprint(
            &idx,
            &mut doc,
            r#"<xupdate:append select="/collection/review/track[1]/rev[1]"><sub><title>N</title><auts><name>fay</name></auts></sub></xupdate:append><xupdate:remove select="/collection/review/track[1]/rev[1]/sub[1]"/>"#,
        ));
        assert_eq!(names(&ws.existence), ["auts", "sub"]);
        assert!(ws.removed.is_empty(), "{ws:?}");
    }

    #[test]
    fn text_update_writes_the_value_of_its_parent() {
        let (idx, mut doc) = setup(DTD, DOC);
        let ws = cells(applied_footprint(
            &idx,
            &mut doc,
            r#"<xupdate:update select="/db/region[1]/item[2]/qty">9</xupdate:update>"#,
        ));
        assert!(ws.existence.is_empty() && ws.pos_shift.is_empty());
        assert_eq!(ws.cells, BTreeSet::from([("item".to_string(), 4)]));
    }

    #[test]
    fn unclassified_node_kind_falls_back_to_all() {
        let (idx, mut doc) = setup(DTD, "<db><!--c--><misc/></db>");
        let fp = applied_footprint(
            &idx,
            &mut doc,
            r#"<xupdate:remove select="/db/comment()"/>"#,
        );
        assert_eq!(fp, WriteFootprint::All);
    }
}
