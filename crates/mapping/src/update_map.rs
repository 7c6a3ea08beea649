//! XUpdate → parameterized update transaction (Section 4.1).
//!
//! The paper's example: inserting a new `sub` after
//! `/review/track[2]/rev[5]/sub[6]` corresponds to adding
//! `{sub(id3, 7, id_r, "Taming Web Services"), auts(id4, 2, id3, "Jack")}`.
//! Here the structure is abstracted into parameters — fresh node ids,
//! the target parent id, the data-dependent position and the PCDATA
//! values — producing exactly the update *pattern* that drives the
//! compile-time simplification (Example 6's
//! `U = {sub(is, ps, ir, t), auts(ia, pa, is, n)}`), together with the
//! concrete parameter bindings for this statement.
//!
//! A text update of one compacted column is a modification: its owner's
//! tuple is removed and added back under the same id with the new value
//! (Martinenghi's reading of a modification as a deletion plus an
//! insertion), so `auts/name` updated to "Jack" is
//! `{-auts(id, pos, parent, old), auts(id, pos, parent, "Jack")}`.

use crate::schema::RelSchema;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use xic_datalog::{Atom, Term, Update, Value};
use xic_xml::xupdate::{check_target, Fragment, FragmentKind, XUpdateDoc, XUpdateOp};
use xic_xml::{Document, NodeId, NodeKind, SelectError, SelectResolver};

/// A mapped update: the parameterized transaction, this statement's
/// parameter bindings, and which parameters denote fresh node ids.
#[derive(Debug, Clone)]
pub struct MappedUpdate {
    /// The update pattern (arguments are parameters or constants).
    pub update: Update,
    /// Concrete values for every parameter.
    pub bindings: HashMap<String, Value>,
    /// Parameters standing for newly allocated node identifiers.
    pub fresh_params: BTreeSet<String>,
    /// Parameters denoting node identifiers (targets, fresh ids and the
    /// owner a text update modifies) — the translator must render them as
    /// positional node paths, never as value literals.
    pub node_params: BTreeSet<String>,
    /// Predicate names of the existing element siblings a non-tail insert
    /// pushes one position on. Their `Pos + 1` is not part of `update`
    /// (it holds additions only), so a caller whose constraints read the
    /// `Pos` column of one of them must not trust the simplified check.
    /// Likewise the elements two operations of one statement insert under
    /// one parent: each operation is mapped against the pre-state, so the
    /// positions bound for them do not count each other. Empty for a
    /// single tail append.
    pub displaced: BTreeSet<String>,
    /// The node each operation's `select` resolved to on the mapped
    /// version, in statement order.
    pub targets: Vec<NodeId>,
}

/// Update mapping failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateMapError {
    /// The statement is neither insertions only nor one text update of a
    /// compacted column (a remove, a rename, a text update beside other
    /// operations or of anything else), so callers fall back to full
    /// checking.
    NotInsertion,
    /// A select expression matched zero or several nodes.
    Target(String),
    /// The inserted fragment does not fit the schema.
    Schema(String),
    /// A select ran out of the step budget armed around the call: a
    /// timeout, not a property of the statement.
    BudgetExhausted,
}

impl fmt::Display for UpdateMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateMapError::NotInsertion => f.write_str(
                "only insertions and one-cell text updates can be mapped to update patterns",
            ),
            UpdateMapError::Target(m) => write!(f, "target resolution: {m}"),
            UpdateMapError::Schema(m) => write!(f, "fragment/schema mismatch: {m}"),
            UpdateMapError::BudgetExhausted => SelectError::BudgetExhausted.fmt(f),
        }
    }
}

impl std::error::Error for UpdateMapError {}

/// Maps an XUpdate statement against the current document state.
pub fn map_update(
    doc: &Document,
    schema: &RelSchema,
    stmt: &XUpdateDoc,
    resolve: SelectResolver,
) -> Result<MappedUpdate, UpdateMapError> {
    if let [op @ XUpdateOp::Update { text, .. }] = stmt.ops.as_slice() {
        let target = resolve_one(doc, op, resolve)?;
        return map_text_update(doc, schema, target, text);
    }
    if !stmt.insertions_only() {
        return Err(UpdateMapError::NotInsertion);
    }
    let mut out = MappedUpdate::empty(stmt.ops.len());
    // Hypothetical fresh ids: strictly greater than every allocated id.
    let mut next_fresh = doc.node_count() as i64;
    let mut param_counter = 0usize;
    // Per parent, the predicate-named elements inserted under it so far.
    let mut inserted: HashMap<NodeId, BTreeSet<String>> = HashMap::new();

    for (k, op) in stmt.ops.iter().enumerate() {
        let target = &resolve_one(doc, op, resolve)?;
        out.targets.push(*target);
        let (parent, base_pos, content) = match op {
            XUpdateOp::InsertAfter { content, .. } => {
                let parent = doc
                    .node(*target)
                    .parent
                    .ok_or_else(|| UpdateMapError::Target("target has no parent".into()))?;
                let pos = doc
                    .element_position(*target)
                    .ok_or_else(|| UpdateMapError::Target("target is not an element".into()))?;
                (parent, pos + 1, content)
            }
            XUpdateOp::InsertBefore { content, .. } => {
                let parent = doc
                    .node(*target)
                    .parent
                    .ok_or_else(|| UpdateMapError::Target("target has no parent".into()))?;
                let pos = doc
                    .element_position(*target)
                    .ok_or_else(|| UpdateMapError::Target("target is not an element".into()))?;
                (parent, pos, content)
            }
            XUpdateOp::Append { content, child, .. } => {
                let pos = match child {
                    Some(c) => {
                        // Elements among the first `c` children.
                        doc.node(*target).children[..(*c).min(doc.node(*target).children.len())]
                            .iter()
                            .filter(|&&n| doc.name(n).is_some())
                            .count()
                            + 1
                    }
                    None => doc.element_children(*target).len() + 1,
                };
                (*target, pos, content)
            }
            _ => return Err(UpdateMapError::NotInsertion),
        };
        // The element children from position `base_pos` on move one up.
        let element_names = doc.node(parent).children.iter().filter_map(|&c| doc.name(c));
        out.displaced.extend(
            element_names
                .skip(base_pos - 1)
                .filter(|name| schema.pred(name).is_some())
                .map(str::to_string),
        );
        let earlier = inserted.entry(parent).or_default();
        let names = content.roots().filter_map(|r| content.name(r));
        let names = names.filter(|name| schema.pred(name).is_some()).map(str::to_string);
        let shared = !earlier.is_empty();
        earlier.extend(names);
        if shared {
            out.displaced.extend(earlier.iter().cloned());
        }

        // Target-parent parameter.
        let t_param = format!("t{k}");
        out.bindings
            .insert(t_param.clone(), Value::Int(i64::from(parent.0)));
        out.node_params.insert(t_param.clone());

        let mut pos_cursor = base_pos;
        for root in content.roots() {
            if content.name(root).is_none() {
                if content.text(root).trim().is_empty() {
                    continue;
                }
                return Err(UpdateMapError::Schema(
                    "top-level inserted content must be elements".to_string(),
                ));
            }
            // The root fragment's position is data-dependent: a parameter.
            let p_param = format!("p{param_counter}");
            param_counter += 1;
            out.bindings
                .insert(p_param.clone(), Value::Int(pos_cursor as i64));
            map_fragment(
                content,
                root,
                Term::param(t_param.clone()),
                Term::param(p_param),
                schema,
                &mut out,
                &mut next_fresh,
                &mut param_counter,
            )?;
            pos_cursor += 1;
        }
    }
    Ok(out)
}

impl MappedUpdate {
    fn empty(ops: usize) -> MappedUpdate {
        MappedUpdate {
            update: Update::default(),
            bindings: HashMap::new(),
            fresh_params: BTreeSet::new(),
            node_params: BTreeSet::new(),
            displaced: BTreeSet::new(),
            targets: Vec::with_capacity(ops),
        }
    }

    /// A parameter bound to `value`, named `prefix` + its index among the
    /// statement's parameters; a node parameter if `node`.
    fn param(&mut self, prefix: &str, value: Value, node: bool) -> Term {
        let name = format!("{prefix}{}", self.bindings.len());
        self.bindings.insert(name.clone(), value);
        if node {
            self.node_params.insert(name.clone());
        }
        Term::param(name)
    }
}

/// The one node `op`'s select resolves to, which `op` is defined for.
fn resolve_one(
    doc: &Document,
    op: &XUpdateOp,
    resolve: SelectResolver,
) -> Result<NodeId, UpdateMapError> {
    let targets = resolve(doc, op.select()).map_err(|e| match e {
        SelectError::BudgetExhausted => UpdateMapError::BudgetExhausted,
        SelectError::Other(m) => UpdateMapError::Target(m),
    })?;
    let [target] = targets.as_slice() else {
        return Err(UpdateMapError::Target(format!(
            "select {:?} matched {} nodes; patterns require exactly one",
            op.select(),
            targets.len()
        )));
    };
    // An operation the target does not allow is refused by `apply`;
    // mapped, it would be decided instead.
    check_target(doc, op, *target).map_err(|e| UpdateMapError::Target(e.to_string()))?;
    Ok(*target)
}

/// Maps a text update of `target` to the modification of one cell: the
/// removal of its owner's tuple and the addition of the same tuple —
/// same id, position and parent, the other columns' values — with `text`
/// in `target`'s column. The id is a node parameter, never a fresh one:
/// the tuple exists before the update and after it.
///
/// Every cell of that tuple must read in XQuery as it does in the
/// relational image, or the pre-update check would disagree with the
/// full check: `target` is a compacted element whose parent is the
/// predicate that compacts it, the only element of its name there, with
/// no element beneath it, and `text` is kept as one text node; each other
/// column is the only element of its name under the owner and holds one
/// text node and no element. Anything else is
/// [`UpdateMapError::NotInsertion`]: the statement takes the baseline.
fn map_text_update(
    doc: &Document,
    schema: &RelSchema,
    target: NodeId,
    text: &str,
) -> Result<MappedUpdate, UpdateMapError> {
    let column = doc.name(target).filter(|name| schema.is_compacted(name));
    let owner = doc.node(target).parent;
    let owner_name = owner.and_then(|o| doc.name(o));
    let info = owner_name.and_then(|name| schema.pred(name).map(|i| (name, i)));
    let (Some(column), Some(owner), Some((pred, info))) = (column, owner, info) else {
        return Err(UpdateMapError::NotInsertion);
    };
    let (Some(parent), Some(pos)) = (doc.node(owner).parent, doc.element_position(owner)) else {
        return Err(UpdateMapError::NotInsertion);
    };
    let held = doc.node(target).children.iter().any(|&c| doc.name(c).is_some());
    if held || text.trim().is_empty() || !info.cols.iter().any(|c| c == column) {
        return Err(UpdateMapError::NotInsertion);
    }
    let mut out = MappedUpdate::empty(1);
    out.targets.push(target);
    let id = out.param("n", Value::Int(i64::from(owner.0)), true);
    let pos = out.param("p", Value::Int(pos as i64), false);
    let parent = out.param("t", Value::Int(i64::from(parent.0)), true);
    let (mut old, mut new) = (vec![id.clone(), pos.clone(), parent.clone()], vec![id, pos, parent]);
    for col in &info.cols {
        let named = |&&c: &&NodeId| doc.name(c) == Some(col.as_str());
        let [cell] = doc.node(owner).children.iter().filter(named).collect::<Vec<_>>()[..] else {
            return Err(UpdateMapError::NotInsertion);
        };
        if col == column {
            old.push(out.param("v", Value::Str(doc.text_content(target)), false));
            new.push(out.param("v", Value::Str(text.to_string()), false));
        } else {
            let value = sole_text(doc, *cell).ok_or(UpdateMapError::NotInsertion)?;
            let shared = out.param("v", Value::Str(value.to_string()), false);
            old.push(shared.clone());
            new.push(shared);
        }
    }
    out.update = Update::modification(vec![Atom::new(pred, old)], vec![Atom::new(pred, new)]);
    Ok(out)
}

/// The text of an element that holds exactly one text node and no
/// element: the one value both the relational image and an XQuery
/// `text()` step read from it.
fn sole_text(doc: &Document, element: NodeId) -> Option<&str> {
    let mut texts = doc.node(element).children.iter().filter_map(|&c| match &doc.node(c).kind {
        NodeKind::Text(t) => Some(Some(&**t)),
        NodeKind::Element { .. } => Some(None),
        _ => None,
    });
    match (texts.next(), texts.next()) {
        (Some(Some(text)), None) => Some(text),
        _ => None,
    }
}

/// Maps the element `root` of `content` and, in document order, the
/// elements under it that are not compacted into a column, to addition
/// atoms, off an explicit stack. The element children's positions inside
/// the fragment are statically known constants.
#[allow(clippy::too_many_arguments)]
fn map_fragment(
    content: &Fragment,
    root: usize,
    parent: Term,
    pos: Term,
    schema: &RelSchema,
    out: &mut MappedUpdate,
    next_fresh: &mut i64,
    param_counter: &mut usize,
) -> Result<(), UpdateMapError> {
    let mut pending = vec![(root, parent, pos)];
    while let Some((at, parent, pos)) = pending.pop() {
        let name = content.name(at).expect("only elements are mapped");
        let Some(info) = schema.pred(name) else {
            return Err(UpdateMapError::Schema(format!(
                "inserted element <{name}> does not map to a predicate"
            )));
        };
        // Fresh id parameter.
        let id_param = format!("n{param_counter}");
        *param_counter += 1;
        out.bindings
            .insert(id_param.clone(), Value::Int(*next_fresh));
        *next_fresh += 1;
        out.fresh_params.insert(id_param.clone());
        out.node_params.insert(id_param.clone());

        // Column values from compacted children.
        let mut args: Vec<Term> = vec![Term::param(id_param.clone()), pos, parent];
        for col in &info.cols {
            let text = content
                .children(at)
                .find(|&c| content.name(c) == Some(col.as_str()))
                .map(|c| column_text(content, c))
                .ok_or_else(|| {
                    UpdateMapError::Schema(format!(
                        "<{name}> fragment is missing its <{col}> child"
                    ))
                })?;
            let v_param = format!("v{param_counter}");
            *param_counter += 1;
            out.bindings.insert(v_param.clone(), Value::Str(text));
            args.push(Term::param(v_param));
        }
        out.update
            .additions
            .push(Atom::new(name.to_string(), args));

        // The element children not compacted into a column, the first of
        // them on top.
        let elements = content.children(at).filter(|&c| content.name(c).is_some());
        let mapped = elements.zip(1i64..).filter(|&(c, _)| {
            !schema.is_compacted(content.name(c).expect("filtered to elements"))
        });
        let children: Vec<_> = mapped
            .map(|(c, elem_pos)| (c, Term::param(id_param.clone()), Term::int(elem_pos)))
            .collect();
        pending.extend(children.into_iter().rev());
    }
    Ok(())
}

/// The value of the column element `col`: its text children and the
/// values of its element children, read the same way, concatenated and
/// trimmed — each element's value is read before its parent's.
fn column_text(content: &Fragment, col: usize) -> String {
    let subtree = content.subtree(col);
    let mut values = vec![String::new(); subtree.len()];
    for at in subtree.rev() {
        if content.name(at).is_none() {
            continue;
        }
        let parts = content.children(at).map(|c| match &content.nodes()[c].kind {
            FragmentKind::Text(t) => t.as_str(),
            FragmentKind::Element { .. } => values[c - col].as_str(),
        });
        let value = parts.collect::<String>().trim().to_string();
        values[at - col] = value;
    }
    std::mem::take(&mut values[0])
}

/// A canonical key for the update's *shape*: removals (marked `-`), then
/// additions, parameters numbered by first occurrence, constants kept
/// verbatim. Two statements with equal
/// keys are instances of the same pattern and share a compiled check.
pub fn pattern_key(update: &Update) -> String {
    let mut names: HashMap<&str, usize> = HashMap::new();
    let mut out = String::new();
    let removals = update.removals.iter().map(|a| ("-", a));
    for (sign, a) in removals.chain(update.additions.iter().map(|a| ("", a))) {
        out.push_str(sign);
        out.push_str(&a.pred);
        out.push('(');
        for (i, t) in a.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match t {
                Term::Param(p) => {
                    let n = names.len();
                    let idx = *names.entry(p.as_str()).or_insert(n);
                    out.push_str(&format!("${idx}"));
                }
                Term::Const(_) | Term::Var(_) => out.push_str(&t.to_string()),
            }
        }
        out.push(')');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::paper_dtd;
    use xic_xml::{parse_document, NodeId};

    const CORPUS: &str = "<collection><dblp/>\
        <review>\
          <track><name>T1</name>\
            <rev><name>Ann</name>\
              <sub><title>S1</title><auts><name>Bob</name></auts></sub>\
            </rev>\
          </track>\
          <track><name>T2</name>\
            <rev><name>Cat</name>\
              <sub><title>S2</title><auts><name>Dan</name></auts></sub>\
              <sub><title>S3</title><auts><name>Eve</name></auts></sub>\
            </rev>\
          </track>\
        </review></collection>";

    fn resolver(doc: &Document, select: &str) -> Result<Vec<NodeId>, SelectError> {
        let other = |e: &dyn fmt::Display| SelectError::Other(e.to_string());
        let expr = xic_xpath::parse(select).map_err(|e| other(&e))?;
        let ctx = xic_xpath::Context::root(doc);
        let nodes = xic_xpath::evaluate_nodes(&expr, &ctx).map_err(|e| other(&e))?;
        Ok(nodes
            .into_iter()
            .filter_map(|n| match n {
                xic_xpath::NodeRef::Node(id) => Some(id),
                xic_xpath::NodeRef::Attr { .. } => None,
            })
            .collect())
    }

    const PAPER_STMT: &str = r#"<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
      <xupdate:insert-after select="/collection/review/track[2]/rev[1]/sub[2]">
        <xupdate:element name="sub">
          <title>Taming Web Services</title>
          <auts><name>Jack</name></auts>
        </xupdate:element>
      </xupdate:insert-after>
    </xupdate:modifications>"#;

    #[test]
    fn maps_paper_statement() {
        let (doc, _) = parse_document(CORPUS).unwrap();
        let schema = RelSchema::from_dtd(&paper_dtd()).unwrap();
        let stmt = XUpdateDoc::parse(PAPER_STMT).unwrap();
        let m = map_update(&doc, &schema, &stmt, &resolver).unwrap();
        // Shape: {sub($n, $p, $t, $v), auts($n2, 2, $n, $v2)}.
        assert_eq!(m.update.additions.len(), 2);
        let s = m.update.to_string();
        assert!(s.starts_with("{sub($"), "{s}");
        assert!(s.contains("auts($"), "{s}");
        // The nested auts position is the constant 2 (after title).
        let auts = &m.update.additions[1];
        assert_eq!(auts.args[1], Term::int(2));
        // auts' parent is sub's fresh id parameter.
        assert_eq!(auts.args[2], m.update.additions[0].args[0]);
        // Fresh ids: the two new element ids.
        assert_eq!(m.fresh_params.len(), 2);
        // Bindings: position of the new sub is 4 (title, sub, sub, NEW).
        let p = m.update.additions[0].args[1].clone();
        let Term::Param(pname) = p else { panic!("{p:?}") };
        assert_eq!(m.bindings[&pname], Value::Int(4));
        // Value binding carries the title text.
        let v = m.update.additions[0].args[3].clone();
        let Term::Param(vname) = v else { panic!("{v:?}") };
        assert_eq!(m.bindings[&vname], Value::from("Taming Web Services"));
        // Fresh ids are beyond every allocated node id.
        for f in &m.fresh_params {
            assert!(m.bindings[f].as_int().unwrap() >= doc.node_count() as i64);
        }
    }

    #[test]
    fn pattern_keys_group_statements() {
        let (doc, _) = parse_document(CORPUS).unwrap();
        let schema = RelSchema::from_dtd(&paper_dtd()).unwrap();
        let stmt1 = XUpdateDoc::parse(PAPER_STMT).unwrap();
        let stmt2 = XUpdateDoc::parse(
            r#"<xupdate:modifications xmlns:xupdate="x">
              <xupdate:insert-before select="/collection/review/track[1]/rev[1]/sub[1]">
                <sub><title>Other</title><auts><name>Mia</name></auts></sub>
              </xupdate:insert-before>
            </xupdate:modifications>"#,
        )
        .unwrap();
        let m1 = map_update(&doc, &schema, &stmt1, &resolver).unwrap();
        let m2 = map_update(&doc, &schema, &stmt2, &resolver).unwrap();
        assert_eq!(pattern_key(&m1.update), pattern_key(&m2.update));
        // Behind the last `sub` nothing moves; in front of the first, it does.
        assert!(m1.displaced.is_empty(), "{:?}", m1.displaced);
        assert_eq!(m2.displaced.iter().collect::<Vec<_>>(), ["sub"]);
        // A two-author submission is a different pattern.
        let stmt3 = XUpdateDoc::parse(
            r#"<xupdate:modifications xmlns:xupdate="x">
              <xupdate:insert-before select="/collection/review/track[1]/rev[1]/sub[1]">
                <sub><title>Duo</title><auts><name>A</name></auts><auts><name>B</name></auts></sub>
              </xupdate:insert-before>
            </xupdate:modifications>"#,
        )
        .unwrap();
        let m3 = map_update(&doc, &schema, &stmt3, &resolver).unwrap();
        assert_ne!(pattern_key(&m1.update), pattern_key(&m3.update));
        assert_eq!(m3.update.additions.len(), 3);
    }

    #[test]
    fn append_maps_to_trailing_position() {
        let (doc, _) = parse_document(CORPUS).unwrap();
        let schema = RelSchema::from_dtd(&paper_dtd()).unwrap();
        let stmt = XUpdateDoc::parse(
            r#"<xupdate:modifications xmlns:xupdate="x">
              <xupdate:append select="/collection/review/track[1]/rev[1]">
                <sub><title>New</title><auts><name>Zed</name></auts></sub>
              </xupdate:append>
            </xupdate:modifications>"#,
        )
        .unwrap();
        let m = map_update(&doc, &schema, &stmt, &resolver).unwrap();
        let p = m.update.additions[0].args[1].clone();
        let Term::Param(pname) = p else { panic!() };
        // rev has name + sub: appended sub gets element position 3.
        assert_eq!(m.bindings[&pname], Value::Int(3));
        // The target-parent parameter binds to the rev itself.
        let t = m.update.additions[0].args[2].clone();
        let Term::Param(tname) = t else { panic!() };
        let rev_id = m.bindings[&tname].as_int().unwrap();
        assert_eq!(doc.name(NodeId(u32::try_from(rev_id).unwrap())), Some("rev"));
    }

    #[test]
    fn non_insertions_rejected() {
        let (doc, _) = parse_document(CORPUS).unwrap();
        let schema = RelSchema::from_dtd(&paper_dtd()).unwrap();
        let stmt = XUpdateDoc::parse(
            r#"<xupdate:modifications xmlns:xupdate="x">
              <xupdate:remove select="//sub[1]"/>
            </xupdate:modifications>"#,
        )
        .unwrap();
        assert_eq!(
            map_update(&doc, &schema, &stmt, &resolver).unwrap_err(),
            UpdateMapError::NotInsertion
        );
    }

    #[test]
    fn multi_target_select_rejected() {
        let (doc, _) = parse_document(CORPUS).unwrap();
        let schema = RelSchema::from_dtd(&paper_dtd()).unwrap();
        let stmt = XUpdateDoc::parse(
            r#"<xupdate:modifications xmlns:xupdate="x">
              <xupdate:insert-after select="//sub">
                <sub><title>X</title><auts><name>Y</name></auts></sub>
              </xupdate:insert-after>
            </xupdate:modifications>"#,
        )
        .unwrap();
        assert!(matches!(
            map_update(&doc, &schema, &stmt, &resolver),
            Err(UpdateMapError::Target(_))
        ));
    }

    #[test]
    fn fragment_missing_compacted_child_rejected() {
        let (doc, _) = parse_document(CORPUS).unwrap();
        let schema = RelSchema::from_dtd(&paper_dtd()).unwrap();
        let stmt = XUpdateDoc::parse(
            r#"<xupdate:modifications xmlns:xupdate="x">
              <xupdate:append select="/collection/review/track[1]/rev[1]">
                <sub><auts><name>Zed</name></auts></sub>
              </xupdate:append>
            </xupdate:modifications>"#,
        )
        .unwrap();
        let err = map_update(&doc, &schema, &stmt, &resolver).unwrap_err();
        assert!(matches!(err, UpdateMapError::Schema(m) if m.contains("title")));
    }

    fn text_update(select: &str, text: &str) -> XUpdateDoc {
        XUpdateDoc::parse(&format!(
            r#"<xupdate:modifications xmlns:xupdate="x"><xupdate:update select="{select}">{text}</xupdate:update></xupdate:modifications>"#
        ))
        .unwrap()
    }

    #[test]
    fn a_text_update_of_a_column_is_one_modified_cell() {
        let (doc, _) = parse_document(CORPUS).unwrap();
        let schema = RelSchema::from_dtd(&paper_dtd()).unwrap();
        let stmt = text_update("/collection/review/track[2]/rev[1]/sub[2]/auts[1]/name", "Zoe");
        let m = map_update(&doc, &schema, &stmt, &resolver).unwrap();
        assert_eq!(pattern_key(&m.update), "-auts($0,$1,$2,$3)auts($0,$1,$2,$4)");
        let g = m.update.instantiate(&m.bindings).unwrap();
        assert_eq!(g.removals[0].args[3], Term::Const(Value::from("Eve")));
        assert_eq!(g.additions[0].args[3], Term::Const(Value::from("Zoe")));
        // The owner exists before and after: a node parameter, not fresh.
        assert!(m.fresh_params.is_empty());
        let [Term::Param(id), _, Term::Param(parent), ..] = &m.update.additions[0].args[..] else {
            panic!("{}", m.update)
        };
        assert_eq!(m.node_params, BTreeSet::from([id.clone(), parent.clone()]));
        let owner = NodeId(u32::try_from(m.bindings[id].as_int().unwrap()).unwrap());
        assert_eq!(doc.name(owner), Some("auts"));
        assert!(m.displaced.is_empty());
    }

    #[test]
    fn other_text_updates_are_not_mapped() {
        let (doc, _) = parse_document(CORPUS).unwrap();
        let schema = RelSchema::from_dtd(&paper_dtd()).unwrap();
        let name = "/collection/review/track[1]/rev[1]/name";
        let refused = [
            // A predicate's element: its children go, not one cell.
            text_update("/collection/review/track[1]/rev[1]/sub[1]", "x"),
            // No text node would hold the value.
            text_update(name, " "),
        ];
        for stmt in refused {
            let err = map_update(&doc, &schema, &stmt, &resolver).unwrap_err();
            assert_eq!(err, UpdateMapError::NotInsertion, "{stmt:?}");
        }
        let mut two = text_update(name, "A");
        two.ops.push(text_update(name, "B").ops.remove(0));
        assert_eq!(map_update(&doc, &schema, &two, &resolver).unwrap_err(), UpdateMapError::NotInsertion);
        // A second `name` under the rev (the document left its DTD): the
        // column no longer reads as one value.
        let (doubled, _) = parse_document(&CORPUS.replace("<name>Ann</name>", "<name>Ann</name><name>Al</name>")).unwrap();
        let stmt = text_update("/collection/review/track[1]/rev[1]/name[1]", "Bo");
        assert_eq!(map_update(&doubled, &schema, &stmt, &resolver).unwrap_err(), UpdateMapError::NotInsertion);
    }
}
