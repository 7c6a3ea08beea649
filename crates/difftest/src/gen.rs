//! Random-schema generators for "random"-mode cases: DTDs, documents
//! guided by the content models' Glushkov automata, XPathLog denials the
//! initial document satisfies, and XUpdate statements over the generated
//! tree.
//!
//! Element names form a DAG (`e0` may only reference higher-numbered
//! elements), so documents are finite by construction; repetition is
//! bounded by the Glushkov walk's stop bias plus a distance-to-accept
//! escape that steers runaway walks to the nearest accepting position.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use xic_xml::{ContentModel, Document, Dtd, NodeId};
use xicheck::{Checker, RelSchema};

/// Text values the document and `update` operations draw from.
/// `"forbidden"` is the literal the value constraints deny, so a fair
/// share of generated cases actually exercise violations.
pub const TEXT_POOL: &[&str] = &["alpha", "beta", "gamma", "delta", "forbidden", "k1", "k2"];

/// A literal the generators never emit — the fallback constraint denies
/// it, which keeps the constraint machinery engaged without ever firing.
pub const NEVER_TEXT: &str = "xx-never";

/// A generated schema plus the handles the constraint and statement
/// generators need.
#[derive(Debug, Clone)]
pub struct Schema {
    /// The DTD as `<!ELEMENT …>` declarations.
    pub dtd_text: String,
    /// The parsed DTD.
    pub dtd: Dtd,
    /// Root element name (always `e0`).
    pub root: String,
    /// All element names, declaration order.
    pub names: Vec<String>,
    /// `(parent, pcdata-child)` pairs whose shapes the relational mapping
    /// accepts in value denials (`//p/c/text() -> V`).
    pub value_pairs: Vec<(String, String)>,
    /// `(parent, child)` pairs where the child may repeat and both sides
    /// have their own relational predicate (usable in `cnt` denials).
    pub many_pairs: Vec<(String, String)>,
}

/// Draws a random schema. Retries internally until the relational mapping
/// accepts the DTD and at least one value-constraint pair exists; falls
/// back to a small fixed schema if 32 attempts fail (never observed, but
/// the generator must be total).
pub fn random_schema(rng: &mut StdRng) -> Schema {
    for _ in 0..32 {
        if let Some(s) = try_schema(rng) {
            return s;
        }
    }
    fallback_schema()
}

fn fallback_schema() -> Schema {
    let dtd_text = "<!ELEMENT e0 (e1)*>\n<!ELEMENT e1 (e2, e3?)>\n\
                    <!ELEMENT e2 (#PCDATA)>\n<!ELEMENT e3 (#PCDATA)>"
        .to_string();
    let dtd = Dtd::parse(&dtd_text).expect("fallback dtd parses");
    Schema {
        dtd_text,
        dtd,
        root: "e0".to_string(),
        names: vec!["e0".into(), "e1".into(), "e2".into(), "e3".into()],
        value_pairs: vec![("e1".into(), "e2".into())],
        many_pairs: Vec::new(),
    }
}

fn try_schema(rng: &mut StdRng) -> Option<Schema> {
    let n: usize = 4 + rng.gen_range(0..4);
    let names: Vec<String> = (0..n).map(|i| format!("e{i}")).collect();
    // The last two elements are PCDATA leaves; interior elements may be
    // leaves too, but never the root (it must be able to hold a tree).
    let is_leaf: Vec<bool> = (0..n)
        .map(|i| i >= n - 2 || (i > 0 && rng.gen_bool(0.2)))
        .collect();
    let mut dtd_text = String::new();
    let mut many_pairs = Vec::new();
    let mut value_pairs = Vec::new();
    for i in 0..n {
        if is_leaf[i] {
            let _ = writeln!(dtd_text, "<!ELEMENT {} (#PCDATA)>", names[i]);
            continue;
        }
        // 1–3 distinct children, all from strictly higher indices (DAG).
        let pool: Vec<usize> = (i + 1..n).collect();
        let k = (1 + rng.gen_range(0..3)).min(pool.len());
        let mut picked: Vec<usize> = Vec::new();
        while picked.len() < k {
            let c = pool[rng.gen_range(0..pool.len())];
            if !picked.contains(&c) {
                picked.push(c);
            }
        }
        picked.sort_unstable();
        let mut parts: Vec<String> = Vec::new();
        let mut iter = picked.iter().peekable();
        while let Some(&c) = iter.next() {
            // Occasionally fuse two children into a choice group.
            let choice_partner = if iter.peek().is_some() && rng.gen_bool(0.2) {
                iter.next().copied()
            } else {
                None
            };
            let occ = rng.gen_range(0..4);
            let suffix = ["", "?", "*", "+"][occ];
            match choice_partner {
                Some(d) => {
                    parts.push(format!("({} | {}){suffix}", names[c], names[d]));
                    if occ >= 2 {
                        many_pairs.push((names[i].clone(), names[c].clone()));
                        many_pairs.push((names[i].clone(), names[d].clone()));
                    }
                }
                None => {
                    parts.push(format!("{}{suffix}", names[c]));
                    if occ >= 2 {
                        many_pairs.push((names[i].clone(), names[c].clone()));
                    }
                    if is_leaf[c] {
                        value_pairs.push((names[i].clone(), names[c].clone()));
                    }
                }
            }
        }
        let _ = writeln!(dtd_text, "<!ELEMENT {} ({})>", names[i], parts.join(", "));
    }
    let dtd_text = dtd_text.trim_end().to_string();
    let dtd = Dtd::parse(&dtd_text).ok()?;
    let schema = RelSchema::from_dtd(&dtd).ok()?;
    // Keep only pairs the relational mapping can express: the parent needs
    // its own predicate, and `text()` access requires the child to be a
    // compacted PCDATA column of it.
    value_pairs.retain(|(p, c)| schema.pred(p).is_some() && schema.is_compacted(c));
    many_pairs.retain(|(p, c)| schema.pred(p).is_some() && schema.pred(c).is_some());
    if value_pairs.is_empty() {
        return None;
    }
    Some(Schema {
        dtd_text,
        dtd,
        root: names[0].clone(),
        names,
        value_pairs,
        many_pairs,
    })
}

// ---------------------------------------------------------------------
// Glushkov-automaton-guided document generation
// ---------------------------------------------------------------------

/// The Glushkov (position) automaton of a content model: one state per
/// `Name` occurrence, `first`/`follow`/`last` sets, plus each position's
/// distance to the nearest accepting position (for the walk's escape
/// hatch).
#[derive(Debug)]
pub struct Glushkov {
    syms: Vec<String>,
    nullable: bool,
    first: Vec<usize>,
    last: Vec<bool>,
    follow: Vec<Vec<usize>>,
    dist: Vec<usize>,
}

struct Frag {
    nullable: bool,
    first: Vec<usize>,
    last: Vec<usize>,
}

impl Glushkov {
    /// Builds the automaton for `model` (element-content models only —
    /// `EMPTY`/`ANY`/`#PCDATA`/mixed models have no child automaton and
    /// yield an automaton accepting only the empty word).
    pub fn new(model: &ContentModel) -> Glushkov {
        let mut g = Glushkov {
            syms: Vec::new(),
            nullable: false,
            first: Vec::new(),
            last: Vec::new(),
            follow: Vec::new(),
            dist: Vec::new(),
        };
        let frag = g.build(model);
        g.nullable = frag.nullable;
        g.first = frag.first;
        g.last = vec![false; g.syms.len()];
        for p in frag.last {
            g.last[p] = true;
        }
        // Distance-to-accept by fixpoint relaxation (tiny automata).
        let n = g.syms.len();
        g.dist = vec![usize::MAX; n];
        for p in 0..n {
            if g.last[p] {
                g.dist[p] = 0;
            }
        }
        loop {
            let mut changed = false;
            for p in 0..n {
                let via = g.follow[p]
                    .iter()
                    .filter_map(|&q| g.dist[q].checked_add(1))
                    .min()
                    .unwrap_or(usize::MAX);
                if via < g.dist[p] {
                    g.dist[p] = via;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        g
    }

    fn build(&mut self, model: &ContentModel) -> Frag {
        match model {
            ContentModel::Name(name) => {
                let p = self.syms.len();
                self.syms.push(name.clone());
                self.follow.push(Vec::new());
                Frag {
                    nullable: false,
                    first: vec![p],
                    last: vec![p],
                }
            }
            ContentModel::Seq(parts) => {
                let mut acc = Frag {
                    nullable: true,
                    first: Vec::new(),
                    last: Vec::new(),
                };
                for part in parts {
                    let b = self.build(part);
                    for &l in &acc.last {
                        for &f in &b.first {
                            if !self.follow[l].contains(&f) {
                                self.follow[l].push(f);
                            }
                        }
                    }
                    if acc.nullable {
                        acc.first.extend(b.first.iter().copied());
                    }
                    if b.nullable {
                        acc.last.extend(b.last.iter().copied());
                    } else {
                        acc.last = b.last;
                    }
                    acc.nullable &= b.nullable;
                }
                acc
            }
            ContentModel::Choice(parts) => {
                let mut acc = Frag {
                    nullable: false,
                    first: Vec::new(),
                    last: Vec::new(),
                };
                for part in parts {
                    let b = self.build(part);
                    acc.nullable |= b.nullable;
                    acc.first.extend(b.first);
                    acc.last.extend(b.last);
                }
                acc
            }
            ContentModel::Optional(inner) => {
                let mut b = self.build(inner);
                b.nullable = true;
                b
            }
            ContentModel::Star(inner) | ContentModel::Plus(inner) => {
                let b = self.build(inner);
                for &l in &b.last {
                    for &f in &b.first {
                        if !self.follow[l].contains(&f) {
                            self.follow[l].push(f);
                        }
                    }
                }
                Frag {
                    nullable: b.nullable || matches!(model, ContentModel::Star(_)),
                    first: b.first,
                    last: b.last,
                }
            }
            ContentModel::Empty
            | ContentModel::Any
            | ContentModel::PcData
            | ContentModel::Mixed(_) => Frag {
                nullable: true,
                first: Vec::new(),
                last: Vec::new(),
            },
        }
    }

    /// A random accepted word. Aims for roughly `target_len` symbols: once
    /// past the target the walk stops at the first accepting position, and
    /// well past it (`target_len + 24`) it greedily follows the
    /// distance-to-accept gradient, which terminates because the distance
    /// strictly decreases.
    pub fn walk(&self, rng: &mut StdRng, target_len: usize) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let mut opts: &[usize] = &self.first;
        let mut can_stop = self.nullable;
        loop {
            if opts.is_empty() {
                break;
            }
            let over = out.len() >= target_len;
            if can_stop && (over || rng.gen_bool(0.4)) {
                break;
            }
            let next = if out.len() >= target_len + 24 {
                *opts
                    .iter()
                    .min_by_key(|&&p| self.dist[p])
                    .expect("non-empty options")
            } else {
                opts[rng.gen_range(0..opts.len())]
            };
            out.push(self.syms[next].clone());
            can_stop = self.last[next];
            opts = &self.follow[next];
        }
        out
    }
}

/// A random text value from [`TEXT_POOL`].
pub fn random_text(rng: &mut StdRng) -> &'static str {
    TEXT_POOL[rng.gen_range(0..TEXT_POOL.len())]
}

/// Generates a DTD-valid document for `schema` (serialized XML).
pub fn random_document(rng: &mut StdRng, schema: &Schema) -> String {
    let mut out = String::new();
    let mut budget: i32 = 16 + rng.gen_range(0..32);
    write_element(rng, &schema.dtd, &schema.root, &mut budget, &mut out);
    out
}

/// Generates one element subtree (serialized XML) — also used as insert
/// content by the statement generators.
pub fn random_subtree(rng: &mut StdRng, dtd: &Dtd, name: &str) -> String {
    let mut out = String::new();
    let mut budget: i32 = 1 + rng.gen_range(0..6);
    write_element(rng, dtd, name, &mut budget, &mut out);
    out
}

fn write_element(rng: &mut StdRng, dtd: &Dtd, name: &str, budget: &mut i32, out: &mut String) {
    *budget -= 1;
    let model = &dtd
        .element(name)
        .unwrap_or_else(|| panic!("undeclared element {name}"))
        .model;
    if *model == ContentModel::PcData {
        let _ = write!(out, "<{name}>{}</{name}>", random_text(rng));
        return;
    }
    let target = if *budget <= 0 {
        0
    } else {
        1 + rng.gen_range(0..3)
    };
    let children = Glushkov::new(model).walk(rng, target);
    if children.is_empty() {
        let _ = write!(out, "<{name}/>");
        return;
    }
    let _ = write!(out, "<{name}>");
    for child in children {
        write_element(rng, dtd, &child, budget, out);
    }
    let _ = write!(out, "</{name}>");
}

// ---------------------------------------------------------------------
// Constraints
// ---------------------------------------------------------------------

/// Draws 1–5 XPathLog denials over `schema` that (a) the full
/// map→simplify→translate pipeline accepts and (b) the initial document
/// satisfies — the paper's standing assumption that the database is
/// consistent before every update. Denials failing either test are
/// dropped; if none survive, a never-firing fallback denial keeps the
/// constraint machinery engaged.
///
/// One or two are a count bound or a forbidden value; half the cases add
/// a denial that joins on values — a key (no two `p` share a `c`, the
/// paper's Example 4) or a grouped aggregate (no value occurs in more
/// than k `p`s and in a `p2` as well) — whose full check the engine
/// answers from the document's index; two cases in five add one that reads a
/// position (the k-th `p` of a `g`, or every `p` from the k-th on, must
/// not hold a pool value), which a non-tail insert or a removal among
/// those siblings shifts ([`reads_position`]). Half the cases add the
/// dual of a key, that no `p` holds two `c` values (`B = C & not I = J`
/// over two `p` atoms): it holds in every state, and a text update of a
/// `p`'s `c` violates it only if the `p`'s old tuple is taken to survive
/// the update (`After`'s `t₁ ≠ n`). Four cases in five add a
/// floor for every repeating `(p, c)` pair the document has one to state
/// for — every `p` keeps at least as many `c` children as the one with
/// fewest has now, as `cnt{…} < k` or `not cnt{…} >= k` — the one kind of
/// denial a removal alone can violate.
pub fn random_constraints(rng: &mut StdRng, schema: &Schema, doc_xml: &str) -> String {
    // The join, the positional denial and the floor each come from a
    // stream of their own, so a seed draws the same first denials (and,
    // after them, the same statement) it always did.
    let mut join_rng = StdRng::seed_from_u64(rng.clone().gen());
    let mut pos_rng = StdRng::seed_from_u64(rng.clone().gen::<u64>() ^ 0x3c6e_f372_fe94_f82b);
    let mut floor_rng = StdRng::seed_from_u64(rng.clone().gen::<u64>() ^ 0xa54f_f53a_5f1d_36f1);
    let mut pair_rng = StdRng::seed_from_u64(rng.clone().gen::<u64>() ^ 0x510e_527f_ade6_82d1);
    let mut denials = Vec::new();
    let n = 1 + rng.gen_range(0..2);
    for _ in 0..n {
        let d = if !schema.many_pairs.is_empty() && rng.gen_bool(0.4) {
            let (p, c) = &schema.many_pairs[rng.gen_range(0..schema.many_pairs.len())];
            format!("<- //{p} -> X & cnt{{X/{c}}} > {}", 1 + rng.gen_range(0..3))
        } else {
            let (p, c) = &schema.value_pairs[rng.gen_range(0..schema.value_pairs.len())];
            format!("<- //{p}/{c}/text() -> V & V = \"forbidden\"")
        };
        denials.push(d);
    }
    if join_rng.gen_bool(0.5) {
        let mut pair = || &schema.value_pairs[join_rng.gen_range(0..schema.value_pairs.len())];
        let ((p, c), (p2, c2)) = (pair(), pair());
        denials.push(if join_rng.gen_bool(0.5) {
            format!(
                "<- //{p}[{c}/text() -> I] -> B & //{p}[{c}/text() -> J] -> C & I = J & not B = C"
            )
        } else {
            format!(
                "<- cntd{{[V]; //{p}[{c}/text() -> V]}} > {} & cntd{{[V]; //{p2}[{c2}/text() -> V]}} >= 1",
                1 + join_rng.gen_range(0..2)
            )
        });
    }
    if pos_rng.gen_bool(0.4) {
        let k = 1 + pos_rng.gen_range(0..3);
        let v = random_text(&mut pos_rng);
        // A repeating child with a value of its own, where the schema has
        // one: `p[k]` then names a sibling an insert can displace.
        let nested: Vec<_> = schema
            .many_pairs
            .iter()
            .flat_map(|(g, p)| schema.value_pairs.iter().filter(move |(q, _)| q == p).map(move |(_, c)| (g, p, c)))
            .collect();
        denials.push(if !nested.is_empty() && pos_rng.gen_bool(0.5) {
            let (g, p, c) = nested[pos_rng.gen_range(0..nested.len())];
            format!("<- //{g}/{p}[{k}]/{c}/text() -> V & V = \"{v}\"")
        } else {
            let (p, c) = &schema.value_pairs[pos_rng.gen_range(0..schema.value_pairs.len())];
            format!("<- //{p}[position() = N]/{c}/text() -> V & N >= {k} & V = \"{v}\"")
        });
    }
    if pair_rng.gen_bool(0.5) {
        let (p, c) = &schema.value_pairs[pair_rng.gen_range(0..schema.value_pairs.len())];
        denials.push(format!(
            "<- //{p}[{c}/text() -> I] -> B & //{p}[{c}/text() -> J] -> C & B = C & not I = J"
        ));
    }
    let floors: Vec<_> = schema
        .many_pairs
        .iter()
        .filter_map(|(p, c)| Some((p, c, fewest_children(doc_xml, p, c).filter(|&k| k > 0)?)))
        .collect();
    if floor_rng.gen_bool(0.8) {
        for (p, c, k) in floors {
            denials.push(if floor_rng.gen_bool(0.5) {
                format!("<- //{p} -> X & cnt{{X/{c}}} < {k}")
            } else {
                format!("<- //{p} -> X & not cnt{{X/{c}}} >= {k}")
            });
        }
    }
    denials.retain(|d| match Checker::new(doc_xml, &schema.dtd_text, d) {
        Ok(c) => matches!(c.check_full(), Ok(None)),
        Err(_) => false,
    });
    if denials.is_empty() {
        let (p, c) = &schema.value_pairs[0];
        denials.push(format!("<- //{p}/{c}/text() -> V & V = \"{NEVER_TEXT}\""));
    }
    denials.join(" . ")
}

/// The fewest `c` children any `p` element of the document has, or
/// `None` when it has no `p`.
fn fewest_children(doc_xml: &str, p: &str, c: &str) -> Option<usize> {
    let (doc, _) = xic_xml::parse_document(doc_xml).ok()?;
    doc.descendants(doc.document_node())
        .filter(|&n| doc.name(n) == Some(p))
        .map(|n| doc.node(n).children.iter().filter(|&&k| doc.name(k) == Some(c)).count())
        .min()
}

/// True if a denial of `constraints` (as [`random_constraints`] writes
/// them) reads an element's position among its siblings.
pub fn reads_position(constraints: &str) -> bool {
    constraints.contains("[position()")
        || constraints.split('[').skip(1).any(|q| q.starts_with(|c: char| c.is_ascii_digit()))
}

// ---------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------

pub(crate) fn model_names(model: &ContentModel) -> Vec<String> {
    match model {
        ContentModel::Name(n) => vec![n.clone()],
        ContentModel::Seq(parts) | ContentModel::Choice(parts) => {
            let mut out = Vec::new();
            for p in parts {
                for n in model_names(p) {
                    if !out.contains(&n) {
                        out.push(n);
                    }
                }
            }
            out
        }
        ContentModel::Optional(p) | ContentModel::Star(p) | ContentModel::Plus(p) => {
            model_names(p)
        }
        ContentModel::Mixed(names) => names.clone(),
        ContentModel::Empty | ContentModel::Any | ContentModel::PcData => Vec::new(),
    }
}

/// Draws a 1–2 operation statement (one string per operation element)
/// over the generated document, covering all six `XUpdateOp` kinds.
pub fn random_ops(rng: &mut StdRng, schema: &Schema, doc: &Document) -> Vec<String> {
    let count = 1 + rng.gen_range(0..2);
    (0..count).map(|_| random_op(rng, schema, doc)).collect()
}

fn random_op(rng: &mut StdRng, schema: &Schema, doc: &Document) -> String {
    let root = doc.root_element().expect("generated document has a root");
    let mut elems: Vec<NodeId> = vec![root];
    elems.extend(
        doc.descendants(root)
            .filter(|&n| doc.name(n).is_some()),
    );
    let path = |n: NodeId| doc.positional_path(n).expect("attached element");
    let pcdata: Vec<NodeId> = elems
        .iter()
        .copied()
        .filter(|&n| {
            schema
                .dtd
                .element(doc.name(n).expect("element"))
                .is_some_and(|d| d.model == ContentModel::PcData)
        })
        .collect();
    let interior: Vec<NodeId> = elems
        .iter()
        .copied()
        .filter(|&n| {
            schema
                .dtd
                .element(doc.name(n).expect("element"))
                .is_some_and(|d| !model_names(&d.model).is_empty())
        })
        .collect();
    let non_root = &elems[1..];
    for _ in 0..8 {
        match rng.gen_range(0..6) {
            0 if !interior.is_empty() => {
                let t = interior[rng.gen_range(0..interior.len())];
                let names = model_names(
                    &schema
                        .dtd
                        .element(doc.name(t).expect("element"))
                        .expect("declared")
                        .model,
                );
                let child = &names[rng.gen_range(0..names.len())];
                let content = random_subtree(rng, &schema.dtd, child);
                return format!(
                    "<xupdate:append select=\"{}\">{content}</xupdate:append>",
                    path(t)
                );
            }
            k @ (1 | 2) if !non_root.is_empty() => {
                let t = non_root[rng.gen_range(0..non_root.len())];
                let content = random_subtree(rng, &schema.dtd, doc.name(t).expect("element"));
                let tag = if k == 1 { "insert-before" } else { "insert-after" };
                return format!(
                    "<xupdate:{tag} select=\"{}\">{content}</xupdate:{tag}>",
                    path(t)
                );
            }
            3 if !non_root.is_empty() => {
                let t = non_root[rng.gen_range(0..non_root.len())];
                return format!("<xupdate:remove select=\"{}\"/>", path(t));
            }
            4 if !pcdata.is_empty() => {
                let t = pcdata[rng.gen_range(0..pcdata.len())];
                return format!(
                    "<xupdate:update select=\"{}\">{}</xupdate:update>",
                    path(t),
                    random_text(rng)
                );
            }
            5 if !non_root.is_empty() => {
                let t = non_root[rng.gen_range(0..non_root.len())];
                let new_name = &schema.names[rng.gen_range(0..schema.names.len())];
                return format!(
                    "<xupdate:rename select=\"{}\">{new_name}</xupdate:rename>",
                    path(t)
                );
            }
            _ => {}
        }
    }
    // The document can be a bare root (every child optional and the walk
    // stopped immediately); appending to the root always makes sense.
    let names = model_names(
        &schema
            .dtd
            .element(&schema.root)
            .expect("root declared")
            .model,
    );
    let child = &names[rng.gen_range(0..names.len())];
    let content = random_subtree(rng, &schema.dtd, child);
    format!(
        "<xupdate:append select=\"{}\">{content}</xupdate:append>",
        path(root)
    )
}

/// Draws a 1–4 operation statement for the multi-operation campaign,
/// over any DTD and document. Every operation kind is drawn, each aimed
/// at an element of the pre-state through one of six select shapes: its
/// positional path, a union of two, `//name`, `parent/*[k]`,
/// `parent/name[last()]` or `path/text()`. An insertion adds an element
/// of its target's name (a child its model allows, for an append), so a
/// statement often inserts a name another of its operations removes, and
/// a later select often counts or names what an earlier one inserted.
/// Two statements in five only insert, and half the operations after the
/// first aim at the previous one's target again: a statement the
/// optimized check maps, in which a later select may find another node.
pub fn multi_ops(rng: &mut StdRng, dtd: &Dtd, doc: &Document) -> Vec<String> {
    let root = doc.root_element().expect("generated document has a root");
    let elems: Vec<NodeId> = doc.descendants(root).filter(|&n| doc.name(n).is_some()).collect();
    let names: Vec<&str> = dtd.elements().iter().map(|e| e.name.as_str()).collect();
    let kinds = if rng.gen_bool(0.4) { 3 } else { 6 };
    let count = 1 + rng.gen_range(0..4);
    let mut target = None;
    (0..count)
        .map(|_| {
            if target.is_none() || rng.gen_bool(0.5) {
                target = elems.get(rng.gen_range(0..elems.len().max(1))).copied();
            }
            multi_op(rng, dtd, doc, target, kinds, &elems, &names)
        })
        .collect()
}

fn multi_op(
    rng: &mut StdRng,
    dtd: &Dtd,
    doc: &Document,
    target: Option<NodeId>,
    kinds: usize,
    elems: &[NodeId],
    names: &[&str],
) -> String {
    let path = |n: NodeId| doc.positional_path(n).expect("attached element");
    let Some(t) = target else {
        let root = doc.root_element().expect("generated document has a root");
        let name = names[rng.gen_range(0..names.len())];
        let content = random_subtree(rng, dtd, name);
        return format!("<xupdate:append select=\"{}\">{content}</xupdate:append>", path(root));
    };
    let name = doc.name(t).expect("element");
    let parent = doc.node(t).parent.map(path).expect("a non-root element has a parent");
    let select = match rng.gen_range(0..6) {
        0 => path(t),
        1 => format!("{} | {}", path(t), path(elems[rng.gen_range(0..elems.len())])),
        2 => format!("//{name}"),
        3 => {
            let k = doc.element_position(t).expect("element");
            format!("{parent}/*[{k}]")
        }
        4 => format!("{parent}/{name}[last()]"),
        _ => format!("{}/text()", path(t)),
    };
    let tag = ["append", "insert-before", "insert-after", "remove", "update", "rename"]
        [rng.gen_range(0..kinds)];
    let body = match tag {
        "append" => {
            let model = &dtd.element(name).expect("declared").model;
            let children = model_names(model);
            let child = children.get(rng.gen_range(0..children.len().max(1))).map_or(name, String::as_str);
            random_subtree(rng, dtd, child)
        }
        "insert-before" | "insert-after" => random_subtree(rng, dtd, name),
        "remove" => return format!("<xupdate:remove select=\"{select}\"/>"),
        "update" => random_text(rng).to_string(),
        _ => names[rng.gen_range(0..names.len())].to_string(),
    };
    format!("<xupdate:{tag} select=\"{select}\">{body}</xupdate:{tag}>")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use xic_xml::parse_document;

    #[test]
    fn schemas_parse_and_have_value_pairs() {
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = random_schema(&mut rng);
            assert!(!s.value_pairs.is_empty(), "seed {seed}");
            assert!(s.dtd.element(&s.root).is_some(), "seed {seed}");
        }
    }

    #[test]
    fn documents_validate_against_their_schema() {
        for seed in 0..30 {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = random_schema(&mut rng);
            let xml = random_document(&mut rng, &s);
            let (doc, _) = parse_document(&xml).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            s.dtd
                .validate(&doc)
                .unwrap_or_else(|e| panic!("seed {seed}: {xml}: {e}"));
        }
    }

    #[test]
    fn glushkov_walk_respects_model() {
        let model = xic_xml::dtd::parse_content_model("(a, (b | c)+, d?)").expect("model");
        let g = Glushkov::new(&model);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let word = g.walk(&mut rng, 4);
            assert_eq!(word[0], "a");
            assert!(word.len() >= 2, "{word:?}");
            for w in &word[1..] {
                assert!(["b", "c", "d"].contains(&w.as_str()), "{word:?}");
            }
        }
    }

    #[test]
    fn glushkov_escape_terminates_on_cyclic_models() {
        // ((a, b)+, c): the greedy min-follow heuristic alone could cycle
        // through a→b→a forever; the distance gradient must escape to c.
        let model = xic_xml::dtd::parse_content_model("((a, b)+, c)").expect("model");
        let g = Glushkov::new(&model);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let word = g.walk(&mut rng, 2);
            assert_eq!(word.last().map(String::as_str), Some("c"), "{word:?}");
            assert!(word.len() <= 40, "runaway walk: {word:?}");
        }
    }
}
