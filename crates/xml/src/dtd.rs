//! DTD parsing and validation.
//!
//! The paper's documents are governed by DTDs (Section 3.2); the schema
//! mapper (`xic-mapping`) consumes the parsed [`Dtd`] to derive the
//! relational schema, and the store validates documents and updates
//! against it. Declaring a content model only stores it and numbers the
//! names it mentions, so parsing a DTD costs time and memory linear in its
//! text (an XUpdate statement's internal subset is parsed and never
//! validated against). The first validation compiles every model once
//! into a position (Glushkov) automaton over the DTD's element names,
//! and validation runs it over an element's children with bit sets:
//! linear in the number of children, with no allocation per element.

use crate::tree::{Document, NodeId, NodeKind};
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// A content particle of a `children` content model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContentModel {
    /// `EMPTY`
    Empty,
    /// `ANY`
    Any,
    /// `(#PCDATA)` — text-only content.
    PcData,
    /// `(#PCDATA | a | b)*` — mixed content with the allowed child names.
    Mixed(Vec<String>),
    /// A child element name.
    Name(String),
    /// `(a, b, c)` — sequence.
    Seq(Vec<ContentModel>),
    /// `(a | b | c)` — choice.
    Choice(Vec<ContentModel>),
    /// `cp?`
    Optional(Box<ContentModel>),
    /// `cp*`
    Star(Box<ContentModel>),
    /// `cp+`
    Plus(Box<ContentModel>),
}

impl ContentModel {
    /// The element names the model mentions, in order, repeats included.
    fn names(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let mut stack = vec![self];
        while let Some(model) = stack.pop() {
            match model {
                ContentModel::Name(n) => out.push(n.as_str()),
                ContentModel::Mixed(names) => out.extend(names.iter().map(String::as_str)),
                ContentModel::Seq(parts) | ContentModel::Choice(parts) => stack.extend(parts.iter().rev()),
                ContentModel::Optional(p) | ContentModel::Star(p) | ContentModel::Plus(p) => stack.push(p),
                ContentModel::Empty | ContentModel::Any | ContentModel::PcData => {}
            }
        }
        out
    }
}

impl fmt::Display for ContentModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContentModel::Empty => write!(f, "EMPTY"),
            ContentModel::Any => write!(f, "ANY"),
            ContentModel::PcData => write!(f, "(#PCDATA)"),
            ContentModel::Mixed(names) => {
                write!(f, "(#PCDATA")?;
                for n in names {
                    write!(f, " | {n}")?;
                }
                write!(f, ")*")
            }
            ContentModel::Name(n) => write!(f, "{n}"),
            ContentModel::Seq(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            ContentModel::Choice(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            ContentModel::Optional(p) => write!(f, "{p}?"),
            ContentModel::Star(p) => write!(f, "{p}*"),
            ContentModel::Plus(p) => write!(f, "{p}+"),
        }
    }
}

/// An element declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementDecl {
    /// Element name.
    pub name: String,
    /// Its content model.
    pub model: ContentModel,
}

/// An attribute declaration (minimal: name + requiredness).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttDecl {
    /// Owning element.
    pub element: String,
    /// Attribute name.
    pub name: String,
    /// True for `#REQUIRED`.
    pub required: bool,
}

/// A parsed DTD: element and attribute declarations.
#[derive(Debug, Clone, Default)]
pub struct Dtd {
    elements: Vec<ElementDecl>,
    /// Every name a declaration declares or names in its model, numbered
    /// in order of first sight: the automata's alphabet.
    names: HashMap<String, u32>,
    /// `decl_of[name]`: the index in `elements` of the name's last
    /// declaration, [`NONE`] if it has none.
    decl_of: Vec<u32>,
    /// `automata[i]`: the content model of `elements[i]`, compiled by the
    /// first validation.
    automata: OnceLock<Vec<Automaton>>,
    /// Attribute declarations, in declaration order.
    pub attlists: Vec<AttDecl>,
}

/// Two DTDs are equal when they declare the same things in the same
/// order; the rest is derived from the declarations.
impl PartialEq for Dtd {
    fn eq(&self, other: &Dtd) -> bool {
        self.elements == other.elements && self.attlists == other.attlists
    }
}

impl Eq for Dtd {}

/// "No such name, declaration or column".
const NONE: u32 = u32::MAX;

/// A validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    /// The offending node.
    pub node: NodeId,
    /// Description.
    pub message: String,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "validation error at node {}: {}", self.node, self.message)
    }
}

impl std::error::Error for ValidationError {}

impl Dtd {
    /// Parses the internal subset of a DOCTYPE (a sequence of `<!ELEMENT>`
    /// and `<!ATTLIST>` declarations; comments and PEs are not supported).
    pub fn parse(subset: &str) -> Result<Dtd, String> {
        let mut dtd = Dtd::default();
        let mut rest = subset.trim();
        while !rest.is_empty() {
            if let Some(r) = rest.strip_prefix("<!ELEMENT") {
                let end = r.find('>').ok_or("unterminated <!ELEMENT>")?;
                dtd.parse_element(&r[..end])?;
                rest = r[end + 1..].trim_start();
            } else if let Some(r) = rest.strip_prefix("<!ATTLIST") {
                let end = r.find('>').ok_or("unterminated <!ATTLIST>")?;
                dtd.parse_attlist(&r[..end])?;
                rest = r[end + 1..].trim_start();
            } else if let Some(r) = rest.strip_prefix("<!--") {
                let end = r.find("-->").ok_or("unterminated comment in DTD")?;
                rest = r[end + 3..].trim_start();
            } else {
                return Err(format!(
                    "unsupported DTD declaration near: {}",
                    &rest[..rest.len().min(40)]
                ));
            }
        }
        Ok(dtd)
    }

    fn parse_element(&mut self, decl: &str) -> Result<(), String> {
        let decl = decl.trim();
        let (name, model_src) = decl
            .split_once(|c: char| c.is_whitespace())
            .ok_or("malformed <!ELEMENT>")?;
        let model = parse_content_model(model_src.trim())?;
        self.add_element(name, model);
        Ok(())
    }

    fn parse_attlist(&mut self, decl: &str) -> Result<(), String> {
        let mut toks = decl.split_whitespace();
        let element = toks.next().ok_or("malformed <!ATTLIST>")?.to_string();
        let toks: Vec<&str> = toks.collect();
        // Triples: name type default. Defaults with values ("v" / #FIXED "v")
        // consume an extra token.
        let mut i = 0;
        while i + 2 < toks.len() + 1 {
            if i + 2 > toks.len() {
                break;
            }
            let name = toks[i].to_string();
            let _ty = toks[i + 1];
            let default = toks[i + 2];
            let mut consumed = 3;
            if default == "#FIXED" {
                consumed += 1;
            }
            self.attlists.push(AttDecl {
                element: element.clone(),
                name,
                required: default == "#REQUIRED",
            });
            i += consumed;
        }
        Ok(())
    }

    /// Adds an element declaration programmatically (a later declaration
    /// of a name replaces the earlier one).
    pub fn add_element(&mut self, name: impl Into<String>, model: ContentModel) {
        let name = name.into();
        let id = self.name_id(&name);
        self.decl_of[id as usize] = self.elements.len() as u32;
        for mentioned in model.names() {
            self.name_id(mentioned);
        }
        self.elements.push(ElementDecl { name, model });
        self.automata = OnceLock::new();
    }

    /// The number of `name`, numbered now if it has none yet.
    fn name_id(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.names.get(name) {
            return id;
        }
        let id = u32::try_from(self.decl_of.len()).expect("fewer than 2^32 names");
        self.names.insert(name.to_string(), id);
        self.decl_of.push(NONE);
        id
    }

    /// Looks up an element declaration.
    pub fn element(&self, name: &str) -> Option<&ElementDecl> {
        let &id = self.names.get(name)?;
        self.elements.get(self.decl_of[id as usize] as usize)
    }

    /// All element declarations, in declaration order.
    pub fn elements(&self) -> &[ElementDecl] {
        &self.elements
    }

    /// The declarations' content models, compiled on the first call.
    fn automata(&self) -> &[Automaton] {
        self.automata.get_or_init(|| {
            self.elements.iter().map(|e| Automaton::compile(&e.model, &self.names)).collect()
        })
    }

    /// Validates the whole document against this DTD.
    pub fn validate(&self, doc: &Document) -> Result<(), ValidationError> {
        let root = doc.root_element().ok_or(ValidationError {
            node: doc.document_node(),
            message: "document has no root element".to_string(),
        })?;
        self.validate_subtree(doc, root)
    }

    /// Validates the subtree rooted at `id` (used to check update
    /// fragments before they are spliced in).
    pub fn validate_subtree(&self, doc: &Document, id: NodeId) -> Result<(), ValidationError> {
        let mut run = Run::new(self);
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            if let NodeKind::Element { name, .. } = &doc.node(n).kind {
                let decl = run.decl(doc, n).ok_or_else(|| ValidationError {
                    node: n,
                    message: format!("undeclared element <{name}>"),
                })?;
                run.validate_element(doc, n, decl)?;
                for att in self.attlists.iter().filter(|a| *a.element == **name) {
                    if att.required && doc.attr(n, &att.name).is_none() {
                        return Err(ValidationError {
                            node: n,
                            message: format!(
                                "missing required attribute {} on <{name}>",
                                att.name
                            ),
                        });
                    }
                }
                stack.extend(doc.node(n).children.iter().copied());
            }
        }
        Ok(())
    }
}

/// One validation pass: the DTD, the number each document symbol met so
/// far stands for, and the automata's two state sets — allocated once
/// per pass, not per element.
struct Run<'d> {
    dtd: &'d Dtd,
    /// `ids[symbol]`: the DTD's number for the name, [`NONE`] for a name
    /// the DTD never mentions, [`UNSEEN`] before the first lookup.
    ids: Vec<u32>,
    cur: Vec<u64>,
    next: Vec<u64>,
}

/// A document symbol not looked up yet.
const UNSEEN: u32 = NONE - 1;

impl<'d> Run<'d> {
    fn new(dtd: &'d Dtd) -> Run<'d> {
        let words = dtd.automata().iter().map(|a| a.words).max().unwrap_or(1);
        Run { dtd, ids: Vec::new(), cur: vec![0; words], next: vec![0; words] }
    }

    /// The DTD's number for the name of element `n`, [`NONE`] if it has
    /// none.
    fn id(&mut self, doc: &Document, n: NodeId) -> u32 {
        let Some(sym) = doc.symbol(n) else { return NONE };
        let at = sym.0 as usize;
        if self.ids.len() <= at {
            self.ids.resize(at + 1, UNSEEN);
        }
        if self.ids[at] == UNSEEN {
            let name = doc.name(n).expect("a node with a symbol is an element");
            self.ids[at] = self.dtd.names.get(name).copied().unwrap_or(NONE);
        }
        self.ids[at]
    }

    /// The index of the declaration of element `n`.
    fn decl(&mut self, doc: &Document, n: NodeId) -> Option<usize> {
        let id = self.id(doc, n);
        let decl = *self.dtd.decl_of.get(id as usize)?;
        (decl != NONE).then_some(decl as usize)
    }

    /// Checks the children of `id` against the content model of the
    /// declaration `decl`.
    fn validate_element(&mut self, doc: &Document, id: NodeId, decl: usize) -> Result<(), ValidationError> {
        let model = &self.dtd.elements[decl].model;
        let automaton = &self.dtd.automata()[decl];
        // Mixed content allows its names in any order and number.
        let mixed = matches!(model, ContentModel::Mixed(_));
        let children = &doc.node(id).children;
        let fail = |message: String| Err(ValidationError { node: id, message });
        let (mut has_text, mut elements) = (false, 0);
        // The first element child the automaton had no move for.
        let mut stuck = None;
        let words = automaton.words;
        self.cur[..words].fill(0);
        self.cur[0] = 1;
        for &c in children.iter() {
            match doc.node(c).kind {
                NodeKind::Text(_) => has_text = true,
                NodeKind::Element { .. } => {
                    elements += 1;
                    if stuck.is_none() {
                        let column = automaton.column(self.id(doc, c));
                        let moved = if mixed {
                            column != NONE
                        } else {
                            let moved = automaton.step(column, &self.cur[..words], &mut self.next[..words]);
                            std::mem::swap(&mut self.cur, &mut self.next);
                            moved
                        };
                        if !moved {
                            stuck = Some(c);
                        }
                    }
                }
                _ => {}
            }
        }
        match model {
            ContentModel::Any => Ok(()),
            ContentModel::Empty if has_text || elements > 0 => {
                fail("EMPTY element has content".to_string())
            }
            ContentModel::Empty => Ok(()),
            ContentModel::PcData if elements > 0 => {
                fail("(#PCDATA) element has element children".to_string())
            }
            ContentModel::PcData => Ok(()),
            ContentModel::Mixed(_) => match stuck {
                Some(c) => {
                    let n = doc.name(c).expect("an element");
                    fail(format!("element <{n}> not allowed in mixed content"))
                }
                None => Ok(()),
            },
            _ if has_text => fail("element content model does not allow text".to_string()),
            regex if stuck.is_some() || !automaton.accepts(&self.cur[..words]) => {
                let names: Vec<&str> = children.iter().filter_map(|&c| doc.name(c)).collect();
                fail(format!(
                    "children ({}) do not match content model {regex}",
                    names.join(", ")
                ))
            }
            _ => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------
// Content-model parsing
// ---------------------------------------------------------------------

/// Parses a content model string (`EMPTY`, `ANY`, `(#PCDATA|a)*`,
/// `(title, aut+)`, …).
pub fn parse_content_model(src: &str) -> Result<ContentModel, String> {
    let src = src.trim();
    match src {
        "EMPTY" => return Ok(ContentModel::Empty),
        "ANY" => return Ok(ContentModel::Any),
        _ => {}
    }
    let mut p = CmParser { src, pos: 0, depth: 0 };
    let model = p.group()?;
    p.skip_ws();
    if p.pos != src.len() {
        return Err(format!("trailing content-model input at byte {}", p.pos));
    }
    Ok(model)
}

/// How deeply groups may nest in a content model. Everything over a
/// model recurses, and a DTD may come with an untrusted statement.
const MAX_NESTING: usize = 64;

struct CmParser<'a> {
    src: &'a str,
    pos: usize,
    /// The groups open at `pos`.
    depth: usize,
}

impl CmParser<'_> {
    fn rest(&self) -> &str {
        &self.src[self.pos..]
    }

    fn skip_ws(&mut self) {
        while self.rest().starts_with(|c: char| c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn group(&mut self) -> Result<ContentModel, String> {
        if self.depth == MAX_NESTING {
            return Err(format!("content model nests deeper than {MAX_NESTING} groups"));
        }
        self.depth += 1;
        let group = self.group_body();
        self.depth -= 1;
        group
    }

    fn group_body(&mut self) -> Result<ContentModel, String> {
        self.skip_ws();
        if !self.rest().starts_with('(') {
            return Err("content model must start with '('".to_string());
        }
        self.pos += 1;
        self.skip_ws();
        if self.rest().starts_with("#PCDATA") {
            self.pos += "#PCDATA".len();
            self.skip_ws();
            let mut names = Vec::new();
            while self.rest().starts_with('|') {
                self.pos += 1;
                self.skip_ws();
                names.push(self.name()?);
                self.skip_ws();
            }
            if !self.rest().starts_with(')') {
                return Err("expected ')' after #PCDATA group".to_string());
            }
            self.pos += 1;
            let star = self.rest().starts_with('*');
            if star {
                self.pos += 1;
            }
            return Ok(if names.is_empty() {
                ContentModel::PcData
            } else {
                ContentModel::Mixed(names)
            });
        }
        // children group: cp (sep cp)* where sep is ',' or '|' consistently.
        let mut parts = vec![self.cp()?];
        self.skip_ws();
        let sep = match self.rest().chars().next() {
            Some(c @ (',' | '|')) => Some(c),
            _ => None,
        };
        if let Some(sep) = sep {
            while self.rest().starts_with(sep) {
                self.pos += 1;
                parts.push(self.cp()?);
                self.skip_ws();
            }
        }
        if !self.rest().starts_with(')') {
            return Err(format!("expected ')' at byte {}", self.pos));
        }
        self.pos += 1;
        let inner = if parts.len() == 1 {
            parts.pop().expect("one part")
        } else if sep == Some('|') {
            ContentModel::Choice(parts)
        } else {
            ContentModel::Seq(parts)
        };
        Ok(self.occurrence(inner))
    }

    fn cp(&mut self) -> Result<ContentModel, String> {
        self.skip_ws();
        if self.rest().starts_with('(') {
            self.group()
        } else {
            let n = self.name()?;
            Ok(self.occurrence(ContentModel::Name(n)))
        }
    }

    fn occurrence(&mut self, inner: ContentModel) -> ContentModel {
        match self.rest().chars().next() {
            Some('?') => {
                self.pos += 1;
                ContentModel::Optional(Box::new(inner))
            }
            Some('*') => {
                self.pos += 1;
                ContentModel::Star(Box::new(inner))
            }
            Some('+') => {
                self.pos += 1;
                ContentModel::Plus(Box::new(inner))
            }
            _ => inner,
        }
    }

    fn name(&mut self) -> Result<String, String> {
        self.skip_ws();
        let rest = self.rest();
        let mut end = 0;
        for (i, c) in rest.char_indices() {
            if c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':') {
                end = i + c.len_utf8();
            } else {
                break;
            }
        }
        if end == 0 {
            return Err(format!("expected a name at byte {}", self.pos));
        }
        let name = rest[..end].to_string();
        self.pos += end;
        Ok(name)
    }
}

// ---------------------------------------------------------------------
// Position automata for content-model matching
// ---------------------------------------------------------------------

/// A content model's position (Glushkov) automaton: state 0 is the start,
/// state `p > 0` is having just matched the `p`-th name occurrence of the
/// model, so every move into a state reads that state's name and there
/// are no ε moves. A state set is a bit set of `words` words; the tables
/// take (states + names) × `words` words.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Automaton {
    /// `columns[name]`: the name's row in `reads`, [`NONE`] for a name the
    /// model does not mention (and past the end for a name numbered after
    /// the model was declared).
    columns: Vec<u32>,
    /// Words per state set.
    words: usize,
    /// `follow[state * words ..][..words]`: the states that may come
    /// right after `state`.
    follow: Vec<u64>,
    /// `reads[column * words ..][..words]`: the states that read the
    /// column's name.
    reads: Vec<u64>,
    /// The accepting states.
    accepting: Vec<u64>,
}

/// What a subexpression of a content model contributes to its automaton:
/// whether it matches the empty sequence, the positions it can start with
/// and those it can end with.
struct Glushkov {
    nullable: bool,
    first: Vec<usize>,
    last: Vec<usize>,
}

impl Automaton {
    /// Compiles `model`, whose names `names` numbers. Mixed content gets
    /// its names' columns and no states past the start: what it allows is
    /// a set of names, not a sequence.
    fn compile(model: &ContentModel, names: &HashMap<String, u32>) -> Automaton {
        let mut columns: Vec<u32> = Vec::new();
        let mut width = 0;
        // The column of each position, in the order a walk meets them.
        let mut positions = Vec::new();
        for name in model.names() {
            let at = names[name] as usize;
            if columns.len() <= at {
                columns.resize(at + 1, NONE);
            }
            if columns[at] == NONE {
                columns[at] = width;
                width += 1;
            }
            positions.push(columns[at]);
        }
        if matches!(model, ContentModel::Mixed(_)) {
            positions.clear();
        }
        let states = positions.len() + 1;
        let words = states.div_ceil(64);
        let mut automaton = Automaton {
            columns,
            words,
            follow: vec![0; states * words],
            reads: vec![0; width as usize * words],
            accepting: vec![0; words],
        };
        for (p, &column) in positions.iter().enumerate() {
            set(&mut automaton.reads[column as usize * words..][..words], p + 1);
        }
        let mut next = 0;
        let g = automaton.walk(model, &mut next);
        automaton.link(&[0], &g.first);
        for p in g.last.into_iter().chain(g.nullable.then_some(0)) {
            set(&mut automaton.accepting, p);
        }
        automaton
    }

    /// The Glushkov sets of `model`, whose positions are numbered from
    /// `next + 1` on, with what may follow what inside it linked.
    fn walk(&mut self, model: &ContentModel, next: &mut usize) -> Glushkov {
        match model {
            ContentModel::Name(_) => {
                *next += 1;
                Glushkov { nullable: false, first: vec![*next], last: vec![*next] }
            }
            ContentModel::Seq(parts) => {
                let mut acc = Glushkov { nullable: true, first: Vec::new(), last: Vec::new() };
                for part in parts {
                    let g = self.walk(part, next);
                    self.link(&acc.last, &g.first);
                    if acc.nullable {
                        acc.first.extend_from_slice(&g.first);
                    }
                    if !g.nullable {
                        acc.last.clear();
                    }
                    acc.last.extend_from_slice(&g.last);
                    acc.nullable &= g.nullable;
                }
                acc
            }
            ContentModel::Choice(parts) => {
                let mut acc = Glushkov { nullable: false, first: Vec::new(), last: Vec::new() };
                for part in parts {
                    let g = self.walk(part, next);
                    acc.nullable |= g.nullable;
                    acc.first.extend(g.first);
                    acc.last.extend(g.last);
                }
                acc
            }
            ContentModel::Optional(p) => Glushkov { nullable: true, ..self.walk(p, next) },
            ContentModel::Star(p) | ContentModel::Plus(p) => {
                let g = self.walk(p, next);
                self.link(&g.last, &g.first);
                Glushkov { nullable: g.nullable || matches!(model, ContentModel::Star(_)), ..g }
            }
            // No position: the start state alone.
            ContentModel::Empty | ContentModel::Any | ContentModel::PcData | ContentModel::Mixed(_) => {
                Glushkov { nullable: true, first: Vec::new(), last: Vec::new() }
            }
        }
    }

    /// Lets every position of `to` follow every position of `from`.
    fn link(&mut self, from: &[usize], to: &[usize]) {
        for &p in from {
            let row = &mut self.follow[p * self.words..][..self.words];
            for &q in to {
                set(row, q);
            }
        }
    }

    /// The column of the name numbered `name`, [`NONE`] if the model does
    /// not mention it.
    fn column(&self, name: u32) -> u32 {
        self.columns.get(name as usize).copied().unwrap_or(NONE)
    }

    /// The states `cur` moves to on `column`'s name, into `next`: false if
    /// there are none.
    fn step(&self, column: u32, cur: &[u64], next: &mut [u64]) -> bool {
        next.fill(0);
        if column == NONE {
            return false;
        }
        for (w, &bits) in cur.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let state = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                for (n, f) in next.iter_mut().zip(&self.follow[state * self.words..][..self.words]) {
                    *n |= f;
                }
            }
        }
        let reads = &self.reads[column as usize * self.words..][..self.words];
        let mut any = false;
        for (n, r) in next.iter_mut().zip(reads) {
            *n &= r;
            any |= *n != 0;
        }
        any
    }

    /// True if `cur` holds an accepting state.
    fn accepts(&self, cur: &[u64]) -> bool {
        cur.iter().zip(&self.accepting).any(|(c, a)| c & a != 0)
    }
}

/// Sets bit `bit` of the bit set `bits`.
fn set(bits: &mut [u64], bit: usize) {
    bits[bit / 64] |= 1 << (bit % 64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_document;

    fn cm(s: &str) -> ContentModel {
        parse_content_model(s).unwrap()
    }

    fn accepts(model: &str, names: &[&str]) -> bool {
        let mut dtd = Dtd::default();
        dtd.add_element("t", cm(model));
        let automaton = &dtd.automata()[0];
        let words = automaton.words;
        let (mut cur, mut next) = (vec![0; words], vec![0; words]);
        cur[0] = 1;
        for name in names {
            let column = dtd.names.get(*name).map_or(NONE, |&id| automaton.column(id));
            if !automaton.step(column, &cur, &mut next) {
                return false;
            }
            std::mem::swap(&mut cur, &mut next);
        }
        automaton.accepts(&cur)
    }

    #[test]
    fn parse_models() {
        assert_eq!(cm("EMPTY"), ContentModel::Empty);
        assert_eq!(cm("ANY"), ContentModel::Any);
        assert_eq!(cm("(#PCDATA)"), ContentModel::PcData);
        assert_eq!(
            cm("(#PCDATA | b | i)*"),
            ContentModel::Mixed(vec!["b".into(), "i".into()])
        );
        assert_eq!(cm("(title, aut+)").to_string(), "(title, aut+)");
        assert_eq!(cm("(a | b)*").to_string(), "(a | b)*");
        assert_eq!(cm("((a, b) | c)?").to_string(), "((a, b) | c)?");
        assert!(parse_content_model("title").is_err());
        assert!(parse_content_model("(a,").is_err());
    }

    #[test]
    fn sequence_matching() {
        assert!(accepts("(title, aut+)", &["title", "aut"]));
        assert!(accepts("(title, aut+)", &["title", "aut", "aut", "aut"]));
        assert!(!accepts("(title, aut+)", &["title"]));
        assert!(!accepts("(title, aut+)", &["aut", "title"]));
        assert!(!accepts("(title, aut+)", &["title", "aut", "title"]));
    }

    #[test]
    fn star_and_optional() {
        assert!(accepts("(pub)*", &[]));
        assert!(accepts("(pub)*", &["pub", "pub", "pub"]));
        assert!(!accepts("(pub)*", &["pub", "x"]));
        assert!(accepts("(a?, b)", &["b"]));
        assert!(accepts("(a?, b)", &["a", "b"]));
        assert!(!accepts("(a?, b)", &["a", "a", "b"]));
    }

    #[test]
    fn choice_matching() {
        assert!(accepts("(a | b)+", &["a", "b", "a"]));
        assert!(!accepts("(a | b)+", &[]));
        assert!(accepts("((a, b) | c)", &["c"]));
        assert!(accepts("((a, b) | c)", &["a", "b"]));
        assert!(!accepts("((a, b) | c)", &["a", "c"]));
    }

    /// An ambiguous model, whose position automaton is not deterministic,
    /// and one with more positions than a word has bits.
    #[test]
    fn ambiguous_and_long_models() {
        assert!(accepts("((a | b)*, a, b)", &["a", "a", "b"]));
        assert!(accepts("((a | b)*, a, b)", &["b", "a", "b"]));
        assert!(!accepts("((a | b)*, a, b)", &["a", "b", "a"]));
        assert!(accepts("((a, b)*, c)+", &["a", "b", "c", "c", "a", "b", "a", "b", "c"]));
        assert!(!accepts("((a, b)*, c)+", &["a", "c"]));
        let names: Vec<String> = (0..70).map(|i| format!("n{i}")).collect();
        let model = format!("({})", names.join(", "));
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        assert!(accepts(&model, &names));
        assert!(!accepts(&model, &names[..69]));
        assert!(!accepts(&model, &[&names[..], &["n69"]].concat()));
    }

    /// Declaring a model only stores it: a 2 000-name choice, whose
    /// automaton takes about a megabyte, is compiled by the first
    /// validation and not before.
    #[test]
    fn models_compile_on_the_first_validation() {
        let names: Vec<String> = (0..2000).map(|i| format!("a{i}")).collect();
        let mut subset = format!("<!ELEMENT r ({})*>", names.join("|"));
        for n in &names {
            subset.push_str(&format!("<!ELEMENT {n} EMPTY>"));
        }
        let dtd = Dtd::parse(&subset).unwrap();
        assert!(dtd.automata.get().is_none());
        let (doc, _) = parse_document("<r><a1999/><a0/><a1999/></r>").unwrap();
        dtd.validate(&doc).unwrap();
        assert_eq!(dtd.automata().len(), 2001);
        let (doc, _) = parse_document("<r><a0/><zzz/></r>").unwrap();
        assert!(dtd.validate(&doc).unwrap_err().message.contains("content model"));
    }

    /// Groups nest at most [`MAX_NESTING`] deep: a deeper model is refused,
    /// not parsed by a recursion as deep as its text is long.
    #[test]
    fn deep_models_are_refused() {
        let nested = |depth: usize| format!("{}a{}", "(".repeat(depth), ")".repeat(depth));
        assert!(parse_content_model(&nested(MAX_NESTING)).is_ok());
        let err = parse_content_model(&nested(MAX_NESTING + 1)).unwrap_err();
        assert!(err.contains("nests deeper"), "{err}");
        assert!(Dtd::parse(&format!("<!ELEMENT r {}>", nested(100_000))).is_err());
    }

    #[test]
    fn parse_paper_dtds() {
        let pub_dtd = Dtd::parse(
            "<!ELEMENT dblp (pub)*>\n<!ELEMENT pub (title, aut+)>\n<!ELEMENT title (#PCDATA)>\n<!ELEMENT aut (name)>\n<!ELEMENT name (#PCDATA)>",
        )
        .unwrap();
        assert_eq!(pub_dtd.elements().len(), 5);
        assert_eq!(pub_dtd.element("pub").unwrap().model.to_string(), "(title, aut+)");
        let rev_dtd = Dtd::parse(
            "<!ELEMENT review (track)+>\n<!ELEMENT track (name,rev+)>\n<!ELEMENT name (#PCDATA)>\n<!ELEMENT rev (name, sub+)>\n<!ELEMENT sub (title, auts+)>\n<!ELEMENT title (#PCDATA)>\n<!ELEMENT auts (name)>",
        )
        .unwrap();
        assert_eq!(rev_dtd.element("sub").unwrap().model.to_string(), "(title, auts+)");
    }

    #[test]
    fn validate_document() {
        let dtd = Dtd::parse(
            "<!ELEMENT dblp (pub)*>\n<!ELEMENT pub (title, aut+)>\n<!ELEMENT title (#PCDATA)>\n<!ELEMENT aut (name)>\n<!ELEMENT name (#PCDATA)>",
        )
        .unwrap();
        let good = "<dblp><pub><title>T</title><aut><name>N</name></aut></pub></dblp>";
        let (doc, _) = parse_document(good).unwrap();
        dtd.validate(&doc).unwrap();

        let bad = "<dblp><pub><aut><name>N</name></aut></pub></dblp>"; // missing title
        let (doc2, _) = parse_document(bad).unwrap();
        let err = dtd.validate(&doc2).unwrap_err();
        assert!(err.message.contains("content model"), "{err}");

        // An element not allowed by the parent's model is caught there…
        let undeclared = "<dblp><zzz/></dblp>";
        let (doc3, _) = parse_document(undeclared).unwrap();
        let err3 = dtd.validate(&doc3).unwrap_err();
        assert!(err3.message.contains("content model"), "{err3}");

        // …while an undeclared element under an ANY parent is caught by the
        // declaration lookup.
        let mut any_dtd = dtd.clone();
        any_dtd.add_element("dblp", ContentModel::Any);
        let err4 = any_dtd.validate(&doc3).unwrap_err();
        assert!(err4.message.contains("undeclared"), "{err4}");
    }

    #[test]
    fn validate_pcdata_and_empty() {
        let dtd = Dtd::parse("<!ELEMENT a (b?)>\n<!ELEMENT b EMPTY>").unwrap();
        let (doc, _) = parse_document("<a><b/></a>").unwrap();
        dtd.validate(&doc).unwrap();
        let (doc2, _) = parse_document("<a><b>text</b></a>").unwrap();
        assert!(dtd.validate(&doc2).is_err());
        let (doc3, _) = parse_document("<a>stray text</a>").unwrap();
        assert!(dtd.validate(&doc3).is_err());
    }

    #[test]
    fn validate_mixed() {
        let dtd = Dtd::parse("<!ELEMENT p (#PCDATA | b)*>\n<!ELEMENT b (#PCDATA)>").unwrap();
        let (doc, _) = parse_document("<p>x<b>y</b>z</p>").unwrap();
        dtd.validate(&doc).unwrap();
        let (doc, _) = parse_document("<p><b>y</b>x<b/><i/></p>").unwrap();
        let err = dtd.validate(&doc).unwrap_err();
        assert!(err.message.contains("<i> not allowed in mixed content"), "{err}");
        let dtd2 = Dtd::parse("<!ELEMENT p (#PCDATA)>").unwrap();
        let (doc2, _) = parse_document("<p>x</p>").unwrap();
        dtd2.validate(&doc2).unwrap();
    }

    #[test]
    fn attlist_required() {
        let dtd = Dtd::parse(
            "<!ELEMENT a EMPTY>\n<!ATTLIST a id CDATA #REQUIRED note CDATA #IMPLIED>",
        )
        .unwrap();
        let (doc, _) = parse_document("<a id=\"1\"/>").unwrap();
        dtd.validate(&doc).unwrap();
        let (doc2, _) = parse_document("<a note=\"n\"/>").unwrap();
        let err = dtd.validate(&doc2).unwrap_err();
        assert!(err.message.contains("required attribute"), "{err}");
    }
}
