//! DTD parsing and validation.
//!
//! The paper's documents are governed by DTDs (Section 3.2); the schema
//! mapper (`xic-mapping`) consumes the parsed [`Dtd`] to derive the
//! relational schema, and the store validates documents and updates
//! against it. Content models are compiled to Thompson NFAs and matched by
//! subset simulation, so validation is linear in the number of children.

use crate::tree::{Document, NodeId, NodeKind};
use std::collections::HashMap;
use std::fmt;

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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dtd {
    elements: Vec<ElementDecl>,
    by_name: HashMap<String, usize>,
    /// Attribute declarations, in declaration order.
    pub attlists: Vec<AttDecl>,
}

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

    /// Adds an element declaration programmatically.
    pub fn add_element(&mut self, name: impl Into<String>, model: ContentModel) {
        let name = name.into();
        self.by_name.insert(name.clone(), self.elements.len());
        self.elements.push(ElementDecl { name, model });
    }

    /// Looks up an element declaration.
    pub fn element(&self, name: &str) -> Option<&ElementDecl> {
        self.by_name.get(name).map(|&i| &self.elements[i])
    }

    /// All element declarations, in declaration order.
    pub fn elements(&self) -> &[ElementDecl] {
        &self.elements
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
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            if let NodeKind::Element { name, .. } = &doc.node(n).kind {
                let decl = self.element(name).ok_or_else(|| ValidationError {
                    node: n,
                    message: format!("undeclared element <{name}>"),
                })?;
                self.validate_element(doc, n, &decl.model)?;
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

    fn validate_element(
        &self,
        doc: &Document,
        id: NodeId,
        model: &ContentModel,
    ) -> Result<(), ValidationError> {
        let children = &doc.node(id).children;
        let has_text = children
            .iter()
            .any(|&c| matches!(doc.node(c).kind, NodeKind::Text(_)));
        let names: Vec<&str> = children
            .iter()
            .filter_map(|&c| doc.name(c))
            .collect();
        match model {
            ContentModel::Any => Ok(()),
            ContentModel::Empty => {
                if has_text || !names.is_empty() {
                    Err(ValidationError {
                        node: id,
                        message: "EMPTY element has content".to_string(),
                    })
                } else {
                    Ok(())
                }
            }
            ContentModel::PcData => {
                if names.is_empty() {
                    Ok(())
                } else {
                    Err(ValidationError {
                        node: id,
                        message: "(#PCDATA) element has element children".to_string(),
                    })
                }
            }
            ContentModel::Mixed(allowed) => {
                for n in &names {
                    if !allowed.iter().any(|a| a == n) {
                        return Err(ValidationError {
                            node: id,
                            message: format!("element <{n}> not allowed in mixed content"),
                        });
                    }
                }
                Ok(())
            }
            regex => {
                if has_text {
                    return Err(ValidationError {
                        node: id,
                        message: "element content model does not allow text".to_string(),
                    });
                }
                let nfa = Nfa::compile(regex);
                if nfa.matches(&names) {
                    Ok(())
                } else {
                    Err(ValidationError {
                        node: id,
                        message: format!(
                            "children ({}) do not match content model {regex}",
                            names.join(", ")
                        ),
                    })
                }
            }
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
    let mut p = CmParser { src, pos: 0 };
    let model = p.group()?;
    p.skip_ws();
    if p.pos != src.len() {
        return Err(format!("trailing content-model input at byte {}", p.pos));
    }
    Ok(model)
}

struct CmParser<'a> {
    src: &'a str,
    pos: usize,
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
// Thompson NFA for content-model matching
// ---------------------------------------------------------------------

/// ε-NFA states: transitions on element names plus ε edges.
struct Nfa {
    /// state → (name, next)
    edges: Vec<Vec<(String, usize)>>,
    /// state → ε-successors
    eps: Vec<Vec<usize>>,
    accept: usize,
}

impl Nfa {
    fn compile(model: &ContentModel) -> Nfa {
        let mut nfa = Nfa {
            edges: vec![Vec::new()],
            eps: vec![Vec::new()],
            accept: 0,
        };
        let start = 0;
        let end = nfa.build(model, start);
        nfa.accept = end;
        nfa
    }

    fn new_state(&mut self) -> usize {
        self.edges.push(Vec::new());
        self.eps.push(Vec::new());
        self.edges.len() - 1
    }

    /// Builds the fragment for `model` starting at `from`; returns the
    /// fragment's exit state.
    fn build(&mut self, model: &ContentModel, from: usize) -> usize {
        match model {
            ContentModel::Name(n) => {
                let to = self.new_state();
                self.edges[from].push((n.clone(), to));
                to
            }
            ContentModel::Seq(parts) => {
                let mut cur = from;
                for p in parts {
                    cur = self.build(p, cur);
                }
                cur
            }
            ContentModel::Choice(parts) => {
                let out = self.new_state();
                for p in parts {
                    let branch_in = self.new_state();
                    self.eps[from].push(branch_in);
                    let branch_out = self.build(p, branch_in);
                    self.eps[branch_out].push(out);
                }
                out
            }
            ContentModel::Optional(p) => {
                let out = self.build(p, from);
                self.eps[from].push(out);
                out
            }
            ContentModel::Star(p) => {
                let body_in = self.new_state();
                let out = self.new_state();
                self.eps[from].push(body_in);
                self.eps[from].push(out);
                let body_out = self.build(p, body_in);
                self.eps[body_out].push(body_in);
                self.eps[body_out].push(out);
                out
            }
            ContentModel::Plus(p) => {
                let body_in = self.new_state();
                self.eps[from].push(body_in);
                let body_out = self.build(p, body_in);
                let out = self.new_state();
                self.eps[body_out].push(body_in);
                self.eps[body_out].push(out);
                out
            }
            // Leaf models handled before NFA compilation.
            ContentModel::Empty
            | ContentModel::Any
            | ContentModel::PcData
            | ContentModel::Mixed(_) => from,
        }
    }

    fn closure(&self, states: &mut [bool]) {
        let mut stack: Vec<usize> = states
            .iter()
            .enumerate()
            .filter(|(_, on)| **on)
            .map(|(i, _)| i)
            .collect();
        while let Some(s) = stack.pop() {
            for &n in &self.eps[s] {
                if !states[n] {
                    states[n] = true;
                    stack.push(n);
                }
            }
        }
    }

    fn matches(&self, names: &[&str]) -> bool {
        let mut cur = vec![false; self.edges.len()];
        cur[0] = true;
        self.closure(&mut cur);
        for name in names {
            let mut next = vec![false; self.edges.len()];
            for (s, on) in cur.iter().enumerate() {
                if !on {
                    continue;
                }
                for (label, to) in &self.edges[s] {
                    if label == name {
                        next[*to] = true;
                    }
                }
            }
            self.closure(&mut next);
            cur = next;
            if cur.iter().all(|&b| !b) {
                return false;
            }
        }
        cur[self.accept]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_document;

    fn cm(s: &str) -> ContentModel {
        parse_content_model(s).unwrap()
    }

    fn accepts(model: &str, names: &[&str]) -> bool {
        Nfa::compile(&cm(model)).matches(names)
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
