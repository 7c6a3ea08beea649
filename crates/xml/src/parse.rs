//! A hand-written XML parser for the subset needed by the system:
//! elements, attributes, text with entity references, CDATA, comments,
//! processing instructions, an optional XML declaration, and an optional
//! DOCTYPE with an internal DTD subset (handed to [`crate::dtd`]).
//!
//! Namespaces are not resolved: qualified names are kept verbatim
//! (`xupdate:insert-after` stays one string), which is all the XUpdate
//! front-end needs.

use crate::build::DocumentBuilder;
use crate::dtd::Dtd;
use crate::escape::resolve_entity;
use crate::tree::{Document, NodeId};
use std::fmt;

/// A parse failure with line/column information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at {}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for XmlError {}

/// The byte length of the longest XML name `text` starts with (0 when it
/// starts with none): a letter or `_`, then letters, digits, `_`, `-`,
/// `.` and `:`. The one name rule of this crate — the parser reads
/// element and attribute names by it, and an XUpdate statement may only
/// create or rename to a name that passes [`is_name`].
pub(crate) fn name_len(text: &str) -> usize {
    let mut end = 0;
    for (i, c) in text.char_indices() {
        let ok = if i == 0 {
            c.is_alphabetic() || c == '_'
        } else {
            c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':')
        };
        if !ok {
            break;
        }
        end = i + c.len_utf8();
    }
    end
}

/// True when all of `text` is one XML name (see [`name_len`]).
pub(crate) fn is_name(text: &str) -> bool {
    !text.is_empty() && name_len(text) == text.len()
}

/// Parses a complete XML document. Returns the document and the DTD
/// declared in the internal subset, if any.
pub fn parse_document(input: &str) -> Result<(Document, Option<Dtd>), XmlError> {
    parse(input, DocumentBuilder::new()).map(|(doc, _, dtd)| (doc, dtd))
}

/// Parses a complete XML document but leaves its root element detached,
/// so nothing is indexed: for a tree that is read once and dropped (an
/// XUpdate statement). Returns the document and its root element.
pub(crate) fn parse_unindexed(input: &str) -> Result<(Document, NodeId), XmlError> {
    parse(input, DocumentBuilder::unlinked()).map(|(doc, root, _)| (doc, root))
}

/// Parses `input` into `doc`, a builder holding the document node alone,
/// in document order.
fn parse(input: &str, mut doc: DocumentBuilder) -> Result<(Document, NodeId, Option<Dtd>), XmlError> {
    let mut p = Parser::new(input);
    let mut dtd = None;
    p.skip_ws();
    // Optional XML declaration.
    if p.rest().starts_with("<?xml") {
        let decl_end = p
            .rest()
            .find("?>")
            .ok_or_else(|| p.error("unterminated XML declaration"))?;
        p.advance(decl_end + 2);
        p.skip_ws();
    }
    // Misc before root: comments, PIs, DOCTYPE.
    loop {
        p.skip_ws();
        if p.rest().starts_with("<!DOCTYPE") {
            dtd = Some(p.doctype()?);
        } else if !p.misc(&mut doc)? {
            break;
        }
    }
    p.skip_ws();
    if !p.rest().starts_with('<') {
        return Err(p.error("expected root element"));
    }
    let root = p.element(&mut doc)?;
    // Trailing misc.
    loop {
        p.skip_ws();
        if !p.misc(&mut doc)? {
            break;
        }
    }
    p.skip_ws();
    if !p.at_eof() {
        return Err(p.error("unexpected content after root element"));
    }
    Ok((doc.finish(), root, dtd))
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser { input, pos: 0 }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn at_eof(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn advance(&mut self, n: usize) {
        self.pos += n;
    }

    fn error(&self, message: impl Into<String>) -> XmlError {
        let consumed = &self.input[..self.pos];
        let line = consumed.matches('\n').count() + 1;
        let col = consumed
            .rsplit('\n')
            .next()
            .map_or(1, |l| l.chars().count() + 1);
        XmlError {
            line,
            col,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.rest().chars().next() {
            if c.is_whitespace() {
                self.advance(c.len_utf8());
            } else {
                break;
            }
        }
    }

    fn name(&mut self) -> Result<&'a str, XmlError> {
        let end = name_len(self.rest());
        if end == 0 {
            return Err(self.error("expected a name"));
        }
        let s = &self.rest()[..end];
        self.advance(end);
        Ok(s)
    }

    fn expect(&mut self, s: &str) -> Result<(), XmlError> {
        if self.rest().starts_with(s) {
            self.advance(s.len());
            Ok(())
        } else {
            Err(self.error(format!("expected {s:?}")))
        }
    }

    /// A comment or a processing instruction, if one is next, appended to
    /// the innermost open node of `doc`: whether one was.
    fn misc(&mut self, doc: &mut DocumentBuilder) -> Result<bool, XmlError> {
        if self.rest().starts_with("<!--") {
            doc.comment(self.comment()?);
        } else if self.rest().starts_with("<?") {
            let (target, data) = self.pi()?;
            doc.pi(target, data);
        } else {
            return Ok(false);
        }
        Ok(true)
    }

    fn comment(&mut self) -> Result<&'a str, XmlError> {
        self.expect("<!--")?;
        let end = self
            .rest()
            .find("-->")
            .ok_or_else(|| self.error("unterminated comment"))?;
        let body = &self.rest()[..end];
        self.advance(end + 3);
        Ok(body)
    }

    fn pi(&mut self) -> Result<(&'a str, &'a str), XmlError> {
        self.expect("<?")?;
        let target = self.name()?;
        let end = self
            .rest()
            .find("?>")
            .ok_or_else(|| self.error("unterminated processing instruction"))?;
        let data = self.rest()[..end].trim();
        self.advance(end + 2);
        Ok((target, data))
    }

    fn doctype(&mut self) -> Result<Dtd, XmlError> {
        self.expect("<!DOCTYPE")?;
        self.skip_ws();
        let _root_name = self.name()?;
        self.skip_ws();
        // External id (SYSTEM/PUBLIC) is skipped if present.
        if self.rest().starts_with("SYSTEM") || self.rest().starts_with("PUBLIC") {
            while let Some(c) = self.rest().chars().next() {
                if c == '[' || c == '>' {
                    break;
                }
                self.advance(c.len_utf8());
            }
        }
        self.skip_ws();
        let dtd = if self.rest().starts_with('[') {
            self.advance(1);
            let end = self
                .rest()
                .find(']')
                .ok_or_else(|| self.error("unterminated DTD internal subset"))?;
            let subset = &self.rest()[..end];
            let parsed = Dtd::parse(subset).map_err(|e| self.error(e))?;
            self.advance(end + 1);
            parsed
        } else {
            Dtd::default()
        };
        self.skip_ws();
        self.expect(">")?;
        Ok(dtd)
    }

    fn attr_value(&mut self) -> Result<String, XmlError> {
        let quote = self
            .rest()
            .chars()
            .next()
            .filter(|c| *c == '"' || *c == '\'')
            .ok_or_else(|| self.error("expected quoted attribute value"))?;
        self.advance(1);
        let mut out = String::new();
        loop {
            let rest = self.rest();
            // The run up to the closing quote or the next entity is copied whole.
            let run = rest.bytes().position(|b| b == quote as u8 || b == b'&');
            let Some(run) = run else {
                self.advance(rest.len());
                return Err(self.error("unterminated attribute value"));
            };
            out.push_str(&rest[..run]);
            self.advance(run);
            if self.rest().starts_with(quote) {
                self.advance(1);
                return Ok(out);
            }
            out.push(self.entity()?);
        }
    }

    fn entity(&mut self) -> Result<char, XmlError> {
        self.expect("&")?;
        let end = self.rest()[..self.rest().len().min(12)]
            .find(';')
            .ok_or_else(|| self.error("unterminated entity reference"))?;
        let body = &self.rest()[..end];
        let c = resolve_entity(body)
            .ok_or_else(|| self.error(format!("unknown entity &{body};")))?;
        self.advance(end + 1);
        Ok(c)
    }

    /// A start tag, `<name attr="…" …>` or the empty-element `<name …/>`:
    /// opens the new element in `doc` and returns it, its name, and
    /// whether the tag was empty.
    fn start_tag(&mut self, doc: &mut DocumentBuilder) -> Result<(NodeId, &'a str, bool), XmlError> {
        self.expect("<")?;
        let name = self.name()?;
        let el = doc.start_element(name);
        loop {
            self.skip_ws();
            let rest = self.rest();
            if rest.starts_with("/>") {
                self.advance(2);
                return Ok((el, name, true));
            }
            if rest.starts_with('>') {
                self.advance(1);
                return Ok((el, name, false));
            }
            let attr_name = self.name()?;
            self.skip_ws();
            self.expect("=")?;
            self.skip_ws();
            let value = self.attr_value()?;
            doc.attr(attr_name, value);
        }
    }

    /// The element whose start tag is next, with everything inside it,
    /// built into `doc`; returns the element.
    ///
    /// Iterative at any depth: the names of the open elements are a heap
    /// stack, not call frames. Character data accumulates in one buffer —
    /// only the innermost open element has any pending, since it is
    /// flushed before every child — and is flushed as a text node.
    fn element(&mut self, doc: &mut DocumentBuilder) -> Result<NodeId, XmlError> {
        let mut open: Vec<&'a str> = Vec::new();
        let mut text = String::new();
        let mut root = None;
        loop {
            let (el, name, empty) = self.start_tag(doc)?;
            root.get_or_insert(el);
            if empty {
                doc.end_element();
            } else {
                open.push(name);
            }
            // Content of the innermost open element, up to a child's start tag.
            loop {
                let Some(&name) = open.last() else {
                    return Ok(root.expect("an element was opened"));
                };
                let rest = self.rest();
                if rest.is_empty() {
                    return Err(self.error(format!("unterminated element <{name}>")));
                }
                if rest.starts_with("</") {
                    flush_text(doc, &mut text);
                    self.advance(2);
                    let close = self.name()?;
                    if close != name {
                        return Err(self.error(format!(
                            "mismatched closing tag: expected </{name}>, found </{close}>"
                        )));
                    }
                    self.skip_ws();
                    self.expect(">")?;
                    open.pop();
                    doc.end_element();
                } else if rest.starts_with("<![CDATA[") {
                    self.advance("<![CDATA[".len());
                    let end = self
                        .rest()
                        .find("]]>")
                        .ok_or_else(|| self.error("unterminated CDATA section"))?;
                    text.push_str(&self.rest()[..end]);
                    self.advance(end + 3);
                } else if rest.starts_with("<!--") || rest.starts_with("<?") {
                    flush_text(doc, &mut text);
                    self.misc(doc)?;
                } else if rest.starts_with('<') {
                    flush_text(doc, &mut text);
                    break;
                } else if rest.starts_with('&') {
                    text.push(self.entity()?);
                } else {
                    // The run up to the next markup or entity is copied whole.
                    let run = rest.bytes().position(|b| b == b'<' || b == b'&').unwrap_or(rest.len());
                    text.push_str(&rest[..run]);
                    self.advance(run);
                }
            }
        }
    }
}

/// Emits accumulated character data as a text node, unless it is entirely
/// whitespace adjacent to markup, which the builder drops (whitespace-only
/// runs between elements are not significant for the data-centric
/// documents this system processes, and dropping them keeps the
/// relational mapping clean).
fn flush_text(doc: &mut DocumentBuilder, text: &mut String) {
    doc.text(text);
    text.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::serialize;

    #[test]
    fn parse_simple() {
        let (doc, dtd) = parse_document("<pub><title>T</title><aut><name>N</name></aut></pub>")
            .unwrap();
        assert!(dtd.is_none());
        let root = doc.root_element().unwrap();
        assert_eq!(doc.name(root), Some("pub"));
        assert_eq!(doc.element_children(root).len(), 2);
        assert_eq!(doc.text_content(root), "TN");
    }

    #[test]
    fn roundtrip() {
        let src = "<a x=\"1\"><b>hi &amp; bye</b><c/><!--note--><?p d?></a>";
        let (doc, _) = parse_document(src).unwrap();
        assert_eq!(serialize(&doc), src);
    }

    #[test]
    fn xml_decl_and_whitespace() {
        let src = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<r>\n  <x/>\n</r>\n";
        let (doc, _) = parse_document(src).unwrap();
        let root = doc.root_element().unwrap();
        // Whitespace-only runs are dropped.
        assert_eq!(doc.node(root).children.len(), 1);
    }

    #[test]
    fn entities_in_text_and_attrs() {
        let (doc, _) =
            parse_document("<r a=\"x&lt;y\">&#65;&amp;&#x42;</r>").unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.attr(root, "a"), Some("x<y"));
        assert_eq!(doc.text_content(root), "A&B");
    }

    #[test]
    fn cdata() {
        let (doc, _) = parse_document("<r><![CDATA[a < b & c]]></r>").unwrap();
        assert_eq!(doc.text_content(doc.root_element().unwrap()), "a < b & c");
    }

    #[test]
    fn doctype_with_internal_subset() {
        let src = "<!DOCTYPE dblp [\n<!ELEMENT dblp (pub)*>\n<!ELEMENT pub (title, aut+)>\n<!ELEMENT title (#PCDATA)>\n<!ELEMENT aut (name)>\n<!ELEMENT name (#PCDATA)>\n]>\n<dblp/>";
        let (doc, dtd) = parse_document(src).unwrap();
        assert!(doc.root_element().is_some());
        let dtd = dtd.expect("dtd parsed");
        assert!(dtd.element("pub").is_some());
        assert!(dtd.element("zzz").is_none());
    }

    #[test]
    fn namespaced_names_kept_verbatim() {
        let src = "<xupdate:modifications xmlns:xupdate=\"http://www.xmldb.org/xupdate\"><xupdate:insert-after select=\"/a/b[1]\"/></xupdate:modifications>";
        let (doc, _) = parse_document(src).unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.name(root), Some("xupdate:modifications"));
        let child = doc.element_children(root)[0];
        assert_eq!(doc.name(child), Some("xupdate:insert-after"));
        assert_eq!(doc.attr(child, "select"), Some("/a/b[1]"));
    }

    #[test]
    fn errors_report_position() {
        let err = parse_document("<a>\n  <b></c>\n</a>").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("mismatched"), "{err}");
        assert!(parse_document("<a>").is_err());
        assert!(parse_document("<a/><b/>").is_err());
        assert!(parse_document("plain text").is_err());
        assert!(parse_document("<a>&nope;</a>").is_err());
    }

    #[test]
    fn error_texts_and_positions() {
        for (src, text) in [
            ("<a>\n  <b></c>\n</a>", "XML error at 2:9: mismatched closing tag: expected </b>, found </c>"),
            ("<a><b>", "XML error at 1:7: unterminated element <b>"),
            ("<a><b></b>", "XML error at 1:11: unterminated element <a>"),
            ("<a x=1/>", "XML error at 1:6: expected quoted attribute value"),
            ("<a x=\"1/>", "XML error at 1:10: unterminated attribute value"),
            ("<a><b x></b></a>", "XML error at 1:8: expected \"=\""),
            ("<a></ >", "XML error at 1:6: expected a name"),
            ("<a></a >x", "XML error at 1:9: unexpected content after root element"),
            ("<a><!-- open</a>", "XML error at 1:8: unterminated comment"),
            ("<a><![CDATA[x</a>", "XML error at 1:13: unterminated CDATA section"),
            ("<a><?pi x</a>", "XML error at 1:8: unterminated processing instruction"),
            ("<a>&nope;</a>", "XML error at 1:5: unknown entity &nope;"),
            ("<a>\n<b>&amp</b></a>", "XML error at 2:5: unterminated entity reference"),
            ("<a><1/></a>", "XML error at 1:5: expected a name"),
            ("<a></b", "XML error at 1:7: mismatched closing tag: expected </a>, found </b>"),
        ] {
            let err = parse_document(src).unwrap_err();
            assert_eq!(err.to_string(), text, "{src:?}");
        }
    }

    /// A document one level deeper per element parses on a small stack: a
    /// checkpoint of one must recover.
    #[test]
    fn a_hundred_thousand_levels_parse_on_a_small_stack() {
        const DEPTH: usize = 100_000;
        let mut d = Document::new();
        // `<e k="v"><e k="v">…leaf…<!--c-->x</e><!--c-->x</e>`, from the leaf up.
        let mut below = d.create_text("leaf");
        for _ in 0..DEPTH {
            let e = d.create_element("e");
            d.set_attr(e, "k", "v");
            d.append_child(e, below);
            let c = d.create_comment("c");
            d.append_child(e, c);
            let x = d.create_text("x");
            d.append_child(e, x);
            below = e;
        }
        d.append_child(d.document_node(), below);
        let xml = serialize(&d);
        let back = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || parse_document(&xml).map(|(doc, _)| (serialize(&doc), xml)))
            .expect("thread spawns")
            .join()
            .expect("the parser does not overflow the stack");
        let (reparsed, xml) = back.expect("the serialized chain parses");
        assert!(reparsed == xml, "the chain round-trips byte for byte");
        assert!(xml.starts_with("<e k=\"v\"><e k=\"v\">") && xml.ends_with("<!--c-->x</e>"));
    }

    #[test]
    fn mixed_content_positions() {
        let (doc, _) = parse_document("<p>one<b>two</b>three</p>").unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.node(root).children.len(), 3);
        assert_eq!(doc.text_content(root), "onetwothree");
    }
}
