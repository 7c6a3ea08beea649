//! Query templates with update-time placeholders.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use xic_datalog::Value;
use xic_xml::{Document, NodeId};

/// How a placeholder is rendered at instantiation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// A node identifier: rendered as the node's absolute positional path
    /// (`/review/track[2]/rev[5]`).
    NodePath,
    /// A data value: rendered as a string or numeric literal.
    Value,
}

/// Instantiation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemplateError {
    /// A placeholder had no binding.
    Unbound(String),
    /// A node-path parameter did not resolve to an attached node.
    BadNode(String),
    /// A string value cannot be quoted in XQuery (contains both quote
    /// characters).
    Unquotable(String),
}

impl fmt::Display for TemplateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemplateError::Unbound(p) => write!(f, "unbound placeholder %{{{p}}}"),
            TemplateError::BadNode(p) => {
                write!(f, "placeholder %{{{p}}} does not denote an attached node")
            }
            TemplateError::Unquotable(s) => {
                write!(f, "value {s:?} contains both quote characters")
            }
        }
    }
}

impl std::error::Error for TemplateError {}

/// A translated query with `%{name}` placeholders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryTemplate {
    /// XQuery source text with placeholders.
    pub text: String,
    /// Placeholder kinds.
    pub params: BTreeMap<String, ParamKind>,
}

impl fmt::Display for QueryTemplate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl QueryTemplate {
    /// True if the template needs no update-time information (full,
    /// non-simplified checks).
    pub fn is_closed(&self) -> bool {
        self.params.is_empty()
    }

    /// Substitutes all placeholders, producing runnable XQuery text.
    ///
    /// Node-id parameters must be bound to `Value::Int` node ids valid in
    /// `doc`; value parameters to strings or integers.
    pub fn instantiate(
        &self,
        doc: &Document,
        bindings: &HashMap<String, Value>,
    ) -> Result<String, TemplateError> {
        let mut out = self.text.clone();
        for (name, kind) in &self.params {
            let value = bindings
                .get(name)
                .ok_or_else(|| TemplateError::Unbound(name.clone()))?;
            let rendered = match kind {
                ParamKind::NodePath => {
                    let id = value
                        .as_int()
                        .and_then(|i| u32::try_from(i).ok())
                        .ok_or_else(|| TemplateError::BadNode(name.clone()))?;
                    doc.positional_path(NodeId(id))
                        .ok_or_else(|| TemplateError::BadNode(name.clone()))?
                }
                ParamKind::Value => match value {
                    Value::Int(i) => i.to_string(),
                    Value::Str(s) => quote(s)?,
                },
            };
            out = out.replace(&format!("%{{{name}}}"), &rendered);
        }
        Ok(out)
    }
}

/// Quotes a string as an XQuery literal (the shared lexer supports both
/// quote characters but no escapes).
pub fn quote(s: &str) -> Result<String, TemplateError> {
    if !s.contains('"') {
        Ok(format!("\"{s}\""))
    } else if !s.contains('\'') {
        Ok(format!("'{s}'"))
    } else {
        Err(TemplateError::Unquotable(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_xml::parse_document;

    #[test]
    fn instantiate_node_and_value() {
        let (doc, _) = parse_document(
            "<review><track><name>A</name></track><track><name>B</name>\
             <rev><name>R</name></rev></track></review>",
        )
        .unwrap();
        let rev = doc
            .descendants(doc.document_node())
            .find(|&n| doc.name(n) == Some("rev"))
            .unwrap();
        let t = QueryTemplate {
            text: "some $d in //aut satisfies $d/name/text() = %{n} and \
                   %{ir}/name/text() = $d/name/text()"
                .to_string(),
            params: [
                ("n".to_string(), ParamKind::Value),
                ("ir".to_string(), ParamKind::NodePath),
            ]
            .into(),
        };
        let mut b = HashMap::new();
        b.insert("n".to_string(), Value::from("Jack"));
        b.insert("ir".to_string(), Value::Int(i64::from(rev.0)));
        let q = t.instantiate(&doc, &b).unwrap();
        assert!(q.contains("\"Jack\""), "{q}");
        assert!(q.contains("/review/track[2]/rev[1]/name/text()"), "{q}");
    }

    #[test]
    fn unbound_and_bad_node() {
        let (doc, _) = parse_document("<r/>").unwrap();
        let t = QueryTemplate {
            text: "%{x}".to_string(),
            params: [("x".to_string(), ParamKind::NodePath)].into(),
        };
        assert!(matches!(
            t.instantiate(&doc, &HashMap::new()),
            Err(TemplateError::Unbound(_))
        ));
        let mut b = HashMap::new();
        b.insert("x".to_string(), Value::from("oops"));
        assert!(matches!(
            t.instantiate(&doc, &b),
            Err(TemplateError::BadNode(_))
        ));
    }

    #[test]
    fn quoting() {
        assert_eq!(quote("plain").unwrap(), "\"plain\"");
        assert_eq!(quote("it\"s").unwrap(), "'it\"s'");
        assert!(quote("both\"'quotes").is_err());
    }
}
