//! The XPath 1.0 value model: node-sets, strings, numbers, booleans.

use std::borrow::Cow;
use std::collections::HashSet;
use xic_xml::{Document, NodeId, NodeKind};

/// A reference to a tree node or an attribute "node".
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeRef {
    /// A tree node (document, element, text, comment, PI).
    Node(NodeId),
    /// An attribute of an element.
    Attr {
        /// Owning element.
        owner: NodeId,
        /// Attribute name.
        name: String,
    },
}

impl NodeRef {
    /// The owning tree node (the element itself for attributes).
    pub fn anchor(&self) -> NodeId {
        match self {
            NodeRef::Node(n) => *n,
            NodeRef::Attr { owner, .. } => *owner,
        }
    }

    /// The XPath string-value of this node.
    pub fn string_value(&self, doc: &Document) -> String {
        self.str_value(doc).into_owned()
    }

    /// [`NodeRef::string_value`] without the copy where the document
    /// already holds the text (text, comment, PI and attribute nodes);
    /// only an element's concatenated content is built.
    pub fn str_value<'d>(&self, doc: &'d Document) -> Cow<'d, str> {
        match self {
            NodeRef::Node(n) => match &doc.node(*n).kind {
                NodeKind::Text(t) | NodeKind::Comment(t) => Cow::Borrowed(t),
                NodeKind::Pi { data, .. } => Cow::Borrowed(data),
                _ => Cow::Owned(doc.text_content(*n)),
            },
            NodeRef::Attr { owner, name } => {
                Cow::Borrowed(doc.attr(*owner, name).unwrap_or_default())
            }
        }
    }
}

/// An XPath value.
#[derive(Debug, Clone, PartialEq)]
pub enum XValue {
    /// A node-set without duplicates: in document order where its
    /// consumer observes the order, else in none (see [`crate::ir`]).
    Nodes(Vec<NodeRef>),
    /// A string.
    Str(String),
    /// A number (IEEE double, as in XPath 1.0).
    Num(f64),
    /// A boolean.
    Bool(bool),
}

impl XValue {
    /// Boolean coercion (XPath 1.0 `boolean()`).
    pub fn to_bool(&self) -> bool {
        match self {
            XValue::Nodes(ns) => !ns.is_empty(),
            XValue::Str(s) => !s.is_empty(),
            XValue::Num(n) => *n != 0.0 && !n.is_nan(),
            XValue::Bool(b) => *b,
        }
    }

    /// String coercion (XPath 1.0 `string()`): first node's string-value
    /// for node-sets.
    pub fn to_str(&self, doc: &Document) -> String {
        match self {
            XValue::Nodes(ns) => ns.first().map(|n| n.string_value(doc)).unwrap_or_default(),
            XValue::Str(s) => s.clone(),
            XValue::Num(n) => format_number(*n),
            XValue::Bool(b) => b.to_string(),
        }
    }

    /// Number coercion (XPath 1.0 `number()`).
    pub fn to_num(&self, doc: &Document) -> f64 {
        match self {
            XValue::Num(n) => *n,
            XValue::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            other => {
                let s = other.to_str(doc);
                s.trim().parse::<f64>().unwrap_or(f64::NAN)
            }
        }
    }

    /// The node-set, if this is one.
    pub fn as_nodes(&self) -> Option<&[NodeRef]> {
        match self {
            XValue::Nodes(ns) => Some(ns),
            _ => None,
        }
    }
}

/// The string values one side of an XPath `=` offers, ready to be met:
/// `K = O`, `K` a node-set and `O` a string or node-set, holds iff a node
/// of `K` has one of `O`'s values. One value is kept as it is; more are
/// hashed, so meeting them costs a lookup per node of `K`, not a compare
/// per pair.
#[derive(Debug)]
pub enum ValueSet<'a> {
    /// A single value.
    One(Cow<'a, str>),
    /// None, or several.
    Many(HashSet<Cow<'a, str>>),
}

impl<'a> ValueSet<'a> {
    /// `O`'s values, or `None` when `O` is a number or boolean, for which
    /// `=` is not a comparison of string values.
    pub fn of(outer: &'a XValue, doc: &'a Document) -> Option<ValueSet<'a>> {
        match outer {
            XValue::Str(s) => Some(ValueSet::One(Cow::Borrowed(s))),
            XValue::Nodes(ns) => Some(ValueSet::of_nodes(ns, doc)),
            XValue::Num(_) | XValue::Bool(_) => None,
        }
    }

    /// The string values of `nodes`.
    pub fn of_nodes(nodes: &[NodeRef], doc: &'a Document) -> ValueSet<'a> {
        match nodes {
            [one] => ValueSet::One(one.str_value(doc)),
            _ => ValueSet::Many(nodes.iter().map(|n| n.str_value(doc)).collect()),
        }
    }

    /// Whether `value` is one of the values.
    pub fn contains(&self, value: &str) -> bool {
        match self {
            ValueSet::One(v) => v == value,
            ValueSet::Many(vs) => vs.contains(value),
        }
    }

    /// Whether a node of `nodes` has one of the values: `nodes = O`.
    pub fn met_by(&self, nodes: &[NodeRef], doc: &Document) -> bool {
        nodes.iter().any(|n| self.contains(&n.str_value(doc)))
    }
}

/// XPath 1.0 number formatting: integers render without a decimal point.
pub fn format_number(n: f64) -> String {
    if n.is_nan() {
        "NaN".to_string()
    } else if n.is_infinite() {
        if n > 0.0 { "Infinity" } else { "-Infinity" }.to_string()
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_xml::parse_document;

    #[test]
    fn coercions() {
        let (doc, _) = parse_document("<a x=\"7\">text</a>").unwrap();
        assert!(XValue::Str("x".into()).to_bool());
        assert!(!XValue::Str(String::new()).to_bool());
        assert!(XValue::Num(1.5).to_bool());
        assert!(!XValue::Num(0.0).to_bool());
        assert!(!XValue::Num(f64::NAN).to_bool());
        assert!(!XValue::Nodes(vec![]).to_bool());
        assert_eq!(XValue::Num(3.0).to_str(&doc), "3");
        assert_eq!(XValue::Num(3.5).to_str(&doc), "3.5");
        assert_eq!(XValue::Bool(true).to_str(&doc), "true");
        assert_eq!(XValue::Str("4.5".into()).to_num(&doc), 4.5);
        assert!(XValue::Str("zz".into()).to_num(&doc).is_nan());
    }

    #[test]
    fn node_string_values() {
        let (doc, _) = parse_document("<a x=\"7\"><b>hi</b> there</a>").unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(NodeRef::Node(root).string_value(&doc), "hi there");
        let attr = NodeRef::Attr {
            owner: root,
            name: "x".into(),
        };
        assert_eq!(attr.string_value(&doc), "7");
        assert_eq!(attr.anchor(), root);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(42.0), "42");
        assert_eq!(format_number(-1.25), "-1.25");
        assert_eq!(format_number(f64::NAN), "NaN");
        assert_eq!(format_number(f64::INFINITY), "Infinity");
    }
}
