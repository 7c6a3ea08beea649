//! An XPath 1.0 subset engine over `xic-xml` documents.
//!
//! Supported: all the axes the paper's XPathLog uses (child, attribute,
//! parent, ancestor, descendant, self, preceding-sibling,
//! following-sibling, plus the `-or-self` variants), name/wildcard/text()/
//! node()/comment() node tests, full predicate expressions with
//! `position()`/`last()`, the abbreviations `//`, `@`, `.` and `..`,
//! variable references (used by the XQuery layer), the XPath 1.0 value
//! model (node-set / string / number / boolean) with its coercion and
//! existential comparison rules, and a core function library.
//!
//! # Example
//!
//! ```
//! use xic_xml::parse_document;
//! use xic_xpath::{evaluate, parse as parse_xpath, Context, XValue};
//!
//! let (doc, _) = parse_document(
//!     "<review><track><name>DB</name><rev><name>Ann</name></rev></track></review>",
//! ).unwrap();
//! let path = parse_xpath("//rev/name/text()").unwrap();
//! let ctx = Context::root(&doc);
//! match evaluate(&path, &ctx).unwrap() {
//!     XValue::Nodes(ns) => assert_eq!(ns.len(), 1),
//!     other => panic!("{other:?}"),
//! }
//! ```
//!
//! There is one evaluator: [`ir`] compiles an expression into a flat
//! program once and runs it many times; [`evaluate`], [`evaluate_nodes`]
//! and [`evaluate_exists`] are the one-shot forms (compile, then run).
//!
//! In the system-inventory table of `DESIGN.md` this crate is item 4 (XPath engine).

pub mod ast;
pub mod budget;
pub mod eval;
pub mod ir;
pub mod lexer;
pub mod parser;
pub mod value;

pub use ast::{Axis, BinOp, Expr, NodeTest, Path, PathStart, Step};
pub use budget::{BudgetGuard, EvalBudget};
pub use eval::{
    compare_values, dedup_nodes, evaluate, evaluate_exists, evaluate_nodes,
    evaluate_nonempty, Context, EvalError,
};
pub use parser::{parse, XPathParseError, P};
pub use lexer::{tokenize, Tok};
pub use value::{NodeRef, ValueSet, XValue};
