//! An XQuery subset engine — the runtime check evaluator of Section 6.
//!
//! The paper's pipeline compiles (simplified) Datalog denials into XQuery
//! expressions and evaluates them against the XML repository (the authors
//! used eXist; since no XQuery engine exists for Rust, this crate
//! implements the required fragment from scratch):
//!
//! * quantified expressions: `some/every $x in … satisfies …`;
//! * FLWOR: interleaved `for`/`let` clauses, `where`, `return`;
//! * conditionals: `if (…) then … else …`;
//! * sequence expressions `(e1, e2, …)` and the empty sequence `()`;
//! * element construction: `<idle/>` literals and computed
//!   `element name { … }` constructors;
//! * the XQuery functions `exists()` and `empty()`, plus everything from
//!   the embedded XPath core library (`count`, `not`, `string`, …);
//! * full XPath path expressions (shared lexer/parser/evaluator with
//!   `xic-xpath`), including general comparisons with XPath semantics.
//!
//! # Example — the paper's translated aggregate constraint
//!
//! ```
//! use xic_xml::parse_document;
//! use xic_xquery::{eval_query_bool, parse_query};
//!
//! let (doc, _) = parse_document(
//!     "<review><track><name>T</name>\
//!        <rev><name>Ann</name>\
//!          <sub><title>A</title><auts><name>x</name></auts></sub>\
//!          <sub><title>B</title><auts><name>y</name></auts></sub>\
//!        </rev></track></review>",
//! ).unwrap();
//! let q = parse_query(
//!     "exists(for $lr in //rev let $d := $lr/sub where count($d) > 4 return <idle/>)",
//! ).unwrap();
//! assert!(!eval_query_bool(&q, &doc).unwrap()); // only 2 subs: no violation
//! ```
//!
//! There is one evaluator: [`XProgram`] is a query compiled once (the
//! checker keeps one per constraint and per update-pattern template) and
//! [`eval_query`], [`eval_query_bool`] and [`eval_query_exists`] are the
//! one-shot forms (compile, then run).
//!
//! In the system-inventory table of `DESIGN.md` this crate is item 5 (XQuery engine).

pub mod ast;
pub mod eval;
pub mod ir;
pub mod item;
pub mod parser;

pub use ast::{Clause, XQuery};
pub use eval::{eval_query, eval_query_bool, eval_query_exists, XQueryError};
pub use ir::XProgram;
pub use item::{Constructed, Item, Sequence};
pub use parser::{parse_query, XQueryParseError};
