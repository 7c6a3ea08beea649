//! In-memory XML store: ordered tree arena, parser, serializer, DTD
//! validation, XUpdate application and compensating rollback.
//!
//! This crate is the "XML repository" substrate of the reproduction (the
//! paper used eXist). Design points that matter for the experiments:
//!
//! * **Stable node identifiers.** Nodes live in an arena and are addressed
//!   by [`NodeId`]; identifiers are allocated from a monotone counter and
//!   never reused, which is exactly the freshness property the constraint
//!   simplifier's Δ hypotheses rely on (Section 5, Example 6).
//! * **Interned tag names.** Every element caches the [`Symbol`] of its
//!   tag name (kept up to date across renames), so the compiled query
//!   engine matches `//tag` steps by integer comparison;
//!   [`Document::audit_symbols`] checks the cache against the names.
//! * **Versions that share what they did not write.** A clone shares
//!   the arena's chunks, the per-tag lists, the value indexes and the
//!   symbol table, and a write copies only the chunk, leaf or table it
//!   touches ([`shared`]): a commit costs what it wrote.
//! * **Ordered children with positions.** The XML data model is ordered;
//!   positions (1-based, counted over element children) are what the
//!   relational mapping exposes in each predicate's second column.
//! * **Compensating rollback.** [`xupdate`] application produces an undo
//!   log; `undo` restores the pre-update state, which is how the paper
//!   simulates rollback after a failed post-update check (Section 7).
//!
//! In the system-inventory table of `DESIGN.md` this crate is items 1–3 (XML store, DTD validator, XUpdate/rollback).

mod build;
pub mod checkpoint;
pub mod dir;
pub mod dtd;
pub mod escape;
pub mod intern;
pub mod journal;
pub mod parse;
pub mod serialize;
pub mod shared;
pub mod tree;
pub mod xupdate;

pub use checkpoint::{Checkpoint, CheckpointError, Store};
pub use dtd::{ContentModel, Dtd, ElementDecl, ValidationError};
pub use intern::{Symbol, SymbolTable};
pub use journal::{Journal, JournalError, JournalRecord, RecordKind, Recovered};
pub use parse::{parse_document, XmlError};
pub use serialize::{serialize, serialize_equal, serialize_node};
pub use shared::{Children, ListIter, SharedVec};
pub use tree::{Attr, Descendants, Document, Node, NodeId, NodeKind};
pub use xupdate::{
    apply, undo, AppliedUpdate, SelectError, SelectResolver, UndoEntry, XUpdateDoc, XUpdateError,
    XUpdateOp,
};
