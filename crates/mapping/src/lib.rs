//! The XML ↔ relational mapping of Section 4.
//!
//! Four pieces, all driven by the document DTD:
//!
//! * [`schema`]: derives the relational schema — one predicate per node
//!   type with columns `(Id, Pos, IdParent, …)`, PCDATA-only exactly-once
//!   children compacted into their container's predicate, and
//!   container-only singleton elements (document roots such as `dblp` and
//!   `review`) dropped, exactly as in Section 4.1;
//! * [`shred`](shred()): materializes a document's relational image as a
//!   `xic-datalog` [`Database`](xic_datalog::Database) (used as the
//!   ground-truth semantics in tests, not at runtime);
//! * [`update_map`]: maps an XUpdate insertion statement (or a text
//!   update of one compacted column, as a modification) to a
//!   parameterized update transaction (Section 4.1's
//!   `{sub(id3, 7, id_r, "Taming Web Services"), auts(id4, 2, id3,
//!   "Jack")}`), identifying fresh node-id parameters and the concrete
//!   parameter bindings;
//! * [`constraint_map`]: compiles disjunction-free XPathLog denials into
//!   Datalog denials over that schema (Section 4.2).
//!
//! ## Deviations from the paper (documented in DESIGN.md)
//!
//! * Optional (`?`) PCDATA children are kept as their own predicates
//!   instead of nullable compacted columns: the Datalog substrate has no
//!   nulls, and this keeps every compacted column total.
//! * `Pos` is consistently the 1-based position among *all element
//!   children* (the paper's Section 4.1 example assigns `auts` position 2
//!   after `title`, but then gives the inserted 7th `sub` position 7
//!   rather than 8; we resolve the inconsistency in favour of the
//!   all-element-children reading and derive positional-path offsets from
//!   the content model).
//!
//! In the system-inventory table of `DESIGN.md` this crate is item 8 (XML↔relational mapping).

pub mod constraint_map;
pub mod schema;
pub mod shred;
pub mod update_map;

pub use constraint_map::{map_constraint, map_denials, MapError};
pub use schema::{PredInfo, RelSchema};
pub use shred::shred;
pub use update_map::{map_update, pattern_key, MappedUpdate, UpdateMapError};
