//! `xicheck` — efficient incremental integrity checking over XML
//! documents, a from-scratch reproduction of Braga, Campi & Martinenghi,
//! *Efficient Integrity Checking over XML Documents* (EDBT 2006).
//!
//! The [`Checker`] owns an XML document (with its DTD) and a set of
//! declarative XPathLog constraints. At **schema design time** it compiles
//! constraints through the paper's pipeline:
//!
//! ```text
//! XPathLog ──map──▶ Datalog denials ──Simp^U_Δ──▶ optimized denials ──▶ XQuery templates
//! ```
//!
//! Registering an *update pattern* (an example XUpdate statement)
//! precomputes the pattern's simplified, parameterized checks. At
//! **runtime**, [`Checker::try_update`] recognizes the incoming
//! statement's pattern and evaluates the optimized check *before* touching
//! the document — illegal updates are rejected without ever being
//! executed. Unrecognized or unsupported statements fall back to the
//! baseline strategy: apply to a copy, run the full check, drop the copy
//! on violation (Section 7's un-optimized curve).
//!
//! # Quickstart
//!
//! ```
//! use xicheck::Checker;
//!
//! let dtd = "<!ELEMENT db (person)*>\
//!            <!ELEMENT person (name, age)>\
//!            <!ELEMENT name (#PCDATA)><!ELEMENT age (#PCDATA)>";
//! let doc = "<db><person><name>ann</name><age>40</age></person></db>";
//! // No two persons may share a name.
//! let constraint = "<- //person[name/text() -> N] -> P \
//!                   & //person[name/text() -> M] -> Q \
//!                   & N = M & not P = Q";
//! let mut checker = Checker::new(doc, dtd, constraint).unwrap();
//!
//! let ok = checker.try_update_str(
//!     r#"<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
//!          <xupdate:append select="/db">
//!            <person><name>bob</name><age>41</age></person>
//!          </xupdate:append>
//!        </xupdate:modifications>"#,
//! ).unwrap();
//! assert!(ok.applied());
//!
//! let dup = checker.try_update_str(
//!     r#"<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
//!          <xupdate:append select="/db">
//!            <person><name>ann</name><age>22</age></person>
//!          </xupdate:append>
//!        </xupdate:modifications>"#,
//! ).unwrap();
//! assert!(!dup.applied());
//! ```
//!
//! # Running concurrently
//!
//! A `Checker` is deliberately single-writer (`&mut self` everywhere).
//! To serve concurrent clients, wrap it in a
//! [`service::CheckerService`]: readers get immutable versioned
//! [`service::ReadSnapshot`]s, and submitters commit their own updates:
//! the one that finds no batch running leads the next under the commit
//! lock, and statements queued meanwhile join it (one shared fsync per
//! batch).
//! The [`protocol`] module puts a line-oriented wire protocol on top;
//! the `xic-serve` binary serves it over stdin/stdout or a Unix socket.
//!
//! # Layout
//!
//! [`checker`] is the façade and the update path: every statement is
//! applied to a copy of the document, a commit makes the copy the new
//! version and a refusal drops it. What it evaluates lives beside it:
//! [`gamma`] (the compiled constraint set — everything a decision reads
//! besides the document, the pattern store included — and the one
//! baseline evaluator: apply to a copy, check all of Γ in it) and
//! [`optimized`] (the one pre-update evaluator), both shared by the
//! writer and every snapshot reader. [`durability`] owns the commit
//! log and the replay half of crash recovery; the on-disk side — one
//! durable log, [`Store`], generation 0 of which is a plain write-ahead
//! journal — lives in `xic_xml::checkpoint`. Settings are fixed where
//! they are given: a store's sync mode is an argument of the call that
//! attaches or recovers it and is never changed afterwards, the
//! independence analysis is on or off with the Γ that was compiled
//! ([`SharedGamma::compile_unmasked`]), the checkpoint
//! retention window is a constant, and only the rotation policy
//! ([`Checker::set_checkpoint_policy`]) may be set later. A store's
//! `Dir` is given with it ([`Checker::attach_store_in`],
//! [`ShardSet::create_in`]; else the real one), and so is an injected
//! fault (a test's `xic_faults::Faulty`). There is no process-wide
//! default of any kind.
//!
//! In the system-inventory table of `DESIGN.md` this crate is item 11
//! (integrity-checking façade); the service layer is item 19, the
//! evaluators items 25–26, the commit log item 27.

pub mod checker;
mod commit_protocol;
pub mod compile;
pub mod durability;
pub mod footprint;
pub mod gamma;
pub mod optimized;
pub mod protocol;
pub mod resolver;
pub mod service;
pub mod shards;

pub use checker::{Checker, CheckerError, Strategy, UpdateOutcome, Violation};
pub use durability::{CheckpointPolicy, RecoveryReport};
pub use gamma::SharedGamma;
pub use optimized::PatternCache;
pub use shards::{
    ShardHealth, ShardSet, ShardSetConfig, ShardSetError, ShardSetRecoveryReport, ShardStatus,
};
pub use service::{
    apply_batch, BatchDisposition, BatchOutcome, BatchStmt, CheckerService,
    Executor, Health, ReadSnapshot, ServiceConfig, ServiceError, ServiceStats, SubmitOutcome,
    DEADLINE_STEPS_PER_MS,
};
pub use compile::{compile_pattern, CompiledPattern};
pub use footprint::IndependenceIndex;
pub use resolver::xpath_resolver;

// Re-exports for downstream users (examples, benches, tests).
pub use xic_obs as obs;

pub use xic_mapping::RelSchema;
pub use xic_simplify::{
    freshness_hypotheses, live_set, read_footprint, read_footprints, simp, simp_live,
    update_write_footprint, FreshSpec, ReadFootprint, SimpConfig, Simplified, WriteFootprint,
    WriteSet,
};
pub use xic_translate::QueryTemplate;
pub use xic_xml::{
    parse_document, serialize, serialize_equal, Checkpoint, CheckpointError, Document, Dtd,
    Journal, JournalError, Store, XUpdateDoc,
};
pub use xic_xpath::EvalBudget;
pub use xic_xpathlog::LDenial;
