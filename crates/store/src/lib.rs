#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # swmon-store — indexed violation/provenance store
//!
//! Detection without interrogation does not scale: the runtime emits one
//! canonically merged `Vec` of violations, and "asking a question" about a
//! production run should not mean grepping `Display` output. This crate
//! turns the merged violation stream into a queryable artifact, in three
//! layers:
//!
//! 1. **Storage** ([`segment`], [`store`]) — an append-only violation log.
//!    A publish appends to an open, unindexed tail; a full tail is frozen
//!    into an immutable [`Segment`] — the unit of indexing and encoding,
//!    not of ingest — with secondary indexes: property name, interned
//!    binding values (keyed by [`swmon_core::VarId`] against each segment's
//!    [`swmon_core::VarTable`] — never re-stringified), originating shard,
//!    the `degraded` provenance flag, and a min/max time range for window
//!    pruning. Segments encode to the canonical `SWMS`-family byte framing
//!    ([`swmon_core::wire`]) under their own magic (`SWVS`), versioned and
//!    validate-before-read.
//! 2. **Query** ([`swql`], [`plan`]) — "SWQL", a small datalog-ish
//!    language: a query is a conjunction of atoms (`prop(P)`,
//!    `bind(var, value)`, `window(a, b)`, `degraded()`, `shard(S)`) with a
//!    top-level `or` across conjunctive branches, in the style of AxQL's
//!    basic graph patterns. The hand-rolled lexer/parser reports spanned
//!    diagnostics with stable `SQ00x` codes (mirroring `swmon-analysis`'s
//!    `SW00x` fixtures, reusing its [`swmon_analysis::Severity`] and JSON
//!    escaping). A planner picks the most selective index per branch; the
//!    executor returns violations in the same canonical order as the
//!    merged runtime output.
//! 3. **Live surface** ([`sink`]) — [`StoreSink`] implements
//!    [`swmon_runtime::ViolationSink`], so a long-running
//!    [`swmon_runtime::Session`] feeds the store what each batch raises,
//!    as the batch is applied, and seals it with the canonical merge at
//!    finish. Queries against a live store answer from a prefix-consistent
//!    snapshot (one lock acquisition per query) without perturbing the
//!    `unaccounted_loss == 0` contract.
//!
//! See `docs/STORE.md` for the SWQL grammar and the segment format.

pub mod plan;
pub mod segment;
pub mod sink;
pub mod store;
pub mod swql;

pub use plan::{BranchPlan, Driver, Plan};
pub use segment::{Check, Row, Segment, NO_SHARD, SEGMENT_MAGIC, SEGMENT_VERSION};
pub use sink::StoreSink;
pub use store::{QueryMatch, QueryOutput, Store, STORE_MAGIC, STORE_VERSION};
pub use swql::{parse, validate_properties, Atom, Branch, Code, Query, QueryError, Span};
