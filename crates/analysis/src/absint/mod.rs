//! Abstract interpretation over properties: the one evaluation every guard
//! lint and every proven fact reads.
//!
//! A property is a chain of stages, so the analysis is a single forward
//! walk down it — no control-flow graph, no solver, and a lattice with
//! `meet` only (knowledge accumulates along the chain; no two paths merge):
//!
//! * [`domain`] — the value lattice: constant propagation refined by
//!   unsigned intervals ([`AbsValue`]);
//! * [`env`] — the abstract environment over bound variables ([`AbsEnv`]);
//! * [`fields`] — per-field kinds and wire widths, seeding the intervals
//!   and pricing the resource model;
//! * [`transfer`] — the guard evaluator ([`transfer::eval`]): the
//!   post-binding environment plus every [`Finding`] — an atom index and a
//!   typed [`Reason`] the atom can never hold;
//! * [`walk`](mod@walk) — the stage walk ([`walk()`]): the environment
//!   awaiting each stage, each guard evaluated once in it;
//! * [`facts`] — synthesis ([`property_facts`]): the refined event-class
//!   mask, stage liveness, and spawn-cardinality bounds;
//! * [`resources`] — the intrinsic per-instance state model
//!   ([`ResourceEstimate`]), which `swmon-backends` turns into per-backend
//!   flow-table/register/xFSM figures.
//!
//! Everything here is *proof-bearing*: a fact is only emitted when the
//! abstraction guarantees it for every trace. The facts are analysis-only
//! (nothing on the hot path consumes them); the differential suite
//! (`tests/analysis_differential.rs` at the workspace root) still verifies
//! the soundness claim end to end: monitors fed only the events their
//! refined mask admits are byte-identical to the unfiltered interpreter.

pub mod domain;
pub mod env;
pub mod facts;
pub mod fields;
pub mod resources;
pub mod transfer;
pub mod walk;

pub use domain::AbsValue;
pub use env::AbsEnv;
pub use facts::{property_facts, PropertyFacts};
pub use fields::{field_bits, field_kind, field_top, value_kind, FieldKind};
pub use resources::{ResourceEstimate, VarCost, IDENTITY_BITS, TIMER_BITS};
pub use transfer::{Eval, Finding, Reason};
pub use walk::{walk, StageWalk, Walk};
