//! Abstract interpretation over properties: proven facts that drive the
//! `SW010`–`SW015` lints and make the backend table quantitative.
//!
//! The framework is a classic lattice/fixpoint design, specialised to the
//! chain shape of swmon properties:
//!
//! * [`domain`] — the value lattice: constant propagation refined by
//!   unsigned intervals ([`AbsValue`]);
//! * [`env`] — the abstract environment over bound variables ([`AbsEnv`]);
//! * [`fields`] — per-field kinds and wire widths, seeding the intervals
//!   and pricing the resource model;
//! * [`transfer`] — abstract guard evaluation ([`transfer::apply`]):
//!   satisfiability plus the post-binding environment;
//! * [`cfg`] — the per-property control-flow graph ([`Cfg`]): stages as
//!   nodes, spawn/advance/timeout/clear/expire as edges;
//! * [`fixpoint`] — the worklist solver ([`fixpoint::solve`]);
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

pub mod cfg;
pub mod domain;
pub mod env;
pub mod facts;
pub mod fields;
pub mod fixpoint;
pub mod resources;
pub mod transfer;

pub use cfg::{Cfg, Edge, EdgeKind};
pub use domain::AbsValue;
pub use env::AbsEnv;
pub use facts::{property_facts, PropertyFacts};
pub use fields::{field_bits, field_kind, field_top, FieldKind};
pub use fixpoint::Solution;
pub use resources::{ResourceEstimate, VarCost, IDENTITY_BITS, TIMER_BITS};
