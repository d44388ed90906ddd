#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # swmon-core — stateful property monitoring (the paper's contribution)
//!
//! A specification language and reference engine for *cross-packet
//! correctness properties* over switch event streams, realising all ten
//! semantic features of "Switches are Monitors Too!" (HotNets 2016):
//!
//! | Feature | Where |
//! |---|---|
//! | 1 Field access / parse depth | [`swmon_packet::Field::layer`], guards |
//! | 2 Event history | [`Bindings`], instance state |
//! | 3 Timeouts | [`property::Stage::within`] + refresh policies |
//! | 4 Persistent obligation ("until") | [`property::Unless`] clearings |
//! | 5 Packet identity | [`guard::Atom::SamePacket`] |
//! | 6 Negative match | [`guard::Atom::NeqVar`], [`guard::Atom::NeqConst`] |
//! | 7 Timeout actions | [`property::StageKind::Deadline`] |
//! | 8 Instance identification | engine instance store; [`features`] derives exact/symmetric/wandering |
//! | 9 Side-effect control | [`engine::ProcessingMode`] |
//! | 10 Provenance | [`violation::ProvenanceMode`] |
//!
//! Properties are written as the *violation-witnessing* observation sequence
//! (the paper's convention); the [`engine::Monitor`] hunts for completions
//! and reports [`violation::Violation`]s.

pub mod builder;
pub mod catalog;
pub mod dsl;
pub mod engine;
pub mod features;
pub mod guard;
pub mod json;
pub mod monitorset;
pub mod pattern;
pub mod postcard;
pub mod property;
pub mod routing;
mod slots;
pub mod snapshot;
pub mod spawn;
pub mod var;
pub mod violation;
pub mod wire;

pub use builder::PropertyBuilder;
pub use catalog::{CatalogEpoch, DeployAction, DeployError, DeployPlan, PropertyOrigin};
pub use dsl::{
    parse_properties, parse_properties_spanned, parse_property, parse_property_spanned, to_dsl,
    DslError, PropertySpans, StageSpan,
};
pub use engine::{Monitor, MonitorConfig, MonitorError, MonitorStats, ProcessingMode};
pub use features::{FeatureSet, InstanceIdClass};
pub use guard::{Atom, Guard};
pub use monitorset::MonitorSet;
pub use pattern::{event_class, ActionPattern, EventPattern, OobPattern, EVENT_CLASSES};
pub use postcard::{Postcard, PostcardCollector};
pub use property::{Property, PropertyError, RefreshPolicy, Stage, StageKind, Unless};
pub use routing::{PinReason, Probe, RouteMode, RoutingPlan, StageKey, StageKeyPlan};
pub use snapshot::{MonitorSnapshot, SnapshotError, SNAPSHOT_VERSION};
pub use spawn::{SpawnIndex, MAX_PROPERTIES};
pub use var::{var, Bindings, Var, VarId, VarTable, MAX_VARS};
pub use violation::{ProvenanceMode, Violation};
pub use wire::{Reader as WireReader, Writer as WireWriter};

/// Compile-time thread-safety audit. The runtime drives every shard on
/// the caller thread today, but a runtime that moves monitors into worker
/// threads and events/violations across channels must stay possible; these
/// checks make any regression (say, an `Rc` slipping into an event type) a
/// build error here rather than a trait-bound error three crates away.
/// `swmon-runtime` asserts the same of its shard supervisor and runtime.
const fn assert_send_sync<T: Send + Sync>() {}
const fn assert_send<T: Send>() {}
const _: () = {
    assert_send_sync::<swmon_sim::trace::NetEvent>();
    assert_send_sync::<Violation>();
    assert_send_sync::<Bindings>();
    assert_send_sync::<Property>();
    assert_send_sync::<RoutingPlan>();
    assert_send_sync::<FeatureSet>();
    assert_send_sync::<MonitorConfig>();
    // Deploy plans and catalog epochs travel into a live session.
    assert_send_sync::<DeployPlan>();
    assert_send_sync::<CatalogEpoch>();
    // Monitors are owned by exactly one worker at a time: Send suffices.
    assert_send::<Monitor>();
    assert_send::<MonitorSet>();
    // Checkpoints travel from workers to the supervisor.
    assert_send::<MonitorSnapshot>();
};
