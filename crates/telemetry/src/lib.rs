#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # swmon-telemetry — always-on observability for the monitor stack
//!
//! The paper's scalability argument (Sec 3.3) is about *observable* cost:
//! rule counts, state growth, per-packet work. This crate is the software
//! analogue — a low-overhead instrumentation layer the runtime keeps on in
//! production:
//!
//! * **[`metrics`]** — lock-free counters, gauges and fixed-bucket
//!   histograms (`Relaxed` atomics, power-of-two buckets, no allocation on
//!   the hot path).
//! * **[`probe::EngineProbe`]** — one property's engine instruments:
//!   event count and occupancy read from the engine at batch boundaries,
//!   and *sampled* engine-stage wall timing.
//! * **[`export::Snapshot`]** — a frozen metric page rendered as a
//!   Prometheus text exposition or a JSON report; fault-injection activity
//!   rides along as [`export::Annotation`]s ([`annotate_faults`]).
//! * **[`names`]** — the closed catalog of exported metric names, enforced
//!   by the catalog test and the `telemetry-overhead` CI job.
//!
//! What the layer costs a session is measured, at catalog scale, by the
//! benchmark's `telemetry.tax_pct`; see `docs/TELEMETRY.md` for the metric
//! catalog, who writes each instrument, and the current numbers.

pub mod annotate;
pub mod export;
pub mod metrics;
pub mod names;
pub mod probe;

pub use annotate::annotate_faults;
pub use export::{Annotation, Key, Snapshot};
pub use metrics::{bucket_bound, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot};
pub use probe::EngineProbe;
