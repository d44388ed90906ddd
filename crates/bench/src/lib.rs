#![forbid(unsafe_code)]
//! # swmon-bench — the experiment harness
//!
//! Every table and figure-equivalent of the paper as a library function:
//! the `repro` binary prints them and integration tests assert their
//! shapes. Nothing here is the stopwatch: throughput, latency and per-layer
//! cost are measured by `benchmark/` alone (`benchmark/README.md`). E15–E17
//! are contract runs — every row differentially verified — that also record
//! the few measurements nothing else takes, through one [`report::Report`].
//!
//! | Experiment | Paper artifact | Module |
//! |---|---|---|
//! | E1 | Table 1 (property → features) | `swmon_props::table1` |
//! | E2 | Table 2 (approach → features) | `swmon_backends::table2` |
//! | E3 | Sec 3.3: pipeline depth vs. active instances | [`experiments::e3`] |
//! | E4 | Sec 3.3: state-update mechanisms vs. line rate | [`experiments::e4`] |
//! | E5 | Sec 1: external-monitor traffic cost | [`experiments::e5`] |
//! | E6 | Feature 9: inline vs. split processing | [`experiments::e6`] |
//! | E7 | Feature 10: provenance cost | [`experiments::e7`] |
//! | E8 | Sec 2.3: timeout-refresh subtlety | [`experiments::e8`] |
//! | E9 | soundness: detection matrix | [`experiments::e9`] |
//! | E10 | per-approach monitoring overhead | [`experiments::e10`] |
//! | E11 | extension: register-array capacity ablation | [`experiments::e11`] |
//! | E12 | extension: postcard provenance (Sec 3.2) | [`experiments::e12`] |
//! | E15 | extension: crash recovery, replay, explicit shedding | [`experiments::e15`] |
//! | E16 | extension: violation store ingest, SWQL latency, live fidelity | [`experiments::e16`] |
//! | E17 | extension: live deploy quiesce pause, dip, rollback | [`experiments::e17`] |
//! | stats | extension: the telemetry page and its ledger | [`experiments::stats`] |
//!
//! (E13 and E14, the two-property throughput runs, are retired: their
//! numbers are `benchmark/`'s `pair-256` metrics and their differential
//! checks live in `tests/runtime_differential.rs`.)

pub mod analyze;
pub mod experiments;
pub mod lint;
pub mod report;
pub mod storequery;
pub mod table;

pub use table::TextTable;
