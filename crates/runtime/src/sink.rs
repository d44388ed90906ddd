//! Live violation publication out of the fault-tolerant runtime.
//!
//! A [`ViolationSink`] lets a long-running session stream its violations to
//! an external consumer (the `swmon-store` crate's ingest path) *while the
//! run is still going*, without weakening any fault-tolerance contract:
//!
//! - **At batch cadence.** A shard publishes what a batch raised as soon
//!   as the batch is applied — before any checkpoint it is due — and once
//!   more at finish (the tail batch and the timer drain together). `batch`
//!   and `flush_every` bound the lag; `checkpoint_every` does not enter.
//! - **Exactly-once under crashes, by position.** A shard's log is a
//!   deterministic function of its input, so recovery (restore, replay)
//!   re-raises every record at the position it first had. The published
//!   mark never moves back, the log keeps what lies below it, and replay's
//!   copies of those positions are dropped: nothing a sink has seen is
//!   retracted, altered or delivered again (`docs/FAULTS.md` has the
//!   argument and its one edge: a gap opening between publish and crash).
//! - **No silent loss.** Publication is copy-out; the supervisor's private
//!   ledger and the `unaccounted_loss() == 0` audit are untouched.
//! - **Canonical at seal.** Per-shard publications arrive in shard
//!   discovery order, which is *not* the canonical merged order. When the
//!   session finishes, [`ViolationSink::seal`] hands the sink the final
//!   canonically merged records (with [`swmon_core::Violation::merge_seq`]
//!   assigned) so it can expose exactly the merged output.

use crate::merge::ViolationRecord;
use std::fmt;

/// A consumer of live violation publications. See the module docs for the
/// delivery contract.
///
/// Implementations must be cheap and non-blocking-ish: `publish` runs on
/// shard supervisor threads after every batch that raised something, and a
/// slow sink stalls the shard's next batch exactly like a slow checkpoint.
pub trait ViolationSink: Send + Sync + fmt::Debug {
    /// Records newly raised by `shard`, in that shard's discovery order,
    /// never empty. Each log position is delivered exactly once across the
    /// whole run, crashes included, and stands as delivered; violations
    /// carry no merge-time sequence id yet (`merge_seq == None` until seal).
    fn publish(&self, shard: usize, records: &[ViolationRecord]);

    /// The run finished: `merged` is the complete canonical merged output,
    /// sequence ids assigned. The multiset of violations equals everything
    /// published (publication is exactly-once), re-ordered canonically.
    fn seal(&self, merged: &[ViolationRecord]);
}
