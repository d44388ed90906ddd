//! The experiment implementations. E3–E12 and `stats` expose a `run()`
//! returning a structured result plus a `render()` producing the printable
//! report; the contract runs E15–E17 return a [`crate::report::Report`].

pub mod e10;
pub mod e11;
pub mod e12;
pub mod e15;
pub mod e16;
pub mod e17;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod stats;

use swmon_runtime::FaultPoint;

/// `count` shard panics spread evenly across a trace of `events` events
/// (deterministic: same trace length, same schedule) — the crash injection
/// E15 and E17 share.
pub fn crash_schedule(events: usize, count: usize) -> Vec<FaultPoint> {
    (0..count).map(|i| FaultPoint { seq: ((i + 1) * events / (count + 1)) as u64 }).collect()
}
