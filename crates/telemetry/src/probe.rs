//! [`EngineProbe`] — one property's engine instruments.
//!
//! One probe per property *name*, shared by every replica of it. The
//! engine is not instrumented: its owner reads it. The shard adds each
//! replica's `MonitorStats::events` and `live_instances()` deltas at batch
//! boundaries, and wall-times the applications [`EngineProbe::samples`]
//! selects — two `Instant::now()` calls per event would be a measurable
//! fraction of a sub-microsecond hot path, while the sampled histograms
//! still converge on the true distributions.

use crate::metrics::{Counter, Gauge, Histogram};
use std::sync::Arc;

/// Per-property engine instrumentation (see module docs).
#[derive(Debug)]
pub struct EngineProbe {
    name: String,
    /// In-scope events this property's monitors examined (all replicas,
    /// recovery replays included), as of each shard's last batch.
    pub events: Counter,
    /// Sampled wall time of one engine processing stage, nanoseconds.
    pub stage_nanos: Histogram,
    /// Sampled instance-store occupancy at event time.
    pub occupancy: Histogram,
    /// Live instances, summed over replicas, as of each shard's last
    /// completed batch.
    pub live: Gauge,
    sample_every: u64,
}

impl EngineProbe {
    /// A probe for `name`, wall-timing every `sample_every`-th event
    /// (`0` disables timing; the counter and the gauge stay on).
    pub fn new(name: &str, sample_every: u64) -> Arc<Self> {
        Arc::new(EngineProbe {
            name: name.to_string(),
            events: Counter::new(),
            stage_nanos: Histogram::new(),
            occupancy: Histogram::new(),
            live: Gauge::new(),
            sample_every,
        })
    }

    /// The instrumented property's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Should a replica wall-time its `seq`-th event?
    pub fn samples(&self, seq: u64) -> bool {
        self.sample_every != 0 && seq.is_multiple_of(self.sample_every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_follows_the_configured_cadence() {
        let p = EngineProbe::new("fw", 4);
        let timed: Vec<u64> = (0..10).filter(|&s| p.samples(s)).collect();
        assert_eq!(timed, vec![0, 4, 8]);
        assert!(!EngineProbe::new("fw", 0).samples(0), "0 disables timing");
    }
}
