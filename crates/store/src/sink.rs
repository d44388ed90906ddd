//! The live bridge from the sharded runtime into the store.
//!
//! [`StoreSink`] implements [`swmon_runtime::ViolationSink`]: hand it to
//! [`swmon_runtime::ShardedRuntime::start_with_sink`] and the session's
//! shards publish what each batch raises into the store as the batch is
//! applied (each publish visible atomically, so concurrent SWQL queries
//! see a prefix-consistent snapshot; exactly-once and never retracted,
//! crashes included), and [`swmon_runtime::Session::finish`]
//! seals the store with the canonical merge. Nothing about the runtime's
//! accounting changes — publication is copy-out, and the
//! `unaccounted_loss == 0` audit is untouched.
//!
//! ```no_run
//! # use std::sync::Arc;
//! # use swmon_store::StoreSink;
//! let sink = Arc::new(StoreSink::new());
//! let store = sink.store();
//! // let session = runtime.start_with_sink(Some(sink));
//! // ... feed events; meanwhile, from any thread:
//! let live = store.query_str("degraded()").unwrap();
//! ```

use std::sync::Arc;

use swmon_runtime::{ViolationRecord, ViolationSink};

use crate::store::Store;

/// A [`ViolationSink`] that ingests into a shared [`Store`].
#[derive(Debug, Default)]
pub struct StoreSink {
    store: Arc<Store>,
}

impl StoreSink {
    /// A sink over a fresh, empty store.
    pub fn new() -> Self {
        StoreSink::default()
    }

    /// A sink feeding an existing store.
    pub fn over(store: Arc<Store>) -> Self {
        StoreSink { store }
    }

    /// The shared store — clone this handle to query from other threads
    /// while the session runs.
    pub fn store(&self) -> Arc<Store> {
        Arc::clone(&self.store)
    }
}

impl ViolationSink for StoreSink {
    fn publish(&self, shard: usize, records: &[ViolationRecord]) {
        self.store.ingest(shard as u32, records);
    }

    fn seal(&self, merged: &[ViolationRecord]) {
        self.store.seal(merged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swmon_core::Violation;
    use swmon_sim::time::Instant;

    fn rec(t: u64) -> ViolationRecord {
        ViolationRecord {
            seq: 0,
            property: 0,
            rank: 1,
            epoch: 0,
            violation: Violation {
                property: "p".into(),
                time: Instant::from_nanos(t),
                trigger_stage: "s".into(),
                bindings: None,
                history: vec![],
                degraded: false,
                merge_seq: None,
            },
        }
    }

    #[test]
    fn sink_routes_publish_and_seal_into_the_store() {
        let sink = StoreSink::new();
        let store = sink.store();
        sink.publish(2, &[rec(5), rec(1)]);
        assert_eq!(store.len(), 2);
        assert!(!store.is_sealed());
        let mut merged = vec![rec(1), rec(5)];
        for (i, r) in merged.iter_mut().enumerate() {
            r.violation.merge_seq = Some(i as u64);
        }
        sink.seal(&merged);
        assert!(store.is_sealed());
        let out = store.query_str("prop(p), shard(2)").unwrap();
        assert_eq!(out.matches.len(), 2);
        assert_eq!(out.matches[0].store_seq, 0);
    }
}
