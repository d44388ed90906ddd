//! A [`ViolationSink`] that forwards to a [`StoreSink`] and notes when
//! each publication returned — the moment a violation became queryable.

use std::sync::{Arc, Mutex};
use std::time::Instant as Wall;

use swmon_runtime::{ViolationRecord, ViolationSink};
use swmon_store::{Store, StoreSink};

use crate::span::SpanLog;

/// What the sink has seen. Publication is append-only and exactly-once, so
/// a prefix of `records` is exactly what a live query at that moment could
/// have matched.
#[derive(Debug, Default)]
pub struct PublishLog {
    /// Every published record, in publication order.
    pub records: Vec<ViolationRecord>,
    /// Per `publish` call: rows in it, and nanoseconds from the sink's
    /// epoch to the call's return.
    pub batches: Vec<(usize, u64)>,
    /// `records.len()` when the feeder stopped feeding; later records
    /// surfaced only in `finish`.
    pub fed_len: Option<usize>,
}

/// The timestamping wrapper around [`StoreSink`].
#[derive(Debug)]
pub struct TimedSink {
    inner: StoreSink,
    epoch: Wall,
    log: Mutex<PublishLog>,
    spans: Option<Arc<Mutex<SpanLog>>>,
}

impl TimedSink {
    /// A sink over a fresh store whose stamps count from `epoch`; with
    /// `spans`, every publish and seal is also recorded as a span.
    pub fn new(epoch: Wall, spans: Option<Arc<Mutex<SpanLog>>>) -> Self {
        TimedSink { inner: StoreSink::new(), epoch, log: Mutex::default(), spans }
    }

    /// The store behind the sink.
    pub fn store(&self) -> Arc<Store> {
        self.inner.store()
    }

    /// How many records have been published so far.
    pub fn published(&self) -> usize {
        self.log.lock().expect("publish log lock poisoned").records.len()
    }

    /// The feeder has fed its last event; what follows surfaces in `finish`.
    pub fn mark_fed(&self) {
        let mut log = self.log.lock().expect("publish log lock poisoned");
        log.fed_len = Some(log.records.len());
    }

    /// Take the log, leaving an empty one.
    pub fn take_log(&self) -> PublishLog {
        std::mem::take(&mut self.log.lock().expect("publish log lock poisoned"))
    }

    fn span<T>(&self, name: &str, call: impl FnOnce() -> T) -> T {
        let Some(spans) = &self.spans else { return call() };
        spans.lock().expect("span log lock poisoned").enter(name);
        let out = call();
        spans.lock().expect("span log lock poisoned").exit();
        out
    }
}

impl ViolationSink for TimedSink {
    fn publish(&self, shard: usize, records: &[ViolationRecord]) {
        self.span("sink.publish", || self.inner.publish(shard, records));
        let done = self.epoch.elapsed().as_nanos() as u64;
        let mut log = self.log.lock().expect("publish log lock poisoned");
        log.records.extend_from_slice(records);
        log.batches.push((records.len(), done));
    }

    fn seal(&self, merged: &[ViolationRecord]) {
        self.span("sink.seal", || self.inner.seal(merged));
    }
}
