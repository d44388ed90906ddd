//! Bounded hand-off lanes, session → shard: `std::sync::mpsc::sync_channel`
//! plus a queued-message count for telemetry. The session is a lane's only
//! producer, so messages arrive strictly in send order (the deploy protocol
//! relies on that — see [`crate::batch::Msg`]). A full lane **blocks the
//! producer**: events are never dropped, because a silently dropped event
//! would forge a negative observation. Hand-offs are batch-granular; a
//! hand-rolled spin-then-park ring measured no faster (docs/PERF.md).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{mpsc, Arc};

/// The producing half.
#[derive(Debug)]
pub(crate) struct Sender<T> {
    tx: mpsc::SyncSender<T>,
    /// Messages sent and not yet received. A statistic: it orders nothing.
    queued: Arc<AtomicU64>,
}

/// The consuming half.
#[derive(Debug)]
pub(crate) struct Receiver<T> {
    rx: mpsc::Receiver<T>,
    queued: Arc<AtomicU64>,
}

/// A lane of `capacity` messages (at least 1: zero would be a rendezvous).
pub(crate) fn channel<T: Send>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = mpsc::sync_channel(capacity.max(1));
    let queued = Arc::new(AtomicU64::new(0));
    (Sender { tx, queued: queued.clone() }, Receiver { rx, queued })
}

impl<T> Sender<T> {
    /// Enqueue one message, blocking while the lane is full. Returns the
    /// message back when the receiver is gone (terminal: the shard died).
    pub(crate) fn send(&self, value: T) -> Result<(), T> {
        // Counted first, so the receiver's decrement can never precede it.
        self.queued.fetch_add(1, Relaxed);
        self.tx.send(value).map_err(|mpsc::SendError(value)| {
            self.queued.fetch_sub(1, Relaxed);
            value
        })
    }

    /// Messages queued now (the occupancy telemetry samples at each send).
    pub(crate) fn occupancy(&self) -> u64 {
        self.queued.load(Relaxed)
    }
}

impl<T> Receiver<T> {
    /// Dequeue the next message, blocking while the lane is empty.
    /// `None` once the sender is gone **and** the lane is drained.
    pub(crate) fn recv(&self) -> Option<T> {
        let value = self.rx.recv().ok()?;
        self.queued.fetch_sub(1, Relaxed);
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let (tx, rx) = channel(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        assert_eq!(tx.occupancy(), 4);
        for i in 0..4 {
            assert_eq!(rx.recv(), Some(i));
        }
        assert_eq!(tx.occupancy(), 0);
    }

    #[test]
    fn producer_blocks_on_full_until_consumer_drains() {
        let (tx, rx) = channel(2);
        tx.send(0u64).unwrap();
        tx.send(1).unwrap();
        let producer = std::thread::spawn(move || {
            // Ring is full: this blocks until the consumer makes room.
            tx.send(2).unwrap();
            tx.send(3).unwrap();
        });
        let mut got = Vec::new();
        for _ in 0..4 {
            got.push(rx.recv().unwrap());
        }
        producer.join().unwrap();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn consumer_blocks_until_producer_sends() {
        let (tx, rx) = channel(1);
        let consumer = std::thread::spawn(move || rx.recv());
        std::thread::sleep(std::time::Duration::from_millis(10));
        tx.send(42u32).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(42));
    }

    #[test]
    fn dropping_the_sender_ends_the_stream_after_draining() {
        let (tx, rx) = channel(8);
        tx.send(1u8).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None);
        assert_eq!(rx.recv(), None, "end-of-stream is sticky");
    }

    #[test]
    fn dropping_the_receiver_fails_sends_fast() {
        let (tx, rx) = channel(2);
        tx.send(7u16).unwrap();
        drop(rx);
        assert_eq!(tx.send(8), Err(8));
    }

    #[test]
    fn blocked_producer_unblocks_when_receiver_hangs_up() {
        let (tx, rx) = channel(1);
        tx.send(0u8).unwrap();
        let producer = std::thread::spawn(move || tx.send(1));
        std::thread::sleep(std::time::Duration::from_millis(10));
        drop(rx);
        assert_eq!(producer.join().unwrap(), Err(1));
    }

    #[test]
    fn heavy_traffic_crosses_intact() {
        let (tx, rx) = channel(3);
        let n = 50_000u64;
        let consumer = std::thread::spawn(move || {
            let mut sum = 0u64;
            let mut count = 0u64;
            while let Some(v) = rx.recv() {
                sum += v;
                count += 1;
            }
            (sum, count)
        });
        for i in 0..n {
            tx.send(i).unwrap();
        }
        drop(tx);
        let (sum, count) = consumer.join().unwrap();
        assert_eq!(count, n);
        assert_eq!(sum, n * (n - 1) / 2);
    }
}
