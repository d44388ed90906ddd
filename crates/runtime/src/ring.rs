//! Bounded SPSC ring buffers: the session→shard hand-off lane.
//!
//! One producer (the session thread) and one consumer (a shard's
//! supervisor thread) per ring, so no multi-producer arbitration is ever
//! paid on the hot path. Capacity is fixed at construction; a full ring
//! **blocks the producer** (backpressure — events are never dropped,
//! because a silently dropped event would forge a negative observation).
//!
//! The implementation is `forbid(unsafe_code)`-clean: slots are
//! `Mutex<Option<T>>` cells that are only ever touched uncontended (the
//! producer locks a slot only when it is empty and owned by it, the
//! consumer only when it is full and owned by it), with head/tail cursors
//! on sequentially-consistent atomics and a condvar for park/wake when a
//! side would otherwise spin. Per-message cost is one uncontended lock and
//! a handful of atomics — amortised over batch messages, far below the
//! mpsc channel it replaces.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};

/// Spins before parking on the condvar. Hand-offs are batch-granular, so
/// a short spin usually bridges the gap without a syscall.
const SPINS: u32 = 64;

struct Shared<T> {
    slots: Vec<Mutex<Option<T>>>,
    /// Next slot the consumer reads. Advanced only by the consumer.
    head: AtomicU64,
    /// Next slot the producer writes. Advanced only by the producer.
    tail: AtomicU64,
    /// The producer is gone: drain what remains, then end-of-stream.
    closed: AtomicBool,
    /// The consumer is gone: sends fail fast instead of blocking forever.
    receiver_gone: AtomicBool,
    producer_waiting: AtomicBool,
    consumer_waiting: AtomicBool,
    park: Mutex<()>,
    wake: Condvar,
}

impl<T> Shared<T> {
    fn len(&self) -> u64 {
        self.tail.load(SeqCst).saturating_sub(self.head.load(SeqCst))
    }

    /// Wake the other side if it declared itself parked. Taking the park
    /// lock before notifying closes the race with a waiter that has set
    /// its flag but not yet entered `wait`.
    fn notify(&self) {
        let _guard = self.park.lock().unwrap();
        self.wake.notify_all();
    }
}

/// The producing half. Not `Clone` — the ring is strictly single-producer.
pub(crate) struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The consuming half. Not `Clone` — strictly single-consumer.
pub(crate) struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// A bounded SPSC ring of `capacity` messages (clamped to at least 1).
pub(crate) fn channel<T: Send>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let capacity = capacity.max(1);
    let shared = Arc::new(Shared {
        slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        head: AtomicU64::new(0),
        tail: AtomicU64::new(0),
        closed: AtomicBool::new(false),
        receiver_gone: AtomicBool::new(false),
        producer_waiting: AtomicBool::new(false),
        consumer_waiting: AtomicBool::new(false),
        park: Mutex::new(()),
        wake: Condvar::new(),
    });
    (Sender { shared: shared.clone() }, Receiver { shared })
}

impl<T> Sender<T> {
    /// Enqueue one message, blocking while the ring is full. Returns the
    /// message back when the receiver is gone (terminal: the shard died).
    pub(crate) fn send(&self, value: T) -> Result<(), T> {
        let sh = &self.shared;
        let cap = sh.slots.len() as u64;
        let mut value = Some(value);
        let mut spins = 0u32;
        loop {
            if sh.receiver_gone.load(SeqCst) {
                return Err(value.take().expect("value still held"));
            }
            let tail = sh.tail.load(SeqCst);
            if tail.wrapping_sub(sh.head.load(SeqCst)) < cap {
                let slot = &sh.slots[(tail % cap) as usize];
                *slot.lock().unwrap() = value.take();
                sh.tail.store(tail.wrapping_add(1), SeqCst);
                if sh.consumer_waiting.load(SeqCst) {
                    sh.notify();
                }
                return Ok(());
            }
            if spins < SPINS {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            spins = 0;
            sh.producer_waiting.store(true, SeqCst);
            let mut guard = sh.park.lock().unwrap();
            while sh.len() >= cap && !sh.receiver_gone.load(SeqCst) {
                guard = sh.wake.wait(guard).unwrap();
            }
            drop(guard);
            sh.producer_waiting.store(false, SeqCst);
        }
    }

    /// Messages currently queued (sampled; the telemetry ring-occupancy
    /// signal recorded at each send).
    pub(crate) fn occupancy(&self) -> u64 {
        self.shared.len()
    }
}

impl<T> Receiver<T> {
    /// Dequeue the next message, blocking while the ring is empty.
    /// `None` once the sender is gone **and** the ring is drained.
    pub(crate) fn recv(&self) -> Option<T> {
        let sh = &self.shared;
        let cap = sh.slots.len() as u64;
        let mut spins = 0u32;
        loop {
            let head = sh.head.load(SeqCst);
            // Read `closed` before re-reading `tail`: if the producer
            // closed, the tail seen afterwards is final, so an empty ring
            // here really is end-of-stream.
            let closed = sh.closed.load(SeqCst);
            if head != sh.tail.load(SeqCst) {
                let slot = &sh.slots[(head % cap) as usize];
                let value = slot.lock().unwrap().take();
                sh.head.store(head.wrapping_add(1), SeqCst);
                if sh.producer_waiting.load(SeqCst) {
                    sh.notify();
                }
                return Some(value.expect("occupied ring slot holds a value"));
            }
            if closed {
                return None;
            }
            if spins < SPINS {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            spins = 0;
            sh.consumer_waiting.store(true, SeqCst);
            let mut guard = sh.park.lock().unwrap();
            while sh.head.load(SeqCst) == sh.tail.load(SeqCst) && !sh.closed.load(SeqCst) {
                guard = sh.wake.wait(guard).unwrap();
            }
            drop(guard);
            sh.consumer_waiting.store(false, SeqCst);
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        self.shared.closed.store(true, SeqCst);
        self.shared.notify();
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.receiver_gone.store(true, SeqCst);
        self.shared.notify();
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ring::Sender")
            .field("occupancy", &self.shared.len())
            .field("capacity", &self.shared.slots.len())
            .finish()
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ring::Receiver")
            .field("occupancy", &self.shared.len())
            .field("capacity", &self.shared.slots.len())
            .finish()
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
