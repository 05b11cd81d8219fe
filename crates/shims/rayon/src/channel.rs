//! Bounded, order-preserving channels and a versioned publication slot.
//!
//! Two users remain. The double-buffered GEMM (`gemm_packed_double` in
//! `mergesfl_nn::kernels::gemm`) hands packing jobs and packed-stage indices between the
//! compute thread and its persistent stage thread through [`bounded`] channels, and the
//! sharded parameter server keeps each route group's last published top-model versions
//! in a [`VersionedSlot`]. Real rayon has no channel; crossbeam is unavailable offline;
//! `std::sync::mpsc::sync_channel` exists, but keeping the primitives in this shim keeps
//! the blocking semantics under our control. The channel is a minimal MPSC bounded FIFO
//! built on `Mutex` + two `Condvar`s: `send` blocks while the queue is full (that bound
//! is what keeps producer and consumer in lockstep instead of letting a fast producer
//! race ahead), `recv` blocks while it is empty, and items always come out in the order
//! they were sent.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

struct Shared<T> {
    queue: Mutex<State<T>>,
    not_full: Condvar,
    not_empty: Condvar,
}

struct State<T> {
    items: VecDeque<T>,
    capacity: usize,
    senders: usize,
    receiver_alive: bool,
}

/// Sending half of a bounded channel. Cloning adds another producer.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Receiving half of a bounded channel.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Error returned by [`Sender::send`] when the receiver has been dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Creates a bounded FIFO channel with room for `capacity` in-flight items.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "channel: capacity must be positive");
    let shared = Arc::new(Shared {
        queue: Mutex::new(State {
            items: VecDeque::with_capacity(capacity),
            capacity,
            senders: 1,
            receiver_alive: true,
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Blocks until there is room, then enqueues `item`. Returns the item back if the
    /// receiver is gone (the pipeline consumer has shut down).
    pub fn send(&self, item: T) -> Result<(), SendError<T>> {
        let mut state = self.shared.queue.lock().expect("channel lock poisoned");
        while state.items.len() >= state.capacity {
            if !state.receiver_alive {
                return Err(SendError(item));
            }
            state = self
                .shared
                .not_full
                .wait(state)
                .expect("channel lock poisoned");
        }
        if !state.receiver_alive {
            return Err(SendError(item));
        }
        state.items.push_back(item);
        drop(state);
        self.shared.not_empty.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        let mut state = self.shared.queue.lock().expect("channel lock poisoned");
        state.senders += 1;
        drop(state);
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.queue.lock().expect("channel lock poisoned");
        state.senders -= 1;
        let last = state.senders == 0;
        drop(state);
        if last {
            // Wake a receiver blocked on an empty queue so it can observe disconnection.
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks until an item is available and returns it, or `None` once every sender has
    /// been dropped and the queue has drained.
    pub fn recv(&self) -> Option<T> {
        let mut state = self.shared.queue.lock().expect("channel lock poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.shared.not_full.notify_one();
                return Some(item);
            }
            if state.senders == 0 {
                return None;
            }
            state = self
                .shared
                .not_empty
                .wait(state)
                .expect("channel lock poisoned");
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.shared.queue.lock().expect("channel lock poisoned");
        state.receiver_alive = false;
        drop(state);
        // Wake producers blocked on a full queue so they can observe disconnection.
        self.shared.not_full.notify_all();
    }
}

/// A bounded ring of versioned states for staleness-tolerant pipelines.
///
/// Where the bounded channel above keeps pipeline *stages* in lockstep, a
/// `VersionedSlot` relaxes the lockstep on *state*: a producer publishes successive
/// versions of some state (e.g. the top model's parameters after each optimizer step) and
/// the slot retains up to `capacity` of the most recent ones, each tagged with a
/// monotonically increasing version number. A consumer that reads [`VersionedSlot::oldest`]
/// therefore operates on state at most `capacity` versions behind the newest publish —
/// the bounded-staleness invariant the convergence harness asserts. Single-threaded by
/// design: the engines publish and read from the server stage, which already owns the
/// shard; the bound, not concurrency, is the point.
#[derive(Clone, Debug)]
pub struct VersionedSlot<T> {
    ring: VecDeque<(u64, T)>,
    capacity: usize,
    next_version: u64,
}

impl<T> VersionedSlot<T> {
    /// Creates an empty slot retaining at most `capacity` published versions.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "VersionedSlot: capacity must be positive");
        Self {
            ring: VecDeque::with_capacity(capacity),
            capacity,
            next_version: 0,
        }
    }

    /// Maximum number of retained versions (the staleness bound `k`).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Publishes a new version of the state, evicting the oldest retained one if the
    /// ring is full, and returns the version number assigned to `state`.
    pub fn publish(&mut self, state: T) -> u64 {
        self.publish_evicting(state).0
    }

    /// Like [`Self::publish`], but hands the evicted oldest state (if the ring was
    /// full) back to the caller instead of dropping it — so pooled buffers can be
    /// recycled rather than freed.
    pub fn publish_evicting(&mut self, state: T) -> (u64, Option<T>) {
        let version = self.next_version;
        self.next_version += 1;
        let evicted = if self.ring.len() == self.capacity {
            self.ring.pop_front().map(|(_, s)| s)
        } else {
            None
        };
        self.ring.push_back((version, state));
        (version, evicted)
    }

    /// Removes and returns every retained `(version, state)` pair, oldest first
    /// (version numbering keeps increasing, exactly like [`Self::clear`]).
    pub fn drain(&mut self) -> std::collections::vec_deque::Drain<'_, (u64, T)> {
        self.ring.drain(..)
    }

    /// The oldest retained `(version, state)`, i.e. the most stale view a consumer can
    /// observe, or `None` before the first publish (and after [`Self::clear`]).
    pub fn oldest(&self) -> Option<&(u64, T)> {
        self.ring.front()
    }

    /// The newest retained `(version, state)`.
    pub fn latest(&self) -> Option<&(u64, T)> {
        self.ring.back()
    }

    /// Number of versions currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no version is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Version lag of the oldest retained state behind the next version to be published:
    /// how many optimizer steps stale a consumer reading [`Self::oldest`] is. Zero when
    /// empty. Never exceeds `capacity` — the bounded-staleness invariant.
    pub fn lag(&self) -> usize {
        self.ring
            .front()
            .map(|(v, _)| (self.next_version - v) as usize)
            .unwrap_or(0)
    }

    /// Drops every retained version (version numbering keeps increasing). The engines
    /// call this when cross-shard synchronisation averages replica state: the retained
    /// versions no longer describe any live parameter vector.
    pub fn clear(&mut self) {
        self.ring.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_arrive_in_send_order() {
        let (tx, rx) = bounded(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut out = Vec::new();
        while let Some(v) = rx.recv() {
            out.push(v);
        }
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn bounded_capacity_blocks_producer_until_consumed() {
        let (tx, rx) = bounded(1);
        let producer = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let mut out = Vec::new();
        while let Some(v) = rx.recv() {
            out.push(v);
        }
        producer.join().unwrap();
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn recv_returns_none_after_all_senders_drop() {
        let (tx, rx) = bounded::<u8>(2);
        let tx2 = tx.clone();
        tx.send(7).unwrap();
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv(), Some(7));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn send_fails_once_receiver_is_gone() {
        let (tx, rx) = bounded::<u8>(1);
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
    }

    #[test]
    fn capacity_one_send_blocks_until_the_slot_frees() {
        // Strict backpressure at the smallest bound: with one slot occupied, a second
        // send must park until the receiver drains the slot. The flag is only set after
        // the blocked send returns, so observing it unset after a generous sleep means
        // the producer was genuinely parked (a non-blocking regression would set it
        // almost immediately); the final recv order proves nothing was reordered or lost.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let second_send_done = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&second_send_done);
        let producer = std::thread::spawn(move || {
            tx.send(2).unwrap();
            flag.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(
            !second_send_done.load(Ordering::SeqCst),
            "send into a full capacity-1 channel did not block"
        );
        assert_eq!(rx.recv(), Some(1));
        producer.join().unwrap();
        assert!(second_send_done.load(Ordering::SeqCst));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn sender_dropped_mid_round_leaves_the_channel_usable() {
        // A producer dying mid-stream (e.g. a panicking thread dropping its Sender
        // during unwind) must neither lose the items it already sent nor wedge
        // the surviving producers: the receiver keeps draining until the LAST sender is
        // gone, and only then observes disconnection.
        let (tx, rx) = bounded(2);
        let survivor = tx.clone();
        let dying = std::thread::spawn(move || {
            tx.send("dying-0").unwrap();
            tx.send("dying-1").unwrap();
            // `tx` dropped here, mid-round from the receiver's point of view.
        });
        dying.join().unwrap();
        let surviving = std::thread::spawn(move || {
            for _ in 0..3 {
                survivor.send("survivor").unwrap();
            }
        });
        let mut got = Vec::new();
        while let Some(v) = rx.recv() {
            got.push(v);
        }
        surviving.join().unwrap();
        assert_eq!(got.len(), 5, "an item was lost when a sender dropped");
        assert_eq!(got.iter().filter(|v| v.starts_with("dying")).count(), 2);
        // The dying sender's items kept their send order.
        let dying_items: Vec<&&str> = got.iter().filter(|v| v.starts_with("dying")).collect();
        assert_eq!(dying_items, [&"dying-0", &"dying-1"]);
    }

    #[test]
    fn receiver_drop_mid_round_returns_items_to_blocked_senders() {
        // The complementary shutdown: the consumer stage dies while a producer is parked
        // on a full queue. The blocked send must wake, fail, and hand the item back
        // (the engines rely on this to unwind instead of deadlocking the round).
        let (tx, rx) = bounded(1);
        tx.send(10).unwrap();
        let producer = std::thread::spawn(move || tx.send(20));
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(rx);
        assert_eq!(producer.join().unwrap(), Err(SendError(20)));
    }

    #[test]
    fn per_producer_order_is_preserved_under_many_producers() {
        // The sharded router fans uploads in from many producers; the FIFO must keep
        // each producer's subsequence in its own send order even under heavy
        // interleaving through a tiny buffer.
        let (tx, rx) = bounded(2);
        let mut handles = Vec::new();
        for producer in 0..8u32 {
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50u32 {
                    tx.send((producer, i)).unwrap();
                }
            }));
        }
        drop(tx);
        let mut next_expected = [0u32; 8];
        let mut total = 0;
        while let Some((producer, i)) = rx.recv() {
            assert_eq!(
                i, next_expected[producer as usize],
                "producer {producer} items reordered"
            );
            next_expected[producer as usize] += 1;
            total += 1;
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total, 8 * 50);
        assert!(next_expected.iter().all(|&n| n == 50));
    }

    #[test]
    fn versioned_slot_retains_at_most_capacity_versions() {
        let mut slot = VersionedSlot::new(3);
        assert!(slot.is_empty());
        assert_eq!(slot.lag(), 0);
        for state in 0..5 {
            slot.publish(state);
        }
        // Versions 0 and 1 were evicted; 2, 3, 4 remain.
        assert_eq!(slot.len(), 3);
        assert_eq!(slot.oldest(), Some(&(2, 2)));
        assert_eq!(slot.latest(), Some(&(4, 4)));
    }

    #[test]
    fn versioned_slot_lag_is_bounded_by_capacity() {
        let mut slot = VersionedSlot::new(2);
        assert_eq!(slot.lag(), 0);
        slot.publish("a");
        assert_eq!(slot.lag(), 1);
        slot.publish("b");
        assert_eq!(slot.lag(), 2);
        for s in ["c", "d", "e", "f"] {
            slot.publish(s);
            assert!(slot.lag() <= slot.capacity());
            assert_eq!(slot.lag(), 2);
        }
    }

    #[test]
    fn versioned_slot_clear_resets_lag_but_not_version_numbering() {
        let mut slot = VersionedSlot::new(4);
        slot.publish(1.0);
        slot.publish(2.0);
        slot.clear();
        assert!(slot.is_empty());
        assert_eq!(slot.lag(), 0);
        assert_eq!(slot.oldest(), None);
        // Numbering continues where it left off: the next publish is version 2.
        assert_eq!(slot.publish(3.0), 2);
        assert_eq!(slot.oldest(), Some(&(2, 3.0)));
        assert_eq!(slot.lag(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn versioned_slot_rejects_zero_capacity() {
        let _ = VersionedSlot::<u8>::new(0);
    }

    #[test]
    fn multiple_producers_all_drain() {
        let (tx, rx) = bounded(2);
        let mut handles = Vec::new();
        for t in 0..4 {
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    tx.send(t * 100 + i).unwrap();
                }
            }));
        }
        drop(tx);
        let mut out = Vec::new();
        while let Some(v) = rx.recv() {
            out.push(v);
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(out.len(), 100);
        out.sort_unstable();
        out.dedup();
        assert_eq!(out.len(), 100);
    }
}
