//! A bounded single-producer/single-consumer ring with no CAS on any
//! path.
//!
//! ## Why SPSC needs no CAS
//!
//! Each shared index has exactly one writer: the producer alone
//! advances `tail`, the consumer alone advances `head`. A
//! compare-and-swap exists to arbitrate *competing* writers; with the
//! single-writer discipline there is nothing to arbitrate, so each
//! operation is one acquire load plus one release store — wait-free
//! with a constant bound of two shared accesses (the same observation
//! that lets the paper's register ladders build atomicity from
//! single-writer cells without consensus-strength objects).
//!
//! ## Memory ordering
//!
//! The producer writes the slot *then* release-stores the new `tail`;
//! the consumer's acquire load of `tail` therefore makes the slot
//! contents visible before it reads them. Symmetrically, the consumer
//! release-stores `head` only after it has copied the slot out, so the
//! producer's acquire load of `head` proves the slot is free before it
//! overwrites it. Indices free-run (wrapping `usize` arithmetic); the
//! ring is full when `tail - head == capacity`.
//!
//! Each side also keeps a *private* mirror of its own index and a
//! cached copy of the other side's, so the fast path touches shared
//! memory only to publish — an empty-`pop` poll re-reads just `tail`,
//! and a full-`push` poll re-reads just `head`. Besides saving atomic
//! traffic, this keeps every retry loop spinning on a *single* cell,
//! which is exactly the shape the `wfc-sched` spin detector can prove
//! blocked.

use std::cell::UnsafeCell;
use std::sync::Arc;

use wfc_registers::{CellProvider, RawAtomicUsize as _, RawData as _};

#[derive(Clone, Copy, Default)]
struct Mirror {
    /// This side's own index (authoritative; the shared atomic trails).
    own: usize,
    /// Last observed value of the other side's index (a lower bound).
    seen: usize,
}

/// The shared core of the ring. Use [`ring`] for the safe handle pair;
/// the raw `&self` operations are `unsafe` because nothing but the
/// caller enforces the single-producer/single-consumer contract.
pub struct SpscRing<T: Copy + Send + 'static, P: CellProvider> {
    slots: Box<[P::Data<T>]>,
    capacity: usize,
    /// Next slot to pop; written only by the consumer.
    head: P::AtomicUsize,
    /// Next slot to push; written only by the producer.
    tail: P::AtomicUsize,
    /// Producer-private state (see the `push` safety contract).
    prod: UnsafeCell<Mirror>,
    /// Consumer-private state (see the `pop` safety contract).
    cons: UnsafeCell<Mirror>,
}

// Safety: the slots and index cells are `Send + Sync` by their trait
// bounds; the two `UnsafeCell` mirrors are each touched by exactly one
// thread under the documented push/pop contracts.
unsafe impl<T: Copy + Send + 'static, P: CellProvider> Send for SpscRing<T, P> {}
unsafe impl<T: Copy + Send + 'static, P: CellProvider> Sync for SpscRing<T, P> {}

impl<T: Copy + Send + 'static, P: CellProvider> SpscRing<T, P> {
    /// Creates a ring holding up to `capacity` values. Every slot is
    /// initialised to `init` (the provider's data cells are never
    /// uninitialised); `init` is otherwise never observed.
    ///
    /// # Panics
    ///
    /// If `capacity` is zero.
    pub fn new(capacity: usize, init: T) -> SpscRing<T, P> {
        assert!(capacity > 0, "an SPSC ring needs at least one slot");
        SpscRing {
            slots: (0..capacity).map(|_| P::Data::new(init)).collect(),
            capacity,
            head: P::AtomicUsize::new(0),
            tail: P::AtomicUsize::new(0),
            prod: UnsafeCell::new(Mirror::default()),
            cons: UnsafeCell::new(Mirror::default()),
        }
    }

    /// The fixed slot count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends `value`, or hands it back if the ring is full.
    ///
    /// # Safety
    ///
    /// At most one thread may call `push` at a time (the single
    /// *producer*); concurrent `pop` calls by the single consumer are
    /// what the ring synchronises.
    pub unsafe fn push(&self, value: T) -> Result<(), T> {
        let p = &mut *self.prod.get();
        if p.own.wrapping_sub(p.seen) == self.capacity {
            p.seen = self.head.load_acquire();
            if p.own.wrapping_sub(p.seen) == self.capacity {
                return Err(value);
            }
        }
        // The consumer freed this slot before it release-stored the
        // `head` we acquire-loaded into `seen`, so the write cannot
        // race a read of live data.
        self.slots[p.own % self.capacity].write(value);
        p.own = p.own.wrapping_add(1);
        self.tail.store_release(p.own);
        Ok(())
    }

    /// Removes the oldest value, or `None` if the ring is empty.
    ///
    /// # Safety
    ///
    /// At most one thread may call `pop` at a time (the single
    /// *consumer*).
    pub unsafe fn pop(&self) -> Option<T> {
        let c = &mut *self.cons.get();
        if c.own == c.seen {
            c.seen = self.tail.load_acquire();
            if c.own == c.seen {
                return None;
            }
        }
        // Safety of `assume_init`: the producer fully wrote this slot
        // before release-storing the `tail` we acquire-loaded, and it
        // will not write it again until `head` passes it — which only
        // happens at the release store below. No write overlaps the
        // read.
        let value = self.slots[c.own % self.capacity]
            .read_maybe_torn()
            .assume_init();
        c.own = c.own.wrapping_add(1);
        self.head.store_release(c.own);
        Some(value)
    }
}

impl<T: Copy + Send + 'static, P: CellProvider> std::fmt::Debug for SpscRing<T, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpscRing")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

/// The producing half of a ring; `Send`, not `Clone` — owning it *is*
/// the single-producer permit.
#[derive(Debug)]
pub struct SpscProducer<T: Copy + Send + 'static, P: CellProvider> {
    ring: Arc<SpscRing<T, P>>,
}

impl<T: Copy + Send + 'static, P: CellProvider> SpscProducer<T, P> {
    /// Appends `value`, or hands it back if the ring is full.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        // Safety: this handle is the unique producer (not `Clone`, and
        // `&mut self` excludes aliased calls).
        unsafe { self.ring.push(value) }
    }
}

/// The consuming half of a ring; `Send`, not `Clone`.
#[derive(Debug)]
pub struct SpscConsumer<T: Copy + Send + 'static, P: CellProvider> {
    ring: Arc<SpscRing<T, P>>,
}

impl<T: Copy + Send + 'static, P: CellProvider> SpscConsumer<T, P> {
    /// Removes the oldest value, or `None` if the ring is empty.
    pub fn pop(&mut self) -> Option<T> {
        // Safety: this handle is the unique consumer.
        unsafe { self.ring.pop() }
    }
}

/// Builds a ring and splits it into its producer and consumer handles.
pub fn ring<T: Copy + Send + 'static, P: CellProvider>(
    capacity: usize,
    init: T,
) -> (SpscProducer<T, P>, SpscConsumer<T, P>) {
    let ring = Arc::new(SpscRing::new(capacity, init));
    (
        SpscProducer {
            ring: Arc::clone(&ring),
        },
        SpscConsumer { ring },
    )
}

#[cfg(test)]
mod tests {
    use wfc_registers::RealProvider;

    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let (mut p, mut c) = ring::<u64, RealProvider>(4, 0);
        assert_eq!(c.pop(), None);
        for v in 1..=4 {
            p.push(v).unwrap();
        }
        assert_eq!(p.push(5), Err(5), "full ring refuses");
        for v in 1..=4 {
            assert_eq!(c.pop(), Some(v));
        }
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn wraps_around_many_times() {
        let (mut p, mut c) = ring::<usize, RealProvider>(3, 0);
        for round in 0..1000 {
            p.push(round).unwrap();
            assert_eq!(c.pop(), Some(round));
        }
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_refused() {
        let _ = ring::<u8, RealProvider>(0, 0);
    }

    /// The satellite-3 hammer: a producer and a consumer thread push
    /// 100k self-identifying values through a small ring with seeded
    /// SplitMix64 pacing jitter; the consumer must observe exactly the
    /// pushed sequence — no loss, no duplication, no tearing.
    #[test]
    fn hammer_spsc_is_fifo_and_untorn() {
        const N: u64 = 100_000;
        // Self-identifying payload: both halves derive from `i`, so a
        // torn or stale slot read shows up as an inconsistent pair.
        let encode = |i: u64| (i, i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let (mut p, mut c) = ring::<(u64, u64), RealProvider>(8, (0, 0));
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut rng = crate::tests::SplitMix64::new(0xDEAD_BEEF);
                for i in 0..N {
                    let mut v = encode(i);
                    while let Err(back) = p.push(v) {
                        v = back;
                        // Yield, don't spin: on a single CPU the
                        // consumer can't drain until we deschedule.
                        std::thread::yield_now();
                    }
                    if rng.next().is_multiple_of(64) {
                        std::thread::yield_now();
                    }
                }
            });
            s.spawn(move || {
                let mut rng = crate::tests::SplitMix64::new(0xF00D);
                for i in 0..N {
                    let got = loop {
                        match c.pop() {
                            Some(v) => break v,
                            None => std::thread::yield_now(),
                        }
                    };
                    assert_eq!(got, encode(i), "FIFO order and integrity at {i}");
                    if rng.next().is_multiple_of(64) {
                        std::thread::yield_now();
                    }
                }
                assert_eq!(c.pop(), None, "nothing past the last push");
            });
        });
    }
}
