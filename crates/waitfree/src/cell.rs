//! A write-once result cell: one `set`, at-most-one successful `take`.
//!
//! The cell is a tiny state machine driven by a single atomic word:
//!
//! ```text
//! EMPTY --set--> WRITING --(payload write)--> FULL --take--> TAKEN
//! ```
//!
//! `set` claims the cell with one unconditional `swap(WRITING)` — a
//! second setter is a caller bug and panics, it is never silently
//! raced — writes the payload, and release-stores `FULL`. `take`
//! acquire-loads the state; on `FULL` it swaps in `TAKEN` and reads
//! the payload only if *its* swap was the one that observed `FULL`, so
//! even racing takers extract the value exactly once. Both operations
//! are a constant number of atomic steps with no retry loop at all:
//! wait-freedom here is trivial, which is the point — a result slot
//! needs no mutex, because "written exactly once, consumed exactly
//! once" is already a single-writer protocol.
//!
//! The intermediate `WRITING` state is what makes the premature-
//! publication bug expressible (and catchable by the `wfc-sched`
//! fixture twin): publish the state word before the payload and a
//! concurrent `take` hands back the placeholder.

use wfc_registers::{CellProvider, RawAtomicUsize, RawData as _};

const EMPTY: usize = 0;
const WRITING: usize = 1;
const FULL: usize = 2;
const TAKEN: usize = 3;

/// A cell that is written at most once and consumed at most once, with
/// any number of threads polling [`take`](WriteOnce::take).
pub struct WriteOnce<T: Copy + Send + 'static, P: CellProvider> {
    state: P::AtomicUsize,
    slot: P::Data<T>,
}

impl<T: Copy + Send + 'static, P: CellProvider> WriteOnce<T, P> {
    /// Creates an empty cell. `placeholder` fills the slot until `set`
    /// (provider data cells are never uninitialised); it is never
    /// returned by a correct execution.
    pub fn new(placeholder: T) -> WriteOnce<T, P> {
        WriteOnce {
            state: P::AtomicUsize::new(EMPTY),
            slot: P::Data::new(placeholder),
        }
    }

    /// Stores the cell's value. Wait-free: one swap, one data write,
    /// one store.
    ///
    /// # Panics
    ///
    /// If the cell was already set — a write-once cell's writer is
    /// unique by contract, so a second `set` is a logic error upstream,
    /// not a race to arbitrate.
    pub fn set(&self, value: T) {
        let prev = self.state.swap_acq_rel(WRITING);
        assert_eq!(prev, EMPTY, "WriteOnce::set on a non-empty cell");
        self.slot.write(value);
        self.state.store_release(FULL);
    }

    /// Takes the value if it has been set and not yet taken. Racing
    /// takers are safe: exactly one receives `Some`.
    pub fn take(&self) -> Option<T> {
        if self.state.load_acquire() != FULL {
            return None;
        }
        if self.state.swap_acq_rel(TAKEN) != FULL {
            // Another taker's swap got there first; it owns the value.
            return None;
        }
        // Safety: the setter wrote the slot before release-storing
        // FULL, which our acquire swap observed; nothing writes the
        // slot after FULL, so the read is untorn and initialised.
        Some(unsafe { self.slot.read_maybe_torn().assume_init() })
    }

    /// Whether a value is currently available to take.
    pub fn is_full(&self) -> bool {
        self.state.load_acquire() == FULL
    }
}

impl<T: Copy + Send + 'static, P: CellProvider> std::fmt::Debug for WriteOnce<T, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteOnce").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use wfc_registers::RealProvider;

    use super::*;

    #[test]
    fn set_then_take_exactly_once() {
        let cell = WriteOnce::<u64, RealProvider>::new(0);
        assert!(!cell.is_full());
        assert_eq!(cell.take(), None);
        cell.set(7);
        assert!(cell.is_full());
        assert_eq!(cell.take(), Some(7));
        assert_eq!(cell.take(), None, "a value is taken at most once");
        assert!(!cell.is_full());
    }

    #[test]
    #[should_panic(expected = "non-empty cell")]
    fn double_set_is_a_caller_bug() {
        let cell = WriteOnce::<u64, RealProvider>::new(0);
        cell.set(1);
        cell.set(2);
    }

    /// The satellite-3 hammer: one setter thread against several
    /// polling takers, repeated over many fresh cells. Exactly one
    /// taker must win each round, and it must see the set value — never
    /// the placeholder.
    #[test]
    fn hammer_exactly_one_taker_wins() {
        const ROUNDS: u64 = 2_000;
        const TAKERS: usize = 3;
        for round in 0..ROUNDS {
            let cell = WriteOnce::<(u64, u64), RealProvider>::new((u64::MAX, u64::MAX));
            let wins = std::sync::atomic::AtomicUsize::new(0);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let mut rng = crate::tests::SplitMix64::new(round);
                    if rng.next().is_multiple_of(4) {
                        std::thread::yield_now();
                    }
                    cell.set((round, round.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
                });
                for _ in 0..TAKERS {
                    s.spawn(|| loop {
                        if let Some((a, b)) = cell.take() {
                            assert_eq!(a, round, "taker got the wrong round's value");
                            assert_eq!(b, round.wrapping_mul(0x9e37_79b9_7f4a_7c15), "torn take");
                            wins.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            break;
                        }
                        if cell.is_full() {
                            continue;
                        }
                        // Either not yet set, or someone else took it.
                        if wins.load(std::sync::atomic::Ordering::Relaxed) > 0 {
                            break;
                        }
                        std::thread::yield_now();
                    });
                }
            });
            assert_eq!(
                wins.load(std::sync::atomic::Ordering::Relaxed),
                1,
                "exactly one taker per round"
            );
        }
    }
}
