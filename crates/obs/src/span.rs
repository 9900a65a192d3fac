//! Lightweight spans: monotonic start/stop pairs aggregated per thread,
//! merged deterministically at drain.
//!
//! A span is opened with [`enter`] (or the [`span!`](crate::span) macro)
//! and, when the returned [`SpanGuard`] drops, folds its wall-clock
//! duration into the *current thread's* aggregate for its
//! `(name, label)` key — count, total, min and max nanoseconds. No
//! record is kept, so a thread's span memory is bounded by the number
//! of distinct keys it has closed, not by how long it has run, and the
//! hot path takes no cross-thread synchronisation.
//!
//! ## Flushing
//!
//! A thread flushes when it exits (scoped explorer workers exit before
//! their spawner resumes) and when it calls [`drain`]: it moves its
//! aggregates into one global collector map under a mutex and raises a
//! relaxed flag. Each thread's map is a single-writer part, and the
//! collector is the only shared object, touched once per flush rather
//! than once per span. A drain that reads the flag as lowered has
//! nothing to collect and returns without taking the lock — the
//! disabled path of the zero-cost contract.
//!
//! ## The deterministic merge rule
//!
//! [`drain`] returns the aggregates sorted by `(name, label)`. Which
//! *thread* closed a span never enters the key, and per-key counts
//! depend only on the work performed, so two runs of the same workload
//! at the same thread count drain to the same set of keys with the same
//! counts — only the nanosecond figures vary. Instrumented computations
//! themselves are unaffected: spans are a write-only side channel.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Running totals for one `(name, label)` key.
#[derive(Clone, Copy, Debug)]
struct Agg {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Agg {
    const EMPTY: Agg = Agg {
        count: 0,
        total_ns: 0,
        min_ns: u64::MAX,
        max_ns: 0,
    };

    fn merge(&mut self, other: Agg) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

type Aggregates = BTreeMap<(&'static str, String), Agg>;

/// Every flushed aggregate not yet drained.
static COLLECTOR: Mutex<Aggregates> = Mutex::new(BTreeMap::new());

/// Raised (under the collector lock) when a flush makes the collector
/// non-empty; lowered by the drain that empties it. `Relaxed` suffices:
/// the flag publishes no data — the mutex does — and a drain that
/// misses a concurrent flush's raise collects it at the next drain.
static FLUSHED: AtomicBool = AtomicBool::new(false);

#[cfg(test)]
static COLLECTOR_LOCKS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

fn collector() -> std::sync::MutexGuard<'static, Aggregates> {
    #[cfg(test)]
    COLLECTOR_LOCKS.fetch_add(1, Ordering::Relaxed);
    // Every merge leaves the map valid, so a poisoned lock is safe to
    // recover.
    COLLECTOR.lock().unwrap_or_else(|e| e.into_inner())
}

/// How many times the collector lock has been taken (zero-cost tests
/// assert a disabled drain leaves this unchanged).
#[cfg(test)]
pub(crate) fn collector_locks() -> usize {
    COLLECTOR_LOCKS.load(Ordering::Relaxed)
}

/// This thread's aggregates since its last flush.
struct LocalAggs(Aggregates);

impl LocalAggs {
    fn flush(&mut self) {
        if self.0.is_empty() {
            return;
        }
        let mut global = collector();
        for (key, agg) in std::mem::take(&mut self.0) {
            global.entry(key).or_insert(Agg::EMPTY).merge(agg);
        }
        FLUSHED.store(true, Ordering::Relaxed);
    }
}

impl Drop for LocalAggs {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<LocalAggs> = const { RefCell::new(LocalAggs(BTreeMap::new())) };
}

/// An open span; records its duration on drop. Inert (and free) when
/// created with recording off.
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to; bind it to a `let _g`"]
pub struct SpanGuard {
    open: Option<(&'static str, String, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((name, label, start)) = self.open.take() {
            let dur_ns = start.elapsed().as_nanos() as u64;
            let one = Agg {
                count: 1,
                total_ns: dur_ns,
                min_ns: dur_ns,
                max_ns: dur_ns,
            };
            // A thread-local at destruction time (thread teardown) would
            // panic on access; spans are only opened from live code, so
            // plain access is fine.
            LOCAL.with(|l| {
                l.borrow_mut()
                    .0
                    .entry((name, label))
                    .or_insert(Agg::EMPTY)
                    .merge(one)
            });
        }
    }
}

/// Opens a span named `name` with a free-form `label` (e.g. `"level=3"`).
pub fn enter(name: &'static str, label: String) -> SpanGuard {
    SpanGuard {
        open: Some((name, label, Instant::now())),
    }
}

/// Opens a span only when `on` is true; otherwise returns an inert guard.
pub fn enter_if(on: bool, name: &'static str, label: String) -> SpanGuard {
    if on {
        enter(name, label)
    } else {
        SpanGuard { open: None }
    }
}

/// Like [`enter_if`], but builds the label lazily — disabled call sites
/// pay neither the allocation nor the formatting.
pub fn enter_lazy(on: bool, name: &'static str, label: impl FnOnce() -> String) -> SpanGuard {
    if on {
        enter(name, label())
    } else {
        SpanGuard { open: None }
    }
}

/// The aggregate of all spans sharing one `(name, label)` key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanStat {
    /// The span's name.
    pub name: String,
    /// The span's label (may be empty).
    pub label: String,
    /// Number of spans merged into this aggregate.
    pub count: u64,
    /// Shortest single duration, nanoseconds.
    pub min_ns: u64,
    /// Longest single duration, nanoseconds.
    pub max_ns: u64,
    /// Sum of durations, nanoseconds.
    pub total_ns: u64,
}

/// Empties the collector, or returns an empty map without locking if
/// nothing was flushed since the last take.
fn take_flushed() -> Aggregates {
    if !FLUSHED.load(Ordering::Relaxed) {
        return BTreeMap::new();
    }
    let mut global = collector();
    FLUSHED.store(false, Ordering::Relaxed);
    std::mem::take(&mut *global)
}

/// Flushes the calling thread's aggregates, takes every flushed one,
/// and returns them sorted by `(name, label)` — the deterministic merge
/// rule (see the module docs).
///
/// With nothing recorded anywhere (in particular, whenever observability
/// is disabled) this is one thread-local check and one relaxed load —
/// no lock is taken.
pub fn drain() -> Vec<SpanStat> {
    LOCAL.with(|l| l.borrow_mut().flush());
    take_flushed()
        .into_iter()
        .map(|((name, label), a)| SpanStat {
            name: name.to_owned(),
            label,
            count: a.count,
            min_ns: a.min_ns,
            max_ns: a.max_ns,
            total_ns: a.total_ns,
        })
        .collect()
}

/// Discards the calling thread's unflushed aggregates and every flushed
/// but undrained one.
pub fn reset() {
    LOCAL.with(|l| l.borrow_mut().0.clear());
    take_flushed();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `work` on `threads` scoped threads and joins each one
    /// explicitly: the implicit join at the end of a scope may return
    /// before a thread's thread-local destructors — its exit flush —
    /// have run, while an explicit join waits for them.
    fn on_threads(threads: usize, work: impl Fn() + Sync) {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(&work)).collect();
            for h in handles {
                h.join().expect("span worker panicked");
            }
        });
    }

    #[test]
    fn spans_from_scoped_threads_merge_deterministically() {
        let _l = crate::tests::test_lock();
        reset();
        on_threads(4, || {
            for level in 0..3u32 {
                let _g = enter("t.bfs_level", format!("level={level}"));
            }
        });
        let stats = drain();
        assert_eq!(stats.len(), 3, "{stats:?}");
        for (i, st) in stats.iter().enumerate() {
            assert_eq!(st.name, "t.bfs_level");
            assert_eq!(st.label, format!("level={i}"), "sorted by (name, label)");
            assert_eq!(st.count, 4, "one span per worker");
        }
        assert!(drain().is_empty(), "drain consumes the aggregates");
    }

    #[test]
    fn aggregates_fold_min_max_and_total() {
        let _l = crate::tests::test_lock();
        reset();
        for _ in 0..3 {
            let _g = enter("t.fold", String::new());
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let stats = drain();
        assert_eq!(stats.len(), 1, "{stats:?}");
        let st = &stats[0];
        assert_eq!(st.count, 3);
        assert!(st.min_ns >= 1_000_000, "{st:?}");
        assert!(3 * st.min_ns <= st.total_ns, "{st:?}");
        assert!(st.total_ns <= 3 * st.max_ns, "{st:?}");
    }

    #[test]
    fn inert_guards_record_nothing() {
        let _l = crate::tests::test_lock();
        reset();
        {
            let _g = enter_if(false, "t.inert", String::new());
        }
        assert!(drain().is_empty());
    }

    /// Per-thread span state is bounded by the number of distinct keys,
    /// not by how many spans the thread has closed.
    #[test]
    fn a_thread_holds_one_aggregate_per_key() {
        let _l = crate::tests::test_lock();
        reset();
        let labels = ["a", "b", "c"];
        for i in 0..100_000 {
            let _g = enter("t.bounded", labels[i % 3].to_owned());
        }
        assert_eq!(LOCAL.with(|l| l.borrow().0.len()), 3);
        let stats = drain();
        assert_eq!(stats.len(), 3);
        assert_eq!(stats.iter().map(|s| s.count).sum::<u64>(), 100_000);
    }

    /// Repeated drains on one thread deliver every span exactly once.
    #[test]
    fn incremental_drains_deliver_each_span_once() {
        let _l = crate::tests::test_lock();
        reset();
        for round in 0..3u32 {
            {
                let _g = enter("t.incremental", format!("round={round}"));
            }
            let stats = drain();
            assert_eq!(stats.len(), 1, "{stats:?}");
            assert_eq!(stats[0].label, format!("round={round}"));
            assert_eq!(stats[0].count, 1, "no re-delivery from earlier rounds");
        }
        assert!(drain().is_empty());
    }

    /// `reset` discards flushed and unflushed aggregates alike, and a
    /// thread keeps working after it.
    #[test]
    fn reset_discards_flushed_and_unflushed_aggregates() {
        let _l = crate::tests::test_lock();
        reset();
        on_threads(1, || {
            let _g = enter("t.reset.flushed", String::new());
        });
        assert!(
            FLUSHED.load(Ordering::Relaxed),
            "the worker flushed on exit"
        );
        {
            let _g = enter("t.reset.unflushed", String::new());
        }
        reset();
        assert!(drain().is_empty(), "reset discarded everything");
        {
            let _g = enter("t.reset.after", String::new());
        }
        let stats = drain();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].name, "t.reset.after");
    }
}
