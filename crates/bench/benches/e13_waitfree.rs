//! E13 — wait-free primitive cost: what did replacing the engine's
//! lock-based rendezvous points with `wfc-waitfree` primitives buy on
//! the uncontended fast path?
//!
//! Three pairs, one per primitive, each against its mutexed
//! counterpart: the SPSC ring vs a `Mutex<VecDeque>` (the worker→IO
//! response path), the triple buffer vs a mutexed slot (latest-value
//! publication), and the write-once cell vs `Mutex<Option<_>>` (pool
//! result slots). Both arms run the same operation sequence on one
//! thread, so the pair isolates *protocol* cost — the atomics and
//! fences — from scheduling noise.
//!
//! The footer prints the measured ratios and the host's available
//! parallelism. The ratios are **informational**, not acceptance gates:
//! both arms run on one thread, where an uncontended `futex` lock is
//! near its best case and the wait-free progress guarantee (no producer
//! ever parks behind a descheduled lock-holder) never gets to show up —
//! the property the primitives were actually adopted for. With `WFC_OBS_JSON` set the group emits
//! `BENCH_waitfree.json` for `wfc-report`'s trajectory table.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Mutex;

use wfc_bench::harness::Criterion;
use wfc_bench::{criterion_group, criterion_main};
use wfc_registers::RealProvider;
use wfc_waitfree::{ring, triple_buffer, WriteOnce};

/// Operations per measured iteration, so one sample amortises the
/// iteration bookkeeping over a ring's worth of work.
const OPS: usize = 64;

fn bench_waitfree(c: &mut Criterion) {
    let mut g = c.benchmark_group("waitfree");
    g.sample_size(30);

    // --- SPSC ring vs Mutex<VecDeque> -------------------------------
    let (mut producer, mut consumer) = ring::<usize, RealProvider>(OPS, 0);
    g.bench_function("spsc/ring_push_pop", |b| {
        b.iter(|| {
            for i in 0..OPS {
                producer.push(black_box(i)).expect("ring sized for OPS");
            }
            for _ in 0..OPS {
                black_box(consumer.pop().expect("ring holds OPS"));
            }
        })
    });
    let deque: Mutex<VecDeque<usize>> = Mutex::new(VecDeque::with_capacity(OPS));
    g.bench_function("spsc/mutex_deque_push_pop", |b| {
        b.iter(|| {
            for i in 0..OPS {
                deque.lock().unwrap().push_back(black_box(i));
            }
            for _ in 0..OPS {
                black_box(deque.lock().unwrap().pop_front().expect("deque holds OPS"));
            }
        })
    });

    // --- Triple buffer vs mutexed slot ------------------------------
    let (mut publisher, mut subscriber) = triple_buffer::<usize, RealProvider>(0);
    g.bench_function("triple/publish_refresh_read", |b| {
        b.iter(|| {
            for i in 0..OPS {
                publisher.publish(black_box(i));
                subscriber.refresh();
                black_box(subscriber.read());
            }
        })
    });
    let slot: Mutex<usize> = Mutex::new(0);
    g.bench_function("triple/mutex_slot_store_load", |b| {
        b.iter(|| {
            for i in 0..OPS {
                *slot.lock().unwrap() = black_box(i);
                black_box(*slot.lock().unwrap());
            }
        })
    });

    // --- Write-once cell vs Mutex<Option> ---------------------------
    // A write-once cell is single-shot, so both arms pay one fresh
    // structure per round trip — construction is part of the protocol
    // being compared (the pool builds one slot per item).
    g.bench_function("cell/writeonce_set_take", |b| {
        b.iter(|| {
            for i in 0..OPS {
                let cell = WriteOnce::<usize, RealProvider>::new(0);
                cell.set(black_box(i));
                black_box(cell.take().expect("just set"));
            }
        })
    });
    g.bench_function("cell/mutex_option_set_take", |b| {
        b.iter(|| {
            for i in 0..OPS {
                let cell: Mutex<Option<usize>> = Mutex::new(None);
                *cell.lock().unwrap() = Some(black_box(i));
                black_box(cell.lock().unwrap().take().expect("just set"));
            }
        })
    });

    // Footer: pairwise ratios (wait-free, mutex) per primitive — see
    // the module docs for why these are informational.
    for pair in g.results().chunks(2) {
        let [wait_free, mutexed] = pair else { continue };
        if wait_free.median_ns <= 0.0 {
            continue;
        }
        let ratio = mutexed.median_ns / wait_free.median_ns;
        let primitive = wait_free.id.split('/').next().unwrap_or("?");
        println!("waitfree/{primitive:<8} mutex-baseline ratio: {ratio:.2}x (informational)");
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "waitfree: {cpus} CPU(s) available; uncontended ratios only — the wait-free win \
         (no producer parks behind a descheduled lock-holder) needs real contention"
    );
    g.finish();
}

criterion_group!(benches, bench_waitfree);
criterion_main!(benches);
