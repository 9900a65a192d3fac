//! Served memory stays flat with observability on.
//!
//! A server that misses its cache on every request runs the engine — and
//! so closes explorer spans — on every request. Span state must stay bounded by
//! the number of distinct span keys, not grow with the number of
//! requests served. This binary counts live heap bytes with its own
//! global allocator, so it holds exactly one test: nothing else may
//! allocate concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use wfc_service::{serve, Client, QueryKind, QueryOptions, Response, ServeConfig};
use wfc_spec::text::format_type;

/// The system allocator, keeping a running count of live bytes.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Requests per batch.
const BATCH: usize = 200;

/// Allowed growth in live bytes over the four measured batches. A
/// collector that keeps one record per closed span grows by about 1.4 MB
/// over them; the per-key aggregate stays within a few hundred bytes.
const BOUND: isize = 64 * 1024;

#[test]
fn served_memory_stays_flat_under_cache_miss_load() {
    wfc_obs::set_enabled(true);
    let handle = serve(ServeConfig {
        workers: 2,
        cache_capacity: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let tas = format_type(&wfc_spec::canonical::test_and_set(2));
    // `max_depth` is part of the cache key and far above the type's real
    // depth, so each request is a fresh key — a miss — doing the same
    // engine work. (Not access-bounds: it prints a run report to stderr
    // per request, and the test harness keeps captured output in memory.)
    let mut next_depth = 10_000;
    let mut batch = || {
        for _ in 0..BATCH {
            let options = QueryOptions::default().with_max_depth(next_depth);
            next_depth += 1;
            match client
                .query(QueryKind::VerifyConsensus, &tas, &options)
                .unwrap()
            {
                Response::Ok { cached, .. } => assert!(!cached, "every request must miss"),
                other => panic!("verify-consensus failed: {other:?}"),
            }
        }
        LIVE.load(Ordering::Relaxed)
    };

    let warm = batch();
    let live: Vec<isize> = (0..4).map(|_| batch()).collect();
    handle.shutdown();
    let growth = live[3] - warm;
    assert!(
        growth < BOUND,
        "live bytes grew by {growth} over four batches of {BATCH} cache misses \
         (after warm-up: {warm}, after each batch: {live:?})"
    );
}
