//! The benchmark's own instruments: spans recorded around its calls into
//! each layer, a counting global allocator, honest percentiles, and the
//! process's peak resident set.
//!
//! Spans and allocation counting are live only in a traced pass; an
//! untraced pass pays one relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use wfc_spec::prng::SplitMix64;

/// A `System` allocator that counts allocation events while enabled.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a relaxed statistic that publishes no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Turns allocation counting on or off for the whole process.
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocation events counted so far (every thread, server included).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// One timed call into a layer.
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    req: u64,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span collector, written out once at the end of a run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A collector; with `on == false` every call is a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh span id (0 when off), taken when a span starts so that
    /// spans nested inside it can name it as their parent.
    pub fn open(&self) -> u64 {
        if self.on {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records the finished span `id`.
    pub fn close(
        &self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        req: u64,
    ) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            req,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans
            .lock()
            .expect("span lock poisoned by a panicking recorder")
            .push(span);
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        req: u64,
    ) -> u64 {
        let id = self.open();
        self.close(id, name, start, end, parent, req);
        id
    }

    /// Runs `f` inside a span; `f` gets the span's id for its children.
    pub fn span<T>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        let id = self.open();
        let start = Instant::now();
        let out = f(id);
        self.close(id, name, start, Instant::now(), parent, 0);
        out
    }

    /// Writes every span as one JSON object per line, then prints a
    /// per-name summary (count, total and self time: duration minus the
    /// part covered by child spans).
    pub fn finish(&self, path: &std::path::Path) -> std::io::Result<()> {
        if !self.on {
            return Ok(());
        }
        let spans = self
            .spans
            .lock()
            .expect("span lock poisoned by a panicking recorder");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        let mut child_ns = std::collections::HashMap::<u64, u64>::new();
        for s in spans.iter() {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut by_name = std::collections::BTreeMap::<&str, (u64, u64, u64)>::new();
        for s in spans.iter() {
            let dur = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        }
        println!("# spans: {} written to {}", spans.len(), path.display());
        for (name, (n, total, own)) in by_name {
            println!(
                "#   span {name:<22} n={n:<8} total_ms={:<10.3} self_ms={:.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        Ok(())
    }
}

/// A latency sample reduced honestly: the median, p99 only when at least
/// ten samples lie beyond it, and the highest such percentile.
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    pub p99: Option<f64>,
    pub highest: Option<(f64, f64)>,
}

/// Nearest-rank percentile `q` (0..=1) of a sorted sample, or `None`
/// when fewer than ten samples lie beyond it.
pub fn honest_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    (rank <= n && n - rank >= 10).then(|| sorted[rank - 1])
}

impl Latency {
    pub fn of(mut sample: Vec<f64>) -> Latency {
        sample.sort_by(f64::total_cmp);
        let n = sample.len();
        let p50 = if n == 0 { 0.0 } else { sample[(n - 1) / 2] };
        let highest = [0.9999, 0.999, 0.99, 0.9, 0.5]
            .into_iter()
            .find_map(|q| honest_percentile(&sample, q).map(|v| (q * 100.0, v)));
        Latency {
            n,
            p50,
            p99: honest_percentile(&sample, 0.99),
            highest,
        }
    }

    /// One printable line: sample count, median, p99 (or why it is
    /// refused) and the highest percentile the sample supports.
    pub fn describe(&self, what: &str) -> String {
        let p99 = self.p99.map_or(
            "refused (fewer than 10 samples beyond it)".to_owned(),
            |v| format!("{v:.1}"),
        );
        let highest = self
            .highest
            .map_or("none".to_owned(), |(q, v)| format!("p{q}={v:.1}"));
        format!(
            "{what}: n={} p50={:.1} p99={p99} highest-supported {highest}",
            self.n, self.p50
        )
    }
}

/// Latencies bucketed by completion time into equal slices of a
/// window, each kept as a uniform reservoir of at most `CAP` samples.
/// The reservoirs are allocated and written in full up front, so the
/// generator's resident memory is the same whatever the throughput (the
/// server shares the process, and its peak resident set is a metric). Each
/// slice also notes the CPU time the process had been given when its
/// first answer landed, so a slice's CPU share shows how much of the
/// host the process had during it.
pub struct Slices {
    start: Instant,
    width_s: f64,
    seen: Vec<u64>,
    cpu_at: Vec<Option<f64>>,
    kept: Vec<Vec<f32>>,
    rng: SplitMix64,
}

/// One slice of a window, reduced.
pub struct Slice {
    /// Answers per second.
    pub rate: f64,
    /// CPU-seconds the process used per second of the slice; `None` for
    /// the last slice and any slice without answers.
    pub cpu_share: Option<f64>,
    pub sample: Vec<f64>,
}

impl Slices {
    const CAP: usize = 2048;

    /// `count` slices of `width_s` seconds from `start`; answers after
    /// the window (the drain) land in the last slice.
    pub fn new(start: Instant, width_s: f64, count: usize, seed: u64) -> Slices {
        Slices {
            start,
            width_s,
            seen: vec![0; count],
            cpu_at: vec![None; count],
            kept: vec![vec![f32::NAN; Self::CAP]; count],
            rng: SplitMix64::new(seed),
        }
    }

    pub fn push(&mut self, at: Instant, latency_us: f64) {
        let i = (at.saturating_duration_since(self.start).as_secs_f64() / self.width_s) as usize;
        let i = i.min(self.seen.len() - 1);
        if self.seen[i] == 0 {
            self.cpu_at[i] = Some(process_cpu_s());
        }
        self.seen[i] += 1;
        let seen = self.seen[i] as usize;
        if seen <= Self::CAP {
            self.kept[i][seen - 1] = latency_us as f32;
        } else {
            let j = (self.rng.next_u64() % self.seen[i]) as usize;
            if j < Self::CAP {
                self.kept[i][j] = latency_us as f32;
            }
        }
    }

    /// Requests answered, over every slice.
    pub fn answered(&self) -> u64 {
        self.seen.iter().sum()
    }

    pub fn into_slices(self) -> Vec<Slice> {
        let width = self.width_s;
        let shares: Vec<Option<f64>> = (0..self.seen.len())
            .map(|i| {
                let (from, to) = (self.cpu_at[i]?, *self.cpu_at.get(i + 1)?);
                Some((to? - from) / width)
            })
            .collect();
        self.kept
            .into_iter()
            .zip(self.seen)
            .zip(shares)
            .map(|((kept, seen), cpu_share)| Slice {
                rate: seen as f64 / width,
                cpu_share,
                sample: kept[..(seen as usize).min(Self::CAP)]
                    .iter()
                    .map(|&v| f64::from(v))
                    .collect(),
            })
            .collect()
    }
}

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time this process has used so far, every thread, in seconds.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: std::os::raw::c_int, ts: *mut Timespec) -> std::os::raw::c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, exclusively borrowed `struct timespec`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.sec as f64 + ts.nsec as f64 * 1e-9
    } else {
        0.0
    }
}
