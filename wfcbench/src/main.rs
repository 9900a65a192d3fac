//! `wfcbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release -q --manifest-path wfcbench/Cargo.toml -- \
//!     --workload serve-hot|check --seed N --seconds N --trace 0|1
//! ```
//!
//! Run from the repository root (the `check` workload reads the
//! `scenarios/` corpus). Informational lines start with `#`; the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` runs the workload three times — with
//! nothing on, with observability on, and with observability, the
//! benchmark's spans and allocation counting on — and prints the
//! per-layer metrics of the last pass plus the cost of observability
//! (the second pass against the first, which differ in nothing else).
//! Any output-check mismatch makes the run fail with exit code 1.

mod check;
mod gen;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use trace::{CountingAlloc, Tracer};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Every per-layer metric and its unit, in print order. A layer that a
/// workload never calls reads 0 on that workload.
const PER_LAYER: &[(&str, &str)] = &[
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("stage.decode.mean_us", "us"),
    ("stage.respond.mean_us", "us"),
    ("stage.flush.mean_us", "us"),
    ("conn.spilled_ratio", "ratio"),
    ("stage.admit.mean_us", "us"),
    ("stage.batch.mean_us", "us"),
    ("stage.queue.mean_us", "us"),
    ("stage.queue.p99_us", "us"),
    ("batch.entries_per_dispatch", "count"),
    ("batch.coalesced_ratio", "ratio"),
    ("service.busy_ratio", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("stage.engine.mean_us", "us"),
    ("stage.engine.p99_us", "us"),
    ("direct.sched.mean_us", "us"),
    ("direct.scenario.mean_us", "us"),
    ("direct.classify.mean_us", "us"),
    ("direct.witness.mean_us", "us"),
    ("sched.dfs.busy_s", "s"),
    ("sched.dfs.schedules", "count"),
    ("sched.dfs.pruned", "count"),
    ("sched.dfs.us_per_schedule", "us"),
    ("sched.pct.busy_s", "s"),
    ("sched.pct.us_per_schedule", "us"),
    ("sched.fixtures.busy_s", "s"),
    ("explorer.big.busy_s", "s"),
    ("explorer.big.configs", "count"),
    ("explorer.big.configs_per_s", "1/s"),
    ("hierarchy.tiny.busy_s", "s"),
    ("hierarchy.tiny.explorations", "count"),
    ("hierarchy.tiny.us_per_exploration", "us"),
    ("scenario.parse_us", "us"),
    ("scenario.run.busy_s", "s"),
    ("alloc.per_request", "count"),
    ("alloc.per_schedule", "count"),
    ("alloc.per_config", "count"),
    ("obs.overhead.throughput_pct", "%"),
    ("obs.overhead.p50_pct", "%"),
    ("obs.overhead.wall_pct", "%"),
];

/// Per-layer accumulators. Keys starting with `_` are raw sums that
/// [`Layers::finish`] turns into the published ratios.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn add(&mut self, key: &'static str, value: f64) {
        *self.0.entry(key).or_default() += value;
    }

    pub fn set(&mut self, key: &'static str, value: f64) {
        self.0.insert(key, value);
    }

    pub fn merge(&mut self, other: Layers) {
        for (key, value) in other.0 {
            self.add(key, value);
        }
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// `num / den`, or 0 when nothing was measured.
    fn ratio(&self, num: &str, den: &str, scale: f64) -> f64 {
        let d = self.get(den);
        if d > 0.0 {
            self.get(num) * scale / d
        } else {
            0.0
        }
    }

    /// Derives the per-unit metrics from the raw sums.
    fn finish(&mut self) {
        let derived = [
            (
                "sched.dfs.us_per_schedule",
                self.ratio("sched.dfs.busy_s", "sched.dfs.schedules", 1e6),
            ),
            (
                "sched.pct.us_per_schedule",
                self.ratio("sched.pct.busy_s", "_sched.pct.schedules", 1e6),
            ),
            (
                "explorer.big.configs_per_s",
                self.ratio("explorer.big.configs", "explorer.big.busy_s", 1.0),
            ),
            (
                "hierarchy.tiny.us_per_exploration",
                self.ratio("hierarchy.tiny.busy_s", "hierarchy.tiny.explorations", 1e6),
            ),
            (
                "scenario.parse_us",
                self.ratio("_scenario.parse_s", "_scenario.files", 1e6),
            ),
            (
                "alloc.per_schedule",
                self.ratio("_alloc.sched", "_sched.schedules", 1.0),
            ),
            (
                "alloc.per_config",
                self.ratio("_alloc.explorer", "explorer.big.configs", 1.0),
            ),
            (
                "direct.sched.mean_us",
                self.ratio("_direct.sched.s", "_direct.sched.n", 1e6),
            ),
            (
                "direct.scenario.mean_us",
                self.ratio("_direct.scenario.s", "_direct.scenario.n", 1e6),
            ),
            (
                "direct.classify.mean_us",
                self.ratio("_direct.classify.s", "_direct.classify.n", 1e6),
            ),
            (
                "direct.witness.mean_us",
                self.ratio("_direct.witness.s", "_direct.witness.n", 1e6),
            ),
        ];
        for (key, value) in derived {
            self.set(key, value);
        }
    }
}

/// What one pass of a workload measured.
#[derive(Default)]
pub struct Pass {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Failures beyond the first few messages kept in `failures`.
    pub more_failures: u64,
    pub throughput: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub wall_s: f64,
    pub setup_s: f64,
    pub layers: Layers,
}

impl Pass {
    /// Counts one failed operation, keeping its message if few so far.
    pub fn fail(&mut self, message: String) {
        if self.failures.len() < 20 {
            self.failures.push(message);
        } else {
            self.more_failures += 1;
        }
    }

    /// Operations attempted; never fewer than those that failed.
    pub fn attempted(&self) -> u64 {
        self.attempted.max(self.failed())
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64 + self.more_failures
    }
}

/// What one pass of a workload turns on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    /// Nothing: the end-to-end figures.
    Plain,
    /// Observability alone (`wfc_obs::set_enabled`), priced against `Plain`.
    Obs,
    /// Observability, the benchmark's spans and allocation counting: the
    /// per-layer attribution.
    Traced,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeHot,
    Check,
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "serve-hot" => Workload::ServeHot,
                    "check" => Workload::Check,
                    other => return Err(format!("unknown workload `{other}`")),
                })
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The commit of the checkout, read from `.git` without running git.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// Runs one pass; `batches` fixes the number of `check` batches (`None`
/// fills the window).
fn run_pass(args: &Args, mode: Mode, batches: Option<usize>) -> Pass {
    let traced = mode == Mode::Traced;
    wfc_obs::set_enabled(mode != Mode::Plain);
    trace::count_allocations(traced);
    let tracer = Tracer::new(traced);
    let mut pass = match args.workload {
        Workload::ServeHot => serve::hot(args, &tracer),
        Workload::Check => check::run(args, &tracer, batches),
    };
    trace::count_allocations(false);
    wfc_obs::set_enabled(false);
    pass.layers.finish();
    let name = match args.workload {
        Workload::ServeHot => "serve-hot",
        Workload::Check => "check",
    };
    let path = format!(".wfcbench_out/spans-{name}-seed{}.jsonl", args.seed);
    if let Err(e) = tracer.finish(std::path::Path::new(&path)) {
        pass.fail(format!("writing spans to {path}: {e}"));
    }
    println!(
        "# pass mode={mode:?}: attempted={} failed={} error_rate={:.6} throughput_rps={:.1} \
         latency_p50_us={:.1} latency_p99_us={:.1} wall_s={:.4} setup_s={:.5}",
        pass.attempted(),
        pass.failed(),
        pass.failed() as f64 / pass.attempted().max(1) as f64,
        pass.throughput,
        pass.p50_us,
        pass.p99_us,
        pass.wall_s,
        pass.setup_s
    );
    for f in &pass.failures {
        println!("# FAIL {f}");
    }
    if pass.more_failures > 0 {
        println!("# FAIL … and {} more", pass.more_failures);
    }
    pass
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wfcbench: {e}");
            eprintln!(
                "usage: wfcbench --workload serve-hot|check --seed N --seconds N --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "# host nproc={} obs={} seed={} seconds={} rustc=\"{}\" commit={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if args.trace { "off,on,on+spans" } else { "off" },
        args.seed,
        args.seconds,
        env!("WFCBENCH_RUSTC"),
        git_commit()
    );
    let (attempted, failed, metrics) = if args.trace {
        // The two passes priced against each other run the same number
        // of `check` batches; one batch is enough for attribution.
        let base = run_pass(&args, Mode::Plain, Some(check::OVERHEAD_BATCHES));
        let obs = run_pass(&args, Mode::Obs, Some(check::OVERHEAD_BATCHES));
        let mut traced = run_pass(&args, Mode::Traced, Some(1));
        let pct = |new: f64, old: f64| {
            if old > 0.0 {
                (new - old) / old * 100.0
            } else {
                0.0
            }
        };
        // Throughput lost, and p50 and wall time gained, by turning
        // observability on.
        traced.layers.set(
            "obs.overhead.throughput_pct",
            -pct(obs.throughput, base.throughput),
        );
        traced
            .layers
            .set("obs.overhead.p50_pct", pct(obs.p50_us, base.p50_us));
        traced
            .layers
            .set("obs.overhead.wall_pct", pct(obs.wall_s, base.wall_s));
        let metrics: Vec<String> = PER_LAYER
            .iter()
            .map(|&(name, unit)| metric(name, traced.layers.get(name), unit))
            .collect();
        let passes = [&base, &obs, &traced];
        (
            passes.iter().map(|p| p.attempted()).sum(),
            passes.iter().map(|p| p.failed()).sum(),
            metrics,
        )
    } else {
        let pass = run_pass(&args, Mode::Plain, None);
        let metrics = vec![
            metric("throughput_rps", pass.throughput, "1/s"),
            metric("latency_p50_us", pass.p50_us, "us"),
            metric("latency_p99_us", pass.p99_us, "us"),
            metric("wall_s", pass.wall_s, "s"),
            metric("setup_s", pass.setup_s, "s"),
            metric("peak_rss_mb", trace::peak_rss_mb(), "MB"),
        ];
        (pass.attempted(), pass.failed(), metrics)
    };
    let correct = failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
