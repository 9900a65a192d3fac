//! E11 — the `wfc-sched` model checker: schedules and scheduler steps
//! per second, DFS versus PCT, on the 1-write/2-read SRSW conversation.
//!
//! Each schedule is one from-scratch execution whose virtual threads
//! are real OS threads. The grant passes straight from the thread that
//! completes a choice point to the thread the decider picks, with no
//! scheduler thread in between: a step costs one engine-lock round when
//! the running thread is picked again, and one targeted condvar wakeup
//! (a context switch) when another thread is. The register code under
//! test is a small share of that, so steps/second measures the executor
//! itself, and schedules/second — steps/second over the mean schedule
//! length — decides what budgets an exploration can afford. Expected
//! shape: sleep-set DFS explores fewer schedules than plain DFS for the
//! same verdict, and PCT's cost is linear in its configured run count.

use std::hint::black_box;
use wfc_bench::harness::Criterion;
use wfc_bench::{criterion_group, criterion_main};
use wfc_sched::{explore, fixtures, Mode, SchedOptions};

fn bench_sched(c: &mut Criterion) {
    let mut g = c.benchmark_group("sched");
    g.sample_size(10);
    let cases = [
        ("dfs_sleep_on", Mode::Exhaustive { sleep_sets: true }),
        ("dfs_sleep_off", Mode::Exhaustive { sleep_sets: false }),
        (
            "pct_seed1_runs32",
            Mode::Pct {
                seed: 1,
                runs: 32,
                depth: 3,
            },
        ),
    ];
    for (label, mode) in cases {
        let options = SchedOptions::default().with_mode(mode);
        let mut build = fixtures::build("srsw").expect("srsw fixture exists");
        // The exploration is deterministic, so one warm-up run gives
        // the per-exploration schedule and step counts.
        let once = explore(&options, &mut build).expect("srsw fits the default budgets");
        let id = format!("srsw/{label}");
        g.bench_function(id.as_str(), |b| {
            b.iter(|| black_box(explore(&options, &mut build).unwrap()))
        });
        let secs = g.results().last().expect("just measured").median_ns * 1e-9;
        if secs > 0.0 {
            println!(
                "sched/{id:<40} rate: {:.0} schedules/s, {:.0} steps/s ({} schedules, {} steps)",
                once.schedules as f64 / secs,
                once.steps as f64 / secs,
                once.schedules,
                once.steps
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_sched);
criterion_main!(benches);
