//! The `check` workload: the fixed batch a researcher waits for when
//! reproducing the paper, run single-threaded with explorer calls at
//! two threads.
//!
//! * the `wfc-sched` fixture suite: every passing fixture by exhaustive
//!   DFS, every planted-bug fixture with its counterexample replayed,
//!   and one seeded PCT run of 1000 schedules;
//! * the explorer on one big graph: Section 4.2 access bounds of the
//!   5-process `cas_announce` protocol;
//! * the explorer on thousands of tiny graphs: the full `18³` shift2
//!   three-process sweep;
//! * the `scenarios/` corpus.
//!
//! `mrsw` DFS and the two-read protocol search are left out: they take
//! minutes, too long to repeat on every run. Every count below is pinned
//! and checked on every run.

use std::time::Instant;

use wfc_obs::json::Json;
use wfc_service::{parse_sched_spec, run_scenario_text, run_sched, QueryOptions};

use crate::serve::{account_sched, run_scenario};
use crate::trace::{self, Tracer};
use crate::{Args, Layers, Pass};

/// Passing fixtures: spec, schedules explored, schedules pruned.
const PASSING: &[(&str, u64, u64)] = &[
    ("seqlock", 5246, 9315),
    ("srsw sleep=off", 8236, 0),
    ("srsw", 187, 334),
    ("t4", 41, 52),
    ("repl", 33, 205),
    ("ring", 46, 50),
    ("triple", 16, 23),
    ("cell", 10, 4),
];

/// Planted-bug fixtures: spec, schedules explored, schedules pruned.
const VIOLATING: &[(&str, u64, u64)] = &[
    ("regular", 95, 114),
    ("broken", 6, 4),
    ("repl_broken", 11, 49),
    ("ring_broken", 4, 1),
    ("triple_broken", 16, 21),
    ("cell_broken", 4, 2),
];

const PCT_RUNS: u64 = 1000;
const BIG_PROCESSES: usize = 5;
const BIG_CONFIGS: u64 = 484_160;
const SHIFT2_CANDIDATES: usize = 5832;
const SHIFT2_EXPLORATIONS: usize = 12_396;
const EXPLORER_THREADS: usize = 2;
/// The fewest whole batches a run that fills its window measures.
const MIN_BATCHES: usize = 3;
/// Batches in each of the two passes that price observability.
pub const OVERHEAD_BATCHES: usize = 2;
/// Corpus loads per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The batch's inputs, read, validated and warmed once per set-up.
struct Corpus {
    scenarios: Vec<(String, String)>,
    pct_spec: String,
}

fn load(seed: u64) -> Result<Corpus, String> {
    let mut paths: Vec<_> = std::fs::read_dir("scenarios")
        .map_err(|e| format!("reading scenarios/ (run from the repository root): {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .collect();
    paths.sort();
    let scenarios = paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            Ok((p.display().to_string(), text))
        })
        .collect::<Result<Vec<_>, String>>()?;
    if scenarios.is_empty() {
        return Err("scenarios/ holds no .scn files".to_owned());
    }
    // Run every scenario once, so lazy initialisation and allocator
    // growth settle before the batch is timed (and the set-up is real
    // work, which times steadily, not a sub-millisecond file read).
    for (path, text) in &scenarios {
        run_scenario_text(text, &QueryOptions::default()).map_err(|e| format!("{path}: {e}"))?;
    }
    let pct_spec = format!("seqlock mode=pct seed={seed} runs={PCT_RUNS}");
    for spec in PASSING
        .iter()
        .chain(VIOLATING)
        .map(|f| f.0)
        .chain([pct_spec.as_str()])
    {
        parse_sched_spec(spec).map_err(|e| format!("sched spec `{spec}`: {e}"))?;
    }
    Ok(Corpus {
        scenarios,
        pct_spec,
    })
}

/// One batch: every analysis timed as its own item, every output checked.
struct Batch<'a> {
    tracer: &'a Tracer,
    parent: u64,
    layers: &'a mut Layers,
    pass: &'a mut Pass,
    items: Vec<(String, f64)>,
}

impl Batch<'_> {
    /// Times one analysis as an item of the batch.
    fn item<T>(&mut self, name: &'static str, label: &str, f: impl FnOnce(u64) -> T) -> (T, f64) {
        let out = self.tracer.span(name, self.parent, |id| {
            let start = Instant::now();
            (f(id), start.elapsed().as_secs_f64())
        });
        self.items.push((label.to_owned(), out.1 * 1e6));
        self.pass.attempted += 1;
        out
    }

    fn sched(&mut self, spec: &str) -> Option<Json> {
        let before = trace::allocations();
        let (result, secs) = self.item("sched", spec, |_| {
            parse_sched_spec(spec)
                .and_then(|s| run_sched(&s))
                .map_err(|e| e.to_string())
        });
        match result {
            Ok(doc) => {
                account_sched(self.layers, &doc, secs, trace::allocations() - before);
                Some(doc)
            }
            Err(e) => {
                self.pass.fail(format!("sched `{spec}`: {e}"));
                None
            }
        }
    }

    fn expect(&mut self, what: &str, ok: bool) {
        if !ok {
            self.pass.fail(format!("check: {what}"));
        }
    }
}

/// Runs one batch and returns the wall time of each of its four parts.
fn run_batch(corpus: &Corpus, b: &mut Batch) -> [f64; 4] {
    let part = Instant::now();
    let u64_of = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_u64);
    let str_of = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_str).map(str::to_owned);

    for &(spec, schedules, pruned) in PASSING {
        if let Some(doc) = b.sched(spec) {
            let ok = str_of(&doc, "verdict").as_deref() == Some("pass")
                && doc.get("complete") == Some(&Json::Bool(true))
                && doc.get("as_expected") == Some(&Json::Bool(true))
                && u64_of(&doc, "schedules") == Some(schedules)
                && u64_of(&doc, "pruned") == Some(pruned);
            b.expect(
                &format!(
                    "`{spec}` passes completely in {schedules}/{pruned} schedules: {}",
                    doc.render()
                ),
                ok,
            );
        }
    }
    for &(spec, schedules, pruned) in VIOLATING {
        let Some(doc) = b.sched(spec) else { continue };
        let ok = str_of(&doc, "verdict").as_deref() == Some("violation")
            && doc.get("as_expected") == Some(&Json::Bool(true))
            && u64_of(&doc, "schedules") == Some(schedules)
            && u64_of(&doc, "pruned") == Some(pruned);
        b.expect(
            &format!(
                "`{spec}` violates in {schedules}/{pruned} schedules: {}",
                doc.render()
            ),
            ok,
        );
        let cx = doc.get("counterexample");
        let (Some(schedule), Some(message)) = (
            cx.and_then(|c| str_of(c, "schedule")),
            cx.and_then(|c| str_of(c, "message")),
        ) else {
            b.expect(&format!("`{spec}` reports a counterexample"), false);
            continue;
        };
        if let Some(replayed) = b.sched(&format!("{spec} replay={schedule}")) {
            let same = str_of(&replayed, "violation").as_deref() == Some(message.as_str());
            b.expect(&format!("`{spec}` counterexample {schedule} replays"), same);
        }
    }
    if let Some(doc) = b.sched(&corpus.pct_spec) {
        let ok = str_of(&doc, "verdict").as_deref() == Some("pass")
            && doc.get("as_expected") == Some(&Json::Bool(true))
            && u64_of(&doc, "schedules") == Some(PCT_RUNS);
        b.expect(
            &format!("`{}` passes: {}", corpus.pct_spec, doc.render()),
            ok,
        );
    }

    let sched_s = part.elapsed().as_secs_f64();

    let opts = wfc_explorer::ExploreOptions::default().with_threads(EXPLORER_THREADS);
    let before = trace::allocations();
    let (big, secs) = b.item(
        "explorer.big",
        "access bounds of cas_announce at n=5",
        |_| {
            wfc_core::access_bounds(
                BIG_PROCESSES,
                wfc_consensus::cas_announce_consensus_system,
                &opts,
            )
        },
    );
    b.layers
        .add("_alloc.explorer", (trace::allocations() - before) as f64);
    b.layers.add("explorer.big.busy_s", secs);
    let big_s = secs;
    match big {
        Ok(bounds) => {
            b.layers
                .add("explorer.big.configs", bounds.total_configs as f64);
            let configs = bounds.total_configs as u64;
            b.expect(
                &format!("access bounds explore {BIG_CONFIGS} configs, not {configs}"),
                configs == BIG_CONFIGS,
            );
        }
        Err(e) => b.pass.fail(format!("access bounds: {e}")),
    }

    let (sweep, secs) = b.item("hierarchy.tiny", "shift2 three-process sweep", |_| {
        wfc_hierarchy::families::search_shift2_three_process_full(&opts)
    });
    b.layers.add("hierarchy.tiny.busy_s", secs);
    let tiny_s = secs;
    match sweep {
        Ok(o) => {
            b.layers
                .add("hierarchy.tiny.explorations", o.explorations as f64);
            let ok = o.candidates == SHIFT2_CANDIDATES
                && o.survivor_count == 0
                && o.explorations == SHIFT2_EXPLORATIONS;
            b.expect(&format!("shift2 sweep: {o:?}"), ok);
        }
        Err(e) => b.pass.fail(format!("shift2 sweep: {e}")),
    }

    let corpus_start = Instant::now();
    for (path, text) in &corpus.scenarios {
        let tracer = b.tracer;
        let mut layers = Layers::default();
        let (doc, _) = b.item("scenario", path, |id| {
            run_scenario(text, tracer, id, &mut layers)
        });
        b.layers.merge(layers);
        match doc {
            Ok(doc) => b.expect(
                &format!("{path} passes"),
                doc.get("pass") == Some(&Json::Bool(true)),
            ),
            Err(e) => b.pass.fail(format!("{path}: {e}")),
        }
    }
    [sched_s, big_s, tiny_s, corpus_start.elapsed().as_secs_f64()]
}

/// `check`: see the module docs.
///
/// `batches` fixes the number of whole batches; `None` runs as many as
/// fill the window, at least `MIN_BATCHES`.
pub fn run(args: &Args, tracer: &Tracer, batches: Option<usize>) -> Pass {
    let mut pass = Pass::default();
    let mut layers = Layers::default();
    let mut setup_times = Vec::new();
    let mut corpus = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        corpus = Some(load(args.seed));
        setup_times.push(start.elapsed().as_secs_f64());
    }
    pass.setup_s = trace::median(&setup_times);
    println!("# setup_s samples: {setup_times:?}");
    let corpus = match corpus.expect("at least one set-up ran") {
        Ok(c) => c,
        Err(e) => {
            pass.fail(e);
            return pass;
        }
    };

    // Whole batches; every figure is the median over batches. The
    // operations a researcher waits for are the batch's four parts
    // (fixture suite, big graph, tiny graphs, corpus): a fixed
    // population, not a sample, so its percentiles are exact order
    // statistics and p99 is the slowest part. Single analyses are
    // printed too, but a few milliseconds each are too short to time
    // steadily on a shared host.
    let (mut walls, mut p50s, mut p99s, mut rates) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut target = batches.unwrap_or(1);
    while walls.len() < target {
        let batch_start = Instant::now();
        let batch_span = tracer.open();
        let mut batch = Batch {
            tracer,
            parent: batch_span,
            layers: &mut layers,
            pass: &mut pass,
            items: Vec::new(),
        };
        let mut parts = run_batch(&corpus, &mut batch);
        let wall = batch_start.elapsed().as_secs_f64();
        tracer.close(batch_span, "batch", batch_start, Instant::now(), 0, 0);
        let analyses = batch.items.len();
        for (label, us) in batch.items {
            println!("#   {us:>12.1} us  {label}");
        }
        println!("# check parts_s (fixtures, big graph, tiny graphs, corpus): {parts:.3?}");
        parts.sort_by(f64::total_cmp);
        let n = parts.len();
        p50s.push(parts[n.div_ceil(2) - 1] * 1e6);
        p99s.push(parts[n - 1] * 1e6);
        rates.push(n as f64 / wall);
        walls.push(wall);
        // As many whole batches as the first one says fill the window, but
        // at least three: a median of three shrugs off one slow batch.
        if walls.len() == 1 && batches.is_none() {
            target = ((args.seconds as f64 / wall).round() as usize).max(MIN_BATCHES);
        }
        println!(
            "# check batch {}: {analyses} analyses in {wall:.3} s",
            walls.len()
        );
    }
    pass.wall_s = trace::median(&walls);
    pass.throughput = trace::median(&rates);
    pass.p50_us = trace::median(&p50s);
    pass.p99_us = trace::median(&p99s);
    println!(
        "# check parts_us: medians over {} batch(es) p50={:.1} p99(slowest part)={:.1}",
        walls.len(),
        pass.p50_us,
        pass.p99_us
    );
    pass.layers = layers;
    pass
}
