//! Acceptance tests for the model checker: exhaustive coverage of the
//! SRSW conversation, the planted-bug fixture, replay determinism, typed
//! budget errors, and every way an execution is abandoned.

use std::sync::Arc;

use wfc_sched::{
    explore, fixtures, replay, Cell, Execution, Mode, SchedError, SchedOptions, SchedSpec,
};

fn exhaustive(sleep_sets: bool) -> SchedOptions {
    SchedOptions::default().with_mode(Mode::Exhaustive { sleep_sets })
}

/// The headline acceptance check: exhaustive mode on the 1-write/2-read
/// SRSW conversation enumerates every schedule and proves the seqlock
/// register never exhibits the new/old inversion `(1, 0)`.
#[test]
fn srsw_exhaustive_is_complete_and_inversion_free() {
    let mut build = fixtures::build("srsw").unwrap();
    let found = explore(&exhaustive(true), &mut build).unwrap();
    assert!(found.complete, "exhaustive mode must cover the tree");
    assert!(
        found.counterexample.is_none(),
        "the atomic SRSW register must not show the (1, 0) inversion: {:?}",
        found.counterexample
    );
    assert!(found.schedules > 0 && found.pruned > 0);
}

/// Sleep sets are a pruning, not an approximation: with and without
/// them, exhaustive DFS reaches the same verdict, and turning them off
/// only enlarges the schedule count.
#[test]
fn sleep_sets_change_cost_not_verdict() {
    let mut build = fixtures::build("srsw").unwrap();
    let with = explore(&exhaustive(true), &mut build).unwrap();
    let without = explore(&exhaustive(false), &mut build).unwrap();
    assert!(with.complete && without.complete);
    assert!(with.counterexample.is_none() && without.counterexample.is_none());
    assert!(
        without.schedules > with.schedules,
        "pruning must help: {} !> {}",
        without.schedules,
        with.schedules
    );
    assert_eq!(without.pruned, 0);
}

/// Sleep sets agree with plain DFS on a fixture that *does* violate.
#[test]
fn sleep_sets_preserve_violations() {
    let mut build = fixtures::build("regular").unwrap();
    for sleep in [true, false] {
        let found = explore(&exhaustive(sleep), &mut build).unwrap();
        let cx = found
            .counterexample
            .unwrap_or_else(|| panic!("regular-vs-atomic violation missed (sleep={sleep})"));
        assert!(cx.message.contains("not linearizable"), "{}", cx.message);
    }
}

/// Regression for a sleep-set soundness bug: a deferred sibling branch
/// used to inherit sleepers *dependent* on the sibling's own access, so
/// subtrees that were never covered got pruned as if they were. The
/// `triple_broken` fixture is the witness — its violation needs the
/// writer to run again right after the reader's swap, which is exactly
/// the continuation the stale sleep entry suppressed. With the wake
/// rule applied at branch time, pruning and plain DFS agree on every
/// `wfc-waitfree` fixture.
#[test]
fn sleep_sets_wake_dependent_sleepers_in_sibling_branches() {
    for fixture in fixtures::ALL {
        if !matches!(
            fixture.name,
            "ring" | "ring_broken" | "triple" | "triple_broken" | "cell" | "cell_broken"
        ) {
            continue;
        }
        let mut build = fixtures::build(fixture.name).unwrap();
        let with = explore(&exhaustive(true), &mut build).unwrap();
        let without = explore(&exhaustive(false), &mut build).unwrap();
        assert_eq!(
            with.counterexample.is_some(),
            fixture.expect_violation,
            "{} with sleep sets",
            fixture.name
        );
        assert_eq!(
            without.counterexample.is_some(),
            fixture.expect_violation,
            "{} without sleep sets",
            fixture.name
        );
    }
}

/// The planted bug is found, and its schedule replays to the same
/// violation, byte for byte, twice.
#[test]
fn broken_fixture_is_caught_with_a_replayable_schedule() {
    let mut build = fixtures::build("broken").unwrap();
    let found = explore(&exhaustive(true), &mut build).unwrap();
    let cx = found.counterexample.expect("planted bug found");
    assert!(cx.message.contains("torn read"), "{}", cx.message);
    assert!(!cx.schedule.is_empty());

    let once = replay(&cx.schedule, &mut build).unwrap();
    let twice = replay(&cx.schedule, &mut build).unwrap();
    assert_eq!(once, twice, "replay must be deterministic");
    assert_eq!(once.schedule, cx.schedule);
    assert_eq!(once.violation.as_deref(), Some(cx.message.as_str()));
}

/// All three modes agree on both a passing and a failing fixture.
#[test]
fn verdicts_agree_across_modes_and_seeds() {
    for (target, expect_violation) in [("t4", false), ("broken", true)] {
        let mut build = fixtures::build(target).unwrap();
        let dfs = explore(&exhaustive(true), &mut build).unwrap();
        let preempt = explore(
            &SchedOptions::default().with_mode(Mode::Preemption { max_preemptions: 4 }),
            &mut build,
        )
        .unwrap();
        assert_eq!(dfs.counterexample.is_some(), expect_violation, "{target}");
        assert_eq!(
            preempt.counterexample.is_some(),
            expect_violation,
            "{target}"
        );
        for seed in [1, 2, 42] {
            let pct = explore(
                &SchedOptions::default().with_mode(Mode::Pct {
                    seed,
                    runs: 200,
                    depth: 3,
                }),
                &mut build,
            )
            .unwrap();
            // PCT is probabilistic: it must never report a false
            // violation, and on these tiny fixtures 200 runs reliably
            // find the planted bug.
            assert_eq!(
                pct.counterexample.is_some(),
                expect_violation,
                "{target} seed {seed}"
            );
        }
    }
}

/// The Section 4.3 bounded bit passes exhaustively: its reader's row
/// counter is monotone, so no column walk can observe an inversion.
#[test]
fn t4_array_passes_exhaustively() {
    let mut build = fixtures::build("t4").unwrap();
    let found = explore(&exhaustive(true), &mut build).unwrap();
    assert!(found.complete);
    assert!(found.counterexample.is_none(), "{:?}", found.counterexample);
}

/// The seqlock fixture passes under bounded preemption: every schedule
/// with at most 2 preemptions is clean. (Completeness is not expected —
/// the bound is the point of this mode; the tiny fixtures reach
/// completeness through exhaustive DFS instead.)
#[test]
fn seqlock_passes_under_preemption_bounding() {
    let mut build = fixtures::build("seqlock").unwrap();
    let found = explore(
        &SchedOptions::default().with_mode(Mode::Preemption { max_preemptions: 2 }),
        &mut build,
    )
    .unwrap();
    assert!(found.counterexample.is_none(), "{:?}", found.counterexample);
    assert_eq!(found.rounds, 3, "bounds 0, 1, 2");
    assert!(found.schedules > 3, "each round explores its bound");
}

/// The MRSW atomic register passes a seeded PCT sweep.
#[test]
fn mrsw_passes_pct() {
    let mut build = fixtures::build("mrsw").unwrap();
    let found = explore(
        &SchedOptions::default().with_mode(Mode::Pct {
            seed: 3,
            runs: 100,
            depth: 3,
        }),
        &mut build,
    )
    .unwrap();
    assert!(found.counterexample.is_none(), "{:?}", found.counterexample);
    assert_eq!(found.rounds, 100);
}

/// Budget overflow is a typed error carrying the used/budget pair — the
/// same `control::Exhausted` the explorer raises, with a `Progress`
/// snapshot counting the schedules actually executed.
#[test]
fn budget_overflow_is_a_typed_error() {
    let mut build = fixtures::build("srsw").unwrap();
    let err = explore(
        &SchedOptions::default()
            .with_mode(Mode::Exhaustive { sleep_sets: false })
            .with_max_schedules(5),
        &mut build,
    )
    .unwrap_err();
    match err {
        SchedError::Exhausted(e) => {
            assert_eq!(e.resource, wfc_spec::control::Resource::Schedules);
            assert_eq!(e.budget, 5);
            assert_eq!(e.used, 5);
            assert_eq!(e.progress.schedules, 5);
            assert!(e.progress.steps > 0, "executed schedules took steps");
        }
        other => panic!("expected Exhausted, got {other:?}"),
    }
}

/// A schedule that diverges from the scenario is a typed replay error,
/// not a bogus verdict.
#[test]
fn replay_rejects_mismatched_schedules() {
    let mut build = fixtures::build("srsw").unwrap();
    let err = replay(&"z".parse().unwrap(), &mut build).unwrap_err();
    assert!(matches!(err, SchedError::Replay(_)), "{err:?}");
    let err = replay(&"0".parse().unwrap(), &mut build).unwrap_err();
    assert!(matches!(err, SchedError::Replay(_)), "{err:?}");
}

/// The query layer renders deterministic JSON: running the same spec
/// twice gives byte-identical documents, and the counterexample's
/// schedule replays through the same layer.
#[test]
fn query_documents_are_deterministic_and_replayable() {
    let spec: SchedSpec = "broken mode=dfs".parse().unwrap();
    let a = spec.run().unwrap().render();
    let b = spec.run().unwrap().render();
    assert_eq!(a, b);
    assert!(a.contains("\"verdict\":\"violation\""), "{a}");
    assert!(a.contains("\"as_expected\":true"), "{a}");

    // Extract the schedule and replay it via the query grammar.
    let doc = spec.run().unwrap();
    let schedule = doc
        .get("counterexample")
        .and_then(|cx| cx.get("schedule"))
        .and_then(|s| match s {
            wfc_obs::json::Json::Str(s) => Some(s.clone()),
            _ => None,
        })
        .expect("counterexample schedule");
    let replay_spec: SchedSpec = format!("broken replay={schedule}").parse().unwrap();
    let r1 = replay_spec.run().unwrap().render();
    let r2 = replay_spec.run().unwrap().render();
    assert_eq!(r1, r2);
    assert!(r1.contains("torn read"), "{r1}");
}

/// A clean `srsw` exploration after an abandoned one: the abort left no
/// virtual thread parked and no pool worker wedged, so the next
/// exploration runs to its usual, exact result.
fn assert_next_exploration_is_clean() {
    let mut build = fixtures::build("srsw").unwrap();
    let found = explore(&exhaustive(true), &mut build).unwrap();
    assert_eq!((found.schedules, found.steps), (187, 3396));
    assert!(found.complete && found.counterexample.is_none());
}

/// A step budget smaller than one execution abandons it mid-schedule
/// and reports the prefix that ran.
#[test]
fn step_budget_abandons_the_execution_with_its_schedule() {
    let mut build = fixtures::build("srsw").unwrap();
    let err = explore(&exhaustive(true).with_max_steps(5), &mut build).unwrap_err();
    match err {
        SchedError::StepLimit { limit, schedule } => {
            assert_eq!(limit, 5);
            assert_eq!(schedule.len(), 5, "{schedule}");
        }
        other => panic!("expected StepLimit, got {other:?}"),
    }
    assert_next_exploration_is_clean();
}

/// Two threads spinning on a cell nobody writes are both spin-blocked
/// after two identical reads: a livelock violation, not a hang.
#[test]
fn threads_spinning_on_an_unwritten_cell_are_a_livelock() {
    let mut build = || {
        let flag = Arc::new(Cell::new(false));
        let spinner = |flag: Arc<Cell<bool>>| -> Box<dyn FnOnce() + Send> {
            Box::new(move || while !flag.load() {})
        };
        Execution {
            threads: vec![spinner(Arc::clone(&flag)), spinner(flag)],
            check: Box::new(|| None),
        }
    };
    let found = explore(&exhaustive(true), &mut build).unwrap();
    let cx = found.counterexample.expect("livelock reported");
    assert!(cx.message.starts_with("livelock"), "{}", cx.message);
    assert_next_exploration_is_clean();
}

/// A builder whose scenario changes between calls cannot replay the
/// DFS prefixes it generated: a typed error, not a wrong verdict.
#[test]
fn a_nondeterministic_builder_is_a_diverged_prefix() {
    let mut calls = 0;
    let mut build = || {
        calls += 1;
        let cell = Arc::new(Cell::new(0u8));
        // Two writers on the first call, one afterwards: the sibling
        // prefix that starts with thread 1 names a thread that is gone.
        let threads = (0..if calls == 1 { 2 } else { 1 })
            .map(|t| {
                let cell = Arc::clone(&cell);
                Box::new(move || cell.store(t)) as Box<dyn FnOnce() + Send>
            })
            .collect();
        Execution {
            threads,
            check: Box::new(|| None),
        }
    };
    let err = explore(&exhaustive(true), &mut build).unwrap_err();
    match err {
        SchedError::Replay(msg) => assert!(msg.contains("DFS prefix diverged"), "{msg}"),
        other => panic!("expected a replay error, got {other:?}"),
    }
    assert_next_exploration_is_clean();
}

/// A fixture thread that panics is the execution's violation.
#[test]
fn a_panicking_thread_is_the_reported_violation() {
    let mut build = || {
        let cell = Arc::new(Cell::new(0u8));
        let other = Arc::clone(&cell);
        Execution {
            threads: vec![
                Box::new(move || {
                    cell.store(1);
                    panic!("fixture assertion failed");
                }),
                Box::new(move || other.store(2)),
            ],
            check: Box::new(|| None),
        }
    };
    let found = explore(&exhaustive(true), &mut build).unwrap();
    let cx = found.counterexample.expect("panic reported");
    assert_eq!(
        cx.message,
        "virtual thread 0 panicked: fixture assertion failed"
    );
    assert_next_exploration_is_clean();
}
