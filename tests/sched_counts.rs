//! Exact exploration counts for the `wfc-sched` fixtures, and the
//! verdicts of the `wfc sched` query documents.
//!
//! Every count here is deterministic: the schedule tree, the sleep-set
//! pruning and the PCT walks depend only on the fixture and the
//! options, never on how the executor hands control from one virtual
//! thread to the next. An executor change that moves any of these
//! numbers has changed what the checker explores, not just how fast.

use wfc_obs::json::Json;
use wfc_sched::{explore, fixtures, replay, Mode, SchedOptions, SchedSpec};

/// What one exploration must report: `(schedules, steps, pruned,
/// complete)`.
type Counts = (u64, u64, u64, bool);

fn counts(target: &str, mode: Mode) -> (Counts, wfc_sched::Exploration) {
    let mut build = fixtures::build(target).expect("fixture exists");
    let found = explore(&SchedOptions::default().with_mode(mode), &mut build)
        .unwrap_or_else(|e| panic!("{target}: {e}"));
    (
        (found.schedules, found.steps, found.pruned, found.complete),
        found,
    )
}

const SLEEP: Mode = Mode::Exhaustive { sleep_sets: true };

#[test]
fn passing_fixtures_explore_exactly_their_pinned_trees() {
    let rows: &[(&str, Mode, Counts)] = &[
        ("seqlock", SLEEP, (5246, 137_452, 9315, true)),
        (
            "srsw",
            Mode::Exhaustive { sleep_sets: false },
            (8236, 151_105, 0, true),
        ),
        ("srsw", SLEEP, (187, 3396, 334, true)),
        ("t4", SLEEP, (41, 434, 52, true)),
        ("repl", SLEEP, (33, 562, 205, true)),
        ("ring", SLEEP, (46, 663, 50, true)),
        ("triple", SLEEP, (16, 167, 23, true)),
        ("cell", SLEEP, (10, 78, 4, true)),
    ];
    for &(target, mode, want) in rows {
        let (got, found) = counts(target, mode);
        assert_eq!(got, want, "{target} {mode:?}");
        assert!(found.counterexample.is_none(), "{target}: {found:?}");
    }
}

#[test]
fn violating_fixtures_stop_at_their_pinned_counterexamples() {
    let rows: &[(&str, Counts, &str)] = &[
        ("regular", (95, 950, 114, false), "1001122002"),
        ("broken", (6, 72, 4, false), "111110100011"),
        ("repl_broken", (11, 176, 49, false), "0100000001111111"),
        ("ring_broken", (4, 57, 1, false), "110110001000111"),
        ("triple_broken", (16, 237, 21, false), "001100011010001"),
        ("cell_broken", (4, 25, 2, false), "1101110"),
    ];
    for &(target, want, schedule) in rows {
        let (got, found) = counts(target, SLEEP);
        assert_eq!(got, want, "{target}");
        let cx = found.counterexample.expect("violation found");
        assert_eq!(cx.schedule.to_string(), schedule, "{target}");
        let mut build = fixtures::build(target).expect("fixture exists");
        let replayed = replay(&cx.schedule, &mut build).expect("counterexample replays");
        assert_eq!(replayed.steps, schedule.len() as u64, "{target}");
        assert_eq!(replayed.violation.as_deref(), Some(cx.message.as_str()));
    }
}

#[test]
fn seqlock_pct_walks_take_their_pinned_steps() {
    let mode = Mode::Pct {
        seed: 1,
        runs: 1000,
        depth: 3,
    };
    let ((schedules, steps, _, _), found) = counts("seqlock", mode);
    assert_eq!((schedules, steps), (1000, 22_915));
    assert!(found.counterexample.is_none(), "{found:?}");
}

fn run(spec: &str) -> Json {
    spec.parse::<SchedSpec>()
        .and_then(|s| s.run())
        .unwrap_or_else(|e| panic!("`{spec}`: {e}"))
}

fn field<'a>(doc: &'a Json, key: &str) -> &'a Json {
    doc.get(key)
        .unwrap_or_else(|| panic!("no `{key}` in {}", doc.render()))
}

fn assert_passes_completely(spec: &str) {
    let doc = run(spec);
    assert_eq!(field(&doc, "verdict").as_str(), Some("pass"), "`{spec}`");
    assert_eq!(field(&doc, "complete"), &Json::Bool(true), "`{spec}`");
}

/// Explores `target` by DFS, then replays the counterexample through
/// the query grammar and checks the replayed violation names `message`.
fn assert_caught_and_replayed(target: &str, message: &str) {
    let doc = run(&format!("{target} mode=dfs"));
    assert_eq!(
        field(&doc, "verdict").as_str(),
        Some("violation"),
        "{target}"
    );
    let schedule = field(field(&doc, "counterexample"), "schedule")
        .as_str()
        .expect("schedule is a string");
    assert!(!schedule.is_empty(), "{target}");
    let replayed = run(&format!("{target} replay={schedule}"));
    let violation = field(&replayed, "violation").as_str().unwrap_or_default();
    assert!(violation.contains(message), "{target}: {violation}");
}

#[test]
fn t4_bounded_dfs_passes_completely() {
    assert_passes_completely("t4 mode=dfs budget=50000");
}

#[test]
fn seqlock_seeded_pct_passes_as_expected() {
    let doc = run("seqlock mode=pct seed=1 runs=64");
    assert_eq!(field(&doc, "verdict").as_str(), Some("pass"));
    assert_eq!(field(&doc, "as_expected"), &Json::Bool(true));
}

#[test]
fn broken_register_is_caught_with_a_replayable_torn_read() {
    assert_caught_and_replayed("broken", "torn read");
}

#[test]
fn waitfree_primitives_pass_completely() {
    for target in ["ring", "triple", "cell"] {
        assert_passes_completely(&format!("{target} mode=dfs"));
    }
}

#[test]
fn waitfree_broken_twins_are_caught_with_replayable_schedules() {
    assert_caught_and_replayed(
        "ring_broken",
        "tail index was published before the slot write",
    );
    assert_caught_and_replayed("triple_broken", "snapshot changed underfoot");
    assert_caught_and_replayed("cell_broken", "FULL state was published before the payload");
}
