//! The cooperative execution engine: virtual threads carried by pooled
//! OS threads, with strictly one runnable at a time.
//!
//! The engine is loom/shuttle-style *stateless* model checking: every
//! schedule is executed from scratch. A virtual thread runs real fixture
//! code; each shared access (through the shim cells of [`crate::shim`])
//! **announces** itself — cell id plus read/write kind — and blocks
//! until it is granted. No scheduler thread sits between two grants:
//! the virtual thread that completes a choice point, by settling
//! (announcing its next access, or finishing) after every other thread
//! has settled, runs the active [`Decider`] itself under the engine
//! lock. If the decider picks that same thread, it keeps running with
//! no wakeup at all; otherwise it wakes only the chosen thread, through
//! that thread's own condvar. The granted thread performs its value
//! operation **while still holding the engine lock** before running on
//! to its next announce. Performing the operation under the lock closes
//! the race where the next granted thread could read a cell before the
//! previous grantee's write landed; because a choice is only ever made
//! among fully settled threads, the decider also knows every enabled
//! thread's pending access at each choice point, which is what the
//! sleep-set pruning in [`crate::explore`] needs. The caller of
//! [`run_one`] starts the threads and waits once, until all of them
//! have finished.
//!
//! The same choice abandons an execution when the step budget is spent,
//! every enabled thread is spin-blocked (livelock), or the decider
//! rejects the state (a replay mismatch): it sets `abort` and grants the
//! first enabled thread, which unwinds via [`ABORT_MSG`]; its finish
//! completes the next choice point, and so on until no thread is left.
//!
//! **Spin detection.** A retry loop (the seqlock reader, a writer
//! waiting out an odd counter) re-reads the same cell until another
//! thread changes it. Granting such a thread again before the cell
//! changes is a pure stutter — it re-announces the identical read — so
//! the engine tracks a per-cell write-version counter and treats a
//! thread as *spin-blocked* (not schedulable) while its pending read
//! repeats its previous **two** granted accesses with the cell's
//! version unmoved since. Two, not one: a single repeat also arises
//! from distinct program points — the seqlock reader's validation read
//! followed by the next attempt's head read — where the thread *is*
//! progressing; after two identical reads with nothing in between, the
//! thread has completed a full loop iteration with an identical outcome
//! and sits at the same program point, so the suppressed third read is
//! a genuine stutter. This keeps the schedule tree finite without a
//! fairness heuristic. (The argument assumes retry loops are
//! state-free, which holds for every loop in the register
//! implementations; a counting loop over identical reads would need a
//! fairness bound instead.)

use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::schedule::Schedule;

/// Panic payload used to unwind virtual threads when an execution is
/// abandoned (step budget, replay mismatch, livelock).
pub(crate) const ABORT_MSG: &str = "wfc-sched: execution aborted";

/// Virtual threads per execution: one base-36 schedule digit each.
const MAX_THREADS: usize = 36;

/// Sentinel thread id for controller-context code (fixture setup and the
/// post-execution check), whose shared accesses run immediately without
/// scheduling.
pub(crate) const CONTROLLER: usize = usize::MAX;

/// Whether a shared access may modify the cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// The access only observes the cell.
    Read,
    /// The access may modify the cell (stores and compare-exchanges).
    Write,
}

/// A pending shared access: which cell, and whether it can write it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Access {
    /// Execution-local cell id (allocation order, deterministic).
    pub cell: u32,
    /// Read or write.
    pub kind: AccessKind,
}

impl Access {
    /// Two accesses commute iff they touch different cells or are both
    /// reads (the DPOR independence relation; a compare-exchange counts
    /// as a write even when it fails).
    pub fn independent(self, other: Access) -> bool {
        self.cell != other.cell || (self.kind == AccessKind::Read && other.kind == AccessKind::Read)
    }
}

pub(crate) struct ExecState {
    /// Per-thread announced access; `None` while running or finished.
    pending: Vec<Option<Access>>,
    finished: Vec<bool>,
    /// The thread currently holding the grant, if any.
    granted: Option<usize>,
    /// Monotone step counter: bumps at every granted access and every
    /// controller-context access, so it doubles as the logical clock
    /// behind [`crate::OpLog`] timestamps.
    step: u64,
    /// Per-cell write-version counters (spin detection).
    versions: Vec<u64>,
    /// Per-thread `(access, version-at-grant)` of the last granted
    /// access (spin detection).
    last: Vec<Option<(Access, u64)>>,
    /// Per-thread granted access before `last` (spin detection needs
    /// two consecutive repeats).
    last2: Vec<Option<(Access, u64)>>,
    /// First panic message from a virtual thread, if any.
    panic: Option<String>,
    /// When set, granted threads unwind immediately (execution abandoned).
    abort: bool,
    next_cell: u32,
    /// Makes every choice; taken back out by [`run_one`] at the end.
    decider: Option<Box<dyn Decider>>,
    /// The per-execution step budget.
    max_steps: u64,
    /// The schedule so far, and why the execution was abandoned if it was.
    result: RunResult,
}

pub(crate) struct ExecCtx {
    state: Mutex<ExecState>,
    /// One condvar per virtual thread: a grant wakes only its grantee.
    wake: [Condvar; MAX_THREADS],
    /// Signalled when the last virtual thread finishes.
    done: Condvar,
}

/// Locks tolerantly: a virtual thread that panics between announce and
/// grant consumption can poison the mutex; the state itself stays
/// consistent because every mutation completes before any panic.
fn lock(m: &Mutex<ExecState>) -> MutexGuard<'_, ExecState> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<ExecCtx>, usize)>> = const { RefCell::new(None) };
}

/// The executing context of the calling OS thread, if it is carrying a
/// virtual thread or the controller.
pub(crate) fn current() -> Option<(Arc<ExecCtx>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

struct TlsGuard;

fn set_current(ctx: Arc<ExecCtx>, tid: usize) -> TlsGuard {
    CURRENT.with(|c| *c.borrow_mut() = Some((ctx, tid)));
    TlsGuard
}

impl Drop for TlsGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = None);
    }
}

impl ExecCtx {
    fn new(decider: Box<dyn Decider>, max_steps: u64) -> ExecCtx {
        ExecCtx {
            state: Mutex::new(ExecState {
                pending: Vec::new(),
                finished: Vec::new(),
                granted: None,
                step: 0,
                versions: Vec::new(),
                last: Vec::new(),
                last2: Vec::new(),
                panic: None,
                abort: false,
                next_cell: 0,
                decider: Some(decider),
                max_steps,
                result: RunResult::default(),
            }),
            wake: [const { Condvar::new() }; MAX_THREADS],
            done: Condvar::new(),
        }
    }

    /// Allocates a fresh cell id (creation order is deterministic: cells
    /// are created by fixture setup code in the controller context).
    pub(crate) fn alloc_cell(&self) -> u32 {
        let mut st = lock(&self.state);
        let id = st.next_cell;
        st.next_cell += 1;
        st.versions.push(0);
        id
    }

    /// Performs one shared access: announce, wait for the grant, run the
    /// value operation under the engine lock, and continue. `op`
    /// receives the step number of the grant (the logical clock) and
    /// reports whether it modified the cell.
    pub(crate) fn access<R>(
        self: &Arc<Self>,
        cell: u32,
        kind: AccessKind,
        op: impl FnOnce(u64) -> (R, bool),
    ) -> R {
        let (ctx, me) = current().expect(
            "sched cell accessed outside an execution; shim cells only work under \
             wfc_sched::explore or wfc_sched::replay",
        );
        assert!(
            Arc::ptr_eq(&ctx, self),
            "sched cell accessed from a different execution than it was created in"
        );
        if me == CONTROLLER {
            let mut st = lock(&self.state);
            st.step += 1;
            let step = st.step;
            let (r, wrote) = op(step);
            if wrote {
                st.versions[cell as usize] += 1;
            }
            return r;
        }
        let access = Access { cell, kind };
        let mut st = lock(&self.state);
        st.pending[me] = Some(access);
        if all_settled(&st) {
            self.hand_off(&mut st, me);
        }
        while st.granted != Some(me) {
            st = self.wake[me].wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.granted = None;
        st.pending[me] = None;
        if st.abort {
            drop(st);
            // resume_unwind skips the panic hook: an abort is engine
            // control flow, not a reportable thread panic.
            std::panic::resume_unwind(Box::new(ABORT_MSG));
        }
        st.last2[me] = st.last[me];
        st.last[me] = Some((access, st.versions[cell as usize]));
        st.step += 1;
        let step = st.step;
        let (r, wrote) = op(step);
        if wrote {
            st.versions[cell as usize] += 1;
        }
        drop(st);
        r
    }

    /// Completes a choice point on behalf of `me`, the thread that just
    /// settled it: grants the next thread, waking it unless it is `me`,
    /// or signals [`run_one`] once every thread has finished.
    fn hand_off(&self, st: &mut ExecState, me: usize) {
        let enabled: Vec<usize> = (0..st.pending.len())
            .filter(|&t| st.pending[t].is_some())
            .collect();
        let Some(&first) = enabled.first() else {
            self.done.notify_one();
            return;
        };
        let next = if st.abort { None } else { st.choose(&enabled) };
        let chosen = next.unwrap_or_else(|| {
            st.abort = true;
            first
        });
        st.granted = Some(chosen);
        if chosen != me {
            self.wake[chosen].notify_one();
        }
    }
}

impl ExecState {
    /// Asks the decider for the next grant and records it, or records
    /// why the execution must be abandoned and returns `None`.
    fn choose(&mut self, enabled: &[usize]) -> Option<usize> {
        let choosable: Vec<usize> = enabled
            .iter()
            .copied()
            .filter(|&t| !spin_blocked(self, t))
            .collect();
        if choosable.is_empty() {
            // Every enabled thread is spinning on a cell nobody will
            // write again: a genuine livelock in the fixture.
            self.result.violation = Some(format!(
                "livelock: all enabled threads {enabled:?} are spin-blocked"
            ));
            return None;
        }
        if self.result.steps >= self.max_steps {
            self.result.aborted = true;
            return None;
        }
        let schedule = &mut self.result.schedule;
        let prev = schedule.choices().last().map(|&t| usize::from(t));
        let decider = self
            .decider
            .as_mut()
            .expect("decider lent to the execution");
        let pick = decider.choose(schedule.len(), &choosable, enabled, &self.pending, prev);
        let chosen = match pick {
            Ok(t) => t,
            Err(msg) => {
                self.result.decider_error = Some(msg);
                return None;
            }
        };
        debug_assert!(enabled.contains(&chosen));
        if prev.is_some_and(|p| p != chosen && choosable.contains(&p)) {
            self.result.preemptions += 1;
        }
        schedule.push(chosen);
        self.result.steps += 1;
        Some(chosen)
    }
}

/// One execution of a scenario: the virtual-thread bodies plus the
/// post-execution verdict.
pub struct Execution {
    /// The virtual threads; each runs fixture code over shim cells.
    pub threads: Vec<Box<dyn FnOnce() + Send + 'static>>,
    /// Runs in the controller context after all threads finish; returns
    /// a violation message if the execution's history is bad.
    pub check: Box<dyn FnOnce() -> Option<String>>,
}

impl std::fmt::Debug for Execution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Execution")
            .field("threads", &self.threads.len())
            .finish_non_exhaustive()
    }
}

/// The outcome of running one schedule.
#[derive(Debug, Default)]
pub(crate) struct RunResult {
    pub schedule: Schedule,
    pub steps: u64,
    pub preemptions: u32,
    /// Thread panic or failed post-check.
    pub violation: Option<String>,
    /// The per-execution step budget tripped.
    pub aborted: bool,
    /// The decider rejected a step (replay mismatch).
    pub decider_error: Option<String>,
}

/// Chooses the next thread at each settled choice point. A decider is an
/// owned value: [`run_one`] moves it into the execution, where the
/// thread completing each choice point calls it, and hands it back.
pub(crate) trait Decider: Any + Send {
    /// Picks among `choosable` (enabled and not spin-blocked; never
    /// empty). `enabled` additionally lists spin-blocked threads;
    /// returning one of those is allowed (replay follows recorded
    /// schedules verbatim). `prev` is the previously granted thread.
    fn choose(
        &mut self,
        step: usize,
        choosable: &[usize],
        enabled: &[usize],
        pending: &[Option<Access>],
        prev: Option<usize>,
    ) -> Result<usize, String>;
}

/// A pool of OS threads carrying virtual threads, reused across the many
/// executions of an exploration (spawning per schedule would dominate
/// the runtime).
pub(crate) struct Pool {
    workers: Vec<Worker>,
}

struct Worker {
    tx: Option<Sender<Box<dyn FnOnce() + Send + 'static>>>,
    handle: Option<JoinHandle<()>>,
}

impl Pool {
    pub(crate) fn new() -> Pool {
        Pool {
            workers: Vec::new(),
        }
    }

    fn ensure(&mut self, n: usize) {
        while self.workers.len() < n {
            let (tx, rx) = std::sync::mpsc::channel::<Box<dyn FnOnce() + Send + 'static>>();
            let handle = std::thread::Builder::new()
                .name(format!("wfc-sched-{}", self.workers.len()))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .expect("spawn sched pool worker");
            self.workers.push(Worker {
                tx: Some(tx),
                handle: Some(handle),
            });
        }
    }

    fn submit(&mut self, slot: usize, job: Box<dyn FnOnce() + Send + 'static>) {
        self.ensure(slot + 1);
        self.workers[slot]
            .tx
            .as_ref()
            .expect("pool worker sender live")
            .send(job)
            .expect("pool worker alive");
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        for w in &mut self.workers {
            w.tx = None; // close the channel; the worker loop exits
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

/// Every thread has announced its next access or finished.
fn all_settled(st: &ExecState) -> bool {
    (0..st.pending.len()).all(|t| st.pending[t].is_some() || st.finished[t])
}

fn spin_blocked(st: &ExecState, t: usize) -> bool {
    match (st.pending[t], st.last[t], st.last2[t]) {
        (Some(acc), Some((last, version)), Some((last2, _))) => {
            acc == last
                && acc == last2
                && acc.kind == AccessKind::Read
                && st.versions[acc.cell as usize] == version
        }
        _ => false,
    }
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "virtual thread panicked".to_owned()
    }
}

/// Runs one execution of `build`'s scenario under `decider`, and hands
/// the decider back with the result.
pub(crate) fn run_one<D: Decider>(
    pool: &mut Pool,
    build: &mut dyn FnMut() -> Execution,
    decider: D,
    max_steps: u64,
) -> (RunResult, D) {
    let ctx = Arc::new(ExecCtx::new(Box::new(decider), max_steps));
    let _tls = set_current(Arc::clone(&ctx), CONTROLLER);
    let execution = build();
    let n = execution.threads.len();
    assert!(
        n <= MAX_THREADS,
        "at most 36 virtual threads (schedule encoding)"
    );
    {
        let mut st = lock(&ctx.state);
        st.pending = vec![None; n];
        st.finished = vec![false; n];
        st.last = vec![None; n];
        st.last2 = vec![None; n];
    }
    for (tid, body) in execution.threads.into_iter().enumerate() {
        let ctx = Arc::clone(&ctx);
        pool.submit(
            tid,
            Box::new(move || {
                let tls = set_current(Arc::clone(&ctx), tid);
                let outcome = catch_unwind(AssertUnwindSafe(body));
                drop(tls);
                let mut st = lock(&ctx.state);
                if let Err(payload) = outcome {
                    let msg = panic_message(payload);
                    if msg != ABORT_MSG && st.panic.is_none() {
                        st.panic = Some(format!("virtual thread {tid} panicked: {msg}"));
                    }
                }
                st.finished[tid] = true;
                if all_settled(&st) {
                    ctx.hand_off(&mut st, tid);
                }
            }),
        );
    }

    let mut st = lock(&ctx.state);
    while !st.finished.iter().all(|&f| f) {
        st = ctx.done.wait(st).unwrap_or_else(|e| e.into_inner());
    }
    let mut result = std::mem::take(&mut st.result);
    let panic = st.panic.take();
    let decider: Box<dyn Any> = st.decider.take().expect("decider lent to the execution");
    drop(st);
    if result.violation.is_none() {
        result.violation = panic;
    }
    if result.violation.is_none() && !result.aborted && result.decider_error.is_none() {
        result.violation = (execution.check)();
    }
    let decider = decider
        .downcast::<D>()
        .expect("the decider comes back as the type it went in");
    (result, *decider)
}
