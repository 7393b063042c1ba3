//! The deterministic scheduler: one OS thread per virtual thread, but a
//! single baton serializes them, and every atomic/lock/yield/spawn is a
//! *schedule point* where the scheduler consults its DFS decision path to
//! pick the next runnable thread.
//!
//! Exploration is depth-first over the tree of decisions with a
//! *preemption bound*: switching away from a thread that could have kept
//! running costs one unit of a per-execution budget. With the bound
//! exhausted the current thread runs until it blocks, yields, or finishes.
//! This is the classic Coyote/CHESS result: most concurrency bugs need
//! only one or two preemptions, and the bound keeps the schedule space
//! polynomial instead of exponential.
//!
//! `yield_now` (and `spin_loop`, which the facade maps to it) marks the
//! caller *deprioritized* with CHESS-style fairness: it cannot be picked
//! again until every *other* enabled thread has taken a real step since
//! the yield (blocked and finished threads are exempt, and a step that is
//! itself a yield does not count). Without the "every other" part, two
//! threads spinning on the same condition can hand the baton back and
//! forth — each fruitless yield a fresh branch point — and the DFS tree
//! grows exponentially in the spin length even though every individual
//! execution terminates. Fair yielding forces the writer the spinners
//! wait on to make progress in every branch, so spin loops contribute
//! O(threads) schedule points instead of O(3^spins). When every enabled
//! thread has yielded and none is owed a step yet (a taker and posters
//! each waiting on the other), they all become candidates again, but the
//! thread that just yielded is not one of them: re-picking it repeats the
//! fruitless check it just made, and as the DFS's first branch it would
//! do so forever.

use crate::clock::VClock;
use std::panic;
use std::sync::{Condvar, Mutex};

/// Panic payload used to unwind virtual threads when an execution aborts
/// (failure found, or exploration shutting the run down). Filtered by the
/// panic hook and the per-thread `catch_unwind`.
pub(crate) struct ExecAbort;

/// Schedule-decision tracing, enabled by setting `CHECK_TRACE` in the
/// environment (checked once). Prints every decision point: who arrived,
/// the candidate set, the choice, and each thread's run state — the tool
/// that pins down scheduler bugs and state-space blowups.
fn trace_enabled() -> bool {
    static TRACE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *TRACE.get_or_init(|| std::env::var_os("CHECK_TRACE").is_some())
}

/// Why an execution failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// Conflicting non-atomic accesses without a happens-before edge.
    DataRace,
    /// Every live thread is blocked (lost wakeup / lock cycle).
    Deadlock,
    /// The step budget ran out — an unbounded spin (livelock) or a model
    /// far too large for exhaustive checking.
    Livelock,
    /// A user assertion (or any other panic) fired inside the model.
    Panic,
    /// The replayed decision prefix diverged — the model closure is not
    /// deterministic (time, randomness, ambient I/O).
    NonDeterminism,
}

/// A failing schedule, reported to the caller of [`crate::Builder::check`].
#[derive(Clone, Debug)]
pub struct Failure {
    pub kind: FailureKind,
    pub message: String,
    /// Thread chosen at each schedule point of the failing execution.
    pub schedule: Vec<usize>,
    /// Executions fully explored before this one failed.
    pub executions: usize,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "model check failed after {} complete execution(s): {:?}: {}\nschedule (thread per point): {:?}",
            self.executions, self.kind, self.message, self.schedule
        )
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum RunState {
    Runnable,
    /// Voluntarily stepped aside; not schedulable until every other
    /// enabled thread has stepped past the yield-time snapshot.
    Yielded,
    /// Waiting on a mutex (by checker-internal mutex id).
    BlockedMutex(u64),
    /// Waiting for a thread to finish.
    BlockedJoin(usize),
    Finished,
}

struct VThread {
    state: RunState,
    clock: VClock,
    /// Real (non-yield) schedule points this thread has arrived at.
    steps_taken: usize,
    /// `steps_taken` of every thread at the moment this one yielded;
    /// cleared when the thread is scheduled again.
    yield_snap: Option<Vec<usize>>,
}

/// One decision taken during an execution, kept so the explorer can
/// backtrack depth-first.
pub(crate) struct ChoiceRec {
    /// Candidate thread ids at this point (deterministic order).
    pub options: Vec<usize>,
    /// Index into `options` that was taken.
    pub chosen_idx: usize,
}

struct Inner {
    threads: Vec<VThread>,
    /// Virtual thread currently holding the baton.
    active: usize,
    /// Decision indices replayed from the previous execution's backtrack.
    prefix: Vec<usize>,
    /// Decisions of this execution (replayed + newly explored).
    record: Vec<ChoiceRec>,
    /// Thread chosen at each point — the human-readable trace.
    trace: Vec<usize>,
    point: usize,
    preemptions: usize,
    steps: usize,
    failure: Option<Failure>,
    aborting: bool,
    finished: usize,
    all_done: bool,
}

/// Per-execution scheduler shared by all virtual threads via TLS.
pub(crate) struct Scheduler {
    m: Mutex<Inner>,
    cv: Condvar,
    preemption_bound: usize,
    max_steps: usize,
    executions_before: usize,
}

impl Scheduler {
    pub(crate) fn new(
        preemption_bound: usize,
        max_steps: usize,
        prefix: Vec<usize>,
        executions_before: usize,
    ) -> Self {
        let mut root_clock = VClock::new();
        root_clock.bump(0);
        Scheduler {
            m: Mutex::new(Inner {
                threads: vec![VThread {
                    state: RunState::Runnable,
                    clock: root_clock,
                    steps_taken: 0,
                    yield_snap: None,
                }],
                active: 0,
                prefix,
                record: Vec::new(),
                trace: Vec::new(),
                point: 0,
                preemptions: 0,
                steps: 0,
                failure: None,
                aborting: false,
                finished: 0,
                all_done: false,
            }),
            cv: Condvar::new(),
            preemption_bound,
            max_steps,
            executions_before,
        }
    }

    /// Has every *other* enabled thread stepped since `i` yielded?
    /// Threads that are blocked or finished (or were spawned after the
    /// yield) owe it nothing — fairness only waits on threads that can
    /// actually run.
    fn yield_satisfied(threads: &[VThread], i: usize) -> bool {
        let Some(snap) = &threads[i].yield_snap else {
            return true;
        };
        threads.iter().enumerate().all(|(j, t)| {
            j == i
                || j >= snap.len()
                || t.steps_taken > snap[j]
                || !matches!(t.state, RunState::Runnable | RunState::Yielded)
        })
    }

    /// Candidates that could run next: runnable threads plus yielded
    /// threads whose fairness debt is paid. If *only* unsatisfied yielded
    /// threads remain (mutual yield), they all become candidates — the
    /// forced switch then skips the thread that just yielded, and the
    /// step budget catches genuine livelocks.
    fn candidates(inner: &Inner) -> Vec<usize> {
        let cands: Vec<usize> = inner
            .threads
            .iter()
            .enumerate()
            .filter(|(i, t)| match t.state {
                RunState::Runnable => true,
                RunState::Yielded => Self::yield_satisfied(&inner.threads, *i),
                _ => false,
            })
            .map(|(i, _)| i)
            .collect();
        if !cands.is_empty() {
            return cands;
        }
        inner
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.state == RunState::Yielded)
            .map(|(i, _)| i)
            .collect()
    }

    fn fail_locked(&self, inner: &mut Inner, kind: FailureKind, message: String) {
        if inner.failure.is_none() {
            inner.failure = Some(Failure {
                kind,
                message,
                schedule: inner.trace.clone(),
                executions: self.executions_before,
            });
        }
        inner.aborting = true;
        self.cv.notify_all();
    }

    /// Records a failure and unwinds the calling virtual thread.
    pub(crate) fn fail(&self, kind: FailureKind, message: String) -> ! {
        {
            let mut inner = self.m.lock().unwrap();
            self.fail_locked(&mut inner, kind, message);
        }
        panic::panic_any(ExecAbort);
    }

    /// Core decision routine. `me` has already had its state updated for
    /// this point (Runnable to keep competing, Yielded, Blocked*, or
    /// Finished). Picks the next thread per the DFS path, hands over the
    /// baton, and — unless `me` is finished — blocks until `me` is chosen
    /// again. Counts a preemption when `me` was runnable but passed over.
    /// `progress` is false only when the arrival is a yield: a fruitless
    /// spin iteration must not pay other threads' fairness debts.
    fn reschedule(&self, me: usize, me_competes: bool, progress: bool) {
        let mut inner = self.m.lock().unwrap();
        if inner.aborting {
            drop(inner);
            panic::panic_any(ExecAbort);
        }
        if progress {
            inner.threads[me].steps_taken += 1;
        }
        inner.steps += 1;
        if inner.steps > self.max_steps {
            self.fail_locked(
                &mut inner,
                FailureKind::Livelock,
                format!(
                    "execution exceeded {} schedule points — unbounded spin loop, \
                     or a model too large for exhaustive exploration",
                    self.max_steps
                ),
            );
            drop(inner);
            panic::panic_any(ExecAbort);
        }

        let cands = Self::candidates(&inner);
        if cands.is_empty() {
            let live: Vec<String> = inner
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.state != RunState::Finished)
                .map(|(i, t)| format!("thread {i}: {:?}", t.state))
                .collect();
            if live.is_empty() {
                // Everyone finished — execution complete.
                inner.all_done = true;
                self.cv.notify_all();
                return;
            }
            self.fail_locked(
                &mut inner,
                FailureKind::Deadlock,
                format!(
                    "all live threads are blocked (lost wakeup?): {}",
                    live.join(", ")
                ),
            );
            drop(inner);
            panic::panic_any(ExecAbort);
        }

        // Options: current thread first (the cheap "keep running" branch),
        // then the others in id order. With the preemption budget spent and
        // `me` still in play, there is no choice at all.
        let me_enabled = me_competes && cands.contains(&me);
        let options: Vec<usize> = if me_enabled && inner.preemptions >= self.preemption_bound {
            vec![me]
        } else if me_enabled {
            let mut o = vec![me];
            o.extend(cands.iter().copied().filter(|&c| c != me));
            o
        } else if cands.len() > 1 {
            // `me` is yielding/blocking/finishing: a forced switch, to
            // anyone but `me`. Offered first, the thread that just yielded
            // would be re-picked by the first branch of every mutual yield.
            cands.into_iter().filter(|&c| c != me).collect()
        } else {
            // The sole candidate (a lone yielded thread) keeps running.
            cands
        };

        let point = inner.point;
        let chosen_idx = inner.prefix.get(point).copied().unwrap_or(0);
        if chosen_idx >= options.len() {
            self.fail_locked(
                &mut inner,
                FailureKind::NonDeterminism,
                format!(
                    "replay diverged at schedule point {point}: decision {chosen_idx} \
                     but only {} option(s) — the model closure must be deterministic \
                     (no wall-clock time, no ambient randomness)",
                    options.len()
                ),
            );
            drop(inner);
            panic::panic_any(ExecAbort);
        }
        let chosen = options[chosen_idx];
        if trace_enabled() {
            eprintln!(
                "[damaris-check] pt={} me={} competes={} options={:?} chosen={} preempt={} states={:?}",
                point,
                me,
                me_competes,
                options,
                chosen,
                inner.preemptions,
                inner.threads.iter().map(|t| format!("{:?}", t.state)).collect::<Vec<_>>()
            );
        }
        inner.record.push(ChoiceRec {
            options,
            chosen_idx,
        });
        inner.trace.push(chosen);
        inner.point = point + 1;
        if me_enabled && chosen != me {
            inner.preemptions += 1;
        }

        // Scheduling a thread settles its own yield: clear the mark and
        // the fairness snapshot. Other yielded threads keep theirs —
        // they become candidates again only via `yield_satisfied`.
        inner.threads[chosen].state = RunState::Runnable;
        inner.threads[chosen].yield_snap = None;
        inner.active = chosen;

        if chosen == me {
            return;
        }
        self.cv.notify_all();
        if inner.threads[me].state == RunState::Finished {
            return; // finished threads hand over and walk away
        }
        // Wait until this thread is picked again (or the run aborts).
        loop {
            if inner.aborting {
                drop(inner);
                panic::panic_any(ExecAbort);
            }
            if inner.active == me && inner.threads[me].state == RunState::Runnable {
                return;
            }
            inner = self.cv.wait(inner).unwrap();
        }
    }

    /// Plain schedule point: `me` keeps competing.
    pub(crate) fn schedule(&self, me: usize) {
        self.reschedule(me, true, true);
    }

    /// `yield_now`: deprioritize `me` until every other enabled thread
    /// has taken a real step (fair yielding — see the module docs).
    pub(crate) fn yield_now(&self, me: usize) {
        {
            let mut inner = self.m.lock().unwrap();
            let snap: Vec<usize> = inner.threads.iter().map(|t| t.steps_taken).collect();
            inner.threads[me].state = RunState::Yielded;
            inner.threads[me].yield_snap = Some(snap);
        }
        self.reschedule(me, false, false);
    }

    /// Block `me` on a mutex until [`Scheduler::unblock_mutex`].
    pub(crate) fn block_on_mutex(&self, me: usize, mutex_id: u64) {
        {
            let mut inner = self.m.lock().unwrap();
            inner.threads[me].state = RunState::BlockedMutex(mutex_id);
        }
        self.reschedule(me, false, true);
    }

    /// Wake every thread parked on `mutex_id` (they re-race for the lock).
    pub(crate) fn unblock_mutex(&self, mutex_id: u64) {
        let mut inner = self.m.lock().unwrap();
        for t in inner.threads.iter_mut() {
            if t.state == RunState::BlockedMutex(mutex_id) {
                t.state = RunState::Runnable;
            }
        }
    }

    /// Block `me` until `target` finishes, then merge its final clock.
    pub(crate) fn join_thread(&self, me: usize, target: usize) {
        loop {
            {
                let mut inner = self.m.lock().unwrap();
                if inner.aborting {
                    drop(inner);
                    panic::panic_any(ExecAbort);
                }
                if inner.threads[target].state == RunState::Finished {
                    let tc = inner.threads[target].clock.clone();
                    inner.threads[me].clock.join(&tc);
                    inner.threads[me].clock.bump(me);
                    return;
                }
                inner.threads[me].state = RunState::BlockedJoin(target);
            }
            self.reschedule(me, false, true);
        }
    }

    /// Registers a child thread (spawn happens-before its first step).
    pub(crate) fn spawn_thread(&self, parent: usize) -> usize {
        let mut inner = self.m.lock().unwrap();
        let id = inner.threads.len();
        let mut clock = inner.threads[parent].clock.clone();
        clock.bump(id);
        inner.threads.push(VThread {
            state: RunState::Runnable,
            clock,
            steps_taken: 0,
            yield_snap: None,
        });
        inner.threads[parent].clock.bump(parent);
        id
    }

    /// Marks `me` finished, wakes joiners, and hands the baton onward.
    pub(crate) fn finish_thread(&self, me: usize) {
        {
            let mut inner = self.m.lock().unwrap();
            inner.threads[me].state = RunState::Finished;
            inner.finished += 1;
            for t in inner.threads.iter_mut() {
                if t.state == RunState::BlockedJoin(me) {
                    t.state = RunState::Runnable;
                }
            }
            if inner.finished == inner.threads.len() {
                inner.all_done = true;
                self.cv.notify_all();
                return;
            }
        }
        self.reschedule(me, false, true);
    }

    /// Abort-path finish: no scheduling, just bookkeeping so the
    /// controller can observe completion.
    pub(crate) fn finish_thread_aborted(&self, me: usize) {
        let mut inner = self.m.lock().unwrap();
        if inner.threads[me].state != RunState::Finished {
            inner.threads[me].state = RunState::Finished;
            inner.finished += 1;
        }
        if inner.finished == inner.threads.len() {
            inner.all_done = true;
        }
        self.cv.notify_all();
    }

    /// Entry gate for freshly spawned OS threads: wait for the baton.
    pub(crate) fn wait_for_turn(&self, me: usize) {
        let mut inner = self.m.lock().unwrap();
        loop {
            if inner.aborting {
                drop(inner);
                panic::panic_any(ExecAbort);
            }
            if inner.active == me && inner.threads[me].state == RunState::Runnable {
                return;
            }
            inner = self.cv.wait(inner).unwrap();
        }
    }

    /// Controller side: park until every virtual thread has finished.
    pub(crate) fn wait_all_done(&self) {
        let mut inner = self.m.lock().unwrap();
        while !inner.all_done {
            inner = self.cv.wait(inner).unwrap();
        }
    }

    /// Controller side: harvest the execution's decisions and verdict.
    pub(crate) fn take_results(&self) -> (Vec<ChoiceRec>, Option<Failure>) {
        let mut inner = self.m.lock().unwrap();
        (std::mem::take(&mut inner.record), inner.failure.take())
    }

    // ---- clock plumbing for the shim types -------------------------------

    pub(crate) fn clock_of(&self, tid: usize) -> VClock {
        self.m.lock().unwrap().threads[tid].clock.clone()
    }

    pub(crate) fn join_clock(&self, tid: usize, other: &VClock) {
        self.m.lock().unwrap().threads[tid].clock.join(other);
    }

    pub(crate) fn bump_clock(&self, tid: usize) {
        self.m.lock().unwrap().threads[tid].clock.bump(tid);
    }
}
