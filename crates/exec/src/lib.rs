//! `wnsk-exec` — the work-stealing parallel execution layer behind the
//! why-not solvers' `threads` knob (§IV-C4, Fig. 10).
//!
//! The layer is deliberately small and solver-agnostic:
//!
//! * [`Executor`] owns a pool of scoped worker threads fed through
//!   per-worker FIFO deques (`crossbeam::deque`). Tasks are dealt
//!   round-robin so a benefit-ordered candidate list stays roughly
//!   ordered per worker; an idle worker steals from its peers, keeping
//!   all cores busy when task costs are skewed (a single expensive
//!   rank scan or subtree expansion no longer stalls the layer).
//! * [`SharedBound`] is the cross-worker best-penalty bound `p_c`: a
//!   lock-free CAS-min over the `f64` bit pattern. Workers prune
//!   against each other's discoveries without a lock on the hot path.
//! * [`ExecMetrics`] holds per-worker counters — tasks executed, tasks
//!   stolen, shared-bound refreshes, prune hits attributable to the
//!   shared bound — that the solvers fold into their `AlgoStats` and
//!   the `wnsk-obs` registry (`exec.*` names).
//!
//! Determinism contract: the executor never decides *what* the answer
//! is, only *who* computes each task. Solvers keep per-worker local
//! bests and merge them at a sequence barrier (the end of
//! [`Executor::run`], which joins every worker and returns the worker
//! states in worker-index order), comparing candidates by a total
//! lexicographic key — so the final answer is bit-identical for every
//! thread count and steal schedule.

use crossbeam::deque::{Steal, Stealer, Worker};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use wnsk_obs::trace::worker_scope;
use wnsk_obs::{names, Hist, RollingWindow, TracePayload, Tracer};

/// The shared best-penalty bound `p_c`, maintained as a CAS-min over the
/// `f64` bit pattern so readers and writers never lock.
///
/// Penalties are non-negative finite reals (Eqn. 4), for which the IEEE
/// bit pattern is order-isomorphic to the value — `fetch_min` on the raw
/// bits is exactly min on the penalty.
pub struct SharedBound {
    bits: AtomicU64,
    /// Number of calls that actually lowered the bound. The sharded
    /// coordinator exposes this as `shard.bound_tightenings` — proof the
    /// cross-shard bound is live, not a vestigial constant.
    tightenings: AtomicU64,
}

impl SharedBound {
    /// Creates the bound at `initial` (the baseline penalty λ).
    pub fn new(initial: f64) -> Self {
        debug_assert!(initial >= 0.0, "penalties are non-negative");
        SharedBound {
            bits: AtomicU64::new(initial.to_bits()),
            tightenings: AtomicU64::new(0),
        }
    }

    /// The current bound (lock-free read).
    #[inline]
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Acquire))
    }

    /// Lowers the bound to `penalty` if it is an improvement. Returns
    /// `true` when this call actually lowered the bound.
    #[inline]
    pub fn refresh(&self, penalty: f64) -> bool {
        debug_assert!(penalty >= 0.0, "penalties are non-negative");
        let improved = self.bits.fetch_min(penalty.to_bits(), Ordering::AcqRel) > penalty.to_bits();
        if improved {
            self.tightenings.fetch_add(1, Ordering::Relaxed);
        }
        improved
    }

    /// How many [`SharedBound::refresh`] calls lowered the bound so far.
    #[inline]
    pub fn tightened(&self) -> u64 {
        self.tightenings.load(Ordering::Relaxed)
    }
}

/// Lock-free counters of one worker.
#[derive(Default)]
pub struct WorkerCounters {
    tasks: AtomicU64,
    stolen: AtomicU64,
    bound_refreshes: AtomicU64,
    prune_hits: AtomicU64,
}

/// A plain-data snapshot of one worker's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// Tasks this worker executed (own deque or stolen).
    pub tasks: u64,
    /// Tasks this worker stole from a peer's deque.
    pub stolen: u64,
    /// Times this worker lowered the shared penalty bound.
    pub bound_refreshes: u64,
    /// Prunes this worker performed against the shared bound.
    pub prune_hits: u64,
}

impl WorkerCounters {
    fn snapshot(&self) -> WorkerSnapshot {
        WorkerSnapshot {
            tasks: self.tasks.load(Ordering::Relaxed),
            stolen: self.stolen.load(Ordering::Relaxed),
            bound_refreshes: self.bound_refreshes.load(Ordering::Relaxed),
            prune_hits: self.prune_hits.load(Ordering::Relaxed),
        }
    }
}

/// Per-worker executor metrics for one solver run. Construct with the
/// executor's thread count; totals and per-worker snapshots feed
/// `AlgoStats` / the `exec.*` observability names.
pub struct ExecMetrics {
    workers: Vec<WorkerCounters>,
    tracer: Tracer,
    task_hist: Option<Hist>,
    task_window: Option<Arc<RollingWindow>>,
}

impl ExecMetrics {
    /// Creates counters for `threads` workers (tracing off, no task
    /// histogram — the zero-overhead default).
    pub fn new(threads: usize) -> Self {
        ExecMetrics {
            workers: (0..threads.max(1))
                .map(|_| WorkerCounters::default())
                .collect(),
            tracer: Tracer::off(),
            task_hist: None,
            task_window: None,
        }
    }

    /// Attaches a tracer: workers route spans to their `(worker, seq)`
    /// buffers and steals emit `exec.tasks_stolen` events with the
    /// victim's index. Purely observational — task scheduling and
    /// results are unaffected.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The attached tracer ([`Tracer::off`] by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Attaches a latency histogram; every task's `step` duration is
    /// recorded into it (the registry's `exec.task_ns`).
    pub fn set_task_hist(&mut self, hist: Hist) {
        self.task_hist = Some(hist);
    }

    /// Attaches a rolling window; every task's `step` duration is also
    /// recorded there, so a live server's `/healthz` can report the
    /// recent-past task-latency percentiles next to the cumulative
    /// `exec.task_ns`. Observation-only, like the histogram: wall-clock
    /// samples never feed back into scheduling or results.
    pub fn set_task_window(&mut self, window: Arc<RollingWindow>) {
        self.task_window = Some(window);
    }

    /// Number of workers tracked.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Per-worker counter snapshots, in worker-index order.
    pub fn per_worker(&self) -> Vec<WorkerSnapshot> {
        self.workers.iter().map(WorkerCounters::snapshot).collect()
    }

    /// Counters summed over all workers.
    pub fn totals(&self) -> WorkerSnapshot {
        self.per_worker()
            .into_iter()
            .fold(WorkerSnapshot::default(), |a, w| WorkerSnapshot {
                tasks: a.tasks + w.tasks,
                stolen: a.stolen + w.stolen,
                bound_refreshes: a.bound_refreshes + w.bound_refreshes,
                prune_hits: a.prune_hits + w.prune_hits,
            })
    }

    fn counters(&self, i: usize) -> &WorkerCounters {
        &self.workers[i]
    }

    /// True when any per-task timing sink is attached.
    fn timing_wanted(&self) -> bool {
        self.task_hist.is_some() || self.task_window.is_some()
    }

    /// Records one task duration into every attached sink.
    fn record_task(&self, elapsed: std::time::Duration) {
        if let Some(h) = self.task_hist.as_ref() {
            h.record_duration(elapsed);
        }
        if let Some(w) = self.task_window.as_ref() {
            w.record_duration(elapsed);
        }
    }
}

/// Handed to every task invocation: identifies the executing worker and
/// lets the solver attribute bound refreshes / prune hits to it.
pub struct WorkerHandle<'a> {
    /// Index of the executing worker, `0..threads`.
    pub index: usize,
    counters: &'a WorkerCounters,
}

impl WorkerHandle<'_> {
    /// Records that this worker pruned work using the shared bound.
    #[inline]
    pub fn count_prune_hit(&self) {
        self.counters.prune_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records that this worker lowered the shared bound.
    #[inline]
    pub fn count_bound_refresh(&self) {
        self.counters
            .bound_refreshes
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// Where a spawned child task goes: the inline FIFO queue (sequential
/// mode) or the executing worker's own deque plus the pool-wide pending
/// counter (parallel mode).
enum Spawner<'a, T> {
    Inline(&'a RefCell<VecDeque<T>>),
    Pool {
        own: &'a Worker<T>,
        pending: &'a AtomicUsize,
    },
}

/// Handed to every [`Executor::run_dynamic`] task: the executing
/// worker's [`WorkerHandle`] plus the ability to spawn child tasks into
/// the pool (the "independent subtree expansion" mechanism — a rank
/// scan or frontier expansion forks per-subtree tasks that idle workers
/// steal).
pub struct TaskContext<'a, T> {
    /// Worker identity and counters.
    pub handle: WorkerHandle<'a>,
    spawner: Spawner<'a, T>,
}

impl<T> TaskContext<'_, T> {
    /// Enqueues `task` for execution by the pool. On one thread the
    /// spawned task joins the inline FIFO queue of its seed's task tree,
    /// which drains before the next seed starts. On several it lands on
    /// the spawning worker's own deque, which that worker pops in spawn
    /// order while idle peers steal from it.
    pub fn spawn(&self, task: T) {
        match &self.spawner {
            Spawner::Inline(queue) => queue.borrow_mut().push_back(task),
            Spawner::Pool { own, pending } => {
                // Increment strictly before the push: the pending count
                // must never under-report outstanding work, or an idle
                // worker could observe 0 and exit while tasks exist.
                pending.fetch_add(1, Ordering::SeqCst);
                own.push(task);
            }
        }
    }
}

/// A work-stealing pool of scoped worker threads.
///
/// `threads <= 1` runs tasks inline on the calling thread (no pool, no
/// synchronisation), so the sequential solvers pay nothing for the
/// shared code path. Seeds run in task order, and each seed's whole
/// task tree — every task it spawned, and their spawns in turn — runs
/// breadth-first (FIFO) before the next seed starts.
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// Creates an executor with `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
        }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `tasks` to completion across the pool and returns the
    /// per-worker states in worker-index order (the sequence barrier:
    /// every worker has been joined when this returns, so the caller's
    /// merge over the states is deterministic).
    ///
    /// * `init(i)` builds worker `i`'s private state (dominator caches,
    ///   local bests, …).
    /// * `step(state, task, handle)` executes one task. The first `Err`
    ///   stops the pool cooperatively and is returned.
    /// * `cancel()` is polled before each task; when it returns `true`
    ///   every worker drains out (cooperative budget cancellation — the
    ///   states collected so far are still returned).
    pub fn run<T, S, E, C, I, F>(
        &self,
        tasks: Vec<T>,
        metrics: &ExecMetrics,
        cancel: C,
        init: I,
        step: F,
    ) -> Result<Vec<S>, E>
    where
        T: Send,
        S: Send,
        E: Send,
        C: Fn() -> bool + Sync,
        I: Fn(usize) -> S + Sync,
        F: Fn(&mut S, T, &WorkerHandle<'_>) -> Result<(), E> + Sync,
    {
        self.run_dynamic(tasks, metrics, cancel, init, |state, task, ctx| {
            step(state, task, &ctx.handle)
        })
    }

    /// [`Executor::run`] with dynamic task spawning: `step` receives a
    /// [`TaskContext`] through which it may push child tasks into the
    /// pool mid-flight. The pool terminates when every task — seeded or
    /// spawned — has completed (a shared pending counter reaches zero),
    /// so a single seed can fan out into an arbitrary task tree and
    /// idle workers steal the fringes.
    ///
    /// Termination discipline: the pending count is incremented before a
    /// spawned task becomes visible and decremented only after its
    /// `step` returns (including any spawns it performed), so the
    /// counter can reach zero only when no task is queued or running.
    pub fn run_dynamic<T, S, E, C, I, F>(
        &self,
        tasks: Vec<T>,
        metrics: &ExecMetrics,
        cancel: C,
        init: I,
        step: F,
    ) -> Result<Vec<S>, E>
    where
        T: Send,
        S: Send,
        E: Send,
        C: Fn() -> bool + Sync,
        I: Fn(usize) -> S + Sync,
        F: Fn(&mut S, T, &TaskContext<'_, T>) -> Result<(), E> + Sync,
    {
        assert!(
            metrics.workers() >= self.threads,
            "ExecMetrics sized for {} workers, executor has {}",
            metrics.workers(),
            self.threads
        );
        if self.threads <= 1 {
            let mut state = init(0);
            let queue = RefCell::new(VecDeque::new());
            let ctx = TaskContext {
                handle: WorkerHandle {
                    index: 0,
                    counters: metrics.counters(0),
                },
                spawner: Spawner::Inline(&queue),
            };
            // Inline execution is "worker 0" for trace routing, so
            // serial and parallel traces share one shape.
            let _trace_slot = worker_scope(0);
            // Every task a seed spawns runs, FIFO, before the next seed.
            for seed in tasks {
                queue.borrow_mut().push_back(seed);
                loop {
                    if cancel() {
                        return Ok(vec![state]);
                    }
                    let Some(task) = queue.borrow_mut().pop_front() else {
                        break;
                    };
                    ctx.handle.counters.tasks.fetch_add(1, Ordering::Relaxed);
                    let started = metrics.timing_wanted().then(Instant::now);
                    let result = step(&mut state, task, &ctx);
                    if let Some(t0) = started {
                        metrics.record_task(t0.elapsed());
                    }
                    result?;
                }
            }
            return Ok(vec![state]);
        }

        let n = self.threads;
        let queues: Vec<Worker<T>> = (0..n).map(|_| Worker::new_fifo()).collect();
        let stealers: Vec<Stealer<T>> = queues.iter().map(Worker::stealer).collect();
        let pending = AtomicUsize::new(tasks.len());
        // Round-robin deal: worker i starts with tasks i, i+n, i+2n, … so
        // an ordered task list is consumed roughly in order pool-wide.
        for (i, task) in tasks.into_iter().enumerate() {
            queues[i % n].push(task);
        }

        let stop = AtomicBool::new(false);
        let error: Mutex<Option<E>> = Mutex::new(None);
        let states = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = queues
                .into_iter()
                .enumerate()
                .map(|(i, own)| {
                    let stealers = &stealers;
                    let stop = &stop;
                    let error = &error;
                    let pending = &pending;
                    let cancel = &cancel;
                    let init = &init;
                    let step = &step;
                    scope.spawn(move |_| -> S {
                        let _trace_slot = worker_scope(i);
                        let mut state = init(i);
                        let counters = metrics.counters(i);
                        let ctx = TaskContext {
                            handle: WorkerHandle { index: i, counters },
                            spawner: Spawner::Pool { own: &own, pending },
                        };
                        loop {
                            if stop.load(Ordering::Relaxed) || cancel() {
                                break;
                            }
                            let task = match own.pop() {
                                Some(t) => Some(t),
                                None => steal_from_peers(i, stealers, counters, &metrics.tracer),
                            };
                            let Some(task) = task else {
                                // Every deque is empty, but a running
                                // peer may still spawn: exit only once
                                // nothing is queued *or* in flight.
                                if pending.load(Ordering::SeqCst) == 0 {
                                    break;
                                }
                                std::thread::yield_now();
                                continue;
                            };
                            counters.tasks.fetch_add(1, Ordering::Relaxed);
                            let started = metrics.timing_wanted().then(Instant::now);
                            let result = step(&mut state, task, &ctx);
                            if let Some(t0) = started {
                                metrics.record_task(t0.elapsed());
                            }
                            pending.fetch_sub(1, Ordering::SeqCst);
                            if let Err(e) = result {
                                let mut slot = error.lock();
                                if slot.is_none() {
                                    *slot = Some(e);
                                }
                                stop.store(true, Ordering::Relaxed);
                                break;
                            }
                        }
                        state
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("executor worker panicked"))
                .collect::<Vec<S>>()
        })
        .expect("executor thread scope failed");

        match error.into_inner() {
            Some(e) => Err(e),
            None => Ok(states),
        }
    }
}

/// One full sweep over the peers' deques (starting after `me`), retried
/// while any attempt reports `Steal::Retry`.
fn steal_from_peers<T>(
    me: usize,
    stealers: &[Stealer<T>],
    counters: &WorkerCounters,
    tracer: &Tracer,
) -> Option<T> {
    let n = stealers.len();
    loop {
        let mut retry = false;
        for off in 1..n {
            let j = (me + off) % n;
            match stealers[j].steal() {
                Steal::Success(task) => {
                    counters.stolen.fetch_add(1, Ordering::Relaxed);
                    tracer.event(
                        names::EXEC_TASKS_STOLEN,
                        TracePayload::TaskStolen { victim: j },
                    );
                    return Some(task);
                }
                Steal::Retry => retry = true,
                Steal::Empty => {}
            }
        }
        if !retry {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn shared_bound_is_a_cas_min() {
        let b = SharedBound::new(0.5);
        assert_eq!(b.value(), 0.5);
        assert!(!b.refresh(0.5), "equal value is not an improvement");
        assert!(!b.refresh(0.7));
        assert!(b.refresh(0.25));
        assert_eq!(b.value(), 0.25);
        assert!(b.refresh(0.0));
        assert!(!b.refresh(0.1));
        assert_eq!(b.value(), 0.0);
        assert_eq!(b.tightened(), 2, "only genuine improvements count");
    }

    #[test]
    fn shared_bound_settles_on_concurrent_minimum() {
        let b = SharedBound::new(1.0);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let b = &b;
                s.spawn(move || {
                    for i in 0..200u64 {
                        b.refresh(((t * 200 + i) % 97) as f64 / 100.0);
                    }
                });
            }
        });
        assert_eq!(b.value(), 0.0);
    }

    #[test]
    fn executor_runs_every_task_exactly_once() {
        for threads in [1usize, 2, 4, 8] {
            let exec = Executor::new(threads);
            let metrics = ExecMetrics::new(exec.threads());
            let sums = exec
                .run(
                    (1..=100u64).collect(),
                    &metrics,
                    || false,
                    |_| 0u64,
                    |acc: &mut u64, task, _h| -> Result<(), ()> {
                        *acc += task;
                        Ok(())
                    },
                )
                .unwrap();
            assert_eq!(sums.len(), if threads <= 1 { 1 } else { threads });
            assert_eq!(sums.iter().sum::<u64>(), 100 * 101 / 2);
            assert_eq!(metrics.totals().tasks, 100);
        }
    }

    #[test]
    fn idle_workers_steal_skewed_work() {
        // Task 0 (worker 0's only own task besides the stragglers) sleeps;
        // the other workers must steal worker 0's remaining backlog.
        let exec = Executor::new(4);
        let metrics = ExecMetrics::new(4);
        // 64 tasks: every 4th lands on worker 0's deque; make worker 0's
        // first task slow so peers drain its queue.
        let done = AtomicUsize::new(0);
        exec.run(
            (0..64usize).collect(),
            &metrics,
            || false,
            |_| (),
            |_s, task, _h| -> Result<(), ()> {
                if task == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                }
                done.fetch_add(1, Ordering::Relaxed);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(done.load(Ordering::Relaxed), 64);
        assert_eq!(metrics.totals().tasks, 64);
        assert!(
            metrics.totals().stolen > 0,
            "peers should have stolen worker 0's backlog: {:?}",
            metrics.per_worker()
        );
    }

    #[test]
    fn errors_stop_the_pool_and_propagate() {
        let exec = Executor::new(4);
        let metrics = ExecMetrics::new(4);
        let out = exec.run(
            (0..1000usize).collect(),
            &metrics,
            || false,
            |_| (),
            |_s, task, _h| {
                if task == 17 {
                    Err("boom")
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(out.unwrap_err(), "boom");
        assert!(
            metrics.totals().tasks < 1000,
            "the pool should stop cooperatively after the error"
        );
    }

    #[test]
    fn cancellation_drains_the_pool() {
        let exec = Executor::new(4);
        let metrics = ExecMetrics::new(4);
        let executed = AtomicUsize::new(0);
        let states = exec
            .run(
                (0..10_000usize).collect(),
                &metrics,
                || executed.load(Ordering::Relaxed) >= 8,
                |_| (),
                |_s, _task, _h| -> Result<(), ()> {
                    executed.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(states.len(), 4, "cancelled workers still return states");
        assert!(
            metrics.totals().tasks < 10_000,
            "cancellation must stop the pool early"
        );
    }

    #[test]
    fn dynamic_spawn_executes_the_whole_task_tree() {
        // One seed fans out into a binary tree of depth 10 (2^10 - 1
        // tasks); every node contributes its id so the total checks
        // both coverage and exactly-once execution.
        for threads in [1usize, 2, 4, 8] {
            let exec = Executor::new(threads);
            let metrics = ExecMetrics::new(exec.threads());
            let sums = exec
                .run_dynamic(
                    vec![1u64],
                    &metrics,
                    || false,
                    |_| 0u64,
                    |acc: &mut u64, id, ctx| -> Result<(), ()> {
                        *acc += id;
                        if 2 * id < 1024 {
                            ctx.spawn(2 * id);
                            ctx.spawn(2 * id + 1);
                        }
                        Ok(())
                    },
                )
                .unwrap();
            let total: u64 = sums.iter().sum();
            assert_eq!(total, (1..1024u64).sum::<u64>(), "threads {threads}");
            assert_eq!(metrics.totals().tasks, 1023);
        }
    }

    #[test]
    fn inline_mode_drains_a_seeds_task_tree_before_the_next_seed() {
        let exec = Executor::new(1);
        let metrics = ExecMetrics::new(1);
        let order = exec
            .run_dynamic(
                vec!["A", "B"],
                &metrics,
                || false,
                |_| Vec::new(),
                |seen: &mut Vec<&str>, task, ctx| -> Result<(), ()> {
                    seen.push(task);
                    match task {
                        "A" => {
                            ctx.spawn("A1");
                            ctx.spawn("A2");
                        }
                        "A1" => ctx.spawn("A11"),
                        _ => {}
                    }
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(order, vec![vec!["A", "A1", "A2", "A11", "B"]]);
    }

    #[test]
    fn dynamic_spawned_tasks_are_stolen() {
        // A single seed spawns all the work: without stealing, worker 0
        // would run everything alone.
        let exec = Executor::new(4);
        let metrics = ExecMetrics::new(4);
        exec.run_dynamic(
            vec![0usize],
            &metrics,
            || false,
            |_| (),
            |_s, depth, ctx| -> Result<(), ()> {
                if depth < 7 {
                    ctx.spawn(depth + 1);
                    ctx.spawn(depth + 1);
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(metrics.totals().tasks, 255);
        assert!(
            metrics.totals().stolen > 0,
            "peers should steal the seed's fan-out: {:?}",
            metrics.per_worker()
        );
    }

    #[test]
    fn dynamic_errors_stop_the_fan_out() {
        let exec = Executor::new(4);
        let metrics = ExecMetrics::new(4);
        let out = exec.run_dynamic(
            vec![0u32],
            &metrics,
            || false,
            |_| (),
            |_s, gen, ctx| {
                if gen == 5 {
                    return Err("boom");
                }
                ctx.spawn(gen + 1);
                ctx.spawn(gen + 1);
                Ok(())
            },
        );
        assert_eq!(out.unwrap_err(), "boom");
    }

    #[test]
    fn tracing_and_task_hist_observe_without_interfering() {
        let exec = Executor::new(4);
        let mut metrics = ExecMetrics::new(4);
        let tracer = Tracer::new();
        metrics.set_tracer(tracer.clone());
        let hist = Hist::new();
        metrics.set_task_hist(hist.clone());
        // A single seed fans the work out, forcing steals.
        exec.run_dynamic(
            vec![0usize],
            &metrics,
            || false,
            |_| (),
            |_s, depth, ctx| -> Result<(), ()> {
                if depth < 6 {
                    ctx.spawn(depth + 1);
                    ctx.spawn(depth + 1);
                }
                std::thread::sleep(std::time::Duration::from_micros(100));
                Ok(())
            },
        )
        .unwrap();
        let totals = metrics.totals();
        assert_eq!(totals.tasks, 127);
        // Every steal produced exactly one TaskStolen event, and every
        // task landed once in the latency histogram.
        let report = tracer.drain();
        assert_eq!(report.count_events(names::EXEC_TASKS_STOLEN), totals.stolen);
        assert_eq!(hist.snapshot().count, totals.tasks);
        assert!(hist.snapshot().p50() >= 100_000, "tasks sleep ≥100µs");
    }

    #[test]
    fn task_window_receives_every_task_duration() {
        let exec = Executor::new(4);
        let mut metrics = ExecMetrics::new(4);
        let window = Arc::new(RollingWindow::new(std::time::Duration::from_secs(3600), 4));
        metrics.set_task_window(Arc::clone(&window));
        exec.run(
            vec![(); 32],
            &metrics,
            || false,
            |_| (),
            |_s, _t, _h| -> Result<(), ()> { Ok(()) },
        )
        .unwrap();
        let recent = window.window(std::time::Duration::from_secs(3600));
        assert_eq!(recent.count, 32, "every task lands in the open tick");
        assert_eq!(window.cumulative().count, 32);
    }

    #[test]
    fn worker_handle_attribution() {
        let exec = Executor::new(2);
        let metrics = ExecMetrics::new(2);
        exec.run(
            vec![(); 10],
            &metrics,
            || false,
            |_| (),
            |_s, _t, h| -> Result<(), ()> {
                h.count_prune_hit();
                h.count_bound_refresh();
                Ok(())
            },
        )
        .unwrap();
        let totals = metrics.totals();
        assert_eq!(totals.prune_hits, 10);
        assert_eq!(totals.bound_refreshes, 10);
        let per = metrics.per_worker();
        assert_eq!(per.iter().map(|w| w.tasks).sum::<u64>(), 10);
    }
}
