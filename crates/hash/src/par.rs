//! Minimal std-only parallelism substrate (`std::thread` only; no external
//! thread crates, per the workspace dependency policy).
//!
//! One shape covers every parallel stage in the workspace: [`WorkerPool`],
//! a **persistent** pool of workers spawned lazily on first use and reused
//! across stages and calls. A `ZPool` or `Squirrel` owns one pool for its
//! lifetime, so no parallel stage pays thread-creation cost after the
//! first; a one-shot batch (a corpus sweep) builds a pool for the call. It
//! is the only place non-test code in the workspace spawns threads.
//!
//! * [`WorkerPool::run`] — a fixed number of work shares, each told its
//!   index, results in index order (the corpus-analysis shape, where every
//!   worker owns a round-robin slice of the input).
//! * [`WorkerPool::parallel_map`] / [`WorkerPool::parallel_map_indices`] —
//!   dynamic work-stealing over a slice or index range via an atomic
//!   cursor, results returned **in input order**.
//!
//! Output order is independent of scheduling in both, which is what lets
//! callers promise bit-identical results at any thread count.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Resolve a `threads` knob: `0` means all available parallelism. The OS
/// query is memoized process-wide, so resolving on a hot path never
/// re-enters the kernel.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        static CORES: OnceLock<usize> = OnceLock::new();
        *CORES.get_or_init(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        })
    } else {
        threads
    }
}

/// Batch size pulled from the shared cursor per grab; amortizes contention
/// while keeping the tail balanced.
const GRAB: usize = 16;

/// Workers that `count` items can actually keep busy: one per cursor grab,
/// capped at `max`. Tiny batches (sparse register diffs) thus run serially
/// or on a couple of workers instead of paying wake/steal overhead for
/// workers that would find the cursor already drained.
fn useful_workers(count: usize, max: usize) -> usize {
    max.min(count.div_ceil(GRAB)).max(1)
}

/// Scatter `(index, result)` pairs back into input order.
fn merge_indexed<R>(count: usize, parts: Vec<Vec<(usize, R)>>) -> Vec<R> {
    let mut slots: Vec<Option<R>> = (0..count).map(|_| None).collect();
    for part in parts {
        for (i, r) in part {
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index visited exactly once"))
        .collect()
}

// --- persistent worker pool --------------------------------------------------

thread_local! {
    /// Set while a thread is executing inside a pool job. A nested dispatch
    /// from a pool job runs inline instead of deadlocking on the pool's
    /// one-job-at-a-time slot.
    static IN_POOL_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Type-erased job pointer. The dispatcher guarantees every participating
/// worker finishes with the referent before `dispatch` returns, so sending
/// the pointer to pool threads is sound even though it borrows the caller's
/// stack.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are fine)
// and `WorkerPool::dispatch` blocks until every participant has finished
// with it, so the pointer never outlives its referent.
unsafe impl Send for Job {}

struct PoolState {
    job: Option<Job>,
    /// Incremented per dispatched job; workers use it to detect fresh work.
    epoch: u64,
    /// Participants of the current job (worker indices `0..limit`; index 0
    /// is the dispatching caller itself).
    limit: usize,
    /// Persistent participants still running the current job.
    active: usize,
    /// Persistent workers spawned so far (they hold indices `1..=spawned`).
    spawned: usize,
    /// First panic payload observed among the persistent participants.
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

struct PoolInner {
    state: Mutex<PoolState>,
    /// Signals workers: new job posted, or shutdown.
    work_cv: Condvar,
    /// Signals the dispatcher: all persistent participants finished.
    done_cv: Condvar,
}

struct PoolCore {
    /// Resolved worker budget (cached once at construction; never re-queries
    /// the OS afterwards).
    target: usize,
    /// Participants actually dispatched: `target` capped at the machine's
    /// available parallelism — extra workers on an oversubscribed host only
    /// timeslice and add wake/steal overhead. Floored at 2 so a
    /// multi-thread pool still exercises real cross-thread execution (and
    /// the determinism contract) even on a single-core host.
    effective: usize,
    inner: Arc<PoolInner>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Serializes dispatchers: the pool runs one job at a time, so two
    /// threads sharing a cloned pool queue up instead of clobbering the
    /// job slot.
    dispatch_lock: Mutex<()>,
}

impl Drop for PoolCore {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock().expect("pool state poisoned");
            st.shutdown = true;
            self.inner.work_cv.notify_all();
        }
        for h in self.handles.lock().expect("pool handles poisoned").drain(..) {
            let _ = h.join();
        }
    }
}

/// A persistent, lazily-spawned worker pool.
///
/// Construction is cheap (no threads). The first dispatch that wants `k`
/// workers spawns `k - 1` persistent threads — the dispatching caller always
/// participates as worker 0, so a pool sized for `t` threads parks at most
/// `t - 1`. Later dispatches reuse them via a condvar wake, which is the
/// whole point: `thread::spawn` cost is paid once per pool lifetime
/// instead of once per stage.
///
/// Cloning shares the pool (an `Arc` bump); the threads exit when the last
/// clone drops. Dispatches are serialized per pool (one job at a time); a
/// dispatch from inside a pool job runs inline rather than deadlocking.
/// Participants per dispatch are capped at the machine's available
/// parallelism (floored at 2, so a multi-thread pool still runs truly
/// concurrent even on a single-core host): extra workers beyond the core
/// count would only timeslice, so `threads = 8` on a 2-core box
/// dispatches 2.
/// Determinism: `run` and the `parallel_map*` methods return results in
/// index order however the work was scheduled, so outputs are bit-identical
/// at any pool size.
#[derive(Clone)]
pub struct WorkerPool {
    core: Arc<PoolCore>,
}

impl WorkerPool {
    /// A pool that will use up to `threads` workers (`0` = all available
    /// cores, resolved and cached now). No threads are spawned until the
    /// first dispatch that needs them.
    pub fn new(threads: usize) -> Self {
        let target = resolve_threads(threads).max(1);
        WorkerPool {
            core: Arc::new(PoolCore {
                target,
                effective: target.min(resolve_threads(0).max(2)),
                inner: Arc::new(PoolInner {
                    state: Mutex::new(PoolState {
                        job: None,
                        epoch: 0,
                        limit: 0,
                        active: 0,
                        spawned: 0,
                        panic: None,
                        shutdown: false,
                    }),
                    work_cv: Condvar::new(),
                    done_cv: Condvar::new(),
                }),
                handles: Mutex::new(Vec::new()),
                dispatch_lock: Mutex::new(()),
            }),
        }
    }

    /// The pool's resolved worker budget.
    pub fn threads(&self) -> usize {
        self.core.target
    }

    /// Persistent threads currently alive (diagnostic; `0` until the first
    /// multi-worker dispatch).
    pub fn spawned_workers(&self) -> usize {
        self.core.inner.state.lock().expect("pool state poisoned").spawned
    }

    /// Run `work(w)` exactly once for every index `w` in `0..workers`,
    /// spread over up to the pool's thread budget (the caller participates),
    /// and return the results in index order. Blocks until every index has
    /// run. A panic in any participant propagates to the caller after the
    /// job has fully drained.
    pub fn run<R, F>(&self, workers: usize, work: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let total = workers.max(1);
        let n = total.min(self.core.effective);
        if n <= 1 || IN_POOL_JOB.with(|flag| flag.get()) {
            return (0..total).map(work).collect();
        }
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = (0..total).map(|_| Mutex::new(None)).collect();
        self.dispatch(n, &|_p: usize| loop {
            let w = cursor.fetch_add(1, Ordering::Relaxed);
            if w >= total {
                break;
            }
            *slots[w].lock().expect("result slot poisoned") = Some(work(w));
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot poisoned")
                    .expect("every index ran exactly once")
            })
            .collect()
    }

    /// Apply `f` to every item of `items`, results in input order
    /// regardless of how the work was scheduled.
    pub fn parallel_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.parallel_map_indices(items.len(), |i| f(i, &items[i]))
    }

    /// Apply `f` to every index in `0..count`, results in index order. The
    /// index-space variant of [`parallel_map`](Self::parallel_map) for
    /// callers whose work items are *generated* — e.g. the M VMs of a boot
    /// storm — rather than stored in a slice.
    pub fn parallel_map_indices<R, F>(&self, count: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let n = useful_workers(count, self.core.effective);
        if n <= 1 || IN_POOL_JOB.with(|flag| flag.get()) {
            return (0..count).map(f).collect();
        }
        let cursor = AtomicUsize::new(0);
        let parts = self.run(n, |_w| {
            let mut local: Vec<(usize, R)> = Vec::new();
            loop {
                let start = cursor.fetch_add(GRAB, Ordering::Relaxed);
                if start >= count {
                    break;
                }
                for i in start..(start + GRAB).min(count) {
                    local.push((i, f(i)));
                }
            }
            local
        });
        merge_indexed(count, parts)
    }

    /// Post one job for `participants >= 2` workers and run share 0 on the
    /// calling thread. Returns only after every participant is done.
    fn dispatch(&self, participants: usize, job: &(dyn Fn(usize) + Sync)) {
        debug_assert!(participants >= 2);
        let inner = &self.core.inner;
        // A panicking job unwinds through this guard and poisons the lock;
        // the pool itself stays consistent, so recover rather than refuse.
        let _turn = self
            .core
            .dispatch_lock
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        {
            let mut st = inner.state.lock().expect("pool state poisoned");
            debug_assert!(st.job.is_none(), "pool dispatch is not reentrant");
            // Lazily grow the persistent worker set to cover indices
            // 1..participants (index 0 is the caller).
            while st.spawned < participants - 1 {
                let w = st.spawned + 1;
                let worker_inner = Arc::clone(&self.core.inner);
                let handle = std::thread::Builder::new()
                    .name(format!("squirrel-pool-{w}"))
                    .spawn(move || worker_loop(&worker_inner, w))
                    .expect("spawn pool worker");
                self.core.handles.lock().expect("pool handles poisoned").push(handle);
                st.spawned += 1;
            }
            // SAFETY: lifetime erasure only — `dispatch` does not return
            // until every participant has finished with `job` (the
            // `active == 0` wait below), so the erased borrow never
            // outlives the referent.
            let erased: &'static (dyn Fn(usize) + Sync) =
                unsafe { std::mem::transmute(job) };
            st.job = Some(Job(erased as *const _));
            st.epoch += 1;
            st.limit = participants;
            st.active = participants - 1;
            inner.work_cv.notify_all();
        }
        // The caller is participant 0. Catch its panic so the persistent
        // participants always drain before we unwind past the job's
        // borrowed environment.
        let caller = catch_unwind(AssertUnwindSafe(|| {
            IN_POOL_JOB.with(|flag| flag.set(true));
            let r = catch_unwind(AssertUnwindSafe(|| job(0)));
            IN_POOL_JOB.with(|flag| flag.set(false));
            if let Err(p) = r {
                resume_unwind(p);
            }
        }));
        let worker_panic = {
            let mut st = inner.state.lock().expect("pool state poisoned");
            while st.active > 0 {
                st = inner.done_cv.wait(st).expect("pool state poisoned");
            }
            st.job = None;
            st.panic.take()
        };
        if let Err(p) = caller {
            resume_unwind(p);
        }
        if let Some(p) = worker_panic {
            resume_unwind(p);
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.core.target)
            .field("spawned", &self.spawned_workers())
            .finish()
    }
}

/// Persistent worker body: wait for a fresh epoch, run the job if this
/// worker participates, report completion, repeat until shutdown.
fn worker_loop(inner: &PoolInner, w: usize) {
    IN_POOL_JOB.with(|flag| flag.set(true));
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = inner.state.lock().expect("pool state poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    if w < st.limit {
                        break st.job.expect("fresh epoch carries a job");
                    }
                    // Not a participant this round; keep waiting.
                }
                st = inner.work_cv.wait(st).expect("pool state poisoned");
            }
        };
        // SAFETY: the dispatcher waits for `active == 0` before returning,
        // so the job's referent outlives this call.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(w) }));
        let mut st = inner.state.lock().expect("pool state poisoned");
        if let Err(p) = result {
            if st.panic.is_none() {
                st.panic = Some(p);
            }
        }
        st.active -= 1;
        if st.active == 0 {
            inner.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_zero_means_all_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        // Memoized: repeated resolution agrees with itself.
        assert_eq!(resolve_threads(0), resolve_threads(0));
    }

    #[test]
    fn useful_workers_clamps_to_grabs() {
        assert_eq!(useful_workers(0, 8), 1);
        assert_eq!(useful_workers(3, 8), 1, "one grab covers a tiny batch");
        assert_eq!(useful_workers(GRAB + 1, 8), 2);
        assert_eq!(useful_workers(10 * GRAB, 8), 8);
        assert_eq!(useful_workers(10 * GRAB, 2), 2);
    }

    #[test]
    fn pool_is_lazy_and_reusable() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        assert_eq!(pool.spawned_workers(), 0, "construction spawns nothing");
        // A tiny map stays inline: still no threads.
        assert_eq!(pool.parallel_map(&[1u8, 2], |_, &b| b * 2), vec![2, 4]);
        assert_eq!(pool.spawned_workers(), 0);
        // A real batch spawns once...
        let items: Vec<u64> = (0..500).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x + 1).collect();
        assert_eq!(pool.parallel_map(&items, |_, &x| x + 1), expect);
        let spawned = pool.spawned_workers();
        assert!((1..=3).contains(&spawned), "caller is worker 0, got {spawned}");
        // ...and later batches reuse the same workers.
        for _ in 0..5 {
            assert_eq!(pool.parallel_map(&items, |_, &x| x + 1), expect);
        }
        assert_eq!(pool.spawned_workers(), spawned);
    }

    #[test]
    fn pool_matches_iterator_map_at_any_size() {
        let items: Vec<u64> = (0..333).collect();
        let reference: Vec<u64> =
            items.iter().enumerate().map(|(i, &x)| x * 3 + i as u64).collect();
        for threads in [1usize, 2, 8] {
            let pool = WorkerPool::new(threads);
            assert_eq!(pool.parallel_map(&items, |i, &x| x * 3 + i as u64), reference);
            assert_eq!(
                pool.parallel_map_indices(items.len(), |i| items[i] * 3 + i as u64),
                reference
            );
            assert!(pool.parallel_map(&[0u8; 0], |_, &b| b).is_empty());
            assert!(pool.parallel_map_indices(0, |i| i).is_empty());
        }
    }

    #[test]
    fn pool_run_covers_every_index_once() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        // Results come back in index order, whoever ran which share.
        let out = pool.run(4, |w| {
            hits[w].fetch_add(1, Ordering::Relaxed);
            w * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30]);
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
        // Serial run (single worker) also covers index 0.
        let one = AtomicUsize::new(0);
        pool.run(1, |w| {
            assert_eq!(w, 0);
            one.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(one.load(Ordering::Relaxed), 1);
        // More indices than pool threads: every index still runs once.
        let narrow = WorkerPool::new(2);
        let wide: Vec<AtomicUsize> = (0..9).map(|_| AtomicUsize::new(0)).collect();
        narrow.run(9, |w| {
            wide[w].fetch_add(1, Ordering::Relaxed);
        });
        for h in &wide {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn pool_caps_participants_at_hardware_parallelism() {
        let pool = WorkerPool::new(64);
        assert_eq!(pool.threads(), 64, "the budget itself is as requested");
        let cap = resolve_threads(0).max(2);
        // Dispatch a big batch: spawned persistent workers never exceed
        // cap - 1 (the caller is participant 0).
        pool.parallel_map_indices(2048, |i| i);
        assert!(
            pool.spawned_workers() < cap,
            "spawned {} workers on a {cap}-wide machine",
            pool.spawned_workers()
        );
        // ...but a multi-thread pool always gets at least one real worker,
        // even on a single-core host.
        assert!(pool.spawned_workers() >= 1);
    }

    #[test]
    fn pool_clone_shares_workers() {
        let pool = WorkerPool::new(2);
        let clone = pool.clone();
        let items: Vec<u32> = (0..200).collect();
        pool.parallel_map(&items, |_, &x| x);
        let spawned = pool.spawned_workers();
        clone.parallel_map(&items, |_, &x| x);
        assert_eq!(clone.spawned_workers(), spawned, "clone reuses the same threads");
    }

    #[test]
    fn nested_dispatch_runs_inline() {
        let pool = WorkerPool::new(4);
        let outer: Vec<u32> = (0..64).collect();
        // Each outer item runs a nested map on the same pool; the nested
        // calls must degrade to inline execution, not deadlock.
        let out = pool.parallel_map(&outer, |_, &x| {
            pool.parallel_map_indices(40, |i| i as u32).iter().sum::<u32>() + x
        });
        let nested_sum: u32 = (0..40).sum();
        assert_eq!(out, outer.iter().map(|&x| nested_sum + x).collect::<Vec<_>>());
    }

    #[test]
    fn pool_propagates_worker_panics() {
        let pool = WorkerPool::new(4);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_map_indices(400, |i| {
                assert!(i != 237, "boom at {i}");
                i
            })
        }));
        assert!(r.is_err(), "panic must propagate to the dispatcher");
        // The pool survives a panicked job and keeps working.
        assert_eq!(
            pool.parallel_map_indices(100, |i| i),
            (0..100).collect::<Vec<_>>()
        );
    }

    #[test]
    fn pool_drop_joins_workers() {
        let pool = WorkerPool::new(8);
        pool.parallel_map_indices(1000, |i| i * 2);
        drop(pool); // must not hang or leak (join happens here)
    }
}
