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
//! * [`WorkerPool::parallel_map`] — a slice of items, each with an
//!   estimated cost, cut by [`plan_shares`] into shares worth handing to
//!   another thread; results returned **in input order**.
//!
//! Output order is independent of scheduling in both, and the share plan
//! depends on the weights alone, which is what lets callers promise
//! bit-identical results at any thread count.

use std::cell::Cell;
use std::ops::Range;
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
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    } else {
        threads
    }
}

/// Estimated work, in nanoseconds, that a share must carry before
/// [`plan_shares`] closes it — the one rule by which every parallel stage
/// in the workspace decides whether a second thread is worth waking.
/// Sized from the hand-off, not from item counts: on the 2-core reference
/// box a worker that has been parked for 10 ms — one registration — takes
/// 25–45 µs to join a job and report back (9 µs when it has just run;
/// measured as a two-share `run` whose shares wait for each other), so a
/// share breaks even at ≈ 50 µs and pays well at five times that. 250 µs
/// is reached by one 64 KiB record to compress (≈ 790 µs), four to hash,
/// or two 16 KiB records to compress (≈ 200 µs each).
pub const MIN_SHARE: u64 = 250_000;

/// Per-byte cost estimates of the workspace's byte-crunching stages, in
/// nanoseconds per byte — what callers multiply a length by to state an
/// item's weight. Measured on the reference box (`benchmark/ run --workload
/// ingest --trace`, SHA-NI host, median of three runs): `hash.sha256_mb_per_s`
/// 1 696 (0.59 ns/B; the Gear scan reads 1 281),
/// `compress.decompress_mb_per_s` 268 (3.7 ns/B; `INFLATE` still plans as
/// 5, so one 64 KiB record to prove, ≈ 0.39 ms, is a share of its own),
/// `compress.compress_mb_per_s` 84 at gzip-6 (11.8 ns/B; 65 before the
/// match finder linked its hash chains ahead of the parse, 76 before the
/// Huffman stage packed whole words). Any `DEFLATE` in 8..=15 plans the
/// same shares: two 16 KiB records or one 64 KiB record each. A cheaper codec is
/// over-estimated, which costs at most one hand-off per batch. `SYNTH` is
/// `squirrel-dataset`'s corpus synthesis (`fill_atom`): 0.9–1.1 µs per
/// 512-byte atom single-threaded (1.8–2.2 ns/B), 460–670 MB/s over whole
/// 64 KiB cache blocks (1.5–2.2 ns/B); two 64 KiB blocks make a share.
pub mod cost {
    pub const HASH: u64 = 1;
    pub const SYNTH: u64 = 2;
    pub const INFLATE: u64 = 5;
    pub const DEFLATE: u64 = 12;
}

/// Cut items with the given `weights` (nanoseconds of estimated work, in
/// input order) into contiguous shares: a share closes as soon as it
/// carries [`MIN_SHARE`], so every share but the last is worth a hand-off
/// and an item heavier than `MIN_SHARE` travels alone. The plan is a
/// function of the weights only — never of a thread count — so what runs
/// together is the same on every machine; fewer than two shares means the
/// batch is not worth splitting.
pub fn plan_shares(weights: impl IntoIterator<Item = u64>) -> Vec<Range<usize>> {
    let mut shares = Vec::new();
    let (mut start, mut end, mut load) = (0usize, 0usize, 0u64);
    for w in weights {
        end += 1;
        load = load.saturating_add(w);
        if load >= MIN_SHARE {
            shares.push(start..end);
            (start, load) = (end, 0);
        }
    }
    if start < end {
        shares.push(start..end);
    }
    shares
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
struct Job(*const (dyn Fn() + Sync));

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
    /// Persistent workers that joined the current job and have not
    /// finished it.
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
        for h in self
            .handles
            .lock()
            .expect("pool handles poisoned")
            .drain(..)
        {
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
/// Determinism: `run` and `parallel_map` return results in index order
/// however the work was scheduled, so outputs are bit-identical at any pool
/// size.
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
        self.core
            .inner
            .state
            .lock()
            .expect("pool state poisoned")
            .spawned
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
        self.dispatch(n, &|| loop {
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

    /// Apply `f` to every item of `items`, results in input order however
    /// the work was scheduled. `weight` estimates an item's cost in
    /// nanoseconds (bytes × a [`cost`] factor); [`plan_shares`] turns the
    /// weights into shares, fewer than two shares run inline on the
    /// caller, and otherwise min(threads, shares) participants pull whole
    /// shares from a cursor.
    pub fn parallel_map<T, R, W, F>(&self, items: &[T], weight: W, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        W: Fn(&T) -> u64,
        F: Fn(usize, &T) -> R + Sync,
    {
        let inline = || items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        // Nobody to hand a share to: skip the planning too.
        if self.core.effective <= 1 || IN_POOL_JOB.with(|flag| flag.get()) {
            return inline();
        }
        let shares = plan_shares(items.iter().map(weight));
        if shares.len() < 2 {
            return inline();
        }
        self.run(shares.len(), |s| {
            shares[s]
                .clone()
                .map(|i| f(i, &items[i]))
                .collect::<Vec<R>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Post one job for up to `participants >= 2` threads and run it on
    /// the calling thread too. `job` must be a loop over a shared cursor:
    /// the caller's call returning means the work has run out, so a worker
    /// that wakes later finds the job withdrawn and is not waited for.
    /// Returns only after every worker that did join is done.
    fn dispatch(&self, participants: usize, job: &(dyn Fn() + Sync)) {
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
                self.core
                    .handles
                    .lock()
                    .expect("pool handles poisoned")
                    .push(handle);
                st.spawned += 1;
            }
            // SAFETY: lifetime erasure only — a worker takes the pointer
            // and counts itself into `active` under one lock, and
            // `dispatch` withdraws the pointer and waits for `active == 0`
            // under the same lock before it returns, so the erased borrow
            // never outlives the referent.
            let erased: &'static (dyn Fn() + Sync) = unsafe { std::mem::transmute(job) };
            st.job = Some(Job(erased as *const _));
            st.epoch += 1;
            st.limit = participants;
            debug_assert_eq!(st.active, 0, "the previous job drained");
            inner.work_cv.notify_all();
        }
        // The caller is participant 0. Catch its panic so the persistent
        // participants always drain before we unwind past the job's
        // borrowed environment.
        let caller = catch_unwind(AssertUnwindSafe(|| {
            IN_POOL_JOB.with(|flag| flag.set(true));
            let r = catch_unwind(AssertUnwindSafe(job));
            IN_POOL_JOB.with(|flag| flag.set(false));
            if let Err(p) = r {
                resume_unwind(p);
            }
        }));
        let worker_panic = {
            let mut st = inner.state.lock().expect("pool state poisoned");
            // The caller's share of a cursor-driven job ends when the work
            // has run out: a worker that has not woken yet has nothing
            // left to do, so it is not waited for — only those that joined.
            st.job = None;
            while st.active > 0 {
                st = inner.done_cv.wait(st).expect("pool state poisoned");
            }
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
                    if let (true, Some(job)) = (w < st.limit, st.job) {
                        st.active += 1;
                        break job;
                    }
                    // Not a participant this round, or woke after the
                    // dispatcher had finished the job alone; keep waiting.
                }
                st = inner.work_cv.wait(st).expect("pool state poisoned");
            }
        };
        // SAFETY: this worker is counted in `active`, and the dispatcher
        // waits for `active == 0` before returning, so the job's referent
        // outlives this call.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)() }));
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
    use proptest::prelude::*;

    /// Items heavy enough that each is a share of its own.
    fn heavy<T>(_: &T) -> u64 {
        MIN_SHARE
    }

    #[test]
    fn resolve_zero_means_all_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        // Memoized: repeated resolution agrees with itself.
        assert_eq!(resolve_threads(0), resolve_threads(0));
    }

    #[test]
    fn plan_follows_work_not_item_count() {
        assert!(plan_shares([]).is_empty());
        // A registration's diff: six 64 KiB records. Compressing each is a
        // share; hashing all six is one share and a tail.
        let kib64 = 64 * 1024u64;
        assert_eq!(plan_shares([kib64 * cost::DEFLATE; 6]).len(), 6);
        assert_eq!(plan_shares([kib64 * cost::HASH; 6]), vec![0..4, 4..6]);
        // 16 KiB records compress in pairs, so a lone pair stays inline.
        assert_eq!(plan_shares([16 * 1024 * cost::DEFLATE; 2]), vec![0..2]);
        // A thousand trivial items are not worth a hand-off either.
        assert_eq!(plan_shares([100; 1000]), vec![0..1000]);
    }

    proptest! {
        /// The planner's contract on random weights (light, heavy and
        /// zero-cost items mixed), and `parallel_map` under it.
        #[test]
        fn plan_is_an_ordered_partition_into_worthwhile_shares(
            weights in proptest::collection::vec(
                prop_oneof![Just(0u64), 1..MIN_SHARE / 8, MIN_SHARE / 2..MIN_SHARE * 3],
                0..200,
            )
        ) {
            let plan = plan_shares(weights.iter().copied());
            // Every index exactly once, in order, contiguously.
            let mut next = 0;
            for share in &plan {
                prop_assert_eq!(share.start, next);
                prop_assert!(share.end > share.start);
                next = share.end;
            }
            prop_assert_eq!(next, weights.len());
            // Every share but the last carries MIN_SHARE, and closed as
            // soon as it did.
            let load = |r: &Range<usize>| weights[r.clone()].iter().sum::<u64>();
            for share in plan.iter().rev().skip(1) {
                prop_assert!(load(share) >= MIN_SHARE);
                prop_assert!(load(&(share.start..share.end - 1)) < MIN_SHARE);
            }
            // Whatever the thread budget, the weighted map is the serial map.
            let serial: Vec<u64> =
                weights.iter().enumerate().map(|(i, &w)| w ^ i as u64).collect();
            for threads in [1usize, 2, 8] {
                let pool = WorkerPool::new(threads);
                prop_assert_eq!(&pool.parallel_map(&weights, |&w| w, |i, &w| w ^ i as u64), &serial);
            }
        }
    }

    #[test]
    fn pool_is_lazy_and_reusable() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        assert_eq!(pool.spawned_workers(), 0, "construction spawns nothing");
        // One share's worth of work stays inline: still no threads.
        assert_eq!(
            pool.parallel_map(&[1u8, 2], |_| MIN_SHARE / 2, |_, &b| b * 2),
            vec![2, 4]
        );
        assert_eq!(pool.spawned_workers(), 0);
        // A real batch spawns once...
        let items: Vec<u64> = (0..500).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x + 1).collect();
        assert_eq!(pool.parallel_map(&items, heavy, |_, &x| x + 1), expect);
        let spawned = pool.spawned_workers();
        assert!(
            (1..=3).contains(&spawned),
            "caller is worker 0, got {spawned}"
        );
        // ...and later batches reuse the same workers.
        for _ in 0..5 {
            assert_eq!(pool.parallel_map(&items, heavy, |_, &x| x + 1), expect);
        }
        assert_eq!(pool.spawned_workers(), spawned);
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
    fn a_parked_worker_joins_a_job_that_is_still_running() {
        let pool = WorkerPool::new(2);
        // Each share waits for the other: the job can only finish on two
        // threads, however late the worker wakes.
        let both = std::sync::Barrier::new(2);
        for _ in 0..50 {
            let ran_on = pool.run(2, |_| {
                both.wait();
                std::thread::current().id()
            });
            assert_ne!(ran_on[0], ran_on[1]);
        }
    }

    #[test]
    fn pool_caps_participants_at_hardware_parallelism() {
        let pool = WorkerPool::new(64);
        assert_eq!(pool.threads(), 64, "the budget itself is as requested");
        let cap = resolve_threads(0).max(2);
        // Dispatch a big batch: spawned persistent workers never exceed
        // cap - 1 (the caller is participant 0).
        pool.parallel_map(&[0u8; 2048], heavy, |i, _| i);
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
        pool.parallel_map(&items, heavy, |_, &x| x);
        let spawned = pool.spawned_workers();
        assert_eq!(spawned, 1);
        clone.parallel_map(&items, heavy, |_, &x| x);
        assert_eq!(
            clone.spawned_workers(),
            spawned,
            "clone reuses the same threads"
        );
    }

    #[test]
    fn nested_dispatch_runs_inline() {
        let pool = WorkerPool::new(4);
        let outer: Vec<u32> = (0..64).collect();
        // Each outer item runs a nested map on the same pool; the nested
        // calls must degrade to inline execution, not deadlock.
        let out = pool.parallel_map(&outer, heavy, |_, &x| {
            pool.parallel_map(&outer[..40], heavy, |i, _| i as u32)
                .iter()
                .sum::<u32>()
                + x
        });
        let nested_sum: u32 = (0..40).sum();
        assert_eq!(
            out,
            outer.iter().map(|&x| nested_sum + x).collect::<Vec<_>>()
        );
    }

    #[test]
    fn pool_propagates_worker_panics() {
        let items: Vec<usize> = (0..400).collect();
        for threads in [1, 2, 8] {
            let pool = WorkerPool::new(threads);
            let r = catch_unwind(AssertUnwindSafe(|| {
                pool.parallel_map(&items, heavy, |i, _| {
                    assert!(i != 237, "boom at {i}");
                    i
                })
            }));
            assert!(r.is_err(), "panic must propagate to the dispatcher");
            // The pool survives a panicked job and keeps working.
            assert_eq!(
                pool.parallel_map(&items[..100], heavy, |i, _| i),
                items[..100]
            );
        }
    }

    #[test]
    fn pool_drop_joins_workers() {
        let pool = WorkerPool::new(8);
        pool.parallel_map(&[0u8; 1000], heavy, |i, _| i * 2);
        drop(pool); // must not hang or leak (join happens here)
    }
}
