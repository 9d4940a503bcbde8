//! Scoped thread pool and deterministic data-parallel primitives.
//!
//! The interactive loop re-fits the background distribution, re-samples
//! surrogate datasets and re-runs projection pursuit between every feedback
//! round. Those hot paths decompose into embarrassingly parallel per-class
//! and per-row work, but the workspace builds offline with zero external
//! dependencies, so this crate provides the missing piece: a small,
//! std-only [`ThreadPool`] with the data-parallel operations the rest of
//! the stack needs ([`ThreadPool::par_map`], [`ThreadPool::par_chunks_mut`],
//! [`ThreadPool::map_reduce`]).
//!
//! # Determinism contract
//!
//! Every primitive is **bit-identical at any thread count**:
//!
//! * `par_map` / `par_chunks_mut` assign each result to
//!   a fixed slot keyed by item index — scheduling can reorder *execution*
//!   but never *placement*;
//! * [`ThreadPool::map_reduce`] carves the index space into chunks whose
//!   boundaries depend only on the caller-supplied chunk length (never on
//!   the thread count) and folds the per-chunk results **in chunk order**
//!   on the calling thread, so floating-point accumulation order is fixed.
//!
//! Callers layer their own determinism on top (e.g. per-row counter-seeded
//! RNG substreams for sampling) so that `SIDER_THREADS=1` and
//! `SIDER_THREADS=64` produce the same bytes.
//!
//! # Pool model
//!
//! [`ThreadPool::new(k)`](ThreadPool::new) spawns `k − 1` persistent
//! workers parked on a condvar; the dispatching thread always participates
//! as the `k`-th executor, so a pool of size 1 spawns nothing and runs
//! everything inline (making the serial pool literally the serial code
//! path). Worker threads never outlive a dispatch: [`ThreadPool::run`]
//! blocks until every worker has finished the current job, which is what
//! makes it safe to hand workers closures borrowing the caller's stack
//! (a *scoped* pool). Nested dispatch from inside a worker runs inline,
//! so library code can parallelize unconditionally without deadlocking.
//!
//! Pool size comes from the `SIDER_THREADS` environment variable
//! ([`ThreadPool::from_env`]), defaulting to the machine's available
//! parallelism.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;

/// Environment variable controlling the default pool size.
pub const THREADS_ENV_VAR: &str = "SIDER_THREADS";

/// Upper bound on the pool size (a guard against typos like
/// `SIDER_THREADS=10000`, not a tuning parameter).
const MAX_THREADS: usize = 256;

/// Below this many estimated flops, [`ThreadPool::gated`] judges the
/// condvar wake/join handshake more expensive than the arithmetic and
/// routes the call to the shared serial pool.
const DISPATCH_MIN_FLOPS: usize = 1 << 17;

/// The process-wide serial pool handed out by [`ThreadPool::gated`]
/// (no workers, so every operation runs inline on the caller).
fn serial_singleton() -> &'static ThreadPool {
    static SERIAL: std::sync::OnceLock<ThreadPool> = std::sync::OnceLock::new();
    SERIAL.get_or_init(ThreadPool::serial)
}

thread_local! {
    /// Set while the current thread executes inside a pool job; nested
    /// dispatch runs inline instead of deadlocking on the job slot.
    static IN_POOL_JOB: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Type-erased pointer to the job closure of the active dispatch. Only
/// dereferenced between job publication and the completion handshake, while
/// [`ThreadPool::run`] keeps the referent alive on the dispatcher's stack.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn() + Sync));

// SAFETY: the pointee is `Sync` (shared execution is the whole point) and
// `run` blocks until every worker is done with the pointer, so sending the
// pointer to worker threads never outlives the borrow it was cast from.
unsafe impl Send for JobPtr {}

/// State shared between the dispatcher and the workers.
struct PoolState {
    /// Monotonic job counter; workers run one job per increment.
    epoch: u64,
    /// The active job, if any.
    job: Option<JobPtr>,
    /// Workers still executing the active job.
    active: usize,
    /// Set by [`ThreadPool::drop`]; workers exit their loop.
    shutdown: bool,
    /// A worker panicked while executing the active job.
    worker_panicked: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers wait here for a new epoch.
    work_ready: Condvar,
    /// The dispatcher waits here for `active == 0`.
    job_done: Condvar,
}

/// A scoped thread pool of fixed size.
///
/// See the crate docs for the execution and determinism model. The pool is
/// `Send + Sync`; sessions typically hold it in an `Arc` and thread a
/// reference through fit → sample → project.
pub struct ThreadPool {
    shared: std::sync::Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Serializes dispatches from different threads onto the single job slot.
    dispatch: Mutex<()>,
    threads: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ThreadPool {
    /// Pool executing on `threads` threads total (the dispatcher counts as
    /// one, so `threads − 1` workers are spawned; `0` is clamped to `1`).
    pub fn new(threads: usize) -> Self {
        let threads = threads.clamp(1, MAX_THREADS);
        let shared = std::sync::Arc::new(Shared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                active: 0,
                shutdown: false,
                worker_panicked: false,
            }),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|k| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sider-par-{k}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            dispatch: Mutex::new(()),
            threads,
        }
    }

    /// Pool sized from the `SIDER_THREADS` environment variable, falling
    /// back to the machine's available parallelism (≥ 1).
    pub fn from_env() -> Self {
        Self::new(threads_from_env())
    }

    /// The single-threaded pool: no workers, every operation runs inline on
    /// the caller. Constructing one is cheap (no threads are spawned), and
    /// by the determinism contract it produces exactly the same results as
    /// any larger pool.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Total execution threads (dispatcher included).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Dispatch-or-inline gate: returns `self` when `estimated_flops` of
    /// arithmetic is large enough to amortize the all-worker wake/join
    /// handshake, and the shared serial pool (inline execution, zero
    /// dispatch cost) otherwise. By the determinism contract the results
    /// are identical either way — this only decides who does the work, so
    /// hot paths can call it unconditionally:
    ///
    /// ```
    /// # use sider_par::ThreadPool;
    /// # let pool = ThreadPool::new(4);
    /// # let (n, d) = (100usize, 5usize);
    /// let pool = pool.gated(n * d * d); // tiny → runs inline
    /// ```
    pub fn gated(&self, estimated_flops: usize) -> &ThreadPool {
        if self.workers.is_empty() || estimated_flops < DISPATCH_MIN_FLOPS {
            serial_singleton()
        } else {
            self
        }
    }

    /// Execute `job` once on every pool thread simultaneously (the
    /// dispatcher included) and return when all of them finish. `job`
    /// typically claims work items off a shared atomic counter.
    ///
    /// Runs inline when the pool is serial or when called from inside a
    /// pool job (nested dispatch).
    pub fn run(&self, job: &(dyn Fn() + Sync)) {
        if self.workers.is_empty() || IN_POOL_JOB.with(|f| f.get()) {
            job();
            return;
        }
        let _dispatch = lock_ignoring_poison(&self.dispatch);
        // SAFETY: the lifetime is erased only for the duration of this
        // dispatch — `run` waits for `active == 0` and clears the slot
        // before returning, so no worker can observe the pointer after the
        // borrow ends.
        let job_static: &'static (dyn Fn() + Sync) = unsafe { std::mem::transmute(job) };
        {
            let mut st = lock_ignoring_poison(&self.shared.state);
            st.job = Some(JobPtr(job_static as *const _));
            st.epoch += 1;
            st.active = self.workers.len();
            st.worker_panicked = false;
        }
        self.shared.work_ready.notify_all();

        // The dispatcher participates; a panic here must still wait for the
        // workers (they hold the job pointer) before unwinding. The
        // in-job marker makes nested dispatch from inside `job` run inline
        // (the dispatch mutex is not reentrant).
        IN_POOL_JOB.with(|f| f.set(true));
        let caller_result = catch_unwind(AssertUnwindSafe(job));
        IN_POOL_JOB.with(|f| f.set(false));

        let worker_panicked = {
            let mut st = lock_ignoring_poison(&self.shared.state);
            while st.active > 0 {
                st = self
                    .shared
                    .job_done
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            st.job = None;
            st.worker_panicked
        };
        if let Err(payload) = caller_result {
            resume_unwind(payload);
        }
        assert!(!worker_panicked, "a pool worker panicked during the job");
    }

    /// Map `f` over `items`, returning results in item order regardless of
    /// scheduling.
    pub fn par_map<T: Sync, R: Send>(&self, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let chunk = default_chunk(n, self.threads);
        // One chunk of work cannot be split: skip the dispatch handshake.
        if self.workers.is_empty() || n <= chunk {
            return items.iter().map(&f).collect();
        }
        let slots: Vec<Mutex<Vec<R>>> = items
            .chunks(chunk)
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        let next = AtomicUsize::new(0);
        self.run(&|| loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= slots.len() {
                break;
            }
            let start = k * chunk;
            let produced: Vec<R> = items[start..(start + chunk).min(n)]
                .iter()
                .map(&f)
                .collect();
            *slots[k].lock().unwrap() = produced;
        });
        let mut out = Vec::with_capacity(n);
        for slot in slots {
            out.extend(slot.into_inner().unwrap());
        }
        out
    }

    /// Split `data` into consecutive chunks of `chunk_len` elements (the
    /// last one may be shorter) and apply `f(chunk_index, chunk)` to each in
    /// parallel. Chunk boundaries depend only on `chunk_len`, so writes land
    /// at thread-count-independent positions.
    pub fn par_chunks_mut<T: Send>(
        &self,
        data: &mut [T],
        chunk_len: usize,
        f: impl Fn(usize, &mut [T]) + Sync,
    ) {
        assert!(chunk_len > 0, "par_chunks_mut: chunk_len must be positive");
        if data.is_empty() {
            return;
        }
        // One chunk of work cannot be split: skip the dispatch handshake.
        if self.workers.is_empty() || data.len() <= chunk_len {
            for (k, chunk) in data.chunks_mut(chunk_len).enumerate() {
                f(k, chunk);
            }
            return;
        }
        // Pre-split into disjoint borrows so workers need no unsafe access:
        // each chunk sits behind its own (uncontended) mutex.
        let chunks: Vec<Mutex<&mut [T]>> = data.chunks_mut(chunk_len).map(Mutex::new).collect();
        let next = AtomicUsize::new(0);
        self.run(&|| loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= chunks.len() {
                break;
            }
            f(k, &mut chunks[k].lock().unwrap());
        });
    }

    /// Deterministic indexed map-reduce: the index space `0..n` is carved
    /// into chunks of `chunk_len` (boundaries independent of the thread
    /// count), `map` produces one value per chunk range in parallel, and
    /// the values are folded with `reduce` **in chunk order** on the
    /// calling thread — so floating-point reductions are bit-identical at
    /// any pool size. Returns `None` when `n == 0`.
    pub fn map_reduce<R: Send>(
        &self,
        n: usize,
        chunk_len: usize,
        map: impl Fn(std::ops::Range<usize>) -> R + Sync,
        mut reduce: impl FnMut(R, R) -> R,
    ) -> Option<R> {
        assert!(chunk_len > 0, "map_reduce: chunk_len must be positive");
        if n == 0 {
            return None;
        }
        let ranges: Vec<std::ops::Range<usize>> = (0..n)
            .step_by(chunk_len)
            .map(|start| start..(start + chunk_len).min(n))
            .collect();
        let partials = self.par_map(&ranges, |r| map(r.clone()));
        let mut iter = partials.into_iter();
        let first = iter.next()?;
        Some(iter.fold(first, &mut reduce))
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = lock_ignoring_poison(&self.shared.state);
            st.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = lock_ignoring_poison(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                match st.job {
                    Some(job) if st.epoch != seen_epoch => {
                        seen_epoch = st.epoch;
                        break job;
                    }
                    _ => {}
                }
                st = shared
                    .work_ready
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        IN_POOL_JOB.with(|f| f.set(true));
        // SAFETY: `run` keeps the closure alive until `active` drops to 0,
        // which only happens after this call returns.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)() }));
        IN_POOL_JOB.with(|f| f.set(false));
        let mut st = lock_ignoring_poison(&shared.state);
        if result.is_err() {
            st.worker_panicked = true;
        }
        st.active -= 1;
        if st.active == 0 {
            shared.job_done.notify_one();
        }
    }
}

/// Lock a mutex, ignoring poisoning: pool state transitions are panic-safe
/// (worker panics are caught and counted; `active` is decremented on every
/// path), so a poisoned lock only records that some job panicked earlier —
/// which `run` already reports separately.
fn lock_ignoring_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Pool size from `SIDER_THREADS`, defaulting to available parallelism.
/// Unparsable or zero values fall back to the default.
pub fn threads_from_env() -> usize {
    let default = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    match std::env::var(THREADS_ENV_VAR) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n.min(MAX_THREADS),
            _ => default,
        },
        Err(_) => default,
    }
}

/// Work-claiming granularity: a few chunks per thread for load balance,
/// never below one item.
fn default_chunk(n: usize, threads: usize) -> usize {
    n.div_ceil(threads.max(1) * 4).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_pool_spawns_no_workers_and_runs_inline() {
        let pool = ThreadPool::serial();
        assert_eq!(pool.threads(), 1);
        let caller = std::thread::current().id();
        let mut seen = None;
        pool.run(&|| {
            // Single closure invocation, on the calling thread.
        });
        let ran_on = Mutex::new(Vec::new());
        pool.par_map(&[(); 3], |_| {
            ran_on.lock().unwrap().push(std::thread::current().id());
        });
        pool.par_chunks_mut(&mut [0u8; 4][..], 2, |_, _| {
            ran_on.lock().unwrap().push(std::thread::current().id());
        });
        for id in ran_on.into_inner().unwrap() {
            seen = Some(id);
            assert_eq!(id, caller);
        }
        assert!(seen.is_some());
    }

    #[test]
    fn par_map_preserves_order() {
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let items: Vec<u64> = (0..1000).collect();
            let out = pool.par_map(&items, |&x| x * 3 + 1);
            assert_eq!(out, items.iter().map(|&x| x * 3 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_chunks_mut_writes_disjoint_chunks() {
        let pool = ThreadPool::new(3);
        let mut data = vec![0usize; 103];
        pool.par_chunks_mut(&mut data, 10, |k, chunk| {
            for (off, v) in chunk.iter_mut().enumerate() {
                *v = k * 10 + off;
            }
        });
        assert_eq!(data, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn map_reduce_is_bit_identical_across_thread_counts() {
        // Values chosen so that summation order visibly matters in f64.
        let xs: Vec<f64> = (0..10_000)
            .map(|i| ((i * 2654435761u64 as usize) % 1000) as f64 * 1e-3 + 1e12 * ((i % 7) as f64))
            .collect();
        let sum_with = |threads: usize| {
            let pool = ThreadPool::new(threads);
            pool.map_reduce(
                xs.len(),
                64,
                |r| r.map(|i| xs[i]).sum::<f64>(),
                |a, b| a + b,
            )
            .unwrap()
        };
        let s1 = sum_with(1);
        assert_eq!(s1.to_bits(), sum_with(2).to_bits());
        assert_eq!(s1.to_bits(), sum_with(5).to_bits());
    }

    #[test]
    fn map_reduce_empty_is_none() {
        let pool = ThreadPool::new(2);
        assert!(pool.map_reduce(0, 8, |_| 0.0f64, |a, b| a + b).is_none());
    }

    #[test]
    fn nested_dispatch_runs_inline_without_deadlock() {
        let pool = ThreadPool::new(4);
        let items: Vec<u64> = (0..8).collect();
        // Nested use of the same pool from inside a job.
        let sums = pool.par_map(&items, |_| pool.par_map(&items, |&x| x).iter().sum::<u64>());
        assert_eq!(sums, vec![28; 8]);
    }

    #[test]
    fn pool_survives_many_dispatches() {
        let pool = ThreadPool::new(3);
        for round in 0..200 {
            let items: Vec<usize> = (0..round % 17).collect();
            let out = pool.par_map(&items, |&x| x + 1);
            assert_eq!(out.len(), items.len());
        }
    }

    #[test]
    fn threads_from_env_parses_and_falls_back() {
        // NOTE: env mutation is process-global; this is the only test that
        // touches SIDER_THREADS.
        std::env::set_var(THREADS_ENV_VAR, "3");
        assert_eq!(threads_from_env(), 3);
        std::env::set_var(THREADS_ENV_VAR, "not-a-number");
        let fallback = threads_from_env();
        assert!(fallback >= 1);
        std::env::set_var(THREADS_ENV_VAR, "0");
        assert_eq!(threads_from_env(), fallback);
        std::env::remove_var(THREADS_ENV_VAR);
        assert_eq!(threads_from_env(), fallback);
        let pool = ThreadPool::from_env();
        assert!(pool.threads() >= 1);
    }

    #[test]
    fn worker_panic_is_reported() {
        let pool = ThreadPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let items: Vec<usize> = (0..64).collect();
            pool.par_map(&items, |&i| {
                if i == 63 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool stays usable after a panicked job.
        let out = pool.par_map(&[1, 2, 3], |&x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }
}
