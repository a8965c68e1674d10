//! The **persistent parallel runtime** — a small, dependency-free pool of
//! long-lived worker threads for the one-time builds that shard cleanly.
//!
//! The runtime splits work where the measurements split it: *sharded
//! builds, sequential turns*. The registry's per-operator builds
//! ([`crate::plan`]) and `dap-core`'s deletion-context skeleton
//! flattening are large, uniform loops run once per registration, and
//! they shard over a [`ParPool`] when the input crosses the build grain.
//! Every per-turn path — the registry's delta push, each solve — runs
//! sequentially: a turn touches a handful of nodes or branches, and
//! dispatching them measured slower than running them inline. [`ParPool`]
//! provides exactly the helpers the builds need:
//!
//! * [`ParPool::par_ranges`] — contiguous sharding of an index space,
//!   results concatenated in range order (for uniform per-item work:
//!   scans, probes, bucket normalization);
//! * [`ParPool::par_indices`] — dynamic work-stealing over an index
//!   space, results restored to index order (for a few coarse shards:
//!   per-shard join hash tables);
//! * [`ParPool::par_map_owned`] — chunked mapping over an owned vector
//!   (bucket normalization without a clone).
//!
//! ## Persistent workers
//!
//! Earlier revisions spawned scoped threads **per call** — thread
//! spawn/join latency dominated the sharded work. The runtime instead
//! keeps a process-global set of detached helper threads that **park on a
//! condvar between calls**. A dispatching call publishes one `Job` —
//! an erased pointer to its claim loop plus item/entrant accounting —
//! enqueues up to `threads - 1` helper tickets, and then *always runs the
//! claim loop itself*: with every helper busy the caller drains all items
//! inline (so nested dispatches can never deadlock), and idle helpers that
//! pick the ticket up steal items from the shared atomic counter. The
//! caller returns only after every item is finished **and** every helper
//! has left the job, so borrowing the caller's stack from worker threads
//! is sound; tickets that outlive their job in the queue are rejected by
//! the job's closed bit without touching the stale pointer.
//!
//! [`ParPool`] itself stays a **copyable sharding policy** (how many ways
//! to split), not a handle to live threads: pools of any size share the
//! one process-wide worker set, which grows on demand up to the largest
//! requested size (capped at `MAX_HELPERS`) and is never torn down.
//!
//! ## Determinism
//!
//! Every helper writes each item's result into its own slot, so results
//! come back in the **same order the sequential loop would produce them**
//! regardless of which thread claimed what — parallel callers are
//! bit-identical to their sequential counterparts as long as the per-item
//! work is deterministic (all of ours is). A pool with one thread never
//! touches the worker set: each helper degrades to the exact sequential
//! loop, which is what the explicit-pool differential tests
//! (`tests/prop_layout.rs`, the registry's build test) compare against.
//!
//! ## Sizing
//!
//! The process-wide [`ParPool::global`] uses
//! [`std::thread::available_parallelism`]; whether a build actually
//! shards is decided per call from the input size and the grain, never
//! from a user option. Tests pass explicit pools ([`ParPool::new`]).
//!
//! ## Safety
//!
//! This is the one module in the crate that uses `unsafe` (the crate is
//! otherwise `#![deny(unsafe_code)]`): dispatch erases the lifetime of a
//! borrowed closure into a raw pointer so parked workers can run it. The
//! invariant making that sound is stated above and enforced by
//! `dispatch`'s two-phase wait: the pointee outlives every dereference
//! because the dispatching frame cannot return while items remain or any
//! worker is inside the job.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// Sharding policy for the parallel helpers: how many worker threads each
/// call may use. Copyable and stateless — see the module docs; the live
/// threads are process-global and shared by every pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParPool {
    threads: usize,
}

/// Fewest items per shard before a helper bothers going parallel: below
/// this the dispatch overhead dominates any conceivable per-item win.
const MIN_ITEMS_PER_SHARD: usize = 16;

/// Hard ceiling on persistent helper threads — a backstop against absurd
/// explicit pool sizes, far above any real hardware this serves on.
const MAX_HELPERS: usize = 96;

/// One parallel dispatch in flight. Workers and the dispatching caller
/// meet here: `work` points at the caller's claim loop, `remaining`
/// counts unfinished items, `state` packs the active-entrant count with a
/// closed bit, and the gate/condvar pair wakes the caller when either
/// reaches zero.
struct Job {
    /// Erased pointer to the dispatcher's claim loop. Only dereferenced
    /// between a successful `try_enter` and the matching `exit`; the
    /// dispatching frame waits for all entrants to leave before returning,
    /// so the pointee is alive for every dereference.
    work: *const (dyn Fn(&Job) + Sync),
    /// Items not yet finished.
    remaining: AtomicUsize,
    /// Low bits: threads currently inside `work`. High bit: closed — set
    /// by the dispatcher once all items are done; entry is refused after.
    state: AtomicUsize,
    poisoned: AtomicBool,
    gate: Mutex<()>,
    cv: Condvar,
}

/// SAFETY: `work` is only touched under the entrant protocol described on
/// the field; the pointee is `Sync`, so calling it from several threads at
/// once is fine. All other fields are `Send + Sync` already.
#[allow(unsafe_code)]
unsafe impl Send for Job {}
#[allow(unsafe_code)]
unsafe impl Sync for Job {}

const CLOSED: usize = 1 << (usize::BITS - 1);

impl Job {
    fn new(items: usize, work: *const (dyn Fn(&Job) + Sync)) -> Job {
        Job {
            work,
            remaining: AtomicUsize::new(items),
            state: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            gate: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Register as an entrant unless the job is already closed.
    fn try_enter(&self) -> bool {
        self.state
            .fetch_update(Ordering::Acquire, Ordering::Relaxed, |s| {
                if s & CLOSED != 0 {
                    None
                } else {
                    Some(s + 1)
                }
            })
            .is_ok()
    }

    /// Leave the job, waking the dispatcher when the last entrant is out.
    fn exit(&self) {
        let prev = self.state.fetch_sub(1, Ordering::Release);
        if prev & !CLOSED == 1 {
            let _g = self.gate.lock().expect("job gate");
            self.cv.notify_all();
        }
    }

    /// Mark one item finished, waking the dispatcher on the last one.
    fn item_done(&self) {
        if self.remaining.fetch_sub(1, Ordering::Release) == 1 {
            let _g = self.gate.lock().expect("job gate");
            self.cv.notify_all();
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Relaxed);
    }
}

/// The process-global persistent worker set: a ticket queue plus the
/// number of helper threads spawned so far. Helpers park on `cv` between
/// jobs; they are detached and live for the rest of the process.
struct WorkerSet {
    queue: Mutex<VecDeque<Arc<Job>>>,
    cv: Condvar,
    spawned: AtomicUsize,
}

fn workers() -> &'static WorkerSet {
    static WORKERS: OnceLock<WorkerSet> = OnceLock::new();
    WORKERS.get_or_init(|| WorkerSet {
        queue: Mutex::new(VecDeque::new()),
        cv: Condvar::new(),
        spawned: AtomicUsize::new(0),
    })
}

/// Grow the worker set to at least `want` helpers (capped). Lazy: the
/// first parallel dispatch pays the spawns once; afterwards workers are
/// parked and reused.
fn ensure_spawned(set: &'static WorkerSet, want: usize) {
    let want = want.min(MAX_HELPERS);
    loop {
        let cur = set.spawned.load(Ordering::Relaxed);
        if cur >= want {
            return;
        }
        if set
            .spawned
            .compare_exchange(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            continue;
        }
        let spawned = thread::Builder::new()
            .name(format!("dap-par-{cur}"))
            .spawn(move || helper_loop(set))
            .is_ok();
        if !spawned {
            // Could not spawn (resource limits): give the slot back and
            // run with fewer helpers — the dispatch protocol tolerates
            // helpers that never show up.
            set.spawned.fetch_sub(1, Ordering::Relaxed);
            return;
        }
    }
}

fn helper_loop(set: &'static WorkerSet) {
    loop {
        let job = {
            let mut q = set.queue.lock().expect("worker queue");
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                q = set.cv.wait(q).expect("worker queue");
            }
        };
        if job.try_enter() {
            let work = job.work;
            // SAFETY: `try_enter` succeeded, so the job is not closed and
            // the dispatching frame is still inside `dispatch`, keeping
            // the pointee alive until we `exit()` below (it waits for the
            // entrant count to drain after closing).
            #[allow(unsafe_code)]
            let work = unsafe { &*work };
            work(&job);
            job.exit();
        }
        // A ticket for an already-closed job is stale: drop it untouched.
    }
}

/// Publish `work` to up to `helpers` parked workers, run it inline, and
/// wait until all `items` are finished and every helper has left. Returns
/// whether any item panicked.
fn dispatch(helpers: usize, items: usize, work: &(dyn Fn(&Job) + Sync)) -> bool {
    // SAFETY (lifetime erasure): the raw pointer is dereferenced only by
    // entrants, and this frame does not return until the entrant count is
    // zero after closing — so every dereference happens while `work`'s
    // referent is alive. Stale queue tickets fail `try_enter` and never
    // touch the pointer.
    #[allow(unsafe_code)]
    let erased = unsafe {
        std::mem::transmute::<&(dyn Fn(&Job) + Sync), *const (dyn Fn(&Job) + Sync)>(work)
    };
    let job = Arc::new(Job::new(items, erased));
    if helpers > 0 {
        let set = workers();
        ensure_spawned(set, helpers);
        {
            let mut q = set.queue.lock().expect("worker queue");
            for _ in 0..helpers {
                q.push_back(job.clone());
            }
        }
        set.cv.notify_all();
    }
    // The dispatcher always participates: every item gets drained even if
    // no helper is free, and a nested dispatch can never deadlock.
    let entered = job.try_enter();
    debug_assert!(entered, "job cannot be closed before the dispatcher ran");
    work(&job);
    job.exit();
    {
        let mut g = job.gate.lock().expect("job gate");
        while job.remaining.load(Ordering::Acquire) != 0 {
            g = job.cv.wait(g).expect("job gate");
        }
        job.state.fetch_or(CLOSED, Ordering::AcqRel);
        while job.state.load(Ordering::Acquire) & !CLOSED != 0 {
            g = job.cv.wait(g).expect("job gate");
        }
    }
    job.poisoned.load(Ordering::Relaxed)
}

impl ParPool {
    /// A pool using exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> ParPool {
        ParPool {
            threads: threads.max(1),
        }
    }

    /// The single-threaded pool: every helper runs its exact sequential
    /// code path inline, never touching the worker set.
    pub fn sequential() -> ParPool {
        ParPool::new(1)
    }

    /// The process-wide default pool: one shard per hardware thread
    /// ([`std::thread::available_parallelism`]), resolved once.
    pub fn global() -> ParPool {
        static GLOBAL: OnceLock<ParPool> = OnceLock::new();
        *GLOBAL.get_or_init(|| {
            ParPool::new(
                thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            )
        })
    }

    /// Number of worker threads this pool shards across.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The core primitive behind every helper: run `f(i)` for every
    /// `i in 0..n` with **dynamic** scheduling over the persistent workers
    /// (an atomic work counter, so skewed per-item costs balance), each
    /// result written to its own slot — results in index order. Use
    /// directly for a few coarse shards; [`ParPool::par_ranges`] is
    /// cheaper for uniform per-row work.
    pub fn par_indices<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.threads == 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let work = |job: &Job| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(r) => *slots[i].lock().expect("result slot") = Some(r),
                Err(_) => job.poison(),
            }
            job.item_done();
        };
        let poisoned = dispatch(self.threads.min(n) - 1, n, &work);
        if poisoned {
            panic!("parallel worker panicked");
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot")
                    .expect("every index produced a result")
            })
            .collect()
    }

    /// Split `0..n` into contiguous ranges, run `f` on each range in
    /// parallel, and concatenate the per-range outputs **in range order**
    /// — exactly the output a single `f(0..n)` call would produce when `f`
    /// maps each index independently. `grain` is the minimum range length
    /// worth sharding; small inputs run inline as one range.
    pub fn par_ranges<R, F>(&self, n: usize, grain: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> Vec<R> + Sync,
    {
        let grain = grain.max(MIN_ITEMS_PER_SHARD);
        let shards = (n / grain).clamp(1, self.threads);
        if shards == 1 {
            return f(0..n);
        }
        let ranges: Vec<Range<usize>> = (0..shards)
            .map(|s| (s * n / shards)..((s + 1) * n / shards))
            .collect();
        let mut chunks: Vec<Vec<R>> = self.par_indices(shards, |s| f(ranges[s].clone()));
        let mut out = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
        for chunk in &mut chunks {
            out.append(chunk);
        }
        out
    }

    /// Map `f` over an owned vector, each worker owning a contiguous chunk
    /// (no clones), results in input order.
    pub fn par_map_owned<T, R, F>(&self, items: Vec<T>, grain: usize, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        let grain = grain.max(MIN_ITEMS_PER_SHARD);
        let shards = (n / grain).clamp(1, self.threads);
        if shards == 1 {
            return items.into_iter().map(f).collect();
        }
        // Split into owned chunks, front to back.
        let mut rest = items;
        let mut chunks: Vec<Mutex<Option<Vec<T>>>> = Vec::with_capacity(shards);
        for s in 0..shards {
            let remaining_shards = shards - s;
            let take = rest.len().div_ceil(remaining_shards);
            let tail = rest.split_off(take);
            chunks.push(Mutex::new(Some(std::mem::replace(&mut rest, tail))));
        }
        let mut mapped: Vec<Vec<R>> = self.par_indices(shards, |s| {
            let chunk = chunks[s].lock().expect("chunk slot").take();
            chunk
                .expect("each chunk is claimed exactly once")
                .into_iter()
                .map(&f)
                .collect()
        });
        let mut out = Vec::with_capacity(n);
        for chunk in &mut mapped {
            out.append(chunk);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_pool_never_shards() {
        let pool = ParPool::sequential();
        assert_eq!(pool.threads(), 1);
        let out = pool.par_ranges(100, 1, |r| r.map(|i| i * 2).collect());
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_ranges_matches_sequential_order() {
        for threads in [1, 2, 3, 8] {
            let pool = ParPool::new(threads);
            let out = pool.par_ranges(1000, 1, |r| r.map(|i| i + 1).collect());
            assert_eq!(out, (0..1000).map(|i| i + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_indices_restores_index_order() {
        for threads in [1, 2, 5] {
            let pool = ParPool::new(threads);
            let out = pool.par_indices(257, |i| i * i);
            assert_eq!(out, (0..257).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_and_owned_agree() {
        let items: Vec<usize> = (0..300).collect();
        for threads in [1, 2, 4] {
            let pool = ParPool::new(threads);
            let by_index = pool.par_indices(items.len(), |i| items[i] + 7);
            let by_val = pool.par_map_owned(items.clone(), 1, |i| i + 7);
            assert_eq!(by_index, by_val);
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(ParPool::new(0).threads(), 1);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let pool = ParPool::new(4);
        assert!(pool.par_indices(0, |i| i).is_empty());
        assert!(pool
            .par_ranges(0, 1, |r| r.collect::<Vec<usize>>())
            .is_empty());
        assert!(pool.par_map_owned(Vec::<u8>::new(), 1, |b| b).is_empty());
    }

    #[test]
    fn workers_are_reused_across_many_dispatches() {
        // Thousands of back-to-back dispatches on one pool: the persistent
        // set must serve them all without unbounded thread growth (the
        // spawn counter is monotone and capped).
        let pool = ParPool::new(4);
        for round in 0..2_000 {
            let out = pool.par_indices(8, |i| i + round);
            assert_eq!(out, (0..8).map(|i| i + round).collect::<Vec<_>>());
        }
        assert!(workers().spawned.load(Ordering::Relaxed) <= MAX_HELPERS);
    }

    #[test]
    fn nested_dispatches_complete() {
        // A parallel call whose items themselves dispatch in parallel:
        // the caller-participates rule makes this deadlock-free even when
        // every helper is busy.
        let pool = ParPool::new(4);
        let out = pool.par_indices(6, |i| {
            let inner = ParPool::new(2).par_indices(5, move |j| i * 10 + j);
            inner.into_iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..6)
            .map(|i| (0..5).map(|j| i * 10 + j).sum::<usize>())
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn panics_propagate_to_the_dispatcher() {
        let pool = ParPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_indices(64, |i| {
                if i == 33 {
                    panic!("boom");
                }
                i
            })
        }));
        assert!(result.is_err(), "dispatcher observes the worker panic");
        // The pool is still usable afterwards.
        let out = pool.par_indices(4, |i| i);
        assert_eq!(out, vec![0, 1, 2, 3]);
    }
}
