//! The work-stealing scope machinery behind [`map_indexed`].
//!
//! One [`map_indexed`] call = one `std::thread::scope` with `min(threads(),
//! n)` workers. Indices are block-distributed into per-worker deques;
//! workers pop their own queue from the front and steal from the back of a
//! victim's queue once theirs drains. Each worker accumulates `(index,
//! value)` pairs privately and the parent thread reassembles them into
//! input order, so scheduling never leaks into results.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Programmatic worker-count override; 0 means "not set".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True on threads spawned by a `par` scope — nested calls on such a
    /// thread run sequentially instead of spawning a second tier of
    /// workers.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Override the worker count for every subsequent parallel call in this
/// process (tests and probes use this to compare thread counts without
/// re-exec'ing). Panics if `n` is zero; clear with [`reset_threads`].
pub fn set_threads(n: usize) {
    assert!(n >= 1, "par::set_threads needs at least one thread");
    OVERRIDE.store(n, Ordering::Relaxed);
}

/// Clear a [`set_threads`] override, returning control to the
/// `AUTOML_EM_THREADS` environment variable / hardware default.
pub fn reset_threads() {
    OVERRIDE.store(0, Ordering::Relaxed);
}

/// The worker count parallel calls will use right now: the
/// [`set_threads`] override if present, else `AUTOML_EM_THREADS` (parsed,
/// ignored unless ≥ 1), else [`std::thread::available_parallelism`].
///
/// The override and the variable are read on every call; the hardware
/// value is read once per process, because `available_parallelism`
/// reads cgroup files on Linux and this runs on every parallel call.
pub fn threads() -> usize {
    let n = OVERRIDE.load(Ordering::Relaxed);
    if n >= 1 {
        return n;
    }
    if let Ok(s) = std::env::var("AUTOML_EM_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    *HARDWARE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Apply `f` to every index in `0..n` and return the results **in index
/// order**, splitting the work across [`threads`] scoped workers with
/// work stealing. Falls back to a plain sequential loop when one worker
/// (or one task) is all there is, or when called from inside another
/// `par` worker — so the output is identical for every thread count and
/// nesting never oversubscribes.
pub fn map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads().min(n);
    if workers <= 1 || IN_WORKER.with(Cell::get) {
        return (0..n).map(f).collect();
    }
    run_scope(n, workers, &f)
}

/// [`map_indexed`] over the elements of a slice: returns
/// `[f(&items[0]), …]` in input order.
pub fn map<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    map_indexed(items.len(), |i| f(&items[i]))
}

/// Run `f`, converting a panic into `Err` with the panic message.
///
/// This is the **trial boundary** the AutoML engines wrap around model
/// code before handing it to [`map_indexed`]: a panicking candidate fit
/// becomes an ordinary failed result on the worker instead of unwinding
/// through the pool (where it would abort the whole scope via
/// [`map_indexed`]'s propagation policy — see the crate docs). Counted in
/// the `par.caught_panics` metric.
pub fn catch_panic<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    // AssertUnwindSafe: callers only observe state through the returned
    // Result; a poisoned half-written value is dropped with the payload.
    match std::panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => {
            obs::counter("par.caught_panics").inc();
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_owned()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_owned()
            };
            Err(msg)
        }
    }
}

/// A fork/join scope for heterogeneous task sets that don't fit the
/// `map` shape (e.g. "encode these three splits concurrently"). Thin
/// wrapper over [`std::thread::scope`] that also counts the scope in the
/// `par.scopes` metric; spawned threads are plain scoped threads and are
/// *not* subject to the [`threads`] cap.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&'scope std::thread::Scope<'scope, 'env>) -> R,
{
    obs::counter("par.scopes").inc();
    std::thread::scope(f)
}

/// One work-stealing scope: seed the queues, run the workers, reassemble
/// results in index order.
fn run_scope<T, F>(n: usize, workers: usize, f: &F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // block distribution keeps initial locality (adjacent rows / trials
    // start on the same worker); stealing fixes any imbalance later.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w * n / workers..(w + 1) * n / workers).collect()))
        .collect();
    obs::counter("par.scopes").inc();
    obs::gauge("par.threads").set(workers as f64);

    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let (mut tasks, mut steals, mut busy_us) = (0u64, 0u64, 0u64);
    let scope_started = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let queues = &queues;
                s.spawn(move || worker_loop(w, queues, f))
            })
            .collect();
        for h in handles {
            let (pairs, st, busy) = match h.join() {
                Ok(out) => out,
                Err(panic) => std::panic::resume_unwind(panic),
            };
            tasks += pairs.len() as u64;
            steals += st;
            busy_us += busy;
            for (i, v) in pairs {
                slots[i] = Some(v);
            }
        }
    });
    obs::counter("par.tasks").add(tasks);
    obs::counter("par.steals").add(steals);
    obs::counter("par.busy_us").add(busy_us);
    // cost-ledger accounting under the pool's own scope: busy is the sum
    // of worker-thread lifetimes, idle is the wall the scope kept workers
    // reserved beyond that (threads that drained their queues early while
    // stragglers kept working), steal is an occurrence count. Workers
    // exit when all queues drain, so idle captures end-of-scope skew.
    let scope_ns = scope_started.elapsed().as_nanos() as u64;
    let busy_ns = busy_us * 1_000;
    let idle_ns = (scope_ns * workers as u64).saturating_sub(busy_ns);
    obs::ledger::add_scoped("par", "busy", busy_ns, tasks);
    obs::ledger::add_scoped("par", "idle", idle_ns, workers as u64);
    if steals > 0 {
        obs::ledger::add_scoped("par", "steal", 0, steals);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index was executed exactly once"))
        .collect()
}

/// Body of worker `w`: drain own queue from the front, then steal from
/// the back of the nearest non-empty victim; exit when every queue is
/// empty (no tasks are ever added after seeding, so empty-everywhere
/// means done). Returns the `(index, value)` pairs it computed plus its
/// steal count and busy time in microseconds.
fn worker_loop<T, F>(
    w: usize,
    queues: &[Mutex<VecDeque<usize>>],
    f: &F,
) -> (Vec<(usize, T)>, u64, u64)
where
    F: Fn(usize) -> T,
{
    IN_WORKER.with(|flag| flag.set(true));
    let started = Instant::now();
    let mut out = Vec::new();
    let mut steals = 0u64;
    loop {
        let mut next = queues[w].lock().expect("par worker queue").pop_front();
        if next.is_none() {
            for offset in 1..queues.len() {
                let victim = (w + offset) % queues.len();
                if let Some(i) = queues[victim].lock().expect("par victim queue").pop_back() {
                    steals += 1;
                    next = Some(i);
                    break;
                }
            }
        }
        match next {
            Some(i) => out.push((i, f(i))),
            None => break,
        }
    }
    (out, steals, started.elapsed().as_micros() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex as StdMutex;

    /// Tests in this module flip the global thread override, so they
    /// serialize on one lock.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: StdMutex<()> = StdMutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn ledger_books_busy_and_idle_under_par_scope() {
        let _g = guard();
        set_threads(4);
        let _ = map_indexed(64, |i| {
            std::thread::sleep(std::time::Duration::from_micros(50));
            i * 2
        });
        reset_threads();
        let snap = obs::ledger::ledger_snapshot();
        let busy = snap
            .iter()
            .find(|e| e.scope == "par" && e.phase == "busy")
            .expect("busy booked");
        assert!(busy.ns > 0 && busy.count >= 64);
        assert!(snap.iter().any(|e| e.scope == "par" && e.phase == "idle"));
    }

    #[test]
    fn results_are_in_input_order() {
        let _g = guard();
        set_threads(4);
        let out = map_indexed(257, |i| i * 3);
        reset_threads();
        assert_eq!(out.len(), 257);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn identical_across_thread_counts() {
        let _g = guard();
        let run = |threads: usize| {
            set_threads(threads);
            let out = map_indexed(100, |i| {
                // per-index deterministic pseudo-work
                let mut x = i as u64 + 1;
                for _ in 0..50 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                }
                x
            });
            reset_threads();
            out
        };
        assert_eq!(run(1), run(4));
        assert_eq!(run(4), run(7));
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let _g = guard();
        set_threads(8);
        let calls: Vec<AtomicU64> = (0..500).map(|_| AtomicU64::new(0)).collect();
        let _ = map_indexed(500, |i| calls[i].fetch_add(1, Ordering::Relaxed));
        reset_threads();
        assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let _g = guard();
        set_threads(4);
        let empty: Vec<usize> = map_indexed(0, |i| i);
        assert!(empty.is_empty());
        assert_eq!(map_indexed(1, |i| i + 9), vec![9]);
        reset_threads();
    }

    #[test]
    fn map_over_slice_borrows_items() {
        let _g = guard();
        set_threads(3);
        let words = ["a", "bb", "ccc", "dddd"];
        let lens = map(&words, |w| w.len());
        reset_threads();
        assert_eq!(lens, vec![1, 2, 3, 4]);
    }

    #[test]
    fn nested_calls_run_sequentially_not_exponentially() {
        let _g = guard();
        set_threads(4);
        // outer parallel, inner must fall back to sequential on the worker
        let out = map_indexed(8, |i| map_indexed(8, move |j| i * 8 + j).len());
        reset_threads();
        assert_eq!(out, vec![8; 8]);
    }

    #[test]
    fn steal_counter_is_monotone_and_tasks_counted() {
        let _g = guard();
        let tasks_before = obs::counter("par.tasks").get();
        let steals_before = obs::counter("par.steals").get();
        set_threads(4);
        // skewed workload: the first block is much heavier, so idle
        // workers have something to steal
        let _ = map_indexed(64, |i| {
            let spins = if i < 16 { 40_000 } else { 10 };
            let mut x = i as u64;
            for _ in 0..spins {
                x = x.wrapping_mul(31).wrapping_add(7);
            }
            x
        });
        reset_threads();
        assert!(obs::counter("par.tasks").get() >= tasks_before + 64);
        assert!(obs::counter("par.steals").get() >= steals_before);
    }

    #[test]
    #[should_panic(expected = "task 3 exploded")]
    fn worker_panics_propagate_to_caller() {
        let _g = guard();
        set_threads(2);
        let result = std::panic::catch_unwind(|| {
            map_indexed(8, |i| {
                assert!(i != 3, "task 3 exploded");
                i
            })
        });
        reset_threads();
        match result {
            Ok(_) => panic!("panic did not propagate"),
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    #[test]
    fn catch_panic_returns_payload_message() {
        assert_eq!(catch_panic(|| 42).unwrap(), 42);
        let err = catch_panic(|| panic!("boom {}", 7)).unwrap_err();
        assert!(err.contains("boom 7"), "{err}");
        // &'static str payloads are captured too
        let err = catch_panic(|| std::panic::panic_any("static payload")).unwrap_err();
        assert_eq!(err, "static payload");
        // non-string payloads degrade gracefully
        let err = catch_panic(|| std::panic::panic_any(3usize)).unwrap_err();
        assert!(err.contains("non-string"));
    }

    #[test]
    fn catch_panic_inside_workers_keeps_scope_alive() {
        let _g = guard();
        set_threads(4);
        let out = map_indexed(16, |i| {
            catch_panic(move || {
                assert!(i != 5, "task {i} exploded");
                i * 2
            })
        });
        reset_threads();
        assert_eq!(out.len(), 16);
        for (i, r) in out.iter().enumerate() {
            if i == 5 {
                assert!(r.as_ref().unwrap_err().contains("task 5 exploded"));
            } else {
                assert_eq!(*r.as_ref().unwrap(), i * 2);
            }
        }
    }

    #[test]
    fn scope_runs_heterogeneous_tasks() {
        let a = AtomicU64::new(0);
        let b = AtomicU64::new(0);
        scope(|s| {
            s.spawn(|| a.store(1, Ordering::Relaxed));
            s.spawn(|| b.store(2, Ordering::Relaxed));
        });
        assert_eq!(a.load(Ordering::Relaxed), 1);
        assert_eq!(b.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn override_beats_env_and_reset_restores() {
        let _g = guard();
        set_threads(3);
        assert_eq!(threads(), 3);
        reset_threads();
        assert!(threads() >= 1);
    }

    #[test]
    fn cached_hardware_value_still_yields_to_override_and_env() {
        let _g = guard();
        let hardware = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let env = std::env::var("AUTOML_EM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1);
        let expected = env.unwrap_or(hardware);
        // the first call fills the cache; later calls must not freeze it
        // over the override or the environment
        assert_eq!(threads(), expected);
        set_threads(3);
        assert_eq!(threads(), 3);
        reset_threads();
        assert_eq!(threads(), expected);
    }
}
