//! A zero-dependency scoped worker pool for experiment fan-out.
//!
//! The paper's evaluation replays dozens of independent
//! (system × seed × fault-rate × load) simulation cells; each cell owns
//! its configuration and its [`crate::SimRng`] streams, so cells can run
//! on separate cores with **no change in output**. [`scoped_map`] is the
//! fan-out primitive the experiment drivers use, and [`fan_out`] (built
//! on it) is the sharded engine's:
//!
//! * **Order-preserving:** output `i` is `f(items[i])` regardless of
//!   which worker ran it or when it finished, so parallel results are
//!   bit-for-bit identical to a serial `items.into_iter().map(f)`.
//! * **Panic-propagating:** if `f` panics on an item, the pool joins all
//!   workers and re-panics in the caller with the *failing item's
//!   index* and the original message.
//! * **Bounded:** workers default to [`std::thread::available_parallelism`],
//!   overridable with the `MUDI_THREADS` environment variable
//!   (`MUDI_THREADS=1` forces serial execution in the calling thread).
//!
//! Built on [`std::thread::scope`], so `f` may borrow from the caller's
//! stack and no `'static` bounds are required.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The worker cap: `MUDI_THREADS` if set to a positive integer,
/// otherwise [`std::thread::available_parallelism`] (1 if unknown).
pub fn max_workers() -> usize {
    if let Some(n) = crate::env::parse::<usize>("MUDI_THREADS").filter(|&n| n >= 1) {
        return n;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to [`max_workers`] worker threads,
/// returning outputs in input order. See the module docs for the
/// determinism and panic contracts.
pub fn scoped_map<I, O, F>(items: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    scoped_map_workers(items, max_workers(), f)
}

/// [`scoped_map`] with an explicit worker count (tests pin 1/2/8 here
/// without touching the process environment). `workers` is clamped to
/// `[1, items.len()]`; `workers == 1` runs in the calling thread. With
/// more, the calling thread is one of the workers: it spawns
/// `workers - 1` threads and runs the same claim loop they do.
pub fn scoped_map_workers<I, O, F>(items: Vec<I>, workers: usize, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        // Serial fast path: same panic labelling, no thread machinery.
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| run_labelled(&f, i, item))
            .collect();
    }

    // Work distribution: an atomic cursor hands each index to exactly
    // one worker; item `i` is taken from slot `i` and its output lands
    // in slot `i`, so ordering is positional, never temporal. The
    // per-slot mutexes are uncontended (each is touched by one worker).
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let out: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let failure: Mutex<Option<(usize, String)>> = Mutex::new(None);
    // The claim loop every worker runs, the calling thread included. A
    // panic is caught inside it, so the caller's share reports like any
    // other and the scope still joins every spawned worker.
    let claim = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let item = slots[i]
            .lock()
            .expect("item slot lock")
            .take()
            .expect("each index is claimed exactly once");
        match catch_unwind(AssertUnwindSafe(|| f(item))) {
            Ok(o) => *out[i].lock().expect("output slot lock") = Some(o),
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                let mut slot = failure.lock().expect("failure slot lock");
                // Keep the lowest-index failure so the caller sees a
                // stable report when several race.
                if slot.as_ref().is_none_or(|&(j, _)| i < j) {
                    *slot = Some((i, msg));
                }
                // Stop handing out further work.
                cursor.store(n, Ordering::Relaxed);
                break;
            }
        }
    };

    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(claim);
        }
        claim();
    });

    if let Some((i, msg)) = failure.into_inner().expect("failure slot") {
        panic!("scoped_map: item {i} panicked: {msg}");
    }
    out.into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("output slot")
                .expect("every index ran to completion")
        })
        .collect()
}

/// Runs `f` on every part and hands the results to `fold` in part
/// order — the sharded engine's one fan-out primitive (the lane phase
/// and the chunked device scans of the serial phase).
///
/// * **One path at every worker count:** `fold` sees the results in
///   part order whichever worker produced them, so the outcome does not
///   depend on `workers`; only wall-clock time does.
/// * **Disjoint by construction:** each part (typically a `&mut` slice
///   of shard state, which may hold `!Sync` memos) moves to exactly one
///   worker.
/// * **Serial fast path:** one worker or one part runs in the calling
///   thread with no thread machinery and no allocation — the 1-worker
///   engine keeps its zero-allocation steady state.
/// * Otherwise the parts run on [`scoped_map_workers`], which allocates
///   O(parts) slots and spawns `workers - 1` threads **per call** (the
///   calling thread works the last share); callers amortize this by
///   batching meaningful work per call.
///
/// A panicking part re-panics in the caller labelled with its index,
/// at every worker count.
pub fn fan_out<I, R, F, G>(parts: I, workers: usize, f: F, mut fold: G)
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
    I::Item: Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
    G: FnMut(R),
{
    let parts = parts.into_iter();
    if workers <= 1 || parts.len() <= 1 {
        for (i, part) in parts.enumerate() {
            fold(run_labelled(&f, i, part));
        }
        return;
    }
    for r in scoped_map_workers(parts.collect(), workers, f) {
        fold(r);
    }
}

/// Runs one item serially, relabelling a panic with the item index to
/// match the threaded path's contract.
fn run_labelled<I, O, F>(f: &F, i: usize, item: I) -> O
where
    F: Fn(I) -> O,
{
    match catch_unwind(AssertUnwindSafe(|| f(item))) {
        Ok(o) => o,
        Err(payload) => {
            panic!(
                "scoped_map: item {i} panicked: {}",
                panic_message(payload.as_ref())
            )
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = scoped_map_workers(items.clone(), 8, |x| x * x);
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = scoped_map_workers(Vec::<u32>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_items() {
        let out = scoped_map_workers(vec![1u32, 2, 3], 64, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn borrows_from_caller_stack() {
        let base = 10u64;
        let out = scoped_map_workers((0..5u64).collect(), 2, |x| x + base);
        assert_eq!(out, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn matches_serial_map_for_every_worker_count() {
        let items: Vec<u64> = (0..17).collect();
        let expect: Vec<u64> = items.iter().map(|x| x.wrapping_mul(0x9e37) ^ 7).collect();
        for workers in [1, 2, 3, 8, 32] {
            let got = scoped_map_workers(items.clone(), workers, |x| x.wrapping_mul(0x9e37) ^ 7);
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn max_workers_is_at_least_one() {
        assert!(max_workers() >= 1);
    }

    #[test]
    fn fan_out_folds_in_part_order_at_every_worker_count() {
        for workers in [1, 2, 3, 8] {
            let mut work: Vec<u64> = (0..7).collect();
            let mut seen = Vec::new();
            fan_out(
                work.iter_mut().enumerate(),
                workers,
                |(i, w)| {
                    *w = w.wrapping_mul(3) + i as u64;
                    i
                },
                |i| seen.push(i),
            );
            let expect: Vec<u64> = (0..7u64).map(|i| i.wrapping_mul(3) + i).collect();
            assert_eq!(work, expect, "workers={workers}");
            assert_eq!(seen, (0..7).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn fan_out_is_a_barrier() {
        // Every part's effect is visible when the call returns.
        let mut work = vec![0u64; 32];
        fan_out(
            work.chunks_mut(3).enumerate(),
            8,
            |(i, c)| c.fill(i as u64 + 1),
            |()| {},
        );
        assert!(work
            .iter()
            .enumerate()
            .all(|(i, &w)| w == (i / 3) as u64 + 1));
    }

    #[test]
    fn fan_out_labels_the_panicking_part() {
        for workers in [1, 4] {
            let err = std::panic::catch_unwind(|| {
                fan_out(
                    0..6usize,
                    workers,
                    |i| {
                        if i == 3 {
                            panic!("boom");
                        }
                    },
                    |()| {},
                );
            })
            .unwrap_err();
            let msg = panic_message(err.as_ref());
            assert!(
                msg.contains("item 3") && msg.contains("boom"),
                "workers={workers}: {msg}"
            );
        }
    }

    #[test]
    fn caller_runs_a_share_and_order_is_positional() {
        // As many items as workers, each waiting at a barrier until every
        // worker holds one: each worker, the calling thread included,
        // runs exactly one item.
        for workers in [2, 3, 8] {
            let caller = std::thread::current().id();
            let barrier = std::sync::Barrier::new(workers);
            let callers_share = Mutex::new(0);
            let out = scoped_map_workers((0..workers).collect(), workers, |i| {
                barrier.wait();
                if std::thread::current().id() == caller {
                    *callers_share.lock().unwrap() += 1;
                }
                i * 10
            });
            let want: Vec<usize> = (0..workers).map(|i| i * 10).collect();
            assert_eq!(out, want, "workers={workers}");
            assert_eq!(callers_share.into_inner().unwrap(), 1, "workers={workers}");
        }
        // More items than workers: outputs stay positional.
        for workers in [2, 3, 8] {
            let items: Vec<u64> = (0..41).collect();
            let out = scoped_map_workers(items.clone(), workers, |x| {
                // Early items take longest, so they finish last.
                std::thread::sleep(std::time::Duration::from_micros(200 / (x + 1)));
                x * 3
            });
            let want: Vec<u64> = items.iter().map(|x| x * 3).collect();
            assert_eq!(out, want, "workers={workers}");
        }
    }

    #[test]
    fn panic_in_the_callers_share_is_labelled() {
        for workers in [2, 3, 8] {
            let caught = Mutex::new(None);
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let caller = std::thread::current().id();
                let barrier = std::sync::Barrier::new(workers);
                scoped_map_workers((0..workers).collect(), workers, |i: usize| {
                    barrier.wait();
                    if std::thread::current().id() == caller {
                        *caught.lock().unwrap() = Some(i);
                        panic!("caller share failed");
                    }
                })
            }))
            .unwrap_err();
            let i = caught
                .into_inner()
                .unwrap()
                .expect("the caller ran a share");
            let msg = panic_message(err.as_ref());
            assert!(
                msg.contains(&format!("item {i} panicked")) && msg.contains("caller share failed"),
                "workers={workers}: {msg}"
            );
        }
    }

    #[test]
    fn fan_out_over_no_parts_is_a_no_op() {
        fan_out(
            Vec::<u32>::new(),
            4,
            |_| -> u32 { unreachable!() },
            |_| unreachable!(),
        );
    }
}
