//! The deterministic parallel campaign engine.
//!
//! Every experiment in the §6 evaluation is independent by construction —
//! experiment `i` is a pure function of the campaign seed and `i` — which
//! is the embarrassingly-parallel shape Rio/Nooks-style fault-injection
//! studies scale by sharding seeds across workers. This module is the
//! zero-dependency sharding layer: `std::thread` workers claim experiment
//! indices from a shared counter, run them concurrently, and a single
//! merger hands the results to the caller **strictly in index order**.
//!
//! The ordering guarantee is the whole point: because the merger consumes
//! results exactly as the serial loop would have produced them, every
//! campaign output — classification counts, table rows, flight-annotation
//! merges, `--json` exports — is byte-identical to the serial run for the
//! same seed, regardless of job count or scheduling. The §6
//! discard-and-redraw rule (quiet experiments are discarded and more seeds
//! drawn) is handled by deterministic seed reservation: workers
//! over-provision by claiming indices past the eventual cutoff, and the
//! merger simply stops consuming once the first `N` effective experiments
//! have been seen in index order, ignoring any speculative results beyond
//! that prefix.
//!
//! Worker panics are campaign-safe: each experiment runs inside
//! [`ow_core::supervisor::contain`] (the PR-3 resurrection-supervisor
//! containment boundary), so a panicking experiment surfaces as that
//! index's `Err(message)` — which the campaign classifies like any other
//! outcome — instead of poisoning the channel or deadlocking the merger.
//!
//! The merger's reorder buffer is **bounded**: workers may not start an
//! experiment more than [`CLAIM_WINDOW_PER_JOB`]`× jobs` indices past the
//! merger's delivered watermark. Without the bound, one slow experiment at
//! the head lets every other worker race arbitrarily far ahead, and the
//! out-of-order `BTreeMap` grows with campaign length instead of job count
//! (each buffered Table 5 record carries its cause string and event
//! counts). Progress is deadlock-free by construction: the index the
//! merger wants next is always strictly inside every worker's window.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::Duration;

/// Per-worker claim-ahead allowance. The merger buffers at most
/// `jobs * CLAIM_WINDOW_PER_JOB` undelivered results, independent of
/// campaign length.
pub const CLAIM_WINDOW_PER_JOB: u64 = 4;

/// Resolves a requested job count: `0` means "auto", the machine's
/// available parallelism.
pub fn resolve_jobs(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    // ow-lint: allow(campaign-determinism) -- job count only affects work scheduling; the seed-ordered merger keeps output byte-identical for every value
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `run(0)`, `run(1)`, … across `jobs` worker threads, delivering
/// each result to `sink` **in index order**. `sink` returns `true` to keep
/// consuming; returning `false` stops the engine (workers quit after their
/// in-flight experiment). `limit` bounds the index space for fixed-size
/// campaigns; `None` leaves it open-ended, in which case `sink` must
/// eventually return `false`.
///
/// A panic inside `run` is contained and delivered as `Err(message)` for
/// that index; all other results arrive as `Ok`.
///
/// `jobs` is resolved through [`resolve_jobs`]; a resolved count of 1 runs
/// inline on the caller's thread through the very same
/// containment-and-deliver path, so serial and parallel runs are the same
/// computation by construction.
pub fn run_indexed<T, R, S>(jobs: usize, limit: Option<u64>, run: R, mut sink: S)
where
    T: Send,
    R: Fn(u64) -> T + Sync,
    S: FnMut(u64, Result<T, String>) -> bool,
{
    let jobs = resolve_jobs(jobs);
    let limit = limit.unwrap_or(u64::MAX);
    if jobs <= 1 {
        for i in 0..limit {
            if !sink(i, ow_core::supervisor::contain(|| run(i))) {
                return;
            }
        }
        return;
    }

    let next = AtomicU64::new(0);
    let delivered = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let gate = Mutex::new(());
    let resumed = Condvar::new();
    let window = jobs as u64 * CLAIM_WINDOW_PER_JOB;
    let (tx, rx) = mpsc::channel::<(u64, Result<T, String>)>();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let (next, stop, run) = (&next, &stop, &run);
            let (delivered, gate, resumed) = (&delivered, &gate, &resumed);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= limit {
                        break;
                    }
                    // High-water mark: don't start index `i` until the
                    // merger's watermark is within `window` of it, so the
                    // reorder buffer stays bounded. The timeout is a
                    // belt-and-braces wakeup; the merger notifies on every
                    // delivery and on stop.
                    while !stop.load(Ordering::Relaxed)
                        && i >= delivered.load(Ordering::Acquire).saturating_add(window)
                    {
                        let guard = gate.lock().unwrap();
                        if stop.load(Ordering::Relaxed)
                            || i < delivered.load(Ordering::Acquire).saturating_add(window)
                        {
                            break;
                        }
                        let _ = resumed
                            .wait_timeout(guard, Duration::from_millis(10))
                            .unwrap();
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let out = ow_core::supervisor::contain(|| run(i));
                    if tx.send((i, out)).is_err() {
                        break; // merger stopped consuming
                    }
                }
            });
        }
        drop(tx);

        // The merger: buffer out-of-order arrivals, release in index order,
        // and advance the watermark so throttled workers can resume.
        let mut pending: BTreeMap<u64, Result<T, String>> = BTreeMap::new();
        let mut want = 0u64;
        'merge: for (i, out) in rx.iter() {
            pending.insert(i, out);
            while let Some(out) = pending.remove(&want) {
                if !sink(want, out) {
                    stop.store(true, Ordering::Relaxed);
                    break 'merge;
                }
                want += 1;
            }
            delivered.store(want, Ordering::Release);
            let _guard = gate.lock().unwrap();
            resumed.notify_all();
        }
        // Wake any worker still throttled on the watermark (stop is set or
        // the channel drained); dropping the receiver unblocks any worker
        // mid-send; the scope then joins every worker before returning.
        let _guard = gate.lock().unwrap();
        resumed.notify_all();
        drop(_guard);
    });
}

/// Deterministic parallel map over a fixed item list: `f` runs on workers,
/// the returned vector is in item order, and a panic inside `f` yields
/// `Err(message)` for that slot.
pub fn parallel_map<I, T, F>(jobs: usize, items: &[I], f: F) -> Vec<Result<T, String>>
where
    I: Sync,
    T: Send,
    F: Fn(&I, usize) -> T + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    run_indexed(
        jobs,
        Some(items.len() as u64),
        |i| f(&items[i as usize], i as usize),
        |_, r| {
            out.push(r);
            true
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_index_order_under_any_job_count() {
        for jobs in [1, 2, 4, 7] {
            let mut seen = Vec::new();
            run_indexed(
                jobs,
                Some(50),
                |i| i * 3,
                |i, r| {
                    assert_eq!(r, Ok(i * 3));
                    seen.push(i);
                    true
                },
            );
            assert_eq!(seen, (0..50).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn early_stop_truncates_to_the_same_prefix() {
        for jobs in [1, 3, 8] {
            let mut sum = 0u64;
            run_indexed(
                jobs,
                None,
                |i| i,
                |_, r| {
                    sum += r.unwrap();
                    sum < 100
                },
            );
            // 0+1+..+14 = 105: the first prefix whose sum reaches 100.
            assert_eq!(sum, 105, "jobs={jobs}");
        }
    }

    #[test]
    fn worker_panics_surface_as_classified_errors() {
        for jobs in [1, 4] {
            let mut outs = Vec::new();
            run_indexed(
                jobs,
                Some(10),
                |i| {
                    assert!(i != 3 && i != 7, "seeded harness panic at {i}");
                    i
                },
                |_, r| {
                    outs.push(r);
                    true
                },
            );
            assert_eq!(outs.len(), 10, "jobs={jobs}");
            assert!(outs[3].is_err() && outs[7].is_err());
            assert_eq!(outs[5], Ok(5));
        }
    }

    #[test]
    fn claim_window_bounds_the_reorder_buffer() {
        // A slow experiment at index 0 pins the merger's watermark at 0;
        // the fast workers must not start anything at or past the claim
        // window, no matter how long the head stalls or how many indices
        // remain. (Before the watermark existed, they would race through
        // all 200 and the merger buffered 199 results.)
        let jobs = 4usize;
        let window = jobs as u64 * CLAIM_WINDOW_PER_JOB;
        let started = Mutex::new(Vec::<u64>::new());
        let mut seen = Vec::new();
        run_indexed(
            jobs,
            Some(200),
            |i| {
                started.lock().unwrap().push(i);
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(100));
                    let max = *started.lock().unwrap().iter().max().unwrap();
                    assert!(max < window, "started index {max} past the {window} window");
                }
                i
            },
            |i, r| {
                assert_eq!(r, Ok(i));
                seen.push(i);
                true
            },
        );
        // The throttle must not cost completeness or ordering.
        assert_eq!(seen, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_preserves_item_order() {
        let items: Vec<u64> = (0..30).collect();
        for jobs in [1, 5] {
            let out = parallel_map(jobs, &items, |&x, idx| x + idx as u64);
            let want: Vec<_> = items.iter().map(|&x| Ok(x * 2)).collect();
            assert_eq!(out, want, "jobs={jobs}");
        }
    }

    #[test]
    fn explicit_job_counts_resolve_to_themselves() {
        assert_eq!(resolve_jobs(3), 3);
        assert!(resolve_jobs(0) >= 1);
    }
}
