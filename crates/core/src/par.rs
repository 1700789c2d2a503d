//! A minimal work-stealing-free thread pool built on scoped threads.
//!
//! The sweeps in `rms-bench` and the `rms bench` subcommand fan out one
//! task per (benchmark, configuration) pair, and the windowed rewrite
//! round of the cut engine fans out one task per graph window. Tasks are
//! independent and deterministic, so a shared atomic cursor over the
//! item slice is enough: results are written back in input order, which
//! makes the parallel sweep bit-identical to the sequential one.
//!
//! No external crates are used — the container this repository builds in
//! is offline, so the pool is ~60 lines of `std::thread` instead of a
//! `rayon` dependency.
//!
//! # Example
//!
//! ```
//! let squares = rms_core::par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of worker threads to use by default.
///
/// Honours the `RMS_THREADS` environment variable (a positive integer)
/// and otherwise uses [`std::thread::available_parallelism`]. Read once
/// per process: the first call caches the value, because
/// `available_parallelism` costs system calls and every optimization
/// at `jobs` 0 asks.
pub fn num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("RMS_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The worker count for a requested `jobs`: `0` means all cores
/// ([`num_threads`]), any other value is taken as given.
pub fn resolve_threads(jobs: usize) -> usize {
    if jobs == 0 {
        num_threads()
    } else {
        jobs
    }
}

/// Applies `f` to every item on a pool of [`num_threads`] workers.
///
/// The output vector preserves input order, so a parallel sweep returns
/// exactly what the sequential `items.iter().map(f).collect()` would.
/// Panics in `f` are propagated to the caller.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_threads(items, num_threads(), f)
}

/// Like [`par_map`] with an explicit worker count.
///
/// `threads == 1` runs inline on the calling thread (no pool is spawned),
/// which is the reference behaviour the parallel path is tested against.
pub fn par_map_threads<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads.min(items.len()) {
            scope.spawn(|| {
                // Each worker keeps a local buffer and merges once at the
                // end, so the lock is taken `threads` times, not `items`.
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(&items[i])));
                }
                results.lock().unwrap().extend(local);
            });
        }
    });
    let mut pairs = results.into_inner().unwrap();
    pairs.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(pairs.len(), items.len());
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 7, 64] {
            let par = par_map_threads(&items, threads, |&x| x * 3 + 1);
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(par_map(&empty, |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[9u32], |&x| x + 1), vec![10]);
    }

    #[test]
    fn default_thread_count_is_positive() {
        assert!(num_threads() >= 1);
        assert_eq!(resolve_threads(0), num_threads());
        assert_eq!(resolve_threads(3), 3);
    }
}
