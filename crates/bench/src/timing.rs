//! A minimal stopwatch harness for the `benches/` targets, plus the
//! machine-readable performance profile behind `rms bench --profile`.
//!
//! The build environment is offline, so the workspace cannot depend on
//! Criterion; the bench targets instead use this module with
//! `harness = false`. Results print as `name  min/avg over N iters`.
//!
//! # The profile format (`BENCH_5.json` / `BENCH_8.json`)
//!
//! [`ProfileReport::to_json`] emits one flat document (schema
//! `rms-bench-profile-v3`, with a `suite` field naming the benchmark
//! set) recording, per benchmark, the wall time of the cut algorithm on
//! the pre-incremental **rebuild** engine and on the **incremental**
//! in-place engine (median over `iters` runs), the speedup, the
//! explicit `gates_delta` quality column (incremental minus rebuild
//! gates — past [`QUALITY_TOLERANCE`] it fails the profile), the
//! parallel timing (`jobs` workers, `par_ms`, with `par_identical`
//! asserting the windowed round's bit-identity contract), the per-phase
//! breakdown of the incremental run (cut enumeration / candidate
//! evaluation / commit / GC), the optimizer counters (cycles, passes,
//! rewrites, peak node count), and how the result was verified against
//! the source netlist (exhaustively below the width cutoff, SAT proof or
//! sampled simulation above). A `total` object aggregates the suite.
//! Two baselines are committed at the repository root: `BENCH_5.json`
//! (small suite) and `BENCH_8.json` (the generated large suite of
//! [`rms_logic::large_suite`], 4k–70k gates). CI's perf-smoke steps
//! regenerate profiles, fail on any verification or determinism
//! regression, and compare every row's `gates` to the committed file.

use rms_flow::escape_json;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Times `f` for `iters` iterations (after one warm-up call) and prints
/// the minimum and mean wall-clock time per iteration.
pub fn bench<R>(name: &str, iters: usize, mut f: impl FnMut() -> R) {
    assert!(iters > 0);
    black_box(f());
    let mut min = Duration::MAX;
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        let t0 = Instant::now();
        black_box(f());
        let dt = t0.elapsed();
        min = min.min(dt);
        total += dt;
    }
    println!(
        "{name:<48} min {min:>10.2?}  avg {:>10.2?}  ({iters} iters)",
        total / iters as u32
    );
}

/// Prints a section header so grouped benches read like Criterion groups.
pub fn group(name: &str) {
    println!("\n== {name} ==");
}

/// Times `f` and returns the minimum wall-clock duration over `iters`
/// runs (after one warm-up call), together with the last result.
pub fn time_min<R>(iters: usize, mut f: impl FnMut() -> R) -> (Duration, R) {
    assert!(iters > 0);
    black_box(f());
    let mut min = Duration::MAX;
    let mut last = None;
    for _ in 0..iters {
        let t0 = Instant::now();
        let r = black_box(f());
        min = min.min(t0.elapsed());
        last = Some(r);
    }
    (min, last.expect("at least one iteration"))
}

/// Times `f` and returns the **median** wall-clock duration over `iters`
/// runs (after one warm-up call), together with the last result. The
/// median is the profile's timing statistic: unlike the minimum it is
/// robust to one lucky run, and unlike the mean it is robust to one GC
/// or scheduler hiccup.
pub fn time_median<R>(iters: usize, mut f: impl FnMut() -> R) -> (Duration, R) {
    assert!(iters > 0);
    black_box(f());
    let mut times = Vec::with_capacity(iters);
    let mut last = None;
    for _ in 0..iters {
        let t0 = Instant::now();
        let r = black_box(f());
        times.push(t0.elapsed());
        last = Some(r);
    }
    times.sort();
    // Even counts take the lower middle — a real measured duration,
    // applied identically to every engine being compared.
    (
        times[(iters - 1) / 2],
        last.expect("at least one iteration"),
    )
}

/// One benchmark's measurements in the performance profile.
#[derive(Debug, Clone)]
pub struct ProfileRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Primary input count.
    pub inputs: u32,
    /// Majority gates of the unoptimized MIG.
    pub initial_gates: u64,
    /// Gates after the cut algorithm (incremental engine).
    pub gates: u64,
    /// Gates after the cut algorithm on the rebuild baseline.
    pub baseline_gates: u64,
    /// `gates - baseline_gates`: the incremental engine's quality
    /// relative to the rebuild baseline, positive = worse. The rebuild
    /// baseline legitimately makes different local decisions (cuts across
    /// window boundaries, no stagnation cutoff), and this column is what
    /// keeps that drift visible instead of silent.
    pub gates_delta: i64,
    /// Wall time of the rebuild (pre-incremental) engine, milliseconds.
    pub baseline_ms: f64,
    /// Wall time of the incremental engine, milliseconds.
    pub incremental_ms: f64,
    /// Worker count of the parallel timing run ([`ProfileRow::par_ms`]).
    pub jobs: usize,
    /// Wall time of the incremental engine at [`ProfileRow::jobs`]
    /// workers, milliseconds. Rows of more than one window fan out
    /// across the workers; a single-window row runs inline, exactly like
    /// `incremental_ms`.
    pub par_ms: f64,
    /// Whether the parallel run reproduced the sequential incremental
    /// graph bit-identically (the windowed round's determinism contract).
    pub par_identical: bool,
    /// Cut-enumeration time inside the incremental run, milliseconds
    /// (summed across workers in windowed rounds, so it can exceed the
    /// wall clock).
    pub t_cut_enum_ms: f64,
    /// Candidate-evaluation (NPN + MFFC + gain) time, milliseconds
    /// (same per-worker summing).
    pub t_eval_ms: f64,
    /// Sequential commit-sweep time, milliseconds.
    pub t_commit_ms: f64,
    /// End-of-round garbage-collection / repair time, milliseconds.
    pub t_gc_ms: f64,
    /// Optimization cycles executed (incremental engine).
    pub cycles: u64,
    /// Rewrite passes executed.
    pub passes: u64,
    /// Cut rewrites accepted.
    pub rewrites: u64,
    /// High-water mark of the node array.
    pub peak_nodes: u64,
    /// How the incremental result was verified against the source
    /// netlist (`exhaustive`, `SAT proved`, or `FAILED …`).
    pub verified: String,
}

/// Largest tolerated quality drift of the incremental engine relative
/// to the rebuild baseline, as a fraction of the baseline gate count.
/// The engines legitimately make different local decisions (the
/// baseline re-canonicalizes the whole graph every pass), so exact
/// equality is not the contract — but a drift past this bound is a real
/// quality regression and fails the profile.
pub const QUALITY_TOLERANCE: f64 = 0.005;

impl ProfileRow {
    /// Baseline time divided by incremental time.
    pub fn speedup(&self) -> f64 {
        self.baseline_ms / self.incremental_ms.max(1e-9)
    }

    /// Whether the row's verification column is green.
    pub fn is_verified(&self) -> bool {
        !self.verified.starts_with("FAILED") && !self.verified.starts_with("ERROR")
    }

    /// Whether the incremental result is meaningfully worse than the
    /// rebuild baseline (see [`QUALITY_TOLERANCE`]).
    pub fn quality_regressed(&self) -> bool {
        self.gates_delta > 0
            && self.gates_delta as f64 > self.baseline_gates as f64 * QUALITY_TOLERANCE
    }

    /// Whether the row shows no regression: verified, parallel
    /// determinism check green, and quality within tolerance of the
    /// baseline.
    pub fn passed(&self) -> bool {
        self.par_identical && self.is_verified() && !self.quality_regressed()
    }
}

/// The whole performance profile (see module docs for the format).
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Which benchmark suite the rows cover (`"small"` or `"large"`).
    pub suite: &'static str,
    /// Per-benchmark rows, suite order.
    pub rows: Vec<ProfileRow>,
    /// Optimization effort used.
    pub effort: usize,
    /// Timing iterations per engine (minimum is recorded).
    pub iters: usize,
    /// Whether a parallel (`--jobs`) sweep reproduced the sequential
    /// gate counts bit-identically.
    pub jobs_consistent: bool,
}

impl ProfileReport {
    /// Total baseline milliseconds.
    pub fn total_baseline_ms(&self) -> f64 {
        self.rows.iter().map(|r| r.baseline_ms).sum()
    }

    /// Total incremental milliseconds.
    pub fn total_incremental_ms(&self) -> f64 {
        self.rows.iter().map(|r| r.incremental_ms).sum()
    }

    /// Suite-level speedup (total baseline over total incremental).
    pub fn speedup(&self) -> f64 {
        self.total_baseline_ms() / self.total_incremental_ms().max(1e-9)
    }

    /// Whether every row passed and the parallel sweep was consistent.
    pub fn all_passed(&self) -> bool {
        self.jobs_consistent && self.rows.iter().all(|r| r.passed())
    }

    /// The machine-readable profile document (`rms-bench-profile-v3`).
    pub fn to_json(&self) -> String {
        let mut j = String::from("{\n");
        let _ = writeln!(j, "  \"schema\": \"rms-bench-profile-v3\",");
        let _ = writeln!(j, "  \"suite\": \"{}\",", self.suite);
        let _ = writeln!(j, "  \"effort\": {},", self.effort);
        let _ = writeln!(j, "  \"iters\": {},", self.iters);
        let _ = writeln!(j, "  \"engine_baseline\": \"rebuild\",");
        let _ = writeln!(j, "  \"engine\": \"incremental\",");
        let _ = writeln!(j, "  \"benchmarks\": [");
        for (i, r) in self.rows.iter().enumerate() {
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(
                j,
                "    {{\"name\": \"{}\", \"inputs\": {}, \"initial_gates\": {}, \"gates\": {}, \
                 \"baseline_gates\": {}, \"gates_delta\": {}, \"baseline_ms\": {:.3}, \
                 \"incremental_ms\": {:.3}, \"speedup\": {:.2}, \"jobs\": {}, \"par_ms\": {:.3}, \
                 \"par_identical\": {}, \"t_cut_enum_ms\": {:.3}, \"t_eval_ms\": {:.3}, \
                 \"t_commit_ms\": {:.3}, \"t_gc_ms\": {:.3}, \"cycles\": {}, \"passes\": {}, \
                 \"rewrites\": {}, \"peak_nodes\": {}, \"verified\": \"{}\"}}{comma}",
                escape_json(r.name),
                r.inputs,
                r.initial_gates,
                r.gates,
                r.baseline_gates,
                r.gates_delta,
                r.baseline_ms,
                r.incremental_ms,
                r.speedup(),
                r.jobs,
                r.par_ms,
                r.par_identical,
                r.t_cut_enum_ms,
                r.t_eval_ms,
                r.t_commit_ms,
                r.t_gc_ms,
                r.cycles,
                r.passes,
                r.rewrites,
                r.peak_nodes,
                escape_json(&r.verified),
            );
        }
        let _ = writeln!(j, "  ],");
        let _ = writeln!(
            j,
            "  \"total\": {{\"rows\": {}, \"baseline_ms\": {:.3}, \"incremental_ms\": {:.3}, \
             \"speedup\": {:.2}, \"par_identical_rows\": {}, \
             \"verified_rows\": {}, \"quality_regressions\": {}, \"jobs_consistent\": {}}}",
            self.rows.len(),
            self.total_baseline_ms(),
            self.total_incremental_ms(),
            self.speedup(),
            self.rows.iter().filter(|r| r.par_identical).count(),
            self.rows.iter().filter(|r| r.is_verified()).count(),
            self.rows.iter().filter(|r| r.quality_regressed()).count(),
            self.jobs_consistent,
        );
        j.push_str("}\n");
        j
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn bench_runs_and_prints() {
        super::group("test");
        let mut n = 0u64;
        super::bench("increment", 3, || {
            n += 1;
            n
        });
        assert!(n >= 4); // warm-up + 3 iterations
    }
}
