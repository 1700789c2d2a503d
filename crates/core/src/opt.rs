//! The four MIG optimization algorithms of the paper (Algs. 1–4).
//!
//! All four share the same outer shape: a fixed number of cycles (`effort`,
//! 40 in the paper's experiments) over a sequence of rewrite passes. The
//! iterate whose cost metric is best is returned, so a cycle that worsens
//! the graph (reshaping is deliberately non-monotonic) cannot degrade the
//! final result.
//!
//! | Algorithm | Paper | Objective | Passes per cycle |
//! |---|---|---|---|
//! | [`optimize_area`]  | Alg. 1 | node count | eliminate; reshape; eliminate |
//! | [`optimize_depth`] | Alg. 2 | depth | push-up; relevance; push-up |
//! | [`optimize_rram`]  | Alg. 3 | R and S | push-up; Ω.I(1–3); push-up; reshape↓; eliminate |
//! | [`optimize_steps`] | Alg. 4 | S | push-up; Ω.I(1); Ω.I(1–3); push-up |
//!
//! [`drive`] is the best-iterate loop they share. It is public so that
//! the scripts built on the cut-rewriting round of the `rms-cut` crate
//! (which depends on this one) use the same loop; `rms-core` itself
//! knows nothing about cut rewriting. `rms_flow::run_algorithm` is the
//! one dispatcher over [`Algorithm`].

use crate::cancel::CancelToken;
use crate::cost::{Realization, RramCost};
use crate::mig::Mig;
use crate::rewrite::{eliminate, inverter_propagation, push_up, relevance, reshape, InverterCases};

/// Options shared by the optimization algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptOptions {
    /// Maximum number of cycles (`effort` in the paper; 40 in Sec. IV-A).
    pub effort: usize,
    /// Stop early when a whole cycle leaves the graph unchanged.
    pub early_exit: bool,
    /// Worker threads for the windowed round of the in-place cut engine
    /// (`0` = auto: [`crate::par::num_threads`]). Applies to every
    /// graph; one of at most one window runs inline. Results are
    /// bit-identical for every value — workers only change wall-clock.
    pub jobs: usize,
    /// Cooperative-cancellation handle, polled at cycle/window/round
    /// boundaries (see [`crate::cancel`]). The default token is inert;
    /// runs that complete are bit-identical with or without one.
    pub cancel: CancelToken,
}

impl Default for OptOptions {
    fn default() -> Self {
        OptOptions {
            effort: 40,
            early_exit: true,
            jobs: 0,
            cancel: CancelToken::default(),
        }
    }
}

impl OptOptions {
    /// Options with the paper's effort of 40 cycles.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Options with a custom cycle budget.
    pub fn with_effort(effort: usize) -> Self {
        OptOptions {
            effort,
            ..Self::default()
        }
    }
}

/// Fingerprint used for the early-exit fixpoint check.
fn fingerprint(mig: &Mig) -> (usize, u32, u64, u64) {
    let s = crate::cost::MigStats::of(mig);
    (
        mig.num_gates(),
        mig.depth(),
        s.complemented_edges,
        s.levels_with_compl,
    )
}

/// Statistics of one optimization run, consumed by the pipeline reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptStats {
    /// Optimization cycles actually executed (`<= effort` with early exit).
    pub cycles: usize,
    /// Rewrite passes executed, including the final polish pass.
    pub passes: u64,
    /// Cut rewrites accepted by the NPN-database engine (0 for Algs. 1–4).
    pub rewrites: u64,
    /// Majority-gate count before optimization.
    pub gates_before: u64,
    /// Majority-gate count after optimization.
    pub gates_after: u64,
    /// High-water mark of the node array during optimization (0 when the
    /// engine does not track it; the in-place cut engine does).
    pub peak_nodes: u64,
    /// Candidate equivalence classes examined by the fraig pass (0 for
    /// algorithms without a SAT-sweeping stage).
    pub fraig_classes: u64,
    /// Node merges proved by SAT and committed by the fraig pass.
    pub fraig_merges: u64,
    /// Windowed resubstitutions proved by SAT and accepted.
    pub resubs: u64,
    /// Total SAT conflicts spent across fraig/resub proof calls.
    pub sat_conflicts: u64,
    /// Proof attempts abandoned at the conflict budget (candidates kept
    /// unmerged — the engine never merges unproven).
    pub sat_budget_exhausted: u64,
    /// Whether the run stopped early at a cancellation checkpoint (the
    /// returned graph is still the best *verified-complete* iterate).
    pub cancelled: bool,
}

/// The best-iterate loop of every cycle script: runs `cycle` (given the
/// current graph and the cycle index) up to `opts.effort` times on the
/// compacted input, and returns the iterate with the smallest `score`,
/// the number of cycles run, and whether the run was cancelled.
///
/// With [`OptOptions::early_exit`] the loop stops once a cycle leaves the
/// graph's fingerprint unchanged. The cancel token is polled before and
/// after every cycle. A cycle during which it tripped is never scored: a
/// cycle whose rewrite round polls the token may have been truncated, and
/// its result, though functionally correct, is not one a completed run
/// could produce. So a cancelled run still returns the best
/// verified-complete iterate.
pub fn drive<S: PartialOrd + Copy>(
    mig: &Mig,
    opts: &OptOptions,
    score: impl Fn(&Mig) -> S,
    mut cycle: impl FnMut(&Mig, usize) -> Mig,
) -> (Mig, usize, bool) {
    let mut current = mig.compact();
    let mut best = current.clone();
    let mut best_score = score(&best);
    let mut cycles = 0;
    // One fingerprint per cycle, carried over — not two.
    let mut fp = fingerprint(&current);
    for c in 0..opts.effort {
        if opts.cancel.cancelled() {
            return (best, cycles, true);
        }
        current = cycle(&current, c);
        cycles = c + 1;
        if opts.cancel.cancelled() {
            return (best, cycles, true);
        }
        let s = score(&current);
        if s < best_score {
            best_score = s;
            best = current.clone();
        }
        let new_fp = fingerprint(&current);
        if opts.early_exit && new_fp == fp {
            break;
        }
        fp = new_fp;
    }
    (best, cycles, false)
}

/// Assembles an [`OptStats`] from a finished run of [`drive`] with
/// `passes_per_cycle` passes per cycle and one final polish pass.
fn stats_of(
    before: &Mig,
    after: &Mig,
    cycles: usize,
    passes_per_cycle: u64,
    cancelled: bool,
) -> OptStats {
    OptStats {
        cycles,
        passes: cycles as u64 * passes_per_cycle + 1,
        gates_before: before.num_gates() as u64,
        gates_after: after.num_gates() as u64,
        cancelled,
        ..OptStats::default()
    }
}

/// Alg. 1 — conventional MIG area optimization (node-count objective).
///
/// Per cycle: `eliminate` (Ω.M; Ω.D R→L), `reshape` (Ω.A; Ψ.C, alternating
/// direction), `eliminate` again; a final `eliminate` after the loop.
pub fn optimize_area(mig: &Mig, opts: &OptOptions) -> Mig {
    optimize_area_stats(mig, opts).0
}

/// [`optimize_area`] with run statistics.
pub fn optimize_area_stats(mig: &Mig, opts: &OptOptions) -> (Mig, OptStats) {
    let (out, cycles, cancelled) = drive(
        mig,
        opts,
        |m| (m.num_gates(), m.depth()),
        |m, c| {
            let m = eliminate(m);
            let m = reshape(&m, c % 2 == 0);
            eliminate(&m)
        },
    );
    let out = eliminate(&out);
    let stats = stats_of(mig, &out, cycles, 3, cancelled);
    (out, stats)
}

/// Alg. 2 — conventional MIG depth optimization (level-count objective).
///
/// Per cycle: `push_up` (Ω.M; Ω.D L→R; Ω.A; Ψ.C), `relevance` (Ψ.R),
/// `push_up` again; a final `push_up` after the loop.
pub fn optimize_depth(mig: &Mig, opts: &OptOptions) -> Mig {
    optimize_depth_stats(mig, opts).0
}

/// [`optimize_depth`] with run statistics.
pub fn optimize_depth_stats(mig: &Mig, opts: &OptOptions) -> (Mig, OptStats) {
    let (out, cycles, cancelled) = drive(
        mig,
        opts,
        |m| (m.depth(), m.num_gates()),
        |m, _| {
            let m = push_up(m);
            let m = relevance(&m);
            push_up(&m)
        },
    );
    let out = push_up(&out);
    let stats = stats_of(mig, &out, cycles, 3, cancelled);
    (out, stats)
}

/// Alg. 3 — the paper's multi-objective optimization for RRAM costs.
///
/// Per cycle: `push_up`, inverter propagation over all three cases,
/// `push_up` again, then the area trade-off tail (Ω.A reshaping downwards;
/// Ω.D R→L elimination); a final `push_up` after the loop.
///
/// The returned iterate minimizes the *product* `R·S` for `realization` —
/// a scalarization of the bi-objective goal that rewards balanced
/// improvements over single-metric ones.
pub fn optimize_rram(mig: &Mig, realization: Realization, opts: &OptOptions) -> Mig {
    optimize_rram_stats(mig, realization, opts).0
}

/// [`optimize_rram`] with run statistics.
pub fn optimize_rram_stats(
    mig: &Mig,
    realization: Realization,
    opts: &OptOptions,
) -> (Mig, OptStats) {
    let (out, cycles, cancelled) = drive(
        mig,
        opts,
        |m| {
            let c = RramCost::of(m, realization);
            (c.rrams.saturating_mul(c.steps), c.steps)
        },
        |m, _| {
            let m = push_up(m);
            let m = inverter_propagation(&m, InverterCases::ALL, false);
            let m = push_up(&m);
            let m = reshape(&m, true);
            eliminate(&m)
        },
    );
    let out = push_up(&out);
    let stats = stats_of(mig, &out, cycles, 5, cancelled);
    (out, stats)
}

/// Alg. 4 — the paper's step optimization.
///
/// Per cycle: `push_up`, inverter propagation with the base rule only
/// (case 1), inverter propagation over all cases, `push_up` again; a final
/// `push_up` after the loop. The returned iterate minimizes `S`, breaking
/// ties by `R`.
pub fn optimize_steps(mig: &Mig, realization: Realization, opts: &OptOptions) -> Mig {
    optimize_steps_stats(mig, realization, opts).0
}

/// [`optimize_steps`] with run statistics.
pub fn optimize_steps_stats(
    mig: &Mig,
    realization: Realization,
    opts: &OptOptions,
) -> (Mig, OptStats) {
    let (out, cycles, cancelled) = drive(
        mig,
        opts,
        |m| {
            let c = RramCost::of(m, realization);
            (c.steps, c.rrams)
        },
        |m, _| {
            let m = push_up(m);
            let m = inverter_propagation(&m, InverterCases::BASE, true);
            let m = inverter_propagation(&m, InverterCases::ALL, true);
            push_up(&m)
        },
    );
    let out = push_up(&out);
    let stats = stats_of(mig, &out, cycles, 4, cancelled);
    (out, stats)
}

/// Which optimization algorithm to run (used by the harness binaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Alg. 1, conventional area optimization.
    Area,
    /// Alg. 2, conventional depth optimization.
    Depth,
    /// Alg. 3, multi-objective RRAM-cost optimization.
    RramCosts,
    /// Alg. 4, step optimization.
    Steps,
    /// Alg. 5, cut-based NPN-database rewriting (node-count objective).
    /// The database round lives in the `rms-cut` crate, like every mode
    /// below; `rms_flow::run_algorithm` runs each of them.
    Cut,
    /// The hybrid script: cut rewriting interleaved with Alg. 3 passes,
    /// scored by the `R·S` product.
    CutRram,
    /// SAT sweeping (fraiging): the cut script followed by
    /// simulation-guided, SAT-proved global node merging.
    Sweep,
    /// Windowed Boolean resubstitution: the cut script followed by
    /// SAT-validated 0/1-resubstitution over divisor windows.
    Resub,
    /// Both post passes: cut script, then alternating fraig + resub
    /// rounds until a fixpoint.
    SweepResub,
}

impl Algorithm {
    /// The four paper algorithms, in paper order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Area,
        Algorithm::Depth,
        Algorithm::RramCosts,
        Algorithm::Steps,
    ];

    /// All algorithms including the cut-rewriting variants.
    pub const ALL_WITH_CUT: [Algorithm; 6] = [
        Algorithm::Area,
        Algorithm::Depth,
        Algorithm::RramCosts,
        Algorithm::Steps,
        Algorithm::Cut,
        Algorithm::CutRram,
    ];

    /// Every optimization mode, including the SAT-sweeping and
    /// resubstitution scripts layered on the cut engine.
    pub const ALL_MODES: [Algorithm; 9] = [
        Algorithm::Area,
        Algorithm::Depth,
        Algorithm::RramCosts,
        Algorithm::Steps,
        Algorithm::Cut,
        Algorithm::CutRram,
        Algorithm::Sweep,
        Algorithm::Resub,
        Algorithm::SweepResub,
    ];

    /// Parses an algorithm name as given on the command line or in an
    /// `rms serve` request (accepts the same aliases as `rms --opt`).
    pub fn from_name(name: &str) -> Option<Algorithm> {
        match name.to_ascii_lowercase().as_str() {
            "area" => Some(Algorithm::Area),
            "depth" => Some(Algorithm::Depth),
            "rram" | "rram-costs" | "multi" => Some(Algorithm::RramCosts),
            "steps" | "step" => Some(Algorithm::Steps),
            "cut" | "rewrite" => Some(Algorithm::Cut),
            "cut-rram" | "cut_rram" | "cutrram" => Some(Algorithm::CutRram),
            "sweep" | "fraig" => Some(Algorithm::Sweep),
            "resub" => Some(Algorithm::Resub),
            "sweep-resub" | "sweep_resub" | "sweepresub" | "deep" => Some(Algorithm::SweepResub),
            _ => None,
        }
    }

    /// The canonical machine token of this algorithm: the stable spelling
    /// used in cache keys and accepted by [`Algorithm::from_name`]
    /// (unlike `Display`, which renders a human-readable label).
    pub fn token(self) -> &'static str {
        match self {
            Algorithm::Area => "area",
            Algorithm::Depth => "depth",
            Algorithm::RramCosts => "rram",
            Algorithm::Steps => "steps",
            Algorithm::Cut => "cut",
            Algorithm::CutRram => "cut-rram",
            Algorithm::Sweep => "sweep",
            Algorithm::Resub => "resub",
            Algorithm::SweepResub => "sweep-resub",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algorithm::Area => write!(f, "Area"),
            Algorithm::Depth => write!(f, "Depth"),
            Algorithm::RramCosts => write!(f, "RRAM costs"),
            Algorithm::Steps => write!(f, "Step"),
            Algorithm::Cut => write!(f, "Cut rewriting"),
            Algorithm::CutRram => write!(f, "Cut+RRAM"),
            Algorithm::Sweep => write!(f, "SAT sweep"),
            Algorithm::Resub => write!(f, "Resub"),
            Algorithm::SweepResub => write!(f, "Sweep+Resub"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rms_logic::bench_suite;
    use rms_logic::sim::check_equivalence;

    fn bench_mig(name: &str) -> Mig {
        Mig::from_netlist(&bench_suite::build(name).unwrap())
    }

    fn assert_equiv(a: &Mig, b: &Mig, what: &str) {
        let res = check_equivalence(&a.to_netlist(), &b.to_netlist());
        assert!(res.holds(), "{what}: {res:?}");
    }

    const SAMPLES: &[&str] = &["rd53_f2", "9sym_d", "con1_f1", "sao2_f4", "exam3_d"];

    #[test]
    fn all_algorithms_preserve_function() {
        let opts = OptOptions::with_effort(6);
        for name in SAMPLES {
            let m = bench_mig(name);
            for real in Realization::ALL {
                let outs = [
                    ("area", optimize_area(&m, &opts)),
                    ("depth", optimize_depth(&m, &opts)),
                    ("rram", optimize_rram(&m, real, &opts)),
                    ("steps", optimize_steps(&m, real, &opts)),
                ];
                for (alg, o) in outs {
                    assert_equiv(&m, &o, &format!("{name}/{alg}/{real}"));
                }
            }
        }
    }

    #[test]
    fn area_never_increases_gates() {
        let opts = OptOptions::with_effort(8);
        for name in SAMPLES {
            let m = bench_mig(name);
            let o = optimize_area(&m, &opts);
            assert!(
                o.num_gates() <= m.num_gates(),
                "{name}: {} > {}",
                o.num_gates(),
                m.num_gates()
            );
        }
    }

    #[test]
    fn depth_never_increases_depth() {
        let opts = OptOptions::with_effort(8);
        for name in SAMPLES {
            let m = bench_mig(name);
            let o = optimize_depth(&m, &opts);
            assert!(o.depth() <= m.depth(), "{name}");
        }
    }

    #[test]
    fn step_optimization_reduces_steps_vs_depth_opt() {
        // The paper's core claim for Alg. 4: fewer steps than conventional
        // depth optimization, because complemented-edge levels are removed.
        let opts = OptOptions::with_effort(10);
        let mut total_depth = 0u64;
        let mut total_step = 0u64;
        for name in SAMPLES {
            let m = bench_mig(name);
            let d = optimize_depth(&m, &opts);
            let s = optimize_steps(&m, Realization::Maj, &opts);
            total_depth += RramCost::of(&d, Realization::Maj).steps;
            total_step += RramCost::of(&s, Realization::Maj).steps;
        }
        // On these five tiny functions the margin can be a step or two
        // either way; the full-suite integration tests assert the strict
        // aggregate improvement the paper reports.
        assert!(
            total_step <= total_depth + total_depth / 10,
            "step-opt {total_step} should not exceed depth-opt {total_depth} by >10%"
        );
    }

    #[test]
    fn effort_zero_returns_compacted_input() {
        let m = bench_mig("exam3_d");
        let o = optimize_area(&m, &OptOptions::with_effort(0));
        assert_equiv(&m, &o, "effort 0");
    }

    #[test]
    fn drive_never_scores_a_cycle_the_token_tripped_in() {
        // The second cycle returns a smaller graph but trips the token on
        // the way, as a rewrite round polling it mid-cycle would: its
        // result must not become the best iterate.
        let m = bench_mig("exam3_d");
        let opts = OptOptions {
            early_exit: false,
            cancel: CancelToken::new(),
            ..OptOptions::with_effort(4)
        };
        let (out, cycles, cancelled) = drive(
            &m,
            &opts,
            |g| g.num_gates(),
            |g, c| {
                if c == 0 {
                    return g.clone();
                }
                opts.cancel.cancel();
                Mig::with_inputs("truncated", g.num_inputs())
            },
        );
        assert!(cancelled);
        assert_eq!(cycles, 2);
        assert_eq!(out.num_gates(), m.compact().num_gates());
        assert!(out.num_gates() > 0);
    }

    #[test]
    fn display_names() {
        assert_eq!(Algorithm::Area.to_string(), "Area");
        assert_eq!(Algorithm::RramCosts.to_string(), "RRAM costs");
    }
}
