//! The four MIG optimization algorithms of the paper (Algs. 1–4).
//!
//! All four share the same outer shape: up to `effort` cycles (40 in the
//! paper's experiments) of a sequence of rewrite passes. The iterate whose
//! cost metric is best is returned, so a cycle that worsens the graph
//! (reshaping is deliberately non-monotonic) cannot degrade the final
//! result. The loop has two early exits: a cycle that leaves the coarse
//! fingerprint `(gates, depth, complemented edges, tainted levels)`
//! unchanged, and an iterate that repeats an earlier one node for node at
//! the same cycle parity, from which point every later cycle would only
//! replay graphs already scored.
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
use crate::hash::FxHashMap;
use crate::mig::Mig;
use crate::rewrite::{eliminate, inverter_propagation, push_up, relevance, reshape, InverterCases};

/// Options shared by the optimization algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptOptions {
    /// Maximum number of cycles (`effort` in the paper; 40 in Sec. IV-A).
    pub effort: usize,
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

/// Fingerprint of [`drive`]'s first early exit: a cycle that leaves it
/// unchanged ends the loop.
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
    /// Optimization cycles actually executed (`<= effort`: [`drive`]
    /// stops early on an unchanged fingerprint or on an exact revisit of
    /// an earlier iterate).
    pub cycles: usize,
    /// Rewrite passes executed, including the final polish pass.
    pub passes: u64,
    /// Cut rewrites accepted by the NPN-database engine (0 for Algs. 1–4).
    pub rewrites: u64,
    /// Majority-gate count before optimization.
    pub gates_before: u64,
    /// Majority-gate count after optimization.
    pub gates_after: u64,
    /// High-water mark of the in-place graph's node array during
    /// optimization. Every cut-family mode tracks it (the cut script, the
    /// cut-rram hybrid and the sweep scripts, post passes included);
    /// Algs. 1–4 rebuild instead and report 0. Mapped rounds drop dead
    /// slots, so this tracks live plus tentative nodes.
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
/// **Contract:** `cycle`'s result must be a pure function of the graph
/// it is given and of the parity of the cycle index (`c % 2`); it may
/// depend on the index in no other way. Alg. 1 picks the reshape
/// direction from the parity, Algs. 2–4 ignore the index, and the
/// cut-rram hybrid allows zero-gain rewrites on odd cycles.
///
/// The loop has two early exits:
///
/// - a cycle leaves the graph's fingerprint `(gates, depth, complemented
///   edges, tainted levels)` unchanged;
/// - an iterate equals an earlier one node for node at the same cycle
///   parity. By the contract, every later cycle would then replay
///   iterates that were already scored, and the best only changes on a
///   strict improvement, so the returned graph is the one the full
///   budget would return. A structural-hash match arms one snapshot of
///   the iterate; the loop stops only when the iterate one period later
///   equals that snapshot exactly, so a hash collision never stops it.
///   This costs one graph and one hash-map entry per cycle.
///
/// The cancel token is polled before and after every cycle. A cycle
/// during which it tripped is never scored: a cycle whose rewrite round
/// polls the token may have been truncated, and its result, though
/// functionally correct, is not one a completed run could produce. So a
/// cancelled run still returns the best verified-complete iterate.
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
    // Iterate 0, the compacted input, is only recorded.
    let mut orbit = Orbit::default();
    orbit.closes(&current, current.structural_hash(), 0);
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
        if new_fp == fp || orbit.closes(&current, current.structural_hash(), cycles) {
            break;
        }
        fp = new_fp;
    }
    (best, cycles, false)
}

/// The exact-revisit exit of [`drive`]: iterate `i` is the graph after
/// `i` cycles, and the next cycle sees the parity `i % 2`. Once iterate
/// `i` equals iterate `k < i` with `i ≡ k (mod 2)`, the iterates from
/// `i` on repeat those from `k` on.
#[derive(Default)]
struct Orbit {
    /// (structural hash, parity) of every iterate seen → the latest
    /// iterate index with that key.
    seen: FxHashMap<(u64, bool), usize>,
    /// An iterate whose key matched an earlier one's, and the index at
    /// which it recurs if the match was exact.
    armed: Option<(Mig, usize)>,
}

impl Orbit {
    /// Records iterate `i` with structural hash `hash`; true when it
    /// equals the armed snapshot node for node, that is, when the
    /// iterates have entered a cycle that was already scored in full.
    fn closes(&mut self, g: &Mig, hash: u64, i: usize) -> bool {
        if let Some((snapshot, due)) = &self.armed {
            if i == *due {
                if g.same_structure(snapshot) {
                    return true;
                }
                // A hash collision, not a revisit: drop the snapshot.
                self.armed = None;
            }
        }
        if let Some(k) = self.seen.insert((hash, i % 2 == 1), i) {
            if self.armed.is_none() {
                self.armed = Some((g.clone(), 2 * i - k));
            }
        }
        false
    }
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
    let (out, cycles, cancelled) = drive(mig, opts, area_score, area_cycle);
    let out = eliminate(&out);
    let stats = stats_of(mig, &out, cycles, 3, cancelled);
    (out, stats)
}

fn area_score(m: &Mig) -> (usize, u32) {
    (m.num_gates(), m.depth())
}

fn area_cycle(m: &Mig, c: usize) -> Mig {
    let m = eliminate(m);
    let m = reshape(&m, c.is_multiple_of(2));
    eliminate(&m)
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
    let (out, cycles, cancelled) = drive(mig, opts, depth_score, depth_cycle);
    let out = push_up(&out);
    let stats = stats_of(mig, &out, cycles, 3, cancelled);
    (out, stats)
}

fn depth_score(m: &Mig) -> (u32, usize) {
    (m.depth(), m.num_gates())
}

fn depth_cycle(m: &Mig, _: usize) -> Mig {
    let m = push_up(m);
    let m = relevance(&m);
    push_up(&m)
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
    let (out, cycles, cancelled) = drive(mig, opts, rram_score(realization), rram_cycle);
    let out = push_up(&out);
    let stats = stats_of(mig, &out, cycles, 5, cancelled);
    (out, stats)
}

/// Alg. 3's score for `realization`: the `R·S` product, ties broken by
/// `S`. The cut-rram hybrid scores its iterates with it too.
pub fn rram_score(realization: Realization) -> impl Fn(&Mig) -> (u64, u64) {
    move |m| {
        let c = RramCost::of(m, realization);
        (c.rrams.saturating_mul(c.steps), c.steps)
    }
}

/// One cycle of Alg. 3: push-up; Ω.I(1–3); push-up; reshape↓;
/// eliminate. The cut-rram hybrid runs it after each cut round.
pub fn rram_cycle(m: &Mig, _: usize) -> Mig {
    let m = push_up(m);
    let m = inverter_propagation(&m, InverterCases::ALL, false);
    let m = push_up(&m);
    let m = reshape(&m, true);
    eliminate(&m)
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
    let (out, cycles, cancelled) = drive(mig, opts, steps_score(realization), steps_cycle);
    let out = push_up(&out);
    let stats = stats_of(mig, &out, cycles, 4, cancelled);
    (out, stats)
}

fn steps_score(realization: Realization) -> impl Fn(&Mig) -> (u64, u64) {
    move |m| {
        let c = RramCost::of(m, realization);
        (c.steps, c.rrams)
    }
}

fn steps_cycle(m: &Mig, _: usize) -> Mig {
    let m = push_up(m);
    let m = inverter_propagation(&m, InverterCases::BASE, true);
    let m = inverter_propagation(&m, InverterCases::ALL, true);
    push_up(&m)
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

    /// Whether the mode reads the realization it is run under. The other
    /// modes return the same graph under both realizations, so one run
    /// can be costed under either.
    pub fn reads_realization(self) -> bool {
        matches!(
            self,
            Algorithm::RramCosts | Algorithm::Steps | Algorithm::CutRram
        )
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
        // The first cycle adds a gate (a worse score, and a new
        // fingerprint, so the loop goes on); the second returns a smaller
        // graph but trips the token on the way, as a rewrite round
        // polling it mid-cycle would: its result must not become the
        // best iterate.
        let m = bench_mig("exam3_d");
        let opts = OptOptions {
            cancel: CancelToken::new(),
            ..OptOptions::with_effort(4)
        };
        let (out, cycles, cancelled) = drive(
            &m,
            &opts,
            |g| g.num_gates(),
            |g, c| {
                if c == 0 {
                    let mut grown = g.clone();
                    let root = grown.outputs()[0].1;
                    let (x, y) = (grown.input(0), grown.input(1));
                    grown.maj(root, x, !y);
                    assert_eq!(grown.num_gates(), g.num_gates() + 1);
                    return grown;
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

    /// The loop of [`drive`] before the exact-revisit exit: stops only
    /// on an unchanged fingerprint or at `effort`. The differentials
    /// below hold every algorithm's output to it, node for node.
    fn drive_unbounded<S: PartialOrd + Copy>(
        mig: &Mig,
        opts: &OptOptions,
        score: impl Fn(&Mig) -> S,
        mut cycle: impl FnMut(&Mig, usize) -> Mig,
    ) -> (Mig, usize) {
        let mut current = mig.compact();
        let mut best = current.clone();
        let mut best_score = score(&best);
        let mut cycles = 0;
        let mut fp = fingerprint(&current);
        for c in 0..opts.effort {
            current = cycle(&current, c);
            cycles = c + 1;
            let s = score(&current);
            if s < best_score {
                best_score = s;
                best = current.clone();
            }
            let new_fp = fingerprint(&current);
            if new_fp == fp {
                break;
            }
            fp = new_fp;
        }
        (best, cycles)
    }

    /// Algs. 1–4 (3 and 4 under MAJ and IMP) at effort 40 against the
    /// same scripts on [`drive_unbounded`]; returns the cycles run by
    /// each loop, summed.
    fn assert_matches_unbounded(names: &[&str]) -> (usize, usize) {
        let opts = OptOptions::with_effort(40);
        let (mut bounded, mut unbounded) = (0, 0);
        for name in names {
            let m = bench_mig(name);
            let mut runs: Vec<(String, (Mig, OptStats), Mig, usize)> = Vec::new();
            let (o, c) = drive_unbounded(&m, &opts, area_score, area_cycle);
            runs.push((
                "area".into(),
                optimize_area_stats(&m, &opts),
                eliminate(&o),
                c,
            ));
            let (o, c) = drive_unbounded(&m, &opts, depth_score, depth_cycle);
            runs.push((
                "depth".into(),
                optimize_depth_stats(&m, &opts),
                push_up(&o),
                c,
            ));
            for real in Realization::ALL {
                let (o, c) = drive_unbounded(&m, &opts, rram_score(real), rram_cycle);
                let new = optimize_rram_stats(&m, real, &opts);
                runs.push((format!("rram/{real}"), new, push_up(&o), c));
                let (o, c) = drive_unbounded(&m, &opts, steps_score(real), steps_cycle);
                let new = optimize_steps_stats(&m, real, &opts);
                runs.push((format!("steps/{real}"), new, push_up(&o), c));
            }
            for (alg, (new, stats), old, old_cycles) in runs {
                assert!(new.same_structure(&old), "{name}/{alg}: graphs differ");
                assert!(stats.cycles <= old_cycles, "{name}/{alg}");
                bounded += stats.cycles;
                unbounded += old_cycles;
            }
        }
        (bounded, unbounded)
    }

    #[test]
    fn algorithms_match_the_unbounded_loop_on_the_small_suite() {
        let names: Vec<&str> = bench_suite::SMALL_SUITE.iter().map(|i| i.name).collect();
        let (bounded, unbounded) = assert_matches_unbounded(&names);
        assert!(bounded < unbounded, "{bounded} vs {unbounded} cycles");
    }

    #[test]
    #[ignore = "about 20 s unoptimized; run in release with --ignored"]
    fn algorithms_match_the_unbounded_loop_on_table2() {
        let names: Vec<&str> = bench_suite::LARGE_SUITE.iter().map(|i| i.name).collect();
        let (bounded, unbounded) = assert_matches_unbounded(&names);
        assert!(bounded < unbounded, "{bounded} vs {unbounded} cycles");
    }

    /// A chain of `n` majority gates over three inputs: one graph per
    /// `n`, node for node, and consecutive `n` never share a fingerprint.
    fn chain(n: usize) -> Mig {
        let mut m = Mig::with_inputs("chain", 3);
        let (b, c) = (m.input(1), m.input(2));
        let mut g = m.input(0);
        for _ in 0..n {
            g = m.maj(g, b, c);
        }
        m.add_output("f", g);
        assert_eq!(m.num_gates(), n);
        m
    }

    #[test]
    fn drive_stops_a_parity_dependent_orbit_within_two_periods() {
        // Gate counts 10 → 9 → 7 → 6 → 4 → 3 walk a tail whose step
        // depends on the parity (−1 on even cycles, −2 on odd ones), then
        // 3 → 1 → 2 → 3 loops with period λ = 3 from iterate μ = 5 on.
        // Iterate 8 revisits iterate 5 at the opposite parity, which
        // proves nothing; iterate 11 is the first same-parity revisit.
        let step = |g: &Mig, c: usize| {
            let n = g.num_gates();
            chain(if n >= 4 { n - 1 - c % 2 } else { n % 3 + 1 })
        };
        let score = |g: &Mig| g.num_gates().abs_diff(2);
        let opts = OptOptions::with_effort(40);
        let (out, cycles, cancelled) = drive(&chain(10), &opts, score, step);
        let (mu, lambda) = (5, 3);
        assert!(!cancelled);
        assert!(cycles <= mu + 2 * 6, "{cycles} cycles, λ = {lambda}");
        assert!(cycles >= mu + 6, "stopped before any same-parity revisit");
        let (full, full_cycles) = drive_unbounded(&chain(10), &opts, score, step);
        assert_eq!(full_cycles, 40);
        assert!(out.same_structure(&full));
        assert_eq!(out.num_gates(), 2);
    }

    #[test]
    fn drive_runs_on_past_an_opposite_parity_revisit() {
        // 1 → 2 → 3 → 1: iterate 3 equals iterate 0, but at the other
        // parity, where the step leaves the loop (1 → 4 on odd cycles)
        // and climbs to the best iterate at the end of the budget.
        let step = |g: &Mig, c: usize| {
            chain(match (g.num_gates(), c % 2) {
                (1, 0) => 2,
                (2, _) => 3,
                (3, _) => 1,
                (n, _) => n.max(3) + 1,
            })
        };
        let score = |g: &Mig| std::cmp::Reverse(g.num_gates());
        let opts = OptOptions::with_effort(8);
        let (out, cycles, _) = drive(&chain(1), &opts, score, step);
        assert_eq!(cycles, 8);
        assert_eq!(out.num_gates(), 8);
        let (full, _) = drive_unbounded(&chain(1), &opts, score, step);
        assert!(out.same_structure(&full));
    }

    #[test]
    fn orbit_never_closes_on_a_hash_collision() {
        // Every iterate reports the same hash: each match arms a snapshot
        // that the exact comparison then rejects.
        let mut orbit = Orbit::default();
        for i in 0..30 {
            assert!(!orbit.closes(&chain(i + 1), 42, i), "iterate {i}");
        }
        // A true period-2 orbit under the same colliding hash closes one
        // period after its first same-parity match.
        let mut orbit = Orbit::default();
        let closed = (0..10).find(|&i| orbit.closes(&chain(1 + i % 2), 42, i));
        assert_eq!(closed, Some(4));
    }

    #[test]
    fn display_names() {
        assert_eq!(Algorithm::Area.to_string(), "Area");
        assert_eq!(Algorithm::RramCosts.to_string(), "RRAM costs");
    }
}
