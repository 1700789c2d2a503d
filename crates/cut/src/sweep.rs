//! The SAT-sweeping optimization scripts ([`rms_core::Algorithm::Sweep`],
//! [`rms_core::Algorithm::Resub`], [`rms_core::Algorithm::SweepResub`]).
//!
//! Each script runs the in-place cut script first, then layers the
//! verification-engine-powered passes on top of its result:
//!
//! ```text
//! cut script  →  [ fraig pass ]  [ resub pass ]  eliminate  →  best
//!                 \__________ repeated until fixpoint _______/
//! ```
//!
//! Starting from the cut result and tracking the best iterate makes the
//! scripts **never worse than the cut baseline** on any benchmark: the
//! fraig pass only commits SAT-proved merges (each removes at least one
//! gate), accepted resubstitutions strictly shrink the MFFC, and
//! `eliminate` is non-increasing, so every iterate is at most the cut
//! result's size. Results are bit-identical across thread counts.

use crate::fraig::{fraig_pass, FraigOptions};
use crate::incremental::cut_script_inplace;
use crate::resub::{resub_pass, ResubOptions};
use rms_core::fanout::eliminate_inplace;
use rms_core::opt::{OptOptions, OptStats};
use rms_core::CancelToken;
use rms_core::{IncrementalMig, Mig, Realization, RramCost};

/// Which post passes a sweep script runs on top of the cut script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPasses {
    /// Run the fraig (SAT-sweeping) pass.
    pub fraig: bool,
    /// Run the windowed resubstitution pass.
    pub resub: bool,
}

impl SweepPasses {
    /// Fraiging only (`Algorithm::Sweep`).
    pub const FRAIG: SweepPasses = SweepPasses {
        fraig: true,
        resub: false,
    };
    /// Resubstitution only (`Algorithm::Resub`).
    pub const RESUB: SweepPasses = SweepPasses {
        fraig: false,
        resub: true,
    };
    /// Both passes (`Algorithm::SweepResub`).
    pub const BOTH: SweepPasses = SweepPasses {
        fraig: true,
        resub: true,
    };
}

/// Maximum post-pass rounds; each round must make progress to continue.
const MAX_POST_ROUNDS: usize = 4;

/// Runs the post passes over `base`, returning the best iterate by
/// `(gates, depth)` and accumulating counters into `stats`.
pub(crate) fn post_passes(
    base: &Mig,
    passes: SweepPasses,
    stats: &mut OptStats,
    cancel: &CancelToken,
) -> Mig {
    let compact = base.compact();
    if compact.num_gates() == 0 {
        return compact;
    }
    let mut g = IncrementalMig::from_mig(&compact);
    let mut best = compact;
    let mut best_score = (best.num_gates(), best.depth());
    for _ in 0..MAX_POST_ROUNDS {
        // Post-pass rounds are cancellation checkpoints; the best iterate
        // is always a fully-committed graph, so stopping here is safe.
        if cancel.cancelled() {
            stats.cancelled = true;
            break;
        }
        let mut progress = 0u64;
        if passes.fraig {
            let fopts = FraigOptions {
                cancel: cancel.clone(),
                ..FraigOptions::default()
            };
            let outcome = fraig_pass(&mut g, &fopts);
            stats.fraig_classes += outcome.stats.classes;
            stats.fraig_merges += outcome.stats.merges;
            stats.sat_conflicts += outcome.stats.sat_conflicts;
            stats.sat_budget_exhausted += outcome.stats.budget_exhausted;
            progress += outcome.stats.merges;
            stats.passes += 1;
        }
        if passes.resub {
            let ropts = ResubOptions {
                cancel: cancel.clone(),
            };
            let r = resub_pass(&mut g, &ropts);
            stats.resubs += r.accepted;
            stats.sat_conflicts += r.sat_conflicts;
            stats.sat_budget_exhausted += r.budget_exhausted;
            progress += r.accepted;
            stats.passes += 1;
        }
        progress += eliminate_inplace(&mut g) as u64;
        stats.passes += 1;
        stats.cycles += 1;
        let score = (g.num_gates(), g.depth());
        if score < best_score {
            best_score = score;
            best = g.to_mig();
        }
        if progress == 0 {
            break;
        }
    }
    stats.peak_nodes = stats.peak_nodes.max(g.peak_len() as u64);
    best
}

/// Runs a sweep script: the in-place cut script, then the requested
/// SAT-backed post passes until fixpoint (best iterate returned).
pub fn optimize_sweep_stats(mig: &Mig, opts: &OptOptions, passes: SweepPasses) -> (Mig, OptStats) {
    let (base, mut stats) = cut_script_inplace(mig, opts);
    if opts.effort == 0 {
        return (base, stats);
    }
    let out = post_passes(&base, passes, &mut stats, &opts.cancel);
    stats.gates_after = out.num_gates() as u64;
    (out, stats)
}

/// RRAM-scored polish used by the hybrid cut+RRAM script: runs both post
/// passes and keeps the result only when the `R·S` product improves.
pub(crate) fn rram_polish(
    best: &Mig,
    realization: Realization,
    stats: &mut OptStats,
    cancel: &CancelToken,
) -> Option<Mig> {
    let score = |m: &Mig| {
        let c = RramCost::of(m, realization);
        (c.rrams.saturating_mul(c.steps), c.steps)
    };
    let mut post = OptStats::default();
    let polished = post_passes(best, SweepPasses::BOTH, &mut post, cancel);
    if score(&polished) < score(best) {
        stats.fraig_classes += post.fraig_classes;
        stats.fraig_merges += post.fraig_merges;
        stats.resubs += post.resubs;
        stats.sat_conflicts += post.sat_conflicts;
        stats.sat_budget_exhausted += post.sat_budget_exhausted;
        stats.passes += post.passes;
        stats.gates_after = polished.num_gates() as u64;
        Some(polished)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewrite::optimize_cut_stats;
    use rms_logic::bench_suite;
    use rms_logic::sim::check_equivalence;

    fn bench_mig(name: &str) -> Mig {
        Mig::from_netlist(&bench_suite::build(name).unwrap())
    }

    const SAMPLES: &[&str] = &["rd53_f2", "9sym_d", "con1_f1", "sao2_f4", "exam3_d"];

    #[test]
    fn sweep_scripts_preserve_functions_and_beat_cut() {
        let opts = OptOptions::with_effort(6);
        for name in SAMPLES {
            let m = bench_mig(name);
            let (cut, _) = optimize_cut_stats(&m, &opts);
            for passes in [SweepPasses::FRAIG, SweepPasses::RESUB, SweepPasses::BOTH] {
                let (out, stats) = optimize_sweep_stats(&m, &opts, passes);
                assert!(
                    out.num_gates() <= cut.num_gates(),
                    "{name}: sweep {} > cut {}",
                    out.num_gates(),
                    cut.num_gates()
                );
                assert_eq!(stats.gates_after, out.num_gates() as u64);
                let res = check_equivalence(&m.to_netlist(), &out.to_netlist());
                assert!(res.holds(), "{name}: {res:?}");
            }
        }
    }

    #[test]
    fn effort_zero_skips_post_passes() {
        let m = bench_mig("exam3_d");
        let (out, stats) = optimize_sweep_stats(&m, &OptOptions::with_effort(0), SweepPasses::BOTH);
        assert_eq!(stats.fraig_merges + stats.resubs, 0);
        let res = check_equivalence(&m.to_netlist(), &out.to_netlist());
        assert!(res.holds(), "{res:?}");
    }
}
