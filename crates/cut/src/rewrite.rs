//! The cut-rewriting driver: Algorithm 5 and the hybrid cut+RRAM script.
//!
//! One **rewrite round** walks the graph in topological order rebuilding
//! it into a fresh, structurally hashed [`Mig`]. For every majority node
//! it considers each enumerated cut, canonicalizes the cut function
//! ([`crate::npn`]), and compares the database implementation
//! ([`mod@crate::database`]) against the node's **MFFC** (maximum fanout-free
//! cone) with respect to the cut — the set of nodes that would become
//! dead if the node were re-expressed over the cut leaves. The candidate
//! with the best estimated gain is instantiated tentatively; the *actual*
//! node count added (structural hashing may share most of it) decides
//! acceptance. Zero-gain replacements are accepted on request to hop
//! between equal-size structures and escape local minima; losing
//! candidates simply stay unreferenced and vanish in the final
//! [`Mig::compact`].
//!
//! This rebuild round is the reference oracle of the in-place engine
//! ([`crate::incremental`], the default [`Engine::Incremental`]) and the
//! only round of the hybrid cut+RRAM script. The cycle scripts themselves
//! ([`rms_core::opt::cut_script`] and [`rms_core::opt::cut_rram_script`])
//! live in `rms-core`; this module plugs the database round into them and
//! exposes the user-facing [`optimize_cut`] / [`optimize_cut_rram`]
//! drivers.

use crate::cuts;
use crate::database::database;
use crate::incremental::cut_script_inplace;
use crate::npn;
use rms_core::opt::{cut_rram_script, cut_script, OptOptions, OptStats};
use rms_core::{Mig, MigNode, MigSignal, Realization};

/// The reference-oracle selector of [`optimize_cut_stats_engine`]: a
/// library-level switch for differential tests and profiles. No user
/// surface exposes it; Algorithm 5 always runs the in-place round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The in-place round (default): every round evaluates fixed-size
    /// windows of the persistent graph and splices accepted rewrites
    /// into it ([`crate::incremental::round_windowed`]).
    #[default]
    Incremental,
    /// The rebuild round: every round re-enumerates all cuts and
    /// rebuilds the graph into a fresh [`Mig`] ([`rewrite_round`]). Kept
    /// as the reference oracle and the measured baseline of
    /// `rms bench --profile`.
    Rebuild,
}

/// Counters of one rewrite round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Non-trivial cuts inspected.
    pub cuts: u64,
    /// Candidates whose database entry beat (or tied) the MFFC.
    pub candidates: u64,
    /// Replacements accepted.
    pub rewrites: u64,
    /// Accepted replacements with zero net gain.
    pub zero_gain: u64,
    /// Candidates rejected by the simulation-signature spot-check
    /// (always 0 for a correct database; in-place engine only).
    pub sig_vetoes: u64,
    /// Nanoseconds enumerating cuts this round (see
    /// [`rms_core::opt::OptStats::t_cut_enum_ns`] for the parallel-sum
    /// caveat).
    pub t_cut_enum_ns: u64,
    /// Nanoseconds evaluating candidates (NPN + database + MFFC).
    pub t_eval_ns: u64,
    /// Nanoseconds in the sequential commit sweep.
    pub t_commit_ns: u64,
    /// Nanoseconds in end-of-round GC / derived-structure repair.
    pub t_gc_ns: u64,
}

/// Size of the maximum fanout-free cone of `root` with respect to
/// `leaves`: the number of majority nodes (including `root`) that no
/// longer have references from outside the cone once `root` is replaced.
fn mffc_size(mig: &Mig, refs: &mut [u32], root: usize, leaves: &[u32]) -> u32 {
    let mut count = 1u32;
    deref(mig, refs, root, leaves, &mut count);
    reref(mig, refs, root, leaves);
    count
}

fn is_boundary(mig: &Mig, node: usize, leaves: &[u32]) -> bool {
    leaves.contains(&(node as u32)) || mig.maj_children(node).is_none()
}

fn deref(mig: &Mig, refs: &mut [u32], node: usize, leaves: &[u32], count: &mut u32) {
    let Some(kids) = mig.maj_children(node) else {
        return;
    };
    for k in kids {
        let c = k.node();
        if is_boundary(mig, c, leaves) {
            continue;
        }
        refs[c] -= 1;
        if refs[c] == 0 {
            *count += 1;
            deref(mig, refs, c, leaves, count);
        }
    }
}

fn reref(mig: &Mig, refs: &mut [u32], node: usize, leaves: &[u32]) {
    let Some(kids) = mig.maj_children(node) else {
        return;
    };
    for k in kids {
        let c = k.node();
        if is_boundary(mig, c, leaves) {
            continue;
        }
        if refs[c] == 0 {
            reref(mig, refs, c, leaves);
        }
        refs[c] += 1;
    }
}

/// One full rewrite pass over the graph, against the process-wide
/// database.
///
/// Returns the rewritten (compacted) graph and the round counters. The
/// result always computes the same functions as the input; when
/// `accept_zero_gain` is false the gate count never increases.
pub fn rewrite_round(mig: &Mig, accept_zero_gain: bool) -> (Mig, RoundStats) {
    rewrite_round_with(database(), mig, accept_zero_gain)
}

/// [`rewrite_round`] against an explicit database (used by the database
/// builder itself to refine its own heuristic entries).
pub(crate) fn rewrite_round_with(
    db: &crate::database::Database,
    mig: &Mig,
    accept_zero_gain: bool,
) -> (Mig, RoundStats) {
    let cut_sets = cuts::enumerate(mig, cuts::MAX_CUTS_PER_NODE);
    let mut refs: Vec<u32> = mig.fanout_counts();
    let mut out = Mig::with_inputs(mig.name().to_string(), mig.num_inputs());
    let mut map: Vec<MigSignal> = Vec::with_capacity(mig.len());
    let mut stats = RoundStats::default();

    for idx in 0..mig.len() {
        let sig = match mig.node(idx) {
            MigNode::Const0 => MigSignal::FALSE,
            MigNode::Input(k) => out.input(k as usize),
            MigNode::Maj(kids) => {
                let conv = |s: MigSignal| map[s.node()].complement_if(s.is_complemented());
                let default = out.maj(conv(kids[0]), conv(kids[1]), conv(kids[2]));
                if refs[idx] == 0 {
                    // Dead in the source graph; nothing can gain from it.
                    map.push(default);
                    continue;
                }
                // Best candidate by estimated gain (MFFC vs database size).
                let mut best: Option<(i64, cuts::Cut, usize, u16, i64)> = None;
                for &cut in cut_sets[idx].iter() {
                    if cut.is_trivial(idx) || cut.leaves().is_empty() {
                        continue;
                    }
                    stats.cuts += 1;
                    let (class, t) = npn::canonicalize(cut.tt);
                    let entry = db.entry(class);
                    let mffc = mffc_size(mig, &mut refs, idx, cut.leaves()) as i64;
                    let gain = mffc - entry.gates() as i64;
                    if gain < 0 || (gain == 0 && !accept_zero_gain) {
                        continue;
                    }
                    stats.candidates += 1;
                    if best.is_none_or(|(bg, ..)| gain > bg) {
                        best = Some((gain, cut, t, class, mffc));
                    }
                }
                match best {
                    None => default,
                    Some((_, cut, t, class, freed)) => {
                        // Instantiate tentatively; the nodes actually added
                        // (after structural hashing) decide acceptance.
                        let inv = npn::invert(t);
                        let tr = npn::transform(inv);
                        let mut inputs = [MigSignal::FALSE; 4];
                        for (i, slot) in inputs.iter_mut().enumerate() {
                            let li = tr.perm[i] as usize;
                            // Transform slots beyond the leaf count are
                            // irrelevant variables; any constant works.
                            let base = match cut.leaves().get(li) {
                                Some(&leaf) => map[leaf as usize],
                                None => MigSignal::FALSE,
                            };
                            *slot = base.complement_if((tr.flips >> i) & 1 == 1);
                        }
                        let len_before = out.len();
                        let cand = db
                            .entry(class)
                            .instantiate(&mut out, inputs)
                            .complement_if(tr.negate_output);
                        let added = (out.len() - len_before) as i64;
                        let real_gain = freed - added;
                        if real_gain > 0 || (real_gain == 0 && accept_zero_gain) {
                            stats.rewrites += 1;
                            if real_gain == 0 {
                                stats.zero_gain += 1;
                            }
                            cand
                        } else {
                            default
                        }
                    }
                }
            }
        };
        map.push(sig);
    }
    for (name, o) in mig.outputs() {
        out.add_output(
            name.clone(),
            map[o.node()].complement_if(o.is_complemented()),
        );
    }
    (out.compact(), stats)
}

/// Algorithm 5 — cut-based rewriting with the node-count objective,
/// on the default in-place incremental engine.
pub fn optimize_cut(mig: &Mig, opts: &OptOptions) -> Mig {
    optimize_cut_stats(mig, opts).0
}

/// [`optimize_cut`] with run statistics.
pub fn optimize_cut_stats(mig: &Mig, opts: &OptOptions) -> (Mig, OptStats) {
    optimize_cut_stats_engine(mig, opts, Engine::default())
}

/// [`optimize_cut_stats`] on an explicit engine.
///
/// [`Engine::Rebuild`] is the pre-incremental driver
/// ([`rms_core::opt::cut_script`] over [`rewrite_round`]) kept as the
/// reference oracle and the measured perf baseline.
pub fn optimize_cut_stats_engine(mig: &Mig, opts: &OptOptions, engine: Engine) -> (Mig, OptStats) {
    match engine {
        Engine::Incremental => cut_script_inplace(mig, opts),
        Engine::Rebuild => {
            let mut round = |m: &Mig, zero_gain: bool| {
                let (out, st) = rewrite_round(m, zero_gain);
                (out, st.rewrites)
            };
            cut_script(mig, opts, &mut round)
        }
    }
}

/// The hybrid script: cut rewriting interleaved with the paper's Alg. 3
/// passes, scored by the `R·S` product for `realization`. Never scores
/// worse than [`rms_core::opt::optimize_rram`].
pub fn optimize_cut_rram(mig: &Mig, realization: Realization, opts: &OptOptions) -> Mig {
    optimize_cut_rram_stats(mig, realization, opts).0
}

/// [`optimize_cut_rram`] with run statistics.
pub fn optimize_cut_rram_stats(
    mig: &Mig,
    realization: Realization,
    opts: &OptOptions,
) -> (Mig, OptStats) {
    let mut round = |m: &Mig, zero_gain: bool| {
        let (out, st) = rewrite_round(m, zero_gain);
        (out, st.rewrites)
    };
    let (best, mut stats) = cut_rram_script(mig, realization, opts, &mut round);
    if opts.effort == 0 {
        return (best, stats);
    }
    // Final stage: fraig + resub polish, kept only when the R·S product
    // improves — the hybrid stays never-worse than plain Alg. 3.
    match crate::sweep::rram_polish(&best, realization, &mut stats, &opts.cancel) {
        Some(polished) => (polished, stats),
        None => (best, stats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rms_core::cost::RramCost;
    use rms_core::opt::{optimize_area, optimize_rram};
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
    fn round_preserves_function_and_never_grows() {
        for name in SAMPLES {
            let m = bench_mig(name).compact();
            for zero_gain in [false, true] {
                let (r, _) = rewrite_round(&m, zero_gain);
                assert_equiv(&m, &r, name);
                if !zero_gain {
                    assert!(r.num_gates() <= m.num_gates(), "{name}");
                }
            }
        }
    }

    #[test]
    fn rewriting_finds_the_majority_gate() {
        // M(a, b, c) spelled as its full sum-of-products: five gates that a
        // single database lookup collapses to one majority node.
        let mut m = Mig::with_inputs("maj_sop", 3);
        let (a, b, c) = (m.input(0), m.input(1), m.input(2));
        let ab = m.and(a, b);
        let ac = m.and(a, c);
        let bc = m.and(b, c);
        let o1 = m.or(ab, ac);
        let o2 = m.or(o1, bc);
        m.add_output("f", o2);
        assert_eq!(m.num_gates(), 5);
        let (r, stats) = rewrite_round(&m, false);
        assert_equiv(&m, &r, "maj_sop");
        assert_eq!(r.num_gates(), 1, "{stats:?}");
        assert!(stats.rewrites >= 1);
    }

    #[test]
    fn optimize_cut_preserves_function() {
        let opts = OptOptions::with_effort(4);
        for name in SAMPLES {
            let m = bench_mig(name);
            let o = optimize_cut(&m, &opts);
            assert_equiv(&m, &o, name);
            assert!(o.num_gates() <= m.num_gates(), "{name}");
        }
    }

    #[test]
    fn optimize_cut_not_worse_than_area_in_aggregate() {
        let opts = OptOptions::with_effort(6);
        let mut cut_total = 0u64;
        let mut area_total = 0u64;
        let mut wins = 0usize;
        for name in SAMPLES {
            let m = bench_mig(name);
            let cut = optimize_cut(&m, &opts).num_gates() as u64;
            let area = optimize_area(&m, &opts).num_gates() as u64;
            cut_total += cut;
            area_total += area;
            if cut <= area {
                wins += 1;
            }
        }
        assert!(
            cut_total <= area_total,
            "cut {cut_total} gates vs area {area_total}"
        );
        assert!(wins * 2 >= SAMPLES.len(), "{wins}/{} wins", SAMPLES.len());
    }

    #[test]
    fn hybrid_never_scores_worse_than_rram_opt() {
        let opts = OptOptions::with_effort(5);
        for name in SAMPLES {
            let m = bench_mig(name);
            for real in Realization::ALL {
                let hybrid = optimize_cut_rram(&m, real, &opts);
                assert_equiv(&m, &hybrid, name);
                let base = optimize_rram(&m, real, &opts);
                let ch = RramCost::of(&hybrid, real);
                let cb = RramCost::of(&base, real);
                assert!(
                    ch.rrams.saturating_mul(ch.steps) <= cb.rrams.saturating_mul(cb.steps),
                    "{name}/{real}: hybrid {ch} vs base {cb}"
                );
            }
        }
    }

    #[test]
    fn stats_report_rewrites() {
        let m = bench_mig("exam3_d");
        let (o, stats) = optimize_cut_stats(&m, &OptOptions::with_effort(4));
        assert_eq!(stats.gates_before, m.num_gates() as u64);
        assert_eq!(stats.gates_after, o.num_gates() as u64);
        assert!(stats.cycles >= 1);
        assert!(stats.passes > stats.cycles as u64);
    }
}
