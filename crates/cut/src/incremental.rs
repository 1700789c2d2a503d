//! The in-place cut-rewriting engine: the rewrite round of every cut
//! script.
//!
//! The rebuild round in [`crate::rewrite`], kept as the test oracle,
//! re-enumerates every cut of the whole graph and rebuilds the graph
//! into a fresh [`Mig`]. This module runs the same NPN-database round on
//! a persistent [`IncrementalMig`] instead:
//!
//! - the topological order is carved into fixed-size windows
//!   ([`WINDOW_NODES`]); each window enumerates its cuts afresh every
//!   round and selects at most one candidate per node, on `jobs` scoped
//!   workers — a graph of at most one window runs inline,
//! - accepted rewrites are committed in one sequential mapped sweep in
//!   topological order, which splices the database structure into the
//!   graph and collects whatever became unreachable, and
//! - the node's cached 64-lane simulation signature vetoes any candidate
//!   whose instantiated structure does not match the node it replaces —
//!   a constant-time functional spot-check in front of the structural
//!   argument (and of any later SAT verification).
//!
//! Nothing is cached across rounds, so there is no invalidation rule to
//! get wrong. On a graph that fits in one window the round makes the
//! same decisions as the rebuild round; `tests/incremental.rs` checks
//! gate count and depth against it on every embedded benchmark.

use crate::cuts::{self, compute_maj_cuts, leaf_cuts, Cut, CutList};
use crate::database::{database, Database};
use crate::npn;
use crate::rewrite::RoundStats;
use rms_core::fanout::{eliminate_inplace, reshape_inplace};
use rms_core::opt::{OptOptions, OptStats};
use rms_core::par::par_map_threads;
use rms_core::rewrite::eliminate;
use rms_core::{IncrementalMig, Mig, MigNode, MigSignal};

/// A window's per-node winner: the best round-start cut of a node,
/// pre-canonicalized, with its pristine MFFC size. Everything the commit
/// sweep needs — the window's cut lists are dropped before it runs.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    cut: Cut,
    /// NPN transform index of the canonicalization.
    t: usize,
    /// NPN class of the cut function.
    class: u16,
    /// MFFC size on the pristine round-start graph.
    mffc: i64,
}

/// The sequential commit phase of [`round_windowed`]: the mapped
/// topological sweep over precomputed per-node candidates, with `cands`
/// aligned with `order`.
///
/// Commit order is the topological order itself — fixed before any
/// worker runs — which is what makes the windowed round bit-identical
/// for every worker count. Unlike the Ω passes of
/// [`rms_core::fanout`], the sweep builds a node's default image
/// *before* it instantiates the node's candidate, so a candidate can
/// share with that image.
fn commit_sweep(
    g: &mut IncrementalMig,
    db: &Database,
    order: &[u32],
    cands: &[Option<Candidate>],
    accept_zero_gain: bool,
    stats: &mut RoundStats,
) {
    g.begin_mapped_round();
    let mut map: Vec<MigSignal> = (0..g.len()).map(|i| MigSignal::new(i, false)).collect();
    for (pos, &idx) in order.iter().enumerate() {
        let idx = idx as usize;
        let MigNode::Maj(kids) = g.node(idx) else {
            continue;
        };
        let conv = kids.map(|k| map[k.node()].complement_if(k.is_complemented()));
        let image = match g.rechild_to(idx, conv) {
            rms_core::fanout::Rechild::Superseded(s) => s,
            _ => MigSignal::new(idx, false),
        };
        map[idx] = image;
        let Some(Candidate {
            cut,
            t,
            class,
            mffc: freed,
        }) = cands[pos]
        else {
            continue;
        };
        // Instantiate tentatively; the nodes actually added (after
        // structural hashing against the whole graph, replaced
        // structures included) decide acceptance.
        let inv = npn::invert(t);
        let tr = npn::transform(inv);
        let mut inputs = [MigSignal::FALSE; 4];
        for (i, slot) in inputs.iter_mut().enumerate() {
            let li = tr.perm[i] as usize;
            let base = match cut.leaves().get(li) {
                Some(&leaf) => map[leaf as usize],
                None => MigSignal::FALSE,
            };
            *slot = base.complement_if((tr.flips >> i) & 1 == 1);
        }
        let len_before = g.len();
        let cand = db
            .entry(class)
            .instantiate(g, inputs)
            .complement_if(tr.negate_output);
        let added = (g.len() - len_before) as i64;
        // Word-parallel signature spot-check: the candidate must agree
        // with the node on all 64 cached simulation lanes. This never
        // fires for a correct database — it is a constant-time guard in
        // front of the map update (and of any SAT verification later).
        if g.sig_of(cand) != g.sig_of(MigSignal::new(idx, false)) {
            stats.sig_vetoes += 1;
            g.undo_tail(len_before);
            continue;
        }
        let real_gain = freed - added;
        if real_gain > 0 || (real_gain == 0 && accept_zero_gain) {
            stats.rewrites += 1;
            if real_gain == 0 {
                stats.zero_gain += 1;
            }
            map[idx] = cand;
        } else {
            g.undo_tail(len_before);
        }
    }
    g.finish_mapped_round(&map);
}

/// Nodes per window of the partition-parallel round.
///
/// Fixed — never derived from the worker count. The partition defines
/// the frozen window boundaries and therefore every window's cut sets
/// and candidates; `--jobs` only decides how many windows are evaluated
/// concurrently, never what any window computes, so results are
/// bit-identical for every worker count by construction.
pub const WINDOW_NODES: usize = 4096;

/// One window's evaluation result (cut enumeration + candidate
/// selection over the frozen partition), plus its share of the round
/// counters.
struct WindowEval {
    cands: Vec<Option<Candidate>>,
    cuts: u64,
    candidates: u64,
}

/// Marks a node-indexed slot of [`RefOverlay`] and of the window index
/// that holds no value.
const UNSET: u32 = u32::MAX;

/// A lazy local copy of the graph's reference counts for
/// [`mffc_size_frozen`]: a node-indexed array whose slots are filled on
/// first touch, plus the list of touched slots, which is reset after
/// every call. Allocated once per window.
struct RefOverlay {
    refs: Vec<u32>,
    touched: Vec<u32>,
}

impl RefOverlay {
    fn new(len: usize) -> RefOverlay {
        RefOverlay {
            refs: vec![UNSET; len],
            touched: Vec::new(),
        }
    }

    /// Decrements the overlay count of `node`, first loading it from `g`,
    /// and returns the new count.
    fn deref(&mut self, g: &IncrementalMig, node: usize) -> u32 {
        let r = &mut self.refs[node];
        if *r == UNSET {
            *r = g.refs(node);
            self.touched.push(node as u32);
        }
        *r -= 1;
        *r
    }

    fn reset(&mut self) {
        for &n in &self.touched {
            self.refs[n as usize] = UNSET;
        }
        self.touched.clear();
    }
}

/// MFFC size of `root` with respect to `leaves` on a **shared** graph:
/// the recursive deref walk of [`IncrementalMig::mffc_size`], but
/// against a lazy local refcount overlay instead of mutating the
/// graph's counts — windows evaluate concurrently on `&IncrementalMig`.
/// The cone of a window-local cut never leaves the window (out-of-window
/// children are always cut leaves), so the overlay stays small.
fn mffc_size_frozen(g: &IncrementalMig, root: usize, leaves: &[u32], refs: &mut RefOverlay) -> u32 {
    fn deref(
        g: &IncrementalMig,
        node: usize,
        leaves: &[u32],
        refs: &mut RefOverlay,
        count: &mut u32,
    ) {
        let Some(kids) = g.maj_children(node) else {
            return;
        };
        for k in kids {
            let c = k.node();
            if leaves.contains(&(c as u32)) || g.maj_children(c).is_none() {
                continue;
            }
            if refs.deref(g, c) == 0 {
                *count += 1;
                deref(g, c, leaves, refs, count);
            }
        }
    }
    let mut count = 1u32;
    deref(g, root, leaves, refs, &mut count);
    refs.reset();
    count
}

/// Evaluates one window: enumerates window-local cuts (children outside
/// the window are frozen to leaf cuts, exactly like primary inputs) and
/// selects at most one gain-filtered candidate per node — the same
/// decision procedure as [`crate::rewrite::rewrite_round`], restricted
/// to the window. Runs on a shared `&IncrementalMig`; mutates nothing.
fn eval_window(
    g: &IncrementalMig,
    db: &Database,
    window: &[u32],
    accept_zero_gain: bool,
    cancel: &rms_core::CancelToken,
) -> WindowEval {
    // Window boundaries are the fine-grained cancellation checkpoints of
    // the partition-parallel round: a cancelled window yields no
    // candidates, so the round drains quickly and the (possibly partial)
    // cycle result is discarded by the script's post-cycle cancel check.
    if cancel.cancelled() {
        return WindowEval {
            cands: vec![None; window.len()],
            cuts: 0,
            candidates: 0,
        };
    }
    // Node -> position in the window, UNSET outside it.
    let mut local = vec![UNSET; g.len()];
    for (p, &idx) in window.iter().enumerate() {
        local[idx as usize] = p as u32;
    }
    let mut lists: Vec<CutList> = Vec::with_capacity(window.len());
    let mut scratch = Vec::new();
    let mut refs = RefOverlay::new(g.len());
    let mut out = WindowEval {
        cands: vec![None; window.len()],
        cuts: 0,
        candidates: 0,
    };
    for (p, &idx) in window.iter().enumerate() {
        let idx = idx as usize;
        let MigNode::Maj(kids) = g.node(idx) else {
            lists.push(CutList::default());
            continue;
        };
        let mut cls = [CutList::default(); 3];
        for (slot, k) in cls.iter_mut().zip(kids) {
            *slot = match local[k.node()] {
                UNSET => leaf_cuts(k.node(), matches!(g.node(k.node()), MigNode::Const0)),
                lp => lists[lp as usize],
            };
        }
        let list = compute_maj_cuts(
            idx,
            kids,
            cls[0].as_slice(),
            cls[1].as_slice(),
            cls[2].as_slice(),
            cuts::MAX_CUTS_PER_NODE,
            &mut scratch,
        );
        lists.push(list);
        let mut best: Option<(i64, Candidate)> = None;
        for &cut in list.iter() {
            if cut.is_trivial(idx) || cut.leaves().is_empty() {
                continue;
            }
            out.cuts += 1;
            let (class, t) = npn::canonicalize(cut.tt);
            let entry = db.entry(class);
            let mffc = mffc_size_frozen(g, idx, cut.leaves(), &mut refs) as i64;
            let gain = mffc - entry.gates() as i64;
            if gain < 0 || (gain == 0 && !accept_zero_gain) {
                continue;
            }
            out.candidates += 1;
            if best.is_none_or(|(bg, _)| gain > bg) {
                best = Some((
                    gain,
                    Candidate {
                        cut,
                        t,
                        class,
                        mffc,
                    },
                ));
            }
        }
        out.cands[p] = best.map(|(_, c)| c);
    }
    out
}

/// The partition-parallel rewrite round: carve the topological order
/// into fixed-size windows ([`WINDOW_NODES`]), evaluate every window's
/// candidates concurrently on `jobs` scoped workers
/// ([`rms_core::par::par_map_threads`]), then commit all accepted
/// rewrites in one sequential mapped sweep over the full order.
///
/// Window boundaries are frozen during evaluation: a child outside the
/// window contributes only its trivial leaf cut, so no cut, MFFC cone,
/// or candidate ever crosses a window — workers share the graph
/// read-only. A graph of at most [`WINDOW_NODES`] nodes is one window,
/// sees every cut, and runs inline on the calling thread.
///
/// Determinism: the partition depends only on the topological order,
/// the per-window evaluation is pure, and the commit phase runs
/// sequentially in topological order — so the result is bit-identical
/// for every `jobs` value.
pub fn round_windowed(
    g: &mut IncrementalMig,
    db: &Database,
    accept_zero_gain: bool,
    jobs: usize,
    cancel: &rms_core::CancelToken,
) -> RoundStats {
    let mut stats = RoundStats::default();
    let order = g.topo_order();
    let windows: Vec<&[u32]> = order.chunks(WINDOW_NODES).collect();
    let shared: &IncrementalMig = g;
    let evals = par_map_threads(&windows, jobs, |win| {
        eval_window(shared, db, win, accept_zero_gain, cancel)
    });
    let mut cands: Vec<Option<Candidate>> = Vec::with_capacity(order.len());
    for e in evals {
        stats.cuts += e.cuts;
        stats.candidates += e.candidates;
        cands.extend(e.cands);
    }
    commit_sweep(g, db, &order, &cands, accept_zero_gain, &mut stats);
    stats
}

/// The worker count of [`round_windowed`] for `opts`: [`OptOptions::jobs`],
/// with `0` meaning [`rms_core::par::num_threads`].
pub(crate) fn resolve_jobs(opts: &OptOptions) -> usize {
    if opts.jobs == 0 {
        rms_core::par::num_threads()
    } else {
        opts.jobs
    }
}

/// Consecutive cycles without a new best iterate after which
/// [`cut_script_inplace`] stops. It bounds the gap between two
/// improvements of the best `(gates, depth)`, not the cycle of the last
/// one: on Table II the last best comes at cycle 34 (apex4), 22 (misex3,
/// seq) and 20 (apex1). The reshape pass alternates its push direction
/// every cycle, so an unchanged fingerprint alone rarely ends the loop.
pub const STAGNATION_WINDOW: usize = 8;

/// Algorithm 5: per cycle eliminate; one rewrite round with zero-gain
/// hops on odd cycles; eliminate; reshape (alternating direction);
/// eliminate; the best iterate by `(gates, depth)` is returned after a
/// final eliminate. Every pass splices one persistent graph, with
/// [`round_windowed`] as its rewrite round, and the cycle loop stops
/// early when a cycle leaves the fingerprint unchanged or after
/// [`STAGNATION_WINDOW`] consecutive cycles without improvement.
pub fn cut_script_inplace(mig: &Mig, opts: &OptOptions) -> (Mig, OptStats) {
    let db = database();
    let compacted = mig.compact();
    let jobs = resolve_jobs(opts);
    let mut g = IncrementalMig::from_mig(&compacted);
    let mut best = compacted;
    let mut best_score = (best.num_gates(), best.depth());
    let mut cycles = 0usize;
    let mut rewrites = 0u64;
    let mut stale = 0usize;
    let mut cancelled = false;
    // One fingerprint per cycle, carried over — not two.
    let mut fp = g.fingerprint();
    for c in 0..opts.effort {
        if opts.cancel.cancelled() {
            cancelled = true;
            break;
        }
        eliminate_inplace(&mut g);
        rewrites += round_windowed(&mut g, db, c % 2 == 1, jobs, &opts.cancel).rewrites;
        eliminate_inplace(&mut g);
        reshape_inplace(&mut g, c % 2 == 0);
        eliminate_inplace(&mut g);
        cycles = c + 1;
        // A cancel that fired mid-cycle may have truncated the round: the
        // iterate is functionally correct but not one a completed run
        // could produce, so never let it become `best`.
        if opts.cancel.cancelled() {
            cancelled = true;
            break;
        }
        let score = (g.num_gates(), g.depth());
        if score < best_score {
            best_score = score;
            best = g.to_mig();
            stale = 0;
        } else {
            stale += 1;
        }
        let new_fp = g.fingerprint();
        if new_fp == fp || stale >= STAGNATION_WINDOW {
            break;
        }
        fp = new_fp;
    }
    let out = eliminate(&best);
    let stats = OptStats {
        cycles,
        passes: cycles as u64 * 5 + 1,
        rewrites,
        gates_before: mig.num_gates() as u64,
        gates_after: out.num_gates() as u64,
        peak_nodes: g.peak_len() as u64,
        cancelled,
        ..OptStats::default()
    };
    (out, stats)
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
    fn inplace_round_preserves_function() {
        let db = database();
        for name in SAMPLES {
            let m = bench_mig(name).compact();
            for zero_gain in [false, true] {
                let mut g = IncrementalMig::from_mig(&m);
                let st =
                    round_windowed(&mut g, db, zero_gain, 1, &rms_core::CancelToken::default());
                g.assert_consistent();
                assert_eq!(st.sig_vetoes, 0, "{name}: database produced a veto");
                let r = g.to_mig();
                assert_equiv(&m, &r, name);
                if !zero_gain {
                    assert!(r.num_gates() <= m.num_gates(), "{name}");
                }
            }
        }
    }

    #[test]
    fn frozen_mffc_matches_the_live_mffc_on_every_cut() {
        // The array overlay (reused across cuts, reset per call) against
        // the graph's own deref/reref walk.
        for name in SAMPLES.iter().chain(&["t481_d", "max46_d"]) {
            let m = bench_mig(name).compact();
            let mut g = IncrementalMig::from_mig(&m);
            let mut overlay = RefOverlay::new(g.len());
            let mut checked = 0usize;
            for (node, cuts) in cuts::enumerate(&m, cuts::MAX_CUTS_PER_NODE)
                .iter()
                .enumerate()
            {
                if g.maj_children(node).is_none() {
                    continue;
                }
                for cut in cuts.iter() {
                    let frozen = mffc_size_frozen(&g, node, cut.leaves(), &mut overlay);
                    assert_eq!(
                        frozen,
                        g.mffc_size(node, cut.leaves()),
                        "{name}: node {node}, leaves {:?}",
                        cut.leaves()
                    );
                    checked += 1;
                }
            }
            assert!(overlay.touched.is_empty());
            assert!(
                overlay.refs.iter().all(|&r| r == UNSET),
                "{name}: overlay not reset"
            );
            assert!(checked > 0, "{name}: no cuts");
        }
    }

    #[test]
    fn inplace_round_finds_the_majority_gate() {
        // Same canary as the rebuild engine: a 5-gate majority
        // sum-of-products collapses to one node.
        let mut m = Mig::with_inputs("maj_sop", 3);
        let (a, b, c) = (m.input(0), m.input(1), m.input(2));
        let ab = m.and(a, b);
        let ac = m.and(a, c);
        let bc = m.and(b, c);
        let o1 = m.or(ab, ac);
        let o2 = m.or(o1, bc);
        m.add_output("f", o2);
        let mut g = IncrementalMig::from_mig(&m.compact());
        let st = round_windowed(
            &mut g,
            database(),
            false,
            1,
            &rms_core::CancelToken::default(),
        );
        assert!(st.rewrites >= 1, "{st:?}");
        assert_eq!(g.num_gates(), 1, "{st:?}");
        assert_equiv(&m, &g.to_mig(), "maj_sop");
    }

    #[test]
    fn script_quality_not_worse_than_rebuild_engine() {
        // At the paper's effort the in-place script (same rounds, plus
        // the stagnation cutoff) must not lose in aggregate to the same
        // cycle run on the rebuild round inside the plain best-iterate
        // loop.
        use rms_core::opt::drive;
        use rms_core::rewrite::reshape;
        let opts = OptOptions::with_effort(40);
        let mut inplace_total = 0u64;
        let mut rebuild_total = 0u64;
        for name in SAMPLES {
            let m = bench_mig(name);
            let (inc, _) = cut_script_inplace(&m, &opts);
            let (reb, _, _) = drive(
                &m,
                &opts,
                |m| (m.num_gates(), m.depth()),
                |m, c| {
                    let m = eliminate(m);
                    let (m, _) = crate::rewrite::rewrite_round(&m, c % 2 == 1);
                    let m = eliminate(&m);
                    let m = reshape(&m, c % 2 == 0);
                    eliminate(&m)
                },
            );
            let reb = eliminate(&reb);
            assert_equiv(&m, &inc, name);
            inplace_total += inc.num_gates() as u64;
            rebuild_total += reb.num_gates() as u64;
        }
        assert!(
            inplace_total <= rebuild_total,
            "in-place {inplace_total} gates vs rebuild {rebuild_total}"
        );
    }
}
