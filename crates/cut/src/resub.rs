//! Windowed Boolean resubstitution: re-express a node over existing
//! divisors, proved by SAT before anything is touched.
//!
//! For every gate `n` the pass collects a fanout-bounded **window** of
//! divisor candidates around `n`: its transitive fanin up to a size cap,
//! plus reconvergent siblings (fanouts of window nodes at a level no
//! greater than `n`'s, which therefore cannot lie in `n`'s transitive
//! fanout). The don't-cares of the window come from its inputs: two
//! window functions only need to agree on value combinations the window
//! inputs can actually produce — which is exactly what both the
//! word-parallel simulation filter (patterns are reachable by
//! construction) and the global cone miter check. Because every divisor
//! is itself a function of the primary inputs, a proved window
//! substitution is a proved global equivalence.
//!
//! Two substitution shapes are tried, mirroring mockturtle's 0/1-resub:
//!
//! * **0-resub** — replace `n` with an existing divisor (possibly
//!   complemented), freeing `n`'s MFFC;
//! * **1-resub** — replace `n` with a single new majority over three
//!   divisors (the constant divisor makes this cover AND/OR shapes),
//!   accepted only when the freed MFFC strictly outweighs the one added
//!   node. Divisors as boundary leaves can only shrink the MFFC, so a
//!   node whose whole MFFC is a single gate skips the search outright.
//!
//! Candidates must pass the simulation filter on every lane (lane 0 is
//! the engine's signature cache, so this subsumes the incremental
//! engine's signature veto), then a bounded-conflict SAT proof; budget
//! exhaustion rejects the substitution. Counterexamples from refuted
//! candidates are fed back as new simulation lanes, sharpening the
//! filter for later nodes. The pass is fully deterministic.
//!
//! The 1-resub triple search is the pass's inner loop. It reads each
//! divisor's lane-0 word from a local array and prunes whole divisor
//! pairs that cannot reach the target on lane 0 (see `search_triples`),
//! which skips exactly the triples the lane-0 filter would reject: the
//! candidates, their order and every SAT call are those of the plain
//! scan. Divisor windows are collected with one generation-stamped visit
//! array for the whole pass.

use crate::fraig::{append_cex_lane, init_sim, prove_signals, ProveOutcome};
use rms_core::{IncrementalMig, MajBuilder, MigNode, MigSignal};
use std::ops::ControlFlow;

/// Divisor window size cap per node.
const MAX_DIVISORS: usize = 24;

/// Conflict budget per substitution proof.
const CONFLICT_BUDGET: u64 = 10_000;

/// Options of the resubstitution pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResubOptions {
    /// Cooperative cancellation, polled at window (per-node) boundaries;
    /// accepted substitutions are individually SAT-proved, so stopping
    /// between windows leaves a correct graph.
    pub cancel: rms_core::CancelToken,
}

/// Counters of one resubstitution pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResubStats {
    /// Substitution proofs attempted.
    pub candidates: u64,
    /// Substitutions proved by SAT and committed.
    pub accepted: u64,
    /// Candidates whose engine signature disagreed (vetoed pre-SAT).
    pub sig_vetoes: u64,
    /// Candidates refuted by a counterexample.
    pub refuted: u64,
    /// Proofs abandoned at the conflict budget (substitution rejected).
    pub budget_exhausted: u64,
    /// Total SAT conflicts spent.
    pub sat_conflicts: u64,
}

/// Visit marks of [`collect_divisors`], reused across every node of a
/// pass: a node is marked for the current call when its stamp equals
/// the current generation, so starting a new window costs one increment
/// instead of an O(graph) clear.
#[derive(Default)]
struct Stamps {
    stamp: Vec<u32>,
    generation: u32,
}

impl Stamps {
    /// Starts a new generation covering nodes `0..len`.
    fn start(&mut self, len: usize) {
        if self.stamp.len() < len {
            self.stamp.resize(len, 0);
        }
        if self.generation == u32::MAX {
            self.stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
    }

    /// Marks `node`; returns whether it was unmarked.
    fn mark(&mut self, node: usize) -> bool {
        let fresh = self.stamp[node] != self.generation;
        self.stamp[node] = self.generation;
        fresh
    }

    fn is_marked(&self, node: usize) -> bool {
        self.stamp[node] == self.generation
    }
}

/// Collects the divisor window of `n`: constant, bounded transitive
/// fanin, and reconvergent siblings, all at level <= `n`'s (so none can
/// be in `n`'s transitive fanout and substitution stays acyclic).
fn collect_divisors(g: &IncrementalMig, n: usize, cap: usize, seen: &mut Stamps) -> Vec<usize> {
    let level_n = g.level(n);
    let mut divisors = vec![0usize];
    seen.start(g.len());
    seen.mark(0);
    seen.mark(n);
    let mut queue: Vec<usize> = Vec::new();
    if let Some(kids) = g.maj_children(n) {
        for kid in kids {
            if seen.mark(kid.node()) {
                queue.push(kid.node());
            }
        }
    }
    let mut head = 0;
    while head < queue.len() && divisors.len() < cap {
        let d = queue[head];
        head += 1;
        if g.is_dead(d) || g.level(d) > level_n {
            continue;
        }
        divisors.push(d);
        // Deeper fanin of the window.
        if let Some(kids) = g.maj_children(d) {
            for kid in kids {
                if seen.mark(kid.node()) {
                    queue.push(kid.node());
                }
            }
        }
        // Reconvergent siblings: fanouts of the window node that are no
        // deeper than `n` itself.
        for &p in g.fanouts(d) {
            let p = p as usize;
            if !seen.is_marked(p) && !g.is_dead(p) && g.level(p) <= level_n {
                seen.mark(p);
                queue.push(p);
            }
        }
    }
    divisors
}

/// The simulation vector of a divisor signal on all lanes, compared
/// lazily; returns true when `sig`'s vector equals `target` on every
/// lane, with `phase` complementing.
fn lanes_match(sim: &[Vec<u64>], sig: usize, phase: bool, target: &[u64]) -> bool {
    let row = &sim[sig];
    let mask = if phase { !0u64 } else { 0 };
    row.iter().zip(target).all(|(&w, &t)| w ^ mask == t)
}

/// Runs one windowed resubstitution pass over `g`.
pub fn resub_pass(g: &mut IncrementalMig, opts: &ResubOptions) -> ResubStats {
    run_pass(g, opts, true)
}

/// [`resub_pass`]; without `mffc_bound` the 1-resub search also runs on
/// nodes whose MFFC cannot pay for a new gate (the test reference).
fn run_pass(g: &mut IncrementalMig, opts: &ResubOptions, mffc_bound: bool) -> ResubStats {
    let mut stats = ResubStats::default();
    if g.num_gates() == 0 {
        return stats;
    }
    let topo = g.topo_order();
    let mut sim = init_sim(g, &topo);
    let mut cexes: Vec<Vec<bool>> = Vec::new();
    let mut stamps = Stamps::default();

    for &nu in &topo {
        if opts.cancel.cancelled() {
            break;
        }
        let n = nu as usize;
        if g.is_dead(n) || !matches!(g.node(n), MigNode::Maj(_)) {
            continue;
        }
        let divisors = collect_divisors(g, n, MAX_DIVISORS, &mut stamps);
        let target = sim[n].clone();

        // 0-resub: an existing divisor already computes n (mod phase).
        let mut done = false;
        for &d in &divisors {
            if d == n || g.is_dead(d) {
                continue;
            }
            for phase in [false, true] {
                if !lanes_match(&sim, d, phase, &target) {
                    continue;
                }
                let cand = MigSignal::new(d, phase);
                stats.candidates += 1;
                match try_substitute(g, n, cand, &mut stats) {
                    Verdict::Accepted => {
                        done = true;
                    }
                    Verdict::Refuted(cex) => {
                        if cexes.len() < 64 {
                            cexes.push(cex);
                        }
                    }
                    Verdict::Rejected => {}
                }
                break;
            }
            if done {
                break;
            }
        }
        if done {
            continue;
        }

        // 1-resub: one new majority over three divisors. Needs the MFFC
        // to free at least two nodes so the net gain is >= 1. Divisors as
        // boundary leaves can only shrink the MFFC, so when the whole MFFC
        // of `n` frees fewer than two nodes every match would fail the
        // gain check: search no divisors at all. Liveness cannot change
        // before a commit, and a commit ends the search.
        let live: Vec<usize> = if mffc_bound && g.mffc_size(n, &[]) < 2 {
            Vec::new()
        } else {
            divisors
                .iter()
                .copied()
                .filter(|&d| !g.is_dead(d))
                .collect()
        };
        let rows: Vec<&[u64]> = live.iter().map(|&d| sim[d].as_slice()).collect();
        let accepted = search_triples(&rows, &target, |m| {
            let [pa, pb, pc] = m.phases();
            let (da, db, dc) = (live[m.i], live[m.j], live[m.k]);
            // Gain check on the pristine graph: the MFFC of n with the
            // three divisors as boundary must free more than the one node
            // we are about to add.
            let freed = g.mffc_size(n, &[da as u32, db as u32, dc as u32]);
            if freed < 2 {
                return ControlFlow::Continue(());
            }
            let len_before = g.len();
            let built = g.maj(
                MigSignal::new(da, pa),
                MigSignal::new(db, pb),
                MigSignal::new(dc, pc),
            );
            if built.node() == n {
                // Strashing found n itself — not a substitution.
                g.undo_tail(len_before);
                return ControlFlow::Continue(());
            }
            let cand = built.complement_if(m.out_phase);
            stats.candidates += 1;
            match try_substitute_built(g, n, cand, len_before, &mut stats) {
                Verdict::Accepted => {
                    ControlFlow::Break((built.node(), [(da, pa), (db, pb), (dc, pc)]))
                }
                Verdict::Refuted(cex) => {
                    if cexes.len() < 64 {
                        cexes.push(cex);
                    }
                    ControlFlow::Continue(())
                }
                Verdict::Rejected => ControlFlow::Continue(()),
            }
        });
        // Record the new node's lanes so later windows can use it as a
        // divisor.
        if let Some((node, [a, b, c])) = accepted {
            if node >= sim.len() {
                let row = (0..target.len())
                    .map(|l| maj_lane(&sim, a, b, c, l))
                    .collect();
                sim.push(row);
            }
        }

        // Periodically fold counterexamples back into the filter.
        if cexes.len() >= 64 {
            append_cex_lane(g, &topo, &mut sim, &cexes, stats.candidates);
            cexes.clear();
        }
    }
    stats
}

/// Majority of three divisor signals on one simulation lane.
fn maj_lane(
    sim: &[Vec<u64>],
    (a, pa): (usize, bool),
    (b, pb): (usize, bool),
    (c, pc): (usize, bool),
    lane: usize,
) -> u64 {
    maj3(
        sim[a][lane] ^ phase_mask(pa),
        sim[b][lane] ^ phase_mask(pb),
        sim[c][lane] ^ phase_mask(pc),
    )
}

fn phase_mask(complemented: bool) -> u64 {
    if complemented {
        !0
    } else {
        0
    }
}

fn maj3(a: u64, b: u64, c: u64) -> u64 {
    (a & b) | (a & c) | (b & c)
}

/// One match of the 1-resub triple search: divisor positions `i < j < k`,
/// the input phase shape `combo` (0: no input complemented, 1/2/3: the
/// first/second/third input complemented), and the output phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TripleMatch {
    i: usize,
    j: usize,
    k: usize,
    combo: u8,
    out_phase: bool,
}

impl TripleMatch {
    /// Complement flags of the three inputs.
    fn phases(&self) -> [bool; 3] {
        [self.combo == 1, self.combo == 2, self.combo == 3]
    }
}

/// The 1-resub triple search. Visits, in `(i, j, k, combo)` order, every
/// majority over three divisor rows that equals `target` on all lanes,
/// possibly complemented; stops at the first match `visit` breaks on and
/// returns its value.
///
/// Input phase combinations with two or three complements are covered by
/// the output phase (¬M(a,b,c) = M(¬a,¬b,¬c)), so only the four
/// 0/1-complement shapes are enumerated. The output phase is set by lane
/// 0, then checked on every other lane.
///
/// Pairs are pruned before the `k` loop. Where the (phased) lane-0 words
/// of `a` and `b` agree, M(a, b, c) equals them, so a pair shape can only
/// match if `a` equals the target (or its complement) on those bits. A
/// pair whose three shapes all fail skips its `k` loop, and a combo whose
/// pair shape fails is skipped: exactly the triples the lane-0 filter
/// would reject, so the visiting order is that of the plain scan.
fn search_triples<B>(
    rows: &[&[u64]],
    target: &[u64],
    mut visit: impl FnMut(TripleMatch) -> ControlFlow<B>,
) -> Option<B> {
    // Pair shape of each combo: (a, b), (¬a, b), (a, ¬b), (a, b).
    const PAIR_SHAPE: [usize; 4] = [0, 1, 2, 0];
    let t = target[0];
    let w0: Vec<u64> = rows.iter().map(|r| r[0]).collect();
    let pair_fits = |a: u64, b: u64| {
        let agree = !(a ^ b);
        (a ^ t) & agree == 0 || (a ^ !t) & agree == 0
    };
    for i in 0..rows.len() {
        for j in (i + 1)..rows.len() {
            let (a, b) = (w0[i], w0[j]);
            let fits = [pair_fits(a, b), pair_fits(!a, b), pair_fits(a, !b)];
            if fits == [false; 3] {
                continue;
            }
            for k in (j + 1)..rows.len() {
                for combo in 0..4u8 {
                    if !fits[PAIR_SHAPE[combo as usize]] {
                        continue;
                    }
                    let m = TripleMatch {
                        i,
                        j,
                        k,
                        combo,
                        out_phase: false,
                    };
                    let Some(m) = full_match(rows, target, m) else {
                        continue;
                    };
                    if let ControlFlow::Break(b) = visit(m) {
                        return Some(b);
                    }
                }
            }
        }
    }
    None
}

/// Checks one triple shape against `target`: the output phase comes from
/// lane 0, and every lane must then agree. Returns the match with its
/// output phase set.
fn full_match(rows: &[&[u64]], target: &[u64], m: TripleMatch) -> Option<TripleMatch> {
    let [pa, pb, pc] = m.phases().map(phase_mask);
    let (ra, rb, rc) = (rows[m.i], rows[m.j], rows[m.k]);
    let lane = |l: usize| maj3(ra[l] ^ pa, rb[l] ^ pb, rc[l] ^ pc);
    let m0 = lane(0);
    let out_phase = if m0 == target[0] {
        false
    } else if m0 == !target[0] {
        true
    } else {
        return None;
    };
    let out = phase_mask(out_phase);
    (1..target.len())
        .all(|l| lane(l) ^ out == target[l])
        .then_some(TripleMatch { out_phase, ..m })
}

enum Verdict {
    Accepted,
    Refuted(Vec<bool>),
    Rejected,
}

/// Proves and commits `n := cand` for an already-existing candidate.
fn try_substitute(
    g: &mut IncrementalMig,
    n: usize,
    cand: MigSignal,
    stats: &mut ResubStats,
) -> Verdict {
    // Engine signature veto (lane 0 subsumes this, but keep the veto as
    // defense in depth — it is what the cut engine itself trusts).
    if g.sig_of(cand) != g.sig_of(MigSignal::new(n, false)) {
        stats.sig_vetoes += 1;
        return Verdict::Rejected;
    }
    match prove_signals(g, MigSignal::new(n, false), cand, Some(CONFLICT_BUDGET)) {
        ProveOutcome::Equal { conflicts } => {
            stats.sat_conflicts += conflicts;
            g.replace(n, cand);
            stats.accepted += 1;
            Verdict::Accepted
        }
        ProveOutcome::Differ { cex, conflicts } => {
            stats.sat_conflicts += conflicts;
            stats.refuted += 1;
            Verdict::Refuted(cex)
        }
        ProveOutcome::Unknown { conflicts } => {
            stats.sat_conflicts += conflicts;
            stats.budget_exhausted += 1;
            Verdict::Rejected
        }
    }
}

/// Like [`try_substitute`], but for a freshly built candidate node that
/// must be rolled back with `undo_tail` unless the proof succeeds.
fn try_substitute_built(
    g: &mut IncrementalMig,
    n: usize,
    cand: MigSignal,
    len_before: usize,
    stats: &mut ResubStats,
) -> Verdict {
    if g.sig_of(cand) != g.sig_of(MigSignal::new(n, false)) {
        stats.sig_vetoes += 1;
        g.undo_tail(len_before);
        return Verdict::Rejected;
    }
    match prove_signals(g, MigSignal::new(n, false), cand, Some(CONFLICT_BUDGET)) {
        ProveOutcome::Equal { conflicts } => {
            stats.sat_conflicts += conflicts;
            g.replace(n, cand);
            stats.accepted += 1;
            Verdict::Accepted
        }
        ProveOutcome::Differ { cex, conflicts } => {
            stats.sat_conflicts += conflicts;
            stats.refuted += 1;
            g.undo_tail(len_before);
            Verdict::Refuted(cex)
        }
        ProveOutcome::Unknown { conflicts } => {
            stats.sat_conflicts += conflicts;
            stats.budget_exhausted += 1;
            g.undo_tail(len_before);
            Verdict::Rejected
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rms_core::Mig;
    use rms_logic::bench_suite;
    use rms_logic::rng::SplitMix64;
    use rms_logic::sim::check_equivalence;

    fn bench_inc(name: &str) -> IncrementalMig {
        let mig = Mig::from_netlist(&bench_suite::build(name).unwrap()).compact();
        IncrementalMig::from_mig(&mig)
    }

    #[test]
    fn resub_preserves_functions_and_never_grows() {
        for name in ["rd53_f2", "con1_f1", "sao2_f4", "exam3_d"] {
            let mut g = bench_inc(name);
            let before = g.to_mig();
            let gates_before = g.num_gates();
            let stats = resub_pass(&mut g, &ResubOptions::default());
            g.assert_consistent();
            assert!(
                g.num_gates() <= gates_before,
                "{name}: {} > {gates_before}",
                g.num_gates()
            );
            let res = check_equivalence(&before.to_netlist(), &g.to_mig().to_netlist());
            assert!(res.holds(), "{name}: {res:?} ({stats:?})");
        }
    }

    #[test]
    fn mffc_bound_keeps_every_decision() {
        // With and without the MFFC bound on the 1-resub search: the same
        // counters and the same graph, node for node, on the raw and the
        // cut-optimized graphs of the small suite, apex4 and t481.
        let names = bench_suite::SMALL_SUITE
            .iter()
            .map(|i| i.name)
            .chain(["apex4", "t481"]);
        let opts = ResubOptions::default();
        let mut accepted = 0;
        for name in names {
            let raw = Mig::from_netlist(&bench_suite::build(name).unwrap()).compact();
            let (cut, _) =
                crate::optimize_cut_stats(&raw, &rms_core::opt::OptOptions::with_effort(2));
            for (what, mig) in [("raw", raw), ("cut", cut.compact())] {
                let mut bounded = IncrementalMig::from_mig(&mig);
                let mut plain = IncrementalMig::from_mig(&mig);
                let sb = run_pass(&mut bounded, &opts, true);
                let sp = run_pass(&mut plain, &opts, false);
                assert_eq!(sb, sp, "{name} / {what}: stats");
                assert_eq!(bounded.len(), plain.len(), "{name} / {what}: node counts");
                for i in 0..bounded.len() {
                    assert_eq!(bounded.node(i), plain.node(i), "{name} / {what}: node {i}");
                    assert_eq!(
                        bounded.is_dead(i),
                        plain.is_dead(i),
                        "{name} / {what}: node {i}"
                    );
                }
                assert_eq!(
                    bounded.outputs(),
                    plain.outputs(),
                    "{name} / {what}: outputs"
                );
                accepted += sb.accepted;
            }
        }
        assert!(accepted > 0, "no substitution to compare");
    }

    #[test]
    fn divisor_windows_are_bounded_and_shallow() {
        let g = bench_inc("9sym_d");
        let topo = g.topo_order();
        let mut stamps = Stamps::default();
        for &nu in &topo {
            let n = nu as usize;
            let divisors = collect_divisors(&g, n, 16, &mut stamps);
            assert!(divisors.len() <= 16);
            for &d in &divisors {
                assert!(d == 0 || g.level(d) <= g.level(n), "divisor above the node");
                assert_ne!(d, n);
            }
        }
    }

    #[test]
    fn reused_stamps_collect_the_same_windows() {
        // One stamp array across the pass against a fresh one per node,
        // including a generation wrap-around.
        for name in ["t481_d", "max46_d"] {
            let g = bench_inc(name);
            let mut reused = Stamps::default();
            for &nu in &g.topo_order() {
                let n = nu as usize;
                if n.is_multiple_of(7) {
                    reused.generation = u32::MAX;
                }
                let fresh = collect_divisors(&g, n, 24, &mut Stamps::default());
                assert_eq!(
                    collect_divisors(&g, n, 24, &mut reused),
                    fresh,
                    "{name}: node {n}"
                );
            }
        }
    }

    /// The plain O(d³·4) scan: lane-0 output phase, then every lane.
    fn naive_triples(rows: &[&[u64]], target: &[u64]) -> Vec<TripleMatch> {
        let mut out = Vec::new();
        for i in 0..rows.len() {
            for j in (i + 1)..rows.len() {
                for k in (j + 1)..rows.len() {
                    for combo in 0..4u8 {
                        let m = TripleMatch {
                            i,
                            j,
                            k,
                            combo,
                            out_phase: false,
                        };
                        let [pa, pb, pc] = m.phases().map(phase_mask);
                        let lane =
                            |l: usize| maj3(rows[i][l] ^ pa, rows[j][l] ^ pb, rows[k][l] ^ pc);
                        let out_phase = if lane(0) == target[0] {
                            false
                        } else if lane(0) == !target[0] {
                            true
                        } else {
                            continue;
                        };
                        let mask = phase_mask(out_phase);
                        if (0..target.len()).all(|l| lane(l) ^ mask == target[l]) {
                            out.push(TripleMatch { out_phase, ..m });
                        }
                    }
                }
            }
        }
        out
    }

    fn pruned_triples(rows: &[&[u64]], target: &[u64]) -> Vec<TripleMatch> {
        let mut out = Vec::new();
        let none: Option<()> = search_triples(rows, target, |m| {
            out.push(m);
            ControlFlow::Continue(())
        });
        assert!(none.is_none());
        out
    }

    #[test]
    fn pruned_triple_search_matches_the_plain_scan_on_random_words() {
        let mut rng = SplitMix64::new(0x5eed_1e5b);
        let mut matched = 0usize;
        for trial in 0..400 {
            // Few live bits per word, so lane-0 agreements (and full
            // matches) are common; rows are random or majorities of
            // earlier rows, with the constant row first.
            let mask = !0u64 >> (64 - 1 - (trial % 12));
            let lanes = 1 + trial % 4;
            let d = 3 + trial % 14;
            let mut rows: Vec<Vec<u64>> = vec![vec![0; lanes]];
            while rows.len() < d {
                let r: Vec<u64> = if rows.len() >= 3 && rng.next_u64().is_multiple_of(2) {
                    let pick = |x: u64| &rows[x as usize % rows.len()];
                    let (a, b, c) = (
                        pick(rng.next_u64()),
                        pick(rng.next_u64()),
                        pick(rng.next_u64()),
                    );
                    let flip = phase_mask(rng.next_u64().is_multiple_of(2));
                    (0..lanes).map(|l| maj3(a[l] ^ flip, b[l], c[l])).collect()
                } else {
                    (0..lanes).map(|_| rng.next_u64() & mask).collect()
                };
                rows.push(r);
            }
            let target: Vec<u64> = match rng.next_u64() % 3 {
                0 => (0..lanes).map(|_| rng.next_u64() & mask).collect(),
                1 => {
                    let (a, b, c) = (&rows[1], &rows[d / 2], &rows[d - 1]);
                    (0..lanes).map(|l| !maj3(a[l], !b[l], c[l])).collect()
                }
                _ => rows[rng.next_u64() as usize % d].clone(),
            };
            let refs: Vec<&[u64]> = rows.iter().map(|r| r.as_slice()).collect();
            let want = naive_triples(&refs, &target);
            assert_eq!(pruned_triples(&refs, &target), want, "trial {trial}");
            matched += want.len();
        }
        assert!(
            matched > 100,
            "too few matches to exercise the search: {matched}"
        );
    }

    #[test]
    fn pruned_triple_search_matches_the_plain_scan_on_real_windows() {
        for name in ["rd84_f4", "t481_d", "9sym_d"] {
            let g = bench_inc(name);
            let topo = g.topo_order();
            let sim = init_sim(&g, &topo);
            let mut stamps = Stamps::default();
            let mut matched = 0usize;
            for &nu in &topo {
                let n = nu as usize;
                if g.maj_children(n).is_none() {
                    continue;
                }
                let divisors = collect_divisors(&g, n, MAX_DIVISORS, &mut stamps);
                let rows: Vec<&[u64]> = divisors.iter().map(|&d| sim[d].as_slice()).collect();
                let want = naive_triples(&rows, &sim[n]);
                assert_eq!(pruned_triples(&rows, &sim[n]), want, "{name}: node {n}");
                matched += want.len();
            }
            assert!(matched > 0, "{name}: no window has a 1-resub match");
        }
    }
}
