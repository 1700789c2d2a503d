//! SAT sweeping (fraiging): simulation-guided, SAT-proved node merging.
//!
//! The classic ABC-style escape from local rewriting windows: candidate
//! equivalence classes are discovered by word-parallel simulation, refined
//! with counterexample patterns, and *proved* with bounded-conflict SAT
//! miters before any merge is committed. The policy is strictly
//! sound-by-construction:
//!
//! 1. **Bucket** — live nodes are partitioned into candidate classes by
//!    their simulation vectors (the lane store it shares with
//!    [`crate::resub`]), canonicalized up to complement (the MIG has
//!    complemented edges, so `f` and `!f` belong to one class). Lane 0
//!    is the engine's own 64-pattern signature cache; further lanes are
//!    seeded deterministically.
//! 2. **Prove** — for each class, every member is checked against the
//!    lowest-level representative with a fresh cone miter
//!    ([`prove_signals`]) under a conflict budget. `Unsat` proves the
//!    merge; `Sat` yields a counterexample; budget exhaustion keeps
//!    *both* nodes — the pass never merges unproven candidates.
//! 3. **Refine** — counterexamples fill the open counterexample lane, up
//!    to 64 per lane, and at the end of each round that lane is
//!    re-simulated over the current graph, merges included, so every
//!    live node reads correct words on it. A refuted pair whose
//!    counterexample made it into the lane is split, so the partition
//!    strictly refines; a round without refutations ends the loop.
//! 4. **Merge** — proved members are merged through
//!    [`IncrementalMig::replace`], which re-wires fanouts, collapses
//!    degenerate majorities, and garbage-collects the MFFC. Merging into
//!    the minimum-level representative keeps the graph acyclic (a node's
//!    transitive fanin only contains strictly lower levels).
//!
//! Everything is deterministic — seeds are fixed, classes are visited in
//! first-seen order of a deterministic node order — so results are
//! bit-identical across thread counts and engines.

use crate::lanes::Lanes;
use rms_core::hash::FxHashMap;
use rms_core::{IncrementalMig, MigNode, MigSignal};
use rms_sat::{Encoder, Lit, SatResult};

/// Maximum bucket/prove/refine rounds of the fraig pass.
const MAX_ROUNDS: usize = 16;

/// Options of the fraig pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FraigOptions {
    /// Conflict budget per merge proof; exhaustion keeps both nodes.
    pub conflict_budget: u64,
    /// Cooperative cancellation, polled at round boundaries (every merge
    /// the pass has committed so far remains SAT-proved and valid).
    pub cancel: rms_core::CancelToken,
}

impl Default for FraigOptions {
    fn default() -> Self {
        FraigOptions {
            conflict_budget: 10_000,
            cancel: rms_core::CancelToken::default(),
        }
    }
}

/// Counters of one fraig pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FraigStats {
    /// Candidate classes (>= 2 members) in the initial partition.
    pub classes: u64,
    /// Merge proofs attempted.
    pub candidates: u64,
    /// Merges proved by SAT and committed.
    pub merges: u64,
    /// Candidates refuted by a counterexample.
    pub refuted: u64,
    /// Proofs abandoned at the conflict budget (nodes kept unmerged).
    pub budget_exhausted: u64,
    /// Total SAT conflicts spent.
    pub sat_conflicts: u64,
}

/// Full outcome of a fraig pass, including the merge log the property
/// tests re-prove independently.
#[derive(Debug, Clone, Default)]
pub struct FraigOutcome {
    /// Counters.
    pub stats: FraigStats,
    /// Committed merges: `(merged node, surviving signal)`, in commit
    /// order. Indices refer to the stable node numbering, so each pair
    /// is meaningful in a snapshot taken *before* the pass.
    pub merges: Vec<(usize, MigSignal)>,
    /// Budget-exhausted candidate pairs `(representative, member)`; the
    /// pass is required to leave these unmerged.
    pub gave_up: Vec<(usize, usize)>,
}

/// Outcome of a single cone-miter proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProveOutcome {
    /// The two signals are equivalent (UNSAT miter — a proof).
    Equal {
        /// Conflicts spent.
        conflicts: u64,
    },
    /// The signals differ; `cex[k]` is the distinguishing value of
    /// primary input `k` (inputs outside both cones default to false).
    Differ {
        /// The distinguishing primary-input assignment.
        cex: Vec<bool>,
        /// Conflicts spent.
        conflicts: u64,
    },
    /// The conflict budget ran out before a verdict — *not* an answer.
    Unknown {
        /// Conflicts spent (the budget).
        conflicts: u64,
    },
}

/// Encodes the cone of `sig` into `enc`, memoizing node literals in
/// `lits` and recording fresh input literals in `input_lits`.
fn encode_cone(
    g: &IncrementalMig,
    enc: &mut Encoder,
    lits: &mut FxHashMap<usize, Lit>,
    input_lits: &mut Vec<(usize, Lit)>,
    sig: MigSignal,
) -> Lit {
    let root = sig.node();
    if !lits.contains_key(&root) {
        let mut stack = vec![root];
        while let Some(&n) = stack.last() {
            if lits.contains_key(&n) {
                stack.pop();
                continue;
            }
            match g.node(n) {
                MigNode::Const0 => {
                    let l = enc.false_lit();
                    lits.insert(n, l);
                    stack.pop();
                }
                MigNode::Input(k) => {
                    let l = enc.fresh();
                    lits.insert(n, l);
                    input_lits.push((k as usize, l));
                    stack.pop();
                }
                MigNode::Maj(kids) => {
                    let mut ready = true;
                    for kid in kids {
                        if !lits.contains_key(&kid.node()) {
                            stack.push(kid.node());
                            ready = false;
                        }
                    }
                    if ready {
                        let [a, b, c] = kids.map(|s| {
                            let l = lits[&s.node()];
                            if s.is_complemented() {
                                !l
                            } else {
                                l
                            }
                        });
                        let l = enc.maj(a, b, c);
                        lits.insert(n, l);
                        stack.pop();
                    }
                }
            }
        }
    }
    let l = lits[&root];
    if sig.is_complemented() {
        !l
    } else {
        l
    }
}

/// Proves or refutes `a == b` with a fresh miter over the union of the
/// two cones, under an optional conflict budget (`None` = unbounded).
pub fn prove_signals(
    g: &IncrementalMig,
    a: MigSignal,
    b: MigSignal,
    budget: Option<u64>,
) -> ProveOutcome {
    let mut enc = Encoder::new();
    let mut lits = FxHashMap::default();
    let mut input_lits = Vec::new();
    let la = encode_cone(g, &mut enc, &mut lits, &mut input_lits, a);
    let lb = encode_cone(g, &mut enc, &mut lits, &mut input_lits, b);
    let diff = enc.xor(la, lb);
    enc.assert_true(diff);
    match enc.solve_limited(budget) {
        None => ProveOutcome::Unknown {
            conflicts: enc.stats().conflicts,
        },
        Some(SatResult::Unsat) => ProveOutcome::Equal {
            conflicts: enc.stats().conflicts,
        },
        Some(SatResult::Sat) => {
            let mut cex = vec![false; g.num_inputs()];
            for &(k, lit) in &input_lits {
                cex[k] = enc.value(lit);
            }
            ProveOutcome::Differ {
                cex,
                conflicts: enc.stats().conflicts,
            }
        }
    }
}

/// Canonical class key of a node: its simulation vector, complemented if
/// the first bit is set, plus the phase that was applied.
fn canon(row: &[u64]) -> (Vec<u64>, bool) {
    let phase = row[0] & 1 == 1;
    let key = if phase {
        row.iter().map(|w| !w).collect()
    } else {
        row.to_vec()
    };
    (key, phase)
}

/// Runs one fraig pass over `g`, merging every SAT-proved equivalent
/// node pair; see the module docs for the policy.
pub fn fraig_pass(g: &mut IncrementalMig, opts: &FraigOptions) -> FraigOutcome {
    run_pass(g, opts).0
}

/// [`fraig_pass`], also returning the final simulation rows.
pub(crate) fn run_pass(g: &mut IncrementalMig, opts: &FraigOptions) -> (FraigOutcome, Lanes) {
    let mut out = FraigOutcome::default();
    let topo = g.topo_order();
    let mut lanes = Lanes::new(g, &topo);
    if g.num_gates() == 0 {
        return (out, lanes);
    }
    // Candidate order: constant, inputs, then gates topologically. This
    // is also the class-discovery order, so it fixes determinism.
    let mut order: Vec<u32> = Vec::with_capacity(1 + g.num_inputs() + topo.len());
    order.push(0);
    for k in 0..g.num_inputs() {
        order.push(g.input(k).node() as u32);
    }
    order.extend_from_slice(&topo);
    let mut retired = vec![false; g.len()];

    for round in 0..MAX_ROUNDS {
        // Round boundaries are cancellation checkpoints: committed
        // merges are individually SAT-proved, so stopping between
        // rounds leaves a correct graph.
        if opts.cancel.cancelled() {
            break;
        }
        // Partition into candidate classes (first-seen order).
        let mut class_of: FxHashMap<Vec<u64>, usize> = FxHashMap::default();
        let mut classes: Vec<Vec<u32>> = Vec::new();
        let mut phases = vec![false; g.len()];
        for &nu in &order {
            let n = nu as usize;
            if g.is_dead(n) || retired[n] {
                continue;
            }
            let (key, phase) = canon(lanes.row(n));
            phases[n] = phase;
            let next = classes.len();
            let id = *class_of.entry(key).or_insert(next);
            if id == next {
                classes.push(Vec::new());
            }
            classes[id].push(nu);
        }
        if round == 0 {
            out.stats.classes = classes.iter().filter(|c| c.len() >= 2).count() as u64;
        }

        for class in &classes {
            if class.len() < 2 {
                continue;
            }
            // Representative: the live member with the lowest level
            // (ties by index). Merging higher-level members into it can
            // never create a cycle: a node's transitive fanin only
            // contains strictly lower levels.
            let rep = class
                .iter()
                .map(|&n| n as usize)
                .filter(|&n| !g.is_dead(n))
                .min_by_key(|&n| (g.level(n), n));
            let Some(rep) = rep else { continue };
            let rep_phase = phases[rep];
            for &mu in class {
                let m = mu as usize;
                if m == rep || g.is_dead(m) || retired[m] {
                    continue;
                }
                // Only majority gates can be merged away.
                if !matches!(g.node(m), MigNode::Maj(_)) {
                    continue;
                }
                if g.level(rep) > g.level(m) {
                    // Levels shifted under earlier merges; retry next round.
                    continue;
                }
                let target = MigSignal::new(rep, false).complement_if(phases[m] != rep_phase);
                out.stats.candidates += 1;
                match prove_signals(
                    g,
                    MigSignal::new(m, false),
                    target,
                    Some(opts.conflict_budget),
                ) {
                    ProveOutcome::Equal { conflicts } => {
                        out.stats.sat_conflicts += conflicts;
                        g.replace(m, target);
                        out.stats.merges += 1;
                        out.merges.push((m, target));
                    }
                    ProveOutcome::Differ { cex, conflicts } => {
                        out.stats.sat_conflicts += conflicts;
                        out.stats.refuted += 1;
                        lanes.add_cex(cex);
                    }
                    ProveOutcome::Unknown { conflicts } => {
                        out.stats.sat_conflicts += conflicts;
                        out.stats.budget_exhausted += 1;
                        retired[m] = true;
                        out.gave_up.push((rep, m));
                    }
                }
            }
        }
        // Refine: the round's counterexamples reach the next partition.
        if !lanes.fold(g) {
            break;
        }
    }
    (out, lanes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rms_core::{MajBuilder, Mig};
    use rms_logic::bench_suite;
    use rms_logic::sim::check_equivalence;

    fn bench_inc(name: &str) -> IncrementalMig {
        let mig = Mig::from_netlist(&bench_suite::build(name).unwrap()).compact();
        IncrementalMig::from_mig(&mig)
    }

    #[test]
    fn prove_signals_agrees_with_structure() {
        let mut g = bench_inc("rd53_f2");
        let x = g.input(0);
        let y = g.input(1);
        let z = g.input(2);
        let m1 = g.maj(x, y, z);
        // Same function, different structure: the sum-of-products form
        // (x&y) | (y&z) | (x&z), built from AND/OR majorities.
        let xy = g.maj(x, y, MigSignal::FALSE);
        let yz = g.maj(y, z, MigSignal::FALSE);
        let xz = g.maj(x, z, MigSignal::FALSE);
        let o1 = g.maj(xy, yz, MigSignal::TRUE);
        let m2 = g.maj(o1, xz, MigSignal::TRUE);
        assert_ne!(m1.node(), m2.node());
        match prove_signals(&g, m1, m2, None) {
            ProveOutcome::Equal { .. } => {}
            o => panic!("expected Equal, got {o:?}"),
        }
        match prove_signals(&g, m1, x, None) {
            ProveOutcome::Differ { cex, .. } => {
                assert_eq!(cex.len(), g.num_inputs());
            }
            o => panic!("expected Differ, got {o:?}"),
        }
    }

    #[test]
    fn fraig_merges_semantic_duplicates() {
        // Two outputs computing the same function in structurally
        // different ways: a direct majority and its sum-of-products
        // expansion (x&y) | (y&z) | (x&z). Structural hashing cannot
        // merge them; the fraig pass must.
        let mut b = rms_logic::NetlistBuilder::new("dup");
        let (x, y, z) = (b.input("x"), b.input("y"), b.input("z"));
        let m = b.maj(x, y, z);
        b.output("f1", m);
        let xy = b.and(x, y);
        let yz = b.and(y, z);
        let xz = b.and(x, z);
        let o1 = b.or(xy, yz);
        let sop = b.or(o1, xz);
        b.output("f2", sop);
        let mig = Mig::from_netlist(&b.build()).compact();
        let mut g = IncrementalMig::from_mig(&mig);
        let gates_before = g.num_gates();
        assert!(gates_before > 1, "need distinct structures to merge");
        let outcome = fraig_pass(&mut g, &FraigOptions::default());
        g.assert_consistent();
        assert!(outcome.stats.merges > 0, "{:?}", outcome.stats);
        // Both outputs now share the single majority gate.
        assert_eq!(g.num_gates(), 1);
        let res = check_equivalence(&mig.to_netlist(), &g.to_mig().to_netlist());
        assert!(res.holds(), "{res:?}");
    }

    #[test]
    fn zero_budget_never_merges_nontrivial_pairs() {
        let mut g = bench_inc("9sym_d");
        let outcome = fraig_pass(
            &mut g,
            &FraigOptions {
                conflict_budget: 0,
                ..FraigOptions::default()
            },
        );
        g.assert_consistent();
        // Whatever merged was proved by pure propagation; everything
        // that hit the budget must be recorded and unmerged.
        for &(_, member) in &outcome.gave_up {
            assert!(
                !outcome.merges.iter().any(|&(m, _)| m == member),
                "budget-exhausted node {member} was merged"
            );
        }
        assert_eq!(outcome.stats.budget_exhausted, outcome.gave_up.len() as u64);
    }
}
