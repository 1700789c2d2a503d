//! The Ω / Ψ transformation passes.
//!
//! Every pass consumes a graph and produces a functionally equivalent one,
//! rebuilding bottom-up through the strashing constructor (which applies
//! the majority axiom Ω.M eagerly) and applying one family of the paper's
//! axioms at each reconstructed node:
//!
//! - [`eliminate`] — Ω.M + distributivity right-to-left (Ω.D R→L), the
//!   node-count reducer of Alg. 1 ([`eliminate_rule`]),
//! - [`reshape`] — associativity Ω.A + complementary associativity Ψ.C,
//!   the structure perturbation of Alg. 1 ([`reshape_rule`]),
//! - [`push_up`] — the depth reducer used by Algs. 2–4 (Ω.M; Ω.D L→R;
//!   Ω.A; Ψ.C, steered at the critical child),
//! - [`relevance`] — Ψ.R, replacing reconvergent children,
//! - [`inverter_propagation`] — the Ω.I R→L extension of Sec. III-C3 for
//!   nodes with multiple complemented fanins.
//!
//! The rules of eliminate and reshape are written once, over any
//! [`MajBuilder`]: the passes here run them while rebuilding a [`Mig`],
//! and [`crate::fanout::eliminate_inplace`] and
//! [`crate::fanout::reshape_inplace`] run the same rules in place on an
//! [`crate::IncrementalMig`].
//!
//! Passes end with a reachability compaction, so intermediate garbage
//! created by speculative rewrites never survives. The output graph is
//! built through [`Mig::maj`] and therefore already strashed and
//! Ω.M-normal, so the compaction only copies the live nodes; the
//! structural hashing happens once, while the pass rebuilds the graph
//! (see [`Mig::compact`]).
//!
//! # Inverter-propagation case taxonomy
//!
//! The paper's three Ω.I R→L cases are stated with their effect on the
//! RRAM count: reductions of three, two, and one-with-a-penalty-of-one.
//! Together with our convention that complement attributes on constant
//! edges are free, this pins the cases down as:
//!
//! 1. all three fanins complemented — `M(x̄,ȳ,z̄) = M(x,y,z)'` removes
//!    three complemented edges,
//! 2. two complemented fanins and one **constant** fanin — flipping the
//!    constant is free, so two edges are removed,
//! 3. two complemented fanins, third regular — two edges removed, one
//!    added on the formerly regular fanin (net one), plus the complement
//!    moved to the fanout level.

use crate::mig::{MajBuilder, Mig, MigNode};
use crate::signal::MigSignal;

/// Which inverter-propagation cases a pass may fire (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InverterCases {
    /// Case 1: three complemented fanins.
    pub three: bool,
    /// Case 2: two complemented fanins and a constant fanin.
    pub two_with_const: bool,
    /// Case 3: two complemented fanins, regular third fanin.
    pub two: bool,
}

impl InverterCases {
    /// Only the base rule (case 1), as used first in Alg. 4.
    pub const BASE: InverterCases = InverterCases {
        three: true,
        two_with_const: false,
        two: false,
    };
    /// All three cases (`Ω.I R→L (1-3)` in Algs. 3 and 4).
    pub const ALL: InverterCases = InverterCases {
        three: true,
        two_with_const: true,
        two: true,
    };
}

/// Context handed to a node hook during a rebuilding pass.
struct NodeCtx {
    /// Index of the node in the old graph.
    old_idx: usize,
    /// Children mapped into the new graph (original order, pre-sorting).
    kids: [MigSignal; 3],
}

/// Output room of a pass that replaces each node by about one node (all
/// but push-up): summed over the Alg. 3 runs of the Table II suite, the
/// uncompacted outputs of eliminate, reshape and inverter propagation
/// hold 1.13× their input's nodes.
fn room_for_one_to_one(mig: &Mig) -> usize {
    mig.len() + mig.len() / 4
}

/// Rebuilds `mig` bottom-up, calling `hook` for every majority node.
///
/// The hook receives the new graph (for matching and node creation) and the
/// node context; it returns the signal that replaces the node. The default
/// behaviour is `out.maj(kids)`. The result still holds the garbage of
/// rejected candidates; each pass compacts it. The new graph's arrays and
/// structural-hash table are sized for `capacity` nodes up front.
fn transform(
    mig: &Mig,
    capacity: usize,
    mut hook: impl FnMut(&mut Mig, &NodeCtx) -> MigSignal,
) -> Mig {
    let mut out = Mig::with_capacity(mig.name().to_string(), mig.num_inputs(), capacity);
    let mut map: Vec<MigSignal> = Vec::with_capacity(mig.len());
    for idx in 0..mig.len() {
        let sig = match mig.node(idx) {
            MigNode::Const0 => MigSignal::FALSE,
            MigNode::Input(k) => out.input(k as usize),
            MigNode::Maj(kids) => {
                let mk = kids.map(|s| map[s.node()].complement_if(s.is_complemented()));
                let ctx = NodeCtx {
                    old_idx: idx,
                    kids: mk,
                };
                hook(&mut out, &ctx)
            }
        };
        map.push(sig);
    }
    for (name, s) in mig.outputs() {
        let m = map[s.node()].complement_if(s.is_complemented());
        out.add_output(name.clone(), m);
    }
    out
}

/// Rebuilds `mig` through an Ω rule: each node becomes the rule's
/// replacement or, when the rule does not fire, its default image. The
/// rule is told which of the node's *old* children have a single fanout
/// in the old graph.
fn transform_rule(
    mig: &Mig,
    rule: impl Fn(&mut Mig, [MigSignal; 3], [bool; 3]) -> Option<MigSignal>,
) -> Mig {
    let fanout = mig.fanout_counts();
    transform(mig, room_for_one_to_one(mig), |out, ctx| {
        let single_fanout = mig
            .maj_children(ctx.old_idx)
            .map_or([false; 3], |kids| kids.map(|s| fanout[s.node()] == 1));
        rule(out, ctx.kids, single_fanout)
            .unwrap_or_else(|| out.maj(ctx.kids[0], ctx.kids[1], ctx.kids[2]))
    })
}

/// Removes one occurrence of `x` from a 3-child set, returning the two
/// remaining children in order. Allocation-free (this runs for every
/// node of every pass).
fn remove_child(v: [MigSignal; 3], x: MigSignal) -> Option<[MigSignal; 2]> {
    if v[0] == x {
        Some([v[1], v[2]])
    } else if v[1] == x {
        Some([v[0], v[2]])
    } else if v[2] == x {
        Some([v[0], v[1]])
    } else {
        None
    }
}

/// Multiset intersection of two 3-child sets for the Ω.D R→L pattern:
/// when the sets share at least two children, returns `(x, y, u, v)` —
/// the shared pair and the leftover child of each set (for a triple
/// match the third shared child doubles as both leftovers).
fn shared_pair(
    ca: [MigSignal; 3],
    cb: [MigSignal; 3],
) -> Option<(MigSignal, MigSignal, MigSignal, MigSignal)> {
    let mut rb = cb;
    let mut rb_len = 3usize;
    let mut common = [MigSignal::FALSE; 3];
    let mut nc = 0usize;
    let mut ra = [MigSignal::FALSE; 3];
    let mut na = 0usize;
    for s in ca {
        if let Some(p) = rb[..rb_len].iter().position(|&x| x == s) {
            rb[p] = rb[rb_len - 1];
            rb_len -= 1;
            common[nc] = s;
            nc += 1;
        } else {
            ra[na] = s;
            na += 1;
        }
    }
    if nc < 2 {
        return None;
    }
    let (x, y) = (common[0], common[1]);
    let u = if nc == 3 { common[2] } else { ra[0] };
    let v = if nc == 3 { common[2] } else { rb[0] };
    Some((x, y, u, v))
}

/// The Ω.D R→L rule of [`eliminate`] at a node over `kids`:
/// `M(M(x,y,u), M(x,y,v), z) = M(x,y,M(u,v,z))`, for the first pair of
/// children that share two children and are both single-fanout (so the
/// rewrite strictly removes a node). Builds and returns the replacement;
/// `None`, having built nothing, when no pair matches.
pub fn eliminate_rule<G: MajBuilder>(
    g: &mut G,
    kids: [MigSignal; 3],
    single_fanout: [bool; 3],
) -> Option<MigSignal> {
    for (i, j) in [(0usize, 1usize), (0, 2), (1, 2)] {
        if !single_fanout[i] || !single_fanout[j] {
            continue;
        }
        let (Some(ca), Some(cb)) = (g.children_through(kids[i]), g.children_through(kids[j]))
        else {
            continue;
        };
        // Shared pair (x, y); leftovers u (from kids[i]), v (from kids[j]).
        if let Some((x, y, u, v)) = shared_pair(ca, cb) {
            let inner = g.maj(u, v, kids[3 - i - j]);
            return Some(g.maj(x, y, inner));
        }
    }
    None
}

/// The first match of `pattern` at a node over `kids`: it is offered the
/// children `inner` of each single-fanout majority child, in child
/// order, with both orderings of the two other children.
fn first_match<G: MajBuilder, T>(
    g: &G,
    kids: [MigSignal; 3],
    single_fanout: [bool; 3],
    pattern: impl Fn([MigSignal; 3], MigSignal, MigSignal) -> Option<T>,
) -> Option<T> {
    for p in 0..3 {
        let Some(inner) = g.children_through(kids[p]).filter(|_| single_fanout[p]) else {
            continue;
        };
        let (a, b) = (kids[(p + 1) % 3], kids[(p + 2) % 3]);
        if let Some(t) = pattern(inner, a, b).or_else(|| pattern(inner, b, a)) {
            return Some(t);
        }
    }
    None
}

/// The Ω.A / Ψ.C rule of [`reshape`] at a node over `kids`, rewriting a
/// single-fanout majority child: the first Ω.A match that moves a
/// variable in the direction `deeper` selects, else the first Ψ.C match.
/// Builds and returns the replacement; `None`, having built nothing,
/// when neither matches.
///
/// Which leftover of the inner node becomes `z` follows the order of its
/// (index-sorted) children, so the decisions depend on node numbering.
pub fn reshape_rule<G: MajBuilder>(
    g: &mut G,
    kids: [MigSignal; 3],
    single_fanout: [bool; 3],
    deeper: bool,
) -> Option<MigSignal> {
    // Ω.A: M(x, u, M(y, u, z)) = M(z, u, M(y, u, x)).
    let assoc = first_match(g, kids, single_fanout, |inner, u, x| {
        let [y, z] = remove_child(inner, u)?;
        let (lx, lz) = (g.signal_level(x), g.signal_level(z));
        (if deeper { lx > lz } else { lx < lz }).then_some((z, u, [y, u, x]))
    });
    // Ψ.C: M(x, u, M(y, ū, z)) = M(x, u, M(y, x, z)).
    let (a, b, inner) = assoc.or_else(|| {
        first_match(g, kids, single_fanout, |inner, u, x| {
            let [y, z] = remove_child(inner, !u)?;
            Some((x, u, [y, z, x]))
        })
    })?;
    let new_inner = g.maj(inner[0], inner[1], inner[2]);
    Some(g.maj(a, b, new_inner))
}

/// `Ω.M; Ω.D R→L` — the *eliminate* pass of Alg. 1 ([`eliminate_rule`]
/// at every node).
pub fn eliminate(mig: &Mig) -> Mig {
    eliminate_uncompacted(mig).compact()
}

/// [`eliminate`] before its pass-final compaction.
pub(crate) fn eliminate_uncompacted(mig: &Mig) -> Mig {
    transform_rule(mig, eliminate_rule)
}

/// `Ω.A; Ψ.C` — the *reshape* pass of Alg. 1 ([`reshape_rule`] at every
/// node).
///
/// Moves variables between adjacent levels with associativity to expose new
/// elimination opportunities. `deeper` selects the direction variables are
/// pushed (Alg. 1 alternates it between cycles).
pub fn reshape(mig: &Mig, deeper: bool) -> Mig {
    reshape_uncompacted(mig, deeper).compact()
}

/// [`reshape`] before its pass-final compaction.
pub(crate) fn reshape_uncompacted(mig: &Mig, deeper: bool) -> Mig {
    transform_rule(mig, |out, kids, single| {
        reshape_rule(out, kids, single, deeper)
    })
}

/// `Ω.M; Ω.D L→R; Ω.A; Ψ.C` — the *push-up* pass of Algs. 2–4.
///
/// For every node whose unique deepest child is a majority node, tries the
/// axioms in the paper's order and applies the first that strictly reduces
/// the node's level (pulling the critical variable towards the outputs).
pub fn push_up(mig: &Mig) -> Mig {
    push_up_uncompacted(mig).compact()
}

/// [`push_up`] before its pass-final compaction.
pub(crate) fn push_up_uncompacted(mig: &Mig) -> Mig {
    // Rejected speculative candidates stay until the compaction: summed
    // over the Alg. 3 runs of the Table II suite, the uncompacted output
    // holds 3.0× the input's nodes.
    transform(mig, 3 * mig.len(), |out, ctx| {
        let lv = |out: &Mig, s: MigSignal| out.signal_level(s);
        let levels = ctx.kids.map(|s| lv(out, s));
        let max_lv = *levels.iter().max().expect("three children");
        let current = 1 + max_lv;
        let default = out.maj(ctx.kids[0], ctx.kids[1], ctx.kids[2]);
        if lv(out, default) < current || max_lv == 0 {
            // Ω.M (or strashing) already did better than any local push.
            return default;
        }
        // Candidates are *built* and kept only when the realized level is
        // strictly smaller — estimating levels misses the Ω.M collapses and
        // strash hits that make pushes profitable in shared DAGs; rejected
        // candidates are garbage-collected by the pass-final compaction.
        let mut best = default;
        let mut best_lv = lv(out, default);
        for g_pos in 0..3 {
            let g = ctx.kids[g_pos];
            if lv(out, g) != max_lv {
                continue; // only pushes at a critical child can reduce depth
            }
            let Some(inner) = out.children_through(g) else {
                continue;
            };
            let others = [ctx.kids[(g_pos + 1) % 3], ctx.kids[(g_pos + 2) % 3]];

            // Ω.D L→R: M(x, y, M(u, v, z)) = M(M(x,y,u), M(x,y,v), z),
            // pushing the critical grandchild z one level up (at the cost
            // of duplicating the x/y pair, as the paper notes).
            {
                let ilv = inner.map(|s| lv(out, s));
                let imax = *ilv.iter().max().expect("three children");
                let z_pos = ilv.iter().position(|&l| l == imax).expect("a maximum");
                if ilv.iter().filter(|&&l| l == imax).count() == 1 {
                    let z = inner[z_pos];
                    let (u, v) = (inner[(z_pos + 1) % 3], inner[(z_pos + 2) % 3]);
                    let (x, y) = (others[0], others[1]);
                    let left = out.maj(x, y, u);
                    let right = out.maj(x, y, v);
                    let cand = out.maj(left, right, z);
                    if lv(out, cand) < best_lv {
                        best = cand;
                        best_lv = lv(out, cand);
                    }
                }
            }

            // Ω.A: M(x, u, M(y, u, z)) = M(z, u, M(y, u, x)).
            for (u, x) in [(others[0], others[1]), (others[1], others[0])] {
                let Some(rest) = remove_child(inner, u) else {
                    continue;
                };
                // Swap x with the deeper leftover.
                let (y, z) = if lv(out, rest[0]) >= lv(out, rest[1]) {
                    (rest[1], rest[0])
                } else {
                    (rest[0], rest[1])
                };
                let new_inner = out.maj(y, u, x);
                let cand = out.maj(z, u, new_inner);
                if lv(out, cand) < best_lv {
                    best = cand;
                    best_lv = lv(out, cand);
                }
            }

            // Ψ.C: M(x, u, M(y, ū, z)) = M(x, u, M(y, x, z)); profitable
            // when the substitution collapses or re-shares the inner node.
            for (u, x) in [(others[0], others[1]), (others[1], others[0])] {
                let Some([y, z]) = remove_child(inner, !u) else {
                    continue;
                };
                let new_inner = out.maj(y, x, z);
                let cand = out.maj(x, u, new_inner);
                if lv(out, cand) < best_lv {
                    best = cand;
                    best_lv = lv(out, cand);
                }
            }
        }
        best
    })
}

/// `Ψ.R` — the *relevance* pass of Alg. 2.
///
/// `M(x, y, z) = M(x, y, z_{x/ȳ})`: inside the third child, a reconvergent
/// occurrence of `x` can be replaced by `ȳ`. We apply the direct form (the
/// occurrence is an immediate child of `z`) when `y` is no deeper than `x`,
/// which shortens the reconvergent path or exposes Ω.M simplifications.
pub fn relevance(mig: &Mig) -> Mig {
    relevance_uncompacted(mig).compact()
}

/// [`relevance`] before its pass-final compaction.
pub(crate) fn relevance_uncompacted(mig: &Mig) -> Mig {
    transform_rule(mig, |out, kids, single_fanout| {
        let (x, y, [r0, r1]) = first_match(out, kids, single_fanout, |inner, x, y| {
            if out.signal_level(y) > out.signal_level(x) {
                return None;
            }
            Some((x, y, remove_child(inner, x)?))
        })?;
        let new_z = out.maj(r0, r1, !y);
        Some(out.maj(x, y, new_z))
    })
}

/// The Ω.I R→L extension of Sec. III-C3 (see module docs for the cases).
///
/// Nodes with enough complemented fanins are rebuilt with all fanins
/// flipped and a complemented output, moving the complement attribute one
/// level towards the outputs.
///
/// With `guarded`, a node only fires when the paper's benefit analysis
/// says the move cannot hurt the step count: either the transformation
/// (jointly with the other firing nodes of the level) clears the level of
/// complemented edges, or every level that receives the moved complement
/// already has complemented edges. Unguarded application "ensures maximum
/// coverage" (Alg. 4's wording) at the risk of tainting clean levels.
pub fn inverter_propagation(mig: &Mig, cases: InverterCases, guarded: bool) -> Mig {
    inverter_propagation_uncompacted(mig, cases, guarded).compact()
}

/// [`inverter_propagation`] before its pass-final compaction.
pub(crate) fn inverter_propagation_uncompacted(
    mig: &Mig,
    cases: InverterCases,
    guarded: bool,
) -> Mig {
    let fire_allowed = if guarded {
        Some(guard_vector(mig, cases))
    } else {
        None
    };
    transform(mig, room_for_one_to_one(mig), |out, ctx| {
        let fire = eligible(&ctx.kids, cases)
            && fire_allowed
                .as_ref()
                .is_none_or(|allowed| allowed[ctx.old_idx]);
        if fire {
            let flipped = out.maj(!ctx.kids[0], !ctx.kids[1], !ctx.kids[2]);
            !flipped
        } else {
            out.maj(ctx.kids[0], ctx.kids[1], ctx.kids[2])
        }
    })
}

/// Whether the case mask allows flipping a node with these children.
fn eligible(kids: &[MigSignal; 3], cases: InverterCases) -> bool {
    let compl = kids
        .iter()
        .filter(|s| s.is_complemented() && !s.is_constant())
        .count();
    let has_const = kids.iter().any(|s| s.is_constant());
    match (compl, has_const) {
        (3, _) => cases.three,
        (2, true) => cases.two_with_const,
        (2, false) => cases.two,
        _ => false,
    }
}

/// Precomputes, per node of the old graph, whether firing is beneficial
/// according to the level analysis of Sec. III-C3.
fn guard_vector(mig: &Mig, cases: InverterCases) -> Vec<bool> {
    let depth = mig.depth() as usize;
    // Complemented (non-constant) fanin edges per level (1-based levels;
    // slot `depth` is the virtual output level).
    let mut compl_at = vec![0u64; depth + 2];
    let mut eligible_compl_at = vec![0u64; depth + 2];
    let node_compl = |kids: &[MigSignal; 3]| -> u64 {
        kids.iter()
            .filter(|s| s.is_complemented() && !s.is_constant())
            .count() as u64
    };
    for idx in 0..mig.len() {
        if let MigNode::Maj(kids) = mig.node(idx) {
            let lvl = (mig.level(idx) as usize).min(depth + 1);
            let c = node_compl(&kids);
            compl_at[lvl] += c;
            if eligible(&kids, cases) {
                eligible_compl_at[lvl] += c;
            }
        }
    }
    for (_, o) in mig.outputs() {
        if o.is_complemented() && !o.is_constant() {
            compl_at[depth + 1] += 1;
        }
    }
    // Fanout levels per node (where a moved complement would land).
    let mut allowed = vec![false; mig.len()];
    let mut fanout_lvls: Vec<Vec<usize>> = vec![Vec::new(); mig.len()];
    for idx in 0..mig.len() {
        if let MigNode::Maj(kids) = mig.node(idx) {
            for k in kids {
                fanout_lvls[k.node()].push((mig.level(idx) as usize).min(depth + 1));
            }
        }
    }
    for (_, o) in mig.outputs() {
        fanout_lvls[o.node()].push(depth + 1);
    }
    for idx in 0..mig.len() {
        if let MigNode::Maj(kids) = mig.node(idx) {
            if !eligible(&kids, cases) {
                continue;
            }
            let lvl = (mig.level(idx) as usize).min(depth + 1);
            // Beneficial if the firing nodes jointly clear this level, or
            // if every level receiving the complement is already tainted.
            let clears = eligible_compl_at[lvl] == compl_at[lvl];
            let fanouts_tainted =
                !fanout_lvls[idx].is_empty() && fanout_lvls[idx].iter().all(|&l| compl_at[l] > 0);
            allowed[idx] = clears || fanouts_tainted;
        }
    }
    allowed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::LevelProfile;
    use rms_logic::bench_suite;
    use rms_logic::sim::check_equivalence;

    fn assert_equiv(a: &Mig, b: &Mig, what: &str) {
        let res = check_equivalence(&a.to_netlist(), &b.to_netlist());
        assert!(res.holds(), "{what}: {res:?}");
    }

    fn bench_mig(name: &str) -> Mig {
        Mig::from_netlist(&bench_suite::build(name).unwrap())
    }

    const SAMPLES: &[&str] = &[
        "rd53_f2", "exam3_d", "newill_d", "con1_f1", "9sym_d", "clip", "sao2_f4",
    ];

    #[test]
    fn eliminate_preserves_function() {
        for name in SAMPLES {
            let m = bench_mig(name);
            let e = eliminate(&m);
            assert_equiv(&m, &e, name);
            assert!(e.num_gates() <= m.num_gates(), "{name} grew");
        }
    }

    #[test]
    fn eliminate_merges_shared_pair() {
        // M(M(x,y,u), M(x,y,v), z) -> M(x, y, M(u,v,z)): 3 nodes -> 2.
        let mut m = Mig::with_inputs("t", 5);
        let (x, y, u, v, z) = (m.input(0), m.input(1), m.input(2), m.input(3), m.input(4));
        let a = m.maj(x, y, u);
        let b = m.maj(x, y, v);
        let top = m.maj(a, b, z);
        m.add_output("f", top);
        assert_eq!(m.num_gates(), 3);
        let e = eliminate(&m);
        assert_eq!(e.num_gates(), 2);
        assert_equiv(&m, &e, "shared pair");
    }

    #[test]
    fn reshape_preserves_function() {
        for name in SAMPLES {
            let m = bench_mig(name);
            for deeper in [false, true] {
                let r = reshape(&m, deeper);
                assert_equiv(&m, &r, name);
            }
        }
    }

    #[test]
    fn push_up_preserves_function_and_never_deepens() {
        for name in SAMPLES {
            let m = bench_mig(name);
            let p = push_up(&m);
            assert_equiv(&m, &p, name);
            assert!(
                p.depth() <= m.depth(),
                "{name}: {} > {}",
                p.depth(),
                m.depth()
            );
        }
    }

    #[test]
    fn push_up_reduces_chain_depth() {
        // M(x, u, M(y, u, M(p, q, r))) has depth 3; Ω.A can reduce it to 2.
        let mut m = Mig::with_inputs("t", 6);
        let (x, u, y, p, q, r) = (
            m.input(0),
            m.input(1),
            m.input(2),
            m.input(3),
            m.input(4),
            m.input(5),
        );
        let deep = m.maj(p, q, r);
        let mid = m.maj(y, u, deep);
        let top = m.maj(x, u, mid);
        m.add_output("f", top);
        assert_eq!(m.depth(), 3);
        let opt = push_up(&m);
        assert_equiv(&m, &opt, "assoc chain");
        assert_eq!(opt.depth(), 2, "expected the paper's example to flatten");
    }

    #[test]
    fn relevance_preserves_function() {
        for name in SAMPLES {
            let m = bench_mig(name);
            let r = relevance(&m);
            assert_equiv(&m, &r, name);
        }
    }

    #[test]
    fn relevance_enables_simplification() {
        // M(x, y, M(x, u, v)): replacing x by ȳ inside gives M(ȳ,u,v).
        let mut m = Mig::with_inputs("t", 4);
        let (x, y, u, v) = (m.input(0), m.input(1), m.input(2), m.input(3));
        let z = m.maj(x, u, v);
        let top = m.maj(x, y, z);
        m.add_output("f", top);
        let r = relevance(&m);
        assert_equiv(&m, &r, "relevance direct");
        // The inner node now contains ȳ instead of x.
        let inner_kids = r
            .maj_children(r.outputs()[0].1.node())
            .and_then(|kids| kids.iter().find_map(|k| r.children_through(*k)))
            .expect("inner node");
        assert!(inner_kids.contains(&!r.input(1)), "{inner_kids:?}");
    }

    #[test]
    fn inverter_propagation_case1_clears_level() {
        let mut m = Mig::with_inputs("t", 3);
        let (a, b, c) = (m.input(0), m.input(1), m.input(2));
        let g = m.maj(!a, !b, !c);
        m.add_output("f", g);
        let before = LevelProfile::of(&m);
        assert_eq!(before.compl_per_level, vec![3, 0]);
        let opt = inverter_propagation(&m, InverterCases::BASE, false);
        assert_equiv(&m, &opt, "case 1");
        let after = LevelProfile::of(&opt);
        // Three ingoing complements traded for one complemented output.
        assert_eq!(after.compl_per_level, vec![0, 1]);
    }

    #[test]
    fn inverter_propagation_case2_uses_free_constant() {
        // M(ā, b̄, 0) = M(a, b, 1)': complement lands on the constant (free).
        let mut m = Mig::with_inputs("t", 2);
        let (a, b) = (m.input(0), m.input(1));
        let g = m.maj(!a, !b, MigSignal::FALSE);
        m.add_output("f", g);
        assert_eq!(LevelProfile::of(&m).total_complemented(), 2);
        let base_only = inverter_propagation(&m, InverterCases::BASE, false);
        assert_eq!(
            LevelProfile::of(&base_only).total_complemented(),
            2,
            "case 2 must not fire under BASE"
        );
        let opt = inverter_propagation(&m, InverterCases::ALL, false);
        assert_equiv(&m, &opt, "case 2");
        // Two ingoing complements traded for one complemented output.
        assert_eq!(LevelProfile::of(&opt).compl_per_level, vec![0, 1]);
    }

    #[test]
    fn inverter_propagation_case3_nets_one() {
        let mut m = Mig::with_inputs("t", 3);
        let (a, b, c) = (m.input(0), m.input(1), m.input(2));
        let g = m.maj(!a, !b, c);
        m.add_output("f", g);
        let opt = inverter_propagation(&m, InverterCases::ALL, false);
        assert_equiv(&m, &opt, "case 3");
        let p = LevelProfile::of(&opt);
        assert_eq!(p.compl_per_level, vec![1, 1]);
    }

    #[test]
    fn inverter_propagation_on_benchmarks() {
        for name in SAMPLES {
            let m = bench_mig(name);
            for cases in [InverterCases::BASE, InverterCases::ALL] {
                let opt = inverter_propagation(&m, cases, false);
                assert_equiv(&m, &opt, name);
            }
        }
    }

    #[test]
    fn passes_compose() {
        for name in ["rd53_f2", "exam3_d", "sao2_f3"] {
            let m = bench_mig(name);
            let o = eliminate(&m);
            let o = push_up(&o);
            let o = inverter_propagation(&o, InverterCases::ALL, false);
            let o = reshape(&o, false);
            let o = relevance(&o);
            let o = eliminate(&o);
            assert_equiv(&m, &o, name);
        }
    }
}
