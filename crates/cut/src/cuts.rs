//! Priority k-feasible cut enumeration over majority-inverter graphs.
//!
//! A **cut** of a node `n` is a set of nodes (*leaves*) such that every
//! path from the primary inputs to `n` passes through a leaf; the cut is
//! *k-feasible* when it has at most `k` leaves. Each cut carries the
//! local function of `n` expressed over its leaves as a 16-bit truth
//! table (k ≤ [`MAX_CUT_INPUTS`] = 4), which is what the NPN database
//! lookup in [`crate::rewrite`] consumes.
//!
//! Cut sets are built bottom-up in one topological sweep: the cuts of a
//! majority node are the k-feasible unions of one cut per child (plus
//! the trivial cut `{n}`), and each node keeps at most
//! [`MAX_CUTS_PER_NODE`] cuts, preferring small leaf sets — the standard
//! *priority cuts* bound that keeps enumeration linear in practice.
//! Before the sorted leaf merge, each child cut's 64-bit leaf signature
//! (bit `leaf % 64` per leaf) rules out pairs and triples whose union
//! must exceed [`MAX_CUT_INPUTS`] leaves, as in ABC's priority cuts; the
//! prefilter only skips merges that would fail, so the cut sets are
//! unchanged. The merge keeps only the node's at most `max_cuts - 1`
//! smallest distinct leaf unions, in a fixed array sorted by
//! `(len, leaves)`: a union is dropped on arrival when it is already held
//! or no smaller than the last of a full array, so no union list is
//! deduplicated, sorted or truncated afterwards. Truth tables are
//! computed for the held unions alone. At `max_cuts` = 1 the array has
//! capacity 0: the node keeps only its trivial cut.
//!
//! The representation is allocation-free on the hot path: a [`Cut`] is a
//! `Copy` value holding its leaves inline, and a node's cut set is a
//! fixed-capacity [`CutList`]. The merge reads the children's lists by
//! reference, never copying one. The in-place engine
//! ([`crate::incremental`]) enumerates `CutList`s window by window with
//! the same merge step; this module's [`enumerate`] is the whole-graph
//! sweep over a plain [`Mig`].
//!
//! # Example
//!
//! ```
//! use rms_core::Mig;
//! use rms_cut::cuts;
//!
//! let mut mig = Mig::with_inputs("t", 4);
//! let (a, b) = (mig.input(0), mig.input(1));
//! let g = mig.and(a, b);
//! mig.add_output("f", g);
//! let sets = cuts::enumerate(&mig, cuts::MAX_CUTS_PER_NODE);
//! // The AND node has its trivial cut and the {a, b} cut (0xAAAA & 0xCCCC).
//! assert!(sets[g.node()].iter().any(|c| c.tt == 0x8888));
//! ```

use crate::npn::VAR_TT;
use rms_core::{Mig, MigNode, MigSignal};

/// Maximum number of leaves of an enumerated cut (the database covers
/// 4-input functions).
pub const MAX_CUT_INPUTS: usize = 4;

/// Default bound on the number of cuts kept per node.
pub const MAX_CUTS_PER_NODE: usize = 8;

/// One cut of a node: sorted leaf node indices (held inline) plus the
/// node's function over them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cut {
    /// Leaf node indices, sorted ascending; only the first `len` entries
    /// are meaningful.
    leaves: [u32; MAX_CUT_INPUTS],
    len: u8,
    /// Function of the (uncomplemented) node over the leaves, extended
    /// to a full 4-variable table (variables `len..4` are irrelevant).
    pub tt: u16,
}

impl Cut {
    /// A cut from a sorted leaf slice.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_CUT_INPUTS`] leaves are given.
    pub fn new(leaves: &[u32], tt: u16) -> Cut {
        assert!(leaves.len() <= MAX_CUT_INPUTS, "too many leaves");
        let mut a = [0u32; MAX_CUT_INPUTS];
        a[..leaves.len()].copy_from_slice(leaves);
        Cut {
            leaves: a,
            len: leaves.len() as u8,
            tt,
        }
    }

    /// The leaf node indices, sorted ascending.
    pub fn leaves(&self) -> &[u32] {
        &self.leaves[..self.len as usize]
    }

    /// Whether this is the trivial single-leaf cut `{node}` of `node`.
    pub fn is_trivial(&self, node: usize) -> bool {
        self.len == 1 && self.leaves[0] as usize == node
    }
}

/// A node's cut set: at most [`MAX_CUTS_PER_NODE`] cuts, inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutList {
    cuts: [Cut; MAX_CUTS_PER_NODE],
    len: u8,
}

impl Default for CutList {
    fn default() -> Self {
        CutList {
            cuts: [Cut::new(&[], 0); MAX_CUTS_PER_NODE],
            len: 0,
        }
    }
}

impl CutList {
    /// The cuts as a slice.
    pub fn as_slice(&self) -> &[Cut] {
        &self.cuts[..self.len as usize]
    }

    /// Iterates over the cuts.
    pub fn iter(&self) -> std::slice::Iter<'_, Cut> {
        self.as_slice().iter()
    }

    /// Number of cuts held.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list holds no cuts.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn push(&mut self, cut: Cut) {
        debug_assert!((self.len as usize) < MAX_CUTS_PER_NODE);
        self.cuts[self.len as usize] = cut;
        self.len += 1;
    }
}

/// Keep mask, and mask of the bits that move up, of the swap of
/// variables `i` and `i + 1` of a 4-variable table.
const SWAP_MASKS: [(u16, u16); 3] = [(0x9999, 0x2222), (0xC3C3, 0x0C0C), (0xF00F, 0x00F0)];

/// `tt` with variables `i` and `i + 1` exchanged: minterms where the
/// two differ move by `1 << i` places.
fn swap_adjacent(tt: u16, i: usize) -> u16 {
    let (keep, up) = SWAP_MASKS[i];
    let shift = 1 << i;
    (tt & keep) | ((tt & up) << shift) | ((tt >> shift) & up)
}

/// Re-expresses `tt` (over leaf list `from`) over the superset leaf list
/// `to`. Both lists are sorted; every element of `from` occurs in `to`;
/// variables `from.len()..4` of `tt` are irrelevant (the [`Cut::tt`]
/// invariant), and so are variables `to.len()..4` of the result.
///
/// Leaf `j` of `from` sits at some position `p >= j` of `to`. Moving the
/// leaves to their positions from the last one down, every variable a
/// leaf passes on its way up is irrelevant, so it moves by adjacent
/// swaps alone.
fn expand(tt: u16, from: &[u32], to: &[u32]) -> u16 {
    if from.len() == to.len() {
        return tt;
    }
    let mut t = tt;
    let mut p = to.len();
    for (j, leaf) in from.iter().enumerate().rev() {
        p -= 1;
        while to[p] != *leaf {
            p -= 1;
        }
        for i in j..p {
            t = swap_adjacent(t, i);
        }
    }
    t
}

/// Sorted union of up to three sorted leaf slices into an inline array;
/// `None` when the union exceeds [`MAX_CUT_INPUTS`].
fn merge_leaves(a: &[u32], b: &[u32], c: &[u32]) -> Option<([u32; MAX_CUT_INPUTS], usize)> {
    let mut ab = [0u32; MAX_CUT_INPUTS];
    let n = union_into(a, b, &mut ab)?;
    let mut out = [0u32; MAX_CUT_INPUTS];
    let m = union_into(&ab[..n], c, &mut out)?;
    Some((out, m))
}

/// Merges two sorted leaf slices into `out`, dropping duplicates; `None`
/// when the union exceeds [`MAX_CUT_INPUTS`].
fn union_into(a: &[u32], b: &[u32], out: &mut [u32; MAX_CUT_INPUTS]) -> Option<usize> {
    let (mut i, mut j, mut n) = (0, 0, 0);
    loop {
        let next = match (a.get(i), b.get(j)) {
            (None, None) => return Some(n),
            (Some(&x), Some(&y)) if y < x => {
                j += 1;
                y
            }
            (Some(&x), Some(&y)) => {
                i += 1;
                j += usize::from(x == y);
                x
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
        };
        if n == MAX_CUT_INPUTS {
            return None;
        }
        out[n] = next;
        n += 1;
    }
}

/// 64-bit leaf signature of a cut: bit `leaf % 64` set for every leaf.
/// Distinct leaves may share a bit, so the popcount of an OR of
/// signatures is a lower bound on the size of the leaf union.
fn leaf_signature(cut: &Cut) -> u64 {
    cut.leaves().iter().fold(0, |s, &l| s | 1 << (l % 64))
}

/// Whether a signature union already proves the leaf union too large:
/// more than [`MAX_CUT_INPUTS`] bits set, tested by clearing the lowest
/// set bit that many times (cheaper than a population count on targets
/// without a `popcnt` instruction).
fn too_many_leaves(sig: u64) -> bool {
    let mut rest = sig;
    for _ in 0..MAX_CUT_INPUTS {
        rest &= rest.wrapping_sub(1);
    }
    rest != 0
}

/// A leaf union found by the merge, with the positions of the child cuts
/// that first produced it. Its truth table is computed only if it stays
/// among the node's smallest unions: a node's function over a leaf set
/// does not depend on which child cuts produced the set.
#[derive(Debug, Clone, Copy)]
struct Merged {
    leaves: [u32; MAX_CUT_INPUTS],
    len: u8,
    from: [u8; 3],
}

impl Merged {
    /// The priority order of cuts: fewer leaves first, then the leaves
    /// lexicographically (both arrays are zero beyond their lengths).
    fn key(&self) -> (u8, [u32; MAX_CUT_INPUTS]) {
        (self.len, self.leaves)
    }
}

/// The smallest distinct leaf unions of one node, at most `cap` of them,
/// sorted by [`Merged::key`]: the non-trivial part of its cut list.
struct TopUnions {
    held: [Merged; MAX_CUTS_PER_NODE - 1],
    len: usize,
    cap: usize,
}

impl TopUnions {
    fn new(cap: usize) -> TopUnions {
        TopUnions {
            held: [Merged {
                leaves: [0; MAX_CUT_INPUTS],
                len: 0,
                from: [0; 3],
            }; MAX_CUTS_PER_NODE - 1],
            len: 0,
            cap,
        }
    }

    /// Offers the leaf union of child cuts `c[0][i]`, `c[1][j]` and
    /// `c[2][k]`: kept unless it is infeasible, already held, or no
    /// smaller than `cap` held unions. A union that loses its place never
    /// returns (the held unions only get smaller), so each kept union
    /// records the first triple that produced it.
    fn offer(&mut self, c: [&[Cut]; 3], [i, j, k]: [usize; 3]) {
        let Some((leaves, n)) = merge_leaves(c[0][i].leaves(), c[1][j].leaves(), c[2][k].leaves())
        else {
            return;
        };
        let m = Merged {
            leaves,
            len: n as u8,
            from: [i as u8, j as u8, k as u8],
        };
        let key = m.key();
        let mut pos = self.len;
        for (p, h) in self.held[..self.len].iter().enumerate() {
            match h.key().cmp(&key) {
                std::cmp::Ordering::Less => {}
                std::cmp::Ordering::Equal => return,
                std::cmp::Ordering::Greater => {
                    pos = p;
                    break;
                }
            }
        }
        if pos == self.cap {
            return;
        }
        let end = self.len.min(self.cap - 1);
        self.held.copy_within(pos..end, pos + 1);
        self.held[pos] = m;
        self.len = end + 1;
    }
}

/// The function of a majority node with children `kids` over `leaves`,
/// from the child cuts `cuts` whose leaves are subsets of `leaves`.
fn maj_tt(kids: [MigSignal; 3], cuts: [&Cut; 3], leaves: &[u32]) -> u16 {
    let [a, b, c] = [0, 1, 2].map(|x| {
        let t = expand(cuts[x].tt, cuts[x].leaves(), leaves);
        if kids[x].is_complemented() {
            !t
        } else {
            t
        }
    });
    (a & b) | (a & c) | (b & c)
}

/// The cut set of one majority node, merged from its children's cut
/// sets `c`, read in place.
///
/// Pairs and triples of child cuts whose leaf signatures already cover
/// more than [`MAX_CUT_INPUTS`] bits are skipped before the sorted
/// merge: their union is too large, so [`merge_leaves`] would reject
/// them anyway. The merge keeps only the at most `max_cuts - 1` smallest
/// distinct leaf unions in a fixed sorted array ([`TopUnions`]), and
/// truth tables are computed for those alone, which yields the same cut
/// list as computing one per union. The node's trivial cut comes last.
pub(crate) fn compute_maj_cuts(
    node: usize,
    kids: [MigSignal; 3],
    c: [&[Cut]; 3],
    max_cuts: usize,
) -> CutList {
    debug_assert!(c.iter().all(|l| l.len() <= MAX_CUTS_PER_NODE));
    let [c0, c1, c2] = c;
    let mut top = TopUnions::new(max_cuts.saturating_sub(1).min(MAX_CUTS_PER_NODE - 1));
    if top.cap > 0 {
        let mut sigs = [[0u64; MAX_CUTS_PER_NODE]; 3];
        for (row, cuts) in sigs.iter_mut().zip(c) {
            for (s, cut) in row.iter_mut().zip(cuts) {
                *s = leaf_signature(cut);
            }
        }
        for (i, &sa) in sigs[0][..c0.len()].iter().enumerate() {
            for (j, &sb) in sigs[1][..c1.len()].iter().enumerate() {
                let sab = sa | sb;
                if too_many_leaves(sab) {
                    continue;
                }
                // The third cuts that pass, collected as a bit mask
                // first so that the per-triple test does not branch.
                let mut pass = 0u32;
                for (k, &sc) in sigs[2][..c2.len()].iter().enumerate() {
                    pass |= u32::from(!too_many_leaves(sab | sc)) << k;
                }
                while pass != 0 {
                    let k = pass.trailing_zeros() as usize;
                    pass &= pass - 1;
                    top.offer(c, [i, j, k]);
                }
            }
        }
    }
    // The trivial cut last: parents can always merge through the node
    // itself, and the rewriter skips it cheaply.
    let mut list = CutList::default();
    for m in &top.held[..top.len] {
        let leaves = &m.leaves[..m.len as usize];
        let [i, j, k] = m.from.map(usize::from);
        let tt = maj_tt(kids, [&c0[i], &c1[j], &c2[k]], leaves);
        list.push(Cut::new(leaves, tt));
    }
    list.push(Cut::new(&[node as u32], VAR_TT[0]));
    list
}

/// The one cut of an input or constant node.
pub(crate) fn leaf_cut(node: usize, is_const: bool) -> Cut {
    if is_const {
        Cut::new(&[], 0)
    } else {
        Cut::new(&[node as u32], VAR_TT[0])
    }
}

/// Enumerates up to `max_cuts` k-feasible cuts (k = 4) for every node.
///
/// The result is indexed by node; each node's list is deterministic,
/// sorted by leaf count (then lexicographically by leaves), and always
/// ends with the node's trivial cut.
///
/// # Panics
///
/// Panics if `max_cuts` exceeds [`MAX_CUTS_PER_NODE`] — cut sets are
/// stored inline with that capacity.
pub fn enumerate(mig: &Mig, max_cuts: usize) -> Vec<CutList> {
    enumerate_with(mig, max_cuts, compute_maj_cuts)
}

/// The signature of [`compute_maj_cuts`].
type MergeFn = fn(usize, [MigSignal; 3], [&[Cut]; 3], usize) -> CutList;

/// [`enumerate`] over a given majority-node merge step.
fn enumerate_with(mig: &Mig, max_cuts: usize, merge: MergeFn) -> Vec<CutList> {
    assert!(
        max_cuts <= MAX_CUTS_PER_NODE,
        "max_cuts {max_cuts} exceeds the inline capacity {MAX_CUTS_PER_NODE}"
    );
    let mut sets: Vec<CutList> = Vec::with_capacity(mig.len());
    for idx in 0..mig.len() {
        let cuts = match mig.node(idx) {
            MigNode::Maj(kids) => {
                merge(idx, kids, kids.map(|k| sets[k.node()].as_slice()), max_cuts)
            }
            leaf => {
                let mut list = CutList::default();
                list.push(leaf_cut(idx, leaf == MigNode::Const0));
                list
            }
        };
        sets.push(cuts);
    }
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use rms_core::MigSignal;
    use rms_logic::random::random_netlist;
    use std::collections::HashMap;

    /// [`expand`] by minterm enumeration: bit `m` of the result reads
    /// the minterm of `tt` that `m` projects to.
    fn expand_by_minterms(tt: u16, from: &[u32], to: &[u32]) -> u16 {
        let pos: Vec<usize> = from
            .iter()
            .map(|l| to.binary_search(l).expect("from ⊆ to"))
            .collect();
        let mut r = 0u16;
        for m in 0..16usize {
            let mut cm = 0usize;
            for (j, &p) in pos.iter().enumerate() {
                if (m >> p) & 1 == 1 {
                    cm |= 1 << j;
                }
            }
            if (tt >> cm) & 1 == 1 {
                r |= 1 << m;
            }
        }
        r
    }

    /// [`compute_maj_cuts`] as it was before the prefilter and the
    /// deferred truth tables: every child cut triple goes through the
    /// sorted merge, and every new leaf union gets its truth table from
    /// [`expand_by_minterms`] at once.
    fn compute_maj_cuts_unfiltered(
        node: usize,
        kids: [MigSignal; 3],
        [c0, c1, c2]: [&[Cut]; 3],
        max_cuts: usize,
    ) -> CutList {
        let mut eager: Vec<Cut> = Vec::new();
        for a in c0 {
            for b in c1 {
                for c in c2 {
                    let Some((leaves, n)) = merge_leaves(a.leaves(), b.leaves(), c.leaves()) else {
                        continue;
                    };
                    let leaves = &leaves[..n];
                    if eager.iter().any(|m| m.leaves() == leaves) {
                        continue;
                    }
                    let [ta, tb, tc] =
                        [(a, kids[0]), (b, kids[1]), (c, kids[2])].map(|(cut, sig)| {
                            let t = expand_by_minterms(cut.tt, cut.leaves(), leaves);
                            if sig.is_complemented() {
                                !t
                            } else {
                                t
                            }
                        });
                    eager.push(Cut::new(leaves, (ta & tb) | (ta & tc) | (tb & tc)));
                }
            }
        }
        eager.sort_by_key(|x| (x.len, x.leaves));
        eager.truncate(max_cuts.saturating_sub(1).min(MAX_CUTS_PER_NODE - 1));
        let mut list = CutList::default();
        for &c in &eager {
            list.push(c);
        }
        list.push(Cut::new(&[node as u32], VAR_TT[0]));
        list
    }

    #[test]
    fn swap_expand_matches_the_minterm_loop_on_every_table() {
        // Every placement of a sorted `from` inside a sorted `to` of up to
        // four leaves, for every table brought to the cut invariant
        // (variables `from.len()..4` irrelevant).
        for n in 0..=MAX_CUT_INPUTS {
            let to: Vec<u32> = (0..n as u32).map(|l| 10 * l + 3).collect();
            for subset in 0..1u32 << n {
                let from: Vec<u32> = (0..n)
                    .filter(|&p| (subset >> p) & 1 == 1)
                    .map(|p| to[p])
                    .collect();
                let k = from.len();
                for raw in 0..=u16::MAX {
                    // Repeat the low 2^k bits across the table.
                    let tt = (0..16).fold(0u16, |t, m| t | ((raw >> (m % (1 << k))) & 1) << m);
                    let want = expand_by_minterms(tt, &from, &to);
                    assert_eq!(
                        expand(tt, &from, &to),
                        want,
                        "tt {tt:#06x}, from {from:?}, to {to:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn signature_prefilter_keeps_every_cut_list() {
        // Graphs of several hundred nodes, so leaf indices collide mod 64
        // and signatures undercount unions. The reference also computes
        // every truth table eagerly, so this checks the deferred ones.
        for seed in 0..6u64 {
            let nl = random_netlist("cut_sig", seed, 12, 4, 400);
            let mig = Mig::from_netlist(&nl).compact();
            assert!(mig.len() > 128, "seed {seed}: only {} nodes", mig.len());
            for max_cuts in 1..=MAX_CUTS_PER_NODE {
                let fast = enumerate(&mig, max_cuts);
                let reference = enumerate_with(&mig, max_cuts, compute_maj_cuts_unfiltered);
                assert_eq!(fast, reference, "seed {seed}, max_cuts {max_cuts}");
            }
        }
    }

    #[test]
    fn leaf_merge_and_bit_test_match_their_set_references() {
        use rms_logic::rng::SplitMix64;
        use std::collections::BTreeSet;
        let mut rng = SplitMix64::new(0x1eaf);
        let pick = |rng: &mut SplitMix64| -> Vec<u32> {
            let n = rng.next_u64() % 5;
            let set: BTreeSet<u32> = (0..n).map(|_| (rng.next_u64() % 10) as u32).collect();
            set.into_iter().collect()
        };
        let mut fits = 0;
        for _ in 0..20_000 {
            let (a, b, c) = (pick(&mut rng), pick(&mut rng), pick(&mut rng));
            let union: Vec<u32> = a
                .iter()
                .chain(&b)
                .chain(&c)
                .copied()
                .collect::<BTreeSet<u32>>()
                .into_iter()
                .collect();
            let want = (union.len() <= MAX_CUT_INPUTS).then_some(union);
            let got = merge_leaves(&a, &b, &c).map(|(l, n)| l[..n].to_vec());
            assert_eq!(got, want, "{a:?} ∪ {b:?} ∪ {c:?}");
            fits += usize::from(got.is_some());
        }
        assert!(fits > 1000 && fits < 19_000, "{fits} unions fit");
        for _ in 0..20_000 {
            // Sparse words: bit counts around the threshold.
            let w = (0..3).fold(rng.next_u64(), |w, _| w & rng.next_u64());
            let w = w >> (rng.next_u64() % 48);
            assert_eq!(
                too_many_leaves(w),
                w.count_ones() as usize > MAX_CUT_INPUTS,
                "{w:#x}"
            );
        }
    }

    #[test]
    fn signature_popcount_bounds_the_leaf_union() {
        // Leaves 3 and 67 share bit 3: the signature undercounts, never
        // overcounts.
        let a = Cut::new(&[3, 67], 0);
        let b = Cut::new(&[5, 131], 0);
        let s = leaf_signature(&a) | leaf_signature(&b);
        assert_eq!(s.count_ones(), 2);
        assert!(!too_many_leaves(s));
        assert!(merge_leaves(a.leaves(), b.leaves(), &[]).is_some());
        let c = Cut::new(&[1, 2, 4], 0);
        assert!(too_many_leaves(s | leaf_signature(&c)));
        assert!(merge_leaves(a.leaves(), b.leaves(), c.leaves()).is_none());
    }

    /// Reference evaluation: value of `node` given values for the leaves.
    fn eval_node(
        mig: &Mig,
        node: usize,
        leaves: &[u32],
        values: u16,
        memo: &mut HashMap<usize, bool>,
    ) -> bool {
        if let Some(j) = leaves.iter().position(|&l| l as usize == node) {
            return (values >> j) & 1 == 1;
        }
        if let Some(&v) = memo.get(&node) {
            return v;
        }
        let v = match mig.node(node) {
            MigNode::Const0 => false,
            MigNode::Input(_) => panic!("input {node} not covered by cut"),
            MigNode::Maj(kids) => {
                let vs: Vec<bool> = kids
                    .iter()
                    .map(|s: &MigSignal| {
                        eval_node(mig, s.node(), leaves, values, memo) ^ s.is_complemented()
                    })
                    .collect();
                (vs[0] as u8 + vs[1] as u8 + vs[2] as u8) >= 2
            }
        };
        memo.insert(node, v);
        v
    }

    fn sample_mig() -> Mig {
        let mut m = Mig::with_inputs("t", 5);
        let (a, b, c, d, e) = (m.input(0), m.input(1), m.input(2), m.input(3), m.input(4));
        let g1 = m.maj(a, !b, c);
        let g2 = m.and(c, d);
        let g3 = m.maj(g1, !g2, e);
        let g4 = m.xor(g3, a);
        m.add_output("f", g4);
        m
    }

    #[test]
    fn every_cut_truth_table_is_correct() {
        let mig = sample_mig();
        let sets = enumerate(&mig, MAX_CUTS_PER_NODE);
        assert_eq!(sets.len(), mig.len());
        for (node, cuts) in sets.iter().enumerate() {
            for cut in cuts.iter() {
                if cut.leaves().is_empty() {
                    continue; // constant node
                }
                for values in 0..(1u16 << cut.leaves().len()) {
                    let mut memo = HashMap::new();
                    let want = eval_node(&mig, node, cut.leaves(), values, &mut memo);
                    let got = (cut.tt >> values) & 1 == 1;
                    assert_eq!(got, want, "node {node} cut {:?} m={values}", cut.leaves());
                }
            }
        }
    }

    #[test]
    fn cut_counts_are_bounded_and_end_trivial() {
        let mig = sample_mig();
        for max_cuts in [1, 2, 4, MAX_CUTS_PER_NODE] {
            let sets = enumerate(&mig, max_cuts);
            for (node, cuts) in sets.iter().enumerate() {
                assert!(cuts.len() <= max_cuts.max(1), "node {node}");
                if mig.maj_children(node).is_some() {
                    assert!(cuts.as_slice().last().unwrap().is_trivial(node));
                }
            }
        }
    }

    #[test]
    fn leaves_are_sorted_and_feasible() {
        let mig = sample_mig();
        for cuts in enumerate(&mig, MAX_CUTS_PER_NODE) {
            for cut in cuts.iter() {
                assert!(cut.leaves().len() <= MAX_CUT_INPUTS);
                assert!(cut.leaves().windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn expand_keeps_function() {
        // f = x0 & x1 over leaves [7, 9] expanded to [3, 7, 9]: x0 -> var 1,
        // x1 -> var 2.
        let tt = VAR_TT[0] & VAR_TT[1];
        let e = expand(tt, &[7, 9], &[3, 7, 9]);
        assert_eq!(e, VAR_TT[1] & VAR_TT[2]);
    }

    #[test]
    fn cut_accessors() {
        let c = Cut::new(&[3, 7], 0x8888);
        assert_eq!(c.leaves(), &[3, 7]);
        assert!(!c.is_trivial(3));
        let t = Cut::new(&[5], VAR_TT[0]);
        assert!(t.is_trivial(5));
        assert!(!t.is_trivial(4));
    }
}
