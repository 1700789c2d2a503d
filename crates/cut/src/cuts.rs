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
//!
//! The representation is allocation-free on the hot path: a [`Cut`] is a
//! `Copy` value holding its leaves inline, and a node's cut set is a
//! fixed-capacity [`CutList`]. The in-place engine
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

/// Re-expresses `tt` (over leaf list `from`) over the superset leaf list
/// `to`. Both lists are sorted; every element of `from` occurs in `to`.
fn expand(tt: u16, from: &[u32], to: &[u32]) -> u16 {
    if from.len() == to.len() {
        return tt;
    }
    // Position of each `from` leaf within `to`.
    let mut pos = [0usize; MAX_CUT_INPUTS];
    for (j, leaf) in from.iter().enumerate() {
        pos[j] = to.binary_search(leaf).expect("from ⊆ to");
    }
    let mut r = 0u16;
    for m in 0..16usize {
        let mut cm = 0usize;
        for (j, &p) in pos.iter().enumerate().take(from.len()) {
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

/// Sorted union of up to three sorted leaf slices into an inline array;
/// `None` when the union exceeds [`MAX_CUT_INPUTS`].
fn merge_leaves(a: &[u32], b: &[u32], c: &[u32]) -> Option<([u32; MAX_CUT_INPUTS], usize)> {
    let mut out = [0u32; MAX_CUT_INPUTS];
    let mut n = 0usize;
    for src in [a, b, c] {
        for &l in src {
            match out[..n].binary_search(&l) {
                Ok(_) => {}
                Err(i) => {
                    if n == MAX_CUT_INPUTS {
                        return None;
                    }
                    out.copy_within(i..n, i + 1);
                    out[i] = l;
                    n += 1;
                }
            }
        }
    }
    Some((out, n))
}

/// The cut set of one majority node, merged from its children's cut
/// sets. `scratch` is a caller-provided buffer reused across nodes so
/// the merge allocates nothing in steady state.
pub(crate) fn compute_maj_cuts(
    node: usize,
    kids: [MigSignal; 3],
    c0: &[Cut],
    c1: &[Cut],
    c2: &[Cut],
    max_cuts: usize,
    scratch: &mut Vec<Cut>,
) -> CutList {
    scratch.clear();
    for a in c0 {
        for b in c1 {
            for c in c2 {
                let Some((leaves, n)) = merge_leaves(a.leaves(), b.leaves(), c.leaves()) else {
                    continue;
                };
                let leaves = &leaves[..n];
                if scratch.iter().any(|m| m.leaves() == leaves) {
                    continue;
                }
                let mut tts = [0u16; 3];
                for (slot, (cut, sig)) in
                    tts.iter_mut()
                        .zip([(a, kids[0]), (b, kids[1]), (c, kids[2])])
                {
                    let t = expand(cut.tt, cut.leaves(), leaves);
                    *slot = if sig.is_complemented() { !t } else { t };
                }
                let tt = (tts[0] & tts[1]) | (tts[0] & tts[2]) | (tts[1] & tts[2]);
                scratch.push(Cut::new(leaves, tt));
            }
        }
    }
    scratch.sort_by_key(|x| (x.len, x.leaves));
    scratch.truncate(max_cuts.saturating_sub(1).min(MAX_CUTS_PER_NODE - 1));
    // The trivial cut last: parents can always merge through the node
    // itself, and the rewriter skips it cheaply.
    let mut list = CutList::default();
    for &c in scratch.iter() {
        list.push(c);
    }
    list.push(Cut::new(&[node as u32], VAR_TT[0]));
    list
}

/// The cut set of an input or constant node.
pub(crate) fn leaf_cuts(node: usize, is_const: bool) -> CutList {
    let mut list = CutList::default();
    if is_const {
        list.push(Cut::new(&[], 0));
    } else {
        list.push(Cut::new(&[node as u32], VAR_TT[0]));
    }
    list
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
    assert!(
        max_cuts <= MAX_CUTS_PER_NODE,
        "max_cuts {max_cuts} exceeds the inline capacity {MAX_CUTS_PER_NODE}"
    );
    let mut sets: Vec<CutList> = Vec::with_capacity(mig.len());
    let mut scratch: Vec<Cut> = Vec::new();
    for idx in 0..mig.len() {
        let cuts = match mig.node(idx) {
            MigNode::Const0 => leaf_cuts(idx, true),
            MigNode::Input(_) => leaf_cuts(idx, false),
            MigNode::Maj(kids) => {
                // Split borrows: children always precede the node.
                let (c0, c1, c2) = (
                    sets[kids[0].node()],
                    sets[kids[1].node()],
                    sets[kids[2].node()],
                );
                compute_maj_cuts(
                    idx,
                    kids,
                    c0.as_slice(),
                    c1.as_slice(),
                    c2.as_slice(),
                    max_cuts,
                    &mut scratch,
                )
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
    use std::collections::HashMap;

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
