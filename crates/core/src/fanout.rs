//! The in-place (incremental) majority-inverter graph engine.
//!
//! The rewrite passes in [`crate::rewrite`] and the cut rewriter rebuild
//! the whole graph on every pass: every node is re-hashed, every index
//! renumbered, and every derived structure (levels, fanout counts,
//! enumerated cuts) recomputed from scratch — even when a pass changes a
//! handful of nodes. [`IncrementalMig`] keeps one persistent graph and
//! splices rewrites into it:
//!
//! - **fanout lists and reference counts** are maintained per node, so a
//!   rewrite can rewire the parents of a replaced node directly and
//!   garbage-collect its maximum fanout-free cone the moment the last
//!   reference drops,
//! - **levels** are maintained incrementally: a splice recomputes the
//!   levels of the transitive fanout of the touched nodes only,
//! - a **word-parallel simulation signature** (64 random input lanes,
//!   fixed seed) is cached per node and maintained the same way; rewrite
//!   acceptance uses it as a constant-time functional spot-check.
//!
//! Replacement semantics: [`IncrementalMig::replace`] declares that the
//! (uncomplemented) function of a node equals another signal, rewires all
//! parents and outputs, and resolves the cascade this causes — parents
//! whose children collapse under Ω.M or become structurally identical to
//! an existing node are merged recursively, exactly as a from-scratch
//! rebuild through the strashing constructor would merge them.
//!
//! The engine shares its node normalization (the crate-private
//! `normalize_maj` used by [`Mig::maj`]) with [`Mig`], so an exported
//! graph ([`IncrementalMig::to_mig`]) satisfies the same invariants as
//! one built directly.
//!
//! # Example
//!
//! ```
//! use rms_core::{IncrementalMig, Mig, MajBuilder};
//!
//! let mut mig = Mig::with_inputs("t", 3);
//! let (a, b, c) = (mig.input(0), mig.input(1), mig.input(2));
//! let inner = mig.maj(a, b, c);
//! let top = mig.maj(a, b, inner);
//! mig.add_output("f", top);
//! let mut inc = IncrementalMig::from_mig(&mig);
//! // M(a, b, M(a, b, c)) = M(a, b, c): splice the inner node in place
//! // of the top one — the output rewires, the dead gate is collected.
//! inc.replace(top.node(), inner);
//! assert_eq!(inc.num_gates(), 1);
//! assert_eq!(inc.to_mig().outputs()[0].1, inner);
//! ```

use crate::mig::{normalize_maj, MajBuilder, Mig, MigNode};
use crate::rewrite::{eliminate_rule, reshape_rule};
use crate::signal::MigSignal;
use rms_logic::rng::SplitMix64;

use crate::hash::FxHashMap;

/// Seed of the per-input simulation words. Fixed: the signature cache
/// must be deterministic so parallel sweeps stay bit-identical.
const SIG_SEED: u64 = 0x51_6e_a7_02_e5_0f_ee_d5;

/// Simulation word of input `k` (deterministic, seed-fixed).
fn input_word(k: usize) -> u64 {
    SplitMix64::new(SIG_SEED ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

#[inline]
fn maj_word(a: u64, b: u64, c: u64) -> u64 {
    (a & b) | (a & c) | (b & c)
}

/// Outcome of [`IncrementalMig::rechild_to`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rechild {
    /// The mapped children equal the current ones; nothing changed.
    Unchanged,
    /// The node was rewired onto the new children in place.
    Rechilded,
    /// The node degenerated (Ω.M) or merged with an existing node; its
    /// function is the returned signal. The orphan keeps its structure
    /// until the end-of-round repair collects it.
    Superseded(MigSignal),
}

/// A majority-inverter graph with in-place update support.
///
/// Node indices are **stable**: nodes are appended, never renumbered, and
/// a garbage-collected node leaves a dead slot behind. Unlike [`Mig`],
/// index order is therefore *not* topological after a splice — use
/// [`IncrementalMig::topo_order`] to walk the live graph.
#[derive(Debug, Clone)]
pub struct IncrementalMig {
    name: String,
    num_inputs: usize,
    nodes: Vec<MigNode>,
    levels: Vec<u32>,
    /// Reference counts (edges from live gates plus primary outputs).
    refs: Vec<u32>,
    /// Fanout lists: indices of the live gates referencing each node.
    fanouts: Vec<Vec<u32>>,
    /// 64-lane simulation signature of each (uncomplemented) node.
    sigs: Vec<u64>,
    dead: Vec<bool>,
    outputs: Vec<(String, MigSignal)>,
    strash: FxHashMap<[MigSignal; 3], u32>,
    /// Live majority-gate count.
    live_gates: usize,
    /// High-water mark of the node array (peak memory proxy).
    peak_len: usize,
    /// Recycled fanout vectors: allocations of undone tentative nodes,
    /// reused by later [`IncrementalMig::push_node`] calls instead of
    /// being dropped. Keeps the allocator out of the instantiate/undo
    /// hot loop of the rewrite sweep.
    spare_fanouts: Vec<Vec<u32>>,
    /// Worklist-dedup stamps for [`IncrementalMig::update_upward`].
    uw_stamp: Vec<u64>,
    /// Current dedup epoch (one per `update_upward` call).
    uw_epoch: u64,
}

impl IncrementalMig {
    /// Builds the incremental view of a graph.
    ///
    /// The source should be compacted (dead nodes are imported as dead
    /// slots and simply wasted).
    pub fn from_mig(mig: &Mig) -> Self {
        let n = mig.len();
        // Tentative rewrite candidates grow and shrink the node-array
        // tail constantly; pre-reserving headroom keeps the five
        // parallel arrays from reallocating (and re-copying 100k+
        // entries) in the middle of a sweep.
        let cap = n + n / 4 + 64;
        let mut refs = Vec::with_capacity(cap);
        refs.resize(n, 0u32);
        let mut dead = Vec::with_capacity(cap);
        dead.resize(n, false);
        let mut fanouts = Vec::with_capacity(cap);
        fanouts.extend(mig.fanout_lists());
        let mut strash = FxHashMap::default();
        strash.reserve(n);
        let mut inc = IncrementalMig {
            name: mig.name().to_string(),
            num_inputs: mig.num_inputs(),
            nodes: Vec::with_capacity(cap),
            levels: Vec::with_capacity(cap),
            refs,
            fanouts,
            sigs: Vec::with_capacity(cap),
            dead,
            outputs: mig.outputs().to_vec(),
            strash,
            live_gates: 0,
            peak_len: n,
            spare_fanouts: Vec::new(),
            uw_stamp: Vec::new(),
            uw_epoch: 0,
        };
        for idx in 0..n {
            let node = mig.node(idx);
            inc.nodes.push(node);
            inc.levels.push(mig.level(idx));
            let sig = match node {
                MigNode::Const0 => 0,
                MigNode::Input(k) => input_word(k as usize),
                MigNode::Maj(kids) => {
                    inc.live_gates += 1;
                    inc.strash.insert(kids, idx as u32);
                    for k in kids {
                        inc.refs[k.node()] += 1;
                    }
                    maj_word(
                        inc.sig_of(kids[0]),
                        inc.sig_of(kids[1]),
                        inc.sig_of(kids[2]),
                    )
                }
            };
            inc.sigs.push(sig);
        }
        for (_, o) in &inc.outputs {
            inc.refs[o.node()] += 1;
        }
        inc
    }

    /// The graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of **live** majority gates.
    pub fn num_gates(&self) -> usize {
        self.live_gates
    }

    /// Length of the node array (live and dead slots).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no live gates.
    pub fn is_empty(&self) -> bool {
        self.live_gates == 0
    }

    /// High-water mark of the node array over the graph's lifetime.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// The signal of primary input `i`.
    pub fn input(&self, i: usize) -> MigSignal {
        assert!(i < self.num_inputs, "input {i} out of range");
        MigSignal::new(1 + i, false)
    }

    /// The node at `idx` (dead slots keep their last value).
    pub fn node(&self, idx: usize) -> MigNode {
        self.nodes[idx]
    }

    /// Whether the slot at `idx` has been garbage-collected.
    pub fn is_dead(&self, idx: usize) -> bool {
        self.dead[idx]
    }

    /// The children of node `idx` if it is a live majority gate.
    pub fn maj_children(&self, idx: usize) -> Option<[MigSignal; 3]> {
        if self.dead[idx] {
            return None;
        }
        match self.nodes[idx] {
            MigNode::Maj(c) => Some(c),
            _ => None,
        }
    }

    /// Level of node `idx` (longest path from the inputs).
    pub fn level(&self, idx: usize) -> u32 {
        self.levels[idx]
    }

    /// Reference count of node `idx` (edges from live gates + outputs).
    pub fn refs(&self, idx: usize) -> u32 {
        self.refs[idx]
    }

    /// The live gates referencing node `idx`.
    pub fn fanouts(&self, idx: usize) -> &[u32] {
        &self.fanouts[idx]
    }

    /// Depth: maximum level over the outputs.
    pub fn depth(&self) -> u32 {
        self.outputs
            .iter()
            .map(|(_, s)| self.levels[s.node()])
            .max()
            .unwrap_or(0)
    }

    /// Primary outputs as (name, signal) pairs.
    pub fn outputs(&self) -> &[(String, MigSignal)] {
        &self.outputs
    }

    /// The 64-lane simulation word of a signal (complement applied).
    pub fn sig_of(&self, s: MigSignal) -> u64 {
        let raw = self.sigs[s.node()];
        if s.is_complemented() {
            !raw
        } else {
            raw
        }
    }

    fn push_node(&mut self, kids: [MigSignal; 3]) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(MigNode::Maj(kids));
        let lvl = 1 + kids
            .iter()
            .map(|s| self.levels[s.node()])
            .max()
            .expect("three children");
        self.levels.push(lvl);
        self.sigs.push(maj_word(
            self.sig_of(kids[0]),
            self.sig_of(kids[1]),
            self.sig_of(kids[2]),
        ));
        self.refs.push(0);
        self.fanouts
            .push(self.spare_fanouts.pop().unwrap_or_default());
        self.dead.push(false);
        for k in kids {
            self.refs[k.node()] += 1;
            self.fanouts[k.node()].push(idx as u32);
        }
        self.strash.insert(kids, idx as u32);
        self.live_gates += 1;
        self.peak_len = self.peak_len.max(self.nodes.len());
        idx
    }

    /// Releases one reference to `node`; garbage-collects the cone that
    /// becomes dead.
    fn release(&mut self, node: usize) {
        let mut stack = vec![node];
        while let Some(i) = stack.pop() {
            debug_assert!(self.refs[i] > 0, "over-release of node {i}");
            self.refs[i] -= 1;
            if self.refs[i] > 0 || self.dead[i] {
                continue;
            }
            let MigNode::Maj(kids) = self.nodes[i] else {
                continue; // constants and inputs are never collected
            };
            self.dead[i] = true;
            self.live_gates -= 1;
            if self.strash.get(&kids) == Some(&(i as u32)) {
                self.strash.remove(&kids);
            }
            self.fanouts[i].clear();
            for k in kids {
                self.fanouts[k.node()].retain(|&p| p as usize != i);
                stack.push(k.node());
            }
        }
    }

    /// Recomputes levels and simulation signatures upward from `start`
    /// until they stabilize (touches the transitive fanout only).
    ///
    /// The worklist is deduplicated with an epoch-stamped marker: a node
    /// is enqueued at most once between visits, so a reconvergent fanout
    /// region costs one visit per stabilization wave instead of one per
    /// path — on deep graphs the difference between linear and
    /// quadratic repair.
    fn update_upward(&mut self, start: usize) {
        self.uw_epoch += 1;
        let epoch = self.uw_epoch;
        if self.uw_stamp.len() < self.nodes.len() {
            self.uw_stamp.resize(self.nodes.len(), 0);
        }
        let mut work = vec![start];
        while let Some(i) = work.pop() {
            self.uw_stamp[i] = 0;
            if self.dead[i] {
                continue;
            }
            let MigNode::Maj(kids) = self.nodes[i] else {
                continue;
            };
            let lvl = 1 + kids
                .iter()
                .map(|s| self.levels[s.node()])
                .max()
                .expect("three children");
            let sig = maj_word(
                self.sig_of(kids[0]),
                self.sig_of(kids[1]),
                self.sig_of(kids[2]),
            );
            if lvl != self.levels[i] || sig != self.sigs[i] {
                self.levels[i] = lvl;
                self.sigs[i] = sig;
                for &p in &self.fanouts[i] {
                    let p = p as usize;
                    if self.uw_stamp[p] != epoch {
                        self.uw_stamp[p] = epoch;
                        work.push(p);
                    }
                }
            }
        }
    }

    /// Declares that the (uncomplemented) function of node `old` equals
    /// `new`, rewires every parent and output, and garbage-collects the
    /// cone that dies. Cascading Ω.M collapses and structural merges in
    /// the fanout are resolved recursively.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when the simulation signatures of `old`
    /// and `new` disagree — the caller is responsible for functional
    /// equivalence.
    pub fn replace(&mut self, old: usize, new: MigSignal) {
        debug_assert!(!self.dead[old], "replacing a dead node");
        debug_assert_eq!(
            self.sigs[old],
            self.sig_of(new),
            "replace() with functionally different signal (signature mismatch)"
        );
        self.replace_inner(old, new);
    }

    fn replace_inner(&mut self, old: usize, new: MigSignal) {
        if self.dead[old] || new.node() == old {
            return;
        }
        // Pin both sides: `old` must survive its own parent loop even if
        // a cascade collapses a parent *onto* it, and `new` must survive
        // cascades that temporarily drop its other references.
        self.refs[old] += 1;
        self.refs[new.node()] += 1;
        // Remove `old` from the strash so no lookup can resurrect it.
        if let MigNode::Maj(kids) = self.nodes[old] {
            if self.strash.get(&kids) == Some(&(old as u32)) {
                self.strash.remove(&kids);
            }
        }
        // Rewire outputs.
        for i in 0..self.outputs.len() {
            let s = self.outputs[i].1;
            if s.node() == old {
                let t = new.complement_if(s.is_complemented());
                self.outputs[i].1 = t;
                self.refs[t.node()] += 1;
                self.release(old);
            }
        }
        // Rewire parents. A cascade can add parents back (a grandparent
        // collapsing onto `old`), so loop until the list stays empty.
        loop {
            let parents = std::mem::take(&mut self.fanouts[old]);
            if parents.is_empty() {
                break;
            }
            for &p in &parents {
                let p = p as usize;
                if self.dead[p] {
                    continue;
                }
                let MigNode::Maj(kids) = self.nodes[p] else {
                    continue;
                };
                if !kids.iter().any(|k| k.node() == old) {
                    continue; // stale entry from an earlier rewire
                }
                if self.strash.get(&kids) == Some(&(p as u32)) {
                    self.strash.remove(&kids);
                }
                let (a, b, c) = (
                    Self::subst(kids[0], old, new),
                    Self::subst(kids[1], old, new),
                    Self::subst(kids[2], old, new),
                );
                // The edge swap itself: p now references `new`, not `old`.
                self.refs[new.node()] += 1;
                self.fanouts[new.node()].push(p as u32);
                match normalize_maj(a, b, c) {
                    Err(collapsed) => {
                        // p degenerates to an existing signal: record the
                        // (denormalized) children for p's own GC, then
                        // replace p recursively.
                        let mut nk = [a, b, c];
                        nk.sort();
                        self.nodes[p] = MigNode::Maj(nk);
                        self.release(old);
                        self.replace_inner(p, collapsed);
                    }
                    Ok(nk) => match self.strash.get(&nk) {
                        Some(&q) => {
                            let q = q as usize;
                            debug_assert_ne!(q, p, "node matched its removed key");
                            self.nodes[p] = MigNode::Maj(nk);
                            self.release(old);
                            self.replace_inner(p, MigSignal::new(q, false));
                        }
                        None => {
                            self.strash.insert(nk, p as u32);
                            self.nodes[p] = MigNode::Maj(nk);
                            self.release(old);
                            self.update_upward(p);
                        }
                    },
                }
            }
        }
        // Drop the pins (collects `old` when nothing references it).
        self.release(new.node());
        self.release(old);
    }

    #[inline]
    fn subst(k: MigSignal, old: usize, new: MigSignal) -> MigSignal {
        if k.node() == old {
            new.complement_if(k.is_complemented())
        } else {
            k
        }
    }

    /// Enters the mapped-round protocol: clears the structural hash so
    /// the sweep rebuilds it **image by image** — at any point during
    /// the round the strash then contains exactly the images of the
    /// already-processed nodes plus instantiated candidate structures,
    /// the same sharing surface a from-scratch rebuild into a fresh
    /// graph would offer. Unprocessed (round-start) structures are
    /// deliberately not shareable: sharing with a cone that is about to
    /// be remapped would undercount the cost of a candidate.
    ///
    /// [`IncrementalMig::finish_mapped_round`] restores the steady-state
    /// invariant (every live gate hashed).
    pub fn begin_mapped_round(&mut self) {
        self.strash.clear();
    }

    /// Builds the image of node `idx` over the mapped children `conv`,
    /// in place — the mapped-round analogue of rebuilding the node into
    /// a fresh graph. Must run inside
    /// [`IncrementalMig::begin_mapped_round`] /
    /// [`IncrementalMig::finish_mapped_round`], in topological order.
    ///
    /// Reference counts and fanout lists are deliberately left stale
    /// (the round's MFFC estimates are precomputed on the pristine
    /// graph, and the finish pass repairs everything); the node's strash
    /// entry, **level**, and simulation signature are kept current
    /// because the rest of the sweep depends on them — the level of an
    /// image node equals its level in the rebuilt graph, which the
    /// level-steered passes ([`reshape_inplace`]) compare during the
    /// sweep. Returns [`Rechild::Superseded`] when the node degenerates
    /// under Ω.M or merges with an already-processed image; the orphan
    /// keeps its slot until the end-of-round repair collects it.
    pub fn rechild_to(&mut self, idx: usize, conv: [MigSignal; 3]) -> Rechild {
        let MigNode::Maj(kids) = self.nodes[idx] else {
            panic!("rechild_to on a non-gate node");
        };
        match normalize_maj(conv[0], conv[1], conv[2]) {
            Err(s) => Rechild::Superseded(s),
            Ok(nk) => {
                if let Some(&q) = self.strash.get(&nk) {
                    debug_assert_ne!(q as usize, idx, "node processed twice in one round");
                    return Rechild::Superseded(MigSignal::new(q as usize, false));
                }
                self.strash.insert(nk, idx as u32);
                // Children are images (already processed this round), so
                // their levels are current and this node's image level is
                // exact — even when its own structure did not change.
                self.levels[idx] = 1 + nk
                    .iter()
                    .map(|s| self.levels[s.node()])
                    .max()
                    .expect("three children");
                if nk == kids {
                    return Rechild::Unchanged;
                }
                self.nodes[idx] = MigNode::Maj(nk);
                self.sigs[idx] =
                    maj_word(self.sig_of(nk[0]), self.sig_of(nk[1]), self.sig_of(nk[2]));
                Rechild::Rechilded
            }
        }
    }

    /// Completes a mapped rewrite round (see
    /// [`IncrementalMig::rechild_to`]): rewires the outputs through
    /// `map`, garbage-collects everything unreachable, and rebuilds the
    /// deferred derived structures (reference counts, fanout lists,
    /// levels, simulation signatures) over the live graph.
    ///
    /// One depth-first walk from the outputs ([`IncrementalMig::topo_order`])
    /// serves both: its gates, the constant and the inputs are the live
    /// set, and its order is the bottom-up order of the level and
    /// signature sweep. Fanout lists are still rebuilt in index order,
    /// which is the order their readers see.
    ///
    /// `map[i]` is the image signal of round-start node `i`; nodes
    /// created during the round (indices `>= map.len()`) map to
    /// themselves.
    pub fn finish_mapped_round(&mut self, map: &[MigSignal]) {
        for i in 0..self.outputs.len() {
            let s = self.outputs[i].1;
            if s.node() < map.len() {
                self.outputs[i].1 = map[s.node()].complement_if(s.is_complemented());
            }
        }
        let order = self.topo_order();
        let mut alive = vec![false; self.nodes.len()];
        alive[..=self.num_inputs].fill(true);
        for &i in &order {
            alive[i as usize] = true;
        }
        // Kill the unreachable, rebuild refs and fanouts for the rest.
        self.live_gates = order.len();
        for (i, &is_alive) in alive.iter().enumerate() {
            self.fanouts[i].clear();
            self.refs[i] = 0;
            if is_alive {
                self.dead[i] = false;
            } else if !self.dead[i] {
                self.dead[i] = true;
                if let MigNode::Maj(kids) = self.nodes[i] {
                    if self.strash.get(&kids) == Some(&(i as u32)) {
                        self.strash.remove(&kids);
                    }
                }
            }
        }
        for (i, &is_alive) in alive.iter().enumerate() {
            if !is_alive {
                continue;
            }
            if let MigNode::Maj(kids) = self.nodes[i] {
                for k in kids {
                    self.refs[k.node()] += 1;
                    self.fanouts[k.node()].push(i as u32);
                }
            }
        }
        for (_, o) in &self.outputs {
            self.refs[o.node()] += 1;
        }
        // Levels and signatures, bottom-up over the live graph.
        for &idx in &order {
            let idx = idx as usize;
            if let MigNode::Maj(kids) = self.nodes[idx] {
                self.levels[idx] = 1 + kids.iter().map(|s| self.levels[s.node()]).max().unwrap();
                self.sigs[idx] = maj_word(
                    self.sig_of(kids[0]),
                    self.sig_of(kids[1]),
                    self.sig_of(kids[2]),
                );
            }
        }
    }

    /// Removes the (unreferenced) nodes created after `len_before` —
    /// the undo path for a tentatively instantiated rewrite candidate
    /// that lost its gain comparison.
    ///
    /// # Panics
    ///
    /// Panics if any node to be removed is referenced from a surviving
    /// node (i.e. if [`IncrementalMig::replace`] ran in between).
    pub fn undo_tail(&mut self, len_before: usize) {
        for idx in (len_before..self.nodes.len()).rev() {
            if let MigNode::Maj(kids) = self.nodes[idx] {
                if !self.dead[idx] {
                    if self.strash.get(&kids) == Some(&(idx as u32)) {
                        self.strash.remove(&kids);
                    }
                    self.live_gates -= 1;
                    for k in kids {
                        let c = k.node();
                        self.refs[c] -= 1;
                        if c < len_before {
                            self.fanouts[c].retain(|&p| p as usize != idx);
                        }
                    }
                }
            }
            assert_eq!(self.refs[idx], 0, "undo_tail on a referenced node");
        }
        self.nodes.truncate(len_before);
        self.levels.truncate(len_before);
        self.refs.truncate(len_before);
        for mut v in self.fanouts.drain(len_before..) {
            if v.capacity() > 0 {
                v.clear();
                self.spare_fanouts.push(v);
            }
        }
        self.sigs.truncate(len_before);
        self.dead.truncate(len_before);
    }

    /// Size of the maximum fanout-free cone of `root` with respect to
    /// `leaves`, against the **live** reference counts: the number of
    /// gates (including `root`) that die if `root` is re-expressed over
    /// the leaves.
    pub fn mffc_size(&mut self, root: usize, leaves: &[u32]) -> u32 {
        let mut count = 1u32;
        self.mffc_deref(root, leaves, &mut count);
        self.mffc_reref(root, leaves);
        count
    }

    fn is_boundary(&self, node: usize, leaves: &[u32]) -> bool {
        leaves.contains(&(node as u32)) || self.maj_children(node).is_none()
    }

    fn mffc_deref(&mut self, node: usize, leaves: &[u32], count: &mut u32) {
        let Some(kids) = self.maj_children(node) else {
            return;
        };
        for k in kids {
            let c = k.node();
            if self.is_boundary(c, leaves) {
                continue;
            }
            self.refs[c] -= 1;
            if self.refs[c] == 0 {
                *count += 1;
                self.mffc_deref(c, leaves, count);
            }
        }
    }

    fn mffc_reref(&mut self, node: usize, leaves: &[u32]) {
        let Some(kids) = self.maj_children(node) else {
            return;
        };
        for k in kids {
            let c = k.node();
            if self.is_boundary(c, leaves) {
                continue;
            }
            if self.refs[c] == 0 {
                self.mffc_reref(c, leaves);
            }
            self.refs[c] += 1;
        }
    }

    /// The live graph in topological order (children before parents),
    /// restricted to nodes reachable from the outputs. Deterministic:
    /// depth-first from the outputs in declaration order.
    pub fn topo_order(&self) -> Vec<u32> {
        let mut order = Vec::with_capacity(self.live_gates);
        let mut state = vec![0u8; self.nodes.len()]; // 0 new, 1 open, 2 done
        let mut stack: Vec<(usize, bool)> = Vec::new();
        for (_, o) in self.outputs.iter().rev() {
            stack.push((o.node(), false));
        }
        while let Some((i, expanded)) = stack.pop() {
            if expanded {
                state[i] = 2;
                order.push(i as u32);
                continue;
            }
            if state[i] != 0 {
                continue;
            }
            state[i] = 1;
            stack.push((i, true));
            if let MigNode::Maj(kids) = self.nodes[i] {
                for k in kids.iter().rev() {
                    if state[k.node()] == 0 {
                        stack.push((k.node(), false));
                    }
                }
            }
        }
        order.retain(|&i| matches!(self.nodes[i as usize], MigNode::Maj(_)));
        order
    }

    /// The fingerprint quantities used by the optimization scripts'
    /// early-exit check: gates, depth, complemented (non-constant) edges,
    /// and levels carrying complemented edges — over the live graph.
    pub fn fingerprint(&self) -> (usize, u32, u64, u64) {
        let depth = self.depth() as usize;
        let mut compl_at = vec![0u64; depth + 2];
        let mut total = 0u64;
        for idx in 0..self.nodes.len() {
            if self.dead[idx] {
                continue;
            }
            if let MigNode::Maj(kids) = self.nodes[idx] {
                if self.refs[idx] == 0 {
                    continue;
                }
                let lvl = (self.levels[idx] as usize).min(depth + 1);
                for k in kids {
                    if k.is_complemented() && !k.is_constant() {
                        compl_at[lvl] += 1;
                        total += 1;
                    }
                }
            }
        }
        for (_, o) in &self.outputs {
            if o.is_complemented() && !o.is_constant() {
                compl_at[depth + 1] += 1;
                total += 1;
            }
        }
        let levels = compl_at.iter().filter(|&&c| c > 0).count() as u64;
        (self.live_gates, self.depth(), total, levels)
    }

    /// Exports the live graph as a plain [`Mig`] (topological order,
    /// structural hashing re-applied). Deterministic.
    pub fn to_mig(&self) -> Mig {
        let mut out = Mig::with_inputs(self.name.clone(), self.num_inputs);
        let mut map: Vec<MigSignal> = vec![MigSignal::FALSE; self.nodes.len()];
        for (k, slot) in map[1..=self.num_inputs].iter_mut().enumerate() {
            *slot = out.input(k);
        }
        for &idx in &self.topo_order() {
            let idx = idx as usize;
            if let MigNode::Maj(kids) = self.nodes[idx] {
                let m = |s: MigSignal| map[s.node()].complement_if(s.is_complemented());
                let (a, b, c) = (m(kids[0]), m(kids[1]), m(kids[2]));
                map[idx] = out.maj(a, b, c);
            }
        }
        for (name, o) in &self.outputs {
            out.add_output(
                name.clone(),
                map[o.node()].complement_if(o.is_complemented()),
            );
        }
        out
    }

    /// Exhaustively validates every maintained structure against a
    /// recomputation — test and debugging support.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn assert_consistent(&self) {
        let mut refs = vec![0u32; self.nodes.len()];
        for idx in 0..self.nodes.len() {
            if self.dead[idx] {
                assert!(self.fanouts[idx].is_empty(), "dead node {idx} has fanouts");
                continue;
            }
            if let MigNode::Maj(kids) = self.nodes[idx] {
                assert_eq!(
                    normalize_maj(kids[0], kids[1], kids[2]),
                    Ok(kids),
                    "node {idx} not normalized"
                );
                assert_eq!(
                    self.strash.get(&kids),
                    Some(&(idx as u32)),
                    "node {idx} missing from strash"
                );
                let lvl = 1 + kids.iter().map(|s| self.levels[s.node()]).max().unwrap();
                assert_eq!(self.levels[idx], lvl, "node {idx} level stale");
                let sig = maj_word(
                    self.sig_of(kids[0]),
                    self.sig_of(kids[1]),
                    self.sig_of(kids[2]),
                );
                assert_eq!(self.sigs[idx], sig, "node {idx} signature stale");
                for k in kids {
                    assert!(!self.dead[k.node()], "node {idx} references dead child");
                    refs[k.node()] += 1;
                    assert!(
                        self.fanouts[k.node()].contains(&(idx as u32)),
                        "fanout list of {} misses parent {idx}",
                        k.node()
                    );
                }
            }
        }
        for (_, o) in &self.outputs {
            assert!(!self.dead[o.node()], "output references dead node");
            refs[o.node()] += 1;
        }
        for idx in 0..self.nodes.len() {
            if !self.dead[idx] {
                assert_eq!(self.refs[idx], refs[idx], "refcount of node {idx} stale");
                let unique: std::collections::BTreeSet<u32> =
                    self.fanouts[idx].iter().copied().collect();
                assert_eq!(
                    unique.len(),
                    self.fanouts[idx].len(),
                    "duplicate fanout entries at {idx}"
                );
                assert_eq!(
                    self.fanouts[idx]
                        .iter()
                        .filter(|&&p| refs[p as usize] != 0
                            || !matches!(self.nodes[p as usize], MigNode::Maj(_)))
                        .count(),
                    self.fanouts[idx].len(),
                    "stale fanout entry at {idx}"
                );
            }
        }
        assert_eq!(
            self.live_gates,
            (0..self.nodes.len())
                .filter(|&i| !self.dead[i] && matches!(self.nodes[i], MigNode::Maj(_)))
                .count(),
            "live gate count stale"
        );
    }
}

impl MajBuilder for IncrementalMig {
    /// Creates (or re-finds) a majority node, maintaining every derived
    /// structure. Identical normalization to [`Mig::maj`].
    fn maj(&mut self, a: MigSignal, b: MigSignal, c: MigSignal) -> MigSignal {
        let n = self.nodes.len();
        assert!(
            a.node() < n && b.node() < n && c.node() < n,
            "child signal out of range"
        );
        debug_assert!(
            !self.dead[a.node()] && !self.dead[b.node()] && !self.dead[c.node()],
            "child signal references a dead node"
        );
        let kids = match normalize_maj(a, b, c) {
            Ok(kids) => kids,
            Err(sig) => return sig,
        };
        if let Some(&idx) = self.strash.get(&kids) {
            return MigSignal::new(idx as usize, false);
        }
        MigSignal::new(self.push_node(kids), false)
    }

    fn children_through(&self, sig: MigSignal) -> Option<[MigSignal; 3]> {
        let c = self.maj_children(sig.node())?;
        Some(if sig.is_complemented() {
            [!c[0], !c[1], !c[2]]
        } else {
            c
        })
    }

    fn signal_level(&self, sig: MigSignal) -> u32 {
        self.levels[sig.node()]
    }
}

/// Whether `cand` is (structurally) the node's own default image — the
/// signal [`IncrementalMig::rechild_to`] over `conv` would produce. A
/// pattern whose candidate rebuilds the default image is a no-op and
/// must not count as progress (pass loops use the fire count as their
/// fixpoint signal).
fn rebuilds_default(g: &IncrementalMig, conv: [MigSignal; 3], cand: MigSignal) -> bool {
    match normalize_maj(conv[0], conv[1], conv[2]) {
        Ok(nk) => !cand.is_complemented() && g.maj_children(cand.node()) == Some(nk),
        Err(s) => cand == s,
    }
}

/// Runs an Ω rule of [`crate::rewrite`] over the graph in place, on the
/// mapped-round protocol: one topological sweep that offers every node,
/// over its image children, to `rule`, then a single linear repair in
/// [`IncrementalMig::finish_mapped_round`] — no per-rewrite fanout walks,
/// which on deep graphs turn a spliced pass quadratic. As in the rebuild
/// driver, single fanout is judged on the pass-start graph and patterns
/// are matched on image structures; levels read by the rule are image
/// levels, which [`IncrementalMig::rechild_to`] keeps current. A node
/// the rule leaves alone, or whose candidate only rebuilds its default
/// image, gets its default image, without a second try at another
/// pattern (the rebuild driver keeps such a candidate). Returns the
/// number of rewrites fired.
fn rewrite_mapped(
    g: &mut IncrementalMig,
    rule: impl Fn(&mut IncrementalMig, [MigSignal; 3], [bool; 3]) -> Option<MigSignal>,
) -> usize {
    let order = g.topo_order();
    // Pass-start reference counts (gate edges + outputs), the analogue
    // of the rebuild driver's `fanout_counts` snapshot of its source.
    let old_refs = g.refs.clone();
    g.begin_mapped_round();
    let mut map: Vec<MigSignal> = (0..g.len()).map(|i| MigSignal::new(i, false)).collect();
    let mut fired = 0usize;
    for &idx in &order {
        let idx = idx as usize;
        let MigNode::Maj(kids) = g.nodes[idx] else {
            continue;
        };
        let conv = kids.map(|k| map[k.node()].complement_if(k.is_complemented()));
        let len_before = g.len();
        // A fired rule supersedes the node without entering its default
        // structure into the strash, as the rebuild driver never builds
        // the default structure of a node its rule rewrote.
        map[idx] = match rule(g, conv, kids.map(|k| old_refs[k.node()] == 1)) {
            Some(cand) if !rebuilds_default(g, conv, cand) => {
                fired += 1;
                cand
            }
            fallback => {
                if fallback.is_some() {
                    g.undo_tail(len_before); // rebuilt itself: no-op
                }
                match g.rechild_to(idx, conv) {
                    Rechild::Superseded(s) => s,
                    _ => MigSignal::new(idx, false),
                }
            }
        };
    }
    g.finish_mapped_round(&map);
    fired
}

/// The in-place *eliminate* pass (`Ω.M; Ω.D R→L`): the rule of the
/// rebuilding [`crate::rewrite::eliminate`],
/// [`crate::rewrite::eliminate_rule`], run on the mapped-round protocol —
/// one topological sweep of [`IncrementalMig::rechild_to`] plus a single
/// linear repair in [`IncrementalMig::finish_mapped_round`]. The two
/// drivers number nodes differently, so equal decisions are measured,
/// not guaranteed: on every bundled benchmark, raw and after one
/// push-up, both reach the same fingerprint. Returns the number of
/// merges fired.
pub fn eliminate_inplace(g: &mut IncrementalMig) -> usize {
    rewrite_mapped(g, eliminate_rule)
}

/// The in-place *reshape* pass (`Ω.A; Ψ.C`): the rule of the rebuilding
/// [`crate::rewrite::reshape`], [`crate::rewrite::reshape_rule`], run on
/// the mapped-round protocol of [`eliminate_inplace`]. Same rule, not
/// always the same decisions: the rule reads an inner node's children
/// in index order, and this graph keeps its numbering through the pass
/// where the rebuild renumbers, so the two can swap a different
/// leftover (they differ on 25 of 300 input/direction pairs of the
/// bundled benchmarks). Returns the number of rewrites fired.
pub fn reshape_inplace(g: &mut IncrementalMig, deeper: bool) -> usize {
    rewrite_mapped(g, |g, kids, single| reshape_rule(g, kids, single, deeper))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewrite;
    use rms_logic::bench_suite;
    use rms_logic::sim::check_equivalence;

    fn bench_mig(name: &str) -> Mig {
        Mig::from_netlist(&bench_suite::build(name).unwrap()).compact()
    }

    fn assert_equiv(a: &Mig, b: &Mig, what: &str) {
        let res = check_equivalence(&a.to_netlist(), &b.to_netlist());
        assert!(res.holds(), "{what}: {res:?}");
    }

    const SAMPLES: &[&str] = &["rd53_f2", "exam3_d", "con1_f1", "9sym_d", "sao2_f4"];

    #[test]
    fn round_trip_is_identity() {
        for name in SAMPLES {
            let m = bench_mig(name);
            let inc = IncrementalMig::from_mig(&m);
            inc.assert_consistent();
            let back = inc.to_mig();
            assert_eq!(back.num_gates(), m.num_gates(), "{name}");
            assert_eq!(back.depth(), m.depth(), "{name}");
            assert_eq!(back.truth_tables(), m.truth_tables(), "{name}");
        }
    }

    #[test]
    fn signatures_match_word_simulation() {
        let m = bench_mig("rd53_f2");
        let inc = IncrementalMig::from_mig(&m);
        let words: Vec<u64> = (0..m.num_inputs()).map(input_word).collect();
        let outs = m.simulate_words(&words);
        for (o, (_, s)) in outs.iter().zip(inc.outputs()) {
            assert_eq!(*o, inc.sig_of(*s));
        }
    }

    #[test]
    fn replace_rewires_and_collects() {
        // f = M(M(a,b,0), c, d); replace the inner AND by just `a`.
        let mut m = Mig::with_inputs("t", 4);
        let (a, b, c, d) = (m.input(0), m.input(1), m.input(2), m.input(3));
        let and = m.and(a, b);
        let top = m.maj(and, c, d);
        m.add_output("f", top);
        let mut inc = IncrementalMig::from_mig(&m);
        // The replacement is functionally different (a mechanics-only
        // test), so patch the cached signature to satisfy the guard.
        inc.sigs[and.node()] = inc.sigs[a.node()];
        inc.replace(and.node(), MigSignal::new(a.node(), false));
        inc.assert_consistent();
        assert_eq!(inc.num_gates(), 1);
        let back = inc.to_mig();
        let mut want = Mig::with_inputs("w", 4);
        let (wa, wc, wd) = (want.input(0), want.input(2), want.input(3));
        let wt = want.maj(wa, wc, wd);
        want.add_output("f", wt);
        assert_eq!(back.truth_tables(), want.truth_tables());
    }

    #[test]
    fn replace_cascades_strash_merges() {
        // Two structures that become identical after a replacement must
        // merge, and the merge must propagate to their parents.
        let mut m = Mig::with_inputs("t", 4);
        let (a, b, c, d) = (m.input(0), m.input(1), m.input(2), m.input(3));
        let g1 = m.maj(a, b, c);
        let g2 = m.maj(a, d, c);
        let p1 = m.maj(g1, c, d);
        let p2 = m.maj(g2, c, d);
        let top = m.and(p1, p2);
        m.add_output("f", top);
        let mut inc = IncrementalMig::from_mig(&m);
        let gates_before = inc.num_gates();
        assert_eq!(gates_before, 5);
        // Declare g2's function equal to g1 (it is not, in general — but
        // for the structural cascade test we only care about mechanics,
        // so pick an input assignment where it holds: replace d by b).
        // Instead: replace g2 with g1 after making them truly equal is
        // impossible without rebuilding; exercise the cascade by
        // replacing input-d references: not supported. So: replace g2 by
        // g1 only in a release-semantics sense is wrong. Build a true
        // merge instead: replace g2 with M(a, b, c) reconstructed.
        let g1_again = inc.maj(inc.input(0), inc.input(1), inc.input(2));
        assert_eq!(g1_again, MigSignal::new(g1.node(), false));
        // p1 and p2 differ only in g1/g2; replacing g2 by g1 merges p2
        // into p1, and the AND collapses to M(p1, p1, 0) = p1.
        // The functions differ, so go through the test-only raw path.
        let sig_g1 = inc.sigs[g1.node()];
        inc.sigs[g2.node()] = sig_g1; // satisfy the debug signature guard
        inc.replace(g2.node(), MigSignal::new(g1.node(), false));
        inc.assert_consistent();
        // g2 and p2 died; the top AND collapsed onto p1.
        assert_eq!(inc.num_gates(), 2);
        assert_eq!(inc.outputs()[0].1.node(), p1.node());
    }

    #[test]
    fn eliminate_inplace_matches_rebuild_quality() {
        // The same rule on both drivers: on every bundled benchmark, raw
        // and after one push-up, the in-place pass lands on the rebuild
        // pass's fingerprint (gates, depth, complemented edges, tainted
        // levels). Reshape has no such pin: its decisions depend on node
        // numbering, which the two drivers do not share.
        for info in bench_suite::LARGE_SUITE
            .iter()
            .chain(bench_suite::SMALL_SUITE)
        {
            let raw = Mig::from_netlist(&bench_suite::build_info(info)).compact();
            let pushed = rewrite::push_up(&raw);
            for (what, m) in [("raw", raw), ("push-up", pushed)] {
                let name = format!("{} ({what})", info.name);
                let rebuilt = rewrite::eliminate(&m);
                let mut inc = IncrementalMig::from_mig(&m);
                eliminate_inplace(&mut inc);
                inc.assert_consistent();
                let s = crate::cost::MigStats::of(&rebuilt);
                assert_eq!(
                    inc.fingerprint(),
                    (
                        rebuilt.num_gates(),
                        rebuilt.depth(),
                        s.complemented_edges,
                        s.levels_with_compl
                    ),
                    "{name}: in-place eliminate diverged from rebuild"
                );
                assert_equiv(&m, &inc.to_mig(), &name);
            }
        }
    }

    #[test]
    fn reshape_inplace_preserves_function() {
        for name in SAMPLES {
            let m = bench_mig(name);
            for deeper in [false, true] {
                let mut inc = IncrementalMig::from_mig(&m);
                reshape_inplace(&mut inc, deeper);
                inc.assert_consistent();
                let spliced = inc.to_mig();
                assert_equiv(&m, &spliced, name);
            }
        }
    }

    #[test]
    fn maj_builder_strash_and_axioms() {
        let m = bench_mig("exam3_d");
        let mut inc = IncrementalMig::from_mig(&m);
        let (a, b) = (inc.input(0), inc.input(1));
        assert_eq!(inc.maj(a, a, b), a);
        assert_eq!(inc.maj(a, !a, b), b);
        let before = inc.len();
        let x = inc.maj(a, b, MigSignal::FALSE);
        let y = inc.maj(b, MigSignal::FALSE, a);
        assert_eq!(x, y);
        assert!(inc.len() <= before + 1);
        inc.undo_tail(before);
        inc.assert_consistent();
    }

    #[test]
    fn topo_order_is_topological() {
        let m = bench_mig("9sym_d");
        let inc = IncrementalMig::from_mig(&m);
        let order = inc.topo_order();
        let mut pos = vec![usize::MAX; inc.len()];
        for (i, &n) in order.iter().enumerate() {
            pos[n as usize] = i;
        }
        for &n in &order {
            let kids = inc.maj_children(n as usize).unwrap();
            for k in kids {
                if inc.maj_children(k.node()).is_some() {
                    assert!(pos[k.node()] < pos[n as usize]);
                }
            }
        }
    }

    #[test]
    fn fingerprint_matches_stats() {
        for name in SAMPLES {
            let m = bench_mig(name);
            let inc = IncrementalMig::from_mig(&m);
            let (gates, depth, compl, levels) = inc.fingerprint();
            let s = crate::cost::MigStats::of(&m);
            assert_eq!(gates, m.num_gates(), "{name}");
            assert_eq!(depth, m.depth(), "{name}");
            assert_eq!(compl, s.complemented_edges, "{name}");
            assert_eq!(levels, s.levels_with_compl, "{name}");
        }
    }
}
