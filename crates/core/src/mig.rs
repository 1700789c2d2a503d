//! The majority-inverter graph data structure.
//!
//! An [`Mig`] is a DAG whose only gate is the three-input majority function
//! `M(x, y, z) = xy + xz + yz`; inversion is a complement attribute on
//! edges ([`MigSignal`]). Nodes are stored in topological order (children
//! always precede parents) and are structurally hashed, with the paper's
//! majority axiom Ω.M applied eagerly at construction:
//!
//! - `M(x, x, z) = x`
//! - `M(x, x̄, z) = z`
//!
//! [`Mig::maj`] is the only way to add a gate, so every graph is strashed
//! and Ω.M-normal by construction: each gate's children are sorted and
//! name three distinct nodes, and no two gates share a child triple.
//! [`Mig::compact`] relies on this to drop dead nodes with a plain copy.
//! The structural-hash table itself is built lazily: a compacted graph
//! starts without one, and the first [`Mig::maj`] indexes the nodes it
//! has not seen yet.
//!
//! Complement placement is **not** canonicalized by the constructor: the
//! RRAM cost metrics of Table I charge for complemented edges per level, and
//! the inverter-propagation passes in [`crate::rewrite`] explicitly optimize
//! complement placement, so the data structure must faithfully keep edges
//! where the algorithms put them.

use crate::hash::FxHashMap;
use crate::signal::MigSignal;
use rms_logic::netlist::{GateKind, Netlist, NetlistBuilder, Wire};
use rms_logic::tt::{exhaustive_tables, TruthTable, MAX_VARS};
use std::fmt::Write as _;

/// Sorts majority children and applies the Ω.M collapse rules.
///
/// Returns `Err(sig)` when the gate degenerates to an existing signal
/// (duplicated or complementary children), `Ok(sorted)` otherwise. Both
/// [`Mig::maj`] and the in-place engine in [`crate::fanout`] normalize
/// through this single function so their structural invariants cannot
/// drift apart.
pub(crate) fn normalize_maj(
    a: MigSignal,
    b: MigSignal,
    c: MigSignal,
) -> Result<[MigSignal; 3], MigSignal> {
    let mut kids = [a, b, c];
    kids.sort();
    // Ω.M: duplicate or complementary children. Sorting puts equal
    // signals and complement pairs adjacent.
    if kids[0] == kids[1] {
        return Err(kids[0]);
    }
    if kids[1] == kids[2] {
        return Err(kids[1]);
    }
    if kids[0] == !kids[1] {
        return Err(kids[2]);
    }
    if kids[1] == !kids[2] {
        return Err(kids[0]);
    }
    Ok(kids)
}

/// A graph that majority nodes can be built into and read back from:
/// anything a database entry can be instantiated into and the Ω rules of
/// [`crate::rewrite`] can match on ([`Mig`] and the in-place engine of
/// [`crate::fanout`] both implement it).
pub trait MajBuilder {
    /// Creates (or re-finds) a majority node over the given signals.
    fn maj(&mut self, a: MigSignal, b: MigSignal, c: MigSignal) -> MigSignal;
    /// Views `sig` as a majority gate: returns its children, complemented
    /// when `sig` itself is complemented (by inverter propagation
    /// `M(x,y,z)' = M(x̄,ȳ,z̄)`).
    ///
    /// Rewriting through this view is functionally sound but moves
    /// complement attributes; the rewrite passes use it deliberately.
    fn children_through(&self, sig: MigSignal) -> Option<[MigSignal; 3]>;
    /// Level of the node a signal points to.
    fn signal_level(&self, sig: MigSignal) -> u32;
}

/// A node of the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MigNode {
    /// The constant-false node (always node 0).
    Const0,
    /// Primary input with its index.
    Input(u32),
    /// Majority gate over three child signals (sorted).
    Maj([MigSignal; 3]),
}

/// A majority-inverter graph.
///
/// # Example
///
/// ```
/// use rms_core::Mig;
///
/// let mut mig = Mig::with_inputs("maj3", 3);
/// let (a, b, c) = (mig.input(0), mig.input(1), mig.input(2));
/// let m = mig.maj(a, b, c);
/// mig.add_output("f", m);
/// assert_eq!(mig.num_gates(), 1);
/// assert_eq!(mig.truth_tables()[0].count_ones(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Mig {
    name: String,
    num_inputs: usize,
    nodes: Vec<MigNode>,
    levels: Vec<u32>,
    outputs: Vec<(String, MigSignal)>,
    /// Child triple → index of every gate in `nodes[..hashed]`.
    strash: FxHashMap<[MigSignal; 3], u32>,
    /// Length of the node prefix indexed in `strash`; [`Mig::maj`]
    /// catches up before its lookup.
    hashed: usize,
}

impl Mig {
    /// Creates an empty graph with `num_inputs` primary inputs.
    pub fn with_inputs(name: impl Into<String>, num_inputs: usize) -> Self {
        Self::with_capacity(name, num_inputs, num_inputs + 1)
    }

    /// [`Mig::with_inputs`] with room for `capacity` nodes (constant,
    /// inputs and gates) before the node arrays or the structural-hash
    /// table reallocate.
    pub(crate) fn with_capacity(
        name: impl Into<String>,
        num_inputs: usize,
        capacity: usize,
    ) -> Self {
        let mut nodes = Vec::with_capacity(capacity.max(num_inputs + 1));
        nodes.push(MigNode::Const0);
        for i in 0..num_inputs {
            nodes.push(MigNode::Input(i as u32));
        }
        let mut levels = Vec::with_capacity(nodes.capacity());
        levels.resize(nodes.len(), 0);
        let mut strash = FxHashMap::default();
        strash.reserve(capacity.saturating_sub(nodes.len()));
        Mig {
            name: name.into(),
            num_inputs,
            hashed: nodes.len(),
            levels,
            nodes,
            outputs: Vec::new(),
            strash,
        }
    }

    /// The graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of majority nodes.
    pub fn num_gates(&self) -> usize {
        self.nodes.len() - 1 - self.num_inputs
    }

    /// Total node count (constant + inputs + gates).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no gate nodes.
    pub fn is_empty(&self) -> bool {
        self.num_gates() == 0
    }

    /// The signal of primary input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_inputs()`.
    pub fn input(&self, i: usize) -> MigSignal {
        assert!(i < self.num_inputs, "input {i} out of range");
        MigSignal::new(1 + i, false)
    }

    /// The constant signal with value `v`.
    pub fn constant(&self, v: bool) -> MigSignal {
        if v {
            MigSignal::TRUE
        } else {
            MigSignal::FALSE
        }
    }

    /// The node at index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn node(&self, idx: usize) -> MigNode {
        self.nodes[idx]
    }

    /// The children of node `idx` if it is a majority gate.
    pub fn maj_children(&self, idx: usize) -> Option<[MigSignal; 3]> {
        match self.nodes[idx] {
            MigNode::Maj(c) => Some(c),
            _ => None,
        }
    }

    /// Level of node `idx`: longest path from the inputs (inputs and the
    /// constant are level 0).
    pub fn level(&self, idx: usize) -> u32 {
        self.levels[idx]
    }

    /// Depth of the graph: the maximum level over the output nodes.
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

    /// Declares a primary output.
    ///
    /// # Panics
    ///
    /// Panics if the signal references a node that does not exist.
    pub fn add_output(&mut self, name: impl Into<String>, sig: MigSignal) {
        assert!(sig.node() < self.nodes.len(), "dangling output signal");
        self.outputs.push((name.into(), sig));
    }

    /// A hash of the graph's structure: its nodes, in order, and its
    /// output signals. Graphs that are [`Mig::same_structure`] hash
    /// equal; the converse needs the comparison.
    pub(crate) fn structural_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = crate::hash::FxHasher::default();
        self.nodes.hash(&mut h);
        for (_, s) in &self.outputs {
            s.hash(&mut h);
        }
        h.finish()
    }

    /// Whether two graphs are equal node for node: same name, same
    /// nodes in the same order, same outputs. Levels and the
    /// structural-hash table are derived from the nodes, so a pass that
    /// reads the graph cannot tell two such graphs apart.
    pub(crate) fn same_structure(&self, other: &Mig) -> bool {
        self.name == other.name && self.nodes == other.nodes && self.outputs == other.outputs
    }

    /// Creates (or re-finds) a majority node over the given signals.
    ///
    /// Applies the majority axiom Ω.M eagerly: duplicated children collapse
    /// to the child, complementary children select the remaining child; the
    /// result may therefore be an existing signal rather than a new node.
    ///
    /// # Panics
    ///
    /// Panics if any child references a node that does not exist.
    pub fn maj(&mut self, a: MigSignal, b: MigSignal, c: MigSignal) -> MigSignal {
        let n = self.nodes.len();
        assert!(
            a.node() < n && b.node() < n && c.node() < n,
            "child signal out of range"
        );
        let kids = match normalize_maj(a, b, c) {
            Ok(kids) => kids,
            Err(sig) => return sig,
        };
        self.index_strash();
        if let Some(&idx) = self.strash.get(&kids) {
            return MigSignal::new(idx as usize, false);
        }
        let idx = self.nodes.len();
        self.nodes.push(MigNode::Maj(kids));
        let lvl = 1 + kids
            .iter()
            .map(|s| self.levels[s.node()])
            .max()
            .expect("three children");
        self.levels.push(lvl);
        self.strash.insert(kids, idx as u32);
        self.hashed = self.nodes.len();
        MigSignal::new(idx, false)
    }

    /// Adds the gates not yet in the structural-hash table (all of them
    /// after a [`Mig::compact`]).
    fn index_strash(&mut self) {
        if self.hashed == self.nodes.len() {
            return;
        }
        self.strash.reserve(self.nodes.len() - self.hashed);
        for (idx, node) in self.nodes.iter().enumerate().skip(self.hashed) {
            if let MigNode::Maj(kids) = node {
                self.strash.insert(*kids, idx as u32);
            }
        }
        self.hashed = self.nodes.len();
    }

    /// `a AND b`, expressed as `M(a, b, 0)`.
    pub fn and(&mut self, a: MigSignal, b: MigSignal) -> MigSignal {
        self.maj(a, b, MigSignal::FALSE)
    }

    /// `a OR b`, expressed as `M(a, b, 1)`.
    pub fn or(&mut self, a: MigSignal, b: MigSignal) -> MigSignal {
        self.maj(a, b, MigSignal::TRUE)
    }

    /// `a XOR b`, expressed with three majority nodes.
    pub fn xor(&mut self, a: MigSignal, b: MigSignal) -> MigSignal {
        let both = self.and(a, b);
        let either = self.or(a, b);
        self.and(!both, either)
    }

    /// If-then-else `s ? t : e`, expressed with three majority nodes.
    pub fn mux(&mut self, s: MigSignal, t: MigSignal, e: MigSignal) -> MigSignal {
        let st = self.and(s, t);
        let se = self.and(!s, e);
        self.or(st, se)
    }

    /// Number of references (from gates and outputs) to each node.
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut refs = vec![0u32; self.nodes.len()];
        for node in &self.nodes {
            if let MigNode::Maj(kids) = node {
                for k in kids {
                    refs[k.node()] += 1;
                }
            }
        }
        for (_, s) in &self.outputs {
            refs[s.node()] += 1;
        }
        refs
    }

    /// The graph restricted to the nodes reachable from the outputs (plus
    /// the constant and every input), in the same order.
    ///
    /// Nothing else changes. Every graph is strashed and Ω.M-normal by
    /// construction (see the module docs), so dead nodes are all there
    /// is to remove: the live nodes are copied with their levels, and
    /// renumbering them monotonically keeps every child triple sorted and
    /// distinct. The result starts without a structural-hash table; the
    /// first [`Mig::maj`] on it builds one.
    pub fn compact(&self) -> Mig {
        let alive = self.reachable();
        let first_gate = self.num_inputs + 1;
        let live = first_gate + alive[first_gate..].iter().filter(|&&a| a).count();
        let mut nodes = Vec::with_capacity(live);
        let mut levels = Vec::with_capacity(live);
        // Old index → new index of every live node.
        let mut map: Vec<u32> = vec![0; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            if i >= first_gate && !alive[i] {
                continue;
            }
            map[i] = nodes.len() as u32;
            nodes.push(match *node {
                MigNode::Maj(kids) => MigNode::Maj(
                    kids.map(|s| MigSignal::new(map[s.node()] as usize, s.is_complemented())),
                ),
                leaf => leaf,
            });
            levels.push(self.levels[i]);
        }
        let outputs = self
            .outputs
            .iter()
            .map(|(name, s)| {
                let m = MigSignal::new(map[s.node()] as usize, s.is_complemented());
                (name.clone(), m)
            })
            .collect();
        Mig {
            name: self.name.clone(),
            num_inputs: self.num_inputs,
            hashed: first_gate,
            nodes,
            levels,
            outputs,
            strash: FxHashMap::default(),
        }
    }

    /// Marks the nodes reachable from the outputs.
    fn reachable(&self) -> Vec<bool> {
        let mut alive = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = self.outputs.iter().map(|(_, s)| s.node()).collect();
        while let Some(i) = stack.pop() {
            if alive[i] {
                continue;
            }
            alive[i] = true;
            if let MigNode::Maj(kids) = self.nodes[i] {
                stack.extend(kids.iter().map(|k| k.node()));
            }
        }
        alive
    }

    /// Bit-parallel simulation: one input word per primary input, one
    /// output word per primary output.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_inputs()`.
    pub fn simulate_words(&self, inputs: &[u64]) -> Vec<u64> {
        assert_eq!(inputs.len(), self.num_inputs, "input count mismatch");
        let mut vals = vec![0u64; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            vals[i] = match node {
                MigNode::Const0 => 0,
                MigNode::Input(k) => inputs[*k as usize],
                MigNode::Maj(kids) => {
                    let v = |s: MigSignal| -> u64 {
                        let raw = vals[s.node()];
                        if s.is_complemented() {
                            !raw
                        } else {
                            raw
                        }
                    };
                    let (a, b, c) = (v(kids[0]), v(kids[1]), v(kids[2]));
                    (a & b) | (a & c) | (b & c)
                }
            };
        }
        self.outputs
            .iter()
            .map(|(_, s)| {
                let raw = vals[s.node()];
                if s.is_complemented() {
                    !raw
                } else {
                    raw
                }
            })
            .collect()
    }

    /// Exhaustive truth tables of every output.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than [`MAX_VARS`] inputs.
    pub fn truth_tables(&self) -> Vec<TruthTable> {
        let n = self.num_inputs;
        assert!(n <= MAX_VARS, "too many inputs for exhaustive tables");
        exhaustive_tables(n, self.outputs.len(), |inputs| self.simulate_words(inputs))
    }

    /// Converts a gate-level netlist into an MIG.
    ///
    /// AND/OR become single majority nodes with a constant child; XOR and
    /// MUX become three-node networks; MAJ maps directly.
    pub fn from_netlist(nl: &Netlist) -> Mig {
        let mut mig = Mig::with_inputs(nl.name().to_string(), nl.num_inputs());
        let mut map: Vec<MigSignal> = vec![MigSignal::FALSE; nl.num_nodes()];
        for i in 0..nl.num_inputs() {
            map[1 + i] = mig.input(i);
        }
        let conv = |map: &[MigSignal], w: Wire| map[w.node()].complement_if(w.is_complemented());
        for (idx, gate) in nl.gates() {
            let sig = match gate.kind {
                GateKind::And => {
                    let (a, b) = (conv(&map, gate.fanins[0]), conv(&map, gate.fanins[1]));
                    mig.and(a, b)
                }
                GateKind::Or => {
                    let (a, b) = (conv(&map, gate.fanins[0]), conv(&map, gate.fanins[1]));
                    mig.or(a, b)
                }
                GateKind::Xor => {
                    let (a, b) = (conv(&map, gate.fanins[0]), conv(&map, gate.fanins[1]));
                    mig.xor(a, b)
                }
                GateKind::Maj => {
                    let (a, b, c) = (
                        conv(&map, gate.fanins[0]),
                        conv(&map, gate.fanins[1]),
                        conv(&map, gate.fanins[2]),
                    );
                    mig.maj(a, b, c)
                }
                GateKind::Mux => {
                    let (s, t, e) = (
                        conv(&map, gate.fanins[0]),
                        conv(&map, gate.fanins[1]),
                        conv(&map, gate.fanins[2]),
                    );
                    mig.mux(s, t, e)
                }
            };
            map[idx] = sig;
        }
        for (name, w) in nl.outputs() {
            let s = conv(&map, *w);
            mig.add_output(name.clone(), s);
        }
        mig
    }

    /// Converts the MIG to a gate-level netlist of MAJ gates (for reuse of
    /// the generic simulation and equivalence-checking machinery).
    pub fn to_netlist(&self) -> Netlist {
        let mut b = NetlistBuilder::new(self.name.clone());
        let mut map: Vec<Wire> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let w = match node {
                MigNode::Const0 => b.const0(),
                MigNode::Input(k) => {
                    debug_assert_eq!(*k as usize + 1, map.len());
                    b.input(format!("x{k}"))
                }
                MigNode::Maj(kids) => {
                    let w: Vec<Wire> = kids
                        .iter()
                        .map(|s| {
                            let base = map[s.node()];
                            if s.is_complemented() {
                                base.complement()
                            } else {
                                base
                            }
                        })
                        .collect();
                    b.maj(w[0], w[1], w[2])
                }
            };
            map.push(w);
        }
        for (name, s) in &self.outputs {
            let base = map[s.node()];
            let w = if s.is_complemented() {
                base.complement()
            } else {
                base
            };
            b.output(name.clone(), w);
        }
        b.build()
    }

    /// Graphviz DOT rendering (complemented edges drawn dashed).
    pub fn to_dot(&self) -> String {
        let mut s = String::from("digraph mig {\n  rankdir=BT;\n");
        for (i, node) in self.nodes.iter().enumerate() {
            match node {
                MigNode::Const0 => {
                    let _ = writeln!(s, "  n{i} [label=\"0\", shape=box];");
                }
                MigNode::Input(k) => {
                    let _ = writeln!(s, "  n{i} [label=\"x{k}\", shape=circle];");
                }
                MigNode::Maj(kids) => {
                    let _ = writeln!(s, "  n{i} [label=\"M\", shape=ellipse];");
                    for k in kids {
                        let style = if k.is_complemented() {
                            " [style=dashed]"
                        } else {
                            ""
                        };
                        let _ = writeln!(s, "  n{} -> n{i}{style};", k.node());
                    }
                }
            }
        }
        for (name, o) in &self.outputs {
            let style = if o.is_complemented() {
                " [style=dashed]"
            } else {
                ""
            };
            let _ = writeln!(s, "  out_{name} [label=\"{name}\", shape=box];");
            let _ = writeln!(s, "  n{} -> out_{name}{style};", o.node());
        }
        s.push_str("}\n");
        s
    }
}

impl MajBuilder for Mig {
    fn maj(&mut self, a: MigSignal, b: MigSignal, c: MigSignal) -> MigSignal {
        Mig::maj(self, a, b, c)
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

#[cfg(test)]
mod tests {
    use super::*;
    use rms_logic::bench_suite;
    use rms_logic::sim::{check_equivalence, EquivResult};

    #[test]
    fn majority_axiom_applied_eagerly() {
        let mut m = Mig::with_inputs("t", 2);
        let (a, b) = (m.input(0), m.input(1));
        assert_eq!(m.maj(a, a, b), a); // M(x,x,z) = x
        assert_eq!(m.maj(a, !a, b), b); // M(x,x̄,z) = z
        assert_eq!(m.maj(a, b, b), b);
        assert_eq!(m.maj(MigSignal::FALSE, MigSignal::TRUE, a), a);
        assert_eq!(m.num_gates(), 0);
    }

    #[test]
    fn strashing_shares_nodes() {
        let mut m = Mig::with_inputs("t", 3);
        let (a, b, c) = (m.input(0), m.input(1), m.input(2));
        let x = m.maj(a, b, c);
        let y = m.maj(c, a, b); // commutativity through sorting
        assert_eq!(x, y);
        assert_eq!(m.num_gates(), 1);
    }

    #[test]
    fn and_or_semantics() {
        let mut m = Mig::with_inputs("t", 2);
        let (a, b) = (m.input(0), m.input(1));
        let and = m.and(a, b);
        let or = m.or(a, b);
        let xor = m.xor(a, b);
        m.add_output("and", and);
        m.add_output("or", or);
        m.add_output("xor", xor);
        let tts = m.truth_tables();
        assert_eq!(tts[0].words()[0] & 0xF, 0b1000);
        assert_eq!(tts[1].words()[0] & 0xF, 0b1110);
        assert_eq!(tts[2].words()[0] & 0xF, 0b0110);
    }

    #[test]
    fn mux_semantics() {
        let mut m = Mig::with_inputs("t", 3);
        let (s, t, e) = (m.input(0), m.input(1), m.input(2));
        let mx = m.mux(s, t, e);
        m.add_output("f", mx);
        let tt = &m.truth_tables()[0];
        for mt in 0..8u64 {
            let sv = mt & 1 == 1;
            let tv = mt & 2 != 0;
            let ev = mt & 4 != 0;
            assert_eq!(tt.bit(mt), if sv { tv } else { ev });
        }
    }

    #[test]
    fn levels_and_depth() {
        let mut m = Mig::with_inputs("t", 4);
        let (a, b, c, d) = (m.input(0), m.input(1), m.input(2), m.input(3));
        let x = m.maj(a, b, c);
        let y = m.maj(x, c, d);
        let z = m.maj(y, a, b);
        m.add_output("f", z);
        assert_eq!(m.signal_level(x), 1);
        assert_eq!(m.signal_level(y), 2);
        assert_eq!(m.signal_level(z), 3);
        assert_eq!(m.depth(), 3);
    }

    #[test]
    fn netlist_round_trip_preserves_function() {
        for name in ["rd53_f2", "exam3_d", "clip", "newtag_d", "cm150a"] {
            let nl = bench_suite::build(name).unwrap();
            let mig = Mig::from_netlist(&nl);
            let back = mig.to_netlist();
            // cm150a has 21 inputs, so the check is sampled rather than
            // exhaustive; `holds` covers both verdicts.
            let res = check_equivalence(&nl, &back);
            assert!(res.holds(), "{name}: {res:?}");
            if nl.num_inputs() <= 16 {
                assert_eq!(res, EquivResult::Equivalent, "{name}");
            }
        }
    }

    #[test]
    fn compact_removes_dead_nodes() {
        let mut m = Mig::with_inputs("t", 3);
        let (a, b, c) = (m.input(0), m.input(1), m.input(2));
        let _dead = m.maj(a, b, c);
        let keep = m.and(a, c);
        m.add_output("f", keep);
        assert_eq!(m.num_gates(), 2);
        let small = m.compact();
        assert_eq!(small.num_gates(), 1);
        let before = m.truth_tables();
        let after = small.truth_tables();
        assert_eq!(before[0], after[0]);
    }

    /// The compaction before the linear copy: every live node rebuilt
    /// through [`Mig::maj`], re-applying structural hashing and Ω.M.
    fn compact_by_rebuild(mig: &Mig) -> Mig {
        let mut out = Mig::with_inputs(mig.name.clone(), mig.num_inputs);
        let alive = mig.reachable();
        let mut map: Vec<MigSignal> = Vec::with_capacity(mig.nodes.len());
        for (i, node) in mig.nodes.iter().enumerate() {
            let mapped = match node {
                MigNode::Const0 => MigSignal::FALSE,
                MigNode::Input(k) => out.input(*k as usize),
                MigNode::Maj(kids) if alive[i] => {
                    let k = kids.map(|s| map[s.node()].complement_if(s.is_complemented()));
                    out.maj(k[0], k[1], k[2])
                }
                MigNode::Maj(_) => MigSignal::FALSE, // never referenced
            };
            map.push(mapped);
        }
        for (name, s) in &mig.outputs {
            out.add_output(
                name.clone(),
                map[s.node()].complement_if(s.is_complemented()),
            );
        }
        out
    }

    /// Checks `mig.compact()` node for node (nodes, levels, outputs)
    /// against [`compact_by_rebuild`], then that `maj` on the compacted
    /// graph re-finds every gate. Returns how many dead nodes it dropped.
    fn check_compaction(mig: &Mig, what: &str) -> usize {
        let fast = mig.compact();
        let oracle = compact_by_rebuild(mig);
        assert_eq!(fast.num_inputs, oracle.num_inputs, "{what}: inputs");
        assert_eq!(fast.nodes, oracle.nodes, "{what}: nodes");
        assert_eq!(fast.levels, oracle.levels, "{what}: levels");
        assert_eq!(fast.outputs, oracle.outputs, "{what}: outputs");
        let mut g = fast.clone();
        for i in 0..fast.len() {
            if let MigNode::Maj(k) = fast.node(i) {
                let found = g.maj(k[0], k[1], k[2]);
                assert_eq!(
                    found,
                    MigSignal::new(i, false),
                    "{what}: gate {i} not re-found"
                );
            }
        }
        assert_eq!(g.len(), fast.len(), "{what}: maj added a node");
        mig.len() - fast.len()
    }

    #[test]
    fn compact_copies_what_the_rebuild_builds() {
        use crate::rewrite::{
            eliminate_uncompacted, inverter_propagation_uncompacted, push_up_uncompacted,
            relevance_uncompacted, reshape_uncompacted, InverterCases,
        };
        let mut dropped = 0;
        let benches = bench_suite::LARGE_SUITE
            .iter()
            .chain(bench_suite::SMALL_SUITE)
            .map(|info| (info.name.to_string(), bench_suite::build_info(info)));
        let random = (0..50u64).map(|seed| {
            let nl = rms_logic::random::random_netlist(
                "compact",
                seed,
                6 + seed as usize % 10,
                3,
                40 + 4 * seed as usize,
            );
            (format!("random seed {seed}"), nl)
        });
        for (name, nl) in benches.chain(random) {
            let mig = Mig::from_netlist(&nl);
            dropped += check_compaction(&mig, &name);
            // Pass outputs before their compaction hold the garbage of
            // rejected speculative candidates.
            let m = mig.compact();
            let passes = [
                ("eliminate", eliminate_uncompacted(&m)),
                ("reshape", reshape_uncompacted(&m, true)),
                ("push-up", push_up_uncompacted(&m)),
                ("relevance", relevance_uncompacted(&m)),
                (
                    "inverters",
                    inverter_propagation_uncompacted(&m, InverterCases::ALL, false),
                ),
                (
                    "guarded inverters",
                    inverter_propagation_uncompacted(&m, InverterCases::BASE, true),
                ),
            ];
            for (pass, raw) in passes {
                dropped += check_compaction(&raw, &format!("{name} / {pass}"));
            }
        }
        assert!(dropped > 0, "no dead node to drop");
    }

    #[test]
    fn children_through_complemented_view() {
        let mut m = Mig::with_inputs("t", 3);
        let (a, b, c) = (m.input(0), m.input(1), m.input(2));
        let g = m.maj(a, b, c);
        let through = m.children_through(!g).unwrap();
        // M(a,b,c)' = M(ā,b̄,c̄)
        let mut expect = [!a, !b, !c];
        expect.sort();
        let mut got = through;
        got.sort();
        assert_eq!(got, expect);
        assert!(m.children_through(a).is_none());
    }

    #[test]
    fn simulate_words_matches_truth_tables() {
        let nl = bench_suite::build("9sym_d").unwrap();
        let mig = Mig::from_netlist(&nl);
        let tt = &mig.truth_tables()[0];
        for m in 0..512u64 {
            assert_eq!(tt.bit(m), (3..=6).contains(&m.count_ones()), "{m}");
        }
    }

    #[test]
    fn dot_output_mentions_all_parts() {
        let mut m = Mig::with_inputs("t", 3);
        let (a, b, c) = (m.input(0), m.input(1), m.input(2));
        let g = m.maj(a, !b, c);
        m.add_output("f", g);
        let dot = m.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("out_f"));
    }
}
