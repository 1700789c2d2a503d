//! A multi-output gate-level netlist IR.
//!
//! [`Netlist`] is the neutral circuit representation every front end
//! (expression, BLIF, PLA, benchmark generators) lowers into, and every
//! synthesis engine (MIG, BDD, AIG) consumes. Nodes are stored in
//! topological order by construction; inverters are free complement marks
//! on [`Wire`]s, matching the edge-complement convention of the graph
//! representations used throughout the paper.
//!
//! # Example
//!
//! ```
//! use rms_logic::netlist::NetlistBuilder;
//!
//! let mut b = NetlistBuilder::new("half_adder");
//! let x = b.input("x");
//! let y = b.input("y");
//! let sum = b.xor(x, y);
//! let carry = b.and(x, y);
//! b.output("sum", sum);
//! b.output("carry", carry);
//! let nl = b.build();
//! assert_eq!(nl.num_gates(), 2);
//! let tts = nl.truth_tables();
//! assert_eq!(tts[0].count_ones(), 2); // XOR
//! assert_eq!(tts[1].count_ones(), 1); // AND
//! ```

use crate::tt::{exhaustive_tables, TruthTable, MAX_VARS};
use std::fmt;

/// A reference to a netlist node, with a complement flag.
///
/// The low bit is the complement flag; the remaining bits index the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Wire(u32);

impl Wire {
    /// Wire to node `node`, complemented iff `complement`.
    pub fn new(node: usize, complement: bool) -> Self {
        Wire(((node as u32) << 1) | complement as u32)
    }

    /// Index of the referenced node.
    pub fn node(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// Whether the wire is complemented.
    pub fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// The same wire with the complement flag toggled.
    #[must_use]
    pub fn complement(self) -> Self {
        Wire(self.0 ^ 1)
    }

    /// The same wire with the complement flag cleared.
    #[must_use]
    pub fn regular(self) -> Self {
        Wire(self.0 & !1)
    }
}

impl fmt::Display for Wire {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_complemented() {
            write!(f, "!n{}", self.node())
        } else {
            write!(f, "n{}", self.node())
        }
    }
}

/// The logic function of a gate node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Two-input AND.
    And,
    /// Two-input OR.
    Or,
    /// Two-input XOR.
    Xor,
    /// Three-input majority.
    Maj,
    /// If-then-else: fanins are (selector, then, else).
    Mux,
}

impl GateKind {
    /// Number of fanins this kind requires.
    pub fn arity(self) -> usize {
        match self {
            GateKind::And | GateKind::Or | GateKind::Xor => 2,
            GateKind::Maj | GateKind::Mux => 3,
        }
    }
}

/// A gate instance inside a [`Netlist`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// Logic function.
    pub kind: GateKind,
    /// Fanin wires; length equals `kind.arity()`.
    pub fanins: Vec<Wire>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Node {
    Const0,
    Input(usize),
    Gate(Gate),
}

/// A multi-output combinational circuit.
///
/// Node 0 is the constant-false node; nodes `1..=num_inputs` are the primary
/// inputs; all further nodes are gates in topological order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    name: String,
    input_names: Vec<String>,
    nodes: Vec<Node>,
    outputs: Vec<(String, Wire)>,
}

impl Netlist {
    /// The circuit name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.input_names.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of gate nodes (constants and inputs excluded).
    pub fn num_gates(&self) -> usize {
        self.nodes.len() - 1 - self.num_inputs()
    }

    /// Total node count, including the constant and the inputs.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Primary input names, in variable order.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Primary outputs as (name, wire) pairs.
    pub fn outputs(&self) -> &[(String, Wire)] {
        &self.outputs
    }

    /// The wire referring (uncomplemented) to primary input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_inputs()`.
    pub fn input_wire(&self, i: usize) -> Wire {
        assert!(i < self.num_inputs());
        Wire::new(1 + i, false)
    }

    /// The gate stored at node index `node`, if that node is a gate.
    pub fn gate(&self, node: usize) -> Option<&Gate> {
        match self.nodes.get(node) {
            Some(Node::Gate(g)) => Some(g),
            _ => None,
        }
    }

    /// Iterates over `(node_index, gate)` pairs in topological order.
    pub fn gates(&self) -> impl Iterator<Item = (usize, &Gate)> {
        self.nodes.iter().enumerate().filter_map(|(i, n)| match n {
            Node::Gate(g) => Some((i, g)),
            _ => None,
        })
    }

    /// Bit-parallel simulation: given one word per input, returns one word
    /// per output (64 parallel evaluations).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_inputs()`.
    pub fn simulate_words(&self, inputs: &[u64]) -> Vec<u64> {
        assert_eq!(inputs.len(), self.num_inputs(), "input count mismatch");
        let mut values = vec![0u64; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            values[i] = match node {
                Node::Const0 => 0,
                Node::Input(k) => inputs[*k],
                Node::Gate(g) => {
                    let v = |w: Wire| -> u64 {
                        let raw = values[w.node()];
                        if w.is_complemented() {
                            !raw
                        } else {
                            raw
                        }
                    };
                    match g.kind {
                        GateKind::And => v(g.fanins[0]) & v(g.fanins[1]),
                        GateKind::Or => v(g.fanins[0]) | v(g.fanins[1]),
                        GateKind::Xor => v(g.fanins[0]) ^ v(g.fanins[1]),
                        GateKind::Maj => {
                            let (a, b, c) = (v(g.fanins[0]), v(g.fanins[1]), v(g.fanins[2]));
                            (a & b) | (a & c) | (b & c)
                        }
                        GateKind::Mux => {
                            let (s, t, e) = (v(g.fanins[0]), v(g.fanins[1]), v(g.fanins[2]));
                            (s & t) | (!s & e)
                        }
                    }
                }
            };
        }
        self.outputs
            .iter()
            .map(|(_, w)| {
                let raw = values[w.node()];
                if w.is_complemented() {
                    !raw
                } else {
                    raw
                }
            })
            .collect()
    }

    /// Evaluates the circuit on a single input minterm (bit `i` of `m` is
    /// input `i`); returns one bool per output.
    pub fn evaluate(&self, m: u64) -> Vec<bool> {
        let inputs: Vec<u64> = (0..self.num_inputs())
            .map(|i| if (m >> i) & 1 == 1 { u64::MAX } else { 0 })
            .collect();
        self.simulate_words(&inputs)
            .into_iter()
            .map(|w| w & 1 == 1)
            .collect()
    }

    /// Exhaustive truth tables of every output.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more than [`MAX_VARS`] inputs; use
    /// [`Netlist::simulate_words`] with sampled patterns instead.
    pub fn truth_tables(&self) -> Vec<TruthTable> {
        let n = self.num_inputs();
        assert!(
            n <= MAX_VARS,
            "{n}-input circuit too large for exhaustive truth tables"
        );
        exhaustive_tables(n, self.outputs.len(), |inputs| self.simulate_words(inputs))
    }

    /// Depth of the circuit: the longest input-to-output path in gates.
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.nodes.len()];
        let mut best = 0;
        for (i, node) in self.nodes.iter().enumerate() {
            if let Node::Gate(g) = node {
                level[i] = 1 + g.fanins.iter().map(|w| level[w.node()]).max().unwrap_or(0);
            }
        }
        for (_, w) in &self.outputs {
            best = best.max(level[w.node()]);
        }
        best
    }
}

/// Incremental constructor for [`Netlist`].
///
/// All gate methods return the [`Wire`] of the created node; `not` is free
/// (it only flips the complement flag). See the [module documentation]
/// (self) for a complete example.
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: String,
    input_names: Vec<String>,
    nodes: Vec<Node>,
    outputs: Vec<(String, Wire)>,
}

impl NetlistBuilder {
    /// Starts a new netlist with the given circuit name.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            input_names: Vec::new(),
            nodes: vec![Node::Const0],
            outputs: Vec::new(),
        }
    }

    /// The constant-false wire.
    pub fn const0(&self) -> Wire {
        Wire::new(0, false)
    }

    /// The constant-true wire.
    pub fn const1(&self) -> Wire {
        Wire::new(0, true)
    }

    /// Declares a new primary input and returns its wire.
    pub fn input(&mut self, name: impl Into<String>) -> Wire {
        let idx = self.input_names.len();
        assert_eq!(
            self.nodes.len(),
            1 + idx,
            "all inputs must be declared before the first gate"
        );
        self.input_names.push(name.into());
        self.nodes.push(Node::Input(idx));
        Wire::new(1 + idx, false)
    }

    fn check(&self, w: Wire) {
        assert!(
            w.node() < self.nodes.len(),
            "wire {w} references a future node"
        );
    }

    fn gate(&mut self, kind: GateKind, fanins: Vec<Wire>) -> Wire {
        debug_assert_eq!(fanins.len(), kind.arity());
        for &w in &fanins {
            self.check(w);
        }
        let idx = self.nodes.len();
        self.nodes.push(Node::Gate(Gate { kind, fanins }));
        Wire::new(idx, false)
    }

    /// Adds a two-input AND gate.
    pub fn and(&mut self, a: Wire, b: Wire) -> Wire {
        self.gate(GateKind::And, vec![a, b])
    }

    /// Adds a two-input OR gate.
    pub fn or(&mut self, a: Wire, b: Wire) -> Wire {
        self.gate(GateKind::Or, vec![a, b])
    }

    /// Adds a two-input XOR gate.
    pub fn xor(&mut self, a: Wire, b: Wire) -> Wire {
        self.gate(GateKind::Xor, vec![a, b])
    }

    /// Adds a three-input majority gate.
    pub fn maj(&mut self, a: Wire, b: Wire, c: Wire) -> Wire {
        self.gate(GateKind::Maj, vec![a, b, c])
    }

    /// Adds a multiplexer `s ? t : e`.
    pub fn mux(&mut self, s: Wire, t: Wire, e: Wire) -> Wire {
        self.gate(GateKind::Mux, vec![s, t, e])
    }

    /// Complements a wire (free; no gate is created).
    pub fn not(&self, a: Wire) -> Wire {
        a.complement()
    }

    /// Declares a primary output.
    pub fn output(&mut self, name: impl Into<String>, wire: Wire) {
        self.check(wire);
        self.outputs.push((name.into(), wire));
    }

    /// Number of nodes created so far (constant + inputs + gates).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Finishes construction.
    ///
    /// # Panics
    ///
    /// Panics if no output was declared.
    pub fn build(self) -> Netlist {
        assert!(!self.outputs.is_empty(), "netlist has no outputs");
        Netlist {
            name: self.name,
            input_names: self.input_names,
            nodes: self.nodes,
            outputs: self.outputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder() -> Netlist {
        let mut b = NetlistBuilder::new("full_adder");
        let x = b.input("x");
        let y = b.input("y");
        let cin = b.input("cin");
        let s1 = b.xor(x, y);
        let sum = b.xor(s1, cin);
        let carry = b.maj(x, y, cin);
        b.output("sum", sum);
        b.output("cout", carry);
        b.build()
    }

    #[test]
    fn wire_packing() {
        let w = Wire::new(5, true);
        assert_eq!(w.node(), 5);
        assert!(w.is_complemented());
        assert_eq!(w.complement().node(), 5);
        assert!(!w.complement().is_complemented());
        assert_eq!(w.regular(), Wire::new(5, false));
        assert_eq!(w.to_string(), "!n5");
    }

    #[test]
    fn full_adder_truth() {
        let nl = full_adder();
        assert_eq!(nl.num_gates(), 3);
        for m in 0..8u64 {
            let outs = nl.evaluate(m);
            let total = m.count_ones();
            assert_eq!(outs[0], total & 1 == 1, "sum at {m}");
            assert_eq!(outs[1], total >= 2, "carry at {m}");
        }
    }

    #[test]
    fn truth_tables_match_evaluate() {
        let nl = full_adder();
        let tts = nl.truth_tables();
        for m in 0..8u64 {
            let outs = nl.evaluate(m);
            assert_eq!(tts[0].bit(m), outs[0]);
            assert_eq!(tts[1].bit(m), outs[1]);
        }
    }

    #[test]
    fn complemented_outputs_and_constants() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x");
        let nand = b.and(x, b.const1());
        b.output("not_x", b.not(nand));
        b.output("zero", b.const0());
        b.output("one", b.const1());
        let nl = b.build();
        assert_eq!(nl.evaluate(0), vec![true, false, true]);
        assert_eq!(nl.evaluate(1), vec![false, false, true]);
    }

    #[test]
    fn mux_gate() {
        let mut b = NetlistBuilder::new("m");
        let s = b.input("s");
        let t = b.input("t");
        let e = b.input("e");
        let m = b.mux(s, t, e);
        b.output("o", m);
        let nl = b.build();
        for mt in 0..8u64 {
            let s = mt & 1 == 1;
            let t = mt & 2 != 0;
            let e = mt & 4 != 0;
            assert_eq!(nl.evaluate(mt)[0], if s { t } else { e });
        }
    }

    #[test]
    fn depth_of_chain() {
        let mut b = NetlistBuilder::new("chain");
        let x = b.input("x");
        let y = b.input("y");
        let mut w = b.and(x, y);
        for _ in 0..9 {
            w = b.xor(w, y);
        }
        b.output("o", w);
        assert_eq!(b.build().depth(), 10);
    }

    #[test]
    fn simulate_words_parallel() {
        let nl = full_adder();
        // Pattern words enumerate all 8 minterm combos in the low bits.
        let x = 0b10101010u64;
        let y = 0b11001100u64;
        let c = 0b11110000u64;
        let outs = nl.simulate_words(&[x, y, c]);
        for bit in 0..8 {
            let m = ((x >> bit) & 1) | (((y >> bit) & 1) << 1) | (((c >> bit) & 1) << 2);
            let expect = nl.evaluate(m);
            assert_eq!((outs[0] >> bit) & 1 == 1, expect[0]);
            assert_eq!((outs[1] >> bit) & 1 == 1, expect[1]);
        }
    }

    #[test]
    #[should_panic(expected = "no outputs")]
    fn build_requires_outputs() {
        let mut b = NetlistBuilder::new("empty");
        b.input("x");
        let _ = b.build();
    }
}
