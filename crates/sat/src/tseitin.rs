//! Tseitin encoding of combinational logic into CNF.
//!
//! [`Encoder`] wraps a [`Solver`] with a gate-level interface: every call
//! like [`Encoder::and`] returns a literal whose CNF definition has been
//! added to the solver. Three standard strengthenings keep the formulas
//! small and the miters easy:
//!
//! - **constant folding** — gates over constant or repeated literals
//!   reduce without emitting clauses,
//! - **structural hashing** — a gate over the same (canonicalized)
//!   operands is encoded once and shared, and
//! - **canonical polarities** — XOR and MAJ are normalized through their
//!   complement symmetries (`x ^ !y = !(x ^ y)`, `M(!a,!b,!c) =
//!   !M(a,b,c)`), so complement-heavy MIGs still hash onto few distinct
//!   gates.
//!
//! Majority gates are encoded *natively* — one fresh variable and the six
//! prime-implicant clauses of `z ↔ MAJ(a,b,c)` — instead of expanding to
//! the AND/OR sum, which would triple the auxiliary variable count on
//! MIG-shaped inputs.
//!
//! # Example
//!
//! ```
//! use rms_sat::{Encoder, SatResult};
//!
//! let mut enc = Encoder::new();
//! let a = enc.fresh();
//! let b = enc.fresh();
//! let c = enc.fresh();
//! let m1 = enc.maj(a, b, c);
//! let m2 = enc.maj(!a, !b, !c); // self-duality folds this to !m1
//! assert_eq!(m2, !m1);
//! let diff = enc.xor(m1, !m2); // folds to constant false
//! enc.assert_true(diff); // "m1 differs from !m2" has no model
//! assert_eq!(enc.solve(), SatResult::Unsat);
//! ```

use crate::lit::{Lit, Var};
use crate::solver::{SatResult, Solver, SolverStats};
use rms_core::hash::FxHashMap;
use std::collections::hash_map::Entry;

/// A structurally-hashed gate key (operands already canonicalized).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum GateKey {
    And(Lit, Lit),
    Xor(Lit, Lit),
    Maj(Lit, Lit, Lit),
    Mux(Lit, Lit, Lit),
}

impl GateKey {
    /// The gate's operand literals.
    pub(crate) fn operands(self) -> impl Iterator<Item = Lit> {
        let (ops, n) = match self {
            GateKey::And(a, b) | GateKey::Xor(a, b) => ([a, b, a], 2),
            GateKey::Maj(a, b, c) | GateKey::Mux(a, b, c) => ([a, b, c], 3),
        };
        ops.into_iter().take(n)
    }
}

/// CNF builder over a [`Solver`].
#[derive(Debug)]
pub struct Encoder {
    solver: Solver,
    true_lit: Lit,
    cache: FxHashMap<GateKey, Lit>,
    /// Every defined gate as `(output variable, definition)`, in creation
    /// order. A gate's operands exist before it, so the order is
    /// topological.
    gates: Vec<(Var, GateKey)>,
}

impl Default for Encoder {
    fn default() -> Self {
        Encoder::new()
    }
}

impl Encoder {
    /// Creates an encoder with the constant-true literal pre-asserted.
    pub fn new() -> Self {
        let mut solver = Solver::new();
        let true_lit = Lit::positive(solver.new_var());
        solver.add_clause(&[true_lit]);
        Encoder {
            solver,
            true_lit,
            cache: FxHashMap::default(),
            gates: Vec::new(),
        }
    }

    /// The constant-true literal.
    pub fn true_lit(&self) -> Lit {
        self.true_lit
    }

    /// The constant-false literal.
    pub fn false_lit(&self) -> Lit {
        !self.true_lit
    }

    /// The literal for a boolean constant.
    pub fn constant(&self, value: bool) -> Lit {
        if value {
            self.true_lit
        } else {
            self.false_lit()
        }
    }

    /// Allocates a fresh unconstrained variable and returns its positive
    /// literal (used for primary inputs).
    pub fn fresh(&mut self) -> Lit {
        Lit::positive(self.solver.new_var())
    }

    fn is_const(&self, l: Lit) -> Option<bool> {
        if l == self.true_lit {
            Some(true)
        } else if l == self.false_lit() {
            Some(false)
        } else {
            None
        }
    }

    /// The cached output of `key`, or a fresh one whose defining clauses
    /// `clauses` adds to the solver.
    fn define(&mut self, key: GateKey, clauses: impl FnOnce(Lit, &mut Solver)) -> Lit {
        let slot = match self.cache.entry(key) {
            Entry::Occupied(cached) => return *cached.get(),
            Entry::Vacant(slot) => slot,
        };
        let z = Lit::positive(self.solver.new_var());
        clauses(z, &mut self.solver);
        slot.insert(z);
        self.gates.push((z.var(), key));
        z
    }

    /// Every defined gate in creation (topological) order; variables not
    /// listed are the constant and free inputs.
    pub(crate) fn gates(&self) -> &[(Var, GateKey)] {
        &self.gates
    }

    /// `a ∧ b`.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        match (self.is_const(a), self.is_const(b)) {
            (Some(false), _) | (_, Some(false)) => return self.false_lit(),
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        if a == !b {
            return self.false_lit();
        }
        let (x, y) = if a.code() <= b.code() { (a, b) } else { (b, a) };
        self.define(GateKey::And(x, y), |z, solver| {
            solver.add_clause(&[!z, x]);
            solver.add_clause(&[!z, y]);
            solver.add_clause(&[!x, !y, z]);
        })
    }

    /// `a ∨ b`.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// Material implication `a → b`.
    pub fn imp(&mut self, a: Lit, b: Lit) -> Lit {
        self.or(!a, b)
    }

    /// `a ⊕ b`.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        match (self.is_const(a), self.is_const(b)) {
            (Some(va), Some(vb)) => return self.constant(va ^ vb),
            (Some(va), None) => return if va { !b } else { b },
            (None, Some(vb)) => return if vb { !a } else { a },
            _ => {}
        }
        if a == b {
            return self.false_lit();
        }
        if a == !b {
            return self.true_lit;
        }
        // x ^ !y = !(x ^ y): hash positive operands, track the sign.
        let negated = a.is_negated() ^ b.is_negated();
        let (pa, pb) = (a.abs(), b.abs());
        let (x, y) = if pa.code() <= pb.code() {
            (pa, pb)
        } else {
            (pb, pa)
        };
        let z = self.define(GateKey::Xor(x, y), |z, solver| {
            solver.add_clause(&[!z, x, y]);
            solver.add_clause(&[!z, !x, !y]);
            solver.add_clause(&[z, !x, y]);
            solver.add_clause(&[z, x, !y]);
        });
        if negated {
            !z
        } else {
            z
        }
    }

    /// Three-input majority `MAJ(a, b, c)`, encoded natively.
    pub fn maj(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        // Repetition and complement identities (Ω.M of the paper):
        // M(a, a, c) = a.
        if a == b || a == c {
            return a;
        }
        if b == c {
            return b;
        }
        if a == !b {
            return c;
        }
        if a == !c {
            return b;
        }
        if b == !c {
            return a;
        }
        // Constant folding: MAJ(1,b,c) = b ∨ c, MAJ(0,b,c) = b ∧ c.
        for (x, y, zc) in [(a, b, c), (b, a, c), (c, a, b)] {
            match self.is_const(x) {
                Some(true) => return self.or(y, zc),
                Some(false) => return self.and(y, zc),
                None => {}
            }
        }
        // Self-duality: with two or three negated operands, flip all
        // three and complement the output.
        let negs = [a, b, c].iter().filter(|l| l.is_negated()).count();
        let (mut x, mut y, mut z, negated) = if negs >= 2 {
            (!a, !b, !c, true)
        } else {
            (a, b, c, false)
        };
        // Sort operands for the hash key.
        if x.code() > y.code() {
            std::mem::swap(&mut x, &mut y);
        }
        if y.code() > z.code() {
            std::mem::swap(&mut y, &mut z);
        }
        if x.code() > y.code() {
            std::mem::swap(&mut x, &mut y);
        }
        let m = self.define(GateKey::Maj(x, y, z), |m, solver| {
            solver.add_clause(&[!x, !y, m]);
            solver.add_clause(&[!x, !z, m]);
            solver.add_clause(&[!y, !z, m]);
            solver.add_clause(&[x, y, !m]);
            solver.add_clause(&[x, z, !m]);
            solver.add_clause(&[y, z, !m]);
        });
        if negated {
            !m
        } else {
            m
        }
    }

    /// Multiplexer `s ? t : e`.
    pub fn mux(&mut self, s: Lit, t: Lit, e: Lit) -> Lit {
        match self.is_const(s) {
            Some(true) => return t,
            Some(false) => return e,
            None => {}
        }
        if t == e {
            return t;
        }
        if t == s {
            return self.or(s, e); // s ? s : e
        }
        if t == !s {
            return self.and(!s, e); // s ? !s : e
        }
        if e == s {
            return self.and(s, t); // s ? t : s
        }
        if e == !s {
            return self.or(!s, t); // s ? t : !s
        }
        if self.is_const(t).is_some() || self.is_const(e).is_some() {
            // Lower constant arms through AND/OR folding.
            let th = self.and(s, t);
            let el = self.and(!s, e);
            return self.or(th, el);
        }
        // mux(!s, t, e) = mux(s, e, t); mux(s, !t, !e) = !mux(s, t, e).
        let (s, mut t, mut e) = if s.is_negated() {
            (!s, e, t)
        } else {
            (s, t, e)
        };
        let negated = t.is_negated();
        if negated {
            t = !t;
            e = !e;
        }
        let z = self.define(GateKey::Mux(s, t, e), |z, solver| {
            solver.add_clause(&[!s, !t, z]);
            solver.add_clause(&[!s, t, !z]);
            solver.add_clause(&[s, !e, z]);
            solver.add_clause(&[s, e, !z]);
            // Redundant but propagation-strengthening:
            solver.add_clause(&[!t, !e, z]);
            solver.add_clause(&[t, e, !z]);
        });
        if negated {
            !z
        } else {
            z
        }
    }

    /// Disjunction of many literals (used for the miter output).
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = self.false_lit();
        for &l in lits {
            acc = self.or(acc, l);
        }
        acc
    }

    /// Asserts that `lit` holds in every model.
    pub fn assert_true(&mut self, lit: Lit) {
        if self.is_const(lit) == Some(true) {
            return;
        }
        self.solver.add_clause(&[lit]);
    }

    /// Solves the accumulated formula.
    pub fn solve(&mut self) -> SatResult {
        self.solver.solve()
    }

    /// Attaches a cooperative-cancellation token to the underlying
    /// solver (see [`Solver::set_cancel`]).
    pub fn set_cancel(&mut self, cancel: rms_core::CancelToken) {
        self.solver.set_cancel(cancel);
    }

    /// Solves with a conflict budget; `None` when the budget ran out
    /// (see [`Solver::solve_limited`]).
    pub fn solve_limited(&mut self, max_conflicts: Option<u64>) -> Option<SatResult> {
        self.solver.solve_limited(max_conflicts)
    }

    /// Model value of `lit` after a [`SatResult::Sat`] answer.
    pub fn value(&self, lit: Lit) -> bool {
        self.solver.value(lit)
    }

    /// Search statistics of the underlying solver.
    pub fn stats(&self) -> SolverStats {
        self.solver.stats()
    }

    /// Number of CNF variables allocated (including the constant).
    pub fn num_vars(&self) -> usize {
        self.solver.num_vars()
    }

    /// Number of clauses in the underlying solver.
    pub fn num_clauses(&self) -> usize {
        self.solver.num_clauses()
    }

    /// Direct access to the underlying solver (for extra clauses).
    pub fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustively checks a 2-input gate builder against a reference.
    fn check2(
        build: impl Fn(&mut Encoder, Lit, Lit) -> Lit,
        reference: impl Fn(bool, bool) -> bool,
    ) {
        for m in 0..4u32 {
            let (va, vb) = (m & 1 == 1, m & 2 != 0);
            let mut enc = Encoder::new();
            let a = enc.fresh();
            let b = enc.fresh();
            let z = build(&mut enc, a, b);
            enc.assert_true(if va { a } else { !a });
            enc.assert_true(if vb { b } else { !b });
            assert_eq!(enc.solve(), SatResult::Sat);
            assert_eq!(enc.value(z), reference(va, vb), "minterm {m}");
        }
    }

    #[test]
    fn gate_semantics_exhaustive() {
        check2(|e, a, b| e.and(a, b), |a, b| a && b);
        check2(|e, a, b| e.or(a, b), |a, b| a || b);
        check2(|e, a, b| e.xor(a, b), |a, b| a ^ b);
        check2(|e, a, b| e.imp(a, b), |a, b| !a || b);
        check2(|e, a, b| e.and(!a, b), |a, b| !a && b);
        check2(|e, a, b| e.xor(!a, !b), |a, b| a ^ b);
    }

    #[test]
    fn maj_and_mux_semantics_exhaustive() {
        for m in 0..8u32 {
            let bits = [m & 1 == 1, m & 2 != 0, m & 4 != 0];
            let mut enc = Encoder::new();
            let ins: Vec<Lit> = (0..3).map(|_| enc.fresh()).collect();
            let mj = enc.maj(ins[0], ins[1], ins[2]);
            let mx = enc.mux(ins[0], ins[1], ins[2]);
            let mjn = enc.maj(!ins[0], ins[1], !ins[2]);
            for (l, v) in ins.iter().zip(bits) {
                enc.assert_true(if v { *l } else { !*l });
            }
            assert_eq!(enc.solve(), SatResult::Sat);
            let count = bits.iter().filter(|&&b| b).count();
            assert_eq!(enc.value(mj), count >= 2, "maj at {m}");
            assert_eq!(
                enc.value(mx),
                if bits[0] { bits[1] } else { bits[2] },
                "mux at {m}"
            );
            let negcount = [!bits[0], bits[1], !bits[2]].iter().filter(|&&b| b).count();
            assert_eq!(enc.value(mjn), negcount >= 2, "neg maj at {m}");
        }
    }

    #[test]
    fn constant_folding_adds_no_clauses() {
        let mut enc = Encoder::new();
        let a = enc.fresh();
        let before = enc.num_clauses();
        let t = enc.true_lit();
        let f = enc.false_lit();
        assert_eq!(enc.and(a, t), a);
        assert_eq!(enc.and(a, f), f);
        assert_eq!(enc.or(a, f), a);
        assert_eq!(enc.xor(a, f), a);
        assert_eq!(enc.xor(a, t), !a);
        assert_eq!(enc.xor(a, !a), t);
        assert_eq!(enc.maj(a, a, f), a);
        assert_eq!(enc.maj(a, !a, t), t);
        assert_eq!(enc.mux(t, a, f), a);
        assert_eq!(enc.num_clauses(), before);
    }

    #[test]
    fn structural_hashing_shares_gates() {
        let mut enc = Encoder::new();
        let a = enc.fresh();
        let b = enc.fresh();
        let c = enc.fresh();
        let x1 = enc.and(a, b);
        let x2 = enc.and(b, a);
        assert_eq!(x1, x2);
        let y1 = enc.xor(a, !b);
        let y2 = enc.xor(!a, b);
        assert_eq!(y1, y2);
        let m1 = enc.maj(a, b, c);
        let m2 = enc.maj(c, a, b);
        let m3 = enc.maj(!c, !a, !b);
        assert_eq!(m1, m2);
        assert_eq!(m3, !m1);
        let vars = enc.num_vars();
        let _ = enc.maj(b, c, a);
        assert_eq!(enc.num_vars(), vars, "no new gate variable");
    }

    #[test]
    fn de_morgan_is_a_tautology() {
        // !(a & b) == (!a | !b) — the miter over them must be UNSAT.
        let mut enc = Encoder::new();
        let a = enc.fresh();
        let b = enc.fresh();
        let lhs = enc.and(a, b);
        let rhs = enc.or(!a, !b);
        let diff = enc.xor(!lhs, rhs);
        enc.assert_true(diff);
        assert_eq!(enc.solve(), SatResult::Unsat);
    }
}
