//! Miter construction and equivalence proofs.
//!
//! A *miter* joins two circuits over shared primary inputs, XORs each
//! output pair, and ORs the differences: the miter output is satisfiable
//! **iff** the circuits disagree on some input. An UNSAT answer is
//! therefore a *proof* of functional equivalence — at any input width,
//! unlike exhaustive simulation — and a SAT model is a concrete
//! counterexample assignment.
//!
//! Every proof is a *sweeping* proof ([`crate::sweep`]): before the
//! output miter is refuted, internal signals that agree on random
//! simulation are proved equal bottom-up in the same solver, and each
//! proved pair becomes two binary clauses. Optimized circuits keep most
//! of their source's intermediate functions, so this turns one hard
//! refutation into many easy ones.
//!
//! [`Miter`] can encode both circuit shapes the pipeline produces:
//!
//! - a gate-level [`Netlist`] (the specification, or an optimized MIG via
//!   `Mig::to_netlist`), and
//! - a compiled RRAM [`Program`] (level-parallel array or serial PLiM
//!   stream), by symbolic execution: every device starts at the
//!   constant-false literal and each micro-op rewrites its destination
//!   literal, reading the pre-step state exactly like the cycle-accurate
//!   machine does.
//!
//! # Example
//!
//! ```
//! use rms_logic::NetlistBuilder;
//! use rms_sat::{check_netlists, MiterOutcome};
//!
//! let mut b = NetlistBuilder::new("a");
//! let (x, y) = (b.input("x"), b.input("y"));
//! let o = b.and(x, y);
//! b.output("f", b.not(o));
//! let a = b.build();
//!
//! let mut b = NetlistBuilder::new("b");
//! let (x, y) = (b.input("x"), b.input("y"));
//! let o = b.or(b.not(x), b.not(y)); // De Morgan
//! b.output("f", o);
//! let bnl = b.build();
//!
//! match check_netlists(&a, &bnl).unwrap() {
//!     MiterOutcome::Equivalent { .. } => {}
//!     MiterOutcome::Counterexample { .. } => panic!("De Morgan holds"),
//! }
//! ```

use crate::lit::Lit;
use crate::solver::SatResult;
use crate::sweep::{self, Budget};
use crate::tseitin::Encoder;
use rms_logic::netlist::{GateKind, Netlist, Wire};
use rms_rram::isa::{MicroOp, Operand, Program, ProgramError};
use std::fmt;

/// Outcome of an equivalence proof attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MiterOutcome {
    /// The miter is UNSAT: the two circuits are equivalent on **all**
    /// `2^n` inputs. Carries the proof effort.
    Equivalent {
        /// Conflicts of the refutation.
        conflicts: u64,
        /// Branching decisions of the refutation.
        decisions: u64,
    },
    /// The miter is SAT: the circuits disagree on this input assignment
    /// (index `i` is primary input `i`).
    Counterexample {
        /// One disagreeing input assignment.
        inputs: Vec<bool>,
    },
}

impl MiterOutcome {
    /// Whether the proof succeeded.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, MiterOutcome::Equivalent { .. })
    }
}

/// A structural mismatch that makes a miter ill-formed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MiterError {
    /// The two sides declare different primary-input counts.
    InputCountMismatch {
        /// Inputs of side A.
        a: usize,
        /// Inputs of side B.
        b: usize,
    },
    /// The two sides declare different output counts.
    OutputCountMismatch {
        /// Outputs of side A.
        a: usize,
        /// Outputs of side B.
        b: usize,
    },
    /// A program failed structural validation.
    InvalidProgram(ProgramError),
}

impl fmt::Display for MiterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MiterError::InputCountMismatch { a, b } => {
                write!(f, "input counts differ: {a} vs {b}")
            }
            MiterError::OutputCountMismatch { a, b } => {
                write!(f, "output counts differ: {a} vs {b}")
            }
            MiterError::InvalidProgram(e) => write!(f, "invalid program: {e}"),
        }
    }
}

impl std::error::Error for MiterError {}

impl From<ProgramError> for MiterError {
    fn from(e: ProgramError) -> Self {
        MiterError::InvalidProgram(e)
    }
}

/// An equivalence-checking problem under construction: shared inputs plus
/// any number of encoded circuit sides.
#[derive(Debug)]
pub struct Miter {
    enc: Encoder,
    inputs: Vec<Lit>,
    cancel: rms_core::CancelToken,
}

impl Miter {
    /// Creates a miter over `num_inputs` shared primary inputs.
    pub fn new(num_inputs: usize) -> Self {
        let mut enc = Encoder::new();
        let inputs = (0..num_inputs).map(|_| enc.fresh()).collect();
        Miter {
            enc,
            inputs,
            cancel: rms_core::CancelToken::default(),
        }
    }

    /// The shared primary-input literals.
    pub fn inputs(&self) -> &[Lit] {
        &self.inputs
    }

    /// The underlying encoder (for custom sides).
    pub fn encoder(&mut self) -> &mut Encoder {
        &mut self.enc
    }

    /// Attaches a cooperative-cancellation token: a cancelled token makes
    /// [`Miter::prove_limited`] return `Ok(None)` at the next pair proof
    /// of the sweep or the next solver restart boundary, exactly like
    /// budget exhaustion. Callers tell the two apart by checking the
    /// token afterwards.
    pub fn set_cancel(&mut self, cancel: rms_core::CancelToken) {
        self.enc.set_cancel(cancel.clone());
        self.cancel = cancel;
    }

    /// Encodes a netlist over the shared inputs; returns its output
    /// literals.
    ///
    /// # Errors
    ///
    /// Returns [`MiterError::InputCountMismatch`] when the netlist width
    /// differs from the miter's.
    pub fn add_netlist(&mut self, nl: &Netlist) -> Result<Vec<Lit>, MiterError> {
        if nl.num_inputs() != self.inputs.len() {
            return Err(MiterError::InputCountMismatch {
                a: self.inputs.len(),
                b: nl.num_inputs(),
            });
        }
        // Node values in topological order: constant, inputs, gates.
        let mut vals: Vec<Lit> = Vec::with_capacity(nl.num_nodes());
        vals.push(self.enc.false_lit());
        vals.extend_from_slice(&self.inputs);
        for (idx, gate) in nl.gates() {
            debug_assert_eq!(idx, vals.len(), "gates arrive in node order");
            let f = |k: usize| wire_lit(&vals, gate.fanins[k]);
            let z = match gate.kind {
                GateKind::And => self.enc.and(f(0), f(1)),
                GateKind::Or => self.enc.or(f(0), f(1)),
                GateKind::Xor => self.enc.xor(f(0), f(1)),
                GateKind::Maj => self.enc.maj(f(0), f(1), f(2)),
                GateKind::Mux => self.enc.mux(f(0), f(1), f(2)),
            };
            vals.push(z);
        }
        Ok(nl
            .outputs()
            .iter()
            .map(|&(_, w)| wire_lit(&vals, w))
            .collect())
    }

    /// Symbolically executes a compiled RRAM program over the shared
    /// inputs; returns its output literals.
    ///
    /// # Errors
    ///
    /// Returns [`MiterError::InvalidProgram`] when the program fails
    /// [`Program::validate`], and [`MiterError::InputCountMismatch`] when
    /// its input count differs from the miter's.
    pub fn add_program(&mut self, program: &Program) -> Result<Vec<Lit>, MiterError> {
        if program.num_inputs != self.inputs.len() {
            return Err(MiterError::InputCountMismatch {
                a: self.inputs.len(),
                b: program.num_inputs,
            });
        }
        program.validate()?;
        // Devices power up false, matching the machine.
        let mut regs: Vec<Lit> = vec![self.enc.false_lit(); program.num_regs];
        let mut writes: Vec<(usize, Lit)> = Vec::new();
        for step in &program.steps {
            writes.clear();
            for op in step {
                // All reads observe the pre-step state (`regs` is only
                // updated after the whole step), matching the ISA.
                let (dst, lit) = match *op {
                    MicroOp::False { dst } => (dst, self.enc.false_lit()),
                    MicroOp::Load { dst, src } => {
                        let v = operand_lit(&self.enc, &self.inputs, &regs, src);
                        (dst, v)
                    }
                    MicroOp::Imp { p, q } => {
                        let pv = operand_lit(&self.enc, &self.inputs, &regs, p);
                        let qv = regs[q.0 as usize];
                        (q, self.enc.or(!pv, qv))
                    }
                    MicroOp::Maj { p, q, r } => {
                        let pv = operand_lit(&self.enc, &self.inputs, &regs, p);
                        let qv = operand_lit(&self.enc, &self.inputs, &regs, q);
                        let rv = regs[r.0 as usize];
                        (r, self.enc.maj(pv, !qv, rv))
                    }
                };
                writes.push((dst.0 as usize, lit));
            }
            for &(dst, lit) in &writes {
                regs[dst] = lit;
            }
        }
        Ok(program
            .outputs
            .iter()
            .map(|(_, r)| regs[r.0 as usize])
            .collect())
    }

    /// Asserts the miter over two output vectors and solves.
    ///
    /// # Errors
    ///
    /// Returns [`MiterError::OutputCountMismatch`] when the vectors have
    /// different lengths.
    pub fn prove(self, a: &[Lit], b: &[Lit]) -> Result<MiterOutcome, MiterError> {
        Ok(self
            .prove_limited(a, b, None)?
            .expect("unlimited proof always answers"))
    }

    /// Like [`Miter::prove`] with a conflict budget: `Ok(None)` means
    /// the solver ran out of budget with no answer (the caller should
    /// fall back to a weaker check rather than hang on an adversarial
    /// instance).
    ///
    /// The proof sweeps before it refutes: internal signals that agree
    /// on random simulation are proved equal bottom-up with small
    /// solves in the same solver (see [`crate::sweep`]), and only then
    /// is the output miter — guarded by its own literal, so the sweep
    /// never sees it — refuted. `max_conflicts` bounds the sum over both
    /// stages, and [`MiterOutcome::Equivalent`] reports the solver's
    /// totals. When the outputs already differ on a simulated pattern
    /// the sweep is skipped and the output miter answers directly.
    ///
    /// # Errors
    ///
    /// Returns [`MiterError::OutputCountMismatch`] when the vectors have
    /// different lengths.
    pub fn prove_limited(
        mut self,
        a: &[Lit],
        b: &[Lit],
        max_conflicts: Option<u64>,
    ) -> Result<Option<MiterOutcome>, MiterError> {
        if a.len() != b.len() {
            return Err(MiterError::OutputCountMismatch {
                a: a.len(),
                b: b.len(),
            });
        }
        let diffs: Vec<Lit> = a
            .iter()
            .zip(b)
            .map(|(&la, &lb)| self.enc.xor(la, lb))
            .collect();
        let any = self.enc.or_many(&diffs);
        let budget = Budget::new(&self.enc, max_conflicts);
        if any != self.enc.false_lit() {
            let sim = sweep::simulate(&self.enc);
            if sweep::sim_is_zero(&sim, any)
                && sweep::sweep(&mut self.enc, sim, &budget, &self.cancel).is_none()
            {
                return Ok(None);
            }
        }
        let limit = budget.remaining(&self.enc, None);
        match self.enc.solver_mut().solve_limited_assuming(&[any], limit) {
            None => Ok(None),
            Some(SatResult::Unsat) => {
                let stats = self.enc.stats();
                Ok(Some(MiterOutcome::Equivalent {
                    conflicts: stats.conflicts,
                    decisions: stats.decisions,
                }))
            }
            Some(SatResult::Sat) => Ok(Some(MiterOutcome::Counterexample {
                inputs: self.inputs.iter().map(|&l| self.enc.value(l)).collect(),
            })),
        }
    }
}

fn operand_lit(enc: &Encoder, inputs: &[Lit], regs: &[Lit], operand: Operand) -> Lit {
    match operand {
        Operand::Const(b) => enc.constant(b),
        Operand::Input(i) => inputs[i],
        Operand::Reg(r) => regs[r.0 as usize],
    }
}

fn wire_lit(vals: &[Lit], w: Wire) -> Lit {
    let l = vals[w.node()];
    if w.is_complemented() {
        !l
    } else {
        l
    }
}

/// Proves two netlists equivalent (inputs and outputs matched by
/// position).
///
/// # Errors
///
/// Returns [`MiterError`] on input/output arity mismatches.
pub fn check_netlists(a: &Netlist, b: &Netlist) -> Result<MiterOutcome, MiterError> {
    let mut miter = Miter::new(a.num_inputs());
    let oa = miter.add_netlist(a)?;
    let ob = miter.add_netlist(b)?;
    miter.prove(&oa, &ob)
}

/// Proves a compiled RRAM program equivalent to its specification
/// netlist.
///
/// # Errors
///
/// Returns [`MiterError`] on arity mismatches or an invalid program.
pub fn check_netlist_vs_program(
    nl: &Netlist,
    program: &Program,
) -> Result<MiterOutcome, MiterError> {
    Ok(
        check_netlist_vs_program_cancellable(nl, program, None, &rms_core::CancelToken::default())?
            .expect("unlimited proof always answers"),
    )
}

/// Budgeted, cancellable form of [`check_netlist_vs_program`]:
/// `Ok(None)` when `max_conflicts` ran out without an answer, or when
/// `cancel` tripped (check the token afterwards to tell the two apart).
///
/// # Errors
///
/// Returns [`MiterError`] on arity mismatches or an invalid program.
pub fn check_netlist_vs_program_cancellable(
    nl: &Netlist,
    program: &Program,
    max_conflicts: Option<u64>,
    cancel: &rms_core::CancelToken,
) -> Result<Option<MiterOutcome>, MiterError> {
    let mut miter = Miter::new(nl.num_inputs());
    miter.set_cancel(cancel.clone());
    let on = miter.add_netlist(nl)?;
    let op = miter.add_program(program)?;
    miter.prove_limited(&on, &op, max_conflicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rms_logic::NetlistBuilder;

    fn full_adder(reassociate: bool) -> Netlist {
        let mut b = NetlistBuilder::new("fa");
        let x = b.input("x");
        let y = b.input("y");
        let c = b.input("cin");
        let (sum, carry) = if reassociate {
            let s1 = b.xor(y, c);
            let sum = b.xor(s1, x);
            let carry = b.maj(c, x, y);
            (sum, carry)
        } else {
            let s1 = b.xor(x, y);
            let sum = b.xor(s1, c);
            let carry = b.maj(x, y, c);
            (sum, carry)
        };
        b.output("s", sum);
        b.output("co", carry);
        b.build()
    }

    #[test]
    fn reassociated_adders_are_equivalent() {
        let out = check_netlists(&full_adder(false), &full_adder(true)).unwrap();
        assert!(out.is_equivalent(), "{out:?}");
    }

    #[test]
    fn broken_adder_yields_a_counterexample() {
        let good = full_adder(false);
        let mut b = NetlistBuilder::new("bad");
        let x = b.input("x");
        let y = b.input("y");
        let c = b.input("cin");
        let s1 = b.xor(x, y);
        let sum = b.xor(s1, c);
        let carry = b.maj(x, y, b.not(c)); // bug: complemented carry-in
        b.output("s", sum);
        b.output("co", carry);
        let bad = b.build();
        match check_netlists(&good, &bad).unwrap() {
            MiterOutcome::Counterexample { inputs } => {
                // The model must actually distinguish the two circuits.
                let m = inputs
                    .iter()
                    .enumerate()
                    .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i));
                assert_ne!(good.evaluate(m), bad.evaluate(m), "inputs {inputs:?}");
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn arity_mismatches_are_structural_errors() {
        let a = full_adder(false);
        let mut b = NetlistBuilder::new("two");
        let x = b.input("x");
        let y = b.input("y");
        let o = b.and(x, y);
        b.output("f", o);
        let two = b.build();
        assert!(matches!(
            check_netlists(&a, &two),
            Err(MiterError::InputCountMismatch { a: 3, b: 2 })
        ));
    }

    #[test]
    fn program_miter_matches_machine_semantics() {
        use rms_rram::gates::{imp_majority_gate, maj_majority_gate};
        // Both hand-written majority-gate programs implement MAJ(a,b,c);
        // check each against a majority netlist.
        let mut b = NetlistBuilder::new("maj");
        let x = b.input("a");
        let y = b.input("b");
        let z = b.input("c");
        let m = b.maj(x, y, z);
        b.output("f", m);
        let spec = b.build();
        for program in [imp_majority_gate(), maj_majority_gate()] {
            let out = check_netlist_vs_program(&spec, &program).unwrap();
            assert!(out.is_equivalent(), "{out:?}");
        }
    }

    #[test]
    fn program_with_wrong_function_is_caught() {
        use rms_rram::gates::maj_majority_gate;
        let mut b = NetlistBuilder::new("notmaj");
        let x = b.input("a");
        let y = b.input("b");
        let z = b.input("c");
        let m = b.and(x, y);
        let m2 = b.and(m, z);
        b.output("f", m2);
        let spec = b.build();
        let out = check_netlist_vs_program(&spec, &maj_majority_gate()).unwrap();
        assert!(!out.is_equivalent(), "AND3 != MAJ3");
    }
}
