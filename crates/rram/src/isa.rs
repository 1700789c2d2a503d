//! The micro-operation ISA of the RRAM in-memory machine.
//!
//! A [`Program`] is a sequence of [`Step`]s; all micro-ops inside one step
//! execute simultaneously (they drive disjoint devices, and all operand
//! reads observe the pre-step state). The step count of a program is the
//! paper's `S` metric; the machine additionally accounts devices for the
//! `R` metric (see [`crate::machine`]).

use std::fmt;

/// Index of an RRAM device (a "register" of the in-memory machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegId(pub u32);

impl fmt::Display for RegId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A value source for a micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A constant logic level supplied by a voltage driver.
    Const(bool),
    /// Primary input `i`, supplied by the input drivers.
    Input(usize),
    /// The current state of a device.
    Reg(RegId),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Const(false) => write!(f, "0"),
            Operand::Const(true) => write!(f, "1"),
            Operand::Input(i) => write!(f, "x{i}"),
            Operand::Reg(r) => write!(f, "{r}"),
        }
    }
}

/// One micro-operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroOp {
    /// FALSE: drive `V_CLEAR`, forcing the device to 0.
    False {
        /// Target device.
        dst: RegId,
    },
    /// Load a value into a device (`V_SET`/`V_CLEAR` chosen by the driver).
    Load {
        /// Target device.
        dst: RegId,
        /// Value source.
        src: Operand,
    },
    /// Material implication `q ← p IMP q = p̄ + q` (Fig. 1).
    Imp {
        /// The `P` device/driver of the IMP gate.
        p: Operand,
        /// The `Q` device; read and written.
        q: RegId,
    },
    /// Intrinsic majority `r ← M(p, ¬q, r)` (Fig. 2): terminal `P` driven
    /// with `p`, terminal `Q` with `q`.
    Maj {
        /// Level applied to the top terminal.
        p: Operand,
        /// Level applied to the bottom terminal (acts inverted).
        q: Operand,
        /// The device switched in place.
        r: RegId,
    },
}

impl MicroOp {
    /// The device this op writes.
    pub fn dst(&self) -> RegId {
        match *self {
            MicroOp::False { dst } | MicroOp::Load { dst, .. } => dst,
            MicroOp::Imp { q, .. } => q,
            MicroOp::Maj { r, .. } => r,
        }
    }

    /// The driven operands of this op (`src` of a load, `p` of an IMP,
    /// `p` and `q` of a MAJ), in that order; the written device itself is
    /// not among them.
    pub fn operands(&self) -> [Option<Operand>; 2] {
        match *self {
            MicroOp::False { .. } => [None, None],
            MicroOp::Load { src, .. } => [Some(src), None],
            MicroOp::Imp { p, .. } => [Some(p), None],
            MicroOp::Maj { p, q, .. } => [Some(p), Some(q)],
        }
    }
}

impl fmt::Display for MicroOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MicroOp::False { dst } => write!(f, "{dst} = 0"),
            MicroOp::Load { dst, src } => write!(f, "{dst} <- {src}"),
            MicroOp::Imp { p, q } => write!(f, "{q} <- {p} IMP {q}"),
            MicroOp::Maj { p, q, r } => write!(f, "{r} <- MAJ({p}, !{q}, {r})"),
        }
    }
}

/// A group of micro-ops executing simultaneously in one time step.
pub type Step = Vec<MicroOp>;

/// A complete in-memory computing program.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Number of primary inputs the program expects.
    pub num_inputs: usize,
    /// Number of devices (registers) the program addresses.
    pub num_regs: usize,
    /// The sequential steps.
    pub steps: Vec<Step>,
    /// Output name and the device holding the value after the last step.
    pub outputs: Vec<(String, RegId)>,
    /// The paper's `R` metric: the modelled per-level device footprint
    /// `max_i (K·N_i + C_i)` (see [`mod@crate::compile`]); `0` when the program
    /// was hand-written rather than compiled.
    pub model_rrams: u64,
}

/// A structural defect found by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// Two micro-ops in the same step write the same device.
    WriteConflict {
        /// Index of the offending step.
        step: usize,
        /// The doubly-written device.
        reg: RegId,
    },
    /// A micro-op addresses a device `>= num_regs`.
    RegOutOfRange {
        /// Index of the offending step.
        step: usize,
        /// The out-of-range device.
        reg: RegId,
    },
    /// An input operand index is `>= num_inputs`.
    InputOutOfRange {
        /// Index of the offending step.
        step: usize,
        /// The out-of-range input.
        input: usize,
    },
    /// An output names a device `>= num_regs`.
    OutputOutOfRange {
        /// The out-of-range device.
        reg: RegId,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::WriteConflict { step, reg } => {
                write!(f, "step {step}: device {reg} written twice")
            }
            ProgramError::RegOutOfRange { step, reg } => {
                write!(f, "step {step}: device {reg} out of range")
            }
            ProgramError::InputOutOfRange { step, input } => {
                write!(f, "step {step}: input x{input} out of range")
            }
            ProgramError::OutputOutOfRange { reg } => {
                write!(f, "output device {reg} out of range")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// Number of sequential steps (the paper's `S` metric for compiled
    /// programs).
    pub fn num_steps(&self) -> u64 {
        self.steps.len() as u64
    }

    /// Checks structural well-formedness in one linear pass over the
    /// micro-ops.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found: intra-step write
    /// conflicts, device indices out of range, or input indices out of
    /// range. Within one op the destination is checked first, then the
    /// device operands, then the input operands.
    pub fn validate(&self) -> Result<(), ProgramError> {
        // `last_write[r]` is one more than the index of the latest step
        // that wrote device `r` (0 = never written), so a second write in
        // the same step is a single comparison.
        let mut last_write = vec![0usize; self.num_regs];
        for (si, step) in self.steps.iter().enumerate() {
            let stamp = si + 1;
            for op in step {
                let d = op.dst();
                let slot = last_write
                    .get_mut(d.0 as usize)
                    .ok_or(ProgramError::RegOutOfRange { step: si, reg: d })?;
                if *slot == stamp {
                    return Err(ProgramError::WriteConflict { step: si, reg: d });
                }
                *slot = stamp;
                let operands = op.operands();
                for o in operands.iter().flatten() {
                    if let Operand::Reg(r) = *o {
                        if r.0 as usize >= self.num_regs {
                            return Err(ProgramError::RegOutOfRange { step: si, reg: r });
                        }
                    }
                }
                for o in operands.iter().flatten() {
                    if let Operand::Input(input) = *o {
                        if input >= self.num_inputs {
                            return Err(ProgramError::InputOutOfRange { step: si, input });
                        }
                    }
                }
            }
        }
        for (_, r) in &self.outputs {
            if r.0 as usize >= self.num_regs {
                return Err(ProgramError::OutputOutOfRange { reg: *r });
            }
        }
        Ok(())
    }

    /// Pretty-prints the program as a step-numbered listing.
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "; {} inputs, {} devices, {} steps",
            self.num_inputs,
            self.num_regs,
            self.steps.len()
        );
        for (i, step) in self.steps.iter().enumerate() {
            let ops: Vec<String> = step.iter().map(|o| o.to_string()).collect();
            let _ = writeln!(s, "{:03}: {}", i + 1, ops.join(" ; "));
        }
        for (name, r) in &self.outputs {
            let _ = writeln!(s, "out {name} = {r}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Program {
        Program {
            num_inputs: 2,
            num_regs: 2,
            steps: vec![
                vec![
                    MicroOp::Load {
                        dst: RegId(0),
                        src: Operand::Input(0),
                    },
                    MicroOp::Load {
                        dst: RegId(1),
                        src: Operand::Input(1),
                    },
                ],
                vec![MicroOp::Imp {
                    p: Operand::Reg(RegId(0)),
                    q: RegId(1),
                }],
            ],
            outputs: vec![("f".into(), RegId(1))],
            model_rrams: 2,
        }
    }

    #[test]
    fn valid_program_passes() {
        assert_eq!(tiny().validate(), Ok(()));
        assert_eq!(tiny().num_steps(), 2);
    }

    #[test]
    fn write_conflict_detected() {
        let mut p = tiny();
        p.steps[0].push(MicroOp::False { dst: RegId(0) });
        assert_eq!(
            p.validate(),
            Err(ProgramError::WriteConflict {
                step: 0,
                reg: RegId(0)
            })
        );
    }

    #[test]
    fn out_of_range_detected() {
        let mut p = tiny();
        p.steps[1].push(MicroOp::False { dst: RegId(9) });
        assert!(matches!(
            p.validate(),
            Err(ProgramError::RegOutOfRange { .. })
        ));
        let mut p = tiny();
        p.steps[0][0] = MicroOp::Load {
            dst: RegId(0),
            src: Operand::Input(5),
        };
        assert!(matches!(
            p.validate(),
            Err(ProgramError::InputOutOfRange { input: 5, .. })
        ));
        let mut p = tiny();
        p.outputs[0].1 = RegId(7);
        assert!(matches!(
            p.validate(),
            Err(ProgramError::OutputOutOfRange { .. })
        ));
    }

    #[test]
    fn listing_contains_ops() {
        let l = tiny().listing();
        assert!(l.contains("r1 <- r0 IMP r1"), "{l}");
        assert!(l.contains("out f = r1"));
    }

    #[test]
    fn op_operands_and_dst() {
        let op = MicroOp::Maj {
            p: Operand::Reg(RegId(3)),
            q: Operand::Const(true),
            r: RegId(4),
        };
        assert_eq!(op.dst(), RegId(4));
        assert_eq!(
            op.operands(),
            [Some(Operand::Reg(RegId(3))), Some(Operand::Const(true))]
        );
        assert_eq!(MicroOp::False { dst: RegId(1) }.operands(), [None, None]);
    }

    #[test]
    fn each_error_keeps_its_step_and_register() {
        // A 4096-op step writing distinct devices, then one more write of
        // device 1234 at its end.
        let wide = |extra: MicroOp| -> Program {
            let mut step: Step = (0..4096)
                .map(|r| MicroOp::False { dst: RegId(r) })
                .collect();
            step.push(extra);
            Program {
                num_inputs: 2,
                num_regs: 5000,
                steps: vec![vec![MicroOp::False { dst: RegId(1234) }], step],
                outputs: vec![("f".into(), RegId(0))],
                model_rrams: 0,
            }
        };
        let cases = [
            (
                wide(MicroOp::False { dst: RegId(1234) }),
                ProgramError::WriteConflict {
                    step: 1,
                    reg: RegId(1234),
                },
            ),
            // A destination check comes before the operand checks.
            (
                wide(MicroOp::Load {
                    dst: RegId(7),
                    src: Operand::Reg(RegId(9000)),
                }),
                ProgramError::WriteConflict {
                    step: 1,
                    reg: RegId(7),
                },
            ),
            (
                wide(MicroOp::False { dst: RegId(5000) }),
                ProgramError::RegOutOfRange {
                    step: 1,
                    reg: RegId(5000),
                },
            ),
            // Device operands are checked before input operands.
            (
                wide(MicroOp::Maj {
                    p: Operand::Input(9),
                    q: Operand::Reg(RegId(6000)),
                    r: RegId(4999),
                }),
                ProgramError::RegOutOfRange {
                    step: 1,
                    reg: RegId(6000),
                },
            ),
            (
                wide(MicroOp::Maj {
                    p: Operand::Input(1),
                    q: Operand::Input(3),
                    r: RegId(4999),
                }),
                ProgramError::InputOutOfRange { step: 1, input: 3 },
            ),
            (
                wide(MicroOp::Imp {
                    p: Operand::Input(2),
                    q: RegId(4999),
                }),
                ProgramError::InputOutOfRange { step: 1, input: 2 },
            ),
        ];
        for (program, want) in cases {
            assert_eq!(program.validate(), Err(want.clone()), "{want}");
        }
        // Rewriting a device in a later step is not a conflict.
        let ok = wide(MicroOp::False { dst: RegId(4999) });
        assert_eq!(ok.validate(), Ok(()));
        let mut bad_output = ok;
        bad_output.outputs.push(("g".into(), RegId(5000)));
        assert_eq!(
            bad_output.validate(),
            Err(ProgramError::OutputOutOfRange { reg: RegId(5000) })
        );
    }
}
