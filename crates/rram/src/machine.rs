//! Cycle-accurate, bit-parallel interpreter for RRAM programs.
//!
//! The machine evaluates a [`Program`] on 64-bit pattern words, one bit
//! lane per input assignment. Within a step all operand reads observe
//! the pre-step device states, matching the simultaneous execution
//! semantics of the ISA.
//!
//! # Validate once, simulate many
//!
//! [`Machine::run_batch`] is the one simulation kernel. It validates the
//! program once, then steps a block of [`BLOCK_WORDS`] pattern words per
//! micro-op: devices are laid out `[device][word]`, so each op is a short
//! fixed-length loop over the block, and the blocks of a long batch run
//! one after another through the same device array. Every block starts
//! from all-zero devices, exactly like a fresh single-word run.
//! [`Machine::run_words`] is a one-word call into the same kernel (and
//! still validates per call, since any caller may hand it any program);
//! [`Machine::truth_tables`] validates once and feeds every minterm chunk
//! through the kernel.

use crate::isa::{MicroOp, Operand, Program, ProgramError};

/// Pattern words a batch steps together per micro-op. Eight words keep
/// the `[device][word]` array within a few times the single-word
/// footprint while amortizing op decoding over the block.
pub const BLOCK_WORDS: usize = 8;

/// Execution statistics of one program run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Sequential steps executed (the paper's `S`).
    pub steps: u64,
    /// Distinct devices actually touched by the program.
    pub devices_touched: u64,
}

/// The in-memory computing machine.
///
/// # Example
///
/// ```
/// use rms_rram::gates::maj_majority_gate;
/// use rms_rram::machine::Machine;
///
/// let program = maj_majority_gate();
/// let outs = Machine::run_bools(&program, &[true, false, true]).expect("valid program");
/// assert!(outs[0]); // M(1,0,1) = 1
/// ```
#[derive(Debug, Default)]
pub struct Machine {
    /// Device states, `[device][word]` with a stride of the block width.
    regs: Vec<u64>,
    /// Input words of the current block, `[input][word]`.
    inputs: Vec<u64>,
    /// Values computed by the current step, committed after it.
    writes: Vec<u64>,
    touched: Vec<bool>,
}

impl Machine {
    /// Creates a machine with no devices; each run sizes it.
    pub fn new() -> Self {
        Machine::default()
    }

    /// Runs `program` on 64 parallel assignments (`inputs[i]` holds one bit
    /// per lane for input `i`); returns one word per output.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] if the program fails validation.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != program.num_inputs`.
    pub fn run_words(
        &mut self,
        program: &Program,
        inputs: &[u64],
    ) -> Result<Vec<u64>, ProgramError> {
        let mut outs = self.run_batch(program, &[inputs])?;
        Ok(outs.pop().expect("one pattern word in, one out"))
    }

    /// Runs `program` on every pattern word of `patterns` (each holds one
    /// word per input, as in [`Machine::run_words`]), validating the
    /// program once. Returns, per pattern word, one word per output.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] if the program fails validation.
    ///
    /// # Panics
    ///
    /// Panics if any pattern's length differs from `program.num_inputs`.
    pub fn run_batch<P: AsRef<[u64]>>(
        &mut self,
        program: &Program,
        patterns: &[P],
    ) -> Result<Vec<Vec<u64>>, ProgramError> {
        for pattern in patterns {
            assert_eq!(
                pattern.as_ref().len(),
                program.num_inputs,
                "input count mismatch"
            );
        }
        program.validate()?;
        self.reset_touched(program);
        let mut outs = Vec::with_capacity(patterns.len());
        // A lone word runs at width 1, so `run_words` costs no more than
        // a scalar pass.
        if let [single] = patterns {
            self.simulate_block::<1, P>(program, std::slice::from_ref(single), &mut outs);
        } else {
            for block in patterns.chunks(BLOCK_WORDS) {
                self.simulate_block::<BLOCK_WORDS, P>(program, block, &mut outs);
            }
        }
        Ok(outs)
    }

    fn reset_touched(&mut self, program: &Program) {
        self.touched.clear();
        self.touched.resize(program.num_regs, false);
    }

    /// The kernel: simulates up to `W` pattern words of an already
    /// validated program, appending one output vector per word to `outs`.
    fn simulate_block<const W: usize, P: AsRef<[u64]>>(
        &mut self,
        program: &Program,
        block: &[P],
        outs: &mut Vec<Vec<u64>>,
    ) {
        debug_assert!(!block.is_empty() && block.len() <= W);
        let Machine {
            regs,
            inputs,
            writes,
            touched,
        } = self;
        inputs.clear();
        inputs.resize(program.num_inputs * W, 0);
        for (k, pattern) in block.iter().enumerate() {
            for (i, &w) in pattern.as_ref().iter().enumerate() {
                inputs[i * W + k] = w;
            }
        }
        regs.clear();
        regs.resize(program.num_regs * W, 0);
        let (inputs, _) = inputs.as_chunks::<W>();
        for step in &program.steps {
            writes.clear();
            {
                let (regs, _) = regs.as_chunks::<W>();
                let value = |o: Operand| -> [u64; W] {
                    match o {
                        Operand::Const(false) => [0; W],
                        Operand::Const(true) => [u64::MAX; W],
                        Operand::Input(i) => inputs[i],
                        Operand::Reg(r) => regs[r.0 as usize],
                    }
                };
                for op in step {
                    let v: [u64; W] = match *op {
                        MicroOp::False { .. } => [0; W],
                        MicroOp::Load { src, .. } => value(src),
                        MicroOp::Imp { p, q } => {
                            let (p, q) = (value(p), regs[q.0 as usize]);
                            std::array::from_fn(|k| !p[k] | q[k])
                        }
                        MicroOp::Maj { p, q, r } => {
                            let (p, r) = (value(p), regs[r.0 as usize]);
                            let q = value(q).map(|w| !w);
                            std::array::from_fn(|k| (p[k] & q[k]) | (p[k] & r[k]) | (q[k] & r[k]))
                        }
                    };
                    writes.extend_from_slice(&v);
                }
            }
            // Commit after every op has read the pre-step state.
            let (regs, _) = regs.as_chunks_mut::<W>();
            let (values, _) = writes.as_chunks::<W>();
            for (op, v) in step.iter().zip(values) {
                let d = op.dst().0 as usize;
                regs[d] = *v;
                touched[d] = true;
            }
        }
        let (regs, _) = regs.as_chunks::<W>();
        outs.extend((0..block.len()).map(|k| {
            program
                .outputs
                .iter()
                .map(|(_, r)| regs[r.0 as usize][k])
                .collect()
        }));
    }

    /// Runs `program` on a single boolean assignment.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] if the program fails validation.
    pub fn run_bools(program: &Program, inputs: &[bool]) -> Result<Vec<bool>, ProgramError> {
        let words: Vec<u64> = inputs
            .iter()
            .map(|&b| if b { u64::MAX } else { 0 })
            .collect();
        let mut m = Machine::new();
        let outs = m.run_words(program, &words)?;
        Ok(outs.into_iter().map(|w| w & 1 == 1).collect())
    }

    /// Statistics of the most recent run.
    pub fn stats(&self, program: &Program) -> RunStats {
        RunStats {
            steps: program.num_steps(),
            devices_touched: self.touched.iter().filter(|&&t| t).count() as u64,
        }
    }

    /// Exhaustive truth tables of a program's outputs (one
    /// [`rms_logic::TruthTable`] per output). The program is validated
    /// once; the 64-minterm chunks run through the batch kernel a block
    /// at a time.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] if the program fails validation.
    ///
    /// # Panics
    ///
    /// Panics if the program has more than [`rms_logic::tt::MAX_VARS`]
    /// inputs.
    pub fn truth_tables(program: &Program) -> Result<Vec<rms_logic::TruthTable>, ProgramError> {
        use rms_logic::tt::{minterm_word, TruthTable, MAX_VARS};
        let n = program.num_inputs;
        assert!(n <= MAX_VARS, "too many inputs for exhaustive tables");
        program.validate()?;
        let chunks = (1u64 << n).div_ceil(64);
        let mut words: Vec<Vec<u64>> =
            vec![Vec::with_capacity(chunks as usize); program.outputs.len()];
        let mut machine = Machine::new();
        machine.reset_touched(program);
        let mut block: Vec<Vec<u64>> = Vec::with_capacity(BLOCK_WORDS);
        let mut outs: Vec<Vec<u64>> = Vec::with_capacity(BLOCK_WORDS);
        let mut chunk = 0u64;
        while chunk < chunks {
            block.clear();
            while chunk < chunks && block.len() < BLOCK_WORDS {
                block.push((0..n).map(|i| minterm_word(chunk * 64, i)).collect());
                chunk += 1;
            }
            outs.clear();
            machine.simulate_block::<BLOCK_WORDS, _>(program, &block, &mut outs);
            for out in &outs {
                for (col, &w) in words.iter_mut().zip(out) {
                    col.push(w);
                }
            }
        }
        Ok(words
            .into_iter()
            .map(|col| TruthTable::from_words(n, col))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{RegId, Step};
    use rms_logic::rng::SplitMix64;

    fn imp_program() -> Program {
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
    fn imp_semantics() {
        for (p, q, expect) in [
            (false, false, true),
            (false, true, true),
            (true, false, false),
            (true, true, true),
        ] {
            let outs = Machine::run_bools(&imp_program(), &[p, q]).unwrap();
            assert_eq!(outs[0], expect, "p={p} q={q}");
        }
    }

    #[test]
    fn maj_op_semantics() {
        let prog = Program {
            num_inputs: 3,
            num_regs: 1,
            steps: vec![
                vec![MicroOp::Load {
                    dst: RegId(0),
                    src: Operand::Input(2),
                }],
                vec![MicroOp::Maj {
                    p: Operand::Input(0),
                    q: Operand::Input(1),
                    r: RegId(0),
                }],
            ],
            outputs: vec![("f".into(), RegId(0))],
            model_rrams: 1,
        };
        for m in 0..8u32 {
            let (p, q, r) = (m & 1 == 1, m & 2 != 0, m & 4 != 0);
            let outs = Machine::run_bools(&prog, &[p, q, r]).unwrap();
            let expect = [p, !q, r].iter().filter(|&&b| b).count() >= 2;
            assert_eq!(outs[0], expect, "{m}");
        }
    }

    #[test]
    fn reads_observe_pre_step_state() {
        // Swap-like step: both ops read old values.
        let prog = Program {
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
                vec![
                    MicroOp::Load {
                        dst: RegId(0),
                        src: Operand::Reg(RegId(1)),
                    },
                    MicroOp::Load {
                        dst: RegId(1),
                        src: Operand::Reg(RegId(0)),
                    },
                ],
            ],
            outputs: vec![("a".into(), RegId(0)), ("b".into(), RegId(1))],
            model_rrams: 2,
        };
        let outs = Machine::run_bools(&prog, &[true, false]).unwrap();
        assert_eq!(outs, vec![false, true], "values must swap");
    }

    #[test]
    fn invalid_program_is_rejected() {
        let mut p = imp_program();
        p.steps.push(vec![MicroOp::False { dst: RegId(5) }] as Step);
        assert!(Machine::run_bools(&p, &[false, false]).is_err());
    }

    #[test]
    fn truth_tables_of_imp() {
        let tts = Machine::truth_tables(&imp_program()).unwrap();
        // f = !p | q with p = input 0 (minterm bit 0), q = input 1:
        // minterms 00,10,01,11 -> 1,0,1,1 -> 0b1101.
        assert_eq!(tts[0].words()[0] & 0xF, 0b1101);
    }

    #[test]
    fn stats_count_touched_devices() {
        let mut m = Machine::new();
        let prog = imp_program();
        m.run_words(&prog, &[0, 0]).unwrap();
        assert_eq!(
            m.stats(&prog),
            RunStats {
                steps: 2,
                devices_touched: 2
            }
        );
    }

    /// Plain per-word interpreter: every op of a step reads a snapshot
    /// of the pre-step devices. The oracle for the batch kernel.
    fn scalar_reference(program: &Program, inputs: &[u64]) -> Vec<u64> {
        let mut regs = vec![0u64; program.num_regs];
        for step in &program.steps {
            let old = regs.clone();
            let value = |o: Operand| -> u64 {
                match o {
                    Operand::Const(false) => 0,
                    Operand::Const(true) => u64::MAX,
                    Operand::Input(i) => inputs[i],
                    Operand::Reg(r) => old[r.0 as usize],
                }
            };
            for op in step {
                let (dst, v) = match *op {
                    MicroOp::False { dst } => (dst, 0),
                    MicroOp::Load { dst, src } => (dst, value(src)),
                    MicroOp::Imp { p, q } => (q, !value(p) | old[q.0 as usize]),
                    MicroOp::Maj { p, q, r } => {
                        let (a, b, c) = (value(p), !value(q), old[r.0 as usize]);
                        (r, (a & b) | (a & c) | (b & c))
                    }
                };
                regs[dst.0 as usize] = v;
            }
        }
        program
            .outputs
            .iter()
            .map(|(_, r)| regs[r.0 as usize])
            .collect()
    }

    /// A random structurally valid program. Operands freely read devices
    /// the same step writes, and some steps are explicit swaps, so the
    /// pre-step read semantics is exercised on every run.
    fn random_program(rng: &mut SplitMix64) -> Program {
        let num_inputs = 1 + rng.next_index(6);
        let num_regs = 2 + rng.next_index(12);
        let operand = |rng: &mut SplitMix64| match rng.next_index(4) {
            0 => Operand::Const(rng.next_bool()),
            1 => Operand::Input(rng.next_index(num_inputs)),
            _ => Operand::Reg(RegId(rng.next_index(num_regs) as u32)),
        };
        let mut steps = Vec::new();
        for _ in 0..1 + rng.next_index(24) {
            if rng.chance(1, 5) {
                let a = rng.next_index(num_regs) as u32;
                let b = (a + 1 + rng.next_index(num_regs - 1) as u32) % num_regs as u32;
                steps.push(vec![
                    MicroOp::Load {
                        dst: RegId(a),
                        src: Operand::Reg(RegId(b)),
                    },
                    MicroOp::Load {
                        dst: RegId(b),
                        src: Operand::Reg(RegId(a)),
                    },
                ]);
                continue;
            }
            let mut dsts: Vec<u32> = (0..num_regs as u32).collect();
            let mut step = Vec::new();
            for _ in 0..1 + rng.next_index(num_regs) {
                let dst = RegId(dsts.swap_remove(rng.next_index(dsts.len())));
                step.push(match rng.next_index(4) {
                    0 => MicroOp::False { dst },
                    1 => MicroOp::Load {
                        dst,
                        src: operand(rng),
                    },
                    2 => MicroOp::Imp {
                        p: operand(rng),
                        q: dst,
                    },
                    _ => MicroOp::Maj {
                        p: operand(rng),
                        q: operand(rng),
                        r: dst,
                    },
                });
            }
            steps.push(step);
        }
        let outputs = (0..1 + rng.next_index(4))
            .map(|o| (format!("o{o}"), RegId(rng.next_index(num_regs) as u32)))
            .collect();
        Program {
            num_inputs,
            num_regs,
            steps,
            outputs,
            model_rrams: 0,
        }
    }

    fn touched_devices(program: &Program) -> u64 {
        let mut seen = vec![false; program.num_regs];
        for op in program.steps.iter().flatten() {
            seen[op.dst().0 as usize] = true;
        }
        seen.iter().filter(|&&t| t).count() as u64
    }

    #[test]
    fn batch_kernel_matches_scalar_reference() {
        let mut rng = SplitMix64::new(0xB10C);
        let mut machine = Machine::new();
        for case in 0..200 {
            let program = random_program(&mut rng);
            program.validate().expect("generator emits valid programs");
            // Word counts straddling the block size.
            for words in [1, 7, BLOCK_WORDS, 9, 64, 65] {
                let patterns: Vec<Vec<u64>> = (0..words)
                    .map(|_| (0..program.num_inputs).map(|_| rng.next_u64()).collect())
                    .collect();
                let got = machine.run_batch(&program, &patterns).unwrap();
                assert_eq!(got.len(), words);
                for (w, pattern) in patterns.iter().enumerate() {
                    let want = scalar_reference(&program, pattern);
                    assert_eq!(got[w], want, "case {case}, {words} words, word {w}");
                }
                assert_eq!(
                    machine.stats(&program).devices_touched,
                    touched_devices(&program),
                    "case {case}"
                );
            }
            let pattern: Vec<u64> = (0..program.num_inputs).map(|_| rng.next_u64()).collect();
            assert_eq!(
                machine.run_words(&program, &pattern).unwrap(),
                scalar_reference(&program, &pattern),
                "case {case}: run_words"
            );
        }
    }

    #[test]
    fn truth_tables_match_scalar_reference() {
        let mut rng = SplitMix64::new(0x77);
        for case in 0..40 {
            let mut program = random_program(&mut rng);
            // Widen some programs past one block of 64-minterm chunks.
            program.num_inputs += rng.next_index(7);
            let n = program.num_inputs;
            let tts = Machine::truth_tables(&program).unwrap();
            for m in 0..1u64 << n {
                let bits: Vec<u64> = (0..n).map(|i| ((m >> i) & 1).wrapping_neg()).collect();
                let want = scalar_reference(&program, &bits);
                for (o, t) in tts.iter().enumerate() {
                    assert_eq!(t.bit(m), want[o] & 1 == 1, "case {case}, n={n}, m={m}");
                }
            }
        }
    }

    #[test]
    fn batch_rejects_invalid_program_before_running() {
        let mut p = imp_program();
        p.steps.push(vec![MicroOp::False { dst: RegId(5) }] as Step);
        let patterns = vec![vec![0u64, 0]; 9];
        assert_eq!(
            Machine::new().run_batch(&p, &patterns),
            Err(ProgramError::RegOutOfRange {
                step: 2,
                reg: RegId(5)
            })
        );
        assert!(Machine::truth_tables(&p).is_err());
    }

    #[test]
    fn empty_batch_validates_and_returns_nothing() {
        let none: [&[u64]; 0] = [];
        assert_eq!(Machine::new().run_batch(&imp_program(), &none), Ok(vec![]));
    }
}
