//! Compiler from majority-inverter graphs to RRAM programs.
//!
//! Implements the level-by-level design methodology of Sec. III-B: all
//! majority gates of one MIG level execute simultaneously (their per-gate
//! step sequences interleave into shared time steps), devices released by
//! a finished level are reused by the next, and every level with ingoing
//! complemented edges pays one extra inversion step whose target devices
//! are cleared in parallel with an earlier data-loading step.
//!
//! The emitted program's step count is **exactly** the paper's
//! `S = K·D + L`, and the per-level device footprint it reports is exactly
//! `R = max_i (K·N_i + C_i)` — the integration tests assert both against
//! [`rms_core::cost::RramCost`]. The machine also reports the *physical*
//! peak device count, which exceeds `R` whenever values produced in one
//! level must stay alive past the next level; Table I deliberately models
//! only the per-level footprint (the `rms bench` reports print the
//! measured gap).

use crate::isa::{MicroOp, Operand, Program, RegId};
use rms_core::cost::Realization;
use rms_core::mig::{Mig, MigNode};
use rms_core::signal::MigSignal;
use std::collections::HashMap;

/// Result of compiling an MIG.
#[derive(Debug, Clone)]
pub struct CompiledCircuit {
    /// The executable program.
    pub program: Program,
    /// `R` of Table I: the modelled per-level device footprint.
    pub model_rrams: u64,
    /// Peak number of simultaneously live devices, including values that
    /// must survive across levels (physical requirement; `>= model_rrams`
    /// in general).
    pub physical_rrams: u64,
    /// The realization the circuit was compiled for.
    pub realization: Realization,
}

/// Register allocator with a free list.
#[derive(Default)]
struct Allocator {
    next: u32,
    free: Vec<RegId>,
    live: u64,
    peak: u64,
}

impl Allocator {
    /// Allocates a device; `true` means it is reused and holds stale state.
    fn alloc(&mut self) -> (RegId, bool) {
        self.live += 1;
        self.peak = self.peak.max(self.live);
        if let Some(r) = self.free.pop() {
            (r, true)
        } else {
            let r = RegId(self.next);
            self.next += 1;
            (r, false)
        }
    }

    fn release(&mut self, r: RegId) {
        self.live -= 1;
        self.free.push(r);
    }

    /// Allocates a device that was never used before (needed when the value
    /// must be established in the very first step, before any reuse point).
    fn alloc_fresh(&mut self) -> RegId {
        self.live += 1;
        self.peak = self.peak.max(self.live);
        let r = RegId(self.next);
        self.next += 1;
        r
    }
}

/// Where a signal's (uncomplemented) value can be read from.
#[derive(Debug, Clone, Copy)]
enum Loc {
    Const,
    Input(usize),
    Reg(RegId),
}

impl Loc {
    fn operand(self) -> Operand {
        match self {
            Loc::Const => Operand::Const(false),
            Loc::Input(i) => Operand::Input(i),
            Loc::Reg(r) => Operand::Reg(r),
        }
    }
}

/// Compiles `mig` into an RRAM program for the chosen `realization`.
///
/// # Panics
///
/// Panics if the graph has no outputs.
pub fn compile(mig: &Mig, realization: Realization) -> CompiledCircuit {
    assert!(!mig.outputs().is_empty(), "graph has no outputs");
    let mut alloc = Allocator::default();
    let mut steps: Vec<Vec<MicroOp>> = Vec::new();
    // Falses to fold into the next step that gets created.
    let mut pending_clears: Vec<RegId> = Vec::new();

    // Dead nodes are never implemented (they match neither Table I nor
    // what a real array would program): restrict to the output cone.
    let mut alive = vec![false; mig.len()];
    let mut stack: Vec<usize> = mig.outputs().iter().map(|(_, s)| s.node()).collect();
    while let Some(i) = stack.pop() {
        if alive[i] {
            continue;
        }
        alive[i] = true;
        if let MigNode::Maj(kids) = mig.node(i) {
            stack.extend(kids.iter().map(|k| k.node()));
        }
    }

    // Remaining consumer count per alive node (gate fanins + outputs).
    let mut consumers = vec![0u32; mig.len()];
    for (idx, &is_alive) in alive.iter().enumerate() {
        if !is_alive {
            continue;
        }
        if let MigNode::Maj(kids) = mig.node(idx) {
            for k in kids {
                consumers[k.node()] += 1;
            }
        }
    }
    for (_, o) in mig.outputs() {
        consumers[o.node()] += 1;
    }

    // Group alive gates by level.
    let depth = mig.depth() as usize;
    let mut by_level: Vec<Vec<usize>> = vec![Vec::new(); depth + 1];
    for (idx, &is_alive) in alive.iter().enumerate() {
        if !is_alive {
            continue;
        }
        if let MigNode::Maj(_) = mig.node(idx) {
            let lvl = mig.level(idx) as usize;
            debug_assert!(lvl <= depth);
            by_level[lvl].push(idx);
        }
    }

    let mut loc: HashMap<usize, Loc> = HashMap::new();
    loc.insert(0, Loc::Const);
    for i in 0..mig.num_inputs() {
        loc.insert(1 + i, Loc::Input(i));
    }

    let k_gate = realization.steps_per_level() as usize;
    let mut model_rrams = 0u64;

    // Reads the operand for `sig`, assuming complements were already
    // resolved into `inverted`.
    let read = |loc: &HashMap<usize, Loc>,
                inverted: &HashMap<(usize, usize), RegId>,
                gate: usize,
                pin: usize,
                sig: MigSignal|
     -> Operand {
        if sig.is_constant() {
            return Operand::Const(sig.is_complemented());
        }
        if sig.is_complemented() {
            Operand::Reg(inverted[&(gate, pin)])
        } else {
            loc[&sig.node()].operand()
        }
    };

    for gates in by_level.iter().skip(1) {
        if gates.is_empty() {
            continue;
        }
        // --- Inversion step for complemented ingoing edges -------------
        let mut inverted: HashMap<(usize, usize), RegId> = HashMap::new();
        let mut inv_regs: Vec<RegId> = Vec::new();
        let mut inv_step: Vec<MicroOp> = Vec::new();
        for &g in gates {
            let kids = mig.maj_children(g).expect("gate");
            for (pin, sig) in kids.iter().enumerate() {
                if sig.is_complemented() && !sig.is_constant() {
                    let (r, stale) = alloc.alloc();
                    if stale {
                        pending_clears.push(r);
                    }
                    let src = loc[&sig.node()].operand();
                    // NOT on a cleared device: one IMP (q ← src IMP 0 = !src)
                    // or one intrinsic-majority step M(1, ¬src, 0) = !src.
                    let op = match realization {
                        Realization::Imp => MicroOp::Imp { p: src, q: r },
                        Realization::Maj => MicroOp::Maj {
                            p: Operand::Const(true),
                            q: src,
                            r,
                        },
                    };
                    inv_step.push(op);
                    inverted.insert((g, pin), r);
                    inv_regs.push(r);
                }
            }
        }
        let level_footprint =
            realization.rrams_per_gate() * gates.len() as u64 + inv_regs.len() as u64;
        model_rrams = model_rrams.max(level_footprint);

        if !inv_step.is_empty() {
            // Clears of reused devices ride along with the previous step
            // ("in parallel with the data loading step", Sec. III-B); the
            // inversion targets themselves must be cleared before this
            // step, never inside it.
            if let Some(prev) = steps.last_mut() {
                prev.extend(pending_clears.drain(..).map(|dst| MicroOp::False { dst }));
            } else {
                debug_assert!(
                    pending_clears.is_empty(),
                    "nothing can be stale before the first step"
                );
            }
            steps.push(inv_step);
        }

        // --- Gate execution: K interleaved steps ------------------------
        let mut gate_regs: HashMap<usize, Vec<RegId>> = HashMap::new();
        let mut level_steps: Vec<Vec<MicroOp>> = vec![Vec::new(); k_gate];
        for &g in gates {
            let kids = mig.maj_children(g).expect("gate");
            let ops: [Operand; 3] = [
                read(&loc, &inverted, g, 0, kids[0]),
                read(&loc, &inverted, g, 1, kids[1]),
                read(&loc, &inverted, g, 2, kids[2]),
            ];
            let regs: Vec<RegId> = (0..realization.rrams_per_gate())
                .map(|_| alloc.alloc().0)
                .collect();
            match realization {
                Realization::Imp => {
                    emit_imp_gate(&mut level_steps, &regs, ops);
                }
                Realization::Maj => {
                    emit_maj_gate(&mut level_steps, &regs, ops);
                }
            }
            gate_regs.insert(g, regs);
        }
        // Fold any still-pending clears into the first gate step (a data
        // loading step).
        if let Some(first) = level_steps.first_mut() {
            first.extend(pending_clears.drain(..).map(|dst| MicroOp::False { dst }));
        }
        steps.extend(level_steps);

        // --- Release devices --------------------------------------------
        for r in inv_regs {
            alloc.release(r);
        }
        for &g in gates {
            let regs = &gate_regs[&g];
            let out_reg = match realization {
                Realization::Imp => regs[3], // device A of Fig. 3
                Realization::Maj => regs[2], // device Z
            };
            for &r in regs {
                if r != out_reg {
                    alloc.release(r);
                }
            }
            loc.insert(g, Loc::Reg(out_reg));
            // Consume the gate's children.
            let kids = mig.maj_children(g).expect("gate");
            for kid in kids {
                let n = kid.node();
                consumers[n] -= 1;
                if consumers[n] == 0 {
                    if let Some(Loc::Reg(r)) = loc.get(&n) {
                        alloc.release(*r);
                    }
                }
            }
        }
    }

    // --- Outputs ----------------------------------------------------------
    // Pass-through outputs (constants or inputs) need a landing device; the
    // load rides along with the first step when one exists.
    let mut outputs: Vec<(String, RegId)> = Vec::new();
    let mut passthrough: Vec<MicroOp> = Vec::new();
    let mut final_inversions: Vec<MicroOp> = Vec::new();
    for (name, sig) in mig.outputs() {
        let n = sig.node();
        let needs_inv = sig.is_complemented() && !sig.is_constant();
        if needs_inv {
            let (r, stale) = alloc.alloc();
            if stale {
                pending_clears.push(r);
            }
            let src = loc[&n].operand();
            let op = match realization {
                Realization::Imp => MicroOp::Imp { p: src, q: r },
                Realization::Maj => MicroOp::Maj {
                    p: Operand::Const(true),
                    q: src,
                    r,
                },
            };
            final_inversions.push(op);
            outputs.push((name.clone(), r));
        } else {
            match loc[&n] {
                Loc::Reg(r) => outputs.push((name.clone(), r)),
                other => {
                    // Pass-through (input/constant) outputs load in the
                    // very first step, so they need devices no gate ever
                    // touches.
                    let r = alloc.alloc_fresh();
                    let src = if sig.is_constant() {
                        Operand::Const(sig.is_complemented())
                    } else {
                        other.operand()
                    };
                    passthrough.push(MicroOp::Load { dst: r, src });
                    outputs.push((name.clone(), r));
                }
            }
        }
    }
    if !final_inversions.is_empty() {
        model_rrams = model_rrams.max(final_inversions.len() as u64);
        if let Some(prev) = steps.last_mut() {
            prev.extend(pending_clears.drain(..).map(|dst| MicroOp::False { dst }));
        }
        steps.push(final_inversions);
    }
    if !passthrough.is_empty() {
        if let Some(first) = steps.first_mut() {
            first.extend(passthrough);
        } else {
            // A circuit whose outputs are all bare inputs/constants has
            // S = 0 under Table I but still needs one load step to land
            // the values in devices — the only case where the machine's
            // step count exceeds the formula.
            steps.push(passthrough);
        }
    }

    let program = Program {
        num_inputs: mig.num_inputs(),
        num_regs: alloc.next as usize,
        steps,
        outputs,
        model_rrams,
    };
    debug_assert_eq!(program.validate(), Ok(()));
    CompiledCircuit {
        program,
        model_rrams,
        physical_rrams: alloc.peak,
        realization,
    }
}

/// Emits the ten interleaved steps of the Fig. 3 IMP-based gate into the
/// level's step slots. `regs` = [X, Y, Z, A, B, C]; output lands in A.
fn emit_imp_gate(slots: &mut [Vec<MicroOp>], regs: &[RegId], ops: [Operand; 3]) {
    let (x, y, z, a, b, c) = (regs[0], regs[1], regs[2], regs[3], regs[4], regs[5]);
    let rg = Operand::Reg;
    slots[0].extend([
        MicroOp::Load {
            dst: x,
            src: ops[0],
        },
        MicroOp::Load {
            dst: y,
            src: ops[1],
        },
        MicroOp::Load {
            dst: z,
            src: ops[2],
        },
        MicroOp::False { dst: a },
        MicroOp::False { dst: b },
        MicroOp::False { dst: c },
    ]);
    slots[1].push(MicroOp::Imp { p: rg(x), q: a });
    slots[2].push(MicroOp::Imp { p: rg(y), q: b });
    slots[3].push(MicroOp::Imp { p: rg(a), q: y });
    slots[4].push(MicroOp::Imp { p: rg(x), q: b });
    slots[5].push(MicroOp::Imp { p: rg(y), q: c });
    slots[6].push(MicroOp::Imp { p: rg(z), q: c });
    slots[7].push(MicroOp::False { dst: a });
    slots[8].push(MicroOp::Imp { p: rg(b), q: a });
    slots[9].push(MicroOp::Imp { p: rg(c), q: a });
}

/// Emits the three interleaved steps of the MAJ-based gate. `regs` =
/// [X, Y, Z, A]; output lands in Z.
fn emit_maj_gate(slots: &mut [Vec<MicroOp>], regs: &[RegId], ops: [Operand; 3]) {
    let (x, y, z, a) = (regs[0], regs[1], regs[2], regs[3]);
    slots[0].extend([
        MicroOp::Load {
            dst: x,
            src: ops[0],
        },
        MicroOp::Load {
            dst: y,
            src: ops[1],
        },
        MicroOp::Load {
            dst: z,
            src: ops[2],
        },
        MicroOp::False { dst: a },
    ]);
    slots[1].push(MicroOp::Maj {
        p: Operand::Const(true),
        q: Operand::Reg(y),
        r: a,
    });
    slots[2].push(MicroOp::Maj {
        p: Operand::Reg(x),
        q: Operand::Reg(a),
        r: z,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use rms_core::cost::RramCost;
    use rms_logic::bench_suite;

    fn bench_mig(name: &str) -> Mig {
        Mig::from_netlist(&bench_suite::build(name).unwrap())
    }

    const SAMPLES: &[&str] = &[
        "exam1_d", "exam3_d", "rd53_f2", "con1_f1", "sao2_f4", "9sym_d",
    ];

    #[test]
    fn compiled_programs_compute_the_mig_function() {
        for name in SAMPLES {
            let mig = bench_mig(name);
            let expect = mig.truth_tables();
            for real in Realization::ALL {
                let cc = compile(&mig, real);
                let got = Machine::truth_tables(&cc.program).unwrap();
                assert_eq!(got, expect, "{name}/{real}");
            }
        }
    }

    #[test]
    fn step_count_matches_table1_formula() {
        for name in SAMPLES {
            let mig = bench_mig(name);
            for real in Realization::ALL {
                let cc = compile(&mig, real);
                let cost = RramCost::of(&mig, real);
                assert_eq!(
                    cc.program.num_steps(),
                    cost.steps,
                    "{name}/{real}: machine steps vs S = K*D + L"
                );
            }
        }
    }

    #[test]
    fn device_footprint_matches_table1_formula() {
        for name in SAMPLES {
            let mig = bench_mig(name);
            for real in Realization::ALL {
                let cc = compile(&mig, real);
                let cost = RramCost::of(&mig, real);
                assert_eq!(
                    cc.model_rrams, cost.rrams,
                    "{name}/{real}: footprint vs R = max(K*Ni + Ci)"
                );
                assert!(
                    cc.physical_rrams >= cc.model_rrams,
                    "{name}/{real}: physical must cover the model"
                );
            }
        }
    }

    #[test]
    fn single_gate_matches_figure_realizations() {
        let mut mig = Mig::with_inputs("g", 3);
        let (a, b, c) = (mig.input(0), mig.input(1), mig.input(2));
        let g = mig.maj(a, b, c);
        mig.add_output("f", g);
        let imp = compile(&mig, Realization::Imp);
        assert_eq!(imp.program.num_steps(), 10);
        assert_eq!(imp.model_rrams, 6);
        let maj = compile(&mig, Realization::Maj);
        assert_eq!(maj.program.num_steps(), 3);
        assert_eq!(maj.model_rrams, 4);
    }

    #[test]
    fn complemented_edges_cost_one_inversion_step_per_level() {
        let mut mig = Mig::with_inputs("c", 3);
        let (a, b, c) = (mig.input(0), mig.input(1), mig.input(2));
        let g = mig.maj(!a, !b, c);
        mig.add_output("f", g);
        let cc = compile(&mig, Realization::Maj);
        // 1 inversion step + 3 gate steps.
        assert_eq!(cc.program.num_steps(), 4);
        // 4 devices for the gate + 2 inversion devices.
        assert_eq!(cc.model_rrams, 6);
        let tts = Machine::truth_tables(&cc.program).unwrap();
        for m in 0..8u64 {
            let (av, bv, cv) = (m & 1 == 1, m & 2 != 0, m & 4 != 0);
            let expect = [!av, !bv, cv].iter().filter(|&&x| x).count() >= 2;
            assert_eq!(tts[0].bit(m), expect, "{m}");
        }
    }

    #[test]
    fn complemented_output_adds_final_inversion() {
        let mut mig = Mig::with_inputs("o", 3);
        let (a, b, c) = (mig.input(0), mig.input(1), mig.input(2));
        let g = mig.maj(a, b, c);
        mig.add_output("f", !g);
        let cc = compile(&mig, Realization::Maj);
        assert_eq!(cc.program.num_steps(), 4); // 3 + 1 final inversion
        let tts = Machine::truth_tables(&cc.program).unwrap();
        for m in 0..8u64 {
            assert_eq!(tts[0].bit(m), m.count_ones() < 2, "{m}");
        }
    }

    #[test]
    fn passthrough_outputs() {
        let mut mig = Mig::with_inputs("p", 2);
        let (a, b) = (mig.input(0), mig.input(1));
        let g = mig.and(a, b);
        mig.add_output("g", g);
        mig.add_output("x", a); // plain input pass-through
        mig.add_output("ni", !b); // complemented input
        mig.add_output("one", mig.constant(true));
        let cc = compile(&mig, Realization::Imp);
        let tts = Machine::truth_tables(&cc.program).unwrap();
        for m in 0..4u64 {
            let (av, bv) = (m & 1 == 1, m & 2 != 0);
            assert_eq!(tts[0].bit(m), av && bv);
            assert_eq!(tts[1].bit(m), av);
            assert_eq!(tts[2].bit(m), !bv);
            assert!(tts[3].bit(m));
        }
    }

    #[test]
    fn device_reuse_happens_across_levels() {
        // A deep chain must reuse devices: physical peak well below
        // gates * K.
        let mut mig = Mig::with_inputs("chain", 3);
        let (a, b, c) = (mig.input(0), mig.input(1), mig.input(2));
        let mut g = mig.maj(a, b, c);
        for _ in 0..10 {
            g = mig.maj(g, a, b);
        }
        mig.add_output("f", g);
        let cc = compile(&mig, Realization::Maj);
        let total_naive = mig.num_gates() as u64 * 4;
        assert!(
            cc.program.num_regs < total_naive as usize,
            "{} devices allocated, naive would be {}",
            cc.program.num_regs,
            total_naive
        );
    }
}
