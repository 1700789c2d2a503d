//! End-to-end functional equivalence across the whole workspace: for each
//! benchmark, the netlist, the MIG (before and after every optimization
//! algorithm), the compiled RRAM programs, the BDD, and the AIG must all
//! compute the same function.
//!
//! The second half is the **differential SAT harness**: seeded random
//! netlists drive all eight optimization algorithms (Algs. 1–4, cut
//! rewriting, and the fraig/resub sweep modes) through the pipeline, and
//! every result — plus the compiled array and PLiM programs — is
//! *proved* equivalent by the `rms-sat` miter engine, turning the
//! optimizer stack into its own oracle. The sweep runs sequentially and
//! on a thread pool and must be bit-identical (same gate counts, same
//! proof statistics).

use rram_mig::aig::Aig;
use rram_mig::bdd::build as bdd_build;
use rram_mig::flow::{check_netlists, run_algorithm, Pipeline, VerifyMode, VerifyOutcome};
use rram_mig::logic::bench_suite;
use rram_mig::logic::random::random_netlist;
use rram_mig::logic::sim::{check_equivalence, random_patterns};
use rram_mig::mig::cost::Realization;
use rram_mig::mig::opt::{Algorithm, OptOptions};
use rram_mig::mig::par::par_map_threads;
use rram_mig::mig::Mig;
use rram_mig::rram::compile::compile;
use rram_mig::rram::machine::Machine;

/// Small-suite benchmarks are checked exhaustively via truth tables.
const EXHAUSTIVE: &[&str] = &[
    "exam1_d", "exam3_d", "rd53_f1", "rd53_f2", "rd53_f3", "con1_f1", "con2_f2", "newill_d",
    "newtag_d", "9sym_d", "sao2_f1", "sao2_f3", "max46_d", "xor5_d",
];

/// The exhaustive benchmarks, parsed once per process and shared by every
/// test case (BLIF parsing is cheap but not free, and five cases walk the
/// same list).
fn exhaustive_netlist(name: &str) -> &'static rram_mig::logic::Netlist {
    use std::sync::OnceLock;
    static SUITE: OnceLock<Vec<(&'static str, rram_mig::logic::Netlist)>> = OnceLock::new();
    let suite = SUITE.get_or_init(|| {
        EXHAUSTIVE
            .iter()
            .map(|&n| (n, bench_suite::build(n).expect("known benchmark")))
            .collect()
    });
    &suite.iter().find(|(n, _)| *n == name).expect("in suite").1
}

/// Large benchmarks are checked with bit-parallel random patterns.
const SAMPLED: &[&str] = &["apex7", "b9", "cm162a", "x2", "cordic", "misex1"];

#[test]
fn optimizers_preserve_functions_exhaustively() {
    let opts = OptOptions::with_effort(8);
    for name in EXHAUSTIVE {
        let nl = exhaustive_netlist(name);
        let reference = nl.truth_tables();
        let mig = Mig::from_netlist(nl);
        assert_eq!(mig.truth_tables(), reference, "{name}: initial MIG");
        for alg in Algorithm::ALL {
            for real in Realization::ALL {
                let (opt, _) = run_algorithm(&mig, alg, real, &opts);
                assert_eq!(opt.truth_tables(), reference, "{name}: {alg} under {real}");
            }
        }
    }
}

#[test]
fn compiled_programs_match_optimized_migs() {
    let opts = OptOptions::with_effort(6);
    for name in EXHAUSTIVE {
        let nl = exhaustive_netlist(name);
        let reference = nl.truth_tables();
        let mig = Mig::from_netlist(nl);
        for alg in [Algorithm::RramCosts, Algorithm::Steps] {
            for real in Realization::ALL {
                let (opt, _) = run_algorithm(&mig, alg, real, &opts);
                let circuit = compile(&opt, real);
                let got = Machine::truth_tables(&circuit.program).expect("valid program");
                assert_eq!(got, reference, "{name}: machine after {alg}/{real}");
            }
        }
    }
}

#[test]
fn large_benchmarks_survive_the_flow_sampled() {
    let opts = OptOptions::with_effort(6);
    for name in SAMPLED {
        let nl = bench_suite::build(name).expect("known benchmark");
        let mig = Mig::from_netlist(&nl);
        let (opt, _) = run_algorithm(&mig, Algorithm::Steps, Realization::Maj, &opts);
        let res = check_equivalence(&nl, &opt.to_netlist());
        assert!(res.holds(), "{name}: optimized MIG vs netlist: {res:?}");

        // Machine vs netlist on random patterns.
        let circuit = compile(&opt, Realization::Maj);
        let mut machine = Machine::new();
        for pattern in random_patterns(nl.num_inputs(), 32, 0xC0FFEE) {
            let net_out = nl.simulate_words(&pattern);
            let mach_out = machine
                .run_words(&circuit.program, &pattern)
                .expect("valid program");
            assert_eq!(mach_out, net_out, "{name}: machine vs netlist");
        }
    }
}

#[test]
fn bdd_and_aig_agree_with_netlists() {
    for name in EXHAUSTIVE {
        let nl = exhaustive_netlist(name);
        let reference = nl.truth_tables();

        let circ = bdd_build::from_netlist(nl, bdd_build::Ordering::DfsFromOutputs);
        for m in 0..(1u64 << nl.num_inputs()) {
            for (o, root) in circ.roots.iter().enumerate() {
                assert_eq!(
                    circ.manager.eval(*root, m),
                    reference[o].bit(m),
                    "{name}: BDD output {o} at {m}"
                );
            }
        }

        let aig = Aig::from_netlist(nl).balance();
        assert_eq!(aig.truth_tables(), reference, "{name}: balanced AIG");
    }
}

#[test]
fn baseline_rram_programs_compute_the_right_functions() {
    for name in &EXHAUSTIVE[..8] {
        let nl = exhaustive_netlist(name);
        let reference = nl.truth_tables();

        let circ = bdd_build::from_netlist(nl, bdd_build::Ordering::Natural);
        let bdd = rram_mig::bdd::rram_synth::synthesize(&circ, &Default::default());
        assert_eq!(
            Machine::truth_tables(&bdd.program).expect("valid"),
            reference,
            "{name}: BDD baseline program"
        );

        let aig = Aig::from_netlist(nl).compact();
        let aig_circ = rram_mig::aig::rram_synth::synthesize(&aig);
        assert_eq!(
            Machine::truth_tables(&aig_circ.program).expect("valid"),
            reference,
            "{name}: AIG baseline program"
        );
    }
}

// ---------------------------------------------------------------------------
// Differential SAT harness
// ---------------------------------------------------------------------------

/// Everything one differential seed produces; compared across worker
/// counts, so it must be fully deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DiffRow {
    seed: u64,
    gates: Vec<u64>,
    /// (conflicts, decisions) of the SAT proof `algorithm result ≡
    /// source netlist`, per algorithm.
    proofs: Vec<(u64, u64)>,
    /// (conflicts, decisions) of the pipeline's own SAT verification of
    /// the compiled array + PLiM programs (one algorithm per seed).
    program_proof: (u64, u64),
}

/// Shapes a seed into a circuit spec: 4–8 inputs, 1–3 outputs, 10–30
/// gates over all gate kinds.
fn diff_netlist(seed: u64) -> rram_mig::logic::Netlist {
    let inputs = 4 + (seed % 5) as usize;
    let outputs = 1 + (seed % 3) as usize;
    let gates = 10 + (seed % 21) as usize;
    random_netlist("diff", seed, inputs, outputs, gates)
}

fn diff_row(seed: u64) -> DiffRow {
    let nl = diff_netlist(seed);
    let mut gates = Vec::with_capacity(Algorithm::ALL_MODES.len());
    let mut proofs = Vec::with_capacity(Algorithm::ALL_MODES.len());
    let mut optimized = Vec::with_capacity(Algorithm::ALL_MODES.len());
    for alg in Algorithm::ALL_MODES {
        let out = Pipeline::new(nl.clone())
            .algorithm(alg)
            .effort(4)
            .verify(false)
            .run()
            .unwrap_or_else(|e| panic!("seed {seed}, {alg}: {e}"));
        gates.push(out.mig.num_gates() as u64);
        let opt_nl = out.mig.to_netlist();
        // Force the SAT tier even below the exhaustive cutoff: this
        // harness is the solver's workout.
        match check_netlists(&nl, &opt_nl, VerifyMode::Sat, seed).unwrap() {
            VerifyOutcome::Proved {
                conflicts,
                decisions,
            } => proofs.push((conflicts, decisions)),
            other => panic!("seed {seed}, {alg}: expected proof, got {other:?}"),
        }
        optimized.push(opt_nl);
    }
    // Pairwise equivalence is implied by transitivity through the
    // source-netlist proofs above, so the O(n²) pairwise miters were
    // dropped; one rotating pair per seed is kept because the
    // result-vs-result miters exercise different sharing in the encoder
    // than the result-vs-source ones (over 50 seeds this still covers
    // many distinct algorithm pairs).
    let i = (seed as usize) % optimized.len();
    let j = (i + 1 + (seed as usize / optimized.len()) % (optimized.len() - 1)) % optimized.len();
    let outcome = rram_mig::sat::check_netlists(&optimized[i], &optimized[j]).unwrap();
    assert!(
        outcome.is_equivalent(),
        "seed {seed}: {} vs {}: {outcome:?}",
        Algorithm::ALL_MODES[i],
        Algorithm::ALL_MODES[j]
    );
    // One full pipeline run per seed with SAT-proved program verification
    // (netlist vs array and netlist vs PLiM miters).
    let out = Pipeline::new(nl)
        .algorithm(Algorithm::RramCosts)
        .effort(4)
        .verify_mode(VerifyMode::Sat)
        .run()
        .unwrap_or_else(|e| panic!("seed {seed}, program proof: {e}"));
    let program_proof = match out.report.verify {
        VerifyOutcome::Proved {
            conflicts,
            decisions,
        } => (conflicts, decisions),
        ref other => panic!("seed {seed}: expected program proof, got {other:?}"),
    };
    DiffRow {
        seed,
        gates,
        proofs,
        program_proof,
    }
}

#[test]
fn differential_every_algorithm_sat_proved_on_50_random_netlists() {
    let seeds: Vec<u64> = (0..50).collect();
    // Sequential reference, then the thread pool — the sweep must be
    // bit-identical under `--jobs` parallelism.
    let sequential = par_map_threads(&seeds, 1, |&seed| diff_row(seed));
    let parallel = par_map_threads(&seeds, 4, |&seed| diff_row(seed));
    assert_eq!(sequential, parallel, "parallel sweep must be bit-identical");
    for row in &sequential {
        assert_eq!(row.gates.len(), Algorithm::ALL_MODES.len());
        assert_eq!(row.proofs.len(), Algorithm::ALL_MODES.len());
    }
    // The sweep must include real solver work, not just folded miters.
    let total_decisions: u64 = sequential
        .iter()
        .flat_map(|r| r.proofs.iter().map(|&(_, d)| d))
        .sum();
    assert!(total_decisions > 0, "miters should require search");
}

#[test]
fn roundtrip_blif_and_verilog_sat_proved() {
    use rram_mig::logic::{blif, verilog};
    for seed in 0..12u64 {
        let nl = diff_netlist(seed.wrapping_mul(31).wrapping_add(5));
        let blif_back = blif::parse(&blif::write(&nl)).expect("BLIF round trip parses");
        assert!(
            check_netlists(&nl, &blif_back, VerifyMode::Sat, seed)
                .unwrap()
                .is_proof(),
            "seed {seed}: BLIF round trip must be SAT-proved"
        );
        let v_back = verilog::parse(&verilog::write(&nl)).expect("Verilog round trip parses");
        assert!(
            check_netlists(&nl, &v_back, VerifyMode::Sat, seed)
                .unwrap()
                .is_proof(),
            "seed {seed}: Verilog round trip must be SAT-proved"
        );
    }
}

#[test]
fn above_cutoff_benchmarks_are_proved_not_sampled() {
    // Every small-suite benchmark wider than the exhaustive cutoff must
    // come back *proved* from a default pipeline run.
    let mut above_cutoff = 0;
    for info in bench_suite::SMALL_SUITE
        .iter()
        .filter(|i| i.inputs > rram_mig::flow::verify::EXHAUSTIVE_VERIFY_VARS)
    {
        let out = Pipeline::from_bench(info.name)
            .unwrap()
            .effort(6)
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", info.name));
        assert!(
            matches!(out.report.verify, VerifyOutcome::Proved { .. }),
            "{}: {:?}",
            info.name,
            out.report.verify
        );
        above_cutoff += 1;
    }
    assert!(above_cutoff >= 1, "t481_d is above the cutoff");
    // And a spread of wide large-suite circuits for good measure.
    for name in ["cm150a", "parity", "cordic"] {
        let out = Pipeline::from_bench(name)
            .unwrap()
            .effort(6)
            .run()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            out.report.verify.is_proof(),
            "{name}: {:?}",
            out.report.verify
        );
    }
}

// ---------------------------------------------------------------------
// The sweeping miter: every `rms-sat` proof first merges internal
// equivalences found by simulation, then refutes the output miter. The
// sweep may only ever add proved clauses, so its answers must match the
// truth-table oracle exactly, its budget must bound the whole proof, and
// it must be deterministic.
// ---------------------------------------------------------------------

use rram_mig::logic::rng::SplitMix64;
use rram_mig::logic::{Netlist, NetlistBuilder, Wire};
use rram_mig::rram::isa::Program;
use rram_mig::sat::{
    check_netlist_vs_program, check_netlist_vs_program_cancellable,
    check_netlist_vs_program_limited, MiterOutcome,
};

/// Minterm index of an input assignment (bit `i` = input `i`).
fn minterm_of(inputs: &[bool]) -> u64 {
    inputs
        .iter()
        .enumerate()
        .fold(0, |m, (i, &b)| m | (u64::from(b) << i))
}

/// Replaces one random op of `program` with a random op on the same
/// device: a functional bug that may change one output on few inputs,
/// or nothing at all.
fn mutate_op(program: &mut Program, rng: &mut SplitMix64) {
    use rram_mig::rram::isa::{MicroOp, Operand};
    let si = rng.next_index(program.steps.len());
    let step = &mut program.steps[si];
    let oi = rng.next_index(step.len());
    let dst = step[oi].dst();
    let operand = Operand::Input(rng.next_index(program.num_inputs));
    step[oi] = match rng.next_index(4) {
        0 => MicroOp::False { dst },
        1 => MicroOp::Load { dst, src: operand },
        2 => MicroOp::Imp { p: operand, q: dst },
        _ => MicroOp::Maj {
            p: operand,
            q: Operand::Const(rng.next_bool()),
            r: dst,
        },
    };
}

/// How [`mutant`] changes a netlist.
#[derive(Clone, Copy)]
enum Mutation {
    /// One random gate's kind swapped (AND→OR→XOR→AND, MAJ↔MUX) or one
    /// of its fanins complemented.
    Gate,
    /// The first output flipped on the two minterms of a random cube
    /// over all inputs but one: a difference random simulation almost
    /// never sees, left for the miter's SAT calls to find.
    RareFlip,
}

/// Rebuilds `nl` gate for gate with one `mutation` applied.
fn mutant(nl: &Netlist, rng: &mut SplitMix64, mutation: Mutation) -> Netlist {
    use rram_mig::logic::GateKind;
    let target = match mutation {
        Mutation::Gate => rng.next_index(nl.num_gates()),
        Mutation::RareFlip => usize::MAX,
    };
    let mut b = NetlistBuilder::new("mutant");
    let mut wires: Vec<Wire> = vec![b.const0()];
    for name in nl.input_names() {
        wires.push(b.input(name.clone()));
    }
    let wire = |wires: &[Wire], w: Wire| {
        let x = wires[w.node()];
        if w.is_complemented() {
            x.complement()
        } else {
            x
        }
    };
    for (k, (_, gate)) in nl.gates().enumerate() {
        let mut f: Vec<Wire> = gate.fanins.iter().map(|&w| wire(&wires, w)).collect();
        let mut kind = gate.kind;
        if k == target {
            if rng.next_bool() {
                kind = match kind {
                    GateKind::And => GateKind::Or,
                    GateKind::Or => GateKind::Xor,
                    GateKind::Xor => GateKind::And,
                    GateKind::Maj => GateKind::Mux,
                    GateKind::Mux => GateKind::Maj,
                };
            } else {
                let i = rng.next_index(f.len());
                f[i] = f[i].complement();
            }
        }
        wires.push(match kind {
            GateKind::And => b.and(f[0], f[1]),
            GateKind::Or => b.or(f[0], f[1]),
            GateKind::Xor => b.xor(f[0], f[1]),
            GateKind::Maj => b.maj(f[0], f[1], f[2]),
            GateKind::Mux => b.mux(f[0], f[1], f[2]),
        });
    }
    for (o, (name, w)) in nl.outputs().iter().enumerate() {
        let mut out = wire(&wires, *w);
        if o == 0 && matches!(mutation, Mutation::RareFlip) {
            let mut cube = b.const1();
            for i in 1..nl.num_inputs() {
                let x = if rng.next_bool() {
                    wires[1 + i]
                } else {
                    wires[1 + i].complement()
                };
                cube = b.and(cube, x);
            }
            out = b.xor(out, cube);
        }
        b.output(name.clone(), out);
    }
    b.build()
}

#[test]
fn sweeping_program_miter_matches_exhaustive_simulation_on_mutants() {
    // 16–20 inputs: past the exhaustive verification cutoff, but still
    // cheap to tabulate here as the oracle. No spot-check in front: the
    // miter alone must catch every mutant that changes the function,
    // however few inputs it changes.
    let mut rng = SplitMix64::new(18);
    let (mut differ, mut same) = (0, 0);
    for case in 0..40u64 {
        let n = 16 + (case % 5) as usize;
        let nl = random_netlist("sweep_mutant", case, n, 3, 60);
        // A quarter compile a rarely-flipped copy, the rest mutate one
        // op of the program, and one in eight stays intact.
        let mig = if case % 4 == 1 {
            Mig::from_netlist(&mutant(&nl, &mut rng, Mutation::RareFlip))
        } else {
            Mig::from_netlist(&nl)
        };
        let mut program = if case % 2 == 0 {
            compile(&mig, Realization::Maj).program
        } else {
            rram_mig::rram::plim::compile_plim(&mig).program
        };
        if case % 4 != 1 && case % 8 != 0 {
            mutate_op(&mut program, &mut rng);
        }
        let equal = Machine::truth_tables(&program).unwrap() == nl.truth_tables();
        match check_netlist_vs_program(&nl, &program).unwrap() {
            MiterOutcome::Equivalent { .. } => {
                assert!(equal, "case {case}: proved a mutant that differs");
                same += 1;
            }
            MiterOutcome::Counterexample { inputs } => {
                assert!(!equal, "case {case}: refuted an equivalent program");
                assert_eq!(inputs.len(), n);
                assert_ne!(
                    nl.evaluate(minterm_of(&inputs)),
                    Machine::run_bools(&program, &inputs).unwrap(),
                    "case {case}: counterexample {inputs:?} does not distinguish"
                );
                differ += 1;
            }
        }
    }
    assert!(differ > 0 && same > 0, "{differ} differ, {same} same");
}

#[test]
fn sweeping_netlist_miter_matches_truth_tables() {
    // Random pairs up to 14 inputs: optimized results (equal), rarely
    // flipped copies (different) and single-gate mutants (equal or
    // not), against the truth tables.
    let mut rng = SplitMix64::new(14);
    let opts = OptOptions::with_effort(4);
    let (mut differ, mut same) = (0, 0);
    for case in 0..60u64 {
        let n = 6 + (case % 9) as usize;
        let nl = random_netlist("sweep_pair", case, n, 1 + (case % 3) as usize, 50);
        let other = match case % 3 {
            0 => {
                let mig = Mig::from_netlist(&nl);
                rram_mig::flow::run_algorithm(&mig, Algorithm::Cut, Realization::Maj, &opts)
                    .0
                    .to_netlist()
            }
            1 => mutant(&nl, &mut rng, Mutation::RareFlip),
            _ => mutant(&nl, &mut rng, Mutation::Gate),
        };
        let equal = nl.truth_tables() == other.truth_tables();
        match rram_mig::sat::check_netlists(&nl, &other).unwrap() {
            MiterOutcome::Equivalent { .. } => {
                assert!(equal, "case {case}: proved circuits that differ");
                same += 1;
            }
            MiterOutcome::Counterexample { inputs } => {
                assert!(!equal, "case {case}: refuted equal circuits");
                let m = minterm_of(&inputs);
                assert_ne!(nl.evaluate(m), other.evaluate(m), "case {case}");
                differ += 1;
            }
        }
    }
    assert!(differ > 0 && same > 0, "{differ} differ, {same} same");
}

/// `bits × bits` array multiplier: rows of partial products folded in
/// with ripple-carry adders.
fn array_multiplier(bits: usize) -> Netlist {
    let mut b = NetlistBuilder::new("mul");
    let x: Vec<Wire> = (0..bits).map(|i| b.input(format!("a{i}"))).collect();
    let y: Vec<Wire> = (0..bits).map(|i| b.input(format!("b{i}"))).collect();
    let mut acc: Vec<Wire> = (0..bits).map(|j| b.and(x[0], y[j])).collect();
    for (i, &xi) in x.iter().enumerate().skip(1) {
        let mut carry = b.const0();
        for (j, &yj) in y.iter().enumerate() {
            let pp = b.and(xi, yj);
            let k = i + j;
            let sum_in = acc.get(k).copied().unwrap_or_else(|| b.const0());
            let t = b.xor(sum_in, pp);
            let s = b.xor(t, carry);
            carry = b.maj(sum_in, pp, carry);
            if k < acc.len() {
                acc[k] = s;
            } else {
                acc.push(s);
            }
        }
        acc.push(carry);
    }
    for (k, &p) in acc.iter().enumerate() {
        b.output(format!("p{k}"), p);
    }
    b.build()
}

/// A 6×6 multiplier and the array program of its cut-optimized MIG.
fn multiplier_case() -> (Netlist, Program) {
    let nl = array_multiplier(6);
    let mig = Mig::from_netlist(&nl);
    let opts = OptOptions::with_effort(2);
    let (opt, _) = rram_mig::flow::run_algorithm(&mig, Algorithm::Cut, Realization::Maj, &opts);
    (nl, compile(&opt, Realization::Maj).program)
}

#[test]
fn sweeping_miter_is_deterministic_counts_included() {
    let (nl, program) = multiplier_case();
    let first = check_netlist_vs_program(&nl, &program).unwrap();
    assert!(first.is_equivalent(), "{first:?}");
    assert_eq!(check_netlist_vs_program(&nl, &program).unwrap(), first);
    for seed in 0..4u64 {
        let nl = random_netlist("sweep_det", seed, 18, 3, 80);
        let program = compile(&Mig::from_netlist(&nl), Realization::Maj).program;
        let once = check_netlist_vs_program(&nl, &program).unwrap();
        assert_eq!(check_netlist_vs_program(&nl, &program).unwrap(), once);
    }
}

#[test]
fn sweeping_miter_budget_bounds_the_whole_proof() {
    let (nl, program) = multiplier_case();
    let full = check_netlist_vs_program(&nl, &program).unwrap();
    let MiterOutcome::Equivalent {
        conflicts: total, ..
    } = full
    else {
        panic!("multiplier must prove: {full:?}");
    };
    assert!(total >= 40, "too easy to exercise the budget: {total}");
    // Any budget below the total runs out — most of them during the
    // sweep, whose pair proofs spend the bulk of the conflicts; any
    // budget at or above it reproduces the unbudgeted proof exactly.
    for b in [0, 1, 7, total / 4, total / 2, total - 1] {
        assert_eq!(
            check_netlist_vs_program_limited(&nl, &program, Some(b)).unwrap(),
            None,
            "budget {b} of {total}"
        );
    }
    for b in [total, total + 1, 10 * total] {
        assert_eq!(
            check_netlist_vs_program_limited(&nl, &program, Some(b)).unwrap(),
            Some(full.clone()),
            "budget {b} of {total}"
        );
    }
}

#[test]
fn sweeping_miter_stops_on_a_cancelled_token() {
    let (nl, program) = multiplier_case();
    let token = rram_mig::mig::CancelToken::new();
    token.cancel();
    assert_eq!(
        check_netlist_vs_program_cancellable(&nl, &program, None, &token).unwrap(),
        None
    );
    assert!(token.cancelled());
}
