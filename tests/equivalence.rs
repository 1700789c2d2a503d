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
use rram_mig::flow::{check_netlists, Pipeline, VerifyMode, VerifyOutcome};
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
                let opt = alg.run(&mig, real, &opts);
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
                let opt = alg.run(&mig, real, &opts);
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
        let opt = Algorithm::Steps.run(&mig, Realization::Maj, &opts);
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

/// The eight optimization algorithms of the differential sweep: the
/// paper's Algs. 1–4, the cut-rewriting engine, and the three SAT-backed
/// sweep modes (fraig, resub, and their combination).
const DIFF_ALGORITHMS: [Algorithm; 8] = [
    Algorithm::Area,
    Algorithm::Depth,
    Algorithm::RramCosts,
    Algorithm::Steps,
    Algorithm::Cut,
    Algorithm::Sweep,
    Algorithm::Resub,
    Algorithm::SweepResub,
];

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
    let mut gates = Vec::with_capacity(DIFF_ALGORITHMS.len());
    let mut proofs = Vec::with_capacity(DIFF_ALGORITHMS.len());
    let mut optimized = Vec::with_capacity(DIFF_ALGORITHMS.len());
    for alg in DIFF_ALGORITHMS {
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
        DIFF_ALGORITHMS[i],
        DIFF_ALGORITHMS[j]
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
fn differential_eight_algorithms_sat_proved_on_50_random_netlists() {
    let seeds: Vec<u64> = (0..50).collect();
    // Sequential reference, then the thread pool — the sweep must be
    // bit-identical under `--jobs` parallelism.
    let sequential = par_map_threads(&seeds, 1, |&seed| diff_row(seed));
    let parallel = par_map_threads(&seeds, 4, |&seed| diff_row(seed));
    assert_eq!(sequential, parallel, "parallel sweep must be bit-identical");
    for row in &sequential {
        assert_eq!(row.gates.len(), DIFF_ALGORITHMS.len());
        assert_eq!(row.proofs.len(), DIFF_ALGORITHMS.len());
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
