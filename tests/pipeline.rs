//! End-to-end tests of the `rms-flow` pipeline: a user-supplied (i.e. not
//! embedded) BLIF circuit must round-trip through parse → optimize → PLiM
//! compile → simulate, with the machine-level result matching
//! `rms-logic::sim` on random input vectors — and the parallel sweep
//! runners must reproduce the sequential runners bit for bit.

use rms_bench::runner;
use rram_mig::flow::{InputFormat, Pipeline, VerifyMode, VerifyOutcome};
use rram_mig::logic::sim::random_patterns;
use rram_mig::mig::cost::{Realization, RramCost};
use rram_mig::mig::opt::{Algorithm, OptOptions};
use rram_mig::rram::machine::Machine;

/// A 9-input circuit that is not part of the embedded suites: a 3x3-bit
/// "population comparator" mixing carries, parities, and majorities.
const CUSTOM_BLIF: &str = "\
.model popcmp
.inputs a2 a1 a0 b2 b1 b0 c2 c1 c0
.outputs ge par maj
.names a2 a1 a0 s_a
11- 1
1-1 1
-11 1
.names b2 b1 b0 s_b
11- 1
1-1 1
-11 1
.names c2 c1 c0 s_c
11- 1
1-1 1
-11 1
.names s_a s_b s_c ge
11- 1
1-1 1
-11 1
.names a0 b0 c0 x0
100 1
010 1
001 1
111 1
.names a1 b1 c1 x1
100 1
010 1
001 1
111 1
.names x0 x1 par
10 1
01 1
.names a2 b2 c2 maj
11- 1
1-1 1
-11 1
.end
";

#[test]
fn blif_round_trips_through_the_whole_pipeline() {
    for (alg, real) in [
        (Algorithm::RramCosts, Realization::Imp),
        (Algorithm::RramCosts, Realization::Maj),
        (Algorithm::Steps, Realization::Maj),
        (Algorithm::Area, Realization::Imp),
    ] {
        let out = Pipeline::from_str(InputFormat::Blif, CUSTOM_BLIF, "popcmp")
            .unwrap()
            .algorithm(alg)
            .realization(real)
            .effort(8)
            .run()
            .unwrap();
        // The pipeline's own verification is exhaustive for 9 inputs and
        // covers both the array and the PLiM program.
        assert_eq!(out.report.verify, VerifyOutcome::Exhaustive, "{alg}/{real}");
        // Report invariants: the cost model matches the compiled program
        // and the optimized MIG.
        assert_eq!(
            out.report.cost,
            RramCost::of(&out.mig, real),
            "{alg}/{real}"
        );
        assert_eq!(
            out.report.array_steps, out.report.cost.steps,
            "{alg}/{real}"
        );
        assert_eq!(out.report.plim_instructions, out.plim.program.num_steps());
        // The optimized MIG still computes the parsed netlist's function.
        assert_eq!(out.mig.truth_tables(), out.netlist.truth_tables());
    }
}

#[test]
fn machine_matches_logic_sim_on_random_vectors() {
    let out = Pipeline::from_str(InputFormat::Blif, CUSTOM_BLIF, "popcmp")
        .unwrap()
        .algorithm(Algorithm::RramCosts)
        .realization(Realization::Maj)
        .effort(10)
        .verify_mode(VerifyMode::Off) // this test *is* the verification
        .run()
        .unwrap();
    let mut machine = Machine::new();
    for pattern in random_patterns(out.netlist.num_inputs(), 64, 0xD1CE) {
        let reference = out.netlist.simulate_words(&pattern);
        let array = machine
            .run_words(&out.array.program, &pattern)
            .expect("valid array program");
        assert_eq!(array, reference, "array program vs rms-logic sim");
        let plim = machine
            .run_words(&out.plim.program, &pattern)
            .expect("valid plim program");
        assert_eq!(plim, reference, "plim program vs rms-logic sim");
    }
}

#[test]
fn expression_and_truth_table_inputs_agree() {
    // The same function through two different front doors must yield
    // functionally identical pipelines.
    let via_expr = Pipeline::from_str(InputFormat::Expr, "f = maj(x0, x1, x2)", "m")
        .unwrap()
        .effort(2)
        .run()
        .unwrap();
    let via_tt = Pipeline::from_str(InputFormat::TruthTable, "f = 0xe8", "m")
        .unwrap()
        .effort(2)
        .run()
        .unwrap();
    assert_eq!(via_expr.mig.truth_tables(), via_tt.mig.truth_tables());
}

#[test]
fn parallel_table2_sweep_matches_sequential() {
    // Acceptance criterion: the parallel Table II sweep produces the same
    // (R, S) values as the sequential runner.
    // One parallel worker count suffices: any jobs >= 2 exercises the
    // partition/merge path, and the row order is asserted identical.
    // (Re-running at several counts tripled an already slow sweep.)
    // Effort 2 is enough: this asserts determinism, not quality.
    let opts = OptOptions::with_effort(2);
    let seq = runner::run_table2(&opts, 1);
    let jobs = 2;
    let par = runner::run_table2(&opts, jobs);
    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.info.name, b.info.name, "jobs={jobs}");
        assert_eq!(a.columns(), b.columns(), "{}: jobs={jobs}", a.info.name);
    }
}

#[test]
fn parallel_table3_bdd_sweep_matches_sequential() {
    let opts = OptOptions::with_effort(2);
    let synth = rram_mig::bdd::BddSynthOptions::default();
    let seq = runner::run_table3_bdd(&opts, &synth, 1);
    let par = runner::run_table3_bdd(&opts, &synth, 0);
    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.info.name, b.info.name);
        assert_eq!(a.bdd, b.bdd);
        assert_eq!(a.mig_imp, b.mig_imp);
        assert_eq!(a.mig_maj, b.mig_maj);
        assert_eq!(a.bdd_nodes, b.bdd_nodes);
    }
}

#[test]
fn cut_rewriting_beats_area_and_never_worsens_rram_costs() {
    // Acceptance criteria of the cut engine: machine-verified like
    // Algs. 1-4, gate count <= Alg. 1 on at least half of the embedded
    // small suite, and the hybrid never increases the best known R*S.
    use rram_mig::logic::bench_suite;
    use rram_mig::mig::Mig;

    // Effort 6 keeps the claims intact (they are structural, not
    // effort-dependent) at roughly half the debug-mode wall time.
    let opts = OptOptions::with_effort(6);
    let mut wins = 0usize;
    let total = bench_suite::SMALL_SUITE.len();
    for info in bench_suite::SMALL_SUITE {
        let mig = Mig::from_netlist(&bench_suite::build_info(info));
        let (cut, _) = rram_mig::flow::run_algorithm(&mig, Algorithm::Cut, Realization::Maj, &opts);
        let (area, _) =
            rram_mig::flow::run_algorithm(&mig, Algorithm::Area, Realization::Maj, &opts);
        if cut.num_gates() <= area.num_gates() {
            wins += 1;
        }
        for real in Realization::ALL {
            let (hybrid, _) = rram_mig::flow::run_algorithm(&mig, Algorithm::CutRram, real, &opts);
            let (rram, _) = rram_mig::flow::run_algorithm(&mig, Algorithm::RramCosts, real, &opts);
            let ch = RramCost::of(&hybrid, real);
            let cr = RramCost::of(&rram, real);
            assert!(
                ch.rrams * ch.steps <= cr.rrams * cr.steps,
                "{}/{real}: hybrid {ch} vs rram {cr}",
                info.name
            );
        }
    }
    assert!(wins * 2 >= total, "cut beat area on only {wins}/{total}");
}

#[test]
fn cut_pipeline_is_machine_verified() {
    // The full pipeline (compile + machine-level verification) runs the
    // cut algorithms exactly like Algs. 1-4.
    for alg in [Algorithm::Cut, Algorithm::CutRram] {
        let out = Pipeline::from_str(InputFormat::Blif, CUSTOM_BLIF, "popcmp")
            .unwrap()
            .algorithm(alg)
            .effort(6)
            .run()
            .unwrap();
        assert_eq!(out.report.verify, VerifyOutcome::Exhaustive, "{alg}");
        assert!(out.report.opt.passes > 0);
    }
}

#[test]
fn parallel_algs_sweep_matches_sequential_at_integration_level() {
    let opts = OptOptions::with_effort(2);
    let seq = runner::run_algs(&opts, 1);
    let par = runner::run_algs(&opts, 2);
    assert_eq!(seq, par, "jobs = 2");
}
