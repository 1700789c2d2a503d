//! End-to-end tests of the `rms-flow` pipeline: a user-supplied (i.e. not
//! embedded) BLIF circuit must round-trip through parse → optimize → PLiM
//! compile → simulate, with the machine-level result matching
//! `rms-logic::sim` on random input vectors — and the evaluation table
//! behind `rms bench` must hold the same runs for every worker count.

use rms_bench::reports::{self, Evaluation, Section};
use rram_mig::flow::{InputFormat, Pipeline, VerifyMode, VerifyOutcome};
use rram_mig::logic::bench_suite;
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

/// Requires `a` and `b` to hold the same circuits, each with the same
/// runs: graphs node for node and counters. Times may differ.
fn assert_same_runs(a: &Evaluation, b: &Evaluation, what: &str) {
    let (a, b) = (a.table.rows(), b.table.rows());
    assert_eq!(a.len(), b.len(), "{what}: circuits");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.name, y.name, "{what}");
        assert_eq!(x.runs().count(), y.runs().count(), "{what}: {}", x.name);
        for (p, q) in x.runs().zip(y.runs()) {
            assert!(p.same_result(q), "{what}: {}", x.name);
        }
    }
}

/// `text` without its timing lines, which differ from run to run.
fn untimed(text: &str) -> String {
    let timed = |line: &str| line.contains("run-time") || line.contains("< 3 s");
    text.lines()
        .filter(|line| !timed(line))
        .map(|line| format!("{line}\n"))
        .collect()
}

#[test]
fn parallel_table2_sweep_matches_sequential() {
    // Acceptance criterion: the parallel Table II evaluation holds the
    // same runs as the sequential one.
    // One parallel worker count suffices: any jobs >= 2 exercises the
    // partition/merge path, and the row order is asserted identical.
    // Effort 2 is enough: this asserts determinism, not quality.
    let opts = OptOptions::with_effort(2);
    let seq = Evaluation::run(&[Section::Table2], &opts, 1);
    let par = Evaluation::run(&[Section::Table2], &opts, 2);
    assert_same_runs(&seq, &par, "jobs=2");
}

#[test]
fn parallel_table3_bdd_sweep_matches_sequential() {
    let opts = OptOptions::with_effort(2);
    let seq = Evaluation::run(&[Section::Table3], &opts, 1);
    let par = Evaluation::run(&[Section::Table3], &opts, 0);
    assert_same_runs(&seq, &par, "jobs=0");
    assert_eq!(seq.bdd, par.bdd);
    assert_eq!(seq.aig, par.aig);
}

#[test]
fn one_table_serves_the_paper_sections() {
    // Table II, Table III, the summary and the run-time section read one
    // table: six runs per Table II circuit (Area, Depth, and Alg. 3 and
    // Alg. 4 under each realization) and Alg. 3's two per small-suite
    // circuit. The four sections' configurations, counted one section at
    // a time, are 21 and 4.
    let sections = [
        Section::Table2,
        Section::Table3,
        Section::Summary,
        Section::Runtime,
    ];
    let ev = Evaluation::run(&sections, &OptOptions::with_effort(1), 0);
    let suites = [(bench_suite::LARGE_SUITE, 6), (bench_suite::SMALL_SUITE, 2)];
    for (suite, runs) in suites {
        for (info, row) in ev.table.suite(suite) {
            assert_eq!(row.runs().count(), runs, "{}", info.name);
        }
    }
    let circuits = bench_suite::LARGE_SUITE.len() + bench_suite::SMALL_SUITE.len();
    assert_eq!(ev.table.rows().len(), circuits);
}

#[test]
fn multi_section_bench_is_the_single_sections_concatenated() {
    let sections = [
        Section::Table2,
        Section::Table3,
        Section::Summary,
        Section::Runtime,
        Section::Algs,
        Section::Sweep,
        Section::Figures,
    ];
    let opts = OptOptions::with_effort(1);
    let (multi, passed) = reports::bench(&sections, &opts, 0);
    assert!(passed);
    let singles: Vec<String> = sections
        .iter()
        .map(|&section| reports::bench(&[section], &opts, 0).0)
        .collect();
    assert_eq!(untimed(&multi), untimed(&singles.join("\n")));
}

#[test]
fn cut_rewriting_beats_area_and_never_worsens_rram_costs() {
    // Acceptance criteria of the cut engine: machine-verified like
    // Algs. 1-4, gate count <= Alg. 1 on at least half of the embedded
    // small suite, and the hybrid never increases the best known R*S.
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
    let seq = Evaluation::run(&[Section::Algs], &opts, 1);
    let par = Evaluation::run(&[Section::Algs], &opts, 2);
    assert_same_runs(&seq, &par, "jobs = 2");
    // The report's verification labels are checked on the workers too.
    assert_eq!(
        untimed(&reports::algs_report(&seq)),
        untimed(&reports::algs_report(&par)),
        "jobs = 2"
    );
}

#[test]
fn modes_that_ignore_the_realization_return_one_graph() {
    // The evaluation table runs these modes once and costs the result
    // under both realizations.
    let opts = OptOptions::with_effort(2);
    let mig = rram_mig::mig::Mig::from_netlist(&bench_suite::build("rd53_f2").unwrap());
    for alg in Algorithm::ALL_MODES {
        if alg.reads_realization() {
            continue;
        }
        let (imp, _) = rram_mig::flow::run_algorithm(&mig, alg, Realization::Imp, &opts);
        let (maj, _) = rram_mig::flow::run_algorithm(&mig, alg, Realization::Maj, &opts);
        assert_eq!(imp.len(), maj.len(), "{alg}");
        assert!((0..imp.len()).all(|i| imp.node(i) == maj.node(i)), "{alg}");
        assert_eq!(imp.outputs(), maj.outputs(), "{alg}");
    }
}
