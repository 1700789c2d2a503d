//! Differential and determinism tests of the in-place rewrite engine.
//!
//! The rebuild round ([`rms_cut::rewrite_round`]) is the reference
//! oracle: on every embedded benchmark one windowed in-place round must
//! reach the same gate count and depth. The windowed round must also be
//! bit-identical across `--jobs` worker counts and across repeated runs,
//! on graphs of one window and of many.
//!
//! Two pin tests fix the exact `Algorithm::Cut` gate count of every
//! bundled circuit, so a quality change fails here instead of drifting:
//! the small suite at effort 40 in every run, the generated large suite
//! at effort 2 under `--include-ignored` (run it in release:
//! `cargo test --release --test incremental -- --include-ignored`).

use rms_core::cost::Realization;
use rms_core::opt::{Algorithm, OptOptions};
use rms_core::{CancelToken, IncrementalMig, Mig};
use rms_cut::{database, rewrite_round, round_windowed, WINDOW_NODES};
use rms_flow::{run_algorithm, run_algorithm_engine, Engine};
use rms_logic::random::random_netlist;
use rms_logic::{bench_suite, large_suite};

/// Node-for-node structural equality (indices, children, complement
/// attributes, outputs, levels).
fn assert_bit_identical(a: &Mig, b: &Mig, what: &str) {
    assert_eq!(a.num_gates(), b.num_gates(), "{what}: gate counts");
    assert_eq!(a.depth(), b.depth(), "{what}: depths");
    assert_eq!(a.len(), b.len(), "{what}: node counts");
    for i in 0..a.len() {
        assert_eq!(a.node(i), b.node(i), "{what}: node {i}");
        assert_eq!(a.level(i), b.level(i), "{what}: level of node {i}");
    }
    assert_eq!(a.outputs(), b.outputs(), "{what}: outputs");
}

#[test]
fn windowed_round_matches_the_rebuild_oracle() {
    // Every embedded circuit fits in one window, where the windowed
    // round sees every cut the rebuild round sees and makes the same
    // decisions: 50 circuits x both zero-gain settings.
    let db = database();
    for info in bench_suite::LARGE_SUITE
        .iter()
        .chain(bench_suite::SMALL_SUITE)
    {
        let m = Mig::from_netlist(&bench_suite::build_info(info)).compact();
        assert!(
            m.num_gates() <= WINDOW_NODES,
            "{}: not one window",
            info.name
        );
        for zero_gain in [false, true] {
            let what = format!("{} / zero-gain {zero_gain}", info.name);
            let (oracle, _) = rewrite_round(&m, zero_gain);
            let mut g = IncrementalMig::from_mig(&m);
            let st = round_windowed(&mut g, db, zero_gain, 1, &CancelToken::default());
            assert_eq!(st.sig_vetoes, 0, "{what}: database produced a veto");
            assert_eq!(g.num_gates(), oracle.num_gates(), "{what}: gate counts");
            assert_eq!(g.depth(), oracle.depth(), "{what}: depths");
        }
    }
}

#[test]
fn incremental_engine_is_deterministic_across_runs() {
    let opts = OptOptions::with_effort(6);
    for seed in [3u64, 7] {
        let nl = random_netlist("inc_det", seed, 7, 3, 40);
        let mig = Mig::from_netlist(&nl);
        let (a, sa) = run_algorithm_engine(
            &mig,
            Algorithm::Cut,
            Realization::Maj,
            &opts,
            Engine::Incremental,
        );
        let (b, sb) = run_algorithm_engine(
            &mig,
            Algorithm::Cut,
            Realization::Maj,
            &opts,
            Engine::Incremental,
        );
        assert_bit_identical(&a, &b, &format!("seed {seed}"));
        assert!(sa.peak_nodes > 0, "seed {seed}: peak nodes untracked");
        assert_eq!(sa, sb, "seed {seed}: stats diverged");
    }
}

#[test]
fn rebuild_engine_stays_available_as_baseline() {
    // The rebuild round remains selectable (it is the reference oracle
    // of the differential tests above) and functionally correct.
    let opts = OptOptions::with_effort(4);
    let nl = random_netlist("inc_base", 11, 6, 2, 24);
    let mig = Mig::from_netlist(&nl);
    let (out, _) = run_algorithm_engine(
        &mig,
        Algorithm::Cut,
        Realization::Maj,
        &opts,
        Engine::Rebuild,
    );
    assert_eq!(out.truth_tables(), nl.truth_tables());
    assert!(out.num_gates() <= mig.compact().num_gates());
}

/// Runs the cut script at a given worker count.
fn run_windowed(mig: &Mig, effort: usize, jobs: usize) -> Mig {
    let mut opts = OptOptions::with_effort(effort);
    opts.jobs = jobs;
    run_algorithm(mig, Algorithm::Cut, Realization::Maj, &opts).0
}

#[test]
fn windowed_round_is_bit_identical_across_worker_counts() {
    // The tentpole determinism contract: the partition-parallel round
    // must produce the same final netlist — nodes, levels, fingerprint —
    // for every --jobs value. 50 seeded random netlists, workers 1/2/8.
    for seed in 0..50u64 {
        let nl = random_netlist("win_prop", seed, 8, 3, 120);
        let mig = Mig::from_netlist(&nl);
        let reference = nl.truth_tables();
        let j1 = run_windowed(&mig, 4, 1);
        let j2 = run_windowed(&mig, 4, 2);
        let j8 = run_windowed(&mig, 4, 8);
        assert_bit_identical(&j1, &j2, &format!("seed {seed}: jobs 1 vs 2"));
        assert_bit_identical(&j1, &j8, &format!("seed {seed}: jobs 1 vs 8"));
        assert_eq!(j1.truth_tables(), reference, "seed {seed}: function");
    }
}

#[test]
fn windowed_round_is_deterministic_across_multiple_windows() {
    // Above WINDOW_NODES (4096) gates the partition is no longer a
    // single window, so this is the case where worker scheduling could
    // actually interleave window evaluations — the commit order must
    // still make the result worker-count-independent. One generated
    // random control DAG, jobs 1 vs 4, plus a SAT-miter equivalence
    // spot-check of the optimized graph against its source netlist.
    // 16 inputs keeps the miter bounded-tractable (array multipliers
    // like xl_mul32 are SAT-hostile and blow the conflict budget).
    let nl = random_netlist("win_large", 3, 16, 8, 9000);
    let mig = Mig::from_netlist(&nl);
    assert!(
        mig.compact().num_gates() > rms_cut::WINDOW_NODES,
        "circuit no longer spans multiple windows: {} gates",
        mig.compact().num_gates()
    );
    let j1 = run_windowed(&mig, 1, 1);
    let j4 = run_windowed(&mig, 1, 4);
    assert_bit_identical(&j1, &j4, "win_large: jobs 1 vs 4");
    match rms_flow::check_netlists(
        &nl,
        &j1.to_netlist(),
        rms_flow::VerifyMode::Sat,
        rms_flow::DEFAULT_VERIFY_SEED,
    ) {
        Ok(outcome) => assert!(outcome.is_proof() && outcome.passed(), "{outcome:?}"),
        Err(e) => panic!("miter construction failed: {e}"),
    }
}

/// `Algorithm::Cut` gate counts of the small (Table III) suite at
/// effort 40, in suite order.
const SMALL_SUITE_CUT_GATES: [(&str, usize); 25] = [
    ("9sym_d", 58),
    ("con1_f1", 4),
    ("con2_f2", 32),
    ("exam1_d", 1),
    ("exam3_d", 5),
    ("max46_d", 59),
    ("newill_d", 9),
    ("newtag_d", 12),
    ("rd53_f1", 6),
    ("rd53_f2", 7),
    ("rd53_f3", 5),
    ("rd73_f1", 9),
    ("rd73_f2", 16),
    ("rd73_f3", 21),
    ("rd84_f1", 12),
    ("rd84_f2", 25),
    ("rd84_f3", 37),
    ("rd84_f4", 39),
    ("sao2_f1", 5),
    ("sao2_f2", 15),
    ("sao2_f3", 11),
    ("sao2_f4", 5),
    ("sym10_d", 70),
    ("t481_d", 106),
    ("xor5_d", 6),
];

/// `Algorithm::Cut` gate counts of the generated large suite at effort
/// 2, in suite order.
const LARGE_SUITE_CUT_GATES: [(&str, usize); 6] = [
    ("xl_mul32", 4000),
    ("xl_add2048", 6144),
    ("xl_ctrl10k", 8565),
    ("xl_mul64", 16197),
    ("xl_ctrl50k", 56332),
    ("xl_mul128", 65171),
];

#[test]
fn cut_gates_are_pinned_on_the_small_suite() {
    let names: Vec<&str> = bench_suite::SMALL_SUITE.iter().map(|i| i.name).collect();
    let pinned: Vec<&str> = SMALL_SUITE_CUT_GATES.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, pinned, "pin table out of step with the small suite");
    for (name, gates) in SMALL_SUITE_CUT_GATES {
        let nl = bench_suite::build(name).unwrap();
        let out = run_windowed(&Mig::from_netlist(&nl), 40, 1);
        assert_eq!(out.num_gates(), gates, "{name}: cut gate count");
        assert_eq!(out.truth_tables(), nl.truth_tables(), "{name}: function");
    }
}

#[test]
#[ignore = "about 22 s unoptimized; run in release with --include-ignored"]
fn cut_gates_are_pinned_on_the_large_suite() {
    let names: Vec<&str> = large_suite::SUITE.iter().map(|i| i.name).collect();
    let pinned: Vec<&str> = LARGE_SUITE_CUT_GATES.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, pinned, "pin table out of step with the large suite");
    for (name, gates) in LARGE_SUITE_CUT_GATES {
        let nl = large_suite::build(name).unwrap();
        let mig = Mig::from_netlist(&nl);
        let j1 = run_windowed(&mig, 2, 1);
        let j4 = run_windowed(&mig, 2, 4);
        assert_eq!(j1.num_gates(), gates, "{name}: cut gate count");
        assert_bit_identical(&j1, &j4, &format!("{name}: jobs 1 vs 4"));
        let outcome = rms_flow::check_netlists(
            &nl,
            &j1.to_netlist(),
            rms_flow::VerifyMode::Sampled,
            rms_flow::DEFAULT_VERIFY_SEED,
        )
        .unwrap_or_else(|e| panic!("{name}: verification error: {e}"));
        assert!(outcome.passed(), "{name}: {outcome:?}");
    }
}
