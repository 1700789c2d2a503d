//! Differential and determinism tests of the in-place rewrite engine,
//! and the pins of its quality.
//!
//! The rebuild round ([`rms_cut::rewrite_round`]) is the reference
//! oracle: on every embedded benchmark one windowed in-place round must
//! reach the same gate count and depth. The windowed round must also be
//! bit-identical across `--jobs` worker counts and across repeated runs,
//! on graphs of one window and of many.
//!
//! Exact quality figures are pinned in one generated file,
//! `tests/quality_ledger.txt` (see `tests/quality/mod.rs`): gates,
//! depth, R and S of every mode on the small suite and Table II, the
//! fraig and resubstitution counters of apex4 and t481, and the cut
//! results of the generated large suite. The tests at the end of this
//! file check its small-suite rows of the paper's four algorithms, of cut
//! and of cut-rram, and its fraig and resub sections; `tests/ledger.rs`
//! checks the rest.

mod quality;

use rms_core::cost::Realization;
use rms_core::opt::{Algorithm, OptOptions};
use rms_core::{CancelToken, IncrementalMig, Mig};
use rms_cut::{database, rewrite_round, round_windowed, WINDOW_NODES};
use rms_flow::{run_algorithm, VerifyMode};
use rms_logic::bench_suite;
use rms_logic::random::random_netlist;

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
        let (a, sa) = run_algorithm(&mig, Algorithm::Cut, Realization::Maj, &opts);
        let (b, sb) = run_algorithm(&mig, Algorithm::Cut, Realization::Maj, &opts);
        assert_bit_identical(&a, &b, &format!("seed {seed}"));
        assert!(sa.peak_nodes > 0, "seed {seed}: peak nodes untracked");
        assert_eq!(sa, sb, "seed {seed}: stats diverged");
    }
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
    // random control DAG, jobs 1 vs 4, plus a full SAT proof of the
    // optimized graph against its source netlist. The sweeping miter
    // proves it in about 2 s (release) by merging the thousands of
    // internal equivalences the local rewrites leave behind.
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
        VerifyMode::Sat,
        rms_flow::DEFAULT_VERIFY_SEED,
    ) {
        Ok(outcome) => assert!(outcome.is_proof() && outcome.passed(), "{outcome:?}"),
        Err(e) => panic!("miter construction failed: {e}"),
    }
}

#[test]
#[ignore = "release: the cut script at effort 40 on Table II"]
fn cut_script_peak_nodes_stay_near_the_source_size_on_table2() {
    // Every mapped round drops its dead slots, so the persistent graph
    // holds the live nodes plus one round's appended and tentative ones.
    // Measured peak: at most 1.83x the source's node count (apex1; apex4
    // 1.78x, seq 1.70x), so 2.5x leaves 37 % margin. A graph that keeps
    // its dead slots peaks at up to 17x (apex4) and exceeds 2.5x on 23 of
    // the 25 circuits.
    const PEAK_BOUND: f64 = 2.5;
    let mut opts = OptOptions::with_effort(40);
    opts.jobs = 1;
    for info in bench_suite::LARGE_SUITE {
        let mig = Mig::from_netlist(&bench_suite::build_info(info));
        let source = mig.compact().len();
        let (_, stats) = run_algorithm(&mig, Algorithm::Cut, Realization::Maj, &opts);
        assert!(
            stats.peak_nodes as f64 <= PEAK_BOUND * source as f64,
            "{}: peak {} nodes for a source of {source}",
            info.name,
            stats.peak_nodes
        );
    }
}

#[test]
fn paper_algorithms_are_pinned_on_the_small_suite() {
    quality::assert_current(&[], &Algorithm::ALL);
}

#[test]
fn cut_gates_are_pinned_on_the_small_suite() {
    quality::assert_current(&[], &[Algorithm::Cut]);
}

#[test]
fn cut_rram_costs_are_pinned_on_the_small_suite() {
    quality::assert_current(&[], &[Algorithm::CutRram]);
}

#[test]
fn resub_counts_are_pinned_on_apex4_and_t481() {
    // The resubstitution filter decides which candidates reach SAT, so
    // any drift in it changes these counts before it changes gates.
    quality::assert_current(&["resub"], &[]);
}

#[test]
fn fraig_counts_are_pinned_on_apex4_and_t481() {
    // The counterexample lanes decide how the candidate classes split,
    // so any drift in them changes these counts before it changes
    // gates. Both SAT-pass pins start from one cut run per circuit.
    quality::assert_current(&["fraig"], &[]);
}
