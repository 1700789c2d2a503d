//! Differential and determinism tests of the in-place rewrite engine.
//!
//! The rebuild round ([`rms_cut::rewrite_round`]) is the reference
//! oracle: on every embedded benchmark one windowed in-place round must
//! reach the same gate count and depth. The windowed round must also be
//! bit-identical across `--jobs` worker counts and across repeated runs,
//! on graphs of one window and of many.

use rms_core::cost::Realization;
use rms_core::opt::{Algorithm, OptOptions};
use rms_core::{CancelToken, IncrementalMig, Mig};
use rms_cut::{database, rewrite_round, round_windowed, WINDOW_NODES};
use rms_flow::{run_algorithm_engine, Engine};
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
        // The phase timings are wall-clock and legitimately differ
        // between runs; every decision-bearing counter must not.
        let (mut sa, mut sb) = (sa, sb);
        for s in [&mut sa, &mut sb] {
            s.t_cut_enum_ns = 0;
            s.t_eval_ns = 0;
            s.t_commit_ns = 0;
            s.t_gc_ns = 0;
        }
        assert_eq!(sa, sb, "seed {seed}: stats diverged");
    }
}

#[test]
fn rebuild_engine_stays_available_as_baseline() {
    // The pre-incremental engine remains selectable (it is the measured
    // baseline of `rms bench --profile`) and functionally correct.
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
    run_algorithm_engine(
        mig,
        Algorithm::Cut,
        Realization::Maj,
        &opts,
        Engine::Incremental,
    )
    .0
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
