//! Differential and determinism tests of the in-place rewrite engine.
//!
//! The rebuild round ([`rms_cut::rewrite_round`]) is the reference
//! oracle: on every embedded benchmark one windowed in-place round must
//! reach the same gate count and depth. The windowed round must also be
//! bit-identical across `--jobs` worker counts and across repeated runs,
//! on graphs of one window and of many.
//!
//! Pin tests fix exact quality counts, so a quality change fails here
//! instead of drifting. In every run: the `Algorithm::Cut` gate count of
//! the small suite at effort 40, the `Algorithm::CutRram` gates, R and S
//! of the small suite under both realizations at effort 40, the gates,
//! depth, R and S of the paper's Algs. 1–4 on the small suite under both
//! realizations at effort 40, and the
//! candidate, accepted and refuted counts of one resubstitution pass on
//! two Table II circuits. Under
//! `--include-ignored`: the cut gate count of the generated large suite
//! at effort 2, and the Table II gate counts under rram, cut and
//! sweep-resub at effort 40 (run them in release:
//! `cargo test --release --test incremental -- --include-ignored`).

use rms_core::cost::{Realization, RramCost};
use rms_core::opt::{Algorithm, OptOptions};
use rms_core::{CancelToken, IncrementalMig, Mig};
use rms_cut::{database, resub_pass, rewrite_round, round_windowed, ResubOptions, WINDOW_NODES};
use rms_flow::{run_algorithm, InputFormat, Pipeline, VerifyMode};
use rms_logic::random::random_netlist;
use rms_logic::{bench_suite, blif, large_suite};

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

/// `(gates, R, S)` of one optimized circuit.
type Costs = (usize, u64, u64);

/// `Algorithm::CutRram` results of the small suite at effort 40 and
/// `jobs` 1, in suite order: [`Costs`] under MAJ, then under IMP.
const SMALL_SUITE_CUT_RRAM: [(&str, [Costs; 2]); 25] = [
    ("9sym_d", [(44, 15, 88), (44, 21, 249)]),
    ("con1_f1", [(4, 5, 17), (4, 7, 45)]),
    ("con2_f2", [(34, 15, 65), (27, 23, 163)]),
    ("exam1_d", [(1, 5, 4), (1, 7, 11)]),
    ("exam3_d", [(5, 12, 10), (5, 18, 31)]),
    ("max46_d", [(72, 64, 61), (72, 96, 173)]),
    ("newill_d", [(9, 12, 24), (9, 18, 73)]),
    ("newtag_d", [(12, 16, 22), (12, 24, 64)]),
    ("rd53_f1", [(6, 6, 22), (6, 8, 64)]),
    ("rd53_f2", [(7, 8, 21), (7, 12, 63)]),
    ("rd53_f3", [(5, 5, 17), (5, 7, 52)]),
    ("rd73_f1", [(9, 6, 33), (9, 8, 96)]),
    ("rd73_f2", [(10, 5, 36), (10, 7, 106)]),
    ("rd73_f3", [(21, 15, 46), (21, 21, 130)]),
    ("rd84_f1", [(12, 5, 44), (12, 7, 128)]),
    ("rd84_f2", [(22, 11, 60), (22, 15, 172)]),
    ("rd84_f3", [(32, 14, 67), (32, 20, 193)]),
    ("rd84_f4", [(22, 11, 57), (22, 15, 162)]),
    ("sao2_f1", [(5, 5, 21), (5, 7, 56)]),
    ("sao2_f2", [(17, 19, 22), (17, 27, 64)]),
    ("sao2_f3", [(11, 20, 17), (11, 30, 52)]),
    ("sao2_f4", [(5, 4, 15), (5, 6, 50)]),
    ("sym10_d", [(53, 20, 77), (53, 28, 217)]),
    ("t481_d", [(91, 36, 78), (88, 48, 209)]),
    ("xor5_d", [(6, 6, 22), (6, 8, 64)]),
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

/// Gate counts of the 25 Table II circuits at effort 40 under
/// [`TABLE2_ALGS`], in suite order, for each circuit's BLIF rendering
/// run through the pipeline: the `gates` column of perfbench's
/// `table2-default` workload.
const TABLE2_GATES: [(&str, [usize; 3]); 25] = [
    ("5xp1", [139, 52, 47]),
    ("alu4", [131, 79, 71]),
    ("apex1", [1179, 1026, 1016]),
    ("apex2", [148, 117, 117]),
    ("apex4", [1818, 1143, 972]),
    ("apex5", [457, 427, 423]),
    ("apex6", [470, 451, 451]),
    ("apex7", [153, 141, 138]),
    ("b9", [94, 87, 85]),
    ("clip", [78, 21, 17]),
    ("cm150a", [46, 33, 31]),
    ("cm162a", [45, 42, 40]),
    ("cm163a", [39, 37, 36]),
    ("cordic", [107, 78, 76]),
    ("misex1", [39, 39, 36]),
    ("misex3", [748, 528, 506]),
    ("parity", [45, 24, 24]),
    ("seq", [905, 760, 749]),
    ("t481", [193, 106, 80]),
    ("table5", [864, 631, 615]),
    ("too_large", [185, 139, 137]),
    ("x1", [159, 145, 143]),
    ("x2", [22, 19, 18]),
    ("x3", [471, 447, 444]),
    ("x4", [307, 285, 284]),
];

/// The algorithms of [`TABLE2_GATES`]: Alg. 3, cut rewriting, and SAT
/// sweeping with resubstitution.
const TABLE2_ALGS: [Algorithm; 3] = [Algorithm::RramCosts, Algorithm::Cut, Algorithm::SweepResub];

/// `ResubStats { candidates, accepted, refuted }` of one default
/// `resub_pass` over the effort-40 cut result.
const RESUB_COUNTS: [(&str, [u64; 3]); 2] = [("apex4", [496, 82, 414]), ("t481", [62, 6, 56])];

/// `(gates, depth, R, S)` of one optimized circuit.
type PaperCosts = (usize, u32, u64, u64);

/// Results of the paper's Algs. 1–4 ([`Algorithm::ALL`]) on the small
/// suite at effort 40 and `jobs` 1, in suite order: per algorithm,
/// [`PaperCosts`] under MAJ, then under IMP.
const SMALL_SUITE_PAPER: [(&str, [[PaperCosts; 2]; 4]); 25] = [
    (
        "9sym_d",
        [
            [(88, 24, 26, 91), (88, 24, 38, 259)],
            [(86, 23, 26, 87), (86, 23, 38, 248)],
            [(86, 23, 26, 88), (86, 23, 38, 249)],
            [(86, 23, 26, 87), (86, 23, 38, 248)],
        ],
    ),
    (
        "con1_f1",
        [
            [(4, 4, 5, 17), (4, 4, 7, 45)],
            [(5, 3, 16, 12), (5, 3, 22, 33)],
            [(5, 3, 16, 12), (5, 3, 22, 33)],
            [(5, 3, 16, 12), (5, 3, 22, 33)],
        ],
    ),
    (
        "con2_f2",
        [
            [(63, 31, 18, 118), (63, 31, 26, 335)],
            [(65, 18, 33, 68), (65, 18, 49, 194)],
            [(66, 20, 24, 76), (66, 20, 34, 216)],
            [(65, 18, 34, 68), (65, 18, 50, 194)],
        ],
    ),
    (
        "exam1_d",
        [
            [(1, 1, 5, 4), (1, 1, 7, 11)],
            [(1, 1, 5, 4), (1, 1, 7, 11)],
            [(1, 1, 5, 4), (1, 1, 7, 11)],
            [(1, 1, 5, 4), (1, 1, 7, 11)],
        ],
    ),
    (
        "exam3_d",
        [
            [(7, 4, 16, 13), (7, 4, 24, 41)],
            [(7, 3, 16, 10), (7, 3, 24, 31)],
            [(7, 3, 16, 10), (7, 3, 24, 31)],
            [(7, 3, 16, 10), (7, 3, 24, 31)],
        ],
    ),
    (
        "max46_d",
        [
            [(94, 25, 68, 89), (94, 25, 102, 264)],
            [(103, 20, 68, 70), (103, 20, 102, 210)],
            [(101, 21, 68, 73), (101, 21, 102, 220)],
            [(103, 20, 68, 70), (103, 20, 102, 210)],
        ],
    ),
    (
        "newill_d",
        [
            [(12, 7, 16, 24), (12, 7, 24, 73)],
            [(12, 7, 16, 24), (12, 7, 24, 73)],
            [(12, 7, 16, 24), (12, 7, 24, 73)],
            [(12, 7, 16, 24), (12, 7, 24, 73)],
        ],
    ),
    (
        "newtag_d",
        [
            [(15, 5, 32, 19), (15, 5, 48, 54)],
            [(15, 4, 32, 14), (15, 4, 48, 42)],
            [(15, 5, 40, 17), (15, 5, 56, 52)],
            [(15, 4, 32, 14), (15, 4, 48, 42)],
        ],
    ),
    (
        "rd53_f1",
        [
            [(12, 8, 8, 28), (12, 8, 12, 84)],
            [(12, 8, 8, 28), (12, 8, 12, 84)],
            [(12, 8, 8, 28), (12, 8, 12, 84)],
            [(12, 8, 8, 28), (12, 8, 12, 84)],
        ],
    ),
    (
        "rd53_f2",
        [
            [(19, 9, 13, 33), (19, 9, 19, 96)],
            [(21, 9, 16, 32), (21, 9, 24, 95)],
            [(21, 9, 16, 32), (20, 9, 19, 96)],
            [(21, 9, 16, 32), (21, 9, 24, 95)],
        ],
    ),
    (
        "rd53_f3",
        [
            [(23, 10, 17, 37), (23, 10, 25, 107)],
            [(27, 10, 21, 35), (27, 10, 31, 105)],
            [(27, 10, 21, 35), (27, 10, 31, 105)],
            [(24, 10, 17, 35), (24, 10, 25, 105)],
        ],
    ),
    (
        "rd73_f1",
        [
            [(18, 12, 8, 42), (18, 12, 12, 126)],
            [(18, 12, 8, 42), (18, 12, 12, 126)],
            [(18, 12, 8, 42), (18, 12, 12, 126)],
            [(18, 12, 8, 42), (18, 12, 12, 126)],
        ],
    ),
    (
        "rd73_f2",
        [
            [(31, 13, 13, 49), (31, 13, 19, 140)],
            [(33, 13, 16, 48), (33, 13, 24, 139)],
            [(33, 13, 16, 48), (33, 13, 24, 139)],
            [(33, 13, 16, 48), (33, 13, 24, 139)],
        ],
    ),
    (
        "rd73_f3",
        [
            [(41, 14, 21, 53), (41, 14, 31, 151)],
            [(45, 14, 21, 52), (45, 14, 31, 150)],
            [(43, 14, 21, 52), (43, 14, 31, 150)],
            [(42, 14, 21, 52), (42, 14, 31, 150)],
        ],
    ),
    (
        "rd84_f1",
        [
            [(21, 14, 8, 49), (21, 14, 12, 147)],
            [(21, 14, 8, 49), (21, 14, 12, 147)],
            [(21, 14, 8, 49), (21, 14, 12, 147)],
            [(21, 14, 8, 49), (21, 14, 12, 147)],
        ],
    ),
    (
        "rd84_f2",
        [
            [(37, 15, 13, 57), (37, 15, 19, 162)],
            [(39, 15, 16, 56), (39, 15, 24, 161)],
            [(39, 15, 16, 56), (39, 15, 24, 161)],
            [(39, 15, 16, 56), (39, 15, 24, 161)],
        ],
    ),
    (
        "rd84_f3",
        [
            [(50, 16, 21, 61), (50, 16, 31, 173)],
            [(54, 16, 21, 60), (54, 16, 31, 172)],
            [(52, 16, 21, 60), (52, 16, 31, 172)],
            [(51, 16, 21, 60), (51, 16, 31, 172)],
        ],
    ),
    (
        "rd84_f4",
        [
            [(60, 17, 26, 65), (60, 17, 38, 184)],
            [(58, 17, 27, 64), (58, 17, 39, 183)],
            [(66, 17, 29, 64), (66, 17, 43, 183)],
            [(58, 17, 26, 64), (58, 17, 38, 183)],
        ],
    ),
    (
        "sao2_f1",
        [
            [(5, 5, 5, 21), (5, 5, 7, 56)],
            [(7, 3, 27, 11), (7, 3, 37, 32)],
            [(7, 3, 27, 11), (7, 3, 37, 32)],
            [(7, 3, 27, 11), (7, 3, 37, 32)],
        ],
    ),
    (
        "sao2_f2",
        [
            [(19, 6, 40, 23), (19, 6, 60, 65)],
            [(19, 5, 40, 18), (19, 5, 60, 53)],
            [(21, 6, 50, 20), (21, 6, 70, 62)],
            [(19, 5, 40, 17), (19, 5, 60, 52)],
        ],
    ),
    (
        "sao2_f3",
        [
            [(17, 9, 20, 31), (17, 9, 30, 94)],
            [(17, 9, 20, 31), (17, 9, 30, 94)],
            [(17, 9, 20, 31), (17, 9, 30, 94)],
            [(17, 9, 20, 31), (17, 9, 30, 94)],
        ],
    ),
    (
        "sao2_f4",
        [
            [(5, 5, 4, 15), (5, 5, 6, 50)],
            [(7, 3, 20, 9), (7, 3, 30, 30)],
            [(7, 3, 20, 9), (7, 3, 30, 30)],
            [(7, 3, 20, 9), (7, 3, 30, 30)],
        ],
    ),
    (
        "sym10_d",
        [
            [(100, 26, 26, 99), (100, 26, 38, 281)],
            [(98, 25, 26, 95), (98, 25, 38, 270)],
            [(98, 25, 26, 96), (98, 25, 38, 271)],
            [(98, 25, 26, 95), (98, 25, 38, 270)],
        ],
    ),
    (
        "t481_d",
        [
            [(147, 20, 52, 78), (147, 20, 76, 218)],
            [(143, 20, 52, 77), (143, 20, 76, 217)],
            [(159, 20, 58, 77), (159, 20, 86, 217)],
            [(143, 20, 52, 77), (143, 20, 76, 217)],
        ],
    ),
    (
        "xor5_d",
        [
            [(12, 8, 8, 28), (12, 8, 12, 84)],
            [(12, 8, 8, 28), (12, 8, 12, 84)],
            [(12, 8, 8, 28), (12, 8, 12, 84)],
            [(12, 8, 8, 28), (12, 8, 12, 84)],
        ],
    ),
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
fn cut_rram_costs_are_pinned_on_the_small_suite() {
    let names: Vec<&str> = bench_suite::SMALL_SUITE.iter().map(|i| i.name).collect();
    let pinned: Vec<&str> = SMALL_SUITE_CUT_RRAM.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, pinned, "pin table out of step with the small suite");
    let mut opts = OptOptions::with_effort(40);
    opts.jobs = 1;
    for (name, pins) in SMALL_SUITE_CUT_RRAM {
        let nl = bench_suite::build(name).unwrap();
        let mig = Mig::from_netlist(&nl);
        for (real, want) in [Realization::Maj, Realization::Imp].into_iter().zip(pins) {
            let (out, _) = run_algorithm(&mig, Algorithm::CutRram, real, &opts);
            let cost = RramCost::of(&out, real);
            assert_eq!(
                (out.num_gates(), cost.rrams, cost.steps),
                want,
                "{name} / {real}: cut-rram (gates, R, S)"
            );
            assert_eq!(
                out.truth_tables(),
                nl.truth_tables(),
                "{name} / {real}: function"
            );
        }
    }
}

#[test]
fn paper_algorithms_are_pinned_on_the_small_suite() {
    let names: Vec<&str> = bench_suite::SMALL_SUITE.iter().map(|i| i.name).collect();
    let pinned: Vec<&str> = SMALL_SUITE_PAPER.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, pinned, "pin table out of step with the small suite");
    let mut opts = OptOptions::with_effort(40);
    opts.jobs = 1;
    for (name, pins) in SMALL_SUITE_PAPER {
        let nl = bench_suite::build(name).unwrap();
        let mig = Mig::from_netlist(&nl);
        for (alg, alg_pins) in Algorithm::ALL.into_iter().zip(pins) {
            for (real, want) in [Realization::Maj, Realization::Imp]
                .into_iter()
                .zip(alg_pins)
            {
                let (out, _) = run_algorithm(&mig, alg, real, &opts);
                let cost = RramCost::of(&out, real);
                assert_eq!(
                    (out.num_gates(), out.depth(), cost.rrams, cost.steps),
                    want,
                    "{name} / {} / {real}: (gates, depth, R, S)",
                    alg.token()
                );
                assert_eq!(
                    out.truth_tables(),
                    nl.truth_tables(),
                    "{name} / {} / {real}: function",
                    alg.token()
                );
            }
        }
    }
}

#[test]
#[ignore = "about 18 s unoptimized; run in release with --include-ignored"]
fn table2_gates_are_pinned_under_rram_cut_and_sweep_resub() {
    let names: Vec<&str> = bench_suite::LARGE_SUITE.iter().map(|i| i.name).collect();
    let pinned: Vec<&str> = TABLE2_GATES.iter().map(|&(n, _)| n).collect();
    assert_eq!(
        names, pinned,
        "pin table out of step with the Table II suite"
    );
    for (name, gates) in TABLE2_GATES {
        // The benchmark's route: BLIF bytes through the whole pipeline.
        let blif = blif::write(&bench_suite::build(name).unwrap());
        for (alg, want) in TABLE2_ALGS.into_iter().zip(gates) {
            let out = Pipeline::from_bytes(InputFormat::Blif, blif.as_bytes(), name)
                .unwrap()
                .algorithm(alg)
                .effort(40)
                .verify_mode(VerifyMode::Off)
                .run()
                .unwrap_or_else(|e| panic!("{name} / {}: {e}", alg.token()));
            assert_eq!(
                out.report.optimized.gates,
                want as u64,
                "{name} / {}: gate count",
                alg.token()
            );
        }
    }
}

#[test]
fn resub_counts_are_pinned_on_apex4_and_t481() {
    // The resubstitution filter decides which candidates reach SAT, so
    // any drift in it changes these counts before it changes gates.
    let opts = OptOptions::with_effort(40);
    for (name, [candidates, accepted, refuted]) in RESUB_COUNTS {
        let mig = Mig::from_netlist(&bench_suite::build(name).unwrap());
        let (cut, _) = run_algorithm(&mig, Algorithm::Cut, Realization::Maj, &opts);
        let mut g = IncrementalMig::from_mig(&cut.compact());
        let st = resub_pass(&mut g, &ResubOptions::default());
        assert_eq!(
            [st.candidates, st.accepted, st.refuted],
            [candidates, accepted, refuted],
            "{name}: resub candidates, accepted, refuted ({st:?})"
        );
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
            VerifyMode::Sampled,
            rms_flow::DEFAULT_VERIFY_SEED,
        )
        .unwrap_or_else(|e| panic!("{name}: verification error: {e}"));
        assert!(outcome.passed(), "{name}: {outcome:?}");
    }
}
