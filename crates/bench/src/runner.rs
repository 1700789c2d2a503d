//! Executes the paper's evaluation flows over the embedded suites.
//!
//! Per-configuration work (optimize, then evaluate Table I) is delegated
//! to [`rms_flow::optimize_cost`]; each `run_*` sweep takes a worker
//! count (`0` = all cores, `1` = inline) for [`rms_core::par`]. The
//! sweeps partition by benchmark and preserve row order, so they return
//! bit-identical results for every worker count — a property the
//! integration tests assert.

use rms_aig::Aig;
use rms_bdd::{build as bdd_build, rram_synth as bdd_rram, BddSynthOptions};
use rms_core::cost::{Realization, RramCost};
use rms_core::opt::{Algorithm, OptOptions};
use rms_core::{par, Mig};
use rms_flow::optimize_cost;
use rms_logic::bench_suite::{self, BenchmarkInfo};
use rms_logic::paper_data;

/// Measured (R, S) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Measured {
    /// Number of RRAM devices (Table I `R`).
    pub rrams: u64,
    /// Number of computational steps (Table I `S`).
    pub steps: u64,
}

impl From<RramCost> for Measured {
    fn from(c: RramCost) -> Self {
        Measured {
            rrams: c.rrams,
            steps: c.steps,
        }
    }
}

/// Resolves a worker count: `0` means the default pool size.
fn workers(jobs: usize) -> usize {
    if jobs == 0 {
        par::num_threads()
    } else {
        jobs
    }
}

/// Maps `row` over `suite` on `jobs` workers (`0` = all cores), in suite
/// order.
fn over_suite<R: Send>(
    suite: &'static [BenchmarkInfo],
    jobs: usize,
    row: impl Fn(&'static BenchmarkInfo) -> R + Sync,
) -> Vec<R> {
    let infos: Vec<&'static BenchmarkInfo> = suite.iter().collect();
    par::par_map_threads(&infos, workers(jobs), |info| row(info))
}

/// One measured row of Table II (six optimizer/realization configurations).
#[derive(Debug, Clone)]
pub struct Table2Measured {
    /// Benchmark descriptor.
    pub info: &'static BenchmarkInfo,
    /// Alg. 1 under the IMP realization.
    pub area_imp: Measured,
    /// Alg. 2 under the IMP realization.
    pub depth_imp: Measured,
    /// Alg. 3 under the IMP realization.
    pub rram_imp: Measured,
    /// Alg. 3 under the MAJ realization.
    pub rram_maj: Measured,
    /// Alg. 4 under the IMP realization.
    pub step_imp: Measured,
    /// Alg. 4 under the MAJ realization.
    pub step_maj: Measured,
}

impl Table2Measured {
    /// The six configurations in column order.
    pub fn columns(&self) -> [Measured; 6] {
        [
            self.area_imp,
            self.depth_imp,
            self.rram_imp,
            self.rram_maj,
            self.step_imp,
            self.step_maj,
        ]
    }
}

/// The six Table II configurations as (algorithm, realization) pairs, in
/// column order.
pub const TABLE2_CONFIGS: [(Algorithm, Realization); 6] = [
    (Algorithm::Area, Realization::Imp),
    (Algorithm::Depth, Realization::Imp),
    (Algorithm::RramCosts, Realization::Imp),
    (Algorithm::RramCosts, Realization::Maj),
    (Algorithm::Steps, Realization::Imp),
    (Algorithm::Steps, Realization::Maj),
];

/// Runs the Table II evaluation for one benchmark.
pub fn run_table2_row(info: &'static BenchmarkInfo, opts: &OptOptions) -> Table2Measured {
    let mig = Mig::from_netlist(&bench_suite::build_info(info));
    let cols: Vec<Measured> = TABLE2_CONFIGS
        .iter()
        .map(|&(alg, real)| optimize_cost(&mig, alg, real, opts).1.into())
        .collect();
    Table2Measured {
        info,
        area_imp: cols[0],
        depth_imp: cols[1],
        rram_imp: cols[2],
        rram_maj: cols[3],
        step_imp: cols[4],
        step_maj: cols[5],
    }
}

/// Runs the full Table II evaluation (25 benchmarks, six configurations)
/// on `jobs` worker threads (`0` = all cores). Rows come back in suite
/// order, identical for every `jobs`.
pub fn run_table2(opts: &OptOptions, jobs: usize) -> Vec<Table2Measured> {
    over_suite(bench_suite::LARGE_SUITE, jobs, |info| {
        run_table2_row(info, opts)
    })
}

/// One measured row of Table III's left half (BDD comparison).
#[derive(Debug, Clone)]
pub struct Table3BddMeasured {
    /// Benchmark descriptor.
    pub info: &'static BenchmarkInfo,
    /// BDD baseline of \[11\] (level-parallel mux schedule).
    pub bdd: Measured,
    /// MIG multi-objective flow, IMP realization.
    pub mig_imp: Measured,
    /// MIG multi-objective flow, MAJ realization.
    pub mig_maj: Measured,
    /// BDD node count (context for the R column).
    pub bdd_nodes: u64,
}

/// Runs the BDD-vs-MIG comparison for one benchmark.
pub fn run_table3_bdd_row(
    info: &'static BenchmarkInfo,
    opts: &OptOptions,
    synth: &BddSynthOptions,
) -> Table3BddMeasured {
    let nl = bench_suite::build_info(info);
    let circ = bdd_build::from_netlist(&nl, bdd_build::Ordering::DfsFromOutputs);
    let bdd = bdd_rram::synthesize(&circ, synth);
    let mig = Mig::from_netlist(&nl);
    let rram_i = optimize_cost(&mig, Algorithm::RramCosts, Realization::Imp, opts).1;
    let rram_m = optimize_cost(&mig, Algorithm::RramCosts, Realization::Maj, opts).1;
    Table3BddMeasured {
        info,
        bdd: Measured {
            // [11] reports value-retention devices, not compute scratch;
            // `bdd.devices` (the full footprint) is available separately.
            rrams: bdd.value_devices,
            steps: bdd.steps(),
        },
        mig_imp: rram_i.into(),
        mig_maj: rram_m.into(),
        bdd_nodes: bdd.nodes,
    }
}

/// Runs the full BDD comparison (Table III left) on `jobs` worker
/// threads (`0` = all cores), identical for every `jobs`.
pub fn run_table3_bdd(
    opts: &OptOptions,
    synth: &BddSynthOptions,
    jobs: usize,
) -> Vec<Table3BddMeasured> {
    over_suite(bench_suite::LARGE_SUITE, jobs, |info| {
        run_table3_bdd_row(info, opts, synth)
    })
}

/// One measured row of Table III's right half (AIG comparison).
#[derive(Debug, Clone)]
pub struct Table3AigMeasured {
    /// Benchmark descriptor.
    pub info: &'static BenchmarkInfo,
    /// Steps of the node-serial AIG baseline of \[12\].
    pub aig_steps: u64,
    /// AIG node count after balancing.
    pub aig_nodes: u64,
    /// MIG multi-objective flow, IMP realization.
    pub mig_imp: Measured,
    /// MIG multi-objective flow, MAJ realization.
    pub mig_maj: Measured,
}

/// Runs the AIG-vs-MIG comparison for one small-suite function.
pub fn run_table3_aig_row(info: &'static BenchmarkInfo, opts: &OptOptions) -> Table3AigMeasured {
    let nl = bench_suite::build_info(info);
    let aig = Aig::from_netlist(&nl).balance();
    let circuit = rms_aig::rram_synth::synthesize(&aig);
    let mig = Mig::from_netlist(&nl);
    let rram_i = optimize_cost(&mig, Algorithm::RramCosts, Realization::Imp, opts).1;
    let rram_m = optimize_cost(&mig, Algorithm::RramCosts, Realization::Maj, opts).1;
    Table3AigMeasured {
        info,
        aig_steps: circuit.steps(),
        aig_nodes: circuit.nodes,
        mig_imp: rram_i.into(),
        mig_maj: rram_m.into(),
    }
}

/// Runs the full AIG comparison (Table III right) on `jobs` worker
/// threads (`0` = all cores), identical for every `jobs`.
pub fn run_table3_aig(opts: &OptOptions, jobs: usize) -> Vec<Table3AigMeasured> {
    over_suite(bench_suite::SMALL_SUITE, jobs, |info| {
        run_table3_aig_row(info, opts)
    })
}

/// One measured row of the algorithm-comparison sweep: Algs. 1–4 against
/// the cut-rewriting engine, over the small (single-output) suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlgsMeasured {
    /// Benchmark descriptor.
    pub info: &'static BenchmarkInfo,
    /// Majority-gate count of the unoptimized MIG.
    pub initial_gates: u64,
    /// Gate count per algorithm, in [`Algorithm::ALL_WITH_CUT`] order.
    pub gates: [u64; 6],
    /// Table I metrics per algorithm (MAJ realization), same order.
    pub cost: [Measured; 6],
    /// Cut rewrites accepted by the `Cut` run.
    pub cut_rewrites: u64,
    /// Verification summary over all six optimized graphs: `exhaustive`
    /// below the truth-table cutoff, `SAT (n conflicts)` above it,
    /// `FAILED <algorithm>` on a mismatch (which would be a bug).
    pub verified: String,
}

/// Runs every algorithm (including the cut engine) on one benchmark
/// under the MAJ realization, verifying each result against the source
/// netlist (exhaustively below the width cutoff, by SAT proof above).
pub fn run_algs_row(info: &'static BenchmarkInfo, opts: &OptOptions) -> AlgsMeasured {
    let nl = bench_suite::build_info(info);
    let mig = Mig::from_netlist(&nl);
    let mut gates = [0u64; 6];
    let mut cost = [Measured::default(); 6];
    let mut cut_rewrites = 0;
    let mut sat_conflicts: Option<u64> = None;
    let mut sampled_fallback = false;
    // First verification problem, if any: a genuine functional mismatch
    // ("FAILED <alg>") is kept distinct from an infrastructure error
    // ("ERROR <alg>" — e.g. an arity mismatch from a buggy exporter), so
    // a red column points at the right subsystem.
    let mut trouble: Option<String> = None;
    // Below the cutoff the reference truth tables are computed once per
    // row, not once per algorithm (the optimized graphs share the input
    // order of their source, so a direct table compare is exact).
    let reference =
        (nl.num_inputs() <= rms_flow::verify::EXHAUSTIVE_VERIFY_VARS).then(|| nl.truth_tables());
    for (i, alg) in Algorithm::ALL_WITH_CUT.into_iter().enumerate() {
        let (out, stats) = rms_flow::run_algorithm(&mig, alg, Realization::Maj, opts);
        gates[i] = out.num_gates() as u64;
        cost[i] = RramCost::of(&out, Realization::Maj).into();
        if alg == Algorithm::Cut {
            cut_rewrites = stats.rewrites;
        }
        if trouble.is_none() {
            if let Some(reference) = &reference {
                if out.truth_tables() != *reference {
                    trouble = Some(format!("FAILED {alg}"));
                }
                continue;
            }
            match rms_flow::check_netlists(
                &nl,
                &out.to_netlist(),
                rms_flow::VerifyMode::Auto,
                rms_flow::DEFAULT_VERIFY_SEED,
            ) {
                Ok(rms_flow::VerifyOutcome::Proved { conflicts, .. }) => {
                    *sat_conflicts.get_or_insert(0) += conflicts;
                }
                // Auto degrades to sampling when the proof budget runs
                // out — surface that honestly instead of claiming a
                // proof.
                Ok(rms_flow::VerifyOutcome::Sampled { .. }) => sampled_fallback = true,
                Ok(outcome) if outcome.passed() => {}
                Ok(_) => trouble = Some(format!("FAILED {alg}")),
                Err(e) => trouble = Some(format!("ERROR {alg}: {e}")),
            }
        }
    }
    let verified = match (trouble, sampled_fallback, sat_conflicts) {
        (Some(t), _, _) => t,
        (None, true, _) => "sampled (SAT budget exceeded)".to_string(),
        (None, false, Some(conflicts)) => format!("SAT ({conflicts} conflicts)"),
        (None, false, None) => "exhaustive".to_string(),
    };
    AlgsMeasured {
        info,
        initial_gates: mig.num_gates() as u64,
        gates,
        cost,
        cut_rewrites,
        verified,
    }
}

/// Runs the algorithm-comparison sweep over the small suite on `jobs`
/// worker threads (`0` = all cores). Rows come back in suite order,
/// bit-identical for every `jobs`.
pub fn run_algs(opts: &OptOptions, jobs: usize) -> Vec<AlgsMeasured> {
    over_suite(bench_suite::SMALL_SUITE, jobs, |info| {
        run_algs_row(info, opts)
    })
}

/// One row of the sweep+resub-vs-cut comparison (`rms bench --sweep`).
#[derive(Debug, Clone)]
pub struct SweepMeasured {
    /// Benchmark descriptor.
    pub info: &'static BenchmarkInfo,
    /// Majority-gate count of the unoptimized MIG.
    pub initial_gates: u64,
    /// Gate count after the cut script (the baseline).
    pub cut_gates: u64,
    /// Gate count after the sweep+resub script.
    pub sweep_gates: u64,
    /// Fraig merges proved and committed.
    pub fraig_merges: u64,
    /// Resubstitutions proved and accepted.
    pub resubs: u64,
    /// SAT conflicts spent by the post passes.
    pub sat_conflicts: u64,
    /// Verification of the sweep result against the source netlist
    /// (`exhaustive` / `SAT (n conflicts)` / `FAILED` / `ERROR ...`).
    pub verified: String,
}

impl SweepMeasured {
    /// Whether this row meets every acceptance condition: verified and
    /// never worse than the cut baseline.
    pub fn passed(&self) -> bool {
        self.sweep_gates <= self.cut_gates
            && (self.verified.starts_with("exhaustive") || self.verified.starts_with("SAT"))
    }
}

/// The full sweep comparison: per-benchmark rows plus the cross-worker
/// determinism check.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// One row per small-suite benchmark, in suite order.
    pub rows: Vec<SweepMeasured>,
    /// Whether a re-run on a different worker count produced the same
    /// gate counts (bit-identity across `--jobs`).
    pub jobs_identical: bool,
}

impl SweepReport {
    /// Whether every row and the determinism check passed.
    pub fn all_passed(&self) -> bool {
        self.jobs_identical && self.rows.iter().all(SweepMeasured::passed)
    }

    /// Rows where sweep+resub strictly beats the cut baseline.
    pub fn strict_wins(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.sweep_gates < r.cut_gates)
            .count()
    }
}

/// Runs the cut baseline and the sweep+resub script on one benchmark,
/// verifying the sweep result.
pub fn run_sweep_row(info: &'static BenchmarkInfo, opts: &OptOptions) -> SweepMeasured {
    let nl = bench_suite::build_info(info);
    let mig = Mig::from_netlist(&nl);
    let (cut, _) = rms_flow::run_algorithm(&mig, Algorithm::Cut, Realization::Maj, opts);
    let (sweep, stats) = rms_cut::optimize_sweep_stats(&mig, opts, rms_cut::SweepPasses::BOTH);
    let verified = if nl.num_inputs() <= rms_flow::verify::EXHAUSTIVE_VERIFY_VARS {
        if sweep.truth_tables() == nl.truth_tables() {
            "exhaustive".to_string()
        } else {
            "FAILED".to_string()
        }
    } else {
        match rms_flow::check_netlists(
            &nl,
            &sweep.to_netlist(),
            rms_flow::VerifyMode::Auto,
            rms_flow::DEFAULT_VERIFY_SEED,
        ) {
            Ok(rms_flow::VerifyOutcome::Proved { conflicts, .. }) => {
                format!("SAT ({conflicts} conflicts)")
            }
            Ok(rms_flow::VerifyOutcome::Sampled { .. }) => {
                "sampled (SAT budget exceeded)".to_string()
            }
            Ok(outcome) if outcome.passed() => "exhaustive".to_string(),
            Ok(_) => "FAILED".to_string(),
            Err(e) => format!("ERROR: {e}"),
        }
    };
    SweepMeasured {
        info,
        initial_gates: mig.num_gates() as u64,
        cut_gates: cut.num_gates() as u64,
        sweep_gates: sweep.num_gates() as u64,
        fraig_merges: stats.fraig_merges,
        resubs: stats.resubs,
        sat_conflicts: stats.sat_conflicts,
        verified,
    }
}

/// Runs the sweep comparison over the small suite on `jobs` workers,
/// then re-runs the sweep gate counts on a different worker count to
/// check `--jobs` bit-identity.
pub fn run_sweep(opts: &OptOptions, jobs: usize) -> SweepReport {
    let rows = over_suite(bench_suite::SMALL_SUITE, jobs, |info| {
        run_sweep_row(info, opts)
    });
    let alt_workers = if workers(jobs) == 1 { 3 } else { 1 };
    let alt_gates: Vec<u64> = over_suite(bench_suite::SMALL_SUITE, alt_workers, |info| {
        let mig = Mig::from_netlist(&bench_suite::build_info(info));
        rms_cut::optimize_sweep_stats(&mig, opts, rms_cut::SweepPasses::BOTH)
            .0
            .num_gates() as u64
    });
    let jobs_identical = rows
        .iter()
        .zip(&alt_gates)
        .all(|(row, &gates)| row.sweep_gates == gates);
    SweepReport {
        rows,
        jobs_identical,
    }
}

/// Sum of a column over rows.
pub fn sum_by<T>(rows: &[T], f: impl Fn(&T) -> Measured) -> Measured {
    rows.iter().fold(Measured::default(), |acc, r| {
        let m = f(r);
        Measured {
            rrams: acc.rrams + m.rrams,
            steps: acc.steps + m.steps,
        }
    })
}

/// The paper-reported Σ row of Table II as `Measured` columns.
pub fn paper_table2_sums() -> [Measured; 6] {
    let s = paper_data::TABLE2_SUM;
    [
        s.area_imp,
        s.depth_imp,
        s.rram_imp,
        s.rram_maj,
        s.step_imp,
        s.step_maj,
    ]
    .map(|r| Measured {
        rrams: r.rrams,
        steps: r.steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_row_has_expected_orderings() {
        let info = rms_logic::bench_suite::info("x2").unwrap();
        let row = run_table2_row(info, &OptOptions::with_effort(10));
        // MAJ realization always beats IMP on steps for the same algorithm.
        assert!(row.rram_maj.steps < row.rram_imp.steps);
        assert!(row.step_maj.steps < row.step_imp.steps);
    }

    #[test]
    fn table3_aig_row_runs() {
        let info = rms_logic::bench_suite::info("exam1_d").unwrap();
        let row = run_table3_aig_row(info, &OptOptions::with_effort(5));
        assert!(row.aig_steps >= 3, "{row:?}");
    }

    #[test]
    fn table3_bdd_row_runs() {
        let info = rms_logic::bench_suite::info("parity").unwrap();
        let row = run_table3_bdd_row(
            info,
            &OptOptions::with_effort(5),
            &BddSynthOptions::default(),
        );
        // Parity's BDD is thin: one batch per level, five steps each.
        // (Parity is also the one function where a BDD is genuinely
        // competitive — the aggregate comparison lives in the integration
        // tests at full effort.)
        assert_eq!(row.bdd.steps, 5 * 16);
        assert!(row.mig_maj.steps > 0);
    }

    #[test]
    fn sums_add_up() {
        let rows = vec![
            Measured { rrams: 1, steps: 2 },
            Measured { rrams: 3, steps: 4 },
        ];
        let s = sum_by(&rows, |m| *m);
        assert_eq!(s, Measured { rrams: 4, steps: 6 });
    }

    #[test]
    fn algs_row_covers_all_algorithms() {
        let info = rms_logic::bench_suite::info("exam3_d").unwrap();
        let row = run_algs_row(info, &OptOptions::with_effort(4));
        assert!(row.initial_gates > 0);
        for (i, &g) in row.gates.iter().enumerate() {
            assert!(g <= row.initial_gates, "alg {i}");
            assert!(row.cost[i].steps > 0, "alg {i}");
        }
        // The cut engine never loses to plain area optimization here.
        assert!(row.gates[4] <= row.gates[0], "{row:?}");
    }

    #[test]
    fn parallel_algs_sweep_matches_sequential() {
        let opts = OptOptions::with_effort(2);
        let seq = run_algs(&opts, 1);
        let par3 = run_algs(&opts, 3);
        assert_eq!(seq, par3);
    }

    #[test]
    fn parallel_aig_sweep_matches_sequential() {
        // The (cheap) small-suite sweep: the parallel runner must return
        // row-identical results. Table II parallel equality is covered at
        // the integration level.
        let opts = OptOptions::with_effort(4);
        let seq = run_table3_aig(&opts, 1);
        let par2 = run_table3_aig(&opts, 2);
        assert_eq!(seq.len(), par2.len());
        for (a, b) in seq.iter().zip(&par2) {
            assert_eq!(a.info.name, b.info.name);
            assert_eq!(a.aig_steps, b.aig_steps);
            assert_eq!(a.mig_imp, b.mig_imp);
            assert_eq!(a.mig_maj, b.mig_maj);
        }
    }
}
