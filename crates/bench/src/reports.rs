//! Renders the paper's tables and figure reproductions as text reports.
//!
//! Each function returns a complete printable report; each section of
//! the `rms bench` subcommand is a one-line wrapper around one of them.
//! Sweeps accept a `jobs` worker count (`0` = all cores, `1` =
//! sequential) and produce identical text for any value — only the
//! wall-clock time changes.

use crate::format::{percent_change, ratio, rs, TextTable};
use crate::runner::{self, Measured};
use rms_bdd::BddSynthOptions;
use rms_core::cost::Realization;
use rms_core::opt::{self, Algorithm, OptOptions};
use rms_core::rewrite::{inverter_propagation, InverterCases};
use rms_core::Mig;
use rms_logic::bench_suite;
use rms_logic::paper_data;
use rms_rram::device::{ImpGate, Rram};
use rms_rram::gates::{imp_majority_gate, maj_majority_gate};
use rms_rram::machine::Machine;
use std::fmt::Write as _;
use std::time::Instant;

/// Regenerates Table II: R and S for the 25 large benchmarks under all
/// six optimizer/realization configurations, with the paper's Σ row.
pub fn table2_report(opts: &OptOptions, jobs: usize) -> String {
    let t0 = Instant::now();
    let rows = runner::run_table2(opts, jobs);
    let elapsed = t0.elapsed();

    let mut table = TextTable::new(&[
        "benchmark",
        "in",
        "Area-IMP",
        "Depth-IMP",
        "RRAM-IMP",
        "RRAM-MAJ",
        "Step-IMP",
        "Step-MAJ",
    ]);
    for r in &rows {
        table.row(vec![
            r.info.name.to_string(),
            r.info.inputs.to_string(),
            rs(r.area_imp),
            rs(r.depth_imp),
            rs(r.rram_imp),
            rs(r.rram_maj),
            rs(r.step_imp),
            rs(r.step_maj),
        ]);
    }
    let sums: Vec<Measured> = (0..6)
        .map(|i| runner::sum_by(&rows, |r| r.columns()[i]))
        .collect();
    table.row(vec![
        "SUM (measured)".into(),
        rows.iter()
            .map(|r| r.info.inputs)
            .sum::<usize>()
            .to_string(),
        rs(sums[0]),
        rs(sums[1]),
        rs(sums[2]),
        rs(sums[3]),
        rs(sums[4]),
        rs(sums[5]),
    ]);
    let paper = runner::paper_table2_sums();
    table.row(vec![
        "SUM (paper)".into(),
        paper_data::TABLE2_SUM.inputs.to_string(),
        rs(paper[0]),
        rs(paper[1]),
        rs(paper[2]),
        rs(paper[3]),
        rs(paper[4]),
        rs(paper[5]),
    ]);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table II reproduction (R/S per configuration, effort = {})",
        opts.effort
    );
    let _ = writeln!(
        out,
        "Substrate circuits are the embedded suite (see ARCHITECTURE.md); compare shapes, not absolutes.\n"
    );
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\noptimization run-time for the whole suite: {elapsed:.2?} (paper: < 3 s)"
    );
    out
}

/// The engine performance profile behind `rms bench --profile`: rebuild
/// baseline vs the incremental in-place engine over the selected suite,
/// with the parallel bit-identity and verification columns.
pub fn profile_report(report: &crate::timing::ProfileReport) -> String {
    let mut table = TextTable::new(&[
        "benchmark",
        "in",
        "gates",
        "Δgates",
        "rebuild",
        "incremental",
        "speedup",
        &format!("jobs={}", runner::PROFILE_JOBS),
        "phases e/v/c/g",
        "cycles",
        "rewrites",
        "verified",
    ]);
    for r in &report.rows {
        table.row(vec![
            r.name.to_string(),
            r.inputs.to_string(),
            format!("{} -> {}", r.initial_gates, r.gates),
            format!("{:+}", r.gates_delta),
            format!("{:.2}ms", r.baseline_ms),
            format!("{:.2}ms", r.incremental_ms),
            format!("{:.2}x", r.speedup()),
            format!(
                "{:.2}ms{}",
                r.par_ms,
                if r.par_identical { "" } else { " (DIFFERS)" }
            ),
            format!(
                "{:.0}/{:.0}/{:.0}/{:.0}ms",
                r.t_cut_enum_ms, r.t_eval_ms, r.t_commit_ms, r.t_gc_ms
            ),
            r.cycles.to_string(),
            r.rewrites.to_string(),
            r.verified.clone(),
        ]);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Cut-engine performance profile ({} suite, effort {}, median of {} runs; baseline = pre-incremental rebuild engine)",
        report.suite, report.effort, report.iters
    );
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\ntotal: rebuild {:.2}ms | incremental {:.2}ms | speedup {:.2}x",
        report.total_baseline_ms(),
        report.total_incremental_ms(),
        report.speedup()
    );
    let _ = writeln!(
        out,
        "parallel: {}/{} rows bit-identical at jobs={}; --jobs sweep consistent: {}",
        report.rows.iter().filter(|r| r.par_identical).count(),
        report.rows.len(),
        runner::PROFILE_JOBS,
        report.jobs_consistent
    );
    let _ = writeln!(
        out,
        "verified rows: {}/{}; quality regressions vs baseline: {}",
        report.rows.iter().filter(|r| r.is_verified()).count(),
        report.rows.len(),
        report.rows.iter().filter(|r| r.quality_regressed()).count()
    );
    out
}

/// The algorithm-comparison sweep: Algs. 1–4 vs. the cut-rewriting
/// engine (node counts and MAJ-realization R/S over the small suite).
pub fn algs_report(opts: &OptOptions, jobs: usize) -> String {
    let t0 = Instant::now();
    let rows = runner::run_algs(opts, jobs);
    let elapsed = t0.elapsed();

    let mut table = TextTable::new(&[
        "benchmark",
        "initial",
        "Area",
        "Depth",
        "RRAM",
        "Step",
        "Cut",
        "Cut+RRAM",
        "rewrites",
        "verified",
    ]);
    let mut cut_wins = 0usize;
    let mut verified_rows = 0usize;
    let mut gate_sums = [0u64; 6];
    let mut rs_sums = [0u64; 6];
    for r in &rows {
        table.row(vec![
            r.info.name.to_string(),
            r.initial_gates.to_string(),
            format!("{} ({})", r.gates[0], rs(r.cost[0])),
            format!("{} ({})", r.gates[1], rs(r.cost[1])),
            format!("{} ({})", r.gates[2], rs(r.cost[2])),
            format!("{} ({})", r.gates[3], rs(r.cost[3])),
            format!("{} ({})", r.gates[4], rs(r.cost[4])),
            format!("{} ({})", r.gates[5], rs(r.cost[5])),
            r.cut_rewrites.to_string(),
            r.verified.clone(),
        ]);
        if r.gates[4] <= r.gates[0] {
            cut_wins += 1;
        }
        // Only full-input-space guarantees count as verified; a
        // sampled fallback (SAT budget exceeded) is visible in the
        // column but not claimed as a proof.
        if r.verified.starts_with("exhaustive") || r.verified.starts_with("SAT") {
            verified_rows += 1;
        }
        for i in 0..6 {
            gate_sums[i] += r.gates[i];
            rs_sums[i] += r.cost[i].rrams * r.cost[i].steps;
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Algorithm comparison (gates and MAJ-realization R/S, effort = {})",
        opts.effort
    );
    let _ = writeln!(
        out,
        "Columns: Algs. 1-4 of the paper, then the cut-rewriting engine (Alg. 5) and the cut+RRAM hybrid.\n"
    );
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\ncut <= area on gates: {cut_wins}/{} benchmarks",
        rows.len()
    );
    let _ = writeln!(
        out,
        "machine-verified rows: {verified_rows}/{} (exhaustive <= 14 inputs, SAT proof above)",
        rows.len()
    );
    let _ = writeln!(
        out,
        "total gates: area {} | cut {} ({} vs area)",
        gate_sums[0],
        gate_sums[4],
        percent_change(gate_sums[4], gate_sums[0])
    );
    let _ = writeln!(
        out,
        "sum of R*S products: rram {} | cut+rram {} ({} vs rram)",
        rs_sums[2],
        rs_sums[5],
        percent_change(rs_sums[5], rs_sums[2])
    );
    let _ = writeln!(out, "sweep run-time: {elapsed:.2?}");
    out
}

/// Regenerates Table III: the MIG flow vs. the BDD-based \[11\] and the
/// AIG-based \[12\] RRAM synthesis baselines.
pub fn table3_report(opts: &OptOptions, synth: &BddSynthOptions, jobs: usize) -> String {
    let mut out = String::new();

    // ---- Left half: BDD [11] ---------------------------------------------
    let rows = runner::run_table3_bdd(opts, synth, jobs);
    let mut table = TextTable::new(&[
        "benchmark",
        "in",
        "BDD R/S",
        "MIG-IMP R/S",
        "MIG-MAJ R/S",
        "paper BDD R/S",
    ]);
    for r in &rows {
        let paper = paper_data::table3_bdd_row(r.info.name)
            .map(|p| format!("{}/{}", p.bdd.rrams, p.bdd.steps))
            .unwrap_or_else(|| "-".into());
        table.row(vec![
            r.info.name.to_string(),
            r.info.inputs.to_string(),
            rs(r.bdd),
            rs(r.mig_imp),
            rs(r.mig_maj),
            paper,
        ]);
    }
    let bdd_sum = runner::sum_by(&rows, |r| r.bdd);
    let imp_sum = runner::sum_by(&rows, |r| r.mig_imp);
    let maj_sum = runner::sum_by(&rows, |r| r.mig_maj);
    table.row(vec![
        "SUM (measured)".into(),
        "".into(),
        rs(bdd_sum),
        rs(imp_sum),
        rs(maj_sum),
        "".into(),
    ]);
    let p = paper_data::TABLE3_BDD_SUM;
    table.row(vec![
        "SUM (paper)".into(),
        "".into(),
        format!("{}/{}", p.bdd.rrams, p.bdd.steps),
        format!("{}/{}", p.mig_imp.rrams, p.mig_imp.steps),
        format!("{}/{}", p.mig_maj.rrams, p.mig_maj.steps),
        "".into(),
    ]);
    let _ = writeln!(
        out,
        "Table III (left): MIG multi-objective flow vs. BDD-based synthesis [11]"
    );
    let _ = writeln!(
        out,
        "BDD schedule: level-parallel muxes, row capacity {} (see rms-bdd docs)\n",
        synth.row_capacity
    );
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\nstep ratio BDD / MIG-MAJ: measured {} (paper {}), BDD / MIG-IMP: measured {} (paper {})",
        ratio(bdd_sum.steps, maj_sum.steps),
        ratio(p.bdd.steps, p.mig_maj.steps),
        ratio(bdd_sum.steps, imp_sum.steps),
        ratio(p.bdd.steps, p.mig_imp.steps),
    );
    for name in ["apex6", "x3"] {
        if let (Some(m), Some(pr)) = (
            rows.iter().find(|r| r.info.name == name),
            paper_data::table3_bdd_row(name),
        ) {
            let _ = writeln!(
                out,
                "largest benchmark {name}: BDD/MIG-MAJ step ratio measured {} (paper {})",
                ratio(m.bdd.steps, m.mig_maj.steps),
                ratio(pr.bdd.steps, pr.mig_maj.steps)
            );
        }
    }

    // ---- Right half: AIG [12] --------------------------------------------
    let rows = runner::run_table3_aig(opts, jobs);
    let mut table = TextTable::new(&[
        "benchmark",
        "in",
        "AIG S",
        "MIG-IMP R/S",
        "MIG-MAJ R/S",
        "paper AIG S",
    ]);
    for r in &rows {
        let paper = paper_data::table3_aig_row(r.info.name)
            .map(|p| p.aig_steps.to_string())
            .unwrap_or_else(|| "-".into());
        table.row(vec![
            r.info.name.to_string(),
            r.info.inputs.to_string(),
            r.aig_steps.to_string(),
            rs(r.mig_imp),
            rs(r.mig_maj),
            paper,
        ]);
    }
    let aig_steps: u64 = rows.iter().map(|r| r.aig_steps).sum();
    let imp_sum = runner::sum_by(&rows, |r| r.mig_imp);
    let maj_sum = runner::sum_by(&rows, |r| r.mig_maj);
    table.row(vec![
        "SUM (measured)".into(),
        "".into(),
        aig_steps.to_string(),
        rs(imp_sum),
        rs(maj_sum),
        "".into(),
    ]);
    let p = paper_data::TABLE3_AIG_SUM;
    table.row(vec![
        "SUM (paper)".into(),
        "".into(),
        p.aig_steps.to_string(),
        format!("{}/{}", p.mig_imp.rrams, p.mig_imp.steps),
        format!("{}/{}", p.mig_maj.rrams, p.mig_maj.steps),
        "".into(),
    ]);
    let _ = writeln!(
        out,
        "\nTable III (right): MIG multi-objective flow vs. AIG-based synthesis [12]"
    );
    let _ = writeln!(
        out,
        "AIG schedule: node-serial implication sequences (see rms-aig docs)\n"
    );
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\nstep ratio AIG / MIG-MAJ: measured {} (paper {}), AIG / MIG-IMP: measured {} (paper {})",
        ratio(aig_steps, maj_sum.steps),
        ratio(p.aig_steps, p.mig_maj.steps),
        ratio(aig_steps, imp_sum.steps),
        ratio(p.aig_steps, p.mig_imp.steps),
    );
    out
}

/// Prints the paper's headline claims next to the measured equivalents.
pub fn summary_report(opts: &OptOptions, jobs: usize) -> String {
    let t0 = Instant::now();
    let t2 = runner::run_table2(opts, jobs);
    let runtime = t0.elapsed();
    let bdd = runner::run_table3_bdd(opts, &BddSynthOptions::default(), jobs);
    let aig = runner::run_table3_aig(opts, jobs);

    let sums: Vec<Measured> = (0..6)
        .map(|i| runner::sum_by(&t2, |r| r.columns()[i]))
        .collect();
    let p = runner::paper_table2_sums();

    let mut table = TextTable::new(&["claim", "paper", "measured"]);

    // Step reduction of the multi-objective algorithm vs. Alg. 1 (Sec. IV-B).
    table.row(vec![
        "RRAM-IMP steps vs Area-IMP".into(),
        "-35.4%".into(),
        percent_change(sums[2].steps, sums[0].steps),
    ]);
    // Step optimization vs. conventional depth optimization.
    table.row(vec![
        "Step-IMP steps vs Depth-IMP".into(),
        "-30.4%".into(),
        percent_change(sums[4].steps, sums[1].steps),
    ]);
    // Multi-objective trade-off against step optimization (MAJ).
    table.row(vec![
        "RRAM-MAJ devices vs Step-MAJ".into(),
        "-19.8%".into(),
        percent_change(sums[3].rrams, sums[5].rrams),
    ]);
    table.row(vec![
        "RRAM-MAJ steps vs Step-MAJ".into(),
        "+21.1%".into(),
        percent_change(sums[3].steps, sums[5].steps),
    ]);
    // MAJ vs IMP realization on the same algorithm.
    table.row(vec![
        "Step-IMP / Step-MAJ step ratio".into(),
        ratio(p[4].steps, p[5].steps),
        ratio(sums[4].steps, sums[5].steps),
    ]);

    // BDD comparison.
    let bdd_sum = runner::sum_by(&bdd, |r| r.bdd);
    let maj_sum = runner::sum_by(&bdd, |r| r.mig_maj);
    let imp_sum = runner::sum_by(&bdd, |r| r.mig_imp);
    let pb = paper_data::TABLE3_BDD_SUM;
    table.row(vec![
        "BDD / MIG-MAJ step ratio".into(),
        ratio(pb.bdd.steps, pb.mig_maj.steps),
        ratio(bdd_sum.steps, maj_sum.steps),
    ]);
    table.row(vec![
        "BDD / MIG-IMP step ratio".into(),
        ratio(pb.bdd.steps, pb.mig_imp.steps),
        ratio(bdd_sum.steps, imp_sum.steps),
    ]);
    table.row(vec![
        "MIG-MAJ devices vs BDD".into(),
        "+57.4%".into(),
        percent_change(maj_sum.rrams, bdd_sum.rrams),
    ]);
    for name in ["apex6", "x3"] {
        let m = bdd.iter().find(|r| r.info.name == name).expect("row");
        let pr = paper_data::table3_bdd_row(name).expect("row");
        table.row(vec![
            format!("{name}: BDD / MIG-MAJ step ratio"),
            ratio(pr.bdd.steps, pr.mig_maj.steps),
            ratio(m.bdd.steps, m.mig_maj.steps),
        ]);
    }

    // AIG comparison.
    let aig_steps: u64 = aig.iter().map(|r| r.aig_steps).sum();
    let maj_sum = runner::sum_by(&aig, |r| r.mig_maj);
    let imp_sum = runner::sum_by(&aig, |r| r.mig_imp);
    let pa = paper_data::TABLE3_AIG_SUM;
    table.row(vec![
        "AIG / MIG-MAJ step ratio".into(),
        ratio(pa.aig_steps, pa.mig_maj.steps),
        ratio(aig_steps, maj_sum.steps),
    ]);
    table.row(vec![
        "AIG / MIG-IMP step ratio".into(),
        ratio(pa.aig_steps, pa.mig_imp.steps),
        ratio(aig_steps, imp_sum.steps),
    ]);

    table.row(vec![
        "whole-suite optimization run-time".into(),
        "< 3 s".into(),
        format!("{runtime:.2?}"),
    ]);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Headline claims, paper vs. measured (substitute suite; compare signs/magnitudes)\n"
    );
    out.push_str(&table.render());
    out
}

/// Measures the Sec. IV-A run-time claim ("< 3 s for the whole benchmark
/// set") per algorithm, sequentially — the claim is about single-thread
/// algorithm speed, so no pool is used.
pub fn runtime_report(opts: &OptOptions) -> String {
    let migs: Vec<Mig> = bench_suite::LARGE_SUITE
        .iter()
        .map(|info| Mig::from_netlist(&bench_suite::build_info(info)))
        .collect();

    let mut table = TextTable::new(&["algorithm", "whole-suite run-time", "paper bound"]);
    for alg in Algorithm::ALL {
        let t0 = Instant::now();
        for mig in &migs {
            let _ = alg.run(mig, Realization::Maj, opts);
        }
        table.row(vec![
            alg.to_string(),
            format!("{:.2?}", t0.elapsed()),
            "< 3 s".into(),
        ]);
    }
    // The proposed algorithms also run per-realization; measure Alg. 3
    // under IMP scoring as well.
    for (name, real) in [("RRAM costs (IMP)", Realization::Imp)] {
        let t0 = Instant::now();
        for mig in &migs {
            let _ = opt::optimize_rram(mig, real, opts);
        }
        table.row(vec![
            name.into(),
            format!("{:.2?}", t0.elapsed()),
            "< 3 s".into(),
        ]);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Run-time of each algorithm over the whole {}-benchmark suite (effort = {})\n",
        bench_suite::LARGE_SUITE.len(),
        opts.effort
    );
    out.push_str(&table.render());
    out
}

/// Regenerates the paper's figures on the RRAM machine: the IMP truth
/// table (Fig. 1), the intrinsic-majority next-state table (Fig. 2), both
/// majority-gate programs (Fig. 3 / Sec. III-A2), and the Fig. 4
/// inverter-propagation example.
pub fn figures_report() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Fig. 1(b): IMP truth table (q' = p IMP q) ==");
    let _ = writeln!(out, "p q | q'");
    for p in [false, true] {
        for q in [false, true] {
            let mut g = ImpGate::new(p, q);
            g.imply();
            let _ = writeln!(out, "{} {} | {}", p as u8, q as u8, g.q() as u8);
        }
    }

    let _ = writeln!(out, "\n== Fig. 2: intrinsic majority R' = M(P, !Q, R) ==");
    let _ = writeln!(out, "P Q R | R'");
    for m in 0..8u32 {
        let (p, q, r0) = (m & 4 != 0, m & 2 != 0, m & 1 != 0);
        let mut r = Rram::new(r0);
        r.apply(p, q);
        let _ = writeln!(
            out,
            "{} {} {} | {}",
            p as u8,
            q as u8,
            r0 as u8,
            r.state() as u8
        );
    }

    let _ = writeln!(
        out,
        "\n== Fig. 3: IMP-based majority gate (6 RRAMs, 10 steps) =="
    );
    let prog = imp_majority_gate();
    out.push_str(&prog.listing());
    let tts = Machine::truth_tables(&prog).expect("valid program");
    let _ = writeln!(out, "computed function: {} (majority of 3 = e8)", tts[0]);

    let _ = writeln!(
        out,
        "\n== Sec. III-A2: MAJ-based majority gate (4 RRAMs, 3 steps) =="
    );
    let prog = maj_majority_gate();
    out.push_str(&prog.listing());
    let tts = Machine::truth_tables(&prog).expect("valid program");
    let _ = writeln!(out, "computed function: {} (majority of 3 = e8)", tts[0]);

    let _ = writeln!(
        out,
        "\n== Fig. 4: inverter propagation moving a complemented level =="
    );
    let mut mig = Mig::with_inputs("fig4", 6);
    let (x, u, y, z, v, w) = (
        mig.input(0),
        mig.input(1),
        mig.input(2),
        mig.input(3),
        mig.input(4),
        mig.input(5),
    );
    let a = mig.maj(u, y, z);
    let b = mig.maj(z, v, w);
    let top = mig.maj(x, !a, !b);
    // The output edge is complemented, so the level above is already
    // tainted: moving the pair of complements up releases the output level
    // and removes one complemented edge from the critical level — exactly
    // the effect Fig. 4 illustrates.
    mig.add_output("f", !top);
    let before = rms_core::cost::LevelProfile::of(&mig);
    let opt = inverter_propagation(&mig, InverterCases::ALL, true);
    let after = rms_core::cost::LevelProfile::of(&opt);
    let _ = writeln!(
        out,
        "before: complemented edges per level {:?} (L = {})",
        before.compl_per_level, before.levels_with_compl
    );
    let _ = writeln!(
        out,
        "after:  complemented edges per level {:?} (L = {})",
        after.compl_per_level, after.levels_with_compl
    );
    let same = mig.truth_tables() == opt.truth_tables();
    let _ = writeln!(out, "functions equivalent: {same}");
    out
}

/// Renders the sweep+resub-vs-cut comparison produced by
/// [`runner::run_sweep`]: per-benchmark gate counts, fraig/resub
/// activity, and the acceptance summary (never worse than the cut
/// baseline, every row machine-verified, bit-identical across worker
/// counts).
pub fn sweep_report(report: &runner::SweepReport) -> String {
    let mut table = TextTable::new(&[
        "benchmark",
        "initial",
        "cut",
        "sweep+resub",
        "merges",
        "resubs",
        "conflicts",
        "verified",
    ]);
    let mut never_worse = 0usize;
    let mut strict_wins = 0usize;
    let mut verified_rows = 0usize;
    let mut cut_sum = 0u64;
    let mut sweep_sum = 0u64;
    for r in &report.rows {
        table.row(vec![
            r.info.name.to_string(),
            r.initial_gates.to_string(),
            r.cut_gates.to_string(),
            r.sweep_gates.to_string(),
            r.fraig_merges.to_string(),
            r.resubs.to_string(),
            r.sat_conflicts.to_string(),
            r.verified.clone(),
        ]);
        if r.sweep_gates <= r.cut_gates {
            never_worse += 1;
        }
        if r.sweep_gates < r.cut_gates {
            strict_wins += 1;
        }
        if r.verified.starts_with("exhaustive") || r.verified.starts_with("SAT") {
            verified_rows += 1;
        }
        cut_sum += r.cut_gates;
        sweep_sum += r.sweep_gates;
    }

    let n = report.rows.len();
    let mut out = String::new();
    let _ = writeln!(out, "SAT sweep + resubstitution vs the cut baseline");
    let _ = writeln!(
        out,
        "Both columns start from the same cut-script result; sweep+resub layers fraig and resub passes on top.\n"
    );
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\nsweep+resub <= cut on gates: {never_worse}/{n} benchmarks"
    );
    let _ = writeln!(
        out,
        "strictly better than cut: {strict_wins}/{n} benchmarks"
    );
    let _ = writeln!(
        out,
        "machine-verified rows: {verified_rows}/{n} (exhaustive <= 14 inputs, SAT proof above)"
    );
    let _ = writeln!(
        out,
        "total gates: cut {cut_sum} | sweep+resub {sweep_sum} ({} vs cut)",
        percent_change(sweep_sum, cut_sum)
    );
    let _ = writeln!(
        out,
        "worker counts bit-identical: {}",
        if report.jobs_identical { "yes" } else { "NO" }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_report_is_self_checking() {
        let text = figures_report();
        assert!(text.contains("majority of 3 = e8"));
        assert!(text.contains("functions equivalent: true"));
    }

    #[test]
    fn runtime_report_lists_all_algorithms() {
        let text = runtime_report(&OptOptions::with_effort(1));
        for alg in Algorithm::ALL {
            assert!(text.contains(&alg.to_string()), "{alg} missing:\n{text}");
        }
    }

    #[test]
    fn algs_report_summarizes_the_sweep() {
        let text = algs_report(&OptOptions::with_effort(2), 0);
        assert!(text.contains("Cut+RRAM"), "{text}");
        assert!(text.contains("cut <= area on gates:"), "{text}");
        assert!(text.contains("/25 benchmarks"), "{text}");
    }
}
