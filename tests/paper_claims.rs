//! Shape assertions for the paper's evaluation claims, run at reduced
//! effort on the embedded suite (the `repro_*` binaries run the full
//! effort-40 configuration). "Shape" means: who wins, and in which
//! direction the trade-offs go — not absolute numbers, since the substrate
//! circuits are substitutes (see ARCHITECTURE.md).

use rms_bench::runner;
use rram_mig::bdd::BddSynthOptions;
use rram_mig::mig::opt::OptOptions;

fn opts() -> OptOptions {
    OptOptions::with_effort(10)
}

/// The Table II evaluation, computed once per process: five of the cases
/// below consume the identical sweep, and on a small CI box recomputing
/// it per test dominated the suite's wall time.
fn table2_rows() -> &'static [runner::Table2Measured] {
    use std::sync::OnceLock;
    static ROWS: OnceLock<Vec<runner::Table2Measured>> = OnceLock::new();
    ROWS.get_or_init(|| runner::run_table2(&opts(), 1))
}

#[test]
fn maj_realization_beats_imp_by_about_3x_in_steps() {
    let rows = table2_rows();
    let step_imp = runner::sum_by(rows, |r| r.step_imp);
    let step_maj = runner::sum_by(rows, |r| r.step_maj);
    let ratio = step_imp.steps as f64 / step_maj.steps as f64;
    // The paper's sigma row gives 2594/953 = 2.72; with S = K*D + L the
    // ratio must land between 10/4 = 2.5 and 10/3 = 3.33.
    assert!(
        (2.3..=3.4).contains(&ratio),
        "Step-IMP/Step-MAJ ratio {ratio}"
    );
}

#[test]
fn step_optimization_minimizes_steps_per_realization() {
    let rows = table2_rows();
    let rram_maj = runner::sum_by(rows, |r| r.rram_maj);
    let step_maj = runner::sum_by(rows, |r| r.step_maj);
    let rram_imp = runner::sum_by(rows, |r| r.rram_imp);
    let step_imp = runner::sum_by(rows, |r| r.step_imp);
    assert!(
        step_maj.steps <= rram_maj.steps,
        "step-opt {} vs multi-objective {} (MAJ)",
        step_maj.steps,
        rram_maj.steps
    );
    assert!(
        step_imp.steps <= rram_imp.steps,
        "step-opt {} vs multi-objective {} (IMP)",
        step_imp.steps,
        rram_imp.steps
    );
}

#[test]
fn multi_objective_trades_devices_for_steps() {
    let rows = table2_rows();
    let rram_maj = runner::sum_by(rows, |r| r.rram_maj);
    let step_maj = runner::sum_by(rows, |r| r.step_maj);
    // The paper: RRAM-MAJ has ~19.8% fewer devices at ~21% more steps than
    // Step-MAJ; we assert the directions.
    assert!(
        rram_maj.rrams <= step_maj.rrams,
        "multi-objective devices {} vs step-opt {}",
        rram_maj.rrams,
        step_maj.rrams
    );
    assert!(
        rram_maj.steps >= step_maj.steps,
        "multi-objective steps {} vs step-opt {}",
        rram_maj.steps,
        step_maj.steps
    );
}

#[test]
fn proposed_algorithms_improve_steps_over_conventional_area_opt() {
    let rows = table2_rows();
    let area = runner::sum_by(rows, |r| r.area_imp);
    let rram = runner::sum_by(rows, |r| r.rram_imp);
    // Paper: 35.39% step reduction; assert a substantial one.
    let reduction = 1.0 - rram.steps as f64 / area.steps as f64;
    assert!(
        reduction > 0.15,
        "RRAM-IMP steps {} vs Area-IMP {} (reduction {reduction:.2})",
        rram.steps,
        area.steps
    );
}

#[test]
fn area_optimization_has_the_smallest_imp_device_count() {
    let rows = table2_rows();
    let area = runner::sum_by(rows, |r| r.area_imp);
    for (name, sum) in [
        ("Depth-IMP", runner::sum_by(rows, |r| r.depth_imp)),
        ("RRAM-IMP", runner::sum_by(rows, |r| r.rram_imp)),
        ("Step-IMP", runner::sum_by(rows, |r| r.step_imp)),
    ] {
        assert!(
            area.rrams <= sum.rrams,
            "Area-IMP devices {} vs {name} {}",
            area.rrams,
            sum.rrams
        );
    }
}

#[test]
fn mig_flow_beats_bdd_baseline_on_steps_especially_when_large() {
    let rows = runner::run_table3_bdd(&opts(), &BddSynthOptions::default(), 1);
    let bdd = runner::sum_by(&rows, |r| r.bdd);
    let maj = runner::sum_by(&rows, |r| r.mig_maj);
    let ratio = bdd.steps as f64 / maj.steps as f64;
    assert!(ratio > 3.0, "aggregate BDD/MIG-MAJ step ratio {ratio}");
    // The paper highlights the two 135-input benchmarks (factor ~26).
    for name in ["apex6", "x3"] {
        let row = rows.iter().find(|r| r.info.name == name).expect("row");
        let r = row.bdd.steps as f64 / row.mig_maj.steps as f64;
        assert!(r > 8.0, "{name}: BDD/MIG-MAJ ratio {r}");
    }
}

#[test]
fn mig_flow_beats_aig_baseline_on_steps() {
    let rows = runner::run_table3_aig(&opts(), 1);
    let aig: u64 = rows.iter().map(|r| r.aig_steps).sum();
    let maj = runner::sum_by(&rows, |r| r.mig_maj);
    let imp = runner::sum_by(&rows, |r| r.mig_imp);
    assert!(
        aig as f64 / maj.steps as f64 > 2.0,
        "AIG {} vs MIG-MAJ {}",
        aig,
        maj.steps
    );
    assert!(
        aig > imp.steps,
        "AIG {} should exceed MIG-IMP {}",
        aig,
        imp.steps
    );
    // The paper calls out the AIG blow-up on the two hardest functions.
    for name in ["sym10_d", "t481_d"] {
        let row = rows.iter().find(|r| r.info.name == name).expect("row");
        assert!(
            row.aig_steps > 4 * row.mig_maj.steps,
            "{name}: AIG {} vs MIG-MAJ {}",
            row.aig_steps,
            row.mig_maj.steps
        );
    }
}
