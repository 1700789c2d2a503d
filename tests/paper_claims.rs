//! Shape assertions for the paper's evaluation claims, run at reduced
//! effort on the embedded suite (`rms bench` runs the full effort-40
//! configuration). "Shape" means: who wins, and in which
//! direction the trade-offs go — not absolute numbers, since the substrate
//! circuits are substitutes (see ARCHITECTURE.md).

use rms_bench::reports::{Evaluation, Section};
use rms_bench::runner::{self, Config};
use rram_mig::logic::bench_suite::{BenchmarkInfo, LARGE_SUITE, SMALL_SUITE};
use rram_mig::mig::cost::{Realization, RramCost};
use rram_mig::mig::opt::{Algorithm, OptOptions};

const AREA_IMP: Config = (Algorithm::Area, Realization::Imp);
const DEPTH_IMP: Config = (Algorithm::Depth, Realization::Imp);
const RRAM_IMP: Config = (Algorithm::RramCosts, Realization::Imp);
const RRAM_MAJ: Config = (Algorithm::RramCosts, Realization::Maj);
const STEP_IMP: Config = (Algorithm::Steps, Realization::Imp);
const STEP_MAJ: Config = (Algorithm::Steps, Realization::Maj);

/// The evaluation of Tables II and III, computed once per process: every
/// case below reads it, and on a small CI box recomputing it per test
/// dominated the suite's wall time.
fn evaluation() -> &'static Evaluation {
    use std::sync::OnceLock;
    static EVALUATION: OnceLock<Evaluation> = OnceLock::new();
    EVALUATION.get_or_init(|| {
        Evaluation::run(
            &[Section::Table2, Section::Table3],
            &OptOptions::with_effort(10),
            1,
        )
    })
}

/// The index of circuit `name` in `suite`, where the baselines keep it.
fn position(suite: &[BenchmarkInfo], name: &str) -> usize {
    let found = suite.iter().position(|info| info.name == name);
    found.unwrap_or_else(|| panic!("{name}: not in the suite"))
}

/// Σ of `config` over the Table II suite.
fn table2_sum(config: Config) -> RramCost {
    evaluation().table.sum(LARGE_SUITE, config)
}

#[test]
fn maj_realization_beats_imp_by_about_3x_in_steps() {
    let step_imp = table2_sum(STEP_IMP);
    let step_maj = table2_sum(STEP_MAJ);
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
    let rram_maj = table2_sum(RRAM_MAJ);
    let step_maj = table2_sum(STEP_MAJ);
    let rram_imp = table2_sum(RRAM_IMP);
    let step_imp = table2_sum(STEP_IMP);
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
    let rram_maj = table2_sum(RRAM_MAJ);
    let step_maj = table2_sum(STEP_MAJ);
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
    let area = table2_sum(AREA_IMP);
    let rram = table2_sum(RRAM_IMP);
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
    let area = table2_sum(AREA_IMP);
    for (name, sum) in [
        ("Depth-IMP", table2_sum(DEPTH_IMP)),
        ("RRAM-IMP", table2_sum(RRAM_IMP)),
        ("Step-IMP", table2_sum(STEP_IMP)),
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
    let ev = evaluation();
    let bdd = runner::sum(ev.bdd.iter().copied());
    let maj = table2_sum(RRAM_MAJ);
    let ratio = bdd.steps as f64 / maj.steps as f64;
    assert!(ratio > 3.0, "aggregate BDD/MIG-MAJ step ratio {ratio}");
    // The paper highlights the two 135-input benchmarks (factor ~26).
    for name in ["apex6", "x3"] {
        let bdd = ev.bdd[position(LARGE_SUITE, name)];
        let r = bdd.steps as f64 / ev.table.row(name).cost(RRAM_MAJ).steps as f64;
        assert!(r > 8.0, "{name}: BDD/MIG-MAJ ratio {r}");
    }
}

#[test]
fn mig_flow_beats_aig_baseline_on_steps() {
    let ev = evaluation();
    let aig: u64 = ev.aig.iter().sum();
    let maj = ev.table.sum(SMALL_SUITE, RRAM_MAJ);
    let imp = ev.table.sum(SMALL_SUITE, RRAM_IMP);
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
        let aig = ev.aig[position(SMALL_SUITE, name)];
        let maj = ev.table.row(name).cost(RRAM_MAJ).steps;
        assert!(aig > 4 * maj, "{name}: AIG {aig} vs MIG-MAJ {maj}");
    }
}
