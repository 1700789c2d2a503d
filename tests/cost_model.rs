//! Table I cost-model validation: the closed-form `R` and `S` formulas must
//! equal what the cycle-accurate machine actually measures, for every
//! benchmark, every optimization algorithm, and both realizations.

use rram_mig::flow::run_algorithm;
use rram_mig::logic::bench_suite;
use rram_mig::mig::cost::{LevelProfile, Realization, RramCost};
use rram_mig::mig::opt::{Algorithm, OptOptions};
use rram_mig::mig::Mig;
use rram_mig::rram::compile::compile;

#[test]
fn formulas_match_machine_on_initial_migs() {
    for info in bench_suite::LARGE_SUITE
        .iter()
        .chain(bench_suite::SMALL_SUITE)
    {
        let mig = Mig::from_netlist(&bench_suite::build_info(info)).compact();
        for real in Realization::ALL {
            let cost = RramCost::of(&mig, real);
            let circuit = compile(&mig, real);
            assert_eq!(
                circuit.program.num_steps(),
                cost.steps,
                "{}/{real}: S = K*D + L",
                info.name
            );
            assert_eq!(
                circuit.model_rrams, cost.rrams,
                "{}/{real}: R = max(K*Ni + Ci)",
                info.name
            );
            assert!(
                circuit.physical_rrams >= circuit.model_rrams,
                "{}/{real}: physical devices must cover the model",
                info.name
            );
        }
    }
}

#[test]
fn formulas_match_machine_after_optimization() {
    let opts = OptOptions::with_effort(6);
    for name in ["x2", "cordic", "misex1", "9sym_d", "clip", "t481"] {
        let mig = Mig::from_netlist(&bench_suite::build(name).expect("known benchmark"));
        for alg in Algorithm::ALL {
            for real in Realization::ALL {
                let (opt, _) = run_algorithm(&mig, alg, real, &opts);
                let cost = RramCost::of(&opt, real);
                let circuit = compile(&opt, real);
                assert_eq!(
                    circuit.program.num_steps(),
                    cost.steps,
                    "{name}/{alg}/{real}: steps"
                );
                assert_eq!(
                    circuit.model_rrams, cost.rrams,
                    "{name}/{alg}/{real}: rrams"
                );
            }
        }
    }
}

#[test]
fn s_decomposes_into_depth_and_complemented_levels() {
    for info in bench_suite::LARGE_SUITE {
        let mig = Mig::from_netlist(&bench_suite::build_info(info)).compact();
        let profile = LevelProfile::of(&mig);
        for real in Realization::ALL {
            let cost = RramCost::of(&mig, real);
            assert_eq!(
                cost.steps,
                real.steps_per_level() * profile.depth + profile.levels_with_compl,
                "{}/{real}",
                info.name
            );
        }
    }
}

#[test]
fn maj_realization_always_cheaper_in_steps() {
    // 3 steps/level vs 10 steps/level: MAJ strictly wins on any circuit
    // with at least one level.
    for info in bench_suite::SMALL_SUITE {
        let mig = Mig::from_netlist(&bench_suite::build_info(info)).compact();
        let imp = RramCost::of(&mig, Realization::Imp);
        let maj = RramCost::of(&mig, Realization::Maj);
        assert!(maj.steps < imp.steps, "{}", info.name);
        assert!(maj.rrams <= imp.rrams, "{}", info.name);
    }
}
