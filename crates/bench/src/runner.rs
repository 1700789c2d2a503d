//! Executes the paper's evaluation flows over the embedded suites.
//!
//! One [`Table`] holds every optimization an evaluation reads. It runs
//! each circuit once per distinct (algorithm, realization)
//! configuration with [`rms_flow::run_algorithm`], on a worker count for
//! [`rms_core::par`] (`0` = all cores, `1` = inline), and keeps each
//! run's graph, [`OptStats`] and optimize time. A mode that ignores the
//! realization ([`Algorithm::reads_realization`]) runs once and is
//! costed under both. The runs are independent, so the table holds the
//! same graphs for every worker count; only the times change. The BDD
//! and AIG baselines of Table III are computed beside it, once per
//! circuit.

use rms_aig::Aig;
use rms_bdd::{build as bdd_build, rram_synth as bdd_rram, BddSynthOptions};
use rms_core::cost::{Realization, RramCost};
use rms_core::opt::{Algorithm, OptOptions, OptStats};
use rms_core::{par, Mig};
use rms_flow::{run_algorithm, VerifyMode, VerifyOutcome};
use rms_logic::bench_suite::{self, BenchmarkInfo};
use rms_logic::Netlist;
use std::time::{Duration, Instant};

/// An optimizer configuration: the mode, and the realization its result
/// is costed under (and optimized for, when the mode reads it).
pub type Config = (Algorithm, Realization);

/// The six Table II configurations, in column order.
pub const TABLE2_CONFIGS: [Config; 6] = [
    (Algorithm::Area, Realization::Imp),
    (Algorithm::Depth, Realization::Imp),
    (Algorithm::RramCosts, Realization::Imp),
    (Algorithm::RramCosts, Realization::Maj),
    (Algorithm::Steps, Realization::Imp),
    (Algorithm::Steps, Realization::Maj),
];

/// The MIG columns of Table III: Alg. 3 under IMP, then under MAJ.
pub const TABLE3_CONFIGS: [Config; 2] = [
    (Algorithm::RramCosts, Realization::Imp),
    (Algorithm::RramCosts, Realization::Maj),
];

/// A circuit to evaluate: its name, its starting MIG, and the
/// configurations to run on it.
#[derive(Debug, Clone)]
pub struct Circuit {
    /// Circuit name, unique within a table.
    pub name: &'static str,
    /// The graph every run starts from.
    pub mig: Mig,
    /// The configurations to run.
    pub configs: Vec<Config>,
}

impl Circuit {
    /// The circuits of `suite`, each built in memory from its netlist,
    /// to be run under `configs`.
    pub fn suite(suite: &'static [BenchmarkInfo], configs: &[Config]) -> Vec<Circuit> {
        suite
            .iter()
            .map(|info| Circuit {
                name: info.name,
                mig: Mig::from_netlist(&bench_suite::build_info(info)),
                configs: configs.to_vec(),
            })
            .collect()
    }
}

/// One optimization run.
#[derive(Debug, Clone)]
pub struct Run {
    /// The optimized graph.
    pub mig: Mig,
    /// The optimizer's counters.
    pub stats: OptStats,
    /// Wall-clock time of the optimizer call alone.
    pub time: Duration,
}

impl Run {
    /// Table I's R and S of the optimized graph under `real`.
    pub fn cost(&self, real: Realization) -> RramCost {
        RramCost::of(&self.mig, real)
    }

    /// Whether `other` returned the same graph, node for node, and the
    /// same counters. The times may differ.
    pub fn same_result(&self, other: &Run) -> bool {
        let (a, b) = (&self.mig, &other.mig);
        self.stats == other.stats
            && a.len() == b.len()
            && a.outputs() == b.outputs()
            && (0..a.len()).all(|i| a.node(i) == b.node(i))
    }
}

/// What identifies a run: the mode, and the realization when the mode
/// reads it.
type RunKey = (Algorithm, Option<Realization>);

fn run_key((alg, real): Config) -> RunKey {
    (alg, alg.reads_realization().then_some(real))
}

/// One circuit's runs.
#[derive(Debug, Clone)]
pub struct Row {
    /// Circuit name.
    pub name: &'static str,
    /// The starting graph.
    pub mig: Mig,
    runs: Vec<(RunKey, Run)>,
}

impl Row {
    /// The run behind `config`.
    ///
    /// # Panics
    ///
    /// Panics if the table was not built with `config` for this circuit.
    pub fn run(&self, config: Config) -> &Run {
        let key = run_key(config);
        let found = self.runs.iter().find(|(k, _)| *k == key);
        found.map(|(_, run)| run).unwrap_or_else(|| {
            panic!(
                "{}: no {} / {} run in the table",
                self.name,
                config.0.token(),
                config.1
            )
        })
    }

    /// Table I's R and S of the run behind `config`, under its
    /// realization.
    pub fn cost(&self, config: Config) -> RramCost {
        self.run(config).cost(config.1)
    }

    /// The distinct runs, in the order of their first configuration.
    pub fn runs(&self) -> impl Iterator<Item = &Run> {
        self.runs.iter().map(|(_, run)| run)
    }
}

/// The evaluation table: one [`Row`] per circuit, in input order.
#[derive(Debug, Clone, Default)]
pub struct Table {
    rows: Vec<Row>,
}

impl Table {
    /// Optimizes every circuit once per distinct configuration, with
    /// `opts`, on `jobs` workers (`0` = all cores).
    pub fn build(circuits: Vec<Circuit>, opts: &OptOptions, jobs: usize) -> Table {
        let keys: Vec<Vec<RunKey>> = circuits
            .iter()
            .map(|c| {
                let mut keys = Vec::new();
                for key in c.configs.iter().map(|&config| run_key(config)) {
                    if !keys.contains(&key) {
                        keys.push(key);
                    }
                }
                keys
            })
            .collect();
        let tasks: Vec<(&Mig, RunKey)> = circuits
            .iter()
            .zip(&keys)
            .flat_map(|(c, keys)| keys.iter().map(move |&key| (&c.mig, key)))
            .collect();
        let runs =
            par::par_map_threads(&tasks, par::resolve_threads(jobs), |&(mig, (alg, real))| {
                let start = Instant::now();
                let (mig, stats) = run_algorithm(mig, alg, real.unwrap_or(Realization::Maj), opts);
                Run {
                    mig,
                    stats,
                    time: start.elapsed(),
                }
            });
        let mut runs = runs.into_iter();
        let rows = circuits
            .into_iter()
            .zip(keys)
            .map(|(c, keys)| Row {
                name: c.name,
                mig: c.mig,
                runs: keys.into_iter().zip(runs.by_ref()).collect(),
            })
            .collect();
        Table { rows }
    }

    /// Every row, in input order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The row of circuit `name`.
    ///
    /// # Panics
    ///
    /// Panics if the table has no such circuit.
    pub fn row(&self, name: &str) -> &Row {
        let found = self.rows.iter().find(|row| row.name == name);
        found.unwrap_or_else(|| panic!("{name}: not in the table"))
    }

    /// The rows of `suite`'s circuits, in suite order, each with its
    /// descriptor.
    pub fn suite(&self, suite: &'static [BenchmarkInfo]) -> Vec<(&'static BenchmarkInfo, &Row)> {
        suite
            .iter()
            .map(|info| (info, self.row(info.name)))
            .collect()
    }

    /// Σ of `config`'s R and S over `suite`.
    pub fn sum(&self, suite: &'static [BenchmarkInfo], config: Config) -> RramCost {
        sum(self.suite(suite).iter().map(|(_, row)| row.cost(config)))
    }

    /// The summed optimize time of the distinct runs behind `configs`
    /// on `suite`'s circuits.
    pub fn time(&self, suite: &'static [BenchmarkInfo], configs: &[Config]) -> Duration {
        let keys: Vec<RunKey> = configs.iter().map(|&config| run_key(config)).collect();
        let row_time = |row: &Row| -> Duration {
            let runs = row.runs.iter().filter(|(key, _)| keys.contains(key));
            runs.map(|(_, run)| run.time).sum()
        };
        self.suite(suite)
            .iter()
            .map(|&(_, row)| row_time(row))
            .sum()
    }
}

/// Σ of R and S.
pub fn sum(costs: impl IntoIterator<Item = RramCost>) -> RramCost {
    costs
        .into_iter()
        .fold(RramCost { rrams: 0, steps: 0 }, |acc, c| RramCost {
            rrams: acc.rrams + c.rrams,
            steps: acc.steps + c.steps,
        })
}

/// The BDD baseline of \[11\] (level-parallel mux schedule) on every
/// circuit of `suite`, in suite order, on `jobs` workers. R counts the
/// value-retention devices \[11\] reports, not the compute scratch.
pub fn bdd_baselines(
    suite: &'static [BenchmarkInfo],
    synth: &BddSynthOptions,
    jobs: usize,
) -> Vec<RramCost> {
    par::par_map_threads(suite, par::resolve_threads(jobs), |info| {
        let nl = bench_suite::build_info(info);
        let circ = bdd_build::from_netlist(&nl, bdd_build::Ordering::DfsFromOutputs);
        let bdd = bdd_rram::synthesize(&circ, synth);
        RramCost {
            rrams: bdd.value_devices,
            steps: bdd.steps(),
        }
    })
}

/// The steps of the node-serial AIG baseline of \[12\] on every circuit
/// of `suite`, in suite order, on `jobs` workers.
pub fn aig_baselines(suite: &'static [BenchmarkInfo], jobs: usize) -> Vec<u64> {
    par::par_map_threads(suite, par::resolve_threads(jobs), |info| {
        let aig = Aig::from_netlist(&bench_suite::build_info(info)).balance();
        rms_aig::rram_synth::synthesize(&aig).steps()
    })
}

/// Checks each of `graphs` against `source` with
/// [`rms_flow::check_netlists`] and sums up the outcomes:
/// `exhaustive` below the truth-table cutoff, `SAT (n conflicts)` when
/// every check above it is proved, `sampled (SAT budget exceeded)` when a
/// proof ran out of budget. The first mismatch (`FAILED <algorithm>`) or
/// infrastructure error (`ERROR <algorithm>: ...`, e.g. an arity mismatch
/// from a buggy exporter) ends the checks and is the label.
pub fn verification_label(source: &Netlist, graphs: &[(Algorithm, &Mig)]) -> String {
    let mut conflicts: Option<u64> = None;
    let mut sampled = false;
    for &(alg, mig) in graphs {
        match rms_flow::check_netlists(
            source,
            &mig.to_netlist(),
            VerifyMode::Auto,
            rms_flow::DEFAULT_VERIFY_SEED,
        ) {
            Ok(VerifyOutcome::Proved { conflicts: c, .. }) => *conflicts.get_or_insert(0) += c,
            // Auto degrades to sampling when the proof budget runs out:
            // say so instead of claiming a proof.
            Ok(VerifyOutcome::Sampled { .. }) => sampled = true,
            Ok(outcome) if outcome.passed() => {}
            Ok(_) => return format!("FAILED {alg}"),
            Err(e) => return format!("ERROR {alg}: {e}"),
        }
    }
    match (sampled, conflicts) {
        (true, _) => "sampled (SAT budget exceeded)".to_string(),
        (false, Some(conflicts)) => format!("SAT ({conflicts} conflicts)"),
        (false, None) => "exhaustive".to_string(),
    }
}

/// Whether a [`verification_label`] is a full-input-space guarantee; a
/// sampled fallback is not.
pub fn is_verified(label: &str) -> bool {
    label.starts_with("exhaustive") || label.starts_with("SAT")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rms_logic::bench_suite::{LARGE_SUITE, SMALL_SUITE};

    /// The one-circuit slice of `suite` holding `name`.
    fn one(suite: &'static [BenchmarkInfo], name: &str) -> &'static [BenchmarkInfo] {
        let i = suite.iter().position(|info| info.name == name).unwrap();
        &suite[i..=i]
    }

    fn table(
        suite: &'static [BenchmarkInfo],
        configs: &[Config],
        effort: usize,
        jobs: usize,
    ) -> Table {
        Table::build(
            Circuit::suite(suite, configs),
            &OptOptions::with_effort(effort),
            jobs,
        )
    }

    #[test]
    fn table2_row_has_expected_orderings() {
        let t = table(one(LARGE_SUITE, "x2"), &TABLE2_CONFIGS, 10, 1);
        let row = t.row("x2");
        assert_eq!(row.runs().count(), 6);
        // MAJ realization always beats IMP on steps for the same algorithm.
        for alg in [Algorithm::RramCosts, Algorithm::Steps] {
            let imp = row.cost((alg, Realization::Imp));
            let maj = row.cost((alg, Realization::Maj));
            assert!(maj.steps < imp.steps, "{alg}: {maj} vs {imp}");
        }
    }

    #[test]
    fn modes_that_ignore_the_realization_run_once() {
        let configs = [
            (Algorithm::Area, Realization::Imp),
            (Algorithm::Area, Realization::Maj),
            (Algorithm::Steps, Realization::Imp),
            (Algorithm::Steps, Realization::Maj),
        ];
        let suite = one(SMALL_SUITE, "exam3_d");
        let t = table(suite, &configs, 2, 1);
        let row = t.row("exam3_d");
        assert_eq!(row.runs().count(), 3);
        let area = row.run((Algorithm::Area, Realization::Imp));
        assert!(std::ptr::eq(
            area,
            row.run((Algorithm::Area, Realization::Maj))
        ));
        assert_eq!(
            row.cost((Algorithm::Area, Realization::Maj)),
            area.cost(Realization::Maj)
        );
        let total: Duration = row.runs().map(|run| run.time).sum();
        assert_eq!(t.time(suite, &configs), total);
        assert_eq!(t.time(suite, &configs[..2]), area.time);
    }

    #[test]
    fn baselines_run() {
        // Parity's BDD is thin: one batch per level, five steps each.
        // (Parity is also the one function where a BDD is genuinely
        // competitive; the aggregate comparison lives in the integration
        // tests at full effort.)
        let bdd = bdd_baselines(one(LARGE_SUITE, "parity"), &BddSynthOptions::default(), 1);
        assert_eq!(bdd[0].steps, 5 * 16);
        let aig = aig_baselines(one(SMALL_SUITE, "exam1_d"), 1);
        assert!(aig[0] >= 3, "{aig:?}");
    }

    #[test]
    fn sums_add_up() {
        let costs = [
            RramCost { rrams: 1, steps: 2 },
            RramCost { rrams: 3, steps: 4 },
        ];
        assert_eq!(sum(costs), RramCost { rrams: 4, steps: 6 });
    }

    #[test]
    fn algs_row_covers_all_algorithms() {
        let configs = Algorithm::ALL_WITH_CUT.map(|alg| (alg, Realization::Maj));
        let t = table(one(SMALL_SUITE, "exam3_d"), &configs, 4, 1);
        let row = t.row("exam3_d");
        let gates = configs.map(|config| row.run(config).mig.num_gates());
        for (config, &g) in configs.iter().zip(&gates) {
            assert!(g <= row.mig.num_gates(), "{config:?}");
            assert!(row.cost(*config).steps > 0, "{config:?}");
        }
        // The cut engine never loses to plain area optimization here.
        assert!(gates[4] <= gates[0], "{gates:?}");
    }

    #[test]
    fn verification_labels_name_the_tier() {
        let configs = Algorithm::ALL_WITH_CUT.map(|alg| (alg, Realization::Maj));
        let label = |name: &str| {
            let t = table(one(SMALL_SUITE, name), &configs, 4, 1);
            let row = t.row(name);
            let graphs: Vec<(Algorithm, &Mig)> = configs
                .iter()
                .map(|&config| (config.0, &row.run(config).mig))
                .collect();
            verification_label(&bench_suite::build(name).unwrap(), &graphs)
        };
        assert_eq!(label("exam3_d"), "exhaustive");
        // Above the width cutoff every algorithm's result is SAT-proved.
        let wide = label("t481_d");
        assert!(wide.starts_with("SAT ("), "{wide}");
        assert!(is_verified(&wide));
        assert!(!is_verified("sampled (SAT budget exceeded)"));
    }

    #[test]
    fn parallel_table_matches_sequential() {
        // The cheap small suite under every Table III and algorithm
        // comparison mode: the parallel table must hold the sequential
        // one's graphs and counters. Table II is covered at the
        // integration level.
        let mut configs = Algorithm::ALL_WITH_CUT
            .map(|alg| (alg, Realization::Maj))
            .to_vec();
        configs.extend(TABLE3_CONFIGS);
        let seq = table(SMALL_SUITE, &configs, 4, 1);
        let par = table(SMALL_SUITE, &configs, 4, 2);
        for (a, b) in seq.rows().iter().zip(par.rows()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.runs().count(), 7, "{}", a.name);
            for (x, y) in a.runs().zip(b.runs()) {
                assert!(x.same_result(y), "{}", a.name);
            }
        }
        assert_eq!(aig_baselines(SMALL_SUITE, 1), aig_baselines(SMALL_SUITE, 2));
    }
}
