//! Bench for the Table II pipeline: each optimization algorithm over
//! representative benchmarks and over the whole suite (the paper's
//! "< 3 s" run-time claim), plus the parallel sweep speed-up.
//!
//! Run with `cargo bench -p rms-bench --bench table2`.

use rms_bench::runner;
use rms_bench::timing::{bench, group};
use rms_core::cost::Realization;
use rms_core::opt::{Algorithm, OptOptions};
use rms_core::Mig;
use rms_logic::bench_suite;

fn main() {
    let opts = OptOptions::paper();

    group("table2/per_benchmark");
    for name in ["x2", "cordic", "apex7", "misex3"] {
        let mig = Mig::from_netlist(&bench_suite::build(name).expect("known benchmark"));
        for alg in Algorithm::ALL {
            bench(&format!("{alg}/{name}"), 10, || {
                alg.run(&mig, Realization::Maj, &opts)
            });
        }
    }

    group("table2/whole_suite");
    let migs: Vec<Mig> = bench_suite::LARGE_SUITE
        .iter()
        .map(|info| Mig::from_netlist(&bench_suite::build_info(info)))
        .collect();
    for alg in Algorithm::ALL {
        bench(&format!("{alg}"), 3, || {
            for mig in &migs {
                let _ = alg.run(mig, Realization::Maj, &opts);
            }
        });
    }

    group("table2/sweep (sequential vs parallel)");
    let sweep_opts = OptOptions::with_effort(10);
    bench("run_table2 (1 thread)", 3, || {
        runner::run_table2(&sweep_opts, 1)
    });
    bench("run_table2 (all cores)", 3, || {
        runner::run_table2(&sweep_opts, 0)
    });
}
