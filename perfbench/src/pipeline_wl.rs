//! The two pipeline workloads: `table2-default` (the paper's suite under
//! the default flags) and `xl-sampled` (the flow at scale with sampled
//! verification).
//!
//! A run makes as many whole passes over the workload's items as fit into
//! the requested time, so every pass weighs the circuits alike.
//! An item is one `Pipeline::run` from input bytes to a verified report,
//! bracketed by two calls of the calibration kernel (see `calib`).

use crate::calib;
use crate::check;
use crate::layers::{self, FlowConfig, Input, LayerAcc};
use crate::stats::{mean, median, minimum, mix64, quantile, ratio};
use crate::trace::{Ctx, Tracer};
use crate::{Args, Outcome};
use rms_core::cost::{Realization, RramCost};
use rms_core::opt::Algorithm;
use rms_core::Mig;
use rms_flow::{FlowOutput, FlowReport, InputFormat, VerifyMode};
use rms_logic::{aiger, bench_suite, blif, large_suite};
use std::time::{Duration, Instant};

/// A pipeline workload: its inputs, algorithms and flow options.
pub struct Spec {
    pub inputs: Vec<Input>,
    pub algs: &'static [Algorithm],
    pub cfg: FlowConfig,
    /// A run continues past its time budget until this many items
    /// completed, so latency percentiles rest on enough samples.
    pub min_items: usize,
    /// The large-suite circuit on which the traced run times the parallel
    /// round at one job and at several, if any.
    pub par_probe: Option<&'static str>,
    /// Simulations per calibration kernel call; one call runs just before
    /// and one just after every item.
    pub calib_reps: usize,
}

/// The algorithms of `table2-default`: Alg. 3 (the CLI default), cut
/// rewriting, and SAT sweeping with resubstitution.
const TABLE2_ALGS: &[Algorithm] = &[Algorithm::RramCosts, Algorithm::Cut, Algorithm::SweepResub];

/// Passes every run makes at least: two, to check determinism.
const MIN_PASSES: usize = 2;

/// The large-suite circuits of `xl-sampled`, smallest first. The larger
/// ones are left out: a 2–5 s item fits only a few times into a run and
/// outlasts the bursts of neighbouring load that the kernel calls around
/// it catch, and `xl_mul64`'s fastest pass varied by a third between runs.
pub const XL_CIRCUITS: &[&str] = &["xl_mul32", "xl_add2048", "xl_ctrl10k"];

/// The smallest large-suite circuit above the 20 000-gate threshold of the
/// windowed parallel round, which none of `XL_CIRCUITS` reaches.
const XL_PAR_PROBE: &str = "xl_mul64";

/// The 25 Table II circuits as BLIF bytes rendered once from the
/// embedded netlists, at effort 40 under the default `auto` verification.
pub fn table2() -> Spec {
    let inputs = bench_suite::LARGE_SUITE
        .iter()
        .map(|info| {
            let nl = bench_suite::build_info(info);
            Input {
                name: info.name.to_string(),
                format: InputFormat::Blif,
                bytes: blif::write(&nl).into_bytes(),
                reference: nl,
            }
        })
        .collect();
    Spec {
        inputs,
        algs: TABLE2_ALGS,
        cfg: FlowConfig {
            effort: 40,
            verify: VerifyMode::Auto,
            jobs: None,
        },
        min_items: 200,
        par_probe: None,
        calib_reps: 1,
    }
}

/// Three large-suite circuits as binary AIGER bytes, through `cut` at
/// effort 2 with sampled verification on `jobs` optimizer workers.
pub fn xl(jobs: usize) -> Spec {
    let inputs = XL_CIRCUITS
        .iter()
        .map(|name| {
            let nl = large_suite::build(name).expect("large-suite circuit exists");
            Input {
                name: name.to_string(),
                format: InputFormat::Aiger,
                bytes: aiger::write_binary(&nl),
                reference: nl,
            }
        })
        .collect();
    Spec {
        inputs,
        algs: &[Algorithm::Cut],
        cfg: FlowConfig {
            effort: 2,
            verify: VerifyMode::Sampled,
            jobs: Some(jobs),
        },
        min_items: 1,
        par_probe: Some(XL_PAR_PROBE),
        calib_reps: 8,
    }
}

/// The exact quality counts of one item; two passes must agree on them.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Quality {
    gates: u64,
    rrams: u64,
    steps: u64,
    array_steps: u64,
    plim_instructions: u64,
    verified: String,
}

impl Quality {
    fn of(r: &FlowReport) -> Quality {
        Quality {
            gates: r.optimized.gates,
            rrams: r.cost.rrams,
            steps: r.cost.steps,
            array_steps: r.array_steps,
            plim_instructions: r.plim_instructions,
            verified: r.verify.label(),
        }
    }
}

/// Report self-consistency plus the independent output check.
fn check_item(input: &Input, out: &FlowOutput, seed: u64) -> Result<(), String> {
    let r = &out.report;
    if r.optimized.gates != out.mig.num_gates() as u64 {
        return Err(format!(
            "report says {} gates, the MIG has {}",
            r.optimized.gates,
            out.mig.num_gates()
        ));
    }
    if r.cost != RramCost::of(&out.mig, Realization::Maj) {
        return Err("report cost differs from the MIG's Table I cost".into());
    }
    if r.array_steps != out.array.program.num_steps()
        || r.plim_instructions != out.plim.instructions
    {
        return Err("report program sizes differ from the compiled programs".into());
    }
    if !r.verify.passed() {
        return Err(format!("verification did not pass: {}", r.verify.label()));
    }
    check::outputs_match(
        &input.reference,
        &out.mig,
        &[("array", &out.array.program), ("plim", &out.plim.program)],
        seed,
    )
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the workload and returns its outcome; `jobs` is the worker count
/// of the parallel-speedup probe, and `after_pass` runs after every pass,
/// outside the timed items.
pub fn run(
    spec: &Spec,
    args: &Args,
    jobs: usize,
    out: &mut Vec<String>,
    after_pass: &mut dyn FnMut(),
) -> Outcome {
    let items: Vec<(usize, Algorithm)> = (0..spec.inputs.len())
        .flat_map(|i| spec.algs.iter().map(move |&a| (i, a)))
        .collect();
    let mut first: Vec<Option<Quality>> = vec![None; items.len()];
    let mut item_ms: Vec<Vec<f64>> = vec![Vec::new(); items.len()];
    // Each item's time over the mean of the kernel calls just before and
    // just after it, per pass.
    let mut item_rel: Vec<Vec<f64>> = vec![Vec::new(); items.len()];
    let mut kernel_ms: Vec<f64> = Vec::new();
    calib::prepare();
    let mut o = Outcome::default();
    let mut completed = 0usize;
    let mut proved = 0u64;
    let tracer = Tracer::new();
    let mut acc = LayerAcc::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut pass = 0usize;
    // Whole passes, as many as fit into the budget, and at least two so
    // that every run checks determinism.
    loop {
        for (k, &(i, alg)) in items.iter().enumerate() {
            let input = &spec.inputs[i];
            let label = format!("{}/{}", input.name, alg.token());
            o.attempted += 1;
            let k0 = calib::time_ms(spec.calib_reps);
            let t0 = Instant::now();
            let res = spec.cfg.pipeline(input, alg, args.seed);
            let dt = t0.elapsed();
            let k1 = calib::time_ms(spec.calib_reps);
            kernel_ms.extend([k0, k1]);
            let flow = match res {
                Ok(flow) => flow,
                Err(e) => {
                    o.fail(format!("{label}: {e}"));
                    continue;
                }
            };
            let mut failure = check_item(input, &flow, mix64(args.seed ^ k as u64)).err();
            let q = Quality::of(&flow.report);
            match &first[k] {
                None => {
                    proved += flow.report.verify.is_proof() as u64;
                    first[k] = Some(q);
                }
                Some(p) if *p != q => {
                    failure = Some(format!("pass {pass} differs from pass 0: {q:?} vs {p:?}"));
                }
                Some(_) => {}
            }
            if args.trace {
                let ctx = Ctx::root(o.attempted, 0);
                let (traced, item) = tracer.span(ctx, "flow.item", |c| {
                    layers::run_stages(&tracer, c, input, alg, &spec.cfg, args.seed)
                });
                match traced {
                    Ok(run) => {
                        if run.mig.num_gates() != flow.mig.num_gates()
                            || run.cost != flow.report.cost
                            || run.verify != flow.report.verify
                        {
                            failure.get_or_insert(format!(
                                "traced run differs: {} gates, {} vs {} gates, {}",
                                run.mig.num_gates(),
                                run.verify.label(),
                                flow.mig.num_gates(),
                                flow.report.verify.label()
                            ));
                        }
                        acc.record(alg, &run, dt, item, pass == 0);
                    }
                    Err(e) => {
                        failure.get_or_insert(format!("traced run failed: {e}"));
                    }
                }
            }
            match failure {
                Some(e) => o.fail(format!("{label}: {e}")),
                None => {
                    completed += 1;
                    item_ms[k].push(ms(dt));
                    item_rel[k].push(ratio(ms(dt), (k0 + k1) / 2.0));
                }
            }
        }
        pass += 1;
        after_pass();
        let elapsed = start.elapsed();
        if pass >= MIN_PASSES
            && completed >= spec.min_items
            && elapsed + elapsed / pass as u32 > budget
        {
            break;
        }
    }

    out.push(format!(
        "{:<12} {:<12} {:>8} {:>8} {:>8} {:>11} {:>10}  ms per pass / verified",
        "circuit", "algorithm", "gates", "R", "S", "array_steps", "plim_instr"
    ));
    let (mut gates, mut rrams, mut steps) = (0u64, 0u64, 0u64);
    for (k, &(i, alg)) in items.iter().enumerate() {
        let Some(q) = &first[k] else { continue };
        gates += q.gates;
        rrams += q.rrams;
        steps += q.steps;
        out.push(format!(
            "{:<12} {:<12} {:>8} {:>8} {:>8} {:>11} {:>10}  {} / {}",
            spec.inputs[i].name,
            alg.token(),
            q.gates,
            q.rrams,
            q.steps,
            q.array_steps,
            q.plim_instructions,
            item_ms[k]
                .iter()
                .map(|t| format!("{t:.2}"))
                .collect::<Vec<_>>()
                .join(" "),
            q.verified
        ));
    }
    out.push(format!(
        "passes {pass}, items {} ({} per pass), latency samples {}, proved {proved}/{} per pass",
        o.attempted,
        items.len(),
        completed,
        items.len()
    ));

    out.push(format!(
        "calibration kernel: median {:.3} ms, min {:.3} ms per simulation over {} calls of {}; times scale to {} ms",
        median(&kernel_ms),
        minimum(&kernel_ms),
        kernel_ms.len(),
        spec.calib_reps,
        calib::REF_MS
    ));

    let m = &mut o.metrics;
    // One figure per item over the passes, so the figures weigh every
    // circuit once and do not depend on how many passes fit into the run:
    // the mean pass relative to the kernel, in milliseconds of a machine on
    // which the kernel takes `REF_MS`. Over six runs each, `items_per_s`
    // so measured varied 0.03–0.08 (IQR ÷ median) where the fastest pass
    // in plain milliseconds varied 0.11–0.16.
    let typical: Vec<f64> = item_rel
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| mean(r) * calib::REF_MS)
        .collect();
    m.set(
        "items_per_s",
        ratio(typical.len() as f64, typical.iter().sum::<f64>() / 1e3),
    );
    m.set("latency_p50_ms", median(&typical));
    m.set("latency_p95_ms", quantile(&typical, 0.95));
    m.set("gates", gates as f64);
    m.set("rram_devices", rrams as f64);
    m.set("rram_steps", steps as f64);
    o.proved_frac = ratio(proved as f64, items.len() as f64);

    if args.trace {
        // Optimizer jobs act only on the windowed path of graphs of at
        // least `par_threshold` gates, so only a workload with a probe
        // circuit (xl-sampled) times their speedup; elsewhere it stays 0.
        let mut par = String::new();
        if let Some(name) = spec.par_probe {
            let nl = large_suite::build(name).expect("large-suite circuit exists");
            let mig = Mig::from_netlist(&nl);
            acc.par_speedup = layers::par_speedup(&mig, &spec.cfg, jobs);
            par = format!(
                "; par_speedup on {name} at jobs=1 vs {jobs}: {:.3}",
                acc.par_speedup
            );
        }
        acc.emit(&mut o.metrics);
        let (lo, hi) = acc.coverage_range();
        out.push(format!(
            "trace: {} items, {} spans, coverage median {:.4} (min {lo:.4}, max {hi:.4}), overhead {:.4}{par}",
            acc.items(),
            tracer.len(),
            o.metrics.get("flow.trace_coverage"),
            o.metrics.get("flow.trace_overhead"),
        ));
        o.tracer = Some(tracer);
    }
    o
}
