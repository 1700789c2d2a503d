//! perfbench — the repository's end-to-end, layer-by-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload table2-default|xl-sampled|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! One invocation runs one workload for about `--seconds`, checks every
//! output against an independent reference outside the timed region,
//! prints per-circuit rows and run metadata, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` reports the per-layer metrics from
//! a traced run and writes its spans to `perfbench/out/` as Chrome Trace
//! Event JSON. See `perfbench/README.md` for the workloads, the metric
//! definitions and which layer metric should move which end-to-end one.

mod calib;
mod check;
mod layers;
mod pipeline_wl;
mod serve_wl;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// End-to-end metrics (untraced run), with units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("gates", "count"),
    ("rram_devices", "count"),
    ("rram_steps", "count"),
];

/// Per-layer metrics (traced run), with units.
const PER_LAYER: &[(&str, &str)] = &[
    ("input.parse_ms", "ms"),
    ("input.gates_per_s", "gates/s"),
    ("core.construct_ms", "ms"),
    ("core.optimize_ms.rram", "ms"),
    ("core.cycles", "count"),
    ("core.passes", "count"),
    ("cut.db_build_ms", "ms"),
    ("cut.optimize_ms.cut", "ms"),
    ("cut.optimize_ms.sweep_resub", "ms"),
    ("cut.rewrites", "count"),
    ("cut.par_speedup", "ratio"),
    ("cut.peak_nodes", "count"),
    ("cut.fraig_classes", "count"),
    ("cut.fraig_merges", "count"),
    ("cut.merge_ratio", "ratio"),
    ("cut.resubs", "count"),
    ("cut.sat_conflicts", "count"),
    ("cut.sat_budget_exhausted", "count"),
    ("rram.compile_ms", "ms"),
    ("rram.array_steps", "count"),
    ("rram.physical_rrams", "count"),
    ("rram.plim_instructions", "count"),
    ("rram.sim_ms", "ms"),
    ("rram.sim_words_per_s", "words/s"),
    ("sat.ms", "ms"),
    ("sat.calls", "count"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.gave_up", "count"),
    ("flow.verify_ms", "ms"),
    ("flow.proved_frac", "ratio"),
    ("flow.trace_coverage", "ratio"),
    ("flow.trace_overhead", "ratio"),
    ("serve.handle_ms_p50", "ms"),
    ("serve.handle_ms_p95", "ms"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.http_overhead_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.evictions", "count"),
    ("serve.cache_bytes", "bytes"),
    ("serve.journal_bytes", "bytes"),
    ("serve.compact_ms", "ms"),
    ("serve.replay_ms", "ms"),
];

/// Fresh processes timed for `setup_s` before and again after the
/// workload; the pipeline workloads time one more after every pass, so
/// the median spans the run's changing machine load.
const SETUP_SAMPLES: usize = 6;

/// Simulations per calibration kernel call around each setup probe.
const SETUP_CALIB_REPS: usize = 8;

/// Optimizer jobs of the parallel-speedup probe.
const MAX_JOBS: usize = 2;

/// Optimizer jobs of the timed `xl-sampled` items. A parallel round that
/// fills every core waits for whichever core a neighbour slows, and at
/// two jobs it gained nothing (`cut.par_speedup` ≈ 0.94–1.0), so the
/// timed items run on one.
const XL_JOBS: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Table2Default,
    XlSampled,
    ServeMix,
}

impl Workload {
    fn from_name(name: &str) -> Option<Workload> {
        match name {
            "table2-default" => Some(Workload::Table2Default),
            "xl-sampled" => Some(Workload::XlSampled),
            "serve-mix" => Some(Workload::ServeMix),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Table2Default => "table2-default",
            Workload::XlSampled => "xl-sampled",
            Workload::ServeMix => "serve-mix",
        }
    }
}

/// Command-line arguments of a run.
#[derive(Debug, Clone)]
pub struct Args {
    workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or(format!(
                    "unknown workload {value:?} (table2-default, xl-sampled, serve-mix)"
                ))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Named metric values of a run.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(f64::NAN)
    }
}

/// What a workload returns.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// Share of checked items whose verification is a proof.
    pub proved_frac: f64,
    pub tracer: Option<trace::Tracer>,
}

impl Outcome {
    pub fn fail(&mut self, message: String) {
        self.failures.push(message);
    }
}

/// Where traces and journals go: `out/` next to the manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Refuses a configuration that would run more threads than cores.
fn guard(what: &str, threads: usize, nproc: usize) -> Result<(), String> {
    if threads > nproc {
        Err(format!(
            "refusing to run: {what} = {threads} exceeds the {nproc} available cores"
        ))
    } else {
        Ok(())
    }
}

/// The first line of a command's output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Setup times of the probe processes, in seconds.
#[derive(Default)]
struct SetupSamples {
    /// NPN tables and database, plain.
    db: Vec<f64>,
    /// The whole setup, plain.
    total: Vec<f64>,
    /// The whole setup over the calibration kernel around its probe, in
    /// seconds on the reference machine (see `calib`).
    calibrated: Vec<f64>,
}

/// Times the one-time setup in `n` fresh processes of this binary.
fn setup_samples(workload: Workload, n: usize, s: &mut SetupSamples) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for _ in 0..n {
        let k0 = calib::time_ms(SETUP_CALIB_REPS);
        let out = Command::new(&exe)
            .args(["--probe-setup", workload.name()])
            .output()
            .map_err(|e| format!("setup probe: {e}"))?;
        let k1 = calib::time_ms(SETUP_CALIB_REPS);
        let text = String::from_utf8_lossy(&out.stdout);
        let parsed: Option<(f64, f64)> = text
            .split_once(' ')
            .and_then(|(a, b)| Some((a.trim().parse().ok()?, b.trim().parse().ok()?)));
        match (out.status.success(), parsed) {
            (true, Some((a, b))) => {
                s.db.push(a);
                s.total.push(b);
                s.calibrated
                    .push(b * stats::ratio(calib::REF_MS, (k0 + k1) / 2.0));
            }
            _ => {
                return Err(format!(
                    "setup probe failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                ))
            }
        }
    }
    Ok(())
}

/// The body of one setup probe process.
fn probe_setup(workload: Workload) -> Result<(f64, f64), String> {
    if workload == Workload::ServeMix {
        return serve_wl::setup_probe();
    }
    let t0 = std::time::Instant::now();
    rms_cut::prewarm();
    let s = t0.elapsed().as_secs_f64();
    Ok((s, s))
}

fn emit(
    names: &[(&'static str, &'static str)],
    metrics: &Metrics,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut parts = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let v = metrics.get(name);
        if !v.is_finite() {
            return Err(format!("metric {name} was not measured"));
        }
        parts.push(format!(
            "\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        parts.join(",")
    ))
}

fn run(args: &Args) -> Result<String, String> {
    let nproc = nproc();
    let jobs = MAX_JOBS.min(nproc);
    // Pipeline default jobs resolve through the optimizer's own thread
    // count (which honours RMS_THREADS).
    let default_jobs = rms_core::par::num_threads();
    match args.workload {
        Workload::Table2Default => guard("optimizer jobs", default_jobs, nproc)?,
        Workload::XlSampled => guard("optimizer jobs", jobs, nproc)?,
        Workload::ServeMix => {
            guard("client connections", serve_wl::CLIENTS, nproc)?;
            guard("pipeline jobs of a request", default_jobs, nproc)?;
        }
    }
    let commit = command_line("git", &["rev-parse", "--short", "HEAD"]);
    let rustc = command_line("rustc", &["--version"]);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "meta workload={} seed={} seconds={} trace={} nproc={nproc} jobs={} clients={} commit={commit} rustc=\"{rustc}\" profile={profile}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        match args.workload {
            Workload::Table2Default => default_jobs,
            Workload::XlSampled => XL_JOBS,
            Workload::ServeMix => 1,
        },
        if args.workload == Workload::ServeMix { serve_wl::CLIENTS } else { 0 },
    );

    calib::prepare();
    let mut setup = SetupSamples::default();
    setup_samples(args.workload, SETUP_SAMPLES, &mut setup)?;
    rms_cut::prewarm();
    let mut lines = Vec::new();
    let mut probe_error = None;
    let mut after_pass = || {
        if probe_error.is_none() {
            probe_error = setup_samples(args.workload, 1, &mut setup).err();
        }
    };
    let mut o = match args.workload {
        Workload::Table2Default => {
            pipeline_wl::run(&pipeline_wl::table2(), args, jobs, &mut lines, &mut after_pass)
        }
        Workload::XlSampled => {
            pipeline_wl::run(&pipeline_wl::xl(XL_JOBS), args, jobs, &mut lines, &mut after_pass)
        }
        Workload::ServeMix => serve_wl::run(args, &mut lines),
    };
    if let Some(e) = probe_error {
        return Err(e);
    }
    for l in &lines {
        println!("{l}");
    }
    setup_samples(args.workload, SETUP_SAMPLES, &mut setup)?;
    let setup_s = stats::median(&setup.calibrated);
    let attempted = o.attempted.max(1);
    // Setup-level failures (a reference run, a replay mismatch) add to
    // the item failures; the count stays a share of what was attempted.
    let failed = (o.failures.len() as u64).min(attempted);
    let m = &mut o.metrics;
    m.set("setup_s", setup_s);
    m.set(
        "success_rate",
        1.0 - stats::ratio(failed as f64, attempted as f64),
    );
    m.set("peak_rss_mb", stats::peak_rss_mb()?);
    m.set("cut.db_build_ms", stats::median(&setup.db) * 1e3);
    m.set("flow.proved_frac", o.proved_frac);
    if args.workload != Workload::ServeMix {
        // The serve layers do not run on the pipeline workloads.
        for &(name, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with("serve.")) {
            m.set(name, 0.0);
        }
    }
    println!(
        "summary setup_s={setup_s:.4} (median of {} processes; plain {:.4}) items_per_s={:.3} latency_p50_ms={:.3} latency_p95_ms={:.3} error_rate={:.4} proved_frac={:.4} peak_rss_mb={:.1}",
        setup.total.len(),
        stats::median(&setup.total),
        m.get("items_per_s"),
        m.get("latency_p50_ms"),
        m.get("latency_p95_ms"),
        stats::ratio(failed as f64, attempted as f64),
        o.proved_frac,
        o.metrics.get("peak_rss_mb"),
    );
    for f in o.failures.iter().take(20) {
        println!("FAIL {f}");
    }
    if let Some(tr) = &o.tracer {
        let path = out_dir().join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        tr.write_chrome_json(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace written to {}", path.display());
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    emit(names, &o.metrics, failed == 0, attempted, failed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--probe-setup") {
        let w = argv.get(1).and_then(|n| Workload::from_name(n));
        return match w.map(probe_setup) {
            Some(Ok((db, total))) => {
                println!("{db} {total}");
                ExitCode::SUCCESS
            }
            Some(Err(e)) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
            None => ExitCode::from(2),
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
