//! `rms` — command-line driver for the RRAM/MIG synthesis pipeline.
//!
//! Subcommands:
//!
//! - `rms run` — full pipeline on a user circuit: parse, optimize,
//!   compile (array + PLiM), verify, report (text or `--json`).
//! - `rms optimize` — run an optimization algorithm and emit the
//!   optimized circuit (`--emit blif|pla|verilog|aag|aig|dot`).
//! - `rms compile` — compile to an RRAM program and print its listing.
//! - `rms verify` — formally check two circuits for functional
//!   equivalence (SAT miter above the exhaustive cutoff).
//! - `rms bench` — regenerate the paper's tables over the embedded
//!   suites, in parallel across benchmarks by default.
//! - `rms serve` — persistent synthesis service (JSONL over stdio or
//!   HTTP/1.1) with a content-addressed, proof-carrying result cache.
//!
//! Run `rms help` (or any subcommand with `--help`) for the flag list.
//!
//! # Exit codes
//!
//! The exit status is a small taxonomy scripts can branch on:
//!
//! | code | meaning |
//! |------|---------|
//! | 0 | success |
//! | 1 | run failed (I/O on outputs, benchmark regression, transport error) |
//! | 2 | usage error (unknown flag/subcommand, bad flag value) |
//! | 3 | input error (unparsable or empty circuit, unknown benchmark) |
//! | 4 | verification failure (circuits proved inequivalent) |
//! | 5 | timeout (`--timeout` deadline expired before completion) |
//! | 6 | internal error (a panic was caught at the top level) |

use rms_bench::reports::{self, Section};
use rms_core::opt::{Algorithm, OptOptions};
use rms_core::{CancelToken, Realization};
use rms_flow::{FlowError, Frontend, InputFormat, Pipeline, VerifyMode, VerifyOutcome};
use std::process::ExitCode;
use std::time::Duration;

/// A classified CLI failure: the process exit code plus the diagnostic
/// printed to stderr.
struct CliError {
    code: u8,
    message: String,
}

impl CliError {
    /// Exit 1: the run itself failed (output I/O, regressions).
    fn other(message: impl Into<String>) -> CliError {
        CliError {
            code: 1,
            message: message.into(),
        }
    }

    /// Exit 2: the command line was malformed.
    fn usage(message: impl Into<String>) -> CliError {
        CliError {
            code: 2,
            message: message.into(),
        }
    }

    /// Exit 3: the input circuit was unusable.
    fn input(message: impl Into<String>) -> CliError {
        CliError {
            code: 3,
            message: message.into(),
        }
    }

    /// Exit 4: verification proved the result wrong.
    fn verification(message: impl Into<String>) -> CliError {
        CliError {
            code: 4,
            message: message.into(),
        }
    }

    /// Classifies a pipeline error: input problems are exit 3,
    /// verification failures 4, deadline expiry 5.
    fn from_flow(e: FlowError) -> CliError {
        let code = match &e {
            FlowError::Verification(_) => 4,
            FlowError::Timeout(_) => 5,
            _ => 3,
        };
        CliError {
            code,
            message: e.to_string(),
        }
    }
}

const USAGE: &str = "\
rms - RRAM-aware MIG logic synthesis (DATE 2016 reproduction)

USAGE:
    rms <run|optimize|compile|verify|bench|serve|help> [flags]

INPUT (run / optimize / compile):
    --input FILE          circuit file (.blif, .pla, .v, .expr/.eqn, .tt,
                          .aig/.aag AIGER; sniffed otherwise); `-` reads the
                          circuit (text or binary AIGER) from stdin
    --bench NAME          embedded benchmark (see `rms bench --list`)
    --expr TEXT           inline expression, e.g. \"f = maj(a, b, c) ^ d\"
    --format FMT          override input format detection
                          (blif|pla|verilog|expr|tt|aiger)

FLOW:
    --opt ALG             area | depth | rram | steps | cut | cut-rram |
                          sweep | resub | sweep-resub        (default: rram, Alg. 3;
                          sweep/resub layer SAT sweeping and windowed
                          resubstitution on top of the cut script)
    --realization R       imp | maj                          (default: maj)
    --effort N            optimization cycles                (default: 40)
    --frontend F          direct | aig | bdd                 (default: direct)
    --verify MODE         auto | sat | sampled | off         (default: auto —
                          exhaustive <= 14 inputs, SAT proof above; `sampled`
                          opts out of formal checking)
    --no-verify           alias for --verify off
    --seed N              sampled-verification RNG seed      (default: fixed)
    --jobs N              workers for the partition-parallel rewrite round
                          (applies *within* one circuit, at every size; a graph
                          of at most 4096 nodes is one window and runs inline;
                          results are bit-identical for every N; default: all
                          cores, RMS_THREADS also works; read once per process)
    --timeout MS          deadline for the optimization in milliseconds; on
                          expiry the run exits 5 with a structured timeout
                          error (completed runs are unaffected and stay
                          bit-identical)
    --best-effort         with --timeout: instead of failing, return the best
                          verified iterate completed before the deadline

OUTPUT:
    --json                machine-readable report (run, verify)
    --emit FMT            blif | pla | verilog | aag | aig | dot  (optimize)
    --output FILE         write emitted circuit to FILE instead of stdout
    --plim                compile the serial PLiM stream instead of the array (compile)
    --listing             print the program listing (compile)

VERIFY:
    rms verify A B        prove A and B functionally equivalent; each side is
                          a circuit file, `bench:NAME`, or `-` (stdin, one
                          side only). Inputs are matched
                          by name when both sides use the same names,
                          positionally otherwise. Prints a counterexample
                          assignment and exits non-zero on inequivalence.

BENCH:
    --table2 --table3 --summary --runtime --figures --algs
                          sections (default: summary); --algs sweeps
                          Algs. 1-4 vs the cut engine and verifies every
                          result (exhaustive or SAT-proved)
    --sweep               run sweep+resub vs the cut baseline over the small
                          suite: verifies every row, checks gate count <= cut
                          on every benchmark and bit-identity across worker
                          counts; exits non-zero on any regression
    --list                list embedded benchmark names
    --jobs N              worker threads (default: all cores; RMS_THREADS also
                          works; read once per process)

SERVE:
    rms serve             persistent synthesis service: newline-delimited JSON
                          requests on stdin, one JSON response per line on
                          stdout. Results are memoized in a content-addressed
                          cache (structural circuit hash x canonical options)
                          with proof-carrying provenance on every hit.
    --http ADDR           serve the same protocol over HTTP/1.1 instead
                          (POST /synth, GET /stats, GET /health), e.g.
                          --http 127.0.0.1:8117
    --cache-mb N          result-cache LRU budget in MiB     (default: 64)
    --max-body-mb N       HTTP request-body cap in MiB       (default: 64;
                          oversized requests get 413 Payload Too Large; also
                          caps stdio request lines)
    --cache-dir DIR       persist the result cache to an append-only journal
                          in DIR; entries survive restarts (and kill -9) and
                          warm hits after a restart are byte-identical
    --deadline-ms N       default per-request optimization deadline; expired
                          requests get a structured kind:\"timeout\" error
                          (requests may override with \"deadline_ms\")
    --best-effort         return the best verified iterate instead of a
                          timeout error when a deadline expires (the
                          truncated result is never cached)
    --max-conns N         concurrent HTTP connection cap     (default: 256;
                          excess connections are shed with 503)
    --jobs N              default batch fan-out workers      (default: all cores)
    On SIGTERM the HTTP server stops accepting, drains in-flight
    requests, compacts the journal, and exits 0. The stdio transport
    compacts on stdin EOF.

EXIT CODES:
    0  success
    1  run failure (output I/O, bench regression, server error)
    2  usage error (unknown flag/subcommand, malformed command line)
    3  input error (unreadable or unparsable circuit)
    4  verification failure (optimized circuit not equivalent)
    5  timeout (--timeout deadline expired without --best-effort)
    6  internal error (panic caught at top level)

EXAMPLES:
    rms run --input adder.blif --opt rram --realization imp --json
    rms run --bench misex1 --opt cut
    rms optimize --bench misex1 --opt area --emit blif --output misex1_opt.blif
    rms optimize --input design.v --opt cut-rram --emit verilog
    rms compile --expr \"f = a & b | c\" --plim --listing
    rms verify bench:t481_d t481_optimized.blif
    rms verify a.blif b.v --verify sat
    rms bench --table2 --algs --effort 40
    cat design.v | rms run --input - --opt cut --json
    echo '{\"id\":\"r1\",\"bench\":\"misex1\",\"opt\":\"cut\"}' | rms serve
    rms serve --http 127.0.0.1:8117 --cache-mb 256
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    // A panic anywhere below is caught and mapped to the dedicated
    // internal-error exit code, so scripts can tell a crash from a bad
    // input. The `cli-panic` fault point lets the robustness tests
    // exercise this path from outside the process.
    let dispatch = std::panic::catch_unwind(|| {
        if rest.iter().any(|a| a == "--help" || a == "-h") {
            return stdout(USAGE);
        }
        if rms_serve::faults::fire("cli-panic") {
            panic!("injected fault: cli-panic");
        }
        match cmd.as_str() {
            "run" => cmd_run(rest),
            "optimize" => cmd_optimize(rest),
            "compile" => cmd_compile(rest),
            "verify" => cmd_verify(rest),
            "bench" => cmd_bench(rest),
            "serve" => cmd_serve(rest),
            "help" | "--help" | "-h" => stdout(USAGE),
            other => Err(CliError::usage(format!(
                "unknown subcommand {other:?}; try `rms help`"
            ))),
        }
    });
    match dispatch {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(e)) => {
            eprintln!("rms: {}", e.message);
            ExitCode::from(e.code)
        }
        Err(_) => {
            // The default panic hook already printed the panic message.
            eprintln!("rms: internal error (panic caught at top level)");
            ExitCode::from(6)
        }
    }
}

/// Writes `bytes` to stdout and flushes them. Every stdout write of the
/// CLI goes through here, so a closed or failing stdout (`rms ... | head`)
/// is an output I/O failure, exit 1, instead of a panic.
fn stdout(bytes: impl AsRef<[u8]>) -> Result<(), CliError> {
    use std::io::Write as _;
    let mut out = std::io::stdout().lock();
    out.write_all(bytes.as_ref())
        .and_then(|()| out.flush())
        .map_err(|e| CliError::other(format!("stdout: {e}")))
}

/// Flags shared by `run`, `optimize`, and `compile`.
struct FlowArgs {
    input: Option<String>,
    bench: Option<String>,
    expr: Option<String>,
    format: Option<InputFormat>,
    algorithm: Algorithm,
    realization: Realization,
    effort: usize,
    frontend: Frontend,
    verify: VerifyMode,
    seed: Option<u64>,
    jobs: Option<usize>,
    timeout_ms: Option<u64>,
    best_effort: bool,
    json: bool,
    emit: Option<String>,
    output: Option<String>,
    plim: bool,
    listing: bool,
}

impl FlowArgs {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut a = FlowArgs {
            input: None,
            bench: None,
            expr: None,
            format: None,
            algorithm: Algorithm::RramCosts,
            realization: Realization::Maj,
            effort: OptOptions::default().effort,
            frontend: Frontend::Direct,
            verify: VerifyMode::Auto,
            seed: None,
            jobs: None,
            timeout_ms: None,
            best_effort: false,
            json: false,
            emit: None,
            output: None,
            plim: false,
            listing: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<String, String> {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match flag.as_str() {
                "--input" => a.input = Some(value("--input")?),
                "--bench" => a.bench = Some(value("--bench")?),
                "--expr" => a.expr = Some(value("--expr")?),
                "--format" => {
                    let v = value("--format")?;
                    a.format = Some(
                        InputFormat::from_name(&v)
                            .ok_or_else(|| format!("unknown format {v:?}"))?,
                    );
                }
                "--opt" => {
                    let v = value("--opt")?;
                    a.algorithm = Algorithm::from_name(&v)
                        .ok_or_else(|| format!("unknown algorithm {v:?}"))?;
                }
                "--realization" => {
                    let v = value("--realization")?;
                    a.realization = Realization::from_name(&v)
                        .ok_or_else(|| format!("unknown realization {v:?}"))?;
                }
                "--effort" => {
                    let v = value("--effort")?;
                    a.effort = v
                        .parse()
                        .map_err(|_| format!("--effort expects a number, got {v:?}"))?;
                }
                "--frontend" => {
                    let v = value("--frontend")?;
                    a.frontend =
                        Frontend::from_name(&v).ok_or_else(|| format!("unknown frontend {v:?}"))?;
                }
                "--no-verify" => a.verify = VerifyMode::Off,
                "--verify" => {
                    let v = value("--verify")?;
                    a.verify = VerifyMode::from_name(&v)
                        .ok_or_else(|| format!("unknown verify mode {v:?}"))?;
                }
                "--seed" => {
                    let v = value("--seed")?;
                    a.seed = Some(
                        v.parse()
                            .map_err(|_| format!("--seed expects a u64, got {v:?}"))?,
                    );
                }
                "--jobs" => {
                    let v = value("--jobs")?;
                    a.jobs = Some(
                        v.parse()
                            .map_err(|_| format!("--jobs expects a number, got {v:?}"))?,
                    );
                }
                "--timeout" => {
                    let v = value("--timeout")?;
                    a.timeout_ms = Some(v.parse().map_err(|_| {
                        format!("--timeout expects a deadline in milliseconds, got {v:?}")
                    })?);
                }
                "--best-effort" => a.best_effort = true,
                "--json" => a.json = true,
                "--emit" => a.emit = Some(value("--emit")?),
                "--output" => a.output = Some(value("--output")?),
                "--plim" => a.plim = true,
                "--listing" => a.listing = true,
                other => return Err(format!("unknown flag {other:?}; try `rms help`")),
            }
        }
        Ok(a)
    }

    fn pipeline(&self) -> Result<Pipeline, CliError> {
        let sources =
            self.input.is_some() as u8 + self.bench.is_some() as u8 + self.expr.is_some() as u8;
        if sources != 1 {
            return Err(CliError::usage(
                "give exactly one of --input, --bench, --expr",
            ));
        }
        let flow = CliError::from_flow;
        let pipeline = if let Some(path) = &self.input {
            if path == "-" {
                let netlist = rms_flow::input::load_stdin(self.format).map_err(flow)?;
                Pipeline::new(netlist)
            } else {
                match self.format {
                    Some(format) => {
                        let bytes = std::fs::read(path)
                            .map_err(|e| CliError::input(format!("{path}: {e}")))?;
                        let name = std::path::Path::new(path)
                            .file_stem()
                            .and_then(|s| s.to_str())
                            .unwrap_or("circuit")
                            .to_string();
                        Pipeline::from_bytes(format, &bytes, &name).map_err(flow)?
                    }
                    None => Pipeline::from_path(path).map_err(flow)?,
                }
            }
        } else if let Some(name) = &self.bench {
            Pipeline::from_bench(name).map_err(flow)?
        } else {
            let text = self.expr.as_deref().unwrap();
            Pipeline::from_str(InputFormat::Expr, text, "expr").map_err(flow)?
        };
        let mut pipeline = pipeline
            .algorithm(self.algorithm)
            .realization(self.realization)
            .effort(self.effort)
            .frontend(self.frontend)
            .verify_mode(self.verify)
            .best_effort(self.best_effort);
        if let Some(ms) = self.timeout_ms {
            pipeline = pipeline.cancel(CancelToken::with_deadline(Duration::from_millis(ms)));
        }
        if let Some(seed) = self.seed {
            pipeline = pipeline.seed(seed);
        }
        if let Some(jobs) = self.jobs {
            pipeline = pipeline.jobs(jobs);
        }
        Ok(pipeline)
    }
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let a = FlowArgs::parse(args).map_err(CliError::usage)?;
    let out = a.pipeline()?.run().map_err(CliError::from_flow)?;
    if a.json {
        stdout(rms_flow::render_json(&out.report))
    } else {
        stdout(rms_flow::render_text(&out.report))
    }
}

fn cmd_optimize(args: &[String]) -> Result<(), CliError> {
    let a = FlowArgs::parse(args).map_err(CliError::usage)?;
    let out = a.pipeline()?.run().map_err(CliError::from_flow)?;
    let emitted: Option<Vec<u8>> = match a.emit.as_deref() {
        None => None,
        Some("blif") => Some(rms_logic::blif::write(&out.mig.to_netlist()).into_bytes()),
        Some("pla") => Some(rms_logic::pla::write(&out.mig.to_netlist()).into_bytes()),
        Some("verilog" | "v") => {
            Some(rms_logic::verilog::write(&out.mig.to_netlist()).into_bytes())
        }
        Some("aag" | "aiger") => {
            Some(rms_logic::aiger::write_ascii(&out.mig.to_netlist()).into_bytes())
        }
        Some("aig") => Some(rms_logic::aiger::write_binary(&out.mig.to_netlist())),
        Some("dot") => Some(out.mig.to_dot().into_bytes()),
        Some(other) => return Err(CliError::usage(format!("unknown --emit format {other:?}"))),
    };
    // When the emitted circuit occupies stdout, the report moves to
    // stderr so both streams stay parseable.
    let mut stdout_taken = false;
    match (emitted, &a.output) {
        (Some(bytes), Some(path)) => {
            std::fs::write(path, &bytes).map_err(|e| CliError::other(format!("{path}: {e}")))?;
            eprintln!("wrote {path}");
        }
        (Some(bytes), None) => {
            stdout(bytes)?;
            stdout_taken = true;
        }
        (None, _) => {}
    }
    let report = if a.json {
        rms_flow::render_json(&out.report)
    } else {
        rms_flow::render_text(&out.report)
    };
    if a.json && !stdout_taken {
        stdout(report)?;
    } else {
        eprint!("{report}");
    }
    Ok(())
}

fn cmd_compile(args: &[String]) -> Result<(), CliError> {
    let a = FlowArgs::parse(args).map_err(CliError::usage)?;
    let out = a.pipeline()?.run().map_err(CliError::from_flow)?;
    let (what, program) = if a.plim {
        ("plim", &out.plim.program)
    } else {
        ("array", &out.array.program)
    };
    stdout(format!(
        "{what} program: {} steps, {} registers, {} inputs, {} outputs (verification: {})\n",
        program.num_steps(),
        program.num_regs,
        program.num_inputs,
        program.outputs.len(),
        out.report.verify.label()
    ))?;
    if a.listing {
        stdout(program.listing())?;
    }
    Ok(())
}

/// Loads one side of an equivalence check: a circuit file path,
/// `bench:NAME` for an embedded benchmark, or `-` for stdin.
fn load_side(spec: &str) -> Result<rms_logic::Netlist, CliError> {
    if spec == "-" {
        return rms_flow::input::load_stdin(None).map_err(CliError::from_flow);
    }
    if let Some(name) = spec.strip_prefix("bench:") {
        return rms_flow::input::load_bench(name).map_err(CliError::from_flow);
    }
    rms_flow::input::load_path(std::path::Path::new(spec)).map_err(CliError::from_flow)
}

fn cmd_verify(args: &[String]) -> Result<(), CliError> {
    let mut sides: Vec<&String> = Vec::new();
    let mut mode = VerifyMode::Auto;
    let mut seed = rms_flow::DEFAULT_VERIFY_SEED;
    let mut json = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--verify" | "--mode" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::usage(format!("{flag} requires a value")))?;
                mode = VerifyMode::from_name(v)
                    .ok_or_else(|| CliError::usage(format!("unknown verify mode {v:?}")))?;
            }
            "--seed" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::usage("--seed requires a value"))?;
                seed = v
                    .parse()
                    .map_err(|_| CliError::usage(format!("--seed expects a u64, got {v:?}")))?;
            }
            "--json" => json = true,
            other if other.starts_with("--") => {
                return Err(CliError::usage(format!(
                    "unknown flag {other:?}; try `rms help`"
                )))
            }
            _ => sides.push(flag),
        }
    }
    let [a_spec, b_spec] = sides.as_slice() else {
        return Err(CliError::usage(
            "verify needs exactly two circuits (file path or bench:NAME)",
        ));
    };
    if mode == VerifyMode::Off {
        return Err(CliError::usage(
            "--verify off makes no sense for `rms verify`",
        ));
    }
    let a = load_side(a_spec)?;
    let b = load_side(b_spec)?;
    let t0 = std::time::Instant::now();
    let outcome = rms_flow::check_netlists(&a, &b, mode, seed).map_err(CliError::from_flow)?;
    let elapsed = t0.elapsed();
    if json {
        let (conflicts, decisions) = match &outcome {
            VerifyOutcome::Proved {
                conflicts,
                decisions,
            } => (*conflicts, *decisions),
            _ => (0, 0),
        };
        let esc = rms_flow::escape_json;
        let counterexample = match &outcome {
            VerifyOutcome::Failed { counterexample, .. } => format!(
                "\"{}\"",
                esc(&rms_flow::format_assignment(
                    a.input_names(),
                    counterexample
                ))
            ),
            _ => "null".into(),
        };
        stdout(format!(
            "{{\"a\":\"{}\",\"b\":\"{}\",\"inputs\":{},\"outputs\":{},\"equivalent\":{},\"proof\":{},\"result\":\"{}\",\"counterexample\":{counterexample},\"sat_conflicts\":{conflicts},\"sat_decisions\":{decisions},\"time_ms\":{:.3}}}\n",
            esc(a.name()),
            esc(b.name()),
            a.num_inputs(),
            a.num_outputs(),
            outcome.passed(),
            outcome.is_proof(),
            esc(&outcome.label()),
            elapsed.as_secs_f64() * 1e3
        ))?;
    } else {
        stdout(format!(
            "verify: {:?} vs {:?}: {} inputs, {} outputs\nresult: {} in {elapsed:.2?}\n",
            a.name(),
            b.name(),
            a.num_inputs(),
            a.num_outputs(),
            outcome.label()
        ))?;
    }
    match outcome {
        VerifyOutcome::Failed {
            what,
            counterexample,
        } => {
            let assignment = rms_flow::format_assignment(a.input_names(), &counterexample);
            Err(CliError::verification(format!(
                "NOT equivalent: {what}; counterexample: {assignment}"
            )))
        }
        _ => Ok(()),
    }
}

/// SIGTERM plumbing for `rms serve --http`: a flag the handler raises
/// and the shutdown watcher polls. `signal(2)` is declared by hand —
/// the workspace links no libc crate — and only on Unix.
#[cfg(unix)]
mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static RECEIVED: AtomicBool = AtomicBool::new(false);

    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: Option<extern "C" fn(i32)>) -> Option<extern "C" fn(i32)>;
    }

    extern "C" fn on_sigterm(_signum: i32) {
        // Only an atomic store: everything else (draining, compaction)
        // happens on the watcher thread, where it is async-signal-safe
        // to do real work.
        RECEIVED.store(true, Ordering::SeqCst);
    }

    /// Installs the handler; returns false if the registration failed
    /// (the process then keeps the default terminate-on-SIGTERM).
    pub fn install() -> bool {
        // SAFETY: `signal` with a non-capturing extern "C" handler that
        // only stores to an atomic is the textbook async-signal-safe
        // registration.
        unsafe { signal(SIGTERM, Some(on_sigterm)) }.is_some() || !RECEIVED.load(Ordering::SeqCst)
    }

    pub fn received() -> bool {
        RECEIVED.load(Ordering::SeqCst)
    }
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let mut http: Option<String> = None;
    let mut config = rms_serve::ServeConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, CliError> {
            it.next()
                .cloned()
                .ok_or_else(|| CliError::usage(format!("{name} requires a value")))
        };
        let num = |name: &str, v: &str| -> Result<usize, CliError> {
            v.parse()
                .map_err(|_| CliError::usage(format!("{name} expects a number, got {v:?}")))
        };
        match flag.as_str() {
            "--http" => http = Some(value("--http")?),
            "--cache-mb" => {
                let v = value("--cache-mb")?;
                config.cache_bytes = num("--cache-mb", &v)? << 20;
            }
            "--cache-dir" => {
                config.cache_dir = Some(std::path::PathBuf::from(value("--cache-dir")?));
            }
            "--jobs" => {
                let v = value("--jobs")?;
                config.jobs = num("--jobs", &v)?;
            }
            "--max-body-mb" => {
                let v = value("--max-body-mb")?;
                config.max_body_bytes = num("--max-body-mb", &v)? << 20;
            }
            "--max-conns" => {
                let v = value("--max-conns")?;
                config.max_conns = num("--max-conns", &v)?;
            }
            "--deadline-ms" => {
                let v = value("--deadline-ms")?;
                config.deadline_ms = Some(num("--deadline-ms", &v)? as u64);
            }
            "--best-effort" => config.best_effort = true,
            other => {
                return Err(CliError::usage(format!(
                    "unknown flag {other:?}; try `rms help`"
                )))
            }
        }
    }
    let service = std::sync::Arc::new(rms_serve::Service::new(config));
    if let Some(replay) = service.replay_stats() {
        eprintln!(
            "rms serve: cache journal replayed {} entr{} ({} torn byte{} discarded)",
            replay.replayed,
            if replay.replayed == 1 { "y" } else { "ies" },
            replay.truncated_bytes,
            if replay.truncated_bytes == 1 { "" } else { "s" }
        );
    }
    match http {
        Some(addr) => {
            let server = rms_serve::HttpServer::bind(std::sync::Arc::clone(&service), &addr)
                .map_err(|e| CliError::other(format!("{addr}: {e}")))?;
            let bound = server.local_addr();
            // The bound address goes to *stdout* (and is flushed) so
            // wrappers binding port 0 can parse the real port.
            let _ = stdout(format!(
                "rms serve: listening on http://{bound} (POST /synth, GET /stats, GET /health)\n"
            ));
            let shutdown = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            #[cfg(unix)]
            {
                sigterm::install();
                let shutdown = std::sync::Arc::clone(&shutdown);
                std::thread::spawn(move || loop {
                    if sigterm::received() {
                        shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
                        // Wake the blocking accept with a self-connection.
                        let _ = std::net::TcpStream::connect(bound);
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(50));
                });
            }
            server
                .run(&shutdown)
                .map_err(|e| CliError::other(format!("{addr}: {e}")))?;
            // Graceful exit: in-flight requests drained by run();
            // compact the journal before leaving.
            service.shutdown();
            eprintln!("rms serve: shut down cleanly");
            Ok(())
        }
        None => {
            eprintln!("rms serve: reading JSONL requests from stdin (one object per line)");
            let stdin = std::io::stdin();
            let mut stdout = std::io::stdout().lock();
            rms_serve::run_stdio(&service, stdin.lock(), &mut stdout)
                .map_err(|e| CliError::other(e.to_string()))
        }
    }
}

fn cmd_bench(args: &[String]) -> Result<(), CliError> {
    let mut sections = Vec::new();
    let mut effort = OptOptions::default().effort;
    let mut jobs = 0usize; // 0 = default thread pool
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--table2" => sections.push(Section::Table2),
            "--algs" => sections.push(Section::Algs),
            "--table3" => sections.push(Section::Table3),
            "--summary" => sections.push(Section::Summary),
            "--runtime" => sections.push(Section::Runtime),
            "--figures" => sections.push(Section::Figures),
            "--sweep" => sections.push(Section::Sweep),
            "--list" => {
                let mut list = String::new();
                for info in rms_logic::bench_suite::LARGE_SUITE {
                    list += &format!(
                        "{:<12} {} inputs (Table II suite)\n",
                        info.name, info.inputs
                    );
                }
                for info in rms_logic::bench_suite::SMALL_SUITE {
                    list += &format!(
                        "{:<12} {} inputs (Table III suite)\n",
                        info.name, info.inputs
                    );
                }
                for info in rms_logic::large_suite::SUITE {
                    list += &format!(
                        "{:<12} ~{} gates (generated large suite: {})\n",
                        info.name, info.approx_gates, info.description
                    );
                }
                return stdout(list);
            }
            "--jobs" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::usage("--jobs requires a value"))?;
                jobs = v
                    .parse()
                    .map_err(|_| CliError::usage(format!("--jobs expects a number, got {v:?}")))?;
            }
            "--effort" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::usage("--effort requires a value"))?;
                effort = v.parse().map_err(|_| {
                    CliError::usage(format!("--effort expects a number, got {v:?}"))
                })?;
            }
            other => {
                return Err(CliError::usage(format!(
                    "unknown flag {other:?}; try `rms help`"
                )))
            }
        }
    }
    if sections.is_empty() {
        sections.push(Section::Summary);
    }
    let (text, passed) = reports::bench(&sections, &OptOptions::with_effort(effort), jobs);
    stdout(text)?;
    if !passed {
        return Err(CliError::other(
            "sweep regression: a verification, baseline, or determinism check failed",
        ));
    }
    Ok(())
}
