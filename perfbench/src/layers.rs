//! The traced run: the pipeline's stages driven one by one through their
//! public entry points, each call wrapped in a span, and the per-layer
//! metrics accumulated from the spans and the stages' own counters.
//!
//! The stage sequence mirrors `Pipeline::run`: parse, construct, initial
//! statistics, optimize, final statistics and cost, compile (array and
//! PLiM), and the tiered verification — exhaustive simulation up to the
//! width cutoff, otherwise a random-word spot check followed by one SAT
//! miter per program, with the sampled tier as the opt-out and as the
//! fallback after an exhausted conflict budget. A traced item must
//! reproduce its untraced twin's gates and verification outcome exactly.

use crate::stats::{mean, ratio};
use crate::trace::{Ctx, Tracer};
use crate::Metrics;
use rms_core::cost::{MigStats, Realization, RramCost};
use rms_core::opt::{Algorithm, OptOptions, OptStats};
use rms_core::{CancelToken, Mig};
use rms_flow::input::{self, InputFormat};
use rms_flow::verify::{
    EXHAUSTIVE_VERIFY_VARS, PRE_SAT_SPOT_WORDS, SAT_CONFLICT_BUDGET, VERIFY_SAMPLE_WORDS,
};
use rms_flow::{run_algorithm_engine, Engine, Pipeline, VerifyMode, VerifyOutcome};
use rms_logic::sim::random_patterns;
use rms_logic::tt::MAX_VARS;
use rms_logic::Netlist;
use rms_rram::compile::{compile, CompiledCircuit};
use rms_rram::isa::Program;
use rms_rram::machine::Machine;
use rms_rram::plim::{compile_plim, PlimCircuit};
use rms_sat::{check_netlist_vs_program_cancellable, MiterOutcome};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One circuit as the program receives it.
#[derive(Debug, Clone)]
pub struct Input {
    pub name: String,
    pub format: InputFormat,
    pub bytes: Vec<u8>,
    /// The embedded netlist the bytes were rendered from: the reference
    /// of the independent output check.
    pub reference: Netlist,
}

/// The flow options shared by every item of a workload.
#[derive(Debug, Clone, Copy)]
pub struct FlowConfig {
    pub effort: usize,
    pub verify: VerifyMode,
    /// Optimizer jobs; `None` keeps the pipeline default.
    pub jobs: Option<usize>,
}

impl FlowConfig {
    pub fn options(&self) -> OptOptions {
        let mut o = OptOptions::paper();
        o.effort = self.effort;
        if let Some(j) = self.jobs {
            o.jobs = j;
        }
        o
    }

    /// The untraced flow on `input`: one `Pipeline` from the bytes.
    pub fn pipeline(
        &self,
        input: &Input,
        alg: Algorithm,
        seed: u64,
    ) -> Result<rms_flow::FlowOutput, String> {
        let mut p = Pipeline::from_bytes(input.format, &input.bytes, &input.name)
            .map_err(|e| e.to_string())?
            .algorithm(alg)
            .effort(self.effort)
            .verify_mode(self.verify)
            .seed(seed);
        if let Some(j) = self.jobs {
            p = p.jobs(j);
        }
        p.run().map_err(|e| e.to_string())
    }
}

/// The metric suffix of an algorithm's optimize span.
pub fn opt_span(alg: Algorithm) -> &'static str {
    match alg {
        Algorithm::RramCosts => "core.optimize.rram",
        Algorithm::Cut => "cut.optimize.cut",
        Algorithm::SweepResub => "cut.optimize.sweep_resub",
        _ => "core.optimize.other",
    }
}

/// Durations of the traced stages of one item.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    pub parse: Duration,
    pub construct: Duration,
    pub stats: Duration,
    pub optimize: Duration,
    pub compile: Duration,
    pub verify: Duration,
    /// Inside `verify`: program simulation on the machine.
    pub sim: Duration,
    /// Inside `verify`: SAT miters.
    pub sat: Duration,
}

impl Stages {
    /// The sum of the top-level stage spans.
    pub fn total(&self) -> Duration {
        self.parse + self.construct + self.stats + self.optimize + self.compile + self.verify
    }
}

/// SAT work of one item's verification.
#[derive(Debug, Clone, Copy, Default)]
pub struct SatCounts {
    pub calls: u64,
    pub conflicts: u64,
    pub decisions: u64,
    pub gave_up: u64,
}

/// Everything one traced item produced.
pub struct StageRun {
    pub source_gates: usize,
    pub mig: Mig,
    pub opt: OptStats,
    pub cost: RramCost,
    pub array: CompiledCircuit,
    pub plim: PlimCircuit,
    pub verify: VerifyOutcome,
    pub times: Stages,
    pub sat: SatCounts,
    /// 64-lane pattern words simulated per program, summed.
    pub sim_words: u64,
}

/// Runs the stages of one item under spans rooted at `ctx`.
pub fn run_stages(
    tr: &Tracer,
    ctx: Ctx,
    input: &Input,
    alg: Algorithm,
    cfg: &FlowConfig,
    seed: u64,
) -> Result<StageRun, String> {
    let mut t = Stages::default();
    let (netlist, d) = tr.span(ctx, "input.parse", |_| {
        input::parse_bytes(input.format, &input.bytes, &input.name)
    });
    t.parse = d;
    let netlist = netlist.map_err(|e| e.to_string())?;
    let (initial, d) = tr.span(ctx, "core.construct", |_| Mig::from_netlist(&netlist));
    t.construct = d;
    let (_, d) = tr.span(ctx, "core.stats", |_| black_box(MigStats::of(&initial)));
    t.stats = d;
    let opts = cfg.options();
    let ((mig, opt), d) = tr.span(ctx, opt_span(alg), |_| {
        run_algorithm_engine(&initial, alg, Realization::Maj, &opts, Engine::default())
    });
    t.optimize = d;
    let (cost, d) = tr.span(ctx, "core.stats", |_| {
        black_box(MigStats::of(&mig));
        RramCost::of(&mig, Realization::Maj)
    });
    t.stats += d;
    let ((array, plim), d) = tr.span(ctx, "rram.compile", |_| {
        (compile(&mig, Realization::Maj), compile_plim(&mig))
    });
    t.compile = d;
    let mut v = Verifier {
        tr,
        netlist: &netlist,
        programs: [("array", &array.program), ("plim", &plim.program)],
        seed,
        sim: Duration::ZERO,
        sat: Duration::ZERO,
        sim_words: 0,
        counts: SatCounts::default(),
    };
    let (verify, d) = tr.span(ctx, "flow.verify", |c| v.run(c, cfg.verify));
    t.verify = d;
    t.sim = v.sim;
    t.sat = v.sat;
    let (sat, sim_words) = (v.counts, v.sim_words);
    Ok(StageRun {
        source_gates: netlist.num_gates(),
        mig,
        opt,
        cost,
        array,
        plim,
        verify: verify?,
        times: t,
        sat,
        sim_words,
    })
}

/// The verification tiers, rebuilt from public calls.
struct Verifier<'a> {
    tr: &'a Tracer,
    netlist: &'a Netlist,
    programs: [(&'static str, &'a Program); 2],
    seed: u64,
    sim: Duration,
    sat: Duration,
    sim_words: u64,
    counts: SatCounts,
}

impl Verifier<'_> {
    fn run(&mut self, ctx: Ctx, mode: VerifyMode) -> Result<VerifyOutcome, String> {
        if mode == VerifyMode::Off {
            return Ok(VerifyOutcome::Skipped);
        }
        let n = self.netlist.num_inputs();
        if mode != VerifyMode::Sat && n <= EXHAUSTIVE_VERIFY_VARS.min(MAX_VARS) {
            let (want, _) = self
                .tr
                .span(ctx, "logic.truth_tables", |_| self.netlist.truth_tables());
            for (what, program) in self.programs {
                let (got, d) = self
                    .tr
                    .span(ctx, "rram.sim", |_| Machine::truth_tables(program));
                self.sim += d;
                self.sim_words += (1u64 << n).div_ceil(64);
                if got.map_err(|e| format!("{what}: {e}"))? != want {
                    return Ok(failed(what));
                }
            }
            return Ok(VerifyOutcome::Exhaustive);
        }
        if mode == VerifyMode::Sampled {
            return self.words(
                ctx,
                VERIFY_SAMPLE_WORDS,
                VerifyOutcome::Sampled {
                    words: VERIFY_SAMPLE_WORDS,
                },
            );
        }
        let spot = self.words(ctx, PRE_SAT_SPOT_WORDS, VerifyOutcome::Skipped)?;
        if matches!(spot, VerifyOutcome::Failed { .. }) {
            return Ok(spot);
        }
        let (mut conflicts, mut decisions) = (0, 0);
        for (what, program) in self.programs {
            let (res, d) = self.tr.span(ctx, "sat.check", |_| {
                check_netlist_vs_program_cancellable(
                    self.netlist,
                    program,
                    Some(SAT_CONFLICT_BUDGET),
                    &CancelToken::default(),
                )
            });
            self.sat += d;
            self.counts.calls += 1;
            match res.map_err(|e| format!("{what}: {e}"))? {
                Some(MiterOutcome::Equivalent {
                    conflicts: c,
                    decisions: dd,
                }) => {
                    conflicts += c;
                    decisions += dd;
                    self.counts.conflicts += c;
                    self.counts.decisions += dd;
                }
                Some(MiterOutcome::Counterexample { .. }) => return Ok(failed(what)),
                None if mode == VerifyMode::Auto => {
                    self.counts.gave_up += 1;
                    return self.run(ctx, VerifyMode::Sampled);
                }
                None => return Err(format!("{what}: SAT proof gave up")),
            }
        }
        Ok(VerifyOutcome::Proved {
            conflicts,
            decisions,
        })
    }

    /// Seeded random-word simulation of both programs against the
    /// netlist; `pass` on agreement.
    fn words(
        &mut self,
        ctx: Ctx,
        words: usize,
        pass: VerifyOutcome,
    ) -> Result<VerifyOutcome, String> {
        let mut machine = Machine::new();
        let n = self.netlist.num_inputs();
        for pattern in random_patterns(n, words, self.seed) {
            let (want, _) = self.tr.span(ctx, "logic.simulate_words", |_| {
                self.netlist.simulate_words(&pattern)
            });
            for (what, program) in self.programs {
                let (got, d) = self
                    .tr
                    .span(ctx, "rram.sim", |_| machine.run_words(program, &pattern));
                self.sim += d;
                self.sim_words += 1;
                if got.map_err(|e| format!("{what}: {e}"))? != want {
                    return Ok(failed(what));
                }
            }
        }
        Ok(pass)
    }
}

fn failed(what: &str) -> VerifyOutcome {
    VerifyOutcome::Failed {
        what: format!("{what} program differs from the netlist"),
        counterexample: Vec::new(),
    }
}

/// Times the cut optimizer on `mig` at one job and at `jobs`, and returns
/// the ratio of the two times.
pub fn par_speedup(mig: &Mig, cfg: &FlowConfig, jobs: usize) -> f64 {
    let time_at = |j: usize| {
        let mut opts = cfg.options();
        opts.jobs = j;
        let t0 = Instant::now();
        black_box(run_algorithm_engine(
            mig,
            Algorithm::Cut,
            Realization::Maj,
            &opts,
            Engine::default(),
        ));
        t0.elapsed().as_secs_f64()
    };
    let one = time_at(1);
    ratio(one, time_at(jobs))
}

/// Per-layer accumulator over traced items. Times are per-item means;
/// counts are sums over one pass of the workload's distinct items.
#[derive(Debug, Default)]
pub struct LayerAcc {
    parse_ms: Vec<f64>,
    parse_s: f64,
    parsed_gates: u64,
    construct_ms: Vec<f64>,
    opt_ms: [Vec<f64>; 3],
    cycles: u64,
    passes: u64,
    rewrites: u64,
    peak_nodes: u64,
    fraig_classes: u64,
    fraig_merges: u64,
    resubs: u64,
    opt_conflicts: u64,
    budget_exhausted: u64,
    compile_ms: Vec<f64>,
    array_steps: u64,
    physical_rrams: u64,
    plim_instructions: u64,
    sim_ms: Vec<f64>,
    sim_s: f64,
    sim_words: u64,
    sat_ms: Vec<f64>,
    sat: SatCounts,
    verify_ms: Vec<f64>,
    coverage: Vec<f64>,
    traced_s: f64,
    untraced_s: f64,
    pub par_speedup: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl LayerAcc {
    /// Records one traced item, whose `flow.item` span took `traced`, next
    /// to the wall time of its untraced twin. Counts are taken only from
    /// `first_pass` items so that they are exact per-pass sums.
    pub fn record(
        &mut self,
        alg: Algorithm,
        run: &StageRun,
        untraced: Duration,
        traced: Duration,
        first_pass: bool,
    ) {
        let t = &run.times;
        self.parse_ms.push(ms(t.parse));
        self.parse_s += t.parse.as_secs_f64();
        self.parsed_gates += run.source_gates as u64;
        self.construct_ms.push(ms(t.construct));
        let slot = match alg {
            Algorithm::RramCosts => 0,
            Algorithm::Cut => 1,
            _ => 2,
        };
        self.opt_ms[slot].push(ms(t.optimize));
        self.compile_ms.push(ms(t.compile));
        self.sim_ms.push(ms(t.sim));
        self.sim_s += t.sim.as_secs_f64();
        self.sim_words += run.sim_words;
        self.sat_ms.push(ms(t.sat));
        self.verify_ms.push(ms(t.verify));
        self.coverage
            .push(ratio(t.total().as_secs_f64(), untraced.as_secs_f64()));
        self.traced_s += traced.as_secs_f64();
        self.untraced_s += untraced.as_secs_f64();
        if !first_pass {
            return;
        }
        let o = &run.opt;
        if alg == Algorithm::RramCosts {
            self.cycles += o.cycles as u64;
            self.passes += o.passes;
        } else {
            self.rewrites += o.rewrites;
            self.peak_nodes = self.peak_nodes.max(o.peak_nodes);
            self.fraig_classes += o.fraig_classes;
            self.fraig_merges += o.fraig_merges;
            self.resubs += o.resubs;
            self.opt_conflicts += o.sat_conflicts;
            self.budget_exhausted += o.sat_budget_exhausted;
        }
        self.array_steps += run.array.program.num_steps();
        self.physical_rrams += run.array.physical_rrams;
        self.plim_instructions += run.plim.instructions;
        self.sat.calls += run.sat.calls;
        self.sat.conflicts += run.sat.conflicts;
        self.sat.decisions += run.sat.decisions;
        self.sat.gave_up += run.sat.gave_up;
    }

    /// Number of items recorded (all passes).
    pub fn items(&self) -> usize {
        self.coverage.len()
    }

    /// Emits the pipeline layers' metrics.
    pub fn emit(&self, m: &mut Metrics) {
        m.set("input.parse_ms", mean(&self.parse_ms));
        m.set(
            "input.gates_per_s",
            ratio(self.parsed_gates as f64, self.parse_s),
        );
        m.set("core.construct_ms", mean(&self.construct_ms));
        m.set("core.optimize_ms.rram", mean(&self.opt_ms[0]));
        m.set("core.cycles", self.cycles as f64);
        m.set("core.passes", self.passes as f64);
        m.set("cut.optimize_ms.cut", mean(&self.opt_ms[1]));
        m.set("cut.optimize_ms.sweep_resub", mean(&self.opt_ms[2]));
        m.set("cut.rewrites", self.rewrites as f64);
        m.set("cut.par_speedup", self.par_speedup);
        m.set("cut.peak_nodes", self.peak_nodes as f64);
        m.set("cut.fraig_classes", self.fraig_classes as f64);
        m.set("cut.fraig_merges", self.fraig_merges as f64);
        m.set(
            "cut.merge_ratio",
            ratio(self.fraig_merges as f64, self.fraig_classes as f64),
        );
        m.set("cut.resubs", self.resubs as f64);
        m.set("cut.sat_conflicts", self.opt_conflicts as f64);
        m.set("cut.sat_budget_exhausted", self.budget_exhausted as f64);
        m.set("rram.compile_ms", mean(&self.compile_ms));
        m.set("rram.array_steps", self.array_steps as f64);
        m.set("rram.physical_rrams", self.physical_rrams as f64);
        m.set("rram.plim_instructions", self.plim_instructions as f64);
        m.set("rram.sim_ms", mean(&self.sim_ms));
        m.set(
            "rram.sim_words_per_s",
            ratio(self.sim_words as f64, self.sim_s),
        );
        m.set("sat.ms", mean(&self.sat_ms));
        m.set("sat.calls", self.sat.calls as f64);
        m.set("sat.conflicts", self.sat.conflicts as f64);
        m.set("sat.decisions", self.sat.decisions as f64);
        m.set("sat.gave_up", self.sat.gave_up as f64);
        m.set("flow.verify_ms", mean(&self.verify_ms));
        m.set("flow.trace_coverage", crate::stats::median(&self.coverage));
        m.set(
            "flow.trace_overhead",
            ratio(self.traced_s - self.untraced_s, self.untraced_s),
        );
    }

    /// Spread of the per-item coverage, for the text report.
    pub fn coverage_range(&self) -> (f64, f64) {
        let min = self.coverage.iter().copied().fold(f64::INFINITY, f64::min);
        let max = self.coverage.iter().copied().fold(0.0, f64::max);
        (if min.is_finite() { min } else { 0.0 }, max)
    }
}
