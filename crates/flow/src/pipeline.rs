//! The end-to-end synthesis pipeline: netlist → MIG → optimization →
//! (R, S) costing → RRAM compilation → machine-level verification.
//!
//! [`Pipeline`] is a builder over the stages the paper describes and the
//! other crates implement; [`Pipeline::run`] executes them in order and
//! returns both the structured [`FlowReport`] (what the CLI prints as text
//! or JSON) and the produced artifacts (optimized [`Mig`], compiled
//! programs) for further processing.
//!
//! # Example
//!
//! ```
//! use rms_flow::{Pipeline, input::InputFormat};
//! use rms_core::{Algorithm, Realization};
//!
//! # fn main() -> Result<(), rms_flow::FlowError> {
//! let blif = ".model t\n.inputs a b c\n.outputs f\n.names a b c f\n11- 1\n--1 1\n.end\n";
//! let out = Pipeline::from_str(InputFormat::Blif, blif, "t")?
//!     .algorithm(Algorithm::RramCosts)
//!     .realization(Realization::Maj)
//!     .effort(10)
//!     .run()?;
//! assert!(out.report.verify.passed());
//! assert_eq!(out.report.cost.steps, out.array.program.num_steps());
//! # Ok(())
//! # }
//! ```

use crate::error::FlowError;
use crate::input::{self, InputFormat};
use crate::verify::{self, format_assignment};
pub use crate::verify::{VerifyMode, VerifyOutcome};
use rms_aig::Aig;
use rms_core::cost::{MigStats, Realization, RramCost};
use rms_core::opt::{
    optimize_area_stats, optimize_depth_stats, optimize_rram_stats, optimize_steps_stats,
    Algorithm, OptOptions, OptStats,
};
use rms_core::Mig;
use rms_cut::SweepPasses;
use rms_logic::netlist::Netlist;
use rms_logic::synth;
use rms_logic::tt::MAX_VARS;
use rms_rram::compile::{compile, CompiledCircuit};
use rms_rram::plim::{compile_plim, PlimCircuit};
use std::path::Path;
use std::time::{Duration, Instant};

/// How the initial MIG is seeded from the netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Frontend {
    /// Convert the netlist gates one-to-one into majority nodes.
    #[default]
    Direct,
    /// Restructure through a depth-balanced AIG first (useful when the
    /// input is deeply serial two-level logic).
    Aig,
    /// Restructure through a shared Shannon/mux decomposition (the shape a
    /// BDD front end produces). Limited to circuits whose truth tables fit
    /// in memory.
    Bdd,
}

impl Frontend {
    /// Parses a frontend name as given on the command line.
    pub fn from_name(name: &str) -> Option<Frontend> {
        match name.to_ascii_lowercase().as_str() {
            "direct" | "mig" => Some(Frontend::Direct),
            "aig" => Some(Frontend::Aig),
            "bdd" | "shannon" => Some(Frontend::Bdd),
            _ => None,
        }
    }
}

impl std::fmt::Display for Frontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Frontend::Direct => write!(f, "direct"),
            Frontend::Aig => write!(f, "aig"),
            Frontend::Bdd => write!(f, "bdd"),
        }
    }
}

/// Default seed of the sampled-verification pattern RNG
/// ([`Pipeline::seed`] overrides it).
pub const DEFAULT_VERIFY_SEED: u64 = 0x5eed;

/// The BDD frontend materializes truth tables; cap the width so a typo
/// cannot allocate 2^n bits.
const BDD_FRONTEND_MAX_VARS: usize = 18;

/// Wall-clock duration of each pipeline stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Reading and parsing the input (zero when built from a netlist).
    pub parse: Duration,
    /// Frontend construction of the initial MIG.
    pub construct: Duration,
    /// The optimization algorithm.
    pub optimize: Duration,
    /// Level-parallel and PLiM compilation.
    pub compile: Duration,
    /// Machine-level verification.
    pub verify: Duration,
}

/// The structured result of a pipeline run — everything the text and JSON
/// reports render.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Circuit name (model name or file stem).
    pub name: String,
    /// Primary input count.
    pub num_inputs: usize,
    /// Primary output count.
    pub num_outputs: usize,
    /// Gate count of the source netlist.
    pub source_gates: usize,
    /// Which optimization algorithm ran.
    pub algorithm: Algorithm,
    /// Which majority-gate realization was targeted.
    pub realization: Realization,
    /// Optimization effort (cycles).
    pub effort: usize,
    /// How the MIG was seeded.
    pub frontend: Frontend,
    /// Statistics of the MIG before optimization.
    pub initial: MigStats,
    /// Statistics of the MIG after optimization.
    pub optimized: MigStats,
    /// Optimizer run statistics (cycles, passes, cut rewrites).
    pub opt: OptStats,
    /// Table I metrics of the optimized MIG for [`FlowReport::realization`].
    pub cost: RramCost,
    /// Steps of the compiled level-parallel program (equals `cost.steps`
    /// except for the degenerate all-pass-through case).
    pub array_steps: u64,
    /// Physical peak device count of the level-parallel program.
    pub array_physical_rrams: u64,
    /// Instruction count of the serial PLiM stream.
    pub plim_instructions: u64,
    /// Peak live memory cells of the PLiM stream.
    pub plim_cells: u64,
    /// How the result was verified.
    pub verify: VerifyOutcome,
    /// Which verification policy was requested.
    pub verify_mode: VerifyMode,
    /// Seed of the sampled-verification pattern RNG.
    pub verify_seed: u64,
    /// Per-stage wall-clock times.
    pub timings: StageTimings,
}

/// Artifacts of a pipeline run: the report plus every intermediate worth
/// keeping.
#[derive(Debug)]
pub struct FlowOutput {
    /// The structured report.
    pub report: FlowReport,
    /// The source netlist (reference semantics).
    pub netlist: Netlist,
    /// The optimized MIG.
    pub mig: Mig,
    /// The compiled level-parallel crossbar program.
    pub array: CompiledCircuit,
    /// The compiled serial PLiM instruction stream.
    pub plim: PlimCircuit,
}

/// Builder for one end-to-end synthesis run.
#[derive(Debug, Clone)]
pub struct Pipeline {
    netlist: Netlist,
    algorithm: Algorithm,
    realization: Realization,
    options: OptOptions,
    frontend: Frontend,
    verify: VerifyMode,
    seed: u64,
    best_effort: bool,
    parse_time: Duration,
}

impl Pipeline {
    /// Starts a pipeline from an already-parsed netlist.
    pub fn new(netlist: Netlist) -> Self {
        Pipeline {
            netlist,
            algorithm: Algorithm::RramCosts,
            realization: Realization::Maj,
            options: OptOptions::paper(),
            frontend: Frontend::Direct,
            verify: VerifyMode::Auto,
            seed: DEFAULT_VERIFY_SEED,
            best_effort: false,
            parse_time: Duration::ZERO,
        }
    }

    /// Starts a pipeline by loading `path` (format chosen by extension,
    /// falling back to content sniffing).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Io`] or [`FlowError::Parse`].
    pub fn from_path(path: impl AsRef<Path>) -> Result<Self, FlowError> {
        let t0 = Instant::now();
        let netlist = input::load_path(path.as_ref())?;
        let mut p = Pipeline::new(netlist);
        p.parse_time = t0.elapsed();
        Ok(p)
    }

    /// Starts a pipeline from circuit text in an explicit format.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Parse`] when the text is malformed.
    pub fn from_str(format: InputFormat, text: &str, name: &str) -> Result<Self, FlowError> {
        let t0 = Instant::now();
        let netlist = input::parse_str(format, text, name)?;
        let mut p = Pipeline::new(netlist);
        p.parse_time = t0.elapsed();
        Ok(p)
    }

    /// Starts a pipeline from raw circuit bytes in an explicit format
    /// (the only constructor that accepts **binary** AIGER).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Parse`] when the bytes are malformed.
    pub fn from_bytes(format: InputFormat, bytes: &[u8], name: &str) -> Result<Self, FlowError> {
        let t0 = Instant::now();
        let netlist = input::parse_bytes(format, bytes, name)?;
        let mut p = Pipeline::new(netlist);
        p.parse_time = t0.elapsed();
        Ok(p)
    }

    /// Starts a pipeline from an embedded benchmark.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownBenchmark`] for unknown names.
    pub fn from_bench(name: &str) -> Result<Self, FlowError> {
        Ok(Pipeline::new(input::load_bench(name)?))
    }

    /// Selects the optimization algorithm (default: Alg. 3, `RramCosts`).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Selects the majority-gate realization (default: MAJ).
    pub fn realization(mut self, realization: Realization) -> Self {
        self.realization = realization;
        self
    }

    /// Replaces the full optimizer options.
    pub fn options(mut self, options: OptOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the optimization effort (cycles; the paper uses 40).
    pub fn effort(mut self, effort: usize) -> Self {
        self.options.effort = effort;
        self
    }

    /// Sets the worker count of the partition-parallel rewrite round
    /// (0 = auto; see [`rms_core::opt::OptOptions::jobs`]). Applies
    /// *within* a single circuit, at every size (a graph of at most
    /// [`rms_cut::WINDOW_NODES`] nodes is one window and runs inline);
    /// the result is bit-identical for every value.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.options.jobs = jobs;
        self
    }

    /// Selects how the initial MIG is seeded (default: direct).
    pub fn frontend(mut self, frontend: Frontend) -> Self {
        self.frontend = frontend;
        self
    }

    /// Selects the verification policy (default: [`VerifyMode::Auto`]):
    /// tiered (exhaustive below the width cutoff, SAT proof above,
    /// sampling if a proof exhausts its conflict budget), forced SAT
    /// proof, sampled (explicit opt-out of formal checking), or off.
    pub fn verify_mode(mut self, mode: VerifyMode) -> Self {
        self.verify = mode;
        self
    }

    /// Sets the seed of the sampled-verification pattern RNG (default:
    /// [`DEFAULT_VERIFY_SEED`]), so a failing wide-circuit verification
    /// can be reproduced — and varied — across runs. Exhaustive
    /// verification ignores the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches a cooperative-cancellation token (usually one built with
    /// [`rms_core::CancelToken::with_deadline`]). The optimizer polls it
    /// at deterministic checkpoint boundaries; once it trips, the run
    /// either fails with [`FlowError::Timeout`] or — under
    /// [`Pipeline::best_effort`] — finishes from the best completed
    /// iterate. Runs that complete are bit-identical with or without a
    /// token.
    pub fn cancel(mut self, cancel: rms_core::CancelToken) -> Self {
        self.options.cancel = cancel;
        self
    }

    /// Selects graceful degradation under cancellation: instead of a
    /// [`FlowError::Timeout`], a cancelled run compiles and **fully
    /// verifies** the best iterate the optimizer completed before the
    /// deadline (the report's `opt.cancelled` flag records the
    /// truncation). Default: off.
    pub fn best_effort(mut self, best_effort: bool) -> Self {
        self.best_effort = best_effort;
        self
    }

    /// A read-only view of the source netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Executes all stages and returns the report plus artifacts.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Unsupported`] when the BDD frontend is asked
    /// to handle a circuit too wide for truth tables, and
    /// [`FlowError::Verification`] when a compiled program disagrees with
    /// the source netlist (which would indicate a bug in the toolchain —
    /// the error carries a concrete counterexample input assignment).
    pub fn run(self) -> Result<FlowOutput, FlowError> {
        let Pipeline {
            netlist,
            algorithm,
            realization,
            options,
            frontend,
            verify,
            seed,
            best_effort,
            parse_time,
        } = self;

        let t0 = Instant::now();
        let initial_mig = seed_mig(&netlist, frontend)?;
        let construct = t0.elapsed();
        let initial = MigStats::of(&initial_mig);

        let t0 = Instant::now();
        let (mig, opt_stats) = run_algorithm(&initial_mig, algorithm, realization, &options);
        let optimize = t0.elapsed();
        if opt_stats.cancelled && !best_effort {
            return Err(FlowError::Timeout(format!(
                "optimization of {:?} abandoned after {} of {} cycles at the request deadline \
                 (re-run with best-effort to keep the best completed iterate)",
                netlist.name(),
                opt_stats.cycles,
                options.effort
            )));
        }
        let optimized = MigStats::of(&mig);
        let cost = RramCost::of(&mig, realization);

        let t0 = Instant::now();
        let array = compile(&mig, realization);
        let plim = compile_plim(&mig);
        let compile_time = t0.elapsed();

        let t0 = Instant::now();
        let programs = [("array", &array.program), ("plim", &plim.program)];
        // Best-effort runs must still end in a *verified* result, so the
        // verification stage runs to completion with an inert token; a
        // strict (non-best-effort) deadline keeps cancelling through it.
        let verify_cancel = if best_effort {
            rms_core::CancelToken::default()
        } else {
            options.cancel.clone()
        };
        let verify_outcome =
            verify::verify_programs(&netlist, &programs, verify, seed, &verify_cancel)?;
        if let VerifyOutcome::Failed {
            what,
            counterexample,
        } = &verify_outcome
        {
            return Err(FlowError::Verification(format!(
                "{what}; counterexample: {}",
                format_assignment(netlist.input_names(), counterexample)
            )));
        }
        let verify_time = t0.elapsed();

        let report = FlowReport {
            name: netlist.name().to_string(),
            num_inputs: netlist.num_inputs(),
            num_outputs: netlist.num_outputs(),
            source_gates: netlist.num_gates(),
            algorithm,
            realization,
            effort: options.effort,
            frontend,
            initial,
            optimized,
            opt: opt_stats,
            cost,
            array_steps: array.program.num_steps(),
            array_physical_rrams: array.physical_rrams,
            plim_instructions: plim.instructions,
            plim_cells: plim.cells,
            verify: verify_outcome,
            verify_mode: verify,
            verify_seed: seed,
            timings: StageTimings {
                parse: parse_time,
                construct,
                optimize,
                compile: compile_time,
                verify: verify_time,
            },
        };
        Ok(FlowOutput {
            report,
            netlist,
            mig,
            array,
            plim,
        })
    }
}

/// Builds the initial MIG according to the chosen frontend.
fn seed_mig(netlist: &Netlist, frontend: Frontend) -> Result<Mig, FlowError> {
    match frontend {
        Frontend::Direct => Ok(Mig::from_netlist(netlist)),
        Frontend::Aig => {
            let aig = Aig::from_netlist(netlist).balance();
            Ok(Mig::from_netlist(&aig.to_netlist()))
        }
        Frontend::Bdd => {
            let n = netlist.num_inputs();
            if n > BDD_FRONTEND_MAX_VARS.min(MAX_VARS) {
                return Err(FlowError::Unsupported(format!(
                    "the BDD frontend materializes truth tables and supports at most {} inputs; \
                     {:?} has {n}",
                    BDD_FRONTEND_MAX_VARS.min(MAX_VARS),
                    netlist.name()
                )));
            }
            let shannon = synth::shannon_netlist(netlist.name(), &netlist.truth_tables());
            Ok(Mig::from_netlist(&shannon))
        }
    }
}

/// Runs an optimization algorithm: the one dispatcher over
/// [`Algorithm`]. The paper's Algs. 1–4 come from `rms-core`; the
/// cut-rewriting modes come from `rms-cut`.
pub fn run_algorithm(
    mig: &Mig,
    algorithm: Algorithm,
    realization: Realization,
    options: &OptOptions,
) -> (Mig, OptStats) {
    match algorithm {
        Algorithm::Area => optimize_area_stats(mig, options),
        Algorithm::Depth => optimize_depth_stats(mig, options),
        Algorithm::RramCosts => optimize_rram_stats(mig, realization, options),
        Algorithm::Steps => optimize_steps_stats(mig, realization, options),
        Algorithm::Cut => rms_cut::optimize_cut_stats(mig, options),
        Algorithm::CutRram => rms_cut::optimize_cut_rram_stats(mig, realization, options),
        Algorithm::Sweep => rms_cut::optimize_sweep_stats(mig, options, SweepPasses::FRAIG),
        Algorithm::Resub => rms_cut::optimize_sweep_stats(mig, options, SweepPasses::RESUB),
        Algorithm::SweepResub => rms_cut::optimize_sweep_stats(mig, options, SweepPasses::BOTH),
    }
}

/// A former optimizer selector, kept with one variant only for its one
/// remaining caller, the `perfbench/` package. It selects nothing.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The in-place cut round, which every script runs.
    #[default]
    Incremental,
}

/// [`run_algorithm`] under its former name, kept only for its one
/// remaining caller, the `perfbench/` package; `engine` is ignored.
#[doc(hidden)]
pub fn run_algorithm_engine(
    mig: &Mig,
    algorithm: Algorithm,
    realization: Realization,
    options: &OptOptions,
    _engine: Engine,
) -> (Mig, OptStats) {
    run_algorithm(mig, algorithm, realization, options)
}

/// Runs one optimizer configuration and returns the optimized graph with
/// its Table I cost — the primitive the sweep runners are built on.
pub fn optimize_cost(
    mig: &Mig,
    algorithm: Algorithm,
    realization: Realization,
    options: &OptOptions,
) -> (Mig, RramCost) {
    let (out, _) = run_algorithm(mig, algorithm, realization, options);
    let cost = RramCost::of(&out, realization);
    (out, cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE_BLIF: &str = "\
.model sample
.inputs a b c d e
.outputs f g
.names a b p1
11 1
.names c d p2
10 1
01 1
.names p1 p2 e f
11- 1
--1 1
.names a d e g
000 1
111 1
.end
";

    #[test]
    fn full_run_verifies_exhaustively() {
        let out = Pipeline::from_str(InputFormat::Blif, SAMPLE_BLIF, "sample")
            .unwrap()
            .algorithm(Algorithm::RramCosts)
            .realization(Realization::Imp)
            .effort(8)
            .run()
            .unwrap();
        assert_eq!(out.report.verify, VerifyOutcome::Exhaustive);
        assert_eq!(out.report.num_inputs, 5);
        assert_eq!(out.report.num_outputs, 2);
        assert_eq!(out.report.cost, RramCost::of(&out.mig, Realization::Imp));
        assert!(out.report.plim_instructions >= out.report.array_steps);
    }

    #[test]
    fn frontends_agree_on_function() {
        let reference = Pipeline::from_str(InputFormat::Blif, SAMPLE_BLIF, "s")
            .unwrap()
            .netlist()
            .truth_tables();
        for frontend in [Frontend::Direct, Frontend::Aig, Frontend::Bdd] {
            let out = Pipeline::from_str(InputFormat::Blif, SAMPLE_BLIF, "s")
                .unwrap()
                .frontend(frontend)
                .effort(4)
                .run()
                .unwrap();
            assert_eq!(out.mig.truth_tables(), reference, "{frontend}");
        }
    }

    #[test]
    fn bdd_frontend_rejects_wide_circuits() {
        let mut b = rms_logic::NetlistBuilder::new("wide");
        let ins: Vec<_> = (0..40).map(|i| b.input(format!("i{i}"))).collect();
        let mut acc = ins[0];
        for &w in &ins[1..] {
            acc = b.xor(acc, w);
        }
        b.output("o", acc);
        let err = Pipeline::new(b.build()).frontend(Frontend::Bdd).run();
        assert!(matches!(err, Err(FlowError::Unsupported(_))));
    }

    #[test]
    fn wide_circuits_get_sat_proved_by_default() {
        let mut b = rms_logic::NetlistBuilder::new("wide");
        let ins: Vec<_> = (0..20).map(|i| b.input(format!("i{i}"))).collect();
        let mut acc = ins[0];
        for &w in &ins[1..] {
            acc = b.maj(acc, w, ins[0]);
        }
        b.output("o", acc);
        let out = Pipeline::new(b.build()).effort(2).run().unwrap();
        assert!(
            matches!(out.report.verify, VerifyOutcome::Proved { .. }),
            "{:?}",
            out.report.verify
        );
        assert!(out.report.verify.is_proof());
    }

    #[test]
    fn sampling_survives_as_an_explicit_opt_out() {
        let mut b = rms_logic::NetlistBuilder::new("wide");
        let ins: Vec<_> = (0..20).map(|i| b.input(format!("i{i}"))).collect();
        let mut acc = ins[0];
        for &w in &ins[1..] {
            acc = b.maj(acc, w, ins[0]);
        }
        b.output("o", acc);
        let out = Pipeline::new(b.build())
            .effort(2)
            .verify_mode(VerifyMode::Sampled)
            .run()
            .unwrap();
        assert!(matches!(out.report.verify, VerifyOutcome::Sampled { .. }));
        assert!(!out.report.verify.is_proof());
    }

    #[test]
    fn narrow_circuits_can_force_a_sat_proof() {
        let out = Pipeline::from_str(InputFormat::Blif, SAMPLE_BLIF, "s")
            .unwrap()
            .effort(4)
            .verify_mode(VerifyMode::Sat)
            .run()
            .unwrap();
        assert!(matches!(out.report.verify, VerifyOutcome::Proved { .. }));
        assert_eq!(out.report.verify_mode, VerifyMode::Sat);
    }

    #[test]
    fn cut_algorithms_run_and_verify() {
        for alg in [Algorithm::Cut, Algorithm::CutRram] {
            let out = Pipeline::from_str(InputFormat::Blif, SAMPLE_BLIF, "s")
                .unwrap()
                .algorithm(alg)
                .effort(4)
                .run()
                .unwrap();
            assert_eq!(out.report.verify, VerifyOutcome::Exhaustive, "{alg}");
            assert_eq!(out.report.algorithm, alg);
            assert_eq!(out.report.opt.gates_after, out.mig.num_gates() as u64);
        }
    }

    #[test]
    fn seed_threads_into_sampled_verification() {
        let mut b = rms_logic::NetlistBuilder::new("wide");
        let ins: Vec<_> = (0..20).map(|i| b.input(format!("i{i}"))).collect();
        let mut acc = ins[0];
        for &w in &ins[1..] {
            acc = b.maj(acc, w, ins[0]);
        }
        b.output("o", acc);
        let out = Pipeline::new(b.build())
            .effort(1)
            .seed(42)
            .verify_mode(VerifyMode::Sampled)
            .run()
            .unwrap();
        assert!(matches!(out.report.verify, VerifyOutcome::Sampled { .. }));
        assert_eq!(out.report.verify_seed, 42);
        // The default seed is fixed, not time-derived.
        let nl = input::load_bench("rd53_f2").unwrap();
        let out = Pipeline::new(nl).effort(1).run().unwrap();
        assert_eq!(out.report.verify_seed, super::DEFAULT_VERIFY_SEED);
    }

    #[test]
    fn optimize_cost_matches_algorithm_run() {
        let nl = input::load_bench("rd53_f2").unwrap();
        let mig = Mig::from_netlist(&nl);
        let opts = OptOptions::with_effort(6);
        let (out, cost) = optimize_cost(&mig, Algorithm::Steps, Realization::Maj, &opts);
        assert_eq!(cost, RramCost::of(&out, Realization::Maj));
        let (direct, _) = run_algorithm(&mig, Algorithm::Steps, Realization::Maj, &opts);
        assert_eq!(RramCost::of(&direct, Realization::Maj), cost);
    }
}
