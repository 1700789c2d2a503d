//! The unified synthesis pipeline: one composable API from circuit text
//! to a verified RRAM program.
//!
//! The other crates in this workspace each own one layer of the paper's
//! flow — Boolean functions ([`rms_logic`]), majority-inverter graphs and
//! the optimization algorithms ([`rms_core`]), the cut-based NPN
//! rewriting engine ([`rms_cut`]), the RRAM machine and compilers
//! ([`rms_rram`]), the SAT-based equivalence checker ([`rms_sat`]), and
//! the AIG/BDD baselines ([`rms_aig`], [`rms_bdd`]). This crate chains
//! them:
//!
//! ```text
//! BLIF / PLA / Verilog / expr / truth table   (input::load_path, parse_str)
//!        │
//!        ▼
//! Netlist ──frontend──► Mig                (Pipeline::frontend: direct / aig / bdd)
//!        │
//!        ▼
//! optimizer: Algs. 1–4 + cut rewriting     (Pipeline::algorithm, effort)
//!        │
//!        ▼
//! (R, S) costing — Table I                 (rms_core::cost)
//!        │
//!        ├──► level-parallel array program (rms_rram::compile)
//!        └──► serial PLiM stream           (rms_rram::plim)
//!        │
//!        ▼
//! tiered verification + report             (verify: exhaustive / SAT proof /
//!                                           sampled; report: text / JSON)
//! ```
//!
//! The `rms` command-line binary (in the workspace root package) and the
//! `rms-bench` reproduction harness are both thin wrappers over
//! [`Pipeline`] and the [`rms_core::par`] thread pool.
//!
//! # Example
//!
//! ```
//! use rms_flow::{Pipeline, input::InputFormat};
//! use rms_core::{Algorithm, Realization};
//!
//! # fn main() -> Result<(), rms_flow::FlowError> {
//! let out = Pipeline::from_str(InputFormat::Expr, "f = maj(a, b, c) ^ d", "demo")?
//!     .algorithm(Algorithm::Steps)
//!     .realization(Realization::Maj)
//!     .effort(10)
//!     .run()?;
//! println!("{}", rms_flow::report::render_text(&out.report));
//! assert!(out.report.cost.steps > 0);
//! # Ok(())
//! # }
//! ```

//!
//! `ARCHITECTURE.md` at the repository root documents the stages in
//! prose; `README.md` has the CLI quickstart.

pub mod error;
pub mod input;
pub mod pipeline;
pub mod report;
pub mod verify;

pub use error::FlowError;
pub use input::InputFormat;
pub use pipeline::{
    run_algorithm, FlowOutput, FlowReport, Frontend, Pipeline, StageTimings, DEFAULT_VERIFY_SEED,
};
#[doc(hidden)]
pub use pipeline::{run_algorithm_engine, Engine};
pub use report::{escape_json, render_json, render_text, REPORT_SCHEMA};
pub use verify::{check_netlists, format_assignment, VerifyMode, VerifyOutcome};
