//! Cut-based NPN rewriting for majority-inverter graphs (Algorithm 5).
//!
//! The paper's Ω/Ψ transformations (`rms-core`) are local, axiom-by-axiom
//! passes; they plateau on reconvergent logic where only a Boolean
//! (truth-table-level) restructuring finds a smaller majority network.
//! This crate adds the standard escape hatch of modern synthesis engines
//! — **cut rewriting against a database of size-optimal structures**:
//!
//! 1. [`cuts`] enumerates priority k-feasible cuts (k ≤ 4) for every
//!    node, each carrying its local function as a 16-bit truth table;
//! 2. [`npn`] canonicalizes those functions into one of the **222 NPN
//!    classes** of ≤4-input functions (exhaustive `4!·2⁴·2` orbit scan
//!    over precomputed transform tables);
//! 3. [`mod@database`] maps every class to a size-optimal (exact for ≤3
//!    gates, near-optimal otherwise) 4-input MIG, loaded once per process
//!    from a committed generated table;
//! 4. the rewrite round ([`round_windowed`], in [`incremental`]) walks
//!    the graph in topological order and replaces a node's maximum
//!    fanout-free cone with the database structure whenever that is a
//!    net win (zero-gain hops optional); the scripts in [`rewrite`]
//!    repeat it, yielding [`optimize_cut`] (node-count objective) and
//!    [`optimize_cut_rram`] (interleaved with the paper's Alg. 3, scored
//!    by `R·S`).
//!
//! Every script runs one round, the **in-place round** ([`incremental`]):
//! it evaluates fixed-size windows of a persistent
//! [`rms_core::IncrementalMig`] and splices accepted rewrites into it.
//! Algorithm 5 ([`cut_script_inplace`]) and the SAT-sweeping scripts
//! ([`sweep`]) rewrite one graph for the whole run; the hybrid
//! ([`optimize_cut_rram`]) runs the round on a fresh incremental view of
//! each cycle's graph inside [`rms_core::opt::drive`], the best-iterate
//! loop of the paper's algorithms. The **rebuild round**
//! ([`rewrite_round`]) rebuilds the whole graph per round; it is kept
//! only as the reference oracle of differential tests.
//!
//! `rms-flow` wires the scripts into the pipeline (CLI: `rms run --opt
//! cut` / `--opt cut-rram`).
//!
//! # Example
//!
//! ```
//! use rms_core::{Mig, opt::OptOptions};
//! use rms_cut::optimize_cut;
//!
//! // Majority spelled as five AND/OR gates; one database lookup finds it.
//! let mut mig = Mig::with_inputs("maj_sop", 3);
//! let (a, b, c) = (mig.input(0), mig.input(1), mig.input(2));
//! let (ab, ac, bc) = (mig.and(a, b), mig.and(a, c), mig.and(b, c));
//! let or1 = mig.or(ab, ac);
//! let or2 = mig.or(or1, bc);
//! mig.add_output("f", or2);
//! let opt = optimize_cut(&mig, &OptOptions::with_effort(2));
//! assert_eq!(opt.num_gates(), 1);
//! ```

pub mod cuts;
pub mod database;
#[rustfmt::skip]
mod database_table;
pub mod fraig;
pub mod incremental;
pub mod npn;
pub mod resub;
pub mod rewrite;
pub mod sweep;

pub use cuts::{Cut, CutList, MAX_CUTS_PER_NODE, MAX_CUT_INPUTS};
pub use database::{database, prewarm, Database, DbEntry};
pub use fraig::{fraig_pass, prove_signals, FraigOptions, FraigOutcome, FraigStats, ProveOutcome};
pub use incremental::{cut_script_inplace, round_windowed, WINDOW_NODES};
pub use resub::{resub_pass, ResubOptions, ResubStats};
pub use rewrite::{
    optimize_cut, optimize_cut_rram, optimize_cut_rram_stats, optimize_cut_stats, rewrite_round,
    RoundStats,
};
pub use sweep::{optimize_sweep_stats, SweepPasses};
