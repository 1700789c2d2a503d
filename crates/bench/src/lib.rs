//! Reproduction harness: runs the paper's evaluation and regenerates every
//! table and figure.
//!
//! - [`runner`] — executes the synthesis flows over the embedded benchmark
//!   suites and collects measured (R, S) values; every sweep takes a
//!   worker count for [`rms_core::par`] and returns identical rows for
//!   any value,
//! - [`reports`] — renders the tables/figures as printable text,
//! - [`mod@format`] — plain-text table rendering with paper-vs-measured
//!   columns,
//! - [`timing`] — the minimal stopwatch used by the `benches/` targets
//!   (the build is offline, so no Criterion).
//!
//! # The `repro_*` binaries
//!
//! Each binary is a thin wrapper printing one [`reports`] function, so the
//! same text is available programmatically and through `rms bench`:
//!
//! | Binary | Report | Expected output |
//! |---|---|---|
//! | `repro_table2` | [`reports::table2_report`] | 25 rows of R/S for the six configurations, measured Σ row next to the paper's Σ row (similar shape, not identical values — substitute circuits), and a whole-suite run-time well under the paper's 3 s bound |
//! | `repro_table3` | [`reports::table3_report`] | BDD \[11\] and AIG \[12\] baselines per benchmark vs. the MIG flow; aggregate step ratios of roughly the paper's ~8x (BDD) and ~2.6–7x (AIG) advantages |
//! | `repro_summary` | [`reports::summary_report`] | the headline claims (step reductions, trade-offs, ratios, run-time) as one paper-vs-measured table |
//! | `repro_runtime` | [`reports::runtime_report`] | per-algorithm whole-suite run-times, each expected `< 3 s` |
//! | `repro_figures` | [`reports::figures_report`] | Figs. 1–4 regenerated from the device model and rewrite engine; every figure self-checks (majority = `e8`, equivalence = `true`) |
//!
//! Run any of them with
//! `cargo run --release -p rms-bench --bin repro_table2`, or get the same
//! sections via the top-level CLI: `rms bench --table2 --table3`.

//!
//! The embedded circuits are substitutes for the unredistributable
//! LGsynth91/ISCAS89 originals — compare shapes and ratios, not absolute
//! values. See `ARCHITECTURE.md` at the repository root.

pub mod format;
pub mod reports;
pub mod runner;
pub mod timing;
