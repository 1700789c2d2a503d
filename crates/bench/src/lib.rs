//! Reproduction harness: runs the paper's evaluation and regenerates every
//! table and figure.
//!
//! - [`runner`] — executes the synthesis flows over the embedded benchmark
//!   suites and collects measured (R, S) values; every sweep takes a
//!   worker count for [`rms_core::par`] and returns identical rows for
//!   any value,
//! - [`reports`] — renders the tables/figures as printable text,
//! - [`mod@format`] — plain-text table rendering with paper-vs-measured
//!   columns.
//!
//! `rms bench --table2|--table3|--summary|--runtime|--figures` prints
//! one [`reports`] function each; README.md lists what each section is
//! expected to show. The reports time only their own sweeps (the
//! paper's run-time claim); every other measurement of the flow lives in
//! the standalone `perfbench/` package, and the exact cut gate counts of
//! both suites are pinned by `tests/incremental.rs`.
//!
//! The embedded circuits are substitutes for the unredistributable
//! LGsynth91/ISCAS89 originals — compare shapes and ratios, not absolute
//! values. See `ARCHITECTURE.md` at the repository root.

pub mod format;
pub mod reports;
pub mod runner;
