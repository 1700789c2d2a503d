//! Reproduction harness: runs the paper's evaluation and regenerates every
//! table and figure.
//!
//! - [`runner`] — the evaluation table: every circuit optimized once per
//!   distinct (algorithm, realization) configuration on a worker count
//!   for [`rms_core::par`], each run's graph, counters and optimize time
//!   kept, and the same graphs for every worker count,
//! - [`reports`] — renders the tables/figures as printable text, each a
//!   view of one [`reports::Evaluation`],
//! - [`mod@format`] — plain-text table rendering with paper-vs-measured
//!   columns.
//!
//! `rms bench --table2|--table3|--summary|--runtime|--algs|--sweep|--figures`
//! calls [`reports::bench`], which evaluates the union of the requested
//! sections once; README.md lists what each section is expected to show.
//! The table's per-run optimize time is the harness's only stopwatch
//! (the paper's run-time claim); every other measurement of the flow
//! lives in the standalone `perfbench/` package, and the exact quality
//! figures of both suites are pinned by `tests/quality_ledger.txt`.
//!
//! The embedded circuits are substitutes for the unredistributable
//! LGsynth91/ISCAS89 originals — compare shapes and ratios, not absolute
//! values. See `ARCHITECTURE.md` at the repository root.

pub mod format;
pub mod reports;
pub mod runner;
