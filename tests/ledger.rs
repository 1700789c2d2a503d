//! Checks of the quality ledger, `tests/quality_ledger.txt`, and the
//! command that regenerates it:
//!
//! ```sh
//! cargo test --release --test ledger -- --ignored regenerate_quality_ledger
//! ```
//!
//! The ledger's small-suite rows of the paper's four algorithms, of cut
//! and of cut-rram, and its fraig and resub sections, are checked by
//! `tests/incremental.rs`, one test per group; this file checks the
//! header and the rest. See `tests/quality/mod.rs` for what each section
//! holds.

mod quality;

use rms_core::opt::Algorithm;

#[test]
fn ledger_is_current_on_the_header_and_the_small_suite_sweep_modes() {
    quality::assert_current(
        &["header"],
        &[Algorithm::Sweep, Algorithm::Resub, Algorithm::SweepResub],
    );
}

#[test]
#[ignore = "slow unoptimized (about 4 s in release); run with --release -- --ignored"]
fn ledger_is_current_on_table2_and_the_large_suite() {
    quality::assert_current(&["table2", "xl"], &[]);
}

#[test]
#[ignore = "rewrites tests/quality_ledger.txt"]
fn regenerate_quality_ledger() {
    quality::regenerate();
}
