//! The quality ledger: every pinned quality figure of the optimizers in
//! one generated file, `tests/quality_ledger.txt`. This module renders
//! and checks it; `tests/ledger.rs` and `tests/incremental.rs` hold the
//! tests that call it.
//!
//! The ledger gives gates, depth, R and S for every (circuit, mode,
//! realization) of the small suite and of Table II at effort 40, the
//! fraig and resubstitution counters of apex4 and t481, and the cut
//! results of the generated large suite at effort 2. A change that moves
//! any of them regenerates the file, and its diff is the gain or loss per
//! row:
//!
//! ```sh
//! cargo test --release --test ledger -- --ignored regenerate_quality_ledger
//! ```
//!
//! Every `cargo test` run checks the header and the small, fraig and
//! resub sections byte for byte; the small section's rows are checked
//! one group of modes per test. The Table II and large-suite sections are checked
//! in release:
//! `cargo test --release --test ledger -- --ignored ledger_is_current_on_table2`.
//! Generating a section also checks what the values stand on: every
//! small-suite result computes its source's truth tables, and every
//! large-suite result is bit-identical at jobs 1 and 4 and passes
//! sampled verification.

// Each test crate that includes this module calls part of it.
#![allow(dead_code)]

use rms_bench::runner::TABLE2_CONFIGS;
use rms_core::cost::{Realization, RramCost};
use rms_core::opt::{Algorithm, OptOptions};
use rms_core::{par, IncrementalMig, Mig};
use rms_cut::{fraig_pass, resub_pass, FraigOptions, ResubOptions};
use rms_flow::{run_algorithm, InputFormat, Pipeline, VerifyMode};
use rms_logic::paper_data::{self, Rs, Table2Row};
use rms_logic::{bench_suite, blif, large_suite};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// The committed ledger.
const PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/quality_ledger.txt");

/// The command that rewrites the ledger from fresh runs.
const REGENERATE: &str =
    "cargo test --release --test ledger -- --ignored regenerate_quality_ledger";

/// A ledger part: its name and its generator.
type Part = (&'static str, fn() -> String);

/// The ledger's parts in file order: the header (the text before the
/// first `## ` line), then one section per `## name` line.
const PARTS: [Part; 6] = [
    ("header", header),
    ("small", small_section),
    ("fraig", fraig_section),
    ("resub", resub_section),
    ("table2", table2_section),
    ("xl", xl_section),
];

/// The realizations of every row group, in row order.
const REALIZATIONS: [Realization; 2] = [Realization::Maj, Realization::Imp];

/// The circuit column of a section's sum rows.
const SUM: &str = "Σ";

/// Options of one ledger run: `effort` cycles on one worker.
fn options(effort: usize) -> OptOptions {
    let mut opts = OptOptions::with_effort(effort);
    opts.jobs = 1;
    opts
}

/// Whether `alg` reads the realization. The other modes run once per
/// circuit, and their result is costed under both realizations.
fn uses_realization(alg: Algorithm) -> bool {
    matches!(
        alg,
        Algorithm::RramCosts | Algorithm::Steps | Algorithm::CutRram
    )
}

/// The figures of one row.
#[derive(Debug, Clone, Copy, Default)]
struct Figures {
    gates: u64,
    depth: u64,
    rrams: u64,
    steps: u64,
}

impl Figures {
    fn of(mig: &Mig, real: Realization) -> Self {
        let cost = RramCost::of(mig, real);
        Figures {
            gates: mig.num_gates() as u64,
            depth: mig.depth() as u64,
            rrams: cost.rrams,
            steps: cost.steps,
        }
    }

    fn add(&mut self, other: Figures) {
        self.gates += other.gates;
        self.depth += other.depth;
        self.rrams += other.rrams;
        self.steps += other.steps;
    }
}

/// One circuit's rows: `(mode, realization, figures)`.
type Rows = Vec<(Algorithm, Realization, Figures)>;

/// Runs every mode of `algs` on `mig` at `effort` and returns its rows;
/// `check` sees every optimized graph.
fn mode_rows(mig: &Mig, algs: &[Algorithm], effort: usize, check: impl Fn(&Mig, &str)) -> Rows {
    let opts = options(effort);
    let run = |alg: Algorithm, real: Realization| {
        let (out, _) = run_algorithm(mig, alg, real, &opts);
        check(&out, &format!("{} / {real}", alg.token()));
        out
    };
    let mut rows = Rows::new();
    for &alg in algs {
        if uses_realization(alg) {
            for real in REALIZATIONS {
                rows.push((alg, real, Figures::of(&run(alg, real), real)));
            }
        } else {
            let out = run(alg, Realization::Maj);
            rows.extend(REALIZATIONS.map(|real| (alg, real, Figures::of(&out, real))));
        }
    }
    rows
}

/// The paper's R and S for `(alg, real)` in `row`, when Table II
/// reports that configuration.
fn paper_rs(row: &Table2Row, alg: Algorithm, real: Realization) -> Option<Rs> {
    let column = TABLE2_CONFIGS.iter().position(|&c| c == (alg, real))?;
    Some(row.columns()[column])
}

/// The Table II row of `circuit`, or the paper's Σ row for [`SUM`].
fn table2_paper_row(circuit: &str) -> Option<&'static Table2Row> {
    if circuit == SUM {
        Some(&paper_data::TABLE2_SUM)
    } else {
        paper_data::table2_row(circuit)
    }
}

/// Renders one figures section: a `## name` line, the column names,
/// one row per (circuit, mode, realization), then the sum rows. With
/// `paper`, each row also gives the paper's Table II R and S.
fn figures_section(title: &str, circuits: &[(&str, Rows)], paper: bool) -> String {
    let mut out = format!("## {title}\n{}", columns(paper));
    let mut line = |circuit: &str, alg: Algorithm, real: Realization, f: Figures| {
        write!(
            out,
            "{circuit:<10} {:<11} {:<4} {:>6} {:>5} {:>7} {:>7}",
            alg.token(),
            real.to_string(),
            f.gates,
            f.depth,
            f.rrams,
            f.steps
        )
        .unwrap();
        if paper {
            let rs = table2_paper_row(circuit).and_then(|row| paper_rs(row, alg, real));
            let [r, s] = rs.map_or(["-".into(), "-".into()], |rs| {
                [rs.rrams.to_string(), rs.steps.to_string()]
            });
            write!(out, " {r:>7} {s:>7}").unwrap();
        }
        out.push('\n');
    };
    let mut sums = vec![Figures::default(); circuits[0].1.len()];
    for (circuit, rows) in circuits {
        for (sum, &(alg, real, f)) in sums.iter_mut().zip(rows) {
            line(circuit, alg, real, f);
            sum.add(f);
        }
    }
    for (&(alg, real, _), &sum) in circuits[0].1.iter().zip(&sums) {
        line(SUM, alg, real, sum);
    }
    out.push('\n');
    out
}

/// The column names of a figures section.
fn columns(paper: bool) -> String {
    let mut s = format!(
        "# {:<8} {:<11} {:<4} {:>6} {:>5} {:>7} {:>7}",
        "circuit", "mode", "real", "gates", "depth", "R", "S"
    );
    if paper {
        write!(s, " {:>7} {:>7}", "paper R", "paper S").unwrap();
    }
    s.push('\n');
    s
}

/// The ledger's header: what it holds, how to regenerate it, and the
/// route each section takes.
fn header() -> String {
    format!(
        "\
# Quality ledger of the rms optimizers: generated, do not edit.
#
# Regenerate with
#   {REGENERATE}
# and review the diff: each changed row is one circuit's gain or loss.
# `cargo test --test ledger --test incremental` checks this header and
# the small, fraig and resub sections; the table2 and xl sections are
# checked in release by
#   cargo test --release --test ledger -- --ignored ledger_is_current_on_table2
#
# Sections, and the route each takes from circuit to figures (every
# optimizer run on one worker):
#   small   the 25 Table III circuits under all nine modes, effort 40:
#           bench_suite::build -> Mig::from_netlist -> run_algorithm
#   fraig   one default fraig_pass on apex4 and t481 (classes,
#           candidates, merges, refuted, budget exhausted):
#           bench_suite::build -> Mig::from_netlist -> run_algorithm
#           (cut, effort 40) -> compact -> fraig_pass
#   resub   one default resub_pass on the same cut results (candidates,
#           accepted, refuted): ... -> compact -> resub_pass
#   table2  the 25 Table II circuits under all nine modes, effort 40:
#           bench_suite::build -> blif::write -> BLIF bytes ->
#           Pipeline::from_bytes -> Mig::from_netlist -> run_algorithm,
#           the route of `rms run --input` and of perfbench. `rms bench
#           --table2` builds the MIG from the netlist in memory instead,
#           and its figures differ on some rows.
#   xl      the generated large suite under cut, effort 2:
#           large_suite::build -> Mig::from_netlist -> run_algorithm
#
# Columns: circuit, mode, realization, gates, depth, R and S; in
# table2 also the paper's R and S for the six configurations Table II
# reports (\"-\" elsewhere). Modes other than rram, steps and cut-rram
# ignore the realization: they run once and are costed under both. The
# {SUM} rows sum each (mode, realization) over the section.

"
    )
}

fn small_section() -> String {
    small_section_of(&Algorithm::ALL_MODES, "")
}

/// The small section with the rows of `modes` from fresh runs, and every
/// other row copied from `kept` (a committed small section) by its
/// circuit, mode and realization. A row `kept` lacks renders with zero
/// figures.
fn small_section_of(modes: &[Algorithm], kept: &str) -> String {
    let circuits = par::par_map(bench_suite::SMALL_SUITE, |info| {
        let nl = bench_suite::build_info(info);
        let reference = nl.truth_tables();
        let fresh = mode_rows(&Mig::from_netlist(&nl), modes, 40, |out, what| {
            assert_eq!(
                out.truth_tables(),
                reference,
                "{} / {what}: function",
                info.name
            );
        });
        let figures = |alg, real| {
            let row = fresh.iter().find(|&&(a, r, _)| (a, r) == (alg, real));
            row.map_or_else(Figures::default, |&(_, _, f)| f)
        };
        let rows = Algorithm::ALL_MODES
            .iter()
            .flat_map(|&alg| REALIZATIONS.map(|real| (alg, real, figures(alg, real))))
            .collect();
        (info.name, rows)
    });
    let rendered = figures_section(
        "small: Table III suite, nine modes, effort 40",
        &circuits,
        false,
    );
    let kept_rows: HashMap<[&str; 3], &str> = kept
        .split_inclusive('\n')
        .filter_map(|line| Some((row_key(line)?, line)))
        .collect();
    let fresh = |mode: &str| modes.iter().any(|alg| alg.token() == mode);
    rendered
        .split_inclusive('\n')
        .map(|line| match row_key(line) {
            Some(key) if !fresh(key[1]) => kept_rows.get(&key).copied().unwrap_or(line),
            _ => line,
        })
        .collect()
}

/// The circuit, mode and realization of a figures row; `None` for the
/// title, column and blank lines.
fn row_key(line: &str) -> Option<[&str; 3]> {
    if line.starts_with('#') {
        return None;
    }
    let mut words = line.split_whitespace();
    Some([words.next()?, words.next()?, words.next()?])
}

/// The circuits of the fraig and resub sections.
const SAT_CIRCUITS: [&str; 2] = ["apex4", "t481"];

/// The compacted cut results (effort 40) of [`SAT_CIRCUITS`] that the
/// fraig and resub sections start from, computed once per process.
fn sat_inputs() -> &'static [Mig] {
    static CUT: OnceLock<Vec<Mig>> = OnceLock::new();
    CUT.get_or_init(|| {
        par::par_map(&SAT_CIRCUITS, |name| {
            let mig = Mig::from_netlist(&bench_suite::build(name).unwrap());
            let (cut, _) = run_algorithm(&mig, Algorithm::Cut, Realization::Maj, &options(40));
            cut.compact()
        })
    })
}

fn fraig_section() -> String {
    let mut out = String::from("## fraig: one fraig_pass after cut at effort 40\n");
    writeln!(
        out,
        "# {:<8} {:>7} {:>10} {:>6} {:>7} {:>9}",
        "circuit", "classes", "candidates", "merges", "refuted", "exhausted"
    )
    .unwrap();
    let counts = par::par_map(sat_inputs(), |cut| {
        fraig_pass(&mut IncrementalMig::from_mig(cut), &FraigOptions::default()).stats
    });
    for (name, st) in SAT_CIRCUITS.iter().zip(counts) {
        writeln!(
            out,
            "{name:<10} {:>7} {:>10} {:>6} {:>7} {:>9}",
            st.classes, st.candidates, st.merges, st.refuted, st.budget_exhausted
        )
        .unwrap();
    }
    out.push('\n');
    out
}

fn resub_section() -> String {
    let mut out = String::from("## resub: one resub_pass after cut at effort 40\n");
    writeln!(
        out,
        "# {:<8} {:>10} {:>8} {:>7}",
        "circuit", "candidates", "accepted", "refuted"
    )
    .unwrap();
    let counts = par::par_map(sat_inputs(), |cut| {
        resub_pass(&mut IncrementalMig::from_mig(cut), &ResubOptions::default())
    });
    for (name, st) in SAT_CIRCUITS.iter().zip(counts) {
        writeln!(
            out,
            "{name:<10} {:>10} {:>8} {:>7}",
            st.candidates, st.accepted, st.refuted
        )
        .unwrap();
    }
    out.push('\n');
    out
}

fn table2_section() -> String {
    let circuits = par::par_map(bench_suite::LARGE_SUITE, |info| {
        let blif = blif::write(&bench_suite::build_info(info));
        let pipeline = Pipeline::from_bytes(InputFormat::Blif, blif.as_bytes(), info.name)
            .unwrap_or_else(|e| panic!("{}: {e}", info.name));
        let mig = Mig::from_netlist(pipeline.netlist());
        (
            info.name,
            mode_rows(&mig, &Algorithm::ALL_MODES, 40, |_, _| {}),
        )
    });
    figures_section(
        "table2: Table II suite, nine modes, effort 40, via BLIF",
        &circuits,
        true,
    )
}

fn xl_section() -> String {
    let circuits: Vec<(&str, Rows)> = large_suite::SUITE
        .iter()
        .map(|info| {
            let nl = large_suite::build(info.name).unwrap();
            let mig = Mig::from_netlist(&nl);
            let mut j4 = options(2);
            j4.jobs = 4;
            let (parallel, _) = run_algorithm(&mig, Algorithm::Cut, Realization::Maj, &j4);
            let rows = mode_rows(&mig, &[Algorithm::Cut], 2, |out, what| {
                let what = format!("{} / {what}", info.name);
                assert_bit_identical(out, &parallel, &format!("{what}: jobs 1 vs 4"));
                let outcome = rms_flow::check_netlists(
                    &nl,
                    &out.to_netlist(),
                    VerifyMode::Sampled,
                    rms_flow::DEFAULT_VERIFY_SEED,
                )
                .unwrap_or_else(|e| panic!("{what}: verification error: {e}"));
                assert!(outcome.passed(), "{what}: {outcome:?}");
            });
            (info.name, rows)
        })
        .collect();
    figures_section("xl: generated large suite, cut, effort 2", &circuits, false)
}

/// Node-for-node structural equality (indices, children, complement
/// attributes, outputs, levels).
fn assert_bit_identical(a: &Mig, b: &Mig, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: node counts");
    for i in 0..a.len() {
        assert_eq!(a.node(i), b.node(i), "{what}: node {i}");
        assert_eq!(a.level(i), b.level(i), "{what}: level of node {i}");
    }
    assert_eq!(a.outputs(), b.outputs(), "{what}: outputs");
}

/// Splits a ledger into named parts: `header` for the text before the
/// first `## ` line, then one part per `## name` line, up to the next.
fn split(text: &str) -> Vec<(&str, &str)> {
    let mut starts = vec![(0, "header")];
    let mut at = 0;
    for line in text.split_inclusive('\n') {
        if let Some(rest) = line.strip_prefix("## ") {
            starts.push((at, rest.split(':').next().unwrap_or_default()));
        }
        at += line.len();
    }
    let ends = starts.iter().skip(1).map(|&(s, _)| s).chain([text.len()]);
    starts
        .iter()
        .zip(ends)
        .map(|(&(start, name), end)| (name, &text[start..end]))
        .collect()
}

/// Regenerates the parts named in `checked` and the small section's
/// rows of `small_modes`, and requires the committed ledger to equal
/// them byte for byte, with every other part and row as committed. The
/// small section's title, column and blank lines and its row keys
/// (circuit, mode, realization) are checked on every call. Panics
/// naming the first differing line and the regeneration command.
pub fn assert_current(checked: &[&str], small_modes: &[Algorithm]) {
    let committed = std::fs::read_to_string(PATH).unwrap_or_default();
    let parts = split(&committed);
    let kept = |part: &str| {
        let kept = parts.iter().find(|&&(name, _)| name == part);
        kept.map_or("", |&(_, text)| text)
    };
    let expected: String = PARTS
        .iter()
        .map(|&(part, generate)| match part {
            "small" => small_section_of(small_modes, kept(part)),
            _ if checked.contains(&part) => generate(),
            _ => kept(part).to_string(),
        })
        .collect();
    if committed != expected {
        let same = committed.lines().zip(expected.lines());
        let n = same.take_while(|(a, b)| a == b).count();
        let at = |text: &str| text.lines().nth(n).unwrap_or("(end of file)").to_string();
        panic!(
            "tests/quality_ledger.txt is stale; line {} differs\n  committed: {}\n  generated: {}\n\
             regenerate it with `{REGENERATE}` and review the diff",
            n + 1,
            at(&committed),
            at(&expected)
        );
    }
}

/// Rewrites the committed ledger from fresh runs of every part.
pub fn regenerate() {
    let ledger: String = PARTS.iter().map(|&(_, generate)| generate()).collect();
    std::fs::write(PATH, ledger).expect("write tests/quality_ledger.txt");
}
