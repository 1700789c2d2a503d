//! Tiered machine-level verification: exhaustive, SAT-proved, or sampled.
//!
//! Every pipeline run checks its compiled programs against the source
//! netlist. Three tiers exist, selected by [`VerifyMode`] and the input
//! width:
//!
//! | Tier | When | Guarantee |
//! |---|---|---|
//! | exhaustive | `n ≤ 14` inputs (under [`VerifyMode::Auto`]) | all `2^n` minterms simulated |
//! | SAT proof | `n > 14`, or forced with [`VerifyMode::Sat`] | sweeping miter refuted by the `rms-sat` CDCL solver — a proof at any width |
//! | sampled | explicit [`VerifyMode::Sampled`], or under [`VerifyMode::Auto`] when a miter exhausts [`SAT_CONFLICT_BUDGET`] | 64 random 64-bit pattern words — evidence, not proof |
//!
//! The SAT tier's miters sweep before they refute: internal signals of
//! the two sides that agree on random simulation are proved equal
//! bottom-up in the same solver, so the output miter only has to bridge
//! what the optimizer genuinely changed (see `rms_sat::sweep`).
//!
//! Historically the pipeline silently degraded to sampling above the
//! cutoff; the SAT tier replaces that, so a "pass" normally means
//! *proved* regardless of width. Sampling survives in two places: the
//! explicit opt-out (`--verify sampled`) for quick smoke runs, and the
//! fallback of [`VerifyMode::Auto`] when a SAT proof runs out of its
//! conflict budget (an explicit [`VerifyMode::Sat`] errors out instead).
//! Either way the outcome is labelled `sampled (64 words)`, never proved.
//!
//! The sampled tier and the pre-SAT spot-check simulate each program on
//! all of their pattern words in one [`Machine::run_batch`] call, which
//! validates the program once; the first failure reported is still the
//! one a word-at-a-time loop would meet (pattern-major, then program
//! order, lowest differing lane), and an invalid program is still a hard
//! [`FlowError::Verification`].
//!
//! Every failing tier reports a concrete counterexample input assignment
//! in [`VerifyOutcome::Failed`] — the SAT model gives it for free, the
//! exhaustive tier decodes the differing minterm, and the sampled tier
//! extracts the differing bit lane.
//!
//! The policy is written once, in the private `tiered`, which checks one
//! reference netlist against sides of two kinds: a compiled program (the
//! pipeline, through `verify_programs`) or a second netlist
//! ([`check_netlists`]: `rms verify`, the bench sweeps and the
//! differential test harness). Only the failure wording depends on the
//! kind. Every side's miter is built in the same order — `Miter::new`,
//! `set_cancel`, the reference's `add_netlist`, the side's
//! `add_netlist`/`add_program`, `prove_limited` under
//! [`SAT_CONFLICT_BUDGET`] — because the solver's conflict and decision
//! counts depend on it: a fixed order keeps every reported proof count
//! stable.

use crate::error::FlowError;
use rms_core::CancelToken;
use rms_logic::netlist::{Netlist, NetlistBuilder, Wire};
use rms_logic::sim::random_patterns;
use rms_logic::tt::MAX_VARS;
use rms_rram::isa::Program;
use rms_rram::machine::Machine;
use rms_sat::{Miter, MiterOutcome};

/// Inputs wider than this use the SAT tier rather than exhaustive
/// simulation (under [`VerifyMode::Auto`]).
pub const EXHAUSTIVE_VERIFY_VARS: usize = 14;

/// Number of 64-bit pattern words for sampled verification.
pub const VERIFY_SAMPLE_WORDS: usize = 64;

/// Number of 64-bit pattern words simulated **before** any SAT proof is
/// attempted: a miter for inequivalent circuits usually has abundant
/// counterexamples, and word-parallel simulation finds one in
/// microseconds where the solver would spend conflicts. Equivalent
/// circuits pass through to the proof unchanged — the spot-check can
/// only fail fast, never claim equivalence.
pub const PRE_SAT_SPOT_WORDS: usize = 4;

/// Conflict budget per SAT miter, sweep and output refutation together.
/// Every bundled benchmark proves well under this: the sweeping miter
/// proves each Table II circuit in at most about a thousand conflicts
/// (`apex1`), and the large suite's `xl_mul32` and `xl_add2048` in
/// under 50k. User-supplied circuits can still be adversarial for any
/// SAT solver (two differently structured multipliers share no internal
/// equivalences to sweep), so the proof attempt is bounded: under
/// [`VerifyMode::Auto`] an exhausted budget falls back to sampled
/// verification; under [`VerifyMode::Sat`] it is an error (the caller
/// explicitly demanded a proof).
pub const SAT_CONFLICT_BUDGET: u64 = 500_000;

/// How verification is performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyMode {
    /// Tiered policy: exhaustive up to [`EXHAUSTIVE_VERIFY_VARS`] inputs,
    /// SAT proof above, sampling when a proof exhausts
    /// [`SAT_CONFLICT_BUDGET`].
    #[default]
    Auto,
    /// Force a SAT proof regardless of width.
    Sat,
    /// Exhaustive below the cutoff, random sampling above — the explicit
    /// opt-out of formal checking (the pre-SAT behaviour).
    Sampled,
    /// Skip verification entirely.
    Off,
}

impl VerifyMode {
    /// Parses a mode name as given on the command line.
    pub fn from_name(name: &str) -> Option<VerifyMode> {
        match name.to_ascii_lowercase().as_str() {
            "auto" | "tiered" | "on" => Some(VerifyMode::Auto),
            "sat" | "proof" | "formal" => Some(VerifyMode::Sat),
            "sampled" | "sample" | "random" => Some(VerifyMode::Sampled),
            "off" | "none" | "skip" => Some(VerifyMode::Off),
            _ => None,
        }
    }
}

impl std::fmt::Display for VerifyMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyMode::Auto => write!(f, "auto"),
            VerifyMode::Sat => write!(f, "sat"),
            VerifyMode::Sampled => write!(f, "sampled"),
            VerifyMode::Off => write!(f, "off"),
        }
    }
}

/// Outcome of the verification stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// Verification was disabled.
    Skipped,
    /// Every minterm was simulated and matched.
    Exhaustive,
    /// A SAT miter was refuted: equivalence is *proved* at full width.
    Proved {
        /// Conflicts over all refutations of the run.
        conflicts: u64,
        /// Branching decisions over all refutations of the run.
        decisions: u64,
    },
    /// Random patterns matched (explicit opt-out, or the `Auto` fallback
    /// after an exhausted SAT budget — not a proof).
    Sampled {
        /// Number of 64-bit pattern words simulated.
        words: usize,
    },
    /// A mismatch was found.
    Failed {
        /// What disagreed (which program or circuit, which tier).
        what: String,
        /// A disagreeing input assignment (index `i` = primary input
        /// `i`); empty when the mismatch is structural (e.g. different
        /// output counts).
        counterexample: Vec<bool>,
    },
}

impl VerifyOutcome {
    /// Whether verification actually ran and observed no mismatch.
    pub fn passed(&self) -> bool {
        !matches!(self, VerifyOutcome::Skipped | VerifyOutcome::Failed { .. })
    }

    /// Whether the outcome is a *guarantee* over the full input space
    /// (exhaustive simulation or a SAT proof).
    pub fn is_proof(&self) -> bool {
        matches!(
            self,
            VerifyOutcome::Exhaustive | VerifyOutcome::Proved { .. }
        )
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            VerifyOutcome::Skipped => "skipped".into(),
            VerifyOutcome::Exhaustive => "exhaustive".into(),
            VerifyOutcome::Proved {
                conflicts,
                decisions,
            } => {
                format!("proved (SAT, {conflicts} conflicts, {decisions} decisions)")
            }
            VerifyOutcome::Sampled { words } => format!("sampled ({words} words)"),
            VerifyOutcome::Failed { what, .. } => format!("FAILED ({what})"),
        }
    }
}

/// Renders a counterexample assignment with the circuit's input names
/// (`x0=1 x1=0 …`).
pub fn format_assignment(names: &[String], inputs: &[bool]) -> String {
    if inputs.is_empty() {
        return "(structural mismatch, no assignment)".into();
    }
    inputs
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            let name = names.get(i).map(|s| s.as_str()).unwrap_or("?");
            format!("{name}={}", b as u8)
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Checks both compiled programs against the netlist under the tiered
/// policy. Mismatches come back as [`VerifyOutcome::Failed`]; only
/// structurally invalid programs (a toolchain bug) are hard errors.
pub(crate) fn verify_programs(
    netlist: &Netlist,
    programs: &[(&str, &Program)],
    mode: VerifyMode,
    seed: u64,
    cancel: &CancelToken,
) -> Result<VerifyOutcome, FlowError> {
    let sides: Vec<(&str, Side)> = programs
        .iter()
        .map(|&(what, program)| (what, Side::Program(program)))
        .collect();
    tiered(netlist, &sides, mode, seed, cancel)
}

/// Checks two standalone circuits for functional equivalence under the
/// tiered policy.
///
/// Inputs are matched by name when both circuits declare the same name
/// set (in any order) and by position otherwise; outputs are always
/// matched by position.
///
/// # Errors
///
/// Returns [`FlowError::Unsupported`] when the circuits declare
/// different input counts (nothing meaningful can be compared).
pub fn check_netlists(
    a: &Netlist,
    b: &Netlist,
    mode: VerifyMode,
    seed: u64,
) -> Result<VerifyOutcome, FlowError> {
    if mode == VerifyMode::Off {
        return Ok(VerifyOutcome::Skipped);
    }
    if a.num_inputs() != b.num_inputs() {
        return Err(FlowError::Unsupported(format!(
            "cannot compare {:?} ({} inputs) with {:?} ({} inputs)",
            a.name(),
            a.num_inputs(),
            b.name(),
            b.num_inputs()
        )));
    }
    let aligned;
    let b = match input_alignment(a, b) {
        Some(order) => {
            aligned = permute_inputs(b, &order);
            &aligned
        }
        None => b,
    };
    if a.num_outputs() != b.num_outputs() {
        return Ok(VerifyOutcome::Failed {
            what: format!(
                "output counts differ: {} vs {}",
                a.num_outputs(),
                b.num_outputs()
            ),
            counterexample: Vec::new(),
        });
    }
    tiered(
        a,
        &[("", Side::Netlist(b))],
        mode,
        seed,
        &CancelToken::default(),
    )
}

/// One circuit checked against the reference netlist.
#[derive(Clone, Copy)]
enum Side<'a> {
    Netlist(&'a Netlist),
    Program(&'a Program),
}

impl Side<'_> {
    /// The subject of a mismatch report, which the tier and output
    /// details are appended to.
    fn differs(self, what: &str) -> String {
        match self {
            Side::Netlist(_) => "circuits differ".into(),
            Side::Program(_) => format!("{what} program differs from the netlist"),
        }
    }

    /// An error message about this side: a program's is prefixed with
    /// its name.
    fn error(self, what: &str, msg: impl std::fmt::Display) -> String {
        match self {
            Side::Netlist(_) => msg.to_string(),
            Side::Program(_) => format!("{what}: {msg}"),
        }
    }
}

/// The tier policy, shared by every equivalence check: `Off` skips,
/// exhaustive truth tables up to [`EXHAUSTIVE_VERIFY_VARS`] inputs
/// (unless `Sat` is forced), random words under `Sampled`, otherwise a
/// spot-check followed by one budgeted sweeping miter per side, which
/// under `Auto` falls back to sampling when the budget runs out.
///
/// Each miter encodes the reference first and the side second, so the
/// solver's conflict and decision counts depend only on the two
/// circuits. Sides are checked in order; the first mismatch wins.
fn tiered(
    reference: &Netlist,
    sides: &[(&str, Side)],
    mode: VerifyMode,
    seed: u64,
    cancel: &CancelToken,
) -> Result<VerifyOutcome, FlowError> {
    if mode == VerifyMode::Off {
        return Ok(VerifyOutcome::Skipped);
    }
    let n = reference.num_inputs();
    if mode != VerifyMode::Sat && n <= EXHAUSTIVE_VERIFY_VARS.min(MAX_VARS) {
        let want = reference.truth_tables();
        for &(what, side) in sides {
            let got = match side {
                Side::Netlist(nl) => nl.truth_tables(),
                Side::Program(program) => {
                    Machine::truth_tables(program).map_err(|e| invalid_program(what, e))?
                }
            };
            if got != want {
                let (o, m) = first_diff(&got, &want);
                return Ok(VerifyOutcome::Failed {
                    what: format!("{} on output {o}", side.differs(what)),
                    counterexample: minterm_bits(m, n),
                });
            }
        }
        return Ok(VerifyOutcome::Exhaustive);
    }
    if mode == VerifyMode::Sampled {
        let patterns = random_patterns(n, VERIFY_SAMPLE_WORDS, seed);
        return Ok(
            first_sim_mismatch(reference, sides, &patterns, "sampled")?.unwrap_or(
                VerifyOutcome::Sampled {
                    words: VERIFY_SAMPLE_WORDS,
                },
            ),
        );
    }
    // Word-parallel spot-check in front of the SAT tier: a buggy side
    // almost always differs on random words, which is far cheaper to
    // find by simulation than by refutation. Agreement proves nothing
    // and falls through to the miter.
    let patterns = random_patterns(n, PRE_SAT_SPOT_WORDS, seed);
    if let Some(failed) = first_sim_mismatch(reference, sides, &patterns, "pre-SAT spot-check")? {
        return Ok(failed);
    }
    // SAT tier: refute a miter per side, under a conflict budget.
    let (mut conflicts, mut decisions) = (0u64, 0u64);
    for &(what, side) in sides {
        let mut miter = Miter::new(n);
        miter.set_cancel(cancel.clone());
        let proof = miter.add_netlist(reference).and_then(|want| {
            let got = match side {
                Side::Netlist(nl) => miter.add_netlist(nl)?,
                Side::Program(program) => miter.add_program(program)?,
            };
            miter.prove_limited(&want, &got, Some(SAT_CONFLICT_BUDGET))
        });
        match proof {
            Ok(Some(MiterOutcome::Equivalent {
                conflicts: c,
                decisions: d,
            })) => {
                conflicts += c;
                decisions += d;
            }
            Ok(Some(MiterOutcome::Counterexample { inputs })) => {
                return Ok(VerifyOutcome::Failed {
                    what: format!("{} (SAT counterexample)", side.differs(what)),
                    counterexample: inputs,
                });
            }
            Ok(None) if cancel.cancelled() => {
                // `None` is also what a cancelled solver returns; the
                // token tells the two apart.
                return Err(FlowError::Timeout(
                    side.error(what, "verification abandoned at the request deadline"),
                ));
            }
            Ok(None) if mode == VerifyMode::Auto => {
                // Budget exhausted on an adversarial instance: degrade
                // to sampling rather than hang (an explicit
                // `--verify sat` would error out instead).
                return tiered(reference, sides, VerifyMode::Sampled, seed, cancel);
            }
            Ok(None) => {
                return Err(FlowError::Verification(side.error(
                    what,
                    format!(
                        "SAT proof gave up after {SAT_CONFLICT_BUDGET} conflicts; \
                         re-run with `--verify sampled` for a non-proof check"
                    ),
                )));
            }
            Err(e) => return Err(FlowError::Verification(side.error(what, e))),
        }
    }
    Ok(VerifyOutcome::Proved {
        conflicts,
        decisions,
    })
}

/// The hard error for a program that fails structural validation.
fn invalid_program(what: &str, e: rms_rram::isa::ProgramError) -> FlowError {
    FlowError::Verification(format!("{what}: invalid program: {e}"))
}

/// Simulates every side on all `patterns` (each program validated once)
/// and returns the first disagreement with the reference in
/// pattern-major, then side order, with its lowest differing lane as
/// the counterexample. `tier` names the check in the failure message.
fn first_sim_mismatch(
    reference: &Netlist,
    sides: &[(&str, Side)],
    patterns: &[Vec<u64>],
    tier: &str,
) -> Result<Option<VerifyOutcome>, FlowError> {
    let want: Vec<Vec<u64>> = patterns
        .iter()
        .map(|p| reference.simulate_words(p))
        .collect();
    let mut machine = Machine::new();
    let mut results = Vec::with_capacity(sides.len());
    let mut invalid = None;
    for &(what, side) in sides {
        match side {
            Side::Netlist(nl) => {
                results.push(patterns.iter().map(|p| nl.simulate_words(p)).collect())
            }
            Side::Program(program) => match machine.run_batch(program, patterns) {
                Ok(got) => results.push(got),
                Err(e) => {
                    invalid = Some(invalid_program(what, e));
                    break;
                }
            },
        }
    }
    // An invalid program is reported at the first pattern word, unless a
    // side before it already differs there.
    let words = if invalid.is_some() {
        patterns.len().min(1)
    } else {
        patterns.len()
    };
    for (w, want) in want.iter().enumerate().take(words) {
        for (&(what, side), got) in sides.iter().zip(&results) {
            if got[w] != *want {
                let (o, lane) = first_word_diff(&got[w], want);
                return Ok(Some(VerifyOutcome::Failed {
                    what: format!("{} on output {o} ({tier})", side.differs(what)),
                    counterexample: lane_bits(&patterns[w], lane),
                }));
            }
        }
    }
    invalid.map_or(Ok(None), Err)
}

/// When both circuits declare the same input-name set in a different
/// order, returns `order` such that `b` input `order[i]` corresponds to
/// `a` input `i`.
fn input_alignment(a: &Netlist, b: &Netlist) -> Option<Vec<usize>> {
    if a.input_names() == b.input_names() {
        return None; // already aligned
    }
    let order: Vec<usize> = a
        .input_names()
        .iter()
        .map(|name| b.input_names().iter().position(|n| n == name))
        .collect::<Option<Vec<_>>>()?;
    // Must be a permutation (no duplicate names mapping to one index).
    let mut seen = vec![false; order.len()];
    for &i in &order {
        if seen[i] {
            return None;
        }
        seen[i] = true;
    }
    Some(order)
}

/// Rebuilds `nl` with its inputs permuted: new input `i` is old input
/// `order[i]` (names preserved).
fn permute_inputs(nl: &Netlist, order: &[usize]) -> Netlist {
    let mut b = NetlistBuilder::new(nl.name());
    // map[old_node] = new wire (uncomplemented).
    let mut map: Vec<Wire> = vec![Wire::new(0, false); nl.num_nodes()];
    let mut new_inputs: Vec<Wire> = vec![Wire::new(0, false); order.len()];
    for &old_pos in order {
        new_inputs[old_pos] = b.input(nl.input_names()[old_pos].clone());
    }
    for (old_pos, &w) in new_inputs.iter().enumerate() {
        map[nl.input_wire(old_pos).node()] = w;
    }
    let remap = |map: &[Wire], w: Wire| -> Wire {
        let base = map[w.node()];
        if w.is_complemented() {
            base.complement()
        } else {
            base
        }
    };
    for (idx, gate) in nl.gates() {
        let fanins: Vec<Wire> = gate.fanins.iter().map(|&w| remap(&map, w)).collect();
        let new = match gate.kind {
            rms_logic::GateKind::And => b.and(fanins[0], fanins[1]),
            rms_logic::GateKind::Or => b.or(fanins[0], fanins[1]),
            rms_logic::GateKind::Xor => b.xor(fanins[0], fanins[1]),
            rms_logic::GateKind::Maj => b.maj(fanins[0], fanins[1], fanins[2]),
            rms_logic::GateKind::Mux => b.mux(fanins[0], fanins[1], fanins[2]),
        };
        map[idx] = new;
    }
    for (name, w) in nl.outputs() {
        b.output(name.clone(), remap(&map, *w));
    }
    b.build()
}

/// First (output, minterm) where two truth-table vectors differ.
fn first_diff(a: &[rms_logic::TruthTable], b: &[rms_logic::TruthTable]) -> (usize, u64) {
    for (o, (x, y)) in a.iter().zip(b).enumerate() {
        if x != y {
            for m in 0..x.num_bits() {
                if x.bit(m) != y.bit(m) {
                    return (o, m);
                }
            }
        }
    }
    (usize::MAX, u64::MAX)
}

/// First (output, bit lane) where two simulation word vectors differ.
fn first_word_diff(a: &[u64], b: &[u64]) -> (usize, usize) {
    for (o, (x, y)) in a.iter().zip(b).enumerate() {
        if x != y {
            return (o, (x ^ y).trailing_zeros() as usize);
        }
    }
    (usize::MAX, 0)
}

/// Decodes minterm `m` into per-input bits.
fn minterm_bits(m: u64, n: usize) -> Vec<bool> {
    (0..n).map(|i| (m >> i) & 1 == 1).collect()
}

/// Extracts bit `lane` of every input pattern word.
fn lane_bits(pattern: &[u64], lane: usize) -> Vec<bool> {
    pattern.iter().map(|w| (w >> lane) & 1 == 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rms_logic::NetlistBuilder;

    fn xor_chain(name: &str, names: &[&str]) -> Netlist {
        let mut b = NetlistBuilder::new(name);
        let ins: Vec<Wire> = names.iter().map(|n| b.input(*n)).collect();
        let mut acc = ins[0];
        for &w in &ins[1..] {
            acc = b.xor(acc, w);
        }
        b.output("f", acc);
        b.build()
    }

    #[test]
    fn mode_names_parse() {
        assert_eq!(VerifyMode::from_name("auto"), Some(VerifyMode::Auto));
        assert_eq!(VerifyMode::from_name("SAT"), Some(VerifyMode::Sat));
        assert_eq!(VerifyMode::from_name("sampled"), Some(VerifyMode::Sampled));
        assert_eq!(VerifyMode::from_name("off"), Some(VerifyMode::Off));
        assert_eq!(VerifyMode::from_name("nope"), None);
        assert_eq!(VerifyMode::Sat.to_string(), "sat");
    }

    #[test]
    fn equal_circuits_check_out_in_every_mode() {
        let a = xor_chain("a", &["x", "y", "z"]);
        let b = xor_chain("b", &["x", "y", "z"]);
        assert_eq!(
            check_netlists(&a, &b, VerifyMode::Auto, 1).unwrap(),
            VerifyOutcome::Exhaustive
        );
        assert!(matches!(
            check_netlists(&a, &b, VerifyMode::Sat, 1).unwrap(),
            VerifyOutcome::Proved { .. }
        ));
        assert_eq!(
            check_netlists(&a, &b, VerifyMode::Off, 1).unwrap(),
            VerifyOutcome::Skipped
        );
    }

    #[test]
    fn inputs_align_by_name() {
        let a = xor_chain("a", &["x", "y", "z"]);
        // Same function of the same named inputs, declared in another
        // order: must still be equivalent.
        let mut b = NetlistBuilder::new("b");
        let z = b.input("z");
        let x = b.input("x");
        let y = b.input("y");
        let p = b.xor(x, y);
        let q = b.xor(p, z);
        b.output("f", q);
        let b = b.build();
        assert_eq!(
            check_netlists(&a, &b, VerifyMode::Auto, 1).unwrap(),
            VerifyOutcome::Exhaustive
        );
        assert!(check_netlists(&a, &b, VerifyMode::Sat, 1)
            .unwrap()
            .is_proof());
    }

    #[test]
    fn counterexample_is_concrete() {
        let a = xor_chain("a", &["x", "y", "z"]);
        let mut b = NetlistBuilder::new("b");
        let (x, y, z) = (b.input("x"), b.input("y"), b.input("z"));
        let p = b.xor(x, y);
        let q = b.or(p, z); // differs from XOR when p & z
        b.output("f", q);
        let bad = b.build();
        for mode in [VerifyMode::Auto, VerifyMode::Sat] {
            match check_netlists(&a, &bad, mode, 1).unwrap() {
                VerifyOutcome::Failed { counterexample, .. } => {
                    let m = counterexample
                        .iter()
                        .enumerate()
                        .fold(0u64, |acc, (i, &v)| acc | ((v as u64) << i));
                    assert_ne!(a.evaluate(m), bad.evaluate(m), "{mode}: {counterexample:?}");
                }
                other => panic!("{mode}: expected failure, got {other:?}"),
            }
        }
    }

    #[test]
    fn wide_circuits_get_proved_not_sampled() {
        let names: Vec<String> = (0..20).map(|i| format!("x{i}")).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let a = xor_chain("a", &refs);
        let b = xor_chain("b", &refs);
        assert!(matches!(
            check_netlists(&a, &b, VerifyMode::Auto, 1).unwrap(),
            VerifyOutcome::Proved { .. }
        ));
        assert!(matches!(
            check_netlists(&a, &b, VerifyMode::Sampled, 1).unwrap(),
            VerifyOutcome::Sampled { .. }
        ));
    }

    #[test]
    fn output_count_mismatch_is_a_clean_failure() {
        let a = xor_chain("a", &["x", "y"]);
        let mut b = NetlistBuilder::new("b");
        let (x, y) = (b.input("x"), b.input("y"));
        let o = b.xor(x, y);
        b.output("f", o);
        b.output("g", x);
        let b = b.build();
        match check_netlists(&a, &b, VerifyMode::Auto, 1).unwrap() {
            VerifyOutcome::Failed {
                what,
                counterexample,
            } => {
                assert!(what.contains("output counts"), "{what}");
                assert!(counterexample.is_empty());
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn input_count_mismatch_is_an_error() {
        let a = xor_chain("a", &["x", "y"]);
        let b = xor_chain("b", &["x", "y", "z"]);
        assert!(matches!(
            check_netlists(&a, &b, VerifyMode::Auto, 1),
            Err(FlowError::Unsupported(_))
        ));
    }

    #[test]
    fn assignment_formatting() {
        let names: Vec<String> = vec!["a".into(), "b".into()];
        assert_eq!(format_assignment(&names, &[true, false]), "a=1 b=0");
        assert!(format_assignment(&names, &[]).contains("structural"));
    }

    /// The word-at-a-time loop that the batched tiers replaced, kept as
    /// the oracle for which failure comes first.
    fn per_word_first_failure(
        netlist: &Netlist,
        programs: &[(&str, &Program)],
        words: usize,
        seed: u64,
        tier: &str,
    ) -> Result<Option<VerifyOutcome>, FlowError> {
        let mut machine = Machine::new();
        for pattern in random_patterns(netlist.num_inputs(), words, seed) {
            let reference = netlist.simulate_words(&pattern);
            for &(what, program) in programs {
                let got = machine.run_words(program, &pattern).map_err(|e| {
                    FlowError::Verification(format!("{what}: invalid program: {e}"))
                })?;
                if got != reference {
                    let (o, lane) = first_word_diff(&got, &reference);
                    return Ok(Some(VerifyOutcome::Failed {
                        what: format!(
                            "{what} program differs from the netlist on output {o} ({tier})"
                        ),
                        counterexample: lane_bits(&pattern, lane),
                    }));
                }
            }
        }
        Ok(None)
    }

    /// Replaces one random op of `program`: with a random op on the same
    /// device (a functional bug, often caught only on some words), or
    /// with a write past the last device (a structural defect).
    fn mutate(program: &mut Program, rng: &mut rms_logic::rng::SplitMix64) {
        use rms_rram::isa::{MicroOp, Operand, RegId};
        let si = rng.next_index(program.steps.len());
        let step = &mut program.steps[si];
        let oi = rng.next_index(step.len());
        let dst = step[oi].dst();
        let operand = Operand::Input(rng.next_index(program.num_inputs));
        step[oi] = match rng.next_index(5) {
            0 => MicroOp::False {
                dst: RegId(program.num_regs as u32),
            },
            1 => MicroOp::False { dst },
            2 => MicroOp::Load { dst, src: operand },
            3 => MicroOp::Imp { p: operand, q: dst },
            _ => MicroOp::Maj {
                p: operand,
                q: Operand::Const(rng.next_bool()),
                r: dst,
            },
        };
    }

    #[test]
    fn batched_tiers_report_the_per_word_first_failure() {
        let mut rng = rms_logic::rng::SplitMix64::new(12);
        let (mut failures, mut errors) = (0, 0);
        for case in 0..60u64 {
            let netlist = rms_logic::random::random_netlist("v", case, 18, 3, 40);
            let mig = rms_core::Mig::from_netlist(&netlist);
            let mut array = rms_rram::compile::compile(&mig, rms_core::Realization::Maj).program;
            let mut plim = rms_rram::plim::compile_plim(&mig).program;
            match case % 4 {
                0 => {}
                1 => mutate(&mut array, &mut rng),
                2 => mutate(&mut plim, &mut rng),
                _ => {
                    mutate(&mut array, &mut rng);
                    mutate(&mut plim, &mut rng);
                }
            }
            let programs = [("array", &array), ("plim", &plim)];
            for (mode, words, tier) in [
                (VerifyMode::Sampled, VERIFY_SAMPLE_WORDS, "sampled"),
                (VerifyMode::Auto, PRE_SAT_SPOT_WORDS, "pre-SAT spot-check"),
            ] {
                let want = per_word_first_failure(&netlist, &programs, words, case, tier);
                let got = verify_programs(&netlist, &programs, mode, case, &CancelToken::default());
                match (want, got) {
                    (Ok(Some(want)), Ok(got)) => {
                        failures += 1;
                        assert_eq!(got, want, "case {case}, {tier}");
                    }
                    (Ok(None), Ok(got)) => {
                        // Past the spot-check, the SAT tier may still
                        // refute a mutant; simulation must not.
                        let simulated_failure = matches!(
                            &got,
                            VerifyOutcome::Failed { what, .. } if what.contains(tier)
                        );
                        assert!(!simulated_failure, "case {case}, {tier}: {got:?}");
                    }
                    (Err(want), Err(got)) => {
                        errors += 1;
                        assert_eq!(got.to_string(), want.to_string(), "case {case}, {tier}");
                    }
                    (want, got) => panic!("case {case}, {tier}: want {want:?}, got {got:?}"),
                }
            }
        }
        assert!(
            failures > 0 && errors > 0,
            "{failures} failures, {errors} errors"
        );
    }

    /// `f = x0 & … & x(n-1)` (1 on one minterm) and `g = x(n-1)`.
    fn rare_and(n: usize) -> Netlist {
        let mut b = NetlistBuilder::new("spec");
        let xs: Vec<Wire> = (0..n).map(|i| b.input(format!("x{i}"))).collect();
        let f = xs[1..].iter().fold(xs[0], |acc, &x| b.and(acc, x));
        b.output("f", f);
        b.output("g", xs[n - 1]);
        b.build()
    }

    /// [`rare_and`] with `f` short of its last input (`rare`) or with
    /// `g` inverted (`loud`).
    fn bad_netlist(n: usize, loud: bool) -> Netlist {
        let mut b = NetlistBuilder::new("bad");
        let xs: Vec<Wire> = (0..n).map(|i| b.input(format!("x{i}"))).collect();
        let last = if loud { n } else { n - 1 };
        let f = xs[1..last].iter().fold(xs[0], |acc, &x| b.and(acc, x));
        b.output("f", f);
        b.output(
            "g",
            if loud {
                xs[n - 1].complement()
            } else {
                xs[n - 1]
            },
        );
        b.build()
    }

    /// A one-step program for [`rare_and`] that holds `f` at 0 (`rare`)
    /// or also inverts `g` (`loud`).
    fn bad_program(n: usize, loud: bool) -> Program {
        use rms_rram::isa::{MicroOp, Operand, RegId};
        let src = Operand::Input(n - 1);
        let op = if loud {
            MicroOp::Imp {
                p: src,
                q: RegId(1),
            }
        } else {
            MicroOp::Load { dst: RegId(1), src }
        };
        Program {
            num_inputs: n,
            num_regs: 2,
            steps: vec![vec![op]],
            outputs: vec![("f".into(), RegId(0)), ("g".into(), RegId(1))],
            model_rrams: 0,
        }
    }

    #[test]
    fn failure_wording_is_pinned_per_tier() {
        let cancel = CancelToken::default();
        let cases = [
            // (inputs, loud bug, mode, wording after the subject)
            (4, false, VerifyMode::Auto, " on output 0"),
            (16, true, VerifyMode::Sampled, " on output 1 (sampled)"),
            (
                16,
                true,
                VerifyMode::Auto,
                " on output 1 (pre-SAT spot-check)",
            ),
            (16, false, VerifyMode::Auto, " (SAT counterexample)"),
            (16, false, VerifyMode::Sat, " (SAT counterexample)"),
        ];
        for (n, loud, mode, tier) in cases {
            let spec = rare_and(n);
            let bad = bad_netlist(n, loud);
            let program = bad_program(n, loud);
            for side in ["netlist", "program"] {
                let (outcome, want) = if side == "netlist" {
                    let got = check_netlists(&spec, &bad, mode, 7).unwrap();
                    (got, format!("circuits differ{tier}"))
                } else {
                    let got =
                        verify_programs(&spec, &[("array", &program)], mode, 7, &cancel).unwrap();
                    (got, format!("array program differs from the netlist{tier}"))
                };
                let VerifyOutcome::Failed {
                    what,
                    counterexample,
                } = outcome
                else {
                    panic!("{n} inputs, {mode}, {side}: {outcome:?}");
                };
                assert_eq!(what, want, "{n} inputs, {mode}, {side}");
                // The counterexample really tells the two apart.
                let m = counterexample
                    .iter()
                    .enumerate()
                    .fold(0u64, |acc, (i, &v)| acc | ((v as u64) << i));
                let got = if side == "netlist" {
                    bad.evaluate(m)
                } else {
                    let words: Vec<u64> = counterexample.iter().map(|&v| v as u64).collect();
                    let lanes = Machine::new().run_words(&program, &words).unwrap();
                    lanes.iter().map(|w| w & 1 == 1).collect()
                };
                assert_ne!(spec.evaluate(m), got, "{what}: {m:#x}");
            }
        }
    }

    #[test]
    fn sampled_failure_is_pattern_major() {
        use rms_rram::isa::{MicroOp, Operand, RegId};
        // f = x0 & … & x9 is rarely 1, g = x10.
        let mut b = NetlistBuilder::new("rare");
        let xs: Vec<Wire> = (0..16).map(|i| b.input(format!("x{i}"))).collect();
        let f = xs[1..10].iter().fold(xs[0], |acc, &x| b.and(acc, x));
        b.output("f", f);
        b.output("g", xs[10]);
        let netlist = b.build();
        let program = |op: MicroOp| Program {
            num_inputs: 16,
            num_regs: 2,
            steps: vec![vec![op]],
            outputs: vec![("f".into(), RegId(0)), ("g".into(), RegId(1))],
            model_rrams: 0,
        };
        // `rare_bug` holds f at 0, wrong only on the words where f is 1;
        // `loud_bug` also inverts g, wrong on the first word.
        let rare_bug = program(MicroOp::Load {
            dst: RegId(1),
            src: Operand::Input(10),
        });
        let loud_bug = program(MicroOp::Imp {
            p: Operand::Input(10),
            q: RegId(1),
        });
        let cancel = CancelToken::default();
        let alone = verify_programs(
            &netlist,
            &[("rare", &rare_bug)],
            VerifyMode::Sampled,
            3,
            &cancel,
        )
        .unwrap();
        assert!(!alone.passed(), "the rare bug shows within 64 words");
        let programs = [("rare", &rare_bug), ("loud", &loud_bug)];
        let got = verify_programs(&netlist, &programs, VerifyMode::Sampled, 3, &cancel).unwrap();
        let want = per_word_first_failure(&netlist, &programs, VERIFY_SAMPLE_WORDS, 3, "sampled")
            .unwrap()
            .unwrap();
        assert_eq!(got, want);
        assert_ne!(got, alone, "the earlier word wins over program order");
    }
}
