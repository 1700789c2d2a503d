//! The CDCL solver's search, pinned.
//!
//! `rms_sat::Solver` is deterministic, and the flow leans on more than
//! its answers: proof labels carry its conflict and decision counts, and
//! the fraig and resub passes refine on the models it returns. A change
//! to the solver's data layout must therefore leave the search
//! bit-identical. These tests pin the exact (conflicts, decisions,
//! propagations) of deterministic instances, plus a fingerprint of every
//! answer and model, so a change that moves any watch, any propagation
//! order or any learned clause fails here. A blocker literal that is not
//! the other watch, for example, changes which watch moves.
//!
//! The numbers are recorded, not derived: after an intended change to the
//! search, print the new values from the assertion message and update the
//! constants in the same change, saying why.

use rram_mig::logic::random::random_netlist;
use rram_mig::logic::rng::SplitMix64;
use rram_mig::mig::cost::Realization;
use rram_mig::mig::Mig;
use rram_mig::rram::compile::compile;
use rram_mig::sat::{check_netlist_vs_program, Lit, Miter, MiterOutcome, SatResult, Solver};

/// Exact search counts of one instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Search {
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    /// Fold of every answer and every model the instance produced.
    answers: u64,
}

fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0100_0000_01b3).rotate_left(29)
}

fn fold_answer(h: u64, s: &Solver, result: Option<SatResult>, vars: &[Lit]) -> u64 {
    let mut h = mix(
        h,
        match result {
            None => 1,
            Some(SatResult::Unsat) => 2,
            Some(SatResult::Sat) => 3,
        },
    );
    if result == Some(SatResult::Sat) {
        for chunk in vars.chunks(64) {
            let word = chunk
                .iter()
                .enumerate()
                .fold(0u64, |w, (i, &l)| w | (s.value(l) as u64) << i);
            h = mix(h, word);
        }
    }
    h
}

fn search_of(s: &Solver, answers: u64) -> Search {
    let st = s.stats();
    Search {
        conflicts: st.conflicts,
        decisions: st.decisions,
        propagations: st.propagations,
        answers,
    }
}

/// A seeded random CNF over 120 variables, of mixed clause widths (2 to
/// 4, one in eight binary) and 380 to 460 clauses, so the seeds straddle
/// the satisfiability threshold. It is solved once outright and then
/// under 24 random two-literal assumption sets on the same solver, the
/// incremental pattern the sweeping miter runs.
fn random_cnf(seed: u64) -> Search {
    let mut rng = SplitMix64::new(0x5eed_c0de ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut s = Solver::new();
    let vars: Vec<Lit> = (0..120).map(|_| Lit::positive(s.new_var())).collect();
    let clauses = 380 + 16 * seed as usize;
    let mut clause = Vec::new();
    for _ in 0..clauses {
        let width = [2, 3, 3, 3, 3, 4, 3, 3][rng.next_index(8)];
        clause.clear();
        for _ in 0..width {
            let l = vars[rng.next_index(vars.len())];
            clause.push(if rng.next_bool() { !l } else { l });
        }
        s.add_clause(&clause);
    }
    let first = s.solve_limited(Some(20_000));
    let mut h = fold_answer(0, &s, first, &vars);
    for _ in 0..24 {
        let a = vars[rng.next_index(vars.len())];
        let b = vars[rng.next_index(vars.len())];
        let assumptions = [
            if rng.next_bool() { !a } else { a },
            if rng.next_bool() { !b } else { b },
        ];
        let r = s.solve_limited_assuming(&assumptions, Some(5_000));
        h = fold_answer(h, &s, r, &vars);
    }
    search_of(&s, h)
}

/// A random netlist against its compiled array program: the plain miter,
/// one solve with no sweep, read from the solver; and the sweeping miter
/// the flow runs, as its outcome reports it (conflicts and decisions).
fn program_miters(seed: u64) -> (Search, (u64, u64)) {
    let nl = random_netlist("search_pin", seed, 16, 3, 90);
    let program = compile(&Mig::from_netlist(&nl), Realization::Maj).program;

    let mut miter = Miter::new(nl.num_inputs());
    let a = miter.add_netlist(&nl).expect("netlist side");
    let b = miter.add_program(&program).expect("program side");
    let inputs = miter.inputs().to_vec();
    let enc = miter.encoder();
    let diffs: Vec<Lit> = a.iter().zip(&b).map(|(&x, &y)| enc.xor(x, y)).collect();
    let any = enc.or_many(&diffs);
    let r = enc.solver_mut().solve_limited_assuming(&[any], None);
    let h = fold_answer(0, enc.solver_mut(), r, &inputs);
    let plain = search_of(enc.solver_mut(), h);

    let swept = match check_netlist_vs_program(&nl, &program).expect("well-formed miter") {
        MiterOutcome::Equivalent {
            conflicts,
            decisions,
        } => (conflicts, decisions),
        other => panic!("seed {seed}: a compiled program must prove: {other:?}"),
    };
    (plain, swept)
}

/// A pinned [`Search`]: conflicts, decisions, propagations, answer fold.
const fn pin(conflicts: u64, decisions: u64, propagations: u64, answers: u64) -> Search {
    Search {
        conflicts,
        decisions,
        propagations,
        answers,
    }
}

/// The search of each random CNF seed.
const CNF_PINS: [Search; 6] = [
    pin(234, 646, 9444, 9654142710725508636),
    pin(81, 501, 4292, 14015185990118816909),
    pin(34, 35, 1105, 5390066090082465412),
    pin(61, 83, 1820, 5390066090082465412),
    pin(39, 56, 913, 5390066090082465412),
    pin(37, 58, 972, 5390066090082465412),
];

/// The plain miter's search and the sweeping miter's (conflicts,
/// decisions) of each random netlist seed.
const MITER_PINS: [(Search, (u64, u64)); 4] = [
    (pin(24, 51, 376, 467077693504), (28, 32)),
    (pin(50, 64, 1084, 467077693504), (49, 53)),
    (pin(155, 189, 6941, 467077693504), (104, 111)),
    (pin(177, 237, 8256, 467077693504), (103, 144)),
];

#[test]
fn solver_search_is_pinned_on_random_cnfs() {
    let got: Vec<Search> = (0..CNF_PINS.len() as u64).map(random_cnf).collect();
    assert!(
        got.iter().map(|s| s.conflicts).sum::<u64>() >= 100,
        "too easy to pin a search: {got:?}"
    );
    assert_eq!(
        got, CNF_PINS,
        "the solver's search moved on the random CNFs"
    );
}

#[test]
fn solver_search_is_pinned_on_program_miters() {
    let got: Vec<(Search, (u64, u64))> = (0..MITER_PINS.len() as u64).map(program_miters).collect();
    assert!(
        got.iter().map(|(p, _)| p.conflicts).sum::<u64>() >= 100,
        "too easy to pin a search: {got:?}"
    );
    assert_eq!(
        got, MITER_PINS,
        "the solver's search moved on the program miters"
    );
}
