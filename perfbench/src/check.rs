//! The independent output check, run outside every timed region.
//!
//! The reference is `rms_logic`'s own simulation of the embedded source
//! netlist — the circuit before it was rendered to BLIF or AIGER bytes —
//! so the check covers the frontends too. The optimized MIG and both
//! compiled programs must agree with it: on every minterm up to
//! [`EXHAUSTIVE_VARS`] inputs, and on seeded random pattern words above.

use crate::stats::Rng;
use rms_core::Mig;
use rms_logic::Netlist;
use rms_rram::isa::Program;
use rms_rram::machine::Machine;

/// Widest circuit checked on every minterm.
pub const EXHAUSTIVE_VARS: usize = 14;

/// Random 64-lane pattern words per check above [`EXHAUSTIVE_VARS`].
pub const CHECK_WORDS: usize = 8;

/// Checks `mig` and `programs` against `reference`; `seed` draws the
/// pattern words of wide circuits.
pub fn outputs_match(
    reference: &Netlist,
    mig: &Mig,
    programs: &[(&str, &Program)],
    seed: u64,
) -> Result<(), String> {
    let n = reference.num_inputs();
    if mig.num_inputs() != n || mig.outputs().len() != reference.num_outputs() {
        return Err(format!(
            "MIG interface {}x{} differs from the source {}x{}",
            mig.num_inputs(),
            mig.outputs().len(),
            n,
            reference.num_outputs()
        ));
    }
    if n <= EXHAUSTIVE_VARS {
        let want = reference.truth_tables();
        if mig.truth_tables() != want {
            return Err("optimized MIG differs from the source netlist (exhaustive)".into());
        }
        for &(what, program) in programs {
            let got = Machine::truth_tables(program).map_err(|e| format!("{what}: {e}"))?;
            if got != want {
                return Err(format!(
                    "{what} program differs from the source netlist (exhaustive)"
                ));
            }
        }
        return Ok(());
    }
    let mut rng = Rng::new(seed);
    let mut machine = Machine::new();
    for _ in 0..CHECK_WORDS {
        let pattern: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let want = reference.simulate_words(&pattern);
        if mig.simulate_words(&pattern) != want {
            return Err("optimized MIG differs from the source netlist (random words)".into());
        }
        for &(what, program) in programs {
            let got = machine
                .run_words(program, &pattern)
                .map_err(|e| format!("{what}: {e}"))?;
            if got != want {
                return Err(format!(
                    "{what} program differs from the source netlist (random words)"
                ));
            }
        }
    }
    Ok(())
}
