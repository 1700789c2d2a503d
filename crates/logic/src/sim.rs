//! Simulation-based equivalence checking.
//!
//! Circuits with at most [`crate::tt::MAX_VARS`] inputs are compared
//! exhaustively through truth tables; larger circuits are compared with
//! deterministic bit-parallel random patterns (which is how the original
//! tools validate rewrites on the big ISCAS/LGsynth benchmarks too).

use crate::netlist::Netlist;
use crate::rng::SplitMix64;
use crate::tt::MAX_VARS;

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivResult {
    /// Functions proven equal on every minterm.
    Equivalent,
    /// Functions equal on all sampled patterns (not a proof).
    ProbablyEquivalent {
        /// Number of 64-bit pattern words simulated.
        words: usize,
    },
    /// A differing input pattern was found.
    NotEquivalent {
        /// Index of the first differing output.
        output: usize,
        /// A minterm (for exhaustive checks) or pattern index witnessing
        /// the difference.
        witness: u64,
    },
}

impl EquivResult {
    /// Whether no difference was observed.
    pub fn holds(&self) -> bool {
        !matches!(self, EquivResult::NotEquivalent { .. })
    }
}

/// Default number of 64-bit random pattern words for sampled checks.
pub const DEFAULT_SAMPLE_WORDS: usize = 256;

/// Checks two netlists for functional equivalence.
///
/// Exhaustive for up to [`MAX_VARS`] inputs, otherwise sampled with
/// [`DEFAULT_SAMPLE_WORDS`] deterministic random pattern words.
///
/// # Panics
///
/// Panics if the circuits have different input or output counts.
pub fn check_equivalence(a: &Netlist, b: &Netlist) -> EquivResult {
    assert_eq!(a.num_inputs(), b.num_inputs(), "input counts differ");
    assert_eq!(a.num_outputs(), b.num_outputs(), "output counts differ");
    let n = a.num_inputs();
    if n <= MAX_VARS && (1u128 << n) <= (64 * DEFAULT_SAMPLE_WORDS) as u128 {
        let ta = a.truth_tables();
        let tb = b.truth_tables();
        for (o, (x, y)) in ta.iter().zip(&tb).enumerate() {
            if x != y {
                let witness = (0..x.num_bits()).find(|&m| x.bit(m) != y.bit(m)).unwrap();
                return EquivResult::NotEquivalent { output: o, witness };
            }
        }
        return EquivResult::Equivalent;
    }
    let mut rng = SplitMix64::from_name(a.name());
    for w in 0..DEFAULT_SAMPLE_WORDS {
        let inputs: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let oa = a.simulate_words(&inputs);
        let ob = b.simulate_words(&inputs);
        for (o, (&x, &y)) in oa.iter().zip(&ob).enumerate() {
            if x != y {
                return EquivResult::NotEquivalent {
                    output: o,
                    witness: w as u64,
                };
            }
        }
    }
    EquivResult::ProbablyEquivalent {
        words: DEFAULT_SAMPLE_WORDS,
    }
}

/// Deterministic random input pattern words for external simulators.
///
/// Produces `words` pattern vectors, each with one word per input.
pub fn random_patterns(num_inputs: usize, words: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = SplitMix64::new(seed);
    (0..words)
        .map(|_| (0..num_inputs).map(|_| rng.next_u64()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;

    fn xor_circuit(name: &str, via_muxes: bool) -> Netlist {
        let mut b = NetlistBuilder::new(name);
        let x = b.input("x");
        let y = b.input("y");
        let o = if via_muxes {
            b.mux(x, b.not(y), y)
        } else {
            b.xor(x, y)
        };
        b.output("o", o);
        b.build()
    }

    #[test]
    fn equivalent_structures() {
        let a = xor_circuit("a", false);
        let b = xor_circuit("a", true);
        assert_eq!(check_equivalence(&a, &b), EquivResult::Equivalent);
    }

    #[test]
    fn detects_difference() {
        let a = xor_circuit("a", false);
        let mut bb = NetlistBuilder::new("b");
        let x = bb.input("x");
        let y = bb.input("y");
        let o = bb.or(x, y);
        bb.output("o", o);
        let b = bb.build();
        match check_equivalence(&a, &b) {
            EquivResult::NotEquivalent { output: 0, witness } => {
                assert_eq!(witness, 0b11); // XOR and OR differ only on 11
            }
            other => panic!("expected difference, got {other:?}"),
        }
    }

    #[test]
    fn sampled_path_used_for_wide_circuits() {
        // 30 inputs forces the sampled path.
        let build = |name: &str| {
            let mut b = NetlistBuilder::new(name);
            let ins: Vec<_> = (0..30).map(|i| b.input(format!("i{i}"))).collect();
            let mut acc = ins[0];
            for &w in &ins[1..] {
                acc = b.xor(acc, w);
            }
            b.output("o", acc);
            b.build()
        };
        let a = build("wide");
        let b = build("wide");
        match check_equivalence(&a, &b) {
            EquivResult::ProbablyEquivalent { words } => assert_eq!(words, DEFAULT_SAMPLE_WORDS),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn random_patterns_deterministic() {
        let a = random_patterns(4, 8, 99);
        let b = random_patterns(4, 8, 99);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert_eq!(a[0].len(), 4);
    }
}
