//! The simulation lanes of the SAT-backed passes ([`crate::fraig`] and
//! [`crate::resub`]): one 64-bit word per node and lane, the filter both
//! passes read before they spend a SAT call.
//!
//! Lane 0 is the engine's own signature cache; the next [`EXTRA_WORDS`]
//! lanes are seeded deterministically. Refuting input patterns
//! (counterexamples of SAT calls) fill further lanes, one pattern per
//! bit: they go into the open lane, up to 64 of them, and
//! [`Lanes::fold`] re-simulates that lane over the graph's current
//! topological order, with spare bits filled from the lane index. A full
//! lane is closed; the next counterexample opens a new one.
//!
//! The passes change the graph under the store: merges and substitutions
//! rewire fanouts onto nodes anywhere in the pass-start order, and
//! resubstitution adds nodes. Each proved change keeps every function,
//! so the rows of surviving nodes stay right, and a fold simulates the
//! graph as it is then, after giving the appended nodes rows from their
//! children. So every live node reads the words a fresh simulation of
//! the current graph gives, on every lane, and the filter only drops
//! candidates that are not equivalent.

use rms_core::{IncrementalMig, MigSignal};
use rms_logic::rng::SplitMix64;

/// Seed of the seeded lanes and of the counterexample lanes' filler.
const SEED: u64 = 0x000f_4a16_0b5e_55ed;

/// Seeded lanes beyond the engine's signature lane (total patterns
/// before any counterexample = `64 * (1 + EXTRA_WORDS)`).
const EXTRA_WORDS: usize = 7;

/// Counterexamples per lane, one per bit.
const LANE_PATTERNS: usize = 64;

/// Per-node simulation rows (`row(node)[lane]`) and the counterexamples
/// of the open lane.
pub(crate) struct Lanes {
    rows: Vec<Vec<u64>>,
    /// Counterexamples of the open lane, the last one once opened.
    cexes: Vec<Vec<bool>>,
    /// How many of `cexes` the open lane's words include.
    folded: usize,
}

impl Lanes {
    /// The initial rows of every node of `g`, simulated over its
    /// topological order `topo`. Dead nodes carry zeros.
    pub(crate) fn new(g: &IncrementalMig, topo: &[u32]) -> Lanes {
        let mut rows = vec![vec![0u64; 1 + EXTRA_WORDS]; g.len()];
        for (idx, row) in rows.iter_mut().enumerate() {
            if !g.is_dead(idx) {
                row[0] = g.sig_of(MigSignal::new(idx, false));
            }
        }
        for lane in 1..=EXTRA_WORDS {
            simulate(&mut rows, g, topo, lane, |k| {
                SplitMix64::new(
                    SEED ^ (lane as u64).wrapping_mul(0xA076_1D64_78BD_642F) ^ (k as u64),
                )
                .next_u64()
            });
        }
        Lanes {
            rows,
            cexes: Vec::new(),
            folded: 0,
        }
    }

    /// The words of `node` on every lane.
    pub(crate) fn row(&self, node: usize) -> &[u64] {
        &self.rows[node]
    }

    /// Records a refuting input pattern for the open lane (dropped once
    /// the lane is full); [`Lanes::fold`] brings it into the rows.
    pub(crate) fn add_cex(&mut self, cex: Vec<bool>) {
        if self.cexes.len() < LANE_PATTERNS {
            self.cexes.push(cex);
        }
    }

    /// Brings the rows up to date with `g`: nodes appended since the last
    /// call get rows from their children's, and counterexamples added
    /// since are folded in by re-simulating the open lane, opened first
    /// if need be, over `g`'s current topological order. Returns whether
    /// any counterexample was folded.
    pub(crate) fn fold(&mut self, g: &IncrementalMig) -> bool {
        let lanes = self.rows[0].len();
        for node in self.rows.len()..g.len() {
            let row = g.maj_children(node).map_or(vec![0; lanes], |kids| {
                (0..lanes).map(|l| maj_word(&self.rows, kids, l)).collect()
            });
            self.rows.push(row);
        }
        if self.cexes.len() == self.folded {
            return false;
        }
        if self.folded == 0 {
            for row in &mut self.rows {
                row.push(0);
            }
        }
        let lane = self.rows[0].len() - 1;
        let salt = (lane as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
        simulate(&mut self.rows, g, &g.topo_order(), lane, |k| {
            let mut w = SplitMix64::new(SEED ^ salt ^ (k as u64)).next_u64();
            for (bit, cex) in self.cexes.iter().enumerate() {
                if cex[k] {
                    w |= 1 << bit;
                } else {
                    w &= !(1 << bit);
                }
            }
            w
        });
        self.folded = self.cexes.len();
        if self.folded == LANE_PATTERNS {
            self.cexes.clear();
            self.folded = 0;
        }
        true
    }
}

/// Fills lane `lane` of every input from `input_word` and of every gate
/// in `topo` from its children.
fn simulate(
    rows: &mut [Vec<u64>],
    g: &IncrementalMig,
    topo: &[u32],
    lane: usize,
    input_word: impl Fn(usize) -> u64,
) {
    for k in 0..g.num_inputs() {
        rows[g.input(k).node()][lane] = input_word(k);
    }
    for &n in topo {
        if let Some(kids) = g.maj_children(n as usize) {
            rows[n as usize][lane] = maj_word(rows, kids, lane);
        }
    }
}

/// Majority of the (edge-complemented) words of `kids` on `lane`.
fn maj_word(rows: &[Vec<u64>], kids: [MigSignal; 3], lane: usize) -> u64 {
    let [a, b, c] = kids.map(|s| rows[s.node()][lane] ^ phase_mask(s.is_complemented()));
    maj3(a, b, c)
}

/// The all-ones word for a complemented signal, else zero.
pub(crate) fn phase_mask(complemented: bool) -> u64 {
    if complemented {
        !0
    } else {
        0
    }
}

/// Bitwise majority of three words.
pub(crate) fn maj3(a: u64, b: u64, c: u64) -> u64 {
    (a & b) | (a & c) | (b & c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resub::ResubOptions;
    use crate::FraigOptions;
    use rms_core::opt::OptOptions;
    use rms_core::Mig;
    use rms_logic::bench_suite;

    fn bench_mig(name: &str) -> Mig {
        Mig::from_netlist(&bench_suite::build(name).unwrap()).compact()
    }

    /// The live nodes of `g` whose rows differ from a fresh simulation of
    /// `g` from the same input words, on any lane.
    fn stale_nodes(g: &IncrementalMig, lanes: &Lanes) -> Vec<usize> {
        let mut fresh = lanes.rows.clone();
        for &n in &g.topo_order() {
            let kids = g.maj_children(n as usize).expect("a live gate");
            fresh[n as usize] = (0..fresh[0].len())
                .map(|l| maj_word(&fresh, kids, l))
                .collect();
        }
        (0..g.len())
            .filter(|&i| !g.is_dead(i) && fresh[i] != lanes.rows[i])
            .collect()
    }

    #[test]
    fn folded_lanes_match_a_fresh_simulation() {
        // After a pass, every live node's rows on every lane, the folded
        // counterexample lanes included, must be what simulating the
        // final graph from the same input words gives: after the fanouts
        // that merges and substitutions rewired, and on the nodes that
        // accepted 1-resubs added. On t481 after cut, fraig merges rewire
        // fanouts onto representatives that come later in the pass-start
        // order, so a lane simulated over that order reads stale words.
        let cut = |name: &str| {
            let (cut, _) = crate::optimize_cut_stats(&bench_mig(name), &OptOptions::with_effort(4));
            (format!("{name} after cut"), cut.compact())
        };
        let raw = ["rd84_f4", "9sym_d", "sao2_f1", "apex4"].map(|n| (n.to_string(), bench_mig(n)));
        let (mut added, mut resub_folds, mut fraig_folds, mut merges) = (0, 0, 0, 0);
        for (name, mig) in raw.into_iter().chain([cut("t481"), cut("apex4")]) {
            let mut g = IncrementalMig::from_mig(&mig);
            let (outcome, lanes) = crate::fraig::run_pass(&mut g, &FraigOptions::default());
            assert_eq!(stale_nodes(&g, &lanes), [], "{name}: fraig");
            merges += outcome.stats.merges;
            fraig_folds += lanes.rows[0].len() - (1 + EXTRA_WORDS);

            let mut g = IncrementalMig::from_mig(&mig);
            let len_before = g.len();
            let (_, lanes) = crate::resub::run_pass(&mut g, &ResubOptions::default(), true);
            assert_eq!(stale_nodes(&g, &lanes), [], "{name}: resub");
            added += (len_before..g.len()).filter(|&i| !g.is_dead(i)).count();
            resub_folds += lanes.rows[0].len() - (1 + EXTRA_WORDS);
        }
        assert!(added > 0, "no 1-resub added a node");
        assert!(merges > 0, "no fraig merge");
        assert!(resub_folds > 0, "resub folded no counterexample lane");
        assert!(fraig_folds > 0, "fraig folded no counterexample lane");
    }
}
