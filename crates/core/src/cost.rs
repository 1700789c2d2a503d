//! The RRAM implementation cost model of Table I.
//!
//! The paper maps an MIG to an RRAM circuit level by level (Sec. III-B):
//! all majority gates of a level execute in parallel, RRAMs are released
//! when a level finishes and reused for the next, and every level whose
//! ingoing edges carry complement attributes pays one extra inversion step.
//! This yields the closed-form metrics of Table I:
//!
//! ```text
//! R = max over levels i of (K_R * N_i + C_i)     number of RRAMs
//! S = K_S * D + L                                number of steps
//! ```
//!
//! with `N_i` the node count of level `i`, `C_i` its ingoing complemented
//! edges, `D` the depth, `L` the number of levels with ingoing complemented
//! edges, and per-gate constants `K_R`/`K_S` of 6/10 for the IMP-based
//! realization and 4/3 for the MAJ-based realization (Sec. III-A).
//!
//! Two conventions the paper leaves implicit are pinned down (and checked
//! against the cycle-accurate machine in `rms-rram`'s tests):
//!
//! - complement attributes on edges **from the constant node are free**
//!   (loading a 0 or a 1 into an RRAM costs the same single step), and
//! - complemented **primary outputs** form one virtual extra level: they
//!   add their count to `R`'s per-level maximum and one inversion step to
//!   `L` (but do not increase `D`).

use crate::mig::{Mig, MigNode};

/// Which RRAM realization of the majority gate is used (Sec. III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Realization {
    /// Material-implication realization: 6 RRAMs / 10 steps per gate
    /// (Fig. 3).
    Imp,
    /// Built-in resistive-majority realization: 4 RRAMs / 3 steps per gate.
    Maj,
}

impl Realization {
    /// Both realizations, in the order the paper discusses them.
    pub const ALL: [Realization; 2] = [Realization::Imp, Realization::Maj];

    /// RRAMs required per majority gate (`K` in Table I's `R` row).
    pub fn rrams_per_gate(self) -> u64 {
        match self {
            Realization::Imp => 6,
            Realization::Maj => 4,
        }
    }

    /// Sequential steps per MIG level (`K` in Table I's `S` row).
    pub fn steps_per_level(self) -> u64 {
        match self {
            Realization::Imp => 10,
            Realization::Maj => 3,
        }
    }

    /// Parses a realization name as given on the command line or in an
    /// `rms serve` request (`imp` or `maj`, any case).
    pub fn from_name(name: &str) -> Option<Realization> {
        match name.to_ascii_lowercase().as_str() {
            "imp" => Some(Realization::Imp),
            "maj" => Some(Realization::Maj),
            _ => None,
        }
    }
}

impl std::fmt::Display for Realization {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Realization::Imp => write!(f, "IMP"),
            Realization::Maj => write!(f, "MAJ"),
        }
    }
}

/// Per-level structural statistics of an MIG (the `N_i`, `C_i`, `D`, `L`
/// quantities of Table I).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelProfile {
    /// `N_i`: majority-node count per level (index 0 = level 1; inputs are
    /// level 0 and carry no gates).
    pub nodes_per_level: Vec<u64>,
    /// `C_i`: ingoing complemented (non-constant) edges per level, plus a
    /// final entry for the virtual output level.
    pub compl_per_level: Vec<u64>,
    /// `D`: depth of the graph.
    pub depth: u64,
    /// `L`: number of levels with at least one ingoing complemented edge
    /// (including the virtual output level).
    pub levels_with_compl: u64,
}

impl LevelProfile {
    /// Computes the profile of a graph.
    ///
    /// Only nodes reachable from the outputs are counted: dead nodes are
    /// never implemented by the level-by-level compiler (and an optimized
    /// MIG has none).
    pub fn of(mig: &Mig) -> Self {
        let depth = mig.depth() as usize;
        let mut alive = vec![false; mig.len()];
        let mut stack: Vec<usize> = mig.outputs().iter().map(|(_, s)| s.node()).collect();
        while let Some(i) = stack.pop() {
            if alive[i] {
                continue;
            }
            alive[i] = true;
            if let MigNode::Maj(kids) = mig.node(i) {
                stack.extend(kids.iter().map(|k| k.node()));
            }
        }
        // Entry i covers MIG level i+1; one extra slot for the virtual
        // output level.
        let mut nodes_per_level = vec![0u64; depth];
        let mut compl_per_level = vec![0u64; depth + 1];
        for (idx, &is_alive) in alive.iter().enumerate() {
            if !is_alive {
                continue;
            }
            if let MigNode::Maj(kids) = mig.node(idx) {
                let lvl = mig.level(idx) as usize;
                debug_assert!((1..=depth).contains(&lvl));
                nodes_per_level[lvl - 1] += 1;
                for k in kids {
                    if k.is_complemented() && !k.is_constant() {
                        compl_per_level[lvl - 1] += 1;
                    }
                }
            }
        }
        for (_, o) in mig.outputs() {
            if o.is_complemented() && !o.is_constant() {
                compl_per_level[depth] += 1;
            }
        }
        let levels_with_compl = compl_per_level.iter().filter(|&&c| c > 0).count() as u64;
        LevelProfile {
            nodes_per_level,
            compl_per_level,
            depth: depth as u64,
            levels_with_compl,
        }
    }

    /// Total number of complemented edges (including complemented outputs).
    pub fn total_complemented(&self) -> u64 {
        self.compl_per_level.iter().sum()
    }
}

/// The two cost metrics of Table I for one realization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RramCost {
    /// `R`: number of RRAM devices.
    pub rrams: u64,
    /// `S`: number of sequential computational steps.
    pub steps: u64,
}

impl RramCost {
    /// Evaluates Table I on a level profile.
    pub fn from_profile(profile: &LevelProfile, realization: Realization) -> Self {
        let kr = realization.rrams_per_gate();
        let ks = realization.steps_per_level();
        let mut rrams = 0u64;
        for (i, &n) in profile.nodes_per_level.iter().enumerate() {
            rrams = rrams.max(kr * n + profile.compl_per_level[i]);
        }
        // Virtual output level: no gates, only inversions.
        rrams = rrams.max(*profile.compl_per_level.last().unwrap_or(&0));
        let steps = ks * profile.depth + profile.levels_with_compl;
        RramCost { rrams, steps }
    }

    /// Evaluates Table I directly on a graph.
    pub fn of(mig: &Mig, realization: Realization) -> Self {
        Self::from_profile(&LevelProfile::of(mig), realization)
    }
}

impl std::fmt::Display for RramCost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "R={} S={}", self.rrams, self.steps)
    }
}

/// Convenience: structural summary of a graph used in reports and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigStats {
    /// Majority-node count.
    pub gates: u64,
    /// Depth (levels).
    pub depth: u64,
    /// Complemented non-constant edges, including outputs.
    pub complemented_edges: u64,
    /// Levels with ingoing complemented edges.
    pub levels_with_compl: u64,
    /// Table I metrics for the IMP realization.
    pub imp: RramCost,
    /// Table I metrics for the MAJ realization.
    pub maj: RramCost,
}

impl MigStats {
    /// Gathers all statistics for a graph.
    pub fn of(mig: &Mig) -> Self {
        let profile = LevelProfile::of(mig);
        MigStats {
            gates: mig.num_gates() as u64,
            depth: profile.depth,
            complemented_edges: profile.total_complemented(),
            levels_with_compl: profile.levels_with_compl,
            imp: RramCost::from_profile(&profile, Realization::Imp),
            maj: RramCost::from_profile(&profile, Realization::Maj),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mig::Mig;

    /// A graph with known shape: two gates on level 1 (one complemented
    /// edge), one gate on level 2 (one complemented edge), output clean.
    fn sample() -> Mig {
        let mut m = Mig::with_inputs("t", 4);
        let (a, b, c, d) = (m.input(0), m.input(1), m.input(2), m.input(3));
        let g1 = m.maj(a, !b, c); // level 1, 1 complemented
        let g2 = m.maj(b, c, d); // level 1
        let top = m.maj(g1, !g2, a); // level 2, 1 complemented
        m.add_output("f", top);
        m
    }

    #[test]
    fn profile_counts() {
        let p = LevelProfile::of(&sample());
        assert_eq!(p.depth, 2);
        assert_eq!(p.nodes_per_level, vec![2, 1]);
        assert_eq!(p.compl_per_level, vec![1, 1, 0]);
        assert_eq!(p.levels_with_compl, 2);
        assert_eq!(p.total_complemented(), 2);
    }

    #[test]
    fn table1_formulas() {
        let m = sample();
        // IMP: R = max(6*2+1, 6*1+1, 0) = 13 ; S = 10*2 + 2 = 22
        assert_eq!(
            RramCost::of(&m, Realization::Imp),
            RramCost {
                rrams: 13,
                steps: 22
            }
        );
        // MAJ: R = max(4*2+1, 4*1+1, 0) = 9 ; S = 3*2 + 2 = 8
        assert_eq!(
            RramCost::of(&m, Realization::Maj),
            RramCost { rrams: 9, steps: 8 }
        );
    }

    #[test]
    fn constant_edges_are_free() {
        let mut m = Mig::with_inputs("t", 2);
        let (a, b) = (m.input(0), m.input(1));
        let or = m.or(a, b); // M(a, b, 1): complemented constant edge
        m.add_output("f", or);
        let p = LevelProfile::of(&m);
        assert_eq!(p.total_complemented(), 0);
        assert_eq!(
            RramCost::of(&m, Realization::Maj),
            RramCost { rrams: 4, steps: 3 }
        );
    }

    #[test]
    fn complemented_output_costs_one_extra_step() {
        let mut m = Mig::with_inputs("t", 3);
        let (a, b, c) = (m.input(0), m.input(1), m.input(2));
        let g = m.maj(a, b, c);
        m.add_output("f", !g);
        let p = LevelProfile::of(&m);
        assert_eq!(p.compl_per_level, vec![0, 1]);
        assert_eq!(p.levels_with_compl, 1);
        let cost = RramCost::of(&m, Realization::Maj);
        assert_eq!(cost.steps, 3 + 1);
        assert_eq!(cost.rrams, 4);
    }

    #[test]
    fn realization_constants_match_paper() {
        assert_eq!(Realization::Imp.rrams_per_gate(), 6);
        assert_eq!(Realization::Imp.steps_per_level(), 10);
        assert_eq!(Realization::Maj.rrams_per_gate(), 4);
        assert_eq!(Realization::Maj.steps_per_level(), 3);
        assert_eq!(Realization::Imp.to_string(), "IMP");
    }

    #[test]
    fn realization_names_round_trip_display() {
        for r in Realization::ALL {
            assert_eq!(Realization::from_name(&r.to_string()), Some(r));
        }
        assert_eq!(Realization::from_name("maj"), Some(Realization::Maj));
        assert_eq!(Realization::from_name("mig"), None);
    }

    #[test]
    fn empty_graph_costs_nothing() {
        let mut m = Mig::with_inputs("t", 1);
        let a = m.input(0);
        m.add_output("f", a);
        let c = RramCost::of(&m, Realization::Imp);
        assert_eq!(c, RramCost { rrams: 0, steps: 0 });
    }

    #[test]
    fn stats_summary() {
        let s = MigStats::of(&sample());
        assert_eq!(s.gates, 3);
        assert_eq!(s.depth, 2);
        assert_eq!(s.complemented_edges, 2);
        assert_eq!(s.imp.steps, 22);
        assert_eq!(s.maj.steps, 8);
    }
}
