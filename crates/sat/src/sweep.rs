//! SAT sweeping inside one miter: internal equivalences are proved
//! bottom-up before the output miter is refuted.
//!
//! Two circuits that compute the same function usually share most of
//! their intermediate functions too — local rewriting and compilation
//! change structure, not meaning, in small windows. A plain miter leaves
//! the solver to rediscover every such correspondence on its own; the
//! sweep hands them over as clauses, so the final refutation only has to
//! bridge what is genuinely new. The method is the one of ABC's `&cec`
//! (Mishchenko et al., "Improvements to Combinational Equivalence
//! Checking", ICCAD 2006), run on one incremental solver with
//! assumptions (Eén & Sörensson, "An Extensible SAT-solver", SAT 2003):
//!
//! 1. **Simulate** every variable of the encoded formula on
//!    `SIM_WORDS` (8) seeded random words, in the encoder's creation order
//!    (which is topological).
//! 2. **Bucket** variables into candidate classes of equal simulation
//!    signature up to complement; the earliest variable of a class is
//!    its representative.
//! 3. **Prove** each candidate against its representative, in variable
//!    order, with two assumption solves of at most `PAIR_CONFLICTS` (100)
//!    conflicts each, raising the branching priority of the pair and its
//!    operands first so the search starts where the proof is. Both
//!    `Unsat`: the two implications become permanent binary clauses.
//!    `Sat`: the model is a distinguishing pattern, recorded for every
//!    class member, and the class splits by it. Budget exhausted: the
//!    pair is skipped — nothing unproved is ever added.
//!
//! Every clause the sweep adds is implied by the gate definitions alone,
//! so the output miter that follows is equisatisfiable with the plain
//! one: an `Unsat` answer is still a proof and a `Sat` model is still a
//! counterexample. Seeds are fixed and all iteration is over vectors in
//! variable order, so a sweep is deterministic, counts included.

use crate::lit::{Lit, Var};
use crate::solver::SatResult;
use crate::tseitin::{Encoder, GateKey};
use rms_logic::rng::SplitMix64;

/// Random simulation words per variable.
const SIM_WORDS: usize = 8;

/// Conflict budget of one candidate-pair solve.
const PAIR_CONFLICTS: u64 = 100;

/// Seed of the random simulation words.
const SIM_SEED: u64 = 0x5eed_c0de_0f5a_7e11;

/// No class.
const NONE: u32 = u32::MAX;

/// The conflict budget shared by every stage of one miter.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Budget {
    start: u64,
    limit: Option<u64>,
}

impl Budget {
    /// A budget of `limit` conflicts (unbounded for `None`) counted from
    /// the solver's current total.
    pub(crate) fn new(enc: &Encoder, limit: Option<u64>) -> Self {
        Budget {
            start: enc.stats().conflicts,
            limit,
        }
    }

    /// Conflicts still available, capped at `cap`.
    pub(crate) fn remaining(&self, enc: &Encoder, cap: Option<u64>) -> Option<u64> {
        let left = self
            .limit
            .map(|l| l.saturating_sub(enc.stats().conflicts - self.start));
        match (left, cap) {
            (Some(l), Some(c)) => Some(l.min(c)),
            (l, c) => l.or(c),
        }
    }
}

/// Word-parallel values of every variable of `enc` (`SIM_WORDS` words
/// per variable, variable-major): the constant is all ones, free
/// variables are seeded random, gates are evaluated in creation order.
pub(crate) fn simulate(enc: &Encoder) -> Vec<u64> {
    let n = enc.num_vars();
    let mut sim = vec![0u64; n * SIM_WORDS];
    let mut is_gate = vec![false; n];
    for &(v, _) in enc.gates() {
        is_gate[v.index()] = true;
    }
    let constant = enc.true_lit().var().index();
    for (v, _) in is_gate.iter().enumerate().filter(|&(_, &g)| !g) {
        let row = &mut sim[v * SIM_WORDS..(v + 1) * SIM_WORDS];
        if v == constant {
            row.fill(u64::MAX);
        } else {
            let mut rng =
                SplitMix64::new(SIM_SEED ^ (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            row.iter_mut().for_each(|w| *w = rng.next_u64());
        }
    }
    for &(z, key) in enc.gates() {
        for w in 0..SIM_WORDS {
            let val = |l: Lit| {
                let x = sim[l.var().index() * SIM_WORDS + w];
                if l.is_negated() {
                    !x
                } else {
                    x
                }
            };
            sim[z.index() * SIM_WORDS + w] = match key {
                GateKey::And(a, b) => val(a) & val(b),
                GateKey::Xor(a, b) => val(a) ^ val(b),
                GateKey::Maj(a, b, c) => {
                    let (a, b, c) = (val(a), val(b), val(c));
                    (a & b) | (a & c) | (b & c)
                }
                GateKey::Mux(s, t, e) => {
                    let s = val(s);
                    (s & val(t)) | (!s & val(e))
                }
            };
        }
    }
    sim
}

/// Whether `lit` is false on every simulated pattern.
pub(crate) fn sim_is_zero(sim: &[u64], lit: Lit) -> bool {
    let row = &sim[lit.var().index() * SIM_WORDS..(lit.var().index() + 1) * SIM_WORDS];
    let flip = if lit.is_negated() { u64::MAX } else { 0 };
    row.iter().all(|&w| w ^ flip == 0)
}

/// Candidate classes with their counterexample signatures.
struct Classes {
    /// Per variable: its class, or [`NONE`].
    class_of: Vec<u32>,
    /// Members of each class in ascending variable order; the first is
    /// the representative.
    members: Vec<Vec<u32>>,
    /// Per variable: its value on the first simulated pattern. Class
    /// members agree on `value ^ phase` across every pattern.
    phase: Vec<bool>,
    /// Per variable: proved equal to its representative (dropped from
    /// its class at the next split).
    merged: Vec<bool>,
    /// Per variable, [`SIM_WORDS`] words (the simulation store, reused):
    /// bit `k` is its value in the `k`-th recorded model. Models past
    /// `64 * SIM_WORDS` still refute their own pair but no longer refine.
    cex: Vec<u64>,
    /// Models recorded so far.
    num_cex: usize,
}

impl Classes {
    /// Buckets every variable by its simulation signature up to
    /// complement; singletons get no class.
    fn build(mut sim: Vec<u64>, num_vars: usize) -> Self {
        let phase: Vec<bool> = (0..num_vars).map(|v| sim[v * SIM_WORDS] & 1 == 1).collect();
        // Each variable's signature, complemented to a clear first bit.
        let keys: Vec<[u64; SIM_WORDS]> = (0..num_vars)
            .map(|v| {
                let flip = if phase[v] { u64::MAX } else { 0 };
                std::array::from_fn(|w| sim[v * SIM_WORDS + w] ^ flip)
            })
            .collect();
        let mut order: Vec<u32> = (0..num_vars as u32).collect();
        order.sort_unstable_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]).then(a.cmp(&b)));
        let mut class_of = vec![NONE; num_vars];
        let mut members: Vec<Vec<u32>> = Vec::new();
        let mut start = 0;
        while start < order.len() {
            let head = order[start] as usize;
            let mut end = start + 1;
            while end < order.len() && keys[order[end] as usize] == keys[head] {
                end += 1;
            }
            if end - start >= 2 {
                let id = members.len() as u32;
                for &v in &order[start..end] {
                    class_of[v as usize] = id;
                }
                members.push(order[start..end].to_vec());
            }
            start = end;
        }
        sim.fill(0);
        Classes {
            class_of,
            members,
            phase,
            merged: vec![false; num_vars],
            cex: sim,
            num_cex: 0,
        }
    }

    /// Normalized counterexample word `w` of `v`.
    fn cex_word(&self, v: usize, w: usize) -> u64 {
        let flip = if self.phase[v] { u64::MAX } else { 0 };
        self.cex[v * SIM_WORDS + w] ^ flip
    }

    /// Whether `a` and `b` agree (up to their phases) on every recorded
    /// model.
    fn agree(&self, a: usize, b: usize) -> bool {
        if self.num_cex == 0 {
            return true;
        }
        let full = self.num_cex / 64;
        let tail = self.num_cex % 64;
        (0..full).all(|w| self.cex_word(a, w) == self.cex_word(b, w))
            && (tail == 0 || (self.cex_word(a, full) ^ self.cex_word(b, full)) << (64 - tail) == 0)
    }

    /// Records the solver's current model for every class member;
    /// `false` once the counterexample store is full.
    fn record(&mut self, enc: &Encoder) -> bool {
        if self.num_cex == 64 * SIM_WORDS {
            return false;
        }
        let (w, bit) = (self.num_cex / 64, self.num_cex % 64);
        for (v, &c) in self.class_of.iter().enumerate() {
            if c != NONE && enc.value(Lit::positive(Var(v as u32))) {
                self.cex[v * SIM_WORDS + w] |= 1 << bit;
            }
        }
        self.num_cex += 1;
        true
    }

    /// Splits class `id` by the recorded models: members that agree stay
    /// together, in ascending order; merged members are dropped, and
    /// groups of one lose their class.
    fn split(&mut self, id: u32) {
        let mut rest = std::mem::take(&mut self.members[id as usize]);
        rest.retain(|&v| {
            if self.merged[v as usize] {
                self.class_of[v as usize] = NONE;
            }
            !self.merged[v as usize]
        });
        let mut reuse = Some(id);
        while let Some(&head) = rest.first() {
            let (group, others): (Vec<u32>, Vec<u32>) = rest
                .iter()
                .partition(|&&v| self.agree(head as usize, v as usize));
            rest = others;
            if group.len() < 2 {
                self.class_of[head as usize] = NONE;
                continue;
            }
            let gid = reuse.take().unwrap_or_else(|| {
                self.members.push(Vec::new());
                self.members.len() as u32 - 1
            });
            for &v in &group {
                self.class_of[v as usize] = gid;
            }
            self.members[gid as usize] = group;
        }
    }
}

/// Verdict of one budgeted implication proof.
enum Verdict {
    /// Proved; the implication is now a clause of the solver.
    Proved,
    /// Refuted; the solver holds the refuting model.
    Refuted,
    /// The pair budget ran out.
    Unknown,
}

/// Proves the simulation-equivalent variables of `enc` equal bottom-up
/// and adds each proved equivalence as two binary clauses. `None` when
/// it stopped early because `budget` is spent or `cancel` fired; every
/// clause added until then is proved.
pub(crate) fn sweep(
    enc: &mut Encoder,
    sim: Vec<u64>,
    budget: &Budget,
    cancel: &rms_core::CancelToken,
) -> Option<()> {
    let mut classes = Classes::build(sim, enc.num_vars());
    let mut defs = vec![None; enc.num_vars()];
    for &(v, key) in enc.gates() {
        defs[v.index()] = Some(key);
    }
    for c in 0..enc.num_vars() {
        loop {
            let id = classes.class_of[c];
            if id == NONE {
                break;
            }
            let r = classes.members[id as usize][0] as usize;
            if !classes.agree(c, r) {
                classes.split(id);
                continue;
            }
            if r == c {
                break;
            }
            if cancel.cancelled() {
                return None;
            }
            let cl = Lit::positive(Var(c as u32));
            let rl = Lit::new(Var(r as u32), classes.phase[c] ^ classes.phase[r]);
            let verdict = match prove_implication(enc, &defs, cl, rl, budget)? {
                Verdict::Proved => prove_implication(enc, &defs, !cl, !rl, budget)?,
                other => other,
            };
            match verdict {
                Verdict::Proved => {
                    classes.merged[c] = true;
                    break;
                }
                Verdict::Unknown => break,
                // The model distinguishes `c` from `r`: refine by it, or,
                // with the store full, take `c` out of the class.
                Verdict::Refuted => {
                    if !classes.record(enc) {
                        classes.class_of[c] = NONE;
                    }
                }
            }
        }
    }
    Some(())
}

/// Tries to prove `a → b` within the pair budget, first raising the
/// branching priority of both variables and their operands so the
/// search starts where the proof is. `None` when the shared budget is
/// spent.
fn prove_implication(
    enc: &mut Encoder,
    defs: &[Option<GateKey>],
    a: Lit,
    b: Lit,
    budget: &Budget,
) -> Option<Verdict> {
    let limit = budget.remaining(enc, Some(PAIR_CONFLICTS));
    for l in [a, b] {
        enc.solver_mut().bump_activity(l.var());
        for f in defs[l.var().index()].iter().flat_map(|key| key.operands()) {
            enc.solver_mut().bump_activity(f.var());
        }
    }
    match enc.solver_mut().solve_limited_assuming(&[a, !b], limit) {
        Some(SatResult::Unsat) => {
            enc.solver_mut().add_clause(&[!a, b]);
            Some(Verdict::Proved)
        }
        Some(SatResult::Sat) => Some(Verdict::Refuted),
        None if budget.remaining(enc, None) == Some(0) => None,
        None => Some(Verdict::Unknown),
    }
}
