//! A conflict-driven clause-learning (CDCL) SAT solver.
//!
//! The solver is deliberately conventional — the point of this crate is a
//! *trustworthy* equivalence oracle, not a competition entry — and
//! implements the standard MiniSat-family architecture:
//!
//! - two watched literals per clause for unit propagation,
//! - first-UIP conflict analysis with clause learning,
//! - VSIDS-style variable activities with an indexed max-heap,
//! - phase saving,
//! - Luby-sequence restarts, and
//! - incremental solving under assumptions
//!   ([`Solver::solve_limited_assuming`]): one solver answers a sequence
//!   of related queries and keeps what it learned between them, which is
//!   what the sweeping miter in [`crate::miter`] runs on.
//!
//! # Clause store
//!
//! Every clause of two or more literals, original or learned, lives in
//! one flat arena of literals (MiniSat's layout; Eén & Sörensson, "An
//! Extensible SAT-solver", SAT 2003): a clause reference is the offset of
//! a length header that the literals follow. Watch lists, reasons and
//! conflicts hold that offset, so the hot loops chase no per-clause
//! allocation, and adding or learning a clause appends to the arena.
//!
//! Binary clauses, which make up most watch-list visits on the Tseitin
//! encodings and the sweep's proved implications, are also kept inline
//! in the watch lists: a binary watch carries the clause's other
//! literal, so propagating it reads no arena. A binary clause's stored
//! order matters to conflict analysis only. As a reason it contributes
//! just the literal it did not imply, in either order; as a conflict it
//! is first written back as `[other, false literal]`, the order a swap
//! to put the other watch first would leave, so analysis visits the same
//! literals in the same order as with a vector per clause.
//!
//! Watches of longer clauses carry no blocker literal. A blocker that is
//! not the other watch would skip clause visits and so change which
//! watch moves, and with it the search: the conflict and decision counts
//! that proof labels report, and the counterexample models that the
//! fraig and resub passes refine on.
//!
//! It is `std`-only (the workspace builds offline) and fully
//! deterministic: the same clause set always produces the same model,
//! the same conflict count, and the same decision count, which is what
//! lets the parallel differential sweeps assert bit-identical results.
//!
//! # Example
//!
//! ```
//! use rms_sat::{Lit, SatResult, Solver};
//!
//! let mut s = Solver::new();
//! let a = Lit::positive(s.new_var());
//! let b = Lit::positive(s.new_var());
//! s.add_clause(&[a, b]);
//! s.add_clause(&[!a, b]);
//! s.add_clause(&[!b, a]);
//! assert_eq!(s.solve(), SatResult::Sat);
//! assert!(s.value(a) && s.value(b));
//! ```

use crate::lit::{Lit, Var};

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment exists; read it with [`Solver::value`].
    Sat,
    /// The clause set is unsatisfiable.
    Unsat,
}

/// Search statistics of a solver run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Conflicts encountered (equals learned-clause derivations).
    pub conflicts: u64,
    /// Branching decisions taken.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learned clauses currently in the database.
    pub learned: u64,
}

/// Sentinel for "no reason clause" (decisions and root-level units).
const NO_REASON: u32 = u32::MAX;

/// Tag bit of a [`Watch`] on a binary clause; clause offsets stay below it.
const BINARY: u32 = 1 << 31;

/// Restart interval unit: the Luby sequence is scaled by this many
/// conflicts.
const RESTART_BASE: u64 = 128;

/// Multiplicative VSIDS decay applied after every conflict.
const ACTIVITY_DECAY: f64 = 0.95;

/// One watch-list entry: the watched clause's arena offset, tagged
/// [`BINARY`] for a two-literal clause, plus that clause's other literal.
/// `other` is read only for binary clauses. A longer clause's watches
/// move, and reading a stale literal there as a blocker would change the
/// search (see the module docs).
#[derive(Debug, Clone, Copy)]
struct Watch {
    cref: u32,
    other: Lit,
}

/// The CDCL solver: a growable clause database plus search state.
#[derive(Debug, Default)]
pub struct Solver {
    /// Every stored clause, back to back: a length header (a literal
    /// whose code is the length) followed by the clause's literals. A
    /// clause reference is the offset of its header.
    arena: Vec<Lit>,
    /// Clauses in the arena (original and learned).
    num_clauses: usize,
    /// Watch lists indexed by [`Lit::code`]: clauses currently watching
    /// the literal, in the order they started watching it.
    watches: Vec<Vec<Watch>>,
    /// Truth state per literal, indexed by [`Lit::code`]: `0`
    /// unassigned, `1` true, `-1` false (a variable's two literals are
    /// kept opposite, so reading a literal needs no sign test).
    values: Vec<i8>,
    /// Saved phase per variable (last value it held).
    phase: Vec<bool>,
    /// Decision level and reason of each assigned variable.
    vardata: Vec<VarData>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    prop_head: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: VarHeap,
    /// Scratch marker per variable for conflict analysis.
    seen: Vec<bool>,
    /// Conflict analysis's learned clause (asserting literal first),
    /// reused across conflicts.
    learnt: Vec<Lit>,
    /// Variables conflict analysis marked in `seen`, reused likewise.
    to_clear: Vec<Var>,
    /// Set when an empty clause was derived at the root level.
    root_unsat: bool,
    stats: SolverStats,
    /// Cooperative-cancellation handle, polled at restart boundaries
    /// (see [`Solver::set_cancel`]). Inert by default.
    cancel: rms_core::CancelToken,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            var_inc: 1.0,
            ..Solver::default()
        }
    }

    /// Attaches a cooperative-cancellation token. The search polls it at
    /// restart boundaries (every 128·Luby conflicts): a cancelled token
    /// makes [`Solver::solve_limited`] backtrack to the root and return
    /// `None`, exactly like conflict-budget exhaustion — learned clauses
    /// are kept and the call can be resumed. [`Solver::solve`] must not
    /// be used with an armed token (it treats `None` as impossible).
    pub fn set_cancel(&mut self, cancel: rms_core::CancelToken) {
        self.cancel = cancel;
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.vardata.len() as u32);
        self.values.extend([0, 0]);
        self.phase.push(false);
        self.vardata.push(VarData {
            level: 0,
            reason: NO_REASON,
        });
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.insert(v, &self.activity);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.vardata.len()
    }

    /// Number of clauses in the database (including learned ones).
    pub fn num_clauses(&self) -> usize {
        self.num_clauses
    }

    /// Search statistics accumulated so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Truth value of `lit` under the current (or final) assignment.
    ///
    /// Unassigned variables read as `false`; after [`SatResult::Sat`]
    /// every variable is assigned.
    pub fn value(&self, lit: Lit) -> bool {
        (self.values[lit.abs().code()] > 0) ^ lit.is_negated()
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// Adds a clause.
    ///
    /// Callable before or between `solve` calls: the solver first
    /// backtracks to the root level (a `Sat` answer leaves the model
    /// assigned, and simplifying the new clause against that model
    /// instead of the root would corrupt it — e.g. a blocking clause
    /// over model literals would collapse to the empty clause).
    /// Literals false at the root are removed, satisfied and
    /// tautological clauses are dropped, and an empty clause marks the
    /// instance unsatisfiable.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.backtrack(0);
        if self.root_unsat {
            return;
        }
        // Simplify straight into the arena's tail, behind a header slot;
        // a clause that is dropped or not stored is truncated away again.
        let cref = self.arena.len();
        self.arena.push(Lit::from_code(0));
        for &l in lits {
            debug_assert!(l.var().index() < self.num_vars(), "unknown variable");
            match self.values[l.code()] {
                -1 => continue,
                0 => {
                    let kept = &self.arena[cref + 1..];
                    if kept.contains(&!l) {
                        // Tautology.
                        self.arena.truncate(cref);
                        return;
                    }
                    if !kept.contains(&l) {
                        self.arena.push(l);
                    }
                }
                _ => {
                    // Satisfied at the root.
                    self.arena.truncate(cref);
                    return;
                }
            }
        }
        match self.arena.len() - cref - 1 {
            0 => {
                self.arena.truncate(cref);
                self.root_unsat = true;
            }
            1 => {
                let unit = self.arena[cref + 1];
                self.arena.truncate(cref);
                self.enqueue(unit, NO_REASON);
                if self.propagate().is_some() {
                    self.root_unsat = true;
                }
            }
            len => self.attach(cref, len),
        }
    }

    /// Writes the header of the `len`-literal clause already at `cref`
    /// and adds its two watches (on its first two literals).
    fn attach(&mut self, cref: usize, len: usize) {
        assert!(cref < BINARY as usize, "clause arena overflow");
        self.arena[cref] = Lit::from_code(len as u32);
        let (a, b) = (self.arena[cref + 1], self.arena[cref + 2]);
        let tagged = if len == 2 {
            cref as u32 | BINARY
        } else {
            cref as u32
        };
        self.watches[a.code()].push(Watch {
            cref: tagged,
            other: b,
        });
        self.watches[b.code()].push(Watch {
            cref: tagged,
            other: a,
        });
        self.num_clauses += 1;
    }

    fn enqueue(&mut self, lit: Lit, reason: u32) {
        let vi = lit.var().index();
        debug_assert_eq!(self.values[lit.code()], 0, "enqueue of assigned var");
        self.values[lit.code()] = 1;
        self.values[(!lit).code()] = -1;
        self.phase[vi] = !lit.is_negated();
        self.vardata[vi] = VarData {
            level: self.decision_level() as u32,
            reason,
        };
        self.trail.push(lit);
    }

    /// Propagates all pending assignments; returns the conflicting
    /// clause's reference on conflict.
    fn propagate(&mut self) -> Option<u32> {
        while self.prop_head < self.trail.len() {
            let p = self.trail[self.prop_head];
            self.prop_head += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            // Take the watch list; surviving entries are written back.
            let mut list = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            let mut j = 0;
            let mut conflict = None;
            'watches: while i < list.len() {
                let w = list[i];
                i += 1;
                let implied;
                if w.cref & BINARY != 0 {
                    // Binary: the other literal is in the watch itself.
                    implied = w.other;
                    list[j] = w;
                    j += 1;
                    if self.values[implied.code()] == 1 {
                        continue;
                    }
                } else {
                    let at = w.cref as usize;
                    let len = self.arena[at].code();
                    let lits = &mut self.arena[at + 1..at + 1 + len];
                    // Normalize: the other watched literal sits at index 0.
                    if lits[0] == false_lit {
                        lits.swap(0, 1);
                    }
                    implied = lits[0];
                    debug_assert_eq!(lits[1], false_lit);
                    if self.values[implied.code()] == 1 {
                        list[j] = w;
                        j += 1;
                        continue;
                    }
                    // Look for a replacement watch.
                    for k in 2..len {
                        if self.values[lits[k].code()] != -1 {
                            lits.swap(1, k);
                            self.watches[lits[1].code()].push(w);
                            continue 'watches;
                        }
                    }
                    // No replacement: the clause is unit or conflicting.
                    list[j] = w;
                    j += 1;
                }
                let cref = w.cref & !BINARY;
                if self.values[implied.code()] == -1 {
                    if w.cref & BINARY != 0 {
                        // Normalize the conflicting binary clause as a
                        // longer one is above: analysis visits it in order.
                        self.arena[cref as usize + 1] = implied;
                        self.arena[cref as usize + 2] = false_lit;
                    }
                    // Conflict: keep the remaining entries and stop.
                    list.copy_within(i.., j);
                    j += list.len() - i;
                    conflict = Some(cref);
                    break;
                }
                self.enqueue(implied, cref);
            }
            list.truncate(j);
            self.watches[false_lit.code()] = list;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// Raises `v`'s branching priority as a conflict involving it would,
    /// so the next search decides it early. A hint only: answers do not
    /// depend on it.
    pub(crate) fn bump_activity(&mut self, v: Var) {
        self.bump(v);
    }

    fn bump(&mut self, v: Var) {
        let a = &mut self.activity[v.index()];
        *a += self.var_inc;
        if *a > 1e100 {
            for act in &mut self.activity {
                *act *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.bump(v, &self.activity);
    }

    /// First-UIP conflict analysis. Leaves the learned clause in
    /// `self.learnt` (asserting literal first) and returns the level to
    /// backtrack to.
    fn analyze(&mut self, mut conflict: u32) -> usize {
        self.learnt.clear();
        self.learnt.push(Lit::from_code(0)); // the asserting literal's slot
        self.to_clear.clear();
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut idx = self.trail.len();
        let current = self.decision_level() as u32;
        loop {
            let at = conflict as usize;
            let len = self.arena[at].code();
            // A reason clause contains the literal `p` it implied: first
            // in a longer clause, and in either place in a binary one.
            for &q in &self.arena[at + 1..at + 1 + len] {
                if Some(q) == p {
                    continue;
                }
                let vi = q.var().index();
                let level = self.vardata[vi].level;
                if !self.seen[vi] && level > 0 {
                    self.seen[vi] = true;
                    self.to_clear.push(q.var());
                    if level >= current {
                        counter += 1;
                    } else {
                        self.learnt.push(q);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().index()] {
                    break;
                }
            }
            let pl = self.trail[idx];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            p = Some(pl);
            if counter == 0 {
                break;
            }
            conflict = self.vardata[pl.var().index()].reason;
            debug_assert_ne!(conflict, NO_REASON);
        }
        self.learnt[0] = !p.expect("analyze reached the first UIP");
        // Bump every variable involved in the conflict (the UIP included —
        // all of them were marked, so all of them are in `to_clear`).
        for k in 0..self.to_clear.len() {
            self.bump(self.to_clear[k]);
        }
        let learnt = &mut self.learnt;
        let backtrack = if learnt.len() == 1 {
            0
        } else {
            // Move the deepest remaining literal to the second watch slot.
            let mut max_i = 1;
            for i in 2..learnt.len() {
                let level = |l: Lit| self.vardata[l.var().index()].level;
                if level(learnt[i]) > level(learnt[max_i]) {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.vardata[learnt[1].var().index()].level as usize
        };
        for &v in &self.to_clear {
            self.seen[v.index()] = false;
        }
        backtrack
    }

    fn backtrack(&mut self, target: usize) {
        if self.decision_level() <= target {
            return;
        }
        let keep = self.trail_lim[target];
        for i in (keep..self.trail.len()).rev() {
            let v = self.trail[i].var();
            self.values[2 * v.index()] = 0;
            self.values[2 * v.index() + 1] = 0;
            self.heap.insert(v, &self.activity);
        }
        self.trail.truncate(keep);
        self.trail_lim.truncate(target);
        self.prop_head = keep;
    }

    /// Stores the clause [`Solver::analyze`] left in `self.learnt` and
    /// asserts its first literal.
    fn learn(&mut self) {
        let asserting = self.learnt[0];
        if self.learnt.len() == 1 {
            debug_assert_eq!(self.decision_level(), 0);
            self.enqueue(asserting, NO_REASON);
        } else {
            let cref = self.arena.len();
            self.arena.push(Lit::from_code(0));
            self.arena.extend_from_slice(&self.learnt);
            self.attach(cref, self.learnt.len());
            self.stats.learned += 1;
            self.enqueue(asserting, cref as u32);
        }
    }

    fn pick_branch(&mut self) -> Option<Var> {
        while let Some(v) = self.heap.pop(&self.activity) {
            if self.values[2 * v.index()] == 0 {
                return Some(v);
            }
        }
        None
    }

    /// Solves the current clause set.
    ///
    /// On [`SatResult::Sat`] the model is readable through
    /// [`Solver::value`] until the next `add_clause`/`solve` call; on
    /// [`SatResult::Unsat`] the instance stays unsatisfiable forever
    /// (clause addition is monotone).
    pub fn solve(&mut self) -> SatResult {
        self.solve_limited(None)
            .expect("unlimited solve always answers")
    }

    /// Like [`Solver::solve`] with a conflict budget: returns `None`
    /// when `max_conflicts` conflicts were spent without an answer (the
    /// search backtracks to the root and can be resumed by calling
    /// again — learned clauses are kept, so progress is not lost).
    pub fn solve_limited(&mut self, max_conflicts: Option<u64>) -> Option<SatResult> {
        self.solve_limited_assuming(&[], max_conflicts)
    }

    /// [`Solver::solve_limited`] under `assumptions`, in the MiniSat
    /// style: the assumptions are decided first, one per decision level,
    /// and an assumption found false answers [`SatResult::Unsat`] —
    /// meaning unsatisfiable *together with the assumptions*, not on its
    /// own. The solver stays usable afterwards: the assumptions leave no
    /// trace except the clauses learned under them, which are implied by
    /// the clause set alone and therefore kept. Restarts backtrack to the
    /// root and re-decide the assumptions.
    pub fn solve_limited_assuming(
        &mut self,
        assumptions: &[Lit],
        max_conflicts: Option<u64>,
    ) -> Option<SatResult> {
        self.backtrack(0);
        if self.root_unsat {
            return Some(SatResult::Unsat);
        }
        if self.propagate().is_some() {
            self.root_unsat = true;
            return Some(SatResult::Unsat);
        }
        let mut budget = max_conflicts;
        let mut restart_idx: u64 = 1;
        let mut conflicts_left = RESTART_BASE * luby(restart_idx);
        loop {
            if let Some(conflict) = self.propagate() {
                if self.decision_level() == 0 {
                    self.stats.conflicts += 1;
                    self.root_unsat = true;
                    return Some(SatResult::Unsat);
                }
                // The budget is checked before counting/analyzing, so an
                // abandoned conflict is not double-counted on resume and
                // budgeted runs report the same stats as unbudgeted ones.
                if let Some(b) = &mut budget {
                    if *b == 0 {
                        self.backtrack(0);
                        return None;
                    }
                    *b -= 1;
                }
                self.stats.conflicts += 1;
                let backtrack = self.analyze(conflict);
                self.backtrack(backtrack);
                self.learn();
                self.var_inc /= ACTIVITY_DECAY;
                conflicts_left = conflicts_left.saturating_sub(1);
                if conflicts_left == 0 {
                    self.stats.restarts += 1;
                    restart_idx += 1;
                    conflicts_left = RESTART_BASE * luby(restart_idx);
                    self.backtrack(0);
                    // Restart boundaries double as the solver's
                    // cancellation checkpoints: the trail is already at
                    // the root, so abandoning here loses nothing.
                    if self.cancel.cancelled() {
                        return None;
                    }
                }
            } else if let Some(&p) = assumptions.get(self.decision_level()) {
                match self.values[p.code()] {
                    // Already implied: an empty level keeps levels and
                    // assumptions aligned.
                    1 => self.trail_lim.push(self.trail.len()),
                    -1 => {
                        self.backtrack(0);
                        return Some(SatResult::Unsat);
                    }
                    _ => {
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(p, NO_REASON);
                    }
                }
            } else if self.trail.len() == self.num_vars() {
                return Some(SatResult::Sat);
            } else {
                let v = self.pick_branch().expect("unassigned variable exists");
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                self.enqueue(Lit::new(v, !self.phase[v.index()]), NO_REASON);
            }
        }
    }

    /// Backtracks to the root level, keeping learned clauses.
    /// ([`Solver::add_clause`] does this itself; call this only to drop
    /// a [`SatResult::Sat`] model explicitly.)
    pub fn reset_to_root(&mut self) {
        self.backtrack(0);
    }
}

/// Where an assigned variable got its value; stale once it is unassigned
/// (only assigned variables are ever read).
#[derive(Debug, Clone, Copy)]
struct VarData {
    /// Decision level of the assignment.
    level: u32,
    /// Clause reference that implied it ([`NO_REASON`] for decisions and
    /// root-level units).
    reason: u32,
}

/// The `i`-th element (1-based) of the Luby restart sequence
/// 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …
fn luby(mut i: u64) -> u64 {
    loop {
        let mut k = 1u32;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
        if (1u64 << k) - 1 == i {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
    }
}

/// Indexed binary max-heap over variable activities (the MiniSat order
/// heap): supports insert, pop-max, and increase-key in `O(log n)`.
#[derive(Debug, Default)]
struct VarHeap {
    heap: Vec<Var>,
    /// Position of each variable in `heap`, or `usize::MAX` if absent.
    pos: Vec<usize>,
}

impl VarHeap {
    fn contains(&self, v: Var) -> bool {
        self.pos.get(v.index()).is_some_and(|&p| p != usize::MAX)
    }

    fn insert(&mut self, v: Var, activity: &[f64]) {
        if self.pos.len() <= v.index() {
            self.pos.resize(v.index() + 1, usize::MAX);
        }
        if self.contains(v) {
            return;
        }
        self.pos[v.index()] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    fn bump(&mut self, v: Var, activity: &[f64]) {
        if self.contains(v) {
            self.sift_up(self.pos[v.index()], activity);
        }
    }

    fn pop(&mut self, activity: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        self.pos[top.index()] = usize::MAX;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last.index()] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if activity[self.heap[i].index()] <= activity[self.heap[parent].index()] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len()
                && activity[self.heap[l].index()] > activity[self.heap[best].index()]
            {
                best = l;
            }
            if r < self.heap.len()
                && activity[self.heap[r].index()] > activity[self.heap[best].index()]
            {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].index()] = a;
        self.pos[self.heap[b].index()] = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| Lit::positive(s.new_var())).collect()
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[v[0]]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.value(v[0]));

        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[v[0]]);
        s.add_clause(&[!v[0]]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        s.add_clause(&[]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn no_clauses_is_sat() {
        let mut s = Solver::new();
        let _ = lits(&mut s, 3);
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn tautologies_and_duplicates_are_harmless() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0], !v[0]]);
        s.add_clause(&[v[1], v[1], v[1]]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.value(v[1]));
    }

    #[test]
    fn chain_of_implications_propagates() {
        // x0 and (x_{i} -> x_{i+1}) for a long chain; force x0 true.
        let mut s = Solver::new();
        let v = lits(&mut s, 64);
        s.add_clause(&[v[0]]);
        for w in v.windows(2) {
            s.add_clause(&[!w[0], w[1]]);
        }
        assert_eq!(s.solve(), SatResult::Sat);
        for &l in &v {
            assert!(s.value(l));
        }
        // Adding the negation of the chain's tail makes it unsat.
        s.reset_to_root();
        s.add_clause(&[!v[63]]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p[i][j]: pigeon i sits in hole j.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..3)
            .map(|_| (0..2).map(|_| Lit::positive(s.new_var())).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for a in 0..3 {
            for b in (a + 1)..3 {
                for (&la, &lb) in p[a].iter().zip(&p[b]) {
                    s.add_clause(&[!la, !lb]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn xor_chain_equivalence_is_unsat() {
        // Tseitin-by-hand: z1 = a^b, z2 = b^a, assert z1 != z2.
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        let (a, b, z1, z2) = (v[0], v[1], v[2], v[3]);
        for (z, x, y) in [(z1, a, b), (z2, b, a)] {
            s.add_clause(&[!z, x, y]);
            s.add_clause(&[!z, !x, !y]);
            s.add_clause(&[z, !x, y]);
            s.add_clause(&[z, x, !y]);
        }
        s.add_clause(&[z1, z2]);
        s.add_clause(&[!z1, !z2]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn luby_sequence_prefix() {
        let got: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn blocking_clause_after_sat_enumerates_models() {
        // Classic model enumeration: after a Sat answer, adding the
        // blocking clause of the model must not corrupt the instance
        // (add_clause backtracks to root before simplifying).
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        let mut models = 0;
        while s.solve() == SatResult::Sat {
            models += 1;
            assert!(models <= 3, "x|y has exactly 3 models");
            let blocking: Vec<Lit> = v.iter().map(|&l| if s.value(l) { !l } else { l }).collect();
            s.add_clause(&blocking);
        }
        assert_eq!(models, 3);
    }

    #[test]
    fn solve_limited_gives_up_and_resumes() {
        // php(5,4) needs well over one conflict; a 1-conflict budget
        // must come back undecided, and resuming must finish the proof.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..5)
            .map(|_| (0..4).map(|_| Lit::positive(s.new_var())).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for a in 0..5 {
            for b in (a + 1)..5 {
                for (&la, &lb) in p[a].iter().zip(&p[b]) {
                    s.add_clause(&[!la, !lb]);
                }
            }
        }
        assert_eq!(s.solve_limited(Some(1)), None, "budget of 1 is too small");
        assert_eq!(s.solve_limited(None), Some(SatResult::Unsat));
    }

    #[test]
    fn assumptions_answer_without_constraining_later_calls() {
        // x0 -> x1 -> x2; assuming x0 and !x2 is unsat, assuming x0 alone
        // is sat with the chain true, and the solver stays usable.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[!v[0], v[1]]);
        s.add_clause(&[!v[1], v[2]]);
        assert_eq!(
            s.solve_limited_assuming(&[v[0], !v[2]], None),
            Some(SatResult::Unsat)
        );
        assert_eq!(
            s.solve_limited_assuming(&[v[0]], None),
            Some(SatResult::Sat)
        );
        assert!(v.iter().all(|&l| s.value(l)));
        assert_eq!(
            s.solve_limited_assuming(&[!v[2]], None),
            Some(SatResult::Sat)
        );
        assert!(v.iter().all(|&l| !s.value(l)));
        // A contradictory assumption set is unsat; the instance is not.
        assert_eq!(
            s.solve_limited_assuming(&[v[1], !v[1]], None),
            Some(SatResult::Unsat)
        );
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn assumption_solves_keep_learned_clauses_and_budgets() {
        // php(5,4) guarded by an activation literal: unsat under the
        // guard (resumable after a budget stop), sat without it.
        let mut s = Solver::new();
        let act = Lit::positive(s.new_var());
        let p: Vec<Vec<Lit>> = (0..5)
            .map(|_| (0..4).map(|_| Lit::positive(s.new_var())).collect())
            .collect();
        for row in &p {
            let mut c = row.clone();
            c.push(!act);
            s.add_clause(&c);
        }
        for a in 0..5 {
            for b in (a + 1)..5 {
                for (&la, &lb) in p[a].iter().zip(&p[b]) {
                    s.add_clause(&[!la, !lb]);
                }
            }
        }
        assert_eq!(s.solve_limited_assuming(&[act], Some(1)), None);
        let spent = s.stats().conflicts;
        assert!(spent <= 1, "budget of 1 overspent: {spent}");
        assert_eq!(
            s.solve_limited_assuming(&[act], None),
            Some(SatResult::Unsat)
        );
        assert!(s.stats().learned > 0);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(!s.value(act), "the guard must be off in every model");
    }

    #[test]
    fn stats_are_recorded() {
        let mut s = Solver::new();
        let v = lits(&mut s, 8);
        for w in v.chunks(2) {
            s.add_clause(&[w[0], w[1]]);
        }
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.stats().decisions > 0);
        assert!(s.stats().propagations > 0);
    }
}
