//! The canonical 4-input MIG database: one size-optimal (or near-optimal)
//! majority-inverter implementation per NPN class.
//!
//! The 222 entries ship as data: `database_table.rs` holds one row per
//! class (its majority nodes as child literals plus the output literal),
//! and [`database`] replays those rows through [`Mig::maj`] once per
//! process, behind a [`OnceLock`]. Loading takes well under a
//! millisecond; nothing is synthesized at run time.
//!
//! The table is generated by a three-stage builder that is compiled only
//! into the test binary: bounded exact synthesis of every MIG with at
//! most three gates (proving optimality for the classes it covers),
//! XOR/Shannon decomposition shrunk by [`rms_core::opt::optimize_area`]
//! for the rest, and self-refinement with the cut rewriter itself until
//! a fixpoint. A unit test keeps the committed table equal to a fresh
//! build; regenerate it with
//! `cargo test -p rms-cut --release -- --ignored regenerate_database_table`.
//!
//! Every entry is stored as a 4-input, single-output [`Mig`] and is
//! instantiated into a target graph by [`DbEntry::instantiate`]; the
//! tests re-simulate all 222 entries against their class representatives.

use crate::database_table::ROWS;
use crate::npn;
use rms_core::hash::FxHashMap;
use rms_core::{MajBuilder, Mig, MigNode, MigSignal};
use std::sync::OnceLock;

#[cfg(test)]
mod builder;

/// One row of `database_table.rs`: class truth table, gate count, the
/// majority nodes' child literals in index order, and the output
/// literal (a literal is `node << 1 | complement`).
pub(crate) type Row = (u16, u8, &'static [[u8; 3]], u8);

/// Upper bound on an entry's node count (const0, four inputs and the
/// gates): the size of [`DbEntry::instantiate`]'s signal buffer.
pub(crate) const MAX_ENTRY_NODES: usize = 16;

/// One database entry: the implementation of a canonical class.
#[derive(Debug, Clone)]
pub struct DbEntry {
    /// A 4-input, single-output MIG computing the class representative.
    mig: Mig,
    /// Majority-gate count of [`DbEntry::mig`].
    gates: u32,
}

impl DbEntry {
    fn new(mig: Mig) -> Self {
        let gates = mig.num_gates() as u32;
        DbEntry { mig, gates }
    }

    /// Number of majority gates of this implementation.
    pub fn gates(&self) -> u32 {
        self.gates
    }

    /// The stored implementation graph.
    pub fn mig(&self) -> &Mig {
        &self.mig
    }

    /// Copies the implementation into `out` (any [`MajBuilder`]: a plain
    /// [`Mig`] or the in-place engine), substituting `inputs[i]` for
    /// database input `i`; returns the output signal.
    ///
    /// Structural hashing and the eager majority axiom of `out` apply, so
    /// instantiation may add fewer nodes than [`DbEntry::gates`] (or none).
    pub fn instantiate<B: MajBuilder>(&self, out: &mut B, inputs: [MigSignal; 4]) -> MigSignal {
        let mut map = [MigSignal::FALSE; MAX_ENTRY_NODES];
        let m = |map: &[MigSignal], s: MigSignal| map[s.node()].complement_if(s.is_complemented());
        for idx in 0..self.mig.len() {
            map[idx] = match self.mig.node(idx) {
                MigNode::Const0 => MigSignal::FALSE,
                MigNode::Input(k) => inputs[k as usize],
                MigNode::Maj([a, b, c]) => out.maj(m(&map, a), m(&map, b), m(&map, c)),
            };
        }
        m(&map, self.mig.outputs()[0].1)
    }
}

/// The database: one entry per canonical NPN class.
#[derive(Debug)]
pub struct Database {
    entries: FxHashMap<u16, DbEntry>,
}

impl Database {
    /// The implementation of a canonical class representative.
    ///
    /// # Panics
    ///
    /// Panics if `class` is not one of the 222 canonical representatives
    /// (i.e. not the first component of [`npn::canonicalize`]).
    pub fn entry(&self, class: u16) -> &DbEntry {
        self.entries
            .get(&class)
            .unwrap_or_else(|| panic!("{class:#06x} is not a canonical NPN class"))
    }

    /// Number of entries (always [`npn::NUM_CLASSES`]).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the database is empty (never, after construction).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The process-wide database, loaded from the committed table on first
/// use.
pub fn database() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(load)
}

/// Eagerly builds every piece of shared per-process rewriting state: the
/// NPN transform/canonicalization tables and the 222-class MIG database.
///
/// All of this state already lives behind [`OnceLock`]s and is therefore
/// built exactly once per process no matter how many pipelines run; what
/// `prewarm` adds is *when*. Long-lived callers — the `rms serve` daemon
/// at startup, the bench runner before its first timed measurement —
/// call it once so the one-time cost (a few milliseconds, nearly all of
/// it the NPN tables) lands in initialization instead of inside the
/// first request or timing loop.
pub fn prewarm() -> &'static Database {
    npn::classes();
    database()
}

/// Replays every row of the committed table through [`Mig::maj`]. The
/// rows are already normalized and strash-free, so each `maj` call
/// appends exactly the node the row describes.
fn load() -> Database {
    let lit = |l: u8| MigSignal::new((l >> 1) as usize, l & 1 == 1);
    let mut entries = FxHashMap::default();
    entries.reserve(ROWS.len());
    for &(class, gates, nodes, out) in &ROWS {
        assert!(5 + nodes.len() <= MAX_ENTRY_NODES, "class {class:#06x}");
        let mut mig = Mig::with_inputs(format!("npn_{class:04x}"), 4);
        for &[a, b, c] in nodes {
            mig.maj(lit(a), lit(b), lit(c));
        }
        mig.add_output("f", lit(out));
        debug_assert_eq!(mig.num_gates(), gates as usize, "class {class:#06x}");
        entries.insert(class, DbEntry::new(mig));
    }
    Database { entries }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Truth table (low 16 bits) of a database entry's MIG.
    fn entry_tt(e: &DbEntry) -> u16 {
        (e.mig().truth_tables()[0].words()[0] & 0xFFFF) as u16
    }

    #[test]
    fn every_class_has_a_correct_entry() {
        let db = database();
        assert_eq!(db.len(), npn::NUM_CLASSES);
        assert!(!db.is_empty());
        for &class in npn::classes() {
            let e = db.entry(class);
            assert_eq!(entry_tt(e), class, "class {class:#06x}");
            assert_eq!(e.mig().num_inputs(), 4);
        }
    }

    #[test]
    fn every_entry_is_compact_and_fits_the_instantiate_buffer() {
        for &class in npn::classes() {
            let mig = database().entry(class).mig();
            assert!(mig.len() <= MAX_ENTRY_NODES, "class {class:#06x}");
            assert_eq!(mig.compact().len(), mig.len(), "class {class:#06x}");
        }
    }

    #[test]
    fn known_optima() {
        let db = database();
        let and2 = npn::VAR_TT[0] & npn::VAR_TT[1];
        let xor2 = npn::VAR_TT[0] ^ npn::VAR_TT[1];
        let maj3 = (npn::VAR_TT[0] & npn::VAR_TT[1])
            | (npn::VAR_TT[0] & npn::VAR_TT[2])
            | (npn::VAR_TT[1] & npn::VAR_TT[2]);
        let mux = (npn::VAR_TT[0] & npn::VAR_TT[1]) | (!npn::VAR_TT[0] & npn::VAR_TT[2]);
        let and4 = npn::VAR_TT[0] & npn::VAR_TT[1] & npn::VAR_TT[2] & npn::VAR_TT[3];
        for (tt, want, what) in [
            (and2, 1, "and2"),
            (maj3, 1, "maj3"),
            (xor2, 3, "xor2"),
            (mux, 3, "mux"),
            (and4, 3, "and4"),
            (0u16, 0, "const"),
            (npn::VAR_TT[3], 0, "projection"),
        ] {
            let (class, _) = npn::canonicalize(tt);
            let got = db.entry(class).gates();
            assert_eq!(got, want, "{what}: {got} gates, expected {want}");
        }
    }

    #[test]
    fn database_is_reasonably_small() {
        // No 4-input function needs more than ~11 majority gates; a database
        // average above 7 would indicate a broken fallback path.
        let db = database();
        let total: u32 = npn::classes().iter().map(|&c| db.entry(c).gates()).sum();
        let avg = total as f64 / npn::NUM_CLASSES as f64;
        let mut hist = [0u32; 32];
        for &c in npn::classes() {
            hist[db.entry(c).gates() as usize] += 1;
        }
        println!("size histogram: {:?}", &hist[..16]);
        assert!(avg < 7.0, "average entry size {avg:.2} gates");
    }

    #[test]
    fn instantiate_reproduces_the_function() {
        let db = database();
        for &class in npn::classes().iter().step_by(7) {
            let mut out = Mig::with_inputs("t", 4);
            let inputs = [out.input(0), out.input(1), out.input(2), out.input(3)];
            let f = db.entry(class).instantiate(&mut out, inputs);
            out.add_output("f", f);
            assert_eq!(
                (out.truth_tables()[0].words()[0] & 0xFFFF) as u16,
                class,
                "class {class:#06x}"
            );
        }
    }

    #[test]
    fn instantiate_with_permuted_complemented_inputs() {
        let db = database();
        // f(x) = x0 & x1: instantiate its class with swapped, complemented
        // inputs and check by simulation.
        let tt = npn::VAR_TT[0] & npn::VAR_TT[1];
        let (class, t) = npn::canonicalize(tt);
        let inv = npn::invert(t);
        let tr = npn::transform(inv);
        let mut out = Mig::with_inputs("t", 4);
        let leaf = [out.input(0), out.input(1), out.input(2), out.input(3)];
        let mut inputs = [MigSignal::FALSE; 4];
        for i in 0..4 {
            inputs[i] = leaf[tr.perm[i] as usize].complement_if((tr.flips >> i) & 1 == 1);
        }
        let f = db
            .entry(class)
            .instantiate(&mut out, inputs)
            .complement_if(tr.negate_output);
        out.add_output("f", f);
        assert_eq!((out.truth_tables()[0].words()[0] & 0xFFFF) as u16, tt);
    }
}
