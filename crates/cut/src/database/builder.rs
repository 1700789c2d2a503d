//! The database builder, compiled only into the test binary.
//!
//! [`build`] synthesizes the 222 entries from scratch in three stages:
//!
//! 1. **Bounded exact synthesis** — every MIG with at most three majority
//!    gates over `{0, x0..x3}` is enumerated exhaustively (children may be
//!    complemented; structural folds are implied by the tree shape). Each
//!    reachable truth table is recorded with its minimal gate count. This
//!    stage alone proves optimality for every class it covers, including
//!    the workhorses of rewriting: single-gate AND/OR/MAJ shapes, the
//!    3-gate XOR and MUX, and 3-gate gate chains such as 4-input AND.
//! 2. **Heuristic fallback** — classes the exact stage misses are
//!    synthesized by recursive XOR/Shannon decomposition (bottoming out
//!    in the exact table, trying every first split variable) into a
//!    structurally hashed [`Mig`], then shrunk with the paper's own
//!    [`optimize_area`] pass.
//! 3. **Self-refinement** — the cut rewriter itself
//!    ([`crate::rewrite`]) runs over every heuristic entry against the
//!    current database until a fixpoint, so large entries inherit the
//!    optimal sub-structures of smaller classes.
//!
//! [`render`] prints the result as the source of `database_table.rs`,
//! which the library loads instead of building. The tests below keep the
//! committed table equal to a fresh build; `regenerate_database_table`
//! rewrites it.

use super::{Database, DbEntry};
use crate::npn;
use rms_core::hash::FxHashMap;
use rms_core::opt::{optimize_area, OptOptions};
use rms_core::{Mig, MigSignal};
use std::collections::HashMap;
use std::fmt::Write as _;

/// A signal inside an exact-synthesis structure: node index (0 = const0,
/// 1..=4 = inputs, 5.. = gates in order) plus a complement flag.
type ExSig = (u8, bool);

/// An exact structure: up to three gates, each three child signals, and
/// the output signal (a base node for zero-gate entries, otherwise the
/// last gate).
#[derive(Debug, Clone)]
struct Exact {
    gates: Vec<[ExSig; 3]>,
    out: ExSig,
}

/// Truth table of an exact-structure node (0 = const0, 1..=4 inputs,
/// then `gate_tts`).
fn ex_tt(node: u8, gate_tts: &[u16]) -> u16 {
    match node {
        0 => 0,
        1..=4 => npn::VAR_TT[(node - 1) as usize],
        g => gate_tts[(g - 5) as usize],
    }
}

fn maj3(a: u16, b: u16, c: u16) -> u16 {
    (a & b) | (a & c) | (b & c)
}

/// Records `tt` (and its complement) if no implementation with at most
/// as many gates is known. `out_node` is the structure's output node.
fn record(exact: &mut HashMap<u16, Exact>, tt: u16, gates: &[[ExSig; 3]], out_node: u8) {
    for (t, compl) in [(tt, false), (!tt, true)] {
        let better = match exact.get(&t) {
            Some(e) => e.gates.len() > gates.len(),
            None => true,
        };
        if better {
            exact.insert(
                t,
                Exact {
                    gates: gates.to_vec(),
                    out: (out_node, compl),
                },
            );
        }
    }
}

/// Exhaustive enumeration of all MIG trees/DAGs with at most 3 gates.
fn enumerate_exact() -> HashMap<u16, Exact> {
    let mut exact: HashMap<u16, Exact> = HashMap::new();
    // Base functions reachable with zero gates.
    for node in 0u8..=4 {
        record(&mut exact, ex_tt(node, &[]), &[], node);
    }

    // All single gates over distinct base nodes {0, x0..x3}.
    let mut one: Vec<([ExSig; 3], u16)> = Vec::new();
    let mut seen_one: HashMap<u16, usize> = HashMap::new();
    for i in 0u8..=4 {
        for j in (i + 1)..=4 {
            for k in (j + 1)..=4 {
                for pol in 0u8..8 {
                    let g = [(i, pol & 1 != 0), (j, pol & 2 != 0), (k, pol & 4 != 0)];
                    let tt = maj3(sig_tt(g[0], &[]), sig_tt(g[1], &[]), sig_tt(g[2], &[]));
                    record(&mut exact, tt, &[g], 5);
                    // Keep one representative structure per function for
                    // the deeper enumeration stages.
                    if let std::collections::hash_map::Entry::Vacant(e) = seen_one.entry(tt) {
                        e.insert(one.len());
                        one.push(([g[0], g[1], g[2]], tt));
                    }
                }
            }
        }
    }

    // Two gates: the second gate must reference the first (node 5).
    let mut two: Vec<([[ExSig; 3]; 2], [u16; 2])> = Vec::new();
    let mut seen_two: HashMap<(u16, u16), ()> = HashMap::new();
    for &(g1, tt1) in &one {
        for i in 0u8..=4 {
            for j in (i + 1)..=4 {
                for pol in 0u8..8 {
                    let g2 = [(5u8, pol & 1 != 0), (i, pol & 2 != 0), (j, pol & 4 != 0)];
                    let tts = [tt1];
                    let tt2 = maj3(
                        sig_tt(g2[0], &tts),
                        sig_tt(g2[1], &tts),
                        sig_tt(g2[2], &tts),
                    );
                    record(&mut exact, tt2, &[g1, g2], 6);
                    if let std::collections::hash_map::Entry::Vacant(e) = seen_two.entry((tt1, tt2))
                    {
                        e.insert(());
                        two.push(([g1, g2], [tt1, tt2]));
                    }
                }
            }
        }
    }

    // Three gates, shape A: a chain/DAG where gate 3 references gate 2
    // (and possibly gate 1).
    for &(gates, tts) in &two {
        for i in 0u8..=5 {
            for j in (i + 1)..=5 {
                for pol in 0u8..8 {
                    let g3 = [(6u8, pol & 1 != 0), (i, pol & 2 != 0), (j, pol & 4 != 0)];
                    let tt3 = maj3(
                        sig_tt(g3[0], &tts),
                        sig_tt(g3[1], &tts),
                        sig_tt(g3[2], &tts),
                    );
                    record(&mut exact, tt3, &[gates[0], gates[1], g3], 7);
                }
            }
        }
    }

    // Three gates, shape B: two independent gates combined by a third.
    for (ai, &(g1, tt1)) in one.iter().enumerate() {
        for &(g2, tt2) in &one[ai..] {
            for base in 0u8..=4 {
                for pol in 0u8..8 {
                    let g3 = [(5u8, pol & 1 != 0), (6, pol & 2 != 0), (base, pol & 4 != 0)];
                    let tts = [tt1, tt2];
                    let tt3 = maj3(
                        sig_tt(g3[0], &tts),
                        sig_tt(g3[1], &tts),
                        sig_tt(g3[2], &tts),
                    );
                    record(&mut exact, tt3, &[g1, g2, g3], 7);
                }
            }
        }
    }
    exact
}

fn sig_tt(s: ExSig, gate_tts: &[u16]) -> u16 {
    let t = ex_tt(s.0, gate_tts);
    if s.1 {
        !t
    } else {
        t
    }
}

/// Converts an exact structure into a 4-input, single-output [`Mig`].
fn exact_to_mig(class: u16, e: &Exact) -> Mig {
    let mut mig = Mig::with_inputs(format!("npn_{class:04x}"), 4);
    let mut nodes: Vec<MigSignal> = vec![mig.constant(false)];
    for i in 0..4 {
        nodes.push(mig.input(i));
    }
    let conv = |nodes: &[MigSignal], s: ExSig| nodes[s.0 as usize].complement_if(s.1);
    for g in &e.gates {
        let (a, b, c) = (conv(&nodes, g[0]), conv(&nodes, g[1]), conv(&nodes, g[2]));
        let sig = mig.maj(a, b, c);
        nodes.push(sig);
    }
    let out = nodes[e.out.0 as usize].complement_if(e.out.1);
    mig.add_output("f", out);
    mig
}

/// 16-bit positive cofactor with respect to variable `v`.
fn cofactor1(tt: u16, v: usize) -> u16 {
    let hi = tt & npn::VAR_TT[v];
    hi | (hi >> (1 << v))
}

/// 16-bit negative cofactor with respect to variable `v`.
fn cofactor0(tt: u16, v: usize) -> u16 {
    let lo = tt & !npn::VAR_TT[v];
    lo | (lo << (1 << v))
}

/// Number of variables `tt` depends on.
fn support_size(tt: u16) -> u32 {
    (0..4)
        .filter(|&v| cofactor0(tt, v) != cofactor1(tt, v))
        .count() as u32
}

/// Copies an exact structure into an existing graph, returning its
/// output signal.
fn exact_to_sig(mig: &mut Mig, e: &Exact) -> MigSignal {
    let mut nodes: Vec<MigSignal> = vec![mig.constant(false)];
    for i in 0..4 {
        nodes.push(mig.input(i));
    }
    for g in &e.gates {
        let conv = |nodes: &[MigSignal], s: ExSig| nodes[s.0 as usize].complement_if(s.1);
        let (a, b, c) = (conv(&nodes, g[0]), conv(&nodes, g[1]), conv(&nodes, g[2]));
        let sig = mig.maj(a, b, c);
        nodes.push(sig);
    }
    nodes[e.out.0 as usize].complement_if(e.out.1)
}

/// Recursive Shannon decomposition into a shared, structurally hashed
/// MIG, bottoming out in the exact table whenever a (co)function has a
/// known ≤3-gate implementation.
fn shannon(
    mig: &mut Mig,
    tt: u16,
    exact: &HashMap<u16, Exact>,
    memo: &mut HashMap<u16, MigSignal>,
) -> MigSignal {
    if let Some(&s) = memo.get(&tt) {
        return s;
    }
    if tt == 0 {
        return MigSignal::FALSE;
    }
    if tt == u16::MAX {
        return MigSignal::TRUE;
    }
    for v in 0..4 {
        if tt == npn::VAR_TT[v] {
            return mig.input(v);
        }
        if tt == !npn::VAR_TT[v] {
            return !mig.input(v);
        }
    }
    if let Some(e) = exact.get(&tt) {
        let f = exact_to_sig(mig, e);
        memo.insert(tt, f);
        memo.insert(!tt, !f);
        return f;
    }
    // XOR decomposition: complementary cofactors mean f = x_v ⊕ f|_{v=0},
    // which is far cheaper than the mux ladder (parity-like classes).
    for v in 0..4 {
        let c0 = cofactor0(tt, v);
        if cofactor1(tt, v) == !c0 {
            return split(mig, tt, v, exact, memo);
        }
    }
    // Otherwise split on the support variable with the simplest cofactors.
    let v = (0..4)
        .filter(|&v| cofactor0(tt, v) != cofactor1(tt, v))
        .min_by_key(|&v| support_size(cofactor0(tt, v)) + support_size(cofactor1(tt, v)))
        .expect("non-constant function has support");
    split(mig, tt, v, exact, memo)
}

/// Expands `tt` around variable `v` (XOR decomposition when the
/// cofactors are complementary, Shannon mux otherwise) and records the
/// result in `memo`.
fn split(
    mig: &mut Mig,
    tt: u16,
    v: usize,
    exact: &HashMap<u16, Exact>,
    memo: &mut HashMap<u16, MigSignal>,
) -> MigSignal {
    let c0 = cofactor0(tt, v);
    let c1 = cofactor1(tt, v);
    let s = mig.input(v);
    let f = if c1 == !c0 {
        let e = shannon(mig, c0, exact, memo);
        mig.xor(s, e)
    } else {
        let t = shannon(mig, c1, exact, memo);
        let e = shannon(mig, c0, exact, memo);
        mig.mux(s, t, e)
    };
    memo.insert(tt, f);
    memo.insert(!tt, !f);
    f
}

/// One heuristic synthesis attempt: decompose `class` with a forced (or
/// heuristic, `None`) first split variable, then shrink with Alg. 1.
fn synth_candidate(
    class: u16,
    first: Option<usize>,
    exact: &HashMap<u16, Exact>,
    opts: &OptOptions,
) -> Mig {
    let mut mig = Mig::with_inputs(format!("npn_{class:04x}"), 4);
    let mut memo = HashMap::new();
    let f = match first {
        None => shannon(&mut mig, class, exact, &mut memo),
        Some(v) => split(&mut mig, class, v, exact, &mut memo),
    };
    mig.add_output("f", f);
    optimize_area(&mig, opts)
}

/// Builds the full database.
fn build() -> Database {
    let exact = enumerate_exact();
    let opts = OptOptions::with_effort(12);
    let mut entries = FxHashMap::default();
    entries.reserve(npn::NUM_CLASSES);
    for &class in npn::classes() {
        let mig = match exact.get(&class) {
            Some(e) => exact_to_mig(class, e),
            None => {
                // Try every first-split variable plus the pure heuristic
                // recursion; keep the smallest result.
                let mut best = synth_candidate(class, None, &exact, &opts);
                for v in 0..4 {
                    if cofactor0(class, v) == cofactor1(class, v) {
                        continue;
                    }
                    let cand = synth_candidate(class, Some(v), &exact, &opts);
                    if cand.num_gates() < best.num_gates() {
                        best = cand;
                    }
                }
                best
            }
        };
        entries.insert(class, DbEntry::new(mig));
    }
    // Self-refinement: run the cut rewriter over the heuristic entries
    // against the current database, so large entries can borrow the
    // optimal sub-structures of smaller classes. Repeats until fixpoint.
    let mut db = Database { entries };
    loop {
        let mut improved = false;
        let mut refined = db.entries.clone();
        for &class in npn::classes() {
            let e = db.entry(class);
            if e.gates() <= 3 {
                continue; // proven optimal by the exact stage
            }
            let (mut m, _) = crate::rewrite::rewrite_round_with(&db, e.mig(), false);
            m = optimize_area(&m, &opts);
            if (m.num_gates() as u32) < e.gates() {
                refined.insert(class, DbEntry::new(m));
                improved = true;
            }
        }
        db.entries = refined;
        if !improved {
            break;
        }
    }
    db
}

/// The command that rewrites `database_table.rs` from a fresh [`build`].
const REGENERATE: &str = "cargo test -p rms-cut --release -- --ignored regenerate_database_table";

/// Renders a database as the source of `database_table.rs`: one row per
/// class, in ascending class order.
fn render(db: &Database) -> String {
    let lit = |s: MigSignal| s.node() << 1 | s.is_complemented() as usize;
    let mut src = format!(
        "\
//! The NPN-222 MIG database as data: generated, do not edit.
//!
//! Regenerate with `{REGENERATE}`.
//!
//! One row per canonical class, in ascending class order: the class
//! truth table, its majority-gate count, its majority nodes in index
//! order (three child literals each) and its output literal. A literal
//! is `node << 1 | complement`; node 0 is const0, nodes 1..=4 are the
//! inputs and nodes 5.. are the gates.

use crate::database::Row;
use crate::npn::NUM_CLASSES;

/// The database rows, replayed by [`crate::database::database`].
pub(crate) static ROWS: [Row; NUM_CLASSES] = [
"
    );
    for &class in npn::classes() {
        let e = db.entry(class);
        let mig = e.mig();
        let nodes: Vec<String> = (5..mig.len())
            .map(|idx| {
                let k = mig.maj_children(idx).expect("gates follow the inputs");
                format!("[{}, {}, {}]", lit(k[0]), lit(k[1]), lit(k[2]))
            })
            .collect();
        let out = lit(mig.outputs()[0].1);
        writeln!(
            src,
            "    ({class:#06x}, {}, &[{}], {out}),",
            e.gates(),
            nodes.join(", ")
        )
        .expect("writing to a String");
    }
    src.push_str("];\n");
    src
}

mod tests {
    use super::*;
    use crate::database::database;
    use crate::rewrite::{rewrite_round, rewrite_round_with};
    use rms_core::MigNode;
    use rms_logic::bench_suite;
    use std::sync::OnceLock;

    /// A fresh build, shared by the tests of this binary.
    fn built() -> &'static Database {
        static BUILT: OnceLock<Database> = OnceLock::new();
        BUILT.get_or_init(build)
    }

    /// Asserts that two graphs are equal node for node, outputs included.
    fn assert_same_graph(a: &Mig, b: &Mig, what: &str) {
        let nodes = |m: &Mig| (0..m.len()).map(|i| m.node(i)).collect::<Vec<MigNode>>();
        assert_eq!(a.name(), b.name(), "{what}: name");
        assert_eq!(a.num_inputs(), b.num_inputs(), "{what}: inputs");
        assert_eq!(nodes(a), nodes(b), "{what}: nodes");
        assert_eq!(a.outputs(), b.outputs(), "{what}: outputs");
    }

    #[test]
    fn committed_table_matches_a_fresh_build() {
        let fresh = render(built());
        let committed = include_str!("../database_table.rs");
        if fresh != committed {
            let same = fresh.lines().zip(committed.lines());
            let line = same.take_while(|(a, b)| a == b).count() + 1;
            panic!(
                "src/database_table.rs is stale (first difference on line {line}); \
                 regenerate it with `{REGENERATE}`"
            );
        }
    }

    #[test]
    #[ignore = "rewrites src/database_table.rs"]
    fn regenerate_database_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/src/database_table.rs");
        std::fs::write(path, render(built())).expect("write database_table.rs");
    }

    #[test]
    fn loaded_entries_equal_the_built_ones() {
        let (loaded, fresh) = (database(), built());
        assert_eq!(loaded.len(), fresh.len());
        for &class in npn::classes() {
            let (l, f) = (loaded.entry(class), fresh.entry(class));
            assert_eq!(l.gates(), f.gates(), "class {class:#06x}");
            assert_same_graph(l.mig(), f.mig(), &format!("class {class:#06x}"));
        }
    }

    #[test]
    fn one_round_is_identical_against_the_built_and_loaded_databases() {
        for info in bench_suite::SMALL_SUITE {
            let mig = Mig::from_netlist(&bench_suite::build_info(info));
            for zero_gain in [false, true] {
                let (a, _) = rewrite_round_with(built(), &mig, zero_gain);
                let (b, _) = rewrite_round(&mig, zero_gain);
                let what = format!("{} zero_gain={zero_gain}", info.name);
                assert_same_graph(&a.compact(), &b.compact(), &what);
            }
        }
    }
}
