//! Property-based tests over randomly generated circuits: every rewrite,
//! optimization algorithm, compiler, and baseline must preserve functional
//! semantics on arbitrary inputs, and the cost formulas must always match
//! the machine.
//!
//! The generator is driven by the workspace's own deterministic
//! [`SplitMix64`] (the build is offline, so no `proptest`): every case is
//! reproducible from its printed seed.

use rram_mig::aig::Aig;
use rram_mig::bdd::build as bdd_build;
use rram_mig::flow::run_algorithm;
use rram_mig::logic::netlist::{Netlist, NetlistBuilder, Wire};
use rram_mig::logic::rng::SplitMix64;
use rram_mig::mig::cost::{Realization, RramCost};
use rram_mig::mig::opt::{Algorithm, OptOptions};
use rram_mig::mig::rewrite;
use rram_mig::mig::Mig;
use rram_mig::rram::compile::compile;
use rram_mig::rram::machine::Machine;

/// Number of random circuits per property.
const CASES: u64 = 64;

/// A random multi-output netlist over at most 6 inputs (small enough for
/// exhaustive truth tables at this volume).
fn random_netlist(seed: u64) -> Netlist {
    let mut rng = SplitMix64::new(seed);
    let inputs = 2 + rng.next_index(5); // 2..=6
    let gates = 1 + rng.next_index(39); // 1..=39
    let outputs = 1 + rng.next_index(3); // 1..=3
    let mut b = NetlistBuilder::new("prop");
    let mut wires: Vec<Wire> = (0..inputs).map(|i| b.input(format!("x{i}"))).collect();
    wires.push(b.const0());
    fn pick(rng: &mut SplitMix64, wires: &[Wire]) -> Wire {
        let w = wires[rng.next_index(wires.len())];
        if rng.next_bool() {
            w.complement()
        } else {
            w
        }
    }
    for _ in 0..gates {
        let a = pick(&mut rng, &wires);
        let c2 = pick(&mut rng, &wires);
        let c3 = pick(&mut rng, &wires);
        let w = match rng.next_index(5) {
            0 => b.and(a, c2),
            1 => b.or(a, c2),
            2 => b.xor(a, c2),
            3 => b.maj(a, c2, c3),
            _ => b.mux(a, c2, c3),
        };
        wires.push(w);
    }
    for o in 0..outputs {
        let w = wires[wires.len() - 1 - (o % wires.len().min(8))];
        let w = if o == 1 { w.complement() } else { w };
        b.output(format!("f{o}"), w);
    }
    b.build()
}

/// Runs `check` on `CASES` random netlists, reporting the failing seed.
fn for_random_netlists(base_seed: u64, check: impl Fn(&Netlist)) {
    for case in 0..CASES {
        let seed = base_seed ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let nl = random_netlist(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(&nl)));
        if let Err(panic) = result {
            eprintln!("property failed for seed {seed:#x} (case {case})");
            std::panic::resume_unwind(panic);
        }
    }
}

#[test]
fn rewrite_passes_preserve_function() {
    for_random_netlists(0xA11C_E001, |nl| {
        let reference = nl.truth_tables();
        let mig = Mig::from_netlist(nl);
        assert_eq!(mig.truth_tables(), reference);

        let passes: Vec<(&str, Mig)> = vec![
            ("eliminate", rewrite::eliminate(&mig)),
            ("reshape_up", rewrite::reshape(&mig, false)),
            ("reshape_down", rewrite::reshape(&mig, true)),
            ("push_up", rewrite::push_up(&mig)),
            ("relevance", rewrite::relevance(&mig)),
            (
                "inv_base",
                rewrite::inverter_propagation(&mig, rewrite::InverterCases::BASE, false),
            ),
            (
                "inv_all",
                rewrite::inverter_propagation(&mig, rewrite::InverterCases::ALL, false),
            ),
            (
                "inv_guarded",
                rewrite::inverter_propagation(&mig, rewrite::InverterCases::ALL, true),
            ),
        ];
        for (name, out) in passes {
            assert_eq!(out.truth_tables(), reference, "pass {name}");
        }
    });
}

#[test]
fn optimization_algorithms_preserve_function() {
    for_random_netlists(0xA11C_E002, |nl| {
        let reference = nl.truth_tables();
        let mig = Mig::from_netlist(nl);
        let opts = OptOptions::with_effort(4);
        for alg in Algorithm::ALL {
            let (out, _) = run_algorithm(&mig, alg, Realization::Maj, &opts);
            assert_eq!(out.truth_tables(), reference, "{alg}");
        }
    });
}

#[test]
fn compiler_matches_cost_model_and_function() {
    for_random_netlists(0xA11C_E003, |nl| {
        let mig = Mig::from_netlist(nl).compact();
        let reference = mig.truth_tables();
        for real in Realization::ALL {
            let cost = RramCost::of(&mig, real);
            let circuit = compile(&mig, real);
            // A program with no compute steps still needs one load step to
            // land pass-through outputs in devices (see compile.rs); that
            // is the only permitted divergence from S = K*D + L.
            let expected = if cost.steps == 0 && circuit.program.num_steps() > 0 {
                1
            } else {
                cost.steps
            };
            assert_eq!(circuit.program.num_steps(), expected, "steps {real}");
            assert_eq!(circuit.model_rrams, cost.rrams, "rrams {real}");
            let got = Machine::truth_tables(&circuit.program).expect("valid program");
            assert_eq!(got, reference, "function {real}");
        }
    });
}

#[test]
fn bdd_matches_netlist() {
    for_random_netlists(0xA11C_E004, |nl| {
        let reference = nl.truth_tables();
        let circ = bdd_build::from_netlist(nl, bdd_build::Ordering::Natural);
        for m in 0..(1u64 << nl.num_inputs()) {
            for (o, root) in circ.roots.iter().enumerate() {
                assert_eq!(
                    circ.manager.eval(*root, m),
                    reference[o].bit(m),
                    "output {o} minterm {m}"
                );
            }
        }
    });
}

#[test]
fn bdd_rram_synthesis_is_correct() {
    for_random_netlists(0xA11C_E005, |nl| {
        let reference = nl.truth_tables();
        let circ = bdd_build::from_netlist(nl, bdd_build::Ordering::DfsFromOutputs);
        let out = rram_mig::bdd::rram_synth::synthesize(&circ, &Default::default());
        let got = Machine::truth_tables(&out.program).expect("valid program");
        assert_eq!(got, reference);
    });
}

#[test]
fn aig_flows_are_correct() {
    for_random_netlists(0xA11C_E006, |nl| {
        let reference = nl.truth_tables();
        let aig = Aig::from_netlist(nl);
        assert_eq!(aig.truth_tables(), reference);
        let balanced = aig.balance();
        assert_eq!(balanced.truth_tables(), reference, "balance");
        let circuit = rram_mig::aig::rram_synth::synthesize(&balanced);
        let got = Machine::truth_tables(&circuit.program).expect("valid program");
        assert_eq!(got, reference, "machine");
    });
}

#[test]
fn blif_round_trip() {
    for_random_netlists(0xA11C_E007, |nl| {
        let text = rram_mig::logic::blif::write(nl);
        let back = rram_mig::logic::blif::parse(&text).expect("own output parses");
        assert_eq!(back.truth_tables(), nl.truth_tables());
    });
}

#[test]
fn pla_round_trip() {
    for_random_netlists(0xA11C_E008, |nl| {
        let text = rram_mig::logic::pla::write(nl);
        let back = rram_mig::logic::pla::parse(&text).expect("own output parses");
        assert_eq!(back.truth_tables(), nl.truth_tables());
    });
}

#[test]
fn pipeline_handles_random_circuits() {
    // The end-to-end pipeline (new in this workspace) on the same
    // generator: every random netlist must come out verified.
    for_random_netlists(0xA11C_E009, |nl| {
        let out = rram_mig::flow::Pipeline::new(nl.clone())
            .effort(2)
            .run()
            .expect("pipeline runs");
        assert_eq!(out.report.verify, rram_mig::flow::VerifyOutcome::Exhaustive);
        assert_eq!(out.mig.truth_tables(), nl.truth_tables());
    });
}

#[test]
fn verilog_round_trip() {
    for_random_netlists(0xA11C_E00A, |nl| {
        let text = rram_mig::logic::verilog::write(nl);
        let back = rram_mig::logic::verilog::parse(&text).expect("own output parses");
        assert_eq!(back.truth_tables(), nl.truth_tables());
    });
}

#[test]
fn npn_canonicalization_is_orbit_invariant_and_reconstructs() {
    // For random 4-input truth tables: every input permutation/negation
    // and output negation lands in the same NPN class, the reported
    // transform maps the function to the canonical representative, and
    // its inverse reconstructs the original function.
    use rram_mig::cut::npn;
    let mut rng = SplitMix64::new(0xA11C_E00B);
    for case in 0..CASES * 8 {
        let f = rng.next_u64() as u16;
        let (class, t) = npn::canonicalize(f);
        assert_eq!(npn::apply(t, f), class, "case {case}: f={f:#06x}");
        assert_eq!(
            npn::apply(npn::invert(t), class),
            f,
            "case {case}: f={f:#06x}"
        );
        for _ in 0..12 {
            let u = rng.next_index(npn::NUM_TRANSFORMS);
            let g = npn::apply(u, f);
            let (gclass, gt) = npn::canonicalize(g);
            assert_eq!(gclass, class, "case {case}: f={f:#06x} u={u}");
            assert_eq!(npn::apply(gt, g), gclass, "case {case}: g={g:#06x}");
        }
    }
}

#[test]
fn cut_rewriting_preserves_function() {
    use rram_mig::mig::Algorithm;
    for_random_netlists(0xA11C_E00C, |nl| {
        let reference = nl.truth_tables();
        let mig = Mig::from_netlist(nl);
        let opts = OptOptions::with_effort(3);
        let (round, _) = rram_mig::cut::rewrite_round(&mig, true);
        assert_eq!(round.truth_tables(), reference, "rewrite round");
        for alg in [Algorithm::Cut, Algorithm::CutRram] {
            let (out, stats) = rram_mig::flow::run_algorithm(&mig, alg, Realization::Maj, &opts);
            assert_eq!(out.truth_tables(), reference, "{alg}");
            assert_eq!(stats.gates_after, out.num_gates() as u64, "{alg}");
        }
    });
}
