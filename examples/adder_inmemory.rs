//! In-memory arithmetic: synthesize an n-bit ripple-carry adder to RRAMs
//! and compare the IMP-based and MAJ-based realizations across all four
//! optimization algorithms — the kind of datapath workload the paper's
//! introduction motivates for processing-in-memory.
//!
//! Run with `cargo run --release --example adder_inmemory`.

use rram_mig::flow::run_algorithm;
use rram_mig::logic::netlist::{Netlist, NetlistBuilder};
use rram_mig::mig::cost::{Realization, RramCost};
use rram_mig::mig::opt::{Algorithm, OptOptions};
use rram_mig::mig::Mig;
use rram_mig::rram::compile::compile;
use rram_mig::rram::machine::Machine;

fn adder(bits: usize) -> Netlist {
    let mut b = NetlistBuilder::new(format!("adder{bits}"));
    let xs: Vec<_> = (0..bits).map(|i| b.input(format!("a{i}"))).collect();
    let ys: Vec<_> = (0..bits).map(|i| b.input(format!("b{i}"))).collect();
    let mut carry = b.const0();
    for i in 0..bits {
        let t = b.xor(xs[i], ys[i]);
        let sum = b.xor(t, carry);
        let next = b.maj(xs[i], ys[i], carry);
        b.output(format!("s{i}"), sum);
        carry = next;
    }
    b.output("cout", carry);
    b.build()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const BITS: usize = 6;
    let netlist = adder(BITS);
    let mig = Mig::from_netlist(&netlist);
    let opts = OptOptions::paper();

    println!(
        "{BITS}-bit ripple-carry adder: {} gates, depth {}",
        netlist.num_gates(),
        netlist.depth()
    );
    println!(
        "initial MIG: {} nodes, depth {}\n",
        mig.num_gates(),
        mig.depth()
    );

    println!(
        "{:<12} {:>14} {:>14}",
        "algorithm", "IMP (R/S)", "MAJ (R/S)"
    );
    for alg in Algorithm::ALL {
        let (imp, _) = run_algorithm(&mig, alg, Realization::Imp, &opts);
        let (maj, _) = run_algorithm(&mig, alg, Realization::Maj, &opts);
        let ci = RramCost::of(&imp, Realization::Imp);
        let cm = RramCost::of(&maj, Realization::Maj);
        println!(
            "{:<12} {:>14} {:>14}",
            alg.to_string(),
            format!("{}/{}", ci.rrams, ci.steps),
            format!("{}/{}", cm.rrams, cm.steps)
        );
    }

    // Execute the step-optimized MAJ circuit on real additions.
    let (best, _) = run_algorithm(&mig, Algorithm::Steps, Realization::Maj, &opts);
    let circuit = compile(&best, Realization::Maj);
    println!(
        "\nexecuting the step-optimized MAJ circuit ({} steps, {} devices):",
        circuit.program.num_steps(),
        circuit.program.num_regs
    );
    for (a, b) in [(11u64, 25u64), (63, 1), (42, 21), (0, 0)] {
        let mut bits = Vec::new();
        for i in 0..BITS {
            bits.push((a >> i) & 1 == 1);
        }
        for i in 0..BITS {
            bits.push((b >> i) & 1 == 1);
        }
        let outs = Machine::run_bools(&circuit.program, &bits)?;
        let sum: u64 = outs.iter().enumerate().map(|(i, &v)| (v as u64) << i).sum();
        assert_eq!(sum, a + b, "in-memory addition must be exact");
        println!("  {a:2} + {b:2} = {sum}");
    }
    println!("all additions verified against the machine");
    Ok(())
}
