//! A fixed calibration kernel for every end-to-end time: pipeline items,
//! serve replay slices and setup probes.
//!
//! On a shared host the same item runs up to 1.8x slower from one pass to
//! the next, all of it in user time (no page faults, no stolen time), and
//! whole runs of 30 s fall into slow stretches, so even the fastest pass
//! of a run moved by a third between runs.
//!
//! The kernel is the benchmark's own code, independent of the crates under
//! test: it simulates a fixed, seeded majority network over 64-bit words
//! and strashes it into an open-addressing table, the two kinds of work
//! that fill a large-circuit item. Timed next to every item, it slows with
//! the item (correlation 0.65–0.98 over the passes of an `xl-sampled`
//! run), while integer and pointer-chase kernels moved by 5–10 % where the
//! items moved by 50 %. An item divided by the kernel varies far less
//! between runs than the item does. A later change to the crates under
//! test moves the items and not the kernel, so it shows in full.

use crate::stats::Rng;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Majority gates of the kernel's network.
const GATES: usize = 30_000;
/// Primary inputs of the network.
const INPUTS: usize = 64;
/// 64-bit words simulated per node.
const WORDS: usize = 16;
/// Time of one simulation on a quiet run of the development machine (an
/// x86-64 cloud VM with 2 vCPUs), so that calibrated figures read as
/// milliseconds on that machine.
pub const REF_MS: f64 = 2.1;

/// Fanins of every gate as `node << 1 | complement`. Most fanins are among
/// the 256 preceding nodes and a quarter anywhere before, like the local
/// structure of a synthesized circuit.
fn network() -> &'static [[u32; 3]] {
    static NET: OnceLock<Vec<[u32; 3]>> = OnceLock::new();
    NET.get_or_init(|| {
        let mut r = Rng::new(42);
        (INPUTS..INPUTS + GATES)
            .map(|i| {
                let mut f = [0u32; 3];
                for e in &mut f {
                    let back = if r.next_u64() % 4 == 0 {
                        r.next_u64() as usize % i
                    } else {
                        (r.next_u64() as usize % 256).min(i - 1)
                    };
                    *e = ((i - 1 - back) as u32) << 1 | (r.next_u64() & 1) as u32;
                }
                f
            })
            .collect()
    })
}

/// One simulation of the network plus two strash passes over it.
fn simulate(net: &[[u32; 3]]) {
    let mut v = vec![0u64; (INPUTS + GATES) * WORDS];
    let mut r = Rng::new(7);
    for x in v.iter_mut().take(INPUTS * WORDS) {
        *x = r.next_u64();
    }
    for (i, f) in net.iter().enumerate() {
        let o = (INPUTS + i) * WORDS;
        for w in 0..WORDS {
            let g = |e: u32| v[(e >> 1) as usize * WORDS + w] ^ 0u64.wrapping_sub((e & 1) as u64);
            let (a, b, c) = (g(f[0]), g(f[1]), g(f[2]));
            v[o + w] = (a & b) | (a & c) | (b & c);
        }
    }
    let mut table = vec![u64::MAX; 1 << 16];
    let mut hits = 0u64;
    for _ in 0..2 {
        for (i, f) in net.iter().enumerate() {
            let key = (f[0] as u64) << 40 ^ (f[1] as u64) << 20 ^ f[2] as u64
                ^ (v[(INPUTS + i) * WORDS] & 0xff);
            let mut h = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 48) as usize;
            loop {
                if table[h] == u64::MAX {
                    table[h] = key;
                    break;
                }
                if table[h] == key {
                    hits += 1;
                    break;
                }
                h = (h + 1) & 0xffff;
            }
        }
    }
    black_box((v[v.len() - 1], hits));
}

/// Builds the network, outside any timed region.
pub fn prepare() {
    network();
}

/// Runs `reps` simulations and returns their mean time in milliseconds.
pub fn time_ms(reps: usize) -> f64 {
    let net = network();
    let t0 = Instant::now();
    for _ in 0..reps {
        simulate(net);
    }
    t0.elapsed().as_secs_f64() * 1e3 / reps as f64
}
