//! NPN canonicalization of 4-input truth tables.
//!
//! Two Boolean functions belong to the same **NPN class** when one can be
//! obtained from the other by Negating inputs, Permuting inputs, and/or
//! Negating the output. Over 4 variables the 65 536 functions collapse
//! into exactly **222 classes**, which is what makes a precomputed
//! database of optimal implementations practical: the rewriter looks up
//! one entry per class and reconstructs the concrete function from the
//! recorded transform.
//!
//! The orbit of a function has at most `4! · 2⁴ · 2 = 768` members, so
//! canonicalization is an exhaustive scan. The full
//! `tt → (class, transform)` tables for every 16-bit truth table are
//! built once per process behind a [`OnceLock`] (a few milliseconds):
//! each of the 222 orbits is enumerated once into a 768-entry buffer —
//! 24 input permutations of the table, input flips as masked half-swaps,
//! output negation as `!` — and every member is then mapped to the
//! canonical form. After warm-up a lookup is two array reads, and
//! [`invert`] is one.
//!
//! # Conventions
//!
//! A [`Transform`] `t = (π, φ, o)` acts on a truth table `f` as
//!
//! ```text
//! apply(t, f)(m) = f(σ(m)) ^ o      with σ(m)ᵢ = m_{π(i)} ^ φᵢ
//! ```
//!
//! i.e. input `i` of the transformed function reads input `π(i)` of the
//! original, optionally complemented. The **canonical representative** of
//! a class is the numerically smallest `u16` in the orbit.
//!
//! # Example
//!
//! ```
//! use rms_cut::npn;
//!
//! // AND(a, b) and NOR(c, d) are in the same NPN class.
//! let and_ab = 0xAAAAu16 & 0xCCCCu16;
//! let nor_cd = !(0xF0F0u16 | 0xFF00u16);
//! assert_eq!(npn::canonicalize(and_ab).0, npn::canonicalize(nor_cd).0);
//! // The returned transform maps the function to its canonical form.
//! let (class, t) = npn::canonicalize(nor_cd);
//! assert_eq!(npn::apply(t, nor_cd), class);
//! assert_eq!(npn::apply(npn::invert(t), class), nor_cd);
//! ```

use std::sync::OnceLock;

/// Number of NPN transforms over 4 variables: `4! · 2⁴ · 2`.
pub const NUM_TRANSFORMS: usize = 768;

/// Number of NPN classes of Boolean functions of at most 4 variables.
pub const NUM_CLASSES: usize = 222;

/// One input-permutation / input-negation / output-negation transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Transform {
    /// Input permutation: transformed input `i` reads original input
    /// `perm[i]`.
    pub perm: [u8; 4],
    /// Input complement mask: bit `i` complements transformed input `i`.
    pub flips: u8,
    /// Whether the output is complemented.
    pub negate_output: bool,
}

/// The 24 permutations of 4 elements in lexicographic order.
const PERMS: [[u8; 4]; 24] = [
    [0, 1, 2, 3],
    [0, 1, 3, 2],
    [0, 2, 1, 3],
    [0, 2, 3, 1],
    [0, 3, 1, 2],
    [0, 3, 2, 1],
    [1, 0, 2, 3],
    [1, 0, 3, 2],
    [1, 2, 0, 3],
    [1, 2, 3, 0],
    [1, 3, 0, 2],
    [1, 3, 2, 0],
    [2, 0, 1, 3],
    [2, 0, 3, 1],
    [2, 1, 0, 3],
    [2, 1, 3, 0],
    [2, 3, 0, 1],
    [2, 3, 1, 0],
    [3, 0, 1, 2],
    [3, 0, 2, 1],
    [3, 1, 0, 2],
    [3, 1, 2, 0],
    [3, 2, 0, 1],
    [3, 2, 1, 0],
];

/// The transform with a given index; inverse of [`index_of`].
fn transform_at(idx: usize) -> Transform {
    debug_assert!(idx < NUM_TRANSFORMS);
    Transform {
        perm: PERMS[idx / 32],
        flips: ((idx / 2) % 16) as u8,
        negate_output: idx % 2 == 1,
    }
}

/// The index of a transform in the fixed enumeration order.
fn index_of(t: &Transform) -> usize {
    perm_rank(&t.perm) * 32 + (t.flips as usize) * 2 + t.negate_output as usize
}

/// The position of a permutation in [`PERMS`] (its lexicographic rank,
/// from the Lehmer code).
fn perm_rank(p: &[u8; 4]) -> usize {
    (0..4).fold(0, |rank, i| {
        let smaller_later = p[i + 1..].iter().filter(|&&q| q < p[i]).count();
        rank * (4 - i) + smaller_later
    })
}

/// The minterm map `σ` of a transform: `σ(m)ᵢ = m_{π(i)} ^ φᵢ`.
fn sigma(t: &Transform, m: usize) -> usize {
    let mut s = 0usize;
    for i in 0..4 {
        let bit = ((m >> t.perm[i]) & 1) ^ ((t.flips as usize >> i) & 1);
        s |= bit << i;
    }
    s
}

/// Precomputed transform metadata: the 768 transforms, their minterm
/// maps and their inverses.
struct Tables {
    transforms: Vec<Transform>,
    /// `maps[t][m] = σ_t(m)`.
    maps: Vec<[u8; 16]>,
    /// `invert[t]` is the index of the inverse of transform `t`.
    invert: Vec<u16>,
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let transforms: Vec<Transform> = (0..NUM_TRANSFORMS).map(transform_at).collect();
        let maps = transforms
            .iter()
            .map(|t| {
                let mut map = [0u8; 16];
                for (m, slot) in map.iter_mut().enumerate() {
                    *slot = sigma(t, m) as u8;
                }
                map
            })
            .collect();
        let invert = transforms
            .iter()
            .map(|t| index_of(&inverse(t)) as u16)
            .collect();
        Tables {
            transforms,
            maps,
            invert,
        }
    })
}

/// Applies transform `t` (by index) to a truth table.
///
/// # Panics
///
/// Panics if `t >= NUM_TRANSFORMS`.
pub fn apply(t: usize, f: u16) -> u16 {
    let tables = tables();
    let map = &tables.maps[t];
    let mut r = 0u16;
    for (m, &src) in map.iter().enumerate() {
        if (f >> src) & 1 == 1 {
            r |= 1 << m;
        }
    }
    if tables.transforms[t].negate_output {
        !r
    } else {
        r
    }
}

/// The transform metadata behind index `t`.
///
/// # Panics
///
/// Panics if `t >= NUM_TRANSFORMS`.
pub fn transform(t: usize) -> Transform {
    tables().transforms[t]
}

/// Composition: `apply(compose(a, b), f) == apply(a, apply(b, f))`.
///
/// # Panics
///
/// Panics if either index is out of range.
pub fn compose(a: usize, b: usize) -> usize {
    let ta = tables().transforms[a];
    let tb = tables().transforms[b];
    let mut perm = [0u8; 4];
    let mut flips = 0u8;
    for (i, slot) in perm.iter_mut().enumerate() {
        // σ_c = σ_b ∘ σ_a: π_c(i) = π_a(π_b(i)), φ_c(i) = φ_a(π_b(i)) ^ φ_b(i).
        *slot = ta.perm[tb.perm[i] as usize];
        let f = ((ta.flips >> tb.perm[i]) & 1) ^ ((tb.flips >> i) & 1);
        flips |= f << i;
    }
    index_of(&Transform {
        perm,
        flips,
        negate_output: ta.negate_output ^ tb.negate_output,
    })
}

/// The inverse transform: `apply(invert(t), apply(t, f)) == f`.
///
/// # Panics
///
/// Panics if `t >= NUM_TRANSFORMS`.
pub fn invert(t: usize) -> usize {
    tables().invert[t] as usize
}

/// The inverse of a transform, computed from its metadata.
fn inverse(t: &Transform) -> Transform {
    let mut perm = [0u8; 4];
    let mut flips = 0u8;
    for i in 0..4 {
        perm[t.perm[i] as usize] = i as u8;
    }
    for (j, &p) in perm.iter().enumerate() {
        flips |= ((t.flips >> p) & 1) << j;
    }
    Transform {
        perm,
        flips,
        negate_output: t.negate_output,
    }
}

/// `f` with input `v` complemented: the two halves of the table selected
/// by `v` swap places.
fn flip_input(f: u16, v: usize) -> u16 {
    let shift = 1 << v;
    ((f & VAR_TT[v]) >> shift) | ((f & !VAR_TT[v]) << shift)
}

/// Fills `orbit[t]` with `apply(t, f)` for every transform index `t`.
fn orbit_of(f: u16, orbit: &mut [u16; NUM_TRANSFORMS]) {
    for (p, block) in orbit.chunks_exact_mut(32).enumerate() {
        // Transform p·32 is permutation p without flips or negation.
        let (perm, permuted) = (PERMS[p], apply(p * 32, f));
        // Flip bit i complements input i of f, i.e. bit π(i) of the
        // minterm: a half-swap on variable π(i) of the permuted table.
        for (flips, pair) in block.chunks_exact_mut(2).enumerate() {
            let g = (0..4)
                .filter(|&i| (flips >> i) & 1 == 1)
                .fold(permuted, |g, i| flip_input(g, perm[i] as usize));
            pair[0] = g;
            pair[1] = !g;
        }
    }
}

/// Full canonicalization tables over all 65 536 truth tables.
struct Canon {
    /// Canonical class representative of each function.
    class_of: Vec<u16>,
    /// A transform index `t` with `apply(t, f) == class_of[f]`.
    to_canonical: Vec<u16>,
    /// The 222 canonical representatives, sorted ascending.
    classes: Vec<u16>,
}

fn canon() -> &'static Canon {
    static CANON: OnceLock<Canon> = OnceLock::new();
    CANON.get_or_init(|| {
        let mut class_of = vec![0u16; 1 << 16];
        let mut to_canonical = vec![0u16; 1 << 16];
        let mut visited = vec![false; 1 << 16];
        let mut classes = Vec::new();
        let mut orbit = [0u16; NUM_TRANSFORMS];
        for f in 0..=u16::MAX {
            if visited[f as usize] {
                continue;
            }
            orbit_of(f, &mut orbit);
            // First pass: the canonical representative and the first
            // transform reaching it.
            let mut best = f;
            let mut best_t = 0usize;
            for (t, &g) in orbit.iter().enumerate() {
                if g < best {
                    best = g;
                    best_t = t;
                }
            }
            classes.push(best);
            // Second pass: every orbit member m = apply(t, f) reaches the
            // canonical form via best_t ∘ t⁻¹.
            for (t, &m) in orbit.iter().enumerate() {
                let m = m as usize;
                if !visited[m] {
                    visited[m] = true;
                    class_of[m] = best;
                    to_canonical[m] = compose(best_t, invert(t)) as u16;
                }
            }
        }
        classes.sort_unstable();
        Canon {
            class_of,
            to_canonical,
            classes,
        }
    })
}

/// Canonicalizes a 4-input truth table.
///
/// Returns the canonical class representative `c` and a transform index
/// `t` such that `apply(t, tt) == c`; the original function is
/// reconstructed as `apply(invert(t), c)`.
pub fn canonicalize(tt: u16) -> (u16, usize) {
    let c = canon();
    (
        c.class_of[tt as usize],
        c.to_canonical[tt as usize] as usize,
    )
}

/// The canonical representatives of all [`NUM_CLASSES`] NPN classes,
/// sorted ascending.
pub fn classes() -> &'static [u16] {
    &canon().classes
}

/// Re-expresses a truth table over `vars <= 4` variables as a full
/// 16-bit table by replicating its `2^vars`-bit block (the added
/// variables are irrelevant).
///
/// # Panics
///
/// Panics if `vars > 4`.
pub fn extend(tt: u16, vars: usize) -> u16 {
    assert!(vars <= 4, "at most 4 variables");
    let mut width = 1u32 << vars;
    let mut t = tt & block_mask(vars);
    while width < 16 {
        t |= t << width;
        width *= 2;
    }
    t
}

/// Mask of the valid low bits of a `vars`-variable table.
fn block_mask(vars: usize) -> u16 {
    if vars >= 4 {
        u16::MAX
    } else {
        (1u16 << (1 << vars)) - 1
    }
}

/// Truth table of projection variable `i` over 4 variables.
pub const VAR_TT: [u16; 4] = [0xAAAA, 0xCCCC, 0xF0F0, 0xFF00];

#[cfg(test)]
mod tests {
    use super::*;
    use rms_logic::rng::SplitMix64;

    #[test]
    fn transform_index_round_trip() {
        for idx in 0..NUM_TRANSFORMS {
            assert_eq!(index_of(&transform_at(idx)), idx);
        }
    }

    #[test]
    fn orbit_buffer_matches_apply() {
        let mut rng = SplitMix64::new(44);
        let mut orbit = [0u16; NUM_TRANSFORMS];
        for _ in 0..64 {
            let f = rng.next_u64() as u16;
            orbit_of(f, &mut orbit);
            for (t, &g) in orbit.iter().enumerate() {
                assert_eq!(g, apply(t, f), "f={f:04x} t={t}");
            }
        }
    }

    /// The tables decide how database entries are wired onto cut leaves,
    /// so they are pinned exactly: FNV-1a over `class_of` then
    /// `to_canonical`, little-endian.
    #[test]
    fn canonicalization_tables_are_pinned() {
        let c = canon();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &v in c.class_of.iter().chain(&c.to_canonical) {
            for byte in v.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(hash, 0x8104_ead4_04c3_3b25);
    }

    #[test]
    fn identity_transform_is_index_zero() {
        let t = transform(0);
        assert_eq!(t.perm, [0, 1, 2, 3]);
        assert_eq!(t.flips, 0);
        assert!(!t.negate_output);
        assert_eq!(apply(0, 0xBEEF), 0xBEEF);
    }

    #[test]
    fn compose_matches_sequential_application() {
        let mut rng = SplitMix64::new(11);
        for _ in 0..200 {
            let a = rng.next_index(NUM_TRANSFORMS);
            let b = rng.next_index(NUM_TRANSFORMS);
            let f = rng.next_u64() as u16;
            assert_eq!(apply(compose(a, b), f), apply(a, apply(b, f)));
        }
    }

    #[test]
    fn invert_is_inverse() {
        let mut rng = SplitMix64::new(22);
        for t in 0..NUM_TRANSFORMS {
            let f = rng.next_u64() as u16;
            assert_eq!(apply(invert(t), apply(t, f)), f);
            assert_eq!(compose(invert(t), t), 0);
        }
    }

    #[test]
    fn exactly_222_classes() {
        assert_eq!(classes().len(), NUM_CLASSES);
        // Canonical representatives are fixed points of canonicalization.
        for &c in classes() {
            assert_eq!(canonicalize(c).0, c);
        }
    }

    #[test]
    fn whole_orbit_canonicalizes_identically() {
        let mut rng = SplitMix64::new(33);
        for _ in 0..50 {
            let f = rng.next_u64() as u16;
            let (class, t) = canonicalize(f);
            assert_eq!(apply(t, f), class);
            for _ in 0..16 {
                let u = rng.next_index(NUM_TRANSFORMS);
                let g = apply(u, f);
                assert_eq!(canonicalize(g).0, class, "f={f:04x} u={u}");
            }
        }
    }

    #[test]
    fn known_classmates() {
        // All 2-input ANDs/ORs/NORs/NANDs over any input pair share a class.
        let and = VAR_TT[0] & VAR_TT[1];
        let or = VAR_TT[2] | VAR_TT[3];
        let nand = !(VAR_TT[1] & VAR_TT[3]);
        assert_eq!(canonicalize(and).0, canonicalize(or).0);
        assert_eq!(canonicalize(and).0, canonicalize(nand).0);
        // XOR is self-dual: its orbit is comparatively small and distinct.
        let xor = VAR_TT[0] ^ VAR_TT[1];
        assert_ne!(canonicalize(and).0, canonicalize(xor).0);
        // Constants 0 and 1 share the class with representative 0.
        assert_eq!(canonicalize(0).0, 0);
        assert_eq!(canonicalize(u16::MAX).0, 0);
    }

    #[test]
    fn extend_replicates_blocks() {
        assert_eq!(extend(0b10, 1), 0xAAAA);
        assert_eq!(extend(0b1000, 2), 0x8888);
        assert_eq!(extend(0x00E8, 3), 0xE8E8);
        assert_eq!(extend(0x1234, 4), 0x1234);
    }
}
