//! Bit-parallel truth tables.
//!
//! A [`TruthTable`] stores the complete function table of a Boolean function
//! over `n` variables as a packed bit vector (one bit per input minterm,
//! 64 minterms per word). Truth tables are the ground truth for every
//! equivalence check in this workspace: MIG rewrites, RRAM program
//! compilation, and the BDD/AIG baselines are all validated against them.
//!
//! Tables support up to [`MAX_VARS`] variables; beyond that exhaustive
//! representation is impractical and callers should fall back to sampled
//! simulation (see [`crate::sim`]).

use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// Maximum number of variables an exhaustive [`TruthTable`] may have.
///
/// 24 variables require 2 MiB per table, which keeps even the property-test
/// workloads cheap while covering every circuit we check exhaustively.
pub const MAX_VARS: usize = 24;

/// A complete truth table over a fixed number of Boolean variables.
///
/// Bit `m` of the table is the function value for the input minterm `m`,
/// where variable `i` contributes bit `i` of `m` (variable 0 is the least
/// significant).
///
/// # Example
///
/// ```
/// use rms_logic::tt::TruthTable;
///
/// let a = TruthTable::var(3, 0);
/// let b = TruthTable::var(3, 1);
/// let c = TruthTable::var(3, 2);
/// let maj = TruthTable::maj(&a, &b, &c);
/// assert_eq!(maj.count_ones(), 4);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    num_vars: usize,
    words: Vec<u64>,
}

/// Bit patterns of the first six variables within a single 64-bit word.
const VAR_PATTERNS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Word of variable `i` over the 64 minterms starting at `base` (a
/// multiple of 64): bit `b` is the variable's value in minterm
/// `base + b`. Simulating a circuit on these words for every `base` in
/// steps of 64 yields its exhaustive table one word at a time (see
/// [`TruthTable::from_words`]).
pub fn minterm_word(base: u64, i: usize) -> u64 {
    match VAR_PATTERNS.get(i) {
        Some(&w) => w,
        None if (base >> i) & 1 == 1 => u64::MAX,
        None => 0,
    }
}

/// Exhaustive tables of a circuit with `num_outputs` outputs over
/// `num_vars` inputs, built from its word simulator: `simulate` maps one
/// word per input to one word per output and is called once per 64
/// minterms, on the words of [`minterm_word`].
///
/// # Panics
///
/// Panics if `num_vars > MAX_VARS`.
pub fn exhaustive_tables(
    num_vars: usize,
    num_outputs: usize,
    mut simulate: impl FnMut(&[u64]) -> Vec<u64>,
) -> Vec<TruthTable> {
    TruthTable::assert_vars(num_vars);
    let chunks = (1usize << num_vars).div_ceil(64);
    let mut words: Vec<Vec<u64>> = vec![Vec::with_capacity(chunks); num_outputs];
    for c in 0..chunks as u64 {
        let inputs: Vec<u64> = (0..num_vars).map(|i| minterm_word(c * 64, i)).collect();
        for (col, w) in words.iter_mut().zip(simulate(&inputs)) {
            col.push(w);
        }
    }
    words
        .into_iter()
        .map(|col| TruthTable::from_words(num_vars, col))
        .collect()
}

impl TruthTable {
    /// Number of words needed for an `n`-variable table.
    fn word_count(num_vars: usize) -> usize {
        if num_vars <= 6 {
            1
        } else {
            1 << (num_vars - 6)
        }
    }

    /// Mask of the valid bits in the (single) word of a small table.
    fn tail_mask(num_vars: usize) -> u64 {
        if num_vars >= 6 {
            u64::MAX
        } else {
            (1u64 << (1 << num_vars)) - 1
        }
    }

    fn assert_vars(num_vars: usize) {
        assert!(
            num_vars <= MAX_VARS,
            "truth table limited to {MAX_VARS} variables, got {num_vars}"
        );
    }

    /// The constant-false function of `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > MAX_VARS`.
    pub fn zero(num_vars: usize) -> Self {
        Self::assert_vars(num_vars);
        TruthTable {
            num_vars,
            words: vec![0; Self::word_count(num_vars)],
        }
    }

    /// The constant-true function of `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > MAX_VARS`.
    pub fn one(num_vars: usize) -> Self {
        Self::assert_vars(num_vars);
        let mut words = vec![u64::MAX; Self::word_count(num_vars)];
        words[0] = Self::tail_mask(num_vars);
        TruthTable { num_vars, words }
    }

    /// The projection function of variable `var` among `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars` or `num_vars > MAX_VARS`.
    pub fn var(num_vars: usize, var: usize) -> Self {
        Self::assert_vars(num_vars);
        assert!(var < num_vars, "variable {var} out of range 0..{num_vars}");
        let mut t = Self::zero(num_vars);
        if var < 6 {
            let pattern = VAR_PATTERNS[var] & Self::tail_mask(num_vars);
            for w in &mut t.words {
                *w = pattern;
            }
        } else {
            let period = 1usize << (var - 6);
            for (i, w) in t.words.iter_mut().enumerate() {
                if (i / period) & 1 == 1 {
                    *w = u64::MAX;
                }
            }
        }
        t
    }

    /// Builds a table by evaluating `f` on every minterm.
    ///
    /// The argument to `f` is the minterm index; bit `i` is the value of
    /// variable `i`.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > MAX_VARS`.
    pub fn from_fn(num_vars: usize, mut f: impl FnMut(u64) -> bool) -> Self {
        Self::assert_vars(num_vars);
        let mut t = Self::zero(num_vars);
        for m in 0..(1u64 << num_vars) {
            if f(m) {
                t.set_bit(m);
            }
        }
        t
    }

    /// Builds a table from the low `2^num_vars` bits of `bits`.
    ///
    /// Only valid for `num_vars <= 6`.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > 6`.
    pub fn from_bits(num_vars: usize, bits: u64) -> Self {
        assert!(num_vars <= 6, "from_bits supports at most 6 variables");
        TruthTable {
            num_vars,
            words: vec![bits & Self::tail_mask(num_vars)],
        }
    }

    /// Builds a table from its packed words (bit `m & 63` of word
    /// `m >> 6` is minterm `m`); bits past minterm `2^num_vars - 1` are
    /// cleared.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > MAX_VARS` or `words` is not
    /// `max(1, 2^num_vars / 64)` long.
    pub fn from_words(num_vars: usize, mut words: Vec<u64>) -> Self {
        Self::assert_vars(num_vars);
        assert_eq!(
            words.len(),
            Self::word_count(num_vars),
            "{num_vars}-variable table needs {} words",
            Self::word_count(num_vars)
        );
        words[0] &= Self::tail_mask(num_vars);
        TruthTable { num_vars, words }
    }

    /// Number of variables of this table.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of minterms (bits) in this table.
    pub fn num_bits(&self) -> u64 {
        1u64 << self.num_vars
    }

    /// Value of the function on minterm `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m >= 2^num_vars`.
    pub fn bit(&self, m: u64) -> bool {
        assert!(m < self.num_bits(), "minterm {m} out of range");
        (self.words[(m >> 6) as usize] >> (m & 63)) & 1 == 1
    }

    /// Sets the function value on minterm `m` to true.
    ///
    /// # Panics
    ///
    /// Panics if `m >= 2^num_vars`.
    pub fn set_bit(&mut self, m: u64) {
        assert!(m < self.num_bits(), "minterm {m} out of range");
        self.words[(m >> 6) as usize] |= 1u64 << (m & 63);
    }

    /// Number of minterms on which the function is true.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Whether the function is constant false.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether the function is constant true.
    pub fn is_one(&self) -> bool {
        *self == Self::one(self.num_vars)
    }

    /// The underlying packed words (bit `m & 63` of word `m >> 6`).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    fn zip(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        assert_eq!(
            self.num_vars, other.num_vars,
            "truth table variable counts differ"
        );
        TruthTable {
            num_vars: self.num_vars,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Three-input majority `M(a, b, c) = ab + ac + bc`.
    ///
    /// # Panics
    ///
    /// Panics if the variable counts differ.
    pub fn maj(a: &Self, b: &Self, c: &Self) -> Self {
        assert_eq!(a.num_vars, b.num_vars);
        assert_eq!(a.num_vars, c.num_vars);
        TruthTable {
            num_vars: a.num_vars,
            words: a
                .words
                .iter()
                .zip(&b.words)
                .zip(&c.words)
                .map(|((&x, &y), &z)| (x & y) | (x & z) | (y & z))
                .collect(),
        }
    }

    /// If-then-else `s ? t : e`.
    ///
    /// # Panics
    ///
    /// Panics if the variable counts differ.
    pub fn ite(s: &Self, t: &Self, e: &Self) -> Self {
        assert_eq!(s.num_vars, t.num_vars);
        assert_eq!(s.num_vars, e.num_vars);
        TruthTable {
            num_vars: s.num_vars,
            words: s
                .words
                .iter()
                .zip(&t.words)
                .zip(&e.words)
                .map(|((&x, &y), &z)| (x & y) | (!x & z))
                .collect(),
        }
    }

    /// The positive cofactor with respect to variable `var` (still over the
    /// same variable set; the cofactored variable becomes irrelevant).
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn cofactor1(&self, var: usize) -> Self {
        assert!(var < self.num_vars);
        let mut t = self.clone();
        if var < 6 {
            let shift = 1u32 << var;
            let p = VAR_PATTERNS[var];
            for w in &mut t.words {
                let hi = *w & p;
                *w = hi | (hi >> shift);
            }
            if self.num_vars < 6 {
                t.words[0] &= Self::tail_mask(self.num_vars);
            }
        } else {
            let period = 1usize << (var - 6);
            let n = t.words.len();
            let mut i = 0;
            while i < n {
                for j in 0..period {
                    t.words[i + j] = self.words[i + period + j];
                }
                for j in 0..period {
                    t.words[i + period + j] = self.words[i + period + j];
                }
                i += 2 * period;
            }
        }
        t
    }

    /// The negative cofactor with respect to variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn cofactor0(&self, var: usize) -> Self {
        assert!(var < self.num_vars);
        let mut t = self.clone();
        if var < 6 {
            let shift = 1u32 << var;
            let p = !VAR_PATTERNS[var];
            for w in &mut t.words {
                let lo = *w & p;
                *w = lo | (lo << shift);
            }
            if self.num_vars < 6 {
                t.words[0] &= Self::tail_mask(self.num_vars);
            }
        } else {
            let period = 1usize << (var - 6);
            let n = t.words.len();
            let mut i = 0;
            while i < n {
                for j in 0..period {
                    t.words[i + period + j] = self.words[i + j];
                }
                i += 2 * period;
            }
        }
        t
    }

    /// Whether the function depends on variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn depends_on(&self, var: usize) -> bool {
        self.cofactor0(var) != self.cofactor1(var)
    }

    /// The set of variables the function actually depends on.
    pub fn support(&self) -> Vec<usize> {
        (0..self.num_vars).filter(|&v| self.depends_on(v)).collect()
    }

    /// Re-expresses this table over `new_num_vars >= num_vars` variables;
    /// the added variables are irrelevant.
    ///
    /// # Panics
    ///
    /// Panics if `new_num_vars < num_vars` or `new_num_vars > MAX_VARS`.
    pub fn extend_to(&self, new_num_vars: usize) -> Self {
        assert!(new_num_vars >= self.num_vars);
        Self::assert_vars(new_num_vars);
        if new_num_vars == self.num_vars {
            return self.clone();
        }
        let mut t = Self::zero(new_num_vars);
        if self.num_vars < 6 {
            // Replicate the partial word across each 64-bit word.
            let chunk = 1u64 << self.num_vars;
            let mut word = self.words[0];
            let mut width = chunk;
            while width < 64 {
                word |= word << width;
                width *= 2;
            }
            let cap = Self::tail_mask(new_num_vars.min(6));
            for w in &mut t.words {
                *w = word;
            }
            if new_num_vars < 6 {
                t.words[0] = word & cap;
            }
        } else {
            let n = self.words.len();
            for (i, w) in t.words.iter_mut().enumerate() {
                *w = self.words[i % n];
            }
        }
        t
    }
}

impl BitAnd for &TruthTable {
    type Output = TruthTable;
    fn bitand(self, rhs: Self) -> TruthTable {
        self.zip(rhs, |a, b| a & b)
    }
}

impl BitOr for &TruthTable {
    type Output = TruthTable;
    fn bitor(self, rhs: Self) -> TruthTable {
        self.zip(rhs, |a, b| a | b)
    }
}

impl BitXor for &TruthTable {
    type Output = TruthTable;
    fn bitxor(self, rhs: Self) -> TruthTable {
        self.zip(rhs, |a, b| a ^ b)
    }
}

impl Not for &TruthTable {
    type Output = TruthTable;
    fn not(self) -> TruthTable {
        let mut t = TruthTable {
            num_vars: self.num_vars,
            words: self.words.iter().map(|&w| !w).collect(),
        };
        if self.num_vars < 6 {
            t.words[0] &= TruthTable::tail_mask(self.num_vars);
        }
        t
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({} vars, ", self.num_vars)?;
        if self.num_vars <= 6 {
            write!(f, "{:0width$b})", self.words[0], width = 1 << self.num_vars)
        } else {
            write!(f, "{} words)", self.words.len())
        }
    }
}

impl fmt::Display for TruthTable {
    /// Hexadecimal spelling, most significant minterm first (ABC style).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.num_vars <= 2 {
            return write!(f, "{:x}", self.words[0]);
        }
        for w in self.words.iter().rev() {
            if self.num_vars < 6 {
                let digits = (1usize << self.num_vars) / 4;
                write!(f, "{:0width$x}", w, width = digits)?;
            } else {
                write!(f, "{w:016x}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_patterns_small() {
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        assert_eq!(a.words()[0], 0b1010);
        assert_eq!(b.words()[0], 0b1100);
    }

    #[test]
    fn var_patterns_large() {
        let t = TruthTable::var(8, 7);
        for m in 0..256u64 {
            assert_eq!(t.bit(m), (m >> 7) & 1 == 1, "minterm {m}");
        }
    }

    #[test]
    fn constants() {
        assert!(TruthTable::zero(4).is_zero());
        assert!(TruthTable::one(4).is_one());
        assert_eq!(TruthTable::one(3).count_ones(), 8);
        assert_eq!(TruthTable::one(9).count_ones(), 512);
    }

    #[test]
    fn ops_match_semantics() {
        for n in [2usize, 3, 5, 7, 8] {
            let a = TruthTable::var(n, 0);
            let b = TruthTable::var(n, n - 1);
            let and = &a & &b;
            let or = &a | &b;
            let xor = &a ^ &b;
            let na = !&a;
            for m in 0..(1u64 << n) {
                let x = m & 1 == 1;
                let y = (m >> (n - 1)) & 1 == 1;
                assert_eq!(and.bit(m), x && y);
                assert_eq!(or.bit(m), x || y);
                assert_eq!(xor.bit(m), x ^ y);
                assert_eq!(na.bit(m), !x);
            }
        }
    }

    #[test]
    fn maj_is_majority() {
        for n in [3usize, 7] {
            let a = TruthTable::var(n, 0);
            let b = TruthTable::var(n, 1);
            let c = TruthTable::var(n, 2);
            let m = TruthTable::maj(&a, &b, &c);
            for x in 0..(1u64 << n) {
                let bits = (x & 1) + ((x >> 1) & 1) + ((x >> 2) & 1);
                assert_eq!(m.bit(x), bits >= 2);
            }
        }
    }

    #[test]
    fn ite_matches() {
        let n = 3;
        let s = TruthTable::var(n, 0);
        let t = TruthTable::var(n, 1);
        let e = TruthTable::var(n, 2);
        let ite = TruthTable::ite(&s, &t, &e);
        for m in 0..8u64 {
            let sv = m & 1 == 1;
            let tv = (m >> 1) & 1 == 1;
            let ev = (m >> 2) & 1 == 1;
            assert_eq!(ite.bit(m), if sv { tv } else { ev });
        }
    }

    #[test]
    fn cofactors_small_and_large() {
        for n in [3usize, 7, 8] {
            for v in 0..n {
                let f = TruthTable::from_fn(n, |m| (m.count_ones() % 3) == 1);
                let c1 = f.cofactor1(v);
                let c0 = f.cofactor0(v);
                for m in 0..(1u64 << n) {
                    let m1 = m | (1 << v);
                    let m0 = m & !(1 << v);
                    assert_eq!(c1.bit(m), f.bit(m1), "c1 n={n} v={v} m={m}");
                    assert_eq!(c0.bit(m), f.bit(m0), "c0 n={n} v={v} m={m}");
                }
            }
        }
    }

    #[test]
    fn support_detection() {
        let n = 5;
        let a = TruthTable::var(n, 1);
        let b = TruthTable::var(n, 3);
        let f = &a ^ &b;
        assert_eq!(f.support(), vec![1, 3]);
        assert!(!f.depends_on(0));
        assert!(f.depends_on(3));
    }

    #[test]
    fn extend_preserves_function() {
        let f = TruthTable::from_fn(3, |m| m.count_ones() == 2);
        for target in [3usize, 5, 6, 7, 9] {
            let g = f.extend_to(target);
            for m in 0..(1u64 << target) {
                assert_eq!(g.bit(m), f.bit(m & 7), "target {target} m {m}");
            }
        }
    }

    #[test]
    fn from_fn_round_trip() {
        let f = TruthTable::from_fn(4, |m| m % 3 == 0);
        for m in 0..16u64 {
            assert_eq!(f.bit(m), m % 3 == 0);
        }
        assert_eq!(
            f.count_ones(),
            (0..16u64).filter(|m| m % 3 == 0).count() as u64
        );
    }

    #[test]
    fn display_hex() {
        let a = TruthTable::var(3, 0);
        assert_eq!(a.to_string(), "aa");
        let c = TruthTable::var(3, 2);
        assert_eq!(c.to_string(), "f0");
    }

    #[test]
    #[should_panic(expected = "variable counts differ")]
    fn mismatched_vars_panic() {
        let _ = &TruthTable::zero(3) & &TruthTable::zero(4);
    }
}
