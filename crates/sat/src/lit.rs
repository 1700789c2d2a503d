//! Boolean variables and literals.
//!
//! A [`Var`] is an index into the solver's variable table; a [`Lit`] packs
//! a variable and a sign into one `u32` (the low bit is the sign), the
//! standard MiniSat layout that makes literals directly usable as watch
//! list indices.

use std::fmt;
use std::ops::Not;

/// A propositional variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) u32);

impl Var {
    /// The variable's index in the solver's tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A literal: a variable or its negation.
///
/// The low bit is the sign (`1` = negated); the remaining bits are the
/// variable index, so `lit.code()` enumerates literals densely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The literal over `var`, negated iff `negated`.
    pub fn new(var: Var, negated: bool) -> Lit {
        Lit((var.0 << 1) | negated as u32)
    }

    /// The positive literal over `var`.
    pub fn positive(var: Var) -> Lit {
        Lit::new(var, false)
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether the literal is negated.
    pub fn is_negated(self) -> bool {
        self.0 & 1 == 1
    }

    /// The positive literal over the same variable.
    #[must_use]
    pub fn abs(self) -> Lit {
        Lit(self.0 & !1)
    }

    /// Dense index for watch lists (`2 * var + sign`).
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// The literal whose [`Lit::code`] is `code`. The solver's clause
    /// arena also stores each clause's length header in this form.
    pub(crate) fn from_code(code: u32) -> Lit {
        Lit(code)
    }
}

impl Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negated() {
            write!(f, "!{}", self.var())
        } else {
            write!(f, "{}", self.var())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_round_trips() {
        let v = Var(7);
        let l = Lit::new(v, true);
        assert_eq!(l.var(), v);
        assert!(l.is_negated());
        assert_eq!((!l).var(), v);
        assert!(!(!l).is_negated());
        assert_eq!(l.abs(), Lit::positive(v));
        assert_eq!(l.code(), 15);
        assert_eq!(l.to_string(), "!v7");
    }
}
