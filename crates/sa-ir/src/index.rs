//! Index expressions: affine functions of loop variables plus indirection.

use crate::ArrayId;

/// An affine function of the enclosing nest's loop variables:
/// `coeffs[0]*i0 + coeffs[1]*i1 + … + offset`.
///
/// `coeffs` is implicitly zero-extended, so an index built for an inner
/// variable works unchanged if the nest later gains more loops.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AffineIndex {
    /// Per-loop-variable coefficients, outermost first.
    pub coeffs: Vec<i64>,
    /// Constant offset.
    pub offset: i64,
}

impl AffineIndex {
    /// The constant index `c`.
    pub fn constant(c: i64) -> Self {
        AffineIndex {
            coeffs: Vec::new(),
            offset: c,
        }
    }

    /// The bare loop variable `var` (coefficient 1).
    pub fn var(var: usize) -> Self {
        Self::scaled_var(1, var)
    }

    /// `coeff * var`.
    pub fn scaled_var(coeff: i64, var: usize) -> Self {
        let mut coeffs = vec![0; var + 1];
        coeffs[var] = coeff;
        AffineIndex { coeffs, offset: 0 }
    }

    /// Coefficient of loop variable `var` (0 if absent).
    pub fn coeff(&self, var: usize) -> i64 {
        self.coeffs.get(var).copied().unwrap_or(0)
    }

    /// Evaluate at the given loop-variable values (outermost first).
    #[inline]
    pub fn eval(&self, ivs: &[i64]) -> i64 {
        self.offset + crate::access::dot(&self.coeffs, ivs)
    }

    /// Coefficient vector zero-padded/truncated to exactly `nvars` entries.
    pub fn coeffs_padded(&self, nvars: usize) -> Vec<i64> {
        (0..nvars).map(|v| self.coeff(v)).collect()
    }

    /// Add a constant to the index.
    pub fn plus(mut self, d: i64) -> Self {
        self.offset += d;
        self
    }

    /// Sum of two affine indices.
    pub fn add(&self, other: &AffineIndex) -> Self {
        let n = self.coeffs.len().max(other.coeffs.len());
        let coeffs = (0..n).map(|v| self.coeff(v) + other.coeff(v)).collect();
        AffineIndex {
            coeffs,
            offset: self.offset + other.offset,
        }
    }

    /// Scale the whole index by a constant.
    pub fn scale(mut self, s: i64) -> Self {
        for c in &mut self.coeffs {
            *c *= s;
        }
        self.offset *= s;
        self
    }

    /// True if the index depends on no loop variable.
    pub fn is_constant(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }
}

impl From<i64> for AffineIndex {
    fn from(c: i64) -> Self {
        AffineIndex::constant(c)
    }
}

/// A (possibly indirect) index expression.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexExpr {
    /// A direct affine index.
    Affine(AffineIndex),
    /// A gather through an index array: `scale * base[pos] + offset`
    /// (the "permutation lookups" the paper blames for Random-class
    /// behaviour, §7.1.4). `base[pos]` is read as `f64` and truncated.
    Indirect {
        /// Array holding the indices.
        base: ArrayId,
        /// Where in `base` to read (affine; rank-1 index arrays only).
        pos: AffineIndex,
        /// Multiplier applied to the fetched value.
        scale: i64,
        /// Constant added after scaling.
        offset: i64,
    },
}

impl IndexExpr {
    /// The gather `scale · base[pos] + offset`.
    pub fn gather(base: ArrayId, pos: AffineIndex, scale: i64, offset: i64) -> Self {
        IndexExpr::Indirect {
            base,
            pos,
            scale,
            offset,
        }
    }

    /// The affine payload if this is a direct index.
    pub fn as_affine(&self) -> Option<&AffineIndex> {
        match self {
            IndexExpr::Affine(a) => Some(a),
            IndexExpr::Indirect { .. } => None,
        }
    }

    /// True if this index involves a gather.
    pub fn is_indirect(&self) -> bool {
        matches!(self, IndexExpr::Indirect { .. })
    }
}

impl From<AffineIndex> for IndexExpr {
    fn from(a: AffineIndex) -> Self {
        IndexExpr::Affine(a)
    }
}

impl From<i64> for IndexExpr {
    fn from(c: i64) -> Self {
        IndexExpr::Affine(AffineIndex::constant(c))
    }
}

/// Shorthand for [`AffineIndex::var`].
pub fn iv(var: usize) -> AffineIndex {
    AffineIndex::var(var)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_affine_combinations() {
        // 2*i + 3*j - 4 at (i,j) = (5, 7) → 10 + 21 - 4 = 27
        let a = AffineIndex {
            coeffs: vec![2, 3],
            offset: -4,
        };
        assert_eq!(a.eval(&[5, 7]), 27);
        assert_eq!(a.coeff(0), 2);
        assert_eq!(a.coeff(9), 0);
    }

    #[test]
    fn var_and_plus_build_skews() {
        let k = iv(0);
        assert_eq!(k.clone().plus(10).eval(&[3]), 13);
        assert_eq!(AffineIndex::scaled_var(2, 1).eval(&[9, 4]), 8);
        assert_eq!(AffineIndex::constant(6).eval(&[1, 2, 3]), 6);
        assert!(AffineIndex::constant(6).is_constant());
        assert!(!iv(0).is_constant());
    }

    #[test]
    fn add_and_scale_compose() {
        let a = iv(0).plus(1); // i + 1
        let b = AffineIndex::scaled_var(3, 1); // 3j
        let s = a.add(&b).scale(2); // 2i + 6j + 2
        assert_eq!(s.eval(&[10, 100]), 20 + 600 + 2);
    }

    #[test]
    fn coeffs_padded_extends_and_truncates() {
        let a = iv(1); // [0, 1]
        assert_eq!(a.coeffs_padded(4), vec![0, 1, 0, 0]);
        let b = AffineIndex {
            coeffs: vec![5, 6, 7],
            offset: 0,
        };
        assert_eq!(b.coeffs_padded(2), vec![5, 6]);
    }

    #[test]
    fn index_expr_conversions() {
        let e: IndexExpr = iv(0).plus(2).into();
        assert!(!e.is_indirect());
        assert_eq!(e.as_affine().unwrap().offset, 2);
        let g = IndexExpr::Indirect {
            base: ArrayId(0),
            pos: iv(0),
            scale: 1,
            offset: 0,
        };
        assert!(g.is_indirect());
        assert!(g.as_affine().is_none());
        let c: IndexExpr = 4i64.into();
        assert_eq!(c.as_affine().unwrap().offset, 4);
    }
}
