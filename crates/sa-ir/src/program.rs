//! Whole-program container: array declarations, parameters, phases.

use crate::nest::LoopNest;
use crate::{ArrayId, IrError};

/// Deterministic generators for initialization data.
///
/// The paper's arrays are "either undefined or filled with initialization
/// data" (§3); read-only inputs (e.g. `Y`, `ZX` in the Hydro Fragment) use
/// one of these patterns so that results are reproducible without real
/// Livermore input decks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitPattern {
    /// All zeros.
    Zero,
    /// All cells equal to `c`.
    Const(f64),
    /// `base + step * i` over the linear address `i`.
    Linear {
        /// Value at address 0.
        base: f64,
        /// Increment per address.
        step: f64,
    },
    /// `1 / (i + 1)` — mimics the decaying magnitudes of physics data and
    /// keeps recurrences numerically tame.
    Harmonic,
    /// `0.5 + sin(0.37 * i) / 4` — bounded, non-constant, irrational period.
    Wavy,
    /// A deterministic pseudo-random permutation of `0..len` stored as
    /// `f64`s; the index data that produces Random-class "permutation
    /// lookups" (paper §7.1.4). The seed makes distinct arrays differ.
    Permutation {
        /// Seed for the shuffle (SplitMix64 driven Fisher–Yates).
        seed: u64,
    },
    /// A permutation reduced modulo `limit` — bounded pseudo-random index
    /// data (particle→cell coordinates and similar).
    BoundedPermutation {
        /// Seed for the underlying permutation.
        seed: u64,
        /// Exclusive upper bound of every value.
        limit: usize,
    },
}

impl InitPattern {
    /// Materialize the first `len` values of the pattern.
    pub fn materialize(self, len: usize) -> Vec<f64> {
        match self {
            InitPattern::Zero => vec![0.0; len],
            InitPattern::Const(c) => vec![c; len],
            InitPattern::Linear { base, step } => {
                (0..len).map(|i| base + step * i as f64).collect()
            }
            InitPattern::Harmonic => (0..len).map(|i| 1.0 / (i as f64 + 1.0)).collect(),
            InitPattern::Wavy => (0..len)
                .map(|i| 0.5 + (0.37 * i as f64).sin() / 4.0)
                .collect(),
            InitPattern::BoundedPermutation { seed, limit } => InitPattern::Permutation { seed }
                .materialize(len)
                .into_iter()
                .map(|v| (v as usize % limit.max(1)) as f64)
                .collect(),
            InitPattern::Permutation { seed } => {
                let mut v: Vec<f64> = (0..len).map(|i| i as f64).collect();
                let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut next = move || {
                    // SplitMix64 — deterministic, dependency-free.
                    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^ (z >> 31)
                };
                for i in (1..len).rev() {
                    let j = (next() % (i as u64 + 1)) as usize;
                    v.swap(i, j);
                }
                v
            }
        }
    }
}

/// How generation 0 of an array starts out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrayInit {
    /// Every cell undefined — a produced array.
    Undefined,
    /// Every cell defined from the pattern — an input array.
    Full(InitPattern),
    /// Only linear addresses `0..len` defined — boundary/seed data for
    /// recurrences (e.g. `X(1)` in Tri-diagonal Elimination, or the input
    /// half of ICCG's `X`).
    Prefix {
        /// Pattern for the defined prefix.
        pattern: InitPattern,
        /// Number of defined leading cells.
        len: usize,
    },
}

impl ArrayInit {
    /// Number of initially defined cells for an array of `total` elements.
    pub fn defined_len(&self, total: usize) -> usize {
        match *self {
            ArrayInit::Undefined => 0,
            ArrayInit::Full(_) => total,
            ArrayInit::Prefix { len, .. } => len.min(total),
        }
    }

    /// Materialize initial values for the defined region (empty for
    /// `Undefined`).
    pub fn materialize(&self, total: usize) -> Vec<f64> {
        match *self {
            ArrayInit::Undefined => Vec::new(),
            ArrayInit::Full(p) => p.materialize(total),
            ArrayInit::Prefix { pattern, len } => pattern.materialize(len.min(total)),
        }
    }
}

/// Declaration of one array: name, shape, and how generation 0 starts.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDecl {
    /// Diagnostic name.
    pub name: String,
    /// Dimension extents, outermost first; linearized row-major.
    pub dims: Vec<usize>,
    /// Initial definedness of generation 0.
    pub init: ArrayInit,
}

impl ArrayDecl {
    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// True if the array has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Row-major strides: `strides[d]` is the address step of dimension `d`.
    pub fn strides(&self) -> Vec<usize> {
        let mut s = vec![1usize; self.dims.len()];
        for d in (0..self.dims.len().saturating_sub(1)).rev() {
            s[d] = s[d + 1] * self.dims[d + 1];
        }
        s
    }

    /// Linearize checked dimension indices into an address.
    pub fn linearize(&self, idx: &[i64]) -> Result<usize, IrError> {
        if idx.len() != self.dims.len() {
            return Err(IrError::RankMismatch {
                array: self.name.clone(),
                got: idx.len(),
                want: self.dims.len(),
            });
        }
        let mut addr = 0usize;
        for (d, (&i, &extent)) in idx.iter().zip(&self.dims).enumerate() {
            if i < 0 || i as usize >= extent {
                return Err(IrError::IndexOutOfBounds {
                    array: self.name.clone(),
                    dim: d,
                    index: i,
                    extent,
                });
            }
            addr = addr * extent + i as usize;
        }
        Ok(addr)
    }
}

/// One phase of a program's execution.
#[derive(Debug, Clone, PartialEq)]
pub enum Phase {
    /// Run a loop nest to completion.
    Loop(LoopNest),
    /// Re-initialize an array (all cells → undefined, generation += 1).
    /// In the distributed machine this triggers the host-processor
    /// synchronization protocol of paper §5.
    Reinit(ArrayId),
}

/// A complete workload: arrays, parameters, scalar slots and phases.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Diagnostic name (e.g. `"K1 hydro fragment"`).
    pub name: String,
    /// Array declarations; `ArrayId(i)` indexes this vector.
    pub arrays: Vec<ArrayDecl>,
    /// Named runtime parameters with their values; `ParamId(i)` indexes.
    pub params: Vec<(String, f64)>,
    /// Named scalar reduction slots; `ScalarId(i)` indexes.
    pub scalars: Vec<String>,
    /// Phases executed in order.
    pub phases: Vec<Phase>,
}

impl Program {
    /// An empty program shell (use [`crate::ProgramBuilder`] instead for
    /// anything nontrivial).
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            arrays: Vec::new(),
            params: Vec::new(),
            scalars: Vec::new(),
            phases: Vec::new(),
        }
    }

    /// Declaration of `id`. Panics on a dangling id (programs are built by
    /// the builder, which cannot produce one).
    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.0]
    }

    /// Only the loop phases, in order.
    pub fn nests(&self) -> impl Iterator<Item = &LoopNest> {
        self.phases.iter().filter_map(|p| match p {
            Phase::Loop(n) => Some(n),
            Phase::Reinit(_) => None,
        })
    }

    /// Total statement instances: per nest, its iterations times its
    /// statements (a nest with an empty body counts its iterations).
    pub fn instance_count(&self) -> u64 {
        self.nests()
            .map(|n| n.iteration_count() as u64 * n.body.len().max(1) as u64)
            .sum()
    }

    /// Total elements across all arrays (the simulated footprint).
    pub fn total_elements(&self) -> usize {
        self.arrays.iter().map(ArrayDecl::len).sum()
    }

    /// Look up a parameter id by name.
    pub fn param_id(&self, name: &str) -> Option<crate::ParamId> {
        self.params
            .iter()
            .position(|(n, _)| n == name)
            .map(crate::ParamId)
    }

    /// Look up an array id by name.
    pub fn array_id(&self, name: &str) -> Option<ArrayId> {
        self.arrays.iter().position(|a| a.name == name).map(ArrayId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_patterns_materialize_deterministically() {
        assert_eq!(InitPattern::Zero.materialize(3), vec![0.0, 0.0, 0.0]);
        assert_eq!(InitPattern::Const(2.5).materialize(2), vec![2.5, 2.5]);
        assert_eq!(
            InitPattern::Linear {
                base: 1.0,
                step: 0.5
            }
            .materialize(3),
            vec![1.0, 1.5, 2.0]
        );
        let h = InitPattern::Harmonic.materialize(4);
        assert_eq!(h[0], 1.0);
        assert_eq!(h[3], 0.25);
        let w = InitPattern::Wavy.materialize(100);
        assert!(w.iter().all(|&x| (0.25..=0.75).contains(&x)));
    }

    #[test]
    fn permutation_is_a_permutation_and_seed_sensitive() {
        let p = InitPattern::Permutation { seed: 1 }.materialize(257);
        let mut sorted: Vec<usize> = p.iter().map(|&x| x as usize).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..257).collect::<Vec<_>>());
        let q = InitPattern::Permutation { seed: 2 }.materialize(257);
        assert_ne!(p, q);
        // Same seed → same permutation.
        assert_eq!(p, InitPattern::Permutation { seed: 1 }.materialize(257));
    }

    #[test]
    fn bounded_permutation_stays_under_limit() {
        let v = InitPattern::BoundedPermutation { seed: 3, limit: 16 }.materialize(500);
        assert!(v.iter().all(|&x| (0.0..16.0).contains(&x)));
        let base = InitPattern::Permutation { seed: 3 }.materialize(500);
        assert!(v
            .iter()
            .zip(&base)
            .all(|(&b, &p)| b == (p as usize % 16) as f64));
        // limit 0 clamps to 1 (all zeros) rather than dividing by zero.
        let z = InitPattern::BoundedPermutation { seed: 3, limit: 0 }.materialize(8);
        assert!(z.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn array_init_defined_lengths() {
        assert_eq!(ArrayInit::Undefined.defined_len(10), 0);
        assert_eq!(ArrayInit::Full(InitPattern::Zero).defined_len(10), 10);
        assert_eq!(
            ArrayInit::Prefix {
                pattern: InitPattern::Zero,
                len: 3
            }
            .defined_len(10),
            3
        );
        // Prefix longer than the array clamps.
        assert_eq!(
            ArrayInit::Prefix {
                pattern: InitPattern::Zero,
                len: 30
            }
            .defined_len(10),
            10
        );
        assert_eq!(ArrayInit::Undefined.materialize(10), Vec::<f64>::new());
        assert_eq!(
            ArrayInit::Prefix {
                pattern: InitPattern::Const(2.0),
                len: 2
            }
            .materialize(10),
            vec![2.0, 2.0]
        );
    }

    #[test]
    fn strides_and_linearize_row_major() {
        let d = ArrayDecl {
            name: "A".into(),
            dims: vec![4, 5, 6],
            init: ArrayInit::Undefined,
        };
        assert_eq!(d.len(), 120);
        assert_eq!(d.strides(), vec![30, 6, 1]);
        assert_eq!(d.linearize(&[0, 0, 0]).unwrap(), 0);
        assert_eq!(d.linearize(&[1, 2, 3]).unwrap(), 30 + 12 + 3);
        assert_eq!(d.linearize(&[3, 4, 5]).unwrap(), 119);
    }

    #[test]
    fn linearize_rejects_bad_indices() {
        let d = ArrayDecl {
            name: "A".into(),
            dims: vec![4, 5],
            init: ArrayInit::Undefined,
        };
        assert!(matches!(
            d.linearize(&[4, 0]),
            Err(IrError::IndexOutOfBounds {
                dim: 0,
                index: 4,
                ..
            })
        ));
        assert!(matches!(
            d.linearize(&[0, -1]),
            Err(IrError::IndexOutOfBounds {
                dim: 1,
                index: -1,
                ..
            })
        ));
        assert!(matches!(
            d.linearize(&[0]),
            Err(IrError::RankMismatch {
                got: 1,
                want: 2,
                ..
            })
        ));
    }

    #[test]
    fn program_lookups() {
        let mut p = Program::new("t");
        p.arrays.push(ArrayDecl {
            name: "X".into(),
            dims: vec![10],
            init: ArrayInit::Undefined,
        });
        p.params.push(("Q".into(), 0.5));
        assert_eq!(p.array_id("X"), Some(ArrayId(0)));
        assert_eq!(p.array_id("Y"), None);
        assert_eq!(p.param_id("Q"), Some(crate::ParamId(0)));
        assert_eq!(p.total_elements(), 10);
        assert_eq!(p.array(ArrayId(0)).name, "X");
    }
}
