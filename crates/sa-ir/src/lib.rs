//! # sa-ir — loop-nest intermediate representation
//!
//! The paper's workloads are FORTRAN loop fragments (the Livermore Loops).
//! This crate provides the small IR in which those fragments are expressed so
//! that the *same* program object can be
//!
//! 1. interpreted sequentially ([`interp`]) to produce golden results,
//!    through the compiled statement bodies every executor runs
//!    ([`body`]),
//! 2. statically analysed ([`analysis`]) into the paper's four
//!    access-distribution classes (Matched / Skewed / Cyclic / Random),
//! 3. automatically converted to single-assignment form ([`ssa`]) — the
//!    "automatic conversion tool" of paper §5, and
//! 4. executed under owner-computes partitioning by `sa-core` / `sa-runtime`.
//!
//! The IR is deliberately FORTRAN-shaped: perfect or imperfect loop nests
//! with affine (plus indirect/gather) index expressions, inclusive bounds
//! that may depend affinely on outer loop variables (triangular nests), and
//! straight-line statement bodies over `f64` arithmetic.

#![warn(missing_docs)]

pub mod access;
pub mod analysis;
pub mod body;
pub mod builder;
pub mod expr;
pub mod grid;
pub mod index;
pub mod interp;
pub mod nest;
pub mod pretty;
pub mod program;
pub mod ssa;

pub use access::{LinForm, Line, Sweep};
pub use analysis::{classify_nest, classify_program, AccessClass, NestReport, PairRelation};
pub use builder::{validate_program, BuildError, ProgramBuilder};
pub use expr::{BinOp, Expr, ReduceOp, UnaryOp};
pub use grid::{Grid, GridError};
pub use index::{AffineIndex, IndexExpr};
pub use interp::{interpret, ProgramResult};
pub use nest::{ArrayRef, Bound, LoopNest, LoopVar, Stmt};
pub use program::{ArrayDecl, InitPattern, Phase, Program};

use core::fmt;

/// Identifies an array declared in a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub usize);

/// Identifies a scalar runtime parameter (FORTRAN `Q`, `R`, `T`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub usize);

/// Identifies a scalar reduction slot (vector→scalar results, paper §9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScalarId(pub usize);

/// Errors raised while evaluating or validating IR programs.
#[derive(Debug, Clone, PartialEq)]
pub enum IrError {
    /// A dimension index fell outside `0..extent`.
    IndexOutOfBounds {
        /// Array being accessed.
        array: String,
        /// Which dimension (0-based).
        dim: usize,
        /// The evaluated index value.
        index: i64,
        /// The dimension extent.
        extent: usize,
    },
    /// A single-assignment violation detected during interpretation.
    DoubleWrite {
        /// Array being written.
        array: String,
        /// Linearized element address.
        addr: usize,
    },
    /// A read of a cell that no statement ever defines.
    ReadUndefined {
        /// Array being read.
        array: String,
        /// Linearized element address.
        addr: usize,
    },
    /// Number of indices does not match the array's rank.
    RankMismatch {
        /// Array being accessed.
        array: String,
        /// Number of indices supplied.
        got: usize,
        /// Array rank.
        want: usize,
    },
    /// A loop bound evaluated such that the loop would run forever.
    BadLoopBounds {
        /// The nest label.
        nest: String,
        /// The loop variable name.
        var: String,
    },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::IndexOutOfBounds {
                array,
                dim,
                index,
                extent,
            } => write!(
                f,
                "index {index} out of bounds for dimension {dim} (extent {extent}) of array {array}"
            ),
            IrError::DoubleWrite { array, addr } => {
                write!(
                    f,
                    "single-assignment violation: {array}[{addr}] written twice"
                )
            }
            IrError::ReadUndefined { array, addr } => {
                write!(f, "read of undefined cell {array}[{addr}]")
            }
            IrError::RankMismatch { array, got, want } => {
                write!(
                    f,
                    "array {array} has rank {want} but was indexed with {got} indices"
                )
            }
            IrError::BadLoopBounds { nest, var } => {
                write!(f, "loop {var} in nest {nest} has a zero or divergent step")
            }
        }
    }
}

impl std::error::Error for IrError {}
