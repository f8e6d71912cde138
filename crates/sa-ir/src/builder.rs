//! Ergonomic construction of [`Program`]s.
//!
//! Kernels read close to their FORTRAN originals:
//!
//! ```
//! use sa_ir::{ProgramBuilder, InitPattern, index::iv, interpret};
//!
//! // DO 1 k = 1,n:  X(k) = Q + Y(k) * (R*ZX(k+10) + T*ZX(k+11))
//! let n = 100i64;
//! let mut b = ProgramBuilder::new("hydro");
//! let q = b.param("Q", 0.5);
//! let r = b.param("R", 0.25);
//! let t = b.param("T", 0.125);
//! let y = b.input("Y", &[n as usize + 1], InitPattern::Wavy);
//! let zx = b.input("ZX", &[n as usize + 12], InitPattern::Harmonic);
//! let x = b.output("X", &[n as usize + 1]);
//! b.nest("k1", &[("k", 1, n)], |nb| {
//!     let rhs = nb.par(q)
//!         + nb.read(y, [iv(0)])
//!             * (nb.par(r) * nb.read(zx, [iv(0).plus(10)])
//!                 + nb.par(t) * nb.read(zx, [iv(0).plus(11)]));
//!     nb.assign(x, [iv(0)], rhs);
//! });
//! let program = b.finish();
//! assert!(interpret(&program).is_ok());
//! ```

use crate::expr::{Expr, ReduceOp};
use crate::index::{AffineIndex, IndexExpr};
use crate::nest::{ArrayRef, LoopNest, LoopVar, Stmt};
use crate::program::{ArrayDecl, ArrayInit, InitPattern, Phase, Program};
use crate::{ArrayId, ParamId, ScalarId};

/// A structural defect detected by [`validate_program`] /
/// [`ProgramBuilder::try_finish`]: the kind of malformed construction that
/// previously surfaced only as a panic or an [`crate::IrError`] deep inside
/// an executor. Each variant carries enough context for the `sa-lint`
/// diagnostic model to point at the offending phase/statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// An array declared with no dimensions at all.
    RankZeroArray {
        /// The array's name.
        array: String,
    },
    /// A reference whose index count does not match the declared rank.
    RankMismatch {
        /// The referenced array's name.
        array: String,
        /// Phase index of the nest containing the reference.
        phase: usize,
        /// Indices supplied by the reference.
        got: usize,
        /// Rank the declaration expects.
        want: usize,
    },
    /// A reference to an array id past the declaration table.
    UnknownArray {
        /// The out-of-range id.
        id: usize,
        /// Phase index of the offending reference.
        phase: usize,
    },
    /// A reduction targeting a scalar id past the declaration table.
    UnknownScalar {
        /// The out-of-range id.
        id: usize,
        /// Phase index of the offending statement.
        phase: usize,
    },
    /// A parameter expression naming an undeclared parameter.
    UnknownParam {
        /// The out-of-range id.
        id: usize,
        /// Phase index of the offending expression.
        phase: usize,
    },
    /// An index or bound referencing a loop variable the nest lacks
    /// (or, for bounds, one at or inside its own level).
    UnboundLoopVar {
        /// The nest's label.
        nest: String,
        /// The referenced variable index.
        var: usize,
        /// Loop variables actually in scope at that point.
        in_scope: usize,
    },
    /// A loop with step 0, which would never terminate.
    ZeroStep {
        /// The nest's label.
        nest: String,
        /// The offending loop variable's name.
        var: String,
    },
    /// A gather through an index array that is not rank 1.
    IndexArrayNotRank1 {
        /// The index array's name.
        array: String,
        /// Phase index of the offending gather.
        phase: usize,
    },
}

impl core::fmt::Display for BuildError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BuildError::RankZeroArray { array } => {
                write!(f, "array `{array}` is declared with no dimensions")
            }
            BuildError::RankMismatch {
                array,
                phase,
                got,
                want,
            } => write!(
                f,
                "phase {phase}: reference to `{array}` has {got} indices but rank is {want}"
            ),
            BuildError::UnknownArray { id, phase } => {
                write!(f, "phase {phase}: reference to undeclared array #{id}")
            }
            BuildError::UnknownScalar { id, phase } => {
                write!(f, "phase {phase}: reduction into undeclared scalar #{id}")
            }
            BuildError::UnknownParam { id, phase } => {
                write!(f, "phase {phase}: use of undeclared parameter #{id}")
            }
            BuildError::UnboundLoopVar {
                nest,
                var,
                in_scope,
            } => write!(
                f,
                "nest `{nest}`: index references loop variable {var} but only {in_scope} are in scope"
            ),
            BuildError::ZeroStep { nest, var } => {
                write!(f, "nest `{nest}`: loop `{var}` has step 0 and would never terminate")
            }
            BuildError::IndexArrayNotRank1 { array, phase } => {
                write!(f, "phase {phase}: index array `{array}` must be rank 1")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for [`Program`]s. See the module docs for a worked example.
#[derive(Debug)]
pub struct ProgramBuilder {
    program: Program,
}

impl ProgramBuilder {
    /// Start a program named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            program: Program::new(name),
        }
    }

    /// Declare a fully initialized input array.
    pub fn input(&mut self, name: impl Into<String>, dims: &[usize], p: InitPattern) -> ArrayId {
        self.array_with(name, dims, ArrayInit::Full(p))
    }

    /// Declare an undefined (produced) output array.
    pub fn output(&mut self, name: impl Into<String>, dims: &[usize]) -> ArrayId {
        self.array_with(name, dims, ArrayInit::Undefined)
    }

    /// Declare an array with explicit initial definedness.
    pub fn array_with(
        &mut self,
        name: impl Into<String>,
        dims: &[usize],
        init: ArrayInit,
    ) -> ArrayId {
        let id = ArrayId(self.program.arrays.len());
        self.program.arrays.push(ArrayDecl {
            name: name.into(),
            dims: dims.to_vec(),
            init,
        });
        id
    }

    /// Declare a named runtime parameter.
    pub fn param(&mut self, name: impl Into<String>, value: f64) -> ParamId {
        let id = ParamId(self.program.params.len());
        self.program.params.push((name.into(), value));
        id
    }

    /// Declare a scalar reduction slot.
    pub fn scalar(&mut self, name: impl Into<String>) -> ScalarId {
        let id = ScalarId(self.program.scalars.len());
        self.program.scalars.push(name.into());
        id
    }

    /// Add a rectangular nest with constant inclusive bounds
    /// (`(name, lo, hi)` per loop, outermost first) and unit steps.
    pub fn nest(
        &mut self,
        label: impl Into<String>,
        loops: &[(&str, i64, i64)],
        f: impl FnOnce(&mut NestBuilder),
    ) {
        let loops = loops
            .iter()
            .map(|&(name, lo, hi)| LoopVar::simple(name, lo, hi))
            .collect::<Vec<_>>();
        self.nest_loops(label, loops, f);
    }

    /// Add a nest with fully general loops (affine bounds, non-unit steps).
    pub fn nest_loops(
        &mut self,
        label: impl Into<String>,
        loops: Vec<LoopVar>,
        f: impl FnOnce(&mut NestBuilder),
    ) {
        let mut nb = NestBuilder { body: Vec::new() };
        f(&mut nb);
        self.program.phases.push(Phase::Loop(LoopNest {
            label: label.into(),
            loops,
            body: nb.body,
        }));
    }

    /// Add a re-initialization phase for `array` (paper §5).
    pub fn reinit(&mut self, array: ArrayId) {
        self.program.phases.push(Phase::Reinit(array));
    }

    /// Finish and return the program.
    pub fn finish(self) -> Program {
        self.program
    }

    /// Finish after structural validation: every malformed construction
    /// that `finish` would let through to panic or error deep inside an
    /// executor is reported here as a typed [`BuildError`] instead.
    pub fn try_finish(self) -> Result<Program, BuildError> {
        validate_program(&self.program)?;
        Ok(self.program)
    }
}

/// Structurally validate a program: declaration ranks, id ranges, loop
/// variable scoping, loop steps and index-array shapes. This is the static
/// counterpart of the panics/[`crate::IrError`]s executors raise at run
/// time, shared by [`ProgramBuilder::try_finish`] and the `sa-lint` pass.
pub fn validate_program(program: &Program) -> Result<(), BuildError> {
    for decl in &program.arrays {
        if decl.dims.is_empty() {
            return Err(BuildError::RankZeroArray {
                array: decl.name.clone(),
            });
        }
    }
    for (phase_idx, phase) in program.phases.iter().enumerate() {
        match phase {
            Phase::Reinit(id) => {
                if id.0 >= program.arrays.len() {
                    return Err(BuildError::UnknownArray {
                        id: id.0,
                        phase: phase_idx,
                    });
                }
            }
            Phase::Loop(nest) => validate_nest(program, nest, phase_idx)?,
        }
    }
    Ok(())
}

fn validate_nest(program: &Program, nest: &LoopNest, phase: usize) -> Result<(), BuildError> {
    let nvars = nest.loops.len();
    for (level, lv) in nest.loops.iter().enumerate() {
        if lv.step == 0 {
            return Err(BuildError::ZeroStep {
                nest: nest.label.clone(),
                var: lv.name.clone(),
            });
        }
        // Bounds may only reference strictly-outer loop variables.
        for bound in [&lv.lo, &lv.hi] {
            if let Some(var) = first_var_at_or_past(bound, level) {
                return Err(BuildError::UnboundLoopVar {
                    nest: nest.label.clone(),
                    var,
                    in_scope: level,
                });
            }
        }
    }
    for stmt in &nest.body {
        if let Stmt::Reduce { target, .. } = stmt {
            if target.0 >= program.scalars.len() {
                return Err(BuildError::UnknownScalar {
                    id: target.0,
                    phase,
                });
            }
        }
        if let Some(target) = stmt.write_target() {
            validate_ref(program, target, nvars, &nest.label, phase)?;
        }
        validate_expr(program, stmt.value(), nvars, &nest.label, phase)?;
    }
    Ok(())
}

fn validate_expr(
    program: &Program,
    expr: &Expr,
    nvars: usize,
    nest: &str,
    phase: usize,
) -> Result<(), BuildError> {
    match expr {
        Expr::Read(aref) => validate_ref(program, aref, nvars, nest, phase),
        Expr::Param(p) if p.0 >= program.params.len() => {
            Err(BuildError::UnknownParam { id: p.0, phase })
        }
        Expr::Scalar(s) if s.0 >= program.scalars.len() => {
            Err(BuildError::UnknownScalar { id: s.0, phase })
        }
        Expr::Unary(_, a) => validate_expr(program, a, nvars, nest, phase),
        Expr::Binary(_, a, b) => {
            validate_expr(program, a, nvars, nest, phase)?;
            validate_expr(program, b, nvars, nest, phase)
        }
        _ => Ok(()),
    }
}

fn validate_ref(
    program: &Program,
    aref: &ArrayRef,
    nvars: usize,
    nest: &str,
    phase: usize,
) -> Result<(), BuildError> {
    if aref.array.0 >= program.arrays.len() {
        return Err(BuildError::UnknownArray {
            id: aref.array.0,
            phase,
        });
    }
    let decl = program.array(aref.array);
    if aref.indices.len() != decl.rank() {
        return Err(BuildError::RankMismatch {
            array: decl.name.clone(),
            phase,
            got: aref.indices.len(),
            want: decl.rank(),
        });
    }
    for ix in &aref.indices {
        let pos = match ix {
            IndexExpr::Affine(a) => a,
            IndexExpr::Indirect { base, pos, .. } => {
                if base.0 >= program.arrays.len() {
                    return Err(BuildError::UnknownArray { id: base.0, phase });
                }
                let base_decl = program.array(*base);
                if base_decl.rank() != 1 {
                    return Err(BuildError::IndexArrayNotRank1 {
                        array: base_decl.name.clone(),
                        phase,
                    });
                }
                pos
            }
        };
        if let Some(var) = first_var_at_or_past(pos, nvars) {
            return Err(BuildError::UnboundLoopVar {
                nest: nest.to_string(),
                var,
                in_scope: nvars,
            });
        }
    }
    Ok(())
}

/// First loop variable with a non-zero coefficient at index ≥ `limit`.
fn first_var_at_or_past(a: &AffineIndex, limit: usize) -> Option<usize> {
    a.coeffs
        .iter()
        .enumerate()
        .skip(limit)
        .find(|&(_, &c)| c != 0)
        .map(|(v, _)| v)
}

/// Builds the straight-line body of one nest.
#[derive(Debug)]
pub struct NestBuilder {
    body: Vec<Stmt>,
}

impl NestBuilder {
    /// An array read `array[indices…]` as an expression.
    pub fn read<I>(&self, array: ArrayId, indices: I) -> Expr
    where
        I: IntoIterator,
        I::Item: Into<IndexExpr>,
    {
        Expr::Read(ArrayRef::new(
            array,
            indices.into_iter().map(Into::into).collect(),
        ))
    }

    /// A stencil tap: `array[i0+offsets[0], i1+offsets[1], …]` where `i_d`
    /// is loop variable `d` of the enclosing nest — the row-major
    /// multi-dimensional addressing convention of [`crate::grid::Grid`]
    /// (loop variable `d` walks array dimension `d`). One offset per array
    /// dimension.
    pub fn read_off(&self, array: ArrayId, offsets: &[i64]) -> Expr {
        Expr::Read(ArrayRef::new(array, crate::grid::offset_taps(offsets)))
    }

    /// Append the stencil write `array[i0+offsets[0], …] ← value` — the
    /// assignment counterpart of [`NestBuilder::read_off`].
    pub fn assign_off(&mut self, array: ArrayId, offsets: &[i64], value: impl Into<Expr>) {
        self.body.push(Stmt::Assign {
            target: ArrayRef::new(array, crate::grid::offset_taps(offsets)),
            value: value.into(),
        });
    }

    /// A rank-1 gather `data[ base[pos] ]`.
    pub fn read_indirect(&self, data: ArrayId, base: ArrayId, pos: AffineIndex) -> Expr {
        Expr::Read(ArrayRef::new(
            data,
            vec![IndexExpr::gather(base, pos, 1, 0)],
        ))
    }

    /// A parameter as an expression.
    pub fn par(&self, p: ParamId) -> Expr {
        Expr::Param(p)
    }

    /// A previously produced reduction value as an expression.
    pub fn scalar_value(&self, s: ScalarId) -> Expr {
        Expr::Scalar(s)
    }

    /// Append `array[indices…] ← value`.
    pub fn assign<I>(&mut self, array: ArrayId, indices: I, value: impl Into<Expr>)
    where
        I: IntoIterator,
        I::Item: Into<IndexExpr>,
    {
        self.body.push(Stmt::Assign {
            target: ArrayRef::new(array, indices.into_iter().map(Into::into).collect()),
            value: value.into(),
        });
    }

    /// Append the rank-1 scatter `array[ base[pos] ] ← value` — a write
    /// whose target address goes through an index array (the statement
    /// anchor is *indirect*, so executors must resolve it before owner
    /// screening). Single assignment requires the `base[pos]` values hit
    /// by the nest to be pairwise distinct — e.g. a permutation.
    pub fn assign_indirect(
        &mut self,
        array: ArrayId,
        base: ArrayId,
        pos: AffineIndex,
        value: impl Into<Expr>,
    ) {
        self.body.push(Stmt::Assign {
            target: ArrayRef::new(array, vec![IndexExpr::gather(base, pos, 1, 0)]),
            value: value.into(),
        });
    }

    /// Append `scalar ← scalar ⊕ value`.
    pub fn reduce(&mut self, target: ScalarId, op: ReduceOp, value: impl Into<Expr>) {
        self.body.push(Stmt::Reduce {
            target,
            op,
            value: value.into(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::iv;

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut b = ProgramBuilder::new("t");
        let a = b.input("A", &[4], InitPattern::Zero);
        let c = b.output("C", &[4, 4]);
        let p = b.param("Q", 1.0);
        let q = b.param("R", 2.0);
        let s = b.scalar("acc");
        assert_eq!((a, c), (ArrayId(0), ArrayId(1)));
        assert_eq!((p, q), (ParamId(0), ParamId(1)));
        assert_eq!(s, ScalarId(0));
        let prog = b.finish();
        assert_eq!(prog.arrays[1].dims, vec![4, 4]);
        assert_eq!(prog.params[1], ("R".to_string(), 2.0));
    }

    #[test]
    fn nest_builder_produces_statements_in_order() {
        let mut b = ProgramBuilder::new("t");
        let x = b.output("X", &[8]);
        let y = b.input("Y", &[8], InitPattern::Zero);
        let s = b.scalar("sum");
        b.nest("n", &[("k", 0, 7)], |nb| {
            nb.assign(x, [iv(0)], nb.read(y, [iv(0)]) * 3.0);
            nb.reduce(s, ReduceOp::Sum, nb.read(y, [iv(0)]));
        });
        let prog = b.finish();
        let nest = prog.nests().next().unwrap();
        assert_eq!(nest.body.len(), 2);
        assert!(matches!(nest.body[0], Stmt::Assign { .. }));
        assert!(matches!(nest.body[1], Stmt::Reduce { .. }));
        assert_eq!(nest.loops[0].name, "k");
    }

    #[test]
    fn general_nest_supports_steps_and_affine_bounds() {
        let mut b = ProgramBuilder::new("t");
        let x = b.output("X", &[64]);
        b.nest_loops(
            "tri",
            vec![
                LoopVar::simple("i", 1, 5),
                LoopVar {
                    name: "k".into(),
                    lo: 0.into(),
                    hi: iv(0).plus(-1),
                    step: 2,
                },
            ],
            |nb| {
                nb.assign(x, [iv(0).scale(6).add(&iv(1))], Expr::Const(1.0));
            },
        );
        let prog = b.finish();
        let nest = prog.nests().next().unwrap();
        assert_eq!(nest.loops[1].step, 2);
        assert!(nest.iteration_count() > 0);
    }

    #[test]
    fn reinit_phase_recorded() {
        let mut b = ProgramBuilder::new("t");
        let x = b.output("X", &[4]);
        b.reinit(x);
        let prog = b.finish();
        assert_eq!(prog.phases.len(), 1);
        assert!(matches!(prog.phases[0], Phase::Reinit(a) if a == x));
    }
}
