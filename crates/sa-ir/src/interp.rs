//! Sequential reference interpreter and shared evaluation machinery.
//!
//! The interpreter executes a [`Program`] in plain sequential order on
//! single-assignment arrays, producing the *golden* results every
//! distributed execution (simulated or real-thread) must match bit-for-bit.
//! It evaluates through [`crate::body`], the compiled statement bodies the
//! simulator and the thread runtime run too, and the [`Memory`] trait is
//! the seam where each executor decides what a load costs — so index
//! resolution (including gather reads, which count as array accesses!)
//! and expression evaluation are literally the same code everywhere.

pub use sa_mem::PageMemo;
use sa_mem::SaArray;

use crate::body::NestBody;
use crate::index::IndexExpr;
use crate::nest::{ArrayRef, Stmt};
use crate::program::{Phase, Program};
use crate::{ArrayId, IrError};

/// Abstract element store used during evaluation.
///
/// Implementations decide what a `load` *costs*: the reference interpreter
/// just reads, the simulator classifies the access local/cached/remote,
/// and the real-thread runtime may send messages and block.
pub trait Memory {
    /// Read linear element `addr` of `array`.
    fn load(&mut self, array: ArrayId, addr: usize) -> Result<f64, IrError>;

    /// [`Memory::load`] from an access site that remembers, in `memo`,
    /// what this memory last told it about a page (its owner, its frame).
    /// A memory that places pages looks a page up once per run of
    /// accesses to it; the default has nothing to remember.
    #[inline]
    fn load_at(
        &mut self,
        array: ArrayId,
        addr: usize,
        memo: &mut PageMemo,
    ) -> Result<f64, IrError> {
        let _ = memo;
        self.load(array, addr)
    }
}

/// Resolve an [`ArrayRef`] to a linear address at iteration `ivs`, loading
/// indirect index cells through `mem`.
///
/// These are the resolution rules of the system: the compiled statement
/// bodies the interpreter, the counting simulator and the thread runtime
/// run ([`crate::body`]) resolve gathers and rank mismatches through the
/// same `fold_address` and `gather_index`, and check an affine
/// reference's dimensions in the same order, so a subscript can never
/// resolve differently between executors. Ownership screening calls it
/// directly — `sa_lint::screening::Schedule::owner` takes a non-counting
/// `mem` to discover where an indirect anchor lands.
pub fn resolve_ref_addr(
    program: &Program,
    aref: &ArrayRef,
    ivs: &[i64],
    mem: &mut impl Memory,
) -> Result<usize, IrError> {
    fold_address(program, aref.array, aref.indices.len(), |d| {
        match &aref.indices[d] {
            IndexExpr::Affine(a) => Ok(a.eval(ivs)),
            IndexExpr::Indirect {
                base,
                pos,
                scale,
                offset,
            } => gather_index(program, *base, pos.eval(ivs), *scale, *offset, |p| {
                mem.load(*base, p)
            }),
        }
    })
}

/// Fold the `n` indices `index(0), index(1), …` of a reference to `array`
/// into a row-major linear address.
///
/// The first bounds failure is held back until every index has resolved,
/// so all index loads still happen — and are counted — before the
/// reference's own bounds are judged, as `ArrayDecl::linearize` after a
/// full resolution pass would; a rank mismatch is reported after the
/// loads too, ahead of any bounds failure.
#[inline]
pub(crate) fn fold_address(
    program: &Program,
    array: ArrayId,
    n: usize,
    mut index: impl FnMut(usize) -> Result<i64, IrError>,
) -> Result<usize, IrError> {
    let decl = program.array(array);
    let mut addr = 0usize;
    let mut out_of_bounds = None;
    for d in 0..n {
        let i = index(d)?;
        let Some(&extent) = decl.dims.get(d) else {
            continue; // more indices than dimensions: a rank mismatch below
        };
        if i < 0 || i as usize >= extent {
            out_of_bounds.get_or_insert((d, i, extent));
        } else {
            addr = addr * extent + i as usize;
        }
    }
    if n != decl.dims.len() {
        return Err(IrError::RankMismatch {
            array: decl.name.clone(),
            got: n,
            want: decl.dims.len(),
        });
    }
    match out_of_bounds {
        Some((dim, index, extent)) => Err(IrError::IndexOutOfBounds {
            array: decl.name.clone(),
            dim,
            index,
            extent,
        }),
        None => Ok(addr),
    }
}

/// The index a gather `scale * base[pos] + offset` yields, loading
/// `base[pos]` through `load` once `pos` is inside `base`.
#[inline]
pub(crate) fn gather_index(
    program: &Program,
    base: ArrayId,
    pos: i64,
    scale: i64,
    offset: i64,
    load: impl FnOnce(usize) -> Result<f64, IrError>,
) -> Result<i64, IrError> {
    let base_decl = program.array(base);
    if pos < 0 || pos as usize >= base_decl.len() {
        return Err(IrError::IndexOutOfBounds {
            array: base_decl.name.clone(),
            dim: 0,
            index: pos,
            extent: base_decl.len(),
        });
    }
    Ok(scale * (load(pos as usize)? as i64) + offset)
}

/// Final state of a program run.
#[derive(Debug, Clone)]
pub struct ProgramResult {
    /// Final array stores, indexable by `ArrayId`.
    pub arrays: Vec<SaArray<f64>>,
    /// Final reduction values.
    pub scalars: Vec<f64>,
    /// Total element writes performed.
    pub writes: usize,
    /// Total element reads performed (including gather index loads).
    pub reads: usize,
}

impl ProgramResult {
    /// Compare the defined cells of every array (and all scalars) with
    /// another result, within `tol`. Returns a human-readable mismatch.
    pub fn assert_matches(&self, other: &ProgramResult, tol: f64) -> Result<(), String> {
        if self.arrays.len() != other.arrays.len() {
            return Err(format!(
                "array count mismatch: {} vs {}",
                self.arrays.len(),
                other.arrays.len()
            ));
        }
        for (i, (a, b)) in self.arrays.iter().zip(&other.arrays).enumerate() {
            if a.len() != b.len() {
                return Err(format!(
                    "array {i} length mismatch: {} vs {}",
                    a.len(),
                    b.len()
                ));
            }
            for addr in 0..a.len() {
                let va = a.read(addr).map_err(|e| e.to_string())?;
                let vb = b.read(addr).map_err(|e| e.to_string())?;
                match (va, vb) {
                    (None, None) => {}
                    (Some(x), Some(y)) => {
                        if !((x - y).abs() <= tol || (x.is_nan() && y.is_nan())) {
                            return Err(format!(
                                "array {} ({}) addr {}: {} vs {}",
                                i,
                                a.name(),
                                addr,
                                x,
                                y
                            ));
                        }
                    }
                    (da, db) => {
                        return Err(format!(
                            "array {} ({}) addr {}: definedness mismatch {:?} vs {:?}",
                            i,
                            a.name(),
                            addr,
                            da.is_some(),
                            db.is_some()
                        ))
                    }
                }
            }
        }
        for (i, (x, y)) in self.scalars.iter().zip(&other.scalars).enumerate() {
            if (x - y).abs() > tol {
                return Err(format!("scalar {i}: {x} vs {y}"));
            }
        }
        Ok(())
    }
}

struct SeqMemory {
    arrays: Vec<SaArray<f64>>,
    reads: usize,
}

impl Memory for SeqMemory {
    fn load(&mut self, array: ArrayId, addr: usize) -> Result<f64, IrError> {
        self.reads += 1;
        let a = &self.arrays[array.0];
        match a.read(addr) {
            Ok(Some(v)) => Ok(*v),
            Ok(None) => Err(IrError::ReadUndefined {
                array: a.name().to_string(),
                addr,
            }),
            Err(_) => Err(IrError::IndexOutOfBounds {
                array: a.name().to_string(),
                dim: 0,
                index: addr as i64,
                extent: a.len(),
            }),
        }
    }
}

/// Build the generation-0 stores for a program's arrays.
pub fn initial_stores(program: &Program) -> Vec<SaArray<f64>> {
    program
        .arrays
        .iter()
        .map(|d| SaArray::with_prefix(d.name.clone(), d.len(), d.init.materialize(d.len())))
        .collect()
}

/// Run the program sequentially, enforcing single assignment, and return
/// the golden results.
///
/// Errors surface the first semantic violation: double write, read of a
/// never-defined cell, or an out-of-bounds index.
pub fn interpret(program: &Program) -> Result<ProgramResult, IrError> {
    let mut scalars = vec![0.0; program.scalars.len()];
    let mut mem = SeqMemory {
        arrays: initial_stores(program),
        reads: 0,
    };
    let mut writes = 0usize;

    for phase in &program.phases {
        match phase {
            Phase::Reinit(id) => {
                mem.arrays[id.0].reinit();
            }
            Phase::Loop(nest) => {
                // Seed reductions with their identities before the nest runs.
                for stmt in &nest.body {
                    if let Stmt::Reduce { target, op, .. } = stmt {
                        scalars[target.0] = op.identity();
                    }
                }
                let body = NestBody::compile(program, nest);
                let mut frame = body.frame();
                nest.try_for_each_sweep(|sweep| {
                    body.enter(&mut frame, sweep);
                    for t in 0..sweep.trips as i64 {
                        for (si, stmt) in nest.body.iter().enumerate() {
                            let v = body.value(si, t, &mut frame, &scalars, &mut mem)?;
                            match stmt {
                                Stmt::Assign { .. } => {
                                    let site = body.target(si).expect("an assignment's target");
                                    let addr = body.addr(site, t, &mut frame, &mut mem)?;
                                    let store = &mut mem.arrays[body.array(site).0];
                                    store.write(addr, v).map_err(|_| IrError::DoubleWrite {
                                        array: store.name().to_string(),
                                        addr,
                                    })?;
                                    writes += 1;
                                }
                                Stmt::Reduce { target, op, .. } => {
                                    scalars[target.0] = op.combine(scalars[target.0], v);
                                }
                            }
                        }
                    }
                    Ok::<(), IrError>(())
                })?;
            }
        }
    }

    Ok(ProgramResult {
        arrays: mem.arrays,
        scalars,
        writes,
        reads: mem.reads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::expr::ReduceOp;
    use crate::index::iv;
    use crate::program::InitPattern;

    /// X(k) = 2*Y(k) + 1 over k=0..9.
    fn simple_program() -> Program {
        let mut b = ProgramBuilder::new("simple");
        let y = b.input(
            "Y",
            &[10],
            InitPattern::Linear {
                base: 0.0,
                step: 1.0,
            },
        );
        let x = b.output("X", &[10]);
        b.nest("main", &[("k", 0, 9)], |n| {
            n.assign(x, [iv(0)], 2.0 * n.read(y, [iv(0)]) + 1.0);
        });
        b.finish()
    }

    #[test]
    fn straight_line_map_produces_expected_values() {
        let p = simple_program();
        let r = interpret(&p).unwrap();
        for k in 0..10 {
            let got = *r.arrays[1].read(k).unwrap().unwrap();
            assert_eq!(got, 2.0 * k as f64 + 1.0);
        }
        assert_eq!(r.writes, 10);
        assert_eq!(r.reads, 10);
    }

    #[test]
    fn recurrence_reads_prefix_init() {
        // X(0) = 100 (prefix init); X(i) = X(i-1) + 1 for i=1..9.
        let mut b = ProgramBuilder::new("rec");
        let x = b.array_with(
            "X",
            &[10],
            crate::program::ArrayInit::Prefix {
                pattern: InitPattern::Const(100.0),
                len: 1,
            },
        );
        b.nest("rec", &[("i", 1, 9)], |n| {
            n.assign(x, [iv(0)], n.read(x, [iv(0).plus(-1)]) + 1.0);
        });
        let r = interpret(&b.finish()).unwrap();
        assert_eq!(*r.arrays[0].read(9).unwrap().unwrap(), 109.0);
    }

    #[test]
    fn double_write_is_detected() {
        let mut b = ProgramBuilder::new("dw");
        let x = b.output("X", &[4]);
        b.nest("bad", &[("i", 0, 3)], |n| {
            n.assign(x, [AffineIndex::constant(0)], Expr::LoopVar(0));
        });
        use crate::index::AffineIndex;
        use crate::Expr;
        let err = interpret(&b.finish()).unwrap_err();
        assert!(matches!(err, IrError::DoubleWrite { addr: 0, .. }));
    }

    #[test]
    fn read_of_undefined_is_detected() {
        let mut b = ProgramBuilder::new("ru");
        let x = b.output("X", &[4]);
        let y = b.output("Y", &[4]);
        b.nest("bad", &[("i", 0, 3)], |n| {
            n.assign(x, [iv(0)], n.read(y, [iv(0)]));
        });
        let err = interpret(&b.finish()).unwrap_err();
        assert!(matches!(err, IrError::ReadUndefined { .. }));
    }

    #[test]
    fn reduction_accumulates_with_identity() {
        // s = Σ Y(k), Y = 0..9 → 45.
        let mut b = ProgramBuilder::new("red");
        let y = b.input(
            "Y",
            &[10],
            InitPattern::Linear {
                base: 0.0,
                step: 1.0,
            },
        );
        let s = b.scalar("s");
        b.nest("sum", &[("k", 0, 9)], |n| {
            n.reduce(s, ReduceOp::Sum, n.read(y, [iv(0)]));
        });
        let r = interpret(&b.finish()).unwrap();
        assert_eq!(r.scalars[0], 45.0);
    }

    #[test]
    fn reinit_allows_second_generation() {
        let mut b = ProgramBuilder::new("gen");
        let x = b.output("X", &[4]);
        b.nest("g0", &[("i", 0, 3)], |n| {
            n.assign(x, [iv(0)], Expr::LoopVar(0));
        });
        use crate::Expr;
        b.reinit(x);
        b.nest("g1", &[("i", 0, 3)], |n| {
            n.assign(x, [iv(0)], Expr::LoopVar(0) * 10.0);
        });
        let r = interpret(&b.finish()).unwrap();
        assert_eq!(*r.arrays[0].read(3).unwrap().unwrap(), 30.0);
        assert_eq!(r.arrays[0].generation(), 1);
    }

    #[test]
    fn gather_reads_count_and_permute() {
        // X(k) = D(P(k)) where P is the identity permutation reversed by
        // hand: use Permutation pattern and verify X is a permutation of D.
        let mut b = ProgramBuilder::new("gather");
        let d = b.input(
            "D",
            &[16],
            InitPattern::Linear {
                base: 0.0,
                step: 2.0,
            },
        );
        let perm = b.input("P", &[16], InitPattern::Permutation { seed: 7 });
        let x = b.output("X", &[16]);
        b.nest("g", &[("k", 0, 15)], |n| {
            n.assign(x, [iv(0)], n.read_indirect(d, perm, iv(0)));
        });
        let r = interpret(&b.finish()).unwrap();
        // Every X value must be one of D's values (even numbers 0..30).
        let mut got: Vec<f64> = (0..16)
            .map(|k| *r.arrays[2].read(k).unwrap().unwrap())
            .collect();
        got.sort_by(f64::total_cmp);
        assert_eq!(got, (0..16).map(|i| 2.0 * i as f64).collect::<Vec<_>>());
        // Reads: one gather index load + one data load per iteration.
        assert_eq!(r.reads, 32);
    }

    #[test]
    fn address_resolution_keeps_linearize_errors_and_their_precedence() {
        // `resolve_ref_addr` folds the linearization in index by index; it
        // must report what resolving every index first and handing the
        // vector to `ArrayDecl::linearize` reports — after the same loads.
        use crate::index::{AffineIndex, IndexExpr};
        use crate::nest::ArrayRef;
        let mut b = ProgramBuilder::new("addr");
        let a = b.input("A", &[4, 5], InitPattern::Wavy);
        let perm = b.input("P", &[8], InitPattern::Permutation { seed: 1 });
        let p = b.finish();
        let gather = |pos: i64, offset: i64| IndexExpr::Indirect {
            base: perm,
            pos: AffineIndex::constant(pos),
            scale: 1,
            offset,
        };
        let c = |v: i64| IndexExpr::Affine(AffineIndex::constant(v));
        let cases: Vec<Vec<IndexExpr>> = vec![
            vec![c(3), c(4)],                    // in bounds
            vec![c(4), c(9)],                    // both out: dimension 0 wins
            vec![c(0), c(-1)],                   // negative
            vec![c(1)],                          // too few indices
            vec![c(1), c(1), c(1)],              // too many
            vec![c(9), gather(2, 100)],          // out in 0 and in the gathered 1
            vec![gather(0, -100), gather(1, 0)], // both gathered
            vec![c(9), gather(8, 0)],            // the index array's own bounds first
        ];
        for indices in cases {
            let aref = ArrayRef::new(a, indices);
            let mut mem = SeqMemory {
                arrays: initial_stores(&p),
                reads: 0,
            };
            let got = resolve_ref_addr(&p, &aref, &[], &mut mem);
            let got_reads = mem.reads;

            mem.reads = 0;
            let want = (|| {
                let mut idx = Vec::new();
                for ix in &aref.indices {
                    idx.push(match ix {
                        IndexExpr::Affine(a) => a.eval(&[]),
                        IndexExpr::Indirect {
                            base,
                            pos,
                            scale,
                            offset,
                        } => {
                            let at = pos.eval(&[]);
                            if at < 0 || at as usize >= p.array(*base).len() {
                                return Err(IrError::IndexOutOfBounds {
                                    array: p.array(*base).name.clone(),
                                    dim: 0,
                                    index: at,
                                    extent: p.array(*base).len(),
                                });
                            }
                            scale * (mem.load(*base, at as usize)? as i64) + offset
                        }
                    });
                }
                p.array(a).linearize(&idx)
            })();
            assert_eq!(got, want, "{:?}", aref.indices);
            assert_eq!(got_reads, mem.reads, "index loads of {:?}", aref.indices);
        }
    }

    #[test]
    fn result_comparison_detects_mismatch() {
        let p = simple_program();
        let a = interpret(&p).unwrap();
        let b = interpret(&p).unwrap();
        assert!(a.assert_matches(&b, 0.0).is_ok());
        let mut c = interpret(&p).unwrap();
        c.scalars.push(0.0); // harmless: zip stops at shorter
        let mut d = interpret(&p).unwrap();
        d.arrays[1] = SaArray::new("X", 10);
        assert!(a.assert_matches(&d, 0.0).is_err());
    }
}
