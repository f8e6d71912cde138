//! Sparse matrix–vector product in CSR form — the scale-class gather
//! workload.
//!
//! The paper blames its Random class on "permutation lookups" (§7.1.4);
//! SpMV is that pattern at production scale: a sparse matrix stored as
//! `row_ptr` / `col_idx` / `vals`, with every multiply gathering `x`
//! through `col_idx` and locating its row's values through `row_ptr`.
//!
//! **Representable structure.** The IR's loop bounds are affine in outer
//! loop variables only and its gathers take affine positions, so a row's
//! trip count cannot depend on a *value* of `row_ptr`: the builders emit
//! CSR matrices with a **uniform row degree** `deg` (`row_ptr(i) = deg·i`,
//! materialized as a real index array and gathered through — the engines
//! never exploit its regularity). Irregular row degrees need
//! value-dependent trip counts, noted as a ROADMAP follow-up.
//!
//! Per row `i`, the single nest `spmv-gather` unrolls the `deg` nonzeros as
//! body statements (constant offset `t` into the row), chaining a running
//! sum through `S` — the standard SA conversion of the accumulation loop:
//!
//! ```text
//! S(i,0) = VALS(ROWPTR(i)+0) * X(COLIDX(deg·i+0))
//! S(i,t) = S(i,t-1) + VALS(ROWPTR(i)+t) * X(COLIDX(deg·i+t))   t = 1..deg-1
//! ```
//!
//! and `spmv-collect` extracts `Y(i) = S(i,deg-1)`.
//!
//! Two variants:
//!
//! * [`build_csr`] — `row_ptr`/`col_idx` fully statically initialized
//!   ([`ArrayInit::Full`]): every engine handles it, and the compiled
//!   replay fast path resolves the gathers from the static init patterns.
//! * [`build_csr_dynamic`] — the index data is only
//!   [`ArrayInit::Prefix`]-initialized and the collect stage *scatters*
//!   `Y(ROWPERM(i)) = S(i,deg-1)` through a prefix-initialized row
//!   permutation. A defined prefix is constant cell by cell, so replay
//!   proves its gathers inside it and the schedule tabulates the
//!   scatter's owners, as for [`build_csr`].
//!
//! [`ArrayInit::Full`]: sa_ir::program::ArrayInit::Full
//! [`ArrayInit::Prefix`]: sa_ir::program::ArrayInit::Prefix

use sa_ir::index::{iv, IndexExpr};
use sa_ir::nest::ArrayRef;
use sa_ir::program::ArrayInit;
use sa_ir::{AccessClass, Expr, InitPattern, ProgramBuilder};

use crate::suite::Kernel;

/// Default seed for the column-index data.
const COL_SEED: u64 = 201;
/// Seed for the dynamic variant's row permutation.
const PERM_SEED: u64 = 202;

/// Build CSR SpMV with statically initialized index arrays:
/// `rows × cols` matrix, `deg` nonzeros per row (official size:
/// 16384 × 16384 at degree 8 — 131 072 nonzeros).
///
/// Panics unless `rows, cols, deg ≥ 1`.
pub fn build_csr(rows: usize, cols: usize, deg: usize) -> Kernel {
    build_with(rows, cols, deg, COL_SEED, false)
}

/// [`build_csr`] with an explicit seed for the column-index data (the
/// proptest differentials randomize the CSR structure through it).
pub fn build_csr_seeded(rows: usize, cols: usize, deg: usize, seed: u64) -> Kernel {
    build_with(rows, cols, deg, seed, false)
}

/// Build the "dynamic" CSR variant: index data is only
/// `Prefix`-initialized and the result vector is scattered through a
/// prefix-initialized row permutation.
///
/// Panics unless `rows, cols, deg ≥ 1`.
pub fn build_csr_dynamic(rows: usize, cols: usize, deg: usize) -> Kernel {
    build_with(rows, cols, deg, COL_SEED, true)
}

fn build_with(rows: usize, cols: usize, deg: usize, seed: u64, dynamic: bool) -> Kernel {
    assert!(
        rows >= 1 && cols >= 1 && deg >= 1,
        "SpMV needs rows/cols/deg ≥ 1"
    );
    let nnz = rows * deg;
    let mut b = ProgramBuilder::new(if dynamic {
        "SPMVD CSR sparse matvec (prefix index data)"
    } else {
        "SPMV CSR sparse matvec"
    });

    // Index data. `row_ptr` is a genuine CSR row-pointer array (monotone by
    // construction: Linear base 0 step deg); `col_idx` holds in-bounds
    // column indices (a permutation reduced modulo `cols`).
    let row_ptr_pat = InitPattern::Linear {
        base: 0.0,
        step: deg as f64,
    };
    let col_idx_pat = InitPattern::BoundedPermutation { seed, limit: cols };
    let (row_ptr, col_idx) = if dynamic {
        (
            b.array_with(
                "ROWPTR",
                &[rows + 1],
                ArrayInit::Prefix {
                    pattern: row_ptr_pat,
                    len: rows + 1,
                },
            ),
            b.array_with(
                "COLIDX",
                &[nnz],
                ArrayInit::Prefix {
                    pattern: col_idx_pat,
                    len: nnz,
                },
            ),
        )
    } else {
        (
            b.input("ROWPTR", &[rows + 1], row_ptr_pat),
            b.input("COLIDX", &[nnz], col_idx_pat),
        )
    };
    let row_perm = dynamic.then(|| {
        b.array_with(
            "ROWPERM",
            &[rows],
            ArrayInit::Prefix {
                pattern: InitPattern::Permutation { seed: PERM_SEED },
                len: rows,
            },
        )
    });
    let vals = b.input("VALS", &[nnz], InitPattern::Wavy);
    let x = b.input("X", &[cols], InitPattern::Harmonic);
    let s = b.output("S", &[rows, deg]);
    let y = b.output("Y", &[rows]);

    // One statement per nonzero of the row, chaining the running sum.
    b.nest("spmv-gather", &[("i", 0, rows as i64 - 1)], |nb| {
        for t in 0..deg as i64 {
            // VALS(ROWPTR(i) + t): the row-pointer gather.
            let a_it = Expr::Read(ArrayRef::new(
                vals,
                vec![IndexExpr::Indirect {
                    base: row_ptr,
                    pos: iv(0),
                    scale: 1,
                    offset: t,
                }],
            ));
            // X(COLIDX(deg·i + t)): the column gather.
            let x_it = Expr::Read(ArrayRef::new(
                x,
                vec![IndexExpr::Indirect {
                    base: col_idx,
                    pos: iv(0).scale(deg as i64).plus(t),
                    scale: 1,
                    offset: 0,
                }],
            ));
            let product = a_it * x_it;
            if t == 0 {
                nb.assign(s, [iv(0), 0i64.into()], product);
            } else {
                nb.assign(
                    s,
                    [iv(0), t.into()],
                    nb.read(s, [iv(0), (t - 1).into()]) + product,
                );
            }
        }
    });
    // Collect the row sums — scattered through the row permutation in the
    // dynamic variant (an indirect statement anchor), plain otherwise.
    b.nest("spmv-collect", &[("i", 0, rows as i64 - 1)], |nb| {
        let sum = nb.read(s, [iv(0), (deg as i64 - 1).into()]);
        match row_perm {
            Some(p) => nb.assign_indirect(y, p, iv(0), sum),
            None => nb.assign(y, [iv(0)], sum),
        }
    });

    Kernel {
        id: if dynamic { 202 } else { 201 },
        code: if dynamic { "SPMVD" } else { "SPMV" },
        name: if dynamic {
            "CSR SpMV (prefix index data, scattered result)"
        } else {
            "CSR SpMV"
        },
        program: b.finish(),
        expected_class: AccessClass::Random,
        paper_class: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_ir::{classify_program, interpret};

    /// Reference SpMV from the materialized init patterns.
    fn reference(rows: usize, cols: usize, deg: usize, seed: u64) -> Vec<f64> {
        let col_idx = InitPattern::BoundedPermutation { seed, limit: cols }.materialize(rows * deg);
        let vals = InitPattern::Wavy.materialize(rows * deg);
        let x = InitPattern::Harmonic.materialize(cols);
        (0..rows)
            .map(|i| {
                (0..deg)
                    .map(|t| vals[i * deg + t] * x[col_idx[i * deg + t] as usize])
                    .sum()
            })
            .collect()
    }

    #[test]
    fn matvec_matches_reference() {
        let (rows, cols, deg) = (60, 48, 5);
        let k = build_csr(rows, cols, deg);
        let r = interpret(&k.program).unwrap();
        let want = reference(rows, cols, deg, COL_SEED);
        let y = k.program.array_id("Y").unwrap();
        for (i, w) in want.iter().enumerate() {
            let got = *r.arrays[y.0].read(i).unwrap().unwrap();
            assert!((got - w).abs() < 1e-12, "Y({i})");
        }
    }

    #[test]
    fn dynamic_variant_permutes_the_result() {
        let (rows, cols, deg) = (40, 32, 3);
        let k = build_csr_dynamic(rows, cols, deg);
        let r = interpret(&k.program).unwrap();
        let want = reference(rows, cols, deg, COL_SEED);
        let perm = InitPattern::Permutation { seed: PERM_SEED }.materialize(rows);
        let y = k.program.array_id("Y").unwrap();
        for (i, w) in want.iter().enumerate() {
            let got = *r.arrays[y.0].read(perm[i] as usize).unwrap().unwrap();
            assert!((got - w).abs() < 1e-12, "Y(ROWPERM({i}))");
        }
    }

    #[test]
    fn classifies_as_random() {
        assert_eq!(
            classify_program(&build_csr(32, 32, 4).program).class,
            AccessClass::Random
        );
        assert_eq!(
            classify_program(&build_csr_dynamic(32, 32, 4).program).class,
            AccessClass::Random
        );
    }

    #[test]
    fn row_ptr_is_monotone_and_col_idx_in_bounds() {
        let (rows, cols, deg) = (100, 64, 7);
        let rp = InitPattern::Linear {
            base: 0.0,
            step: deg as f64,
        }
        .materialize(rows + 1);
        assert!(rp.windows(2).all(|w| w[0] < w[1]), "row_ptr monotone");
        assert_eq!(rp[rows] as usize, rows * deg, "row_ptr(rows) = nnz");
        let ci = InitPattern::BoundedPermutation {
            seed: COL_SEED,
            limit: cols,
        }
        .materialize(rows * deg);
        assert!(ci.iter().all(|&c| (c as usize) < cols), "col_idx in bounds");
    }

    #[test]
    fn degree_one_rows_work() {
        let k = build_csr(16, 16, 1);
        let r = interpret(&k.program).unwrap();
        let y = k.program.array_id("Y").unwrap();
        assert_eq!(r.arrays[y.0].defined_count(), 16);
    }
}
