//! # sa-loops — the Livermore Loops in single-assignment form
//!
//! The paper's evaluation (§6–§7) runs "a set of loops (extracted from the
//! Livermore Loops benchmark program) with data access patterns that are
//! typically found in scientific programs". This crate expresses those
//! kernels in the `sa-ir` loop-nest IR, faithful to the FORTRAN originals:
//!
//! * **Index fidelity.** Loop bounds, strides and index expressions are
//!   taken verbatim from the LFK sources (1-based indices preserved; index
//!   0 of each array is padding).
//! * **Layout fidelity.** FORTRAN arrays are column-major — the *first*
//!   subscript varies fastest. Since `sa-ir` linearizes row-major, a
//!   FORTRAN reference `A(i,k)` is written here as `A[[k],[i]]` (dims
//!   reversed). This is what makes GLRE and ADI jump across pages (the
//!   paper's Random class) and makes 2-D Explicit Hydro revisit planes
//!   cyclically (the paper's Fig. 3).
//! * **Single-assignment conversion.** Kernels that re-use arrays
//!   (K18's `ZU = ZU + …`, K21's running matrix product) are array-expanded
//!   exactly as the paper's §5 "automatic conversion tool" would do;
//!   in-loop scalar accumulations become `Reduce` statements collected at
//!   the host PE (§9's vector→scalar mechanism).
//!
//! Every kernel module documents its FORTRAN original, its default problem
//! size (the official LFK sizes) and the access class the paper assigns it
//! (where the paper names it).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod k01_hydro;
pub mod k02_iccg;
pub mod k03_inner_product;
pub mod k04_banded;
pub mod k05_tridiag;
pub mod k06_glre;
pub mod k07_eos;
pub mod k08_adi;
pub mod k09_integrate;
pub mod k10_diff_predict;
pub mod k11_first_sum;
pub mod k12_first_diff;
pub mod k13_pic2d;
pub mod k14_pic1d;
pub mod k18_hydro2d;
pub mod k21_matmul;
pub mod k22_planckian;
pub mod k24_argmin;
pub mod spmv;
pub mod stencil;
pub mod suite;

pub use suite::{
    reduced_suite, scale_suite, suite, workload, workloads, Family, Kernel, Size, Workload,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_complete_and_interpretable() {
        let kernels = suite();
        assert_eq!(kernels.len(), 18);
        for k in &kernels {
            assert!(
                sa_ir::interpret(&k.program).is_ok(),
                "{} must be valid single-assignment",
                k.code
            );
        }
    }

    #[test]
    fn reduced_registry_is_interpretable() {
        // Every registry entry — variants and scale workloads included —
        // is valid single-assignment at its reduced size.
        for k in reduced_suite() {
            assert!(
                sa_ir::interpret(&k.program).is_ok(),
                "{} must be valid single-assignment",
                k.code
            );
        }
    }

    #[test]
    fn paper_named_kernels_are_present() {
        let kernels = suite();
        let codes: Vec<&str> = kernels.iter().map(|k| k.code).collect();
        // Every kernel the paper names in §7 must be in the suite.
        for code in [
            "K1", "K2", "K5", "K6", "K7", "K8", "K11", "K12", "K14", "K18",
        ] {
            assert!(codes.contains(&code), "paper kernel {code} missing");
        }
    }
}
