//! # sa-lint — static analysis for single-assignment programs
//!
//! Four passes over the loop-nest IR, all zero-execution:
//!
//! * **Write-once verification** ([`writeonce::check_write_once`]) — proves
//!   the single-assignment property per array generation with closed-form
//!   affine conflict tests (Banerjee-style range, GCD lattice residue,
//!   mixed-radix self-injectivity), falling back to exact footprint
//!   enumeration that recovers the two conflicting iteration vectors.
//! * **Progress and partition legality** ([`progress::check_progress`],
//!   [`progress::check_partition`]) — dangling I-structure deferrals
//!   (reads no producer ever satisfies), indirect anchors with no static
//!   producer, provable out-of-bounds references, and partition schemes
//!   that orphan PEs.
//! * **Communication estimation** ([`estimate::estimate`]) — per-PE
//!   local/remote access counts and network messages in closed form for
//!   any affine program × [`sa_machine::MachineConfig`], certified
//!   bit-identical against the counting simulator.
//! * **Dependence graphs** ([`depgraph`]) — the generation-level
//!   producer→consumer graph single assignment makes statically
//!   derivable, with work/span analysis, partition-projected speedup
//!   bounds, and a per-config deadlock-freedom proof (cyclic
//!   I-structure waits are reported as `SA008` with the iteration
//!   vectors and owning PEs along the cycle).
//!
//! Findings are reported through the machine-readable [`Diagnostic`]
//! model (severity, stable code, span, explanation, JSON rendering), so
//! CLI tables, CI gates and tests all consume the same structure.

pub mod depgraph;
pub mod diag;
pub mod estimate;
pub mod progress;
pub mod screening;
mod sites;
pub mod writeonce;

pub use depgraph::{
    check_deadlock, speedup_bound, static_writes_per_pe, summary, DepEdge, DepGraph, EdgeKind,
    GraphSummary, InstanceError, Node, NodeKind, SiteRef,
};
pub use diag::{max_severity, to_json_array, Code, Diagnostic, Severity, Span};
pub use estimate::{estimate, CommEstimate, EstimateError};
pub use progress::{check_partition, check_progress};
#[doc(hidden)]
pub use sites::unproduced_anchors;
pub use writeonce::{check_write_once, WriteOnceReport};

use sa_ir::Program;
use sa_machine::PartitionScheme;

/// Partition context the legality check runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LintConfig {
    /// Number of processing elements.
    pub n_pes: usize,
    /// Page size in elements.
    pub page_size: usize,
    /// Data partitioning scheme.
    pub scheme: PartitionScheme,
}

impl Default for LintConfig {
    /// The paper's default machine shape: 16 PEs, 32-element pages,
    /// modulo partitioning.
    fn default() -> Self {
        LintConfig {
            n_pes: 16,
            page_size: 32,
            scheme: PartitionScheme::Modulo,
        }
    }
}

/// Run every lint pass on `program` and return the combined findings,
/// worst first (stable within one severity).
///
/// Structural validation runs first: a malformed program (dangling ids,
/// rank mismatches, zero-step loops…) yields a single `SA007` error and
/// the deeper passes — which assume a structurally sound program — are
/// skipped. An invalid `cfg` (zero PEs, zero page size, an empty block or
/// tile) likewise yields one error-severity `PL001` in place of the two
/// passes that depend on it (partition legality and the deadlock proof).
pub fn lint_program(program: &Program, cfg: &LintConfig) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if let Err(e) = sa_ir::validate_program(program) {
        diags.push(
            Diagnostic::new(Code::Sa007Malformed, Span::default(), e.to_string()).explain(
                "The program fails structural validation (ProgramBuilder::try_finish \
                 reports the same error); executors would panic or abort on it, and \
                 the deeper lint passes assume a well-formed program, so they are \
                 skipped.",
            ),
        );
        return diags;
    }
    diags.extend(check_write_once(program).diagnostics);
    // One walk of the instance stream serves the progress checks and tells
    // the deadlock proof whether there is a wait graph worth building.
    let res = sites::Resolver::new(program);
    let seen = progress::observe(&res);
    diags.extend(seen.diagnostics);
    match progress::partition_pass(program, cfg.n_pes, cfg.page_size, cfg.scheme) {
        Ok(found) => {
            diags.extend(found);
            diags.extend(depgraph::deadlock(&res, cfg, || seen.forward_deferrals));
        }
        Err(e) => diags.push(progress::invalid_shape(e)),
    }
    // Stable sort: errors first, original pass order within a severity.
    diags.sort_by_key(|d| std::cmp::Reverse(d.severity));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_ir::index::iv;
    use sa_ir::{Expr, ProgramBuilder};

    #[test]
    fn malformed_program_short_circuits_to_sa007() {
        let mut b = ProgramBuilder::new("bad");
        let x = b.output("X", &[8]);
        b.nest("n", &[("k", 0, 7)], |nb| {
            nb.assign(x, [iv(1)], Expr::Const(0.0)); // iv(1) out of scope
        });
        let diags = lint_program(&b.finish(), &LintConfig::default());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::Sa007Malformed);
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn invalid_machine_shape_is_one_pl001_error() {
        let mut b = ProgramBuilder::new("ok");
        let x = b.output("X", &[64]);
        b.nest("fill", &[("k", 0, 63)], |nb| {
            nb.assign(x, [iv(0)], Expr::Const(0.0));
        });
        let p = b.finish();
        for (n_pes, page_size, why) in [(0, 32, "n_pes"), (16, 0, "page_size")] {
            let cfg = LintConfig {
                n_pes,
                page_size,
                ..LintConfig::default()
            };
            let diags = lint_program(&p, &cfg);
            assert_eq!(diags.len(), 1, "{diags:?}");
            assert_eq!(diags[0].code, Code::Pl001OrphanedPes);
            assert_eq!(diags[0].severity, Severity::Error);
            assert!(diags[0].message.contains(why), "{}", diags[0].message);
        }
    }

    #[test]
    fn clean_program_lints_clean() {
        let mut b = ProgramBuilder::new("ok");
        let x = b.output("X", &[1024]);
        let y = b.input("Y", &[1024], sa_ir::InitPattern::Wavy);
        b.nest("copy", &[("k", 0, 1023)], |nb| {
            let rhs = nb.read(y, [iv(0)]);
            nb.assign(x, [iv(0)], rhs);
        });
        let diags = lint_program(&b.finish(), &LintConfig::default());
        assert!(diags.is_empty(), "{diags:?}");
    }

    /// `lint_program` enumerates a program that runs in order once; one
    /// that defers a read forward a second time, under the schedule, for
    /// the wait graph (the write-once proof of both is closed-form).
    #[test]
    fn an_in_order_program_is_walked_once() {
        let program = |consumer_first: bool| {
            let mut b = ProgramBuilder::new("two");
            let x = b.output("X", &[8]);
            let z = b.output("Z", &[8]);
            // PE0's four consumers read the cells PE1 produces first.
            let consume = |b: &mut ProgramBuilder| {
                b.nest("consume", &[("k", 0, 3)], |nb| {
                    let rhs = nb.read(x, [iv(0).plus(4)]);
                    nb.assign(z, [iv(0)], rhs);
                });
            };
            if consumer_first {
                consume(&mut b);
            }
            b.nest("produce", &[("k", 0, 7)], |nb| {
                nb.assign(x, [iv(0)], Expr::Const(1.0));
            });
            if !consumer_first {
                consume(&mut b);
            }
            b.finish()
        };
        let cfg = LintConfig {
            n_pes: 2,
            page_size: 4,
            scheme: PartitionScheme::Modulo,
        };
        for (consumer_first, walks) in [(false, 1), (true, 2)] {
            let before = sites::instances_walked();
            let diags = lint_program(&program(consumer_first), &cfg);
            assert!(diags.is_empty(), "{diags:?}");
            assert_eq!(sites::instances_walked() - before, walks * 12);
        }
    }

    #[test]
    fn diagnostics_sorted_worst_first() {
        // A double write (error) and an orphaned-PE config (warning).
        let mut b = ProgramBuilder::new("mixed");
        let x = b.output("X", &[8]);
        b.nest("dup", &[("k", 0, 7)], |nb| {
            nb.assign(x, [iv(0)], Expr::Const(0.0));
            nb.assign(x, [iv(0)], Expr::Const(1.0));
        });
        let cfg = LintConfig {
            n_pes: 4,
            page_size: 32,
            scheme: PartitionScheme::Modulo,
        };
        let diags = lint_program(&b.finish(), &cfg);
        assert!(diags.len() >= 2, "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags.windows(2).all(|w| w[0].severity >= w[1].severity));
        assert!(diags.iter().any(|d| d.code == Code::Pl001OrphanedPes));
    }
}
