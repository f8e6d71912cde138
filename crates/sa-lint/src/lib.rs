//! # sa-lint — static analysis for single-assignment programs
//!
//! [`lint_program`] runs four passes over the loop-nest IR, all
//! zero-execution:
//!
//! * **Write-once verification** ([`writeonce::check_write_once`]) — proves
//!   the single-assignment property per array generation with closed-form
//!   conflict tests (Banerjee-style range, GCD lattice residue, disjoint
//!   index intervals per dimension, mixed-radix self-injectivity, a
//!   scatter through a permutation), then over per-sweep write runs,
//!   falling back to exact per-cell enumeration that recovers the two
//!   conflicting iteration vectors.
//! * **Progress** ([`progress::check_progress`]) — dangling I-structure
//!   deferrals (reads no producer ever satisfies), indirect anchors with
//!   no static producer and provable out-of-bounds references: proved
//!   absent by counting complete generations and over per-sweep address
//!   runs where every read has an earlier producer, found by the instance
//!   walk otherwise.
//! * **Partition legality** ([`progress::check_partition`]) — partition
//!   schemes that orphan PEs.
//! * **Deadlock freedom** ([`depgraph::check_deadlock`]) — a per-config
//!   proof that no cyclic I-structure wait exists, or the cycle as `SA008`
//!   with the iteration vectors and owning PEs along it.
//!
//! Beside them the crate holds what the passes and the engines share:
//!
//! * **Dependence graphs** ([`depgraph`]) — the generation-level
//!   producer→consumer graph single assignment makes statically
//!   derivable, with work/span analysis and partition-projected speedup
//!   bounds.
//! * **The owner-computes schedule** ([`screening`]) every counting engine
//!   runs on. The crate counts no accesses itself: cache-less counts are
//!   `sa_core::replay`'s.
//!
//! Findings are reported through the machine-readable [`Diagnostic`]
//! model (severity, stable code, span, explanation, JSON rendering), so
//! CLI tables, CI gates and tests all consume the same structure.

#![forbid(unsafe_code)]

pub mod depgraph;
pub mod diag;
mod footprint;
pub mod progress;
pub mod screening;
mod sites;
pub mod writeonce;

pub use depgraph::{
    check_deadlock, speedup_bound, summary, DepEdge, DepGraph, EdgeKind, GraphSummary,
    InstanceError, Node, NodeKind, SiteRef,
};
pub use diag::{max_severity, to_json_array, Code, Diagnostic, Severity, Span};
pub use progress::{check_partition, check_progress};
#[doc(hidden)]
pub use sites::unproduced_anchors;
pub use writeonce::{check_write_once, WriteOnceReport};

use std::cell::Cell;

use sa_ir::Program;
use sa_machine::PartitionScheme;

thread_local! {
    static BY_INSTANCE: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with write-once and progress on their per-instance reference
/// path: the cell-by-cell enumeration wherever the linearized address
/// tests are inconclusive, and the instance walk for every program, as if
/// no footprint — per-sweep runs, the per-dimension and scatter rules,
/// complete generations counted — had proved anything. What the
/// footprints prove is certified against it (`tests/lint_proptests.rs`).
#[doc(hidden)]
pub fn by_instance<T>(f: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            BY_INSTANCE.with(|b| b.set(self.0));
        }
    }
    let _restore = Restore(BY_INSTANCE.with(|b| b.replace(true)));
    f()
}

/// Whether the exact passes may decide over footprints — per-sweep
/// address runs, or the closed-form rules that need none
/// ([`by_instance`] says no).
fn by_footprint() -> bool {
    !BY_INSTANCE.with(Cell::get)
}

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
    // One progress pass — a sweep proof, else one walk of the instance
    // stream — serves the progress checks and tells the deadlock proof
    // whether there is a wait graph worth building.
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

    /// `lint_program` proves a program that runs in order over sweeps and
    /// walks no instance; one that defers a read forward is walked twice —
    /// for the progress checks, then under the schedule for the wait graph
    /// (the write-once proof of both is closed-form).
    #[test]
    fn an_in_order_program_is_not_walked() {
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
        for (consumer_first, walks) in [(false, 0), (true, 2)] {
            let before = sites::instances_walked();
            let diags = lint_program(&program(consumer_first), &cfg);
            assert!(diags.is_empty(), "{diags:?}");
            assert_eq!(sites::instances_walked() - before, walks * 12);
        }
    }

    /// Every entry point that observes a program proves the stencils (the
    /// write-once pass over their boundary strips included) and K1 over
    /// sweeps, without walking an instance; a read nobody defines is still
    /// found by the walk.
    #[test]
    fn the_stencils_and_k1_walk_no_instance() {
        // A shape that leaves no PE without pages at the reduced sizes.
        let cfg = LintConfig {
            n_pes: 4,
            page_size: 8,
            scheme: PartitionScheme::Modulo,
        };
        let passes = |p: &Program| {
            let before = sites::instances_walked();
            let mut diags = lint_program(p, &cfg);
            diags.extend(check_write_once(p).diagnostics);
            diags.extend(check_progress(p));
            diags.extend(check_deadlock(p, &cfg));
            (diags, sites::instances_walked() - before)
        };
        for code in ["ST5", "ST9", "ST7", "K1"] {
            let kernel = sa_loops::workload(code).expect("registry code").reduced();
            let (diags, walked) = passes(&kernel.program);
            assert!(diags.is_empty(), "{code}: {diags:?}");
            assert_eq!(walked, 0, "{code}");
            // The reference path walks the same program: the counter counts.
            let (_, by_instance) = by_instance(|| passes(&kernel.program));
            assert!(by_instance > 0, "{code}");
        }
        let mut b = ProgramBuilder::new("dangling");
        let x = b.output("X", &[8]);
        let z = b.output("Z", &[8]);
        b.nest("produce-half", &[("k", 0, 3)], |nb| {
            nb.assign(x, [iv(0)], Expr::Const(1.0));
        });
        b.nest("consume-all", &[("k", 0, 7)], |nb| {
            let rhs = nb.read(x, [iv(0)]);
            nb.assign(z, [iv(0)], rhs);
        });
        let (diags, walked) = passes(&b.finish());
        assert!(diags.iter().any(|d| d.code == Code::Sa004DanglingRead));
        assert!(walked > 0);
    }

    /// Per exact pass, the registry kernels at official size decided
    /// without the instances: progress walks none, and write-once leaves
    /// some generation to the exact footprint but enumerates none cell by
    /// cell (no kernel: the closed form decides them all).
    #[test]
    fn the_registry_kernels_decided_over_sweeps() {
        let (mut progress, mut write_once) = (Vec::new(), Vec::new());
        for w in sa_loops::workloads() {
            let p = w.official().program;
            let walked = sites::instances_walked();
            check_progress(&p);
            if sites::instances_walked() == walked {
                progress.push(w.code);
            }
            let cells = writeonce::segments_enumerated();
            let once = check_write_once(&p);
            let left_open = once.over_sweeps + once.enumerated > 0;
            if left_open && writeonce::segments_enumerated() == cells {
                write_once.push(w.code);
            }
        }
        assert_eq!(
            progress,
            [
                "K1", "K3", "K4", "K7", "K8", "K9", "K10", "K12", "K13", "K14", "K18", "K21",
                "K22", "K24", "K13S", "K14F", "K14S", "ST5", "ST9", "ST7", "SPMV", "SPMVD"
            ]
        );
        // Rung 1's per-dimension test leaves no registry segment open.
        assert_eq!(write_once, [] as [&str; 0]);
    }

    /// Per registry kernel at official size, the rung deciding each
    /// write-once segment — `(closed form, over sweeps, cell by cell)` —
    /// and whether progress laid down any sweep and walked the instances.
    /// The stencils and the sparse kernels are decided in closed form
    /// throughout; K2, K5, K6 and K11 still walk.
    #[test]
    fn the_registry_kernels_are_decided_by_these_rungs() {
        let decided: Vec<_> = sa_loops::workloads()
            .iter()
            .map(|w| {
                let p = w.official().program;
                let once = check_write_once(&p);
                let seen = progress::progress_report(&p);
                let segments = (once.proven_affine, once.over_sweeps, once.enumerated);
                (w.code, segments, seen.over_sweeps > 0, seen.walked)
            })
            .collect();
        let (none, laid, walked) = ((false, false), (true, false), (true, true));
        let expected = [
            ("K1", (1, 0, 0), none),
            ("K2", (1, 0, 0), walked),
            ("K3", (0, 0, 0), none),
            ("K4", (1, 0, 0), none),
            ("K5", (1, 0, 0), walked),
            ("K6", (2, 0, 0), walked),
            ("K7", (1, 0, 0), none),
            ("K8", (6, 0, 0), laid),
            ("K9", (1, 0, 0), none),
            ("K10", (1, 0, 0), none),
            ("K11", (1, 0, 0), walked),
            ("K12", (1, 0, 0), none),
            ("K13", (5, 0, 0), laid),
            ("K14", (1, 0, 0), none),
            ("K18", (6, 0, 0), laid),
            ("K21", (1, 0, 0), laid),
            ("K22", (2, 0, 0), none),
            ("K24", (0, 0, 0), none),
            ("K13S", (5, 0, 0), laid),
            ("K14F", (4, 0, 0), laid),
            ("K14S", (5, 0, 0), laid),
            ("ST5", (2, 0, 0), none),
            ("ST9", (2, 0, 0), none),
            ("ST7", (2, 0, 0), none),
            ("SPMV", (2, 0, 0), none),
            ("SPMVD", (2, 0, 0), none),
        ];
        let expected: Vec<_> = expected
            .into_iter()
            .map(|(code, segments, (sweeps, walks))| (code, segments, sweeps, walks))
            .collect();
        assert_eq!(decided, expected);
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
