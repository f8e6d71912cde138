//! Progress and partition-legality checking.
//!
//! * `SA004` — a read of an element no initializer and no statement of the
//!   current array generation ever defines. Under the thread runtime's
//!   I-structure semantics such a read becomes a *dangling deferral*: the
//!   consumer parks forever because no producer exists. Definedness is
//!   checked against the union of all writes in the generation segment
//!   regardless of phase order — deferred reads legally consume values
//!   produced by later statements.
//! * `SA005` — an indirect statement anchor whose index array has no
//!   static producer (the scan `sa_runtime::unsupported_reason` renders too).
//! * `SA006` — a reference provably outside its array's bounds.
//! * `PL001` — a partition configuration that leaves PEs owning no pages.

use std::convert::Infallible;

use crate::diag::{Code, Diagnostic, Severity, Span};
use crate::sites::{self, iterate, LiveSlots, ResolveFail, Resolver};
use sa_ir::nest::ArrayRef;
use sa_ir::program::Phase;
use sa_ir::{ArrayId, Program};
use sa_machine::{ConfigError, PartitionScheme, Placement};

/// Run the progress checks (`SA004`, `SA005`, `SA006`) on `program`.
pub fn check_progress(program: &Program) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    check_anchors(program, &mut diags);
    check_bounds_and_definedness(program, &mut diags);
    diags
}

// ---------------------------------------------------------------------------
// SA005 — indirect anchors without a static producer
// ---------------------------------------------------------------------------

/// An anchor gathered through an index array the same nest produces is a
/// warning (the counting engines still run it; the thread runtime rejects
/// it), while an index array with no producer at all is an error (every
/// engine aborts on the first lookup).
fn check_anchors(program: &Program, diags: &mut Vec<Diagnostic>) {
    sites::unproduced_anchors(program, |site, nest, base, same_nest| {
        let name = &program.array(base).name;
        let (which, severity, why) = if same_nest {
            (
                "which the same nest produces",
                Severity::Warning,
                "Ownership of the written element would depend on intra-nest \
                 timing; the thread runtime rejects this shape (unsupported \
                 program). Produce the index array in an earlier nest.",
            )
        } else {
            (
                "which is neither statically initialized nor produced by an earlier nest",
                Severity::Error,
                "Anchor resolution would block on cells no statement will ever \
                 produce; every engine aborts on the first lookup. Initialize \
                 the index array or produce it in an earlier nest.",
            )
        };
        diags.push(
            Diagnostic::new(
                Code::Sa005AnchorNoProducer,
                Span::stmt(site.phase, &nest.label, site.stmt, name),
                format!("statement anchor gathers through index array `{name}`, {which}"),
            )
            .with_severity(severity)
            .explain(why),
        );
    });
}

// ---------------------------------------------------------------------------
// SA004 / SA006 — dangling reads and out-of-bounds references
// ---------------------------------------------------------------------------

/// Per-segment definedness, computed from the initializer region plus
/// *every* write of the segment (order-free: I-structure deferrals make
/// later producers reach earlier readers). `None` when some write is a
/// scatter through runtime data (definedness unknowable).
type Definedness = Vec<Option<Vec<bool>>>;

fn check_bounds_and_definedness(program: &Program, diags: &mut Vec<Diagnostic>) {
    let res = Resolver::new(program);

    // Pass A: build per-segment defined bitmaps from the write sites, and
    // report provably out-of-bounds *writes* as we go (first per site).
    let mut def: Definedness = Vec::new();
    for seg in sites::segments(program) {
        let opaque = seg
            .writes
            .iter()
            .any(|w| res.runtime_index(w.target).is_some());
        if opaque {
            def.push(None);
            continue;
        }
        let mut bits = vec![false; program.array(seg.array).len()];
        bits[..seg.init_len].fill(true);
        for site in &seg.writes {
            let walked = iterate(site.nest, |ivs| {
                match res.addr(site.target, ivs) {
                    Ok(addr) => bits[addr] = true,
                    Err(ResolveFail::OutOfBounds | ResolveFail::IndexOutOfBounds { .. }) => {
                        return Err(ivs.to_vec());
                    }
                    // An undefined index cell surfaces below as a dangling
                    // read of the index array itself.
                    Err(_) => {}
                }
                Ok(())
            });
            if let Err(ivs) = walked {
                let at = (site.phase, site.nest.label.as_str(), site.stmt);
                diags.push(oob_diag(program, at, site.target, &ivs));
            }
        }
        def.push(Some(bits));
    }

    // Pass B: walk phases in order, checking every read reference of every
    // iteration against the bitmap of the segment live there (and bounds).
    let mut live = LiveSlots::new(program);
    for (phase_idx, phase) in program.phases.iter().enumerate() {
        let nest = match phase {
            Phase::Reinit(id) => {
                live.reinit(*id);
                continue;
            }
            Phase::Loop(nest) => nest,
        };
        for (stmt_idx, stmt) in nest.body.iter().enumerate() {
            // Bounds of the write anchor's affine dims are covered in pass
            // A; here: every read reference, a scatter target's index-array
            // lookups included.
            let target = stmt.write_target().filter(|t| t.has_indirection());
            let refs: Vec<(&ArrayRef, bool)> = stmt
                .value()
                .reads()
                .into_iter()
                .map(|r| (r, false))
                .chain(target.map(|t| (t, true)))
                .collect();
            if refs.is_empty() {
                continue;
            }
            let mut check = RefCheck {
                res: &res,
                def: &def,
                live: &live,
                at: (phase_idx, &nest.label, stmt_idx),
                reported_oob: false,
                reported_dangling: vec![false; program.arrays.len()],
                diags,
            };
            let Ok(()) = iterate(nest, |ivs| {
                for &(aref, is_target) in &refs {
                    check.reference(aref, is_target, ivs);
                }
                Ok::<(), Infallible>(())
            });
        }
    }
}

/// The read checks of one statement: the first out-of-bounds reference and
/// the first dangling read per array are reported, the rest suppressed.
struct RefCheck<'a> {
    res: &'a Resolver<'a>,
    def: &'a Definedness,
    live: &'a LiveSlots,
    /// Phase index, nest label, statement index.
    at: (usize, &'a str, usize),
    reported_oob: bool,
    reported_dangling: Vec<bool>,
    diags: &'a mut Vec<Diagnostic>,
}

impl RefCheck<'_> {
    /// Check one reference instance: bounds of every index, definedness of
    /// the index-array lookups, and (for RHS reads) definedness of the data
    /// element itself.
    fn reference(&mut self, aref: &ArrayRef, is_target: bool, ivs: &[i64]) {
        let (phase_idx, label, stmt_idx) = self.at;
        match self.res.addr(aref, ivs) {
            // Writes define; their conflicts are SA001's job.
            Ok(addr) => {
                if !is_target {
                    self.defined(aref.array, addr, ivs);
                }
            }
            Err(ResolveFail::IndexOutOfBounds { base, pos }) if !self.reported_oob => {
                self.reported_oob = true;
                let base_decl = self.res.program.array(base);
                self.diags.push(
                    Diagnostic::new(
                        Code::Sa006OutOfBounds,
                        Span::stmt(phase_idx, label, stmt_idx, &base_decl.name),
                        format!(
                            "index-array lookup `{}[{pos}]` is out of bounds \
                             (len {}) at iteration {ivs:?}",
                            base_decl.name,
                            base_decl.len()
                        ),
                    )
                    .explain(
                        "The gather position leaves the index array; execution \
                         aborts with IndexOutOfBounds here.",
                    ),
                );
            }
            // The looked-up index cell is itself a read.
            Err(
                ResolveFail::NotStatic { base, pos } | ResolveFail::UndefinedIndex { base, pos },
            ) => {
                self.defined(base, pos, ivs);
            }
            Err(ResolveFail::OutOfBounds) if !self.reported_oob => {
                self.reported_oob = true;
                self.diags
                    .push(oob_diag(self.res.program, self.at, aref, ivs));
            }
            Err(_) => {}
        }
    }

    /// Report the read of `array[addr]` as dangling (once per array) unless
    /// the live generation defines the cell.
    fn defined(&mut self, array: ArrayId, addr: usize, ivs: &[i64]) {
        let Some(bits) = &self.def[self.live.of(array)] else {
            return;
        };
        if bits[addr] || self.reported_dangling[array.0] {
            return;
        }
        self.reported_dangling[array.0] = true;
        let (phase_idx, label, stmt_idx) = self.at;
        let array = &self.res.program.array(array).name;
        self.diags.push(
            Diagnostic::new(
                Code::Sa004DanglingRead,
                Span::stmt(phase_idx, label, stmt_idx, array),
                format!(
                    "`{array}[{addr}]` is read at iteration {ivs:?} but no initializer or \
                     statement of this generation ever defines it"
                ),
            )
            .explain(
                "Under I-structure semantics this read defers forever — a dangling \
                 deferral: the interpreter reports ReadUndefined and the thread runtime's \
                 consumer parks with no producer to wake it. Define the element \
                 (initialization or an assignment anywhere in the generation) or drop \
                 the read.",
            ),
        );
    }
}

fn oob_diag(
    program: &Program,
    (phase_idx, label, stmt_idx): (usize, &str, usize),
    aref: &ArrayRef,
    ivs: &[i64],
) -> Diagnostic {
    let decl = program.array(aref.array);
    Diagnostic::new(
        Code::Sa006OutOfBounds,
        Span::stmt(phase_idx, label, stmt_idx, &decl.name),
        format!(
            "reference to `{}` (dims {:?}) leaves its bounds at iteration {ivs:?}",
            decl.name, decl.dims
        ),
    )
    .explain(
        "Some iteration of the nest produces an index outside the declared \
         extents; execution aborts with IndexOutOfBounds here. Shrink the loop \
         bounds or grow the array.",
    )
}

// ---------------------------------------------------------------------------
// PL001 — partition legality
// ---------------------------------------------------------------------------

/// Check that `scheme` at `page_size` actually spreads the program's pages
/// over all `n_pes` PEs; a PE owning nothing contributes no work in the
/// owner-computes model and the "parallel" run degenerates. A machine shape
/// no placement exists for (zero PEs, zero page size, an empty block or
/// tile) is the one error-severity `PL001`.
pub fn check_partition(
    program: &Program,
    n_pes: usize,
    page_size: usize,
    scheme: PartitionScheme,
) -> Vec<Diagnostic> {
    partition_pass(program, n_pes, page_size, scheme).unwrap_or_else(|e| vec![invalid_shape(e)])
}

/// The error-severity `PL001` for a machine shape no placement exists for.
pub(crate) fn invalid_shape(e: ConfigError) -> Diagnostic {
    Diagnostic::new(
        Code::Pl001OrphanedPes,
        Span::default(),
        format!("invalid machine shape: {e}"),
    )
    .with_severity(Severity::Error)
    .explain(
        "No page placement exists for this PE count, page size and scheme, so \
         every engine rejects the configuration; the passes that depend on it \
         are skipped.",
    )
}

/// [`check_partition`], with an invalid shape as `Err` so
/// [`crate::lint_program`] can skip the other config-dependent passes.
pub(crate) fn partition_pass(
    program: &Program,
    n_pes: usize,
    page_size: usize,
    scheme: PartitionScheme,
) -> Result<Vec<Diagnostic>, ConfigError> {
    // Geometry-aware ownership: tiled schemes can orphan PEs that the
    // flattened-page arithmetic would have covered (and vice versa), so
    // legality must probe the same placement the executors use.
    let dims = program.arrays.iter().map(|d| &d.dims);
    let placements = Placement::table(dims, scheme, page_size, n_pes)?;
    let mut diags = Vec::new();
    if n_pes == 1 {
        return Ok(diags); // the one PE runs everything
    }
    let mut owns = vec![false; n_pes];
    for pl in &placements {
        for page in 0..pl.pages() {
            owns[pl.page_owner(page)] = true;
        }
    }
    let orphans: Vec<usize> = (0..n_pes).filter(|&pe| !owns[pe]).collect();
    if !orphans.is_empty() {
        diags.push(
            Diagnostic::new(
                Code::Pl001OrphanedPes,
                Span::default(),
                format!(
                    "{} of {n_pes} PEs own no pages of any array under {scheme:?} \
                     with {page_size}-element pages (e.g. PE {})",
                    orphans.len(),
                    orphans[0],
                ),
            )
            .explain(
                "Owner-computes assigns work where the written pages live; a PE \
                 owning nothing executes nothing, so the configuration wastes \
                 processors. Use smaller pages, fewer PEs, or a scheme that \
                 spreads pages (e.g. Modulo).",
            ),
        );
    }
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_ir::index::iv;
    use sa_ir::{Expr, ProgramBuilder};

    #[test]
    fn dangling_read_detected() {
        // x[k] = y[k] where y is never initialized or written.
        let mut b = ProgramBuilder::new("dangle");
        let x = b.output("X", &[16]);
        let y = b.output("Y", &[16]);
        b.nest("copy", &[("k", 0, 15)], |nb| {
            let rhs = nb.read(y, [iv(0)]);
            nb.assign(x, [iv(0)], rhs);
        });
        let diags = check_progress(&b.finish());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::Sa004DanglingRead);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("Y[0]"), "{}", diags[0].message);
    }

    #[test]
    fn later_producer_satisfies_earlier_reader() {
        // Nest 1 reads x[k+8]; nest 2 writes x[8..16]: deferral resolves.
        let mut b = ProgramBuilder::new("deferral");
        let x = b.output("X", &[16]);
        let z = b.output("Z", &[8]);
        b.nest("consume", &[("k", 0, 7)], |nb| {
            let rhs = nb.read(x, [iv(0).plus(8)]);
            nb.assign(z, [iv(0)], rhs);
        });
        b.nest("produce", &[("k", 8, 15)], |nb| {
            nb.assign(x, [iv(0)], Expr::Const(1.0));
        });
        let diags = check_progress(&b.finish());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn out_of_bounds_read_detected() {
        let mut b = ProgramBuilder::new("oob");
        let x = b.output("X", &[16]);
        let y = b.input("Y", &[16], sa_ir::InitPattern::Zero);
        b.nest("walk", &[("k", 0, 15)], |nb| {
            let rhs = nb.read(y, [iv(0).plus(1)]); // y[16] at k=15
            nb.assign(x, [iv(0)], rhs);
        });
        let diags = check_progress(&b.finish());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::Sa006OutOfBounds);
    }

    #[test]
    fn anchor_without_producer_is_error_same_nest_is_warning() {
        // No producer at all → error.
        let mut b = ProgramBuilder::new("no-prod");
        let idx = b.output("I", &[8]);
        let x = b.output("X", &[8]);
        b.nest("scat", &[("k", 0, 7)], |nb| {
            nb.assign_indirect(x, idx, iv(0), Expr::Const(1.0));
        });
        let diags = check_progress(&b.finish());
        assert!(diags
            .iter()
            .any(|d| d.code == Code::Sa005AnchorNoProducer && d.severity == Severity::Error));

        // Same-nest producer → warning.
        let mut b = ProgramBuilder::new("same-nest");
        let idx = b.output("I", &[8]);
        let x = b.output("X", &[8]);
        b.nest("both", &[("k", 0, 7)], |nb| {
            nb.assign(idx, [iv(0)], Expr::Const(0.0));
            nb.assign_indirect(x, idx, iv(0), Expr::Const(1.0));
        });
        let diags = check_progress(&b.finish());
        assert!(diags
            .iter()
            .any(|d| d.code == Code::Sa005AnchorNoProducer && d.severity == Severity::Warning));
    }

    #[test]
    fn partition_orphans_flagged() {
        // One 8-element array, 32-element pages → 1 page; 4 PEs → 3 orphans.
        let mut b = ProgramBuilder::new("tiny");
        let x = b.output("X", &[8]);
        b.nest("w", &[("k", 0, 7)], |nb| {
            nb.assign(x, [iv(0)], Expr::Const(0.0));
        });
        let p = b.finish();
        let diags = check_partition(&p, 4, 32, PartitionScheme::Modulo);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::Pl001OrphanedPes);
        assert!(diags[0].message.contains("3 of 4"), "{}", diags[0].message);
        // Page size 2 → 4 pages → everyone owns one.
        assert!(check_partition(&p, 4, 2, PartitionScheme::Modulo).is_empty());
    }
}
