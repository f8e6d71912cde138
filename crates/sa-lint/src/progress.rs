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
//!   static producer (mirrors `sa_runtime::unsupported_reason`).
//! * `SA006` — a reference provably outside its array's bounds.
//! * `PL001` — a partition configuration that leaves PEs owning no pages.

use crate::diag::{Code, Diagnostic, Severity, Span};
use crate::sites::{self, array_placements, static_array_values};
use sa_ir::analysis::anchor_index_arrays;
use sa_ir::index::IndexExpr;
use sa_ir::nest::ArrayRef;
use sa_ir::program::{ArrayInit, Phase};
use sa_ir::Program;
use sa_machine::{ConfigError, PartitionScheme};

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

/// Mirrors `sa_runtime::unsupported_reason`: an anchor gathered through an
/// index array the same nest produces is a warning (the counting engines
/// still run it; the thread runtime rejects it), while an index array with
/// no producer at all is an error (every engine aborts on the first
/// lookup).
fn check_anchors(program: &Program, diags: &mut Vec<Diagnostic>) {
    let mut statically_init: Vec<bool> = program
        .arrays
        .iter()
        .map(|d| !matches!(d.init, ArrayInit::Undefined))
        .collect();
    let mut written_earlier = vec![false; program.arrays.len()];
    for (phase_idx, phase) in program.phases.iter().enumerate() {
        match phase {
            Phase::Reinit(id) => {
                statically_init[id.0] = false;
                written_earlier[id.0] = false;
            }
            Phase::Loop(nest) => {
                let written_here = nest.written_arrays();
                for (stmt_idx, stmt) in nest.body.iter().enumerate() {
                    for base in anchor_index_arrays(stmt) {
                        let name = &program.array(base).name;
                        if written_here.contains(&base) {
                            diags.push(
                                Diagnostic::new(
                                    Code::Sa005AnchorNoProducer,
                                    Span::stmt(phase_idx, &nest.label, stmt_idx, name),
                                    format!(
                                        "statement anchor gathers through index array `{name}`, \
                                         which the same nest produces"
                                    ),
                                )
                                .explain(
                                    "Ownership of the written element would depend on \
                                     intra-nest timing; the thread runtime rejects this shape \
                                     (unsupported program). Produce the index array in an \
                                     earlier nest.",
                                ),
                            );
                        } else if !statically_init[base.0] && !written_earlier[base.0] {
                            diags.push(
                                Diagnostic::new(
                                    Code::Sa005AnchorNoProducer,
                                    Span::stmt(phase_idx, &nest.label, stmt_idx, name),
                                    format!(
                                        "statement anchor gathers through index array `{name}`, \
                                         which is neither statically initialized nor produced \
                                         by an earlier nest"
                                    ),
                                )
                                .with_severity(Severity::Error)
                                .explain(
                                    "Anchor resolution would block on cells no statement will \
                                     ever produce; every engine aborts on the first lookup. \
                                     Initialize the index array or produce it in an earlier \
                                     nest.",
                                ),
                            );
                        }
                    }
                }
                for id in written_here {
                    written_earlier[id.0] = true;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SA004 / SA006 — dangling reads and out-of-bounds references
// ---------------------------------------------------------------------------

/// Per-(array, segment) definedness, computed from the initializer region
/// plus *every* write of the segment (order-free: I-structure deferrals
/// make later producers reach earlier readers).
struct Definedness {
    /// `bits[slot]` — defined elements of that segment; `None` when some
    /// write is a scatter through runtime data (definedness unknowable).
    bits: Vec<Option<Vec<bool>>>,
}

fn check_bounds_and_definedness(program: &Program, diags: &mut Vec<Diagnostic>) {
    let statics = static_array_values(program);
    let segments = sites::segments(program);

    // Pass A: build per-segment defined bitmaps from the write sites, and
    // report provably out-of-bounds *writes* as we go (first per site).
    let mut def = Definedness {
        bits: Vec::with_capacity(segments.len()),
    };
    for seg in &segments {
        let decl = program.array(seg.array);
        let opaque = seg
            .writes
            .iter()
            .any(|w| !sites::statically_resolvable(w.target, &statics));
        if opaque {
            def.bits.push(None);
            continue;
        }
        let mut bits = vec![false; decl.len()];
        for cell in bits.iter_mut().take(seg.init_len) {
            *cell = true;
        }
        for site in &seg.writes {
            let mut oob: Option<Vec<i64>> = None;
            site.nest.for_each_iteration(|ivs| {
                if oob.is_some() {
                    return;
                }
                match sites::resolve_static_addr(program, &statics, site.target, ivs) {
                    Ok(addr) => bits[addr] = true,
                    Err(sites::ResolveFail::OutOfBounds) => oob = Some(ivs.to_vec()),
                    // An undefined index cell surfaces below as a dangling
                    // read of the index array itself.
                    Err(_) => {}
                }
            });
            if let Some(ivs) = oob {
                diags.push(oob_diag(
                    program,
                    site.phase,
                    &site.nest.label,
                    site.stmt,
                    site.target,
                    &ivs,
                ));
            }
        }
        def.bits.push(Some(bits));
    }

    // Pass B: walk phases in order, checking every read reference of every
    // iteration against the segment bitmaps (and bounds). The phase→slot
    // mapping is rebuilt exactly like `sites::segments` builds it.
    let mut slot: Vec<usize> = (0..program.arrays.len()).collect();
    let mut next_slot = program.arrays.len();
    for (phase_idx, phase) in program.phases.iter().enumerate() {
        match phase {
            Phase::Reinit(id) => {
                slot[id.0] = next_slot;
                next_slot += 1;
            }
            Phase::Loop(nest) => {
                for (stmt_idx, stmt) in nest.body.iter().enumerate() {
                    // Bounds of the write anchor's affine dims are covered
                    // in pass A; here: every read reference.
                    let mut reported_oob = false;
                    let mut reported_dangling = vec![false; program.arrays.len()];
                    let mut refs: Vec<(&ArrayRef, bool)> = stmt
                        .value()
                        .reads()
                        .into_iter()
                        .map(|r| (r, false))
                        .collect();
                    // A scatter target's index-array lookups are reads too.
                    if let Some(t) = stmt.write_target() {
                        if t.has_indirection() {
                            refs.push((t, true));
                        }
                    }
                    if refs.is_empty() {
                        continue;
                    }
                    nest.for_each_iteration(|ivs| {
                        for (ri, &(aref, is_target)) in refs.iter().enumerate() {
                            check_ref(
                                program,
                                &statics,
                                &def,
                                &slot,
                                aref,
                                is_target,
                                ivs,
                                (phase_idx, &nest.label, stmt_idx, ri),
                                &mut reported_oob,
                                &mut reported_dangling,
                                diags,
                            );
                        }
                    });
                }
            }
        }
    }
}

/// Check one reference instance: bounds of every index, definedness of the
/// index-array lookups, and (for RHS reads) definedness of the data
/// element itself.
#[allow(clippy::too_many_arguments)]
fn check_ref(
    program: &Program,
    statics: &[Option<Vec<f64>>],
    def: &Definedness,
    slot: &[usize],
    aref: &ArrayRef,
    is_target: bool,
    ivs: &[i64],
    at: (usize, &str, usize, usize),
    reported_oob: &mut bool,
    reported_dangling: &mut [bool],
    diags: &mut Vec<Diagnostic>,
) {
    let (phase_idx, label, stmt_idx, _) = at;
    let decl = program.array(aref.array);
    let mut idx: Vec<i64> = Vec::with_capacity(aref.indices.len());
    let mut resolvable = true;
    for ix in &aref.indices {
        match ix {
            IndexExpr::Affine(a) => idx.push(a.eval(ivs)),
            IndexExpr::Indirect {
                base,
                pos,
                scale,
                offset,
            } => {
                let base_decl = program.array(*base);
                let p = pos.eval(ivs);
                if p < 0 || p as usize >= base_decl.len() {
                    if !*reported_oob {
                        *reported_oob = true;
                        diags.push(
                            Diagnostic::new(
                                Code::Sa006OutOfBounds,
                                Span::stmt(phase_idx, label, stmt_idx, &base_decl.name),
                                format!(
                                    "index-array lookup `{}[{p}]` is out of bounds \
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
                    return;
                }
                // Definedness of the index cell itself.
                if let Some(Some(bits)) = def.bits.get(slot[base.0]) {
                    if !bits[p as usize] && !reported_dangling[base.0] {
                        reported_dangling[base.0] = true;
                        diags.push(dangling_diag(
                            &base_decl.name,
                            p as usize,
                            phase_idx,
                            label,
                            stmt_idx,
                            ivs,
                        ));
                    }
                }
                match &statics[base.0] {
                    Some(values) if (p as usize) < values.len() => {
                        idx.push(scale * (values[p as usize] as i64) + offset);
                    }
                    _ => resolvable = false,
                }
            }
        }
    }
    if !resolvable {
        return;
    }
    match decl.linearize(&idx) {
        Ok(addr) => {
            if is_target {
                return; // writes define; their conflicts are SA001's job
            }
            if let Some(Some(bits)) = def.bits.get(slot[aref.array.0]) {
                if !bits[addr] && !reported_dangling[aref.array.0] {
                    reported_dangling[aref.array.0] = true;
                    diags.push(dangling_diag(
                        &decl.name, addr, phase_idx, label, stmt_idx, ivs,
                    ));
                }
            }
        }
        Err(_) => {
            if !*reported_oob {
                *reported_oob = true;
                diags.push(oob_diag(program, phase_idx, label, stmt_idx, aref, ivs));
            }
        }
    }
}

fn oob_diag(
    program: &Program,
    phase_idx: usize,
    label: &str,
    stmt_idx: usize,
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

fn dangling_diag(
    array: &str,
    addr: usize,
    phase_idx: usize,
    label: &str,
    stmt_idx: usize,
    ivs: &[i64],
) -> Diagnostic {
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
    let placements = array_placements(program, scheme, page_size, n_pes)?;
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
