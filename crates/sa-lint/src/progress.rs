//! Progress and partition-legality checking.
//!
//! * `SA004` — a read of an element no initializer and no statement of the
//!   current array generation ever defines. Under the thread runtime's
//!   I-structure semantics such a read becomes a *dangling deferral*: the
//!   consumer parks forever because no producer exists. It comes from the
//!   producer map of the instance walk (`sites::walk`): a read of a cell nobody has
//!   written yet is deferred — deferred reads legally consume values
//!   produced by later statements — and the deferrals still unreleased when
//!   their generation closes (its `Reinit`, or the end of the program) are
//!   the dangling ones.
//! * `SA005` — an indirect statement anchor whose index array has no
//!   static producer (the scan `sa_runtime::unsupported_reason` renders too).
//! * `SA006` — a reference provably outside its array's bounds: a failed
//!   resolution on the same walk.
//! * `PL001` — a partition configuration that leaves PEs owning no pages.
//!
//! The same walk notes whether any deferral was released by a later write
//! — a *forward* deferral, without which no wait graph has a cycle
//! ([`crate::depgraph::check_deadlock`]).
//!
//! # Which rung answers
//!
//! 1. **Footprints.** The phases are followed in order over write
//!    footprints. A nest passes when every reference is affine or goes
//!    through index arrays whose contents are compile-time constants,
//!    stays inside its array, and every read lies inside what its
//!    generation defines before it in program order:
//!    * **by counting** — a generation is *complete* once its cells equal
//!      its initializer's prefix plus the instances of its writes, where
//!      write-once's closed form proves those writes affine, inside the
//!      array, self-injective, clear of the initializer and pairwise
//!      disjoint (`writeonce::counted`). A read the nest's loop box keeps
//!      inside its array ([`sa_ir::access::Dim::proved`], a gather's
//!      values bounded from its index array's initializer pattern) of a
//!      generation complete before its nest needs no sweep, and a write
//!      the box keeps inside whose generation no other read needs is
//!      counted, not laid down. A nest left with nothing to check lays
//!      down no sweep;
//!    * **over sweeps** — the other references are laid down sweep by
//!      sweep as address runs (the crate-private `footprint` module),
//!      checked at the two end trips of each sweep (a gather's
//!      index-array positions inside the defined prefix and its values
//!      inside their dimension), and a read is defined by the
//!      initializer and *earlier* nests (a `Reinit` empties it); by an
//!      *earlier outermost iteration* of the same nest — a nest that
//!      reads a slot it writes is checked one outermost iteration at a
//!      time, each against what the ones before it defined (K21's plane
//!      recurrence); or by an *earlier statement of the same instance*
//!      that writes the identical reference (SPMV's running sum
//!      `S(i,t-1)`).
//!
//!    Writes are added a batch at a time, a scatter's left out. A program
//!    whose every nest passes defers no read and leaves no array: no
//!    SA004, no SA006, no forward deferral — proved in O(nests) where
//!    counting decides, else in O(sweeps + blocks of strided runs +
//!    positions gathered), whatever the instance count.
//! 2. **Instances.** Anything else — a gather through runtime data, a read
//!    only a later write or an earlier trip of the same sweep satisfies
//!    (K5's and K11's recurrences), a reference that may leave its array,
//!    a read of what only a scatter defines — is walked instance by
//!    instance, for the whole program, as above. Every finding, its
//!    iteration vector and the report order come from this walk, which
//!    stays the reference the first rung is certified against
//!    ([`crate::by_instance`] turns the first rung off).
//!
//! [`progress_report`] says which rung decided.
//!
//! `PL001` asks each array's placement for one period of pages, or, without
//! a period, the pages where the owner changes.

use std::collections::{HashMap, HashSet};

use crate::depgraph::InstanceError;
use crate::diag::{Code, Diagnostic, Severity, Span};
use crate::footprint::{Batch, Footprint, Run};
use crate::sites::{
    self, describe, walk, Deferral, Flow, Instance, LiveSlots, Pass, Read, ResolveFail, Resolver,
    Segment, Write,
};
use crate::writeonce;
use sa_ir::access::{Access, NestAccess};
use sa_ir::analysis::StaticArrays;
use sa_ir::nest::{ArrayRef, LoopNest, Stmt};
use sa_ir::{ArrayId, Phase, Program};
use sa_machine::{ConfigError, PartitionScheme, Placement};

/// Run the progress checks (`SA004`, `SA005`, `SA006`) on `program`.
pub fn check_progress(program: &Program) -> Vec<Diagnostic> {
    observe(&Resolver::new(program)).diagnostics
}

/// The progress checks' findings and the rung that decided them: how many
/// sweeps the first rung laid down, and whether the instance walk had to
/// decide (module docs).
#[doc(hidden)]
#[derive(Debug)]
pub struct ProgressReport {
    /// What [`check_progress`] returns.
    pub diagnostics: Vec<Diagnostic>,
    /// Sweeps the first rung laid down as footprint runs (0 when counting
    /// and the loop boxes decided every nest).
    pub over_sweeps: usize,
    /// The instance walk decided the program.
    pub walked: bool,
}

/// [`check_progress`] with the rung that decided it.
#[doc(hidden)]
pub fn progress_report(program: &Program) -> ProgressReport {
    let seen = observe(&Resolver::new(program));
    ProgressReport {
        diagnostics: seen.diagnostics,
        over_sweeps: seen.over_sweeps,
        walked: seen.walked,
    }
}

/// What the progress pass finds of a program, over sweeps or by its one
/// owner-free walk.
pub(crate) struct Observed {
    /// The `SA005`, `SA006` and `SA004` findings, in report order.
    pub diagnostics: Vec<Diagnostic>,
    /// Whether a read was deferred to a later write of its generation, if
    /// the instance stream can say: not when a reference fails to resolve
    /// (the first to, in the order the owner-computes walk would meet
    /// them) or the ids run out.
    pub forward_deferrals: Result<bool, InstanceError>,
    /// Sweeps the first rung laid down.
    over_sweeps: usize,
    /// The walk decided.
    walked: bool,
}

/// Prove `res`'s program clean over footprints or walk it once, for the
/// progress checks and the deadlock proof's premise.
pub(crate) fn observe(res: &Resolver<'_>) -> Observed {
    let mut diagnostics = Vec::new();
    check_anchors(res.program, &mut diagnostics);
    let mut over_sweeps = 0;
    if crate::by_footprint() && in_order(res, &mut over_sweeps) {
        return Observed {
            diagnostics,
            forward_deferrals: Ok(false),
            over_sweeps,
            walked: false,
        };
    }
    let mut pass = Progress::new(res);
    let walked = walk(res, &mut pass);
    let forward_deferrals = match pass.unresolved {
        Some((_, array)) => Err(InstanceError::Unresolvable(array)),
        None => walked.map(|_| pass.forward),
    };
    diagnostics.extend(pass.diagnostics());
    Observed {
        diagnostics,
        forward_deferrals,
        over_sweeps,
        walked: true,
    }
}

/// One reference of a nest as the first rung sees it: its generation
/// slot, its lowering, and whether it is the statement's write.
type Ref<'a> = (usize, &'a Access, bool);

/// The first rung (module docs): every nest's references all affine or
/// through constant index arrays, every one inside its array, and every
/// read defined — by its generation's initializer, an earlier nest, an
/// earlier outermost iteration of its own nest, or an earlier statement
/// of its own instance writing the identical reference — so the walk
/// would defer no read and fail no resolution. `sweeps` counts the sweeps
/// laid down.
fn in_order(res: &Resolver<'_>, sweeps: &mut usize) -> bool {
    let program = res.program;
    // Per slot: the first phase from which its generation is complete.
    let complete: Vec<Option<usize>> = sites::segments(program)
        .iter()
        .map(|seg| complete_from(program, seg))
        .collect();
    let mut live = LiveSlots::new(program);
    // Per nest: its lowering, and its references as `(slot, key, writes)`
    // in body order; a read of what an earlier statement of the same
    // instance writes is defined. Gathers are proved by the loop box
    // through the constant index arrays.
    let mut nests = Vec::new();
    for (p, phase) in program.phases.iter().enumerate() {
        let nest = match phase {
            Phase::Reinit(array) => {
                live.reinit(*array);
                continue;
            }
            Phase::Loop(nest) => nest,
        };
        let lowered = NestAccess::lower(program, nest, Some(&res.statics));
        let mut refs = Vec::new();
        for (i, (stmt, at)) in nest.body.iter().zip(&lowered.stmts).enumerate() {
            let earlier = || nest.body[..i].iter().filter_map(Stmt::write_target);
            let arefs = stmt.reads().into_iter().chain(stmt.write_target());
            for (aref, k) in arefs.zip(at.reads.clone().chain(at.target)) {
                let writes = at.target == Some(k);
                if !writes && earlier().any(|t| t == aref) {
                    continue;
                }
                refs.push((live.of(aref.array), k, writes));
            }
        }
        nests.push((p, nest, lowered, refs));
    }
    // A read inside its array of a generation complete before its nest is
    // defined; the other reads need their slot's footprint, and only
    // those slots have their writes laid down.
    let answered = |p: usize, (slot, k, writes): (usize, usize, bool), at: &NestAccess| {
        !writes && complete[slot].is_some_and(|from| from <= p) && at.refs[k].proved()
    };
    let mut footprint = vec![false; complete.len()];
    for (p, _, lowered, refs) in &nests {
        for &r in refs {
            footprint[r.0] |= !r.2 && !answered(*p, r, lowered);
        }
    }
    let mut defined = Footprint::new(program);
    nests.iter().all(|(p, nest, lowered, refs)| {
        // A write inside its array that no footprint needs is counted.
        let counted = |&(slot, k, writes): &(usize, usize, bool)| {
            writes && !footprint[slot] && lowered.refs[k].proved()
        };
        let open: Vec<Ref<'_>> = refs
            .iter()
            .filter(|&&r| !answered(*p, r, lowered) && !counted(&r))
            .map(|&(slot, k, writes)| (slot, &lowered.refs[k], writes))
            .collect();
        open.is_empty() || nest_over_sweeps(nest, &open, &res.statics, &mut defined, sweeps)
    })
}

/// The first phase from which `seg`'s generation is complete — every cell
/// defined — by counting: its initializer's prefix plus its writes'
/// instances fill the array, and rung 1 of write-once proves those writes
/// in bounds and pairwise disjoint ([`writeonce::counted`]). `None` when
/// that cannot be said.
fn complete_from(program: &Program, seg: &Segment<'_>) -> Option<usize> {
    let cells = seg.init_len as u128;
    let instances = seg.writes.iter().map(|w| w.nest.iteration_count() as u128);
    let full = cells + instances.sum::<u128>() == program.array(seg.array).len() as u128;
    let counted = seg.writes.is_empty() || writeonce::counted(program, seg);
    (full && counted).then(|| seg.writes.last().map_or(0, |w| w.phase + 1))
}

/// Check `nest`'s reads against `defined` and add its writes, a batch at a
/// time: the whole nest, or — when it reads a slot it writes — each
/// outermost iteration, checked against what the ones before it defined.
/// A scatter's cells are left out: a read they alone define declines.
fn nest_over_sweeps(
    nest: &LoopNest,
    refs: &[Ref<'_>],
    statics: &StaticArrays<'_>,
    defined: &mut Footprint,
    sweeps: &mut usize,
) -> bool {
    let written = |slot| refs.iter().any(|r| r.2 && r.0 == slot);
    let per_outer = refs.iter().any(|r| !r.2 && written(r.0));
    let (mut reads, mut writes) = (Batch::new(refs.len()), Batch::new(refs.len()));
    // The reads a batch closed must lie inside what the batches before it
    // defined; only then are its writes added.
    let flush = |reads: &mut Batch, writes: &mut Batch, defined: &mut Footprint| {
        reads.close();
        let covered = defined.covers_closed(reads);
        defined.merge(writes);
        covered
    };
    let mut outer = None;
    let checked = nest.try_for_each_sweep(|sweep| {
        *sweeps += 1;
        if per_outer && sweep.outer.first() != outer.as_ref() {
            outer = sweep.outer.first().copied();
            if !flush(&mut reads, &mut writes, defined) {
                return Err(());
            }
        }
        for (i, &(slot, access, writes_it)) in refs.iter().enumerate() {
            // An affine reference takes its line, a gather the interval
            // its values bound.
            let affine = access.form.is_some();
            let run = if affine {
                Run::along(access.line(sweep).ok_or(())?, sweep.trips)
            } else {
                let (lo, hi) = access.hull(sweep, statics).ok_or(())?;
                Run::interval(lo, hi + 1)
            };
            match (writes_it, affine) {
                // A read one interval holds is answered now; the others
                // join their stream's run, checked block by block.
                (false, _) if defined.holds(slot, run) => {}
                (false, _) => reads.push(i, slot, run),
                (true, true) => writes.push(i, slot, run),
                (true, false) => {}
            }
        }
        defined.covers_closed(&mut reads).then_some(()).ok_or(())
    });
    checked.is_ok() && flush(&mut reads, &mut writes, defined)
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

/// The progress checks on the walk. Per statement, the first out-of-bounds
/// reference and the first dangling read per array are reported, the rest
/// suppressed; an out-of-bounds *write* is reported once more, ahead of
/// everything else, in generation order.
struct Progress<'a, 'p> {
    res: &'a Resolver<'p>,
    /// Per generation slot: some write into it scatters through runtime
    /// data, so which of its cells get defined is unknowable.
    opaque: Vec<bool>,
    live: LiveSlots,
    /// `(first instance id, phase, statements)` of each nest walked so far.
    nests: Vec<(usize, usize, usize)>,
    /// Per statement of the nest being walked: an out-of-bounds write
    /// target, an out-of-bounds reference, has been reported.
    target_reported: Vec<bool>,
    reference_reported: Vec<bool>,
    /// SA006 findings by where they sort in the report: `[0, slot, phase,
    /// stmt, 0]` for a write target, `[1, phase, stmt, instance,
    /// reference]` — iteration order inside statement order — otherwise.
    found: Vec<([usize; 5], Diagnostic)>,
    /// The first dangling read of each `(phase, stmt, array)`, and its cell.
    dangling: HashMap<(usize, usize, ArrayId), (Deferral, usize)>,
    /// A write released a deferred read.
    forward: bool,
    /// The first instance with a reference that names no cell, and the
    /// array the owner-computes walk would have failed on there: its write
    /// target's (the anchor is asked first), else the first such read's.
    unresolved: Option<(u32, ArrayId)>,
}

impl<'a, 'p> Progress<'a, 'p> {
    fn new(res: &'a Resolver<'p>) -> Self {
        let opaque = sites::segments(res.program)
            .iter()
            .map(|seg| {
                let mut writes = seg.writes.iter();
                writes.any(|w| res.runtime_index(w.target).is_some())
            })
            .collect();
        Progress {
            res,
            opaque,
            live: LiveSlots::new(res.program),
            nests: Vec::new(),
            target_reported: Vec::new(),
            reference_reported: Vec::new(),
            found: Vec::new(),
            dangling: HashMap::new(),
            forward: false,
            unresolved: None,
        }
    }

    /// Reference `reference` of the instance names no cell: bounds of every
    /// index. (A lookup of an index cell nobody has defined is a read the
    /// walk defers; it comes back through [`Pass::dangling`].)
    fn out_of_bounds(
        &mut self,
        at: &Instance<'_>,
        reference: usize,
        aref: &ArrayRef,
        fail: ResolveFail,
    ) {
        if self.reference_reported[at.stmt] {
            return;
        }
        let diag = match fail {
            ResolveFail::IndexOutOfBounds { base, pos } => {
                let base_decl = self.res.program.array(base);
                Diagnostic::new(
                    Code::Sa006OutOfBounds,
                    Span::stmt(at.phase, &at.nest.label, at.stmt, &base_decl.name),
                    format!(
                        "index-array lookup `{}[{pos}]` is out of bounds \
                         (len {}) at iteration {:?}",
                        base_decl.name,
                        base_decl.len(),
                        at.ivs
                    ),
                )
                .explain(
                    "The gather position leaves the index array; execution \
                     aborts with IndexOutOfBounds here.",
                )
            }
            ResolveFail::OutOfBounds => oob_diag(self.res.program, at, aref),
            ResolveFail::NotStatic { .. } | ResolveFail::UndefinedIndex { .. } => return,
        };
        self.reference_reported[at.stmt] = true;
        let place = [1, at.phase, at.stmt, at.id as usize, reference];
        self.found.push((place, diag));
    }

    /// The findings in report order; dangling reads get their iteration
    /// vectors from a second, partial walk.
    fn diagnostics(mut self) -> Vec<Diagnostic> {
        let program = self.res.program;
        let readers: HashSet<u32> = self.dangling.values().map(|(d, _)| d.reader).collect();
        let ivs_of = describe(self.res, &readers, |at| {
            (at.nest.label.clone(), at.ivs.to_vec())
        });
        for ((phase, stmt, array), (read, addr)) in self.dangling {
            let Some((label, ivs)) = ivs_of.get(&read.reader) else {
                continue;
            };
            let array = &program.array(array).name;
            let diag = Diagnostic::new(
                Code::Sa004DanglingRead,
                Span::stmt(phase, label, stmt, array),
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
            );
            let place = [
                1,
                phase,
                stmt,
                read.reader as usize,
                read.reference as usize,
            ];
            self.found.push((place, diag));
        }
        self.found.sort_by_key(|f| f.0);
        self.found.into_iter().map(|f| f.1).collect()
    }
}

impl Pass for Progress<'_, '_> {
    fn nest(&mut self, phase: usize, nest: &LoopNest, first: usize) {
        self.nests.push((first, phase, nest.body.len()));
        self.target_reported = vec![false; nest.body.len()];
        self.reference_reported = vec![false; nest.body.len()];
    }

    fn read(&mut self, at: &Instance<'_>, read: Read<'_>) -> Flow {
        if let Err(fail) = read.cell {
            self.unresolved.get_or_insert((at.id, read.aref.array));
            self.out_of_bounds(at, read.reference, read.aref, fail);
        }
        Ok(())
    }

    fn write(&mut self, at: &Instance<'_>, write: Write<'_>) -> Flow {
        let (target, fail) = match write.cell {
            Ok((_, released)) => {
                self.forward |= !released.is_empty();
                return Ok(());
            }
            Err(fail) => (write.target, fail),
        };
        if self.unresolved.is_none_or(|(id, _)| id == at.id) {
            self.unresolved = Some((at.id, target.array));
        }
        let slot = self.live.of(target.array);
        let left = matches!(
            fail,
            ResolveFail::OutOfBounds | ResolveFail::IndexOutOfBounds { .. }
        );
        if left && !self.target_reported[at.stmt] && !self.opaque[slot] {
            self.target_reported[at.stmt] = true;
            let diag = oob_diag(self.res.program, at, target);
            self.found.push(([0, slot, at.phase, at.stmt, 0], diag));
        }
        // A scatter target's index-array lookups are references like any
        // other, after the statement's reads.
        if target.has_indirection() {
            let reads = at.nest.body[at.stmt].reads().len();
            self.out_of_bounds(at, reads, target, fail);
        }
        Ok(())
    }

    fn dangling(&mut self, array: ArrayId, addr: usize, read: Deferral) {
        if self.opaque[self.live.of(array)] {
            return;
        }
        let reader = read.reader as usize;
        let nest = self.nests.partition_point(|&(first, ..)| first <= reader) - 1;
        let (first, phase, stmts) = self.nests[nest];
        let site = (phase, (reader - first) % stmts, array);
        let earliest = self.dangling.entry(site).or_insert((read, addr));
        if read < earliest.0 {
            *earliest = (read, addr);
        }
    }

    fn reinit(&mut self, _phase: usize, array: ArrayId, _count: usize) {
        self.live.reinit(array);
    }
}

fn oob_diag(program: &Program, at: &Instance<'_>, aref: &ArrayRef) -> Diagnostic {
    let decl = program.array(aref.array);
    Diagnostic::new(
        Code::Sa006OutOfBounds,
        Span::stmt(at.phase, &at.nest.label, at.stmt, &decl.name),
        format!(
            "reference to `{}` (dims {:?}) leaves its bounds at iteration {:?}",
            decl.name, decl.dims, at.ivs
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
        let pages = pl.pages();
        match pl.period() {
            // Owners repeat after a period: its pages are every owner.
            Some(period) => {
                for page in 0..pages.min(period / page_size) {
                    owns[pl.page_owner(page)] = true;
                }
            }
            // No wrap: one owner's pages, then the next owner's.
            None => {
                let mut page = 0;
                while page < pages {
                    let pe = pl.page_owner(page);
                    owns[pe] = true;
                    let mut run_end = page + 1;
                    pl.owned_page_intervals(pe, page, pages - 1, |start, end| {
                        if start == page {
                            run_end = end;
                        }
                    });
                    page = run_end;
                }
            }
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

    /// The walk meets findings in iteration order; they are reported as
    /// they always were — out-of-bounds writes first, then statement by
    /// statement, one per statement and kind.
    #[test]
    fn findings_come_in_statement_order() {
        let mut b = ProgramBuilder::new("order");
        let x = b.output("X", &[8]);
        let z = b.output("Z", &[8]);
        let w = b.output("W", &[4]);
        let half = sa_ir::program::ArrayInit::Prefix {
            pattern: sa_ir::InitPattern::Zero,
            len: 4,
        };
        let y = b.array_with("Y", &[8], half);
        b.nest("n", &[("k", 0, 7)], |nb| {
            let dangling_from_4 = nb.read(y, [iv(0)]);
            nb.assign(x, [iv(0)], dangling_from_4);
            let deferred_then_out_at_7 = nb.read(x, [iv(0).plus(1)]);
            nb.assign(z, [iv(0)], deferred_then_out_at_7);
            nb.assign(w, [iv(0)], Expr::Const(1.0)); // leaves W at k = 4
        });
        let p = b.finish();
        let seen = observe(&Resolver::new(&p));
        let said: Vec<_> = seen
            .diagnostics
            .iter()
            .map(|d| {
                (
                    d.code,
                    d.span.stmt,
                    d.message.split(" at iteration ").nth(1),
                )
            })
            .collect();
        assert_eq!(
            said,
            [
                (Code::Sa006OutOfBounds, Some(2), Some("[4]")),
                (
                    Code::Sa004DanglingRead,
                    Some(0),
                    Some("[4] but no initializer or statement of this generation ever defines it")
                ),
                (Code::Sa006OutOfBounds, Some(1), Some("[7]")),
            ],
            "{:?}",
            seen.diagnostics
        );
        // The first instance a reference fails in is W's write at k = 4.
        assert_eq!(seen.forward_deferrals, Err(InstanceError::Unresolvable(w)));
    }

    /// Each rule of the sweeps proof against a program it alone gets
    /// wrong: the reference walk must speak (and `observe` with it).
    #[test]
    fn what_the_sweeps_cannot_prove_is_walked() {
        let findings = |build: &dyn Fn(&mut ProgramBuilder)| {
            let mut b = ProgramBuilder::new("rung");
            build(&mut b);
            let p = b.finish();
            let said = check_progress(&p);
            assert_eq!(said, crate::by_instance(|| check_progress(&p)));
            said.iter().map(|d| d.code).collect::<Vec<_>>()
        };
        // A reinit empties the generation: the read after it dangles.
        let reinit = findings(&|b| {
            let x = b.output("X", &[8]);
            let z = b.output("Z", &[8]);
            b.nest("w", &[("k", 0, 7)], |nb| {
                nb.assign(x, [iv(0)], Expr::Const(1.0));
            });
            b.reinit(x);
            b.nest("r", &[("k", 0, 7)], |nb| {
                let rhs = nb.read(x, [iv(0)]);
                nb.assign(z, [iv(0)], rhs);
            });
        });
        assert_eq!(reinit, [Code::Sa004DanglingRead]);
        // The initializer defines only its prefix.
        let prefix = findings(&|b| {
            let init = sa_ir::program::ArrayInit::Prefix {
                pattern: sa_ir::InitPattern::Zero,
                len: 7,
            };
            let y = b.array_with("Y", &[8], init);
            let z = b.output("Z", &[8]);
            b.nest("r", &[("k", 0, 7)], |nb| {
                let rhs = nb.read(y, [iv(0)]);
                nb.assign(z, [iv(0)], rhs);
            });
        });
        assert_eq!(prefix, [Code::Sa004DanglingRead]);
        // The last trip's write leaves X; the last trip's read of row i
        // names an in-bounds address of row i + 1 — through a column index
        // past its extent.
        let last_trip = findings(&|b| {
            let y = b.input("Y", &[4, 4], sa_ir::InitPattern::Wavy);
            let x = b.output("X", &[4, 4]);
            b.nest("n", &[("i", 0, 2), ("j", 0, 3)], |nb| {
                let rhs = nb.read(y, [iv(0), iv(1).plus(1)]);
                nb.assign(x, [iv(0), iv(1)], rhs);
            });
            let w = b.output("W", &[4]);
            b.nest("m", &[("k", 0, 4)], |nb| {
                nb.assign(w, [iv(0)], Expr::Const(1.0));
            });
        });
        assert_eq!(last_trip, [Code::Sa006OutOfBounds, Code::Sa006OutOfBounds]);
    }

    /// The producers the sweeps accept besides an earlier nest — an earlier
    /// statement of the same instance, an earlier outermost iteration —
    /// and gathers through a constant index array, each beside a near miss
    /// the walk decides: `(decided over sweeps, findings)`.
    #[test]
    fn earlier_statements_outer_iterations_and_static_gathers_are_proved() {
        let decided = |build: &dyn Fn(&mut ProgramBuilder)| {
            let mut b = ProgramBuilder::new("rule");
            build(&mut b);
            let p = b.finish();
            let before = crate::sites::instances_walked();
            let said = check_progress(&p);
            let over_sweeps = crate::sites::instances_walked() == before;
            assert_eq!(said, crate::by_instance(|| check_progress(&p)));
            (over_sweeps, said.iter().map(|d| d.code).collect::<Vec<_>>())
        };
        // Z[k] = X[k] after (before) the statement writing X[k].
        for (after, sweeps) in [(true, true), (false, false)] {
            let same_instance = decided(&|b| {
                let x = b.output("X", &[8]);
                let z = b.output("Z", &[8]);
                b.nest("n", &[("k", 0, 7)], |nb| {
                    let read = |nb: &mut sa_ir::builder::NestBuilder| {
                        let rhs = nb.read(x, [iv(0)]);
                        nb.assign(z, [iv(0)], rhs);
                    };
                    if !after {
                        read(nb);
                    }
                    nb.assign(x, [iv(0)], Expr::Const(1.0));
                    if after {
                        read(nb);
                    }
                });
            });
            assert_eq!(same_instance, (sweeps, vec![]));
        }
        // R[i+1][j] = R[i][j], row by row: the outermost iteration
        // before; column by column: the trip before, in the same sweep.
        for (by_rows, sweeps) in [(true, true), (false, false)] {
            let recurrence = decided(&|b| {
                let init = sa_ir::program::ArrayInit::Prefix {
                    pattern: sa_ir::InitPattern::Zero,
                    len: 5,
                };
                let r = b.array_with("R", &[5, 5], init);
                let (i, j, loops) = if by_rows {
                    (0, 1, [("a", 0, 3), ("b", 0, 4)])
                } else {
                    (1, 0, [("a", 0, 4), ("b", 0, 3)])
                };
                b.nest("n", &loops, |nb| {
                    let rhs = nb.read(r, [iv(i), iv(j)]);
                    nb.assign(r, [iv(i).plus(1), iv(j)], rhs);
                });
            });
            assert_eq!(recurrence, (sweeps, vec![]));
        }
        // Z[k] = V[2·I[k] + off]: inside V, or past its end at one k.
        for (off, sweeps, found) in [(0, true, vec![]), (1, false, vec![Code::Sa006OutOfBounds])] {
            let gather = decided(&|b| {
                let perm = sa_ir::InitPattern::Permutation { seed: 3 };
                let idx = b.input("I", &[8], perm);
                let v = b.input("V", &[15], sa_ir::InitPattern::Wavy);
                let z = b.output("Z", &[8]);
                b.nest("n", &[("k", 0, 7)], |nb| {
                    let through = sa_ir::IndexExpr::gather(idx, iv(0), 2, off);
                    let rhs = nb.read(v, [through]);
                    nb.assign(z, [iv(0)], rhs);
                });
            });
            assert_eq!(gather, (sweeps, found));
        }
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
