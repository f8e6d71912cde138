//! The statement-instance stream: the enumerated-side counterpart of
//! [`sa_ir::access`].
//!
//! Under single assignment every array cell has exactly one producer per
//! generation, so a program's whole producer→consumer structure is a
//! function of its statement-instance stream. Every *exact* analysis of
//! this crate that enumerates (what `footprint` proves over sweeps needs
//! no instance) walks that stream through this module, which owns five
//! decisions and nothing else (the sixth an enumerating pass needs — the
//! executing PE of an instance — is [`crate::screening::Schedule::owner`],
//! shared with the engines):
//!
//! * **instance ids** — [`Instances`]: dense ids in execution order (body
//!   order inside iteration order) over [`iterate`], the one iteration
//!   walk, which really stops at the first error;
//! * **cell producer** — [`Producers`]: last writer, initializer prefix, or
//!   a forward deferral released by the later write;
//! * **generation slot** — [`segments`] and [`LiveSlots`]: which generation
//!   of an array is live at a phase;
//! * **address resolution** — [`Resolver`], seeing through index arrays
//!   whose contents are compile-time constants
//!   ([`sa_ir::analysis::StaticArrays`]), and
//!   [`unproduced_anchors`], the anchors no index array will be ready for;
//! * **the walk** — [`walk`], the one loop over the phases that allocates
//!   instance ids: it resolves each reference of each instance once, keeps
//!   the producer map, and reports to a [`Pass`] — work/span, the instance
//!   projection, the wait edges, witness descriptions and SA004/SA006 are
//!   observers of it — the events *nest*, *instance*, *read* (the cell or
//!   why it does not resolve; its producer if one has written it, else the
//!   read is deferred), *write* (the cell and the deferred reads it
//!   releases), *reduce*, *nest end*, *dangling* (a deferral nobody released
//!   by the time its generation closed) and *reinit*.

use std::collections::{HashMap, HashSet};

use sa_ir::analysis::{anchor_index_arrays, StaticArrays};
use sa_ir::index::IndexExpr;
use sa_ir::nest::{ArrayRef, LoopNest, Stmt};
use sa_ir::program::{ArrayInit, Phase};
use sa_ir::{ArrayId, Program};

use crate::depgraph::{InstanceError, SiteRef};

/// One statement that writes an array, with its location.
pub(crate) struct WriteSite<'p> {
    pub phase: usize,
    pub stmt: usize,
    pub nest: &'p LoopNest,
    pub target: &'p ArrayRef,
}

impl WriteSite<'_> {
    /// True if every target index is affine.
    pub fn is_affine(&self) -> bool {
        !self.target.has_indirection()
    }
}

/// All write sites of one array within one generation segment (the phases
/// between consecutive `Reinit`s of that array).
pub(crate) struct Segment<'p> {
    pub array: ArrayId,
    /// Ordinal among the array's segments (0 is the initial generation).
    pub generation: usize,
    /// Elements `[0, init_len)` start defined (non-zero only for the
    /// segment before the first reinit).
    pub init_len: usize,
    pub writes: Vec<WriteSite<'p>>,
}

/// The segment slot of each array's live generation while walking the
/// phases in order. The slot layout is one segment per array up front,
/// then one appended per `Reinit` in phase order.
pub(crate) struct LiveSlots {
    slot: Vec<usize>,
    next: usize,
}

impl LiveSlots {
    /// Before the first phase: every array is at its initial generation.
    pub fn new(program: &Program) -> Self {
        let n = program.arrays.len();
        LiveSlots {
            slot: (0..n).collect(),
            next: n,
        }
    }

    /// A `Reinit` of `array`: its next generation takes the next slot.
    pub fn reinit(&mut self, array: ArrayId) {
        self.slot[array.0] = self.next;
        self.next += 1;
    }

    /// The slot of `array`'s live generation.
    pub fn of(&self, array: ArrayId) -> usize {
        self.slot[array.0]
    }
}

/// Split the program into per-array generation segments, in [`LiveSlots`]
/// order, attaching every write site to the segment of its array that is
/// live at that phase.
pub(crate) fn segments(program: &Program) -> Vec<Segment<'_>> {
    let mut out: Vec<Segment<'_>> = program
        .arrays
        .iter()
        .enumerate()
        .map(|(a, decl)| Segment {
            array: ArrayId(a),
            generation: 0,
            init_len: decl.init.defined_len(decl.len()),
            writes: Vec::new(),
        })
        .collect();
    let mut live = LiveSlots::new(program);

    for (phase_idx, phase) in program.phases.iter().enumerate() {
        match phase {
            Phase::Reinit(id) => {
                out.push(Segment {
                    array: *id,
                    generation: out[live.of(*id)].generation + 1,
                    init_len: 0, // reinit clears every definedness tag
                    writes: Vec::new(),
                });
                live.reinit(*id);
            }
            Phase::Loop(nest) => {
                for (stmt_idx, stmt) in nest.body.iter().enumerate() {
                    if let Some(target) = stmt.write_target() {
                        out[live.of(target.array)].writes.push(WriteSite {
                            phase: phase_idx,
                            stmt: stmt_idx,
                            nest,
                            target,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Why a static address resolution failed. Lookup failures name the index
/// array and the position, which is what SA004/SA006 report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResolveFail {
    /// The position looked up in index array `base` leaves it.
    IndexOutOfBounds { base: ArrayId, pos: i64 },
    /// The values of index array `base` are runtime data.
    NotStatic { base: ArrayId, pos: usize },
    /// The position lands past the statically defined prefix of `base`.
    UndefinedIndex { base: ArrayId, pos: usize },
    /// The resolved indices leave the referenced array's extents.
    OutOfBounds,
}

/// A program and what its references resolve against: the contents of its
/// *compile-time-constant* arrays, the index arrays a scatter/gather can be
/// seen through statically.
pub(crate) struct Resolver<'p> {
    pub program: &'p Program,
    /// The constant arrays; a [`ArrayInit::Prefix`] one serves its defined
    /// prefix, and a position past it is [`ResolveFail::UndefinedIndex`].
    pub statics: StaticArrays<'p>,
}

impl<'p> Resolver<'p> {
    pub fn new(program: &'p Program) -> Self {
        Resolver {
            program,
            statics: StaticArrays::scan(program),
        }
    }

    /// The linear address `aref` names at iteration `ivs`, seen through
    /// gathers. Mirrors `sa_ir::interp::resolve_ref_addr` exactly,
    /// including the truncating `f64 → i64` conversion.
    #[inline]
    pub fn addr(&self, aref: &ArrayRef, ivs: &[i64]) -> Result<usize, ResolveFail> {
        let decl = self.program.array(aref.array);
        // Row-major linearization folded in as each index resolves (this
        // runs once per reference per statement instance: no scratch
        // vector). A bounds failure is held back until every index has
        // resolved, so index-array failures keep their precedence.
        let mut in_bounds = aref.indices.len() == decl.dims.len();
        let mut addr = 0usize;
        for (ix, &extent) in aref.indices.iter().zip(&decl.dims) {
            let i = match ix {
                IndexExpr::Affine(a) => a.eval(ivs),
                IndexExpr::Indirect {
                    base,
                    pos,
                    scale,
                    offset,
                } => {
                    let base = *base;
                    let p = pos.eval(ivs);
                    if p < 0 || p as usize >= self.program.array(base).len() {
                        return Err(ResolveFail::IndexOutOfBounds { base, pos: p });
                    }
                    let pos = p as usize;
                    let Some(values) = self.statics.get(base) else {
                        return Err(ResolveFail::NotStatic { base, pos });
                    };
                    if pos >= values.len() {
                        return Err(ResolveFail::UndefinedIndex { base, pos });
                    }
                    scale * (values[pos] as i64) + offset
                }
            };
            in_bounds &= i >= 0 && (i as usize) < extent;
            addr = addr.wrapping_mul(extent).wrapping_add(i as usize);
        }
        if in_bounds {
            Ok(addr)
        } else {
            Err(ResolveFail::OutOfBounds)
        }
    }

    /// The first index array `aref` goes through whose values are runtime
    /// data, if any: `None` means the reference resolves statically.
    pub fn runtime_index(&self, aref: &ArrayRef) -> Option<ArrayId> {
        aref.indices.iter().find_map(|ix| match ix {
            IndexExpr::Indirect { base, .. } if self.statics.pattern(*base).is_none() => {
                Some(*base)
            }
            _ => None,
        })
    }

    /// Reject a program with an indirection that cannot be seen through
    /// statically — what every exact pass asks before it walks.
    pub fn check_static(&self) -> Result<(), InstanceError> {
        for stmt in self.program.nests().flat_map(|nest| &nest.body) {
            for r in stmt.reads().into_iter().chain(stmt.write_target()) {
                if let Some(base) = self.runtime_index(r) {
                    return Err(InstanceError::RuntimeIndirection(base));
                }
            }
        }
        Ok(())
    }
}

/// Visit every indirect statement anchor whose index array is not ready
/// when its nest starts, in program order: `f(site, nest, index array,
/// same_nest)`. `same_nest` means the nest itself produces the index array
/// (ownership would depend on intra-nest timing: the counting engines run
/// it, the thread runtime rejects it); otherwise the array is neither
/// statically initialized nor written by an earlier nest of its current
/// generation, and every engine aborts on the first lookup. `Prefix`
/// initializers count as initialized: the check is per array, not per cell.
pub fn unproduced_anchors(program: &Program, mut f: impl FnMut(SiteRef, &LoopNest, ArrayId, bool)) {
    let mut ready: Vec<bool> = program
        .arrays
        .iter()
        .map(|d| !matches!(d.init, ArrayInit::Undefined))
        .collect();
    for (phase, p) in program.phases.iter().enumerate() {
        match p {
            // A re-initialized array is undefined again until rewritten.
            Phase::Reinit(id) => ready[id.0] = false,
            Phase::Loop(nest) => {
                let written_here = nest.written_arrays();
                for (stmt, s) in nest.body.iter().enumerate() {
                    for base in anchor_index_arrays(s) {
                        let same_nest = written_here.contains(&base);
                        if same_nest || !ready[base.0] {
                            f(SiteRef { phase, stmt }, nest, base, same_nest);
                        }
                    }
                }
                for id in written_here {
                    ready[id.0] = true;
                }
            }
        }
    }
}

/// Every iteration vector of `nest` (outermost first) in execution order,
/// until `f` returns an error — which ends the walk on the spot.
pub(crate) fn iterate<E>(nest: &LoopNest, f: impl FnMut(&[i64]) -> Result<(), E>) -> Result<(), E> {
    nest.try_for_each_iteration(f)
}

/// "No instance" in `u32` id tables; ids stay strictly below it.
const NONE: u32 = u32::MAX;

/// A read nobody had produced the cell of when it ran: instance `reader`,
/// through its `reference`-th reference (value reads in order, then the
/// write target's index lookups). Ordered as executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Deferral {
    pub reader: u32,
    pub reference: u32,
}

/// Who produces each cell, as the stream is walked: the version map of a
/// dynamic single-assignment translation, each read resolved to the one
/// definition that reaches it.
struct Producers {
    /// Last writer of each cell in the live generation, or [`NONE`].
    writers: Vec<Vec<u32>>,
    /// Cells `[0, init_cov)` are defined by the initializer.
    init_cov: Vec<usize>,
    /// Forward deferrals: readers of cells nobody has written yet.
    pending: Vec<HashMap<usize, Vec<Deferral>>>,
}

impl Producers {
    /// Before the first phase: no writers, every initializer in force.
    fn new(program: &Program) -> Self {
        let arrays = &program.arrays;
        Producers {
            writers: arrays.iter().map(|a| vec![NONE; a.len()]).collect(),
            init_cov: arrays.iter().map(|a| a.init.defined_len(a.len())).collect(),
            pending: vec![HashMap::new(); arrays.len()],
        }
    }

    /// `by` reads `array[addr]`: the instance that wrote the cell, if one
    /// has. `None` when the initializer defines it, or when nobody has
    /// written it yet — then `by` is handed to the write of this generation
    /// that eventually does ([`Producers::write`]), or found dangling when
    /// the generation closes without one ([`Producers::close`]).
    #[inline]
    fn read(&mut self, array: ArrayId, addr: usize, by: Deferral) -> Option<u32> {
        let w = self.writers[array.0][addr];
        if w != NONE {
            return Some(w);
        }
        if addr >= self.init_cov[array.0] {
            self.pending[array.0].entry(addr).or_default().push(by);
        }
        None
    }

    /// The index-array cell a reference failed on is itself a read.
    fn read_index_cell(&mut self, fail: ResolveFail, by: Deferral) {
        if let ResolveFail::NotStatic { base, pos } | ResolveFail::UndefinedIndex { base, pos } =
            fail
        {
            self.read(base, pos, by);
        }
    }

    /// Instance `writer` writes `array[addr]`, becoming its producer: the
    /// earlier reads that were waiting for the cell, now released.
    fn write(&mut self, array: ArrayId, addr: usize, writer: u32) -> Vec<Deferral> {
        self.writers[array.0][addr] = writer;
        let pending = &mut self.pending[array.0];
        // Most programs defer nothing: no hashing then.
        if pending.is_empty() {
            return Vec::new();
        }
        pending.remove(&addr).unwrap_or_default()
    }

    /// The live generation of `array` ends: the reads it never satisfied,
    /// as `(addr, read)` — dangling deferrals (SA004's domain), not waits
    /// on a later generation.
    fn close(&mut self, array: ArrayId) -> impl Iterator<Item = (usize, Deferral)> + '_ {
        let unreleased = self.pending[array.0].drain();
        unreleased.flat_map(|(addr, reads)| reads.into_iter().map(move |read| (addr, read)))
    }

    /// A `Reinit` of `array`, its generation closed: earlier writers cannot
    /// satisfy reads of the new one, and every definedness tag — the
    /// initializer's included — is cleared.
    fn reinit(&mut self, array: ArrayId) {
        self.writers[array.0].fill(NONE);
        self.init_cov[array.0] = 0;
    }
}

/// One statement instance, as [`walk`] reports it.
pub(crate) struct Instance<'a> {
    /// Phase index of the nest.
    pub phase: usize,
    pub nest: &'a LoopNest,
    /// Ordinal of the nest among the program's nests (re-initializations
    /// not counted): [`crate::screening::Schedule`]'s numbering.
    pub nest_index: usize,
    /// Ordinal of the iteration within the nest: its turn in the deal.
    pub iteration: u64,
    pub stmt: usize,
    /// Dense id, one per (iteration, statement) in execution order — body
    /// order inside iteration order — counted across the nests.
    pub id: u32,
    pub ivs: &'a [i64],
}

/// A value read of an instance, its `reference`-th: the address `aref`
/// names and the instance that wrote the cell, if one has (otherwise the
/// initializer defines it, or the read is deferred) — or why `aref` names
/// no cell there.
pub(crate) struct Read<'a> {
    pub reference: usize,
    pub aref: &'a ArrayRef,
    pub cell: Result<(usize, Option<u32>), ResolveFail>,
}

/// The assignment of an instance: the address written and the deferred
/// reads the write releases, or why `target` names no cell there.
pub(crate) struct Write<'a> {
    pub target: &'a ArrayRef,
    pub cell: Result<(usize, &'a [Deferral]), ResolveFail>,
}

/// What a pass answers an event with: go on, `Err(None)` once it has seen
/// all it wanted, or the error it cannot go past.
pub(crate) type Flow = Result<(), Option<InstanceError>>;

/// An observer of [`walk`]. Every method defaults to nothing, so a pass
/// states only what it watches. An instance is one `instance`, its `read`s
/// in reference order, then its `write` or `reduce`; instances do not
/// interleave. `first` and `count` are instances walked so far: the id the
/// next one gets.
pub(crate) trait Pass {
    /// Whether the pass watches anything of an instance but that it is
    /// there: if not, the walk resolves no reference of it.
    const REFERENCES: bool = true;
    fn nest(&mut self, _phase: usize, _nest: &LoopNest, _first: usize) {}
    fn instance(&mut self, _at: &Instance<'_>) -> Flow {
        Ok(())
    }
    fn read(&mut self, _at: &Instance<'_>, _read: Read<'_>) -> Flow {
        Ok(())
    }
    fn write(&mut self, _at: &Instance<'_>, _write: Write<'_>) -> Flow {
        Ok(())
    }
    /// The instance contributes to its statement's reduction.
    fn reduce(&mut self, _at: &Instance<'_>) {}
    fn nest_end(&mut self, _phase: usize, _nest: &LoopNest, _count: usize) {}
    /// A generation of `array` closed — at its `reinit`, reported next, or
    /// at the end of the program — without anybody writing `array[addr]`,
    /// which `read` was deferred on.
    fn dangling(&mut self, _array: ArrayId, _addr: usize, _read: Deferral) {}
    fn reinit(&mut self, _phase: usize, _array: ArrayId, _count: usize) {}
}

/// A pass that watches instances and nothing else.
impl<F: FnMut(&Instance<'_>) -> Flow> Pass for F {
    const REFERENCES: bool = false;
    fn instance(&mut self, at: &Instance<'_>) -> Flow {
        self(at)
    }
}

/// Walk the statement instances of `res`'s program in execution order,
/// reporting to `pass`: the one loop over the phases that allocates
/// instance ids. Returns how many instances it walked; running out of `u32`
/// ids is [`InstanceError::TooLarge`].
///
/// A reference that names no cell is the pass's call: the exact passes fail
/// on it, SA006 reports it and goes on. The walk goes on as the
/// definedness analysis always has: an index-array cell a lookup could not
/// read is a read of that cell, and a statement whose target has left its
/// array (the executors abort there) defines nothing from then on.
pub(crate) fn walk<P: Pass>(res: &Resolver<'_>, pass: &mut P) -> Result<usize, InstanceError> {
    let mut count = 0;
    let walked = walk_phases(res, pass, &mut count);
    #[cfg(test)]
    WALKED.with(|n| n.set(n.get() + count));
    match walked {
        Ok(()) | Err(None) => Ok(count),
        Err(Some(e)) => Err(e),
    }
}

fn walk_phases<P: Pass>(res: &Resolver<'_>, pass: &mut P, count: &mut usize) -> Flow {
    let program = res.program;
    let mut producers = Producers::new(program);
    let mut nest_index = 0;
    for (phase, p) in program.phases.iter().enumerate() {
        let nest = match p {
            Phase::Reinit(array) => {
                for (addr, read) in producers.close(*array) {
                    pass.dangling(*array, addr, read);
                }
                producers.reinit(*array);
                pass.reinit(phase, *array, *count);
                continue;
            }
            Phase::Loop(nest) => nest,
        };
        let reads: Vec<Vec<&ArrayRef>> = nest.body.iter().map(Stmt::reads).collect();
        let mut left_its_array = vec![false; nest.body.len()];
        pass.nest(phase, nest, *count);
        let mut iteration = 0;
        iterate(nest, |ivs| {
            for (stmt, body) in nest.body.iter().enumerate() {
                if *count >= NONE as usize - 1 {
                    return Err(Some(InstanceError::TooLarge));
                }
                let at = &Instance {
                    phase,
                    nest,
                    nest_index,
                    iteration,
                    stmt,
                    id: *count as u32,
                    ivs,
                };
                *count += 1;
                pass.instance(at)?;
                if !P::REFERENCES {
                    continue;
                }
                let mut by = Deferral {
                    reader: at.id,
                    reference: 0,
                };
                for (reference, aref) in reads[stmt].iter().enumerate() {
                    by.reference = reference as u32;
                    let cell = match res.addr(aref, ivs) {
                        Ok(addr) => Ok((addr, producers.read(aref.array, addr, by))),
                        Err(fail) => {
                            producers.read_index_cell(fail, by);
                            Err(fail)
                        }
                    };
                    let read = Read {
                        reference,
                        aref,
                        cell,
                    };
                    pass.read(at, read)?;
                }
                let Stmt::Assign { target, .. } = body else {
                    pass.reduce(at);
                    continue;
                };
                let released;
                let cell = match res.addr(target, ivs) {
                    Ok(_) if left_its_array[stmt] => continue,
                    Ok(addr) => {
                        released = producers.write(target.array, addr, at.id);
                        Ok((addr, &released[..]))
                    }
                    Err(fail) => {
                        by.reference = reads[stmt].len() as u32;
                        producers.read_index_cell(fail, by);
                        left_its_array[stmt] |= matches!(
                            fail,
                            ResolveFail::OutOfBounds | ResolveFail::IndexOutOfBounds { .. }
                        );
                        Err(fail)
                    }
                };
                pass.write(at, Write { target, cell })?;
            }
            iteration += 1;
            Ok(())
        })?;
        pass.nest_end(phase, nest, *count);
        nest_index += 1;
    }
    for array in (0..program.arrays.len()).map(ArrayId) {
        for (addr, read) in producers.close(array) {
            pass.dangling(array, addr, read);
        }
    }
    Ok(())
}

#[cfg(test)]
thread_local! {
    static WALKED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Instances every [`walk`] of this thread has reported so far.
#[cfg(test)]
pub(crate) fn instances_walked() -> usize {
    WALKED.with(std::cell::Cell::get)
}

/// What `show` makes of each instance in `wanted`. Recovered by walking
/// again (ids are dense sequence numbers), so no pass stores per-instance
/// iteration vectors; the walk stops once every wanted id is described.
pub(crate) fn describe<T>(
    res: &Resolver<'_>,
    wanted: &HashSet<u32>,
    show: impl Fn(&Instance<'_>) -> T,
) -> HashMap<u32, T> {
    let mut out = HashMap::new();
    if wanted.is_empty() {
        return out;
    }
    // Out of ids: whatever lies beyond stays undescribed.
    let _ = walk(res, &mut |at: &Instance<'_>| {
        if wanted.contains(&at.id) {
            out.insert(at.id, show(at));
        }
        if out.len() == wanted.len() {
            return Err(None);
        }
        Ok(())
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_ir::index::iv;
    use sa_ir::{Expr, InitPattern, ProgramBuilder};

    /// X (8 cells, first 2 initialized) written by two statements over a
    /// 3 × 2 grid, by a zero-trip nest, and by a zero-depth nest.
    fn program() -> Program {
        let mut b = ProgramBuilder::new("stream");
        let init = ArrayInit::Prefix {
            pattern: InitPattern::Zero,
            len: 2,
        };
        let x = b.array_with("X", &[8], init);
        b.nest("grid", &[("i", 0, 2), ("j", 4, 5)], |nb| {
            nb.assign(x, [iv(0)], Expr::Const(0.0));
            nb.assign(x, [iv(1)], Expr::Const(1.0));
        });
        b.nest("empty", &[("k", 5, 4)], |nb| {
            nb.assign(x, [iv(0)], Expr::Const(2.0));
        });
        b.nest("point", &[], |nb| nb.assign(x, [7], Expr::Const(3.0)));
        b.finish()
    }

    type Visited = (Vec<(Vec<i64>, usize, u32)>, Result<usize, InstanceError>);

    /// Every `(ivs, stmt, id)` the walk visits, failing at id `fail_at`.
    fn visit(fail_at: Option<u32>) -> Visited {
        let mut seen = Vec::new();
        let p = program();
        let walked = walk(&Resolver::new(&p), &mut |at: &Instance<'_>| {
            seen.push((at.ivs.to_vec(), at.stmt, at.id));
            if fail_at == Some(at.id) {
                return Err(Some(InstanceError::Cyclic));
            }
            Ok(())
        });
        (seen, walked)
    }

    #[test]
    fn ids_are_dense_with_body_order_inside_iteration_order() {
        let (seen, count) = visit(None);
        // 3 × 2 iterations × 2 statements, none for the zero-trip nest, one
        // for the zero-depth nest's statement.
        assert_eq!(count, Ok(13));
        assert!(seen.iter().enumerate().all(|(n, s)| s.2 == n as u32));
        assert_eq!(seen[0], (vec![0, 4], 0, 0));
        assert_eq!(seen[1], (vec![0, 4], 1, 1));
        assert_eq!(seen[2], (vec![0, 5], 0, 2));
        assert_eq!(seen[11], (vec![2, 5], 1, 11));
        assert_eq!(seen[12], (vec![], 0, 12));
    }

    #[test]
    fn the_walk_ends_at_the_first_error() {
        let (seen, walked) = visit(Some(4));
        assert_eq!(seen.last().unwrap().2, 4);
        assert_eq!((seen.len(), walked), (5, Err(InstanceError::Cyclic)));
    }

    #[test]
    fn producers_resolve_each_read_to_the_definition_that_reaches_it() {
        let x = ArrayId(0);
        let by = |reader| Deferral {
            reader,
            reference: 0,
        };
        let mut producers = Producers::new(&program());
        // Under the initializer prefix: waits on nobody, now or later.
        assert_eq!(producers.read(x, 1, by(10)), None);
        assert!(producers.write(x, 1, 11).is_empty());
        // Backward: the last writer. Forward: handed to the later write.
        assert_eq!(producers.read(x, 1, by(12)), Some(11));
        assert_eq!(producers.read(x, 5, by(13)), None);
        assert_eq!(producers.read(x, 5, by(14)), None);
        assert_eq!(producers.write(x, 5, 15), vec![by(13), by(14)]);
        // A reinit closes the generation: the read it never satisfied is
        // dangling, and writers and the prefix are gone.
        assert_eq!(producers.read(x, 6, by(16)), None);
        let dangling: Vec<_> = producers.close(x).collect();
        producers.reinit(x);
        assert_eq!(dangling, vec![(6, by(16))]);
        assert_eq!(producers.read(x, 5, by(17)), None);
        assert_eq!(producers.read(x, 1, by(18)), None);
        assert!(producers.write(x, 6, 19).is_empty());
        assert_eq!(producers.write(x, 1, 20), vec![by(18)]);
        assert_eq!(producers.write(x, 5, 21), vec![by(17)]);
    }

    /// The events of a walk, one line each.
    struct Log(Vec<String>);

    impl Pass for Log {
        fn nest(&mut self, phase: usize, nest: &LoopNest, first: usize) {
            self.0
                .push(format!("nest p{phase} {} from {first}", nest.label));
        }
        fn instance(&mut self, at: &Instance<'_>) -> Flow {
            self.0.push(format!(
                "#{} n{} i{} s{} {:?}",
                at.id, at.nest_index, at.iteration, at.stmt, at.ivs
            ));
            Ok(())
        }
        fn read(&mut self, at: &Instance<'_>, read: Read<'_>) -> Flow {
            let Read {
                reference, cell, ..
            } = read;
            self.0.push(format!("#{} r{reference} {cell:?}", at.id));
            Ok(())
        }
        fn write(&mut self, at: &Instance<'_>, write: Write<'_>) -> Flow {
            let cell = write.cell.map(|(addr, released)| {
                let readers: Vec<u32> = released.iter().map(|d| d.reader).collect();
                (addr, readers)
            });
            self.0.push(format!("#{} w {cell:?}", at.id));
            Ok(())
        }
        fn reduce(&mut self, at: &Instance<'_>) {
            self.0.push(format!("#{} reduce", at.id));
        }
        fn nest_end(&mut self, phase: usize, _nest: &LoopNest, count: usize) {
            self.0.push(format!("end p{phase} at {count}"));
        }
        fn dangling(&mut self, array: ArrayId, addr: usize, read: Deferral) {
            let Deferral { reader, reference } = read;
            let array = array.0;
            self.0
                .push(format!("dangling A{array}[{addr}] #{reader} r{reference}"));
        }
        fn reinit(&mut self, phase: usize, array: ArrayId, count: usize) {
            self.0
                .push(format!("reinit p{phase} A{} at {count}", array.0));
        }
    }

    /// Z[k] = X[k] + X[k+1] reads ahead of X[k] = 1 (k = 0, 1): X[0], X[1]
    /// are forward deferrals, X[2] is never written; then a reinit of X and
    /// a reduction over it.
    #[test]
    fn the_walk_reports_every_event_in_program_order() {
        let mut b = ProgramBuilder::new("events");
        let x = b.output("X", &[3]);
        let z = b.output("Z", &[2]);
        let s = b.scalar("s");
        b.nest("use", &[("k", 0, 1)], |nb| {
            let v = nb.read(x, [iv(0)]) + nb.read(x, [iv(0).plus(1)]);
            nb.assign(z, [iv(0)], v);
        });
        b.nest("make", &[("k", 0, 1)], |nb| {
            nb.assign(x, [iv(0)], Expr::Const(1.0));
        });
        b.reinit(x);
        b.nest("sum", &[("k", 3, 3)], |nb| {
            let v = nb.read(x, [iv(0)]);
            nb.reduce(s, sa_ir::ReduceOp::Sum, v);
        });
        let p = b.finish();
        let mut log = Log(Vec::new());
        let walked = walk(&Resolver::new(&p), &mut log);
        let log = log.0;
        assert_eq!(walked, Ok(5));
        let expected = "\
            nest p0 use from 0|#0 n0 i0 s0 [0]|#0 r0 Ok((0, None))|#0 r1 Ok((1, None))|\
            #0 w Ok((0, []))|#1 n0 i1 s0 [1]|#1 r0 Ok((1, None))|#1 r1 Ok((2, None))|\
            #1 w Ok((1, []))|end p0 at 2|nest p1 make from 2|#2 n1 i0 s0 [0]|\
            #2 w Ok((0, [0]))|#3 n1 i1 s0 [1]|#3 w Ok((1, [0, 1]))|end p1 at 4|\
            dangling A0[2] #1 r1|reinit p2 A0 at 4|nest p3 sum from 4|#4 n2 i0 s0 [3]|\
            #4 r0 Err(OutOfBounds)|#4 reduce|end p3 at 5";
        assert_eq!(log.join("|"), expected);
    }
}
