//! The statement-instance stream: the enumerated-side counterpart of
//! [`sa_ir::access`].
//!
//! Under single assignment every array cell has exactly one producer per
//! generation, so a program's whole producer→consumer structure is a
//! function of its statement-instance stream. Every *exact* analysis of
//! this crate walks that stream through this module, which owns four
//! decisions and nothing else (the fifth an enumerating pass needs — the
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
//!   [`unproduced_anchors`], the anchors no index array will be ready for.

use std::collections::HashMap;

use sa_ir::analysis::{anchor_index_arrays, StaticArrays};
use sa_ir::index::IndexExpr;
use sa_ir::nest::{ArrayRef, LoopNest};
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

    /// [`Resolver::addr`] for the instance-level passes, which report any
    /// failure as the referenced array being unresolvable.
    #[inline]
    pub fn instance_addr(&self, aref: &ArrayRef, ivs: &[i64]) -> Result<usize, InstanceError> {
        self.addr(aref, ivs)
            .map_err(|_| InstanceError::Unresolvable(aref.array))
    }

    /// The first index array `aref` goes through whose values are runtime
    /// data, if any: `None` means the reference resolves statically.
    pub fn runtime_index(&self, aref: &ArrayRef) -> Option<ArrayId> {
        aref.indices.iter().find_map(|ix| match ix {
            IndexExpr::Indirect { base, .. } if self.statics.get(*base).is_none() => Some(*base),
            _ => None,
        })
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

/// Allocator of dense statement-instance ids: one per (iteration,
/// statement), counted across the nests it walks in program order.
#[derive(Default)]
pub(crate) struct Instances {
    next: usize,
}

impl Instances {
    /// Instances allocated so far: the id the next one gets.
    pub fn count(&self) -> usize {
        self.next
    }

    /// Walk `nest`, calling `f(ivs, stmt, id)` for every statement of the
    /// body, in order, at every iteration. Stops at the first error;
    /// running out of `u32` ids is [`InstanceError::TooLarge`].
    pub fn nest<E: From<InstanceError>>(
        &mut self,
        nest: &LoopNest,
        mut f: impl FnMut(&[i64], usize, u32) -> Result<(), E>,
    ) -> Result<(), E> {
        iterate(nest, |ivs| {
            for stmt in 0..nest.body.len() {
                if self.next >= NONE as usize - 1 {
                    return Err(InstanceError::TooLarge.into());
                }
                let id = self.next as u32;
                self.next += 1;
                f(ivs, stmt, id)?;
            }
            Ok(())
        })
    }
}

/// Who produces each cell, as the stream is walked: the version map of a
/// dynamic single-assignment translation, each read resolved to the one
/// definition that reaches it.
pub(crate) struct Producers {
    /// Last writer of each cell in the live generation, or [`NONE`].
    writers: Vec<Vec<u32>>,
    /// Cells `[0, init_cov)` are defined by the initializer.
    init_cov: Vec<usize>,
    /// Forward deferrals: readers of cells nobody has written yet.
    pending: Vec<HashMap<usize, Vec<u32>>>,
}

impl Producers {
    /// Before the first phase: no writers, every initializer in force.
    pub fn new(program: &Program) -> Self {
        let arrays = &program.arrays;
        Producers {
            writers: arrays.iter().map(|a| vec![NONE; a.len()]).collect(),
            init_cov: arrays.iter().map(|a| a.init.defined_len(a.len())).collect(),
            pending: vec![HashMap::new(); arrays.len()],
        }
    }

    /// Instance `reader` reads `array[addr]`: the instance that wrote the
    /// cell, if one has. `None` when the initializer defines it, or when
    /// nobody has written it yet — then `reader` is handed to the write of
    /// this generation that eventually does ([`Producers::write`]).
    #[inline]
    pub fn read(&mut self, array: ArrayId, addr: usize, reader: u32) -> Option<u32> {
        let w = self.writers[array.0][addr];
        if w != NONE {
            return Some(w);
        }
        if addr >= self.init_cov[array.0] {
            self.pending[array.0].entry(addr).or_default().push(reader);
        }
        None
    }

    /// Instance `writer` writes `array[addr]`, becoming its producer;
    /// `released` gets every earlier reader that was waiting for the cell.
    pub fn write(&mut self, array: ArrayId, addr: usize, writer: u32, released: impl FnMut(u32)) {
        self.writers[array.0][addr] = writer;
        if let Some(readers) = self.pending[array.0].remove(&addr) {
            readers.into_iter().for_each(released);
        }
    }

    /// A `Reinit` of `array`: earlier writers cannot satisfy reads of the
    /// new generation, reads the old one never satisfied are dangling
    /// deferrals (SA004's domain) rather than waits on the new one, and
    /// every definedness tag — the initializer's included — is cleared.
    pub fn reinit(&mut self, array: ArrayId) {
        self.writers[array.0].fill(NONE);
        self.pending[array.0].clear();
        self.init_cov[array.0] = 0;
    }
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

    /// Every `(ivs, stmt, id)` the walk visits, stopping at id `stop_at`.
    fn walk(stop_at: Option<u32>) -> (Vec<(Vec<i64>, usize, u32)>, usize) {
        let mut seen = Vec::new();
        let mut inst = Instances::default();
        for nest in program().nests() {
            let walked = inst.nest(nest, |ivs, stmt, id| {
                seen.push((ivs.to_vec(), stmt, id));
                if stop_at == Some(id) {
                    return Err(InstanceError::Cyclic);
                }
                Ok(())
            });
            if walked.is_err() {
                break;
            }
        }
        (seen, inst.count())
    }

    #[test]
    fn ids_are_dense_with_body_order_inside_iteration_order() {
        let (seen, count) = walk(None);
        // 3 × 2 iterations × 2 statements, none for the zero-trip nest, one
        // for the zero-depth nest's statement.
        assert_eq!(count, 13);
        assert!(seen.iter().enumerate().all(|(n, s)| s.2 == n as u32));
        assert_eq!(seen[0], (vec![0, 4], 0, 0));
        assert_eq!(seen[1], (vec![0, 4], 1, 1));
        assert_eq!(seen[2], (vec![0, 5], 0, 2));
        assert_eq!(seen[11], (vec![2, 5], 1, 11));
        assert_eq!(seen[12], (vec![], 0, 12));
    }

    #[test]
    fn the_walk_ends_at_the_first_error() {
        let (seen, count) = walk(Some(4));
        assert_eq!(seen.last().unwrap().2, 4);
        assert_eq!((seen.len(), count), (5, 5));
    }

    #[test]
    fn producers_resolve_each_read_to_the_definition_that_reaches_it() {
        let x = ArrayId(0);
        let mut producers = Producers::new(&program());
        let mut released = Vec::new();
        // Under the initializer prefix: waits on nobody, now or later.
        assert_eq!(producers.read(x, 1, 10), None);
        producers.write(x, 1, 11, |r| released.push(r));
        assert!(released.is_empty());
        // Backward: the last writer. Forward: handed to the later write.
        assert_eq!(producers.read(x, 1, 12), Some(11));
        assert_eq!(producers.read(x, 5, 13), None);
        assert_eq!(producers.read(x, 5, 14), None);
        producers.write(x, 5, 15, |r| released.push(r));
        assert_eq!(released, vec![13, 14]);
        // A reinit drops pending reads, writers and the prefix.
        assert_eq!(producers.read(x, 6, 16), None);
        producers.reinit(x);
        assert_eq!(producers.read(x, 5, 17), None);
        assert_eq!(producers.read(x, 1, 18), None);
        released.clear();
        producers.write(x, 6, 19, |r| released.push(r));
        assert!(released.is_empty());
        producers.write(x, 1, 20, |r| released.push(r));
        producers.write(x, 5, 21, |r| released.push(r));
        assert_eq!(released, vec![18, 17]);
    }
}
