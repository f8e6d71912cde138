//! Shared static model of a program's writes and reads: generation
//! segments, write sites, and static resolution of gathers/scatters whose
//! index arrays are compile-time constants.

use sa_ir::index::IndexExpr;
use sa_ir::nest::{ArrayRef, LoopNest};
use sa_ir::program::{ArrayInit, Phase};
use sa_ir::{ArrayId, Program};
use sa_machine::{ConfigError, PartitionScheme, Placement};

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
    /// Elements `[0, init_len)` start defined (non-zero only for the
    /// segment before the first reinit).
    pub init_len: usize,
    pub writes: Vec<WriteSite<'p>>,
}

/// Split the program into per-array generation segments, attaching every
/// write site to the segment of its array that is live at that phase.
/// The slot layout (one segment per array up front, then one appended per
/// `Reinit` in phase order) is mirrored by the progress checker's
/// phase walk.
pub(crate) fn segments(program: &Program) -> Vec<Segment<'_>> {
    let n = program.arrays.len();
    let mut out: Vec<Segment<'_>> = (0..n)
        .map(|a| Segment {
            array: ArrayId(a),
            init_len: program.arrays[a].init.defined_len(program.arrays[a].len()),
            writes: Vec::new(),
        })
        .collect();
    let mut slot: Vec<usize> = (0..n).collect();

    for (phase_idx, phase) in program.phases.iter().enumerate() {
        match phase {
            Phase::Reinit(id) => {
                out.push(Segment {
                    array: *id,
                    init_len: 0, // reinit clears every definedness tag
                    writes: Vec::new(),
                });
                slot[id.0] = out.len() - 1;
            }
            Phase::Loop(nest) => {
                for (stmt_idx, stmt) in nest.body.iter().enumerate() {
                    if let Some(target) = stmt.write_target() {
                        out[slot[target.array.0]].writes.push(WriteSite {
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

/// [`Placement::table`] of `program`'s arrays: the placement every static
/// pass screens owners through, so it cannot disagree with the executors'.
pub(crate) fn array_placements(
    program: &Program,
    scheme: PartitionScheme,
    page_size: usize,
    n_pes: usize,
) -> Result<Vec<Placement>, ConfigError> {
    Placement::table(
        program.arrays.iter().map(|d| &d.dims),
        scheme,
        page_size,
        n_pes,
    )
}

/// Materialized contents of every *compile-time-constant* array: one that
/// is statically initialized, never written by any statement, and never
/// re-initialized. These are the index arrays a scatter/gather can be
/// resolved through statically. Entry is `None` for runtime-valued arrays;
/// the `Vec` holds the defined prefix (shorter than the array for
/// [`ArrayInit::Prefix`]).
pub(crate) fn static_array_values(program: &Program) -> Vec<Option<Vec<f64>>> {
    let n = program.arrays.len();
    let mut runtime = vec![false; n];
    for phase in &program.phases {
        match phase {
            Phase::Reinit(id) => runtime[id.0] = true,
            Phase::Loop(nest) => {
                for stmt in &nest.body {
                    if let Some(t) = stmt.write_target() {
                        runtime[t.array.0] = true;
                    }
                }
            }
        }
    }
    program
        .arrays
        .iter()
        .enumerate()
        .map(|(a, decl)| {
            if runtime[a] || matches!(decl.init, ArrayInit::Undefined) {
                None
            } else {
                Some(decl.init.materialize(decl.len()))
            }
        })
        .collect()
}

/// Why a static address resolution failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResolveFail {
    /// Some index goes through an array whose values are runtime data.
    NotStatic,
    /// The index-array position or the final index leaves its bounds.
    OutOfBounds,
    /// The index-array position lands past the statically defined prefix.
    UndefinedIndex,
}

/// Resolve a reference's linear address at iteration `ivs`, using
/// `statics` (from [`static_array_values`]) to see through gathers.
/// Mirrors `sa_ir::interp::resolve_ref_addr` exactly, including the
/// truncating `f64 → i64` conversion.
pub(crate) fn resolve_static_addr(
    program: &Program,
    statics: &[Option<Vec<f64>>],
    aref: &ArrayRef,
    ivs: &[i64],
) -> Result<usize, ResolveFail> {
    let decl = program.array(aref.array);
    // Row-major linearization folded in as each index resolves (this runs
    // once per reference per statement instance: no scratch vector). A
    // bounds failure is held back until every index has resolved, so
    // index-array failures keep their precedence.
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
                let Some(values) = &statics[base.0] else {
                    return Err(ResolveFail::NotStatic);
                };
                let p = pos.eval(ivs);
                let base_len = program.array(*base).len();
                if p < 0 || p as usize >= base_len {
                    return Err(ResolveFail::OutOfBounds);
                }
                if p as usize >= values.len() {
                    return Err(ResolveFail::UndefinedIndex);
                }
                scale * (values[p as usize] as i64) + offset
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

/// True if every indirection in `aref` goes through a compile-time-constant
/// index array.
pub(crate) fn statically_resolvable(aref: &ArrayRef, statics: &[Option<Vec<f64>>]) -> bool {
    aref.indices.iter().all(|ix| match ix {
        IndexExpr::Affine(_) => true,
        IndexExpr::Indirect { base, .. } => statics[base.0].is_some(),
    })
}
