//! Automatic conversion of conventional (von Neumann) programs to
//! single-assignment form — the "automatic conversion tool" of paper §5.
//!
//! Two strategies, mirroring the paper's discussion:
//!
//! * [`SsaMode::Expand`] — *array expansion*: each phase that redefines an
//!   already-defined region of an array gets a fresh **version** array
//!   (`A@1`, `A@2`, …) and reads are redirected to the version that produced
//!   the value they consume. This "tends to increase the amount of memory
//!   used for array storage" (§5) but introduces no synchronization.
//! * [`SsaMode::Reinit`] — *array re-initialization*: a [`Phase::Reinit`] is
//!   inserted before each redefining phase, to be executed via the
//!   host-processor synchronization protocol at runtime. Memory stays
//!   constant "at the expense of an artificial synchronization point" (§5).
//!
//! Conversion is *value-based*: a relaxed tracing interpreter runs the
//! program under ordinary overwrite semantics and records, for every read
//! site, which phase produced the value consumed. Sites that mix producers
//! from different versions cannot be converted at nest granularity and are
//! reported precisely ([`SsaError::MixedProducers`]). Like any trace-based
//! tool the guarantee is per input size; [`verify_single_assignment`]
//! re-checks the converted program with the strict interpreter.

use std::collections::{BTreeMap, BTreeSet};

use crate::expr::Expr;
use crate::interp::{interpret, resolve_ref_addr, Memory};
use crate::nest::{ArrayRef, Stmt};
use crate::program::{ArrayDecl, ArrayInit, Phase, Program};
use crate::{ArrayId, IrError};

/// Conversion strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SsaMode {
    /// Rename redefining phases onto fresh version arrays.
    Expand,
    /// Insert re-initialization (generation) phases.
    Reinit,
}

/// Why a program could not be converted.
#[derive(Debug, Clone, PartialEq)]
pub enum SsaError {
    /// The same address is written more than once within one version
    /// (e.g. in-loop accumulation `W(i) = W(i) + …`); must be rewritten
    /// with a reduction.
    MultiWriteInVersion {
        /// Offending array name.
        array: String,
        /// Offending linear address.
        addr: usize,
        /// Phase performing the second write.
        phase: usize,
    },
    /// A read site consumes values produced by different versions; nest
    /// granularity renaming cannot express it.
    MixedProducers {
        /// Array being read.
        array: String,
        /// Phase containing the read.
        phase: usize,
        /// Statement index within the nest.
        stmt: usize,
    },
    /// In `Reinit` mode, a read needed a value from a version that the
    /// inserted re-initialization would destroy.
    ValueLost {
        /// Array being read.
        array: String,
        /// Phase containing the read.
        phase: usize,
    },
    /// The tracing run itself failed (out of bounds, read of never-written).
    Trace(IrError),
}

impl core::fmt::Display for SsaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SsaError::MultiWriteInVersion { array, addr, phase } => write!(
                f,
                "address {addr} of {array} written more than once within a version (phase {phase}); rewrite with a reduction"
            ),
            SsaError::MixedProducers { array, phase, stmt } => write!(
                f,
                "read of {array} at phase {phase} stmt {stmt} mixes producers from different versions"
            ),
            SsaError::ValueLost { array, phase } => write!(
                f,
                "re-initialization before phase {phase} would destroy values of {array} still needed"
            ),
            SsaError::Trace(e) => write!(f, "tracing failed: {e}"),
        }
    }
}

impl std::error::Error for SsaError {}

/// Result of a successful conversion.
#[derive(Debug, Clone)]
pub struct Conversion {
    /// The converted, single-assignment program.
    pub program: Program,
    /// Number of version arrays added (`Expand` mode).
    pub versions_added: usize,
    /// Number of re-initialization phases inserted (`Reinit` mode).
    pub reinits_added: usize,
}

/// True if the strict interpreter accepts the program (no double writes).
pub fn verify_single_assignment(program: &Program) -> bool {
    interpret(program).is_ok()
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

type Site = (usize, usize, usize); // (phase, stmt, read slot)

#[derive(Debug, Default)]
struct Trace {
    /// Version index of each (array, phase-writer) pair, as scheduled.
    version_of_phase: BTreeMap<(usize, usize), usize>, // (array, phase) -> version
    /// Versions in existence per array (>= 1 counting the original).
    version_count: BTreeMap<usize, usize>,
    /// Producer versions seen at each read site, per array.
    site_versions: BTreeMap<Site, BTreeMap<usize, BTreeSet<usize>>>, // site -> array -> versions
    /// Phases that start a new version (conflict points), per array.
    conflict_phases: BTreeMap<usize, Vec<usize>>,
    /// Reads occurring in phase `q` of array `a` from a version older than
    /// the version current at `q` — fatal for Reinit mode.
    cross_version_reads: BTreeSet<usize>, // arrays
}

struct VonNeumannStore {
    values: Vec<Vec<f64>>,
    /// Producer version per address, or usize::MAX if undefined.
    producer: Vec<Vec<usize>>,
    /// Addresses written in the current version, to detect multi-writes.
    written_in_version: Vec<BTreeSet<usize>>,
    current_version: Vec<usize>,
}

/// The store as the interpreter's [`Memory`], every load attributed to one
/// read site: references resolve under the interpreter's rules
/// ([`resolve_ref_addr`]), gather index loads included.
struct Traced<'a> {
    program: &'a Program,
    site: Site,
    store: &'a mut VonNeumannStore,
    trace: &'a mut Trace,
}

impl Memory for Traced<'_> {
    fn load(&mut self, array: ArrayId, addr: usize) -> Result<f64, IrError> {
        let a = array.0;
        let prod = self.store.producer[a][addr];
        if prod == usize::MAX {
            let array = self.program.array(array).name.clone();
            return Err(IrError::ReadUndefined { array, addr });
        }
        let versions = self.trace.site_versions.entry(self.site).or_default();
        versions.entry(a).or_default().insert(prod);
        if prod != self.store.current_version[a] {
            self.trace.cross_version_reads.insert(a);
        }
        Ok(self.store.values[a][addr])
    }
}

/// The trace's evaluation context: program + parameter/scalar snapshots.
struct EvalCtx<'p> {
    program: &'p Program,
    /// Parameter values (`ParamId` indexes).
    params: Vec<f64>,
    /// Current reduction-slot values (`ScalarId` indexes).
    scalars: Vec<f64>,
}

impl<'p> EvalCtx<'p> {
    fn new(program: &'p Program) -> Self {
        EvalCtx {
            program,
            params: program.params.iter().map(|&(_, v)| v).collect(),
            scalars: vec![0.0; program.scalars.len()],
        }
    }
}

fn run_trace(program: &Program) -> Result<Trace, SsaError> {
    let mut ctx = EvalCtx::new(program);
    let mut store = VonNeumannStore {
        values: Vec::new(),
        producer: Vec::new(),
        written_in_version: Vec::new(),
        current_version: Vec::new(),
    };
    for d in &program.arrays {
        let total = d.len();
        let seed = d.init.materialize(total);
        let defined = seed.len();
        let mut vals = vec![0.0; total];
        vals[..defined].copy_from_slice(&seed);
        store.values.push(vals);
        let mut prod = vec![usize::MAX; total];
        for p in prod.iter_mut().take(defined) {
            *p = 0; // version 0 == initialization data
        }
        store.producer.push(prod);
        store.written_in_version.push(BTreeSet::new());
        store.current_version.push(0);
    }

    let mut trace = Trace::default();
    for (a, _) in program.arrays.iter().enumerate() {
        trace.version_count.insert(a, 1);
    }

    // A tiny recursive evaluator that attributes each Expr::Read (and the
    // gather index loads inside it) to a read slot.
    #[allow(clippy::too_many_arguments)]
    fn eval_rec(
        ctx: &EvalCtx<'_>,
        expr: &Expr,
        ivs: &[i64],
        phase: usize,
        stmt: usize,
        slot: &mut usize,
        store: &mut VonNeumannStore,
        trace: &mut Trace,
    ) -> Result<f64, SsaError> {
        Ok(match expr {
            Expr::Const(c) => *c,
            Expr::Param(p) => ctx.params[p.0],
            Expr::Scalar(s) => ctx.scalars[s.0],
            Expr::LoopVar(v) => ivs[*v] as f64,
            Expr::Unary(op, a) => op.apply(eval_rec(ctx, a, ivs, phase, stmt, slot, store, trace)?),
            Expr::Binary(op, a, b) => {
                let va = eval_rec(ctx, a, ivs, phase, stmt, slot, store, trace)?;
                let vb = eval_rec(ctx, b, ivs, phase, stmt, slot, store, trace)?;
                op.apply(va, vb)
            }
            Expr::Read(r) => {
                let site = (phase, stmt, *slot);
                *slot += 1;
                let program = ctx.program;
                let mut mem = Traced {
                    program,
                    site,
                    store,
                    trace,
                };
                let addr = resolve_ref_addr(program, r, ivs, &mut mem);
                addr.and_then(|addr| mem.load(r.array, addr))
                    .map_err(SsaError::Trace)?
            }
        })
    }

    for (pi, phase) in program.phases.iter().enumerate() {
        match phase {
            Phase::Reinit(id) => {
                // Pre-existing reinits already separate versions.
                let a = id.0;
                store.current_version[a] += 1;
                *trace.version_count.get_mut(&a).expect("seeded") += 1;
                store.written_in_version[a].clear();
                for p in &mut store.producer[a] {
                    *p = usize::MAX;
                }
                trace.conflict_phases.entry(a).or_default().push(pi);
            }
            Phase::Loop(nest) => {
                // First pass of this phase decides, lazily, whether a write
                // conflicts (address already defined in the current version).
                let mut phase_started_version: BTreeMap<usize, bool> = BTreeMap::new();
                for stmt in &nest.body {
                    if let Stmt::Reduce { target, op, .. } = stmt {
                        ctx.scalars[target.0] = op.identity();
                    }
                }
                nest.try_for_each_iteration(|ivs| {
                    for (si, stmt) in nest.body.iter().enumerate() {
                        let mut slot = 0usize;
                        match stmt {
                            Stmt::Assign { target, value } => {
                                let v = eval_rec(
                                    &ctx, value, ivs, pi, si, &mut slot, &mut store, &mut trace,
                                )?;
                                let mut mem = Traced {
                                    program,
                                    site: (pi, si, usize::MAX),
                                    store: &mut store,
                                    trace: &mut trace,
                                };
                                let addr = resolve_ref_addr(program, target, ivs, &mut mem)
                                    .map_err(SsaError::Trace)?;
                                let a = target.array.0;
                                let already = store.producer[a][addr] != usize::MAX;
                                let fresh_this_version =
                                    store.written_in_version[a].contains(&addr);
                                if fresh_this_version {
                                    // Second write within the version this
                                    // phase writes into.
                                    if phase_started_version.get(&a).copied().unwrap_or(false)
                                        || !already
                                    {
                                        return Err(SsaError::MultiWriteInVersion {
                                            array: ctx.program.array(target.array).name.clone(),
                                            addr,
                                            phase: pi,
                                        });
                                    }
                                }
                                if already && !phase_started_version.contains_key(&a) {
                                    // First conflicting write by this phase:
                                    // start a new version of the array.
                                    phase_started_version.insert(a, true);
                                    store.current_version[a] += 1;
                                    *trace.version_count.get_mut(&a).expect("seeded") += 1;
                                    store.written_in_version[a].clear();
                                    trace.conflict_phases.entry(a).or_default().push(pi);
                                } else {
                                    phase_started_version.entry(a).or_insert(false);
                                }
                                if store.written_in_version[a].contains(&addr) {
                                    return Err(SsaError::MultiWriteInVersion {
                                        array: ctx.program.array(target.array).name.clone(),
                                        addr,
                                        phase: pi,
                                    });
                                }
                                store.values[a][addr] = v;
                                store.producer[a][addr] = store.current_version[a];
                                store.written_in_version[a].insert(addr);
                                trace
                                    .version_of_phase
                                    .insert((a, pi), store.current_version[a]);
                            }
                            Stmt::Reduce { target, op, value } => {
                                let v = eval_rec(
                                    &ctx, value, ivs, pi, si, &mut slot, &mut store, &mut trace,
                                )?;
                                ctx.scalars[target.0] = op.combine(ctx.scalars[target.0], v);
                            }
                        }
                    }
                    Ok(())
                })?;
            }
        }
    }
    Ok(trace)
}

// ---------------------------------------------------------------------------
// Conversion
// ---------------------------------------------------------------------------

/// Convert `program` to single-assignment form using `mode`.
///
/// Programs that are already single-assignment come back unchanged
/// (`versions_added == 0 && reinits_added == 0`).
pub fn convert_to_sa(program: &Program, mode: SsaMode) -> Result<Conversion, SsaError> {
    let trace = run_trace(program)?;

    let any_conflict = trace.conflict_phases.values().any(|v| !v.is_empty());
    if !any_conflict {
        return Ok(Conversion {
            program: program.clone(),
            versions_added: 0,
            reinits_added: 0,
        });
    }

    match mode {
        SsaMode::Reinit => {
            // Soundness: no read may consume a value from an older version
            // than the one current when it executes.
            for (a, _) in trace.conflict_phases.iter() {
                if trace.cross_version_reads.contains(a) {
                    return Err(SsaError::ValueLost {
                        array: program.arrays[*a].name.clone(),
                        phase: trace.conflict_phases[a][0],
                    });
                }
            }
            let mut out = program.clone();
            let mut inserted = 0usize;
            // Insert Reinit(A) before each conflict phase, adjusting for
            // previously inserted phases. Only for Loop-origin conflicts
            // (existing Reinit phases already separate versions).
            let mut insertions: Vec<(usize, ArrayId)> = Vec::new();
            for (a, phases) in &trace.conflict_phases {
                for &pi in phases {
                    if matches!(program.phases[pi], Phase::Loop(_)) {
                        insertions.push((pi, ArrayId(*a)));
                    }
                }
            }
            insertions.sort_by_key(|&(pi, _)| pi);
            for (off, (pi, a)) in insertions.into_iter().enumerate() {
                out.phases.insert(pi + off, Phase::Reinit(a));
                inserted += 1;
            }
            Ok(Conversion {
                program: out,
                versions_added: 0,
                reinits_added: inserted,
            })
        }
        SsaMode::Expand => {
            let mut out = program.clone();
            // Allocate version arrays: for array a with k versions, versions
            // 1..k get fresh ArrayIds. Version 0 is the original array.
            let mut version_ids: BTreeMap<(usize, usize), ArrayId> = BTreeMap::new();
            let mut added = 0usize;
            for (&a, &count) in &trace.version_count {
                version_ids.insert((a, 0), ArrayId(a));
                for v in 1..count {
                    let decl = &program.arrays[a];
                    let id = ArrayId(out.arrays.len());
                    out.arrays.push(ArrayDecl {
                        name: format!("{}@{v}", decl.name),
                        dims: decl.dims.clone(),
                        init: ArrayInit::Undefined,
                    });
                    version_ids.insert((a, v), id);
                    added += 1;
                }
            }

            // Rewrite phases: writes go to the phase's version; reads go to
            // the unique producer version recorded at their site.
            let mut new_phases = Vec::with_capacity(out.phases.len());
            for (pi, phase) in out.phases.iter().enumerate() {
                match phase {
                    Phase::Reinit(_) => {
                        // Superseded by expansion: versions replace reinits.
                        continue;
                    }
                    Phase::Loop(nest) => {
                        let mut nest = nest.clone();
                        for (si, stmt) in nest.body.iter_mut().enumerate() {
                            // Rewrite the write target.
                            if let Stmt::Assign { target, .. } = stmt {
                                let a = target.array.0;
                                if let Some(&v) = trace.version_of_phase.get(&(a, pi)) {
                                    target.array = version_ids[&(a, v)];
                                }
                            }
                            // Rewrite reads slot by slot.
                            let mut slot = 0usize;
                            let mut err = None;
                            let value = match stmt {
                                Stmt::Assign { value, .. } | Stmt::Reduce { value, .. } => value,
                            };
                            value.visit_reads_mut(&mut |r: &mut ArrayRef| {
                                let site = (pi, si, slot);
                                slot += 1;
                                if let Some(by_array) = trace.site_versions.get(&site) {
                                    if let Some(versions) = by_array.get(&r.array.0) {
                                        if versions.len() > 1 {
                                            err = Some(SsaError::MixedProducers {
                                                array: program.arrays[r.array.0].name.clone(),
                                                phase: pi,
                                                stmt: si,
                                            });
                                            return;
                                        }
                                        if let Some(&v) = versions.iter().next() {
                                            r.array = version_ids[&(r.array.0, v)];
                                        }
                                    }
                                }
                            });
                            if let Some(e) = err {
                                return Err(e);
                            }
                        }
                        new_phases.push(Phase::Loop(nest));
                    }
                }
            }
            out.phases = new_phases;
            Ok(Conversion {
                program: out,
                versions_added: added,
                reinits_added: 0,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::index::iv;
    use crate::program::InitPattern;

    /// A two-sweep Jacobi-ish program that rewrites X entirely each sweep —
    /// classic von Neumann array reuse.
    fn two_sweep() -> Program {
        let mut b = ProgramBuilder::new("two-sweep");
        let x = b.input(
            "X",
            &[16],
            InitPattern::Linear {
                base: 0.0,
                step: 1.0,
            },
        );
        b.nest("sweep1", &[("k", 0, 15)], |n| {
            n.assign(x, [iv(0)], n.read(x, [iv(0)]) * 2.0);
        });
        b.finish()
    }

    #[test]
    fn already_sa_program_is_unchanged() {
        let mut b = ProgramBuilder::new("sa");
        let y = b.input("Y", &[8], InitPattern::Zero);
        let x = b.output("X", &[8]);
        b.nest("copy", &[("k", 0, 7)], |n| {
            n.assign(x, [iv(0)], n.read(y, [iv(0)]));
        });
        let p = b.finish();
        let c = convert_to_sa(&p, SsaMode::Expand).unwrap();
        assert_eq!(c.versions_added, 0);
        assert_eq!(c.program, p);
    }

    #[test]
    fn expansion_renames_redefined_array() {
        let p = two_sweep();
        assert!(!verify_single_assignment(&p), "input must violate SA");
        let c = convert_to_sa(&p, SsaMode::Expand).unwrap();
        assert_eq!(c.versions_added, 1);
        assert!(verify_single_assignment(&c.program));
        // The converted program computes X@1(k) = 2k.
        let r = interpret(&c.program).unwrap();
        let v1 = c.program.array_id("X@1").unwrap();
        for k in 0..16 {
            assert_eq!(*r.arrays[v1.0].read(k).unwrap().unwrap(), 2.0 * k as f64);
        }
    }

    #[test]
    fn reinit_mode_inserts_generation_phase() {
        let p = two_sweep();
        let c = convert_to_sa(&p, SsaMode::Reinit);
        // sweep1 reads X(k) *before* rewriting it in the same phase — the
        // old value would be destroyed by a reinit, so this must fail.
        assert!(matches!(c, Err(SsaError::ValueLost { .. })));

        // A disjoint rewrite (writes only, reads from another array) is
        // convertible by reinit.
        let mut b = ProgramBuilder::new("disjoint");
        let y = b.input("Y", &[8], InitPattern::Wavy);
        let x = b.input("X", &[8], InitPattern::Zero);
        b.nest("rewrite", &[("k", 0, 7)], |n| {
            n.assign(x, [iv(0)], n.read(y, [iv(0)]) + 1.0);
        });
        let p = b.finish();
        let c = convert_to_sa(&p, SsaMode::Reinit).unwrap();
        assert_eq!(c.reinits_added, 1);
        assert!(verify_single_assignment(&c.program));
    }

    #[test]
    fn accumulation_is_rejected_with_reduction_hint() {
        // W(0) = W(0) + Y(k) over k — a second write to the same address
        // within one version.
        let mut b = ProgramBuilder::new("acc");
        let y = b.input("Y", &[8], InitPattern::Wavy);
        let w = b.input("W", &[1], InitPattern::Zero);
        b.nest("acc", &[("k", 0, 7)], |n| {
            n.assign(w, [0i64], n.read(w, [0i64]) + n.read(y, [iv(0)]));
        });
        let err = convert_to_sa(&b.finish(), SsaMode::Expand).unwrap_err();
        assert!(matches!(err, SsaError::MultiWriteInVersion { addr: 0, .. }));
    }

    #[test]
    fn three_generations_expand_to_three_versions() {
        let mut b = ProgramBuilder::new("three");
        let x = b.input("X", &[4], InitPattern::Const(1.0));
        for s in 0..3 {
            b.nest(format!("sweep{s}"), &[("k", 0, 3)], |n| {
                n.assign(x, [iv(0)], n.read(x, [iv(0)]) * 2.0);
            });
        }
        let c = convert_to_sa(&b.finish(), SsaMode::Expand).unwrap();
        assert_eq!(c.versions_added, 3);
        assert!(verify_single_assignment(&c.program));
        let r = interpret(&c.program).unwrap();
        let last = c.program.array_id("X@3").unwrap();
        assert_eq!(*r.arrays[last.0].read(0).unwrap().unwrap(), 8.0);
    }

    #[test]
    fn trace_failure_surfaces() {
        let mut b = ProgramBuilder::new("oob");
        let x = b.output("X", &[4]);
        b.nest("bad", &[("k", 0, 7)], |n| {
            n.assign(x, [iv(0)], crate::Expr::Const(0.0));
        });
        let err = convert_to_sa(&b.finish(), SsaMode::Expand).unwrap_err();
        assert!(matches!(
            err,
            SsaError::Trace(IrError::IndexOutOfBounds { .. })
        ));
    }
}
