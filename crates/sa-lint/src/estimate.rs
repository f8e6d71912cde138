//! The static communication estimator: per-PE access counts for any affine
//! program × [`sa_machine::PartitionScheme`] × page size, **without executing a single
//! statement**.
//!
//! The counting simulator's verdict for an affine program is fully
//! determined by static data: under owner-computes every `Assign` executes
//! on the PE owning its target element, every read classifies by comparing
//! the read element's owning PE against the executing PE, and (with caches
//! disabled) every non-local read is exactly one remote read plus one page
//! fetch (two network messages). Nothing depends on the *values* flowing
//! through the program — only on the affine address functions, the loop
//! bounds, and the placement map.
//!
//! The estimator exploits that: it enumerates the outer loop levels (whose
//! trip counts are tiny at kernel scale — they exist mostly for sweeps and
//! 2-D/3-D grids) and treats the innermost level *symbolically*. For a
//! fixed outer iteration vector, every reference's linear address is
//! `a + b·t` in the normalized innermost trip `t`, so its page number is a
//! staircase in `t`; the estimator splits `0..T` into maximal runs on which
//! every reference of the statement sits on a constant page and charges
//! whole runs at once — `O(pages touched)` instead of `O(iterations)` for
//! the innermost loop, the usual `O(1)`-per-page closed form.
//!
//! And not every page is touched twice for the same answer. Every counter
//! here is a sum over trips of a function of the owner of the anchor's page
//! and the owner of each read's page; under a periodic placement
//! ([`sa_machine::Placement::period`]: `Modulo`, `BlockCyclic`) translating
//! every reference by whole periods changes none of them. So the walk
//! visits one stretch of each translation class of the nest
//! ([`Schedule::folds`]: whole sweeps that start alike, and within a long
//! sweep one inner period for all of them) and multiplies — K1 at
//! `n = 10⁹` is one period of 2 048 trips and a tail. This applies to a
//! nest whose arrays all have a period (the estimator only ever sees
//! affine references and no cache); any other nest is walked sweep by
//! sweep by the same code. The bounds proofs are not folded: an index the
//! nest's loop box does not prove in bounds
//! ([`sa_ir::access::Access::leaves`]) is checked at each sweep's two end
//! trips, so an out-of-bounds reference is reported for the sweep the
//! simulator would abort on.
//!
//! The result is certified bit-identical against the counting simulator
//! (`sa_core::exec::simulate` with caches disabled) on every affine
//! workload in the registry — see `tests/lint_static.rs` at the workspace
//! root — which is what lets partition searches use it as a zero-execution
//! oracle.
//!
//! Out of scope (reported as [`EstimateError`], never silently wrong):
//! gathers/scatters (their addresses depend on runtime data) and non-zero
//! cache sizes (hit rates depend on access *order*, which the closed form
//! deliberately discards).

use sa_ir::access::{loop_box, Access, Line, Sweep};
use sa_ir::analysis::{anchor_ref, StaticArrays};
use sa_ir::nest::{ArrayRef, Stmt};
use sa_ir::program::Phase;
use sa_ir::{LinForm, Program};
use sa_machine::{ConfigError, MachineConfig, Placement, Stats};

use crate::screening::Schedule;

/// The estimator's verdict: the same counters the counting simulator
/// reports, computed in closed form.
#[derive(Debug, Clone, PartialEq)]
pub struct CommEstimate {
    /// Per-PE access counters plus fetch/protocol tallies, bit-identical
    /// to `simulate(..)` with caches disabled.
    pub stats: Stats,
    /// Total network messages: page fetches ×2 + host-protocol
    /// re-initialization traffic + reduction partial shipping.
    pub network_messages: u64,
}

/// Why the estimator declined or failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EstimateError {
    /// The program gathers or scatters through an index array; those
    /// addresses depend on runtime data.
    Indirect {
        /// Name of the array referenced through the indirection.
        array: String,
    },
    /// A cache was configured; cached counts depend on access order.
    CacheUnsupported,
    /// The machine configuration itself is invalid.
    Config(ConfigError),
    /// A reference provably leaves its array's bounds (the simulator would
    /// abort on the same iteration).
    OutOfBounds {
        /// The array's name.
        array: String,
        /// The nest's label.
        nest: String,
        /// Offending dimension.
        dim: usize,
        /// Offending index value.
        index: i64,
        /// The dimension's extent.
        extent: usize,
    },
    /// A reference carries a different number of indices than its array
    /// has dimensions (the program fails structural validation).
    RankMismatch {
        /// The array's name.
        array: String,
        /// The nest's label.
        nest: String,
    },
}

impl core::fmt::Display for EstimateError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EstimateError::Indirect { array } => write!(
                f,
                "program reads or writes `{array}` through an index array; \
                 static estimation needs affine addresses"
            ),
            EstimateError::CacheUnsupported => write!(
                f,
                "cache hit rates depend on access order; run the estimator \
                 with cache_elems = 0"
            ),
            EstimateError::Config(e) => write!(f, "bad machine config: {e}"),
            EstimateError::OutOfBounds {
                array,
                nest,
                dim,
                index,
                extent,
            } => write!(
                f,
                "nest `{nest}`: index {index} leaves dimension {dim} of \
                 `{array}` (extent {extent})"
            ),
            EstimateError::RankMismatch { array, nest } => write!(
                f,
                "nest `{nest}`: a reference to `{array}` does not match its rank"
            ),
        }
    }
}

impl std::error::Error for EstimateError {}

/// A reference along one sweep: its address line and its array's placement.
type PlacedLine<'p> = (Line, &'p Placement);

/// A reference [`walk_anchor_runs`] walks: its lowering, its linear form
/// and its array's placement.
type Walked<'a> = (Access, LinForm, &'a Placement);

/// One maximal stretch of an anchored statement's innermost sweep on which
/// the anchor — and every read, when reads are walked — stays on one page,
/// so the executing PE and each read's locality are constant over it.
pub(crate) struct AnchorRun {
    /// Index of the statement in the nest body.
    pub stmt: usize,
    /// The executing PE: the owner of the anchor's page.
    pub pe: usize,
    /// Inner trips in the run, over every stretch of the nest it stands
    /// for.
    pub trips: u64,
    /// How many of the statement's reads another PE owns over the run
    /// (always 0 when reads are not walked).
    pub remote_reads: u64,
}

/// Estimate `program`'s counting-simulator verdict under `cfg` without
/// executing it. See the module docs for the model and its limits.
pub fn estimate(program: &Program, cfg: &MachineConfig) -> Result<CommEstimate, EstimateError> {
    let statics = StaticArrays::scan(program);
    let sched = Schedule::new(program, &statics, cfg.partition, cfg.page_size, cfg.n_pes)
        .map_err(EstimateError::Config)?;
    if cfg.cache_elems > 0 {
        return Err(EstimateError::CacheUnsupported);
    }
    // Refuse indirection up front so the error names the array instead of
    // surfacing as a missing linear form mid-nest.
    if let Some(aref) = first_indirect_ref(program) {
        return Err(EstimateError::Indirect {
            array: program.array(aref.array).name.clone(),
        });
    }

    let mut stats = Stats::new(cfg.n_pes);
    let mut nests = 0;
    for phase in &program.phases {
        match phase {
            Phase::Reinit(_) => {
                // §5 host protocol: n-1 collect requests + n-1 release
                // broadcasts.
                stats.reinit_messages += 2 * (cfg.n_pes as u64 - 1);
            }
            Phase::Loop(_) => {
                estimate_nest(&sched, nests, &mut stats)?;
                nests += 1;
            }
        }
    }

    let network_messages =
        2 * stats.page_fetches + stats.reinit_messages + stats.reduction_messages;
    Ok(CommEstimate {
        stats,
        network_messages,
    })
}

/// The first reference, in program order (a statement's write target
/// before its reads), that goes through an index array.
pub(crate) fn first_indirect_ref(program: &Program) -> Option<&ArrayRef> {
    program
        .nests()
        .flat_map(|nest| &nest.body)
        .flat_map(|stmt| stmt.write_target().into_iter().chain(stmt.reads()))
        .find(|aref| aref.has_indirection())
}

fn estimate_nest(
    sched: &Schedule<'_>,
    nest: usize,
    stats: &mut Stats,
) -> Result<(), EstimateError> {
    let body = &sched.nest(nest).nest.body;
    let n_reads: Vec<u64> = body.iter().map(|s| s.reads().len() as u64).collect();
    walk_anchor_runs(sched, nest, true, |run| {
        let pe = &mut stats.per_pe[run.pe];
        if matches!(body[run.stmt], Stmt::Assign { .. }) {
            pe.writes += run.trips;
        }
        pe.local_reads += run.trips * (n_reads[run.stmt] - run.remote_reads);
        pe.remote_reads += run.trips * run.remote_reads;
        stats.page_fetches += run.trips * run.remote_reads;
    })?;
    // Vector→scalar collection: every participating PE ships its partial
    // to the scalar's host; the host's own partial stays local. Anchorless
    // reductions touch no arrays, so participation is all they add.
    for round in sched.rounds(nest) {
        let ships = (0..sched.n_pes()).filter(|&pe| round.ships_from(pe));
        stats.reduction_messages += ships.count() as u64;
    }
    Ok(())
}

/// The anchor-run walk both [`estimate`] and
/// [`crate::depgraph::project`] are built on: walk the folds of nest
/// `nest_index` of the schedule ([`Schedule::folds`] — every sweep in
/// iteration order when nothing folds; statements in body order within a
/// stretch), lower each anchored statement's anchor — and its reads, when
/// `with_reads` — to address lines in the innermost trip, and hand `f`
/// every [`AnchorRun`], its trips multiplied by the stretches it stands
/// for. `f` must not care about the order of the runs. A zero-depth nest is
/// one sweep of one trip: its body runs once.
///
/// Every reference must be affine. Only the references walked are
/// bounds-checked, so without reads an out-of-bounds read goes unnoticed.
pub(crate) fn walk_anchor_runs(
    sched: &Schedule<'_>,
    nest_index: usize,
    with_reads: bool,
    mut f: impl FnMut(AnchorRun),
) -> Result<(), EstimateError> {
    let (program, placements) = (sched.program(), sched.placements());
    let ns = sched.nest(nest_index);
    let nest = ns.nest;
    // Only the references walked are lowered, against the nest's one box.
    let vars = loop_box(&nest.loops);
    let walked = |aref: &ArrayRef| {
        let access = Access::lower(program, aref, &vars, None);
        let form = access
            .form
            .clone()
            .ok_or_else(|| EstimateError::RankMismatch {
                array: program.array(aref.array).name.clone(),
                nest: nest.label.clone(),
            })?;
        Ok((access, form, &placements[aref.array.0]))
    };
    let mut anchored: Vec<(usize, Walked<'_>, Vec<Walked<'_>>)> = Vec::new();
    for (i, stmt) in nest.body.iter().enumerate() {
        let Some(anchor) = anchor_ref(stmt) else {
            continue;
        };
        let reads = if with_reads { stmt.reads() } else { Vec::new() };
        let reads = reads.into_iter().map(walked).collect::<Result<_, _>>()?;
        anchored.push((i, walked(anchor)?, reads));
    }
    // The bounds proofs the loop box leaves open stay per sweep — two end
    // trips per reference, not a page-run walk — so the first offending
    // sweep in execution order names the error whether or not the sweeps
    // before it fold.
    let refs = anchored
        .iter()
        .flat_map(|(_, a, reads)| std::iter::once(a).chain(reads));
    let open: Vec<&Access> = refs.map(|r| &r.0).filter(|a| !a.proved()).collect();
    let mut sweeps = 0..if open.is_empty() { 0 } else { ns.sweeps.len() };
    let leaves = |i| {
        open.iter()
            .find_map(|a| Some((a.array, a.leaves(&ns.sweep(i))?)))
    };
    if let Some((array, (dim, index))) = sweeps.find_map(leaves) {
        let decl = program.array(array);
        return Err(EstimateError::OutOfBounds {
            array: decl.name.clone(),
            nest: nest.label.clone(),
            dim,
            index,
            extent: decl.dims[dim],
        });
    }
    let owner = |&(line, placement): &PlacedLine<'_>, t: i64| {
        placement.owner_of_addr(line.addr(t) as usize)
    };
    let run_end =
        |&(line, placement): &PlacedLine<'_>, t: i64| line.run_end(t, placement.page_size as i64);
    fn placed<'a>((_, form, placement): &Walked<'a>, sweep: &Sweep<'_>) -> PlacedLine<'a> {
        (form.line(sweep), placement)
    }
    let mut reads: Vec<PlacedLine<'_>> = Vec::new();
    for fold in sched.folds(nest_index, with_reads) {
        let sweep = &ns.sweep(fold.sweep);
        for (stmt, anchor, stmt_reads) in &anchored {
            let anchor = placed(anchor, sweep);
            reads.clear();
            reads.extend(stmt_reads.iter().map(|r| placed(r, sweep)));
            // Split the stretch into maximal runs on which every reference
            // walked sits on a constant page.
            let (mut t, end) = (fold.t0 as i64, fold.t1 as i64);
            while t < end {
                let next = reads
                    .iter()
                    .map(|r| run_end(r, t))
                    .fold(run_end(&anchor, t), i64::min)
                    .min(end);
                let pe = owner(&anchor, t);
                f(AnchorRun {
                    stmt: *stmt,
                    pe,
                    trips: (next - t) as u64 * fold.times,
                    remote_reads: reads.iter().filter(|r| owner(r, t) != pe).count() as u64,
                });
                t = next;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_ir::index::iv;
    use sa_ir::{InitPattern, ProgramBuilder, ReduceOp};
    use sa_machine::PartitionScheme;

    fn skewed(n: usize) -> Program {
        let mut b = ProgramBuilder::new("sk");
        let y = b.input("Y", &[n + 1], InitPattern::Wavy);
        let x = b.output("X", &[n]);
        b.nest("s", &[("k", 0, n as i64 - 1)], |nb| {
            nb.assign(
                x,
                [iv(0)],
                nb.read(y, [iv(0).plus(1)]) - nb.read(y, [iv(0)]),
            );
        });
        b.finish()
    }

    #[test]
    fn skewed_kernel_counts_match_by_hand() {
        // 128 elements, 4 PEs, page 32 (modulo): X page k → PE k; reads of
        // Y hit the same page except at each page's last element, where
        // Y[k+1] crosses into the next page (remote). 3 boundary crossings
        // inside Y's pages 0..3 land remote; everything else local.
        let p = skewed(128);
        let cfg = MachineConfig::new(4, 32).with_cache_elems(0);
        let est = estimate(&p, &cfg).unwrap();
        assert_eq!(est.stats.writes(), 128);
        assert_eq!(est.stats.total_reads(), 256);
        assert_eq!(est.stats.remote_reads(), 4);
        assert_eq!(est.stats.page_fetches, 4);
        assert_eq!(est.network_messages, 8);
    }

    #[test]
    fn cache_and_indirection_are_refused() {
        let p = skewed(64);
        let cached = MachineConfig::new(4, 32);
        assert!(matches!(
            estimate(&p, &cached),
            Err(EstimateError::CacheUnsupported)
        ));

        let mut b = ProgramBuilder::new("g");
        let idx = b.input("IDX", &[8], InitPattern::Permutation { seed: 1 });
        let y = b.input("Y", &[8], InitPattern::Wavy);
        let x = b.output("X", &[8]);
        b.nest("n", &[("k", 0, 7)], |nb| {
            nb.assign(x, [iv(0)], nb.read_indirect(y, idx, iv(0)));
        });
        let g = b.finish();
        let nocache = MachineConfig::new(4, 32).with_cache_elems(0);
        assert!(matches!(
            estimate(&g, &nocache),
            Err(EstimateError::Indirect { .. })
        ));
    }

    #[test]
    fn out_of_bounds_is_detected_statically() {
        let mut b = ProgramBuilder::new("oob");
        let x = b.output("X", &[16]);
        b.nest("n", &[("k", 0, 16)], |nb| {
            nb.assign(x, [iv(0)], 1.0);
        });
        let p = b.finish();
        let cfg = MachineConfig::new(2, 8).with_cache_elems(0);
        assert!(matches!(
            estimate(&p, &cfg),
            Err(EstimateError::OutOfBounds { index: 16, .. })
        ));
    }

    #[test]
    fn an_out_of_bounds_sweep_is_found_behind_sweeps_that_fold() {
        // Rows of 8 elements on 2 PEs × page 4: every sweep is a translate
        // of the first by a whole period, so the walk visits one of them —
        // and the bounds proof still visits all six: Z has only five rows.
        let mut b = ProgramBuilder::new("last");
        let z = b.input("Z", &[5, 8], InitPattern::Wavy);
        let x = b.output("X", &[6, 8]);
        b.nest("n", &[("i", 0, 5), ("j", 0, 7)], |nb| {
            nb.assign(x, [iv(0), iv(1)], nb.read(z, [iv(0), iv(1)]));
        });
        let p = b.finish();
        let cfg = MachineConfig::new(2, 4).with_cache_elems(0);
        let sched = Schedule::new(&p, &StaticArrays::scan(&p), cfg.partition, 4, 2).unwrap();
        let folds = sched.folds(0, true);
        let stretch = |f: &crate::screening::Fold| (f.sweep, f.trips(), f.times);
        assert_eq!(
            folds.iter().map(stretch).collect::<Vec<_>>(),
            [(0, 0..8, 6)]
        );
        assert_eq!(
            estimate(&p, &cfg),
            Err(EstimateError::OutOfBounds {
                array: "Z".into(),
                nest: "n".into(),
                dim: 0,
                index: 5,
                extent: 5,
            })
        );
    }

    #[test]
    fn reduction_partials_ship_to_the_host() {
        // sum over Y: anchor = Y[k]; 64 elements over 4 PEs at page 16 →
        // every PE participates; host of scalar 0 is PE 0 → 3 partials.
        let mut b = ProgramBuilder::new("red");
        let y = b.input("Y", &[64], InitPattern::Wavy);
        let s = b.scalar("sum");
        b.nest("n", &[("k", 0, 63)], |nb| {
            nb.reduce(s, ReduceOp::Sum, nb.read(y, [iv(0)]));
        });
        let p = b.finish();
        let cfg = MachineConfig::new(4, 16).with_cache_elems(0);
        let est = estimate(&p, &cfg).unwrap();
        assert_eq!(est.stats.reduction_messages, 3);
        // All reads anchor-local.
        assert_eq!(est.stats.remote_reads(), 0);
        assert_eq!(est.stats.local_reads(), 64);
        assert_eq!(est.network_messages, 3);
    }

    #[test]
    fn block_scheme_and_reinit_accounting() {
        let mut b = ProgramBuilder::new("blk");
        let y = b.input("Y", &[64], InitPattern::Wavy);
        let x = b.output("X", &[64]);
        b.nest("n", &[("k", 0, 63)], |nb| {
            nb.assign(x, [iv(0)], nb.read(y, [iv(0)]) + 1.0);
        });
        b.reinit(x);
        let p = b.finish();
        let cfg = MachineConfig::new(4, 8)
            .with_cache_elems(0)
            .with_partition(PartitionScheme::Block);
        let est = estimate(&p, &cfg).unwrap();
        // Matched access: everything local; reinit costs 2·(4−1) messages.
        assert_eq!(est.stats.remote_reads(), 0);
        assert_eq!(est.stats.reinit_messages, 6);
        assert_eq!(est.network_messages, 6);
    }
}
