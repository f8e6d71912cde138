//! Anchor profiles, the placement-free half of the search's bounds.
//!
//! Owner-computes runs each instance on the PE owning its anchor's page,
//! so the anchors do not depend on the placement: one [`AnchorProfile`]
//! per page size stands for every scheme and PE count, and only its
//! pricing against owners changes. [`project`] projects the instance
//! stream onto a concrete `PartitionScheme` × page size, yielding per-PE
//! serialization bounds; only a program whose anchors cannot be profiled
//! is enumerated ([`project_by_instance`]).

use sa_ir::access::{loop_box, try_for_each_sweep, Access, Line};
use sa_ir::analysis::{anchor_ref, linear_address_form, screen_nests, NestScreen, Screen};
use sa_ir::index::AffineIndex;
use sa_ir::nest::{ArrayRef, LoopNest, LoopVar, Stmt};
use sa_ir::{ArrayId, LinForm, Program};
use sa_machine::partition::pages_in;
use sa_machine::{FetchPricer, PageRun, PartitionScheme, Placement};

use crate::depgraph::{instance_owner, schedule, InstanceError};
use crate::screening::iteration;
use crate::sites::{walk, Instance, Resolver};
use crate::LintConfig;

/// Per-PE projection of the instance stream onto a partition config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Projection {
    /// Assign instances per owning PE — exactly the counting engines'
    /// `Stats::writes_per_pe` (owner-computes places each assignment on
    /// the PE owning its target element).
    pub writes_per_pe: Vec<u64>,
    /// All statement instances per executing PE (assigns at their target's
    /// owner, reductions at their first read's owner, anchorless
    /// statements round-robin) — the serialization bound.
    pub instances_per_pe: Vec<u64>,
}

/// Project the instance stream onto `cfg` — who executes how much under
/// the owner-computes schedule
/// ([`Schedule`](crate::screening::Schedule)): the [`AnchorProfile`] of
/// `cfg`'s page size, priced under its scheme and PE count.
pub fn project(program: &Program, cfg: &LintConfig) -> Result<Projection, InstanceError> {
    AnchorProfile::new(program, cfg.page_size).project(cfg.scheme, cfg.n_pes)
}

/// [`project`] by enumerating every statement instance and resolving its
/// anchor through the static index arrays: the path for programs with
/// (statically initialized) indirect references, and the reference the
/// closed form is certified against.
pub fn project_by_instance(
    program: &Program,
    cfg: &LintConfig,
) -> Result<Projection, InstanceError> {
    let res = Resolver::new(program);
    res.check_static()?;
    let sched = schedule(&res, cfg)?;
    let mut writes_per_pe = vec![0u64; cfg.n_pes];
    let mut instances_per_pe = vec![0u64; cfg.n_pes];
    // Owners only: no reference matters.
    walk(&res, &mut |at: &Instance<'_>| {
        let pe = instance_owner(&sched, &res, at)?;
        instances_per_pe[pe] += 1;
        if matches!(at.nest.body[at.stmt], Stmt::Assign { .. }) {
            writes_per_pe[pe] += 1;
        }
        Ok(())
    })?;
    Ok(Projection {
        writes_per_pe,
        instances_per_pe,
    })
}

/// Every read a run of `program` makes, the same under every placement
/// (owner-computes runs each instance once, wherever): its nests'
/// iterations times their statements' array reads. `None` for a program
/// with an indirect reference, whose index reads the engines count too.
pub fn read_count(program: &Program) -> Option<u64> {
    if first_indirect_ref(program).is_some() {
        return None;
    }
    let mut reads = 0;
    for nest in program.nests() {
        let per_trip: usize = nest.body.iter().map(|s| s.reads().len()).sum();
        reads += nest.iteration_count() as u64 * per_trip as u64;
    }
    Some(reads)
}

/// The first reference, in program order (a statement's write target
/// before its reads), that goes through an index array.
pub fn first_indirect_ref(program: &Program) -> Option<&ArrayRef> {
    program
        .nests()
        .flat_map(|nest| &nest.body)
        .flat_map(|stmt| stmt.write_target().into_iter().chain(stmt.reads()))
        .find(|aref| aref.has_indirection())
}

/// The anchor profile of a program at one page size: per array, how many
/// anchored instances fall on each of its pages, as sorted runs of equal
/// counts — kept apart for the assignments (the writes) and for every
/// other anchored statement. [`AnchorProfile::project`] prices it: each
/// run's count times the pages of it each PE owns
/// ([`Placement::count_owned_pages`]), plus the round-robin deal of the
/// anchorless statements.
///
/// It is built sweep by sweep, with no folding (folds follow a placement's
/// period), and its memory follows its runs, never the pages:
///
/// * an affine anchor's sweep is O(1) runs when its step divides the page
///   or is a multiple of it, and one run per page it visits otherwise — so
///   a rectangular nest is swept along the loop its anchor moves least on
///   (`densest_inner`);
/// * consecutive sweeps whose runs are translates by whole pages (the rows
///   of a stencil) are one sweep's runs with a stride (`Translates`);
/// * everything else is summed per page into sorted runs (`RunSink`),
///   through a difference per page once that is the smaller;
/// * an anchor seen through constant index arrays ([`Screen::Static`]) is
///   resolved instance by instance.
///
/// A program with an anchor that leaves its array, or that goes through a
/// runtime-valued index array, is not profiled: [`project_by_instance`]
/// finds its error.
#[derive(Debug)]
pub struct AnchorProfile<'p> {
    program: &'p Program,
    page_size: usize,
    profiled: Option<Profiled>,
}

#[derive(Debug)]
struct Profiled {
    /// Per array id: the runs of the assignments anchored on it, and of
    /// its other anchored statements.
    writes: Vec<Vec<PageRun>>,
    others: Vec<Vec<PageRun>>,
    /// Per nest, for the round-robin deal.
    screens: Vec<NestScreen>,
    /// Per statement with translation reads, what its fetches are floored
    /// from.
    fetches: Vec<Fetches>,
}

/// One anchored statement's *translation reads*: the reads of an array
/// shaped like its anchor's, at the anchor's address plus a constant, so
/// on pages that follow the anchor's under every placement
/// ([`FetchPricer::count_fetched_pages`]).
#[derive(Debug)]
struct Fetches {
    /// The anchor's array, placed like every array read here.
    array: ArrayId,
    /// Each read: its array, its shift from the anchor, and the statement's
    /// anchor pages with their classes for it ([`classed_runs`]).
    reads: Vec<(ArrayId, i64, ClassedRuns)>,
}

impl<'p> AnchorProfile<'p> {
    /// Profile `program`'s anchors on pages of `page_size` elements.
    pub fn new(program: &'p Program, page_size: usize) -> AnchorProfile<'p> {
        AnchorProfile {
            program,
            page_size,
            profiled: (page_size > 0)
                .then(|| profile(program, page_size))
                .flatten(),
        }
    }

    /// [`project`] under `scheme` on `n_pes` PEs, at the profiled page
    /// size.
    pub fn project(
        &self,
        scheme: PartitionScheme,
        n_pes: usize,
    ) -> Result<Projection, InstanceError> {
        let Some(p) = &self.profiled else {
            let cfg = LintConfig {
                n_pes,
                page_size: self.page_size,
                scheme,
            };
            return project_by_instance(self.program, &cfg);
        };
        let dims = self.program.arrays.iter().map(|d| &d.dims);
        let placements = Placement::table(dims, scheme, self.page_size, n_pes)?;
        let price = |runs: &[Vec<PageRun>], per_pe: &mut [u64]| {
            for (placement, runs) in placements.iter().zip(runs) {
                placement.count_owned_pages(runs, per_pe);
            }
        };
        let mut writes_per_pe = vec![0u64; n_pes];
        price(&p.writes, &mut writes_per_pe);
        let mut instances_per_pe = writes_per_pe.clone();
        price(&p.others, &mut instances_per_pe);
        for screen in &p.screens {
            for (count, dealt) in instances_per_pe.iter_mut().zip(screen.dealt_per_pe(n_pes)) {
                *count += dealt;
            }
        }
        Ok(Projection {
            writes_per_pe,
            instances_per_pe,
        })
    }

    /// A floor on the remote reads of any run under `scheme` on `n_pes`
    /// PEs, at the profiled page size, whatever its cache: the distinct
    /// (PE, remote page) pairs of each statement's translation reads
    /// ([`FetchPricer::count_fetched_pages`]). Reads of one array from
    /// different statements may share pairs, so each array counts its
    /// largest. `None` when the program is not profiled or the shape is
    /// invalid.
    pub fn fetch_floor(&self, scheme: PartitionScheme, n_pes: usize) -> Option<u64> {
        let p = self.profiled.as_ref()?;
        let dims = self.program.arrays.iter().map(|d| &d.dims);
        let placements = Placement::table(dims, scheme, self.page_size, n_pes).ok()?;
        let mut largest: Vec<u64> = vec![0; self.program.arrays.len()];
        let mut pricers: Vec<_> = placements.iter().map(Placement::fetch_pricer).collect();
        for f in &p.fetches {
            for (array, shift, runs) in &f.reads {
                let floor = pricers[f.array.0].count_fetched_pages(*shift, runs);
                largest[array.0] = largest[array.0].max(floor);
            }
        }
        Some(largest.iter().sum())
    }
}

/// Anchor pages with their class for one translation read.
type ClassedRuns = Vec<(PageRun, u8)>;

/// `runs` with the class of their pages ([`FetchPricer::class`]) for the
/// read `shift` elements on, pages of `page_size`. Runs of one class
/// merge.
fn classed_runs<'r>(
    runs: impl IntoIterator<Item = &'r PageRun>,
    shift: i64,
    page_size: usize,
    distinct: bool,
) -> ClassedRuns {
    let mut merged: Vec<(PageRun, u8)> = Vec::new();
    for run in runs {
        let c = FetchPricer::class(run.count, shift, page_size, distinct);
        match merged.last_mut() {
            Some((last, lc))
                if *lc == c && last.reps == 1 && run.reps == 1 && last.end() == run.first =>
            {
                last.pages += run.pages;
            }
            _ => merged.push((*run, c)),
        }
    }
    merged
}

/// The runs of an [`AnchorProfile`], or `None` when an anchor cannot be
/// profiled. The bounds proofs the loop box leaves open are checked at
/// each sweep's two end trips.
fn profile(program: &Program, page_size: usize) -> Option<Profiled> {
    let res = Resolver::new(program);
    res.check_static().ok()?;
    let screens = screen_nests(program, &res.statics);
    let mut sinks: Vec<[RunSink; 2]> = program
        .arrays
        .iter()
        .map(|decl| [0, 1].map(|_| RunSink::new(pages_in(decl.len(), page_size))))
        .collect();
    let (mut ivs, mut fetches) = (Vec::new(), Vec::new());
    for (nest, screen) in program.nests().zip(&screens) {
        let vars = loop_box(&nest.loops);
        for (stmt, screen) in nest.body.iter().zip(&screen.screens) {
            let Some(anchor) = anchor_ref(stmt) else {
                continue;
            };
            let assigns = matches!(stmt, Stmt::Assign { .. });
            let sink = &mut sinks[anchor.array.0][usize::from(!assigns)];
            let profiled = match screen {
                Screen::Affine { .. } => {
                    let access = Access::lower(program, anchor, &vars, None);
                    let (form, open) = (access.form.as_ref()?, !access.proved());
                    // A statement with translation reads keeps its own runs.
                    let reads = translation_reads(program, stmt, anchor, form);
                    let mut own = (!reads.is_empty()).then(|| RunSink::new(sink.pages));
                    let distinct = injective(form, &nest.loops, &vars);
                    let interchanged = (!open).then(|| densest_inner(nest, form)).flatten();
                    let (loops, form) = match &interchanged {
                        Some((loops, form)) => (&loops[..], form),
                        None => (&nest.loops[..], form),
                    };
                    let into = own.as_mut().unwrap_or(&mut *sink);
                    let (mut translates, mut runs) = (Translates::default(), Vec::new());
                    let walked = try_for_each_sweep(loops, |sweep| {
                        if open && access.leaves(sweep).is_some() {
                            return Err(());
                        }
                        sweep_runs(&mut runs, form.line(sweep), sweep.trips, page_size);
                        translates.take(&mut runs, into);
                        Ok(())
                    });
                    translates.flush(into);
                    if let Some(own) = own {
                        let runs = own.finish();
                        let reads = {
                            let disjoint = disjoint_runs(&runs);
                            let read =
                                |shift| classed_runs(disjoint.clone(), shift, page_size, distinct);
                            reads
                                .iter()
                                .map(|&(array, shift)| (array, shift, read(shift)))
                                .collect()
                        };
                        fetches.push(Fetches {
                            array: anchor.array,
                            reads,
                        });
                        sink.take(runs);
                    }
                    walked
                }
                Screen::Static => nest.try_for_each_sweep(|sweep| {
                    for t in 0..sweep.trips {
                        iteration(&mut ivs, sweep, nest.loops.len(), t);
                        let addr = res.addr(anchor, &ivs).map_err(|_| ())?;
                        sink.push(addr / page_size, 1, 1);
                    }
                    Ok(())
                }),
                Screen::RoundRobin { .. } | Screen::Produced => Err(()),
            };
            profiled.ok()?;
        }
    }
    let (mut writes, mut others) = (Vec::new(), Vec::new());
    for [assigned, other] in sinks {
        writes.push(assigned.finish());
        others.push(other.finish());
    }
    Some(Profiled {
        writes,
        others,
        screens,
        fetches,
    })
}

/// The translation reads of `stmt`, anchored at `anchor` with address
/// `form`: reads of arrays with the anchor's dimensions whose address is
/// `form` plus a nonzero constant, as (array, constant), once each.
fn translation_reads(
    program: &Program,
    stmt: &Stmt,
    anchor: &ArrayRef,
    form: &LinForm,
) -> Vec<(ArrayId, i64)> {
    let dims = &program.array(anchor.array).dims;
    let mut reads: Vec<(ArrayId, i64)> = stmt
        .reads()
        .into_iter()
        .filter(|r| &program.array(r.array).dims == dims && r.indices.len() == dims.len())
        .filter_map(|r| {
            let read = linear_address_form(program, r, form.coeffs.len())?;
            let shift = read.offset - form.offset;
            (read.coeffs == form.coeffs && shift != 0).then_some((r.array, shift))
        })
        .collect();
    reads.sort_unstable();
    reads.dedup();
    reads
}

/// Whether `form` takes a different value at every point of the loop box
/// `vars` of `loops`: sorted by how far one step moves it, each moving
/// variable's step outruns everything the slower ones can add up to.
fn injective(form: &LinForm, loops: &[LoopVar], vars: &[(i128, i128)]) -> bool {
    let mut moves = Vec::with_capacity(loops.len());
    for ((lv, &(lo, hi)), &c) in loops.iter().zip(vars).zip(&form.coeffs) {
        if hi <= lo {
            continue;
        }
        let steps = (hi - lo) / i128::from(lv.step.unsigned_abs().max(1));
        let unit = i128::from(c) * i128::from(lv.step);
        if unit == 0 {
            return false;
        }
        moves.push((unit.abs(), steps));
    }
    moves.sort_unstable();
    let mut reach = 0i128;
    for (unit, steps) in moves {
        if unit <= reach {
            return false;
        }
        reach += unit * steps;
    }
    true
}

/// The runs of a finished sink's `runs` with no page in two of them: the
/// ones that stand once, which come first and are disjoint, and each
/// translated run whose translates neither overlap each other nor any run
/// kept before it. Dropping a run leaves a floor a floor
/// ([`FetchPricer::count_fetched_pages`]).
fn disjoint_runs(runs: &[PageRun]) -> impl Iterator<Item = &PageRun> + Clone {
    let (plain, translated) = runs.split_at(runs.partition_point(|r| r.reps == 1));
    // Whether some translate of `t` meets pages `a..b`.
    let meets = |t: &PageRun, a: usize, b: usize| {
        let (f, len, s) = (t.first as i64, t.pages as i64, t.stride.max(1) as i64);
        let lo = ((a as i64 - len - f).div_euclid(s) + 1).max(0);
        let hi = (b as i64 - f - 1).div_euclid(s).min(t.reps as i64 - 1);
        lo <= hi
    };
    let end = |t: &PageRun| t.first + (t.reps - 1) * t.stride + t.pages;
    let mut kept: Vec<&PageRun> = Vec::new();
    // The end of the kept runs that reach furthest: a run past it is apart
    // from all of them.
    let mut reach = 0;
    for t in translated {
        let clear = t.pages <= t.stride
            && plain
                .iter()
                .skip(plain.partition_point(|r| r.end() <= t.first))
                .take_while(|r| r.first < end(t))
                .all(|r| !meets(t, r.first, r.end()))
            && (t.first >= reach
                || kept.iter().all(|u| {
                    // Apart, or translates in step whose pages never meet.
                    let (a, b) = (u.first.max(t.first), end(u).min(end(t)));
                    a >= b
                        || (u.stride == t.stride && {
                            let s = t.stride;
                            let (x, y) = (t.first % s, u.first % s);
                            let gap = (y + s - x) % s;
                            gap >= t.pages && s - gap >= u.pages
                        })
                }));
        if clear {
            reach = reach.max(end(t));
            kept.push(t);
        }
    }
    plain.iter().chain(kept)
}

/// A rectangular nest's loops reordered so that the one `form` moves
/// least along (by a nonzero step) is innermost, and `form` over them —
/// `None` when the nest is not rectangular or that loop is innermost
/// already. A profile sums over the iterations in any order, and a sweep
/// along the densest loop is a few runs where one across it may leap a page
/// every trip.
fn densest_inner(nest: &LoopNest, form: &LinForm) -> Option<(Vec<LoopVar>, LinForm)> {
    let loops = &nest.loops;
    let constant = |b: &AffineIndex| b.coeffs.iter().all(|&c| c == 0);
    if !loops.iter().all(|lv| constant(&lv.lo) && constant(&lv.hi)) {
        return None;
    }
    let moves =
        |v: usize| (form.coeffs.get(v).copied().unwrap_or(0) * loops[v].step).unsigned_abs();
    let inner = loops.len().checked_sub(1)?;
    // The first minimum in reverse order: the innermost of a tie.
    let densest = (0..loops.len())
        .rev()
        .filter(|&v| moves(v) != 0)
        .min_by(|&a, &b| moves(a).cmp(&moves(b)))?;
    if densest == inner {
        return None;
    }
    let order: Vec<usize> = (0..loops.len())
        .filter(|&v| v != densest)
        .chain([densest])
        .collect();
    let coeffs = order
        .iter()
        .map(|&v| form.coeffs.get(v).copied().unwrap_or(0));
    Some((
        order.iter().map(|&v| loops[v].clone()).collect(),
        LinForm {
            coeffs: coeffs.collect(),
            offset: form.offset,
        },
    ))
}

/// Append `count` on pages `first..first + pages` to the sorted runs
/// `runs`, merged into the last run when adjacent to it with an equal
/// count; whether it starts before the last run ends.
fn append(runs: &mut Vec<PageRun>, first: usize, pages: usize, count: u64) -> bool {
    if pages == 0 || count == 0 {
        return false;
    }
    let overlaps = match runs.last_mut() {
        Some(last) if last.end() == first && last.count == count => {
            last.pages += pages;
            return false;
        }
        Some(last) => first < last.end(),
        None => false,
    };
    runs.push(PageRun::new(first, pages, count));
    overlaps
}

/// The runs of one sweep of an affine anchor along `line`, trips
/// `0..trips`, all inside the array, into `runs`: a progression whose step
/// divides the page as its partial first page, one uniform middle run and
/// its partial last page; one whose step is a multiple of the page as one
/// page with its translates; any other as one run per page it visits.
fn sweep_runs(runs: &mut Vec<PageRun>, line: Line, trips: usize, page_size: usize) {
    if trips == 0 {
        return;
    }
    let (m, ps) = (trips as i64, page_size as i64);
    // The same addresses, ascending.
    let line = match line.step < 0 {
        true => Line {
            base: line.addr(m - 1),
            step: -line.step,
        },
        false => line,
    };
    let (lo, hi, step) = (line.base, line.addr(m - 1), line.step);
    let (q0, q1) = (lo / ps, hi / ps);
    let page = |q: i64| q as usize;
    if step > ps && step % ps == 0 {
        // Every trip on its own page, whole pages apart.
        runs.push(PageRun {
            stride: page(step / ps),
            reps: trips,
            ..PageRun::new(page(q0), 1, 1)
        });
    } else if q0 == q1 {
        append(runs, page(q0), 1, trips as u64);
    } else if ps % step == 0 {
        append(
            runs,
            page(q0),
            1,
            (((q0 + 1) * ps - 1 - lo) / step + 1) as u64,
        );
        append(runs, page(q0 + 1), page(q1 - q0 - 1), (ps / step) as u64);
        append(runs, page(q1), 1, ((hi - q1 * ps) / step + 1) as u64);
    } else {
        let mut t = 0;
        while t < m {
            let next = line.run_end(t, ps).min(m);
            append(runs, page(line.addr(t) / ps), 1, (next - t) as u64);
            t = next;
        }
    }
}

/// The page runs of one array as they are emitted, sweep by sweep, summed
/// per page at the end when they overlap or come out of order. Once such
/// runs would take as much memory as a difference per page of the array,
/// the sink keeps the differences instead, so memory stays within twice
/// the smaller of the two. Consecutive sweeps whose runs are translates of
/// one another by whole pages are kept apart, as one sweep's runs with a
/// stride and a count ([`Translates`]), never summed.
#[derive(Debug)]
struct RunSink {
    runs: Vec<PageRun>,
    /// Some run of `runs` starts before the previous one ends.
    overlapping: bool,
    /// Pages of the array.
    pages: usize,
    /// Per page, its count less the previous page's, once kept.
    diff: Option<Vec<i64>>,
    /// Runs with their translates.
    translated: Vec<PageRun>,
}

impl RunSink {
    fn new(pages: usize) -> RunSink {
        RunSink {
            runs: Vec::new(),
            overlapping: false,
            pages,
            diff: None,
            translated: Vec::new(),
        }
    }

    fn push(&mut self, first: usize, pages: usize, count: u64) {
        if let Some(diff) = &mut self.diff {
            diff[first] += count as i64;
            if let Some(d) = diff.get_mut(first + pages) {
                *d -= count as i64;
            }
            return;
        }
        self.overlapping |= append(&mut self.runs, first, pages, count);
        let (run, difference) = (size_of::<PageRun>(), size_of::<i64>());
        if self.overlapping && self.runs.len() * run >= self.pages * difference {
            self.diff = Some(vec![0; self.pages]);
            for r in std::mem::take(&mut self.runs) {
                self.push(r.first, r.pages, r.count);
            }
        }
    }

    /// Take the runs another sink finished: as they are when this one is
    /// still empty, else one by one.
    fn take(&mut self, mut runs: Vec<PageRun>) {
        if self.runs.is_empty() && self.translated.is_empty() && self.diff.is_none() {
            self.translated = runs.split_off(runs.partition_point(|r| r.reps == 1));
            self.runs = runs;
            return;
        }
        for run in runs {
            match run.reps {
                1 => self.push(run.first, run.pages, run.count),
                _ => self.translated.push(run),
            }
        }
    }

    /// The per-page sums as sorted, disjoint, maximal runs, then the
    /// translated runs.
    fn finish(mut self) -> Vec<PageRun> {
        let mut level = 0i64;
        if let Some(diff) = self.diff.take() {
            for (q, d) in diff.into_iter().enumerate() {
                level += d;
                append(&mut self.runs, q, 1, level as u64);
            }
        } else if self.overlapping {
            let mut ends: Vec<(usize, i64)> = Vec::with_capacity(2 * self.runs.len());
            for r in self.runs.drain(..) {
                ends.push((r.first, r.count as i64));
                ends.push((r.end(), -(r.count as i64)));
            }
            ends.sort_unstable_by_key(|&(q, _)| q);
            for (i, &(q, d)) in ends.iter().enumerate() {
                level += d;
                if let Some(&(next, _)) = ends.get(i + 1) {
                    append(&mut self.runs, q, next - q, level as u64);
                }
            }
        }
        self.runs.append(&mut self.translated);
        self.runs
    }
}

/// The runs of consecutive sweeps of one anchor that are translates of one
/// another: the first sweep's runs, and the stride in pages and the count
/// of the sweeps they stand for.
#[derive(Debug, Default)]
struct Translates {
    runs: Vec<PageRun>,
    stride: usize,
    reps: usize,
}

impl Translates {
    /// Take the runs of the next sweep, `sweep`, as one more translate if
    /// they are one; else hand the ones held to `sink` and start over from
    /// them. Leaves `sweep` empty.
    fn take(&mut self, sweep: &mut Vec<PageRun>, sink: &mut RunSink) {
        if sweep.is_empty() {
            return;
        }
        let stride = self.runs.first().and_then(|first| {
            let moved = sweep[0].first.checked_sub(first.first)?;
            match self.reps {
                1 => Some(moved),
                reps => (moved == self.stride * reps).then_some(self.stride),
            }
        });
        // A run that already has translates has them on the same pages
        // each sweep, or not at all.
        let follows = stride.is_some_and(|stride| {
            let moved = stride * self.reps;
            self.runs.len() == sweep.len()
                && (stride == 0 || sweep.iter().all(|r| r.reps == 1))
                && (self.runs.iter().zip(sweep.iter())).all(|(a, b)| {
                    PageRun {
                        first: a.first + moved,
                        ..*a
                    } == *b
                })
        });
        if let (true, Some(stride)) = (follows, stride) {
            self.stride = stride;
            self.reps += 1;
            sweep.clear();
        } else {
            self.flush(sink);
            std::mem::swap(&mut self.runs, sweep);
            self.reps = 1;
        }
    }

    /// Hand the runs held to `sink`: summed with its others if they stand
    /// for one sweep or for sweeps on the same pages, kept with their
    /// translates otherwise.
    fn flush(&mut self, sink: &mut RunSink) {
        for run in self.runs.drain(..) {
            let count = run.count * self.reps as u64;
            match self.stride {
                0 if run.reps == 1 => sink.push(run.first, run.pages, count),
                0 => sink.translated.push(PageRun { count, ..run }),
                // Translates that abut are one run.
                stride if stride == run.pages && run.reps == 1 => {
                    sink.push(run.first, run.pages * self.reps, run.count);
                }
                stride => sink.translated.push(PageRun {
                    stride,
                    reps: self.reps,
                    ..run
                }),
            }
        }
        (self.reps, self.stride) = (0, 0);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;

    /// Per array, the anchored instances per page found by enumerating
    /// every instance: the assignments', then the other statements'.
    fn anchors_by_instance(program: &Program, page_size: usize) -> Vec<[BTreeMap<usize, u64>; 2]> {
        let res = Resolver::new(program);
        let mut pages = vec![[BTreeMap::new(), BTreeMap::new()]; program.arrays.len()];
        walk(&res, &mut |at: &Instance<'_>| {
            let stmt = &at.nest.body[at.stmt];
            if let Some(anchor) = anchor_ref(stmt) {
                let addr = res.addr(anchor, at.ivs);
                let addr = addr.expect("a profiled program's anchors resolve");
                let other = usize::from(!matches!(stmt, Stmt::Assign { .. }));
                *pages[anchor.array.0][other]
                    .entry(addr / page_size)
                    .or_default() += 1;
            }
            Ok(())
        })
        .expect("a profiled program walks");
        pages
    }

    /// Every page of `runs` and its translates, with the run's count.
    fn pages<'r>(runs: impl IntoIterator<Item = &'r PageRun>) -> Vec<(usize, u64)> {
        let mut pages = Vec::new();
        for run in runs {
            for k in 0..run.reps {
                let first = run.first + k * run.stride;
                pages.extend((first..first + run.pages).map(|q| (q, run.count)));
            }
        }
        pages
    }

    #[test]
    fn profiles_count_the_anchored_instances_per_page_and_disjoint_runs_no_page_twice() {
        let summed = |runs: &[PageRun]| {
            let mut sums = BTreeMap::new();
            for (q, count) in pages(runs) {
                *sums.entry(q).or_default() += count;
            }
            sums
        };
        let once = |pages: Vec<(usize, u64)>| {
            pages.iter().map(|&(q, _)| q).collect::<BTreeSet<_>>().len() == pages.len()
        };
        let mut profiled = 0;
        for w in sa_loops::workloads() {
            let k = w.reduced();
            for page_size in [1, 3, 8, 64] {
                let Some(p) = profile(&k.program, page_size) else {
                    continue;
                };
                profiled += 1;
                let at = format!("{} at pages of {page_size}", k.code);
                let want = anchors_by_instance(&k.program, page_size);
                for (array, [writes, others]) in want.iter().enumerate() {
                    assert_eq!(summed(&p.writes[array]), *writes, "{at}: writes on {array}");
                    assert_eq!(summed(&p.others[array]), *others, "{at}: others on {array}");
                    for runs in [&p.writes[array], &p.others[array]] {
                        assert!(once(pages(disjoint_runs(runs))), "{at}: a page twice");
                    }
                }
                for (_, _, runs) in p.fetches.iter().flat_map(|f| &f.reads) {
                    assert!(
                        once(pages(runs.iter().map(|(run, _)| run))),
                        "{at}: a page twice"
                    );
                }
            }
        }
        // Every registry program but the runtime-indexed ones profiles.
        assert!(profiled >= 4 * 20, "only {profiled} profiles");
    }
}
