//! The owner-computes schedule: index screening, bound to a placement.
//!
//! Paper §3: "Each PE may write only into undefined array cells and only
//! into those mapped to that PE … This is achieved by screening the array
//! indices so that the right-hand side of the assignment is evaluated only
//! for a given PE's subranges."
//!
//! [`sa_ir::analysis`] decides *how* each statement is screened
//! ([`Screen`], [`NestScreen`]) without knowing the machine; a
//! [`Schedule`] binds that to one placement table and is the one thing
//! every engine and every static pass reads screening from. It answers:
//!
//! 1. **the owner of one instance** ([`Schedule::owner`]) — what the
//!    counting interpreter (`sa_core::exec`, the per-instance reference the
//!    others are certified against), the enumerating lint passes and a
//!    thread-engine PE resolving a produced anchor ask;
//! 2. **a PE's owned segments of every statement of a sweep, and the
//!    interleaved windows over their union** ([`Schedule::load_sweep`],
//!    [`Windows`]) — what a replay shard and a thread-engine PE task walk;
//! 3. **each reduction round's statically known participants**
//!    ([`Schedule::rounds`]) — what replay, the static estimator and the
//!    thread engine's plan charge partial-result messages from;
//! 4. **which stretches of a nest are translates of one another**
//!    ([`Schedule::folds`], [`Fold`]) — what lets the order-free counters
//!    (the static estimator, cache-less replay, the reduction rounds) walk
//!    one stretch per class and multiply;
//! 5. **which *consecutive* stretches are translates of one another, and
//!    by how much each array moves** ([`Schedule::chains`], [`Chain`]) —
//!    what lets a cached replay, which needs the order, stop walking once a
//!    PE's cache repeats itself.
//!
//! # Folding
//!
//! Under a periodic placement ([`Placement::period`]: the owner of address
//! `a + T` is the owner of `a`) an all-affine nest repeats itself: two
//! stretches of equal length whose references start at the same address
//! modulo their arrays' periods run on the same PEs, trip for trip, with
//! every read local or remote to the same owner. Every counter of the
//! cache-less model is a sum over trips of a function of exactly that —
//! the owner of the anchor's page and the owner of each read's page — so
//! it is the same on both stretches, and one of them can stand for all.
//! [`Schedule::folds`] cuts a nest into such classes; a consumer walks each
//! [`Fold`] once and multiplies by [`Fold::times`]. A nest the argument
//! does not cover (a statement that is not [`Screen::Affine`], a gather, a
//! period-less array) gets one fold per sweep with `times = 1`
//! ([`Schedule::unfolded`]): there is one walk, and folding only chooses
//! which trip ranges it visits.
//!
//! # Chains
//!
//! A cache makes the order count, so classes cannot be merged across the
//! nest — but *consecutive* translates still repeat. [`Schedule::chains`]
//! cuts a nest into runs of stretches, each the previous one moved by the
//! same shift, at two nested levels:
//!
//! * across sweeps, members of `P` consecutive sweeps with equal trips whose
//!   outer values (and first inner value) advance by the same step, `P`
//!   the fewest steps after which every reference has moved by a multiple
//!   of its period;
//! * inside a sweep of two or more blocks, blocks of the `L` trips
//!   [`Schedule::folds`] repeats by, and a tail.
//!
//! The shift must be one per array — the page shift a cache key of that
//! array moves by — so a nest in which one array's references move by
//! different amounts (a transposed read, a step-0 read beside a moving
//! one) does not chain at that level. A nest beyond the translation
//! argument chains at neither: one member per sweep, the plain walk.
//!
//! It lives in this crate because this is the lowest one that sees both
//! `sa_ir::Program` and `sa_machine::Placement`.

use std::collections::HashMap;
use std::ops::Range;

use sa_ir::access::{Line, Sweep};
use sa_ir::analysis::{
    anchor_ref, linear_address_form, screen_nests, NestScreen, Screen, StaticArrays,
};
use sa_ir::interp::{resolve_ref_addr, Memory};
use sa_ir::nest::{ArrayRef, LoopNest, Stmt};
use sa_ir::{ArrayId, IrError, LinForm, Program, ReduceOp};
use sa_machine::partition::{gcd, lcm};
use sa_machine::{host_of, ConfigError, PartitionScheme, Placement};

/// One run of a nest's innermost loop, as
/// [`LoopNest::try_for_each_sweep`] yields it (the outer values are behind
/// [`NestSchedule::sweep`]).
#[derive(Debug, Clone, Copy)]
pub struct SweepRec {
    /// The innermost variable on trip 0.
    pub lo: i64,
    /// Its increment per trip.
    pub step: i64,
    /// Number of trips.
    pub trips: usize,
    /// Iterations of the nest before this sweep.
    pub first: u64,
}

/// One reduction round after a nest: a `Reduce` statement's partial results
/// are collected at the scalar's host.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    /// Index of the `Reduce` statement in the nest body.
    pub stmt: usize,
    /// Destination scalar slot.
    pub scalar: usize,
    /// Combining operator.
    pub op: ReduceOp,
    /// Which PEs execute an instance of the statement, as far as the
    /// schedule can screen them.
    pub pes: Vec<bool>,
    /// False for a [`Screen::Produced`] statement: its participants are
    /// only known as its anchors resolve, at run time.
    pub complete: bool,
}

impl Round {
    /// Whether `pe` ships a partial result in this round: it took part and
    /// is not the scalar's host, whose own partial stays local.
    pub fn ships_from(&self, pe: usize) -> bool {
        self.pes[pe] && pe != host_of(self.scalar, self.pes.len())
    }
}

/// A stretch of a nest's iteration space standing for `times` translates
/// of itself (see the module docs, § Folding): trips `t0..t1` of sweep
/// `sweep`, the first of its class in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fold {
    /// Index of the representative sweep among the nest's sweeps.
    pub sweep: usize,
    /// First trip of the stretch.
    pub t0: usize,
    /// One past its last trip.
    pub t1: usize,
    /// How many stretches of the nest it stands for, itself included.
    pub times: u64,
}

impl Fold {
    /// The stretch's trips.
    pub fn trips(&self) -> Range<usize> {
        self.t0..self.t1
    }
}

/// A run of `count` consecutive stretches of `len` sweeps (across sweeps)
/// or `len` trips (inside one sweep) from `first` on, each the previous one
/// moved by [`Chains::shift`] (see the module docs, § Chains) — or, for an
/// *identity* chain, which has no shift, merely the next in execution
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chain {
    /// First sweep, or first trip, of the first member.
    pub first: usize,
    /// Sweeps, or trips, per member.
    pub len: usize,
    /// Members, in execution order.
    pub count: usize,
    /// Which of [`Chains`]' shifts the members move by.
    shift: usize,
}

/// The shift of an identity chain.
const UNMOVED: usize = usize::MAX;

impl Chain {
    /// An identity chain.
    fn plain(first: usize, len: usize, count: usize) -> Chain {
        Chain {
            first,
            len,
            count,
            shift: UNMOVED,
        }
    }

    /// The sweeps, or trips, of members `m0..m1`.
    #[inline]
    pub fn members(&self, m0: usize, m1: usize) -> Range<usize> {
        self.first + m0 * self.len..self.first + m1 * self.len
    }
}

/// A nest as an ordered walk that may stop repeating itself visits it:
/// runs of sweeps, and inside each sweep a run of blocks
/// ([`Schedule::chains`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chains {
    /// The runs of sweeps in execution order; their members, expanded,
    /// are every sweep of the nest once.
    pub sweeps: Vec<Chain>,
    /// Trips per inner block, 0 when blocks are not translates.
    block: usize,
    /// Per-member page shifts, each indexed by array id; the blocks' comes
    /// first when `block > 0`.
    shifts: Vec<Vec<i64>>,
}

impl Chains {
    /// How many pages each array's references move from one member of
    /// `chain` to the next (0 for an array the nest does not reference);
    /// empty for an identity chain.
    #[inline]
    pub fn shift(&self, chain: &Chain) -> &[i64] {
        self.shifts.get(chain.shift).map_or(&[], Vec::as_slice)
    }

    /// The chain of blocks a sweep of `trips` trips is walked in, from trip
    /// 0: two or more blocks when it holds them, else the whole sweep as
    /// one member. The trips past its last member, fewer than a block, are
    /// the sweep's tail.
    #[inline]
    pub fn blocks(&self, trips: usize) -> Chain {
        let l = self.block;
        if l > 0 && trips / 2 >= l {
            Chain {
                first: 0,
                len: l,
                count: trips / l,
                shift: 0,
            }
        } else {
            Chain::plain(0, trips, 1)
        }
    }
}

/// An anchor no PE can be found for, found while tabulating.
#[derive(Debug, Clone, PartialEq)]
pub struct AnchorError {
    /// Index of the nest among the program's nests.
    pub nest: usize,
    /// The failure of the first offending instance, as the shared address
    /// resolution words it.
    pub error: IrError,
}

/// A loop nest as the schedule sees it.
#[derive(Debug)]
pub struct NestSchedule<'p> {
    /// The nest.
    pub nest: &'p LoopNest,
    /// How its statements are screened, and its place in the deal.
    pub screen: NestScreen,
    /// Per body statement, the anchor reference (`None` for anchorless).
    anchors: Vec<Option<&'p ArrayRef>>,
    /// Outer loop-variable values of every sweep, `loops − 1` per sweep.
    outers: Vec<i64>,
    /// The nest's sweeps in execution order.
    pub sweeps: Vec<SweepRec>,
    /// Per body statement: for [`Screen::Static`] after
    /// [`Schedule::tabulate`], the owner of every iteration in execution
    /// order; empty otherwise.
    tables: Vec<Vec<u32>>,
}

impl NestSchedule<'_> {
    /// Sweep `i` in the shape the access model works on.
    pub fn sweep(&self, i: usize) -> Sweep<'_> {
        let w = self.nest.loops.len().saturating_sub(1);
        let s = &self.sweeps[i];
        Sweep {
            outer: &self.outers[i * w..(i + 1) * w],
            lo: s.lo,
            step: s.step,
            trips: s.trips,
        }
    }
}

/// A reference the translation argument keys on: its array, its address
/// form, and the array's [`Placement::period`].
struct Periodic {
    array: usize,
    form: LinForm,
    period: i64,
}

/// The fewest moves by `delta` after which every reference has moved by a
/// multiple of its period; `None` on overflow.
fn repeat_after(refs: &[Periodic], delta: impl Fn(&Periodic) -> i64) -> Option<u64> {
    refs.iter().try_fold(1u64, |l, r| {
        let period = r.period as u64;
        lcm(l, period / gcd(delta(r).unsigned_abs(), period))
    })
}

/// Whether sweep `j` of `ns` follows sweep `j − 1` as sweep `i + 1` follows
/// sweep `i` — outer values and first inner value advanced by the same
/// step — with as many trips as sweep `i`.
fn steps_alike(ns: &NestSchedule<'_>, i: usize, j: usize) -> bool {
    let (s, w) = (&ns.sweeps, ns.nest.loops.len().saturating_sub(1));
    let outer = |k: usize| &ns.outers[k * w..(k + 1) * w];
    let step = |k: usize| outer(k + 1).iter().zip(outer(k)).map(|(b, a)| b - a);
    s[j].trips == s[i].trips
        && s[j].lo - s[j - 1].lo == s[i + 1].lo - s[i].lo
        && step(j - 1).eq(step(i))
}

/// Loop-variable values of `sweep` on trip `t`, into `ivs`.
fn iteration(ivs: &mut Vec<i64>, sweep: &Sweep<'_>, depth: usize, t: usize) {
    ivs.clear();
    ivs.extend_from_slice(sweep.outer);
    if depth > 0 {
        ivs.push(sweep.lo + sweep.step * t as i64);
    }
}

/// The owner-computes schedule of one program under one placement table.
#[derive(Debug)]
pub struct Schedule<'p> {
    program: &'p Program,
    n_pes: usize,
    placements: Vec<Placement>,
    nests: Vec<NestSchedule<'p>>,
}

impl<'p> Schedule<'p> {
    /// Screen `program` for a machine of `n_pes` PEs placing pages of
    /// `page_size` elements by `scheme`. Each array carries its own
    /// [`Placement`] built from its declared dimensions, so the tiled
    /// schemes see the real grid geometry.
    pub fn new(
        program: &'p Program,
        statics: &StaticArrays<'_>,
        scheme: PartitionScheme,
        page_size: usize,
        n_pes: usize,
    ) -> Result<Self, ConfigError> {
        let placements = Placement::table(
            program.arrays.iter().map(|d| &d.dims),
            scheme,
            page_size,
            n_pes,
        )?;
        let nests = program
            .nests()
            .zip(screen_nests(program, statics))
            .map(|(nest, screen)| {
                let (mut outers, mut sweeps, mut first) = (Vec::new(), Vec::new(), 0u64);
                nest.for_each_sweep(|s| {
                    outers.extend_from_slice(s.outer);
                    sweeps.push(SweepRec {
                        lo: s.lo,
                        step: s.step,
                        trips: s.trips,
                        first,
                    });
                    first += s.trips as u64;
                });
                NestSchedule {
                    nest,
                    screen,
                    anchors: nest.body.iter().map(anchor_ref).collect(),
                    outers,
                    sweeps,
                    tables: vec![Vec::new(); nest.body.len()],
                }
            })
            .collect();
        Ok(Schedule {
            program,
            n_pes,
            placements,
            nests,
        })
    }

    /// The program.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Number of PEs.
    pub fn n_pes(&self) -> usize {
        self.n_pes
    }

    /// The per-array placement table.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Placement of array `a`.
    pub fn placement(&self, a: ArrayId) -> &Placement {
        &self.placements[a.0]
    }

    /// The `i`-th nest of the program (phase order, re-initializations not
    /// counted).
    pub fn nest(&self, i: usize) -> &NestSchedule<'p> {
        &self.nests[i]
    }

    /// The nests in phase order.
    pub fn nests(&self) -> &[NestSchedule<'p>] {
        &self.nests
    }

    /// The PE executing statement `stmt` of nest `nest` at iteration vector
    /// `ivs`, the nest's `g`-th iteration in execution order: the owner of
    /// the cell its anchor names, or its turn in the round-robin deal.
    ///
    /// An anchor through index arrays loads their cells through `resolve` —
    /// a *non-counting* memory, because ownership discovery is screening,
    /// not program work: the simulator passes an omniscient peek, the
    /// static passes the constant arrays, the thread runtime a resolution
    /// store fed by `IndirectFetch` messages. The index array's own single
    /// assignment guarantees every caller resolves the same subscript.
    /// Address errors (out-of-bounds subscripts, reads of never-defined
    /// index cells) surface as `Err`.
    #[inline]
    pub fn owner(
        &self,
        nest: usize,
        stmt: usize,
        g: u64,
        ivs: &[i64],
        resolve: &mut impl Memory,
    ) -> Result<usize, IrError> {
        let ns = &self.nests[nest];
        let Some(anchor) = ns.anchors[stmt] else {
            let Screen::RoundRobin { slot } = ns.screen.screens[stmt] else {
                unreachable!("only anchorless statements are dealt round-robin");
            };
            return Ok(ns.screen.deal(slot, g, self.n_pes));
        };
        let placement = &self.placements[anchor.array.0];
        if let Some(addr) = self.affine_addr(anchor, ivs) {
            return Ok(placement.owner_of_addr(addr));
        }
        let addr = resolve_ref_addr(self.program, anchor, ivs, resolve)?;
        Ok(placement.owner_of_addr(addr))
    }

    /// The address an all-affine, in-bounds reference names at `ivs`: the
    /// memory-free fast path of [`Schedule::owner`].
    #[inline]
    fn affine_addr(&self, aref: &ArrayRef, ivs: &[i64]) -> Option<usize> {
        let decl = self.program.array(aref.array);
        if aref.indices.len() != decl.dims.len() {
            return None;
        }
        // Row-major linearization folded in index by index: this runs once
        // per statement instance on every enumerating consumer.
        let mut addr = 0usize;
        for (ix, &extent) in aref.indices.iter().zip(&decl.dims) {
            let i = ix.as_affine()?.eval(ivs);
            if i < 0 || i as usize >= extent {
                return None;
            }
            addr = addr * extent + i as usize;
        }
        Some(addr)
    }

    /// Prepare the per-PE half ([`Schedule::load_sweep`],
    /// [`Schedule::rounds`]): prove every affine anchor in bounds — an
    /// index is affine along a sweep, so the two end trips decide — and
    /// resolve every [`Screen::Static`] anchor into its owner table against
    /// the constant arrays, once per run instead of once per PE per trip.
    /// Stops at the first instance no owner exists for.
    pub fn tabulate(&mut self, statics: &StaticArrays<'_>) -> Result<(), AnchorError> {
        for n in 0..self.nests.len() {
            let depth = self.nests[n].nest.loops.len();
            let mut ivs = Vec::with_capacity(depth);
            for si in 0..self.nests[n].anchors.len() {
                let ns = &self.nests[n];
                let Some(anchor) = ns.anchors[si] else {
                    continue;
                };
                let resolve = |ivs: &[i64]| {
                    resolve_ref_addr(self.program, anchor, ivs, &mut &*statics)
                        .map_err(|error| AnchorError { nest: n, error })
                };
                let mut owners = Vec::new();
                match ns.screen.screens[si] {
                    Screen::Affine { .. } => {
                        for i in 0..ns.sweeps.len() {
                            let sw = ns.sweep(i);
                            for t in [0, sw.trips - 1] {
                                iteration(&mut ivs, &sw, depth, t);
                                if self.affine_addr(anchor, &ivs).is_none() {
                                    // The first offending trip names the error.
                                    for t in 0..sw.trips {
                                        iteration(&mut ivs, &sw, depth, t);
                                        resolve(&ivs)?;
                                    }
                                }
                            }
                        }
                    }
                    Screen::Static => {
                        owners.reserve(ns.screen.iterations as usize);
                        let placement = &self.placements[anchor.array.0];
                        for i in 0..ns.sweeps.len() {
                            let sw = ns.sweep(i);
                            for t in 0..sw.trips {
                                iteration(&mut ivs, &sw, depth, t);
                                owners.push(placement.owner_of_addr(resolve(&ivs)?) as u32);
                            }
                        }
                    }
                    Screen::RoundRobin { .. } | Screen::Produced => {}
                }
                self.nests[n].tables[si] = owners;
            }
        }
        Ok(())
    }

    /// Nest `nest` as one [`Fold`] per sweep, each standing for itself: the
    /// walk in execution order, which is what [`Schedule::folds`] gives a
    /// nest beyond the translation argument.
    pub fn unfolded(&self, nest: usize) -> Vec<Fold> {
        let sweeps = self.nests[nest].sweeps.iter().enumerate();
        sweeps
            .map(|(sweep, s)| Fold {
                sweep,
                t0: 0,
                t1: s.trips,
                times: 1,
            })
            .collect()
    }

    /// Nest `nest` cut into classes of stretches that are translates of one
    /// another (module docs, § Folding), each represented by its first
    /// member in execution order. The references that must agree are every
    /// statement's anchor and, `with_reads`, every read. Expanding the
    /// folds covers every (sweep, trip) of the nest exactly once; a nest
    /// with a statement that is not [`Screen::Affine`], a non-affine read
    /// or a reference into an array without a [`Placement::period`] comes
    /// back [`unfolded`](Schedule::unfolded).
    pub fn folds(&self, nest: usize, with_reads: bool) -> Vec<Fold> {
        match self.periodic_refs(nest, with_reads) {
            Some(refs) => self.fold_by(nest, &refs),
            None => self.unfolded(nest),
        }
    }

    /// Every reference [`Schedule::folds`] keys on, or `None` when the nest
    /// is beyond the translation argument.
    fn periodic_refs(&self, nest: usize, with_reads: bool) -> Option<Vec<Periodic>> {
        let ns = &self.nests[nest];
        let nvars = ns.nest.loops.len();
        let mut refs = Vec::new();
        for (stmt, screen) in ns.nest.body.iter().zip(&ns.screen.screens) {
            let Screen::Affine { array, form } = screen else {
                return None;
            };
            refs.push(self.periodic(*array, form.clone())?);
            for read in stmt.reads().into_iter().filter(|_| with_reads) {
                let form = linear_address_form(self.program, read, nvars)?;
                refs.push(self.periodic(read.array, form)?);
            }
        }
        Some(refs)
    }

    /// A reference to array `a` at `form`, if the array has a
    /// [`Placement::period`].
    fn periodic(&self, a: ArrayId, form: LinForm) -> Option<Periodic> {
        Some(Periodic {
            array: a.0,
            form,
            period: i64::try_from(self.placements[a.0].period()?).ok()?,
        })
    }

    /// [`Schedule::folds`] over the given references.
    fn fold_by(&self, nest: usize, refs: &[Periodic]) -> Vec<Fold> {
        let ns = &self.nests[nest];
        if ns.sweeps.is_empty() {
            return Vec::new();
        }
        // Trips after which every reference has advanced by a multiple of
        // its period (`None`: more than any sweep has): a sweep of two or
        // more such periods is its first one, repeated, plus a tail. A
        // reference's increment per trip is the same on every sweep.
        let first = ns.sweep(0);
        let inner = repeat_after(refs, |r| r.form.line(&first).step);
        let mut folds: Vec<Fold> = Vec::new();
        let mut classes: HashMap<Vec<i64>, usize> = HashMap::new();
        let mut key: Vec<i64> = Vec::with_capacity(refs.len() + 1);
        for (sweep, s) in ns.sweeps.iter().enumerate() {
            let sw = ns.sweep(sweep);
            let (head, periods) = match inner {
                Some(l) if s.trips as u64 / 2 >= l => (l as usize, s.trips as u64 / l),
                _ => (s.trips, 1),
            };
            let tail = head * periods as usize;
            for (t0, t1, times) in [(0, head, periods), (tail, s.trips, 1)] {
                if t0 == t1 {
                    continue;
                }
                // Equal length, equal start of every reference modulo its
                // period: the stretches are translates.
                key.clear();
                key.push((t1 - t0) as i64);
                for r in refs {
                    key.push(r.form.line(&sw).addr(t0 as i64).rem_euclid(r.period));
                }
                if let Some(&class) = classes.get(&key) {
                    folds[class].times += times;
                } else {
                    classes.insert(key.clone(), folds.len());
                    folds.push(Fold {
                        sweep,
                        t0,
                        t1,
                        times,
                    });
                }
            }
        }
        folds
    }

    /// Nest `nest` as runs of consecutive translates (module docs,
    /// § Chains): runs of sweeps in execution order, and the blocks a sweep
    /// is cut into ([`Chains::blocks`]). The references that must move
    /// alike are every statement's anchor and every read; sweeps no run
    /// covers are identity chains of one sweep per member, and a nest that
    /// [`folds`](Schedule::folds) to the identity is one such chain, with
    /// no blocks. The table holds one entry per run, never one per block.
    pub fn chains(&self, nest: usize) -> Chains {
        let ns = &self.nests[nest];
        let n = ns.sweeps.len();
        let mut chains = Chains {
            sweeps: Vec::new(),
            block: 0,
            shifts: Vec::new(),
        };
        let Some(refs) = self.periodic_refs(nest, true) else {
            chains.sweeps.extend((n > 0).then(|| Chain::plain(0, 1, n)));
            return chains;
        };
        if n > 0 {
            // A reference's increment per trip is the same on every sweep.
            let first = ns.sweep(0);
            let longest = ns.sweeps.iter().map(|s| s.trips).max().unwrap_or(0);
            let step = |r: &Periodic| r.form.line(&first).step;
            if let Some((l, shift)) = self.translation(&refs, step, longest / 2) {
                chains.block = l;
                chains.shifts.push(shift);
            }
        }
        let mut i = 0;
        while i < n {
            // Sweeps `i..j` step alike; only then are the per-reference
            // moves worth working out.
            let mut j = i + 1;
            while j < n && steps_alike(ns, i, j) {
                j += 1;
            }
            let (from, to) = (ns.sweep(i), ns.sweep((i + 1).min(n - 1)));
            let moved = |r: &Periodic| r.form.line(&to).base - r.form.line(&from).base;
            let found = (j - i >= 2)
                .then(|| self.translation(&refs, moved, (j - i) / 2))
                .flatten();
            match found {
                Some((p, shift)) => {
                    let count = (j - i) / p;
                    chains.sweeps.push(Chain {
                        first: i,
                        len: p,
                        count,
                        shift: chains.shifts.len(),
                    });
                    chains.shifts.push(shift);
                    i += count * p;
                }
                None => {
                    // Sweep `j - 1` may begin the next run.
                    let next = (j - 1).max(i + 1);
                    match chains.sweeps.last_mut() {
                        Some(last) if last.shift == UNMOVED => last.count += next - i,
                        _ => chains.sweeps.push(Chain::plain(i, 1, next - i)),
                    }
                    i = next;
                }
            }
        }
        chains
    }

    /// When every reference to an array moves by the same address distance
    /// `delta`, the fewest moves after which each reference has moved by a
    /// multiple of its period, and what each array has then moved, in
    /// pages, indexed by array id; `None` when some array's references
    /// move apart or the fewest moves are more than `most`.
    fn translation(
        &self,
        refs: &[Periodic],
        delta: impl Fn(&Periodic) -> i64,
        most: usize,
    ) -> Option<(usize, Vec<i64>)> {
        let times = repeat_after(refs, &delta).filter(|&t| t <= most as u64)?;
        let mut moves = vec![None; self.placements.len()];
        for r in refs {
            let d = delta(r);
            if *moves[r.array].get_or_insert(d) != d {
                return None;
            }
        }
        let pages = moves.iter().zip(&self.placements).map(|(d, p)| {
            let addrs = d.unwrap_or(0).checked_mul(i64::try_from(times).ok()?)?;
            debug_assert_eq!(addrs % p.page_size as i64, 0, "a period is whole pages");
            Some(addrs / p.page_size as i64)
        });
        Some((usize::try_from(times).ok()?, pages.collect::<Option<_>>()?))
    }

    /// The trips `trips` of sweep `sweep` of nest `nest` that statement
    /// `stmt` executes on `pe`, as disjoint ascending `(start, end)` ranges
    /// into `out`. A [`Screen::Produced`] statement is visited on every
    /// trip by every PE, which resolves the owner as it goes. Needs
    /// [`Schedule::tabulate`].
    fn segments(
        &self,
        pe: usize,
        nest: usize,
        sweep: usize,
        stmt: usize,
        trips: Range<usize>,
        out: &mut Vec<(usize, usize)>,
    ) {
        let ns = &self.nests[nest];
        let first = ns.sweeps[sweep].first;
        match &ns.screen.screens[stmt] {
            Screen::Affine { array, form } => owned_segments(
                &self.placements[array.0],
                pe,
                form.line(&ns.sweep(sweep)),
                trips,
                out,
            ),
            Screen::RoundRobin { slot } => {
                let n = self.n_pes;
                owned_segments_by(
                    trips,
                    |t| ns.screen.deal(*slot, first + t as u64, n) == pe,
                    out,
                );
            }
            Screen::Static => {
                let owners = &ns.tables[stmt][first as usize..];
                owned_segments_by(trips, |t| owners[t] as usize == pe, out);
            }
            Screen::Produced => {
                out.clear();
                out.push((trips.start, trips.end));
            }
        }
    }

    /// Position `win` on the trips `trips` of sweep `sweep` of nest `nest`
    /// as `pe` sees them: its owned segments of every body statement, ready
    /// to be walked window by window. Needs [`Schedule::tabulate`].
    pub fn load_sweep(
        &self,
        pe: usize,
        nest: usize,
        sweep: usize,
        trips: Range<usize>,
        win: &mut Windows,
    ) {
        let body = self.nests[nest].nest.body.len();
        win.segs.resize_with(body, Vec::new);
        for (si, segs) in win.segs.iter_mut().enumerate() {
            self.segments(pe, nest, sweep, si, trips.clone(), segs);
        }
        win.rewind();
    }

    /// The reduction rounds after nest `nest`, one per `Reduce` statement
    /// in body order, with the PEs the schedule knows to take part. Needs
    /// [`Schedule::tabulate`] when the nest has [`Screen::Static`]
    /// reductions.
    pub fn rounds(&self, nest: usize) -> Vec<Round> {
        let ns = &self.nests[nest];
        let mut rounds = Vec::new();
        for (si, stmt) in ns.nest.body.iter().enumerate() {
            let Stmt::Reduce { target, op, .. } = stmt else {
                continue;
            };
            let mut pes = vec![false; self.n_pes];
            match &ns.screen.screens[si] {
                Screen::Affine { array, form } => {
                    // Who takes part is a union over page runs, the same
                    // on every stretch of a class: one of each decides.
                    let placement = &self.placements[array.0];
                    let ps = placement.page_size as i64;
                    let folds = match self.periodic(*array, form.clone()) {
                        Some(anchor) => self.fold_by(nest, &[anchor]),
                        None => self.unfolded(nest),
                    };
                    for fold in folds {
                        let line = form.line(&ns.sweep(fold.sweep));
                        let mut t = fold.t0 as i64;
                        while t < fold.t1 as i64 {
                            pes[placement.owner_of_addr(line.addr(t) as usize)] = true;
                            t = line.run_end(t, ps);
                        }
                    }
                }
                Screen::RoundRobin { slot } => pes = ns.screen.dealt_to(*slot, self.n_pes),
                Screen::Static => {
                    for &pe in &ns.tables[si] {
                        pes[pe as usize] = true;
                    }
                }
                Screen::Produced => {}
            }
            rounds.push(Round {
                stmt: si,
                scalar: target.0,
                op: *op,
                pes,
                complete: ns.screen.screens[si] != Screen::Produced,
            });
        }
        rounds
    }
}

/// The interleaved walk over a sweep's owned segments: iterations run the
/// body's statements in order, so a PE's work in a sweep is the union of
/// its statements' segments, cut at every segment boundary into *windows*
/// on which the set of statements it executes is constant.
///
/// Filled by [`Schedule::load_sweep`]; [`Windows::advance`] then yields the
/// windows in trip order.
#[derive(Debug, Default)]
pub struct Windows {
    /// Per statement, the trips it executes here.
    segs: Vec<Vec<(usize, usize)>>,
    /// Every segment boundary, ascending.
    cuts: Vec<usize>,
    /// The next window starts at `cuts[next]`.
    next: usize,
    /// Per statement, the first segment not wholly behind the window.
    cursors: Vec<usize>,
    /// The statements executing in the current window, in body order.
    active: Vec<usize>,
}

impl Windows {
    fn rewind(&mut self) {
        self.cuts.clear();
        for &(s, e) in self.segs.iter().flatten() {
            self.cuts.push(s);
            self.cuts.push(e);
        }
        self.cuts.sort_unstable();
        self.cuts.dedup();
        self.next = 0;
        self.cursors.clear();
        self.cursors.resize(self.segs.len(), 0);
        self.active.clear();
    }

    /// Move to the next window some statement executes in: its trips
    /// `(start, end)`, with [`Windows::active`] naming the statements.
    /// `None` once the sweep is exhausted.
    pub fn advance(&mut self) -> Option<(usize, usize)> {
        while self.next + 1 < self.cuts.len() {
            let (w0, w1) = (self.cuts[self.next], self.cuts[self.next + 1]);
            self.next += 1;
            self.active.clear();
            for (si, (segs, c)) in self.segs.iter().zip(&mut self.cursors).enumerate() {
                while segs.get(*c).is_some_and(|s| s.1 <= w0) {
                    *c += 1;
                }
                if segs.get(*c).is_some_and(|s| s.0 <= w0) {
                    self.active.push(si);
                }
            }
            if !self.active.is_empty() {
                return Some((w0, w1));
            }
        }
        None
    }

    /// The statements executing in the current window, in body order.
    pub fn active(&self) -> &[usize] {
        &self.active
    }
}

/// The trips `trips` of a sweep whose affine anchor address `line(t)` lies
/// on a page `pe` owns, as disjoint ascending `(start, end)` ranges into
/// `out` — index screening (paper §3) done once per sweep instead of once
/// per instance.
///
/// Instead of walking every page run, only the pages *this PE owns* are
/// enumerated (each partition scheme's owned set is a union of page
/// intervals, [`Placement::owned_page_intervals`]) and each is mapped back
/// to a trip range closed-form ([`Line::trips_in_pages`]) — the per-PE cost
/// is proportional to the PE's own share of the sweep, so PEs divide the
/// work instead of replicating it.
#[inline]
fn owned_segments(
    placement: &Placement,
    pe: usize,
    line: Line,
    trips: Range<usize>,
    out: &mut Vec<(usize, usize)>,
) {
    out.clear();
    let (t0, m) = (trips.start, trips.len());
    // The line as the stretch sees it: trip 0 is the sweep's `t0`.
    let line = Line {
        base: line.addr(t0 as i64),
        step: line.step,
    };
    let last = line.addr(m as i64 - 1);
    debug_assert!(line.base >= 0 && last >= 0, "negative anchor address");
    if line.step == 0 || placement.n_pes == 1 {
        if placement.owner_of_addr(line.base as usize) == pe {
            out.push((trips.start, trips.end));
        }
        return;
    }
    let ps = placement.page_size as i64;
    let (plo, phi) = (line.base.min(last) / ps, line.base.max(last) / ps);
    placement.owned_page_intervals(pe, plo as usize, phi as usize, |q0, q1| {
        out.extend(
            line.trips_in_pages(q0, q1, ps, m)
                .map(|(s, e)| (t0 + s, t0 + e)),
        );
    });
    if line.step < 0 {
        // Ascending pages map to descending iterations.
        out.reverse();
    }
    // Coalesce adjacent ranges (adjacent owned pages), in place.
    let mut kept = 0;
    for i in 0..out.len() {
        let (s, e) = out[i];
        if kept > 0 && out[kept - 1].1 >= s {
            out[kept - 1].1 = out[kept - 1].1.max(e);
        } else {
            out[kept] = (s, e);
            kept += 1;
        }
    }
    out.truncate(kept);
}

/// The trips of `trips` a per-trip predicate accepts (tabulated and
/// round-robin anchors), coalesced into disjoint ascending `(start, end)`
/// ranges into `out`.
fn owned_segments_by(
    trips: Range<usize>,
    owned: impl Fn(usize) -> bool,
    out: &mut Vec<(usize, usize)>,
) {
    out.clear();
    let mut t = trips.start;
    while t < trips.end {
        if owned(t) {
            let start = t;
            t += 1;
            while t < trips.end && owned(t) {
                t += 1;
            }
            out.push((start, t));
        } else {
            t += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_ir::index::iv;
    use sa_ir::{InitPattern, ProgramBuilder};

    fn hydro_like(n: usize) -> Program {
        let mut b = ProgramBuilder::new("t");
        let y = b.input("Y", &[n], InitPattern::Wavy);
        let x = b.output("X", &[n]);
        b.nest("main", &[("k", 0, n as i64 - 1)], |nb| {
            nb.assign(x, [iv(0)], nb.read(y, [iv(0)]));
        });
        b.finish()
    }

    fn schedule(p: &Program, scheme: PartitionScheme, page: usize, n_pes: usize) -> Schedule<'_> {
        Schedule::new(p, &StaticArrays::scan(p), scheme, page, n_pes).unwrap()
    }

    /// The owner of the nest's one statement at `ivs`, or the error.
    fn owner_at(s: &Schedule<'_>, ivs: &[i64]) -> Result<usize, IrError> {
        s.owner(0, 0, 0, ivs, &mut &StaticArrays::scan(s.program()))
    }

    /// How many iterations of the one nest each PE owns.
    fn owners_per_pe(s: &Schedule<'_>) -> Vec<usize> {
        let mut counts = vec![0usize; s.n_pes()];
        let Ok(()) = crate::sites::iterate(s.nest(0).nest, |ivs| {
            counts[owner_at(s, ivs).unwrap()] += 1;
            Ok::<(), std::convert::Infallible>(())
        });
        counts
    }

    #[test]
    fn owner_matches_machine_partition() {
        let p = hydro_like(100);
        let s = schedule(&p, PartitionScheme::Modulo, 32, 4);
        assert_eq!(s.n_pes(), 4);
        // Paper example: pages 0..3 of a 100-element array → PEs 0..3.
        let x = s.placement(p.array_id("X").unwrap());
        assert_eq!(x.page_size, 32);
        assert_eq!(x.owner_of_addr(0), 0);
        assert_eq!(x.owner_of_addr(33), 1);
        assert_eq!(x.owner_of_addr(99), 3);
    }

    #[test]
    fn owner_screens_iterations() {
        let p = hydro_like(100);
        let s = schedule(&p, PartitionScheme::Modulo, 32, 4);
        assert_eq!(owner_at(&s, &[0]), Ok(0));
        assert_eq!(owner_at(&s, &[32]), Ok(1));
        assert_eq!(owner_at(&s, &[96]), Ok(3));
        // An out-of-bounds iteration is the interpreter's error, not a panic.
        assert!(matches!(
            owner_at(&s, &[1000]),
            Err(IrError::IndexOutOfBounds { index: 1000, .. })
        ));
    }

    #[test]
    fn screened_iteration_sets_partition_the_domain() {
        // Every iteration must belong to exactly one PE.
        let p = hydro_like(100);
        let s = schedule(&p, PartitionScheme::Modulo, 32, 4);
        assert_eq!(owners_per_pe(&s), vec![32, 32, 32, 4]); // 3 full pages + partial
    }

    #[test]
    fn tiled_schedule_screens_by_grid_tile() {
        // An 8×8 grid under Tile2D{4,4} on 4 PEs, page size 2: the owner of
        // (i, j) is the tile owner, not the flattened-page owner.
        let mut b = ProgramBuilder::new("t2");
        let y = b.input("Y", &[8, 8], InitPattern::Wavy);
        let x = b.output("X", &[8, 8]);
        b.nest("main", &[("i", 0, 7), ("j", 0, 7)], |nb| {
            nb.assign(x, [iv(0), iv(1)], nb.read(y, [iv(0), iv(1)]));
        });
        let p = b.finish();
        let tiles = PartitionScheme::Tile2D {
            tile_rows: 4,
            tile_cols: 4,
        };
        let s = schedule(&p, tiles, 2, 4);
        assert_eq!(owner_at(&s, &[0, 0]), Ok(0));
        assert_eq!(owner_at(&s, &[0, 4]), Ok(1));
        assert_eq!(owner_at(&s, &[4, 0]), Ok(2));
        assert_eq!(owner_at(&s, &[7, 7]), Ok(3));
        // Every iteration still belongs to exactly one PE, 16 per tile.
        assert_eq!(owners_per_pe(&s), vec![16, 16, 16, 16]);
    }

    #[test]
    fn owned_segments_are_the_screened_trips_under_every_scheme() {
        // A 24×20 grid walked along lines of several strides and both
        // directions: each PE's segments must be exactly the trips whose
        // address it owns — ascending, disjoint, and together the sweep.
        // (`tests/schedule_certification.rs` does the same for whole
        // schedules, every screen kind included.)
        let dims = [24usize, 20];
        for scheme in [
            PartitionScheme::Modulo,
            PartitionScheme::Block,
            PartitionScheme::BlockCyclic { block_pages: 2 },
            PartitionScheme::RowBand,
            PartitionScheme::Tile2D {
                tile_rows: 5,
                tile_cols: 6,
            },
        ] {
            for (n_pes, page) in [(1usize, 8usize), (3, 4), (4, 7), (7, 1)] {
                let placement = Placement::table([&dims[..]], scheme, page, n_pes).unwrap()[0];
                for (base, step, m) in [
                    (0i64, 1i64, 480usize),
                    (479, -1, 480),
                    (3, 20, 24),
                    (17, 0, 9),
                    (40, 7, 60),
                ] {
                    let line = Line { base, step };
                    let mut seen = vec![0u32; m];
                    // The whole sweep, then a stretch from its middle.
                    for trips in [0..m, m / 3..m - m / 4] {
                        for pe in 0..n_pes {
                            let mut segs = vec![(7, 7)]; // overwritten, not appended to
                            owned_segments(&placement, pe, line, trips.clone(), &mut segs);
                            let mut prev_end = trips.start;
                            for &(s, e) in &segs {
                                assert!(
                                    s < e && e <= trips.end && (s > prev_end || s == trips.start),
                                    "{segs:?}"
                                );
                                prev_end = e;
                                for (t, count) in seen.iter_mut().enumerate().take(e).skip(s) {
                                    let addr = line.addr(t as i64) as usize;
                                    assert_eq!(
                                        placement.owner_of_addr(addr),
                                        pe,
                                        "{scheme:?} trip {t}"
                                    );
                                    *count += u32::from(trips.len() == m);
                                }
                            }
                            let mut by = Vec::new();
                            let owned =
                                |t| placement.owner_of_addr(line.addr(t as i64) as usize) == pe;
                            owned_segments_by(trips.clone(), owned, &mut by);
                            assert_eq!(segs, by, "{scheme:?} {n_pes}x{page} {line:?} PE {pe}");
                        }
                    }
                    assert!(
                        seen.iter().all(|&c| c == 1),
                        "{scheme:?} {line:?}: {seen:?}"
                    );
                }
            }
        }
    }
}
