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
//!    enumerating lint passes ask, and, for an anchor address a compiled
//!    statement body resolved ([`Schedule::owner_at`]), the counting
//!    interpreter (`sa_core::exec`, the per-instance reference the others
//!    are certified against);
//! 2. **a PE's owned segments of every statement of a sweep, and the
//!    interleaved windows over their union** ([`Schedule::load_sweep`],
//!    [`Windows`]) — what a replay shard and a thread-engine PE task walk;
//! 3. **each reduction round's statically known participants**
//!    ([`Schedule::rounds`]) — what replay and the thread engine's plan
//!    charge partial-result messages from;
//! 4. **which stretches of a nest are translates of one another**
//!    ([`Schedule::folds`], [`Fold`]) — what lets the order-free counters
//!    (cache-less replay, the reduction rounds) walk one stretch per class
//!    and multiply;
//! 5. **which *consecutive* stretches are translates of one another, and
//!    by how much each array moves** ([`Schedule::chains`], [`Chain`]) —
//!    what lets a cached replay, which needs the order, stop walking once a
//!    PE's cache repeats itself;
//! 6. **which PEs execute anything in a chain, a sweep or a fold**
//!    ([`Chain::pes`], [`Chains::sweep_pes`], [`Fold::pes`]) — what lets a
//!    replay shard pass by what it owns nothing of.
//!
//! # Translates
//!
//! Two stretches of an all-affine nest are *translates* when every
//! reference of the one names, trip for trip, the address the other names
//! moved by a whole number of pages, and every page it names keeps its
//! owner. They then run on the same PEs, trip for trip, with every read
//! local or remote to the same owner, and page runs cut alike. Two
//! placement facts give translates ([`Placement::same_owner_run`]):
//!
//! * **owner runs** — moving a reference's pages by whole pages keeps them
//!   with their owners while they stay inside one tile row: rows of one
//!   `block` or `rowband` band, or of one band of `tile2d` tiles;
//! * **periods** — under a periodic placement ([`Placement::period`]) a
//!   move by whole periods keeps every owner, wherever it starts.
//!
//! # Chains
//!
//! [`Schedule::chains`] cuts a nest into runs of stretches, each the
//! previous one moved by the same shift, at two nested levels:
//!
//! * across sweeps, runs of sweeps with equal trips whose outer values (and
//!   first inner value) advance by the same step. Where two or more members
//!   of the fewest sweeps that move every reference by whole periods fit,
//!   one chain of them runs to the run's end; otherwise each sweep in turn
//!   begins an owner run — members of the fewest sweeps that move every
//!   reference by whole pages, for as long as every reference's pages keep
//!   their owners — or, when that gives no two members (a band's edge),
//!   stands for itself;
//! * inside a sweep of two or more blocks, blocks of the `L` trips after
//!   which every reference has moved by whole periods, and a tail.
//!
//! The shift must be one per array — the page shift a cache key of that
//! array moves by — so a nest in which one array's references move by
//! different amounts (a transposed read, a step-0 read beside a moving
//! one) does not chain at that level. A nest beyond the translation
//! argument (a statement that is not [`Screen::Affine`], a gather) chains
//! at neither: one member per sweep, the plain walk.
//!
//! # Folding
//!
//! Every counter of the cache-less model is a sum over trips of a function
//! of the owner of the anchor's page and the owner of each read's page, so
//! it is the same on translates, and one of them can stand for all.
//! [`Schedule::folds`] cuts a nest into such classes: member 0 of each
//! chain stands for the chain's count, and under a periodic placement
//! stretches whose references start alike modulo their periods merge
//! wherever they lie (residue classes), a sweep of two or more inner blocks
//! standing as its first block and a tail. A consumer walks each [`Fold`]
//! once and multiplies by [`Fold::times`]. A nest beyond the argument gets
//! one fold per sweep with `times = 1` ([`Schedule::unfolded`]): there is
//! one walk, and folding only chooses which trip ranges it visits.
//!
//! # Skipping
//!
//! Paper §3 gives each PE "only its own subranges"; across sweeps that
//! means passing by the stretches a PE owns nothing of. The PEs that
//! execute a stretch are the owners of its anchors' pages, a circular run
//! of PE numbers ([`Placement::owners`], [`PeRange`]): exact for a
//! one-statement nest under `block`, every PE once a span covers a whole
//! deal, and every PE for a statement not screened affinely. A shifted chain's members have member
//! 0's owners, so one range covers the chain ([`Chain::pes`]) and each of
//! its sweeps has the range of its counterpart in member 0
//! ([`Chains::sweep_pes`], O(1)); an identity chain keeps one range per
//! sweep; a fold has its stretch's ([`Fold::pes`]). A walk tests the range
//! before it loads a sweep.
//!
//! It lives in this crate because this is the lowest one that sees both
//! `sa_ir::Program` and `sa_machine::Placement`.

use std::collections::HashMap;
use std::ops::Range;

use sa_ir::access::{loop_box, Access, Line, Sweep};
use sa_ir::analysis::{
    anchor_ref, linear_address_form, screen_nests, NestScreen, Screen, StaticArrays,
};
use sa_ir::interp::{resolve_ref_addr, Memory, PageMemo};
use sa_ir::nest::{ArrayRef, LoopNest, Stmt};
use sa_ir::{ArrayId, IrError, LinForm, Program, ReduceOp};
use sa_machine::partition::{gcd, lcm};
use sa_machine::{host_of, ConfigError, PartitionScheme, PeRange, Placement};

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
    /// The PEs that execute anything in it, and so in every stretch it
    /// stands for (module docs, § Skipping).
    pub pes: PeRange,
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
    /// Where its sweeps' PEs start in [`Chains`]' table.
    at: usize,
    /// The PEs that execute anything in its members (module docs,
    /// § Skipping); every PE for a chain of blocks.
    pub pes: PeRange,
}

/// The shift of an identity chain.
const UNMOVED: usize = usize::MAX;

impl Chain {
    /// An identity chain of no sweeps yet, its PEs from `at` on.
    fn plain(first: usize, at: usize, n_pes: usize) -> Chain {
        Chain {
            first,
            len: 1,
            count: 0,
            shift: UNMOVED,
            at,
            pes: PeRange::none(n_pes),
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
    /// The PEs of every sweep of an identity chain, and of every sweep of
    /// a shifted chain's member 0, chain by chain.
    pes: Vec<PeRange>,
    /// Number of PEs.
    n_pes: usize,
}

impl Chains {
    /// No chains yet, after the given shifts.
    fn new(shifts: Vec<Vec<i64>>, n_pes: usize) -> Chains {
        Chains {
            sweeps: Vec::new(),
            block: 0,
            shifts,
            pes: Vec::new(),
            n_pes,
        }
    }

    /// How many pages each array's references move from one member of
    /// `chain` to the next (0 for an array the nest does not reference);
    /// empty for an identity chain.
    #[inline]
    pub fn shift(&self, chain: &Chain) -> &[i64] {
        self.shifts.get(chain.shift).map_or(&[], Vec::as_slice)
    }

    /// The PEs that execute anything in sweep `sweep` of `chain` (module
    /// docs, § Skipping), in O(1): a shifted chain's members have member
    /// 0's owners.
    #[inline]
    pub fn sweep_pes(&self, chain: &Chain, sweep: usize) -> PeRange {
        let k = sweep - chain.first;
        let k = if chain.shift == UNMOVED {
            k
        } else {
            k % chain.len
        };
        self.pes[chain.at + k]
    }

    /// The chain of blocks a sweep of `trips` trips is walked in, from trip
    /// 0: two or more blocks when it holds them, else the whole sweep as
    /// one member. The trips past its last member, fewer than a block, are
    /// the sweep's tail.
    #[inline]
    pub fn blocks(&self, trips: usize) -> Chain {
        let l = self.block;
        let (len, count, shift) = if l > 0 && trips / 2 >= l {
            (l, trips / l, 0)
        } else {
            (trips, 1, UNMOVED)
        };
        Chain {
            first: 0,
            len,
            count,
            shift,
            at: 0,
            pes: PeRange::all(self.n_pes),
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
/// form, and the array's [`Placement::period`] if it has one.
struct Keyed {
    array: usize,
    form: LinForm,
    period: Option<u64>,
}

/// The fewest moves by `delta` after which every reference has moved by a
/// multiple of its `unit` (a page, or a period); `None` when a reference
/// has no unit, or on overflow.
fn fewest_moves(
    refs: &[Keyed],
    unit: impl Fn(&Keyed) -> Option<u64>,
    delta: impl Fn(&Keyed) -> i64,
) -> Option<u64> {
    refs.iter().try_fold(1u64, |l, r| {
        let unit = unit(r)?;
        lcm(l, unit / gcd(delta(r).unsigned_abs(), unit))
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
pub(crate) fn iteration(ivs: &mut Vec<i64>, sweep: &Sweep<'_>, depth: usize, t: usize) {
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
            return Ok(self.dealt(nest, stmt, g));
        };
        let addr = resolve_ref_addr(self.program, anchor, ivs, resolve)?;
        Ok(self.placements[anchor.array.0].owner_of_addr(addr))
    }

    /// [`Schedule::owner`] for an executor that resolved the anchor itself
    /// (a compiled statement body, `sa_ir::body`): the owner of the page
    /// holding the anchor's address, asked of the placement once per page
    /// run through the anchor's `memo` (`Placement::owner_at`), or, for a
    /// statement without an anchor (`None`), its turn in the deal.
    #[inline]
    pub fn owner_at(
        &self,
        nest: usize,
        stmt: usize,
        g: u64,
        anchor: Option<(usize, &mut PageMemo)>,
    ) -> usize {
        match (self.nests[nest].anchors[stmt], anchor) {
            (Some(a), Some((addr, memo))) => self.placements[a.array.0].owner_at(addr, memo),
            _ => self.dealt(nest, stmt, g),
        }
    }

    /// The PE the round-robin deal gives anchorless statement `stmt` at
    /// iteration `g` of nest `nest`.
    fn dealt(&self, nest: usize, stmt: usize, g: u64) -> usize {
        let ns = &self.nests[nest];
        let Screen::RoundRobin { slot } = ns.screen.screens[stmt] else {
            unreachable!("only anchorless statements are dealt round-robin");
        };
        ns.screen.deal(slot, g, self.n_pes)
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
            let vars = loop_box(&self.nests[n].nest.loops);
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
                        // The first sweep the anchor leaves its array on
                        // (or any, when it misses the rank), and on it the
                        // first offending trip, name the error.
                        let a = Access::lower(self.program, anchor, &vars, None);
                        let open = if a.proved() { 0 } else { ns.sweeps.len() };
                        let leaves = |&i: &usize| !a.fits || a.leaves(&ns.sweep(i)).is_some();
                        if let Some(i) = (0..open).find(leaves) {
                            let sw = ns.sweep(i);
                            for t in 0..sw.trips {
                                iteration(&mut ivs, &sw, depth, t);
                                resolve(&ivs)?;
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
                pes: self.sweep_pes(nest, sweep),
            })
            .collect()
    }

    /// Nest `nest` cut into classes of stretches that are translates of one
    /// another (module docs, § Folding), each represented by its first
    /// member in execution order. The references that must agree are every
    /// statement's anchor and, `with_reads`, every read. Expanding the
    /// folds covers every (sweep, trip) of the nest exactly once; a nest
    /// with a statement that is not [`Screen::Affine`] or a non-affine read
    /// comes back [`unfolded`](Schedule::unfolded).
    pub fn folds(&self, nest: usize, with_reads: bool) -> Vec<Fold> {
        match self.keyed_refs(nest, with_reads) {
            Some(refs) => self.fold_by(nest, &refs),
            None => self.unfolded(nest),
        }
    }

    /// Every reference [`Schedule::folds`] and [`Schedule::chains`] key
    /// on, or `None` when the nest is beyond the translation argument.
    fn keyed_refs(&self, nest: usize, with_reads: bool) -> Option<Vec<Keyed>> {
        let ns = &self.nests[nest];
        let nvars = ns.nest.loops.len();
        let mut refs = Vec::new();
        for (stmt, screen) in ns.nest.body.iter().zip(&ns.screen.screens) {
            let Screen::Affine { array, form } = screen else {
                return None;
            };
            refs.push(self.keyed(*array, form.clone()));
            for read in stmt.reads().into_iter().filter(|_| with_reads) {
                let form = linear_address_form(self.program, read, nvars)?;
                refs.push(self.keyed(read.array, form));
            }
        }
        Some(refs)
    }

    /// A reference to array `a` at `form`, as the translation argument
    /// keys on it.
    fn keyed(&self, a: ArrayId, form: LinForm) -> Keyed {
        Keyed {
            array: a.0,
            form,
            period: self.placements[a.0].period().map(|t| t as u64),
        }
    }

    /// [`Schedule::folds`] over the given references.
    fn fold_by(&self, nest: usize, refs: &[Keyed]) -> Vec<Fold> {
        let ns = &self.nests[nest];
        if ns.sweeps.is_empty() {
            return Vec::new();
        }
        // Member 0 of a chain stands for its count, an identity chain's
        // sweeps for themselves.
        let chains = self.cut(nest, refs, Vec::new());
        let reps = chains.sweeps.iter().flat_map(|c| {
            let (members, times) = match c.shift {
                UNMOVED => (c.count, 1),
                _ => (1, c.count as u64),
            };
            let chains = &chains;
            c.members(0, members)
                .map(move |sweep| (sweep, times, chains.sweep_pes(c, sweep)))
        });
        // Under periodic placements, stretches whose references start
        // alike modulo their periods are translates wherever they lie. A
        // sweep of two or more of the trips after which every reference
        // has moved by whole periods (`None`: more than any sweep has, or
        // no period) is its first such block, repeated, plus a tail. A
        // reference's increment per trip is the same on every sweep.
        let periodic = refs.iter().all(|r| r.period.is_some());
        let first = ns.sweep(0);
        let inner = fewest_moves(refs, |r| r.period, |r| r.form.line(&first).step);
        let mut folds: Vec<Fold> = Vec::new();
        let mut classes: HashMap<Vec<i64>, usize> = HashMap::new();
        let mut key: Vec<i64> = Vec::with_capacity(refs.len() + 1);
        for (sweep, times, whole) in reps {
            let (s, sw) = (&ns.sweeps[sweep], ns.sweep(sweep));
            let (head, blocks) = match inner {
                Some(l) if s.trips as u64 / 2 >= l => (l as usize, s.trips as u64 / l),
                _ => (s.trips, 1),
            };
            let tail = head * blocks as usize;
            for (t0, t1, times) in [(0, head, blocks * times), (tail, s.trips, times)] {
                if t0 == t1 {
                    continue;
                }
                if periodic {
                    // Equal length, equal start of every reference modulo
                    // its period: the stretches are translates.
                    key.clear();
                    key.push((t1 - t0) as i64);
                    for r in refs {
                        let period = r.period.map_or(1, |t| t as i64);
                        key.push(r.form.line(&sw).addr(t0 as i64).rem_euclid(period));
                    }
                    if let Some(&class) = classes.get(&key) {
                        folds[class].times += times;
                        continue;
                    }
                    classes.insert(key.clone(), folds.len());
                }
                let pes = if t1 - t0 == s.trips {
                    whole
                } else {
                    self.stretch_pes(nest, sweep, t0..t1)
                };
                folds.push(Fold {
                    sweep,
                    t0,
                    t1,
                    times,
                    pes,
                });
            }
        }
        folds
    }

    /// Nest `nest` as runs of consecutive translates (module docs,
    /// § Chains): runs of sweeps in execution order, and the blocks a sweep
    /// is cut into ([`Chains::blocks`]). The references that must move
    /// alike are every statement's anchor and every read; sweeps no run
    /// covers are identity chains of one sweep per member, and a nest
    /// beyond the translation argument is one such chain, with no blocks.
    /// The table holds one entry per run, never one per block.
    pub fn chains(&self, nest: usize) -> Chains {
        let ns = &self.nests[nest];
        let Some(refs) = self.keyed_refs(nest, true) else {
            let mut chains = Chains::new(Vec::new(), self.n_pes);
            self.push_plain(nest, &mut chains, 0..ns.sweeps.len());
            return chains;
        };
        // Blocks inside a sweep move by whole periods. A reference's
        // increment per trip is the same on every sweep.
        let mut block = None;
        if let Some(first) = (!ns.sweeps.is_empty()).then(|| ns.sweep(0)) {
            let longest = ns.sweeps.iter().map(|s| s.trips).max().unwrap_or(0);
            let step = |r: &Keyed| r.form.line(&first).step;
            block = fewest_moves(&refs, |r| r.period, step)
                .filter(|&l| l <= longest as u64 / 2)
                .and_then(|l| Some((l as usize, self.shift_after(&refs, step, l)?)));
        }
        let mut chains = self.cut(nest, &refs, block.iter().map(|b| b.1.clone()).collect());
        chains.block = block.map_or(0, |b| b.0);
        chains
    }

    /// Nest `nest` cut into runs of sweeps (module docs, § Chains) after
    /// the given shifts.
    fn cut(&self, nest: usize, refs: &[Keyed], shifts: Vec<Vec<i64>>) -> Chains {
        let ns = &self.nests[nest];
        let n = ns.sweeps.len();
        let mut chains = Chains::new(shifts, self.n_pes);
        let mut i = 0;
        while i < n {
            // Sweeps `i..j` step alike, so every reference moves alike from
            // each of them to the next.
            let start = i;
            let mut j = i + 1;
            while j < n && steps_alike(ns, i, j) {
                j += 1;
            }
            let (from, to) = (ns.sweep(i), ns.sweep((i + 1).min(j - 1)));
            let moved = |r: &Keyed| r.form.line(&to).base - r.form.line(&from).base;
            // A period is whole pages, and an array whose references move
            // apart moves apart after any number of moves.
            let page = |r: &Keyed| Some(self.placements[r.array].page_size as u64);
            let by_pages = fewest_moves(refs, page, moved)
                .and_then(|p| Some((p as usize, self.shift_after(refs, moved, p)?)));
            let by_periods = fewest_moves(refs, |r| r.period, moved)
                .filter(|&t| by_pages.is_some() && 2 * t <= (j - i) as u64)
                .and_then(|t| Some((t as usize, self.shift_after(refs, moved, t)?)));
            if let Some((len, shift)) = by_periods {
                // Whole periods: one chain to the run's end.
                let count = (j - i) / len;
                self.push_chain(nest, &mut chains, i, len, count, shift);
                i += count * len;
            }
            // Owner runs, from each sweep in turn.
            while let Some((p, shift)) = by_pages.as_ref().filter(|(p, _)| 2 * p <= j - i) {
                let runs = refs.iter().map(|r| {
                    self.hull(ns, r, i, *p).map_or(0, |(lo, hi)| {
                        self.placements[r.array].same_owner_run(lo, hi, shift[r.array])
                    })
                });
                let count = runs.min().unwrap_or(u64::MAX).saturating_add(1);
                match count.min(((j - i) / p) as u64) as usize {
                    count if count >= 2 => {
                        self.push_chain(nest, &mut chains, i, *p, count, shift.clone());
                        i += count * p;
                    }
                    _ => {
                        self.push_plain(nest, &mut chains, i..i + 1);
                        i += 1;
                    }
                }
            }
            // The rest stands for itself; sweep `j − 1` may begin the next
            // run.
            let next = (j - 1).max(i + usize::from(i == start));
            self.push_plain(nest, &mut chains, i..next);
            i = next.max(i);
        }
        chains
    }

    /// Push a chain of `count` members of `len` sweeps from sweep `first`,
    /// each the one before moved by `shift`, with its member 0's PEs.
    fn push_chain(
        &self,
        nest: usize,
        chains: &mut Chains,
        first: usize,
        len: usize,
        count: usize,
        shift: Vec<i64>,
    ) {
        let at = chains.pes.len();
        chains
            .pes
            .extend((first..first + len).map(|s| self.sweep_pes(nest, s)));
        let pes = chains.pes[at..]
            .iter()
            .fold(PeRange::none(self.n_pes), |a, &b| a.union(b));
        chains.sweeps.push(Chain {
            first,
            len,
            count,
            shift: chains.shifts.len(),
            at,
            pes,
        });
        chains.shifts.push(shift);
    }

    /// Push `sweeps`, each standing for itself, onto the identity chain
    /// they continue, or a new one.
    fn push_plain(&self, nest: usize, chains: &mut Chains, sweeps: Range<usize>) {
        if sweeps.is_empty() {
            return;
        }
        if !matches!(chains.sweeps.last(), Some(last) if last.shift == UNMOVED) {
            let plain = Chain::plain(sweeps.start, chains.pes.len(), self.n_pes);
            chains.sweeps.push(plain);
        }
        let last = chains.sweeps.last_mut().expect("an identity chain");
        for s in sweeps {
            let pes = self.sweep_pes(nest, s);
            last.pes = last.pes.union(pes);
            last.count += 1;
            chains.pes.push(pes);
        }
    }

    /// When every reference to an array moves by the same address distance
    /// `delta`, what each array has moved after `times` moves, in pages,
    /// indexed by array id; `None` when some array's references move apart.
    fn shift_after(
        &self,
        refs: &[Keyed],
        delta: impl Fn(&Keyed) -> i64,
        times: u64,
    ) -> Option<Vec<i64>> {
        let mut moves = vec![None; self.placements.len()];
        for r in refs {
            let d = delta(r);
            if *moves[r.array].get_or_insert(d) != d {
                return None;
            }
        }
        let pages = moves.iter().zip(&self.placements).map(|(d, p)| {
            let addrs = d.unwrap_or(0).checked_mul(i64::try_from(times).ok()?)?;
            debug_assert_eq!(addrs % p.page_size as i64, 0, "a move by whole pages");
            Some(addrs / p.page_size as i64)
        });
        pages.collect()
    }

    /// The pages `r` names over sweeps `i..i + len`, which step alike, as
    /// the smallest range holding them; `None` when it names a negative
    /// address.
    fn hull(
        &self,
        ns: &NestSchedule<'_>,
        r: &Keyed,
        i: usize,
        len: usize,
    ) -> Option<(usize, usize)> {
        let ps = self.placements[r.array].page_size as i64;
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        for s in [i, i + len - 1] {
            let (line, trips) = (r.form.line(&ns.sweep(s)), ns.sweeps[s].trips as i64);
            for t in [0, trips - 1] {
                lo = lo.min(line.addr(t));
                hi = hi.max(line.addr(t));
            }
        }
        (lo >= 0).then(|| ((lo / ps) as usize, (hi / ps) as usize))
    }

    /// The PEs that execute anything in sweep `sweep` of nest `nest`
    /// (module docs, § Skipping).
    fn sweep_pes(&self, nest: usize, sweep: usize) -> PeRange {
        self.stretch_pes(nest, sweep, 0..self.nests[nest].sweeps[sweep].trips)
    }

    /// The PEs that execute anything in trips `trips` of sweep `sweep` of
    /// nest `nest`: the owners of every affine anchor's pages, every PE
    /// once a statement is screened otherwise.
    fn stretch_pes(&self, nest: usize, sweep: usize, trips: Range<usize>) -> PeRange {
        let ns = &self.nests[nest];
        let all = PeRange::all(self.n_pes);
        let mut pes = PeRange::none(self.n_pes);
        for screen in &ns.screen.screens {
            let Screen::Affine { array, form } = screen else {
                return all;
            };
            let placement = &self.placements[array.0];
            let line = form.line(&ns.sweep(sweep));
            let ends = [trips.start, trips.end.max(trips.start + 1) - 1];
            let ends = ends.map(|t| line.addr(t as i64));
            let (lo, hi) = (ends[0].min(ends[1]), ends[0].max(ends[1]));
            if lo < 0 {
                return all;
            }
            let ps = placement.page_size as i64;
            pes = pes.union(placement.owners((lo / ps) as usize, (hi / ps) as usize));
        }
        pes
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
                    let anchor = self.keyed(*array, form.clone());
                    for fold in self.fold_by(nest, &[anchor]) {
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
