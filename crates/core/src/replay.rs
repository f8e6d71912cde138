//! Compiled access-pattern replay: the counting fast path.
//!
//! [`crate::exec::simulate`] re-interprets the IR statement by statement for
//! every iteration — expression trees are walked, addresses are resolved
//! through `Vec`-allocating index paths, and every element is read from a
//! value store — even though the paper's figures need only the *counts* of
//! each access class. For the common case of the Livermore suite (affine
//! anchors, affine or statically-indirect subscripts) the page-ownership
//! pattern of a whole loop nest is decidable once, so this module lowers
//! each [`Phase::Loop`] into a per-PE arithmetic page-access model:
//! classify once per nest, then count local/cached/remote reads, page
//! fetches, messages, hops and link loads with a tight per-page loop
//! instead of per-iteration interpretation.
//!
//! # Soundness
//!
//! The counts produced here are **bit-identical** to [`simulate`](crate::exec::simulate)'s
//! (`tests/replay_vs_interp.rs` proves it differentially for the full suite
//! across the figure grid, plus proptest-generated random affine nests):
//!
//! * **Static placement** — which PE executes a statement instance is
//!   decided before the run (`sa_lint::screening::Schedule`, the one
//!   owner-computes schedule every engine reads): no value ever influences
//!   *where* an access happens. A shard walks exactly the windows the
//!   schedule hands its PE.
//! * **Single assignment ⇒ order-independent counts** — a cached page can
//!   never be invalidated by a write, so each PE's cache state depends only
//!   on that PE's own access subsequence, whose relative order the global
//!   lexicographic order preserves. Replaying PE *p*'s subsequence alone
//!   (pages, not values) therefore reproduces *p*'s exact local / cached /
//!   remote classification, LRU/FIFO/Random evictions included.
//! * **Additive accounting** — network messages, hops and per-link loads
//!   are sums over fetch events, so a shard adds its fetches up per owner
//!   it fetched from, and the coordinator prices each (PE, owner) pair
//!   once, PE by PE, on one [`Network`]: exactly the totals of a
//!   sequential pass. The run keeps one fetch table per shard walking at
//!   once, and a shard's own memory follows the owners it fetched from,
//!   never the PE count (a table kept per shard is quadratic in it).
//! * **Translation invariance** — without a cache every counter is a sum
//!   over trips of a function of two things, the owner of the anchor's page
//!   and the owner of each read's page, and translating every reference of
//!   an all-affine nest by whole pages, every page keeping its owner,
//!   changes neither: inside one band of a `block`, `rowband` or `tile2d`
//!   placement (an owner run), or by whole periods under a periodic one
//!   (`Placement::same_owner_run`). Two such stretches of a nest yield the
//!   same per-PE tallies and the same (source, owner) fetch pairs, so a
//!   shard walks one stretch per class ([`Schedule::folds`]) and scales
//!   what it charges by the class size — exact for messages, hops and
//!   per-link loads because [`Network::record_fetches`] is linear in its
//!   count. It applies when the cache is off and every statement and read
//!   of a nest is affine; otherwise the same walk visits every sweep in
//!   turn ([`Schedule::unfolded`]).
//! * **Steady state under a cache** — a cache's state is the order, so
//!   classes cannot merge; but single assignment leaves a PE's cache
//!   nothing else to remember than its resident keys in stamp order and
//!   the Random picker's state (`PolicyCache::order_into`), and the
//!   replacement core is *equivariant*: renaming every key by a bijection φ
//!   that keeps the keys' sorted order (LRU and FIFO evict the minimum
//!   stamp; Random ranks the sorted key list) renames what the probes do
//!   and nothing more. [`Schedule::chains`] cuts a nest into runs of
//!   consecutive stretches, each the one before moved by one page shift
//!   per array — whole pages, same owners, so locality and page runs
//!   repeat and the next member's probe sequence is φ of this one's, where
//!   φ shifts the pages of every array *this member probed* and leaves
//!   every other key alone (an array the member does not probe keeps its
//!   old pages, which must still compare equal: moving them too, a nest
//!   whose reads are all local would never repeat itself). So if after
//!   member *k* the state is φ of the state before it, every later member
//!   hits, misses and fetches alike: a shard walks the next member once,
//!   every counter — hits included — scaled by the members left, and
//!   re-keys the cache by φ to the power still owed (`PolicyCache::rekey`,
//!   which keeps stamps). It applies where folding does, at each level
//!   (across sweeps, inside one) where every array's references move
//!   together; it is checked, never assumed, around members 1, 2, 4, 8, …
//!   of chains of eight or more. What never settles — Random with
//!   evictions (the picker moves on), a cache far larger than a chain's
//!   reach — and what does not chain — a transposed or pinned read beside
//!   a moving one (one array, two shifts), a gather, a sweep at a band's
//!   edge — is walked member by member, as before.
//! * **Skipping** — a PE that executes nothing in a stretch makes no
//!   access there, so its cache and tallies leave it as they entered.
//!   Every chain, sweep and fold names the PEs that execute anything in it
//!   ([`Chain::pes`](sa_lint::screening::Chain::pes)); a shard passes by
//!   what excludes it before loading a sweep — under `block`, most of the
//!   nest.
//!
//! # Walking a stretch
//!
//! A shard walks its PE's trips of a stretch window by window (the
//! schedule's `Windows`: runs of trips on which the set of statements the
//! PE executes is constant). An all-affine window is charged in bulk: each
//! read splits into page runs, local runs count closed-form, and a
//! non-local run is probed once, the rest of it counted as hits while every
//! page live beside it stays resident. That pays where runs span many
//! trips, and only there: a window of one or two trips has next to nothing
//! to merge, and neither has a window of a nest with a read that leaps a
//! page or more per trip — each of that read's runs is one trip, so off the
//! PE it cuts the window at every trip. K21 is both: its write and two of
//! its reads step 26 elements a trip, so at pages of 16 or fewer a cyclic
//! placement deals it windows of one trip, and a blocked one long windows
//! that its reads cut trip by trip. Such a window is charged instance by
//! instance, as a gather-bearing one is: each read one owner lookup and,
//! off the PE, one `PolicyCache::access`, every count scaled by the
//! stretches it stands for like the bulk path's, and the array stamped as
//! probed so that a chain's φ moves its pages.
//!
//! The per-PE shards are independent, so they are fanned out across host
//! cores via [`par_map`] — a single 64-PE K18 run saturates the machine
//! (the ROADMAP's intra-simulation sharding item). That costs no thread
//! start: `par_map` runs on one process-wide pool, so a search that counts
//! hundreds of candidates, each with its own fan-out, starts its threads
//! once, and the shards of one candidate share the cores with the other
//! kernels' searches instead of oversubscribing them.
//!
//! # Capped counting
//!
//! A search that only keeps an incumbent needs a candidate's counts only
//! while it can still win. [`counts_capped`] takes a remote-read cap: at
//! every stretch boundary (each entry to a stretch — a sweep, a fold or a
//! chain member) a shard adds the remote reads it charged since the last
//! one to a total all shards share, and once that total reaches the cap
//! every shard stops at its next boundary — a shard that has not started
//! returns at once. Remote reads only grow during a run and the shared
//! total never exceeds the run's, so the answer is
//! [`Capped::Exceeded`] exactly when the run's remote reads are at least
//! the cap, however the shards interleave; below it the run is counted
//! in full. An uncapped run ([`counts`]) never looks at the total.
//!
//! # Fallback
//!
//! Each nest's references are lowered once ([`NestAccess`]), and replay
//! counts only references it proves in bounds. Nests this model cannot
//! express fall back to the interpreter:
//!
//! * gathers through *dynamically produced* index arrays (the base array is
//!   written or re-initialized somewhere in the program);
//! * a reference replay cannot prove in bounds: a rank mismatch, a gather
//!   the loop box does not keep inside its index array's defined prefix
//!   and its dimension, an affine index leaving its extent on a sweep; and
//! * [`PartialPagePolicy::Refetch`] configurations, whose refetch counts
//!   depend on the cross-PE interleaving of writes and reads.
//!
//! [`counts`] reports these as [`ReplayError::Unsupported`]; the `auto`
//! rung of the counting ladder
//! ([`Engine::count_capped`](crate::oracle::Engine::count_capped)) transparently
//! falls back to [`simulate`](crate::exec::simulate), so a mixed program still measures
//! correctly — or fails with the interpreter's exact error. In debug
//! builds the auto rung additionally cross-checks replay against the
//! interpreter on small runs before trusting it.
//!
//! Beyond its bounds proofs replay assumes a *valid* program (one
//! [`simulate`](crate::exec::simulate) would accept): it performs no definedness or double-write
//! checking, exactly because those checks are what make interpretation
//! slow.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sa_ir::access::{Access, Dim, Line, NestAccess, Subscript};
use sa_ir::analysis::StaticArrays;
use sa_ir::program::Phase;
use sa_ir::{ArrayId, LinForm, Program};
use sa_lint::screening::{Chain, Chains, Fold, NestSchedule, Round, Schedule, Windows};
use sa_machine::host::run_reinit_protocol;
use sa_machine::{
    host_of, ConfigError, MachineConfig, Network, PageKey, PartialPagePolicy, PeCounters,
    PolicyCache, Stats,
};

use crate::exec::SimReport;
use crate::parallel::par_map;

/// Which engine produced a [`CountReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountEngine {
    /// The compiled per-PE access replay of this module.
    Replay,
    /// The statement-by-statement interpreter ([`simulate`](crate::exec::simulate)).
    Interp,
}

impl CountEngine {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            CountEngine::Replay => "replay",
            CountEngine::Interp => "interp",
        }
    }
}

/// Access statistics of one run — [`SimReport`] minus values and traces
/// (which counting does not need and replay does not produce).
#[derive(Debug, Clone, PartialEq)]
pub struct CountReport {
    /// Which engine measured this run.
    pub engine: CountEngine,
    /// Machine-wide access statistics.
    pub stats: Stats,
    /// `(nest label, stats for that nest alone)`.
    pub per_nest: Vec<(String, Stats)>,
    /// Total network messages (page fetches ×2 + host protocol + reductions).
    pub network_messages: u64,
    /// Total hop traversals.
    pub network_hops: u64,
    /// Heaviest directed-link traffic (contention bottleneck).
    pub max_link_load: u64,
}

impl CountReport {
    /// The paper's *% of Reads Remote* (0 when no reads occurred).
    pub fn remote_pct(&self) -> f64 {
        self.stats.remote_read_pct()
    }

    /// Strip a full simulation report down to its counts.
    pub fn from_sim(rep: &SimReport) -> CountReport {
        CountReport {
            engine: CountEngine::Interp,
            stats: rep.stats.clone(),
            per_nest: rep.per_nest.clone(),
            network_messages: rep.network_messages,
            network_hops: rep.network_hops,
            max_link_load: rep.max_link_load,
        }
    }
}

/// What a count under a remote-read cap found ([`counts_capped`],
/// [`Oracle::measure_capped`](crate::Oracle::measure_capped)).
#[derive(Debug, Clone, PartialEq)]
pub enum Capped<T> {
    /// The run was counted in full.
    Counted(T),
    /// The run charges at least as many remote reads as the cap, and was
    /// not counted in full.
    Exceeded,
}

impl<T> Capped<T> {
    /// The counts of an uncapped run.
    pub fn uncapped(self) -> T {
        match self {
            Capped::Counted(counts) => counts,
            Capped::Exceeded => unreachable!("an uncapped run is counted"),
        }
    }

    /// The counts of a counted run mapped by `f`.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Capped<U> {
        match self {
            Capped::Counted(counts) => Capped::Counted(f(counts)),
            Capped::Exceeded => Capped::Exceeded,
        }
    }
}

/// Why a program could not be lowered to the replay model.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The machine configuration itself is invalid.
    Config(ConfigError),
    /// Some nest (or config knob) needs the interpreter.
    Unsupported {
        /// Label of the offending nest (`"<config>"` for config knobs).
        nest: String,
        /// Human-readable reason.
        reason: String,
    },
}

impl core::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ReplayError::Config(e) => write!(f, "bad machine config: {e}"),
            ReplayError::Unsupported { nest, reason } => {
                write!(f, "replay cannot lower `{nest}`: {reason}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

// ---------------------------------------------------------------------------
// Compiled form
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct CStmt {
    /// RHS reads in evaluation order: positions in [`CNest::access`].
    reads: Range<usize>,
    /// Index arrays an indirect *assign target* loads from, charged after
    /// the RHS.
    scatter_loads: Vec<usize>,
    /// Assigns perform one write per instance.
    writes: bool,
    /// Any gather among the reads — disables the bulk per-page-run path.
    has_gather: bool,
    /// Where the statement's address forms start in [`CNest::forms`]: per
    /// read one (affine) or one per dimension (gather), then one per index
    /// array its assign target scatters through (the position), charged
    /// after the reads.
    first_form: usize,
}

/// The stretches a shard walks, and what each stands for.
#[derive(Debug)]
enum Walk {
    /// No cache: one stretch per translation class, scaled by its size.
    Folds(Vec<Fold>),
    /// A cache: every stretch in order, until a chain's members repeat the
    /// cache's state.
    Chains(Chains),
}

#[derive(Debug)]
struct CNest {
    /// The nest's references, lowered once.
    access: NestAccess,
    body: Vec<CStmt>,
    /// Every address form of the body, statement by statement in charging
    /// order — one flat list, so a sweep's lines are one reused buffer.
    forms: Vec<LinForm>,
    walk: Walk,
    /// The reduction rounds after the nest, with their participants.
    rounds: Vec<Round>,
}

#[derive(Debug)]
struct Compiled<'p> {
    /// Whether the PEs cache remote pages.
    cached: bool,
    /// The access model of each nest, aligned with the schedule's nests.
    nests: Vec<CNest>,
    /// Who executes what: placements, per-PE segments and windows,
    /// reduction participants — the single owner authority of the replay.
    schedule: Schedule<'p>,
    /// What a gather reads: the constant cells of its index array.
    statics: &'p StaticArrays<'p>,
}

fn compile<'p>(
    program: &'p Program,
    statics: &'p StaticArrays<'p>,
    cfg: &MachineConfig,
) -> Result<Compiled<'p>, ReplayError> {
    let mut schedule = Schedule::new(program, statics, cfg.partition, cfg.page_size, cfg.n_pes)
        .map_err(ReplayError::Config)?;
    if cfg.partial_pages == PartialPagePolicy::Refetch {
        return Err(ReplayError::Unsupported {
            nest: "<config>".into(),
            reason: "partial-page refetch counts depend on cross-PE write/read interleaving".into(),
        });
    }

    let mut nests = Vec::new();
    for ns in schedule.nests() {
        let access = NestAccess::lower(program, ns.nest, Some(statics));
        let mut forms = Vec::new();
        let mut body = Vec::with_capacity(access.stmts.len());
        // A statement whose anchor has no static owner (`Screen::Produced`)
        // gathers through a produced index array or misses its array's
        // rank: its anchor is declined here.
        for at in &access.stmts {
            let mut refs = at.reads.clone().chain(at.target).map(|k| &access.refs[k]);
            if let Some(reason) = refs.find_map(|a| unproved(program, statics, ns, a)) {
                let nest = ns.nest.label.clone();
                return Err(ReplayError::Unsupported { nest, reason });
            }
            let first_form = forms.len();
            let reads = &access.refs[at.reads.clone()];
            for a in reads {
                let dims = a.dims.iter().map(|d| d.subscript.form().clone());
                forms.extend(a.form.clone().map_or_else(|| dims.collect(), |f| vec![f]));
            }
            // A scatter's index loads, after the reads.
            let mut scatter_loads = Vec::new();
            for dim in at.target.iter().flat_map(|&k| &access.refs[k].dims) {
                if let Some(base) = dim.subscript.base() {
                    scatter_loads.push(base.0);
                    forms.push(dim.subscript.form().clone());
                }
            }
            body.push(CStmt {
                reads: at.reads.clone(),
                scatter_loads,
                writes: at.target.is_some(),
                has_gather: reads.iter().any(|a| a.form.is_none()),
                first_form,
            });
        }
        nests.push(CNest {
            access,
            body,
            forms,
            walk: Walk::Folds(Vec::new()),
            rounds: Vec::new(),
        });
    }
    // Replay assumes a valid program; one whose anchors leave their arrays
    // goes to the interpreter, which reports it.
    schedule
        .tabulate(statics)
        .map_err(|e| ReplayError::Unsupported {
            nest: schedule.nest(e.nest).nest.label.clone(),
            reason: e.error.to_string(),
        })?;
    let cached = cfg.cache_enabled();
    for (n, cn) in nests.iter_mut().enumerate() {
        // Without a cache every counter is order-free, and one stretch of
        // each translation class stands for the rest. A cache's state is
        // what order means: a cached run walks the stretches in turn, and
        // only a run of consecutive translates can stop early.
        cn.walk = if cached {
            Walk::Chains(schedule.chains(n))
        } else {
            Walk::Folds(schedule.folds(n, true))
        };
        cn.rounds = schedule.rounds(n);
    }

    Ok(Compiled {
        cached,
        nests,
        schedule,
        statics,
    })
}

/// Why replay cannot count `access`, a reference of the nest `ns`, or
/// `None` when every index of it is proved in bounds: by the loop box, or
/// at both end trips of every sweep.
fn unproved(
    program: &Program,
    statics: &StaticArrays<'_>,
    ns: &NestSchedule<'_>,
    access: &Access,
) -> Option<String> {
    let name = |a: ArrayId| &program.array(a).name;
    if !access.fits {
        let array = name(access.array);
        return Some(format!("a reference to `{array}` does not match its rank"));
    }
    let open = |d: &Dim| d.subscript.base().filter(|_| !d.proved);
    if let Some(base) = access.dims.iter().find_map(open) {
        let base_name = name(base);
        return Some(match statics.get(base) {
            None => format!("gather through dynamically produced index array `{base_name}`"),
            Some(_) => format!(
                "gather through `{base_name}` not proved inside its defined prefix and its dimension"
            ),
        });
    }
    let sweeps = if access.proved() { 0 } else { ns.sweeps.len() };
    let (dim, index) = (0..sweeps).find_map(|i| access.leaves(&ns.sweep(i)))?;
    let array = name(access.array);
    Some(format!("index {index} leaves dimension {dim} of `{array}`"))
}

// ---------------------------------------------------------------------------
// Per-PE execution
// ---------------------------------------------------------------------------

/// Per-nest, per-PE access tallies.
#[derive(Debug, Clone, Copy, Default)]
struct NestTally {
    writes: u64,
    local: u64,
    cached: u64,
    remote: u64,
    page_fetches: u64,
    reduction_messages: u64,
}

/// One PE's contribution to the run.
#[derive(Debug)]
struct Shard {
    nest_tallies: Vec<NestTally>,
    /// Page fetches per owner fetched from, owners ascending.
    fetches: Vec<(usize, u64)>,
    /// The hosts this PE shipped reduction partials to, in order.
    partials: Vec<usize>,
}

/// Page fetches a shard charged, per owner: a table over every PE that
/// the shard borrows from its run's pool and hands back zeroed, and the
/// owners it holds counts for. The run keeps one table per shard walking
/// at once, never one per PE, and a shard's own cost follows the owners it
/// fetched from.
#[derive(Debug)]
struct Fetches {
    per_owner: Vec<u64>,
    owners: Vec<usize>,
}

impl Fetches {
    #[inline]
    fn add(&mut self, owner: usize, count: u64) {
        let slot = &mut self.per_owner[owner];
        if *slot == 0 {
            return self.first(owner, count);
        }
        *slot += count;
    }

    /// [`Fetches::add`] for an owner not fetched from yet: out of line,
    /// so the hot path stays one compare and one add.
    #[cold]
    #[inline(never)]
    fn first(&mut self, owner: usize, count: u64) {
        self.owners.push(owner);
        self.per_owner[owner] = count;
    }

    /// The owners fetched from, ascending, with their counts, and the
    /// table, zeroed.
    fn into_sorted(mut self) -> (Vec<(usize, u64)>, Vec<u64>) {
        self.owners.sort_unstable();
        self.owners.dedup();
        let counts = self
            .owners
            .iter()
            .map(|&owner| (owner, std::mem::take(&mut self.per_owner[owner])))
            .filter(|&(_, count)| count > 0)
            .collect();
        (counts, self.per_owner)
    }
}

/// A capped run's remote-read cap and what its shards have charged of it.
#[derive(Debug)]
struct Cap {
    limit: u64,
    charged: AtomicU64,
}

/// One non-local page run of one affine read: iterations `[t0, t1)` all
/// touch `page` of `array`, owned by `owner`.
#[derive(Debug, Clone, Copy)]
struct ProbeRun {
    t0: usize,
    t1: usize,
    array: usize,
    page: usize,
    owner: usize,
}

/// The fewest members a chain needs before its steady state is looked for.
const MIN_CHECKED: usize = 8;

/// A PE's cache state before a chain member: its resident keys in stamp
/// order and the Random picker's state, then what φ is.
#[derive(Debug, Default)]
struct Snapshot {
    keys: Vec<PageKey>,
    picker: u64,
    /// [`Worker::epoch`] when it was taken.
    epoch: u64,
    /// Per array, the pages φ shifts its keys by.
    phi: Vec<i64>,
}

struct Worker<'a> {
    cp: &'a Compiled<'a>,
    pe: usize,
    n_pes: usize,
    ps: usize,
    cache_on: bool,
    lru: bool,
    /// The machine's replacement core with nothing to carry per page:
    /// offsets are irrelevant under `Ignore` partial-page semantics (the
    /// only policy replay supports), so residency is all a probe asks.
    cache: PolicyCache<()>,
    /// Page fetches charged so far, per owner: the coordinator prices each
    /// owner's once (pricing is linear in the count).
    fetches: Fetches,
    partials: Vec<usize>,
    gens: Vec<u32>,
    cur: NestTally,
    /// The run's cap, `None` when uncapped; the remote reads of the nests
    /// already replayed, and how many of them and `cur`'s the shard has
    /// added to the cap's total.
    cap: Option<&'a Cap>,
    remote_done: u64,
    published: u64,
    stopped: bool,
    /// How many stretches of the nest the one being replayed stands for
    /// ([`Fold::times`], or the members a chain has left once it repeats
    /// itself): everything charged is scaled by it, in bulk or instance by
    /// instance. Always 1 in a nest that gathers.
    times: u64,
    /// Counts the cache snapshots taken; `probed_at[a]` is its value at the
    /// last probe of a page of array `a`.
    epoch: u64,
    probed_at: Vec<u64>,
    /// Snapshots not in use, and the state compared against one.
    snapshots: Vec<Snapshot>,
    now: Vec<PageKey>,
    /// This PE's owned windows of the stretch being replayed.
    windows: Windows,
    /// The nest's address forms ([`CNest::forms`]) along the sweep being
    /// replayed.
    lines: Vec<Line>,
    // Scratch buffers reused across the (very many) bulk windows.
    scratch_probes: Vec<ProbeRun>,
    scratch_cuts: Vec<usize>,
    scratch_cursors: Vec<(usize, usize)>,
    scratch_runs: Vec<ProbeRun>,
}

impl<'a> Worker<'a> {
    /// A worker for `pe`, tallying fetches in `table` (zeroed, one entry
    /// per PE).
    fn new(
        cp: &'a Compiled<'a>,
        cfg: &MachineConfig,
        pe: usize,
        cap: Option<&'a Cap>,
        table: Vec<u64>,
    ) -> Self {
        Worker {
            cp,
            pe,
            n_pes: cfg.n_pes,
            ps: cfg.page_size,
            cache_on: cp.cached,
            lru: cfg.cache_policy == sa_machine::CachePolicy::Lru,
            cache: PolicyCache::new(cfg.cache_pages(), cfg.cache_policy),
            fetches: Fetches {
                per_owner: table,
                owners: Vec::new(),
            },
            partials: Vec::new(),
            gens: vec![0; cp.schedule.placements().len()],
            cur: NestTally::default(),
            cap,
            remote_done: 0,
            published: 0,
            stopped: false,
            times: 1,
            epoch: 0,
            probed_at: vec![0; cp.schedule.placements().len()],
            snapshots: Vec::new(),
            now: Vec::new(),
            windows: Windows::default(),
            lines: Vec::new(),
            scratch_probes: Vec::new(),
            scratch_cuts: Vec::new(),
            scratch_cursors: Vec::new(),
            scratch_runs: Vec::new(),
        }
    }

    /// Replay the PE's part of the run; its shard, and the fetch table
    /// handed back zeroed.
    fn run(mut self) -> (Shard, Vec<u64>) {
        let cp = self.cp;
        let mut nest_tallies = Vec::with_capacity(cp.nests.len());
        for phase in &cp.schedule.program().phases {
            if self.over_cap() {
                break;
            }
            match phase {
                Phase::Reinit(a) => {
                    self.gens[a.0] += 1;
                    self.cache.invalidate_array(a.0);
                }
                Phase::Loop(_) => {
                    self.replay_nest(nest_tallies.len());
                    let tally = std::mem::take(&mut self.cur);
                    self.remote_done += tally.remote;
                    nest_tallies.push(tally);
                }
            }
        }
        // What the shard charged last counts towards the cap too: the
        // shards still walking may stop sooner.
        self.over_cap();
        let (fetches, table) = self.fetches.into_sorted();
        let shard = Shard {
            nest_tallies,
            fetches,
            partials: self.partials,
        };
        (shard, table)
    }

    /// Add the remote reads charged since the last boundary to the cap's
    /// shared total, and whether that total has reached the cap (module
    /// docs, § Capped counting) — once it has, the shard stops.
    fn over_cap(&mut self) -> bool {
        let Some(cap) = self.cap else {
            return false;
        };
        if !self.stopped {
            let mine = self.remote_done + self.cur.remote;
            let delta = mine - self.published;
            self.published = mine;
            let total = match delta {
                0 => cap.charged.load(Ordering::Relaxed),
                _ => cap.charged.fetch_add(delta, Ordering::Relaxed) + delta,
            };
            self.stopped = total >= cap.limit;
        }
        self.stopped
    }

    /// Charge one element read exactly as `DistributedMachine::read` would,
    /// once for every stretch the one being replayed stands for.
    fn charge_read(&mut self, array: usize, addr: i64) {
        debug_assert!(addr >= 0, "negative address in replay (invalid program)");
        let page = addr as usize / self.ps;
        let owner = self.cp.schedule.placements()[array].page_owner(page);
        if owner == self.pe {
            self.cur.local += self.times;
            return;
        }
        // A chain's φ moves the pages of every array probed since its
        // snapshot (`Worker::repeats`).
        self.probed_at[array] = self.epoch;
        self.charge_remote(array, page, owner);
    }

    /// One non-local access of `page` of `array`, which `owner` holds: a
    /// hit if the cache holds the page, else a fetch that caches it.
    fn charge_remote(&mut self, array: usize, page: usize, owner: usize) {
        if self.cache_on {
            let key = PageKey {
                array,
                page,
                generation: self.gens[array],
            };
            if self.cache.access(key, ()) {
                self.cur.cached += self.times;
                return;
            }
        }
        self.charge_fetches(owner, 1);
    }

    /// Charge `count` remote reads of a page `owner` holds, each a fetch.
    fn charge_fetches(&mut self, owner: usize, count: u64) {
        let count = count * self.times;
        self.fetches.add(owner, count);
        self.cur.remote += count;
        self.cur.page_fetches += count;
    }

    /// Charge every access of statement `si` of `cn` at inner iteration
    /// `t`; `lines` are the statement's own, in charging order. This is the
    /// path of short, page-leaping and gather-bearing windows, and a nest
    /// with a gather never folds or chains.
    fn charge_stmt(&mut self, cn: &CNest, si: usize, lines: &[Line], t: i64) {
        debug_assert!(
            self.times == 1 || !cn.body[si].has_gather,
            "gathers are charged one by one"
        );
        let stmt = &cn.body[si];
        let mut lines = lines.iter();
        let mut next = || lines.next().expect("one line per form").addr(t);
        for read in &cn.access.refs[stmt.reads.clone()] {
            if read.form.is_some() {
                self.charge_read(read.array.0, next());
                continue;
            }
            // Index loads charge in dimension order, then the element —
            // exactly a compiled body's (`sa_ir::body`).
            let mut addr = 0i64;
            for dim in &read.dims {
                let index = match dim.subscript {
                    Subscript::Affine(_) => next(),
                    Subscript::Gather {
                        base,
                        scale,
                        offset,
                        ..
                    } => {
                        let pos = next();
                        self.charge_read(base.0, pos);
                        let values = self
                            .cp
                            .statics
                            .get(base)
                            .expect("a proved gather is static");
                        scale * (values[pos as usize] as i64) + offset
                    }
                };
                addr += dim.stride * index;
            }
            self.charge_read(read.array.0, addr);
        }
        for &base in &stmt.scatter_loads {
            self.charge_read(base, next());
        }
        if stmt.writes {
            self.cur.writes += self.times;
        }
    }

    fn replay_nest(&mut self, nest: usize) {
        let cp = self.cp;
        let cn = &cp.nests[nest];
        match &cn.walk {
            Walk::Folds(folds) => {
                // A PE a stretch excludes executes none of it, nor of the
                // stretches it stands for.
                let pe = self.pe;
                for fold in folds.iter().filter(|f| f.pes.contains(pe)) {
                    self.times = fold.times;
                    self.stretch(cn, nest, fold.sweep, fold.trips());
                }
                self.times = 1;
            }
            Walk::Chains(chains) => {
                let sweeps = &cp.schedule.nest(nest).sweeps;
                // A chain, or a sweep of it, that excludes the PE leaves
                // its cache and its tallies as they were.
                let pe = self.pe;
                for chain in chains.sweeps.iter().filter(|c| c.pes.contains(pe)) {
                    let end = chain.members(0, chain.count).end;
                    self.steady(chain, chains.shift(chain), end, |w, run| {
                        for sweep in run {
                            if !chains.sweep_pes(chain, sweep).contains(pe) {
                                continue;
                            }
                            let trips = sweeps[sweep].trips;
                            let blocks = chains.blocks(trips);
                            w.steady(&blocks, chains.shift(&blocks), trips, |w, run| {
                                w.stretch(cn, nest, sweep, run)
                            });
                        }
                    });
                }
            }
        }
        // Vector→scalar collection: ship this PE's partials to each
        // scalar's host (paper §9), exactly like `machine.send_partial`.
        for round in &cn.rounds {
            if round.ships_from(self.pe) {
                self.partials.push(host_of(round.scalar, self.n_pes));
                self.cur.reduction_messages += 1;
            }
        }
    }

    /// Walk the members of `chain`, then its units up to `end` (a sweep's
    /// tail), in runs handed to `walk`, until a member leaves the cache as
    /// the one before it left it, moved by φ (module docs, § Soundness):
    /// then walk the next member once for every member left, move the
    /// cache to where they would have left it, and walk on from the last.
    /// `shift` is each array's page shift per member, empty for an identity
    /// chain. Only members 1, 2, 4, 8, … are checked — walked alone,
    /// between a snapshot and a comparison — so a chain that never repeats
    /// costs a logarithmic number of snapshots, and the rest is walked in
    /// as few runs.
    #[inline]
    fn steady(
        &mut self,
        chain: &Chain,
        shift: &[i64],
        end: usize,
        mut walk: impl FnMut(&mut Self, Range<usize>),
    ) {
        // An identity chain's members are not translates. A check costs
        // two snapshots and a cut in the walk: it pays on a chain of
        // several members only.
        let m = if !shift.is_empty() && chain.count >= MIN_CHECKED {
            self.settle(chain, shift, &mut walk)
        } else {
            0
        };
        let rest = chain.members(m, m).start..end;
        if !rest.is_empty() {
            walk(self, rest);
        }
    }

    /// [`Worker::steady`]'s checks: walk `chain` until it repeats itself
    /// or too few members are left to check, and return the first member
    /// not yet walked (`chain.count` once the rest are accounted for).
    /// Out of line so that `steady`, called once per sweep of every cached
    /// nest and almost always on an identity or short chain, stays a test
    /// and a call: inlined whole, it cost a search over the registry a few
    /// per cent.
    #[inline(never)]
    fn settle(
        &mut self,
        chain: &Chain,
        shift: &[i64],
        walk: &mut impl FnMut(&mut Self, Range<usize>),
    ) -> usize {
        let mut m = 0;
        let mut check = 1;
        // A check pays only if two or more members follow it.
        while check + 3 <= chain.count {
            if m < check {
                walk(self, chain.members(m, check));
            }
            let mut snap = self.snapshots.pop().unwrap_or_default();
            self.epoch += 1;
            snap.epoch = self.epoch;
            snap.picker = self.cache.order_into(&mut snap.keys);
            walk(self, chain.members(check, check + 1));
            m = check + 1;
            if self.repeats(&mut snap, shift) {
                let left = chain.count - m;
                let times = self.times;
                self.times *= left as u64;
                walk(self, chain.members(m, m + 1));
                self.times = times;
                let (phi, k) = (&snap.phi, left as i64 - 1);
                self.cache.rekey(|key| PageKey {
                    page: (key.page as i64 + k * phi[key.array]) as usize,
                    ..key
                });
                m = chain.count;
            }
            self.snapshots.push(snap);
            if m == chain.count {
                break;
            }
            check *= 2;
        }
        m
    }

    /// Whether the cache now holds `snap`'s state moved by φ, which shifts
    /// the pages of every array probed since the snapshot by `shift` and
    /// leaves every other key where it is; φ is left in `snap.phi`.
    fn repeats(&mut self, snap: &mut Snapshot, shift: &[i64]) -> bool {
        let mut now = std::mem::take(&mut self.now);
        let picker = self.cache.order_into(&mut now);
        snap.phi.clear();
        let probed = self.probed_at.iter().map(|&at| at >= snap.epoch);
        let phi = shift
            .iter()
            .zip(probed)
            .map(|(&s, p)| if p { s } else { 0 });
        snap.phi.extend(phi);
        let moved = |k: &PageKey| k.page as i64 + snap.phi[k.array];
        let same = picker == snap.picker
            && now.len() == snap.keys.len()
            && now.iter().zip(&snap.keys).all(|(k1, k0)| {
                (k1.array, k1.generation) == (k0.array, k0.generation)
                    && k1.page as i64 == moved(k0)
            });
        self.now = now;
        same
    }

    /// Replay this PE's share of trips `trips` of sweep `sweep`, for every
    /// stretch it stands for ([`Worker::times`]).
    fn stretch(&mut self, cn: &'a CNest, nest: usize, sweep: usize, trips: Range<usize>) {
        if self.over_cap() {
            return;
        }
        let sw = self.cp.schedule.nest(nest).sweep(sweep);
        let mut lines = std::mem::take(&mut self.lines);
        lines.clear();
        lines.extend(cn.forms.iter().map(|f| f.line(&sw)));

        // Iterations interleave statements in body order, so the schedule
        // hands the PE's trips window by window. Windows whose active
        // statements are all-affine take the bulk per-page-run path;
        // gather-bearing windows, and windows whose page runs can merge
        // next to nothing, are charged instance by instance (module docs,
        // § Walking a stretch).
        let leaps = lines
            .iter()
            .any(|l| l.step.unsigned_abs() >= self.ps as u64);
        let mut win = std::mem::take(&mut self.windows);
        let schedule = &self.cp.schedule;
        schedule.load_sweep(self.pe, nest, sweep, trips, &mut win);
        while let Some((w0, w1)) = win.advance() {
            let active = win.active();
            if leaps || w1 - w0 <= 2 || active.iter().any(|&si| cn.body[si].has_gather) {
                for t in w0..w1 {
                    for &si in active {
                        let first = cn.body[si].first_form;
                        self.charge_stmt(cn, si, &lines[first..], t as i64);
                    }
                }
            } else {
                self.bulk_window(cn, &lines, active, w0, w1);
            }
        }
        self.windows = win;
        self.lines = lines;
    }

    /// Charge an all-affine window in bulk: writes and local reads count
    /// closed-form per page run; only non-local runs need cache probes,
    /// and those probe once per (page, residency) instead of per access.
    fn bulk_window(&mut self, cn: &CNest, lines: &[Line], active: &[usize], w0: usize, w1: usize) {
        let len = (w1 - w0) as u64;
        // Non-local page runs, in (statement, read) generation order —
        // the exact order per-instance probes would interleave in.
        let mut probes = std::mem::take(&mut self.scratch_probes);
        probes.clear();
        for &si in active {
            let stmt = &cn.body[si];
            if stmt.writes {
                self.cur.writes += len * self.times;
            }
            // Bulk windows are all-affine: one form per read.
            let reads = cn.access.refs[stmt.reads.clone()].iter();
            let arrays = reads
                .map(|read| read.array.0)
                .chain(stmt.scatter_loads.iter().copied());
            for (array, &line) in arrays.zip(&lines[stmt.first_form..]) {
                self.collect_probe_runs(array, line, w0, w1, &mut probes);
            }
        }
        if !probes.is_empty() {
            self.walk_probe_runs(&probes);
        }
        self.scratch_probes = probes;
    }

    /// Split one affine read over `[w0, w1)` into page runs: runs owned by
    /// this PE count as local reads closed-form; non-local runs are pushed
    /// for cache probing.
    fn collect_probe_runs(
        &mut self,
        array: usize,
        line: Line,
        w0: usize,
        w1: usize,
        out: &mut Vec<ProbeRun>,
    ) {
        let ps = self.ps as i64;
        let pushed = out.len();
        let mut t = w0;
        while t < w1 {
            let page = (line.addr(t as i64) / ps) as usize;
            // Largest run of iterations staying on `page` (the whole window
            // for a line that does not move).
            let end = (line.run_end(t as i64, ps) as usize).min(w1);
            let owner = self.cp.schedule.placements()[array].page_owner(page);
            if owner == self.pe {
                self.cur.local += (end - t) as u64 * self.times;
            } else {
                out.push(ProbeRun {
                    t0: t,
                    t1: end,
                    array,
                    page,
                    owner,
                });
            }
            t = end;
        }
        if out.len() > pushed {
            // Every non-local run is probed (a gather's pages are probed
            // elsewhere, but a nest that gathers never chains).
            self.probed_at[array] = self.epoch;
        }
    }

    /// Probe the collected non-local runs with the per-access cache
    /// semantics of `DistributedMachine::read`, bulk-counting the spans
    /// where the outcome is provably constant:
    ///
    /// * no cache — every access is a remote fetch, linear in the span;
    /// * cache on and every active page resident after the first
    ///   iteration — evictions happen only on inserts and inserts only on
    ///   misses, so the remaining iterations all hit (LRU recency is
    ///   refreshed once, in probe order, preserving relative stamp order);
    /// * otherwise (more concurrent pages than capacity — the thrashing
    ///   regime) — fall back to per-access probing.
    fn walk_probe_runs(&mut self, probes: &[ProbeRun]) {
        // Fast path: one run, or several runs covering the same span (the
        // typical stencil boundary) — no window bookkeeping needed.
        if probes
            .iter()
            .all(|p| p.t0 == probes[0].t0 && p.t1 == probes[0].t1)
        {
            self.probe_span(probes, (probes[0].t1 - probes[0].t0) as u64);
            return;
        }
        let mut cuts = std::mem::take(&mut self.scratch_cuts);
        cuts.clear();
        for p in probes {
            cuts.push(p.t0);
            cuts.push(p.t1);
        }
        cuts.sort_unstable();
        cuts.dedup();
        // A read's runs are ascending and disjoint, so each ascending
        // stretch of the list has at most one run live at a time, and the
        // stretches' live runs in list order are the generation order (=
        // the per-instance interleave order). One cursor per stretch,
        // `(next run, end of stretch)`, only ever moves forward.
        let mut cursors = std::mem::take(&mut self.scratch_cursors);
        cursors.clear();
        for (i, p) in probes.iter().enumerate() {
            match cursors.last_mut() {
                Some(c) if probes[i - 1].t1 <= p.t0 => c.1 = i + 1,
                _ => cursors.push((i, i + 1)),
            }
        }
        // Reuses the run scratch buffer: this loop is inside the hottest
        // counting path.
        let mut runs = std::mem::take(&mut self.scratch_runs);
        for w in cuts.windows(2) {
            let (v0, v1) = (w[0], w[1]);
            runs.clear();
            for (next, end) in &mut cursors {
                while *next < *end && probes[*next].t1 <= v0 {
                    *next += 1;
                }
                if *next < *end && probes[*next].t0 <= v0 {
                    runs.push(probes[*next]);
                }
            }
            if !runs.is_empty() {
                self.probe_span(&runs, (v1 - v0) as u64);
            }
        }
        self.scratch_runs = runs;
        self.scratch_cursors = cursors;
        self.scratch_cuts = cuts;
    }

    /// Probe a set of concurrently-live runs over a span of `len`
    /// iterations: the first iteration probes for real, the remainder is
    /// bulk-counted where the outcome is provably constant.
    fn probe_span(&mut self, runs: &[ProbeRun], len: u64) {
        if !self.cache_on {
            // Every access is a remote fetch.
            for p in runs {
                self.charge_fetches(p.owner, len);
            }
            return;
        }
        // First iteration: real probes, in order.
        for p in runs {
            self.charge_remote(p.array, p.page, p.owner);
        }
        let rest = len - 1;
        if rest == 0 {
            return;
        }
        if runs.iter().all(|p| self.cache.contains(&self.key_of(p))) {
            self.cur.cached += runs.len() as u64 * rest * self.times;
            if self.lru {
                // Refresh recency once per page, in probe order: the
                // relative stamp order equals the per-access outcome.
                for p in runs {
                    let key = self.key_of(p);
                    self.cache.access(key, ());
                }
            }
        } else {
            for _ in 0..rest {
                for p in runs {
                    self.charge_remote(p.array, p.page, p.owner);
                }
            }
        }
    }

    fn key_of(&self, p: &ProbeRun) -> PageKey {
        PageKey {
            array: p.array,
            page: p.page,
            generation: self.gens[p.array],
        }
    }
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// Count a program's accesses via the compiled replay, sharding the per-PE
/// work across host cores. Returns [`ReplayError::Unsupported`] when any
/// nest (or config knob) needs the interpreter — use
/// [`Engine::Auto`](crate::oracle::Engine::Auto) for transparent fallback.
pub fn counts(program: &Program, cfg: &MachineConfig) -> Result<CountReport, ReplayError> {
    counts_capped(program, cfg, u64::MAX).map(Capped::uncapped)
}

/// [`counts`], stopping once the run has charged `remote_cap` remote reads
/// (module docs, § Capped counting): [`Capped::Exceeded`] exactly when
/// the run's remote reads are at least `remote_cap`, else every count.
/// `u64::MAX` is no cap.
pub fn counts_capped(
    program: &Program,
    cfg: &MachineConfig,
    remote_cap: u64,
) -> Result<Capped<CountReport>, ReplayError> {
    let statics = StaticArrays::scan(program);
    let cp = compile(program, &statics, cfg)?;
    let cap = Cap {
        limit: remote_cap,
        charged: AtomicU64::new(0),
    };
    let cap = (remote_cap != u64::MAX).then_some(&cap);
    let pes: Vec<usize> = (0..cfg.n_pes).collect();
    // Fetch tables not in use: one per shard walking at once.
    let tables = Mutex::new(Vec::new());
    let shards: Vec<Shard> = par_map(&pes, |&pe| {
        let table = tables.lock().expect("fetch tables poisoned").pop();
        let table = table.unwrap_or_else(|| vec![0; cfg.n_pes]);
        let (shard, table) = Worker::new(&cp, cfg, pe, cap, table).run();
        tables.lock().expect("fetch tables poisoned").push(table);
        Ok::<_, std::convert::Infallible>(shard)
    })
    .unwrap_or_else(|e| match e {});
    // A shard that stopped charged at least what it added to the shared
    // total, which had reached the cap.
    if cap.is_some() {
        let tallies = shards.iter().flat_map(|s| &s.nest_tallies);
        if tallies.map(|t| t.remote).sum::<u64>() >= remote_cap {
            return Ok(Capped::Exceeded);
        }
    }

    // Coordinator: host-protocol accounting (PE-independent), then every
    // shard's fetches and partials, PE by PE.
    let mut net = Network::new(cfg.network, cfg.n_pes);
    let mut stats = Stats::new(cfg.n_pes);
    let mut gens = vec![0u32; program.arrays.len()];
    for phase in &program.phases {
        if let Phase::Reinit(a) = phase {
            gens[a.0] += 1;
            let sync = run_reinit_protocol(&mut net, a.0, cfg.n_pes, gens[a.0]);
            stats.reinit_messages += sync.total_messages();
        }
    }
    for (pe, shard) in shards.iter().enumerate() {
        for &(owner, count) in &shard.fetches {
            net.record_fetches(pe, owner, count);
        }
        for &host in &shard.partials {
            net.record_message(pe, host);
        }
    }

    let mut per_nest = Vec::with_capacity(cp.nests.len());
    for (i, nest) in program.nests().enumerate() {
        let mut ns = Stats::new(cfg.n_pes);
        for (pe, shard) in shards.iter().enumerate() {
            let t = &shard.nest_tallies[i];
            ns.per_pe[pe] = PeCounters {
                writes: t.writes,
                local_reads: t.local,
                cached_reads: t.cached,
                remote_reads: t.remote,
            };
            ns.page_fetches += t.page_fetches;
            ns.reduction_messages += t.reduction_messages;
        }
        stats.merge(&ns);
        per_nest.push((nest.label.clone(), ns));
    }

    Ok(Capped::Counted(CountReport {
        engine: CountEngine::Replay,
        stats,
        per_nest,
        network_messages: net.messages,
        network_hops: net.hops,
        max_link_load: net.max_link_load(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{simulate, SimError};
    use crate::oracle::{CountError, Engine};
    use sa_ir::index::iv;
    use sa_ir::LoopVar;
    use sa_ir::{InitPattern, ProgramBuilder};
    use sa_machine::{CachePolicy, NetworkTopology, PartitionScheme};

    fn assert_identical(program: &Program, cfg: &MachineConfig) {
        let sim = simulate(program, cfg).expect("interpreter accepts the program");
        let rep = counts(program, cfg).expect("replay supports the program");
        assert_eq!(rep.stats, sim.stats, "global stats");
        assert_eq!(rep.per_nest, sim.per_nest, "per-nest stats");
        assert_eq!(rep.network_messages, sim.network_messages, "messages");
        assert_eq!(rep.network_hops, sim.network_hops, "hops");
        assert_eq!(rep.max_link_load, sim.max_link_load, "max link load");
        assert_eq!(rep.remote_pct(), sim.remote_pct(), "remote %");
    }

    /// K1-shaped skewed kernel.
    fn hydro(n: usize) -> Program {
        let mut b = ProgramBuilder::new("hydro");
        let q = b.param("Q", 0.5);
        let y = b.input("Y", &[n], InitPattern::Wavy);
        let zx = b.input("ZX", &[n + 12], InitPattern::Harmonic);
        let x = b.output("X", &[n]);
        b.nest("k1", &[("k", 0, n as i64 - 1)], |nb| {
            let rhs = nb.par(q)
                + nb.read(y, [iv(0)])
                    * (nb.read(zx, [iv(0).plus(10)]) + nb.read(zx, [iv(0).plus(11)]));
            nb.assign(x, [iv(0)], rhs);
        });
        b.finish()
    }

    #[test]
    fn skewed_kernel_bit_identical_across_configs() {
        let p = hydro(777); // deliberately not page aligned
        for n_pes in [1usize, 2, 3, 4, 8, 16] {
            for ps in [8usize, 32, 64] {
                for cache in [0usize, 64, 256] {
                    let cfg = MachineConfig::new(n_pes, ps).with_cache_elems(cache);
                    assert_identical(&p, &cfg);
                }
            }
        }
    }

    #[test]
    fn partition_schemes_and_policies_bit_identical() {
        let p = hydro(500);
        for scheme in [
            PartitionScheme::Modulo,
            PartitionScheme::Block,
            PartitionScheme::BlockCyclic { block_pages: 2 },
            PartitionScheme::RowBand,
            PartitionScheme::Tile2D {
                tile_rows: 3,
                tile_cols: 40,
            },
        ] {
            for policy in [
                CachePolicy::Lru,
                CachePolicy::Fifo,
                CachePolicy::Random { seed: 42 },
            ] {
                let cfg = MachineConfig::new(8, 32)
                    .with_partition(scheme)
                    .with_cache_policy(policy)
                    .with_cache_elems(64); // small: force evictions
                assert_identical(&p, &cfg);
            }
        }
    }

    #[test]
    fn network_topologies_bit_identical() {
        let p = hydro(512);
        for net in [
            NetworkTopology::Ideal,
            NetworkTopology::Crossbar,
            NetworkTopology::Ring,
            NetworkTopology::Mesh2D,
            NetworkTopology::Hypercube,
        ] {
            let cfg = MachineConfig::new(8, 32)
                .with_network(net)
                .with_cache_elems(0);
            assert_identical(&p, &cfg);
        }
    }

    #[test]
    fn multi_nest_with_reinit_bit_identical() {
        let mut b = ProgramBuilder::new("gen");
        let y = b.input("Y", &[256], InitPattern::Wavy);
        let x = b.output("X", &[256]);
        b.nest("g0", &[("k", 0, 255)], |nb| {
            nb.assign(x, [iv(0)], nb.read(y, [iv(0)]));
        });
        b.reinit(x);
        b.nest("g1", &[("k", 0, 255)], |nb| {
            nb.assign(x, [iv(0)], nb.read(y, [iv(0)]) * 2.0);
        });
        let p = b.finish();
        assert_identical(&p, &MachineConfig::new(4, 16));
        assert_identical(
            &p,
            &MachineConfig::new(4, 16).with_network(NetworkTopology::Ring),
        );
    }

    #[test]
    fn reductions_and_anchorless_round_robin_bit_identical() {
        let mut b = ProgramBuilder::new("red");
        let y = b.input("Y", &[200], InitPattern::Wavy);
        let z = b.input("Z", &[210], InitPattern::Harmonic);
        let s = b.scalar("s");
        let q = b.scalar("q");
        let c = b.scalar("c");
        // Anchored reduction (first read Y), skewed second operand.
        b.nest("dot", &[("k", 0, 199)], |nb| {
            nb.reduce(
                s,
                sa_ir::ReduceOp::Sum,
                nb.read(y, [iv(0)]) * nb.read(z, [iv(0).plus(7)]),
            );
        });
        // Anchorless reductions (no reads): dealt round-robin, two per
        // iteration so the global counter interleaves slots.
        b.nest("anchorless", &[("k", 0, 99)], |nb| {
            nb.reduce(q, sa_ir::ReduceOp::Sum, sa_ir::Expr::LoopVar(0));
            nb.reduce(c, sa_ir::ReduceOp::Sum, sa_ir::Expr::Const(1.0));
        });
        let p = b.finish();
        for n_pes in [1usize, 3, 4, 16] {
            assert_identical(&p, &MachineConfig::new(n_pes, 32));
        }
    }

    #[test]
    fn static_gather_bit_identical() {
        // Permutation gather through a static index array — the Random
        // class. Replay resolves the indirection from the init pattern.
        let n = 512;
        let mut b = ProgramBuilder::new("perm");
        let d = b.input("D", &[n], InitPattern::Wavy);
        let perm = b.input("P", &[n], InitPattern::Permutation { seed: 11 });
        let x = b.output("X", &[n]);
        b.nest("g", &[("k", 0, n as i64 - 1)], |nb| {
            nb.assign(x, [iv(0)], nb.read_indirect(d, perm, iv(0)));
        });
        let p = b.finish();
        for cache in [0usize, 256, 2048] {
            assert_identical(&p, &MachineConfig::new(8, 32).with_cache_elems(cache));
        }
    }

    #[test]
    fn triangular_and_multi_level_nests_bit_identical() {
        // Triangular nest (GLRE-shaped iteration space): the inner bound
        // depends on the outer variable, and the transposed read has a
        // different variable support than the write (Random class).
        let mut b = ProgramBuilder::new("tri");
        let bb = b.input("B", &[64, 64], InitPattern::Wavy);
        let t = b.output("T", &[64, 64]);
        b.nest_loops(
            "tri",
            vec![
                LoopVar::simple("i", 1, 63),
                LoopVar {
                    name: "k".into(),
                    lo: 1.into(),
                    hi: iv(0),
                    step: 1,
                },
            ],
            |n| {
                n.assign(
                    t,
                    [iv(0), iv(1)],
                    n.read(bb, [iv(0), iv(1)]) * n.read(bb, [iv(1), iv(0)]),
                );
            },
        );
        let p = b.finish();
        assert_identical(&p, &MachineConfig::new(8, 32));
        assert_identical(&p, &MachineConfig::new(8, 32).with_cache_elems(0));
    }

    #[test]
    fn negative_step_loops_bit_identical() {
        let mut b = ProgramBuilder::new("rev");
        let y = b.input("Y", &[128], InitPattern::Wavy);
        let x = b.output("X", &[128]);
        b.nest_loops(
            "rev",
            vec![LoopVar {
                name: "k".into(),
                lo: 127.into(),
                hi: 0.into(),
                step: -1,
            }],
            |nb| {
                nb.assign(x, [iv(0)], nb.read(y, [iv(0)]) + 1.0);
            },
        );
        let p = b.finish();
        assert_identical(&p, &MachineConfig::new(4, 32));
    }

    #[test]
    fn two_statement_body_interleaves_like_the_interpreter() {
        // Two assigns per iteration with different target arrays: PE cache
        // state depends on the per-iteration interleave, which the merged
        // segment walk must reproduce.
        let n = 300;
        let mut b = ProgramBuilder::new("pair");
        let y = b.input("Y", &[n + 8], InitPattern::Wavy);
        let x1 = b.output("X1", &[n]);
        let x2 = b.output("X2", &[n + 64]);
        b.nest("pair", &[("k", 0, n as i64 - 1)], |nb| {
            nb.assign(x1, [iv(0)], nb.read(y, [iv(0).plus(3)]));
            nb.assign(x2, [iv(0).plus(64)], nb.read(y, [iv(0).plus(7)]));
        });
        let p = b.finish();
        for n_pes in [2usize, 4, 8] {
            assert_identical(&p, &MachineConfig::new(n_pes, 16).with_cache_elems(32));
        }
    }

    #[test]
    fn dynamic_gather_base_is_unsupported_and_auto_falls_back() {
        // The index array is itself produced by an earlier nest, so replay
        // must refuse and the auto path must fall back to the interpreter.
        let n = 64;
        let mut b = ProgramBuilder::new("dyn");
        let src = b.input("S", &[n], InitPattern::Permutation { seed: 3 });
        let idx = b.output("I", &[n]);
        let d = b.input("D", &[n], InitPattern::Wavy);
        let x = b.output("X", &[n]);
        b.nest("make-idx", &[("k", 0, n as i64 - 1)], |nb| {
            nb.assign(idx, [iv(0)], nb.read(src, [iv(0)]));
        });
        b.nest("gather", &[("k", 0, n as i64 - 1)], |nb| {
            nb.assign(x, [iv(0)], nb.read_indirect(d, idx, iv(0)));
        });
        let p = b.finish();
        let cfg = MachineConfig::new(4, 16);
        match counts(&p, &cfg) {
            Err(ReplayError::Unsupported { nest, reason }) => {
                assert_eq!(nest, "gather");
                assert!(reason.contains("dynamically produced"), "{reason}");
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
        let auto = Engine::Auto.count(&p, &cfg).expect("fallback simulates");
        assert_eq!(auto.engine, CountEngine::Interp);
        let sim = simulate(&p, &cfg).unwrap();
        assert_eq!(auto.stats, sim.stats);
    }

    #[test]
    fn refetch_policy_is_unsupported() {
        let p = hydro(64);
        let cfg = MachineConfig::new(4, 16).with_partial_pages(PartialPagePolicy::Refetch);
        assert!(matches!(
            counts(&p, &cfg),
            Err(ReplayError::Unsupported { .. })
        ));
        // Auto falls back and matches the interpreter under Refetch too.
        let auto = Engine::Auto.count(&p, &cfg).unwrap();
        let sim = simulate(&p, &cfg).unwrap();
        assert_eq!(auto.engine, CountEngine::Interp);
        assert_eq!(auto.stats, sim.stats);
    }

    #[test]
    fn bad_config_surfaces_the_interpreter_error() {
        let p = hydro(64);
        let err = Engine::Auto
            .count(&p, &MachineConfig::new(0, 32))
            .unwrap_err();
        assert!(matches!(
            err,
            CountError::Sim(SimError::Machine(sa_machine::MachineError::BadConfig(
                ConfigError::ZeroPes
            )))
        ));
        assert!(matches!(
            counts(&p, &MachineConfig::new(4, 0)),
            Err(ReplayError::Config(ConfigError::ZeroPageSize))
        ));
    }

    #[test]
    fn zero_read_program_reports_zero_remote_pct() {
        // A write-only program performs no reads; remote % must be 0.0,
        // never NaN (regression guard for the CSV/JSON pipelines).
        let mut b = ProgramBuilder::new("wo");
        let x = b.output("X", &[64]);
        b.nest("w", &[("k", 0, 63)], |nb| {
            nb.assign(x, [iv(0)], sa_ir::Expr::LoopVar(0));
        });
        let p = b.finish();
        let rep = counts(&p, &MachineConfig::new(4, 16)).unwrap();
        assert_eq!(rep.stats.total_reads(), 0);
        assert_eq!(rep.remote_pct(), 0.0);
        assert!(!rep.remote_pct().is_nan());
        assert_identical(&p, &MachineConfig::new(4, 16));
    }

    #[test]
    fn report_from_sim_round_trips() {
        let p = hydro(128);
        let cfg = MachineConfig::new(4, 32);
        let sim = simulate(&p, &cfg).unwrap();
        let rep = CountReport::from_sim(&sim);
        assert_eq!(rep.engine, CountEngine::Interp);
        assert_eq!(rep.engine.name(), "interp");
        assert_eq!(CountEngine::Replay.name(), "replay");
        assert_eq!(rep.stats, sim.stats);
        assert_eq!(rep.remote_pct(), sim.remote_pct());
    }
}
