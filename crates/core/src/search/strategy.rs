//! Scalable partition search over the full
//! `scheme × tile shape × page size × topology` space: a branch-and-bound
//! exhaustive walk, a seeded simulated-annealing walker and an
//! *Automap*-style write-to-read propagation pass, all backed by a
//! memoizing oracle cache.
//!
//! - [`Strategy::Exhaustive`] — branch and bound over every candidate.
//!   Each candidate's score has a static lower bound: its imbalance term
//!   (`static_score_bound`, from the anchor profile's per-PE writes) plus
//!   its **remote-read floor** ([`AnchorProfile::fetch_floor`]) as a share
//!   of the run's reads, which owner-computes makes the same for every
//!   candidate ([`depgraph::read_count`]). Under single assignment a PE
//!   fetches every remote page it reads at least once, whatever the cache,
//!   so the distinct (PE, remote page) pairs of the translation reads (an
//!   array shaped like the anchor's, at the anchor's address plus a
//!   constant) are a floor, priced in closed form over the profile's page
//!   runs. Page sizes are visited smallest first, and within one the
//!   candidates by ascending bound, canonical index breaking ties; a
//!   candidate whose bound exceeds the incumbent's score is pruned.
//! - [`Strategy::Anneal`] — Metropolis acceptance over neighbor moves
//!   (halve/double the page size, perturb tile dims within a scheme
//!   family, swap the scheme family, hop the topology) under a geometric
//!   temperature schedule, seeded and fully deterministic. The
//!   imbalance bound stays inside the acceptance test: candidates
//!   provably unable to beat the incumbent are rejected without spending
//!   an oracle evaluation.
//! - [`Strategy::Propagate`] — ranks candidates by pushing each array's
//!   write-side placement onto the arrays it reads, along the RAW edges
//!   of [`sa_lint::depgraph`]: a placement under which a statement's
//!   sampled writes land on the same PE as the reads they depend on is
//!   tried first. Evaluation then proceeds in ranked order under the
//!   budget, pruned by the imbalance bound.
//!
//! A budget that covers the space makes every strategy the branch and
//! bound: the guided walks are for budgets short of it. Branch and bound
//! and propagation share one prune-or-visit loop (`Walk::walk`), which
//! measures each candidate under a remote-read cap
//! ([`Oracle::measure_capped`]): the fewest remote reads at which its score
//! provably exceeds the incumbent's (`Walk::remote_cap`), past which replay
//! stops counting.
//!
//! Every oracle evaluation goes through a [`MemoOracle`] keyed by
//! `(program fingerprint, RunConfig)` and shared across queries of one
//! [`Searcher`], so repeated measurements — across strategies, kernels
//! re-queried, or anneal walks revisiting a state — are free.
//!
//! **Exactness.** The winner order is total: objective score, then
//! messages, then canonical grid index. Any strategy that evaluates or
//! soundly prunes *every* candidate therefore returns the bit-exact
//! [`search_exhaustive_with`](crate::search::search_exhaustive_with)
//! winner regardless of visit order — and whenever `budget ≥ space size`
//! every strategy runs the branch and bound, the regime
//! `tests/search_strategies.rs` certifies.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use sa_ir::{analysis, pretty, ArrayId, LinForm, Phase, Program};
use sa_lint::depgraph::{self, AnchorProfile, DepGraph};
use sa_lint::LintConfig;
use sa_machine::{PartitionScheme, Placement};

use crate::oracle::{of_last_program, FastCountingOracle, Oracle, OracleError, RunRecord};
use crate::plan::{PlanError, RunConfig};
use crate::replay::Capped;
use crate::search::{static_score_bound, BestConfig, Objective, SearchSpace, WriteProjector};

/// Default evaluation budget for the guided strategies: enough to cover
/// every feasible certification space exhaustively, a small fraction of
/// the PR-9-expanded spaces.
pub const DEFAULT_BUDGET: usize = 64;

/// Default annealer seed (any value works; fixed for reproducible CLI
/// runs without `--seed`).
pub const DEFAULT_SEED: u64 = 0x5eed_1989;

/// Which walker explores the candidate space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Branch and bound: page sizes smallest first, within one candidates
    /// by ascending static score bound (imbalance term plus remote-read
    /// floor). Every candidate is measured — capped once its remote reads
    /// prove it cannot win — or proven unable to win without measuring.
    Exhaustive,
    /// Seeded simulated annealing with pruned Metropolis acceptance;
    /// the branch and bound when the budget covers the space.
    Anneal,
    /// Automap-style write-to-read propagation ranking, evaluated in
    /// ranked order under the budget; the branch and bound when the
    /// budget covers the space.
    Propagate,
}

impl Strategy {
    /// Parse a CLI strategy name.
    pub fn parse(s: &str) -> Option<Strategy> {
        match s {
            "exhaustive" => Some(Strategy::Exhaustive),
            "anneal" => Some(Strategy::Anneal),
            "propagate" => Some(Strategy::Propagate),
            _ => None,
        }
    }

    /// Stable name (`exhaustive` / `anneal` / `propagate`).
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Exhaustive => "exhaustive",
            Strategy::Anneal => "anneal",
            Strategy::Propagate => "propagate",
        }
    }
}

/// Knobs of one search invocation, shared by every kernel queried
/// through the same [`Searcher`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyParams {
    /// Which walker runs.
    pub strategy: Strategy,
    /// Scoring objective (lower wins).
    pub objective: Objective,
    /// Seed of the annealer's deterministic RNG.
    pub seed: u64,
    /// Maximum distinct candidates measured per query. Counted whether
    /// the measurement was a fresh oracle evaluation or a memo hit, so a
    /// walk is a pure function of `(program, space, seed, budget)` —
    /// cache warmth changes what a query *costs*, never what it *does*
    /// (re-queries replay bit-identically with zero oracle calls).
    /// Statically pruned candidates are free. When the budget covers the
    /// whole space, every strategy runs the branch and bound.
    pub budget: usize,
}

impl Default for StrategyParams {
    /// Exhaustive walk, balanced objective, [`DEFAULT_SEED`] and
    /// [`DEFAULT_BUDGET`].
    fn default() -> Self {
        StrategyParams {
            strategy: Strategy::Exhaustive,
            objective: Objective::default(),
            seed: DEFAULT_SEED,
            budget: DEFAULT_BUDGET,
        }
    }
}

/// The materialized candidate grid of a [`SearchSpace`]: scheme
/// outermost, then page size, then network topology innermost — the same
/// canonical enumeration order as
/// [`SearchSpace::plan`](crate::search::SearchSpace::plan), so a
/// candidate's index here *is* its grid index, the final tie-break of the
/// winner order.
#[derive(Debug, Clone)]
pub struct Candidates {
    configs: Vec<RunConfig>,
    schemes: Vec<PartitionScheme>,
    page_sizes: Vec<usize>,
    n_networks: usize,
    n_pes: usize,
}

impl Candidates {
    /// Materialize `space` into its canonical candidate list. This is the
    /// one expensive space construction of a search invocation —
    /// [`Searcher`] does it exactly once, however many kernels are
    /// queried.
    pub fn materialize(space: &SearchSpace) -> Result<Candidates, PlanError> {
        let plan = space.plan();
        plan.validate().map_err(PlanError::Config)?;
        Ok(Candidates {
            configs: plan.configs().collect(),
            schemes: space.schemes.clone(),
            page_sizes: space.page_sizes.clone(),
            n_networks: space.networks.len(),
            n_pes: space.n_pes,
        })
    }

    /// Number of candidates in the grid.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// True when the grid is empty (a validated space never is).
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// The grid point at canonical index `idx`.
    pub fn config(&self, idx: usize) -> &RunConfig {
        &self.configs[idx]
    }

    /// Decompose a canonical index into `(scheme, page, network)` axis
    /// positions.
    fn coords(&self, idx: usize) -> (usize, usize, usize) {
        let n = idx % self.n_networks;
        let rest = idx / self.n_networks;
        (
            rest / self.page_sizes.len(),
            rest % self.page_sizes.len(),
            n,
        )
    }

    /// Recompose axis positions into a canonical index.
    fn index(&self, s: usize, p: usize, n: usize) -> usize {
        (s * self.page_sizes.len() + p) * self.n_networks + n
    }
}

/// Content fingerprint of a program: a 64-bit FNV-1a hash over the name,
/// the array declarations (names, extents, init patterns), parameters,
/// scalar slots and the pretty-printed phases. Any observable relabeling
/// or restructuring — renaming an array, resizing a dimension, editing a
/// statement — changes the fingerprint, so memo-cache entries of distinct
/// programs never alias (certified by proptest over registry pairs).
pub fn program_fingerprint(p: &Program) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^= 0xff; // field separator so concatenations cannot alias
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    eat(p.name.as_bytes());
    for d in &p.arrays {
        eat(d.name.as_bytes());
        eat(format!("{:?}", d.dims).as_bytes());
        eat(format!("{:?}", d.init).as_bytes());
    }
    eat(format!("{:?}", p.params).as_bytes());
    eat(format!("{:?}", p.scalars).as_bytes());
    eat(pretty::program_to_string(p).as_bytes());
    h
}

/// What [`MemoOracle`] remembers of one config.
#[derive(Debug, Clone)]
enum Memo {
    /// The full measurement: it answers every query, capped or not.
    Record(RunRecord),
    /// At least `cap` remote reads: it answers a query capped at `cap` or
    /// below.
    Exceeds { cap: u64 },
    /// The backend's unsupported verdict, with its message.
    Unsupported(String),
}

impl Memo {
    /// This entry's answer to a query capped at `remote_cap` (`u64::MAX`
    /// is no cap), or `None` when the query must measure again.
    fn answer(&self, remote_cap: u64) -> Option<Result<Capped<RunRecord>, OracleError>> {
        match self {
            Memo::Record(rec) => Some(Ok(Capped::Counted(rec.clone()))),
            Memo::Exceeds { cap } => (remote_cap <= *cap).then_some(Ok(Capped::Exceeded)),
            Memo::Unsupported(m) => Some(Err(OracleError::Unsupported(m.clone()))),
        }
    }
}

/// One program's cached answers by config.
type Memos = HashMap<RunConfig, Memo>;

/// A memoizing [`Oracle`] wrapper: measurements are cached under
/// `(program fingerprint, RunConfig)` and shared across every query that
/// goes through the same instance. Unsupported verdicts are cached too —
/// re-asking whether a backend can handle a point is as wasteful as
/// re-measuring it. Hard backend errors are *not* cached (they may be
/// transient) but still count as misses: the miss counter is exactly the
/// number of inner-oracle invocations.
///
/// A capped query ([`Oracle::measure_capped`]) keeps what the inner oracle
/// answered. A full record — which an oracle that measures in full
/// answers under any cap — answers every later query. An exceeded cap
/// answers a later query capped at or below it; one uncapped or capped
/// higher measures again and replaces the entry.
///
/// A probe hashes the typed config and nothing else. A [`Searcher`] query
/// fingerprints its program once; callers coming through
/// [`Oracle::measure`] are fingerprinted per *distinct* program — the
/// program probed last is kept beside its fingerprint and recognized by
/// comparison, which costs a fraction of pretty-printing it again.
pub struct MemoOracle {
    inner: Box<dyn Oracle>,
    /// Per program fingerprint.
    cache: Mutex<HashMap<u64, Memos>>,
    last_program: Mutex<Option<(Program, u64)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl MemoOracle {
    /// Wrap `inner` with an empty cache.
    pub fn new(inner: Box<dyn Oracle>) -> Self {
        MemoOracle {
            inner,
            cache: Mutex::new(HashMap::new()),
            last_program: Mutex::new(None),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Measurements answered from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Measurements forwarded to the inner oracle so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// [`Oracle::measure`] plus whether the answer came from the cache.
    pub fn measure_tracked(
        &self,
        program: &Program,
        cfg: &RunConfig,
    ) -> (Result<RunRecord, OracleError>, bool) {
        let (res, hit) = self.measure_capped_tracked(program, cfg, u64::MAX);
        (res.map(Capped::uncapped), hit)
    }

    /// [`Oracle::measure_capped`] plus whether the answer came from the
    /// cache.
    fn measure_capped_tracked(
        &self,
        program: &Program,
        cfg: &RunConfig,
        remote_cap: u64,
    ) -> (Result<Capped<RunRecord>, OracleError>, bool) {
        let fingerprint = of_last_program(
            &mut self.last_program.lock().expect("memo cache poisoned"),
            program,
            program_fingerprint,
        );
        self.measure_keyed(fingerprint, program, cfg, remote_cap)
    }

    /// [`measure_capped_tracked`](MemoOracle::measure_capped_tracked) for a
    /// caller that already holds `program`'s [`program_fingerprint`].
    fn measure_keyed(
        &self,
        fingerprint: u64,
        program: &Program,
        cfg: &RunConfig,
        remote_cap: u64,
    ) -> (Result<Capped<RunRecord>, OracleError>, bool) {
        let cached = self
            .cache
            .lock()
            .expect("memo cache poisoned")
            .get(&fingerprint)
            .and_then(|of_program| of_program.get(cfg))
            .and_then(|entry| entry.answer(remote_cap));
        if let Some(answer) = cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (answer, true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let res = self.inner.measure_capped(program, cfg, remote_cap);
        let entry = match &res {
            Ok(Capped::Counted(rec)) => Some(Memo::Record(rec.clone())),
            Ok(Capped::Exceeded) => Some(Memo::Exceeds { cap: remote_cap }),
            Err(OracleError::Unsupported(m)) => Some(Memo::Unsupported(m.clone())),
            Err(_) => None,
        };
        if let Some(entry) = entry {
            self.cache
                .lock()
                .expect("memo cache poisoned")
                .entry(fingerprint)
                .or_default()
                .insert(cfg.clone(), entry);
        }
        (res, false)
    }
}

impl Oracle for MemoOracle {
    fn name(&self) -> &'static str {
        "memo"
    }

    fn measure(&self, program: &Program, cfg: &RunConfig) -> Result<RunRecord, OracleError> {
        self.measure_tracked(program, cfg).0
    }

    fn measure_capped(
        &self,
        program: &Program,
        cfg: &RunConfig,
        remote_cap: u64,
    ) -> Result<Capped<RunRecord>, OracleError> {
        self.measure_capped_tracked(program, cfg, remote_cap).0
    }
}

/// The auto-selecting counting oracle under the name the guided
/// strategies' default backend had. Kept only for `benchmark/`, which
/// names it; ROADMAP item 1 deletes it.
pub type StrategyOracle = FastCountingOracle;

/// What one [`Searcher::search`] query produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReport {
    /// The winner, bit-exactly the exhaustive winner whenever the budget
    /// covered the space.
    pub best: BestConfig,
    /// The winner's full measurement (its `cfg.network` is the winning
    /// topology, an axis [`BestConfig`] predates).
    pub record: RunRecord,
    /// Canonical grid index of the winner.
    pub winner_index: usize,
    /// Which walker produced this report.
    pub strategy: Strategy,
    /// Total candidates in the space.
    pub space_size: usize,
    /// Oracle evaluations this query paid for (memo-cache misses).
    pub oracle_evals: usize,
    /// Candidates answered from the memo cache for free.
    pub cache_hits: usize,
    /// Evaluated candidates a remote-read cap decided: measured only until
    /// they provably lost to the incumbent.
    pub capped: usize,
    /// Pruned candidates that only the remote-read floor proved unable to
    /// win: their write bound alone did not exceed the incumbent's score.
    /// The rest of [`BestConfig::pruned`] the write bound pruned alone.
    pub floor_pruned: usize,
    /// Candidate indices in first-touch evaluation order — the
    /// determinism witness: same seed, same trace, bit for bit.
    pub trace: Vec<usize>,
}

/// Deterministic seeded RNG (SplitMix64): no dependency, stable across
/// platforms, and statistically plenty for Metropolis draws.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Scheme family, for the annealer's "perturb within family" vs "swap
/// family" moves.
fn family(s: PartitionScheme) -> u8 {
    match s {
        PartitionScheme::Modulo => 0,
        PartitionScheme::Block => 1,
        PartitionScheme::BlockCyclic { .. } => 2,
        PartitionScheme::RowBand => 3,
        PartitionScheme::Tile2D { .. } => 4,
    }
}

/// One search invocation: the candidate space materialized exactly once,
/// a memo cache shared across every kernel queried, and the strategy
/// knobs. `search` takes `&self`, so one `Searcher` serves concurrent
/// per-kernel queries (the CLI fans kernels out over it).
pub struct Searcher {
    cands: Candidates,
    memo: MemoOracle,
    params: StrategyParams,
    /// Where pruning bounds come from instead of the anchor profiles.
    reference: Option<WriteProjector>,
    builds: AtomicUsize,
    profile_builds: AtomicUsize,
}

impl Searcher {
    /// Materialize `space` (once) and wrap `inner` in a fresh memo cache.
    pub fn new(
        space: &SearchSpace,
        inner: Box<dyn Oracle>,
        params: StrategyParams,
    ) -> Result<Searcher, PlanError> {
        let builds = AtomicUsize::new(0);
        let cands = Self::build_space(space, &builds)?;
        Ok(Searcher {
            cands,
            memo: MemoOracle::new(inner),
            params,
            reference: None,
            builds,
            profile_builds: AtomicUsize::new(0),
        })
    }

    /// Certification hook: compute pruning bounds from `writes_per_pe`
    /// instead of the anchor profiles. The tests pass the per-instance
    /// reference projection and require the identical [`SearchReport`].
    #[doc(hidden)]
    pub fn with_write_projection(mut self, writes_per_pe: WriteProjector) -> Searcher {
        self.reference = Some(writes_per_pe);
        self
    }

    /// The only path that materializes the candidate space — counted, so
    /// the regression test can assert queries never rebuild it.
    fn build_space(space: &SearchSpace, builds: &AtomicUsize) -> Result<Candidates, PlanError> {
        builds.fetch_add(1, Ordering::SeqCst);
        Candidates::materialize(space)
    }

    /// How many times this invocation materialized its candidate space.
    /// Exactly 1, however many kernels were searched: the space is built
    /// in [`Searcher::new`] and only read afterwards.
    pub fn space_builds(&self) -> usize {
        self.builds.load(Ordering::SeqCst)
    }

    /// How many anchor profiles ([`AnchorProfile`]) the queries so far
    /// built for their pruning bounds. A query builds at most one per page
    /// size it bounds a candidate at, prices every scheme from it at once
    /// and keeps none: a second query of the same program builds its own
    /// again.
    pub fn profile_builds(&self) -> usize {
        self.profile_builds.load(Ordering::SeqCst)
    }

    /// The materialized space.
    pub fn candidates(&self) -> &Candidates {
        &self.cands
    }

    /// The strategy knobs this invocation runs with.
    pub fn params(&self) -> &StrategyParams {
        &self.params
    }

    /// Memo-cache hits across all queries so far.
    pub fn cache_hits(&self) -> u64 {
        self.memo.hits()
    }

    /// Inner-oracle invocations across all queries so far.
    pub fn cache_misses(&self) -> u64 {
        self.memo.misses()
    }

    /// Run the configured strategy for one kernel. A budget that covers
    /// the space buys every strategy the branch and bound: the certified
    /// walk, and the cheapest one that covers it.
    pub fn search(&self, program: &Program) -> Result<SearchReport, PlanError> {
        let mut walk = Walk::new(program, self);
        let budget = self.params.budget;
        let short = budget < self.cands.len();
        match self.params.strategy {
            Strategy::Anneal if short => self.anneal(&mut walk)?,
            Strategy::Propagate if short => {
                walk.walk(propagation_order(program, &self.cands), budget)?
            }
            _ => walk.branch_and_bound()?,
        }
        walk.finish(self.params.strategy)
    }

    /// Simulated annealing over the candidate grid, under a budget short
    /// of the space.
    fn anneal(&self, walk: &mut Walk<'_>) -> Result<(), PlanError> {
        let budget = self.params.budget;
        // Warm start: the propagation ranking's head — the candidate the
        // write-to-read pass believes aligns producers with consumers.
        let order = propagation_order(walk.program, &self.cands);
        let mut rng = SplitMix64(self.params.seed);
        let mut cur = order[0];
        let mut cur_score = walk.eval(cur)?;
        let mut next_start = 1usize;
        while cur_score.is_none() && next_start < order.len() && walk.touched() < budget {
            cur = order[next_start];
            cur_score = walk.eval(cur)?;
            next_start += 1;
        }
        let Some(mut cur_score) = cur_score else {
            return Ok(());
        };
        // Geometric schedule in score units (percent): hot enough to
        // accept ~20-point regressions early, frozen by the budget's end.
        let mut temp = 25.0f64;
        let cooling = 0.92f64;
        let max_steps = budget.saturating_mul(8).max(64);
        for _ in 0..max_steps {
            if walk.touched() >= budget {
                break;
            }
            let prop = self.neighbor(cur, &mut rng);
            // static_score_bound stays inside the acceptance test: a
            // candidate provably unable to beat the incumbent is rejected
            // before it can spend an oracle evaluation.
            if walk.prunable(prop) {
                walk.prune(prop);
                temp *= cooling;
                continue;
            }
            let Some(prop_score) = walk.eval(prop)? else {
                temp *= cooling;
                continue;
            };
            let accept = prop_score <= cur_score
                || rng.unit_f64() < (-(prop_score - cur_score) / temp.max(1e-3)).exp();
            if accept {
                cur = prop;
                cur_score = prop_score;
            }
            temp *= cooling;
        }
        Ok(())
    }

    /// One neighbor move: halve/double the page, perturb within the
    /// scheme family, swap the family, or hop the topology.
    fn neighbor(&self, idx: usize, rng: &mut SplitMix64) -> usize {
        let c = &self.cands;
        let (s, p, n) = c.coords(idx);
        for _ in 0..8 {
            let (mut s2, mut p2, mut n2) = (s, p, n);
            match rng.below(4) {
                0 => {
                    // Page sizes are sorted powers-of-two-ish: one step
                    // along the axis is the halve/double move.
                    if c.page_sizes.len() > 1 {
                        // Go up at the low edge, down at the high edge,
                        // coin-flip in between.
                        let up = p + 1 < c.page_sizes.len() && (p == 0 || rng.below(2) == 1);
                        p2 = if up { p + 1 } else { p - 1 };
                    }
                }
                1 => {
                    // Perturb tile dims / block factor: another scheme of
                    // the same family.
                    let fam = family(c.schemes[s]);
                    let same: Vec<usize> = (0..c.schemes.len())
                        .filter(|&j| j != s && family(c.schemes[j]) == fam)
                        .collect();
                    if !same.is_empty() {
                        s2 = same[rng.below(same.len())];
                    }
                }
                2 => {
                    let fam = family(c.schemes[s]);
                    let other: Vec<usize> = (0..c.schemes.len())
                        .filter(|&j| family(c.schemes[j]) != fam)
                        .collect();
                    if !other.is_empty() {
                        s2 = other[rng.below(other.len())];
                    }
                }
                _ => {
                    if c.n_networks > 1 {
                        let mut j = rng.below(c.n_networks - 1);
                        if j >= n {
                            j += 1;
                        }
                        n2 = j;
                    }
                }
            }
            let cand = c.index(s2, p2, n2);
            if cand != idx {
                return cand;
            }
        }
        (idx + 1) % c.len()
    }
}

/// Per-query walk state: which candidates were touched, the incumbent
/// under the total winner order, and the evaluation trace.
struct Walk<'a> {
    program: &'a Program,
    /// `program`'s memo key, computed once per query.
    fingerprint: u64,
    cands: &'a Candidates,
    memo: &'a MemoOracle,
    objective: Objective,
    reference: Option<WriteProjector>,
    profile_builds: &'a AtomicUsize,
    /// Every read of a run of `program`, when counted statically.
    reads: Option<u64>,
    /// `static_score_bound` per `(scheme, page size)` axis position — the
    /// bound does not depend on the network axis.
    terms: HashMap<(usize, usize), Option<f64>>,
    /// The remote-read floors the branch-and-bound walk priced, likewise.
    fetches: HashMap<(usize, usize), Option<u64>>,
    /// Score per touched index; `None` = oracle-unsupported, infinite =
    /// capped (only known to exceed the incumbent's then).
    seen: HashMap<usize, Option<f64>>,
    pruned_set: HashSet<usize>,
    trace: Vec<usize>,
    evals: usize,
    hits: usize,
    evaluated: usize,
    capped: usize,
    floor_pruned: usize,
    best: Option<(usize, RunRecord, f64)>,
}

impl<'a> Walk<'a> {
    fn new(program: &'a Program, searcher: &'a Searcher) -> Walk<'a> {
        Walk {
            program,
            fingerprint: program_fingerprint(program),
            cands: &searcher.cands,
            memo: &searcher.memo,
            objective: searcher.params.objective,
            reference: searcher.reference,
            profile_builds: &searcher.profile_builds,
            reads: depgraph::read_count(program),
            terms: HashMap::new(),
            fetches: HashMap::new(),
            seen: HashMap::new(),
            pruned_set: HashSet::new(),
            trace: Vec::new(),
            evals: 0,
            hits: 0,
            evaluated: 0,
            capped: 0,
            floor_pruned: 0,
            best: None,
        }
    }

    /// Can `idx` be skipped without measuring? True when its lower bound
    /// ([`Walk::lower_bound`]) already exceeds the incumbent's score — such
    /// a candidate can never win under the total order, whatever the visit
    /// order, because the bound under-approximates the true score.
    fn prunable(&mut self, idx: usize) -> bool {
        let Some((_, _, incumbent)) = self.best else {
            return false;
        };
        if self.seen.contains_key(&idx) {
            return false; // already measured: skipping would drop its trace entry
        }
        self.lower_bound(idx).is_some_and(|bound| bound > incumbent)
    }

    /// `idx`'s lower bound on its score: its imbalance term, plus its
    /// remote-read floor's share of the run's reads where the walk priced
    /// that floor ([`Walk::price_floors`]).
    fn lower_bound(&mut self, idx: usize) -> Option<f64> {
        let term = self.term(idx);
        let (scheme, page, _) = self.cands.coords(idx);
        match (self.fetches.get(&(scheme, page)), self.reads) {
            (Some(&Some(fetches)), Some(reads)) => {
                Some(capped_score(fetches, reads, term.unwrap_or(0.0)))
            }
            _ => term,
        }
    }

    /// `idx`'s imbalance term, computed once per `(scheme, page size)`
    /// ([`Walk::price_terms`]).
    fn term(&mut self, idx: usize) -> Option<f64> {
        let (scheme, page, _) = self.cands.coords(idx);
        if !self.terms.contains_key(&(scheme, page)) {
            self.price_terms(page);
        }
        self.terms[&(scheme, page)]
    }

    /// Price the imbalance term of every scheme at page-size position
    /// `page`, from its anchor profile when the objective has the term and
    /// no reference projection stands in; the profile, when one was built.
    /// A query builds at most one profile per page size and holds none
    /// past it.
    fn price_terms(&mut self, page: usize) -> Option<AnchorProfile<'a>> {
        let (program, objective) = (self.program, self.objective);
        let projects = self.reference.is_none() && matches!(objective, Objective::Balanced { .. });
        let profile = projects.then(|| self.profile(page));
        for s in 0..self.cands.schemes.len() {
            let cfg = self.cands.config(self.cands.index(s, page, 0));
            let term = static_score_bound(objective, || match self.reference {
                Some(project) => {
                    let shape = LintConfig {
                        n_pes: cfg.n_pes,
                        page_size: cfg.page_size,
                        scheme: cfg.partition,
                    };
                    project(program, &shape)
                }
                None => {
                    let projection = profile.as_ref()?.project(cfg.partition, cfg.n_pes).ok()?;
                    Some(projection.writes_per_pe)
                }
            });
            self.terms.insert((s, page), term);
        }
        profile
    }

    /// The anchor profile at page-size position `page`, counted.
    fn profile(&self, page: usize) -> AnchorProfile<'a> {
        self.profile_builds.fetch_add(1, Ordering::Relaxed);
        AnchorProfile::new(self.program, self.cands.page_sizes[page])
    }

    /// The fewest remote reads at which `idx` provably loses to the
    /// incumbent, `u64::MAX` when none does (or there is no incumbent yet).
    ///
    /// Every candidate reads the incumbent's `total_reads` (owner-computes
    /// runs each instance once, wherever), its score is [`capped_score`] of
    /// its remote reads plus its imbalance term — the static bound, or 0
    /// when the program cannot be projected — and that score only grows
    /// with the remote reads. So the least `R ≤ total` whose score is
    /// strictly above the incumbent's is a cap: a candidate that reaches
    /// it scores above the incumbent and can never win, while one that
    /// ties on score is never capped and still reaches the messages
    /// tie-break. The eventual winner
    /// never reaches its cap: when it is measured its score is at most the
    /// incumbent's.
    fn remote_cap(&mut self, idx: usize) -> u64 {
        let Some((_, best, incumbent)) = &self.best else {
            return u64::MAX;
        };
        let (total, incumbent) = (best.total_reads, *incumbent);
        let term = self.term(idx).unwrap_or(0.0);
        let loses = |remote: u64| capped_score(remote, total, term) > incumbent;
        if !loses(total) {
            return u64::MAX;
        }
        let (mut lo, mut hi) = (0, total);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if loses(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Record a prune, each candidate once: one the imbalance term alone
    /// does not prove unable to win, its remote-read floor did.
    fn prune(&mut self, idx: usize) {
        if self.pruned_set.insert(idx) {
            let incumbent = self.best.as_ref().map_or(f64::INFINITY, |best| best.2);
            let by_term = self.term(idx).is_some_and(|term| term > incumbent);
            self.floor_pruned += usize::from(!by_term);
        }
    }

    /// Measure `idx` (memoized per query and across queries), fold it
    /// into the incumbent, and return its score (`None` = unsupported).
    fn eval(&mut self, idx: usize) -> Result<Option<f64>, PlanError> {
        self.measure(idx, u64::MAX)
    }

    /// [`Walk::eval`] for a walk that only keeps the incumbent: `idx` is
    /// measured only until it provably loses to it ([`Walk::remote_cap`]).
    fn visit(&mut self, idx: usize) -> Result<(), PlanError> {
        if self.seen.contains_key(&idx) {
            return Ok(());
        }
        let cap = self.remote_cap(idx);
        self.measure(idx, cap).map(drop)
    }

    /// Measure `idx` under `remote_cap`, count it, fold a record below the
    /// cap into the incumbent, and return its score (infinite at or past
    /// the cap, where it provably loses).
    fn measure(&mut self, idx: usize, remote_cap: u64) -> Result<Option<f64>, PlanError> {
        if let Some(s) = self.seen.get(&idx) {
            return Ok(*s);
        }
        let cfg = self.cands.config(idx);
        let (res, hit) = self
            .memo
            .measure_keyed(self.fingerprint, self.program, cfg, remote_cap);
        let verdict = match res {
            Ok(verdict) => Some(verdict),
            Err(OracleError::Unsupported(_)) => None,
            Err(e) => return Err(PlanError::Oracle(e)),
        };
        if hit {
            self.hits += 1;
        } else {
            self.evals += 1;
        }
        self.trace.push(idx);
        let score = match verdict {
            None => None,
            Some(Capped::Counted(rec)) if rec.remote_reads < remote_cap => {
                self.evaluated += 1;
                Some(self.fold(idx, rec))
            }
            Some(_) => {
                self.evaluated += 1;
                self.capped += 1;
                Some(f64::INFINITY)
            }
        };
        self.seen.insert(idx, score);
        Ok(score)
    }

    /// Fold the full record of `idx` into the incumbent; its score.
    fn fold(&mut self, idx: usize, rec: RunRecord) -> f64 {
        let score = self.objective.score(&rec);
        if let Some((_, best_rec, _)) = &self.best {
            // The caps' premises ([`Walk::remote_cap`]).
            debug_assert_eq!(rec.total_reads, best_rec.total_reads, "reads moved");
        }
        let at = self.cands.coords(idx);
        if let Some(&Some(term)) = self.terms.get(&(at.0, at.1)) {
            let floor = capped_score(rec.remote_reads, rec.total_reads, term);
            debug_assert!(floor <= score, "the imbalance term exceeds its bound");
        }
        if let Some(&Some(fetches)) = self.fetches.get(&(at.0, at.1)) {
            debug_assert!(
                fetches <= rec.remote_reads,
                "the remote-read floor exceeds the reads"
            );
        }
        debug_assert!(
            self.reads.is_none_or(|reads| reads == rec.total_reads),
            "reads miscounted"
        );
        let wins = match &self.best {
            None => true,
            Some((best_idx, best_rec, _)) => {
                // Total order: score, then messages, then canonical grid
                // index — in canonical visit order this is exactly
                // `BestConfig::beats`, and out of order it selects the
                // same global minimum.
                BestConfig::beats(self.objective, &rec, best_rec)
                    || (!BestConfig::beats(self.objective, best_rec, &rec) && idx < *best_idx)
            }
        };
        if wins {
            self.best = Some((idx, rec, score));
        }
        score
    }

    /// How many distinct candidates this walk has measured so far (memo
    /// hits included) — the quantity the budget caps, so walks replay
    /// identically on a warm cache.
    fn touched(&self) -> usize {
        self.trace.len()
    }

    /// The prune-or-visit loop every walk but annealing's runs: each
    /// candidate of `order` is pruned ([`Walk::prunable`]) or measured
    /// under a remote-read cap, until `budget` candidates are touched and
    /// an incumbent stands.
    fn walk(
        &mut self,
        order: impl IntoIterator<Item = usize>,
        budget: usize,
    ) -> Result<(), PlanError> {
        for idx in order {
            if self.touched() >= budget && self.best.is_some() {
                break;
            }
            if self.prunable(idx) {
                self.prune(idx);
                continue;
            }
            self.visit(idx)?;
        }
        Ok(())
    }

    /// Branch and bound: page sizes smallest first, and within one the
    /// candidates by ascending lower bound ([`Walk::lower_bound`]),
    /// canonical index breaking ties, through [`Walk::walk`] without a
    /// budget. Every candidate is measured or proven unable to win, so the
    /// winner is the exhaustive one.
    fn branch_and_bound(&mut self) -> Result<(), PlanError> {
        let cands = self.cands;
        let mut pages: Vec<usize> = (0..cands.page_sizes.len()).collect();
        pages.sort_by_key(|&p| cands.page_sizes[p]);
        for page in pages {
            self.price_floors(page);
            let mut order = Vec::with_capacity(cands.schemes.len() * cands.n_networks);
            for s in 0..cands.schemes.len() {
                for n in 0..cands.n_networks {
                    let idx = cands.index(s, page, n);
                    order.push((self.lower_bound(idx).unwrap_or(0.0), idx));
                }
            }
            order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            self.walk(order.into_iter().map(|(_, idx)| idx), usize::MAX)?;
        }
        Ok(())
    }

    /// Price the imbalance terms at page-size position `page` and the
    /// remote-read floor ([`AnchorProfile::fetch_floor`]) of every scheme
    /// there whose term alone does not exceed the incumbent's score — a
    /// scheme whose term does is pruned whatever its floor. The profile is
    /// freed on return, before any candidate of the page is measured.
    fn price_floors(&mut self, page: usize) {
        let mut profile = self.price_terms(page);
        let incumbent = self.best.as_ref().map_or(f64::INFINITY, |best| best.2);
        for s in 0..self.cands.schemes.len() {
            let term = self.terms[&(s, page)].unwrap_or(0.0);
            let cfg = self.cands.config(self.cands.index(s, page, 0));
            let fetches = match self.reads {
                Some(_) if term <= incumbent => profile
                    .get_or_insert_with(|| self.profile(page))
                    .fetch_floor(cfg.partition, cfg.n_pes),
                _ => None,
            };
            self.fetches.insert((s, page), fetches);
        }
    }

    /// Project the walk into a [`SearchReport`]; errors when every
    /// touched candidate was oracle-unsupported.
    fn finish(self, strategy: Strategy) -> Result<SearchReport, PlanError> {
        let (winner_index, record, score) = self.best.ok_or_else(|| {
            PlanError::Oracle(OracleError::Unsupported(
                "every candidate configuration was unsupported by the oracle".into(),
            ))
        })?;
        let best = BestConfig {
            scheme: record.cfg.partition,
            page_size: record.cfg.page_size,
            remote_pct: record.remote_pct,
            messages: record.messages,
            write_balance: record.write_balance,
            score,
            evaluated: self.evaluated,
            pruned: self.pruned_set.len(),
        };
        Ok(SearchReport {
            best,
            record,
            winner_index,
            strategy,
            space_size: self.cands.len(),
            oracle_evals: self.evals,
            cache_hits: self.hits,
            capped: self.capped,
            floor_pruned: self.floor_pruned,
            trace: self.trace,
        })
    }
}

/// A candidate's objective score at `remote` of `total` reads remote, its
/// imbalance term `term` added: computed as [`sa_machine::Stats::remote_read_pct`]
/// and [`Objective::score`] compute it, so monotone in `remote`.
fn capped_score(remote: u64, total: u64, term: f64) -> f64 {
    let pct = if total == 0 {
        0.0
    } else {
        100.0 * remote as f64 / total as f64
    };
    pct + term
}

/// Sampled static evidence of one RAW edge: pairs of (write address,
/// read address) the reader's statement touches at corner/interior
/// iterations, plus the edge's estimated dynamic weight.
struct EdgeProbe {
    write_array: ArrayId,
    read_array: ArrayId,
    weight: f64,
    pairs: Vec<(usize, usize)>,
}

/// Rank every candidate by the write-to-read *misalignment* its
/// placement induces: for each RAW edge of the dependence graph, sample
/// the reader nest's iteration space and compare the owner of the
/// written element (the writer-side placement being pushed forward) with
/// the owners of the elements it reads. Alignment depends only on
/// `(scheme, page size)`, so the cost is computed once per placement and
/// broadcast across the topology axis; ties (including every candidate
/// of a program with no probeable edges) fall back to canonical order,
/// keeping the ranking a deterministic permutation.
fn propagation_order(program: &Program, cands: &Candidates) -> Vec<usize> {
    let probes = edge_probes(program);
    let n_pages = cands.page_sizes.len();
    let mut cost = vec![0.0f64; cands.schemes.len() * n_pages];
    if !probes.is_empty() {
        for (si, &scheme) in cands.schemes.iter().enumerate() {
            for (pi, &page) in cands.page_sizes.iter().enumerate() {
                cost[si * n_pages + pi] = misalignment(program, &probes, scheme, page, cands.n_pes);
            }
        }
    }
    let mut order: Vec<usize> = (0..cands.len()).collect();
    order.sort_by(|&a, &b| {
        let (sa, pa, _) = cands.coords(a);
        let (sb, pb, _) = cands.coords(b);
        cost[sa * n_pages + pa]
            .total_cmp(&cost[sb * n_pages + pb])
            .then(a.cmp(&b))
    });
    order
}

/// Collect per-edge address samples: every RAW edge whose reader is an
/// affine statement contributes the write/read address pairs at sampled
/// iterations of the reader's nest. Indirect references and scalar
/// broadcasts contribute nothing (their ownership is runtime-resolved),
/// which leaves their candidates ranked by canonical order — never
/// wrongly ranked.
fn edge_probes(program: &Program) -> Vec<EdgeProbe> {
    let graph = DepGraph::build(program);
    let mut out = Vec::new();
    for e in &graph.edges {
        let Some(read_array) = e.array else { continue };
        let Some(Phase::Loop(nest)) = program.phases.get(e.reader.phase) else {
            continue;
        };
        let Some(stmt) = nest.body.get(e.reader.stmt) else {
            continue;
        };
        let Some(anchor) = analysis::anchor_ref(stmt) else {
            continue;
        };
        if anchor.has_indirection() {
            continue;
        }
        let nvars = nest.loops.len();
        let Some(wform) = analysis::linear_address_form(program, anchor, nvars) else {
            continue;
        };
        let rforms: Vec<LinForm> = stmt
            .value()
            .reads()
            .into_iter()
            .filter(|r| r.array == read_array && !r.has_indirection())
            .filter_map(|r| analysis::linear_address_form(program, r, nvars))
            .collect();
        if rforms.is_empty() {
            continue;
        }
        let write_len = program.array(anchor.array).len() as i64;
        let read_len = program.array(read_array).len() as i64;
        let mut pairs = Vec::new();
        for ivs in sample_ivs(nest) {
            let wa = wform.eval(&ivs);
            if wa < 0 || wa >= write_len {
                continue;
            }
            for rform in &rforms {
                let ra = rform.eval(&ivs);
                if ra < 0 || ra >= read_len {
                    continue;
                }
                pairs.push((wa as usize, ra as usize));
            }
        }
        if pairs.is_empty() {
            continue;
        }
        out.push(EdgeProbe {
            write_array: anchor.array,
            read_array,
            weight: trip_estimate(nest) * rforms.len() as f64,
            pairs,
        });
    }
    out
}

/// Estimated dynamic iteration count of a nest (outer-dependent bounds
/// evaluated at the low corner — an estimate is all the ranking needs).
fn trip_estimate(nest: &sa_ir::LoopNest) -> f64 {
    let mut outer: Vec<i64> = Vec::new();
    let mut total = 1.0f64;
    for lv in &nest.loops {
        total *= lv.trip_count(&outer).max(1) as f64;
        outer.push(lv.lo.eval(&outer));
    }
    total
}

/// Corner/interior samples of a nest's iteration space: per level the
/// first, one-third, two-thirds and last iterations (deduplicated),
/// crossed across levels and capped — boundary iterations are where
/// page-crossing misalignment shows.
fn sample_ivs(nest: &sa_ir::LoopNest) -> Vec<Vec<i64>> {
    let mut out: Vec<Vec<i64>> = vec![Vec::new()];
    for lv in &nest.loops {
        let mut next = Vec::new();
        for prefix in &out {
            let trips = lv.trip_count(prefix);
            if trips == 0 {
                continue;
            }
            let lo = lv.lo.eval(prefix);
            let last = (trips - 1) as i64;
            let mut ks = vec![0, last / 3, 2 * last / 3, last];
            ks.sort_unstable();
            ks.dedup();
            for k in ks {
                let mut v = prefix.clone();
                v.push(lo + k * lv.step);
                next.push(v);
            }
        }
        out = next;
        if out.len() > 256 {
            out.truncate(256);
        }
    }
    out
}

/// Weighted misaligned fraction of all probes under one placement: for
/// each sampled (write, read) pair, does the element written live on a
/// different PE than the element read? Lower is better — zero means the
/// writer's placement, pushed onto the arrays it reads, keeps every
/// sampled dependence PE-local.
fn misalignment(
    program: &Program,
    probes: &[EdgeProbe],
    scheme: PartitionScheme,
    page_size: usize,
    n_pes: usize,
) -> f64 {
    let Ok(placements) = Placement::table(
        program.arrays.iter().map(|d| &d.dims),
        scheme,
        page_size,
        n_pes,
    ) else {
        // An invalid shape may rank anywhere: measuring it reports the error.
        return 0.0;
    };
    let mut total = 0.0f64;
    for p in probes {
        let wp = &placements[p.write_array.0];
        let rp = &placements[p.read_array.0];
        let mis = p
            .pairs
            .iter()
            .filter(|&&(wa, ra)| wp.owner_of_addr(wa) != rp.owner_of_addr(ra))
            .count();
        total += p.weight * mis as f64 / p.pairs.len() as f64;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Engine;
    use sa_ir::index::iv;
    use sa_ir::{InitPattern, ProgramBuilder};
    use sa_machine::NetworkTopology;

    fn stream(n: usize) -> Program {
        let mut b = ProgramBuilder::new("stream");
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

    fn wide_space() -> SearchSpace {
        SearchSpace {
            networks: vec![NetworkTopology::Ideal, NetworkTopology::Mesh2D],
            ..SearchSpace::default()
        }
    }

    #[test]
    fn candidate_indexing_round_trips() {
        let c = Candidates::materialize(&wide_space()).unwrap();
        assert_eq!(c.len(), 7 * 6 * 2);
        for idx in 0..c.len() {
            let (s, p, n) = c.coords(idx);
            assert_eq!(c.index(s, p, n), idx);
            let cfg = c.config(idx);
            assert_eq!(cfg.partition, c.schemes[s]);
            assert_eq!(cfg.page_size, c.page_sizes[p]);
        }
    }

    #[test]
    fn fingerprint_distinguishes_relabelings() {
        let p = stream(64);
        let mut q = p.clone();
        q.name.push('!');
        assert_ne!(program_fingerprint(&p), program_fingerprint(&q));
        let mut r = stream(64);
        r.arrays[0].name = "Z".into();
        assert_ne!(program_fingerprint(&p), program_fingerprint(&r));
        assert_ne!(
            program_fingerprint(&stream(64)),
            program_fingerprint(&stream(65))
        );
        assert_eq!(program_fingerprint(&p), program_fingerprint(&stream(64)));
    }

    #[test]
    fn memo_oracle_counts_hits_and_misses() {
        let memo = MemoOracle::new(Box::new(FastCountingOracle::with_engine(Engine::Interp)));
        let p = stream(64);
        let cfg = RunConfig::default();
        let (a, hit_a) = memo.measure_tracked(&p, &cfg);
        let (b, hit_b) = memo.measure_tracked(&p, &cfg);
        assert!(!hit_a);
        assert!(hit_b);
        assert_eq!(a.unwrap(), b.unwrap());
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
    }

    #[test]
    fn memo_oracle_keeps_exceeded_caps_beside_full_records() {
        // Replay stops at the cap, so what the memo learns is that it was
        // reached.
        let memo = MemoOracle::new(Box::new(FastCountingOracle::with_engine(Engine::Replay)));
        let p = stream(256);
        let cfg = RunConfig {
            n_pes: 4,
            page_size: 8,
            ..RunConfig::default()
        };
        let remote = FastCountingOracle::with_engine(Engine::Interp)
            .measure(&p, &cfg)
            .unwrap()
            .remote_reads;
        assert!(remote > 4, "the stream reads across PEs");
        let ask = |cap| {
            let (answer, hit) = memo.measure_capped_tracked(&p, &cfg, cap);
            (matches!(answer.unwrap(), Capped::Exceeded), hit)
        };
        // An exceeded cap answers caps at or below it, not above.
        assert_eq!(ask(remote - 1), (true, false));
        assert_eq!(ask(remote - 1), (true, true));
        assert_eq!(ask(2), (true, true));
        assert_eq!(ask(remote), (true, false));
        // An exact query measures again; its record answers every cap.
        let (rec, hit) = memo.measure_tracked(&p, &cfg);
        assert!(!hit);
        assert_eq!(rec.unwrap().remote_reads, remote);
        assert_eq!(ask(remote + 1), (false, true));
        assert_eq!(ask(remote), (false, true));
        assert_eq!((memo.hits(), memo.misses()), (4, 3));
    }

    #[test]
    fn memo_oracle_keeps_a_full_measurement_made_under_a_cap() {
        // The default `measure_capped` measures in full: past the cap or
        // not, the record is kept and answers a later uncapped query.
        let memo = MemoOracle::new(Box::new(FastCountingOracle::with_engine(Engine::Interp)));
        let p = stream(256);
        let cfg = RunConfig {
            n_pes: 4,
            page_size: 8,
            ..RunConfig::default()
        };
        let full = FastCountingOracle::with_engine(Engine::Interp)
            .measure(&p, &cfg)
            .unwrap();
        let (answer, hit) = memo.measure_capped_tracked(&p, &cfg, 1);
        assert!(!hit);
        assert_eq!(answer.unwrap(), Capped::Counted(full.clone()));
        let (rec, hit) = memo.measure_tracked(&p, &cfg);
        assert!(hit);
        assert_eq!(rec.unwrap(), full);
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
    }

    #[test]
    fn every_strategy_finds_the_same_winner_on_a_small_space() {
        let p = stream(256);
        let space = wide_space();
        let mut winners = Vec::new();
        for strategy in [Strategy::Exhaustive, Strategy::Anneal, Strategy::Propagate] {
            let s = Searcher::new(
                &space,
                Box::new(FastCountingOracle::with_engine(Engine::Interp)),
                StrategyParams {
                    strategy,
                    budget: 1000, // covers the space: exact by construction
                    ..StrategyParams::default()
                },
            )
            .unwrap();
            let rep = s.search(&p).unwrap();
            assert_eq!(rep.space_size, 7 * 6 * 2);
            winners.push((
                rep.best.scheme,
                rep.best.page_size,
                rep.best.score.to_bits(),
                rep.best.messages,
            ));
        }
        assert_eq!(winners[0], winners[1]);
        assert_eq!(winners[0], winners[2]);
    }

    #[test]
    fn propagation_order_is_a_permutation() {
        let p = stream(128);
        let c = Candidates::materialize(&wide_space()).unwrap();
        let order = propagation_order(&p, &c);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..c.len()).collect::<Vec<_>>());
    }
}
