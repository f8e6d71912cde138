//! Scalable partition search over the full
//! `scheme × tile shape × page size × topology` space: one prune-or-visit
//! loop (`Walk::walk`) that visits candidates by a static lower bound on
//! their score, backed by a memoizing oracle cache.
//!
//! Each candidate's lower bound is its imbalance term
//! (`static_score_bound`, from the anchor profile's per-PE writes) plus its
//! **remote-read floor** ([`AnchorProfile::fetch_floor`]) as a share of the
//! run's reads, which owner-computes makes the same for every candidate
//! ([`depgraph::read_count`]). Under single assignment a PE fetches every
//! remote page it reads at least once, whatever the cache, so the distinct
//! (PE, remote page) pairs of the translation reads (an array shaped like
//! the anchor's, at the anchor's address plus a constant) are a floor,
//! priced in closed form over the profile's page runs. A candidate whose
//! bound exceeds the incumbent's score is pruned. Two visit orders feed the
//! loop:
//!
//! - **Branch and bound** — [`Strategy::Exhaustive`], or any strategy
//!   under a budget that covers the space. Page sizes are visited smallest
//!   first, and within one the candidates by ascending bound, canonical
//!   index breaking ties. A floor is priced only for a scheme whose
//!   imbalance term does not already lose to the incumbent.
//! - **Bound walk** — any other strategy under a budget short of the
//!   space. Every page size's terms and floors are priced first, in
//!   parallel over the page sizes, and all candidates are visited by
//!   ascending bound, canonical index breaking ties, until `budget` of them
//!   are measured. `anneal` and `propagate` are spellings of it, kept for
//!   existing command lines; nothing in it is random or sampled.
//!
//! Both measure each candidate under a remote-read cap
//! ([`Oracle::measure_capped`]): the fewest remote reads at which its score
//! provably exceeds the incumbent's (`Walk::remote_cap`), past which replay
//! stops counting.
//!
//! Every oracle evaluation goes through a [`MemoOracle`] keyed by
//! `(program fingerprint, RunConfig)` and shared across queries of one
//! [`Searcher`], so a kernel queried again is answered for free.
//!
//! **Exactness.** The winner order is total: objective score, then
//! messages, then canonical grid index. A walk that evaluates or soundly
//! prunes *every* candidate therefore returns the bit-exact
//! [`search_exhaustive_with`](crate::search::search_exhaustive_with)
//! winner regardless of visit order: the branch and bound always, and the
//! bound walk whenever it leaves no candidate unreached
//! ([`SearchReport::unreached`]) — the regimes
//! `tests/search_strategies.rs` certifies.

use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use sa_ir::{pretty, Program};
use sa_lint::depgraph::{self, AnchorProfile};
use sa_lint::LintConfig;
use sa_machine::PartitionScheme;

use crate::oracle::{of_last_program, FastCountingOracle, Oracle, OracleError, RunRecord};
use crate::parallel::par_map;
use crate::plan::{PlanError, RunConfig};
use crate::replay::Capped;
use crate::search::{static_score_bound, BestConfig, Objective, SearchSpace, WriteProjector};

/// Default evaluation budget: it covers the default space's 42
/// candidates, so a default search is the branch and bound.
pub const DEFAULT_BUDGET: usize = 64;

/// Which walk explores the candidate space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Branch and bound at any budget: page sizes smallest first, within
    /// one candidates by ascending static score bound (imbalance term plus
    /// remote-read floor). Every candidate is measured — capped once its
    /// remote reads prove it cannot win — or proven unable to win without
    /// measuring.
    Exhaustive,
    /// The bound walk under a budget short of the space, the branch and
    /// bound under one that covers it. A spelling kept for existing
    /// command lines, like [`Strategy::Propagate`].
    Anneal,
    /// Same walk as [`Strategy::Anneal`], under another kept spelling.
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
    /// Which walk runs.
    pub strategy: Strategy,
    /// Scoring objective (lower wins).
    pub objective: Objective,
    /// Accepted and ignored: no walk draws random numbers. Kept for
    /// callers that still set it.
    pub seed: u64,
    /// Maximum distinct candidates measured per query. Counted whether
    /// the measurement was a fresh oracle evaluation or a memo hit, so a
    /// walk is a pure function of `(program, space, budget)` — cache
    /// warmth changes what a query *costs*, never what it *does*
    /// (re-queries replay bit-identically with zero oracle calls).
    /// Statically pruned candidates are free. When the budget covers the
    /// whole space, every strategy runs the branch and bound.
    pub budget: usize,
}

impl Default for StrategyParams {
    /// Exhaustive walk, balanced objective and [`DEFAULT_BUDGET`].
    fn default() -> Self {
        StrategyParams {
            strategy: Strategy::Exhaustive,
            objective: Objective::default(),
            seed: 0,
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

/// The auto-selecting counting oracle under the name the search's
/// default backend had. Kept only for `benchmark/`, which
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
    /// The strategy the query was asked for, as spelled.
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
    /// Candidates neither measured nor pruned: the budget ran out before
    /// the walk reached them. Always 0 for the branch and bound.
    pub unreached: usize,
    /// Candidate indices in evaluation order — the determinism witness:
    /// same program, space and budget, same trace, bit for bit.
    pub trace: Vec<usize>,
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
    /// size it prices, prices every scheme from it at once and keeps
    /// none: a second query of the same program builds its own
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

    /// Run one kernel's walk ([`Searcher::walk_name`]): the bound walk
    /// under a budget short of the space, unless the strategy is
    /// `exhaustive`; the branch and bound otherwise — the certified walk,
    /// and the cheapest one that covers the space.
    pub fn search(&self, program: &Program) -> Result<SearchReport, PlanError> {
        let mut walk = Walk::new(program, self);
        match self.short_budget() {
            Some(budget) => walk.bound_walk(budget)?,
            None => walk.branch_and_bound()?,
        }
        walk.finish(self.params.strategy)
    }

    /// The budget the bound walk runs under, or `None` when queries run the
    /// branch and bound.
    fn short_budget(&self) -> Option<usize> {
        let budget = self.params.budget;
        let short = self.params.strategy != Strategy::Exhaustive && budget < self.cands.len();
        short.then_some(budget)
    }

    /// The walk every query of this searcher runs, by name:
    /// `branch and bound`, or `bound walk, budget K`.
    pub fn walk_name(&self) -> String {
        match self.short_budget() {
            Some(budget) => format!("bound walk, budget {budget}"),
            None => "branch and bound".into(),
        }
    }
}

/// What a walk priced of one `(scheme, page size)` axis position — the
/// bound does not depend on the network axis.
#[derive(Debug, Clone, Copy)]
struct Bound {
    /// The imbalance term (`static_score_bound`), where the objective has
    /// one and the program projects.
    term: Option<f64>,
    /// The remote-read floor, where it was priced.
    fetches: Option<u64>,
}

/// Per-query walk state: the bounds priced, the incumbent under the total
/// winner order, and the evaluation trace.
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
    /// Per `(scheme, page size)` axis position, priced before any of its
    /// candidates is visited.
    bounds: HashMap<(usize, usize), Bound>,
    trace: Vec<usize>,
    evals: usize,
    hits: usize,
    evaluated: usize,
    capped: usize,
    pruned: usize,
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
            bounds: HashMap::new(),
            trace: Vec::new(),
            evals: 0,
            hits: 0,
            evaluated: 0,
            capped: 0,
            pruned: 0,
            floor_pruned: 0,
            best: None,
        }
    }

    /// The incumbent's score, infinite before there is one.
    fn incumbent(&self) -> f64 {
        self.best.as_ref().map_or(f64::INFINITY, |best| best.2)
    }

    /// What the walk priced at `idx`'s axis position.
    fn bound(&self, idx: usize) -> Bound {
        let (scheme, page, _) = self.cands.coords(idx);
        self.bounds[&(scheme, page)]
    }

    /// `idx`'s lower bound on its score: its imbalance term, plus its
    /// remote-read floor's share of the run's reads where the walk priced
    /// that floor. It under-approximates the true score, so a candidate
    /// whose bound exceeds the incumbent's score can never win under the
    /// total order, whatever the visit order.
    fn lower_bound(&self, idx: usize) -> Option<f64> {
        let bound = self.bound(idx);
        match (bound.fetches, self.reads) {
            (Some(fetches), Some(reads)) => {
                Some(capped_score(fetches, reads, bound.term.unwrap_or(0.0)))
            }
            _ => bound.term,
        }
    }

    /// Price every scheme at page-size position `page`: its imbalance term,
    /// from the anchor profile when the objective has the term and no
    /// reference projection stands in, and its remote-read floor
    /// ([`AnchorProfile::fetch_floor`]) where the term alone does not
    /// exceed `incumbent` — a scheme whose term does is pruned whatever its
    /// floor. At most one profile is built, and it is freed on return.
    fn price(&self, page: usize, incumbent: f64) -> Vec<Bound> {
        let (program, objective) = (self.program, self.objective);
        let projects = self.reference.is_none() && matches!(objective, Objective::Balanced { .. });
        let mut profile = projects.then(|| self.profile(page));
        let schemes = 0..self.cands.schemes.len();
        let cfgs = schemes.map(|s| self.cands.config(self.cands.index(s, page, 0)));
        cfgs.map(|cfg| {
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
            let fetches = match self.reads {
                Some(_) if term.unwrap_or(0.0) <= incumbent => profile
                    .get_or_insert_with(|| self.profile(page))
                    .fetch_floor(cfg.partition, cfg.n_pes),
                _ => None,
            };
            Bound { term, fetches }
        })
        .collect()
    }

    /// Keep what [`Walk::price`] priced at page-size position `page`.
    fn record(&mut self, page: usize, priced: Vec<Bound>) {
        for (scheme, bound) in priced.into_iter().enumerate() {
            self.bounds.insert((scheme, page), bound);
        }
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
    fn remote_cap(&self, idx: usize) -> u64 {
        let Some((_, best, incumbent)) = &self.best else {
            return u64::MAX;
        };
        let (total, incumbent) = (best.total_reads, *incumbent);
        let term = self.bound(idx).term.unwrap_or(0.0);
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

    /// Record a prune: one the imbalance term alone does not prove unable
    /// to win, its remote-read floor did.
    fn prune(&mut self, idx: usize) {
        self.pruned += 1;
        let by_term = self.bound(idx).term.is_some_and(|t| t > self.incumbent());
        self.floor_pruned += usize::from(!by_term);
    }

    /// Measure `idx` until it provably loses to the incumbent
    /// ([`Walk::remote_cap`]), count it, and fold a record below the cap
    /// into the incumbent.
    fn visit(&mut self, idx: usize) -> Result<(), PlanError> {
        let remote_cap = self.remote_cap(idx);
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
        match verdict {
            None => {}
            Some(Capped::Counted(rec)) if rec.remote_reads < remote_cap => {
                self.evaluated += 1;
                self.fold(idx, rec);
            }
            Some(_) => {
                self.evaluated += 1;
                self.capped += 1;
            }
        }
        Ok(())
    }

    /// Fold the full record of `idx` into the incumbent.
    fn fold(&mut self, idx: usize, rec: RunRecord) {
        let score = self.objective.score(&rec);
        if let Some((_, best_rec, _)) = &self.best {
            // The caps' premises ([`Walk::remote_cap`]).
            debug_assert_eq!(rec.total_reads, best_rec.total_reads, "reads moved");
        }
        let bound = self.bound(idx);
        if let Some(term) = bound.term {
            let floor = capped_score(rec.remote_reads, rec.total_reads, term);
            debug_assert!(floor <= score, "the imbalance term exceeds its bound");
        }
        if let Some(fetches) = bound.fetches {
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
    }

    /// The prune-or-visit loop both walks run: each candidate of `order` is
    /// pruned when its lower bound exceeds the incumbent's score, and
    /// measured under a remote-read cap otherwise, until `budget`
    /// candidates are measured (memo hits included, so walks replay
    /// identically on a warm cache) and an incumbent stands.
    fn walk(&mut self, order: Vec<usize>, budget: usize) -> Result<(), PlanError> {
        for idx in order {
            if self.trace.len() >= budget && self.best.is_some() {
                break;
            }
            if self.lower_bound(idx).is_some_and(|b| b > self.incumbent()) {
                self.prune(idx);
            } else {
                self.visit(idx)?;
            }
        }
        Ok(())
    }

    /// `idxs` by ascending lower bound, canonical index breaking ties.
    fn by_bound(&self, idxs: impl Iterator<Item = usize>) -> Vec<usize> {
        let mut order: Vec<(f64, usize)> = idxs
            .map(|idx| (self.lower_bound(idx).unwrap_or(0.0), idx))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        order.into_iter().map(|(_, idx)| idx).collect()
    }

    /// Branch and bound: page sizes smallest first, each priced against the
    /// incumbent when the walk reaches it ([`Walk::price`]), and within one
    /// the candidates [`Walk::by_bound`], through [`Walk::walk`] without a
    /// budget. Every candidate is measured or proven unable to win, so the
    /// winner is the exhaustive one.
    fn branch_and_bound(&mut self) -> Result<(), PlanError> {
        let cands = self.cands;
        let mut pages: Vec<usize> = (0..cands.page_sizes.len()).collect();
        pages.sort_by_key(|&p| cands.page_sizes[p]);
        for page in pages {
            let priced = self.price(page, self.incumbent());
            self.record(page, priced);
            let schemes = 0..cands.schemes.len();
            let idxs =
                schemes.flat_map(|s| (0..cands.n_networks).map(move |n| cands.index(s, page, n)));
            let order = self.by_bound(idxs);
            self.walk(order, usize::MAX)?;
        }
        Ok(())
    }

    /// The bound walk: every page size priced before any candidate is
    /// measured, in one [`par_map`] over the page sizes, then every
    /// candidate [`Walk::by_bound`] through [`Walk::walk`] under `budget`.
    fn bound_walk(&mut self, budget: usize) -> Result<(), PlanError> {
        let pages: Vec<usize> = (0..self.cands.page_sizes.len()).collect();
        let priced = par_map(&pages, |&page| {
            Ok::<_, Infallible>(self.price(page, f64::INFINITY))
        })
        .unwrap_or_else(|e| match e {});
        for (page, priced) in pages.into_iter().zip(priced) {
            self.record(page, priced);
        }
        let order = self.by_bound(0..self.cands.len());
        self.walk(order, budget)
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
            pruned: self.pruned,
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
            unreached: self.cands.len() - self.trace.len() - self.pruned,
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
}
