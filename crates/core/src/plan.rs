//! Composable experiment plans: typed sweep axes crossed into a lazily
//! enumerated grid of [`RunConfig`]s.
//!
//! Every figure in the paper is an instance of one shape — "vary machine
//! or partition parameters, count remote reads" — and this module is that
//! shape, reified. An [`ExperimentPlan`] is an ordered list of [`Axis`]
//! values; their cross product is a grid enumerated in mixed-radix order
//! (first axis outermost / slowest-varying, matching a nest of sequential
//! `for` loops in axis order). Each grid point is a [`RunConfig`], every
//! field of which defaults to the paper's reference machine (16 PEs, page
//! size 32, 256-element LRU cache, modulo placement, ideal network) unless
//! an axis varies it or [`ExperimentPlan::base`] overrides it.
//!
//! Evaluation is delegated to an [`crate::oracle::Oracle`] (the counting
//! simulator by default) and fanned out across threads by
//! [`crate::parallel::par_map`]; results come back as a
//! [`crate::results::ResultSet`] whose group-by/pivot helpers select
//! series by predicate instead of relying on enumeration order.

use sa_ir::Program;
use sa_machine::{
    CachePolicy, ConfigError, MachineConfig, NetworkTopology, PartialPagePolicy, PartitionScheme,
};

use crate::oracle::{Oracle, OracleError};
use crate::parallel::par_map;
use crate::results::ResultSet;

/// One typed sweep axis: the values a single machine/partition parameter
/// takes across the grid.
#[derive(Debug, Clone, PartialEq)]
pub enum Axis {
    /// PE counts (simulation parameter 1, §6).
    Pes(Vec<usize>),
    /// Page sizes in elements (simulation parameter 2, §6).
    PageSize(Vec<usize>),
    /// Cache sizes in elements (`0` disables caching — the "No Cache"
    /// series of Figures 1–4; `256` is the paper's fixed size).
    Cache(Vec<usize>),
    /// Cache replacement policies (§4 chose LRU).
    CachePolicy(Vec<CachePolicy>),
    /// Page placement schemes (§2 modulo vs the §9 division scheme).
    Partition(Vec<PartitionScheme>),
    /// Partial-page semantics (§4 ignores; §8 acknowledges refetching).
    PartialPage(Vec<PartialPagePolicy>),
    /// Interconnect models for the message/hop accounting of §9.
    Network(Vec<NetworkTopology>),
    /// Kernel codes (e.g. `"K12"`), resolved to programs at run time by
    /// [`ExperimentPlan::run_kernels`].
    Kernel(Vec<String>),
}

impl Axis {
    /// Stable name used in error messages and duplicate detection.
    pub fn name(&self) -> &'static str {
        match self {
            Axis::Pes(_) => "pes",
            Axis::PageSize(_) => "page_size",
            Axis::Cache(_) => "cache",
            Axis::CachePolicy(_) => "cache_policy",
            Axis::Partition(_) => "partition",
            Axis::PartialPage(_) => "partial_page",
            Axis::Network(_) => "network",
            Axis::Kernel(_) => "kernel",
        }
    }

    /// Number of values on this axis.
    pub fn len(&self) -> usize {
        match self {
            Axis::Pes(v) => v.len(),
            Axis::PageSize(v) => v.len(),
            Axis::Cache(v) => v.len(),
            Axis::CachePolicy(v) => v.len(),
            Axis::Partition(v) => v.len(),
            Axis::PartialPage(v) => v.len(),
            Axis::Network(v) => v.len(),
            Axis::Kernel(v) => v.len(),
        }
    }

    /// True if the axis holds no values (which [`ExperimentPlan::validate`]
    /// rejects as [`ConfigError::EmptyAxis`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write this axis's `i`-th value into `cfg`.
    fn apply(&self, i: usize, cfg: &mut RunConfig) {
        match self {
            Axis::Pes(v) => cfg.n_pes = v[i],
            Axis::PageSize(v) => cfg.page_size = v[i],
            Axis::Cache(v) => cfg.cache_elems = v[i],
            Axis::CachePolicy(v) => cfg.cache_policy = v[i],
            Axis::Partition(v) => cfg.partition = v[i],
            Axis::PartialPage(v) => cfg.partial_pages = v[i],
            Axis::Network(v) => cfg.network = v[i],
            Axis::Kernel(v) => cfg.kernel = Some(v[i].clone()),
        }
    }
}

/// One fully specified grid point: the machine parameters of a single
/// measurement, plus (when a [`Axis::Kernel`] axis is present) the kernel
/// it measures.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunConfig {
    /// Kernel code this point measures; `None` when the plan is run
    /// against a single program.
    pub kernel: Option<String>,
    /// PE count.
    pub n_pes: usize,
    /// Page size in elements.
    pub page_size: usize,
    /// Cache size in elements (0 disables caching).
    pub cache_elems: usize,
    /// Replacement policy.
    pub cache_policy: CachePolicy,
    /// Page placement scheme.
    pub partition: PartitionScheme,
    /// Partial-page semantics.
    pub partial_pages: PartialPagePolicy,
    /// Interconnect model.
    pub network: NetworkTopology,
}

impl Default for RunConfig {
    /// The paper's reference configuration: 16 PEs, page size 32,
    /// 256-element LRU cache, modulo placement, ideal network.
    fn default() -> Self {
        MachineConfig::new(16, 32).into()
    }
}

impl From<MachineConfig> for RunConfig {
    /// The grid point measuring machine `m` (against a single program).
    fn from(m: MachineConfig) -> Self {
        RunConfig {
            kernel: None,
            n_pes: m.n_pes,
            page_size: m.page_size,
            cache_elems: m.cache_elems,
            cache_policy: m.cache_policy,
            partition: m.partition,
            partial_pages: m.partial_pages,
            network: m.network,
        }
    }
}

impl RunConfig {
    /// The machine this grid point simulates.
    pub fn machine(&self) -> MachineConfig {
        MachineConfig::new(self.n_pes, self.page_size)
            .with_cache_elems(self.cache_elems)
            .with_cache_policy(self.cache_policy)
            .with_partition(self.partition)
            .with_partial_pages(self.partial_pages)
            .with_network(self.network)
    }

    /// Legacy sweep flag: was a cache configured at all?
    pub fn cached(&self) -> bool {
        self.cache_elems > 0
    }
}

/// A composable sweep: typed axes crossed into a grid of [`RunConfig`]s.
///
/// ```
/// use sa_core::plan::{Axis, ExperimentPlan};
/// let plan = ExperimentPlan::new()
///     .page_sizes(&[32, 64])
///     .cache_flags(&[true, false])
///     .pes(&[1, 2, 4, 8]);
/// assert_eq!(plan.len(), 2 * 2 * 4);
/// // First axis outermost: page size varies slowest.
/// let first = plan.config_at(0);
/// assert_eq!((first.page_size, first.cached(), first.n_pes), (32, true, 1));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExperimentPlan {
    axes: Vec<Axis>,
    base: RunConfig,
}

impl ExperimentPlan {
    /// An empty plan over the paper's reference configuration. With no
    /// axes it enumerates exactly one point: the base config itself.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the defaults every grid point starts from (fields no axis
    /// varies keep the base's values).
    pub fn base(mut self, base: RunConfig) -> Self {
        self.base = base;
        self
    }

    /// Append an axis. The first axis added is outermost (slowest-varying)
    /// in enumeration order, exactly like the outermost `for` loop of the
    /// sequential sweep it replaces.
    pub fn axis(mut self, axis: Axis) -> Self {
        self.axes.push(axis);
        self
    }

    /// Shorthand for [`Axis::Pes`].
    pub fn pes(self, v: &[usize]) -> Self {
        self.axis(Axis::Pes(v.to_vec()))
    }

    /// Shorthand for [`Axis::PageSize`].
    pub fn page_sizes(self, v: &[usize]) -> Self {
        self.axis(Axis::PageSize(v.to_vec()))
    }

    /// Shorthand for [`Axis::Cache`] (sizes in elements).
    pub fn cache_elems(self, v: &[usize]) -> Self {
        self.axis(Axis::Cache(v.to_vec()))
    }

    /// Shorthand for the legacy cache on/off axis: `true` is the paper's
    /// 256-element cache, `false` disables caching.
    pub fn cache_flags(self, v: &[bool]) -> Self {
        self.axis(Axis::Cache(
            v.iter().map(|&on| if on { 256 } else { 0 }).collect(),
        ))
    }

    /// Shorthand for [`Axis::CachePolicy`].
    pub fn cache_policies(self, v: &[CachePolicy]) -> Self {
        self.axis(Axis::CachePolicy(v.to_vec()))
    }

    /// Shorthand for [`Axis::Partition`].
    pub fn partitions(self, v: &[PartitionScheme]) -> Self {
        self.axis(Axis::Partition(v.to_vec()))
    }

    /// Shorthand for [`Axis::PartialPage`].
    pub fn partial_pages(self, v: &[PartialPagePolicy]) -> Self {
        self.axis(Axis::PartialPage(v.to_vec()))
    }

    /// Shorthand for [`Axis::Network`].
    pub fn networks(self, v: &[NetworkTopology]) -> Self {
        self.axis(Axis::Network(v.to_vec()))
    }

    /// Shorthand for [`Axis::Kernel`].
    pub fn kernels<S: AsRef<str>>(self, v: &[S]) -> Self {
        self.axis(Axis::Kernel(
            v.iter().map(|s| s.as_ref().to_string()).collect(),
        ))
    }

    /// The axes in insertion (enumeration) order.
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// Reject degenerate plans: an empty axis makes the cross product
    /// empty ([`ConfigError::EmptyAxis`]); a repeated axis kind would
    /// double-count a parameter ([`ConfigError::DuplicateAxis`]).
    pub fn validate(&self) -> Result<(), ConfigError> {
        let mut seen: Vec<&'static str> = Vec::with_capacity(self.axes.len());
        for axis in &self.axes {
            if axis.is_empty() {
                return Err(ConfigError::EmptyAxis { axis: axis.name() });
            }
            if seen.contains(&axis.name()) {
                return Err(ConfigError::DuplicateAxis { axis: axis.name() });
            }
            seen.push(axis.name());
        }
        Ok(())
    }

    /// Number of grid points (the product of the axis lengths; 1 for an
    /// axis-free plan, 0 if any axis is empty).
    pub fn len(&self) -> usize {
        self.axes.iter().map(Axis::len).product()
    }

    /// True if the grid has no points (some axis is empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The grid point at mixed-radix index `i` (first axis outermost).
    ///
    /// Panics if `i >= self.len()`; use [`ExperimentPlan::configs`] for
    /// bounds-checked enumeration.
    pub fn config_at(&self, i: usize) -> RunConfig {
        assert!(i < self.len(), "grid index {i} out of {}", self.len());
        let mut cfg = self.base.clone();
        let mut rem = i;
        // Decode right-to-left: the last axis varies fastest.
        for axis in self.axes.iter().rev() {
            axis.apply(rem % axis.len(), &mut cfg);
            rem /= axis.len();
        }
        cfg
    }

    /// Lazily enumerate the grid in deterministic mixed-radix order.
    pub fn configs(&self) -> impl Iterator<Item = RunConfig> + '_ {
        (0..self.len()).map(|i| self.config_at(i))
    }

    /// Evaluate every grid point of a plan without a [`Axis::Kernel`] axis
    /// against `program`, fanning out across threads. Results keep grid
    /// order; [`OracleError::Unsupported`] points are dropped (fail soft),
    /// any other failure wins by lowest index, like a sequential `?` loop.
    pub fn run(&self, program: &Program, oracle: &dyn Oracle) -> Result<ResultSet, PlanError> {
        self.run_with(oracle, |cfg| match &cfg.kernel {
            None => Ok(program),
            Some(k) => Err(PlanError::UnknownKernel(k.clone())),
        })
    }

    /// Evaluate a plan with a [`Axis::Kernel`] axis: each grid point's
    /// kernel code is looked up in `programs` (pairs of code → program;
    /// codes match case-insensitively). Points without a kernel code —
    /// possible only when the plan has no kernel axis — are an
    /// [`PlanError::UnknownKernel`] error.
    pub fn run_kernels(
        &self,
        programs: &[(&str, &Program)],
        oracle: &dyn Oracle,
    ) -> Result<ResultSet, PlanError> {
        self.run_with(oracle, |cfg| match &cfg.kernel {
            Some(code) => programs
                .iter()
                .find(|(c, _)| c.eq_ignore_ascii_case(code))
                .map(|(_, p)| *p)
                .ok_or_else(|| PlanError::UnknownKernel(code.clone())),
            None => Err(PlanError::UnknownKernel("<none>".to_string())),
        })
    }

    /// Shared runner: validate, enumerate, resolve each point's program,
    /// and measure the grid concurrently through the oracle.
    ///
    /// Grid points the oracle rejects with [`OracleError::Unsupported`]
    /// fail soft: they are dropped from the result set instead of
    /// aborting the sweep, so mixed grids (e.g. a thread-oracle sweep
    /// crossing a network or kernel axis where only some points are
    /// executable) still report every point the oracle can measure. Any
    /// other failure aborts, lowest grid index first.
    fn run_with<'p>(
        &self,
        oracle: &dyn Oracle,
        resolve: impl Fn(&RunConfig) -> Result<&'p Program, PlanError> + Sync,
    ) -> Result<ResultSet, PlanError> {
        self.validate()?;
        let grid: Vec<RunConfig> = self.configs().collect();
        let records = par_map(&grid, |cfg| {
            let program = resolve(cfg)?;
            match oracle.measure(program, cfg) {
                Ok(rec) => Ok(Some(rec)),
                Err(OracleError::Unsupported(_)) => Ok(None),
                Err(e) => Err(PlanError::Oracle(e)),
            }
        })?;
        Ok(ResultSet::new(records.into_iter().flatten().collect()))
    }
}

/// Why a plan could not be evaluated.
#[derive(Debug)]
pub enum PlanError {
    /// The plan itself is degenerate (empty or duplicate axis).
    Config(ConfigError),
    /// A grid point failed to measure.
    Oracle(OracleError),
    /// A kernel code had no program to resolve to (or a kernel axis was
    /// run without [`ExperimentPlan::run_kernels`]).
    UnknownKernel(String),
}

impl core::fmt::Display for PlanError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PlanError::Config(e) => write!(f, "invalid plan: {e}"),
            PlanError::Oracle(e) => write!(f, "measurement failed: {e}"),
            PlanError::UnknownKernel(k) => write!(f, "no program for kernel `{k}`"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<ConfigError> for PlanError {
    fn from(e: ConfigError) -> Self {
        PlanError::Config(e)
    }
}

impl From<OracleError> for PlanError {
    fn from(e: OracleError) -> Self {
        PlanError::Oracle(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_plan() -> ExperimentPlan {
        ExperimentPlan::new()
            .page_sizes(&[32, 64])
            .cache_flags(&[true, false])
            .pes(&[1, 2, 4])
    }

    #[test]
    fn grid_size_is_axis_product() {
        assert_eq!(demo_plan().len(), 12);
        assert_eq!(ExperimentPlan::new().len(), 1);
        assert!(ExperimentPlan::new().pes(&[]).is_empty());
    }

    #[test]
    fn enumeration_matches_nested_loops() {
        // First axis outermost, exactly like the sequential triple loop.
        let got: Vec<(usize, bool, usize)> = demo_plan()
            .configs()
            .map(|c| (c.page_size, c.cached(), c.n_pes))
            .collect();
        let mut want = Vec::new();
        for ps in [32, 64] {
            for cached in [true, false] {
                for n in [1, 2, 4] {
                    want.push((ps, cached, n));
                }
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn base_fills_unswept_fields() {
        let plan = ExperimentPlan::new()
            .base(RunConfig {
                n_pes: 8,
                cache_elems: 1024,
                ..RunConfig::default()
            })
            .page_sizes(&[16]);
        let cfg = plan.config_at(0);
        assert_eq!(cfg.n_pes, 8);
        assert_eq!(cfg.cache_elems, 1024);
        assert_eq!(cfg.page_size, 16);
    }

    #[test]
    fn validation_catches_empty_and_duplicate_axes() {
        assert_eq!(
            ExperimentPlan::new().pes(&[1]).page_sizes(&[]).validate(),
            Err(ConfigError::EmptyAxis { axis: "page_size" })
        );
        assert_eq!(
            ExperimentPlan::new().pes(&[1]).pes(&[2]).validate(),
            Err(ConfigError::DuplicateAxis { axis: "pes" })
        );
        assert_eq!(demo_plan().validate(), Ok(()));
    }

    #[test]
    fn unsupported_grid_points_fail_soft() {
        use crate::oracle::{Engine, FastCountingOracle, RunRecord};
        use sa_ir::index::iv;
        use sa_ir::{InitPattern, ProgramBuilder};

        // An oracle with a supported-config subset, like ThreadOracle's
        // LRU-only/Ideal-only matrix: here, anything but 2 PEs.
        struct Picky;
        impl Oracle for Picky {
            fn name(&self) -> &'static str {
                "picky"
            }
            fn measure(
                &self,
                program: &Program,
                cfg: &RunConfig,
            ) -> Result<RunRecord, OracleError> {
                if cfg.n_pes == 2 {
                    return Err(OracleError::Unsupported("2 PEs unsupported".into()));
                }
                FastCountingOracle::with_engine(Engine::Interp).measure(program, cfg)
            }
        }

        let mut b = ProgramBuilder::new("tiny");
        let y = b.input("Y", &[128], InitPattern::Wavy);
        let x = b.output("X", &[128]);
        b.nest("s", &[("k", 0, 127)], |nb| {
            nb.assign(x, [iv(0)], nb.read(y, [iv(0)]) + 1.0);
        });
        let p = b.finish();

        // The 2-PE column drops out; the other grid points still report.
        let set = ExperimentPlan::new()
            .pes(&[1, 2, 4])
            .page_sizes(&[16, 32])
            .run(&p, &Picky)
            .expect("unsupported points must not abort the sweep");
        assert_eq!(set.len(), 4);
        assert!(set.records().iter().all(|r| r.cfg.n_pes != 2));
    }

    #[test]
    fn axis_permutation_preserves_the_config_set() {
        let a: Vec<RunConfig> = demo_plan().configs().collect();
        let b: Vec<RunConfig> = ExperimentPlan::new()
            .pes(&[1, 2, 4])
            .page_sizes(&[32, 64])
            .cache_flags(&[true, false])
            .configs()
            .collect();
        assert_eq!(a.len(), b.len());
        for cfg in &a {
            assert!(b.contains(cfg), "missing {cfg:?} after permutation");
        }
    }

    #[test]
    fn kernel_axis_tags_configs() {
        let plan = ExperimentPlan::new().kernels(&["K1", "K12"]).pes(&[2, 4]);
        let kernels: Vec<Option<String>> = plan.configs().map(|c| c.kernel).collect();
        assert_eq!(kernels[0].as_deref(), Some("K1"));
        assert_eq!(kernels[3].as_deref(), Some("K12"));
    }

    #[test]
    fn run_config_machine_carries_every_knob() {
        let cfg = RunConfig {
            n_pes: 4,
            page_size: 64,
            cache_elems: 512,
            cache_policy: CachePolicy::Fifo,
            partition: PartitionScheme::Block,
            partial_pages: PartialPagePolicy::Refetch,
            network: NetworkTopology::Hypercube,
            kernel: None,
        };
        let m = cfg.machine();
        assert_eq!(m.n_pes, 4);
        assert_eq!(m.page_size, 64);
        assert_eq!(m.cache_elems, 512);
        assert_eq!(m.cache_policy, CachePolicy::Fifo);
        assert_eq!(m.partition, PartitionScheme::Block);
        assert_eq!(m.partial_pages, PartialPagePolicy::Refetch);
        assert_eq!(m.network, NetworkTopology::Hypercube);
    }
}
