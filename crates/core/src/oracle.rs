//! Pluggable evaluation oracles: *how* a grid point gets measured.
//!
//! An [`Oracle`] turns one `(program, RunConfig)` pair into a
//! [`RunRecord`]. The trait is object-safe so plans, searches and CLIs can
//! hold a `&dyn Oracle` and swap backends without re-monomorphizing the
//! sweep machinery:
//!
//! * [`CountingOracle`] — the paper's access-counting simulator
//!   ([`crate::exec::simulate`]), always interpreting.
//! * [`FastCountingOracle`] — the same counts through a selectable
//!   [`Engine`]: the compiled access replay ([`crate::replay`]), the
//!   interpreter, or `auto` (replay when statically classifiable, falling
//!   back to the interpreter per program — the default everywhere counts
//!   are all that is needed).
//! * [`TimingOracle`] — the §9 execution-time extension
//!   ([`crate::deferred::estimate_timing`]); fills [`RunRecord::cycles`]
//!   (the clock rides the interpreter's instance loop, so it always
//!   interprets).
//! * `sa-runtime`'s thread-backed oracle — lives in that crate (it depends
//!   on this one) and implements [`Oracle`] over real worker threads,
//!   reporting [`OracleError::Unsupported`] for knobs the runtime lacks.

use sa_ir::Program;
use sa_machine::{load_balance, AccessCosts};

use crate::deferred::{simulate_timed, TimingError};
use crate::exec::{simulate, SimError};
use crate::plan::{ExperimentPlan, PlanError, RunConfig};
use crate::replay::{self, Capped, CountReport, ReplayError};

/// One measured grid point: the config that produced it plus every counter
/// the report layer might select.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The grid point that was measured.
    pub cfg: RunConfig,
    /// The paper's headline metric: % of reads remote.
    pub remote_pct: f64,
    /// % of reads served by the cache.
    pub cached_pct: f64,
    /// Absolute writes.
    pub writes: u64,
    /// Absolute local reads.
    pub local_reads: u64,
    /// Absolute cached reads.
    pub cached_reads: u64,
    /// Absolute remote reads.
    pub remote_reads: u64,
    /// Absolute total reads.
    pub total_reads: u64,
    /// Network messages (page fetches ×2 + protocol traffic).
    pub messages: u64,
    /// Total hop traversals; `None` for a backend without a network model
    /// (every backend in the workspace has one; an outside [`Oracle`] may
    /// not), so mixed-oracle reports can tell "zero hops" from "not
    /// modeled".
    pub hops: Option<u64>,
    /// Heaviest directed-link traffic; `None` without a network model.
    pub max_link_load: Option<u64>,
    /// Jain fairness index of the per-PE write distribution (1 = perfectly
    /// balanced compute, `1/n_pes` = everything on one PE). Writes are one
    /// per statement instance under owner-computes, so this measures how
    /// evenly the *work* spread — the search objective's imbalance signal.
    pub write_balance: f64,
    /// Estimated execution cycles — only timing-capable oracles fill this.
    pub cycles: Option<u64>,
}

impl RunRecord {
    /// Hop count as a plot value: `NaN` when the backend has no network
    /// model, so pivoted series drop the point instead of charting a fake
    /// zero.
    pub fn hops_f64(&self) -> f64 {
        self.hops.map(|h| h as f64).unwrap_or(f64::NAN)
    }

    /// Link load as a plot value; `NaN` when not modeled.
    pub fn max_link_load_f64(&self) -> f64 {
        self.max_link_load.map(|l| l as f64).unwrap_or(f64::NAN)
    }
}

/// The one place a counting engine's report maps onto [`RunRecord`]
/// fields — every oracle in this crate builds on this, so a new counter is
/// threaded through a single construction site.
fn counted(cfg: &RunConfig, rep: &CountReport, cycles: Option<u64>) -> RunRecord {
    let stats = &rep.stats;
    RunRecord {
        cfg: cfg.clone(),
        remote_pct: stats.remote_read_pct(),
        cached_pct: stats.cached_read_pct(),
        writes: stats.writes(),
        local_reads: stats.local_reads(),
        cached_reads: stats.cached_reads(),
        remote_reads: stats.remote_reads(),
        total_reads: stats.total_reads(),
        messages: rep.network_messages,
        hops: Some(rep.network_hops),
        max_link_load: Some(rep.max_link_load),
        write_balance: load_balance(&stats.writes_per_pe()).jain,
        cycles,
    }
}

/// Why one grid point failed to measure.
#[derive(Debug)]
pub enum OracleError {
    /// The counting simulation failed.
    Sim(SimError),
    /// The timing replay failed.
    Timing(TimingError),
    /// The backend cannot honor a knob of the requested config (e.g. the
    /// thread runtime has no network model).
    Unsupported(String),
    /// The backend failed for its own reasons (e.g. a worker panicked).
    Backend(String),
}

impl core::fmt::Display for OracleError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OracleError::Sim(e) => write!(f, "simulation failed: {e}"),
            OracleError::Timing(e) => write!(f, "timing failed: {e}"),
            OracleError::Unsupported(m) => write!(f, "unsupported config: {m}"),
            OracleError::Backend(m) => write!(f, "oracle backend failed: {m}"),
        }
    }
}

impl std::error::Error for OracleError {}

/// An invalid machine configuration, as the interpreter reports it —
/// whichever engine noticed.
fn bad_config(e: sa_machine::ConfigError) -> OracleError {
    OracleError::Sim(SimError::Machine(sa_machine::MachineError::BadConfig(e)))
}

impl From<SimError> for OracleError {
    fn from(e: SimError) -> Self {
        OracleError::Sim(e)
    }
}

impl From<TimingError> for OracleError {
    fn from(e: TimingError) -> Self {
        OracleError::Timing(e)
    }
}

/// An evaluation backend for experiment plans. Object-safe: plans and
/// searches take `&dyn Oracle`.
///
/// Implementations must be deterministic for a given `(program, cfg)` pair
/// — the memo cache and every engine-equivalence test rely on it — and
/// `Sync`, because grid points are measured concurrently.
pub trait Oracle: Sync {
    /// Short backend name for reports and CLI output.
    fn name(&self) -> &'static str;

    /// Measure one grid point.
    fn measure(&self, program: &Program, cfg: &RunConfig) -> Result<RunRecord, OracleError>;

    /// Measure one grid point, counting only until it has as many remote
    /// reads as the cap (`u64::MAX` is no cap). A backend that stops there
    /// answers [`Capped::Exceeded`]; one that measures in full (the
    /// default) answers the record, past the cap or not. So a caller
    /// reads "at least the cap" from `Exceeded` *or* from a record's
    /// `remote_reads`, and that never depends on the backend.
    fn measure_capped(
        &self,
        program: &Program,
        cfg: &RunConfig,
        _remote_cap: u64,
    ) -> Result<Capped<RunRecord>, OracleError> {
        Ok(Capped::Counted(self.measure(program, cfg)?))
    }
}

/// The default oracle: the paper's access-counting simulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingOracle;

impl Oracle for CountingOracle {
    fn name(&self) -> &'static str {
        "counting-sim"
    }

    fn measure(&self, program: &Program, cfg: &RunConfig) -> Result<RunRecord, OracleError> {
        let rep = simulate(program, &cfg.machine())?;
        Ok(counted(cfg, &CountReport::from_sim(&rep), None))
    }
}

/// Which counting backend a [`FastCountingOracle`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Always interpret ([`crate::exec::simulate`]): slow, but supports
    /// everything including partial-page refetch accounting.
    Interp,
    /// Always use the compiled replay ([`crate::replay::counts`]); grid
    /// points it cannot lower fail with [`OracleError::Unsupported`].
    Replay,
    /// Replay when statically classifiable, interpreter otherwise — the
    /// recommended default. Debug builds cross-check small replayable runs
    /// against the interpreter before trusting them.
    #[default]
    Auto,
}

impl Engine {
    /// Parse a CLI engine name.
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "interp" => Some(Engine::Interp),
            "replay" => Some(Engine::Replay),
            "auto" => Some(Engine::Auto),
            _ => None,
        }
    }

    /// Stable name (`interp` / `replay` / `auto`).
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Interp => "interp",
            Engine::Replay => "replay",
            Engine::Auto => "auto",
        }
    }
}

/// The counting oracle with a selectable [`Engine`] — the auto-select mode
/// is what plans, searches, the figure harness and the CLI use by default,
/// making the whole figure grid pay replay cost instead of interpretation
/// cost wherever the program allows it.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastCountingOracle {
    /// Backend selection policy.
    pub engine: Engine,
}

impl FastCountingOracle {
    /// An oracle pinned to `engine`.
    pub fn with_engine(engine: Engine) -> Self {
        FastCountingOracle { engine }
    }
}

impl Oracle for FastCountingOracle {
    fn name(&self) -> &'static str {
        match self.engine {
            Engine::Interp => "counting-interp",
            Engine::Replay => "counting-replay",
            Engine::Auto => "counting-auto",
        }
    }

    fn measure(&self, program: &Program, cfg: &RunConfig) -> Result<RunRecord, OracleError> {
        self.measure_capped(program, cfg, u64::MAX)
            .map(Capped::uncapped)
    }

    /// Replay stops counting at the cap ([`replay::counts_capped`]).
    fn measure_capped(
        &self,
        program: &Program,
        cfg: &RunConfig,
        remote_cap: u64,
    ) -> Result<Capped<RunRecord>, OracleError> {
        let machine = cfg.machine();
        let capped = match self.engine {
            Engine::Interp => return CountingOracle.measure_capped(program, cfg, remote_cap),
            Engine::Replay => {
                replay::counts_capped(program, &machine, remote_cap).map_err(|e| match e {
                    ReplayError::Config(c) => bad_config(c),
                    e @ ReplayError::Unsupported { .. } => OracleError::Unsupported(e.to_string()),
                })?
            }
            Engine::Auto => replay::capped_or_simulate(program, &machine, remote_cap)?,
        };
        Ok(match capped {
            Capped::Counted(rep) => Capped::Counted(counted(cfg, &rep, None)),
            Capped::Exceeded => Capped::Exceeded,
        })
    }
}

/// Replay's oracle under the name the retired static estimator had. Kept
/// only for `benchmark/`, which names it; ROADMAP item 1 deletes it.
#[allow(non_upper_case_globals)]
pub const StaticOracle: FastCountingOracle = FastCountingOracle {
    engine: Engine::Replay,
};

/// `compute(program)`, remembered in `last` for the program asked about
/// last. That program is recognized by comparison — sound where an address
/// or a hash alone would not be, and a few µs against what the pure
/// functions memoized this way cost — so the memo can change what a call
/// costs, never what it returns.
pub(crate) fn of_last_program<T: Copy>(
    last: &mut Option<(Program, T)>,
    program: &Program,
    compute: impl FnOnce(&Program) -> T,
) -> T {
    match last {
        Some((p, value)) if p == program => *value,
        _ => {
            let value = compute(program);
            *last = Some((program.clone(), value));
            value
        }
    }
}

/// The timing oracle: the counting simulation with the §9 clock on it, so
/// [`RunRecord::cycles`] is filled.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimingOracle {
    /// Cycle costs the clock charges per access kind.
    pub costs: AccessCosts,
}

impl TimingOracle {
    /// A timing oracle with explicit access costs.
    pub fn with_costs(costs: AccessCosts) -> Self {
        TimingOracle { costs }
    }
}

impl Oracle for TimingOracle {
    fn name(&self) -> &'static str {
        "timing-sim"
    }

    fn measure(&self, program: &Program, cfg: &RunConfig) -> Result<RunRecord, OracleError> {
        let machine = cfg.machine().with_costs(self.costs);
        let (rep, timing) = simulate_timed(program, &machine)?;
        Ok(counted(
            cfg,
            &CountReport::from_sim(&rep),
            Some(timing.total_cycles),
        ))
    }
}

/// Estimated speedup over one PE at each PE count of `pes` (the §9
/// execution-time extension) on the machine `base` describes apart from its
/// PE count: one [`TimingOracle`] plan over the PE axis, cycles divided into
/// the 1-PE baseline's.
pub fn speedup_sweep(
    program: &Program,
    pes: &[usize],
    base: &RunConfig,
    costs: AccessCosts,
) -> Result<Vec<(usize, f64)>, TimingError> {
    let expect_timing_error = |e: PlanError| match e {
        PlanError::Oracle(OracleError::Timing(e)) => e,
        PlanError::Oracle(OracleError::Sim(e)) => TimingError::Sim(e),
        other => unreachable!("speedup sweep hit a non-timing error: {other}"),
    };
    // One plan: the ladder, then the 1-PE baseline unless the ladder has it.
    let mut ladder = pes.to_vec();
    if !pes.contains(&1) {
        ladder.push(1);
    }
    let results = ExperimentPlan::new()
        .base(base.clone())
        .pes(&ladder)
        .run(program, &TimingOracle::with_costs(costs))
        .map_err(expect_timing_error)?;
    let cycles = |r: &RunRecord| r.cycles.expect("timing oracle");
    let base_cycles = results
        .find(|r| r.cfg.n_pes == 1)
        .map(cycles)
        .expect("the ladder holds a 1-PE rung");
    Ok(results.records()[..pes.len()]
        .iter()
        .map(|r| {
            let speedup = match cycles(r) {
                0 => 1.0,
                c => base_cycles as f64 / c as f64,
            };
            (r.cfg.n_pes, speedup)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_ir::index::iv;
    use sa_ir::{InitPattern, ProgramBuilder};

    fn tiny() -> Program {
        let mut b = ProgramBuilder::new("tiny");
        let y = b.input("Y", &[128], InitPattern::Wavy);
        let x = b.output("X", &[128]);
        b.nest("s", &[("k", 0, 127)], |nb| {
            nb.assign(x, [iv(0)], nb.read(y, [iv(0)]) + 1.0);
        });
        b.finish()
    }

    #[test]
    fn counting_oracle_matches_direct_simulation() {
        let p = tiny();
        let cfg = RunConfig {
            n_pes: 4,
            ..RunConfig::default()
        };
        let rec = CountingOracle.measure(&p, &cfg).unwrap();
        let rep = simulate(&p, &cfg.machine()).unwrap();
        assert_eq!(rec.remote_reads, rep.stats.remote_reads());
        assert_eq!(rec.total_reads, rep.stats.total_reads());
        assert_eq!(rec.messages, rep.network_messages);
        assert_eq!(rec.remote_pct, rep.remote_pct());
        assert_eq!(rec.cycles, None);
        assert_eq!(CountingOracle.name(), "counting-sim");
    }

    #[test]
    fn timing_oracle_fills_cycles() {
        let p = tiny();
        let rec = TimingOracle::default()
            .measure(&p, &RunConfig::default())
            .unwrap();
        assert!(rec.cycles.is_some_and(|c| c > 0));
    }

    #[test]
    fn speedup_sweep_is_relative_to_one_pe() {
        let p = tiny();
        let s = speedup_sweep(
            &p,
            &[1, 2, 4],
            &RunConfig::default(),
            AccessCosts::default(),
        )
        .unwrap();
        assert_eq!(s[0], (1, 1.0));
        assert!(s[2].1 > s[1].1, "a matched loop keeps speeding up: {s:?}");
        assert_eq!(
            speedup_sweep(&p, &[], &RunConfig::default(), AccessCosts::default()).unwrap(),
            vec![]
        );
    }

    #[test]
    fn oracles_are_object_safe() {
        let oracles: Vec<Box<dyn Oracle>> = vec![
            Box::new(CountingOracle),
            Box::new(TimingOracle::default()),
            Box::new(FastCountingOracle::default()),
        ];
        let p = tiny();
        for o in &oracles {
            assert!(o.measure(&p, &RunConfig::default()).is_ok());
        }
    }

    #[test]
    fn fast_oracle_engines_agree_with_the_interpreter() {
        let p = tiny();
        let cfg = RunConfig {
            n_pes: 4,
            ..RunConfig::default()
        };
        let interp = CountingOracle.measure(&p, &cfg).unwrap();
        for engine in [Engine::Interp, Engine::Replay, Engine::Auto] {
            let fast = FastCountingOracle::with_engine(engine)
                .measure(&p, &cfg)
                .unwrap();
            assert_eq!(fast, interp, "engine {}", engine.name());
        }
        assert_eq!(FastCountingOracle::default().name(), "counting-auto");
        assert_eq!(
            FastCountingOracle::with_engine(Engine::Replay).name(),
            "counting-replay"
        );
    }

    #[test]
    fn engine_names_parse_round_trip() {
        for engine in [Engine::Interp, Engine::Replay, Engine::Auto] {
            assert_eq!(Engine::parse(engine.name()), Some(engine));
        }
        assert_eq!(Engine::parse("warp"), None);
        assert_eq!(Engine::default(), Engine::Auto);
    }

    #[test]
    fn strict_replay_engine_rejects_unsupported_configs() {
        let p = tiny();
        let cfg = RunConfig {
            partial_pages: sa_machine::PartialPagePolicy::Refetch,
            ..RunConfig::default()
        };
        assert!(matches!(
            FastCountingOracle::with_engine(Engine::Replay).measure(&p, &cfg),
            Err(OracleError::Unsupported(_))
        ));
        // Auto measures the same point through the interpreter instead.
        let auto = FastCountingOracle::default().measure(&p, &cfg).unwrap();
        let interp = CountingOracle.measure(&p, &cfg).unwrap();
        assert_eq!(auto, interp);
    }

    #[test]
    fn write_balance_reflects_compute_distribution() {
        let p = tiny(); // 128 elements
                        // Evenly spread across 4 PEs at ps 32: Jain index 1.
        let even = CountingOracle
            .measure(
                &p,
                &RunConfig {
                    n_pes: 4,
                    ..RunConfig::default()
                },
            )
            .unwrap();
        assert!((even.write_balance - 1.0).abs() < 1e-12);
        // Page size 256 puts the whole array on one of 4 PEs: Jain 1/4.
        let degenerate = CountingOracle
            .measure(
                &p,
                &RunConfig {
                    n_pes: 4,
                    page_size: 256,
                    ..RunConfig::default()
                },
            )
            .unwrap();
        assert!((degenerate.write_balance - 0.25).abs() < 1e-12);
    }
}
