//! Pluggable evaluation oracles: *how* a grid point gets measured.
//!
//! An [`Oracle`] turns one `(program, RunConfig)` pair into a
//! [`RunRecord`]. The trait is object-safe so plans, searches and CLIs can
//! hold a `&dyn Oracle` and swap backends without re-monomorphizing the
//! sweep machinery:
//!
//! * [`FastCountingOracle`] — the paper's access counts through one rung of
//!   the [`Engine`] ladder ([`Engine::count_capped`]): the interpreter
//!   ([`crate::exec::simulate`]), the compiled access replay
//!   ([`crate::replay`]), or `auto` (replay when statically classifiable,
//!   falling back to the interpreter per program — the default everywhere
//!   counts are all that is needed). Every rung stops at a remote-read
//!   cap ([`Oracle::measure_capped`]).
//! * [`TimingOracle`] — the §9 execution-time extension
//!   ([`crate::deferred::estimate_timing`]); fills [`RunRecord::cycles`]
//!   (the clock rides the interpreter's instance loop, so it always
//!   interprets).
//! * `sa-runtime`'s thread-backed oracle — lives in that crate (it depends
//!   on this one) and implements [`Oracle`] over real worker threads,
//!   reporting [`OracleError::Unsupported`] for knobs the runtime lacks.
//!
//! Every backend builds its records through [`RunRecord::counted`].

use sa_ir::Program;
use sa_machine::{load_balance, AccessCosts, MachineConfig, Stats};

use crate::deferred::{simulate_timed, TimingError};
use crate::exec::{run_capped, SimError};
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
    /// Total hop traversals.
    pub hops: u64,
    /// Heaviest directed-link traffic.
    pub max_link_load: u64,
    /// Jain fairness index of the per-PE write distribution (1 = perfectly
    /// balanced compute, `1/n_pes` = everything on one PE). Writes are one
    /// per statement instance under owner-computes, so this measures how
    /// evenly the *work* spread — the search objective's imbalance signal.
    pub write_balance: f64,
    /// Estimated execution cycles — only timing-capable oracles fill this.
    pub cycles: Option<u64>,
}

impl RunRecord {
    /// The record of one measured grid point: `stats` and the network's
    /// message, hop and link-load totals, plus `cycles` where the backend
    /// keeps a clock. The one construction site every backend builds on,
    /// so a new counter is threaded through a single place.
    pub fn counted(
        cfg: &RunConfig,
        stats: &Stats,
        messages: u64,
        hops: u64,
        max_link_load: u64,
        cycles: Option<u64>,
    ) -> RunRecord {
        RunRecord {
            cfg: cfg.clone(),
            remote_pct: stats.remote_read_pct(),
            cached_pct: stats.cached_read_pct(),
            writes: stats.writes(),
            local_reads: stats.local_reads(),
            cached_reads: stats.cached_reads(),
            remote_reads: stats.remote_reads(),
            total_reads: stats.total_reads(),
            messages,
            hops,
            max_link_load,
            write_balance: load_balance(&stats.writes_per_pe()).jain,
            cycles,
        }
    }

    /// The record of a counting engine's report.
    fn of_report(cfg: &RunConfig, rep: &CountReport, cycles: Option<u64>) -> RunRecord {
        let (messages, hops) = (rep.network_messages, rep.network_hops);
        RunRecord::counted(cfg, &rep.stats, messages, hops, rep.max_link_load, cycles)
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

impl From<CountError> for OracleError {
    /// An invalid machine configuration is the interpreter's error,
    /// whichever engine noticed; a run replay cannot lower is unsupported.
    fn from(e: CountError) -> Self {
        match e {
            CountError::Sim(e) => OracleError::Sim(e),
            CountError::Replay(ReplayError::Config(c)) => {
                OracleError::Sim(SimError::Machine(sa_machine::MachineError::BadConfig(c)))
            }
            CountError::Replay(e) => OracleError::Unsupported(e.to_string()),
        }
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
    /// — [`FastCountingOracle`], on every rung ([`Engine::count_capped`])
    /// — answers [`Capped::Exceeded`]; one that measures in full (the
    /// default, kept by [`TimingOracle`] and the thread engine's oracle)
    /// answers the record, past the cap or not. So a caller reads "at
    /// least the cap" from `Exceeded` *or* from a record's
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

/// A rung of the counting ladder ([`Engine::count_capped`]): which engine
/// counts a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Always interpret ([`crate::exec::simulate`]): slow, but supports
    /// everything including partial-page refetch accounting.
    Interp,
    /// Always use the compiled replay ([`crate::replay::counts`]); a run it
    /// cannot lower fails with [`CountError::Replay`].
    Replay,
    /// Replay when statically classifiable, interpreter otherwise — the
    /// recommended default. Debug builds cross-check small replayable runs
    /// against the interpreter before trusting them.
    #[default]
    Auto,
}

/// Why a rung of the ladder failed: each engine's own error.
#[derive(Debug, Clone, PartialEq)]
pub enum CountError {
    /// The interpreter's error (`interp`, and `auto` on any failure).
    Sim(SimError),
    /// Replay's error (`replay` only).
    Replay(ReplayError),
}

impl core::fmt::Display for CountError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CountError::Sim(e) => e.fmt(f),
            CountError::Replay(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CountError {}

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

    /// Count one run on this rung.
    pub fn count(self, program: &Program, cfg: &MachineConfig) -> Result<CountReport, CountError> {
        self.count_capped(program, cfg, u64::MAX)
            .map(Capped::uncapped)
    }

    /// Count one run on this rung, stopping once it has charged
    /// `remote_cap` remote reads (`u64::MAX` is no cap). Every rung answers
    /// [`Capped::Exceeded`] exactly when the run's remote reads reach the
    /// cap, and otherwise the full report: replay
    /// ([`replay::counts_capped`]) and the interpreter
    /// ([`crate::exec`], § Capped counting) both stop there. The only
    /// place a rung is chosen.
    ///
    /// A run the interpreter (`interp`, or `auto`'s fallback) rejects
    /// fails with its exact error uncapped, or under a cap above the
    /// remote reads charged before the failing instance's trip; under a
    /// cap at or below them it answers `Exceeded`, having stopped before
    /// the failing instance.
    ///
    /// `auto` replays and falls back to the interpreter on any replay
    /// error, so it fails with exactly the interpreter's error.
    /// Debug builds simulate its small replayed runs in full too and
    /// assert the two agree; large runs rely on the differential test
    /// suite, and the release path never pays the double cost.
    pub fn count_capped(
        self,
        program: &Program,
        cfg: &MachineConfig,
        remote_cap: u64,
    ) -> Result<Capped<CountReport>, CountError> {
        let interp = || {
            run_capped(program, cfg, &mut (), remote_cap)
                .map(|capped| capped.map(|rep| CountReport::from_sim(&rep)))
                .map_err(CountError::Sim)
        };
        match self {
            Engine::Interp => interp(),
            Engine::Replay => {
                replay::counts_capped(program, cfg, remote_cap).map_err(CountError::Replay)
            }
            Engine::Auto => match replay::counts_capped(program, cfg, remote_cap) {
                Ok(capped) => {
                    #[cfg(debug_assertions)]
                    cross_check(program, cfg, remote_cap, &capped)?;
                    Ok(capped)
                }
                // Invalid configs fall through to the interpreter too, so
                // the caller sees exactly the interpreter's error.
                Err(_) => interp(),
            },
        }
    }
}

/// The auto rung's debug-build cross-check: a replayed run of at most 20k
/// statement instances is simulated too, and must agree with replay in
/// every count, or on having reached the cap.
#[cfg(debug_assertions)]
fn cross_check(
    program: &Program,
    cfg: &MachineConfig,
    remote_cap: u64,
    capped: &Capped<CountReport>,
) -> Result<(), CountError> {
    if program.instance_count() > 20_000 {
        return Ok(());
    }
    let sim = crate::exec::simulate(program, cfg).map_err(CountError::Sim)?;
    let sim = CountReport::from_sim(&sim);
    let remote = sim.stats.remote_reads();
    match capped {
        Capped::Counted(rep) => {
            let rep = CountReport {
                engine: sim.engine,
                ..rep.clone()
            };
            assert_eq!(rep, sim, "replay diverges from the interpreter");
            assert!(remote < remote_cap, "replay counted past its cap");
        }
        Capped::Exceeded => assert!(remote >= remote_cap, "replay stopped short of its cap"),
    }
    Ok(())
}

/// The counting oracle: one rung of the [`Engine`] ladder. The auto-select
/// mode is what plans, searches, the figure harness and the CLI use by
/// default, making the whole figure grid pay replay cost instead of
/// interpretation cost wherever the program allows it.
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

    /// Counts through the ladder ([`Engine::count_capped`]).
    fn measure_capped(
        &self,
        program: &Program,
        cfg: &RunConfig,
        remote_cap: u64,
    ) -> Result<Capped<RunRecord>, OracleError> {
        let capped = self
            .engine
            .count_capped(program, &cfg.machine(), remote_cap)?;
        Ok(capped.map(|rep| RunRecord::of_report(cfg, &rep, None)))
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
        let rep = CountReport::from_sim(&rep);
        Ok(RunRecord::of_report(cfg, &rep, Some(timing.total_cycles)))
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
    use crate::exec::simulate;
    use sa_ir::index::iv;
    use sa_ir::program::ArrayInit;
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
        let rec = FastCountingOracle::with_engine(Engine::Interp)
            .measure(&p, &cfg)
            .unwrap();
        let rep = simulate(&p, &cfg.machine()).unwrap();
        assert_eq!(rec.remote_reads, rep.stats.remote_reads());
        assert_eq!(rec.total_reads, rep.stats.total_reads());
        assert_eq!(rec.messages, rep.network_messages);
        assert_eq!(rec.remote_pct, rep.remote_pct());
        assert_eq!(rec.hops, rep.network_hops);
        assert_eq!(rec.max_link_load, rep.max_link_load);
        assert_eq!(rec.cycles, None);
        assert_eq!(
            FastCountingOracle::with_engine(Engine::Interp).name(),
            "counting-interp"
        );
    }

    #[test]
    fn each_rung_reports_its_own_engines_error() {
        let p = tiny();
        let bad = MachineConfig::new(0, 32);
        let sim = simulate(&p, &bad).unwrap_err();
        for engine in [Engine::Interp, Engine::Auto] {
            assert_eq!(engine.count(&p, &bad), Err(CountError::Sim(sim.clone())));
        }
        let replay = replay::counts(&p, &bad).unwrap_err();
        let err = Engine::Replay.count(&p, &bad).unwrap_err();
        assert_eq!(err.to_string(), replay.to_string());
        assert_eq!(err, CountError::Replay(replay));
        // The oracle reports a bad config as the interpreter does, whichever
        // rung noticed.
        let cfg = RunConfig {
            n_pes: 0,
            ..RunConfig::default()
        };
        for engine in [Engine::Interp, Engine::Replay, Engine::Auto] {
            let err = FastCountingOracle::with_engine(engine).measure(&p, &cfg);
            assert!(
                matches!(&err, Err(OracleError::Sim(e)) if *e == sim),
                "{err:?}"
            );
        }
    }

    #[test]
    fn a_failing_run_stops_at_a_cap_its_earlier_trips_reach() {
        // SA004: `T` is defined on its first 47 cells only, so instance 47
        // fails. Cache-less 8-element pages on 4 PEs make `Y(k+1)` remote
        // where `k + 1` starts a page: instances 7, 15, …, 39 charge 5
        // remote reads, and the failing instance a sixth before its read
        // of `T(47)`.
        let mut b = ProgramBuilder::new("dangling");
        let y = b.input("Y", &[65], InitPattern::Wavy);
        let pattern = InitPattern::Linear {
            base: 0.0,
            step: 1.0,
        };
        let t = b.array_with("T", &[64], ArrayInit::Prefix { pattern, len: 47 });
        let x = b.output("X", &[64]);
        b.nest("s", &[("k", 0, 63)], |nb| {
            nb.assign(
                x,
                [iv(0)],
                nb.read(y, [iv(0).plus(1)]) + nb.read(t, [iv(0)]),
            );
        });
        let p = b.finish();
        let cfg = MachineConfig::new(4, 8).with_cache_elems(0);
        let err = simulate(&p, &cfg).unwrap_err();
        assert_eq!(err.to_string(), "IR error: read of undefined cell T[47]");
        for cap in [0, 1, 5] {
            let capped = Engine::Interp.count_capped(&p, &cfg, cap);
            assert_eq!(capped, Ok(Capped::Exceeded), "cap {cap}");
        }
        for cap in [6, 7, u64::MAX] {
            let capped = Engine::Interp.count_capped(&p, &cfg, cap);
            assert_eq!(capped, Err(CountError::Sim(err.clone())), "cap {cap}");
        }
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
            Box::new(FastCountingOracle::with_engine(Engine::Interp)),
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
        let interp = FastCountingOracle::with_engine(Engine::Interp)
            .measure(&p, &cfg)
            .unwrap();
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
        let interp = FastCountingOracle::with_engine(Engine::Interp)
            .measure(&p, &cfg)
            .unwrap();
        assert_eq!(auto, interp);
    }

    #[test]
    fn write_balance_reflects_compute_distribution() {
        let p = tiny(); // 128 elements
                        // Evenly spread across 4 PEs at ps 32: Jain index 1.
        let even = FastCountingOracle::with_engine(Engine::Interp)
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
        let degenerate = FastCountingOracle::with_engine(Engine::Interp)
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
