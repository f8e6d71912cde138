//! # sapp — Single-Assignment Program Partitioning
//!
//! A faithful, production-quality reproduction of
//! *Automatic Data/Program Partitioning Using the Single Assignment
//! Principle* (Lubomir Bic, Mark D. Nagel, John M.A. Roy — UC Irvine ICS
//! TR 89-08, Supercomputing 1989).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`mem`] — single-assignment memory substrate (tagged cells, deferred
//!   reads, concurrent I-structures).
//! * [`ir`] — the loop-nest IR in which workloads are expressed, the
//!   sequential reference interpreter, the static access-pattern classifier
//!   and the automatic single-assignment conversion pass.
//! * [`machine`] — the simulated loosely-coupled MIMD machine: page-granular
//!   modulo/block data partitioning, per-PE LRU caches, network models, and
//!   the host-processor re-initialization protocol.
//! * [`loops`] — the Livermore Loops suite used by the paper's evaluation.
//! * [`lint`] — the static analysis pass: write-once verification via
//!   GCD/Banerjee-style conflict tests, partition-legality and progress
//!   checking, dependence graphs and the owner-computes schedule.
//! * [`core`] — owner-computes distributed execution, access counting,
//!   the timing pass, composable experiment plans with
//!   pluggable evaluation oracles, automatic scheme search, and report
//!   tables.
//! * [`runtime`] — a real-thread execution engine (logical PEs as
//!   resumable tasks on one worker thread per core, channels as the
//!   interconnect; a PE walks only the instances it owns, yields when it
//!   needs a remote page and re-evaluates the instance when the reply is
//!   in; global quiescence ends the run, as a typed error if PEs still
//!   wait on each other) demonstrating that single assignment alone
//!   synchronizes the computation; plugs into experiment plans as
//!   `ThreadOracle`.
//!
//! ## Names kept for the benchmark
//!
//! `benchmark/` compiles against four names of the counting engine the
//! tree no longer has (cache-less counts are [`core::replay`]'s). Each is
//! a one-line shim over replay that ROADMAP item 1 deletes:
//!
//! * [`lint::estimate`] — [`core::replay::counts`];
//! * `sapp::core::StaticOracle` — a constant: the replay-pinned
//!   [`core::FastCountingOracle`];
//! * `sapp::core::StrategyOracle` — an alias of the auto-selecting
//!   [`core::FastCountingOracle`];
//! * `sapp simulate|sweep|search --engine static` — `--engine replay`.
//!
//! ## Quickstart
//!
//! ```
//! use sapp::loops::k01_hydro;
//! use sapp::machine::MachineConfig;
//! use sapp::core::exec::simulate;
//!
//! let kernel = k01_hydro::build(1001);
//! let cfg = MachineConfig::new(8, 32); // 8 PEs, 32-element pages, 256-elem cache
//! let report = simulate(&kernel.program, &cfg).unwrap();
//! println!("remote reads: {:.2}%", report.stats.remote_read_pct());
//! assert!(report.stats.remote_read_pct() < 10.0); // SD class, paper Fig. 1
//! ```
//!
//! ## Experiment plans
//!
//! Sweeps are composed from typed axes and evaluated through an oracle
//! (the access counts through one engine of the counting ladder, the
//! timing clock, or real threads):
//!
//! ```
//! use sapp::core::plan::ExperimentPlan;
//! use sapp::core::{Engine, FastCountingOracle};
//!
//! let kernel = sapp::loops::k12_first_diff::build(1001);
//! let results = ExperimentPlan::new()
//!     .page_sizes(&[32, 64])
//!     .cache_flags(&[true, false])
//!     .pes(&[1, 2, 4, 8])
//!     .run(&kernel.program, &FastCountingOracle::with_engine(Engine::Interp))
//!     .unwrap();
//! let pt = results
//!     .find(|r| r.cfg.n_pes == 8 && r.cfg.page_size == 32 && r.cfg.cached())
//!     .unwrap();
//! assert!(pt.remote_pct < 10.0);
//! ```

pub use sa_core as core;
pub use sa_ir as ir;
/// `sa-lint`, plus the one counting entry point `benchmark/` still calls
/// by its old name.
pub mod lint {
    pub use sa_lint::*;

    /// [`crate::core::replay::counts`] under the retired static estimator's
    /// name. Kept only for `benchmark/`; ROADMAP item 1 deletes it.
    pub fn estimate(
        program: &crate::ir::Program,
        cfg: &crate::machine::MachineConfig,
    ) -> Result<crate::core::CountReport, crate::core::ReplayError> {
        crate::core::replay::counts(program, cfg)
    }
}
pub use sa_loops as loops;
pub use sa_machine as machine;
pub use sa_mem as mem;
pub use sa_runtime as runtime;
