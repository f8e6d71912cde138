//! # sa-core — automatic partitioning, distributed execution, experiments
//!
//! This crate glues the substrates together into the paper's system:
//!
//! Index screening (§3) — which PE executes a statement instance — is not
//! decided here: every module below reads it from the one owner-computes
//! schedule, `sa_lint::screening::Schedule` (`sa-lint` is the lowest crate
//! that sees both a program and a placement).
//!
//! * [`exec`] — the access-counting distributed interpreter: runs an
//!   `sa-ir` program on an `sa-machine`, classifying every read as
//!   local / cached / remote exactly as the paper's simulation did, while
//!   also computing real values so results can be verified against the
//!   sequential reference.
//! * [`deferred`] — the *timing* pass (§9 future work): a clock on the
//!   interpreter's instance loop with per-PE times, I-structure stalls on
//!   not-yet-produced cells, network hop latencies and host-protocol
//!   barriers, yielding estimated cycles and speedup curves.
//! * [`replay`] — the compiled counting fast path: statically classifiable
//!   loop nests are lowered to a per-PE arithmetic page-access model
//!   (classify once per nest, count closed-form or per page run) that is
//!   bit-identical to [`exec::simulate`] and sharded across host cores;
//!   indirect/dynamic nests fall back to the interpreter.
//! * [`classify`] — dynamic (measurement-based) access-class detection,
//!   cross-checking the static classifier in `sa-ir`.
//! * [`plan`] — the composable experiment layer: typed sweep axes crossed
//!   into a lazily enumerated grid of [`plan::RunConfig`]s.
//! * [`oracle`] — pluggable evaluation backends behind the object-safe
//!   [`oracle::Oracle`] trait (the access counts through one ladder of
//!   engines — interpreter, compiled replay, or auto, the default; the
//!   timing clock; `sa-runtime` threads via that crate's adapter).
//! * [`results`] — group-by/pivot over measured grids, so figures select
//!   series by predicate instead of relying on loop order.
//! * [`mod@search`] — automatic scheme search: exhaustive
//!   `PartitionScheme × page size` per kernel, the ROADMAP's Automap item,
//!   plus [`search::strategy`] — a branch and bound, and under a budget
//!   short of the space a walk in lower-bound order, over the full
//!   `scheme × page × topology` space behind a memoizing oracle cache.
//! * [`parallel`] — the order-preserving map on one process-wide worker
//!   pool that the plan evaluator, replay's PE shards and the figure
//!   generator are built on.
//! * [`report`] — markdown / CSV / JSON / ASCII-chart emitters.
//! * [`verify`] — end-to-end equivalence with the reference interpreter.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod classify;
pub mod deferred;
pub mod exec;
pub mod oracle;
pub mod parallel;
pub mod plan;
pub mod replay;
pub mod report;
pub mod results;
pub mod search;
pub mod verify;

pub use classify::{classify_dynamic, DynamicClassification};
pub use deferred::{estimate_timing, TimingReport};
pub use exec::{simulate, SimError, SimReport};
pub use oracle::{
    CountError, Engine, FastCountingOracle, Oracle, OracleError, RunRecord, StaticOracle,
    TimingOracle,
};
pub use parallel::par_map;
pub use plan::{Axis, ExperimentPlan, PlanError, RunConfig};
pub use replay::{Capped, CountEngine, CountReport, ReplayError};
pub use results::{Column, ResultSet};
pub use search::strategy::{
    MemoOracle, SearchReport, Searcher, Strategy, StrategyOracle, StrategyParams,
};
pub use search::{BestConfig, Objective, SearchSpace};
pub use verify::verify_against_reference;
