//! # sa-machine — the simulated loosely-coupled MIMD multiprocessor
//!
//! The abstract machine of the paper's evaluation (§6): `N` processing
//! elements, each with a local memory and a small page cache, connected by a
//! message-passing network with **no shared memory**. Arrays are segmented
//! into fixed-size *pages* distributed across PEs by a
//! [`PartitionScheme`]; every element access is classified as one of the
//! paper's four kinds (write / local read / cached read / remote read) and
//! accumulated into [`Stats`].
//!
//! Everything the paper varies or proposes is a configuration knob:
//!
//! * number of PEs and page size (the two simulation parameters of §6),
//! * cache size (fixed at 256 elements in the paper; a sweep parameter for
//!   the Random-class ablation of §7.1.4),
//! * replacement policy (LRU in the paper; FIFO/Random for ablation),
//! * partitioning scheme (modulo in the paper; the "division scheme" of §9),
//! * partial-page semantics (§4 "ignoring for now the possibility of
//!   partially filled pages" vs. realistic refetch),
//! * network topology for the message/contention accounting of §9.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod host;
pub mod machine;
pub mod network;
pub mod partition;
pub mod placement;
pub mod stats;
pub mod timing;

pub use cache::{CacheOutcome, CachePolicy, PageCache, PageKey, PolicyCache, Probe};
pub use config::{ConfigError, MachineConfig, PartialPagePolicy};
pub use host::{host_of, ReinitSync};
pub use machine::{DistributedMachine, MachineError};
pub use network::{Network, NetworkTopology};
pub use partition::{page_of, pages_in, PartitionScheme};
pub use placement::{ArrayShape, FetchPricer, PageRun, PeRange, Placement};
pub use stats::{load_balance, AccessKind, LoadBalance, PeCounters, Stats};
pub use timing::AccessCosts;
