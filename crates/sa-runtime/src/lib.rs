//! # sa-runtime — real-thread execution engine
//!
//! Everything the simulator *counts*, this crate actually *does*: PEs with
//! private page frames, owner-computes by index screening, channels as the
//! interconnect, page request/reply messages for remote reads, I-structure
//! deferral for reads of not-yet-produced cells, partial-result collection
//! at host PEs for reductions, and the §5 host-processor protocol for
//! re-initialization.
//!
//! ## Logical PEs on a core-sized worker pool
//!
//! A run has `n_pes` *logical* PEs and one OS thread per available core
//! (never more threads than PEs). Each worker thread owns a fixed,
//! contiguous share of the PEs; no PE is ever touched by two threads.
//!
//! * **A PE is a resumable task**, not a thread: its owned page frames,
//!   cache and deferral queues, plus a cursor `(sweep, window, trip,
//!   statement)` into the run's shared schedule and a small state for the
//!   waits between nests (reduction collect/broadcast, the four §5 barrier
//!   stages). It enumerates **only the instances it owns**: per sweep, its
//!   windows come from the one owner-computes schedule
//!   (`sa_lint::screening::Schedule`, the compile-time form of the paper's
//!   §3 index screening, shared with every other engine). What every PE
//!   would otherwise re-derive — page owners, initial images, sweep lists,
//!   reduction participants — is worked out once per run.
//! * **A constant array lives once and is read in place.** An array no
//!   phase writes or re-initializes, every cell initialized
//!   ([`sa_ir::analysis::StaticArrays::is_total`]), can never change: its
//!   initial image is the run's one copy of it, no PE holds a frame of it,
//!   and the report takes the image over. Its owner reads a cell as a
//!   local read; any other PE, on any worker, answers its own fetch from
//!   the image, counted, priced, logged and (with a cache) cached exactly
//!   like a fetch the owner answered — with no message on a channel and
//!   no suspension.
//! * **A page fetch from a PE of the same worker is served in place.** The
//!   owner's fetch service (for an array some phase writes, or one only a
//!   prefix of which is initialized) is a function the worker calls when a
//!   request arrives from another worker, and the running PE calls directly
//!   when the owner shares its worker. A defined cell cannot change within
//!   its generation, so it completes the load inside the evaluation; the
//!   request and the reply are counted as if they had travelled.
//! * **A PE yields** when an instance needs a cell that is neither local,
//!   constant, cached nor answered in place — its owner is on another
//!   worker (the request goes out), or the cell is not written yet (the
//!   owner queues the reader) — and the worker runs another PE; also when
//!   it reaches a reduction or re-initialization barrier whose messages
//!   are not all in, when a bounded slice of instances has passed, and
//!   when it runs out of program. Serving a peer's fetch never waits for
//!   the addressed PE's turn: between any two instance evaluations the
//!   worker takes in the messages for *all* of its PEs.
//! * **The resume rule.** When the reply to a queued fetch arrives, the
//!   suspended instance is evaluated again *from the start* — single
//!   assignment makes evaluation free of side effects up to the write. A
//!   per-PE operand log keeps the statistics exact: every load is
//!   classified, counted, cache-probed and fetched exactly once however
//!   often the instance is resumed.
//! * **The quiescence rule.** A cross-worker message is counted before it
//!   is sent and discounted when its receiver next parks. When the last
//!   worker to park finds the count at zero nothing can ever move again:
//!   the run is over — normally, or, if some PE still has program left,
//!   as [`RuntimeError::Deadlocked`], naming what each blocked PE waits
//!   for (the cyclic wait `sapp lint` rejects statically as SA008). A
//!   deadlocked program returns an error; it cannot hang, and there is no
//!   timeout or watchdog thread.
//!
//! The engine demonstrates the paper's central claim operationally: with
//! single assignment, **the program needs no locks, barriers or
//! programmer-inserted synchronization** — write-before-read is enforced
//! entirely by the memory (an undefined cell queues its reader; the
//! producer's write releases it), and cached pages never need invalidation
//! within a generation. A PE's own code takes no lock and waits on no
//! barrier other than the paper's §5/§9 message rounds; the scheduler's
//! queues, its two counters and the mutex that records a failure belong
//! to the engine, not to the program it runs.
//!
//! Indirect (gather/scatter) statement anchors run too: an anchor through
//! compile-time-constant index arrays is tabulated once per run by the
//! schedule, one through an index array an earlier nest produced is
//! resolved by every PE over [`net::Msg::IndirectFetch`] messages (with
//! the same deferral rule) through the nest's compiled body — the one
//! case where a PE
//! still visits instances it does not own — so the *entire* Livermore
//! suite executes on real threads. Only a genuinely dynamic shape (an
//! index array produced in the nest that anchors through it) is rejected,
//! up front and softly, as [`RuntimeError::Unsupported`].
//!
//! Each run additionally records its *realized* read-after-write waits
//! (replies the owner had to defer — [`WaitObs`]) and, in debug builds,
//! asserts every one of them is covered by an edge of `sa-lint`'s static
//! dependence graph: the runtime-side witness that the SA008 deadlock
//! pass reasons over a sound superset of the machine's wait structure.
//!
//! Every run is verified against the sequential reference interpreter in
//! the test suite; access statistics correspond to the counting simulator
//! under its realistic partial-page `Refetch` policy (timing-dependent
//! fetch interleavings can only *add* refetches, never change values), and
//! `tests/runtime_full_suite.rs` certifies count parity across the suite
//! and across pool sizes.

#![warn(missing_docs)]

pub mod engine;
pub mod net;
pub mod oracle;
mod pe;
mod pool;

pub use engine::{
    execute, execute_on, unsupported_reason, RuntimeConfig, RuntimeError, RuntimeReport,
};
pub use oracle::ThreadOracle;
pub use pe::WaitObs;
