//! # sa-mem — single-assignment memory substrate
//!
//! This crate implements the *memory tagging mechanism* of Bic, Nagel & Roy
//! (UCI TR 89-08, §3): every memory cell is either **undefined** or
//! **defined**, and writes are allowed exactly once per cell per array
//! *generation* — the write-once/read-many discipline of HEP full/empty
//! bits and dataflow I-structures. A read of an undefined cell reports
//! just that; *deferring* it until the producer writes is the executor's
//! business (the thread runtime queues waiters per cell, the timing pass
//! models the stall).
//!
//! The building blocks ([`TagBits`], [`SaArray`], [`TaggedPage`]) are
//! sequential and deterministic — no locking: the simulator owns them
//! outright, and the real-thread runtime gives each worker its own pages.
//!
//! A second write to the same cell is a *runtime error* ([`SaError::DoubleWrite`]),
//! exactly as the paper prescribes ("writing more than once results in a
//! runtime error", §3). Arrays may be *re-initialized* (all cells return to
//! undefined) which bumps their [`Generation`]; the machine layer couples this
//! to the host-processor protocol of paper §5.

#![warn(missing_docs)]

pub mod array;
pub mod error;
pub mod page;
pub mod tagged;

pub use array::SaArray;
pub use error::{SaError, SaResult};
pub use page::{PageMemo, TaggedPage};
pub use tagged::TagBits;

/// Monotonically increasing version of an array's contents.
///
/// Single assignment holds *within* a generation; the host-processor
/// re-initialization protocol (paper §5) is the only sanctioned way to move
/// an array to the next generation. Caches key pages by `(array, page,
/// generation)` so a stale page can never produce a hit.
pub type Generation = u32;
