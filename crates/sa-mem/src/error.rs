//! Error types for single-assignment memory violations.

use core::fmt;

/// Errors raised by single-assignment memory.
///
/// `DoubleWrite` is the paper's headline runtime error: under single
/// assignment "there will never be a race condition for writes to a memory
/// cell, since only one PE may write to any particular cell and writing more
/// than once results in a runtime error" (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaError {
    /// A cell that is already defined was written again.
    DoubleWrite {
        /// Linear index of the offending cell.
        index: usize,
        /// Generation of the array at the time of the violation.
        generation: u32,
    },
    /// An index outside the array bounds was accessed.
    OutOfBounds {
        /// The offending index.
        index: usize,
        /// Length of the array.
        len: usize,
    },
    /// An operation was attempted against the wrong array generation
    /// (e.g. a deferred read woke up after a re-initialization).
    StaleGeneration {
        /// Generation the operation was issued against.
        expected: u32,
        /// Current generation of the array.
        actual: u32,
    },
}

impl fmt::Display for SaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SaError::DoubleWrite { index, generation } => write!(
                f,
                "single-assignment violation: cell {index} written twice (generation {generation})"
            ),
            SaError::OutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for array of length {len}")
            }
            SaError::StaleGeneration { expected, actual } => write!(
                f,
                "stale generation: operation issued for generation {expected}, array is at {actual}"
            ),
        }
    }
}

impl std::error::Error for SaError {}

/// Convenience result alias used throughout the substrate.
pub type SaResult<T> = Result<T, SaError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SaError::DoubleWrite {
            index: 7,
            generation: 2,
        };
        assert!(e.to_string().contains("cell 7"));
        assert!(e.to_string().contains("generation 2"));
        let e = SaError::OutOfBounds { index: 10, len: 4 };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("4"));
        let e = SaError::StaleGeneration {
            expected: 1,
            actual: 3,
        };
        assert!(e.to_string().contains("generation 1"));
    }

    #[test]
    fn errors_are_comparable_and_copy() {
        let a = SaError::DoubleWrite {
            index: 1,
            generation: 0,
        };
        let b = a;
        assert_eq!(a, b);
        assert_ne!(
            a,
            SaError::DoubleWrite {
                index: 2,
                generation: 0
            }
        );
    }
}
