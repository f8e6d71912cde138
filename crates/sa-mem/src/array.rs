//! Sequential single-assignment arrays with generations.

use crate::error::{SaError, SaResult};
use crate::tagged::TagBits;
use crate::Generation;

/// A linear single-assignment array.
///
/// Storage is a dense `Vec<T>` plus a presence bitmap ([`TagBits`]): the
/// "array + tag bits" layout the paper assumes hardware support for (§3),
/// which keeps the hot path (defined read) branch-cheap. Reads of undefined
/// cells are the caller's to defer; nothing is queued here.
///
/// Multi-dimensional arrays are linearized *row-major* by the IR layer before
/// they reach this type, exactly as in the paper's simulation (§7).
#[derive(Debug, Clone)]
pub struct SaArray<T> {
    name: String,
    values: Vec<T>,
    tags: TagBits,
    generation: Generation,
}

impl<T: Clone + Default> SaArray<T> {
    /// A fresh array of `len` undefined cells.
    pub fn new(name: impl Into<String>, len: usize) -> Self {
        SaArray {
            name: name.into(),
            values: vec![T::default(); len],
            tags: TagBits::new(len),
            generation: 0,
        }
    }

    /// An array pre-filled with initialization data — every cell is defined
    /// at generation 0 ("prior to execution, an array is either undefined or
    /// filled with initialization data", paper §3).
    pub fn with_init(name: impl Into<String>, init: Vec<T>) -> Self {
        let len = init.len();
        SaArray {
            name: name.into(),
            values: init,
            tags: TagBits::all_set(len),
            generation: 0,
        }
    }

    /// An array of `len` cells whose first `prefix.len()` are defined with
    /// `prefix` (an array "filled with initialization data" up to there,
    /// paper §3) and the rest undefined.
    pub fn with_prefix(name: impl Into<String>, len: usize, mut prefix: Vec<T>) -> Self {
        let defined = prefix.len();
        prefix.resize(len, T::default());
        SaArray {
            name: name.into(),
            values: prefix,
            tags: TagBits::prefix(len, defined),
            generation: 0,
        }
    }

    /// The array's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the array has zero cells.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Current generation (bumped by [`SaArray::reinit`]).
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// Number of defined cells.
    pub fn defined_count(&self) -> usize {
        self.tags.count_ones()
    }

    /// True once every cell has been written.
    pub fn is_fully_defined(&self) -> bool {
        self.tags.is_full()
    }

    /// Presence bitmap (borrowed) — used by the machine layer to snapshot
    /// page fill state.
    pub fn tags(&self) -> &TagBits {
        &self.tags
    }

    fn check(&self, index: usize) -> SaResult<()> {
        if index >= self.values.len() {
            Err(SaError::OutOfBounds {
                index,
                len: self.values.len(),
            })
        } else {
            Ok(())
        }
    }

    /// Single assignment of cell `index`. Fails with
    /// [`SaError::DoubleWrite`] if the cell is already defined in the
    /// current generation.
    pub fn write(&mut self, index: usize, value: T) -> SaResult<()> {
        self.check(index)?;
        if self.tags.get(index) {
            return Err(SaError::DoubleWrite {
                index,
                generation: self.generation,
            });
        }
        self.values[index] = value;
        self.tags.set(index);
        Ok(())
    }

    /// Read cell `index`: `Ok(Some(&v))` if defined, `Ok(None)` if not.
    #[inline]
    pub fn read(&self, index: usize) -> SaResult<Option<&T>> {
        match self.values.get(index) {
            Some(v) => Ok(self.tags.get(index).then_some(v)),
            None => Err(SaError::OutOfBounds {
                index,
                len: self.values.len(),
            }),
        }
    }

    /// Raw value slice — only meaningful where the tags say defined.
    /// Used by the machine layer to copy page payloads.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Re-initialize: every cell returns to undefined and the generation is
    /// bumped (the host-processor protocol of paper §5 sequences it).
    pub fn reinit(&mut self) -> Generation {
        self.tags.clear();
        self.generation += 1;
        self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_roundtrip() {
        let mut a = SaArray::new("A", 8);
        assert_eq!(a.read(3).unwrap(), None);
        a.write(3, 2.5f64).unwrap();
        assert_eq!(a.read(3).unwrap(), Some(&2.5));
        assert_eq!(a.defined_count(), 1);
        assert_eq!(a.name(), "A");
    }

    #[test]
    fn double_write_reports_index_and_generation() {
        let mut a = SaArray::new("A", 4);
        a.write(1, 1.0).unwrap();
        assert_eq!(
            a.write(1, 2.0).unwrap_err(),
            SaError::DoubleWrite {
                index: 1,
                generation: 0
            }
        );
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let mut a = SaArray::<f64>::new("A", 4);
        assert_eq!(
            a.write(4, 0.0).unwrap_err(),
            SaError::OutOfBounds { index: 4, len: 4 }
        );
        assert_eq!(
            a.read(9).unwrap_err(),
            SaError::OutOfBounds { index: 9, len: 4 }
        );
    }

    #[test]
    fn with_init_is_fully_defined_and_reusable_after_reinit() {
        let mut a = SaArray::with_init("B", vec![1.0, 2.0, 3.0]);
        assert!(a.is_fully_defined());
        assert_eq!(a.read(2).unwrap(), Some(&3.0));
        assert_eq!(a.generation(), 0);
        assert_eq!(a.reinit(), 1);
        assert_eq!(a.read(2).unwrap(), None);
        // Cells are writable again in the new generation.
        a.write(2, 9.0).unwrap();
        assert_eq!(a.read(2).unwrap(), Some(&9.0));
    }
}
