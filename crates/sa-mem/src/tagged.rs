//! Presence bitmaps — the "memory tagging mechanism" of paper §3.
//!
//! One bit per cell (packed 64 to a word) records defined/undefined. The
//! machine layer uses [`TagBits`] both for PE-local page frames and for the
//! *filled snapshot* shipped with a page reply, which is what makes
//! partial-page refetch accounting possible.

/// A fixed-length bitmap with one presence bit per memory cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagBits {
    words: Vec<u64>,
    len: usize,
    ones: usize,
}

impl TagBits {
    /// All-undefined bitmap over `len` cells.
    pub fn new(len: usize) -> Self {
        TagBits {
            words: vec![0; len.div_ceil(64)],
            len,
            ones: 0,
        }
    }

    /// All-defined bitmap over `len` cells (arrays "filled with
    /// initialization data", paper §3).
    pub fn all_set(len: usize) -> Self {
        TagBits::prefix(len, len)
    }

    /// Bitmap over `len` cells whose first `defined` are defined, set a
    /// word at a time.
    pub fn prefix(len: usize, defined: usize) -> Self {
        assert!(defined <= len, "prefix {defined} longer than {len} cells");
        let mut t = TagBits::new(len);
        let (full, rest) = (defined / 64, defined % 64);
        t.words[..full].fill(u64::MAX);
        if rest > 0 {
            t.words[full] = (1u64 << rest) - 1;
        }
        t.ones = defined;
        t
    }

    /// Number of cells covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap covers zero cells.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of defined cells.
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// True if every covered cell is defined.
    pub fn is_full(&self) -> bool {
        self.ones == self.len
    }

    /// Presence bit for cell `i`. Panics if out of range.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "tag index {i} out of range {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Mark cell `i` defined; returns the previous state.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        assert!(i < self.len, "tag index {i} out of range {}", self.len);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let prev = *w & mask != 0;
        if !prev {
            *w |= mask;
            self.ones += 1;
        }
        prev
    }

    /// Clear every presence bit (re-initialization).
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.ones = 0;
    }

    /// True if all cells in `range` are defined.
    pub fn all_set_in(&self, range: core::ops::Range<usize>) -> bool {
        range.clone().all(|i| self.get(i))
    }

    /// Index of the first undefined cell, if any.
    pub fn first_unset(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != u64::MAX {
                let bit = (!w).trailing_zeros() as usize;
                let idx = wi * 64 + bit;
                if idx < self.len {
                    return Some(idx);
                }
            }
        }
        None
    }

    /// Iterator over the indices of defined cells, ascending.
    pub fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| self.get(i))
    }

    /// Bitwise-OR another bitmap of the same length into this one
    /// (used to *upgrade* a cached partial page with a refetched snapshot).
    pub fn union_with(&mut self, other: &TagBits) {
        assert_eq!(self.len, other.len, "tag bitmap length mismatch");
        let mut ones = 0usize;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
            ones += a.count_ones() as usize;
        }
        self.ones = ones;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_prefix_is_its_cells_set_one_by_one() {
        for (len, defined) in [
            (0, 0),
            (5, 0),
            (5, 5),
            (64, 63),
            (64, 64),
            (130, 65),
            (130, 128),
        ] {
            let mut want = TagBits::new(len);
            for i in 0..defined {
                want.set(i);
            }
            assert_eq!(TagBits::prefix(len, defined), want, "{len} {defined}");
        }
    }

    #[test]
    fn new_is_all_unset() {
        let t = TagBits::new(130);
        assert_eq!(t.len(), 130);
        assert_eq!(t.count_ones(), 0);
        assert!(!t.is_full());
        assert_eq!(t.first_unset(), Some(0));
        assert!(!t.get(0));
        assert!(!t.get(129));
    }

    #[test]
    fn set_and_get_roundtrip_across_word_boundaries() {
        let mut t = TagBits::new(200);
        for &i in &[0, 1, 63, 64, 65, 127, 128, 199] {
            assert!(!t.set(i), "first set of {i} should report previously-unset");
            assert!(t.get(i));
        }
        assert_eq!(t.count_ones(), 8);
        // Second set reports already-set and does not double count.
        assert!(t.set(63));
        assert_eq!(t.count_ones(), 8);
    }

    #[test]
    fn all_set_constructor_is_full() {
        let t = TagBits::all_set(77);
        assert!(t.is_full());
        assert_eq!(t.count_ones(), 77);
        assert_eq!(t.first_unset(), None);
    }

    #[test]
    fn first_unset_skips_full_words() {
        let mut t = TagBits::new(150);
        for i in 0..128 {
            t.set(i);
        }
        assert_eq!(t.first_unset(), Some(128));
        for i in 128..150 {
            t.set(i);
        }
        assert_eq!(t.first_unset(), None);
    }

    #[test]
    fn clear_resets_everything() {
        let mut t = TagBits::all_set(65);
        t.clear();
        assert_eq!(t.count_ones(), 0);
        assert!(!t.get(64));
    }

    #[test]
    fn all_set_in_ranges() {
        let mut t = TagBits::new(100);
        for i in 10..20 {
            t.set(i);
        }
        assert!(t.all_set_in(10..20));
        assert!(!t.all_set_in(9..20));
        assert!(!t.all_set_in(10..21));
        assert!(t.all_set_in(15..15)); // empty range is trivially full
    }

    #[test]
    fn iter_set_yields_sorted_indices() {
        let mut t = TagBits::new(70);
        for &i in &[5, 64, 69, 0] {
            t.set(i);
        }
        let v: Vec<usize> = t.iter_set().collect();
        assert_eq!(v, vec![0, 5, 64, 69]);
    }

    #[test]
    fn union_upgrades_partial_snapshot() {
        let mut a = TagBits::new(128);
        a.set(3);
        let mut b = TagBits::new(128);
        b.set(100);
        b.set(3);
        a.union_with(&b);
        assert!(a.get(3) && a.get(100));
        assert_eq!(a.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let t = TagBits::new(10);
        t.get(10);
    }
}
