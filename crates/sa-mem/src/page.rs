//! Tagged page buffers — the unit of transfer between PEs.
//!
//! A [`TaggedPage`] is a fixed-length run of cells with a presence bit per
//! cell: the common shape of a worker's owned page frame, the payload of a
//! page reply shipped over the interconnect, a cached copy, and the
//! resolution snapshots the runtime keeps for indirect statement anchors.
//! Centralizing it here keeps the *upgrade* semantics (merging a refetched
//! partial page into a resident copy, paper §8) in exactly one place.

use crate::tagged::TagBits;

/// A fixed-length cell buffer with per-cell presence tags.
#[derive(Debug, Clone, PartialEq)]
pub struct TaggedPage {
    values: Vec<f64>,
    fill: TagBits,
}

impl TaggedPage {
    /// An all-undefined page of `len` cells.
    pub fn undefined(len: usize) -> Self {
        TaggedPage {
            values: vec![0.0; len],
            fill: TagBits::new(len),
        }
    }

    /// A fully defined page holding `values`.
    pub fn full(values: Vec<f64>) -> Self {
        let fill = TagBits::all_set(values.len());
        TaggedPage { values, fill }
    }

    /// Assemble from raw parts (a shipped reply). Panics on length mismatch.
    pub fn from_parts(values: Vec<f64>, fill: TagBits) -> Self {
        assert_eq!(values.len(), fill.len(), "page/fill length mismatch");
        TaggedPage { values, fill }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the page covers zero cells.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value of cell `offset`, or `None` while it is undefined.
    #[inline]
    pub fn get(&self, offset: usize) -> Option<f64> {
        if offset < self.len() && self.fill.get(offset) {
            Some(self.values[offset])
        } else {
            None
        }
    }

    /// Define cell `offset`; returns whether it was *already* defined (the
    /// caller's single-assignment check).
    #[inline]
    pub fn set(&mut self, offset: usize, value: f64) -> bool {
        self.values[offset] = value;
        self.fill.set(offset)
    }

    /// Presence bitmap.
    pub fn fill(&self) -> &TagBits {
        &self.fill
    }

    /// Raw cell values (undefined cells hold garbage; gate with [`fill`]).
    ///
    /// [`fill`]: TaggedPage::fill
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// True if every cell is defined.
    pub fn is_full(&self) -> bool {
        self.fill.is_full()
    }

    /// Upgrade in place from another snapshot of the same page: copy the
    /// cells `other` has defined and union the presence bits (§8 partial
    /// page refetch). Panics on length mismatch.
    pub fn merge_from(&mut self, other: &TaggedPage) {
        for i in other.fill.iter_set() {
            self.values[i] = other.values[i];
        }
        self.fill.union_with(&other.fill);
    }

    /// Return every cell to undefined (re-initialization).
    pub fn clear(&mut self) {
        self.fill.clear();
    }
}

/// What one access site remembers about the page it last touched: the
/// page, who owns it, and where the owner keeps it. Under single
/// assignment an access site walks its addresses in page runs, and every
/// address of a page has the page's owner, so a site asks the placement
/// once per run instead of once per access. The memory that fills a memo
/// decides what `owner` and `slot` mean; a memo is only ever filled by
/// one kind of memory, and a fresh one holds no page.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageMemo {
    start: usize,
    len: usize,
    /// The page.
    pub page: usize,
    /// Its owning PE.
    pub owner: usize,
    /// The owner's frame for it, where the memory keeps frames.
    pub slot: usize,
}

impl PageMemo {
    /// Whether `addr` lies on the remembered page.
    #[inline]
    pub fn holds(&self, addr: usize) -> bool {
        addr.wrapping_sub(self.start) < self.len
    }

    /// `addr`'s offset into the remembered page (which must hold it).
    #[inline]
    pub fn offset(&self, addr: usize) -> usize {
        debug_assert!(self.holds(addr));
        addr - self.start
    }

    /// The page of `page_size` elements holding `addr`: the remembered
    /// page's neighbour when a walk has just stepped off it, without a
    /// division.
    #[inline]
    pub fn page_of(&self, addr: usize, page_size: usize) -> usize {
        if self.len == page_size {
            let end = self.start + page_size;
            if addr >= end && addr - end < page_size {
                return self.page + 1;
            }
            if addr < self.start && self.start - addr <= page_size {
                return self.page - 1;
            }
        }
        addr / page_size
    }

    /// Remember page `page` of `page_size`-element pages.
    #[inline]
    pub fn remember(&mut self, page: usize, page_size: usize, owner: usize, slot: usize) {
        *self = PageMemo {
            start: page * page_size,
            len: page_size,
            page,
            owner,
            slot,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_memo_holds_exactly_its_page() {
        let mut m = PageMemo::default();
        assert!(!m.holds(0), "a fresh memo holds nothing");
        assert_eq!(m.page_of(13, 8), 1);
        m.remember(3, 8, 2, 1);
        assert!(!m.holds(23) && m.holds(24) && m.holds(31) && !m.holds(32));
        assert_eq!((m.page, m.owner, m.slot, m.offset(26)), (3, 2, 1, 2));
        for addr in 0..80 {
            assert_eq!(m.page_of(addr, 8), addr / 8, "{addr}");
        }
    }

    #[test]
    fn undefined_then_set_then_get() {
        let mut p = TaggedPage::undefined(4);
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        assert_eq!(p.get(2), None);
        assert!(!p.set(2, 7.0), "first write is not a double");
        assert_eq!(p.get(2), Some(7.0));
        assert!(p.set(2, 8.0), "second write reports prior definition");
        assert!(!p.is_full());
    }

    #[test]
    fn full_pages_answer_everywhere() {
        let p = TaggedPage::full(vec![1.0, 2.0]);
        assert!(p.is_full());
        assert_eq!(p.get(0), Some(1.0));
        assert_eq!(p.get(1), Some(2.0));
        assert_eq!(p.get(2), None, "out of range is undefined, not a panic");
    }

    #[test]
    fn merge_upgrades_without_losing_cells() {
        let mut a = TaggedPage::undefined(4);
        a.set(0, 1.0);
        let mut b = TaggedPage::undefined(4);
        b.set(3, 9.0);
        a.merge_from(&b);
        assert_eq!(a.get(0), Some(1.0), "old cells survive the upgrade");
        assert_eq!(a.get(3), Some(9.0));
        assert_eq!(a.fill().count_ones(), 2);
    }

    #[test]
    fn clear_returns_to_undefined() {
        let mut p = TaggedPage::full(vec![1.0]);
        p.clear();
        assert_eq!(p.get(0), None);
        assert!(!p.is_full());
    }

    #[test]
    fn from_parts_round_trips() {
        let mut fill = TagBits::new(3);
        fill.set(1);
        let p = TaggedPage::from_parts(vec![0.0, 5.0, 0.0], fill.clone());
        assert_eq!(p.get(0), None);
        assert_eq!(p.get(1), Some(5.0));
        assert_eq!(p.fill(), &fill);
        assert_eq!(p.values(), &[0.0, 5.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_parts_rejects_mismatched_lengths() {
        let _ = TaggedPage::from_parts(vec![0.0], TagBits::new(2));
    }
}
