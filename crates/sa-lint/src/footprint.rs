//! Write footprints per generation, as address intervals: the clean-path
//! proof of the two exact passes.
//!
//! Single assignment gives every cell one producer per generation, so two
//! questions depend only on the *footprints* a generation's statements
//! write and read, never on which instance touches a cell: is every read
//! defined by the initializer or a write, and is any cell written twice?
//! Along one sweep an all-affine reference is a [`Line`] in the trip number
//! ([`SweepRef::line`]); its footprint is one interval for a unit stride,
//! one point for stride 0 and its points for any other stride. A
//! [`Footprint`] keeps, per generation slot ([`crate::sites::LiveSlots`]
//! numbering), the defined addresses as disjoint intervals, so building
//! it costs O(sweeps + points of strided sweeps) — never more than the
//! cells an instance walk visits — and it holds one entry per run of
//! consecutive defined addresses, not one per cell.
//!
//! A reference is decided over a sweep only if every index stays inside
//! its extent at the sweep's two end trips, hence (an index is affine in
//! the trip number) on every trip between: a reference that may leave its
//! array could alias an in-bounds address, so it has no line here and the
//! pass asking takes its per-instance path.

use std::collections::BTreeMap;

use sa_ir::index::{AffineIndex, IndexExpr};
use sa_ir::nest::ArrayRef;
use sa_ir::{Line, Program, Sweep};

/// Disjoint, non-adjacent half-open address intervals `start → end`.
#[derive(Default)]
struct Intervals(BTreeMap<i64, i64>);

impl Intervals {
    /// Whether `[lo, hi)` lies inside the set (it is coalesced, so inside
    /// one interval).
    fn contains(&self, lo: i64, hi: i64) -> bool {
        let below = self.0.range(..=lo).next_back();
        below.is_some_and(|(_, &end)| end >= hi)
    }

    /// Add `[lo, hi)`; whether it was disjoint from the set before.
    fn insert(&mut self, mut lo: i64, mut hi: i64) -> bool {
        // The last interval starting before `hi` reaches furthest.
        let before = self.0.range(..hi).next_back();
        let disjoint = before.is_none_or(|(_, &end)| end <= lo);
        if let Some((&start, &end)) = self.0.range(..lo).next_back() {
            if end >= lo {
                lo = start;
                hi = hi.max(end);
            }
        }
        while let Some((&start, &end)) = self.0.range(lo..=hi).next() {
            hi = hi.max(end);
            self.0.remove(&start);
        }
        self.0.insert(lo, hi);
        disjoint
    }
}

/// The addresses each generation slot has defined so far.
pub(crate) struct Footprint(Vec<Intervals>);

impl Footprint {
    /// Before the first phase: each array's initial generation (slot = its
    /// id) holds its initializer's prefix; re-initialized slots start empty.
    pub fn new(program: &Program) -> Self {
        let slots = program.arrays.iter().map(|decl| {
            let mut set = Intervals::default();
            let init = decl.init.defined_len(decl.len());
            if init > 0 {
                set.insert(0, init as i64);
            }
            set
        });
        Footprint(slots.collect())
    }

    /// Whether slot `slot` defines every address `line` takes over `trips`
    /// trips.
    pub fn covers(&self, slot: usize, line: Line, trips: usize) -> bool {
        let Some(set) = self.0.get(slot) else {
            return false;
        };
        let (lo, hi) = hull(line, trips);
        set.contains(lo, hi)
            || (line.step.abs() > 1
                && (0..trips as i64).all(|t| {
                    let a = line.addr(t);
                    set.contains(a, a + 1)
                }))
    }

    /// Define, in slot `slot`, every address `line` takes over `trips`
    /// trips; whether each was new — neither defined before nor taken
    /// twice by the line itself.
    pub fn add(&mut self, slot: usize, line: Line, trips: usize) -> bool {
        if slot >= self.0.len() {
            self.0.resize_with(slot + 1, Intervals::default);
        }
        let set = &mut self.0[slot];
        match line.step.abs() {
            0 => set.insert(line.base, line.base + 1) && trips == 1,
            1 => {
                let (lo, hi) = hull(line, trips);
                set.insert(lo, hi)
            }
            _ => (0..trips as i64).fold(true, |fresh, t| {
                let a = line.addr(t);
                set.insert(a, a + 1) && fresh
            }),
        }
    }
}

/// The smallest interval holding the line's addresses over `trips ≥ 1`
/// trips.
fn hull(line: Line, trips: usize) -> (i64, i64) {
    let (first, last) = (line.base, line.addr(trips as i64 - 1));
    (first.min(last), first.max(last) + 1)
}

/// An all-affine reference, ready to be followed along sweeps: per
/// dimension its index, extent and row-major stride.
pub(crate) struct SweepRef<'p>(Vec<(&'p AffineIndex, i64, i64)>);

impl<'p> SweepRef<'p> {
    /// `None` for a reference through an index array, or one whose rank is
    /// not its array's (it names no cell).
    pub fn new(program: &Program, aref: &'p ArrayRef) -> Option<Self> {
        let decl = program.array(aref.array);
        if aref.indices.len() != decl.dims.len() {
            return None;
        }
        let strides = decl.strides();
        let dims = aref.indices.iter().zip(&decl.dims).zip(strides);
        dims.map(|((ix, &extent), stride)| match ix {
            IndexExpr::Affine(a) => Some((a, extent as i64, stride as i64)),
            IndexExpr::Indirect { .. } => None,
        })
        .collect::<Option<_>>()
        .map(SweepRef)
    }

    /// Each index along `sweep`, with its extent and stride.
    fn indices<'s>(&'s self, sweep: &'s Sweep<'_>) -> impl Iterator<Item = (Line, i64, i64)> + 's {
        let along = |&(index, extent, stride): &(&AffineIndex, i64, i64)| {
            (
                Line::along(&index.coeffs, index.offset, sweep),
                extent,
                stride,
            )
        };
        self.0.iter().map(along)
    }

    /// The first index, in dimension order, outside its extent at an end
    /// trip of `sweep` (the first trip before the last), as `(dimension,
    /// index)`. `None` means every index stays inside at both, and so —
    /// an index is affine in the trip — on every trip between.
    pub fn leaves(&self, sweep: &Sweep<'_>) -> Option<(usize, i64)> {
        let last = sweep.trips as i64 - 1;
        let outside = |(line, extent, _): (Line, i64, i64)| {
            let ends = [line.base, line.addr(last)];
            ends.into_iter().find(|i| !(0..extent).contains(i))
        };
        let mut dims = self.indices(sweep).map(outside).enumerate();
        dims.find_map(|(d, index)| index.map(|i| (d, i)))
    }

    /// The linear address along `sweep`, if no index leaves its extent.
    pub fn line(&self, sweep: &Sweep<'_>) -> Option<Line> {
        if self.leaves(sweep).is_some() {
            return None;
        }
        let mut addr = Line { base: 0, step: 0 };
        for (line, _, stride) in self.indices(sweep) {
            addr.base += stride * line.base;
            addr.step += stride * line.step;
        }
        Some(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute force over a small address space: every insert and query
    /// against a bitmap.
    #[test]
    fn intervals_answer_like_a_bitmap() {
        let mut seed = 7u64;
        let mut next = |m: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % m) as i64
        };
        for _ in 0..200 {
            let mut set = Intervals::default();
            let mut bits = [false; 72];
            for _ in 0..12 {
                let lo = next(60);
                let hi = lo + 1 + next(6);
                let disjoint = (lo..hi).all(|a| !bits[a as usize]);
                assert_eq!(set.insert(lo, hi), disjoint, "[{lo}, {hi})");
                (lo..hi).for_each(|a| bits[a as usize] = true);
                // Coalesced: disjoint and not even touching.
                let ends: Vec<_> = set.0.iter().map(|(&s, &e)| (s, e)).collect();
                assert!(ends.windows(2).all(|w| w[0].1 < w[1].0), "{ends:?}");
                for lo in 0..70 {
                    for hi in lo + 1..72 {
                        let all = (lo..hi).all(|a| bits[a as usize]);
                        assert_eq!(set.contains(lo, hi), all, "[{lo}, {hi}) in {ends:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_line_defines_its_points_and_reports_a_repeat() {
        let program = sa_ir::ProgramBuilder::new("empty").finish();
        let mut fp = Footprint::new(&program);
        // Stride 3 from 10: 10, 13, 16, 19.
        assert!(fp.add(0, Line { base: 10, step: 3 }, 4));
        assert!(fp.covers(0, Line { base: 19, step: -3 }, 4));
        assert!(!fp.covers(0, Line { base: 10, step: 1 }, 4));
        // Descending unit stride over 11, 12 fills the gap; 13 was taken.
        assert!(fp.add(0, Line { base: 12, step: -1 }, 2));
        assert!(!fp.add(0, Line { base: 13, step: 1 }, 1));
        assert!(fp.covers(0, Line { base: 10, step: 1 }, 4));
        // A line that does not move takes its one address twice.
        assert!(!fp.add(3, Line { base: 0, step: 0 }, 2));
        assert!(fp.add(2, Line { base: 0, step: 0 }, 1));
        assert!(!fp.covers(1, Line { base: 0, step: 0 }, 1));
    }
}
