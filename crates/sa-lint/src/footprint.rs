//! Write footprints per generation, as sorted address runs: the clean-path
//! proof of the two exact passes.
//!
//! Single assignment gives every cell one producer per generation, so two
//! questions depend only on the *footprints* a generation's statements
//! write and read, never on which instance touches a cell: is every read
//! defined by the initializer or an earlier write, and is any cell written
//! twice? Along one sweep an all-affine reference is a [`Line`] in the trip
//! number ([`sa_ir::access::Access::line`]), and its footprint a [`Run`]:
//! one interval for a unit stride, one point for stride 0, `trips` points
//! `|stride|` apart otherwise. A gather or scatter through
//! compile-time-constant index arrays takes no line, but the values it
//! reads bound its addresses to one interval
//! ([`sa_ir::access::Access::hull`]).
//!
//! A [`Footprint`] keeps, per generation slot ([`crate::sites::LiveSlots`]
//! numbering), the defined addresses as one sorted list of disjoint
//! intervals — one entry per run of consecutive defined addresses, not one
//! per cell. Writes reach it in batches ([`Batch`]): a reference's runs
//! along consecutive sweeps join while they lie side by side, and at the
//! merge same-step runs of different references do too (SPMV's
//! `S(i,0…7)`, a plane of K21 one row at a time, a stencil's face strips),
//! before one sort and one linear merge, which also says whether every
//! address was new. A read is answered by binary search, one block of its
//! run at a time when no one interval holds the whole run. Building costs
//! O(sweeps + blocks of strided runs), never more than the cells an
//! instance walk visits.
//!
//! A reference is decided over a sweep only if every index stays inside
//! its extent on every trip of it — proved once for the nest by its loop
//! box, or else at the sweep's two end trips: a reference that may leave
//! its array could alias an in-bounds address, so it has no line here and
//! the pass asking takes its per-instance path. A gather's index-array
//! positions must stay inside the array's defined prefix — which is what
//! the footprint holds of a constant array — and its values, scaled and
//! offset, inside the dimension they index.

use sa_ir::{Line, Program};

/// `count ≥ 1` blocks of `width ≥ 1` consecutive addresses, the first from
/// `lo` and each `step` after the one before: what a line takes over one
/// sweep, or several same-step lines side by side. One block is an
/// interval, and then `step == width`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Run {
    lo: i64,
    width: i64,
    step: i64,
    count: i64,
}

impl Run {
    /// The addresses `[lo, hi)`, `lo < hi`.
    pub fn interval(lo: i64, hi: i64) -> Run {
        Run {
            lo,
            width: hi - lo,
            step: hi - lo,
            count: 1,
        }
    }

    /// The addresses `line` takes over `trips ≥ 1` trips, each once.
    pub fn along(line: Line, trips: usize) -> Run {
        let count = trips as i64;
        let lo = line.base.min(line.addr(count - 1));
        match line.step.abs() {
            0 => Run::interval(lo, lo + 1),
            step if step == 1 || count == 1 => Run::interval(lo, lo + 1 + step * (count - 1)),
            step => Run {
                lo,
                width: 1,
                step,
                count,
            },
        }
    }

    /// The smallest interval holding every block.
    fn hull(self) -> (i64, i64) {
        (self.lo, self.lo + self.step * (self.count - 1) + self.width)
    }

    fn blocks(self) -> impl Iterator<Item = (i64, i64)> {
        (0..self.count).map(move |c| {
            let lo = self.lo + c * self.step;
            (lo, lo + self.width)
        })
    }

    /// Blocks of the same number and step as `next`'s, whatever their
    /// width; intervals all alike.
    fn shape(self) -> (i64, i64) {
        match self.count {
            1 => (1, 0),
            count => (count, self.step),
        }
    }

    /// Take in `next` if its blocks continue this run's side by side: an
    /// interval that starts where this one ends, or same-shape blocks one
    /// width further on. (Blocks that grow past their step overlap the
    /// next one: a repeat the merge reports.)
    fn absorb(&mut self, next: Run) -> bool {
        let beside = next.lo == self.lo + self.width && self.shape() == next.shape();
        if !beside {
            return false;
        }
        self.width += next.width;
        if self.count == 1 || self.width == self.step {
            *self = Run::interval(self.lo, self.hull().1);
        }
        true
    }
}

/// Runs on their way into a [`Footprint`], from `streams` references:
/// each stream's runs join while they lie side by side (or repeat), and
/// the ones that stop doing so are queued as `(slot, run)`.
pub(crate) struct Batch {
    open: Vec<Option<(usize, Run)>>,
    /// The closed runs, in the order they closed.
    closed: Vec<(usize, Run)>,
    /// Some address was taken twice by one stream.
    repeats: bool,
}

impl Batch {
    pub fn new(streams: usize) -> Self {
        Batch {
            open: vec![None; streams],
            closed: Vec::new(),
            repeats: false,
        }
    }

    /// Stream `stream` takes `line` over `trips` trips in slot `slot`.
    pub fn line(&mut self, stream: usize, slot: usize, line: Line, trips: usize) {
        self.repeats |= line.step == 0 && trips > 1;
        self.push(stream, slot, Run::along(line, trips));
    }

    /// Stream `stream` takes `run` in slot `slot`.
    pub fn push(&mut self, stream: usize, slot: usize, run: Run) {
        let open = &mut self.open[stream];
        if let Some((at, last)) = open {
            if *at == slot && *last == run {
                self.repeats = true;
                return;
            }
            if *at == slot && last.absorb(run) {
                return;
            }
        }
        if let Some(done) = open.replace((slot, run)) {
            self.closed.push(done);
        }
    }

    /// Close every stream's open run.
    pub fn close(&mut self) {
        self.closed
            .extend(self.open.iter_mut().filter_map(Option::take));
    }
}

/// Disjoint, non-adjacent half-open address intervals, ascending.
#[derive(Default)]
struct Intervals(Vec<(i64, i64)>);

impl Intervals {
    /// Whether `[lo, hi)` lies inside the set (it is coalesced, so inside
    /// one interval).
    fn contains(&self, lo: i64, hi: i64) -> bool {
        let after = self.0.partition_point(|&(start, _)| start <= lo);
        after > 0 && self.0[after - 1].1 >= hi
    }

    /// Add `blocks`, sorted by start; whether they were disjoint from the
    /// set and from each other. One linear merge over the stretch of the
    /// set they reach.
    fn insert(&mut self, blocks: &[(i64, i64)]) -> bool {
        let Some(&(lo, _)) = blocks.first() else {
            return true;
        };
        let hi = blocks.iter().map(|b| b.1).max().unwrap_or(lo);
        let from = self.0.partition_point(|&(_, end)| end < lo);
        let to = self.0.partition_point(|&(start, _)| start <= hi);
        let (mut old, mut new) = (self.0[from..to].iter().peekable(), blocks.iter().peekable());
        let mut merged: Vec<(i64, i64)> = Vec::with_capacity(to - from + blocks.len());
        let mut fresh = true;
        while let Some(&(start, end)) = match (old.peek(), new.peek()) {
            (Some(o), Some(n)) if n.0 < o.0 => new.next(),
            (Some(_), _) => old.next(),
            (None, _) => new.next(),
        } {
            match merged.last_mut() {
                Some(last) if start <= last.1 => {
                    fresh &= start == last.1;
                    last.1 = last.1.max(end);
                }
                _ => merged.push((start, end)),
            }
        }
        self.0.splice(from..to, merged);
        fresh
    }
}

/// The addresses each generation slot has defined so far.
pub(crate) struct Footprint(Vec<Intervals>);

impl Footprint {
    /// Before the first phase: each array's initial generation (slot = its
    /// id) holds its initializer's prefix; re-initialized slots start empty.
    pub fn new(program: &Program) -> Self {
        let slots = program.arrays.iter().map(|decl| {
            let init = decl.init.defined_len(decl.len()) as i64;
            Intervals(if init > 0 {
                vec![(0, init)]
            } else {
                Vec::new()
            })
        });
        Footprint(slots.collect())
    }

    /// Whether one interval of slot `slot` holds all of `run`: one binary
    /// search.
    pub fn holds(&self, slot: usize, run: Run) -> bool {
        let (lo, hi) = run.hull();
        self.0.get(slot).is_some_and(|set| set.contains(lo, hi))
    }

    /// Whether slot `slot` defines every address of `run`: one binary
    /// search per block when no one interval holds them all.
    pub fn covers(&self, slot: usize, run: Run) -> bool {
        let block = |(lo, hi)| self.holds(slot, Run::interval(lo, hi));
        self.holds(slot, run) || (run.count > 1 && run.blocks().all(block))
    }

    /// Whether every run `batch` has closed lies inside what its slot
    /// defines; the closed runs are dropped.
    pub fn covers_closed(&self, batch: &mut Batch) -> bool {
        batch
            .closed
            .drain(..)
            .all(|(slot, run)| self.covers(slot, run))
    }

    /// Define every address `batch` took, its open runs closed, and empty
    /// it; whether each was new — neither defined before nor taken twice
    /// in the batch.
    pub fn merge(&mut self, batch: &mut Batch) -> bool {
        batch.close();
        let mut fresh = !std::mem::take(&mut batch.repeats);
        let runs = &mut batch.closed;
        // Same-shape runs side by side join whichever stream they came from.
        runs.sort_unstable_by_key(|&(slot, run)| (slot, run.shape(), run.lo));
        runs.dedup_by(|(slot, run), (at, last)| slot == at && last.absorb(*run));
        let mut blocks = Vec::new();
        for group in runs.chunk_by(|a, b| a.0 == b.0) {
            let slot = group[0].0;
            if slot >= self.0.len() {
                self.0.resize_with(slot + 1, Intervals::default);
            }
            blocks.clear();
            blocks.extend(group.iter().flat_map(|&(_, run)| run.blocks()));
            blocks.sort_unstable();
            fresh &= self.0[slot].insert(&blocks);
        }
        runs.clear();
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute force over a small address space: random batches — lines of
    /// every stride, several per stream, duplicated, touching and
    /// overlapping — merged and queried against a bitmap.
    #[test]
    fn batches_answer_like_a_bitmap() {
        let mut seed = 7u64;
        let mut next = |m: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % m) as i64
        };
        // A line over 1–8 trips inside [3, 82): stride −3…3 from 24…59.
        let line = |next: &mut dyn FnMut(u64) -> i64| {
            let (base, step, trips) = (24 + next(36), next(7) - 3, 1 + next(8) as usize);
            (Line { base, step }, trips)
        };
        let addrs = |(l, trips): (Line, usize)| (0..trips as i64).map(move |t| l.addr(t) as usize);
        for _ in 0..300 {
            let mut fp = Footprint(vec![Intervals::default()]);
            let mut bits = [false; 96];
            for _ in 0..6 {
                let mut batch = Batch::new(3);
                let mut taken = [0u32; 96];
                for _ in 0..1 + next(8) {
                    let (stream, l) = (next(3) as usize, line(&mut next));
                    // Now and then the same line again, or the one beside it.
                    let lines = match next(4) {
                        0 => vec![l, l],
                        1 => vec![
                            l,
                            (
                                Line {
                                    base: l.0.base + 1,
                                    ..l.0
                                },
                                l.1,
                            ),
                        ],
                        _ => vec![l],
                    };
                    for l in lines {
                        addrs(l).for_each(|a| taken[a] += 1);
                        batch.line(stream, 0, l.0, l.1);
                    }
                }
                let fresh = (0..96).all(|a| taken[a] == 0 || (taken[a] == 1 && !bits[a]));
                assert_eq!(fp.merge(&mut batch), fresh);
                (0..96).for_each(|a| bits[a] |= taken[a] > 0);
                let set = &fp.0[0].0;
                // Coalesced: disjoint and not even touching.
                assert!(set.windows(2).all(|w| w[0].1 < w[1].0), "{set:?}");
                assert!(set
                    .iter()
                    .all(|&(s, e)| s < e && (s..e).all(|a| bits[a as usize])));
                for _ in 0..40 {
                    let l = line(&mut next);
                    let all = addrs(l).all(|a| bits[a]);
                    assert_eq!(fp.covers(0, Run::along(l.0, l.1)), all, "{l:?} in {set:?}");
                }
            }
        }
    }

    #[test]
    fn same_step_lines_side_by_side_join_into_one_interval() {
        let mut batch = Batch::new(8);
        // Eight statements' lines at stride 8 from 0…7, as SPMV's S(i,t),
        // pushed in scrambled order: one interval [0, 80).
        for t in [3, 0, 7, 1, 2, 6, 4, 5] {
            batch.line(t as usize, 2, Line { base: t, step: 8 }, 10);
        }
        let mut fp = Footprint(Vec::new());
        assert!(fp.merge(&mut batch));
        assert_eq!(fp.0[2].0, [(0, 80)]);
        // One stream's runs side by side join before they close: a plane
        // of K21, rows of 3 at stride 4.
        let mut batch = Batch::new(1);
        for i in 1..4 {
            batch.line(
                0,
                0,
                Line {
                    base: 100 + i,
                    step: 4,
                },
                5,
            );
        }
        batch.close();
        assert_eq!(batch.closed.len(), 1);
        assert!(fp.merge(&mut batch));
        assert_eq!(
            fp.0[0].0,
            (0..5)
                .map(|j| (101 + 4 * j, 104 + 4 * j))
                .collect::<Vec<_>>()
        );
        assert!(fp.covers(
            0,
            Run::along(
                Line {
                    base: 117,
                    step: -4
                },
                5
            )
        ));
        assert!(!fp.covers(0, Run::along(Line { base: 100, step: 4 }, 5)));
        // A line that does not move takes its one address twice.
        let mut batch = Batch::new(1);
        batch.line(0, 3, Line { base: 0, step: 0 }, 2);
        assert!(!fp.merge(&mut batch));
        assert!(fp.covers(3, Run::interval(0, 1)));
        assert!(!fp.covers(4, Run::interval(0, 1)));
    }
}
