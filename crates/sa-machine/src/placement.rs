//! Page placement: one rule for every scheme, asked by every engine.
//!
//! Every owner decision in the system — the interpreter, replay, the
//! thread runtime, the lint passes — asks a [`Placement`], and
//! [`Placement::new`] lowers each [`PartitionScheme`] once into the same
//! thing: a round-robin tiling of a 2-D view of the array.
//!
//! * **The view.** `modulo`, `block` and `blockcyclic` see the flattened
//!   array, `len × 1`; `rowband` and `tile2d` see its declared grid
//!   ([`ArrayShape`]).
//! * **The tiles**, height × width in view cells: `ps × 1` (modulo),
//!   `B·ps × 1` (blockcyclic:B), `⌈pages/n⌉·ps × 1` (block),
//!   `⌈rows/n⌉ × cols` (rowband) and `R × C` (tile2d:RxC). They are
//!   numbered in row-major tile order, and tile `k` goes to PE `k mod n`.
//! * **The first element.** Pages stay the unit of distribution (the
//!   paper's fetch and caching model): a page goes with the tile holding
//!   its first element. A page past the end of the array is clamped to the
//!   last page first, so it goes with the last page.
//! * **Owner runs.** Moving a page range by whole pages keeps every page
//!   with its owner while the range stays inside one tile row and, where a
//!   tile row holds several tiles, every element keeps its column
//!   ([`Placement::same_owner_run`]): rows of one `block` or `rowband`
//!   band, or of one band of `tile2d` tiles, are translates of one another.
//! * **The period**, the run that never ends. Tile row `R + m` is dealt
//!   like tile row `R` once `m · tiles_per_row ≡ 0 (mod n)`, so ownership
//!   repeats every `lcm(m · tile_height · cols, ps)` elements with
//!   `m = n / gcd(tiles_per_row, n)` ([`Placement::period`]). `block` and
//!   `rowband` size their tiles so that the deal never wraps, and have
//!   none.

use sa_mem::PageMemo;

use crate::config::{validate_shape, ConfigError};
use crate::partition::{gcd, lcm, pages_in, PartitionScheme};

/// The declared geometry of an array, reduced to the 2-D view the tiled
/// schemes need: `rows` along the outermost declared dimension, `cols` the
/// product of all inner dimensions (so a 3-D `[d0, d1, d2]` grid is tiled
/// over the `(d0, d1·d2)` plane, banding along `d0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayShape {
    /// Total elements (`rows · cols`).
    pub len: usize,
    /// Extent of the outermost declared dimension.
    pub rows: usize,
    /// Product of the inner dimensions (≥ 1 row-major elements per row).
    pub cols: usize,
}

impl ArrayShape {
    /// Shape of an array declared with `dims` (row-major, outermost first).
    /// A one-dimensional array is one column of `len` rows, a scalar one
    /// element.
    pub fn from_dims(dims: &[usize]) -> Self {
        let (rows, cols) = match dims {
            [] => (1, 1),
            [len] => (*len, 1),
            [rows, inner @ ..] => (*rows, inner.iter().product::<usize>().max(1)),
        };
        ArrayShape {
            len: rows * cols,
            rows,
            cols,
        }
    }
}

/// A scheme lowered onto one array (module docs). Tile rows hold `band`
/// elements each and are walked in strips of `strip` elements: a view row
/// when a tile row holds `per_row > 1` tiles `width` cells wide, the
/// whole tile row (one tile, `width = strip = band`) otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tiling {
    band: usize,
    strip: usize,
    width: usize,
    per_row: usize,
    /// Pages per tile when tiles are as wide as the view and hold whole
    /// pages, else 0.
    whole: usize,
    /// Whether the deal can go past PE `n − 1` and wrap: `block` and
    /// `rowband` size their tiles so that it cannot.
    cyclic: bool,
    /// Pages the array occupies; pages past the end are clamped to the
    /// last of them.
    pages: usize,
}

impl Tiling {
    /// The one place the schemes differ: the view's width, the tiles'
    /// height and width in view cells, and whether the deal wraps.
    fn lower(scheme: PartitionScheme, ps: usize, n: usize, shape: ArrayShape) -> Self {
        let (cols, height, width, cyclic) = match scheme {
            PartitionScheme::Modulo => (1, ps, 1, true),
            PartitionScheme::BlockCyclic { block_pages } => {
                (1, block_pages.max(1).saturating_mul(ps), 1, true)
            }
            PartitionScheme::Block => {
                let chunk = pages_in(shape.len, ps).div_ceil(n).max(1);
                (1, chunk.saturating_mul(ps), 1, false)
            }
            PartitionScheme::RowBand => {
                let rows = shape.rows.div_ceil(n).max(1);
                (shape.cols, rows, shape.cols, false)
            }
            PartitionScheme::Tile2D {
                tile_rows,
                tile_cols,
            } => (shape.cols, tile_rows.max(1), tile_cols.max(1), true),
        };
        let band = height.saturating_mul(cols);
        let per_row = cols.div_ceil(width).max(1);
        let (strip, width) = if per_row == 1 {
            (band, band)
        } else {
            (cols, width)
        };
        Tiling {
            band,
            strip,
            width,
            per_row,
            whole: if per_row == 1 && band % ps == 0 {
                band / ps
            } else {
                0
            },
            cyclic,
            pages: pages_in(shape.len, ps),
        }
    }
}

/// A complete placement decision for one array: scheme, page size, PE
/// count, and the array's declared shape. Construct one per array (shapes
/// differ) and ask it who owns a page or an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The partitioning scheme.
    pub scheme: PartitionScheme,
    /// Page size in elements (≥ 1).
    pub page_size: usize,
    /// Number of PEs (≥ 1).
    pub n_pes: usize,
    /// The array's declared geometry.
    pub shape: ArrayShape,
    /// `scheme` lowered onto `shape`.
    tiling: Tiling,
}

impl Placement {
    /// Placement of an array of `shape` under `scheme` on `n_pes` PEs with
    /// `page_size`-element pages.
    pub fn new(scheme: PartitionScheme, page_size: usize, n_pes: usize, shape: ArrayShape) -> Self {
        assert!(n_pes > 0, "placement on a machine with zero PEs");
        assert!(page_size > 0, "placement with zero page size");
        Placement {
            scheme,
            page_size,
            n_pes,
            shape,
            tiling: Tiling::lower(scheme, page_size, n_pes, shape),
        }
    }

    /// One placement per array of a program, in declaration order, each
    /// from its declared `dims` (outermost first) — the one validated
    /// builder of the per-array table every engine and analysis indexes by
    /// array id.
    pub fn table<D: AsRef<[usize]>>(
        dims: impl IntoIterator<Item = D>,
        scheme: PartitionScheme,
        page_size: usize,
        n_pes: usize,
    ) -> Result<Vec<Placement>, ConfigError> {
        validate_shape(scheme, page_size, n_pes)?;
        Ok(dims
            .into_iter()
            .map(|d| Placement::new(scheme, page_size, n_pes, ArrayShape::from_dims(d.as_ref())))
            .collect())
    }

    /// Number of pages the array occupies.
    pub fn pages(&self) -> usize {
        self.tiling.pages
    }

    /// Owning PE of `page`: the PE the tile holding its first element is
    /// dealt to, a page past the end clamped to the last one.
    #[inline]
    pub fn page_owner(&self, page: usize) -> usize {
        let last = self.tiling.pages.saturating_sub(1);
        self.tile_of(page.min(last) * self.page_size) % self.n_pes
    }

    /// Row-major index of the tile holding element `e`.
    #[inline]
    fn tile_of(&self, e: usize) -> usize {
        let t = &self.tiling;
        let first = e / t.band * t.per_row;
        if t.per_row == 1 {
            first
        } else {
            first + e % t.strip / t.width
        }
    }

    /// Owning PE of the page containing linear address `addr`.
    pub fn owner_of_addr(&self, addr: usize) -> usize {
        self.page_owner(addr / self.page_size)
    }

    /// [`Placement::owner_of_addr`] for an access site that remembers its
    /// last page in `memo`: the placement is asked once per run of
    /// accesses to one page, and `memo` then also holds the page.
    #[inline]
    pub fn owner_at(&self, addr: usize, memo: &mut PageMemo) -> usize {
        if !memo.holds(addr) {
            let page = memo.page_of(addr, self.page_size);
            memo.remember(page, self.page_size, self.page_owner(page), 0);
        }
        memo.owner
    }

    /// The element distance `T` after which ownership repeats, if there is
    /// one: `T` is a multiple of the page size and
    /// `owner_of_addr(a + T) == owner_of_addr(a)` for every address `a`
    /// with `a + T` in the array — the special case of
    /// [`Placement::same_owner_run`] that is unbounded from every page
    /// range, once the step is a multiple of `T`. Stretches of a nest
    /// whose references all differ by multiples of `T` execute on the same
    /// PEs with the same locality wherever they lie, which is what lets the
    /// schedule merge them across a whole nest into residue classes
    /// (`sa_lint::screening::Schedule::folds`).
    ///
    /// `T = lcm(m · tile_height · cols, ps)` with
    /// `m = n / gcd(tiles_per_row, n)` (module docs): `n · ps` for
    /// `modulo`, `B · n · ps` for `blockcyclic:B`. On one PE every page is
    /// a period; `block` and `rowband` never wrap, so have none.
    pub fn period(&self) -> Option<usize> {
        let (n, t) = (self.n_pes as u64, &self.tiling);
        if n == 1 {
            return Some(self.page_size);
        }
        if !t.cyclic {
            return None;
        }
        let m = n / gcd(t.per_row as u64, n);
        let period = lcm(m.checked_mul(t.band as u64)?, self.page_size as u64)?;
        usize::try_from(period).ok()
    }

    /// How many translates of the pages `plo..=phi` by `step` pages keep
    /// every page with its owner: the largest `m` with
    /// `page_owner(q + j · step) == page_owner(q)` for every `q` in the
    /// range and `1 ≤ j ≤ m` — `u64::MAX` when there is none, because
    /// `step` moves by whole [`period`](Placement::period)s (or not at
    /// all).
    ///
    /// Otherwise a translate keeps owners while the range stays in the
    /// tile row it starts in — and, when a tile row holds several tiles,
    /// only if `step` moves by whole view rows, so that every element
    /// keeps its column. So the answer is the room left between the range
    /// and its tile row's edge, in steps, and 0 for a range that straddles
    /// an edge: exact for `block` and `rowband` (whose tiles never wrap
    /// round the PEs), a lower bound for the cyclic schemes, which may
    /// also return to an owner after leaving it. A range reaching past the
    /// array's last page gets 0.
    pub fn same_owner_run(&self, plo: usize, phi: usize, step: i64) -> u64 {
        let (ps, t) = (self.page_size as i128, &self.tiling);
        let moved = i128::from(step) * ps;
        if step == 0 || self.period().is_some_and(|p| moved % p as i128 == 0) {
            return u64::MAX;
        }
        if plo > phi || phi >= t.pages || (t.per_row > 1 && moved % t.strip as i128 != 0) {
            return 0;
        }
        let (ps, band) = (ps as u128, t.band as u128);
        let row = plo as u128 * ps / band;
        if phi as u128 * ps / band != row {
            return 0;
        }
        // The pages whose first element lies in tile row `row`.
        let (first, end) = ((row * band).div_ceil(ps), ((row + 1) * band).div_ceil(ps));
        let room = if step > 0 {
            end - 1 - phi as u128
        } else {
            plo as u128 - first
        };
        u64::try_from(room / u128::from(step.unsigned_abs())).unwrap_or(u64::MAX - 1)
    }

    /// The PEs owning pages `plo..=phi`: the run of PEs the tiles holding
    /// the pages' first elements are dealt to, every PE once the range
    /// meets `n` tiles. Exact for `block`, whose deal never wraps and whose
    /// tiles are whole pages, and for `rowband` while a band is no shorter
    /// than a page; otherwise it may name a PE whose tile holds no page's
    /// first element. Pages past the end go with the last page.
    pub fn owners(&self, plo: usize, phi: usize) -> PeRange {
        let (n, ps, t) = (self.n_pes, self.page_size, &self.tiling);
        let last = t.pages.saturating_sub(1);
        let (e0, e1) = (plo.min(last) * ps, phi.max(plo).min(last) * ps);
        // Tile numbers grow along a view row; across rows of a tile row,
        // the range may meet any of its tiles.
        let (first, end) = if e0 / t.strip == e1 / t.strip {
            (self.tile_of(e0), self.tile_of(e1))
        } else {
            (e0 / t.band * t.per_row, (e1 / t.band + 1) * t.per_row - 1)
        };
        PeRange::tiles(first, end - first + 1, n)
    }

    /// Invoke `f`, in ascending order, on the maximal page intervals
    /// `[q0, q1)` that together hold exactly the pages `pe` owns within
    /// the inclusive page range `[plo, phi]`.
    ///
    /// The walk visits `pe`'s own tiles band by band — in tile row `R`, the
    /// tile columns `k ≡ pe − R · tiles_per_row (mod n)` — so its cost is
    /// proportional to the PE's own share of the range, which is what lets
    /// the replay engine shard an `n = 10⁷` sweep without walking every
    /// page on every PE. A tile as wide as the view is one element range,
    /// hence one page interval; a narrower tile is one segment per view
    /// row. Where pages are so long against the tiles that the range holds
    /// fewer of them than the walk would visit, it goes page by page
    /// instead. Pages past the array go with the last page.
    pub fn owned_page_intervals(
        &self,
        pe: usize,
        plo: usize,
        phi: usize,
        f: impl FnMut(usize, usize),
    ) {
        let (n, ps, t) = (self.n_pes, self.page_size, self.tiling);
        let total = self.pages();
        let mut out = Coalesce {
            f,
            start: 0,
            end: 0,
        };
        let hi = phi.min(total.saturating_sub(1));
        if plo <= hi && plo < total {
            // The pages whose first element lies in `[e0, e1)`.
            let pages =
                |e0: usize, e1: usize| (e0.div_ceil(ps).max(plo), e1.div_ceil(ps).min(hi + 1));
            let (s_lo, s_hi) = (plo * ps / t.strip, hi * ps / t.strip);
            if t.per_row == 1 && t.strip.saturating_mul(n) >= ps {
                // Tile `s` is strip `s`, and `pe`'s are `s ≡ pe (mod n)`.
                let skip = s_lo % n;
                let mut s = s_lo - skip + pe + if pe < skip { n } else { 0 };
                if t.whole > 0 && n > 1 && s + n <= s_hi {
                    // Whole pages per tile, other PEs' between two of
                    // `pe`'s: no division per tile, and nothing to merge
                    // before the last one, which may meet the pages past
                    // the end. Only the first may start before `plo`.
                    let before_last = s_hi - n;
                    (out.f)((s * t.whole).max(plo), (s + 1) * t.whole);
                    s += n;
                    while s <= before_last {
                        (out.f)(s * t.whole, (s + 1) * t.whole);
                        s += n;
                    }
                }
                while s <= s_hi {
                    out.push(match t.whole {
                        0 => pages(s * t.strip, (s + 1).saturating_mul(t.strip)),
                        w => ((s * w).max(plo), ((s + 1) * w).min(hi + 1)),
                    });
                    s += n;
                }
            } else if t.per_row > 1
                && (s_hi - s_lo + 1).saturating_mul(t.per_row.div_ceil(n)) <= hi - plo + 1
            {
                // View row `r` of tile row `R = r / rows_per_tile`.
                let rows_per_tile = t.band / t.strip;
                for r in s_lo..=s_hi {
                    let e = r * t.strip;
                    let mut k = (pe + n - r / rows_per_tile * t.per_row % n) % n;
                    while k < t.per_row {
                        out.push(pages(e + k * t.width, e + ((k + 1) * t.width).min(t.strip)));
                        k += n;
                    }
                }
            } else {
                for q in plo..=hi {
                    if self.page_owner(q) == pe {
                        out.push((q, q + 1));
                    }
                }
            }
        }
        if phi >= total && self.page_owner(total) == pe {
            out.push((plo.max(total), phi + 1));
        }
        out.finish();
    }

    /// Add to `per_pe[pe]`, for every [`PageRun`] of `runs`, its count
    /// times the number of its pages that `pe` owns — the one per-PE
    /// owned-page count, which prices a placement-free page profile
    /// (`sa_lint::depgraph::AnchorProfile`).
    ///
    /// A run is counted a stretch of pages at a time, each stretch the
    /// pages whose first elements share a tile segment (a tile row, or one
    /// tile's part of a view row): page by page at worst, and at most one
    /// stretch per tile. Under a [`period`](Placement::period) of `p`
    /// pages, a run of two or more periods is one period counted once and
    /// multiplied, plus the rest — O(PEs + period) however long it is —
    /// and translates by `stride` that stay inside the array own alike
    /// every `p / gcd(stride, p)` of them, so only that many are counted.
    /// Pages past the array go with the last page.
    pub fn count_owned_pages<'r>(
        &self,
        runs: impl IntoIterator<Item = &'r PageRun>,
        per_pe: &mut [u64],
    ) {
        let total = self.pages();
        let period = self.period().map(|t| t / self.page_size);
        for run in runs {
            let last = run.first + (run.reps - 1) * run.stride;
            let cycle = match period {
                _ if run.stride == 0 => 1,
                Some(p) if last + run.pages <= total => {
                    p / gcd((run.stride % p) as u64, p as u64) as usize
                }
                _ => run.reps,
            };
            for k in 0..run.reps.min(cycle) {
                let times = (run.reps - k).div_ceil(cycle) as u64;
                let first = run.first + k * run.stride;
                let (end, count) = (first + run.pages, run.count * times);
                self.count_range(first, end, count, period, per_pe);
            }
        }
    }

    /// [`Placement::count_owned_pages`] of the one run `q0..q1`, under a
    /// period of `period` pages if there is one.
    fn count_range(
        &self,
        mut q0: usize,
        q1: usize,
        weight: u64,
        period: Option<usize>,
        per_pe: &mut [u64],
    ) {
        let total = self.pages();
        if q1 > total {
            per_pe[self.page_owner(total)] += weight * (q1 - q0.max(total)) as u64;
        }
        let q1 = q1.min(total);
        if let Some(p) = period {
            let reps = q1.saturating_sub(q0) / p;
            if reps >= 2 {
                self.count_stretches(q0, q0 + p, weight * reps as u64, per_pe);
                q0 += reps * p;
            }
        }
        self.count_stretches(q0, q1, weight, per_pe);
    }

    /// Walk `q0..q1`, all inside the array, a stretch of pages with one
    /// tile at a time.
    #[inline]
    fn count_stretches(&self, mut q: usize, q1: usize, weight: u64, per_pe: &mut [u64]) {
        let (ps, t, n) = (self.page_size, &self.tiling, self.n_pes);
        while q < q1 {
            let e = q * ps;
            let (tile, segment_end) = if t.per_row == 1 {
                let tile = e / t.band;
                (tile, (tile + 1).saturating_mul(t.band))
            } else {
                let into = e % t.strip;
                let end = ((into / t.width + 1) * t.width).min(t.strip);
                (self.tile_of(e), e - into + end)
            };
            let end = segment_end.div_ceil(ps).min(q1);
            per_pe[tile % n] += weight * (end - q) as u64;
            q = end;
        }
    }
}

/// `count` on each of pages `first..first + pages` and on each of its
/// translates by `stride`, `2 · stride`, … pages — `reps` runs in all,
/// the first included: what [`Placement::count_owned_pages`] prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRun {
    /// First page of the first run.
    pub first: usize,
    /// Pages per run.
    pub pages: usize,
    /// The count on each page.
    pub count: u64,
    /// Pages from one run to the next.
    pub stride: usize,
    /// Number of runs (≥ 1).
    pub reps: usize,
}

impl PageRun {
    /// `count` on each of pages `first..first + pages`, once.
    pub fn new(first: usize, pages: usize, count: u64) -> PageRun {
        PageRun {
            first,
            pages,
            count,
            stride: 0,
            reps: 1,
        }
    }

    /// One past the last page of the first run.
    pub fn end(&self) -> usize {
        self.first + self.pages
    }
}

/// A circular run of PE numbers: `len` PEs from `start` on, wrapping past
/// PE `n − 1` to PE 0 ([`Placement::owners`]). A test of membership is
/// O(1), so a walk can skip what a PE takes no part in before it looks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeRange {
    start: usize,
    len: usize,
    n: usize,
}

impl PeRange {
    /// No PE of `n`.
    pub fn none(n: usize) -> Self {
        PeRange {
            start: 0,
            len: 0,
            n,
        }
    }

    /// Every PE of `n`.
    pub fn all(n: usize) -> Self {
        PeRange {
            start: 0,
            len: n,
            n,
        }
    }

    /// The PEs `count` consecutive tiles from tile `first` on are dealt to.
    fn tiles(first: usize, count: usize, n: usize) -> Self {
        if count >= n {
            PeRange::all(n)
        } else {
            PeRange {
                start: first % n,
                len: count,
                n,
            }
        }
    }

    /// Whether `pe` is in the run.
    #[inline]
    pub fn contains(&self, pe: usize) -> bool {
        (pe + self.n - self.start) % self.n < self.len
    }

    /// The shorter of the two circular runs that hold both `self` and
    /// `other`, each starting where one of them does.
    pub fn union(self, other: PeRange) -> PeRange {
        if self.len == 0 || other.len == 0 {
            return if self.len == 0 { other } else { self };
        }
        let n = self.n;
        let reach = |a: &PeRange, b: &PeRange| a.len.max((b.start + n - a.start) % n + b.len);
        let (ab, ba) = (reach(&self, &other), reach(&other, &self));
        if ab <= ba {
            PeRange::tiles(self.start, ab, n)
        } else {
            PeRange::tiles(other.start, ba, n)
        }
    }
}

/// Forwards ascending page intervals to `f`, dropping empty ones and
/// merging adjacent ones, so the intervals `f` sees are maximal. The one
/// held back is `[start, end)`, empty until the first push.
struct Coalesce<F> {
    f: F,
    start: usize,
    end: usize,
}

impl<F: FnMut(usize, usize)> Coalesce<F> {
    #[inline]
    fn push(&mut self, (q0, q1): (usize, usize)) {
        if q0 >= q1 {
            return;
        }
        if q0 != self.end {
            self.finish_one();
            self.start = q0;
        }
        self.end = q1;
    }

    #[inline]
    fn finish_one(&mut self) {
        if self.start < self.end {
            (self.f)(self.start, self.end);
        }
    }

    fn finish(mut self) {
        self.finish_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shapes() -> Vec<ArrayShape> {
        [
            &[100][..],
            &[1],
            &[0],
            &[12, 10],
            &[7, 13],
            &[4, 5, 6],
            &[64, 64],
        ]
        .into_iter()
        .map(ArrayShape::from_dims)
        .collect()
    }

    fn schemes() -> Vec<PartitionScheme> {
        vec![
            PartitionScheme::Modulo,
            PartitionScheme::Block,
            PartitionScheme::BlockCyclic { block_pages: 3 },
            PartitionScheme::RowBand,
            PartitionScheme::Tile2D {
                tile_rows: 3,
                tile_cols: 4,
            },
            PartitionScheme::Tile2D {
                tile_rows: 32,
                tile_cols: 32,
            },
        ]
    }

    fn linear(scheme: PartitionScheme, page_size: usize, n_pes: usize, len: usize) -> Placement {
        Placement::new(scheme, page_size, n_pes, ArrayShape::from_dims(&[len]))
    }

    #[test]
    fn shape_folds_inner_dims() {
        let s = ArrayShape::from_dims(&[4, 5, 6]);
        assert_eq!((s.rows, s.cols, s.len), (4, 30, 120));
        let l = ArrayShape::from_dims(&[9]);
        assert_eq!((l.rows, l.cols, l.len), (9, 1, 9));
        assert_eq!(ArrayShape::from_dims(&[]), ArrayShape::from_dims(&[1]));
    }

    #[test]
    fn table_validates_the_shape_and_places_every_array() {
        let dims = [vec![100], vec![12, 10], vec![]];
        let table = Placement::table(&dims, PartitionScheme::RowBand, 8, 4).unwrap();
        let want: Vec<Placement> = dims
            .iter()
            .map(|d| Placement::new(PartitionScheme::RowBand, 8, 4, ArrayShape::from_dims(d)))
            .collect();
        assert_eq!(table, want);
        for (scheme, page_size, n_pes, err) in [
            (PartitionScheme::Modulo, 8, 0, ConfigError::ZeroPes),
            (PartitionScheme::Modulo, 0, 4, ConfigError::ZeroPageSize),
            (
                PartitionScheme::BlockCyclic { block_pages: 0 },
                8,
                4,
                ConfigError::ZeroBlockPages,
            ),
            (
                PartitionScheme::Tile2D {
                    tile_rows: 0,
                    tile_cols: 4,
                },
                8,
                4,
                ConfigError::ZeroTileShape,
            ),
        ] {
            assert_eq!(Placement::table(&dims, scheme, page_size, n_pes), Err(err));
        }
    }

    #[test]
    #[should_panic(expected = "zero PEs")]
    fn zero_pes_panics() {
        linear(PartitionScheme::Modulo, 8, 0, 32);
    }

    #[test]
    fn modulo_matches_paper_example() {
        // Paper §2: 4 PEs, page size 32, arrays of 100 elements → PEs 0..2
        // hold one full page each, PE 3 holds the partial page.
        let pl = linear(PartitionScheme::Modulo, 32, 4, 100);
        assert_eq!(pl.pages(), 4);
        assert_eq!(
            (0..4).map(|p| pl.page_owner(p)).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        // Wraps for more pages than PEs.
        assert_eq!(linear(PartitionScheme::Modulo, 1, 4, 8).page_owner(5), 1);
    }

    #[test]
    fn block_divides_contiguously() {
        // 8 pages over 4 PEs → chunks of 2.
        let pl = linear(PartitionScheme::Block, 1, 4, 8);
        for p in 0..8 {
            assert_eq!(pl.page_owner(p), p / 2);
        }
        // 9 pages over 4 PEs → chunks of 3: PE0 gets 0..2, PE1 3..5, PE2 6..8.
        assert_eq!(linear(PartitionScheme::Block, 1, 4, 9).page_owner(8), 2);
        // 3 pages on 8 PEs: chunks of one page, and PEs 3..8 own nothing.
        let pl = linear(PartitionScheme::Block, 1, 8, 3);
        assert_eq!(
            (0..3).map(|p| pl.page_owner(p)).collect::<Vec<_>>(),
            [0, 1, 2]
        );
    }

    #[test]
    fn blockcyclic_generalizes_both() {
        let bc = |b| linear(PartitionScheme::BlockCyclic { block_pages: b }, 4, 3, 48);
        let (modulo, block) = (
            linear(PartitionScheme::Modulo, 4, 3, 48),
            linear(PartitionScheme::Block, 4, 3, 48),
        );
        for p in 0..12 {
            assert_eq!(bc(1).page_owner(p), modulo.page_owner(p));
            assert_eq!(bc(4).page_owner(p), block.page_owner(p));
            // Rejected by config validation, but a hand-built scheme is
            // still total: chunks clamp to one page.
            assert_eq!(bc(0).page_owner(p), modulo.page_owner(p));
        }
    }

    #[test]
    fn one_dimensional_grids_tile_like_the_page_linear_schemes() {
        // With one-element pages a 1-D array's rows are its pages: a row
        // band is a block and a 3-row tile a 3-page block.
        let band = linear(PartitionScheme::RowBand, 1, 4, 40);
        let block = linear(PartitionScheme::Block, 1, 4, 40);
        let tile = PartitionScheme::Tile2D {
            tile_rows: 3,
            tile_cols: 9,
        };
        let bc = linear(PartitionScheme::BlockCyclic { block_pages: 3 }, 1, 4, 40);
        for p in 0..40 {
            assert_eq!(band.page_owner(p), block.page_owner(p));
            assert_eq!(linear(tile, 1, 4, 40).page_owner(p), bc.page_owner(p));
        }
    }

    #[test]
    fn every_page_has_one_in_range_owner() {
        for shape in shapes() {
            for scheme in schemes() {
                for n in [1usize, 3, 4, 7] {
                    let pl = Placement::new(scheme, 8, n, shape);
                    for p in 0..pl.pages() + 2 {
                        assert!(pl.page_owner(p) < n, "{scheme:?} {shape:?} {n} PEs");
                    }
                }
            }
        }
    }

    #[test]
    fn pages_past_the_end_go_with_the_last_page() {
        // One rule for every scheme: a probe past the end is clamped to
        // the last page — never wrapped round the PEs, and never handed to
        // a PE that owns no part of the array.
        let shape = ArrayShape::from_dims(&[10, 7]); // 70 elems, ps 8 → 9 pages
        for scheme in schemes() {
            let pl = Placement::new(scheme, 8, 4, shape);
            let last = pl.page_owner(pl.pages() - 1);
            for past in [0, 1, 5, usize::MAX - pl.pages()] {
                assert_eq!(pl.page_owner(pl.pages() + past), last, "{scheme:?}");
            }
        }
        let empty = Placement::new(PartitionScheme::Block, 8, 4, ArrayShape::from_dims(&[0]));
        assert_eq!((empty.page_owner(0), empty.page_owner(7)), (0, 0));
    }

    #[test]
    fn rowband_bands_rows_contiguously() {
        // 12×10 grid, page size 10 (one row per page), 3 PEs → bands of 4
        // rows: pages 0..4 on PE 0, 4..8 on PE 1, 8..12 on PE 2.
        let pl = Placement::new(
            PartitionScheme::RowBand,
            10,
            3,
            ArrayShape::from_dims(&[12, 10]),
        );
        for p in 0..12 {
            assert_eq!(pl.page_owner(p), p / 4);
        }
    }

    #[test]
    fn tile2d_deals_tiles_round_robin() {
        // 4×4 grid, 2×2 tiles, page size 1, 4 PEs: tiles (0,0),(0,1),(1,0),
        // (1,1) → PEs 0,1,2,3 in row-major tile order.
        let pl = Placement::new(
            PartitionScheme::Tile2D {
                tile_rows: 2,
                tile_cols: 2,
            },
            1,
            4,
            ArrayShape::from_dims(&[4, 4]),
        );
        let owner_of = |r: usize, c: usize| pl.owner_of_addr(r * 4 + c);
        assert_eq!(owner_of(0, 0), 0);
        assert_eq!(owner_of(1, 1), 0);
        assert_eq!(owner_of(0, 2), 1);
        assert_eq!(owner_of(2, 0), 2);
        assert_eq!(owner_of(3, 3), 3);
    }

    #[test]
    fn tile2d_periods_count_the_tile_rows_a_deal_takes_to_repeat() {
        // 12×10 grid, 3×4 tiles: 3 tiles per row. On 4 PEs the deal
        // repeats after 4 tile rows of 30 elements, on 3 PEs after one;
        // either way rounded up to whole 8-element pages.
        let tile = |n| {
            let scheme = PartitionScheme::Tile2D {
                tile_rows: 3,
                tile_cols: 4,
            };
            Placement::new(scheme, 8, n, ArrayShape::from_dims(&[12, 10])).period()
        };
        assert_eq!((tile(4), tile(3), tile(1)), (Some(120), Some(120), Some(8)));
        let rowband = Placement::new(
            PartitionScheme::RowBand,
            8,
            4,
            ArrayShape::from_dims(&[12, 10]),
        );
        assert_eq!(rowband.period(), None);
    }

    #[test]
    fn owner_runs_and_owner_ranges_agree_with_brute_force() {
        for shape in shapes() {
            for scheme in schemes() {
                let banded = matches!(scheme, PartitionScheme::Block | PartitionScheme::RowBand);
                for (n, ps) in [(1usize, 8usize), (3, 1), (4, 3), (7, 8), (7, 32)] {
                    let pl = Placement::new(scheme, ps, n, shape);
                    let pages = pl.pages() as i64;
                    let at = |q: i64| pl.page_owner(q as usize);
                    let period = pl.period().map_or(0, |t| (t / ps) as i64);
                    for plo in (0..pages).step_by((pages as usize / 48).max(1)) {
                        for phi in plo..pages.min(plo + 9) {
                            let owners = pl.owners(plo as usize, phi as usize);
                            let truth: Vec<bool> =
                                (0..n).map(|pe| (plo..=phi).any(|q| at(q) == pe)).collect();
                            for (pe, &owns) in truth.iter().enumerate() {
                                assert!(!owns || owners.contains(pe), "{scheme:?} {shape:?}");
                                if banded && pl.tiling.band >= ps {
                                    assert_eq!(owners.contains(pe), owns, "{scheme:?} {shape:?}");
                                }
                            }
                            for step in [-7i64, -3, -1, 1, 2, 5, 10, period, -2 * period] {
                                let run = pl.same_owner_run(plo as usize, phi as usize, step);
                                let at = format!(
                                    "{scheme:?} {shape:?} {n}x{ps} [{plo},{phi}] by {step}"
                                );
                                if step == 0 || n == 1 {
                                    assert_eq!(run, u64::MAX, "{at}");
                                    continue;
                                }
                                // Translates inside the array: each of the first
                                // `run` keeps every owner; for the banded schemes
                                // the next one does not.
                                let inside = |j: i64| plo + j * step >= 0 && phi + j * step < pages;
                                let keeps = |j: i64| {
                                    (plo..=phi).all(|q| {
                                        pl.page_owner((q + j * step) as usize)
                                            == pl.page_owner(q as usize)
                                    })
                                };
                                let mut j = 1;
                                while inside(j) && (j as u64) <= run.min(40) {
                                    assert!(keeps(j), "{at}: translate {j} of {run}");
                                    j += 1;
                                }
                                if banded && inside(j) && j as u64 == run + 1 {
                                    assert!(!keeps(j), "{at}: the run ends early at {run}");
                                }
                            }
                        }
                    }
                }
            }
        }
        let union = PeRange::tiles(6, 2, 8).union(PeRange::tiles(1, 1, 8));
        assert_eq!(
            (0..8).filter(|&pe| union.contains(pe)).collect::<Vec<_>>(),
            [0, 1, 6, 7]
        );
        assert_eq!(PeRange::none(8).union(union), union);
    }

    #[test]
    fn owned_page_counts_agree_with_brute_force() {
        let mut shapes = shapes();
        shapes.push(ArrayShape::from_dims(&[40, 96]));
        for shape in shapes {
            for scheme in schemes() {
                for (n, ps) in [(1usize, 8usize), (3, 1), (4, 3), (7, 8), (16, 2)] {
                    let pl = Placement::new(scheme, ps, n, shape);
                    let pages = pl.pages();
                    // Short and long runs, runs sharing a class, and runs
                    // past the end.
                    let mut runs = vec![(0, pages, 3u64), (0, pages + 2, 1), (pages, 2, 5)];
                    for first in (0..pages).step_by((pages / 7).max(1)) {
                        for len in [1, 2, 5, pages - first] {
                            runs.push((first, len, 1 + (first + len) as u64 % 4));
                        }
                    }
                    let mut runs: Vec<PageRun> = runs
                        .iter()
                        .map(|&(q, len, w)| PageRun::new(q, len, w))
                        .collect();
                    // Translates: strides within and beyond a period, of
                    // runs that stay inside the array and of one that ends
                    // past it.
                    for (stride, reps) in [(0, 5), (1, 3), (3, 7), (ps * n, 4), (2 * n + 1, 9)] {
                        for len in [1, 3] {
                            let fits = pages.saturating_sub(len) / stride.max(1) + 1;
                            runs.push(PageRun {
                                stride,
                                reps: reps.min(fits).max(1),
                                ..PageRun::new(0, len, 2)
                            });
                        }
                    }
                    runs.push(PageRun {
                        stride: 2,
                        reps: 4,
                        ..PageRun::new(pages.saturating_sub(3), 2, 1)
                    });
                    let mut want = vec![0u64; n];
                    for run in &runs {
                        for k in 0..run.reps {
                            let first = run.first + k * run.stride;
                            for q in first..first + run.pages {
                                want[pl.page_owner(q)] += run.count;
                            }
                        }
                    }
                    let mut got = vec![0u64; n];
                    pl.count_owned_pages(&runs, &mut got);
                    assert_eq!(got, want, "{scheme:?} {shape:?} n={n} ps={ps}");
                }
            }
        }
    }

    #[test]
    fn owned_intervals_agree_with_brute_force() {
        for shape in shapes() {
            for scheme in schemes() {
                for n in [1usize, 3, 4] {
                    let pl = Placement::new(scheme, 8, n, shape);
                    let pages = pl.pages();
                    for (plo, phi) in [
                        (0, pages + 2),
                        (1, pages.max(1)),
                        (0, 0),
                        (pages, pages + 3),
                    ] {
                        let mut all = Vec::new();
                        for pe in 0..n {
                            let mut got = Vec::new();
                            pl.owned_page_intervals(pe, plo, phi, |q0, q1| {
                                assert!(q0 < q1 && q0 >= plo && q1 <= phi + 1, "[{q0},{q1})");
                                got.extend(q0..q1);
                            });
                            let want: Vec<usize> =
                                (plo..=phi).filter(|&q| pl.page_owner(q) == pe).collect();
                            assert_eq!(
                                got, want,
                                "{scheme:?} {shape:?} n={n} pe={pe} [{plo},{phi}]"
                            );
                            all.extend(got);
                        }
                        all.sort_unstable();
                        assert_eq!(all, (plo..=phi).collect::<Vec<_>>(), "{scheme:?} {shape:?}");
                    }
                }
            }
        }
    }
}
