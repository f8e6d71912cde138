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

use std::ops::Range;

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
    /// [`Placement::period`], worked out once.
    period: Option<usize>,
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
        // Tile row `R + m` is dealt like tile row `R` (module docs).
        let period = match n {
            1 => Some(ps),
            _ if !cyclic => None,
            _ => {
                let m = n as u64 / gcd(per_row as u64, n as u64);
                let period = m.checked_mul(band as u64).and_then(|t| lcm(t, ps as u64));
                period.and_then(|p| usize::try_from(p).ok())
            }
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
            period,
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
        self.tiling.period
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
        let (ps, t) = (self.page_size as u64, &self.tiling);
        let steps = step.unsigned_abs();
        // A period is a whole number of pages.
        let periods = |p: usize| steps.is_multiple_of(p as u64 / ps);
        if step == 0 || self.period().is_some_and(periods) {
            return u64::MAX;
        }
        // A move of more elements than a u64 holds leaves the array.
        let Some(moved) = steps.checked_mul(ps) else {
            return 0;
        };
        if plo > phi || phi >= t.pages || (t.per_row > 1 && !moved.is_multiple_of(t.strip as u64)) {
            return 0;
        }
        let band = t.band as u64;
        let row = plo as u64 * ps / band;
        if phi as u64 * ps / band != row {
            return 0;
        }
        // The pages whose first element lies in tile row `row`.
        let first = (row * band).div_ceil(ps);
        let end = (row * band).saturating_add(band).div_ceil(ps);
        let room = if step > 0 {
            end - 1 - phi as u64
        } else {
            plo as u64 - first
        };
        room / steps
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
    /// (`sa_lint::profile::AnchorProfile`): `Placement::price_runs` with
    /// one role, the page itself. Pages past the array go with the last
    /// page.
    pub fn count_owned_pages(&self, runs: &[PageRun], per_pe: &mut [u64]) {
        let last = self.page_owner(self.pages());
        let runs = runs.iter().map(|run| (run, 0, run.count));
        self.price_runs([0], runs, &mut None, |_, [owner], weight| {
            let pe = match owner {
                NO_PAGE => last,
                pe => pe as usize,
            };
            per_pe[pe] += weight;
        });
    }

    /// A pricer of translation reads under this placement
    /// ([`FetchPricer::count_fetched_pages`]).
    pub fn fetch_pricer(&self) -> FetchPricer<'_> {
        FetchPricer {
            placement: self,
            owner_table: None,
        }
    }

    /// The one pricer of page runs against owners. Each of `runs` is a
    /// [`PageRun`] with a tag and a weight per page; `sink(tag, owners,
    /// weight)` is called until every page of every run is handed over,
    /// its weight (times its translates) split among calls whose `owners`
    /// are those of the pages at the offsets `roles` from it — `NO_PAGE`
    /// for one outside the array.
    ///
    /// Runs are cut into pieces (`Placement::pieces`): translates whose
    /// roles own alike are one piece. Pieces are priced by one rule:
    ///
    /// * under a [period](Placement::period) of `p` pages, no more than
    ///   the array holds, once the walk below would take at least `p`
    ///   stretches per tag, each piece adds its weight to a range of
    ///   residues mod `p` (`Residues`), O(1) however long, and each
    ///   residue's owners are read once, from one window;
    /// * else, once the walk would take at least a quarter as many
    ///   stretches as the array has pages, the owners are read from a
    ///   table of every page's, kept in `owner_table`;
    /// * else the pieces are walked a stretch at a time, the pages whose
    ///   roles' first elements each share a tile segment (a tile row, or
    ///   one tile's part of a view row).
    ///
    /// The table and the walk take two or more periods of a piece as one,
    /// weight multiplied; a page whose roles are not all inside the array
    /// takes one of them under every rule.
    fn price_runs<'r, const N: usize>(
        &self,
        roles: [i64; N],
        runs: impl Iterator<Item = (&'r PageRun, usize, u64)> + Clone,
        owner_table: &mut Option<Vec<u32>>,
        mut sink: impl FnMut(usize, [u32; N], u64),
    ) {
        let total = self.pages() as i64;
        let low = roles.into_iter().fold(0, i64::min);
        let high = roles.into_iter().fold(0, i64::max);
        // The pages whose roles all lie inside the array: a period makes
        // their prices periodic.
        let inner = -low..(total - high).max(-low);
        let short = self.period().map(|p| p / self.page_size);
        let short = short.filter(|&p| p <= total as usize && !inner.is_empty());
        let periodic = short.map(|p| (p, inner.start as usize..inner.end as usize));
        // Every run as pieces, `(first, pages, tag, weight)`: a run that
        // stands once is one, and translated runs are cut into pieces,
        // translates that price alike one piece, its weight multiplied.
        let plain = runs.clone().filter(|(run, ..)| run.stride == 0);
        let plain =
            plain.map(|(run, tag, weight)| (run.first, run.pages, tag, weight * run.reps as u64));
        let (mut translated, mut tags) = (Vec::new(), 0u64);
        for (run, tag, weight) in runs {
            tags |= 1 << tag;
            if run.stride == 0 {
                continue;
            }
            let alike = |first: usize| {
                let (first, end) = (first as i64, (first + run.pages) as i64);
                if first + low < 0 || end + high > total {
                    return 0;
                }
                let room = ((total - end - high) / run.stride as i64) as u64;
                let moved = |o: i64| {
                    let (lo, hi) = ((first + o) as usize, (end - 1 + o) as usize);
                    self.same_owner_run(lo, hi, run.stride as i64)
                };
                let most = |most: u64, &o: &i64| if most == 0 { 0 } else { most.min(moved(o)) };
                roles.iter().fold(room, most)
            };
            self.pieces(run, periodic.clone(), alike, |first, times| {
                translated.push((first, run.pages, tag, weight * times));
            });
        }
        let pieces = || plain.clone().chain(translated.iter().copied());
        // About how many stretches the walk would take.
        let t = &self.tiling;
        let segment = (if t.per_row == 1 { t.band } else { t.width } / self.page_size).max(1);
        let longest = short.map_or(usize::MAX, |p| 2 * p);
        let (n, sum) = pieces().fold((0, 0usize), |(n, sum), piece| {
            (n + 1, sum.saturating_add(piece.1.min(longest)))
        });
        let walks = n + sum / segment;
        let period = short.filter(|&p| p * (tags.count_ones() as usize).max(1) <= walks);
        let table = (period.is_none() && 4 * walks >= total as usize)
            .then(|| &owner_table.get_or_insert_with(|| self.owner_table(total as usize))[..]);
        let mut residues: Vec<Option<Residues>> = Vec::new();
        residues.resize_with(64 - tags.leading_zeros() as usize, || None);
        let mut at = [OwnerRun::default(); N];
        // Hand over pages `q0..q1` of a piece, from the table when there
        // is one, else a stretch at a time.
        let mut walk = |q0: i64, q1: i64, tag: usize, weight: u64| {
            if let Some(table) = table {
                for q in q0..q1 {
                    let owner = |o| table.get((q + o) as usize).copied().unwrap_or(NO_PAGE);
                    sink(tag, roles.map(owner), weight);
                }
                return;
            }
            let mut q = q0;
            while q < q1 {
                let (mut end, mut owners) = (q1, [0; N]);
                for ((at, &o), owner) in at.iter_mut().zip(&roles).zip(&mut owners) {
                    if !(at.start..at.end).contains(&(q + o)) {
                        *at = self.owner_run(q + o);
                    }
                    (*owner, end) = (at.owner, end.min(at.end.saturating_sub(o)));
                }
                sink(tag, owners, weight * (end - q) as u64);
                q = end;
            }
        };
        let clamp = |q: i64| q.clamp(inner.start, inner.end);
        for (first, pages, tag, weight) in pieces() {
            let (q0, q1) = (first as i64, (first + pages) as i64);
            let (a, b) = (clamp(q0), clamp(q1));
            if q0 < a || b < q1 {
                walk(q0, a.min(q1), tag, weight);
                walk(b.max(q0), q1, tag, weight);
            }
            match period {
                Some(p) => residues[tag]
                    .get_or_insert_with(|| Residues {
                        diff: vec![0; p + 1],
                        last: (0, 0),
                    })
                    .add(a as usize, b as usize, weight),
                None => self.fold_periods(a as usize, b as usize, short, weight, |a, b, weight| {
                    walk(a as i64, b as i64, tag, weight);
                }),
            }
        }
        let Some(p) = period else {
            return;
        };
        let totals: Vec<Option<Vec<u64>>> = residues
            .iter()
            .map(|residues| residues.as_ref().map(Residues::totals))
            .collect();
        // Residue `x`'s pages price like the first inner page of it, all
        // from the owners of the pages up to its roles.
        let window = self.owner_table(((inner.start + p as i64).min(inner.end) + high) as usize);
        for x in 0..p {
            let q = inner.start + (x as i64 - inner.start).rem_euclid(p as i64);
            if q >= inner.end {
                continue;
            }
            let owners = roles.map(|o| window[(q + o) as usize]);
            for (tag, totals) in totals.iter().enumerate() {
                if let Some(totals) = totals {
                    sink(tag, owners, totals[x]);
                }
            }
        }
    }

    /// The owners of the array's first `pages` pages: a page's tile column
    /// and tile row follow its first element from the last page's, with no
    /// division inside a view row.
    fn owner_table(&self, pages: usize) -> Vec<u32> {
        let (ps, n, t) = (self.page_size, self.n_pes, &self.tiling);
        let mut table = Vec::with_capacity(pages);
        let rows_per_tile = t.band / t.strip;
        // The offset into the view row, the view row mod `rows_per_tile`,
        // the first PE of its tile row, its tile column mod `n`, and the
        // offset into that tile.
        let (mut into, mut row, mut base, mut column, mut rest) = (0, 0, 0, 0, 0);
        for _ in 0..pages {
            let pe = base + column;
            table.push((if pe >= n { pe - n } else { pe }) as u32);
            into += ps;
            if into < t.strip {
                rest += ps;
                while rest >= t.width {
                    rest -= t.width;
                    column = if column + 1 == n { 0 } else { column + 1 };
                }
                continue;
            }
            let rows = row + into / t.strip;
            into %= t.strip;
            row = rows % rows_per_tile;
            base = (base + rows / rows_per_tile * t.per_row) % n;
            (column, rest) = (into / t.width % n, into % t.width);
        }
        table
    }

    /// Call `walk(q0, q1, weight)` on the pages `q0..q1`, all inside the
    /// array: under a period of `p` pages, two or more periods of them are
    /// one period with the weight multiplied, and the rest.
    fn fold_periods(
        &self,
        q0: usize,
        q1: usize,
        period: Option<usize>,
        weight: u64,
        mut walk: impl FnMut(usize, usize, u64),
    ) {
        let mut q = q0;
        if let Some(p) = period {
            let reps = q1.saturating_sub(q0) / p;
            if reps >= 2 {
                walk(q0, q0 + p, weight * reps as u64);
                q += reps * p;
            }
        }
        if q < q1 {
            walk(q, q1, weight);
        }
    }

    /// Call `f(first, times)` on pieces of `run`, translated by a nonzero
    /// stride: a translate by its first page, standing for itself and
    /// `times − 1` others that price alike.
    /// Consecutive translates price alike while `alike(first)` says so;
    /// and with `periodic = (p, pages)`, where prices repeat every `p`
    /// pages inside `pages`, the translates inside it price alike every
    /// `p / gcd(stride, p)` of them, so one of each residue class stands
    /// for all.
    fn pieces(
        &self,
        run: &PageRun,
        periodic: Option<(usize, Range<usize>)>,
        alike: impl Fn(usize) -> u64,
        mut f: impl FnMut(usize, u64),
    ) {
        if run.pages == 0 || run.reps == 0 {
            return;
        }
        let (first, s, reps) = (run.first as i64, run.stride as i64, run.reps as i64);
        let at = |k: i64| (first + k * s) as usize;
        // The translates that lie inside the periodic pages.
        let (k0, k1, cycle) = match periodic {
            Some((p, inside)) => {
                let k0 = (inside.start as i64 - first + s - 1)
                    .div_euclid(s)
                    .clamp(0, reps);
                let k1 = ((inside.end as i64 - run.pages as i64 - first).div_euclid(s) + 1)
                    .clamp(k0, reps);
                let cycle = p / gcd((run.stride % p) as u64, p as u64) as usize;
                (k0, k1, cycle as i64)
            }
            None => (0, 0, 1),
        };
        // Translates `ks` in groups that price alike, each standing for the
        // `times` of its members. A stride that moves pages across the
        // tiles of a view row keeps no owner ([`Placement::same_owner_run`]).
        let (moved, t) = (run.stride * self.page_size, &self.tiling);
        let movable =
            t.per_row == 1 || moved % t.strip == 0 || self.period().is_some_and(|p| moved % p == 0);
        let mut group = |ks: Range<i64>, times: &dyn Fn(Range<i64>) -> u64| {
            let mut k = ks.start;
            while k < ks.end {
                let more = if movable { alike(at(k)) as i64 } else { 0 };
                let more = more.min(ks.end - k - 1);
                f(at(k), times(k..k + more + 1));
                k += more + 1;
            }
        };
        let each = |ks: Range<i64>| (ks.end - ks.start) as u64;
        let class_sizes = |ks: Range<i64>| {
            ks.map(|k| (k1 - k + cycle - 1).div_euclid(cycle) as u64)
                .sum()
        };
        group(0..k0, &each);
        group(k0..k0 + (k1 - k0).min(cycle), &class_sizes);
        group(k1..reps, &each);
    }

    /// The pages that share page `q`'s tile segment, and their owner; a
    /// page outside the array is no one's, in one run with the pages on
    /// its side.
    fn owner_run(&self, q: i64) -> OwnerRun {
        let total = self.pages() as i64;
        if !(0..total).contains(&q) {
            let start = if q < 0 { i64::MIN } else { total };
            let end = if q < 0 { 0 } else { i64::MAX };
            let owner = NO_PAGE;
            return OwnerRun { start, end, owner };
        }
        let (ps, t) = (self.page_size, &self.tiling);
        let e = q as usize * ps;
        let (tile, lo, hi) = if t.per_row == 1 {
            let tile = e / t.band;
            (tile, tile * t.band, (tile + 1).saturating_mul(t.band))
        } else {
            let into = e % t.strip;
            let k = into / t.width;
            let row = e - into;
            (
                self.tile_of(e),
                row + k * t.width,
                row + ((k + 1) * t.width).min(t.strip),
            )
        };
        OwnerRun {
            start: lo.div_ceil(ps) as i64,
            end: (hi.div_ceil(ps) as i64).min(total),
            owner: (tile % self.n_pes) as u32,
        }
    }
}

/// The owner of no page: the pages outside an array.
const NO_PAGE: u32 = u32::MAX;

/// Pages `start..end` that one PE owns because their first elements share
/// a tile segment ([`Placement::owner_run`]).
#[derive(Debug, Clone, Copy, Default)]
struct OwnerRun {
    start: i64,
    end: i64,
    owner: u32,
}

/// Weights of pages summed by residue mod `p`, in a circular difference
/// array: a range of pages is O(1) to add however long it is, and a range
/// that starts less than `p` pages after the last one takes its residue
/// from it, with no division.
#[derive(Debug)]
struct Residues {
    diff: Vec<u64>,
    /// The first page of the last range added, and its residue.
    last: (usize, usize),
}

impl Residues {
    /// Add `weight` on each of pages `q0..q1`.
    fn add(&mut self, q0: usize, q1: usize, weight: u64) {
        let p = self.diff.len() - 1;
        let len = q1.saturating_sub(q0);
        // Whole periods add to every residue.
        self.diff[0] = self.diff[0].wrapping_add((len / p) as u64 * weight);
        let start = match q0.checked_sub(self.last.0) {
            Some(gap) if gap < p => match self.last.1 + gap {
                x if x >= p => x - p,
                x => x,
            },
            _ => q0 % p,
        };
        let rest = len % p;
        self.last = (q0, start);
        let mut range = |a: usize, b: usize| {
            self.diff[a] = self.diff[a].wrapping_add(weight);
            self.diff[b] = self.diff[b].wrapping_sub(weight);
        };
        if start + rest <= p {
            range(start, start + rest);
        } else {
            range(start, p);
            range(0, start + rest - p);
        }
    }

    /// The weight at each residue.
    fn totals(&self) -> Vec<u64> {
        let p = self.diff.len() - 1;
        self.diff[..p]
            .iter()
            .scan(0u64, |sum, &d| {
                *sum = sum.wrapping_add(d);
                Some(*sum)
            })
            .collect()
    }
}

/// Prices translation reads under one placement, keeping the table of
/// page owners that pricing builds for the next read.
#[derive(Debug)]
pub struct FetchPricer<'p> {
    placement: &'p Placement,
    owner_table: Option<Vec<u32>>,
}

impl FetchPricer<'_> {
    /// A lower bound on the remote pages the PEs fetch for one translation
    /// read: the read `shift` elements from the anchors on the pages of
    /// `runs`, in an array placed like the anchors'. Each run carries the
    /// class of its pages ([`FetchPricer::class`]); no page is in two
    /// runs, and a run with translates has a stride.
    ///
    /// Owner-computes runs an instance on the PE owning its anchor's page,
    /// and a PE fetches every remote page it reads at least once, whatever
    /// its cache: the floor counts distinct (PE, read page) pairs with the
    /// PE not the page's owner. With `shift = m · ps + r`, `0 ≤ r < ps`,
    /// the anchors on page `q` below `ps − r` read page `q + m` and the
    /// others page `q + m + 1`; a page's class says which of the two parts
    /// certainly hold an anchor. A pair is counted from one anchor page
    /// only: page `q + m + 1` from page `q` only when page `q + 1` has
    /// another owner, and a page with neither part certain counts one
    /// pair, when both candidates are remote and no neighbour shares its
    /// owner. So a page's price depends on its class and on the owners of
    /// five pages around it, its roles for `Placement::price_runs`.
    pub fn count_fetched_pages(&mut self, shift: i64, runs: &[(PageRun, u8)]) -> u64 {
        debug_assert!(runs.iter().all(|(run, _)| run.stride > 0 || run.reps == 1));
        let ps = self.placement.page_size as i64;
        let (m, r) = (shift.div_euclid(ps), shift.rem_euclid(ps));
        // Before, itself, after, and the two pages its reads may reach.
        // Without `r` only the page and the one its reads reach count: the
        // other roles repeat the page itself, and no price looks at them.
        let roles = match r {
            0 => [0, 0, 0, m, 0],
            _ => [-1, 0, 1, m, m + 1],
        };
        let runs = runs
            .iter()
            .map(|(run, class)| (run, usize::from(*class), 1));
        let mut floor = 0;
        let table = &mut self.owner_table;
        self.placement
            .price_runs(roles, runs, table, |class, o, pages| {
                let remote = |pe: u32| pe != NO_PAGE && pe != o[1];
                let alone = o[2] != o[1];
                let price = match class {
                    0 => u64::from(r > 0 && remote(o[3]) && remote(o[4]) && alone && o[0] != o[1]),
                    _ => {
                        u64::from(class & 1 != 0 && remote(o[3]))
                            + u64::from(class & 2 != 0 && remote(o[4]) && alone)
                    }
                };
                floor += pages * price;
            });
        floor
    }

    /// The class of an anchor page holding `count` anchors for the read
    /// `shift` elements on, pages of `page_size = ps`: bit 0 when the
    /// page's first part certainly holds an anchor, bit 1 its second. By
    /// pigeonhole, when no two instances share an anchor element
    /// (`distinct`), `count` anchors certainly reach the first part when
    /// `count > r` and the second when `count > ps − r`, `r = shift mod
    /// ps`; else only a count above 0 at `r = 0`, all one part, is sure.
    pub fn class(count: u64, shift: i64, page_size: usize, distinct: bool) -> u8 {
        let (ps, r) = (page_size as u64, shift.rem_euclid(page_size as i64) as u64);
        let lower = count > r && (distinct || r == 0);
        let upper = distinct && r > 0 && count > ps - r;
        u8::from(lower) | u8::from(upper) << 1
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
    fn owner_tables_agree_with_page_owners() {
        let mut shapes = shapes();
        shapes.push(ArrayShape::from_dims(&[40, 96]));
        shapes.push(ArrayShape::from_dims(&[26, 102, 26]));
        for shape in shapes {
            for scheme in schemes() {
                for (n, ps) in [(1usize, 8usize), (3, 1), (4, 3), (7, 8), (16, 2), (5, 200)] {
                    let pl = Placement::new(scheme, ps, n, shape);
                    let want: Vec<u32> = (0..pl.pages()).map(|q| pl.page_owner(q) as u32).collect();
                    let table = pl.owner_table(pl.pages());
                    assert_eq!(table, want, "{scheme:?} {shape:?} n={n} ps={ps}");
                }
            }
        }
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
                            // Steps whose move overflows a u64 at pages of 2 or
                            // more leave the array unless they are periods.
                            for step in [i64::MAX, i64::MIN, i64::MIN + 1] {
                                let run = pl.same_owner_run(plo as usize, phi as usize, step);
                                let whole = period > 0 && step % period == 0;
                                let want = if whole { u64::MAX } else { 0 };
                                assert_eq!(run, want, "{scheme:?} {shape:?} {n}x{ps} by {step}");
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
                    let brute = |runs: &[PageRun]| {
                        let mut want = vec![0u64; n];
                        for run in runs {
                            for k in 0..run.reps {
                                let first = run.first + k * run.stride;
                                for q in first..first + run.pages {
                                    want[pl.page_owner(q)] += run.count;
                                }
                            }
                        }
                        want
                    };
                    // All runs at once take residues under a period; one
                    // run alone is walked unless it is long.
                    for runs in std::iter::once(&runs[..]).chain(runs.chunks(1)) {
                        let mut got = vec![0u64; n];
                        pl.count_owned_pages(runs, &mut got);
                        assert_eq!(
                            got,
                            brute(runs),
                            "{scheme:?} {shape:?} n={n} ps={ps} {runs:?}"
                        );
                    }
                }
            }
        }
    }

    /// The distinct (PE, remote page) pairs of the reads `anchor + shift`
    /// from `anchors`.
    fn fetched_pages(pl: &Placement, anchors: &[usize], shift: i64) -> u64 {
        let ps = pl.page_size;
        let mut pairs = std::collections::HashSet::new();
        for &a in anchors {
            let b = (a as i64 + shift) as usize;
            let (pe, page) = (pl.owner_of_addr(a), b / ps);
            if pl.page_owner(page) != pe {
                pairs.insert((pe, page));
            }
        }
        pairs.len() as u64
    }

    /// Per-page counts of `anchors` as one run per page.
    fn page_runs(anchors: &[usize], ps: usize) -> Vec<PageRun> {
        let mut counts = std::collections::BTreeMap::new();
        for &a in anchors {
            *counts.entry(a / ps).or_insert(0u64) += 1;
        }
        counts
            .into_iter()
            .map(|(q, c)| PageRun::new(q, 1, c))
            .collect()
    }

    /// `runs` of anchor counts with the class of their pages for the read
    /// `shift` elements on.
    fn classed(runs: &[PageRun], shift: i64, ps: usize, distinct: bool) -> Vec<(PageRun, u8)> {
        let class = |run: &PageRun| FetchPricer::class(run.count, shift, ps, distinct);
        runs.iter().map(|run| (*run, class(run))).collect()
    }

    /// [`FetchPricer::count_fetched_pages`]'s documented rule, page by page,
    /// every owner asked of `page_owner`.
    fn floor_by_page(pl: &Placement, shift: i64, runs: &[(PageRun, u8)]) -> u64 {
        let (ps, pages) = (pl.page_size as i64, pl.pages() as i64);
        let (m, r) = (shift.div_euclid(ps), shift.rem_euclid(ps));
        let owner = |q: i64| (0..pages).contains(&q).then(|| pl.page_owner(q as usize));
        let mut floor = 0;
        for &(run, class) in runs {
            for k in 0..run.reps {
                let first = (run.first + k * run.stride) as i64;
                for q in first..first + run.pages as i64 {
                    let own = owner(q);
                    let remote = |p: i64| owner(p).is_some_and(|pe| Some(pe) != own);
                    let (first_part, second_part) = (remote(q + m), r > 0 && remote(q + m + 1));
                    let alone = owner(q + 1) != own;
                    floor += match class {
                        0 => u64::from(first_part && second_part && alone && owner(q - 1) != own),
                        _ => {
                            u64::from(class & 1 != 0 && first_part)
                                + u64::from(class & 2 != 0 && second_part && alone)
                        }
                    };
                }
            }
        }
        floor
    }

    #[test]
    fn fetched_page_floors_never_exceed_the_fetches_and_miss_at_most_one_when_dense() {
        let mut shapes = shapes();
        shapes.push(ArrayShape::from_dims(&[40, 96]));
        for shape in shapes {
            for scheme in schemes() {
                for (n, ps) in [(1usize, 8usize), (3, 1), (4, 3), (7, 8), (16, 2)] {
                    let pl = Placement::new(scheme, ps, n, shape);
                    let len = shape.len;
                    // Every element; every element but a comb of holes;
                    // a sparse stride; one element in each of a few pages.
                    let sets: Vec<(Vec<usize>, bool)> = vec![
                        ((0..len).collect(), true),
                        ((0..len).filter(|a| a % 7 != 3).collect(), true),
                        ((0..len).step_by(5).collect(), true),
                        ((0..len).step_by(ps * 3 + 1).collect(), true),
                        ((0..len).map(|a| a / 2 * 2).collect(), false),
                    ];
                    let shifts = [
                        0,
                        1,
                        -1,
                        ps as i64,
                        -(ps as i64) - 1,
                        7,
                        -13,
                        2 * ps as i64 + 1,
                    ];
                    // The priced floor is the documented rule's, for all
                    // runs at once (residues or a table) and for each run
                    // alone (a walk).
                    let exact = |shift: i64, read: &[(PageRun, u8)], at: &str| {
                        for runs in std::iter::once(read).chain(read.chunks(1)) {
                            let got = pl.fetch_pricer().count_fetched_pages(shift, runs);
                            assert_eq!(got, floor_by_page(&pl, shift, runs), "{at}: {runs:?}");
                        }
                    };
                    for (anchors, distinct) in &sets {
                        for shift in shifts {
                            // A read outside the array is a program error.
                            let inside =
                                |&&a: &&usize| (0..len as i64).contains(&(a as i64 + shift));
                            let anchors: Vec<usize> =
                                anchors.iter().filter(inside).copied().collect();
                            let runs = page_runs(&anchors, ps);
                            let want = fetched_pages(&pl, &anchors, shift);
                            let read = classed(&runs, shift, ps, *distinct);
                            let got = pl.fetch_pricer().count_fetched_pages(shift, &read);
                            let at = format!("{scheme:?} {shape:?} n={n} ps={ps} shift={shift}");
                            assert!(got <= want, "{at}: floor {got} above {want} fetches");
                            // One range of whole pages of anchors: exact but
                            // for the pair of its last page's second part,
                            // when the page after it has the same owner.
                            let whole = runs.iter().all(|r| r.count == ps as u64);
                            let one_range = runs.windows(2).all(|w| w[1].first == w[0].first + 1);
                            if *distinct && whole && one_range {
                                assert!(got + 1 >= want, "{at}: floor {got} of {want} fetches");
                            }
                            exact(shift, &read, &at);
                            // Long runs: the array's halves, full and sparse.
                            let half = pl.pages() / 2;
                            let halves = [(0, half, ps), (half, pl.pages() - half, 1)];
                            let halves = halves.map(|(q, len, c)| PageRun::new(q, len, c as u64));
                            exact(shift, &classed(&halves, shift, ps, *distinct), &at);
                        }
                    }
                    // Translates price like the runs they stand for.
                    let pages = pl.pages();
                    for (stride, reps) in [(3usize, 5usize), (2 * n + 1, 4), (ps * n, 3)] {
                        let run = PageRun {
                            stride,
                            reps,
                            ..PageRun::new(1, stride.min(2), ps as u64)
                        };
                        if run.first + (reps - 1) * stride + run.pages > pages {
                            continue;
                        }
                        let spread: Vec<PageRun> = (0..reps)
                            .map(|k| PageRun::new(1 + k * stride, run.pages, ps as u64))
                            .collect();
                        for shift in shifts {
                            let price = |runs: &[PageRun]| {
                                let read = classed(runs, shift, ps, true);
                                pl.fetch_pricer().count_fetched_pages(shift, &read)
                            };
                            assert_eq!(
                                price(&[run]),
                                price(&spread),
                                "{scheme:?} {shape:?} n={n} ps={ps} shift={shift} {run:?}"
                            );
                            let at = format!("{scheme:?} {shape:?} n={n} ps={ps} shift={shift}");
                            exact(shift, &classed(&[run], shift, ps, true), &at);
                        }
                    }
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
