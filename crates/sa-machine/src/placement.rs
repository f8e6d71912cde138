//! Geometry-aware page placement: one shared owner path for every engine.
//!
//! The paper's §2 placement is linear — page `p` of a *flattened* array
//! goes to PE `p mod N` — which is exactly what [`PartitionScheme::owner`]
//! computes. That loses the grid structure 2-D/3-D workloads have: a
//! stencil's halo traffic depends on *where in the grid* a page sits, not
//! on its flattened index. [`Placement`] carries the declared array shape
//! next to the scheme so the tiled schemes ([`PartitionScheme::RowBand`],
//! [`PartitionScheme::Tile2D`]) can compute owners by grid tile, while the
//! legacy page-linear schemes keep their §2 arithmetic bit for bit.
//!
//! Every owner decision in the system — counting simulator, replay engine,
//! thread runtime, lint estimator, legality and deadlock passes — routes
//! through this type, so a scheme added here is automatically understood
//! everywhere.
//!
//! ## The first-element rule
//!
//! Pages remain the unit of distribution (the paper's fetch/caching model
//! is untouched): a page's owner is the owner of its **first in-domain
//! element**, `e = min(page · page_size, len − 1)`. This keeps every page
//! on exactly one PE under any scheme, and it *clamps* rather than wraps:
//! a trailing partial page, or a tile fragment at the grid edge, is owned
//! by a PE that owns real elements of it, and a probe past the last page
//! clamps to the last page's owner — never wrapped back to PE 0 by
//! arithmetic on addresses past the end of the array.

use crate::config::{validate_shape, ConfigError};
use crate::partition::{pages_in, PartitionScheme};

/// The declared geometry of an array, reduced to the 2-D view placement
/// needs: `rows` along the outermost declared dimension, `cols` the
/// product of all inner dimensions (so a 3-D `[d0, d1, d2]` grid is tiled
/// over the `(d0, d1·d2)` plane, banding along `d0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayShape {
    /// Total elements (`rows · cols` for multi-dimensional arrays).
    pub len: usize,
    /// Extent of the outermost declared dimension.
    pub rows: usize,
    /// Product of the inner dimensions (≥ 1 row-major elements per row).
    pub cols: usize,
}

impl ArrayShape {
    /// Shape of an array declared with `dims` (row-major, outermost first).
    ///
    /// One-dimensional declarations are [`linear`](ArrayShape::linear);
    /// higher ranks fold every inner dimension into `cols`.
    pub fn from_dims(dims: &[usize]) -> Self {
        match dims.len() {
            0 => Self::linear(1),
            1 => Self::linear(dims[0]),
            _ => {
                let rows = dims[0];
                let cols = dims[1..].iter().product::<usize>().max(1);
                ArrayShape {
                    len: rows * cols,
                    rows,
                    cols,
                }
            }
        }
    }

    /// The geometry-free shape: a one-column grid of `len` rows. Under it
    /// the tiled schemes reproduce their documented page-space degenerates
    /// (`RowBand` ≡ `Block`, `Tile2D` ≡ `BlockCyclic`).
    pub fn linear(len: usize) -> Self {
        ArrayShape {
            len,
            rows: len,
            cols: 1,
        }
    }

    /// Grid coordinates of element `e` (row-major).
    fn coords(&self, e: usize) -> (usize, usize) {
        debug_assert!(self.cols > 0);
        (e / self.cols, e % self.cols)
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
        }
    }

    /// One placement per array of a program, in declaration order, each
    /// from its declared `dims` (outermost first) — the one validated
    /// builder of the per-array table every engine and analysis indexes by
    /// array id. Tiled schemes see each array's declared grid; the
    /// page-linear schemes keep the paper's flattened-page arithmetic.
    pub fn table<D: AsRef<[usize]>>(
        dims: impl IntoIterator<Item = D>,
        scheme: PartitionScheme,
        page_size: usize,
        n_pes: usize,
    ) -> Result<Vec<Placement>, ConfigError> {
        validate_shape(scheme, page_size, n_pes)?;
        Ok(dims
            .into_iter()
            .map(|d| Placement {
                scheme,
                page_size,
                n_pes,
                shape: ArrayShape::from_dims(d.as_ref()),
            })
            .collect())
    }

    /// Number of pages the array occupies.
    pub fn pages(&self) -> usize {
        pages_in(self.shape.len, self.page_size)
    }

    /// Owning PE of `page`, by the first-element rule.
    ///
    /// Legacy page-linear schemes (`Modulo`, `Block`, `BlockCyclic`)
    /// delegate to [`PartitionScheme::owner`] unchanged — their placement
    /// never depended on geometry and must stay bit-identical. The tiled
    /// schemes map the page's first in-domain element to grid coordinates
    /// and own it by band or tile; out-of-domain probes clamp to the last
    /// element, never wrap.
    pub fn page_owner(&self, page: usize) -> usize {
        let total = self.pages();
        match self.scheme {
            PartitionScheme::Modulo
            | PartitionScheme::Block
            | PartitionScheme::BlockCyclic { .. } => self.scheme.owner(page, total, self.n_pes),
            PartitionScheme::RowBand => {
                if self.shape.len == 0 {
                    return 0;
                }
                let e = (page.min(total - 1) * self.page_size).min(self.shape.len - 1);
                let (row, _) = self.shape.coords(e);
                let band = self.shape.rows.div_ceil(self.n_pes).max(1);
                (row / band).min(self.n_pes - 1)
            }
            PartitionScheme::Tile2D {
                tile_rows,
                tile_cols,
            } => {
                if self.shape.len == 0 {
                    return 0;
                }
                let e = (page.min(total - 1) * self.page_size).min(self.shape.len - 1);
                let (r, c) = self.shape.coords(e);
                let (tr, tc) = (tile_rows.max(1), tile_cols.max(1));
                let tiles_per_row = self.shape.cols.div_ceil(tc).max(1);
                let tile = (r / tr) * tiles_per_row + c / tc;
                tile % self.n_pes
            }
        }
    }

    /// Owning PE of the page containing linear address `addr`.
    pub fn owner_of_addr(&self, addr: usize) -> usize {
        self.page_owner(addr / self.page_size)
    }

    /// The element distance `T` after which ownership repeats, if the
    /// scheme has one: `T` is a multiple of the page size and
    /// `owner_of_addr(a + T) == owner_of_addr(a)` for every address `a`.
    /// Two stretches of a nest whose references all differ by multiples of
    /// `T` therefore execute on the same PEs with the same locality, which
    /// is what lets the schedule count one of them and multiply
    /// (`sa_lint::screening::Schedule::folds`).
    ///
    /// The cyclic deals repeat every `n_pes` pages (`Modulo`) or blocks
    /// (`BlockCyclic`), and on one PE every page is a period. `Block` and
    /// `RowBand` are monotone in the page, not periodic. `Tile2D` deals its
    /// tiles cyclically too, but its period in elements depends on how the
    /// tile rows divide the PE count; it is not claimed here.
    pub fn period(&self) -> Option<usize> {
        if self.n_pes == 1 {
            return Some(self.page_size);
        }
        let pages = match self.scheme {
            PartitionScheme::Modulo => self.n_pes,
            PartitionScheme::BlockCyclic { block_pages } => {
                block_pages.max(1).checked_mul(self.n_pes)?
            }
            PartitionScheme::Block | PartitionScheme::RowBand | PartitionScheme::Tile2D { .. } => {
                return None
            }
        };
        pages.checked_mul(self.page_size)
    }

    /// Invoke `f`, in ascending order, on disjoint page intervals
    /// `[q0, q1)` that together hold exactly the pages `pe` owns within
    /// the inclusive page range `[plo, phi]`.
    ///
    /// Every scheme uses a closed form — the per-PE cost is proportional
    /// to the PE's own share of the range, which is what lets the replay
    /// engine shard an `n = 10⁷` sweep without walking every page on every
    /// PE. `RowBand` is one interval (the band's element range in pages);
    /// `Tile2D` maps the PE's own tile-column segments of each grid row to
    /// page intervals, and walks page by page instead only where pages are
    /// so long against the rows that the range holds fewer pages than
    /// segments. The tiled schemes' intervals are maximal (adjacent ones
    /// are merged), and pages past the array clamp to the last page's
    /// owner, as in [`page_owner`](Placement::page_owner).
    pub fn owned_page_intervals(
        &self,
        pe: usize,
        plo: usize,
        phi: usize,
        mut f: impl FnMut(usize, usize),
    ) {
        let n = self.n_pes;
        let total = self.pages();
        match self.scheme {
            PartitionScheme::Modulo => {
                let first = plo + (pe + n - plo % n) % n;
                let mut q = first;
                while q <= phi {
                    f(q, q + 1);
                    q += n;
                }
            }
            PartitionScheme::Block => {
                // owner(q) = min(q / chunk, n - 1): one contiguous interval,
                // extending to the end of the array for the last PE.
                let chunk = total.div_ceil(n).max(1);
                let q0 = pe * chunk;
                let q1 = if pe + 1 == n {
                    total.max(phi + 1)
                } else {
                    q0 + chunk
                };
                if q0 <= phi && q1 > plo {
                    f(q0.max(plo), q1.min(phi + 1));
                }
            }
            PartitionScheme::BlockCyclic { block_pages } => {
                // owner(q) = (q / b) % n: owned blocks are j ≡ pe (mod n).
                let bp = block_pages.max(1);
                let jlo = plo / bp;
                let mut j = jlo + (pe + n - jlo % n) % n;
                loop {
                    let q0 = j * bp;
                    if q0 > phi {
                        break;
                    }
                    f(q0.max(plo), (q0 + bp).min(phi + 1));
                    j += n;
                }
            }
            PartitionScheme::RowBand | PartitionScheme::Tile2D { .. } if total == 0 => {
                // An empty array: `page_owner` answers PE 0 for any probe.
                if pe == 0 {
                    f(plo, phi + 1);
                }
            }
            PartitionScheme::RowBand => {
                // owner(q) = min(row(q·ps) / band, n − 1): the pages whose
                // first element lies in the band's element range — one
                // interval, open above for the last PE.
                let band = self.shape.rows.div_ceil(n).max(1);
                let first_page_at = |row: usize| {
                    row.saturating_mul(self.shape.cols)
                        .div_ceil(self.page_size)
                        .min(total)
                };
                let q0 = first_page_at(pe * band);
                let mut q1 = if pe + 1 == n {
                    total
                } else {
                    first_page_at((pe + 1) * band)
                };
                if q0 < q1 && q1 == total {
                    // Owner of the last page, hence of every probe past it.
                    q1 = total.max(phi + 1);
                }
                if q0 < q1 && q0 <= phi && q1 > plo {
                    f(q0.max(plo), q1.min(phi + 1));
                }
            }
            PartitionScheme::Tile2D {
                tile_rows,
                tile_cols,
            } => {
                let (tr, tc) = (tile_rows.max(1), tile_cols.max(1));
                let (cols, ps) = (self.shape.cols, self.page_size);
                let tiles_per_row = cols.div_ceil(tc).max(1);
                let mut out = Coalesce { f, pending: None };
                let in_hi = phi.min(total - 1);
                if plo <= in_hi {
                    // Grid rows holding the first elements of the range's
                    // in-domain pages.
                    let (r_lo, r_hi) = (plo * ps / cols, in_hi * ps / cols);
                    let segments = (r_hi - r_lo + 1).saturating_mul(tiles_per_row.div_ceil(n));
                    if segments < in_hi - plo + 1 {
                        // Per grid row, the PE's own tile columns
                        // k ≡ pe − (r / tr)·tiles_per_row (mod n); a
                        // segment's pages are those whose first element
                        // lies in it.
                        for r in r_lo..=r_hi {
                            let mut k = (pe + n - (r / tr * tiles_per_row) % n) % n;
                            while k < tiles_per_row {
                                let e0 = r * cols + k * tc;
                                let e1 = r * cols + ((k + 1) * tc).min(cols);
                                out.push(e0.div_ceil(ps).max(plo), e1.div_ceil(ps).min(in_hi + 1));
                                k += n;
                            }
                        }
                    } else {
                        // Pages so long against the rows that the range
                        // holds fewer of them than of segments.
                        for q in plo..=in_hi {
                            if self.page_owner(q) == pe {
                                out.push(q, q + 1);
                            }
                        }
                    }
                }
                if phi >= total && self.page_owner(total - 1) == pe {
                    out.push(plo.max(total), phi + 1);
                }
                out.finish();
            }
        }
    }

    /// Pages of the array owned by `pe` (ascending).
    pub fn pages_of_pe(&self, pe: usize) -> Vec<usize> {
        (0..self.pages())
            .filter(|&p| self.page_owner(p) == pe)
            .collect()
    }
}

/// Forwards ascending page intervals to `f`, dropping empty ones and
/// merging adjacent ones, so the intervals `f` sees are maximal.
struct Coalesce<F> {
    f: F,
    pending: Option<(usize, usize)>,
}

impl<F: FnMut(usize, usize)> Coalesce<F> {
    fn push(&mut self, q0: usize, q1: usize) {
        if q0 >= q1 {
            return;
        }
        match &mut self.pending {
            Some((_, end)) if *end == q0 => *end = q1,
            pending => {
                if let Some((a, b)) = pending.replace((q0, q1)) {
                    (self.f)(a, b);
                }
            }
        }
    }

    fn finish(mut self) {
        if let Some((a, b)) = self.pending {
            (self.f)(a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shapes() -> Vec<ArrayShape> {
        vec![
            ArrayShape::linear(100),
            ArrayShape::linear(1),
            ArrayShape::from_dims(&[12, 10]),
            ArrayShape::from_dims(&[7, 13]),
            ArrayShape::from_dims(&[4, 5, 6]),
            ArrayShape::from_dims(&[64, 64]),
        ]
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

    #[test]
    fn shape_folds_inner_dims() {
        let s = ArrayShape::from_dims(&[4, 5, 6]);
        assert_eq!((s.rows, s.cols, s.len), (4, 30, 120));
        let l = ArrayShape::from_dims(&[9]);
        assert_eq!((l.rows, l.cols, l.len), (9, 1, 9));
        assert_eq!(ArrayShape::linear(9), l);
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
    fn legacy_schemes_delegate_bit_identically() {
        for shape in shapes() {
            for scheme in [
                PartitionScheme::Modulo,
                PartitionScheme::Block,
                PartitionScheme::BlockCyclic { block_pages: 2 },
            ] {
                let pl = Placement::new(scheme, 8, 4, shape);
                for p in 0..pl.pages() {
                    assert_eq!(pl.page_owner(p), scheme.owner(p, pl.pages(), 4));
                }
            }
        }
    }

    #[test]
    fn every_page_has_one_in_range_owner() {
        for shape in shapes() {
            for scheme in schemes() {
                for n in [1usize, 3, 4, 7] {
                    let pl = Placement::new(scheme, 8, n, shape);
                    for p in 0..pl.pages() {
                        assert!(pl.page_owner(p) < n, "{scheme:?} {shape:?} {n} PEs");
                    }
                }
            }
        }
    }

    #[test]
    fn tiled_owners_clamp_never_wrap() {
        // Out-of-domain probes resolve to the owner of the last in-domain
        // element (the first-element rule clamps `e` to `len - 1`) — never
        // to a wrapped owner computed from addresses past the array.
        let shape = ArrayShape::from_dims(&[10, 7]); // 70 elems, ps 8 → 9 pages
        for scheme in [
            PartitionScheme::RowBand,
            PartitionScheme::Tile2D {
                tile_rows: 4,
                tile_cols: 4,
            },
        ] {
            let pl = Placement::new(scheme, 8, 4, shape);
            // Any probe past the end clamps to the last real page's owner.
            let last_page_owner = pl.page_owner(pl.pages() - 1);
            assert_eq!(pl.page_owner(pl.pages()), last_page_owner, "{scheme:?}");
            assert_eq!(pl.page_owner(pl.pages() + 5), last_page_owner, "{scheme:?}");
        }
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
    fn owned_intervals_agree_with_brute_force() {
        for shape in shapes() {
            for scheme in schemes() {
                for n in [1usize, 3, 4] {
                    let pl = Placement::new(scheme, 8, n, shape);
                    let pages = pl.pages();
                    if pages == 0 {
                        continue;
                    }
                    for (plo, phi) in [(0, pages - 1), (1.min(pages - 1), pages - 1), (0, 0)] {
                        for pe in 0..n {
                            let mut from_intervals = Vec::new();
                            pl.owned_page_intervals(pe, plo, phi, |q0, q1| {
                                assert!(q0 < q1, "empty interval");
                                from_intervals.extend(q0..q1);
                            });
                            // Closed forms may extend past phi only for
                            // Block's clamped tail; trim like callers that
                            // map intervals back to iterations do.
                            let brute: Vec<usize> =
                                (plo..=phi).filter(|&q| pl.page_owner(q) == pe).collect();
                            let trimmed: Vec<usize> = from_intervals
                                .into_iter()
                                .filter(|&q| q >= plo && q <= phi)
                                .collect();
                            assert_eq!(
                                trimmed, brute,
                                "{scheme:?} {shape:?} n={n} pe={pe} [{plo},{phi}]"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pages_of_pe_partitions_the_page_set() {
        for scheme in schemes() {
            let pl = Placement::new(scheme, 8, 4, ArrayShape::from_dims(&[12, 10]));
            let mut all = Vec::new();
            for pe in 0..4 {
                all.extend(pl.pages_of_pe(pe));
            }
            all.sort_unstable();
            assert_eq!(all, (0..pl.pages()).collect::<Vec<_>>(), "{scheme:?}");
        }
    }

    #[test]
    fn geometryless_shape_reproduces_page_space_degenerates() {
        // Placement over ArrayShape::linear with page_size 1 makes rows =
        // pages, under which RowBand ≡ Block and Tile2D{r,c} ≡ BlockCyclic{r}.
        let shape = ArrayShape::linear(40);
        let band = Placement::new(PartitionScheme::RowBand, 1, 4, shape);
        let block = Placement::new(PartitionScheme::Block, 1, 4, shape);
        let tile = Placement::new(
            PartitionScheme::Tile2D {
                tile_rows: 3,
                tile_cols: 9,
            },
            1,
            4,
            shape,
        );
        let bc = Placement::new(PartitionScheme::BlockCyclic { block_pages: 3 }, 1, 4, shape);
        for p in 0..40 {
            assert_eq!(band.page_owner(p), block.page_owner(p));
            assert_eq!(tile.page_owner(p), bc.page_owner(p));
        }
    }
}
