//! Page-granular data partitioning schemes.
//!
//! The paper's rule (§2): "Data partitioning is accomplished by segmenting
//! each array into pages of some fixed (perhaps parameterized) size. A page
//! *p* is allocated to the local memory of PE *P* if *p = P mod N*."
//! The future-work section (§9) observes that "our simple modulo
//! partitioning scheme performs worse for certain loops than a division
//! scheme" — [`PartitionScheme::Block`] is that division scheme, and
//! [`PartitionScheme::BlockCyclic`] generalizes both.

/// The page index containing linear address `addr`.
pub fn page_of(addr: usize, page_size: usize) -> usize {
    debug_assert!(page_size > 0);
    addr / page_size
}

/// Number of pages needed for `len` elements.
pub fn pages_in(len: usize, page_size: usize) -> usize {
    debug_assert!(page_size > 0);
    len.div_ceil(page_size)
}

/// How pages map onto PEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionScheme {
    /// Paper §2: page `p` lives on PE `p mod N` (round-robin / cyclic).
    Modulo,
    /// The "division scheme" (§9): contiguous chunks of `ceil(P/N)` pages
    /// per PE, like HPF `BLOCK` distribution.
    Block,
    /// Chunks of `block_pages` pages dealt round-robin — `BlockCyclic(1)`
    /// is `Modulo`; `BlockCyclic(ceil(P/N))` is `Block`.
    BlockCyclic {
        /// Pages per dealt chunk (≥ 1).
        block_pages: usize,
    },
    /// Contiguous bands of grid *rows* per PE (HPF `BLOCK` on the leading
    /// dimension). Geometry-aware: owners follow the array's declared shape
    /// through [`crate::Placement`]. Without geometry (this enum alone),
    /// rows degenerate to pages and the scheme coincides with [`Block`]
    /// — see [`PartitionScheme::owner`].
    ///
    /// [`Block`]: PartitionScheme::Block
    RowBand,
    /// 2-D tiles of `tile_rows × tile_cols` grid elements, dealt to PEs
    /// round-robin in row-major tile order. Geometry-aware via
    /// [`crate::Placement`]; without geometry it degenerates to
    /// [`BlockCyclic`] with `block_pages = tile_rows` — see
    /// [`PartitionScheme::owner`].
    ///
    /// [`BlockCyclic`]: PartitionScheme::BlockCyclic
    Tile2D {
        /// Tile height in grid rows (≥ 1).
        tile_rows: usize,
        /// Tile width in grid columns (≥ 1).
        tile_cols: usize,
    },
}

impl PartitionScheme {
    /// Owning PE of `page` within an array of `total_pages`, on `n_pes` PEs.
    ///
    /// The result is **always** `< n_pes`, including at the edges of the
    /// domain — each handled by explicit clamping, never by wrap-around
    /// arithmetic that happens to stay in range:
    ///
    /// * `total_pages == 0` — an empty array owns no pages; the (vacuous)
    ///   answer for any `page` is PE 0 under every scheme, so callers that
    ///   iterate `0..pages_in(0, ps)` never observe it and callers that ask
    ///   anyway get a stable value.
    /// * `total_pages < n_pes` — `Block`'s chunk size clamps to 1, so page
    ///   `p` lands on PE `p` and the surplus PEs own nothing (matching the
    ///   paper's partial-allocation example in §2).
    /// * `page >= total_pages` (out of domain) — tolerated, but the schemes
    ///   are deliberately asymmetric about it: `Modulo` and `BlockCyclic`
    ///   **wrap** (owner keeps cycling as if the array were larger), while
    ///   `Block` and the tiled schemes (`RowBand`, `Tile2D`) **clamp** — an
    ///   out-of-domain page is owned by the same PE as the last real page,
    ///   never wrapped back to PE 0. Clamping is the contract the
    ///   geometry-aware [`crate::Placement`] relies on: it derives a page's
    ///   owner from its *first in-domain element*, so a trailing partial
    ///   page can never be attributed to a PE that owns no part of it.
    ///   Both behaviors are defined in all builds and pinned by tests
    ///   (this used to be a debug-only assertion, which left the
    ///   asymmetry unstated and untestable).
    /// * `BlockCyclic { block_pages: 0 }` — rejected by
    ///   [`crate::MachineConfig::validate`]; here it clamps to chunks of 1
    ///   (≡ `Modulo`) so a hand-built scheme still cannot divide by zero.
    ///   `RowBand`/`Tile2D` tile extents clamp to 1 the same way.
    ///
    /// Without geometry this page-space view treats the array as a
    /// one-column grid (`rows = total_pages`, `cols = 1`, tile extents in
    /// pages), under which `RowBand` coincides with `Block` and
    /// `Tile2D { tile_rows: r, .. }` with `BlockCyclic { block_pages: r }`.
    /// Engines always route ownership through [`crate::Placement`], which
    /// applies the true declared shape; this degenerate view exists so the
    /// enum alone is still total.
    ///
    /// `n_pes == 0` has no meaningful answer and panics in all builds.
    pub fn owner(&self, page: usize, total_pages: usize, n_pes: usize) -> usize {
        assert!(n_pes > 0, "owner() on a machine with zero PEs");
        if total_pages == 0 {
            return 0;
        }
        match *self {
            PartitionScheme::Modulo => page % n_pes,
            PartitionScheme::Block | PartitionScheme::RowBand => {
                let chunk = total_pages.div_ceil(n_pes).max(1);
                (page / chunk).min(n_pes - 1)
            }
            PartitionScheme::BlockCyclic { block_pages } => {
                let b = block_pages.max(1);
                (page / b) % n_pes
            }
            PartitionScheme::Tile2D { tile_rows, .. } => {
                let b = tile_rows.max(1);
                (page / b) % n_pes
            }
        }
    }

    /// Short name used in report tables.
    pub fn name(&self) -> String {
        match self {
            PartitionScheme::Modulo => "modulo".to_string(),
            PartitionScheme::Block => "block".to_string(),
            PartitionScheme::BlockCyclic { block_pages } => format!("blockcyclic({block_pages})"),
            PartitionScheme::RowBand => "rowband".to_string(),
            PartitionScheme::Tile2D {
                tile_rows,
                tile_cols,
            } => format!("tile2d({tile_rows}x{tile_cols})"),
        }
    }

    /// Pages of an array owned by `pe` (ascending).
    pub fn pages_of_pe(&self, pe: usize, total_pages: usize, n_pes: usize) -> Vec<usize> {
        (0..total_pages)
            .filter(|&p| self.owner(p, total_pages, n_pes) == pe)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_arithmetic() {
        assert_eq!(page_of(0, 32), 0);
        assert_eq!(page_of(31, 32), 0);
        assert_eq!(page_of(32, 32), 1);
        assert_eq!(pages_in(100, 32), 4); // paper's example: 3 full + 1 partial
        assert_eq!(pages_in(96, 32), 3);
        assert_eq!(pages_in(1, 32), 1);
        assert_eq!(pages_in(0, 32), 0);
    }

    #[test]
    fn modulo_matches_paper_example() {
        // Paper §2: 4 PEs, page size 32, arrays of 100 elements → PEs 0..2
        // hold one full page each, PE 3 holds the partial page.
        let s = PartitionScheme::Modulo;
        let pages = pages_in(100, 32);
        assert_eq!(pages, 4);
        assert_eq!(s.owner(0, pages, 4), 0);
        assert_eq!(s.owner(1, pages, 4), 1);
        assert_eq!(s.owner(2, pages, 4), 2);
        assert_eq!(s.owner(3, pages, 4), 3);
        // Wraps for more pages than PEs.
        assert_eq!(s.owner(5, 8, 4), 1);
    }

    #[test]
    fn block_divides_contiguously() {
        let s = PartitionScheme::Block;
        // 8 pages over 4 PEs → chunks of 2.
        for p in 0..8 {
            assert_eq!(s.owner(p, 8, 4), p / 2);
        }
        // 9 pages over 4 PEs → chunks of 3: PE0 gets 0..2, PE1 3..5, PE2 6..8.
        assert_eq!(s.owner(8, 9, 4), 2);
        // Degenerate: fewer pages than PEs.
        assert_eq!(s.owner(0, 1, 16), 0);
    }

    #[test]
    fn blockcyclic_generalizes_both() {
        let pages = 12;
        let n = 3;
        for p in 0..pages {
            assert_eq!(
                PartitionScheme::BlockCyclic { block_pages: 1 }.owner(p, pages, n),
                PartitionScheme::Modulo.owner(p, pages, n)
            );
            assert_eq!(
                PartitionScheme::BlockCyclic { block_pages: 4 }.owner(p, pages, n),
                PartitionScheme::Block.owner(p, pages, n)
            );
        }
    }

    #[test]
    fn every_page_has_exactly_one_owner_in_range() {
        for &scheme in &[
            PartitionScheme::Modulo,
            PartitionScheme::Block,
            PartitionScheme::BlockCyclic { block_pages: 3 },
        ] {
            for &(pages, n) in &[(1usize, 1usize), (7, 3), (64, 8), (10, 64)] {
                for p in 0..pages {
                    let o = scheme.owner(p, pages, n);
                    assert!(
                        o < n,
                        "{scheme:?} page {p}/{pages} on {n} PEs gave owner {o}"
                    );
                }
            }
        }
    }

    #[test]
    fn pages_of_pe_partitions_the_page_set() {
        let scheme = PartitionScheme::Modulo;
        let mut all = Vec::new();
        for pe in 0..4 {
            all.extend(scheme.pages_of_pe(pe, 10, 4));
        }
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn single_pe_owns_everything() {
        for &scheme in &[PartitionScheme::Modulo, PartitionScheme::Block] {
            for p in 0..20 {
                assert_eq!(scheme.owner(p, 20, 1), 0);
            }
        }
    }

    #[test]
    fn empty_array_owner_is_stable_zero() {
        for scheme in [
            PartitionScheme::Modulo,
            PartitionScheme::Block,
            PartitionScheme::BlockCyclic { block_pages: 3 },
        ] {
            for page in [0usize, 1, 7] {
                assert_eq!(scheme.owner(page, 0, 4), 0);
            }
            assert!(scheme.pages_of_pe(0, 0, 4).is_empty());
        }
    }

    #[test]
    fn fewer_pages_than_pes_leaves_surplus_pes_empty() {
        // 3 pages on 8 PEs: Block clamps its chunk to 1 page, so pages land
        // on PEs 0..3 and PEs 3..8 own nothing; Modulo agrees here.
        for scheme in [PartitionScheme::Modulo, PartitionScheme::Block] {
            for p in 0..3 {
                assert_eq!(scheme.owner(p, 3, 8), p, "{scheme:?}");
            }
            for pe in 3..8 {
                assert!(
                    scheme.pages_of_pe(pe, 3, 8).is_empty(),
                    "{scheme:?} PE {pe}"
                );
            }
        }
    }

    #[test]
    fn zero_block_pages_clamps_to_modulo() {
        // Rejected by config validation, but a hand-built scheme must still
        // be total: chunks clamp to 1 page, i.e. plain modulo placement.
        let degenerate = PartitionScheme::BlockCyclic { block_pages: 0 };
        for p in 0..24 {
            assert_eq!(
                degenerate.owner(p, 24, 5),
                PartitionScheme::Modulo.owner(p, 24, 5)
            );
        }
    }

    #[test]
    fn geometryless_tiled_schemes_have_documented_degenerates() {
        // Without a declared shape, RowBand is Block-over-pages and
        // Tile2D{r, c} is BlockCyclic{r}: the same tile formulas applied to
        // the one-column page grid. Placement supplies the real geometry.
        let pages = 17;
        for n in [1usize, 3, 4, 8] {
            for p in 0..pages {
                assert_eq!(
                    PartitionScheme::RowBand.owner(p, pages, n),
                    PartitionScheme::Block.owner(p, pages, n)
                );
                assert_eq!(
                    PartitionScheme::Tile2D {
                        tile_rows: 3,
                        tile_cols: 5
                    }
                    .owner(p, pages, n),
                    PartitionScheme::BlockCyclic { block_pages: 3 }.owner(p, pages, n)
                );
            }
        }
    }

    #[test]
    fn tiled_schemes_clamp_out_of_domain_pages() {
        // The clamp asymmetry, pinned: Modulo/BlockCyclic wrap out-of-domain
        // pages, Block and the tiled schemes clamp. A release-mode caller
        // probing one page past a 6-page array must see the last real
        // owner, never a wrap back to PE 0.
        let pages = 6;
        let n = 3;
        let last = PartitionScheme::Block.owner(pages - 1, pages, n);
        assert_eq!(PartitionScheme::Block.owner(pages, pages, n), last);
        assert_eq!(PartitionScheme::RowBand.owner(pages, pages, n), last);
        // Wrapping schemes cycle on.
        assert_eq!(PartitionScheme::Modulo.owner(pages, pages, n), pages % n);
    }

    #[test]
    #[should_panic(expected = "zero PEs")]
    fn zero_pes_panics() {
        PartitionScheme::Modulo.owner(0, 4, 0);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(PartitionScheme::Modulo.name(), "modulo");
        assert_eq!(PartitionScheme::Block.name(), "block");
        assert_eq!(
            PartitionScheme::BlockCyclic { block_pages: 2 }.name(),
            "blockcyclic(2)"
        );
    }
}
