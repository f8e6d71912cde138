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

/// Greatest common divisor of two magnitudes (`gcd(0, x) = x`).
#[inline]
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Least common multiple of two positive magnitudes; `None` on overflow.
#[inline]
pub fn lcm(a: u64, b: u64) -> Option<u64> {
    (a / gcd(a, b)).checked_mul(b)
}

/// How pages map onto PEs. Every scheme is a round-robin tiling of the
/// array (see [`crate::placement`]): tiles are dealt to PEs in row-major
/// tile order, and a page goes where its first element's tile goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionScheme {
    /// Paper §2: page `p` lives on PE `p mod N` — tiles of one page.
    Modulo,
    /// The "division scheme" (§9): contiguous chunks of `ceil(P/N)` pages
    /// per PE, like HPF `BLOCK` distribution — tiles of one chunk.
    Block,
    /// Chunks of `block_pages` pages dealt round-robin — `BlockCyclic(1)`
    /// is `Modulo`; `BlockCyclic(ceil(P/N))` is `Block`.
    BlockCyclic {
        /// Pages per dealt chunk (≥ 1).
        block_pages: usize,
    },
    /// Contiguous bands of `ceil(rows/N)` rows of the declared grid per PE
    /// (HPF `BLOCK` on the leading dimension): tiles as wide as the grid.
    RowBand,
    /// `tile_rows × tile_cols` tiles of the declared grid, dealt
    /// round-robin in row-major tile order.
    Tile2D {
        /// Tile height in grid rows (≥ 1).
        tile_rows: usize,
        /// Tile width in grid columns (≥ 1).
        tile_cols: usize,
    },
}

impl PartitionScheme {
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
    fn gcd_and_lcm() {
        assert_eq!(
            (gcd(0, 6), gcd(6, 0), gcd(12, 18), gcd(7, 13)),
            (6, 6, 6, 1)
        );
        assert_eq!(
            (lcm(4, 6), lcm(1, 9), lcm(u64::MAX, 2)),
            (Some(12), Some(9), None)
        );
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
