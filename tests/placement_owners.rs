//! The owner of every page, pinned: `tests/expected/placement_owners.txt`
//! holds `Placement::page_owner` for every in-domain page, and
//! `Placement::period`, over a grid of shapes × schemes × page sizes × PE
//! counts, recorded from the per-scheme closed forms the one tiling rule
//! replaced.
//!
//! The engines all read the same `Placement`, so they agree with each other
//! whatever it answers; only a table from outside can tell that an owner
//! moved. Each line reads `shape scheme page pes period owners`, with
//! `-` for no period and one hex digit per page.
//!
//! Periods are pinned too, except `tile2d`'s: the closed forms claimed none,
//! and the tiling has one. Here it is derived on its own — the fewest tile
//! rows after which the round-robin deal repeats, rounded up to whole
//! pages — and checked by translating the recorded owners.

use sapp::machine::{ArrayShape, PartitionScheme, Placement};

const SHAPES: [&[usize]; 7] = [
    &[1],
    &[100],
    &[1001],
    &[12, 10],
    &[7, 13],
    &[4, 5, 6],
    &[64, 64],
];

const PAGE_SIZES: [usize; 4] = [1, 8, 32, 48];

const PES: [usize; 5] = [1, 3, 4, 7, 16];

fn schemes() -> [(&'static str, PartitionScheme); 8] {
    let tile = |tile_rows, tile_cols| PartitionScheme::Tile2D {
        tile_rows,
        tile_cols,
    };
    [
        ("modulo", PartitionScheme::Modulo),
        ("block", PartitionScheme::Block),
        (
            "blockcyclic:1",
            PartitionScheme::BlockCyclic { block_pages: 1 },
        ),
        (
            "blockcyclic:3",
            PartitionScheme::BlockCyclic { block_pages: 3 },
        ),
        ("rowband", PartitionScheme::RowBand),
        ("tile2d:3x4", tile(3, 4)),
        ("tile2d:32x32", tile(32, 32)),
        ("tile2d:1000x1000", tile(1000, 1000)),
    ]
}

/// The period of a `tile_rows × tile_cols` tiling of `dims` on `n` PEs,
/// counted out: tile rows until the deal is back at PE 0, then multiples
/// of that many elements until one is a whole number of pages.
fn tile2d_period(dims: &[usize], tile_rows: usize, tile_cols: usize, ps: usize, n: usize) -> usize {
    if n == 1 {
        return ps;
    }
    let shape = ArrayShape::from_dims(dims);
    let per_row = shape.cols.div_ceil(tile_cols);
    let rows = (1..).find(|m| (m * per_row).is_multiple_of(n)).unwrap();
    let step = rows * tile_rows * shape.cols;
    (1..)
        .map(|j| j * step)
        .find(|t| t.is_multiple_of(ps))
        .unwrap()
}

#[test]
fn every_page_keeps_its_owner() {
    let golden = include_str!("expected/placement_owners.txt");
    let mut lines = golden.lines().filter(|l| !l.starts_with('#'));
    let mut checked = 0;
    for dims in SHAPES {
        let spelled: Vec<String> = dims.iter().map(usize::to_string).collect();
        for (name, scheme) in schemes() {
            for ps in PAGE_SIZES {
                for n in PES {
                    let line = lines.next().expect("a line per grid point");
                    let key = format!("{} {name} {ps} {n}", spelled.join("x"));
                    let fields: Vec<&str> = line.split(' ').collect();
                    assert_eq!(fields[..4].join(" "), key, "grid order");
                    let (period, owners) = (fields[4], fields.get(5).copied().unwrap_or(""));

                    let pl = Placement::new(scheme, ps, n, ArrayShape::from_dims(dims));
                    let got: String = (0..pl.pages())
                        .map(|p| char::from_digit(pl.page_owner(p) as u32, 16).unwrap())
                        .collect();
                    assert_eq!(got, owners, "{key}: owners");

                    let got_period = pl.period().map_or("-".to_string(), |t| t.to_string());
                    let PartitionScheme::Tile2D {
                        tile_rows,
                        tile_cols,
                    } = scheme
                    else {
                        assert_eq!(got_period, period, "{key}: period");
                        continue;
                    };
                    let want = tile2d_period(dims, tile_rows, tile_cols, ps, n);
                    assert_eq!(pl.period(), Some(want), "{key}: period");
                    // The recorded owners repeat `want / ps` pages on.
                    let (owners, shift) = (owners.as_bytes(), want / ps);
                    for q in 0..owners.len().saturating_sub(shift) {
                        assert_eq!(owners[q], owners[q + shift], "{key}: page {q}");
                    }
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(lines.next(), None, "a line per grid point, and no more");
    assert_eq!(checked, SHAPES.len() * 3 * PAGE_SIZES.len() * PES.len());
}
