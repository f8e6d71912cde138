//! Property-based tests on the core invariants (proptest).

use proptest::prelude::*;

use sapp::core::{simulate, verify_against_reference};
use sapp::ir::index::iv;
use sapp::ir::program::{ArrayDecl, ArrayInit};
use sapp::ir::{AffineIndex, Grid, InitPattern, LoopNest, LoopVar, ProgramBuilder};
use sapp::machine::{
    pages_in, ArrayShape, CacheOutcome, CachePolicy, MachineConfig, PageCache, PageKey,
    PartialPagePolicy, PartitionScheme, Placement,
};

fn scheme_strategy() -> impl Strategy<Value = PartitionScheme> {
    prop_oneof![
        Just(PartitionScheme::Modulo),
        Just(PartitionScheme::Block),
        (1usize..6).prop_map(|b| PartitionScheme::BlockCyclic { block_pages: b }),
        Just(PartitionScheme::RowBand),
        ((1usize..6), (1usize..6)).prop_map(|(tile_rows, tile_cols)| PartitionScheme::Tile2D {
            tile_rows,
            tile_cols,
        }),
    ]
}

/// Nests of depth 0–3 whose bounds may lean on the enclosing variable:
/// rectangular, triangular, negative-step and zero-trip shapes all occur.
fn nest_strategy() -> impl Strategy<Value = LoopNest> {
    let level = (
        -4i64..5,
        -4i64..5,
        -1i64..2,
        -1i64..2,
        prop::sample::select(vec![-3i64, -2, -1, 1, 2, 3]),
    );
    prop::collection::vec(level, 0..4).prop_map(|levels| LoopNest {
        label: "n".into(),
        loops: levels
            .into_iter()
            .enumerate()
            .map(|(depth, (lo, hi, lo_lean, hi_lean, step))| {
                // `lean · (enclosing variable) + constant`; level 0 has no
                // enclosing variable.
                let bound = |lean: i64, c: i64| match depth {
                    0 => AffineIndex::constant(c),
                    d => AffineIndex::scaled_var(lean, d - 1).plus(c),
                };
                LoopVar {
                    name: format!("v{depth}"),
                    lo: bound(lo_lean, lo),
                    hi: bound(hi_lean, hi),
                    step,
                }
            })
            .collect(),
        body: vec![],
    })
}

/// `LoopNest::for_each_iteration` as it was before it was built on sweeps:
/// one recursion level per loop, bounds re-evaluated at every level.
fn iterations_by_recursion(nest: &LoopNest, ivs: &mut Vec<i64>, out: &mut Vec<Vec<i64>>) {
    let Some(lv) = nest.loops.get(ivs.len()) else {
        return out.push(ivs.clone());
    };
    let (mut v, hi) = (lv.lo.eval(ivs), lv.hi.eval(ivs));
    while (lv.step > 0 && v <= hi) || (lv.step < 0 && v >= hi) {
        ivs.push(v);
        iterations_by_recursion(nest, ivs, out);
        ivs.pop();
        v += lv.step;
    }
}

proptest! {
    /// The one nest enumerator: sweeps expanded trip by trip are exactly
    /// the iteration vectors the per-level recursion visits, in order, and
    /// their trips sum to the iteration count.
    #[test]
    fn sweeps_expand_to_the_recursive_enumeration(nest in nest_strategy()) {
        let mut want = Vec::new();
        iterations_by_recursion(&nest, &mut Vec::new(), &mut want);

        let mut expanded = Vec::new();
        nest.for_each_sweep(|s| {
            assert!(s.trips >= 1, "an empty sweep was enumerated");
            for t in 0..s.trips as i64 {
                let mut ivs = s.outer.to_vec();
                if !nest.loops.is_empty() {
                    ivs.push(s.lo + t * s.step);
                }
                expanded.push(ivs);
            }
        });
        prop_assert_eq!(&expanded, &want);
        prop_assert_eq!(nest.iteration_count(), want.len());
        let mut visited = Vec::new();
        nest.for_each_iteration(|ivs| visited.push(ivs.to_vec()));
        prop_assert_eq!(&visited, &want);
    }

    /// Every page has exactly one owner and that owner is a valid PE.
    #[test]
    fn ownership_is_total_and_in_range(
        scheme in scheme_strategy(),
        dims in prop::collection::vec(1usize..40, 1..4),
        ps in 1usize..9,
        n_pes in 1usize..65,
    ) {
        let pl = Placement::new(scheme, ps, n_pes, ArrayShape::from_dims(&dims));
        for p in 0..pl.pages() {
            let o = pl.page_owner(p);
            prop_assert!(o < n_pes);
        }
    }

    /// Block ownership is monotone (contiguous chunks).
    #[test]
    fn block_ownership_is_monotone(pages in 1usize..300, n_pes in 1usize..33) {
        let pl = Placement::new(PartitionScheme::Block, 1, n_pes, ArrayShape::from_dims(&[pages]));
        let mut prev = 0;
        for p in 0..pages {
            let o = pl.page_owner(p);
            prop_assert!(o >= prev, "page {p}: owner {o} < {prev}");
            prop_assert!(o <= prev + 1, "block owners must step by ≤ 1");
            prev = o;
        }
    }

    /// Modulo distributes pages as evenly as arithmetic allows.
    #[test]
    fn modulo_balance_is_tight(pages in 1usize..400, n_pes in 1usize..65) {
        let pl = Placement::new(PartitionScheme::Modulo, 1, n_pes, ArrayShape::from_dims(&[pages]));
        let mut counts = vec![0usize; n_pes];
        for p in 0..pages {
            counts[pl.page_owner(p)] += 1;
        }
        let max = counts.iter().max().copied().unwrap_or(0);
        let min = counts.iter().min().copied().unwrap_or(0);
        prop_assert!(max - min <= 1);
    }

    /// An LRU cache never exceeds capacity and hits after an insert.
    #[test]
    fn cache_capacity_and_residency(
        capacity in 0usize..16,
        ops in prop::collection::vec((0usize..4, 0usize..40), 1..200),
    ) {
        let mut cache = PageCache::new(capacity, CachePolicy::Lru);
        for (array, page) in ops {
            let key = PageKey { array, page, generation: 0 };
            match cache.probe(key, 0, PartialPagePolicy::Ignore) {
                CacheOutcome::Miss => {
                    cache.insert(key, None);
                    if capacity > 0 {
                        prop_assert_eq!(
                            cache.probe(key, 0, PartialPagePolicy::Ignore),
                            CacheOutcome::Hit
                        );
                    }
                }
                CacheOutcome::Hit => {}
                CacheOutcome::PartialMiss => prop_assert!(false, "no partial pages inserted"),
            }
            prop_assert!(cache.len() <= capacity.max(1));
            prop_assert!(cache.len() <= capacity || capacity == 0);
        }
    }

    /// Counting invariant: local + cached + remote = all reads; writes =
    /// iteration count; and the distributed values equal the reference —
    /// for randomly generated skewed kernels over random machines.
    #[test]
    fn random_skewed_kernels_conserve_and_verify(
        n in 64usize..512,
        skew in 0i64..20,
        n_pes in 1usize..17,
        page_size in prop::sample::select(vec![8usize, 16, 32, 64]),
        cached in proptest::bool::ANY,
    ) {
        let mut b = ProgramBuilder::new("prop");
        let y = b.input("Y", &[n + skew as usize + 1], InitPattern::Wavy);
        let x = b.output("X", &[n]);
        b.nest("s", &[("k", 0, n as i64 - 1)], |nb| {
            nb.assign(x, [iv(0)], nb.read(y, [iv(0).plus(skew)]) * 2.0);
        });
        let p = b.finish();
        let cfg = if cached {
            MachineConfig::new(n_pes, page_size)
        } else {
            MachineConfig::new(n_pes, page_size).with_cache_elems(0)
        };
        let rep = simulate(&p, &cfg).expect("sim");
        prop_assert_eq!(rep.stats.writes(), n as u64);
        prop_assert_eq!(
            rep.stats.total_reads(),
            rep.stats.local_reads() + rep.stats.cached_reads() + rep.stats.remote_reads()
        );
        prop_assert_eq!(rep.stats.total_reads(), n as u64);
        // With one PE nothing is remote.
        if n_pes == 1 {
            prop_assert_eq!(rep.stats.remote_reads(), 0);
        }
        verify_against_reference(&p, &cfg).map_err(TestCaseError::fail)?;
    }

    /// The cache can only reduce remote reads, never increase them.
    #[test]
    fn cache_monotonicity(
        n in 64usize..512,
        skew in 1i64..16,
        n_pes in 2usize..17,
    ) {
        let mut b = ProgramBuilder::new("mono");
        let y = b.input("Y", &[n + 16], InitPattern::Wavy);
        let x = b.output("X", &[n]);
        b.nest("s", &[("k", 0, n as i64 - 1)], |nb| {
            nb.assign(x, [iv(0)], nb.read(y, [iv(0).plus(skew)]));
        });
        let p = b.finish();
        let with = simulate(&p, &MachineConfig::new(n_pes, 32)).expect("sim");
        let without = simulate(&p, &MachineConfig::new(n_pes, 32).with_cache_elems(0)).expect("sim");
        prop_assert!(with.stats.remote_reads() <= without.stats.remote_reads());
    }

    /// pages_in/page arithmetic round-trips.
    #[test]
    fn page_arithmetic_roundtrips(len in 1usize..10_000, ps in 1usize..257) {
        let pages = pages_in(len, ps);
        prop_assert!(pages * ps >= len);
        prop_assert!((pages - 1) * ps < len);
    }

    /// The multi-dim addressing helper agrees with the partitioner: for
    /// random dims and schemes, `owner(linearize(i,j,k))` computed through
    /// `Grid` equals the owner computed through the builder's declared
    /// addressing (`ArrayDecl::linearize` — the two linearizations must be
    /// the same function, so screening a stencil tap and declaring its
    /// array can never disagree), every owner is a valid PE, and the
    /// unit-stride dimension advances the linear address by exactly 1 —
    /// the adjacency the replay engine's page intervals and the owner's
    /// page granularity together turn into contiguous owned index ranges.
    #[test]
    fn grid_addressing_agrees_with_partition_owner(
        dims in prop::collection::vec(1usize..9, 1..4),
        scheme in scheme_strategy(),
        ps in prop::sample::select(vec![2usize, 4, 8, 32]),
        n_pes in 1usize..17,
    ) {
        let g = Grid::new(&dims);
        let decl = ArrayDecl {
            name: "G".into(),
            dims: dims.clone(),
            init: ArrayInit::Undefined,
        };
        let placement = Placement::new(scheme, ps, n_pes, ArrayShape::from_dims(&dims));

        // Enumerate the whole grid (≤ 8³ cells) by linear address, mapping
        // each address back to its index vector through the strides.
        let strides = g.strides();
        for addr in 0..g.len() {
            let idx: Vec<i64> = strides.iter().map(|&s| (addr / s) as i64)
                .zip(&dims)
                .map(|(q, &e)| q % e as i64)
                .collect();
            prop_assert_eq!(g.linearize(&idx), Some(addr), "idx {:?}", &idx);
            prop_assert_eq!(decl.linearize(&idx).ok(), Some(addr));
            prop_assert!(placement.owner_of_addr(addr) < n_pes);
            // Unit-stride neighbours differ by exactly 1 in address — the
            // adjacency that makes page ownership interval-shaped along
            // the innermost dimension (ownership is a function of the page,
            // so this is the non-trivial half of that property).
            let mut next = idx.clone();
            *next.last_mut().unwrap() += 1;
            if let Some(naddr) = g.linearize(&next) {
                prop_assert_eq!(naddr, addr + 1, "idx {:?}", &idx);
            }
        }
    }

    /// Geometry-aware ownership agrees with grid linearization: for every
    /// cell of a random 2-D grid, `Placement::owner_of_addr(linearize(r,c))`
    /// is a valid PE, and at element granularity (page size 1) the tiled
    /// schemes match their closed-form grid formulas — `Tile2D` owns by
    /// `((r/tr)·tiles_per_row + c/tc) mod n`, `RowBand` by contiguous row
    /// bands — so screening a stencil tap through the placement can never
    /// disagree with the owner the executors compute.
    #[test]
    fn placement_owner_agrees_with_grid_formulas(
        rows in 1usize..17,
        cols in 1usize..17,
        tr in 1usize..6,
        tc in 1usize..6,
        ps in prop::sample::select(vec![1usize, 2, 4, 8, 32]),
        n_pes in 1usize..17,
    ) {
        let g = Grid::new(&[rows, cols]);
        let shape = ArrayShape::from_dims(&[rows, cols]);
        let tile = Placement::new(
            PartitionScheme::Tile2D { tile_rows: tr, tile_cols: tc },
            ps,
            n_pes,
            shape,
        );
        let band = Placement::new(PartitionScheme::RowBand, ps, n_pes, shape);
        let tiles_per_row = cols.div_ceil(tc).max(1);
        let band_rows = rows.div_ceil(n_pes).max(1);
        for r in 0..rows {
            for c in 0..cols {
                let addr = g.linearize(&[r as i64, c as i64]).expect("in range");
                prop_assert!(tile.owner_of_addr(addr) < n_pes);
                prop_assert!(band.owner_of_addr(addr) < n_pes);
                if ps == 1 {
                    // Element granularity: the page IS the element, so the
                    // owner must be the grid formula exactly.
                    let want = ((r / tr) * tiles_per_row + c / tc) % n_pes;
                    prop_assert_eq!(tile.owner_of_addr(addr), want, "tile ({r},{c})");
                    let want_band = (r / band_rows).min(n_pes - 1);
                    prop_assert_eq!(band.owner_of_addr(addr), want_band, "band ({r},{c})");
                }
            }
        }
    }

    /// A placement's period is certified, not assumed: whenever
    /// `period()` answers `Some(T)`, `T` is a whole number of pages and
    /// translating any in-domain page by it keeps the owner — the fact
    /// `Schedule::folds` counts one stretch of a nest for many on. The
    /// cyclic deals have one (or folding silently never happens), tiles
    /// included once they wrap round the PEs; the monotone ones must not
    /// claim one.
    #[test]
    fn a_period_translates_ownership(
        dims in prop::collection::vec(1usize..40, 1..4),
        scheme in scheme_strategy(),
        ps in prop::sample::select(vec![1usize, 2, 4, 8, 32]),
        n_pes in 1usize..17,
    ) {
        let pl = Placement::new(scheme, ps, n_pes, ArrayShape::from_dims(&dims));
        if let Some(t) = pl.period() {
            prop_assert!(t > 0 && t % ps == 0, "period {t} of {pl:?}");
            let shift = t / ps;
            for q in 0..pl.pages().saturating_sub(shift) {
                prop_assert_eq!(pl.page_owner(q + shift), pl.page_owner(q), "page {q} of {pl:?}");
            }
        }
        match scheme {
            PartitionScheme::Modulo => prop_assert_eq!(pl.period(), Some(n_pes * ps)),
            PartitionScheme::BlockCyclic { block_pages } => {
                prop_assert!(pl.period().is_some_and(|t| t <= block_pages * n_pes * ps));
            }
            PartitionScheme::Tile2D { tile_rows, tile_cols } => {
                let shape = ArrayShape::from_dims(&dims);
                let tiles = shape.rows.div_ceil(tile_rows) * shape.cols.div_ceil(tile_cols);
                if n_pes > 1 && tiles > n_pes {
                    prop_assert!(pl.period().is_some(), "{pl:?}");
                }
            }
            PartitionScheme::Block | PartitionScheme::RowBand if n_pes > 1 => {
                prop_assert_eq!(pl.period(), None);
            }
            _ => {}
        }
    }
}
