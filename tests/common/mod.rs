//! The *fold-dense* generator shared by `replay_vs_interp.rs` and
//! `lint_static.rs`: small affine programs on machines whose placement
//! period is short against the nests (`n_pes · page_size · block_pages ≤ 60`
//! elements, or a few rows of small tiles), or whose bands hold several
//! rows (`block`, `rowband`, and tiles so large that each PE holds about
//! one), so most sweeps are translates of one another — by whole periods,
//! or row by row inside a band — and most long sweeps hold several inner
//! periods. These are the programs on which the cache-less counters walk
//! one stretch per class and multiply
//! (`sa_lint::screening::Schedule::folds`), and on which a cached replay
//! stops walking a chain of translates once the cache repeats itself
//! (`Schedule::chains`). The suites' older generators draw periods of
//! 4 … 1024 elements against nests of at most 60 trips and hardly ever
//! fold.

use proptest::prelude::*;

use sapp::ir::index::iv;
use sapp::ir::{AffineIndex, Expr, InitPattern, LoopVar, Program, ProgramBuilder, ReduceOp};
use sapp::machine::{CachePolicy, MachineConfig, NetworkTopology, PartitionScheme};

/// Largest read offset generated.
const OFF_MAX: i64 = 8;

/// One statement of the generated nest's body.
#[derive(Debug, Clone)]
pub struct DenseStmt {
    /// Reduce into a scalar instead of assigning.
    reduce: bool,
    /// `(coefficient on the innermost variable, offset)` per read of `Y`.
    reads: Vec<(i64, i64)>,
    /// Row offset of the extra 2-D read (two-level nests only).
    row_skew: i64,
}

/// One generated program: a single nest, one or two levels deep.
#[derive(Debug, Clone)]
pub struct DenseProgram {
    /// Rows of a two-level nest; `None` for a one-level nest.
    outer: Option<usize>,
    /// Extent of the innermost dimension.
    inner: usize,
    /// Triangular lean: row `i` walks `inner − lean · i` positions, where
    /// every row keeps at least one (else the nest is rectangular).
    lean: i64,
    /// Increment of the innermost loop; negative loops run downwards.
    step: i64,
    stmts: Vec<DenseStmt>,
}

fn stride() -> impl Strategy<Value = i64> {
    prop::sample::select(vec![-3i64, -2, -1, 1, 2, 3])
}

pub fn dense_program_strategy() -> impl Strategy<Value = DenseProgram> {
    let stmt = (
        prop::bool::ANY,
        prop::collection::vec((stride(), 0..=OFF_MAX), 1..4),
        0i64..3,
    )
        .prop_map(|(reduce, reads, row_skew)| DenseStmt {
            reduce,
            reads,
            row_skew,
        });
    (
        prop_oneof![
            (2usize..201).prop_map(|n| (None, n)),
            ((2usize..25), (2usize..49)).prop_map(|(rows, cols)| (Some(rows), cols)),
        ],
        0i64..3,
        stride(),
        prop::collection::vec(stmt, 1..4),
    )
        .prop_map(|((outer, inner), lean, step, stmts)| DenseProgram {
            outer,
            inner,
            lean,
            step,
            stmts,
        })
}

/// Cache-less machines of 1–5 PEs with pages of 1–4 elements under every
/// scheme — small tiles and tiles of about one per PE among them — on
/// every topology.
pub fn dense_config_strategy() -> impl Strategy<Value = MachineConfig> {
    (
        1usize..6,
        1usize..5,
        prop_oneof![
            Just(PartitionScheme::Modulo),
            (1usize..4).prop_map(|b| PartitionScheme::BlockCyclic { block_pages: b }),
            ((1usize..4), (1usize..4)).prop_map(|(tile_rows, tile_cols)| {
                PartitionScheme::Tile2D {
                    tile_rows,
                    tile_cols,
                }
            }),
            Just(PartitionScheme::Block),
            Just(PartitionScheme::RowBand),
            ((4usize..13), (8usize..25)).prop_map(|(tile_rows, tile_cols)| {
                PartitionScheme::Tile2D {
                    tile_rows,
                    tile_cols,
                }
            }),
        ],
        prop::sample::select(vec![
            NetworkTopology::Ideal,
            NetworkTopology::Crossbar,
            NetworkTopology::Bus,
            NetworkTopology::Ring,
            NetworkTopology::Mesh2D,
            NetworkTopology::Torus2D,
            NetworkTopology::Hypercube,
        ]),
    )
        .prop_map(|(n_pes, page, scheme, net)| {
            MachineConfig::new(n_pes, page)
                .with_cache_elems(0)
                .with_partition(scheme)
                .with_network(net)
        })
}

/// The same machines with a cache of 0 (less than one page), 1–8 or 32
/// pages under each replacement policy: small against the nests, so a
/// cached replay's chains reach their steady state — or, under Random with
/// evictions, never do.
#[allow(dead_code)] // `lint_static.rs` counts without a cache
pub fn dense_cached_config_strategy() -> impl Strategy<Value = MachineConfig> {
    (
        dense_config_strategy(),
        prop_oneof![Just(0usize), 1usize..9, Just(32)],
        prop_oneof![
            Just(CachePolicy::Lru),
            Just(CachePolicy::Fifo),
            (1u64..1000).prop_map(|seed| CachePolicy::Random { seed }),
        ],
    )
        .prop_map(|(cfg, pages, policy)| {
            let elems = (pages * cfg.page_size).max(cfg.page_size - 1);
            cfg.with_cache_elems(elems).with_cache_policy(policy)
        })
}

/// Materialize `spec` as a valid single-assignment program: every assign
/// writes its own array at the identity subscript, and `Y` is long enough
/// for every `(coefficient, offset)` in either direction.
pub fn build_dense(spec: &DenseProgram) -> Program {
    let mut b = ProgramBuilder::new("dense");
    let rows = spec.outer.unwrap_or(1);
    let depth = if spec.outer.is_some() { 2 } else { 1 };
    let jmax = spec.inner as i64 - 1;
    let lean = if jmax >= spec.lean * (rows as i64 - 1) {
        spec.lean
    } else {
        0
    };
    // `c · j + off + 3 · jmax` is never negative for |c| ≤ 3.
    let y = b.input("Y", &[(6 * jmax + OFF_MAX + 1) as usize], InitPattern::Wavy);
    let y2 = b.input("Y2", &[rows + 2, spec.inner], InitPattern::Harmonic);
    let dims: Vec<usize> = spec.outer.into_iter().chain([spec.inner]).collect();
    let targets: Vec<_> = (0..spec.stmts.len())
        .map(|si| {
            (
                b.output(format!("X{si}"), &dims),
                b.scalar(format!("s{si}")),
            )
        })
        .collect();

    let top = match depth {
        2 => iv(0).scale(-lean).plus(jmax),
        _ => AffineIndex::constant(jmax),
    };
    let (lo, hi) = if spec.step > 0 {
        (0.into(), top)
    } else {
        (top, 0.into())
    };
    let mut loops: Vec<LoopVar> = spec
        .outer
        .map(|rows| LoopVar::simple("i", 0, rows as i64 - 1))
        .into_iter()
        .collect();
    loops.push(LoopVar {
        name: "j".into(),
        lo,
        hi,
        step: spec.step,
    });
    let j = depth - 1;
    b.nest_loops("n", loops, |nb| {
        for (stmt, &(x, s)) in spec.stmts.iter().zip(&targets) {
            let reads = stmt
                .reads
                .iter()
                .map(|&(c, off)| nb.read(y, [iv(j).scale(c).plus(off + 3 * jmax)]));
            let mut value: Expr = reads.reduce(|a, r| a + r).expect("at least one read");
            if depth == 2 {
                value = value + nb.read(y2, [iv(0).plus(stmt.row_skew), iv(1)]);
            }
            if stmt.reduce {
                nb.reduce(s, ReduceOp::Sum, value);
            } else if depth == 2 {
                nb.assign(x, [iv(0), iv(1)], value);
            } else {
                nb.assign(x, [iv(0)], value);
            }
        }
    });
    b.finish()
}
