//! Differential correctness of the compiled access replay
//! (`sa_core::replay`) against the statement-by-statement interpreter
//! (`sa_core::exec::simulate`):
//!
//! 1. **Full Livermore suite × figure grid** — every kernel, every grid
//!    point of the paper's figures, bit-identical `Stats` (global and
//!    per-nest), message/hop/link-load totals included.
//! 2. **Proptest** — randomly generated affine nests (1–2 levels, skews,
//!    scaled subscripts, reductions, multi-statement bodies) × random
//!    machine configs, and *fold-dense* ones (`common`: triangular bounds,
//!    strided loops, placement periods of a few elements, no cache) on
//!    which replay counts one stretch per translation class.
//! 3. **Oracle equivalence** — `FastCountingOracle` in every engine mode
//!    produces the same `RunRecord`s as `CountingOracle` over a plan.
//! 4. **Capped replay is exact** — under a remote-read cap, replay says
//!    `Exceeded` exactly when the run's remote reads reach the cap, and
//!    below it counts everything the uncapped run does.
//! 5. **Hand-counted kernels** — cache-less counts worked out by hand
//!    (a skewed read, reduction partials, block placement with a reinit)
//!    are what both engines print, and an out-of-bounds sweep hidden
//!    behind sweeps that fold is the interpreter's error.

use proptest::prelude::*;

mod common;

use sapp::core::exec::{simulate, SimError};
use sapp::core::plan::{ExperimentPlan, RunConfig};
use sapp::core::replay;
use sapp::core::search::SearchSpace;
use sapp::core::{par_map, CountingOracle, Engine, FastCountingOracle, Oracle};
use sapp::ir::analysis::StaticArrays;
use sapp::ir::index::{iv, IndexExpr};
use sapp::ir::nest::ArrayRef;
use sapp::ir::program::ArrayInit;
use sapp::ir::{Expr, InitPattern, IrError, Program, ProgramBuilder, ReduceOp};
use sapp::lint::screening::Schedule;
use sapp::loops::suite;
use sapp::machine::{CachePolicy, MachineConfig, NetworkTopology, PartitionScheme};

/// Assert replay ≡ interpreter on every counter for one (program, config).
fn assert_identical(label: &str, program: &Program, cfg: &MachineConfig) {
    let sim = simulate(program, cfg)
        .unwrap_or_else(|e| panic!("{label}: interpreter rejected the program: {e}"));
    let rep = replay::counts(program, cfg)
        .unwrap_or_else(|e| panic!("{label}: replay rejected the program: {e}"));
    assert_eq!(rep.stats, sim.stats, "{label}: global stats");
    assert_eq!(rep.per_nest, sim.per_nest, "{label}: per-nest stats");
    assert_eq!(
        rep.network_messages, sim.network_messages,
        "{label}: messages"
    );
    assert_eq!(rep.network_hops, sim.network_hops, "{label}: hops");
    assert_eq!(rep.max_link_load, sim.max_link_load, "{label}: link load");
}

/// Capped replay of one (program, config) at caps around its remote reads
/// `R`: `Exceeded` exactly when the cap is at most `R`, else the uncapped
/// report itself.
fn assert_capped_exact(label: &str, program: &Program, cfg: &MachineConfig) {
    let full = replay::counts(program, cfg)
        .unwrap_or_else(|e| panic!("{label}: replay rejected the program: {e}"));
    let r = full.stats.remote_reads();
    for cap in [0, 1, r.saturating_sub(1), r, r + 1, u64::MAX] {
        let capped = replay::counts_capped(program, cfg, cap)
            .unwrap_or_else(|e| panic!("{label}: capped replay rejected the program: {e}"));
        match capped {
            replay::Capped::Exceeded => assert!(cap <= r, "{label}: cap {cap} > {r} exceeded"),
            replay::Capped::Counted(rep) => {
                assert!(cap > r, "{label}: cap {cap} <= {r} counted");
                assert_eq!(rep, full, "{label}: cap {cap} changed the counts");
            }
        }
    }
}

/// The paper's figure grid: PE counts × page sizes × cache on/off.
fn figure_grid() -> Vec<MachineConfig> {
    let mut grid = Vec::new();
    for &n_pes in &[1usize, 2, 4, 8, 16, 32] {
        for &ps in &[32usize, 64] {
            for &cached in &[true, false] {
                let cfg = MachineConfig::new(n_pes, ps);
                grid.push(if cached { cfg } else { cfg.with_cache_elems(0) });
            }
        }
    }
    grid
}

#[test]
fn full_suite_bit_identical_across_the_figure_grid() {
    // Every kernel of the suite is statically classifiable (affine anchors
    // and subscripts, or gathers through statically initialized index
    // arrays), so the strict replay engine must accept all of them and
    // reproduce the interpreter's counts exactly. The (kernel, config)
    // points are independent, so fan the differential itself out.
    let kernels = suite();
    let grid = figure_grid();
    let points: Vec<(usize, usize)> = (0..kernels.len())
        .flat_map(|k| (0..grid.len()).map(move |c| (k, c)))
        .collect();
    par_map(&points, |&(k, c)| {
        let kernel = &kernels[k];
        assert_identical(
            &format!("{} @ {:?}", kernel.code, grid[c]),
            &kernel.program,
            &grid[c],
        );
        Ok::<_, std::convert::Infallible>(())
    })
    .unwrap();
}

#[test]
fn multi_pass_k18_with_reinits_bit_identical() {
    // The Figure-3 shape: five passes separated by §5 re-initialization
    // rounds — generation bumps, cache invalidation and host-protocol
    // messages all cross the replay/interpreter boundary.
    let k = sapp::loops::k18_hydro2d::build_with_passes(101, 5);
    for cfg in [
        MachineConfig::new(16, 32),
        MachineConfig::new(16, 32).with_cache_elems(0),
        MachineConfig::new(8, 64).with_network(NetworkTopology::Hypercube),
    ] {
        assert_identical("K18×5", &k.program, &cfg);
    }
}

#[test]
fn gather_kernels_bit_identical_with_contended_networks() {
    // K13/K14F: the Random-class gathers resolve through statically
    // initialized index arrays, so replay handles them without fallback —
    // including hop and per-link accounting on routed topologies.
    for (label, program) in [
        ("K13", sapp::loops::k13_pic2d::build(1001).program),
        ("K14F", sapp::loops::k14_pic1d::build_full(1001).program),
    ] {
        for net in [
            NetworkTopology::Ring,
            NetworkTopology::Mesh2D,
            NetworkTopology::Hypercube,
        ] {
            let cfg = MachineConfig::new(16, 32).with_network(net);
            assert_identical(label, &program, &cfg);
        }
    }
}

#[test]
fn single_trip_windows_bit_identical_across_the_search_space() {
    // K21's write and two of its reads step 26 elements a trip, so at small
    // page sizes its windows are a trip long, or cut trip by trip, and
    // replay charges them instance by instance; K13's gathers take the
    // same path. Every candidate of the default search, and the other two
    // policies at the page size where windows are shortest.
    let space = SearchSpace::default();
    let machine = |scheme, page| {
        MachineConfig::new(space.n_pes, page)
            .with_cache_elems(space.cache_elems)
            .with_partition(scheme)
    };
    let mut configs = Vec::new();
    for &scheme in &space.schemes {
        configs.extend(space.page_sizes.iter().map(|&page| machine(scheme, page)));
    }
    for policy in [CachePolicy::Fifo, CachePolicy::Random { seed: 3 }] {
        configs.push(machine(PartitionScheme::Modulo, 8).with_cache_policy(policy));
    }
    let kernels = ["K21", "K13"].map(|code| sapp::loops::workload(code).unwrap().official());
    let points: Vec<(usize, usize)> = (0..kernels.len())
        .flat_map(|k| (0..configs.len()).map(move |c| (k, c)))
        .collect();
    par_map(&points, |&(k, c)| {
        let kernel = &kernels[k];
        assert_identical(
            &format!("{} @ {:?}", kernel.code, configs[c]),
            &kernel.program,
            &configs[c],
        );
        Ok::<_, std::convert::Infallible>(())
    })
    .unwrap();
}

#[test]
fn scale_workloads_bit_identical_across_the_figure_grid() {
    // The stencil family and both SpMVs must lower to the strict replay
    // engine (multi-dim affine subscripts; CSR gathers through row_ptr and
    // col_idx, declared in full or as a defined prefix) and reproduce the
    // interpreter bit for bit across the whole figure grid at reduced
    // sizes.
    let kernels: Vec<_> = sapp::loops::workloads()
        .iter()
        .filter(|w| w.family == sapp::loops::Family::Scale)
        .map(|w| w.reduced())
        .collect();
    let grid = figure_grid();
    let points: Vec<(usize, usize)> = (0..kernels.len())
        .flat_map(|k| (0..grid.len()).map(move |c| (k, c)))
        .collect();
    par_map(&points, |&(k, c)| {
        let kernel = &kernels[k];
        assert_identical(
            &format!("{} @ {:?}", kernel.code, grid[c]),
            &kernel.program,
            &grid[c],
        );
        Ok::<_, std::convert::Infallible>(())
    })
    .unwrap();
}

#[test]
fn stencils_bit_identical_under_tiled_schemes_and_routed_topologies() {
    // The geometry-aware schemes exercise the placement layer end-to-end:
    // replay's owned-interval enumeration must reproduce the interpreter's
    // tile-strided page runs exactly, and every modeled message must price
    // identically through the shared link models — for each stencil of the
    // scale family at reduced size, across tiled schemes × routed
    // topologies.
    let kernels: Vec<_> = ["ST5", "ST9", "ST7"]
        .iter()
        .map(|c| sapp::loops::workload(c).unwrap().reduced())
        .collect();
    let schemes = [
        PartitionScheme::RowBand,
        PartitionScheme::Tile2D {
            tile_rows: 8,
            tile_cols: 8,
        },
        PartitionScheme::Tile2D {
            tile_rows: 3,
            tile_cols: 17,
        },
    ];
    let nets = [
        NetworkTopology::Bus,
        NetworkTopology::Mesh2D,
        NetworkTopology::Torus2D,
    ];
    let points: Vec<(usize, usize, usize)> = (0..kernels.len())
        .flat_map(|k| (0..schemes.len()).flat_map(move |s| (0..nets.len()).map(move |n| (k, s, n))))
        .collect();
    par_map(&points, |&(k, s, n)| {
        let kernel = &kernels[k];
        for cached in [true, false] {
            let cfg = MachineConfig::new(16, 32)
                .with_partition(schemes[s])
                .with_network(nets[n]);
            let cfg = if cached { cfg } else { cfg.with_cache_elems(0) };
            assert_identical(
                &format!("{} @ {:?} × {:?}", kernel.code, schemes[s], nets[n]),
                &kernel.program,
                &cfg,
            );
        }
        Ok::<_, std::convert::Infallible>(())
    })
    .unwrap();

    // What the geometry buys: on ST5 512² (16-PE mesh, no cache) 128×128
    // tiles keep halo exchanges between neighbouring owners, where modulo
    // scatters every row boundary across the machine.
    let st5 = sapp::loops::stencil::build_jacobi5(512, 512, 2).program;
    let on_mesh = |scheme| {
        let cfg = MachineConfig::new(16, 32)
            .with_cache_elems(0)
            .with_partition(scheme)
            .with_network(NetworkTopology::Mesh2D);
        replay::counts(&st5, &cfg).expect("replay handles the stencil")
    };
    let modulo = on_mesh(PartitionScheme::Modulo);
    let tiled = on_mesh(PartitionScheme::Tile2D {
        tile_rows: 128,
        tile_cols: 128,
    });
    assert!(
        tiled.remote_pct() < modulo.remote_pct(),
        "tile2d remote {:.3}% is not below modulo {:.3}%",
        tiled.remote_pct(),
        modulo.remote_pct()
    );
    assert!(
        tiled.max_link_load < modulo.max_link_load,
        "tile2d max link load {} is not below modulo {}",
        tiled.max_link_load,
        modulo.max_link_load
    );
}

#[test]
fn every_registry_kernel_bit_identical_under_every_scheme() {
    // Every workload of the registry, SPMVD's prefix-declared index data
    // included, under the five placement schemes, cached and not.
    let kernels: Vec<_> = sapp::loops::workloads()
        .iter()
        .map(|w| w.reduced())
        .collect();
    let schemes = [
        PartitionScheme::Modulo,
        PartitionScheme::Block,
        PartitionScheme::BlockCyclic { block_pages: 4 },
        PartitionScheme::RowBand,
        PartitionScheme::Tile2D {
            tile_rows: 8,
            tile_cols: 16,
        },
    ];
    let points: Vec<(usize, usize)> = (0..kernels.len())
        .flat_map(|k| (0..schemes.len()).map(move |s| (k, s)))
        .collect();
    par_map(&points, |&(k, s)| {
        for cache in [256, 0] {
            let cfg = MachineConfig::new(8, 32)
                .with_partition(schemes[s])
                .with_cache_elems(cache);
            let label = format!("{} @ {:?}", kernels[k].code, cfg);
            assert_identical(&label, &kernels[k].program, &cfg);
        }
        Ok::<_, std::convert::Infallible>(())
    })
    .unwrap();
}

#[test]
fn capped_replay_is_exact_on_every_registry_kernel() {
    let kernels: Vec<_> = sapp::loops::workloads()
        .iter()
        .map(|w| w.reduced())
        .collect();
    let schemes = [
        PartitionScheme::Modulo,
        PartitionScheme::Block,
        PartitionScheme::BlockCyclic { block_pages: 4 },
        PartitionScheme::RowBand,
        PartitionScheme::Tile2D {
            tile_rows: 8,
            tile_cols: 16,
        },
    ];
    let points: Vec<(usize, usize)> = (0..kernels.len())
        .flat_map(|k| (0..schemes.len()).map(move |s| (k, s)))
        .collect();
    par_map(&points, |&(k, s)| {
        for cache in [256, 0] {
            let cfg = MachineConfig::new(8, 32)
                .with_partition(schemes[s])
                .with_cache_elems(cache);
            let label = format!("{} @ {:?}", kernels[k].code, cfg);
            assert_capped_exact(&label, &kernels[k].program, &cfg);
        }
        Ok::<_, std::convert::Infallible>(())
    })
    .unwrap();
}

#[test]
fn prefix_spmv_falls_back_cleanly_to_the_interpreter() {
    // A row-pointer gather one row past its index array's defined prefix:
    // replay cannot prove the position inside it and declines, naming the
    // array, and the auto engine reports exactly the interpreter's error.
    let (rows, deg) = (64usize, 4usize);
    let mut b = ProgramBuilder::new("prefix-spmv");
    let row_ptr = b.array_with(
        "ROWPTR",
        &[rows + 1],
        ArrayInit::Prefix {
            pattern: InitPattern::Linear {
                base: 0.0,
                step: deg as f64,
            },
            len: rows,
        },
    );
    let vals = b.input("VALS", &[rows * deg], InitPattern::Wavy);
    let last = b.output("LAST", &[rows]);
    b.nest("row-end", &[("i", 0, rows as i64 - 1)], |nb| {
        // VALS(ROWPTR(i + 1) - 1): the last nonzero of row i.
        let end = IndexExpr::gather(row_ptr, iv(0).plus(1), 1, -1);
        nb.assign(last, [iv(0)], Expr::Read(ArrayRef::new(vals, vec![end])));
    });
    let p = b.finish();
    let cfg = MachineConfig::new(8, 32);
    match replay::counts(&p, &cfg) {
        Err(replay::ReplayError::Unsupported { nest, reason }) => {
            assert_eq!(nest, "row-end");
            assert!(reason.contains("`ROWPTR`"), "{reason}");
        }
        other => panic!("expected Unsupported, got {other:?}"),
    }
    let outcome = |r: Result<replay::CountReport, _>| r.map_err(|e: SimError| e.to_string());
    let sim = simulate(&p, &cfg).map(|rep| replay::CountReport::from_sim(&rep));
    assert_eq!(
        outcome(replay::counts_or_simulate(&p, &cfg)),
        outcome(sim.clone())
    );
    assert_eq!(
        outcome(sim).unwrap_err(),
        "IR error: read of undefined cell ROWPTR[64]"
    );
}

#[test]
fn large_stencil_and_spmv_slices_bit_identical() {
    // One mid-size slice per workload class, beyond the reduced sizes, so
    // the closed-form page-interval math sees page counts the Livermore
    // suite never produces (release CI runs this at full speed).
    let st = sapp::loops::stencil::build_jacobi5(96, 80, 2);
    let sp = sapp::loops::spmv::build_csr(1024, 768, 6);
    for cfg in [
        MachineConfig::new(16, 32),
        MachineConfig::new(64, 32).with_cache_elems(0),
        MachineConfig::new(16, 64).with_partition(PartitionScheme::Block),
    ] {
        assert_identical("ST5@96x80", &st.program, &cfg);
        assert_identical("SPMV@1024", &sp.program, &cfg);
    }
}

#[test]
fn fast_oracle_equals_counting_oracle_over_a_plan() {
    let k = sapp::loops::k12_first_diff::build(1000);
    let plan = ExperimentPlan::new()
        .page_sizes(&[32, 64])
        .cache_flags(&[true, false])
        .pes(&[1, 4, 16]);
    let reference = plan.run(&k.program, &CountingOracle).unwrap();
    for engine in [Engine::Interp, Engine::Replay, Engine::Auto] {
        let fast = plan
            .run(&k.program, &FastCountingOracle::with_engine(engine))
            .unwrap();
        assert_eq!(
            fast.records(),
            reference.records(),
            "engine {}",
            engine.name()
        );
    }
}

#[test]
fn strict_replay_measures_every_suite_kernel() {
    // The `--engine replay` CLI path must not need fallback anywhere in
    // the suite.
    let oracle = FastCountingOracle::with_engine(Engine::Replay);
    for kernel in suite() {
        let rec = oracle
            .measure(&kernel.program, &RunConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.code));
        assert!(rec.total_reads > 0 || rec.writes > 0, "{}", kernel.code);
    }
}

// ---------------------------------------------------------------------------
// Hand-counted kernels
// ---------------------------------------------------------------------------

/// `X[k] ← Y[k+1] − Y[k]` over `0..n`.
fn skewed(n: usize) -> Program {
    let mut b = ProgramBuilder::new("sk");
    let y = b.input("Y", &[n + 1], InitPattern::Wavy);
    let x = b.output("X", &[n]);
    b.nest("s", &[("k", 0, n as i64 - 1)], |nb| {
        nb.assign(
            x,
            [iv(0)],
            nb.read(y, [iv(0).plus(1)]) - nb.read(y, [iv(0)]),
        );
    });
    b.finish()
}

/// Replay's counts of `program` under `cfg`, asserted equal to the
/// interpreter's.
fn hand_checked(program: &Program, cfg: &MachineConfig) -> replay::CountReport {
    assert_identical(&program.name, program, cfg);
    replay::counts(program, cfg).unwrap()
}

#[test]
fn skewed_kernel_counts_match_by_hand() {
    // 128 elements, 4 PEs, page 32 (modulo): X page k → PE k; reads of
    // Y hit the same page except at each page's last element, where
    // Y[k+1] crosses into the next page (remote): 4 crossings, Y's page 4
    // included.
    let rep = hand_checked(&skewed(128), &MachineConfig::new(4, 32).with_cache_elems(0));
    assert_eq!(rep.stats.writes(), 128);
    assert_eq!(rep.stats.total_reads(), 256);
    assert_eq!(rep.stats.remote_reads(), 4);
    assert_eq!(rep.stats.page_fetches, 4);
    assert_eq!(rep.network_messages, 8);
}

#[test]
fn reduction_partials_ship_to_the_host() {
    // sum over Y: anchor = Y[k]; 64 elements over 4 PEs at page 16 →
    // every PE participates; host of scalar 0 is PE 0 → 3 partials.
    let mut b = ProgramBuilder::new("red");
    let y = b.input("Y", &[64], InitPattern::Wavy);
    let s = b.scalar("sum");
    b.nest("n", &[("k", 0, 63)], |nb| {
        nb.reduce(s, ReduceOp::Sum, nb.read(y, [iv(0)]));
    });
    let rep = hand_checked(&b.finish(), &MachineConfig::new(4, 16).with_cache_elems(0));
    assert_eq!(rep.stats.reduction_messages, 3);
    // All reads anchor-local.
    assert_eq!(rep.stats.remote_reads(), 0);
    assert_eq!(rep.stats.local_reads(), 64);
    assert_eq!(rep.network_messages, 3);
}

#[test]
fn block_scheme_and_reinit_accounting() {
    let mut b = ProgramBuilder::new("blk");
    let y = b.input("Y", &[64], InitPattern::Wavy);
    let x = b.output("X", &[64]);
    b.nest("n", &[("k", 0, 63)], |nb| {
        nb.assign(x, [iv(0)], nb.read(y, [iv(0)]) + 1.0);
    });
    b.reinit(x);
    let cfg = MachineConfig::new(4, 8)
        .with_cache_elems(0)
        .with_partition(PartitionScheme::Block);
    let rep = hand_checked(&b.finish(), &cfg);
    // Matched access: everything local; reinit costs 2·(4−1) messages.
    assert_eq!(rep.stats.remote_reads(), 0);
    assert_eq!(rep.stats.reinit_messages, 6);
    assert_eq!(rep.network_messages, 6);
}

#[test]
fn an_out_of_bounds_sweep_is_found_behind_sweeps_that_fold() {
    // Rows of 8 elements on 2 PEs × page 4: every sweep is a translate
    // of the first by a whole period, so a cache-less walk visits one of
    // them — but Z has only five rows, and the sixth sweep leaves it.
    // Replay declines; the auto engine reports the interpreter's error.
    let mut b = ProgramBuilder::new("last");
    let z = b.input("Z", &[5, 8], InitPattern::Wavy);
    let x = b.output("X", &[6, 8]);
    b.nest("n", &[("i", 0, 5), ("j", 0, 7)], |nb| {
        nb.assign(x, [iv(0), iv(1)], nb.read(z, [iv(0), iv(1)]));
    });
    let p = b.finish();
    let cfg = MachineConfig::new(2, 4).with_cache_elems(0);
    let statics = StaticArrays::scan(&p);
    let sched = Schedule::new(&p, &statics, cfg.partition, 4, 2).unwrap();
    let stretches: Vec<_> = sched
        .folds(0, true)
        .iter()
        .map(|f| (f.sweep, f.trips(), f.times))
        .collect();
    assert_eq!(stretches, [(0, 0..8, 6)]);
    assert!(matches!(
        replay::counts(&p, &cfg),
        Err(replay::ReplayError::Unsupported { .. })
    ));
    let want = SimError::Ir(IrError::IndexOutOfBounds {
        array: "Z".into(),
        dim: 0,
        index: 5,
        extent: 5,
    });
    assert_eq!(simulate(&p, &cfg).unwrap_err(), want);
    assert_eq!(replay::counts_or_simulate(&p, &cfg).unwrap_err(), want);
}

// ---------------------------------------------------------------------------
// Proptest: random affine nests × random machine configs
// ---------------------------------------------------------------------------

/// Parameters of one generated affine statement.
#[derive(Debug, Clone)]
struct GenStmt {
    /// Reduce instead of assign.
    reduce: bool,
    /// `(coeff on the innermost var, offset)` per read, innermost-affine.
    reads: Vec<(i64, i64)>,
    /// Row skew of an extra 2-D read along the outer var (2-level nests
    /// only) — exercises outer-variable coefficients in the address form.
    outer_skew: i64,
}

/// Parameters of one generated program.
#[derive(Debug, Clone)]
struct GenProgram {
    /// Trip counts: 1-level `[n]` or 2-level `[outer, inner]`.
    trips: Vec<usize>,
    stmts: Vec<GenStmt>,
    /// Append a second nest re-reading the first nest's outputs.
    chain: bool,
}

const MAX_COEFF: i64 = 3;
const OFF_PAD: i64 = 12; // offsets are generated in -OFF_PAD..=OFF_PAD

fn stmt_strategy() -> impl Strategy<Value = GenStmt> {
    (
        proptest::bool::ANY,
        proptest::collection::vec((1i64..=MAX_COEFF, -OFF_PAD..=OFF_PAD), 1..4),
        0i64..3,
    )
        .prop_map(|(reduce, reads, outer_skew)| GenStmt {
            reduce,
            reads,
            outer_skew,
        })
}

fn program_strategy() -> impl Strategy<Value = GenProgram> {
    (
        prop_oneof![
            (2usize..60).prop_map(|n| vec![n]),
            ((2usize..12), (2usize..24)).prop_map(|(a, b)| vec![a, b]),
        ],
        proptest::collection::vec(stmt_strategy(), 1..4),
        proptest::bool::ANY,
    )
        .prop_map(|(trips, stmts, chain)| GenProgram {
            trips,
            stmts,
            chain,
        })
}

/// Materialize a generated spec into a valid single-assignment program:
/// every statement writes its own output array at the identity subscript
/// (so no double writes), and read arrays are padded so every generated
/// subscript stays in bounds.
fn build_program(spec: &GenProgram) -> Program {
    let mut b = ProgramBuilder::new("gen");
    let depth = spec.trips.len();
    let inner = spec.trips[depth - 1];
    let outer = if depth == 2 { spec.trips[0] } else { 1 };

    // Shared inputs large enough for any (coeff, offset) pair.
    let read_len = (MAX_COEFF * (inner as i64 - 1) + 2 * OFF_PAD + 1) as usize;
    let y = b.input("Y", &[read_len], InitPattern::Wavy);
    let y2 = b.input("Y2", &[outer + 3, inner], InitPattern::Harmonic);

    let mut outputs = Vec::new();
    for (si, stmt) in spec.stmts.iter().enumerate() {
        let mk_value = |nb: &sapp::ir::builder::NestBuilder| {
            let mut value: Option<sapp::ir::Expr> = None;
            for &(c, off) in &stmt.reads {
                // Shift by OFF_PAD so the smallest generated index is 0.
                let idx = iv(depth - 1).scale(c).plus(off + OFF_PAD);
                let read = nb.read(y, [idx]);
                value = Some(match value {
                    None => read,
                    Some(v) => v + read,
                });
            }
            let mut value = value.expect("at least one read");
            if depth == 2 {
                // Outer-variable coefficient in the address form.
                value = value + nb.read(y2, [iv(0).plus(stmt.outer_skew), iv(1)]);
            }
            value
        };
        if stmt.reduce {
            let s = b.scalar(format!("s{si}"));
            b.nest(format!("n{si}"), &bounds(outer, inner, depth), |nb| {
                nb.reduce(s, ReduceOp::Sum, mk_value(nb));
            });
        } else {
            let dims: Vec<usize> = if depth == 2 {
                vec![outer, inner]
            } else {
                vec![inner]
            };
            let x = b.output(format!("X{si}"), &dims);
            outputs.push((x, dims));
            b.nest(format!("n{si}"), &bounds(outer, inner, depth), |nb| {
                if depth == 2 {
                    nb.assign(x, [iv(0), iv(1)], mk_value(nb));
                } else {
                    nb.assign(x, [iv(0)], mk_value(nb));
                }
            });
        }
    }

    if spec.chain {
        // A follow-up nest reading the produced arrays (matched subscripts
        // — always defined), exercising cross-nest cache state.
        for (ci, (x, dims)) in outputs.iter().enumerate() {
            let z = b.output(format!("Z{ci}"), dims);
            if depth == 2 {
                let (o, i) = (dims[0], dims[1]);
                b.nest(format!("c{ci}"), &bounds(o, i, 2), |nb| {
                    nb.assign(z, [iv(0), iv(1)], nb.read(*x, [iv(0), iv(1)]) * 2.0);
                });
            } else {
                b.nest(format!("c{ci}"), &bounds(1, dims[0], 1), |nb| {
                    nb.assign(z, [iv(0)], nb.read(*x, [iv(0)]) * 2.0);
                });
            }
        }
    }
    b.finish()
}

fn bounds(outer: usize, inner: usize, depth: usize) -> Vec<(&'static str, i64, i64)> {
    if depth == 2 {
        vec![("i", 0, outer as i64 - 1), ("j", 0, inner as i64 - 1)]
    } else {
        vec![("k", 0, inner as i64 - 1)]
    }
}

fn config_strategy() -> impl Strategy<Value = MachineConfig> {
    (
        (
            1usize..17,
            proptest::sample::select(vec![4usize, 8, 16, 32, 64]),
            proptest::sample::select(vec![0usize, 32, 64, 256]),
        ),
        (
            prop_oneof![
                Just(PartitionScheme::Modulo),
                Just(PartitionScheme::Block),
                (1usize..4).prop_map(|b| PartitionScheme::BlockCyclic { block_pages: b }),
                Just(PartitionScheme::RowBand),
                ((1usize..9), (1usize..9)).prop_map(|(tile_rows, tile_cols)| {
                    PartitionScheme::Tile2D {
                        tile_rows,
                        tile_cols,
                    }
                }),
            ],
            prop_oneof![
                Just(CachePolicy::Lru),
                Just(CachePolicy::Fifo),
                (1u64..1000).prop_map(|seed| CachePolicy::Random { seed }),
            ],
            proptest::sample::select(vec![
                NetworkTopology::Ideal,
                NetworkTopology::Crossbar,
                NetworkTopology::Bus,
                NetworkTopology::Ring,
                NetworkTopology::Mesh2D,
                NetworkTopology::Torus2D,
                NetworkTopology::Hypercube,
            ]),
        ),
    )
        .prop_map(|((n_pes, ps, cache), (scheme, policy, net))| {
            MachineConfig::new(n_pes, ps)
                .with_cache_elems(cache)
                .with_partition(scheme)
                .with_cache_policy(policy)
                .with_network(net)
        })
}

proptest! {
    /// Replay ≡ interpreter on random affine programs × random machines.
    #[test]
    fn random_affine_nests_bit_identical(
        spec in program_strategy(),
        cfg in config_strategy(),
    ) {
        let program = build_program(&spec);
        let sim = simulate(&program, &cfg)
            .map_err(proptest::test_runner::TestCaseError::fail)?;
        let rep = replay::counts(&program, &cfg)
            .map_err(proptest::test_runner::TestCaseError::fail)?;
        prop_assert_eq!(&rep.stats, &sim.stats, "spec {:?} cfg {:?}", &spec, &cfg);
        prop_assert_eq!(&rep.per_nest, &sim.per_nest);
        prop_assert_eq!(rep.network_messages, sim.network_messages);
        prop_assert_eq!(rep.network_hops, sim.network_hops);
        prop_assert_eq!(rep.max_link_load, sim.max_link_load);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Replay ≡ interpreter on *fold-dense* programs (`common`):
    /// cache-less machines whose placement period is a few elements, so
    /// replay walks one stretch of each translation class and multiplies —
    /// every counter, every nest, every message, hop and link load must
    /// come out as if it had walked them all.
    #[test]
    fn fold_dense_nests_bit_identical(
        spec in common::dense_program_strategy(),
        cfg in common::dense_config_strategy(),
    ) {
        let program = common::build_dense(&spec);
        let sim = simulate(&program, &cfg)
            .map_err(proptest::test_runner::TestCaseError::fail)?;
        let rep = replay::counts(&program, &cfg)
            .map_err(proptest::test_runner::TestCaseError::fail)?;
        prop_assert_eq!(&rep.stats, &sim.stats, "spec {:?} cfg {:?}", &spec, &cfg);
        prop_assert_eq!(&rep.per_nest, &sim.per_nest);
        prop_assert_eq!(rep.network_messages, sim.network_messages);
        prop_assert_eq!(rep.network_hops, sim.network_hops);
        prop_assert_eq!(rep.max_link_load, sim.max_link_load);
    }

    /// The cached twin: the same programs under caches of 0 (less than one
    /// page), 1–8 and 32 pages and every replacement policy, where replay
    /// walks chains of consecutive translates until a PE's cache repeats
    /// itself and multiplies the rest — hits included.
    #[test]
    fn fold_dense_nests_bit_identical_under_a_cache(
        spec in common::dense_program_strategy(),
        cfg in common::dense_cached_config_strategy(),
    ) {
        let program = common::build_dense(&spec);
        let sim = simulate(&program, &cfg)
            .map_err(proptest::test_runner::TestCaseError::fail)?;
        let rep = replay::counts(&program, &cfg)
            .map_err(proptest::test_runner::TestCaseError::fail)?;
        prop_assert_eq!(&rep.stats, &sim.stats, "spec {:?} cfg {:?}", &spec, &cfg);
        prop_assert_eq!(&rep.per_nest, &sim.per_nest);
        prop_assert_eq!(rep.network_messages, sim.network_messages);
        prop_assert_eq!(rep.network_hops, sim.network_hops);
        prop_assert_eq!(rep.max_link_load, sim.max_link_load);
    }

    /// Capped replay is exact on fold-dense programs, with and without a
    /// cache: folded and chained stretches stop at the cap like walked
    /// ones.
    #[test]
    fn capped_replay_is_exact_on_fold_dense_nests(
        spec in common::dense_program_strategy(),
        cfg in common::dense_config_strategy(),
        cached in common::dense_cached_config_strategy(),
    ) {
        let program = common::build_dense(&spec);
        assert_capped_exact(&format!("{spec:?} @ {cfg:?}"), &program, &cfg);
        assert_capped_exact(&format!("{spec:?} @ {cached:?}"), &program, &cached);
    }
}

// ---------------------------------------------------------------------------
// The steady state under a cache, on the shapes it must get right
// ---------------------------------------------------------------------------

/// `Y` read at `(row, col)` offsets around the identity over a `rows × cols`
/// interior, into `X`: a stencil whose sweeps are one row each.
fn grid(rows: usize, cols: usize, taps: &[(i64, i64)]) -> Program {
    let mut b = ProgramBuilder::new("grid");
    let y = b.input("Y", &[rows + 2, cols + 2], InitPattern::Wavy);
    let x = b.output("X", &[rows + 2, cols + 2]);
    let loops = [("i", 1, rows as i64), ("j", 1, cols as i64)];
    b.nest("grid", &loops, |nb| {
        let reads = taps
            .iter()
            .map(|&(di, dj)| nb.read(y, [iv(0).plus(di), iv(1).plus(dj)]));
        let value = reads.reduce(|a, r| a + r).expect("a tap");
        nb.assign(x, [iv(0), iv(1)], value);
    });
    b.finish()
}

/// The programs a cached replay's steady state must count exactly, by
/// name.
fn steady_state_shapes() -> Vec<(&'static str, Program)> {
    let five = [(0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)];
    let mut shapes = vec![
        // Rows of 256 and of 252 elements: a whole number of periods apart
        // for most machines (one sweep per member), or not (several) — and
        // long enough for blocks inside each row.
        ("aligned rows", grid(24, 254, &five)),
        ("unaligned rows", grid(40, 250, &five)),
    ];

    // K18's `k18-75` after `k18-72`: the second nest reads only what its PE
    // owns, while the cache still holds pages of the same arrays from the
    // first. (It would never repeat itself if φ moved arrays it did not
    // probe.)
    let n = 300;
    let mut b = ProgramBuilder::new("local after remote");
    let y = b.input("Y", &[n + 40], InitPattern::Wavy);
    let (x, z) = (b.output("X", &[n]), b.output("Z", &[n + 40]));
    b.nest("remote", &[("k", 0, n as i64 - 1)], |nb| {
        nb.assign(
            x,
            [iv(0)],
            nb.read(y, [iv(0).plus(7)]) + nb.read(y, [iv(0).plus(37)]),
        );
    });
    b.nest("local", &[("k", 0, n as i64 - 1)], |nb| {
        nb.assign(z, [iv(0)], nb.read(y, [iv(0)]));
    });
    shapes.push(("local after remote", b.finish()));

    // One array read along and across: two shifts per sweep and per trip.
    let mut b = ProgramBuilder::new("transposed");
    let y = b.input("Y", &[24, 24], InitPattern::Wavy);
    let x = b.output("X", &[24, 24]);
    b.nest("transposed", &[("i", 0, 23), ("j", 0, 23)], |nb| {
        nb.assign(
            x,
            [iv(0), iv(1)],
            nb.read(y, [iv(0), iv(1)]) + nb.read(y, [iv(1), iv(0)]),
        );
    });
    shapes.push(("transposed", b.finish()));

    // A read that stays put beside one of the same array that moves.
    let mut b = ProgramBuilder::new("pinned");
    let y = b.input("Y", &[20, 160], InitPattern::Wavy);
    let x = b.output("X", &[20, 160]);
    b.nest("pinned", &[("i", 0, 19), ("j", 0, 159)], |nb| {
        nb.assign(
            x,
            [iv(0), iv(1)],
            nb.read(y, [iv(0), iv(1)]) + nb.read(y, [0.into(), iv(1)]),
        );
    });
    shapes.push(("step-0 beside moving", b.finish()));

    // Two far-apart remote reads per stretch into a big cache: it fills
    // for many members before it can repeat itself.
    let n = 4000;
    let mut b = ProgramBuilder::new("slow fill");
    let y = b.input("Y", &[n + 700], InitPattern::Wavy);
    let x = b.output("X", &[n]);
    b.nest("slow", &[("k", 0, n as i64 - 1)], |nb| {
        nb.assign(
            x,
            [iv(0)],
            nb.read(y, [iv(0).plus(301)]) + nb.read(y, [iv(0).plus(677)]),
        );
    });
    shapes.push(("slow fill", b.finish()));

    // A re-initialization between two nests over the same arrays.
    let mut b = ProgramBuilder::new("reinit");
    let y = b.input("Y", &[30, 40], InitPattern::Wavy);
    let x = b.output("X", &[30, 40]);
    for label in ["before", "after"] {
        if label == "after" {
            b.reinit(x);
        }
        b.nest(label, &[("i", 1, 28), ("j", 0, 39)], |nb| {
            nb.assign(
                x,
                [iv(0), iv(1)],
                nb.read(y, [iv(0).plus(1), iv(1)]) + nb.read(y, [iv(0).plus(-1), iv(1)]),
            );
        });
    }
    shapes.push(("reinit", b.finish()));
    shapes
}

#[test]
fn the_steady_state_under_a_cache_counts_like_the_interpreter() {
    let shapes = steady_state_shapes();
    let mut points = Vec::new();
    for s in 0..shapes.len() {
        for n_pes in [3usize, 4] {
            for page in [2usize, 4] {
                for pages in [1usize, 3, 8, 40] {
                    for policy in [
                        CachePolicy::Lru,
                        CachePolicy::Fifo,
                        CachePolicy::Random { seed: 5 },
                    ] {
                        for scheme in [
                            PartitionScheme::Modulo,
                            PartitionScheme::BlockCyclic { block_pages: 2 },
                        ] {
                            let cfg = MachineConfig::new(n_pes, page)
                                .with_cache_elems(pages * page)
                                .with_cache_policy(policy)
                                .with_partition(scheme)
                                .with_network(NetworkTopology::Ring);
                            points.push((s, cfg));
                        }
                    }
                }
            }
        }
    }
    par_map(&points, |(s, cfg)| {
        let (name, program) = &shapes[*s];
        assert_identical(&format!("{name} @ {cfg:?}"), program, cfg);
        Ok::<_, std::convert::Infallible>(())
    })
    .unwrap();
}

// ---------------------------------------------------------------------------
// Proptest: random multi-dim stencils and random CSR structures
// ---------------------------------------------------------------------------

/// A random halo-shrinking stencil: `sweeps` cross-shaped sweeps of halo
/// width `halo` over a random 2-D/3-D grid. Each sweep writes a fresh array
/// over an interior shrunk by one halo (so no boundary nests are needed and
/// the program is valid single-assignment for *any* dims — undersized grids
/// simply produce empty nests, which replay must also count correctly).
#[derive(Debug, Clone)]
struct GenStencil {
    dims: Vec<usize>,
    halo: i64,
    sweeps: usize,
}

fn stencil_spec_strategy() -> impl Strategy<Value = GenStencil> {
    (
        1i64..4,
        1usize..3,
        proptest::collection::vec(0usize..12, 2..4),
    )
        .prop_map(|(halo, sweeps, slack)| GenStencil {
            // Extents start at the smallest grid with a non-empty first
            // sweep (2·halo + 1) and vary upward from there.
            dims: slack.iter().map(|&s| (2 * halo + 1) as usize + s).collect(),
            halo,
            sweeps,
        })
}

fn build_halo_stencil(spec: &GenStencil) -> Program {
    let rank = spec.dims.len();
    let names = ["i", "j", "k"];
    let mut b = ProgramBuilder::new("halo");
    let mut src = b.input("U", &spec.dims, InitPattern::Wavy);
    for s in 0..spec.sweeps {
        let dst = b.output(format!("W{s}"), &spec.dims);
        let m = (s as i64 + 1) * spec.halo;
        let loops: Vec<(&str, i64, i64)> = spec
            .dims
            .iter()
            .enumerate()
            .map(|(d, &e)| (names[d], m, e as i64 - 1 - m))
            .collect();
        b.nest(format!("halo{s}"), &loops, |nb| {
            let mut value = nb.read_off(src, &vec![0i64; rank]);
            for d in 0..rank {
                for o in 1..=spec.halo {
                    for signed in [o, -o] {
                        let mut off = vec![0i64; rank];
                        off[d] = signed;
                        value = value + nb.read_off(src, &off) * 0.125;
                    }
                }
            }
            nb.assign_off(dst, &vec![0i64; rank], value);
        });
        src = dst;
    }
    b.finish()
}

proptest! {
    /// Replay ≡ interpreter on random grid dims × halo widths × machines.
    #[test]
    fn random_halo_stencils_bit_identical(
        spec in stencil_spec_strategy(),
        cfg in config_strategy(),
    ) {
        let program = build_halo_stencil(&spec);
        let sim = simulate(&program, &cfg)
            .map_err(proptest::test_runner::TestCaseError::fail)?;
        let rep = replay::counts(&program, &cfg)
            .map_err(proptest::test_runner::TestCaseError::fail)?;
        prop_assert_eq!(&rep.stats, &sim.stats, "spec {:?} cfg {:?}", &spec, &cfg);
        prop_assert_eq!(&rep.per_nest, &sim.per_nest);
        prop_assert_eq!(rep.network_messages, sim.network_messages);
        prop_assert_eq!(rep.network_hops, sim.network_hops);
        prop_assert_eq!(rep.max_link_load, sim.max_link_load);
    }

    /// Replay ≡ interpreter on random valid CSR structures: row_ptr is
    /// monotone by construction (Linear with step `deg`) and col_idx is
    /// in-bounds by construction (a permutation reduced modulo `cols`) —
    /// the representable CSR family, randomized over shape and content.
    #[test]
    fn random_csr_structures_bit_identical(
        rows in 2usize..48,
        cols in 2usize..64,
        deg in 1usize..6,
        seed in 0u64..1_000_000_000,
        cfg in config_strategy(),
    ) {
        let k = sapp::loops::spmv::build_csr_seeded(rows, cols, deg, seed);
        let sim = simulate(&k.program, &cfg)
            .map_err(proptest::test_runner::TestCaseError::fail)?;
        let rep = replay::counts(&k.program, &cfg)
            .map_err(proptest::test_runner::TestCaseError::fail)?;
        prop_assert_eq!(&rep.stats, &sim.stats, "{}x{} d{} seed {} cfg {:?}",
            rows, cols, deg, seed, &cfg);
        prop_assert_eq!(&rep.per_nest, &sim.per_nest);
        prop_assert_eq!(rep.network_messages, sim.network_messages);
        prop_assert_eq!(rep.network_hops, sim.network_hops);
        prop_assert_eq!(rep.max_link_load, sim.max_link_load);
    }
}
