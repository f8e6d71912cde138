//! Real-runtime parity for the **full** Livermore suite (ROADMAP item):
//! every kernel — including the K13/K14 gather/scatter forms whose
//! statement anchors go through index arrays — executes on real worker
//! threads via `ThreadOracle`, with
//!
//! * values matching the sequential reference interpreter, and
//! * access/message counts matching the counting simulator
//!   (`FastCountingOracle`'s interp rung, cross-checked against its auto rung).
//!
//! Count parity is asserted at two levels:
//!
//! * **No cache** — every remote read is a fetch, so counts are independent
//!   of thread interleaving: the runtime must agree with the simulator
//!   *number for number on every kernel*.
//! * **With the paper's cache** — fetch contents depend on how far the
//!   producer got, so exact parity is only well-defined when everything a
//!   PE can fetch is a fully initialized input page. That property is
//!   derived per kernel from the IR (see `cache_exact`), and on that large
//!   subset (all gather/scatter kernels included) the cached counts must
//!   match exactly too; pipelined recurrences are bounded instead.
//!
//! The logical PEs run as tasks on a pool of worker threads; nothing above
//! may depend on how many (`execute_on` pins 1, 2, 3 and one per PE, so a
//! single-core box still runs the cross-worker paths).

use sapp::core::oracle::{Engine, FastCountingOracle, Oracle, OracleError};
use sapp::core::plan::{ExperimentPlan, RunConfig};
use sapp::ir::index::{iv, IndexExpr};
use sapp::ir::nest::{ArrayRef, LoopNest, LoopVar, Stmt};
use sapp::ir::program::{ArrayDecl, ArrayInit, Phase};
use sapp::ir::{analysis, interpret, ArrayId, Expr, Program, ProgramResult};
use sapp::loops::{reduced_suite, suite};
use sapp::runtime::{execute, execute_on, RuntimeConfig, ThreadOracle};

/// Can cached counts be compared exactly? True iff every array a PE might
/// *fetch* (any read whose address function differs from the statement
/// anchor's, every gather/scatter index array, and every read of an
/// indirect-anchored statement) is fully statically initialized and never
/// written or re-initialized — then every shipped page is complete and
/// timing cannot perturb cache state.
fn cache_exact(program: &Program) -> bool {
    let mut mutated = vec![false; program.arrays.len()];
    for phase in &program.phases {
        match phase {
            sapp::ir::program::Phase::Reinit(id) => mutated[id.0] = true,
            sapp::ir::program::Phase::Loop(nest) => {
                for id in nest.written_arrays() {
                    mutated[id.0] = true;
                }
            }
        }
    }
    let frozen_input = |id: sapp::ir::ArrayId| {
        matches!(program.array(id).init, ArrayInit::Full(_)) && !mutated[id.0]
    };
    for nest in program.nests() {
        let nvars = nest.loops.len();
        for stmt in &nest.body {
            let anchor = analysis::anchor_ref(stmt);
            let indirect_anchor = analysis::has_indirect_anchor(stmt);
            let anchor_form = anchor
                .filter(|_| !indirect_anchor)
                .and_then(|a| analysis::linear_address_form(program, a, nvars));
            // Index arrays are read by whoever executes the instance.
            let mut remote_capable: Vec<sapp::ir::ArrayId> = Vec::new();
            if let Some(aref) = anchor {
                for ix in &aref.indices {
                    if let sapp::ir::index::IndexExpr::Indirect { base, .. } = ix {
                        remote_capable.push(*base);
                    }
                }
            }
            for read in stmt.reads() {
                for ix in &read.indices {
                    if let sapp::ir::index::IndexExpr::Indirect { base, .. } = ix {
                        remote_capable.push(*base);
                    }
                }
                let always_local = !indirect_anchor
                    && !read.has_indirection()
                    && match (
                        &anchor_form,
                        analysis::linear_address_form(program, read, nvars),
                    ) {
                        (Some(w), Some(r)) => *w == r,
                        _ => false,
                    };
                if !always_local {
                    remote_capable.push(read.array);
                }
            }
            if let Stmt::Reduce { .. } = stmt {
                // The first read anchors the reduction; identical-form reads
                // are local to it, everything else may travel.
            }
            if !remote_capable.into_iter().all(frozen_input) {
                return false;
            }
        }
    }
    true
}

fn thread_cfg(cache_elems: usize) -> RunConfig {
    RunConfig {
        n_pes: 4,
        page_size: 32,
        cache_elems,
        ..RunConfig::default()
    }
}

fn assert_counts_match(code: &str, sim: &sapp::core::RunRecord, real: &sapp::core::RunRecord) {
    assert_eq!(sim.writes, real.writes, "{code}: writes");
    assert_eq!(sim.total_reads, real.total_reads, "{code}: total reads");
    assert_eq!(sim.local_reads, real.local_reads, "{code}: local reads");
    assert_eq!(sim.cached_reads, real.cached_reads, "{code}: cached reads");
    assert_eq!(sim.remote_reads, real.remote_reads, "{code}: remote reads");
    assert_eq!(sim.messages, real.messages, "{code}: messages");
    assert_eq!(sim.remote_pct, real.remote_pct, "{code}: remote %");
}

#[test]
fn full_suite_counts_match_simulator_without_cache() {
    let cfg = thread_cfg(0);
    for k in reduced_suite() {
        let sim = FastCountingOracle::with_engine(Engine::Interp)
            .measure(&k.program, &cfg)
            .unwrap();
        let fast = FastCountingOracle::default()
            .measure(&k.program, &cfg)
            .unwrap();
        let real = ThreadOracle
            .measure(&k.program, &cfg)
            .unwrap_or_else(|e| panic!("{}: thread oracle failed: {e}", k.code));
        assert_counts_match(k.code, &sim, &real);
        assert_counts_match(k.code, &fast, &real);
        // Locality certification: the workers price their modeled traffic
        // through the same link model the simulator routes with, so hop and
        // link-load figures are real measurements and must agree exactly.
        assert_eq!(real.hops, sim.hops, "{}: hops", k.code);
        assert_eq!(real.max_link_load, sim.max_link_load, "{}", k.code);
    }
}

#[test]
fn full_suite_locality_certifies_on_routed_topologies() {
    // The affine registry under a routed topology × a tiled placement: the
    // thread engine's Some(hops)/Some(max_link_load) must equal the
    // counting simulator's locality accounting event for event.
    for (network, partition) in [
        (
            sapp::machine::NetworkTopology::Mesh2D,
            sapp::machine::PartitionScheme::Modulo,
        ),
        (
            sapp::machine::NetworkTopology::Torus2D,
            sapp::machine::PartitionScheme::Tile2D {
                tile_rows: 8,
                tile_cols: 8,
            },
        ),
        (
            sapp::machine::NetworkTopology::Bus,
            sapp::machine::PartitionScheme::RowBand,
        ),
    ] {
        let cfg = RunConfig {
            network,
            partition,
            ..thread_cfg(0)
        };
        for k in reduced_suite() {
            let sim = FastCountingOracle::with_engine(Engine::Interp)
                .measure(&k.program, &cfg)
                .unwrap();
            let real = ThreadOracle
                .measure(&k.program, &cfg)
                .unwrap_or_else(|e| panic!("{}: thread oracle failed: {e}", k.code));
            assert_counts_match(k.code, &sim, &real);
            assert_eq!(real.hops, sim.hops, "{}: {network:?} hops", k.code);
            assert_eq!(
                real.max_link_load, sim.max_link_load,
                "{}: {network:?} link load",
                k.code
            );
        }
    }
}

#[test]
fn full_suite_cached_counts_match_simulator_on_static_read_kernels() {
    let cfg = thread_cfg(256);
    let mut exact = Vec::new();
    let mut bounded = Vec::new();
    for k in reduced_suite() {
        if cache_exact(&k.program) {
            exact.push(k);
        } else {
            bounded.push(k);
        }
    }
    // The derived exact set must cover the paper's input-only kernels and
    // every gather/scatter form — that is the point of this PR.
    for code in ["K1", "K7", "K12", "K13", "K13S", "K14", "K14S"] {
        assert!(
            exact.iter().any(|k| k.code == code),
            "{code} should be cache-exact"
        );
    }
    // The scale workloads legitimately land in the bounded set: multi-sweep
    // stencils re-read produced grids and SpMV chains its running sum, so
    // fetch timing can perturb cache contents (1-sweep stencils are exact —
    // covered by `one_sweep_stencils_are_cache_exact`).
    for code in ["ST5", "ST9", "ST7", "SPMV", "SPMVD"] {
        assert!(
            bounded.iter().any(|k| k.code == code),
            "{code} should be cache-bounded"
        );
    }
    for k in &exact {
        let sim = FastCountingOracle::with_engine(Engine::Interp)
            .measure(&k.program, &cfg)
            .unwrap();
        let real = ThreadOracle
            .measure(&k.program, &cfg)
            .unwrap_or_else(|e| panic!("{}: thread oracle failed: {e}", k.code));
        assert_counts_match(k.code, &sim, &real);
    }
    // Pipelined recurrences: fetch timing can only add refetches, so the
    // cached runtime lies between the cached and uncached simulator counts.
    for k in &bounded {
        let ideal = FastCountingOracle::with_engine(Engine::Interp)
            .measure(&k.program, &cfg)
            .unwrap();
        let worst = FastCountingOracle::with_engine(Engine::Interp)
            .measure(&k.program, &thread_cfg(0))
            .unwrap();
        let real = ThreadOracle.measure(&k.program, &cfg).unwrap();
        assert_eq!(ideal.writes, real.writes, "{}: writes", k.code);
        assert_eq!(ideal.total_reads, real.total_reads, "{}: reads", k.code);
        assert!(
            real.remote_reads >= ideal.remote_reads
                && real.remote_reads <= worst.remote_reads.max(ideal.remote_reads),
            "{}: runtime {} outside [{}, {}]",
            k.code,
            real.remote_reads,
            ideal.remote_reads,
            worst.remote_reads
        );
    }
}

#[test]
fn full_suite_values_match_reference_on_threads() {
    for k in reduced_suite() {
        let golden = interpret(&k.program).expect("reference runs");
        let rep = execute(&k.program, &RuntimeConfig::paper(4, 32))
            .unwrap_or_else(|e| panic!("{}: {e}", k.code));
        let got = ProgramResult {
            arrays: rep.arrays(),
            scalars: rep.scalars,
            writes: 0,
            reads: 0,
        };
        golden
            .assert_matches(&got, 1e-9)
            .unwrap_or_else(|e| panic!("{}: {e}", k.code));
    }
}

#[test]
fn official_suite_runs_on_thread_oracle() {
    // The registry itself (official sizes) through the oracle: every kernel
    // measures without a panic or an Unsupported error, and the headline
    // counters agree with the simulator.
    let cfg = thread_cfg(0);
    for k in suite() {
        if ["K21", "K6"].contains(&k.code) {
            continue; // heavy at official size in debug; covered reduced above
        }
        let sim = FastCountingOracle::with_engine(Engine::Interp)
            .measure(&k.program, &cfg)
            .unwrap();
        let real = ThreadOracle
            .measure(&k.program, &cfg)
            .unwrap_or_else(|e| panic!("{}: thread oracle failed: {e}", k.code));
        assert_counts_match(k.code, &sim, &real);
    }
}

#[test]
fn one_sweep_stencils_are_cache_exact() {
    // A single sweep reads only the fully initialized input grid, so the
    // static-read analysis must classify it exact — and the cached thread
    // counts must then match the simulator number for number.
    let cfg = thread_cfg(256);
    for k in [
        sapp::loops::stencil::build_jacobi5(18, 14, 1),
        sapp::loops::stencil::build_ninepoint(14, 12, 1),
        sapp::loops::stencil::build_heat7(8, 7, 6, 1),
    ] {
        assert!(cache_exact(&k.program), "{}: should be exact", k.code);
        let sim = FastCountingOracle::with_engine(Engine::Interp)
            .measure(&k.program, &cfg)
            .unwrap();
        let real = ThreadOracle
            .measure(&k.program, &cfg)
            .unwrap_or_else(|e| panic!("{}: {e}", k.code));
        assert_counts_match(k.code, &sim, &real);
    }
}

/// SPMVD with its row permutation copied by a nest of its own first: the
/// result vector scatters through an index array the program produces.
fn spmvd_through_a_produced_permutation() -> Program {
    let mut p = sapp::loops::workload("SPMVD").unwrap().reduced().program;
    let src = p.arrays.iter().position(|d| d.name == "ROWPERM").unwrap();
    let rows = p.arrays[src].dims[0];
    let (src, perm) = (ArrayId(src), ArrayId(p.arrays.len()));
    p.arrays.push(ArrayDecl {
        name: "PERM".into(),
        dims: vec![rows],
        init: ArrayInit::Undefined,
    });
    for phase in &mut p.phases {
        if let Phase::Loop(nest) = phase {
            for stmt in &mut nest.body {
                if let Stmt::Assign { target, .. } = stmt {
                    for ix in &mut target.indices {
                        if let IndexExpr::Indirect { base, .. } = ix {
                            if *base == src {
                                *base = perm;
                            }
                        }
                    }
                }
            }
        }
    }
    let copy = LoopNest {
        label: "copy-perm".into(),
        loops: vec![LoopVar::simple("i", 0, rows as i64 - 1)],
        body: vec![Stmt::Assign {
            target: ArrayRef::new(perm, vec![iv(0).into()]),
            value: Expr::Read(ArrayRef::new(src, vec![iv(0).into()])),
        }],
    };
    p.phases.insert(0, Phase::Loop(copy));
    p
}

#[test]
fn prefix_spmv_resolves_over_indirect_fetch() {
    // SPMVD's result vector scatters through a row permutation an earlier
    // nest produces: no static owner table exists, so the workers must
    // resolve the anchor over IndirectFetch/IndirectReply — with the
    // resolution traffic tallied separately so the modeled counts still
    // match the simulator exactly (the simulator's anchor peek is free).
    let program = spmvd_through_a_produced_permutation();
    let rt = RuntimeConfig {
        cache_elems: 0,
        ..RuntimeConfig::paper(4, 32)
    };
    let rep = execute(&program, &rt).expect("SPMVD runs on threads");
    assert!(
        rep.resolve_messages > 0,
        "anchors through a produced array must resolve over the wire"
    );
    // SPMVD has no reductions and no reinit phases, so the only uncounted
    // wire traffic can be anchor resolution — broadcast/sync tallies must
    // be zero (a miscategorized message would land here).
    assert_eq!(rep.broadcast_messages, 0, "no scalars to broadcast");
    assert_eq!(rep.sync_messages, 0, "no reinit barriers to harden");
    // And the modeled count (wire minus resolution) must equal the
    // simulator's message model exactly — the independent side of the
    // ledger: the simulator never sees resolution traffic at all.
    let cfg = thread_cfg(0);
    let sim = FastCountingOracle::with_engine(Engine::Interp)
        .measure(&program, &cfg)
        .unwrap();
    let real = ThreadOracle.measure(&program, &cfg).unwrap();
    assert_counts_match("SPMVD", &sim, &real);
    assert_eq!(
        rep.modeled_messages(),
        sim.messages,
        "modeled thread messages must match the simulator's model"
    );
}

#[test]
fn stencil_sweeps_through_plans_on_threads() {
    // The same plan, two backends, across PE counts — on the 3-D stencil
    // (multi-dim affine anchors with reinit ping-pong between sweeps).
    let k = sapp::loops::stencil::build_heat7(8, 8, 6, 3);
    let plan = ExperimentPlan::new().base(thread_cfg(0)).pes(&[1, 2, 4, 6]);
    let sim = plan
        .run(&k.program, &FastCountingOracle::with_engine(Engine::Interp))
        .unwrap();
    let real = plan.run(&k.program, &ThreadOracle).unwrap();
    assert_eq!(sim.len(), real.len());
    for (s, r) in sim.records().iter().zip(real.records()) {
        assert_eq!(s.cfg, r.cfg);
        assert_counts_match("ST7", s, r);
    }
}

#[test]
fn scatter_kernels_sweep_through_plans_on_threads() {
    // The same plan, two backends, across PE counts — on a kernel with an
    // indirect statement anchor.
    let k = sapp::loops::k14_pic1d::build_scatter(150);
    let plan = ExperimentPlan::new().base(thread_cfg(0)).pes(&[1, 2, 4, 6]);
    let sim = plan
        .run(&k.program, &FastCountingOracle::with_engine(Engine::Interp))
        .unwrap();
    let real = plan.run(&k.program, &ThreadOracle).unwrap();
    assert_eq!(sim.len(), real.len());
    for (s, r) in sim.records().iter().zip(real.records()) {
        assert_eq!(s.cfg, r.cfg);
        assert_counts_match("K14S", s, r);
    }
}

#[test]
fn genuinely_dynamic_anchors_fail_soft_through_the_oracle() {
    use sapp::ir::{InitPattern, ProgramBuilder};
    // P is produced by the same nest that anchors through it: the one case
    // the protocol cannot order, reported as a typed Unsupported error —
    // not a panic, not a hang.
    let mut b = ProgramBuilder::new("dynamic");
    let y = b.input("Y", &[64], InitPattern::Wavy);
    let p = b.output("P", &[64]);
    let x = b.output("X", &[64]);
    b.nest("bad", &[("k", 0, 63)], |nb| {
        nb.assign(p, [sapp::ir::index::iv(0)], sapp::ir::Expr::LoopVar(0));
        nb.assign_indirect(
            x,
            p,
            sapp::ir::index::iv(0),
            nb.read(y, [sapp::ir::index::iv(0)]),
        );
    });
    let prog = b.finish();
    assert!(matches!(
        ThreadOracle.measure(&prog, &thread_cfg(0)),
        Err(OracleError::Unsupported(_))
    ));
    // The simulator still measures it (omniscient peek), so the grid point
    // is lost only on the thread backend — exactly the soft-failure split.
    assert!(FastCountingOracle::with_engine(Engine::Interp)
        .measure(&prog, &thread_cfg(0))
        .is_ok());
}

#[test]
fn results_and_counts_do_not_depend_on_the_pool_size() {
    // workers ∈ {1, 2, 3, n_pes} × the reduced suite × every placement
    // scheme, on a routed topology so hops and link loads mean something:
    // values equal the reference, uncached counts equal the simulator and
    // the replay engine number for number, cached counts equal the
    // simulator wherever they are well-defined. `execute_on` takes the
    // worker count as given — the machine's parallelism is never read.
    use sapp::machine::{NetworkTopology, PartitionScheme};
    let n_pes = 4;
    for partition in [
        PartitionScheme::Modulo,
        PartitionScheme::Block,
        PartitionScheme::BlockCyclic { block_pages: 2 },
        PartitionScheme::RowBand,
        PartitionScheme::Tile2D {
            tile_rows: 8,
            tile_cols: 8,
        },
    ] {
        for k in reduced_suite() {
            let golden = interpret(&k.program).expect("reference runs");
            let exact = cache_exact(&k.program);
            for cache_elems in [0usize, 256] {
                if cache_elems > 0 && !exact {
                    continue;
                }
                let cfg = RunConfig {
                    partition,
                    network: NetworkTopology::Mesh2D,
                    ..thread_cfg(cache_elems)
                };
                let what = format!("{} {partition:?} cache {cache_elems}", k.code);
                let sim = FastCountingOracle::with_engine(Engine::Interp)
                    .measure(&k.program, &cfg)
                    .unwrap();
                let replay = sapp::core::replay::counts(&k.program, &cfg.machine()).ok();
                let rt = RuntimeConfig::from_machine(&cfg.machine());
                for workers in [1usize, 2, 3, n_pes] {
                    let what = format!("{what} workers {workers}");
                    let rep = execute_on(&k.program, &rt, workers)
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    let s = &rep.stats;
                    assert_eq!(s.writes(), sim.writes, "{what}: writes");
                    assert_eq!(s.local_reads(), sim.local_reads, "{what}: local");
                    assert_eq!(s.cached_reads(), sim.cached_reads, "{what}: cached");
                    assert_eq!(s.remote_reads(), sim.remote_reads, "{what}: remote");
                    assert_eq!(rep.modeled_messages(), sim.messages, "{what}: messages");
                    assert_eq!(rep.hops, sim.hops, "{what}: hops");
                    assert_eq!(rep.max_link_load, sim.max_link_load, "{what}");
                    if let (0, Some(replay)) = (cache_elems, &replay) {
                        assert_eq!(*s, replay.stats, "{what}: replay stats");
                        assert_eq!(rep.modeled_messages(), replay.network_messages);
                        assert_eq!(rep.hops, replay.network_hops, "{what}: replay hops");
                        assert_eq!(rep.max_link_load, replay.max_link_load, "{what}");
                    }
                    let got = ProgramResult {
                        arrays: rep.arrays(),
                        scalars: rep.scalars,
                        writes: 0,
                        reads: 0,
                    };
                    golden
                        .assert_matches(&got, 1e-9)
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                }
            }
        }
    }
}

#[test]
fn a_thousand_pes_count_like_replay() {
    // ST5 256² × 1 sweep on 1024 logical PEs, no cache (seconds on a
    // thread per PE; every PE here walks only the two pages it owns).
    let k = sapp::loops::stencil::build_jacobi5(256, 256, 1);
    let cfg = RunConfig {
        n_pes: 1024,
        ..thread_cfg(0)
    };
    let replay = sapp::core::replay::counts(&k.program, &cfg.machine()).expect("replay runs ST5");
    let rt = RuntimeConfig::from_machine(&cfg.machine());
    for workers in [1usize, 3] {
        let rep = execute_on(&k.program, &rt, workers).expect("1024 PEs run");
        assert_eq!(rep.stats, replay.stats, "workers {workers}");
        assert_eq!(rep.modeled_messages(), replay.network_messages);
        assert_eq!(rep.messages, 265_176);
        assert!(rep.wait_edges.is_empty(), "a sweep over inputs never waits");
    }
}

#[test]
fn fetches_served_in_place_count_like_queued_ones() {
    // On one worker every fetch between two PEs is served by a direct call
    // — a defined cell completes the load inside the evaluation — and on
    // one worker per PE every fetch travels as a request and a reply. The
    // counts, the pricing and the values must not tell the two apart: ST5
    // at 64 PEs over two sweeps (the second fetches the produced `W0`; the
    // first reads only the constant `U0`, which no worker fetches through
    // an owner), K18 with the cache on (each answer inserts a copy of the
    // owner's page), K5 (a recurrence whose fetches wait for their
    // producer).
    let st5 = sapp::loops::stencil::build_jacobi5(256, 256, 2).program;
    let k18 = sapp::loops::workload("K18").unwrap().reduced().program;
    let k5 = sapp::loops::workload("K5").unwrap().reduced().program;
    for (code, program, cfg) in [
        (
            "ST5",
            st5,
            RunConfig {
                n_pes: 64,
                ..thread_cfg(0)
            },
        ),
        ("K18", k18, thread_cfg(256)),
        ("K5", k5, thread_cfg(0)),
    ] {
        let golden = interpret(&program).expect("reference runs");
        let graph = sapp::lint::DepGraph::build(&program);
        let rt = RuntimeConfig::from_machine(&cfg.machine());
        let [one, each] = [1, cfg.n_pes].map(|workers| {
            execute_on(&program, &rt, workers)
                .unwrap_or_else(|e| panic!("{code} on {workers} workers: {e}"))
        });
        assert_eq!(one.stats, each.stats, "{code}: stats");
        assert_eq!(one.messages, each.messages, "{code}: messages");
        assert_eq!(one.modeled_messages(), each.modeled_messages(), "{code}");
        assert_eq!(one.hops, each.hops, "{code}: hops");
        assert_eq!(one.max_link_load, each.max_link_load, "{code}: link load");
        assert_eq!(one.constant_fetches, each.constant_fetches, "{code}");
        assert!(
            one.in_place_fetches > 0,
            "{code}: one worker serves in place"
        );
        assert_eq!(each.in_place_fetches, 0, "{code}: no PE shares a worker");
        for rep in [&one, &each] {
            let got = ProgramResult {
                arrays: rep.arrays(),
                scalars: rep.scalars.clone(),
                writes: 0,
                reads: 0,
            };
            golden
                .assert_matches(&got, 1e-9)
                .unwrap_or_else(|e| panic!("{code}: {e}"));
            for w in &rep.wait_edges {
                assert!(
                    graph.covers_wait(w.phase, w.stmt, ArrayId(w.array), w.generation as usize),
                    "{code}: wait at phase {} stmt {} on array {} has no static edge",
                    w.phase,
                    w.stmt,
                    w.array
                );
            }
        }
    }
}

#[test]
fn constant_arrays_are_read_in_place_and_count_like_fetches() {
    // An array no phase writes or re-initializes, every cell initialized,
    // lives once in the run: its owner reads it locally, and any other PE,
    // on any worker, answers its own fetch from that copy. Such a fetch
    // must count, price and cache exactly like one its owner answered — on
    // one worker, on two, and on one per PE.
    use sapp::machine::NetworkTopology;
    let mut st5_seen = false;
    for k in reduced_suite() {
        let statics = analysis::StaticArrays::scan(&k.program);
        if !(0..k.program.arrays.len()).any(|a| statics.is_total(ArrayId(a))) {
            continue;
        }
        let golden = interpret(&k.program).expect("reference runs");
        for cache_elems in [0usize, 256] {
            let exact = cache_elems == 0 || cache_exact(&k.program);
            let cfg = RunConfig {
                network: NetworkTopology::Mesh2D,
                ..thread_cfg(cache_elems)
            };
            let sim = FastCountingOracle::with_engine(Engine::Interp)
                .measure(&k.program, &cfg)
                .unwrap();
            let rt = RuntimeConfig::from_machine(&cfg.machine());
            let reps = [1usize, 2, cfg.n_pes].map(|workers| {
                let what = format!("{} cache {cache_elems} workers {workers}", k.code);
                let rep =
                    execute_on(&k.program, &rt, workers).unwrap_or_else(|e| panic!("{what}: {e}"));
                let s = &rep.stats;
                assert_eq!(s.writes(), sim.writes, "{what}: writes");
                assert_eq!(s.total_reads(), sim.total_reads, "{what}: reads");
                if exact {
                    assert_eq!(s.local_reads(), sim.local_reads, "{what}: local");
                    assert_eq!(s.cached_reads(), sim.cached_reads, "{what}: cached");
                    assert_eq!(s.remote_reads(), sim.remote_reads, "{what}: remote");
                    assert_eq!(rep.modeled_messages(), sim.messages, "{what}: messages");
                    assert_eq!(rep.hops, sim.hops, "{what}: hops");
                    assert_eq!(rep.max_link_load, sim.max_link_load, "{what}");
                }
                let got = ProgramResult {
                    arrays: rep.arrays(),
                    scalars: rep.scalars.clone(),
                    writes: 0,
                    reads: 0,
                };
                golden
                    .assert_matches(&got, 1e-9)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                rep
            });
            let what = format!("{} cache {cache_elems}", k.code);
            for rep in &reps[1..] {
                assert_eq!(
                    rep.constant_fetches, reps[0].constant_fetches,
                    "{what}: constant fetches"
                );
                if exact {
                    assert_eq!(rep.stats, reps[0].stats, "{what}: stats");
                    assert_eq!(rep.messages, reps[0].messages, "{what}: messages");
                }
            }
            if k.code == "ST5" {
                assert!(reps[0].constant_fetches > 0, "{what}: U0 is fetched");
                st5_seen = true;
            }
        }
    }
    assert!(st5_seen, "ST5 reads its constant grid");
}
