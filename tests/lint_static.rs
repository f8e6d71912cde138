//! Certification of the `sa-lint` static passes against the executing
//! engines:
//!
//! 1. **Cache-less counts ≡ simulator** — on every registry workload,
//!    gathers included, replay's cache-less counts (`sapp::lint::estimate`
//!    is a shim over them) are bit-identical (per-PE and per-nest
//!    counters, messages, hops, link load) to the counting interpreter,
//!    across partition schemes × page sizes × PE counts.
//! 2. **Verifier soundness on the registry** — `sapp lint` reports zero
//!    error-severity diagnostics on the stock registry (which every
//!    executor accepts), and flags seeded double-write and
//!    dangling-deferral mutants that the executors trap at run time.
//! 3. **Deadlock pass ≡ thread runtime** — the stock registry proves
//!    deadlock-free (SA008 clean) wherever the instance graph is statically
//!    buildable, a seeded cyclic-deferral mutant is rejected with SA008 and
//!    really fails on the thread runtime, a cross-PE cyclic exchange is
//!    SA008 statically and a typed deadlock — not a hang — at run time,
//!    and every wait the runtime
//!    *realizes* on the reduced suite is covered by the static dependence
//!    graph ([`sapp::lint::DepGraph::covers_wait`]).
//! 4. **Pruned search ≡ exhaustive search** — the `Searcher`'s static
//!    dependence-bound pruning returns bit-identical winners to the
//!    exhaustive parallel sweep on every registry workload, with the
//!    pruned fraction logged.
//! 5. **Profile projection ≡ instance enumerator ≡ simulator** — the
//!    pruning bound's `profile::project` (an anchor profile priced under
//!    one placement) returns what enumerating every statement instance
//!    returns, on the whole registry at reduced and official sizes across
//!    all five scheme families, its per-PE writes are the simulator's, and
//!    one profile priced under every scheme of the default search space is
//!    the per-placement projection of each.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

mod common;

use sapp::core::parallel::par_map;
use sapp::core::replay::counts;
use sapp::core::search::{search_exhaustive_with, Objective, SearchSpace};
use sapp::core::{
    simulate, CountEngine, CountReport, Engine, FastCountingOracle, Searcher, StrategyParams,
};
use sapp::ir::index::iv;
use sapp::ir::{AffineIndex, ArrayId, InitPattern, ProgramBuilder};
use sapp::lint::profile::{first_indirect_ref, project, project_by_instance, AnchorProfile};
use sapp::lint::{self, Code, DepGraph, LintConfig, Severity};
use sapp::loops::suite::Family;
use sapp::loops::{reduced_suite, workloads};
use sapp::machine::{MachineConfig, PartitionScheme};
use sapp::runtime::{execute, execute_on, RuntimeConfig, RuntimeError};

/// The certification grid: schemes × page sizes × PE counts, no cache.
fn grid() -> Vec<MachineConfig> {
    let mut out = Vec::new();
    for scheme in [
        PartitionScheme::Modulo,
        PartitionScheme::Block,
        PartitionScheme::BlockCyclic { block_pages: 2 },
    ] {
        for &page in &[8usize, 32, 256] {
            for &pes in &[1usize, 4, 16] {
                out.push(
                    MachineConfig::new(pes, page)
                        .with_cache_elems(0)
                        .with_partition(scheme),
                );
            }
        }
    }
    out
}

/// `report` as the interpreter's would read: the same counts, the engine
/// tag aside.
fn as_interp(report: CountReport) -> CountReport {
    CountReport {
        engine: CountEngine::Interp,
        ..report
    }
}

#[test]
fn estimator_is_bit_identical_to_the_simulator_on_the_registry() {
    let (mut affine, mut indirect) = (0usize, 0usize);
    for k in reduced_suite() {
        match first_indirect_ref(&k.program) {
            Some(_) => indirect += 1,
            None => affine += 1,
        }
        for cfg in grid() {
            let rep = counts(&k.program, &cfg)
                .unwrap_or_else(|e| panic!("{} @ {cfg:?}: replay declined: {e}", k.code));
            let sim = simulate(&k.program, &cfg)
                .unwrap_or_else(|e| panic!("{}: simulator failed: {e}", k.code));
            assert_eq!(
                as_interp(rep),
                CountReport::from_sim(&sim),
                "{} @ {cfg:?}: counts diverge",
                k.code
            );
        }
    }
    // The registry must exercise both kinds, or this test is vacuous.
    assert!(affine > 0, "no affine workload was certified");
    assert!(indirect > 0, "no gathering workload was certified");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Closed-form projection ≡ instance enumerator ≡ simulator on
    /// *fold-dense* programs (`common`, the generator `replay_vs_interp.rs`
    /// counts them with, in `fold_dense_nests_bit_identical`): placement
    /// periods of a few elements, so the projection walks one stretch of
    /// each translation class and multiplies.
    #[test]
    fn fold_dense_nests_project_like_the_instance_enumerator(
        spec in common::dense_program_strategy(),
        cfg in common::dense_config_strategy(),
    ) {
        let program = common::build_dense(&spec);
        let sim = simulate(&program, &cfg).map_err(TestCaseError::fail)?;
        let shape = LintConfig {
            n_pes: cfg.n_pes,
            page_size: cfg.page_size,
            scheme: cfg.partition,
        };
        let projected = project(&program, &shape);
        prop_assert_eq!(&projected, &project_by_instance(&program, &shape));
        prop_assert_eq!(projected.map(|p| p.writes_per_pe), Ok(sim.stats.writes_per_pe()));
    }
}

#[test]
fn zero_depth_nest_is_one_instance() {
    // `one` has no loops: its body runs exactly once, reading Y[17] (page
    // 1 → PE 1) into X[64] (page 4 → PE 0) — one more write and the only
    // remote read.
    let mut b = ProgramBuilder::new("zero-depth");
    let y = b.input("Y", &[64], InitPattern::Wavy);
    let x = b.output("X", &[65]);
    b.nest("fill", &[("k", 0, 63)], |nb| {
        let rhs = nb.read(y, [iv(0)]);
        nb.assign(x, [iv(0)], rhs);
    });
    b.nest("one", &[], |nb| {
        let rhs = nb.read(y, [AffineIndex::constant(17)]);
        nb.assign(x, [AffineIndex::constant(64)], rhs);
    });
    let prog = b.finish();
    let cfg = MachineConfig::new(4, 16).with_cache_elems(0);
    let sim = simulate(&prog, &cfg).unwrap();
    assert_eq!((sim.stats.writes(), sim.stats.remote_reads()), (65, 1));
    assert_eq!(
        as_interp(counts(&prog, &cfg).unwrap()),
        CountReport::from_sim(&sim)
    );
    let lint_cfg = LintConfig {
        n_pes: 4,
        page_size: 16,
        scheme: PartitionScheme::Modulo,
    };
    let proj = project(&prog, &lint_cfg).unwrap();
    assert_eq!(proj.writes_per_pe, sim.stats.writes_per_pe());
    assert_eq!(Ok(proj), project_by_instance(&prog, &lint_cfg));
}

#[test]
fn closed_form_projection_matches_the_instance_enumerator_and_the_simulator() {
    let schemes = [
        PartitionScheme::Modulo,
        PartitionScheme::Block,
        PartitionScheme::BlockCyclic { block_pages: 2 },
        PartitionScheme::BlockCyclic { block_pages: 4 },
        PartitionScheme::RowBand,
        PartitionScheme::Tile2D {
            tile_rows: 16,
            tile_cols: 16,
        },
        PartitionScheme::Tile2D {
            tile_rows: 64,
            tile_cols: 64,
        },
        PartitionScheme::Tile2D {
            tile_rows: 3,
            tile_cols: 5,
        },
    ];
    let mut grid = Vec::new();
    for scheme in schemes {
        for page_size in [1usize, 8, 32, 256] {
            for n_pes in [1usize, 3, 4, 16, 64] {
                grid.push(LintConfig {
                    n_pes,
                    page_size,
                    scheme,
                });
            }
        }
    }
    let checked = par_map(&workloads(), |w| {
        // Reduced sizes also go through the simulator. In a debug build
        // the official sizes of the scale family (10⁵–10⁶ instances, 160
        // configs each) are left to the release run CI makes of this file.
        let mut sized = vec![(w.reduced(), true)];
        if !(cfg!(debug_assertions) && w.family == Family::Scale) {
            sized.push((w.official(), false));
        }
        let (mut closed_forms, mut simulated) = (0usize, 0usize);
        for (k, reduced) in &sized {
            for cfg in &grid {
                let proj = project(&k.program, cfg);
                assert_eq!(
                    proj,
                    project_by_instance(&k.program, cfg),
                    "{} @ {cfg:?}",
                    k.code
                );
                let Ok(proj) = proj else { continue };
                closed_forms += 1;
                if *reduced {
                    let machine = MachineConfig::new(cfg.n_pes, cfg.page_size)
                        .with_cache_elems(0)
                        .with_partition(cfg.scheme);
                    let sim = simulate(&k.program, &machine)
                        .unwrap_or_else(|e| panic!("{}: simulator failed: {e}", k.code));
                    assert_eq!(
                        proj.writes_per_pe,
                        sim.stats.writes_per_pe(),
                        "{} @ {cfg:?}: projected writes are not the simulator's",
                        k.code
                    );
                    simulated += 1;
                }
            }
        }
        Ok::<_, std::convert::Infallible>((closed_forms, simulated))
    })
    .unwrap_or_else(|e| match e {});
    let (closed_forms, simulated) = checked
        .iter()
        .fold((0, 0), |acc, c| (acc.0 + c.0, acc.1 + c.1));
    assert!(simulated >= 10 * grid.len(), "only {simulated} simulated");
    println!("projection: {closed_forms} configs agree with the enumerator, {simulated} with the simulator");
}

/// One anchor profile per page size of the default search space, priced
/// under each of its schemes at several PE counts, is what enumerating
/// every instance gives and what projecting each placement on its own
/// gives — on every registry kernel, gathers included, at reduced and
/// official sizes.
#[test]
fn anchor_profiles_price_the_default_space_like_the_instance_enumerator() {
    let space = SearchSpace::default();
    let priced = par_map(&workloads(), |w| {
        let mut sized = vec![w.reduced()];
        if !(cfg!(debug_assertions) && w.family == Family::Scale) {
            sized.push(w.official());
        }
        let mut priced = 0usize;
        for k in &sized {
            for &page_size in &space.page_sizes {
                let profile = AnchorProfile::new(&k.program, page_size);
                for &scheme in &space.schemes {
                    for n_pes in [1usize, 7, 16, 64] {
                        let cfg = LintConfig {
                            n_pes,
                            page_size,
                            scheme,
                        };
                        let got = profile.project(scheme, n_pes);
                        assert_eq!(got, project(&k.program, &cfg), "{} @ {cfg:?}", k.code);
                        let want = project_by_instance(&k.program, &cfg);
                        assert_eq!(got, want, "{} @ {cfg:?}", k.code);
                        priced += usize::from(got.is_ok());
                    }
                }
            }
        }
        Ok::<_, std::convert::Infallible>(priced)
    })
    .unwrap_or_else(|e| match e {});
    let priced: usize = priced.iter().sum();
    assert!(priced >= workloads().len() * 168, "only {priced} priced");
}

#[test]
fn stock_registry_lints_clean_of_errors() {
    for k in reduced_suite() {
        let diags = lint::lint_program(&k.program, &LintConfig::default());
        let errors: Vec<_> = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(
            errors.is_empty(),
            "{}: stock kernel has error diagnostics: {errors:?}",
            k.code
        );
    }
}

#[test]
fn seeded_double_write_is_rejected_with_sa001() {
    // K1-shaped kernel with a second statement recomputing the same cell —
    // the classic violation the paper's single-assignment rule forbids.
    let n = 64;
    let mut b = ProgramBuilder::new("mutant-double");
    let y = b.input("Y", &[n], InitPattern::Wavy);
    let x = b.output("X", &[n]);
    b.nest("dup", &[("k", 0, n as i64 - 1)], |nb| {
        let rhs = nb.read(y, [iv(0)]);
        nb.assign(x, [iv(0)], rhs);
        let rhs2 = nb.read(y, [iv(0)]);
        nb.assign(x, [iv(0)], rhs2);
    });
    let prog = b.finish();
    let diags = lint::lint_program(&prog, &LintConfig::default());
    assert!(
        diags
            .iter()
            .any(|d| d.code == Code::Sa001DoubleWrite && d.severity == Severity::Error),
        "double-write mutant not flagged: {diags:?}"
    );
    // The interpreter traps the same program at run time — the static
    // verdict agrees with the dynamic one.
    let cfg = MachineConfig::new(4, 32).with_cache_elems(0);
    assert!(
        simulate(&prog, &cfg).is_err(),
        "interpreter accepted mutant"
    );
}

#[test]
fn dangling_deferral_is_rejected_with_sa004() {
    // Reads X[k+1] in the second half-open range no statement ever writes:
    // a thread runtime would park the reader forever (dangling I-structure
    // deferral); the lint flags it without executing anything.
    let n = 32;
    let mut b = ProgramBuilder::new("mutant-dangling");
    let x = b.output("X", &[n]);
    let z = b.output("Z", &[n]);
    b.nest("produce-half", &[("k", 0, n as i64 / 2 - 1)], |nb| {
        nb.assign(x, [iv(0)], sapp::ir::Expr::LoopVar(0));
    });
    b.nest("consume-all", &[("k", 0, n as i64 - 1)], |nb| {
        let rhs = nb.read(x, [iv(0)]);
        nb.assign(z, [iv(0)], rhs);
    });
    let prog = b.finish();
    let diags = lint::lint_program(&prog, &LintConfig::default());
    assert!(
        diags
            .iter()
            .any(|d| d.code == Code::Sa004DanglingRead && d.severity == Severity::Error),
        "dangling-deferral mutant not flagged: {diags:?}"
    );
}

#[test]
fn seeded_cyclic_deferral_mutant_is_rejected_with_sa008() {
    // The consumer nest precedes its producer: every PE blocks on its
    // first read of X before any producer instance can run — a guaranteed
    // deadlock on the blocking-PE machine, at any partition. The program
    // is *not* SA004-dangling (X is fully written eventually), so only the
    // wait-graph cycle pass can catch it.
    let n = 32;
    let mut b = ProgramBuilder::new("mutant-cycle");
    let x = b.output("X", &[n]);
    let z = b.output("Z", &[n]);
    b.nest("consume", &[("k", 0, n as i64 - 1)], |nb| {
        let rhs = nb.read(x, [iv(0)]);
        nb.assign(z, [iv(0)], rhs);
    });
    b.nest("produce", &[("k", 0, n as i64 - 1)], |nb| {
        nb.assign(x, [iv(0)], sapp::ir::Expr::LoopVar(0));
    });
    let prog = b.finish();
    let diags = lint::lint_program(&prog, &LintConfig::default());
    assert!(
        diags
            .iter()
            .any(|d| d.code == Code::Sa008DeadlockCycle && d.severity == Severity::Error),
        "cyclic-deferral mutant not flagged with SA008: {diags:?}"
    );
    // The thread runtime agrees: the run tears down instead of completing.
    assert!(
        execute(&prog, &RuntimeConfig::paper(4, 8)).is_err(),
        "thread runtime completed a program the deadlock pass rejects"
    );
}

#[test]
fn cyclic_exchange_gets_sa008_from_lint_and_a_typed_deadlock_from_the_runtime() {
    // W(k) = X(1-k), then X(k) = W(1-k): under (2 PEs, page 1) each PE
    // defers on the other inside the first nest. Neither has finished nor
    // reached a barrier, so no dangling-read rule applies — the run ends
    // only because the worker pool sees that nothing can move any more.
    let mut b = ProgramBuilder::new("mutant-exchange");
    let w = b.output("W", &[2]);
    let x = b.output("X", &[2]);
    b.nest("xch1", &[("k", 0, 1)], |nb| {
        let rhs = nb.read(x, [iv(0).scale(-1).plus(1)]);
        nb.assign(w, [iv(0)], rhs);
    });
    b.nest("xch2", &[("k", 0, 1)], |nb| {
        let rhs = nb.read(w, [iv(0).scale(-1).plus(1)]);
        nb.assign(x, [iv(0)], rhs);
    });
    let prog = b.finish();
    let sa008 = |n_pes, page_size| {
        let cfg = LintConfig {
            n_pes,
            page_size,
            ..LintConfig::default()
        };
        lint::check_deadlock(&prog, &cfg)
            .iter()
            .any(|d| d.code == Code::Sa008DeadlockCycle && d.severity == Severity::Error)
    };
    // The runtime side runs on a helper thread joined through a timeout:
    // a regression fails this test instead of hanging the suite.
    let run = |n_pes: usize, page_size: usize, workers: usize| {
        let (prog, (tx, rx)) = (prog.clone(), std::sync::mpsc::channel());
        std::thread::spawn(move || {
            let cfg = RuntimeConfig {
                cache_elems: 0,
                ..RuntimeConfig::paper(n_pes, page_size)
            };
            let _ = tx.send(execute_on(&prog, &cfg, workers));
        });
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("the thread runtime hangs on a cyclic wait")
            .expect_err("the exchange cannot complete")
    };

    assert!(sa008(2, 1), "lint misses the cross-PE cycle");
    for workers in [1usize, 2] {
        let err = run(2, 1, workers);
        let msg = err.to_string();
        assert!(matches!(err, RuntimeError::Deadlocked(_)), "{msg}");
        for needle in [
            "`W`",
            "`X`[0]",
            "`X`[1]",
            "PE0",
            "PE1",
            "sapp lint",
            "SA008",
        ] {
            assert!(msg.contains(needle), "no {needle:?} in: {msg}");
        }
    }
    // On one PE the same program is still SA008, and the runtime still
    // fails the way it always did: the read is local, no message is ever
    // sent, and the undefined cell is an immediate error.
    assert!(sa008(1, 32), "lint misses the one-PE forward wait");
    let err = run(1, 32, 1);
    let msg = err.to_string();
    assert!(matches!(err, RuntimeError::WorkerPanicked(_)), "{msg}");
    assert!(msg.contains("undefined"), "{msg}");
}

#[test]
fn stock_registry_proves_deadlock_free() {
    // Wherever the instance graph is statically buildable, the wait graph
    // must be acyclic (no SA008 error). Runtime-resolved indirection gets
    // an Info "not statically provable" note, never a spurious error.
    let mut proved = 0usize;
    for k in reduced_suite() {
        for (n_pes, page_size) in [(4usize, 32usize), (16, 8)] {
            let cfg = LintConfig {
                n_pes,
                page_size,
                ..LintConfig::default()
            };
            let diags = lint::check_deadlock(&k.program, &cfg);
            assert!(
                diags.iter().all(|d| d.severity != Severity::Error),
                "{} @ {n_pes} PEs / ps {page_size}: spurious SA008: {diags:?}",
                k.code
            );
            if diags.is_empty() {
                proved += 1;
            }
        }
    }
    assert!(proved > 0, "no workload got a full deadlock-freedom proof");
}

#[test]
fn runtime_wait_edges_fall_inside_the_static_graph() {
    // Release-mode version of the engine's debug assertion, plus a
    // non-vacuity guard: across the reduced suite and a recurrence chain,
    // the thread runtime must *realize* waits, and every one must be
    // covered by a static dependence edge.
    let mut programs: Vec<sapp::ir::Program> =
        reduced_suite().into_iter().map(|k| k.program).collect();
    // K5-shaped chain: X(i) = Z(i)·(Y(i) − X(i−1)) pipelines across page
    // boundaries, so deferrals are guaranteed at several PEs.
    let n = 257usize;
    let mut b = ProgramBuilder::new("chain");
    let y = b.input("Y", &[n], InitPattern::Wavy);
    let zz = b.input("Z", &[n], InitPattern::Harmonic);
    let x = b.array_with(
        "X",
        &[n],
        sapp::ir::program::ArrayInit::Prefix {
            pattern: InitPattern::Const(0.3),
            len: 1,
        },
    );
    b.nest("chain", &[("i", 1, n as i64 - 1)], |nb| {
        nb.assign(
            x,
            [iv(0)],
            nb.read(zz, [iv(0)]) * (nb.read(y, [iv(0)]) - nb.read(x, [iv(0).plus(-1)])),
        );
    });
    programs.push(b.finish());

    let mut observed = 0usize;
    for p in &programs {
        let g = DepGraph::build(p);
        for n_pes in [2usize, 5] {
            let rep = match execute(p, &RuntimeConfig::paper(n_pes, 32)) {
                Ok(rep) => rep,
                Err(RuntimeError::Unsupported(_)) => continue,
                Err(e) => panic!("{}: runtime failed: {e}", p.name),
            };
            for w in &rep.wait_edges {
                observed += 1;
                assert!(
                    g.covers_wait(w.phase, w.stmt, ArrayId(w.array), w.generation as usize),
                    "{}: runtime wait at phase {} stmt {} on array {} gen {} \
                     (addr {}) has no covering static edge",
                    p.name,
                    w.phase,
                    w.stmt,
                    w.array,
                    w.generation,
                    w.addr
                );
            }
        }
    }
    assert!(
        observed > 0,
        "no wait realized — the cross-check is vacuous"
    );
}

#[test]
fn pruned_search_is_bit_identical_to_exhaustive_on_the_registry() {
    let space = SearchSpace::default();
    let total_per_workload = space.schemes.len() * space.page_sizes.len();
    let mut pruned_total = 0usize;
    let mut candidates_total = 0usize;
    for k in reduced_suite() {
        let fast = Searcher::new(
            &space,
            Box::new(FastCountingOracle::with_engine(Engine::Interp)),
            StrategyParams::default(),
        )
        .and_then(|searcher| searcher.search(&k.program))
        .unwrap_or_else(|e| panic!("{}: pruned search failed: {e:?}", k.code))
        .best;
        let slow = search_exhaustive_with(
            &k.program,
            &space,
            &FastCountingOracle::with_engine(Engine::Interp),
            Objective::default(),
        )
        .unwrap_or_else(|e| panic!("{}: exhaustive search failed: {e:?}", k.code));
        assert_eq!(
            fast.scheme, slow.scheme,
            "{}: winner scheme differs",
            k.code
        );
        assert_eq!(
            fast.page_size, slow.page_size,
            "{}: page size differs",
            k.code
        );
        assert_eq!(
            fast.score.to_bits(),
            slow.score.to_bits(),
            "{}: score not bit-identical",
            k.code
        );
        assert_eq!(fast.messages, slow.messages, "{}: messages differ", k.code);
        assert_eq!(
            fast.remote_pct.to_bits(),
            slow.remote_pct.to_bits(),
            "{}: remote pct not bit-identical",
            k.code
        );
        assert_eq!(
            fast.evaluated + fast.pruned,
            total_per_workload,
            "{}: candidates lost",
            k.code
        );
        pruned_total += fast.pruned;
        candidates_total += total_per_workload;
    }
    println!(
        "search pruning: skipped {pruned_total}/{candidates_total} candidate \
         configurations across the reduced registry"
    );
}
