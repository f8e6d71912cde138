//! Real threads vs the counting simulator: values must match the reference
//! exactly; access statistics must correspond (identically for kernels over
//! fully initialized inputs, conservatively for pipelined recurrences where
//! fetch timing shifts partial-page states).

use proptest::prelude::*;

use sapp::core::simulate;
use sapp::ir::index::iv;
use sapp::ir::{interpret, InitPattern, Program, ProgramBuilder, ProgramResult};
use sapp::loops::suite;
use sapp::machine::MachineConfig;
use sapp::runtime::{execute, execute_on, RuntimeConfig};

fn runtime_result(rep: &sapp::runtime::RuntimeReport) -> ProgramResult {
    ProgramResult {
        arrays: rep.arrays(),
        scalars: rep.scalars.clone(),
        writes: 0,
        reads: 0,
    }
}

#[test]
fn threaded_values_match_reference_for_whole_suite() {
    // K21 at full size is heavy for the threaded engine in debug builds;
    // the suite minus the two heaviest kernels runs in seconds.
    for k in suite() {
        if ["K21", "K6"].contains(&k.code) {
            continue; // covered at reduced size below
        }
        let golden = interpret(&k.program).expect("reference");
        let rep = execute(&k.program, &RuntimeConfig::paper(4, 32))
            .unwrap_or_else(|e| panic!("{}: {e}", k.code));
        golden
            .assert_matches(&runtime_result(&rep), 1e-9)
            .unwrap_or_else(|e| panic!("{}: {e}", k.code));
    }
}

#[test]
fn threaded_values_match_for_reduced_random_kernels() {
    for k in [
        sapp::loops::k06_glre::build(24),
        sapp::loops::k21_matmul::build(16),
    ] {
        let golden = interpret(&k.program).expect("reference");
        let rep = execute(&k.program, &RuntimeConfig::paper(4, 16))
            .unwrap_or_else(|e| panic!("{}: {e}", k.code));
        golden
            .assert_matches(&runtime_result(&rep), 1e-9)
            .unwrap_or_else(|e| panic!("{}: {e}", k.code));
    }
}

#[test]
fn stats_match_simulator_exactly_on_input_only_kernels() {
    // K1/K7/K12 read only fully initialized arrays: every fetched page is
    // complete, so thread scheduling cannot perturb the counts — the
    // runtime must agree with the simulator number for number.
    for code in ["K1", "K7", "K12"] {
        let k = suite().into_iter().find(|k| k.code == code).unwrap();
        let cfg = MachineConfig::new(4, 32);
        let sim = simulate(&k.program, &cfg).expect("sim");
        let run = execute(&k.program, &RuntimeConfig::from_machine(&cfg)).expect("runtime");
        assert_eq!(sim.stats.writes(), run.stats.writes(), "{code} writes");
        assert_eq!(
            sim.stats.total_reads(),
            run.stats.total_reads(),
            "{code} reads"
        );
        assert_eq!(
            sim.stats.remote_reads(),
            run.stats.remote_reads(),
            "{code} remote"
        );
        assert_eq!(
            sim.stats.cached_reads(),
            run.stats.cached_reads(),
            "{code} cached"
        );
        assert_eq!(run.messages, 2 * run.stats.page_fetches, "{code} messages");
    }
}

#[test]
fn stats_bound_simulator_on_pipelined_kernels() {
    // Recurrences (K5, K2) fetch pages of *produced* arrays whose fill
    // state depends on timing: the runtime may refetch partially filled
    // pages (§8), so its remote count is ≥ the paper-semantics simulator
    // and ≤ the count with caching disabled.
    for code in ["K5", "K2", "K11"] {
        let k = suite().into_iter().find(|k| k.code == code).unwrap();
        let cfg = MachineConfig::new(4, 32);
        let ideal = simulate(&k.program, &cfg)
            .expect("sim")
            .stats
            .remote_reads();
        let worst = simulate(&k.program, &MachineConfig::new(4, 32).with_cache_elems(0))
            .expect("sim")
            .stats
            .remote_reads();
        let run = execute(&k.program, &RuntimeConfig::from_machine(&cfg)).expect("runtime");
        let got = run.stats.remote_reads();
        assert!(
            got >= ideal && got <= worst.max(ideal),
            "{code}: runtime {got} outside [{ideal}, {worst}]"
        );
        assert_eq!(
            run.stats.total_reads(),
            simulate(&k.program, &cfg).unwrap().stats.total_reads()
        );
    }
}

#[test]
fn thread_count_does_not_change_results() {
    let k = suite().into_iter().find(|k| k.code == "K18").unwrap();
    let golden = interpret(&k.program).expect("reference");
    for n in [1usize, 2, 3, 6, 8] {
        let rep = execute(&k.program, &RuntimeConfig::paper(n, 32)).expect("runtime");
        golden
            .assert_matches(&runtime_result(&rep), 1e-9)
            .unwrap_or_else(|e| panic!("{n} threads: {e}"));
    }
}

/// Regression for the reduction participant sets / executed instances
/// ownership split: the run's plan derives both from the same per-statement
/// screens, so interleaving round-robin-dealt (anchorless) statements with
/// anchored ones in any body order must keep participant sets, values and
/// counts consistent.
#[test]
fn statement_order_perturbation_keeps_prepass_and_execution_in_sync() {
    let n = 160usize;
    // Three bodies with the same statements in different orders. The
    // anchorless reductions advance the round-robin counter *between* the
    // anchored statements, in a different pattern per ordering.
    let build = |order: usize| -> Program {
        let mut b = ProgramBuilder::new("perturb");
        let y = b.input("Y", &[n], InitPattern::Wavy);
        let x = b.output("X", &[n]);
        let s1 = b.scalar("s1");
        let s2 = b.scalar("s2");
        b.nest("mix", &[("k", 0, n as i64 - 1)], |nb| {
            let stmts: &mut [&mut dyn FnMut(&mut sapp::ir::builder::NestBuilder); 3] = &mut [
                &mut |nb| nb.reduce(s1, sapp::ir::ReduceOp::Sum, sapp::ir::Expr::LoopVar(0)),
                &mut |nb| {
                    let v = nb.read(y, [iv(0)]) * 2.0;
                    nb.assign(x, [iv(0)], v);
                },
                &mut |nb| {
                    nb.reduce(
                        s2,
                        sapp::ir::ReduceOp::Max,
                        sapp::ir::Expr::LoopVar(0) * 3.0,
                    )
                },
            ];
            let perm = match order {
                0 => [0, 1, 2],
                1 => [1, 0, 2],
                _ => [2, 1, 0],
            };
            for i in perm {
                stmts[i](nb);
            }
        });
        b.finish()
    };
    for order in 0..3 {
        let p = build(order);
        let golden = interpret(&p).expect("reference");
        for n_pes in [1usize, 3, 4, 7] {
            let cfg = MachineConfig::new(n_pes, 16);
            let sim = simulate(&p, &cfg).expect("sim");
            let rep = execute(&p, &RuntimeConfig::from_machine(&cfg))
                .unwrap_or_else(|e| panic!("order {order}, {n_pes} PEs: {e}"));
            golden
                .assert_matches(&runtime_result(&rep), 1e-9)
                .unwrap_or_else(|e| panic!("order {order}, {n_pes} PEs: {e}"));
            // Anchorless instances are dealt identically, so the reduction
            // partial traffic must match the simulator's model exactly.
            assert_eq!(
                rep.stats.reduction_messages, sim.stats.reduction_messages,
                "order {order}, {n_pes} PEs: partial-collection messages"
            );
            assert_eq!(rep.stats.writes(), sim.stats.writes());
        }
    }
}

/// Resume exactness: a suspended instance is evaluated again from the
/// start when its reply arrives, yet every load must be classified,
/// counted, cache-probed and fetched exactly once. Each instance below
/// reads three distinct remote pages through a one-page cache, so it is
/// resumed at least three times and the cache thrashes on every read — the
/// statistics must still equal the simulator's field by field.
#[test]
fn resumed_instances_count_every_load_exactly_once() {
    let (n, page) = (96usize, 8usize);
    let mut b = ProgramBuilder::new("three-pages");
    let y = b.input("Y", &[n + 4 * page], InitPattern::Wavy);
    let x = b.output("X", &[n]);
    b.nest("s", &[("k", 0, n as i64 - 1)], |nb| {
        let rhs = nb.read(y, [iv(0).plus(page as i64)])
            + nb.read(y, [iv(0).plus(2 * page as i64)])
            + nb.read(y, [iv(0).plus(3 * page as i64)])
            + nb.read(y, [iv(0)]);
        nb.assign(x, [iv(0)], rhs);
    });
    let p = b.finish();
    let golden = interpret(&p).expect("reference");
    // 4 PEs under modulo: Y(k + j·page) lives on PE (owner + j) mod 4 — three
    // remote pages and one local cell per instance.
    let cfg = MachineConfig::new(4, page).with_cache_elems(page);
    let sim = simulate(&p, &cfg).expect("sim");
    assert_eq!(sim.stats.remote_reads(), 3 * n as u64, "every read misses");
    assert_eq!(sim.stats.local_reads(), n as u64);
    for workers in [1usize, 2, 4] {
        let rep = execute_on(&p, &RuntimeConfig::from_machine(&cfg), workers).expect("runtime");
        assert_eq!(rep.stats, sim.stats, "workers {workers}");
        assert_eq!(rep.modeled_messages(), sim.network_messages);
        golden
            .assert_matches(&runtime_result(&rep), 0.0)
            .unwrap_or_else(|e| panic!("workers {workers}: {e}"));
    }
}

/// Satellite: thread-runtime counts equal the simulator's on *random*
/// statically-initialized index data — permutations (scatter-legal),
/// bounded permutations with duplicates, and boundary-clamped lookups —
/// for both a gather nest and a scatter nest. Everything fetched is a
/// fully initialized input page, so the cached counts are exact too.
fn gather_scatter_program(n: usize, limit: usize, seed: u64, scatter: bool) -> Program {
    let mut b = ProgramBuilder::new("prop-indirect");
    let d = b.input("D", &[n], InitPattern::Wavy);
    // Gather index data may repeat and clamps to `limit`; scatter index
    // data must be a permutation for single assignment.
    let idx = if scatter {
        b.input("IDX", &[n], InitPattern::Permutation { seed })
    } else {
        b.input("IDX", &[n], InitPattern::BoundedPermutation { seed, limit })
    };
    let x = b.output("X", &[n]);
    b.nest("g", &[("k", 0, n as i64 - 1)], |nb| {
        if scatter {
            nb.assign_indirect(x, idx, iv(0), nb.read(d, [iv(0)]) + 1.0);
        } else {
            nb.assign(x, [iv(0)], nb.read_indirect(d, idx, iv(0)) + 1.0);
        }
    });
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_index_arrays_match_simulator_counts(
        n in 48usize..220,
        limit_frac in 1usize..100,
        seed in 0u64..10_000,
        n_pes in 1usize..7,
        page in proptest::sample::select(vec![8usize, 16, 32]),
        cache in proptest::sample::select(vec![0usize, 128, 256]),
        scatter in proptest::bool::ANY,
    ) {
        // Boundary clamp: limits from 1 (every lookup hits D(0)) to n.
        let limit = (n * limit_frac / 100).max(1);
        let p = gather_scatter_program(n, limit, seed, scatter);
        let cfg = MachineConfig::new(n_pes, page).with_cache_elems(cache);
        let sim = simulate(&p, &cfg).expect("sim");
        let golden = interpret(&p).expect("reference");
        // One worker thread for all PEs, then one per PE: the counts may
        // not depend on how the logical PEs share OS threads.
        for workers in [1, n_pes] {
            let rep = execute_on(&p, &RuntimeConfig::from_machine(&cfg), workers).expect("runtime");
            prop_assert_eq!(rep.stats.writes(), sim.stats.writes());
            prop_assert_eq!(rep.stats.total_reads(), sim.stats.total_reads());
            prop_assert_eq!(rep.stats.local_reads(), sim.stats.local_reads());
            prop_assert_eq!(rep.stats.cached_reads(), sim.stats.cached_reads());
            prop_assert_eq!(rep.stats.remote_reads(), sim.stats.remote_reads());
            prop_assert_eq!(rep.stats.page_fetches, sim.stats.page_fetches);
            // Static index data resolves from the mirror: zero resolution
            // traffic, and the modeled messages equal the simulator's.
            prop_assert_eq!(rep.resolve_messages, 0);
            prop_assert_eq!(rep.modeled_messages(), sim.network_messages);
            // Values still match the reference.
            golden
                .assert_matches(&runtime_result(&rep), 1e-9)
                .map_err(proptest::test_runner::TestCaseError::fail)?;
        }
    }
}
