//! The plan API's contract: grid enumeration is exact and order-robust,
//! degenerate plans fail with typed errors, and the plan-backed speedup
//! sweep equals a hand-rolled sequential loop over the raw timing pass,
//! point for point, on K12 (First Difference).

use sapp::core::oracle::speedup_sweep;
use sapp::core::plan::{Axis, ExperimentPlan, PlanError, RunConfig};
use sapp::core::search::SearchSpace;
use sapp::core::{estimate_timing, simulate, Engine, FastCountingOracle, Searcher, StrategyParams};
use sapp::loops::suite;
use sapp::machine::{AccessCosts, ConfigError, MachineConfig};

fn k12() -> sapp::ir::Program {
    suite()
        .into_iter()
        .find(|k| k.code == "K12")
        .expect("K12 in suite")
        .program
}

#[test]
fn grid_enumeration_is_lazy_and_exact() {
    let plan = ExperimentPlan::new()
        .page_sizes(&[16, 32, 64])
        .cache_flags(&[true, false])
        .pes(&[1, 2, 4, 8]);
    assert_eq!(plan.len(), 3 * 2 * 4);
    // The lazy iterator and random access agree.
    for (i, cfg) in plan.configs().enumerate() {
        assert_eq!(cfg, plan.config_at(i));
    }
    // Mixed-radix order: first axis outermost.
    let last = plan.config_at(plan.len() - 1);
    assert_eq!((last.page_size, last.cached(), last.n_pes), (64, false, 8));
}

#[test]
fn axis_order_invariance_of_measured_sets() {
    // Two plans over the same axes in different insertion order must
    // measure the same set of points with identical results — a figure
    // that selects by predicate can't tell them apart.
    let p = k12();
    let a = ExperimentPlan::new()
        .page_sizes(&[32, 64])
        .cache_flags(&[true, false])
        .pes(&[2, 4])
        .run(&p, &FastCountingOracle::with_engine(Engine::Interp))
        .unwrap();
    let b = ExperimentPlan::new()
        .pes(&[2, 4])
        .cache_flags(&[false, true])
        .page_sizes(&[64, 32])
        .run(&p, &FastCountingOracle::with_engine(Engine::Interp))
        .unwrap();
    assert_eq!(a.len(), b.len());
    for r in a.records() {
        let twin = b
            .find(|s| s.cfg == r.cfg)
            .unwrap_or_else(|| panic!("point {:?} missing after axis permutation", r.cfg));
        assert_eq!(r, twin, "same config must measure identically");
    }
    // And the group-by pivot yields the same series content either way.
    let series_a = a.series(
        |r| format!("ps{} c{}", r.cfg.page_size, r.cfg.cached()),
        |r| r.cfg.n_pes as f64,
        |r| r.remote_pct,
    );
    for s in &series_a {
        let mut points_b: Vec<(f64, f64)> = b
            .filter(|r| format!("ps{} c{}", r.cfg.page_size, r.cfg.cached()) == s.label)
            .records()
            .iter()
            .map(|r| (r.cfg.n_pes as f64, r.remote_pct))
            .collect();
        points_b.sort_by(|x, y| x.0.total_cmp(&y.0));
        let mut points_a = s.points.clone();
        points_a.sort_by(|x, y| x.0.total_cmp(&y.0));
        assert_eq!(points_a, points_b);
    }
}

#[test]
fn empty_axis_is_a_config_error() {
    let p = k12();
    let err = ExperimentPlan::new()
        .pes(&[])
        .run(&p, &FastCountingOracle::with_engine(Engine::Interp))
        .unwrap_err();
    assert!(matches!(
        err,
        PlanError::Config(ConfigError::EmptyAxis { axis: "pes" })
    ));
    let err = ExperimentPlan::new()
        .pes(&[2])
        .axis(Axis::Cache(vec![]))
        .run(&p, &FastCountingOracle::with_engine(Engine::Interp))
        .unwrap_err();
    assert!(matches!(
        err,
        PlanError::Config(ConfigError::EmptyAxis { axis: "cache" })
    ));
}

#[test]
fn duplicate_axis_is_a_config_error() {
    let p = k12();
    let err = ExperimentPlan::new()
        .pes(&[2])
        .pes(&[4])
        .run(&p, &FastCountingOracle::with_engine(Engine::Interp))
        .unwrap_err();
    assert!(matches!(
        err,
        PlanError::Config(ConfigError::DuplicateAxis { axis: "pes" })
    ));
}

#[test]
fn legacy_speedup_sweep_equals_sequential_loop() {
    let p = k12();
    let pes = [1usize, 2, 4, 8];
    let got = speedup_sweep(&p, &pes, &RunConfig::default(), AccessCosts::default()).unwrap();
    let base = estimate_timing(&p, &MachineConfig::new(1, 32)).unwrap();
    for (&n, (got_n, got_speedup)) in pes.iter().zip(&got) {
        let t = estimate_timing(&p, &MachineConfig::new(n, 32)).unwrap();
        assert_eq!(*got_n, n);
        assert_eq!(*got_speedup, t.speedup_over(&base));
    }
}

#[test]
fn search_finds_k12_best_scheme_and_page_size() {
    let p = k12();
    let space = SearchSpace::default();
    let best = Searcher::new(
        &space,
        Box::new(FastCountingOracle::with_engine(Engine::Interp)),
        StrategyParams::default(),
    )
    .unwrap()
    .search(&p)
    .unwrap()
    .best;
    // Every candidate is either measured or statically pruned.
    assert_eq!(
        best.evaluated + best.pruned,
        space.schemes.len() * space.page_sizes.len()
    );
    assert!(space.schemes.contains(&best.scheme));
    assert!(space.page_sizes.contains(&best.page_size));
    // K12 is Skewed (X[k] = Y[k+1] - Y[k]): only page-boundary crossings
    // are remote, so the winner must beat the paper's reference point
    // (modulo, ps 32) or match it.
    let reference = simulate(&p, &MachineConfig::new(16, 32))
        .unwrap()
        .remote_pct();
    assert!(best.remote_pct <= reference);
    // And the winner's measurement is reproducible.
    let re = simulate(
        &p,
        &MachineConfig::new(16, best.page_size).with_partition(best.scheme),
    )
    .unwrap();
    assert_eq!(best.remote_pct, re.remote_pct());
    assert_eq!(best.messages, re.network_messages);
}

#[test]
fn base_config_flows_into_every_grid_point() {
    let p = k12();
    let results = ExperimentPlan::new()
        .base(RunConfig {
            n_pes: 4,
            cache_elems: 512,
            ..RunConfig::default()
        })
        .page_sizes(&[16, 32])
        .run(&p, &FastCountingOracle::with_engine(Engine::Interp))
        .unwrap();
    for r in results.records() {
        assert_eq!(r.cfg.n_pes, 4);
        assert_eq!(r.cfg.cache_elems, 512);
    }
}
