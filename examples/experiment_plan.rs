//! The composable experiment-plan API, end to end: build a typed-axis
//! grid, evaluate it through two rungs of the counting ladder (compiled
//! access replay with auto fallback, the interpreter) and real threads, pivot
//! the results, and run the automatic scheme search — exhaustive and
//! guided (seeded annealing through the memoizing oracle cache).
//!
//! ```text
//! cargo run --release --example experiment_plan
//! ```

use sapp::core::plan::ExperimentPlan;
use sapp::core::report::{ascii_chart, json, markdown_table};
use sapp::core::results::Column;
use sapp::core::search::strategy::{Searcher, Strategy, StrategyParams};
use sapp::core::search::SearchSpace;
use sapp::core::{Engine, FastCountingOracle};
use sapp::loops::suite;
use sapp::runtime::ThreadOracle;

fn main() {
    let k12 = suite()
        .into_iter()
        .find(|k| k.code == "K12")
        .expect("K12 in suite");

    // One plan: page sizes × cache on/off × PE counts, lazily enumerated
    // and evaluated concurrently by the auto-select counting oracle (the
    // compiled access replay here — K12 is affine — with transparent
    // interpreter fallback; counts are bit-identical either way, proven
    // by `tests/replay_vs_interp.rs`).
    let plan = ExperimentPlan::new()
        .page_sizes(&[32, 64])
        .cache_flags(&[true, false])
        .pes(&[1, 2, 4, 8, 16, 32]);
    println!("grid: {} points\n", plan.len());
    let results = plan
        .run(&k12.program, &FastCountingOracle::default())
        .expect("sweep");
    let interp = plan
        .run(
            &k12.program,
            &FastCountingOracle::with_engine(Engine::Interp),
        )
        .expect("sweep");
    assert_eq!(results.records(), interp.records(), "engines agree");

    // Typed columns feed every report emitter.
    let cols = [
        Column::Pes,
        Column::PageSize,
        Column::Cached,
        Column::RemotePct,
        Column::Messages,
    ];
    let headers = Column::headers(&cols);
    println!("{}", markdown_table(&headers, &results.rows(&cols)));

    // Pivot into figure series without caring about axis order.
    let series = results.series(
        |r| {
            format!(
                "{} ps {}",
                if r.cfg.cached() { "Cache" } else { "No Cache" },
                r.cfg.page_size
            )
        },
        |r| r.cfg.n_pes as f64,
        |r| r.remote_pct,
    );
    println!(
        "{}",
        ascii_chart("K12: % of Reads Remote vs PEs", &series, 48, 12)
    );

    // The same grid shape on a different backend: real worker threads.
    let real = ExperimentPlan::new()
        .pes(&[1, 2, 4])
        .run(&k12.program, &ThreadOracle)
        .expect("runtime");
    println!(
        "thread-runtime remote% at 4 PEs: {:.2}%\n",
        real.find(|r| r.cfg.n_pes == 4).expect("point").remote_pct
    );

    // Automatic scheme search (the Automap-style ROADMAP item), as JSON:
    // balanced objective by default, replay engine underneath.
    let best = Searcher::new(
        &SearchSpace::default(),
        Box::<FastCountingOracle>::default(),
        StrategyParams::default(),
    )
    .expect("space is valid")
    .search(&k12.program)
    .expect("search")
    .best;
    let row = vec![vec![
        "K12".to_string(),
        best.scheme.name(),
        best.page_size.to_string(),
        format!("{:.4}", best.remote_pct),
        format!("{:.3}", best.write_balance),
        best.evaluated.to_string(),
    ]];
    println!(
        "{}",
        json(
            &[
                "kernel",
                "best_scheme",
                "best_page_size",
                "remote_pct",
                "write_balance",
                "evaluated"
            ],
            &row
        )
    );

    // Guided search: seeded annealing over the same space through the
    // memoizing oracle cache. The walk is a pure function of
    // (program, space, seed, budget), so the warm re-query replays the
    // identical winner with zero new oracle calls.
    let searcher = Searcher::new(
        &SearchSpace::default(),
        Box::<FastCountingOracle>::default(),
        StrategyParams {
            strategy: Strategy::Anneal,
            seed: 7,
            budget: 16,
            ..StrategyParams::default()
        },
    )
    .expect("space is valid");
    let rep = searcher.search(&k12.program).expect("anneal");
    let warm = searcher.search(&k12.program).expect("re-query");
    assert_eq!(warm.best, rep.best, "warm replay diverged");
    assert_eq!(warm.oracle_evals, 0, "warm replay paid the oracle");
    println!(
        "anneal(seed 7, budget 16): {} on page {} after {} oracle \
         evaluations; cached re-query paid {}",
        rep.best.scheme.name(),
        rep.best.page_size,
        rep.oracle_evals,
        warm.oracle_evals
    );
}
