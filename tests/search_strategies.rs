//! Certification of the guided search strategies
//! (`sapp::core::search::strategy`) against exhaustion:
//!
//! 1. **Guided ≡ exhaustive** — on every space where exhaustion is still
//!    feasible (the full affine registry × all five scheme families ×
//!    pages {8, 32, 256}), `anneal` and `propagate` with the default
//!    budget return a winner within 0 bits of `search_exhaustive_with`:
//!    scheme, page size, score bits and the messages tie-break all match
//!    exactly.
//! 2. **Determinism** — same `--seed` ⇒ bit-identical winner and an
//!    identical evaluation trace, proptested across seeds and budgets on
//!    a space wide enough that the annealer really wanders.
//! 3. **Memo cache** — a second identical query is answered entirely
//!    from the cache: the same `RunRecord` (whole-report equality), zero
//!    new oracle calls, hit/miss counters asserted; and cache keys are
//!    collide-free across the registry and under program relabeling
//!    (proptest over registry pairs).
//! 4. **Space hoisting** — one search invocation materializes its
//!    candidate space exactly once, however many kernels it fans out
//!    over (the regression test for the per-kernel rebuild fix).
//! 5. **Closed-form bound ≡ reference bound** — pruning from the
//!    closed-form projection yields the identical `SearchReport` (winner,
//!    `evaluated`, `pruned`, `oracle_evals`, trace) as pruning from the
//!    per-instance reference, on the benchmark's three guided ST5
//!    searches and on the exhaustive sweep of the Livermore suite.
//! 6. **Remote-read caps are invisible** — every candidate of the default
//!    space reads as much as every other (the caps' premise), and a
//!    backend that can only measure in full yields the identical
//!    `SearchReport` as the capping one, for the walks that cap.

use std::sync::OnceLock;

use proptest::prelude::*;

use sapp::core::oracle::{Oracle, OracleError, RunRecord};
use sapp::core::plan::RunConfig;
use sapp::core::search::strategy::{program_fingerprint, Searcher, Strategy, StrategyParams};
use sapp::core::search::{search_exhaustive_with, Objective, SearchSpace};
use sapp::core::FastCountingOracle;
use sapp::ir::Program;
use sapp::lint::depgraph::{first_indirect_ref, project_by_instance};
use sapp::lint::LintConfig;
use sapp::loops::{reduced_suite, suite, workload, Kernel, Size};
use sapp::machine::{NetworkTopology, PartitionScheme};

/// The registry at reduced sizes, restricted to the statically affine
/// kernels (no reference through an index array). Guided-vs-exhaustive
/// equality is certified on these; indirect kernels exercise the replay
/// fallback elsewhere.
fn affine_registry() -> &'static Vec<Kernel> {
    static CELL: OnceLock<Vec<Kernel>> = OnceLock::new();
    CELL.get_or_init(|| {
        reduced_suite()
            .into_iter()
            .filter(|k| first_indirect_ref(&k.program).is_none())
            .collect()
    })
}

/// The feasible exhaustion space of the certification sweep: all five
/// scheme families crossed with pages {8, 32, 256}, uncached. 15 candidates — comfortably under the default budget, so the
/// guided strategies must cover it completely.
fn certification_space() -> SearchSpace {
    SearchSpace {
        schemes: vec![
            PartitionScheme::Modulo,
            PartitionScheme::Block,
            PartitionScheme::BlockCyclic { block_pages: 2 },
            PartitionScheme::RowBand,
            PartitionScheme::Tile2D {
                tile_rows: 16,
                tile_cols: 16,
            },
        ],
        page_sizes: vec![8, 32, 256],
        cache_elems: 0,
        ..SearchSpace::default()
    }
}

/// A space wider than the default guided budget (7 schemes × 6 pages ×
/// 2 topologies = 84 candidates), so a small-budget annealer genuinely
/// wanders instead of degrading to the full sweep.
fn wide_space() -> SearchSpace {
    SearchSpace {
        networks: vec![NetworkTopology::Ideal, NetworkTopology::Mesh2D],
        cache_elems: 0,
        ..SearchSpace::default()
    }
}

/// All five scheme families (three tile shapes, two block-cyclic
/// factors) × six page sizes × all seven topologies: 378 candidates.
fn expanded_space() -> SearchSpace {
    let tile = |t| PartitionScheme::Tile2D {
        tile_rows: t,
        tile_cols: t,
    };
    SearchSpace {
        schemes: vec![
            PartitionScheme::Modulo,
            PartitionScheme::Block,
            PartitionScheme::BlockCyclic { block_pages: 2 },
            PartitionScheme::BlockCyclic { block_pages: 4 },
            PartitionScheme::RowBand,
            tile(16),
            tile(32),
            tile(64),
            tile(128),
        ],
        networks: vec![
            NetworkTopology::Ideal,
            NetworkTopology::Crossbar,
            NetworkTopology::Bus,
            NetworkTopology::Ring,
            NetworkTopology::Mesh2D,
            NetworkTopology::Torus2D,
            NetworkTopology::Hypercube,
        ],
        ..SearchSpace::default()
    }
}

fn params(strategy: Strategy) -> StrategyParams {
    StrategyParams {
        strategy,
        ..StrategyParams::default()
    }
}

#[test]
fn guided_strategies_match_exhaustive_bit_exactly_on_feasible_spaces() {
    let space = certification_space();
    let mut certified = 0usize;
    for k in affine_registry() {
        let exhaustive = search_exhaustive_with(
            &k.program,
            &space,
            &FastCountingOracle::default(),
            Objective::default(),
        )
        .unwrap_or_else(|e| panic!("{}: exhaustive baseline failed: {e}", k.code));
        for strategy in [Strategy::Anneal, Strategy::Propagate] {
            let searcher = Searcher::new(
                &space,
                Box::<FastCountingOracle>::default(),
                params(strategy),
            )
            .unwrap();
            let rep = searcher
                .search(&k.program)
                .unwrap_or_else(|e| panic!("{}: {} failed: {e}", k.code, strategy.name()));
            // Exact tie-break match: scheme, page, score bits, messages.
            assert_eq!(
                rep.best.scheme,
                exhaustive.scheme,
                "{} {}: scheme diverged from exhaustive",
                k.code,
                strategy.name()
            );
            assert_eq!(
                rep.best.page_size,
                exhaustive.page_size,
                "{} {}: page size diverged",
                k.code,
                strategy.name()
            );
            assert_eq!(
                rep.best.score.to_bits(),
                exhaustive.score.to_bits(),
                "{} {}: score not within 0 bits",
                k.code,
                strategy.name()
            );
            assert_eq!(
                rep.best.messages,
                exhaustive.messages,
                "{} {}: messages tie-break diverged",
                k.code,
                strategy.name()
            );
            // Full coverage is what makes the exactness a theorem, not
            // luck: every candidate was measured or statically pruned.
            assert_eq!(
                rep.best.evaluated + rep.best.pruned + unsupported_count(&rep),
                rep.space_size,
                "{} {}: incomplete coverage",
                k.code,
                strategy.name()
            );
            certified += 1;
        }
    }
    assert!(
        certified >= 2 * 10,
        "affine registry unexpectedly small: {certified} certifications"
    );
}

/// Touched-but-unsupported candidates (traced, neither evaluated nor
/// pruned).
fn unsupported_count(rep: &sapp::core::SearchReport) -> usize {
    rep.trace.len() - rep.best.evaluated
}

#[test]
fn memo_cache_answers_second_query_with_zero_new_oracle_calls() {
    let k = &affine_registry()[0];
    let searcher = Searcher::new(
        &wide_space(),
        Box::<FastCountingOracle>::default(),
        StrategyParams {
            strategy: Strategy::Anneal,
            budget: 24,
            ..StrategyParams::default()
        },
    )
    .unwrap();
    let first = searcher.search(&k.program).unwrap();
    assert!(first.oracle_evals > 0, "first query must pay for something");
    assert_eq!(first.cache_hits, 0, "fresh cache cannot hit");
    let (hits_before, misses_before) = (searcher.cache_hits(), searcher.cache_misses());
    assert_eq!(misses_before, first.oracle_evals as u64);

    let second = searcher.search(&k.program).unwrap();
    // Identical result — same RunRecord bit for bit, same trace — and
    // the oracle was never consulted again.
    assert_eq!(first.best, second.best);
    assert_eq!(first.record, second.record);
    assert_eq!(first.trace, second.trace);
    assert_eq!(second.oracle_evals, 0, "second query paid oracle calls");
    assert_eq!(second.cache_hits, first.trace.len());
    assert_eq!(
        searcher.cache_misses(),
        misses_before,
        "inner oracle was invoked again"
    );
    assert_eq!(
        searcher.cache_hits(),
        hits_before + second.cache_hits as u64
    );

    // The space the guided strategies exist for: nine schemes × six pages
    // × seven topologies = 378 candidates around ST5 256². At the default
    // budget both spend at least 5× fewer oracle evaluations than
    // exhaustion, find its winner's score, and re-query for free.
    let st5 = workload("ST5").unwrap().build(Size::Grid2 {
        nx: 256,
        ny: 256,
        sweeps: 2,
    });
    let space = expanded_space();
    let exhaustive = search_exhaustive_with(
        &st5.program,
        &space,
        &FastCountingOracle::default(),
        Objective::default(),
    )
    .unwrap();
    assert_eq!(exhaustive.evaluated, 378);
    for strategy in [Strategy::Anneal, Strategy::Propagate] {
        let searcher = Searcher::new(
            &space,
            Box::<FastCountingOracle>::default(),
            StrategyParams {
                strategy,
                seed: 7,
                ..StrategyParams::default()
            },
        )
        .unwrap();
        let rep = searcher.search(&st5.program).unwrap();
        assert!(
            rep.oracle_evals * 5 <= exhaustive.evaluated,
            "{}: {} of {} evaluations",
            strategy.name(),
            rep.oracle_evals,
            exhaustive.evaluated
        );
        assert_eq!(
            rep.best.score.to_bits(),
            exhaustive.score.to_bits(),
            "{}: winner gap",
            strategy.name()
        );
        let requery = searcher.search(&st5.program).unwrap();
        assert_eq!(requery.oracle_evals, 0, "{}", strategy.name());
        assert_eq!(requery.best, rep.best, "{}", strategy.name());
    }
}

#[test]
fn space_is_materialized_exactly_once_per_invocation() {
    let searcher = Searcher::new(
        &certification_space(),
        Box::<FastCountingOracle>::default(),
        params(Strategy::Exhaustive),
    )
    .unwrap();
    // Fan several kernels out over the same invocation, like the CLI.
    for k in affine_registry().iter().take(3) {
        searcher.search(&k.program).unwrap();
    }
    assert_eq!(
        searcher.space_builds(),
        1,
        "candidate space must be built once per invocation, not per kernel"
    );
}

#[test]
fn anchor_profiles_are_built_once_per_page_size() {
    let space = SearchSpace::default();
    let k21 = suite().into_iter().find(|k| k.code == "K21").unwrap();
    let searcher = |objective| {
        let params = StrategyParams {
            objective,
            ..params(Strategy::Exhaustive)
        };
        Searcher::new(&space, Box::<FastCountingOracle>::default(), params).unwrap()
    };
    let balanced = searcher(Objective::default());
    let first = balanced.search(&k21.program).unwrap();
    let built = balanced.profile_builds();
    assert!(
        first.best.pruned > 0 && (1..=space.page_sizes.len()).contains(&built),
        "{built} profiles for {} page sizes",
        space.page_sizes.len()
    );
    // A query keeps no profile: the next one builds its own, as few.
    balanced.search(&k21.program).unwrap();
    assert!(balanced.profile_builds() - built <= space.page_sizes.len());
    // An objective without an imbalance term bounds nothing.
    let remote_only = searcher(Objective::RemoteOnly);
    remote_only.search(&k21.program).unwrap();
    assert_eq!(remote_only.profile_builds(), 0);
}

/// The per-instance enumerator as the pruning bound's write projection.
fn reference_writes_per_pe(program: &Program, cfg: &LintConfig) -> Option<Vec<u64>> {
    project_by_instance(program, cfg)
        .ok()
        .map(|p| p.writes_per_pe)
}

#[test]
fn closed_form_bound_leaves_every_search_report_unchanged() {
    // The default space with the default cache, as `sapp search` runs it.
    let space = SearchSpace::default();
    let both = |params: StrategyParams, kernels: &[Kernel]| {
        let searcher =
            || Searcher::new(&space, Box::<FastCountingOracle>::default(), params).unwrap();
        let (closed, reference) = (
            searcher(),
            searcher().with_write_projection(reference_writes_per_pe),
        );
        let mut pruned = 0;
        for k in kernels {
            let got = closed.search(&k.program).unwrap();
            let want = reference.search(&k.program).unwrap();
            assert_eq!(got, want, "{} under {params:?}", k.code);
            pruned += got.best.pruned;
        }
        pruned
    };

    // The benchmark's `search_guided` round: two annealing walks at
    // consecutive seeds and one propagation walk, 16 of 42 candidates.
    let st5 = workload("ST5").unwrap().build(Size::Grid2 {
        nx: 256,
        ny: 256,
        sweeps: 2,
    });
    let mut pruned = 0;
    for (strategy, seed) in [
        (Strategy::Anneal, 7),
        (Strategy::Anneal, 8),
        (Strategy::Propagate, 7),
    ] {
        let params = StrategyParams {
            strategy,
            seed,
            budget: 16,
            ..StrategyParams::default()
        };
        pruned += both(params, std::slice::from_ref(&st5));
    }
    // `registry_search`: the serial pruned sweep of all 42 candidates over
    // the Livermore suite at its official sizes.
    pruned += both(params(Strategy::Exhaustive), &suite());
    assert!(
        pruned > 0,
        "no candidate was pruned: the bound went untested"
    );
}

#[test]
fn every_candidate_of_the_default_space_reads_alike() {
    // Owner-computes runs every statement instance once, wherever it
    // runs: total reads do not depend on the placement — the premise of
    // the walks' remote-read caps.
    let configs: Vec<RunConfig> = SearchSpace::default().plan().configs().collect();
    assert_eq!(configs.len(), 42);
    for k in suite() {
        let reads: Vec<u64> = configs
            .iter()
            .map(|cfg| {
                let rep = sapp::core::replay::counts(&k.program, &cfg.machine())
                    .unwrap_or_else(|e| panic!("{}: {e}", k.code));
                rep.stats.total_reads()
            })
            .collect();
        assert!(
            reads.iter().all(|&r| r == reads[0]),
            "{}: total reads vary across candidates: {reads:?}",
            k.code
        );
    }
}

/// The auto-selecting oracle behind `Oracle::measure` alone: every capped
/// query takes the trait's default, a full measurement.
struct MeasureOnly(FastCountingOracle);

impl Oracle for MeasureOnly {
    fn name(&self) -> &'static str {
        "measure-only"
    }

    fn measure(&self, program: &Program, cfg: &RunConfig) -> Result<RunRecord, OracleError> {
        self.0.measure(program, cfg)
    }
}

#[test]
fn remote_read_caps_leave_every_search_report_unchanged() {
    let mut capped = 0;
    for (space, kernels) in [
        (certification_space(), affine_registry().clone()),
        (SearchSpace::default(), suite()),
    ] {
        for strategy in [Strategy::Exhaustive, Strategy::Propagate] {
            let capping = Searcher::new(
                &space,
                Box::<FastCountingOracle>::default(),
                params(strategy),
            )
            .unwrap();
            let measuring = Searcher::new(
                &space,
                Box::new(MeasureOnly(FastCountingOracle::default())),
                params(strategy),
            )
            .unwrap();
            for k in &kernels {
                let got = capping.search(&k.program).unwrap();
                let want = measuring.search(&k.program).unwrap();
                assert_eq!(got, want, "{} {}", k.code, strategy.name());
                capped += got.capped;
            }
        }
    }
    assert!(
        capped > 0,
        "no candidate was capped: the caps went untested"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same seed ⇒ bit-identical winner *and* identical evaluation trace,
    /// whatever the seed and however tight the budget.
    #[test]
    fn same_seed_gives_bit_identical_winner_and_trace(
        seed in 0u64..u64::MAX,
        budget in 4usize..=20,
    ) {
        let k = &affine_registry()[0];
        let space = wide_space();
        let p = StrategyParams {
            strategy: Strategy::Anneal,
            seed,
            budget,
            ..StrategyParams::default()
        };
        let run = || {
            Searcher::new(&space, Box::<FastCountingOracle>::default(), p)
                .unwrap()
                .search(&k.program)
                .unwrap()
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(a.best.score.to_bits(), b.best.score.to_bits());
        prop_assert_eq!(&a.record, &b.record);
        prop_assert_eq!(&a.trace, &b.trace);
        prop_assert_eq!(a.oracle_evals, b.oracle_evals);
        prop_assert!(a.oracle_evals <= budget, "budget overrun: {}", a.oracle_evals);
    }

    /// Memo-cache keys never collide across registry programs, and
    /// relabeling a program (renaming arrays or the program itself)
    /// always changes its key — a relabeled program can never replay
    /// another program's cached records.
    #[test]
    fn fingerprints_are_collide_free_under_relabeling(
        i in 0usize..26,
        j in 0usize..26,
    ) {
        let suite = reduced_suite();
        let i = i % suite.len();
        let j = j % suite.len();
        let (fi, fj) = (
            program_fingerprint(&suite[i].program),
            program_fingerprint(&suite[j].program),
        );
        prop_assert_eq!(fi == fj, i == j, "{} vs {}", suite[i].code, suite[j].code);

        let mut relabeled = suite[i].program.clone();
        relabeled.name.push('\'');
        for a in &mut relabeled.arrays {
            a.name.push('_');
        }
        let fr = program_fingerprint(&relabeled);
        for k in &suite {
            prop_assert!(
                fr != program_fingerprint(&k.program),
                "relabeled {} aliases {}",
                suite[i].code,
                k.code
            );
        }
    }
}
