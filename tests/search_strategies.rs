//! Certification of the search walks (`sapp::core::search::strategy`)
//! against exhaustion:
//!
//! 1. **Covering budgets are exhaustive** — on every space where
//!    exhaustion is still feasible (the full affine registry × all five
//!    scheme families × pages {8, 32, 256}), `anneal` and `propagate` with
//!    the default budget return a winner within 0 bits of
//!    `search_exhaustive_with`: scheme, page size, score bits and the
//!    messages tie-break all match exactly. A budget that covers the space
//!    is the branch and bound itself: every strategy then reports what
//!    `exhaustive` does, field for field. One candidate short of it they
//!    run the bound walk, which returns the exhaustive winner whenever it
//!    leaves no candidate unreached.
//! 2. **Short budgets** — below the space the bound walk finds K21's and
//!    ST5 256²'s optima at a budget of 16, and at budgets 4 to 24 it finds
//!    at least as many of the Livermore winners as the seeded annealing
//!    and sampled propagation walks it replaced did on any seed. Its
//!    reports do not depend on the seed or on the strategy's spelling.
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
//!    `SearchReport` as the capping one, under covering and short budgets.
//! 7. **The remote-read floor is a floor** — on all 26 registry programs,
//!    default candidates and caches (256 elements, none, every page) it is
//!    at most the remote reads counted, the static read count is the
//!    counted one, and on a program that reads only through one
//!    translation read it is exactly the remote reads of an unbounded
//!    cache.

use std::sync::OnceLock;

use proptest::prelude::*;

use sapp::core::oracle::{Oracle, OracleError, RunRecord};
use sapp::core::plan::RunConfig;
use sapp::core::search::strategy::{
    program_fingerprint, Candidates, SearchReport, Searcher, Strategy, StrategyParams,
};
use sapp::core::search::{search_exhaustive_with, Objective, SearchSpace};
use sapp::core::FastCountingOracle;
use sapp::ir::index::iv;
use sapp::ir::{InitPattern, Program, ProgramBuilder};
use sapp::lint::depgraph::{first_indirect_ref, project_by_instance, read_count, AnchorProfile};
use sapp::lint::LintConfig;
use sapp::loops::{reduced_suite, suite, workload, workloads, Kernel, Size};
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

/// A space wider than the default budget (7 schemes × 6 pages × 2
/// topologies = 84 candidates), so a small budget runs the bound walk
/// instead of the branch and bound.
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

/// ST5 at 256², the program of the benchmark's `search_guided`.
fn st5_256() -> Kernel {
    workload("ST5").unwrap().build(Size::Grid2 {
        nx: 256,
        ny: 256,
        sweeps: 2,
    })
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

#[test]
fn a_budget_covering_the_space_is_the_branch_and_bound() {
    let space = certification_space();
    let size = Candidates::materialize(&space).unwrap().len();
    let search = |strategy, budget, program: &Program| {
        let params = StrategyParams {
            budget,
            ..params(strategy)
        };
        Searcher::new(&space, Box::<FastCountingOracle>::default(), params)
            .unwrap()
            .search(program)
            .unwrap()
    };
    let mut walked_apart = 0;
    for k in affine_registry() {
        let exhaustive = search(Strategy::Exhaustive, size, &k.program);
        assert_eq!(exhaustive.unreached, 0, "{}", k.code);
        for strategy in [Strategy::Anneal, Strategy::Propagate] {
            let covering = search(strategy, size, &k.program);
            assert_eq!(covering.strategy, strategy);
            assert_eq!(
                SearchReport {
                    strategy: Strategy::Exhaustive,
                    ..covering
                },
                exhaustive,
                "{} {}",
                k.code,
                strategy.name()
            );
            // One short of the space is the bound walk: every candidate is
            // measured, pruned or unreached, and a walk that leaves none
            // unreached is certified like the branch and bound.
            let short = search(strategy, size - 1, &k.program);
            assert_eq!(
                short.best.evaluated
                    + short.best.pruned
                    + unsupported_count(&short)
                    + short.unreached,
                size,
                "{} {}",
                k.code,
                strategy.name()
            );
            if short.unreached == 0 {
                assert_eq!(short.winner_index, exhaustive.winner_index, "{}", k.code);
                assert_eq!(short.record, exhaustive.record, "{}", k.code);
            }
            walked_apart += usize::from(short.trace != exhaustive.trace);
        }
    }
    assert!(
        walked_apart > 0,
        "no walk below the space differed from the branch and bound"
    );
}

#[test]
fn short_budgets_find_k21s_and_st5s_optima_at_16() {
    let space = SearchSpace::default();
    let k21 = suite().into_iter().find(|k| k.code == "K21").unwrap();
    let st5 = st5_256();
    let tile16 = PartitionScheme::Tile2D {
        tile_rows: 16,
        tile_cols: 16,
    };
    for (kernel, scheme, page) in [(&k21, tile16, 8), (&st5, PartitionScheme::Block, 256)] {
        let search = |params| {
            Searcher::new(&space, Box::<FastCountingOracle>::default(), params)
                .unwrap()
                .search(&kernel.program)
                .unwrap()
        };
        let exhaustive = search(params(Strategy::Exhaustive));
        assert_eq!(
            (exhaustive.best.scheme, exhaustive.best.page_size),
            (scheme, page),
            "{}",
            kernel.code
        );
        for strategy in [Strategy::Anneal, Strategy::Propagate] {
            let short = search(StrategyParams {
                budget: 16,
                ..params(strategy)
            });
            assert_eq!(
                short.record,
                exhaustive.record,
                "{} {}",
                kernel.code,
                strategy.name()
            );
            assert_eq!(
                short.winner_index, exhaustive.winner_index,
                "{}",
                kernel.code
            );
        }
    }
}

/// The short budgets the walk is certified at.
const SHORT_BUDGETS: [usize; 5] = [4, 8, 12, 16, 24];

#[test]
fn short_budget_reports_ignore_seed_and_spelling() {
    // Four kernels of different shapes at their reduced sizes.
    let space = SearchSpace::default();
    let kernels: Vec<&Kernel> = affine_registry()
        .iter()
        .filter(|k| ["K1", "K7", "K18", "ST5"].contains(&k.code))
        .collect();
    assert_eq!(kernels.len(), 4);
    for budget in SHORT_BUDGETS {
        let search = |strategy, seed, k: &Kernel| {
            let params = StrategyParams {
                strategy,
                seed,
                budget,
                ..StrategyParams::default()
            };
            let rep = Searcher::new(&space, Box::<FastCountingOracle>::default(), params)
                .unwrap()
                .search(&k.program)
                .unwrap();
            SearchReport {
                strategy: Strategy::Anneal,
                ..rep
            }
        };
        for &k in &kernels {
            let want = search(Strategy::Anneal, 1, k);
            assert!(
                want.trace.len() <= budget,
                "{} budget {budget}: overrun",
                k.code
            );
            for seed in 1..=10 {
                for strategy in [Strategy::Anneal, Strategy::Propagate] {
                    let got = search(strategy, seed, k);
                    assert_eq!(
                        got,
                        want,
                        "{} {} seed {seed} budget {budget}",
                        k.code,
                        strategy.name()
                    );
                }
            }
        }
    }
}

#[test]
fn the_bound_walk_finds_at_least_the_retired_walks_winners() {
    // How many of the 18 Livermore winners (scheme, page, remote %,
    // messages) the walks this one replaced matched at each short budget:
    // the better of sampled propagation and of seeded annealing's best
    // seed among 1–10.
    const RETIRED: [usize; 5] = [5, 10, 12, 14, 16];
    let space = SearchSpace::default();
    let kernels = suite();
    let winners = |params| {
        let searcher = Searcher::new(&space, Box::<FastCountingOracle>::default(), params).unwrap();
        kernels
            .iter()
            .map(|k| searcher.search(&k.program).unwrap().record)
            .collect::<Vec<_>>()
    };
    let exhaustive = winners(params(Strategy::Exhaustive));
    for (budget, retired) in SHORT_BUDGETS.into_iter().zip(RETIRED) {
        let found = winners(StrategyParams {
            budget,
            ..params(Strategy::Propagate)
        });
        let matched = found
            .iter()
            .zip(&exhaustive)
            .filter(|(a, b)| {
                let key = |r: &RunRecord| {
                    (
                        r.cfg.partition,
                        r.cfg.page_size,
                        r.remote_pct.to_bits(),
                        r.messages,
                    )
                };
                key(a) == key(b)
            })
            .count();
        assert!(
            matched >= retired,
            "budget {budget}: {matched} of {} winners, the retired walks found {retired}",
            kernels.len()
        );
    }
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

    // The space the bound walk exists for: nine schemes × six pages ×
    // seven topologies = 378 candidates around ST5 256². At the default
    // budget it spends at least 5× fewer oracle evaluations than
    // exhaustion, finds its winner's score, and re-queries for free.
    let st5 = st5_256();
    let space = expanded_space();
    let exhaustive = search_exhaustive_with(
        &st5.program,
        &space,
        &FastCountingOracle::default(),
        Objective::default(),
    )
    .unwrap();
    assert_eq!(exhaustive.evaluated, 378);
    let searcher = Searcher::new(
        &space,
        Box::<FastCountingOracle>::default(),
        params(Strategy::Propagate),
    )
    .unwrap();
    let rep = searcher.search(&st5.program).unwrap();
    assert!(
        rep.oracle_evals * 5 <= exhaustive.evaluated,
        "{} of {} evaluations",
        rep.oracle_evals,
        exhaustive.evaluated
    );
    assert_eq!(rep.best.score.to_bits(), exhaustive.score.to_bits());
    let requery = searcher.search(&st5.program).unwrap();
    assert_eq!(requery.oracle_evals, 0);
    assert_eq!(requery.best, rep.best);
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
    // An objective without an imbalance term is still bounded by the
    // remote-read floor, priced from the same profiles.
    let remote_only = searcher(Objective::RemoteOnly);
    remote_only.search(&k21.program).unwrap();
    assert!(remote_only.profile_builds() <= space.page_sizes.len());
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

    // The benchmark's `search_guided` walk: the bound walk at a budget of
    // 16 of 42 candidates.
    let short = StrategyParams {
        budget: 16,
        ..params(Strategy::Anneal)
    };
    let mut pruned = both(short, &[st5_256()]);
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

/// Every default candidate of `program` under a cache of `cache_elems`,
/// with its remote-read floor and its counted remote and total reads.
fn floors_and_counts(program: &Program, cache_elems: usize) -> Vec<(RunConfig, u64, u64, u64)> {
    let space = SearchSpace {
        cache_elems,
        ..SearchSpace::default()
    };
    let mut out = Vec::new();
    for &page_size in &space.page_sizes {
        let profile = AnchorProfile::new(program, page_size);
        for cfg in space.plan().configs().filter(|c| c.page_size == page_size) {
            let floor = profile.fetch_floor(cfg.partition, cfg.n_pes).unwrap_or(0);
            let rep = sapp::core::replay::counts(program, &cfg.machine())
                .unwrap_or_else(|e| panic!("{}: {e}", program.name));
            out.push((
                cfg,
                floor,
                rep.stats.remote_reads(),
                rep.stats.total_reads(),
            ));
        }
    }
    out
}

#[test]
fn remote_read_floors_never_exceed_the_remote_reads() {
    // The Livermore suite at the sizes `sapp search` searches, the other
    // registry programs reduced (official ST7 alone replays for seconds).
    let livermore = suite();
    let rest = workloads()
        .into_iter()
        .filter(|w| livermore.iter().all(|k| k.code != w.code));
    let (mut floored, mut static_reads) = (0, 0);
    for k in livermore.iter().cloned().chain(rest.map(|w| w.reduced())) {
        let every_page = k.program.total_elements();
        for cache in [256, 0, every_page] {
            for (cfg, floor, remote, total) in floors_and_counts(&k.program, cache) {
                assert!(
                    floor <= remote,
                    "{} {cfg:?}: floor {floor} above {remote} remote reads",
                    k.code
                );
                floored += usize::from(floor > 0);
                if let Some(reads) = read_count(&k.program) {
                    assert_eq!(reads, total, "{} {cfg:?}: reads miscounted", k.code);
                    static_reads += 1;
                }
            }
        }
    }
    assert!(floored > 0 && static_reads > 0, "the floor went untested");
}

#[test]
fn one_translation_read_is_floored_exactly_under_an_unbounded_cache() {
    // Every read is `Y(i + 4, j)`: 256 elements on, a whole number of
    // pages at every page size of the space, over whole pages of anchors.
    let mut b = ProgramBuilder::new("shifted copy");
    let y = b.input("Y", &[64, 64], InitPattern::Wavy);
    let x = b.output("X", &[64, 64]);
    b.nest("copy", &[("i", 0, 59), ("j", 0, 63)], |nb| {
        nb.assign(x, [iv(0), iv(1)], nb.read(y, [iv(0).plus(4), iv(1)]));
    });
    let program = b.finish();
    let mut remote = 0;
    for (cfg, floor, reads, _) in floors_and_counts(&program, program.total_elements()) {
        assert_eq!(floor, reads, "{cfg:?}");
        remote += reads;
    }
    assert!(remote > 0, "no candidate reads remotely");
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
        // The branch and bound, and the bound walk at short budgets — down
        // to 4 and up to one candidate short of the smaller space.
        let short = |budget| StrategyParams {
            budget,
            ..params(Strategy::Propagate)
        };
        for params in [params(Strategy::Exhaustive), short(4), short(8), short(14)] {
            let capping =
                Searcher::new(&space, Box::<FastCountingOracle>::default(), params).unwrap();
            let measuring = Searcher::new(
                &space,
                Box::new(MeasureOnly(FastCountingOracle::default())),
                params,
            )
            .unwrap();
            for k in &kernels {
                let got = capping.search(&k.program).unwrap();
                let want = measuring.search(&k.program).unwrap();
                assert_eq!(got, want, "{} {}", k.code, params.strategy.name());
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
