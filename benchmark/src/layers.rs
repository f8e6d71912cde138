//! Per-layer metrics: an in-process run over the same inputs as the five
//! workloads, with a span around every call into a layer's public
//! function. Layer = crate/module name.
//!
//! Everything here goes through `pub` items of the `sapp` facade only; the
//! README lists them, so a refactor knows which names this file pins.

use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sapp::core::exec::simulate;
use sapp::core::oracle::OracleError;
use sapp::core::parallel::par_map;
use sapp::core::plan::{ExperimentPlan, RunConfig};
use sapp::core::replay::counts;
use sapp::core::report;
use sapp::core::search::strategy::{
    program_fingerprint, Candidates, MemoOracle, SearchReport, Searcher, Strategy, StrategyOracle,
    StrategyParams,
};
use sapp::core::search::SearchSpace;
use sapp::core::{Engine, FastCountingOracle, Oracle, RunRecord, StaticOracle};
use sapp::ir::Program;
use sapp::lint::{self, DepGraph, LintConfig};
use sapp::loops::{self, suite, workloads, Kernel, Size};
use sapp::machine::{
    ArrayShape, CacheOutcome, CachePolicy, MachineConfig, Network, NetworkTopology, PageCache,
    PageKey, PartialPagePolicy, PartitionScheme, Placement,
};
use sapp::runtime::{execute, RuntimeConfig};

use crate::stats::q25;
use crate::trace::Trace;
use crate::workloads::WORKLOAD_NAMES;

/// Repetitions per timing (half as many for items over about a second);
/// the lower quartile is reported.
pub const REPS: usize = 10;

/// Every per-layer metric: `(name, unit, better)`. `BENCHMARK.json` lists
/// exactly these (a unit test holds the two together), and a traced run
/// emits exactly these.
pub const PER_LAYER: [(&str, &str, &str); 71] = [
    ("sa_loops.build_registry_ms", "ms", "lower"),
    ("sa_loops.build_st5_4096_ms", "ms", "lower"),
    ("exec.simulate_st5_256_ms", "ms", "lower"),
    ("exec.simulate_k18_1e5_ms", "ms", "lower"),
    ("exec.mrefs_per_s", "Mref/s", "higher"),
    ("replay.counts_st5_4096_nocache_ms", "ms", "lower"),
    ("replay.counts_st5_4096_cache_ms", "ms", "lower"),
    ("replay.counts_st5_1024_tile_mesh_ms", "ms", "lower"),
    ("replay.counts_k18_1e5_ms", "ms", "lower"),
    ("replay.counts_spmv_ms", "ms", "lower"),
    ("replay.mrefs_per_s", "Mref/s", "higher"),
    ("replay.counts_livermore_ms", "ms", "lower"),
    ("replay.unsupported_fallbacks", "count", "lower"),
    ("replay.counts_st5_256_ms", "ms", "lower"),
    ("estimate.st5_4096_ms", "ms", "lower"),
    ("estimate.st5_256_ms", "ms", "lower"),
    ("placement.owned_intervals_us_modulo", "us", "lower"),
    ("placement.owned_intervals_us_block", "us", "lower"),
    ("placement.owned_intervals_us_blockcyclic", "us", "lower"),
    ("placement.owned_intervals_us_rowband", "us", "lower"),
    ("placement.owned_intervals_us_tile2d", "us", "lower"),
    ("placement.owner_of_addr_ns", "ns", "lower"),
    ("cache.probe_insert_ns", "ns", "lower"),
    ("network.record_fetches_ns_ideal", "ns", "lower"),
    ("network.record_fetches_ns_mesh2d", "ns", "lower"),
    ("network.merge_us", "us", "lower"),
    ("oracle.measure_ms_replay", "ms", "lower"),
    ("oracle.measure_ms_static", "ms", "lower"),
    ("oracle.measure_ms_strategy", "ms", "lower"),
    ("search.anneal_ms", "ms", "lower"),
    ("search.propagate_ms", "ms", "lower"),
    ("search.exhaustive_ms", "ms", "lower"),
    ("search.warm_requery_ms", "ms", "lower"),
    ("search.oracle_time_ms", "ms", "lower"),
    ("search.walk_self_ms", "ms", "lower"),
    ("search.ms_per_touched", "ms", "lower"),
    ("search.materialize_us", "us", "lower"),
    ("search.touched", "count", "lower"),
    ("search.oracle_evals", "count", "lower"),
    ("search.memo_hits", "count", "higher"),
    ("memo.fingerprint_us", "us", "lower"),
    ("memo.hit_ns", "ns", "lower"),
    ("lint.writeonce_ms", "ms", "lower"),
    ("lint.progress_ms", "ms", "lower"),
    ("lint.partition_ms", "ms", "lower"),
    ("depgraph.build_ms", "ms", "lower"),
    ("depgraph.check_deadlock_ms", "ms", "lower"),
    ("depgraph.speedup_bound_ms", "ms", "lower"),
    ("lint.program_ms_st5", "ms", "lower"),
    ("lint.program_ms_st9", "ms", "lower"),
    ("lint.program_ms_st7", "ms", "lower"),
    ("lint.program_ms_rest", "ms", "lower"),
    ("lint.diagnostics", "count", "lower"),
    ("plan.livermore_grid_ms", "ms", "lower"),
    ("plan.points_per_s", "1/s", "higher"),
    ("parallel.par_map_overhead_us", "us", "lower"),
    ("report.render_json_us", "us", "lower"),
    ("runtime.execute_ms_pe4", "ms", "lower"),
    ("runtime.execute_ms_pe64", "ms", "lower"),
    ("runtime.ms_per_pe", "ms", "lower"),
    ("runtime.us_per_message", "us", "lower"),
    ("runtime.messages", "count", "lower"),
    ("runtime.wait_edges", "count", "lower"),
    ("cli.spawn_floor_ms", "ms", "lower"),
    ("cli.inprocess_ms", "ms", "lower"),
    ("cli.overhead_ms", "ms", "lower"),
    ("harness.wall_ms_p50", "ms", "lower"),
    ("harness.wall_ms_tail", "ms", "lower"),
    ("harness.ops_per_s", "1/s", "higher"),
    ("harness.warmup_ms", "ms", "lower"),
    ("harness.rounds", "count", "higher"),
];

/// Unit of a per-layer metric.
pub fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"))
        .1
}

/// The library half of a traced run.
pub struct Layers {
    pub trace: Arc<Trace>,
    /// Repetitions per timing in the group being run.
    reps: usize,
    /// The same for items over about a second.
    heavy_reps: usize,
    seed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

/// A probe group and the workloads it feeds.
type Group = (fn(&mut Layers), &'static [&'static str]);

/// The probe groups in run order, each with the workloads whose
/// end-to-end numbers it should move (the "→" lists in the README). The
/// first feeds all five: the interpreter is every workload's `setup_s`.
const GROUPS: [Group; 10] = [
    (Layers::loops_exec_replay_estimate, &WORKLOAD_NAMES),
    (Layers::machine, &["count_scale", "search_guided"]),
    (Layers::oracle, &["registry_search", "search_guided"]),
    (Layers::guided_search, &["search_guided"]),
    (Layers::exhaustive_search, &["registry_search"]),
    (Layers::lint_passes, &["lint_registry"]),
    (Layers::depgraph, &["lint_registry", "search_guided"]),
    (Layers::lint_programs, &["lint_registry"]),
    (Layers::plan_parallel_report, &["registry_search"]),
    (Layers::runtime, &["thread_engine"]),
];

fn registry_entry(code: &str) -> loops::Workload {
    loops::workload(code).unwrap_or_else(|| panic!("{code} left the registry"))
}

/// All 26 registry programs at their official sizes, as `sapp lint --all`
/// builds them.
fn registry_kernels() -> Vec<Kernel> {
    workloads().iter().map(|w| w.official()).collect()
}

fn kernel(code: &str, size: Size) -> Kernel {
    registry_entry(code).build(size)
}

fn st5(n: usize, sweeps: usize) -> Kernel {
    kernel(
        "ST5",
        Size::Grid2 {
            nx: n,
            ny: n,
            sweeps,
        },
    )
}

/// The machine `sapp simulate` builds from `--pes N [--no-cache]`.
fn machine(pes: usize, cached: bool) -> MachineConfig {
    MachineConfig::new(pes, 32).with_cache_elems(if cached { 256 } else { 0 })
}

fn tile_mesh() -> MachineConfig {
    machine(64, false)
        .with_partition(PartitionScheme::Tile2D {
            tile_rows: 64,
            tile_cols: 64,
        })
        .with_network(NetworkTopology::Mesh2D)
}

/// `search_bench`'s expanded ST5 space: 9 schemes × 6 page sizes × 7
/// topologies = 378 candidates at 16 PEs / 256-element cache.
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
        page_sizes: vec![8, 16, 32, 64, 128, 256],
        networks: vec![
            NetworkTopology::Ideal,
            NetworkTopology::Crossbar,
            NetworkTopology::Bus,
            NetworkTopology::Ring,
            NetworkTopology::Mesh2D,
            NetworkTopology::Torus2D,
            NetworkTopology::Hypercube,
        ],
        n_pes: 16,
        cache_elems: 256,
    }
}

/// The harness's own timing `impl Oracle`: every evaluation becomes a
/// child span of whatever search called it, and the time adds up here.
struct TimedOracle {
    inner: StrategyOracle,
    trace: Arc<Trace>,
    ns: Arc<AtomicU64>,
}

impl Oracle for TimedOracle {
    fn name(&self) -> &'static str {
        "timed"
    }

    fn measure(&self, program: &Program, cfg: &RunConfig) -> Result<RunRecord, OracleError> {
        let (r, ms) = self.trace.span("oracle::StrategyOracle::measure", 1, || {
            self.inner.measure(program, cfg)
        });
        self.ns.fetch_add((ms * 1e6) as u64, Ordering::Relaxed);
        r
    }
}

/// The JSON table `sapp search --format json` prints for `rows` reports.
fn search_table(rows: &[Vec<String>]) -> String {
    report::json(
        &[
            "kernel",
            "class",
            "best_scheme",
            "best_page_size",
            "remote_pct",
            "write_balance",
            "messages",
            "evaluated",
            "pruned",
            "oracle_evals",
        ],
        rows,
    )
}

/// One row of that table, as `sapp search` fills it.
fn search_row(k: &Kernel, r: &SearchReport) -> Vec<String> {
    vec![
        k.code.to_string(),
        k.class_abbrev().to_string(),
        r.best.scheme.name(),
        r.best.page_size.to_string(),
        report::fmt_pct(r.best.remote_pct),
        format!("{:.3}", r.best.write_balance),
        r.best.messages.to_string(),
        r.best.evaluated.to_string(),
        r.best.pruned.to_string(),
        r.oracle_evals.to_string(),
    ]
}

impl Layers {
    pub fn new(trace: Arc<Trace>, seed: u64) -> Layers {
        Layers {
            trace,
            reps: REPS,
            heavy_reps: REPS.div_ceil(2),
            seed,
            metrics: Vec::new(),
        }
    }

    pub fn put(&mut self, name: &'static str, value: f64) {
        unit_of(name); // declared?
        self.metrics.push((name, value));
    }

    /// Lower quartile, ms, of `reps` spans named `name` around `f`.
    fn time(&self, name: &str, count: u64, reps: usize, mut f: impl FnMut()) -> f64 {
        let samples: Vec<f64> = (0..reps)
            .map(|_| self.trace.span(name, count, &mut f).1)
            .collect();
        q25(&samples)
    }

    /// A searcher over `space` whose oracle is timed; the counter holds
    /// the oracle nanoseconds spent so far.
    fn searcher(
        &self,
        space: &SearchSpace,
        strategy: Strategy,
        seed: u64,
        budget: usize,
    ) -> (Searcher, Arc<AtomicU64>) {
        let ns = Arc::new(AtomicU64::new(0));
        let oracle = TimedOracle {
            inner: StrategyOracle::default(),
            trace: Arc::clone(&self.trace),
            ns: Arc::clone(&ns),
        };
        let params = StrategyParams {
            strategy,
            seed,
            budget,
            ..StrategyParams::default()
        };
        let s = Searcher::new(space, Box::new(oracle), params).expect("the space is valid");
        (s, ns)
    }

    /// Every library-layer probe at [`REPS`] repetitions. A traced run of
    /// one workload (`focus`) has no time for that — the whole suite is
    /// three minutes — so there the groups that workload does not map to
    /// take a single sample: still this build's number, but only `bench
    /// layers` gives it at full repetitions.
    pub fn run_all(&mut self, focus: Option<&str>) {
        for (group, feeds) in GROUPS {
            self.reps = if focus.is_none_or(|w| feeds.contains(&w)) {
                REPS
            } else {
                1
            };
            self.heavy_reps = self.reps.div_ceil(2);
            group(self);
        }
    }

    fn loops_exec_replay_estimate(&mut self) {
        let (reps, heavy) = (self.reps, self.heavy_reps);
        let v = self.time("sa_loops::Workload::official[registry]", 26, reps, || {
            std::hint::black_box(registry_kernels());
        });
        self.put("sa_loops.build_registry_ms", v);
        let v = self.time("sa_loops::Workload::build[st5_4096]", 1, reps, || {
            std::hint::black_box(st5(4096, 2));
        });
        self.put("sa_loops.build_st5_4096_ms", v);

        let st5_4096 = st5(4096, 2);
        let st5_1024 = st5(1024, 2);
        let st5_256 = st5(256, 2);
        let k18 = kernel("K18", Size::N(100_000));
        let spmv = registry_entry("SPMV").official();

        // sa_core::exec — the paper's own simulator.
        let v = self.time("exec::simulate[st5_256]", 1, reps, || {
            simulate(&st5_256.program, &machine(16, true)).expect("interp runs ST5");
        });
        self.put("exec.simulate_st5_256_ms", v);
        let mut refs = 0u64;
        let v = self.time("exec::simulate[k18_1e5]", 1, heavy, || {
            let rep = simulate(&k18.program, &machine(16, true)).expect("interp runs K18");
            refs = rep.stats.total_reads() + rep.stats.writes();
        });
        self.put("exec.simulate_k18_1e5_ms", v);
        self.put("exec.mrefs_per_s", refs as f64 / 1e6 / (v / 1e3));

        // sa_core::replay — the five count_scale configurations.
        let replay = |me: &Self, tag: &str, p: &Program, cfg: &MachineConfig| {
            me.time(&format!("replay::counts[{tag}]"), 1, reps, || {
                counts(p, cfg).expect("replay accepts this workload");
            })
        };
        let v = replay(
            self,
            "st5_4096_nocache",
            &st5_4096.program,
            &machine(64, false),
        );
        self.put("replay.counts_st5_4096_nocache_ms", v);
        let v = replay(
            self,
            "st5_4096_cache",
            &st5_4096.program,
            &machine(64, true),
        );
        self.put("replay.counts_st5_4096_cache_ms", v);
        let v = replay(self, "st5_1024_tile_mesh", &st5_1024.program, &tile_mesh());
        self.put("replay.counts_st5_1024_tile_mesh_ms", v);
        let v = replay(self, "k18_1e5", &k18.program, &machine(16, true));
        self.put("replay.counts_k18_1e5_ms", v);
        self.put("replay.mrefs_per_s", refs as f64 / 1e6 / (v / 1e3));
        let v = replay(self, "spmv", &spmv.program, &machine(16, true));
        self.put("replay.counts_spmv_ms", v);
        let v = replay(self, "st5_256", &st5_256.program, &machine(16, true));
        self.put("replay.counts_st5_256_ms", v);

        // The 18 Livermore kernels at the reference config; the ones
        // replay declines are what `auto` hands to the interpreter.
        let livermore = suite();
        let mut declined = 0u64;
        let v = self.time("replay::counts[livermore]", 18, reps, || {
            declined = livermore
                .iter()
                .filter(|k| counts(&k.program, &machine(16, true)).is_err())
                .count() as u64;
        });
        self.put("replay.counts_livermore_ms", v);
        self.put("replay.unsupported_fallbacks", declined as f64);

        // sa_lint::estimate — the zero-execution counterpart of replay.
        let v = self.time("lint::estimate[st5_4096]", 1, reps, || {
            lint::estimate(&st5_4096.program, &machine(64, false)).expect("ST5 is affine");
        });
        self.put("estimate.st5_4096_ms", v);
        let v = self.time("lint::estimate[st5_256]", 1, reps, || {
            lint::estimate(&st5_256.program, &machine(16, false)).expect("ST5 is affine");
        });
        self.put("estimate.st5_256_ms", v);
    }

    /// sa_machine: placement, cache, network.
    fn machine(&mut self) {
        let reps = self.reps;
        // Σ over 64 PEs of the owned page intervals of a 4096² array.
        let shape = ArrayShape::from_dims(&[4096, 4096]);
        let schemes: [(&'static str, PartitionScheme); 5] = [
            (
                "placement.owned_intervals_us_modulo",
                PartitionScheme::Modulo,
            ),
            ("placement.owned_intervals_us_block", PartitionScheme::Block),
            (
                "placement.owned_intervals_us_blockcyclic",
                PartitionScheme::BlockCyclic { block_pages: 4 },
            ),
            (
                "placement.owned_intervals_us_rowband",
                PartitionScheme::RowBand,
            ),
            (
                "placement.owned_intervals_us_tile2d",
                PartitionScheme::Tile2D {
                    tile_rows: 64,
                    tile_cols: 64,
                },
            ),
        ];
        for (metric, scheme) in schemes {
            let pl = Placement::new(scheme, 32, 64, shape);
            let last = pl.pages() - 1;
            let span = format!("placement::owned_page_intervals[{}]", scheme.name());
            let v = self.time(&span, 64, reps, || {
                let mut pages = 0usize;
                for pe in 0..64 {
                    pl.owned_page_intervals(pe, 0, last, |a, b| pages += b - a);
                }
                assert_eq!(pages, last + 1, "{scheme:?} lost pages");
            });
            self.put(metric, v * 1e3);
        }
        let pl = Placement::new(schemes[4].1, 32, 64, shape);
        const ADDRS: u64 = 1 << 20;
        let v = self.time("placement::owner_of_addr[tile2d]", ADDRS, reps, || {
            let mut acc = 0usize;
            for i in 0..ADDRS as usize {
                acc += pl.owner_of_addr((i * 4099) % shape.len);
            }
            std::hint::black_box(acc);
        });
        self.put("placement.owner_of_addr_ns", v * 1e6 / ADDRS as f64);

        // 8-page LRU under a cyclic stream of 16 pages, four element reads
        // per page visit: one miss+insert+evict, then three hits.
        const PROBES: u64 = 1 << 20;
        let v = self.time("cache::PageCache::probe+insert[lru8]", PROBES, reps, || {
            let mut cache = PageCache::new(8, CachePolicy::Lru);
            for i in 0..PROBES as usize {
                let key = PageKey {
                    array: 0,
                    page: (i / 4) % 16,
                    generation: 0,
                };
                if cache.probe(key, i % 4, PartialPagePolicy::Ignore) != CacheOutcome::Hit {
                    cache.insert(key, None);
                }
            }
            assert_eq!(cache.hit_stats(), (PROBES * 3 / 4, PROBES / 4));
        });
        self.put("cache.probe_insert_ns", v * 1e6 / PROBES as f64);

        // All 64×64 (from, to) pairs, a few times over.
        const SWEEPS: u64 = 8;
        for (metric, topo) in [
            ("network.record_fetches_ns_ideal", NetworkTopology::Ideal),
            ("network.record_fetches_ns_mesh2d", NetworkTopology::Mesh2D),
        ] {
            let span = format!("network::Network::record_fetches[{}]", topo.name());
            let calls = SWEEPS * 64 * 64;
            let v = self.time(&span, calls, reps, || {
                let mut net = Network::new(topo, 64);
                for _ in 0..SWEEPS {
                    for from in 0..64 {
                        for to in 0..64 {
                            net.record_fetches(from, to, 3);
                        }
                    }
                }
                assert_eq!(net.messages, 2 * 3 * calls);
            });
            self.put(metric, v * 1e6 / calls as f64);
        }
        let shards: Vec<Network> = (0..64)
            .map(|pe| {
                let mut n = Network::new(NetworkTopology::Mesh2D, 64);
                for to in 0..64 {
                    n.record_fetches(pe, to, 5);
                }
                n
            })
            .collect();
        let v = self.time("network::Network::merge[64 shards]", 64, reps, || {
            let mut net = Network::new(NetworkTopology::Mesh2D, 64);
            for s in &shards {
                net.merge(s);
            }
            assert_eq!(net.messages, 2 * 5 * 64 * 64);
        });
        self.put("network.merge_us", v * 1e3);
    }

    /// sa_core::oracle: one measurement of ST5 256² per oracle.
    fn oracle(&mut self) {
        let reps = self.reps;
        let p = st5(256, 2).program;
        let cached = RunConfig::default(); // 16 PEs, page 32, 256-element cache
        let uncached = RunConfig {
            cache_elems: 0,
            ..RunConfig::default()
        };
        let replay = FastCountingOracle::with_engine(Engine::Replay);
        let v = self.time(
            "oracle::FastCountingOracle::measure[replay]",
            1,
            reps,
            || {
                replay.measure(&p, &cached).expect("replay measures ST5");
            },
        );
        self.put("oracle.measure_ms_replay", v);
        let v = self.time("oracle::StaticOracle::measure", 1, reps, || {
            StaticOracle
                .measure(&p, &uncached)
                .expect("static measures uncached ST5");
        });
        self.put("oracle.measure_ms_static", v);
        let strategy = StrategyOracle::default();
        let v = self.time("oracle::StrategyOracle::measure", 1, reps, || {
            strategy.measure(&p, &cached).expect("hybrid measures ST5");
        });
        self.put("oracle.measure_ms_strategy", v);
    }

    /// One search of ST5 256² over the expanded space per repetition, on a
    /// fresh searcher each time.
    fn search(&mut self, metric: &'static str, strategy: Strategy) {
        let (p, space) = (st5(256, 2).program, expanded_space());
        let span = format!("search::Searcher::search[{}]", strategy.name());
        let v = self.time(&span, 1, self.heavy_reps, || {
            let (s, _) = self.searcher(&space, strategy, self.seed, 64);
            s.search(&p).expect("search handles ST5");
        });
        self.put(metric, v);
    }

    /// sa_core::search's guided walks and the memo under them.
    fn guided_search(&mut self) {
        let (reps, heavy) = (self.reps, self.heavy_reps);
        let p = st5(256, 2).program;
        let space = expanded_space();
        let v = self.time("search::Candidates::materialize[378]", 378, reps, || {
            Candidates::materialize(&space).expect("the space is valid");
        });
        self.put("search.materialize_us", v * 1e3);

        // Anneal, cold then warm, per repetition on a fresh searcher.
        let (mut cold, mut warm, mut oracle_ms) = (Vec::new(), Vec::new(), Vec::new());
        let (mut touched, mut evals, mut hits) = (0, 0, 0);
        for _ in 0..heavy {
            let (s, ns) = self.searcher(&space, Strategy::Anneal, self.seed, 64);
            let (rep, ms) = self.trace.span("search::Searcher::search[anneal]", 1, || {
                s.search(&p).expect("anneal")
            });
            cold.push(ms);
            oracle_ms.push(ns.load(Ordering::Relaxed) as f64 / 1e6);
            touched = rep.trace.len();
            evals = rep.oracle_evals;
            let (again, ms) = self
                .trace
                .span("search::Searcher::search[anneal, warm]", 1, || {
                    s.search(&p).expect("warm re-query")
                });
            warm.push(ms);
            hits = again.cache_hits;
            assert_eq!(again.oracle_evals, 0, "a warm re-query paid oracle calls");
        }
        let anneal = q25(&cold);
        let oracle = q25(&oracle_ms);
        self.put("search.anneal_ms", anneal);
        self.put("search.warm_requery_ms", q25(&warm));
        self.put("search.oracle_time_ms", oracle);
        self.put("search.walk_self_ms", anneal - oracle);
        self.put("search.ms_per_touched", anneal / touched as f64);
        self.put("search.touched", touched as f64);
        self.put("search.oracle_evals", evals as f64);
        self.put("search.memo_hits", hits as f64);
        self.search("search.propagate_ms", Strategy::Propagate);

        let v = self.time(
            "search::strategy::program_fingerprint[st5_256]",
            1,
            reps,
            || {
                std::hint::black_box(program_fingerprint(&p));
            },
        );
        self.put("memo.fingerprint_us", v * 1e3);
        let cached = RunConfig::default();
        let memo = MemoOracle::new(Box::<StrategyOracle>::default());
        memo.measure(&p, &cached)
            .expect("first measure fills the memo");
        const HITS: u64 = 256;
        let v = self.time(
            "search::strategy::MemoOracle::measure[hit]",
            HITS,
            reps,
            || {
                for _ in 0..HITS {
                    memo.measure(&p, &cached).expect("memo hit");
                }
            },
        );
        assert_eq!(memo.misses(), 1);
        self.put("memo.hit_ns", v * 1e6 / HITS as f64);
    }

    /// The serial pruned sweep `sapp search` runs per kernel.
    fn exhaustive_search(&mut self) {
        self.search("search.exhaustive_ms", Strategy::Exhaustive);
    }

    /// One sa_lint pass, Σ over the 26 kernels run serially.
    fn lint_pass(&mut self, metric: &'static str, span: &str, pass: impl Fn(&Program)) {
        let kernels = registry_kernels();
        let v = self.time(&format!("{span}[registry]"), 26, self.reps, || {
            for k in &kernels {
                pass(&k.program);
            }
        });
        self.put(metric, v);
    }

    fn lint_passes(&mut self) {
        let cfg = LintConfig::default();
        self.lint_pass("lint.writeonce_ms", "lint::check_write_once", |p| {
            std::hint::black_box(lint::check_write_once(p));
        });
        self.lint_pass("lint.progress_ms", "lint::check_progress", |p| {
            std::hint::black_box(lint::check_progress(p));
        });
        self.lint_pass("lint.partition_ms", "lint::check_partition", |p| {
            std::hint::black_box(lint::check_partition(
                p,
                cfg.n_pes,
                cfg.page_size,
                cfg.scheme,
            ));
        });
    }

    /// sa_lint::depgraph — also what propagation and bound pruning call
    /// per guided-search query.
    fn depgraph(&mut self) {
        let cfg = LintConfig::default();
        self.lint_pass("depgraph.build_ms", "lint::DepGraph::build", |p| {
            std::hint::black_box(DepGraph::build(p));
        });
        self.lint_pass("depgraph.check_deadlock_ms", "lint::check_deadlock", |p| {
            std::hint::black_box(lint::check_deadlock(p, &cfg));
        });
        self.lint_pass("depgraph.speedup_bound_ms", "lint::speedup_bound", |p| {
            std::hint::black_box(lint::speedup_bound(p, &cfg));
        });
    }

    /// Whole-program lint, per kernel: the three stencils against the
    /// other 23.
    fn lint_programs(&mut self) {
        let kernels = registry_kernels();
        let cfg = LintConfig::default();
        let (mut st, mut rest) = ([Vec::new(), Vec::new(), Vec::new()], Vec::new());
        let mut diagnostics = 0;
        for _ in 0..self.reps {
            let mut others = 0.0;
            diagnostics = 0;
            for k in &kernels {
                let (d, ms) =
                    self.trace
                        .span(&format!("lint::lint_program[{}]", k.code), 1, || {
                            lint::lint_program(&k.program, &cfg)
                        });
                diagnostics += d.len();
                match k.code {
                    "ST5" => st[0].push(ms),
                    "ST9" => st[1].push(ms),
                    "ST7" => st[2].push(ms),
                    _ => others += ms,
                }
            }
            rest.push(others);
        }
        self.put("lint.program_ms_st5", q25(&st[0]));
        self.put("lint.program_ms_st9", q25(&st[1]));
        self.put("lint.program_ms_st7", q25(&st[2]));
        self.put("lint.program_ms_rest", q25(&rest));
        self.put("lint.diagnostics", diagnostics as f64);
    }

    fn plan_parallel_report(&mut self) {
        let reps = self.reps;
        // The paper's figure grid: 18 kernels × PEs {1..64} × page {32,64}
        // × cache on/off = 504 points.
        let livermore = suite();
        let codes: Vec<&str> = livermore.iter().map(|k| k.code).collect();
        let programs: Vec<(&str, &Program)> =
            livermore.iter().map(|k| (k.code, &k.program)).collect();
        let plan = ExperimentPlan::new()
            .kernels(&codes)
            .pes(&[1, 2, 4, 8, 16, 32, 64])
            .page_sizes(&[32, 64])
            .cache_flags(&[true, false]);
        let points = plan.len();
        assert_eq!(points, 504);
        let v = self.time(
            "plan::ExperimentPlan::run_kernels[livermore grid]",
            504,
            reps,
            || {
                let rs = plan
                    .run_kernels(&programs, &FastCountingOracle::default())
                    .expect("the grid runs");
                assert_eq!(rs.len(), points);
            },
        );
        self.put("plan.livermore_grid_ms", v);
        self.put("plan.points_per_s", points as f64 / (v / 1e3));

        let items = vec![0u32; 504];
        let v = self.time("parallel::par_map[504 no-ops]", 504, reps, || {
            par_map(&items, |x| Ok::<_, Infallible>(*x)).unwrap_or_else(|e| match e {});
        });
        self.put("parallel.par_map_overhead_us", v * 1e3);

        let rows: Vec<Vec<String>> = (0..18)
            .map(|i| {
                vec![
                    format!("K{i}"),
                    "SD".into(),
                    "rowband".into(),
                    "64".into(),
                    "0.73%".into(),
                    "0.996".into(),
                    "180".into(),
                    "23".into(),
                    "19".into(),
                    "23".into(),
                ]
            })
            .collect();
        let v = self.time("report::json[18x10]", 1, reps, || {
            std::hint::black_box(search_table(&rows));
        });
        self.put("report.render_json_us", v * 1e3);
    }

    fn runtime(&mut self) {
        let reps = self.reps;
        let p = st5(256, 1).program;
        let run = |me: &Self, pes: usize| {
            let cfg = RuntimeConfig::from_machine(&machine(pes, false));
            let (mut messages, mut waits) = (0, 0);
            let v = me.time(&format!("runtime::execute[pe{pes}]"), 1, reps, || {
                let rep = execute(&p, &cfg).expect("threads run ST5");
                messages = rep.messages;
                waits = rep.wait_edges.len();
            });
            (v, messages, waits)
        };
        let (pe4, _, _) = run(self, 4);
        let (pe64, messages, waits) = run(self, 64);
        self.put("runtime.execute_ms_pe4", pe4);
        self.put("runtime.execute_ms_pe64", pe64);
        self.put("runtime.ms_per_pe", (pe64 - pe4) / 60.0);
        self.put("runtime.us_per_message", pe64 * 1e3 / messages as f64);
        self.put("runtime.messages", messages as f64);
        self.put("runtime.wait_edges", waits as f64);
    }

    /// One in-process equivalent of `workload`'s round: the library calls
    /// `sapp` makes for the same ops, without the process around them.
    /// Returns its milliseconds. `cli.overhead_ms` is the CLI round's
    /// `wall_ms_q25` minus the lower quartile of these.
    pub fn inprocess_round(&self, workload: &str) -> f64 {
        let name = format!("inprocess[{workload}]");
        let t = &self.trace;
        let ((), ms) = t.span(&name, 1, || match workload {
            "registry_search" => {
                let kernels = t.span("sa_loops::suite", 18, suite).0;
                let (s, _) =
                    self.searcher(&SearchSpace::default(), Strategy::Exhaustive, self.seed, 64);
                let parent = t.current();
                let reports = par_map(&kernels, |k| {
                    Ok::<_, Infallible>(
                        t.span_under(
                            parent,
                            &format!("search::Searcher::search[{}]", k.code),
                            1,
                            || s.search(&k.program).expect("registry search"),
                        )
                        .0,
                    )
                })
                .unwrap_or_else(|e| match e {});
                let rows: Vec<Vec<String>> = kernels
                    .iter()
                    .zip(&reports)
                    .map(|(k, r)| search_row(k, r))
                    .collect();
                t.span("report::json", 1, || {
                    std::hint::black_box(search_table(&rows))
                });
            }
            "count_scale" => {
                let replay = |tag: &str, k: Kernel, cfg: MachineConfig| {
                    t.span(&format!("replay::counts[{tag}]"), 1, || {
                        counts(&k.program, &cfg).expect("replay accepts this workload")
                    });
                };
                let build = |tag: &str, f: &dyn Fn() -> Kernel| {
                    t.span(&format!("sa_loops::Workload::build[{tag}]"), 1, f).0
                };
                replay(
                    "st5_4096_nocache",
                    build("st5_4096", &|| st5(4096, 2)),
                    machine(64, false),
                );
                replay(
                    "st5_4096_cache",
                    build("st5_4096", &|| st5(4096, 2)),
                    machine(64, true),
                );
                let k = build("st5_4096", &|| st5(4096, 2));
                t.span("lint::estimate[st5_4096]", 1, || {
                    lint::estimate(&k.program, &machine(64, false)).expect("ST5 is affine")
                });
                replay(
                    "st5_1024_tile_mesh",
                    build("st5_1024", &|| st5(1024, 2)),
                    tile_mesh(),
                );
                replay(
                    "k18_1e5",
                    build("k18_1e5", &|| kernel("K18", Size::N(100_000))),
                    machine(16, true),
                );
                replay(
                    "spmv",
                    build("spmv", &|| registry_entry("SPMV").official()),
                    machine(16, true),
                );
            }
            "search_guided" => {
                for (strategy, seed) in [
                    (Strategy::Anneal, self.seed),
                    (Strategy::Anneal, self.seed + 1),
                    (Strategy::Propagate, self.seed),
                ] {
                    let k = t
                        .span("sa_loops::Workload::build[st5_256]", 1, || st5(256, 2))
                        .0;
                    let (s, _) = self.searcher(&SearchSpace::default(), strategy, seed, 16);
                    let span = format!("search::Searcher::search[{}, budget 16]", strategy.name());
                    let r = t
                        .span(&span, 1, || s.search(&k.program).expect("guided search"))
                        .0;
                    t.span("report::json", 1, || {
                        std::hint::black_box(search_table(&[search_row(&k, &r)]))
                    });
                }
            }
            "lint_registry" => {
                let kernels = t
                    .span(
                        "sa_loops::Workload::official[registry]",
                        26,
                        registry_kernels,
                    )
                    .0;
                let cfg = LintConfig::default();
                let parent = t.current();
                let linted = par_map(&kernels, |k| {
                    Ok::<_, Infallible>(
                        t.span_under(
                            parent,
                            &format!("lint::lint_program[{}]", k.code),
                            1,
                            || lint::lint_program(&k.program, &cfg),
                        )
                        .0,
                    )
                })
                .unwrap_or_else(|e| match e {});
                t.span("lint::to_json_array", 26, || {
                    for d in &linted {
                        std::hint::black_box(lint::to_json_array(d));
                    }
                });
            }
            "thread_engine" => {
                for pes in [64, 4] {
                    let k = t
                        .span("sa_loops::Workload::build[st5_256]", 1, || st5(256, 1))
                        .0;
                    let cfg = RuntimeConfig::from_machine(&machine(pes, false));
                    t.span(&format!("runtime::execute[pe{pes}]"), 1, || {
                        execute(&k.program, &cfg).expect("threads run ST5")
                    });
                }
            }
            other => panic!("no in-process round for workload {other}"),
        });
        ms
    }
}
