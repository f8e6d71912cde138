//! Ablation benches: partitioning scheme, cache size, replacement policy,
//! partial-page semantics, the timing extension, and the automatic scheme
//! search built on the plan API.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use sa_core::search::SearchSpace;
use sa_core::{estimate_timing, simulate, CountingOracle, Searcher, StrategyParams};
use sa_loops::{k01_hydro, k06_glre};
use sa_machine::{CachePolicy, MachineConfig, PartialPagePolicy, PartitionScheme};

fn bench_partition(c: &mut Criterion) {
    let kernel = k01_hydro::build(1001);
    let mut g = c.benchmark_group("ablation_partition");
    g.sample_size(20);
    for scheme in [
        PartitionScheme::Modulo,
        PartitionScheme::Block,
        PartitionScheme::BlockCyclic { block_pages: 4 },
    ] {
        g.bench_with_input(
            BenchmarkId::from_parameter(scheme.name()),
            &scheme,
            |b, &s| {
                let cfg = MachineConfig::new(16, 32).with_partition(s);
                b.iter(|| simulate(black_box(&kernel.program), &cfg).unwrap())
            },
        );
    }
    g.finish();
}

fn bench_cache_size(c: &mut Criterion) {
    let kernel = k06_glre::build(64);
    let mut g = c.benchmark_group("ablation_cache_size");
    g.sample_size(20);
    for elems in [0usize, 256, 1024, 4096] {
        g.bench_with_input(BenchmarkId::from_parameter(elems), &elems, |b, &e| {
            let cfg = MachineConfig::new(16, 32).with_cache_elems(e);
            b.iter(|| simulate(black_box(&kernel.program), &cfg).unwrap())
        });
    }
    g.finish();
}

fn bench_policy_and_partial(c: &mut Criterion) {
    let kernel = k01_hydro::build(1001);
    let mut g = c.benchmark_group("ablation_policy");
    g.sample_size(20);
    for (name, policy) in [
        ("lru", CachePolicy::Lru),
        ("fifo", CachePolicy::Fifo),
        ("random", CachePolicy::Random { seed: 7 }),
    ] {
        g.bench_function(name, |b| {
            let cfg = MachineConfig::new(16, 32).with_cache_policy(policy);
            b.iter(|| simulate(black_box(&kernel.program), &cfg).unwrap())
        });
    }
    g.bench_function("partial_refetch", |b| {
        let cfg = MachineConfig::new(16, 32).with_partial_pages(PartialPagePolicy::Refetch);
        b.iter(|| simulate(black_box(&kernel.program), &cfg).unwrap())
    });
    g.finish();
}

fn bench_timing_extension(c: &mut Criterion) {
    let kernel = k01_hydro::build(1001);
    let mut g = c.benchmark_group("timing_extension");
    g.sample_size(10);
    g.bench_function("estimate_timing_16pe", |b| {
        let cfg = MachineConfig::new(16, 32);
        b.iter(|| {
            estimate_timing(black_box(&kernel.program), &cfg)
                .unwrap()
                .total_cycles
        })
    });
    g.finish();
}

fn bench_scheme_search(c: &mut Criterion) {
    // The pruned canonical walk of the full default space for one Skewed
    // kernel, on a fresh searcher (and memo cache) per iteration.
    let kernel = k01_hydro::build(1001);
    let space = SearchSpace::default();
    let mut g = c.benchmark_group("scheme_search");
    g.sample_size(10);
    g.bench_function("k1_default_space", |b| {
        b.iter(|| {
            Searcher::new(&space, Box::new(CountingOracle), StrategyParams::default())
                .unwrap()
                .search(black_box(&kernel.program))
                .unwrap()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_partition,
    bench_cache_size,
    bench_policy_and_partial,
    bench_timing_extension,
    bench_scheme_search
);
criterion_main!(benches);
