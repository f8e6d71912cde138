//! Shape assertions for every figure and headline claim of the paper.
//! These are *qualitative* reproductions:
//! who wins, by roughly what factor, where the curves head — not absolute
//! axes from the authors' 1989 testbed.

use sapp::core::{simulate, SimReport};
use sapp::loops::{k14_pic1d, k18_hydro2d, suite};
use sapp::machine::{load_balance, MachineConfig};

fn run(code: &str, cfg: &MachineConfig) -> SimReport {
    let k = suite()
        .into_iter()
        .find(|k| k.code == code)
        .expect("kernel");
    simulate(&k.program, cfg).expect("simulation")
}

#[test]
fn fig1_skewed_hydro_fragment() {
    // 1 PE ⇒ everything local.
    assert_eq!(run("K1", &MachineConfig::new(1, 32)).remote_pct(), 0.0);
    for n in [2usize, 4, 8, 16, 32] {
        // No cache, ps 32: the paper's ≈22 % (skew 10/11 over 32-elem pages).
        let uncached = run("K1", &MachineConfig::new(n, 32).with_cache_elems(0)).remote_pct();
        assert!((20.0..24.0).contains(&uncached), "n={n}: {uncached:.2}%");
        // Cache: collapses to ≈1 % ("a reduction from 22% remote reads to
        // 1% remote reads", §8).
        let cached = run("K1", &MachineConfig::new(n, 32)).remote_pct();
        assert!(cached < 2.0, "n={n}: {cached:.2}%");
        // ps 64 halves the uncached crossing ratio.
        let uncached64 = run("K1", &MachineConfig::new(n, 64).with_cache_elems(0)).remote_pct();
        assert!(
            (uncached64 - uncached / 2.0).abs() < 2.0,
            "n={n}: ps64 {uncached64:.2}% vs ps32/2 {:.2}%",
            uncached / 2.0
        );
    }
}

#[test]
fn fig2_cyclic_iccg() {
    // Without a cache "most are remote" and it worsens with PEs.
    let mut prev = 0.0;
    for n in [2usize, 4, 8, 16, 32] {
        let uncached = run("K2", &MachineConfig::new(n, 32).with_cache_elems(0)).remote_pct();
        assert!(uncached >= 40.0, "n={n}: {uncached:.2}%");
        assert!(uncached >= prev, "uncached must not improve with PEs");
        prev = uncached;
    }
    // With the cache the remote percentage collapses by an order of
    // magnitude ("caching ... can reduce the percentage of remote reads
    // significantly", Fig. 2 caption).
    for n in [4usize, 16, 32] {
        let cached = run("K2", &MachineConfig::new(n, 32)).remote_pct();
        let uncached = run("K2", &MachineConfig::new(n, 32).with_cache_elems(0)).remote_pct();
        assert!(
            cached * 10.0 < uncached,
            "n={n}: {cached:.2}% vs {uncached:.2}%"
        );
        assert!(cached < 5.0, "n={n}: {cached:.2}%");
    }
}

#[test]
fn fig3_cyclic_skewed_hydro2d_decreases_with_pes() {
    // Steady-state (multi-pass) K18 at the official size: the cached
    // remote % *decreases* as PEs grow (the paper's counter-intuitive
    // headline), and stays below the paper's ≈8 % ceiling.
    let k = k18_hydro2d::build_with_passes(101, 5);
    let at4 = simulate(&k.program, &MachineConfig::new(4, 32))
        .unwrap()
        .remote_pct();
    let at16 = simulate(&k.program, &MachineConfig::new(16, 32))
        .unwrap()
        .remote_pct();
    assert!(
        at16 < at4,
        "cached remote% must fall with PEs: {at4:.2}% → {at16:.2}%"
    );
    assert!(
        at16 * 2.0 <= at4,
        "the drop is substantial: {at4:.2}% → {at16:.2}%"
    );
    for n in [2usize, 4, 8, 16] {
        let pct = simulate(&k.program, &MachineConfig::new(n, 32))
            .unwrap()
            .remote_pct();
        assert!(pct < 8.0, "n={n}: {pct:.2}%");
    }
}

#[test]
fn fig4_random_glre_resists_caching() {
    for n in [8usize, 16, 32] {
        let cached = run("K6", &MachineConfig::new(n, 32)).remote_pct();
        let uncached = run("K6", &MachineConfig::new(n, 32).with_cache_elems(0)).remote_pct();
        // High remote percentage "regardless of the presence or absence of
        // caching" (§7.1.4).
        assert!(cached >= 40.0, "n={n}: cached {cached:.2}%");
        assert!(uncached >= 40.0, "n={n}: uncached {uncached:.2}%");
        assert!(
            uncached - cached < 5.0,
            "cache must barely help RD: {cached:.2}% vs {uncached:.2}%"
        );
    }
    // …but a larger cache does rescue it ("poor performance of RD can be
    // overcome by larger cache sizes", Fig. 4 caption).
    let k = suite().into_iter().find(|k| k.code == "K6").unwrap();
    let small = simulate(&k.program, &MachineConfig::new(16, 32))
        .unwrap()
        .remote_pct();
    let big = simulate(
        &k.program,
        &MachineConfig::new(16, 32).with_cache_elems(8192),
    )
    .unwrap()
    .remote_pct();
    assert!(
        big * 2.0 < small,
        "8192-elem cache: {small:.2}% → {big:.2}%"
    );
}

#[test]
fn fig5_load_balance_on_64_pes() {
    let k = k18_hydro2d::build_with_passes(1022, 2);
    let rep = simulate(&k.program, &MachineConfig::new(64, 32)).unwrap();
    let local = load_balance(&rep.stats.local_reads_per_pe());
    let remote = load_balance(&rep.stats.remote_reads_per_pe());
    let writes = load_balance(&rep.stats.writes_per_pe());
    // "each of the sixty-four PEs performs a comparable number of remote
    // reads and local reads" (§7.2).
    assert!(local.cv < 0.10, "local-read CV {:.3}", local.cv);
    assert!(remote.cv < 0.10, "remote-read CV {:.3}", remote.cv);
    assert!(local.jain > 0.99 && remote.jain > 0.99);
    // "single assignment and equal partitioning force a nearly equal number
    // of writes on each processor" (§8).
    assert!(writes.cv < 0.10, "write CV {:.3}", writes.cv);
    // Every PE participates.
    assert!(remote.min > 0 && local.min > 0);
}

#[test]
fn summary_class_claims() {
    // MD kernels: "always achieve a 0% remote access ratio" (§7.1.1).
    for code in ["K3", "K14", "K22", "K24"] {
        for n in [2usize, 8, 32] {
            let pct = run(code, &MachineConfig::new(n, 32)).remote_pct();
            assert_eq!(pct, 0.0, "{code} at {n} PEs");
        }
    }
    // The paper's matched exemplar is the K14 fragment specifically.
    let frag = k14_pic1d::build(1001);
    let rep = simulate(&frag.program, &MachineConfig::new(16, 32)).unwrap();
    assert_eq!(rep.stats.remote_reads(), 0);

    // SD kernels stay below 10 % with the cache (§8: "SD access patterns
    // tend to achieve a very low (< 10%) remote access ratio").
    for code in ["K1", "K5", "K7", "K11", "K12"] {
        let pct = run(code, &MachineConfig::new(16, 32)).remote_pct();
        assert!(pct < 10.0, "{code}: {pct:.2}%");
    }

    // "For most access distributions, the percentages of remote accesses
    // are less than 10% when using a cache of 256 elements" — majority of
    // the suite.
    let below = suite()
        .iter()
        .filter(|k| {
            simulate(&k.program, &MachineConfig::new(16, 32))
                .unwrap()
                .remote_pct()
                < 10.0
        })
        .count();
    assert!(
        below * 2 > suite().len(),
        "{below}/{} kernels below 10 %",
        suite().len()
    );
}

#[test]
fn conclusion_message_accounting() {
    // Every remote read is exactly one request + one reply; no coherence
    // traffic exists at all (§4).
    for code in ["K1", "K2", "K6", "K18"] {
        let rep = run(code, &MachineConfig::new(16, 32));
        assert_eq!(rep.network_messages, 2 * rep.stats.page_fetches);
        assert_eq!(rep.stats.page_fetches, rep.stats.remote_reads());
    }
}
