//! Integration tests for the SA conversion tool (§5) and the execution-time
//! extension (§9): conversion round-trips on generated reuse programs, and
//! the timing engine is deadlock-free with bounded speedups on the whole
//! Livermore suite.

use proptest::prelude::*;

use sapp::core::deferred::estimate_timing;
use sapp::core::simulate;
use sapp::ir::index::iv;
use sapp::ir::ssa::{convert_to_sa, verify_single_assignment, SsaMode};
use sapp::ir::{interpret, InitPattern, ProgramBuilder};
use sapp::loops::{reduced_suite, suite};
use sapp::machine::{MachineConfig, NetworkTopology, PartitionScheme};

#[test]
fn timing_pass_is_deadlock_free_on_the_whole_suite() {
    for k in suite() {
        for n in [1usize, 4, 16] {
            let t = estimate_timing(&k.program, &MachineConfig::new(n, 32))
                .unwrap_or_else(|e| panic!("{} on {n} PEs: {e}", k.code));
            assert!(t.total_cycles > 0, "{}", k.code);
            assert!(t.instances > 0, "{}", k.code);
        }
    }
}

/// `tests/expected/timing_cycles.txt` holds what the event-queue replay
/// this clock replaced answered on the reduced registry × the five schemes
/// of `schedule_certification` × {1, 2, 4, 7, 16, 64} PEs × cache {0, 256}
/// × {ideal, mesh2d} at page 8 — one line `kernel scheme pes cache network
/// total_cycles instances fnv(per_pe_cycles) fnv(stall_cycles)` each,
/// generated at the last commit that had it. Every line must still hold.
#[test]
fn timing_reproduces_the_event_loops_cycles() {
    fn fnv(xs: &[u64]) -> u64 {
        xs.iter()
            .flat_map(|x| x.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }
    let mut expected = include_str!("expected/timing_cycles.txt").lines();
    for k in reduced_suite() {
        for scheme in [
            PartitionScheme::Modulo,
            PartitionScheme::Block,
            PartitionScheme::BlockCyclic { block_pages: 2 },
            PartitionScheme::RowBand,
            PartitionScheme::Tile2D {
                tile_rows: 5,
                tile_cols: 6,
            },
        ] {
            for n_pes in [1usize, 2, 4, 7, 16, 64] {
                for cache in [0usize, 256] {
                    for net in [NetworkTopology::Ideal, NetworkTopology::Mesh2D] {
                        let cfg = MachineConfig::new(n_pes, 8)
                            .with_partition(scheme)
                            .with_cache_elems(cache)
                            .with_network(net);
                        let at = format!(
                            "{} {} {n_pes} {cache} {}",
                            k.code,
                            scheme.name(),
                            net.name()
                        );
                        let t = estimate_timing(&k.program, &cfg)
                            .unwrap_or_else(|e| panic!("{at}: {e}"));
                        let line = format!(
                            "{at} {} {} {:016x} {:016x}",
                            t.total_cycles,
                            t.instances,
                            fnv(&t.per_pe_cycles),
                            fnv(&t.stall_cycles)
                        );
                        assert_eq!(Some(line.as_str()), expected.next());
                    }
                }
            }
        }
    }
    assert_eq!(expected.next(), None, "every pinned line was compared");
}

#[test]
fn speedups_are_bounded_and_ordered_sensibly() {
    for k in suite() {
        let t1 = estimate_timing(&k.program, &MachineConfig::new(1, 32)).unwrap();
        let mut prev_cycles = u64::MAX;
        for n in [2usize, 4, 8, 16] {
            let tn = estimate_timing(&k.program, &MachineConfig::new(n, 32)).unwrap();
            let s = tn.speedup_over(&t1);
            assert!(
                s <= n as f64 + 1e-9,
                "{}: speedup {s:.2} exceeds {n} PEs",
                k.code
            );
            // More PEs never make the paper's machine *slower* than 1 PE by
            // more than the communication overhead allows; sanity-bound it.
            assert!(s > 0.05, "{}: pathological slowdown {s:.3}", k.code);
            // Makespan is weakly improving for the embarrassingly parallel
            // classes.
            if matches!(k.class_abbrev(), "MD") {
                assert!(tn.total_cycles <= prev_cycles, "{}", k.code);
                prev_cycles = tn.total_cycles;
            }
        }
    }
}

#[test]
fn matched_class_speedup_is_nearly_linear() {
    // K14 (matched, n=1001 → 32 pages) has enough pages to feed 8 PEs;
    // K22's official size (n=101 → 4 pages) caps at 4-way parallelism,
    // which is itself worth asserting: parallelism is bounded by pages.
    let k14 = suite().into_iter().find(|k| k.code == "K14").unwrap();
    let t1 = estimate_timing(&k14.program, &MachineConfig::new(1, 32)).unwrap();
    let t8 = estimate_timing(&k14.program, &MachineConfig::new(8, 32)).unwrap();
    let s = t8.speedup_over(&t1);
    assert!(s > 6.0, "matched loop should scale: {s:.2} on 8 PEs");

    let k22 = suite().into_iter().find(|k| k.code == "K22").unwrap();
    let t1 = estimate_timing(&k22.program, &MachineConfig::new(1, 32)).unwrap();
    let t8 = estimate_timing(&k22.program, &MachineConfig::new(8, 32)).unwrap();
    let s = t8.speedup_over(&t1);
    assert!(
        (2.0..=4.0).contains(&s),
        "4 pages bound K22's parallelism to ≤4: {s:.2}"
    );
}

#[test]
fn serial_recurrence_exposes_pipeline_limit() {
    // K5's chain has a true dependence every iteration: adding PEs cannot
    // help beyond overlapping the per-page pipeline fill.
    let k = suite().into_iter().find(|k| k.code == "K5").unwrap();
    let t1 = estimate_timing(&k.program, &MachineConfig::new(1, 32)).unwrap();
    let t16 = estimate_timing(&k.program, &MachineConfig::new(16, 32)).unwrap();
    let s = t16.speedup_over(&t1);
    assert!(s < 2.0, "a serial chain cannot scale: {s:.2}");
    assert!(
        t16.stall_cycles.iter().sum::<u64>() > 0,
        "PEs must have stalled"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Expansion always yields a single-assignment program whose last
    /// version holds the von Neumann result of the reuse chain.
    #[test]
    fn expansion_roundtrip_on_generated_reuse_chains(
        n in 8usize..128,
        sweeps in 1usize..5,
        mult in 1u32..4,
    ) {
        let mult = mult as f64;
        let mut b = ProgramBuilder::new("reuse");
        let x = b.input("X", &[n], InitPattern::Linear { base: 1.0, step: 0.5 });
        for s in 0..sweeps {
            b.nest(format!("sweep{s}"), &[("k", 0, n as i64 - 1)], |nb| {
                nb.assign(x, [iv(0)], nb.read(x, [iv(0)]) * mult);
            });
        }
        let p = b.finish();
        prop_assert_eq!(verify_single_assignment(&p), sweeps == 0);
        let c = convert_to_sa(&p, SsaMode::Expand).expect("expandable");
        prop_assert_eq!(c.versions_added, sweeps);
        prop_assert!(verify_single_assignment(&c.program));
        let r = interpret(&c.program).expect("converted runs");
        let last = if sweeps == 0 {
            sapp::ir::ArrayId(0)
        } else {
            c.program.array_id(&format!("X@{sweeps}")).expect("last version")
        };
        for k in 0..n {
            let want = (1.0 + 0.5 * k as f64) * mult.powi(sweeps as i32);
            let got = *r.arrays[last.0].read(k).unwrap().unwrap();
            prop_assert!((got - want).abs() < 1e-9 * want.abs().max(1.0));
        }
        // The converted program also runs distributed.
        let rep = simulate(&c.program, &MachineConfig::new(4, 16)).expect("sim");
        prop_assert_eq!(rep.stats.writes(), (n * sweeps) as u64);
    }

    /// Reinit conversion round-trips on disjoint rewrite programs and
    /// charges exactly 2·(N−1) messages per inserted phase.
    #[test]
    fn reinit_roundtrip_counts_protocol_messages(
        n in 16usize..128,
        rewrites in 1usize..4,
        n_pes in 2usize..9,
    ) {
        let mut b = ProgramBuilder::new("rewrite");
        let src = b.input("SRC", &[n], InitPattern::Wavy);
        let dst = b.input("DST", &[n], InitPattern::Zero);
        for s in 0..rewrites {
            let w = (s + 1) as f64;
            b.nest(format!("w{s}"), &[("k", 0, n as i64 - 1)], |nb| {
                nb.assign(dst, [iv(0)], nb.read(src, [iv(0)]) * w);
            });
        }
        let p = b.finish();
        let c = convert_to_sa(&p, SsaMode::Reinit).expect("reinit-convertible");
        prop_assert_eq!(c.reinits_added, rewrites);
        prop_assert!(verify_single_assignment(&c.program));
        let rep = simulate(&c.program, &MachineConfig::new(n_pes, 16)).expect("sim");
        prop_assert_eq!(
            rep.stats.reinit_messages,
            (rewrites * 2 * (n_pes - 1)) as u64
        );
    }
}
