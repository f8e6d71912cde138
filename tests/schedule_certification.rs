//! The owner-computes schedule, certified once for every screen kind.
//!
//! `sa_lint::screening::Schedule` is what replay, the thread engine and the
//! static passes read index screening (paper §3) from; the counting
//! interpreter asks it one instance at a time and reports what it then
//! executed to a recorder on its observation hook. For every registry
//! kernel at reduced size, plus a program with the statement shapes the
//! registry is thin on (anchorless reductions, two reductions into one
//! scalar, anchors through static and through produced index arrays), × the
//! five schemes × {1, 4, 7, 64} PEs:
//!
//! * the per-PE segments partition every `(sweep, statement)`'s trips
//!   exactly;
//! * each PE's window walk is, instance by instance, the sequence the
//!   interpreter executed on that PE, and [`Schedule::owner`] agrees;
//! * the participant sets reproduce the interpreter's reduction messages.
//!
//! And folding (`Schedule::folds`) is certified, not assumed: over the same
//! programs × the periodic and the period-less schemes × {1, 4, 7, 64} PEs ×
//! pages {1, 3, 8, 32}, the folds cover every (sweep, trip) of every nest
//! exactly once, every covered stretch runs on its representative's PEs
//! trip for trip and reference for reference, and a nest the translation
//! argument does not reach folds to the identity.

use std::collections::HashMap;

use sapp::core::exec::{run, Effect, Observer};
use sapp::ir::analysis::{linear_address_form, Screen, StaticArrays};
use sapp::ir::index::iv;
use sapp::ir::interp::{resolve_ref_addr, Memory};
use sapp::ir::nest::{LoopVar, Stmt};
use sapp::ir::program::ArrayInit;
use sapp::ir::{ArrayId, Expr, InitPattern, IrError, LinForm, Program, ProgramBuilder, ReduceOp};
use sapp::lint::screening::{Schedule, Windows};
use sapp::machine::partition::{gcd, lcm};
use sapp::machine::{AccessKind, MachineConfig, PartitionScheme, Placement};
use sapp::mem::SaArray;

const PAGE: usize = 8;

/// The run's final arrays: what a produced index array holds once written.
struct Final<'a>(&'a [SaArray<f64>]);

impl Memory for Final<'_> {
    fn load(&mut self, array: ArrayId, addr: usize) -> Result<f64, IrError> {
        Ok(*self.0[array.0].read(addr).unwrap().expect("index cell"))
    }
}

/// What the interpreter executed: per nest, per PE, each instance's effect
/// in the order it ran, and how many element reads every PE made.
struct Recorder {
    nests: Vec<Vec<Vec<Effect>>>,
    reads: Vec<u64>,
}

impl Recorder {
    fn new(n_pes: usize) -> Self {
        Recorder {
            nests: vec![vec![Vec::new(); n_pes]],
            reads: vec![0; n_pes],
        }
    }
}

impl Observer for Recorder {
    fn read(&mut self, pe: usize, _: usize, _: usize, _: AccessKind, _: u32) {
        self.reads[pe] += 1;
    }
    fn end(&mut self, pe: usize, effect: Effect, _scalars: &[usize]) {
        self.nests.last_mut().unwrap()[pe].push(effect);
    }
    fn nest_end(&mut self) {
        self.nests.push(vec![Vec::new(); self.reads.len()]);
    }
}

fn certify(code: &str, program: &Program) {
    let statics = StaticArrays::scan(program);
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
        for n_pes in [1usize, 4, 7, 64] {
            let at = format!("{code} {scheme:?} × {n_pes}");
            let cfg = MachineConfig::new(n_pes, PAGE)
                .with_partition(scheme)
                .with_cache_elems(0);
            let mut recorder = Recorder::new(n_pes);
            let sim = run(program, &cfg, &mut recorder).unwrap_or_else(|e| panic!("{at}: {e}"));
            let mut loops = recorder.nests.iter();
            let mut sched = Schedule::new(program, &statics, scheme, PAGE, n_pes).unwrap();
            sched.tabulate(&statics).unwrap();
            let mut mem = Final(&sim.arrays);
            let mut reduction_messages = 0u64;

            for (n, ns) in sched.nests().iter().enumerate() {
                let executed = loops.next().expect("one recorded list per nest");
                let body = &ns.nest.body;
                let mut rounds = sched.rounds(n);
                // How often each (statement, iteration) was handed out.
                let mut dealt = vec![vec![0u8; ns.screen.iterations as usize]; body.len()];
                let mut win = Windows::default();
                let mut ivs = Vec::new();
                for (pe, executed) in executed.iter().enumerate() {
                    let mut walked = Vec::new();
                    for s in 0..ns.sweeps.len() {
                        let sw = ns.sweep(s);
                        sched.load_sweep(pe, n, s, 0..sw.trips, &mut win);
                        while let Some((w0, w1)) = win.advance() {
                            for t in w0..w1 {
                                ivs.clear();
                                ivs.extend_from_slice(sw.outer);
                                if !ns.nest.loops.is_empty() {
                                    ivs.push(sw.lo + sw.step * t as i64);
                                }
                                let g = ns.sweeps[s].first + t as u64;
                                for &si in win.active() {
                                    let owner = sched.owner(n, si, g, &ivs, &mut mem).unwrap();
                                    if ns.screen.screens[si] == Screen::Produced && owner != pe {
                                        continue; // visited to resolve, not executed
                                    }
                                    assert_eq!(owner, pe, "{at}: nest {n} s{si} g{g}");
                                    dealt[si][g as usize] += 1;
                                    walked.push(match &body[si] {
                                        Stmt::Assign { target, .. } => Effect::Wrote {
                                            array: target.array.0,
                                            addr: resolve_ref_addr(program, target, &ivs, &mut mem)
                                                .unwrap(),
                                        },
                                        Stmt::Reduce { target, .. } => {
                                            let round =
                                                rounds.iter_mut().find(|r| r.stmt == si).unwrap();
                                            assert!(round.pes[pe] || !round.complete, "{at}");
                                            round.pes[pe] = true;
                                            Effect::Reduced { scalar: target.0 }
                                        }
                                    });
                                }
                            }
                        }
                    }
                    assert_eq!(&walked, executed, "{at}: nest {n} on PE {pe}");
                }
                assert!(
                    dealt.iter().flatten().all(|&c| c == 1),
                    "{at}: nest {n} is not partitioned"
                );
                for round in &rounds {
                    // Every PE the schedule names did execute an instance
                    // (the walk above only ever confirmed or completed it).
                    reduction_messages +=
                        (0..n_pes).filter(|&pe| round.ships_from(pe)).count() as u64;
                }
            }
            assert_eq!(reduction_messages, sim.stats.reduction_messages, "{at}");
        }
    }
}

/// The statement shapes the registry is thin on, in one program.
fn every_screen_kind() -> Program {
    let n = 60usize;
    let mut b = ProgramBuilder::new("kinds");
    let y = b.input("Y", &[n], InitPattern::Wavy);
    let z = b.input("Z", &[n + 9], InitPattern::Harmonic);
    let perm = b.input("P", &[n], InitPattern::Permutation { seed: 11 });
    let prefix = b.array_with(
        "Q",
        &[n + 4],
        ArrayInit::Prefix {
            pattern: InitPattern::Permutation { seed: 5 },
            len: n,
        },
    );
    let made = b.output("M", &[n]);
    let x = b.output("X", &[n]);
    let w = b.output("W", &[n]);
    let v = b.output("V", &[n]);
    let (s, q, c, d) = (b.scalar("s"), b.scalar("q"), b.scalar("c"), b.scalar("d"));
    // Anchorless reductions, two per iteration, so the deal interleaves
    // slots — and a second such nest, so it carries across nests.
    for label in ["deal-a", "deal-b"] {
        b.nest(label, &[("k", 0, 22)], |nb| {
            nb.reduce(q, ReduceOp::Sum, Expr::LoopVar(0));
            nb.reduce(c, ReduceOp::Sum, Expr::Const(1.0));
        });
    }
    // Two reductions into one scalar, from differently placed anchors.
    b.nest("twice", &[("k", 0, 19)], |nb| {
        nb.reduce(s, ReduceOp::Sum, nb.read(y, [iv(0)]));
        nb.reduce(s, ReduceOp::Sum, nb.read(z, [iv(0).plus(40)]));
    });
    // Scatter through a static permutation, and through a prefix.
    b.nest("scatter", &[("k", 0, n as i64 - 1)], |nb| {
        nb.assign_indirect(x, perm, iv(0), nb.read(y, [iv(0)]));
        nb.assign_indirect(w, prefix, iv(0), nb.read(z, [iv(0).plus(3)]));
    });
    // An index array the program produces, then a scatter and a reduction
    // anchored through it.
    b.nest("make", &[("k", 0, n as i64 - 1)], |nb| {
        nb.assign(
            made,
            [iv(0)],
            Expr::Const(n as f64 - 1.0) - Expr::LoopVar(0),
        );
    });
    b.nest("use", &[("k", 0, n as i64 / 3)], |nb| {
        nb.assign_indirect(v, made, iv(0), nb.read(y, [iv(0)]));
        nb.reduce(d, ReduceOp::Sum, nb.read_indirect(y, made, iv(0)));
    });
    b.finish()
}

#[test]
fn the_schedule_is_what_the_interpreter_executes_for_every_screen_kind() {
    let kinds = every_screen_kind();
    let statics = StaticArrays::scan(&kinds);
    let sched = Schedule::new(&kinds, &statics, PartitionScheme::Modulo, PAGE, 4).unwrap();
    let screens = |n: usize| &sched.nest(n).screen.screens;
    assert_eq!(screens(0)[1], Screen::RoundRobin { slot: 1 });
    assert!(matches!(screens(2)[0], Screen::Affine { .. }));
    assert_eq!(screens(3)[..], [Screen::Static, Screen::Produced]);
    assert_eq!(screens(5)[..], [Screen::Produced, Screen::Produced]);
    certify("kinds", &kinds);
}

#[test]
fn the_schedule_is_what_the_interpreter_executes_on_the_registry() {
    for k in sapp::loops::suite::reduced_suite() {
        certify(k.code, &k.program);
    }
}

/// What [`certify_folds`] saw, so the test can tell it was not vacuous.
#[derive(Default)]
struct FoldTally {
    /// Nests (per configuration) that came back one fold per sweep under a
    /// periodic scheme: the translation argument does not cover them.
    beyond: usize,
    /// Stretches that were counted through a representative, not walked.
    folded_away: u64,
}

/// One walked reference: its array, its address form, where the array's
/// pages live, and the period of that placement.
type Walked<'a> = (ArrayId, LinForm, &'a Placement, i64);

/// The references `folds(nest, with_reads)` must key on, by the rule in
/// `sa_lint::screening` § Folding: every statement's affine anchor and,
/// `with_reads`, every read — or `None` when a statement is not screened
/// affinely, a read is not affine, or an array has no period.
fn walked_refs<'a>(
    sched: &'a Schedule<'_>,
    nest: usize,
    with_reads: bool,
) -> Option<Vec<Walked<'a>>> {
    let ns = sched.nest(nest);
    let nvars = ns.nest.loops.len();
    let mut refs = Vec::new();
    let mut walk = |array: ArrayId, form: Option<LinForm>| {
        let placement = sched.placement(array);
        refs.push((array, form?, placement, placement.period()? as i64));
        Some(())
    };
    for (stmt, screen) in ns.nest.body.iter().zip(&ns.screen.screens) {
        let Screen::Affine { array, form } = screen else {
            return None;
        };
        walk(*array, Some(form.clone()))?;
        for read in stmt.reads().into_iter().filter(|_| with_reads) {
            walk(
                read.array,
                linear_address_form(sched.program(), read, nvars),
            )?;
        }
    }
    Some(refs)
}

fn certify_folds(code: &str, program: &Program, tally: &mut FoldTally) {
    let statics = StaticArrays::scan(program);
    let schemes = [
        PartitionScheme::Modulo,
        PartitionScheme::BlockCyclic { block_pages: 1 },
        PartitionScheme::BlockCyclic { block_pages: 2 },
        PartitionScheme::BlockCyclic { block_pages: 3 },
        PartitionScheme::Block,
        PartitionScheme::Tile2D {
            tile_rows: 5,
            tile_cols: 6,
        },
    ];
    for scheme in schemes {
        for (n_pes, page) in [1usize, 4, 7, 64]
            .into_iter()
            .flat_map(|n| [1usize, 3, 8, 32].map(|p| (n, p)))
        {
            let sched = Schedule::new(program, &statics, scheme, page, n_pes).unwrap();
            for (n, with_reads) in (0..sched.nests().len()).flat_map(|n| [(n, false), (n, true)]) {
                let at = format!("{code} {scheme:?} × {n_pes} PEs × page {page}, nest {n}");
                let ns = sched.nest(n);
                let folds = sched.folds(n, with_reads);
                // Weak form: the folds stand for every iteration.
                let stood_for: u64 = folds.iter().map(|f| f.times * f.trips().len() as u64).sum();
                assert_eq!(stood_for, ns.screen.iterations, "{at}");
                let Some(refs) = walked_refs(&sched, n, with_reads) else {
                    assert_eq!(folds, sched.unfolded(n), "{at}: must not fold");
                    let periodic = !matches!(
                        scheme,
                        PartitionScheme::Block | PartitionScheme::Tile2D { .. }
                    );
                    tally.beyond += usize::from(periodic);
                    continue;
                };
                // Strong form. The stretches of a sweep: all of it, or —
                // two or more inner periods long — its first period,
                // repeated, and a tail.
                let depth = ns.nest.loops.len();
                let inner_step = ns.nest.loops.last().map_or(0, |lv| lv.step);
                let inner = refs.iter().try_fold(1u64, |l, (_, form, _, period)| {
                    let per_trip = form.coeffs.last().map_or(0, |c| c * inner_step);
                    lcm(
                        l,
                        *period as u64 / gcd(per_trip.unsigned_abs(), *period as u64),
                    )
                });
                let ivs = |sweep: usize, t: usize| {
                    let sw = ns.sweep(sweep);
                    let mut ivs = sw.outer.to_vec();
                    if depth > 0 {
                        ivs.push(sw.lo + sw.step * t as i64);
                    }
                    ivs
                };
                // A class: a length, and where every reference starts
                // modulo its period.
                let class = |sweep: usize, t0: usize, len: usize| {
                    let ivs = ivs(sweep, t0);
                    let starts = refs
                        .iter()
                        .map(|(_, form, _, period)| form.eval(&ivs).rem_euclid(*period));
                    (len, starts.collect::<Vec<i64>>())
                };
                let mut fold_of = HashMap::new();
                for (f, fold) in folds.iter().enumerate() {
                    let twice = fold_of.insert(class(fold.sweep, fold.t0, fold.trips().len()), f);
                    assert_eq!(twice, None, "{at}: two folds of one class");
                }
                let mut stands_for = vec![0u64; folds.len()];
                for (s, rec) in ns.sweeps.iter().enumerate() {
                    let (len, reps) = match inner {
                        Some(l) if rec.trips as u64 >= 2 * l => {
                            (l as usize, rec.trips / l as usize)
                        }
                        _ => (rec.trips, 1),
                    };
                    for (b0, len, reps) in [(0, len, reps), (len * reps, rec.trips - len * reps, 1)]
                    {
                        if len == 0 {
                            continue;
                        }
                        let &f = fold_of
                            .get(&class(s, b0, len))
                            .unwrap_or_else(|| panic!("{at}: sweep {s} trip {b0} is not covered"));
                        if stands_for[f] == 0 {
                            let first = (folds[f].sweep, folds[f].t0);
                            assert_eq!(first, (s, b0), "{at}: not the first of its class");
                        }
                        stands_for[f] += reps as u64;
                        // Trip for trip, every repetition is a translate
                        // of the representative and runs on the same PEs.
                        for t in b0..b0 + reps * len {
                            let here = ivs(s, t);
                            let there = ivs(folds[f].sweep, folds[f].t0 + (t - b0) % len);
                            for (_, form, placement, period) in &refs {
                                let (a, b) = (form.eval(&here), form.eval(&there));
                                assert_eq!((a - b) % period, 0, "{at}: sweep {s} trip {t}");
                                let owners =
                                    [a, b].map(|addr| placement.owner_of_addr(addr as usize));
                                assert_eq!(owners[0], owners[1], "{at}: sweep {s} trip {t}");
                            }
                        }
                    }
                }
                let times: Vec<u64> = folds.iter().map(|f| f.times).collect();
                assert_eq!(stands_for, times, "{at}");
                tally.folded_away +=
                    ns.sweeps.len() as u64 - folds.len().min(ns.sweeps.len()) as u64;
            }
        }
    }
}

/// Shapes the registry's reduced sizes are thin on: sweeps many inner
/// periods long, strided and downward loops, trips that vary per sweep.
fn folding_shapes() -> Program {
    let mut b = ProgramBuilder::new("shapes");
    let y = b.input("Y", &[420], InitPattern::Wavy);
    let y2 = b.input("Y2", &[14, 30], InitPattern::Harmonic);
    let x = b.output("X", &[200]);
    let w = b.output("W", &[12, 30]);
    let s = b.scalar("s");
    b.nest("long", &[("k", 0, 199)], |nb| {
        let value = nb.read(y, [iv(0).scale(2).plus(1)]) + nb.read(y, [iv(0).plus(3)]);
        nb.assign(x, [iv(0)], value);
    });
    let down = LoopVar {
        name: "j".into(),
        lo: iv(0).scale(-2).plus(29),
        hi: 0.into(),
        step: -2,
    };
    b.nest_loops("lean", vec![LoopVar::simple("i", 0, 11), down], |nb| {
        let value = nb.read(y2, [iv(0).plus(1), iv(1)]) + nb.read(y, [iv(1).scale(3)]);
        nb.assign(w, [iv(0), iv(1)], value);
    });
    let by3 = LoopVar {
        name: "k".into(),
        lo: 2.into(),
        hi: 400.into(),
        step: 3,
    };
    b.nest_loops("sum", vec![by3], |nb| {
        nb.reduce(s, ReduceOp::Sum, nb.read(y, [iv(0)]));
    });
    b.finish()
}

#[test]
fn folds_cover_every_trip_once_and_only_translates_are_merged() {
    let mut tally = FoldTally::default();
    certify_folds("kinds", &every_screen_kind(), &mut tally);
    // Round-robin reductions, static and produced anchors: four of the six
    // nests are beyond the argument (× with and without reads × the 4
    // periodic schemes × 16 shapes).
    assert_eq!(tally.beyond, 4 * 2 * 4 * 16);
    certify_folds("shapes", &folding_shapes(), &mut tally);
    let mut gathering = 0;
    for k in sapp::loops::suite::reduced_suite() {
        let before = tally.beyond;
        certify_folds(k.code, &k.program, &mut tally);
        let mut stmts = k.program.nests().flat_map(|nest| &nest.body);
        if stmts.any(|s| {
            s.write_target()
                .into_iter()
                .chain(s.reads())
                .any(|r| r.has_indirection())
        }) {
            // A nest that gathers or scatters folds to the identity.
            assert!(tally.beyond > before, "{}", k.code);
            gathering += 1;
        }
    }
    assert!(gathering >= 4, "the PIC and SpMV kernels gather");
    assert!(tally.folded_away > 0, "nothing folded: the test is vacuous");
}

/// What [`certify_chains`] saw, so the test can tell it was not vacuous.
#[derive(Default)]
struct ChainTally {
    /// Runs of two or more sweep members, and of two or more blocks.
    sweep_runs: usize,
    block_runs: usize,
    /// Nests (per configuration) beyond the translation argument under a
    /// periodic scheme.
    beyond: usize,
}

/// `sa_lint::screening` § Chains, checked member by member: expanding
/// `chains(nest)` visits every (sweep, trip) once, in execution order; each
/// member of a chain — of sweeps or of blocks — is the one before it with
/// every reference moved by the chain's shift for its array, a whole
/// number of periods; and a nest the translation argument does not reach
/// (a gather, a round-robin or tabulated anchor, a period-less scheme)
/// chains nowhere.
fn certify_chains(code: &str, program: &Program, tally: &mut ChainTally) {
    let statics = StaticArrays::scan(program);
    let schemes = [
        PartitionScheme::Modulo,
        PartitionScheme::BlockCyclic { block_pages: 1 },
        PartitionScheme::BlockCyclic { block_pages: 3 },
        PartitionScheme::Block,
        PartitionScheme::Tile2D {
            tile_rows: 5,
            tile_cols: 6,
        },
    ];
    for scheme in schemes {
        for (n_pes, page) in [1usize, 4, 7]
            .into_iter()
            .flat_map(|n| [1usize, 3, 8].map(|p| (n, p)))
        {
            let sched = Schedule::new(program, &statics, scheme, page, n_pes).unwrap();
            for n in 0..sched.nests().len() {
                let at = format!("{code} {scheme:?} × {n_pes} PEs × page {page}, nest {n}");
                let ns = sched.nest(n);
                let chains = sched.chains(n);
                let refs = walked_refs(&sched, n, true);
                let ivs = |sweep: usize, t: usize| {
                    let sw = ns.sweep(sweep);
                    let mut ivs = sw.outer.to_vec();
                    if !ns.nest.loops.is_empty() {
                        ivs.push(sw.lo + sw.step * t as i64);
                    }
                    ivs
                };
                // `there` is `here`'s image one member on: every reference
                // moved by its array's shift, a whole number of periods.
                let translates = |shift: &[i64], here: (usize, usize), there: (usize, usize)| {
                    let (a, b) = (ivs(here.0, here.1), ivs(there.0, there.1));
                    for (array, form, _, period) in refs.as_ref().expect("a chained nest") {
                        let moved = shift[array.0] * page as i64;
                        assert_eq!(moved % period, 0, "{at}");
                        assert_eq!(form.eval(&b), form.eval(&a) + moved, "{at}: {here:?}");
                    }
                };
                let mut next =
                    (0..ns.sweeps.len()).flat_map(|s| (0..ns.sweeps[s].trips).map(move |t| (s, t)));
                for chain in &chains.sweeps {
                    // An identity chain's members are merely consecutive.
                    let shift = chains.shift(chain);
                    tally.sweep_runs += usize::from(chain.count >= 2 && !shift.is_empty());
                    for s in chain.members(0, chain.count) {
                        let m = (s - chain.first) / chain.len;
                        let trips = ns.sweeps[s].trips;
                        let blocks = chains.blocks(trips);
                        tally.block_runs += usize::from(blocks.count >= 2);
                        assert!(trips - blocks.count * blocks.len < blocks.len, "{at}");
                        // The blocks, then the sweep's tail.
                        for t in 0..trips {
                            assert_eq!(next.next(), Some((s, t)), "{at}");
                            if t >= blocks.len && t < blocks.count * blocks.len {
                                translates(chains.shift(&blocks), (s, t - blocks.len), (s, t));
                            }
                            if m > 0 && !shift.is_empty() {
                                translates(shift, (s - chain.len, t), (s, t));
                            }
                        }
                    }
                }
                assert_eq!(next.next(), None, "{at}: not every trip is walked");
                if refs.is_none() {
                    let periodic = !matches!(
                        scheme,
                        PartitionScheme::Block | PartitionScheme::Tile2D { .. }
                    );
                    tally.beyond += usize::from(periodic);
                    assert!(chains.sweeps.len() <= 1, "{at}: one identity chain");
                    assert!(
                        chains.sweeps.iter().all(|c| chains.shift(c).is_empty()),
                        "{at}"
                    );
                    for s in &ns.sweeps {
                        assert_eq!(chains.blocks(s.trips).len, s.trips, "{at}");
                    }
                }
            }
        }
    }
}

#[test]
fn chains_walk_every_trip_once_in_order_and_each_member_translates_the_last() {
    let mut tally = ChainTally::default();
    certify_chains("kinds", &every_screen_kind(), &mut tally);
    // Round-robin reductions, static and produced anchors: four of the six
    // nests (× the 3 periodic schemes × 9 shapes).
    assert_eq!(tally.beyond, 4 * 3 * 9);
    certify_chains("shapes", &folding_shapes(), &mut tally);
    for k in sapp::loops::suite::reduced_suite() {
        certify_chains(k.code, &k.program, &mut tally);
    }
    for code in ["ST5", "ST7", "ST9"] {
        let k = sapp::loops::workload(code).unwrap().reduced();
        certify_chains(code, &k.program, &mut tally);
    }
    assert!(
        tally.sweep_runs > 0,
        "no run of sweeps: the test is vacuous"
    );
    assert!(
        tally.block_runs > 0,
        "no run of blocks: the test is vacuous"
    );
}

/// The recorder hears one PE's instances in that PE's program order, each
/// with the reads it made: K1 (`X(k)` from three reads, `k = 1..=127`) on
/// four PEs of one 32-element page each.
#[test]
fn the_recorder_sees_each_pes_instances_in_program_order() {
    let k1 = sapp::loops::k01_hydro::build(127).program;
    let x = k1.array_id("X").unwrap().0;
    let mut recorder = Recorder::new(4);
    run(&k1, &MachineConfig::new(4, 32), &mut recorder).unwrap();
    assert_eq!(recorder.nests.len(), 2, "one nest, then the open list");
    for (pe, executed) in recorder.nests[0].iter().enumerate() {
        let addrs: Vec<usize> = executed
            .iter()
            .map(|e| match *e {
                Effect::Wrote { array, addr } if array == x => addr,
                other => panic!("PE {pe}: {other:?}"),
            })
            .collect();
        let owned: Vec<usize> = (32 * pe..32 * (pe + 1)).filter(|&a| a >= 1).collect();
        assert_eq!(addrs, owned, "PE {pe}");
        assert_eq!(recorder.reads[pe], 3 * owned.len() as u64, "PE {pe}");
    }
}
