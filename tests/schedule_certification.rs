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
//! And the translation argument is certified, not assumed, over the same
//! programs × every scheme × {1, 4, 7, 64} PEs × pages {1, 3, 8, 32}:
//!
//! * folding (`Schedule::folds`): the folds stand for every iteration, and
//!   give every tuple of walked owners exactly as often as the nest does;
//!   a nest the argument does not reach folds to the identity;
//! * chains (`Schedule::chains`): expanded, they walk every trip once in
//!   order, and each member is the one before it moved by whole pages,
//!   every instance keeping its owner;
//! * skipping: a PE that a chain, a sweep or a fold excludes owns no trip
//!   of it.

use std::collections::HashMap;

use sapp::core::exec::{run, Effect, Observer};
use sapp::ir::analysis::{linear_address_form, Screen, StaticArrays};
use sapp::ir::index::iv;
use sapp::ir::interp::{resolve_ref_addr, Memory};
use sapp::ir::nest::{LoopVar, Stmt};
use sapp::ir::program::ArrayInit;
use sapp::ir::{ArrayId, Expr, InitPattern, IrError, LinForm, Program, ProgramBuilder, ReduceOp};
use sapp::lint::screening::{NestSchedule, Schedule, Windows};
use sapp::machine::{AccessKind, MachineConfig, PartitionScheme, PeRange, Placement};
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
    let u = b.output("U", &[n]);
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
    // An index array the program produces.
    b.nest("make", &[("k", 0, n as i64 - 1)], |nb| {
        nb.assign(
            made,
            [iv(0)],
            Expr::Const(n as f64 - 1.0) - Expr::LoopVar(0),
        );
    });
    // Scatter through a static permutation, through the defined prefix of
    // another, and through the produced one.
    b.nest("scatter", &[("k", 0, n as i64 - 1)], |nb| {
        nb.assign_indirect(x, perm, iv(0), nb.read(y, [iv(0)]));
        nb.assign_indirect(w, prefix, iv(0), nb.read(z, [iv(0).plus(3)]));
        nb.assign_indirect(u, made, iv(0), nb.read(z, [iv(0).plus(9)]));
    });
    // A scatter and a reduction anchored through the produced array.
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
    assert!(matches!(screens(3)[0], Screen::Affine { .. }));
    assert_eq!(
        screens(4)[..],
        [Screen::Static, Screen::Static, Screen::Produced]
    );
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
    /// Nests (per configuration) that came back one fold per sweep: the
    /// translation argument does not cover them.
    beyond: usize,
    /// Stretches that were counted through a representative, not walked.
    folded_away: u64,
    /// The same under `block` and `rowband`, which have no period.
    banded_away: u64,
}

/// The five schemes, `blockcyclic` at three block sizes.
fn every_scheme() -> [PartitionScheme; 7] {
    [
        PartitionScheme::Modulo,
        PartitionScheme::BlockCyclic { block_pages: 1 },
        PartitionScheme::BlockCyclic { block_pages: 2 },
        PartitionScheme::BlockCyclic { block_pages: 3 },
        PartitionScheme::Block,
        PartitionScheme::RowBand,
        PartitionScheme::Tile2D {
            tile_rows: 5,
            tile_cols: 6,
        },
    ]
}

fn banded(scheme: PartitionScheme) -> bool {
    matches!(scheme, PartitionScheme::Block | PartitionScheme::RowBand)
}

/// One walked reference: its array, its address form, and where the
/// array's pages live.
type Walked<'a> = (ArrayId, LinForm, &'a Placement);

/// The references `folds(nest, with_reads)` and `chains(nest)` key on, by
/// the rule in `sa_lint::screening` § Folding: every statement's affine
/// anchor and, `with_reads`, every read — or `None` when a statement is
/// not screened affinely or a read is not affine.
fn walked_refs<'a>(
    sched: &'a Schedule<'_>,
    nest: usize,
    with_reads: bool,
) -> Option<Vec<Walked<'a>>> {
    let ns = sched.nest(nest);
    let nvars = ns.nest.loops.len();
    let mut refs = Vec::new();
    for (stmt, screen) in ns.nest.body.iter().zip(&ns.screen.screens) {
        let Screen::Affine { array, form } = screen else {
            return None;
        };
        refs.push((*array, form.clone(), sched.placement(*array)));
        for read in stmt.reads().into_iter().filter(|_| with_reads) {
            let form = linear_address_form(sched.program(), read, nvars)?;
            refs.push((read.array, form, sched.placement(read.array)));
        }
    }
    Some(refs)
}

/// The loop-variable values of trip `t` of sweep `sweep` of `ns`.
fn ivs_at(ns: &NestSchedule<'_>, sweep: usize, t: usize) -> Vec<i64> {
    let sw = ns.sweep(sweep);
    let mut ivs = sw.outer.to_vec();
    if !ns.nest.loops.is_empty() {
        ivs.push(sw.lo + sw.step * t as i64);
    }
    ivs
}

/// `sa_lint::screening` § Folding, checked against what it must preserve.
/// Every counter of the cache-less model is a sum over trips of a function
/// of the owners of the walked references' pages, so the folds, each trip
/// of a representative counted `times` times, must give every tuple of
/// owners exactly as often as the nest does; and a nest the translation
/// argument does not reach folds to the identity.
fn certify_folds(code: &str, program: &Program, tally: &mut FoldTally) {
    let statics = StaticArrays::scan(program);
    for scheme in every_scheme() {
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
                    tally.beyond += 1;
                    continue;
                };
                // Strong form: the same owners, as often.
                let owners = |sweep: usize, t: usize| -> Vec<usize> {
                    let ivs = ivs_at(ns, sweep, t);
                    let addr = |form: &LinForm| form.eval(&ivs) as usize;
                    refs.iter()
                        .map(|(_, form, placement)| placement.owner_of_addr(addr(form)))
                        .collect()
                };
                let mut want: HashMap<Vec<usize>, u64> = HashMap::new();
                for (s, rec) in ns.sweeps.iter().enumerate() {
                    for t in 0..rec.trips {
                        *want.entry(owners(s, t)).or_default() += 1;
                    }
                }
                let mut got: HashMap<Vec<usize>, u64> = HashMap::new();
                for fold in &folds {
                    for t in fold.trips() {
                        *got.entry(owners(fold.sweep, t)).or_default() += fold.times;
                    }
                }
                assert_eq!(got, want, "{at}");
                let away = ns.sweeps.len() as u64 - folds.len().min(ns.sweeps.len()) as u64;
                tally.folded_away += away;
                tally.banded_away += if banded(scheme) { away } else { 0 };
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
    // nests are beyond the argument (× with and without reads × the 7
    // schemes × 16 shapes).
    assert_eq!(tally.beyond, 4 * 2 * 7 * 16);
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
    assert!(
        tally.banded_away > 0,
        "no banded nest folded: the test is vacuous"
    );
}

/// What [`certify_chains`] saw, so the test can tell it was not vacuous.
#[derive(Default)]
struct ChainTally {
    /// Runs of two or more sweep members, and of two or more blocks.
    sweep_runs: usize,
    block_runs: usize,
    /// Runs of two or more sweep members under `block` or `rowband`.
    banded_runs: usize,
    /// Nests (per configuration) beyond the translation argument.
    beyond: usize,
}

/// `sa_lint::screening` § Chains, checked member by member under every
/// scheme: expanding `chains(nest)` visits every (sweep, trip) once, in
/// execution order; each member of a chain — of sweeps or of blocks — is
/// the one before it with every reference moved by the chain's shift for
/// its array, a whole number of pages, and every instance keeps its
/// owner; and a nest the translation argument does not reach (a gather, a
/// round-robin or tabulated anchor) chains nowhere.
fn certify_chains(code: &str, program: &Program, tally: &mut ChainTally) {
    let statics = StaticArrays::scan(program);
    let schemes = [
        PartitionScheme::Modulo,
        PartitionScheme::BlockCyclic { block_pages: 1 },
        PartitionScheme::BlockCyclic { block_pages: 3 },
        PartitionScheme::Block,
        PartitionScheme::RowBand,
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
                // `there` is `here`'s image one member on: every reference
                // moved by its array's shift, in whole pages, and on a
                // page of the same owner.
                let translates = |shift: &[i64], here: (usize, usize), there: (usize, usize)| {
                    let (a, b) = (ivs_at(ns, here.0, here.1), ivs_at(ns, there.0, there.1));
                    for (array, form, placement) in refs.as_ref().expect("a chained nest") {
                        let (from, to) = (form.eval(&a), form.eval(&b));
                        assert_eq!(to, from + shift[array.0] * page as i64, "{at}: {here:?}");
                        let owners = [from, to].map(|addr| placement.owner_of_addr(addr as usize));
                        assert_eq!(owners[0], owners[1], "{at}: {here:?} → {there:?}");
                    }
                };
                let mut next =
                    (0..ns.sweeps.len()).flat_map(|s| (0..ns.sweeps[s].trips).map(move |t| (s, t)));
                for chain in &chains.sweeps {
                    // An identity chain's members are merely consecutive.
                    let shift = chains.shift(chain);
                    let run = chain.count >= 2 && !shift.is_empty();
                    tally.sweep_runs += usize::from(run);
                    tally.banded_runs += usize::from(run && banded(scheme));
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
                    tally.beyond += 1;
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
    // nests (× the 6 schemes × 9 shapes).
    assert_eq!(tally.beyond, 4 * 6 * 9);
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
        tally.banded_runs > 0,
        "no run of sweeps inside a band: the test is vacuous"
    );
    assert!(
        tally.block_runs > 0,
        "no run of blocks: the test is vacuous"
    );
}

/// `sa_lint::screening` § Skipping: every instance of a chain, of a sweep
/// and of a fold's stretch runs on a PE its range names — so a PE the
/// range excludes owns no trip of it, and a walk may pass it by. A
/// produced anchor's owner is known only at run time: its ranges name
/// every PE.
fn certify_skips(code: &str, program: &Program) -> usize {
    let statics = StaticArrays::scan(program);
    let mut excluded = 0;
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
        for (n_pes, page) in [1usize, 4, 7, 64]
            .into_iter()
            .flat_map(|n| [1usize, 3, 8, 32].map(|p| (n, p)))
        {
            let at = format!("{code} {scheme:?} × {n_pes} PEs × page {page}");
            let mut sched = Schedule::new(program, &statics, scheme, page, n_pes).unwrap();
            sched.tabulate(&statics).unwrap();
            for (n, ns) in sched.nests().iter().enumerate() {
                // The PEs that own an instance of trips `trips` of `sweep`;
                // `None` when a produced anchor leaves it open.
                let owners = |sweep: usize, trips: std::ops::Range<usize>| {
                    let mut own = vec![false; n_pes];
                    for t in trips {
                        let ivs = ivs_at(ns, sweep, t);
                        let g = ns.sweeps[sweep].first + t as u64;
                        for (si, screen) in ns.screen.screens.iter().enumerate() {
                            if *screen == Screen::Produced {
                                return None;
                            }
                            own[sched.owner(n, si, g, &ivs, &mut &statics).unwrap()] = true;
                        }
                    }
                    Some(own)
                };
                let within = |range: &PeRange, own: Option<Vec<bool>>, what: &str| -> usize {
                    let own = own.unwrap_or_else(|| vec![true; n_pes]);
                    let mut out = 0;
                    for (pe, owns) in own.into_iter().enumerate() {
                        assert!(
                            !owns || range.contains(pe),
                            "{at}, nest {n}, {what}: PE {pe}"
                        );
                        out += usize::from(!range.contains(pe));
                    }
                    out
                };
                let chains = sched.chains(n);
                for chain in &chains.sweeps {
                    let mut own = Some(vec![false; n_pes]);
                    for s in chain.members(0, chain.count) {
                        let here = owners(s, 0..ns.sweeps[s].trips);
                        let sweep_pes = chains.sweep_pes(chain, s);
                        excluded += within(&sweep_pes, here.clone(), "a sweep");
                        own = own
                            .zip(here)
                            .map(|(a, b)| a.iter().zip(b).map(|(x, y)| *x || y).collect());
                    }
                    excluded += within(&chain.pes, own, "a chain");
                }
                for fold in sched.folds(n, true) {
                    excluded += within(&fold.pes, owners(fold.sweep, fold.trips()), "a fold");
                }
            }
        }
    }
    excluded
}

#[test]
fn a_pe_a_chain_or_sweep_excludes_owns_no_trip_of_it() {
    let mut excluded = certify_skips("kinds", &every_screen_kind());
    excluded += certify_skips("shapes", &folding_shapes());
    for k in sapp::loops::suite::reduced_suite() {
        excluded += certify_skips(k.code, &k.program);
    }
    assert!(excluded > 0, "no range excludes a PE: the test is vacuous");
}

/// The counts the README quotes: ST5 (two sweeps) under the banded
/// placements and one `tile2d:64x64` tile per PE, at the default page of
/// 32 elements — sweeps, chains and folds summed over the nests, and the
/// (PE, chain) pairs a cached replay may walk before the steady state.
#[test]
fn banded_stencils_chain_and_fold_inside_their_bands() {
    let tile = PartitionScheme::Tile2D {
        tile_rows: 64,
        tile_cols: 64,
    };
    for (edge, scheme, n_pes, want) in [
        (256, PartitionScheme::Block, 16, [516, 70, 100, 160]),
        (256, tile, 16, [516, 22, 28, 160]),
        (16384, PartitionScheme::RowBand, 64, [32772, 262, 388, 640]),
    ] {
        let w = sapp::loops::workload("ST5").unwrap();
        let size = sapp::loops::Size::Grid2 {
            nx: edge,
            ny: edge,
            sweeps: 2,
        };
        let program = w.build(size).program;
        let statics = StaticArrays::scan(&program);
        let sched = Schedule::new(&program, &statics, scheme, 32, n_pes).unwrap();
        let mut got = [0usize; 4];
        for n in 0..sched.nests().len() {
            let chains = sched.chains(n);
            got[0] += sched.nest(n).sweeps.len();
            got[1] += chains.sweeps.len();
            got[2] += sched.folds(n, true).len();
            got[3] += chains
                .sweeps
                .iter()
                .map(|c| (0..n_pes).filter(|&pe| c.pes.contains(pe)).count())
                .sum::<usize>();
        }
        assert_eq!(got, want, "ST5 {edge}² {scheme:?} on {n_pes} PEs");
    }
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
