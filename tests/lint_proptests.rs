//! Property-based certification of the `sa-lint` passes:
//!
//! * cache-less replay counts agree with the counting oracle, field for
//!   field, on randomly generated affine nests × partition schemes × page
//!   sizes × PE counts;
//! * the write-once verifier accepts every generated program the
//!   interpreter accepts, and flags a seeded double-write mutant of the
//!   same program with `SA001` (which the interpreter also traps, so the
//!   static and dynamic verdicts always agree);
//! * the generation-level dependence graph is *sound*: every
//!   read-after-write pair a traced sequential execution realizes is
//!   covered by a static edge (`DepGraph::covers_wait`);
//! * the deadlock pass proves every generated program (producers always
//!   precede consumers) free of wait-graph cycles at random machine
//!   shapes;
//! * the closed-form partition projection returns exactly what the
//!   per-instance enumerator returns — counts or the same typed error — on
//!   nests with negative steps, triangular bounds, zero-trip sweeps, no
//!   loops at all, anchorless reductions and out-of-bounds anchors, under
//!   all five scheme families;
//! * what write-once and progress prove over sweep footprints is what
//!   their per-instance reference (`lint::by_instance`) says — through
//!   `lint_program`, `check_write_once`, `check_progress` and
//!   `check_deadlock` — on both generators, with the double write on and
//!   off, on six seeded mutations of every program, and on the registry
//!   at reduced and official sizes.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use sapp::core::replay::counts;
use sapp::core::{simulate, Engine, FastCountingOracle, Oracle, RunConfig};
use sapp::ir::body::NestBody;
use sapp::ir::index::iv;
use sapp::ir::interp::Memory;
use sapp::ir::program::ArrayInit;
use sapp::ir::{
    AffineIndex, ArrayId, Expr, IndexExpr, InitPattern, IrError, LoopNest, LoopVar, Phase, Program,
    ProgramBuilder, ReduceOp, Stmt,
};
use sapp::lint::profile::{project, project_by_instance};
use sapp::lint::{self, Code, DepGraph, LintConfig, Severity};
use sapp::loops::suite::Family;
use sapp::machine::{MachineConfig, PartitionScheme};

const MAX_COEFF: i64 = 3;
const OFF_PAD: i64 = 10;

/// One randomly generated affine program: a strided write nest over reads
/// with random (coefficient, offset) subscripts, an optional anchorless
/// reduction nest, and an optional chained nest re-reading the outputs.
#[derive(Debug, Clone)]
struct Spec {
    /// `[n]` for a 1-level nest, `[outer, inner]` for a 2-level one.
    trips: Vec<usize>,
    /// `(coeff, offset)` per read of the shared input, innermost-affine.
    reads: Vec<(i64, i64)>,
    /// Stride of the write subscript on the innermost variable.
    stride: i64,
    /// Append an anchorless sum-reduction nest.
    reduce: bool,
    /// Append a nest re-reading the written array at matched subscripts.
    chain: bool,
    /// Shapes only the sweep-proof certification draws.
    extra: Extra,
}

/// What [`cert_spec_strategy`] adds to a [`Spec`]: the shapes the sweep
/// rung decides beyond in-order affine nests, and their near misses.
#[derive(Debug, Clone, Default)]
struct Extra {
    /// `stride` write statements at offsets `0…stride-1`, tiling `X`'s
    /// rows, instead of one at offset 0.
    tile: bool,
    /// A statement after the writes copying, into `W`, the identical `X`
    /// reference the first one wrote.
    reread: bool,
    /// A nest carrying a recurrence along its outermost loop: `R` one row
    /// (or cell) further on from the one before, the first initialized.
    recur: bool,
    /// A gather into the write nest, or a scatter beside it, through a
    /// static index array.
    lookup: Option<Lookup>,
}

/// A gather `V[scale·I[pos] + offset]` or a scatter `G[…, scale·I[pos] +
/// offset] ← Y[…]` along the innermost loop, through the static index
/// array `I`.
#[derive(Debug, Clone)]
struct Lookup {
    scatter: bool,
    /// `pos = coeff · inner + offset`.
    pos: (i64, i64),
    /// `I`'s length past the last position (negative: positions leave it).
    slack: i64,
    /// `I` is a permutation of its positions, reduced modulo this bound
    /// when there is one (repeated values: double writes for a scatter).
    limit: Option<usize>,
    /// `I` is `base + step · position` instead (truncated: repeated values
    /// where `|step| < 1`, negative ones past zero).
    linear: Option<(f64, f64)>,
    /// `V` or `G` is sized to the largest value the positions read rather
    /// than to `I`'s length: where that is smaller, the bound the pattern
    /// gives in closed form leaves the array and only the values decide.
    fit: bool,
    seed: u64,
    scale: i64,
    offset: i64,
    /// Cells cut off the end of `V` or `G` (values that leave it: SA006).
    shrink: i64,
    /// `V` has only its first half initialized (gathers of undefined
    /// cells: SA004).
    half_defined: bool,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (
        prop_oneof![
            (2usize..48).prop_map(|n| vec![n]),
            ((2usize..10), (2usize..16)).prop_map(|(a, b)| vec![a, b]),
        ],
        proptest::collection::vec((1i64..=MAX_COEFF, -OFF_PAD..=OFF_PAD), 1..4),
        1i64..4,
        proptest::bool::ANY,
        proptest::bool::ANY,
    )
        .prop_map(|(trips, reads, stride, reduce, chain)| Spec {
            trips,
            reads,
            stride,
            reduce,
            chain,
            extra: Extra::default(),
        })
}

/// [`spec_strategy`] with the [`Extra`] shapes drawn too.
fn cert_spec_strategy() -> impl Strategy<Value = Spec> {
    let lookup = (
        (proptest::bool::ANY, 1i64..3, 0i64..3),
        proptest::sample::select(vec![0i64, 0, 0, 2, -1]),
        (
            proptest::sample::select(vec![None, None, None, Some(3usize), Some(40)]),
            proptest::sample::select(vec![
                None,
                None,
                None,
                Some((0.0, 1.0)),
                Some((1.0, 1.0)),
                Some((0.0, 0.5)),
                Some((3.5, -0.5)),
                Some((-1.0, 2.0)),
            ]),
            0u64..1000,
        ),
        (1i64..3, 0i64..3, proptest::bool::ANY),
        (
            proptest::sample::select(vec![0i64, 0, 0, 1, 4]),
            proptest::sample::select(vec![false, false, false, true]),
        ),
    )
        .prop_map(
            |(
                (scatter, c, o),
                slack,
                (limit, linear, seed),
                (scale, offset, fit),
                (shrink, half_defined),
            )| {
                Lookup {
                    scatter,
                    pos: (c, o),
                    slack,
                    limit,
                    linear,
                    fit,
                    seed,
                    scale,
                    offset,
                    shrink,
                    half_defined,
                }
            },
        );
    let lookup = prop_oneof![Just(None), lookup.prop_map(Some)];
    let flags = (
        proptest::bool::ANY,
        proptest::bool::ANY,
        proptest::bool::ANY,
    );
    (spec_strategy(), flags, lookup).prop_map(|(spec, (tile, reread, recur), lookup)| Spec {
        extra: Extra {
            tile,
            reread,
            recur,
            lookup,
        },
        ..spec
    })
}

fn bounds(spec: &Spec) -> Vec<(&'static str, i64, i64)> {
    match spec.trips.as_slice() {
        [n] => vec![("k", 0, *n as i64 - 1)],
        [o, i] => vec![("i", 0, *o as i64 - 1), ("j", 0, *i as i64 - 1)],
        _ => unreachable!(),
    }
}

/// Materialize a spec. The clean build is valid single-assignment by
/// construction (strided injective writes, padded reads); `dup` appends a
/// one-iteration nest re-assigning `X[0…]`, which the write nest always
/// also assigns (innermost 0 → address 0) — a guaranteed double write.
fn build(spec: &Spec, dup: bool) -> Program {
    let mut b = ProgramBuilder::new("gen");
    let depth = spec.trips.len();
    let inner = *spec.trips.last().unwrap();
    let outer = if depth == 2 { spec.trips[0] } else { 1 };
    let extra = &spec.extra;
    // In front of the innermost index, the row a 2-level nest is on.
    let at = |last: IndexExpr| -> Vec<IndexExpr> {
        match depth {
            2 => vec![iv(0).into(), last],
            _ => vec![last],
        }
    };
    let dims_of = |row: usize| {
        if depth == 2 {
            vec![outer, row]
        } else {
            vec![row]
        }
    };

    let read_len = (MAX_COEFF * (inner as i64 - 1) + 2 * OFF_PAD + 1) as usize;
    let y = b.input("Y", &[read_len], InitPattern::Wavy);
    let tiles = if extra.tile { spec.stride } else { 1 };
    let row = (spec.stride * (inner as i64 - 1) + tiles) as usize;
    let dims = dims_of(row);
    let x = b.output("X", &dims);
    let w = extra.reread.then(|| b.output("W", &dims));
    // `(lookup, I, V or G)`.
    let lookup = extra.lookup.as_ref().map(|l| {
        let positions = l.pos.0 * (inner as i64 - 1) + l.pos.1 + 1;
        let len = (positions + l.slack).max(1) as usize;
        let pattern = match (l.linear, l.limit) {
            (Some((base, step)), _) => InitPattern::Linear { base, step },
            (None, Some(limit)) => InitPattern::BoundedPermutation {
                seed: l.seed,
                limit,
            },
            (None, None) => InitPattern::Permutation { seed: l.seed },
        };
        let index = b.input("I", &[len], pattern);
        // The largest value read, or what `I`'s length allows.
        let values = pattern.materialize(len);
        let read = (0..inner as i64).map(|k| l.pos.0 * k + l.pos.1);
        let largest = match read
            .filter_map(|p| values.get(p as usize))
            .map(|&v| v as i64)
            .max()
        {
            Some(max) if l.fit => max,
            _ => len as i64 - 1,
        };
        let extent = (l.scale * largest + l.offset + 1 - l.shrink).max(1) as usize;
        let through = if l.scatter {
            b.output("G", &dims_of(extent))
        } else if l.half_defined {
            let half = ArrayInit::Prefix {
                pattern: InitPattern::Wavy,
                len: extent / 2,
            };
            b.array_with("V", &[extent], half)
        } else {
            b.input("V", &[extent], InitPattern::Wavy)
        };
        (l, index, through)
    });
    let looked_up = |l: &Lookup, index: ArrayId| IndexExpr::Indirect {
        base: index,
        pos: iv(depth - 1).scale(l.pos.0).plus(l.pos.1),
        scale: l.scale,
        offset: l.offset,
    };

    b.nest("write", &bounds(spec), |nb| {
        let mut value: Option<sapp::ir::Expr> = None;
        for &(c, off) in &spec.reads {
            let read = nb.read(y, [iv(depth - 1).scale(c).plus(off + OFF_PAD)]);
            value = Some(match value {
                None => read,
                Some(v) => v + read,
            });
        }
        let mut value = value.expect("at least one read");
        if let Some((l, index, v)) = lookup.filter(|(l, ..)| !l.scatter) {
            value = value + nb.read(v, [looked_up(l, index)]);
        }
        for t in 0..tiles {
            let idx = iv(depth - 1).scale(spec.stride).plus(t);
            nb.assign(x, at(idx.into()), value.clone());
        }
        if let Some(w) = w {
            let first = at(iv(depth - 1).scale(spec.stride).into());
            let again = nb.read(x, first.clone());
            nb.assign(w, first, again);
        }
        if let Some((l, index, g)) = lookup.filter(|(l, ..)| l.scatter) {
            let v = nb.read(y, [iv(depth - 1)]);
            nb.assign(g, at(looked_up(l, index)), v);
        }
    });

    if spec.reduce {
        let s = b.scalar("s");
        b.nest("reduce", &bounds(spec), |nb| {
            let v = nb.read(y, [iv(depth - 1)]);
            nb.reduce(s, ReduceOp::Sum, v);
        });
    }

    if extra.recur {
        // R[i+1][j] = R[i][j] + Y[j] (R[k+1] = R[k] + Y[k] in one loop).
        let (rows, first) = if depth == 2 {
            (vec![outer + 1, inner], inner)
        } else {
            (vec![inner + 1], 1)
        };
        let seed = ArrayInit::Prefix {
            pattern: InitPattern::Harmonic,
            len: first,
        };
        let r = b.array_with("R", &rows, seed);
        b.nest("recur", &bounds(spec), |nb| {
            let v = nb.read(y, [iv(depth - 1)]);
            if depth == 2 {
                let before = nb.read(r, [iv(0), iv(1)]);
                nb.assign(r, [iv(0).plus(1), iv(1)], before + v);
            } else {
                let before = nb.read(r, [iv(0)]);
                nb.assign(r, [iv(0).plus(1)], before + v);
            }
        });
    }

    if spec.chain {
        let z = b.output("Z", &dims);
        b.nest("chain", &bounds(spec), |nb| {
            let idx = iv(depth - 1).scale(spec.stride);
            let mut v = nb.read(x, at(idx.clone().into()));
            // What only the scatter may define: cell 1 lies inside the
            // hull of its values, but a scale of 2 leaves it unwritten.
            if let Some((_, _, g)) = lookup.filter(|(l, ..)| l.scatter) {
                v = v + nb.read(g, at(iv(depth - 1).scale(0).plus(1).into()));
            }
            nb.assign(z, at(idx.into()), v);
        });
    }

    if dup {
        b.nest("dup", &[("d", 0, 0)], |nb| {
            let zero = iv(0).scale(0);
            if depth == 2 {
                nb.assign(x, [zero.clone(), zero], sapp::ir::Expr::Const(1.0));
            } else {
                nb.assign(x, [zero], sapp::ir::Expr::Const(1.0));
            }
        });
    }
    b.finish()
}

fn run_config_strategy() -> impl Strategy<Value = RunConfig> {
    (
        1usize..17,
        proptest::sample::select(vec![4usize, 8, 32, 64]),
        prop_oneof![
            Just(PartitionScheme::Modulo),
            Just(PartitionScheme::Block),
            (1usize..4).prop_map(|b| PartitionScheme::BlockCyclic { block_pages: b }),
        ],
    )
        .prop_map(|(n_pes, page_size, partition)| RunConfig {
            n_pes,
            page_size,
            cache_elems: 0,
            partition,
            ..RunConfig::default()
        })
}

/// One statement of a [`ProjNest`], by how it is placed.
#[derive(Debug, Clone)]
enum ProjStmt {
    /// `A[…] ← 1`, anchored at its target: per dimension (one or two) a
    /// coefficient on each of the two possible loop variables.
    Assign(Vec<[i64; 2]>),
    /// `s ⊕= Y[…]`, anchored at its first read.
    ReduceRead([i64; 2]),
    /// `s ⊕= 1`: no anchor, dealt round-robin.
    ReduceConst,
}

/// A nest shaped to stress the projection: 0–2 loops with steps of either
/// sign, the inner loop's bounds affine in the outer variable.
#[derive(Debug, Clone)]
struct ProjNest {
    depth: usize,
    /// `(start, span, step)` of the outer loop (see [`oriented`]).
    outer: (i64, i64, i64),
    /// `(start, lo's coefficient on the outer variable, span, hi's, step)`.
    inner: (i64, i64, i64, i64, i64),
    stmts: Vec<ProjStmt>,
    /// Elements cut off the end of each anchored array's first dimension;
    /// non-zero makes the last anchors leave the array.
    shrink: usize,
}

fn proj_nest_strategy() -> impl Strategy<Value = ProjNest> {
    let step = || proptest::sample::select(vec![1i64, 2, 3, -1, -2]);
    let coeffs = || (-2i64..=2, -2i64..=2).prop_map(|(a, b)| [a, b]);
    (
        0usize..3,
        (-3i64..=3, -1i64..=7, step()),
        (-3i64..=3, -1i64..=1, -1i64..=9, -1i64..=1, step()),
        proptest::collection::vec(
            prop_oneof![
                proptest::collection::vec(coeffs(), 1..3).prop_map(ProjStmt::Assign),
                coeffs().prop_map(ProjStmt::ReduceRead),
                Just(ProjStmt::ReduceConst),
            ],
            1..4,
        ),
        proptest::sample::select(vec![0usize, 0, 0, 0, 1, 3]),
    )
        .prop_map(|(depth, outer, inner, stmts, shrink)| ProjNest {
            depth,
            outer,
            inner,
            stmts,
            shrink,
        })
}

/// Bounds `span` apart, from `start`, in the direction `step` counts; a
/// span of −1 is the empty loop in either direction.
fn oriented(start: i64, span: i64, step: i64) -> (i64, i64) {
    if step > 0 {
        (start, start + span)
    } else {
        (start + span, start)
    }
}

fn proj_loops(n: &ProjNest) -> Vec<LoopVar> {
    let (olo, ohi) = oriented(n.outer.0, n.outer.1, n.outer.2);
    let (ilo, ihi) = oriented(n.inner.0, n.inner.2, n.inner.4);
    let outer = LoopVar {
        name: "i".into(),
        lo: olo.into(),
        hi: ohi.into(),
        step: n.outer.2,
    };
    let inner = |outer_var: Option<usize>| {
        let bound = |c: i64, k: i64| match outer_var {
            Some(v) => AffineIndex::scaled_var(k, v).plus(c),
            None => c.into(),
        };
        LoopVar {
            name: "j".into(),
            lo: bound(ilo, n.inner.1),
            hi: bound(ihi, n.inner.3),
            step: n.inner.4,
        }
    };
    match n.depth {
        0 => vec![],
        1 => vec![inner(None)],
        _ => vec![outer, inner(Some(0))],
    }
}

/// Materialize nests into a program: every anchored statement gets an
/// array of its own, sized to the subscripts its nest really produces
/// (shifted to start at 0) less the nest's `shrink`.
fn build_projection_program(nests: &[ProjNest]) -> Program {
    let mut b = ProgramBuilder::new("proj");
    let s = b.scalar("s");
    for (ni, n) in nests.iter().enumerate() {
        let loops = proj_loops(n);
        let mut domain: Vec<Vec<i64>> = Vec::new();
        LoopNest {
            label: String::new(),
            loops: loops.clone(),
            body: vec![],
        }
        .for_each_iteration(|ivs| domain.push(ivs.to_vec()));
        // Subscript per dimension: only in-scope variables, offset so the
        // smallest value produced is 0; plus the dimension's extent.
        let fit = |coeffs: &[i64; 2], shrink: usize| {
            let mut idx = AffineIndex::constant(0);
            for (v, &c) in coeffs.iter().take(n.depth).enumerate() {
                idx = idx.add(&AffineIndex::scaled_var(c, v));
            }
            let raw: Vec<i64> = domain.iter().map(|ivs| idx.eval(ivs)).collect();
            let lo = raw.iter().copied().min().unwrap_or(0);
            let hi = raw.iter().copied().max().unwrap_or(0);
            let extent = ((hi - lo + 1) as usize).saturating_sub(shrink).max(1);
            (idx.plus(-lo), extent)
        };
        let mut body: Vec<(ArrayId, Vec<AffineIndex>, bool)> = Vec::new();
        for (si, stmt) in n.stmts.iter().enumerate() {
            let (dims, assign): (&[[i64; 2]], bool) = match stmt {
                ProjStmt::Assign(dims) => (dims, true),
                ProjStmt::ReduceRead(c) => (std::slice::from_ref(c), false),
                ProjStmt::ReduceConst => continue,
            };
            let fitted: Vec<(AffineIndex, usize)> = dims
                .iter()
                .enumerate()
                .map(|(d, c)| fit(c, if d == 0 { n.shrink } else { 0 }))
                .collect();
            let extents: Vec<usize> = fitted.iter().map(|f| f.1).collect();
            let name = format!("A{ni}_{si}");
            let id = if assign {
                b.output(name, &extents)
            } else {
                b.input(name, &extents, InitPattern::Wavy)
            };
            body.push((id, fitted.into_iter().map(|f| f.0).collect(), assign));
        }
        b.nest_loops(format!("n{ni}"), loops, |nb| {
            let mut anchored = body.into_iter();
            for stmt in &n.stmts {
                if matches!(stmt, ProjStmt::ReduceConst) {
                    nb.reduce(s, ReduceOp::Sum, Expr::Const(1.0));
                    continue;
                }
                let (id, idx, assign) = anchored.next().expect("one per anchored statement");
                if assign {
                    nb.assign(id, idx, Expr::Const(1.0));
                } else {
                    let v = nb.read(id, idx);
                    nb.reduce(s, ReduceOp::Sum, v);
                }
            }
        });
    }
    b.finish()
}

fn lint_config_strategy() -> impl Strategy<Value = LintConfig> {
    (
        1usize..17,
        proptest::sample::select(vec![1usize, 4, 8, 32]),
        prop_oneof![
            Just(PartitionScheme::Modulo),
            Just(PartitionScheme::Block),
            (1usize..4).prop_map(|b| PartitionScheme::BlockCyclic { block_pages: b }),
            Just(PartitionScheme::RowBand),
            ((1usize..6), (1usize..6)).prop_map(|(r, c)| PartitionScheme::Tile2D {
                tile_rows: r,
                tile_cols: c,
            }),
        ],
    )
        .prop_map(|(n_pes, page_size, scheme)| LintConfig {
            n_pes,
            page_size,
            scheme,
        })
}

/// Dense tracing memory for a sequential reference walk: cell values plus
/// a per-array set of statement-written addresses, so every load of a
/// statement-produced cell records a realized read-after-write pair at the
/// reader's statement site.
struct TraceMem {
    vals: Vec<Vec<Option<f64>>>,
    written: Vec<HashSet<usize>>,
    gen: Vec<usize>,
    cur: (usize, usize),
    /// `(array, generation, reader phase, reader stmt)` observations.
    raws: HashSet<(usize, usize, usize, usize)>,
}

impl TraceMem {
    fn new(program: &Program) -> Self {
        let vals = program
            .arrays
            .iter()
            .map(|d| {
                let init = d.init.materialize(d.len());
                (0..d.len()).map(|i| init.get(i).copied()).collect()
            })
            .collect();
        TraceMem {
            vals,
            written: vec![HashSet::new(); program.arrays.len()],
            gen: vec![0; program.arrays.len()],
            cur: (0, 0),
            raws: HashSet::new(),
        }
    }
}

impl Memory for TraceMem {
    fn load(&mut self, array: ArrayId, addr: usize) -> Result<f64, IrError> {
        let a = array.0;
        if self.written[a].contains(&addr) {
            self.raws.insert((a, self.gen[a], self.cur.0, self.cur.1));
        }
        self.vals[a][addr].ok_or(IrError::ReadUndefined {
            array: format!("array#{a}"),
            addr,
        })
    }
}

/// Sequentially execute `program`, returning every realized RAW pair —
/// the ground truth the static dependence graph must cover.
fn observed_raws(program: &Program) -> HashSet<(usize, usize, usize, usize)> {
    let mut scalars = vec![0.0; program.scalars.len()];
    let mut mem = TraceMem::new(program);
    for (pi, phase) in program.phases.iter().enumerate() {
        match phase {
            Phase::Reinit(id) => {
                mem.vals[id.0] = vec![None; program.array(*id).len()];
                mem.written[id.0].clear();
                mem.gen[id.0] += 1;
            }
            Phase::Loop(nest) => {
                let mut partial: HashMap<usize, f64> = HashMap::new();
                let body = NestBody::compile(program, nest);
                let mut frame = body.frame();
                nest.for_each_sweep(|sweep| {
                    body.enter(&mut frame, sweep);
                    for t in 0..sweep.trips as i64 {
                        for (si, stmt) in nest.body.iter().enumerate() {
                            mem.cur = (pi, si);
                            let v = body
                                .value(si, t, &mut frame, &scalars, &mut mem)
                                .expect("clean program");
                            match stmt {
                                Stmt::Assign { target, .. } => {
                                    let site = body.target(si).expect("a target");
                                    let addr = body
                                        .addr(site, t, &mut frame, &mut mem)
                                        .expect("clean program");
                                    mem.vals[target.array.0][addr] = Some(v);
                                    mem.written[target.array.0].insert(addr);
                                }
                                Stmt::Reduce { target, op, .. } => {
                                    let acc =
                                        partial.entry(target.0).or_insert_with(|| op.identity());
                                    *acc = op.combine(*acc, v);
                                }
                            }
                        }
                    }
                });
                for (sid, v) in partial {
                    scalars[sid] = v;
                }
            }
        }
    }
    mem.raws
}

proptest! {
    /// Cache-less replay totals ≡ counting oracle on random nests ×
    /// schemes × page sizes — the engine, not just the CLI paths.
    #[test]
    fn estimator_matches_counting_oracle(
        spec in spec_strategy(),
        cfg in run_config_strategy(),
    ) {
        let program = build(&spec, false);
        let rep = counts(&program, &cfg.machine())
            .map_err(proptest::test_runner::TestCaseError::fail)?;
        let sim = simulate(&program, &cfg.machine())
            .map_err(proptest::test_runner::TestCaseError::fail)?;
        prop_assert_eq!(&rep.stats, &sim.stats, "spec {:?} cfg {:?}", &spec, &cfg);
        prop_assert_eq!(rep.network_messages, sim.network_messages);

        // And through the oracle adapters, field for field.
        let r = FastCountingOracle::with_engine(Engine::Replay).measure(&program, &cfg)
            .map_err(proptest::test_runner::TestCaseError::fail)?;
        let c = FastCountingOracle::with_engine(Engine::Interp).measure(&program, &cfg)
            .map_err(proptest::test_runner::TestCaseError::fail)?;
        prop_assert_eq!(r, c);
    }

    /// The verifier accepts what the interpreter accepts, and both reject
    /// the seeded double-write mutant of the same program.
    #[test]
    fn verifier_agrees_with_the_interpreter(spec in spec_strategy()) {
        let cfg = MachineConfig::new(4, 32).with_cache_elems(0);

        let clean = build(&spec, false);
        simulate(&clean, &cfg)
            .map_err(proptest::test_runner::TestCaseError::fail)?;
        let diags = lint::lint_program(&clean, &LintConfig::default());
        prop_assert!(
            diags.iter().all(|d| d.severity != Severity::Error),
            "verifier rejected an interpreter-accepted program: {:?}",
            diags
        );

        let mutant = build(&spec, true);
        prop_assert!(
            simulate(&mutant, &cfg).is_err(),
            "interpreter accepted the double-write mutant"
        );
        let report = lint::check_write_once(&mutant);
        prop_assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == Code::Sa001DoubleWrite),
            "mutant not flagged with SA001: {:?}",
            report.diagnostics
        );
    }

    /// Soundness of the generation-level dependence graph: every RAW pair
    /// a traced sequential execution realizes is covered by a static edge.
    #[test]
    fn observed_raw_pairs_are_covered_by_the_depgraph(spec in spec_strategy()) {
        let program = build(&spec, false);
        let g = DepGraph::build(&program);
        let raws = observed_raws(&program);
        if spec.chain {
            prop_assert!(!raws.is_empty(), "chained spec realized no RAW pair");
        }
        for (array, generation, phase, stmt) in raws {
            prop_assert!(
                g.covers_wait(phase, stmt, ArrayId(array), generation),
                "RAW at phase {} stmt {} on array {} gen {} has no covering \
                 static edge (spec {:?})",
                phase, stmt, array, generation, &spec
            );
        }
    }

    /// Producers always precede consumers in the generated programs, so
    /// the wait graph is acyclic at *any* machine shape — and the deadlock
    /// pass must prove it (affine instances: a full proof, no SA008 of any
    /// severity).
    #[test]
    fn generated_programs_prove_deadlock_free(
        spec in spec_strategy(),
        cfg in run_config_strategy(),
    ) {
        let program = build(&spec, false);
        let lc = LintConfig {
            n_pes: cfg.n_pes,
            page_size: cfg.page_size,
            scheme: cfg.partition,
        };
        let diags = lint::check_deadlock(&program, &lc);
        prop_assert!(
            diags.is_empty(),
            "expected a clean deadlock-freedom proof for spec {:?} at {:?}, got {:?}",
            &spec, &lc, &diags
        );
    }
}

proptest! {
    // Static on both sides and tiny programs: cheap enough for many cases.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The closed-form projection is the per-instance enumerator's, down
    /// to which array an out-of-bounds anchor is reported against.
    #[test]
    fn projection_matches_the_instance_enumerator(
        nests in proptest::collection::vec(proj_nest_strategy(), 1..4),
        cfg in lint_config_strategy(),
    ) {
        let program = build_projection_program(&nests);
        prop_assert_eq!(
            project(&program, &cfg),
            project_by_instance(&program, &cfg),
            "{}", sapp::ir::pretty::program_to_string(&program)
        );
    }

    /// Sweep footprints ≡ the instance walk and the cell enumeration, on
    /// the `spec` programs with and without their double write, and with
    /// the [`Extra`] shapes.
    #[test]
    fn sweep_proofs_match_the_instance_walk_on_generated_programs(
        spec in cert_spec_strategy(),
        dup in proptest::bool::ANY,
        cfg in lint_config_strategy(),
    ) {
        certify_with_mutants(&build(&spec, dup), &cfg)?;
    }

    /// The closed-form rules on the registry's stencil shape at random
    /// extents and sweep counts, and on mutants that overlap one cell
    /// (`SA001`, `SA002`) or leave cells for the next sweep to read
    /// undefined (`SA004`): the verdicts and texts of the instance walk
    /// and the cell enumeration.
    #[test]
    fn closed_form_rules_match_the_instance_walk_on_stencils(
        stencil in stencil_strategy(),
        cfg in lint_config_strategy(),
    ) {
        certify(&build_stencil(&stencil), &cfg)?;
    }

    /// The same on the projection generator's shapes: negative steps,
    /// triangular and zero-trip nests, zero-depth nests, reductions and
    /// anchors that leave their arrays.
    #[test]
    fn sweep_proofs_match_the_instance_walk_on_projection_programs(
        nests in proptest::collection::vec(proj_nest_strategy(), 1..4),
        cfg in lint_config_strategy(),
    ) {
        certify_with_mutants(&build_projection_program(&nests), &cfg)?;
    }
}

/// A stencil as the registry builds it (`sapp::loops::stencil`): per
/// sweep, face and edge strips around an interior — each strip fixing one
/// dimension to an edge, the dimensions before it kept inside — copying
/// or relaxing `U0` into `W0`, `W1`, `W0` again after a `Reinit`, … —
/// or one of its mutants.
#[derive(Debug, Clone)]
struct Stencil {
    /// 5-point, 9-point (both over `dims[..2]`) or 7-point 3-D.
    kind: usize,
    dims: [usize; 3],
    sweeps: usize,
    mutation: Mutation,
}

/// What a [`Stencil`] mutant changes in the first sweep's nests (`nest`
/// and `level` are taken modulo what there is).
#[derive(Debug, Clone, Copy)]
enum Mutation {
    None,
    /// One loop kept inside its dimension one trip wider, into the cells
    /// of the strip beside it (a loop spanning its dimension is left as
    /// it is): `SA001`.
    Overlap {
        nest: usize,
        level: usize,
        below: bool,
    },
    /// `W0`'s first `len` cells initialized: `SA002`.
    Seeded {
        len: usize,
    },
    /// One loop one trip shorter: cells nobody defines, which the next
    /// sweep reads (`SA004`).
    Unwritten {
        nest: usize,
        level: usize,
    },
}

fn stencil_strategy() -> impl Strategy<Value = Stencil> {
    let mutation = prop_oneof![
        Just(Mutation::None),
        (0usize..7, 0usize..3, proptest::bool::ANY)
            .prop_map(|(nest, level, below)| { Mutation::Overlap { nest, level, below } }),
        (1usize..4).prop_map(|len| Mutation::Seeded { len }),
        (0usize..7, 0usize..3).prop_map(|(nest, level)| Mutation::Unwritten { nest, level }),
    ];
    let dims = (3usize..8, 3usize..8, 3usize..6);
    (0usize..3, dims, 1usize..4, mutation).prop_map(|(kind, (nx, ny, nz), sweeps, mutation)| {
        Stencil {
            kind,
            dims: [nx, ny, nz],
            sweeps,
            mutation,
        }
    })
}

fn build_stencil(s: &Stencil) -> Program {
    use sapp::loops::stencil::{build_heat7, build_jacobi5, build_ninepoint};
    let [nx, ny, nz] = s.dims;
    let (mut program, rank) = match s.kind {
        0 => (build_jacobi5(nx, ny, s.sweeps).program, 2),
        1 => (build_ninepoint(nx, ny, s.sweeps).program, 2),
        _ => (build_heat7(nx, ny, nz, s.sweeps).program, 3),
    };
    // The first sweep: 2·rank strips, then the interior.
    fn loop_of(p: &mut Program, nests: usize, nest: usize, level: usize) -> Option<&mut LoopVar> {
        let mut loops = p.phases.iter_mut().filter_map(|phase| match phase {
            Phase::Loop(nest) => Some(&mut nest.loops),
            Phase::Reinit(_) => None,
        });
        let loops = loops.nth(nest % nests)?;
        let depth = loops.len();
        loops.get_mut(level % depth)
    }
    let nests = 2 * rank + 1;
    match s.mutation {
        Mutation::None => {}
        Mutation::Overlap { nest, level, below } => {
            if let Some(lv) = loop_of(&mut program, nests, nest, level) {
                if lv.lo.offset >= 1 && below {
                    lv.lo.offset -= 1;
                } else if lv.lo.offset >= 1 {
                    lv.hi.offset += 1;
                }
            }
        }
        Mutation::Seeded { len } => {
            let w0 = program.arrays.iter_mut().find(|d| d.name == "W0");
            if let Some(decl) = w0 {
                decl.init = ArrayInit::Prefix {
                    pattern: InitPattern::Zero,
                    len,
                };
            }
        }
        Mutation::Unwritten { nest, level } => {
            if let Some(lv) = loop_of(&mut program, nests, nest, level) {
                lv.lo.offset += 1;
            }
        }
    }
    program
}

/// Each [`Mutation`] of each stencil kind draws the finding it is aimed
/// at — the certification above compares texts, so it must have some —
/// and the clean stencils are decided without a sweep or the walk.
#[test]
fn stencil_mutants_draw_their_findings() {
    for kind in 0..3 {
        let findings = |mutation| {
            let stencil = Stencil {
                kind,
                dims: [6, 5, 4],
                sweeps: 2,
                mutation,
            };
            let program = build_stencil(&stencil);
            certify(&program, &LintConfig::default()).unwrap();
            let report = lint::progress::progress_report(&program);
            let once = lint::check_write_once(&program);
            let codes = once.diagnostics.iter().chain(&report.diagnostics);
            let codes: Vec<Code> = codes.map(|d| d.code).collect();
            (codes, report.over_sweeps > 0 || report.walked)
        };
        assert_eq!(findings(Mutation::None), (vec![], false), "{kind}");
        // The last strip of the first sweep: its loops kept inside.
        let last_strip = 2 * if kind == 2 { 3 } else { 2 } - 1;
        for below in [true, false] {
            let overlap = findings(Mutation::Overlap {
                nest: last_strip,
                level: 0,
                below,
            });
            assert_eq!(overlap.0, [Code::Sa001DoubleWrite], "{kind}");
        }
        let seeded = findings(Mutation::Seeded { len: 2 });
        assert_eq!(seeded.0, [Code::Sa002WriteIntoInit], "{kind}");
        // Read by one tap or several.
        let (codes, decided) = findings(Mutation::Unwritten { nest: 0, level: 0 });
        assert!(decided && !codes.is_empty(), "{kind}");
        assert!(
            codes.iter().all(|&c| c == Code::Sa004DanglingRead),
            "{kind}: {codes:?}"
        );
    }
}

/// The profile's sweep shapes the generator rarely draws, against the
/// instance enumerator: an anchor stride that does not divide the page
/// (3 at pages of 8), strides that leap a page every trip (9, and whole
/// pages at 16), a stride of exactly one page, a transposed anchor in a
/// rectangular nest (whose profile walks the other loop innermost), with
/// steps of either sign, and rows of whole pages (sweeps that are
/// translates of one another).
#[test]
fn projection_matches_the_instance_enumerator_on_uneven_and_leaping_strides() {
    let flat = |stmts: Vec<ProjStmt>| ProjNest {
        depth: 1,
        outer: (0, 0, 1),
        inner: (0, 0, 61, 0, 1),
        stmts,
        shrink: 0,
    };
    let grid = |stmts: Vec<ProjStmt>, outer_step: i64, inner_step: i64| ProjNest {
        depth: 2,
        outer: (0, 10, outer_step),
        inner: (0, 0, 15, 0, inner_step),
        stmts,
        shrink: 0,
    };
    let programs = [
        vec![flat(vec![ProjStmt::Assign(vec![[3, 0]])])],
        vec![flat(vec![
            ProjStmt::Assign(vec![[9, 0]]),
            ProjStmt::ReduceRead([16, 0]),
        ])],
        vec![flat(vec![
            ProjStmt::Assign(vec![[8, 0]]),
            ProjStmt::Assign(vec![[-3, 0]]),
        ])],
        vec![grid(vec![ProjStmt::Assign(vec![[0, 1], [1, 0]])], 1, 1)],
        vec![grid(vec![ProjStmt::Assign(vec![[0, 1], [1, 0]])], -1, -2)],
        vec![grid(
            vec![
                ProjStmt::Assign(vec![[1, 0], [0, 1]]),
                ProjStmt::ReduceRead([2, 3]),
                ProjStmt::ReduceConst,
            ],
            1,
            -1,
        )],
        vec![
            grid(vec![ProjStmt::Assign(vec![[1, 0], [0, 1]])], 1, 1),
            flat(vec![ProjStmt::ReduceRead([3, 0])]),
            grid(vec![ProjStmt::Assign(vec![[0, 1], [1, 0]])], -1, 1),
        ],
    ];
    let schemes = [
        PartitionScheme::Modulo,
        PartitionScheme::Block,
        PartitionScheme::BlockCyclic { block_pages: 3 },
        PartitionScheme::RowBand,
        PartitionScheme::Tile2D {
            tile_rows: 2,
            tile_cols: 3,
        },
    ];
    for nests in &programs {
        let program = build_projection_program(nests);
        for page_size in [1usize, 2, 3, 8, 16, 32] {
            for scheme in schemes {
                for n_pes in [1usize, 3, 7, 16] {
                    let cfg = LintConfig {
                        n_pes,
                        page_size,
                        scheme,
                    };
                    let projected = project(&program, &cfg);
                    assert!(projected.is_ok(), "{nests:?} @ {cfg:?}");
                    assert_eq!(
                        projected,
                        project_by_instance(&program, &cfg),
                        "{} @ {cfg:?}",
                        sapp::ir::pretty::program_to_string(&program)
                    );
                }
            }
        }
    }
}

/// What the exact passes say about a program under a config:
/// `lint_program`, the write-once report (findings, then the segments
/// checked — which rung decided each differs by design: the closed-form
/// rules are off on the reference path), `check_progress` and
/// `check_deadlock`.
type Verdicts = (
    Vec<lint::Diagnostic>,
    (Vec<lint::Diagnostic>, usize),
    Vec<lint::Diagnostic>,
    Vec<lint::Diagnostic>,
);

fn verdicts(program: &Program, cfg: &LintConfig) -> Verdicts {
    let once = lint::check_write_once(program);
    let segments = once.proven_affine + once.over_sweeps + once.enumerated;
    (
        lint::lint_program(program, cfg),
        (once.diagnostics, segments),
        lint::check_progress(program),
        lint::check_deadlock(program, cfg),
    )
}

/// The passes say of `program` what their per-instance reference says.
fn certify(program: &Program, cfg: &LintConfig) -> Result<(), TestCaseError> {
    let reference = lint::by_instance(|| verdicts(program, cfg));
    prop_assert_eq!(
        verdicts(program, cfg),
        reference,
        "{:?}\n{}",
        cfg,
        sapp::ir::pretty::program_to_string(program)
    );
    Ok(())
}

fn certify_with_mutants(program: &Program, cfg: &LintConfig) -> Result<(), TestCaseError> {
    certify(program, cfg)?;
    for mutant in mutants(program) {
        certify(&mutant, cfg)?;
    }
    Ok(())
}

/// Six seeded mutations, each aimed at one thing the sweeps proofs must
/// not miss (a mutation with nothing to act on returns the program as it
/// is):
///
/// 1. the phases in reverse order — consumers before their producers:
///    forward deferrals, wait cycles and dangling reads;
/// 2. every read's outermost index one further — reads of cells nobody
///    defines, or past the array;
/// 3. the first nest's outermost loop one trip shorter — a producer that
///    leaves cells undefined for later readers;
/// 4. the first nest's innermost loop one trip longer — writes that leave
///    their array, or write a cell twice;
/// 5. a `Reinit` of the first nest's first written array before the last
///    nest — a generation emptied under its readers;
/// 6. that array's first half (and one cell) initialized — writes into the
///    initializer's prefix, and reads past it.
fn mutants(program: &Program) -> Vec<Program> {
    fn first_nest(p: &mut Program) -> Option<&mut LoopNest> {
        p.phases.iter_mut().find_map(|phase| match phase {
            Phase::Loop(nest) => Some(nest),
            Phase::Reinit(_) => None,
        })
    }
    let mut reversed = program.clone();
    reversed.phases.reverse();

    let mut shifted = program.clone();
    for phase in &mut shifted.phases {
        if let Phase::Loop(nest) = phase {
            for stmt in &mut nest.body {
                let value = match stmt {
                    Stmt::Assign { value, .. } | Stmt::Reduce { value, .. } => value,
                };
                shift_reads(value);
            }
        }
    }

    let mut shorter = program.clone();
    if let Some(lv) = first_nest(&mut shorter).and_then(|n| n.loops.first_mut()) {
        lv.hi = lv.hi.clone().plus(-lv.step.signum());
    }

    let mut longer = program.clone();
    if let Some(lv) = first_nest(&mut longer).and_then(|n| n.loops.last_mut()) {
        lv.hi = lv.hi.clone().plus(lv.step.signum());
    }

    let mut emptied = program.clone();
    let written = first_nest(&mut emptied).and_then(|n| {
        n.body
            .iter()
            .find_map(|s| s.write_target().map(|t| t.array))
    });
    let last = emptied
        .phases
        .iter()
        .rposition(|p| matches!(p, Phase::Loop(_)));
    if let (Some(array), Some(last)) = (written, last) {
        emptied.phases.insert(last, Phase::Reinit(array));
    }

    let mut prefixed = program.clone();
    if let Some(decl) = written.map(|array| &mut prefixed.arrays[array.0]) {
        decl.init = ArrayInit::Prefix {
            pattern: InitPattern::Zero,
            len: decl.len() / 2 + 1,
        };
    }
    vec![reversed, shifted, shorter, longer, emptied, prefixed]
}

fn shift_reads(expr: &mut Expr) {
    match expr {
        Expr::Read(aref) => {
            if let Some(IndexExpr::Affine(a)) = aref.indices.first_mut() {
                a.offset += 1;
            }
        }
        Expr::Unary(_, a) => shift_reads(a),
        Expr::Binary(_, a, b) => {
            shift_reads(a);
            shift_reads(b);
        }
        Expr::Const(_) | Expr::Param(_) | Expr::Scalar(_) | Expr::LoopVar(_) => {}
    }
}

/// The registry, at reduced and official sizes, and the reduced programs'
/// mutants, under four machine shapes. The scale family's official sizes
/// (10⁵–10⁶ instances, walked three times by the reference) are left to
/// the release run CI makes of this file.
#[test]
fn sweep_proofs_match_the_instance_walk_on_the_registry() {
    let shapes = [
        LintConfig::default(),
        LintConfig {
            n_pes: 4,
            page_size: 8,
            scheme: PartitionScheme::Block,
        },
        LintConfig {
            n_pes: 7,
            page_size: 4,
            scheme: PartitionScheme::BlockCyclic { block_pages: 2 },
        },
        LintConfig {
            n_pes: 6,
            page_size: 16,
            scheme: PartitionScheme::Tile2D {
                tile_rows: 4,
                tile_cols: 8,
            },
        },
    ];
    for w in sapp::loops::workloads() {
        let (reduced, official) = (w.reduced().program, w.official().program);
        for (i, cfg) in shapes.iter().enumerate() {
            certify_with_mutants(&reduced, cfg).unwrap_or_else(|e| panic!("{}: {e}", w.code));
            // The official sizes are the slow half: one shape each.
            let official_here = !(cfg!(debug_assertions) && w.family == Family::Scale);
            if official_here && i == w.code.len() % shapes.len() {
                certify(&official, cfg).unwrap_or_else(|e| panic!("{}: {e}", w.code));
            }
        }
    }
}
