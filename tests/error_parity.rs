//! Error parity: a program that fails, fails the same way everywhere.
//!
//! Each row is a small program that raises one error at one statement
//! instance — a read of a never-defined cell, an index outside its
//! dimension (including one whose linear address is in range, so only the
//! per-dimension check can catch it), a gather position outside the index
//! array, a rank mismatch, a second write. The sequential interpreter, the
//! counting simulator and the thread engine must each report exactly the
//! message recorded here; the array, address, dimension and index in it
//! name the failing instance. The messages were recorded from the
//! recursive evaluator the compiled statement bodies replaced.
//!
//! The auto counting engine counts by replay only where replay proves
//! every reference in bounds, so on each row that leaves an array or
//! misses a rank it must fail exactly as the counting simulator does.

use sapp::core::exec::simulate;
use sapp::core::Engine;
use sapp::ir::index::{iv, AffineIndex, IndexExpr};
use sapp::ir::nest::ArrayRef;
use sapp::ir::program::ArrayInit;
use sapp::ir::{interpret, Expr, InitPattern, Program, ProgramBuilder, ReduceOp};
use sapp::machine::MachineConfig;
use sapp::runtime::{execute_on, RuntimeConfig};

/// `Y` defined on its first nine cells only; `X(i) = Y(i) + 1` reads the
/// tenth at `i = 9`.
fn read_undefined() -> Program {
    let mut b = ProgramBuilder::new("read_undefined");
    let y = b.array_with(
        "Y",
        &[10],
        ArrayInit::Prefix {
            pattern: InitPattern::Wavy,
            len: 9,
        },
    );
    let x = b.output("X", &[10]);
    b.nest("ru", &[("i", 0, 9)], |n| {
        n.assign(x, [iv(0)], n.read(y, [iv(0)]) + 1.0);
    });
    b.finish()
}

/// A reduction anchored on a read of a never-defined cell: the owner
/// screening meets it first.
fn reduce_read_undefined() -> Program {
    let mut b = ProgramBuilder::new("reduce_read_undefined");
    let y = b.array_with(
        "Y",
        &[16],
        ArrayInit::Prefix {
            pattern: InitPattern::Wavy,
            len: 11,
        },
    );
    let s = b.scalar("s");
    b.nest("sum", &[("i", 0, 15)], |n| {
        n.reduce(s, ReduceOp::Sum, n.read(y, [iv(0)]) * 2.0);
    });
    b.finish()
}

/// `X(i) = A(0, i + 1)` over `A` of 4 × 5: at `i = 4` the column index
/// is 5, outside its extent, while the linear address 5 is the next row's
/// first cell.
fn aliasing_read() -> Program {
    let mut b = ProgramBuilder::new("aliasing_read");
    let a = b.input("A", &[4, 5], InitPattern::Wavy);
    let x = b.output("X", &[5]);
    b.nest("alias", &[("i", 0, 4)], |n| {
        let value = n.read(a, [AffineIndex::constant(0), iv(0).plus(1)]);
        n.assign(x, [iv(0)], value);
    });
    b.finish()
}

/// `X(i, i + j) = A(i, j)` over a 2 × 5 box, `X` of 3 × 5: the target's
/// column index is 5 on the last instance only, where the linear address
/// 10 is the third row's first cell.
fn aliasing_target() -> Program {
    let mut b = ProgramBuilder::new("aliasing_target");
    let a = b.input("A", &[2, 5], InitPattern::Wavy);
    let x = b.output("X", &[3, 5]);
    b.nest("alias", &[("i", 0, 1), ("j", 0, 4)], |n| {
        let value = n.read(a, [iv(0), iv(1)]);
        n.assign(x, [iv(0), iv(0).add(&iv(1))], value);
    });
    b.finish()
}

/// `X(i, j) = A(i, j) - A(9 - i - j, j)` over a 6 × 6 box: the row index
/// of the second read is −1 on the last instance only.
fn negative_index() -> Program {
    let mut b = ProgramBuilder::new("negative_index");
    let a = b.input("A", &[10, 6], InitPattern::Harmonic);
    let x = b.output("X", &[6, 6]);
    b.nest("neg", &[("i", 0, 5), ("j", 0, 5)], |n| {
        let row = iv(0).add(&iv(1)).scale(-1).plus(9);
        let up = n.read(a, [row, iv(1)]);
        n.assign(x, [iv(0), iv(1)], n.read(a, [iv(0), iv(1)]) - up);
    });
    b.finish()
}

/// `X(k) = D(P(k + 2))`: at `k = 6` the gather position 8 is outside `P`.
fn gather_position() -> Program {
    let mut b = ProgramBuilder::new("gather_position");
    let d = b.input("D", &[8], InitPattern::Wavy);
    let p = b.input("P", &[8], InitPattern::Permutation { seed: 3 });
    let x = b.output("X", &[8]);
    b.nest("g", &[("k", 0, 7)], |n| {
        n.assign(x, [iv(0)], n.read_indirect(d, p, iv(0).plus(2)));
    });
    b.finish()
}

/// `X(k) = D(P(k))` with `P(k) = 2k`: the gathered index leaves `D` at
/// `k = 4`.
fn gather_value() -> Program {
    let mut b = ProgramBuilder::new("gather_value");
    let d = b.input("D", &[8], InitPattern::Wavy);
    let p = b.input(
        "P",
        &[8],
        InitPattern::Linear {
            base: 0.0,
            step: 2.0,
        },
    );
    let x = b.output("X", &[8]);
    b.nest("g", &[("k", 0, 7)], |n| {
        n.assign(x, [iv(0)], n.read_indirect(d, p, iv(0)) + 1.0);
    });
    b.finish()
}

/// A read of the 2-D `A` with one index.
fn rank_mismatch_read() -> Program {
    let mut b = ProgramBuilder::new("rank_mismatch_read");
    let a = b.input("A", &[4, 5], InitPattern::Wavy);
    let x = b.output("X", &[4]);
    b.nest("rank", &[("i", 0, 3)], |n| {
        let short = Expr::Read(ArrayRef::new(a, vec![iv(0).into()]));
        n.assign(x, [iv(0)], short + 1.0);
    });
    b.finish()
}

/// A write of the 1-D `X` with two indices, one of them a gather.
fn rank_mismatch_target() -> Program {
    let mut b = ProgramBuilder::new("rank_mismatch_target");
    let y = b.input("Y", &[4], InitPattern::Wavy);
    let p = b.input("P", &[4], InitPattern::Permutation { seed: 5 });
    let x = b.output("X", &[4]);
    b.nest("rank", &[("i", 0, 3)], |n| {
        let value = n.read(y, [iv(0)]);
        n.assign(
            x,
            [
                IndexExpr::from(iv(0)),
                IndexExpr::Indirect {
                    base: p,
                    pos: iv(0),
                    scale: 1,
                    offset: 0,
                },
            ],
            value,
        );
    });
    b.finish()
}

/// `X(0) = i` for every `i`: the second instance writes `X(0)` again.
fn double_write() -> Program {
    let mut b = ProgramBuilder::new("double_write");
    let x = b.output("X", &[4]);
    b.nest("dw", &[("i", 0, 3)], |n| {
        n.assign(x, [AffineIndex::constant(0)], Expr::LoopVar(0));
    });
    b.finish()
}

/// Two statements of one instance, the second writing what the first
/// wrote, on the fourth iteration of the outer loop.
fn double_write_in_body() -> Program {
    let mut b = ProgramBuilder::new("double_write_in_body");
    let y = b.input("Y", &[8, 8], InitPattern::Wavy);
    let x = b.output("X", &[8, 8]);
    b.nest("dw", &[("i", 0, 7), ("j", 0, 7)], |n| {
        n.assign(x, [iv(0), iv(1)], n.read(y, [iv(0), iv(1)]));
        n.assign(
            x,
            [AffineIndex::constant(3), AffineIndex::constant(5)],
            n.read(y, [iv(1), iv(0)]),
        );
    });
    b.finish()
}

/// `Y` defined on its first eight cells only and never written; PE 0's
/// first instance reads `Y(8)`, on PE 2's page, and PE 2 itself first
/// fetches `X(4..8)`, which PE 1 writes after PE 0 has asked. So on one
/// worker and on two (PEs 0 and 1 on the first, 2 and 3 on the second)
/// the request is queued at PE 2 before PE 2 can run out of program, and
/// PE 2 reports it then: a read past the prefix takes the deferral
/// protocol of any other undefined cell, on any worker.
fn dangling_prefix_read() -> Program {
    let mut b = ProgramBuilder::new("dangling_prefix_read");
    let y = b.array_with(
        "Y",
        &[16],
        ArrayInit::Prefix {
            pattern: InitPattern::Wavy,
            len: 8,
        },
    );
    let x = b.output("X", &[16]);
    let v = b.output("V", &[16]);
    b.nest("past", &[("i", 0, 7)], |n| {
        n.assign(x, [iv(0)], n.read(y, [iv(0).scale(-1).plus(8)]));
    });
    b.nest("after", &[("i", 0, 3)], |n| {
        n.assign(v, [iv(0).plus(8)], n.read(x, [iv(0).plus(4)]) + 1.0);
    });
    b.finish()
}

struct Row {
    name: &'static str,
    program: fn() -> Program,
    interp: &'static str,
    simulate: &'static str,
    thread: &'static str,
}

const ROWS: &[Row] = &[
    Row {
        name: "read_undefined",
        program: read_undefined,
        interp: "read of undefined cell Y[9]",
        simulate: "IR error: read of undefined cell Y[9]",
        thread: "worker panicked: worker 2: read of undefined cell array#0[9]",
    },
    Row {
        name: "reduce_read_undefined",
        program: reduce_read_undefined,
        interp: "read of undefined cell Y[11]",
        simulate: "IR error: read of undefined cell Y[11]",
        thread: "worker panicked: worker 2: read of undefined cell array#0[11]",
    },
    Row {
        name: "aliasing_read",
        program: aliasing_read,
        interp: "index 5 out of bounds for dimension 1 (extent 5) of array A",
        simulate: "IR error: index 5 out of bounds for dimension 1 (extent 5) of array A",
        thread: "worker panicked: worker 1: index 5 out of bounds for dimension 1 (extent 5) of array A",
    },
    Row {
        name: "aliasing_target",
        program: aliasing_target,
        interp: "index 5 out of bounds for dimension 1 (extent 5) of array X",
        simulate: "IR error: index 5 out of bounds for dimension 1 (extent 5) of array X",
        thread: "worker panicked: anchor resolution failed: index 5 out of bounds for dimension 1 (extent 5) of array X",
    },
    Row {
        name: "negative_index",
        program: negative_index,
        interp: "index -1 out of bounds for dimension 0 (extent 10) of array A",
        simulate: "IR error: index -1 out of bounds for dimension 0 (extent 10) of array A",
        thread: "worker panicked: worker 0: index -1 out of bounds for dimension 0 (extent 10) of array A",
    },
    Row {
        name: "gather_position",
        program: gather_position,
        interp: "index 8 out of bounds for dimension 0 (extent 8) of array P",
        simulate: "IR error: index 8 out of bounds for dimension 0 (extent 8) of array P",
        thread: "worker panicked: worker 1: index 8 out of bounds for dimension 0 (extent 8) of array P",
    },
    Row {
        name: "gather_value",
        program: gather_value,
        interp: "index 8 out of bounds for dimension 0 (extent 8) of array D",
        simulate: "IR error: index 8 out of bounds for dimension 0 (extent 8) of array D",
        thread: "worker panicked: worker 1: index 8 out of bounds for dimension 0 (extent 8) of array D",
    },
    Row {
        name: "rank_mismatch_read",
        program: rank_mismatch_read,
        interp: "array A has rank 2 but was indexed with 1 indices",
        simulate: "IR error: array A has rank 2 but was indexed with 1 indices",
        thread: "worker panicked: worker 0: array A has rank 2 but was indexed with 1 indices",
    },
    Row {
        name: "rank_mismatch_target",
        program: rank_mismatch_target,
        interp: "array X has rank 1 but was indexed with 2 indices",
        simulate: "IR error: array X has rank 1 but was indexed with 2 indices",
        thread: "worker panicked: anchor resolution failed: array X has rank 1 but was indexed with 2 indices",
    },
    Row {
        name: "double_write",
        program: double_write,
        interp: "single-assignment violation: X[0] written twice",
        simulate: "machine error: single-assignment violation: X[0] written twice",
        thread: "worker panicked: worker 0: single-assignment violation: array 0 addr 0 written twice",
    },
    Row {
        name: "double_write_in_body",
        program: double_write_in_body,
        interp: "single-assignment violation: X[29] written twice",
        simulate: "machine error: single-assignment violation: X[29] written twice",
        thread: "worker panicked: worker 3: single-assignment violation: array 1 addr 29 written twice",
    },
    Row {
        name: "dangling_prefix_read",
        program: dangling_prefix_read,
        interp: "read of undefined cell Y[8]",
        simulate: "IR error: read of undefined cell Y[8]",
        thread: "worker panicked: worker 2: deferred read of `Y` (array#0)[8], which this \
                 program never defines — a dangling I-structure deferral (sapp lint: SA004)",
    },
];

/// Four PEs on four-element pages: every program above spans several
/// owners, so the failing instance runs away from PE 0 and its reads
/// cross PEs.
fn machine() -> MachineConfig {
    MachineConfig::new(4, 4)
}

fn outcome<T, E: std::fmt::Display>(r: Result<T, E>) -> String {
    match r {
        Ok(_) => "ok".to_string(),
        Err(e) => e.to_string(),
    }
}

fn check(engine: &str, want: fn(&Row) -> &'static str, run: impl Fn(&Program) -> String) {
    check_rows(engine, ROWS.iter(), want, run);
}

fn check_rows<'r>(
    engine: &str,
    rows: impl Iterator<Item = &'r Row>,
    want: fn(&Row) -> &'static str,
    run: impl Fn(&Program) -> String,
) {
    let mut wrong = Vec::new();
    for row in rows {
        let got = run(&(row.program)());
        if got != want(row) {
            wrong.push(format!("{}: {got:?}", row.name));
        }
    }
    assert!(wrong.is_empty(), "{engine}:\n{}", wrong.join("\n"));
}

#[test]
fn the_interpreter_reports_each_error_at_its_instance() {
    check("interpret", |r| r.interp, |p| outcome(interpret(p)));
}

#[test]
fn the_counting_simulator_reports_each_error_at_its_instance() {
    check(
        "simulate",
        |r| r.simulate,
        |p| outcome(simulate(p, &machine())),
    );
}

#[test]
fn the_thread_engine_reports_each_error_at_its_instance() {
    let cfg = RuntimeConfig::from_machine(&machine());
    for workers in [1, 2] {
        check(
            &format!("thread on {workers} workers"),
            |r| r.thread,
            |p| outcome(execute_on(p, &cfg, workers)),
        );
    }
}

#[test]
fn the_auto_engine_reports_each_bounds_error_as_the_simulator_does() {
    // The definedness and double-write rows are outside replay's contract
    // (a valid program): the static passes reject those.
    let bounds = [
        "aliasing_read",
        "aliasing_target",
        "negative_index",
        "gather_position",
        "gather_value",
        "rank_mismatch_read",
        "rank_mismatch_target",
    ];
    check_rows(
        "auto",
        ROWS.iter().filter(|r| bounds.contains(&r.name)),
        |r| r.simulate,
        |p| outcome(Engine::Auto.count(p, &machine())),
    );
}
