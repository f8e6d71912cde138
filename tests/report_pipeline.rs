//! Regression tests for the report pipeline's edge cases:
//!
//! * zero-read programs (e.g. write-only or pure-reinit phases) must
//!   report 0.0 remote % — never NaN — all the way from `Stats` through
//!   the oracles into CSV/JSON cells and `ResultSet` pivots;
//! * the hand-rolled `report::json` emitter must escape hostile kernel
//!   and nest labels per RFC 8259;
//! * an invalid machine shape — zero PEs, a zero page size — is a one-line
//!   usage error and exit 2 on every command, never a panic;
//! * the registry search prints the pinned document
//!   (`tests/expected/registry_search_exhaustive.json`) whatever the
//!   strategy.

use sapp::core::exec::simulate;
use sapp::core::plan::ExperimentPlan;
use sapp::core::replay;
use sapp::core::report::{csv, fmt_pct, json};
use sapp::core::results::Column;
use sapp::core::{Engine, FastCountingOracle, Oracle};
use sapp::ir::index::iv;
use sapp::ir::{Program, ProgramBuilder};
use sapp::machine::MachineConfig;

/// A program whose only nest performs writes but no reads, plus a reinit
/// round — total reads stay zero for the whole run.
fn write_only_program() -> Program {
    let mut b = ProgramBuilder::new("write-only");
    let x = b.output("X", &[96]);
    b.nest("fill", &[("k", 0, 95)], |nb| {
        nb.assign(x, [iv(0)], sapp::ir::Expr::LoopVar(0));
    });
    b.reinit(x);
    b.nest("refill", &[("k", 0, 95)], |nb| {
        nb.assign(x, [iv(0)], sapp::ir::Expr::LoopVar(0) * 2.0);
    });
    b.finish()
}

#[test]
fn zero_read_run_reports_zero_remote_pct_not_nan() {
    let p = write_only_program();
    let cfg = MachineConfig::new(4, 16);

    let sim = simulate(&p, &cfg).unwrap();
    assert_eq!(sim.stats.total_reads(), 0);
    assert_eq!(sim.remote_pct(), 0.0);
    assert!(!sim.remote_pct().is_nan());
    assert_eq!(sim.stats.cached_read_pct(), 0.0);
    // Per-nest stats are zero-read too and must behave the same.
    for (label, stats) in &sim.per_nest {
        assert_eq!(stats.remote_read_pct(), 0.0, "nest {label}");
        assert!(!stats.remote_read_pct().is_nan(), "nest {label}");
    }

    let rep = replay::counts(&p, &cfg).unwrap();
    assert_eq!(rep.remote_pct(), 0.0);
    assert!(!rep.remote_pct().is_nan());
}

#[test]
fn zero_read_records_render_cleanly_in_csv_and_json() {
    let p = write_only_program();
    let plan = ExperimentPlan::new().pes(&[1, 4]);
    for oracle in [
        Box::new(FastCountingOracle::with_engine(Engine::Interp)) as Box<dyn Oracle>,
        Box::new(FastCountingOracle::default()),
    ] {
        let results = plan.run(&p, oracle.as_ref()).unwrap();
        for r in results.records() {
            assert_eq!(r.remote_pct, 0.0, "{}", oracle.name());
            assert!(!r.remote_pct.is_nan());
            assert!(!r.cached_pct.is_nan());
            assert!(!r.write_balance.is_nan());
        }
        let cols = [Column::Pes, Column::RemotePct, Column::CachedPct];
        let rows = results.rows(&cols);
        let rendered_csv = csv(&Column::headers(&cols), &rows);
        let rendered_json = json(&Column::headers(&cols), &rows);
        for out in [&rendered_csv, &rendered_json] {
            assert!(!out.contains("NaN"), "NaN leaked into output: {out}");
            assert!(out.contains("0.00%"), "missing zero percentage: {out}");
        }
        // Pivots over a zero-read set stay finite as well.
        let series = results.series(
            |_| "all".to_string(),
            |r| r.cfg.n_pes as f64,
            |r| r.remote_pct,
        );
        assert!(series[0].points.iter().all(|(_, y)| y.is_finite()));
    }
}

#[test]
fn fmt_pct_of_zero_is_stable() {
    assert_eq!(fmt_pct(0.0), "0.00%");
}

#[test]
fn json_escapes_hostile_kernel_and_nest_labels() {
    // A label exercising every escape class of RFC 8259 §7: quote,
    // backslash, the two-character escapes, and a raw control byte.
    let hostile = "K\"1\\evil\n\r\t\u{1}end";
    let out = json(
        &["kernel", "remote_pct"],
        &[vec![hostile.to_string(), "1.5".into()]],
    );
    assert!(
        out.contains(r#""K\"1\\evil\n\r\t\u0001end""#),
        "label not escaped per RFC 8259: {out}"
    );
    // No raw control characters or unescaped quotes survive.
    assert!(out.chars().all(|c| c >= ' ' || c == '\n'));

    // Hostile headers are escaped the same way.
    let out = json(&["a\"b\\c"], &[vec!["1".into()]]);
    assert!(out.contains(r#""a\"b\\c""#), "{out}");
}

#[test]
fn json_end_to_end_with_a_hostile_kernel_axis_label() {
    // Kernel labels flow verbatim from the plan into report cells; a
    // hostile code must come out escaped, not break the document.
    let p = write_only_program();
    let hostile = "K\"12\\x\n";
    let plan = ExperimentPlan::new().kernels(&[hostile]).pes(&[2]);
    let results = plan
        .run_kernels(
            &[(hostile, &p)],
            &FastCountingOracle::with_engine(Engine::Interp),
        )
        .unwrap();
    let cols = [Column::Kernel, Column::RemotePct];
    let out = json(&Column::headers(&cols), &results.rows(&cols));
    assert!(out.contains(r#""K\"12\\x\n""#), "{out}");
    // Raw newline inside a string literal would be invalid JSON; the only
    // newlines left are the pretty-printer's own, so every line must close
    // its quotes (counting backslash escapes).
    for line in out.lines() {
        let (mut esc, mut quotes) = (false, 0usize);
        for c in line.chars() {
            if esc {
                esc = false;
            } else if c == '\\' {
                esc = true;
            } else if c == '"' {
                quotes += 1;
            }
        }
        assert_eq!(quotes % 2, 0, "unbalanced quotes in line: {line}");
    }
}

/// A tiny kernel both backends support (LRU cache, ideal network).
fn skewed_program() -> Program {
    let mut b = ProgramBuilder::new("skew");
    let y = b.input("Y", &[160], sapp::ir::InitPattern::Wavy);
    let x = b.output("X", &[128]);
    b.nest("s", &[("k", 0, 127)], |nb| {
        nb.assign(x, [iv(0)], nb.read(y, [iv(0).plus(17)]));
    });
    b.finish()
}

#[test]
fn mixed_oracle_pivots_print_every_backends_hops() {
    use sapp::core::results::ResultSet;
    use sapp::machine::NetworkTopology;
    use sapp::runtime::ThreadOracle;

    let p = skewed_program();
    let plan = ExperimentPlan::new()
        .networks(&[NetworkTopology::Ideal, NetworkTopology::Mesh2D])
        .pes(&[2, 4])
        .cache_flags(&[false]);
    let sim = plan
        .run(&p, &FastCountingOracle::with_engine(Engine::Interp))
        .unwrap();
    let real = plan.run(&p, &ThreadOracle).unwrap();

    // Every backend models the network: the thread workers price every
    // modeled send through the link model the counting engines route with.
    // So one mixed set, as a cross-backend comparison table would build
    // it, prints a number in every cell, and the two backends' rows agree.
    let mut records = sim.records().to_vec();
    records.extend(real.records().iter().cloned());
    let mixed = ResultSet::new(records);
    let cols = [
        Column::Network,
        Column::Pes,
        Column::Messages,
        Column::Hops,
        Column::MaxLinkLoad,
    ];
    let rows = mixed.rows(&cols);
    let n = sim.len();
    assert_eq!(rows[..n], rows[n..], "thread rows print the counting rows");
    assert!(rows[..2].iter().all(|r| r[3] == "0"), "ideal: {rows:?}");
    assert!(rows[2..n].iter().all(|r| r[3] != "0"), "mesh: {rows:?}");

    let c = csv(&Column::headers(&cols), &rows);
    let lines: Vec<&str> = c.lines().collect();
    assert_eq!(lines[0], "network,pes,messages,hops,max_link_load");
    for line in &lines[1..] {
        assert!(line.split(',').all(|cell| !cell.is_empty()), "{line}");
    }
    let j = json(&Column::headers(&cols), &rows);
    assert!(j.contains("\"hops\": 0"), "{j}");
    assert!(!j.contains("\"\""), "{j}");
    assert!(!j.contains("NaN"));
}

#[test]
fn invalid_machine_shapes_exit_with_the_config_error_on_the_static_paths() {
    // (arguments, exit code, what the output must say). A panic exits 101;
    // a malformed flag value is 2 with one line naming the flag (zero PEs
    // and zero page sizes: `no_command_panics_on_an_invalid_machine_shape`);
    // `timing` honours the machine flags, `--pes` setting the top of its
    // ladder, and `--format`; `classify` measures at `--page`; 70 000 PEs
    // are no reason to give up K1's deadlock proof (the orphaned-PE warning
    // is the one finding).
    for (args, code, want) in [
        (
            "lint k1 --pes 70000",
            0,
            "\n1 diagnostic(s) across 1 kernel(s)",
        ),
        (
            "simulate k1 --partition tile2d:0x0",
            2,
            "sapp: --partition: tile extents must be ≥ 1 (got tile2d:0x0)",
        ),
        (
            "search --budget 0",
            2,
            "sapp: --budget: must be ≥ 1 (got 0)",
        ),
        (
            "simulate k1 --pes x",
            2,
            "sapp: --pes: expects a non-negative integer (got x)",
        ),
        ("timing k1 --pes", 2, "sapp: --pes: expects a value"),
        // A format the command cannot print is refused before any work:
        // a clean kernel and one with findings alike.
        (
            "lint k1 --format dot",
            2,
            "sapp: --format: expects table|csv|json (got dot)",
        ),
        (
            "lint k22 --format dot",
            2,
            "sapp: --format: expects table|csv|json (got dot)",
        ),
        (
            "graph k1 --format csv",
            2,
            "sapp: --format: expects dot|json (got csv)",
        ),
        ("timing k1 --pes 7", 0, "| 4 | 3.18× |\n| 7 | 5.08× |\n\n"),
        ("timing k1", 0, "| 16 | 12.71× |\n| 32 | 25.42× |\n\n"),
        (
            "timing k1 --no-cache --partition block --network ring",
            0,
            "| 32 | 6.44× |",
        ),
        (
            "timing k1 --pes 4 --format csv",
            0,
            "PEs,speedup\n1,1.00×\n2,1.59×\n4,3.18×\n",
        ),
        (
            "timing k1 --pes 2 --format json",
            0,
            "{\"PEs\": 2, \"speedup\": \"1.59×\"}",
        ),
        (
            "classify k1 --page 8",
            0,
            "4 PEs: 8.36% cached / 66.67% uncached",
        ),
        ("classify k1", 0, "4 PEs: 1.03% cached / 21.68% uncached"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_sapp"))
            .args(args.split(' '))
            .output()
            .expect("sapp runs");
        let said = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "sapp {args}: {said}");
        assert!(said.contains(want), "sapp {args}: {said}");
        assert!(!said.contains("panicked"), "sapp {args}: {said}");
        if code == 2 {
            assert_eq!(
                said,
                format!("{want}\n"),
                "sapp {args}: one line, no usage dump"
            );
        }
    }
}

/// The registry search's document, pinned byte for byte. Every engine
/// prunes with the same static bound and fans the kernels out the same
/// way, so comparing engines with each other cannot see a change to
/// either; this file can. The default budget covers the space, so every
/// strategy runs the branch and bound and prints the same document.
#[test]
fn registry_search_documents_are_pinned() {
    let want = include_str!("expected/registry_search_exhaustive.json");
    for strategy in ["exhaustive", "propagate", "anneal"] {
        let (code, out, err) = sapp(&format!("search --strategy {strategy} --format json"));
        assert_eq!(code, Some(0), "search --strategy {strategy}: {err}");
        assert!(
            out == want,
            "search --strategy {strategy}: stdout moved:\n{out}"
        );
    }
}

/// `sapp ARGS`: exit code, stdout, stderr.
fn sapp(args: &str) -> (Option<i32>, String, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sapp"))
        .args(args.split(' '))
        .output()
        .expect("sapp runs");
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

/// Lint proves a program that runs in order over sweep footprints, so its
/// size does not matter: K1 at n = 10⁹ prints the clean document, and K1
/// at n = 5·10⁹ — past the 2³² statement instances the instance walk can
/// number — lints clean instead of noting "instance graph exceeds the u32
/// id space". A read nobody defines is still found by the walk, with the
/// iteration vector it always had.
#[test]
fn lint_proves_in_order_programs_at_any_size_and_walks_the_rest() {
    let (code, out, err) = sapp("lint k1 --size 1000000000 --format json");
    assert_eq!(code, Some(0), "{err}");
    assert_eq!(out, "[{\"kernel\":\"K1\",\"diagnostics\":[]}]\n");
    let (code, out, err) = sapp("lint k1 --size 5000000000");
    assert_eq!(code, Some(0), "{err}");
    assert!(
        out.starts_with("clean: 0 diagnostics across 1 kernel(s) in "),
        "{out}"
    );

    let mut b = ProgramBuilder::new("dangling");
    let x = b.output("X", &[32]);
    let z = b.output("Z", &[32]);
    b.nest("produce-half", &[("k", 0, 15)], |nb| {
        nb.assign(x, [iv(0)], sapp::ir::Expr::LoopVar(0));
    });
    b.nest("consume-all", &[("k", 0, 31)], |nb| {
        let rhs = nb.read(x, [iv(0)]);
        nb.assign(z, [iv(0)], rhs);
    });
    let diags = sapp::lint::lint_program(&b.finish(), &sapp::lint::LintConfig::default());
    let said: Vec<String> = diags
        .iter()
        .map(|d| format!("{} {} {} {}", d.severity, d.code, d.span, d.message))
        .collect();
    assert_eq!(
        said,
        [
            "error SA004 phase 1 nest `consume-all` stmt 0 array `X` `X[16]` is read at \
             iteration [16] but no initializer or statement of this generation ever defines it",
            "warning PL001 <program> 15 of 16 PEs own no pages of any array under Modulo with \
             32-element pages (e.g. PE 1)",
        ]
    );
}

/// `lint --format csv` writes only CSV to stdout: the header always (no
/// rows when clean), one row per finding, and the summary — with its wall
/// time — to stderr, as under `json`.
#[test]
fn lint_csv_stdout_is_only_csv() {
    let header = "kernel,severity,code,span,message\n";
    let (code, out, err) = sapp("lint k21 --format csv");
    assert_eq!(code, Some(0), "{err}");
    assert_eq!(out, header);
    assert!(
        err.starts_with("0 diagnostic(s) across 1 kernel(s) in "),
        "{err}"
    );
    let (code, out, err) = sapp("lint k22 --format csv");
    assert_eq!(code, Some(0), "{err}");
    let rows: Vec<&str> = out.lines().collect();
    assert_eq!(rows.len(), 2, "{out}");
    assert_eq!(format!("{}\n", rows[0]), header);
    assert!(rows[1].starts_with("K22,warning,PL001,"), "{out}");
    assert!(
        err.starts_with("1 diagnostic(s) across 1 kernel(s) in "),
        "{err}"
    );
}

/// `sweep --cache N` measures its cache column with N elements: at every
/// PE count it is the remote % `simulate --pes P --cache N` prints.
#[test]
fn the_sweep_cache_column_is_the_cache_asked_for() {
    let (code, csv, err) = sapp("sweep k18 --cache 2048 --format csv");
    assert_eq!(code, Some(0), "{err}");
    let (_, default, _) = sapp("sweep k18 --format csv");
    assert_ne!(csv, default, "a 2048-element cache is not the default 256");
    let mut lines = csv.lines();
    assert_eq!(
        lines.next(),
        Some("pes,remote_pct_cache,remote_pct_no_cache")
    );
    let mut rows = 0;
    for line in lines {
        let cells: Vec<&str> = line.split(',').collect();
        let (code, sim, err) = sapp(&format!("simulate k18 --pes {} --cache 2048", cells[0]));
        assert_eq!(code, Some(0), "{err}");
        let pct = sim.split("→ ").nth(1).and_then(|s| s.split(' ').next());
        assert_eq!(pct, Some(cells[1]), "{} PEs: {sim}", cells[0]);
        rows += 1;
    }
    assert_eq!(rows, 7, "PEs 1, 2, 4, … 64");
}

/// The sweep fixes its PE ladder and both cache columns, and the search
/// enumerates schemes, page sizes and networks: a flag pinning one of them
/// is a usage error, not silently ignored.
#[test]
fn sweep_rejects_the_flags_it_fixes() {
    for (args, why) in [
        ("sweep k18 --pes 3", "PEs 1…64"),
        ("sweep k18 --no-cache", "PEs 1…64"),
        ("search --kernel k1 --page 32", "search enumerates"),
        ("search --partition block", "search enumerates"),
        ("search --kernel k1 --network ring", "search enumerates"),
    ] {
        let (code, out, err) = sapp(args);
        assert_eq!(code, Some(2), "sapp {args}: {err}");
        assert!(out.is_empty(), "sapp {args}: {out}");
        assert!(err.contains(why), "sapp {args}: {err}");
        assert_eq!(err.lines().count(), 1, "sapp {args}: {err}");
    }
}

/// Every command × bad shape × engine: zero PEs or a zero page size is a
/// usage error — one line naming the flag, exit 2, nothing on stdout —
/// before any engine runs, never a panic (101) or an engine's failure (1).
#[test]
fn no_command_panics_on_an_invalid_machine_shape() {
    for cmd in [
        "simulate k1",
        "sweep k1",
        "search --kernel k12",
        "timing k1",
        "lint k1",
        "graph k1",
        "classify k1",
    ] {
        for (shape, flag) in [("--pes 0", "--pes"), ("--page 0", "--page")] {
            for engine in ["", " --engine static", " --engine thread"] {
                let args = format!("{cmd} {shape}{engine}");
                let (code, out, err) = sapp(&args);
                assert_eq!(code, Some(2), "sapp {args}: {err}");
                assert!(out.is_empty(), "sapp {args}: {out}");
                assert_eq!(err, format!("sapp: {flag}: must be ≥ 1 (got 0)\n"));
            }
        }
    }
}

/// A reader that goes away — `sapp list | head -2` — ends the command
/// quietly: exit 0 and no panic on stderr, whether the pipe closes before
/// the first byte or after the first line.
#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;
    for args in ["list", "lint --all --format json"] {
        for read_a_line in [false, true] {
            let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_sapp"))
                .args(args.split(' '))
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("sapp runs");
            let stdout = child.stdout.take().expect("piped");
            if read_a_line {
                let mut line = String::new();
                let mut reader = BufReader::with_capacity(16, stdout);
                reader.read_line(&mut line).expect("a first line");
                assert!(!line.is_empty(), "sapp {args}: no output");
            } else {
                drop(stdout);
            }
            let mut err = String::new();
            let mut stderr = child.stderr.take().expect("piped");
            stderr.read_to_string(&mut err).expect("utf-8");
            let code = child.wait().expect("sapp exits").code();
            assert_eq!(code, Some(0), "sapp {args}: {err}");
            assert!(!err.contains("panicked"), "sapp {args}: {err}");
            assert!(!err.contains("Broken pipe"), "sapp {args}: {err}");
        }
    }
}

/// The seven integers of a `simulate` report — writes, local, cached,
/// remote, messages, hops, max link load — with the thread engine's
/// `N on the wire (M modeled)` read as `M`, as the benchmark harness
/// compares them.
fn seven_integers(stdout: &str) -> Vec<u64> {
    let words: Vec<&str> = stdout.split_whitespace().collect();
    let after = |key: &[&str]| -> u64 {
        let at = words
            .windows(key.len())
            .position(|w| w == key)
            .unwrap_or_else(|| panic!("no {key:?} in: {stdout}"));
        let digits = words[at + key.len()].trim_matches(|c: char| !c.is_ascii_digit());
        digits
            .parse()
            .unwrap_or_else(|_| panic!("{key:?}: {stdout}"))
    };
    let messages = match words.iter().position(|w| *w == "modeled)") {
        Some(at) => words[at - 1].trim_start_matches('(').parse().unwrap(),
        None => after(&["messages"]),
    };
    vec![
        after(&["writes"]),
        after(&["local"]),
        after(&["cached"]),
        after(&["remote"]),
        messages,
        after(&["hops"]),
        after(&["max", "link", "load"]),
    ]
}

/// `--engine static` is the retired estimator's spelling of `replay`: a
/// gather kernel and a cached machine, which the estimator refused, print
/// the interpreter's seven integers, and a sweep fills its cache column.
#[test]
fn the_static_engine_is_replay_and_counts_gathers_and_caches() {
    for args in [
        "simulate k13 --no-cache",
        "simulate k1",
        "simulate st5 --size 32",
    ] {
        let run = |engine: &str| {
            let (code, out, err) = sapp(&format!("{args} --engine {engine}"));
            assert_eq!(code, Some(0), "sapp {args} --engine {engine}: {err}");
            out
        };
        let stat = run("static");
        assert_eq!(stat, run("replay"), "sapp {args}");
        assert_eq!(
            seven_integers(&stat),
            seven_integers(&run("interp")),
            "sapp {args}"
        );
    }
    let (code, out, err) = sapp("sweep k1 --engine static --format csv");
    assert_eq!(code, Some(0), "{err}");
    assert_eq!(out, sapp("sweep k1 --engine replay --format csv").1);
    assert!(!out.contains('—'), "{out}");
}

/// A closed stderr — `sapp simulate k1 --pes 0 2>&1 | head -0` — loses
/// what the command had to say there and nothing else: a usage error
/// still exits 2 and a run that notes its summary to stderr still exits 0,
/// never a panic (101).
#[test]
fn a_closed_stderr_keeps_the_exit_code() {
    for (args, code) in [
        ("simulate k1 --pes 0", 2),
        ("nosuch", 2),
        ("lint k21 --format csv", 0),
        ("search --kernel k12 --strategy propagate", 0),
    ] {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let status = std::process::Command::new(env!("CARGO_BIN_EXE_sapp"))
            .args(args.split(' '))
            .stdout(std::process::Stdio::null())
            .stderr(writer)
            .status()
            .expect("sapp runs");
        assert_eq!(status.code(), Some(code), "sapp {args}");
    }
}

/// The CLI cannot load a program file, so its side of "the thread engine
/// never hangs" is covered by two runs that lean on deferral: K5's
/// pipelined recurrence (PE k+1 defers on PE k) and SPMVD's anchors
/// resolved over `IndirectFetch` (an instance may suspend while it is
/// still being screened). Both exit 0 with the interpreter's integers.
#[test]
fn deferring_kernels_finish_on_the_thread_engine_with_the_interpreters_counts() {
    for args in [
        "simulate k5 --pes 8 --no-cache",
        "simulate spmvd --size 512 --pes 4 --no-cache",
    ] {
        let run = |engine: &str| {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_sapp"))
                .args(args.split(' ').chain(["--engine", engine]))
                .output()
                .expect("sapp runs");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(0), "sapp {args} ({engine}): {err}");
            seven_integers(&String::from_utf8_lossy(&out.stdout))
        };
        assert_eq!(run("thread"), run("interp"), "sapp {args}");
    }
}
