//! `bench` — the sapp benchmark.
//!
//! ```text
//! bench --workload W --seed N --seconds T --trace 0|1   one workload, one JSON result line
//! bench all [--seed N] [--quick] [--out F]             five workloads interleaved → result file
//! bench layers [--seed N]                               traced run → out/layers.json, out/trace.json
//! bench compare A.json B.json                           apply the bounds, one row per pair
//! bench repeat [--seed N]                               two full sets + compare
//! bench regen-expected                                  rewrite expected/count_scale.json via interp
//! ```
//!
//! End-to-end numbers are taken at the `sapp` CLI boundary (spawn → stdout
//! drained → `wait4`); per-layer numbers come from a separate in-process
//! traced run. Run it through `benchmark/run.sh`, which builds `sapp` and
//! this binary first. See `benchmark/README.md`.

mod compare;
mod e2e;
mod json;
mod layers;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use e2e::{measure, Harness, Summary, Tally};
use json::Json;
use layers::{unit_of, Layers, PER_LAYER};
use trace::Trace;
use workloads::{bench_dir, workloads, Workload, WORKLOAD_NAMES};

const USAGE: &str = "usage: bench --workload W --seed N --seconds T --trace 0|1\n\
     \x20      bench all [--seed N] [--quick] [--out FILE]\n\
     \x20      bench layers [--seed N]\n\
     \x20      bench compare A.json B.json\n\
     \x20      bench repeat [--seed N]\n\
     \x20      bench regen-expected";

/// `run_seconds` in `BENCHMARK.json` (a unit test holds the two together):
/// what the driver passes as `--seconds`, and what `all` and `repeat` run.
const RUN_SECONDS: f64 = 14.0;

/// Timed rounds per second of `--seconds`. A run is a fixed number of
/// rounds, worked out once up front, so two runs of the same length gate
/// the same statistic however fast the code under test has become; a round
/// of every workload takes 0.5–0.8 s today. 21 rounds at `RUN_SECONDS`:
/// the driver's cap on total time leaves about 25 s per run, setup included.
const ROUNDS_PER_SECOND: f64 = 1.5;

/// Reference passes per run; `setup_s` is the fastest.
const SETUP_PASSES: usize = 2;

fn rounds_for(seconds: f64) -> usize {
    ((seconds * ROUNDS_PER_SECOND).round() as usize).max(1)
}

/// Parsed `--flag value` options; every mode reads the ones it knows.
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 7,
        seconds: RUN_SECONDS,
        trace: false,
        quick: false,
        out: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{a} needs {what}"));
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot read {v:?}"))
        }
        match a.as_str() {
            "--workload" => o.workload = Some(value("a workload name")?.clone()),
            "--seed" => o.seed = num(a, value("a number")?)?,
            "--seconds" => {
                o.seconds = num(a, value("a number")?)?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err(format!("--seconds {} is outside (0, 600]", o.seconds));
                }
            }
            "--trace" => o.trace = num::<u8>(a, value("0 or 1")?)? != 0,
            "--quick" => o.quick = true,
            "--out" => o.out = Some(PathBuf::from(value("a path")?)),
            f if f.starts_with("--") => return Err(format!("unknown flag {f}")),
            file => o.files.push(PathBuf::from(file)),
        }
    }
    Ok(o)
}

fn out_dir() -> Result<PathBuf, String> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn write_file(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Facts about the run that every result carries. A load average above
/// the core count means the timings had company: say so.
fn meta(
    h: &Harness,
    seed: u64,
    shape: &str,
    loadavg_start: Option<f64>,
    tallies: &[Tally],
    hwm: Option<i64>,
) -> Json {
    let nproc = sys::nproc();
    let mut warnings = Vec::new();
    // Only the load found at the start is a warning: by the end the
    // thread_engine workload's own 64 threads have raised it.
    if let Some(l) = loadavg_start.filter(|l| *l > nproc as f64) {
        warnings.push(format!("load average {l} at start exceeds nproc {nproc}"));
    }
    // A fork()ing spawner floors its children's ru_maxrss at its own
    // image. `Command`'s vfork path does not (a 50 MB parent read 3.1 MB
    // for `sapp list` against 2.9 MB from a small one), but the harness
    // still keeps hashes and integers rather than stdout, and says so if
    // it ever outgrows a peak it reports. `hwm` is its VmHWM when the
    // last timed child ended (`None` in traced runs, which report no peak
    // and grow by whatever the library layers allocate).
    let min_peak = tallies
        .iter()
        .filter(|t| t.attempted > 0)
        .map(|t| t.peak_rss_kb)
        .min();
    if let (Some(own), Some(peak)) = (hwm, min_peak) {
        if own >= peak {
            warnings.push(format!(
                "harness VmHWM {own} KiB is not below the smallest reported peak {peak} KiB"
            ));
        }
    }
    for w in &warnings {
        eprintln!("warning: {w}");
    }
    let sapp = std::fs::metadata(&h.sapp).ok();
    let mtime = sapp
        .as_ref()
        .and_then(|m| m.modified().ok())
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(Json::Null, |d| Json::Num(d.as_secs() as f64));
    let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("shape", Json::str(shape)),
        ("nproc", Json::Num(nproc as f64)),
        (
            "git_revision",
            Json::str(sys::tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(sys::tool_line("rustc", &["-V"]))),
        ("sapp_binary", Json::str(h.sapp.display().to_string())),
        (
            "sapp_size_bytes",
            opt(sapp.as_ref().map(|m| m.len() as f64)),
        ),
        ("sapp_mtime_unix", mtime),
        ("loadavg_start", opt(loadavg_start)),
        ("loadavg_end", opt(sys::loadavg())),
        ("harness_vmhwm_kb", opt(hwm.map(|k| k as f64))),
        ("smallest_reported_peak_kb", opt(min_peak.map(|k| k as f64))),
        (
            "warnings",
            Json::Arr(warnings.into_iter().map(Json::Str).collect()),
        ),
    ])
}

fn report_failures(tallies: &[Tally]) {
    for t in tallies {
        for f in &t.failures {
            eprintln!("FAILED {f}");
        }
    }
}

/// `bench all`: the five workloads interleaved, written as one result file.
fn run_all(h: &mut Harness, o: &Opts) -> Result<(Json, bool), String> {
    let ws = workloads(o.seed);
    // Quick: three rounds in all (the warm-up and two timed) and one
    // setup pass check every op; the timings mean nothing.
    let (rounds, passes) = if o.quick {
        (2, 1)
    } else {
        (rounds_for(RUN_SECONDS), SETUP_PASSES)
    };
    let shape = format!("{rounds} rounds interleaved, {passes} setup passes");
    let load = sys::loadavg();
    let tallies = measure(h, &ws, rounds, passes)?;
    let hwm = sys::own_hwm_kb();
    report_failures(&tallies);
    let mut entries = Vec::new();
    let mut failed = 0;
    for (w, t) in ws.iter().zip(&tallies) {
        let s = Summary::of(w, t);
        failed += s.failed;
        println!(
            "{:<16} wall_ms_q25 {:>9.3} ms  cpu_ms_q25 {:>9.3} ms  peak_rss_mb {:>7.2} MiB  \
             setup_s {:>6.3} s  failed_ops_pct {:.2} %  (p50 {:.1}, p{:.0} {:.1}, {} rounds)",
            w.name,
            s.wall_ms_q25,
            s.cpu_ms_q25,
            s.peak_rss_mb,
            s.setup_s,
            s.failed_ops_pct,
            s.wall_ms_p50,
            s.wall_ms_tail.0,
            s.wall_ms_tail.1,
            s.rounds
        );
        entries.push((w.name, s.to_json()));
    }
    let doc = Json::obj([
        ("meta", meta(h, o.seed, &shape, load, &tallies, hwm)),
        ("workloads", Json::obj(entries)),
    ]);
    Ok((doc, failed == 0))
}

/// `(metric name, value)` pairs.
type Metrics = Vec<(&'static str, f64)>;

/// The CLI side of a traced run for one workload: as many rounds at the
/// CLI boundary as the layers get repetitions and, straight after (so both
/// see the same box), the same round redone in-process as often. Yields
/// the tally and the `cli.*` / `harness.*` metrics, reconciled by
/// construction: `wall_ms_q25 = cli.inprocess_ms + cli.overhead_ms`.
fn traced_workload(
    h: &mut Harness,
    layers: &Layers,
    w: &Workload,
) -> Result<(Tally, Metrics), String> {
    let tally = measure(h, std::slice::from_ref(w), layers::REPS, 1)?.remove(0);
    let s = Summary::of(w, &tally);
    let inproc: Vec<f64> = (0..layers::REPS)
        .map(|_| layers.inprocess_round(w.name))
        .collect();
    let inprocess_ms = stats::q25(&inproc);
    let floor: Vec<f64> = (0..layers::REPS)
        .map(|_| h.spawn_ms(&["list".to_string()]))
        .collect::<Result<_, _>>()?;
    let mut m = vec![
        ("cli.spawn_floor_ms", stats::q25(&floor)),
        ("cli.inprocess_ms", inprocess_ms),
        ("cli.overhead_ms", s.wall_ms_q25 - inprocess_ms),
    ];
    m.extend(s.harness());
    Ok((tally, m))
}

/// `bench layers`: every per-layer metric, for all five workloads.
fn run_layers(h: &mut Harness, o: &Opts) -> Result<(Json, bool), String> {
    let ws = workloads(o.seed);
    let load = sys::loadavg();
    let trace = Arc::new(Trace::new());
    let mut layers = Layers::new(Arc::clone(&trace), o.seed);
    let (mut tallies, mut per_workload) = (Vec::new(), Vec::new());
    for w in &ws {
        let (t, m) = traced_workload(h, &layers, w)?;
        tallies.push(t);
        per_workload.push((
            w.name,
            Json::obj(m.into_iter().map(|(k, v)| (k, Json::Num(v)))),
        ));
    }
    report_failures(&tallies);
    layers.run_all(None);
    for (name, v) in &layers.metrics {
        println!("{name:<44} {v:>14.4} {}", unit_of(name));
    }
    let dir = out_dir()?;
    write_file(&dir.join("trace.json"), &trace.to_json("all"))?;
    let shape = format!("{} repetitions", layers::REPS);
    let doc = Json::obj([
        ("meta", meta(h, o.seed, &shape, load, &tallies, None)),
        (
            "layers",
            Json::obj(layers.metrics.iter().map(|(k, v)| (*k, Json::Num(*v)))),
        ),
        ("workloads", Json::obj(per_workload)),
        ("trace_spans", Json::Num(trace.len() as f64)),
    ]);
    Ok((doc, tallies.iter().all(|t| t.failed == 0)))
}

/// Driver mode: one workload, one JSON object as the last stdout line.
fn run_driver(h: &mut Harness, o: &Opts, name: &str) -> Result<bool, String> {
    let w = workloads(o.seed)
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}; one of {WORKLOAD_NAMES:?}"))?;
    let load = sys::loadavg();
    let (tally, hwm, traced) = if o.trace {
        // A fixed amount of work, whatever `--seconds` says: the workload
        // at the CLI boundary and in-process, then the library layers —
        // full repetitions for the ones this workload maps to, a single
        // sample of the rest.
        let trace = Arc::new(Trace::new());
        let mut layers = Layers::new(Arc::clone(&trace), o.seed);
        let (tally, cli) = traced_workload(h, &layers, &w)?;
        layers.run_all(Some(name));
        let mut m = layers.metrics.clone();
        m.extend(cli);
        write_file(&out_dir()?.join("trace.json"), &trace.to_json(name))?;
        // Exactly the declared metrics, in the declared order.
        assert_eq!(
            m.len(),
            PER_LAYER.len(),
            "a traced run emits every declared metric once"
        );
        let metrics: Vec<_> = PER_LAYER
            .iter()
            .map(|(name, unit, _)| {
                let (k, v) = m
                    .iter()
                    .find(|(k, _)| k == name)
                    .unwrap_or_else(|| panic!("the traced run did not emit {name}"));
                (*k, *v, *unit)
            })
            .collect();
        (tally, None, Some(metrics))
    } else {
        let rounds = rounds_for(o.seconds);
        let tally = measure(h, std::slice::from_ref(&w), rounds, SETUP_PASSES)?.remove(0);
        (tally, sys::own_hwm_kb(), None)
    };
    let tallies = [tally];
    report_failures(&tallies);
    let t = &tallies[0];
    let s = Summary::of(&w, t);
    let metrics = traced.unwrap_or_else(|| s.end_to_end());
    let shape = format!(
        "{} s, {} rounds, trace {}",
        o.seconds,
        s.rounds,
        u8::from(o.trace)
    );
    println!("{name}: {}", w.why);
    println!(
        "meta {}",
        meta(h, o.seed, &shape, load, &tallies, hwm).render()
    );
    println!(
        "{name}: {} rounds, failed_ops_pct {} %, wall p50 {:.3} ms, p{:.0} {:.3} ms",
        s.rounds, s.failed_ops_pct, s.wall_ms_p50, s.wall_ms_tail.0, s.wall_ms_tail.1
    );
    for (k, v, unit) in &metrics {
        println!("{k:<44} {v:>14.4} {unit}");
    }
    let result = Json::obj([
        ("correct", Json::Bool(t.failed == 0)),
        ("attempted", Json::Num(t.attempted as f64)),
        ("failed", Json::Num(t.failed as f64)),
        (
            "metrics",
            Json::obj(metrics.into_iter().map(|(k, v, unit)| {
                (
                    k,
                    Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]),
                )
            })),
        ),
    ]);
    println!("{}", result.render());
    Ok(t.failed == 0)
}

fn run(args: &[String]) -> Result<bool, String> {
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(m) if !m.starts_with("--") => (m, &args[1..]),
        _ => ("run", args),
    };
    let o = parse_opts(rest)?;
    match mode {
        "run" => {
            let name = o.workload.clone().ok_or(USAGE)?;
            run_driver(&mut Harness::new()?, &o, &name)
        }
        "all" => {
            let started = Instant::now();
            let (doc, ok) = run_all(&mut Harness::new()?, &o)?;
            let path = match &o.out {
                Some(p) => p.clone(),
                None => out_dir()?.join("result.json"),
            };
            write_file(&path, &doc)?;
            println!(
                "wrote {} in {:.1} s",
                path.display(),
                started.elapsed().as_secs_f64()
            );
            Ok(ok)
        }
        "layers" => {
            let started = Instant::now();
            let (doc, ok) = run_layers(&mut Harness::new()?, &o)?;
            let path = out_dir()?.join("layers.json");
            write_file(&path, &doc)?;
            println!(
                "wrote {} and trace.json beside it in {:.1} s",
                path.display(),
                started.elapsed().as_secs_f64()
            );
            Ok(ok)
        }
        "compare" => {
            let [a, b] = o.files.as_slice() else {
                return Err(USAGE.to_string());
            };
            let rows = compare::compare(&read_json(a)?, &read_json(b)?, false)?;
            print!("{}", compare::render(&rows));
            Ok(rows.iter().all(|r| r.verdict == compare::Verdict::Pass))
        }
        "repeat" => {
            let mut h = Harness::new()?;
            let dir = out_dir()?;
            let (a, ok_a) = run_all(&mut h, &o)?;
            write_file(&dir.join("repeat_a.json"), &a)?;
            let (b, ok_b) = run_all(&mut h, &o)?;
            write_file(&dir.join("repeat_b.json"), &b)?;
            let rows = compare::compare(&a, &b, true)?;
            print!("{}", compare::render(&rows));
            let agree = rows.iter().all(|r| r.verdict == compare::Verdict::Pass);
            println!(
                "repeat: {}",
                if agree {
                    "the two sets agree"
                } else {
                    "DISAGREEMENT"
                }
            );
            Ok(ok_a && ok_b && agree)
        }
        "regen-expected" => {
            let mut h = Harness::new()?;
            let ws = workloads(o.seed);
            let w = ws
                .iter()
                .find(|w| w.name == "count_scale")
                .expect("count_scale exists");
            let doc = e2e::regen_expected(&mut h, w)?;
            let path = bench_dir().join("expected/count_scale.json");
            write_file(&path, &doc)?;
            println!("wrote {}", path.display());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("bench: {e}");
            std::process::exit(2);
        }
    }
}
