//! The five workloads: their `sapp` command lines, why each exists, and
//! how each op's output is checked against a reference that is never the
//! engine being timed.

use std::path::PathBuf;

use crate::json::Json;

/// How a timed op's output is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// The first `fields` of the seven count integers equal those of the
    /// same command under `--engine interp`, re-derived every reference
    /// pass (and cross-checked against `expected/count_scale.json` when
    /// the op is listed there).
    CountsVsInterp { fields: usize },
    /// As above, but interp is too dear to run every time (4096² costs
    /// ≈ 15 s and ≈ 400 MB), so the integers come from the committed
    /// `expected/count_scale.json`, itself produced through interp only.
    CountsVsFile { fields: usize },
    /// Stdout byte-identical to the same command under `--engine interp`.
    BytesVsInterp,
    /// Exit code and per-kernel `(code, severity)` findings equal the
    /// hand-written `expected/lint_registry.json`.
    LintVsFile,
}

/// One timed `sapp` invocation.
#[derive(Debug, Clone)]
pub struct Op {
    pub name: &'static str,
    pub args: Vec<String>,
    pub check: Check,
}

/// A fixed op list run in order; one pass over it is a *round*.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub ops: Vec<Op>,
    /// Reference-only commands: part of the timed reference pass, must
    /// exit 0, feed no op.
    pub extra_refs: Vec<Vec<String>>,
}

pub const WORKLOAD_NAMES: [&str; 5] = [
    "registry_search",
    "count_scale",
    "search_guided",
    "lint_registry",
    "thread_engine",
];

/// The 26 registry codes in registry order, as `sapp list` prints them.
pub const REGISTRY: [&str; 26] = [
    "K1", "K2", "K3", "K4", "K5", "K6", "K7", "K8", "K9", "K10", "K11", "K12", "K13", "K14", "K18",
    "K21", "K22", "K24", "K13S", "K14F", "K14S", "ST5", "ST9", "ST7", "SPMV", "SPMVD",
];

fn argv(line: &str) -> Vec<String> {
    line.split_whitespace().map(str::to_string).collect()
}

fn op(name: &'static str, line: &str, check: Check) -> Op {
    Op {
        name,
        args: argv(line),
        check,
    }
}

/// All five workloads. `seed` reaches the guided-search ops as
/// `sapp --seed`; nothing else in the inputs is random.
pub fn workloads(seed: u64) -> Vec<Workload> {
    let all7 = Check::CountsVsInterp { fields: 7 };
    vec![
        Workload {
            name: "registry_search",
            why: "18 tiny Livermore kernels x 42 candidates: fixed per-evaluation cost \
                  (compile, placement, bound, memo hash, interp fallback) is nearly all of it",
            ops: vec![op(
                "search_exhaustive",
                "search --strategy exhaustive --format json",
                Check::BytesVsInterp,
            )],
            extra_refs: vec![],
        },
        Workload {
            name: "count_scale",
            why: "six single-config queries of ~1e7 references each: interval enumeration, \
                  cache probe and network pricing do the work; modulo beside tiled, replay \
                  beside static",
            ops: vec![
                op(
                    "st5_4096_replay_nocache",
                    "simulate st5 --dims 4096x4096 --pes 64 --no-cache --engine replay",
                    Check::CountsVsFile { fields: 7 },
                ),
                op(
                    "st5_4096_replay_cache",
                    "simulate st5 --dims 4096x4096 --pes 64 --engine replay",
                    Check::CountsVsFile { fields: 7 },
                ),
                // The static estimator prints `n/a` for hops and link load.
                op(
                    "st5_4096_static_nocache",
                    "simulate st5 --dims 4096x4096 --pes 64 --no-cache --engine static",
                    Check::CountsVsFile { fields: 5 },
                ),
                op(
                    "st5_1024_replay_tile_mesh",
                    "simulate st5 --dims 1024x1024 --pes 64 --no-cache \
                     --partition tile2d:64x64 --network mesh2d --engine replay",
                    all7,
                ),
                op(
                    "k18_1e5_replay",
                    "simulate k18 --size 100000 --pes 16 --engine replay",
                    all7,
                ),
                op(
                    "spmv_replay",
                    "simulate spmv --pes 16 --engine replay",
                    all7,
                ),
            ],
            extra_refs: vec![],
        },
        Workload {
            name: "search_guided",
            why: "one mid-size program, a budgeted serial walk of 16 of 42 candidates: \
                  per-candidate walk overhead dominates, replay itself is a small share",
            // Which 16 candidates an annealing walk touches, and so what it
            // costs, depends on its seed (±14 % over seeds); two walks per
            // round keep one seed's luck from deciding the round.
            ops: [
                ("anneal", "anneal", seed),
                ("anneal_next_seed", "anneal", seed.wrapping_add(1)),
                ("propagate", "propagate", seed),
            ]
            .into_iter()
            .map(|(name, strategy, seed)| {
                op(
                    name,
                    &format!(
                        "search --kernel st5 --dims 256x256 --strategy {strategy} \
                         --seed {seed} --budget 16 --format json"
                    ),
                    Check::BytesVsInterp,
                )
            })
            .collect(),
            extra_refs: vec![],
        },
        Workload {
            name: "lint_registry",
            why: "the zero-execution path over all 26 kernels with every engine bypassed; \
                  the only workload with a large peak RSS (three 512x512 stencils)",
            ops: vec![op(
                "lint_all",
                "lint --all --format json",
                Check::LintVsFile,
            )],
            // Dynamic confirmation of what lint proves statically: every
            // registry program runs to completion under the interpreter.
            extra_refs: REGISTRY
                .iter()
                .map(|k| argv(&format!("simulate {k} --engine interp")))
                .collect(),
        },
        Workload {
            name: "thread_engine",
            why: "real threads, channels and mailboxes; 64 PEs on few cores exposes \
                  thread-per-PE cost, 4 PEs is the control; --no-cache keeps counts exact",
            ops: vec![
                op(
                    "thread_pe64",
                    "simulate st5 --dims 256x256 --sweeps 1 --pes 64 --no-cache --engine thread",
                    all7,
                ),
                op(
                    "thread_pe4",
                    "simulate st5 --dims 256x256 --sweeps 1 --pes 4 --no-cache --engine thread",
                    all7,
                ),
            ],
            extra_refs: vec![],
        },
    ]
}

/// The command that produces an op's reference: the same arguments with
/// the engine forced to the interpreter.
pub fn interp_args(args: &[String]) -> Vec<String> {
    let mut out = args.to_vec();
    match out.iter().position(|a| a == "--engine") {
        Some(i) if i + 1 < out.len() => out[i + 1] = "interp".to_string(),
        _ => out.extend(["--engine".to_string(), "interp".to_string()]),
    }
    out
}

/// `writes, local, cached, remote, messages, hops, max link load`;
/// `None` where the engine prints `n/a` or the field is missing.
pub type Counts = [Option<u64>; 7];

/// Parse `sapp simulate` output down to its seven integers. The
/// `[… engine]` tag, the percentage and the thread engine's wire total are
/// dropped: for `messages N on the wire (M modeled)` the modeled `M` is
/// the figure comparable to the other engines.
pub fn parse_counts(stdout: &str) -> Counts {
    let toks: Vec<&str> = stdout.split_whitespace().collect();
    let mut c: Counts = [None; 7];
    let num = |i: usize| toks.get(i).and_then(|t| t.parse::<u64>().ok());
    for (i, t) in toks.iter().enumerate() {
        let slot = match *t {
            "writes" => 0,
            "local" => 1,
            "cached" => 2,
            "remote" => 3,
            "messages" => 4,
            "hops" => 5,
            "load" => 6,
            "modeled)" if i > 0 => {
                if let Some(m) = toks[i - 1].strip_prefix('(').and_then(|m| m.parse().ok()) {
                    c[4] = Some(m);
                }
                continue;
            }
            _ => continue,
        };
        // First labelled number wins: "→ 1.24% remote [replay engine]"
        // repeats the label without a number after it.
        if c[slot].is_none() {
            c[slot] = num(i + 1);
        }
    }
    c
}

/// What a timed op's output must match. Holds integers and hashes, never
/// the reference's stdout.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    Counts(Counts),
    Stdout { fnv: u64, len: usize },
    Lint(LintVerdicts),
}

/// `(kernel, [(code, severity)])` in registry order.
pub type KernelFindings = Vec<(String, Vec<(String, String)>)>;

/// Expected `sapp lint --all` outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct LintVerdicts {
    pub exit: i32,
    pub kernels: KernelFindings,
}

/// FNV-1a over the bytes — identity of a reference stdout.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Findings per kernel out of `sapp lint --format json` (or out of the
/// expected file, whose entries use the key `findings`).
pub fn parse_lint(doc: &Json, findings_key: &str) -> Result<KernelFindings, String> {
    let field = |v: &Json, k: &str| {
        v.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("lint entry without string `{k}`"))
    };
    doc.as_arr()
        .ok_or("lint document is not an array")?
        .iter()
        .map(|entry| {
            let findings = entry
                .get(findings_key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("lint entry without `{findings_key}`"))?
                .iter()
                .map(|d| Ok((field(d, "code")?, field(d, "severity")?)))
                .collect::<Result<Vec<_>, String>>()?;
            Ok((field(entry, "kernel")?, findings))
        })
        .collect()
}

/// Judge one finished op. `Err` carries what differed.
pub fn verify(op: &Op, expect: &Expect, exit: Option<i32>, stdout: &[u8]) -> Result<(), String> {
    let want_exit = match expect {
        Expect::Lint(v) => v.exit,
        _ => 0,
    };
    if exit != Some(want_exit) {
        return Err(format!("exit {exit:?}, expected {want_exit}"));
    }
    match (op.check, expect) {
        (
            Check::CountsVsInterp { fields } | Check::CountsVsFile { fields },
            Expect::Counts(want),
        ) => {
            let got = parse_counts(&String::from_utf8_lossy(stdout));
            if got[..fields].iter().any(Option::is_none) || got[..fields] != want[..fields] {
                return Err(format!(
                    "counts {:?}, expected {:?}",
                    &got[..fields],
                    &want[..fields]
                ));
            }
        }
        (Check::BytesVsInterp, Expect::Stdout { fnv, len }) => {
            if stdout.len() != *len || fnv1a(stdout) != *fnv {
                return Err(format!(
                    "stdout ({} bytes) differs from the interp reference ({len} bytes)",
                    stdout.len()
                ));
            }
        }
        (Check::LintVsFile, Expect::Lint(want)) => {
            let doc = Json::parse(&String::from_utf8_lossy(stdout))?;
            let got = parse_lint(&doc, "diagnostics")?;
            if got != want.kernels {
                let at = got
                    .iter()
                    .zip(&want.kernels)
                    .find(|(g, w)| g != w)
                    .map_or("kernel list length".to_string(), |(g, _)| g.0.clone());
                return Err(format!(
                    "lint verdicts differ from the expected file at {at}"
                ));
            }
        }
        (check, expect) => {
            return Err(format!("reference kind {expect:?} does not fit {check:?}"));
        }
    }
    Ok(())
}

/// `benchmark/` as compiled; expected files and `out/` live under it.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read_expected(file: &str) -> Result<Json, String> {
    let path = bench_dir().join("expected").join(file);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Counts of op `name` from `expected/count_scale.json`, if listed.
pub fn expected_counts(name: &str) -> Result<Option<Counts>, String> {
    let doc = read_expected("count_scale.json")?;
    let Some(entry) = doc.get("ops").and_then(|ops| ops.get(name)) else {
        return Ok(None);
    };
    let arr = entry
        .get("counts")
        .and_then(Json::as_arr)
        .filter(|a| a.len() == 7)
        .ok_or_else(|| format!("count_scale.json: `{name}` needs seven counts"))?;
    let mut c: Counts = [None; 7];
    for (slot, v) in c.iter_mut().zip(arr) {
        *slot = Some(
            v.as_u64()
                .ok_or_else(|| format!("count_scale.json: `{name}` holds a non-integer"))?,
        );
    }
    Ok(Some(c))
}

/// The hand-written lint verdicts.
pub fn expected_lint() -> Result<LintVerdicts, String> {
    let doc = read_expected("lint_registry.json")?;
    let exit = doc
        .get("exit")
        .and_then(Json::as_u64)
        .ok_or("lint_registry.json: missing `exit`")? as i32;
    let kernels = parse_lint(
        doc.get("kernels")
            .ok_or("lint_registry.json: missing `kernels`")?,
        "findings",
    )?;
    Ok(LintVerdicts { exit, kernels })
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPLAY: &str = "writes 33554432  local 165561368  cached 0  remote 2079752  → 1.24% remote  [replay engine]\nmessages 4159504  hops 0  max link load 0\n";
    const INTERP: &str = "writes 33554432  local 165561368  cached 0  remote 2079752  → 1.24% remote  [interp engine]\nmessages 4159504  hops 0  max link load 0\n";
    const STATIC: &str = "writes 33554432  local 165561368  cached 0  remote 2079752  → 1.24% remote  [static engine]\nmessages 4159504  hops n/a  max link load n/a\n";
    const THREAD: &str = "writes 65536  local 191012  cached 0  remote 132588  → 40.97% remote  [thread engine]\nmessages 265300 on the wire (265176 modeled)  hops 12  max link load 7\n";

    #[test]
    fn engine_tag_is_stripped_before_comparing() {
        assert_eq!(parse_counts(REPLAY), parse_counts(INTERP));
        assert_eq!(
            parse_counts(REPLAY),
            [33554432, 165561368, 0, 2079752, 4159504, 0, 0].map(Some)
        );
    }

    #[test]
    fn static_engine_leaves_network_fields_empty() {
        let c = parse_counts(STATIC);
        assert_eq!(c[..5], parse_counts(INTERP)[..5]);
        assert_eq!(c[5..], [None, None]);
    }

    #[test]
    fn thread_engine_reports_the_modeled_messages() {
        assert_eq!(
            parse_counts(THREAD),
            [65536, 191012, 0, 132588, 265176, 12, 7].map(Some)
        );
    }

    #[test]
    fn garbage_parses_to_nothing() {
        assert_eq!(parse_counts("thread failed: boom"), [None; 7]);
    }

    #[test]
    fn interp_args_force_the_engine() {
        assert_eq!(
            interp_args(&argv("simulate k18 --engine replay")),
            argv("simulate k18 --engine interp")
        );
        assert_eq!(
            interp_args(&argv("search --seed 7")),
            argv("search --seed 7 --engine interp")
        );
    }

    #[test]
    fn verify_counts_needs_every_field_and_exit_zero() {
        let op7 = op("x", "simulate", Check::CountsVsInterp { fields: 7 });
        let op5 = op("x", "simulate", Check::CountsVsFile { fields: 5 });
        let want = Expect::Counts(parse_counts(INTERP));
        assert!(verify(&op7, &want, Some(0), REPLAY.as_bytes()).is_ok());
        assert!(verify(&op7, &want, Some(1), REPLAY.as_bytes()).is_err());
        assert!(verify(&op7, &want, None, REPLAY.as_bytes()).is_err());
        assert!(verify(&op7, &want, Some(0), STATIC.as_bytes()).is_err());
        assert!(verify(&op5, &want, Some(0), STATIC.as_bytes()).is_ok());
        assert!(verify(&op7, &want, Some(0), THREAD.as_bytes()).is_err());
    }

    #[test]
    fn verify_bytes_and_lint() {
        let s = op("s", "search", Check::BytesVsInterp);
        let want = Expect::Stdout {
            fnv: fnv1a(b"[1]\n"),
            len: 4,
        };
        assert!(verify(&s, &want, Some(0), b"[1]\n").is_ok());
        assert!(verify(&s, &want, Some(0), b"[2]\n").is_err());

        let l = op("l", "lint", Check::LintVsFile);
        let out = br#"[{"kernel":"K1","diagnostics":[]},{"kernel":"K22","diagnostics":[{"severity":"warning","code":"PL001","span":{},"message":"m"}]}]"#;
        let verdicts = |sev: &str| {
            Expect::Lint(LintVerdicts {
                exit: 0,
                kernels: vec![
                    ("K1".into(), vec![]),
                    ("K22".into(), vec![("PL001".into(), sev.into())]),
                ],
            })
        };
        assert!(verify(&l, &verdicts("warning"), Some(0), out).is_ok());
        assert!(verify(&l, &verdicts("error"), Some(0), out).is_err());
        assert!(verify(&l, &verdicts("warning"), Some(1), out).is_err());
    }

    #[test]
    fn committed_expected_files_parse() {
        let lint = expected_lint().unwrap();
        assert_eq!(lint.exit, 0);
        let codes: Vec<&str> = lint.kernels.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(codes, REGISTRY);
        let findings: usize = lint.kernels.iter().map(|(_, f)| f.len()).sum();
        assert_eq!(findings, 1, "exactly one finding: K22 PL001");
        for w in workloads(7) {
            for o in &w.ops {
                if matches!(o.check, Check::CountsVsFile { .. }) {
                    assert!(expected_counts(o.name).unwrap().is_some(), "{}", o.name);
                }
            }
        }
    }

    #[test]
    fn workload_table_is_consistent() {
        let ws = workloads(11);
        assert_eq!(
            ws.iter().map(|w| w.name).collect::<Vec<_>>(),
            WORKLOAD_NAMES
        );
        let seeds: Vec<&str> = ws[2]
            .ops
            .iter()
            .map(|o| o.args[o.args.iter().position(|a| a == "--seed").unwrap() + 1].as_str())
            .collect();
        assert_eq!(seeds, ["11", "12", "11"]);
        assert_eq!(ws[3].extra_refs.len(), 26);
    }
}
