//! End-to-end measurement at the `sapp` CLI boundary: the reference pass
//! (which is also what `setup_s` times), the closed loop of rounds, and
//! the per-workload summary.
//!
//! Closed loop, one driver thread, one `sapp` child at a time — `sapp`
//! itself fans out to every core through `par_map`.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::stats;
use crate::sys::{self, ChildCost, Watchdog};
use crate::workloads::{
    expected_counts, expected_lint, fnv1a, interp_args, parse_counts, verify, Check, Expect,
    Workload,
};

/// A timed op that runs longer than this is killed and counted failed.
const OP_TIMEOUT: Duration = Duration::from_secs(60);
/// The 4096² interp runs of `regen-expected` are the one slow thing.
const REGEN_TIMEOUT: Duration = Duration::from_secs(600);

/// The `sapp` binary under test plus what spawning it needs.
pub struct Harness {
    pub sapp: PathBuf,
    wd: Watchdog,
    /// Reused for every child's stdout, so the harness's high-water RSS
    /// stays below the smallest child's.
    buf: Vec<u8>,
}

impl Harness {
    /// `sapp` comes from `SAPP_BIN` (set by `run.sh`) or the root
    /// workspace's release directory.
    pub fn new() -> Result<Harness, String> {
        let sapp = std::env::var_os("SAPP_BIN")
            .map_or_else(|| PathBuf::from("target/release/sapp"), PathBuf::from);
        if !sapp.is_file() {
            return Err(format!(
                "{} not found: run through benchmark/run.sh, or set SAPP_BIN",
                sapp.display()
            ));
        }
        Ok(Harness {
            sapp,
            wd: Watchdog::new(),
            buf: Vec::with_capacity(16 << 10),
        })
    }

    fn run(&mut self, args: &[String], timeout: Duration) -> Result<ChildCost, String> {
        sys::run_child(&self.sapp, args, timeout, &self.wd, &mut self.buf)
            .map_err(|e| format!("spawning {}: {e}", self.sapp.display()))
    }

    /// Wall-clock of one unchecked `sapp args…` (the process-start floor).
    pub fn spawn_ms(&mut self, args: &[String]) -> Result<f64, String> {
        Ok(self.run(args, OP_TIMEOUT)?.wall_ms)
    }

    /// Run a reference command; anything but a clean exit is fatal.
    fn run_reference(
        &mut self,
        what: &str,
        args: &[String],
        timeout: Duration,
    ) -> Result<(), String> {
        let cost = self.run(args, timeout)?;
        if cost.exit != Some(0) {
            return Err(format!(
                "reference for {what} (`sapp {}`) ended with {:?}{}",
                args.join(" "),
                cost.exit,
                if cost.timed_out { " (timed out)" } else { "" }
            ));
        }
        Ok(())
    }

    /// Seven integers of `args` under the interpreter.
    fn interp_counts(
        &mut self,
        what: &str,
        args: &[String],
        timeout: Duration,
    ) -> Result<[Option<u64>; 7], String> {
        self.run_reference(what, &interp_args(args), timeout)?;
        let counts = parse_counts(&String::from_utf8_lossy(&self.buf));
        if counts.iter().any(Option::is_none) {
            return Err(format!("reference for {what}: interp printed {counts:?}"));
        }
        Ok(counts)
    }
}

/// One reference pass of `w`: every `--engine interp` run the workload
/// lists, single-threaded and compute-bound. Returns what each op must
/// match and the pass's wall-clock in seconds. Fails, naming the op, when
/// a committed expected file disagrees with what interp says now.
pub fn reference_pass(h: &mut Harness, w: &Workload) -> Result<(Vec<Expect>, f64), String> {
    let t0 = Instant::now();
    let mut expects = Vec::with_capacity(w.ops.len());
    for op in &w.ops {
        let what = format!("{}/{}", w.name, op.name);
        expects.push(match op.check {
            Check::CountsVsInterp { .. } => {
                let counts = h.interp_counts(&what, &op.args, OP_TIMEOUT)?;
                if let Some(filed) = expected_counts(op.name)? {
                    if filed != counts {
                        return Err(format!(
                            "{what}: expected/count_scale.json says {filed:?}, interp says \
                             {counts:?} — fix the cause or run `regen-expected`"
                        ));
                    }
                }
                Expect::Counts(counts)
            }
            Check::CountsVsFile { .. } => Expect::Counts(
                expected_counts(op.name)?
                    .ok_or_else(|| format!("{what}: not in expected/count_scale.json"))?,
            ),
            Check::BytesVsInterp => {
                h.run_reference(&what, &interp_args(&op.args), OP_TIMEOUT)?;
                Expect::Stdout {
                    fnv: fnv1a(&h.buf),
                    len: h.buf.len(),
                }
            }
            Check::LintVsFile => Expect::Lint(expected_lint()?),
        });
    }
    for args in &w.extra_refs {
        h.run_reference(w.name, args, OP_TIMEOUT)?;
    }
    Ok((expects, t0.elapsed().as_secs_f64()))
}

/// `bench regen-expected`: the seven integers of every `count_scale` op,
/// through `--engine interp` only. Identical reference commands run once.
pub fn regen_expected(h: &mut Harness, w: &Workload) -> Result<Json, String> {
    let mut seen: Vec<(Vec<String>, [Option<u64>; 7])> = Vec::new();
    let mut ops = Vec::new();
    for op in &w.ops {
        // The static op's reference is the replay op's: same machine.
        let reference = interp_args(&op.args);
        let counts = match seen.iter().find(|(a, _)| *a == reference) {
            Some((_, c)) => *c,
            None => {
                eprintln!("interp: sapp {}", reference.join(" "));
                let c = h.interp_counts(op.name, &op.args, REGEN_TIMEOUT)?;
                seen.push((reference.clone(), c));
                c
            }
        };
        ops.push((
            op.name,
            Json::obj([
                (
                    "reference",
                    Json::str(format!("sapp {}", reference.join(" "))),
                ),
                (
                    "counts",
                    Json::Arr(
                        counts
                            .iter()
                            .map(|c| Json::Num(c.expect("checked") as f64))
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    Ok(Json::obj([
        (
            "note",
            Json::str(
                "writes, local, cached, remote, messages, hops, max link load per op, \
                 produced by `bench regen-expected` through --engine interp only",
            ),
        ),
        ("ops", Json::obj(ops)),
    ]))
}

/// Everything measured for one workload.
#[derive(Debug, Default)]
pub struct Tally {
    /// Σ op wall-clock per timed round, ms.
    pub wall: Vec<f64>,
    /// Σ op user+sys per timed round, ms.
    pub cpu: Vec<f64>,
    pub peak_rss_kb: i64,
    pub attempted: u64,
    pub failed: u64,
    /// First few failures, for the log.
    pub failures: Vec<String>,
    pub warmup_ms: f64,
    /// Wall-clock of each reference pass, s.
    pub setup_s: Vec<f64>,
}

/// Run `w`'s op list once, in order, checking every output.
fn round(
    h: &mut Harness,
    w: &Workload,
    expects: &[Expect],
    t: &mut Tally,
) -> Result<(f64, f64), String> {
    let (mut wall, mut cpu) = (0.0, 0.0);
    for (op, expect) in w.ops.iter().zip(expects) {
        let cost = h.run(&op.args, OP_TIMEOUT)?;
        wall += cost.wall_ms;
        cpu += cost.cpu_ms;
        t.peak_rss_kb = t.peak_rss_kb.max(cost.maxrss_kb);
        t.attempted += 1;
        let verdict = if cost.timed_out {
            Err(format!("timed out after {} s", OP_TIMEOUT.as_secs()))
        } else {
            verify(op, expect, cost.exit, &h.buf)
        };
        if let Err(why) = verdict {
            t.failed += 1;
            if t.failures.len() < 5 {
                t.failures.push(format!("{}/{}: {why}", w.name, op.name));
            }
        }
    }
    Ok((wall, cpu))
}

/// One reference pass and one untimed warm-up round per workload, then
/// `rounds` timed rounds interleaved round-robin across `ws` (round r of
/// every workload before round r+1 of any), so a burst of neighbour load
/// costs each workload a few rounds instead of one workload all of them.
/// The remaining reference passes are spread evenly through the timed
/// phase for the same reason (pass k of P once k/P of the rounds are
/// done): `setup_s` is the fastest pass, and passes run back to back
/// would all sit in the same burst.
pub fn measure(
    h: &mut Harness,
    ws: &[Workload],
    rounds: usize,
    setup_passes: usize,
) -> Result<Vec<Tally>, String> {
    let mut tallies: Vec<Tally> = ws.iter().map(|_| Tally::default()).collect();
    let mut expects = Vec::with_capacity(ws.len());
    for (w, t) in ws.iter().zip(&mut tallies) {
        let (e, secs) = reference_pass(h, w)?;
        t.setup_s.push(secs);
        expects.push(e);
    }
    for ((w, t), e) in ws.iter().zip(&mut tallies).zip(&expects) {
        t.warmup_ms = round(h, w, e, t)?.0;
    }
    for done in 0..=rounds {
        for ((w, t), e) in ws.iter().zip(&mut tallies).zip(&expects) {
            while t.setup_s.len() < setup_passes && t.setup_s.len() * rounds <= done * setup_passes
            {
                let (again, secs) = reference_pass(h, w)?;
                if again != *e {
                    return Err(format!("{}: two reference passes disagree", w.name));
                }
                t.setup_s.push(secs);
            }
        }
        if done == rounds {
            break;
        }
        for ((w, t), e) in ws.iter().zip(&mut tallies).zip(&expects) {
            let (wall, cpu) = round(h, w, e, t)?;
            t.wall.push(wall);
            t.cpu.push(cpu);
        }
    }
    Ok(tallies)
}

/// The numbers reported for one workload.
#[derive(Debug, Clone)]
pub struct Summary {
    pub wall_ms_q25: f64,
    pub cpu_ms_q25: f64,
    pub peak_rss_mb: f64,
    pub setup_s: f64,
    pub failed_ops_pct: f64,
    pub wall_ms_p50: f64,
    /// `(percentile, ms)`: the highest percentile with ten rounds beyond
    /// it; the median below eleven rounds.
    pub wall_ms_tail: (f64, f64),
    pub ops_per_s: f64,
    pub warmup_ms: f64,
    pub rounds: usize,
    pub attempted: u64,
    pub failed: u64,
}

impl Summary {
    pub fn of(w: &Workload, t: &Tally) -> Summary {
        let p50 = stats::p50(&t.wall);
        let timed_ops = (t.wall.len() * w.ops.len()) as f64;
        Summary {
            wall_ms_q25: stats::q25(&t.wall),
            cpu_ms_q25: stats::q25(&t.cpu),
            peak_rss_mb: t.peak_rss_kb as f64 / 1024.0,
            setup_s: t.setup_s.iter().copied().fold(f64::INFINITY, f64::min),
            failed_ops_pct: 100.0 * t.failed as f64 / t.attempted as f64,
            wall_ms_p50: p50,
            wall_ms_tail: stats::tail(&t.wall).unwrap_or((50.0, p50)),
            ops_per_s: timed_ops / (t.wall.iter().sum::<f64>() / 1e3),
            warmup_ms: t.warmup_ms,
            rounds: t.wall.len(),
            attempted: t.attempted,
            failed: t.failed,
        }
    }

    /// How far the median sits above the gated quartile, as a share: the
    /// within-run noise `compare` weighs a difference against.
    pub fn spread(&self) -> f64 {
        (self.wall_ms_p50 - self.wall_ms_q25) / self.wall_ms_q25
    }

    /// End-to-end metrics by their `BENCHMARK.json` names, with units.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("wall_ms_q25", self.wall_ms_q25, "ms"),
            ("cpu_ms_q25", self.cpu_ms_q25, "ms"),
            ("peak_rss_mb", self.peak_rss_mb, "MiB"),
            ("setup_s", self.setup_s, "s"),
        ]
    }

    /// The ungated distribution of the gated timing.
    pub fn harness(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("harness.wall_ms_p50", self.wall_ms_p50),
            ("harness.wall_ms_tail", self.wall_ms_tail.1),
            ("harness.ops_per_s", self.ops_per_s),
            ("harness.warmup_ms", self.warmup_ms),
            ("harness.rounds", self.rounds as f64),
        ]
    }

    /// One workload's entry in a result file.
    pub fn to_json(&self) -> Json {
        let mut m: Vec<(String, Json)> = self
            .end_to_end()
            .into_iter()
            .map(|(k, v, _)| (k, v))
            .chain(self.harness())
            .map(|(k, v)| (k.to_string(), Json::Num(v)))
            .collect();
        m.extend([
            ("failed_ops_pct".to_string(), Json::Num(self.failed_ops_pct)),
            (
                "harness.tail_percentile".to_string(),
                Json::Num(self.wall_ms_tail.0),
            ),
            ("harness.spread".to_string(), Json::Num(self.spread())),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
        ]);
        Json::Obj(m)
    }
}
