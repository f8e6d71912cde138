//! `bench compare A.json B.json`: one row per (workload, metric) with both
//! values, the ratio with its base, and pass / unresolved / fail under the
//! benchmark's own bounds.

use crate::json::Json;
use crate::workloads::WORKLOAD_NAMES;

/// A gated metric: how much worse than the base it may read. The
/// tolerance is the larger of `share` of the base and `floor` (in the
/// metric's unit) — the floors keep a 0.1 s setup pass and a 10 MiB child
/// from failing on one scheduler tick or one page.
pub struct Bound {
    pub metric: &'static str,
    pub unit: &'static str,
    pub share: f64,
    pub floor: f64,
}

/// Lower is better for all five. These are what `compare` applies to two
/// result files — sets of interleaved rounds taken back to back, which
/// agree to a few percent even on a busy box. The `bound`s in
/// `BENCHMARK.json` gate single runs taken minutes apart, and the driver
/// refuses a benchmark whose run-to-run spread exceeds them: on this box
/// the lower quartile of 21 rounds moves 9–10 % between consecutive
/// 16-second windows (README, "How steady it is"), so the timing bounds
/// there are wider than these. A unit test holds the two files together.
pub const BOUNDS: [Bound; 5] = [
    Bound {
        metric: "wall_ms_q25",
        unit: "ms",
        share: 0.10,
        floor: 0.0,
    },
    Bound {
        metric: "cpu_ms_q25",
        unit: "ms",
        share: 0.10,
        floor: 0.0,
    },
    Bound {
        metric: "peak_rss_mb",
        unit: "MiB",
        share: 0.10,
        floor: 1.0,
    },
    // Two passes are all the driver's time cap leaves room for, and the
    // faster of two repeats to about 12 % here, not to 10 %.
    Bound {
        metric: "setup_s",
        unit: "s",
        share: 0.25,
        floor: 0.05,
    },
    // Any rise fails. Always 0 on a healthy tree, which is why
    // `BENCHMARK.json` cannot list it (its metrics must never be 0); the
    // result line's `failed` and the exit code carry it there.
    Bound {
        metric: "failed_ops_pct",
        unit: "%",
        share: 0.0,
        floor: 0.0,
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    /// Worse by more than the bound, but the runs' own noise is wider
    /// than the bound: neither a regression nor "unchanged".
    Unresolved,
    Fail,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Unresolved => "unresolved",
            Verdict::Fail => "fail",
        }
    }
}

/// Judge `new` against `base`. `noise` is the within-run spread of the
/// noisier side as a share of its value (0 for counts and sizes). With
/// `symmetric`, reading better by more than the bound also counts: two
/// runs of the same code must *agree*.
pub fn judge(b: &Bound, base: f64, new: f64, noise: f64, symmetric: bool) -> Verdict {
    let tol = (b.share * base).max(b.floor);
    let worse = if symmetric {
        (new - base).abs()
    } else {
        new - base
    };
    if worse <= tol {
        Verdict::Pass
    } else if noise * base > tol {
        Verdict::Unresolved
    } else {
        Verdict::Fail
    }
}

pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub unit: &'static str,
    pub base: f64,
    pub new: f64,
    pub verdict: Verdict,
}

fn num(doc: &Json, workload: &str, key: &str) -> Result<f64, String> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(key))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("result file lacks {workload}.{key}"))
}

/// All 25 (workload, metric) rows of `b` against base `a`.
pub fn compare(a: &Json, b: &Json, symmetric: bool) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for workload in WORKLOAD_NAMES {
        let noise = num(a, workload, "harness.spread")?.max(num(b, workload, "harness.spread")?);
        for bound in &BOUNDS {
            let (base, new) = (
                num(a, workload, bound.metric)?,
                num(b, workload, bound.metric)?,
            );
            let timing = matches!(bound.metric, "wall_ms_q25" | "cpu_ms_q25");
            rows.push(Row {
                workload,
                metric: bound.metric,
                unit: bound.unit,
                base,
                new,
                verdict: judge(
                    bound,
                    base,
                    new,
                    if timing { noise } else { 0.0 },
                    symmetric,
                ),
            });
        }
    }
    Ok(rows)
}

/// Markdown table of the rows; every ratio names its base.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::from(
        "| workload | metric | A | B | B/A (base A) | verdict |\n|---|---|---|---|---|---|\n",
    );
    for r in rows {
        let ratio = if r.base == 0.0 {
            if r.new == 0.0 {
                "=".to_string()
            } else {
                "A is 0".to_string()
            }
        } else {
            format!("{:.3}x", r.new / r.base)
        };
        out.push_str(&format!(
            "| {} | {} | {:.4} {} | {:.4} {} | {} | {} |\n",
            r.workload,
            r.metric,
            r.base,
            r.unit,
            r.new,
            r.unit,
            ratio,
            r.verdict.name()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(metric: &str) -> &'static Bound {
        BOUNDS.iter().find(|b| b.metric == metric).unwrap()
    }

    #[test]
    fn within_the_share_passes_beyond_it_fails() {
        let wall = bound("wall_ms_q25");
        assert_eq!(judge(wall, 500.0, 549.0, 0.0, false), Verdict::Pass);
        assert_eq!(judge(wall, 500.0, 551.0, 0.0, false), Verdict::Fail);
        // Better is never a regression…
        assert_eq!(judge(wall, 500.0, 300.0, 0.0, false), Verdict::Pass);
        // …but two runs of the same code must agree both ways.
        assert_eq!(judge(wall, 500.0, 300.0, 0.0, true), Verdict::Fail);
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved() {
        let wall = bound("wall_ms_q25");
        assert_eq!(judge(wall, 500.0, 700.0, 0.30, false), Verdict::Unresolved);
        assert_eq!(judge(wall, 500.0, 700.0, 0.05, false), Verdict::Fail);
        assert_eq!(judge(wall, 500.0, 520.0, 0.30, false), Verdict::Pass);
    }

    #[test]
    fn absolute_floors_cover_small_bases() {
        // 0.1 s setup pass: 25 % is 25 ms, the floor allows 50 ms.
        let setup = bound("setup_s");
        assert_eq!(judge(setup, 0.10, 0.149, 0.0, false), Verdict::Pass);
        assert_eq!(judge(setup, 0.10, 0.151, 0.0, false), Verdict::Fail);
        assert_eq!(judge(setup, 4.0, 4.9, 0.0, false), Verdict::Pass);
        assert_eq!(judge(setup, 4.0, 5.1, 0.0, false), Verdict::Fail);
        let rss = bound("peak_rss_mb");
        assert_eq!(judge(rss, 3.0, 3.9, 0.0, false), Verdict::Pass);
        assert_eq!(judge(rss, 88.0, 96.7, 0.0, false), Verdict::Pass);
        assert_eq!(judge(rss, 88.0, 96.9, 0.0, false), Verdict::Fail);
    }

    #[test]
    fn any_rise_in_failures_fails() {
        let f = bound("failed_ops_pct");
        assert_eq!(judge(f, 0.0, 0.0, 0.0, true), Verdict::Pass);
        assert_eq!(judge(f, 0.0, 0.5, 0.0, false), Verdict::Fail);
    }

    #[test]
    fn benchmark_json_agrees_with_the_table() {
        let path = crate::workloads::bench_dir().join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(crate::RUN_SECONDS)
        );
        let e2e = doc.get("end_to_end").unwrap().as_arr().unwrap();
        let listed: Vec<&str> = e2e
            .iter()
            .map(|m| m.get("name").unwrap().as_str().unwrap())
            .collect();
        let ours: Vec<&str> = BOUNDS[..4].iter().map(|b| b.metric).collect();
        assert_eq!(listed, ours, "all but failed_ops_pct, which is always 0");
        for m in e2e {
            let b = bound(m.get("name").unwrap().as_str().unwrap());
            // Never tighter than `compare`, never beyond the driver's cap.
            let declared = m.get("bound").unwrap().as_f64().unwrap();
            assert!((b.share..=0.25).contains(&declared), "{}", b.metric);
            assert_eq!(m.get("unit").unwrap().as_str(), Some(b.unit));
            assert_eq!(m.get("better").unwrap().as_str(), Some("lower"));
        }
        let field = |v: &Json, k: &str| v.get(k).unwrap().as_str().unwrap().to_string();
        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = crate::workloads::workloads(7)
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);
        let per_layer: Vec<(String, String, String)> = doc
            .get("per_layer")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let declared: Vec<(String, String, String)> = crate::layers::PER_LAYER
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(per_layer, declared);
    }
}
