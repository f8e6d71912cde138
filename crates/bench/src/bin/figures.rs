//! Regenerate every figure/table of the paper (plus the ablations and the
//! timing extension) as markdown + ASCII charts.
//!
//! ```text
//! cargo run -p bench --release --bin figures            # everything
//! cargo run -p bench --release --bin figures -- fig1    # one artifact
//! ```
//!
//! Each artifact streams to stdout as soon as it is rendered; the heavy
//! lifting inside an artifact — its `(n_pes, page_size, cached)` sweep
//! grid — already fans out across all cores via `sa_core::parallel`, so
//! the artifacts themselves run one at a time to keep the cores busy
//! without oversubscribing them.

#![forbid(unsafe_code)]

use bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name || a == "all");

    type Artifact = (&'static str, fn() -> String);
    let artifacts: [Artifact; 12] = [
        ("fig1", fig1),
        ("fig2", fig2),
        ("fig3", fig3),
        ("fig4", fig4),
        ("fig5", fig5),
        ("summary", summary),
        ("scale", scale_workloads),
        ("ablation-partition", ablation_partition),
        ("ablation-cache", ablation_cache),
        ("ablation-pagesize", ablation_pagesize),
        ("ablation-policy", ablation_policy),
        ("timing", timing),
    ];
    let mut ran = false;
    for (name, f) in artifacts {
        if want(name) {
            println!("{}", f());
            ran = true;
        }
    }
    if !ran {
        eprintln!(
            "unknown artifact; choose from: fig1..fig5, summary, scale, ablation-partition, \
             ablation-cache, ablation-pagesize, ablation-policy, timing, all"
        );
        std::process::exit(2);
    }
}
