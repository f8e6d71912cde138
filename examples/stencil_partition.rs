//! Domain scenario: tune page size and placement for a 2-D heat-diffusion
//! stencil — the "programmer- or compiler-selectable partitioning" the
//! paper's future work proposes (§9), run on the registry's scale-class
//! 5-point Jacobi workload (`ST5`) through the compiled replay engine.
//!
//! ```text
//! cargo run --release --example stencil_partition
//! ```

use sapp::core::plan::{ExperimentPlan, RunConfig};
use sapp::core::report::{fmt_pct, markdown_table};
use sapp::core::{Engine, FastCountingOracle};
use sapp::loops::stencil::build_jacobi5;
use sapp::machine::{MachineConfig, PartitionScheme};

fn main() {
    let program = build_jacobi5(128, 128, 1).program;
    let n_pes = 16;

    // Page-size sweep (paper §9: "allowing the programmer or compiler to
    // select the page size might prove useful").
    let mut rows = Vec::new();
    let mut best: Option<(usize, f64)> = None;
    for ps in [8usize, 16, 32, 64, 128, 256] {
        let rep = Engine::Auto
            .count(&program, &MachineConfig::new(n_pes, ps))
            .expect("sim");
        let pct = rep.remote_pct();
        if best.map(|(_, b)| pct < b).unwrap_or(true) {
            best = Some((ps, pct));
        }
        rows.push(vec![
            ps.to_string(),
            fmt_pct(pct),
            rep.stats.remote_reads().to_string(),
            rep.network_messages.to_string(),
        ]);
    }
    println!("Page-size tuning for a 128×128 Jacobi stencil on {n_pes} PEs:\n");
    println!(
        "{}",
        markdown_table(
            &["page size", "remote %", "remote reads", "messages"],
            &rows
        )
    );
    let (bps, bpct) = best.expect("swept");
    println!("→ best page size: {bps} ({})\n", fmt_pct(bpct));

    // Placement sweep: row-aligned block placement beats modulo for
    // stencils — exactly the paper's modulo-vs-division observation.
    let per = ExperimentPlan::new()
        .base(RunConfig {
            n_pes,
            page_size: bps,
            ..RunConfig::default()
        })
        .partitions(&[
            PartitionScheme::Modulo,
            PartitionScheme::Block,
            PartitionScheme::BlockCyclic { block_pages: 2 },
            PartitionScheme::BlockCyclic { block_pages: 4 },
        ])
        .run(&program, &FastCountingOracle::default())
        .expect("sweep");
    let rows: Vec<Vec<String>> = per
        .records()
        .iter()
        .map(|r| vec![r.cfg.partition.name(), fmt_pct(r.remote_pct)])
        .collect();
    println!("Placement comparison at page size {bps}:\n");
    println!("{}", markdown_table(&["scheme", "remote %"], &rows));
}
