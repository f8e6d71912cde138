//! Figure-regeneration harness: one function per paper artifact.
//!
//! Each `fig*`/`ablation*` function runs the exact workload/parameter grid
//! of the corresponding figure in the paper's evaluation (§7) and renders
//! the same series as a markdown table plus an ASCII chart. Grids are
//! built with the composable plan API (`sa_core::plan`) and evaluated by
//! the auto-select counting oracle (`FastCountingOracle`: compiled access
//! replay where the nest allows, interpreter fallback elsewhere — counts
//! are bit-identical either way); figures *select* their series from the
//! [`ResultSet`] by predicate, so a plan's axis order never changes what a
//! table shows. The `figures` binary prints them; what the calls beneath
//! them cost is measured by `benchmark/`, at the CLI boundary and by layer.

use sa_core::oracle::speedup_sweep;
use sa_core::plan::{ExperimentPlan, RunConfig};
use sa_core::report::{ascii_chart, fmt_pct, markdown_table};
use sa_core::results::ResultSet;
use sa_core::{Engine, FastCountingOracle};
use sa_ir::Program;
use sa_loops::{suite, Kernel};
use sa_machine::{
    load_balance, AccessCosts, CachePolicy, MachineConfig, NetworkTopology, PartitionScheme,
};

/// PE counts on the paper's x-axes.
pub const PES: [usize; 6] = [1, 2, 4, 8, 16, 32];
/// Figure 3's x-axis (the paper plots 4–16 PEs for 2-D Explicit Hydro).
pub const PES_FIG3: [usize; 5] = [1, 2, 4, 8, 16];
/// Page sizes of the paper's figure legends.
pub const PAGE_SIZES: [usize; 2] = [32, 64];

/// The `(code, program)` pairs [`ExperimentPlan::run_kernels`] resolves
/// kernel axes against.
fn programs(kernels: &[Kernel]) -> Vec<(&str, &Program)> {
    kernels.iter().map(|k| (k.code, &k.program)).collect()
}

/// Render one remote-percentage figure for `program` (the shared shape of
/// Figures 1–4): four series — {Cache, No Cache} × {ps 32, ps 64}.
pub fn remote_pct_figure(title: &str, program: &Program) -> String {
    remote_pct_figure_at(title, program, &PES)
}

/// [`remote_pct_figure`] over an explicit PE axis.
pub fn remote_pct_figure_at(title: &str, program: &Program, pes: &[usize]) -> String {
    let results = ExperimentPlan::new()
        .page_sizes(&PAGE_SIZES)
        .cache_flags(&[true, false])
        .pes(pes)
        .run(program, &FastCountingOracle::default())
        .expect("paper kernels simulate cleanly");
    let mut rows = Vec::new();
    for &n in pes {
        let cell = |ps: usize, cached: bool| -> String {
            let p = results
                .find(|r| r.cfg.n_pes == n && r.cfg.page_size == ps && r.cfg.cached() == cached)
                .expect("grid point");
            fmt_pct(p.remote_pct)
        };
        rows.push(vec![
            n.to_string(),
            cell(32, true),
            cell(32, false),
            cell(64, true),
            cell(64, false),
        ]);
    }
    let table = markdown_table(
        &[
            "PEs",
            "Cache ps32",
            "NoCache ps32",
            "Cache ps64",
            "NoCache ps64",
        ],
        &rows,
    );
    let series = results.series(
        |r| {
            format!(
                "{} ps {}",
                if r.cfg.cached() { "Cache" } else { "No Cache" },
                r.cfg.page_size
            )
        },
        |r| r.cfg.n_pes as f64,
        |r| r.remote_pct,
    );
    format!(
        "## {title}\n\n{table}\n{}\n",
        ascii_chart("% of Reads Remote vs PEs", &series, 48, 14)
    )
}

fn kernel_by_code(code: &str) -> Kernel {
    suite()
        .into_iter()
        .find(|k| k.code == code)
        .unwrap_or_else(|| panic!("kernel {code}"))
}

/// Figure 1 — Skewed access pattern (Hydro Fragment, skew 11).
pub fn fig1() -> String {
    remote_pct_figure(
        "Figure 1: Hydro Fragment (SD, skew 11)",
        &kernel_by_code("K1").program,
    )
}

/// Figure 2 — Cyclic access pattern (ICCG).
pub fn fig2() -> String {
    remote_pct_figure(
        "Figure 2: Incomplete Cholesky-Conjugate Gradient (CD)",
        &kernel_by_code("K2").program,
    )
}

/// Figure 3 — Cyclic+skewed combination (2-D Explicit Hydrodynamics).
///
/// Run at the official LFK size (n=101) over three harness passes so the
/// warm-cache steady state dominates, as in the paper's measurements.
pub fn fig3() -> String {
    let k = sa_loops::k18_hydro2d::build_with_passes(101, 5);
    remote_pct_figure_at(
        "Figure 3: 2-D Explicit Hydrodynamics Fragment (CD)",
        &k.program,
        &PES_FIG3,
    )
}

/// Figure 4 — Random access pattern (GLRE).
pub fn fig4() -> String {
    remote_pct_figure(
        "Figure 4: General Linear Recurrence Equations (RD)",
        &kernel_by_code("K6").program,
    )
}

/// Figure 5 — Load balance of a typical loop (K18 on 64 PEs, page 32):
/// remote and local reads per PE, with and without the cache.
///
/// Uses a page-aligned problem size (jd = 1024 → exactly 4 pages per PE on
/// 64 PEs) and two passes, giving per-PE read counts of the paper's
/// magnitude (~7k local reads per PE).
pub fn fig5() -> String {
    let program = sa_loops::k18_hydro2d::build_with_passes(1022, 2).program;
    let cfg = MachineConfig::new(64, 32);
    let cached = Engine::Auto.count(&program, &cfg).expect("sim");
    let uncached = Engine::Auto
        .count(&program, &cfg.with_cache_elems(0))
        .expect("sim");

    let r_c = cached.stats.remote_reads_per_pe();
    let r_u = uncached.stats.remote_reads_per_pe();
    let l_c = cached.stats.local_reads_per_pe();
    let l_u = uncached.stats.local_reads_per_pe();
    let mut rows = Vec::new();
    for pe in 0..64 {
        rows.push(vec![
            pe.to_string(),
            r_c[pe].to_string(),
            r_u[pe].to_string(),
            l_c[pe].to_string(),
            l_u[pe].to_string(),
        ]);
    }
    let table = markdown_table(
        &[
            "PE",
            "Remote (cache)",
            "Remote (no cache)",
            "Local (cache)",
            "Local (no cache)",
        ],
        &rows,
    );
    let lb = |v: &[u64]| {
        let b = load_balance(v);
        format!(
            "mean {:.1}, min {}, max {}, cv {:.3}, jain {:.4}",
            b.mean, b.min, b.max, b.cv, b.jain
        )
    };
    format!(
        "## Figure 5: Load balance (2-D Explicit Hydro, 64 PEs, page size 32)\n\n{table}\n\
         Balance — remote w/ cache: {}\n\
         Balance — remote no cache: {}\n\
         Balance — local  w/ cache: {}\n\
         Balance — local  no cache: {}\n",
        lb(&r_c),
        lb(&r_u),
        lb(&l_c),
        lb(&l_u)
    )
}

/// The §8 summary table: every kernel's class (static + paper) and remote
/// percentages at the reference configuration (16 PEs, ps 32, 256-element
/// cache vs no cache).
pub fn summary() -> String {
    let kernels = suite();
    // One plan over the whole suite: kernel axis × cache on/off.
    let codes: Vec<&str> = kernels.iter().map(|k| k.code).collect();
    let results = ExperimentPlan::new()
        .kernels(&codes)
        .cache_flags(&[true, false])
        .run_kernels(&programs(&kernels), &FastCountingOracle::default())
        .expect("sim");
    let rows: Vec<Vec<String>> = kernels
        .iter()
        .map(|k| {
            let at = |cached: bool| {
                results
                    .find(|r| r.cfg.kernel.as_deref() == Some(k.code) && r.cfg.cached() == cached)
                    .expect("grid point")
                    .remote_pct
            };
            vec![
                k.code.to_string(),
                k.name.to_string(),
                k.class_abbrev().to_string(),
                k.paper_class.unwrap_or("—").to_string(),
                fmt_pct(at(true)),
                fmt_pct(at(false)),
            ]
        })
        .collect();
    format!(
        "## Summary (all kernels, 16 PEs, page 32, cache 256 elems)\n\n{}",
        markdown_table(
            &[
                "kernel",
                "name",
                "class",
                "paper",
                "remote% (cache)",
                "remote% (no cache)"
            ],
            &rows
        )
    )
}

/// Render one "kernel × swept parameter" ablation: each row a kernel, each
/// column one value of the plan's second axis, cells the remote %.
fn kernel_grid_table(results: &ResultSet, codes: &[&str]) -> Vec<Vec<String>> {
    codes
        .iter()
        .map(|code| {
            let mut row = vec![code.to_string()];
            row.extend(
                results
                    .filter(|r| r.cfg.kernel.as_deref() == Some(*code))
                    .records()
                    .iter()
                    .map(|r| fmt_pct(r.remote_pct)),
            );
            row
        })
        .collect()
}

/// Ablation — modulo vs division (block) vs block-cyclic placement (§9).
pub fn ablation_partition() -> String {
    let schemes = [
        PartitionScheme::Modulo,
        PartitionScheme::Block,
        PartitionScheme::BlockCyclic { block_pages: 2 },
        PartitionScheme::BlockCyclic { block_pages: 4 },
    ];
    let kernels = suite();
    let codes: Vec<&str> = kernels.iter().map(|k| k.code).collect();
    let results = ExperimentPlan::new()
        .kernels(&codes)
        .partitions(&schemes)
        .run_kernels(&programs(&kernels), &FastCountingOracle::default())
        .expect("sim");
    format!(
        "## Ablation: partitioning scheme (16 PEs, ps 32, cache on)\n\n{}",
        markdown_table(
            &[
                "kernel",
                "modulo",
                "block",
                "blockcyclic(2)",
                "blockcyclic(4)"
            ],
            &kernel_grid_table(&results, &codes)
        )
    )
}

/// Ablation — cache size rescues the Random class (§7.1.4).
pub fn ablation_cache() -> String {
    let sizes = [0usize, 64, 128, 256, 512, 1024, 2048, 4096];
    let codes = ["K6", "K8", "K21", "K2", "K1"];
    let kernels = suite();
    let results = ExperimentPlan::new()
        .kernels(&codes)
        .cache_elems(&sizes)
        .run_kernels(&programs(&kernels), &FastCountingOracle::default())
        .expect("sim");
    let headers: Vec<String> = std::iter::once("kernel".to_string())
        .chain(sizes.iter().map(|s| format!("cache {s}")))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    format!(
        "## Ablation: cache size (16 PEs, ps 32) — larger caches rescue RD\n\n{}",
        markdown_table(&headers_ref, &kernel_grid_table(&results, &codes))
    )
}

/// Ablation — programmer/compiler-selectable page size (§9).
pub fn ablation_pagesize() -> String {
    let sizes = [8usize, 16, 32, 64, 128, 256];
    let kernels = suite();
    let codes: Vec<&str> = kernels.iter().map(|k| k.code).collect();
    let results = ExperimentPlan::new()
        .kernels(&codes)
        .page_sizes(&sizes)
        .run_kernels(&programs(&kernels), &FastCountingOracle::default())
        .expect("sim");
    let headers: Vec<String> = std::iter::once("kernel".to_string())
        .chain(sizes.iter().map(|s| format!("ps {s}")))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    format!(
        "## Ablation: page size (16 PEs, cache 256 elems)\n\n{}",
        markdown_table(&headers_ref, &kernel_grid_table(&results, &codes))
    )
}

/// Ablation — LRU vs FIFO vs Random replacement (§4 chose LRU).
pub fn ablation_policy() -> String {
    let policies = [
        CachePolicy::Lru,
        CachePolicy::Fifo,
        CachePolicy::Random { seed: 0xC0FFEE },
    ];
    let codes = ["K1", "K2", "K6", "K18"];
    let kernels = suite();
    let results = ExperimentPlan::new()
        .kernels(&codes)
        .cache_policies(&policies)
        .run_kernels(&programs(&kernels), &FastCountingOracle::default())
        .expect("sim");
    format!(
        "## Ablation: replacement policy (16 PEs, ps 32, cache 256 elems)\n\n{}",
        markdown_table(
            &["kernel", "LRU", "FIFO", "Random"],
            &kernel_grid_table(&results, &codes)
        )
    )
}

/// Scale-class workloads beyond the paper (ROADMAP "larger-scale
/// workloads"): the stencil family and the CSR SpMV pair at their official
/// sizes — 512×512 grids, a 64³ heat cube and 131k-nonzero sparse matvecs —
/// measured at the reference machine with and without the cache. These
/// footprints are far beyond the paper's 1001-element kernels, which is
/// exactly why the grid runs through the compiled replay engine, which
/// accepts every one of them.
pub fn scale_workloads() -> String {
    scale_workloads_table(&sa_loops::scale_suite(), "official sizes")
}

/// [`scale_workloads`] over an explicit kernel set (the bench self-test
/// runs it at reduced sizes).
pub fn scale_workloads_table(kernels: &[Kernel], sizes: &str) -> String {
    let codes: Vec<&str> = kernels.iter().map(|k| k.code).collect();
    let results = ExperimentPlan::new()
        .kernels(&codes)
        .cache_flags(&[true, false])
        .run_kernels(&programs(kernels), &FastCountingOracle::default())
        .expect("scale workloads simulate cleanly");
    let rows: Vec<Vec<String>> = kernels
        .iter()
        .map(|k| {
            let at = |cached: bool| {
                results
                    .find(|r| r.cfg.kernel.as_deref() == Some(k.code) && r.cfg.cached() == cached)
                    .expect("grid point")
            };
            let (c, u) = (at(true), at(false));
            vec![
                k.code.to_string(),
                k.class_abbrev().to_string(),
                k.program.total_elements().to_string(),
                c.writes.to_string(),
                fmt_pct(c.remote_pct),
                fmt_pct(u.remote_pct),
                c.messages.to_string(),
            ]
        })
        .collect();
    format!(
        "## Scale workloads: stencils + CSR SpMV ({sizes}, 16 PEs, page 32)\n\n{}",
        markdown_table(
            &[
                "kernel",
                "class",
                "elements",
                "writes",
                "remote% (cache)",
                "remote% (no cache)",
                "messages (cache)"
            ],
            &rows
        )
    )
}

/// Extension — estimated speedups and network contention (§9 future work).
pub fn timing() -> String {
    let mut rows = Vec::new();
    for code in ["K1", "K2", "K5", "K6", "K14", "K18"] {
        let k = kernel_by_code(code);
        let sp = speedup_sweep(
            &k.program,
            &[1, 2, 4, 8, 16, 32],
            &RunConfig::default(),
            AccessCosts::default(),
        )
        .expect("timing");
        let mut row = vec![code.to_string()];
        row.extend(sp.into_iter().map(|(_, s)| format!("{s:.2}×")));
        rows.push(row);
    }
    let table = markdown_table(&["kernel", "1", "2", "4", "8", "16", "32"], &rows);

    // Network contention at 16 PEs on a mesh vs hypercube vs crossbar:
    // one plan, kernel axis × network axis.
    let codes = ["K1", "K6", "K18"];
    let kernels = suite();
    let results = ExperimentPlan::new()
        .kernels(&codes)
        .networks(&[
            NetworkTopology::Crossbar,
            NetworkTopology::Mesh2D,
            NetworkTopology::Hypercube,
        ])
        .run_kernels(&programs(&kernels), &FastCountingOracle::default())
        .expect("sim");
    let net_rows: Vec<Vec<String>> = results
        .records()
        .iter()
        .map(|r| {
            vec![
                r.cfg.kernel.clone().unwrap_or_default(),
                r.cfg.network.name().to_string(),
                r.messages.to_string(),
                r.hops.to_string(),
                r.max_link_load.to_string(),
            ]
        })
        .collect();
    let net = markdown_table(
        &["kernel", "topology", "messages", "hops", "max link load"],
        &net_rows,
    );
    format!("## Extension: estimated speedup (cost model) and network contention\n\n{table}\n{net}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_core::results::policy_name;

    #[test]
    fn figure_functions_render() {
        // Smoke: each figure renders non-empty markdown with its series.
        let f1 = fig1();
        assert!(f1.contains("Figure 1"));
        assert!(f1.contains("Cache ps32"));
        let s = summary();
        assert!(s.contains("K18"));
    }

    #[test]
    fn scale_workload_table_renders_at_reduced_sizes() {
        let kernels: Vec<Kernel> = sa_loops::workloads()
            .iter()
            .filter(|w| w.family == sa_loops::Family::Scale)
            .map(|w| w.reduced())
            .collect();
        let t = scale_workloads_table(&kernels, "reduced sizes");
        for code in ["ST5", "ST9", "ST7", "SPMV", "SPMVD"] {
            assert!(t.contains(code), "{code} missing:\n{t}");
        }
    }

    #[test]
    fn ablation_policy_labels_match_legacy_names() {
        assert_eq!(policy_name(CachePolicy::Lru), "lru");
        let a = ablation_policy();
        assert!(a.contains("LRU"));
    }
}
