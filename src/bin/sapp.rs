//! `sapp` — command-line front end to the partitioning system.
//!
//! ```text
//! sapp list                       # every workload with class and size
//! sapp show K18                   # pseudo-FORTRAN of a kernel
//! sapp classify K6                # static + measured classification
//! sapp simulate K1 --pes 8 --page 32 [--no-cache]
//! sapp sweep K2 --page 32         # remote % across PE counts
//! sapp sweep ST5 --size 96        # scale workloads size like any kernel
//! sapp search [--kernel K12]      # best scheme × page size per kernel
//! sapp timing K14 --page 32       # estimated speedup curve, 1 … 32 PEs
//! sapp timing K14 --pes 24        # … up to 24 PEs (1, 2, 4, 8, 16, 24)
//! sapp lint K13                   # static diagnostics for one kernel
//! sapp lint --all --format json   # CI gate: exit 1 on any error finding
//! sapp lint --all --deny-warnings --allow PL001   # strict gate, PL001 ok
//! sapp graph K5                   # dependence graph as GraphViz DOT
//! sapp graph K12 --format json    # graph + work/span summary as JSON
//! ```
//!
//! Workloads resolve against the sized registry (`sapp::loops::workloads`),
//! which includes the scale-class stencil family (`ST5`, `ST9`, `ST7`) and
//! the CSR SpMV pair (`SPMV`, `SPMVD`) beyond the paper's Livermore suite.
//! `--size N` rescales any workload (loop length, grid edge, or matrix
//! rows/cols); `--dims AxB[xC]` sets exact grid extents for the stencils
//! (or `ROWSxCOLS` for the SpMV pair); `--sweeps N` overrides the stencil
//! sweep count (registry default otherwise). Row degrees stay at the
//! registry's official values.
//!
//! `--partition SCHEME` pins the ownership scheme for `simulate`, `sweep`,
//! `timing` and `lint`: `modulo`, `block`, `blockcyclic:B`, `rowband`, or
//! `tile2d:RxC` (grid-tiled ownership; see `sapp::machine::Placement`).
//! `--network TOPO` picks the link model pricing every modeled message:
//! `ideal`, `crossbar`, `bus`, `ring`, `mesh2d`, `torus2d`, `hypercube`.
//!
//! `sweep` and `search` accept `--format {table,csv,json}` and run their
//! grids through the composable plan API (`sapp::core::plan`). `search`
//! enumerates schemes, page sizes and networks itself, so `--page`,
//! `--partition` and `--network` are usage errors there (exit 2).
//!
//! `simulate`, `sweep` and `search` accept
//! `--engine {interp,replay,auto,thread}` selecting the backend: the
//! statement-by-statement counting interpreter, the compiled access replay
//! (`sapp::core::replay` — ~10–100× faster for statically classifiable
//! nests, errors on the rest; `static` is a deprecated spelling of it),
//! auto-select (replay with transparent interpreter fallback; the
//! default), or **real worker threads**
//! (`sapp::runtime::ThreadOracle` — the PEs are resumable tasks on one
//! worker thread per core, each walking only the instances it owns and
//! yielding while a page it needs is on its way; messages on real
//! channels; LRU caches, with every modeled send priced through the
//! configured topology's link model, so hop and link-load figures are
//! real measurements; a cyclic wait ends in `thread failed: deadlocked: …`
//! and exit 1, never in a hang).
//! `search` additionally accepts `--objective {balanced,remote}` (the
//! legacy remote-%-only objective is `remote`) and
//! `--strategy {exhaustive,anneal,propagate}` with `--budget K`
//! (`sapp::core::search::strategy`), behind a memoizing oracle cache
//! shared across the kernels of one invocation. `exhaustive`, and any
//! strategy under a budget that covers the candidate space (the default
//! 64 covers the default 42 candidates), is the branch and bound, so all
//! three print the same document. Under a budget short of the space,
//! `anneal` and `propagate` both run the bound walk: every candidate in
//! ascending order of its lower bound until K are measured. `--seed S` is
//! accepted and ignored. The stderr summary names the walk that ran and
//! how many candidates it left unreached. The candidate space is
//! materialized once per invocation and kernels are searched in parallel
//! over it.
//!
//! `sapp lint [KERNEL|--all]` runs the static analysis passes (write-once
//! verification, progress and partition-legality checks, deadlock-freedom
//! via the dependence graph) and prints the diagnostics; kernels lint in
//! parallel under `--all` and the summary line reports wall-clock.
//! `--deny-warnings` promotes warnings into the gate and repeatable
//! `--allow CODE` flags exclude specific codes from gating (they still
//! print); `sapp lint --help` documents the exit codes. `--format json`
//! emits the structured diagnostic model.
//!
//! `sapp graph KERNEL [--format dot|json]` renders the static
//! generation-level dependence graph (`sapp::lint::depgraph`): DOT for
//! GraphViz by default, or JSON carrying the nodes, edges and — when the
//! program is statically analyzable — the work/span/parallelism summary.

#![forbid(unsafe_code)]

use sapp::core::classify::classify_dynamic;
use sapp::core::oracle::{speedup_sweep, OracleError};
use sapp::core::parallel::{par_map, par_map_heaviest_first};
use sapp::core::plan::{ExperimentPlan, PlanError};
use sapp::core::report::{csv, fmt_pct, json, markdown_table};
use sapp::core::search::strategy::{
    SearchReport, Searcher, Strategy, StrategyParams, DEFAULT_BUDGET,
};
use sapp::core::search::{Objective, SearchSpace};
use sapp::core::{Engine, FastCountingOracle, Oracle};
use sapp::ir::{classify_program, pretty};
use sapp::loops::{suite, workloads, Kernel, Size, Workload};
use sapp::machine::{AccessCosts, MachineConfig, NetworkTopology, PartitionScheme};
use sapp::runtime::ThreadOracle;

/// The one way to stderr: [`errln!`] formats through it. A line that
/// cannot be written has nowhere else to go, so it is dropped and the
/// command ends with the exit code it meant (`sapp nosuch 2>&1 | head -0`
/// exits 2), instead of the panic (exit 101) `eprintln!` answers a closed
/// stderr with.
fn note(text: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let _ = std::io::stderr().lock().write_fmt(text);
}

macro_rules! errln {
    ($($arg:tt)*) => { note(format_args!("{}\n", format_args!($($arg)*))) };
}

fn usage() -> ! {
    errln!(
        "usage: sapp <list|show|classify|simulate|sweep|search|timing|lint|graph> [KERNEL] \
         [--all] [--pes N] [--page N] [--cache N] [--no-cache] [--kernel CODE] \
         [--size N] [--dims AxB[xC]] [--sweeps N] \
         [--partition modulo|block|blockcyclic:B|rowband|tile2d:RxC] \
         [--network ideal|crossbar|bus|ring|mesh2d|torus2d|hypercube] \
         [--format table|csv|json|dot] [--engine interp|replay|auto|thread] \
         [--objective balanced|remote] [--strategy exhaustive|anneal|propagate] \
         [--seed S] [--budget K] [--deny-warnings] [--allow CODE]"
    );
    std::process::exit(2);
}

/// A command the selected engine or machine shape cannot carry out: one
/// line, `what: error`, and exit 1.
fn die(what: &str, e: &dyn std::fmt::Display) -> ! {
    errln!("{what}: {e}");
    std::process::exit(1);
}

/// The one way to stdout: [`out!`] and [`outln!`] format through it. A
/// reader that has gone away (`sapp list | head -2`) ends the process
/// quietly with exit 0 — nothing is left to say and nobody to say it to —
/// instead of the panic `println!` answers a broken pipe with.
fn emit(text: std::fmt::Arguments<'_>) {
    use std::io::{ErrorKind, Write};
    if let Err(e) = std::io::stdout().lock().write_fmt(text) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        die("sapp: stdout", &e);
    }
}

macro_rules! out {
    ($($arg:tt)*) => { emit(format_args!($($arg)*)) };
}

macro_rules! outln {
    ($($arg:tt)*) => { emit(format_args!("{}\n", format_args!($($arg)*))) };
}

/// `sapp lint --help`: flag and exit-code reference for the CI gate.
fn lint_help() -> ! {
    outln!(
        "usage: sapp lint [KERNEL | --all] [--pes N] [--page N] \
         [--format table|csv|json] [--deny-warnings] [--allow CODE]...\n\
         \n\
         Runs every static analysis pass (write-once verification, progress\n\
         and partition legality, dependence-graph deadlock-freedom) on one\n\
         kernel or the whole registry (in parallel under --all).\n\
         \n\
         flags:\n\
         --deny-warnings   warning-severity findings also fail the gate\n\
         --allow CODE      exclude CODE (e.g. PL001) from gating; repeatable;\n\
         \u{20}                  allowed findings are still printed\n\
         \n\
         exit codes:\n\
         0  no gated findings (clean, or every finding --allow'ed)\n\
         1  at least one gated finding (error, or warning under\n\
         \u{20}   --deny-warnings)\n\
         2  usage error"
    );
    std::process::exit(0);
}

/// Which backend measures grid points: a counting engine or real threads.
#[derive(Clone, Copy, PartialEq, Eq)]
enum EngineSel {
    Counting(Engine),
    Thread,
}

impl EngineSel {
    fn parse(s: &str) -> Option<EngineSel> {
        match s {
            "thread" => Some(EngineSel::Thread),
            // The retired static estimator's name: cache-less counts are
            // replay's.
            "static" => Some(EngineSel::Counting(Engine::Replay)),
            other => Engine::parse(other).map(EngineSel::Counting),
        }
    }

    /// The oracle evaluating plan grid points for this selection.
    fn oracle(self) -> Box<dyn Oracle> {
        match self {
            EngineSel::Counting(e) => Box::new(FastCountingOracle::with_engine(e)),
            EngineSel::Thread => Box::new(ThreadOracle),
        }
    }
}

/// Output format for tabular results (plus GraphViz DOT, which only the
/// `graph` subcommand accepts).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Table,
    Csv,
    Json,
    Dot,
}

/// The formats a command that prints a table accepts.
const TABULAR: &str = "table|csv|json";

/// The formats a command that prints no table lets pass.
const ANY_FORMAT: &str = "table|csv|json|dot";

impl Format {
    fn parse(v: &str) -> Option<Format> {
        match v {
            "table" => Some(Format::Table),
            "csv" => Some(Format::Csv),
            "json" => Some(Format::Json),
            "dot" => Some(Format::Dot),
            _ => None,
        }
    }

    fn render(self, headers: &[&str], rows: &[Vec<String>]) -> String {
        match self {
            Format::Table => markdown_table(headers, rows),
            Format::Csv => csv(headers, rows),
            Format::Json => json(headers, rows),
            Format::Dot => unreachable!("a command that renders a table refuses --format dot"),
        }
    }
}

struct Opts {
    /// `--pes`, when given (see [`Opts::pes`]).
    pes: Option<usize>,
    /// `--page`, when given (see [`Opts::page`]).
    page: Option<usize>,
    cache: usize,
    no_cache: bool,
    all: bool,
    kernel: Option<String>,
    size: Option<usize>,
    dims: Option<Vec<usize>>,
    sweeps: Option<usize>,
    partition: Option<PartitionScheme>,
    network: Option<NetworkTopology>,
    format: Format,
    engine: EngineSel,
    objective: Objective,
    strategy: Strategy,
    budget: usize,
    deny_warnings: bool,
    allow: Vec<String>,
}

impl Opts {
    /// The PE count: `--pes`, or the paper's 16.
    fn pes(&self) -> usize {
        self.pes.unwrap_or(16)
    }

    /// The page size: `--page`, or 32 elements.
    fn page(&self) -> usize {
        self.page.unwrap_or(32)
    }
}

/// The value of `flag`, through `parse`. A missing or malformed value is one
/// line naming the flag — `sapp: --partition: tile extents must be ≥ 1 (got
/// tile2d:0x0)` — and exit 2.
fn value<'a, T>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a String>,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> T {
    let Some(raw) = it.next() else {
        errln!("sapp: {flag}: expects a value");
        std::process::exit(2);
    };
    parse(raw).unwrap_or_else(|why| {
        errln!("sapp: {flag}: {why} (got {raw})");
        std::process::exit(2);
    })
}

/// A count: any non-negative integer.
fn count(v: &str) -> Result<usize, String> {
    v.parse()
        .map_err(|_| "expects a non-negative integer".to_string())
}

/// A count that must be at least 1.
fn positive(v: &str) -> Result<usize, String> {
    match count(v)? {
        0 => Err("must be ≥ 1".to_string()),
        n => Ok(n),
    }
}

/// One of a closed set of spellings, looked up by `lookup`.
fn one_of<T>(choices: &str, lookup: impl FnOnce(&str) -> Option<T>, v: &str) -> Result<T, String> {
    lookup(v).ok_or_else(|| format!("expects {choices}"))
}

/// The command's flags. `formats` spells the `--format` values the command
/// can print, its default first: any other is a usage error here, before
/// any work.
fn parse_opts(args: &[String], formats: &str) -> Opts {
    let accepted = |v: &str| formats.split('|').any(|f| f == v);
    let default = formats.split('|').next().and_then(Format::parse);
    let mut o = Opts {
        pes: None,
        page: None,
        cache: 256,
        no_cache: false,
        all: false,
        kernel: None,
        size: None,
        dims: None,
        sweeps: None,
        partition: None,
        network: None,
        format: default.expect("a command prints in some format"),
        engine: EngineSel::Counting(Engine::Auto),
        objective: Objective::default(),
        strategy: Strategy::Exhaustive,
        budget: DEFAULT_BUDGET,
        deny_warnings: false,
        allow: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        let it = &mut it;
        match flag {
            "--pes" => o.pes = Some(value(flag, it, positive)),
            "--page" => o.page = Some(value(flag, it, positive)),
            "--cache" => o.cache = value(flag, it, count),
            "--no-cache" => o.no_cache = true,
            "--all" => o.all = true,
            "--kernel" => o.kernel = Some(value(flag, it, |v| Ok(v.to_string()))),
            "--size" => o.size = Some(value(flag, it, count)),
            "--dims" => {
                o.dims = Some(value(flag, it, |v| {
                    let dims: Vec<usize> = v
                        .split(['x', 'X', '×'])
                        .map(count)
                        .collect::<Result<_, _>>()?;
                    if dims.len() == 2 || dims.len() == 3 {
                        Ok(dims)
                    } else {
                        Err("expects AxB or AxBxC".to_string())
                    }
                }))
            }
            "--sweeps" => o.sweeps = Some(value(flag, it, positive)),
            "--partition" => o.partition = Some(value(flag, it, parse_partition)),
            "--network" => {
                let choices = "ideal|crossbar|bus|ring|mesh2d|torus2d|hypercube";
                o.network = Some(value(flag, it, |v| one_of(choices, parse_network, v)))
            }
            "--format" => {
                let lookup = |v: &str| Format::parse(v).filter(|_| accepted(v));
                o.format = value(flag, it, |v| one_of(formats, lookup, v))
            }
            "--deny-warnings" => o.deny_warnings = true,
            "--allow" => o.allow.push(value(flag, it, |v| Ok(v.to_uppercase()))),
            "--engine" => {
                let choices = "interp|replay|auto|thread";
                o.engine = value(flag, it, |v| one_of(choices, EngineSel::parse, v))
            }
            "--objective" => {
                o.objective = value(flag, it, |v| {
                    let lookup = |v: &str| match v {
                        "balanced" => Some(Objective::default()),
                        "remote" => Some(Objective::RemoteOnly),
                        _ => None,
                    };
                    one_of("balanced|remote", lookup, v)
                })
            }
            "--strategy" => {
                let choices = "exhaustive|anneal|propagate";
                o.strategy = value(flag, it, |v| one_of(choices, Strategy::parse, v))
            }
            // Accepted for existing command lines; no walk is seeded.
            "--seed" => {
                value(flag, it, count);
            }
            "--budget" => o.budget = value(flag, it, positive),
            _ => usage(),
        }
    }
    o
}

/// Parse `--partition` specs: bare names plus the parameterised
/// `blockcyclic:B` and `tile2d:RxC` forms (`:` or `=` separators).
fn parse_partition(spec: &str) -> Result<PartitionScheme, String> {
    let (name, arg) = match spec.split_once([':', '=']) {
        Some((n, a)) => (n, Some(a)),
        None => (spec, None),
    };
    match (name, arg) {
        ("modulo", None) => Ok(PartitionScheme::Modulo),
        ("block", None) => Ok(PartitionScheme::Block),
        ("rowband", None) => Ok(PartitionScheme::RowBand),
        ("blockcyclic", Some(a)) => {
            let block_pages = positive(a).map_err(|_| "block size must be ≥ 1")?;
            Ok(PartitionScheme::BlockCyclic { block_pages })
        }
        // Default tile if unspecified; otherwise RxC like --dims.
        ("tile2d", None) => Ok(PartitionScheme::Tile2D {
            tile_rows: 64,
            tile_cols: 64,
        }),
        ("tile2d", Some(a)) => {
            let extents = a.split_once(['x', 'X', '×']);
            let extents = extents.and_then(|(r, c)| Some((positive(r).ok()?, positive(c).ok()?)));
            let (tile_rows, tile_cols) = extents.ok_or("tile extents must be ≥ 1")?;
            Ok(PartitionScheme::Tile2D {
                tile_rows,
                tile_cols,
            })
        }
        _ => Err("expects modulo|block|blockcyclic:B|rowband|tile2d:RxC".to_string()),
    }
}

/// Parse `--network` topology names.
fn parse_network(spec: &str) -> Option<NetworkTopology> {
    match spec {
        "ideal" => Some(NetworkTopology::Ideal),
        "crossbar" => Some(NetworkTopology::Crossbar),
        "bus" => Some(NetworkTopology::Bus),
        "ring" => Some(NetworkTopology::Ring),
        "mesh2d" | "mesh" => Some(NetworkTopology::Mesh2D),
        "torus2d" | "torus" => Some(NetworkTopology::Torus2D),
        "hypercube" => Some(NetworkTopology::Hypercube),
        _ => None,
    }
}

fn find_workload(code: &str) -> Workload {
    sapp::loops::workload(code).unwrap_or_else(|| {
        errln!("unknown kernel {code}; try `sapp list`");
        std::process::exit(2);
    })
}

/// The workload's official size with any `--size`/`--dims`/`--sweeps`
/// override folded in. `--size N` rescales the dominant extent(s): a 1-D
/// kernel's loop length, a stencil's grid edges, or the SpMV rows *and*
/// cols. `--dims` pins exact extents (2 for a 2-D grid or SpMV rows×cols,
/// 3 for a 3-D grid). `--sweeps N` overrides a stencil's sweep count and
/// is rejected on non-grid workloads; row degrees keep the registry's
/// values.
fn sized(w: &Workload, o: &Opts) -> Size {
    let mut size = w.official;
    if let Some(n) = o.size {
        size = match size {
            Size::N(_) => Size::N(n),
            Size::Grid2 { sweeps, .. } => Size::Grid2 {
                nx: n,
                ny: n,
                sweeps,
            },
            Size::Grid3 { sweeps, .. } => Size::Grid3 {
                nx: n,
                ny: n,
                nz: n,
                sweeps,
            },
            Size::Sparse { deg, .. } => Size::Sparse {
                rows: n,
                cols: n,
                deg,
            },
        };
    }
    if let Some(d) = &o.dims {
        size = match (size, d.as_slice()) {
            (Size::Grid2 { sweeps, .. }, &[nx, ny]) => Size::Grid2 { nx, ny, sweeps },
            (Size::Grid3 { sweeps, .. }, &[nx, ny, nz]) => Size::Grid3 { nx, ny, nz, sweeps },
            (Size::Sparse { deg, .. }, &[rows, cols]) => Size::Sparse { rows, cols, deg },
            _ => {
                errln!(
                    "--dims {:?} does not fit {} (size shape {:?})",
                    d,
                    w.code,
                    w.official
                );
                std::process::exit(2);
            }
        };
    }
    if let Some(s) = o.sweeps {
        size = match size {
            Size::Grid2 { nx, ny, .. } => Size::Grid2 { nx, ny, sweeps: s },
            Size::Grid3 { nx, ny, nz, .. } => Size::Grid3 {
                nx,
                ny,
                nz,
                sweeps: s,
            },
            other => {
                errln!(
                    "--sweeps only applies to the grid stencils, not {} (size shape {:?})",
                    w.code,
                    other
                );
                std::process::exit(2);
            }
        };
    }
    // Reject undersized overrides here with a friendly message instead of
    // letting the builders' asserts abort with a panic trace.
    let bad = match size {
        Size::N(n) => n == 0,
        Size::Grid2 { nx, ny, .. } => nx < 3 || ny < 3,
        Size::Grid3 { nx, ny, nz, .. } => nx < 3 || ny < 3 || nz < 3,
        Size::Sparse { rows, cols, deg } => rows == 0 || cols == 0 || deg == 0,
    };
    if bad {
        errln!(
            "size {} is too small for {} (grids need every extent ≥ 3, \
             sparse/1-D sizes must be non-zero)",
            size.label(),
            w.code
        );
        std::process::exit(2);
    }
    size
}

/// Resolve a kernel code against the sized registry.
fn resolve_kernel(code: &str, o: &Opts) -> Kernel {
    let w = find_workload(code);
    w.build(sized(&w, o))
}

fn config(o: &Opts) -> MachineConfig {
    let elems = if o.no_cache { 0 } else { o.cache };
    let mut cfg = MachineConfig::new(o.pes(), o.page()).with_cache_elems(elems);
    if let Some(scheme) = o.partition {
        cfg = cfg.with_partition(scheme);
    }
    if let Some(net) = o.network {
        cfg = cfg.with_network(net);
    }
    cfg
}

/// Run one kernel on real worker threads and print the simulate-style report.
fn simulate_on_threads(k: &Kernel, cfg: &MachineConfig) {
    let rt = sapp::runtime::RuntimeConfig::from_machine(cfg);
    let rep = sapp::runtime::execute(&k.program, &rt).unwrap_or_else(|e| {
        errln!("thread failed: {e}");
        std::process::exit(1);
    });
    outln!(
        "writes {}  local {}  cached {}  remote {}  → {} remote  [thread engine]",
        rep.stats.writes(),
        rep.stats.local_reads(),
        rep.stats.cached_reads(),
        rep.stats.remote_reads(),
        fmt_pct(rep.stats.remote_read_pct()),
    );
    outln!(
        "messages {} on the wire ({} modeled)  hops {}  max link load {}",
        rep.messages,
        rep.modeled_messages(),
        rep.hops,
        rep.max_link_load
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    match cmd.as_str() {
        "list" => {
            let rows: Vec<Vec<String>> = workloads()
                .iter()
                .map(|w| {
                    let k = w.official();
                    vec![
                        k.code.to_string(),
                        k.name.to_string(),
                        k.class_abbrev().to_string(),
                        k.paper_class.unwrap_or("—").to_string(),
                        w.official.label(),
                        k.program.total_elements().to_string(),
                    ]
                })
                .collect();
            outln!(
                "{}",
                markdown_table(
                    &["kernel", "name", "class", "paper", "size", "elements"],
                    &rows
                )
            );
        }
        "show" => {
            let o = parse_opts(args.get(2..).unwrap_or(&[]), ANY_FORMAT);
            let k = resolve_kernel(
                args.get(1).map(String::as_str).unwrap_or_else(|| usage()),
                &o,
            );
            out!("{}", pretty::program_to_string(&k.program));
        }
        "classify" => {
            let o = parse_opts(args.get(2..).unwrap_or(&[]), ANY_FORMAT);
            let k = resolve_kernel(
                args.get(1).map(String::as_str).unwrap_or_else(|| usage()),
                &o,
            );
            let dynamic =
                classify_dynamic(&k.program, o.page()).unwrap_or_else(|e| die("classify", &e));
            let stat = classify_program(&k.program);
            outln!("static : {} ({})", stat.class, stat.class.abbrev());
            for nest in &stat.nests {
                outln!(
                    "  nest {:<18} {} (revisit: {})",
                    nest.label,
                    nest.class,
                    nest.sweep_revisit
                );
            }
            outln!("measured: {} — curve:", dynamic.class.abbrev());
            for p in dynamic.curve {
                outln!(
                    "  {:>3} PEs: {} cached / {} uncached",
                    p.n_pes,
                    fmt_pct(p.cached_pct),
                    fmt_pct(p.uncached_pct)
                );
            }
        }
        "simulate" => {
            let o = parse_opts(args.get(2..).unwrap_or(&[]), ANY_FORMAT);
            let k = resolve_kernel(
                args.get(1).map(String::as_str).unwrap_or_else(|| usage()),
                &o,
            );
            let engine = match o.engine {
                EngineSel::Counting(e) => e,
                EngineSel::Thread => {
                    simulate_on_threads(&k, &config(&o));
                    return;
                }
            };
            let rep = engine
                .count(&k.program, &config(&o))
                .unwrap_or_else(|e| die(&format!("{} failed", engine.name()), &e));
            outln!(
                "writes {}  local {}  cached {}  remote {}  → {} remote  [{} engine]",
                rep.stats.writes(),
                rep.stats.local_reads(),
                rep.stats.cached_reads(),
                rep.stats.remote_reads(),
                fmt_pct(rep.remote_pct()),
                rep.engine.name(),
            );
            outln!(
                "messages {}  hops {}  max link load {}",
                rep.network_messages,
                rep.network_hops,
                rep.max_link_load
            );
        }
        "sweep" => {
            let o = parse_opts(args.get(2..).unwrap_or(&[]), TABULAR);
            let k = resolve_kernel(
                args.get(1).map(String::as_str).unwrap_or_else(|| usage()),
                &o,
            );
            // The sweep fixes the PE ladder and prints both cache columns:
            // a flag that would pick one of them is a usage error, not a
            // silently ignored one.
            if o.pes.is_some() || o.no_cache {
                errln!(
                    "sweep runs PEs 1…64 with a --cache N column and a no-cache column: \
                     --pes and --no-cache do not apply"
                );
                std::process::exit(2);
            }
            // One plan, all 14 grid points simulated concurrently; the
            // cached/uncached columns are selected by predicate rather
            // than by result position. `--partition`/`--network` pin those
            // axes to a single value across the grid.
            let mut plan = ExperimentPlan::new()
                .page_sizes(&[o.page()])
                .cache_elems(&[o.cache, 0])
                .pes(&[1, 2, 4, 8, 16, 32, 64]);
            if let Some(scheme) = o.partition {
                plan = plan.partitions(&[scheme]);
            }
            if let Some(net) = o.network {
                plan = plan.networks(&[net]);
            }
            let results = plan
                .run(&k.program, o.engine.oracle().as_ref())
                .unwrap_or_else(|e| {
                    errln!("sweep failed: {e}");
                    std::process::exit(1);
                });
            if results.is_empty() {
                errln!(
                    "note: every grid point was unsupported by the selected engine \
                     (unsupported points are skipped, not errors)"
                );
            }
            let rows: Vec<Vec<String>> = results
                .group_by(|r| r.cfg.n_pes)
                .iter()
                .map(|(n, _)| {
                    // Engines may drop individual grid points as
                    // unsupported (strict replay declines what it cannot
                    // lower); render those as a dash instead of dying.
                    let at = |cached: bool| {
                        results
                            .find(|r| r.cfg.n_pes == *n && r.cfg.cached() == cached)
                            .map(|r| fmt_pct(r.remote_pct))
                            .unwrap_or_else(|| "—".to_string())
                    };
                    vec![n.to_string(), at(true), at(false)]
                })
                .collect();
            out!(
                "{}",
                o.format
                    .render(&["pes", "remote_pct_cache", "remote_pct_no_cache"], &rows)
            );
        }
        "search" => {
            let o = parse_opts(&args[1..], TABULAR);
            // The search enumerates these axes itself: a flag pinning one
            // is a usage error, not a silently ignored one.
            if o.page.is_some() || o.partition.is_some() || o.network.is_some() {
                errln!(
                    "search enumerates partition schemes, page sizes and networks: \
                     --page, --partition and --network do not apply"
                );
                std::process::exit(2);
            }
            let kernels = match &o.kernel {
                Some(code) => vec![resolve_kernel(code, &o)],
                None => {
                    // A full-suite search runs the official sizes; a size
                    // override needs a kernel to apply to — reject it
                    // instead of silently searching the official sizes.
                    if o.size.is_some() || o.dims.is_some() {
                        errln!("--size/--dims need --kernel CODE to apply to");
                        std::process::exit(2);
                    }
                    suite()
                }
            };
            let space = SearchSpace {
                n_pes: o.pes(),
                cache_elems: if o.no_cache { 0 } else { o.cache },
                ..SearchSpace::default()
            };
            // One Searcher per invocation: the candidate space is
            // materialized exactly once and the memo cache is shared, so
            // the kernels fan out in parallel over the same space —
            // heaviest first (by statement instances), so the longest
            // search starts at once and runs beside the others.
            let searcher = Searcher::new(
                &space,
                o.engine.oracle(),
                StrategyParams {
                    strategy: o.strategy,
                    objective: o.objective,
                    budget: o.budget,
                    ..StrategyParams::default()
                },
            )
            .unwrap_or_else(|e| die("search", &e));
            let weight = |k: &Kernel| k.program.instance_count();
            let reports = par_map_heaviest_first(&kernels, weight, |k| {
                // Per-kernel fail-soft, like the sweep: a kernel the
                // engine cannot execute at all drops out with a note
                // instead of aborting the whole table.
                match searcher.search(&k.program) {
                    Ok(rep) => Ok(Some(rep)),
                    Err(PlanError::Oracle(OracleError::Unsupported(why))) => {
                        errln!("note: skipping {}: {why}", k.code);
                        Ok(None)
                    }
                    Err(e) => Err(e),
                }
            })
            .unwrap_or_else(|e| die("search", &e));
            let rows: Vec<Vec<String>> = kernels
                .iter()
                .zip(&reports)
                .filter_map(|(k, rep)| {
                    let rep = rep.as_ref()?;
                    let best = &rep.best;
                    Some(vec![
                        k.code.to_string(),
                        k.class_abbrev().to_string(),
                        best.scheme.name(),
                        best.page_size.to_string(),
                        fmt_pct(best.remote_pct),
                        format!("{:.3}", best.write_balance),
                        best.messages.to_string(),
                        best.evaluated.to_string(),
                        best.pruned.to_string(),
                        rep.oracle_evals.to_string(),
                    ])
                })
                .collect();
            out!(
                "{}",
                o.format.render(
                    &[
                        "kernel",
                        "class",
                        "best_scheme",
                        "best_page_size",
                        "remote_pct",
                        "write_balance",
                        "messages",
                        "evaluated",
                        "pruned",
                        "oracle_evals"
                    ],
                    &rows
                )
            );
            let sum = |count: fn(&SearchReport) -> usize| -> usize {
                reports.iter().flatten().map(count).sum()
            };
            let capped = sum(|rep| rep.capped);
            let by_floor = sum(|rep| rep.floor_pruned);
            let by_write = sum(|rep| rep.best.pruned) - by_floor;
            let unreached = sum(|rep| rep.unreached);
            errln!(
                "{} over {} candidates: {} oracle evaluations, {} memo hits, \
                 {capped} decided by a remote-read cap, {by_write} pruned by the write \
                 bound, {by_floor} by the remote-read floor, {unreached} unreached",
                searcher.walk_name(),
                searcher.candidates().len(),
                searcher.cache_misses(),
                searcher.cache_hits(),
            );
        }
        "lint" => {
            // `sapp lint K13` or `sapp lint --all`; the positional kernel
            // is whatever first operand doesn't look like a flag.
            if args[1..].iter().any(|a| a == "--help") {
                lint_help();
            }
            let (code, rest) = match args.get(1).map(String::as_str) {
                Some(a) if !a.starts_with('-') => (Some(a), args.get(2..).unwrap_or(&[])),
                _ => (None, args.get(1..).unwrap_or(&[])),
            };
            let o = parse_opts(rest, TABULAR);
            let kernels: Vec<Kernel> = match (code, o.all) {
                (Some(c), false) => vec![resolve_kernel(c, &o)],
                (None, true) => workloads().iter().map(|w| w.official()).collect(),
                _ => usage(),
            };
            let mut cfg = sapp::lint::LintConfig {
                n_pes: o.pes(),
                page_size: o.page(),
                ..sapp::lint::LintConfig::default()
            };
            if let Some(scheme) = o.partition {
                cfg.scheme = scheme;
            }
            // Kernels are independent: lint them in parallel (the same
            // pooled fan-out the sweep engine uses) and keep the
            // registry order of the results.
            let started = std::time::Instant::now();
            let linted: Vec<Vec<sapp::lint::Diagnostic>> = par_map(&kernels, |k| {
                Ok::<_, std::convert::Infallible>(sapp::lint::lint_program(&k.program, &cfg))
            })
            .expect("lint is infallible");
            let elapsed = started.elapsed();
            // A finding gates the exit status when its severity clears the
            // threshold (error, or warning under --deny-warnings) and its
            // code was not --allow'ed. Allowed findings still print.
            let threshold = if o.deny_warnings {
                sapp::lint::Severity::Warning
            } else {
                sapp::lint::Severity::Error
            };
            let gated = linted
                .iter()
                .flatten()
                .any(|d| d.severity >= threshold && !o.allow.iter().any(|a| a == d.code.as_str()));
            let total: usize = linted.iter().map(Vec::len).sum();
            let wall = format!("{:.1} ms", elapsed.as_secs_f64() * 1e3);
            let summary = format!(
                "{} diagnostic(s) across {} kernel(s) in {}",
                total,
                kernels.len(),
                wall
            );
            // JSON and CSV keep stdout machine-readable: the summary goes
            // to stderr, and CSV prints its header even with no rows.
            if o.format == Format::Json {
                let objs: Vec<String> = kernels
                    .iter()
                    .zip(&linted)
                    .map(|(k, diags)| {
                        format!(
                            "{{\"kernel\":\"{}\",\"diagnostics\":{}}}",
                            k.code,
                            sapp::lint::to_json_array(diags)
                        )
                    })
                    .collect();
                outln!("[{}]", objs.join(","));
                errln!("{summary}");
            } else {
                let mut rows = Vec::new();
                for (k, diags) in kernels.iter().zip(&linted) {
                    for d in diags {
                        rows.push(vec![
                            k.code.to_string(),
                            d.severity.to_string(),
                            d.code.to_string(),
                            d.span.to_string(),
                            d.message.clone(),
                        ]);
                    }
                }
                let table = || {
                    o.format
                        .render(&["kernel", "severity", "code", "span", "message"], &rows)
                };
                if o.format == Format::Csv {
                    out!("{}", table());
                    errln!("{summary}");
                } else if rows.is_empty() {
                    outln!(
                        "clean: 0 diagnostics across {} kernel(s) in {}",
                        kernels.len(),
                        wall
                    );
                } else {
                    out!("{}", table());
                    outln!("{summary}");
                }
            }
            if gated {
                std::process::exit(1);
            }
        }
        "graph" => {
            let o = parse_opts(args.get(2..).unwrap_or(&[]), "dot|json");
            let k = resolve_kernel(
                args.get(1).map(String::as_str).unwrap_or_else(|| usage()),
                &o,
            );
            let g = sapp::lint::DepGraph::build(&k.program);
            if o.format == Format::Json {
                let summary = sapp::lint::summary(&k.program).ok();
                outln!("{}", g.to_json(&k.program, summary.as_ref()));
            } else {
                out!("{}", g.to_dot());
            }
        }
        "timing" => {
            let o = parse_opts(args.get(2..).unwrap_or(&[]), TABULAR);
            let k = resolve_kernel(
                args.get(1).map(String::as_str).unwrap_or_else(|| usage()),
                &o,
            );
            // The ladder: powers of two below the top PE count (`--pes`,
            // else 32), then the top itself; everything else about the
            // machine comes from the flags, as on every other command.
            let top = o.pes.unwrap_or(32);
            let mut ladder: Vec<usize> = std::iter::successors(Some(1), |p| Some(p * 2))
                .take_while(|&p| p < top)
                .collect();
            ladder.push(top);
            let sp = speedup_sweep(
                &k.program,
                &ladder,
                &config(&o).into(),
                AccessCosts::default(),
            )
            .unwrap_or_else(|e| die("timing", &e));
            let rows: Vec<Vec<String>> = sp
                .into_iter()
                .map(|(n, s)| vec![n.to_string(), format!("{s:.2}×")])
                .collect();
            let out = o.format.render(&["PEs", "speedup"], &rows);
            // The table keeps the blank line it has always ended with.
            match o.format {
                Format::Table => outln!("{out}"),
                _ => out!("{out}"),
            }
        }
        _ => usage(),
    }
}
