//! The access-counting distributed interpreter.
//!
//! Executes a program under owner-computes partitioning on a
//! [`DistributedMachine`], producing both *values* (verified against the
//! sequential reference) and *access statistics* (the paper's metrics).
//!
//! Statement instances are visited in sequential program order while being
//! attributed to their owning PE. This yields exactly the counts of any
//! legal parallel order: placement is static, and each PE's cache state
//! depends only on that PE's own access subsequence, whose relative order
//! the global order preserves.

use sa_ir::analysis::StaticArrays;
use sa_ir::interp::{EvalCtx, Memory};
use sa_ir::nest::Stmt;
use sa_ir::program::Phase;
use sa_ir::{ArrayId, IrError, Program};
use sa_lint::screening::Schedule;
use sa_machine::machine::ArraySpec;
use sa_machine::{AccessKind, DistributedMachine, MachineConfig, MachineError, Stats};
use sa_mem::SaArray;

/// Errors from distributed execution.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// IR-level evaluation failure (bounds, rank, undefined reads).
    Ir(IrError),
    /// Machine-level failure (ownership or single-assignment violations).
    Machine(MachineError),
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::Ir(e) => write!(f, "IR error: {e}"),
            SimError::Machine(e) => write!(f, "machine error: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<IrError> for SimError {
    fn from(e: IrError) -> Self {
        SimError::Ir(e)
    }
}

impl From<MachineError> for SimError {
    fn from(e: MachineError) -> Self {
        SimError::Machine(e)
    }
}

/// One recorded read in the execution trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRead {
    /// Array identity.
    pub array: usize,
    /// Array generation at read time.
    pub generation: u32,
    /// Linear address.
    pub addr: usize,
    /// How the counting pass classified the access.
    pub kind: AccessKind,
    /// One-way network hops (0 unless remote).
    pub hops: u32,
}

/// One statement instance in the execution trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Element reads performed, in order.
    pub reads: Vec<TraceRead>,
    /// Scalars read (reduction results from earlier nests).
    pub scalar_reads: Vec<usize>,
    /// `(array, generation, addr)` written, if an assignment.
    pub write: Option<(usize, u32, usize)>,
    /// Scalar contributed to, if a reduction.
    pub reduce: Option<usize>,
}

/// Per-phase trace for the timing pass.
#[derive(Debug, Clone)]
pub enum PhaseTrace {
    /// A loop nest's instances, grouped per owning PE in execution order.
    Loop {
        /// `per_pe[p]` = instances PE `p` executes, in its local order.
        per_pe: Vec<Vec<Instance>>,
    },
    /// A host-protocol re-initialization (global synchronization point).
    Reinit {
        /// Protocol messages exchanged.
        messages: u64,
    },
}

/// Full execution trace (phase by phase).
#[derive(Debug, Clone)]
pub struct ExecTrace {
    /// Number of PEs.
    pub n_pes: usize,
    /// Phases in order.
    pub phases: Vec<PhaseTrace>,
}

/// Result of a distributed run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Machine-wide access statistics.
    pub stats: Stats,
    /// `(nest label, stats for that nest alone)`.
    pub per_nest: Vec<(String, Stats)>,
    /// Final reduction values.
    pub scalars: Vec<f64>,
    /// Total network messages (page fetches ×2 + host protocol + reductions).
    pub network_messages: u64,
    /// Total hop traversals.
    pub network_hops: u64,
    /// Heaviest directed-link traffic (contention bottleneck).
    pub max_link_load: u64,
    /// Final array stores (for verification).
    pub arrays: Vec<SaArray<f64>>,
    /// Execution trace, when requested via [`simulate_traced`].
    pub trace: Option<ExecTrace>,
}

impl SimReport {
    /// The paper's *% of Reads Remote*.
    pub fn remote_pct(&self) -> f64 {
        self.stats.remote_read_pct()
    }
}

struct CountingMem<'m> {
    machine: &'m mut DistributedMachine,
    pe: usize,
    reads: Vec<TraceRead>,
    tracing: bool,
}

impl Memory for CountingMem<'_> {
    fn load(&mut self, array: ArrayId, addr: usize) -> Result<f64, IrError> {
        let generation = self.machine.generation(array.0);
        match self.machine.read(self.pe, array.0, addr) {
            Ok((v, kind, hops)) => {
                if self.tracing {
                    self.reads.push(TraceRead {
                        array: array.0,
                        generation,
                        addr,
                        kind,
                        hops,
                    });
                }
                Ok(v)
            }
            Err(MachineError::ReadUndefined { array, addr }) => {
                Err(IrError::ReadUndefined { array, addr })
            }
            Err(MachineError::OutOfBounds { array, addr, len }) => Err(IrError::IndexOutOfBounds {
                array,
                dim: 0,
                index: addr as i64,
                extent: len,
            }),
            Err(e) => Err(IrError::ReadUndefined {
                array: e.to_string(),
                addr,
            }),
        }
    }
}

/// Plain resolution memory that performs *uncounted* loads (used only to
/// discover the owner of indirect anchors before charging accesses).
struct PeekMem<'m> {
    machine: &'m DistributedMachine,
}

impl Memory for PeekMem<'_> {
    fn load(&mut self, array: ArrayId, addr: usize) -> Result<f64, IrError> {
        self.machine
            .peek(array.0, addr)
            .ok_or(IrError::ReadUndefined {
                array: format!("array#{}", array.0),
                addr,
            })
    }
}

fn scalar_reads_of(expr: &sa_ir::Expr, out: &mut Vec<usize>) {
    use sa_ir::Expr;
    match expr {
        Expr::Scalar(s) => out.push(s.0),
        Expr::Unary(_, a) => scalar_reads_of(a, out),
        Expr::Binary(_, a, b) => {
            scalar_reads_of(a, out);
            scalar_reads_of(b, out);
        }
        _ => {}
    }
}

/// Run `program` on a machine configured by `cfg`. Access counts only.
pub fn simulate(program: &Program, cfg: &MachineConfig) -> Result<SimReport, SimError> {
    run(program, cfg, false)
}

/// Run `program` and additionally capture the per-PE execution trace needed
/// by the timing pass.
pub fn simulate_traced(program: &Program, cfg: &MachineConfig) -> Result<SimReport, SimError> {
    run(program, cfg, true)
}

fn run(program: &Program, cfg: &MachineConfig, tracing: bool) -> Result<SimReport, SimError> {
    let specs: Vec<ArraySpec> = program
        .arrays
        .iter()
        .map(|d| ArraySpec {
            name: d.name.clone(),
            len: d.len(),
            dims: d.dims.clone(),
            init: d.init.materialize(d.len()),
        })
        .collect();
    let mut machine = DistributedMachine::new(*cfg, specs)?;
    // Index screening comes from the schedule every engine shares; this
    // interpreter asks it one instance at a time and is the reference the
    // per-PE forms are certified against.
    let schedule = Schedule::new(
        program,
        &StaticArrays::scan(program),
        cfg.partition,
        cfg.page_size,
        cfg.n_pes,
    )
    .map_err(MachineError::BadConfig)?;
    let mut ctx = EvalCtx::new(program);

    let mut per_nest: Vec<(String, Stats)> = Vec::new();
    let mut phases_trace: Vec<PhaseTrace> = Vec::new();

    for phase in &program.phases {
        match phase {
            Phase::Reinit(id) => {
                let sync = machine.reinit(id.0);
                if tracing {
                    phases_trace.push(PhaseTrace::Reinit {
                        messages: sync.total_messages(),
                    });
                }
            }
            Phase::Loop(nest) => {
                let before = machine.stats().clone();
                let mut per_pe: Vec<Vec<Instance>> = if tracing {
                    vec![Vec::new(); cfg.n_pes]
                } else {
                    Vec::new()
                };
                // Which PEs contributed to each reduction in this nest.
                let mut reduce_participants: Vec<(usize, Vec<bool>)> = Vec::new();
                for stmt in &nest.body {
                    if let Stmt::Reduce { target, op, .. } = stmt {
                        ctx.scalars[target.0] = op.identity();
                        reduce_participants.push((target.0, vec![false; cfg.n_pes]));
                    }
                }

                let mut failure: Option<SimError> = None;
                let nest_idx = per_nest.len(); // one entry per nest so far
                let mut g = 0u64; // iterations of this nest so far
                nest.for_each_iteration(|ivs| {
                    if failure.is_some() {
                        return;
                    }
                    let mut reduce_idx = 0usize;
                    for (si, stmt) in nest.body.iter().enumerate() {
                        // The executing PE (index screening), with the
                        // machine's omniscient peek as the (uncounted)
                        // resolver of indirect anchors.
                        let res = schedule
                            .owner(nest_idx, si, g, ivs, &mut PeekMem { machine: &machine })
                            .map_err(SimError::from)
                            .and_then(|pe| {
                                exec_stmt(stmt, ivs, pe, &mut machine, &mut ctx, tracing)
                            });
                        match res {
                            Err(e) => {
                                failure = Some(e);
                                return;
                            }
                            Ok((pe, instance)) => {
                                if let Stmt::Reduce { .. } = stmt {
                                    reduce_participants[reduce_idx].1[pe] = true;
                                    reduce_idx += 1;
                                }
                                if tracing {
                                    per_pe[pe].push(instance);
                                }
                            }
                        }
                    }
                    g += 1;
                });
                if let Some(e) = failure {
                    return Err(e);
                }

                // Vector→scalar collection (paper §9): each participating PE
                // ships its partial result to the scalar's host processor,
                // which combines and broadcasts availability implicitly.
                for (sid, participants) in &reduce_participants {
                    let host = sa_machine::host_of(*sid, cfg.n_pes);
                    for (pe, &took_part) in participants.iter().enumerate() {
                        if took_part {
                            machine.send_partial(pe, host);
                        }
                    }
                }

                let mut nest_stats = machine.stats().clone();
                subtract_stats(&mut nest_stats, &before);
                per_nest.push((nest.label.clone(), nest_stats));
                if tracing {
                    phases_trace.push(PhaseTrace::Loop { per_pe });
                }
            }
        }
    }

    let scalars = ctx.scalars.clone();
    let n_pes = cfg.n_pes;
    let (stats, network, arrays) = machine.finish();
    Ok(SimReport {
        stats,
        per_nest,
        scalars,
        network_messages: network.messages,
        network_hops: network.hops,
        max_link_load: network.max_link_load(),
        arrays,
        trace: tracing.then_some(ExecTrace {
            n_pes,
            phases: phases_trace,
        }),
    })
}

/// Execute one statement instance on `pe`, the PE screening gave it.
fn exec_stmt(
    stmt: &Stmt,
    ivs: &[i64],
    pe: usize,
    machine: &mut DistributedMachine,
    ctx: &mut EvalCtx<'_>,
    tracing: bool,
) -> Result<(usize, Instance), SimError> {
    let mut mem = CountingMem {
        machine,
        pe,
        reads: Vec::new(),
        tracing,
    };
    match stmt {
        Stmt::Assign { target, value } => {
            let v = ctx.eval(value, ivs, &mut mem)?;
            let addr = ctx.resolve_addr(target, ivs, &mut mem)?;
            let reads = std::mem::take(&mut mem.reads);
            let generation = machine.generation(target.array.0);
            if let Err(e) = machine.write(pe, target.array.0, addr, v) {
                // A dynamically trapped double write must be visible to
                // the static verifier too (an SA001/SA002 error, or an
                // SA003 undecidable-scatter warning); a miss here is a
                // lint soundness bug, caught in debug builds only.
                #[cfg(debug_assertions)]
                if matches!(e, MachineError::DoubleWrite { .. }) {
                    debug_assert!(
                        !sa_lint::check_write_once(ctx.program)
                            .diagnostics
                            .is_empty(),
                        "interpreter trapped a double write the static \
                         write-once verifier did not flag: {e}"
                    );
                }
                return Err(e.into());
            }
            let mut scalar_reads = Vec::new();
            scalar_reads_of(value, &mut scalar_reads);
            Ok((
                pe,
                Instance {
                    reads,
                    scalar_reads,
                    write: Some((target.array.0, generation, addr)),
                    reduce: None,
                },
            ))
        }
        Stmt::Reduce { target, op, value } => {
            let v = ctx.eval(value, ivs, &mut mem)?;
            let reads = std::mem::take(&mut mem.reads);
            ctx.scalars[target.0] = op.combine(ctx.scalars[target.0], v);
            let mut scalar_reads = Vec::new();
            scalar_reads_of(value, &mut scalar_reads);
            Ok((
                pe,
                Instance {
                    reads,
                    scalar_reads,
                    write: None,
                    reduce: Some(target.0),
                },
            ))
        }
    }
}

fn subtract_stats(s: &mut Stats, before: &Stats) {
    for (a, b) in s.per_pe.iter_mut().zip(&before.per_pe) {
        a.writes -= b.writes;
        a.local_reads -= b.local_reads;
        a.cached_reads -= b.cached_reads;
        a.remote_reads -= b.remote_reads;
    }
    s.page_fetches -= before.page_fetches;
    s.partial_refetches -= before.partial_refetches;
    s.reinit_messages -= before.reinit_messages;
    s.reduction_messages -= before.reduction_messages;
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_ir::index::iv;
    use sa_ir::{interpret, InitPattern, ProgramBuilder};

    /// The Hydro Fragment (K1 shape): X(k) = Q + Y(k)*(R*ZX(k+10)+T*ZX(k+11)).
    fn hydro(n: usize) -> Program {
        let mut b = ProgramBuilder::new("hydro");
        let q = b.param("Q", 0.5);
        let r = b.param("R", 0.25);
        let t = b.param("T", 0.125);
        let y = b.input("Y", &[n], InitPattern::Wavy);
        let zx = b.input("ZX", &[n + 12], InitPattern::Harmonic);
        let x = b.output("X", &[n]);
        b.nest("k1", &[("k", 0, n as i64 - 1)], |nb| {
            let rhs = nb.par(q)
                + nb.read(y, [iv(0)])
                    * (nb.par(r) * nb.read(zx, [iv(0).plus(10)])
                        + nb.par(t) * nb.read(zx, [iv(0).plus(11)]));
            nb.assign(x, [iv(0)], rhs);
        });
        b.finish()
    }

    #[test]
    fn single_pe_has_zero_remote() {
        let p = hydro(1001);
        let rep = simulate(&p, &MachineConfig::new(1, 32)).unwrap();
        assert_eq!(rep.stats.remote_reads(), 0);
        assert_eq!(rep.remote_pct(), 0.0);
        assert_eq!(rep.stats.writes(), 1001);
        assert_eq!(rep.stats.total_reads(), 3 * 1001);
    }

    #[test]
    fn values_match_reference_interpreter() {
        let p = hydro(500);
        let golden = interpret(&p).unwrap();
        let rep = simulate(&p, &MachineConfig::new(8, 32)).unwrap();
        let x = p.array_id("X").unwrap();
        for addr in 0..500 {
            let got = rep.arrays[x.0].read(addr).unwrap().copied();
            let want = golden.arrays[x.0].read(addr).unwrap().copied();
            assert_eq!(got, want, "mismatch at X[{addr}]");
        }
    }

    #[test]
    fn skew_11_no_cache_remote_fraction_matches_hand_count() {
        // Page size 32, N≥2, skew 10/11: per 32 iterations, reads of
        // ZX(k+10) cross for the last 10 offsets, ZX(k+11) for the last 11,
        // Y(k) never. 21 remote / 96 reads ≈ 21.9 % (the paper's "22 %").
        let p = hydro(1024); // full pages only, to make the count exact
        let rep = simulate(&p, &MachineConfig::new(4, 32).with_cache_elems(0)).unwrap();
        // Boundary effect: the last pages of ZX extend past X's domain but
        // stay on the same page layout, so the global ratio is ≈ 21/96.
        let pct = rep.remote_pct();
        assert!((20.0..24.0).contains(&pct), "expected ≈22 %, got {pct:.2}%");
    }

    #[test]
    fn skew_11_with_cache_collapses_to_one_fetch_per_page() {
        let p = hydro(1024);
        let rep = simulate(&p, &MachineConfig::new(4, 32)).unwrap();
        let pct = rep.remote_pct();
        assert!(pct < 2.0, "expected ≈1 %, got {pct:.2}%");
        // The cache converts crossings into cached reads.
        assert!(rep.stats.cached_reads() > rep.stats.remote_reads());
    }

    #[test]
    fn per_nest_stats_sum_to_total() {
        let p = hydro(300);
        let rep = simulate(&p, &MachineConfig::new(4, 32)).unwrap();
        let total: u64 = rep.per_nest.iter().map(|(_, s)| s.total_reads()).sum();
        assert_eq!(total, rep.stats.total_reads());
        assert_eq!(rep.per_nest.len(), 1);
        assert_eq!(rep.per_nest[0].0, "k1");
    }

    #[test]
    fn network_counts_two_messages_per_fetch() {
        let p = hydro(1024);
        let rep = simulate(&p, &MachineConfig::new(4, 32).with_cache_elems(0)).unwrap();
        assert_eq!(rep.network_messages, 2 * rep.stats.page_fetches);
        assert_eq!(rep.stats.page_fetches, rep.stats.remote_reads());
    }

    #[test]
    fn trace_capture_groups_by_pe_in_order() {
        let p = hydro(128);
        let rep = simulate_traced(&p, &MachineConfig::new(4, 32)).unwrap();
        let trace = rep.trace.expect("tracing requested");
        assert_eq!(trace.n_pes, 4);
        let PhaseTrace::Loop { per_pe } = &trace.phases[0] else {
            panic!("expected loop phase");
        };
        // 128 elements / 32-element pages → one page per PE → 32 instances.
        for (pe, instances) in per_pe.iter().enumerate() {
            assert_eq!(instances.len(), 32, "PE {pe}");
            // Write addresses are strictly increasing within a PE.
            let addrs: Vec<usize> = instances
                .iter()
                .map(|i| i.write.expect("assign").2)
                .collect();
            assert!(addrs.windows(2).all(|w| w[0] < w[1]));
            // Each instance performs 3 reads.
            assert!(instances.iter().all(|i| i.reads.len() == 3));
        }
    }

    #[test]
    fn reduction_executes_where_data_lives() {
        // s = Σ Y(k): anchored at Y(k), so each PE reduces its own pages.
        let mut b = ProgramBuilder::new("sum");
        let y = b.input(
            "Y",
            &[128],
            InitPattern::Linear {
                base: 1.0,
                step: 0.0,
            },
        );
        let s = b.scalar("s");
        b.nest("sum", &[("k", 0, 127)], |nb| {
            nb.reduce(s, sa_ir::ReduceOp::Sum, nb.read(y, [iv(0)]));
        });
        let p = b.finish();
        let rep = simulate(&p, &MachineConfig::new(4, 32)).unwrap();
        assert_eq!(rep.scalars[0], 128.0);
        assert_eq!(
            rep.stats.remote_reads(),
            0,
            "reduction reads must all be local"
        );
        // Work is spread: every PE did 32 local reads.
        assert!(rep.stats.local_reads_per_pe().iter().all(|&r| r == 32));
    }

    #[test]
    fn owner_computes_never_trips_remote_write() {
        // If screening were wrong the machine would reject the write.
        let p = hydro(777); // deliberately not page aligned
        for n in [1usize, 2, 3, 5, 8] {
            assert!(
                simulate(&p, &MachineConfig::new(n, 32)).is_ok(),
                "n_pes={n}"
            );
        }
    }

    #[test]
    fn reinit_phase_flows_through_execution() {
        let mut b = ProgramBuilder::new("gen");
        let y = b.input("Y", &[64], InitPattern::Wavy);
        let x = b.output("X", &[64]);
        b.nest("g0", &[("k", 0, 63)], |nb| {
            nb.assign(x, [iv(0)], nb.read(y, [iv(0)]));
        });
        b.reinit(x);
        b.nest("g1", &[("k", 0, 63)], |nb| {
            nb.assign(x, [iv(0)], nb.read(y, [iv(0)]) * 2.0);
        });
        let p = b.finish();
        let rep = simulate(&p, &MachineConfig::new(4, 16)).unwrap();
        assert_eq!(rep.stats.reinit_messages, 6);
        let x = p.array_id("X").unwrap();
        let golden = interpret(&p).unwrap();
        golden
            .assert_matches(
                &sa_ir::ProgramResult {
                    arrays: rep.arrays.clone(),
                    scalars: rep.scalars.clone(),
                    writes: 0,
                    reads: 0,
                },
                1e-12,
            )
            .unwrap();
        let _ = x;
    }
}
