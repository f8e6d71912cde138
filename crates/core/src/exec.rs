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
//!
//! # Capped counting
//!
//! The instance loop takes a remote-read cap, under the contract replay's
//! capped count meets ([`crate::replay`], § Capped counting): the run
//! answers [`Capped::Exceeded`] exactly when its remote reads reach the
//! cap, and otherwise every count. The loop tallies remote reads as the
//! machine classifies them, checks the tally before each trip and once
//! more at the end, and stops at the first trip that finds the cap
//! reached — so a cap of 0 is `Exceeded` even for a run with no instances
//! or no reads. A run that fails stops first where it can: it answers its
//! error unless the remote reads charged before the failing instance's
//! trip reach the cap, and `Exceeded` if they do. [`simulate`] and
//! [`run`] are the same loop with no cap (`u64::MAX`).

use sa_ir::analysis::StaticArrays;
use sa_ir::body::NestBody;
use sa_ir::interp::{Memory, PageMemo};
use sa_ir::nest::Stmt;
use sa_ir::program::Phase;
use sa_ir::{ArrayId, IrError, Program};
use sa_lint::screening::Schedule;
use sa_machine::machine::ArraySpec;
use sa_machine::{AccessKind, DistributedMachine, MachineConfig, MachineError, Stats};
use sa_mem::SaArray;

use crate::replay::Capped;

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

/// What the running instance did, as [`Observer::end`] hears it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// An assignment stored `array[addr]`.
    Wrote {
        /// Array identity.
        array: usize,
        /// Linear address.
        addr: usize,
    },
    /// A reduction contributed to `scalar`.
    Reduced {
        /// Scalar identity.
        scalar: usize,
    },
}

/// The one hook on the instance loop: [`run`] reports every statement
/// instance to it as it executes, in sequential program order, without
/// building anything. Each method defaults to nothing, so an observer
/// states only what it watches, and `()` — what [`simulate`] passes — is
/// compiled away.
///
/// An instance on `pe` is zero or more [`read`](Observer::read)s followed
/// by one [`end`](Observer::end); instances do not interleave.
pub trait Observer {
    /// The instance running on `pe` loaded `array[addr]`; the machine
    /// classified the access as `kind`, `hops` one-way hops away (0 unless
    /// remote).
    fn read(&mut self, _pe: usize, _array: usize, _addr: usize, _kind: AccessKind, _hops: u32) {}
    /// The instance running on `pe` completed with `effect`; its value read
    /// the reduction results `scalars`, in evaluation order.
    fn end(&mut self, _pe: usize, _effect: Effect, _scalars: &[usize]) {}
    /// Every instance of the current nest has been reported (and its
    /// reductions' partial results sent to their hosts).
    fn nest_end(&mut self) {}
    /// `array` was re-initialised (§5): every cell is undefined again, at
    /// the price of `messages` host-protocol messages.
    fn reinit(&mut self, _array: usize, _messages: u64) {}
}

impl Observer for () {}

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
}

impl SimReport {
    /// The paper's *% of Reads Remote*.
    pub fn remote_pct(&self) -> f64 {
        self.stats.remote_read_pct()
    }
}

struct CountingMem<'m, O> {
    machine: &'m mut DistributedMachine,
    pe: usize,
    obs: &'m mut O,
    /// Remote reads charged so far in the run.
    remote: &'m mut u64,
}

impl<O: Observer> Memory for CountingMem<'_, O> {
    fn load(&mut self, array: ArrayId, addr: usize) -> Result<f64, IrError> {
        self.load_at(array, addr, &mut PageMemo::default())
    }

    #[inline]
    fn load_at(
        &mut self,
        array: ArrayId,
        addr: usize,
        memo: &mut PageMemo,
    ) -> Result<f64, IrError> {
        match self.machine.read(self.pe, array.0, addr, memo) {
            Ok((v, kind, hops)) => {
                *self.remote += u64::from(kind == AccessKind::RemoteRead);
                self.obs.read(self.pe, array.0, addr, kind, hops);
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

/// Run `program` on a machine configured by `cfg`. Access counts only.
pub fn simulate(program: &Program, cfg: &MachineConfig) -> Result<SimReport, SimError> {
    run(program, cfg, &mut ())
}

/// Run `program` on a machine configured by `cfg`, reporting every
/// statement instance to `obs` as it executes.
pub fn run<O: Observer>(
    program: &Program,
    cfg: &MachineConfig,
    obs: &mut O,
) -> Result<SimReport, SimError> {
    run_capped(program, cfg, obs, u64::MAX).map(Capped::uncapped)
}

/// [`run`], stopping once the run has charged `remote_cap` remote reads
/// (module docs, § Capped counting): [`Capped::Exceeded`] exactly when
/// the run's remote reads are at least `remote_cap`, else the full
/// report. `u64::MAX` is no cap.
pub(crate) fn run_capped<O: Observer>(
    program: &Program,
    cfg: &MachineConfig,
    obs: &mut O,
    remote_cap: u64,
) -> Result<Capped<SimReport>, SimError> {
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
    let mut scalars = vec![0.0; program.scalars.len()];
    let mut remote = 0u64;

    let mut per_nest: Vec<(String, Stats)> = Vec::new();

    for phase in &program.phases {
        match phase {
            Phase::Reinit(id) => {
                let sync = machine.reinit(id.0);
                obs.reinit(id.0, sync.total_messages());
            }
            Phase::Loop(nest) => {
                let before = machine.stats().clone();
                // Which PEs contributed to each reduction statement.
                let mut took_part = vec![Vec::new(); nest.body.len()];
                for (stmt, pes) in nest.body.iter().zip(&mut took_part) {
                    if let Stmt::Reduce { target, op, .. } = stmt {
                        scalars[target.0] = op.identity();
                        *pes = vec![false; cfg.n_pes];
                    }
                }
                // The reduction results each statement's value reads.
                let scalars_read: Vec<Vec<usize>> =
                    nest.body.iter().map(|s| s.value().scalar_reads()).collect();

                let nest_idx = per_nest.len(); // one entry per nest so far
                let ns = schedule.nest(nest_idx);
                let body = NestBody::compile(program, nest);
                let mut frame = body.frame();
                // The one instance loop: every sweep's trips in order, every
                // statement of a trip in body order.
                for (i, sweep) in ns.sweeps.iter().enumerate() {
                    body.enter(&mut frame, &ns.sweep(i));
                    for t in 0..sweep.trips as i64 {
                        if remote >= remote_cap {
                            return Ok(Capped::Exceeded);
                        }
                        let g = sweep.first + t as u64; // iterations of this nest so far
                        for (si, stmt) in nest.body.iter().enumerate() {
                            // The executing PE (index screening), with the
                            // machine's omniscient peek as the (uncounted)
                            // resolver of indirect anchors.
                            let anchor = body.anchor(si);
                            let addr = match anchor {
                                Some(site) => {
                                    let mut peek = PeekMem { machine: &machine };
                                    Some(body.addr(site, t, &mut frame, &mut peek)?)
                                }
                                None => None,
                            };
                            let memo = anchor.map(|site| body.memo(&mut frame, site));
                            let pe = schedule.owner_at(nest_idx, si, g, addr.zip(memo));
                            let mut mem = CountingMem {
                                machine: &mut machine,
                                pe,
                                obs: &mut *obs,
                                remote: &mut remote,
                            };
                            let v = body.value(si, t, &mut frame, &scalars, &mut mem)?;
                            let effect = match stmt {
                                Stmt::Assign { .. } => {
                                    let site = body.target(si).expect("an assignment's target");
                                    let addr = body.addr(site, t, &mut frame, &mut mem)?;
                                    let array = body.array(site).0;
                                    let memo = body.memo(&mut frame, site);
                                    machine
                                        .write(pe, array, addr, v, memo)
                                        .map_err(|e| write_failed(program, e))?;
                                    Effect::Wrote { array, addr }
                                }
                                Stmt::Reduce { target, op, .. } => {
                                    scalars[target.0] = op.combine(scalars[target.0], v);
                                    took_part[si][pe] = true;
                                    Effect::Reduced { scalar: target.0 }
                                }
                            };
                            obs.end(pe, effect, &scalars_read[si]);
                        }
                    }
                }

                // Vector→scalar collection (paper §9): each participating PE
                // ships its partial result to the scalar's host processor,
                // which combines and broadcasts availability implicitly.
                for (stmt, pes) in nest.body.iter().zip(&took_part) {
                    if let Stmt::Reduce { target, .. } = stmt {
                        let host = sa_machine::host_of(target.0, cfg.n_pes);
                        for pe in (0..cfg.n_pes).filter(|&pe| pes[pe]) {
                            machine.send_partial(pe, host);
                        }
                    }
                }

                let mut nest_stats = machine.stats().clone();
                subtract_stats(&mut nest_stats, &before);
                per_nest.push((nest.label.clone(), nest_stats));
                obs.nest_end();
            }
        }
    }

    if remote >= remote_cap {
        return Ok(Capped::Exceeded);
    }
    let (stats, network, arrays) = machine.finish();
    debug_assert_eq!(remote, stats.remote_reads(), "remote reads miscounted");
    Ok(Capped::Counted(SimReport {
        stats,
        per_nest,
        scalars,
        network_messages: network.messages,
        network_hops: network.hops,
        max_link_load: network.max_link_load(),
        arrays,
    }))
}

/// The error of a write the machine refused.
#[cfg_attr(not(debug_assertions), allow(unused_variables))]
fn write_failed(program: &Program, e: MachineError) -> SimError {
    // A dynamically trapped double write must be visible to the static
    // verifier too (an SA001/SA002 error, or an SA003 undecidable-scatter
    // warning); a miss here is a lint soundness bug, caught in debug builds
    // only.
    #[cfg(debug_assertions)]
    if matches!(e, MachineError::DoubleWrite { .. }) {
        debug_assert!(
            !sa_lint::check_write_once(program).diagnostics.is_empty(),
            "interpreter trapped a double write the static write-once \
             verifier did not flag: {e}"
        );
    }
    e.into()
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
