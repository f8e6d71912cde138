//! The timing pass — the "more sophisticated simulation \[that\] will better
//! explore the problems of execution time and network contention" the paper
//! lists as future work (§9): a per-PE clock that rides the counting
//! interpreter ([`crate::exec::run`]) through its [`Observer`] hook.
//!
//! Every PE has a clock, every cell the time its write finished, every
//! scalar the time its last reduction round became available. The
//! I-structure rule of §3 — a read of a cell whose producer has not run yet
//! is deferred until the write — and the two barriers are four max-plus
//! recurrences on those times:
//!
//! 1. **read** of a cell on PE `p`: `clock[p] = max(clock[p],
//!    write_time[cell]) + cost(kind, hops)` ([`AccessCosts`]; a remote read
//!    costs more per hop), and the wait `max(0, write_time[cell] −
//!    clock[p])` is a stall. A scalar read is the same with the scalar's
//!    availability and no cost.
//! 2. **instance end**: after its element reads and then its scalar reads,
//!    `clock[p] += compute`; an assignment adds `write` and stores
//!    `write_time[cell] = clock[p]`.
//! 3. **reduction**: a contribution arrives at the scalar's host PE at
//!    `clock[p]` (`+ remote_base` from any other PE); when the reducing
//!    nest ends the scalar is available at `max(arrivals) + compute`. A
//!    scalar read therefore sees the **last completed** round: the one of
//!    the latest earlier nest that reduced into it, never the round of the
//!    nest the reader is in.
//! 4. **re-initialisation** (§5) is a global barrier: every clock becomes
//!    `max(clocks) + remote_base + messages × per_hop`, the difference to a
//!    PE's own clock is a stall, and the array's cells are unwritten again.
//!
//! No event queue is needed to evaluate them. Under single assignment each
//! cell has exactly one producer, and the interpreter refuses a read that
//! precedes its write in program order — so program order is a topological
//! order of the dependences, every right-hand side above is final when the
//! interpreter reaches the instance that needs it, and the value of a
//! max-plus recurrence does not depend on the order in which independent
//! PEs are advanced. Memory is the clocks plus one time per array cell,
//! whatever the instance count.
//!
//! The output is an estimated parallel makespan, from which speedup curves
//! are derived.

use sa_ir::analysis::StaticArrays;
use sa_ir::{ArrayId, Program};
use sa_machine::{host_of, AccessCosts, AccessKind, MachineConfig};

use crate::exec::{run, Effect, Observer, SimError, SimReport};

/// Errors from the timing pass.
#[derive(Debug, Clone, PartialEq)]
pub enum TimingError {
    /// An instance waits on a value nothing before it in program order
    /// produces: a scalar no completed reduction round has made available
    /// (a program that reads a reduction inside the only nest computing
    /// it). An array cell cannot be the cause — the interpreter fails the
    /// run on a read that precedes its write — so for one this is an
    /// internal error.
    Deadlock {
        /// The PE whose instance could not proceed.
        stuck_pes: Vec<usize>,
    },
    /// The underlying counting simulation failed.
    Sim(SimError),
}

impl core::fmt::Display for TimingError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TimingError::Deadlock { stuck_pes } => {
                write!(f, "timing deadlock; stuck PEs: {stuck_pes:?}")
            }
            TimingError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for TimingError {}

impl From<SimError> for TimingError {
    fn from(e: SimError) -> Self {
        TimingError::Sim(e)
    }
}

/// Estimated execution-time profile.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// Makespan: the last PE's finish time.
    pub total_cycles: u64,
    /// Finish time per PE.
    pub per_pe_cycles: Vec<u64>,
    /// Cycles each PE spent waiting on deferred reads or barriers.
    pub stall_cycles: Vec<u64>,
    /// Total statement instances executed.
    pub instances: u64,
}

impl TimingReport {
    /// Speedup of this run relative to `baseline` (usually the 1-PE run).
    pub fn speedup_over(&self, baseline: &TimingReport) -> f64 {
        if self.total_cycles == 0 {
            return 1.0;
        }
        baseline.total_cycles as f64 / self.total_cycles as f64
    }
}

/// `write_time` of a cell nothing has written (in its current generation).
const UNWRITTEN: u64 = u64::MAX;

/// The four recurrences of the module doc, as an [`Observer`].
struct Clock {
    costs: AccessCosts,
    clock: Vec<u64>,
    stall: Vec<u64>,
    /// `write_time[array][addr]`; 0 for initially defined cells. Empty for
    /// an array whose every cell is a constant (defined at time 0, never
    /// written, never re-initialized): a read of it waits for nothing.
    write_time: Vec<Vec<u64>>,
    /// Availability of each scalar's last completed reduction round.
    scalar_time: Vec<Option<u64>>,
    /// Latest arrival at the host among the running nest's contributions.
    arriving: Vec<Option<u64>>,
    instances: u64,
    /// The first instance that waited on something never produced.
    error: Option<TimingError>,
}

impl Clock {
    fn new(program: &Program, costs: AccessCosts, n_pes: usize) -> Self {
        let statics = StaticArrays::scan(program);
        let write_time = program
            .arrays
            .iter()
            .enumerate()
            .map(|(a, d)| {
                if statics.is_total(ArrayId(a)) {
                    return Vec::new();
                }
                let mut cells = vec![UNWRITTEN; d.len()];
                cells[..d.init.defined_len(d.len())].fill(0);
                cells
            })
            .collect();
        Clock {
            costs,
            clock: vec![0; n_pes],
            stall: vec![0; n_pes],
            write_time,
            scalar_time: vec![None; program.scalars.len()],
            arriving: vec![None; program.scalars.len()],
            instances: 0,
            error: None,
        }
    }

    /// Hold `pe` until `ready` (`None`: nothing will ever produce it).
    #[inline]
    fn wait(&mut self, pe: usize, ready: Option<u64>) {
        match ready {
            Some(ready) if ready > self.clock[pe] => {
                self.stall[pe] += ready - self.clock[pe];
                self.clock[pe] = ready;
            }
            Some(_) => {}
            None => {
                self.error.get_or_insert(TimingError::Deadlock {
                    stuck_pes: vec![pe],
                });
            }
        }
    }

    fn finish(self) -> Result<TimingReport, TimingError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(TimingReport {
                total_cycles: self.clock.iter().copied().max().unwrap_or(0),
                per_pe_cycles: self.clock,
                stall_cycles: self.stall,
                instances: self.instances,
            }),
        }
    }
}

impl Observer for Clock {
    #[inline]
    fn read(&mut self, pe: usize, array: usize, addr: usize, kind: AccessKind, hops: u32) {
        // The interpreter has just loaded the cell, so it is written (a
        // constant array's cells, at time 0: nothing to wait for).
        if let Some(&written) = self.write_time[array].get(addr) {
            self.wait(pe, (written != UNWRITTEN).then_some(written));
        }
        self.clock[pe] += self.costs.of(kind, hops);
    }

    #[inline]
    fn end(&mut self, pe: usize, effect: Effect, scalars: &[usize]) {
        for &s in scalars {
            self.wait(pe, self.scalar_time[s]);
        }
        self.clock[pe] += self.costs.compute;
        match effect {
            Effect::Wrote { array, addr } => {
                self.clock[pe] += self.costs.write;
                self.write_time[array][addr] = self.clock[pe];
            }
            Effect::Reduced { scalar } => {
                // Non-host contributors ship a partial result.
                let shipping = if pe == host_of(scalar, self.clock.len()) {
                    0
                } else {
                    self.costs.remote_base
                };
                let arrival = Some(self.clock[pe] + shipping);
                self.arriving[scalar] = self.arriving[scalar].max(arrival);
            }
        }
        self.instances += 1;
    }

    fn nest_end(&mut self) {
        for (avail, arriving) in self.scalar_time.iter_mut().zip(&mut self.arriving) {
            if let Some(last) = arriving.take() {
                *avail = Some(last + self.costs.compute); // host combine
            }
        }
    }

    fn reinit(&mut self, array: usize, messages: u64) {
        let t = self.clock.iter().copied().max().unwrap_or(0);
        let cost = self.costs.remote_base + messages * self.costs.per_hop;
        for (clock, stall) in self.clock.iter_mut().zip(&mut self.stall) {
            *stall += t - *clock;
            *clock = t + cost;
        }
        self.write_time[array].fill(UNWRITTEN);
    }
}

/// One interpreter run with a [`Clock`] on it: the access counts and the
/// timing estimate of the same execution.
pub(crate) fn simulate_timed(
    program: &Program,
    cfg: &MachineConfig,
) -> Result<(SimReport, TimingReport), TimingError> {
    let mut clock = Clock::new(program, cfg.costs, cfg.n_pes);
    let rep = run(program, cfg, &mut clock)?;
    Ok((rep, clock.finish()?))
}

/// Estimated execution-time profile of `program` on the machine `cfg`
/// describes, access costs included.
pub fn estimate_timing(
    program: &Program,
    cfg: &MachineConfig,
) -> Result<TimingReport, TimingError> {
    Ok(simulate_timed(program, cfg)?.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_ir::index::iv;
    use sa_ir::{InitPattern, ProgramBuilder};

    fn map_kernel(n: usize) -> Program {
        // Embarrassingly parallel matched loop: X(k) = 2·Y(k).
        let mut b = ProgramBuilder::new("map");
        let y = b.input("Y", &[n], InitPattern::Wavy);
        let x = b.output("X", &[n]);
        b.nest("map", &[("k", 0, n as i64 - 1)], |nb| {
            nb.assign(x, [iv(0)], nb.read(y, [iv(0)]) * 2.0);
        });
        b.finish()
    }

    fn chain_kernel(n: usize) -> Program {
        // Fully serial recurrence: X(i) = X(i-1) + 1.
        let mut b = ProgramBuilder::new("chain");
        let x = b.array_with(
            "X",
            &[n],
            sa_ir::program::ArrayInit::Prefix {
                pattern: InitPattern::Zero,
                len: 1,
            },
        );
        b.nest("chain", &[("i", 1, n as i64 - 1)], |nb| {
            nb.assign(x, [iv(0)], nb.read(x, [iv(0).plus(-1)]) + 1.0);
        });
        b.finish()
    }

    #[test]
    fn single_pe_timing_is_sum_of_costs() {
        let p = map_kernel(64);
        let t = estimate_timing(&p, &MachineConfig::new(1, 32)).unwrap();
        let c = AccessCosts::default();
        // 64 instances × (local read + compute + write)
        let expected = 64 * (c.local_read + c.compute + c.write);
        assert_eq!(t.total_cycles, expected);
        assert_eq!(t.instances, 64);
        assert_eq!(t.stall_cycles, vec![0]);
    }

    #[test]
    fn matched_loop_scales_nearly_linearly() {
        let p = map_kernel(1024);
        let t1 = estimate_timing(&p, &MachineConfig::new(1, 32)).unwrap();
        let t8 = estimate_timing(&p, &MachineConfig::new(8, 32)).unwrap();
        let s = t8.speedup_over(&t1);
        assert!(
            s > 7.9 && s <= 8.0,
            "matched loop must scale ~linearly, got {s:.2}"
        );
    }

    #[test]
    fn serial_chain_does_not_scale() {
        let p = chain_kernel(512);
        let t1 = estimate_timing(&p, &MachineConfig::new(1, 32)).unwrap();
        let t8 = estimate_timing(&p, &MachineConfig::new(8, 32)).unwrap();
        let s = t8.speedup_over(&t1);
        assert!(s <= 1.05, "a serial chain cannot speed up, got {s:.2}");
        // The chain crosses page boundaries: later PEs must have stalled.
        assert!(t8.stall_cycles.iter().sum::<u64>() > 0);
    }

    #[test]
    fn speedup_never_exceeds_pe_count() {
        let p = map_kernel(300);
        let t1 = estimate_timing(&p, &MachineConfig::new(1, 32)).unwrap();
        for n in [2usize, 4, 8, 16] {
            let tn = estimate_timing(&p, &MachineConfig::new(n, 32)).unwrap();
            let s = tn.speedup_over(&t1);
            assert!(s <= n as f64 + 1e-9, "speedup {s:.2} > {n} PEs");
        }
    }

    #[test]
    fn remote_reads_cost_more_than_local() {
        // Same kernel, skewed so page-crossing reads go remote without a
        // cache: timing must be strictly worse than the cached config.
        let mut b = ProgramBuilder::new("skew");
        let y = b.input("Y", &[1040], InitPattern::Wavy);
        let x = b.output("X", &[1024]);
        b.nest("skew", &[("k", 0, 1023)], |nb| {
            nb.assign(x, [iv(0)], nb.read(y, [iv(0).plus(16)]));
        });
        let p = b.finish();
        let cached = estimate_timing(&p, &MachineConfig::new(4, 32)).unwrap();
        let uncached = estimate_timing(&p, &MachineConfig::new(4, 32).with_cache_elems(0)).unwrap();
        assert!(
            uncached.total_cycles > cached.total_cycles,
            "uncached {} ≤ cached {}",
            uncached.total_cycles,
            cached.total_cycles
        );
    }

    #[test]
    fn reduction_barrier_orders_scalar_consumers() {
        // s = Σ Y(k); then X(k) = s + Y(k). Consumers must wait for s.
        let mut b = ProgramBuilder::new("redchain");
        let y = b.input("Y", &[128], InitPattern::Const(1.0));
        let x = b.output("X", &[128]);
        let s = b.scalar("s");
        b.nest("sum", &[("k", 0, 127)], |nb| {
            nb.reduce(s, sa_ir::ReduceOp::Sum, nb.read(y, [iv(0)]));
        });
        b.nest("use", &[("k", 0, 127)], |nb| {
            nb.assign(x, [iv(0)], nb.scalar_value(s) + nb.read(y, [iv(0)]));
        });
        let p = b.finish();
        let t = estimate_timing(&p, &MachineConfig::new(4, 32)).unwrap();
        assert_eq!(t.instances, 256);
        // All PEs consumed s, which was only available after every partial
        // arrived — so no PE can have finished before the reduction did.
        let c = AccessCosts::default();
        let reduce_min = 32 * (c.local_read + c.compute); // one PE's partials
        assert!(t.total_cycles > reduce_min);
    }

    /// X(64), Y(64) defined, one scalar: the arrays and scalar the
    /// hand-driven clocks below name.
    fn clock_on(n_pes: usize) -> (Clock, usize, AccessCosts) {
        let mut b = ProgramBuilder::new("hooks");
        let x = b.output("X", &[64]);
        b.input("Y", &[64], InitPattern::Wavy);
        b.scalar("s");
        let costs = AccessCosts::default();
        (Clock::new(&b.finish(), costs, n_pes), x.0, costs)
    }

    #[test]
    fn a_scalar_read_sees_the_last_completed_round() {
        let (mut c, x, k) = clock_on(2);
        let s = Effect::Reduced { scalar: 0 };
        // Nest A: PE 1 contributes three times, PE 0 (the host) once.
        for pe in [1, 1, 1, 0] {
            c.end(pe, s, &[]);
        }
        c.nest_end();
        let round_a = 3 * k.compute + k.remote_base + k.compute;
        assert_eq!(c.scalar_time[0], Some(round_a));
        // Nest C reduces into s again and reads it: the reader on PE 0 is
        // held until round A — not until C's own round, which is still
        // open whichever order the PEs' instances arrive in.
        c.end(1, s, &[]);
        c.end(0, Effect::Wrote { array: x, addr: 0 }, &[0]);
        assert_eq!(c.clock[0], round_a + k.compute + k.write);
        assert_eq!(c.stall[0], round_a - k.compute);
        c.end(1, s, &[]);
        c.nest_end();
        assert_eq!(
            c.scalar_time[0],
            Some(5 * k.compute + k.remote_base + k.compute)
        );
        assert!(c.finish().is_ok());
    }

    #[test]
    fn a_scalar_no_round_has_completed_is_a_typed_error() {
        // s = Σ Y(k) and X(k) = s + Y(k) in the *same* nest: the read can
        // never be served. An error naming the reader, not a panic or hang.
        let mut b = ProgramBuilder::new("selfread");
        let y = b.input("Y", &[128], InitPattern::Const(1.0));
        let x = b.output("X", &[128]);
        let s = b.scalar("s");
        b.nest("both", &[("k", 0, 127)], |nb| {
            nb.reduce(s, sa_ir::ReduceOp::Sum, nb.read(y, [iv(0)]));
            nb.assign(x, [iv(0)], nb.scalar_value(s) + nb.read(y, [iv(0)]));
        });
        let got = estimate_timing(&b.finish(), &MachineConfig::new(4, 32));
        assert_eq!(
            got.unwrap_err(),
            TimingError::Deadlock { stuck_pes: vec![0] }
        );
    }

    #[test]
    fn a_read_after_reinit_waits_on_the_new_generations_write() {
        let (mut c, x, k) = clock_on(2);
        let wrote = Effect::Wrote { array: x, addr: 0 };
        c.end(0, wrote, &[]);
        let first_write = k.compute + k.write;
        assert_eq!(c.write_time[x][0], first_write);
        c.reinit(x, 2);
        let after_barrier = first_write + k.remote_base + 2 * k.per_hop;
        assert_eq!(c.clock, vec![after_barrier; 2]);
        assert_eq!(c.stall, vec![0, first_write]);
        assert!(c.write_time[x].iter().all(|&t| t == UNWRITTEN));
        // PE 0 rewrites X(0) only after other work; PE 1's read is
        // deferred to that write, not served by the old generation's.
        c.end(0, Effect::Wrote { array: x, addr: 1 }, &[]);
        c.end(0, wrote, &[]);
        let second_write = after_barrier + 2 * (k.compute + k.write);
        c.read(1, x, 0, AccessKind::LocalRead, 0);
        assert_eq!(c.clock[1], second_write + k.local_read);
        assert_eq!(c.stall[1], first_write + second_write - after_barrier);
        // A cell nothing wrote since the barrier is the internal error.
        c.read(1, x, 5, AccessKind::LocalRead, 0);
        assert_eq!(
            c.finish().unwrap_err(),
            TimingError::Deadlock { stuck_pes: vec![1] }
        );
    }

    #[test]
    fn reinit_barrier_synchronizes_clocks() {
        let mut b = ProgramBuilder::new("gen");
        let y = b.input("Y", &[64], InitPattern::Wavy);
        let x = b.output("X", &[64]);
        b.nest("g0", &[("k", 0, 63)], |nb| {
            nb.assign(x, [iv(0)], nb.read(y, [iv(0)]));
        });
        b.reinit(x);
        b.nest("g1", &[("k", 0, 63)], |nb| {
            nb.assign(x, [iv(0)], nb.read(y, [iv(0)]) * 3.0);
        });
        let p = b.finish();
        let t = estimate_timing(&p, &MachineConfig::new(4, 16)).unwrap();
        // After a barrier everyone advances in lockstep; with a symmetric
        // workload the finish times are identical.
        assert!(t.per_pe_cycles.iter().all(|&c| c == t.per_pe_cycles[0]));
    }
}
