//! Plan a run once, hand it to the worker pool, assemble the report.
//!
//! Everything a PE would otherwise re-derive for itself is worked out here,
//! once per run, and shared read-only (`Plan`): the owner-computes schedule
//! (`sa_lint::screening::Schedule`: sweep lists, screening, reduction
//! participants), the page→(owner, frame) table and the initial images. An
//! array no phase writes or re-initializes and whose every cell is
//! initialized ([`StaticArrays::is_total`]) is *constant*: its image is the
//! one copy of it in the run, which every PE reads in place and the report
//! takes over; no PE holds a frame of it. The PEs (`pe.rs`) then enumerate
//! only what they own, on the worker threads of `pool.rs`.

use sa_core::parallel::default_workers;
use sa_ir::analysis::StaticArrays;
use sa_ir::body::NestBody;
use sa_ir::interp::PageMemo;
use sa_ir::program::Phase;
use sa_ir::{ArrayId, Program, ReduceOp};
use sa_lint::screening::{AnchorError, Schedule};
use sa_machine::{MachineConfig, NetworkTopology, PartitionScheme, Stats};
use sa_mem::{SaArray, TaggedPage};

use crate::pe::{Frame, WaitObs};
use crate::pool;

/// Configuration of a real-thread run (the machine parameters that matter
/// to the runtime; timing cost models remain simulator-side).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// Number of PEs (logical: they share a core-sized pool of threads).
    pub n_pes: usize,
    /// Page size in elements.
    pub page_size: usize,
    /// Per-PE cache size in elements (0 disables caching).
    pub cache_elems: usize,
    /// Page placement scheme.
    pub partition: PartitionScheme,
    /// Interconnect topology for hop and link-load accounting. The real
    /// threads still talk over channels; the topology's routing
    /// ([`NetworkTopology::route`]) prices each modeled message exactly
    /// like the counting simulator.
    pub network: NetworkTopology,
}

impl RuntimeConfig {
    /// The paper's machine: modulo placement, 256-element cache.
    pub fn paper(n_pes: usize, page_size: usize) -> Self {
        RuntimeConfig {
            n_pes,
            page_size,
            cache_elems: 256,
            partition: PartitionScheme::Modulo,
            network: NetworkTopology::Ideal,
        }
    }

    /// Adopt the counting simulator's parameters.
    pub fn from_machine(cfg: &MachineConfig) -> Self {
        RuntimeConfig {
            n_pes: cfg.n_pes,
            page_size: cfg.page_size,
            cache_elems: cfg.cache_elems,
            partition: cfg.partition,
            network: cfg.network,
        }
    }

    /// The equivalent counting-simulator configuration.
    pub fn to_machine(&self) -> MachineConfig {
        MachineConfig::new(self.n_pes, self.page_size)
            .with_cache_elems(self.cache_elems)
            .with_partition(self.partition)
            .with_network(self.network)
    }

    /// Validate the configuration (delegates to [`MachineConfig::validate`],
    /// so the runtime and the simulator reject exactly the same configs).
    pub fn validate(&self) -> Result<(), sa_machine::ConfigError> {
        self.to_machine().validate()
    }

    /// Cache capacity in pages. Only meaningful on a validated config —
    /// zero page sizes are rejected by [`RuntimeConfig::validate`] rather
    /// than silently treated as "no cache".
    fn cache_pages(&self) -> usize {
        debug_assert!(self.page_size > 0, "cache_pages on an unvalidated config");
        self.cache_elems / self.page_size
    }
}

/// Runtime failures.
#[derive(Debug)]
pub enum RuntimeError {
    /// Bad configuration.
    InvalidConfig(String),
    /// The program has a shape the worker protocol cannot execute (see
    /// [`unsupported_reason`]); detected *before* any thread spawns, so an
    /// unsupported grid point fails soft instead of aborting a sweep.
    Unsupported(String),
    /// A PE hit a semantic violation (a double write, a read of a cell the
    /// program never defines) and the run was torn down, or a worker
    /// thread panicked on an internal bug; the payload is the reason.
    WorkerPanicked(String),
    /// The run reached global quiescence with PEs still waiting on each
    /// other: every worker thread parked, no message in flight. The payload
    /// lists what each blocked PE waits for — the cyclic I-structure wait
    /// `sapp lint` rejects statically as SA008.
    Deadlocked(String),
}

impl core::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RuntimeError::InvalidConfig(m) => write!(f, "invalid runtime config: {m}"),
            RuntimeError::Unsupported(m) => write!(f, "unsupported program: {m}"),
            RuntimeError::WorkerPanicked(m) => write!(f, "worker panicked: {m}"),
            RuntimeError::Deadlocked(m) => write!(f, "deadlocked: {m}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Why `program` cannot run on the thread runtime, or `None` if it can.
///
/// The PE protocol resolves an indirect statement anchor (`A(P(i)) = …`)
/// by reading the index array `P` — from its initial image when `P` is fully
/// initialized, or over [`crate::net::Msg::IndirectFetch`] when `P` was
/// produced by an *earlier* nest (its single assignment is then ordered
/// before this nest by SSA sequencing, so deferred replies always arrive).
/// Two shapes break that ordering and are rejected up front:
///
/// * an index array written **in the same nest** that gathers through it —
///   ownership would depend on intra-nest timing, a genuinely dynamic case;
/// * an index array that is neither statically initialized nor written by
///   any earlier nest at its current generation — resolution could only
///   block on cells no one will produce.
///
/// The check is per *array*, not per cell: a program whose earlier nests
/// write an index array only partially — or whose static initialization is
/// only a [`sa_ir::program::ArrayInit::Prefix`] — passes here but errors
/// if a lookup lands on an undefined cell: past a static prefix when the
/// schedule tabulates the anchor's owners, before any PE runs; in a
/// produced array when the PE that detects it stops the run (locally
/// detected reads immediately; remote requests once their owner runs out
/// of program). `execute` surfaces either as a typed
/// [`RuntimeError::WorkerPanicked`], the same class of failure the
/// reference interpreter reports as a `ReadUndefined`.
pub fn unsupported_reason(program: &Program) -> Option<String> {
    let mut reason = None;
    sa_lint::unproduced_anchors(program, |_, nest, base, same_nest| {
        let name = &program.array(base).name;
        reason.get_or_insert_with(|| {
            if same_nest {
                format!(
                    "nest `{}` gathers its statement anchor through index array \
                     `{name}`, which the same nest produces — ownership would \
                     depend on intra-nest timing",
                    nest.label
                )
            } else {
                format!(
                    "nest `{}` anchors through index array `{name}`, which is \
                     neither statically initialized nor produced by an earlier \
                     nest",
                    nest.label
                )
            }
        });
    });
    reason
}

/// Result of a real-thread run.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Aggregated access statistics (same categories as the simulator).
    pub stats: Stats,
    /// Final reduction values.
    pub scalars: Vec<f64>,
    /// Every request and reply the protocol sends, across all PEs, whether
    /// it travelled over a channel or was answered in place
    /// ([`RuntimeReport::in_place_fetches`],
    /// [`RuntimeReport::constant_fetches`]) — including the categories
    /// below that the counting simulator's message model does not charge.
    pub messages: u64,
    /// Scalar-result broadcast messages (the simulator's §9 model makes the
    /// result "implicitly available" after collection; the runtime really
    /// sends it).
    pub broadcast_messages: u64,
    /// Indirect-anchor resolution messages (the simulator resolves anchors
    /// with an uncounted peek; the runtime really fetches index pages).
    pub resolve_messages: u64,
    /// Re-initialization barrier-hardening messages (`ReinitAck`/`ReinitGo`
    /// — the second §5 round that keeps released PEs from racing ahead of
    /// still-syncing peers; the simulator's barrier is instantaneous and
    /// its §5 model charges only the request/release rounds).
    pub sync_messages: u64,
    /// Page fetches whose owner was a PE of the requester's own worker:
    /// served by a direct call, counted as a request and a reply like any
    /// other fetch (the split between same-worker and cross-worker
    /// traffic; a property of the run, not of the program). Fetches of a
    /// constant array are not among them.
    pub in_place_fetches: u64,
    /// Page fetches of a cell of a constant array (never written or
    /// re-initialized, every cell initialized): answered by the requester
    /// itself from the run's one copy of the array, on any worker, and
    /// counted as a request and a reply like any other fetch. Unlike
    /// [`RuntimeReport::in_place_fetches`], a property of the program and
    /// its placement, not of the run.
    pub constant_fetches: u64,
    /// Total hop traversals of the *modeled* traffic (remote fetches,
    /// reduction partials, §5 request/release rounds) priced by the
    /// configured topology's [`NetworkTopology::hops`] — the same events
    /// the counting simulator routes, so the two engines certify equal.
    pub hops: u64,
    /// Heaviest directed-link traffic of the modeled messages (the
    /// contention bottleneck under the configured topology).
    pub max_link_load: u64,
    /// Every realized read-after-write wait across all PEs: reads whose
    /// reply the owner had to defer until the producing write landed. In
    /// debug builds [`execute`] asserts each of these is covered by an edge
    /// of `sa-lint`'s static dependence graph
    /// ([`sa_lint::DepGraph::covers_wait`]) — the runtime-side half of the
    /// deadlock pass's soundness argument.
    pub wait_edges: Vec<WaitObs>,
    /// The PEs' owned frames as the run left them and the images of the
    /// constant arrays: the one copy of the final arrays, laid out by
    /// [`RuntimeReport::arrays`] on request.
    frames: Frames,
}

/// What [`RuntimeReport::arrays`] assembles the final arrays from.
#[derive(Debug, Clone)]
struct Frames {
    page_size: usize,
    /// Per array, its name and length.
    decls: Vec<(String, usize)>,
    /// [`Plan::pages`]: per array and page, the owner and its frame slot.
    pages: Vec<Vec<(u32, u32)>>,
    /// Per PE, its frames `[array][slot]` (none of a constant array).
    owned: Vec<Vec<Vec<Frame>>>,
    /// Per array, its image if it is constant ([`Plan::constant`]).
    constants: Vec<Option<Vec<f64>>>,
}

impl RuntimeReport {
    /// Final array contents, assembled from the PEs' frames and the
    /// constant arrays' images on each call.
    pub fn arrays(&self) -> Vec<SaArray<f64>> {
        let f = &self.frames;
        let mut arrays = Vec::with_capacity(f.decls.len());
        for (a, ((name, len), image)) in f.decls.iter().zip(&f.constants).enumerate() {
            if let Some(image) = image {
                arrays.push(SaArray::with_init(name.clone(), image.clone()));
                continue;
            }
            let mut array = SaArray::new(name.clone(), *len);
            for (page, &(owner, slot)) in f.pages[a].iter().enumerate() {
                let frame = &f.owned[owner as usize][a][slot as usize];
                let start = page * f.page_size;
                for off in frame.fill().iter_set() {
                    array
                        .write(start + off, frame.values()[off])
                        .expect("frames are disjoint across owners");
                }
            }
            arrays.push(array);
        }
        arrays
    }

    /// Messages under the counting simulator's model — total wire traffic
    /// minus scalar broadcasts, anchor-resolution traffic, and barrier
    /// sync rounds, the mechanisms the simulator performs for free. This
    /// is the number comparable to `SimReport::network_messages`, and what
    /// [`crate::ThreadOracle`] reports.
    pub fn modeled_messages(&self) -> u64 {
        self.messages - self.broadcast_messages - self.resolve_messages - self.sync_messages
    }
}

/// One reduction round after a nest: a `Reduce` statement's scalar is
/// collected at its host and broadcast.
pub(crate) struct ReducePlan {
    /// Destination scalar slot.
    pub scalar: usize,
    /// Combining operator.
    pub op: ReduceOp,
    /// The round holding this scalar's participant set: this one, or the
    /// earlier round of the same scalar.
    pub set: usize,
    /// In round `set` only: which PEs execute an instance of a statement
    /// reducing into `scalar` in this nest, as far as the schedule can
    /// screen them.
    pub participants: Vec<bool>,
    /// In round `set` only: some of those statements are anchored through
    /// a produced index array, and each PE completes the set itself as it
    /// resolves.
    pub resolved: bool,
}

/// What the run adds to the schedule's view of a nest
/// ([`sa_lint::screening::NestSchedule`]): its reduction protocol.
pub(crate) struct NestPlan {
    /// Index of the nest in [`Plan::schedule`].
    pub idx: usize,
    /// Per body statement, the reduction round whose participant set
    /// ([`ReducePlan::set`]) its instances add to (`None` for assignments).
    pub parts_of: Vec<Option<usize>>,
    /// The reduction rounds, one per `Reduce` statement in body order.
    pub reduces: Vec<ReducePlan>,
}

/// One phase of the program.
pub(crate) enum PhasePlan {
    /// Run a loop nest.
    Loop(NestPlan),
    /// Re-initialize an array (§5 barrier).
    Reinit(usize),
}

/// Everything about a run that does not depend on which PE looks at it.
pub(crate) struct Plan<'p> {
    /// The program.
    pub program: &'p Program,
    /// Number of PEs.
    pub n_pes: usize,
    /// Page size in elements.
    pub page_size: usize,
    /// Cache capacity in pages (0 disables).
    pub cache_pages: usize,
    /// Interconnect topology pricing the modeled traffic.
    pub network: NetworkTopology,
    /// Who executes what: placements, sweeps, per-PE segments.
    pub schedule: Schedule<'p>,
    /// Per array and page: the owning PE and the frame's index among that
    /// PE's frames of the array (ascending page order) — a load reaches
    /// its frame without hashing, and the table is sized by the pages of
    /// the program once, not once per PE.
    pub pages: Vec<Vec<(u32, u32)>>,
    /// Per array: the initially defined prefix, materialized once. A
    /// written array's PEs cut their frames from it; a constant array's is
    /// the one copy of it that every PE reads.
    pub images: Vec<Vec<f64>>,
    /// Per array: no phase writes or re-initializes it and every cell is
    /// initialized ([`StaticArrays::is_total`]). No PE holds a frame of
    /// it, and no fetch of it travels or waits.
    pub constant: Vec<bool>,
    /// Per nest, in [`Plan::schedule`]'s order: its statements compiled.
    pub bodies: Vec<NestBody<'p>>,
    /// The phases in order.
    pub phases: Vec<PhasePlan>,
}

impl<'p> Plan<'p> {
    fn build(
        program: &'p Program,
        statics: &StaticArrays<'_>,
        cfg: &RuntimeConfig,
    ) -> Result<Self, RuntimeError> {
        let mut schedule = Schedule::new(program, statics, cfg.partition, cfg.page_size, cfg.n_pes)
            .map_err(|e| RuntimeError::InvalidConfig(e.to_string()))?;
        // An anchor no PE can be found for stops the run before it starts:
        // every PE would meet the same instance.
        schedule
            .tabulate(statics)
            .map_err(|AnchorError { error, .. }| {
                RuntimeError::WorkerPanicked(format!("anchor resolution failed: {error}"))
            })?;
        let pages = (0..program.arrays.len())
            .map(|a| {
                let placement = schedule.placement(ArrayId(a));
                let mut next = vec![0u32; cfg.n_pes];
                (0..placement.pages())
                    .map(|page| {
                        let owner = placement.page_owner(page);
                        next[owner] += 1;
                        (owner as u32, next[owner] - 1)
                    })
                    .collect()
            })
            .collect();
        let mut nests = 0;
        let phases = program
            .phases
            .iter()
            .map(|phase| match phase {
                Phase::Reinit(id) => PhasePlan::Reinit(id.0),
                Phase::Loop(_) => {
                    nests += 1;
                    PhasePlan::Loop(nest_plan(&schedule, nests - 1))
                }
            })
            .collect();
        Ok(Plan {
            bodies: program
                .nests()
                .map(|nest| NestBody::compile(program, nest))
                .collect(),
            program,
            n_pes: cfg.n_pes,
            page_size: cfg.page_size,
            cache_pages: cfg.cache_pages(),
            network: cfg.network,
            schedule,
            pages,
            images: program
                .arrays
                .iter()
                .map(|d| d.init.materialize(d.len()))
                .collect(),
            constant: (0..program.arrays.len())
                .map(|a| statics.is_total(ArrayId(a)))
                .collect(),
            phases,
        })
    }
}

impl Plan<'_> {
    /// Where page `addr` of `array` lives — its owner and that owner's
    /// frame — for an access site that remembers its last page in `memo`:
    /// the table is read once per page run. Returns the filled memo.
    #[inline]
    pub fn page_at<'m>(&self, array: usize, addr: usize, memo: &'m mut PageMemo) -> &'m PageMemo {
        if !memo.holds(addr) {
            let page = addr / self.page_size;
            let (owner, slot) = self.pages[array][page];
            memo.remember(page, self.page_size, owner as usize, slot as usize);
        }
        memo
    }

    /// Page `page` of `array` as the run starts: its cells inside the
    /// initially defined prefix defined, the rest not.
    pub fn initial_page(&self, array: usize, page: usize) -> TaggedPage {
        let (image, ps) = (&self.images[array], self.page_size);
        let start = page * ps;
        let elems = (self.program.arrays[array].len() - start).min(ps);
        let defined = image.len().saturating_sub(start).min(elems);
        if defined == elems {
            return TaggedPage::full(image[start..start + elems].to_vec());
        }
        let mut frame = TaggedPage::undefined(elems);
        for off in 0..defined {
            frame.set(off, image[start + off]);
        }
        frame
    }
}

/// The reduction protocol of nest `idx`: statements reducing into one
/// scalar share one participant set (and one partial accumulator per PE),
/// so the schedule's per-statement rounds are united by scalar.
fn nest_plan(schedule: &Schedule<'_>, idx: usize) -> NestPlan {
    let mut np = NestPlan {
        idx,
        parts_of: vec![None; schedule.nest(idx).nest.body.len()],
        reduces: Vec::new(),
    };
    for (round, r) in schedule.rounds(idx).into_iter().enumerate() {
        let set = np.reduces.iter().position(|x| x.scalar == r.scalar);
        let set = set.unwrap_or(round);
        np.parts_of[r.stmt] = Some(set);
        np.reduces.push(ReducePlan {
            scalar: r.scalar,
            op: r.op,
            set,
            participants: Vec::new(),
            resolved: false,
        });
        let holder = &mut np.reduces[set];
        holder.resolved |= !r.complete;
        if set == round {
            holder.participants = r.pes;
        } else {
            for (all, one) in holder.participants.iter_mut().zip(r.pes) {
                *all |= one;
            }
        }
    }
    np
}

/// Execute `program` on `cfg.n_pes` logical PEs, multiplexed onto one
/// worker thread per available core.
pub fn execute(program: &Program, cfg: &RuntimeConfig) -> Result<RuntimeReport, RuntimeError> {
    execute_on(program, cfg, default_workers(cfg.n_pes))
}

/// [`execute`] on an explicit number of worker threads (clamped to
/// `1..=n_pes`) — results and counts must not depend on it; the tests pin
/// that without reading the machine's parallelism.
#[doc(hidden)]
pub fn execute_on(
    program: &Program,
    cfg: &RuntimeConfig,
    workers: usize,
) -> Result<RuntimeReport, RuntimeError> {
    cfg.validate()
        .map_err(|e| RuntimeError::InvalidConfig(e.to_string()))?;
    if let Some(reason) = unsupported_reason(program) {
        return Err(RuntimeError::Unsupported(reason));
    }
    let mut plan = Plan::build(program, &StaticArrays::scan(program), cfg)?;
    let (results, net) = pool::run(&plan, workers.clamp(1, cfg.n_pes))?;

    let mut stats = Stats::new(cfg.n_pes);
    let mut messages = 0u64;
    let mut broadcast_messages = 0u64;
    let mut resolve_messages = 0u64;
    let mut sync_messages = 0u64;
    let mut in_place_fetches = 0u64;
    let mut constant_fetches = 0u64;
    let mut wait_edges: Vec<WaitObs> = Vec::new();
    for (pe, r) in results.iter().enumerate() {
        stats.per_pe[pe] = r.stats.counters;
        stats.page_fetches += r.stats.page_fetches;
        stats.partial_refetches += r.stats.partial_refetches;
        stats.reinit_messages += r.stats.reinit_messages;
        stats.reduction_messages += r.stats.reduction_messages;
        messages += r.stats.messages_sent;
        broadcast_messages += r.stats.broadcast_messages;
        resolve_messages += r.stats.resolve_messages;
        sync_messages += r.stats.sync_messages;
        in_place_fetches += r.stats.in_place_fetches;
        constant_fetches += r.stats.constant_fetches;
        wait_edges.extend(r.wait_edges.iter().copied());
    }
    let scalars = results
        .first()
        .map(|r| r.scalars.clone())
        .unwrap_or_default();
    let frames = Frames {
        page_size: cfg.page_size,
        decls: program
            .arrays
            .iter()
            .map(|d| (d.name.clone(), d.len()))
            .collect(),
        pages: std::mem::take(&mut plan.pages),
        owned: results.into_iter().map(|r| r.frames).collect(),
        constants: std::mem::take(&mut plan.images)
            .into_iter()
            .zip(&plan.constant)
            .map(|(image, &constant)| constant.then_some(image))
            .collect(),
    };
    // Debug-mode soundness cross-check: every wait the machine *realized*
    // must be predicted by the static dependence graph the deadlock pass
    // (SA008) reasons over. A miss here means the static graph is not a
    // superset of the runtime's wait structure — its proofs would be built
    // on a hole.
    #[cfg(debug_assertions)]
    {
        let graph = sa_lint::DepGraph::build(program);
        for w in &wait_edges {
            assert!(
                graph.covers_wait(
                    w.phase,
                    w.stmt,
                    sa_ir::ArrayId(w.array),
                    w.generation as usize
                ),
                "runtime wait at phase {} stmt {} on `{}`#{} (addr {}) has no \
                 covering static dependence edge",
                w.phase,
                w.stmt,
                program.array(sa_ir::ArrayId(w.array)).name,
                w.generation,
                w.addr,
            );
        }
    }
    Ok(RuntimeReport {
        stats,
        scalars,
        messages,
        broadcast_messages,
        resolve_messages,
        sync_messages,
        in_place_fetches,
        constant_fetches,
        hops: net.hops,
        max_link_load: net.max_link_load(),
        wait_edges,
        frames,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_ir::index::iv;
    use sa_ir::{interpret, InitPattern, ProgramBuilder, ProgramResult};

    fn check_against_reference(program: &Program, cfg: &RuntimeConfig) {
        let golden = interpret(program).expect("reference runs");
        let rep = execute(program, cfg).expect("runtime runs");
        let got = ProgramResult {
            arrays: rep.arrays(),
            scalars: rep.scalars,
            writes: 0,
            reads: 0,
        };
        golden
            .assert_matches(&got, 1e-9)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    fn map_program(n: usize) -> Program {
        let mut b = ProgramBuilder::new("map");
        let y = b.input("Y", &[n], InitPattern::Wavy);
        let x = b.output("X", &[n]);
        b.nest("m", &[("k", 0, n as i64 - 1)], |nb| {
            nb.assign(x, [iv(0)], nb.read(y, [iv(0)]) * 2.0 + 1.0);
        });
        b.finish()
    }

    #[test]
    fn matched_map_runs_on_many_thread_counts() {
        let p = map_program(300);
        for n in [1usize, 2, 4, 7] {
            check_against_reference(&p, &RuntimeConfig::paper(n, 32));
        }
    }

    #[test]
    fn cross_pe_recurrence_pipelines_via_deferred_reads() {
        // X(i) = Z(i)*(Y(i) - X(i-1)) — K5's chain: PE k+1 blocks on the
        // last element of PE k's page until it is produced.
        let n = 257;
        let mut b = ProgramBuilder::new("chain");
        let y = b.input("Y", &[n], InitPattern::Wavy);
        let z = b.input("Z", &[n], InitPattern::Harmonic);
        let x = b.array_with(
            "X",
            &[n],
            sa_ir::program::ArrayInit::Prefix {
                pattern: InitPattern::Const(0.3),
                len: 1,
            },
        );
        b.nest("chain", &[("i", 1, n as i64 - 1)], |nb| {
            nb.assign(
                x,
                [iv(0)],
                nb.read(z, [iv(0)]) * (nb.read(y, [iv(0)]) - nb.read(x, [iv(0).plus(-1)])),
            );
        });
        let p = b.finish();
        for n_pes in [1usize, 3, 8] {
            check_against_reference(&p, &RuntimeConfig::paper(n_pes, 32));
        }
        // The pipelining is visible in the wait trace: with several PEs,
        // page-boundary reads of X really defer, and each observed wait is
        // covered by the static dependence graph (X's self-edge).
        let rep = execute(&p, &RuntimeConfig::paper(8, 32)).unwrap();
        assert!(!rep.wait_edges.is_empty(), "the chain must realize waits");
        let g = sa_lint::DepGraph::build(&p);
        for w in &rep.wait_edges {
            assert_eq!((w.array, w.generation), (x.0, 0));
            assert!(g.covers_wait(w.phase, w.stmt, x, w.generation as usize));
        }
    }

    #[test]
    fn reduction_collects_at_host_and_broadcasts() {
        let n = 200;
        let mut b = ProgramBuilder::new("dotchain");
        let y = b.input(
            "Y",
            &[n],
            InitPattern::Linear {
                base: 1.0,
                step: 0.0,
            },
        );
        let x = b.output("X", &[n]);
        let s = b.scalar("s");
        b.nest("sum", &[("k", 0, n as i64 - 1)], |nb| {
            nb.reduce(s, sa_ir::ReduceOp::Sum, nb.read(y, [iv(0)]));
        });
        // Consumers on every PE read the broadcast scalar.
        b.nest("use", &[("k", 0, n as i64 - 1)], |nb| {
            nb.assign(x, [iv(0)], nb.scalar_value(s) + nb.read(y, [iv(0)]));
        });
        let p = b.finish();
        for n_pes in [1usize, 4, 6] {
            let rep = execute(&p, &RuntimeConfig::paper(n_pes, 32)).unwrap();
            assert_eq!(rep.scalars[0], 200.0);
            check_against_reference(&p, &RuntimeConfig::paper(n_pes, 32));
        }
    }

    #[test]
    fn reinit_protocol_runs_between_generations() {
        let n = 128;
        let mut b = ProgramBuilder::new("gen");
        let y = b.input("Y", &[n], InitPattern::Wavy);
        let x = b.output("X", &[n]);
        b.nest("g0", &[("k", 0, n as i64 - 1)], |nb| {
            nb.assign(x, [iv(0)], nb.read(y, [iv(0)]));
        });
        b.reinit(x);
        b.nest("g1", &[("k", 0, n as i64 - 1)], |nb| {
            nb.assign(x, [iv(0)], nb.read(y, [iv(0)]) * 5.0);
        });
        let p = b.finish();
        let cfg = RuntimeConfig::paper(4, 16);
        let rep = execute(&p, &cfg).unwrap();
        // §5 message count: (N-1) requests + (N-1) releases; the ack/go
        // hardening round is tallied separately, outside the modeled count.
        assert_eq!(rep.stats.reinit_messages, 6);
        assert_eq!(rep.sync_messages, 6);
        check_against_reference(&p, &cfg);
    }

    #[test]
    fn released_pes_cannot_race_still_syncing_peers() {
        // Post-barrier work that *immediately* remote-reads next-generation
        // cells other PEs produce: X is re-initialized, then the very next
        // nest both rewrites X and cross-reads it reversed (X(n-1-k) is
        // modulo-remote for every k when n ≡ 0 mod 4). A one-round release
        // would let a fast PE's fetch land on a peer still blocked inside
        // the barrier, which would misread it as a deadlocked pre-barrier
        // reader and abort a valid run (or, in debug builds, trip the
        // generation assert). Stress the window across repeated runs —
        // each iteration re-races the release broadcast against the first
        // post-barrier fetches.
        let n = 64usize;
        let rev = sa_ir::index::AffineIndex::scaled_var(-1, 0).plus(n as i64 - 1);
        let mut b = ProgramBuilder::new("race");
        let y = b.input("Y", &[n], InitPattern::Wavy);
        let x = b.output("X", &[n]);
        let w = b.output("W", &[n]);
        b.nest("g0", &[("k", 0, n as i64 - 1)], |nb| {
            nb.assign(x, [iv(0)], nb.read(y, [iv(0)]));
        });
        b.reinit(x);
        b.nest("g1", &[("k", 0, n as i64 - 1)], |nb| {
            nb.assign(x, [iv(0)], nb.read(y, [iv(0)]) * 5.0);
        });
        b.nest("g2", &[("k", 0, n as i64 - 1)], |nb| {
            nb.assign(w, [iv(0)], nb.read(x, [rev.clone()]) + nb.read(y, [iv(0)]));
        });
        let p = b.finish();
        for _ in 0..100 {
            check_against_reference(&p, &RuntimeConfig::paper(4, 4));
        }
    }

    #[test]
    fn stats_are_plausible_and_conserved() {
        let p = map_program(1024);
        let rep = execute(&p, &RuntimeConfig::paper(4, 32)).unwrap();
        let s = &rep.stats;
        assert_eq!(s.writes(), 1024);
        assert_eq!(s.total_reads(), 1024);
        // Matched loop: all local.
        assert_eq!(s.remote_reads(), 0);
        assert_eq!(rep.messages, 0);
    }

    #[test]
    fn skewed_loop_message_count_matches_fetches() {
        let n = 512;
        let mut b = ProgramBuilder::new("skew");
        let y = b.input("Y", &[n + 16], InitPattern::Wavy);
        let x = b.output("X", &[n]);
        b.nest("s", &[("k", 0, n as i64 - 1)], |nb| {
            nb.assign(x, [iv(0)], nb.read(y, [iv(0).plus(11)]));
        });
        let p = b.finish();
        let rep = execute(&p, &RuntimeConfig::paper(4, 32)).unwrap();
        assert!(rep.stats.remote_reads() > 0);
        assert_eq!(rep.stats.page_fetches, rep.stats.remote_reads());
        // request + reply per fetch (read-only inputs: replies immediate).
        assert_eq!(rep.messages, 2 * rep.stats.page_fetches);
        // With the cache, boundary crossings collapse to ~1 fetch per page.
        assert!(rep.stats.remote_reads() <= (n as u64 / 32) * 2);
    }

    #[test]
    fn scatter_through_a_permutation_matches_reference() {
        // X(P(k)) = 3*Y(k): the indirect statement anchor — every worker
        // resolves P(k) from the static mirror, the owner of the *resolved*
        // address executes.
        let n = 200;
        let mut b = ProgramBuilder::new("scatter");
        let y = b.input("Y", &[n], InitPattern::Wavy);
        let p = b.input("P", &[n], InitPattern::Permutation { seed: 9 });
        let x = b.output("X", &[n]);
        b.nest("s", &[("k", 0, n as i64 - 1)], |nb| {
            nb.assign_indirect(x, p, iv(0), nb.read(y, [iv(0)]) * 3.0);
        });
        let prog = b.finish();
        for n_pes in [1usize, 2, 5, 8] {
            check_against_reference(&prog, &RuntimeConfig::paper(n_pes, 16));
        }
    }

    #[test]
    fn prefix_initialized_index_array_is_tabulated() {
        // P's static image is only a prefix, but every lookup lands inside
        // it: its cells are compile-time constants, so the schedule
        // tabulates the anchor's owners and no PE resolves over messages.
        let n = 96usize;
        let mut b = ProgramBuilder::new("prefix-scatter");
        let y = b.input("Y", &[n], InitPattern::Wavy);
        let p = b.array_with(
            "P",
            &[n + 8],
            sa_ir::program::ArrayInit::Prefix {
                pattern: InitPattern::Permutation { seed: 5 },
                len: n,
            },
        );
        let x = b.output("X", &[n]);
        b.nest("s", &[("k", 0, n as i64 - 1)], |nb| {
            nb.assign_indirect(x, p, iv(0), nb.read(y, [iv(0)]) * 2.0);
        });
        let prog = b.finish();
        assert_eq!(unsupported_reason(&prog), None);
        for n_pes in [1usize, 3, 4] {
            let rep = execute(&prog, &RuntimeConfig::paper(n_pes, 16)).unwrap();
            assert_eq!(rep.resolve_messages, 0, "a defined prefix is tabulated");
            check_against_reference(&prog, &RuntimeConfig::paper(n_pes, 16));
        }
    }

    #[test]
    fn dynamic_index_array_from_an_earlier_nest_resolves_over_messages() {
        // P is *produced* (identity-reversal written by nest g0), then used
        // as the scatter anchor in g1: resolution goes through
        // IndirectFetch traffic instead of the static mirror.
        let n = 96;
        let mut b = ProgramBuilder::new("dyn-scatter");
        let y = b.input("Y", &[n], InitPattern::Wavy);
        let p = b.output("P", &[n]);
        let x = b.output("X", &[n]);
        b.nest("g0", &[("k", 0, n as i64 - 1)], |nb| {
            // P(k) = (n-1) - k, a permutation computed at run time.
            nb.assign(
                p,
                [iv(0)],
                sa_ir::Expr::Const(n as f64 - 1.0) - sa_ir::Expr::LoopVar(0),
            );
        });
        b.nest("g1", &[("k", 0, n as i64 - 1)], |nb| {
            nb.assign_indirect(x, p, iv(0), nb.read(y, [iv(0)]) + 1.0);
        });
        let prog = b.finish();
        for n_pes in [1usize, 3, 4] {
            let rep = execute(&prog, &RuntimeConfig::paper(n_pes, 16)).unwrap();
            check_against_reference(&prog, &RuntimeConfig::paper(n_pes, 16));
            if n_pes > 1 {
                assert!(
                    rep.resolve_messages > 0,
                    "dynamic anchors must resolve over the wire"
                );
                // Resolution traffic is excluded from the modeled count.
                assert_eq!(rep.modeled_messages() + rep.resolve_messages, rep.messages);
            } else {
                assert_eq!(rep.resolve_messages, 0, "1 PE owns everything");
            }
        }
    }

    #[test]
    fn static_anchor_resolution_is_message_free() {
        let n = 128;
        let mut b = ProgramBuilder::new("scatter");
        let y = b.input("Y", &[n], InitPattern::Wavy);
        let p = b.input("P", &[n], InitPattern::Permutation { seed: 4 });
        let x = b.output("X", &[n]);
        b.nest("s", &[("k", 0, n as i64 - 1)], |nb| {
            nb.assign_indirect(x, p, iv(0), nb.read(y, [iv(0)]));
        });
        let prog = b.finish();
        let rep = execute(&prog, &RuntimeConfig::paper(4, 16)).unwrap();
        assert_eq!(
            rep.resolve_messages, 0,
            "statically initialized index arrays resolve from the mirror"
        );
    }

    #[test]
    fn partially_defined_index_array_errors_instead_of_hanging() {
        // P passes the per-array pre-flight (an earlier nest *does* write
        // it) but covers only half its cells, so anchor resolution hits an
        // undefined cell at run time. The abort protocol must tear the run
        // down into a typed error — no panic-and-deadlock.
        let n = 64usize;
        let mut b = ProgramBuilder::new("partial-idx");
        let y = b.input("Y", &[n], InitPattern::Wavy);
        let p = b.output("P", &[n]);
        let x = b.output("X", &[n]);
        b.nest("half", &[("k", 0, n as i64 / 2 - 1)], |nb| {
            nb.assign(p, [iv(0)], sa_ir::Expr::LoopVar(0));
        });
        b.nest("gather", &[("k", 0, n as i64 - 1)], |nb| {
            nb.assign_indirect(x, p, iv(0), nb.read(y, [iv(0)]));
        });
        let prog = b.finish();
        assert_eq!(unsupported_reason(&prog), None, "per-array check passes");
        for n_pes in [1usize, 2, 4] {
            let err =
                execute(&prog, &RuntimeConfig::paper(n_pes, 16)).expect_err("must fail, not hang");
            let msg = err.to_string();
            assert!(
                matches!(err, RuntimeError::WorkerPanicked(_)),
                "typed failure, got: {msg}"
            );
            assert!(
                msg.contains("never defines") || msg.contains("undefined"),
                "{msg}"
            );
        }
    }

    #[test]
    fn undefined_remote_read_errors_instead_of_hanging() {
        // PE 1 owns A's second page but has no work at all: it finishes
        // immediately, then PE 0's reads of the never-written page arrive.
        // A finished owner must abort such requests (it is the cell's only
        // possible producer) instead of deferring them forever.
        let mut b = ProgramBuilder::new("undef-read");
        let a = b.output("A", &[32]);
        let x = b.output("B", &[16]);
        b.nest("g0", &[("k", 0, 15)], |nb| {
            nb.assign(a, [iv(0)], sa_ir::Expr::LoopVar(0));
        });
        b.nest("g1", &[("k", 0, 15)], |nb| {
            nb.assign(x, [iv(0)], nb.read(a, [iv(0).plus(16)]));
        });
        let prog = b.finish();
        for n_pes in [1usize, 2] {
            let err =
                execute(&prog, &RuntimeConfig::paper(n_pes, 16)).expect_err("must fail, not hang");
            let msg = err.to_string();
            assert!(matches!(err, RuntimeError::WorkerPanicked(_)), "{msg}");
            assert!(
                msg.contains("never defines") || msg.contains("undefined"),
                "{msg}"
            );
        }
    }

    #[test]
    fn undefined_read_before_a_reinit_barrier_errors_instead_of_hanging() {
        // PE 0 blocks reading A's never-written second page; the program
        // then re-initializes A. The owner reaches the §5 barrier — which
        // can never release, because the blocked reader will never request
        // re-initialization — and must abort the run instead.
        let mut b = ProgramBuilder::new("undef-then-reinit");
        let a = b.output("A", &[32]);
        let x = b.output("B", &[16]);
        b.nest("g0", &[("k", 0, 15)], |nb| {
            nb.assign(a, [iv(0)], sa_ir::Expr::LoopVar(0));
        });
        b.nest("g1", &[("k", 0, 15)], |nb| {
            nb.assign(x, [iv(0)], nb.read(a, [iv(0).plus(16)]));
        });
        b.reinit(a);
        b.nest("g2", &[("k", 0, 15)], |nb| {
            nb.assign(a, [iv(0)], sa_ir::Expr::LoopVar(0) * 2.0);
        });
        let prog = b.finish();
        for n_pes in [1usize, 2] {
            let err =
                execute(&prog, &RuntimeConfig::paper(n_pes, 16)).expect_err("must fail, not hang");
            let msg = err.to_string();
            assert!(matches!(err, RuntimeError::WorkerPanicked(_)), "{msg}");
            assert!(
                msg.contains("never defines") || msg.contains("undefined"),
                "{msg}"
            );
        }
    }

    #[test]
    fn cyclic_exchange_is_a_typed_deadlock_not_a_hang() {
        // W(k) = X(1-k), then X(k) = W(1-k), on 2 PEs with 1-element pages
        // (`sa-lint`'s `cyclic_exchange_mutant`, SA008): each PE defers on
        // the other in the first nest. Neither is finished nor syncing, so
        // no dangling-read rule fires; the pool sees that nothing can move.
        let mut b = ProgramBuilder::new("mutant");
        let w = b.output("W", &[2]);
        let x = b.output("X", &[2]);
        b.nest("xch1", &[("k", 0, 1)], |nb| {
            nb.assign(w, [iv(0)], nb.read(x, [iv(0).scale(-1).plus(1)]));
        });
        b.nest("xch2", &[("k", 0, 1)], |nb| {
            nb.assign(x, [iv(0)], nb.read(w, [iv(0).scale(-1).plus(1)]));
        });
        let prog = b.finish();
        let cfg = RuntimeConfig {
            cache_elems: 0,
            ..RuntimeConfig::paper(2, 1)
        };
        for workers in [1usize, 2] {
            let err = execute_on(&prog, &cfg, workers).expect_err("must fail, not hang");
            let msg = err.to_string();
            assert!(matches!(err, RuntimeError::Deadlocked(_)), "{msg}");
            for needle in [
                "`xch1`/s0 on PE0",
                "`X`[1] from PE1",
                "`X`[0] from PE0",
                "`W`",
            ] {
                assert!(msg.contains(needle), "no {needle:?} in: {msg}");
            }
            assert!(msg.contains("SA008") && msg.contains("sapp lint"), "{msg}");
        }
    }

    #[test]
    fn reduction_anchored_through_a_produced_index_array_screens_at_run_time() {
        // s = Σ D(P(k)) with P produced by an earlier nest: the reduction's
        // anchor resolves over IndirectFetch, so no PE can know the
        // participant set up front — each learns it while it screens. The
        // partial-collection traffic must still be the simulator's.
        let n = 96usize;
        let mut b = ProgramBuilder::new("dyn-reduce");
        let d = b.input("D", &[n], InitPattern::Wavy);
        let p = b.output("P", &[n]);
        let s = b.scalar("s");
        b.nest("g0", &[("k", 0, n as i64 - 1)], |nb| {
            nb.assign(
                p,
                [iv(0)],
                sa_ir::Expr::Const(n as f64 - 1.0) - sa_ir::Expr::LoopVar(0),
            );
        });
        b.nest("g1", &[("k", 0, n as i64 / 4)], |nb| {
            nb.reduce(s, sa_ir::ReduceOp::Sum, nb.read_indirect(d, p, iv(0)));
        });
        let prog = b.finish();
        for n_pes in [1usize, 3, 8] {
            let cfg = RuntimeConfig::paper(n_pes, 8);
            let sim = sa_core::simulate(&prog, &cfg.to_machine()).expect("sim");
            for workers in [1, n_pes] {
                let rep = execute_on(&prog, &cfg, workers).unwrap();
                assert_eq!(rep.stats.reduction_messages, sim.stats.reduction_messages);
                assert_eq!(rep.stats.writes(), sim.stats.writes());
                assert_eq!(rep.stats.total_reads(), sim.stats.total_reads());
                assert!((rep.scalars[0] - sim.scalars[0]).abs() < 1e-9);
            }
            check_against_reference(&prog, &cfg);
        }
    }

    #[test]
    fn two_reductions_into_one_scalar_share_one_partial() {
        let n = 64usize;
        let mut b = ProgramBuilder::new("twice");
        let y = b.input("Y", &[n], InitPattern::Wavy);
        let z = b.input("Z", &[n + 9], InitPattern::Harmonic);
        let s = b.scalar("s");
        b.nest("sum", &[("k", 0, n as i64 - 1)], |nb| {
            nb.reduce(s, sa_ir::ReduceOp::Sum, nb.read(y, [iv(0)]));
            nb.reduce(s, sa_ir::ReduceOp::Sum, nb.read(z, [iv(0).plus(9)]));
        });
        let prog = b.finish();
        for n_pes in [1usize, 2, 5] {
            check_against_reference(&prog, &RuntimeConfig::paper(n_pes, 8));
        }
    }

    #[test]
    fn an_anchor_that_leaves_its_array_is_a_typed_error_before_any_pe_runs() {
        // X(k+8) over k = 0..15 on a 16-element X: every PE would screen
        // the same out-of-bounds instance.
        let mut b = ProgramBuilder::new("oob-anchor");
        let y = b.input("Y", &[16], InitPattern::Wavy);
        let x = b.output("X", &[16]);
        b.nest("bad", &[("k", 0, 15)], |nb| {
            nb.assign(x, [iv(0).plus(8)], nb.read(y, [iv(0)]));
        });
        let prog = b.finish();
        let want = sa_ir::interpret(&prog).unwrap_err().to_string();
        for n_pes in [1usize, 4] {
            let err = execute(&prog, &RuntimeConfig::paper(n_pes, 4)).unwrap_err();
            let msg = err.to_string();
            assert!(matches!(err, RuntimeError::WorkerPanicked(_)), "{msg}");
            assert!(msg.contains("anchor resolution failed"), "{msg}");
            assert!(msg.contains(&want), "{msg} does not carry {want}");
        }
        // A statically gathered anchor that leaves its array, likewise.
        let mut b = ProgramBuilder::new("oob-scatter");
        let y = b.input("Y", &[16], InitPattern::Wavy);
        let p = b.input("P", &[16], InitPattern::Permutation { seed: 3 });
        let x = b.output("X", &[8]);
        b.nest("bad", &[("k", 0, 15)], |nb| {
            nb.assign_indirect(x, p, iv(0), nb.read(y, [iv(0)]));
        });
        let err = execute(&b.finish(), &RuntimeConfig::paper(4, 4)).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, RuntimeError::WorkerPanicked(_)), "{msg}");
        assert!(msg.contains("anchor resolution failed"), "{msg}");
    }

    #[test]
    fn same_nest_index_production_is_a_typed_unsupported_error() {
        // The genuinely dynamic case: the nest both writes P and anchors
        // through it. Rejected before any thread spawns.
        let n = 32;
        let mut b = ProgramBuilder::new("self-ref");
        let y = b.input("Y", &[n], InitPattern::Wavy);
        let p = b.output("P", &[n]);
        let x = b.output("X", &[n]);
        b.nest("bad", &[("k", 0, n as i64 - 1)], |nb| {
            nb.assign(p, [iv(0)], sa_ir::Expr::LoopVar(0));
            nb.assign_indirect(x, p, iv(0), nb.read(y, [iv(0)]));
        });
        let prog = b.finish();
        assert!(unsupported_reason(&prog).is_some());
        assert!(matches!(
            execute(&prog, &RuntimeConfig::paper(2, 16)),
            Err(RuntimeError::Unsupported(_))
        ));
    }

    #[test]
    fn never_defined_index_array_is_a_typed_unsupported_error() {
        let n = 32;
        let mut b = ProgramBuilder::new("undef-idx");
        let y = b.input("Y", &[n], InitPattern::Wavy);
        let p = b.output("P", &[n]); // declared, never written
        let x = b.output("X", &[n]);
        b.nest("bad", &[("k", 0, n as i64 - 1)], |nb| {
            nb.assign_indirect(x, p, iv(0), nb.read(y, [iv(0)]));
        });
        let prog = b.finish();
        let reason = unsupported_reason(&prog).expect("must be rejected");
        assert!(reason.contains("P"), "reason names the array: {reason}");
        assert!(matches!(
            execute(&prog, &RuntimeConfig::paper(2, 16)),
            Err(RuntimeError::Unsupported(_))
        ));
    }

    #[test]
    fn affine_programs_pass_the_preflight() {
        assert_eq!(unsupported_reason(&map_program(64)), None);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let p = map_program(8);
        assert!(matches!(
            execute(
                &p,
                &RuntimeConfig {
                    n_pes: 0,
                    ..RuntimeConfig::paper(1, 32)
                }
            ),
            Err(RuntimeError::InvalidConfig(_))
        ));
        assert!(matches!(
            execute(
                &p,
                &RuntimeConfig {
                    page_size: 0,
                    ..RuntimeConfig::paper(1, 32)
                }
            ),
            Err(RuntimeError::InvalidConfig(_))
        ));
        // The runtime shares the simulator's validation: a zero-sized
        // block-cyclic chunk is rejected up front, not clamped mid-run.
        assert!(matches!(
            execute(
                &p,
                &RuntimeConfig {
                    partition: PartitionScheme::BlockCyclic { block_pages: 0 },
                    ..RuntimeConfig::paper(2, 32)
                }
            ),
            Err(RuntimeError::InvalidConfig(_))
        ));
    }
}
