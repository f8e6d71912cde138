//! The per-PE worker thread: index screening, message serving, deferral.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crossbeam::channel::{Receiver, Sender};

use sa_core::screening::PartitionMap;
use sa_ir::interp::{EvalCtx, Memory};
use sa_ir::nest::{LoopNest, Stmt};
use sa_ir::program::{ArrayInit, Phase};
use sa_ir::{analysis, ArrayId, IrError, Program, ReduceOp};
use sa_machine::{host_of, Network, NetworkTopology, PageKey, PeCounters};
use sa_mem::TaggedPage;

use crate::net::Msg;
use crate::pagecache::ValueCache;

/// Access/message statistics gathered by one worker.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// The four access categories, as in the simulator.
    pub counters: PeCounters,
    /// Page fetch requests issued.
    pub page_fetches: u64,
    /// Fetches that re-requested a partially filled cached page.
    pub partial_refetches: u64,
    /// Total messages this worker sent.
    pub messages_sent: u64,
    /// Messages spent in re-initialization rounds.
    pub reinit_messages: u64,
    /// Messages carrying reduction partials to their host PE (the traffic
    /// the simulator's §9 model charges).
    pub reduction_messages: u64,
    /// Scalar-result broadcast messages (the runtime implements the
    /// simulator's "implicit availability broadcast" with real messages;
    /// kept separate so the two message models stay comparable).
    pub broadcast_messages: u64,
    /// Anchor-resolution messages ([`Msg::IndirectFetch`] requests and
    /// their replies). The simulator resolves indirect anchors with an
    /// uncounted peek, so these too are tallied outside the §4 fetch model.
    pub resolve_messages: u64,
    /// Barrier-hardening messages ([`Msg::ReinitAck`]/[`Msg::ReinitGo`]):
    /// the second re-initialization round that keeps released PEs from
    /// racing ahead of still-syncing peers. The paper's §5 model charges
    /// only the request/release rounds, so these stay outside the modeled
    /// count.
    pub sync_messages: u64,
}

/// One locally owned page frame: contents plus presence bits.
pub type Frame = TaggedPage;

/// One *realized* read-after-write wait: this PE's read (at the statement
/// site it was executing or screening) could not be answered immediately —
/// the owner queued it until the cell's producer wrote the value. These
/// are exactly the waits `sa-lint`'s static dependence graph must cover
/// (`DepGraph::covers_wait`), and the runtime asserts that in debug builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WaitObs {
    /// Phase index of the statement whose evaluation blocked.
    pub phase: usize,
    /// Statement index within the phase's nest body.
    pub stmt: usize,
    /// Array whose cell the read waited on.
    pub array: usize,
    /// Flat element address of the waited-on cell.
    pub addr: usize,
    /// The array's generation at wait time.
    pub generation: u32,
}

/// Everything a worker returns when it exits.
pub struct WorkerResult {
    /// Statistics.
    pub stats: WorkerStats,
    /// This worker's share of the modeled-traffic network accounting
    /// (remote fetches it issued, partials and §5 rounds it sent), priced
    /// by the configured topology. The engine merges all shares into the
    /// run's hop and link-load totals.
    pub net: Network,
    /// Owned frames: `(array, page) → Frame`.
    pub frames: HashMap<(usize, usize), Frame>,
    /// Final scalar values (identical on every worker).
    pub scalars: Vec<f64>,
    /// Every deferred reply this worker received, i.e. its realized
    /// read-after-write waits, in arrival order.
    pub wait_edges: Vec<WaitObs>,
}

/// A queued remote reader of a not-yet-defined cell (paper §4).
#[derive(Debug, Clone, Copy)]
struct Waiter {
    pe: usize,
    generation: u32,
    /// Whether the reader asked via [`Msg::IndirectFetch`] (anchor
    /// resolution) rather than a counted page request.
    indirect: bool,
}

/// Mutable machine-side state of a worker (split from the evaluation
/// context so expression evaluation can borrow both disjointly).
struct WorkerMem {
    me: usize,
    page_size: usize,
    map: PartitionMap,
    inbox: Receiver<Msg>,
    peers: Vec<Sender<Msg>>,
    frames: HashMap<(usize, usize), Frame>,
    gens: Vec<u32>,
    cache: ValueCache,
    cache_enabled: bool,
    cell_waiters: HashMap<(usize, usize), Vec<Waiter>>, // addr → waiters
    partials_inbox: HashMap<(usize, u64), Vec<f64>>,
    scalar_ready: HashMap<(usize, u64), f64>,
    reinit_requests: HashMap<usize, usize>,
    reinit_released: HashMap<usize, u32>,
    reinit_acks: HashMap<usize, usize>,
    reinit_go: HashSet<usize>,
    /// Generation-0 full images of statically initialized index arrays
    /// (shared read-only across all workers of a run): anchor resolution
    /// against them is message-free, mirroring the simulator's uncounted
    /// peek.
    mirrors: Arc<HashMap<usize, Vec<f64>>>,
    /// Resolution snapshots fetched via [`Msg::IndirectFetch`], keyed like
    /// the page cache but unbounded and uncounted: ownership screening
    /// must not perturb the measured access statistics.
    resolutions: HashMap<PageKey, TaggedPage>,
    /// True once this worker has executed every phase of the program and
    /// only serves peers: a fetch of a still-undefined owned cell can then
    /// never be satisfied (this worker was its only producer) and aborts
    /// the run instead of deadlocking it.
    finished: bool,
    /// Array names, indexed by array id — only for diagnostics, so abort
    /// messages name the array the way `sapp lint` spans do.
    names: Vec<String>,
    /// True while this worker sits inside the §5 re-initialization
    /// barrier, *before* its release is applied (the host stays syncing
    /// until it has broadcast [`Msg::ReinitGo`]). A release is only
    /// possible once every PE has reached the barrier, so while syncing a
    /// fetch of an undefined owned cell belongs to a peer that is blocked
    /// *before* the barrier and will never arrive — same dead end as
    /// [`WorkerMem::finished`]. After the release, deferral is safe again
    /// and the go round keeps this worker serving until every peer is
    /// past its own release.
    syncing: bool,
    shutdown: bool,
    stats: WorkerStats,
    /// Topology-priced accounting of this worker's modeled sends — only
    /// the traffic the counting simulator's message model charges (page
    /// fetches, reduction partials, §5 request/release), never broadcasts,
    /// anchor resolution, or barrier-hardening rounds.
    net: Network,
    /// Statement site currently being executed or screened — the reader
    /// coordinates stamped onto [`WaitObs`] records when a fetch issued
    /// from here comes back deferred.
    cur_phase: usize,
    cur_stmt: usize,
    /// Realized read-after-write waits observed by this worker.
    wait_edges: Vec<WaitObs>,
}

impl WorkerMem {
    fn send(&mut self, to: usize, msg: Msg) {
        self.stats.messages_sent += 1;
        if self.peers[to].send(msg).is_err() {
            // The peer's inbox is gone, so it is unwinding — and its
            // `fail` broadcast (sent *before* it dropped the inbox) must
            // already be queued here. Relay that root cause instead of
            // masking it with a generic send failure.
            while let Ok(m) = self.inbox.try_recv() {
                if let Msg::Abort { from, reason } = m {
                    panic!("worker {}: aborted by worker {from}: {reason}", self.me);
                }
            }
            panic!("worker {}: peer {to} exited prematurely", self.me);
        }
    }

    /// Unrecoverable failure: broadcast [`Msg::Abort`] so every peer —
    /// including ones blocked waiting for a reply this worker will never
    /// send — unwinds too, then panic with the reason. The engine joins
    /// the panicked threads and surfaces the message as a typed
    /// `RuntimeError::WorkerPanicked`; without the broadcast, a lone
    /// panicking worker would deadlock the whole run.
    fn fail(&self, reason: String) -> ! {
        for (pe, tx) in self.peers.iter().enumerate() {
            if pe != self.me {
                let _ = tx.send(Msg::Abort {
                    from: self.me,
                    reason: reason.clone(),
                });
            }
        }
        panic!("worker {}: {reason}", self.me);
    }

    /// Human-readable array reference for abort messages: `` `X` (array#2) ``.
    fn array_label(&self, array: usize) -> String {
        match self.names.get(array) {
            Some(n) => format!("`{n}` (array#{array})"),
            None => format!("array#{array}"),
        }
    }

    /// Reply to a page request from the local frame (must be resident).
    /// `indirect` routes the copy to the requester's resolution store;
    /// `deferred` tells the requester its read was queued behind the
    /// producer's write (a realized RAW wait) rather than served at once.
    fn reply_page(
        &mut self,
        array: usize,
        page: usize,
        generation: u32,
        to: usize,
        indirect: bool,
        deferred: bool,
    ) {
        let data = self
            .frames
            .get(&(array, page))
            .expect("owned frame exists")
            .clone();
        let msg = if indirect {
            self.stats.resolve_messages += 1;
            Msg::IndirectReply {
                array,
                page,
                generation,
                data,
                deferred,
            }
        } else {
            Msg::PageReply {
                array,
                page,
                generation,
                data,
                deferred,
            }
        };
        self.send(to, msg);
    }

    /// Serve one fetch-style request: reply if the cell is defined, defer
    /// otherwise (the paper's queued remote read, §4).
    fn serve_fetch(
        &mut self,
        array: usize,
        page: usize,
        generation: u32,
        offset: usize,
        from: usize,
        indirect: bool,
    ) {
        debug_assert_eq!(
            generation, self.gens[array],
            "request for a generation the owner has left"
        );
        let frame = self
            .frames
            .get(&(array, page))
            .expect("request for owned page");
        if frame.get(offset).is_some() {
            self.reply_page(array, page, generation, from, indirect, false);
        } else {
            let addr = page * self.page_size + offset;
            if self.finished || self.syncing {
                // This worker is the cell's only producer under
                // owner-computes, and it will never write again before the
                // requester unblocks: it has either run out of program, or
                // it sits inside the two-round re-initialization barrier —
                // which no PE has left yet (leaving requires every PE's
                // ack), so the requester is blocked *before* the barrier
                // and can never reach it. Tear the run down instead of
                // deferring forever.
                let label = self.array_label(array);
                self.fail(format!(
                    "PE {from} read {label}[{addr}], which this program never \
                     defines — a dangling I-structure deferral (sapp lint: SA004)"
                ));
            }
            self.cell_waiters
                .entry((array, addr))
                .or_default()
                .push(Waiter {
                    pe: from,
                    generation,
                    indirect,
                });
        }
    }

    /// Process one incoming message (anything except the reply the caller
    /// may be waiting for).
    fn handle(&mut self, msg: Msg) {
        match msg {
            Msg::PageRequest {
                array,
                page,
                generation,
                offset,
                from,
            } => self.serve_fetch(array, page, generation, offset, from, false),
            Msg::IndirectFetch {
                array,
                page,
                generation,
                offset,
                from,
            } => self.serve_fetch(array, page, generation, offset, from, true),
            Msg::Partial {
                scalar, seq, value, ..
            } => {
                self.partials_inbox
                    .entry((scalar, seq))
                    .or_default()
                    .push(value);
            }
            Msg::ScalarValue { scalar, seq, value } => {
                self.scalar_ready.insert((scalar, seq), value);
            }
            Msg::ReinitRequest { array, .. } => {
                *self.reinit_requests.entry(array).or_insert(0) += 1;
            }
            Msg::ReinitRelease { array, generation } => {
                self.reinit_released.insert(array, generation);
            }
            Msg::ReinitAck { array, .. } => {
                *self.reinit_acks.entry(array).or_insert(0) += 1;
            }
            Msg::ReinitGo { array } => {
                self.reinit_go.insert(array);
            }
            Msg::Shutdown => self.shutdown = true,
            Msg::Abort { from, reason } => {
                // A peer is unwinding; no reply this worker might be
                // blocked on will ever arrive. Unwind too (without
                // re-broadcasting — the originator already told everyone).
                panic!("worker {}: aborted by worker {from}: {reason}", self.me);
            }
            Msg::PageReply { .. } | Msg::IndirectReply { .. } => {
                unreachable!("unsolicited reply (one outstanding request at a time)")
            }
        }
    }

    /// Block until a condition over self becomes true, serving messages.
    fn serve_until(&mut self, mut done: impl FnMut(&Self) -> bool) {
        while !done(self) {
            let msg = self.inbox.recv().expect("inbox closed while waiting");
            self.handle(msg);
        }
    }

    /// Producer write into an owned frame; releases queued remote readers.
    fn local_write(&mut self, array: usize, addr: usize, value: f64) {
        let page = addr / self.page_size;
        let offset = addr - page * self.page_size;
        let frame = self
            .frames
            .get_mut(&(array, page))
            .expect("write to owned page");
        if frame.set(offset, value) {
            self.fail(format!(
                "single-assignment violation: array {array} addr {addr} written twice"
            ));
        }
        self.stats.counters.writes += 1;
        if let Some(waiters) = self.cell_waiters.remove(&(array, addr)) {
            for w in waiters {
                self.reply_page(array, page, w.generation, w.pe, w.indirect, true);
            }
        }
    }

    /// Fetch a remote page (blocking), returning the needed element.
    fn remote_fetch(&mut self, array: usize, addr: usize, owner: usize) -> f64 {
        let page = addr / self.page_size;
        let offset = addr - page * self.page_size;
        let generation = self.gens[array];
        let key = PageKey {
            array,
            page,
            generation,
        };
        self.stats.counters.remote_reads += 1;
        self.stats.page_fetches += 1;
        // Price the fetch (request + reply) exactly like the counting
        // simulator's `record_fetch` at its remote-read site.
        self.net.record_fetch(self.me, owner);
        self.send(
            owner,
            Msg::PageRequest {
                array,
                page,
                generation,
                offset,
                from: self.me,
            },
        );
        loop {
            let msg = self.inbox.recv().expect("inbox closed during fetch");
            match msg {
                Msg::PageReply {
                    array: a,
                    page: p,
                    generation: g,
                    data,
                    deferred,
                } => {
                    debug_assert_eq!((a, p, g), (array, page, generation));
                    let v = data
                        .get(offset)
                        .expect("owner replied before the cell was defined");
                    if deferred {
                        self.wait_edges.push(WaitObs {
                            phase: self.cur_phase,
                            stmt: self.cur_stmt,
                            array,
                            addr,
                            generation,
                        });
                    }
                    if self.cache_enabled {
                        self.cache.insert(key, data);
                    }
                    return v;
                }
                other => self.handle(other),
            }
        }
    }

    /// Non-counting read of an index array cell for anchor resolution.
    ///
    /// Resolution order: the local frame (the cell may be ours), the
    /// generation-0 static mirror, the resolution store, and finally an
    /// [`Msg::IndirectFetch`] round trip to the owner (who defers the reply
    /// until the cell's single assignment completes — the SSA sequencing
    /// that makes indirect anchors resolvable at all).
    fn resolve_load(&mut self, array: usize, addr: usize) -> Result<f64, IrError> {
        let page = addr / self.page_size;
        let offset = addr - page * self.page_size;
        if self.map.owner(ArrayId(array), addr) == self.me {
            return self
                .frames
                .get(&(array, page))
                .and_then(|f| f.get(offset))
                .ok_or(IrError::ReadUndefined {
                    array: format!("array#{array}"),
                    addr,
                });
        }
        if self.gens[array] == 0 {
            if let Some(mirror) = self.mirrors.get(&array) {
                return Ok(mirror[addr]);
            }
        }
        let key = PageKey {
            array,
            page,
            generation: self.gens[array],
        };
        if let Some(v) = self.resolutions.get(&key).and_then(|p| p.get(offset)) {
            return Ok(v);
        }
        Ok(self.resolve_fetch(key, offset))
    }

    /// Blocking [`Msg::IndirectFetch`] round trip for one resolution cell.
    fn resolve_fetch(&mut self, key: PageKey, offset: usize) -> f64 {
        self.stats.resolve_messages += 1;
        let owner = self
            .map
            .owner(ArrayId(key.array), key.page * self.page_size);
        self.send(
            owner,
            Msg::IndirectFetch {
                array: key.array,
                page: key.page,
                generation: key.generation,
                offset,
                from: self.me,
            },
        );
        loop {
            let msg = self.inbox.recv().expect("inbox closed during resolution");
            match msg {
                Msg::IndirectReply {
                    array,
                    page,
                    generation,
                    data,
                    deferred,
                } => {
                    debug_assert_eq!(
                        (array, page, generation),
                        (key.array, key.page, key.generation)
                    );
                    let v = data
                        .get(offset)
                        .expect("owner resolved before the cell was defined");
                    if deferred {
                        self.wait_edges.push(WaitObs {
                            phase: self.cur_phase,
                            stmt: self.cur_stmt,
                            array,
                            addr: page * self.page_size + offset,
                            generation,
                        });
                    }
                    self.resolutions
                        .entry(key)
                        .and_modify(|p| p.merge_from(&data))
                        .or_insert(data);
                    return v;
                }
                other => self.handle(other),
            }
        }
    }
}

impl Memory for WorkerMem {
    fn load(&mut self, array: ArrayId, addr: usize) -> Result<f64, IrError> {
        let a = array.0;
        let owner = self.map.owner(array, addr);
        let page = addr / self.page_size;
        let offset = addr - page * self.page_size;
        if owner == self.me {
            let frame = self.frames.get(&(a, page)).expect("owned frame exists");
            let v = frame.get(offset).ok_or(IrError::ReadUndefined {
                array: format!("array#{a}"),
                addr,
            })?;
            self.stats.counters.local_reads += 1;
            return Ok(v);
        }
        let key = PageKey {
            array: a,
            page,
            generation: self.gens[a],
        };
        if self.cache_enabled {
            if let Some(v) = self.cache.lookup(key, offset) {
                self.stats.counters.cached_reads += 1;
                return Ok(v);
            }
            if self.cache.has_page(&key) {
                // Resident but the cell was unfilled at fetch time: the §8
                // partial-page refetch.
                self.stats.partial_refetches += 1;
            }
        }
        Ok(self.remote_fetch(a, addr, owner))
    }
}

/// Adapter presenting [`WorkerMem`]'s non-counting resolution reads as a
/// [`Memory`], for [`PartitionMap::resolved_anchor_owner`].
struct Resolve<'a>(&'a mut WorkerMem);

impl Memory for Resolve<'_> {
    fn load(&mut self, array: ArrayId, addr: usize) -> Result<f64, IrError> {
        self.0.resolve_load(array.0, addr)
    }
}

/// The worker proper: evaluation context + machine state.
pub struct Worker<'p> {
    program: &'p Program,
    ctx: EvalCtx<'p>,
    mem: WorkerMem,
    /// Ownership map (same data as `mem.map`; a separate copy so statement
    /// screening can resolve through `mem` without aliasing it).
    map: PartitionMap,
    rr: usize,
    n_pes: usize,
}

/// Spawn-side constructor arguments.
pub struct WorkerSpec {
    /// This worker's PE index.
    pub me: usize,
    /// Total PEs.
    pub n_pes: usize,
    /// Page size in elements.
    pub page_size: usize,
    /// Cache capacity in pages (0 disables).
    pub cache_pages: usize,
    /// Interconnect topology pricing the modeled traffic.
    pub network: NetworkTopology,
    /// Receiving end of this PE's inbox.
    pub inbox: Receiver<Msg>,
    /// Senders to every PE's inbox (index = PE).
    pub peers: Vec<Sender<Msg>>,
    /// Static anchor-resolution mirrors, built once per run with
    /// [`static_mirrors`] and shared read-only by every worker.
    pub mirrors: Arc<HashMap<usize, Vec<f64>>>,
}

/// Full images of the statically initialized index arrays that feed
/// indirect statement anchors, keyed by array index. Materialized **once
/// per run** and shared across workers via `Arc`: anchor screening against
/// them needs no traffic at all (the simulator's uncounted peek,
/// replicated), and sharing avoids `n_pes` identical copies of each image.
pub fn static_mirrors(program: &Program) -> Arc<HashMap<usize, Vec<f64>>> {
    let mut mirrors = HashMap::new();
    for nest in program.nests() {
        for stmt in &nest.body {
            for base in analysis::anchor_index_arrays(stmt) {
                let decl = program.array(base);
                if let ArrayInit::Full(_) = decl.init {
                    mirrors
                        .entry(base.0)
                        .or_insert_with(|| decl.init.materialize(decl.len()));
                }
            }
        }
    }
    Arc::new(mirrors)
}

impl<'p> Worker<'p> {
    /// Build a worker with its owned frames initialized.
    pub fn new(program: &'p Program, map: PartitionMap, spec: WorkerSpec) -> Self {
        let mut frames = HashMap::new();
        for (a, decl) in program.arrays.iter().enumerate() {
            let len = decl.len();
            let init = decl.init.materialize(len);
            let pages = sa_machine::pages_in(len, spec.page_size);
            for page in 0..pages {
                if map.owner(ArrayId(a), page * spec.page_size) != spec.me {
                    continue;
                }
                let start = page * spec.page_size;
                let elems = (len - start).min(spec.page_size);
                let mut frame = Frame::undefined(elems);
                for off in 0..elems {
                    if start + off < init.len() {
                        frame.set(off, init[start + off]);
                    }
                }
                frames.insert((a, page), frame);
            }
        }
        let gens = vec![0u32; program.arrays.len()];
        Worker {
            program,
            ctx: EvalCtx::new(program),
            n_pes: spec.n_pes,
            rr: 0,
            map: map.clone(),
            mem: WorkerMem {
                me: spec.me,
                page_size: spec.page_size,
                map,
                inbox: spec.inbox,
                peers: spec.peers,
                frames,
                gens,
                cache: ValueCache::new(spec.cache_pages),
                cache_enabled: spec.cache_pages > 0,
                cell_waiters: HashMap::new(),
                partials_inbox: HashMap::new(),
                scalar_ready: HashMap::new(),
                reinit_requests: HashMap::new(),
                reinit_released: HashMap::new(),
                reinit_acks: HashMap::new(),
                reinit_go: HashSet::new(),
                mirrors: spec.mirrors,
                resolutions: HashMap::new(),
                names: program.arrays.iter().map(|d| d.name.clone()).collect(),
                finished: false,
                syncing: false,
                shutdown: false,
                stats: WorkerStats::default(),
                net: Network::new(spec.network, spec.n_pes),
                cur_phase: 0,
                cur_stmt: 0,
                wait_edges: Vec::new(),
            },
        }
    }

    /// Owner of a statement instance — the one screening routine both the
    /// execution loop and the reduction pre-pass call, so the two can never
    /// disagree on who runs what.
    ///
    /// Affine anchors resolve arithmetically; indirect anchors resolve
    /// their gathered subscript through the non-counting resolution store
    /// ([`WorkerMem::resolve_load`]); anchorless statements are dealt
    /// round-robin with `rr`, which every worker advances identically.
    fn stmt_owner(&mut self, stmt: &Stmt, ivs: &[i64], rr: &mut usize) -> usize {
        let resolved =
            self.map
                .resolved_anchor_owner(self.program, stmt, ivs, &mut Resolve(&mut self.mem));
        match resolved {
            Ok(Some(pe)) => pe,
            Ok(None) => {
                let pe = *rr % self.n_pes;
                *rr += 1;
                pe
            }
            // Data-dependent resolution failure (out-of-bounds subscript,
            // index cell the program never defines): tear the run down in
            // an orderly way — the engine reports it as a typed error.
            Err(e) => self.mem.fail(format!("anchor resolution failed: {e}")),
        }
    }

    fn run_nest(&mut self, seq: u64, nest: &'p LoopNest) {
        // Pre-pass: reduction metadata (ops + participant sets), computed
        // identically on every worker from the static screening. Uses a
        // scratch round-robin counter from the same snapshot the execution
        // loop starts at, and the same `stmt_owner` routine, so both passes
        // assign every instance to the same PE.
        let reduce_meta: Vec<(usize, ReduceOp)> = nest
            .body
            .iter()
            .filter_map(|s| match s {
                Stmt::Reduce { target, op, .. } => Some((target.0, *op)),
                _ => None,
            })
            .collect();
        let mut participants: HashMap<usize, Vec<bool>> = HashMap::new();
        if !reduce_meta.is_empty() {
            for &(sid, _) in &reduce_meta {
                participants.insert(sid, vec![false; self.n_pes]);
            }
            let mut rr = self.rr;
            nest.for_each_iteration(|ivs| {
                for (si, stmt) in nest.body.iter().enumerate() {
                    self.mem.cur_stmt = si;
                    let owner = self.stmt_owner(stmt, ivs, &mut rr);
                    if let Stmt::Reduce { target, .. } = stmt {
                        participants.get_mut(&target.0).expect("seeded")[owner] = true;
                    }
                }
            });
        }

        // Local partial accumulators.
        let mut partial: HashMap<usize, f64> = reduce_meta
            .iter()
            .map(|&(sid, op)| (sid, op.identity()))
            .collect();

        let me = self.mem.me;
        let mut rr = self.rr;
        nest.for_each_iteration(|ivs| {
            for (si, stmt) in nest.body.iter().enumerate() {
                self.mem.cur_stmt = si;
                let owner = self.stmt_owner(stmt, ivs, &mut rr);
                if owner != me {
                    continue;
                }
                match stmt {
                    Stmt::Assign { target, value } => {
                        let v = self
                            .ctx
                            .eval(value, ivs, &mut self.mem)
                            .unwrap_or_else(|e| self.mem.fail(e.to_string()));
                        let addr = self
                            .ctx
                            .resolve_addr(target, ivs, &mut self.mem)
                            .unwrap_or_else(|e| self.mem.fail(e.to_string()));
                        self.mem.local_write(target.array.0, addr, v);
                    }
                    Stmt::Reduce { target, op, value } => {
                        let v = self
                            .ctx
                            .eval(value, ivs, &mut self.mem)
                            .unwrap_or_else(|e| self.mem.fail(e.to_string()));
                        let acc = partial.get_mut(&target.0).expect("seeded");
                        *acc = op.combine(*acc, v);
                    }
                }
            }
        });
        self.rr = rr;

        // Vector→scalar collection at the host PE (§9), then broadcast.
        for &(sid, op) in &reduce_meta {
            let host = host_of(sid, self.n_pes);
            let parts = &participants[&sid];
            let remote_contributors = parts
                .iter()
                .enumerate()
                .filter(|&(pe, &p)| p && pe != host)
                .count();
            if me == host {
                let mut acc = if parts[me] {
                    partial[&sid]
                } else {
                    op.identity()
                };
                self.mem.serve_until(|m| {
                    m.partials_inbox.get(&(sid, seq)).map(Vec::len).unwrap_or(0)
                        >= remote_contributors
                });
                for v in self
                    .mem
                    .partials_inbox
                    .remove(&(sid, seq))
                    .unwrap_or_default()
                {
                    acc = op.combine(acc, v);
                }
                for pe in 0..self.n_pes {
                    if pe != host {
                        self.mem.stats.broadcast_messages += 1;
                        self.mem.send(
                            pe,
                            Msg::ScalarValue {
                                scalar: sid,
                                seq,
                                value: acc,
                            },
                        );
                    }
                }
                self.ctx.scalars[sid] = acc;
            } else {
                if parts[me] {
                    let value = partial[&sid];
                    self.mem.stats.reduction_messages += 1;
                    self.mem.net.record_message(me, host);
                    self.mem.send(
                        host,
                        Msg::Partial {
                            scalar: sid,
                            seq,
                            value,
                            from: me,
                        },
                    );
                }
                self.mem
                    .serve_until(|m| m.scalar_ready.contains_key(&(sid, seq)));
                let v = self.mem.scalar_ready[&(sid, seq)];
                self.ctx.scalars[sid] = v;
            }
        }
    }

    fn run_reinit(&mut self, a: usize) {
        let me = self.mem.me;
        let host = host_of(a, self.n_pes);
        // Entering the barrier: a reader already deferred on one of our
        // cells (any array) is blocked and can never send its own reinit
        // request, so the barrier would never release and we would never
        // write again — a guaranteed deadlock. Abort instead.
        if let Some((&(array, addr), _)) = self.mem.cell_waiters.iter().next() {
            let label = self.mem.array_label(array);
            self.mem.fail(format!(
                "re-initialization barrier reached with a deferred read of \
                 {label}[{addr}] pending, which this program never defines — \
                 a dangling I-structure deferral (sapp lint: SA004)"
            ));
        }
        self.mem.syncing = true;
        if me == host {
            *self.mem.reinit_requests.entry(a).or_insert(0) += 1; // own request
            let n = self.n_pes;
            self.mem
                .serve_until(|m| m.reinit_requests.get(&a).copied().unwrap_or(0) >= n);
            self.mem.reinit_requests.remove(&a);
            let new_gen = self.mem.gens[a] + 1;
            for pe in 0..self.n_pes {
                if pe != host {
                    self.mem.stats.reinit_messages += 1;
                    self.mem.net.record_message(me, pe);
                    self.mem.send(
                        pe,
                        Msg::ReinitRelease {
                            array: a,
                            generation: new_gen,
                        },
                    );
                }
            }
            self.apply_release(a, new_gen);
            // Second round: hold every PE at the barrier until all of them
            // have applied their release. Without it, a released PE could
            // enter the next nest and fetch from a peer still waiting on
            // its own release — and that peer would misread the legitimate
            // fetch as a deadlocked pre-barrier reader (or, for the
            // re-initialized array itself, serve a stale-generation frame).
            self.mem
                .serve_until(|m| m.reinit_acks.get(&a).copied().unwrap_or(0) >= n - 1);
            self.mem.reinit_acks.remove(&a);
            for pe in 0..self.n_pes {
                if pe != host {
                    self.mem.stats.sync_messages += 1;
                    self.mem.send(pe, Msg::ReinitGo { array: a });
                }
            }
            self.mem.syncing = false;
        } else {
            self.mem.stats.reinit_messages += 1;
            self.mem.net.record_message(me, host);
            self.mem
                .send(host, Msg::ReinitRequest { array: a, from: me });
            self.mem.serve_until(|m| m.reinit_released.contains_key(&a));
            let new_gen = self.mem.reinit_released.remove(&a).expect("just observed");
            self.apply_release(a, new_gen);
            // From here on, deferral is safe again: the release proves
            // every PE reached the barrier, so an undefined-cell fetch
            // arriving while we wait for the go can only come from a PE
            // the host already let through — it will be satisfied once we
            // run the next phase.
            self.mem.syncing = false;
            self.mem.stats.sync_messages += 1;
            self.mem.send(host, Msg::ReinitAck { array: a, from: me });
            self.mem.serve_until(|m| m.reinit_go.contains(&a));
            self.mem.reinit_go.remove(&a);
        }
    }

    fn apply_release(&mut self, a: usize, new_gen: u32) {
        // Unreachable via the entry check + the `syncing` guard in
        // serve_fetch, but kept as an orderly teardown rather than an
        // assert: a stale waiter here would deadlock its requester.
        if self.mem.cell_waiters.keys().any(|&(arr, _)| arr == a) {
            let label = self.mem.array_label(a);
            self.mem.fail(format!(
                "re-initialization of {label} with deferred readers pending"
            ));
        }
        self.mem.gens[a] = new_gen;
        for ((arr, _), frame) in self.mem.frames.iter_mut() {
            if *arr == a {
                frame.clear();
            }
        }
        self.mem.cache.invalidate_array(a);
        self.mem.resolutions.retain(|k, _| k.array != a);
    }

    /// Execute the whole program, then serve peers until shutdown.
    pub fn run(mut self, done: &Sender<usize>) -> WorkerResult {
        for (pi, phase) in self.program.phases.iter().enumerate() {
            self.mem.cur_phase = pi;
            match phase {
                Phase::Loop(nest) => self.run_nest(pi as u64, nest),
                Phase::Reinit(id) => self.run_reinit(id.0),
            }
        }
        // From here on this worker only serves; a reader still queued on
        // one of its cells (necessarily undefined, or it would have been
        // released) can never be satisfied — owner-computes makes this
        // worker the cell's only producer, and it has run out of program.
        self.mem.finished = true;
        if let Some((&(array, addr), _)) = self.mem.cell_waiters.iter().next() {
            let label = self.mem.array_label(array);
            self.mem.fail(format!(
                "deferred read of {label}[{addr}], which this program never \
                 defines — a dangling I-structure deferral (sapp lint: SA004)"
            ));
        }
        done.send(self.mem.me).expect("coordinator gone");
        self.mem.serve_until(|m| m.shutdown);
        WorkerResult {
            stats: self.mem.stats,
            net: self.mem.net,
            frames: self.mem.frames,
            scalars: self.ctx.scalars,
            wait_edges: self.mem.wait_edges,
        }
    }
}
