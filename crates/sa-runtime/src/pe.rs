//! One logical PE as a resumable task: owned schedule, message serving,
//! deferral.
//!
//! A PE never walks a nest by closure and never blocks its OS thread. Its
//! control state is a cursor `(sweep, window, trip, statement)` into the
//! run's shared schedule plus a small [`State`] for the waits
//! between nests; the worker thread that owns it ([`crate::pool`]) calls
//! [`Pe::run`] while it can move and [`Pe::handle`] whenever a message for
//! it arrives — serving a peer's fetch is a frame read or a deferral and
//! never needs the PE's own control flow.
//!
//! **Fetches served in place.** The owner's fetch service is one function
//! ([`PeMem::serve`]): a defined cell is answered, an undefined one queues
//! its reader (§4), or stops the run as a dangling deferral (SA004) once
//! the owner can never write it. A message from another worker reaches it
//! through [`Pe::handle`]; a counted load (not an anchor resolution) whose
//! owner is another PE of the running PE's own worker calls it directly
//! ([`Peers`], a split borrow of the worker's PEs). Under single assignment a defined cell cannot change
//! within its generation, so a defined cell completes the load inside the
//! evaluation, with no suspension. Request and reply are counted exactly
//! as if they had travelled.
//!
//! **Constant arrays are read in place.** An array no phase writes or
//! re-initializes, every cell initialized ([`Plan::constant`]), lives once,
//! in the run's image of it, and no PE holds a frame of it. Its owner reads
//! a cell as a local read; any other PE, on any worker, answers its own
//! fetch from the image — counted, priced, logged and cached exactly like
//! a fetch its owner had answered, without a message or a suspension.
//!
//! **Owned schedules.** Per sweep, the trips each statement executes *here*
//! come from the run's schedule ([`Schedule::load_sweep`], the compile-time
//! form of the paper's §3 index screening): the PE enumerates only what it
//! owns. Only a statement anchored through an index array an earlier nest
//! produced ([`Screen::Produced`]) still visits every trip and resolves the
//! owner over [`Msg::IndirectFetch`].
//!
//! [`Schedule::load_sweep`]: sa_lint::screening::Schedule::load_sweep
//!
//! **The resume rule.** An instance whose evaluation meets a load that is
//! neither local, constant, cached nor answered in place — its owner is on
//! another worker, or the cell is not written yet — issues the page request
//! (or leaves it queued at its owner) and gives up; when the reply arrives
//! the instance is evaluated again *from the start* — single assignment
//! makes evaluation free of side effects up to the write. The operand log
//! keeps that exact: every non-local load is classified, counted,
//! cache-probed and fetched once, on the attempt that first reaches it, and
//! the k-th non-local load of a later attempt takes the k-th logged value;
//! local reads are counted by the attempt that reaches the write.

use std::collections::{HashMap, HashSet};

use sa_ir::analysis::Screen;
use sa_ir::body::Frame as EvalFrame;
use sa_ir::interp::{Memory, PageMemo};
use sa_ir::nest::Stmt;
use sa_ir::program::ArrayInit;
use sa_ir::{ArrayId, IrError};
use sa_lint::screening::Windows;
use sa_machine::{host_of, CachePolicy, PageKey, PeCounters, PolicyCache, Probe};
use sa_mem::TaggedPage;

use crate::engine::{NestPlan, PhasePlan, Plan};
use crate::net::Msg;
use crate::pool::Outbox;

/// Access/message statistics gathered by one PE.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PeStats {
    /// The four access categories, as in the simulator.
    pub counters: PeCounters,
    /// Page fetch requests issued.
    pub page_fetches: u64,
    /// Of those, the ones the owner served by a direct call, on this PE's
    /// own worker.
    pub in_place_fetches: u64,
    /// Fetches of a constant array, answered from the run's one copy of it
    /// by this PE itself ([`Plan::constant`]).
    pub constant_fetches: u64,
    /// Fetches that re-requested a partially filled cached page.
    pub partial_refetches: u64,
    /// Total messages this PE sent.
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
pub(crate) type Frame = TaggedPage;

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

/// Everything a PE hands back when the run stops.
pub(crate) struct PeResult {
    /// Statistics.
    pub stats: PeStats,
    /// Owned frames, `frames[array][slot]` as laid out by [`Plan::pages`].
    pub frames: Vec<Vec<Frame>>,
    /// Final scalar values (identical on every PE).
    pub scalars: Vec<f64>,
    /// Every deferred reply this PE received, i.e. its realized
    /// read-after-write waits, in arrival order.
    pub wait_edges: Vec<WaitObs>,
    /// What the PE was waiting for if it never finished the program.
    pub blocked: Option<String>,
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

/// The one request a PE has outstanding while an instance is suspended.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// An [`Msg::IndirectFetch`] (anchor resolution), not a counted fetch.
    indirect: bool,
    array: usize,
    addr: usize,
    owner: usize,
}

/// The error a suspended evaluation unwinds with. It never reaches a user:
/// [`PeMem::stop`] tells it from a real failure by the pending request.
fn suspended(addr: usize) -> IrError {
    IrError::ReadUndefined {
        array: String::new(),
        addr,
    }
}

/// Why an instance did not complete.
enum Stop {
    /// A request is out; the instance runs again when the reply is in.
    Suspended,
    /// The run is over, with this reason.
    Fail(String),
}

/// What [`Pe::run`] reports to the worker that scheduled it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Progress {
    /// The slice is used up; the PE can go on.
    Yielded,
    /// Nothing to do until a message arrives — or ever again, once the PE
    /// is out of program and only serves.
    Blocked,
}

/// Where a PE is between two instance evaluations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// About to enter phase `Pe::phase`.
    Enter,
    /// Walking its owned instances of the phase's nest.
    Nest,
    /// Past the instances, in reduction round `round` of the nest: the
    /// scalar's host collects the partials and broadcasts, everyone else
    /// ships its partial (once: `sent`) and awaits the broadcast.
    Reduce { round: usize, sent: bool },
    /// §5, host: collecting every PE's re-initialization request.
    ReinitCollect,
    /// §5, host: released; collecting every PE's acknowledgement.
    ReinitAcks,
    /// §5, everyone else: request sent; awaiting the release.
    ReinitRelease,
    /// §5, everyone else: release applied and acknowledged; awaiting the go.
    ReinitGo,
    /// Out of program.
    Done,
}

/// A PE's place in the current nest: statement `win.active()[pos]` on trip
/// `trip` of window `window` of sweep `sweep` (whose windows `win` holds
/// once `loaded`).
#[derive(Debug, Default)]
struct Cursor {
    sweep: usize,
    loaded: bool,
    /// This PE's owned windows of the sweep.
    win: Windows,
    /// The window being walked (`None` once the sweep is exhausted).
    window: Option<(usize, usize)>,
    trip: usize,
    pos: usize,
}

/// Machine-side state of a PE: everything serving a peer touches (split
/// from the evaluation context and the cursor so expression evaluation can
/// borrow them disjointly).
struct PeMem {
    me: usize,
    /// Owned frames, `frames[array][slot]` ([`Plan::pages`] maps a page to
    /// its owner and slot).
    frames: Vec<Vec<Frame>>,
    gens: Vec<u32>,
    /// Fetched pages with their contents and the fill snapshot shipped with
    /// the reply (LRU, on the machine's one replacement core): a later read
    /// of a filled cell needs no message, and a refetch upgrades a partly
    /// filled page in place (§8).
    cache: PolicyCache<TaggedPage>,
    cache_enabled: bool,
    cell_waiters: HashMap<(usize, usize), Vec<Waiter>>, // addr → waiters
    partials_inbox: HashMap<(usize, u64), Vec<f64>>,
    scalar_ready: HashMap<(usize, u64), f64>,
    reinit_requests: HashMap<usize, usize>,
    reinit_released: HashMap<usize, u32>,
    reinit_acks: HashMap<usize, usize>,
    reinit_go: HashSet<usize>,
    /// Resolution snapshots fetched via [`Msg::IndirectFetch`], keyed like
    /// the page cache but unbounded and uncounted: ownership screening
    /// must not perturb the measured access statistics.
    resolutions: HashMap<PageKey, TaggedPage>,
    /// True once this PE has executed every phase of the program and only
    /// serves peers: a fetch of a still-undefined owned cell can then
    /// never be satisfied (this PE was its only producer) and aborts the
    /// run instead of deadlocking it.
    finished: bool,
    /// True while this PE sits inside the §5 re-initialization barrier,
    /// *before* its release is applied (the host stays syncing until it
    /// has broadcast [`Msg::ReinitGo`]). A release is only possible once
    /// every PE has reached the barrier, so while syncing a fetch of an
    /// undefined owned cell belongs to a peer that is blocked *before* the
    /// barrier and will never arrive — same dead end as
    /// [`PeMem::finished`]. After the release, deferral is safe again and
    /// the go round keeps this PE serving until every peer is past its own
    /// release.
    syncing: bool,
    stats: PeStats,
    /// Statement site currently being executed or screened — the reader
    /// coordinates stamped onto [`WaitObs`] records when a fetch issued
    /// from here comes back deferred.
    cur_phase: usize,
    cur_stmt: usize,
    /// Realized read-after-write waits observed by this PE.
    wait_edges: Vec<WaitObs>,
    /// Values of the current instance's non-local loads, in evaluation
    /// order, as far as any attempt got.
    oplog: Vec<f64>,
    /// Logged loads the current attempt has taken.
    replayed: usize,
    /// Local reads of the current attempt (counted when it completes).
    local_reads: u64,
    /// The request the suspended instance waits on.
    pending: Option<Pending>,
    /// Why an owner served in place refused the current load (a dangling
    /// deferral): the reason the run stops, which the unwinding evaluation
    /// error cannot carry.
    refused: Option<String>,
}

impl PeMem {
    fn send(&mut self, out: &mut Outbox, to: usize, msg: Msg) {
        self.stats.messages_sent += 1;
        out.send(to, msg);
    }

    /// Human-readable array reference for abort messages: `` `X` (array#2) ``.
    fn array_label(plan: &Plan<'_>, array: usize) -> String {
        format!("`{}` (array#{array})", plan.program.arrays[array].name)
    }

    fn frame(&self, plan: &Plan<'_>, array: usize, page: usize) -> &Frame {
        debug_assert!(!plan.constant[array], "a frame of a constant array");
        let (owner, slot) = plan.pages[array][page];
        debug_assert_eq!(owner as usize, self.me, "frame of a page owned elsewhere");
        &self.frames[array][slot as usize]
    }

    /// Classify an evaluation error: the unwinding of a suspension, or the
    /// program's own failure.
    fn stop(&mut self, e: IrError) -> Stop {
        if let Some(reason) = self.refused.take() {
            Stop::Fail(reason)
        } else if self.pending.is_some() {
            Stop::Suspended
        } else {
            Stop::Fail(e.to_string())
        }
    }

    /// The instance reached its write: its local reads count, and the next
    /// instance starts with an empty operand log.
    fn commit_reads(&mut self) {
        self.stats.counters.local_reads += self.local_reads;
        self.oplog.clear();
    }

    /// The owner's side of a page reply, counted as sent: the value of the
    /// defined cell `addr`, and a copy of its page when the run caches.
    fn page_reply(
        &mut self,
        plan: &Plan<'_>,
        array: usize,
        addr: usize,
    ) -> (f64, Option<Box<TaggedPage>>) {
        self.stats.messages_sent += 1;
        let page = addr / plan.page_size;
        let frame = self.frame(plan, array, page);
        let value = frame.get(addr - page * plan.page_size);
        let value = value.expect("a reply answers a defined cell");
        (
            value,
            (plan.cache_pages > 0).then(|| Box::new(frame.clone())),
        )
    }

    /// Reply to `to`'s fetch of the defined cell `addr` from the local
    /// frame. An indirect fetch gets the page for its resolution store;
    /// `deferred` tells the requester its read was queued behind the
    /// producer's write (a realized RAW wait) rather than served at once.
    fn reply(
        &mut self,
        plan: &Plan<'_>,
        out: &mut Outbox,
        array: usize,
        addr: usize,
        to: Waiter,
        deferred: bool,
    ) {
        let (page, generation) = (addr / plan.page_size, to.generation);
        let msg = if to.indirect {
            self.stats.messages_sent += 1;
            self.stats.resolve_messages += 1;
            Msg::IndirectReply {
                array,
                page,
                generation,
                data: Box::new(self.frame(plan, array, page).clone()),
                deferred,
            }
        } else {
            let (value, data) = self.page_reply(plan, array, addr);
            Msg::PageReply {
                array,
                page,
                generation,
                value,
                data,
                deferred,
            }
        };
        out.send(to.pe, msg);
    }

    /// The fetch service (the paper's §4 remote read) for `from`'s read of
    /// cell `addr`: `Ok(true)` when the cell is defined and the caller
    /// answers now, `Ok(false)` when the reader is queued until the cell's
    /// producer writes it.
    fn serve(
        &mut self,
        plan: &Plan<'_>,
        array: usize,
        addr: usize,
        from: Waiter,
    ) -> Result<bool, String> {
        debug_assert_eq!(
            from.generation, self.gens[array],
            "request for a generation the owner has left"
        );
        let page = addr / plan.page_size;
        if self
            .frame(plan, array, page)
            .get(addr - page * plan.page_size)
            .is_some()
        {
            return Ok(true);
        }
        if self.finished || self.syncing {
            // This PE is the cell's only producer under owner-computes, and
            // it will never write again before the requester unblocks: it
            // has either run out of program, or it sits inside the
            // two-round re-initialization barrier — which no PE has left
            // yet (leaving requires every PE's ack), so the requester is
            // blocked *before* the barrier and can never reach it. Tear
            // the run down instead of deferring forever.
            let label = Self::array_label(plan, array);
            return Err(format!(
                "PE {} read {label}[{addr}], which this program never \
                 defines — a dangling I-structure deferral (sapp lint: SA004)",
                from.pe
            ));
        }
        self.cell_waiters
            .entry((array, addr))
            .or_default()
            .push(from);
        Ok(false)
    }

    /// A fetched page reply in: the cache keeps the page copy, the operand
    /// log the value.
    fn accept(&mut self, key: PageKey, value: f64, data: Option<TaggedPage>) {
        if let Some(data) = data {
            debug_assert!(self.cache_enabled, "a page copy only for a cache");
            self.cache
                .insert_with(key, data, |old, new| old.merge_from(&new));
        }
        self.oplog.push(value);
    }

    /// Take in one message. `Ok(true)` when it may have unblocked the PE's
    /// own control flow (a reply, or a barrier/reduction message).
    fn handle(&mut self, plan: &Plan<'_>, out: &mut Outbox, msg: Msg) -> Result<bool, String> {
        match msg {
            Msg::PageRequest {
                array,
                page,
                generation,
                offset,
                from,
            }
            | Msg::IndirectFetch {
                array,
                page,
                generation,
                offset,
                from,
            } => {
                let from = Waiter {
                    pe: from,
                    generation,
                    indirect: matches!(msg, Msg::IndirectFetch { .. }),
                };
                let addr = page * plan.page_size + offset;
                if self.serve(plan, array, addr, from)? {
                    self.reply(plan, out, array, addr, from, false);
                }
                return Ok(false);
            }
            Msg::PageReply {
                array,
                page,
                generation,
                value,
                data,
                deferred,
            } => {
                let key = PageKey {
                    array,
                    page,
                    generation,
                };
                self.take_reply(plan, false, key, deferred);
                self.accept(key, value, data.map(|page| *page));
            }
            Msg::IndirectReply {
                array,
                page,
                generation,
                data,
                deferred,
            } => {
                let key = PageKey {
                    array,
                    page,
                    generation,
                };
                let addr = self.take_reply(plan, true, key, deferred);
                debug_assert!(
                    data.get(addr - page * plan.page_size).is_some(),
                    "owner resolved before the cell was defined"
                );
                self.resolutions
                    .entry(key)
                    .and_modify(|p| p.merge_from(&data))
                    .or_insert(*data);
            }
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
        }
        Ok(true)
    }

    /// Match a reply against the outstanding request (one at a time) and
    /// record the wait if the owner had deferred it. Returns the address
    /// the request was for.
    fn take_reply(
        &mut self,
        plan: &Plan<'_>,
        indirect: bool,
        key: PageKey,
        deferred: bool,
    ) -> usize {
        let p = self
            .pending
            .take()
            .expect("a reply answers the one outstanding request");
        debug_assert_eq!(
            (p.indirect, p.array, p.addr / plan.page_size),
            (indirect, key.array, key.page)
        );
        debug_assert_eq!(self.gens[key.array], key.generation);
        if deferred {
            self.wait_edges.push(WaitObs {
                phase: self.cur_phase,
                stmt: self.cur_stmt,
                array: key.array,
                addr: p.addr,
                generation: key.generation,
            });
        }
        p.addr
    }

    /// Producer write into an owned frame; releases queued remote readers.
    fn local_write(
        &mut self,
        plan: &Plan<'_>,
        out: &mut Outbox,
        array: usize,
        addr: usize,
        value: f64,
        memo: &mut PageMemo,
    ) -> Result<(), String> {
        let place = plan.page_at(array, addr, memo);
        let offset = place.offset(addr);
        assert_eq!(place.owner, self.me, "write to owned page");
        if self.frames[array][place.slot].set(offset, value) {
            return Err(format!(
                "single-assignment violation: array {array} addr {addr} written twice"
            ));
        }
        self.stats.counters.writes += 1;
        // Most writes have no reader queued: skip hashing the cell then.
        if self.cell_waiters.is_empty() {
            return Ok(());
        }
        if let Some(waiters) = self.cell_waiters.remove(&(array, addr)) {
            for w in waiters {
                self.reply(plan, out, array, addr, w, true);
            }
        }
        Ok(())
    }

    /// Non-counting read of an index array cell for anchor resolution.
    ///
    /// Resolution order: the generation-0 image of a statically initialized
    /// array (shared by the whole run: no traffic, the simulator's uncounted
    /// peek; a constant array has no frames), the local frame (the cell may
    /// be ours), the resolution store, and finally an [`Msg::IndirectFetch`]
    /// to the owner (who defers the reply until the cell's single assignment
    /// completes — the SSA sequencing that makes indirect anchors resolvable
    /// at all), which suspends the instance.
    fn resolve_load(
        &mut self,
        plan: &Plan<'_>,
        out: &mut Outbox,
        array: usize,
        addr: usize,
    ) -> Result<f64, IrError> {
        let generation = self.gens[array];
        if generation == 0 && matches!(plan.program.arrays[array].init, ArrayInit::Full(_)) {
            return Ok(plan.images[array][addr]);
        }
        let page = addr / plan.page_size;
        let offset = addr - page * plan.page_size;
        let owner = plan.pages[array][page].0 as usize;
        if owner == self.me {
            return self.frame(plan, array, page).get(offset).ok_or_else(|| {
                IrError::ReadUndefined {
                    array: format!("array#{array}"),
                    addr,
                }
            });
        }
        let key = PageKey {
            array,
            page,
            generation,
        };
        if let Some(v) = self.resolutions.get(&key).and_then(|p| p.get(offset)) {
            return Ok(v);
        }
        self.stats.resolve_messages += 1;
        let from = self.me;
        self.send(
            out,
            owner,
            Msg::IndirectFetch {
                array,
                page,
                generation,
                offset,
                from,
            },
        );
        self.pending = Some(Pending {
            indirect: true,
            array,
            addr,
            owner,
        });
        Err(suspended(addr))
    }
}

/// The other PEs of the running PE's worker: a split borrow of the
/// worker's PEs around the running one, through which a fetch from one of
/// them is served in place.
pub(crate) struct Peers<'w> {
    /// The worker's first PE.
    base: usize,
    before: &'w mut [Pe],
    after: &'w mut [Pe],
}

impl<'w> Peers<'w> {
    /// Split `pes` (the worker's PEs, the first of them PE `base`) into
    /// local PE `i` and its peers.
    pub fn split(pes: &'w mut [Pe], base: usize, i: usize) -> (&'w mut Pe, Self) {
        let (before, rest) = pes.split_at_mut(i);
        let (pe, after) = rest.split_first_mut().expect("a PE of this worker");
        (
            pe,
            Peers {
                base,
                before,
                after,
            },
        )
    }

    fn reborrow(&mut self) -> Peers<'_> {
        Peers {
            base: self.base,
            before: &mut *self.before,
            after: &mut *self.after,
        }
    }

    /// The memory of PE `pe` if it is a peer, `None` for a PE of another
    /// worker (or the running PE itself).
    fn get(&mut self, pe: usize) -> Option<&mut PeMem> {
        let i = pe.checked_sub(self.base)?;
        let pe = match i.checked_sub(self.before.len()) {
            None => &mut self.before[i],
            Some(j) => self.after.get_mut(j.checked_sub(1)?)?,
        };
        Some(&mut pe.mem)
    }
}

/// A PE's memory as the shared evaluator sees it: counted loads.
struct Access<'a, 'p> {
    mem: &'a mut PeMem,
    out: &'a mut Outbox,
    plan: &'a Plan<'p>,
    peers: Peers<'a>,
}

impl Memory for Access<'_, '_> {
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
        let a = array.0;
        let (mem, plan) = (&mut *self.mem, self.plan);
        plan.page_at(a, addr, memo);
        let (page, offset, owner) = (memo.page, memo.offset(addr), memo.owner);
        let constant = plan.constant[a];
        if owner == mem.me {
            let v = if constant {
                Some(plan.images[a][addr])
            } else {
                mem.frames[a][memo.slot].get(offset)
            };
            let v = v.ok_or_else(|| IrError::ReadUndefined {
                array: format!("array#{a}"),
                addr,
            })?;
            mem.local_reads += 1;
            return Ok(v);
        }
        // A load an earlier attempt at this instance already performed.
        if let Some(&v) = mem.oplog.get(mem.replayed) {
            mem.replayed += 1;
            return Ok(v);
        }
        let key = PageKey {
            array: a,
            page,
            generation: mem.gens[a],
        };
        if mem.cache_enabled {
            match mem.cache.probe_with(key, |page| page.get(offset)) {
                Probe::Hit(v) => {
                    mem.stats.counters.cached_reads += 1;
                    mem.oplog.push(v);
                    mem.replayed += 1;
                    return Ok(v);
                }
                // Resident but the cell was unfilled at fetch time: the §8
                // partial-page refetch.
                Probe::Unusable => mem.stats.partial_refetches += 1,
                Probe::Absent => {}
            }
        }
        mem.stats.counters.remote_reads += 1;
        mem.stats.page_fetches += 1;
        // Price the fetch (request + reply) exactly like the counting
        // simulator's `record_fetch` at its remote-read site.
        self.out.net.record_fetch(mem.me, owner);
        if constant {
            // The one copy answers, on any worker: the request and the
            // owner's reply are counted as sent, the reply's page copy
            // goes into the cache.
            mem.stats.messages_sent += 2;
            mem.stats.constant_fetches += 1;
            let v = plan.images[a][addr];
            let data = mem.cache_enabled.then(|| plan.initial_page(a, page));
            mem.accept(key, v, data);
            mem.replayed += 1;
            return Ok(v);
        }
        let from = Waiter {
            pe: mem.me,
            generation: key.generation,
            indirect: false,
        };
        if let Some(peer) = self.peers.get(owner) {
            // The owner shares our worker: the request is served in place,
            // counted as sent.
            mem.stats.messages_sent += 1;
            mem.stats.in_place_fetches += 1;
            match peer.serve(plan, a, addr, from) {
                Ok(true) => {
                    let (v, data) = peer.page_reply(plan, a, addr);
                    mem.accept(key, v, data.map(|page| *page));
                    mem.replayed += 1;
                    return Ok(v);
                }
                // Queued at the owner: its write sends the reply.
                Ok(false) => {}
                Err(reason) => {
                    mem.refused = Some(reason);
                    return Err(suspended(addr));
                }
            }
        } else {
            let request = Msg::PageRequest {
                array: a,
                page,
                generation: key.generation,
                offset,
                from: from.pe,
            };
            mem.send(self.out, owner, request);
        }
        mem.pending = Some(Pending {
            indirect: false,
            array: a,
            addr,
            owner,
        });
        Err(suspended(addr))
    }
}

/// Adapter presenting [`PeMem`]'s non-counting resolution reads as a
/// [`Memory`], for resolving a produced anchor through the compiled body.
struct Resolve<'r, 'a, 'p>(&'r mut Access<'a, 'p>);

impl Memory for Resolve<'_, '_, '_> {
    fn load(&mut self, array: ArrayId, addr: usize) -> Result<f64, IrError> {
        let Access { mem, out, plan, .. } = &mut *self.0;
        mem.resolve_load(plan, out, array.0, addr)
    }
}

/// One logical PE: evaluation context, machine state, and where it is in
/// the program.
pub(crate) struct Pe {
    /// Reduction results as this PE last received them (`ScalarId`
    /// indexes).
    scalars: Vec<f64>,
    /// Evaluation state of the current nest's compiled body.
    eval: EvalFrame,
    mem: PeMem,
    /// The phase being executed (`phases.len()` once done).
    phase: usize,
    state: State,
    cur: Cursor,
    /// Local partial accumulator per scalar slot (meaningful for the
    /// reduction targets of the current nest).
    partial: Vec<f64>,
    /// Per reduction round of the current nest that holds a participant
    /// set screened at run time ([`ReducePlan::resolved`]): who takes
    /// part, as far as this PE has resolved it. Empty for the others.
    took_part: Vec<Vec<bool>>,
}

impl Pe {
    /// PE `me` with its owned frames cut from the run's initial images —
    /// O(own share): the owned pages come closed-form from the placement.
    /// A constant array gets no frames: every PE reads its image.
    pub fn new(plan: &Plan<'_>, me: usize) -> Self {
        let program = plan.program;
        let mut frames = Vec::with_capacity(program.arrays.len());
        for (a, table) in plan.pages.iter().enumerate() {
            let mut own: Vec<Frame> = Vec::new();
            if !table.is_empty() && !plan.constant[a] {
                let placement = plan.schedule.placement(ArrayId(a));
                placement.owned_page_intervals(me, 0, table.len() - 1, |q0, q1| {
                    for (page, place) in table.iter().enumerate().take(q1).skip(q0) {
                        debug_assert_eq!(*place, (me as u32, own.len() as u32));
                        own.push(plan.initial_page(a, page));
                    }
                });
            }
            frames.push(own);
        }
        Pe {
            scalars: vec![0.0; program.scalars.len()],
            eval: EvalFrame::default(),
            mem: PeMem {
                me,
                frames,
                gens: vec![0u32; program.arrays.len()],
                cache: PolicyCache::new(plan.cache_pages, CachePolicy::Lru),
                cache_enabled: plan.cache_pages > 0,
                cell_waiters: HashMap::new(),
                partials_inbox: HashMap::new(),
                scalar_ready: HashMap::new(),
                reinit_requests: HashMap::new(),
                reinit_released: HashMap::new(),
                reinit_acks: HashMap::new(),
                reinit_go: HashSet::new(),
                resolutions: HashMap::new(),
                finished: false,
                syncing: false,
                stats: PeStats::default(),
                cur_phase: 0,
                cur_stmt: 0,
                wait_edges: Vec::new(),
                oplog: Vec::new(),
                replayed: 0,
                local_reads: 0,
                pending: None,
                refused: None,
            },
            phase: 0,
            state: State::Enter,
            cur: Cursor::default(),
            partial: vec![0.0; program.scalars.len()],
            took_part: Vec::new(),
        }
    }

    /// Take in one message; `Ok(true)` when the PE should be run again.
    pub fn handle(&mut self, plan: &Plan<'_>, out: &mut Outbox, msg: Msg) -> Result<bool, String> {
        self.mem.handle(plan, out, msg)
    }

    /// Run until the PE blocks, finishes, or has evaluated about `budget`
    /// instances, each of which is taken off it; its fetches from `peers`
    /// are served in place. An `Err` is the reason the whole run must stop.
    pub fn run(
        &mut self,
        plan: &Plan<'_>,
        out: &mut Outbox,
        peers: &mut Peers<'_>,
        budget: &mut usize,
    ) -> Result<Progress, String> {
        if self.mem.pending.is_some() {
            // Woken by a barrier or reduction message that arrived early;
            // the suspended instance still waits for its reply.
            return Ok(Progress::Blocked);
        }
        let me = self.mem.me;
        loop {
            match self.state {
                State::Done => return Ok(Progress::Blocked),
                State::Enter => match plan.phases.get(self.phase) {
                    None => {
                        // From here on this PE only serves; a reader still
                        // queued on one of its cells (necessarily
                        // undefined, or it would have been released) can
                        // never be satisfied — owner-computes makes this
                        // PE the cell's only producer, and it has run out
                        // of program.
                        self.mem.finished = true;
                        if let Some((&(array, addr), _)) = self.mem.cell_waiters.iter().next() {
                            let label = PeMem::array_label(plan, array);
                            return Err(format!(
                                "deferred read of {label}[{addr}], which this program never \
                                 defines — a dangling I-structure deferral (sapp lint: SA004)"
                            ));
                        }
                        self.state = State::Done;
                    }
                    Some(PhasePlan::Loop(np)) => {
                        self.mem.cur_phase = self.phase;
                        self.enter_nest(plan, np);
                        self.state = State::Nest;
                    }
                    Some(PhasePlan::Reinit(a)) => {
                        self.mem.cur_phase = self.phase;
                        self.enter_reinit(plan, out, *a)?;
                    }
                },
                State::Nest => {
                    let PhasePlan::Loop(np) = &plan.phases[self.phase] else {
                        unreachable!("State::Nest is only entered for a loop phase");
                    };
                    match self.walk(plan, np, out, peers, budget) {
                        Ok(true) => {
                            self.state = State::Reduce {
                                round: 0,
                                sent: false,
                            };
                        }
                        Ok(false) => return Ok(Progress::Yielded),
                        Err(Stop::Suspended) => return Ok(Progress::Blocked),
                        Err(Stop::Fail(reason)) => return Err(reason),
                    }
                }
                State::Reduce { round, sent } => {
                    let PhasePlan::Loop(np) = &plan.phases[self.phase] else {
                        unreachable!("State::Reduce is only entered for a loop phase");
                    };
                    let Some(r) = np.reduces.get(round) else {
                        self.next_phase();
                        continue;
                    };
                    // Vector→scalar collection at the host PE (§9), then
                    // broadcast.
                    let (sid, seq, n) = (r.scalar, self.phase as u64, plan.n_pes);
                    let host = host_of(sid, n);
                    let parts = if np.reduces[r.set].resolved {
                        &self.took_part[r.set]
                    } else {
                        &np.reduces[r.set].participants
                    };
                    if me == host {
                        let remote_contributors = parts
                            .iter()
                            .enumerate()
                            .filter(|&(pe, &p)| p && pe != host)
                            .count();
                        let got = self.mem.partials_inbox.get(&(sid, seq)).map_or(0, Vec::len);
                        if got < remote_contributors {
                            return Ok(Progress::Blocked);
                        }
                        let mut acc = if parts[me] {
                            self.partial[sid]
                        } else {
                            r.op.identity()
                        };
                        for v in self
                            .mem
                            .partials_inbox
                            .remove(&(sid, seq))
                            .unwrap_or_default()
                        {
                            acc = r.op.combine(acc, v);
                        }
                        for pe in (0..n).filter(|&pe| pe != host) {
                            self.mem.stats.broadcast_messages += 1;
                            self.mem.send(
                                out,
                                pe,
                                Msg::ScalarValue {
                                    scalar: sid,
                                    seq,
                                    value: acc,
                                },
                            );
                        }
                        self.scalars[sid] = acc;
                    } else {
                        if !sent && parts[me] {
                            self.mem.stats.reduction_messages += 1;
                            out.net.record_message(me, host);
                            self.mem.send(
                                out,
                                host,
                                Msg::Partial {
                                    scalar: sid,
                                    seq,
                                    value: self.partial[sid],
                                    from: me,
                                },
                            );
                        }
                        let Some(&v) = self.mem.scalar_ready.get(&(sid, seq)) else {
                            self.state = State::Reduce { round, sent: true };
                            return Ok(Progress::Blocked);
                        };
                        self.scalars[sid] = v;
                    }
                    self.state = State::Reduce {
                        round: round + 1,
                        sent: false,
                    };
                }
                State::ReinitCollect
                | State::ReinitAcks
                | State::ReinitRelease
                | State::ReinitGo => {
                    if !self.reinit_step(plan, out)? {
                        return Ok(Progress::Blocked);
                    }
                }
            }
        }
    }

    fn next_phase(&mut self) {
        self.phase += 1;
        self.state = State::Enter;
    }

    fn enter_nest(&mut self, plan: &Plan<'_>, np: &NestPlan) {
        self.cur = Cursor {
            win: std::mem::take(&mut self.cur.win),
            ..Cursor::default()
        };
        self.eval = plan.bodies[np.idx].frame();
        self.took_part.clear();
        for r in &np.reduces {
            self.partial[r.scalar] = r.op.identity();
            // A round with run-time screened statements starts from what
            // the schedule could screen and learns the rest as it resolves.
            self.took_part.push(if r.resolved {
                debug_assert_eq!(r.participants.len(), plan.n_pes);
                r.participants.clone()
            } else {
                Vec::new()
            });
        }
    }

    /// Position the cursor on sweep `self.cur.sweep`: this PE's owned
    /// windows, and the first trip of the first of them.
    fn load_sweep(&mut self, plan: &Plan<'_>, np: &NestPlan) {
        let cur = &mut self.cur;
        let ns = plan.schedule.nest(np.idx);
        let sw = ns.sweep(cur.sweep);
        // A PE computes values, so it walks every trip of every sweep.
        plan.schedule
            .load_sweep(self.mem.me, np.idx, cur.sweep, 0..sw.trips, &mut cur.win);
        plan.bodies[np.idx].enter(&mut self.eval, &sw);
        cur.window = cur.win.advance();
        cur.trip = cur.window.map_or(0, |w| w.0);
        cur.pos = 0;
        cur.loaded = true;
    }

    /// Advance through the nest's owned instances. `Ok(true)` when the
    /// nest is finished, `Ok(false)` when the budget ran out first.
    fn walk(
        &mut self,
        plan: &Plan<'_>,
        np: &NestPlan,
        out: &mut Outbox,
        peers: &mut Peers<'_>,
        budget: &mut usize,
    ) -> Result<bool, Stop> {
        let sweeps = &plan.schedule.nest(np.idx).sweeps;
        loop {
            if !self.cur.loaded {
                if self.cur.sweep == sweeps.len() {
                    return Ok(true);
                }
                self.load_sweep(plan, np);
            }
            while let Some((_, end)) = self.cur.window {
                while self.cur.trip < end {
                    while let Some(&si) = self.cur.win.active().get(self.cur.pos) {
                        self.instance(plan, np, out, peers, si)?;
                        *budget = budget.saturating_sub(1);
                        self.cur.pos += 1;
                    }
                    self.cur.pos = 0;
                    self.cur.trip += 1;
                    if *budget == 0 {
                        return Ok(false);
                    }
                }
                self.cur.window = self.cur.win.advance();
                self.cur.trip = self.cur.window.map_or(0, |w| w.0);
            }
            self.cur.sweep += 1;
            self.cur.loaded = false;
            // A sweep this PE owns nothing of still costs a screening.
            *budget = budget.saturating_sub(1);
            if *budget == 0 {
                return Ok(false);
            }
        }
    }

    /// Evaluate statement `si` at the cursor's iteration, from the start.
    fn instance(
        &mut self,
        plan: &Plan<'_>,
        np: &NestPlan,
        out: &mut Outbox,
        peers: &mut Peers<'_>,
        si: usize,
    ) -> Result<(), Stop> {
        let ns = plan.schedule.nest(np.idx);
        let body = &plan.bodies[np.idx];
        let t = self.cur.trip as i64;
        self.mem.cur_stmt = si;
        let mut access = Access {
            mem: &mut self.mem,
            out: &mut *out,
            plan,
            peers: peers.reborrow(),
        };
        if ns.screen.screens[si] == Screen::Produced {
            // The anchor goes through an index array an earlier nest
            // produced: every PE resolves every instance, the owner runs
            // it. Resolution reads are uncounted and kept for the
            // generation, so resolving again after a resume is free.
            let site = body.anchor(si).expect("a produced anchor");
            let addr = match body.addr(site, t, &mut self.eval, &mut Resolve(&mut access)) {
                Ok(addr) => addr,
                Err(e) => {
                    return Err(match access.mem.stop(e) {
                        Stop::Fail(e) => Stop::Fail(format!("anchor resolution failed: {e}")),
                        suspended => suspended,
                    })
                }
            };
            let memo = body.memo(&mut self.eval, site);
            let owner = plan.page_at(body.array(site).0, addr, memo).owner;
            if let Some(set) = np.parts_of[si] {
                self.took_part[set][owner] = true;
            }
            if owner != access.mem.me {
                return Ok(());
            }
        }
        access.mem.replayed = 0;
        access.mem.local_reads = 0;
        let value = body.value(si, t, &mut self.eval, &self.scalars, &mut access);
        let value = value.map_err(|e| access.mem.stop(e))?;
        match &ns.nest.body[si] {
            Stmt::Assign { .. } => {
                let site = body.target(si).expect("an assignment's target");
                let addr = body.addr(site, t, &mut self.eval, &mut access);
                let addr = addr.map_err(|e| access.mem.stop(e))?;
                self.mem.commit_reads();
                let memo = body.memo(&mut self.eval, site);
                self.mem
                    .local_write(plan, out, body.array(site).0, addr, value, memo)
                    .map_err(Stop::Fail)
            }
            Stmt::Reduce { target, op, .. } => {
                self.mem.commit_reads();
                let acc = &mut self.partial[target.0];
                *acc = op.combine(*acc, value);
                Ok(())
            }
        }
    }

    /// Enter the §5 barrier for array `a`.
    fn enter_reinit(&mut self, plan: &Plan<'_>, out: &mut Outbox, a: usize) -> Result<(), String> {
        let me = self.mem.me;
        let host = host_of(a, plan.n_pes);
        // Entering the barrier: a reader already deferred on one of our
        // cells (any array) is blocked and can never send its own reinit
        // request, so the barrier would never release and we would never
        // write again — a guaranteed deadlock. Abort instead.
        if let Some((&(array, addr), _)) = self.mem.cell_waiters.iter().next() {
            let label = PeMem::array_label(plan, array);
            return Err(format!(
                "re-initialization barrier reached with a deferred read of \
                 {label}[{addr}] pending, which this program never defines — \
                 a dangling I-structure deferral (sapp lint: SA004)"
            ));
        }
        self.mem.syncing = true;
        if me == host {
            *self.mem.reinit_requests.entry(a).or_insert(0) += 1; // own request
            self.state = State::ReinitCollect;
        } else {
            self.mem.stats.reinit_messages += 1;
            out.net.record_message(me, host);
            self.mem
                .send(out, host, Msg::ReinitRequest { array: a, from: me });
            self.state = State::ReinitRelease;
        }
        Ok(())
    }

    /// One stage of the §5 barrier; `Ok(false)` while its condition is not
    /// met yet.
    fn reinit_step(&mut self, plan: &Plan<'_>, out: &mut Outbox) -> Result<bool, String> {
        let PhasePlan::Reinit(a) = plan.phases[self.phase] else {
            unreachable!("barrier states are only entered for a reinit phase");
        };
        let (me, n) = (self.mem.me, plan.n_pes);
        let others = (0..n).filter(|&pe| pe != me);
        match self.state {
            State::ReinitCollect => {
                if self.mem.reinit_requests.get(&a).copied().unwrap_or(0) < n {
                    return Ok(false);
                }
                self.mem.reinit_requests.remove(&a);
                let new_gen = self.mem.gens[a] + 1;
                for pe in others {
                    self.mem.stats.reinit_messages += 1;
                    out.net.record_message(me, pe);
                    self.mem.send(
                        out,
                        pe,
                        Msg::ReinitRelease {
                            array: a,
                            generation: new_gen,
                        },
                    );
                }
                self.apply_release(plan, a, new_gen)?;
                // Second round: hold every PE at the barrier until all of
                // them have applied their release. Without it, a released
                // PE could enter the next nest and fetch from a peer still
                // waiting on its own release — and that peer would misread
                // the legitimate fetch as a deadlocked pre-barrier reader
                // (or, for the re-initialized array itself, serve a
                // stale-generation frame).
                self.state = State::ReinitAcks;
            }
            State::ReinitAcks => {
                if self.mem.reinit_acks.get(&a).copied().unwrap_or(0) < n - 1 {
                    return Ok(false);
                }
                self.mem.reinit_acks.remove(&a);
                for pe in others {
                    self.mem.stats.sync_messages += 1;
                    self.mem.send(out, pe, Msg::ReinitGo { array: a });
                }
                self.mem.syncing = false;
                self.next_phase();
            }
            State::ReinitRelease => {
                let Some(new_gen) = self.mem.reinit_released.remove(&a) else {
                    return Ok(false);
                };
                self.apply_release(plan, a, new_gen)?;
                // From here on, deferral is safe again: the release proves
                // every PE reached the barrier, so an undefined-cell fetch
                // arriving while we wait for the go can only come from a
                // PE the host already let through — it will be satisfied
                // once we run the next phase.
                self.mem.syncing = false;
                self.mem.stats.sync_messages += 1;
                let host = host_of(a, n);
                self.mem
                    .send(out, host, Msg::ReinitAck { array: a, from: me });
                self.state = State::ReinitGo;
            }
            State::ReinitGo => {
                if !self.mem.reinit_go.remove(&a) {
                    return Ok(false);
                }
                self.next_phase();
            }
            _ => unreachable!("not a barrier state"),
        }
        Ok(true)
    }

    fn apply_release(&mut self, plan: &Plan<'_>, a: usize, new_gen: u32) -> Result<(), String> {
        // Unreachable via the entry check + the `syncing` guard in
        // serve_fetch, but kept as an orderly teardown rather than an
        // assert: a stale waiter here would deadlock its requester.
        if self.mem.cell_waiters.keys().any(|&(arr, _)| arr == a) {
            let label = PeMem::array_label(plan, a);
            return Err(format!(
                "re-initialization of {label} with deferred readers pending"
            ));
        }
        self.mem.gens[a] = new_gen;
        for frame in &mut self.mem.frames[a] {
            frame.clear();
        }
        self.mem.cache.invalidate_array(a);
        self.mem.resolutions.retain(|k, _| k.array != a);
        Ok(())
    }

    /// What the PE waits for, in SA008's vocabulary (`None` once done).
    fn blocked_on(&self, plan: &Plan<'_>) -> Option<String> {
        let (me, p) = (self.mem.me, self.phase);
        let name = |a: usize| &plan.program.arrays[a].name;
        Some(match (plan.phases.get(p)?, self.state) {
            (PhasePlan::Reinit(a), _) => format!(
                "PE{me} (phase {p}) waits (barrier) for the re-initialization of `{}`",
                name(*a)
            ),
            (PhasePlan::Loop(np), State::Reduce { round, .. }) => {
                let scalar = np.reduces[round].scalar;
                let from = match host_of(scalar, plan.n_pes) {
                    host if host == me => "its partials".to_string(),
                    host => format!("PE{host}"),
                };
                format!(
                    "PE{me} (phase {p}, after `{}`) waits (barrier) for `{}` from {from}",
                    plan.schedule.nest(np.idx).nest.label,
                    plan.program.scalars[scalar]
                )
            }
            (PhasePlan::Loop(np), _) => {
                let nest = plan.schedule.nest(np.idx).nest;
                let si = self.mem.cur_stmt;
                let writing = match nest.body[si].write_target() {
                    Some(target) => format!(", writing `{}`", name(target.array.0)),
                    None => String::new(),
                };
                let waits = match self.mem.pending {
                    Some(w) => format!("`{}`[{}] from PE{}", name(w.array), w.addr, w.owner),
                    None => "its turn".to_string(),
                };
                format!(
                    "`{}`/s{si} on PE{me} (phase {p}{writing}) waits for {waits}",
                    nest.label
                )
            }
        })
    }

    /// Give up the PE's results.
    pub fn finish(self, plan: &Plan<'_>) -> PeResult {
        PeResult {
            blocked: self.blocked_on(plan),
            stats: self.mem.stats,
            frames: self.mem.frames,
            scalars: self.scalars,
            wait_edges: self.mem.wait_edges,
        }
    }
}
