//! The worker pool: a core-sized set of OS threads, each scheduling a fixed
//! share of the logical PEs.
//!
//! A worker owns its PEs outright — no PE is ever touched by two threads —
//! so the only shared state is the run's read-only [`Plan`], one channel
//! per worker, and the two counters of [`Shared`]. A worker's loop is:
//! take in what arrived (cross-worker messages from its channel in a
//! batch, same-worker ones from a local queue), run one ready PE until it
//! blocks or its slice is used up, repeat; it parks on its channel only
//! when none of its PEs can move. Fetch requests for *any* of its PEs are
//! served between two instance evaluations, whatever the addressed PE is
//! doing itself. A page fetch between two of its own PEs is served in place,
//! inside the evaluation that needs it: the running PE reaches the others
//! through [`Peers`], a split borrow of the worker's PEs, and only the
//! reply to a reader queued on an unwritten cell travels (the local
//! queue, which also carries anchor resolution's fetches and the
//! reduction and barrier rounds). A fetch of a constant array involves no
//! owner at all, on this worker or another: the running PE reads the
//! plan's one copy of the array. What its PEs send to other workers' PEs
//! leaves in batches, one per [`FLUSH_AFTER`] units of work and one
//! whenever nothing can run.
//!
//! **The quiescence rule.** A cross-worker message is counted in
//! [`Shared::in_flight`] before it is sent and discounted by its receiver
//! when that worker next parks — after everything the message set off,
//! further sends included, has been done, handed over and counted (a
//! worker holds nothing back when it parks). So when the last
//! worker to park finds the count at zero, every worker is parked with
//! nothing on its way to it, and nothing can ever move again: the run is
//! over. If every PE is out of program that is the normal end; if not,
//! the PEs wait on each other in a cycle and the run is reported as
//! [`RuntimeError::Deadlocked`]. No timeout and no watchdog is involved.
//! Ending the run — there, or at the first failure — is one
//! [`Envelope::Stop`] per worker.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

use crossbeam::channel::{unbounded, Receiver, Sender};

use sa_machine::Network;

use crate::engine::{Plan, RuntimeError};
use crate::net::Msg;
use crate::pe::{Pe, PeResult, Peers, Progress};

/// Instances a PE may evaluate before the worker looks at its queues
/// again: what bounds how long a peer's fetch waits behind a PE that never
/// blocks.
const SLICE: usize = 64;

/// Times a worker with nothing to run offers its core to another thread
/// and looks again before it parks: a reply that is a few microseconds
/// away costs no sleep and wake-up.
const YIELDS_BEFORE_PARK: usize = 64;

/// Work — one unit per PE run and one per instance it evaluated — a worker
/// does before it hands other workers what it holds back for them. Small
/// against [`SLICE`], so a request never waits much longer than it would
/// behind a running PE anyway; when every PE blocks after an instance or
/// two (a message-bound run) one channel operation still carries several
/// of their requests and replies. Sent one by one they make two workers
/// on two cores half as fast as two workers sharing one core, and which
/// of the two a run gets is up to the kernel's scheduler.
const FLUSH_AFTER: usize = 8;

/// Blocked PEs a deadlock report spells out.
const MAX_BLOCKED_SHOWN: usize = 8;

/// What travels between workers.
enum Envelope {
    /// Messages for the receiver's PEs, each with the PE it is for.
    To(Vec<(usize, Msg)>),
    /// The run is over: quiescent, or failed with [`Shared::failure`].
    Stop,
}

/// The state all workers of a run share.
struct Shared {
    /// Worker of each PE.
    worker_of: Vec<u32>,
    /// Every worker's inbox.
    inboxes: Vec<Sender<Envelope>>,
    /// Cross-worker messages sent and not yet discounted by their receiver.
    in_flight: AtomicUsize,
    /// Workers parked on their inbox.
    parked: AtomicUsize,
    /// The first failure of the run.
    failure: Mutex<Option<String>>,
}

impl Shared {
    /// End the run: one wake-up per worker.
    fn stop_all(&self) {
        for tx in &self.inboxes {
            // A closed inbox is a worker that has stopped already.
            let _ = tx.send(Envelope::Stop);
        }
    }

    /// End the run with `reason`, unless it has failed already.
    fn fail(&self, reason: String) {
        self.failure
            .lock()
            .expect("no worker panics while recording a failure")
            .get_or_insert(reason);
        self.stop_all();
    }
}

/// A worker that unwinds (an internal bug) takes the run down with it
/// instead of leaving its peers parked forever.
struct StopOnUnwind<'a>(&'a Shared);

impl Drop for StopOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop_all();
        }
    }
}

/// A worker's sending side, handed to whichever of its PEs is running or
/// serving: the queues a message leaves through, and the worker's share of
/// the run's network accounting.
pub(crate) struct Outbox {
    worker: usize,
    shared: Arc<Shared>,
    /// Messages for PEs of this worker, delivered before it runs anything
    /// else.
    local: VecDeque<(usize, Msg)>,
    /// Per worker, the messages for its PEs held back until the next
    /// flush.
    outgoing: Vec<Vec<(usize, Msg)>>,
    /// Topology-priced accounting of the modeled sends of this worker's
    /// PEs — only the traffic the counting simulator's message model
    /// charges (page fetches, reduction partials, §5 request/release),
    /// never broadcasts, anchor resolution, or barrier-hardening rounds.
    /// The engine merges all shares into the run's hop and link-load
    /// totals.
    pub net: Network,
}

impl Outbox {
    /// Send `msg` to PE `to`.
    pub fn send(&mut self, to: usize, msg: Msg) {
        let worker = self.shared.worker_of[to] as usize;
        if worker == self.worker {
            self.local.push_back((to, msg));
        } else {
            self.outgoing[worker].push((to, msg));
        }
    }

    /// Hand what is held back to its workers, one channel operation each,
    /// counted in [`Shared::in_flight`] first.
    fn flush(&mut self) {
        for (inbox, batch) in self.shared.inboxes.iter().zip(&mut self.outgoing) {
            if !batch.is_empty() {
                self.shared.in_flight.fetch_add(batch.len(), SeqCst);
                // A closed inbox is a worker that has seen the run stop.
                let _ = inbox.send(Envelope::To(std::mem::take(batch)));
            }
        }
    }
}

/// One OS thread of the pool and the PEs it schedules.
struct Worker<'p> {
    plan: &'p Plan<'p>,
    /// First PE of this worker's contiguous share.
    base: usize,
    pes: Vec<Pe>,
    /// Local indices of the PEs that can move, each at most once.
    ready: VecDeque<usize>,
    queued: Vec<bool>,
    inbox: Receiver<Envelope>,
    /// Cross-worker messages taken in since the last park.
    received: usize,
    out: Outbox,
}

impl Worker<'_> {
    fn wake(&mut self, i: usize) {
        if !std::mem::replace(&mut self.queued[i], true) {
            self.ready.push_back(i);
        }
    }

    /// Hand `msg` to PE `pe` (one of ours).
    fn deliver(&mut self, pe: usize, msg: Msg) -> Result<(), String> {
        let i = pe - self.base;
        match self.pes[i].handle(self.plan, &mut self.out, msg) {
            Ok(true) => self.wake(i),
            Ok(false) => {}
            Err(reason) => return Err(format!("worker {pe}: {reason}")),
        }
        Ok(())
    }

    /// Take in what another worker sent; `Ok(true)` when the run is over.
    fn take_in(&mut self, env: Envelope) -> Result<bool, String> {
        match env {
            Envelope::Stop => Ok(true),
            Envelope::To(batch) => {
                self.received += batch.len();
                for (pe, msg) in batch {
                    self.deliver(pe, msg)?;
                }
                Ok(false)
            }
        }
    }

    /// Schedule until the run stops; an `Err` is the reason this worker
    /// stops it.
    fn work(&mut self) -> Result<(), String> {
        let shared = Arc::clone(&self.out.shared);
        for i in 0..self.pes.len() {
            self.wake(i);
        }
        let mut idle = 0;
        // Work done since the last flush, in the units of `FLUSH_AFTER`.
        let mut unflushed = 0;
        loop {
            while let Ok(env) = self.inbox.try_recv() {
                if self.take_in(env)? {
                    return Ok(());
                }
            }
            while let Some((pe, msg)) = self.out.local.pop_front() {
                self.deliver(pe, msg)?;
            }
            let next = self.ready.pop_front();
            // With nothing to run, what we hold back may be what a peer's
            // PEs wait for: a worker yields and parks empty-handed.
            if next.is_none() || unflushed >= FLUSH_AFTER {
                self.out.flush();
                unflushed = 0;
            }
            if let Some(i) = next {
                idle = 0;
                self.queued[i] = false;
                let mut budget = SLICE;
                let (pe, mut peers) = Peers::split(&mut self.pes, self.base, i);
                let progress = pe.run(self.plan, &mut self.out, &mut peers, &mut budget);
                match progress.map_err(|reason| format!("worker {}: {reason}", self.base + i))? {
                    Progress::Yielded => self.wake(i),
                    Progress::Blocked => {}
                }
                unflushed += 1 + SLICE - budget;
            } else if idle < YIELDS_BEFORE_PARK {
                idle += 1;
                std::thread::yield_now();
            } else {
                idle = 0;
                // None of our PEs can move: park. What we took in is
                // handled, and what that set off is counted — discount it.
                shared.in_flight.fetch_sub(self.received, SeqCst);
                self.received = 0;
                if shared.parked.fetch_add(1, SeqCst) + 1 == shared.inboxes.len()
                    && shared.in_flight.load(SeqCst) == 0
                {
                    // Every worker is parked and nothing is on its way to
                    // any of them: global quiescence.
                    shared.stop_all();
                }
                let env = self.inbox.recv().expect("a worker holds its own sender");
                shared.parked.fetch_sub(1, SeqCst);
                if self.take_in(env)? {
                    return Ok(());
                }
            }
        }
    }
}

/// Run `plan` on `workers` threads (`1..=n_pes`). Returns every PE's
/// results in PE order and the merged network accounting.
pub(crate) fn run(
    plan: &Plan<'_>,
    workers: usize,
) -> Result<(Vec<PeResult>, Network), RuntimeError> {
    let n = plan.n_pes;
    // Contiguous shares: neighbouring PEs trade the most pages, and a
    // same-worker message never touches a channel.
    let share = |w: usize| w * n / workers;
    let mut worker_of = vec![0u32; n];
    for w in 0..workers {
        worker_of[share(w)..share(w + 1)].fill(w as u32);
    }
    let (inboxes, receivers): (Vec<_>, Vec<_>) = (0..workers).map(|_| unbounded()).unzip();
    let shared = Arc::new(Shared {
        worker_of,
        inboxes,
        in_flight: AtomicUsize::new(0),
        parked: AtomicUsize::new(0),
        failure: Mutex::new(None),
    });

    let joined: Vec<std::thread::Result<(Vec<PeResult>, Network)>> = std::thread::scope(|s| {
        let handles: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(w, inbox)| {
                let shared = Arc::clone(&shared);
                s.spawn(move || {
                    let _guard = StopOnUnwind(&shared);
                    let (base, end) = (share(w), share(w + 1));
                    let mut worker = Worker {
                        plan,
                        base,
                        pes: (base..end).map(|pe| Pe::new(plan, pe)).collect(),
                        ready: VecDeque::with_capacity(end - base),
                        queued: vec![false; end - base],
                        inbox,
                        received: 0,
                        out: Outbox {
                            worker: w,
                            shared: Arc::clone(&shared),
                            local: VecDeque::new(),
                            outgoing: vec![Vec::new(); workers],
                            net: Network::new(plan.network, n),
                        },
                    };
                    if let Err(reason) = worker.work() {
                        shared.fail(reason);
                    }
                    let results = worker.pes.into_iter().map(|pe| pe.finish(plan)).collect();
                    (results, worker.out.net)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });

    let mut results = Vec::with_capacity(n);
    let mut net = Network::new(plan.network, n);
    let mut panic: Option<String> = None;
    for j in joined {
        match j {
            Ok((pes, share)) => {
                results.extend(pes);
                // Per-worker accounting blocks merge exactly like the
                // replay engine's shards: network arithmetic is additive.
                net.merge(&share);
            }
            Err(e) => {
                panic.get_or_insert_with(|| {
                    e.downcast_ref::<String>()
                        .cloned()
                        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "unknown panic".into())
                });
            }
        }
    }
    let failure = shared
        .failure
        .lock()
        .expect("every worker has been joined")
        .take();
    if let Some(reason) = failure.or(panic) {
        return Err(RuntimeError::WorkerPanicked(reason));
    }
    let blocked: Vec<&String> = results.iter().filter_map(|r| r.blocked.as_ref()).collect();
    if !blocked.is_empty() {
        let mut msg = format!(
            "cyclic I-structure wait: {} of {n} PEs can never move again — ",
            blocked.len()
        );
        for (i, b) in blocked.iter().take(MAX_BLOCKED_SHOWN).enumerate() {
            if i > 0 {
                msg.push_str("; ");
            }
            msg.push_str(b);
        }
        if blocked.len() > MAX_BLOCKED_SHOWN {
            msg.push_str(&format!(
                "; ... ({} more)",
                blocked.len() - MAX_BLOCKED_SHOWN
            ));
        }
        msg.push_str(" (sapp lint proves such a cycle statically: SA008)");
        return Err(RuntimeError::Deadlocked(msg));
    }
    Ok((results, net))
}
