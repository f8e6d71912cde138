//! Fan-out on one process-wide worker pool, with deterministic result
//! ordering.
//!
//! The experiment sweeps behind every figure run many independent
//! simulations — one per `(n_pes, page_size, cached)` grid point — whose
//! costs vary by orders of magnitude (a 64-PE run of K18 dwarfs a 1-PE run
//! of K12). [`par_map`] fans such a work list out across the machine's
//! cores with an atomic work-stealing cursor, so fast points don't wait
//! behind slow ones, while the collected results keep **exactly the input
//! order**: callers observe the same `Vec` the sequential loop produced,
//! just sooner. On error the item with the smallest input index wins,
//! matching the early-exit of a sequential `?` loop. [`par_map_heaviest_first`]
//! hands the items out in descending cost instead, so that one long item
//! (K21 in a registry search) starts at once and overlaps the rest, with
//! the same results, errors and panics.
//!
//! # The pool
//!
//! No call spawns a thread. The first call that has two or more items
//! starts `default_workers(usize::MAX) − 1` helper threads, which live as
//! long as the process. A call publishes its items as a *job* — the cursor
//! over the order it hands them out in — and works that cursor itself;
//! idle helpers join the newest job with items left and claim until its
//! cursor runs out. Once the caller's own cursor is exhausted it waits for
//! the items helpers still run, and while it waits it helps: it claims
//! items of jobs opened after its own (the fan-outs nested in other
//! items), one at a time, looking at its own job after each. It never
//! takes an item of an older job, which may be a whole kernel search
//! where it waits for one PE shard. So nested fan-outs — PE shards inside
//! a kernel search inside `sapp search`, grid points × shards in a plan —
//! share the same cores without oversubscribing them. With one core there
//! are no helpers and every call runs inline, in input order.
//!
//! A panic in an item is caught on the thread that ran it, stops the job's
//! cursor, and is resumed on the caller once no other thread is inside the
//! job; the pool's threads survive it.
//!
//! An item may run on a helper, or on another caller's thread while that
//! caller waits, so it must not rely on the calling thread's thread-locals
//! (`sa_lint::by_instance`'s switch, a test's per-thread counters): no
//! product path wraps a `par_map` in one. Nor may a caller hold a lock
//! across a `par_map` that an item of another fan-out takes: helping, its
//! thread could run that item.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Number of worker threads to use for `n_items` independent tasks:
/// available hardware parallelism, capped by the item count. The
/// parallelism is read once per process: asking the OS reads cgroup quota
/// files every time, and a search calls this once per candidate.
pub fn default_workers(n_items: usize) -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    let hw = *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    hw.min(n_items).max(1)
}

/// Apply `f` to every item on the calling thread and the pool.
///
/// Results come back in input order; the first (lowest-index) error is
/// returned if any item fails. Panics in `f` propagate to the caller.
pub fn par_map<T, U, E, F>(items: &[T], f: F) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(&T) -> Result<U, E> + Sync,
{
    let order: Vec<usize> = (0..items.len()).collect();
    fan_out(items, &order, f)
}

/// [`par_map`] handing the items out heaviest first: in descending
/// `cost`, ties in input order, so the longest item starts at once and
/// runs beside the others instead of after them. Results still come back
/// in input order, the lowest *input* index's error wins whatever its
/// cost, and panics propagate; on one core it runs inline, in input order.
pub fn par_map_heaviest_first<T, U, E, F>(
    items: &[T],
    cost: impl Fn(&T) -> u64,
    f: F,
) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(&T) -> Result<U, E> + Sync,
{
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(cost(&items[i])));
    fan_out(items, &order, f)
}

/// Apply `f` to `items`, claimed in `order` (a permutation of the indices)
/// by the calling thread and the pool; results in input order, the
/// lowest-index error returned.
fn fan_out<T, U, E, F>(items: &[T], order: &[usize], f: F) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(&T) -> Result<U, E> + Sync,
{
    let pool = match pool::get() {
        Some(pool) if items.len() > 1 => pool,
        _ => return items.iter().map(f).collect(),
    };
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<U, E>>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    // Claim the next item and run it; false once none is left.
    let claim = || {
        let Some(&i) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) else {
            return false;
        };
        match panic::catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
            Ok(r) => *lock(&slots[i]) = Some(r),
            Err(payload) => {
                cursor.store(order.len(), Ordering::Relaxed);
                lock(&panicked).get_or_insert(payload);
            }
        }
        true
    };
    pool.run(&claim, items.len());
    if let Some(payload) = into_inner(panicked) {
        panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| into_inner(slot).expect("the cursor hands out every index exactly once"))
        .collect()
}

/// Lock `m`, ignoring poison: the pool's locks guard no invariant that a
/// panic can break (items run outside them, and a panic is caught).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn into_inner<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// The process-wide pool: jobs, helper threads, and the one `unsafe` of
/// the workspace.
#[allow(unsafe_code)]
mod pool {
    use super::{default_workers, lock};
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

    /// What a job hands the pool: claim one item and run it, false once
    /// its cursor is exhausted.
    pub(super) type Claim<'a> = dyn Fn() -> bool + Sync + 'a;

    /// Name of the helper threads.
    pub(super) const THREAD_NAME: &str = "par_map pool";

    pub(super) struct Pool {
        state: Mutex<State>,
        /// Signalled when a job opens, and when the last thread leaves a
        /// closing job.
        wake: Condvar,
    }

    #[derive(Default)]
    struct State {
        /// Jobs whose callers have not returned, oldest first.
        jobs: Vec<Job>,
        next_id: u64,
        /// Threads waiting on `wake`.
        sleepers: usize,
    }

    struct Job {
        /// Opening order: a waiting caller helps only newer jobs.
        id: u64,
        claim: &'static Claim<'static>,
        /// Threads other than the caller that may call `claim` now.
        inside: usize,
        /// Worth joining: no claim has found the cursor exhausted, and
        /// the caller has not closed it.
        joinable: bool,
        /// The caller has closed it and waits for `inside` to reach 0.
        closing: bool,
    }

    /// The pool, its helpers started on the first call; `None` on one
    /// core, where every call runs inline.
    pub(super) fn get() -> Option<&'static Pool> {
        static POOL: OnceLock<Option<&'static Pool>> = OnceLock::new();
        *POOL.get_or_init(|| {
            let helpers = default_workers(usize::MAX) - 1;
            if helpers == 0 {
                return None;
            }
            let pool: &'static Pool = Box::leak(Box::new(Pool {
                state: Mutex::default(),
                wake: Condvar::new(),
            }));
            for _ in 0..helpers {
                // A helper that cannot start costs parallelism, nothing
                // else: every caller works its own job to the end.
                let _ = std::thread::Builder::new()
                    .name(THREAD_NAME.to_string())
                    .spawn(|| pool.serve());
            }
            Some(pool)
        })
    }

    impl Pool {
        /// Publish `claim` as a job of `len` items, call it on this thread
        /// until its cursor is exhausted, and return once no other thread
        /// is inside it.
        pub(super) fn run(&self, claim: &Claim<'_>, len: usize) {
            // SAFETY: the pool keeps `claim` only in this job's entry and
            // calls it only between `join` and `leave`, which both hold
            // the state lock. `Closing` — dropped before this function
            // returns or unwinds out of it, and never leaked: it is
            // private to this function — clears `joinable` under that
            // lock, so no thread joins after, and removes the entry only
            // once `inside` is 0, so no thread still holds the reference
            // when the borrow of `claim` ends. No thread unwinds while it
            // is inside another job (`call`), so `inside` always comes
            // back down.
            let claim =
                unsafe { std::mem::transmute::<&Claim<'_>, &'static Claim<'static>>(claim) };
            let id = {
                let mut st = lock(&self.state);
                let id = st.next_id;
                st.next_id += 1;
                st.jobs.push(Job {
                    id,
                    claim,
                    inside: 0,
                    joinable: true,
                    closing: false,
                });
                for _ in 0..st.sleepers.min(len - 1) {
                    self.wake.notify_one();
                }
                id
            };
            let _closing = Closing { pool: self, id };
            while claim() {}
        }

        /// A helper's life: join the newest job with items left, claim
        /// until its cursor is exhausted, repeat; sleep when none has any.
        fn serve(&self) {
            let mut st = lock(&self.state);
            loop {
                st = match st.join(|_| true) {
                    Some((id, claim)) => {
                        drop(st);
                        while call(claim) {}
                        self.leave(id, false)
                    }
                    None => self.sleep(st),
                };
            }
        }

        /// Leave job `id` after a claim; `more` is whether it ran an item.
        fn leave(&self, id: u64, more: bool) -> MutexGuard<'_, State> {
            let mut st = lock(&self.state);
            let job = st.job(id);
            job.inside -= 1;
            job.joinable &= more;
            if job.inside == 0 && job.closing && st.sleepers > 0 {
                self.wake.notify_all();
            }
            st
        }

        fn sleep<'s>(&self, mut st: MutexGuard<'s, State>) -> MutexGuard<'s, State> {
            st.sleepers += 1;
            let mut st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
            st.sleepers -= 1;
            st
        }
    }

    impl State {
        /// Enter the newest joinable job that `wanted` accepts.
        fn join(
            &mut self,
            wanted: impl Fn(&Job) -> bool,
        ) -> Option<(u64, &'static Claim<'static>)> {
            let job = self
                .jobs
                .iter_mut()
                .rev()
                .find(|j| j.joinable && wanted(j))?;
            job.inside += 1;
            Some((job.id, job.claim))
        }

        fn job(&mut self, id: u64) -> &mut Job {
            self.jobs
                .iter_mut()
                .find(|j| j.id == id)
                .expect("a job stays listed until its caller removes it")
        }
    }

    /// Call another caller's `claim`. A panic out of it aborts: a helper
    /// would die inside that job, and a waiting caller would unwind out of
    /// its own job while helpers are still inside it. `par_map`'s claims
    /// catch their items' panics, so this never fires.
    fn call(claim: &Claim<'_>) -> bool {
        panic::catch_unwind(AssertUnwindSafe(claim)).unwrap_or_else(|_| std::process::abort())
    }

    /// Closes job `id` on every way out of [`Pool::run`] and waits,
    /// helping newer jobs one item at a time, until no other thread is
    /// inside it.
    struct Closing<'p> {
        pool: &'p Pool,
        id: u64,
    }

    impl Drop for Closing<'_> {
        fn drop(&mut self) {
            let mut st = lock(&self.pool.state);
            let job = st.job(self.id);
            job.joinable = false;
            job.closing = true;
            loop {
                if st.job(self.id).inside == 0 {
                    st.jobs.retain(|j| j.id != self.id);
                    return;
                }
                st = match st.join(|j| j.id > self.id) {
                    Some((other, claim)) => {
                        drop(st);
                        let more = call(claim);
                        self.pool.leave(other, more)
                    }
                    None => self.pool.sleep(st),
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;

    fn thread() -> ThreadId {
        std::thread::current().id()
    }

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let got: Vec<usize> = par_map(&items, |&i| Ok::<_, ()>(i * 3)).unwrap();
        let want: Vec<usize> = items.iter().map(|&i| i * 3).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn matches_sequential_reference() {
        let items: Vec<u64> = (0..100).collect();
        let seq: Result<Vec<u64>, ()> = items.iter().map(|&i| Ok(i * i)).collect();
        let par = par_map(&items, |&i| Ok::<_, ()>(i * i));
        assert_eq!(seq, par);
    }

    #[test]
    fn lowest_index_error_wins() {
        let items: Vec<usize> = (0..64).collect();
        let r = par_map(&items, |&i| if i % 7 == 3 { Err(i) } else { Ok(i) });
        assert_eq!(r, Err(3));
    }

    #[test]
    fn uses_multiple_threads_when_available() {
        if default_workers(64) < 2 {
            return; // single-core machine: nothing to assert
        }
        let seen = Mutex::new(HashSet::new());
        let items: Vec<usize> = (0..64).collect();
        par_map(&items, |_| {
            seen.lock().unwrap().insert(thread());
            // Give other workers a chance to claim an index.
            std::thread::sleep(std::time::Duration::from_millis(1));
            Ok::<_, ()>(())
        })
        .unwrap();
        assert!(
            seen.lock().unwrap().len() > 1,
            "expected the grid to fan out across threads"
        );
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(par_map(&[] as &[u8], |_| Ok::<u8, ()>(0)).unwrap(), vec![]);
        assert_eq!(par_map(&[9u8], |&x| Ok::<u8, ()>(x)).unwrap(), vec![9]);
    }

    #[test]
    fn nested_fan_outs_match_the_sequential_map() {
        let items: Vec<u64> = (0..12).collect();
        let leaf = |a: u64, b: u64, c: u64| a * 10_000 + b * 100 + c;
        let got = par_map(&items, |&a| {
            par_map(&items, |&b| {
                par_map(&items, |&c| Ok::<_, ()>(leaf(a, b, c)))
            })
        });
        let want: Vec<Vec<Vec<u64>>> = items
            .iter()
            .map(|&a| {
                let row = |&b: &u64| items.iter().map(|&c| leaf(a, b, c)).collect();
                items.iter().map(row).collect()
            })
            .collect();
        assert_eq!(got, Ok(want));
    }

    #[test]
    fn a_nested_panic_reaches_the_outermost_caller_and_the_pool_survives() {
        let items: Vec<usize> = (0..8).collect();
        let r = std::panic::catch_unwind(|| {
            par_map(&items, |&a| {
                par_map(&items, |&b| {
                    par_map(&items, |&c| {
                        if (a, b, c) == (5, 3, 6) {
                            panic!("boom");
                        }
                        Ok::<_, ()>(c)
                    })
                })
            })
        });
        let payload = r.expect_err("the innermost panic reaches the outermost caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        let after = par_map(&items, |&i| par_map(&items, |&j| Ok::<_, ()>(i * j)));
        let want: Vec<Vec<usize>> = items
            .iter()
            .map(|&i| items.iter().map(|&j| i * j).collect())
            .collect();
        assert_eq!(after, Ok(want));
    }

    #[test]
    fn the_lowest_index_error_wins_across_nesting() {
        let items: Vec<usize> = (0..16).collect();
        // Items (3, 9), (3, 4), (7, 1) and (12, 0) fail; outer item 3
        // reports its inner item 4, and nothing beats outer item 3.
        let failing = [(3, 9), (3, 4), (7, 1), (12, 0)];
        let cost = |&i: &usize| (i * 5 % 16) as u64;
        let r = par_map_heaviest_first(&items, cost, |&a| {
            par_map(&items, |&b| {
                if failing.contains(&(a, b)) {
                    Err((a, b))
                } else {
                    Ok(a + b)
                }
            })
        });
        assert_eq!(r, Err((3, 4)));
    }

    #[test]
    fn threads_start_once_per_process() {
        // Items run on the caller, on pool threads, and on other callers'
        // threads helping while they wait (here: other tests' threads,
        // named after their tests). A pool that spawned per call would
        // show a fresh thread id — pool-named or unnamed — on many of the
        // 1 000 calls.
        let caller = thread();
        let seen = Mutex::new(HashSet::new());
        let items: Vec<usize> = (0..16).collect();
        for _ in 0..1000 {
            par_map(&items, |_| {
                let current = std::thread::current();
                if current.id() == caller
                    || matches!(current.name(), None | Some(pool::THREAD_NAME))
                {
                    seen.lock().unwrap().insert(current.id());
                }
                Ok::<_, ()>(())
            })
            .unwrap();
        }
        let seen = seen.into_inner().unwrap().len();
        assert!(
            seen <= default_workers(usize::MAX),
            "{seen} threads ran items"
        );
    }

    #[test]
    fn heaviest_first_keeps_input_order_for_any_costs() {
        let items: Vec<u64> = (0..40).collect();
        // Several cost permutations, ties included.
        for costs in [
            items.clone(),
            items.iter().map(|&i| 40 - i).collect(),
            items.iter().map(|&i| (i * 17) % 11).collect(),
            vec![5; 40],
        ] {
            let cost = |i: &u64| costs[*i as usize];
            let got = par_map_heaviest_first(&items, cost, |&i| Ok::<_, ()>(i * 3));
            assert_eq!(got, Ok(items.iter().map(|&i| i * 3).collect()));
        }
    }

    #[test]
    fn heaviest_first_claims_in_descending_cost() {
        let items: Vec<usize> = (0..24).collect();
        let cost = |i: &usize| ((i * 7) % 12) as u64;
        // Every thread claims ever later positions of one sorted order, so
        // the costs each thread sees never rise, whatever the interleaving.
        let claimed = Mutex::new(Vec::new());
        par_map_heaviest_first(&items, cost, |&i| {
            claimed.lock().unwrap().push((thread(), i));
            Ok::<_, ()>(())
        })
        .unwrap();
        let claimed = claimed.into_inner().unwrap();
        let mut seen: Vec<usize> = claimed.iter().map(|&(_, i)| i).collect();
        seen.sort_unstable();
        assert_eq!(seen, items);
        for &(thread, _) in &claimed {
            let costs: Vec<u64> = claimed
                .iter()
                .filter(|&&(t, _)| t == thread)
                .map(|(_, i)| cost(i))
                .collect();
            assert!(costs.windows(2).all(|w| w[0] >= w[1]), "{costs:?}");
        }
        if default_workers(usize::MAX) == 1 {
            // One core runs inline, in input order.
            assert_eq!(claimed.iter().map(|&(_, i)| i).collect::<Vec<_>>(), items);
        }
    }

    #[test]
    fn heaviest_first_reports_the_lowest_input_index_error() {
        let items: Vec<usize> = (0..32).collect();
        for heavy in [5usize, 20] {
            // Items 5 and 20 fail; the cost favours `heavy`, so it is
            // claimed first, but item 5 is reported either way.
            let cost = |i: &usize| u64::from(*i == heavy) * 100 + *i as u64;
            let r = par_map_heaviest_first(&items, cost, |&i| {
                if i == 5 || i == 20 {
                    Err(i)
                } else {
                    Ok(i)
                }
            });
            assert_eq!(r, Err(5), "heavy {heavy}");
        }
    }

    #[test]
    fn heaviest_first_propagates_panics() {
        let items: Vec<usize> = (0..16).collect();
        let r = std::panic::catch_unwind(|| {
            let _ = par_map_heaviest_first(
                &items,
                |&i| i as u64,
                |&i| {
                    if i == 5 {
                        panic!("boom");
                    }
                    Ok::<_, ()>(i)
                },
            );
        });
        assert!(r.is_err());
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..16).collect();
        let r = std::panic::catch_unwind(|| {
            let _ = par_map(&items, |&i| {
                if i == 5 {
                    panic!("boom");
                }
                Ok::<_, ()>(i)
            });
        });
        assert!(r.is_err());
    }
}
