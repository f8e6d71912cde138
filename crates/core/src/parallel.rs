//! Scoped-thread fan-out with deterministic result ordering.
//!
//! The experiment sweeps behind every figure run many independent
//! simulations — one per `(n_pes, page_size, cached)` grid point — whose
//! costs vary by orders of magnitude (a 64-PE run of K18 dwarfs a 1-PE run
//! of K12). [`par_map`] fans such a work list out across scoped threads
//! with an atomic work-stealing cursor, so fast points don't wait behind
//! slow ones, while the collected results keep **exactly the input order**:
//! callers observe the same `Vec` the sequential loop produced, just
//! sooner. On error the item with the smallest input index wins, matching
//! the early-exit of a sequential `?` loop.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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

/// Apply `f` to every item on up to [`default_workers`] scoped threads.
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
    par_map_workers(default_workers(items.len()), items, f)
}

/// [`par_map`] with an explicit worker count (`workers <= 1` runs inline,
/// which is also the deterministic reference the tests compare against).
pub fn par_map_workers<T, U, E, F>(workers: usize, items: &[T], f: F) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(&T) -> Result<U, E> + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let chunks: Vec<Vec<(usize, Result<U, E>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.min(items.len()))
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(item)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });

    let mut slots: Vec<Option<Result<U, E>>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in chunks.into_iter().flatten() {
        slots[i] = Some(r);
    }
    let mut out = Vec::with_capacity(items.len());
    for slot in slots {
        out.push(slot.expect("work-stealing cursor visits every index exactly once")?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

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
        let seq = par_map_workers(1, &items, |&i| Ok::<_, ()>(i * i)).unwrap();
        let par = par_map_workers(8, &items, |&i| Ok::<_, ()>(i * i)).unwrap();
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
            seen.lock().unwrap().insert(std::thread::current().id());
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
