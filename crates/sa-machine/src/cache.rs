//! Per-PE page caches.
//!
//! "Each PE may safely cache a remotely fetched page in a local data cache,
//! preventing future accesses of the same remote page. The cache used will
//! be of fixed size and thus must use some sort of page replacement
//! strategy. For our simulation, we chose a least-recently-used page
//! replacement strategy." (paper §4). Single assignment is what makes this
//! coherence-free: a cached page can never be invalidated by a write.
//!
//! Pages are keyed by `(array, page, generation)` — a re-initialization
//! bumps the generation, so stale pages are unreachable even before the
//! host broadcast evicts them.

use std::collections::HashMap;

use sa_mem::TagBits;

use crate::config::PartialPagePolicy;

/// Cache key: one page of one generation of one array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageKey {
    /// Array identity (the IR's `ArrayId.0`).
    pub array: usize,
    /// Page index within the array's linear address space.
    pub page: usize,
    /// Array generation at fetch time.
    pub generation: u32,
}

/// Replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CachePolicy {
    /// Least-recently-used (the paper's choice).
    Lru,
    /// First-in-first-out (ablation).
    Fifo,
    /// Uniform random victim (ablation; deterministic via the seed).
    Random {
        /// Seed for the xorshift victim picker.
        seed: u64,
    },
}

/// Result of probing the cache for one element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Page present and the element usable → cached read.
    Hit,
    /// Page present but the element was not filled when the page was
    /// fetched → remote refetch under [`PartialPagePolicy::Refetch`].
    PartialMiss,
    /// Page absent → remote read.
    Miss,
}

#[derive(Debug, Clone)]
struct Entry {
    /// Fill snapshot shipped with the page; `None` means the page was
    /// complete at fetch time (or the policy ignores partial fills).
    fill: Option<TagBits>,
    /// LRU/FIFO stamp.
    stamp: u64,
}

/// A fixed-capacity page cache.
#[derive(Debug, Clone)]
pub struct PageCache {
    capacity: usize,
    policy: CachePolicy,
    entries: HashMap<PageKey, Entry>,
    tick: u64,
    rng: u64,
    hits: u64,
    misses: u64,
}

impl PageCache {
    /// A cache holding at most `capacity_pages` pages.
    pub fn new(capacity_pages: usize, policy: CachePolicy) -> Self {
        let rng = match policy {
            CachePolicy::Random { seed } => seed | 1,
            _ => 1,
        };
        PageCache {
            capacity: capacity_pages,
            policy,
            entries: HashMap::with_capacity(capacity_pages),
            tick: 0,
            rng,
            hits: 0,
            misses: 0,
        }
    }

    /// Maximum number of resident pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of resident pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// (hits, misses) since construction — partial misses count as misses.
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Probe for element `offset` (within the page) of `key`.
    ///
    /// An LRU hit refreshes the entry's recency stamp; FIFO and Random do
    /// not touch stamps on hit.
    pub fn probe(
        &mut self,
        key: PageKey,
        offset: usize,
        partial: PartialPagePolicy,
    ) -> CacheOutcome {
        self.tick += 1;
        let tick = self.tick;
        let policy = self.policy;
        match self.entries.get_mut(&key) {
            None => {
                self.misses += 1;
                CacheOutcome::Miss
            }
            Some(e) => {
                let filled = match (&e.fill, partial) {
                    (_, PartialPagePolicy::Ignore) | (None, _) => true,
                    (Some(bits), PartialPagePolicy::Refetch) => bits.get(offset),
                };
                if filled {
                    if matches!(policy, CachePolicy::Lru) {
                        e.stamp = tick;
                    }
                    self.hits += 1;
                    CacheOutcome::Hit
                } else {
                    self.misses += 1;
                    CacheOutcome::PartialMiss
                }
            }
        }
    }

    /// Insert (or upgrade) a fetched page with its fill snapshot.
    ///
    /// `fill = None` marks the page complete. If the page is resident the
    /// snapshot is unioned in (a partial-page refetch "upgrades" the copy);
    /// otherwise the page is inserted, evicting per policy when full.
    pub fn insert(&mut self, key: PageKey, fill: Option<TagBits>) {
        self.tick += 1;
        if let Some(e) = self.entries.get_mut(&key) {
            match fill {
                None => e.fill = None,
                Some(new) => {
                    if let Some(old) = &mut e.fill {
                        old.union_with(&new);
                    }
                    // An already-complete entry stays complete.
                }
            }
            e.stamp = self.tick;
            return;
        }
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() >= self.capacity {
            self.evict_one();
        }
        self.entries.insert(
            key,
            Entry {
                fill,
                stamp: self.tick,
            },
        );
    }

    fn evict_one(&mut self) {
        let victim = match self.policy {
            CachePolicy::Lru | CachePolicy::Fifo => self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k),
            CachePolicy::Random { .. } => {
                // xorshift64* pick over a *sorted* key list so the victim
                // is independent of HashMap iteration order (determinism).
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                let n = self.entries.len() as u64;
                let pick = (self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D) % n) as usize;
                let mut keys: Vec<PageKey> = self.entries.keys().copied().collect();
                keys.sort_unstable();
                keys.get(pick).copied()
            }
        };
        if let Some(k) = victim {
            self.entries.remove(&k);
        }
    }

    /// Drop every resident page of `array` (host re-initialization
    /// broadcast, §5).
    pub fn invalidate_array(&mut self, array: usize) {
        self.entries.retain(|k, _| k.array != array);
    }

    /// Drop everything (between independent experiment phases).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// True if the page is resident (any fill state).
    pub fn contains(&self, key: &PageKey) -> bool {
        self.entries.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(array: usize, page: usize) -> PageKey {
        PageKey {
            array,
            page,
            generation: 0,
        }
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let mut c = PageCache::new(2, CachePolicy::Lru);
        assert_eq!(
            c.probe(key(0, 0), 3, PartialPagePolicy::Ignore),
            CacheOutcome::Miss
        );
        c.insert(key(0, 0), None);
        assert_eq!(
            c.probe(key(0, 0), 3, PartialPagePolicy::Ignore),
            CacheOutcome::Hit
        );
        assert_eq!(c.hit_stats(), (1, 1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = PageCache::new(2, CachePolicy::Lru);
        c.insert(key(0, 0), None);
        c.insert(key(0, 1), None);
        // Touch page 0 so page 1 becomes LRU.
        assert_eq!(
            c.probe(key(0, 0), 0, PartialPagePolicy::Ignore),
            CacheOutcome::Hit
        );
        c.insert(key(0, 2), None);
        assert!(c.contains(&key(0, 0)), "recently used page must survive");
        assert!(!c.contains(&key(0, 1)), "LRU page must be evicted");
        assert!(c.contains(&key(0, 2)));
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut c = PageCache::new(2, CachePolicy::Fifo);
        c.insert(key(0, 0), None);
        c.insert(key(0, 1), None);
        // Touch page 0; FIFO must still evict it (it is oldest).
        assert_eq!(
            c.probe(key(0, 0), 0, PartialPagePolicy::Ignore),
            CacheOutcome::Hit
        );
        c.insert(key(0, 2), None);
        assert!(!c.contains(&key(0, 0)), "FIFO evicts the oldest insert");
        assert!(c.contains(&key(0, 1)));
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let run = |seed| {
            let mut c = PageCache::new(4, CachePolicy::Random { seed });
            for p in 0..32 {
                c.insert(key(0, p), None);
            }
            let mut resident: Vec<usize> = (0..32).filter(|&p| c.contains(&key(0, p))).collect();
            resident.sort_unstable();
            resident
        };
        assert_eq!(run(7), run(7));
        assert_eq!(run(7).len(), 4);
    }

    #[test]
    fn capacity_zero_caches_nothing() {
        let mut c = PageCache::new(0, CachePolicy::Lru);
        c.insert(key(0, 0), None);
        assert_eq!(
            c.probe(key(0, 0), 0, PartialPagePolicy::Ignore),
            CacheOutcome::Miss
        );
        assert!(c.is_empty());
    }

    #[test]
    fn partial_page_semantics() {
        let mut c = PageCache::new(2, CachePolicy::Lru);
        let mut fill = TagBits::new(8);
        fill.set(0);
        fill.set(1);
        c.insert(key(0, 0), Some(fill));
        // Ignore policy: any element hits.
        assert_eq!(
            c.probe(key(0, 0), 7, PartialPagePolicy::Ignore),
            CacheOutcome::Hit
        );
        // Refetch policy: unfilled element is a partial miss…
        assert_eq!(
            c.probe(key(0, 0), 7, PartialPagePolicy::Refetch),
            CacheOutcome::PartialMiss
        );
        // …until an upgraded snapshot arrives.
        let mut more = TagBits::new(8);
        more.set(7);
        c.insert(key(0, 0), Some(more));
        assert_eq!(
            c.probe(key(0, 0), 7, PartialPagePolicy::Refetch),
            CacheOutcome::Hit
        );
        assert_eq!(
            c.probe(key(0, 0), 0, PartialPagePolicy::Refetch),
            CacheOutcome::Hit
        );
        // A complete insert clears the snapshot entirely.
        c.insert(key(0, 0), None);
        assert_eq!(
            c.probe(key(0, 0), 5, PartialPagePolicy::Refetch),
            CacheOutcome::Hit
        );
    }

    #[test]
    fn generation_changes_miss() {
        let mut c = PageCache::new(2, CachePolicy::Lru);
        c.insert(key(0, 0), None);
        let stale = PageKey {
            array: 0,
            page: 0,
            generation: 1,
        };
        assert_eq!(
            c.probe(stale, 0, PartialPagePolicy::Ignore),
            CacheOutcome::Miss
        );
    }

    #[test]
    fn invalidate_array_drops_only_that_array() {
        let mut c = PageCache::new(4, CachePolicy::Lru);
        c.insert(key(0, 0), None);
        c.insert(key(1, 0), None);
        c.invalidate_array(0);
        assert!(!c.contains(&key(0, 0)));
        assert!(c.contains(&key(1, 0)));
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn cyclic_reuse_fits_when_capacity_suffices() {
        // A cycle over 3 pages with capacity 4: after the first lap, every
        // probe hits — the mechanism behind the paper's Figure 2.
        let mut c = PageCache::new(4, CachePolicy::Lru);
        let mut remote = 0;
        for _lap in 0..10 {
            for p in 0..3 {
                if c.probe(key(0, p), 0, PartialPagePolicy::Ignore) == CacheOutcome::Miss {
                    remote += 1;
                    c.insert(key(0, p), None);
                }
            }
        }
        assert_eq!(remote, 3, "only the first lap misses");

        // Capacity 2 < cycle length 3 with LRU: every probe misses
        // (the thrashing regime of Figure 4).
        let mut c = PageCache::new(2, CachePolicy::Lru);
        let mut remote = 0;
        for _lap in 0..10 {
            for p in 0..3 {
                if c.probe(key(0, p), 0, PartialPagePolicy::Ignore) == CacheOutcome::Miss {
                    remote += 1;
                    c.insert(key(0, p), None);
                }
            }
        }
        assert_eq!(remote, 30, "LRU thrashes when the cycle exceeds capacity");
    }
}
