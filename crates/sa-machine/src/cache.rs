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

/// What a probe found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe<T> {
    /// The page is not resident.
    Absent,
    /// The page is resident but its payload could not serve the access.
    Unusable,
    /// The page is resident and served the access.
    Hit(T),
}

/// The one replacement-policy core: a fixed-capacity set of pages, each
/// with a recency stamp and a payload `P`, evicting per [`CachePolicy`].
///
/// Every cache of the system is this type at some payload — the counting
/// machine's [`PageCache`] keeps a fill snapshot, the replay engine keeps
/// nothing (`()`), the thread runtime keeps the page's contents — so they
/// evict alike by construction:
///
/// * the clock ticks once per probe and once per insert;
/// * an LRU hit refreshes the stamp, FIFO and Random leave it alone, and a
///   probe the payload cannot serve refreshes nothing;
/// * LRU and FIFO evict the minimum stamp (stamps are unique);
/// * Random draws one xorshift64* number per eviction and picks its victim
///   by rank in the *sorted* key list, so the choice is a function of the
///   seed and the resident set alone.
///
/// So what a probe sequence does to the cache depends on the resident keys
/// in stamp order and the Random picker's state, nothing else
/// ([`PolicyCache::order_into`]), and it commutes with any renaming of the
/// keys that keeps their sorted order ([`PolicyCache::rekey`]): the same
/// probes, renamed, from the renamed state hit and miss alike and end in
/// the renamed state.
///
/// Pages are found by scanning a *page lane*, the resident keys' page
/// numbers packed one word each beside the keys, and comparing the full key
/// only where the page matches: capacities are a handful of pages (the
/// paper's 256-element cache holds 8), where a scan beats hashing several
/// times over, and the lane is a third of the key list's bytes. The lists'
/// own order means nothing: a newcomer takes its victim's place.
/// [`PolicyCache::access`] is a probe and, on a miss, an insert with one
/// scan, ticking as the two calls would, for a caller to which residency
/// is all that matters (replay).
#[derive(Debug, Clone)]
pub struct PolicyCache<P> {
    capacity: usize,
    policy: CachePolicy,
    /// Resident pages; `pages[i]` is `keys[i].page`, and `slots[i]` its
    /// stamp and payload (kept apart so the scan touches pages only).
    keys: Vec<PageKey>,
    pages: Vec<usize>,
    slots: Vec<(u64, P)>,
    tick: u64,
    rng: u64,
    hits: u64,
    misses: u64,
}

impl<P> PolicyCache<P> {
    /// A cache holding at most `capacity_pages` pages.
    pub fn new(capacity_pages: usize, policy: CachePolicy) -> Self {
        let rng = match policy {
            CachePolicy::Random { seed } => seed | 1,
            _ => 1,
        };
        PolicyCache {
            capacity: capacity_pages,
            policy,
            keys: Vec::new(),
            pages: Vec::new(),
            slots: Vec::new(),
            tick: 0,
            rng,
            hits: 0,
            misses: 0,
        }
    }

    /// Current number of resident pages.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// (hits, misses) since construction — anything but a hit is a miss.
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// True if the page is resident (whatever its payload can serve).
    #[inline]
    pub fn contains(&self, key: &PageKey) -> bool {
        self.find(key).is_some()
    }

    /// Where `key` is resident: the page lane first, the full key only on
    /// a page match.
    #[inline]
    fn find(&self, key: &PageKey) -> Option<usize> {
        self.pages
            .iter()
            .zip(&self.keys)
            .position(|(&page, k)| page == key.page && k == key)
    }

    /// Probe for `key`, letting `serve` try the access on the payload.
    #[inline]
    pub fn probe_with<T>(&mut self, key: PageKey, serve: impl FnOnce(&P) -> Option<T>) -> Probe<T> {
        self.tick += 1;
        match self.find(&key).map(|i| (i, serve(&self.slots[i].1))) {
            Some((i, Some(v))) => {
                if matches!(self.policy, CachePolicy::Lru) {
                    self.slots[i].0 = self.tick;
                }
                self.hits += 1;
                Probe::Hit(v)
            }
            Some((_, None)) => {
                self.misses += 1;
                Probe::Unusable
            }
            None => {
                self.misses += 1;
                Probe::Absent
            }
        }
    }

    /// Insert a fetched page, evicting per policy when full. If the page is
    /// already resident, `upgrade` folds the new payload into the old one
    /// and the stamp is renewed.
    pub fn insert_with(&mut self, key: PageKey, payload: P, upgrade: impl FnOnce(&mut P, P)) {
        self.tick += 1;
        if let Some(i) = self.find(&key) {
            upgrade(&mut self.slots[i].1, payload);
            self.slots[i].0 = self.tick;
            return;
        }
        self.push(key, payload);
    }

    /// Probe for `key` and, on a miss, insert it with `payload`; true on a
    /// hit. Residency alone serves the access, so this is exactly
    /// `probe_with(key, |_| Some(..))` followed on a miss by
    /// `insert_with(key, payload, ..)` — the same ticks, stamps, victims
    /// and counts — with one scan.
    #[inline]
    pub fn access(&mut self, key: PageKey, payload: P) -> bool {
        self.tick += 1;
        if let Some(i) = self.find(&key) {
            if matches!(self.policy, CachePolicy::Lru) {
                self.slots[i].0 = self.tick;
            }
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        self.tick += 1;
        self.push(key, payload);
        false
    }

    /// Make the absent `key` resident at the current tick, evicting per
    /// policy when full: the newcomer takes the victim's place, which
    /// nothing observes.
    fn push(&mut self, key: PageKey, payload: P) {
        if self.keys.len() < self.capacity {
            self.keys.push(key);
            self.pages.push(key.page);
            self.slots.push((self.tick, payload));
        } else if self.capacity > 0 {
            let i = self.victim();
            self.keys[i] = key;
            self.pages[i] = key.page;
            self.slots[i] = (self.tick, payload);
        }
    }

    /// The position of the page a full cache evicts.
    fn victim(&mut self) -> usize {
        match self.policy {
            CachePolicy::Lru | CachePolicy::Fifo => {
                // The least stamp: unique, as every tick is.
                let mut victim = (0, u64::MAX);
                for (i, (stamp, _)) in self.slots.iter().enumerate() {
                    if *stamp < victim.1 {
                        victim = (i, *stamp);
                    }
                }
                victim.0
            }
            CachePolicy::Random { .. } => {
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                let n = self.keys.len() as u64;
                let pick = (self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D) % n) as usize;
                self.select(pick)
            }
        }
    }

    /// The position of the `rank`-th smallest resident key, found by
    /// quickselect in place: keys, pages and slots are permuted alike,
    /// which nothing observes, and nothing is allocated.
    fn select(&mut self, rank: usize) -> usize {
        let (mut lo, mut hi) = (0, self.keys.len() - 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            self.swap(mid, hi);
            let mut store = lo;
            for i in lo..hi {
                if self.keys[i] < self.keys[hi] {
                    self.swap(i, store);
                    store += 1;
                }
            }
            self.swap(store, hi);
            match rank.cmp(&store) {
                std::cmp::Ordering::Equal => return store,
                std::cmp::Ordering::Less => hi = store - 1,
                std::cmp::Ordering::Greater => lo = store + 1,
            }
        }
        lo
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.keys.swap(i, j);
        self.pages.swap(i, j);
        self.slots.swap(i, j);
    }

    /// The state every later replacement decision depends on: the resident
    /// keys, oldest stamp first, into `out`, and the Random picker's state
    /// (returned; constant under LRU and FIFO). Two caches of one capacity
    /// and policy that agree on both hit, miss and evict alike on any probe
    /// sequence.
    pub fn order_into(&self, out: &mut Vec<PageKey>) -> u64 {
        let mut order: Vec<(u64, PageKey)> = self
            .slots
            .iter()
            .zip(&self.keys)
            .map(|(slot, &key)| (slot.0, key))
            .collect();
        order.sort_unstable_by_key(|&(tick, _)| tick);
        out.clear();
        out.extend(order.into_iter().map(|(_, key)| key));
        self.rng
    }

    /// Rename every resident key by `f`, keeping its stamp and payload.
    /// When `f` preserves the sorted order of the resident keys, the cache
    /// then behaves on `f`-renamed probes exactly as it did on the
    /// originals.
    pub fn rekey(&mut self, f: impl Fn(PageKey) -> PageKey) {
        for (key, page) in self.keys.iter_mut().zip(&mut self.pages) {
            *key = f(*key);
            *page = key.page;
        }
    }

    /// Drop every resident page of `array` (host re-initialization
    /// broadcast, §5).
    pub fn invalidate_array(&mut self, array: usize) {
        for i in (0..self.keys.len()).rev() {
            if self.keys[i].array == array {
                self.keys.swap_remove(i);
                self.pages.swap_remove(i);
                self.slots.swap_remove(i);
            }
        }
    }
}

/// The counting machine's page cache: the fill snapshot shipped with each
/// page is the payload (`None` means the page was complete at fetch time,
/// or the policy ignores partial fills).
pub type PageCache = PolicyCache<Option<TagBits>>;

impl PageCache {
    /// Probe for element `offset` (within the page) of `key`.
    pub fn probe(
        &mut self,
        key: PageKey,
        offset: usize,
        partial: PartialPagePolicy,
    ) -> CacheOutcome {
        let found = self.probe_with(key, |fill| match (fill, partial) {
            (_, PartialPagePolicy::Ignore) | (None, _) => Some(()),
            (Some(bits), PartialPagePolicy::Refetch) => bits.get(offset).then_some(()),
        });
        match found {
            Probe::Hit(()) => CacheOutcome::Hit,
            Probe::Unusable => CacheOutcome::PartialMiss,
            Probe::Absent => CacheOutcome::Miss,
        }
    }

    /// Insert (or upgrade) a fetched page with its fill snapshot.
    ///
    /// `fill = None` marks the page complete. If the page is resident the
    /// snapshot is unioned in (a partial-page refetch "upgrades" the copy);
    /// otherwise the page is inserted, evicting per policy when full.
    pub fn insert(&mut self, key: PageKey, fill: Option<TagBits>) {
        self.insert_with(key, fill, |old, new| match new {
            None => *old = None,
            // An already-complete entry stays complete.
            Some(new) => {
                if let Some(old) = old {
                    old.union_with(&new);
                }
            }
        });
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
    fn random_victims_are_the_ranked_keys() {
        // The resident sets after 64 inserts over three arrays in scrambled
        // page order, as the sort-the-key-list picker left them.
        // `array:page`, ascending.
        let pinned = [
            (1, 1, "0:27"),
            (1, 4, "0:27 0:44 1:17 2:54"),
            (1, 8, "0:1 0:27 0:44 1:17 1:21 1:38 2:7 2:11"),
            (7, 1, "0:27"),
            (7, 4, "0:27 1:51 2:7 2:54"),
            (7, 8, "0:1 0:27 0:44 1:4 1:17 1:51 2:7 2:54"),
            (42, 1, "0:27"),
            (42, 4, "0:27 1:17 1:34 2:54"),
            (42, 8, "0:27 1:17 1:34 1:38 1:51 2:7 2:24 2:54"),
        ];
        let inserted = |i: usize| key(i % 3, (i * 37) % 64);
        for (seed, capacity, want) in pinned {
            let mut c = PageCache::new(capacity, CachePolicy::Random { seed });
            (0..64).for_each(|i| c.insert(inserted(i), None));
            let mut resident: Vec<PageKey> =
                (0..64).map(inserted).filter(|k| c.contains(k)).collect();
            resident.sort_unstable();
            let resident: Vec<String> = resident
                .iter()
                .map(|k| format!("{}:{}", k.array, k.page))
                .collect();
            assert_eq!(resident.join(" "), want, "seed {seed}, {capacity} pages");
        }
    }

    #[test]
    fn the_policies_commute_with_an_order_preserving_renaming() {
        // φ moves array 0 by 7 pages and array 2 by 3, and leaves array 1:
        // it keeps the sorted order of any key set.
        let phi = |k: PageKey| PageKey {
            page: k.page + [7, 0, 3][k.array],
            ..k
        };
        let probes: Vec<PageKey> = (0..200usize)
            .map(|i| key([0, 2, 0, 1][i % 4], i % 5 % 2 + i / 40))
            .collect();
        for policy in [
            CachePolicy::Lru,
            CachePolicy::Fifo,
            CachePolicy::Random { seed: 9 },
        ] {
            for capacity in [1usize, 3, 5, 8] {
                let mut c: PolicyCache<u32> = PolicyCache::new(capacity, policy);
                probes[..40].iter().for_each(|&k| {
                    c.access(k, k.page as u32);
                });
                let mut renamed = c.clone();
                renamed.rekey(phi);
                // Stamps and payloads survive the renaming.
                let (mut before, mut after) = (Vec::new(), Vec::new());
                let picker = c.order_into(&mut before);
                assert_eq!(renamed.order_into(&mut after), picker);
                assert_eq!(after, before.iter().map(|&k| phi(k)).collect::<Vec<_>>());
                for &k in &before {
                    let payload = renamed.clone().probe_with(phi(k), |&v| Some(v));
                    assert_eq!(payload, Probe::Hit(k.page as u32), "{policy:?}");
                }
                // The renamed probes hit and miss alike and end in the
                // renamed state.
                for &k in &probes[40..] {
                    assert_eq!(c.access(k, 0), renamed.access(phi(k), 0), "{policy:?}");
                }
                let picker = c.order_into(&mut before);
                assert_eq!(renamed.order_into(&mut after), picker);
                assert_eq!(after, before.iter().map(|&k| phi(k)).collect::<Vec<_>>());
                // Not vacuous: the big cache hits, and every one evicts.
                assert!(capacity < 8 || c.hit_stats().0 > 0, "{policy:?}");
                assert_eq!(c.len(), capacity);
            }
        }
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
    fn a_value_payload_misses_unfilled_cells_until_upgraded() {
        // The thread runtime's use: the page contents are the payload, a
        // cell unfilled at fetch time cannot be served, and a refetch
        // upgrades the resident copy in place (§8).
        use sa_mem::TaggedPage;
        let page = |vals: [f64; 4], filled: usize| {
            let mut fill = TagBits::new(4);
            fill.set(filled);
            TaggedPage::from_parts(vals.to_vec(), fill)
        };
        let mut c: PolicyCache<TaggedPage> = PolicyCache::new(2, CachePolicy::Lru);
        let put = |c: &mut PolicyCache<TaggedPage>, p| {
            c.insert_with(key(0, 0), p, |old, new| old.merge_from(&new));
        };
        put(&mut c, page([5.0, 0.0, 0.0, 0.0], 0));
        assert_eq!(c.probe_with(key(0, 0), |p| p.get(0)), Probe::Hit(5.0));
        assert_eq!(c.probe_with(key(0, 0), |p| p.get(3)), Probe::Unusable);
        assert_eq!(c.probe_with(key(0, 1), |p| p.get(3)), Probe::Absent);
        put(&mut c, page([0.0, 0.0, 0.0, 9.0], 3));
        assert_eq!(c.probe_with(key(0, 0), |p| p.get(3)), Probe::Hit(9.0));
        assert_eq!(c.probe_with(key(0, 0), |p| p.get(0)), Probe::Hit(5.0));
        assert_eq!((c.len(), c.hit_stats()), (1, (3, 2)));
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
        c.invalidate_array(1);
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
