//! The distributed machine: ownership-checked writes, classified reads.

use sa_mem::{PageMemo, SaArray, TagBits};

use crate::cache::{CacheOutcome, PageCache, PageKey};
use crate::config::{MachineConfig, PartialPagePolicy};
use crate::host::{run_reinit_protocol, ReinitSync};
use crate::network::Network;
use crate::placement::Placement;
use crate::stats::{AccessKind, Stats};

/// Description of one array to place on the machine.
#[derive(Debug, Clone)]
pub struct ArraySpec {
    /// Diagnostic name.
    pub name: String,
    /// Total elements (linear address space; multi-dim arrays are
    /// linearized row-major upstream).
    pub len: usize,
    /// Declared dimensions, outermost first (empty means linear `[len]`).
    /// Only the tiled partition schemes read the geometry; the page-linear
    /// schemes place identically whatever is declared here.
    pub dims: Vec<usize>,
    /// Initially defined prefix values (empty for produced arrays).
    pub init: Vec<f64>,
}

impl ArraySpec {
    /// A linear (1-D) array spec.
    pub fn linear(name: impl Into<String>, len: usize, init: Vec<f64>) -> Self {
        ArraySpec {
            name: name.into(),
            len,
            dims: Vec::new(),
            init,
        }
    }

    /// The dimensions placement sees: the declared ones, or `[len]`.
    fn placed_dims(&self) -> &[usize] {
        if self.dims.is_empty() {
            std::slice::from_ref(&self.len)
        } else {
            debug_assert_eq!(
                self.dims.iter().product::<usize>(),
                self.len,
                "declared dims must cover the array"
            );
            &self.dims
        }
    }
}

/// Errors raised by machine operations.
#[derive(Debug, Clone, PartialEq)]
pub enum MachineError {
    /// Owner-computes violation: a PE tried to write memory it does not own.
    RemoteWrite {
        /// Writing PE.
        pe: usize,
        /// Actual owner.
        owner: usize,
        /// Array name.
        array: String,
        /// Linear address.
        addr: usize,
    },
    /// Single-assignment violation.
    DoubleWrite {
        /// Array name.
        array: String,
        /// Linear address.
        addr: usize,
    },
    /// Read of a cell no one has produced (a scheduling bug in the caller).
    ReadUndefined {
        /// Array name.
        array: String,
        /// Linear address.
        addr: usize,
    },
    /// Address outside the array.
    OutOfBounds {
        /// Array name.
        array: String,
        /// Linear address.
        addr: usize,
        /// Array length.
        len: usize,
    },
    /// Invalid machine configuration.
    BadConfig(crate::config::ConfigError),
}

impl core::fmt::Display for MachineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MachineError::RemoteWrite {
                pe,
                owner,
                array,
                addr,
            } => write!(
                f,
                "owner-computes violation: PE {pe} wrote {array}[{addr}] owned by PE {owner}"
            ),
            MachineError::DoubleWrite { array, addr } => {
                write!(
                    f,
                    "single-assignment violation: {array}[{addr}] written twice"
                )
            }
            MachineError::ReadUndefined { array, addr } => {
                write!(f, "read of undefined {array}[{addr}]")
            }
            MachineError::OutOfBounds { array, addr, len } => {
                write!(f, "address {addr} out of bounds for {array} (len {len})")
            }
            MachineError::BadConfig(msg) => write!(f, "bad machine config: {msg}"),
        }
    }
}

impl std::error::Error for MachineError {}

/// The simulated loosely-coupled MIMD machine.
///
/// Array values are stored globally (the simulation is functional as well
/// as statistical), but *ownership* is page-exact: every access is
/// classified against the partition map and per-PE cache state, exactly as
/// the paper's simulator did.
#[derive(Debug, Clone)]
pub struct DistributedMachine {
    cfg: MachineConfig,
    arrays: Vec<SaArray<f64>>,
    placements: Vec<Placement>,
    /// Per array and page, the owning PE: a page run's first access reads
    /// it here instead of working it out from the placement.
    owners: Vec<Vec<u32>>,
    caches: Vec<PageCache>,
    stats: Stats,
    network: Network,
}

impl DistributedMachine {
    /// Build a machine and place `specs` on it.
    pub fn new(cfg: MachineConfig, specs: Vec<ArraySpec>) -> Result<Self, MachineError> {
        let placements = Placement::table(
            specs.iter().map(ArraySpec::placed_dims),
            cfg.partition,
            cfg.page_size,
            cfg.n_pes,
        )
        .map_err(MachineError::BadConfig)?;
        let arrays = specs
            .into_iter()
            .map(|s| SaArray::with_prefix(s.name, s.len, s.init))
            .collect();
        let caches = (0..cfg.n_pes)
            .map(|_| PageCache::new(cfg.cache_pages(), cfg.cache_policy))
            .collect();
        let owners = placements
            .iter()
            .map(|p| {
                (0..p.pages())
                    .map(|page| p.page_owner(page) as u32)
                    .collect()
            })
            .collect();
        Ok(DistributedMachine {
            stats: Stats::new(cfg.n_pes),
            network: Network::new(cfg.network, cfg.n_pes),
            cfg,
            arrays,
            placements,
            owners,
            caches,
        })
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Owning PE of `addr` in array `a`.
    pub fn owner_of(&self, a: usize, addr: usize) -> usize {
        self.placements[a].owner_of_addr(addr)
    }

    /// Owning PE of `addr` in array `a`, for an access site that
    /// remembers its last page and that page's owner in `memo`: the owner
    /// table is read once per page run.
    #[inline]
    fn owner_at(&self, a: usize, addr: usize, memo: &mut PageMemo) -> usize {
        if !memo.holds(addr) {
            let ps = self.cfg.page_size;
            let page = memo.page_of(addr, ps);
            memo.remember(page, ps, self.owners[a][page] as usize, 0);
        }
        memo.owner
    }

    /// Current generation of array `a`.
    pub fn generation(&self, a: usize) -> u32 {
        self.arrays[a].generation()
    }

    /// Producer write by `pe`, from an access site that remembers its last
    /// page's owner in `memo`. Enforces owner-computes and single
    /// assignment; counts as a (local) write.
    #[inline]
    pub fn write(
        &mut self,
        pe: usize,
        a: usize,
        addr: usize,
        value: f64,
        memo: &mut PageMemo,
    ) -> Result<(), MachineError> {
        let arr = &self.arrays[a];
        if addr >= arr.len() {
            return Err(MachineError::OutOfBounds {
                array: arr.name().to_string(),
                addr,
                len: arr.len(),
            });
        }
        let owner = self.owner_at(a, addr, memo);
        if owner != pe {
            return Err(MachineError::RemoteWrite {
                pe,
                owner,
                array: arr.name().to_string(),
                addr,
            });
        }
        let arr = &mut self.arrays[a];
        arr.write(addr, value)
            .map_err(|_| MachineError::DoubleWrite {
                array: arr.name().to_string(),
                addr,
            })?;
        self.stats.record(pe, AccessKind::Write);
        Ok(())
    }

    /// Classified read by `pe`, from an access site that remembers its last
    /// page and that page's owner in `memo`: returns the value, the access
    /// kind, and the one-way hop count (0 unless remote).
    #[inline]
    pub fn read(
        &mut self,
        pe: usize,
        a: usize,
        addr: usize,
        memo: &mut PageMemo,
    ) -> Result<(f64, AccessKind, u32), MachineError> {
        let arr = &self.arrays[a];
        let value = match arr.read(addr) {
            Ok(Some(v)) => *v,
            Ok(None) => {
                return Err(MachineError::ReadUndefined {
                    array: arr.name().to_string(),
                    addr,
                })
            }
            Err(_) => {
                return Err(MachineError::OutOfBounds {
                    array: arr.name().to_string(),
                    addr,
                    len: arr.len(),
                })
            }
        };
        let owner = self.owner_at(a, addr, memo);
        if owner == pe {
            self.stats.record(pe, AccessKind::LocalRead);
            return Ok((value, AccessKind::LocalRead, 0));
        }
        let page = memo.page;
        let key = PageKey {
            array: a,
            page,
            generation: self.arrays[a].generation(),
        };
        let offset = memo.offset(addr);
        if self.cfg.cache_enabled() {
            match self.caches[pe].probe(key, offset, self.cfg.partial_pages) {
                CacheOutcome::Hit => {
                    self.stats.record(pe, AccessKind::CachedRead);
                    return Ok((value, AccessKind::CachedRead, 0));
                }
                CacheOutcome::PartialMiss => {
                    let snapshot = self.page_snapshot(a, page);
                    self.caches[pe].insert(key, snapshot);
                    let hops = self.network.record_fetch(pe, owner);
                    self.stats.record(pe, AccessKind::RemoteRead);
                    self.stats.page_fetches += 1;
                    self.stats.partial_refetches += 1;
                    return Ok((value, AccessKind::RemoteRead, hops));
                }
                CacheOutcome::Miss => {
                    let snapshot = self.page_snapshot(a, page);
                    self.caches[pe].insert(key, snapshot);
                }
            }
        }
        let hops = self.network.record_fetch(pe, owner);
        self.stats.record(pe, AccessKind::RemoteRead);
        self.stats.page_fetches += 1;
        Ok((value, AccessKind::RemoteRead, hops))
    }

    /// Fill snapshot of one page (None when the page is completely defined
    /// or when partial-page accounting is off).
    fn page_snapshot(&self, a: usize, page: usize) -> Option<TagBits> {
        if self.cfg.partial_pages == PartialPagePolicy::Ignore {
            return None;
        }
        let arr = &self.arrays[a];
        let ps = self.cfg.page_size;
        let start = page * ps;
        let end = (start + ps).min(arr.len());
        let mut bits = TagBits::new(end - start);
        let tags = arr.tags();
        let mut full = true;
        for i in start..end {
            if tags.get(i) {
                bits.set(i - start);
            } else {
                full = false;
            }
        }
        if full {
            None
        } else {
            Some(bits)
        }
    }

    /// Re-initialize array `a` via the §5 host protocol: collect + broadcast
    /// messages are charged to the network, every PE drops its cached pages
    /// of `a`, and the array moves to the next generation.
    pub fn reinit(&mut self, a: usize) -> ReinitSync {
        let new_gen = self.arrays[a].reinit();
        let sync = run_reinit_protocol(&mut self.network, a, self.cfg.n_pes, new_gen);
        self.stats.reinit_messages += sync.total_messages();
        for cache in &mut self.caches {
            cache.invalidate_array(a);
        }
        sync
    }

    /// Ship a reduction partial result from `from` to the host `to`
    /// (paper §9's vector→scalar collection via the host mechanism).
    pub fn send_partial(&mut self, from: usize, to: usize) {
        if from != to {
            self.network.record_message(from, to);
            self.stats.reduction_messages += 1;
        }
    }

    /// Non-counting read for result verification.
    pub fn peek(&self, a: usize, addr: usize) -> Option<f64> {
        self.arrays[a].read(addr).ok().flatten().copied()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Network accounting.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Borrow the array stores (for verification).
    pub fn arrays(&self) -> &[SaArray<f64>] {
        &self.arrays
    }

    /// Tear down into (stats, network, final arrays).
    pub fn finish(self) -> (Stats, Network, Vec<SaArray<f64>>) {
        (self.stats, self.network, self.arrays)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachePolicy;
    use crate::partition::PartitionScheme;

    fn spec(name: &str, len: usize, init: Vec<f64>) -> ArraySpec {
        ArraySpec::linear(name, len, init)
    }

    fn machine(cfg: MachineConfig) -> DistributedMachine {
        DistributedMachine::new(
            cfg,
            vec![
                spec("A", 100, vec![]),
                spec("B", 100, (0..100).map(|i| i as f64).collect()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn paper_example_ownership() {
        // §2: 4 PEs, page size 32, arrays of 100 elements.
        let m = machine(MachineConfig::new(4, 32));
        assert_eq!(m.owner_of(0, 0), 0); // A(1..32) → PE 0
        assert_eq!(m.owner_of(0, 32), 1); // A(33..64) → PE 1
        assert_eq!(m.owner_of(0, 64), 2); // A(65..96) → PE 2
        assert_eq!(m.owner_of(0, 96), 3); // A(97..100) → PE 3 (partial page)
    }

    #[test]
    fn owner_computes_is_enforced() {
        let mut m = machine(MachineConfig::new(4, 32));
        m.write(0, 0, 5, 1.0, &mut PageMemo::default()).unwrap();
        let err = m
            .write(0, 0, 40, 1.0, &mut PageMemo::default())
            .unwrap_err();
        assert!(matches!(
            err,
            MachineError::RemoteWrite {
                pe: 0,
                owner: 1,
                ..
            }
        ));
        assert_eq!(m.stats().writes(), 1);
    }

    #[test]
    fn double_write_is_reported() {
        let mut m = machine(MachineConfig::new(4, 32));
        m.write(0, 0, 5, 1.0, &mut PageMemo::default()).unwrap();
        assert!(matches!(
            m.write(0, 0, 5, 2.0, &mut PageMemo::default()),
            Err(MachineError::DoubleWrite { addr: 5, .. })
        ));
    }

    #[test]
    fn local_read_is_free_of_network() {
        let mut m = machine(MachineConfig::new(4, 32));
        let (v, kind, hops) = m.read(0, 1, 10, &mut PageMemo::default()).unwrap(); // B(10) owned by PE 0
        assert_eq!(v, 10.0);
        assert_eq!(kind, AccessKind::LocalRead);
        assert_eq!(hops, 0);
        assert_eq!(m.network().messages, 0);
    }

    #[test]
    fn remote_then_cached_read_flow() {
        let mut m = machine(MachineConfig::new(4, 32));
        // B(40) is on page 1 → PE 1. PE 0 reads it twice.
        let (_, k1, _) = m.read(0, 1, 40, &mut PageMemo::default()).unwrap();
        assert_eq!(k1, AccessKind::RemoteRead);
        let (_, k2, _) = m.read(0, 1, 41, &mut PageMemo::default()).unwrap();
        assert_eq!(k2, AccessKind::CachedRead, "same page must now be cached");
        assert_eq!(m.network().messages, 2); // one request + one reply
        assert_eq!(m.stats().page_fetches, 1);
        // Another PE has its own (cold) cache.
        let (_, k3, _) = m.read(2, 1, 40, &mut PageMemo::default()).unwrap();
        assert_eq!(k3, AccessKind::RemoteRead);
    }

    #[test]
    fn no_cache_config_always_goes_remote() {
        let mut m = machine(MachineConfig::new(4, 32).with_cache_elems(0));
        for _ in 0..3 {
            let (_, k, _) = m.read(0, 1, 40, &mut PageMemo::default()).unwrap();
            assert_eq!(k, AccessKind::RemoteRead);
        }
        assert_eq!(m.stats().remote_reads(), 3);
        assert_eq!(m.stats().page_fetches, 3);
    }

    #[test]
    fn read_undefined_is_an_error() {
        let mut m = machine(MachineConfig::new(4, 32));
        assert!(matches!(
            m.read(0, 0, 3, &mut PageMemo::default()),
            Err(MachineError::ReadUndefined { .. })
        ));
        assert!(matches!(
            m.read(0, 0, 1000, &mut PageMemo::default()),
            Err(MachineError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn partial_page_refetch_counts_and_upgrades() {
        let cfg = MachineConfig::new(2, 4).with_partial_pages(PartialPagePolicy::Refetch);
        let mut m = DistributedMachine::new(cfg, vec![spec("A", 16, vec![])]).unwrap();
        // Page 1 (addrs 4..8) owned by PE 1. PE 1 fills only addr 4.
        m.write(1, 0, 4, 1.0, &mut PageMemo::default()).unwrap();
        // PE 0 fetches the partial page reading addr 4.
        let (_, k, _) = m.read(0, 0, 4, &mut PageMemo::default()).unwrap();
        assert_eq!(k, AccessKind::RemoteRead);
        // Owner fills addr 5; PE 0's snapshot doesn't have it → refetch.
        m.write(1, 0, 5, 2.0, &mut PageMemo::default()).unwrap();
        let (_, k, _) = m.read(0, 0, 5, &mut PageMemo::default()).unwrap();
        assert_eq!(k, AccessKind::RemoteRead);
        assert_eq!(m.stats().partial_refetches, 1);
        // Snapshot upgraded: both elements now hit.
        assert_eq!(
            m.read(0, 0, 4, &mut PageMemo::default()).unwrap().1,
            AccessKind::CachedRead
        );
        assert_eq!(
            m.read(0, 0, 5, &mut PageMemo::default()).unwrap().1,
            AccessKind::CachedRead
        );
    }

    #[test]
    fn ignore_policy_treats_partial_pages_as_complete() {
        let mut m =
            DistributedMachine::new(MachineConfig::new(2, 4), vec![spec("A", 16, vec![])]).unwrap();
        m.write(1, 0, 4, 1.0, &mut PageMemo::default()).unwrap();
        assert_eq!(
            m.read(0, 0, 4, &mut PageMemo::default()).unwrap().1,
            AccessKind::RemoteRead
        );
        m.write(1, 0, 5, 2.0, &mut PageMemo::default()).unwrap();
        // Paper semantics: the resident page hits even though 5 was not in
        // the original fetch.
        assert_eq!(
            m.read(0, 0, 5, &mut PageMemo::default()).unwrap().1,
            AccessKind::CachedRead
        );
        assert_eq!(m.stats().partial_refetches, 0);
    }

    #[test]
    fn reinit_bumps_generation_invalidates_caches_counts_messages() {
        let mut m = machine(MachineConfig::new(4, 32));
        // Warm PE 0's cache with B page 1.
        m.read(0, 1, 40, &mut PageMemo::default()).unwrap();
        assert_eq!(
            m.read(0, 1, 41, &mut PageMemo::default()).unwrap().1,
            AccessKind::CachedRead
        );
        let sync = m.reinit(1);
        assert_eq!(sync.host, 1);
        assert_eq!(sync.total_messages(), 6); // 3 requests + 3 broadcasts
        assert_eq!(m.generation(1), 1);
        assert_eq!(m.stats().reinit_messages, 6);
        // Array is writable again; old cached page can no longer hit.
        m.write(1, 1, 40, 7.0, &mut PageMemo::default()).unwrap();
        assert_eq!(
            m.read(0, 1, 40, &mut PageMemo::default()).unwrap().1,
            AccessKind::RemoteRead
        );
    }

    #[test]
    fn block_partitioning_places_contiguously() {
        let cfg = MachineConfig::new(4, 32).with_partition(PartitionScheme::Block);
        let m = machine(cfg);
        // 4 pages over 4 PEs → one page each, same as modulo here;
        // but with 8 pages (len 256) block differs from modulo.
        let m2 = DistributedMachine::new(
            MachineConfig::new(4, 32).with_partition(PartitionScheme::Block),
            vec![spec("A", 256, vec![])],
        )
        .unwrap();
        assert_eq!(m2.owner_of(0, 0), 0);
        assert_eq!(m2.owner_of(0, 32), 0); // pages 0,1 → PE 0
        assert_eq!(m2.owner_of(0, 64), 1);
        drop(m);
    }

    #[test]
    fn tiled_placement_enforces_owner_computes_by_tile() {
        // 8×8 grid, 2×2-element pages along the flattening, 4 PEs under
        // Tile2D{4,4}: element (0,0) is in tile 0 → PE 0; element (0,4) in
        // tile 1 → PE 1; element (4,0) in tile 2 → PE 2.
        let cfg = MachineConfig::new(4, 2).with_partition(PartitionScheme::Tile2D {
            tile_rows: 4,
            tile_cols: 4,
        });
        let mut m = DistributedMachine::new(
            cfg,
            vec![ArraySpec {
                name: "G".into(),
                len: 64,
                dims: vec![8, 8],
                init: vec![],
            }],
        )
        .unwrap();
        assert_eq!(m.owner_of(0, 0), 0);
        assert_eq!(m.owner_of(0, 4), 1);
        assert_eq!(m.owner_of(0, 4 * 8), 2);
        assert_eq!(m.owner_of(0, 4 * 8 + 4), 3);
        // Owner-computes is enforced against the tile owner.
        m.write(1, 0, 4, 1.0, &mut PageMemo::default()).unwrap();
        assert!(matches!(
            m.write(0, 0, 5, 1.0, &mut PageMemo::default()),
            Err(MachineError::RemoteWrite { owner: 1, .. })
        ));
        // A remote read of PE 1's tile is network traffic for PE 0.
        let (_, k, _) = m.read(0, 0, 4, &mut PageMemo::default()).unwrap();
        assert_eq!(k, AccessKind::RemoteRead);
    }

    #[test]
    fn stats_conservation_total_reads() {
        let mut m = machine(MachineConfig::new(4, 32));
        for addr in 0..100 {
            let _ = m.read(0, 1, addr, &mut PageMemo::default()).unwrap();
        }
        let s = m.stats();
        assert_eq!(
            s.total_reads(),
            s.local_reads() + s.cached_reads() + s.remote_reads()
        );
        assert_eq!(s.total_reads(), 100);
    }

    #[test]
    fn single_pe_everything_local() {
        let mut m = machine(MachineConfig::new(1, 32));
        for addr in 0..100 {
            let (_, k, _) = m.read(0, 1, addr, &mut PageMemo::default()).unwrap();
            assert_eq!(k, AccessKind::LocalRead);
        }
        assert_eq!(m.stats().remote_read_pct(), 0.0);
    }

    #[test]
    fn random_policy_runs() {
        let cfg = MachineConfig::new(4, 32)
            .with_cache_policy(CachePolicy::Random { seed: 42 })
            .with_cache_elems(64); // 2 pages
        let mut m = machine(cfg);
        for addr in 32..100 {
            let _ = m.read(0, 1, addr, &mut PageMemo::default()).unwrap();
        }
        assert!(m.stats().remote_reads() >= 2);
    }
}
