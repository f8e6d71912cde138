//! Machine configuration — every knob the paper fixes, varies or proposes.

use crate::cache::CachePolicy;
use crate::network::NetworkTopology;
use crate::partition::PartitionScheme;
use crate::timing::AccessCosts;

/// What happens when a cached page turns out to be only partially filled.
///
/// The paper's simulation treats cached pages as complete ("ignoring for now
/// the possibility of partially filled pages", §4) but §8 acknowledges that
/// "a single page might have to be fetched more than once if that page is
/// only partially filled at the time of the first request".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartialPagePolicy {
    /// Paper semantics: a resident page always hits.
    Ignore,
    /// Realistic semantics: an element missing from the fetch-time snapshot
    /// triggers a re-fetch (counted as a remote read and as
    /// `partial_refetches`); the snapshot is upgraded in place.
    Refetch,
}

/// Why a [`MachineConfig`] is unusable. Produced by
/// [`MachineConfig::validate`], which every machine/runtime constructor
/// calls exactly once — downstream page arithmetic (`page_of`, `pages_in`,
/// [`MachineConfig::cache_pages`]) may then assume non-zero parameters
/// instead of re-checking or silently special-casing them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `n_pes` was 0; the machine needs at least one PE.
    ZeroPes,
    /// `page_size` was 0; partitioning needs non-empty pages.
    ZeroPageSize,
    /// `BlockCyclic { block_pages: 0 }`; chunks must hold at least a page.
    ZeroBlockPages,
    /// `Tile2D` with a zero `tile_rows` or `tile_cols`; tiles must cover
    /// at least one grid element.
    ZeroTileShape,
    /// An experiment-plan axis held no values, so the cross product is
    /// empty and no grid point can be enumerated.
    EmptyAxis {
        /// Name of the offending axis (e.g. `"pes"`).
        axis: &'static str,
    },
    /// The same axis kind was added to an experiment plan twice; the
    /// cross product would double-count it.
    DuplicateAxis {
        /// Name of the repeated axis.
        axis: &'static str,
    },
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::ZeroPes => write!(f, "n_pes must be ≥ 1"),
            ConfigError::ZeroPageSize => write!(f, "page_size must be ≥ 1"),
            ConfigError::ZeroBlockPages => write!(f, "block_pages must be ≥ 1"),
            ConfigError::ZeroTileShape => write!(f, "tile_rows and tile_cols must be ≥ 1"),
            ConfigError::EmptyAxis { axis } => write!(f, "axis `{axis}` has no values"),
            ConfigError::DuplicateAxis { axis } => write!(f, "axis `{axis}` was added twice"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full configuration of the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Number of processing elements (simulation parameter 1, §6).
    pub n_pes: usize,
    /// Page size in elements (simulation parameter 2, §6).
    pub page_size: usize,
    /// Per-PE cache size in *elements* (fixed at 256 in the paper, §6);
    /// the page capacity is `cache_elems / page_size`. 0 disables caching.
    pub cache_elems: usize,
    /// Replacement policy (LRU in the paper, §4).
    pub cache_policy: CachePolicy,
    /// Page placement scheme (modulo in the paper, §2).
    pub partition: PartitionScheme,
    /// Partial-page semantics (paper ignores; runtime refetches).
    pub partial_pages: PartialPagePolicy,
    /// Interconnect model for message/hop accounting.
    pub network: NetworkTopology,
    /// Cycle costs for the execution-time extension (§9).
    pub costs: AccessCosts,
}

impl MachineConfig {
    /// The canonical constructor: the paper's reference machine at the two
    /// swept parameters (§6). Defaults — modulo placement, 256-element LRU
    /// cache, complete-page semantics, ideal network — are overridden with
    /// the `with_*` builders (`with_cache_elems(0)` is the "No Cache"
    /// series of Figures 1–4).
    pub fn new(n_pes: usize, page_size: usize) -> Self {
        MachineConfig {
            n_pes,
            page_size,
            cache_elems: 256,
            cache_policy: CachePolicy::Lru,
            partition: PartitionScheme::Modulo,
            partial_pages: PartialPagePolicy::Ignore,
            network: NetworkTopology::Ideal,
            costs: AccessCosts::default(),
        }
    }

    /// Number of pages the cache can hold. Requires a validated config
    /// (`page_size ≥ 1`); zero page sizes are a [`ConfigError`], not a
    /// silently uncached machine.
    pub fn cache_pages(&self) -> usize {
        debug_assert!(self.page_size > 0, "cache_pages on an unvalidated config");
        self.cache_elems / self.page_size
    }

    /// True if caching is active.
    pub fn cache_enabled(&self) -> bool {
        self.cache_pages() > 0
    }

    /// Builder-style override: cache size in elements.
    pub fn with_cache_elems(mut self, elems: usize) -> Self {
        self.cache_elems = elems;
        self
    }

    /// Builder-style override: replacement policy.
    pub fn with_cache_policy(mut self, policy: CachePolicy) -> Self {
        self.cache_policy = policy;
        self
    }

    /// Builder-style override: partition scheme.
    pub fn with_partition(mut self, scheme: PartitionScheme) -> Self {
        self.partition = scheme;
        self
    }

    /// Builder-style override: partial-page semantics.
    pub fn with_partial_pages(mut self, p: PartialPagePolicy) -> Self {
        self.partial_pages = p;
        self
    }

    /// Builder-style override: network topology.
    pub fn with_network(mut self, n: NetworkTopology) -> Self {
        self.network = n;
        self
    }

    /// Builder-style override: access cost model.
    pub fn with_costs(mut self, c: AccessCosts) -> Self {
        self.costs = c;
        self
    }

    /// Validate the configuration. Machine and runtime constructors call
    /// this once up front, so rejection happens with a typed error before
    /// any page arithmetic can divide by zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        validate_shape(self.partition, self.page_size, self.n_pes)
    }
}

/// The machine-shape half of validation — everything page placement
/// depends on — shared by [`MachineConfig::validate`] and
/// [`crate::Placement::table`].
pub(crate) fn validate_shape(
    scheme: PartitionScheme,
    page_size: usize,
    n_pes: usize,
) -> Result<(), ConfigError> {
    if n_pes == 0 {
        return Err(ConfigError::ZeroPes);
    }
    if page_size == 0 {
        return Err(ConfigError::ZeroPageSize);
    }
    match scheme {
        PartitionScheme::BlockCyclic { block_pages: 0 } => Err(ConfigError::ZeroBlockPages),
        PartitionScheme::Tile2D {
            tile_rows,
            tile_cols,
        } if tile_rows == 0 || tile_cols == 0 => Err(ConfigError::ZeroTileShape),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_the_text() {
        let c = MachineConfig::new(8, 32);
        assert_eq!(c.n_pes, 8);
        assert_eq!(c.page_size, 32);
        assert_eq!(c.cache_elems, 256);
        assert_eq!(c.cache_pages(), 8); // 256/32
        assert!(c.cache_enabled());
        assert_eq!(c.cache_policy, CachePolicy::Lru);
        assert_eq!(c.partition, PartitionScheme::Modulo);
        assert_eq!(c.partial_pages, PartialPagePolicy::Ignore);
        assert!(c.validate().is_ok());
        // Page size 64 → 4 cache pages, as in Figures 1–4.
        assert_eq!(MachineConfig::new(8, 64).cache_pages(), 4);
    }

    #[test]
    fn no_cache_variant_disables_caching() {
        let c = MachineConfig::new(4, 32).with_cache_elems(0);
        assert_eq!(c.cache_pages(), 0);
        assert!(!c.cache_enabled());
    }

    #[test]
    fn builders_override_fields() {
        let c = MachineConfig::new(4, 32)
            .with_cache_elems(1024)
            .with_cache_policy(CachePolicy::Fifo)
            .with_partition(PartitionScheme::Block)
            .with_partial_pages(PartialPagePolicy::Refetch);
        assert_eq!(c.cache_pages(), 32);
        assert_eq!(c.cache_policy, CachePolicy::Fifo);
        assert_eq!(c.partition, PartitionScheme::Block);
        assert_eq!(c.partial_pages, PartialPagePolicy::Refetch);
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        assert_eq!(
            MachineConfig::new(0, 32).validate(),
            Err(ConfigError::ZeroPes)
        );
        assert_eq!(
            MachineConfig::new(4, 0).validate(),
            Err(ConfigError::ZeroPageSize)
        );
        assert_eq!(
            MachineConfig::new(4, 32)
                .with_partition(PartitionScheme::BlockCyclic { block_pages: 0 })
                .validate(),
            Err(ConfigError::ZeroBlockPages)
        );
        // Zero PEs is reported before zero page size (first failure wins).
        assert_eq!(
            MachineConfig::new(0, 0).validate(),
            Err(ConfigError::ZeroPes)
        );
        for (tile_rows, tile_cols) in [(0usize, 4usize), (4, 0), (0, 0)] {
            assert_eq!(
                MachineConfig::new(4, 32)
                    .with_partition(PartitionScheme::Tile2D {
                        tile_rows,
                        tile_cols
                    })
                    .validate(),
                Err(ConfigError::ZeroTileShape)
            );
        }
        assert!(MachineConfig::new(4, 32)
            .with_partition(PartitionScheme::Tile2D {
                tile_rows: 8,
                tile_cols: 8
            })
            .validate()
            .is_ok());
        assert!(MachineConfig::new(4, 32)
            .with_partition(PartitionScheme::RowBand)
            .validate()
            .is_ok());
    }

    #[test]
    fn axis_errors_render() {
        assert_eq!(
            ConfigError::EmptyAxis { axis: "pes" }.to_string(),
            "axis `pes` has no values"
        );
        assert_eq!(
            ConfigError::DuplicateAxis { axis: "cache" }.to_string(),
            "axis `cache` was added twice"
        );
    }

    #[test]
    fn cache_smaller_than_page_disables_caching() {
        let c = MachineConfig::new(4, 512); // 256-elem cache < 512-elem page
        assert_eq!(c.cache_pages(), 0);
        assert!(!c.cache_enabled());
    }
}
