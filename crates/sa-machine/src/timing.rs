//! Cycle-cost model for the execution-time extension (paper §9:
//! "a more sophisticated simulation will better explore the problems of
//! execution time and network contention").
//!
//! Costs are dimensionless "cycles". The defaults are loosely modeled on
//! late-1980s message-passing machines: local memory ≈ 1 cycle, a cache
//! probe ≈ 2, a remote fetch ≈ fixed software/memory overhead plus a few
//! cycles per network hop each way. Only *ratios* matter for the shape of
//! speedup curves.

/// Per-access cycle costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessCosts {
    /// A producer write to local memory.
    pub write: u64,
    /// A read of locally owned memory.
    pub local_read: u64,
    /// A read satisfied by the page cache.
    pub cached_read: u64,
    /// Fixed cost of a remote fetch (request software + remote memory +
    /// reply software), excluding wire time.
    pub remote_base: u64,
    /// Wire cost per hop, charged per direction.
    pub per_hop: u64,
    /// Cost of executing one statement's arithmetic (charged per statement
    /// instance on top of its accesses).
    pub compute: u64,
}

impl Default for AccessCosts {
    fn default() -> Self {
        AccessCosts {
            write: 1,
            local_read: 1,
            cached_read: 2,
            remote_base: 40,
            per_hop: 4,
            compute: 4,
        }
    }
}

impl AccessCosts {
    /// Cycles for a remote read over `hops` (request + reply wire time).
    #[inline]
    pub fn remote_read(&self, hops: u32) -> u64 {
        self.remote_base + 2 * self.per_hop * hops as u64
    }

    /// Cycles for one access of `kind` at `hops` distance.
    #[inline]
    pub fn of(&self, kind: crate::stats::AccessKind, hops: u32) -> u64 {
        use crate::stats::AccessKind::*;
        match kind {
            Write => self.write,
            LocalRead => self.local_read,
            CachedRead => self.cached_read,
            RemoteRead => self.remote_read(hops),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::AccessKind;

    #[test]
    fn defaults_order_sensibly() {
        let c = AccessCosts::default();
        assert!(c.local_read < c.cached_read);
        assert!(c.cached_read < c.remote_read(0));
        assert!(c.remote_read(0) < c.remote_read(4));
    }

    #[test]
    fn remote_cost_scales_with_hops() {
        let c = AccessCosts::default();
        assert_eq!(c.remote_read(0), 40);
        assert_eq!(c.remote_read(3), 40 + 2 * 4 * 3);
    }

    #[test]
    fn kind_dispatch() {
        let c = AccessCosts::default();
        assert_eq!(c.of(AccessKind::Write, 9), c.write);
        assert_eq!(c.of(AccessKind::LocalRead, 9), c.local_read);
        assert_eq!(c.of(AccessKind::CachedRead, 9), c.cached_read);
        assert_eq!(c.of(AccessKind::RemoteRead, 2), c.remote_read(2));
    }
}
