//! Access accounting and load-balance metrics.
//!
//! The paper's simulation "categorized accesses as: write (always local),
//! local read, cached read, remote read" and accumulated totals per loop
//! (§7). Load balance (§7.2) is judged by how evenly remote and local reads
//! spread across PEs — Figure 5's two series.

/// The four access categories of paper §7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A producer write — always local under owner-computes.
    Write,
    /// A read of an element the reading PE owns.
    LocalRead,
    /// A read satisfied by the PE's page cache.
    CachedRead,
    /// A read requiring a page fetch from the owning PE.
    RemoteRead,
}

/// Per-PE access counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeCounters {
    /// Producer writes executed by this PE.
    pub writes: u64,
    /// Reads of locally owned elements.
    pub local_reads: u64,
    /// Reads satisfied from the page cache.
    pub cached_reads: u64,
    /// Reads that fetched a page from a remote PE.
    pub remote_reads: u64,
}

impl PeCounters {
    /// All reads by this PE.
    pub fn total_reads(&self) -> u64 {
        self.local_reads + self.cached_reads + self.remote_reads
    }

    /// Record one access.
    #[inline]
    pub fn record(&mut self, kind: AccessKind) {
        match kind {
            AccessKind::Write => self.writes += 1,
            AccessKind::LocalRead => self.local_reads += 1,
            AccessKind::CachedRead => self.cached_reads += 1,
            AccessKind::RemoteRead => self.remote_reads += 1,
        }
    }
}

/// Machine-wide access statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Counters per PE.
    pub per_pe: Vec<PeCounters>,
    /// Page fetch messages (request+reply counted by the network model).
    pub page_fetches: u64,
    /// Remote reads that re-fetched a partially filled page already cached
    /// (only non-zero under [`crate::PartialPagePolicy::Refetch`]).
    pub partial_refetches: u64,
    /// Messages spent in host-processor re-initialization rounds (§5).
    pub reinit_messages: u64,
    /// Messages carrying reduction partial results to their host PE (§9's
    /// vector→scalar collection).
    pub reduction_messages: u64,
}

impl Stats {
    /// Counters zeroed for `n_pes` PEs.
    pub fn new(n_pes: usize) -> Self {
        Stats {
            per_pe: vec![PeCounters::default(); n_pes],
            page_fetches: 0,
            partial_refetches: 0,
            reinit_messages: 0,
            reduction_messages: 0,
        }
    }

    /// Record one access by `pe`.
    #[inline]
    pub fn record(&mut self, pe: usize, kind: AccessKind) {
        self.per_pe[pe].record(kind);
    }

    /// Total writes across PEs.
    pub fn writes(&self) -> u64 {
        self.per_pe.iter().map(|c| c.writes).sum()
    }

    /// Total reads across PEs.
    pub fn total_reads(&self) -> u64 {
        self.per_pe.iter().map(PeCounters::total_reads).sum()
    }

    /// Total local reads.
    pub fn local_reads(&self) -> u64 {
        self.per_pe.iter().map(|c| c.local_reads).sum()
    }

    /// Total cached reads.
    pub fn cached_reads(&self) -> u64 {
        self.per_pe.iter().map(|c| c.cached_reads).sum()
    }

    /// Total remote reads.
    pub fn remote_reads(&self) -> u64 {
        self.per_pe.iter().map(|c| c.remote_reads).sum()
    }

    /// The paper's headline metric: *% of Reads Remote* (§7).
    /// 0 when no reads occurred.
    pub fn remote_read_pct(&self) -> f64 {
        let total = self.total_reads();
        if total == 0 {
            0.0
        } else {
            100.0 * self.remote_reads() as f64 / total as f64
        }
    }

    /// Fraction of reads served by the cache.
    pub fn cached_read_pct(&self) -> f64 {
        let total = self.total_reads();
        if total == 0 {
            0.0
        } else {
            100.0 * self.cached_reads() as f64 / total as f64
        }
    }

    /// Remote reads per PE (Figure 5's first series).
    pub fn remote_reads_per_pe(&self) -> Vec<u64> {
        self.per_pe.iter().map(|c| c.remote_reads).collect()
    }

    /// Local (+cached) reads per PE (Figure 5's second series — the paper
    /// plots "local" as reads that did not cross the network).
    pub fn local_reads_per_pe(&self) -> Vec<u64> {
        self.per_pe
            .iter()
            .map(|c| c.local_reads + c.cached_reads)
            .collect()
    }

    /// Writes per PE.
    pub fn writes_per_pe(&self) -> Vec<u64> {
        self.per_pe.iter().map(|c| c.writes).collect()
    }

    /// Merge another stats block (used when aggregating phases).
    pub fn merge(&mut self, other: &Stats) {
        assert_eq!(
            self.per_pe.len(),
            other.per_pe.len(),
            "PE count mismatch in merge"
        );
        for (a, b) in self.per_pe.iter_mut().zip(&other.per_pe) {
            a.writes += b.writes;
            a.local_reads += b.local_reads;
            a.cached_reads += b.cached_reads;
            a.remote_reads += b.remote_reads;
        }
        self.page_fetches += other.page_fetches;
        self.partial_refetches += other.partial_refetches;
        self.reinit_messages += other.reinit_messages;
        self.reduction_messages += other.reduction_messages;
    }
}

/// Summary statistics of a per-PE distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadBalance {
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest per-PE value.
    pub min: u64,
    /// Largest per-PE value.
    pub max: u64,
    /// Coefficient of variation (σ/μ; 0 = perfectly balanced).
    pub cv: f64,
    /// Jain's fairness index ((Σx)² / (n·Σx²); 1 = perfectly balanced).
    pub jain: f64,
}

/// Compute load-balance metrics over per-PE values.
pub fn load_balance(values: &[u64]) -> LoadBalance {
    if values.is_empty() {
        return LoadBalance {
            mean: 0.0,
            min: 0,
            max: 0,
            cv: 0.0,
            jain: 1.0,
        };
    }
    let n = values.len() as f64;
    let sum: f64 = values.iter().map(|&v| v as f64).sum();
    let mean = sum / n;
    let var = values
        .iter()
        .map(|&v| (v as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    let sq_sum: f64 = values.iter().map(|&v| (v as f64).powi(2)).sum();
    LoadBalance {
        mean,
        min: *values.iter().min().expect("non-empty"),
        max: *values.iter().max().expect("non-empty"),
        cv: if mean > 0.0 { var.sqrt() / mean } else { 0.0 },
        jain: if sq_sum > 0.0 {
            sum * sum / (n * sq_sum)
        } else {
            1.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_record_each_kind() {
        let mut c = PeCounters::default();
        c.record(AccessKind::Write);
        c.record(AccessKind::LocalRead);
        c.record(AccessKind::LocalRead);
        c.record(AccessKind::CachedRead);
        c.record(AccessKind::RemoteRead);
        assert_eq!(c.writes, 1);
        assert_eq!(c.local_reads, 2);
        assert_eq!(c.cached_reads, 1);
        assert_eq!(c.remote_reads, 1);
        assert_eq!(c.total_reads(), 4);
    }

    #[test]
    fn remote_pct_is_remote_over_all_reads() {
        let mut s = Stats::new(2);
        s.record(0, AccessKind::LocalRead);
        s.record(0, AccessKind::RemoteRead);
        s.record(1, AccessKind::CachedRead);
        s.record(1, AccessKind::RemoteRead);
        assert_eq!(s.total_reads(), 4);
        assert_eq!(s.remote_reads(), 2);
        assert!((s.remote_read_pct() - 50.0).abs() < 1e-12);
        assert!((s.cached_read_pct() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_report_zero_pct() {
        let s = Stats::new(4);
        assert_eq!(s.remote_read_pct(), 0.0);
        assert_eq!(s.cached_read_pct(), 0.0);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = Stats::new(2);
        a.record(0, AccessKind::Write);
        a.page_fetches = 3;
        let mut b = Stats::new(2);
        b.record(0, AccessKind::Write);
        b.record(1, AccessKind::RemoteRead);
        b.partial_refetches = 1;
        a.merge(&b);
        assert_eq!(a.per_pe[0].writes, 2);
        assert_eq!(a.per_pe[1].remote_reads, 1);
        assert_eq!(a.page_fetches, 3);
        assert_eq!(a.partial_refetches, 1);
    }

    #[test]
    fn per_pe_series_for_figure_5() {
        let mut s = Stats::new(3);
        s.record(0, AccessKind::LocalRead);
        s.record(0, AccessKind::CachedRead);
        s.record(1, AccessKind::RemoteRead);
        assert_eq!(s.local_reads_per_pe(), vec![2, 0, 0]);
        assert_eq!(s.remote_reads_per_pe(), vec![0, 1, 0]);
    }

    #[test]
    fn perfectly_balanced_load() {
        let lb = load_balance(&[100, 100, 100, 100]);
        assert_eq!(lb.mean, 100.0);
        assert_eq!(lb.cv, 0.0);
        assert!((lb.jain - 1.0).abs() < 1e-12);
        assert_eq!((lb.min, lb.max), (100, 100));
    }

    #[test]
    fn skewed_load_detected() {
        let lb = load_balance(&[0, 0, 0, 400]);
        assert!(lb.cv > 1.0);
        assert!((lb.jain - 0.25).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        let lb = load_balance(&[]);
        assert_eq!(lb.jain, 1.0);
        let lb = load_balance(&[0, 0]);
        assert_eq!(lb.cv, 0.0);
        assert_eq!(lb.jain, 1.0);
    }
}
