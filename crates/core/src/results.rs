//! Result sets: grid measurements with group-by/pivot selection.
//!
//! A [`ResultSet`] is the ordered output of an evaluated
//! [`crate::plan::ExperimentPlan`]. Figures and tables *select* the points
//! they want — by predicate, group key or pivot — instead of depending on
//! the enumeration order of the loop that produced them, so reordering a
//! plan's axes never changes what a figure shows.
//!
//! The typed [`Column`] selectors bridge records to the string-matrix
//! emitters in [`crate::report`] (`markdown_table`, `csv`, `json`).

use sa_machine::CachePolicy;

use crate::oracle::RunRecord;
use crate::report::{fmt_pct, Series};

/// Short report name of a replacement policy (the legacy sweep labels).
pub fn policy_name(policy: CachePolicy) -> &'static str {
    match policy {
        CachePolicy::Lru => "lru",
        CachePolicy::Fifo => "fifo",
        CachePolicy::Random { .. } => "random",
    }
}

/// Measurements of a whole grid, in grid (mixed-radix) order.
#[derive(Debug, Clone, Default)]
pub struct ResultSet {
    records: Vec<RunRecord>,
}

impl ResultSet {
    /// Wrap records (kept in the given order).
    pub fn new(records: Vec<RunRecord>) -> Self {
        ResultSet { records }
    }

    /// The records in grid order.
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }

    /// Number of measured points.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing was measured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// First record matching `pred` (grid order).
    pub fn find(&self, pred: impl Fn(&RunRecord) -> bool) -> Option<&RunRecord> {
        self.records.iter().find(|r| pred(r))
    }

    /// All records matching `pred`, as a new set (grid order preserved).
    pub fn filter(&self, pred: impl Fn(&RunRecord) -> bool) -> ResultSet {
        ResultSet::new(
            self.records
                .iter()
                .filter(|r| pred(r))
                .cloned()
                .collect::<Vec<_>>(),
        )
    }

    /// Group records by `key`, preserving first-seen group order and grid
    /// order within each group. This is the order-independence workhorse:
    /// a figure groups by its series key no matter which axis order
    /// produced the records.
    pub fn group_by<K: PartialEq>(
        &self,
        key: impl Fn(&RunRecord) -> K,
    ) -> Vec<(K, Vec<&RunRecord>)> {
        let mut groups: Vec<(K, Vec<&RunRecord>)> = Vec::new();
        for r in &self.records {
            let k = key(r);
            match groups.iter_mut().find(|(g, _)| *g == k) {
                Some((_, members)) => members.push(r),
                None => groups.push((k, vec![r])),
            }
        }
        groups
    }

    /// Pivot into plot series: one [`Series`] per `series_key` group, with
    /// `(x, y)` points in grid order.
    pub fn series(
        &self,
        series_key: impl Fn(&RunRecord) -> String,
        x: impl Fn(&RunRecord) -> f64,
        y: impl Fn(&RunRecord) -> f64,
    ) -> Vec<Series> {
        self.group_by(series_key)
            .into_iter()
            .map(|(label, members)| Series {
                label,
                points: members.iter().map(|r| (x(r), y(r))).collect(),
            })
            .collect()
    }

    /// Render the chosen columns as a string matrix for the
    /// [`crate::report`] emitters.
    pub fn rows(&self, columns: &[Column]) -> Vec<Vec<String>> {
        self.records
            .iter()
            .map(|r| columns.iter().map(|c| c.cell(r)).collect())
            .collect()
    }
}

/// A typed column selector: which field of a [`RunRecord`] a report shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Column {
    /// Kernel code (blank when the plan ran a single program).
    Kernel,
    /// PE count.
    Pes,
    /// Page size in elements.
    PageSize,
    /// Cache size in elements.
    CacheElems,
    /// Cache on/off flag.
    Cached,
    /// Replacement policy name.
    Policy,
    /// Partition scheme name.
    Partition,
    /// Network topology name.
    Network,
    /// Remote reads as a percentage of all reads.
    RemotePct,
    /// Cached reads as a percentage of all reads.
    CachedPct,
    /// Absolute remote reads.
    RemoteReads,
    /// Absolute total reads.
    TotalReads,
    /// Network messages.
    Messages,
    /// Total hop traversals.
    Hops,
    /// Heaviest directed-link traffic.
    MaxLinkLoad,
    /// Estimated cycles (blank unless a timing oracle ran).
    Cycles,
}

impl Column {
    /// Header text for this column.
    pub fn header(&self) -> &'static str {
        match self {
            Column::Kernel => "kernel",
            Column::Pes => "pes",
            Column::PageSize => "page_size",
            Column::CacheElems => "cache_elems",
            Column::Cached => "cached",
            Column::Policy => "policy",
            Column::Partition => "partition",
            Column::Network => "network",
            Column::RemotePct => "remote_pct",
            Column::CachedPct => "cached_pct",
            Column::RemoteReads => "remote_reads",
            Column::TotalReads => "total_reads",
            Column::Messages => "messages",
            Column::Hops => "hops",
            Column::MaxLinkLoad => "max_link_load",
            Column::Cycles => "cycles",
        }
    }

    /// Headers for a column list (feeds `markdown_table`/`csv`/`json`).
    pub fn headers(columns: &[Column]) -> Vec<&'static str> {
        columns.iter().map(Column::header).collect()
    }

    /// Render one record's cell.
    pub fn cell(&self, r: &RunRecord) -> String {
        match self {
            Column::Kernel => r.cfg.kernel.clone().unwrap_or_default(),
            Column::Pes => r.cfg.n_pes.to_string(),
            Column::PageSize => r.cfg.page_size.to_string(),
            Column::CacheElems => r.cfg.cache_elems.to_string(),
            Column::Cached => r.cfg.cached().to_string(),
            Column::Policy => policy_name(r.cfg.cache_policy).to_string(),
            Column::Partition => r.cfg.partition.name(),
            Column::Network => r.cfg.network.name().to_string(),
            Column::RemotePct => fmt_pct(r.remote_pct),
            Column::CachedPct => fmt_pct(r.cached_pct),
            Column::RemoteReads => r.remote_reads.to_string(),
            Column::TotalReads => r.total_reads.to_string(),
            Column::Messages => r.messages.to_string(),
            Column::Hops => r.hops.to_string(),
            Column::MaxLinkLoad => r.max_link_load.to_string(),
            Column::Cycles => crate::report::fmt_opt_u64(r.cycles),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::RunConfig;

    fn rec(n_pes: usize, page_size: usize, remote_pct: f64) -> RunRecord {
        RunRecord {
            cfg: RunConfig {
                n_pes,
                page_size,
                ..RunConfig::default()
            },
            remote_pct,
            cached_pct: 0.0,
            writes: 1,
            local_reads: 1,
            cached_reads: 0,
            remote_reads: 2,
            total_reads: 3,
            messages: 4,
            hops: 0,
            max_link_load: 0,
            write_balance: 1.0,
            cycles: None,
        }
    }

    fn demo() -> ResultSet {
        ResultSet::new(vec![
            rec(1, 32, 0.0),
            rec(2, 32, 5.0),
            rec(1, 64, 1.0),
            rec(2, 64, 6.0),
        ])
    }

    #[test]
    fn group_by_preserves_first_seen_order() {
        let rs = demo();
        let by_ps = rs.group_by(|r| r.cfg.page_size);
        assert_eq!(by_ps.len(), 2);
        assert_eq!(by_ps[0].0, 32);
        assert_eq!(by_ps[0].1.len(), 2);
        assert_eq!(by_ps[1].0, 64);
    }

    #[test]
    fn series_pivot_selects_not_orders() {
        let rs = demo();
        let series = rs.series(
            |r| format!("ps {}", r.cfg.page_size),
            |r| r.cfg.n_pes as f64,
            |r| r.remote_pct,
        );
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].label, "ps 32");
        assert_eq!(series[0].points, vec![(1.0, 0.0), (2.0, 5.0)]);
        assert_eq!(series[1].points, vec![(1.0, 1.0), (2.0, 6.0)]);
    }

    #[test]
    fn rows_render_typed_columns() {
        let rs = demo();
        let cols = [Column::Pes, Column::PageSize, Column::RemotePct];
        assert_eq!(
            Column::headers(&cols),
            vec!["pes", "page_size", "remote_pct"]
        );
        let rows = rs.rows(&cols);
        assert_eq!(rows[1], vec!["2", "32", "5.00%"]);
    }

    #[test]
    fn find_and_filter_select_by_predicate() {
        let rs = demo();
        let p = rs
            .find(|r| r.cfg.n_pes == 2 && r.cfg.page_size == 64)
            .unwrap();
        assert_eq!(p.remote_pct, 6.0);
        assert_eq!(rs.filter(|r| r.cfg.page_size == 32).len(), 2);
    }
}
