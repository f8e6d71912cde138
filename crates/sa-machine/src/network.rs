//! Interconnect models: message and link-load accounting.
//!
//! The paper's abstract claims "the degradation in network performance due
//! to multiprocessing is minimal" and §9 lists "network contention" as the
//! next simulation step. This module provides that step: each remote page
//! fetch is a request/reply pair routed over a topology; we count messages,
//! hops, and per-link traffic so the contention bottleneck (the maximum
//! link load) can be reported alongside remote-read percentages.

use std::collections::HashMap;

/// Interconnect topology: the cheap, `Copy` configuration handle whose
/// [`hops`](NetworkTopology::hops) and [`route`](NetworkTopology::route)
/// define each variant's distance metric and routing. [`Network`] calls
/// both on every recorded message, so a new variant's arms there are all
/// it takes for message, hop, and per-link contention accounting — on the
/// counting simulator, the replay engine, and the thread runtime alike —
/// to understand it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkTopology {
    /// Count messages only; zero hops (the paper's implicit model).
    Ideal,
    /// Full crossbar: one hop between any two distinct PEs.
    Crossbar,
    /// A single shared medium: one hop between any two distinct PEs, but
    /// *every* message loads the same link, so `max_link_load` equals the
    /// total bus traffic — the serialization bottleneck made visible.
    Bus,
    /// Bidirectional ring: minimal cyclic distance.
    Ring,
    /// 2-D mesh (near-square), dimension-ordered (X then Y) routing.
    Mesh2D,
    /// 2-D torus: the mesh plus wraparound links, so each dimension's
    /// distance is cyclic. Ragged PE counts are laid out on the full
    /// near-square rectangle; the unpopulated positions act as
    /// switch-only nodes.
    Torus2D,
    /// Binary hypercube (PE count rounded up to a power of two),
    /// e-cube routing.
    Hypercube,
}

impl NetworkTopology {
    /// Short name for report tables.
    pub fn name(&self) -> &'static str {
        match self {
            NetworkTopology::Ideal => "ideal",
            NetworkTopology::Crossbar => "crossbar",
            NetworkTopology::Bus => "bus",
            NetworkTopology::Ring => "ring",
            NetworkTopology::Mesh2D => "mesh2d",
            NetworkTopology::Torus2D => "torus2d",
            NetworkTopology::Hypercube => "hypercube",
        }
    }

    /// Link traversals for a message `from → to` on a machine of `n` PEs;
    /// 0 for a self-message.
    pub fn hops(&self, n: usize, from: usize, to: usize) -> u32 {
        if from == to {
            return 0;
        }
        match self {
            NetworkTopology::Ideal => 0,
            NetworkTopology::Crossbar | NetworkTopology::Bus => 1,
            NetworkTopology::Ring => {
                let d = from.abs_diff(to);
                d.min(n - d) as u32
            }
            NetworkTopology::Mesh2D => {
                let cols = mesh_cols(n);
                let (fx, fy) = (from % cols, from / cols);
                let (tx, ty) = (to % cols, to / cols);
                (fx.abs_diff(tx) + fy.abs_diff(ty)) as u32
            }
            NetworkTopology::Torus2D => {
                let cols = mesh_cols(n);
                let rows = n.div_ceil(cols).max(1);
                let (fx, fy) = (from % cols, from / cols);
                let (tx, ty) = (to % cols, to / cols);
                let dx = fx.abs_diff(tx);
                let dy = fy.abs_diff(ty);
                (dx.min(cols - dx) + dy.min(rows - dy)) as u32
            }
            NetworkTopology::Hypercube => (from ^ to).count_ones(),
        }
    }

    /// Visit each directed link of the route `from → to` on `n` PEs, in
    /// order: exactly [`hops`](NetworkTopology::hops) visits, none for a
    /// self-message. Link endpoints are node ids — they may exceed `n - 1`
    /// for switch-only intermediate nodes (a ragged torus row, the
    /// [`Bus`](NetworkTopology::Bus)'s shared medium), which carry traffic
    /// but never originate it.
    pub fn route(&self, n: usize, from: usize, to: usize, mut visit: impl FnMut(usize, usize)) {
        if from == to {
            return;
        }
        match self {
            NetworkTopology::Ideal => {}
            NetworkTopology::Crossbar => visit(from, to),
            // The shared medium is modeled as the single pseudo-link
            // (n, n + 1) — ids no real PE pair can collide with — so all
            // traffic aggregates onto one contention figure.
            NetworkTopology::Bus => visit(n, n + 1),
            NetworkTopology::Ring => {
                let d = (to + n - from) % n;
                let step: i64 = if d <= n - d { 1 } else { -1 };
                let mut cur = from as i64;
                while cur as usize != to {
                    let next = (cur + step).rem_euclid(n as i64);
                    visit(cur as usize, next as usize);
                    cur = next;
                }
            }
            NetworkTopology::Mesh2D => {
                let cols = mesh_cols(n);
                let (mut x, mut y) = (from % cols, from / cols);
                let (tx, ty) = (to % cols, to / cols);
                while x != tx {
                    let nx = if x < tx { x + 1 } else { x - 1 };
                    visit(y * cols + x, y * cols + nx);
                    x = nx;
                }
                while y != ty {
                    let ny = if y < ty { y + 1 } else { y - 1 };
                    visit(y * cols + x, ny * cols + x);
                    y = ny;
                }
            }
            NetworkTopology::Torus2D => {
                let cols = mesh_cols(n);
                let rows = n.div_ceil(cols).max(1);
                let (mut x, mut y) = (from % cols, from / cols);
                let (tx, ty) = (to % cols, to / cols);
                // X first, short way around the cycle (wrap links
                // included); intermediate (y, x) positions on a ragged
                // rectangle may not be populated PEs — they are
                // switch-only nodes.
                while x != tx {
                    let d = (tx + cols - x) % cols;
                    let nx = if d <= cols - d {
                        (x + 1) % cols
                    } else {
                        (x + cols - 1) % cols
                    };
                    visit(y * cols + x, y * cols + nx);
                    x = nx;
                }
                while y != ty {
                    let d = (ty + rows - y) % rows;
                    let ny = if d <= rows - d {
                        (y + 1) % rows
                    } else {
                        (y + rows - 1) % rows
                    };
                    visit(y * cols + x, ny * cols + x);
                    y = ny;
                }
            }
            NetworkTopology::Hypercube => {
                // E-cube routing: ascending bits.
                let mut cur = from;
                let mut bit = 0;
                while cur != to {
                    if (cur ^ to) & (1 << bit) != 0 {
                        let next = cur ^ (1 << bit);
                        visit(cur, next);
                        cur = next;
                    }
                    bit += 1;
                }
            }
        }
    }
}

/// Column count of the near-square mesh for `n` PEs.
pub fn mesh_cols(n: usize) -> usize {
    (n as f64).sqrt().ceil() as usize
}

/// A directed link between adjacent nodes.
pub type Link = (usize, usize);

/// Message/hop/link accounting for one run.
#[derive(Debug, Clone)]
pub struct Network {
    topology: NetworkTopology,
    n_pes: usize,
    /// Total request+reply messages.
    pub messages: u64,
    /// Total hop traversals (both directions).
    pub hops: u64,
    /// Messages sent per PE (requests it issued).
    pub sent_per_pe: Vec<u64>,
    /// Traffic per directed link (only for hop-routed topologies).
    link_loads: HashMap<Link, u64>,
}

impl Network {
    /// Fresh accounting for `n_pes` PEs on `topology`.
    pub fn new(topology: NetworkTopology, n_pes: usize) -> Self {
        Network {
            topology,
            n_pes,
            messages: 0,
            hops: 0,
            sent_per_pe: vec![0; n_pes],
            link_loads: HashMap::new(),
        }
    }

    /// The configured topology.
    pub fn topology(&self) -> NetworkTopology {
        self.topology
    }

    /// Record a page fetch: a request `from → to` and a reply `to → from`.
    /// Returns the one-way hop count (for the timing model).
    pub fn record_fetch(&mut self, from: usize, to: usize) -> u32 {
        self.record_fetches(from, to, 1)
    }

    /// Record `count` identical page fetches in one accounting step —
    /// message, hop and link-load totals are linear in the count, so bulk
    /// recording is exact (the replay engine's closed-form remote runs).
    pub fn record_fetches(&mut self, from: usize, to: usize, count: u64) -> u32 {
        let h = self.topology.hops(self.n_pes, from, to);
        self.messages += 2 * count;
        self.hops += 2 * h as u64 * count;
        self.sent_per_pe[from] += count;
        self.route_n(from, to, count);
        self.route_n(to, from, count);
        h
    }

    /// Record a single one-way message (host-protocol traffic).
    pub fn record_message(&mut self, from: usize, to: usize) -> u32 {
        let h = self.topology.hops(self.n_pes, from, to);
        self.messages += 1;
        self.hops += h as u64;
        self.sent_per_pe[from] += 1;
        self.route_n(from, to, 1);
        h
    }

    fn route_n(&mut self, from: usize, to: usize, weight: u64) {
        let loads = &mut self.link_loads;
        self.topology.route(self.n_pes, from, to, |a, b| {
            *loads.entry((a, b)).or_insert(0) += weight;
        });
    }

    /// Fold another accounting block into this one: message/hop totals add,
    /// per-PE send counts add, and per-link traffic is summed link by link.
    ///
    /// Network accounting is purely additive, so sharded executions (e.g.
    /// the per-PE access replay of `sa_core::replay`, where every PE records
    /// its own fetches into a private `Network`) merge into exactly the
    /// totals a single sequential accounting pass would have produced.
    ///
    /// Panics if the two blocks describe different machines.
    pub fn merge(&mut self, other: &Network) {
        assert_eq!(self.n_pes, other.n_pes, "PE count mismatch in merge");
        assert_eq!(self.topology, other.topology, "topology mismatch in merge");
        self.messages += other.messages;
        self.hops += other.hops;
        for (a, b) in self.sent_per_pe.iter_mut().zip(&other.sent_per_pe) {
            *a += b;
        }
        for (link, load) in &other.link_loads {
            *self.link_loads.entry(*link).or_insert(0) += load;
        }
    }

    /// Heaviest directed-link traffic — the contention bottleneck.
    pub fn max_link_load(&self) -> u64 {
        self.link_loads.values().copied().max().unwrap_or(0)
    }

    /// Number of distinct links that carried traffic.
    pub fn active_links(&self) -> usize {
        self.link_loads.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_counts_per_topology() {
        assert_eq!(NetworkTopology::Ideal.hops(8, 0, 5), 0);
        assert_eq!(NetworkTopology::Crossbar.hops(8, 0, 5), 1);
        assert_eq!(NetworkTopology::Crossbar.hops(8, 3, 3), 0);
        // Ring of 8: 0→5 is 3 the short way.
        assert_eq!(NetworkTopology::Ring.hops(8, 0, 5), 3);
        assert_eq!(NetworkTopology::Ring.hops(8, 0, 4), 4);
        // Mesh 3×3 on 9 PEs: 0=(0,0), 8=(2,2) → 4 hops.
        assert_eq!(NetworkTopology::Mesh2D.hops(9, 0, 8), 4);
        // Hypercube: hops = Hamming distance.
        assert_eq!(NetworkTopology::Hypercube.hops(8, 0b000, 0b111), 3);
        assert_eq!(NetworkTopology::Hypercube.hops(8, 0b101, 0b100), 1);
    }

    #[test]
    fn fetch_counts_request_and_reply() {
        let mut n = Network::new(NetworkTopology::Crossbar, 4);
        let h = n.record_fetch(0, 3);
        assert_eq!(h, 1);
        assert_eq!(n.messages, 2);
        assert_eq!(n.hops, 2);
        assert_eq!(n.sent_per_pe, vec![1, 0, 0, 0]);
        assert_eq!(n.active_links(), 2); // 0→3 and 3→0
    }

    #[test]
    fn mesh_routes_dimension_ordered() {
        // 4 PEs → 2×2 mesh. 0=(0,0) to 3=(1,1): X first through node 1.
        let mut n = Network::new(NetworkTopology::Mesh2D, 4);
        n.record_message(0, 3);
        assert_eq!(n.hops, 2);
        assert_eq!(n.active_links(), 2);
        assert_eq!(n.max_link_load(), 1);
    }

    #[test]
    fn ring_takes_short_way_around() {
        let mut n = Network::new(NetworkTopology::Ring, 6);
        n.record_message(0, 5); // short way is 0→5 directly (distance 1)
        assert_eq!(n.hops, 1);
        assert!(n.active_links() == 1);
    }

    #[test]
    fn hypercube_ecube_routing_loads_each_dimension_once() {
        let mut n = Network::new(NetworkTopology::Hypercube, 8);
        n.record_message(0b000, 0b110);
        assert_eq!(n.hops, 2);
        assert_eq!(n.active_links(), 2);
    }

    #[test]
    fn contention_metrics_aggregate() {
        let mut n = Network::new(NetworkTopology::Ring, 4);
        // Everyone sends to PE 0; links near 0 get hot.
        for from in 1..4 {
            n.record_message(from, 0);
        }
        assert!(n.max_link_load() >= 1);
        // Ideal topology records messages but no links.
        let mut i = Network::new(NetworkTopology::Ideal, 4);
        i.record_fetch(1, 2);
        assert_eq!(i.messages, 2);
        assert_eq!(i.max_link_load(), 0);
    }

    #[test]
    fn merge_matches_sequential_accounting() {
        // Recording fetches into two shards and merging must equal one
        // sequential accounting pass over the same events.
        let events = [(0usize, 3usize), (1, 2), (3, 0), (2, 0), (0, 3)];
        let mut sequential = Network::new(NetworkTopology::Ring, 4);
        for &(f, t) in &events {
            sequential.record_fetch(f, t);
        }
        let mut a = Network::new(NetworkTopology::Ring, 4);
        let mut b = Network::new(NetworkTopology::Ring, 4);
        for (i, &(f, t)) in events.iter().enumerate() {
            if i % 2 == 0 {
                a.record_fetch(f, t);
            } else {
                b.record_fetch(f, t);
            }
        }
        a.merge(&b);
        assert_eq!(a.messages, sequential.messages);
        assert_eq!(a.hops, sequential.hops);
        assert_eq!(a.sent_per_pe, sequential.sent_per_pe);
        assert_eq!(a.max_link_load(), sequential.max_link_load());
        assert_eq!(a.active_links(), sequential.active_links());
    }

    #[test]
    fn bus_serializes_everything_onto_one_link() {
        let mut n = Network::new(NetworkTopology::Bus, 4);
        n.record_fetch(0, 3);
        n.record_fetch(1, 2);
        n.record_message(2, 0);
        // 2 + 2 + 1 messages, each one hop over the shared medium.
        assert_eq!(n.messages, 5);
        assert_eq!(n.hops, 5);
        assert_eq!(n.active_links(), 1);
        assert_eq!(n.max_link_load(), 5);
    }

    #[test]
    fn torus_wraps_where_mesh_walks() {
        // 3×3 grid: corner to corner is 4 mesh hops but 2 torus hops
        // (one wrap per dimension).
        assert_eq!(NetworkTopology::Mesh2D.hops(9, 0, 8), 4);
        assert_eq!(NetworkTopology::Torus2D.hops(9, 0, 8), 2);
        let mut n = Network::new(NetworkTopology::Torus2D, 9);
        n.record_message(0, 8);
        assert_eq!(n.hops, 2);
        assert_eq!(n.active_links(), 2);
    }

    #[test]
    fn every_route_visits_exactly_hops_links() {
        // The routing contract: route() emits one visit per hop, for
        // every topology and every ordered PE pair, including ragged
        // (non-square, non-power-of-two) machine sizes.
        for topo in [
            NetworkTopology::Ideal,
            NetworkTopology::Crossbar,
            NetworkTopology::Bus,
            NetworkTopology::Ring,
            NetworkTopology::Mesh2D,
            NetworkTopology::Torus2D,
            NetworkTopology::Hypercube,
        ] {
            for n in [1usize, 2, 4, 6, 7, 9, 16] {
                for from in 0..n {
                    for to in 0..n {
                        let mut visits = 0u32;
                        topo.route(n, from, to, |a, b| {
                            assert_ne!(a, b, "{topo:?} n={n} degenerate link");
                            visits += 1;
                        });
                        assert_eq!(
                            visits,
                            topo.hops(n, from, to),
                            "{topo:?} n={n} {from}->{to}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn names_cover_all_topologies() {
        assert_eq!(NetworkTopology::Bus.name(), "bus");
        assert_eq!(NetworkTopology::Torus2D.name(), "torus2d");
        assert_eq!(NetworkTopology::Mesh2D.name(), "mesh2d");
    }

    #[test]
    fn self_messages_cost_nothing() {
        let mut n = Network::new(NetworkTopology::Mesh2D, 9);
        let h = n.record_message(4, 4);
        assert_eq!(h, 0);
        assert_eq!(n.hops, 0);
        assert_eq!(n.active_links(), 0);
    }
}
