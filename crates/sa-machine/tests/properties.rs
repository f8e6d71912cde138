//! Property tests for the machine substrate.

use proptest::prelude::*;

use sa_machine::machine::{ArraySpec, DistributedMachine};
use sa_machine::{
    AccessKind, CachePolicy, MachineConfig, NetworkTopology, PageKey, PartialPagePolicy,
    PartitionScheme, PolicyCache, Probe,
};
use sa_mem::PageMemo;

fn any_topology() -> impl Strategy<Value = NetworkTopology> {
    prop_oneof![
        Just(NetworkTopology::Ideal),
        Just(NetworkTopology::Crossbar),
        Just(NetworkTopology::Bus),
        Just(NetworkTopology::Ring),
        Just(NetworkTopology::Mesh2D),
        Just(NetworkTopology::Torus2D),
        Just(NetworkTopology::Hypercube),
    ]
}

proptest! {
    /// Hop counts are symmetric, zero iff self, and bounded by the
    /// topology's diameter.
    #[test]
    fn hops_are_metric_like(
        topo in any_topology(),
        n in 1usize..65,
        a in 0usize..65,
        b in 0usize..65,
    ) {
        let (a, b) = (a % n, b % n);
        let h_ab = topo.hops(n, a, b);
        let h_ba = topo.hops(n, b, a);
        prop_assert_eq!(h_ab, h_ba, "symmetry");
        prop_assert_eq!(h_ab == 0, a == b || matches!(topo, NetworkTopology::Ideal));
        let diameter = match topo {
            NetworkTopology::Ideal => 0,
            NetworkTopology::Crossbar | NetworkTopology::Bus => 1,
            NetworkTopology::Ring => (n / 2) as u32,
            NetworkTopology::Mesh2D => (2 * sa_machine::network::mesh_cols(n)) as u32,
            // Per-dimension cyclic distance is at most half the extent.
            NetworkTopology::Torus2D => sa_machine::network::mesh_cols(n) as u32 + 1,
            NetworkTopology::Hypercube => usize::BITS - n.leading_zeros(),
        };
        prop_assert!(h_ab <= diameter.max(1), "{h_ab} > diameter {diameter}");
    }

    /// For any machine configuration, a full read scan of an input array
    /// conserves counts, never sees coherence traffic, and classifies
    /// every access as exactly one category.
    #[test]
    fn read_scan_conserves_counts(
        n_pes in 1usize..17,
        page_size in prop::sample::select(vec![4usize, 8, 16, 32, 64]),
        cache_elems in prop::sample::select(vec![0usize, 64, 256, 1024]),
        scheme in prop_oneof![
            Just(PartitionScheme::Modulo),
            Just(PartitionScheme::Block),
            (1usize..4).prop_map(|b| PartitionScheme::BlockCyclic { block_pages: b }),
        ],
        reader in 0usize..17,
        len in 1usize..600,
    ) {
        let reader = reader % n_pes;
        let cfg = MachineConfig::new(n_pes, page_size)
            .with_cache_elems(cache_elems)
            .with_partition(scheme);
        let mut m = DistributedMachine::new(
            cfg,
            vec![ArraySpec {
                name: "B".into(),
                len,
                dims: vec![],
                init: (0..len).map(|i| i as f64).collect(),
            }],
        ).unwrap();
        // One access site walking the array: its memo steps page to page.
        let mut memo = PageMemo::default();
        for addr in 0..len {
            let (v, kind, hops) = m.read(reader, 0, addr, &mut memo).unwrap();
            prop_assert_eq!(v, addr as f64);
            if kind != AccessKind::RemoteRead {
                prop_assert_eq!(hops, 0);
            }
        }
        let s = m.stats();
        prop_assert_eq!(s.total_reads(), len as u64);
        prop_assert_eq!(
            s.total_reads(),
            s.local_reads() + s.cached_reads() + s.remote_reads()
        );
        // Fetch messages are exactly 2 per remote read (request + reply).
        prop_assert_eq!(m.network().messages, 2 * s.remote_reads());
        // A second identical scan can only hit local or cache (all pages of
        // an immutable array are complete), if a cache exists that is big
        // enough to keep at least the last page.
        if cfg.cache_enabled() {
            let before = s.remote_reads();
            let mut m2 = m.clone();
            let mut memo = PageMemo::default();
            for addr in (0..len).rev().take(page_size.min(len)) {
                let (_, kind, _) = m2.read(reader, 0, addr, &mut memo).unwrap();
                prop_assert_ne!(kind, AccessKind::Write);
            }
            let _ = before;
        }
    }

    /// Reads are repeatable: scanning twice with a warm cache can only
    /// lower the remote count of the second pass.
    #[test]
    fn second_pass_never_worse(
        n_pes in 2usize..9,
        len in 64usize..400,
    ) {
        let cfg = MachineConfig::new(n_pes, 16);
        let mut m = DistributedMachine::new(
            cfg,
            vec![ArraySpec { name: "B".into(), len, dims: vec![], init: vec![1.0; len] }],
        ).unwrap();
        for addr in 0..len {
            m.read(0, 0, addr, &mut PageMemo::default()).unwrap();
        }
        let first = m.stats().remote_reads();
        for addr in 0..len {
            m.read(0, 0, addr, &mut PageMemo::default()).unwrap();
        }
        let second = m.stats().remote_reads() - first;
        prop_assert!(second <= first);
    }

    /// Under the Refetch policy, every partial refetch is also a remote
    /// read, and refetches never occur for fully initialized arrays.
    #[test]
    fn refetch_accounting(
        n_pes in 2usize..9,
        len in 32usize..256,
        policy in prop_oneof![
            Just(PartialPagePolicy::Ignore),
            Just(PartialPagePolicy::Refetch)
        ],
    ) {
        let cfg = MachineConfig::new(n_pes, 8)
            .with_partial_pages(policy)
            .with_cache_policy(CachePolicy::Lru);
        let mut m = DistributedMachine::new(
            cfg,
            vec![ArraySpec { name: "B".into(), len, dims: vec![], init: vec![2.0; len] }],
        ).unwrap();
        for addr in 0..len {
            m.read(0, 0, addr, &mut PageMemo::default()).unwrap();
        }
        prop_assert_eq!(m.stats().partial_refetches, 0);
        prop_assert!(m.stats().partial_refetches <= m.stats().remote_reads());
    }
}

fn any_scheme() -> impl Strategy<Value = PartitionScheme> {
    prop_oneof![
        Just(PartitionScheme::Modulo),
        Just(PartitionScheme::Block),
        (1usize..8).prop_map(|b| PartitionScheme::BlockCyclic { block_pages: b }),
        Just(PartitionScheme::RowBand),
        ((1usize..9), (1usize..9)).prop_map(|(r, c)| PartitionScheme::Tile2D {
            tile_rows: r,
            tile_cols: c,
        }),
    ]
}

/// A one-dimensional array of `len` elements under `scheme`.
fn linear(scheme: PartitionScheme, page_size: usize, n_pes: usize, len: usize) -> Placement {
    Placement::new(scheme, page_size, n_pes, ArrayShape::from_dims(&[len]))
}

proptest! {
    /// Every scheme's owner is a valid PE for every page of the array, and
    /// for every page past it.
    #[test]
    fn owner_always_below_n_pes(
        scheme in any_scheme(),
        len in 0usize..300,
        page_size in 1usize..9,
        n_pes in 1usize..65,
    ) {
        let pl = linear(scheme, page_size, n_pes, len);
        for page in 0..pl.pages() + 3 {
            let o = pl.page_owner(page);
            prop_assert!(o < n_pes, "{scheme:?}: page {page} of {len} elements on {n_pes} PEs → {o}");
        }
    }

    /// `BlockCyclic(1)` is exactly the paper's modulo scheme.
    #[test]
    fn blockcyclic_one_is_modulo(len in 1usize..300, page_size in 1usize..9, n_pes in 1usize..33) {
        let bc = linear(PartitionScheme::BlockCyclic { block_pages: 1 }, page_size, n_pes, len);
        let modulo = linear(PartitionScheme::Modulo, page_size, n_pes, len);
        for page in 0..bc.pages() {
            prop_assert_eq!(bc.page_owner(page), modulo.page_owner(page));
        }
    }

    /// `BlockCyclic(ceil(P/N))` is exactly the division (Block) scheme.
    #[test]
    fn blockcyclic_ceil_is_block(len in 1usize..300, page_size in 1usize..9, n_pes in 1usize..33) {
        let block = linear(PartitionScheme::Block, page_size, n_pes, len);
        let chunk = block.pages().div_ceil(n_pes).max(1);
        let bc = linear(PartitionScheme::BlockCyclic { block_pages: chunk }, page_size, n_pes, len);
        for page in 0..block.pages() {
            prop_assert_eq!(bc.page_owner(page), block.page_owner(page));
        }
    }
}

use sa_machine::{ArrayShape, Placement};

proptest! {
    /// The owned intervals of all PEs partition the page set: every page
    /// appears exactly once, on the PE `page_owner` names, for all schemes
    /// over every shape.
    #[test]
    fn every_page_has_exactly_one_owner(
        scheme in any_scheme(),
        rows in 0usize..25,
        cols in 1usize..25,
        page_size in prop::sample::select(vec![1usize, 4, 8, 32]),
        n_pes in 1usize..17,
    ) {
        let pl = Placement::new(scheme, page_size, n_pes, ArrayShape::from_dims(&[rows, cols]));
        let mut seen = vec![0usize; pl.pages()];
        for pe in 0..n_pes {
            pl.owned_page_intervals(pe, 0, pl.pages().saturating_sub(1), |q0, q1| {
                for page in q0..q1.min(seen.len()) {
                    assert_eq!(pl.page_owner(page), pe);
                    seen[page] += 1;
                }
            });
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "{scheme:?}: {seen:?}");
    }

    /// No scheme wraps a page past the end: probing past the array clamps
    /// to the owner of the last real page.
    #[test]
    fn placement_clamps_out_of_domain(
        scheme in any_scheme(),
        rows in 1usize..25,
        cols in 1usize..25,
        n_pes in 1usize..9,
        past in 0usize..10,
    ) {
        let pl = Placement::new(scheme, 8, n_pes, ArrayShape::from_dims(&[rows, cols]));
        let last = pl.page_owner(pl.pages() - 1);
        prop_assert_eq!(pl.page_owner(pl.pages() + past), last, "{:?}", scheme);
    }
}

proptest! {
    // Cheap per case and the closed forms have many edge regimes: run more
    // cases than the default 64.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `owned_page_intervals` enumerates exactly the owned pages of the
    /// probed range — ascending, disjoint and maximal — for every scheme over 1-/2-/3-D shapes, tile extents that
    /// do not divide the grid, pages longer than a row or than the whole
    /// array, and ranges that start or end past the last page.
    #[test]
    fn placement_intervals_match_brute_force(
        scheme in prop_oneof![
            any_scheme(),
            ((1usize..40), (1usize..40)).prop_map(|(r, c)| PartitionScheme::Tile2D {
                tile_rows: r,
                tile_cols: c,
            }),
        ],
        dims in prop_oneof![
            (1usize..200).prop_map(|n| vec![n]),
            ((1usize..20), (1usize..20)).prop_map(|(r, c)| vec![r, c]),
            ((1usize..8), (1usize..8), (1usize..8)).prop_map(|(a, b, c)| vec![a, b, c]),
        ],
        page_size in prop::sample::select(vec![1usize, 3, 4, 8, 32, 100, 1000]),
        n_pes in 1usize..17,
        lo in 0usize..1000,
        span in 0usize..1000,
    ) {
        let pl = Placement::new(scheme, page_size, n_pes, ArrayShape::from_dims(&dims));
        let pages = pl.pages();
        prop_assert!(pages > 0); // every extent ≥ 1 ⇒ at least one page
        let plo = lo % (pages + 3);
        let phi = plo + span % (pages + 10);
        for pe in 0..n_pes {
            let mut got = Vec::new();
            let mut prev_end = None;
            pl.owned_page_intervals(pe, plo, phi, |q0, q1| {
                assert!(q0 < q1 && q0 >= plo && q1 <= phi + 1, "[{q0},{q1}) outside [{plo},{phi}]");
                if let Some(end) = prev_end {
                    assert!(q0 > end, "[{q0},{q1}) not merged with its predecessor");
                }
                prev_end = Some(q1);
                got.extend(q0..q1);
            });
            let want: Vec<usize> =
                (plo..=phi).filter(|&q| pl.page_owner(q) == pe).collect();
            prop_assert_eq!(
                got, want,
                "{:?} {:?} ps={} pe={}/{} [{}..={}]", scheme, &dims, page_size, pe, n_pes, plo, phi
            );
        }
    }
}

/// One step of a cache workload.
#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Access(PageKey),
    /// The host's re-initialization broadcast for one array.
    Invalidate(usize),
    /// Move every resident page of one array up by a few pages.
    Rekey {
        array: usize,
        by: usize,
    },
}

fn any_cache_op() -> impl Strategy<Value = CacheOp> {
    // Mostly accesses; few enough arrays, pages and generations that the
    // stream hits, misses and evicts.
    let parts = (0u8..24, 0usize..3, 0usize..48, 0u32..2);
    parts.prop_map(|(kind, array, page, generation)| match kind {
        0 => CacheOp::Invalidate(array),
        1 => CacheOp::Rekey {
            array,
            by: page % 5,
        },
        _ => CacheOp::Access(PageKey {
            array,
            page,
            generation,
        }),
    })
}

proptest! {
    /// `access` is `probe_with` followed, on a miss, by `insert_with`, in
    /// one scan: after every step of a random stream — re-initializations
    /// and re-keyings interleaved — the two agree on the hit, the hit
    /// counts, the resident keys in stamp order and the Random picker.
    #[test]
    fn access_is_a_probe_then_an_insert_on_a_miss(
        policy in prop_oneof![
            Just(CachePolicy::Lru),
            Just(CachePolicy::Fifo),
            (0u64..1000).prop_map(|seed| CachePolicy::Random { seed }),
        ],
        capacity in 0usize..41,
        ops in prop::collection::vec(any_cache_op(), 1..300),
    ) {
        let mut fused: PolicyCache<u32> = PolicyCache::new(capacity, policy);
        let mut split = fused.clone();
        let (mut order, mut want) = (Vec::new(), Vec::new());
        for (step, op) in ops.iter().enumerate() {
            match *op {
                CacheOp::Access(key) => {
                    let hit = fused.access(key, step as u32);
                    let probed = split.probe_with(key, |&v| Some(v));
                    let split_hit = matches!(probed, Probe::Hit(_));
                    if !split_hit {
                        split.insert_with(key, step as u32, |_, _| unreachable!("absent"));
                    }
                    prop_assert_eq!(hit, split_hit, "step {}: {:?}", step, op);
                }
                CacheOp::Invalidate(array) => {
                    fused.invalidate_array(array);
                    split.invalidate_array(array);
                }
                CacheOp::Rekey { array, by } => {
                    let moved = |k: PageKey| {
                        let by = if k.array == array { by } else { 0 };
                        PageKey { page: k.page + by, ..k }
                    };
                    fused.rekey(moved);
                    split.rekey(moved);
                }
            }
            prop_assert_eq!(fused.hit_stats(), split.hit_stats(), "step {}: {:?}", step, op);
            let picker = fused.order_into(&mut order);
            prop_assert_eq!(picker, split.order_into(&mut want), "step {}: {:?}", step, op);
            prop_assert_eq!(&order, &want, "step {}: {:?}", step, op);
        }
    }
}
