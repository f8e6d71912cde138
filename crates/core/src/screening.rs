//! Index screening: mapping statement instances to their owning PE.
//!
//! Paper §3: "Each PE may write only into undefined array cells and only
//! into those mapped to that PE … This is achieved by screening the array
//! indices so that the right-hand side of the assignment is evaluated only
//! for a given PE's subranges."
//!
//! [`PartitionMap`] is the lightweight, immutable ownership oracle shared
//! by the counting simulator, the timing pass and the real-thread runtime.

use sa_ir::access::Line;
use sa_ir::interp::{resolve_ref_addr, Memory};
use sa_ir::nest::Stmt;
use sa_ir::{analysis, ArrayId, IrError, Program};
use sa_machine::{ConfigError, MachineConfig, Placement};

/// Immutable page-ownership map for one (program, machine) pair.
///
/// Each array carries its own [`Placement`] built from its declared
/// dimensions, so tiled schemes (`RowBand`, `Tile2D`) see the real grid
/// geometry while the page-linear schemes keep the paper's §2 arithmetic.
#[derive(Debug, Clone)]
pub struct PartitionMap {
    n_pes: usize,
    page_size: usize,
    placements: Vec<Placement>,
}

impl PartitionMap {
    /// Build the map for `program` on a machine described by `cfg`.
    pub fn new(program: &Program, cfg: &MachineConfig) -> Result<Self, ConfigError> {
        Ok(PartitionMap {
            n_pes: cfg.n_pes,
            page_size: cfg.page_size,
            placements: Placement::table(
                program.arrays.iter().map(|d| &d.dims),
                cfg.partition,
                cfg.page_size,
                cfg.n_pes,
            )?,
        })
    }

    /// Number of PEs.
    pub fn n_pes(&self) -> usize {
        self.n_pes
    }

    /// Page size in elements.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Placement of array `a`.
    pub fn placement(&self, a: ArrayId) -> &Placement {
        &self.placements[a.0]
    }

    /// Owning PE of linear address `addr` in array `a`.
    pub fn owner(&self, a: ArrayId, addr: usize) -> usize {
        self.placements[a.0].owner_of_addr(addr)
    }

    /// Owning PE of a statement instance at iteration `ivs`, or `None` for
    /// anchorless statements (e.g. a reduction of pure parameters), which
    /// the executor deals out round-robin.
    ///
    /// The anchor is the write target for assignments and the first read
    /// for reductions (see [`analysis::anchor_ref`]). Indirect anchors are
    /// resolved by the executor (they need memory); this fast path covers
    /// the affine case used by owner screening. See
    /// [`PartitionMap::resolved_anchor_owner`] for the full path.
    pub fn anchor_owner(&self, program: &Program, stmt: &Stmt, ivs: &[i64]) -> Option<usize> {
        let anchor = analysis::anchor_ref(stmt)?;
        let decl = program.array(anchor.array);
        if anchor.indices.len() != decl.dims.len() {
            return None;
        }
        // Row-major linearization folded in index by index: this runs once
        // per statement instance on every screening engine.
        let mut addr = 0usize;
        for (ix, &extent) in anchor.indices.iter().zip(&decl.dims) {
            let i = ix.as_affine()?.eval(ivs);
            if i < 0 || i as usize >= extent {
                return None;
            }
            addr = addr * extent + i as usize;
        }
        Some(self.owner(anchor.array, addr))
    }

    /// Owning PE of a statement instance with *indirect anchors resolved*:
    /// the one ownership routine every executor shares.
    ///
    /// Affine anchors take the memory-free fast path. Indirect anchors
    /// (`A(P(i)) = …` scatters, indirect-anchored reductions) load their
    /// index cells through `resolve` — a *non-counting* memory, because
    /// ownership discovery is screening, not program work: the simulator
    /// passes an omniscient peek, the thread runtime a resolution store fed
    /// by static initializers and `IndirectFetch` messages. The index
    /// array's own single assignment (ordered before this nest by SSA
    /// sequencing) guarantees every executor resolves the same subscript.
    ///
    /// Returns `Ok(None)` only for anchorless statements (dealt round-robin
    /// by the caller); address errors (out-of-bounds subscripts, reads of
    /// never-defined index cells) surface as `Err`.
    pub fn resolved_anchor_owner(
        &self,
        program: &Program,
        stmt: &Stmt,
        ivs: &[i64],
        resolve: &mut impl Memory,
    ) -> Result<Option<usize>, IrError> {
        if let Some(pe) = self.anchor_owner(program, stmt, ivs) {
            return Ok(Some(pe));
        }
        let Some(anchor) = analysis::anchor_ref(stmt) else {
            return Ok(None);
        };
        let addr = resolve_ref_addr(program, anchor, ivs, resolve)?;
        Ok(Some(self.owner(anchor.array, addr)))
    }
}

/// The trips `0..m` of a sweep whose affine anchor address `line(t)` lies
/// on a page `pe` owns, as disjoint ascending `(start, end)` ranges — index
/// screening (paper §3) done once per sweep instead of once per instance.
///
/// Instead of walking every page run, only the pages *this PE owns* are
/// enumerated (each partition scheme's owned set is a union of page
/// intervals, [`Placement::owned_page_intervals`]) and each is mapped back
/// to a trip range closed-form ([`Line::trips_in_pages`]) — the per-PE cost
/// is proportional to the PE's own share of the sweep, so PEs divide the
/// work instead of replicating it. The replay engine's shards and the
/// thread runtime's PE tasks both take their schedules from here.
#[inline]
pub fn owned_segments(
    placement: &Placement,
    pe: usize,
    line: Line,
    m: usize,
) -> Vec<(usize, usize)> {
    let mut segs: Vec<(usize, usize)> = Vec::new();
    if line.step == 0 {
        debug_assert!(line.base >= 0, "negative anchor address");
        if placement.owner_of_addr(line.base as usize) == pe {
            segs.push((0, m));
        }
        return segs;
    }
    if placement.n_pes == 1 {
        return vec![(0, m)];
    }
    let ps = placement.page_size as i64;
    let last = line.addr(m as i64 - 1);
    debug_assert!(line.base >= 0 && last >= 0, "negative anchor address");
    let (plo, phi) = (line.base.min(last) / ps, line.base.max(last) / ps);
    placement.owned_page_intervals(pe, plo as usize, phi as usize, |q0, q1| {
        segs.extend(line.trips_in_pages(q0, q1, ps, m));
    });
    if line.step < 0 {
        // Ascending pages map to descending iterations.
        segs.reverse();
    }
    // Coalesce adjacent ranges (adjacent owned pages).
    let mut out: Vec<(usize, usize)> = Vec::with_capacity(segs.len());
    for (s, e) in segs {
        match out.last_mut() {
            Some(last) if last.1 >= s => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// The trips `0..m` a per-trip predicate accepts (gathered and round-robin
/// anchors), coalesced into disjoint ascending `(start, end)` ranges.
pub fn owned_segments_by(m: usize, owned: impl Fn(usize) -> bool) -> Vec<(usize, usize)> {
    let mut segs: Vec<(usize, usize)> = Vec::new();
    let mut t = 0usize;
    while t < m {
        if owned(t) {
            let start = t;
            t += 1;
            while t < m && owned(t) {
                t += 1;
            }
            segs.push((start, t));
        } else {
            t += 1;
        }
    }
    segs
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_ir::index::iv;
    use sa_ir::{InitPattern, ProgramBuilder};

    fn hydro_like(n: usize) -> Program {
        let mut b = ProgramBuilder::new("t");
        let y = b.input("Y", &[n], InitPattern::Wavy);
        let x = b.output("X", &[n]);
        b.nest("main", &[("k", 0, n as i64 - 1)], |nb| {
            nb.assign(x, [iv(0)], nb.read(y, [iv(0)]));
        });
        b.finish()
    }

    #[test]
    fn owner_matches_machine_partition() {
        let p = hydro_like(100);
        let cfg = MachineConfig::new(4, 32);
        let map = PartitionMap::new(&p, &cfg).unwrap();
        assert_eq!(map.n_pes(), 4);
        assert_eq!(map.page_size(), 32);
        // Paper example: pages 0..3 of a 100-element array → PEs 0..3.
        let x = p.array_id("X").unwrap();
        assert_eq!(map.owner(x, 0), 0);
        assert_eq!(map.owner(x, 33), 1);
        assert_eq!(map.owner(x, 99), 3);
    }

    #[test]
    fn anchor_owner_screens_iterations() {
        let p = hydro_like(100);
        let cfg = MachineConfig::new(4, 32);
        let map = PartitionMap::new(&p, &cfg).unwrap();
        let nest = p.nests().next().unwrap();
        let stmt = &nest.body[0];
        assert_eq!(map.anchor_owner(&p, stmt, &[0]), Some(0));
        assert_eq!(map.anchor_owner(&p, stmt, &[32]), Some(1));
        assert_eq!(map.anchor_owner(&p, stmt, &[96]), Some(3));
        // Out-of-bounds iteration resolves to None rather than panicking.
        assert_eq!(map.anchor_owner(&p, stmt, &[1000]), None);
    }

    #[test]
    fn screened_iteration_sets_partition_the_domain() {
        // Every iteration must belong to exactly one PE.
        let p = hydro_like(100);
        let cfg = MachineConfig::new(4, 32);
        let map = PartitionMap::new(&p, &cfg).unwrap();
        let nest = p.nests().next().unwrap();
        let stmt = &nest.body[0];
        let mut counts = vec![0usize; 4];
        nest.for_each_iteration(|ivs| {
            counts[map.anchor_owner(&p, stmt, ivs).unwrap()] += 1;
        });
        assert_eq!(counts.iter().sum::<usize>(), 100);
        assert_eq!(counts, vec![32, 32, 32, 4]); // 3 full pages + partial
    }

    #[test]
    fn tiled_map_screens_by_grid_tile() {
        use sa_machine::PartitionScheme;
        // An 8×8 grid under Tile2D{4,4} on 4 PEs, page size 2: the anchor
        // owner of (i, j) is the tile owner, not the flattened-page owner.
        let mut b = ProgramBuilder::new("t2");
        let y = b.input("Y", &[8, 8], InitPattern::Wavy);
        let x = b.output("X", &[8, 8]);
        b.nest("main", &[("i", 0, 7), ("j", 0, 7)], |nb| {
            nb.assign(x, [iv(0), iv(1)], nb.read(y, [iv(0), iv(1)]));
        });
        let p = b.finish();
        let cfg = MachineConfig::new(4, 2).with_partition(PartitionScheme::Tile2D {
            tile_rows: 4,
            tile_cols: 4,
        });
        let map = PartitionMap::new(&p, &cfg).unwrap();
        let nest = p.nests().next().unwrap();
        let stmt = &nest.body[0];
        assert_eq!(map.anchor_owner(&p, stmt, &[0, 0]), Some(0));
        assert_eq!(map.anchor_owner(&p, stmt, &[0, 4]), Some(1));
        assert_eq!(map.anchor_owner(&p, stmt, &[4, 0]), Some(2));
        assert_eq!(map.anchor_owner(&p, stmt, &[7, 7]), Some(3));
        // Every iteration still belongs to exactly one PE, 16 per tile.
        let mut counts = vec![0usize; 4];
        nest.for_each_iteration(|ivs| {
            counts[map.anchor_owner(&p, stmt, ivs).unwrap()] += 1;
        });
        assert_eq!(counts, vec![16, 16, 16, 16]);
    }

    #[test]
    fn owned_segments_are_the_screened_trips_under_every_scheme() {
        use sa_ir::access::Line;
        use sa_machine::PartitionScheme;
        // A 24×20 grid walked along lines of several strides and both
        // directions: each PE's segments must be exactly the trips whose
        // address it owns — ascending, disjoint, and together the sweep.
        let dims = [24usize, 20];
        for scheme in [
            PartitionScheme::Modulo,
            PartitionScheme::Block,
            PartitionScheme::BlockCyclic { block_pages: 2 },
            PartitionScheme::RowBand,
            PartitionScheme::Tile2D {
                tile_rows: 5,
                tile_cols: 6,
            },
        ] {
            for (n_pes, page) in [(1usize, 8usize), (3, 4), (4, 7), (7, 1)] {
                let placement = Placement::table([&dims[..]], scheme, page, n_pes).unwrap()[0];
                for (base, step, m) in [
                    (0i64, 1i64, 480usize),
                    (479, -1, 480),
                    (3, 20, 24),
                    (17, 0, 9),
                    (40, 7, 60),
                ] {
                    let line = Line { base, step };
                    let mut seen = vec![0u32; m];
                    for pe in 0..n_pes {
                        let segs = owned_segments(&placement, pe, line, m);
                        let mut prev_end = 0;
                        for &(s, e) in &segs {
                            assert!(
                                s < e && e <= m && (s > prev_end || prev_end == 0),
                                "{segs:?}"
                            );
                            prev_end = e;
                            for (t, count) in seen.iter_mut().enumerate().take(e).skip(s) {
                                let addr = line.addr(t as i64) as usize;
                                assert_eq!(
                                    placement.owner_of_addr(addr),
                                    pe,
                                    "{scheme:?} trip {t}"
                                );
                                *count += 1;
                            }
                        }
                        let by = owned_segments_by(m, |t| {
                            placement.owner_of_addr(line.addr(t as i64) as usize) == pe
                        });
                        assert_eq!(segs, by, "{scheme:?} {n_pes}x{page} {line:?} PE {pe}");
                    }
                    assert!(
                        seen.iter().all(|&c| c == 1),
                        "{scheme:?} {line:?}: {seen:?}"
                    );
                }
            }
        }
    }
}
