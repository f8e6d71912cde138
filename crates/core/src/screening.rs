//! Index screening: mapping statement instances to their owning PE.
//!
//! Paper §3: "Each PE may write only into undefined array cells and only
//! into those mapped to that PE … This is achieved by screening the array
//! indices so that the right-hand side of the assignment is evaluated only
//! for a given PE's subranges."
//!
//! [`PartitionMap`] is the lightweight, immutable ownership oracle shared
//! by the counting simulator, the timing pass and the real-thread runtime.

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
        let affine = anchor.affine_indices()?;
        let decl = program.array(anchor.array);
        let idx: Vec<i64> = affine.iter().map(|a| a.eval(ivs)).collect();
        let addr = decl.linearize(&idx).ok()?;
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
}
