//! Dynamic (measurement-based) access-class detection.
//!
//! The paper classified loops "by examining graphs produced by the
//! simulation data" (§7.1). This module automates that examination: it runs
//! the kernel across PE counts with and without the cache and applies the
//! paper's own criteria:
//!
//! * **Matched** — 0 % remote at every PE count (§7.1.1);
//! * **Cyclic** — cached remote % *decreases* as PEs are added, because the
//!   aggregate cache grows and each PE's access cycle shrinks (§7.1.3);
//! * **Random** — high remote % "regardless of the presence or absence of
//!   caching" (§7.1.4);
//! * **Skewed** — the remainder: a small, PE-count-insensitive remote
//!   percentage dominated by page-boundary crossings (§7.1.2).

use sa_ir::{AccessClass, Program};
use sa_machine::MachineConfig;

use crate::oracle::{CountError, Engine};

/// Dynamic counterpart of [`AccessClass`] (no static skew payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynamicClass {
    /// 0 % remote everywhere.
    Matched,
    /// Small, stable remote percentage.
    Skewed,
    /// Remote percentage falls as PEs increase (with cache).
    Cyclic,
    /// Remote percentage stays high even with the cache.
    Random,
}

impl DynamicClass {
    /// Abbreviation matching the paper (and [`AccessClass::abbrev`]).
    pub fn abbrev(&self) -> &'static str {
        match self {
            DynamicClass::Matched => "MD",
            DynamicClass::Skewed => "SD",
            DynamicClass::Cyclic => "CD",
            DynamicClass::Random => "RD",
        }
    }

    /// Does this dynamic class agree with a static classification?
    pub fn agrees_with(&self, s: AccessClass) -> bool {
        self.abbrev() == s.abbrev()
    }
}

/// One measured point of the classification sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassPoint {
    /// PE count.
    pub n_pes: usize,
    /// Remote % with the paper cache (256 elements).
    pub cached_pct: f64,
    /// Remote % without any cache.
    pub uncached_pct: f64,
}

/// Outcome of dynamic classification.
#[derive(Debug, Clone)]
pub struct DynamicClassification {
    /// The inferred class.
    pub class: DynamicClass,
    /// The measured curve used to infer it.
    pub curve: Vec<ClassPoint>,
}

/// Classify `program` by measurement at `page_size`.
pub fn classify_dynamic(
    program: &Program,
    page_size: usize,
) -> Result<DynamicClassification, CountError> {
    // Classification needs only remote percentages, so it measures through
    // the compiled replay fast path (interpreter fallback for nests the
    // replay cannot lower) — 8 simulations per kernel otherwise.
    let pes = [4usize, 8, 16, 32];
    let mut curve = Vec::with_capacity(pes.len());
    for &n in &pes {
        let cfg = MachineConfig::new(n, page_size);
        let cached = Engine::Auto.count(program, &cfg)?;
        let uncached = Engine::Auto.count(program, &cfg.with_cache_elems(0))?;
        curve.push(ClassPoint {
            n_pes: n,
            cached_pct: cached.remote_pct(),
            uncached_pct: uncached.remote_pct(),
        });
    }
    let first = curve.first().expect("non-empty sweep");
    let last = curve.last().expect("non-empty sweep");
    let max_cached = curve.iter().map(|p| p.cached_pct).fold(0.0, f64::max);

    let class = if max_cached < 0.01 {
        DynamicClass::Matched
    } else if last.cached_pct >= 20.0 {
        DynamicClass::Random
    } else if first.cached_pct > 0.05 && first.cached_pct >= 2.0 * last.cached_pct {
        DynamicClass::Cyclic
    } else {
        DynamicClass::Skewed
    };
    Ok(DynamicClassification { class, curve })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_ir::index::iv;
    use sa_ir::{InitPattern, ProgramBuilder};

    #[test]
    fn matched_kernel_measures_md() {
        let mut b = ProgramBuilder::new("md");
        let y = b.input("Y", &[1024], InitPattern::Wavy);
        let x = b.output("X", &[1024]);
        b.nest("m", &[("k", 0, 1023)], |nb| {
            nb.assign(x, [iv(0)], nb.read(y, [iv(0)]) + 1.0);
        });
        let c = classify_dynamic(&b.finish(), 32).unwrap();
        assert_eq!(c.class, DynamicClass::Matched);
        assert!(c.curve.iter().all(|p| p.cached_pct == 0.0));
        assert!(c.class.agrees_with(AccessClass::Matched));
    }

    #[test]
    fn skewed_kernel_measures_sd() {
        let mut b = ProgramBuilder::new("sd");
        let y = b.input("Y", &[1040], InitPattern::Wavy);
        let x = b.output("X", &[1024]);
        b.nest("s", &[("k", 0, 1023)], |nb| {
            nb.assign(x, [iv(0)], nb.read(y, [iv(0).plus(11)]));
        });
        let c = classify_dynamic(&b.finish(), 32).unwrap();
        assert_eq!(c.class, DynamicClass::Skewed);
        assert!(c.class.agrees_with(AccessClass::Skewed { max_skew: 11 }));
    }

    #[test]
    fn multisweep_kernel_measures_cd() {
        // 2-D Explicit Hydrodynamics shape (paper Fig. 3): the outer k loop
        // re-sweeps the row space 5 times. With more PEs each PE's share of
        // remote neighbour pages shrinks below the cache capacity, so the
        // cached remote % *decreases* — the signature of the Cyclic class.
        let rows: usize = 1000;
        let mut b = ProgramBuilder::new("cd");
        let zp = b.input("ZP", &[rows, 7], InitPattern::Wavy);
        let zr = b.input("ZR", &[rows, 7], InitPattern::Harmonic);
        let za = b.output("ZA", &[rows, 7]);
        b.nest("k18ish", &[("k", 1, 5), ("j", 1, rows as i64 - 2)], |nb| {
            nb.assign(
                za,
                [iv(1), iv(0)],
                nb.read(zp, [iv(1).plus(-1), iv(0).plus(1)]) + nb.read(zr, [iv(1), iv(0).plus(-1)]),
            );
        });
        let c = classify_dynamic(&b.finish(), 32).unwrap();
        assert_eq!(c.class, DynamicClass::Cyclic, "curve: {:?}", c.curve);
    }

    #[test]
    fn permutation_gather_measures_rd() {
        let n: usize = 4096;
        let mut b = ProgramBuilder::new("rd");
        let d = b.input("D", &[n], InitPattern::Wavy);
        let p = b.input("P", &[n], InitPattern::Permutation { seed: 11 });
        let x = b.output("X", &[n]);
        b.nest("g", &[("k", 0, n as i64 - 1)], |nb| {
            nb.assign(x, [iv(0)], nb.read_indirect(d, p, iv(0)));
        });
        let c = classify_dynamic(&b.finish(), 32).unwrap();
        assert_eq!(c.class, DynamicClass::Random, "curve: {:?}", c.curve);
    }
}
