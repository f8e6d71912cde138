//! Loop nests, bounds, array references and statements.

use crate::access::{self, Sweep};
use crate::expr::{Expr, ReduceOp};
use crate::index::{AffineIndex, IndexExpr};
use crate::{ArrayId, ScalarId};

/// An inclusive loop bound, affine in *outer* loop variables
/// (so triangular nests like GLRE's `DO k = 1, i-1` are expressible).
pub type Bound = AffineIndex;

/// One loop of a nest: `for v = lo..=hi step step` (FORTRAN `DO` semantics:
/// zero iterations if `lo > hi` with positive step).
#[derive(Debug, Clone, PartialEq)]
pub struct LoopVar {
    /// Diagnostic name (`i`, `k`, …).
    pub name: String,
    /// Inclusive lower bound (may reference outer vars only).
    pub lo: Bound,
    /// Inclusive upper bound (may reference outer vars only).
    pub hi: Bound,
    /// Step; must be non-zero.
    pub step: i64,
}

impl LoopVar {
    /// A unit-step loop `name = lo..=hi` with constant bounds.
    pub fn simple(name: impl Into<String>, lo: i64, hi: i64) -> Self {
        LoopVar {
            name: name.into(),
            lo: Bound::constant(lo),
            hi: Bound::constant(hi),
            step: 1,
        }
    }

    /// Number of iterations given outer variable values, or 0 if empty.
    pub fn trip_count(&self, outer: &[i64]) -> usize {
        let lo = self.lo.eval(outer);
        let hi = self.hi.eval(outer);
        if self.step > 0 {
            if lo > hi {
                0
            } else {
                ((hi - lo) / self.step + 1) as usize
            }
        } else if self.step < 0 {
            if lo < hi {
                0
            } else {
                ((lo - hi) / (-self.step) + 1) as usize
            }
        } else {
            0
        }
    }
}

/// A reference to one element of an array: `array[indices…]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayRef {
    /// Which array.
    pub array: ArrayId,
    /// One index per dimension, outermost dimension first (row-major).
    pub indices: Vec<IndexExpr>,
}

impl ArrayRef {
    /// Build a reference.
    pub fn new(array: ArrayId, indices: Vec<IndexExpr>) -> Self {
        ArrayRef { array, indices }
    }

    /// True if any index is a gather.
    pub fn has_indirection(&self) -> bool {
        self.indices.iter().any(IndexExpr::is_indirect)
    }
}

/// A statement executed for every iteration of the enclosing nest.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `target ← value` — the single assignment of one array element.
    Assign {
        /// The element written (the statement's *producer* location;
        /// owner-computes maps the iteration to this element's PE).
        target: ArrayRef,
        /// Right-hand side.
        value: Expr,
    },
    /// `scalar ← scalar ⊕ value` — a loop reduction, collected at the
    /// array host processor in the distributed runtime (paper §9).
    Reduce {
        /// Destination scalar slot.
        target: ScalarId,
        /// Combining operator.
        op: ReduceOp,
        /// Per-iteration contribution.
        value: Expr,
    },
}

impl Stmt {
    /// The written element for an `Assign`, `None` for reductions.
    pub fn write_target(&self) -> Option<&ArrayRef> {
        match self {
            Stmt::Assign { target, .. } => Some(target),
            Stmt::Reduce { .. } => None,
        }
    }

    /// The right-hand-side expression.
    pub fn value(&self) -> &Expr {
        match self {
            Stmt::Assign { value, .. } | Stmt::Reduce { value, .. } => value,
        }
    }

    /// Every array read performed by the statement (RHS reads, plus reads
    /// hidden inside indirect indices are accounted separately during
    /// execution).
    pub fn reads(&self) -> Vec<&ArrayRef> {
        self.value().reads()
    }
}

/// A rectangular-or-triangular loop nest with a straight-line body.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopNest {
    /// Diagnostic label (e.g. `"hydro-k1"`).
    pub label: String,
    /// Loops, outermost first. `loops[v]` binds loop variable `v`.
    pub loops: Vec<LoopVar>,
    /// Statements executed per iteration, in order.
    pub body: Vec<Stmt>,
}

impl LoopNest {
    /// Enumerate the nest as [`Sweep`]s — one run of the innermost loop
    /// under fixed outer variables — in execution order, stopping at the
    /// first `Err` ([`access::try_for_each_sweep`] over this nest's loops).
    pub fn try_for_each_sweep<E>(
        &self,
        f: impl FnMut(&Sweep<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        access::try_for_each_sweep(&self.loops, f)
    }

    /// Every sweep, for visitors that never stop early.
    pub fn for_each_sweep(&self, mut f: impl FnMut(&Sweep<'_>)) {
        let Ok(()) = self.try_for_each_sweep(|s| {
            f(s);
            Ok::<(), core::convert::Infallible>(())
        });
    }

    /// Each level's trip count when every bound is a constant (a
    /// rectangular nest), outermost first; `None` for a triangular nest.
    pub fn rect_trips(&self) -> Option<Vec<usize>> {
        let rect = |lv: &LoopVar| lv.lo.is_constant() && lv.hi.is_constant();
        let trips = self
            .loops
            .iter()
            .map(|lv| rect(lv).then(|| lv.trip_count(&[])));
        trips.collect()
    }

    /// Total iterations (exact for triangular nests: the sum of the sweeps'
    /// trip counts; the product of the trip counts for rectangular ones).
    pub fn iteration_count(&self) -> usize {
        if let Some(trips) = self.rect_trips() {
            return trips.iter().product();
        }
        let mut count = 0;
        self.for_each_sweep(|s| count += s.trips);
        count
    }

    /// Enumerate every iteration (outermost-first index vectors) in
    /// lexicographic execution order, invoking `f` for each until it
    /// returns an error — which ends the walk on the spot.
    pub fn try_for_each_iteration<E>(
        &self,
        mut f: impl FnMut(&[i64]) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut ivs = Vec::with_capacity(self.loops.len());
        self.try_for_each_sweep(|s| {
            ivs.clear();
            ivs.extend_from_slice(s.outer);
            if self.loops.is_empty() {
                return f(&ivs);
            }
            ivs.push(s.lo);
            for _ in 0..s.trips {
                f(&ivs)?;
                ivs[s.outer.len()] += s.step;
            }
            Ok(())
        })
    }

    /// Every iteration, for visitors that never stop early.
    pub fn for_each_iteration(&self, mut f: impl FnMut(&[i64])) {
        let Ok(()) = self.try_for_each_iteration(|ivs| {
            f(ivs);
            Ok::<(), core::convert::Infallible>(())
        });
    }

    /// Arrays written by this nest (deduplicated, in first-write order).
    pub fn written_arrays(&self) -> Vec<ArrayId> {
        let mut out = Vec::new();
        for s in &self.body {
            if let Some(t) = s.write_target() {
                if !out.contains(&t.array) {
                    out.push(t.array);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::iv;

    #[test]
    fn trip_counts_fortran_semantics() {
        let l = LoopVar::simple("k", 1, 10);
        assert_eq!(l.trip_count(&[]), 10);
        let l = LoopVar {
            name: "k".into(),
            lo: 2.into(),
            hi: 10.into(),
            step: 2,
        };
        assert_eq!(l.trip_count(&[]), 5); // 2,4,6,8,10
        let l = LoopVar {
            name: "k".into(),
            lo: 10.into(),
            hi: 1.into(),
            step: -3,
        };
        assert_eq!(l.trip_count(&[]), 4); // 10,7,4,1
        let l = LoopVar::simple("k", 5, 4);
        assert_eq!(l.trip_count(&[]), 0);
    }

    #[test]
    fn triangular_nest_enumeration() {
        // for i = 1..=4 { for k = 1..=(i-1) { .. } } → 0+1+2+3 = 6 iterations
        let nest = LoopNest {
            label: "tri".into(),
            loops: vec![
                LoopVar::simple("i", 1, 4),
                LoopVar {
                    name: "k".into(),
                    lo: 1.into(),
                    hi: iv(0).plus(-1),
                    step: 1,
                },
            ],
            body: vec![],
        };
        assert_eq!(nest.iteration_count(), 6);
        let mut seen = Vec::new();
        nest.for_each_iteration(|ivs| seen.push((ivs[0], ivs[1])));
        assert_eq!(seen, vec![(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]);
    }

    #[test]
    fn lexicographic_order_with_negative_step() {
        let nest = LoopNest {
            label: "rev".into(),
            loops: vec![LoopVar {
                name: "k".into(),
                lo: 3.into(),
                hi: 1.into(),
                step: -1,
            }],
            body: vec![],
        };
        let mut seen = Vec::new();
        nest.for_each_iteration(|ivs| seen.push(ivs[0]));
        assert_eq!(seen, vec![3, 2, 1]);
    }

    #[test]
    fn written_arrays_deduplicate() {
        use crate::ArrayId;
        let x = ArrayId(0);
        let y = ArrayId(1);
        let nest = LoopNest {
            label: "t".into(),
            loops: vec![LoopVar::simple("k", 0, 9)],
            body: vec![
                Stmt::Assign {
                    target: ArrayRef::new(x, vec![iv(0).into()]),
                    value: Expr::Read(ArrayRef::new(y, vec![iv(0).into()]))
                        + Expr::Read(ArrayRef::new(y, vec![iv(0).plus(1).into()])),
                },
                Stmt::Assign {
                    target: ArrayRef::new(x, vec![iv(0).plus(10).into()]),
                    value: Expr::Const(0.0),
                },
            ],
        };
        assert_eq!(nest.written_arrays(), vec![x]);
    }

    #[test]
    fn stmt_accessors() {
        let x = ArrayRef::new(crate::ArrayId(0), vec![iv(0).into()]);
        let s = Stmt::Assign {
            target: x.clone(),
            value: Expr::Const(1.0),
        };
        assert_eq!(s.write_target(), Some(&x));
        let r = Stmt::Reduce {
            target: crate::ScalarId(0),
            op: ReduceOp::Sum,
            value: Expr::Const(1.0),
        };
        assert_eq!(r.write_target(), None);
        assert!(r.reads().is_empty());
    }
}
