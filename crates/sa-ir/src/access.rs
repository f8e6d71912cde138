//! The affine access model: how a reference becomes page runs.
//!
//! Single assignment makes placement and traffic a pure function of three
//! things — affine address forms, loop bounds, and the page→PE map. This
//! module states the first two once, for every consumer (the compiled
//! statement bodies, the replay engine, the lint footprints, the owner
//! projection, the dependence tests and the search probes):
//!
//! * a [`LinForm`] is a reference's linear address as a function of the
//!   nest's loop variables ([`crate::analysis::linear_address_form`]);
//! * [`try_for_each_sweep`] (a nest's
//!   [`LoopNest::try_for_each_sweep`](crate::nest::LoopNest::try_for_each_sweep))
//!   enumerates a nest as [`Sweep`]s — one run of the innermost loop under
//!   fixed outer variables;
//! * along a sweep a form is a [`Line`] in the trip number, which knows
//!   where it leaves its page ([`Line::run_end`]) and which trips land in a
//!   page interval ([`Line::trips_in_pages`]);
//! * a nest's references are lowered once ([`NestAccess`]): per dimension
//!   an affine index or a gather ([`Subscript`]), its extent and stride,
//!   and whether the nest's one [`loop_box`] proves it in bounds — a
//!   gather through its base's defined prefix ([`StaticArrays::get`]),
//!   its values bounded from the base's initializer pattern
//!   ([`InitPattern::index_bound`](crate::InitPattern::index_bound)) before any is read. A
//!   dimension the box leaves open is decided exactly at a sweep's two end
//!   trips ([`Access::leaves`]): an affine index is monotone along it.
//!
//! The page→PE map is `sa_machine::Placement`; nothing here depends on it.

use std::ops::Range;

use crate::analysis::{linear_address_form, StaticArrays};
use crate::index::{AffineIndex, IndexExpr};
use crate::nest::{ArrayRef, LoopNest, LoopVar};
use crate::{ArrayId, Program};

/// `⌊a / b⌋` for a positive divisor.
#[inline]
pub fn div_floor(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    a.div_euclid(b)
}

/// `⌈a / b⌉` for a positive divisor.
#[inline]
pub fn div_ceil(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    -(-a).div_euclid(b)
}

/// `coeffs · ivs` over the variables both slices name: coefficients are
/// implicitly zero-extended, and coefficients of variables past `ivs` (the
/// innermost variable of a sweep, or anything a malformed program names)
/// contribute nothing.
#[inline]
pub fn dot(coeffs: &[i64], ivs: &[i64]) -> i64 {
    coeffs.iter().zip(ivs).map(|(c, v)| c * v).sum()
}

/// An affine function of a nest's loop variables, `coeffs · ivs + offset`,
/// with one coefficient per loop variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LinForm {
    /// Per-loop-variable coefficients, outermost first.
    pub coeffs: Vec<i64>,
    /// Constant offset.
    pub offset: i64,
}

impl LinForm {
    /// The value of one index expression in a nest of `nvars` loops.
    pub fn of_index(a: &AffineIndex, nvars: usize) -> LinForm {
        LinForm {
            coeffs: a.coeffs_padded(nvars),
            offset: a.offset,
        }
    }

    /// Evaluate at the given loop-variable values (outermost first).
    #[inline]
    pub fn eval(&self, ivs: &[i64]) -> i64 {
        self.offset + dot(&self.coeffs, ivs)
    }

    /// This form along `sweep`, as a function of the trip number.
    #[inline]
    pub fn line(&self, sweep: &Sweep<'_>) -> Line {
        Line::along(&self.coeffs, self.offset, sweep)
    }
}

/// One run of a nest's innermost loop: the outer variables are fixed and
/// the innermost takes `lo, lo + step, …` for `trips ≥ 1` trips. A
/// zero-depth nest is one sweep of one trip (`lo` and `step` are 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sweep<'a> {
    /// Values of the enclosing loop variables, outermost first.
    pub outer: &'a [i64],
    /// The innermost variable on trip 0.
    pub lo: i64,
    /// Its increment per trip.
    pub step: i64,
    /// Number of trips (never 0: empty sweeps are not enumerated).
    pub trips: usize,
}

fn sweeps_rec<E>(
    loops: &[LoopVar],
    ivs: &mut Vec<i64>,
    f: &mut impl FnMut(&Sweep<'_>) -> Result<(), E>,
) -> Result<(), E> {
    let lv = &loops[ivs.len()];
    if ivs.len() + 1 == loops.len() {
        let trips = lv.trip_count(ivs);
        if trips == 0 {
            return Ok(());
        }
        return f(&Sweep {
            outer: ivs,
            lo: lv.lo.eval(ivs),
            step: lv.step,
            trips,
        });
    }
    let mut v = lv.lo.eval(ivs);
    for _ in 0..lv.trip_count(ivs) {
        ivs.push(v);
        sweeps_rec(loops, ivs, f)?;
        ivs.pop();
        v += lv.step;
    }
    Ok(())
}

/// Enumerate the sweeps of the nest `loops` (outermost first) in execution
/// order, stopping at the first `Err`. This is the one recursive nest
/// enumerator: iteration vectors, iteration counts, level extents and every
/// page-run walk are built on it.
pub fn try_for_each_sweep<E>(
    loops: &[LoopVar],
    mut f: impl FnMut(&Sweep<'_>) -> Result<(), E>,
) -> Result<(), E> {
    if loops.is_empty() {
        return f(&Sweep {
            outer: &[],
            lo: 0,
            step: 0,
            trips: 1,
        });
    }
    sweeps_rec(loops, &mut Vec::with_capacity(loops.len() - 1), &mut f)
}

/// An affine function along one sweep: `addr(t) = base + step · t` for the
/// trip number `t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line {
    /// Value on trip 0.
    pub base: i64,
    /// Increment per trip.
    pub step: i64,
}

impl Line {
    /// `coeffs · ivs + offset` along `sweep`.
    #[inline]
    pub fn along(coeffs: &[i64], offset: i64, sweep: &Sweep<'_>) -> Line {
        let inner = coeffs.get(sweep.outer.len()).copied().unwrap_or(0);
        Line {
            base: offset + dot(coeffs, sweep.outer) + inner * sweep.lo,
            step: inner * sweep.step,
        }
    }

    /// Value on trip `t`.
    #[inline]
    pub fn addr(&self, t: i64) -> i64 {
        self.base + self.step * t
    }

    /// The first trip after `t` whose address is off the page holding
    /// `addr(t)` (`i64::MAX` when the line never moves). Addresses are
    /// non-negative.
    #[inline]
    pub fn run_end(&self, t: i64, page_size: i64) -> i64 {
        let addr = self.addr(t);
        debug_assert!(addr >= 0, "negative address");
        let into_page = addr % page_size;
        if self.step > 0 {
            t + (page_size - 1 - into_page) / self.step + 1
        } else if self.step < 0 {
            t + into_page / -self.step + 1
        } else {
            i64::MAX
        }
    }

    /// The trips `t0..t1` of `0..m` whose address lies in pages `q0..q1`;
    /// `None` when there is none.
    #[inline]
    pub fn trips_in_pages(
        &self,
        q0: usize,
        q1: usize,
        page_size: i64,
        m: usize,
    ) -> Option<(usize, usize)> {
        let (lo, hi) = (q0 as i64 * page_size, q1 as i64 * page_size - 1);
        let (t0, t1) = if self.step > 0 {
            (
                div_ceil(lo - self.base, self.step),
                div_floor(hi - self.base, self.step),
            )
        } else if self.step < 0 {
            (
                div_ceil(self.base - hi, -self.step),
                div_floor(self.base - lo, -self.step),
            )
        } else if (lo..=hi).contains(&self.base) {
            (0, m as i64 - 1)
        } else {
            return None;
        };
        let (t0, t1) = (t0.max(0), t1.min(m as i64 - 1));
        (t0 <= t1).then(|| (t0 as usize, t1 as usize + 1))
    }
}

/// `[min, max]` of every loop variable over the nest `loops`, outermost
/// first (interval arithmetic on the bounds: exact for rectangular nests,
/// a superset for triangular ones). A loop that never runs has an empty
/// interval, and proves nothing about what is inside it — which never runs
/// either.
pub fn loop_box(loops: &[LoopVar]) -> Vec<(i128, i128)> {
    let mut vars = Vec::with_capacity(loops.len());
    for lv in loops {
        let (lo, hi) = (
            interval(&lv.lo.coeffs, lv.lo.offset, &vars),
            interval(&lv.hi.coeffs, lv.hi.offset, &vars),
        );
        vars.push(if lv.step > 0 {
            (lo.0, hi.1)
        } else {
            (hi.0, lo.1)
        });
    }
    vars
}

/// `[min, max]` of `coeffs · ivs + offset` over the box `vars` (variables
/// past it count as 0, as [`AffineIndex::eval`] counts them).
pub fn interval(coeffs: &[i64], offset: i64, vars: &[(i128, i128)]) -> (i128, i128) {
    let offset = i128::from(offset);
    let terms = coeffs.iter().zip(vars);
    terms.fold((offset, offset), |(lo, hi), (&c, &(min, max))| {
        let (x, y) = (i128::from(c) * min, i128::from(c) * max);
        (lo + x.min(y), hi + x.max(y))
    })
}

/// One index of an [`Access`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Subscript {
    /// An affine index.
    Affine(LinForm),
    /// `scale · base[pos] + offset`, the cell's value truncated.
    Gather {
        /// The index array.
        base: ArrayId,
        /// Where in `base` the index is read.
        pos: LinForm,
        /// Multiplier of the value read.
        scale: i64,
        /// Added after scaling.
        offset: i64,
    },
}

impl Subscript {
    /// The form a sweep steps: the index itself, or a gather's position.
    pub fn form(&self) -> &LinForm {
        match self {
            Subscript::Affine(form) | Subscript::Gather { pos: form, .. } => form,
        }
    }

    /// A gather's index array.
    pub fn base(&self) -> Option<ArrayId> {
        match self {
            Subscript::Affine(_) => None,
            Subscript::Gather { base, .. } => Some(*base),
        }
    }

    /// `[min, max]` of the index where its form takes every `step`-th
    /// value of `[lo, hi]`, a gather reading its base's constant cells:
    /// `None` when a position leaves their defined prefix. With `closed`, a
    /// gather's values come from its base's initializer pattern where it
    /// has a closed form ([`InitPattern::index_bound`](crate::InitPattern::index_bound)), which reads no
    /// cell but may be wider than the values are; the flag says the range
    /// is exact.
    fn range(
        &self,
        (lo, hi): (i128, i128),
        step: u64,
        statics: Option<&StaticArrays<'_>>,
        closed: bool,
    ) -> Option<((i128, i128), bool)> {
        let &Subscript::Gather {
            base,
            scale,
            offset,
            ..
        } = self
        else {
            return Some(((lo, hi), true));
        };
        let statics = statics?;
        let (pattern, len) = statics.pattern(base)?;
        if lo < 0 || hi >= len as i128 {
            return None;
        }
        let (lo, hi, step) = (lo as usize, hi as usize, step.max(1) as usize);
        let bound = closed.then(|| pattern.index_bound(lo, hi, step, len));
        let ((min, max), exact) = match bound.flatten() {
            Some(bound) => bound,
            None => {
                let taken = statics.get(base)?[lo..=hi].iter().step_by(step);
                let range = taken.fold((i64::MAX, i64::MIN), |(min, max), &v| {
                    (min.min(v as i64), max.max(v as i64))
                });
                (range, true)
            }
        };
        let (x, y) = (
            i128::from(scale) * i128::from(min),
            i128::from(scale) * i128::from(max),
        );
        let range = (x.min(y) + i128::from(offset), x.max(y) + i128::from(offset));
        Some((range, exact))
    }

    /// Whether the index stays inside `0..extent` where its form takes
    /// every `step`-th value of `[lo, hi]`: a gather by its base's closed
    /// form, and by the values themselves only when that cannot decide.
    fn inside(
        &self,
        span: (i128, i128),
        step: u64,
        statics: Option<&StaticArrays<'_>>,
        extent: i64,
    ) -> bool {
        let inside = |(lo, hi): (i128, i128)| lo >= 0 && hi < i128::from(extent);
        match self.range(span, step, statics, true) {
            Some((range, _)) if inside(range) => true,
            Some((_, false)) => self
                .range(span, step, statics, false)
                .is_some_and(|(range, _)| inside(range)),
            _ => false,
        }
    }
}

/// One dimension of an [`Access`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dim {
    /// Its index.
    pub subscript: Subscript,
    /// Its extent (0 past the array's rank).
    pub extent: i64,
    /// Its row-major stride (0 past the array's rank).
    pub stride: i64,
    /// The nest's loop box keeps the index inside `0..extent` on every
    /// instance — a gather's position inside its base's defined prefix
    /// and every value there it can read, scaled and offset.
    pub proved: bool,
}

/// A reference lowered against its nest's loop box (module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Access {
    /// The array it names.
    pub array: ArrayId,
    /// One per index.
    pub dims: Vec<Dim>,
    /// As many indices as the array has dimensions.
    pub fits: bool,
    /// The linear address, when it fits and every index is affine.
    pub form: Option<LinForm>,
}

impl Access {
    /// Lower `aref` in a nest whose [`loop_box`] is `vars`; a gather is
    /// proved only through `statics`.
    pub fn lower(
        program: &Program,
        aref: &ArrayRef,
        vars: &[(i128, i128)],
        statics: Option<&StaticArrays<'_>>,
    ) -> Access {
        let decl = program.array(aref.array);
        let (strides, nvars) = (decl.strides(), vars.len());
        let dims = aref.indices.iter().enumerate().map(|(d, ix)| {
            let (subscript, at) = match ix {
                IndexExpr::Affine(a) => (Subscript::Affine(LinForm::of_index(a, nvars)), a),
                IndexExpr::Indirect {
                    base,
                    pos,
                    scale,
                    offset,
                } => {
                    let (base, scale, offset) = (*base, *scale, *offset);
                    let pos_form = LinForm::of_index(pos, nvars);
                    (
                        Subscript::Gather {
                            base,
                            pos: pos_form,
                            scale,
                            offset,
                        },
                        pos,
                    )
                }
            };
            // With one moving variable a form takes every |coefficient|-th
            // value of its range.
            let mut moving = at
                .coeffs
                .iter()
                .zip(vars)
                .filter(|&(&c, v)| c != 0 && v.0 != v.1);
            let step = match (moving.next(), moving.next()) {
                (Some((c, _)), None) => c.unsigned_abs(),
                _ => 1,
            };
            let extent = decl.dims.get(d).map_or(0, |&e| e as i64);
            let span = interval(&at.coeffs, at.offset, vars);
            Dim {
                proved: subscript.inside(span, step, statics, extent),
                subscript,
                extent,
                stride: strides.get(d).map_or(0, |&s| s as i64),
            }
        });
        let dims: Vec<Dim> = dims.collect();
        let fits = dims.len() == decl.dims.len();
        Access {
            array: aref.array,
            form: fits
                .then(|| linear_address_form(program, aref, nvars))
                .flatten(),
            fits,
            dims,
        }
    }

    /// Whether the loop box proves every index in bounds.
    pub fn proved(&self) -> bool {
        self.fits && self.dims.iter().all(|d| d.proved)
    }

    /// The first affine index the box leaves open, in dimension order,
    /// outside its extent at an end trip of `sweep`, as `(dimension,
    /// index)`. `None` means every affine index stays inside at both, and
    /// so — an affine index is monotone in the trip — on every trip between.
    pub fn leaves(&self, sweep: &Sweep<'_>) -> Option<(usize, i64)> {
        let last = sweep.trips as i64 - 1;
        let open = self.dims.iter().enumerate().filter(|(_, d)| !d.proved);
        open.filter_map(|(d, dim)| match &dim.subscript {
            Subscript::Affine(index) => Some((d, index.line(sweep), dim.extent)),
            Subscript::Gather { .. } => None,
        })
        .find_map(|(d, line, extent)| {
            let ends = [line.base, line.addr(last)].into_iter();
            ends.into_iter()
                .find(|i| !(0..extent).contains(i))
                .map(|i| (d, i))
        })
    }

    /// The linear address along `sweep`: `None` for a reference without a
    /// linear form, or with an index that leaves its extent on the sweep.
    pub fn line(&self, sweep: &Sweep<'_>) -> Option<Line> {
        let form = self.form.as_ref()?;
        self.leaves(sweep).is_none().then(|| form.line(sweep))
    }

    /// `[min, max]` of the linear address along `sweep`, gathers read
    /// through `statics`: `None` when it does not fit its array, or on some
    /// trip a position leaves its base's defined prefix or an index its
    /// extent.
    pub fn hull(&self, sweep: &Sweep<'_>, statics: &StaticArrays<'_>) -> Option<(i64, i64)> {
        let last = sweep.trips as i64 - 1;
        let (mut lo, mut hi) = (0, 0);
        for dim in self.dims.iter().filter(|_| self.fits) {
            let line = dim.subscript.form().line(sweep);
            let (x, y) = (i128::from(line.base), i128::from(line.addr(last)));
            let step = line.step.unsigned_abs();
            let ((first, end), _) =
                dim.subscript
                    .range((x.min(y), x.max(y)), step, Some(statics), false)?;
            if first < 0 || end >= i128::from(dim.extent) {
                return None;
            }
            lo += dim.stride * first as i64;
            hi += dim.stride * end as i64;
        }
        self.fits.then_some((lo, hi))
    }
}

/// Where one statement's references sit in its nest's [`NestAccess`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StmtAccess {
    /// Its reads, in evaluation order.
    pub reads: Range<usize>,
    /// Its write target, after them (`None` for a reduction).
    pub target: Option<usize>,
}

/// Every reference of one nest, lowered against its one [`loop_box`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NestAccess {
    /// The references; a reference's position here is its key.
    pub refs: Vec<Access>,
    /// Per body statement, where its references are.
    pub stmts: Vec<StmtAccess>,
}

impl NestAccess {
    /// Lower every reference of `nest`; gathers are proved through
    /// `statics` ([`Access::lower`]).
    pub fn lower(
        program: &Program,
        nest: &LoopNest,
        statics: Option<&StaticArrays<'_>>,
    ) -> NestAccess {
        let vars = loop_box(&nest.loops);
        let lower = |aref: &ArrayRef| Access::lower(program, aref, &vars, statics);
        let (mut refs, mut stmts) = (Vec::new(), Vec::with_capacity(nest.body.len()));
        for stmt in &nest.body {
            let start = refs.len();
            refs.extend(stmt.reads().into_iter().map(lower));
            let reads = start..refs.len();
            refs.extend(stmt.write_target().map(lower));
            let target = (refs.len() > reads.end).then_some(reads.end);
            stmts.push(StmtAccess { reads, target });
        }
        NestAccess { refs, stmts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::iv;
    use crate::nest::LoopNest;

    fn nest(loops: Vec<LoopVar>) -> LoopNest {
        LoopNest {
            label: "t".into(),
            loops,
            body: vec![],
        }
    }

    fn lv(lo: impl Into<AffineIndex>, hi: impl Into<AffineIndex>, step: i64) -> LoopVar {
        LoopVar {
            name: "v".into(),
            lo: lo.into(),
            hi: hi.into(),
            step,
        }
    }

    /// The enumerator `for_each_iteration` was before it was built on
    /// sweeps: one recursion level per loop, bounds re-evaluated per level.
    fn iterations_by_recursion(nest: &LoopNest) -> Vec<Vec<i64>> {
        fn rec(nest: &LoopNest, ivs: &mut Vec<i64>, out: &mut Vec<Vec<i64>>) {
            let Some(lv) = nest.loops.get(ivs.len()) else {
                return out.push(ivs.clone());
            };
            let (mut v, hi) = (lv.lo.eval(ivs), lv.hi.eval(ivs));
            while (lv.step > 0 && v <= hi) || (lv.step < 0 && v >= hi) {
                ivs.push(v);
                rec(nest, ivs, out);
                ivs.pop();
                v += lv.step;
            }
        }
        let mut out = Vec::new();
        rec(nest, &mut Vec::new(), &mut out);
        out
    }

    #[test]
    fn sweeps_expand_to_the_recursive_enumeration() {
        let nests = [
            nest(vec![lv(0, 3, 1), lv(2, 9, 3)]),              // rectangular
            nest(vec![lv(1, 4, 1), lv(1, iv(0).plus(-1), 1)]), // triangular
            nest(vec![lv(5, 1, -2), lv(iv(0), 0, -1)]),        // negative steps
            nest(vec![lv(0, 3, 1), lv(4, 3, 1)]),              // zero-trip inner
            nest(vec![lv(3, 0, 1), lv(0, 3, 1)]),              // zero-trip outer
            nest(vec![lv(0, 2, 1), lv(0, 1, 1), lv(iv(0), iv(1).plus(2), 1)]),
            nest(vec![]), // zero depth
        ];
        for n in &nests {
            let want = iterations_by_recursion(n);
            let mut got = Vec::new();
            n.for_each_iteration(|ivs| got.push(ivs.to_vec()));
            assert_eq!(got, want, "{:?}", n.loops);
            let mut trips = 0;
            n.for_each_sweep(|s| {
                assert!(s.trips >= 1);
                trips += s.trips;
            });
            assert_eq!(trips, want.len());
            assert_eq!(n.iteration_count(), want.len());
        }
        assert_eq!(
            iterations_by_recursion(&nest(vec![])),
            vec![Vec::<i64>::new()]
        );
    }

    #[test]
    fn an_error_stops_the_enumeration() {
        let n = nest(vec![lv(0, 9, 1), lv(0, 9, 1)]);
        let mut seen = 0;
        let stopped = n.try_for_each_sweep(|s| {
            seen += 1;
            if s.outer[0] == 3 {
                Err("stop")
            } else {
                Ok(())
            }
        });
        assert_eq!(stopped, Err("stop"));
        assert_eq!(seen, 4);
    }

    #[test]
    fn lines_follow_the_form_along_a_sweep() {
        // 7·i − 3·j + 5 along j = 10, 8, 6 under i = 2.
        let form = LinForm {
            coeffs: vec![7, -3],
            offset: 5,
        };
        let sweep = Sweep {
            outer: &[2],
            lo: 10,
            step: -2,
            trips: 3,
        };
        let line = form.line(&sweep);
        for t in 0..3 {
            assert_eq!(line.addr(t), form.eval(&[2, 10 - 2 * t]));
        }
        // A zero-depth nest's single sweep sees the constant.
        let constant = LinForm {
            coeffs: vec![],
            offset: 9,
        };
        let mut lines = Vec::new();
        nest(vec![]).for_each_sweep(|s| lines.push(constant.line(s)));
        assert_eq!(lines, vec![Line { base: 9, step: 0 }]);
    }

    #[test]
    fn run_ends_and_page_trips_match_brute_force_stepping() {
        let m = 40usize;
        for ps in [1i64, 7, 32] {
            for step in [-5i64, -1, 0, 1, 3, 40] {
                for base0 in [0i64, 6, 31, 100] {
                    // Keep every address non-negative.
                    let base = base0 + (-step).max(0) * m as i64;
                    let line = Line { base, step };
                    let page = |t: usize| line.addr(t as i64) / ps;
                    for t in 0..m {
                        let brute = (t + 1..m).find(|&u| page(u) != page(t));
                        let end = line.run_end(t as i64, ps);
                        match brute {
                            Some(u) => assert_eq!(end, u as i64, "ps {ps} {line:?} t {t}"),
                            None => assert!(end >= m as i64, "ps {ps} {line:?} t {t}"),
                        }
                    }
                    let last_page = (0..m).map(page).max().unwrap() as usize;
                    for (q0, q1) in [(0, 1), (1, 3), (2, last_page + 2), (0, last_page + 1)] {
                        let inside: Vec<usize> = (0..m)
                            .filter(|&t| (q0 as i64..q1 as i64).contains(&page(t)))
                            .collect();
                        let want = inside.first().map(|&t0| (t0, inside[inside.len() - 1] + 1));
                        let got = line.trips_in_pages(q0, q1, ps, m);
                        assert_eq!(got, want, "ps {ps} {line:?} pages {q0}..{q1}");
                        if let Some((t0, t1)) = got {
                            assert_eq!(inside, (t0..t1).collect::<Vec<_>>());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_loop_box_proves_what_stays_inside_and_the_sweeps_decide_the_rest() {
        use crate::builder::ProgramBuilder;
        use crate::program::{ArrayInit, InitPattern};
        // A(i, j - 1) leaves its column on j = 0; D(P(j)) gathers through
        // P's defined prefix of five cells, D(P(j + 1)) reads past it.
        let mut b = ProgramBuilder::new("box");
        let a = b.input("A", &[4, 5], InitPattern::Wavy);
        let even = InitPattern::Linear {
            base: 0.0,
            step: 2.0,
        };
        let p = b.array_with(
            "P",
            &[8],
            ArrayInit::Prefix {
                pattern: even,
                len: 5,
            },
        );
        let d = b.input("D", &[9], InitPattern::Wavy);
        let x = b.output("X", &[4, 5]);
        b.nest("n", &[("i", 0, 3), ("j", 0, 4)], |n| {
            let left = n.read(a, [iv(0), iv(1).plus(-1)]);
            let v = left + n.read_indirect(d, p, iv(1)) + n.read_indirect(d, p, iv(1).plus(1));
            n.assign(x, [iv(0), iv(1)], v);
        });
        let prog = b.finish();
        let (nest, statics) = (prog.nests().next().unwrap(), StaticArrays::scan(&prog));
        let lowered = NestAccess::lower(&prog, nest, Some(&statics));
        let proved = |l: &NestAccess| -> Vec<Vec<bool>> {
            let dims = |r: &Access| r.dims.iter().map(|d| d.proved).collect();
            l.refs.iter().map(dims).collect()
        };
        let expected = [vec![true, false], vec![true], vec![false], vec![true, true]];
        assert_eq!(proved(&lowered), expected);
        assert_eq!(lowered.stmts[0].reads, 0..3);
        assert_eq!(lowered.stmts[0].target, Some(3));
        // Without the constant cells no gather is proved.
        let blind = NestAccess::lower(&prog, nest, None);
        assert!(!blind.refs[1].dims[0].proved);
        // A permutation's closed form bounds its values by its length; where
        // the positions read hold only smaller ones, the values decide.
        let perm = InitPattern::Permutation { seed: 1 };
        let values = perm.materialize(8);
        let first = values[..4].iter().map(|&v| v as usize).max().unwrap();
        assert!(
            first < 7,
            "the bound must be too wide to decide: {values:?}"
        );
        for (extent, proved) in [(first + 1, true), (first, false)] {
            let mut b = ProgramBuilder::new("fit");
            let q = b.input("Q", &[8], perm);
            let v = b.input("V", &[extent], InitPattern::Wavy);
            let z = b.output("Z", &[4]);
            b.nest("n", &[("k", 0, 3)], |n| {
                let read = n.read_indirect(v, q, iv(0));
                n.assign(z, [iv(0)], read);
            });
            let prog = b.finish();
            let statics = StaticArrays::scan(&prog);
            let nest = prog.nests().next().unwrap();
            let lowered = NestAccess::lower(&prog, nest, Some(&statics));
            assert_eq!(lowered.refs[0].dims[0].proved, proved, "{values:?}");
        }
        nest.for_each_sweep(|s| {
            assert_eq!(lowered.refs[0].leaves(s), Some((1, -1)));
            assert_eq!(lowered.refs[0].line(s), None);
            assert_eq!(lowered.refs[1].hull(s, &statics), Some((0, 8)));
            assert_eq!(lowered.refs[2].hull(s, &statics), None);
            assert_eq!(
                lowered.refs[3].line(s),
                Some(Line {
                    base: 5 * s.outer[0],
                    step: 1
                })
            );
        });
    }

    #[test]
    fn division_rounds_toward_the_right_infinity() {
        for a in -20i64..=20 {
            for b in [1i64, 3, 7] {
                let exact = a as f64 / b as f64;
                assert_eq!(div_floor(a, b), exact.floor() as i64, "{a}/{b}");
                assert_eq!(div_ceil(a, b), exact.ceil() as i64, "{a}/{b}");
            }
        }
    }
}
