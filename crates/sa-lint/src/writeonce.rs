//! Static single-assignment (write-once) verification.
//!
//! For every array generation segment (the phases between `Reinit`s of
//! that array) the verifier proves that no element is assigned twice.
//! Three rungs, each asked only what the one before left open:
//!
//! 1. **Closed form.** Affine write sites are attacked pairwise — a
//!    Banerjee-style address-range test, a GCD lattice-residue test for
//!    rectangular nests, and, for writes the loop box keeps inside their
//!    array ([`sa_ir::access::Dim::proved`]), a per-dimension test: in
//!    some dimension the two index intervals do not meet (a stencil's
//!    boundary strips beside its interior) — plus a mixed-radix
//!    self-injectivity test per site. A scatter alone in its generation
//!    is write-once by construction when its target stays inside the
//!    array and one index reads a `Permutation`-initialized array at
//!    positions no two instances share (SPMVD's `Y(ROWPERM(i))`).
//! 2. **Sweeps.** Where some pair stays inconclusive, the segment's
//!    writes are laid down sweep by sweep as address runs, one merge per
//!    nest (the crate-private `footprint` module): if every write stays
//!    inside the array and no run meets one already defined, the segment
//!    is write-once, in O(sweeps + blocks of strided runs).
//! 3. **Cells.** Otherwise — an overlap the sweeps found, a write that may
//!    leave the array, a scatter — the segment's write footprint is
//!    enumerated cell by cell in program order, which also recovers the
//!    two concrete iteration vectors of a genuine conflict for the
//!    diagnostic: every SA001/SA002 text comes from this rung. Scatters
//!    through compile-time-constant index arrays are enumerated exactly;
//!    scatters through runtime data are reported as statically undecidable
//!    (`SA003`).
//!
//! Under [`crate::by_instance`] the per-dimension test, the scatter rule
//! and the sweeps are off: rung 3 decides what the address tests leave.

use crate::diag::{Code, Diagnostic, Span};
use crate::footprint::{Batch, Footprint};
use crate::sites::{self, iterate, ResolveFail, Resolver, Segment, WriteSite};
use sa_ir::access::{interval, loop_box, Access, Dim, Subscript};
use sa_ir::analysis::{self, PairRelation};
use sa_ir::nest::LoopNest;
use sa_ir::{InitPattern, LinForm, Program};
use sa_machine::partition::gcd;

/// Outcome of the write-once pass.
#[derive(Debug, Default)]
pub struct WriteOnceReport {
    /// Findings (empty ⇒ every checkable segment is proven write-once).
    pub diagnostics: Vec<Diagnostic>,
    /// Array segments discharged in closed form (rung 1: the affine tests,
    /// or a scatter through a permutation).
    pub proven_affine: usize,
    /// Array segments the closed form left open and per-sweep address runs
    /// proved (rung 2).
    pub over_sweeps: usize,
    /// Array segments enumerated cell by cell (rung 3).
    pub enumerated: usize,
}

/// Verify the single-assignment property of every array generation
/// segment of `program`.
pub fn check_write_once(program: &Program) -> WriteOnceReport {
    let mut report = WriteOnceReport::default();
    let res = Resolver::new(program);
    let mut written = Footprint::new(program);
    // Segments come in slot order: a segment's index is its slot.
    for (slot, seg) in sites::segments(program).iter().enumerate() {
        if seg.writes.is_empty() {
            continue;
        }
        check_segment(program, slot, seg, &res, &mut written, &mut report);
    }
    report
}

fn check_segment(
    program: &Program,
    slot: usize,
    seg: &Segment<'_>,
    res: &Resolver<'_>,
    written: &mut Footprint,
    report: &mut WriteOnceReport,
) {
    let decl = program.array(seg.array);

    // Scatters through runtime-valued index arrays are undecidable — flag
    // once and bail out of this segment: any exact answer would be a guess.
    for site in &seg.writes {
        if res.runtime_index(site.target).is_some() {
            let d = Diagnostic::new(
                Code::Sa003UndecidableScatter,
                Span::stmt(site.phase, &site.nest.label, site.stmt, &decl.name),
                format!(
                    "scatter into `{}` goes through a runtime-produced index array; \
                     single assignment cannot be verified statically",
                    decl.name
                ),
            )
            .explain(
                "The written element depends on data computed at run time, so the \
                 write-once property is only checked dynamically (the machine traps \
                 DoubleWrite). Use a statically-initialized permutation for the index \
                 array if the scatter pattern is actually fixed.",
            );
            report.diagnostics.push(d);
            return;
        }
    }

    if seg.writes.iter().all(WriteSite::is_affine) {
        // All-affine fast path: closed-form pairwise conflict tests.
        if let Some(affine) = affine_sites(program, seg) {
            if disjoint(&affine, seg.init_len) {
                report.proven_affine += 1;
                return;
            }
            if crate::by_footprint() && disjoint_over_sweeps(program, seg, slot, written) {
                report.over_sweeps += 1;
                return;
            }
        }
    } else if crate::by_footprint() && permutation_scatter(program, seg, res) {
        report.proven_affine += 1;
        return;
    }

    // Exact fallback: enumerate the segment footprint in program order.
    report.enumerated += 1;
    enumerate_segment(program, seg, res, report);
}

/// Rung 1's view of every write of an all-affine segment; `None` when one
/// has no linear address form.
fn affine_sites(program: &Program, seg: &Segment<'_>) -> Option<Vec<AffineSite>> {
    let sites = seg.writes.iter();
    sites.map(|s| AffineSite::build(program, s)).collect()
}

/// Rung 1 over `affine`: each site self-injective and clear of the
/// initializer's `init` cells, and every pair disjoint.
fn disjoint(affine: &[AffineSite], init: usize) -> bool {
    affine.iter().enumerate().all(|(i, a)| {
        injective(&a.form, &a.levels) == Verdict::NoConflict
            && a.overlaps_init(init) == Verdict::NoConflict
            && affine[i + 1..]
                .iter()
                .all(|b| a.may_conflict(b) == Verdict::NoConflict)
    })
}

/// Whether rung 1 proves the segment's writes — all affine, and inside
/// their array on every instance — self-injective, clear of the
/// initializer and pairwise disjoint: its defined cells then number the
/// initializer's prefix plus its writes' instances, which is how progress
/// counts a generation complete.
pub(crate) fn counted(program: &Program, seg: &Segment<'_>) -> bool {
    seg.writes.iter().all(WriteSite::is_affine)
        && affine_sites(program, seg).is_some_and(|affine| {
            affine.iter().all(|a| a.dims.is_some()) && disjoint(&affine, seg.init_len)
        })
}

/// The scatter rule of rung 1 (module docs): the segment's one write, no
/// initializer prefix, its target inside the array on every instance, and
/// an index `scale · P(pos) + offset` with `scale ≠ 0` through a
/// `Permutation`-initialized `P` — distinct values at the distinct
/// positions of its defined prefix — at a position injective over the
/// nest.
fn permutation_scatter(program: &Program, seg: &Segment<'_>, res: &Resolver<'_>) -> bool {
    let [site] = seg.writes.as_slice() else {
        return false;
    };
    if seg.init_len > 0 {
        return false;
    }
    let vars = loop_box(&site.nest.loops);
    let target = Access::lower(program, site.target, &vars, Some(&res.statics));
    let levels = nest_levels(site.nest);
    let distinct = |dim: &Dim| match &dim.subscript {
        Subscript::Gather {
            base, pos, scale, ..
        } => {
            let permutation = res.statics.pattern(*base);
            *scale != 0
                && matches!(permutation, Some((InitPattern::Permutation { .. }, _)))
                && injective(pos, &levels) == Verdict::NoConflict
        }
        Subscript::Affine(_) => false,
    };
    target.proved() && target.dims.iter().any(distinct)
}

/// The second rung (module docs): lay the segment's writes, all affine,
/// down in slot `slot` sweep by sweep, one batch per nest; whether each
/// stayed inside the array and defined only addresses nothing — the
/// initializer, another write, or itself — had defined.
fn disjoint_over_sweeps(
    program: &Program,
    seg: &Segment<'_>,
    slot: usize,
    written: &mut Footprint,
) -> bool {
    seg.writes.chunk_by(|a, b| a.phase == b.phase).all(|sites| {
        let mut batch = Batch::new(sites.len());
        let vars = loop_box(&sites[0].nest.loops);
        let laid = sites.iter().enumerate().all(|(stream, site)| {
            let target = Access::lower(program, site.target, &vars, None);
            if target.form.is_none() {
                return false;
            }
            let laid = site.nest.try_for_each_sweep(|sweep| {
                let line = target.line(sweep).ok_or(())?;
                batch.line(stream, slot, line, sweep.trips);
                Ok::<_, ()>(())
            });
            laid.is_ok()
        });
        laid && written.merge(&mut batch)
    })
}

// ---------------------------------------------------------------------------
// Closed-form affine conflict tests
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Proven disjoint.
    NoConflict,
    /// Possibly (or certainly) conflicting — needs exact enumeration.
    May,
}

/// Per-level static facts about a nest, shared by its sites.
struct LevelInfo {
    step: i64,
    /// Maximum trip count of the level (from `analysis::level_extents`).
    trips: usize,
    /// Both bounds are constants (rectangular level).
    rect: bool,
}

fn nest_levels(nest: &LoopNest) -> Vec<LevelInfo> {
    let trips = analysis::level_extents(nest);
    let levels = nest.loops.iter().enumerate();
    levels
        .map(|(v, lv)| LevelInfo {
            step: lv.step,
            trips: trips.get(v).copied().unwrap_or(0),
            rect: lv.lo.is_constant() && lv.hi.is_constant(),
        })
        .collect()
}

/// Mixed-radix injectivity of `form` over a nest with `levels`: two
/// distinct iterations always take distinct values?
fn injective(form: &LinForm, levels: &[LevelInfo]) -> Verdict {
    let coeffs = &form.coeffs;
    let mut terms: Vec<(i64, i64)> = Vec::new(); // (|effective coeff|, span)
    for (v, info) in levels.iter().enumerate() {
        let c = coeffs.get(v).copied().unwrap_or(0);
        if info.trips <= 1 {
            continue;
        }
        if c == 0 {
            // A free level: iterations differing only here may repeat
            // the value (definitely, for rectangular nests).
            return Verdict::May;
        }
        terms.push(((c * info.step).abs(), info.trips as i64 - 1));
    }
    terms.sort_unstable_by_key(|t| std::cmp::Reverse(t.0));
    // Sorted coarse→fine: each stride must out-reach everything finer.
    let mut finer_reach = 0i64;
    for &(e, span) in terms.iter().rev() {
        if e <= finer_reach {
            return Verdict::May;
        }
        finer_reach += e * span;
    }
    Verdict::NoConflict
}

/// One affine write site reduced to closed-form address facts.
struct AffineSite {
    /// Linearized address form: coefficient per loop variable + offset.
    form: LinForm,
    levels: Vec<LevelInfo>,
    /// Inclusive range of attainable linear addresses (superset).
    addr_lo: i64,
    addr_hi: i64,
    /// Address lattice `base + gcd·ℤ ⊇ attained` for fully rectangular
    /// nests; `None` when some level is triangular.
    lattice: Option<(i64, i64)>, // (gcd, base); gcd == 0 ⇒ single address
    /// `[min, max]` of each index over the loop box, when the box keeps
    /// every index inside its extent (and not under
    /// [`crate::by_instance`]).
    dims: Option<Vec<(i128, i128)>>,
}

impl AffineSite {
    fn build(program: &Program, site: &WriteSite<'_>) -> Option<AffineSite> {
        let nvars = site.nest.loops.len();
        let form = analysis::linear_address_form(program, site.target, nvars)?;
        let levels = nest_levels(site.nest);
        let LinForm { coeffs, offset } = &form;
        // Over the nest's loop box: a superset for triangular nests.
        let vars = loop_box(&site.nest.loops);
        let (lo, hi) = interval(coeffs, *offset, &vars);
        let narrow = |x: i128| x.clamp(i64::MIN.into(), i64::MAX.into()) as i64;
        let lattice = if levels.iter().all(|l| l.rect) {
            let mut g = 0u64;
            let mut base = *offset;
            for (v, info) in levels.iter().enumerate() {
                let c = coeffs.get(v).copied().unwrap_or(0);
                // Rectangular ⇒ the first value of the level is the
                // constant lower bound.
                base += c * site.nest.loops[v].lo.offset;
                if c != 0 && info.trips > 1 {
                    g = gcd(g, (c * info.step).unsigned_abs());
                }
            }
            Some((g as i64, base))
        } else {
            None
        };
        let index = |dim: &Dim| {
            let LinForm { coeffs, offset } = dim.subscript.form();
            interval(coeffs, *offset, &vars)
        };
        let dims = crate::by_footprint()
            .then(|| Access::lower(program, site.target, &vars, None))
            .filter(Access::proved)
            .map(|target| target.dims.iter().map(index).collect());
        Some(AffineSite {
            form,
            levels,
            addr_lo: narrow(lo),
            addr_hi: narrow(hi),
            lattice,
            dims,
        })
    }

    /// Can this site's footprint intersect another's?
    fn may_conflict(&self, other: &AffineSite) -> Verdict {
        // Banerjee-style range test.
        if self.addr_hi < other.addr_lo || other.addr_hi < self.addr_lo {
            return Verdict::NoConflict;
        }
        // GCD residue test on the joint lattice.
        if let (Some((ga, ba)), Some((gb, bb))) = (self.lattice, other.lattice) {
            let g = gcd(ga as u64, gb as u64) as i64;
            let d = ba - bb;
            if g == 0 {
                return if d == 0 {
                    Verdict::May
                } else {
                    Verdict::NoConflict
                };
            }
            if d.rem_euclid(g) != 0 {
                return Verdict::NoConflict;
            }
        }
        // Per-dimension test: both inside the array, so apart in one index
        // is apart.
        if let (Some(a), Some(b)) = (&self.dims, &other.dims) {
            if a.iter().zip(b).any(|(x, y)| x.1 < y.0 || y.1 < x.0) {
                return Verdict::NoConflict;
            }
        }
        Verdict::May
    }

    /// Can this site write into the initializer-defined region `[0, init)`?
    fn overlaps_init(&self, init: usize) -> Verdict {
        if init == 0 {
            return Verdict::NoConflict;
        }
        let lo = self.addr_lo.max(0);
        let hi = self.addr_hi.min(init as i64 - 1);
        if lo > hi {
            return Verdict::NoConflict;
        }
        if let Some((g, base)) = self.lattice {
            if g == 0 {
                return if (0..init as i64).contains(&base) {
                    Verdict::May
                } else {
                    Verdict::NoConflict
                };
            }
            // First lattice point ≥ lo; conflict possible iff it is ≤ hi.
            let r = base.rem_euclid(g);
            let first = lo + (r - lo).rem_euclid(g);
            if first > hi {
                return Verdict::NoConflict;
            }
        }
        Verdict::May
    }
}

// ---------------------------------------------------------------------------
// Exact enumeration fallback
// ---------------------------------------------------------------------------

/// Walk every write of the segment in program order over a definedness
/// bitmap; the first collision yields the diagnostic, with both involved
/// iteration vectors recovered.
fn enumerate_segment(
    program: &Program,
    seg: &Segment<'_>,
    res: &Resolver<'_>,
    report: &mut WriteOnceReport,
) {
    #[cfg(test)]
    ENUMERATED.with(|n| n.set(n.get() + 1));
    let decl = program.array(seg.array);
    let mut defined = vec![false; decl.len()];
    for cell in defined.iter_mut().take(seg.init_len) {
        *cell = true;
    }

    for (si, site) in seg.writes.iter().enumerate() {
        let walked = iterate(site.nest, |ivs| {
            match res.addr(site.target, ivs) {
                Ok(addr) if defined[addr] => return Err((addr, ivs.to_vec())),
                Ok(addr) => defined[addr] = true,
                Err(ResolveFail::NotStatic { .. }) => unreachable!("segment pre-screened"),
                // Bounds/definedness failures are the progress checker's
                // findings (SA006/SA004); skip the address here.
                Err(_) => {}
            }
            Ok(())
        });
        if let Err((addr, ivs)) = walked {
            report
                .diagnostics
                .push(conflict_diagnostic(program, seg, si, addr, &ivs, res));
            return; // one finding per array segment
        }
    }
}

#[cfg(test)]
thread_local! {
    static ENUMERATED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Segments this thread has enumerated cell by cell so far.
#[cfg(test)]
pub(crate) fn segments_enumerated() -> usize {
    ENUMERATED.with(std::cell::Cell::get)
}

/// Recover the *first* writer of `addr` (initializer or an earlier/same
/// site instance) and build the SA001/SA002 diagnostic.
fn conflict_diagnostic(
    program: &Program,
    seg: &Segment<'_>,
    second_site: usize,
    addr: usize,
    second_ivs: &[i64],
    res: &Resolver<'_>,
) -> Diagnostic {
    let decl = program.array(seg.array);
    let second = &seg.writes[second_site];
    let span = Span::stmt(second.phase, &second.nest.label, second.stmt, &decl.name);

    if addr < seg.init_len {
        // First writer is the initializer.
        return Diagnostic::new(
            Code::Sa002WriteIntoInit,
            span,
            format!(
                "`{}[{addr}]` is defined by the array initializer and assigned again \
                 at iteration {}",
                decl.name,
                fmt_ivs(second.nest, second_ivs),
            ),
        )
        .explain(
            "Initialization data and statement writes share one generation; \
             re-assigning an initialized element violates single assignment exactly \
             like a double write. Shrink the initialized region (ArrayInit::Prefix) \
             or shift the write's index range.",
        );
    }

    // Re-walk the earlier instances to find the first writer of `addr`.
    let first = (0..=second_site).find_map(|si| {
        let site = &seg.writes[si];
        iterate(site.nest, |ivs| {
            if si == second_site && ivs == second_ivs {
                return Ok(()); // not the colliding instance itself
            }
            if res.addr(site.target, ivs) == Ok(addr) {
                return Err((si, ivs.to_vec()));
            }
            Ok(())
        })
        .err()
    });
    let (fsi, fivs) = first.expect("a colliding address must have a first writer");
    let fsite = &seg.writes[fsi];

    // Same-nest conflicts get the analysis machinery's flavor label.
    let flavor = if fsite.phase == second.phase && fsite.is_affine() && second.is_affine() {
        let nvars = second.nest.loops.len();
        match (
            analysis::linear_address_form(program, fsite.target, nvars),
            analysis::linear_address_form(program, second.target, nvars),
        ) {
            (Some(a), Some(b)) => match analysis::relate_forms(&a, &b) {
                PairRelation::Identical => " (identical index functions)",
                PairRelation::Skew(_) => " (skewed index functions)",
                PairRelation::RateMismatch => " (rate-mismatched index functions)",
                PairRelation::Mixed | PairRelation::Indirect => "",
            },
            _ => "",
        }
    } else {
        ""
    };

    Diagnostic::new(
        Code::Sa001DoubleWrite,
        span,
        format!(
            "`{}[{addr}]` is assigned twice: first by nest `{}` stmt {} at iteration {}, \
             again by nest `{}` stmt {} at iteration {}{flavor}",
            decl.name,
            fsite.nest.label,
            fsite.stmt,
            fmt_ivs(fsite.nest, &fivs),
            second.nest.label,
            second.stmt,
            fmt_ivs(second.nest, second_ivs),
        ),
    )
    .explain(
        "Single assignment permits exactly one producer per array element per \
         generation; the distributed machine aborts with DoubleWrite here and the \
         thread runtime's I-structure semantics become racy. Separate the two \
         producers into different generations with a Reinit, or disjoint their \
         index ranges.",
    )
}

/// Render an iteration vector as `(i=3, k=7)` using the nest's loop names.
/// Shared with the dependence-graph pass for SA008 cycle witnesses.
pub(crate) fn fmt_ivs(nest: &LoopNest, ivs: &[i64]) -> String {
    let mut s = String::from("(");
    for (v, iv) in ivs.iter().enumerate() {
        if v > 0 {
            s.push_str(", ");
        }
        match nest.loops.get(v) {
            Some(lv) => s.push_str(&format!("{}={iv}", lv.name)),
            None => s.push_str(&format!("v{v}={iv}")),
        }
    }
    s.push(')');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_ir::index::iv;
    use sa_ir::nest::LoopVar;
    use sa_ir::program::{ArrayInit, InitPattern};
    use sa_ir::{Expr, ProgramBuilder};

    #[test]
    fn clean_copy_is_proven_affine() {
        let mut b = ProgramBuilder::new("clean");
        let x = b.output("X", &[64]);
        let y = b.input("Y", &[64], InitPattern::Harmonic);
        b.nest("copy", &[("k", 0, 63)], |nb| {
            let rhs = nb.read(y, [iv(0)]);
            nb.assign(x, [iv(0)], rhs);
        });
        let r = check_write_once(&b.finish());
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.proven_affine, 1);
        assert_eq!(r.enumerated, 0);
    }

    #[test]
    fn double_write_same_nest_detected_with_witnesses() {
        let mut b = ProgramBuilder::new("dw");
        let x = b.output("X", &[32]);
        b.nest("dup", &[("k", 0, 31)], |nb| {
            // x[k] and x[31-k] collide pairwise across the midpoint.
            nb.assign(x, [iv(0)], Expr::Const(1.0));
            nb.assign(x, [iv(0).scale(-1).plus(31)], Expr::Const(2.0));
        });
        let r = check_write_once(&b.finish());
        assert_eq!(r.diagnostics.len(), 1);
        let d = &r.diagnostics[0];
        assert_eq!(d.code, Code::Sa001DoubleWrite);
        assert_eq!(d.severity, crate::Severity::Error);
        assert!(d.message.contains("assigned twice"), "{}", d.message);
        assert!(d.message.contains("k="), "{}", d.message);
    }

    #[test]
    fn rewrite_in_second_nest_detected_and_reinit_clears_it() {
        let build = |with_reinit: bool| {
            let mut b = ProgramBuilder::new("two-nests");
            let x = b.output("X", &[16]);
            b.nest("first", &[("k", 0, 15)], |nb| {
                nb.assign(x, [iv(0)], Expr::Const(1.0));
            });
            if with_reinit {
                b.reinit(x);
            }
            b.nest("second", &[("k", 0, 15)], |nb| {
                nb.assign(x, [iv(0)], Expr::Const(2.0));
            });
            b.finish()
        };
        let bad = check_write_once(&build(false));
        assert_eq!(bad.diagnostics.len(), 1);
        assert_eq!(bad.diagnostics[0].code, Code::Sa001DoubleWrite);
        assert!(
            bad.diagnostics[0].message.contains("nest `first`"),
            "{}",
            bad.diagnostics[0].message
        );
        let good = check_write_once(&build(true));
        assert!(good.diagnostics.is_empty(), "{:?}", good.diagnostics);
    }

    #[test]
    fn write_into_initialized_prefix_is_sa002() {
        let mut b = ProgramBuilder::new("init-clash");
        let x = b.array_with(
            "X",
            &[16],
            ArrayInit::Prefix {
                pattern: InitPattern::Zero,
                len: 4,
            },
        );
        b.nest("fill", &[("k", 0, 15)], |nb| {
            nb.assign(x, [iv(0)], Expr::Const(1.0));
        });
        let r = check_write_once(&b.finish());
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].code, Code::Sa002WriteIntoInit);
        assert!(r.diagnostics[0].message.contains("initializer"));
    }

    #[test]
    fn strided_disjoint_writes_proven_clean() {
        // Evens in one nest, odds in another — GCD residue test separates.
        let mut b = ProgramBuilder::new("parity");
        let x = b.output("X", &[64]);
        b.nest("evens", &[("k", 0, 31)], |nb| {
            nb.assign(x, [iv(0).scale(2)], Expr::Const(0.0));
        });
        b.nest("odds", &[("k", 0, 31)], |nb| {
            nb.assign(x, [iv(0).scale(2).plus(1)], Expr::Const(1.0));
        });
        let r = check_write_once(&b.finish());
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.proven_affine, 1);
        assert_eq!(r.enumerated, 0);
    }

    /// A scatter through a permutation is write-once by construction; the
    /// reference path enumerates it, and a position that repeats (or an
    /// initializer the scatter may meet) is enumerated too.
    #[test]
    fn static_permutation_scatter_is_proved_clean() {
        let scatter = |pos: sa_ir::AffineIndex, init: usize| {
            let mut b = ProgramBuilder::new("scatter");
            let perm = b.input("P", &[32], InitPattern::Permutation { seed: 9 });
            let pattern = InitPattern::Zero;
            let x = match init {
                0 => b.output("X", &[32]),
                len => b.array_with("X", &[32], ArrayInit::Prefix { pattern, len }),
            };
            b.nest("scat", &[("k", 0, 31)], |nb| {
                nb.assign_indirect(x, perm, pos, Expr::Const(1.0));
            });
            b.finish()
        };
        let p = scatter(iv(0), 0);
        let r = check_write_once(&p);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!((r.proven_affine, r.enumerated), (1, 0));
        let reference = crate::by_instance(|| check_write_once(&p));
        assert!(reference.diagnostics.is_empty());
        assert_eq!((reference.proven_affine, reference.enumerated), (0, 1));
        // One position for every k: a double write rung 3 finds.
        let halves = check_write_once(&scatter(iv(0).scale(0).plus(3), 0));
        assert_eq!(halves.diagnostics[0].code, Code::Sa001DoubleWrite);
        assert_eq!(halves.enumerated, 1);
        let seeded = check_write_once(&scatter(iv(0), 1));
        assert_eq!(seeded.diagnostics[0].code, Code::Sa002WriteIntoInit);
        assert_eq!(seeded.enumerated, 1);
    }

    #[test]
    fn bounded_scatter_collision_and_runtime_scatter_warning() {
        // BoundedPermutation over limit 4 on 32 writes must collide.
        let mut b = ProgramBuilder::new("collide");
        let idx = b.input(
            "I",
            &[32],
            InitPattern::BoundedPermutation { seed: 5, limit: 4 },
        );
        let x = b.output("X", &[32]);
        b.nest("scat", &[("k", 0, 31)], |nb| {
            nb.assign_indirect(x, idx, iv(0), Expr::Const(1.0));
        });
        let r = check_write_once(&b.finish());
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].code, Code::Sa001DoubleWrite);

        // Same shape but with a runtime-written index array → SA003.
        let mut b = ProgramBuilder::new("runtime-scatter");
        let idx = b.output("I", &[32]);
        let x = b.output("X", &[32]);
        b.nest("mk-idx", &[("k", 0, 31)], |nb| {
            nb.assign(idx, [iv(0)], Expr::Const(0.0));
        });
        b.nest("scat", &[("k", 0, 31)], |nb| {
            nb.assign_indirect(x, idx, iv(0), Expr::Const(1.0));
        });
        let r = check_write_once(&b.finish());
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.code == Code::Sa003UndecidableScatter));
    }

    /// A row and a column strip beside an interior are apart in one
    /// index — which the linearized address tests cannot see — once the
    /// loop box keeps every index inside its extent; a strip one past its
    /// row's end could alias the next row, so it is left to the rungs
    /// below (whose verdict is the same).
    #[test]
    fn strips_beside_an_interior_are_disjoint_per_dimension() {
        let grid = |strip_hi: i64| {
            let mut b = ProgramBuilder::new("strips");
            let x = b.output("X", &[6, 5]);
            b.nest("row", &[("j", 0, strip_hi)], |nb| {
                nb.assign(x, [0.into(), iv(0)], Expr::Const(1.0));
            });
            b.nest("col", &[("i", 1, 5)], |nb| {
                nb.assign(x, [iv(0), 0.into()], Expr::Const(1.0));
            });
            b.nest("in", &[("i", 1, 5), ("j", 1, 4)], |nb| {
                nb.assign(x, [iv(0), iv(1)], Expr::Const(2.0));
            });
            b.finish()
        };
        let p = grid(4);
        let r = check_write_once(&p);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!((r.proven_affine, r.over_sweeps, r.enumerated), (1, 0, 0));
        let reference = crate::by_instance(|| check_write_once(&p));
        assert_eq!((reference.proven_affine, reference.enumerated), (0, 1));
        // X(0, 5) is X(1, 0): the column strip's first cell.
        let leaving = check_write_once(&grid(5));
        assert_eq!(leaving.proven_affine, 0);
        let reference = crate::by_instance(|| check_write_once(&grid(5)));
        assert_eq!(leaving.diagnostics, reference.diagnostics);
    }

    #[test]
    fn triangular_nest_proven_by_self_injectivity() {
        // x[8i + k] with k < i ≤ 8 — affine and injective, but triangular
        // (no lattice), so the box-superset self-injectivity test must
        // discharge it: |8| > (8-1)·1.
        let mut b = ProgramBuilder::new("tri");
        let x = b.output("X", &[80]);
        b.nest_loops(
            "tri",
            vec![
                LoopVar::simple("i", 1, 8),
                LoopVar {
                    name: "k".into(),
                    lo: 0.into(),
                    hi: iv(0).plus(-1),
                    step: 1,
                },
            ],
            |nb| {
                nb.assign(x, [iv(0).scale(8).add(&iv(1))], Expr::Const(1.0));
            },
        );
        let r = check_write_once(&b.finish());
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.proven_affine, 1);
        assert_eq!(r.enumerated, 0);
    }
}
