//! Static classification of loop nests into the paper's four
//! access-distribution classes (§7.1): Matched, Skewed, Cyclic, Random.
//!
//! The paper classified loops *empirically* by looking at simulation graphs;
//! this module derives the same classes from the IR:
//!
//! * every read index equals the write index → **Matched** (§7.1.1);
//! * read addresses track the write address with constant offsets →
//!   **Skewed** with the maximum |offset| as the skew (§7.1.2);
//! * the read address advances at a *different rate* than the write address
//!   (ICCG's `X(k)` vs `X(i)` with `i` moving half as fast), or an outer
//!   loop re-sweeps the address range covered by inner loops (2-D arrays
//!   traversed along the small dimension) → **Cyclic** (§7.1.3);
//! * gathers ("permutation lookups") or reads whose address depends on a
//!   different *set* of loop variables than the write → **Random** (§7.1.4).
//!
//! The dynamic classifier in `sa-core` cross-checks these predictions
//! against measured remote-access curves.
//!
//! # The placement-independent half of the owner-computes schedule
//!
//! Index screening (§3) — which PE executes a statement instance — is
//! decided in two steps, and this module owns the first, the one that needs
//! no machine shape: [`screen_nests`] classifies every statement once
//! ([`Screen`]: affine anchor, anchor through [`StaticArrays`], anchorless
//! round-robin, anchor through a produced index array) and fixes each
//! nest's place in the round-robin deal ([`NestScreen::deal`], the one
//! statement of that formula, with its closed-form per-PE counts).
//! `sa_lint::screening::Schedule` binds the result to a placement table;
//! every engine and every static pass reads screening from there.

use std::sync::OnceLock;

use crate::access::{try_for_each_sweep, LinForm};
use crate::index::IndexExpr;
use crate::interp::Memory;
use crate::nest::{ArrayRef, LoopNest, Stmt};
use crate::program::{ArrayInit, InitPattern, Phase, Program};
use crate::{ArrayId, IrError};

/// Relation between one read reference and the statement's write anchor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairRelation {
    /// Same linearized address function — always local.
    Identical,
    /// Same per-variable rates, constant address offset (the *skew*).
    Skew(i64),
    /// Same variable support but different advance rates (e.g. read moves
    /// 2 addresses per iteration while the write moves 1).
    RateMismatch,
    /// The read depends on a different set of loop variables than the write.
    Mixed,
    /// The read goes through an index array (gather).
    Indirect,
}

/// The paper's access-distribution classes, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessClass {
    /// Class 1 — matched distribution: 0 % remote reads, always.
    Matched,
    /// Class 2 — skewed distribution; payload is the maximum |skew|.
    Skewed {
        /// Largest constant offset between a read and the write.
        max_skew: u64,
    },
    /// Class 3 — cyclic distribution (rate mismatch or multi-sweep).
    Cyclic,
    /// Class 4 — random distribution (gathers, mixed supports).
    Random,
}

impl AccessClass {
    /// Short display name matching the paper's abbreviations.
    pub fn abbrev(&self) -> &'static str {
        match self {
            AccessClass::Matched => "MD",
            AccessClass::Skewed { .. } => "SD",
            AccessClass::Cyclic => "CD",
            AccessClass::Random => "RD",
        }
    }
}

impl core::fmt::Display for AccessClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AccessClass::Matched => write!(f, "Matched"),
            AccessClass::Skewed { max_skew } => write!(f, "Skewed(±{max_skew})"),
            AccessClass::Cyclic => write!(f, "Cyclic"),
            AccessClass::Random => write!(f, "Random"),
        }
    }
}

/// Classification of one statement.
#[derive(Debug, Clone)]
pub struct StmtReport {
    /// Index within the nest body.
    pub stmt_index: usize,
    /// `(read array name, relation)` per read, in evaluation order.
    pub relations: Vec<(String, PairRelation)>,
    /// Class implied by this statement alone.
    pub class: AccessClass,
}

/// Classification of one nest.
#[derive(Debug, Clone)]
pub struct NestReport {
    /// The nest label.
    pub label: String,
    /// Whether the write traversal re-sweeps its address range (an outer
    /// loop advances more slowly than the span of the loops inside it).
    pub sweep_revisit: bool,
    /// Per-statement details.
    pub stmts: Vec<StmtReport>,
    /// Overall class of the nest.
    pub class: AccessClass,
}

/// Classification of a whole program.
#[derive(Debug, Clone)]
pub struct ProgramReport {
    /// Per-nest reports, in phase order.
    pub nests: Vec<NestReport>,
    /// The program's class: the most severe nest class.
    pub class: AccessClass,
}

/// Linearized affine address function of `aref`: the linear address it
/// touches at iteration `ivs` is `coeffs · ivs + offset` (row-major strides
/// folded in, coefficients padded to `nvars` loop variables). `None` if any
/// index is indirect or the reference carries more indices than its array
/// has dimensions ([`crate::access::Access::form`] needs the rank to match).
pub fn linear_address_form(program: &Program, aref: &ArrayRef, nvars: usize) -> Option<LinForm> {
    let strides = program.array(aref.array).strides();
    let mut form = LinForm {
        coeffs: vec![0; nvars],
        offset: 0,
    };
    for (d, ix) in aref.indices.iter().enumerate() {
        let IndexExpr::Affine(a) = ix else {
            return None;
        };
        let s = *strides.get(d)? as i64;
        for (v, c) in form.coeffs.iter_mut().enumerate() {
            *c += s * a.coeff(v);
        }
        form.offset += s * a.offset;
    }
    Some(form)
}

fn support(coeffs: &[i64]) -> Vec<usize> {
    coeffs
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c != 0)
        .map(|(v, _)| v)
        .collect()
}

/// `a` and `b` are scalar multiples of each other (over the rationals).
fn proportional(a: &[i64], b: &[i64]) -> bool {
    for i in 0..a.len() {
        for j in (i + 1)..a.len() {
            if a[i] * b[j] != a[j] * b[i] {
                return false;
            }
        }
    }
    true
}

/// Relation between two linearized affine address forms (as produced by
/// [`linear_address_form`]) — the vocabulary the classifier uses for
/// write/read pairs and the static lint pass (`sa-lint`) for conflicting
/// write pairs.
pub fn relate_forms(write: &LinForm, read: &LinForm) -> PairRelation {
    if write.coeffs == read.coeffs {
        let d = read.offset - write.offset;
        return if d == 0 {
            PairRelation::Identical
        } else {
            PairRelation::Skew(d)
        };
    }
    if support(&write.coeffs) == support(&read.coeffs) && proportional(&write.coeffs, &read.coeffs)
    {
        // Same variables drive both addresses at proportionally different
        // rates → cyclic revisit of a fixed page set (the paper's ICCG,
        // whose write index moves half as fast as its read index).
        PairRelation::RateMismatch
    } else {
        // Different variable sets (GLRE's `W(i-k)` vs write `W(i)`) or
        // incommensurate rates (ADI's `DU1(ky)` vs a plane-strided write):
        // the paper's "seemingly random" address jumps.
        PairRelation::Mixed
    }
}

/// Exact `[min, max]` of an affine reference's *linear address* over the
/// nest's iteration domain, or `None` if any index is indirect or the nest
/// never iterates. Exact even for triangular bounds: every sweep is
/// evaluated at its endpoints — an affine address is monotone in the trip.
///
/// This is the footprint primitive the dependence-graph builder
/// (`sa_lint::depgraph`) intersects pairs of references with: two affine
/// references can only be a read-after-write pair if their address ranges
/// overlap.
pub fn affine_address_range(
    program: &Program,
    nest: &LoopNest,
    aref: &ArrayRef,
) -> Option<(i64, i64)> {
    let form = linear_address_form(program, aref, nest.loops.len())?;
    let mut range: Option<(i64, i64)> = None;
    nest.for_each_sweep(|sweep| {
        let line = form.line(sweep);
        let (first, last) = (line.base, line.addr(sweep.trips as i64 - 1));
        let (lo, hi) = range.unwrap_or((first, first));
        range = Some((lo.min(first).min(last), hi.max(first).max(last)));
    });
    range
}

/// Maximum trip count observed at each loop level (exact: level `d`'s
/// trips are the sweeps of the nest cut off below `d`; in closed form for
/// a rectangular nest, where a level runs its one trip count once every
/// level above it runs). Public so the static write-once verifier can
/// bound per-level iteration spans for its Banerjee-style tests.
pub fn level_extents(nest: &LoopNest) -> Vec<usize> {
    if let Some(trips) = nest.rect_trips() {
        let mut runs = true;
        let extent = |&t: &usize| {
            let e = if runs { t } else { 0 };
            runs &= t > 0;
            e
        };
        return trips.iter().map(extent).collect();
    }
    (1..=nest.loops.len())
        .map(|depth| {
            let mut max = 0;
            let Ok(()) = try_for_each_sweep(&nest.loops[..depth], |sweep| {
                max = max.max(sweep.trips);
                Ok::<(), core::convert::Infallible>(())
            });
            max
        })
        .collect()
}

/// Does the write traversal revisit addresses? True when some outer level's
/// per-iteration address delta is no larger than the span the inner loops
/// cover, so successive outer iterations re-sweep the same pages
/// (the 2-D Explicit Hydrodynamics pattern, paper Fig. 3).
fn sweep_revisits(nest: &LoopNest, write_coeffs: &[i64], extents: &[usize]) -> bool {
    let nvars = nest.loops.len();
    for l in 0..nvars.saturating_sub(1) {
        if extents[l] <= 1 {
            continue;
        }
        let d_l = (write_coeffs[l] * nest.loops[l].step).unsigned_abs();
        if d_l == 0 {
            continue;
        }
        let span_inner: u64 = (l + 1..nvars)
            .map(|v| {
                (write_coeffs[v] * nest.loops[v].step).unsigned_abs()
                    * (extents[v].saturating_sub(1) as u64)
            })
            .sum();
        if d_l <= span_inner && span_inner > 0 {
            return true;
        }
    }
    false
}

/// Does any pair of reads of the same array revisit pages across an outer
/// loop iteration? True when two reads share coefficient vectors and their
/// offsets differ by a small multiple of an outer loop's per-iteration
/// write advance — e.g. 2-D Explicit Hydro reading `ZR(j,k)` and
/// `ZR(j,k-1)`: plane `k-1` is re-read one outer iteration after it was
/// read as plane `k` (paper Fig. 3's "pages are accessed in a cycle").
fn read_revisits(
    nest: &LoopNest,
    write_coeffs: &[i64],
    extents: &[usize],
    reads: &[(usize, LinForm)],
) -> bool {
    let nvars = nest.loops.len();
    if nvars < 2 {
        return false;
    }
    for (a, ra) in reads.iter().enumerate() {
        for rb in reads.iter().skip(a + 1) {
            if ra.0 != rb.0 || ra.1.coeffs != rb.1.coeffs {
                continue;
            }
            let diff = (ra.1.offset - rb.1.offset).unsigned_abs();
            if diff == 0 {
                continue;
            }
            for v in 0..nvars - 1 {
                let d_v = (write_coeffs[v] * nest.loops[v].step).unsigned_abs();
                if d_v == 0 || extents[v] <= 1 {
                    continue;
                }
                if diff % d_v == 0 {
                    let laps = diff / d_v;
                    if laps >= 1 && laps < extents[v] as u64 {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// The reference that anchors owner-computes for a statement: the write
/// target for assignments, the first read for reductions (reductions are
/// executed where their data lives and combined at the host PE).
pub fn anchor_ref(stmt: &Stmt) -> Option<&ArrayRef> {
    match stmt {
        Stmt::Assign { target, .. } => Some(target),
        Stmt::Reduce { value, .. } => value.reads().first().copied(),
    }
}

/// True if the statement's anchor goes through an index array, so its
/// owner cannot be computed from the iteration vector alone — the executor
/// must first resolve the gathered subscript (scatter writes `A(P(i)) = …`
/// and indirect-anchored reductions `s ⊕= A(P(i))`).
pub fn has_indirect_anchor(stmt: &Stmt) -> bool {
    anchor_ref(stmt).is_some_and(ArrayRef::has_indirection)
}

/// The index arrays the statement's anchor reads through (deduplicated, in
/// index order); empty for affine or absent anchors. These are the arrays
/// whose single assignment must complete *before* the anchor can be
/// resolved — the SSA sequencing precondition the thread runtime's
/// pre-flight check enforces.
pub fn anchor_index_arrays(stmt: &Stmt) -> Vec<crate::ArrayId> {
    let mut out = Vec::new();
    if let Some(aref) = anchor_ref(stmt) {
        for ix in &aref.indices {
            if let IndexExpr::Indirect { base, .. } = ix {
                if !out.contains(base) {
                    out.push(*base);
                }
            }
        }
    }
    out
}

/// The arrays whose contents are compile-time constants — never written by
/// any statement and never re-initialized — and their values: the index
/// arrays a gather, a scatter or a statement anchor can be seen through
/// before the program runs. This is the one scan every consumer asks
/// (the lowered references' gather proofs, replay's gathers, the static
/// passes' resolver, the schedule's owner tables).
///
/// A constant index cell is one [`StaticArrays::get`] hands out, and that
/// is the one rule: an array is static *cell by cell*, its defined prefix
/// ([`ArrayInit::Full`] defines every cell, [`ArrayInit::Prefix`] its
/// prefix, [`ArrayInit::Undefined`] none). A position past the prefix is a
/// cell nobody ever defines: an owner table or a gather proof that meets
/// one fails, and the interpreter reports it.
///
/// Values are materialized on first use, so scanning a program with large
/// never-gathered inputs costs nothing.
#[derive(Debug)]
pub struct StaticArrays<'p> {
    program: &'p Program,
    constant: Vec<bool>,
    values: Vec<OnceLock<Vec<f64>>>,
}

impl<'p> StaticArrays<'p> {
    /// Scan `program` for its compile-time-constant arrays.
    pub fn scan(program: &'p Program) -> Self {
        let mut constant: Vec<bool> = program
            .arrays
            .iter()
            .map(|d| !matches!(d.init, ArrayInit::Undefined))
            .collect();
        for phase in &program.phases {
            match phase {
                Phase::Reinit(id) => constant[id.0] = false,
                Phase::Loop(nest) => {
                    for id in nest.written_arrays() {
                        constant[id.0] = false;
                    }
                }
            }
        }
        StaticArrays {
            program,
            values: constant.iter().map(|_| OnceLock::new()).collect(),
            constant,
        }
    }

    /// The defined prefix of `a` if its values are compile-time constants.
    #[inline]
    pub fn get(&self, a: ArrayId) -> Option<&[f64]> {
        if !self.constant[a.0] {
            return None;
        }
        let decl = self.program.array(a);
        Some(self.values[a.0].get_or_init(|| decl.init.materialize(decl.len())))
    }

    /// The initializer pattern of `a` and the length of its defined prefix,
    /// if its values are compile-time constants: what [`StaticArrays::get`]
    /// materializes, without materializing it.
    pub fn pattern(&self, a: ArrayId) -> Option<(InitPattern, usize)> {
        if !self.constant[a.0] {
            return None;
        }
        let decl = self.program.array(a);
        match decl.init {
            ArrayInit::Full(pattern) => Some((pattern, decl.len())),
            ArrayInit::Prefix { pattern, len } => Some((pattern, len.min(decl.len()))),
            ArrayInit::Undefined => None,
        }
    }

    /// Whether every cell of `a` is a constant: declared
    /// [`ArrayInit::Full`], never written, never re-initialized.
    pub fn is_total(&self, a: ArrayId) -> bool {
        self.constant[a.0] && matches!(self.program.array(a).init, ArrayInit::Full(_))
    }
}

/// The constant cells as a [`Memory`]: what a reference resolves against
/// ahead of the run. A cell that is not a compile-time constant reads as
/// undefined.
impl Memory for &StaticArrays<'_> {
    fn load(&mut self, array: ArrayId, addr: usize) -> Result<f64, IrError> {
        self.get(array)
            .and_then(|values| values.get(addr).copied())
            .ok_or_else(|| IrError::ReadUndefined {
                array: self.program.array(array).name.clone(),
                addr,
            })
    }
}

/// How the instances of one statement find their executing PE (paper §3,
/// index screening).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Screen {
    /// Affine anchor: the owner of element `form(ivs)` of `array`. A PE's
    /// trips of a sweep follow closed-form from the placement.
    Affine {
        /// Anchor array.
        array: ArrayId,
        /// Linear address of the anchor element.
        form: LinForm,
    },
    /// Anchor through index arrays whose cells are compile-time constants
    /// ([`StaticArrays::get`]): the owner of every instance can be
    /// tabulated before the run.
    Static,
    /// Anchorless statement (a reduction reading no array): dealt
    /// round-robin, see [`NestScreen::deal`].
    RoundRobin {
        /// Index among the nest's anchorless statements.
        slot: u64,
    },
    /// Anchor through an index array the program produces: the owner is
    /// known once the index cell is, at run time. Also the kind of an
    /// anchor no linear form exists for (a rank mismatch), which fails on
    /// its first instance everywhere.
    Produced,
}

/// Screening of one nest, before any machine shape is known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NestScreen {
    /// Per body statement, how its instances are screened.
    pub screens: Vec<Screen>,
    /// Iterations of the whole nest.
    pub iterations: u64,
    /// Anchorless instances dealt by the nests before this one: the deal
    /// is global across the program.
    rr_base: u64,
    /// Anchorless statements per iteration.
    rr_width: u64,
}

impl NestScreen {
    /// The PE (of `n_pes`) that the round-robin deal gives the `slot`-th
    /// anchorless statement at iteration `g` of the nest (`g` counts the
    /// nest's iterations in execution order): anchorless instances take
    /// consecutive PEs in execution order, across statements, iterations
    /// and nests.
    #[inline]
    pub fn deal(&self, slot: u64, g: u64, n_pes: usize) -> usize {
        ((self.rr_base + g * self.rr_width + slot) % n_pes as u64) as usize
    }

    /// How many of the nest's anchorless instances the deal gives each of
    /// `n_pes` PEs, in closed form: the nest's instances take consecutive
    /// positions of the deal, so every PE gets the quotient and the first
    /// few after the nest's starting PE one more.
    pub fn dealt_per_pe(&self, n_pes: usize) -> impl Iterator<Item = u64> {
        let n = n_pes as u64;
        let (dealt, start) = (self.iterations * self.rr_width, self.rr_base % n);
        (0..n).map(move |pe| dealt / n + u64::from((pe + n - start) % n < dealt % n))
    }

    /// Which of `n_pes` PEs execute some instance of the `slot`-th
    /// anchorless statement. The deal is periodic in the PE count.
    pub fn dealt_to(&self, slot: u64, n_pes: usize) -> Vec<bool> {
        let mut pes = vec![false; n_pes];
        for g in 0..self.iterations.min(n_pes as u64) {
            pes[self.deal(slot, g, n_pes)] = true;
        }
        pes
    }
}

/// Screen every nest of `program`, in phase order.
pub fn screen_nests(program: &Program, statics: &StaticArrays<'_>) -> Vec<NestScreen> {
    let mut rr_base = 0u64;
    program
        .nests()
        .map(|nest| {
            let mut rr_width = 0u64;
            let screens = nest
                .body
                .iter()
                .map(|stmt| {
                    let Some(anchor) = anchor_ref(stmt) else {
                        rr_width += 1;
                        return Screen::RoundRobin { slot: rr_width - 1 };
                    };
                    if let Some(form) = linear_address_form(program, anchor, nest.loops.len()) {
                        let array = anchor.array;
                        return Screen::Affine { array, form };
                    }
                    let bases = anchor_index_arrays(stmt);
                    if !bases.is_empty() && bases.iter().all(|b| statics.pattern(*b).is_some()) {
                        Screen::Static
                    } else {
                        Screen::Produced
                    }
                })
                .collect();
            let screen = NestScreen {
                screens,
                iterations: nest.iteration_count() as u64,
                rr_base,
                rr_width,
            };
            rr_base += screen.iterations * rr_width;
            screen
        })
        .collect()
}

/// Classify one nest of `program`.
pub fn classify_nest(program: &Program, nest: &LoopNest) -> NestReport {
    let nvars = nest.loops.len();
    let extents = level_extents(nest);
    let mut stmts = Vec::new();
    let mut revisit_any = false;

    for (si, stmt) in nest.body.iter().enumerate() {
        let anchor = anchor_ref(stmt);
        let anchor_form = anchor.and_then(|a| linear_address_form(program, a, nvars));
        if let (Some(_), Some(form)) = (anchor, &anchor_form) {
            if matches!(stmt, Stmt::Assign { .. }) && sweep_revisits(nest, &form.coeffs, &extents) {
                revisit_any = true;
            }
        }
        let mut relations = Vec::new();
        let mut read_forms: Vec<(usize, LinForm)> = Vec::new();
        for read in stmt.reads() {
            let name = program.array(read.array).name.clone();
            let rel = if read.has_indirection() {
                PairRelation::Indirect
            } else {
                match (&anchor_form, linear_address_form(program, read, nvars)) {
                    (Some(w), Some(r)) => {
                        let rel = relate_forms(w, &r);
                        read_forms.push((read.array.0, r));
                        rel
                    }
                    _ => PairRelation::Indirect,
                }
            };
            relations.push((name, rel));
        }
        if let Some(form) = &anchor_form {
            if matches!(stmt, Stmt::Assign { .. })
                && read_revisits(nest, &form.coeffs, &extents, &read_forms)
            {
                revisit_any = true;
            }
        }
        // A write through an indirect index (scatter) is Random by itself.
        let scatter = anchor.is_some_and(ArrayRef::has_indirection);
        let class = stmt_class(&relations, scatter);
        stmts.push(StmtReport {
            stmt_index: si,
            relations,
            class,
        });
    }

    let mut class = stmts
        .iter()
        .map(|s| s.class)
        .max()
        .unwrap_or(AccessClass::Matched);
    // A re-sweeping traversal upgrades non-local statements to Cyclic
    // (the "cyclic and skewed combination" of Fig. 3) but never downgrades.
    if revisit_any && matches!(class, AccessClass::Skewed { .. }) {
        class = AccessClass::Cyclic;
    }
    NestReport {
        label: nest.label.clone(),
        sweep_revisit: revisit_any,
        stmts,
        class,
    }
}

fn stmt_class(relations: &[(String, PairRelation)], scatter: bool) -> AccessClass {
    if scatter {
        return AccessClass::Random;
    }
    let mut max_skew = 0u64;
    let mut class = AccessClass::Matched;
    for (_, rel) in relations {
        match rel {
            PairRelation::Identical => {}
            PairRelation::Skew(d) => max_skew = max_skew.max(d.unsigned_abs()),
            PairRelation::RateMismatch => class = class.max(AccessClass::Cyclic),
            PairRelation::Mixed | PairRelation::Indirect => class = class.max(AccessClass::Random),
        }
    }
    if class == AccessClass::Matched && max_skew > 0 {
        class = AccessClass::Skewed { max_skew };
    } else if let AccessClass::Skewed { max_skew: m } = class {
        class = AccessClass::Skewed {
            max_skew: m.max(max_skew),
        };
    }
    class
}

/// Classify every nest of a program; the program class is the most severe.
pub fn classify_program(program: &Program) -> ProgramReport {
    let nests: Vec<NestReport> = program.nests().map(|n| classify_nest(program, n)).collect();
    let class = nests
        .iter()
        .map(|n| n.class)
        .max()
        .unwrap_or(AccessClass::Matched);
    ProgramReport { nests, class }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::index::{iv, AffineIndex};
    use crate::program::InitPattern;

    #[test]
    fn class_ordering_matches_severity() {
        assert!(AccessClass::Matched < AccessClass::Skewed { max_skew: 1 });
        assert!(AccessClass::Skewed { max_skew: 99 } < AccessClass::Cyclic);
        assert!(AccessClass::Cyclic < AccessClass::Random);
        assert_eq!(AccessClass::Random.abbrev(), "RD");
        assert_eq!(
            format!("{}", AccessClass::Skewed { max_skew: 11 }),
            "Skewed(±11)"
        );
    }

    #[test]
    fn matched_loop_is_class_1() {
        // RX(k) = XX(k) - IR(k)  (1-D Particle in a Cell fragment)
        let mut b = ProgramBuilder::new("pic");
        let xx = b.input("XX", &[64], InitPattern::Wavy);
        let ir = b.input("IR", &[64], InitPattern::Harmonic);
        let rx = b.output("RX", &[64]);
        b.nest("k14", &[("k", 0, 63)], |n| {
            n.assign(rx, [iv(0)], n.read(xx, [iv(0)]) - n.read(ir, [iv(0)]));
        });
        let rep = classify_program(&b.finish());
        assert_eq!(rep.class, AccessClass::Matched);
        assert!(!rep.nests[0].sweep_revisit);
        assert!(rep.nests[0].stmts[0]
            .relations
            .iter()
            .all(|(_, r)| *r == PairRelation::Identical));
    }

    #[test]
    fn skewed_loop_reports_max_skew() {
        // X(k) = Q + Y(k)*(R*ZX(k+10) + T*ZX(k+11))  (Hydro Fragment)
        let mut b = ProgramBuilder::new("hydro");
        let y = b.input("Y", &[80], InitPattern::Wavy);
        let zx = b.input("ZX", &[80], InitPattern::Wavy);
        let x = b.output("X", &[80]);
        b.nest("k1", &[("k", 0, 63)], |n| {
            n.assign(
                x,
                [iv(0)],
                n.read(y, [iv(0)]) * (n.read(zx, [iv(0).plus(10)]) + n.read(zx, [iv(0).plus(11)])),
            );
        });
        let rep = classify_program(&b.finish());
        assert_eq!(rep.class, AccessClass::Skewed { max_skew: 11 });
    }

    #[test]
    fn rate_mismatch_is_cyclic() {
        // X(i) = X(2i) - V(2i): read advances twice as fast (ICCG shape).
        let mut b = ProgramBuilder::new("iccg");
        let v = b.input("V", &[128], InitPattern::Wavy);
        let x = b.array_with(
            "X",
            &[128],
            crate::program::ArrayInit::Prefix {
                pattern: InitPattern::Wavy,
                len: 64,
            },
        );
        b.nest("level", &[("t", 0, 31)], |n| {
            n.assign(
                x,
                [iv(0).plus(64)],
                n.read(x, [AffineIndex::scaled_var(2, 0)])
                    - n.read(v, [AffineIndex::scaled_var(2, 0)]),
            );
        });
        let rep = classify_program(&b.finish());
        assert_eq!(rep.class, AccessClass::Cyclic);
    }

    #[test]
    fn multisweep_2d_traversal_is_cyclic() {
        // ZA(j,k) = ZP(j-1,k+1) ... with k outer (extent 5) and j inner:
        // inner loop spans the whole row stride, so pages revisit.
        let mut b = ProgramBuilder::new("hydro2d");
        let zp = b.input("ZP", &[100, 7], InitPattern::Wavy);
        let za = b.output("ZA", &[100, 7]);
        b.nest("k18", &[("k", 1, 5), ("j", 1, 98)], |n| {
            n.assign(
                za,
                [iv(1), iv(0)],
                n.read(zp, [iv(1).plus(-1), iv(0).plus(1)]) + n.read(zp, [iv(1), iv(0)]),
            );
        });
        let rep = classify_program(&b.finish());
        assert!(rep.nests[0].sweep_revisit);
        assert_eq!(rep.class, AccessClass::Cyclic);
    }

    #[test]
    fn mixed_support_is_random() {
        // W(i) accumulated from W(i-k): triangular GLRE shape.
        let mut b = ProgramBuilder::new("glre");
        let bb = b.input("B", &[64, 64], InitPattern::Wavy);
        let w = b.array_with(
            "W",
            &[64],
            crate::program::ArrayInit::Prefix {
                pattern: InitPattern::Wavy,
                len: 1,
            },
        );
        b.nest_loops(
            "k6",
            vec![
                crate::nest::LoopVar::simple("i", 1, 63),
                crate::nest::LoopVar {
                    name: "k".into(),
                    lo: 1.into(),
                    hi: iv(0),
                    step: 1,
                },
            ],
            |n| {
                n.assign(
                    w,
                    [iv(0)],
                    n.read(bb, [iv(0), iv(1)]) * n.read(w, [iv(0).add(&iv(1).scale(-1))]),
                );
            },
        );
        let rep = classify_program(&b.finish());
        assert_eq!(rep.class, AccessClass::Random);
    }

    #[test]
    fn gather_is_random() {
        let mut b = ProgramBuilder::new("perm");
        let d = b.input("D", &[64], InitPattern::Wavy);
        let p = b.input("P", &[64], InitPattern::Permutation { seed: 3 });
        let x = b.output("X", &[64]);
        b.nest("g", &[("k", 0, 63)], |n| {
            n.assign(x, [iv(0)], n.read_indirect(d, p, iv(0)));
        });
        let rep = classify_program(&b.finish());
        assert_eq!(rep.class, AccessClass::Random);
    }

    #[test]
    fn monotone_2d_row_sweep_is_not_cyclic() {
        // A(i,j) = B(i,j-1): i outer over rows, j inner within a row —
        // addresses advance monotonically, no revisit.
        let mut b = ProgramBuilder::new("rows");
        let src = b.input("B", &[16, 32], InitPattern::Wavy);
        let dst = b.output("A", &[16, 32]);
        b.nest("rows", &[("i", 0, 15), ("j", 1, 31)], |n| {
            n.assign(dst, [iv(0), iv(1)], n.read(src, [iv(0), iv(1).plus(-1)]));
        });
        let rep = classify_program(&b.finish());
        assert!(!rep.nests[0].sweep_revisit);
        assert_eq!(rep.class, AccessClass::Skewed { max_skew: 1 });
    }

    #[test]
    fn reduction_anchor_is_first_read() {
        // Q = Σ Z(k)*X(k+5): anchor Z(k); X skewed by 5.
        let mut b = ProgramBuilder::new("dot");
        let z = b.input("Z", &[64], InitPattern::Wavy);
        let x = b.input("X", &[70], InitPattern::Wavy);
        let s = b.scalar("Q");
        b.nest("k3", &[("k", 0, 63)], |n| {
            n.reduce(
                s,
                crate::expr::ReduceOp::Sum,
                n.read(z, [iv(0)]) * n.read(x, [iv(0).plus(5)]),
            );
        });
        let rep = classify_program(&b.finish());
        assert_eq!(rep.class, AccessClass::Skewed { max_skew: 5 });
    }

    #[test]
    fn the_deal_hands_anchorless_instances_to_consecutive_pes() {
        // Two anchorless statements beside an anchored one, then a second
        // nest with one: a running counter over the anchorless instances in
        // execution order is the definition the closed forms must meet.
        let mut b = ProgramBuilder::new("deal");
        let y = b.input("Y", &[16], InitPattern::Wavy);
        let (q, c, s) = (b.scalar("q"), b.scalar("c"), b.scalar("s"));
        b.nest("two", &[("i", 0, 2), ("k", 0, 4)], |n| {
            n.reduce(q, crate::expr::ReduceOp::Sum, crate::Expr::LoopVar(1));
            n.reduce(s, crate::expr::ReduceOp::Sum, n.read(y, [iv(1)]));
            n.reduce(c, crate::expr::ReduceOp::Sum, crate::Expr::Const(1.0));
        });
        b.nest("one", &[("k", 0, 6)], |n| {
            n.reduce(q, crate::expr::ReduceOp::Sum, crate::Expr::Const(2.0));
        });
        let p = b.finish();
        let screens = screen_nests(&p, &StaticArrays::scan(&p));
        assert_eq!(screens[0].screens[0], Screen::RoundRobin { slot: 0 });
        assert!(matches!(screens[0].screens[1], Screen::Affine { .. }));
        assert_eq!(screens[0].screens[2], Screen::RoundRobin { slot: 1 });
        assert_eq!((screens[0].iterations, screens[1].iterations), (15, 7));
        for n_pes in [1usize, 2, 3, 4, 7, 64] {
            let mut counter = 0usize;
            for screen in &screens {
                let mut per_pe = vec![0u64; n_pes];
                let mut to = vec![vec![false; n_pes]; 2];
                for g in 0..screen.iterations {
                    for s in &screen.screens {
                        let Screen::RoundRobin { slot } = *s else {
                            continue;
                        };
                        let pe = counter % n_pes;
                        counter += 1;
                        assert_eq!(screen.deal(slot, g, n_pes), pe, "{n_pes} PEs, g {g}");
                        per_pe[pe] += 1;
                        to[slot as usize][pe] = true;
                    }
                }
                assert_eq!(screen.dealt_per_pe(n_pes).collect::<Vec<_>>(), per_pe);
                for s in &screen.screens {
                    if let Screen::RoundRobin { slot } = *s {
                        assert_eq!(screen.dealt_to(slot, n_pes), to[slot as usize]);
                    }
                }
            }
        }
    }

    #[test]
    fn static_arrays_are_the_never_mutated_initialized_ones() {
        use crate::program::ArrayInit;
        let mut b = ProgramBuilder::new("statics");
        let full = b.input("F", &[8], InitPattern::Permutation { seed: 1 });
        let prefix = b.array_with(
            "P",
            &[8],
            ArrayInit::Prefix {
                pattern: InitPattern::Wavy,
                len: 8,
            },
        );
        let reinit = b.input("R", &[8], InitPattern::Wavy);
        let out = b.output("X", &[8]);
        let never = b.output("N", &[8]);
        b.nest("w", &[("k", 0, 7)], |n| {
            n.assign(out, [iv(0)], n.read(full, [iv(0)]));
        });
        b.reinit(reinit);
        let p = b.finish();
        let statics = StaticArrays::scan(&p);
        assert_eq!(statics.get(full).map(<[f64]>::len), Some(8));
        assert!(statics.is_total(full));
        // A prefix is static cell by cell: constant where it is defined,
        // but not every cell of the array — even when it covers it.
        assert_eq!(statics.get(prefix).map(<[f64]>::len), Some(8));
        assert!(!statics.is_total(prefix));
        for runtime in [reinit, out, never] {
            assert!(statics.get(runtime).is_none() && !statics.is_total(runtime));
        }
        assert!((&statics).load(full, 3).is_ok());
        assert!((&statics).load(out, 3).is_err());
    }

    #[test]
    fn empty_program_is_matched() {
        let rep = classify_program(&ProgramBuilder::new("empty").finish());
        assert_eq!(rep.class, AccessClass::Matched);
        assert!(rep.nests.is_empty());
    }
}
