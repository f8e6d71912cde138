//! Compiled statement bodies: the one evaluator under every engine that
//! computes values — the sequential interpreter ([`crate::interpret`]),
//! the counting simulator and the §9 clock riding it (`sa_core::exec`),
//! and the thread engine's PE tasks (`sa-runtime`).
//!
//! [`NestBody::compile`] lowers each statement of a nest once:
//!
//! * **Expressions** become a postfix op list over a small f64 stack. The
//!   operands come in the order the expression tree evaluates them, so the
//!   loads happen in the same order — the first failing one still fails
//!   first — and every f64 operation associates as written: the values
//!   are bit-identical to the tree's.
//! * **Affine functions** — addresses, indices, gather positions, loop
//!   variables — become [`LinForm`]s, shared across the nest. Along a
//!   sweep ([`NestBody::enter`]) each is a [`Line`] in the trip number, so
//!   its value on a trip is one multiply-add.
//! * **An affine reference's address** is its linear form
//!   ([`linear_address_form`]). A dimension whose index the nest's loop
//!   box proves inside its extent is never checked again; every other
//!   dimension is checked per instance, in dimension order, before the
//!   address is used. So an index outside its dimension raises the same
//!   `IndexOutOfBounds` at the same instance, even where the linear
//!   address would alias an in-range cell.
//! * **A gather or a rank mismatch** resolves index by index under the
//!   rules [`resolve_ref_addr`] states (shared code, not a copy); a gather
//!   keeps its counted index load.
//! * **Every load site** — each reference, and each gather's index load —
//!   owns a [`PageMemo`] in the executor's [`Frame`], which the executor's
//!   [`Memory`] fills: an owner is looked up once per page run, not once
//!   per access.
//!
//! [`resolve_ref_addr`]: crate::interp::resolve_ref_addr

use std::collections::HashMap;

use sa_mem::PageMemo;

use crate::access::{LinForm, Line, Sweep};
use crate::analysis::linear_address_form;
use crate::expr::{BinOp, Expr, UnaryOp};
use crate::index::{AffineIndex, IndexExpr};
use crate::interp::{fold_address, gather_index, Memory};
use crate::nest::{ArrayRef, LoopNest, LoopVar, Stmt};
use crate::{ArrayId, IrError, Program};

/// A compiled reference of a [`NestBody`]: a statement's write target or
/// anchor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site(usize);

/// An operand read without the stack.
#[derive(Debug, Clone, Copy)]
enum Leaf {
    Const(f64),
    Scalar(usize),
    /// The value of a form (a loop variable).
    Form(usize),
    /// A load through a reference.
    Load(usize),
    /// A load through a reference whose every index the loop box proves:
    /// `Load` with the reference's fields at hand.
    Direct {
        array: u32,
        memo: u32,
        form: u32,
    },
}

/// One postfix step. The top of the stack lives in a register; a binary
/// operator whose right operand is a leaf takes it directly.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push(Leaf),
    Unary(UnaryOp),
    /// Combine the value below the top (left) with the top (right).
    Binary(BinOp),
    /// Combine the top (left) with a leaf (right).
    With(BinOp, Leaf),
}

/// A dimension the loop box does not prove in bounds.
#[derive(Debug)]
struct Check {
    dim: usize,
    form: usize,
    extent: usize,
}

/// One index of a reference resolved index by index.
#[derive(Debug)]
enum Index {
    Affine(usize),
    Gather {
        base: ArrayId,
        pos: usize,
        scale: i64,
        offset: i64,
        memo: usize,
    },
}

#[derive(Debug)]
enum Addr {
    /// Every index affine and the rank right: the address is `form`, once
    /// `checks` pass.
    Linear { form: usize, checks: Vec<Check> },
    /// A gather or a rank mismatch.
    Resolved(Vec<Index>),
}

#[derive(Debug)]
struct Ref {
    array: ArrayId,
    memo: usize,
    addr: Addr,
}

#[derive(Debug)]
struct StmtBody {
    ops: Vec<Op>,
    target: Option<usize>,
    anchor: Option<usize>,
}

/// The statements of one nest, compiled (module docs).
#[derive(Debug)]
pub struct NestBody<'p> {
    program: &'p Program,
    forms: Vec<LinForm>,
    refs: Vec<Ref>,
    stmts: Vec<StmtBody>,
    memos: usize,
    depth: usize,
}

/// An executor's state for one [`NestBody`]: the forms along the current
/// sweep, one page memo per load site, and the evaluation stack.
#[derive(Debug, Clone, Default)]
pub struct Frame {
    lines: Vec<Line>,
    memos: Vec<PageMemo>,
    stack: Vec<f64>,
}

/// `[min, max]` of every loop variable over the nest, outermost first
/// (interval arithmetic on the bounds: exact for rectangular nests, a
/// superset for triangular ones). A loop that never runs has an empty
/// interval, and proves nothing about what is inside it — which never
/// runs either.
fn loop_box(loops: &[LoopVar]) -> Vec<(i128, i128)> {
    let mut vars: Vec<(i128, i128)> = Vec::with_capacity(loops.len());
    for lv in loops {
        let (lo, hi) = (interval(&lv.lo, &vars), interval(&lv.hi, &vars));
        vars.push(if lv.step > 0 {
            (lo.0, hi.1)
        } else {
            (hi.0, lo.1)
        });
    }
    vars
}

/// `[min, max]` of `a` over `vars` (variables past them count as 0, as
/// [`AffineIndex::eval`] counts them).
fn interval(a: &AffineIndex, vars: &[(i128, i128)]) -> (i128, i128) {
    let mut r = (i128::from(a.offset), i128::from(a.offset));
    for (&c, &(lo, hi)) in a.coeffs.iter().zip(vars) {
        let (x, y) = (i128::from(c) * lo, i128::from(c) * hi);
        r = (r.0 + x.min(y), r.1 + x.max(y));
    }
    r
}

struct Compiler<'a, 'p> {
    program: &'p Program,
    nvars: usize,
    vars: &'a [(i128, i128)],
    forms: Vec<LinForm>,
    seen: HashMap<LinForm, usize>,
    refs: Vec<Ref>,
    memos: usize,
}

impl Compiler<'_, '_> {
    fn form(&mut self, f: LinForm) -> usize {
        let next = self.forms.len();
        *self.seen.entry(f).or_insert_with_key(|f| {
            self.forms.push(f.clone());
            next
        })
    }

    fn memo(&mut self) -> usize {
        self.memos += 1;
        self.memos - 1
    }

    fn reference(&mut self, aref: &ArrayRef) -> usize {
        let decl = self.program.array(aref.array);
        let memo = self.memo();
        let linear = (aref.indices.len() == decl.dims.len())
            .then(|| linear_address_form(self.program, aref, self.nvars))
            .flatten();
        let addr = match linear {
            Some(form) => {
                let mut checks = Vec::new();
                for (dim, (ix, &extent)) in aref.indices.iter().zip(&decl.dims).enumerate() {
                    let a = ix.as_affine().expect("a linear form has affine indices");
                    let (lo, hi) = interval(a, self.vars);
                    if lo < 0 || hi >= extent as i128 {
                        let form = self.form(LinForm::of_index(a, self.nvars));
                        checks.push(Check { dim, form, extent });
                    }
                }
                Addr::Linear {
                    form: self.form(form),
                    checks,
                }
            }
            None => Addr::Resolved(
                aref.indices
                    .iter()
                    .map(|ix| match ix {
                        IndexExpr::Affine(a) => {
                            Index::Affine(self.form(LinForm::of_index(a, self.nvars)))
                        }
                        IndexExpr::Indirect {
                            base,
                            pos,
                            scale,
                            offset,
                        } => Index::Gather {
                            base: *base,
                            pos: self.form(LinForm::of_index(pos, self.nvars)),
                            scale: *scale,
                            offset: *offset,
                            memo: self.memo(),
                        },
                    })
                    .collect(),
            ),
        };
        self.refs.push(Ref {
            array: aref.array,
            memo,
            addr,
        });
        self.refs.len() - 1
    }

    /// `e` as an operand that needs no stack, if it is one.
    fn leaf(&mut self, e: &Expr) -> Option<Leaf> {
        Some(match e {
            Expr::Const(c) => Leaf::Const(*c),
            Expr::Param(p) => Leaf::Const(self.program.params[p.0].1),
            Expr::Scalar(s) => Leaf::Scalar(s.0),
            Expr::LoopVar(v) => {
                assert!(*v < self.nvars, "loop variable {v} outside its nest");
                Leaf::Form(self.form(LinForm::of_index(&AffineIndex::var(*v), self.nvars)))
            }
            Expr::Read(r) => {
                let k = self.reference(r);
                let narrow = |i: usize| u32::try_from(i).expect("fewer than 2³² sites");
                match &self.refs[k] {
                    Ref {
                        array,
                        memo,
                        addr: Addr::Linear { form, checks },
                    } if checks.is_empty() => Leaf::Direct {
                        array: narrow(array.0),
                        memo: narrow(*memo),
                        form: narrow(*form),
                    },
                    _ => Leaf::Load(k),
                }
            }
            Expr::Unary(..) | Expr::Binary(..) => return None,
        })
    }

    /// Append `e` in postfix to `ops`, operands in evaluation order;
    /// returns how many values it holds at once.
    fn expr(&mut self, e: &Expr, ops: &mut Vec<Op>) -> usize {
        match e {
            Expr::Unary(op, a) => {
                let depth = self.expr(a, ops);
                ops.push(Op::Unary(*op));
                depth
            }
            Expr::Binary(op, a, b) => {
                let left = self.expr(a, ops);
                match self.leaf(b) {
                    Some(leaf) => {
                        ops.push(Op::With(*op, leaf));
                        left
                    }
                    None => {
                        let right = self.expr(b, ops);
                        ops.push(Op::Binary(*op));
                        left.max(1 + right)
                    }
                }
            }
            leaf => {
                let leaf = self.leaf(leaf).expect("a leaf");
                ops.push(Op::Push(leaf));
                1
            }
        }
    }
}

impl<'p> NestBody<'p> {
    /// Compile every statement of `nest`, a nest of `program`.
    pub fn compile(program: &'p Program, nest: &LoopNest) -> Self {
        let vars = loop_box(&nest.loops);
        let mut c = Compiler {
            program,
            nvars: nest.loops.len(),
            vars: &vars,
            forms: Vec::new(),
            seen: HashMap::new(),
            refs: Vec::new(),
            memos: 0,
        };
        let mut depth = 1;
        let stmts = nest
            .body
            .iter()
            .map(|stmt| {
                let mut ops = Vec::new();
                let first_read = c.refs.len();
                depth = depth.max(c.expr(stmt.value(), &mut ops));
                let reads = first_read..c.refs.len();
                let (target, anchor) = match stmt {
                    Stmt::Assign { target, .. } => {
                        let t = c.reference(target);
                        (Some(t), Some(t))
                    }
                    // A reduction is anchored at its first read.
                    Stmt::Reduce { .. } => (None, (!reads.is_empty()).then_some(reads.start)),
                };
                StmtBody {
                    ops,
                    target,
                    anchor,
                }
            })
            .collect();
        NestBody {
            program,
            forms: c.forms,
            refs: c.refs,
            stmts,
            memos: c.memos,
            depth,
        }
    }

    /// A fresh executor state: no sweep entered, every memo empty.
    pub fn frame(&self) -> Frame {
        Frame {
            lines: vec![Line { base: 0, step: 0 }; self.forms.len()],
            memos: vec![PageMemo::default(); self.memos],
            stack: vec![0.0; self.depth],
        }
    }

    /// Move `frame` onto `sweep`: trips are counted from its first.
    pub fn enter(&self, frame: &mut Frame, sweep: &Sweep<'_>) {
        for (line, form) in frame.lines.iter_mut().zip(&self.forms) {
            *line = form.line(sweep);
        }
    }

    /// The write target of statement `stmt` (`None` for a reduction).
    pub fn target(&self, stmt: usize) -> Option<Site> {
        self.stmts[stmt].target.map(Site)
    }

    /// The reference that anchors statement `stmt` for owner-computes
    /// (`sa_ir::analysis::anchor_ref`): its target, or a reduction's first
    /// read; `None` for a reduction that reads no array.
    pub fn anchor(&self, stmt: usize) -> Option<Site> {
        self.stmts[stmt].anchor.map(Site)
    }

    /// The array `site` names.
    pub fn array(&self, site: Site) -> ArrayId {
        self.refs[site.0].array
    }

    /// The page memo of `site`'s element access in `frame`.
    pub fn memo<'f>(&self, frame: &'f mut Frame, site: Site) -> &'f mut PageMemo {
        &mut frame.memos[self.refs[site.0].memo]
    }

    /// The linear address `site` names on trip `t` of the entered sweep;
    /// gather index loads go through `mem`.
    #[inline]
    pub fn addr(
        &self,
        site: Site,
        t: i64,
        frame: &mut Frame,
        mem: &mut impl Memory,
    ) -> Result<usize, IrError> {
        self.resolve(&self.refs[site.0], t, &frame.lines, &mut frame.memos, mem)
    }

    #[inline]
    fn resolve(
        &self,
        r: &Ref,
        t: i64,
        lines: &[Line],
        memos: &mut [PageMemo],
        mem: &mut impl Memory,
    ) -> Result<usize, IrError> {
        match &r.addr {
            Addr::Linear { form, checks } => {
                for c in checks {
                    let index = lines[c.form].addr(t);
                    if index < 0 || index as usize >= c.extent {
                        return Err(IrError::IndexOutOfBounds {
                            array: self.program.array(r.array).name.clone(),
                            dim: c.dim,
                            index,
                            extent: c.extent,
                        });
                    }
                }
                Ok(lines[*form].addr(t) as usize)
            }
            Addr::Resolved(indices) => {
                fold_address(self.program, r.array, indices.len(), |d| match indices[d] {
                    Index::Affine(f) => Ok(lines[f].addr(t)),
                    Index::Gather {
                        base,
                        pos,
                        scale,
                        offset,
                        memo,
                    } => gather_index(self.program, base, lines[pos].addr(t), scale, offset, |p| {
                        mem.load_at(base, p, &mut memos[memo])
                    }),
                })
            }
        }
    }

    /// The value of statement `stmt`'s right-hand side on trip `t` of the
    /// entered sweep, with reduction results `scalars`, loading through
    /// `mem`. The first failing load ends the evaluation.
    #[inline]
    pub fn value(
        &self,
        stmt: usize,
        t: i64,
        frame: &mut Frame,
        scalars: &[f64],
        mem: &mut impl Memory,
    ) -> Result<f64, IrError> {
        let Frame {
            lines,
            memos,
            stack,
        } = frame;
        // `top` is the top of the stack, `stack[..below]` what is under it;
        // the first push spills a meaningless `top`, so `depth` slots hold
        // every spill.
        let (mut top, mut below) = (0.0, 0);
        for op in &self.stmts[stmt].ops {
            match *op {
                Op::Push(leaf) => {
                    let v = self.leaf(leaf, t, lines, memos, scalars, mem)?;
                    stack[below] = top;
                    below += 1;
                    top = v;
                }
                Op::Unary(op) => top = op.apply(top),
                Op::Binary(op) => {
                    below -= 1;
                    top = op.apply(stack[below], top);
                }
                Op::With(op, leaf) => {
                    let v = self.leaf(leaf, t, lines, memos, scalars, mem)?;
                    top = op.apply(top, v);
                }
            }
        }
        Ok(top)
    }

    #[inline(always)]
    fn leaf(
        &self,
        leaf: Leaf,
        t: i64,
        lines: &[Line],
        memos: &mut [PageMemo],
        scalars: &[f64],
        mem: &mut impl Memory,
    ) -> Result<f64, IrError> {
        Ok(match leaf {
            Leaf::Const(c) => c,
            Leaf::Scalar(s) => scalars[s],
            Leaf::Form(f) => lines[f].addr(t) as f64,
            Leaf::Load(r) => {
                let r = &self.refs[r];
                let addr = self.resolve(r, t, lines, memos, mem)?;
                mem.load_at(r.array, addr, &mut memos[r.memo])?
            }
            Leaf::Direct { array, memo, form } => {
                let addr = lines[form as usize].addr(t) as usize;
                mem.load_at(ArrayId(array as usize), addr, &mut memos[memo as usize])?
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::index::iv;
    use crate::interp::resolve_ref_addr;
    use crate::program::InitPattern;

    struct Flat(Vec<Vec<f64>>, usize);

    impl Memory for Flat {
        fn load(&mut self, array: ArrayId, addr: usize) -> Result<f64, IrError> {
            self.1 += 1;
            Ok(self.0[array.0][addr])
        }
    }

    #[test]
    fn the_loop_box_proves_what_stays_inside_and_checks_the_rest() {
        // A(i, j - 1) leaves its column on j = 0; A(i, j) never does.
        let mut b = ProgramBuilder::new("box");
        let a = b.input("A", &[4, 5], InitPattern::Wavy);
        let x = b.output("X", &[4, 5]);
        b.nest("n", &[("i", 0, 3), ("j", 0, 4)], |n| {
            n.assign(x, [iv(0), iv(1)], n.read(a, [iv(0), iv(1).plus(-1)]));
        });
        let p = b.finish();
        let body = NestBody::compile(&p, p.nests().next().unwrap());
        let checked: Vec<usize> = body
            .refs
            .iter()
            .map(|r| match &r.addr {
                Addr::Linear { checks, .. } => checks.len(),
                Addr::Resolved(_) => usize::MAX,
            })
            .collect();
        assert_eq!(checked, [1, 0], "one check on the read, none on the target");
    }

    #[test]
    fn compiled_addresses_are_resolve_ref_addr_on_every_instance() {
        // Affine (proved and checked), gathered and rank-mismatched
        // references: the same address or error after the same loads.
        let mut b = ProgramBuilder::new("addr");
        let a = b.input("A", &[4, 5], InitPattern::Wavy);
        let perm = b.input("P", &[6], InitPattern::Permutation { seed: 2 });
        let x = b.output("X", &[4, 5]);
        let gather = |pos: AffineIndex, offset| IndexExpr::Indirect {
            base: perm,
            pos,
            scale: 1,
            offset,
        };
        let refs = [
            ArrayRef::new(a, vec![iv(0).into(), iv(1).into()]),
            ArrayRef::new(a, vec![iv(0).into(), iv(1).plus(1).into()]),
            ArrayRef::new(a, vec![iv(1).plus(-1).into(), iv(0).scale(2).into()]),
            ArrayRef::new(a, vec![iv(0).into(), gather(iv(1), -1)]),
            ArrayRef::new(a, vec![gather(iv(1).plus(1), 0), iv(0).into()]),
            ArrayRef::new(a, vec![iv(0).into()]),
            ArrayRef::new(a, vec![iv(0).into(), iv(1).into(), gather(iv(0), 0)]),
        ];
        b.nest("n", &[("i", 0, 3), ("j", 0, 4)], |n| {
            let mut value = Expr::Const(0.0);
            for r in &refs {
                value = value + Expr::Read(r.clone());
            }
            n.assign(x, [iv(0), iv(1)], value);
        });
        let p = b.finish();
        let nest = p.nests().next().unwrap();
        let body = NestBody::compile(&p, nest);
        let mut frame = body.frame();
        let stores = || {
            let arrays = p
                .arrays
                .iter()
                .map(|d| d.init.materialize(d.len()))
                .collect();
            Flat(arrays, 0)
        };
        let (mut got_mem, mut want_mem) = (stores(), stores());
        nest.for_each_sweep(|sweep| {
            body.enter(&mut frame, sweep);
            for t in 0..sweep.trips as i64 {
                let ivs = [sweep.outer[0], sweep.lo + sweep.step * t];
                for (k, r) in refs.iter().enumerate() {
                    let got = body.resolve(
                        &body.refs[k],
                        t,
                        &frame.lines,
                        &mut frame.memos,
                        &mut got_mem,
                    );
                    let want = resolve_ref_addr(&p, r, &ivs, &mut want_mem);
                    assert_eq!(got, want, "{r:?} at {ivs:?}");
                    assert_eq!(got_mem.1, want_mem.1, "index loads of {r:?} at {ivs:?}");
                }
            }
        });
    }

    #[test]
    fn postfix_evaluation_keeps_the_trees_order_and_association() {
        // ((a - b) - c) / (i + 0.1) with a loop variable, a parameter and a
        // scalar: bit for bit the tree's value.
        let mut b = ProgramBuilder::new("ops");
        let y = b.input("Y", &[8], InitPattern::Harmonic);
        let q = b.param("Q", 0.3);
        let s = b.scalar("s");
        let x = b.output("X", &[8]);
        b.nest("n", &[("i", 0, 7)], |n| {
            let e = (n.read(y, [iv(0)]) - n.par(q) - n.scalar_value(s)) / (Expr::LoopVar(0) + 0.1)
                + n.read(y, [iv(0).scale(-1).plus(7)]).sqrt();
            n.assign(x, [iv(0)], e);
        });
        let p = b.finish();
        let nest = p.nests().next().unwrap();
        let body = NestBody::compile(&p, nest);
        assert_eq!(body.depth, 2);
        let mut frame = body.frame();
        let ys = p.arrays[0].init.materialize(8);
        let mut mem = Flat(vec![ys.clone(), vec![], vec![]], 0);
        nest.for_each_sweep(|sweep| {
            body.enter(&mut frame, sweep);
            for t in 0..8 {
                let i = t as usize;
                let want = (ys[i] - 0.3 - 2.5) / (t as f64 + 0.1) + ys[7 - i].sqrt();
                let got = body.value(0, t, &mut frame, &[2.5], &mut mem).unwrap();
                assert_eq!(got.to_bits(), want.to_bits());
            }
        });
    }
}
