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
//! * **References** are the nest's [`NestAccess`], lowered once against
//!   its loop box. An affine reference's address is its linear form; a
//!   dimension the box proves inside its extent is never checked again,
//!   every other one is checked per instance, in dimension order, before
//!   the address is used. So an index outside its dimension raises the
//!   same `IndexOutOfBounds` at the same instance, even where the linear
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

use crate::access::{Access, LinForm, Line, NestAccess, Subscript, Sweep};
use crate::expr::{BinOp, Expr, UnaryOp};
use crate::index::AffineIndex;
use crate::interp::{fold_address, gather_index, Memory};
use crate::nest::LoopNest;
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

/// Where a compiled reference's values live in the executor's [`Frame`].
#[derive(Debug)]
struct Load {
    array: ArrayId,
    /// The element's page memo; a gather's index loads take the next ones,
    /// in dimension order.
    memo: usize,
    /// The linear address's form, when the reference has one.
    form: Option<usize>,
    /// `(dimension, form)` of each index evaluated per instance: with a
    /// linear form, the dimensions the loop box leaves open, checked before
    /// the address is used; without, every index.
    dims: Vec<(usize, usize)>,
}

/// The statements of one nest, compiled (module docs).
#[derive(Debug)]
pub struct NestBody<'p> {
    program: &'p Program,
    access: NestAccess,
    forms: Vec<LinForm>,
    /// One per reference of `access`, in its order.
    refs: Vec<Load>,
    /// Per statement, its right-hand side in postfix.
    stmts: Vec<Vec<Op>>,
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

struct Compiler<'p> {
    program: &'p Program,
    nvars: usize,
    forms: Vec<LinForm>,
    seen: HashMap<LinForm, usize>,
    refs: Vec<Load>,
    /// The next reference of the nest's [`NestAccess`] the expressions
    /// meet: they read in its order.
    next: usize,
    memos: usize,
}

impl Compiler<'_> {
    fn form(&mut self, f: &LinForm) -> usize {
        let next = self.forms.len();
        *self.seen.entry(f.clone()).or_insert_with_key(|f| {
            self.forms.push(f.clone());
            next
        })
    }

    fn memo(&mut self) -> usize {
        self.memos += 1;
        self.memos - 1
    }

    fn reference(&mut self, access: &Access) -> Load {
        let memo = self.memo();
        let form = access.form.as_ref().map(|f| self.form(f));
        let mut dims = Vec::new();
        for (d, dim) in access.dims.iter().enumerate() {
            if form.is_none() || !dim.proved {
                if dim.subscript.base().is_some() {
                    self.memo();
                }
                dims.push((d, self.form(dim.subscript.form())));
            }
        }
        Load {
            array: access.array,
            memo,
            form,
            dims,
        }
    }

    /// `e` as an operand that needs no stack, if it is one.
    fn leaf(&mut self, e: &Expr) -> Option<Leaf> {
        Some(match e {
            Expr::Const(c) => Leaf::Const(*c),
            Expr::Param(p) => Leaf::Const(self.program.params[p.0].1),
            Expr::Scalar(s) => Leaf::Scalar(s.0),
            Expr::LoopVar(v) => {
                assert!(*v < self.nvars, "loop variable {v} outside its nest");
                Leaf::Form(self.form(&LinForm::of_index(&AffineIndex::var(*v), self.nvars)))
            }
            Expr::Read(r) => {
                let k = self.next;
                self.next += 1;
                let narrow = |i: usize| u32::try_from(i).expect("fewer than 2³² sites");
                match &self.refs[k] {
                    Load {
                        array,
                        memo,
                        form: Some(form),
                        dims,
                    } if dims.is_empty() => {
                        debug_assert_eq!(
                            *array, r.array,
                            "reads meet the nest's references in order"
                        );
                        Leaf::Direct {
                            array: narrow(array.0),
                            memo: narrow(*memo),
                            form: narrow(*form),
                        }
                    }
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
        let access = NestAccess::lower(program, nest, None);
        let mut c = Compiler {
            program,
            nvars: nest.loops.len(),
            forms: Vec::new(),
            seen: HashMap::new(),
            refs: Vec::new(),
            next: 0,
            memos: 0,
        };
        c.refs = access.refs.iter().map(|a| c.reference(a)).collect();
        let mut depth = 1;
        let stmts = nest
            .body
            .iter()
            .zip(&access.stmts)
            .map(|(stmt, at)| {
                let mut ops = Vec::new();
                depth = depth.max(c.expr(stmt.value(), &mut ops));
                // The target follows the reads.
                c.next += usize::from(at.target.is_some());
                ops
            })
            .collect();
        NestBody {
            program,
            access,
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
        self.access.stmts[stmt].target.map(Site)
    }

    /// The reference that anchors statement `stmt` for owner-computes
    /// (`sa_ir::analysis::anchor_ref`): its target, or a reduction's first
    /// read; `None` for a reduction that reads no array.
    pub fn anchor(&self, stmt: usize) -> Option<Site> {
        let at = &self.access.stmts[stmt];
        let first_read = (!at.reads.is_empty()).then_some(at.reads.start);
        at.target.or(first_read).map(Site)
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
        self.resolve(site.0, t, &frame.lines, &mut frame.memos, mem)
    }

    #[inline]
    fn resolve(
        &self,
        k: usize,
        t: i64,
        lines: &[Line],
        memos: &mut [PageMemo],
        mem: &mut impl Memory,
    ) -> Result<usize, IrError> {
        let r = &self.refs[k];
        match r.form {
            // Every index proved: the linear address.
            Some(form) if r.dims.is_empty() => Ok(lines[form].addr(t) as usize),
            _ => self.resolve_checked(k, t, lines, memos, mem),
        }
    }

    /// [`NestBody::resolve`] of a reference with an index to check or to
    /// gather.
    fn resolve_checked(
        &self,
        k: usize,
        t: i64,
        lines: &[Line],
        memos: &mut [PageMemo],
        mem: &mut impl Memory,
    ) -> Result<usize, IrError> {
        let r = &self.refs[k];
        let Some(form) = r.form else {
            let (access, mut memo) = (&self.access.refs[k], r.memo);
            return fold_address(self.program, r.array, r.dims.len(), |d| {
                let index = lines[r.dims[d].1].addr(t);
                match access.dims[d].subscript {
                    Subscript::Affine(_) => Ok(index),
                    Subscript::Gather {
                        base,
                        scale,
                        offset,
                        ..
                    } => {
                        memo += 1;
                        gather_index(self.program, base, index, scale, offset, |p| {
                            mem.load_at(base, p, &mut memos[memo])
                        })
                    }
                }
            });
        };
        for &(dim, f) in &r.dims {
            let (index, extent) = (lines[f].addr(t), self.access.refs[k].dims[dim].extent);
            if !(0..extent).contains(&index) {
                return Err(IrError::IndexOutOfBounds {
                    array: self.program.array(r.array).name.clone(),
                    dim,
                    index,
                    extent: extent as usize,
                });
            }
        }
        Ok(lines[form].addr(t) as usize)
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
        for op in &self.stmts[stmt] {
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
            Leaf::Load(k) => {
                let addr = self.resolve(k, t, lines, memos, mem)?;
                let r = &self.refs[k];
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
    use crate::index::{iv, IndexExpr};
    use crate::interp::resolve_ref_addr;
    use crate::nest::ArrayRef;
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
            .map(|r| r.form.map_or(usize::MAX, |_| r.dims.len()))
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
        let gather = |pos: AffineIndex, offset| IndexExpr::gather(perm, pos, 1, offset);
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
                    let got = body.resolve(k, t, &frame.lines, &mut frame.memos, &mut got_mem);
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
