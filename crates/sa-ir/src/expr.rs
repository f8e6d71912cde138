//! Scalar expression trees evaluated over `f64`.

use crate::nest::ArrayRef;
use crate::{ParamId, ScalarId};

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
    /// `min(a, b)`
    Min,
    /// `max(a, b)`
    Max,
}

impl BinOp {
    /// Apply the operator.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// `-a`
    Neg,
    /// `|a|`
    Abs,
    /// `sqrt(a)`
    Sqrt,
    /// `exp(a)`
    Exp,
    /// `1/a`
    Recip,
}

impl UnaryOp {
    /// Apply the operator.
    #[inline]
    pub fn apply(self, a: f64) -> f64 {
        match self {
            UnaryOp::Neg => -a,
            UnaryOp::Abs => a.abs(),
            UnaryOp::Sqrt => a.sqrt(),
            UnaryOp::Exp => a.exp(),
            UnaryOp::Recip => 1.0 / a,
        }
    }
}

/// Reduction operators for vector→scalar statements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Running sum (identity 0).
    Sum,
    /// Running product (identity 1).
    Prod,
    /// Running maximum (identity −∞).
    Max,
    /// Running minimum (identity +∞).
    Min,
}

impl ReduceOp {
    /// The operator's identity element.
    pub fn identity(self) -> f64 {
        match self {
            ReduceOp::Sum => 0.0,
            ReduceOp::Prod => 1.0,
            ReduceOp::Max => f64::NEG_INFINITY,
            ReduceOp::Min => f64::INFINITY,
        }
    }

    /// Combine an accumulator with a new value.
    #[inline]
    pub fn combine(self, acc: f64, v: f64) -> f64 {
        match self {
            ReduceOp::Sum => acc + v,
            ReduceOp::Prod => acc * v,
            ReduceOp::Max => acc.max(v),
            ReduceOp::Min => acc.min(v),
        }
    }
}

/// A scalar expression over array reads, parameters and loop variables.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal constant.
    Const(f64),
    /// A runtime parameter (`Q`, `R`, `T`, …).
    Param(ParamId),
    /// A previously produced reduction result.
    Scalar(ScalarId),
    /// The value of loop variable `v` as an `f64`.
    LoopVar(usize),
    /// An array element read.
    Read(ArrayRef),
    /// Unary application.
    Unary(UnaryOp, Box<Expr>),
    /// Binary application.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// `min(self, rhs)`.
    pub fn min(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Min, Box::new(self), Box::new(rhs))
    }

    /// `max(self, rhs)`.
    pub fn max(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Max, Box::new(self), Box::new(rhs))
    }

    /// `sqrt(self)`.
    pub fn sqrt(self) -> Expr {
        Expr::Unary(UnaryOp::Sqrt, Box::new(self))
    }

    /// `|self|`.
    pub fn abs(self) -> Expr {
        Expr::Unary(UnaryOp::Abs, Box::new(self))
    }

    /// Collect every [`ArrayRef`] read anywhere in the expression,
    /// in left-to-right evaluation order.
    pub fn reads(&self) -> Vec<&ArrayRef> {
        let mut out = Vec::new();
        self.collect_reads(&mut out);
        out
    }

    fn collect_reads<'a>(&'a self, out: &mut Vec<&'a ArrayRef>) {
        match self {
            Expr::Read(r) => out.push(r),
            Expr::Unary(_, a) => a.collect_reads(out),
            Expr::Binary(_, a, b) => {
                a.collect_reads(out);
                b.collect_reads(out);
            }
            Expr::Const(_) | Expr::Param(_) | Expr::Scalar(_) | Expr::LoopVar(_) => {}
        }
    }

    /// Every reduction result ([`Expr::Scalar`]) the expression reads, in
    /// left-to-right evaluation order.
    pub fn scalar_reads(&self) -> Vec<usize> {
        fn collect(e: &Expr, out: &mut Vec<usize>) {
            match e {
                Expr::Scalar(s) => out.push(s.0),
                Expr::Unary(_, a) => collect(a, out),
                Expr::Binary(_, a, b) => {
                    collect(a, out);
                    collect(b, out);
                }
                Expr::Const(_) | Expr::Param(_) | Expr::LoopVar(_) | Expr::Read(_) => {}
            }
        }
        let mut out = Vec::new();
        collect(self, &mut out);
        out
    }

    /// Visit every [`ArrayRef`] mutably (used by the SA-conversion pass to
    /// rename arrays in place).
    pub fn visit_reads_mut(&mut self, f: &mut impl FnMut(&mut ArrayRef)) {
        match self {
            Expr::Read(r) => f(r),
            Expr::Unary(_, a) => a.visit_reads_mut(f),
            Expr::Binary(_, a, b) => {
                a.visit_reads_mut(f);
                b.visit_reads_mut(f);
            }
            Expr::Const(_) | Expr::Param(_) | Expr::Scalar(_) | Expr::LoopVar(_) => {}
        }
    }
}

impl From<f64> for Expr {
    fn from(v: f64) -> Self {
        Expr::Const(v)
    }
}

impl From<ParamId> for Expr {
    fn from(p: ParamId) -> Self {
        Expr::Param(p)
    }
}

impl From<ArrayRef> for Expr {
    fn from(r: ArrayRef) -> Self {
        Expr::Read(r)
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl std::ops::$trait for Expr {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::Binary($op, Box::new(self), Box::new(rhs))
            }
        }
        impl std::ops::$trait<f64> for Expr {
            type Output = Expr;
            fn $method(self, rhs: f64) -> Expr {
                Expr::Binary($op, Box::new(self), Box::new(Expr::Const(rhs)))
            }
        }
        impl std::ops::$trait<Expr> for f64 {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::Binary($op, Box::new(Expr::Const(self)), Box::new(rhs))
            }
        }
    };
}

impl_binop!(Add, add, BinOp::Add);
impl_binop!(Sub, sub, BinOp::Sub);
impl_binop!(Mul, mul, BinOp::Mul);
impl_binop!(Div, div, BinOp::Div);

impl std::ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Unary(UnaryOp::Neg, Box::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::iv;
    use crate::ArrayId;

    fn r(a: usize) -> ArrayRef {
        ArrayRef::new(ArrayId(a), vec![iv(0).into()])
    }

    #[test]
    fn binop_semantics() {
        assert_eq!(BinOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(BinOp::Sub.apply(2.0, 3.0), -1.0);
        assert_eq!(BinOp::Mul.apply(2.0, 3.0), 6.0);
        assert_eq!(BinOp::Div.apply(3.0, 2.0), 1.5);
        assert_eq!(BinOp::Min.apply(2.0, 3.0), 2.0);
        assert_eq!(BinOp::Max.apply(2.0, 3.0), 3.0);
    }

    #[test]
    fn unary_semantics() {
        assert_eq!(UnaryOp::Neg.apply(2.0), -2.0);
        assert_eq!(UnaryOp::Abs.apply(-2.0), 2.0);
        assert_eq!(UnaryOp::Sqrt.apply(9.0), 3.0);
        assert_eq!(UnaryOp::Recip.apply(4.0), 0.25);
        assert!((UnaryOp::Exp.apply(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reduce_identities_and_combine() {
        assert_eq!(ReduceOp::Sum.identity(), 0.0);
        assert_eq!(ReduceOp::Prod.identity(), 1.0);
        assert_eq!(ReduceOp::Sum.combine(2.0, 3.0), 5.0);
        assert_eq!(ReduceOp::Max.combine(f64::NEG_INFINITY, -4.0), -4.0);
        assert_eq!(ReduceOp::Min.combine(f64::INFINITY, 7.0), 7.0);
        assert_eq!(ReduceOp::Prod.combine(3.0, 4.0), 12.0);
    }

    #[test]
    fn operator_overloads_build_trees() {
        let e = Expr::from(2.0) * Expr::Read(r(0)) + 1.0;
        match &e {
            Expr::Binary(BinOp::Add, lhs, rhs) => {
                assert!(matches!(**rhs, Expr::Const(c) if c == 1.0));
                assert!(matches!(**lhs, Expr::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("unexpected tree {other:?}"),
        }
        let neg = -Expr::Const(5.0);
        assert!(matches!(neg, Expr::Unary(UnaryOp::Neg, _)));
    }

    #[test]
    fn reads_collects_in_eval_order() {
        let e = Expr::Read(r(0)) + Expr::Read(r(1)) * Expr::Read(r(2));
        let reads = e.reads();
        let ids: Vec<usize> = reads.iter().map(|r| r.array.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn visit_reads_mut_renames() {
        let mut e = Expr::Read(r(0)) + Expr::Read(r(0));
        e.visit_reads_mut(&mut |r| r.array = ArrayId(9));
        assert!(e.reads().iter().all(|r| r.array == ArrayId(9)));
    }
}
