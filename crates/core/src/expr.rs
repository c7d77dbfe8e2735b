//! The RIOT expression algebra (§5 of the paper).
//!
//! Every R operation an engine defers becomes one node in a DAG. The
//! algebra treats linear-algebra operations (matrix multiply, transpose) as
//! first-class citizens — the paper argues minimalist algebras that lower
//! them to relational operators forfeit high-level optimizations — and it
//! models *modification* functionally: `b[i] <- v` is the side-effect-free
//! operator `[]<-` ([`Node::SubAssign`] / [`Node::MaskAssign`]) taking the
//! old state and returning the new, which is what lets RIOT keep deferring
//! across assignments (Figure 2).

use std::sync::Arc;

use crate::shape::Shape;

/// Identifier of a node in an [`crate::graph::ExprGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Reference to a stored array held by the engine (outside the graph, so
/// graphs stay serializable and engines own their storage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceRef(pub u32);

/// Run `$body` with `$op` bound to the variant of `$ty` that `$self` is —
/// one copy of the body per listed variant, each over a *constant*
/// operator. A loop in the body is thereby matched once, outside, instead
/// of per element, and its `apply` inlines to the one expression the
/// scalar path evaluates, so the results are bit-identical to it.
macro_rules! hoisted {
    ($self:expr, $ty:ident: $($variant:ident)*, |$op:ident| $body:expr) => {
        match $self {
            $($ty::$variant => {
                let $op = $ty::$variant;
                $body
            })*
        }
    };
}

/// Unary elementwise operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Negation.
    Neg,
    /// Square root.
    Sqrt,
    /// Absolute value.
    Abs,
    /// `x * x` (strength-reduced from `x ^ 2`).
    Square,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Ln,
    /// Logical not (0 -> 1, nonzero -> 0).
    Not,
}

impl UnOp {
    /// Apply the operation to one scalar.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            UnOp::Neg => -x,
            UnOp::Sqrt => x.sqrt(),
            UnOp::Abs => x.abs(),
            UnOp::Square => x * x,
            UnOp::Exp => x.exp(),
            UnOp::Ln => x.ln(),
            UnOp::Not => {
                if x == 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Apply the operation to a whole chunk, `dst[i] = op(src[i])`, with
    /// the operator dispatch `hoisted!` out of the loop.
    pub fn apply_slice(self, src: &[f64], dst: &mut [f64]) {
        debug_assert_eq!(src.len(), dst.len());
        hoisted!(self, UnOp: Neg Sqrt Abs Square Exp Ln Not, |op| {
            for (d, &x) in dst.iter_mut().zip(src) {
                *d = op.apply(x);
            }
        })
    }

    /// R-ish surface syntax (for DAG pretty-printing).
    pub fn name(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Sqrt => "sqrt",
            UnOp::Abs => "abs",
            UnOp::Square => "square",
            UnOp::Exp => "exp",
            UnOp::Ln => "log",
            UnOp::Not => "!",
        }
    }

    /// SQL rendering (for the RIOT-DB view generator).
    pub fn sql(self, arg: &str) -> String {
        match self {
            UnOp::Neg => format!("(-{arg})"),
            UnOp::Sqrt => format!("SQRT({arg})"),
            UnOp::Abs => format!("ABS({arg})"),
            UnOp::Square => format!("POW({arg},2)"),
            UnOp::Exp => format!("EXP({arg})"),
            UnOp::Ln => format!("LN({arg})"),
            UnOp::Not => format!("(CASE WHEN {arg}=0 THEN 1 ELSE 0 END)"),
        }
    }
}

/// Binary elementwise operations. Comparisons produce 0/1 logicals, as in
/// R's numeric coercion of `TRUE`/`FALSE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Exponentiation (`^`).
    Pow,
    /// Modulo with R's `%%` semantics (`x - floor(x/y)*y`).
    Mod,
    /// Elementwise minimum (`pmin`).
    Min,
    /// Elementwise maximum (`pmax`).
    Max,
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
    /// Logical and (nonzero = true).
    And,
    /// Logical or.
    Or,
}

impl BinOp {
    /// Apply the operation to two scalars.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        let t = |x: bool| if x { 1.0 } else { 0.0 };
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Pow => a.powf(b),
            BinOp::Mod => a - (a / b).floor() * b,
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
            BinOp::Eq => t(a == b),
            BinOp::Ne => t(a != b),
            BinOp::Lt => t(a < b),
            BinOp::Le => t(a <= b),
            BinOp::Gt => t(a > b),
            BinOp::Ge => t(a >= b),
            BinOp::And => t(a != 0.0 && b != 0.0),
            BinOp::Or => t(a != 0.0 || b != 0.0),
        }
    }

    /// Apply the operation to a whole chunk, `dst[i] = op(a[i], b[i])`,
    /// either operand a broadcast scalar: the chunk form of
    /// [`BinOp::apply`], `hoisted!` like [`UnOp::apply_slice`].
    pub fn apply_slice(self, a: Src<'_>, b: Src<'_>, dst: &mut [f64]) {
        hoisted!(
            self,
            BinOp: Add Sub Mul Div Pow Mod Min Max Eq Ne Lt Le Gt Ge And Or,
            |op| zip_lanes(a, b, dst, |x, y| op.apply(x, y))
        )
    }

    /// R-ish surface syntax.
    pub fn name(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Pow => "^",
            BinOp::Mod => "%%",
            BinOp::Min => "pmin",
            BinOp::Max => "pmax",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&",
            BinOp::Or => "|",
        }
    }

    /// SQL rendering.
    pub fn sql(self, a: &str, b: &str) -> String {
        match self {
            BinOp::Add => format!("({a}+{b})"),
            BinOp::Sub => format!("({a}-{b})"),
            BinOp::Mul => format!("({a}*{b})"),
            BinOp::Div => format!("({a}/{b})"),
            BinOp::Pow => format!("POW({a},{b})"),
            BinOp::Mod => format!("MOD({a},{b})"),
            BinOp::Min => format!("LEAST({a},{b})"),
            BinOp::Max => format!("GREATEST({a},{b})"),
            BinOp::Eq => format!("(CASE WHEN {a}={b} THEN 1 ELSE 0 END)"),
            BinOp::Ne => format!("(CASE WHEN {a}<>{b} THEN 1 ELSE 0 END)"),
            BinOp::Lt => format!("(CASE WHEN {a}<{b} THEN 1 ELSE 0 END)"),
            BinOp::Le => format!("(CASE WHEN {a}<={b} THEN 1 ELSE 0 END)"),
            BinOp::Gt => format!("(CASE WHEN {a}>{b} THEN 1 ELSE 0 END)"),
            BinOp::Ge => format!("(CASE WHEN {a}>={b} THEN 1 ELSE 0 END)"),
            BinOp::And => format!("(CASE WHEN {a}<>0 AND {b}<>0 THEN 1 ELSE 0 END)"),
            BinOp::Or => format!("(CASE WHEN {a}<>0 OR {b}<>0 THEN 1 ELSE 0 END)"),
        }
    }
}

/// One operand of a chunk kernel: a chunk of values, or a scalar that
/// broadcasts against the other operands without ever becoming a buffer.
#[derive(Debug, Clone, Copy)]
pub enum Src<'a> {
    /// One value per output element.
    Slice(&'a [f64]),
    /// The same value for every output element.
    Scalar(f64),
}

/// `dst[i] = f(a[i], b[i])` with the operand shapes resolved outside the
/// loop. Inlined into one call site per operator, so `f` is a constant
/// there and every loop body is straight-line code.
#[inline(always)]
fn zip_lanes(a: Src<'_>, b: Src<'_>, dst: &mut [f64], f: impl Fn(f64, f64) -> f64) {
    match (a, b) {
        (Src::Slice(a), Src::Slice(b)) => {
            debug_assert!(a.len() == dst.len() && b.len() == dst.len());
            for ((d, &a), &b) in dst.iter_mut().zip(a).zip(b) {
                *d = f(a, b);
            }
        }
        (Src::Slice(a), Src::Scalar(b)) => {
            debug_assert_eq!(a.len(), dst.len());
            for (d, &a) in dst.iter_mut().zip(a) {
                *d = f(a, b);
            }
        }
        (Src::Scalar(a), Src::Slice(b)) => {
            debug_assert_eq!(b.len(), dst.len());
            for (d, &b) in dst.iter_mut().zip(b) {
                *d = f(a, b);
            }
        }
        (Src::Scalar(a), Src::Scalar(b)) => dst.fill(f(a, b)),
    }
}

/// The elementwise conditional over one chunk:
/// `dst[i] = cond[i] != 0 ? yes[i] : no[i]`.
pub fn select_slice(cond: &[f64], yes: Src<'_>, no: Src<'_>, dst: &mut [f64]) {
    debug_assert_eq!(cond.len(), dst.len());
    let at = |arm: Src<'_>, i: usize| match arm {
        Src::Slice(values) => values[i],
        Src::Scalar(value) => value,
    };
    for (i, (d, &c)) in dst.iter_mut().zip(cond).enumerate() {
        *d = if c != 0.0 { at(yes, i) } else { at(no, i) };
    }
}

/// Whole-input reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggOp {
    /// Sum of elements.
    Sum,
    /// Arithmetic mean.
    Mean,
    /// Minimum element.
    Min,
    /// Maximum element.
    Max,
}

impl AggOp {
    /// Fold `acc` with the next value (`Mean` accumulates a sum; callers
    /// divide by the count at the end).
    #[inline]
    pub fn fold(self, acc: f64, x: f64) -> f64 {
        match self {
            AggOp::Sum | AggOp::Mean => acc + x,
            AggOp::Min => acc.min(x),
            AggOp::Max => acc.max(x),
        }
    }

    /// Fold the `n` elements of a chunk into `acc`, in order: the chunk
    /// form of [`AggOp::fold`], `hoisted!` like [`UnOp::apply_slice`], so
    /// every bit is what the element-at-a-time fold gives.
    pub fn fold_slice(self, acc: f64, src: Src<'_>, n: usize) -> f64 {
        hoisted!(self, AggOp: Sum Mean Min Max, |op| match src {
            Src::Slice(values) => values.iter().fold(acc, |a, &x| op.fold(a, x)),
            Src::Scalar(x) => (0..n).fold(acc, |a, _| op.fold(a, x)),
        })
    }

    /// Neutral starting accumulator.
    pub fn init(self) -> f64 {
        match self {
            AggOp::Sum | AggOp::Mean => 0.0,
            AggOp::Min => f64::INFINITY,
            AggOp::Max => f64::NEG_INFINITY,
        }
    }

    /// Name for printing.
    pub fn name(self) -> &'static str {
        match self {
            AggOp::Sum => "sum",
            AggOp::Mean => "mean",
            AggOp::Min => "min",
            AggOp::Max => "max",
        }
    }
}

/// One operator in the expression DAG. Interior operators carry their
/// children as a fixed-size array in evaluation order, so everything that
/// only needs to *reach* the children ([`Node::children`], hash-consing,
/// traversals, rebuild-after-rewrite) is written once for every operator.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A stored vector owned by the engine.
    VecSource {
        /// Engine-side storage handle.
        source: SourceRef,
        /// Number of elements.
        len: usize,
    },
    /// A stored matrix owned by the engine.
    MatSource {
        /// Engine-side storage handle.
        source: SourceRef,
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
    },
    /// A stored block-compressed sparse matrix owned by the engine. The
    /// non-zero count rides in the node so the optimizer can estimate
    /// density without touching storage (the catalog-carried statistic of
    /// the sparse subsystem).
    SpMatSource {
        /// Engine-side storage handle.
        source: SourceRef,
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
        /// Stored non-zeros.
        nnz: u64,
    },
    /// Sparse-to-dense conversion of `[input]` (sparse-valued). Inserted by
    /// the optimizer when a sparse operand is too dense for the sparse
    /// kernels to pay off, and by the frontend's `as.dense`.
    Densify([NodeId; 1]),
    /// Dense-to-sparse compression (`as.sparse`) of `[input]`.
    Sparsify([NodeId; 1]),
    /// A small in-memory vector (e.g. the 100 sampled indices of Example 1
    /// — the optimizer exploits that these are known and small).
    Literal(Arc<Vec<f64>>),
    /// A scalar constant.
    Scalar(f64),
    /// The sequence `start, start+1, ..., start+len-1` (R's `a:b`).
    Range {
        /// First value.
        start: i64,
        /// Number of values.
        len: usize,
    },
    /// Unary elementwise map over `[input]`.
    Map(UnOp, [NodeId; 1]),
    /// Binary elementwise combination of `[lhs, rhs]` with R recycling.
    Zip(BinOp, [NodeId; 2]),
    /// Elementwise conditional over `[cond, yes, no]`:
    /// `cond[i] != 0 ? yes[i] : no[i]`.
    IfElse([NodeId; 3]),
    /// Subscript read `data[index]` over `[data, index]`, 1-based.
    Gather([NodeId; 2]),
    /// Functional indexed update over `[data, index, value]`: a copy of
    /// `data` where position `index[k]` holds `value[k]` (or a broadcast
    /// scalar value). This is the paper's `[]<-` operator.
    SubAssign([NodeId; 3]),
    /// Functional masked update over `[data, mask, value]`: where
    /// `mask[i] != 0`, take `value[i]`, else keep `data[i]`
    /// (`b[b>100] <- 100`). The mask has `data`'s length; the value
    /// broadcasts.
    MaskAssign([NodeId; 3]),
    /// Matrix product (`%*%`) of `[lhs, rhs]`, a first-class operator.
    MatMul([NodeId; 2]),
    /// Matrix transpose of `[input]` (representation-generic: the executor
    /// dispatches the native sparse kernel when the forced operand is
    /// sparse).
    Transpose([NodeId; 1]),
    /// Transpose **planned on the sparse kernel**: emitted by the
    /// optimizer for sparse-valued inputs below the density threshold, so
    /// the plan itself records that the result stays in the sparse
    /// representation (and downstream rules — e.g. the `MatMul`
    /// physical-representation choice — can see through it).
    SpTranspose([NodeId; 1]),
    /// Reduction of `[input]` to a scalar.
    Agg(AggOp, [NodeId; 1]),
    /// Cholesky factorization (`chol`) of `[input]`: the lower-triangular
    /// `L` with `L · Lᵀ = input` for a symmetric positive definite input
    /// (only the lower triangle is read). Executes on the out-of-core
    /// tiled POTRF/TRSM/SYRK kernel; non-positive-definite inputs surface
    /// a typed error, never NaNs.
    Chol([NodeId; 1]),
    /// Linear solve (`solve(a, b)`) over `[a, b]` for symmetric positive
    /// definite `a` and a matrix right-hand side: factors `a = L·Lᵀ` out
    /// of core, then blocked forward/backward triangular substitution —
    /// the inverse is never materialized.
    Solve([NodeId; 2]),
}

/// What hash-consing compares: the operator (its enum tag), its payload
/// and its children.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NodeKey(std::mem::Discriminant<Node>, Vec<u8>);

impl Node {
    /// Children of this node in evaluation order. With
    /// [`Node::children_mut`], the only place that maps an operator to its
    /// children: one arm per arity.
    pub fn children(&self) -> &[NodeId] {
        match self {
            Node::VecSource { .. }
            | Node::MatSource { .. }
            | Node::SpMatSource { .. }
            | Node::Literal(_)
            | Node::Scalar(_)
            | Node::Range { .. } => &[],
            Node::Map(_, c)
            | Node::Agg(_, c)
            | Node::Transpose(c)
            | Node::SpTranspose(c)
            | Node::Densify(c)
            | Node::Sparsify(c)
            | Node::Chol(c) => c,
            Node::Zip(_, c) | Node::Gather(c) | Node::MatMul(c) | Node::Solve(c) => c,
            Node::IfElse(c) | Node::SubAssign(c) | Node::MaskAssign(c) => c,
        }
    }

    /// The children, for rewriting in place (same order as
    /// [`Node::children`]).
    pub fn children_mut(&mut self) -> &mut [NodeId] {
        match self {
            Node::VecSource { .. }
            | Node::MatSource { .. }
            | Node::SpMatSource { .. }
            | Node::Literal(_)
            | Node::Scalar(_)
            | Node::Range { .. } => &mut [],
            Node::Map(_, c)
            | Node::Agg(_, c)
            | Node::Transpose(c)
            | Node::SpTranspose(c)
            | Node::Densify(c)
            | Node::Sparsify(c)
            | Node::Chol(c) => c,
            Node::Zip(_, c) | Node::Gather(c) | Node::MatMul(c) | Node::Solve(c) => c,
            Node::IfElse(c) | Node::SubAssign(c) | Node::MaskAssign(c) => c,
        }
    }

    /// True for nodes with no inputs (leaves of the DAG).
    pub fn is_leaf(&self) -> bool {
        self.children().is_empty()
    }

    /// Stable key for hash-consing: tag, then payload, then children
    /// (floats by `f64::to_bits`, so `-0.0`, `NaN` payloads etc. are
    /// distinguished deterministically).
    pub fn key(&self) -> NodeKey {
        let mut k = Vec::with_capacity(24);
        let mut put = |x: u64| k.extend_from_slice(&x.to_le_bytes());
        match self {
            Node::VecSource { source, len } => {
                put(source.0.into());
                put(*len as u64);
            }
            Node::MatSource { source, rows, cols } => {
                put(source.0.into());
                put(*rows as u64);
                put(*cols as u64);
            }
            Node::SpMatSource {
                source,
                rows,
                cols,
                nnz,
            } => {
                put(source.0.into());
                put(*rows as u64);
                put(*cols as u64);
                put(*nnz);
            }
            Node::Literal(v) => v.iter().for_each(|x| put(x.to_bits())),
            Node::Scalar(x) => put(x.to_bits()),
            Node::Range { start, len } => {
                put(*start as u64);
                put(*len as u64);
            }
            Node::Map(op, _) => put(*op as u64),
            Node::Zip(op, _) => put(*op as u64),
            Node::Agg(op, _) => put(*op as u64),
            // No payload: the tag and the children say it all.
            Node::Densify(_)
            | Node::Sparsify(_)
            | Node::IfElse(_)
            | Node::Gather(_)
            | Node::SubAssign(_)
            | Node::MaskAssign(_)
            | Node::MatMul(_)
            | Node::Transpose(_)
            | Node::SpTranspose(_)
            | Node::Chol(_)
            | Node::Solve(_) => {}
        }
        self.children().iter().for_each(|c| put(c.0.into()));
        NodeKey(std::mem::discriminant(self), k)
    }
}

/// Errors raised while building or transforming expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprError {
    /// Elementwise combination of incompatible shapes.
    ShapeMismatch {
        /// Left shape.
        lhs: Shape,
        /// Right shape.
        rhs: Shape,
        /// Operation name.
        op: &'static str,
    },
    /// Matrix multiply with mismatched inner dimensions.
    MatMulDims {
        /// Left shape.
        lhs: Shape,
        /// Right shape.
        rhs: Shape,
    },
    /// An operation that requires a vector/matrix received something else.
    Expected {
        /// What was required.
        what: &'static str,
        /// What was found.
        got: Shape,
    },
    /// Subscript index outside `1..=len` detected at execution.
    IndexOutOfBounds {
        /// Offending 1-based index value.
        index: i64,
        /// Length of the indexed vector.
        len: usize,
    },
}

impl std::fmt::Display for ExprError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExprError::ShapeMismatch { lhs, rhs, op } => {
                write!(f, "shape mismatch for '{op}': {lhs} vs {rhs}")
            }
            ExprError::MatMulDims { lhs, rhs } => {
                write!(f, "non-conformable matrices for %*%: {lhs} vs {rhs}")
            }
            ExprError::Expected { what, got } => write!(f, "expected {what}, got {got}"),
            ExprError::IndexOutOfBounds { index, len } => {
                write!(f, "subscript {index} out of bounds for length {len}")
            }
        }
    }
}

impl std::error::Error for ExprError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unop_semantics() {
        assert_eq!(UnOp::Neg.apply(2.0), -2.0);
        assert_eq!(UnOp::Sqrt.apply(9.0), 3.0);
        assert_eq!(UnOp::Square.apply(-3.0), 9.0);
        assert_eq!(UnOp::Not.apply(0.0), 1.0);
        assert_eq!(UnOp::Not.apply(4.0), 0.0);
    }

    #[test]
    fn binop_semantics() {
        assert_eq!(BinOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(BinOp::Pow.apply(2.0, 10.0), 1024.0);
        assert_eq!(BinOp::Gt.apply(2.0, 1.0), 1.0);
        assert_eq!(BinOp::Gt.apply(1.0, 2.0), 0.0);
        assert_eq!(BinOp::And.apply(1.0, 0.0), 0.0);
        assert_eq!(BinOp::Or.apply(1.0, 0.0), 1.0);
        assert_eq!(BinOp::Min.apply(1.0, -2.0), -2.0);
    }

    #[test]
    fn agg_fold() {
        let xs = [3.0, -1.0, 7.0];
        for (op, want) in [(AggOp::Sum, 9.0), (AggOp::Min, -1.0), (AggOp::Max, 7.0)] {
            let got = xs.iter().fold(op.init(), |a, &x| op.fold(a, x));
            assert_eq!(got, want, "{op:?}");
        }
    }

    #[test]
    fn children_enumeration() {
        let mut n = Node::IfElse([NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(n.children(), [NodeId(1), NodeId(2), NodeId(3)]);
        n.children_mut()[1] = NodeId(7);
        assert_eq!(n, Node::IfElse([NodeId(1), NodeId(7), NodeId(3)]));
        assert!(Node::Scalar(1.0).is_leaf());
        assert!(!n.is_leaf());
    }

    #[test]
    fn keys_distinguish_nodes() {
        let a = Node::Scalar(1.0);
        let b = Node::Scalar(-1.0);
        let c = Node::Scalar(1.0);
        assert_ne!(a.key(), b.key());
        assert_eq!(a.key(), c.key());
        // NaN keys are stable (same bit pattern).
        assert_eq!(Node::Scalar(f64::NAN).key(), Node::Scalar(f64::NAN).key());
        // Different node kinds with the same payload differ.
        assert_ne!(
            Node::Map(UnOp::Neg, [NodeId(0)]).key(),
            Node::Transpose([NodeId(0)]).key()
        );
        // Same kind and children, different payload or child order.
        let [x, y] = [NodeId(0), NodeId(1)];
        assert_ne!(
            Node::Zip(BinOp::Add, [x, y]).key(),
            Node::Zip(BinOp::Sub, [x, y]).key()
        );
        assert_ne!(Node::Gather([x, y]).key(), Node::Gather([y, x]).key());
    }

    #[test]
    fn sql_snippets() {
        assert_eq!(UnOp::Sqrt.sql("V"), "SQRT(V)");
        assert_eq!(BinOp::Add.sql("a", "b"), "(a+b)");
        assert!(BinOp::Gt.sql("a", "b").contains("CASE WHEN a>b"));
    }
}
