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

use crate::isa::{self, Isa, Kernel};
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
    /// the operator dispatch `hoisted!` out of the loop, at the widest
    /// instruction set (`Chunk`).
    pub fn apply_slice(self, src: &[f64], dst: &mut [f64]) {
        debug_assert_eq!(src.len(), dst.len());
        isa::run(Chunk::Map(self, src, dst))
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
        isa::run(Chunk::Zip(self, a, b, dst))
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
/// `dst[i] = cond[i] != 0 ? yes[i] : no[i]`, at the widest instruction set.
pub fn select_slice(cond: &[f64], yes: Src<'_>, no: Src<'_>, dst: &mut [f64]) {
    debug_assert_eq!(cond.len(), dst.len());
    isa::run(Chunk::Select(cond, yes, no, dst))
}

/// One chunk kernel of the tape, compiled once per instruction set
/// ([`isa::Kernel`]): each arm is one `#[inline(always)]` body with its
/// operator and operand shapes resolved outside the loop, so every copy
/// computes each element with the one expression the scalar path
/// evaluates, bit for bit.
pub(crate) enum Chunk<'a> {
    /// [`UnOp::apply_slice`].
    Map(UnOp, &'a [f64], &'a mut [f64]),
    /// [`BinOp::apply_slice`].
    Zip(BinOp, Src<'a>, Src<'a>, &'a mut [f64]),
    /// [`select_slice`].
    Select(&'a [f64], Src<'a>, Src<'a>, &'a mut [f64]),
    /// A stretch of one fold partition: the values, the first going into
    /// lane `.2`, the next into the next lane, round the lanes.
    Fold(AggOp, &'a mut [f64; FOLD_LANES], usize, &'a [f64]),
}

impl Kernel for Chunk<'_> {
    type Out = ();

    #[inline(always)]
    fn run(self, _: Isa) {
        match self {
            Chunk::Map(op, src, dst) => hoisted!(op, UnOp: Neg Sqrt Abs Square Exp Ln Not, |op| {
                for (d, &x) in dst.iter_mut().zip(src) {
                    *d = op.apply(x);
                }
            }),
            Chunk::Zip(op, a, b, dst) => hoisted!(
                op,
                BinOp: Add Sub Mul Div Pow Mod Min Max Eq Ne Lt Le Gt Ge And Or,
                |op| zip_lanes(a, b, dst, |x, y| op.apply(x, y))
            ),
            Chunk::Select(c, yes, no, dst) => {
                let pick = |c: f64, y: f64, n: f64| if c != 0.0 { y } else { n };
                let (len, cond) = (dst.len(), Src::Slice(c));
                match (yes, no) {
                    (Src::Slice(y), Src::Slice(n)) => {
                        let (c, y, n) = (&c[..len], &y[..len], &n[..len]);
                        let lanes = dst.iter_mut().enumerate();
                        lanes.for_each(|(i, d)| *d = pick(c[i], y[i], n[i]));
                    }
                    (yes, Src::Scalar(n)) => zip_lanes(cond, yes, dst, |c, y| pick(c, y, n)),
                    (Src::Scalar(y), no) => zip_lanes(cond, no, dst, |c, n| pick(c, y, n)),
                }
            }
            Chunk::Fold(op, lanes, first, values) => hoisted!(op, AggOp: Sum Mean Min Max, |op| {
                // Rotated, the lane of the first value is lane 0.
                let mut acc = *lanes;
                acc.rotate_left(first);
                let mut add = |row: &[f64]| {
                    let lanes = acc.iter_mut().zip(row);
                    lanes.for_each(|(lane, &x)| *lane = op.fold(*lane, x))
                };
                let (rows, tail) = values.as_chunks::<FOLD_LANES>();
                rows.iter().for_each(|row| add(row));
                add(tail);
                acc.rotate_right(first);
                *lanes = acc;
            }),
        }
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

    /// The aggregate of `values`, folded in the shared shape ([`Fold`]).
    pub fn reduce(self, values: &[f64]) -> f64 {
        let mut fold = Fold::new(self, 0);
        fold.push(Src::Slice(values), values.len());
        self.finish(fold.value(), values.len())
    }

    /// The aggregate of `n` elements from the values ([`Fold::value`]) of
    /// their partitions, each folded alone, in partition order.
    pub fn combine(self, parts: impl IntoIterator<Item = f64>, n: usize) -> f64 {
        let acc = parts
            .into_iter()
            .fold(self.init(), |acc, part| self.fold(acc, part));
        self.finish(acc, n)
    }

    /// The aggregate of `n` elements whose fold is `acc`: `Mean` divides
    /// the sum it folds by the count.
    pub fn finish(self, acc: f64, n: usize) -> f64 {
        match self {
            AggOp::Mean if n > 0 => acc / n as f64,
            _ => acc,
        }
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

/// Lanes of the shared fold shape ([`Fold`]).
pub const FOLD_LANES: usize = 8;

/// Elements per partition of the shared fold shape ([`Fold`]): 512 KiB of
/// `f64`, a whole number of blocks for every power-of-two block size up
/// to that.
pub const FOLD_PARTITION: usize = 65_536;

/// An aggregate's running state in the **one fold shape** every engine,
/// the `eval` oracle and the R front end use, so an aggregate has the same
/// bits everywhere and at every thread count:
///
/// * element `i` of the stream folds into lane `i % FOLD_LANES`, in
///   order, each lane from `op.init()`;
/// * the stream is cut into partitions of [`FOLD_PARTITION`] elements;
///   a partition's lanes combine left to right from `op.init()`;
/// * the partitions' values combine in partition order from `op.init()`.
///
/// The shape depends on the stream's length alone — never on the chunk,
/// the block size or the thread count — and `op.init()` leaves every
/// value of it unchanged, so partitions folded on their own (a
/// [`Fold::new`] at each one's first element) combine ([`AggOp::combine`])
/// into the same bits as the stream folded through. `Min`/`Max` are `f64::min`/`f64::max`, which
/// skip NaN: a NaN is an aggregate's value only for `Sum`/`Mean`. Which
/// zero `Min`/`Max` keep over `{+0, -0}` follows from the shape's operand
/// order, and `Sum`/`Mean` start from `+0`, so they never return `-0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fold {
    op: AggOp,
    /// Stream position of the next element.
    at: usize,
    /// The open partition, one accumulator per lane.
    lanes: [f64; FOLD_LANES],
    /// The closed partitions, combined in order from `op.init()`.
    done: f64,
}

impl Fold {
    /// An empty fold whose next element is element `at` of the stream.
    pub fn new(op: AggOp, at: usize) -> Self {
        Fold {
            op,
            at,
            lanes: [op.init(); FOLD_LANES],
            done: op.init(),
        }
    }

    /// Start over, empty, at element `at`.
    pub fn restart(&mut self, at: usize) {
        *self = Fold::new(self.op, at);
    }

    /// Fold in the next `n` elements of the stream; a slice runs at the
    /// widest instruction set (`Chunk::Fold`).
    pub fn push(&mut self, src: Src<'_>, n: usize) {
        let mut pushed = 0;
        while pushed < n {
            let take = (FOLD_PARTITION - self.at % FOLD_PARTITION).min(n - pushed);
            let (op, first) = (self.op, self.at % FOLD_LANES);
            match src {
                Src::Slice(values) => {
                    let values = &values[pushed..pushed + take];
                    isa::run(Chunk::Fold(op, &mut self.lanes, first, values))
                }
                Src::Scalar(x) => (first..first + take).for_each(|i| {
                    let lane = &mut self.lanes[i % FOLD_LANES];
                    *lane = op.fold(*lane, x);
                }),
            }
            (pushed, self.at) = (pushed + take, self.at + take);
            if self.at.is_multiple_of(FOLD_PARTITION) {
                self.done = self.value();
                self.lanes = [op.init(); FOLD_LANES];
            }
        }
    }

    /// The fold so far: the closed partitions, then the open one (`Mean`
    /// still a sum; [`AggOp::finish`] makes it the aggregate).
    pub fn value(&self) -> f64 {
        let (op, lanes) = (self.op, self.lanes.iter());
        let open = lanes.fold(op.init(), |acc, &lane| op.fold(acc, lane));
        op.fold(self.done, open)
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
pub(crate) mod tests {
    use super::*;

    /// The shared fold shape one element at a time — the reference every
    /// kernel, engine and thread count is held to: `values` are elements
    /// `start..` of a stream.
    pub(crate) fn lane_fold(op: AggOp, values: &[f64], start: usize) -> f64 {
        let combine = |lanes: &[f64]| lanes.iter().fold(op.init(), |a, &l| op.fold(a, l));
        let (mut done, mut lanes) = (op.init(), [op.init(); FOLD_LANES]);
        for (i, &x) in (start..).zip(values) {
            lanes[i % FOLD_LANES] = op.fold(lanes[i % FOLD_LANES], x);
            if (i + 1) % FOLD_PARTITION == 0 {
                done = op.fold(done, combine(&lanes));
                lanes = [op.init(); FOLD_LANES];
            }
        }
        op.fold(done, combine(&lanes))
    }

    /// NaN, ±0, ±inf, subnormals, and ordinary values of both signs.
    const SPECIAL: [f64; 14] = [
        f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        -1.5e-310,
        1.0,
        -2.5,
        0.5,
        3.0,
        -7.0,
        1e300,
        f64::MIN_POSITIVE,
    ];

    /// `len` values cycling through [`SPECIAL`] from `from`.
    fn special(len: usize, from: usize) -> Vec<f64> {
        (0..len)
            .map(|i| SPECIAL[(from + i * 5) % SPECIAL.len()])
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    const UNOPS: [UnOp; 7] = [
        UnOp::Neg,
        UnOp::Sqrt,
        UnOp::Abs,
        UnOp::Square,
        UnOp::Exp,
        UnOp::Ln,
        UnOp::Not,
    ];

    const BINOPS: [BinOp; 16] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Pow,
        BinOp::Mod,
        BinOp::Min,
        BinOp::Max,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::And,
        BinOp::Or,
    ];

    const AGGOPS: [AggOp; 4] = [AggOp::Sum, AggOp::Mean, AggOp::Min, AggOp::Max];

    /// Every instantiation the host supports of every chunk kernel against
    /// the element-at-a-time reference (`UnOp::apply`, `BinOp::apply`, the
    /// conditional, a scalar lane loop), bit for bit, NaN payloads
    /// included: NaN, ±0, ±inf and subnormals, every length 0..=17 (below,
    /// at and around each vector width and the lane count), both operand
    /// shapes, and a fold entering at every lane.
    #[test]
    fn chunk_kernels_are_bitwise_the_scalar_reference_on_every_isa() {
        let shapes = |a: &[f64], b: &[f64], c: f64| {
            let (a, b) = (a.to_vec(), b.to_vec());
            [
                (Some(a.clone()), Some(b)),
                (Some(a.clone()), None),
                (None, Some(a)),
                (None, None),
            ]
            .map(move |(a, b)| (a, b, c))
        };
        fn src(v: &Option<Vec<f64>>, c: f64) -> Src<'_> {
            v.as_deref().map_or(Src::Scalar(c), Src::Slice)
        }
        let at = |v: &Option<Vec<f64>>, c: f64, i: usize| v.as_ref().map_or(c, |v| v[i]);
        for isa in isa::supported() {
            let name = isa.name();
            for len in 0..=17 {
                for from in 0..SPECIAL.len() {
                    let (x, y) = (special(len, from), special(len, from + 3));
                    for op in UNOPS {
                        let mut got = vec![1.0; len];
                        isa.run(Chunk::Map(op, &x, &mut got));
                        let want: Vec<f64> = x.iter().map(|&v| op.apply(v)).collect();
                        assert_eq!(bits(&got), bits(&want), "{name} {op:?} {x:?}");
                    }
                    let scalar = SPECIAL[(from * 3) % SPECIAL.len()];
                    for (a, b, c) in shapes(&x, &y, scalar) {
                        for op in BINOPS {
                            let mut got = vec![1.0; len];
                            isa.run(Chunk::Zip(op, src(&a, c), src(&b, c), &mut got));
                            let want: Vec<f64> = (0..len)
                                .map(|i| op.apply(at(&a, c, i), at(&b, c, i)))
                                .collect();
                            assert_eq!(bits(&got), bits(&want), "{name} {op:?} {a:?} {b:?} {c}");
                        }
                        let mut got = vec![1.0; len];
                        isa.run(Chunk::Select(&y, src(&a, c), src(&b, -c), &mut got));
                        let want: Vec<f64> = (0..len)
                            .map(|i| {
                                if y[i] != 0.0 {
                                    at(&a, c, i)
                                } else {
                                    at(&b, -c, i)
                                }
                            })
                            .collect();
                        assert_eq!(bits(&got), bits(&want), "{name} select {y:?}");
                    }
                    for op in AGGOPS {
                        for first in 0..FOLD_LANES {
                            let start: [f64; FOLD_LANES] =
                                std::array::from_fn(|l| y.get(l).copied().unwrap_or(op.init()));
                            let mut got = start;
                            isa.run(Chunk::Fold(op, &mut got, first, &x));
                            let mut want = start;
                            for (i, &v) in x.iter().enumerate() {
                                let lane = &mut want[(first + i) % FOLD_LANES];
                                *lane = op.fold(*lane, v);
                            }
                            assert_eq!(bits(&got), bits(&want), "{name} {op:?} at lane {first}");
                        }
                    }
                }
            }
        }
    }

    /// The fold shape is keyed by stream position alone: any split into
    /// pushes, a scalar source, a partition folded on its own and
    /// combined in order — all give the element-at-a-time bits, across
    /// partition boundaries.
    #[test]
    fn fold_is_position_keyed_across_pushes_and_partitions() {
        let n = 3 * FOLD_PARTITION + 5;
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 7919) % 1013) as f64 / 97.0 - 5.1)
            .collect();
        for op in AGGOPS {
            let want = lane_fold(op, &x, 0);
            assert_eq!(op.reduce(&x).to_bits(), op.finish(want, n).to_bits());
            let mut fold = Fold::new(op, 0);
            let mut at = 0;
            for step in [0, 1, 7, 8, 9, 1000, FOLD_PARTITION, 3].iter().cycle() {
                let take = (*step).min(n - at);
                fold.push(Src::Slice(&x[at..at + take]), take);
                at += take;
                if at == n {
                    break;
                }
            }
            assert_eq!(fold.value().to_bits(), want.to_bits(), "{op:?} in pushes");
            // A partition alone: the bits the stream gives it.
            let parts = x.chunks(FOLD_PARTITION).enumerate().map(|(k, part)| {
                let mut fold = Fold::new(op, k * FOLD_PARTITION);
                fold.push(Src::Slice(part), part.len());
                fold.value()
            });
            let combined = op.combine(parts, n);
            assert_eq!(
                combined.to_bits(),
                op.finish(want, n).to_bits(),
                "{op:?} by partition"
            );
            // A restart mid-stream folds from that element's lane.
            fold.restart(13);
            fold.push(Src::Slice(&x[13..40]), 27);
            assert_eq!(
                fold.value().to_bits(),
                lane_fold(op, &x[13..40], 13).to_bits()
            );
            // A scalar source is the slice of its copies.
            let mut fold = Fold::new(op, 3);
            fold.push(Src::Scalar(0.1), 21);
            assert_eq!(
                fold.value().to_bits(),
                lane_fold(op, &[0.1; 21], 3).to_bits()
            );
        }
    }

    /// ±0 and NaN in the fold: `Min`/`Max` are `f64::min`/`f64::max`, which
    /// skip NaN (an all-NaN input is the neutral element); `Sum`/`Mean`
    /// propagate it; an empty input is `init()`, and a sum starting from
    /// `+0` is `+0` over negative zeros.
    #[test]
    fn fold_pins_signed_zeros_and_nan() {
        let nan = f64::NAN;
        assert_eq!(AggOp::Sum.reduce(&[]).to_bits(), 0.0f64.to_bits());
        assert_eq!(AggOp::Sum.reduce(&[-0.0, -0.0]).to_bits(), 0.0f64.to_bits());
        assert_eq!(AggOp::Mean.reduce(&[]).to_bits(), 0.0f64.to_bits());
        assert_eq!(AggOp::Min.reduce(&[]), f64::INFINITY);
        assert_eq!(AggOp::Max.reduce(&[]), f64::NEG_INFINITY);
        assert!(AggOp::Sum.reduce(&[1.0, nan, 2.0]).is_nan());
        assert!(AggOp::Mean.reduce(&[nan]).is_nan());
        assert_eq!(AggOp::Min.reduce(&[nan, 3.0, nan, -1.0]), -1.0);
        assert_eq!(AggOp::Max.reduce(&[nan, 3.0, nan, -1.0]), 3.0);
        assert_eq!(AggOp::Min.reduce(&[nan; 9]), f64::INFINITY);
        assert_eq!(AggOp::Max.reduce(&[nan; 9]), f64::NEG_INFINITY);
        // Which zero `min`/`max` keep over `{+0, -0}` is `f64::min`'s
        // choice: the shape fixes the operand order, so every engine
        // makes the same one.
        for op in AGGOPS {
            for x in [[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]] {
                let got = op.reduce(&x);
                assert_eq!(got, 0.0);
                assert_eq!(got.to_bits(), op.finish(lane_fold(op, &x, 0), 3).to_bits());
            }
        }
    }

    /// In-core rates of the tape's chunk kernels per instruction set, over
    /// an L1-resident 1,024-element chunk, in GB/s of operands read and
    /// results written: `cargo test --release -p riot-core --lib
    /// tape_rates -- --ignored --nocapture`. The last instantiation listed
    /// is the one selected.
    #[test]
    #[ignore = "a measurement, not a check"]
    fn tape_rates() {
        const N: usize = 1024;
        // Normal operands only: a subnormal costs a microcode assist.
        let x: Vec<f64> = (0..N)
            .map(|i| ((i * 7919) % 1013) as f64 / 97.0 + 0.5)
            .collect();
        let y: Vec<f64> = (0..N)
            .map(|i| ((i * 104_729) % 1009) as f64 / 101.0 - 5.0)
            .collect();
        let mut out = vec![0.0; N];
        let mut lanes = [0.0; FOLD_LANES];
        for isa in isa::supported() {
            let rate = |what: &str, arrays: usize, mut kernel: Box<dyn FnMut() + '_>| {
                let reps = 20_000;
                let best = (0..5)
                    .map(|_| {
                        let t = std::time::Instant::now();
                        (0..reps).for_each(|_| kernel());
                        t.elapsed().as_secs_f64()
                    })
                    .fold(f64::INFINITY, f64::min);
                let gb = (arrays * N * 8 * reps) as f64 / 1e9;
                println!("{:<9} {what:<9} {:>6.2} GB/s", isa.name(), gb / best);
            };
            let (xs, ys) = (Src::Slice(&x), Src::Slice(&y));
            rate(
                "Zip(Add)",
                3,
                Box::new(|| isa.run(Chunk::Zip(BinOp::Add, xs, ys, &mut out))),
            );
            rate(
                "Zip(Lt)",
                3,
                Box::new(|| isa.run(Chunk::Zip(BinOp::Lt, xs, ys, &mut out))),
            );
            rate(
                "Map(Sqrt)",
                2,
                Box::new(|| isa.run(Chunk::Map(UnOp::Sqrt, &x, &mut out))),
            );
            rate(
                "IfElse",
                4,
                Box::new(|| isa.run(Chunk::Select(&y, xs, ys, &mut out))),
            );
            rate(
                "Sum",
                1,
                Box::new(|| isa.run(Chunk::Fold(AggOp::Sum, &mut lanes, 0, &x))),
            );
            std::hint::black_box((&out, &lanes));
        }
    }

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
            assert_eq!(op.reduce(&xs), want, "{op:?}");
        }
        assert_eq!(AggOp::Mean.reduce(&xs), 3.0);
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
