//! Property tests for the core: the optimizer must preserve semantics on
//! *random programs*, and all four engines must agree with the reference
//! evaluator elementwise — on the value, or on the error variant when a
//! subscript is out of bounds.

use proptest::prelude::*;
use riot_core::exec::{ExecError, ExecResult};
use riot_core::{
    evaluate, optimize, BinOp, EngineConfig, EngineKind, ExprError, ExprGraph, MemSources, NodeId,
    OptConfig, RVec, Session, UnOp,
};

/// A small random-program AST we can replay against every backend.
#[derive(Debug, Clone)]
enum Prog {
    /// Input vector 0 or 1.
    Input(bool),
    /// Integer-ish scalar constant.
    Const(i8),
    /// The range 1..=len.
    Seq,
    Map(UnOp, Box<Prog>),
    Zip(BinOp, Box<Prog>, Box<Prog>),
    /// data[mask > c] <- c (masked update).
    Clamp(Box<Prog>, i8),
    /// Subscript with a fixed small index set.
    Pick(Box<Prog>, Vec<Idx>),
}

/// One subscript of a `Pick` over a vector of length `n`: mostly in
/// range, but also everything a script can write there.
#[derive(Debug, Clone, Copy)]
enum Idx {
    /// `1 + i mod n`: in range.
    At(u8),
    /// In range after truncation (`x[2.7]` is `x[2]`).
    Frac(u8),
    /// `0`: out of bounds.
    Zero,
    /// `n + 1`: out of bounds.
    PastEnd,
    /// `-(1 + i mod n)`: out of bounds (no negative-subscript exclusion).
    Neg(u8),
}

impl Idx {
    fn value(self, n: usize) -> f64 {
        let at = |i: u8| (i as usize % n + 1) as f64;
        match self {
            Idx::At(i) => at(i),
            Idx::Frac(i) => at(i) + 0.7,
            Idx::Zero => 0.0,
            Idx::PastEnd => (n + 1) as f64,
            Idx::Neg(i) => -at(i),
        }
    }
}

fn idx_strategy() -> impl Strategy<Value = Idx> {
    prop_oneof![
        40 => any::<u8>().prop_map(Idx::At),
        4 => any::<u8>().prop_map(Idx::Frac),
        1 => Just(Idx::Zero),
        1 => Just(Idx::PastEnd),
        1 => any::<u8>().prop_map(Idx::Neg),
    ]
}

fn unops() -> impl Strategy<Value = UnOp> {
    prop_oneof![
        Just(UnOp::Neg),
        Just(UnOp::Abs),
        Just(UnOp::Square),
        Just(UnOp::Not),
    ]
}

fn binops() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Min),
        Just(BinOp::Max),
        Just(BinOp::Gt),
        Just(BinOp::Le),
    ]
}

fn prog_strategy() -> impl Strategy<Value = Prog> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(Prog::Input),
        (-9i8..10).prop_map(Prog::Const),
        Just(Prog::Seq),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (unops(), inner.clone()).prop_map(|(op, p)| Prog::Map(op, Box::new(p))),
            (binops(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| Prog::Zip(
                op,
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), 1i8..40).prop_map(|(p, c)| Prog::Clamp(Box::new(p), c)),
            (inner, prop::collection::vec(idx_strategy(), 1..6))
                .prop_map(|(p, idx)| Prog::Pick(Box::new(p), idx)),
        ]
    })
}

/// Build the program in an [`ExprGraph`]. Every subexpression is coerced
/// to vector length `n` (scalars broadcast, Pick re-expanded via gather of
/// a cycled index) so shapes always compose.
fn build(g: &mut ExprGraph, p: &Prog, x: NodeId, y: NodeId, n: usize) -> NodeId {
    match p {
        Prog::Input(false) => x,
        Prog::Input(true) => y,
        Prog::Const(c) => {
            let s = g.scalar(f64::from(*c));
            let ones = g.range(1, n);
            // c + 0 * (1:n): a vector of c's, exercising fold rules.
            let zero = g.scalar(0.0);
            let zs = g.zip(BinOp::Mul, ones, zero).unwrap();
            g.zip(BinOp::Add, zs, s).unwrap()
        }
        Prog::Seq => g.range(1, n),
        Prog::Map(op, inner) => {
            let i = build(g, inner, x, y, n);
            g.map(*op, i)
        }
        Prog::Zip(op, a, b) => {
            let a = build(g, a, x, y, n);
            let b = build(g, b, x, y, n);
            g.zip(*op, a, b).unwrap()
        }
        Prog::Clamp(inner, c) => {
            let d = build(g, inner, x, y, n);
            let cv = g.scalar(f64::from(*c));
            let mask = g.zip(BinOp::Gt, d, cv).unwrap();
            g.mask_assign(d, mask, cv).unwrap()
        }
        Prog::Pick(inner, idx) => {
            let d = build(g, inner, x, y, n);
            let k = idx.len();
            let lit = g.literal(idx.iter().map(|i| i.value(n)).collect());
            let picked = g.gather(d, lit).unwrap();
            // Re-expand to length n by cycling indices so composition keeps
            // working: picked[((0..n) % k) + 1].
            let cyc: Vec<f64> = (0..n).map(|i| (i % k + 1) as f64).collect();
            let cyc = g.literal(cyc);
            g.gather(picked, cyc).unwrap()
        }
    }
}

/// Two outcomes agree when both are values that are elementwise close, or
/// both are errors of the same variant (which subscript trips first may
/// differ between plans; that one trips may not).
fn outcomes_agree(got: &Result<Vec<f64>, ExprError>, want: &Result<Vec<f64>, ExprError>) -> bool {
    match (got, want) {
        (Ok(a), Ok(b)) => {
            a.len() == b.len()
                && a.iter().zip(b).all(|(x, y)| {
                    (x.is_nan() && y.is_nan())
                        || (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs()))
                })
        }
        (Err(a), Err(b)) => std::mem::discriminant(a) == std::mem::discriminant(b),
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Optimizer output has the same outcome as the unoptimized DAG.
    #[test]
    fn optimizer_preserves_semantics(p in prog_strategy(), n in 3usize..30, seed in any::<u64>()) {
        let mut g = ExprGraph::new();
        let mut src = MemSources::new();
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 40.0 - 20.0
        };
        let xd: Vec<f64> = (0..n).map(|_| next()).collect();
        let yd: Vec<f64> = (0..n).map(|_| next()).collect();
        let xr = src.add_vector(xd);
        let yr = src.add_vector(yd);
        let x = g.vec_source(xr, n);
        let y = g.vec_source(yr, n);
        let root = build(&mut g, &p, x, y, n);

        let want = evaluate(&g, root, &src).map(|v| v.to_flat());
        let (opt_root, _) = optimize(&mut g, root, &OptConfig::default());
        let got = evaluate(&g, opt_root, &src).map(|v| v.to_flat());
        prop_assert!(
            outcomes_agree(&got, &want),
            "prog {:?}\nunopt: {} = {want:?}\nopt:   {} = {got:?}",
            p, g.render(root), g.render(opt_root)
        );
    }

    /// All four engines — and Riot with subscript pushdown switched off — have
    /// the same outcome as the reference evaluator for random programs.
    #[test]
    fn engines_agree_with_reference(p in prog_strategy(), n in 3usize..24) {
        // Reference.
        let mut g = ExprGraph::new();
        let mut src = MemSources::new();
        let xd: Vec<f64> = (0..n).map(|i| (i as f64) * 1.5 - 7.0).collect();
        let yd: Vec<f64> = (0..n).map(|i| 11.0 - i as f64).collect();
        let xr = src.add_vector(xd.clone());
        let yr = src.add_vector(yd.clone());
        let x = g.vec_source(xr, n);
        let y = g.vec_source(yr, n);
        let root = build(&mut g, &p, x, y, n);
        let want = evaluate(&g, root, &src).map(|v| v.to_flat());

        let unoptimized = OptConfig { pushdown: false, ..OptConfig::default() };
        let engines = EngineKind::all().map(|kind| (kind, OptConfig::default()));
        for (kind, opt) in engines.into_iter().chain([(EngineKind::Riot, unoptimized)]) {
            let mut cfg = EngineConfig::new(kind);
            cfg.block_size = 512;
            cfg.mem_blocks = 8; // tiny: forces out-of-core paths
            cfg.chunk_elems = 16;
            cfg.opt = opt;
            let s = Session::new(cfg);
            let xv = s.vector_from_slice(&xd).unwrap();
            let yv = s.vector_from_slice(&yd).unwrap();
            // Eager engines fail at the operator, deferred ones at the
            // forcing point.
            let got = match run_session(&s, &p, &xv, &yv, n).and_then(|out| out.collect()) {
                Ok(values) => Ok(values),
                Err(ExecError::Expr(e)) => Err(e),
                Err(other) => panic!("engine {kind:?}: unexpected error {other} on {p:?}"),
            };
            prop_assert!(
                outcomes_agree(&got, &want),
                "engine {kind:?} (pushdown {}) diverged on {p:?}: got {got:?} want {want:?}",
                opt.pushdown
            );
        }
    }
}

/// Replay a [`Prog`] through the session API (what user R code would do).
fn run_session(s: &Session, p: &Prog, x: &RVec, y: &RVec, n: usize) -> ExecResult<RVec> {
    Ok(match p {
        Prog::Input(false) => x.clone(),
        Prog::Input(true) => y.clone(),
        Prog::Const(c) => {
            let zeros = s
                .range(1, n as i64)?
                .try_binary_scalar(BinOp::Mul, 0.0, false)?;
            zeros.try_binary_scalar(BinOp::Add, f64::from(*c), false)?
        }
        Prog::Seq => s.range(1, n as i64)?,
        Prog::Map(op, inner) => run_session(s, inner, x, y, n)?.try_unary(*op)?,
        Prog::Zip(op, a, b) => {
            let a = run_session(s, a, x, y, n)?;
            let b = run_session(s, b, x, y, n)?;
            a.try_binary(*op, &b)?
        }
        Prog::Clamp(inner, c) => {
            let d = run_session(s, inner, x, y, n)?;
            let mask = d.try_binary_scalar(BinOp::Gt, f64::from(*c), false)?;
            d.try_mask_assign(&mask, f64::from(*c))?
        }
        Prog::Pick(inner, idx) => {
            let d = run_session(s, inner, x, y, n)?;
            let picks: Vec<f64> = idx.iter().map(|i| i.value(n)).collect();
            let k = picks.len();
            let picked = d.try_index(&s.vector_from_slice(&picks)?)?;
            let cyc: Vec<f64> = (0..n).map(|i| (i % k + 1) as f64).collect();
            picked.try_index(&s.vector_from_slice(&cyc)?)?
        }
    })
}
