//! The real-valued fold contract: `sum`/`mean`/`min`/`max` of a
//! non-integer vector have the same bits under every engine, at every
//! thread count, in the `eval` oracle and in the R front end's host-side
//! matrix reduction — the one fold shape of `riot_core::expr::Fold` (eight
//! lanes by element index, partitions of `FOLD_PARTITION` elements
//! combined in order). The lengths straddle the lane count and the
//! partition size; the values are not integers, so a different summation
//! order would show in the bits.

use riot::core::expr::FOLD_PARTITION;
use riot::core::{evaluate, AggOp, ExprGraph, MemSources};
use riot::rlang::RValue;
use riot::{EngineConfig, EngineKind, Interpreter, Session};

const P: usize = FOLD_PARTITION;
const OPS: [AggOp; 4] = [AggOp::Sum, AggOp::Mean, AggOp::Min, AggOp::Max];
const LENGTHS: [usize; 9] = [0, 1, 7, 8, 9, P - 1, P, P + 1, 3 * P + 5];

/// Non-integers of both signs over eight decades.
fn data(n: usize) -> Vec<f64> {
    let scale = |i: usize| 10f64.powi((i % 8) as i32 - 4);
    (0..n)
        .map(|i| (i as f64 * 0.7131).sin() * scale(i))
        .collect()
}

fn config(kind: EngineKind, threads: usize) -> EngineConfig {
    let mut cfg = EngineConfig::new(kind);
    cfg.block_size = 2048; // square tiles of 16 x 16
    cfg.chunk_elems = 100; // chunks straddle the lanes
    cfg.mem_blocks = 256; // the longest input is out of core
    cfg.threads = threads;
    cfg
}

fn bits(values: [f64; 4]) -> [u64; 4] {
    values.map(f64::to_bits)
}

/// The `eval` oracle: one `Agg` node per operator over a source.
fn oracle(x: &[f64]) -> [f64; 4] {
    let mut g = ExprGraph::new();
    let mut src = MemSources::new();
    let source = src.add_vector(x.to_vec());
    let input = g.vec_source(source, x.len());
    OPS.map(|op| {
        let agg = g.agg(op, input);
        evaluate(&g, agg, &src).unwrap().as_scalar()
    })
}

/// The four aggregates through the Session API.
fn engine(kind: EngineKind, threads: usize, x: &[f64]) -> [f64; 4] {
    let s = Session::new(config(kind, threads));
    let v = s.vector_from_slice(x).unwrap();
    [v.sum(), v.mean(), v.min(), v.max()].map(Result::unwrap)
}

/// The four aggregates of an `n x 1` matrix in an R script.
fn rlang_matrix(kind: EngineKind, threads: usize, x: &[f64]) -> [f64; 4] {
    let mut interp = Interpreter::new(config(kind, threads));
    interp.bind_matrix("m", x.len(), 1, |i, _| x[i]).unwrap();
    interp
        .run("a <- sum(m); b <- mean(m); c <- min(m); d <- max(m)")
        .unwrap();
    ["a", "b", "c", "d"].map(|name| match interp.get(name) {
        Some(RValue::Scalar(v)) => *v,
        _ => panic!("{name} is not an observed scalar"),
    })
}

#[test]
fn real_valued_aggregates_are_bit_identical_everywhere() {
    for n in LENGTHS {
        let x = data(n);
        let want = OPS.map(|op| op.reduce(&x));
        assert_eq!(bits(oracle(&x)), bits(want), "n = {n}: oracle");
        for threads in [1, 4] {
            for kind in EngineKind::all() {
                let got = engine(kind, threads, &x);
                assert_eq!(bits(got), bits(want), "n = {n}: {kind:?} x{threads}");
            }
            // The front end refuses an empty matrix; every other length
            // reduces on the host in the shared shape.
            if n > 0 {
                let got = rlang_matrix(EngineKind::Riot, threads, &x);
                assert_eq!(bits(got), bits(want), "n = {n}: rlang matrix x{threads}");
            }
        }
    }
}

/// Neumaier's compensated sum: the reference the bound is measured from.
fn compensated(x: &[f64]) -> f64 {
    let (mut sum, mut carry) = (0.0f64, 0.0f64);
    for &v in x {
        let t = sum + v;
        carry += if sum.abs() >= v.abs() {
            (sum - t) + v
        } else {
            (v - t) + sum
        };
        sum = t;
    }
    sum + carry
}

/// The lane shape is a summation order like any other: its error is
/// within `n · ε · Σ|xᵢ|` of the compensated sum (the textbook bound for
/// recursive summation, with room to spare), and `min`/`max` are exact.
#[test]
fn the_fold_is_within_n_eps_of_the_compensated_sum() {
    for n in LENGTHS {
        let x = data(n);
        let magnitude: f64 = x.iter().map(|v| v.abs()).sum();
        let bound = n as f64 * f64::EPSILON * magnitude;
        let exact = compensated(&x);
        let sum = AggOp::Sum.reduce(&x);
        assert!((sum - exact).abs() <= bound, "n = {n}: {sum} vs {exact}");
        if n > 0 {
            let mean = AggOp::Mean.reduce(&x);
            let err = (mean - exact / n as f64).abs();
            assert!(err <= bound / n as f64, "n = {n}: mean {mean}");
        }
        let min = x.iter().copied().fold(f64::INFINITY, f64::min);
        let max = x.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!((AggOp::Min.reduce(&x), AggOp::Max.reduce(&x)), (min, max));
    }
}

/// ±0 and NaN inputs through every engine: a NaN makes `sum`/`mean` NaN
/// and is skipped by `min`/`max` (`f64::min`/`f64::max`); the zeros
/// `min`/`max` keep over `{+0, -0}` and a sum of negative zeros (`+0`)
/// have one set of bits everywhere.
#[test]
fn signed_zeros_and_nan_agree_across_engines() {
    let mut x = data(3 * 8 + 5);
    x[3] = f64::NAN;
    x[17] = f64::NAN;
    let zeros: Vec<f64> = (0..19)
        .map(|i| if i % 3 == 0 { 0.0 } else { -0.0 })
        .collect();
    for threads in [1, 4] {
        for kind in EngineKind::all() {
            let [sum, mean, min, max] = engine(kind, threads, &x);
            assert!(sum.is_nan() && mean.is_nan(), "{kind:?}");
            let clean: Vec<f64> = x.iter().copied().filter(|v| !v.is_nan()).collect();
            let want = (AggOp::Min.reduce(&clean), AggOp::Max.reduce(&clean));
            assert_eq!((min, max), want, "{kind:?}: NaN is skipped");
            let got = engine(kind, threads, &zeros);
            assert_eq!(bits(got), bits(OPS.map(|op| op.reduce(&zeros))), "{kind:?}");
            assert_eq!(got[0].to_bits(), 0.0f64.to_bits(), "{kind:?}: sum is +0");
        }
    }
}
