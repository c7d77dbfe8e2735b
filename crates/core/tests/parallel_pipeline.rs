//! Parity of the parallel elementwise pipeline against the sequential
//! executor: identical results, identical counted I/O, identical scalar
//! op counts — with only `EngineConfig::threads` changed.

use riot_core::expr::FOLD_PARTITION;
use riot_core::{AggOp, EngineConfig, EngineKind, Session};
use riot_storage::IoSnapshot;

/// Run the Example-1-shaped elementwise program and report
/// `(result, io-delta, op-delta)`.
fn run_elementwise(kind: EngineKind, threads: usize) -> (Vec<f64>, IoSnapshot, u64) {
    let mut cfg = EngineConfig::new(kind);
    cfg.block_size = 512; // 64 elements per block
    cfg.chunk_elems = 64; // chunk == block: partitions are block-aligned
    cfg.mem_blocks = 512; // in-memory regime, where I/O parity is exact
    cfg.threads = threads;
    let s = Session::new(cfg);
    let n = 64 * 40;
    let x = s
        .vector_from_fn(n, |i| (i as f64 * 0.01).sin() * 20.0)
        .unwrap();
    let y = s
        .vector_from_fn(n, |i| (i as f64 * 0.01).cos() * 20.0)
        .unwrap();
    s.drop_caches().unwrap();
    let io0 = s.io_snapshot();
    let ops0 = s.cpu_ops();
    let d = ((&x - 1.0).square() + (&y - 2.0).square()).sqrt()
        + ((&x - 3.0).square() + (&y - 4.0).square()).sqrt();
    let mask = d.gt(25.0);
    let clamped = d.mask_assign(&mask, 25.0);
    let out = clamped.collect().unwrap();
    (out, s.io_snapshot() - io0, s.cpu_ops() - ops0)
}

#[test]
fn parallel_collect_matches_sequential_exactly() {
    for kind in [EngineKind::Riot, EngineKind::MatNamed] {
        let (seq, seq_io, seq_ops) = run_elementwise(kind, 1);
        for threads in [2, 4] {
            let (par, par_io, par_ops) = run_elementwise(kind, threads);
            assert_eq!(par, seq, "{kind:?}/{threads}: results diverged");
            // Totals and bytes are exact; the sequential/random *classification*
            // is best-effort when worker reads interleave (see
            // riot_storage::stats) — at partition boundaries, adjacent blocks
            // belong to different workers, and whether the global last-block
            // tracker sees them back-to-back is a race.
            assert_eq!(
                (
                    par_io.reads,
                    par_io.writes,
                    par_io.bytes_read,
                    par_io.bytes_written,
                    par_io.syncs
                ),
                (
                    seq_io.reads,
                    seq_io.writes,
                    seq_io.bytes_read,
                    seq_io.bytes_written,
                    seq_io.syncs
                ),
                "{kind:?}/{threads}: I/O diverged"
            );
            assert_eq!(par_ops, seq_ops, "{kind:?}/{threads}: op counts diverged");
        }
    }
}

/// Plans the partitioner cannot prove safe (aggregates, gathers over
/// data-dependent probes with short outputs) fall back to the sequential
/// path and still agree across thread counts.
#[test]
fn unsafe_plans_fall_back_and_agree() {
    let run = |threads: usize| {
        let mut cfg = EngineConfig::new(EngineKind::Riot);
        cfg.block_size = 512;
        cfg.chunk_elems = 64;
        cfg.mem_blocks = 256;
        cfg.threads = threads;
        let s = Session::new(cfg);
        let n = 2000;
        let x = s.vector_from_fn(n, |i| i as f64).unwrap();
        let total = (&x * 2.0).sum().unwrap(); // one drain, shared fold shape
        let idx = s.sample(n, 7).unwrap();
        let picked = (&x + 1.0).index(&idx).collect().unwrap(); // short output
        (total, picked)
    };
    let (t1, p1) = run(1);
    let (t4, p4) = run(4);
    assert_eq!(t1, t4);
    assert_eq!(p1, p4);
}

/// The shared fold shape (`riot_core::expr::Fold`): `sum()`/`mean()`/
/// `min()`/`max()` over a float stream longer than three partitions are
/// **bit-identical** across `EngineConfig::threads` values and equal to
/// the host's `AggOp::reduce` of the same values — lanes and partition
/// boundaries derive from the stream length alone, and partition values
/// combine in partition order whichever worker folded them. Counted I/O
/// is identical too (every block read exactly once either way).
#[test]
fn aggregates_bit_identical_across_thread_counts() {
    let n = 3 * FOLD_PARTITION + 5;
    let data: Vec<f64> = (0..n)
        .map(|i| ((i as f64 * 0.0137).sin() * 3.0 + 0.1) * 1.5 + 0.25)
        .collect();
    let run = |threads: usize| {
        let mut cfg = EngineConfig::new(EngineKind::Riot);
        cfg.block_size = 512;
        cfg.chunk_elems = 64;
        cfg.mem_blocks = 512;
        cfg.threads = threads;
        let s = Session::new(cfg);
        let x = s
            .vector_from_fn(n, |i| (i as f64 * 0.0137).sin() * 3.0 + 0.1)
            .unwrap();
        let e = (&x * 1.5) + 0.25;
        s.drop_caches().unwrap();
        let io0 = s.io_snapshot();
        let out = [
            e.sum().unwrap(),
            e.mean().unwrap(),
            e.min().unwrap(),
            e.max().unwrap(),
        ];
        (out.map(f64::to_bits), s.io_snapshot() - io0)
    };
    let (seq, seq_io) = run(1);
    let ops = [AggOp::Sum, AggOp::Mean, AggOp::Min, AggOp::Max];
    assert_eq!(seq, ops.map(|op| op.reduce(&data).to_bits()), "host shape");
    for threads in [2, 4] {
        let (par, par_io) = run(threads);
        // Exact bit equality, not approximate: the whole point of the
        // shared shape.
        assert_eq!(par, seq, "{threads}-thread aggregates diverged");
        // Totals only: the sequential/random *classification* is
        // best-effort when worker reads interleave (see riot_storage::stats).
        assert_eq!(
            (par_io.reads, par_io.writes),
            (seq_io.reads, seq_io.writes),
            "{threads}-thread aggregate I/O diverged"
        );
    }
}

/// Below one partition every engine folds in the shared shape — eight
/// lanes by element index, combined left to right — whatever the chunk
/// and the thread count, and MatNamed agrees with Riot. The reference is
/// that loop written out here.
#[test]
fn small_aggregates_fold_in_the_shared_lane_shape() {
    for kind in [EngineKind::Riot, EngineKind::MatNamed] {
        let mut cfg = EngineConfig::new(kind);
        cfg.block_size = 512;
        cfg.chunk_elems = 60; // chunks straddle the lanes
        cfg.threads = 4; // even with workers available
        let s = Session::new(cfg);
        let n = 200;
        let data: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).cos() * 7.0).collect();
        let x = s.vector_from_fn(n, |i| data[i]).unwrap();
        let mut lanes = [0.0f64; 8];
        for (i, &v) in data.iter().enumerate() {
            lanes[i % 8] += v;
        }
        let want = lanes.iter().fold(0.0, |acc, &lane| acc + lane);
        assert_eq!(x.sum().unwrap().to_bits(), want.to_bits(), "{kind:?}");
        // Not what the element-order fold gives, which is what pins it.
        assert_ne!(data.iter().sum::<f64>().to_bits(), want.to_bits());
    }
}

/// Gathers are excluded from the parallel path (probes touch blocks
/// shared across partitions, which would break I/O parity under pool
/// pressure); a full-length computed gather therefore falls back to the
/// sequential drain and must still agree across thread counts.
#[test]
fn parallel_gather_pipeline_matches() {
    let run = |threads: usize| {
        let mut cfg = EngineConfig::new(EngineKind::Riot);
        cfg.block_size = 512;
        cfg.chunk_elems = 64;
        cfg.mem_blocks = 512;
        cfg.threads = threads;
        let s = Session::new(cfg);
        let n = 64 * 16;
        let x = s.vector_from_fn(n, |i| (i * 3 % 17) as f64).unwrap();
        // Reverse permutation as a computed index: n, n-1, ..., 1.
        let fwd = s.range(1, n as i64).unwrap();
        let rev = (n as f64 + 1.0) - &fwd;
        let z = x.index(&rev);
        z.collect().unwrap()
    };
    let seq = run(1);
    assert_eq!(seq.len(), 64 * 16);
    assert_eq!(run(4), seq);
}
