//! Where a stored value is kept — a loaded or reopened source, a
//! materialized result, a Strawman table — is bookkeeping: it must not
//! move a single device access, result bit or object lifetime.
//!
//! One program touches every kind of stored value under each engine,
//! over 512-byte blocks and a pool small enough that tiles evict. At one
//! thread the counted I/O, the pool counters, the flops, the catalog left
//! by an aborted query and the traced miss/evict/write-back sequence are
//! pinned; at one thread and at four, the bits of every result.

use riot_array::{DenseMatrix, MatrixLayout, StorageCtx, TileOrder, VectorWriter};
use riot_core::exec::ExecError;
use riot_core::{BinOp, EngineConfig, EngineKind, ResourceLimits, Session, UnOp};
use riot_sparse::SparseMatrix;
use riot_storage::{IoSnapshot, PoolStats};
use riot_trace::{Event, EventKind};

const N: usize = 600;

/// 64-bit FNV-1a.
fn fnv(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn bits_fnv(v: &[f64]) -> u64 {
    fnv(v.iter().flat_map(|x| x.to_bits().to_le_bytes()))
}

/// Real-valued entries, so a regrouped sum would show in the bits.
fn entry(i: usize, j: usize, seed: usize) -> f64 {
    ((i * 7 + j * 3 + seed) % 11) as f64 * 0.3 - 1.3
}

fn triplets(n: usize, seed: usize) -> Vec<(usize, usize, f64)> {
    let cells = (0..n * n).filter(|k| (k * 13 + seed).is_multiple_of(7));
    cells
        .map(|k| (k / n, k % n, entry(k / n, k % n, seed)))
        .collect()
}

/// Named objects written straight to the catalog, so every engine —
/// Plain R too, which has no catalog of its own — can reopen them.
fn write_named(ctx: &std::sync::Arc<StorageCtx>) {
    let mut w = VectorWriter::new(ctx, N, Some("xv")).unwrap();
    let data: Vec<f64> = (0..N).map(|i| entry(i, 1, 2) + 2.0).collect();
    w.push_chunk(&data).unwrap();
    w.finish().unwrap();
    let (sq, ro) = (MatrixLayout::Square, TileOrder::RowMajor);
    DenseMatrix::from_fn(ctx, 24, 20, sq, ro, Some("dm"), |i, j| entry(i, j, 4)).unwrap();
    SparseMatrix::from_triplets(ctx, 24, 24, sq, &triplets(24, 1), Some("sm")).unwrap();
}

/// A permutation of `1..=N` (`stride` prime to `N`), computed: no
/// optimizer knows it is in bounds, so a gather through a gather over it
/// keeps its probe.
fn perm(s: &Session, stride: f64) -> Result<riot_core::RVec, ExecError> {
    let idx = s.range(1, N as i64)?;
    let idx = idx.try_binary_scalar(BinOp::Mul, stride, false)?;
    let idx = idx.try_binary_scalar(BinOp::Mod, N as f64, false)?;
    idx.try_binary_scalar(BinOp::Add, 1.0, false)
}

/// The governed query the pin aborts and re-runs: a gather through a
/// computed probe, reduced.
fn query(s: &Session, x: &riot_core::RVec, y: &riot_core::RVec) -> Result<f64, ExecError> {
    let p = perm(s, 11.0)?;
    let probe = x
        .try_binary(BinOp::Mul, y)?
        .try_unary(UnOp::Abs)?
        .try_index(&p)?;
    probe.try_index(&p)?.sum()
}

struct Run {
    io: IoSnapshot,
    pool: PoolStats,
    flops: u64,
    live_after_abort: usize,
    catalog_after_abort: u64,
    events: usize,
    trace: u64,
    bits: u64,
}

fn run(kind: EngineKind, threads: usize) -> Run {
    let mut cfg = EngineConfig::new(kind);
    cfg.block_size = 512; // 64 elements
    cfg.mem_blocks = 12;
    cfg.chunk_elems = 64;
    cfg.threads = threads;
    let s = Session::new(cfg);
    let ctx = s.storage_ctx();
    write_named(&ctx);
    s.drop_caches().unwrap();
    let (io0, pool0, flops0) = (s.io_snapshot(), s.pool_stats(), s.cpu_ops());
    ctx.tracer().enable();
    let _ = ctx.tracer().drain(); // a `RIOT_TRACE=1` run records from the start
    let (mut out, mut trace) = (Vec::new(), Vec::new());
    // Appends the pool's misses, evictions and write-backs since the last
    // call, in order (drained as the program goes, so the ring never
    // fills), and returns how many `materialize` spans closed meanwhile.
    let drain_into = |trace: &mut Vec<String>| {
        let events = ctx.tracer().drain();
        trace.extend(events.iter().filter_map(|e| match e.kind {
            EventKind::PoolMiss { block } => Some(format!("m{block}")),
            EventKind::PoolEvict { block, dirty } => {
                Some(format!("e{block}{}", if dirty { "*" } else { "" }))
            }
            EventKind::PoolWriteBack { block } => Some(format!("w{block}")),
            _ => None,
        }));
        let materialize =
            |e: &&Event| matches!(&e.kind, EventKind::Span(d) if d.name == "materialize");
        events.iter().filter(materialize).count()
    };

    // Sources of every kind, anonymous and reopened.
    let x = s.vector_from_fn(N, |i| entry(i, 0, 1)).unwrap();
    let xr = s.open_vector("xv").unwrap();
    let sq = MatrixLayout::Square;
    let d = s.matrix_from_fn(24, 16, sq, |i, j| entry(i, j, 3)).unwrap();
    let dn = s.open_matrix("dm").unwrap();
    let sp = s.sparse_matrix(24, 24, &triplets(24, 5)).unwrap();
    let spn = s.open_matrix("sm").unwrap();

    // A gather through a computed probe: the probe is materialized.
    let probe = x
        .binary(BinOp::Add, &xr)
        .abs()
        .sqrt()
        .index(&perm(&s, 7.0).unwrap());
    let idx = s.literal(&[3.0, 599.0, 1.0, 77.0, 77.0, 300.0]).unwrap();
    out.extend(probe.index(&idx).collect().unwrap());
    drain_into(&mut trace);

    // A three-step `[<-` chain, then a sum over it.
    let (i1, i2, i3) = (
        s.literal(&[1.0, 2.0, 600.0]).unwrap(),
        s.literal(&[65.0, 129.0]).unwrap(),
        s.literal(&[2.0, 400.0, 65.0]).unwrap(),
    );
    let v1 = s.literal(&[0.25, -4.5, 9.0]).unwrap();
    let v2 = s.literal(&[7.75, 1.5]).unwrap();
    let u = xr
        .sub_assign(&i1, &v1)
        .sub_assign(&i2, &v2)
        .sub_assign(&i3, &v1);
    out.push(u.sum().unwrap());
    drain_into(&mut trace);

    // An assignment: MatNamed's materialization point.
    let a = s.assign("a", &x.binary(BinOp::Mul, &xr).exp()).unwrap();
    out.push(a.sum().unwrap());
    out.extend(a.binary_scalar(BinOp::Sub, 1.0, false).collect().unwrap());
    drain_into(&mut trace);

    // Products over sparse and dense sources, each collected twice.
    for (l, r) in [
        (spn.t(), d.clone()),
        (sp.clone(), spn.clone()),
        (dn.t(), dn.clone()),
    ] {
        let p = l.matmul(&r);
        for _ in 0..2 {
            out.extend(p.collect().unwrap().2);
            drain_into(&mut trace);
        }
    }

    // Cholesky and a solve over a small SPD matrix.
    let spd = s
        .matrix_from_fn(12, 12, sq, |i, j| match i == j {
            true => 14.0 + (i % 5) as f64 / 3.0,
            false => ((i.min(j) * 31 + i.max(j) * 17) % 13) as f64 / 13.0 - 0.45,
        })
        .unwrap();
    let rhs = s.matrix_from_fn(12, 3, sq, |i, j| entry(i, j, 6)).unwrap();
    out.extend(spd.chol().unwrap().collect().unwrap().2);
    out.extend(spd.solve(&rhs).unwrap().collect().unwrap().2);
    drain_into(&mut trace);

    // A governed query a flop budget aborts mid-way, then the same query
    // without limits. Each eager operator is a query of its own; the
    // deferred query runs at the sum, and trips after its first probe is
    // materialized.
    let deferred = matches!(kind, EngineKind::MatNamed | EngineKind::Riot);
    let budget = if deferred { 3000 } else { 300 };
    s.set_limits(ResourceLimits::none().with_max_flops(budget));
    let err = query(&s, &x, &xr).unwrap_err();
    let materialized = drain_into(&mut trace);
    assert_eq!(
        materialized > 0,
        deferred,
        "{kind:?}: the probe of the aborted query"
    );
    assert!(
        matches!(
            err,
            ExecError::BudgetExceeded {
                resource: "flops",
                ..
            }
        ),
        "{kind:?}: {err}"
    );
    s.clear_limits();
    let live_after_abort = ctx.live_objects();
    let catalog_after_abort = fnv(ctx.catalog_fingerprint().bytes());
    out.push(query(&s, &x, &xr).unwrap());

    drain_into(&mut trace);
    ctx.tracer().disable();
    assert_eq!(ctx.tracer().dropped(), 0, "{kind:?}: the ring overflowed");
    Run {
        io: s.io_snapshot() - io0,
        pool: s.pool_stats().delta(&pool0),
        flops: s.cpu_ops() - flops0,
        live_after_abort,
        catalog_after_abort,
        events: trace.len(),
        trace: fnv(trace.join(" ").bytes()),
        bits: bits_fnv(&out),
    }
}

#[test]
fn stored_values_keep_their_device_sequence_and_bits() {
    let io = |reads: u64, writes: u64, seq_reads: u64, seq_writes: u64| IoSnapshot {
        reads,
        writes,
        seq_reads,
        seq_writes,
        bytes_read: reads * 512,
        bytes_written: writes * 512,
        syncs: 0,
    };
    let pool = |hits: u64, misses: u64, evict_writebacks: u64| PoolStats {
        hits,
        misses,
        evict_writebacks,
        ..PoolStats::default()
    };
    // Every engine sums each product cell and each fold in one order, so
    // the results have one set of bits.
    let bits = 0x2174_f70b_54d8_9e2d;
    // (engine, io, pool delta, flops, live objects and catalog FNV after
    // the abort, traced events, trace FNV)
    let want = [
        (
            EngineKind::PlainR,
            io(1537, 752, 280, 251),
            pool(1, 25, 0),
            49632,
            3,
            0x8e2b_6d67_219b_c219,
            38,
            0x7bee_e770_f0e9_e04c,
        ),
        (
            EngineKind::Strawman,
            io(38216, 1944, 29291, 615),
            pool(40068, 38761, 1826),
            48576,
            18,
            0xed5b_ab5a_f959_0e12,
            79338,
            0x3803_c0b5_6993_699c,
        ),
        (
            EngineKind::MatNamed,
            io(208, 165, 95, 143),
            pool(551, 375, 145),
            30425,
            20,
            0xfd62_0658_fc5f_1f11,
            883,
            0x2666_695d_803e_53b1,
        ),
        (
            EngineKind::Riot,
            io(365, 150, 252, 128),
            pool(713, 517, 140),
            36969,
            19,
            0x9cf7_14ed_1f12_32a2,
            1162,
            0x1d4a_0c57_3d38_8cbf,
        ),
    ];
    for (kind, io, pool, flops, live, catalog, events, trace) in want {
        let one = run(kind, 1);
        assert_eq!(one.io, io, "{kind:?}: counted I/O");
        assert_eq!(one.pool, pool, "{kind:?}: pool counters");
        assert_eq!(one.flops, flops, "{kind:?}: flops");
        assert_eq!(
            one.live_after_abort, live,
            "{kind:?}: live objects after the abort"
        );
        assert_eq!(
            one.catalog_after_abort, catalog,
            "{kind:?}: catalog after the abort"
        );
        assert_eq!(
            (one.events, one.trace),
            (events, trace),
            "{kind:?}: device sequence"
        );
        for threads in [1, 4] {
            let got = if threads == 1 {
                one.bits
            } else {
                run(kind, threads).bits
            };
            assert_eq!(got, bits, "{kind:?} at {threads} threads: result bits");
        }
    }
}
