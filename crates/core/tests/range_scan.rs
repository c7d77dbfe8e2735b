//! How a range subscript `x[a:b]` reads its data — a per-element gather
//! or an in-order scan of the window — is a physical choice: it must not
//! move a single device access, counted operation or result bit.
//!
//! One program takes range subscripts of a stored vector, a literal and a
//! `Range` — a window inside one block, one across block and chunk
//! boundaries, the whole vector but one element at either end, and an
//! empty subscript — and runs them through `sum`/`min`/`max`, `print`
//! and `[<-` under each engine, over 512-byte blocks and a pool small
//! enough that the stored vector evicts itself. At one thread the counted
//! I/O, the pool counters, the flops and the traced
//! miss/evict/write-back sequence are pinned; at one thread and at four,
//! the bits of every result.

use riot_core::{AggOp, BinOp, EngineConfig, EngineKind, RVec, Session};
use riot_storage::{IoSnapshot, PoolStats};
use riot_trace::EventKind;

/// Elements of the stored vector: 16 blocks of 64.
const N: usize = 1000;

/// 64-bit FNV-1a.
fn fnv(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Real-valued entries, so a regrouped sum would show in the bits.
fn entry(i: usize) -> f64 {
    ((i * 7 + 3) % 11) as f64 * 0.3 - 1.3 + (i % 5) as f64 / 7.0
}

/// The windows taken of an `n`-element vector, 1-based and inclusive:
/// inside block 2, across blocks and 96-element chunks, and the whole
/// vector but its last or its first element.
fn windows(n: usize) -> [(i64, i64); 4] {
    let n = n as i64;
    [(70, 100), (50, n * 2 / 3 + 17), (1, n - 1), (2, n)]
}

struct Run {
    io: IoSnapshot,
    pool: PoolStats,
    flops: u64,
    events: usize,
    trace: u64,
    bits: u64,
}

fn run(kind: EngineKind, threads: usize) -> Run {
    let mut cfg = EngineConfig::new(kind);
    cfg.block_size = 512; // 64 elements
    cfg.mem_blocks = 6;
    cfg.chunk_elems = 96;
    cfg.threads = threads;
    let s = Session::new(cfg);
    let ctx = s.storage_ctx();
    let x = s.vector_from_fn(N, entry).unwrap();
    let lit: Vec<f64> = (0..300).map(|i| entry(i + 7) * 2.0).collect();
    let lit = s.literal(&lit).unwrap();
    let seq = s.range(-40, 459).unwrap();
    s.drop_caches().unwrap();
    let (io0, pool0, flops0) = (s.io_snapshot(), s.pool_stats(), s.cpu_ops());
    ctx.tracer().enable();
    let _ = ctx.tracer().drain(); // a `RIOT_TRACE=1` run records from the start
    let (mut out, mut trace) = (Vec::new(), Vec::new());
    // Appends the pool's misses, evictions and write-backs since the last
    // call, in order (drained as the program goes, so the ring never
    // fills).
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
    };
    // `sum`, `min`, `max` and `print` of one subscript.
    let observe = |w: &RVec, out: &mut Vec<f64>| {
        out.extend([w.sum().unwrap(), w.min().unwrap(), w.max().unwrap()]);
        out.extend(w.collect().unwrap());
    };

    for (data, n) in [(&x, N), (&lit, 300), (&seq, 500)] {
        for (a, b) in windows(n) {
            observe(&data.index(&s.range(a, b).unwrap()), &mut out);
            drain_into(&mut trace);
        }
        // The empty subscript (`x[seq_len(0)]`).
        let empty = data.index(&s.literal(&[]).unwrap());
        out.extend([empty.sum().unwrap(), empty.min().unwrap()]);
        out.extend(empty.collect().unwrap());
        drain_into(&mut trace);
    }

    // `x[a:b] <- v`, then windows of the updated vector.
    let u = x.sub_assign(&s.range(200, 260).unwrap(), &s.literal(&[0.5]).unwrap());
    observe(&u.index(&s.range(150, 300).unwrap()), &mut out);
    observe(&u.index(&s.range(1, 999).unwrap()), &mut out);
    drain_into(&mut trace);

    // A window of an expression: pushdown leaves windows of its leaves.
    let expr = x
        .binary_scalar(BinOp::Mul, 1.5, false)
        .binary(BinOp::Add, &u);
    observe(&expr.index(&s.range(10, 900).unwrap()), &mut out);
    drain_into(&mut trace);

    ctx.tracer().disable();
    assert_eq!(ctx.tracer().dropped(), 0, "{kind:?}: the ring overflowed");
    let bits = fnv(out.iter().flat_map(|v| v.to_bits().to_le_bytes()));
    Run {
        io: s.io_snapshot() - io0,
        pool: s.pool_stats().delta(&pool0),
        flops: s.cpu_ops() - flops0,
        events: trace.len(),
        trace: fnv(trace.join(" ").bytes()),
        bits,
    }
}

#[test]
fn range_subscripts_keep_their_device_sequence_and_bits() {
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
    // Every engine folds each aggregate in one shape, so the results have
    // one set of bits.
    let bits = 0xa90f_46c6_d1d0_1ac5;
    // (engine, io, pool delta, flops, traced events, trace FNV)
    let want = [
        (
            EngineKind::PlainR,
            io(651, 268, 260, 123),
            pool(0, 0, 0),
            37216,
            0,
            0xcbf2_9ce4_8422_2325,
        ),
        (
            EngineKind::Strawman,
            io(1637, 535, 892, 523),
            pool(21047, 1957, 527),
            37216,
            4366,
            0x2ecd_b478_0c72_caaa,
        ),
        (
            EngineKind::MatNamed,
            io(362, 50, 314, 47),
            pool(239, 410, 44),
            57709,
            864,
            0xbe2a_9feb_e19a_f3d5,
        ),
        (
            EngineKind::Riot,
            io(390, 34, 287, 31),
            pool(265, 422, 31),
            66401,
            872,
            0xbd83_19a6_de33_5f72,
        ),
    ];
    for (kind, io, pool, flops, events, trace) in want {
        let one = run(kind, 1);
        assert_eq!(one.io, io, "{kind:?}: counted I/O");
        assert_eq!(one.pool, pool, "{kind:?}: pool counters");
        assert_eq!(one.flops, flops, "{kind:?}: flops");
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

/// Why a window reads no index: each range subscript compiled as a scan
/// is counted in `RewriteStats::range_scans` and traced as a `Rewrite`
/// event, while a range that leaves the vector keeps its gather and its
/// error.
#[test]
fn range_scans_are_counted_and_traced() {
    use riot_core::exec::ExecError;
    use riot_core::ExprError;

    let s = Session::new(EngineConfig::new(EngineKind::Riot));
    let x = s.vector_from_fn(N, entry).unwrap();
    let w = x.index(&s.range(50, 700).unwrap());
    let (sum, profile) = s.profile(|| w.sum().unwrap());
    let window: Vec<f64> = (49..700).map(entry).collect();
    assert_eq!(sum.to_bits(), AggOp::Sum.reduce(&window).to_bits());
    let traced = profile.events.iter().find_map(|e| match e.kind {
        EventKind::Rewrite { rule, count } if rule == "range_scans" => Some(count),
        _ => None,
    });
    assert_eq!((traced, s.last_opt_stats().range_scans), (Some(1), 1));

    let past = x.index(&s.range(0, 10).unwrap());
    match past.sum() {
        Err(ExecError::Expr(ExprError::IndexOutOfBounds { index: 0, len: N })) => {}
        other => panic!("expected the subscript's error, got {other:?}"),
    }
    assert_eq!(s.last_opt_stats().range_scans, 0);
}
