//! Per-layer ceilings: short probes of public entry points over data that
//! stays inside the pool, so "fast" on a workload is a ratio to what the
//! same layer does with no device in the way. Rates use the engine's own
//! flop counter (one per multiply-add).

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use riot::array::MatrixLayout;
use riot::core::ProfileNode;
use riot::{QueryProfile, Session};

use crate::gen;
use crate::harness::engine_config;
use crate::layers::Sample;
use crate::store::{Catalog, Instruments, Store, StoreOpts, TempFile};

const FRAMES: usize = 512;
const REPS: usize = 5;

/// Self time (ns) and self flops of every span called `name`.
fn span_totals(profile: &QueryProfile, name: &str) -> (u64, u64) {
    fn walk(n: &ProfileNode, name: &str, acc: &mut (u64, u64)) {
        if n.name == name {
            let kids: u64 = n.children.iter().map(|c| c.dur_ns).sum();
            acc.0 += n.dur_ns.saturating_sub(kids);
            acc.1 += n.self_metrics().flops;
        }
        for c in &n.children {
            walk(c, name, acc);
        }
    }
    let mut acc = (0, 0);
    walk(&profile.root, name, &mut acc);
    acc
}

fn session() -> Session {
    Session::new(engine_config(FRAMES))
}

fn dense(s: &Session, rows: usize, cols: usize, stream: u64) -> Result<riot::RMat, String> {
    s.matrix_from_fn(rows, cols, MatrixLayout::Square, |i, j| {
        gen::unit(1, stream, (i * cols + j) as u64) - 0.5
    })
    .map_err(|e| e.to_string())
}

/// A ceiling is the best the layer did: the highest of `REPS` rates, each
/// in a fresh session (a repeated expression would be served from the
/// hash-consed cache).
fn best_rate(mut once: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let rates: Result<Vec<f64>, String> = (0..REPS).map(|_| once()).collect();
    Ok(rates?.into_iter().fold(0.0, f64::max))
}

/// 256 x 256 GEMM, three operands of 0.5 MiB in a 4 MiB pool.
fn matmul_gflops() -> Result<f64, String> {
    best_rate(|| {
        let s = session();
        let (a, b) = (dense(&s, 256, 256, 1)?, dense(&s, 256, 256, 2)?);
        let (out, profile) = s.profile(|| a.matmul(&b).collect());
        out.map_err(|e| e.to_string())?;
        let (ns, flops) = span_totals(&profile, "matmul");
        Ok(flops as f64 / ns.max(1) as f64)
    })
}

/// Tiled Cholesky of a 256 x 256 Gram matrix.
fn factor_gflops() -> Result<f64, String> {
    best_rate(|| {
        let s = session();
        let a = dense(&s, 512, 256, 3)?;
        let gram = a.t().matmul(&a);
        let l = gram.chol().map_err(|e| e.to_string())?;
        let (out, profile) = s.profile(|| l.collect());
        out.map_err(|e| e.to_string())?;
        let (ns, flops) = span_totals(&profile, "chol");
        Ok(flops as f64 / ns.max(1) as f64)
    })
}

/// A three-operator elementwise pipeline drained into a sum over 1 MiB.
fn pipeline_gb_per_s() -> Result<f64, String> {
    const LEN: usize = 1 << 17;
    best_rate(|| {
        let s = session();
        let x = s
            .vector_from_fn(LEN, |i| gen::unit(1, 4, i as u64))
            .map_err(|e| e.to_string())?;
        let (out, profile) = s.profile(|| (&x * 2.0 + 1.0).sqrt().sum());
        out.map_err(|e| e.to_string())?;
        let (ns, _) = span_totals(&profile, "aggregate");
        Ok((LEN * 8) as f64 / ns.max(1) as f64)
    })
}

/// SpMV over a banded 2048 x 2048 matrix with 4 entries per row.
fn sparse_mnnz_per_s() -> Result<f64, String> {
    const N: usize = 2048;
    let trips: Vec<(usize, usize, f64)> = (0..N)
        .flat_map(|r| (0..4).map(move |k| (r, (r + 5 * k) % N, 1.0 + k as f64)))
        .collect();
    best_rate(|| {
        let s = session();
        let a = s.sparse_matrix(N, N, &trips).map_err(|e| e.to_string())?;
        let v = dense(&s, N, 1, 5)?;
        let (out, profile) = s.profile(|| a.matmul(&v).collect());
        out.map_err(|e| e.to_string())?;
        let ns: u64 = ["spmdm", "spmm", "dmspm"]
            .iter()
            .map(|name| span_totals(&profile, name).0)
            .sum();
        Ok(trips.len() as f64 * 1e3 / ns.max(1) as f64)
    })
}

/// Reading a pool-resident 256 x 256 matrix back through the tile
/// accessors (`RMat::collect` on a stored source).
fn tile_read_ns_per_elem() -> Result<f64, String> {
    let s = session();
    let m = dense(&s, 256, 256, 6)?;
    m.collect().map_err(|e| e.to_string())?;
    let elems_per_ns = best_rate(|| {
        let t0 = Instant::now();
        let (_, _, data) = m.collect().map_err(|e| e.to_string())?;
        let ns = t0.elapsed().as_nanos() as f64;
        Ok(black_box(data).len() as f64 / ns)
    })?;
    Ok(1.0 / elems_per_ns)
}

/// `BufferPool::pin` on a resident block, and on a block that is never
/// resident (64 blocks cycled through 8 frames; the file is in the page
/// cache, so this is the pool's miss path, not a disk).
fn pin_costs(dir: &Path) -> Result<(f64, f64), String> {
    const BLOCKS: u64 = 64;
    let file = TempFile::new(dir, "probe-pin");
    let opts = StoreOpts::plain(8);
    let store = Store::open(file.path(), opts, Catalog::Fresh, &Instruments::new())?;
    let pool = store.ctx.pool();
    let first = pool.allocate_blocks(BLOCKS).map_err(|e| e.to_string())?;
    for i in 0..BLOCKS {
        pool.write_new(first.offset(i), |page| page[0] = i as u8)
            .map_err(|e| e.to_string())?;
    }
    pool.flush_all().map_err(|e| e.to_string())?;

    let pin = |i: u64| -> Result<(), String> {
        let frame = pool.pin(first.offset(i)).map_err(|e| e.to_string())?;
        black_box(frame.data()[0]);
        Ok(())
    };
    pin(0)?;
    const HITS: u64 = 1_000_000;
    let t0 = Instant::now();
    for _ in 0..HITS {
        pin(0)?;
    }
    let hit_ns = t0.elapsed().as_nanos() as f64 / HITS as f64;
    const ROUNDS: u64 = 200;
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        for i in 0..BLOCKS {
            pin(i)?;
        }
    }
    let miss_us = t0.elapsed().as_nanos() as f64 / 1e3 / (ROUNDS * BLOCKS) as f64;
    Ok((hit_ns, miss_us))
}

/// Run every ceiling probe.
pub fn ceilings(dir: &Path) -> Result<Sample, String> {
    let (pin_hit_ns, pin_miss_us) = pin_costs(dir)?;
    Ok(Sample::from([
        ("core.exec.matmul.incore_gflops", matmul_gflops()?),
        ("core.exec.factor.incore_gflops", factor_gflops()?),
        ("core.exec.pipeline.incore_gb_per_s", pipeline_gb_per_s()?),
        ("core.exec.sparse.incore_mnnz_per_s", sparse_mnnz_per_s()?),
        ("array.tile_read_ns_per_elem", tile_read_ns_per_elem()?),
        ("storage.pool.pin_hit_ns", pin_hit_ns),
        ("storage.pool.pin_miss_us", pin_miss_us),
    ]))
}
