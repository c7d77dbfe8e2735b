//! The chunked Volcano pipeline.
//!
//! Every operator implements [`Pipe`]: `next_into` fills a caller-supplied
//! buffer with the next chunk of up to `chunk` elements and returns the
//! count (0 = end of stream). Chains of elementwise operators therefore
//! stream with O(chunk) memory and zero intermediate materialization —
//! the property the paper credits for RIOT-DB's wins over both plain R
//! (no in-memory temporaries) and the strawman (no on-disk temporaries).
//!
//! [`GatherPipe`] is the executor's index-nested-loop join: it pulls index
//! chunks and probes the data side element by element, which after the
//! optimizer's pushdown is how `z <- d[s]; print(z)` touches only ~100
//! elements of `x` and `y` instead of computing all of `d`.
//!
//! ## Parallel draining
//!
//! Pipes are `Send`, and every built-in pipe supports
//! [`Pipe::restrict`]: narrowing the stream to a contiguous span of its
//! output. [`drain_partitioned`] runs one restricted pipe per span on a
//! scoped worker pool (the same atomic work-queue schedule the parallel
//! matmul kernels use), writing each span straight into its slice of the
//! output — elementwise results are bit-identical to a sequential drain
//! because every element is computed by exactly one worker, in one pass.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use riot_array::{DenseVector, StorageCtx, VectorWriter};

use super::{run_parallel, ExecError, ExecResult};
use crate::expr::{AggOp, BinOp, ExprError, UnOp};

/// Default chunk size in elements: one block's worth of `f64`s.
pub const DEFAULT_CHUNK: usize = 1024;

/// The 0-based position of the 1-based subscript `raw` in a vector of
/// `len` elements — the one bounds check behind every `x[i]`.
pub(crate) fn position(raw: f64, len: usize) -> ExecResult<usize> {
    let index = raw as i64;
    if index < 1 || index as usize > len {
        return Err(ExecError::Expr(ExprError::IndexOutOfBounds { index, len }));
    }
    Ok(index as usize - 1)
}

/// A pull-based chunk producer. Pipes are `Send` so restricted partitions
/// can drain on worker threads.
pub trait Pipe: Send {
    /// Fill `out` (cleared first) with the next chunk; returns the number
    /// of elements produced, 0 at end of stream.
    fn next_into(&mut self, out: &mut Vec<f64>) -> ExecResult<usize>;

    /// Total number of elements this pipe will produce.
    fn total_len(&self) -> usize;

    /// Narrow the pipe to produce only elements `[start, start + len)` of
    /// its stream. Must be called before the first `next_into`; afterwards
    /// `total_len` reports `len`. Returns `false` when the pipe (or a
    /// child) cannot be restricted — the caller must then discard it and
    /// fall back to a sequential drain (a partially restricted tree is
    /// unusable).
    fn restrict(&mut self, _start: usize, _len: usize) -> bool {
        false
    }
}

/// A pipe adapter that places a governance checkpoint before every chunk
/// it pulls, so cancellation, deadlines, and I/O budgets are observed at
/// chunk granularity on any drain path (sequential, partitioned, or
/// aggregating) without threading the governor through every drain
/// signature.
pub struct GovernedPipe {
    inner: Box<dyn Pipe>,
    gov: Arc<riot_storage::QueryGovernor>,
    at: &'static str,
}

impl Pipe for GovernedPipe {
    fn next_into(&mut self, out: &mut Vec<f64>) -> ExecResult<usize> {
        self.gov.checkpoint(self.at)?;
        let n = self.inner.next_into(out)?;
        // One flop per element produced is a floor, not an exact count:
        // the wrapped tree may apply several operators per element. The
        // floor is enough for flop budgets to bind on drain-only queries.
        self.gov.add_flops(n as u64);
        Ok(n)
    }

    fn total_len(&self) -> usize {
        self.inner.total_len()
    }

    fn restrict(&mut self, start: usize, len: usize) -> bool {
        self.inner.restrict(start, len)
    }
}

/// Wrap `pipe` with a per-chunk governance checkpoint labelled `at`.
/// When the context's governor is disengaged the pipe is returned
/// unchanged, so ungoverned queries pay nothing — not even the extra
/// virtual dispatch.
pub fn governed(pipe: Box<dyn Pipe>, ctx: &Arc<StorageCtx>, at: &'static str) -> Box<dyn Pipe> {
    let gov = ctx.governor();
    if !gov.engaged() {
        return pipe;
    }
    Box::new(GovernedPipe {
        inner: pipe,
        gov: Arc::clone(gov),
        at,
    })
}

/// What a [`Scan`] reads its elements from.
enum Source {
    /// A stored vector, read block-aligned through the pool.
    Stored(DenseVector),
    /// An in-memory literal.
    Mem(Arc<Vec<f64>>),
    /// The sequence `start, start+1, ...` (R's `a:b`), computed on the fly.
    Range(i64),
    /// A scalar, broadcast.
    Const(f64),
    /// A short in-memory vector recycled (cycled) — R's recycling rule
    /// for mismatched operand lengths.
    Cycle(Vec<f64>),
}

/// The leaf of every pipeline: a cursor over elements `[pos, end)` of a
/// stored vector, a literal, a sequence, a broadcast scalar or a recycled
/// short vector, produced `chunk` at a time.
pub struct Scan {
    source: Source,
    pos: usize,
    end: usize,
    chunk: usize,
}

impl Scan {
    fn new(source: Source, len: usize, chunk: usize) -> Self {
        Scan {
            source,
            pos: 0,
            end: len,
            chunk,
        }
    }

    /// Scan the stored vector `vec`.
    pub fn stored(vec: DenseVector, chunk: usize) -> Self {
        let len = vec.len();
        Scan::new(Source::Stored(vec), len, chunk)
    }

    /// Stream the in-memory literal `data`.
    pub fn literal(data: Arc<Vec<f64>>, chunk: usize) -> Self {
        let len = data.len();
        Scan::new(Source::Mem(data), len, chunk)
    }

    /// Stream the sequence `start .. start+len-1`.
    pub fn range(start: i64, len: usize, chunk: usize) -> Self {
        Scan::new(Source::Range(start), len, chunk)
    }

    /// Stream `value` repeated `len` times.
    pub fn constant(value: f64, len: usize, chunk: usize) -> Self {
        Scan::new(Source::Const(value), len, chunk)
    }

    /// Stream `data` cyclically until `out_len` elements were produced.
    pub fn cycle(data: Vec<f64>, out_len: usize, chunk: usize) -> Self {
        assert!(!data.is_empty(), "cannot recycle an empty vector");
        Scan::new(Source::Cycle(data), out_len, chunk)
    }
}

impl Pipe for Scan {
    fn next_into(&mut self, out: &mut Vec<f64>) -> ExecResult<usize> {
        out.clear();
        let (pos, take) = (self.pos, (self.end - self.pos).min(self.chunk));
        let span = pos..pos + take;
        match &self.source {
            Source::Stored(_) if take == 0 => {}
            Source::Stored(vec) => {
                // Declare the next chunk's span before blocking on this
                // one, so its blocks load while the pipeline processes
                // this chunk.
                let ahead = (self.end - span.end).min(self.chunk);
                if ahead > 0 {
                    vec.prefetch_range(span.end, ahead);
                }
                out.resize(take, 0.0);
                vec.read_range(pos, out)?;
            }
            Source::Mem(data) => out.extend_from_slice(&data[span]),
            Source::Range(start) => out.extend(span.map(|i| (start + i as i64) as f64)),
            Source::Const(value) => out.resize(take, *value),
            Source::Cycle(data) => out.extend(span.map(|i| data[i % data.len()])),
        }
        self.pos += take;
        Ok(take)
    }

    fn total_len(&self) -> usize {
        self.end - self.pos
    }

    fn restrict(&mut self, start: usize, len: usize) -> bool {
        debug_assert!(start + len <= self.end, "restrict out of range");
        self.pos = start;
        self.end = start + len;
        true
    }
}

/// Unary elementwise operator over a child pipe.
pub struct MapPipe {
    op: UnOp,
    input: Box<dyn Pipe>,
    ops: Arc<AtomicU64>,
}

impl MapPipe {
    /// Apply `op` to each element of `input`; `ops` counts scalar work.
    pub fn new(op: UnOp, input: Box<dyn Pipe>, ops: Arc<AtomicU64>) -> Self {
        MapPipe { op, input, ops }
    }
}

impl Pipe for MapPipe {
    fn next_into(&mut self, out: &mut Vec<f64>) -> ExecResult<usize> {
        let n = self.input.next_into(out)?;
        for v in out.iter_mut() {
            *v = self.op.apply(*v);
        }
        self.ops.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn total_len(&self) -> usize {
        self.input.total_len()
    }

    fn restrict(&mut self, start: usize, len: usize) -> bool {
        self.input.restrict(start, len)
    }
}

/// Binary elementwise operator; children must produce equal lengths (the
/// compiler wraps scalars in [`Scan::constant`] and recycled operands in
/// [`Scan::cycle`] so this always holds).
pub struct ZipPipe {
    op: BinOp,
    lhs: Box<dyn Pipe>,
    rhs: Box<dyn Pipe>,
    rbuf: Vec<f64>,
    ops: Arc<AtomicU64>,
}

impl ZipPipe {
    /// Combine two equal-length pipes elementwise with `op`.
    pub fn new(op: BinOp, lhs: Box<dyn Pipe>, rhs: Box<dyn Pipe>, ops: Arc<AtomicU64>) -> Self {
        debug_assert_eq!(lhs.total_len(), rhs.total_len(), "zip operand lengths");
        ZipPipe {
            op,
            lhs,
            rhs,
            rbuf: Vec::new(),
            ops,
        }
    }
}

impl Pipe for ZipPipe {
    fn next_into(&mut self, out: &mut Vec<f64>) -> ExecResult<usize> {
        let n = self.lhs.next_into(out)?;
        let m = self.rhs.next_into(&mut self.rbuf)?;
        debug_assert_eq!(n, m, "zip chunk lengths diverged");
        for (a, b) in out.iter_mut().zip(self.rbuf.iter()) {
            *a = self.op.apply(*a, *b);
        }
        self.ops.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn total_len(&self) -> usize {
        self.lhs.total_len()
    }

    fn restrict(&mut self, start: usize, len: usize) -> bool {
        self.lhs.restrict(start, len) && self.rhs.restrict(start, len)
    }
}

/// Elementwise conditional over three equal-length pipes.
pub struct IfElsePipe {
    cond: Box<dyn Pipe>,
    yes: Box<dyn Pipe>,
    no: Box<dyn Pipe>,
    ybuf: Vec<f64>,
    nbuf: Vec<f64>,
    ops: Arc<AtomicU64>,
}

impl IfElsePipe {
    /// `cond[i] != 0 ? yes[i] : no[i]` streamed chunkwise.
    pub fn new(
        cond: Box<dyn Pipe>,
        yes: Box<dyn Pipe>,
        no: Box<dyn Pipe>,
        ops: Arc<AtomicU64>,
    ) -> Self {
        IfElsePipe {
            cond,
            yes,
            no,
            ybuf: Vec::new(),
            nbuf: Vec::new(),
            ops,
        }
    }
}

impl Pipe for IfElsePipe {
    fn next_into(&mut self, out: &mut Vec<f64>) -> ExecResult<usize> {
        let n = self.cond.next_into(out)?;
        let ny = self.yes.next_into(&mut self.ybuf)?;
        let nn = self.no.next_into(&mut self.nbuf)?;
        debug_assert!(n == ny && n == nn, "ifelse chunk lengths diverged");
        for i in 0..n {
            out[i] = if out[i] != 0.0 {
                self.ybuf[i]
            } else {
                self.nbuf[i]
            };
        }
        self.ops.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn total_len(&self) -> usize {
        self.cond.total_len()
    }

    fn restrict(&mut self, start: usize, len: usize) -> bool {
        self.cond.restrict(start, len)
            && self.yes.restrict(start, len)
            && self.no.restrict(start, len)
    }
}

/// Random-access side of a gather: anything that can be probed by 1-based
/// index. Probing a stored vector goes through the buffer pool, so each
/// probe is at most one block read — the index-nested-loop plan of §4.1.
pub enum Probe {
    /// A stored vector.
    Stored(DenseVector),
    /// An in-memory vector.
    Mem(Arc<Vec<f64>>),
    /// The sequence `start..`.
    Range {
        /// First value of the sequence.
        start: i64,
        /// Sequence length.
        len: usize,
    },
}

impl Probe {
    /// Length of the probed vector.
    pub fn len(&self) -> usize {
        match self {
            Probe::Stored(v) => v.len(),
            Probe::Mem(v) => v.len(),
            Probe::Range { len, .. } => *len,
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch 0-based element `i`.
    pub fn get(&self, i: usize) -> ExecResult<f64> {
        match self {
            Probe::Stored(v) => Ok(v.get(i)?),
            Probe::Mem(v) => Ok(v[i]),
            Probe::Range { start, .. } => Ok((*start + i as i64) as f64),
        }
    }
}

/// Gather: pulls 1-based indices from `index` and probes `data`.
pub struct GatherPipe {
    index: Box<dyn Pipe>,
    data: Probe,
    ops: Arc<AtomicU64>,
}

impl GatherPipe {
    /// `data[index]` with 1-based indices.
    pub fn new(index: Box<dyn Pipe>, data: Probe, ops: Arc<AtomicU64>) -> Self {
        GatherPipe { index, data, ops }
    }
}

impl Pipe for GatherPipe {
    fn next_into(&mut self, out: &mut Vec<f64>) -> ExecResult<usize> {
        let n = self.index.next_into(out)?;
        for v in out.iter_mut() {
            *v = self.data.get(position(*v, self.data.len())?)?;
        }
        self.ops.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn total_len(&self) -> usize {
        self.index.total_len()
    }

    fn restrict(&mut self, start: usize, len: usize) -> bool {
        // The probe side is random-access; narrowing the index stream
        // narrows the gather.
        self.index.restrict(start, len)
    }
}

/// The one drain loop: `pull` chunks until the stream ends, handing each
/// to `sink`.
pub(crate) fn for_each_chunk(
    mut pull: impl FnMut(&mut Vec<f64>) -> ExecResult<usize>,
    mut sink: impl FnMut(&[f64]) -> ExecResult<()>,
) -> ExecResult<()> {
    let mut buf = Vec::new();
    while pull(&mut buf)? > 0 {
        sink(&buf)?;
    }
    Ok(())
}

/// Drain a pipe into a freshly stored vector (sequential writes).
pub fn materialize(
    mut pipe: Box<dyn Pipe>,
    ctx: &Arc<StorageCtx>,
    name: Option<&str>,
) -> ExecResult<DenseVector> {
    let mut writer = VectorWriter::new(ctx, pipe.total_len(), name)?;
    for_each_chunk(
        |buf| {
            ctx.governor().checkpoint("pipeline.materialize.chunk")?;
            pipe.next_into(buf)
        },
        |chunk| Ok(writer.push_chunk(chunk)?),
    )?;
    Ok(writer.finish()?)
}

/// Drain a pipe into memory.
pub fn drain_to_vec(mut pipe: Box<dyn Pipe>) -> ExecResult<Vec<f64>> {
    let mut out = Vec::with_capacity(pipe.total_len());
    for_each_chunk(
        |buf| pipe.next_into(buf),
        |chunk| {
            out.extend_from_slice(chunk);
            Ok(())
        },
    )?;
    Ok(out)
}

/// Drain one pipe fully into `out` (which must have the pipe's exact
/// restricted length).
fn drain_into(pipe: &mut dyn Pipe, out: &mut [f64]) -> ExecResult<()> {
    let mut at = 0;
    for_each_chunk(
        |buf| pipe.next_into(buf),
        |chunk| {
            out[at..at + chunk.len()].copy_from_slice(chunk);
            at += chunk.len();
            Ok(())
        },
    )?;
    debug_assert_eq!(at, out.len(), "partition produced a short stream");
    Ok(())
}

/// One partitioned-drain work item: a restricted pipe plus the output
/// slice its span lands in.
pub type Partition<'out> = (Box<dyn Pipe>, &'out mut [f64]);

/// Drain restricted pipes covering disjoint spans of one logical stream
/// into the matching slices of the output, over `threads` workers of the
/// kernels' shared work queue (`run_parallel`: inline and in order with
/// one thread; the first failure abandons the remaining parts).
pub fn drain_partitioned(parts: Vec<Partition<'_>>, threads: usize) -> ExecResult<()> {
    let threads = threads.max(1).min(parts.len());
    let items: Vec<Mutex<Option<Partition<'_>>>> =
        parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    run_parallel(
        threads,
        &items,
        || (),
        |item, _| {
            let (mut pipe, slice) = item.lock().unwrap().take().expect("parts are visited once");
            drain_into(pipe.as_mut(), slice)?;
            Ok(0)
        },
    )?;
    Ok(())
}

/// Fold one pipe's whole stream with `op` from `op.init()` (no `Mean`
/// division — callers divide by the count): the per-partition leaf of the
/// fixed partition-tree aggregation.
fn fold_pipe(pipe: &mut dyn Pipe, op: AggOp) -> ExecResult<f64> {
    let mut acc = op.init();
    for_each_chunk(
        |buf| pipe.next_into(buf),
        |chunk| {
            acc = chunk.iter().fold(acc, |a, &v| op.fold(a, v));
            Ok(())
        },
    )?;
    Ok(acc)
}

/// Fold restricted pipes covering disjoint spans of one logical stream,
/// each sequentially from `op.init()`, over `threads` `run_parallel`
/// workers; partials return **in partition order**. Every partial is one
/// partition's ordered fold, so the result vector is bitwise independent
/// of the worker schedule — the property the fixed partition-tree
/// aggregation is built on.
pub fn fold_partitioned(
    pipes: Vec<Box<dyn Pipe>>,
    op: AggOp,
    threads: usize,
) -> ExecResult<Vec<f64>> {
    let threads = threads.max(1).min(pipes.len());
    let items: Vec<_> = pipes
        .into_iter()
        .map(|p| (Mutex::new(Some(p)), Mutex::new(op.init())))
        .collect();
    run_parallel(
        threads,
        &items,
        || (),
        |(pipe, partial), _| {
            let mut pipe = pipe.lock().unwrap().take().expect("parts are visited once");
            *partial.lock().unwrap() = fold_pipe(pipe.as_mut(), op)?;
            Ok(0)
        },
    )?;
    let partials = items.into_iter().map(|(_, p)| p.into_inner().unwrap());
    Ok(partials.collect())
}

/// Drain a pipe through an aggregate, producing a scalar.
pub fn drain_agg(mut pipe: Box<dyn Pipe>, op: AggOp) -> ExecResult<f64> {
    let count = pipe.total_len();
    let mut acc = fold_pipe(pipe.as_mut(), op)?;
    if op == AggOp::Mean && count > 0 {
        acc /= count as f64;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops() -> Arc<AtomicU64> {
        Arc::new(AtomicU64::new(0))
    }

    fn ctx() -> Arc<StorageCtx> {
        StorageCtx::new_mem(64, 4)
    }

    #[test]
    fn range_scan_produces_sequence() {
        let p = Box::new(Scan::range(5, 4, 3));
        assert_eq!(drain_to_vec(p).unwrap(), vec![5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn const_and_cycle_scans() {
        let p = Box::new(Scan::constant(2.5, 5, 2));
        assert_eq!(drain_to_vec(p).unwrap(), vec![2.5; 5]);
        let p = Box::new(Scan::cycle(vec![1.0, 2.0], 5, 3));
        assert_eq!(drain_to_vec(p).unwrap(), vec![1.0, 2.0, 1.0, 2.0, 1.0]);
    }

    #[test]
    fn map_zip_pipeline_single_pass() {
        // sqrt((x-1)^2) over a stored vector, streamed.
        let c = ctx();
        let data: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let x = DenseVector::from_slice(&c, &data, None).unwrap();
        let counter = ops();
        let scan = Box::new(Scan::stored(x, 7));
        let one = Box::new(Scan::constant(1.0, 20, 7));
        let sub = Box::new(ZipPipe::new(BinOp::Sub, scan, one, counter.clone()));
        let sq = Box::new(MapPipe::new(UnOp::Square, sub, counter.clone()));
        let sqrt = Box::new(MapPipe::new(UnOp::Sqrt, sq, counter.clone()));
        let got = drain_to_vec(sqrt).unwrap();
        let want: Vec<f64> = (0..20).map(|i| (i as f64 - 1.0).abs()).collect();
        assert_eq!(got, want);
        assert_eq!(counter.load(Ordering::Relaxed), 60, "3 ops x 20 elements");
    }

    #[test]
    fn ifelse_pipe_selects() {
        let counter = ops();
        let cond = Box::new(Scan::literal(Arc::new(vec![1.0, 0.0, 1.0]), 2));
        let yes = Box::new(Scan::constant(9.0, 3, 2));
        let no = Box::new(Scan::literal(Arc::new(vec![4.0, 5.0, 6.0]), 2));
        let p = Box::new(IfElsePipe::new(cond, yes, no, counter));
        assert_eq!(drain_to_vec(p).unwrap(), vec![9.0, 5.0, 9.0]);
    }

    #[test]
    fn gather_probes_random_blocks_only() {
        let c = ctx();
        let data: Vec<f64> = (0..80).map(|i| i as f64 * 10.0).collect();
        let x = DenseVector::from_slice(&c, &data, None).unwrap();
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let before = c.io_snapshot();
        let counter = ops();
        let idx = Box::new(Scan::literal(Arc::new(vec![80.0, 1.0, 41.0]), 2));
        let p = Box::new(GatherPipe::new(idx, Probe::Stored(x), counter));
        assert_eq!(drain_to_vec(p).unwrap(), vec![790.0, 0.0, 400.0]);
        let delta = c.io_snapshot() - before;
        // 3 probes, at most 3 block reads, not the 10 a full scan needs.
        assert!(delta.reads <= 3, "{delta}");
    }

    #[test]
    fn gather_bounds_error() {
        let counter = ops();
        let idx = Box::new(Scan::literal(Arc::new(vec![4.0]), 2));
        let p = GatherPipe::new(idx, Probe::Mem(Arc::new(vec![1.0, 2.0])), counter);
        let mut p: Box<dyn Pipe> = Box::new(p);
        let mut buf = Vec::new();
        assert!(matches!(
            p.next_into(&mut buf),
            Err(ExecError::Expr(ExprError::IndexOutOfBounds {
                index: 4,
                len: 2
            }))
        ));
    }

    #[test]
    fn gather_probe_range() {
        let counter = ops();
        let idx = Box::new(Scan::literal(Arc::new(vec![3.0, 1.0]), 4));
        let p = Box::new(GatherPipe::new(
            idx,
            Probe::Range {
                start: 100,
                len: 10,
            },
            counter,
        ));
        assert_eq!(drain_to_vec(p).unwrap(), vec![102.0, 100.0]);
    }

    #[test]
    fn materialize_streams_to_storage() {
        let c = ctx();
        let counter = ops();
        let r = Box::new(Scan::range(1, 30, 8));
        let sq = Box::new(MapPipe::new(UnOp::Square, r, counter));
        let v = materialize(sq, &c, Some("squares")).unwrap();
        assert_eq!(v.len(), 30);
        assert_eq!(v.get(4).unwrap(), 25.0);
        let want: Vec<f64> = (1..=30).map(|i| (i * i) as f64).collect();
        assert_eq!(v.to_vec().unwrap(), want);
    }

    #[test]
    fn aggregates_over_pipe() {
        let mk = || Box::new(Scan::range(1, 10, 3)) as Box<dyn Pipe>;
        assert_eq!(drain_agg(mk(), AggOp::Sum).unwrap(), 55.0);
        assert_eq!(drain_agg(mk(), AggOp::Mean).unwrap(), 5.5);
        assert_eq!(drain_agg(mk(), AggOp::Min).unwrap(), 1.0);
        assert_eq!(drain_agg(mk(), AggOp::Max).unwrap(), 10.0);
    }

    #[test]
    fn restrict_narrows_every_scan() {
        let c = ctx();
        let data: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let stored = DenseVector::from_slice(&c, &data, None).unwrap();
        let mk: Vec<(Box<dyn Pipe>, Vec<f64>)> = vec![
            (Box::new(Scan::stored(stored.clone(), 7)), data.clone()),
            (
                Box::new(Scan::literal(Arc::new(data.clone()), 7)),
                data.clone(),
            ),
            (Box::new(Scan::range(0, 40, 7)), data.clone()),
            (Box::new(Scan::constant(3.0, 40, 7)), vec![3.0; 40]),
            (
                Box::new(Scan::cycle(vec![1.0, 2.0, 3.0], 40, 7)),
                (0..40).map(|i| [1.0, 2.0, 3.0][i % 3]).collect(),
            ),
        ];
        for (mut pipe, full) in mk {
            assert!(pipe.restrict(11, 13));
            assert_eq!(pipe.total_len(), 13);
            let got = drain_to_vec(pipe).unwrap();
            assert_eq!(got, full[11..24].to_vec());
        }
    }

    #[test]
    fn restrict_composes_through_operators() {
        let c = ctx();
        let data: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let x = DenseVector::from_slice(&c, &data, None).unwrap();
        let counter = ops();
        let build = || -> Box<dyn Pipe> {
            let scan = Box::new(Scan::stored(x.clone(), 8));
            let two = Box::new(Scan::constant(2.0, 30, 8));
            let mul = Box::new(ZipPipe::new(BinOp::Mul, scan, two, counter.clone()));
            Box::new(MapPipe::new(UnOp::Neg, mul, counter.clone()))
        };
        let full = drain_to_vec(build()).unwrap();
        let mut restricted = build();
        assert!(restricted.restrict(5, 12));
        assert_eq!(drain_to_vec(restricted).unwrap(), full[5..17].to_vec());
    }

    #[test]
    fn drain_partitioned_equals_sequential() {
        let c = ctx();
        let n = 100;
        let data: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x = DenseVector::from_slice(&c, &data, None).unwrap();
        let counter = ops();
        let build = || -> Box<dyn Pipe> {
            let scan = Box::new(Scan::stored(x.clone(), 8));
            Box::new(MapPipe::new(UnOp::Square, scan, counter.clone()))
        };
        let want = drain_to_vec(build()).unwrap();

        let spans = [(0usize, 32usize), (32, 32), (64, 32), (96, 4)];
        let mut out = vec![0.0; n];
        {
            let mut slices: Vec<&mut [f64]> = Vec::new();
            let mut rest: &mut [f64] = &mut out;
            for &(_, take) in &spans {
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(take);
                slices.push(head);
                rest = tail;
            }
            let mut parts = Vec::new();
            for (&(s, take), slice) in spans.iter().zip(slices) {
                let mut pipe = build();
                assert!(pipe.restrict(s, take));
                parts.push((pipe, slice));
            }
            drain_partitioned(parts, 3).unwrap();
        }
        assert_eq!(out, want);
        // Every element computed exactly once across both drains.
        assert_eq!(counter.load(Ordering::Relaxed), 2 * n as u64);
    }

    #[test]
    fn pipeline_memory_is_chunk_bounded() {
        // A long pipeline over a tiny pool must still work: nothing is
        // materialized, so the pool never needs more than a block or two.
        let c = StorageCtx::new_mem(64, 2);
        let n = 400;
        let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let x = DenseVector::from_slice(&c, &data, None).unwrap();
        let y = DenseVector::from_slice(&c, &data, None).unwrap();
        let counter = ops();
        let sx = Box::new(Scan::stored(x, 8));
        let sy = Box::new(Scan::stored(y, 8));
        let sum = Box::new(ZipPipe::new(BinOp::Add, sx, sy, counter.clone()));
        let total = drain_agg(sum, AggOp::Sum).unwrap();
        assert_eq!(total, (0..n).map(|i| 2.0 * i as f64).sum::<f64>());
    }
}
