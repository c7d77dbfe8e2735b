//! The chunked pipeline: a register tape over pull-based leaves.
//!
//! Everything that streams implements [`Pipe`]: `next_into` fills a
//! caller-supplied buffer with the next chunk of up to `chunk` elements
//! and returns the count (0 = end of stream). Elementwise expressions
//! stream with O(chunk) memory and zero intermediate materialization —
//! the property the paper credits for RIOT-DB's wins over both plain R
//! (no in-memory temporaries) and the strawman (no on-disk temporaries).
//!
//! A forcing point compiles its DAG into one [`Tape`]: a flat list of
//! instructions over chunk-sized registers, one instruction per *distinct*
//! DAG node. Per chunk, every leaf ([`Scan`], [`GatherPipe`]) is pulled
//! once into its register, and every elementwise operator runs once as a
//! slice kernel ([`UnOp::apply_slice`], [`BinOp::apply_slice`],
//! [`select_slice`], each compiled per instruction set and run at the
//! widest the CPU has) — so a subexpression referenced k times is
//! computed once, a source is pinned once, a scalar operand never becomes
//! a buffer, and operator dispatch happens per chunk, not per element.
//!
//! A tape ends in a root register it streams out, or in **k fold sinks**
//! ([`TapeBuilder::fold`]): k aggregates over one pass, each a fold
//! instruction reading whatever register holds its input, into its own
//! [`Fold`] ([`Pipe::folds`]) — lane state in the one fold shape every
//! engine shares, positioned by the stream index. The sinks share every
//! register below them, so a batch of aggregates over one scan computes a
//! shared subexpression once per chunk and reads each source once.
//!
//! [`GatherPipe`] is the executor's index-nested-loop join: it pulls index
//! chunks and probes the data side element by element, which after the
//! optimizer's pushdown is how `z <- d[s]; print(z)` touches only ~100
//! elements of `x` and `y` instead of computing all of `d`.
//!
//! ## Parallel draining
//!
//! Pipes are `Send`, and every pipe supports [`Pipe::restrict`]:
//! narrowing the stream to a contiguous span of its output.
//! [`drain_partitioned`] runs one restricted pipe per span on a
//! scoped worker pool (the same atomic work-queue schedule the parallel
//! matmul kernels use), writing each span straight into its slice of the
//! output — elementwise results are bit-identical to a sequential drain
//! because every element is computed by exactly one worker, in one pass.

use std::sync::{Arc, Mutex};

use riot_array::{DenseVector, StorageCtx, VectorWriter};
use riot_storage::QueryGovernor;

use super::{run_parallel, ExecError, ExecResult};
use crate::expr::{select_slice, AggOp, BinOp, ExprError, Fold, Src, UnOp};

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
    /// Replace the contents of `out` with the next chunk; returns the
    /// number of elements produced, 0 at end of stream.
    fn next_into(&mut self, out: &mut Vec<f64>) -> ExecResult<usize>;

    /// Total number of elements this pipe will produce.
    fn total_len(&self) -> usize;

    /// Narrow the pipe to produce only elements `[start, start + len)` of
    /// its stream; afterwards `total_len` reports `len`. Called before the
    /// first `next_into`, or between spans: once the current span is
    /// drained, the pipe may be pointed at another.
    fn restrict(&mut self, start: usize, len: usize);

    /// This pipe's fold sinks, in sink order (none for a pipe that only
    /// streams). They hold the fold of everything drained since the last
    /// [`Pipe::restrict`], which restarts each at the span's first element.
    fn folds(&self) -> &[Fold] {
        &[]
    }
}

/// A pipe adapter that places a governance checkpoint before every chunk
/// it pulls — and before the pull that finds the stream ended, which sees
/// the last chunk's charge — so cancellation, deadlines, and budgets are
/// observed at chunk granularity on any drain path (sequential,
/// partitioned, or aggregating) without threading the governor through
/// every drain signature.
pub struct GovernedPipe {
    inner: Box<dyn Pipe>,
    gov: Arc<QueryGovernor>,
    at: &'static str,
}

impl Pipe for GovernedPipe {
    fn next_into(&mut self, out: &mut Vec<f64>) -> ExecResult<usize> {
        self.gov.checkpoint(self.at)?;
        self.inner.next_into(out)
    }

    fn total_len(&self) -> usize {
        self.inner.total_len()
    }

    fn restrict(&mut self, start: usize, len: usize) {
        self.inner.restrict(start, len)
    }

    fn folds(&self) -> &[Fold] {
        self.inner.folds()
    }
}

/// Wrap `pipe` with a per-chunk governance checkpoint labelled `at`. When
/// the context's governor is disengaged the pipe is returned unchanged, so
/// ungoverned queries pay nothing — not even the extra virtual dispatch.
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

/// A vector a pipeline reads where it lies: a [`Scan`] streams it in
/// order, a [`GatherPipe`] probes it by index. Reading a stored vector
/// goes through the buffer pool, so each probe is at most one block read —
/// the index-nested-loop plan of §4.1.
pub enum Source {
    /// A stored vector, read block-aligned through the pool.
    Stored(DenseVector),
    /// An in-memory vector.
    Mem(Arc<Vec<f64>>),
    /// The sequence `start, start+1, ...` (R's `a:b`), computed on the fly.
    Range {
        /// First value of the sequence.
        start: i64,
        /// Sequence length.
        len: usize,
    },
}

impl Source {
    /// Length of the vector.
    pub fn len(&self) -> usize {
        match self {
            Source::Stored(v) => v.len(),
            Source::Mem(v) => v.len(),
            Source::Range { len, .. } => *len,
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch 0-based element `i`.
    pub fn get(&self, i: usize) -> ExecResult<f64> {
        match self {
            Source::Stored(v) => Ok(v.get(i)?),
            Source::Mem(v) => Ok(v[i]),
            Source::Range { start, .. } => Ok((*start + i as i64) as f64),
        }
    }
}

/// The leaf of every pipeline: a cursor over elements `[pos, end)` of a
/// [`Source`], produced `chunk` at a time.
pub struct Scan {
    source: Source,
    pos: usize,
    end: usize,
    chunk: usize,
}

impl Scan {
    /// Stream `source` from its first element to its last.
    pub fn new(source: Source, chunk: usize) -> Self {
        let end = source.len();
        Scan {
            source,
            pos: 0,
            end,
            chunk,
        }
    }

    /// Stream `data` cyclically until `out_len` elements were produced —
    /// R's recycling rule for mismatched operand lengths.
    pub fn cycle(data: Vec<f64>, out_len: usize, chunk: usize) -> Self {
        assert!(!data.is_empty(), "cannot recycle an empty vector");
        let end = out_len;
        Scan {
            end,
            ..Scan::new(Source::Mem(Arc::new(data)), chunk)
        }
    }
}

impl Pipe for Scan {
    fn next_into(&mut self, out: &mut Vec<f64>) -> ExecResult<usize> {
        let (pos, take) = (self.pos, (self.end - self.pos).min(self.chunk));
        let span = pos..pos + take;
        // A tape register keeps its length from chunk to chunk, so this
        // sizes the buffer on the first chunk, truncates it on a short
        // last one, and is free in between: every source then writes
        // into an already-sized buffer.
        out.resize(take, 0.0);
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
                vec.read_range(pos, out)?;
            }
            Source::Mem(data) if span.end <= data.len() => out.copy_from_slice(&data[span]),
            Source::Mem(data) => {
                let lanes = out.iter_mut().zip(span);
                lanes.for_each(|(o, i)| *o = data[i % data.len()])
            }
            Source::Range { start, .. } => {
                let lanes = out.iter_mut().zip(span);
                lanes.for_each(|(o, i)| *o = (start + i as i64) as f64)
            }
        }
        self.pos += take;
        Ok(take)
    }

    fn total_len(&self) -> usize {
        self.end - self.pos
    }

    fn restrict(&mut self, start: usize, len: usize) {
        self.pos = start;
        self.end = start + len;
    }
}

/// An operand of a tape instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arg {
    /// The chunk an earlier instruction left in this register.
    Reg(usize),
    /// A scalar, broadcast inside the kernel.
    Const(f64),
}

/// One tape instruction; each fills one register per chunk.
enum Instr {
    /// Pull the next chunk of this leaf.
    Pull(usize),
    /// `op` over a register.
    Map(UnOp, usize),
    /// `op` over `[lhs, rhs]`, at least one of them a register.
    Zip(BinOp, [Arg; 2]),
    /// `cond != 0 ? yes : no` over a register and `[yes, no]`.
    IfElse(usize, [Arg; 2]),
    /// Fold the operand into this sink; fills no register.
    Fold(Arg, usize),
}

impl Instr {
    /// Visit every register this instruction reads.
    fn for_each_read(&mut self, mut f: impl FnMut(&mut usize)) {
        let args: &mut [Arg] = match self {
            Instr::Pull(_) => &mut [],
            Instr::Map(_, reg) => return f(reg),
            Instr::Zip(_, args) => args,
            Instr::Fold(arg, _) => std::slice::from_mut(arg),
            Instr::IfElse(cond, args) => {
                f(cond);
                args
            }
        };
        for arg in args {
            if let Arg::Reg(reg) = arg {
                f(reg);
            }
        }
    }
}

/// Builds a [`Tape`] an instruction at a time. Every instruction gets a
/// virtual register of its own (the caller memoizes the returned [`Arg`]
/// per DAG node, so a shared node is one instruction); [`Self::finish`]
/// maps them onto as few chunk buffers as their lifetimes allow.
/// Operators over scalars alone fold to a scalar on the spot, counted as
/// one operation.
pub struct TapeBuilder {
    steps: Vec<Instr>,
    leaves: Vec<Box<dyn Pipe>>,
    folds: Vec<Fold>,
    len: usize,
    chunk: usize,
    gov: Arc<QueryGovernor>,
}

impl TapeBuilder {
    /// A tape producing `len` elements `chunk` at a time, counting its
    /// scalar work on `gov`'s flop counter. Every leaf pulled from must
    /// stream the same `len` elements in the same `chunk`s.
    pub fn new(len: usize, chunk: usize, gov: Arc<QueryGovernor>) -> Self {
        TapeBuilder {
            steps: Vec::new(),
            leaves: Vec::new(),
            folds: Vec::new(),
            len,
            chunk,
            gov,
        }
    }

    fn push(&mut self, instr: Instr) -> Arg {
        self.steps.push(instr);
        Arg::Reg(self.steps.len() - 1)
    }

    fn folded(&self, value: f64) -> Arg {
        self.gov.add_flops(1);
        Arg::Const(value)
    }

    /// The chunks of `leaf`.
    pub fn pull(&mut self, leaf: Box<dyn Pipe>) -> Arg {
        debug_assert_eq!(leaf.total_len(), self.len, "leaf length");
        self.leaves.push(leaf);
        self.push(Instr::Pull(self.leaves.len() - 1))
    }

    /// `op(a)`, elementwise.
    pub fn map(&mut self, op: UnOp, a: Arg) -> Arg {
        match a {
            Arg::Reg(reg) => self.push(Instr::Map(op, reg)),
            Arg::Const(c) => self.folded(op.apply(c)),
        }
    }

    /// `op(a, b)`, elementwise.
    pub fn zip(&mut self, op: BinOp, a: Arg, b: Arg) -> Arg {
        match (a, b) {
            (Arg::Const(a), Arg::Const(b)) => self.folded(op.apply(a, b)),
            _ => self.push(Instr::Zip(op, [a, b])),
        }
    }

    /// `cond[i] != 0 ? yes[i] : no[i]`; a scalar condition is its arm.
    pub fn if_else(&mut self, cond: Arg, yes: Arg, no: Arg) -> Arg {
        match cond {
            Arg::Reg(cond) => self.push(Instr::IfElse(cond, [yes, no])),
            Arg::Const(c) if c != 0.0 => yes,
            Arg::Const(_) => no,
        }
    }

    /// One more fold sink: `op` over every element of `a`, into a
    /// [`Fold`] of its own ([`Pipe::folds`], in the order of these calls).
    /// Element `i` of the stream folds into lane `i % FOLD_LANES` whatever
    /// the chunk, and a restricted tape's sinks start at the span's first
    /// element, so a partition folded alone has the bits the whole stream
    /// gives it. The instruction sits where it is emitted, so the register
    /// it reads is free again right after it.
    ///
    /// [`FOLD_LANES`]: crate::expr::FOLD_LANES
    pub fn fold(&mut self, op: AggOp, a: Arg) {
        self.steps.push(Instr::Fold(a, self.folds.len()));
        self.folds.push(Fold::new(op, 0));
    }

    /// The tape streaming `root` — or, with `None`, the tape of a batch
    /// of aggregates: every chunk goes into the fold sinks and nothing
    /// streams out. Registers are assigned in one pass from a free list: a
    /// buffer returns to the list at the last instruction that reads it
    /// (never, for the root), and an instruction takes its output buffer
    /// before releasing its inputs, so kernels never alias.
    pub fn finish(mut self, root: impl Into<Option<Arg>>) -> Tape {
        const ROOT: usize = usize::MAX;
        let root = root.into();
        let mut last_read = vec![0; self.steps.len()];
        for (at, instr) in self.steps.iter_mut().enumerate() {
            instr.for_each_read(|reg| last_read[*reg] = at);
        }
        if let Some(Arg::Reg(reg)) = root {
            last_read[reg] = ROOT;
        }
        let (mut buffer_of, mut free, mut buffers) = (Vec::new(), Vec::new(), 0);
        for (at, instr) in self.steps.iter_mut().enumerate() {
            // A fold writes no chunk: its slot names no buffer.
            buffer_of.push(match instr {
                Instr::Fold(..) => ROOT,
                _ => free.pop().unwrap_or_else(|| {
                    buffers += 1;
                    buffers - 1
                }),
            });
            instr.for_each_read(|reg| {
                let buffer = buffer_of[*reg];
                // Release once, even when the instruction reads it twice.
                if last_read[*reg] == at && !free.contains(&buffer) {
                    free.push(buffer);
                }
                *reg = buffer;
            });
        }
        Tape {
            root: root.map(|root| match root {
                Arg::Reg(reg) => Arg::Reg(buffer_of[reg]),
                scalar => scalar,
            }),
            steps: self.steps.into_iter().zip(buffer_of).collect(),
            leaves: self.leaves,
            folds: self.folds,
            regs: vec![Vec::new(); buffers],
            remaining: self.len,
            chunk: self.chunk,
            gov: self.gov,
        }
    }
}

/// A compiled elementwise DAG: per chunk, each instruction runs once, in
/// order, into its register, and the root register is handed to the
/// caller — or, for a batch of aggregates, every fold sink takes the chunk
/// in. Memory is `live registers x chunk`, whatever the DAG's size.
pub struct Tape {
    /// Instructions in dependency order, each with the register it fills.
    steps: Vec<(Instr, usize)>,
    leaves: Vec<Box<dyn Pipe>>,
    regs: Vec<Vec<f64>>,
    /// One fold per sink.
    folds: Vec<Fold>,
    /// The register streamed out; `None` for a tape that only folds.
    root: Option<Arg>,
    remaining: usize,
    chunk: usize,
    gov: Arc<QueryGovernor>,
}

impl Tape {
    /// Chunk buffers this tape computes in.
    pub fn registers(&self) -> usize {
        self.regs.len()
    }

    /// Instructions that compute — elementwise kernels and fold sinks,
    /// every one but the pulls: the scalar operations per element this
    /// tape counts (its leaves count their own).
    fn kernels(&self) -> u64 {
        (self.steps.len() - self.leaves.len()) as u64
    }
}

impl Pipe for Tape {
    fn next_into(&mut self, out: &mut Vec<f64>) -> ExecResult<usize> {
        let n = self.remaining.min(self.chunk);
        if n == 0 {
            // Registers keep their length for the next span.
            out.clear();
            return Ok(0);
        }
        self.remaining -= n;
        let regs = &mut self.regs;
        for (instr, dst) in &mut self.steps {
            fn src(regs: &[Vec<f64>], arg: Arg) -> Src<'_> {
                match arg {
                    Arg::Reg(reg) => Src::Slice(&regs[reg]),
                    Arg::Const(c) => Src::Scalar(c),
                }
            }
            if let Instr::Fold(arg, sink) = *instr {
                self.folds[sink].push(src(regs, arg), n);
                continue;
            }
            // Out of the file while it is written, so the kernel can read
            // the other registers.
            let mut buf = std::mem::take(&mut regs[*dst]);
            buf.resize(n, 0.0);
            let src = |arg: Arg| src(regs, arg);
            match instr {
                Instr::Pull(leaf) => {
                    let pulled = self.leaves[*leaf].next_into(&mut buf)?;
                    debug_assert_eq!(pulled, n, "leaf fell out of step with the tape");
                }
                Instr::Map(op, reg) => op.apply_slice(&regs[*reg], &mut buf),
                Instr::Zip(op, [a, b]) => op.apply_slice(src(*a), src(*b), &mut buf),
                Instr::IfElse(cond, [yes, no]) => {
                    select_slice(&regs[*cond], src(*yes), src(*no), &mut buf)
                }
                Instr::Fold(..) => unreachable!("folds fill no register"),
            }
            regs[*dst] = buf;
        }
        match self.root {
            // The caller's previous buffer becomes the register.
            Some(Arg::Reg(reg)) => std::mem::swap(out, &mut regs[reg]),
            Some(Arg::Const(c)) => {
                out.clear();
                out.resize(n, c);
            }
            None => out.clear(),
        }
        self.gov.add_flops(n as u64 * self.kernels());
        Ok(n)
    }

    fn total_len(&self) -> usize {
        self.remaining
    }

    fn restrict(&mut self, start: usize, len: usize) {
        self.leaves
            .iter_mut()
            .for_each(|leaf| leaf.restrict(start, len));
        self.folds.iter_mut().for_each(|fold| fold.restart(start));
        self.remaining = len;
    }

    fn folds(&self) -> &[Fold] {
        &self.folds
    }
}

/// Gather: pulls 1-based indices from `index` and probes `data`, one
/// operation per element on `gov`'s flop counter.
pub struct GatherPipe {
    index: Box<dyn Pipe>,
    data: Source,
    gov: Arc<QueryGovernor>,
}

impl GatherPipe {
    /// `data[index]` with 1-based indices.
    pub fn new(index: Box<dyn Pipe>, data: Source, gov: Arc<QueryGovernor>) -> Self {
        GatherPipe { index, data, gov }
    }
}

impl Pipe for GatherPipe {
    fn next_into(&mut self, out: &mut Vec<f64>) -> ExecResult<usize> {
        let n = self.index.next_into(out)?;
        for v in out.iter_mut() {
            *v = self.data.get(position(*v, self.data.len())?)?;
        }
        self.gov.add_flops(n as u64);
        Ok(n)
    }

    fn total_len(&self) -> usize {
        self.index.total_len()
    }

    fn restrict(&mut self, start: usize, len: usize) {
        // The probe side is random-access; narrowing the index stream
        // narrows the gather.
        self.index.restrict(start, len)
    }
}

/// Drain a pipe into a freshly stored vector (sequential writes).
pub fn materialize(
    pipe: Box<dyn Pipe>,
    ctx: &Arc<StorageCtx>,
    name: Option<&str>,
) -> ExecResult<DenseVector> {
    let mut pipe = governed(pipe, ctx, "pipeline.materialize.chunk");
    let mut writer = VectorWriter::new(ctx, pipe.total_len(), name)?;
    let mut buf = Vec::new();
    while pipe.next_into(&mut buf)? > 0 {
        writer.push_chunk(&buf)?;
    }
    Ok(writer.finish()?)
}

/// Drain a pipe into memory.
pub fn drain_to_vec(mut pipe: Box<dyn Pipe>) -> ExecResult<Vec<f64>> {
    let mut out = vec![0.0; pipe.total_len()];
    drain_into(pipe.as_mut(), &mut out)?;
    Ok(out)
}

/// Drain one pipe fully into `out`: the elements it streams (`out` has
/// its exact restricted length) — or, for a pipe that folds, its sinks'
/// values ([`Fold::value`]), one per sink.
fn drain_into(pipe: &mut dyn Pipe, out: &mut [f64]) -> ExecResult<()> {
    let (mut buf, mut at) = (Vec::new(), 0);
    while pipe.next_into(&mut buf)? > 0 {
        out[at..at + buf.len()].copy_from_slice(&buf);
        at += buf.len();
    }
    for (o, fold) in out[at..].iter_mut().zip(pipe.folds()) {
        *o = fold.value();
    }
    debug_assert_eq!(at + pipe.folds().len(), out.len(), "short partition");
    Ok(())
}

/// One partitioned-drain work item: a restricted pipe plus the output
/// slice its span lands in.
pub type Partition<'out> = (Box<dyn Pipe>, &'out mut [f64]);

/// Drain restricted pipes covering disjoint spans of one logical stream
/// into the matching slices of the output (see `drain_into`: elements, or
/// a folding pipe's sink values), over `threads` workers of the kernels'
/// shared work queue (`run_parallel`: inline and in order with one
/// thread; the first failure abandons the remaining parts). A span's
/// sinks fold in the shared shape from the span's first element, so the
/// values are bitwise independent of the worker schedule.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A flop counter of its own.
    fn ops() -> Arc<QueryGovernor> {
        Arc::new(QueryGovernor::new(riot_storage::IoStats::new_shared()))
    }

    /// Drain the current span into the fold sinks.
    fn drain_folds(pipe: &mut dyn Pipe) {
        while pipe.next_into(&mut Vec::new()).unwrap() > 0 {}
    }

    fn ctx() -> Arc<StorageCtx> {
        StorageCtx::new_mem(64, 4)
    }

    #[test]
    fn range_scan_produces_sequence() {
        let p = Box::new(Scan::new(Source::Range { start: 5, len: 4 }, 3));
        assert_eq!(drain_to_vec(p).unwrap(), vec![5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn const_and_cycle_scans() {
        // A scalar root streams as a broadcast; no leaf, no register.
        let tape = TapeBuilder::new(5, 2, ops()).finish(Arg::Const(2.5));
        assert_eq!(tape.registers(), 0);
        assert_eq!(drain_to_vec(Box::new(tape)).unwrap(), vec![2.5; 5]);
        let p = Box::new(Scan::cycle(vec![1.0, 2.0], 5, 3));
        assert_eq!(drain_to_vec(p).unwrap(), vec![1.0, 2.0, 1.0, 2.0, 1.0]);
    }

    #[test]
    fn stored_scan_fills_a_buffer_of_any_length() {
        // The register a tape hands a stored scan keeps its length from
        // the previous chunk: full chunks read straight into it, the short
        // last chunk truncates it, and the end of the stream empties it.
        let c = ctx();
        let data: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let x = DenseVector::from_slice(&c, &data, None).unwrap();
        let mut scan = Scan::new(Source::Stored(x), 8);
        let mut buf = vec![f64::NAN; 11];
        for want in [&data[..8], &data[8..16], &data[16..], &[]] {
            assert_eq!(scan.next_into(&mut buf).unwrap(), want.len());
            assert_eq!(buf, want);
        }
    }

    #[test]
    fn map_zip_pipeline_single_pass() {
        // sqrt((x-1)^2) over a stored vector, streamed.
        let c = ctx();
        let data: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let x = DenseVector::from_slice(&c, &data, None).unwrap();
        let counter = ops();
        let mut t = TapeBuilder::new(20, 7, counter.clone());
        let scan = t.pull(Box::new(Scan::new(Source::Stored(x), 7)));
        let sub = t.zip(BinOp::Sub, scan, Arg::Const(1.0));
        let sq = t.map(UnOp::Square, sub);
        let sqrt = t.map(UnOp::Sqrt, sq);
        let got = drain_to_vec(Box::new(t.finish(sqrt))).unwrap();
        let want: Vec<f64> = (0..20).map(|i| (i as f64 - 1.0).abs()).collect();
        assert_eq!(got, want);
        assert_eq!(counter.flops(), 60, "3 ops x 20 elements");
    }

    #[test]
    fn ifelse_pipe_selects() {
        let lit = |v: &[f64]| Box::new(Scan::new(Source::Mem(Arc::new(v.to_vec())), 2));
        let mut t = TapeBuilder::new(3, 2, ops());
        let cond = t.pull(lit(&[1.0, 0.0, 1.0]));
        let no = t.pull(lit(&[4.0, 5.0, 6.0]));
        let mixed = t.if_else(cond, Arg::Const(9.0), no);
        assert_eq!(
            drain_to_vec(Box::new(t.finish(mixed))).unwrap(),
            vec![9.0, 5.0, 9.0]
        );
        // Scalar arms on both sides, and a scalar condition.
        let mut t = TapeBuilder::new(3, 2, ops());
        let cond = t.pull(lit(&[1.0, 0.0, 1.0]));
        let flags = t.if_else(cond, Arg::Const(7.0), Arg::Const(-7.0));
        let kept = t.if_else(Arg::Const(0.0), Arg::Const(1.0), flags);
        assert_eq!(
            drain_to_vec(Box::new(t.finish(kept))).unwrap(),
            vec![7.0, -7.0, 7.0]
        );
    }

    #[test]
    fn tape_computes_a_shared_node_once_per_chunk() {
        // e = 2d + 3d with d = sqrt(x + y): five distinct nodes, each one
        // instruction however often it is referenced, and x and y pinned
        // once per chunk.
        let c = ctx();
        let n = 80;
        let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let x = DenseVector::from_slice(&c, &data, None).unwrap();
        let y = DenseVector::from_slice(&c, &data, None).unwrap();
        c.clear_cache().unwrap();
        let before = c.io_snapshot();
        let counter = ops();
        let mut t = TapeBuilder::new(n, 8, counter.clone());
        let (x, y) = (
            t.pull(Box::new(Scan::new(Source::Stored(x), 8))),
            t.pull(Box::new(Scan::new(Source::Stored(y), 8))),
        );
        let sum = t.zip(BinOp::Add, x, y);
        let d = t.map(UnOp::Sqrt, sum);
        let (d2, d3) = (
            t.zip(BinOp::Mul, d, Arg::Const(2.0)),
            t.zip(BinOp::Mul, d, Arg::Const(3.0)),
        );
        let e = t.zip(BinOp::Add, d2, d3);
        let tape = t.finish(e);
        assert_eq!(tape.kernels(), 5);
        let got = drain_to_vec(Box::new(tape)).unwrap();
        let want: Vec<f64> = (0..n)
            .map(|i| {
                let d = (2.0 * i as f64).sqrt();
                d * 2.0 + d * 3.0
            })
            .collect();
        assert_eq!(got, want);
        assert_eq!(counter.flops(), 5 * n as u64);
        let delta = c.io_snapshot() - before;
        assert_eq!((delta.reads, delta.writes), (20, 0), "x and y once each");
    }

    #[test]
    fn tape_folds_scalars_and_streams_bare_roots() {
        let counter = ops();
        let mut t = TapeBuilder::new(4, 3, counter.clone());
        // Const x Const and a map of it fold while building.
        let six = t.zip(BinOp::Mul, Arg::Const(2.0), Arg::Const(3.0));
        assert_eq!(t.map(UnOp::Neg, six), Arg::Const(-6.0));
        // A root that is a bare leaf: the tape is one pull.
        let leaf = t.pull(Box::new(Scan::new(Source::Range { start: 1, len: 4 }, 3)));
        let tape = t.finish(leaf);
        assert_eq!((tape.registers(), tape.kernels()), (1, 0));
        assert_eq!(
            drain_to_vec(Box::new(tape)).unwrap(),
            vec![1.0, 2.0, 3.0, 4.0]
        );
        // The two folds, one scalar operation each; the bare leaf none.
        assert_eq!(counter.flops(), 2);
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
        let idx = Box::new(Scan::new(Source::Mem(Arc::new(vec![80.0, 1.0, 41.0])), 2));
        let p = Box::new(GatherPipe::new(idx, Source::Stored(x), counter));
        assert_eq!(drain_to_vec(p).unwrap(), vec![790.0, 0.0, 400.0]);
        let delta = c.io_snapshot() - before;
        // 3 probes, at most 3 block reads, not the 10 a full scan needs.
        assert!(delta.reads <= 3, "{delta}");
    }

    #[test]
    fn gather_bounds_error() {
        let counter = ops();
        let idx = Box::new(Scan::new(Source::Mem(Arc::new(vec![4.0])), 2));
        let p = GatherPipe::new(idx, Source::Mem(Arc::new(vec![1.0, 2.0])), counter);
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
        let idx = Box::new(Scan::new(Source::Mem(Arc::new(vec![3.0, 1.0])), 4));
        let p = Box::new(GatherPipe::new(
            idx,
            Source::Range {
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
        let mut t = TapeBuilder::new(30, 8, ops());
        let r = t.pull(Box::new(Scan::new(Source::Range { start: 1, len: 30 }, 8)));
        let sq = t.map(UnOp::Square, r);
        let v = materialize(Box::new(t.finish(sq)), &c, Some("squares")).unwrap();
        assert_eq!(v.len(), 30);
        assert_eq!(v.get(4).unwrap(), 25.0);
        let want: Vec<f64> = (1..=30).map(|i| (i * i) as f64).collect();
        assert_eq!(v.to_vec().unwrap(), want);
    }

    #[test]
    fn aggregates_over_pipe() {
        // Four sinks over one leaf: one pass, one register, and one
        // counted operation per sink per element.
        let counter = ops();
        let mut t = TapeBuilder::new(10, 3, counter.clone());
        let r = t.pull(Box::new(Scan::new(Source::Range { start: 1, len: 10 }, 3)));
        for op in [AggOp::Sum, AggOp::Mean, AggOp::Min, AggOp::Max] {
            t.fold(op, r);
        }
        let mut tape = t.finish(None);
        assert_eq!((tape.registers(), tape.kernels()), (1, 4));
        let mut buf = vec![f64::NAN; 2];
        while tape.next_into(&mut buf).unwrap() > 0 {
            assert!(buf.is_empty(), "a folding tape streams nothing");
        }
        let values = |tape: &Tape| tape.folds().iter().map(Fold::value).collect::<Vec<_>>();
        // `Mean` accumulates the sum; whoever reads the sink divides.
        assert_eq!(values(&tape), [55.0, 55.0, 1.0, 10.0]);
        assert_eq!(counter.flops(), 4 * 10);
        // Pointed at another span, the sinks start over at its first
        // element.
        tape.restrict(3, 4);
        drain_folds(&mut tape);
        assert_eq!(values(&tape), [22.0, 22.0, 4.0, 7.0]);
        // A sink over a scalar folds it once per element.
        let mut t = TapeBuilder::new(5, 2, ops());
        t.fold(AggOp::Sum, Arg::Const(1.5));
        let mut tape = t.finish(None);
        drain_folds(&mut tape);
        assert_eq!(values(&tape), [7.5]);
    }

    #[test]
    fn restrict_narrows_every_scan() {
        let c = ctx();
        let data: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let stored = DenseVector::from_slice(&c, &data, None).unwrap();
        let mk: Vec<(Box<dyn Pipe>, Vec<f64>)> = vec![
            (
                Box::new(Scan::new(Source::Stored(stored.clone()), 7)),
                data.clone(),
            ),
            (
                Box::new(Scan::new(Source::Mem(Arc::new(data.clone())), 7)),
                data.clone(),
            ),
            (
                Box::new(Scan::new(Source::Range { start: 0, len: 40 }, 7)),
                data.clone(),
            ),
            (
                Box::new(TapeBuilder::new(40, 7, ops()).finish(Arg::Const(3.0))),
                vec![3.0; 40],
            ),
            (
                Box::new(Scan::cycle(vec![1.0, 2.0, 3.0], 40, 7)),
                (0..40).map(|i| [1.0, 2.0, 3.0][i % 3]).collect(),
            ),
        ];
        for (mut pipe, full) in mk {
            pipe.restrict(11, 13);
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
            let mut t = TapeBuilder::new(30, 8, counter.clone());
            let scan = t.pull(Box::new(Scan::new(Source::Stored(x.clone()), 8)));
            let mul = t.zip(BinOp::Mul, scan, Arg::Const(2.0));
            let neg = t.map(UnOp::Neg, mul);
            Box::new(t.finish(neg))
        };
        let full = drain_to_vec(build()).unwrap();
        let mut restricted = build();
        restricted.restrict(5, 12);
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
            let mut t = TapeBuilder::new(n, 8, counter.clone());
            let scan = t.pull(Box::new(Scan::new(Source::Stored(x.clone()), 8)));
            let sq = t.map(UnOp::Square, scan);
            Box::new(t.finish(sq))
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
                pipe.restrict(s, take);
                parts.push((pipe, slice));
            }
            drain_partitioned(parts, 3).unwrap();
        }
        assert_eq!(out, want);
        // Every element computed exactly once across both drains.
        assert_eq!(counter.flops(), 2 * n as u64);
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
        let mut t = TapeBuilder::new(n, 8, counter.clone());
        let sx = t.pull(Box::new(Scan::new(Source::Stored(x.clone()), 8)));
        let sy = t.pull(Box::new(Scan::new(Source::Stored(y), 8)));
        let sum = t.zip(BinOp::Add, sx, sy);
        t.fold(AggOp::Sum, sum);
        let mut tape = t.finish(None);
        drain_folds(&mut tape);
        let want = (0..n).map(|i| 2.0 * i as f64).sum::<f64>();
        assert_eq!(
            tape.folds()[0].value(),
            want,
            "integers: any order is exact"
        );

        // Memory is live registers x chunk, not nodes x chunk. A 200-deep
        // chain keeps one value alive at a time (plus the one being
        // written); with the scan alive to the end, one more.
        for keep_scan in [false, true] {
            let mut t = TapeBuilder::new(n, 8, counter.clone());
            let scan = t.pull(Box::new(Scan::new(Source::Stored(x.clone()), 8)));
            let mut v = scan;
            for _ in 0..100 {
                v = t.zip(BinOp::Add, v, Arg::Const(1.0));
                v = t.map(UnOp::Neg, v);
            }
            if keep_scan {
                v = t.zip(BinOp::Sub, v, scan);
            }
            let tape = t.finish(v);
            assert_eq!(tape.kernels(), 200 + u64::from(keep_scan));
            assert_eq!(tape.registers(), 2 + usize::from(keep_scan));
            // 100 rounds of -(v + 1) leave v as it started.
            let want = if keep_scan {
                vec![0.0; n]
            } else {
                data.clone()
            };
            assert_eq!(drain_to_vec(Box::new(tape)).unwrap(), want);
        }

        // A 50-wide fan-in folded as it is built: each branch dies into
        // the running sum, so the scan, the sum, one branch and the
        // register being written are all that is ever live.
        let mut t = TapeBuilder::new(n, 8, counter);
        let scan = t.pull(Box::new(Scan::new(Source::Stored(x), 8)));
        let mut sum = Arg::Const(0.0);
        for k in 0..50 {
            let branch = t.zip(BinOp::Mul, scan, Arg::Const(f64::from(k)));
            sum = t.zip(BinOp::Add, sum, branch);
        }
        let tape = t.finish(sum);
        assert_eq!((tape.kernels(), tape.registers()), (100, 4));
        let want: Vec<f64> = data.iter().map(|v| v * 1225.0).collect();
        assert_eq!(drain_to_vec(Box::new(tape)).unwrap(), want);
    }
}
