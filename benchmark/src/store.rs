//! The device stack under every workload, built only from public API:
//! `FileBlockDevice` → (`FailpointDevice` for modelled latency) →
//! [`TimedDevice`] → `BufferPool` → `StorageCtx`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use riot::array::StorageCtx;
use riot::storage::{
    BlockDevice, BlockId, BufferPool, FailpointDevice, FileBlockDevice, IoStats, PoolConfig,
    ReplacerKind,
};
use riot::trace::Tracer;

use crate::stats::percentile;

pub const BLOCK_SIZE: usize = 8192;

/// Ring capacity of the traced pass. The ring is drained after every
/// top-level statement; the busiest one (`dense_ooc`'s forcing `print`)
/// records ~160 k misses, evictions and write-backs, far above the
/// default 65 536. Allocated (~48 MiB) only once tracing is enabled.
const TRACE_RING_EVENTS: usize = 1 << 18;

/// A device file that is removed when the guard drops — on normal exit,
/// on an error return, and on a panic unwinding through the harness.
pub struct TempFile(PathBuf);

impl TempFile {
    /// A fresh path under `dir`, unique per process and call.
    pub fn new(dir: &Path, label: &str) -> TempFile {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        TempFile(dir.join(format!("{label}-{}-{n}.blk", std::process::id())))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// What [`TimedDevice`] saw since its last reset.
#[derive(Debug, Clone, Default)]
pub struct DeviceReport {
    pub reads: u64,
    pub writes: u64,
    pub syncs: u64,
    pub seq_reads: u64,
    /// Seconds inside device calls on the thread that built the store
    /// (the thread running the script).
    pub fg_busy_s: f64,
    /// Seconds inside device calls on any other thread (prefetch workers).
    pub bg_busy_s: f64,
    pub read_p50_us: f64,
    pub read_p99_us: f64,
    pub write_p50_us: f64,
    pub sync_p50_us: f64,
}

#[derive(Default)]
struct Samples {
    read_ns: Vec<u32>,
    write_ns: Vec<u32>,
    sync_ns: Vec<u32>,
    seq_reads: u64,
    last_read: Option<u64>,
    fg_ns: u64,
    bg_ns: u64,
}

/// Shared handle onto a [`TimedDevice`]'s recorder; stays usable after
/// the device has moved into the pool.
pub struct DeviceTimer {
    on: AtomicBool,
    foreground: ThreadId,
    samples: Mutex<Samples>,
}

impl DeviceTimer {
    /// A stopped timer whose foreground is the calling thread.
    fn new() -> DeviceTimer {
        DeviceTimer {
            on: AtomicBool::new(false),
            foreground: std::thread::current().id(),
            samples: Mutex::new(Samples::default()),
        }
    }

    /// Clear all samples and start (`true`) or stop recording.
    pub fn reset(&self, on: bool) {
        *self.samples.lock().expect("device timer poisoned") = Samples::default();
        self.on.store(on, Ordering::SeqCst);
    }

    pub fn report(&self) -> DeviceReport {
        let mut s = self.samples.lock().expect("device timer poisoned");
        let us = |v: &mut Vec<u32>, p: f64| {
            let mut f: Vec<f64> = v.iter().map(|&ns| ns as f64 / 1e3).collect();
            percentile(&mut f, p)
        };
        DeviceReport {
            reads: s.read_ns.len() as u64,
            writes: s.write_ns.len() as u64,
            syncs: s.sync_ns.len() as u64,
            seq_reads: s.seq_reads,
            fg_busy_s: s.fg_ns as f64 / 1e9,
            bg_busy_s: s.bg_ns as f64 / 1e9,
            read_p50_us: us(&mut s.read_ns, 0.50),
            read_p99_us: us(&mut s.read_ns, 0.99),
            write_p50_us: us(&mut s.write_ns, 0.50),
            sync_p50_us: us(&mut s.sync_ns, 0.50),
        }
    }

    fn record(
        &self,
        t0: Instant,
        read_block: Option<u64>,
        pick: fn(&mut Samples) -> &mut Vec<u32>,
    ) {
        let ns = t0.elapsed().as_nanos() as u64;
        let fg = std::thread::current().id() == self.foreground;
        let mut s = self.samples.lock().expect("device timer poisoned");
        pick(&mut s).push(ns.min(u32::MAX as u64) as u32);
        if fg {
            s.fg_ns += ns;
        } else {
            s.bg_ns += ns;
        }
        if let Some(b) = read_block {
            if s.last_read.is_some_and(|l| l + 1 == b) {
                s.seq_reads += 1;
            }
            s.last_read = Some(b);
        }
    }
}

/// The benchmark's own `BlockDevice` wrapper: times every transfer from
/// outside the pool. While recording is off it forwards untouched (one
/// atomic load), so the untraced pass pays nothing for it.
pub struct TimedDevice {
    inner: Box<dyn BlockDevice>,
    timer: Arc<DeviceTimer>,
}

impl TimedDevice {
    fn start(&self) -> Option<Instant> {
        self.timer.on.load(Ordering::Relaxed).then(Instant::now)
    }
}

impl BlockDevice for TimedDevice {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_block(&self, id: BlockId, buf: &mut [u8]) -> riot::storage::Result<()> {
        let t0 = self.start();
        let out = self.inner.read_block(id, buf);
        if let Some(t0) = t0 {
            self.timer.record(t0, Some(id.0), |s| &mut s.read_ns);
        }
        out
    }

    fn write_block(&self, id: BlockId, buf: &[u8]) -> riot::storage::Result<()> {
        let t0 = self.start();
        let out = self.inner.write_block(id, buf);
        if let Some(t0) = t0 {
            self.timer.record(t0, None, |s| &mut s.write_ns);
        }
        out
    }

    fn allocate(&self, n: u64) -> riot::storage::Result<BlockId> {
        self.inner.allocate(n)
    }

    fn free(&self, start: BlockId, n: u64) -> riot::storage::Result<()> {
        self.inner.free(start, n)
    }

    fn stats(&self) -> Arc<IoStats> {
        self.inner.stats()
    }

    fn concurrent_io(&self) -> bool {
        self.inner.concurrent_io()
    }

    fn persistent(&self) -> bool {
        self.inner.persistent()
    }

    fn sync(&self) -> riot::storage::Result<()> {
        let t0 = self.start();
        let out = self.inner.sync();
        if let Some(t0) = t0 {
            self.timer.record(t0, None, |s| &mut s.sync_ns);
        }
        out
    }
}

/// How a workload wants its device stack built.
#[derive(Debug, Clone, Copy)]
pub struct StoreOpts {
    /// Pool frames (the memory cap in 8 KiB blocks).
    pub frames: usize,
    /// `PoolConfig::prefetch_depth` (0 or `PREFETCH_AUTO`).
    pub prefetch: usize,
    /// Modelled per-read device latency (`FailpointDevice`, latency only).
    pub read_latency: Option<Duration>,
}

impl StoreOpts {
    /// The common stack: file straight under the pool, demand paging.
    pub fn plain(frames: usize) -> StoreOpts {
        StoreOpts {
            frames,
            prefetch: 0,
            read_latency: None,
        }
    }
}

/// How the catalog over the device file starts out.
pub enum Catalog {
    /// Non-durable context over a new file.
    Fresh,
    /// `StorageCtx::new_durable` over a new file.
    Durable,
    /// `StorageCtx::open` over an existing, committed file.
    Reopen,
}

/// The two instruments that sit outside the program: the device timer
/// and the pool's tracer. One pair can watch several stores in turn
/// (`ingest_commit` writes through one store and reopens through another).
#[derive(Clone)]
pub struct Instruments {
    pub timer: Arc<DeviceTimer>,
    /// Disabled until `Session::profile` enables it; its clock also
    /// timestamps the harness-side spans.
    pub tracer: Arc<Tracer>,
}

impl Instruments {
    pub fn new() -> Instruments {
        Instruments {
            timer: Arc::new(DeviceTimer::new()),
            tracer: Arc::new(Tracer::with_capacity(TRACE_RING_EVENTS)),
        }
    }

    /// Allocate the tracer's ring now (first enable does), so the first
    /// traced iteration does not pay for it inside its timed region.
    pub fn warm(&self) {
        if !self.tracer.is_enabled() {
            self.tracer.enable();
            self.tracer.disable();
        }
    }
}

/// One storage context over one device file.
pub struct Store {
    pub ctx: Arc<StorageCtx>,
    pub instruments: Instruments,
}

impl Store {
    pub fn open(
        path: &Path,
        opts: StoreOpts,
        catalog: Catalog,
        instruments: &Instruments,
    ) -> Result<Store, String> {
        let file = match catalog {
            Catalog::Reopen => FileBlockDevice::open(path, BLOCK_SIZE),
            _ => FileBlockDevice::create(path, BLOCK_SIZE),
        }
        .map_err(|e| format!("device file {}: {e}", path.display()))?;
        let mut device: Box<dyn BlockDevice> = Box::new(file);
        if let Some(latency) = opts.read_latency {
            let slow = FailpointDevice::new(device);
            slow.handle().set_read_latency(latency);
            device = Box::new(slow);
        }
        let timed = TimedDevice {
            inner: device,
            timer: Arc::clone(&instruments.timer),
        };
        let pool = BufferPool::with_tracer(
            Box::new(timed),
            PoolConfig {
                frames: opts.frames,
                replacer: ReplacerKind::Lru,
                prefetch_depth: opts.prefetch,
                ..PoolConfig::default()
            },
            1,
            Arc::clone(&instruments.tracer),
        );
        let ctx = match catalog {
            Catalog::Fresh => Ok(StorageCtx::from_pool(pool)),
            Catalog::Durable => StorageCtx::new_durable(pool),
            Catalog::Reopen => StorageCtx::open(pool),
        }
        .map_err(|e| format!("storage context over {}: {e}", path.display()))?;
        Ok(Store {
            ctx,
            instruments: instruments.clone(),
        })
    }
}
