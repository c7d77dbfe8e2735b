//! The buffer pool: a fixed budget of in-memory frames caching device
//! blocks, with pin/unpin semantics and write-back on eviction.
//!
//! The pool capacity **is** the reproduction's memory cap. Where the paper
//! locks physical memory with `shmat(SHM_SHARE_MMU)` to cap what MySQL can
//! cache, we cap the number of frames; everything an engine touches beyond
//! that budget becomes counted device I/O.
//!
//! ## Concurrency model
//!
//! The pool is lock-striped into `shards` partitions (block id modulo shard
//! count). Each shard owns its frames, page table, and recency clock
//! behind one mutex. Device I/O — miss loads, eviction write-backs, and
//! flushes — runs with the shard mutex **dropped**: the frame involved is
//! parked in an explicit in-flight state first, so the shard stays open for
//! every other block while the transfer is outstanding, and distinct-block
//! transfers overlap in time (devices take `&self` and synchronize
//! internally; see [`crate::BlockDevice::concurrent_io`]).
//!
//! ## Frame lifecycle
//!
//! Every frame is in exactly one state, recorded in its metadata and
//! guarded by the shard mutex (the I/O itself happens between the mutex
//! regions):
//!
//! ```text
//!              claim (miss)                 publish (load ok)
//!   (free) ───────────────▶ LoadInFlight ───────────────────▶ Resident
//!      ▲                         │                            ▲  │  ▲
//!      └─────────────────────────┘                            │  │  │
//!              load error: slot released, waiters retry       │  │  │
//!                                                             │  │  │
//!              flush dirty snapshot       WriteBackInFlight ──┘  │  │
//!              (shared pins stay legal) ◀────────────────────────┘  │
//!                                                                   │
//!              dirty victim: copy-then-write        Evicting ───────┘
//!              (other blocks never wait) ◀──────────────────── │
//!                       │                                      │
//!                       └── success: frame freed for new block ┘
//!                           failure: back to Resident, still dirty
//! ```
//!
//! Each edge has exactly one implementation, whoever takes it:
//!
//! | edge | implemented by |
//! |---|---|
//! | `(free) → LoadInFlight → Resident`, or back to `(free)` on a failed read | `PoolCore::load`, for demand pins and background prefetches alike (`pin_new` goes `(free) → Resident` there too, zero-filled instead of read) |
//! | a frame found: a free one, or a victim evicted | `PoolCore::obtain_frame`, called only by `PoolCore::load` |
//! | `Resident → Evicting → Resident` and `Resident → WriteBackInFlight → Resident` | `PoolCore::write_out`, for evictions (from `obtain_frame`) and flushes (from `PoolCore::flush_frame`) alike |
//! | block mapped into / dropped from a frame | `ShardMeta::claim` / `ShardMeta::unmap` |
//! | pin granted / released | `ShardMeta::grant` / the `Drop` of `FramePin`, the body both guards wrap |
//!
//! Invariants the test suite pins down:
//!
//! * **Single-flight**: concurrent misses of one block perform exactly one
//!   device read — later arrivals wait on the `LoadInFlight` entry and are
//!   counted in [`PoolStats::coalesced_loads`].
//! * **Exact counted I/O**: single-threaded, the sequence of device reads
//!   and writes, the eviction order, and every counter are bit-for-bit
//!   those of the classic lock-held pool (the paper's cost-model
//!   validation depends on this).
//! * **Least recently used, derived**: each frame carries the shard-clock
//!   stamp of its last pin (or publish), and a frame is evictable exactly
//!   when it is mapped, `Resident`, and unpinned. The victim is the
//!   evictable frame with the smallest stamp, ties to the lowest frame.
//!   Evictability is read off the frame's own state, never kept in a
//!   second copy, so a frame in any in-flight state can never be a victim.
//! * **Failure containment**: a failed load releases the claimed slot (no
//!   leaked frame, stats exact, the next pin of the block retries); a
//!   failed eviction write-back returns the victim to `Resident`+dirty as
//!   the most recently used frame, poisoning nothing.
//!
//! ## Plan-driven prefetch
//!
//! The execution layer knows its block access pattern ahead of time (the
//! RIOT paper's §4/Appendix A schedules are *declared* tile walks), so the
//! pool accepts that declaration directly: [`BufferPool::prefetch`] takes
//! the next window's blocks as an iterator and a small worker pool
//! (capacity [`PoolConfig::prefetch_depth`], started by the first hint
//! that queues a load) loads the non-resident blocks in the background,
//! each through the same `PoolCore::load` as a demand miss, with a
//! `prefetched` flag on the frame.
//! A pin that arrives while the background load is in flight waits on the
//! existing `LoadInFlight` entry — the PR-3 single-flight path, so there
//! is never a duplicate device read — and the first pin of a prefetched
//! frame counts [`PoolStats::prefetch_hits`]. Prefetched frames publish
//! *evictable*; one recycled without ever being pinned counts
//! [`PoolStats::prefetch_wasted`]. A failed background load releases its
//! slot exactly like a failed miss and the next pin retries on the
//! device.
//!
//! Prefetching never changes *how many* device transfers a well-windowed
//! workload performs — only *when* they happen (reads move off the pin
//! path onto the workers, where they overlap compute and each other).
//! With `prefetch_depth = 0` (what [`PREFETCH_AUTO`] resolves to on a
//! non-persistent device) [`BufferPool::prefetch`] returns before consuming
//! its iterator — callers build no hint list and need no guard of their
//! own — and the pool's I/O sequence is bit-for-bit the classic
//! demand-paged one.
//!
//! ## Zero-copy pin guards
//!
//! [`BufferPool::pin`] returns a [`PinnedFrame`] dereferencing straight to
//! the frame's `&[f64]` — no closure, no copy, no per-access allocation.
//! [`BufferPool::pin_mut`] / [`BufferPool::pin_new`] return a
//! [`PinnedFrameMut`] with exclusive `&mut [f64]` access. Guards unpin on
//! drop. A shared pin blocks while another thread holds an exclusive pin on
//! the same block (and vice versa). Taking conflicting pins on one block
//! from the *same* thread deadlocks, like any reader/writer lock — debug
//! builds detect that re-entrancy at the wait site and panic with the
//! block id instead of hanging.

use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use riot_trace::{EventKind, Tracer};

use crate::device::{BlockDevice, BlockId};
use crate::error::{Result, StorageError};
use crate::governor::QueryGovernor;
use crate::stats::{InFlight, IoStats};

/// Frame index inside a shard.
type FrameId = usize;

/// `PoolConfig::prefetch_depth` sentinel: size the prefetch worker pool
/// from the device's capabilities. Non-[`BlockDevice::persistent`] devices
/// resolve to `0` (a memory-speed miss has nothing to hide, and the
/// demand-paged I/O order stays the pinned classic sequence); persistent
/// devices get 8 workers when transfers genuinely overlap
/// ([`BlockDevice::concurrent_io`]), 2 when the device serializes — one
/// load can still overlap compute either way.
pub const PREFETCH_AUTO: usize = usize::MAX;

/// The pool's replacement policy, which has one value: evict the least
/// recently used unpinned frame (see the module docs).
///
/// It exists only so that [`PoolConfig`] literals naming
/// `replacer: ReplacerKind::Lru` — the benchmark's `benchmark/src/store.rs`
/// is the last — keep compiling; it selects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacerKind {
    /// Evict the least recently used unpinned frame.
    Lru,
}

/// Pool construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Number of frames (blocks) the pool may keep in memory.
    pub frames: usize,
    /// Always [`ReplacerKind::Lru`]; see there.
    pub replacer: ReplacerKind,
    /// Background prefetch workers (= maximum prefetch loads in flight).
    ///
    /// `0` disables prefetching entirely: [`BufferPool::prefetch`] is a
    /// free no-op and the pool's device I/O order stays bit-for-bit the
    /// classic demand-paged sequence the cost-model validation pins down.
    /// [`PREFETCH_AUTO`] (the default) sizes the worker pool from the
    /// device: `0` for non-[`BlockDevice::persistent`] devices (so
    /// in-memory pools keep the classic order), 8 or 2 for persistent
    /// ones depending on [`BlockDevice::concurrent_io`]. Prefetching
    /// never changes *how much* I/O a well-windowed workload performs —
    /// only *when* it happens (see the module docs).
    pub prefetch_depth: usize,
    /// Upper bound on how long a pin may wait for an apparently
    /// exhausted shard's in-flight transfers to free a frame before
    /// failing with [`StorageError::PinTimeout`]. A healthy pool frees
    /// frames in device-latency time, so the generous default only
    /// fires when a transfer has genuinely wedged — previously that pin
    /// waited forever and only the test-only
    /// [`crate::testing::Watchdog`] noticed.
    pub pin_timeout: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            frames: 256,
            replacer: ReplacerKind::Lru,
            prefetch_depth: PREFETCH_AUTO,
            pin_timeout: Duration::from_secs(30),
        }
    }
}

/// Cache-effectiveness counters, separate from device [`IoStats`].
///
/// Every *successful* pin is classified as exactly one hit or one miss. A
/// pin that fails after claiming its load slot still counts that miss
/// (the claim reached the device, mirroring the counted read attempt); a
/// pin that fails earlier — pool exhausted, or its victim's write-back
/// failed — counts nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Pin requests satisfied from a resident frame.
    pub hits: u64,
    /// Pin requests that had to load from the device.
    pub misses: u64,
    /// Dirty frames written back during eviction.
    pub evict_writebacks: u64,
    /// Failed eviction write-backs that were absorbed by retrying the
    /// victim pass: the victim stayed resident, dirty, and mapped (nothing
    /// lost), and the evictor picked again. Only a device that keeps
    /// failing past the per-request retry bound surfaces an error.
    pub writeback_retries: u64,
    /// Pins that waited on another thread's in-flight load of the same
    /// block instead of issuing their own device read (the single-flight
    /// win; always 0 single-threaded).
    pub coalesced_loads: u64,
    /// Background prefetch loads dispatched to the device. With a
    /// well-windowed access pattern, `reads == misses + prefetch_issued`:
    /// prefetching moves reads off the pin path without adding any.
    pub prefetch_issued: u64,
    /// Pins served by a prefetched frame — either found resident before
    /// first use or awaited while its background load was in flight (the
    /// single-flight path). At most one hit is counted per issued
    /// prefetch.
    pub prefetch_hits: u64,
    /// Prefetched frames recycled (evicted, freed, or cache-cleared)
    /// without ever being pinned: I/O the prefetcher wasted. Every issued
    /// prefetch eventually lands in `prefetch_hits`, `prefetch_wasted`,
    /// a still-resident unused frame — or, when its background load
    /// failed, nowhere (the slot releases silently; device errors are the
    /// one issued-but-unaccounted outcome).
    pub prefetch_wasted: u64,
}

impl PoolStats {
    /// Fraction of accesses served from memory.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Field-wise difference against an earlier snapshot (saturating, so a
    /// stale baseline never underflows).
    pub fn delta(&self, earlier: &PoolStats) -> PoolStats {
        self.zip(earlier, u64::saturating_sub)
    }

    /// Combine two snapshots counter by counter: the one place every field
    /// is listed for arithmetic.
    fn zip(&self, other: &PoolStats, f: impl Fn(u64, u64) -> u64) -> PoolStats {
        PoolStats {
            hits: f(self.hits, other.hits),
            misses: f(self.misses, other.misses),
            evict_writebacks: f(self.evict_writebacks, other.evict_writebacks),
            writeback_retries: f(self.writeback_retries, other.writeback_retries),
            coalesced_loads: f(self.coalesced_loads, other.coalesced_loads),
            prefetch_issued: f(self.prefetch_issued, other.prefetch_issued),
            prefetch_hits: f(self.prefetch_hits, other.prefetch_hits),
            prefetch_wasted: f(self.prefetch_wasted, other.prefetch_wasted),
        }
    }
}

impl std::fmt::Display for PoolStats {
    /// One-line summary: `hits/misses (rate), evict-wb, coalesced, prefetch
    /// issued/hit/wasted` — the shape tests and `riot.profile()` print.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pool: {} hits / {} misses ({:.1}% hit rate), {} evict write-backs, \
             {} coalesced, prefetch {}/{}/{} issued/hit/wasted",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.evict_writebacks,
            self.coalesced_loads,
            self.prefetch_issued,
            self.prefetch_hits,
            self.prefetch_wasted,
        )
    }
}

/// Stable home of one shard's frame data: `frames` runs of `stride`
/// `f64`s, frame `f` at element `f * stride`, owned manually so no
/// `&`/`&mut` reference over the contents is ever materialized here
/// (guards derive their slices straight from the raw pointer, keeping
/// concurrent shared pins free of aliasing UB). Access is governed by the
/// pin protocol: the shard lock plus a zero pin count for zero-fills,
/// shared pins for `&` access, an exclusive pin for `&mut`, and sole
/// ownership through the claiming thread while the frame is in
/// [`FrameState::LoadInFlight`] (the device read fills the buffer with the
/// shard lock dropped).
///
/// The frames are one zero-filled region outside the allocator's heap
/// (an anonymous mapping on Linux), returned to the OS whole when the
/// pool drops. Hundreds of block-sized heap chunks would instead go back
/// to the heap, be refilled by unrelated allocations, and leave how much
/// memory the process keeps resident to how those happened to fit.
struct FrameBuf {
    ptr: *mut f64,
    bytes: usize,
    stride: usize,
}

// SAFETY: all access through `ptr` follows the pin protocol above; the
// shard mutex orders transitions between the modes.
unsafe impl Send for FrameBuf {}
unsafe impl Sync for FrameBuf {}

impl FrameBuf {
    fn new(frames: usize, stride: usize) -> Self {
        let bytes = frames
            .checked_mul(stride)
            .and_then(|elems| elems.checked_mul(std::mem::size_of::<f64>()))
            .expect("frame region size overflows usize");
        FrameBuf {
            ptr: region::map(bytes).cast::<f64>(),
            bytes,
            stride,
        }
    }

    fn ptr(&self, frame: FrameId) -> *mut f64 {
        self.ptr.wrapping_add(frame * self.stride)
    }
}

impl Drop for FrameBuf {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`bytes` came from `region::map` and are released
        // exactly once; the pool (and thus every guard borrowing from it)
        // is gone when frames drop.
        unsafe { region::unmap(self.ptr.cast::<u8>(), self.bytes) }
    }
}

/// Zero-filled, page-aligned memory that does not come from the heap.
mod region {
    use std::alloc::{handle_alloc_error, Layout};
    #[cfg(target_os = "linux")]
    use std::ffi::{c_int, c_long, c_void};

    #[cfg(target_os = "linux")]
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            off: c_long,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    fn layout(bytes: usize) -> Layout {
        Layout::from_size_align(bytes, 4096).expect("frame region layout")
    }

    /// A fresh region of `bytes` zero bytes.
    pub(super) fn map(bytes: usize) -> *mut u8 {
        assert!(bytes > 0, "a frame region holds at least one byte");
        #[cfg(target_os = "linux")]
        let p = {
            const PROT_READ_WRITE: c_int = 0x1 | 0x2;
            const MAP_PRIVATE_ANONYMOUS: c_int = 0x02 | 0x20;
            // SAFETY: a new private anonymous mapping aliases nothing.
            let p = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    bytes,
                    PROT_READ_WRITE,
                    MAP_PRIVATE_ANONYMOUS,
                    -1,
                    0,
                )
            };
            // MAP_FAILED is -1.
            if p as isize == -1 {
                std::ptr::null_mut()
            } else {
                p.cast::<u8>()
            }
        };
        #[cfg(not(target_os = "linux"))]
        // SAFETY: the layout's size is non-zero (asserted above).
        let p = unsafe { std::alloc::alloc_zeroed(layout(bytes)) };
        if p.is_null() {
            handle_alloc_error(layout(bytes));
        }
        p
    }

    /// Release a region [`map`] returned.
    ///
    /// # Safety
    /// `ptr` and `bytes` are one [`map`] result, released once, with no
    /// reference into it left.
    pub(super) unsafe fn unmap(ptr: *mut u8, bytes: usize) {
        // SAFETY: per this function's contract.
        #[cfg(target_os = "linux")]
        unsafe {
            munmap(ptr.cast::<c_void>(), bytes)
        };
        // SAFETY: per this function's contract.
        #[cfg(not(target_os = "linux"))]
        unsafe {
            std::alloc::dealloc(ptr, layout(bytes))
        };
    }
}

/// Lifecycle state of a mapped frame (see the module-level diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum FrameState {
    /// Contents valid; pins follow reader/writer rules. Free frames are
    /// `Resident` too (and unmapped).
    #[default]
    Resident,
    /// A miss claimed this frame and is reading the block from the device
    /// with the shard lock dropped. Pins of the block wait; the frame is
    /// neither free nor evictable; the claiming thread owns the buffer.
    LoadInFlight,
    /// A dirty snapshot of this frame is being flushed with the shard lock
    /// dropped. The frame stays resident: shared pins remain legal (the
    /// snapshot is already taken), exclusive pins wait out the write.
    WriteBackInFlight,
    /// This frame is a dirty eviction victim whose copy is being written
    /// back with the shard lock dropped. Pins of the (outgoing) block
    /// wait; pins of every other block in the shard are unaffected.
    Evicting,
}

/// Book-keeping for one frame, protected by the shard mutex.
#[derive(Default)]
struct FrameMeta {
    block: Option<BlockId>,
    readers: u32,
    writer: bool,
    dirty: bool,
    state: FrameState,
    /// Loaded by a background prefetch and not yet pinned. Cleared by the
    /// first pin (counted in [`PoolStats::prefetch_hits`]) or by recycling
    /// the frame unused (counted in [`PoolStats::prefetch_wasted`]).
    prefetched: bool,
    /// [`ShardMeta::tick`] at the frame's last pin or publish: the victim
    /// scan's recency rank.
    last_use: u64,
}

impl FrameMeta {
    /// A victim candidate: mapped, `Resident`, and unpinned. Frames in any
    /// in-flight state never are.
    fn evictable(&self) -> bool {
        self.block.is_some()
            && self.state == FrameState::Resident
            && self.readers == 0
            && !self.writer
    }

    /// A flush candidate: `Resident`, dirty, and not exclusively pinned
    /// (shared pins stay legal while the snapshot is written).
    fn flushable(&self) -> bool {
        self.dirty && !self.writer && self.state == FrameState::Resident
    }
}

pub(crate) struct ShardMeta {
    frames: Vec<FrameMeta>,
    pub(crate) map: HashMap<BlockId, FrameId>,
    /// Logical clock stamped into [`FrameMeta::last_use`].
    tick: u64,
    pub(crate) free: Vec<FrameId>,
    /// Exclusive-pin waiters per block id (not per frame: frames can be
    /// recycled to other blocks while a waiter sleeps). New shared pins
    /// yield to these so a stream of overlapping readers cannot starve a
    /// writer indefinitely.
    write_waiters: HashMap<BlockId, u32>,
    /// Device transfers currently outstanding for this shard's frames.
    /// While nonzero, an apparently exhausted shard may still yield a
    /// frame (a failed load or finished eviction), so frame seekers wait
    /// instead of erroring.
    in_flight: u32,
}

impl ShardMeta {
    /// `frames` unmapped frames, all on the free list (lowest index popped
    /// first).
    pub(crate) fn new(frames: usize) -> Self {
        ShardMeta {
            frames: (0..frames).map(|_| FrameMeta::default()).collect(),
            map: HashMap::new(),
            tick: 0,
            free: (0..frames).rev().collect(),
            write_waiters: HashMap::new(),
            in_flight: 0,
        }
    }

    /// `frame` was just pinned or published: make it the most recently
    /// used.
    pub(crate) fn touch(&mut self, frame: FrameId) {
        self.tick += 1;
        self.frames[frame].last_use = self.tick;
    }

    /// The least recently used evictable frame, ties to the lowest index.
    pub(crate) fn victim(&self) -> Option<FrameId> {
        self.frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.evictable())
            .min_by_key(|(_, f)| f.last_use)
            .map(|(i, _)| i)
    }

    /// Map `block` into `frame`, just taken off the free list, in `state`:
    /// unpinned, clean, and `prefetched` when a background load claims it.
    /// The mirror of [`ShardMeta::unmap`].
    pub(crate) fn claim(
        &mut self,
        frame: FrameId,
        block: BlockId,
        state: FrameState,
        prefetched: bool,
    ) {
        self.frames[frame] = FrameMeta {
            block: Some(block),
            state,
            prefetched,
            ..FrameMeta::default()
        };
        self.map.insert(block, frame);
    }

    /// Grant one pin on the mapped `frame` (an exclusive pin dirties it)
    /// and make it the most recently used.
    fn grant(&mut self, frame: FrameId, mode: AccessMode) {
        let fm = &mut self.frames[frame];
        match mode {
            AccessMode::Shared => fm.readers += 1,
            AccessMode::Exclusive => {
                fm.writer = true;
                fm.dirty = true;
            }
        }
        self.touch(frame);
    }

    /// Drop an unpinned frame's mapping and push it on the free list,
    /// clean and `Resident`. Returns whether it held a prefetch that was
    /// never pinned, which the caller counts as wasted unless the prefetch
    /// itself failed.
    pub(crate) fn unmap(&mut self, frame: FrameId) -> bool {
        let fm = &mut self.frames[frame];
        debug_assert!(fm.readers == 0 && !fm.writer, "unmap of a pinned frame");
        let block = fm.block.take().expect("unmap of an unmapped frame");
        fm.dirty = false;
        fm.state = FrameState::Resident;
        let unused_prefetch = std::mem::take(&mut fm.prefetched);
        self.map.remove(&block);
        self.free.push(frame);
        unused_prefetch
    }
}

struct Shard {
    meta: Mutex<ShardMeta>,
    unpinned: Condvar,
    bufs: FrameBuf,
    counters: Counters,
}

/// One shard's [`PoolStats`] as relaxed atomics: they are statistics and
/// publish no other data.
#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    evict_writebacks: AtomicU64,
    writeback_retries: AtomicU64,
    coalesced_loads: AtomicU64,
    prefetch_issued: AtomicU64,
    prefetch_hits: AtomicU64,
    prefetch_wasted: AtomicU64,
}

impl Counters {
    fn load(&self) -> PoolStats {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        PoolStats {
            hits: get(&self.hits),
            misses: get(&self.misses),
            evict_writebacks: get(&self.evict_writebacks),
            writeback_retries: get(&self.writeback_retries),
            coalesced_loads: get(&self.coalesced_loads),
            prefetch_issued: get(&self.prefetch_issued),
            prefetch_hits: get(&self.prefetch_hits),
            prefetch_wasted: get(&self.prefetch_wasted),
        }
    }
}

/// Lock a shard's metadata or the prefetch queue, recovering from
/// poisoning: a panic in one thread (e.g. an assertion in a caller's
/// closure) must not turn every subsequent guard drop into an abort —
/// invariants are re-established before the mutex is released on every
/// path.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Wait on `cv`, recovering from poisoning like [`lock`].
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard)
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Bounded [`wait`]: returns after a notification, a spurious wake-up, or
/// `dur` — whichever comes first. The caller re-checks its predicate and
/// its own deadline either way.
fn wait_timeout<'a>(
    shard: &'a Shard,
    meta: MutexGuard<'a, ShardMeta>,
    dur: Duration,
) -> MutexGuard<'a, ShardMeta> {
    shard
        .unpinned
        .wait_timeout(meta, dur)
        .map(|(g, _)| g)
        .unwrap_or_else(|e| e.into_inner().0)
}

/// Debug-build registry of held pins, keyed by (pool identity, block id,
/// owning thread). Pinning a block the current thread already holds a
/// *conflicting* pin on can only deadlock (the wait is for ourselves), so
/// the wait site panics with the block id instead of hanging.
///
/// The map is process-global rather than thread-local: pin guards are
/// `Send`, so a guard recorded on thread A may be dropped on thread B —
/// the release must still clear A's entry (a stale entry would later
/// panic a perfectly correct wait on A). Each guard therefore remembers
/// its owning thread and releases under that key.
#[cfg(debug_assertions)]
mod reentry {
    use std::collections::HashMap;
    use std::sync::{Mutex, MutexGuard, OnceLock};
    use std::thread::{self, ThreadId};

    type Held = HashMap<(usize, u64, ThreadId), u32>;

    fn held_map() -> MutexGuard<'static, Held> {
        static HELD: OnceLock<Mutex<Held>> = OnceLock::new();
        HELD.get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub(super) fn record(pool: usize, block: u64) {
        *held_map()
            .entry((pool, block, thread::current().id()))
            .or_insert(0) += 1;
    }

    pub(super) fn release(pool: usize, block: u64, owner: ThreadId) {
        let mut held = held_map();
        if let Some(n) = held.get_mut(&(pool, block, owner)) {
            *n -= 1;
            if *n == 0 {
                held.remove(&(pool, block, owner));
            }
        }
    }

    pub(super) fn held_by_current(pool: usize, block: u64) -> bool {
        held_map().contains_key(&(pool, block, thread::current().id()))
    }
}

/// Shared state of the background prefetcher: a bounded FIFO of block
/// hints plus worker coordination. The queue bound (8 x worker count)
/// caps how far a kernel's declared access pattern can run ahead of its
/// pins — excess hints are dropped, never queued, so a misbehaving caller
/// cannot turn the prefetcher into a cache-thrashing scan.
#[derive(Default)]
struct PrefetchQueue {
    pending: VecDeque<BlockId>,
    /// Blocks currently in `pending` (dedup: prefetching a window twice
    /// costs one queue slot, and at most one background load).
    enqueued: HashSet<u64>,
    /// Workers currently processing a dequeued block.
    busy: usize,
    shutdown: bool,
}

#[derive(Default)]
struct PrefetchState {
    queue: Mutex<PrefetchQueue>,
    /// Workers sleep here for new hints.
    work: Condvar,
    /// [`BufferPool::wait_prefetch_idle`] sleeps here for full drain.
    idle: Condvar,
}

/// A sharded, thread-safe buffer pool over a [`BlockDevice`].
///
/// The pool proper lives in a private `PoolCore` behind an `Arc` shared
/// with the background prefetch workers. The workers start with the first
/// hint that queues a load, so a pool that is never asked to prefetch runs
/// no thread; dropping the `BufferPool` shuts them down and joins them,
/// so no background I/O outlives the handle.
pub struct BufferPool {
    core: Arc<PoolCore>,
    /// Prefetch worker handles, spawned by the first queued hint and
    /// joined on drop.
    workers: OnceLock<Vec<JoinHandle<()>>>,
}

/// The pool state shared between the owning [`BufferPool`] handle and the
/// prefetch workers.
struct PoolCore {
    shards: Box<[Shard]>,
    /// Devices synchronize internally (`&self` methods), so misses and
    /// write-backs from different shards — or for different blocks of one
    /// shard — dispatch without any pool-side device lock.
    device: Box<dyn BlockDevice>,
    io: Arc<IoStats>,
    in_flight: InFlight,
    block_size: usize,
    elems_per_block: usize,
    capacity: usize,
    /// Resolved worker count (0 = prefetching disabled).
    prefetch_depth: usize,
    prefetch: PrefetchState,
    /// Trace recorder shared by every layer above this pool (disabled by
    /// default; recording never changes what the pool reads or writes).
    tracer: Arc<Tracer>,
    /// Bound on the exhausted-shard pin wait (see
    /// [`PoolConfig::pin_timeout`]).
    pin_timeout: Duration,
    /// The query governor this pool answers to, when a storage context
    /// attached one: pin waits observe cancellation, and pin acquisition
    /// enforces `max_pinned_frames`. Empty = ungoverned (one atomic load
    /// on the pin path).
    governor: OnceLock<Arc<QueryGovernor>>,
}

impl BufferPool {
    /// Build a single-shard pool with `config.frames` frames over `device`.
    ///
    /// Single-shard pools reproduce the sequential pool's eviction order
    /// and I/O counts exactly, which the cost-model validation relies on.
    pub fn new(device: Box<dyn BlockDevice>, config: PoolConfig) -> Self {
        Self::new_sharded(device, config, 1)
    }

    /// Build a pool striped over `shards` partitions (clamped to
    /// `[1, config.frames]`). Blocks map to shards by id modulo the shard
    /// count; frames are divided evenly, with the remainder going to the
    /// lowest-numbered shards.
    pub fn new_sharded(device: Box<dyn BlockDevice>, config: PoolConfig, shards: usize) -> Self {
        Self::with_tracer(device, config, shards, Arc::new(Tracer::new()))
    }

    /// Build a sharded pool recording into `tracer` (disabled tracers cost
    /// one relaxed atomic load per would-be event). Sharing one tracer
    /// between the pool and the device wrappers stacked beneath it
    /// ([`crate::RetryDevice`], [`crate::VerifyingDevice`]) merges their
    /// events into a single timeline.
    pub fn with_tracer(
        device: Box<dyn BlockDevice>,
        config: PoolConfig,
        shards: usize,
        tracer: Arc<Tracer>,
    ) -> Self {
        assert!(config.frames > 0, "pool needs at least one frame");
        let block_size = device.block_size();
        assert!(
            block_size.is_multiple_of(std::mem::size_of::<f64>()),
            "block size must hold whole f64 elements"
        );
        let elems_per_block = block_size / std::mem::size_of::<f64>();
        let io = device.stats();
        let prefetch_depth = if config.prefetch_depth == PREFETCH_AUTO {
            if !device.persistent() {
                0
            } else if device.concurrent_io() {
                8
            } else {
                2
            }
        } else {
            config.prefetch_depth
        };
        let nshards = shards.clamp(1, config.frames);
        let shards = (0..nshards)
            .map(|s| {
                let frames = config.frames / nshards + usize::from(s < config.frames % nshards);
                Shard {
                    meta: Mutex::new(ShardMeta::new(frames)),
                    unpinned: Condvar::new(),
                    bufs: FrameBuf::new(frames, elems_per_block),
                    counters: Counters::default(),
                }
            })
            .collect();
        let core = Arc::new(PoolCore {
            shards,
            device,
            io,
            in_flight: InFlight::default(),
            block_size,
            elems_per_block,
            capacity: config.frames,
            prefetch_depth,
            prefetch: PrefetchState::default(),
            tracer,
            pin_timeout: config.pin_timeout,
            governor: OnceLock::new(),
        });
        BufferPool {
            core,
            workers: OnceLock::new(),
        }
    }

    /// Hint that `blocks` will be pinned soon: background workers load the
    /// non-resident ones into frames, so the eventual pins hit (or wait
    /// out the in-flight load through the single-flight path) instead of
    /// stalling on a device read.
    ///
    /// This is a pure scheduling hint with first-class counted-I/O
    /// semantics: a block that is resident, already in flight, or already
    /// queued is skipped (no duplicate read), so for an access pattern
    /// whose window is pinned before pool pressure evicts it, device
    /// read/write totals are **bit-for-bit the no-prefetch totals** —
    /// prefetching changes when reads happen, never how many. Hints past
    /// the queue bound are dropped (the pin performs the read instead);
    /// failed background loads release their slot and leave the next pin
    /// to retry on the device. Returns without consuming `blocks` when
    /// `PoolConfig::prefetch_depth` is 0. The first hint that queues a
    /// load starts the workers.
    pub fn prefetch(&self, blocks: impl IntoIterator<Item = BlockId>) {
        let core = &*self.core;
        if core.prefetch_depth == 0 {
            return;
        }
        let cap = 8 * core.prefetch_depth;
        let mut queued_any = false;
        for block in blocks {
            // Cheap residency probe outside the queue lock: a mapped block
            // (resident or in flight) needs no background load.
            if lock(&core.shard_of(block).meta).map.contains_key(&block) {
                continue;
            }
            let mut q = lock(&core.prefetch.queue);
            if q.shutdown || q.enqueued.contains(&block.0) || q.pending.len() >= cap {
                continue;
            }
            q.pending.push_back(block);
            q.enqueued.insert(block.0);
            queued_any = true;
        }
        if queued_any {
            // The first queued hint starts the workers: a pool that never
            // prefetches runs no thread, so creating and dropping one never
            // interleaves worker start-up and exit with the caller's work.
            self.workers.get_or_init(|| {
                let spawn = |i| {
                    let core = Arc::clone(&self.core);
                    std::thread::Builder::new()
                        .name(format!("riot-prefetch-{i}"))
                        .spawn(move || core.prefetch_worker())
                        .expect("spawn prefetch worker")
                };
                (0..core.prefetch_depth).map(spawn).collect()
            });
            core.prefetch.work.notify_all();
        }
    }

    /// Block until the prefetch queue is empty and every worker is idle
    /// (tests use this to make prefetch counters deterministic). No-op
    /// when prefetching is disabled.
    pub fn wait_prefetch_idle(&self) {
        let prefetch = &self.core.prefetch;
        let mut q = lock(&prefetch.queue);
        while !q.shutdown && (!q.pending.is_empty() || q.busy > 0) {
            q = wait(&prefetch.idle, q);
        }
    }

    /// Resolved prefetch worker count (0 = prefetching disabled).
    pub fn prefetch_depth(&self) -> usize {
        self.core.prefetch_depth
    }

    /// Block size in bytes of the underlying device.
    pub fn block_size(&self) -> usize {
        self.core.block_size
    }

    /// `f64` elements per block (and per pinned frame slice).
    pub fn elems_per_block(&self) -> usize {
        self.core.elems_per_block
    }

    /// Pool capacity in frames.
    pub fn capacity(&self) -> usize {
        self.core.capacity
    }

    /// Number of lock-striped partitions.
    pub fn num_shards(&self) -> usize {
        self.core.shards.len()
    }

    /// Number of blocks currently resident (in-flight loads included).
    pub fn resident(&self) -> usize {
        self.core
            .shards
            .iter()
            .map(|s| lock(&s.meta).map.len())
            .sum()
    }

    /// Number of frames currently pinned (shared or exclusive). A
    /// quiesced pool with no guards outstanding reports 0 — the
    /// leak-free-abort invariant asserts exactly that after every
    /// cancelled or budget-aborted query.
    pub fn pinned_frames(&self) -> usize {
        self.core.pinned_frames()
    }

    /// Attach the query governor this pool consults on the pin path:
    /// exhausted-shard waits observe cancellation, and pin admission
    /// enforces [`crate::ResourceLimits::max_pinned_frames`]. One
    /// governor per pool, set once at context construction; without one
    /// the pin path pays a single `OnceLock` load.
    pub fn attach_governor(&self, governor: Arc<QueryGovernor>) {
        let _ = self.core.governor.set(governor);
    }

    /// The attached governor, if any.
    pub fn governor(&self) -> Option<&Arc<QueryGovernor>> {
        self.core.governor.get()
    }

    /// Drop every queued (not yet claimed) prefetch hint, returning how
    /// many were discarded. An aborting query calls this so its declared
    /// future windows stop turning into background reads it will never
    /// pin; hints a worker already claimed finish normally (their frames
    /// publish unpinned and evictable — no pin leak either way).
    pub fn discard_prefetch_queue(&self) -> usize {
        let mut q = lock(&self.core.prefetch.queue);
        let dropped = q.pending.len();
        q.pending.clear();
        q.enqueued.clear();
        if q.busy == 0 {
            self.core.prefetch.idle.notify_all();
        }
        dropped
    }

    /// Shared device I/O counters.
    pub fn io_stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.core.io)
    }

    /// The pool's trace recorder (shared with every layer instrumenting
    /// against this pool; disabled by default).
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.core.tracer
    }

    /// Gauges of device I/O currently outstanding on the pool's behalf
    /// (plus all-time concurrency high-water marks).
    pub fn in_flight(&self) -> &InFlight {
        &self.core.in_flight
    }

    /// Whether the underlying device claims genuinely overlapping I/O for
    /// distinct blocks (see [`BlockDevice::concurrent_io`]).
    pub fn device_concurrent_io(&self) -> bool {
        self.core.device.concurrent_io()
    }

    /// Cache hit/miss counters, summed over shards.
    pub fn pool_stats(&self) -> PoolStats {
        self.shard_stats()
            .iter()
            .fold(PoolStats::default(), |total, s| total.zip(s, |a, b| a + b))
    }

    /// Per-shard cache counters, in shard order.
    pub fn shard_stats(&self) -> Vec<PoolStats> {
        self.core.shards.iter().map(|s| s.counters.load()).collect()
    }

    /// Allocate `n` fresh contiguous device blocks (no I/O).
    ///
    /// A device may reissue ids it took back (a [`crate::FileBlockDevice`]
    /// shrinks its file once freed blocks reach its end), so a frame that a
    /// late background load left for one of them is dropped here: a fresh
    /// block reads as zeros, never as its previous owner's data.
    pub fn allocate_blocks(&self, n: u64) -> Result<BlockId> {
        let start = self.core.device.allocate(n)?;
        self.discard_blocks(start, n);
        Ok(start)
    }

    /// Release `n` device blocks starting at `start`, dropping any resident
    /// frames without writing them back ([`BufferPool::discard_blocks`]).
    pub fn free_blocks(&self, start: BlockId, n: u64) -> Result<()> {
        self.discard_blocks(start, n);
        self.core.device.free(start, n)
    }

    /// Drop any resident frames of the `n` blocks at `start` without
    /// writing them back; the device blocks stay allocated.
    ///
    /// Blocks with device I/O in flight (another thread's eviction,
    /// flush, or background prefetch picked the frame — states callers
    /// cannot observe) are waited out first: an eviction removes the
    /// mapping, a flush returns the frame to `Resident`, a background
    /// load publishes (or releases) its claim. Panics if any of the blocks
    /// is still pinned: recycling a pinned frame would alias a live
    /// guard's `&[f64]`, so this is a hard invariant in release builds
    /// too.
    pub fn discard_blocks(&self, start: BlockId, n: u64) {
        for i in 0..n {
            let id = start.offset(i);
            let shard = self.core.shard_of(id);
            let mut meta = lock(&shard.meta);
            // Loop ends when the block is absent (never resident, or its
            // in-flight eviction completed and unmapped it) or dropped.
            while let Some(&frame) = meta.map.get(&id) {
                if meta.frames[frame].state != FrameState::Resident {
                    meta = wait(&shard.unpinned, meta);
                    continue;
                }
                let fm = &meta.frames[frame];
                // Checked before any mutation so the panic leaves the shard
                // consistent (the caller's guard still unpins cleanly).
                assert!(fm.readers == 0 && !fm.writer, "freeing a pinned block");
                if meta.unmap(frame) {
                    self.core.note_wasted(shard, id);
                }
                drop(meta);
                // A dropped frame is claimable; wake frame seekers.
                shard.unpinned.notify_all();
                break;
            }
        }
    }

    /// Pin `block` for reading, loading it from the device if absent.
    ///
    /// The returned guard dereferences to the block's `&[f64]` and keeps
    /// the frame resident until dropped. Blocks while another thread holds
    /// an exclusive pin on the same block.
    pub fn pin(&self, block: BlockId) -> Result<PinnedFrame<'_>> {
        self.core
            .acquire(block, Miss::Read(AccessMode::Shared))
            .map(PinnedFrame)
    }

    /// Pin `block` for exclusive read-write access, loading it from the
    /// device if absent. The frame is marked dirty.
    pub fn pin_mut(&self, block: BlockId) -> Result<PinnedFrameMut<'_>> {
        self.core
            .acquire(block, Miss::Read(AccessMode::Exclusive))
            .map(PinnedFrameMut)
    }

    /// Pin `block` for exclusive access *without* reading it from the
    /// device, for blocks that were just allocated and will be fully
    /// overwritten. The frame is dirty, so the eventual eviction/flush
    /// writes it out — building a new array therefore costs exactly its
    /// write I/O. Contents are zeroed when the block was not resident and
    /// stale when it was: callers that do not overwrite every element must
    /// `fill` first.
    pub fn pin_new(&self, block: BlockId) -> Result<PinnedFrameMut<'_>> {
        self.core.acquire(block, Miss::Fresh).map(PinnedFrameMut)
    }

    /// Pin for reading, run `f` over the page bytes, unpin.
    ///
    /// Compatibility wrapper over [`BufferPool::pin`] for byte-oriented
    /// callers (tests, harnesses); kernels should pin and read the `f64`
    /// slice directly.
    pub fn read<R>(&self, block: BlockId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let page = self.pin(block)?;
        Ok(f(page.as_bytes()))
    }

    /// Pin exclusively, run `f` over the page bytes (marking dirty), unpin.
    pub fn write<R>(&self, block: BlockId, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        let mut page = self.pin_mut(block)?;
        Ok(f(page.as_bytes_mut()))
    }

    /// Like [`BufferPool::write`] but for freshly allocated blocks: skips
    /// the device read entirely.
    pub fn write_new<R>(&self, block: BlockId, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        let mut page = self.pin_new(block)?;
        Ok(f(page.as_bytes_mut()))
    }

    /// Write every dirty frame back to the device (frames stay resident),
    /// then issue a [`BlockDevice::sync`] barrier so the flush is a real
    /// durability point, not just a cache handoff.
    ///
    /// Frames held under an exclusive pin are skipped: their holder will
    /// mark them dirty again anyway, and flushing mid-write would persist a
    /// torn page. Each write runs with the shard lock dropped, so pins of
    /// other blocks proceed while the flush streams out.
    pub fn flush_all(&self) -> Result<()> {
        for shard in self.core.shards.iter() {
            let mut meta = lock(&shard.meta);
            for frame in 0..meta.frames.len() {
                let (meta_back, res) = self.core.flush_frame(shard, meta, frame);
                meta = meta_back;
                res?;
            }
        }
        // Durability barrier: a successful flush means the data is on
        // stable storage, not just in the device's write cache.
        self.core.device.sync()
    }

    /// Force previously written blocks to stable storage (see
    /// [`BlockDevice::sync`]; counted in [`crate::IoSnapshot::syncs`]).
    pub fn sync(&self) -> Result<()> {
        self.core.device.sync()
    }

    /// Direct access to the underlying device, bypassing pool frames.
    ///
    /// For metadata paths (the crash-consistent catalog store) whose
    /// blocks are exclusively owned by the caller and never pinned through
    /// the pool — mixing pooled and direct access to the *same* block
    /// would desynchronize the frame cache.
    pub fn device(&self) -> &dyn BlockDevice {
        &*self.core.device
    }

    /// Flush one block if resident and dirty (and not exclusively pinned
    /// or already mid-write).
    pub fn flush_block(&self, block: BlockId) -> Result<()> {
        let shard = self.core.shard_of(block);
        let meta = lock(&shard.meta);
        match meta.map.get(&block) {
            Some(&frame) => self.core.flush_frame(shard, meta, frame).1,
            None => Ok(()),
        }
    }

    /// Drop every unpinned frame (flushing dirty ones), emptying the cache.
    ///
    /// Experiment harnesses call this between strategies so one run's
    /// residual cache cannot subsidize the next.
    pub fn clear_cache(&self) -> Result<()> {
        self.flush_all()?;
        for shard in self.core.shards.iter() {
            let mut meta = lock(&shard.meta);
            let resident: Vec<(BlockId, FrameId)> =
                meta.map.iter().map(|(&b, &f)| (b, f)).collect();
            for (block, frame) in resident {
                // Re-validate: writes below drop the lock, so the snapshot
                // list can go stale (frame recycled, block re-pinned).
                let still_ours = |m: &ShardMeta| {
                    m.map.get(&block) == Some(&frame) && m.frames[frame].evictable()
                };
                if !still_ours(&meta) {
                    continue;
                }
                if meta.frames[frame].dirty {
                    // A writer released between flush_all and here (or
                    // flush_all skipped it while exclusively pinned):
                    // write back so the update is not dropped with the
                    // frame.
                    let (meta_back, res) = self.core.flush_frame(shard, meta, frame);
                    meta = meta_back;
                    res?;
                    if !still_ours(&meta) || meta.frames[frame].dirty {
                        continue;
                    }
                }
                if meta.unmap(frame) {
                    self.core.note_wasted(shard, block);
                }
            }
            drop(meta);
            shard.unpinned.notify_all();
        }
        Ok(())
    }
}

impl Drop for BufferPool {
    /// Shut the prefetch workers down and join them: pending hints are
    /// abandoned, in-progress loads complete, and no background I/O
    /// outlives the pool handle.
    fn drop(&mut self) {
        {
            let mut q = lock(&self.core.prefetch.queue);
            q.shutdown = true;
            q.pending.clear();
            q.enqueued.clear();
        }
        self.core.prefetch.work.notify_all();
        for w in self.workers.take().into_iter().flatten() {
            let _ = w.join();
        }
    }
}

impl PoolCore {
    fn shard_of(&self, block: BlockId) -> &Shard {
        &self.shards[(block.0 % self.shards.len() as u64) as usize]
    }

    /// Identity of this pool for the debug re-entrancy registry.
    #[cfg(debug_assertions)]
    fn id(&self) -> usize {
        self as *const PoolCore as usize
    }

    /// A prefetch of `block` was recycled without ever being pinned.
    fn note_wasted(&self, shard: &Shard, block: BlockId) {
        shard
            .counters
            .prefetch_wasted
            .fetch_add(1, Ordering::Relaxed);
        self.tracer
            .record(EventKind::PrefetchWasted { block: block.0 });
    }

    /// About to sleep until `block`'s pin state changes: in debug builds,
    /// panic if this thread itself holds a pin on `block` — nobody else
    /// can release what we are waiting for, so the wait is a deadlock.
    fn check_not_reentrant(&self, _block: BlockId) {
        #[cfg(debug_assertions)]
        if reentry::held_by_current(self.id(), _block.0) {
            panic!(
                "re-entrant conflicting pin on block {_block}: this thread already \
                 holds a pin on it, so waiting for the block to be released would \
                 deadlock"
            );
        }
    }

    /// Take one pin on `block`: a hit on a mapped frame, or `miss` (never
    /// [`Miss::Prefetch`]) through [`PoolCore::load`].
    fn acquire(&self, block: BlockId, miss: Miss) -> Result<FramePin<'_>> {
        // Governed pin admission: `max_pinned_frames` is enforced here,
        // where pins are born, rather than at kernel checkpoints — the
        // budget bounds *concurrent* frame occupancy, not a running
        // total. Ungoverned cost: one `OnceLock` load.
        if let Some(gov) = self.governor.get() {
            if gov.engaged() && gov.in_query() {
                if let Some(limit) = gov.max_pinned_frames() {
                    let pinned = self.pinned_frames() as u64;
                    if pinned >= limit {
                        return Err(StorageError::BudgetExceeded {
                            resource: "pinned_frames",
                            used: pinned + 1,
                            limit,
                        });
                    }
                }
            }
        }
        let mode = match miss {
            Miss::Read(mode) => mode,
            Miss::Fresh | Miss::Prefetch => AccessMode::Exclusive,
        };
        let shard_idx = (block.0 % self.shards.len() as u64) as usize;
        let shard = &self.shards[shard_idx];
        // Count a coalesced wait at most once per pin request.
        let mut coalesced = false;
        let mut meta = lock(&shard.meta);
        let frame = loop {
            let Some(&frame) = meta.map.get(&block) else {
                let (meta_back, frame) = self.load(shard, meta, block, miss);
                meta = meta_back;
                match frame? {
                    Some(frame) => break frame,
                    None => continue, // the block appeared: re-run as a hit
                }
            };
            match meta.frames[frame].state {
                FrameState::LoadInFlight => {
                    // Single-flight: another thread — a sibling pin or a
                    // background prefetch worker — is already reading this
                    // block; wait for it to publish instead of issuing a
                    // second device read. Waits on a sibling pin's load
                    // count as coalesced; waits on a prefetch land as
                    // `prefetch_hits` when the published frame is pinned
                    // below.
                    if !coalesced && !meta.frames[frame].prefetched {
                        coalesced = true;
                        shard
                            .counters
                            .coalesced_loads
                            .fetch_add(1, Ordering::Relaxed);
                        self.tracer
                            .record(EventKind::CoalescedLoad { block: block.0 });
                    }
                    meta = wait(&shard.unpinned, meta);
                    continue;
                }
                FrameState::Evicting => {
                    // The block is on its way out; once the write-back
                    // finishes the mapping is gone and this pin re-runs as
                    // a miss (or, if the write-back fails, as a hit on the
                    // restored frame).
                    meta = wait(&shard.unpinned, meta);
                    continue;
                }
                FrameState::WriteBackInFlight if mode == AccessMode::Exclusive => {
                    // The flush snapshot is consistent, but mutating under
                    // it would race the dirty-bit bookkeeping: writers wait
                    // the flush out. (Shared pins proceed.)
                    meta = wait(&shard.unpinned, meta);
                    continue;
                }
                FrameState::WriteBackInFlight | FrameState::Resident => {}
            }
            let conflict = match mode {
                // Shared pins also yield to queued writers (write
                // preference), or overlapping readers could starve an
                // exclusive waiter forever.
                AccessMode::Shared => {
                    meta.frames[frame].writer || meta.write_waiters.contains_key(&block)
                }
                AccessMode::Exclusive => {
                    meta.frames[frame].writer || meta.frames[frame].readers > 0
                }
            };
            if conflict {
                self.check_not_reentrant(block);
                if mode == AccessMode::Exclusive {
                    *meta.write_waiters.entry(block).or_insert(0) += 1;
                }
                meta = wait(&shard.unpinned, meta);
                if mode == AccessMode::Exclusive {
                    let n = meta.write_waiters.get_mut(&block).expect("waiter entry");
                    *n -= 1;
                    if *n == 0 {
                        meta.write_waiters.remove(&block);
                        // Shared pins parked on the waiter entry can go.
                        shard.unpinned.notify_all();
                    }
                }
                continue; // re-check: the frame may have moved or gone
            }
            if meta.frames[frame].prefetched {
                // First pin of a prefetched frame: the background load paid
                // this pin's device read.
                meta.frames[frame].prefetched = false;
                shard.counters.prefetch_hits.fetch_add(1, Ordering::Relaxed);
                self.tracer
                    .record(EventKind::PrefetchHit { block: block.0 });
            }
            shard.counters.hits.fetch_add(1, Ordering::Relaxed);
            meta.grant(frame, mode);
            break frame;
        };
        #[cfg(debug_assertions)]
        reentry::record(self.id(), block.0);
        Ok(FramePin {
            pool: self,
            shard: shard_idx,
            frame,
            block,
            mode,
            ptr: shard.bufs.ptr(frame),
            len: self.elems_per_block,
            #[cfg(debug_assertions)]
            owner: std::thread::current().id(),
        })
    }

    /// The miss edge, `(free) → LoadInFlight → Resident`, and the one place
    /// a block is read into a frame: obtain a frame, count the miss, claim
    /// the frame for `block`, read it with the shard lock dropped, publish
    /// it, and grant the pin a [`Miss::Read`] asked for. [`Miss::Fresh`]
    /// skips the read and goes `(free) → Resident` under the lock,
    /// zero-filled.
    ///
    /// `Ok(None)` means nothing was claimed: `block` is mapped after all
    /// (the caller re-runs its resident path; a prefetch is skipped), or a
    /// prefetch found no frame without waiting. A failed read releases the
    /// slot — no leaked frame, no stale mapping — and the waiters it wakes
    /// find the block absent and load it themselves.
    fn load<'a>(
        &self,
        shard: &'a Shard,
        meta: MutexGuard<'a, ShardMeta>,
        block: BlockId,
        miss: Miss,
    ) -> (MutexGuard<'a, ShardMeta>, Result<Option<FrameId>>) {
        // Never wait for a frame on a prefetch: under pool pressure a hint
        // is worth less than the frames the compute path is actively using.
        let (mut meta, frame) = self.obtain_frame(shard, meta, block, miss != Miss::Prefetch);
        let frame = match frame {
            Ok(Some(frame)) => frame,
            other => return (meta, other),
        };
        if miss == Miss::Prefetch {
            shard
                .counters
                .prefetch_issued
                .fetch_add(1, Ordering::Relaxed);
            self.tracer
                .record(EventKind::PrefetchIssued { block: block.0 });
        } else {
            shard.counters.misses.fetch_add(1, Ordering::Relaxed);
            self.tracer.record(EventKind::PoolMiss { block: block.0 });
        }
        let buf = shard.bufs.ptr(frame);
        if miss == Miss::Fresh {
            // SAFETY: the frame came off the free list (unpinned, unmapped)
            // and the shard lock is held, so no other thread can observe
            // or touch it.
            unsafe { std::slice::from_raw_parts_mut(buf, self.elems_per_block) }.fill(0.0);
            meta.claim(frame, block, FrameState::Resident, false);
            meta.grant(frame, AccessMode::Exclusive);
            return (meta, Ok(Some(frame)));
        }
        // Claim the slot, then read with the shard lock dropped. Pins of
        // this block find the LoadInFlight entry and wait (single-flight);
        // pins of other blocks proceed.
        meta.claim(
            frame,
            block,
            FrameState::LoadInFlight,
            miss == Miss::Prefetch,
        );
        meta.in_flight += 1;
        self.in_flight.begin_load();
        drop(meta);

        // SAFETY: the frame is claimed by the LoadInFlight state: it is not
        // free, not evictable, and every pin of its block waits, so this
        // thread has sole access to the buffer.
        let bytes = unsafe { std::slice::from_raw_parts_mut(buf.cast::<u8>(), self.block_size) };
        let mut res = self.device.read_block(block, bytes);
        if miss != Miss::Prefetch && matches!(res, Err(StorageError::Corruption { .. })) {
            // Containment rule: a corrupt demand load re-reads the device
            // once — the copy that failed validation may have been a
            // transient transfer fault rather than rot at rest — before
            // surfacing the typed error. A background load reads once; the
            // pin that follows it retries.
            res = self.device.read_block(block, bytes);
        }

        let mut meta = lock(&shard.meta);
        meta.in_flight -= 1;
        self.in_flight.end_load();
        shard.unpinned.notify_all();
        if let Err(e) = res {
            // A failed prefetch is not counted as wasted (see `PoolStats`).
            meta.unmap(frame);
            return (meta, Err(e));
        }
        meta.frames[frame].state = FrameState::Resident;
        if let Miss::Read(mode) = miss {
            meta.grant(frame, mode);
        } else {
            // A prefetch publishes unpinned and evictable, ranked by its
            // publish time: an unused prefetch must never outrank the
            // compute path's frames.
            meta.touch(frame);
        }
        (meta, Ok(Some(frame)))
    }

    /// Find a frame for `block` in `shard`: reuse a free one or evict a
    /// victim. A dirty victim's copy is written back with the shard lock
    /// dropped (state [`FrameState::Evicting`]), so pins of other blocks
    /// never stall on the victim's I/O.
    ///
    /// Evicting and waiting both drop the lock, so every attempt first
    /// checks whether `block` got mapped meanwhile and returns `Ok(None)`
    /// if so (the caller re-runs its resident path; an evicted victim stays
    /// on the free list). With `wait` set (the pin path), an apparently
    /// exhausted shard with transfers outstanding waits for them (a failed
    /// load or a finished eviction frees a frame). With `wait` unset (the
    /// prefetch path), exhaustion returns `Ok(None)` immediately — a
    /// prefetch is a hint, and hanging a background worker on pool pressure
    /// would be worse than dropping the hint.
    fn obtain_frame<'a>(
        &self,
        shard: &'a Shard,
        mut meta: MutexGuard<'a, ShardMeta>,
        block: BlockId,
        wait_for_frame: bool,
    ) -> (MutexGuard<'a, ShardMeta>, Result<Option<FrameId>>) {
        // Eviction write-back failures absorbed so far by this request.
        // Each one leaves the victim intact (dirty, mapped, re-evictable)
        // and re-runs the victim pass — the bounded form of "retry on the
        // next pass", so a transient device hiccup never surfaces poison
        // while a genuinely dead device still errors out promptly.
        let mut writeback_failures = 0u32;
        const WRITEBACK_FAILURE_LIMIT: u32 = 3;
        // Set when this request first finds the shard exhausted with
        // transfers in flight; bounds the total wait across re-checks.
        let mut wait_start: Option<Instant> = None;
        loop {
            if meta.map.contains_key(&block) {
                return (meta, Ok(None));
            }
            if let Some(frame) = meta.free.pop() {
                return (meta, Ok(Some(frame)));
            }
            let Some(victim) = meta.victim() else {
                if !wait_for_frame {
                    return (meta, Ok(None));
                }
                if meta.in_flight > 0 {
                    // Bounded wait: in-flight transfers normally free a
                    // frame within device latency, so only a wedged
                    // transfer ever reaches the timeout — and a cancelled
                    // query stops waiting at the next wake-up instead of
                    // riding out the full bound.
                    let start = *wait_start.get_or_insert_with(Instant::now);
                    if let Some(gov) = self.governor.get() {
                        if gov.engaged() && gov.is_cancelled() {
                            return (
                                meta,
                                Err(StorageError::Cancelled {
                                    at: "pool.pin_wait",
                                }),
                            );
                        }
                    }
                    let waited = start.elapsed();
                    if waited >= self.pin_timeout {
                        return (
                            meta,
                            Err(StorageError::PinTimeout {
                                frames: self.capacity,
                                waited_ms: waited.as_millis() as u64,
                            }),
                        );
                    }
                    let slice = (self.pin_timeout - waited).min(Duration::from_millis(50));
                    meta = wait_timeout(shard, meta, slice);
                    continue;
                }
                return (
                    meta,
                    Err(StorageError::PoolExhausted {
                        frames: self.capacity,
                    }),
                );
            };
            let old_block = meta.frames[victim]
                .block
                .expect("victim frame must hold a block");
            if !meta.frames[victim].dirty {
                if meta.unmap(victim) {
                    self.note_wasted(shard, old_block);
                }
                self.tracer.record(EventKind::PoolEvict {
                    block: old_block.0,
                    dirty: false,
                });
                continue; // the free-list pop above hands the victim out
            }

            // Dirty-copy-then-write: the Evicting state keeps the victim
            // frame unreachable (not free, not evictable, its block's pins
            // wait), so the snapshot cannot go stale, and pins of other
            // blocks never stall on the victim's I/O.
            let (meta_back, res) =
                self.write_out(shard, meta, victim, old_block, FrameState::Evicting);
            meta = meta_back;
            match res {
                Ok(()) => {
                    shard
                        .counters
                        .evict_writebacks
                        .fetch_add(1, Ordering::Relaxed);
                    self.tracer.record(EventKind::PoolEvict {
                        block: old_block.0,
                        dirty: true,
                    });
                    if meta.unmap(victim) {
                        self.note_wasted(shard, old_block);
                    }
                }
                Err(e) => {
                    // Failed write-back: the victim stays mapped and dirty
                    // (nothing stranded) and becomes the most recently
                    // used, so the next pass prefers a different frame when
                    // one is evictable (and re-tries this one otherwise —
                    // either way a transient fault recovers without the
                    // caller noticing).
                    meta.touch(victim);
                    writeback_failures += 1;
                    if writeback_failures >= WRITEBACK_FAILURE_LIMIT {
                        return (meta, Err(e));
                    }
                    shard
                        .counters
                        .writeback_retries
                        .fetch_add(1, Ordering::Relaxed);
                    self.tracer
                        .record(EventKind::WritebackRetry { block: old_block.0 });
                }
            }
        }
    }

    fn unpin(&self, shard_idx: usize, frame: FrameId, mode: AccessMode) {
        let shard = &self.shards[shard_idx];
        let mut meta = lock(&shard.meta);
        let fm = &mut meta.frames[frame];
        match mode {
            AccessMode::Shared => {
                debug_assert!(fm.readers > 0, "unpin of unpinned frame");
                fm.readers -= 1;
            }
            AccessMode::Exclusive => {
                debug_assert!(fm.writer, "unpin of unpinned frame");
                fm.writer = false;
            }
        }
        // A frame can be unpinned to zero while a flush of it is in flight
        // (shared pins are legal then); the flush completion wakes frame
        // seekers in that case, not here.
        if fm.evictable() {
            drop(meta);
            shard.unpinned.notify_all();
        }
    }

    /// The write-out edge, `Resident → Evicting | WriteBackInFlight →
    /// Resident`, and the one place a frame is written to the device:
    /// snapshot dirty `frame` under the lock, park it in `state`, write the
    /// snapshot to `block` with the lock dropped, and restore `Resident`.
    /// What success means is the caller's: eviction unmaps the frame, a
    /// flush clears its dirty bit. On failure the frame stays dirty.
    fn write_out<'a>(
        &self,
        shard: &'a Shard,
        mut meta: MutexGuard<'a, ShardMeta>,
        frame: FrameId,
        block: BlockId,
        state: FrameState,
    ) -> (MutexGuard<'a, ShardMeta>, Result<()>) {
        debug_assert!(
            meta.frames[frame].flushable(),
            "write-out of a clean or busy frame"
        );
        // SAFETY: no writer is active (every caller checks the frame is
        // flushable, as asserted above, and no exclusive pin can start
        // while it is in flight) and the shard lock is held for the copy,
        // so the snapshot is consistent.
        let copy: Box<[u8]> = unsafe {
            std::slice::from_raw_parts(shard.bufs.ptr(frame).cast::<u8>(), self.block_size)
        }
        .into();
        meta.frames[frame].state = state;
        meta.in_flight += 1;
        self.in_flight.begin_writeback();
        drop(meta);

        let res = self.device.write_block(block, &copy);

        let mut meta = lock(&shard.meta);
        meta.in_flight -= 1;
        self.in_flight.end_writeback();
        meta.frames[frame].state = FrameState::Resident;
        if res.is_ok() {
            self.tracer
                .record(EventKind::PoolWriteBack { block: block.0 });
        }
        // Wake pins parked on the frame's block (an evicted one re-runs as
        // a miss, a restored one as a hit) and frame seekers.
        shard.unpinned.notify_all();
        (meta, res)
    }

    /// Flush `frame` in place if it is [`FrameMeta::flushable`] (state
    /// [`FrameState::WriteBackInFlight`]): shared readers of the block stay
    /// legal throughout, exclusive pins and eviction wait the write out,
    /// and success clears the dirty bit. Frames held under an exclusive
    /// pin are skipped: their holder will mark them dirty again anyway, and
    /// flushing mid-write would persist a torn page.
    fn flush_frame<'a>(
        &self,
        shard: &'a Shard,
        meta: MutexGuard<'a, ShardMeta>,
        frame: FrameId,
    ) -> (MutexGuard<'a, ShardMeta>, Result<()>) {
        let fm = &meta.frames[frame];
        if !fm.flushable() {
            return (meta, Ok(()));
        }
        let block = fm.block.expect("dirty frame must hold a block");
        let (mut meta, res) =
            self.write_out(shard, meta, frame, block, FrameState::WriteBackInFlight);
        if res.is_ok() {
            meta.frames[frame].dirty = false;
        }
        (meta, res)
    }

    /// See [`BufferPool::pinned_frames`].
    fn pinned_frames(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let meta = lock(&s.meta);
                meta.frames
                    .iter()
                    .filter(|f| f.readers > 0 || f.writer)
                    .count()
            })
            .sum()
    }

    /// Body of one background prefetch worker: dequeue hints and load them
    /// until shutdown.
    fn prefetch_worker(&self) {
        loop {
            let block = {
                let mut q = lock(&self.prefetch.queue);
                loop {
                    if q.shutdown {
                        self.prefetch.idle.notify_all();
                        return;
                    }
                    if let Some(block) = q.pending.pop_front() {
                        q.enqueued.remove(&block.0);
                        q.busy += 1;
                        break block;
                    }
                    q = wait(&self.prefetch.work, q);
                }
            };
            // The frame publishes unpinned, evictable and flagged
            // `prefetched`; a failure releases the slot silently and the
            // next pin of the block retries on the device.
            let shard = self.shard_of(block);
            let _ = self.load(shard, lock(&shard.meta), block, Miss::Prefetch);
            let mut q = lock(&self.prefetch.queue);
            q.busy -= 1;
            if q.pending.is_empty() && q.busy == 0 {
                self.prefetch.idle.notify_all();
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum AccessMode {
    Shared,
    Exclusive,
}

/// What a miss in [`PoolCore::load`] is for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Miss {
    /// `pin` / `pin_mut`: read the block, then grant the pin.
    Read(AccessMode),
    /// `pin_new`: zero-fill instead of reading, then grant an exclusive pin.
    Fresh,
    /// A background prefetch: read the block once and grant nothing.
    Prefetch,
}

/// The pin both guards wrap: one shared or exclusive pin on one frame,
/// taken by [`PoolCore::acquire`] and released when dropped.
struct FramePin<'p> {
    pool: &'p PoolCore,
    shard: usize,
    frame: FrameId,
    block: BlockId,
    mode: AccessMode,
    ptr: *mut f64,
    len: usize,
    /// Thread that took the pin; guards are `Send`, so the re-entrancy
    /// registry entry must be released under this key, not the dropper's.
    #[cfg(debug_assertions)]
    owner: std::thread::ThreadId,
}

// SAFETY: `ptr` stays valid while the pin holds, and the pin mode governs
// access through it: a shared pin excludes writers, and an exclusive pin
// excludes all other access, mutation needing `&mut` of the exclusive
// guard. The remaining fields are plain ids and a shared reference to
// the pool, whose pin bookkeeping goes through the shard mutex.
unsafe impl Send for FramePin<'_> {}
unsafe impl Sync for FramePin<'_> {}

impl FramePin<'_> {
    fn data(&self) -> &[f64] {
        // SAFETY: the pin keeps the frame resident and excludes writers
        // other than this pin's own holder.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    fn pins(&self) -> u32 {
        let meta = lock(&self.pool.shards[self.shard].meta);
        meta.frames[self.frame].readers + u32::from(meta.frames[self.frame].writer)
    }
}

impl std::fmt::Debug for FramePin<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self.mode {
            AccessMode::Shared => "PinnedFrame",
            AccessMode::Exclusive => "PinnedFrameMut",
        };
        f.debug_struct(name)
            .field("block", &self.block)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

impl Drop for FramePin<'_> {
    fn drop(&mut self) {
        self.pool.unpin(self.shard, self.frame, self.mode);
        #[cfg(debug_assertions)]
        reentry::release(self.pool.id(), self.block.0, self.owner);
    }
}

/// RAII shared pin on a block: dereferences to the page's `&[f64]`.
/// Dropping the guard unpins.
pub struct PinnedFrame<'p>(FramePin<'p>);

impl PinnedFrame<'_> {
    /// The pinned block's id.
    pub fn block(&self) -> BlockId {
        self.0.block
    }

    /// The page as `f64` elements (same as dereferencing the guard).
    pub fn data(&self) -> &[f64] {
        self
    }

    /// The page as raw bytes (for byte-oriented compatibility callers).
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: the shared pin keeps the frame stable; every byte of the
        // f64 buffer is initialized.
        unsafe { std::slice::from_raw_parts(self.0.ptr.cast::<u8>(), self.0.len * 8) }
    }

    /// Current pin count (for tests and invariant checks).
    pub fn pins(&self) -> u32 {
        self.0.pins()
    }
}

impl std::fmt::Debug for PinnedFrame<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl Deref for PinnedFrame<'_> {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        self.0.data()
    }
}

/// RAII exclusive pin on a block: dereferences to the page's `&mut [f64]`.
/// The frame is dirty for the guard's lifetime; dropping unpins.
pub struct PinnedFrameMut<'p>(FramePin<'p>);

impl PinnedFrameMut<'_> {
    /// The pinned block's id.
    pub fn block(&self) -> BlockId {
        self.0.block
    }

    /// The page as mutable `f64` elements.
    pub fn data_mut(&mut self) -> &mut [f64] {
        self
    }

    /// The page as mutable raw bytes (byte-oriented compatibility callers).
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: the exclusive pin gives sole access; all bit patterns are
        // valid for both u8 and f64.
        unsafe { std::slice::from_raw_parts_mut(self.0.ptr.cast::<u8>(), self.0.len * 8) }
    }

    /// Current pin count (for tests and invariant checks).
    pub fn pins(&self) -> u32 {
        self.0.pins()
    }
}

impl std::fmt::Debug for PinnedFrameMut<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl Deref for PinnedFrameMut<'_> {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        self.0.data()
    }
}

impl DerefMut for PinnedFrameMut<'_> {
    fn deref_mut(&mut self) -> &mut [f64] {
        // SAFETY: the exclusive pin excludes all other access.
        unsafe { std::slice::from_raw_parts_mut(self.0.ptr, self.0.len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem_device::MemBlockDevice;
    use crate::testing::FailpointDevice;

    fn pool(frames: usize) -> BufferPool {
        BufferPool::new(
            Box::new(MemBlockDevice::new(64)),
            PoolConfig {
                frames,
                ..PoolConfig::default()
            },
        )
    }

    #[test]
    fn read_own_writes_through_cache() {
        let p = pool(4);
        let b = p.allocate_blocks(1).unwrap();
        p.write_new(b, |d| d[3] = 7).unwrap();
        assert_eq!(p.read(b, |d| d[3]).unwrap(), 7);
        // Still resident: zero device reads so far, zero writes (not flushed).
        let snap = p.io_stats().snapshot();
        assert_eq!(snap.reads, 0);
        assert_eq!(snap.writes, 0);
    }

    #[test]
    fn pinned_slices_are_f64_views() {
        let p = pool(4);
        let b = p.allocate_blocks(1).unwrap();
        {
            let mut g = p.pin_new(b).unwrap();
            g[0] = 1.5;
            g[7] = -2.25;
        }
        let g = p.pin(b).unwrap();
        assert_eq!(g.len(), 8); // 64-byte blocks hold 8 f64s
        assert_eq!(g[0], 1.5);
        assert_eq!(g[7], -2.25);
        assert_eq!(g.data()[1], 0.0);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let p = pool(2);
        let b = p.allocate_blocks(3).unwrap();
        p.write_new(b, |d| d[0] = 1).unwrap();
        p.write_new(b.offset(1), |d| d[0] = 2).unwrap();
        // Loading a third block evicts the LRU dirty page -> 1 device write.
        p.write_new(b.offset(2), |d| d[0] = 3).unwrap();
        let snap = p.io_stats().snapshot();
        assert_eq!(snap.writes, 1);
        // Reading block 0 back must hit the device and see the written data.
        assert_eq!(p.read(b, |d| d[0]).unwrap(), 1);
        assert_eq!(p.io_stats().snapshot().reads, 1);
        assert!(p.pool_stats().evict_writebacks >= 1);
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        let p = pool(2);
        let b = p.allocate_blocks(3).unwrap();
        let mut guard = p.pin_new(b).unwrap();
        guard[0] = 42.0;
        let guard = guard; // drop mutable access, keep the pin
        p.write_new(b.offset(1), |d| d[0] = 1).unwrap();
        p.write_new(b.offset(2), |d| d[0] = 2).unwrap(); // evicts offset(1), not the pinned page
        assert_eq!(guard[0], 42.0);
        drop(guard);
        let g = p.pin(b).unwrap();
        assert_eq!(g[0], 42.0);
    }

    #[test]
    fn pool_exhausted_when_everything_pinned() {
        let p = pool(2);
        let b = p.allocate_blocks(3).unwrap();
        let _g1 = p.pin_new(b).unwrap();
        let _g2 = p.pin_new(b.offset(1)).unwrap();
        match p.pin_new(b.offset(2)) {
            Err(StorageError::PoolExhausted { frames: 2 }) => {}
            Err(other) => panic!("expected PoolExhausted, got {other:?}"),
            Ok(_) => panic!("expected PoolExhausted, got a page"),
        };
    }

    #[test]
    fn repinning_resident_block_is_a_hit() {
        let p = pool(2);
        let b = p.allocate_blocks(1).unwrap();
        p.write_new(b, |d| d[0] = 9).unwrap();
        let before = p.pool_stats();
        p.read(b, |_| ()).unwrap();
        let after = p.pool_stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses);
    }

    #[test]
    fn nested_shared_pins_on_same_block() {
        let p = pool(2);
        let b = p.allocate_blocks(1).unwrap();
        p.write_new(b, |d| d[0] = 3).unwrap();
        let g1 = p.pin(b).unwrap();
        let g2 = p.pin(b).unwrap();
        assert_eq!(g1.pins(), 2);
        assert_eq!(g1[0], g2[0]);
        drop(g1);
        assert_eq!(g2.pins(), 1);
    }

    #[test]
    fn flush_all_persists_and_clear_cache_empties() {
        let p = pool(4);
        let b = p.allocate_blocks(2).unwrap();
        p.write_new(b, |d| d[0] = 5).unwrap();
        p.write_new(b.offset(1), |d| d[0] = 6).unwrap();
        p.flush_all().unwrap();
        assert_eq!(p.io_stats().snapshot().writes, 2);
        p.clear_cache().unwrap();
        assert_eq!(p.resident(), 0);
        // Data still correct after cache cleared (comes from device now).
        assert_eq!(p.read(b.offset(1), |d| d[0]).unwrap(), 6);
        assert_eq!(p.io_stats().snapshot().reads, 1);
    }

    #[test]
    fn free_blocks_drops_frames_without_writeback() {
        let p = pool(4);
        let b = p.allocate_blocks(2).unwrap();
        p.write_new(b, |d| d[0] = 1).unwrap();
        p.free_blocks(b, 2).unwrap();
        assert_eq!(p.resident(), 0);
        assert_eq!(p.io_stats().snapshot().writes, 0);
        assert!(p.read(b, |_| ()).is_err());
    }

    #[test]
    fn hit_rate_reflects_locality() {
        let p = pool(4);
        let b = p.allocate_blocks(1).unwrap();
        p.write_new(b, |_| ()).unwrap();
        for _ in 0..9 {
            p.read(b, |_| ()).unwrap();
        }
        let s = p.pool_stats();
        assert_eq!(s.hits, 9);
        assert_eq!(s.misses, 1);
        assert!((s.hit_rate() - 0.9).abs() < 1e-12);
    }

    /// Misses one read of `block` costs: 0 when it was resident.
    fn misses_of(p: &BufferPool, block: BlockId) -> u64 {
        let before = p.pool_stats().misses;
        p.read(block, |_| ()).unwrap();
        p.pool_stats().misses - before
    }

    #[test]
    fn least_recently_pinned_frame_is_evicted_first() {
        let p = pool(3);
        let b = p.allocate_blocks(4).unwrap();
        for i in 0..3 {
            p.write_new(b.offset(i), |_| ()).unwrap();
        }
        // Re-pinning block 0 leaves block 1 the least recently pinned.
        p.read(b, |_| ()).unwrap();
        p.write_new(b.offset(3), |_| ()).unwrap();
        assert_eq!([0, 2, 3].map(|i| misses_of(&p, b.offset(i))), [0; 3]);
        let reads = p.io_stats().snapshot().reads;
        assert_eq!(misses_of(&p, b.offset(1)), 1, "block 1 was the victim");
        assert_eq!(p.io_stats().snapshot().reads, reads + 1);
        // That miss evicted block 0, the oldest of the three pins above.
        assert_eq!(misses_of(&p, b), 1);
    }

    #[test]
    fn victim_ties_go_to_the_lowest_frame() {
        let p = pool(3);
        let b = p.allocate_blocks(4).unwrap();
        for i in 0..3 {
            p.write_new(b.offset(i), |_| ()).unwrap(); // block i in frame i
        }
        {
            // Pins never repeat a stamp, so force the tie: frames 1 and 2
            // share the oldest one.
            let mut meta = lock(&p.core.shards[0].meta);
            for (f, stamp) in meta.frames.iter_mut().zip([8, 7, 7]) {
                f.last_use = stamp;
            }
        }
        p.write_new(b.offset(3), |_| ()).unwrap();
        assert_eq!([0, 2, 3].map(|i| misses_of(&p, b.offset(i))), [0; 3]);
        assert_eq!(misses_of(&p, b.offset(1)), 1, "frame 1 was the victim");
    }

    /// Two frames over a failpoint device, blocks 0..4 stored with
    /// `d[0] = i`: block 0 resident with the oldest stamp (dirty when
    /// asked), block 1 resident and clean with the newer one.
    fn two_frames(dirty_oldest: bool) -> (BufferPool, crate::FailpointHandle, BlockId) {
        let dev = FailpointDevice::new(Box::new(MemBlockDevice::new(64)));
        let fp = dev.handle();
        let config = PoolConfig {
            frames: 2,
            ..PoolConfig::default()
        };
        let p = BufferPool::new(Box::new(dev), config);
        let b = p.allocate_blocks(4).unwrap();
        for i in 0..4 {
            p.write_new(b.offset(i), |d| d[0] = i as u8).unwrap();
        }
        p.clear_cache().unwrap();
        if dirty_oldest {
            p.write(b, |d| d[0] = 9).unwrap();
        } else {
            p.read(b, |_| ()).unwrap();
        }
        p.read(b.offset(1), |_| ()).unwrap();
        (p, fp, b)
    }

    #[test]
    fn pinned_and_in_flight_frames_are_never_victims() {
        // Pinned: block 0 holds the oldest stamp, but a pin.
        let (p, _, b) = two_frames(false);
        let g = p.pin(b).unwrap();
        p.read(b.offset(1), |_| ()).unwrap();
        p.read(b.offset(2), |_| ()).unwrap();
        assert_eq!(g.as_bytes()[0], 0);
        drop(g);
        assert_eq!(misses_of(&p, b), 0, "the pinned block stayed");
        assert_eq!(misses_of(&p, b.offset(1)), 1, "block 1 was the victim");

        // In flight: a background transfer holds frame 0, whose stamp is
        // the oldest (a claimed load carries none), so a miss that ignored
        // its state would take it. Reading block 2 claims frame 0 for a
        // load, or — block 0 dirty — first evicts through it; flushing
        // block 0 writes it back in place.
        type Op = fn(&BufferPool, BlockId) -> BlockId;
        let read_2: Op = |p, b| {
            p.read(b.offset(2), |_| ()).unwrap();
            b.offset(2)
        };
        let flush_0: Op = |p, b| {
            p.flush_block(b).unwrap();
            b
        };
        for (state, dirty, background) in [
            ("LoadInFlight", false, read_2),
            ("Evicting", true, read_2),
            ("WriteBackInFlight", true, flush_0),
        ] {
            let (p, fp, b) = two_frames(dirty);
            fp.set_read_latency(Duration::from_millis(100));
            fp.set_write_latency(Duration::from_millis(100));
            let kept = std::thread::scope(|s| {
                let kept = s.spawn(|| background(&p, b));
                await_in_flight(&p);
                p.read(b.offset(3), |_| ()).unwrap();
                kept.join().unwrap()
            });
            fp.set_read_latency(Duration::ZERO);
            let want = |block: BlockId| if block == b { 9 } else { (block.0 - b.0) as u8 };
            for block in [kept, b.offset(3)] {
                let reads = p.io_stats().snapshot().reads;
                assert_eq!(p.read(block, |d| d[0]).unwrap(), want(block), "{state}");
                assert_eq!(
                    p.io_stats().snapshot().reads,
                    reads,
                    "{state}: {block} stayed"
                );
            }
            assert_eq!(
                misses_of(&p, b.offset(1)),
                1,
                "{state}: block 1 was the victim"
            );
        }
    }

    /// Every frame transition in one scripted single-threaded run, pinned
    /// event by event: `pin_new`, a flush, a clean and a dirty eviction, a
    /// failed eviction write-back, a prefetch that is hit and one that is
    /// wasted. Waiting out each hint keeps the background loads in order.
    #[test]
    fn scripted_transitions_trace_exactly() {
        let dev = FailpointDevice::new(Box::new(MemBlockDevice::new(64)));
        let fp = dev.handle();
        let tracer = Arc::new(Tracer::new());
        tracer.enable();
        let config = PoolConfig {
            frames: 2,
            prefetch_depth: 1,
            ..PoolConfig::default()
        };
        let p = BufferPool::with_tracer(Box::new(dev), config, 1, Arc::clone(&tracer));
        let b = p.allocate_blocks(4).unwrap();
        assert_eq!(b, BlockId(0));
        let hint = |block: u64| {
            p.prefetch([BlockId(block)]);
            p.wait_prefetch_idle();
        };
        p.write_new(BlockId(0), |d| d[0] = 10).unwrap();
        p.write_new(BlockId(1), |d| d[0] = 11).unwrap();
        p.flush_block(BlockId(0)).unwrap();
        p.write_new(BlockId(2), |d| d[0] = 12).unwrap(); // evicts clean 0
        fp.fail_writes(BlockId(1), 1);
        p.write_new(BlockId(3), |d| d[0] = 13).unwrap(); // 1 fails, evicts 2
        hint(0); // evicts dirty 1
        assert_eq!(p.read(BlockId(0), |d| d[0]).unwrap(), 10);
        hint(1); // evicts dirty 3
        assert_eq!(p.read(BlockId(2), |d| d[0]).unwrap(), 12); // evicts 0
        assert_eq!(p.read(BlockId(3), |d| d[0]).unwrap(), 13); // evicts 1 unused

        let trace = tracer.drain();
        let dirty: Vec<bool> = trace
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::PoolEvict { dirty, .. } => Some(dirty),
                _ => None,
            })
            .collect();
        assert_eq!(dirty, [false, true, true, true, false, false]);
        let events: Vec<(&str, u64)> = trace
            .iter()
            .map(|e| match e.kind {
                EventKind::PoolMiss { block }
                | EventKind::PoolEvict { block, .. }
                | EventKind::PoolWriteBack { block }
                | EventKind::PrefetchIssued { block }
                | EventKind::PrefetchHit { block }
                | EventKind::PrefetchWasted { block }
                | EventKind::WritebackRetry { block } => (e.kind.label(), block),
                ref other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(
            events,
            [
                ("pool_miss", 0),
                ("pool_miss", 1),
                ("pool_writeback", 0),
                ("pool_evict", 0),
                ("pool_miss", 2),
                ("writeback_retry", 1),
                ("pool_writeback", 2),
                ("pool_evict", 2),
                ("pool_miss", 3),
                ("pool_writeback", 1),
                ("pool_evict", 1),
                ("prefetch_issued", 0),
                ("prefetch_hit", 0),
                ("pool_writeback", 3),
                ("pool_evict", 3),
                ("prefetch_issued", 1),
                ("pool_evict", 0),
                ("pool_miss", 2),
                ("prefetch_wasted", 1),
                ("pool_evict", 1),
                ("pool_miss", 3),
            ]
        );
        assert_eq!(
            p.pool_stats(),
            PoolStats {
                hits: 1,
                misses: 6,
                evict_writebacks: 3,
                writeback_retries: 1,
                coalesced_loads: 0,
                prefetch_issued: 2,
                prefetch_hits: 1,
                prefetch_wasted: 1,
            }
        );
        let io = p.io_stats().snapshot();
        assert_eq!((io.reads, io.writes), (4, 4));
    }

    #[test]
    fn prefetched_frames_rank_by_publish_time() {
        let p = prefetch_pool(3, 1);
        let b = p.allocate_blocks(4).unwrap();
        for i in 0..4 {
            p.write_new(b.offset(i), |_| ()).unwrap();
        }
        p.flush_all().unwrap();
        p.clear_cache().unwrap();
        p.read(b, |_| ()).unwrap();
        p.prefetch([b.offset(1)]);
        p.wait_prefetch_idle();
        p.read(b.offset(2), |_| ()).unwrap();
        // Block 0 is older than the never-pinned prefetch of block 1...
        p.read(b.offset(3), |_| ()).unwrap();
        assert_eq!(p.pool_stats().prefetch_wasted, 0, "block 0 went first");
        // ...which is evictable as published and older than block 2.
        assert_eq!(misses_of(&p, b), 1);
        assert_eq!(p.pool_stats().prefetch_wasted, 1, "then the prefetch");
        assert_eq!([2, 3].map(|i| misses_of(&p, b.offset(i))), [0; 2]);
    }

    #[test]
    fn failed_loads_do_not_shrink_capacity() {
        let p = pool(2);
        let b = p.allocate_blocks(2).unwrap();
        // Pinning a block past the device end fails without consuming the
        // frame obtained for it.
        for _ in 0..5 {
            assert!(p.pin(BlockId(99)).is_err());
        }
        let _g1 = p.pin_new(b).unwrap();
        let _g2 = p.pin_new(b.offset(1)).unwrap();
        assert_eq!(p.resident(), 2, "both frames still usable");
    }

    #[test]
    fn clear_cache_persists_writes_released_after_flush() {
        // A write that lands while flush_all would have skipped the frame
        // (exclusive pin held) must still reach the device when the frame
        // is dropped by clear_cache.
        let p = pool(4);
        let b = p.allocate_blocks(1).unwrap();
        {
            let mut g = p.pin_new(b).unwrap();
            g[0] = 7.5;
        } // dirty, unpinned; nothing flushed yet
        p.clear_cache().unwrap();
        assert_eq!(p.resident(), 0);
        assert_eq!(
            p.io_stats().snapshot().writes,
            1,
            "dirty frame written back"
        );
        let g = p.pin(b).unwrap();
        assert_eq!(g[0], 7.5);
    }

    #[test]
    #[should_panic(expected = "freeing a pinned block")]
    fn freeing_a_pinned_block_panics() {
        let p = pool(2);
        let b = p.allocate_blocks(1).unwrap();
        let _g = p.pin_new(b).unwrap();
        let _ = p.free_blocks(b, 1);
    }

    /// The PR-3 bugfix: a shared pin taken while the same thread already
    /// holds an exclusive pin on the block used to deadlock silently
    /// (waiting for itself). Debug builds now detect the re-entrancy at
    /// the wait site and panic with the block id.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "re-entrant conflicting pin on block #0")]
    fn reentrant_conflicting_pin_panics_in_debug() {
        let p = pool(2);
        let b = p.allocate_blocks(1).unwrap();
        let _w = p.pin_new(b).unwrap();
        let _r = p.pin(b); // would deadlock; detected instead
    }

    /// The mirror case: an exclusive pin on top of our own shared pin.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "re-entrant conflicting pin on block #0")]
    fn reentrant_upgrade_panics_in_debug() {
        let p = pool(2);
        let b = p.allocate_blocks(1).unwrap();
        p.write_new(b, |_| ()).unwrap();
        let _r = p.pin(b).unwrap();
        let _w = p.pin_mut(b); // upgrade from ourselves: detected
    }

    /// Guards are `Send`: a pin taken here and dropped on another thread
    /// must clear this thread's re-entrancy bookkeeping, or a later
    /// perfectly legal blocking pin would false-panic.
    #[cfg(debug_assertions)]
    #[test]
    fn cross_thread_guard_drop_clears_reentry_registry() {
        use std::sync::mpsc;
        use std::time::Duration;

        let p = pool(2);
        let b = p.allocate_blocks(1).unwrap();
        p.write_new(b, |d| d[0] = 1).unwrap();

        // Pin on this thread, drop on another.
        let g = p.pin(b).unwrap();
        std::thread::scope(|s| {
            s.spawn(move || drop(g));
        });

        // Now make this thread genuinely *wait* on a conflicting pin held
        // by a worker: with a stale registry entry this would panic as a
        // phantom re-entrant pin; with correct bookkeeping it just blocks
        // until the worker releases.
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut w = p.pin_mut(b).unwrap();
                tx.send(()).unwrap();
                std::thread::sleep(Duration::from_millis(80));
                w[0] = 2.0;
            });
            rx.recv().unwrap();
            let r = p.pin(b).unwrap(); // waits out the writer, no panic
            assert_eq!(r[0], 2.0);
        });
    }

    #[test]
    fn failed_eviction_writeback_retries_next_victim() {
        let dev = FailpointDevice::new(Box::new(MemBlockDevice::new(64)));
        let fp = dev.handle();
        let p = BufferPool::new(
            Box::new(dev),
            PoolConfig {
                frames: 3,
                ..PoolConfig::default()
            },
        );
        let b = p.allocate_blocks(5).unwrap();
        for i in 0..3 {
            p.write_new(b.offset(i), |d| d[0] = 10 + i as u8).unwrap();
        }
        // The LRU victim for a fourth page is block 0 — fail its write-back
        // once. The evictor absorbs the failure (block 0 stays resident,
        // dirty) and the retried victim pass evicts block 1 instead.
        fp.fail_writes(b, 1);
        p.write_new(b.offset(3), |d| d[0] = 13).unwrap();
        assert_eq!(fp.injected_write_errors(), 1);
        let s = p.pool_stats();
        assert_eq!(s.writeback_retries, 1, "one absorbed failure");
        assert_eq!(s.evict_writebacks, 1, "block 1's successful write-back");
        assert_eq!(p.io_stats().snapshot().writes, 1);
        // The failure re-ranked block 0 as the most recently used, so it
        // now outlives block 2: the next miss evicts block 2.
        p.write_new(b.offset(4), |d| d[0] = 14).unwrap();
        assert_eq!(p.io_stats().snapshot().writes, 2);
        let reads = p.io_stats().snapshot().reads;
        assert_eq!(p.read(b, |d| d[0]).unwrap(), 10, "victim data intact");
        assert_eq!(
            p.io_stats().snapshot().reads,
            reads,
            "block 0 still resident"
        );
        assert_eq!(p.read(b.offset(2), |d| d[0]).unwrap(), 12);
        assert_eq!(p.io_stats().snapshot().reads, reads + 1, "block 2 evicted");
        // That read evicted block 3; the failed victim kept its dirty bit.
        p.flush_all().unwrap();
        assert_eq!(
            p.io_stats().snapshot().writes,
            5,
            "flush lands the still-dirty victim and block 4"
        );
    }

    #[test]
    fn persistently_failing_writeback_surfaces_bounded() {
        let dev = FailpointDevice::new(Box::new(MemBlockDevice::new(64)));
        let fp = dev.handle();
        let p = BufferPool::new(
            Box::new(dev),
            PoolConfig {
                frames: 2,
                ..PoolConfig::default()
            },
        );
        let b = p.allocate_blocks(3).unwrap();
        p.write_new(b, |d| d[0] = 10).unwrap();
        p.write_new(b.offset(1), |d| d[0] = 11).unwrap();
        // Every write fails: the evictor retries a bounded number of times
        // then surfaces the error instead of spinning forever.
        fp.fail_writes(b, 100);
        fp.fail_writes(b.offset(1), 100);
        assert!(p.pin_new(b.offset(2)).is_err(), "dead device still errors");
        assert!(p.pool_stats().writeback_retries >= 1);
        assert_eq!(p.io_stats().snapshot().writes, 0);
        // Nothing was lost: both victims survive with their data.
        assert_eq!(p.read(b, |d| d[0]).unwrap(), 10);
        assert_eq!(p.read(b.offset(1), |d| d[0]).unwrap(), 11);
    }

    #[test]
    fn in_flight_gauges_idle_at_rest_and_capped_single_threaded() {
        let p = pool(2);
        let b = p.allocate_blocks(4).unwrap();
        for i in 0..4 {
            p.write_new(b.offset(i), |d| d[0] = i as u8).unwrap();
        }
        p.flush_all().unwrap();
        p.clear_cache().unwrap();
        for i in 0..4 {
            p.read(b.offset(i), |_| ()).unwrap();
        }
        let g = p.in_flight();
        assert_eq!((g.loads(), g.writebacks()), (0, 0), "gauges drain to zero");
        assert!(g.peak_loads() <= 1, "single-threaded loads never overlap");
        assert!(g.peak_writebacks() <= 1);
        assert_eq!(p.pool_stats().coalesced_loads, 0);
    }

    #[test]
    fn sharded_pool_partitions_blocks() {
        let p = BufferPool::new_sharded(
            Box::new(MemBlockDevice::new(64)),
            PoolConfig {
                frames: 8,
                ..PoolConfig::default()
            },
            4,
        );
        assert_eq!(p.num_shards(), 4);
        let b = p.allocate_blocks(8).unwrap();
        for i in 0..8 {
            p.write_new(b.offset(i), |d| d[0] = i as u8).unwrap();
        }
        // Every block resident; counters sum across shards.
        assert_eq!(p.resident(), 8);
        let s = p.pool_stats();
        assert_eq!(s.misses, 8);
        assert_eq!(s.hits, 0);
        let per_shard: u64 = p.shard_stats().iter().map(|s| s.misses).sum();
        assert_eq!(per_shard, 8);
        for i in 0..8 {
            assert_eq!(p.read(b.offset(i), |d| d[0]).unwrap(), i as u8);
        }
        assert_eq!(p.pool_stats().hits, 8);
    }

    #[test]
    fn shard_count_clamped_to_frames() {
        let p = BufferPool::new_sharded(
            Box::new(MemBlockDevice::new(64)),
            PoolConfig {
                frames: 2,
                ..PoolConfig::default()
            },
            16,
        );
        assert_eq!(p.num_shards(), 2);
    }

    #[test]
    fn concurrent_shared_pins_see_stable_data() {
        let p = BufferPool::new_sharded(
            Box::new(MemBlockDevice::new(64)),
            PoolConfig {
                frames: 8,
                ..PoolConfig::default()
            },
            4,
        );
        let b = p.allocate_blocks(4).unwrap();
        for i in 0..4 {
            p.write_new(b.offset(i), |d| d[0] = (10 + i) as u8).unwrap();
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..200 {
                        for i in 0..4 {
                            let g = p.pin(b.offset(i)).unwrap();
                            assert_eq!(g.as_bytes()[0], (10 + i) as u8);
                        }
                    }
                });
            }
        });
    }

    /// A pool with `depth` prefetch workers over a plain memory device.
    fn prefetch_pool(frames: usize, depth: usize) -> BufferPool {
        BufferPool::new(
            Box::new(MemBlockDevice::new(64)),
            PoolConfig {
                frames,
                prefetch_depth: depth,
                ..PoolConfig::default()
            },
        )
    }

    #[test]
    fn prefetch_auto_sizes_from_device_capability() {
        // MemBlockDevice is not persistent: AUTO resolves to 0, so the
        // default in-memory pool keeps the classic demand-paged order.
        let p = BufferPool::new(
            Box::new(MemBlockDevice::new(64)),
            PoolConfig {
                frames: 4,
                prefetch_depth: PREFETCH_AUTO,
                ..PoolConfig::default()
            },
        );
        assert_eq!(p.prefetch_depth(), 0);
        assert_eq!(pool(4).prefetch_depth(), 0, "default stays disabled");
        // FileBlockDevice is persistent: AUTO turns prefetch on, sized
        // from the device's concurrent-I/O capability.
        let f = BufferPool::new(
            Box::new(crate::FileBlockDevice::temp(64).unwrap()),
            PoolConfig {
                frames: 4,
                prefetch_depth: PREFETCH_AUTO,
                ..PoolConfig::default()
            },
        );
        assert_eq!(f.prefetch_depth(), if cfg!(unix) { 8 } else { 2 });
        // An explicit depth always wins over AUTO resolution.
        let e = BufferPool::new(
            Box::new(crate::FileBlockDevice::temp(64).unwrap()),
            PoolConfig {
                frames: 4,
                prefetch_depth: 3,
                ..PoolConfig::default()
            },
        );
        assert_eq!(e.prefetch_depth(), 3);
    }

    #[test]
    fn prefetch_default_flip_is_read_count_neutral_on_files() {
        // The AUTO default over a file-backed device must not change how
        // many reads a demand-paged scan performs — only when they happen.
        let run = |depth: usize| {
            let p = BufferPool::new(
                Box::new(crate::FileBlockDevice::temp(64).unwrap()),
                PoolConfig {
                    frames: 4,
                    prefetch_depth: depth,
                    ..PoolConfig::default()
                },
            );
            let b = p.allocate_blocks(16).unwrap();
            for i in 0..16 {
                p.write_new(b.offset(i), |d| d[0] = i as u8).unwrap();
            }
            p.flush_all().unwrap();
            p.clear_cache().unwrap();
            let io0 = p.io_stats().snapshot();
            for round in 0..2 {
                for i in 0..16 {
                    assert_eq!(p.read(b.offset(i), |d| d[0]).unwrap(), i as u8, "{round}");
                }
            }
            let io = p.io_stats().snapshot() - io0;
            (io.reads, io.writes)
        };
        assert_eq!(run(0), run(PREFETCH_AUTO));
    }

    /// The workers start with the first hint that queues a load: a pool
    /// whose hints all name resident blocks runs no thread.
    #[test]
    fn prefetch_workers_start_with_the_first_queued_hint() {
        let p = prefetch_pool(8, 2);
        let b = p.allocate_blocks(2).unwrap();
        p.write_new(b, |d| d[0] = 7).unwrap();
        p.prefetch([b]);
        assert!(p.workers.get().is_none(), "a resident block queues nothing");
        p.flush_all().unwrap();
        p.clear_cache().unwrap();
        p.prefetch([b]);
        assert_eq!(p.workers.get().map(Vec::len), Some(2));
        p.wait_prefetch_idle();
        assert_eq!(p.read(b, |d| d[0]).unwrap(), 7);
    }

    #[test]
    fn prefetched_blocks_load_in_background_and_pins_hit() {
        let p = prefetch_pool(8, 2);
        let b = p.allocate_blocks(4).unwrap();
        for i in 0..4 {
            p.write_new(b.offset(i), |d| d[0] = 10 + i as u8).unwrap();
        }
        p.flush_all().unwrap();
        p.clear_cache().unwrap();
        let io0 = p.io_stats().snapshot();
        let s0 = p.pool_stats();

        let blocks: Vec<BlockId> = (0..4).map(|i| b.offset(i)).collect();
        p.prefetch(blocks.iter().copied());
        p.wait_prefetch_idle();
        // All four loaded by the workers, none by a pin.
        assert_eq!((p.io_stats().snapshot() - io0).reads, 4);
        assert_eq!(p.resident(), 4);
        let s = p.pool_stats();
        assert_eq!(s.prefetch_issued - s0.prefetch_issued, 4);
        assert_eq!(s.misses, s0.misses, "no pin missed");

        for i in 0..4 {
            assert_eq!(p.read(b.offset(i), |d| d[0]).unwrap(), 10 + i as u8);
        }
        let s = p.pool_stats();
        assert_eq!(s.prefetch_hits - s0.prefetch_hits, 4);
        assert_eq!(s.hits - s0.hits, 4, "every pin was a cache hit");
        assert_eq!(s.misses, s0.misses);
        assert_eq!(s.prefetch_wasted, s0.prefetch_wasted);
        // Re-pinning counts plain hits only: one prefetch, one prefetch_hit.
        p.read(b, |_| ()).unwrap();
        assert_eq!(p.pool_stats().prefetch_hits - s0.prefetch_hits, 4);
        // Exactly the no-prefetch read count: 4 blocks, 4 reads.
        assert_eq!((p.io_stats().snapshot() - io0).reads, 4);
    }

    #[test]
    fn prefetch_skips_resident_and_duplicate_blocks() {
        let p = prefetch_pool(8, 2);
        let b = p.allocate_blocks(2).unwrap();
        p.write_new(b, |d| d[0] = 1).unwrap();
        p.write_new(b.offset(1), |d| d[0] = 2).unwrap();
        p.flush_all().unwrap();
        // Block 0 stays resident; block 1 is dropped.
        p.free_blocks(b.offset(1), 1).unwrap();
        let b1 = p.allocate_blocks(1).unwrap();
        p.write_new(b1, |d| d[0] = 3).unwrap();
        p.flush_all().unwrap();
        p.clear_cache().unwrap();
        p.read(b, |_| ()).unwrap(); // block 0 resident again
        let io0 = p.io_stats().snapshot();

        // Resident block: skipped. Absent block prefetched twice: one read.
        p.prefetch([b, b1, b1]);
        p.prefetch([b1]);
        p.wait_prefetch_idle();
        let s = p.pool_stats();
        assert_eq!((p.io_stats().snapshot() - io0).reads, 1);
        assert_eq!(s.prefetch_issued, 1);
    }

    #[test]
    fn prefetch_disabled_is_a_free_no_op() {
        let p = pool(4);
        let b = p.allocate_blocks(2).unwrap();
        p.write_new(b, |_| ()).unwrap();
        p.flush_all().unwrap();
        p.clear_cache().unwrap();
        p.prefetch([b, b.offset(1)]);
        p.wait_prefetch_idle();
        assert_eq!(p.resident(), 0);
        assert_eq!(p.io_stats().snapshot().reads, 0);
        assert_eq!(p.pool_stats().prefetch_issued, 0);
    }

    #[test]
    fn unused_prefetches_count_wasted_when_recycled() {
        let p = prefetch_pool(2, 1);
        let b = p.allocate_blocks(4).unwrap();
        for i in 0..4 {
            p.write_new(b.offset(i), |d| d[0] = i as u8).unwrap();
        }
        p.flush_all().unwrap();
        p.clear_cache().unwrap();

        p.prefetch([b, b.offset(1)]);
        p.wait_prefetch_idle();
        assert_eq!(p.pool_stats().prefetch_issued, 2);
        // Pin two other blocks: both prefetched frames are evicted unused.
        p.read(b.offset(2), |_| ()).unwrap();
        p.read(b.offset(3), |_| ()).unwrap();
        let s = p.pool_stats();
        assert_eq!(s.prefetch_wasted, 2);
        assert_eq!(s.prefetch_hits, 0);
        // And clear_cache on a fresh prefetch counts waste too.
        p.clear_cache().unwrap();
        p.prefetch([b]);
        p.wait_prefetch_idle();
        p.clear_cache().unwrap();
        assert_eq!(p.pool_stats().prefetch_wasted, 3);
    }

    #[test]
    fn prefetch_never_waits_on_an_exhausted_shard() {
        let p = prefetch_pool(2, 1);
        let b = p.allocate_blocks(3).unwrap();
        for i in 0..3 {
            p.write_new(b.offset(i), |d| d[0] = i as u8).unwrap();
        }
        p.flush_all().unwrap();
        p.clear_cache().unwrap();
        // Pin both frames; the hint for a third block must be dropped, not
        // hang the worker (wait_prefetch_idle would deadlock then).
        let _g1 = p.pin(b).unwrap();
        let _g2 = p.pin(b.offset(1)).unwrap();
        p.prefetch([b.offset(2)]);
        p.wait_prefetch_idle();
        assert_eq!(p.pool_stats().prefetch_issued, 0);
        // The dropped hint costs nothing: the pin performs the read.
        drop(_g1);
        assert_eq!(p.read(b.offset(2), |d| d[0]).unwrap(), 2);
    }

    #[test]
    fn pin_of_in_flight_prefetch_waits_single_flight() {
        let dev = FailpointDevice::new(Box::new(MemBlockDevice::new(64)));
        let fp = dev.handle();
        let p = BufferPool::new(
            Box::new(dev),
            PoolConfig {
                frames: 4,
                prefetch_depth: 1,
                ..PoolConfig::default()
            },
        );
        let b = p.allocate_blocks(1).unwrap();
        p.write_new(b, |d| d[0] = 9).unwrap();
        p.flush_all().unwrap();
        p.clear_cache().unwrap();
        let io0 = p.io_stats().snapshot();

        // A slow background load; wait until the claim is visible, then
        // pin mid-flight: the pin must wait on the existing load, not
        // issue a second read.
        fp.set_read_latency(std::time::Duration::from_millis(80));
        p.prefetch([b]);
        while p.resident() == 0 {
            std::thread::yield_now();
        }
        let g = p.pin(b).unwrap();
        assert_eq!(g.as_bytes()[0], 9);
        drop(g);
        let s = p.pool_stats();
        assert_eq!((p.io_stats().snapshot() - io0).reads, 1, "single-flight");
        assert_eq!(s.prefetch_issued, 1);
        assert_eq!(s.prefetch_hits, 1);
        assert_eq!(
            s.coalesced_loads, 0,
            "prefetch waits are not coalesced pins"
        );
        assert_eq!(s.misses, 1, "only the setup write_new missed");
    }

    #[test]
    fn failed_prefetch_load_releases_slot_and_pin_retries() {
        let dev = FailpointDevice::new(Box::new(MemBlockDevice::new(64)));
        let fp = dev.handle();
        let p = BufferPool::new(
            Box::new(dev),
            PoolConfig {
                frames: 2,
                prefetch_depth: 1,
                ..PoolConfig::default()
            },
        );
        let b = p.allocate_blocks(1).unwrap();
        p.write_new(b, |d| d[0] = 7).unwrap();
        p.flush_all().unwrap();
        p.clear_cache().unwrap();
        let io0 = p.io_stats().snapshot();

        fp.fail_reads(b, 1);
        p.prefetch([b]);
        p.wait_prefetch_idle();
        // The failed load released its claim: nothing resident, nothing
        // counted on the device, nothing poisoned.
        assert_eq!(p.resident(), 0);
        assert_eq!((p.io_stats().snapshot() - io0).reads, 0);
        assert_eq!(fp.injected_read_errors(), 1);
        // The next pin simply retries on the device and succeeds.
        assert_eq!(p.read(b, |d| d[0]).unwrap(), 7);
        assert_eq!((p.io_stats().snapshot() - io0).reads, 1);
        let s = p.pool_stats();
        assert_eq!(s.prefetch_issued, 1);
        assert_eq!((s.prefetch_hits, s.prefetch_wasted), (0, 0));
    }

    #[test]
    fn exclusive_pins_serialize_writers() {
        let p = BufferPool::new_sharded(
            Box::new(MemBlockDevice::new(64)),
            PoolConfig {
                frames: 4,
                ..PoolConfig::default()
            },
            2,
        );
        let b = p.allocate_blocks(1).unwrap();
        p.write_new(b, |d| d[0] = 0).unwrap();
        // 4 threads x 250 increments through exclusive pins: no lost update.
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..250 {
                        let mut g = p.pin_mut(b).unwrap();
                        g[0] += 1.0;
                    }
                });
            }
        });
        let g = p.pin(b).unwrap();
        assert_eq!(g[0], 1000.0);
    }

    /// Two frames over a device with `latency` per read: pin block 0 to
    /// occupy one frame, cold-read block 1 on another thread to wedge
    /// the other, and a pin of block 2 must wait. Returns the pool with
    /// blocks 0..=2 allocated.
    fn wedged_pool(pin_timeout: Duration, latency: Duration) -> BufferPool {
        let dev = FailpointDevice::new(Box::new(MemBlockDevice::new(64)));
        let fp = dev.handle();
        let p = BufferPool::new(
            Box::new(dev),
            PoolConfig {
                frames: 2,
                prefetch_depth: 0,
                pin_timeout,
                ..PoolConfig::default()
            },
        );
        p.allocate_blocks(3).unwrap();
        fp.set_read_latency(latency);
        p
    }

    /// Wait until the pool reports an outstanding load or write-back (the
    /// slow transfer has left the shard lock), bounded so a broken pool
    /// fails the test instead of hanging it.
    fn await_in_flight(p: &BufferPool) {
        for _ in 0..200 {
            if p.in_flight().loads() + p.in_flight().writebacks() > 0 {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("slow transfer never became visible");
    }

    #[test]
    fn pin_wait_times_out_on_wedged_transfer() {
        let p = wedged_pool(Duration::from_millis(100), Duration::from_millis(2000));
        let (b0, b1, b2) = (BlockId(0), BlockId(1), BlockId(2));
        let _hold = p.pin_new(b0).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                // Wedged cold load: occupies the second frame for 2 s.
                let _ = p.read(b1, |_| ());
            });
            await_in_flight(&p);
            let err = p.read(b2, |_| ()).unwrap_err();
            match err {
                StorageError::PinTimeout { frames, waited_ms } => {
                    assert_eq!(frames, 2);
                    assert!(waited_ms >= 100, "waited only {waited_ms} ms");
                }
                other => panic!("expected PinTimeout, got {other}"),
            }
        });
    }

    #[test]
    fn cancel_escapes_pin_wait_before_timeout() {
        let p = wedged_pool(Duration::from_secs(30), Duration::from_millis(2000));
        let (b0, b1, b2) = (BlockId(0), BlockId(1), BlockId(2));
        let gov = Arc::new(QueryGovernor::new(p.io_stats()));
        p.attach_governor(Arc::clone(&gov));
        gov.engage(crate::ResourceLimits::none());
        gov.cancel();
        let _hold = p.pin_new(b0).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _ = p.read(b1, |_| ());
            });
            await_in_flight(&p);
            let t0 = Instant::now();
            let err = p.read(b2, |_| ()).unwrap_err();
            assert!(
                matches!(
                    err,
                    StorageError::Cancelled {
                        at: "pool.pin_wait"
                    }
                ),
                "{err}"
            );
            // The escape must not ride out the 30 s pin timeout.
            assert!(t0.elapsed() < Duration::from_secs(5));
        });
    }

    #[test]
    fn governed_pin_admission_enforces_max_pinned_frames() {
        let p = pool(4);
        let b0 = p.allocate_blocks(1).unwrap();
        let b1 = p.allocate_blocks(1).unwrap();
        let gov = Arc::new(QueryGovernor::new(p.io_stats()));
        p.attach_governor(Arc::clone(&gov));
        gov.engage(crate::ResourceLimits::none().with_max_pinned_frames(1));
        gov.begin();
        let _g0 = p.pin_new(b0).unwrap();
        let err = p.pin_new(b1).unwrap_err();
        assert!(
            matches!(
                err,
                StorageError::BudgetExceeded {
                    resource: "pinned_frames",
                    used: 2,
                    limit: 1,
                }
            ),
            "{err}"
        );
        drop(_g0);
        gov.end().unwrap();
        // Outside the query bracket the cap no longer applies.
        let _g0 = p.pin_new(b0).unwrap();
        let _g1 = p.pin_new(b1).unwrap();
    }

    #[test]
    fn discard_prefetch_queue_drops_queued_windows() {
        let dev = FailpointDevice::new(Box::new(MemBlockDevice::new(64)));
        let fp = dev.handle();
        let p = BufferPool::new(
            Box::new(dev),
            PoolConfig {
                frames: 8,
                prefetch_depth: 1,
                ..PoolConfig::default()
            },
        );
        let first = p.allocate_blocks(6).unwrap();
        let blocks: Vec<BlockId> = (0..6).map(|i| BlockId(first.0 + i)).collect();
        // The single worker wedges on the first block; the rest queue.
        fp.set_read_latency(Duration::from_millis(300));
        p.prefetch(blocks.iter().copied());
        await_in_flight(&p);
        let dropped = p.discard_prefetch_queue();
        assert!(dropped > 0, "queue should still hold undispatched blocks");
        // The discard leaves the pool healthy: waiting out the wedged
        // load, everything still pins and reads.
        p.wait_prefetch_idle();
        assert_eq!(p.read(blocks[5], |d| d[0]).unwrap(), 0);
    }
}
