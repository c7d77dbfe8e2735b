//! The paged heap: reference-counted `f64` vectors under demand paging.

use std::collections::HashMap;
use std::sync::Arc;

use riot_storage::{BlockId, IoStats};

/// Heap construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct VmConfig {
    /// Page size in `f64` elements.
    pub page_elems: usize,
    /// Physical memory cap, in frames (pages).
    pub frames: usize,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            page_elems: crate::DEFAULT_PAGE_ELEMS,
            frames: 512, // 4 MiB of f64 pages
        }
    }
}

/// The host refused the memory an allocation needs: what R reports as
/// "cannot allocate vector", as a typed error instead of an abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Elements requested.
    pub len: usize,
    /// Bytes of page table the heap could not reserve for them.
    pub bytes: usize,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (len, bytes) = (self.len, self.bytes);
        write!(
            f,
            "cannot allocate a vector of {len} elements (a {bytes}-byte page table)"
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// Handle to a heap-allocated vector. Copyable; lifetime is governed by the
/// heap's reference counts ([`PagedHeap::retain`] / [`PagedHeap::release`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VmId(pub u64);

/// Aggregate paging statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Page faults (any touch of a non-resident page).
    pub faults: u64,
    /// Faults that required reading the page back from swap.
    pub swap_ins: u64,
    /// Dirty evictions written to swap.
    pub swap_outs: u64,
    /// Peak resident frames observed.
    pub peak_resident: usize,
    /// Peak live heap bytes (all objects, resident or swapped).
    pub peak_live_bytes: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageState {
    /// Never materialized: reads see zeros; no swap slot content yet.
    Fresh,
    /// In a physical frame; `Option` carries a still-valid swap slot (the
    /// swap cache), letting clean evictions cost no I/O.
    Resident(usize, Option<u64>),
    /// Contents live in the given swap slot.
    Swapped(u64),
}

struct Object {
    pages: Vec<PageState>,
    len: usize,
    refs: u32,
}

struct Frame {
    data: Box<[f64]>,
    owner: Option<(VmId, usize)>,
    dirty: bool,
    /// LRU timestamp.
    stamp: u64,
}

/// A demand-paged heap of `f64` vectors with a hard residency cap.
pub struct PagedHeap {
    cfg: VmConfig,
    objects: HashMap<u64, Object>,
    /// Physical frames, allocated on first use up to `cfg.frames`: a heap
    /// nothing pages into holds no frame memory.
    frames: Vec<Frame>,
    free_frames: Vec<usize>,
    /// Simulated swap device: slot -> page contents.
    swap: HashMap<u64, Box<[f64]>>,
    /// Recycled swap slots (LIFO, like an OS swap free list).
    free_slots: Vec<u64>,
    io: Arc<IoStats>,
    stats: VmStats,
    next_id: u64,
    next_swap: u64,
    clock: u64,
    live_bytes: u64,
}

impl PagedHeap {
    /// Create a heap with the given page size and frame budget.
    pub fn new(cfg: VmConfig) -> Self {
        assert!(cfg.page_elems > 0 && cfg.frames > 0);
        PagedHeap {
            cfg,
            objects: HashMap::new(),
            frames: Vec::new(),
            free_frames: Vec::new(),
            swap: HashMap::new(),
            free_slots: Vec::new(),
            io: IoStats::new_shared(),
            stats: VmStats::default(),
            next_id: 0,
            next_swap: 0,
            clock: 0,
            live_bytes: 0,
        }
    }

    /// Heap with default page size and a cap of `frames` pages.
    pub fn with_frames(frames: usize) -> Self {
        PagedHeap::new(VmConfig {
            frames,
            ..VmConfig::default()
        })
    }

    /// Page size in elements.
    pub fn page_elems(&self) -> usize {
        self.cfg.page_elems
    }

    /// Swap-traffic counters (block = one page).
    pub fn io_stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.io)
    }

    /// Paging statistics.
    pub fn stats(&self) -> VmStats {
        self.stats
    }

    /// Number of live (refcount > 0) objects.
    pub fn live_objects(&self) -> usize {
        self.objects.len()
    }

    /// Bytes currently allocated across all live objects.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Currently resident pages.
    pub fn resident_pages(&self) -> usize {
        self.frames.len() - self.free_frames.len()
    }

    /// Allocate a zeroed vector of `len` elements with refcount 1, or
    /// [`OutOfMemory`] when the host refuses its page table.
    ///
    /// Allocation itself does no I/O: like `calloc`, pages materialize
    /// lazily on first touch.
    pub fn alloc(&mut self, len: usize) -> Result<VmId, OutOfMemory> {
        let count = len.div_ceil(self.cfg.page_elems).max(1);
        let mut pages = Vec::new();
        if pages.try_reserve_exact(count).is_err() {
            let bytes = count.saturating_mul(std::mem::size_of::<PageState>());
            return Err(OutOfMemory { len, bytes });
        }
        pages.resize(count, PageState::Fresh);
        let id = VmId(self.next_id);
        self.next_id += 1;
        self.objects.insert(
            id.0,
            Object {
                pages,
                len,
                refs: 1,
            },
        );
        self.live_bytes += (len * std::mem::size_of::<f64>()) as u64;
        self.stats.peak_live_bytes = self.stats.peak_live_bytes.max(self.live_bytes);
        Ok(id)
    }

    /// Allocate and fill from a slice.
    pub fn alloc_from(&mut self, data: &[f64]) -> Result<VmId, OutOfMemory> {
        let id = self.alloc(data.len())?;
        self.write_chunk(id, 0, data);
        Ok(id)
    }

    /// Increment the reference count (R assignment of an existing value).
    pub fn retain(&mut self, id: VmId) {
        self.objects
            .get_mut(&id.0)
            .expect("retain of dead object")
            .refs += 1;
    }

    /// Decrement the reference count; at zero the object dies instantly —
    /// its resident pages are dropped *without* write-back and its swap
    /// slots are discarded, costing no I/O (dead data is never flushed).
    pub fn release(&mut self, id: VmId) {
        let obj = self.objects.get_mut(&id.0).expect("release of dead object");
        assert!(obj.refs > 0);
        obj.refs -= 1;
        if obj.refs == 0 {
            let obj = self.objects.remove(&id.0).unwrap();
            for state in obj.pages.iter() {
                match state {
                    PageState::Resident(f, slot) => {
                        self.frames[*f].owner = None;
                        self.frames[*f].dirty = false;
                        self.free_frames.push(*f);
                        if let Some(slot) = slot {
                            self.swap.remove(slot);
                            self.free_slots.push(*slot);
                        }
                    }
                    PageState::Swapped(slot) => {
                        self.swap.remove(slot);
                        self.free_slots.push(*slot);
                    }
                    PageState::Fresh => {}
                }
            }
            self.live_bytes -= (obj.len * std::mem::size_of::<f64>()) as u64;
        }
    }

    /// The id the next allocation gets: everything allocated after this
    /// call has an id at or above it (see [`PagedHeap::free_since`]).
    pub fn mark(&self) -> VmId {
        VmId(self.next_id)
    }

    /// Free every live object allocated since `mark`, whatever its
    /// reference count — what an abandoned computation allocated and
    /// nobody will release.
    pub fn free_since(&mut self, mark: VmId) {
        let mut young: Vec<u64> = self
            .objects
            .keys()
            .filter(|&&id| id >= mark.0)
            .copied()
            .collect();
        young.sort_unstable(); // swap slots return to the free list in one order
        for id in young {
            self.objects.get_mut(&id).expect("live object").refs = 1;
            self.release(VmId(id));
        }
    }

    /// Length of the vector behind `id`.
    pub fn len(&self, id: VmId) -> usize {
        self.objects.get(&id.0).expect("dead object").len
    }

    /// True if `id` has length zero.
    pub fn is_empty(&self, id: VmId) -> bool {
        self.len(id) == 0
    }

    /// Current reference count (for tests).
    pub fn refcount(&self, id: VmId) -> u32 {
        self.objects.get(&id.0).map(|o| o.refs).unwrap_or(0)
    }

    /// Read one element.
    pub fn get(&mut self, id: VmId, index: usize) -> f64 {
        let page = index / self.cfg.page_elems;
        let off = index % self.cfg.page_elems;
        debug_assert!(index < self.len(id), "index out of bounds");
        let frame = self.fault_in(id, page);
        self.frames[frame].data[off]
    }

    /// Write one element.
    pub fn set(&mut self, id: VmId, index: usize, value: f64) {
        let page = index / self.cfg.page_elems;
        let off = index % self.cfg.page_elems;
        debug_assert!(index < self.len(id), "index out of bounds");
        let frame = self.fault_in(id, page);
        self.frames[frame].data[off] = value;
        self.frames[frame].dirty = true;
    }

    /// Copy `out.len()` elements starting at `start` into `out`.
    ///
    /// Page-granular: the fast path for streaming evaluation.
    pub fn read_chunk(&mut self, id: VmId, start: usize, out: &mut [f64]) {
        let pe = self.cfg.page_elems;
        debug_assert!(start + out.len() <= self.len(id));
        let mut i = 0;
        while i < out.len() {
            let idx = start + i;
            let page = idx / pe;
            let off = idx % pe;
            let take = (pe - off).min(out.len() - i);
            let frame = self.fault_in(id, page);
            out[i..i + take].copy_from_slice(&self.frames[frame].data[off..off + take]);
            i += take;
        }
    }

    /// Copy `data` into the object starting at `start`.
    pub fn write_chunk(&mut self, id: VmId, start: usize, data: &[f64]) {
        let pe = self.cfg.page_elems;
        debug_assert!(start + data.len() <= self.len(id));
        let mut i = 0;
        while i < data.len() {
            let idx = start + i;
            let page = idx / pe;
            let off = idx % pe;
            let take = (pe - off).min(data.len() - i);
            let frame = self.fault_in(id, page);
            self.frames[frame].data[off..off + take].copy_from_slice(&data[i..i + take]);
            self.frames[frame].dirty = true;
            i += take;
        }
    }

    /// Materialize the whole object into a plain `Vec` (faulting as needed).
    pub fn to_vec(&mut self, id: VmId) -> Vec<f64> {
        let mut out = vec![0.0; self.len(id)];
        if !out.is_empty() {
            self.read_chunk(id, 0, &mut out);
        }
        out
    }

    /// Ensure page `page` of `id` is resident, returning its frame.
    fn fault_in(&mut self, id: VmId, page: usize) -> usize {
        self.clock += 1;
        let clock = self.clock;
        let obj = self.objects.get(&id.0).expect("access to dead object");
        match obj.pages[page] {
            PageState::Resident(f, _) => {
                self.frames[f].stamp = clock;
                return f;
            }
            PageState::Fresh | PageState::Swapped(_) => {}
        }
        self.stats.faults += 1;
        let frame = self.grab_frame();
        let state = self.objects.get(&id.0).unwrap().pages[page];
        let kept_slot = match state {
            PageState::Fresh => {
                self.frames[frame].data.fill(0.0);
                // Zero-fill fault: no disk read, like an anonymous page.
                None
            }
            PageState::Swapped(slot) => {
                let data = self
                    .swap
                    .get(&slot)
                    .expect("swapped page missing from swap");
                self.frames[frame].data.copy_from_slice(data);
                self.stats.swap_ins += 1;
                self.io.record_read(BlockId(slot), self.cfg.page_elems * 8);
                // Swap cache: the slot stays valid so a clean re-eviction
                // costs nothing.
                Some(slot)
            }
            PageState::Resident(..) => unreachable!(),
        };
        self.frames[frame].owner = Some((id, page));
        self.frames[frame].dirty = false;
        self.frames[frame].stamp = clock;
        self.objects.get_mut(&id.0).unwrap().pages[page] = PageState::Resident(frame, kept_slot);
        self.stats.peak_resident = self.stats.peak_resident.max(self.resident_pages());
        frame
    }

    /// Obtain a free frame — a released one, else a new one while under
    /// the cap — evicting the LRU resident page if necessary.
    fn grab_frame(&mut self) -> usize {
        if let Some(f) = self.free_frames.pop() {
            return f;
        }
        if self.frames.len() < self.cfg.frames {
            self.frames.push(Frame {
                data: vec![0.0; self.cfg.page_elems].into_boxed_slice(),
                owner: None,
                dirty: false,
                stamp: 0,
            });
            return self.frames.len() - 1;
        }
        // LRU victim scan.
        let victim = self
            .frames
            .iter()
            .enumerate()
            .filter(|(_, fr)| fr.owner.is_some())
            .min_by_key(|(_, fr)| fr.stamp)
            .map(|(i, _)| i)
            .expect("no evictable frame");
        let (owner, page) = self.frames[victim].owner.take().unwrap();
        let PageState::Resident(_, cached_slot) = self
            .objects
            .get(&owner.0)
            .expect("owner died resident")
            .pages[page]
        else {
            unreachable!("victim page must be resident")
        };
        if self.frames[victim].dirty {
            // Swap slots are assigned at swap-out time (free-list first,
            // then bump), like an OS swap area. Interleaved streams thus
            // interleave their slots, which is what makes thrashing I/O
            // random — the effect the paper measures on R.
            let slot = cached_slot
                .or_else(|| self.free_slots.pop())
                .unwrap_or_else(|| {
                    let s = self.next_swap;
                    self.next_swap += 1;
                    s
                });
            self.swap.insert(slot, self.frames[victim].data.clone());
            self.objects.get_mut(&owner.0).unwrap().pages[page] = PageState::Swapped(slot);
            self.stats.swap_outs += 1;
            self.io.record_write(BlockId(slot), self.cfg.page_elems * 8);
        } else {
            // Clean page: discard. With a valid swap-cache slot it reverts
            // to Swapped (no I/O); a zero page reverts to Fresh.
            self.objects.get_mut(&owner.0).unwrap().pages[page] = match cached_slot {
                Some(slot) => PageState::Swapped(slot),
                None => PageState::Fresh,
            };
        }
        self.frames[victim].dirty = false;
        victim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap(frames: usize, page_elems: usize) -> PagedHeap {
        PagedHeap::new(VmConfig { page_elems, frames })
    }

    #[test]
    fn read_your_writes_in_memory() {
        let mut h = heap(8, 4);
        let v = h.alloc(10).unwrap();
        h.set(v, 0, 1.5);
        h.set(v, 9, -2.0);
        assert_eq!(h.get(v, 0), 1.5);
        assert_eq!(h.get(v, 9), -2.0);
        assert_eq!(h.get(v, 5), 0.0);
        assert_eq!(h.io_stats().snapshot().total_blocks(), 0, "fits in memory");
    }

    #[test]
    fn thrashing_counts_io() {
        // 2 frames, pages of 4 elems; a 16-element vector = 4 pages.
        let mut h = heap(2, 4);
        let v = h.alloc(16).unwrap();
        for i in 0..16 {
            h.set(v, i, i as f64);
        }
        // Writing 4 pages through 2 frames evicts 2 dirty pages.
        assert_eq!(h.stats().swap_outs, 2);
        // Reading from the start faults the swapped pages back in.
        for i in 0..16 {
            assert_eq!(h.get(v, i), i as f64);
        }
        let s = h.stats();
        assert!(s.swap_ins >= 2, "swapped pages must be read back");
        let io = h.io_stats().snapshot();
        assert_eq!(io.writes, s.swap_outs);
        assert_eq!(io.reads, s.swap_ins);
    }

    #[test]
    fn zero_fill_faults_cost_no_reads() {
        let mut h = heap(1, 4);
        let v = h.alloc(12).unwrap(); // 3 pages through 1 frame
        for i in 0..12 {
            assert_eq!(h.get(v, i), 0.0);
        }
        let s = h.stats();
        assert_eq!(s.swap_ins, 0, "clean zero pages never hit swap");
        assert_eq!(s.swap_outs, 0, "clean pages are discarded, not written");
        assert_eq!(s.faults, 3);
    }

    #[test]
    fn release_discards_without_writeback() {
        let mut h = heap(2, 4);
        let v = h.alloc(8).unwrap();
        h.set(v, 0, 1.0);
        h.set(v, 7, 2.0);
        let before = h.io_stats().snapshot();
        h.release(v);
        let after = h.io_stats().snapshot();
        assert_eq!(before, after, "dead objects are never flushed");
        assert_eq!(h.live_objects(), 0);
        assert_eq!(h.resident_pages(), 0);
    }

    #[test]
    fn refcounting() {
        let mut h = heap(4, 4);
        let v = h.alloc(4).unwrap();
        h.retain(v);
        assert_eq!(h.refcount(v), 2);
        h.release(v);
        assert_eq!(h.refcount(v), 1);
        assert_eq!(h.live_objects(), 1);
        h.release(v);
        assert_eq!(h.live_objects(), 0);
    }

    #[test]
    fn free_since_frees_only_the_younger_objects() {
        let mut h = heap(4, 4);
        let old = h.alloc(4).unwrap();
        let mark = h.mark();
        let young = h.alloc(4).unwrap();
        h.retain(young);
        h.alloc(8).unwrap();
        h.free_since(mark);
        assert_eq!(h.live_objects(), 1);
        assert_eq!(h.refcount(old), 1);
    }

    #[test]
    fn chunked_round_trip_across_pages() {
        let mut h = heap(3, 4);
        let v = h.alloc(11).unwrap();
        let data: Vec<f64> = (0..11).map(|i| i as f64 * 0.5).collect();
        h.write_chunk(v, 0, &data);
        assert_eq!(h.to_vec(v), data);
    }

    #[test]
    fn unaligned_chunk_access() {
        let mut h = heap(2, 4);
        let v = h.alloc(12).unwrap();
        h.write_chunk(v, 3, &[9.0, 8.0, 7.0, 6.0, 5.0]);
        let mut out = [0.0; 3];
        h.read_chunk(v, 4, &mut out);
        assert_eq!(out, [8.0, 7.0, 6.0]);
    }

    #[test]
    fn alloc_from_round_trips() {
        let mut h = heap(2, 4);
        let data: Vec<f64> = (0..9).map(|i| (i * i) as f64).collect();
        let v = h.alloc_from(&data).unwrap();
        assert_eq!(h.to_vec(v), data);
    }

    #[test]
    fn interleaved_streams_thrash_like_r() {
        // The Example-1 pattern: z[i] = x[i] + y[i] with 3 streams and a
        // cap of 2 frames forces a fault on nearly every page touch.
        let page = 4;
        let n = 40;
        let mut h = heap(2, page);
        let x = h.alloc(n).unwrap();
        let y = h.alloc(n).unwrap();
        for i in 0..n {
            h.set(x, i, i as f64);
            h.set(y, i, 2.0 * i as f64);
        }
        let pre = h.stats().faults;
        let z = h.alloc(n).unwrap();
        for i in 0..n {
            let v = h.get(x, i) + h.get(y, i);
            h.set(z, i, v);
        }
        let faults = h.stats().faults - pre;
        // 3 streams x 10 pages each, at most 2 resident: every page touch
        // in the loop faults (30 page-visits), and x/y pages fault on each
        // of the `page` element touches only once per page per rotation.
        assert!(
            faults >= 30,
            "expected heavy thrashing, got {faults} faults"
        );
        for i in 0..n {
            assert_eq!(h.get(z, i), 3.0 * i as f64);
        }
    }

    #[test]
    fn peak_statistics_track() {
        let mut h = heap(4, 4);
        let a = h.alloc(16).unwrap();
        assert_eq!(h.live_bytes(), 16 * 8);
        let b = h.alloc(16).unwrap();
        assert_eq!(h.stats().peak_live_bytes, 32 * 8);
        h.release(a);
        h.release(b);
        assert_eq!(h.live_bytes(), 0);
        assert_eq!(h.stats().peak_live_bytes, 32 * 8);
    }

    #[test]
    fn an_unreservable_page_table_is_a_typed_error() {
        let mut h = heap(2, 4);
        let err = h.alloc(usize::MAX).unwrap_err();
        assert_eq!(err.len, usize::MAX);
        assert_eq!((h.live_objects(), h.live_bytes()), (0, 0));
        assert!(h.alloc(4).is_ok(), "the heap carries on");
    }

    #[test]
    #[should_panic(expected = "dead object")]
    fn use_after_free_panics() {
        let mut h = heap(2, 4);
        let v = h.alloc(4).unwrap();
        h.release(v);
        h.len(v);
    }

    #[test]
    fn swap_slots_are_per_object_contiguous() {
        // Sequential sweep over one large object should look sequential to
        // the I/O classifier once it cycles through swap.
        let mut h = heap(2, 4);
        let v = h.alloc(32).unwrap(); // 8 pages
        for i in 0..32 {
            h.set(v, i, 1.0);
        }
        // Sweep again to fault everything back in order.
        for i in 0..32 {
            h.get(v, i);
        }
        let io = h.io_stats().snapshot();
        assert!(
            io.seq_reads * 2 >= io.reads,
            "sequential sweep should be mostly sequential: {io}"
        );
    }
}
