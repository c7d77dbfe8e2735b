//! A block device backed by a real file.
//!
//! The simulated [`crate::MemBlockDevice`] is what the experiment harness
//! uses, but this implementation demonstrates that the whole stack —
//! buffer pool, tiled arrays, pipelined execution — genuinely runs out of
//! core against the filesystem. Integration tests exercise both devices
//! through the same code paths.
//!
//! Space comes back at the end of the file: `free` coalesces freed ranges
//! and, once they reach the file's end, shrinks the file (`set_len`), so
//! a workload that creates and drops objects keeps a flat footprint.
//! `allocate` only ever extends, so a reissued id reads zeros exactly like
//! a fresh one. Freed ranges below a live block stay holes until the
//! blocks above them are freed too.
//!
//! On unix, transfers use positioned I/O (`pread`/`pwrite` via
//! [`std::os::unix::fs::FileExt`]), so concurrent reads and writes of
//! distinct blocks overlap without any shared cursor or lock — the device
//! advertises [`BlockDevice::concurrent_io`]. Elsewhere a single cursor
//! lock serializes transfers (correct, just not overlapped).

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::ErrorKind;
#[cfg(not(unix))]
use std::io::{Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::device::{BlockDevice, BlockId};
use crate::error::{Result, StorageError};
use crate::stats::IoStats;

/// Read exactly `buf.len()` bytes from `src`, looping on short reads.
///
/// POSIX `read` may legally transfer fewer bytes than requested (signal
/// interruption, pipe buffering, network filesystems); assuming full
/// transfers silently corrupts pages. `Interrupted` errors are retried; a
/// premature end of stream is reported as `UnexpectedEof`. Semantically
/// this matches `std::io::Read::read_exact` — it is spelled out here so
/// the block path's partial-transfer handling is explicit and pinned by
/// the capped-transfer mock tests below, rather than inherited implicitly.
/// (The unix block path uses the positioned twin [`read_full_at`]; this
/// cursor-based form serves the non-unix fallback and the protocol tests.)
#[cfg_attr(unix, allow(dead_code))]
pub(crate) fn read_full<R: std::io::Read>(src: &mut R, mut buf: &mut [u8]) -> std::io::Result<()> {
    while !buf.is_empty() {
        match src.read(buf) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "device ended mid-block",
                ))
            }
            Ok(n) => buf = &mut buf[n..],
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Write all of `buf` to `dst`, looping on short writes (same contract as
/// [`read_full`]; a writer that accepts zero bytes is reported as
/// `WriteZero` instead of spinning).
#[cfg_attr(unix, allow(dead_code))]
pub(crate) fn write_full<W: std::io::Write>(dst: &mut W, mut buf: &[u8]) -> std::io::Result<()> {
    while !buf.is_empty() {
        match dst.write(buf) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::WriteZero,
                    "device refused mid-block",
                ))
            }
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Positioned twin of [`read_full`]: `pread` loop at `off`, no cursor.
#[cfg(unix)]
pub(crate) fn read_full_at(file: &File, mut buf: &mut [u8], mut off: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    while !buf.is_empty() {
        match file.read_at(buf, off) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "device ended mid-block",
                ))
            }
            Ok(n) => {
                buf = &mut buf[n..];
                off += n as u64;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Positioned twin of [`write_full`]: `pwrite` loop at `off`, no cursor.
#[cfg(unix)]
pub(crate) fn write_full_at(file: &File, mut buf: &[u8], mut off: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    while !buf.is_empty() {
        match file.write_at(buf, off) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::WriteZero,
                    "device refused mid-block",
                ))
            }
            Ok(n) => {
                buf = &buf[n..];
                off += n as u64;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// What a [`FileBlockDevice`] knows of its blocks: the file length and the
/// freed ranges below it.
#[derive(Default)]
struct Space {
    /// File length in blocks.
    num_blocks: u64,
    /// Freed ranges, `start -> end` (exclusive), coalesced: no two touch,
    /// and none reaches `num_blocks` (such a range shrinks the file).
    free: BTreeMap<u64, u64>,
}

/// A block device stored in a single file; block `i` lives at byte offset
/// `i * block_size`.
pub struct FileBlockDevice {
    file: File,
    path: PathBuf,
    block_size: usize,
    /// Guarded so `allocate`/`free` can run concurrently with transfers.
    space: Mutex<Space>,
    /// Serializes the shared file cursor on targets without positioned I/O.
    #[cfg(not(unix))]
    cursor: Mutex<()>,
    remove_on_drop: bool,
    stats: Arc<IoStats>,
}

impl FileBlockDevice {
    /// Create (truncating) a device file at `path`.
    pub fn create(path: &Path, block_size: usize) -> Result<Self> {
        assert!(block_size > 0, "block size must be positive");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileBlockDevice {
            file,
            path: path.to_path_buf(),
            block_size,
            space: Mutex::default(),
            #[cfg(not(unix))]
            cursor: Mutex::new(()),
            remove_on_drop: false,
            stats: IoStats::new_shared(),
        })
    }

    /// Open an existing device file at `path` without truncating it,
    /// deriving the block count from the file length — the reopen path
    /// after a process restart or crash.
    pub fn open(path: &Path, block_size: usize) -> Result<Self> {
        assert!(block_size > 0, "block size must be positive");
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        Ok(FileBlockDevice {
            file,
            path: path.to_path_buf(),
            block_size,
            space: Mutex::new(Space {
                num_blocks: len / block_size as u64,
                ..Space::default()
            }),
            #[cfg(not(unix))]
            cursor: Mutex::new(()),
            remove_on_drop: false,
            stats: IoStats::new_shared(),
        })
    }

    /// Create a device in a freshly named temporary file that is removed
    /// when the device is dropped.
    pub fn temp(block_size: usize) -> Result<Self> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("riot-dev-{}-{}.blk", std::process::id(), n));
        let mut dev = Self::create(&path, block_size)?;
        dev.remove_on_drop = true;
        Ok(dev)
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn check(&self, id: BlockId, buf_len: usize) -> Result<()> {
        if buf_len != self.block_size {
            return Err(StorageError::BadBufferLength {
                expected: self.block_size,
                got: buf_len,
            });
        }
        let num_blocks = self.num_blocks();
        if id.0 >= num_blocks {
            return Err(StorageError::OutOfBounds {
                block: id,
                num_blocks,
            });
        }
        Ok(())
    }

    fn offset_of(&self, id: BlockId) -> u64 {
        id.0 * self.block_size as u64
    }
}

impl BlockDevice for FileBlockDevice {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn num_blocks(&self) -> u64 {
        self.space.lock().unwrap().num_blocks
    }

    fn read_block(&self, id: BlockId, buf: &mut [u8]) -> Result<()> {
        self.check(id, buf.len())?;
        #[cfg(unix)]
        read_full_at(&self.file, buf, self.offset_of(id))?;
        #[cfg(not(unix))]
        {
            let _cursor = self.cursor.lock().unwrap();
            let mut f = &self.file;
            f.seek(SeekFrom::Start(self.offset_of(id)))?;
            read_full(&mut f, buf)?;
        }
        self.stats.record_read(id, self.block_size);
        Ok(())
    }

    fn write_block(&self, id: BlockId, buf: &[u8]) -> Result<()> {
        self.check(id, buf.len())?;
        #[cfg(unix)]
        write_full_at(&self.file, buf, self.offset_of(id))?;
        #[cfg(not(unix))]
        {
            let _cursor = self.cursor.lock().unwrap();
            let mut f = &self.file;
            f.seek(SeekFrom::Start(self.offset_of(id)))?;
            write_full(&mut f, buf)?;
        }
        self.stats.record_write(id, self.block_size);
        Ok(())
    }

    fn allocate(&self, n: u64) -> Result<BlockId> {
        let mut space = self.space.lock().unwrap();
        let start = BlockId(space.num_blocks);
        // Extending with set_len gives zero-filled (sparse where supported)
        // blocks without any data transfer.
        self.file
            .set_len((space.num_blocks + n) * self.block_size as u64)?;
        space.num_blocks += n;
        Ok(start)
    }

    fn free(&self, start: BlockId, n: u64) -> Result<()> {
        let mut space = self.space.lock().unwrap();
        let end = start.0.saturating_add(n);
        if end > space.num_blocks {
            return Err(StorageError::OutOfBounds {
                block: BlockId(end - 1),
                num_blocks: space.num_blocks,
            });
        }
        if n == 0 {
            return Ok(());
        }
        // Coalesce with the free neighbours; touching one is a merge,
        // overlapping one is a double free.
        let (mut lo, mut hi) = (start.0, end);
        if let Some((&s, &e)) = space.free.range(..=start.0).next_back() {
            if e > start.0 {
                return Err(StorageError::DoubleFree { block: start });
            }
            if e == start.0 {
                lo = s;
            }
        }
        if let Some((&s, &e)) = space.free.range(start.0 + 1..).next() {
            if s < end {
                return Err(StorageError::DoubleFree { block: BlockId(s) });
            }
            if s == end {
                hi = e;
            }
        }
        let tail = hi == space.num_blocks;
        if tail {
            self.file.set_len(lo * self.block_size as u64)?;
            space.num_blocks = lo;
        }
        space.free.remove(&lo);
        space.free.remove(&end);
        if !tail {
            space.free.insert(lo, hi);
        }
        Ok(())
    }

    fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    fn concurrent_io(&self) -> bool {
        cfg!(unix)
    }

    fn persistent(&self) -> bool {
        true
    }

    fn sync(&self) -> Result<()> {
        // fdatasync: block contents and length must be durable; file
        // timestamps need not survive a crash.
        self.file.sync_data()?;
        self.stats.record_sync();
        Ok(())
    }
}

impl Drop for FileBlockDevice {
    fn drop(&mut self) {
        if self.remove_on_drop {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn round_trip_through_real_file() {
        let d = FileBlockDevice::temp(128).unwrap();
        let b = d.allocate(3).unwrap();
        let mut data = vec![0u8; 128];
        data[5] = 99;
        d.write_block(b.offset(2), &data).unwrap();
        let mut out = vec![1u8; 128];
        d.read_block(b.offset(2), &mut out).unwrap();
        assert_eq!(out[5], 99);
        // Unwritten block reads back zeros thanks to set_len.
        d.read_block(b, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0));
    }

    #[test]
    fn temp_file_removed_on_drop() {
        let path;
        {
            let d = FileBlockDevice::temp(64).unwrap();
            path = d.path().to_path_buf();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }

    #[test]
    fn bounds_checked() {
        let d = FileBlockDevice::temp(64).unwrap();
        d.allocate(1).unwrap();
        let mut buf = vec![0u8; 64];
        assert!(d.read_block(BlockId(1), &mut buf).is_err());
        assert!(d.free(BlockId(0), 2).is_err());
        assert!(d.free(BlockId(0), 1).is_ok());
    }

    fn file_len(d: &FileBlockDevice) -> u64 {
        std::fs::metadata(d.path()).unwrap().len()
    }

    #[test]
    fn out_of_order_frees_coalesce_down_to_the_tail() {
        let d = FileBlockDevice::temp(64).unwrap();
        d.allocate(8).unwrap();
        // Holes below a live block keep the file at its length.
        d.free(BlockId(5), 1).unwrap();
        d.free(BlockId(2), 2).unwrap();
        assert_eq!((d.num_blocks(), file_len(&d)), (8, 8 * 64));
        // The last block goes: the file shrinks by exactly it.
        d.free(BlockId(7), 1).unwrap();
        assert_eq!((d.num_blocks(), file_len(&d)), (7, 7 * 64));
        // Block 6 joins the hole at 5 and both reach the end.
        d.free(BlockId(6), 1).unwrap();
        assert_eq!((d.num_blocks(), file_len(&d)), (5, 5 * 64));
        // Block 4 joins 2..4 and the tail: the file ends at the live block 1.
        d.free(BlockId(4), 1).unwrap();
        assert_eq!((d.num_blocks(), file_len(&d)), (2, 2 * 64));
        d.free(BlockId(0), 2).unwrap();
        assert_eq!((d.num_blocks(), file_len(&d)), (0, 0));
    }

    #[test]
    fn a_reissued_id_reads_zeros() {
        let d = FileBlockDevice::temp(64).unwrap();
        let b = d.allocate(4).unwrap();
        d.write_block(b.offset(3), &[9u8; 64]).unwrap();
        d.free(b.offset(3), 1).unwrap();
        let mut out = vec![0u8; 64];
        assert!(d.read_block(b.offset(3), &mut out).is_err(), "truncated");
        assert_eq!(d.allocate(1).unwrap(), b.offset(3), "the id comes back");
        d.read_block(b.offset(3), &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0), "as zeros, like a fresh id");
    }

    #[test]
    fn double_and_overlapping_frees_are_typed_errors_that_never_truncate() {
        let d = FileBlockDevice::temp(64).unwrap();
        let b = d.allocate(6).unwrap();
        for i in 0..6 {
            d.write_block(b.offset(i), &[i as u8 + 1; 64]).unwrap();
        }
        d.free(BlockId(1), 1).unwrap();
        d.free(BlockId(4), 1).unwrap();
        let double = |start, n, first| match d.free(BlockId(start), n) {
            Err(StorageError::DoubleFree { block }) => assert_eq!(block, BlockId(first)),
            other => panic!("free({start}, {n}): {other:?}"),
        };
        double(1, 1, 1); // the same block again
        double(0, 2, 1); // a range ending in a free block
        double(3, 3, 4); // a range reaching the tail over a free block
        double(4, 2, 4); // a range starting at one
        assert!(matches!(
            d.free(BlockId(5), 2),
            Err(StorageError::OutOfBounds { .. })
        ));
        // Nothing was freed or truncated by the refused calls.
        assert_eq!((d.num_blocks(), file_len(&d)), (6, 6 * 64));
        let mut out = vec![0u8; 64];
        for i in [0, 2, 3, 5] {
            d.read_block(BlockId(i), &mut out).unwrap();
            assert_eq!(out[0], i as u8 + 1, "live block {i} intact");
        }
        // The refused ranges were not recorded as free: freeing the live
        // blocks one by one still coalesces everything down to nothing.
        for i in [3, 0, 5, 2] {
            d.free(BlockId(i), 1).unwrap();
        }
        assert_eq!((d.num_blocks(), file_len(&d)), (0, 0));
    }

    #[test]
    fn concurrent_reads_of_distinct_blocks() {
        let d = Arc::new(FileBlockDevice::temp(64).unwrap());
        let b = d.allocate(8).unwrap();
        for i in 0..8 {
            let data = vec![i as u8; 64];
            d.write_block(b.offset(i), &data).unwrap();
        }
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let d = Arc::clone(&d);
                s.spawn(move || {
                    let mut out = vec![0u8; 64];
                    for round in 0..25u64 {
                        let i = (t * 2 + round) % 8;
                        d.read_block(b.offset(i), &mut out).unwrap();
                        assert_eq!(out[0], i as u8, "torn or misplaced read");
                    }
                });
            }
        });
        assert_eq!(d.stats().snapshot().reads, 100);
    }

    /// A transport that transfers at most `cap` bytes per call and
    /// injects an `Interrupted` error every third call — the adversarial
    /// partial-transfer behaviour POSIX permits.
    struct CappedPipe {
        data: Vec<u8>,
        pos: usize,
        cap: usize,
        calls: usize,
    }

    impl CappedPipe {
        fn new(cap: usize) -> Self {
            CappedPipe {
                data: Vec::new(),
                pos: 0,
                cap,
                calls: 0,
            }
        }

        fn with_data(data: Vec<u8>, cap: usize) -> Self {
            CappedPipe {
                data,
                pos: 0,
                cap,
                calls: 0,
            }
        }

        fn interrupt_due(&mut self) -> bool {
            self.calls += 1;
            self.calls.is_multiple_of(3)
        }
    }

    impl Read for CappedPipe {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.interrupt_due() {
                return Err(std::io::Error::new(ErrorKind::Interrupted, "signal"));
            }
            let n = buf.len().min(self.cap).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    impl Write for CappedPipe {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.interrupt_due() {
                return Err(std::io::Error::new(ErrorKind::Interrupted, "signal"));
            }
            let n = buf.len().min(self.cap);
            self.data.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn read_full_survives_short_reads_and_interrupts() {
        let data: Vec<u8> = (0..=255).collect();
        let mut pipe = CappedPipe::with_data(data.clone(), 7);
        let mut buf = vec![0u8; 256];
        read_full(&mut pipe, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn read_full_reports_premature_eof() {
        let mut pipe = CappedPipe::with_data(vec![1, 2, 3], 2);
        let mut buf = vec![0u8; 8];
        let err = read_full(&mut pipe, &mut buf).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn write_full_survives_short_writes_and_interrupts() {
        let data: Vec<u8> = (0..100).map(|i| i * 2).collect();
        let mut pipe = CappedPipe::new(3);
        write_full(&mut pipe, &data).unwrap();
        assert_eq!(pipe.data, data);
    }

    #[test]
    fn write_full_reports_write_zero() {
        let mut pipe = CappedPipe::new(0);
        let err = write_full(&mut pipe, &[9u8; 4]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WriteZero);
    }

    #[cfg(unix)]
    #[test]
    fn positioned_helpers_round_trip() {
        let d = FileBlockDevice::temp(32).unwrap();
        d.allocate(4).unwrap();
        let data: Vec<u8> = (0..32).collect();
        write_full_at(&d.file, &data, 64).unwrap();
        let mut out = vec![0u8; 32];
        read_full_at(&d.file, &mut out, 64).unwrap();
        assert_eq!(out, data);
        // Reading past EOF reports UnexpectedEof, not silence.
        let err = read_full_at(&d.file, &mut out, 4 * 32).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn stats_counted_for_file_io() {
        let d = FileBlockDevice::temp(64).unwrap();
        let b = d.allocate(2).unwrap();
        let data = vec![7u8; 64];
        d.write_block(b, &data).unwrap();
        d.write_block(b.offset(1), &data).unwrap();
        let snap = d.stats().snapshot();
        assert_eq!(snap.writes, 2);
        assert_eq!(snap.seq_writes, 1);
    }

    #[test]
    fn sync_reaches_the_os_and_is_counted() {
        let d = FileBlockDevice::temp(64).unwrap();
        let b = d.allocate(1).unwrap();
        d.write_block(b, &[1u8; 64]).unwrap();
        d.sync().unwrap();
        assert_eq!(d.stats().snapshot().syncs, 1);
    }

    #[test]
    fn open_resumes_an_existing_file() {
        let d = FileBlockDevice::temp(64).unwrap();
        let path = d.path().to_path_buf();
        let b = d.allocate(3).unwrap();
        d.write_block(b.offset(2), &[8u8; 64]).unwrap();
        d.sync().unwrap();
        // Forget the device without removing the file.
        std::mem::forget(d);

        let d2 = FileBlockDevice::open(&path, 64).unwrap();
        assert_eq!(d2.num_blocks(), 3, "size derived from file length");
        let mut out = vec![0u8; 64];
        d2.read_block(BlockId(2), &mut out).unwrap();
        assert_eq!(out[0], 8);
        assert_eq!(d2.allocate(1).unwrap(), BlockId(3));
        std::fs::remove_file(&path).unwrap();
    }
}
