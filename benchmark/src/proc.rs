//! Process-level measurements taken from outside the engine: CPU time and
//! page faults (`getrusage`), peak resident set (`/proc/self/status`),
//! and the facts about the box that every artifact records.

use std::ffi::{c_int, c_long};
use std::path::Path;
use std::time::Instant;

/// `struct rusage` on 64-bit Linux: two `timeval`s followed by 14 longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime_sec: c_long,
    utime_usec: c_long,
    stime_sec: c_long,
    stime_usec: c_long,
    maxrss: c_long,
    _ixrss_idrss_isrss: [c_long; 3],
    minflt: c_long,
    _rest: [c_long; 9],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

/// Cumulative CPU seconds and minor faults of this process (all threads,
/// including exited prefetch workers).
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
}

impl Cpu {
    /// `/proc/self/stat` reports the same counters in 10 ms ticks, too
    /// coarse for the 0.1 s iterations of `hot_small`; `getrusage` returns
    /// the kernel's nanosecond run time split into user and system.
    pub fn now() -> Cpu {
        let mut ru = Rusage::default();
        // SAFETY: `ru` is a valid, writable `struct rusage` (layout above
        // matches the LP64 Linux ABI); RUSAGE_SELF (0) is always accepted.
        let rc = unsafe { getrusage(0, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        Cpu {
            user_s: ru.utime_sec as f64 + ru.utime_usec as f64 * 1e-6,
            sys_s: ru.stime_sec as f64 + ru.stime_usec as f64 * 1e-6,
            minor_faults: ru.minflt as u64,
        }
    }
}

/// Wall and CPU cost of one bracketed region.
#[derive(Debug, Clone, Copy, Default)]
pub struct Measured {
    pub wall_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
}

/// Start/stop bracket around a measured region.
pub struct Meter {
    t0: Instant,
    cpu0: Cpu,
}

impl Meter {
    pub fn start() -> Meter {
        Meter {
            cpu0: Cpu::now(),
            t0: Instant::now(),
        }
    }

    pub fn stop(&self) -> Measured {
        let wall_s = self.t0.elapsed().as_secs_f64();
        let cpu = Cpu::now();
        Measured {
            wall_s,
            user_s: cpu.user_s - self.cpu0.user_s,
            sys_s: cpu.sys_s - self.cpu0.sys_s,
            minor_faults: cpu.minor_faults - self.cpu0.minor_faults,
        }
    }
}

fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Reset the kernel's peak-RSS watermark so `VmHWM` afterwards covers
/// only what follows. Returns false where the kernel refuses (then the
/// caller samples `VmRSS` instead).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set since the last reset, MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Current resident set, MiB.
pub fn rss_mib() -> f64 {
    status_kib("VmRSS:").unwrap_or(0.0) / 1024.0
}

pub fn cores_available() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn kernel_release() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Filesystem type holding `dir`: the `/proc/self/mountinfo` entry with
/// the longest mount point that prefixes it.
pub fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best = (0usize, "unknown".to_string());
    for line in info.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> ... - <fstype> ..."
        let Some((head, tail)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (
            head.split_whitespace().nth(4),
            tail.split_whitespace().next(),
        ) else {
            continue;
        };
        if dir.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fstype.to_string());
        }
    }
    best.1
}
