//! Shared harness code for the figure-regeneration binaries and the
//! workload corpus.

#![deny(unsafe_code)]

pub mod corpus;

use riot_core::{EngineConfig, EngineKind, Session};
use riot_storage::IoSnapshot;

/// Result of one Example-1 run.
#[derive(Debug, Clone, Copy)]
pub struct Example1Run {
    /// Engine measured.
    pub kind: EngineKind,
    /// Vector length.
    pub n: usize,
    /// I/O attributed to the program (excludes loading x and y).
    pub io: IoSnapshot,
    /// Scalar operations performed by the program.
    pub cpu_ops: u64,
    /// Wall-clock seconds of the in-simulator run.
    pub wall: f64,
}

/// Run the paper's Example 1 under `kind`:
///
/// ```text
/// d <- sqrt((x-xs)^2+(y-ys)^2) + sqrt((x-xe)^2+(y-ye)^2)
/// s <- sample(length(x), 100)
/// z <- d[s]
/// print(z)
/// ```
///
/// `mem_blocks` is the physical-memory cap (the paper's 84 MB `shmat`
/// lockdown, scaled to the experiment); loading of `x`/`y` happens before
/// measurement starts, mirroring the paper's setup where data pre-exists.
pub fn run_example1(kind: EngineKind, n: usize, mem_blocks: usize) -> Example1Run {
    let mut cfg = EngineConfig::new(kind);
    cfg.mem_blocks = mem_blocks;
    let s = Session::new(cfg);

    let x = s
        .vector_from_fn(n, |i| (i as f64 * 0.001).sin() * 100.0)
        .expect("load x");
    let y = s
        .vector_from_fn(n, |i| (i as f64 * 0.001).cos() * 100.0)
        .expect("load y");
    s.drop_caches().expect("cache drop");
    let before = s.io_snapshot();
    let ops_before = s.cpu_ops();
    let start = std::time::Instant::now();

    let (xs, ys, xe, ye) = (0.0, 0.0, 30.0, 40.0);
    let d = ((&x - xs).square() + (&y - ys).square()).sqrt()
        + ((&x - xe).square() + (&y - ye).square()).sqrt();
    let d = s.assign("d", &d).expect("assign d");
    let idx = s.sample(n, 100).expect("sample");
    let idx = s.assign("s", &idx).expect("assign s");
    let z = d.index(&idx);
    let z = s.assign("z", &z).expect("assign z");
    let out = z.collect().expect("print(z)");
    assert_eq!(out.len(), 100);

    Example1Run {
        kind,
        n,
        io: s.io_snapshot() - before,
        cpu_ops: s.cpu_ops() - ops_before,
        wall: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example1_runs_small() {
        let r = run_example1(EngineKind::Riot, 4096, 8);
        assert!(r.io.reads > 0);
        assert_eq!(r.n, 4096);
    }
}
