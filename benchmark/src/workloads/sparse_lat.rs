//! `sparse_lat`: SpMV power iteration over a sparse matrix whose pages
//! are 30x the pool, on a device with 100 µs of *modelled* read latency.
//! The sandbox's page cache hides the slow device the paper is about
//! (pread ≈ 1.5 µs per block); here the pool's prefetch/overlap and the
//! sparse kernel's windows decide the time, and compute is negligible.

use std::collections::HashMap;
use std::time::Duration;

use riot::storage::PREFETCH_AUTO;
use riot::Interpreter;

use super::{matrix, printed_numbers, Baseline, Params, Plan, Workload};
use crate::gen;
use crate::harness::{IterOpts, IterReport, Program, SharedEnv};
use crate::layers::Sample;
use crate::store::{Instruments, StoreOpts, BLOCK_SIZE};

/// Modelled, not measured: `FailpointDevice` sleeps this long per read.
const READ_LATENCY: Duration = Duration::from_micros(100);
/// Square tiles of 8 KiB blocks.
const TILE: usize = 32;
const NNZ_PER_ROW: usize = 4;
const ROUNDS: usize = 2;
const COLS: u64 = 1;
const VALS: u64 = 2;
const TILE_COLS: u64 = 1000;

/// Triplets with at most four entries per row. Every tile row occupies
/// exactly `tiles_per_row` tiles — which ones, and where inside them the
/// entries sit, depends on the seed; how many pages the matrix stores
/// does not, so `blocks_read` can be compared across seeds.
fn triplets(seed: u64, n: usize, tiles_per_row: usize) -> Vec<(usize, usize, f64)> {
    let tile_rows = n / TILE;
    let mut out = Vec::with_capacity(n * NNZ_PER_ROW);
    for ti in 0..tile_rows {
        let tile_cols = gen::permutation(seed, TILE_COLS + ti as u64, tile_rows);
        for r in 0..TILE {
            let row = ti * TILE + r;
            for k in 0..NNZ_PER_ROW {
                let q = r * NNZ_PER_ROW + k;
                let e = (row * NNZ_PER_ROW + k) as u64;
                let col = tile_cols[q % tiles_per_row] * TILE
                    + gen::below(seed, COLS, e, TILE as u64) as usize;
                out.push((row, col, 1.0 + gen::below(seed, VALS, e, 4) as f64));
            }
        }
    }
    out
}

struct Reference {
    nnz: f64,
    /// `sum(v)` after each round.
    sums: Vec<f64>,
    v: Vec<f64>,
}

pub struct SparseLat {
    params: Params,
    n: usize,
    tiles_per_row: usize,
    frames: usize,
    program: Program,
    instruments: Instruments,
    trips: Vec<(usize, usize, f64)>,
    env: Option<SharedEnv>,
    reference: Option<Reference>,
}

impl SparseLat {
    pub fn new(params: &Params) -> SparseLat {
        let (n, tiles_per_row, frames) = if params.smoke {
            (2048, 8, 64)
        } else {
            (16384, 30, 512)
        };
        SparseLat {
            params: params.clone(),
            n,
            tiles_per_row,
            frames,
            program: Program::new(
                include_str!("../../scripts/sparse_lat.R"),
                HashMap::from([("iters", ROUNDS as f64)]),
            ),
            trips: Vec::new(),
            instruments: Instruments::new(),
            env: None,
            reference: None,
        }
    }

    fn bind(interp: &mut Interpreter) -> Result<(), String> {
        interp
            .bind_open_matrix("a", "a")
            .and_then(|()| interp.bind_open_matrix("v", "v"))
            .map_err(|e| e.to_string())
    }

    /// Exact: integer data, so any summation order gives these values.
    fn verify(&self, printed: &[f64], v: &[f64]) -> Result<(), String> {
        let want = self.reference.as_ref().ok_or("reference not prepared")?;
        let mut expect = vec![want.nnz];
        expect.extend(&want.sums);
        if printed != expect {
            return Err(format!("printed {printed:?}, reference {expect:?}"));
        }
        if v != want.v {
            return Err("final v differs from the reference".to_string());
        }
        Ok(())
    }
}

impl Workload for SparseLat {
    fn plan(&self) -> Plan {
        Plan {
            warmup: 1,
            min_timed: 5,
            traced: 2,
        }
    }

    fn input_bytes(&self) -> u64 {
        (self.n * NNZ_PER_ROW * 24 + self.n * 8) as u64
    }

    fn setup(&mut self) -> Result<(), String> {
        self.env = None;
        self.trips = triplets(self.params.seed, self.n, self.tiles_per_row);
        let (n, trips) = (self.n, &self.trips);
        let opts = StoreOpts {
            frames: self.frames,
            prefetch: PREFETCH_AUTO,
            read_latency: Some(READ_LATENCY),
        };
        let env = SharedEnv::create(
            &self.params.dir,
            "sparse_lat",
            opts,
            &self.instruments,
            true,
            |interp| {
                interp
                    .bind_sparse_stored("a", "a", n, n, trips)
                    .and_then(|()| interp.bind_matrix_stored("v", "v", n, 1, |_, _| 1.0))
                    .map_err(|e| e.to_string())
            },
        )?;
        self.env = Some(env);
        Ok(())
    }

    fn prepare_reference(&mut self) {
        let mut v = vec![1.0; self.n];
        let mut sums = Vec::new();
        for _ in 0..ROUNDS {
            let mut next = vec![0.0; self.n];
            for &(r, c, a) in &self.trips {
                next[r] += a * v[c];
            }
            sums.push(next.iter().sum());
            v = next;
        }
        self.reference = Some(Reference {
            nnz: self.trips.len() as f64,
            sums,
            v,
        });
    }

    fn corrupt_reference(&mut self) {
        self.reference.as_mut().expect("reference prepared").v[0] += 1.0;
    }

    fn iterate(&mut self, opts: IterOpts) -> IterReport {
        let env = self.env.as_ref().expect("setup ran");
        let (mut report, fetched) = env.iterate(opts, &self.program, Self::bind, |interp, out| {
            Ok((printed_numbers(out), matrix(interp, "v")?))
        });
        if let (Ok(()), Some((printed, v))) = (&report.verdict, fetched) {
            report.verdict = self.verify(&printed, &v);
        }
        report
    }

    fn explain_probe(&mut self) -> Result<f64, String> {
        let deferred = self.program.with_script("w <- a %*% (a %*% v)\n");
        let env = self.env.as_ref().expect("setup ran");
        env.explain_probe(&deferred, "w", Self::bind)
    }

    /// Device bytes the stored sparse matrix occupies per non-zero (one
    /// 8 KiB page per occupied tile, plus the directory).
    fn extras(&mut self, _baseline: &Baseline) -> Result<Sample, String> {
        let ctx = &self.env.as_ref().expect("setup ran").store.ctx;
        let id = ctx.find_object("a").ok_or("no stored object 'a'")?;
        let segments = ctx.object_segments(id).map_err(|e| e.to_string())?;
        let bytes = segments.iter().map(|s| s.blocks).sum::<u64>() * BLOCK_SIZE as u64;
        let per_nnz = bytes as f64 / self.trips.len() as f64;
        Ok(Sample::from([("sparse.stored_bytes_per_nnz", per_nnz)]))
    }
}
