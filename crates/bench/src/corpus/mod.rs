//! The end-to-end workload corpus: six named R programs that exercise
//! the whole stack — optimizer, kernels, buffer pool, prefetcher — the
//! way the paper's motivating applications do, each pinned to an exact
//! counted-I/O budget per engine and one expected output checksum.
//!
//! Every workload is an R script under `crates/bench/corpus/*.R` plus a
//! manifest (`*.manifest`, see [`manifest`]) giving sizes, the memory
//! ratio, the engine list, the expected output checksum, and the exact
//! I/O budget per engine. The grid runner executes each script under all
//! four engines at thread counts {1, 4} and prefetch {0, AUTO}, asserts
//! that every cell prints byte-identical output, and asserts every
//! engine's budget bit-for-bit in **every** cell — parallelism and
//! prefetch may only move time, never counted I/O.

pub mod manifest;

use riot_core::{EngineConfig, EngineKind};
use riot_rlang::Interpreter;
use riot_storage::PREFETCH_AUTO;

pub use manifest::{Budget, Manifest, Profile};

/// Thread counts every cell grid runs.
pub const THREADS: [usize; 2] = [1, 4];

/// Prefetch depths every cell grid runs (demand paging and the
/// device-adaptive default).
pub const PREFETCHES: [usize; 2] = [0, PREFETCH_AUTO];

/// Catalog-name prefix for stored corpus inputs (the reopen-by-name
/// property test finds them under these names in a second session).
pub const STORED_PREFIX: &str = "corpus_";

/// One workload: script text, parsed manifest, and the manifest's
/// on-disk path (so `--update` can rewrite it).
pub struct Workload {
    /// Short name (`ridge`, `kmeans`, ...).
    pub name: &'static str,
    /// The R program.
    pub script: &'static str,
    /// Absolute path of the manifest file.
    pub manifest_path: &'static str,
    /// Parsed manifest.
    pub manifest: Manifest,
}

macro_rules! workload {
    ($name:literal) => {
        Workload {
            name: $name,
            script: include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/", $name, ".R")),
            manifest_path: concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/", $name, ".manifest"),
            manifest: Manifest::parse(include_str!(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/corpus/",
                $name,
                ".manifest"
            )))
            .unwrap_or_else(|e| panic!("{}.manifest: {e}", $name)),
        }
    };
}

/// All corpus workloads, in presentation order.
pub fn workloads() -> Vec<Workload> {
    vec![
        workload!("ridge"),
        workload!("kmeans"),
        workload!("pca"),
        workload!("iot"),
        workload!("spmv"),
        workload!("mixed"),
    ]
}

/// Find one workload by name.
pub fn workload(name: &str) -> Workload {
    workloads()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("no corpus workload named '{name}'"))
}

// ================= input data =================

/// One pre-bound input for a workload (how harnesses inject large data
/// without writing it as source literals — mirroring data that already
/// lives in the database, per the paper's setup).
pub enum Input {
    /// A scalar binding (size parameters the script reads).
    Scalar(&'static str, f64),
    /// A generated vector.
    Vector(&'static str, usize, Box<dyn Fn(usize) -> f64>),
    /// A generated dense matrix.
    Matrix(&'static str, usize, usize, Box<dyn Fn(usize, usize) -> f64>),
    /// A COO sparse matrix.
    Sparse(&'static str, usize, usize, Vec<(usize, usize, f64)>),
}

/// The input set for `workload` under `profile`'s size parameters. All
/// generated data is integer-valued, so every cross-engine aggregate is
/// exact and printed output is byte-identical regardless of kernel
/// summation order.
pub fn inputs(workload: &str, profile: &Profile) -> Vec<Input> {
    match workload {
        "ridge" => {
            let n = profile.param("n") as usize;
            let p = profile.param("p") as usize;
            vec![
                // Data rows are pseudo-random integers in -5..=5 with an
                // all-ones first column; the last p rows are the ridge
                // augmentation sqrt(lambda) * I with lambda = 4.
                Input::Matrix(
                    "x",
                    n + p,
                    p,
                    Box::new(move |i, j| {
                        if i < n {
                            if j == 0 {
                                1.0
                            } else {
                                ((i * (j + 2) + 3 * j) % 11) as f64 - 5.0
                            }
                        } else if i - n == j {
                            2.0
                        } else {
                            0.0
                        }
                    }),
                ),
                Input::Matrix(
                    "y",
                    n + p,
                    1,
                    Box::new(move |i, _| if i < n { ((i * 3 + 1) % 7) as f64 } else { 0.0 }),
                ),
            ]
        }
        "kmeans" => {
            let n = profile.param("n") as usize;
            let iters = profile.param("iters");
            // Three integer blobs around (0,0), (12,2), (2,12) with
            // offsets in -2..=2.
            let blob = |i: usize| -> (f64, f64) {
                let (cx, cy) = match i % 3 {
                    0 => (0.0, 0.0),
                    1 => (12.0, 2.0),
                    _ => (2.0, 12.0),
                };
                let dx = ((i * 7) % 5) as f64 - 2.0;
                let dy = ((i * 13) % 5) as f64 - 2.0;
                (cx + dx, cy + dy)
            };
            vec![
                Input::Scalar("iters", iters as f64),
                Input::Vector("px", n, Box::new(move |i| blob(i).0)),
                Input::Vector("py", n, Box::new(move |i| blob(i).1)),
            ]
        }
        "pca" => {
            let n = profile.param("n") as usize;
            let p = profile.param("p") as usize;
            // Strictly positive integers: every Gram entry is a large
            // positive integer, and the columns are linearly independent
            // (chol would fail loudly otherwise).
            let _ = (n, p);
            vec![Input::Matrix(
                "x",
                n,
                p,
                Box::new(|i, j| 1.0 + ((i * (j + 2) + j) % 11) as f64),
            )]
        }
        "iot" => {
            let k = profile.param("k");
            let w = profile.param("w");
            let len = (k * w) as usize;
            vec![
                Input::Scalar("k", k as f64),
                Input::Scalar("w", w as f64),
                // Integer readings with a per-window level shift, so each
                // window's rollup is distinct.
                Input::Vector(
                    "s",
                    len,
                    Box::new(move |i| ((i * 13 + 5) % 17) as f64 - 8.0 + (i as u64 / w) as f64),
                ),
            ]
        }
        "spmv" => {
            let n = profile.param("n") as usize;
            let iters = profile.param("iters");
            // <= 4 nonzeros per row at distinct columns, values 1..=3.
            let mut trips = Vec::new();
            for i in 0..n {
                let nnz = i % 4 + 1;
                for j in 0..nnz {
                    let c = (i * 7 + j * (n / 4 + 1) + 1) % n;
                    trips.push((i, c, ((i + j) % 3 + 1) as f64));
                }
            }
            dedupe_triplets(&mut trips);
            vec![
                Input::Scalar("iters", iters as f64),
                Input::Sparse("a", n, n, trips),
                Input::Matrix("v", n, 1, Box::new(|_, _| 1.0)),
            ]
        }
        "mixed" => {
            let n = profile.param("n") as usize;
            let m = profile.param("m") as usize;
            let _ = m;
            vec![
                // d: mostly zero, non-negative (roughly 1/17 occupancy).
                Input::Matrix(
                    "d",
                    n,
                    n,
                    Box::new(|i, j| {
                        if (i * j + i + 3 * j) % 17 == 0 {
                            ((i + j) % 3 + 1) as f64
                        } else {
                            0.0
                        }
                    }),
                ),
                Input::Matrix("d2", n, m, Box::new(|i, j| ((i * 5 + j * 3) % 5) as f64)),
            ]
        }
        other => panic!("no input generator for workload '{other}'"),
    }
}

/// Sum duplicate COO coordinates (mirrors engine semantics, but keeps
/// the generated nnz statistic honest for the manifest).
fn dedupe_triplets(trips: &mut Vec<(usize, usize, f64)>) {
    trips.sort_by_key(|&(r, c, _)| (r, c));
    trips.dedup_by(|a, b| {
        if a.0 == b.0 && a.1 == b.1 {
            b.2 += a.2;
            true
        } else {
            false
        }
    });
}

/// Bind every input into `interp`. With `stored = true`, vector/matrix
/// inputs are also registered in the session catalog under
/// [`STORED_PREFIX`]-prefixed names, so a later session over the same
/// durable storage can [`open_inputs`] them.
pub fn bind_inputs(interp: &mut Interpreter, inputs: &[Input], stored: bool) {
    for input in inputs {
        let r = match input {
            Input::Scalar(name, v) => {
                interp.bind_scalar(name, *v);
                Ok(())
            }
            Input::Vector(name, len, f) => {
                if stored {
                    interp.bind_vector_stored(name, &format!("{STORED_PREFIX}{name}"), *len, f)
                } else {
                    interp.bind_vector(name, *len, f)
                }
            }
            Input::Matrix(name, rows, cols, f) => {
                if stored {
                    interp.bind_matrix_stored(
                        name,
                        &format!("{STORED_PREFIX}{name}"),
                        *rows,
                        *cols,
                        f,
                    )
                } else {
                    interp.bind_matrix(name, *rows, *cols, f)
                }
            }
            Input::Sparse(name, rows, cols, trips) => {
                if stored {
                    interp.bind_sparse_stored(
                        name,
                        &format!("{STORED_PREFIX}{name}"),
                        *rows,
                        *cols,
                        trips,
                    )
                } else {
                    interp.bind_sparse(name, *rows, *cols, trips)
                }
            }
        };
        r.unwrap_or_else(|e| panic!("binding corpus input: {e}"));
    }
}

/// Rebind every input by reopening the stored objects a previous
/// [`bind_inputs`]`(.., stored = true)` left in the catalog. Scalars are
/// re-bound directly (they are script parameters, not stored objects).
pub fn open_inputs(interp: &mut Interpreter, inputs: &[Input]) {
    for input in inputs {
        let r = match input {
            Input::Scalar(name, v) => {
                interp.bind_scalar(name, *v);
                Ok(())
            }
            Input::Vector(name, ..) => {
                interp.bind_open_vector(name, &format!("{STORED_PREFIX}{name}"))
            }
            Input::Matrix(name, ..) | Input::Sparse(name, ..) => {
                interp.bind_open_matrix(name, &format!("{STORED_PREFIX}{name}"))
            }
        };
        r.unwrap_or_else(|e| panic!("reopening corpus input: {e}"));
    }
}

// ================= cell runner =================

/// One point of the engine x threads x prefetch grid.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Engine under test.
    pub engine: EngineKind,
    /// Worker threads at forcing points.
    pub threads: usize,
    /// Buffer-pool prefetch depth (0 or [`PREFETCH_AUTO`]).
    pub prefetch: usize,
}

/// The full grid for `engines`.
pub fn grid(engines: &[EngineKind]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &engine in engines {
        for &threads in &THREADS {
            for &prefetch in &PREFETCHES {
                cells.push(Cell {
                    engine,
                    threads,
                    prefetch,
                });
            }
        }
    }
    cells
}

/// Measurements from one cell run.
pub struct CellResult {
    /// The grid point measured.
    pub cell: Cell,
    /// Everything the script printed.
    pub output: String,
    /// FNV-1a of `output` (what manifests pin).
    pub checksum: u64,
    /// Counted block I/O during the script (loading excluded).
    pub io: Budget,
}

/// Session configuration for one cell of `profile`.
pub fn session_config(profile: &Profile, cell: Cell) -> EngineConfig {
    let mut cfg = EngineConfig::new(cell.engine);
    cfg.block_size = profile.block_size;
    cfg.mem_blocks = profile.mem_blocks;
    cfg.chunk_elems = profile.chunk_elems;
    cfg.threads = cell.threads;
    cfg.prefetch_depth = cell.prefetch;
    cfg
}

/// Run `script` against an interpreter whose inputs are already bound:
/// drop caches (so the script is measured cold, like the paper's
/// separate load and query phases), then count the I/O around the run.
pub fn run_script_measured(interp: &mut Interpreter, script: &str) -> (String, Budget) {
    let session = interp.session().clone();
    session.drop_caches().expect("drop caches");
    let io0 = session.io_snapshot();
    let output = interp
        .run(script)
        .unwrap_or_else(|e| panic!("corpus script failed: {e}"));
    let io = session.io_snapshot() - io0;
    let counted = Budget {
        reads: io.reads,
        writes: io.writes,
    };
    (output, counted)
}

/// Run one grid cell of `workload` under `profile` from a fresh session.
pub fn run_cell(w: &Workload, profile: &Profile, cell: Cell) -> CellResult {
    let mut interp = Interpreter::new(session_config(profile, cell));
    bind_inputs(&mut interp, &inputs(w.name, profile), false);
    let (output, io) = run_script_measured(&mut interp, w.script);
    CellResult {
        cell,
        checksum: fnv1a(&output),
        output,
        io,
    }
}

/// Everything measured for one workload across the grid.
pub struct WorkloadReport {
    /// The (cross-engine identical) output checksum.
    pub checksum: u64,
    /// One result per grid cell, grid order.
    pub cells: Vec<CellResult>,
}

/// Run the full grid for `w` under the named profile, asserting
/// cross-engine output equality and every engine's exact I/O budget in
/// every thread/prefetch cell. Panics (with the drifted numbers) on any
/// mismatch — this is the regression gate CI runs.
pub fn verify_workload(w: &Workload, profile_name: &str) -> WorkloadReport {
    let profile = w
        .manifest
        .profile(profile_name)
        .unwrap_or_else(|| panic!("{}: no profile '{profile_name}'", w.name));
    let mut cells = Vec::new();
    let mut reference: Option<String> = None;
    for cell in grid(&w.manifest.engines) {
        let r = run_cell(w, profile, cell);
        match &reference {
            None => reference = Some(r.output.clone()),
            Some(want) => assert_eq!(
                &r.output, want,
                "{}/{}: output under {:?} t{} pf{} diverged from the first cell",
                w.name, profile_name, cell.engine, cell.threads, cell.prefetch
            ),
        }
        assert_eq!(
            r.checksum, profile.checksum,
            "{}/{}: output checksum {:#018x} != manifest {:#018x} under {:?} \
             (regenerate with riot-corpus --update if intentional)",
            w.name, profile_name, r.checksum, profile.checksum, cell.engine
        );
        let budget = profile.budget(cell.engine).unwrap_or_else(|| {
            panic!(
                "{}/{}: manifest has no budget for {:?} (run riot-corpus --update)",
                w.name, profile_name, cell.engine
            )
        });
        assert_eq!(
            r.io, budget,
            "{}/{}: counted I/O under {:?} t{} pf{} drifted from the pinned budget \
             (regenerate with riot-corpus --update if intentional)",
            w.name, profile_name, cell.engine, cell.threads, cell.prefetch
        );
        cells.push(r);
    }
    WorkloadReport {
        checksum: profile.checksum,
        cells,
    }
}

/// Measure the budgets and checksum for one profile of `w` from the
/// canonical threads=1 / prefetch=0 cells (valid for the whole grid by
/// the I/O-parity invariant, which [`verify_workload`] then re-asserts).
pub fn measure_profile(w: &Workload, profile: &Profile) -> (u64, Vec<(EngineKind, Budget)>) {
    let mut checksum = None;
    let mut budgets = Vec::new();
    for &engine in &w.manifest.engines {
        let cell = Cell {
            engine,
            threads: 1,
            prefetch: 0,
        };
        let r = run_cell(w, profile, cell);
        match checksum {
            None => checksum = Some(r.checksum),
            Some(c) => assert_eq!(
                c, r.checksum,
                "{}: engines disagree on output while measuring budgets",
                w.name
            ),
        }
        budgets.push((engine, r.io));
    }
    (checksum.expect("at least one engine"), budgets)
}

/// FNV-1a over a string — the corpus checksum function.
pub fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}
