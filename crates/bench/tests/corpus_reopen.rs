//! Property test: a corpus workload whose inputs were stored under
//! catalog names can be re-run by a *second* session — rebinding every
//! input by name through the PR 6 self-describing headers — and both
//! runs print byte-identical output with identical counted I/O.
//!
//! Two boundaries are exercised for every catalog-backed engine at both
//! thread counts and prefetch settings:
//!
//! * **Same context** (non-durable): a fresh session over the same
//!   `StorageCtx` reopens the inputs by name and re-runs the script.
//!   Output and counted I/O must match the first run exactly — the
//!   second run starts from the same cold-cache, same-catalog state.
//! * **Process boundary** (durable): commit, drop everything, recover
//!   the catalog from the shared device with `StorageCtx::open`, reopen
//!   the inputs, re-run. Output and counted *reads* must match; writes
//!   are allowed to differ because every catalog mutation in a durable
//!   context commits a snapshot whose size tracks free-list shape, which
//!   the first life's temporaries legitimately changed.
//!
//! `PlainR` is excluded: its heap has no catalog, nothing to reopen.

use proptest::prelude::*;
use riot_bench::corpus::{self, bind_inputs, open_inputs, run_script_measured, Cell};
use riot_core::{EngineKind, Session};
use riot_rlang::Interpreter;
use riot_storage::{BufferPool, MemBlockDevice, PoolConfig, ReplacerKind, PREFETCH_AUTO};
use std::sync::Arc;

const ENGINES: [EngineKind; 3] = [EngineKind::Strawman, EngineKind::MatNamed, EngineKind::Riot];

fn pool_over(dev: Arc<MemBlockDevice>, frames: usize, prefetch: usize) -> BufferPool {
    BufferPool::new(
        Box::new(dev),
        PoolConfig {
            frames,
            replacer: ReplacerKind::Lru,
            prefetch_depth: prefetch,
            ..PoolConfig::default()
        },
    )
}

fn check_same_ctx_rerun(workload: &str, engine: EngineKind, threads: usize, prefetch: usize) {
    let w = corpus::workload(workload);
    let profile = w.manifest.profile("test").expect("test profile");
    let cell = Cell {
        engine,
        threads,
        prefetch,
    };
    let cfg = corpus::session_config(profile, cell);
    let inputs = corpus::inputs(w.name, profile);

    let ctx = riot_array::context::StorageCtx::from_pool(pool_over(
        Arc::new(MemBlockDevice::new(profile.block_size)),
        profile.mem_blocks,
        prefetch,
    ));
    let mut interp = Interpreter::with_session(Session::with_ctx(cfg, Arc::clone(&ctx)));
    bind_inputs(&mut interp, &inputs, true);
    let (out1, m1) = run_script_measured(&mut interp, w.script);
    drop(interp);

    let mut interp = Interpreter::with_session(Session::with_ctx(cfg, ctx));
    open_inputs(&mut interp, &inputs);
    let (out2, m2) = run_script_measured(&mut interp, w.script);

    assert_eq!(
        out1, out2,
        "{workload}/{engine:?} t{threads}: output changed on same-ctx rerun"
    );
    assert_eq!(
        (m1.reads, m1.writes),
        (m2.reads, m2.writes),
        "{workload}/{engine:?} t{threads}: counted I/O changed on same-ctx rerun"
    );
}

fn check_durable_reopen(workload: &str, engine: EngineKind, threads: usize, prefetch: usize) {
    let w = corpus::workload(workload);
    let profile = w.manifest.profile("test").expect("test profile");
    let cell = Cell {
        engine,
        threads,
        prefetch,
    };
    let cfg = corpus::session_config(profile, cell);
    let inputs = corpus::inputs(w.name, profile);

    let dev = Arc::new(MemBlockDevice::new(profile.block_size));
    let ctx = riot_array::context::StorageCtx::new_durable(pool_over(
        Arc::clone(&dev),
        profile.mem_blocks,
        prefetch,
    ))
    .expect("format durable ctx");
    let mut interp = Interpreter::with_session(Session::with_ctx(cfg, Arc::clone(&ctx)));
    bind_inputs(&mut interp, &inputs, true);
    let (out1, m1) = run_script_measured(&mut interp, w.script);
    drop(interp);
    ctx.commit().expect("flush + commit before 'shutdown'");
    drop(ctx);

    let ctx = riot_array::context::StorageCtx::open(pool_over(
        Arc::clone(&dev),
        profile.mem_blocks,
        prefetch,
    ))
    .expect("reopen durable ctx");
    let mut interp = Interpreter::with_session(Session::with_ctx(cfg, ctx));
    open_inputs(&mut interp, &inputs);
    let (out2, m2) = run_script_measured(&mut interp, w.script);

    assert_eq!(
        out1, out2,
        "{workload}/{engine:?} t{threads}: output changed across durable reopen"
    );
    assert_eq!(
        m1.reads, m2.reads,
        "{workload}/{engine:?} t{threads}: counted reads changed across durable reopen"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn corpus_scripts_rerun_identically_in_one_ctx(
        wi in 0usize..6,
        ei in 0usize..3,
        threads_hi in any::<bool>(),
        prefetch_auto in any::<bool>(),
    ) {
        let names = ["ridge", "kmeans", "pca", "iot", "spmv", "mixed"];
        let threads = if threads_hi { 4 } else { 1 };
        let prefetch = if prefetch_auto { PREFETCH_AUTO } else { 0 };
        check_same_ctx_rerun(names[wi], ENGINES[ei], threads, prefetch);
    }

    #[test]
    fn corpus_scripts_survive_durable_reopen(
        wi in 0usize..6,
        ei in 0usize..3,
        threads_hi in any::<bool>(),
        prefetch_auto in any::<bool>(),
    ) {
        let names = ["ridge", "kmeans", "pca", "iot", "spmv", "mixed"];
        let threads = if threads_hi { 4 } else { 1 };
        let prefetch = if prefetch_auto { PREFETCH_AUTO } else { 0 };
        check_durable_reopen(names[wi], ENGINES[ei], threads, prefetch);
    }
}
