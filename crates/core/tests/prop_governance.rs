//! Property tests for governance: random pipelines under the deferred
//! executor at threads ∈ {1, 4} and under both eager engines, with a
//! random cancel point injected.
//!
//! * Neutrality holds for arbitrary workloads: a governor engaged with
//!   empty limits never changes the result.
//! * A cancel injected at an arbitrary checkpoint either aborts with a
//!   typed governance error or (past the last checkpoint) the query
//!   completes — and in both cases the catalog ends byte-identical to
//!   its pre-query state once handles drop, with zero pinned frames.
//! * After `reset_cancel`, the identical query succeeds with the same
//!   result an untouched session produces — an abort poisons nothing.

use proptest::prelude::*;
use riot_core::{
    assert_no_leaks, leak_snapshot, BinOp, EngineConfig, EngineKind, RVec, ResourceLimits, Session,
    UnOp,
};

#[derive(Debug, Clone, Copy)]
enum Step {
    AddScalar(i8),
    MulScalar(i8),
    Sqrt,
    Abs,
    AddSelf,
    Gather,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => any::<i8>().prop_map(Step::AddScalar),
        3 => any::<i8>().prop_map(Step::MulScalar),
        2 => Just(Step::Sqrt),
        2 => Just(Step::Abs),
        2 => Just(Step::AddSelf),
        1 => Just(Step::Gather),
    ]
}

/// Apply `steps` to a fresh pipeline over `base` and force it. Under the
/// eager engines every step is itself a governed query, so every step
/// surfaces its error.
fn run_steps(s: &Session, base: &RVec, steps: &[Step]) -> Result<f64, riot_core::exec::ExecError> {
    let mut v = base.try_binary_scalar(BinOp::Add, 0.0, false)?;
    for st in steps {
        v = match st {
            Step::AddScalar(c) => v.try_binary_scalar(BinOp::Add, *c as f64, false)?,
            Step::MulScalar(c) => v.try_binary_scalar(BinOp::Mul, *c as f64, false)?,
            Step::Sqrt => v.try_unary(UnOp::Abs)?.try_unary(UnOp::Sqrt)?,
            Step::Abs => v.try_unary(UnOp::Abs)?,
            Step::AddSelf => v.try_binary(BinOp::Add, base)?,
            Step::Gather => v.try_index(&s.range(1, (base.len() / 2).max(2) as i64)?)?,
        };
    }
    v.sum()
}

fn tight(kind: EngineKind, threads: usize) -> EngineConfig {
    EngineConfig {
        mem_blocks: 16,
        threads,
        ..EngineConfig::new(kind)
    }
}

/// The engine x thread-count cells a cancel is injected into: the
/// deferred executor sequential and fanned out, and both eager engines
/// (single-threaded by construction).
const CELLS: [(EngineKind, usize); 4] = [
    (EngineKind::Riot, 1),
    (EngineKind::Riot, 4),
    (EngineKind::PlainR, 1),
    (EngineKind::Strawman, 1),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn governed_empty_limits_neutral_for_random_pipelines(
        steps in proptest::collection::vec(step_strategy(), 1..6),
        len in 2_000usize..12_000,
    ) {
        for threads in [1usize, 4] {
            let plain = Session::new(tight(EngineKind::Riot, threads));
            let px = plain.vector_from_fn(len, |i| (i % 89) as f64).unwrap();
            let want = run_steps(&plain, &px, &steps).unwrap();

            let gov = Session::with_limits(
                tight(EngineKind::Riot, threads),
                ResourceLimits::none(),
            );
            let gx = gov.vector_from_fn(len, |i| (i % 89) as f64).unwrap();
            let got = run_steps(&gov, &gx, &steps).unwrap();
            prop_assert_eq!(
                want.to_bits(),
                got.to_bits(),
                "threads={}: governed result diverged",
                threads
            );
        }
    }

    #[test]
    fn cancel_at_random_checkpoint_aborts_cleanly(
        steps in proptest::collection::vec(step_strategy(), 1..6),
        len in 2_000usize..12_000,
        cancel_at in 1u64..40,
    ) {
        for (kind, threads) in CELLS {
            let s = Session::with_limits(tight(kind, threads), ResourceLimits::none());
            let x = s.vector_from_fn(len, |i| (i % 89) as f64).unwrap();
            // The reference result, computed before the cancel arms.
            let want = run_steps(&s, &x, &steps).unwrap();
            let snap = leak_snapshot(&s);

            let gov = s.storage_ctx().governor().clone();
            let base = gov.checkpoints_seen();
            gov.set_cancel_at(base + cancel_at);
            match run_steps(&s, &x, &steps) {
                Err(e) => {
                    prop_assert!(
                        e.is_governance_abort(),
                        "{:?} threads={}: non-governance error {}", kind, threads, e
                    );
                    s.reset_cancel();
                    assert_no_leaks(&s, &snap, "random cancel");
                }
                Ok(v) => {
                    // Cancel point beyond the query's checkpoint count.
                    prop_assert_eq!(want.to_bits(), v.to_bits());
                    s.reset_cancel();
                }
            }
            // The session is unpoisoned: the query runs again, same answer.
            let again = run_steps(&s, &x, &steps).unwrap();
            prop_assert_eq!(want.to_bits(), again.to_bits(),
                "{:?} threads={}: post-abort rerun diverged", kind, threads);
            assert_no_leaks(&s, &snap, "post-rerun");
        }
    }
}

/// Workers observe a cancel raised mid-drain from a real second thread
/// (not a pre-armed counter): proves propagation out of scoped workers.
#[test]
fn live_cancel_from_watcher_thread_aborts_parallel_workers() {
    for threads in [1usize, 4] {
        let s = Session::with_limits(tight(EngineKind::Riot, threads), ResourceLimits::none());
        let x = s.vector_from_fn(200_000, |i| (i % 97) as f64).unwrap();
        let snap = leak_snapshot(&s);
        let token = s.cancel_handle();
        let watcher = std::thread::spawn(move || {
            // Land somewhere inside the drain (or after it — both legal).
            std::thread::sleep(std::time::Duration::from_micros(200));
            token.cancel();
        });
        let res = x.abs().sqrt().binary(BinOp::Add, &x).sum();
        watcher.join().unwrap();
        if let Err(e) = res {
            assert!(e.is_governance_abort(), "threads={threads}: {e}");
        }
        s.reset_cancel();
        assert_no_leaks(&s, &snap, "watcher cancel");
        assert!(x.sum().is_ok(), "threads={threads}: session poisoned");
    }
}
