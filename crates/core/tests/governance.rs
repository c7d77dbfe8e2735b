//! Governance integration tests: the two pinned invariants (neutrality
//! and leak-free abort) plus one trip test per budgeted resource.
//!
//! Neutrality: a governor engaged with empty limits must not change
//! results, counted I/O, or pool statistics relative to an ungoverned
//! session — the checkpoints exist, but observe only.
//!
//! Leak-free abort: after a cancellation or budget abort at any
//! checkpoint — or a refusal where the query bracket closes — no frame
//! stays pinned, every temporary extent is freed, the catalog allocation
//! state is byte-identical to the pre-query snapshot, and the paging heap
//! holds the objects it held.

use std::time::Duration;

use riot_array::MatrixLayout;
use riot_core::exec::ExecError;
use riot_core::{
    assert_no_leaks, leak_snapshot, AggOp, BinOp, CancelToken, EngineConfig, EngineKind, RVec,
    ResourceLimits, Session, UnOp,
};

/// Small pool so mid-size workloads actually page: 8 KiB blocks,
/// 32-block cap (256 KiB of buffer over megabyte-scale operands).
fn tight(kind: EngineKind) -> EngineConfig {
    EngineConfig {
        mem_blocks: 32,
        ..EngineConfig::new(kind)
    }
}

/// A workload that exercises scans, elementwise pipelines, aggregation,
/// and materialization; returns every scalar it produces.
fn workload(s: &Session) -> Result<Vec<f64>, ExecError> {
    let n = 40_000;
    let x = s.vector_from_fn(n, |i| (i % 97) as f64)?;
    let y = s.vector_from_fn(n, |i| (i % 31) as f64 * 0.5)?;
    let z = x.binary(riot_core::BinOp::Add, &y).sqrt();
    let w = z.binary(riot_core::BinOp::Mul, &x);
    let mut out = vec![w.sum()?, z.mean()?];
    let head = w.index(&s.range(1, 64)?);
    out.extend(head.collect()?);
    Ok(out)
}

/// A settled positive-definite input matrix (built ungoverned or under
/// empty limits; forced so the governed query starts from clean state).
fn spd_input(s: &Session, n: usize) -> riot_core::RMat {
    let m = s
        .matrix_from_fn(n, n, MatrixLayout::Square, |i, j| {
            if i == j {
                100.0 + i as f64
            } else {
                1.0 / (1.0 + (i + j) as f64)
            }
        })
        .unwrap();
    m.nnz().unwrap();
    m
}

/// The governed matrix query: multiply, transpose, factor — the kernels
/// with scratch allocations whose cleanup the leak audit guards.
fn mat_query(s: &Session, m: &riot_core::RMat) -> Result<f64, ExecError> {
    let _ = s;
    let p = m.t().matmul(m);
    let l = p.chol()?;
    let (_, _, data) = l.collect()?;
    Ok(data.iter().sum())
}

#[test]
fn engaged_empty_limits_is_bit_for_bit_neutral() {
    for kind in EngineKind::all() {
        let plain = Session::new(tight(kind));
        let base = workload(&plain).unwrap();
        let base_io = plain.io_snapshot();
        let base_pool = plain.pool_stats();

        let gov = Session::with_limits(tight(kind), ResourceLimits::none());
        let got = workload(&gov).unwrap();
        let got_io = gov.io_snapshot();
        let got_pool = gov.pool_stats();

        assert_eq!(base, got, "{kind:?}: governed results diverged");
        assert_eq!(base_io, got_io, "{kind:?}: governed I/O diverged");
        assert_eq!(
            base_pool, got_pool,
            "{kind:?}: governed pool stats diverged"
        );
    }
}

#[test]
fn read_budget_trips_and_leaks_nothing() {
    let s = Session::new(tight(EngineKind::Riot));
    // Build inputs ungoverned so only the query is budgeted.
    let x = s.vector_from_fn(60_000, |i| i as f64).unwrap();
    let snap = leak_snapshot(&s);
    s.set_limits(ResourceLimits::none().with_max_reads(4));
    let err = x.sqrt().sum().unwrap_err();
    match err {
        ExecError::BudgetExceeded {
            resource,
            used,
            limit,
        } => {
            assert_eq!(resource, "reads");
            assert_eq!(limit, 4);
            assert!(used > limit, "used {used} <= limit {limit}");
        }
        other => panic!("expected BudgetExceeded, got {other}"),
    }
    s.clear_limits();
    assert_no_leaks(&s, &snap, "read-budget abort");
    // The session still works after the abort.
    assert!(x.sqrt().sum().is_ok());
}

#[test]
fn flop_budget_trips_on_pipeline_drains() {
    let s = Session::new(tight(EngineKind::Riot));
    let x = s.vector_from_fn(30_000, |i| (i % 13) as f64).unwrap();
    let snap = leak_snapshot(&s);
    s.set_limits(ResourceLimits::none().with_max_flops(100));
    let err = x
        .binary_scalar(riot_core::BinOp::Mul, 2.0, false)
        .sum()
        .unwrap_err();
    assert!(
        matches!(
            err,
            ExecError::BudgetExceeded {
                resource: "flops",
                ..
            }
        ),
        "{err}"
    );
    s.clear_limits();
    assert_no_leaks(&s, &snap, "flop-budget abort");
}

#[test]
fn temp_block_budget_trips_on_scratch_allocation() {
    let s = Session::new(tight(EngineKind::Riot));
    // Settled positive-definite input, built ungoverned.
    let m = s
        .matrix_from_fn(48, 48, MatrixLayout::Square, |i, j| {
            if i == j {
                100.0
            } else {
                1.0 / (1.0 + (i + j) as f64)
            }
        })
        .unwrap();
    m.nnz().unwrap();
    let snap = leak_snapshot(&s);
    // The factor's working copy alone needs 48*48*8 B ≈ 18 KiB — more
    // than two 8 KiB blocks — so allocation is refused up front.
    s.set_limits(ResourceLimits::none().with_max_temp_blocks(2));
    // Under Riot `chol` records a node; the collect forces it.
    let err = match m.chol().and_then(|l| l.collect()) {
        Ok(_) => panic!("temp-block budget must refuse the allocation"),
        Err(e) => e,
    };
    assert!(
        matches!(
            err,
            ExecError::BudgetExceeded {
                resource: "temp_blocks",
                ..
            }
        ),
        "{err}"
    );
    s.clear_limits();
    assert_no_leaks(&s, &snap, "temp-block abort");
}

#[test]
fn deadline_trips_and_leaks_nothing() {
    let s = Session::new(tight(EngineKind::Riot));
    let x = s.vector_from_fn(50_000, |i| i as f64).unwrap();
    let snap = leak_snapshot(&s);
    // A deadline that has already passed trips at the first governed
    // checkpoint — no sleeping, no timing sensitivity.
    s.set_limits(ResourceLimits::none().with_deadline(Duration::ZERO));
    let err = x.sqrt().sum().unwrap_err();
    assert!(
        matches!(
            err,
            ExecError::BudgetExceeded {
                resource: "deadline",
                ..
            }
        ),
        "{err}"
    );
    s.clear_limits();
    assert_no_leaks(&s, &snap, "deadline abort");
}

#[test]
fn cancel_token_aborts_from_another_thread_view() {
    let s = Session::new(tight(EngineKind::Riot));
    let x = s.vector_from_fn(50_000, |i| i as f64).unwrap();
    let snap = leak_snapshot(&s);
    s.set_limits(ResourceLimits::none());
    let token: CancelToken = s.cancel_handle();
    // The handle is a detached clone — cancelling through it is exactly
    // what a ctrl-C watcher thread would do.
    token.cancel();
    let err = x.sqrt().sum().unwrap_err();
    assert!(matches!(err, ExecError::Cancelled { .. }), "{err}");
    s.clear_limits();
    assert_no_leaks(&s, &snap, "cancel abort");
    s.reset_cancel();
    assert!(x.sqrt().sum().is_ok());
}

#[test]
fn cancel_at_every_checkpoint_of_matrix_query_leaks_nothing() {
    // Count-mode pass: run once governed (empty limits) to learn the
    // checkpoint count, then re-run cancelling at each k and audit.
    let probe = Session::with_limits(tight(EngineKind::Riot), ResourceLimits::none());
    let pm = spd_input(&probe, 96);
    let seen0 = probe.storage_ctx().governor().checkpoints_seen();
    mat_query(&probe, &pm).unwrap();
    let total = probe.storage_ctx().governor().checkpoints_seen() - seen0;
    assert!(total > 0, "matrix query must cross checkpoints");

    for k in 1..=total {
        let s = Session::with_limits(tight(EngineKind::Riot), ResourceLimits::none());
        let m = spd_input(&s, 96);
        let gov = s.storage_ctx().governor().clone();
        // Snapshot *after* the inputs exist: the invariant is that an
        // aborted query restores the catalog to its pre-query state.
        let snap = leak_snapshot(&s);
        let base = gov.checkpoints_seen();
        gov.set_cancel_at(base + k);
        let res = mat_query(&s, &m);
        s.clear_limits();
        match res {
            Err(e) => {
                assert!(e.is_governance_abort(), "checkpoint {k}: {e}");
                s.reset_cancel();
                assert_no_leaks(&s, &snap, &format!("cancel at checkpoint {k}/{total}"));
            }
            Ok(_) => panic!("cancel at checkpoint {k}/{total} did not abort"),
        }
    }
}

/// Elements of the vectors under [`three_pending`]: ten partitions of the
/// aggregation tree.
const BATCH_LEN: usize = 40_000;

/// Three aggregates left deferred over one shared `w = sqrt(x + y) * x`
/// (three nodes over two stored vectors): a batch of three when any one of
/// them is observed.
fn three_pending(s: &Session) -> Vec<RVec> {
    let x = s.vector_from_fn(BATCH_LEN, |i| (i % 97) as f64).unwrap();
    let y = s
        .vector_from_fn(BATCH_LEN, |i| (i % 31) as f64 * 0.5)
        .unwrap();
    let w = x.binary(BinOp::Add, &y).sqrt().binary(BinOp::Mul, &x);
    let ops = [AggOp::Sum, AggOp::Mean, AggOp::Max];
    let pending = ops.map(|op| w.deferred(op).unwrap().expect("Riot defers"));
    assert_eq!(s.pending_scalars(), 3);
    pending.into()
}

fn observed(pending: &[RVec]) -> Vec<f64> {
    let values = pending.iter().map(|v| v.collect().unwrap()[0]);
    values.collect()
}

#[test]
fn a_cancelled_batch_leaves_every_scalar_pending() {
    for threads in [1, 4] {
        let cfg = EngineConfig {
            threads,
            ..tight(EngineKind::Riot)
        };
        let want = observed(&three_pending(&Session::new(cfg)));

        // Count-mode pass: the checkpoints one observation crosses.
        let probe = Session::with_limits(cfg, ResourceLimits::none());
        let pending = three_pending(&probe);
        let seen0 = probe.storage_ctx().governor().checkpoints_seen();
        pending[0].collect().unwrap();
        let total = probe.storage_ctx().governor().checkpoints_seen() - seen0;
        assert!(total > 40, "one checkpoint per chunk: {total}");
        assert_eq!(observed(&pending), want, "governance is neutral");

        for k in 1..=total {
            let s = Session::with_limits(cfg, ResourceLimits::none());
            let pending = three_pending(&s);
            let gov = s.storage_ctx().governor().clone();
            let snap = leak_snapshot(&s);
            gov.set_cancel_at(gov.checkpoints_seen() + k);
            let err = pending[k as usize % 3].collect().unwrap_err();
            assert!(matches!(err, ExecError::Cancelled { .. }), "{k}: {err}");
            gov.set_cancel_at(u64::MAX);
            s.reset_cancel();
            assert_no_leaks(&s, &snap, &format!("cancel at checkpoint {k}/{total}"));
            // All or nothing: no scalar of an aborted batch has a value,
            // and observing any one of them then gives all three theirs.
            assert_eq!(s.pending_scalars(), 3, "checkpoint {k}/{total}");
            pending[(k as usize + 1) % 3].collect().unwrap();
            assert_eq!(s.pending_scalars(), 0, "checkpoint {k}/{total}");
            let io = s.io_snapshot();
            assert_eq!(observed(&pending), want, "checkpoint {k}/{total}");
            assert_eq!(
                s.io_snapshot(),
                io,
                "the values are there: nothing runs again"
            );
        }
    }
}

#[test]
fn a_batch_charges_each_shared_node_once() {
    // The tape of the batch computes w's three nodes once per element,
    // whichever sinks read them, and folds each element into the three
    // sinks: its flop charge is that of one pass, not of three. One
    // operation short of that trips; that much admits it.
    let one_pass = (3 + 3) * BATCH_LEN as u64;
    let s = Session::new(tight(EngineKind::Riot));
    let pending = three_pending(&s);
    let snap = leak_snapshot(&s);
    s.set_limits(ResourceLimits::none().with_max_flops(one_pass - 1));
    let err = pending[0].collect().unwrap_err();
    let flops = "flops";
    assert!(
        matches!(err, ExecError::BudgetExceeded { resource, .. } if resource == flops),
        "{err}"
    );
    assert_no_leaks(&s, &snap, "flop-budget abort of a batch");
    assert_eq!(s.pending_scalars(), 3);
    s.set_limits(ResourceLimits::none().with_max_flops(one_pass));
    pending[0].collect().unwrap();
    assert_eq!(
        s.pending_scalars(),
        0,
        "three sinks within one pass's budget"
    );
}

#[test]
fn factor_scratch_freed_on_abort_under_all_engines() {
    for kind in EngineKind::all() {
        let s = Session::new(tight(kind));
        let m = s
            .matrix_from_fn(40, 40, MatrixLayout::Square, |i, j| {
                if i == j {
                    50.0
                } else {
                    1.0 / (1.0 + (i + j) as f64)
                }
            })
            .unwrap();
        // Force the input to settle before the governed query.
        m.nnz().unwrap();
        let snap = leak_snapshot(&s);
        s.set_limits(ResourceLimits::none());
        s.cancel_handle().cancel();
        // Eager engines factor inside `chol`; deferred engines at the
        // collect. Either way the pending cancel aborts in a kernel.
        let res = m.chol().and_then(|l| l.collect());
        let err = match res {
            Ok(_) => panic!("{kind:?}: pending cancel must abort the factorization"),
            Err(e) => e,
        };
        assert!(err.is_governance_abort(), "{kind:?}: {err}");
        s.clear_limits();
        s.reset_cancel();
        assert_no_leaks(&s, &snap, &format!("{kind:?} factor abort"));
    }
}

/// One eager vector operator over `(x, y, idx)`, result dropped.
type EagerOp = fn(&Session, &RVec, &RVec, &RVec) -> Result<(), ExecError>;

/// Every eager vector operator: the name its per-chunk checkpoint carries
/// (`<engine>.<name>.chunk`), and the operator.
const EAGER_OPS: &[(&str, EagerOp)] = &[
    ("unop", |_, x, _, _| x.try_unary(UnOp::Sqrt).map(drop)),
    ("binop", |_, x, y, _| x.try_binary(BinOp::Add, y).map(drop)),
    ("binop", |_, x, _, _| {
        x.try_binary_scalar(BinOp::Mul, 2.0, true).map(drop)
    }),
    ("gather", |_, x, _, idx| x.try_index(idx).map(drop)),
    ("ifelse", |s, x, y, _| s.ifelse(y, x, y).map(drop)),
    ("ifelse", |_, x, y, _| x.try_mask_assign(y, 1.0).map(drop)),
    ("ifelse", |_, x, y, _| x.try_mask_assign_vec(y, x).map(drop)),
    ("sub_assign", |_, x, y, idx| {
        x.try_sub_assign(idx, y).map(drop)
    }),
    ("aggregate", |_, x, _, _| x.sum().map(drop)),
    ("collect", |_, x, _, _| x.collect().map(drop)),
];

#[test]
fn eager_operators_cancel_at_every_chunk_and_leak_nothing() {
    // Ten chunks per operand, so every operator crosses >= 8 checkpoints.
    let n = 10 * EngineConfig::new(EngineKind::PlainR).chunk_elems;
    for (kind, engine) in [
        (EngineKind::PlainR, "plainr"),
        (EngineKind::Strawman, "strawman"),
    ] {
        for (row, &(name, op)) in EAGER_OPS.iter().enumerate() {
            let tag = format!("{kind:?} {name} (row {row})");
            let inputs = |s: &Session| {
                (
                    s.vector_from_fn(n, |i| (i % 97) as f64).unwrap(),
                    s.vector_from_fn(n, |i| (i % 2) as f64).unwrap(),
                    s.vector_from_fn(n, |i| ((i * 7) % n + 1) as f64).unwrap(),
                )
            };
            // Count-mode pass: how many checkpoints does the operator cross?
            let probe = Session::with_limits(tight(kind), ResourceLimits::none());
            let (x, y, idx) = inputs(&probe);
            let gov = probe.storage_ctx().governor().clone();
            let seen0 = gov.checkpoints_seen();
            op(&probe, &x, &y, &idx).unwrap();
            let total = gov.checkpoints_seen() - seen0;
            assert!(total >= 8, "{tag}: only {total} checkpoints");

            for k in 1..=total {
                let s = Session::with_limits(tight(kind), ResourceLimits::none());
                let (x, y, idx) = inputs(&s);
                let gov = s.storage_ctx().governor().clone();
                let snap = leak_snapshot(&s);
                gov.set_cancel_at(gov.checkpoints_seen() + k);
                match op(&s, &x, &y, &idx) {
                    Err(ExecError::Cancelled { at }) => {
                        assert_eq!(at, format!("{engine}.{name}.chunk"), "{tag} at {k}/{total}")
                    }
                    other => panic!("{tag}: cancel at {k}/{total} gave {other:?}"),
                }
                assert_no_leaks(&s, &snap, &format!("{tag}: cancel at {k}/{total}"));
                // The session recovers: the same operator now completes,
                // and its dropped result leaves the catalog as it was.
                s.reset_cancel();
                op(&s, &x, &y, &idx).unwrap_or_else(|e| panic!("{tag}: rerun failed: {e}"));
                assert_no_leaks(&s, &snap, &format!("{tag}: rerun after {k}/{total}"));
            }
        }
    }
}

/// A query of the flop-boundary test: its operands, built without a
/// budget, and the one call — one governed query — that computes it. An
/// eager engine computes an operator the moment it is called; a deferred
/// one only records it, and the forcing point that follows does the work.
fn boundary_query(s: &Session, case: &str) -> Box<dyn Fn() -> Result<(), ExecError>> {
    let deferred = matches!(s.kind(), EngineKind::MatNamed | EngineKind::Riot);
    let x = s.vector_from_fn(30_000, |i| (i % 13) as f64).unwrap();
    let a = spd_input(s, 48);
    let twice = |x: &RVec| x.try_binary_scalar(BinOp::Mul, 2.0, false);
    match case {
        "x * 2" if deferred => {
            let y = twice(&x).unwrap();
            Box::new(move || y.collect().map(drop))
        }
        "x * 2" => Box::new(move || twice(&x).map(drop)),
        "sum(x)" => Box::new(move || x.sum().map(drop)),
        "(x * 2).sum()" => {
            let y = twice(&x).unwrap();
            Box::new(move || y.sum().map(drop))
        }
        "t(a) %*% a" if deferred => {
            let p = a.t().matmul(&a);
            Box::new(move || p.collect().map(drop))
        }
        "t(a) %*% a" => {
            let at = a.t();
            Box::new(move || at.try_matmul(&a).map(drop))
        }
        "chol(a)" if deferred => {
            let l = a.chol().unwrap();
            Box::new(move || l.collect().map(drop))
        }
        "chol(a)" => Box::new(move || a.chol().map(drop)),
        other => unreachable!("no query {other}"),
    }
}

#[test]
fn max_flops_charges_exactly_what_the_profile_reports() {
    // A budget of the query's own flop count D admits it; D − 1 refuses
    // it, with the count its profile reports — the last chunk, tile or
    // fold of the pass included — and nothing left behind.
    for kind in EngineKind::all() {
        for case in ["x * 2", "sum(x)", "(x * 2).sum()", "t(a) %*% a", "chol(a)"] {
            let tag = format!("{kind:?} {case}");
            let s = Session::new(tight(kind));
            let query = boundary_query(&s, case);
            let ops = s.cpu_ops();
            query().unwrap();
            let d = s.cpu_ops() - ops;
            assert!(d > 0, "{tag}: no flops");

            let s = Session::new(tight(kind));
            let query = boundary_query(&s, case);
            s.set_limits(ResourceLimits::none().with_max_flops(d));
            query().unwrap_or_else(|e| panic!("{tag}: a budget of {d} refused it: {e}"));

            let s = Session::new(tight(kind));
            let query = boundary_query(&s, case);
            let snap = leak_snapshot(&s);
            s.set_limits(ResourceLimits::none().with_max_flops(d - 1));
            let (refused, profile) = s.profile(&query);
            match refused {
                Err(ExecError::BudgetExceeded {
                    resource: "flops",
                    used,
                    limit,
                }) => {
                    assert_eq!(limit, d - 1, "{tag}");
                    assert_eq!(used, profile.total().flops, "{tag}: used vs profile");
                }
                other => panic!("{tag}: a budget of {} gave {other:?}", d - 1),
            }
            s.clear_limits();
            assert_no_leaks(&s, &snap, &tag);
        }
    }
}

#[test]
fn with_limits_constructor_engages_and_reports() {
    let limits = ResourceLimits::none()
        .with_max_reads(1_000_000)
        .with_deadline(Duration::from_secs(3600));
    let s = Session::with_limits(EngineConfig::new(EngineKind::Riot), limits);
    assert_eq!(s.limits(), limits);
    // Generous limits: queries succeed.
    let x = s.vector_from_fn(1024, |i| i as f64).unwrap();
    assert_eq!(x.sum().unwrap(), (0..1024).sum::<usize>() as f64);
    s.clear_limits();
    assert_eq!(s.limits(), ResourceLimits::none());
}
