//! Cancel-at-any-checkpoint sweep over the workload corpus: every
//! corpus script, under every engine its manifest lists at threads
//! {1, 4}, is first run governed-with-empty-limits to (a) assert the
//! governor's neutrality on real end-to-end workloads and (b) learn how
//! many checkpoints the script crosses. Then the sweep re-runs the
//! script with a cancel armed at checkpoint k for a strided set of
//! points (every point under `RIOT_SWEEP_FULL=1`) and asserts, at each:
//!
//! * the run fails with a *typed* governance abort — never a panic,
//!   never a non-governance error;
//! * zero frames remain pinned the moment the abort surfaces;
//! * the session recovers completely: after `reset_cancel`, a fresh
//!   interpreter on the *same* session re-runs the script to completion
//!   with byte-identical output and the exact counted-I/O budget of an
//!   untouched session.
//!
//! Catalog-fingerprint leak audits for aborted query brackets live in
//! `riot-core/tests/governance.rs`; this sweep asserts the end-to-end
//! recovery contract at interpreter granularity, where runtime caches
//! legitimately outlive individual interpreters.

use riot_bench::corpus::{self, Cell};
use riot_core::{ResourceLimits, Session};
use riot_rlang::{Interpreter, RError};

/// Sweep points per grid cell without `RIOT_SWEEP_FULL` (the first and
/// last checkpoint are always included).
const DEFAULT_POINTS_PER_CELL: u64 = 8;

/// Fresh governed session + interpreter for one cell, inputs bound.
fn governed_interp(w: &corpus::Workload, profile: &corpus::Profile, cell: Cell) -> Interpreter {
    let s = Session::with_limits(
        corpus::session_config(profile, cell),
        ResourceLimits::none(),
    );
    let mut interp = Interpreter::with_session(s);
    corpus::bind_inputs(&mut interp, &corpus::inputs(w.name, profile), false);
    interp
}

fn sweep(name: &str) {
    let w = corpus::workload(name);
    let profile = w
        .manifest
        .profile("test")
        .unwrap_or_else(|| panic!("{name}: no test profile"));
    let full = std::env::var("RIOT_SWEEP_FULL").is_ok_and(|v| v != "0");

    for &engine in &w.manifest.engines {
        for threads in [1usize, 4] {
            let cell = Cell {
                engine,
                threads,
                prefetch: 0,
            };
            let tag = format!("{name}/{engine:?} t{threads}");

            // Reference from an untouched, ungoverned session.
            let reference = corpus::run_cell(&w, profile, cell);

            // Count-mode pass: governed with empty limits. Doubles as
            // the corpus-level neutrality check for the output.
            let mut interp = governed_interp(&w, profile, cell);
            let s = interp.session().clone();
            let gov = s.storage_ctx().governor().clone();
            let base = gov.checkpoints_seen();
            let out = interp
                .run(w.script)
                .unwrap_or_else(|e| panic!("{tag}: governed count pass failed: {e}"));
            assert_eq!(
                corpus::fnv1a(&out),
                reference.checksum,
                "{tag}: governed output diverged from the ungoverned reference"
            );
            let total = gov.checkpoints_seen() - base;
            assert!(total > 0, "{tag}: script crossed no governed checkpoints");
            drop(interp);

            let stride = if full {
                1
            } else {
                total.div_ceil(DEFAULT_POINTS_PER_CELL).max(1)
            };
            let mut points: Vec<u64> = (1..=total).step_by(stride as usize).collect();
            if points.last() != Some(&total) {
                points.push(total);
            }

            for k in points {
                let mut interp = governed_interp(&w, profile, cell);
                let s = interp.session().clone();
                let gov = s.storage_ctx().governor().clone();
                gov.set_cancel_at(gov.checkpoints_seen() + k);

                match interp.run(w.script) {
                    Err(RError::Exec(e)) => {
                        assert!(
                            e.is_governance_abort(),
                            "{tag}: cancel at {k}/{total} surfaced a non-governance error: {e}"
                        );
                    }
                    Err(other) => {
                        panic!("{tag}: cancel at {k}/{total} surfaced a non-exec error: {other}")
                    }
                    Ok(_) => panic!("{tag}: cancel at {k}/{total} did not abort"),
                }
                assert_eq!(
                    s.storage_ctx().pool().pinned_frames(),
                    0,
                    "{tag}: cancel at {k}/{total} left frames pinned"
                );
                drop(interp);

                // Recovery on the same session: rerun to completion
                // with the untouched session's output and exact budget.
                s.reset_cancel();
                let mut interp = Interpreter::with_session(s.clone());
                corpus::bind_inputs(&mut interp, &corpus::inputs(w.name, profile), false);
                let (out, m) = corpus::run_script_measured(&mut interp, w.script);
                assert_eq!(
                    corpus::fnv1a(&out),
                    reference.checksum,
                    "{tag}: rerun after cancel at {k}/{total} diverged"
                );
                assert_eq!(
                    m, reference.io,
                    "{tag}: rerun after cancel at {k}/{total} broke the I/O budget"
                );
            }
        }
    }
}

#[test]
fn ridge_survives_cancel_at_any_checkpoint() {
    sweep("ridge");
}

#[test]
fn kmeans_survives_cancel_at_any_checkpoint() {
    sweep("kmeans");
}

#[test]
fn pca_survives_cancel_at_any_checkpoint() {
    sweep("pca");
}

#[test]
fn iot_survives_cancel_at_any_checkpoint() {
    sweep("iot");
}

#[test]
fn spmv_survives_cancel_at_any_checkpoint() {
    sweep("spmv");
}

#[test]
fn mixed_survives_cancel_at_any_checkpoint() {
    sweep("mixed");
}
