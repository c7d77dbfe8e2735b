//! The corpus regression gate for the `test` profiles: every workload
//! runs the full engine × threads × prefetch grid with cross-engine
//! output equality and the manifests' exact counted-I/O budgets asserted
//! in every cell, so a bare `cargo test` (and CI's `RIOT_TRACE=1` leg)
//! refuses budget or checksum drift. The `full` profiles are gated by
//! the `riot-corpus` binary.

use riot_bench::corpus::{self, verify_workload};

fn gate(name: &str) {
    let w = corpus::workload(name);
    let report = verify_workload(&w, "test");
    // One cell per engine × {1,4} threads × {0,AUTO} prefetch.
    assert_eq!(report.cells.len(), w.manifest.engines.len() * 4);
    assert_eq!(
        report.checksum,
        w.manifest.profile("test").unwrap().checksum,
        "{name}: output checksum drifted from the manifest"
    );
}

#[test]
fn ridge_test_profile_holds_budgets() {
    gate("ridge");
}

#[test]
fn kmeans_test_profile_holds_budgets() {
    gate("kmeans");
}

#[test]
fn pca_test_profile_holds_budgets() {
    gate("pca");
}

#[test]
fn iot_test_profile_holds_budgets() {
    gate("iot");
}

#[test]
fn spmv_test_profile_holds_budgets() {
    gate("spmv");
}

#[test]
fn mixed_test_profile_holds_budgets() {
    gate("mixed");
}
