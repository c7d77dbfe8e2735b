//! Drives the built binary on `--smoke` sizes: seeds reach only the
//! generators, and a corrupted reference is caught.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 5] = [
    "dense_ooc",
    "stream_ooc",
    "sparse_lat",
    "hot_small",
    "ingest_commit",
];

struct Run {
    ok: bool,
    metrics: BTreeMap<String, f64>,
    json: String,
}

/// One untraced smoke run; every test passes its own data directory, since
/// tests run in parallel.
fn smoke(test: &str, workload: &str, seed: u64, extra: &[&str]) -> Run {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let out = Command::new(env!("CARGO_BIN_EXE_riot-benchmark"))
        .args(["--smoke", "--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .arg("--data-dir")
        .arg(&dir)
        .args(extra)
        .output()
        .expect("spawn riot-benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let metrics = stdout
        .lines()
        .filter_map(|l| match l.split('\t').collect::<Vec<_>>().as_slice() {
            ["metric", name, value, _unit] => Some((name.to_string(), value.parse().ok()?)),
            _ => None,
        })
        .collect();
    Run {
        ok: out.status.success(),
        metrics,
        json: stdout.lines().last().unwrap_or("").to_string(),
    }
}

#[test]
fn same_seed_repeats_counted_io_and_other_seeds_still_verify() {
    for w in WORKLOADS {
        let (a, b) = (smoke("seeds", w, 7, &[]), smoke("seeds", w, 7, &[]));
        assert!(a.ok && b.ok, "{w}: seed 7 failed verification");
        assert_eq!(a.metrics.len(), 9, "{w}: nine end-to-end metrics");
        for m in ["blocks_read", "blocks_written"] {
            // Prefetch under eviction may waste a load on sparse_lat.
            if w == "sparse_lat" && m == "blocks_read" {
                continue;
            }
            assert_eq!(
                a.metrics[m], b.metrics[m],
                "{w}: {m} differs between two runs of seed 7"
            );
        }
        let other = smoke("seeds", w, 8, &[]);
        assert!(other.ok, "{w}: seed 8 failed verification");
        assert_eq!(other.metrics["verified_share"], 1.0, "{w}");
        assert!(
            other.json.starts_with("{\"correct\": true, "),
            "{w}: {}",
            other.json
        );
    }
}

#[test]
fn self_test_is_caught_on_every_workload() {
    for w in WORKLOADS {
        let run = smoke("self-test", w, 7, &["--self-test"]);
        assert!(!run.ok, "{w}: a corrupted reference must fail the run");
        assert!(run.metrics["verified_share"] < 1.0, "{w}");
        assert!(
            run.json.starts_with("{\"correct\": false, "),
            "{w}: {}",
            run.json
        );
    }
}
