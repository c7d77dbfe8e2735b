//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their regression bounds, per-layer metrics. `BENCHMARK.json` at
//! the repository root is `--print-spec` verbatim (a test keeps the two
//! equal), so names, units and bounds cannot drift apart.

use std::fmt::Write as _;

/// Seconds one run measures for; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 10;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// End-to-end only: share of the parent's median by which the metric
    /// may get worse before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        lower_is_better: lower,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    e2e(name, unit, true, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    e2e(name, unit, false, 0.0)
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "dense_ooc",
        why: "ridge regression via normal equations, data 13x the 4 MiB pool: GEMM, tiled Cholesky and tile access do the work, so kernel and pin-path changes show here",
    },
    WorkloadSpec {
        name: "stream_ooc",
        why: "paper Example 1 plus two k-means rounds over 64 MiB: the elementwise pipeline, pushdown and the pool's miss path do the work, GEMM none",
    },
    WorkloadSpec {
        name: "sparse_lat",
        why: "SpMV over 120 MiB of sparse pages behind 100 us of modelled read latency: prefetch and overlap decide the time, compute is negligible",
    },
    WorkloadSpec {
        name: "hot_small",
        why: "about 850 short statements over 1 MiB that fits the pool: interpreter, DAG build, optimizer and the pin-hit path do the work, the device none",
    },
    WorkloadSpec {
        name: "ingest_commit",
        why: "ingest 68 MiB under names, compute, commit, reopen, read back: dirty eviction, write-back, sync and shadow-paged catalog commits do the work",
    },
];

/// What a user of the system sees, per workload. All from the untraced
/// pass.
pub const END_TO_END: [MetricSpec; 9] = [
    e2e("setup_s", "s", true, 0.25),
    e2e("iter_s", "s", true, 0.25),
    e2e("iter_p75_s", "s", true, 0.25),
    e2e("cpu_s", "s", true, 0.25),
    e2e("blocks_read", "blocks", true, 0.02),
    e2e("blocks_written", "blocks", true, 0.02),
    e2e("peak_rss_mb", "MiB", true, 0.15),
    e2e("space_amp", "ratio", true, 0.02),
    e2e("verified_share", "ratio", false, 0.01),
];

/// Single-layer numbers from the traced pass and the probes; layer =
/// module name. 0 where a metric is not measured on a workload.
pub const PER_LAYER: [MetricSpec; 59] = [
    lower("rlang.parse_s", "s"),
    lower("rlang.interp_self_s", "s"),
    lower("rlang.statements", "count"),
    higher("core.opt.rewrites", "count"),
    lower("core.opt.explain_us", "us"),
    lower("core.force.count", "count"),
    lower("core.flops", "count"),
    lower("core.exec.pipeline.self_s", "s"),
    lower("core.exec.matmul.self_s", "s"),
    lower("core.exec.factor.self_s", "s"),
    lower("core.exec.sparse.self_s", "s"),
    lower("core.exec.other_self_s", "s"),
    higher("core.exec.matmul.gflops", "Gflop/s"),
    higher("core.exec.pipeline.gb_per_s", "GB/s"),
    higher("core.exec.matmul.incore_gflops", "Gflop/s"),
    higher("core.exec.factor.incore_gflops", "Gflop/s"),
    higher("core.exec.pipeline.incore_gb_per_s", "GB/s"),
    higher("core.exec.sparse.incore_mnnz_per_s", "Mnnz/s"),
    lower("core.session.leaked_objects", "count"),
    lower("core.session.leaked_blocks", "blocks"),
    lower("core.policy.plain_r.iter_s", "s"),
    lower("core.policy.strawman.iter_s", "s"),
    lower("core.policy.mat_named.iter_s", "s"),
    higher("core.policy.strawman_read_ratio", "ratio"),
    lower("core.exec.pipeline.t2_time_ratio", "ratio"),
    lower("core.exec.pipeline.t2_read_excess", "ratio"),
    lower("array.tile_read_ns_per_elem", "ns"),
    lower("sparse.stored_bytes_per_nnz", "B"),
    higher("storage.pool.hits", "count"),
    lower("storage.pool.misses", "count"),
    higher("storage.pool.hit_rate", "ratio"),
    lower("storage.pool.writebacks", "count"),
    higher("storage.pool.coalesced_loads", "count"),
    higher("storage.pool.prefetch_issued", "count"),
    higher("storage.pool.prefetch_hits", "count"),
    lower("storage.pool.prefetch_wasted", "count"),
    lower("storage.pool.pin_hit_ns", "ns"),
    lower("storage.pool.pin_miss_us", "us"),
    lower("storage.device.reads", "count"),
    lower("storage.device.writes", "count"),
    lower("storage.device.syncs", "count"),
    higher("storage.device.seq_read_share", "ratio"),
    lower("storage.device.fg_busy_s", "s"),
    lower("storage.device.bg_busy_s", "s"),
    lower("storage.device.read_p50_us", "us"),
    lower("storage.device.read_p99_us", "us"),
    lower("storage.device.write_p50_us", "us"),
    lower("storage.device.sync_p50_us", "us"),
    lower("storage.commit.commit_ms", "ms"),
    lower("storage.commit.versions", "count"),
    lower("storage.retry.retried", "count"),
    lower("storage.verify.corruptions", "count"),
    lower("trace.overhead_ratio", "ratio"),
    lower("trace.events", "count"),
    lower("trace.dropped", "count"),
    lower("storage.governor.overhead_ratio", "ratio"),
    lower("proc.user_s", "s"),
    lower("proc.sys_s", "s"),
    lower("proc.minor_faults", "count"),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let better = |m: &MetricSpec| if m.lower_is_better { "lower" } else { "higher" };
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            better(m),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            better(m)
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_root_is_print_spec_verbatim() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- --print-spec > BENCHMARK.json"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
    }
}
