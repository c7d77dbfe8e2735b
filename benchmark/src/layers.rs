//! Per-layer numbers of one traced iteration, from the instruments that
//! sit outside the program: harness statement spans, the `Session::profile`
//! span trees inside them, counter deltas, and the `TimedDevice`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use riot::core::ProfileNode;

use crate::harness::IterReport;
use crate::script::StmtSpan;

/// Metric name → value.
pub type Sample = BTreeMap<&'static str, f64>;

/// Which `core.exec` family a span belongs to, by its name.
fn family(span: &str) -> &'static str {
    match span {
        "aggregate" | "collect" | "materialize" => "pipeline",
        "matmul" => "matmul",
        "chol" | "solve" => "factor",
        "spmm" | "spmdm" | "dmspm" | "sptranspose" | "nnz" => "sparse",
        _ => "other",
    }
}

#[derive(Default, Clone, Copy)]
struct FamilyTotals {
    self_ns: u64,
    flops: u64,
    bytes: u64,
}

/// Self time = the span's duration minus the part its children cover.
fn walk(node: &ProfileNode, totals: &mut BTreeMap<&'static str, FamilyTotals>) {
    let kids: u64 = node.children.iter().map(|c| c.dur_ns).sum();
    let own = node.self_metrics();
    let t = totals.entry(family(&node.name)).or_default();
    t.self_ns += node.dur_ns.saturating_sub(kids);
    t.flops += own.flops;
    t.bytes += own.bytes_read + own.bytes_written;
    for c in &node.children {
        walk(c, totals);
    }
}

/// Every per-layer metric one traced iteration can supply.
pub fn sample(report: &IterReport) -> Sample {
    let mut s = Sample::new();
    let m = &report.measured;
    s.insert("proc.user_s", m.user_s);
    s.insert("proc.sys_s", m.sys_s);
    s.insert("proc.minor_faults", m.minor_faults as f64);
    s.insert("core.session.leaked_objects", report.leaked_objects as f64);
    s.insert("core.session.leaked_blocks", report.leaked_blocks as f64);

    let p = &report.pool;
    s.insert("storage.pool.hits", p.hits as f64);
    s.insert("storage.pool.misses", p.misses as f64);
    s.insert("storage.pool.hit_rate", p.hit_rate());
    s.insert("storage.pool.writebacks", p.evict_writebacks as f64);
    s.insert("storage.pool.coalesced_loads", p.coalesced_loads as f64);
    s.insert("storage.pool.prefetch_issued", p.prefetch_issued as f64);
    s.insert("storage.pool.prefetch_hits", p.prefetch_hits as f64);
    s.insert("storage.pool.prefetch_wasted", p.prefetch_wasted as f64);

    if let Some(c) = report.commit {
        s.insert("storage.commit.commit_ms", c.commit_ms);
        s.insert("storage.commit.versions", c.versions as f64);
    }

    let Some(trace) = &report.trace else {
        return s;
    };
    let d = &trace.device;
    s.insert("storage.device.reads", d.reads as f64);
    s.insert("storage.device.writes", d.writes as f64);
    s.insert("storage.device.syncs", d.syncs as f64);
    let seq_share = if d.reads == 0 {
        0.0
    } else {
        d.seq_reads as f64 / d.reads as f64
    };
    s.insert("storage.device.seq_read_share", seq_share);
    s.insert("storage.device.fg_busy_s", d.fg_busy_s);
    s.insert("storage.device.bg_busy_s", d.bg_busy_s);
    s.insert("storage.device.read_p50_us", d.read_p50_us);
    s.insert("storage.device.read_p99_us", d.read_p99_us);
    s.insert("storage.device.write_p50_us", d.write_p50_us);
    s.insert("storage.device.sync_p50_us", d.sync_p50_us);

    let mut totals = BTreeMap::new();
    let (mut stmt_ns, mut forced_ns) = (0u64, 0u64);
    let (mut forces, mut flops, mut rewrites) = (0u64, 0u64, 0u64);
    let (mut events, mut dropped, mut retried, mut corruptions) = (0u64, 0u64, 0u64, 0u64);
    for span in &trace.spans {
        // The statement as `Session::profile` timed it, without the drain.
        stmt_ns += span.root.dur_ns;
        forces += span.root.children.len() as u64;
        flops += span.root.metrics.flops;
        events += span.events;
        dropped += span.dropped;
        rewrites += span.rewrites;
        retried += span.retries;
        corruptions += span.corruptions;
        for c in &span.root.children {
            forced_ns += c.dur_ns;
            walk(c, &mut totals);
        }
    }
    s.insert("rlang.parse_s", trace.parse_s);
    s.insert("rlang.statements", trace.statements as f64);
    // What the statements cost beyond their forcing points: parsing,
    // interpretation and DAG construction.
    s.insert(
        "rlang.interp_self_s",
        stmt_ns.saturating_sub(forced_ns) as f64 / 1e9,
    );
    s.insert("core.force.count", forces as f64);
    s.insert("core.flops", flops as f64);
    s.insert("core.opt.rewrites", rewrites as f64);
    s.insert("trace.events", events as f64);
    s.insert("trace.dropped", dropped as f64);
    s.insert(
        "storage.retry.retried",
        (retried + p.writeback_retries) as f64,
    );
    s.insert("storage.verify.corruptions", corruptions as f64);

    let of = |f: &str| totals.get(f).copied().unwrap_or_default();
    let secs = |f: &str| of(f).self_ns as f64 / 1e9;
    s.insert("core.exec.pipeline.self_s", secs("pipeline"));
    s.insert("core.exec.matmul.self_s", secs("matmul"));
    s.insert("core.exec.factor.self_s", secs("factor"));
    s.insert("core.exec.sparse.self_s", secs("sparse"));
    s.insert("core.exec.other_self_s", secs("other"));
    let rate = |num: u64, f: &str| {
        if of(f).self_ns == 0 {
            0.0
        } else {
            num as f64 / of(f).self_ns as f64
        }
    };
    // Per nanosecond = giga per second.
    s.insert(
        "core.exec.matmul.gflops",
        rate(of("matmul").flops, "matmul"),
    );
    s.insert(
        "core.exec.pipeline.gb_per_s",
        rate(of("pipeline").bytes, "pipeline"),
    );
    s
}

/// chrome://tracing JSON of one traced iteration: the harness's statement
/// spans on track 1, the engine's span trees under them on track 0.
pub fn chrome_trace(spans: &[StmtSpan]) -> String {
    fn esc(s: &str) -> String {
        s.chars()
            .map(|c| match c {
                '"' => "'".to_string(),
                '\\' => "/".to_string(),
                c if (c as u32) < 0x20 => " ".to_string(),
                c => c.to_string(),
            })
            .collect()
    }
    fn event(out: &mut String, name: &str, detail: &str, tid: u32, start_ns: u64, dur_ns: u64) {
        if !out.is_empty() {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"detail\":\"{}\"}}}}",
            esc(name),
            start_ns as f64 / 1e3,
            dur_ns as f64 / 1e3,
            esc(detail)
        );
    }
    fn tree(out: &mut String, n: &ProfileNode) {
        event(out, &n.name, &n.detail, 0, n.start_ns, n.dur_ns);
        for c in &n.children {
            tree(out, c);
        }
    }
    let mut out = String::new();
    for span in spans {
        let first_line = span.text.lines().next().unwrap_or("");
        event(
            &mut out,
            "statement",
            first_line,
            1,
            span.start_ns,
            span.wall_ns,
        );
        for c in &span.root.children {
            tree(&mut out, c);
        }
    }
    format!("[\n{out}\n]\n")
}
