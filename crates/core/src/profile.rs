//! Query profiles and EXPLAIN: the reproduction's answer to the paper's
//! DTrace instrumentation.
//!
//! The paper diagnoses each strategy by *watching* its I/O (Figure 1's
//! DTrace traces distinguish R's scattered paging from MySQL's "bulky and
//! sequential" scans). This module turns the engine's own trace stream
//! ([`riot_trace`]) into the same kind of evidence, structured:
//!
//! * [`QueryProfile`] — everything observed while profiling one region:
//!   a span tree ([`ProfileNode`]) of forcing points and kernels with
//!   per-span counted I/O, flops, and wall time; the buffer-pool counter
//!   delta; and every typed storage event (misses, evictions, prefetch
//!   hits/waste, retries, corruption).
//! * [`render_plan`] — an EXPLAIN text tree over the expression DAG (the
//!   logical plan the optimizer chose), independent of execution.
//! * Three renderers on the profile: [`QueryProfile::render_tree`]
//!   (EXPLAIN-style tree with measurements), [`QueryProfile::render_flat`]
//!   (one metric per line), and [`QueryProfile::to_chrome_json`]
//!   (load the file in `chrome://tracing` / Perfetto for a timeline).
//!
//! The profile's accounting invariant: the root node's metrics are the
//! *measured* counter deltas for the profiled region — span metrics
//! nest inside it, so summing [`ProfileNode::self_metrics`] over the tree
//! reproduces the root totals exactly.

use std::collections::HashMap;
use std::fmt::Write as _;

use riot_storage::{DiskModel, IoSnapshot, PoolStats};
use riot_trace::{Event, EventKind, Metrics};

use crate::expr::{Node, NodeId};
use crate::graph::ExprGraph;
use crate::shape::Shape;

/// One node of the measured span tree: a forcing point, kernel, or spill,
/// with the counter deltas observed while it (inclusively) ran.
#[derive(Debug, Clone)]
pub struct ProfileNode {
    /// Span name (`collect`, `matmul`, `spmm`, `materialize`, ...).
    pub name: String,
    /// Free-form detail (rendered expression, dimensions).
    pub detail: String,
    /// Start, nanoseconds from the tracer's origin.
    pub start_ns: u64,
    /// Inclusive wall-clock duration.
    pub dur_ns: u64,
    /// Inclusive counter deltas (children included).
    pub metrics: Metrics,
    /// Nested spans, in start order.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Metrics attributable to this node alone: inclusive minus the sum
    /// of the children's inclusive metrics (saturating — concurrent
    /// children may overlap).
    pub fn self_metrics(&self) -> Metrics {
        let mut kids = Metrics::default();
        for c in &self.children {
            kids = kids.plus(&c.metrics);
        }
        self.metrics.minus(&kids)
    }

    /// This node plus all descendants.
    pub fn count(&self) -> usize {
        1 + self.children.iter().map(ProfileNode::count).sum::<usize>()
    }

    fn sum_self(&self, acc: &mut Metrics) {
        *acc = acc.plus(&self.self_metrics());
        for c in &self.children {
            c.sum_self(acc);
        }
    }
}

/// The structured result of profiling one region of execution.
#[derive(Debug, Clone)]
pub struct QueryProfile {
    /// Engine label the region ran under (e.g. `"RIOT-DB"`).
    pub engine: String,
    /// Span tree. The root is synthetic (`"query"`) and carries the
    /// **measured** total counter deltas for the whole region.
    pub root: ProfileNode,
    /// Buffer-pool counter delta over the region.
    pub pool: PoolStats,
    /// Typed non-span events, in drain order (pool misses, evictions,
    /// prefetch traffic, retries, corruption, plan/rewrite decisions).
    pub events: Vec<Event>,
    /// Events the bounded ring had to drop (0 in healthy runs).
    pub dropped: u64,
}

impl QueryProfile {
    /// Assemble a profile from a drained event stream plus the measured
    /// region totals. `total` becomes the root node's metrics, so the
    /// tree's accounting invariant holds by construction.
    pub fn assemble(
        engine: String,
        events: Vec<Event>,
        total: Metrics,
        pool: PoolStats,
        wall_ns: u64,
        dropped: u64,
    ) -> Self {
        let mut spans = Vec::new();
        let mut rest = Vec::new();
        for ev in events {
            match ev.kind {
                EventKind::Span(s) => spans.push(s),
                _ => rest.push(ev),
            }
        }
        // Completed-span events arrive in end order; reassemble by parent
        // id. A span whose parent never completed (or predates the drain)
        // becomes a root child.
        let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
        let mut by_parent: HashMap<u64, Vec<riot_trace::SpanData>> = HashMap::new();
        for s in spans {
            let key = if ids.contains(&s.parent) { s.parent } else { 0 };
            by_parent.entry(key).or_default().push(s);
        }
        fn build(
            id: u64,
            data: (String, String, u64, u64, Metrics),
            by_parent: &mut HashMap<u64, Vec<riot_trace::SpanData>>,
        ) -> ProfileNode {
            let mut children: Vec<ProfileNode> = by_parent
                .remove(&id)
                .unwrap_or_default()
                .into_iter()
                .map(|s| {
                    build(
                        s.id,
                        (
                            s.name.to_string(),
                            s.detail.into_string(),
                            s.start_ns,
                            s.dur_ns,
                            s.metrics,
                        ),
                        by_parent,
                    )
                })
                .collect();
            children.sort_by_key(|c| c.start_ns);
            ProfileNode {
                name: data.0,
                detail: data.1,
                start_ns: data.2,
                dur_ns: data.3,
                metrics: data.4,
                children,
            }
        }
        let start = by_parent
            .values()
            .flatten()
            .map(|s| s.start_ns)
            .min()
            .unwrap_or(0);
        let root = build(
            0,
            ("query".to_string(), String::new(), start, wall_ns, total),
            &mut by_parent,
        );
        QueryProfile {
            engine,
            root,
            pool,
            events: rest,
            dropped,
        }
    }

    /// The measured region totals (the root node's metrics).
    pub fn total(&self) -> Metrics {
        self.root.metrics
    }

    /// Sum of [`ProfileNode::self_metrics`] over the whole tree — equals
    /// [`QueryProfile::total`] by the accounting invariant.
    pub fn sum_self(&self) -> Metrics {
        let mut acc = Metrics::default();
        self.root.sum_self(&mut acc);
        acc
    }

    /// The region's counted I/O as an [`IoSnapshot`] (what the engine's
    /// `io_snapshot()` delta reports for the same region).
    pub fn io(&self) -> IoSnapshot {
        IoSnapshot {
            reads: self.root.metrics.reads,
            writes: self.root.metrics.writes,
            seq_reads: self.root.metrics.seq_reads,
            seq_writes: self.root.metrics.seq_writes,
            bytes_read: self.root.metrics.bytes_read,
            bytes_written: self.root.metrics.bytes_written,
            syncs: 0,
        }
    }

    /// Modeled elapsed seconds for the region under `model` — the
    /// Figure 1(b) accounting applied to one query instead of a session.
    pub fn modeled_seconds(&self, model: &DiskModel) -> f64 {
        model.modeled_seconds(&self.io(), self.root.metrics.flops)
    }

    /// Number of typed (non-span) events with the given label
    /// (`"pool_miss"`, `"retry_read"`, `"corruption"`, ... — see
    /// [`EventKind::label`]).
    pub fn event_count(&self, label: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind.label() == label)
            .count()
    }

    /// EXPLAIN-style tree with per-span measurements and wall times.
    pub fn render_tree(&self) -> String {
        self.render_tree_opts(true)
    }

    /// The same tree without wall-clock timings: every remaining number
    /// is a deterministic counter, so the output is stable across runs
    /// (what the golden-file test pins).
    pub fn render_counts(&self) -> String {
        self.render_tree_opts(false)
    }

    fn render_tree_opts(&self, timings: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "QUERY PROFILE [{}]", self.engine);
        render_node(&mut out, &self.root, "", true, true, timings);
        let _ = writeln!(out, "{}", self.pool);
        if self.dropped > 0 {
            let _ = writeln!(out, "trace: {} events dropped (ring full)", self.dropped);
        }
        out
    }

    /// Flat dump: one metric per line, then typed-event counts. Every
    /// line is deterministic for a deterministic workload.
    pub fn render_flat(&self) -> String {
        let m = &self.root.metrics;
        let mut out = String::new();
        let _ = writeln!(out, "engine         {}", self.engine);
        let _ = writeln!(out, "spans          {}", self.root.count() - 1);
        let _ = writeln!(out, "reads          {}", m.reads);
        let _ = writeln!(out, "seq_reads      {}", m.seq_reads);
        let _ = writeln!(out, "rand_reads     {}", m.rand_reads());
        let _ = writeln!(out, "writes         {}", m.writes);
        let _ = writeln!(out, "seq_writes     {}", m.seq_writes);
        let _ = writeln!(out, "rand_writes    {}", m.rand_writes());
        let _ = writeln!(out, "bytes_read     {}", m.bytes_read);
        let _ = writeln!(out, "bytes_written  {}", m.bytes_written);
        let _ = writeln!(out, "flops          {}", m.flops);
        let _ = writeln!(out, "pool_hits      {}", self.pool.hits);
        let _ = writeln!(out, "pool_misses    {}", self.pool.misses);
        let _ = writeln!(out, "hit_rate       {:.4}", self.pool.hit_rate());
        let mut counts: HashMap<&'static str, usize> = HashMap::new();
        for e in &self.events {
            *counts.entry(e.kind.label()).or_default() += 1;
        }
        let mut labels: Vec<_> = counts.into_iter().collect();
        labels.sort();
        for (label, n) in labels {
            let _ = writeln!(out, "event:{label:<15} {n}");
        }
        out
    }

    /// Chrome trace-event JSON (the `chrome://tracing` / Perfetto array
    /// format): spans become complete (`"X"`) events, typed events become
    /// instants (`"i"`). Timestamps are microseconds from the tracer
    /// origin.
    pub fn to_chrome_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        fn span_json(out: &mut Vec<String>, n: &ProfileNode) {
            out.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":0,\"tid\":0,\"args\":{{\"detail\":\"{}\",\"reads\":{},\"writes\":{},\
                 \"flops\":{}}}}}",
                esc(&n.name),
                n.start_ns as f64 / 1000.0,
                n.dur_ns as f64 / 1000.0,
                esc(&n.detail),
                n.metrics.reads,
                n.metrics.writes,
                n.metrics.flops
            ));
            for c in &n.children {
                span_json(out, c);
            }
        }
        let mut items = Vec::new();
        span_json(&mut items, &self.root);
        for e in &self.events {
            items.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"storage\",\"ph\":\"i\",\"ts\":{:.3},\
                 \"pid\":0,\"tid\":{},\"s\":\"t\"}}",
                e.kind.label(),
                e.ts_ns as f64 / 1000.0,
                e.thread
            ));
        }
        format!("[{}]", items.join(",\n"))
    }
}

fn render_node(
    out: &mut String,
    n: &ProfileNode,
    prefix: &str,
    last: bool,
    root: bool,
    timings: bool,
) {
    let (branch, cont) = if root {
        ("", "")
    } else if last {
        ("└─ ", "   ")
    } else {
        ("├─ ", "│  ")
    };
    let m = &n.metrics;
    let mut line = format!("{prefix}{branch}{}", n.name);
    if !n.detail.is_empty() {
        let _ = write!(line, "  {}", n.detail);
    }
    let _ = write!(
        line,
        "  [{} reads ({} seq) / {} writes ({} seq), {} flops]",
        m.reads, m.seq_reads, m.writes, m.seq_writes, m.flops
    );
    if timings {
        let _ = write!(line, "  {:.3}ms", n.dur_ns as f64 / 1e6);
    }
    let _ = writeln!(out, "{line}");
    let child_prefix = format!("{prefix}{cont}");
    for (i, c) in n.children.iter().enumerate() {
        render_node(
            out,
            c,
            &child_prefix,
            i + 1 == n.children.len(),
            false,
            timings,
        );
    }
}

// ================= logical-plan EXPLAIN =================

/// Render the expression DAG rooted at `root` as an EXPLAIN text tree —
/// the *logical* plan (what the optimizer chose), as opposed to the
/// *measured* tree a [`QueryProfile`] carries. Shared subexpressions
/// print once per reference, as the executor's tree-shaped pipeline sees
/// them.
pub fn render_plan(graph: &ExprGraph, root: NodeId) -> String {
    let mut out = String::new();
    plan_node(&mut out, graph, root, "", true, true);
    out
}

fn plan_label(graph: &ExprGraph, id: NodeId) -> String {
    let shape = match graph.shape(id) {
        Shape::Scalar => "scalar".to_string(),
        Shape::Vector(n) => format!("vec[{n}]"),
        Shape::Matrix(r, c) => format!("mat[{r}x{c}]"),
    };
    let what = match graph.node(id) {
        Node::VecSource { source, .. } => format!("scan v{}", source.0),
        Node::MatSource { source, .. } => format!("scan m{}", source.0),
        Node::SpMatSource { source, nnz, .. } => format!("scan sparse s{} nnz={nnz}", source.0),
        Node::Densify(_) => "densify".to_string(),
        Node::Sparsify(_) => "sparsify".to_string(),
        Node::Literal(v) => format!("literal n={}", v.len()),
        Node::Scalar(c) => format!("const {c}"),
        Node::Range { start, len } => format!("range {start}..+{len}"),
        Node::Map(op, _) => format!("map {}", op.name()),
        Node::Zip(op, _) => format!("zip {}", op.name()),
        Node::IfElse(_) => "ifelse".to_string(),
        Node::Gather(_) => "gather".to_string(),
        Node::SubAssign(_) => "subassign".to_string(),
        Node::MaskAssign(_) => "maskassign".to_string(),
        Node::MatMul(_) => "matmul".to_string(),
        Node::Transpose(_) => "transpose".to_string(),
        Node::SpTranspose(_) => "sptranspose".to_string(),
        Node::Agg(op, _) => format!("agg {}", op.name()),
        Node::Chol(_) => "chol".to_string(),
        Node::Solve(_) => "solve".to_string(),
    };
    format!("{what}  -> {shape}")
}

fn plan_node(
    out: &mut String,
    graph: &ExprGraph,
    id: NodeId,
    prefix: &str,
    last: bool,
    root: bool,
) {
    let (branch, cont) = if root {
        ("", "")
    } else if last {
        ("└─ ", "   ")
    } else {
        ("├─ ", "│  ")
    };
    let _ = writeln!(out, "{prefix}{branch}{}", plan_label(graph, id));
    let children = graph.node(id).children();
    let child_prefix = format!("{prefix}{cont}");
    for (i, c) in children.iter().enumerate() {
        plan_node(
            out,
            graph,
            *c,
            &child_prefix,
            i + 1 == children.len(),
            false,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riot_trace::{SpanData, Tracer};

    fn span(id: u64, parent: u64, name: &'static str, start: u64, reads: u64) -> Event {
        Event {
            ts_ns: start,
            thread: 0,
            kind: EventKind::Span(SpanData {
                id,
                parent,
                name,
                detail: String::new().into_boxed_str(),
                start_ns: start,
                dur_ns: 10,
                metrics: Metrics {
                    reads,
                    ..Metrics::default()
                },
            }),
        }
    }

    #[test]
    fn assembles_nested_spans_under_measured_root() {
        // Child (id 2) completes before parent (id 1): end-order arrival.
        let events = vec![
            span(2, 1, "inner", 5, 3),
            span(1, 0, "outer", 0, 7),
            Event {
                ts_ns: 1,
                thread: 0,
                kind: EventKind::PoolMiss { block: 9 },
            },
        ];
        let total = Metrics {
            reads: 11,
            ..Metrics::default()
        };
        let p = QueryProfile::assemble("test".into(), events, total, PoolStats::default(), 100, 0);
        assert_eq!(p.root.children.len(), 1);
        assert_eq!(p.root.children[0].name, "outer");
        assert_eq!(p.root.children[0].children[0].name, "inner");
        assert_eq!(p.event_count("pool_miss"), 1);
        // Accounting invariant: self-sums reproduce the measured total.
        assert_eq!(p.sum_self().reads, 11);
        // outer self = 7 - 3, inner self = 3, root self = 11 - 7.
        assert_eq!(p.root.children[0].self_metrics().reads, 4);
    }

    #[test]
    fn orphan_spans_attach_to_the_root() {
        let events = vec![span(5, 99, "lost-parent", 3, 1)];
        let p = QueryProfile::assemble(
            "test".into(),
            events,
            Metrics::default(),
            PoolStats::default(),
            10,
            0,
        );
        assert_eq!(p.root.children.len(), 1);
        assert_eq!(p.root.children[0].name, "lost-parent");
    }

    #[test]
    fn renderers_cover_tree_flat_and_chrome() {
        let events = vec![span(1, 0, "collect", 0, 2)];
        let p = QueryProfile::assemble(
            "RIOT-DB".into(),
            events,
            Metrics {
                reads: 2,
                ..Metrics::default()
            },
            PoolStats {
                hits: 3,
                misses: 1,
                ..PoolStats::default()
            },
            50,
            0,
        );
        let tree = p.render_tree();
        assert!(tree.contains("QUERY PROFILE [RIOT-DB]"), "{tree}");
        assert!(tree.contains("collect"), "{tree}");
        assert!(tree.contains("ms"), "timed render has wall clock: {tree}");
        let counts = p.render_counts();
        assert!(!counts.contains("ms"), "deterministic render: {counts}");
        let flat = p.render_flat();
        assert!(flat.contains("reads          2"), "{flat}");
        assert!(flat.contains("hit_rate       0.7500"), "{flat}");
        let json = p.to_chrome_json();
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
    }

    #[test]
    fn modeled_seconds_uses_the_disk_model() {
        let p = QueryProfile::assemble(
            "t".into(),
            vec![],
            Metrics {
                reads: 100,
                seq_reads: 100,
                ..Metrics::default()
            },
            PoolStats::default(),
            1,
            0,
        );
        let m = DiskModel::default();
        let secs = p.modeled_seconds(&m);
        assert!((secs - 100.0 * m.seq_ms / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_round_trip_assembles() {
        let t = Tracer::new();
        t.enable();
        let outer = t.begin_span("outer");
        let inner = t.begin_span("inner");
        t.end_span(inner, "i".to_string(), Metrics::default());
        t.end_span(outer, "o".to_string(), Metrics::default());
        let p = QueryProfile::assemble(
            "t".into(),
            t.drain(),
            Metrics::default(),
            PoolStats::default(),
            1,
            0,
        );
        assert_eq!(p.root.children.len(), 1);
        assert_eq!(p.root.children[0].children.len(), 1);
        assert_eq!(p.root.count(), 3);
    }
}
