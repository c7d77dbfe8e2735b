//! The deferred family (`MatNamed`, `Riot`): operators build DAG nodes
//! and nothing runs until a forcing point.
//!
//! Both engines share every line here except two policy points. At a
//! forcing point, [`Runtime::optimized`] is where Riot — and only Riot —
//! rewrites the DAG first; at an assignment, [`Runtime::assign`] is where
//! MatNamed — and only MatNamed — materializes the named value. What a
//! forcing point then executes is the `executor`'s business.

use std::cell::Cell;

use riot_array::DenseVector;
use riot_trace::EventKind;

use super::{EngineKind, Runtime, VecRepr};
use crate::exec::pipeline::{drain_to_vec, governed, materialize};
use crate::exec::ExecResult;
use crate::expr::{AggOp, Node, NodeId};
use crate::opt::optimize;

impl Runtime {
    // ================= the two policy points =================

    /// Policy point 1 — *what a forcing point runs*: Riot optimizes the
    /// DAG under `root` and returns the rewritten root; MatNamed executes
    /// the DAG as the program built it (`None`).
    fn optimized(&mut self, root: NodeId) -> Option<NodeId> {
        if self.cfg.kind != EngineKind::Riot {
            return None;
        }
        let (root, stats) = optimize(&mut self.graph, root, &self.cfg.opt);
        self.last_opt_stats = stats;
        Some(root)
    }

    /// Policy point 2 — *what an assignment costs*: binding a name
    /// materializes the value under MatNamed (the defining behaviour of
    /// that strategy), is free under Riot, and aliases the stored object
    /// under the eager engines.
    pub(crate) fn assign(&mut self, v: &VecRepr) -> ExecResult<VecRepr> {
        if let (EngineKind::MatNamed, VecRepr::Node(id)) = (self.cfg.kind, v) {
            self.force_vector_to_disk(*id)?;
        }
        self.retain(v);
        Ok(v.clone())
    }

    // ================= planning =================

    /// EXPLAIN for a deferred node: the logical plan the next forcing
    /// point would execute, rendered as a text tree.
    pub fn explain(&mut self, id: NodeId) -> String {
        let root = self.optimized(id).unwrap_or(id);
        crate::profile::render_plan(&self.graph, root)
    }

    /// The forcing prelude: plan `root`, and when that rewrote the DAG,
    /// trace the decisions.
    fn plan_root(&mut self, root: NodeId) -> NodeId {
        let Some(root) = self.optimized(root) else {
            return root;
        };
        self.record_opt_events(root);
        root
    }

    /// A forcing point: one span named `name` around planning `root` and
    /// running `body` on the planned root.
    pub(super) fn force<T>(
        &mut self,
        name: &'static str,
        root: NodeId,
        body: impl FnOnce(&mut Self, NodeId) -> ExecResult<T>,
    ) -> ExecResult<T> {
        let planned = Cell::new(root);
        self.span(
            name,
            |rt| rt.detail_of(planned.get()),
            |rt| {
                planned.set(rt.plan_root(root));
                body(rt, planned.get())
            },
        )
    }

    /// Emit the optimizer's decisions for the forcing point that just
    /// optimized `root`: the chosen plan (rendered) and one event per
    /// rewrite rule that fired.
    fn record_opt_events(&self, root: NodeId) {
        let tracer = self.ctx.tracer();
        if !tracer.is_enabled() {
            return;
        }
        tracer.record(EventKind::Plan {
            detail: self.detail_of(root).into_boxed_str(),
        });
        let s = &self.last_opt_stats;
        for (rule, count) in [
            ("mask_to_ifelse", s.mask_to_ifelse),
            ("gathers_pushed", s.gathers_pushed),
            ("folds", s.folds),
            ("chains_reordered", s.chains_reordered),
            ("sparse_kernels", s.sparse_kernels),
            ("sparse_densified", s.sparse_densified),
            ("sparse_transposes", s.sparse_transposes),
            ("transpose_densified", s.transpose_densified),
            ("normal_eq_solves", s.normal_eq_solves),
        ] {
            if count > 0 {
                tracer.record(EventKind::Rewrite { rule, count });
            }
        }
    }

    // ================= forcing points =================

    /// Materialize node `id` to a stored vector (idempotent).
    pub(super) fn force_vector_to_disk(&mut self, id: NodeId) -> ExecResult<DenseVector> {
        if let Some(v) = self.materialized.get(&id) {
            return Ok(v.clone());
        }
        // Sources are already on disk.
        if let Node::VecSource { source, .. } = self.graph.node(id) {
            return Ok(self.vec_sources[&source.0].clone());
        }
        self.span(
            "materialize",
            |rt| rt.detail_of(id),
            |rt| {
                let len = rt.graph.shape(id).len();
                let vec = materialize(rt.compile(id, len)?, &rt.ctx, None)?;
                vec.flush()?;
                rt.materialized.insert(id, vec.clone());
                Ok(vec)
            },
        )
    }

    /// Reduce a deferred vector to a scalar, streaming: nothing is stored.
    pub(super) fn force_aggregate(&mut self, op: AggOp, id: NodeId) -> ExecResult<f64> {
        let root = self.graph.agg(op, id);
        self.force("aggregate", root, |rt, root| match *rt.graph.node(root) {
            Node::Agg(op, [input]) => rt.aggregate_node(op, input),
            Node::Scalar(folded) => Ok(folded),
            _ => unreachable!("an aggregate root plans to an aggregate or its folded value"),
        })
    }

    /// Evaluate a deferred vector into memory (the `print` forcing point).
    pub(super) fn force_collect(&mut self, id: NodeId) -> ExecResult<Vec<f64>> {
        self.force("collect", id, |rt, root| {
            let len = rt.graph.shape(root).len();
            rt.count_ops(len);
            if let Some(out) = rt.try_parallel_collect(root, len)? {
                return Ok(out);
            }
            let pipe = governed(rt.compile(root, len)?, &rt.ctx, "pipeline.collect.chunk");
            drain_to_vec(pipe)
        })
    }
}
