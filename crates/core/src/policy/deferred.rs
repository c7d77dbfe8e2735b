//! The deferred family (`MatNamed`, `Riot`): operators build DAG nodes
//! and nothing runs until a forcing point.
//!
//! Both engines share every line here except two policy points. At a
//! forcing point, [`Runtime::optimized`] is where Riot — and only Riot —
//! rewrites the DAG first; at an assignment, [`Runtime::assign`] is where
//! MatNamed — and only MatNamed — materializes the named value. What a
//! forcing point then executes is the `executor`'s business.
//!
//! An aggregate is deferred like everything else: `sum(v)` is a
//! scalar-shaped node, registered as pending, and nothing runs until its
//! value is **observed** ([`Runtime::scalar_value`]) or a forcing point
//! finds it under its root ([`Runtime::resolve_under`]). It then runs in
//! one pass with every other pending aggregate that reads the same
//! storage ([`Runtime::batch_of`]), and the values replace the nodes.

use std::cell::Cell;
use std::collections::HashSet;

use riot_array::DenseVector;
use riot_trace::EventKind;

use super::{EngineKind, Runtime, VecRepr};
use crate::exec::pipeline::{drain_to_vec, governed, materialize};
use crate::exec::ExecResult;
use crate::expr::{Node, NodeId};
use crate::opt::optimize;
use crate::shape::Shape;

/// What batching needs to know of a pending aggregate, read off the DAG
/// under its input when it is built.
#[derive(Clone, Default)]
pub(crate) struct Pending {
    /// Length of the input.
    len: usize,
    /// The vector nodes a tape over the input computes in lockstep, down
    /// to and including the leaves it pulls from.
    nodes: Vec<NodeId>,
    /// Of `nodes`, the leaves that read storage: a stored vector the tape
    /// scans, a gather or an indexed update (hash-consed, so the same node
    /// is the same pipe whoever pulls it).
    leaves: Vec<NodeId>,
    /// Aggregates beneath the input: each needs its value first.
    nested: Vec<NodeId>,
}

/// How deep a DAG may grow under a scalar nobody has observed: planning
/// and compiling recurse over it, so this bounds their stack whatever the
/// script's loops do.
const PENDING_DEPTH: usize = 256;

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
        if let (EngineKind::MatNamed, &VecRepr::Node(id)) = (self.cfg.kind, v) {
            // A scalar is observed, and there is nothing to store.
            if self.graph.shape(id) == Shape::Scalar {
                self.scalar_value(id)?;
            } else {
                self.force_vector_to_disk(id)?;
            }
        }
        self.retain(v);
        Ok(v.clone())
    }

    // ================= planning =================

    /// EXPLAIN for a deferred node: the logical plan the next forcing
    /// point would execute, rendered as a text tree. A pending aggregate
    /// is headed by the batch it would run with as things stand — one
    /// node of the physical plan, one output per member — unless
    /// aggregates beneath it are pending too: their batches run first, and
    /// decide what is left to ride with this one.
    pub fn explain(&mut self, id: NodeId) -> String {
        let root = self.optimized(id).unwrap_or(id);
        let plan = crate::profile::render_plan(&self.graph, root);
        let is_pending = |n: &NodeId| matches!(self.graph.node(*n), Node::Agg(..));
        match self.pending.get(&id).filter(|_| is_pending(&id)) {
            Some(me) => match me.nested.iter().filter(|n| is_pending(n)).count() {
                0 => {
                    let batch = self.batch_of(id, me);
                    format!("aggregate {}\n{plan}", self.batch_detail(&batch, me))
                }
                beneath => format!("aggregate after the {beneath} pending beneath it\n{plan}"),
            },
            None => plan,
        }
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
    /// running `body` on the planned root. Aggregates still pending under
    /// `root` run first, so the plan holds their values as constants.
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
                rt.resolve_under(root)?;
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
                rt.resolve_under(id)?;
                let len = rt.graph.shape(id).len();
                let vec = materialize(rt.compile(id, len)?, &rt.ctx, None)?;
                vec.flush()?;
                rt.materialized.insert(id, vec.clone());
                Ok(vec)
            },
        )
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

    // ================= deferred scalars =================

    /// How many nodes one batch of aggregates may span: its tape keeps at
    /// most one chunk register per distinct node, and that many registers
    /// must fit the memory budget the kernels already work within — a
    /// function of shapes and budget only, never of threads or timing.
    fn batch_budget(&self) -> usize {
        self.mem_elems() / self.chunk()
    }

    /// Scalar-shaped node `id` was just built: an aggregate is registered
    /// as pending, and nothing runs. Two bounds keep that safe in a long
    /// loop that never looks (`acc <- acc + sum(...)`, k-means rounds
    /// feeding each other). A scalar over a DAG deeper than
    /// [`PENDING_DEPTH`] is observed here and now, so everything built
    /// over it starts from a constant again. And the registry holds no
    /// more aggregates than the memory budget holds elements: a full one
    /// forgets its oldest entry, which then runs by itself if it is ever
    /// needed — and computes nothing for a value nobody holds any more.
    pub(super) fn defer(&mut self, id: NodeId) -> ExecResult<()> {
        if self.graph.depth(id) > PENDING_DEPTH {
            return self.scalar_value(id).map(drop);
        }
        match *self.graph.node(id) {
            Node::Agg(_, [input]) if !self.pending.contains_key(&id) => {
                while self.pending.len() >= self.mem_elems().max(1) {
                    self.pending.pop_first();
                }
                self.pending.insert(id, self.footprint(input));
            }
            _ => {}
        }
        Ok(())
    }

    /// Read off the DAG under `input` what batching needs to know.
    fn footprint(&self, input: NodeId) -> Pending {
        let len = self.graph.shape(input).len();
        let mut entry = Pending {
            len,
            ..Pending::default()
        };
        let (mut seen, mut stack) = (HashSet::new(), vec![(input, true)]);
        while let Some((id, lockstep)) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            let node = self.graph.node(id);
            if matches!(node, Node::Agg(..)) {
                entry.nested.push(id);
                continue;
            }
            // Scalars and recycled operands never become a register of
            // the batch's tape, and neither does anything under a leaf.
            let lockstep = lockstep && self.graph.shape(id) == Shape::Vector(len);
            let pulled = lockstep
                && (self.materialized.contains_key(&id)
                    || matches!(
                        node,
                        Node::VecSource { .. } | Node::Gather(_) | Node::SubAssign(_)
                    ));
            if lockstep {
                entry.nodes.push(id);
            }
            if pulled {
                entry.leaves.push(id);
            }
            let below = lockstep && !pulled;
            stack.extend(node.children().iter().map(|&child| (child, below)));
        }
        entry
    }

    /// The value of scalar-shaped node `id`: an **observation**. Every
    /// aggregate under it that has no value yet runs now, each with its
    /// batch; the value then replaces the node, so DAGs built over it from
    /// here on read a constant.
    pub(super) fn scalar_value(&mut self, id: NodeId) -> ExecResult<f64> {
        if matches!(self.graph.node(id), Node::Agg(..)) {
            self.resolve(id)?;
        } else {
            self.resolve_under(id)?;
        }
        let value = match *self.graph.node(id) {
            Node::Scalar(value) => value,
            // Scalar arithmetic folds in the tape builder.
            _ => self.drain(id, 1, "pipeline.collect.chunk")?[0],
        };
        self.settle(id, value);
        Ok(value)
    }

    /// `id` has its value: the node becomes the constant, for good.
    fn settle(&mut self, id: NodeId, value: f64) {
        self.graph.settle(id, value);
        self.pending.remove(&id);
    }

    /// Give every aggregate under `root` its value — what a forcing point
    /// does before it plans, so no tape meets an aggregate that is still
    /// pending. Stored results are not looked under (nothing below them
    /// runs again), and neither are matrices (no scalar feeds one). With
    /// nothing registered there is nothing to look for: an aggregate the
    /// registry forgot runs by itself where a tape meets it.
    pub(super) fn resolve_under(&mut self, root: NodeId) -> ExecResult<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let (mut seen, mut stack) = (HashSet::new(), vec![root]);
        while let Some(id) = stack.pop() {
            let skip = matches!(self.graph.shape(id), Shape::Matrix(..))
                || self.materialized.contains_key(&id);
            if skip || !seen.insert(id) {
                continue;
            }
            if matches!(self.graph.node(id), Node::Agg(..)) {
                self.resolve(id)?;
            } else {
                stack.extend(self.graph.node(id).children());
            }
        }
        Ok(())
    }

    /// Run pending aggregate `agg` — **one batch per observation**: first
    /// the aggregates beneath its input (each a batch of its own), then
    /// `agg` in one pass with every other pending aggregate that
    /// [`Runtime::batch_of`] lets ride along. Each member is planned as a
    /// forcing point of its own would plan it (hash-consing keeps what the
    /// rewritten members share shared); all of them get their values, or —
    /// an abort — none does, and all stay pending.
    pub(super) fn resolve(&mut self, agg: NodeId) -> ExecResult<()> {
        let Node::Agg(_, [input]) = *self.graph.node(agg) else {
            return Ok(()); // has its value already
        };
        let me = match self.pending.get(&agg) {
            Some(entry) => entry.clone(),
            None => self.footprint(input),
        };
        for &inner in &me.nested {
            self.resolve(inner)?;
        }
        let batch = self.batch_of(agg, &me);
        let values = self.span(
            "aggregate",
            |rt| rt.batch_detail(&batch, &me),
            |rt| {
                let (mut sinks, mut riders, mut values) = (Vec::new(), Vec::new(), Vec::new());
                for &member in &batch {
                    let root = rt.plan_root(member);
                    match *rt.graph.node(root) {
                        Node::Agg(op, [input]) => {
                            sinks.push((op, input));
                            riders.push(member);
                        }
                        Node::Scalar(known) => values.push((member, known)),
                        _ => unreachable!("an aggregate plans to an aggregate, or onto its value"),
                    }
                }
                let rode = batch.len() as u64 - 1;
                rt.last_opt_stats.aggregates_batched += rode;
                if rode > 0 {
                    let rule = "aggregates_batched";
                    let tracer = rt.ctx.tracer();
                    tracer.record(EventKind::Rewrite { rule, count: rode });
                }
                values.extend(riders.into_iter().zip(rt.aggregate_batch(&sinks)?));
                Ok(values)
            },
        )?;
        for (member, value) in values {
            self.settle(member, value);
        }
        Ok(())
    }

    /// The batch `agg` runs with: itself, then — oldest first — every
    /// other pending aggregate whose input has the same length, pulls at
    /// least one of the leaves `agg`'s input reads storage through, and
    /// has no pending aggregate beneath it, for as long as the batch stays
    /// within [`Runtime::batch_budget`].
    fn batch_of(&self, agg: NodeId, me: &Pending) -> Vec<NodeId> {
        let mut nodes: HashSet<NodeId> = me.nodes.iter().copied().collect();
        let mut batch = vec![agg];
        for (&id, other) in &self.pending {
            let has_value = |n: &NodeId| matches!(self.graph.node(*n), Node::Scalar(_));
            let rides = id != agg
                && other.len == me.len
                && other.leaves.iter().any(|leaf| me.leaves.contains(leaf))
                && other.nested.iter().all(has_value);
            let grown = || nodes.len() + other.nodes.iter().filter(|n| !nodes.contains(n)).count();
            if rides && grown() <= self.batch_budget() {
                nodes.extend(&other.nodes);
                batch.push(id);
            }
        }
        batch
    }

    /// Span detail of a batch: how many aggregates, which, and the leaves
    /// the observed one reads storage through.
    fn batch_detail(&self, batch: &[NodeId], me: &Pending) -> String {
        let ops = batch.iter().filter_map(|&id| match self.graph.node(id) {
            Node::Agg(op, _) => Some(op.name()),
            _ => None,
        });
        let ops: Vec<&str> = ops.collect();
        let leaves: Vec<String> = me.leaves.iter().map(|&l| self.graph.render(l)).collect();
        let detail = format!("×{}: {} | {}", batch.len(), ops.join(" "), leaves.join(" "));
        super::clipped(detail)
    }
}
