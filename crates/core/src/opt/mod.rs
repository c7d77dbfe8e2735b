//! The RIOT optimizer: rewrite rules plus matrix-chain reordering.
//!
//! [`optimize`] is the single entry point engines call at a forcing point
//! (`print`, collection): it rewrites the DAG (subscript pushdown, masked
//! updates to conditionals, folding — see [`rules`]) and then reassociates
//! matrix-multiplication chains by dynamic programming (see [`chain`]),
//! exactly the two optimization levels §5 describes.

pub mod chain;
pub mod rules;

use std::collections::HashMap;

pub use chain::{all_orders, optimal_order, ChainPlan};
pub use rules::{rewrite, OptConfig, RewriteStats};

use crate::cost::ChainTree;
use crate::expr::{Node, NodeId};
use crate::graph::ExprGraph;
use crate::shape::Shape;

/// Optimize the DAG rooted at `root`; returns the new root and statistics.
pub fn optimize(g: &mut ExprGraph, root: NodeId, cfg: &OptConfig) -> (NodeId, RewriteStats) {
    let mut stats = RewriteStats::default();
    let mut out = rewrite(g, root, cfg, &mut stats);
    if cfg.reorder_chains {
        let mut memo = HashMap::new();
        out = reorder(g, out, &mut stats, &mut memo);
    }
    (out, stats)
}

/// Recursively reassociate every maximal `MatMul` chain below `id`.
fn reorder(
    g: &mut ExprGraph,
    id: NodeId,
    stats: &mut RewriteStats,
    memo: &mut HashMap<NodeId, NodeId>,
) -> NodeId {
    if let Some(&r) = memo.get(&id) {
        return r;
    }
    let out = if matches!(g.node(id), Node::MatMul(_)) {
        // Flatten the maximal chain of MatMuls rooted here, recursing
        // inside the leaves (they may contain further chains, e.g. under
        // a Transpose).
        let mut leaves = Vec::new();
        flatten_chain(g, id, &mut leaves);
        for leaf in &mut leaves {
            *leaf = reorder(g, *leaf, stats, memo);
        }
        let tree = if leaves.len() <= 2 {
            ChainTree::in_order(leaves.len())
        } else {
            let mut dims = Vec::with_capacity(leaves.len() + 1);
            for &l in &leaves {
                let Shape::Matrix(r, c) = g.shape(l) else {
                    unreachable!("matmul leaves are matrices");
                };
                if dims.is_empty() {
                    dims.push(r);
                }
                dims.push(c);
            }
            stats.chains_reordered += 1;
            chain::optimal_order(&dims).tree
        };
        build_tree(g, &tree, &leaves)
    } else if g.node(id).is_leaf() {
        id
    } else {
        let node = g.map_children(id, |g, child| reorder(g, child, stats, memo));
        g.rebuilt(node)
    };
    memo.insert(id, out);
    out
}

/// Collect the operand leaves of the maximal MatMul subtree at `id`.
fn flatten_chain(g: &ExprGraph, id: NodeId, leaves: &mut Vec<NodeId>) {
    match *g.node(id) {
        Node::MatMul([lhs, rhs]) => {
            flatten_chain(g, lhs, leaves);
            flatten_chain(g, rhs, leaves);
        }
        _ => leaves.push(id),
    }
}

fn build_tree(g: &mut ExprGraph, tree: &ChainTree, leaves: &[NodeId]) -> NodeId {
    match tree {
        ChainTree::Leaf(i) => leaves[*i],
        ChainTree::Mul(l, r) => {
            let children = [build_tree(g, l, leaves), build_tree(g, r, leaves)];
            g.rebuilt(Node::MatMul(children))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate, MemSources};
    use crate::expr::AggOp;

    #[test]
    fn chain_of_three_reorders_under_skew() {
        let mut g = ExprGraph::new();
        let mut src = MemSources::new();
        // A: 8x2, B: 2x8, C: 8x8 -> optimal is A(BC).
        let a_ref = src.add_matrix(8, 2, (0..16).map(|i| i as f64).collect());
        let b_ref = src.add_matrix(2, 8, (0..16).map(|i| (i as f64) * 0.5).collect());
        let c_ref = src.add_matrix(8, 8, (0..64).map(|i| (i % 7) as f64).collect());
        let a = g.mat_source(a_ref, 8, 2);
        let b = g.mat_source(b_ref, 2, 8);
        let c = g.mat_source(c_ref, 8, 8);
        let ab = g.matmul(a, b).unwrap();
        let abc = g.matmul(ab, c).unwrap();

        let want = evaluate(&g, abc, &src).unwrap();
        let (opt, stats) = optimize(&mut g, abc, &OptConfig::default());
        assert_eq!(stats.chains_reordered, 1);
        // New root multiplies A by (BC): its rhs is a MatMul.
        let Node::MatMul([lhs, rhs]) = *g.node(opt) else {
            panic!("root must stay a matmul")
        };
        assert!(matches!(g.node(lhs), Node::MatSource { .. }));
        assert!(matches!(g.node(rhs), Node::MatMul(_)));
        assert_eq!(evaluate(&g, opt, &src).unwrap(), want);
    }

    #[test]
    fn reordering_respects_disable_flag() {
        let mut g = ExprGraph::new();
        let a = g.mat_source(crate::expr::SourceRef(0), 8, 2);
        let b = g.mat_source(crate::expr::SourceRef(1), 2, 8);
        let c = g.mat_source(crate::expr::SourceRef(2), 8, 8);
        let ab = g.matmul(a, b).unwrap();
        let abc = g.matmul(ab, c).unwrap();
        let cfg = OptConfig {
            reorder_chains: false,
            ..OptConfig::default()
        };
        let (opt, stats) = optimize(&mut g, abc, &cfg);
        assert_eq!(stats.chains_reordered, 0);
        let Node::MatMul([lhs, _]) = *g.node(opt) else {
            panic!()
        };
        assert!(matches!(g.node(lhs), Node::MatMul(_)), "stays left-deep");
    }

    #[test]
    fn chains_inside_other_operators_are_found() {
        let mut g = ExprGraph::new();
        let mut src = MemSources::new();
        let a_ref = src.add_matrix(4, 1, vec![1.0, 2.0, 3.0, 4.0]);
        let b_ref = src.add_matrix(1, 4, vec![1.0, 1.0, 1.0, 1.0]);
        let c_ref = src.add_matrix(4, 4, (0..16).map(|i| i as f64).collect());
        let a = g.mat_source(a_ref, 4, 1);
        let b = g.mat_source(b_ref, 1, 4);
        let c = g.mat_source(c_ref, 4, 4);
        let ab = g.matmul(a, b).unwrap();
        let abc = g.matmul(ab, c).unwrap();
        let total = g.agg(AggOp::Sum, abc);
        let want = evaluate(&g, total, &src).unwrap();
        let (opt, stats) = optimize(&mut g, total, &OptConfig::default());
        assert_eq!(stats.chains_reordered, 1);
        assert_eq!(evaluate(&g, opt, &src).unwrap(), want);
    }

    #[test]
    fn longer_chain_optimal_order() {
        let mut g = ExprGraph::new();
        // 4 matrices with strongly skewed dims.
        let dims = [30usize, 1, 40, 1, 30];
        let mats: Vec<NodeId> = (0..4)
            .map(|i| g.mat_source(crate::expr::SourceRef(i as u32), dims[i], dims[i + 1]))
            .collect();
        let mut chain = mats[0];
        for &m in &mats[1..] {
            chain = g.matmul(chain, m).unwrap();
        }
        let (opt, _) = optimize(&mut g, chain, &OptConfig::default());
        // Verify the rebuilt tree's flops equal the DP optimum.
        let plan = optimal_order(&dims);
        let mut leaves = Vec::new();
        flatten_chain(&g, opt, &mut leaves);
        assert_eq!(leaves.len(), 4);
        // Reconstruct the tree shape from the graph and compare flops.
        fn tree_of(g: &ExprGraph, id: NodeId, leaves: &[NodeId]) -> crate::cost::ChainTree {
            if let Some(pos) = leaves.iter().position(|&l| l == id) {
                return crate::cost::ChainTree::Leaf(pos);
            }
            let Node::MatMul([lhs, rhs]) = *g.node(id) else {
                panic!("unexpected node in chain")
            };
            crate::cost::ChainTree::Mul(
                Box::new(tree_of(g, lhs, leaves)),
                Box::new(tree_of(g, rhs, leaves)),
            )
        }
        let rebuilt = tree_of(&g, opt, &leaves);
        assert_eq!(rebuilt.flops(&dims), plan.flops);
    }
}
