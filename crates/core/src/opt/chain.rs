//! Matrix-chain multiplication ordering by dynamic programming (§5,
//! "Reordering Computation").
//!
//! R evaluates `A %*% B %*% C` in program order; RIOT exploits
//! associativity: the classic O(k³) DP finds the parenthesization with the
//! fewest scalar multiplications, and (per Appendix B) executing each
//! product with the square-tiled schedule then attains the chain's I/O
//! lower bound Θ(N / (B·√M)).

use crate::cost::ChainTree;

/// Result of chain optimization.
#[derive(Debug, Clone)]
pub struct ChainPlan {
    /// Optimal parenthesization.
    pub tree: ChainTree,
    /// Scalar multiplications under that order.
    pub flops: f64,
}

/// Find the multiplication order minimizing scalar multiplications for a
/// chain of `k = dims.len() - 1` matrices where matrix `i` is
/// `dims[i] x dims[i+1]`.
pub fn optimal_order(dims: &[usize]) -> ChainPlan {
    let k = dims.len() - 1;
    assert!(k >= 1, "chain needs at least one matrix");
    if k == 1 {
        return ChainPlan {
            tree: ChainTree::Leaf(0),
            flops: 0.0,
        };
    }
    // cost[i][j] = min flops to compute the product of matrices i..=j.
    let mut cost = vec![vec![0.0f64; k]; k];
    let mut split = vec![vec![0usize; k]; k];
    for span in 1..k {
        for i in 0..k - span {
            let j = i + span;
            let mut best = f64::INFINITY;
            let mut best_s = i;
            for s in i..j {
                let c = cost[i][s]
                    + cost[s + 1][j]
                    + (dims[i] as f64) * (dims[s + 1] as f64) * (dims[j + 1] as f64);
                if c < best {
                    best = c;
                    best_s = s;
                }
            }
            cost[i][j] = best;
            split[i][j] = best_s;
        }
    }
    ChainPlan {
        tree: build(&split, 0, k - 1),
        flops: cost[0][k - 1],
    }
}

fn build(split: &[Vec<usize>], i: usize, j: usize) -> ChainTree {
    if i == j {
        return ChainTree::Leaf(i);
    }
    let s = split[i][j];
    ChainTree::Mul(
        Box::new(build(split, i, s)),
        Box::new(build(split, s + 1, j)),
    )
}

/// Enumerate every parenthesization of `k` matrices (Catalan many) —
/// exponential, used only to verify the DP in tests.
pub fn all_orders(k: usize) -> Vec<ChainTree> {
    fn rec(i: usize, j: usize) -> Vec<ChainTree> {
        if i == j {
            return vec![ChainTree::Leaf(i)];
        }
        let mut out = Vec::new();
        for s in i..j {
            for l in rec(i, s) {
                for r in rec(s + 1, j) {
                    out.push(ChainTree::Mul(Box::new(l.clone()), Box::new(r)));
                }
            }
        }
        out
    }
    rec(0, k - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_matrix_is_a_leaf() {
        let plan = optimal_order(&[5, 7]);
        assert_eq!(plan.tree, ChainTree::Leaf(0));
        assert_eq!(plan.flops, 0.0);
    }

    #[test]
    fn textbook_example() {
        // CLRS example: dims 30x35, 35x15, 15x5, 5x10, 10x20, 20x25
        // optimal = 15125 multiplications.
        let dims = [30, 35, 15, 5, 10, 20, 25];
        let plan = optimal_order(&dims);
        assert_eq!(plan.flops, 15_125.0);
        assert_eq!(plan.tree.flops(&dims), 15_125.0);
    }

    #[test]
    fn paper_skew_example_picks_right_association() {
        // A(n x n/s) B(n/s x n) C(n x n) with s > 1: optimal is A(BC).
        let n = 1000;
        for s in [2, 4, 6, 8] {
            let dims = [n, n / s, n, n];
            let plan = optimal_order(&dims);
            assert_eq!(plan.tree.render(), "(A1 (A2 A3))", "s={s}");
        }
    }

    #[test]
    fn dp_matches_brute_force() {
        // Exhaustive check on assorted chains up to length 6.
        let cases: Vec<Vec<usize>> = vec![
            vec![2, 3, 4],
            vec![10, 1, 10, 1],
            vec![7, 3, 9, 2, 8],
            vec![4, 4, 4, 4, 4, 4],
            vec![100, 2, 50, 3, 75, 4],
            vec![1, 100, 1, 100, 1, 100, 1],
        ];
        for dims in cases {
            let plan = optimal_order(&dims);
            let brute = all_orders(dims.len() - 1)
                .into_iter()
                .map(|t| t.flops(&dims))
                .fold(f64::INFINITY, f64::min);
            assert_eq!(plan.flops, brute, "dims {dims:?}");
        }
    }

    #[test]
    fn catalan_counts() {
        assert_eq!(all_orders(1).len(), 1);
        assert_eq!(all_orders(2).len(), 1);
        assert_eq!(all_orders(3).len(), 2);
        assert_eq!(all_orders(4).len(), 5);
        assert_eq!(all_orders(5).len(), 14);
    }

    #[test]
    fn dp_never_worse_than_in_order() {
        let dims = [64, 32, 128, 16, 256, 8];
        let plan = optimal_order(&dims);
        let in_order = ChainTree::in_order(dims.len() - 1);
        assert!(plan.flops <= in_order.flops(&dims));
    }
}
