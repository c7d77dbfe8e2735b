//! Rendering expression DAGs as the SQL views RIOT-DB builds (§4.1).
//!
//! RIOT-DB maps every deferred object to a `CREATE VIEW` whose definition
//! encapsulates the computation; complex R expressions become nested
//! SELECTs the database optimizer can pipeline. The next-generation RIOT
//! replaces views with the native expression algebra, but the rendering is
//! kept (a) as documentation of the correspondence and (b) so tests can
//! assert the construction matches the paper's examples, e.g. adding two
//! dbvectors:
//!
//! ```sql
//! CREATE VIEW E3(I,V) AS
//! SELECT E1.I, E1.V+E2.V FROM E1, E2 WHERE E1.I=E2.I
//! ```

use std::collections::HashMap;

use crate::expr::{BinOp, Node, NodeId};
use crate::graph::ExprGraph;

/// Render the expression rooted at `root` as a single (possibly deeply
/// nested) `CREATE VIEW` statement over base tables `V<source>(I,V)`.
///
/// Every intermediate view is expanded inline, which is exactly what the
/// database does when a query over a view is evaluated.
pub fn render_view(g: &ExprGraph, root: NodeId, view_name: &str) -> String {
    let mut namer = Namer::default();
    let body = select_of(g, root, &mut namer);
    format!("CREATE VIEW {view_name}(I,V) AS\n{body}")
}

/// Render the full set of named views for a program: one `CREATE VIEW` per
/// named object, in dependency order, each referencing base tables or
/// previously defined views — the incremental construction of §4.1.
pub fn render_program(g: &ExprGraph, named: &[(String, NodeId)]) -> String {
    let mut out = String::new();
    let mut namer = Namer::default();
    let mut bound: HashMap<NodeId, String> = HashMap::new();
    for (name, node) in named {
        let body = select_with_bindings(g, *node, &mut namer, &bound);
        out.push_str(&format!("CREATE VIEW {name}(I,V) AS\n{body};\n\n"));
        bound.insert(*node, name.clone());
    }
    out
}

#[derive(Default)]
struct Namer {
    next: u32,
}

impl Namer {
    fn fresh(&mut self, prefix: &str) -> String {
        self.next += 1;
        format!("{}{}", prefix, self.next)
    }
}

fn select_of(g: &ExprGraph, id: NodeId, namer: &mut Namer) -> String {
    select_with_bindings(g, id, namer, &HashMap::new())
}

/// Produce a SELECT returning columns (I, V) for node `id`.
fn select_with_bindings(
    g: &ExprGraph,
    id: NodeId,
    namer: &mut Namer,
    bound: &HashMap<NodeId, String>,
) -> String {
    if let Some(view) = bound.get(&id) {
        return format!("SELECT I, V FROM {view}");
    }
    match g.node(id) {
        Node::VecSource { source, .. } => {
            format!("SELECT I, V FROM V{}", source.0)
        }
        Node::MatSource { source, .. } => {
            // Matrices use schema (I, J, V); rendered flattened for the
            // vector-oriented view API.
            format!("SELECT I, J, V FROM M{}", source.0)
        }
        Node::SpMatSource { source, .. } => {
            // Sparse matrices ARE the relational (I, J, V) encoding — the
            // strawman stores only present cells; the native format keeps
            // that sparsity without paying the per-cell index columns.
            format!("SELECT I, J, V FROM S{}", source.0)
        }
        // Representation changes are invisible at the relational level.
        Node::Densify([input]) | Node::Sparsify([input]) => {
            select_with_bindings(g, *input, namer, bound)
        }
        Node::Literal(values) => {
            let rows: Vec<String> = values
                .iter()
                .enumerate()
                .map(|(i, v)| format!("SELECT {} AS I, {v} AS V", i + 1))
                .collect();
            if rows.is_empty() {
                "SELECT 0 AS I, 0 AS V WHERE 1=0".to_string()
            } else {
                rows.join(" UNION ALL ")
            }
        }
        Node::Scalar(v) => format!("SELECT 1 AS I, {v} AS V"),
        Node::Range { start, len } => format!(
            "SELECT I, I + {} AS V FROM GENERATE_SERIES(1, {len}) AS G(I)",
            start - 1
        ),
        Node::Map(op, [input]) => {
            let t = namer.fresh("TMP");
            let inner = select_with_bindings(g, *input, namer, bound);
            format!(
                "SELECT {t}.I, {expr} AS V\nFROM ({inner}) {t}",
                expr = op.sql(&format!("{t}.V"))
            )
        }
        Node::Zip(op, [lhs, rhs]) => render_binary(g, *op, *lhs, *rhs, namer, bound),
        Node::IfElse([cond, yes, no]) => {
            let (tc, ty, tn) = (namer.fresh("TMP"), namer.fresh("TMP"), namer.fresh("TMP"));
            let c = select_with_bindings(g, *cond, namer, bound);
            let y = select_with_bindings(g, *yes, namer, bound);
            let n = select_with_bindings(g, *no, namer, bound);
            format!(
                "SELECT {tc}.I, CASE WHEN {tc}.V<>0 THEN {ty}.V ELSE {tn}.V END AS V\n\
                 FROM ({c}) {tc}, ({y}) {ty}, ({n}) {tn}\n\
                 WHERE {tc}.I={ty}.I AND {tc}.I={tn}.I"
            )
        }
        Node::Gather([data, index]) => {
            // "dereferencing a vector with a vector of indices translates
            // cleanly to a join between them" (§4.1):
            // SELECT S.I, D.V FROM D, S WHERE D.I = S.V
            let (td, ts) = (namer.fresh("TMP"), namer.fresh("TMP"));
            let d = select_with_bindings(g, *data, namer, bound);
            let s = select_with_bindings(g, *index, namer, bound);
            format!("SELECT {ts}.I, {td}.V\nFROM ({d}) {td}, ({s}) {ts}\nWHERE {td}.I={ts}.V")
        }
        Node::SubAssign([data, index, value]) | Node::MaskAssign([data, index, value]) => {
            let is_mask = matches!(g.node(id), Node::MaskAssign(_));
            let (td, ti, tv) = (namer.fresh("TMP"), namer.fresh("TMP"), namer.fresh("TMP"));
            let d = select_with_bindings(g, *data, namer, bound);
            let i = select_with_bindings(g, *index, namer, bound);
            let v = select_with_bindings(g, *value, namer, bound);
            if is_mask {
                format!(
                    "SELECT {td}.I, CASE WHEN {ti}.V<>0 THEN {tv}.V ELSE {td}.V END AS V\n\
                     FROM ({d}) {td}, ({i}) {ti}, ({v}) {tv}\n\
                     WHERE {td}.I={ti}.I AND {td}.I={tv}.I"
                )
            } else {
                format!(
                    "SELECT {td}.I, COALESCE({tv}.V, {td}.V) AS V\n\
                     FROM ({d}) {td} LEFT JOIN (({i}) {ti} JOIN ({v}) {tv} ON {ti}.I={tv}.I)\n\
                     ON {td}.I={ti}.V"
                )
            }
        }
        Node::MatMul([lhs, rhs]) => {
            // The paper's §4.1 matrix multiplication query:
            // SELECT A.I, B.J, SUM(A.V*B.V) FROM A, B WHERE A.J=B.I
            // GROUP BY A.I, B.J
            let (ta, tb) = (namer.fresh("TMP"), namer.fresh("TMP"));
            let a = select_with_bindings(g, *lhs, namer, bound);
            let b = select_with_bindings(g, *rhs, namer, bound);
            format!(
                "SELECT {ta}.I, {tb}.J, SUM({ta}.V*{tb}.V) AS V\n\
                 FROM ({a}) {ta}, ({b}) {tb}\nWHERE {ta}.J={tb}.I\nGROUP BY {ta}.I, {tb}.J"
            )
        }
        Node::Transpose([input]) | Node::SpTranspose([input]) => {
            let t = namer.fresh("TMP");
            let inner = select_with_bindings(g, *input, namer, bound);
            format!("SELECT {t}.J AS I, {t}.I AS J, {t}.V\nFROM ({inner}) {t}")
        }
        Node::Agg(op, [input]) => {
            let t = namer.fresh("TMP");
            let inner = select_with_bindings(g, *input, namer, bound);
            let agg = match op {
                crate::expr::AggOp::Sum => "SUM",
                crate::expr::AggOp::Mean => "AVG",
                crate::expr::AggOp::Min => "MIN",
                crate::expr::AggOp::Max => "MAX",
            };
            format!("SELECT 1 AS I, {agg}({t}.V) AS V\nFROM ({inner}) {t}")
        }
        // Factorizations have no single-query relational form — they are
        // the paper's motivating example of computation SQL cannot express
        // (an iterative kernel, not a join-aggregate). The view renders a
        // table function call so the plan stays inspectable.
        Node::Chol([input]) => {
            let t = namer.fresh("TMP");
            let inner = select_with_bindings(g, *input, namer, bound);
            format!("SELECT I, J, V FROM CHOL(TABLE ({inner}) {t})")
        }
        Node::Solve([lhs, rhs]) => {
            let (ta, tb) = (namer.fresh("TMP"), namer.fresh("TMP"));
            let a = select_with_bindings(g, *lhs, namer, bound);
            let b = select_with_bindings(g, *rhs, namer, bound);
            format!("SELECT I, J, V FROM SOLVE(TABLE ({a}) {ta}, TABLE ({b}) {tb})")
        }
    }
}

fn render_binary(
    g: &ExprGraph,
    op: BinOp,
    lhs: NodeId,
    rhs: NodeId,
    namer: &mut Namer,
    bound: &HashMap<NodeId, String>,
) -> String {
    use crate::shape::Shape;
    // Scalar operands inline into the expression instead of joining,
    // mirroring how RIOT-DB substitutes xs/ys values into view text.
    let lscalar = matches!(g.shape(lhs), Shape::Scalar);
    let rscalar = matches!(g.shape(rhs), Shape::Scalar);
    match (lscalar, rscalar) {
        (false, true) => {
            let t = namer.fresh("TMP");
            let rv = scalar_text(g, rhs);
            let inner = select_with_bindings(g, lhs, namer, bound);
            format!(
                "SELECT {t}.I, {expr} AS V\nFROM ({inner}) {t}",
                expr = op.sql(&format!("{t}.V"), &rv)
            )
        }
        (true, false) => {
            let t = namer.fresh("TMP");
            let lv = scalar_text(g, lhs);
            let inner = select_with_bindings(g, rhs, namer, bound);
            format!(
                "SELECT {t}.I, {expr} AS V\nFROM ({inner}) {t}",
                expr = op.sql(&lv, &format!("{t}.V"))
            )
        }
        _ => {
            let (t1, t2) = (namer.fresh("TMP"), namer.fresh("TMP"));
            let l = select_with_bindings(g, lhs, namer, bound);
            let r = select_with_bindings(g, rhs, namer, bound);
            format!(
                "SELECT {t1}.I, {expr} AS V\nFROM ({l}) {t1}, ({r}) {t2}\nWHERE {t1}.I={t2}.I",
                expr = op.sql(&format!("{t1}.V"), &format!("{t2}.V"))
            )
        }
    }
}

fn scalar_text(g: &ExprGraph, id: NodeId) -> String {
    match g.node(id) {
        Node::Scalar(v) => format!("{v}"),
        _ => "(scalar)".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{SourceRef, UnOp};

    #[test]
    fn vector_addition_matches_paper_shape() {
        // add_dbvectors: SELECT E1.I, E1.V+E2.V FROM E1, E2 WHERE E1.I=E2.I
        let mut g = ExprGraph::new();
        let e1 = g.vec_source(SourceRef(1), 8);
        let e2 = g.vec_source(SourceRef(2), 8);
        let sum = g.zip(BinOp::Add, e1, e2).unwrap();
        let sql = render_view(&g, sum, "E3");
        assert!(sql.starts_with("CREATE VIEW E3(I,V) AS"));
        assert!(sql.contains("TMP1.V+TMP2.V"), "sql:\n{sql}");
        assert!(sql.contains("WHERE TMP1.I=TMP2.I"), "sql:\n{sql}");
        assert!(sql.contains("FROM V1"), "sql:\n{sql}");
    }

    #[test]
    fn scalars_inline_like_the_paper() {
        // (x - xs)^2 with xs = 3: the paper substitutes actual values.
        let mut g = ExprGraph::new();
        let x = g.vec_source(SourceRef(0), 8);
        let xs = g.scalar(3.0);
        let d = g.zip(BinOp::Sub, x, xs).unwrap();
        let sq = g.map(UnOp::Square, d);
        let sql = render_view(&g, sq, "D");
        assert!(sql.contains("-3)"), "scalar inlined: \n{sql}");
        assert!(sql.contains("POW("), "square rendered as POW:\n{sql}");
    }

    #[test]
    fn gather_renders_as_join_on_index() {
        // Z: SELECT S.I, D.V FROM D, S WHERE D.I=S.V  (§4.1)
        let mut g = ExprGraph::new();
        let d = g.vec_source(SourceRef(0), 100);
        let s = g.literal(vec![5.0, 9.0]);
        let z = g.gather(d, s).unwrap();
        let sql = render_view(&g, z, "Z");
        assert!(sql.contains("WHERE TMP1.I=TMP2.V"), "join on value:\n{sql}");
    }

    #[test]
    fn matmul_renders_group_by_plan() {
        let mut g = ExprGraph::new();
        let a = g.mat_source(SourceRef(0), 4, 4);
        let b = g.mat_source(SourceRef(1), 4, 4);
        let ab = g.matmul(a, b).unwrap();
        let sql = render_view(&g, ab, "T");
        assert!(sql.contains("SUM(TMP1.V*TMP2.V)"), "{sql}");
        assert!(sql.contains("WHERE TMP1.J=TMP2.I"), "{sql}");
        assert!(sql.contains("GROUP BY TMP1.I, TMP2.J"), "{sql}");
    }

    #[test]
    fn named_views_reference_previous_views() {
        // d <- x + y; z <- d[s]: Z's view references D, not its expansion.
        let mut g = ExprGraph::new();
        let x = g.vec_source(SourceRef(0), 10);
        let y = g.vec_source(SourceRef(1), 10);
        let d = g.zip(BinOp::Add, x, y).unwrap();
        let s = g.literal(vec![3.0]);
        let z = g.gather(d, s).unwrap();
        let sql = render_program(&g, &[("D".to_string(), d), ("Z".to_string(), z)]);
        assert!(sql.contains("CREATE VIEW D(I,V)"));
        assert!(sql.contains("CREATE VIEW Z(I,V)"));
        // The Z view selects from D by name.
        let z_part = sql.split("CREATE VIEW Z").nth(1).unwrap();
        assert!(
            z_part.contains("FROM D"),
            "Z references the D view:\n{z_part}"
        );
    }

    #[test]
    fn nested_expression_expands_inline() {
        // sqrt((x-1)^2 + (y-2)^2): one deeply nested SELECT, like the
        // paper's expanded D view.
        let mut g = ExprGraph::new();
        let x = g.vec_source(SourceRef(0), 10);
        let y = g.vec_source(SourceRef(1), 10);
        let c1 = g.scalar(1.0);
        let c2 = g.scalar(2.0);
        let dx = g.zip(BinOp::Sub, x, c1).unwrap();
        let dy = g.zip(BinOp::Sub, y, c2).unwrap();
        let dx2 = g.map(UnOp::Square, dx);
        let dy2 = g.map(UnOp::Square, dy);
        let sum = g.zip(BinOp::Add, dx2, dy2).unwrap();
        let dist = g.map(UnOp::Sqrt, sum);
        let sql = render_view(&g, dist, "D");
        assert!(sql.contains("SQRT("));
        // Two nested POW sub-selects, joined on I.
        assert_eq!(sql.matches("POW(").count(), 2, "{sql}");
        assert!(sql.matches("SELECT").count() >= 5, "deep nesting:\n{sql}");
    }

    #[test]
    fn range_and_agg_render() {
        let mut g = ExprGraph::new();
        let r = g.range(5, 10);
        let s = g.agg(crate::expr::AggOp::Sum, r);
        let sql = render_view(&g, s, "S");
        assert!(sql.contains("GENERATE_SERIES(1, 10)"));
        assert!(sql.contains("SUM("));
    }
}
