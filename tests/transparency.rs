//! The transparency acceptance test: the paper's R code, *verbatim*, runs
//! under all four engines through the riot-rlang interpreter and produces
//! identical output — while full RIOT does orders of magnitude less I/O.

use riot::{EngineConfig, EngineKind, Interpreter};

/// Example 1 exactly as printed in §3 of the paper.
const EXAMPLE_1: &str = "\
d <- sqrt((x-xs)^2+(y-ys)^2) + sqrt((x-xe)^2+(y-ye)^2)
s <- sample(length(x),100) # draw 100 samples from 1:n
z <- d[s] # extract elements of d whose indices are in s
print(z)";

/// The §5 fragment behind Figure 2.
const FIGURE_2: &str = "\
b <- a^2; b[b>100] <- 100; print(b[1:10])";

fn interpreter(kind: EngineKind, n: usize) -> Interpreter {
    let mut cfg = EngineConfig::new(kind);
    cfg.block_size = 512;
    cfg.chunk_elems = 64;
    cfg.mem_blocks = (n / 64) / 2; // cap at half an input vector
    let mut interp = Interpreter::new(cfg);
    interp
        .bind_vector("x", n, |i| (i as f64 * 0.01).sin() * 40.0)
        .unwrap();
    interp
        .bind_vector("y", n, |i| (i as f64 * 0.01).cos() * 40.0)
        .unwrap();
    interp
        .bind_vector("a", n, |i| (i % 500) as f64 * 0.5)
        .unwrap();
    for (name, v) in [("xs", 0.0), ("ys", 0.0), ("xe", 30.0), ("ye", 40.0)] {
        interp.bind_scalar(name, v);
    }
    interp
}

#[test]
fn verbatim_paper_code_agrees_across_engines() {
    let n = 1 << 13;
    let mut outputs = Vec::new();
    for kind in EngineKind::all() {
        let mut interp = interpreter(kind, n);
        let out1 = interp.run(EXAMPLE_1).unwrap();
        let out2 = interp.run(FIGURE_2).unwrap();
        outputs.push((kind, out1, out2));
    }
    for pair in outputs.windows(2) {
        assert_eq!(pair[0].1, pair[1].1, "{:?} vs {:?}", pair[0].0, pair[1].0);
        assert_eq!(pair[0].2, pair[1].2, "{:?} vs {:?}", pair[0].0, pair[1].0);
    }
    // Sanity: z printed 100 values (13 lines of <=8).
    assert_eq!(outputs[0].1.lines().count(), 13);
}

#[test]
fn same_script_io_differs_by_orders_of_magnitude() {
    let n = 1 << 14;
    let mut blocks = std::collections::HashMap::new();
    for kind in EngineKind::all() {
        let mut interp = interpreter(kind, n);
        interp.session().drop_caches().unwrap();
        let before = interp.session().io_snapshot();
        interp.run(EXAMPLE_1).unwrap();
        let io = interp.session().io_snapshot() - before;
        blocks.insert(kind, io.total_blocks());
    }
    let riot = blocks[&EngineKind::Riot];
    let plain = blocks[&EngineKind::PlainR];
    let strawman = blocks[&EngineKind::Strawman];
    assert!(plain > 10 * riot.max(1), "plain {plain} vs riot {riot}");
    assert!(
        strawman > plain,
        "strawman {strawman} must exceed plain R {plain}"
    );
}

#[test]
fn interpreter_aggregate_pipelines_without_materializing() {
    // sum(big expression) under Riot must not write anything.
    let n = 1 << 14;
    let mut interp = interpreter(EngineKind::Riot, n);
    interp.session().drop_caches().unwrap();
    let before = interp.session().io_snapshot();
    let out = interp
        .run("total <- sum(sqrt((x-xs)^2+(y-ys)^2))\nprint(total > 0)")
        .unwrap();
    assert_eq!(out.trim(), "[1] 1");
    let io = interp.session().io_snapshot() - before;
    assert_eq!(io.writes, 0, "aggregation must stream, not materialize");
    // Reads: exactly one pass over x and y (plus nothing else).
    let expected_scan = 2 * (n as u64 / 64);
    assert!(
        io.reads <= expected_scan + 4,
        "one pass expected: {} vs {expected_scan}",
        io.reads
    );
}

#[test]
fn sql_views_render_for_the_deferred_script() {
    // RIOT-DB fidelity: after running the deferred statements, the session
    // can print the view text of §4.1 for the named objects.
    let n = 256;
    let mut interp = interpreter(EngineKind::Riot, n);
    interp.run("d <- sqrt((x-xs)^2+(y-ys)^2)").unwrap();
    let Some(riot::rlang::RValue::Vector { v, .. }) = interp.get("d") else {
        panic!("d must be a deferred vector");
    };
    let sql = interp.session().sql_view(v, "D");
    assert!(sql.starts_with("CREATE VIEW D(I,V) AS"));
    assert!(sql.contains("SQRT("));
    assert!(sql.contains("POW("));
}

/// How a script fails, by name: the variant of its execution error, or
/// `"Runtime"` for an error the interpreter itself raises.
fn error_variant(script: &str, kind: EngineKind) -> &'static str {
    use riot::core::exec::ExecError;
    use riot::core::ExprError;
    let mut interp = interpreter(kind, 1 << 10);
    match interp.run(script) {
        Err(riot::rlang::RError::Exec(e)) => match e {
            ExecError::Expr(ExprError::IndexOutOfBounds { .. }) => "IndexOutOfBounds",
            ExecError::Expr(ExprError::MatMulDims { .. }) => "MatMulDims",
            ExecError::Expr(ExprError::ShapeMismatch { .. }) => "ShapeMismatch",
            ExecError::Expr(ExprError::Expected { .. }) => "Expected",
            ExecError::BudgetExceeded { .. } => "BudgetExceeded",
            ExecError::Unsupported(_) => "Unsupported",
            other => panic!("{kind:?}: `{script}` failed with an unexpected error: {other}"),
        },
        Err(riot::rlang::RError::Runtime(_)) => "Runtime",
        other => panic!("{kind:?}: `{script}` must fail with an error, got {other:?}"),
    }
}

#[test]
fn script_errors_have_the_same_variant_under_every_engine() {
    // Each script ends in a print: the eager engines fail at the
    // operator, the deferred ones at the forcing point.
    let cases = [
        ("s <- sample(3, 5); print(s)", "Unsupported"),
        ("r <- 5:1; print(r)", "Unsupported"),
        (
            "m <- matrix(1:6, nrow = 2, ncol = 3); p <- m %*% m; print(p)",
            "MatMulDims",
        ),
        ("z <- x[0]; print(z)", "IndexOutOfBounds"),
        ("z <- x[length(x) + 1]; print(z)", "IndexOutOfBounds"),
        ("x[0] <- 1; print(x)", "IndexOutOfBounds"),
        ("x[length(x) + 1] <- 1; print(x)", "IndexOutOfBounds"),
        // Subscripts of a sequence keep their bounds check, directly and
        // through pushdown.
        ("r <- 1:10; print(r[11])", "IndexOutOfBounds"),
        ("r <- 1:10; print(r[0])", "IndexOutOfBounds"),
        ("r <- 1:10; print(r[-1])", "IndexOutOfBounds"),
        ("r <- 1:10; y <- r * 2; print(y[11])", "IndexOutOfBounds"),
        // One shape rule: recycling needs the shorter length to divide
        // the longer, whichever engine holds the operands.
        ("r <- 1:10; y <- 1:3; print(r + y)", "ShapeMismatch"),
        ("r <- 1:10; print(pmin(r, 1:3))", "ShapeMismatch"),
        ("r <- 1:10; print(ifelse(r > 5, 1:3, 0))", "ShapeMismatch"),
        (
            "r <- 1:10; r[c(1, 2)] <- c(1, 2, 3); print(r)",
            "ShapeMismatch",
        ),
        // The value recycles to the index, never the index to the value.
        (
            "r <- c(1, 2, 3, 4, 5); r[c(1, 2)] <- c(1, 2, 3, 4); print(r)",
            "ShapeMismatch",
        ),
        (
            "print(solve(matrix(1:4, nrow = 2), matrix(1:3, nrow = 3)))",
            "MatMulDims",
        ),
        ("print(chol(matrix(1:6, nrow = 2)))", "Expected"),
        // Arguments that used to panic inside a builtin.
        ("m <- matrix(1:6, nrow = 0)", "Runtime"),
        ("m <- matrix(1:6, ncol = 0)", "Runtime"),
        ("m <- matrix(c(), nrow = 2)", "Runtime"),
        ("u <- runif(3, 5, 1)", "Runtime"),
    ];
    for (script, want) in cases {
        for kind in EngineKind::all() {
            assert_eq!(error_variant(script, kind), want, "{kind:?}: `{script}`");
        }
    }
}

#[test]
fn edge_case_scripts_print_the_same_under_every_engine() {
    let cases = [
        ("r <- 1:10; print(r[c(2.7, 3.2)])", "[1] 2 3\n"),
        ("r <- 1:10; y <- r * 2; print(y[1.5])", "[1] 2\n"),
        ("print(seq_len(0))", "numeric(0)\n"),
        // A scalar broadcasts against anything, the empty vector included.
        ("print(seq_len(0) + 1)", "numeric(0)\n"),
        ("print(seq_len(0) * 2)", "numeric(0)\n"),
        ("print(pmin(seq_len(0), 1))", "numeric(0)\n"),
        ("print(sum(seq_len(0)))", "[1] 0\n"),
        (
            "r <- 1:6; r[c(1, 2, 3, 4)] <- c(8, 9); print(r)",
            "[1] 8 9 8 9 5 6\n",
        ),
        ("print(head(x, 0))", "numeric(0)\n"),
        ("print(length(seq_len(3)))", "[1] 3\n"),
        ("print(runif(2, 4, 4))", "[1] 4 4\n"),
    ];
    for (script, want) in cases {
        for kind in EngineKind::all() {
            let out = interpreter(kind, 1 << 10).run(script);
            assert_eq!(out.unwrap(), want, "{kind:?}: `{script}`");
        }
    }
}

#[test]
fn a_range_longer_than_memory_meets_the_temp_budget_not_the_allocator() {
    // An engine that stores `1:1e12` is refused by the governor before it
    // allocates anything; only Riot, which never stores it, accepts.
    let script = "riot.limits(max_temp_blocks = 1000); r <- 1:1000000000000";
    for kind in [
        EngineKind::PlainR,
        EngineKind::Strawman,
        EngineKind::MatNamed,
    ] {
        assert_eq!(error_variant(script, kind), "BudgetExceeded", "{kind:?}");
    }
    interpreter(EngineKind::Riot, 1 << 10).run(script).unwrap();
}
