//! Golden-file EXPLAIN for the ridge corpus workload: the optimized
//! logical plan for `beta <- solve(crossprod(x), crossprod(x, y))` as the
//! R front end sees it, pinned to a committed file. This is the
//! script-level companion of the core `explain_solve_golden` test — it
//! proves the normal-equations rewrite (Gram-certified Cholesky solve, no
//! inverse ever materialized) fires inside a *real corpus script*, not
//! just when the plan is built by hand against the session API.
//!
//! Regenerate after an intentional plan change with:
//! `RIOT_UPDATE_GOLDEN=1 cargo test -p riot-bench --test corpus_explain_golden`

use riot_bench::corpus::{self, bind_inputs, Cell};
use riot_core::EngineKind;
use riot_rlang::Interpreter;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/ridge_explain.txt"
);

/// The ridge interpreter under the fixed golden configuration: Riot
/// engine, "test" profile sizes, single-threaded, no prefetch — the same
/// deterministic cell the corpus gate pins budgets for.
fn ridge_interp() -> (Interpreter, &'static str) {
    let w = corpus::workload("ridge");
    let profile = w.manifest.profile("test").expect("test profile");
    let cell = Cell {
        engine: EngineKind::Riot,
        threads: 1,
        prefetch: 0,
    };
    let mut interp = Interpreter::new(corpus::session_config(profile, cell));
    bind_inputs(&mut interp, &corpus::inputs(w.name, profile), false);
    (interp, w.script)
}

/// The ridge script with output statements stripped and an
/// `explain(beta)` appended: assignments stay deferred, so the explain
/// renders the full optimized plan for the solve.
fn explain_script(script: &str) -> String {
    let mut out = String::new();
    for line in script.lines() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with("print(") {
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    out.push_str("explain(beta)\n");
    out
}

#[test]
fn ridge_explain_matches_golden() {
    let (mut interp, script) = ridge_interp();
    let src = explain_script(script);
    let got = interp.run(&src).expect("explain script runs");

    // EXPLAIN forces nothing, so it leaves the statistics of the last
    // forcing point alone. Forcing the explained value runs the plan just
    // rendered, and the rewrite must fire there.
    interp
        .run("print(beta)\n")
        .expect("the explained plan runs");
    let stats = interp.session().last_opt_stats();
    assert!(
        stats.normal_eq_solves >= 1,
        "normal-equations rewrite did not fire for the ridge script (stats: {stats:?})"
    );

    if std::env::var_os("RIOT_UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing; run with RIOT_UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        got, want,
        "ridge EXPLAIN drifted from {GOLDEN}; if intentional, regenerate \
         with RIOT_UPDATE_GOLDEN=1"
    );
}

#[test]
fn ridge_script_execution_fires_normal_equations_rewrite() {
    // Run the real script up to and including `print(beta)` — the print
    // is the forcing point, so the optimizer stats it leaves behind are
    // those of the actual corpus execution path, not of an explain.
    let (mut interp, script) = ridge_interp();
    let end = script.find("print(beta)").expect("ridge.R prints beta") + "print(beta)".len();
    interp.run(&script[..end]).expect("ridge prefix runs");
    let stats = interp.session().last_opt_stats();
    assert!(
        stats.normal_eq_solves >= 1,
        "normal-equations rewrite did not fire executing ridge.R (stats: {stats:?})"
    );
}
