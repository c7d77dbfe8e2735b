//! R scripts as lists of top-level statements, run whole (untraced pass)
//! or one statement at a time inside `Session::profile` with a
//! harness-side span around each (traced pass).

use std::collections::HashMap;
use std::time::Instant;

use riot::core::ProfileNode;
use riot::rlang::{self, ast::BinaryOp, Expr, Stmt};
use riot::trace::{EventKind, Tracer};
use riot::{Interpreter, QueryProfile, Session};

pub struct Script {
    stmts: Vec<String>,
    source: String,
}

/// One top-level statement as the harness saw it from outside, with what
/// `Session::profile` recorded inside it. The typed events are counted
/// and dropped at once: a miss-heavy statement records hundreds of
/// thousands, and keeping them would be the harness's memory, not the
/// engine's.
pub struct StmtSpan {
    pub text: String,
    /// Tracer-clock start, so harness and engine spans share a timeline.
    pub start_ns: u64,
    /// Harness-side wall time around `Session::profile`, drain included.
    pub wall_ns: u64,
    /// The engine's span tree; `root.dur_ns` is the statement alone.
    pub root: ProfileNode,
    /// Spans plus typed events recorded.
    pub events: u64,
    pub dropped: u64,
    /// Optimizer rewrite rules fired.
    pub rewrites: u64,
    pub retries: u64,
    pub corruptions: u64,
}

impl StmtSpan {
    fn new(text: &str, start_ns: u64, wall_ns: u64, profile: QueryProfile) -> StmtSpan {
        let (mut rewrites, mut retries, mut corruptions) = (0, 0, 0);
        for e in &profile.events {
            match e.kind {
                EventKind::Rewrite { count, .. } => rewrites += count,
                EventKind::RetryRead { .. } | EventKind::RetryWrite { .. } => retries += 1,
                EventKind::Corruption { .. } => corruptions += 1,
                _ => {}
            }
        }
        StmtSpan {
            text: text.trim_end().to_string(),
            start_ns,
            wall_ns,
            events: (profile.events.len() + profile.root.count() - 1) as u64,
            dropped: profile.dropped,
            root: profile.root,
            rewrites,
            retries,
            corruptions,
        }
    }
}

impl Script {
    /// Split `src` into top-level statements: a statement ends on the
    /// line where the brace depth returns to zero. (The benchmark's
    /// scripts keep braces out of strings and comments.)
    pub fn new(src: &str) -> Script {
        let mut stmts = Vec::new();
        let (mut cur, mut depth) = (String::new(), 0i32);
        for line in src.lines() {
            let code = line.split('#').next().unwrap_or("").trim_end();
            if code.trim().is_empty() {
                continue;
            }
            depth += code.matches('{').count() as i32 - code.matches('}').count() as i32;
            cur.push_str(code);
            cur.push('\n');
            if depth == 0 {
                stmts.push(std::mem::take(&mut cur));
            }
        }
        assert!(depth == 0 && cur.is_empty(), "unbalanced braces in script");
        let source = stmts.concat();
        Script { stmts, source }
    }

    /// Untraced: one `Interpreter::run` over the whole text.
    pub fn run(&self, interp: &mut Interpreter) -> Result<String, String> {
        interp.run(&self.source).map_err(|e| e.to_string())
    }

    /// Traced: each top-level statement runs inside its own
    /// `Session::profile` region (which also drains the event ring between
    /// statements, so one statement's misses cannot crowd out another's
    /// spans).
    pub fn run_traced(
        &self,
        interp: &mut Interpreter,
        session: &Session,
        tracer: &Tracer,
    ) -> Result<(String, Vec<StmtSpan>), String> {
        let mut out = String::new();
        let mut spans = Vec::with_capacity(self.stmts.len());
        for text in &self.stmts {
            let start_ns = tracer.now_ns();
            let t0 = Instant::now();
            let (res, profile) = session.profile(|| interp.run(text));
            let wall_ns = t0.elapsed().as_nanos() as u64;
            out.push_str(&res.map_err(|e| e.to_string())?);
            spans.push(StmtSpan::new(text, start_ns, wall_ns, profile));
        }
        Ok((out, spans))
    }

    /// Seconds `rlang::parse_program` takes on the whole text, and the
    /// number of statements the interpreter will execute (loops unrolled
    /// through `scalars`, the bound size parameters).
    pub fn parse_probe(&self, scalars: &HashMap<&str, f64>) -> Result<(f64, u64), String> {
        let t0 = Instant::now();
        let program = rlang::parse_program(&self.source).map_err(|e| e.to_string())?;
        let parse_s = t0.elapsed().as_secs_f64();
        Ok((parse_s, executed(&program, scalars)))
    }
}

/// Statements executed by `block`: `for` bodies count once per trip when
/// both range ends are literals or bound scalars (all the benchmark's
/// loops), once otherwise; `if` counts its then-branch.
fn executed(block: &[Stmt], scalars: &HashMap<&str, f64>) -> u64 {
    let value = |e: &Expr| match e {
        Expr::Num(v) => Some(*v),
        Expr::Var(name) => scalars.get(name.as_str()).copied(),
        _ => None,
    };
    block
        .iter()
        .map(|s| match s {
            Stmt::For { seq, body, .. } => {
                let trips = match seq {
                    Expr::Binary {
                        op: BinaryOp::Range,
                        lhs,
                        rhs,
                    } => match (value(lhs), value(rhs)) {
                        (Some(a), Some(b)) if b >= a => (b - a) as u64 + 1,
                        _ => 1,
                    },
                    _ => 1,
                };
                1 + trips * executed(body, scalars)
            }
            Stmt::If { then_block, .. } => 1 + executed(then_block, scalars),
            _ => 1,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_brace_depth_and_counts_loop_trips() {
        let s =
            Script::new("a <- 1 # c\nfor (i in 1:k) {\n  a <- a + i\n  b <- a\n}\n\nprint(a)\n");
        assert_eq!(s.stmts.len(), 3);
        assert!(s.stmts[1].starts_with("for") && s.stmts[1].ends_with("}\n"));
        let (_, n) = s.parse_probe(&HashMap::from([("k", 10.0)])).unwrap();
        assert_eq!(n, 1 + (1 + 10 * 2) + 1);
    }
}
