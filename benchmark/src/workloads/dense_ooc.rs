//! `dense_ooc`: ridge regression through the normal equations over a
//! real-valued design matrix 13x the pool. GEMM, the tiled Cholesky and
//! array tile access do the work; the elementwise pipeline and the parser
//! do almost none.

use std::collections::HashMap;

use riot::Interpreter;

use super::{matrix, printed_numbers, Params, Plan, Workload};
use crate::gen;
use crate::harness::{IterOpts, IterReport, Program, SharedEnv};
use crate::store::{Instruments, StoreOpts};

const X: u64 = 1;
const BETA: u64 = 2;
const NOISE: u64 = 3;
/// sqrt(lambda) of the ridge rows; a power of two keeps the augmentation
/// exact.
const SQRT_LAMBDA: f64 = 0.5;

/// The generator: row `i` of the augmented design matrix and its response.
#[derive(Clone, Copy)]
struct Data {
    seed: u64,
    n: usize,
    p: usize,
}

impl Data {
    fn x(&self, i: usize, j: usize) -> f64 {
        if i < self.n {
            2.0 * gen::unit(self.seed, X, (i * self.p + j) as u64) - 1.0
        } else if i - self.n == j {
            SQRT_LAMBDA
        } else {
            0.0
        }
    }

    fn beta_true(&self, j: usize) -> f64 {
        2.0 * gen::unit(self.seed, BETA, j as u64) - 1.0
    }

    /// `y[i]` given row `i` (so a caller that already has the row does not
    /// regenerate it): a planted linear model plus noise; ridge rows are 0.
    fn y_of_row(&self, i: usize, row: impl Iterator<Item = f64>) -> f64 {
        if i >= self.n {
            return 0.0;
        }
        let signal: f64 = row.enumerate().map(|(j, x)| x * self.beta_true(j)).sum();
        signal + 0.1 * (2.0 * gen::unit(self.seed, NOISE, i as u64) - 1.0)
    }

    fn y(&self, i: usize) -> f64 {
        self.y_of_row(i, (0..self.p).map(|j| self.x(i, j)))
    }
}

/// Scale of the normal-equations residual, from the generator alone.
struct Reference {
    frob2: f64,
    xty_inf: f64,
}

pub struct DenseOoc {
    params: Params,
    data: Data,
    frames: usize,
    program: Program,
    instruments: Instruments,
    env: Option<SharedEnv>,
    reference: Option<Reference>,
    corrupt: bool,
}

impl DenseOoc {
    pub fn new(params: &Params) -> DenseOoc {
        let (n, p, frames) = if params.smoke {
            (2048, 64, 64)
        } else {
            (5632, 1024, 512)
        };
        DenseOoc {
            params: params.clone(),
            data: Data {
                seed: params.seed,
                n,
                p,
            },
            frames,
            program: Program::new(include_str!("../../scripts/dense_ooc.R"), HashMap::new()),
            instruments: Instruments::new(),
            env: None,
            reference: None,
            corrupt: false,
        }
    }

    fn bind(interp: &mut Interpreter) -> Result<(), String> {
        interp
            .bind_open_matrix("x", "x")
            .and_then(|()| interp.bind_open_matrix("y", "y"))
            .map_err(|e| e.to_string())
    }

    /// ‖Xᵀ(Xβ − y)‖∞ ≤ 1e-8 · (‖X‖_F² ‖β‖∞ + ‖Xᵀy‖∞), and the printed
    /// `sum(fit)` against Σ Xβ — one streaming pass over the generator.
    fn verify(&self, beta: &[f64], printed_sum: f64) -> Result<(), String> {
        let d = self.data;
        let reference = self.reference.as_ref().ok_or("reference not prepared")?;
        if beta.len() != d.p {
            return Err(format!("beta has {} entries, want {}", beta.len(), d.p));
        }
        let mut grad = vec![0.0; d.p];
        let mut row = vec![0.0; d.p];
        let mut sum_fit = 0.0;
        for i in 0..d.n + d.p {
            for (j, x) in row.iter_mut().enumerate() {
                *x = d.x(i, j);
            }
            let fit: f64 = row.iter().zip(beta).map(|(x, b)| x * b).sum();
            let mut y = d.y_of_row(i, row.iter().copied());
            if self.corrupt && i == 0 {
                y += 1.0;
            }
            sum_fit += fit;
            let r = fit - y;
            for (g, x) in grad.iter_mut().zip(&row) {
                *g += r * x;
            }
        }
        let inf = |v: &[f64]| v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let (resid, bound) = (
            inf(&grad),
            1e-8 * (reference.frob2 * inf(beta) + reference.xty_inf),
        );
        // `<=` is false for a NaN residual, which must fail too.
        let residual_ok = resid <= bound;
        if !residual_ok {
            return Err(format!(
                "normal-equations residual {resid:e} exceeds {bound:e}"
            ));
        }
        // print() keeps six decimals.
        let sum_ok = (printed_sum - sum_fit).abs() <= 1e-9 * sum_fit.abs() + 1e-6;
        if !sum_ok {
            return Err(format!(
                "sum(fit) printed {printed_sum}, reference {sum_fit}"
            ));
        }
        Ok(())
    }
}

impl Workload for DenseOoc {
    fn plan(&self) -> Plan {
        Plan {
            warmup: 1,
            min_timed: 5,
            traced: 2,
        }
    }

    fn input_bytes(&self) -> u64 {
        let d = self.data;
        ((d.n + d.p) * (d.p + 1) * 8) as u64
    }

    fn setup(&mut self) -> Result<(), String> {
        self.env = None;
        let d = self.data;
        let opts = StoreOpts::plain(self.frames);
        let env = SharedEnv::create(
            &self.params.dir,
            "dense_ooc",
            opts,
            &self.instruments,
            true,
            |interp| {
                interp
                    .bind_matrix_stored("x", "x", d.n + d.p, d.p, |i, j| d.x(i, j))
                    .and_then(|()| interp.bind_matrix_stored("y", "y", d.n + d.p, 1, |i, _| d.y(i)))
                    .map_err(|e| e.to_string())
            },
        )?;
        self.env = Some(env);
        Ok(())
    }

    fn prepare_reference(&mut self) {
        let d = self.data;
        let mut xty = vec![0.0; d.p];
        let mut frob2 = 0.0;
        let mut row = vec![0.0; d.p];
        for i in 0..d.n + d.p {
            for (j, x) in row.iter_mut().enumerate() {
                *x = d.x(i, j);
                frob2 += *x * *x;
            }
            let y = d.y_of_row(i, row.iter().copied());
            for (a, x) in xty.iter_mut().zip(&row) {
                *a += x * y;
            }
        }
        self.reference = Some(Reference {
            frob2,
            xty_inf: xty.iter().fold(0.0f64, |m, v| m.max(v.abs())),
        });
    }

    fn corrupt_reference(&mut self) {
        self.corrupt = true;
    }

    fn iterate(&mut self, opts: IterOpts) -> IterReport {
        let env = self.env.as_ref().expect("setup ran");
        let (mut report, fetched) = env.iterate(opts, &self.program, Self::bind, |interp, out| {
            // beta at full precision, not through print().
            let beta = matrix(interp, "beta")?;
            let printed = printed_numbers(out);
            let &[sum] = printed.as_slice() else {
                return Err(format!("expected one printed number, got {out:?}"));
            };
            Ok((beta, sum))
        });
        if let (Ok(()), Some((beta, sum))) = (&report.verdict, fetched) {
            report.verdict = self.verify(&beta, sum);
        }
        report
    }

    fn explain_probe(&mut self) -> Result<f64, String> {
        let deferred = self
            .program
            .with_script("beta <- solve(crossprod(x), crossprod(x, y))\nfit <- x %*% beta\n");
        let env = self.env.as_ref().expect("setup ran");
        env.explain_probe(&deferred, "fit", Self::bind)
    }
}
