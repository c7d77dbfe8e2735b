//! `hot_small`: a few hundred short statements over 1 MiB that fits the
//! 4 MiB pool, with no cache drop between iterations. The "fits" case:
//! interpreter, DAG build, optimizer and the pin-hit path do the work and
//! the device does almost none — so big-data tuning that taxes
//! interactive use shows up here.

use std::collections::HashMap;

use riot::{EngineKind, Interpreter};

use super::{checked, scalar, vector, Baseline, Params, Plan, Workload};
use crate::gen;
use crate::harness::{engine_config, IterOpts, IterReport, Program, SharedEnv};
use crate::layers::Sample;
use crate::stats::{median, median_of};
use crate::store::{Instruments, StoreOpts};

const SERIES: u64 = 1;
const MATS: u64 = 2;
const WINDOW: usize = 1024;
const CAP: f64 = 200.0;
/// Chain shapes: a is M x K, b is K x M, c0 is M x N.
const M: usize = 96;
const K: usize = 8;
const N: usize = 4;

#[derive(Clone, Copy)]
struct Data {
    seed: u64,
    windows: usize,
    rounds: usize,
}

impl Data {
    /// Sensor readings: integers in 0..256.
    fn s(&self, i: usize) -> f64 {
        gen::below(self.seed, SERIES, i as u64, 256) as f64
    }

    /// Entry `(i, j)` of chain matrix `which` (0 = a, 1 = b, 2 = c0):
    /// integers in 0..4.
    fn mat(&self, which: u64, i: usize, j: usize) -> f64 {
        gen::below(self.seed, MATS + which, (i * 1024 + j) as u64, 4) as f64
    }
}

#[derive(PartialEq, Debug)]
struct Results {
    rsum: Vec<f64>,
    rmin: Vec<f64>,
    rmax: Vec<f64>,
    acc: f64,
    macc: f64,
}

pub struct HotSmall {
    params: Params,
    data: Data,
    frames: usize,
    program: Program,
    instruments: Instruments,
    env: Option<SharedEnv>,
    reference: Option<Results>,
}

impl HotSmall {
    pub fn new(params: &Params) -> HotSmall {
        let (windows, rounds, frames) = if params.smoke {
            (16, 5, 64)
        } else {
            (128, 40, 512)
        };
        HotSmall {
            params: params.clone(),
            data: Data {
                seed: params.seed,
                windows,
                rounds,
            },
            frames,
            program: Program::new(
                include_str!("../../scripts/hot_small.R"),
                HashMap::from([
                    ("k", windows as f64),
                    ("w", WINDOW as f64),
                    ("rounds", rounds as f64),
                    ("cap", CAP),
                ]),
            ),
            instruments: Instruments::new(),
            env: None,
            reference: None,
        }
    }

    fn bind(interp: &mut Interpreter) -> Result<(), String> {
        interp
            .bind_open_vector("s", "s")
            .and_then(|()| interp.bind_open_matrix("a", "a"))
            .and_then(|()| interp.bind_open_matrix("b", "b"))
            .and_then(|()| interp.bind_open_matrix("c0", "c0"))
            .map_err(|e| e.to_string())
    }

    fn fetch(interp: &Interpreter) -> Result<Results, String> {
        Ok(Results {
            rsum: vector(interp, "rsum")?,
            rmin: vector(interp, "rmin")?,
            rmax: vector(interp, "rmax")?,
            acc: scalar(interp, "acc")?,
            macc: scalar(interp, "macc")?,
        })
    }
}

impl Workload for HotSmall {
    fn plan(&self) -> Plan {
        Plan {
            warmup: 5,
            min_timed: 40,
            traced: 10,
        }
    }

    fn input_bytes(&self) -> u64 {
        ((self.data.windows * WINDOW + M * K + K * M + M * N) * 8) as u64
    }

    fn setup(&mut self) -> Result<(), String> {
        self.env = None;
        let d = self.data;
        let opts = StoreOpts::plain(self.frames);
        let env = SharedEnv::create(
            &self.params.dir,
            "hot_small",
            opts,
            &self.instruments,
            false,
            |interp| {
                interp
                    .bind_vector_stored("s", "s", d.windows * WINDOW, |i| d.s(i))
                    .and_then(|()| interp.bind_matrix_stored("a", "a", M, K, |i, j| d.mat(0, i, j)))
                    .and_then(|()| interp.bind_matrix_stored("b", "b", K, M, |i, j| d.mat(1, i, j)))
                    .and_then(|()| {
                        interp.bind_matrix_stored("c0", "c0", M, N, |i, j| d.mat(2, i, j))
                    })
                    .map_err(|e| e.to_string())
            },
        )?;
        self.env = Some(env);
        Ok(())
    }

    fn prepare_reference(&mut self) {
        let d = self.data;
        let window = |j: usize| (j * WINDOW..(j + 1) * WINDOW).map(move |i| d.s(i));
        let per_window = |f: &dyn Fn(f64, f64) -> f64, init: f64| -> Vec<f64> {
            (0..d.windows).map(|j| window(j).fold(init, f)).collect()
        };
        // sum(a %*% b %*% c0): integers, so association does not matter.
        let mut chain = 0.0;
        for i in 0..M {
            for l in 0..K {
                let a = d.mat(0, i, l);
                for m in 0..M {
                    let ab = a * d.mat(1, l, m);
                    chain += (0..N).map(|j| ab * d.mat(2, m, j)).sum::<f64>();
                }
            }
        }
        let len = d.windows * WINDOW;
        let macc = (1..=d.rounds)
            .map(|r| {
                let cap = CAP - r as f64;
                (0..len).map(|i| d.s(i).min(cap)).sum::<f64>() / len as f64
            })
            .sum();
        self.reference = Some(Results {
            rsum: per_window(&|a, b| a + b, 0.0),
            rmin: per_window(&f64::min, f64::INFINITY),
            rmax: per_window(&f64::max, f64::NEG_INFINITY),
            acc: chain * d.rounds as f64,
            macc,
        });
    }

    fn corrupt_reference(&mut self) {
        self.reference.as_mut().expect("reference prepared").rmax[0] += 1.0;
    }

    fn iterate(&mut self, opts: IterOpts) -> IterReport {
        let env = self.env.as_ref().expect("setup ran");
        let (mut report, fetched) = env.iterate(opts, &self.program, Self::bind, |interp, _| {
            Self::fetch(interp)
        });
        if let (Ok(()), Some(got)) = (&report.verdict, fetched) {
            // Exact: integer data, and the window width and length are
            // powers of two, so every mean is a dyadic rational.
            if Some(&got) != self.reference.as_ref() {
                report.verdict = Err("rollup or round totals differ from the reference".into());
            }
        }
        report
    }

    fn explain_probe(&mut self) -> Result<f64, String> {
        let deferred = self.program.with_script("p <- a %*% b %*% c0\n");
        let env = self.env.as_ref().expect("setup ran");
        env.explain_probe(&deferred, "p", Self::bind)
    }

    /// The other three engines on the same script (Figure 1 at workload
    /// scale), and the governed bracket with nothing to trip.
    fn extras(&mut self, baseline: &Baseline) -> Result<Sample, String> {
        let mut out = Sample::new();
        for (kind, name) in [
            (EngineKind::PlainR, "core.policy.plain_r.iter_s"),
            (EngineKind::Strawman, "core.policy.strawman.iter_s"),
            (EngineKind::MatNamed, "core.policy.mat_named.iter_s"),
        ] {
            // Strawman takes ~60x Riot's time here; one sample has to do.
            let reps = if self.params.smoke || kind == EngineKind::Strawman {
                1
            } else {
                3
            };
            let mut cfg = engine_config(self.frames);
            cfg.kind = kind;
            let opts = IterOpts {
                cfg: Some(cfg),
                ..IterOpts::PLAIN
            };
            let runs: Result<Vec<IterReport>, String> =
                (0..reps).map(|_| checked(self, opts)).collect();
            let runs = runs.map_err(|e| format!("{kind:?}: {e}"))?;
            out.insert(name, median_of(&runs, |r| r.measured.wall_s));
            if kind == EngineKind::Strawman {
                let reads = median_of(&runs, |r| r.io.reads as f64);
                out.insert(
                    "core.policy.strawman_read_ratio",
                    reads / baseline.blocks_read,
                );
            }
        }
        let governed = IterOpts {
            governed: true,
            ..IterOpts::PLAIN
        };
        let (mut off, mut on) = (Vec::new(), Vec::new());
        for _ in 0..self.plan().traced {
            off.push(checked(self, IterOpts::PLAIN)?.measured.wall_s);
            on.push(checked(self, governed)?.measured.wall_s);
        }
        out.insert(
            "storage.governor.overhead_ratio",
            median(&on) / median(&off),
        );
        Ok(out)
    }
}
