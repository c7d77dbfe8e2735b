//! `stream_ooc`: the paper's Example 1 plus two k-means rounds over two
//! vectors 16x the pool. The elementwise pipeline, optimizer pushdown and
//! the pool's miss path do the work; GEMM does none.

use std::collections::HashMap;

use riot::Interpreter;

use super::{checked, close, scalar, vector, Baseline, Params, Plan, Workload};
use crate::gen;
use crate::harness::{engine_config, IterOpts, IterReport, Program, SharedEnv};
use crate::layers::Sample;
use crate::proc::cores_available;
use crate::store::{Instruments, StoreOpts};

const XS: u64 = 1;
const YS: u64 = 2;
/// Points are uniform over `[0, SPAN)^2`.
const SPAN: f64 = 16.0;
const ROUTE: [(&str, f64); 5] = [
    ("xs", 0.0),
    ("ys", 0.0),
    ("xe", 3.0),
    ("ye", 4.0),
    ("cap", 30.0),
];
const SEEDS: [(f64, f64); 3] = [(2.0, 2.0), (13.0, 4.0), (4.0, 13.0)];
/// The script writes its k-means rounds out; keep in step with it.
const ROUNDS: usize = 2;

#[derive(Clone, Copy)]
struct Data {
    seed: u64,
    n: usize,
}

impl Data {
    fn x(&self, i: usize) -> f64 {
        SPAN * gen::unit(self.seed, XS, i as u64)
    }

    fn y(&self, i: usize) -> f64 {
        SPAN * gen::unit(self.seed, YS, i as u64)
    }

    /// Example 1's distance for point `i`, before the clamp.
    fn d(&self, i: usize) -> f64 {
        let (x, y) = (self.x(i), self.y(i));
        let sq = |v: f64| v * v;
        (sq(x - ROUTE[0].1) + sq(y - ROUTE[1].1)).sqrt()
            + (sq(x - ROUTE[2].1) + sq(y - ROUTE[3].1)).sqrt()
    }
}

/// Compensated running sum, so the reference is not the noisier side of a
/// 1e-9 comparison.
#[derive(Default, Clone, Copy)]
struct Kahan {
    sum: f64,
    c: f64,
}

impl Kahan {
    fn add(&mut self, v: f64) {
        let y = v - self.c;
        let t = self.sum + y;
        self.c = (t - self.sum) - y;
        self.sum = t;
    }
}

#[derive(Debug)]
struct Reference {
    mean_d: f64,
    sum_clamped: f64,
    counts: [f64; 3],
    centroids: [f64; 6],
}

/// What the script leaves behind, fetched at full precision.
struct Fetched {
    mean_d: f64,
    sum_clamped: f64,
    sample: Vec<f64>,
    z: Vec<f64>,
    counts: [f64; 3],
    centroids: [f64; 6],
}

pub struct StreamOoc {
    params: Params,
    data: Data,
    frames: usize,
    program: Program,
    instruments: Instruments,
    env: Option<SharedEnv>,
    /// The current file has already served an iteration.
    used: bool,
    reference: Option<Reference>,
}

impl StreamOoc {
    pub fn new(params: &Params) -> StreamOoc {
        let (n, frames) = if params.smoke {
            (1 << 17, 64)
        } else {
            (1 << 22, 512)
        };
        let mut scalars = HashMap::from(ROUTE);
        scalars.insert("n", n as f64);
        StreamOoc {
            params: params.clone(),
            data: Data {
                seed: params.seed,
                n,
            },
            frames,
            program: Program::new(include_str!("../../scripts/stream_ooc.R"), scalars),
            instruments: Instruments::new(),
            env: None,
            used: false,
            reference: None,
        }
    }

    fn bind(interp: &mut Interpreter) -> Result<(), String> {
        interp
            .bind_open_vector("x", "x")
            .and_then(|()| interp.bind_open_vector("y", "y"))
            .map_err(|e| e.to_string())
    }

    fn fetch(interp: &Interpreter) -> Result<Fetched, String> {
        let scalar = |name| scalar(interp, name);
        Ok(Fetched {
            mean_d: scalar("md")?,
            sum_clamped: scalar("sd")?,
            sample: vector(interp, "s")?,
            z: vector(interp, "z")?,
            counts: [scalar("n1")?, scalar("n2")?, scalar("n3")?],
            centroids: [
                scalar("c1x")?,
                scalar("c1y")?,
                scalar("c2x")?,
                scalar("c2y")?,
                scalar("c3x")?,
                scalar("c3y")?,
            ],
        })
    }

    /// Cluster counts exact; `mean(d)`, the clamped sum and the centroids
    /// to 1e-9 relative; each sampled `z` against the generator.
    fn verify(&self, got: &Fetched) -> Result<(), String> {
        let want = self.reference.as_ref().ok_or("reference not prepared")?;
        let cap = ROUTE[4].1;
        if got.counts != want.counts {
            return Err(format!(
                "cluster counts {:?}, reference {:?}",
                got.counts, want.counts
            ));
        }
        let pairs = [
            ("mean(d)", got.mean_d, want.mean_d),
            ("sum(clamped d)", got.sum_clamped, want.sum_clamped),
        ];
        let centroids = got.centroids.iter().zip(&want.centroids);
        for (what, g, w) in pairs
            .into_iter()
            .chain(centroids.map(|(g, w)| ("centroid", *g, *w)))
        {
            if !close(g, w, 1e-9) {
                return Err(format!("{what} = {g:e}, reference {w:e}"));
            }
        }
        if got.sample.len() != 100 || got.z.len() != 100 {
            return Err("sample or z is not 100 long".to_string());
        }
        for (pos, z) in got.sample.iter().zip(&got.z) {
            let i = *pos as usize;
            if i < 1 || i > self.data.n {
                return Err(format!("sample position {pos} out of range"));
            }
            let w = self.data.d(i - 1).min(cap);
            if !close(*z, w, 1e-12) {
                return Err(format!("z at position {pos} = {z:e}, reference {w:e}"));
            }
        }
        Ok(())
    }
}

impl Workload for StreamOoc {
    fn plan(&self) -> Plan {
        Plan {
            warmup: 1,
            min_timed: 5,
            traced: 2,
        }
    }

    fn input_bytes(&self) -> u64 {
        (2 * self.data.n * 8) as u64
    }

    fn setup(&mut self) -> Result<(), String> {
        self.env = None;
        let d = self.data;
        let opts = StoreOpts::plain(self.frames);
        let env = SharedEnv::create(
            &self.params.dir,
            "stream_ooc",
            opts,
            &self.instruments,
            true,
            |interp| {
                interp
                    .bind_vector_stored("x", "x", d.n, |i| d.x(i))
                    .and_then(|()| interp.bind_vector_stored("y", "y", d.n, |i| d.y(i)))
                    .map_err(|e| e.to_string())
            },
        )?;
        self.env = Some(env);
        self.used = false;
        Ok(())
    }

    fn prepare_reference(&mut self) {
        let d = self.data;
        let cap = ROUTE[4].1;
        let (mut sum_d, mut sum_clamped) = (Kahan::default(), Kahan::default());
        for i in 0..d.n {
            let v = d.d(i);
            sum_d.add(v);
            sum_clamped.add(v.min(cap));
        }
        let mut c = SEEDS;
        let mut counts = [0.0; 3];
        for _ in 0..ROUNDS {
            let mut acc = [[Kahan::default(); 2]; 3];
            counts = [0.0; 3];
            for i in 0..d.n {
                let (x, y) = (d.x(i), d.y(i));
                let dist = |(cx, cy): (f64, f64)| (x - cx) * (x - cx) + (y - cy) * (y - cy);
                let (d1, d2, d3) = (dist(c[0]), dist(c[1]), dist(c[2]));
                let m = d1.min(d2).min(d3);
                // The script's tie-breaking: first cluster at the minimum.
                let k = if d1 <= m {
                    0
                } else if d2 <= m {
                    1
                } else {
                    2
                };
                counts[k] += 1.0;
                acc[k][0].add(x);
                acc[k][1].add(y);
            }
            for k in 0..3 {
                c[k] = (acc[k][0].sum / counts[k], acc[k][1].sum / counts[k]);
            }
        }
        self.reference = Some(Reference {
            mean_d: sum_d.sum / d.n as f64,
            sum_clamped: sum_clamped.sum,
            counts,
            centroids: [c[0].0, c[0].1, c[1].0, c[1].1, c[2].0, c[2].1],
        });
    }

    fn corrupt_reference(&mut self) {
        self.reference.as_mut().expect("reference prepared").counts[0] += 1.0;
    }

    fn iterate(&mut self, opts: IterOpts) -> IterReport {
        // The device file never shrinks (dropped objects' blocks are not
        // reused), and each iteration leaves ~288 MiB of dirty page cache
        // behind. Past ~1 GiB the kernel's write-back throttling triples
        // system time from one iteration to the next, so every iteration
        // after the first gets a freshly ingested file and all of them
        // run in the same regime.
        if std::mem::replace(&mut self.used, true) {
            if let Err(e) = self.setup() {
                return IterReport::failed(e);
            }
        }
        let env = self.env.as_ref().expect("setup ran");
        let (mut report, fetched) = env.iterate(opts, &self.program, Self::bind, |interp, _| {
            Self::fetch(interp)
        });
        if let (Ok(()), Some(got)) = (&report.verdict, fetched) {
            report.verdict = self.verify(&got);
        }
        report
    }

    fn explain_probe(&mut self) -> Result<f64, String> {
        let deferred = self.program.with_script(
            "d <- sqrt((x - xs)^2 + (y - ys)^2) + sqrt((x - xe)^2 + (y - ye)^2)\n\
             d[d > cap] <- cap\n\
             z <- d[sample(n, 100)]\n",
        );
        let env = self.env.as_ref().expect("setup ran");
        env.explain_probe(&deferred, "z", Self::bind)
    }

    /// The same iteration with `threads = 2`, against the one-thread
    /// medians. Not measured on a one-core box: a ratio there would be
    /// scheduler noise.
    fn extras(&mut self, baseline: &Baseline) -> Result<Sample, String> {
        let mut out = Sample::new();
        if cores_available() < 2 {
            return Ok(out);
        }
        let mut cfg = engine_config(self.frames);
        cfg.threads = 2;
        let opts = IterOpts {
            cfg: Some(cfg),
            ..IterOpts::PLAIN
        };
        let run = checked(self, opts)?;
        let time_ratio = run.measured.wall_s / baseline.iter_s;
        out.insert("core.exec.pipeline.t2_time_ratio", time_ratio);
        let excess = run.io.reads as f64 / baseline.blocks_read - 1.0;
        out.insert("core.exec.pipeline.t2_read_excess", excess);
        Ok(out)
    }
}
