//! One run of one workload: the untraced pass that produces the
//! end-to-end metrics, or the traced pass that produces the per-layer
//! ones. Load is a closed loop of one client — iteration k+1 starts when
//! k has been verified.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use crate::harness::{IterOpts, IterReport};
use crate::layers::{self, Sample};
use crate::probes;
use crate::proc;
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};
use crate::stats::{median, median_of, percentile};
use crate::store::BLOCK_SIZE;
use crate::workloads::{self, Baseline, Params, Plan, Workload};

pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// Timed iterations continue until this many seconds have passed (and
    /// the workload's minimum count is reached).
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Corrupt one expected value first: the run must then report failures.
    pub self_test: bool,
    pub data_dir: PathBuf,
    pub out_dir: PathBuf,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the human reading the log.
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static MetricSpec, f64)>,
    /// Run facts worth recording next to the numbers (sample counts, …).
    pub facts: Vec<(&'static str, String)>,
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn note(&mut self, report: &IterReport) {
        self.attempted += 1;
        if let Err(why) = &report.verdict {
            self.failed += 1;
            if self.failures.len() < 3 {
                self.failures.push(why.clone());
            }
        }
    }
}

/// An iteration that errors, fails verification or panics is a failed
/// iteration, not the end of the run.
fn iterate(w: &mut dyn Workload, opts: IterOpts, tally: &mut Tally) -> IterReport {
    let report = catch_unwind(AssertUnwindSafe(|| w.iterate(opts))).unwrap_or_else(|panic| {
        let why = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("unknown panic");
        IterReport::failed(format!("panicked: {why}"))
    });
    tally.note(&report);
    report
}

fn plan_for(w: &dyn Workload, smoke: bool) -> Plan {
    if smoke {
        Plan {
            warmup: 1,
            min_timed: 3,
            traced: 1,
        }
    } else {
        w.plan()
    }
}

pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    std::fs::create_dir_all(&cfg.data_dir)
        .map_err(|e| format!("data dir {}: {e}", cfg.data_dir.display()))?;
    let params = Params {
        seed: cfg.seed,
        smoke: cfg.smoke,
        dir: cfg.data_dir.clone(),
    };
    let mut w = workloads::build(&cfg.workload, &params)
        .ok_or_else(|| format!("unknown workload '{}'", cfg.workload))?;
    if cfg.trace {
        per_layer(w.as_mut(), cfg)
    } else {
        end_to_end(w.as_mut(), cfg)
    }
}

/// Set-up is repeated for this long (at least 3 times, at most
/// `SETUP_MAX`): a 3 ms set-up gets 101 samples, a 0.2 s one gets 8.
const SETUP_SECONDS: f64 = 1.5;
const SETUP_MAX: usize = 101;

/// Set-up several times (its median is `setup_s`), then warm-up, then
/// timed iterations with every instrument off.
fn end_to_end(w: &mut dyn Workload, cfg: &RunConfig) -> Result<RunResult, String> {
    let plan = plan_for(w, cfg.smoke);
    let mut setups = Vec::new();
    let t0 = Instant::now();
    while setups.len() < 3
        || (!cfg.smoke && t0.elapsed().as_secs_f64() < SETUP_SECONDS && setups.len() < SETUP_MAX)
    {
        let t = Instant::now();
        w.setup()?;
        setups.push(t.elapsed().as_secs_f64());
    }
    w.prepare_reference();
    if cfg.self_test {
        w.corrupt_reference();
    }

    // Peak memory of the iterations alone: reset the kernel's watermark,
    // or where it refuses, sample the resident set at iteration ends.
    let watermark = proc::reset_peak_rss();
    let mut sampled_rss = 0.0f64;
    let mut tally = Tally::default();
    for _ in 0..plan.warmup {
        iterate(w, IterOpts::PLAIN, &mut tally);
    }
    let mut timed = Vec::new();
    let t0 = Instant::now();
    while timed.len() < plan.min_timed || t0.elapsed().as_secs_f64() < cfg.seconds {
        timed.push(iterate(w, IterOpts::PLAIN, &mut tally));
        sampled_rss = sampled_rss.max(proc::rss_mib());
    }
    let peak_rss = if watermark {
        proc::peak_rss_mib()
    } else {
        sampled_rss
    };

    let walls: Vec<f64> = timed.iter().map(|r| r.measured.wall_s).collect();
    let input_bytes = w.input_bytes() as f64;
    let value = |name: &str| match name {
        "setup_s" => median(&setups),
        "iter_s" => median(&walls),
        "iter_p75_s" => percentile(&mut walls.clone(), 0.75),
        "cpu_s" => median_of(&timed, |r| r.measured.user_s + r.measured.sys_s),
        "blocks_read" => median_of(&timed, |r| r.io.reads as f64),
        "blocks_written" => median_of(&timed, |r| r.io.writes as f64),
        "peak_rss_mb" => peak_rss,
        "space_amp" => median_of(&timed, |r| {
            (r.device_blocks * BLOCK_SIZE as u64) as f64 / input_bytes
        }),
        "verified_share" => 1.0 - tally.failed as f64 / tally.attempted as f64,
        other => unreachable!("no definition for end-to-end metric {other}"),
    };
    let metrics = END_TO_END.iter().map(|m| (m, value(m.name))).collect();
    Ok(RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        metrics,
        facts: vec![
            ("setup_samples", setups.len().to_string()),
            ("warmup_iterations", plan.warmup.to_string()),
            ("timed_iterations", timed.len().to_string()),
            (
                "peak_rss_source",
                if watermark { "VmHWM" } else { "VmRSS" }.to_string(),
            ),
        ],
    })
}

/// Same workload, alternating untraced and traced iterations: the traced
/// ones feed the per-layer metrics, the ratio of the two is the tracing
/// overhead. Then the probes.
fn per_layer(w: &mut dyn Workload, cfg: &RunConfig) -> Result<RunResult, String> {
    let plan = plan_for(w, cfg.smoke);
    w.setup()?;
    w.prepare_reference();
    if cfg.self_test {
        w.corrupt_reference();
    }
    let mut tally = Tally::default();
    for _ in 0..plan.warmup {
        iterate(w, IterOpts::PLAIN, &mut tally);
    }
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..plan.traced {
        plain.push(iterate(w, IterOpts::PLAIN, &mut tally));
        traced.push(iterate(w, IterOpts::TRACED, &mut tally));
    }

    let samples: Vec<Sample> = traced.iter().map(layers::sample).collect();
    let mut values = Sample::new();
    for name in samples.iter().flat_map(|s| s.keys()) {
        let per_iter: Vec<f64> = samples
            .iter()
            .filter_map(|s| s.get(name).copied())
            .collect();
        values.insert(name, median(&per_iter));
    }
    let baseline = Baseline {
        iter_s: median_of(&plain, |r| r.measured.wall_s),
        blocks_read: median_of(&plain, |r| r.io.reads as f64),
    };
    values.insert(
        "trace.overhead_ratio",
        median_of(&traced, |r| r.measured.wall_s) / baseline.iter_s,
    );
    values.extend(probes::ceilings(&cfg.data_dir)?);
    values.insert("core.opt.explain_us", w.explain_probe()?);
    values.extend(w.extras(&baseline)?);

    let mut facts = vec![
        ("traced_iterations", traced.len().to_string()),
        ("cores_available", proc::cores_available().to_string()),
    ];
    if values.get("trace.dropped").is_some_and(|d| *d > 0.0) {
        // The ring drops the newest events, i.e. spans; what TimedDevice
        // and the harness measured never drops and stands alone.
        facts.push((
            "truncated",
            "core.exec.* rlang.interp_self_s core.force.count".to_string(),
        ));
    }
    if let Some(spans) = traced
        .last()
        .and_then(|r| r.trace.as_ref())
        .map(|t| &t.spans)
    {
        let path = cfg.out_dir.join(format!("{}.trace.json", cfg.workload));
        std::fs::create_dir_all(&cfg.out_dir)
            .and_then(|()| std::fs::write(&path, layers::chrome_trace(spans)))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        facts.push(("chrome_trace", path.display().to_string()));
    }

    let metrics = PER_LAYER
        .iter()
        .map(|m| (m, values.get(m.name).copied().unwrap_or(0.0)))
        .collect();
    Ok(RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        metrics,
        facts,
    })
}
