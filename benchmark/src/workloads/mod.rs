//! The five named workloads. Each one owns its generator, its script,
//! its engine-independent reference and its verifier; the runner only
//! sees this trait.

use std::path::PathBuf;

use riot::rlang::RValue;
use riot::Interpreter;

use crate::harness::{IterOpts, IterReport};
use crate::layers::Sample;

mod dense_ooc;
mod hot_small;
mod ingest_commit;
mod sparse_lat;
mod stream_ooc;

/// Iteration counts of one run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Discarded iterations before timing starts.
    pub warmup: usize,
    /// Timed iterations run at least this often, then until `--seconds`.
    pub min_timed: usize,
    /// Timed iterations of each kind (traced, untraced) in the traced pass.
    pub traced: usize,
}

pub trait Workload {
    fn plan(&self) -> Plan;

    /// Bytes of user input: 8 per dense element, 24 per sparse triplet.
    fn input_bytes(&self) -> u64;

    /// Generate, ingest and flush the inputs into a new device file,
    /// replacing any earlier one. This is what `setup_s` times.
    fn setup(&mut self) -> Result<(), String>;

    /// Compute the reference the verifier compares against, in plain Rust
    /// from the generator. Runs once, outside `setup_s`.
    fn prepare_reference(&mut self);

    /// Corrupt one expected value, so verification must fail (`--self-test`).
    fn corrupt_reference(&mut self);

    /// One closed-loop iteration, verified.
    fn iterate(&mut self, opts: IterOpts) -> IterReport;

    /// Microseconds `Session::explain` takes on the workload's largest
    /// plan.
    fn explain_probe(&mut self) -> Result<f64, String>;

    /// Per-layer metrics only this workload can measure (engine rows,
    /// `threads = 2`, sparse footprint), given the traced pass's untraced
    /// medians to form ratios against.
    fn extras(&mut self, _baseline: &Baseline) -> Result<Sample, String> {
        Ok(Sample::new())
    }
}

/// Untraced medians of the run that asks for [`Workload::extras`].
pub struct Baseline {
    pub iter_s: f64,
    pub blocks_read: f64,
}

/// One iteration that must verify.
fn checked(w: &mut dyn Workload, opts: IterOpts) -> Result<IterReport, String> {
    let report = w.iterate(opts);
    report.verdict.clone().map(|()| report)
}

/// Everything a workload needs to know about this run.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// Shrunken sizes (`--smoke`): same code paths, seconds in total.
    pub smoke: bool,
    /// Directory for device files.
    pub dir: PathBuf,
}

pub fn build(name: &str, params: &Params) -> Option<Box<dyn Workload>> {
    Some(match name {
        "dense_ooc" => Box::new(dense_ooc::DenseOoc::new(params)),
        "stream_ooc" => Box::new(stream_ooc::StreamOoc::new(params)),
        "sparse_lat" => Box::new(sparse_lat::SparseLat::new(params)),
        "hot_small" => Box::new(hot_small::HotSmall::new(params)),
        "ingest_commit" => Box::new(ingest_commit::IngestCommit::new(params)),
        _ => return None,
    })
}

/// A scalar the script left in the interpreter, at full precision (`print`
/// keeps six decimals).
fn scalar(interp: &Interpreter, name: &str) -> Result<f64, String> {
    match interp.get(name) {
        Some(RValue::Scalar(v)) => Ok(*v),
        _ => Err(format!("script left no scalar '{name}'")),
    }
}

/// A vector the script left in the interpreter.
fn vector(interp: &Interpreter, name: &str) -> Result<Vec<f64>, String> {
    match interp.get(name) {
        Some(RValue::Vector { v, .. }) => v.collect().map_err(|e| e.to_string()),
        _ => Err(format!("script left no vector '{name}'")),
    }
}

/// A matrix the script left in the interpreter, row-major.
fn matrix(interp: &Interpreter, name: &str) -> Result<Vec<f64>, String> {
    match interp.get(name) {
        Some(RValue::Matrix(m)) => m
            .collect()
            .map(|(_, _, data)| data)
            .map_err(|e| e.to_string()),
        _ => Err(format!("script left no matrix '{name}'")),
    }
}

/// `|got - want| <= rel * max(|want|, tiny)`.
fn close(got: f64, want: f64, rel: f64) -> bool {
    (got - want).abs() <= rel * want.abs().max(1e-300)
}

/// Pull the numeric values out of R `print` output (`[1] 3 4.5 ...`).
fn printed_numbers(out: &str) -> Vec<f64> {
    out.split_whitespace()
        .filter(|t| !t.starts_with('['))
        .filter_map(|t| t.parse().ok())
        .collect()
}
