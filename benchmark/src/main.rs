//! `riot-benchmark`: five out-of-core workloads on the Riot engine,
//! verified against engine-independent references, with nine end-to-end
//! metrics from an untraced pass and per-layer attribution from a traced
//! one. See README.md for the one command and the glossary.
//!
//! ```text
//! riot-benchmark                         # one full set: 5 workloads x (untraced + traced)
//! riot-benchmark --repeat 2              # two sets, compared against the bounds
//! riot-benchmark --smoke                 # shrunken sizes, < 20 s, same code paths
//! riot-benchmark --workload W --seed N --seconds S --trace 0|1   # one run (what the driver calls)
//! ```

mod gen;
mod harness;
mod layers;
mod probes;
mod proc;
mod run;
mod script;
mod spec;
mod stats;
mod store;
mod suite;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use run::{RunConfig, RunResult};

const DEFAULT_SEED: u64 = 20090104;

pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    self_test: bool,
    repeat: usize,
    data_dir: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Option<Args>, String> {
    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        self_test: false,
        repeat: 1,
        // Inside the benchmark's own directory: a run reads and writes
        // nothing outside its checkout.
        data_dir: out_dir.join("data"),
        out_dir,
    };
    let mut seconds_given = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds_given = true;
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--data-dir" => args.data_dir = PathBuf::from(value("a directory")?),
            "--smoke" => args.smoke = true,
            "--self-test" => args.self_test = true,
            "--print-spec" => {
                print!("{}", spec::benchmark_json());
                return Ok(None);
            }
            other => {
                return Err(format!(
                    "unknown argument '{other}' (see benchmark/README.md)"
                ))
            }
        }
    }
    if args.smoke && !seconds_given {
        args.seconds = 0.0;
    }
    if args.repeat == 0 || args.seconds.is_nan() || args.seconds < 0.0 {
        return Err("--repeat must be at least 1 and --seconds non-negative".to_string());
    }
    Ok(Some(args))
}

/// Print one run the way both a person and `suite` can read it, ending
/// with the one-line JSON object the driver takes.
fn print_run(workload: &str, args: &Args, result: &RunResult) {
    println!(
        "# riot-benchmark {workload} seed={} trace={} seconds={} smoke={}",
        args.seed, args.trace as u8, args.seconds, args.smoke
    );
    for (key, value) in &result.facts {
        println!("fact\t{key}\t{value}");
    }
    for why in &result.failures {
        println!("failure\t{}", why.replace('\n', " "));
    }
    for (m, v) in &result.metrics {
        println!("metric\t{}\t{v:?}\t{}", m.name, m.unit);
    }
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("riot-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload.clone() else {
        return suite::run(&args);
    };
    let cfg = RunConfig {
        workload: workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        self_test: args.self_test,
        data_dir: args.data_dir.clone(),
        out_dir: args.out_dir.clone(),
    };
    match run::run(&cfg) {
        Ok(result) if result.metrics.iter().all(|(_, v)| v.is_finite()) => {
            print_run(&workload, &args, &result);
            if result.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Ok(result) => {
            let bad: Vec<&str> = result
                .metrics
                .iter()
                .filter(|(_, v)| !v.is_finite())
                .map(|(m, _)| m.name)
                .collect();
            eprintln!("riot-benchmark: {workload}: not a number: {bad:?}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("riot-benchmark: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
