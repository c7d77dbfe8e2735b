//! The full set: every workload in its own child process (so peak memory
//! is per workload), untraced then traced; with `--repeat N` the sets are
//! compared against the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use crate::proc;
use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::median;
use crate::Args;

/// Metric name → (value, unit) as one child printed them.
type Metrics = BTreeMap<String, (f64, String)>;

#[derive(Default)]
struct ChildRun {
    metrics: Metrics,
    facts: Vec<(String, String)>,
    ok: bool,
}

/// Counts that repeat bit-for-bit between runs of the same code and seed.
/// `sparse_lat` prefetches under eviction, which may waste a load.
fn is_exact(workload: &str, metric: &str) -> bool {
    matches!(metric, "blocks_read" | "blocks_written" | "space_amp")
        && !(workload == "sparse_lat" && metric == "blocks_read")
}

/// Run one workload in a child and read its `metric`/`fact` lines back.
fn child(args: &Args, workload: &str, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--data-dir")
        .arg(&args.data_dir);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if args.self_test {
        cmd.arg("--self-test");
    }
    // `output` waits for the child to end before returning.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let mut run = ChildRun {
        ok: out.status.success(),
        ..ChildRun::default()
    };
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let fields: Vec<&str> = line.split('\t').collect();
        match fields.as_slice() {
            ["metric", name, value, unit] => {
                let v = value
                    .parse()
                    .map_err(|e| format!("{workload} {name}: {e}"))?;
                run.metrics.insert(name.to_string(), (v, unit.to_string()));
            }
            ["fact", key, value] => run.facts.push((key.to_string(), value.to_string())),
            ["failure", why] => println!("  {workload}: FAILED: {why}"),
            _ => {}
        }
    }
    Ok(run)
}

fn print_table(
    title: &str,
    names: impl Iterator<Item = &'static str>,
    set: &BTreeMap<&str, Metrics>,
) {
    println!("\n{title}");
    print!("{:<38}", "metric [unit]");
    for w in &WORKLOADS {
        print!(" {:>14}", w.name);
    }
    println!();
    for name in names {
        let unit = set
            .values()
            .find_map(|m| m.get(name))
            .map_or("", |(_, u)| u.as_str());
        print!("{:<38}", format!("{name} [{unit}]"));
        for w in &WORKLOADS {
            match set.get(w.name).and_then(|m| m.get(name)) {
                // Refuse to print a threads = 2 ratio measured on one core.
                Some(_) if name.contains(".t2_") && proc::cores_available() < 2 => {
                    print!(" {:>14}", "n/a (1 core)")
                }
                Some((v, _)) => print!(" {:>14}", format!("{v:.6}")),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
}

/// Compare the first half of the sets with the second half, metric by
/// metric, against the benchmark's own bounds.
fn compare(sets: &[BTreeMap<&str, Metrics>]) -> bool {
    let (first, second) = sets.split_at(sets.len() / 2);
    let group_median = |group: &[BTreeMap<&str, Metrics>], w: &str, m: &str| {
        let vals: Vec<f64> = group
            .iter()
            .filter_map(|s| s.get(w)?.get(m).map(|(v, _)| *v))
            .collect();
        median(&vals)
    };
    println!(
        "\ntwo-set comparison ({} + {} sets; worse-by is relative to the first median)",
        first.len(),
        second.len()
    );
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "worse-by", "bound"
    );
    let mut all_pass = true;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (a, b) = (
                group_median(first, w.name, m.name),
                group_median(second, w.name, m.name),
            );
            let worse = if m.lower_is_better { b - a } else { a - b } / a.abs();
            let verdict = if is_exact(w.name, m.name) {
                if a.to_bits() == b.to_bits() {
                    "pass (exact)"
                } else {
                    "FAIL (must match exactly)"
                }
            } else if worse <= m.bound {
                "pass"
            } else {
                "FAIL"
            };
            all_pass &= verdict.starts_with("pass");
            println!(
                "{:<14} {:<16} {a:>14.6} {b:>14.6} {:>8.2}% {:>6.0}%  {verdict}",
                w.name,
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
        }
    }
    all_pass
}

/// `out/report.json`: the box, the arguments, and every number of every
/// set, so a trajectory across PRs can be assembled from the artifacts.
fn write_artifact(args: &Args, sets: &[BTreeMap<&str, Metrics>], facts: &[(String, String)]) {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"cores_available\": {},", proc::cores_available());
    let _ = writeln!(out, "  \"kernel\": \"{}\",", proc::kernel_release());
    let _ = writeln!(
        out,
        "  \"data_dir_filesystem\": \"{}\",",
        proc::filesystem_of(&args.data_dir)
    );
    let _ = writeln!(out, "  \"seed\": {},", args.seed);
    let _ = writeln!(out, "  \"seconds\": {:?},", args.seconds);
    let _ = writeln!(out, "  \"smoke\": {},", args.smoke);
    out.push_str("  \"facts\": {");
    let rows: Vec<String> = facts
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('\\', "/").replace('"', "'")))
        .collect();
    out.push_str(&rows.join(", "));
    out.push_str("},\n  \"sets\": [\n");
    for (si, set) in sets.iter().enumerate() {
        out.push_str("    {");
        let per_workload: Vec<String> = set
            .iter()
            .map(|(w, metrics)| {
                let rows: Vec<String> = metrics
                    .iter()
                    .map(|(n, (v, u))| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
                    .collect();
                format!("\"{w}\": {{{}}}", rows.join(", "))
            })
            .collect();
        out.push_str(&per_workload.join(",\n     "));
        out.push_str(if si + 1 < sets.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ]\n}\n");
    let path = args.out_dir.join("report.json");
    match std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, out)) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("riot-benchmark: writing {}: {e}", path.display()),
    }
}

pub fn run(args: &Args) -> ExitCode {
    println!(
        "riot-benchmark: {} set(s), seed {}, {} core(s), kernel {}, data dir {} ({})",
        args.repeat,
        args.seed,
        proc::cores_available(),
        proc::kernel_release(),
        args.data_dir.display(),
        proc::filesystem_of(&args.data_dir),
    );
    let mut sets = Vec::new();
    let mut facts = Vec::new();
    let mut all_ok = true;
    for set_no in 1..=args.repeat {
        let mut set: BTreeMap<&str, Metrics> = BTreeMap::new();
        for w in &WORKLOADS {
            for trace in [false, true] {
                eprintln!(
                    "set {set_no}/{}: {} ({})",
                    args.repeat,
                    w.name,
                    if trace { "traced" } else { "untraced" }
                );
                match child(args, w.name, trace) {
                    Ok(run) => {
                        all_ok &= run.ok;
                        set.entry(w.name).or_default().extend(run.metrics);
                        facts.extend(
                            run.facts
                                .into_iter()
                                .map(|(k, v)| (format!("set{set_no}.{}.{k}", w.name), v)),
                        );
                    }
                    Err(e) => {
                        all_ok = false;
                        eprintln!("riot-benchmark: {e}");
                    }
                }
            }
        }
        print_table(
            &format!("set {set_no}: end-to-end (untraced pass)"),
            END_TO_END.iter().map(|m| m.name),
            &set,
        );
        print_table(
            &format!("set {set_no}: per layer (traced pass and probes; 0 = not measured on this workload)"),
            PER_LAYER.iter().map(|m| m.name),
            &set,
        );
        sets.push(set);
    }
    if sets.len() >= 2 {
        all_ok &= compare(&sets);
    }
    write_artifact(args, &sets, &facts);
    if all_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("riot-benchmark: FAILED (verification, a child process, or a bound)");
        ExitCode::FAILURE
    }
}
