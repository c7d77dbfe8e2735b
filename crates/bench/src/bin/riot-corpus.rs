//! The workload-corpus runner: executes every corpus R script's `full`
//! profile across all four engines at thread counts {1, 4} and prefetch
//! {0, AUTO}, asserting byte-identical output in every cell and the
//! manifests' exact counted-I/O budgets. The `test` profiles are gated
//! by `crates/bench/tests/corpus_budgets.rs` under `cargo test`; this
//! binary is the only place the `full` budgets (the only ones with
//! non-zero Plain R paging) are checked. It writes nothing.
//!
//! `--update` re-measures and rewrites the manifests — unless some cell
//! would read or write **more** than it is pinned at: counted I/O may only
//! decrease, so the offending cells are printed, nothing is written, and
//! the exit code is 1 (raising a budget on purpose is an edit of the
//! manifest by hand, visible in review).
//!
//! ```text
//! cargo run --release -p riot-bench --bin riot-corpus              # gate the full profiles
//! cargo run --release -p riot-bench --bin riot-corpus -- --update  # regenerate budgets/checksums
//! ```

use riot_bench::corpus::{self, measure_profile, verify_workload, WorkloadReport};
use riot_core::EngineKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = args.iter().find(|a| a.as_str() != "--update") {
        eprintln!("unknown flag: {unknown} (expected --update or nothing)");
        std::process::exit(2);
    }
    if !args.is_empty() {
        update_manifests();
        return;
    }

    println!("RIOT workload corpus — profile 'full'\n");
    let workloads = corpus::workloads();
    for w in &workloads {
        println!("== {} — {}", w.name, w.manifest.description);
        print_workload_table(&verify_workload(w, "full"));
    }
    println!(
        "all {} workloads green: cross-engine outputs identical, budgets exact in every cell",
        workloads.len()
    );
}

/// Per-workload result table: each engine's counted I/O (identical in
/// every thread/prefetch cell — `verify_workload` asserted that).
fn print_workload_table(report: &WorkloadReport) {
    println!("   {:<22} {:>9} {:>9}", "engine", "reads", "writes");
    for engine in [
        EngineKind::PlainR,
        EngineKind::Strawman,
        EngineKind::MatNamed,
        EngineKind::Riot,
    ] {
        if let Some(c) = report.cells.iter().find(|c| c.cell.engine == engine) {
            println!(
                "   {:<22} {:>9} {:>9}",
                engine.label(),
                c.io.reads,
                c.io.writes
            );
        }
    }
    println!("   checksum {:#018x}\n", report.checksum);
}

/// Re-measure every profile of every workload and rewrite the manifest
/// files with fresh checksums and budgets — all of them, or, when any
/// cell's counted I/O went up, none.
fn update_manifests() {
    let (mut measured, mut raised) = (Vec::new(), Vec::new());
    for w in corpus::workloads() {
        let mut manifest = w.manifest.clone();
        for profile in &mut manifest.profiles {
            let (checksum, budgets) = measure_profile(&w, profile);
            profile.checksum = checksum;
            for (engine, budget) in budgets {
                profile.set_budget(engine, budget);
            }
            println!(
                "{:<8} [{}] checksum {:#018x}  {}",
                w.name,
                profile.name,
                checksum,
                profile
                    .budgets
                    .iter()
                    .map(|(slug, b)| format!("{slug}={}r/{}w", b.reads, b.writes))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
        }
        let cells = w.manifest.raised_cells(&manifest);
        raised.extend(cells.into_iter().map(|cell| format!("{} {cell}", w.name)));
        measured.push((w.manifest_path, manifest));
    }
    if !raised.is_empty() {
        eprintln!("counted I/O may only decrease; nothing written. Raised cells:");
        raised.iter().for_each(|cell| eprintln!("  {cell}"));
        std::process::exit(1);
    }
    for (path, manifest) in measured {
        std::fs::write(path, manifest.render()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    }
    println!(
        "manifests rewritten; verify with `cargo test -p riot-bench` and a plain `riot-corpus` run"
    );
}
