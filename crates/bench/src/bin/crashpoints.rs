//! The crash-point campaign driver: every labeled crash point × every
//! Table 5 application × every protection mode, deterministically sharded.
//!
//! ```text
//! crashpoints                          # full matrix
//! crashpoints --app vi --mode unprotected   # one slice
//! crashpoints --point recovery.resurrect.vma.rebuild --app vi --mode protected
//! crashpoints --list                   # print the registry
//! crashpoints --discover --app vi      # count-only discovery pass
//! crashpoints --morph warm --strategy lazy  # rerun under warm/lazy recovery
//! crashpoints --rollback               # rerun with rollback-in-place (rung 0)
//! ```
//!
//! Exits non-zero when any cell's outcome violates the per-point policy.

#![forbid(unsafe_code)]

use ow_bench::cli;
use ow_faultinject::crashpoint::{
    campaign_crashpoints, crashpoints_json, discover_points, CrashpointCampaignConfig,
    CRASHPOINT_SEED,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();

    if cli::switch(&args, "--list") {
        println!("{} registered crash points:", ow_crashpoint::REGISTRY.len());
        for p in ow_crashpoint::REGISTRY {
            println!("  {:<40} [{}]", p.label, p.area.name());
        }
        return;
    }

    let seed = cli::seed(&args).unwrap_or(CRASHPOINT_SEED);
    let apps: Vec<String> = cli::flag(&args, "--app").into_iter().collect();
    let points: Vec<String> = cli::flag(&args, "--point").into_iter().collect();
    let json_path: Option<String> = cli::flag(&args, "--json");
    let modes: Vec<bool> = match cli::flag::<String>(&args, "--mode").as_deref() {
        Some("protected") => vec![true],
        Some("unprotected") => vec![false],
        Some(other) => {
            eprintln!("unknown --mode {other} (use protected|unprotected)");
            std::process::exit(2);
        }
        None => Vec::new(),
    };

    if cli::switch(&args, "--discover") {
        let apps = if apps.is_empty() {
            ow_apps::workload::TABLE5_APPS
                .iter()
                .map(|a| a.to_string())
                .collect()
        } else {
            apps
        };
        let modes = if modes.is_empty() {
            vec![false, true]
        } else {
            modes
        };
        for app in &apps {
            for &protected in &modes {
                let mode = if protected {
                    "protected"
                } else {
                    "unprotected"
                };
                let hits = discover_points(app, protected, seed);
                println!("{app} ({mode}): {} points reached", hits.len());
                for (label, n) in hits {
                    println!("  {label:<40} x{n}");
                }
            }
        }
        return;
    }

    let cfg = CrashpointCampaignConfig {
        points,
        apps,
        modes,
        seed,
        jobs: cli::flag(&args, "--jobs").unwrap_or(0),
        morph: cli::flag(&args, "--morph").unwrap_or(ow_core::MorphMode::Cold),
        strategy: cli::flag(&args, "--strategy")
            .unwrap_or(ow_core::ResurrectionStrategy::CopyPages),
        rollback: cli::switch(&args, "--rollback"),
    };
    let t0 = std::time::Instant::now();
    let res = campaign_crashpoints(&cfg);
    let wall = t0.elapsed();

    let rows: Vec<Vec<String>> = res
        .by_kind()
        .into_iter()
        .map(|(k, n)| vec![k.to_string(), n.to_string()])
        .collect();
    ow_bench::print_table(
        "Crash-point campaign: labeled crash x app x protection mode.",
        &["Outcome", "Cells"],
        &rows,
    );
    println!(
        "\n({} cells, {} unexpected; every cell reproducible via --point/--app/--mode)",
        res.cells.len(),
        res.unexpected
    );
    for c in res.cells.iter().filter(|c| !c.expected) {
        println!(
            "  UNEXPECTED {} x {} ({}) -> {}: {}",
            c.spec.label,
            c.spec.app,
            if c.spec.protected {
                "protected"
            } else {
                "unprotected"
            },
            c.outcome.kind(),
            c.outcome.detail()
        );
    }
    eprintln!(
        "[{} worker(s), {:.1}s wall; output is byte-identical for any --jobs]",
        ow_faultinject::resolve_jobs(cfg.jobs),
        wall.as_secs_f64()
    );

    if let Some(path) = json_path {
        cli::write_json(&path, &crashpoints_json(&cfg, &res));
    }

    if res.unexpected > 0 {
        std::process::exit(1);
    }
}
