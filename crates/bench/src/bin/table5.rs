//! Regenerates Table 5: results of the resurrection experiments, and (with
//! `--ablation`) the §6 robustness-fix ablation (89% → 97%).
//!
//! `--morph cold|warm` and `--strategy copy|map|lazy` rerun the whole
//! campaign under one of the four recovery configurations; the warm-morph
//! safety claim is that every configuration reports the same outcomes.

#![forbid(unsafe_code)]

use ow_bench::cli;
use ow_kernel::RobustnessFixes;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let experiments = cli::flag(&args, "--experiments").unwrap_or(400);
    let ablation = cli::switch(&args, "--ablation");
    let json_path: Option<String> = cli::flag(&args, "--json");
    let jobs = cli::flag(&args, "--jobs").unwrap_or(0);
    let seed = cli::seed(&args).unwrap_or(ow_bench::tables::TABLE5_SEED);
    let morph = cli::flag(&args, "--morph").unwrap_or(ow_core::MorphMode::Cold);
    let strategy =
        cli::flag(&args, "--strategy").unwrap_or(ow_core::ResurrectionStrategy::CopyPages);

    let fixes = if ablation {
        RobustnessFixes::legacy()
    } else {
        RobustnessFixes::default()
    };
    let t0 = std::time::Instant::now();
    let rows = ow_bench::tables::table5_in(experiments, fixes, seed, jobs, morph, strategy);
    let wall = t0.elapsed();

    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let u = &r.unprotected;
            let p = &r.protected;
            vec![
                r.name.to_string(),
                format!("{:.2}%", u.success_pct()),
                format!("{:.2}%", u.boot_failure_pct()),
                format!("{:.2}%", u.resurrect_failure_pct()),
                format!(
                    "{:.2}% / {:.2}%",
                    p.data_corruption_pct(),
                    u.data_corruption_pct()
                ),
            ]
        })
        .collect();
    let title = if ablation {
        "Table 5 (ablation: §6 fixes DISABLED — the paper's initial 89% configuration)."
    } else {
        "Table 5. Results of resurrection experiments."
    };
    ow_bench::print_table(
        title,
        &[
            "Application",
            "Successful resurrection",
            "Failure to boot the crash kernel",
            "Failure to resurrect application",
            "Data corruption with / without user space protected",
        ],
        &printable,
    );
    println!(
        "\n({} effective experiments per application per mode; ~20% quiet \
         experiments discarded, as in §6)",
        experiments
    );
    eprintln!(
        "[{} worker(s), {:.1}s wall; output is byte-identical for any --jobs]",
        ow_faultinject::resolve_jobs(jobs),
        wall.as_secs_f64()
    );

    // Machine-readable export: aggregates, per-experiment trace-derived
    // cause annotations, and one full recovered flight record.
    if let Some(path) = json_path {
        cli::write_json(&path, &ow_bench::tables::table5_json(&rows));
    }
}
