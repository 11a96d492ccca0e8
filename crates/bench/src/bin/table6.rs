//! Regenerates Table 6: service interruption time (seconds).
//!
//! By default this measures the full recovery matrix — every workload
//! under each of the five recovery configurations (cold/warm morph ×
//! eager/lazy resurrection, plus rollback-in-place, the ladder's rung 0).
//! `--json PATH` writes the machine-readable matrix (pinned by
//! `BENCH_table6.json`); `--jobs N` shards the matrix cells across workers
//! with byte-identical output.

#![forbid(unsafe_code)]

use ow_bench::cli;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path: Option<String> = cli::flag(&args, "--json");
    let jobs = cli::flag(&args, "--jobs").unwrap_or(0);

    let rows = ow_bench::tables::table6_matrix(jobs);
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut cols = vec![r.name.to_string(), format!("{:.0}", r.boot_seconds)];
            cols.extend(
                r.cells
                    .iter()
                    .map(|c| format!("{:.1}", c.interruption_seconds)),
            );
            cols
        })
        .collect();
    ow_bench::print_table(
        "Table 6. Service interruption time (seconds) under each recovery mode.",
        &[
            "Application",
            "Boot time",
            "cold/eager",
            "cold/lazy",
            "warm/eager",
            "warm/lazy",
            "rollback",
        ],
        &printable,
    );
    println!(
        "\n(headline: warm+lazy recovers the largest app {:.1}x faster than cold/eager; \
         rollback-in-place absorbs the panic {:.0}x faster than cold/eager)",
        ow_bench::tables::table6_headline(&rows),
        ow_bench::tables::table6_rollback_headline(&rows)
    );

    if let Some(path) = json_path {
        cli::write_json(&path, &ow_bench::tables::table6_json(&rows));
    }
}
