//! Regenerates Table 3: performance overhead of enabling user memory space
//! protection while executing system calls, on tagged (ASID) and untagged
//! (flush-per-switch) TLB hardware.

#![forbid(unsafe_code)]

use ow_bench::cli;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let batches = cli::flag(&args, "--batches").unwrap_or(200);
    let json_path: Option<String> = cli::flag(&args, "--json");
    let jobs = cli::flag(&args, "--jobs").unwrap_or(0);

    let rows = ow_bench::tables::table3_jobs(batches, jobs);
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{:.0}%", r.tagged.tlb_increase_pct),
                format!("{:.1}%", r.tagged.overhead_pct),
                format!("{:.0}%", r.untagged.tlb_increase_pct),
                format!("{:.1}%", r.untagged.overhead_pct),
            ]
        })
        .collect();
    ow_bench::print_table(
        "Table 3. Performance overhead of enabling user memory space protection \
         while executing system calls (tagged vs untagged TLB).",
        &[
            "Benchmark",
            "TLB miss increase (tagged)",
            "Overhead (tagged)",
            "TLB miss increase (untagged)",
            "Overhead (untagged)",
        ],
        &printable,
    );

    if let Some(path) = json_path {
        cli::write_json(&path, &ow_bench::tables::table3_json(&rows));
    }
}
