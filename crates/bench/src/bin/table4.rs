//! Regenerates Table 4: size of the data read by the crash kernel during
//! the resurrection process, plus §4's footprint ratio. `--batches N` sets
//! how long each application runs before the crash (default 120).

#![forbid(unsafe_code)]

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let batches = ow_bench::cli::flag(&args, "--batches").unwrap_or(120);
    let rows = ow_bench::tables::table4(batches);
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{:.0} KB", r.kernel_bytes as f64 / 1024.0),
                format!("{:.0}%", r.page_table_pct),
            ]
        })
        .collect();
    ow_bench::print_table(
        "Table 4. Size of the data read by the crash kernel during the \
         resurrection process.",
        &["Application", "Kernel memory", "Page tables"],
        &printable,
    );

    println!(
        "\n§4 claim: resurrection-critical data is a vanishing share of the \
         virtual address space ({} MiB here; 3 GiB in the paper)",
        ow_simhw::paging::VA_LIMIT / (1024 * 1024)
    );
    for r in &rows {
        let pct = 100.0 * r.kernel_bytes as f64 / ow_simhw::paging::VA_LIMIT as f64;
        println!(
            "  {:>7}: {:>8} bytes critical ({:>8} bytes resident) = {:.4}% of the address space",
            r.name, r.kernel_bytes, r.footprint_bytes, pct
        );
    }
}
