//! Benchmark harness for the Otherworld evaluation.
//!
//! One binary per table of the paper (`table2` .. `table6`) regenerates the
//! corresponding results on the simulator substrate, `claims` the in-text
//! claims (§5.4 checkpointing, footnote 3's copy-vs-map ablation, §4's
//! checksum overhead), `recovery` the supervisor ablation and `crashpoints`
//! the crash-point matrix. Every binary parses its flags through [`cli`].
//! Host time is measured by the separate `benchmark/` package.

#![forbid(unsafe_code)]

pub mod cli;
pub mod perf;
pub mod tables;

use ow_kernel::{Kernel, KernelConfig};
use ow_simhw::{machine::MachineConfig, CostModel};

/// The machine used for performance evaluation (costs enabled).
pub fn eval_machine_config() -> MachineConfig {
    MachineConfig {
        ram_frames: 8192, // 32 MiB
        cpus: 2,
        tlb_entries: 64,
        tlb_tagged: true,
        cost: CostModel::default(),
    }
}

/// Boots an evaluation kernel with the full application registry.
pub fn boot_eval(user_protection: bool) -> Kernel {
    let config = KernelConfig {
        user_protection,
        ..KernelConfig::default()
    };
    ow_apps::boot(eval_machine_config(), config).expect("boot")
}

/// Formats a table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::from("|");
    for (c, w) in cells.iter().zip(widths) {
        out.push_str(&format!(" {c:<w$} |", w = w));
    }
    out
}

/// Prints a full table with a header rule.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    println!("\n{title}");
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", row(&head, &widths));
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("{}", row(&rule, &widths));
    for r in rows {
        println!("{}", row(r, &widths));
    }
}
