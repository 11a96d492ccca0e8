//! The recovery-robustness table: the resurrection-supervisor ablation.
//!
//! Identical seeded faults are injected into the *recovery path itself*
//! (dead-memory chain cycles, resurrection-engine panics and stalls,
//! crash-kernel boot failures, panic storms, and checkpoint corruption:
//! stale epochs, torn A/B slots, poisoned descriptors); each experiment
//! runs with the supervisor on, off, and with rollback-in-place enabled,
//! showing which whole-microreboot failures the supervisor converts into
//! per-process degradations, clean restarts, or generation-2 escalations —
//! and which panics rung 0 absorbs without booting the crash kernel.

#![forbid(unsafe_code)]

use ow_bench::cli;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let experiments = cli::flag(&args, "--experiments").unwrap_or(40);
    let json_path: Option<String> = cli::flag(&args, "--json");
    let jobs = cli::flag(&args, "--jobs").unwrap_or(0);
    let seed = cli::seed(&args).unwrap_or(ow_bench::tables::RECOVERY_SEED);

    let result = ow_bench::tables::recovery_table(experiments, seed, jobs);

    let side_row = |label: &str, s: &ow_faultinject::RecoverySide| {
        vec![
            label.to_string(),
            s.rolled_back.to_string(),
            s.full.to_string(),
            s.degraded.to_string(),
            s.clean_restart.to_string(),
            s.gen2.to_string(),
            s.per_process_failure.to_string(),
            s.whole_failure.to_string(),
            s.survived().to_string(),
        ]
    };
    ow_bench::print_table(
        "Recovery robustness: supervisor/rollback ablation over injected recovery-time faults.",
        &[
            "Arm",
            "Rolled back",
            "Full resurrection",
            "Degraded",
            "Clean restart",
            "Gen-2 restart",
            "Per-process failure",
            "Whole-microreboot failure",
            "Machine survived",
        ],
        &[
            side_row("supervisor on", &result.with_supervisor),
            side_row("supervisor off", &result.without_supervisor),
            side_row("rollback", &result.with_rollback),
        ],
    );
    println!(
        "\n({} paired experiments; supervisor counters: {} contained panics, \
         {} watchdog firings; {} panics escaped microreboot())",
        result.experiments,
        result.with_supervisor.contained_panics,
        result.with_supervisor.watchdog_fires,
        result.panic_escapes,
    );

    if let Some(path) = json_path {
        cli::write_json(&path, &ow_bench::tables::recovery_json(&result));
    }
}
