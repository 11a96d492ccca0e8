//! Shared routines behind the `tableN` binaries, kept in the library so the
//! integration tests can assert on the numbers.

use crate::{boot_eval, perf};
use ow_apps::{make_workload, workload::TABLE5_APPS, Workload};
use ow_core::{
    microreboot, MicrorebootReport, MorphMode, OtherworldConfig, PolicySource, ResurrectionPolicy,
    ResurrectionStrategy,
};
use ow_faultinject::{
    run_campaign, run_recovery_campaign, CampaignConfig, CampaignResult, Outcome,
    RecoveryCampaignConfig, RecoveryCampaignResult, RecoverySide,
};
use ow_kernel::{Kernel, PanicCause, RobustnessFixes, SpawnSpec};
use ow_trace::json::Value;

/// One TLB-hardware variant of a Table 3 measurement.
#[derive(Debug, Clone, Copy)]
pub struct Table3Cell {
    /// Increase in TLB misses (percent).
    pub tlb_increase_pct: f64,
    /// Performance overhead (percent).
    pub overhead_pct: f64,
    /// Full TLB flushes in the protected measured window.
    pub flushes: u64,
    /// ASID tag switches in the protected measured window.
    pub asid_switches: u64,
    /// Single-page invalidations in the protected measured window.
    pub invalidations: u64,
}

/// Table 3 row: protection overhead for one workload, on tagged (ASID)
/// and untagged (flush-per-switch) TLB hardware.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Tagged-TLB hardware (the default machine).
    pub tagged: Table3Cell,
    /// Untagged hardware (the paper's measurement conditions).
    pub untagged: Table3Cell,
}

/// The three applications of the paper's Table 3.
const TABLE3_APPS: [&str; 3] = ["mysqld", "httpd", "volano"];

/// The paper's name for application `app`: its Table 2 name, or `shell`.
///
/// # Panics
///
/// Panics on an application the tables do not run.
fn app_label(app: &str) -> &'static str {
    let meta = match app {
        "vi" => ow_apps::vi::meta(),
        "joe" => ow_apps::joe::meta(),
        "mysqld" => ow_apps::minidb::meta(),
        "httpd" => ow_apps::webserv::meta(),
        "blcr" => ow_apps::blcr::meta(),
        "volano" => ow_apps::volano::meta(),
        "shell" => return "shell",
        other => panic!("no paper name for application {other}"),
    };
    meta.name
}

fn table3_cell(app: &str, measured_batches: u32, tlb_tagged: bool) -> Table3Cell {
    let row = perf::protection_overhead_on(
        |seed| make_workload(app, seed),
        11,
        8,
        measured_batches,
        tlb_tagged,
    );
    Table3Cell {
        tlb_increase_pct: row.tlb_miss_increase_pct(),
        overhead_pct: row.overhead_pct(),
        flushes: row.protected.tlb_flushes,
        asid_switches: row.protected.asid_switches,
        invalidations: row.protected.invalidations,
    }
}

/// Computes Table 3 (protection overhead for MySQL, Apache, Volano).
pub fn table3(measured_batches: u32) -> Vec<Table3Row> {
    table3_jobs(measured_batches, 1)
}

/// Computes Table 3 with the six app × hardware measurements sharded over
/// `jobs` workers (0 = auto). Deterministic: the output is byte-identical
/// for any worker count.
pub fn table3_jobs(measured_batches: u32, jobs: usize) -> Vec<Table3Row> {
    let coords: Vec<(usize, bool)> = (0..TABLE3_APPS.len())
        .flat_map(|a| [(a, true), (a, false)])
        .collect();
    let cells = ow_faultinject::parallel_map(jobs, &coords, |&(a, tagged), _| {
        table3_cell(TABLE3_APPS[a], measured_batches, tagged)
    });
    TABLE3_APPS
        .iter()
        .enumerate()
        .map(|(a, &app)| Table3Row {
            name: app_label(app),
            tagged: cells[a * 2].clone().expect("table3 cell"),
            untagged: cells[a * 2 + 1].clone().expect("table3 cell"),
        })
        .collect()
}

fn table3_cell_json(c: &Table3Cell) -> Value {
    Value::obj([
        ("tlb_miss_increase_pct", Value::from(c.tlb_increase_pct)),
        ("overhead_pct", Value::from(c.overhead_pct)),
        ("flushes", Value::from(c.flushes)),
        ("asid_switches", Value::from(c.asid_switches)),
        ("invalidations", Value::from(c.invalidations)),
    ])
}

/// Machine-readable Table 3 export (the committed `BENCH_table3.json`
/// perf-trajectory artifact).
pub fn table3_json(rows: &[Table3Row]) -> Value {
    let row_values: Vec<Value> = rows
        .iter()
        .map(|r| {
            Value::obj([
                ("application", Value::from(r.name)),
                ("tagged", table3_cell_json(&r.tagged)),
                ("untagged", table3_cell_json(&r.untagged)),
            ])
        })
        .collect();
    Value::obj([
        ("schema_version", Value::from(1u64)),
        ("bench", Value::from("table3")),
        ("rows", Value::Array(row_values)),
    ])
}

/// Table 4 row: resurrection read sizes for one application.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Application name.
    pub name: &'static str,
    /// Dead-kernel bytes read to resurrect the application.
    pub kernel_bytes: u64,
    /// Share of those bytes that were page tables.
    pub page_table_pct: f64,
    /// The application's virtual-footprint bytes (for the §4 ratio).
    pub footprint_bytes: u64,
}

/// Runs one app to steady state, crashes the kernel, and measures what the
/// crash kernel had to read (Table 4).
pub fn table4(batches_per_app: u32) -> Vec<Table4Row> {
    TABLE5_APPS
        .iter()
        .map(|&app| {
            let mut k = boot_eval(false);
            let mut w = make_workload(app, 4);
            let pid = w.start(&mut k, batches_per_app);
            let (present, swapped) = k.page_census(pid).unwrap_or((0, 0));
            let footprint = (present + swapped) * ow_simhw::PAGE_BYTES;
            k.do_panic(PanicCause::Oops("table4 measurement"));
            let config = OtherworldConfig {
                policy: PolicySource::Inline(ResurrectionPolicy::only([w.name()])),
                ..OtherworldConfig::default()
            };
            let (_k2, report) = microreboot(k, &config).expect("microreboot");
            // Table 4 is only credible if its byte accounting agrees with
            // the layout registry: every fixed-size bucket must hold a
            // whole number of registered records.
            let violations = report.stats.registry_check();
            assert!(
                violations.is_empty(),
                "Table 4 accounting disagrees with the layout registry: {violations:?}"
            );
            let pr = report.proc_named(w.name()).expect("resurrected");
            Table4Row {
                name: app_label(app),
                kernel_bytes: pr.bytes_read,
                page_table_pct: if pr.bytes_read == 0 {
                    0.0
                } else {
                    100.0 * pr.pt_bytes as f64 / pr.bytes_read as f64
                },
                footprint_bytes: footprint,
            }
        })
        .collect()
}

/// Default campaign seed for the pinned Table 5 / ablation numbers in
/// EXPERIMENTS.md (override with `--seed`).
pub const TABLE5_SEED: u64 = 0x07e5_2012;

/// Default campaign seed for the pinned recovery-robustness numbers.
pub const RECOVERY_SEED: u64 = 0x5ec0_4e4a;

/// Table 5 row: campaign results for one application, with and without
/// user-space protection (the corruption column reports both).
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Application name.
    pub name: &'static str,
    /// Campaign without protection (main columns).
    pub unprotected: CampaignResult,
    /// Campaign with protection (first number of the corruption column).
    pub protected: CampaignResult,
}

/// Runs the Table 5 campaigns. `jobs` is the sharded engine's worker count
/// (`0` = auto); every value produces byte-identical results.
pub fn table5(
    experiments: usize,
    fixes: RobustnessFixes,
    seed: u64,
    jobs: usize,
) -> Vec<Table5Row> {
    table5_in(
        experiments,
        fixes,
        seed,
        jobs,
        MorphMode::Cold,
        ResurrectionStrategy::CopyPages,
    )
}

/// [`table5`] under an explicit recovery configuration — the safety half of
/// the warm-morph claim reruns the whole corruption campaign in each of the
/// four (morph × strategy) configurations and expects identical outcome
/// shapes.
pub fn table5_in(
    experiments: usize,
    fixes: RobustnessFixes,
    seed: u64,
    jobs: usize,
    morph: MorphMode,
    strategy: ResurrectionStrategy,
) -> Vec<Table5Row> {
    TABLE5_APPS
        .iter()
        .map(|&app| {
            let base_cfg = CampaignConfig {
                effective_experiments: experiments,
                fixes,
                seed,
                jobs,
                morph,
                strategy,
                ..CampaignConfig::default()
            };
            let unprotected = run_campaign(|s| make_workload(app, s), &base_cfg);
            let prot_cfg = CampaignConfig {
                user_protection: true,
                ..base_cfg
            };
            let protected = run_campaign(|s| make_workload(app, s), &prot_cfg);
            Table5Row {
                name: app_label(app),
                unprotected,
                protected,
            }
        })
        .collect()
}

fn outcome_label(o: &Outcome) -> &'static str {
    match o {
        Outcome::NoCrash => "no_crash",
        Outcome::Success => "success",
        Outcome::BootFailure(_) => "boot_failure",
        Outcome::ResurrectFailure(_) => "resurrect_failure",
        Outcome::DataCorruption(_) => "data_corruption",
    }
}

fn campaign_json(c: &CampaignResult) -> Value {
    let records: Vec<Value> = c
        .records
        .iter()
        .map(|r| {
            Value::obj([
                ("outcome", Value::from(outcome_label(&r.outcome))),
                ("cause", Value::from(r.cause.as_str())),
            ])
        })
        .collect();
    Value::obj([
        ("effective", Value::from(c.effective as u64)),
        ("discarded", Value::from(c.discarded as u64)),
        ("success", Value::from(c.success as u64)),
        ("boot_failure", Value::from(c.boot_failure as u64)),
        ("resurrect_failure", Value::from(c.resurrect_failure as u64)),
        ("data_corruption", Value::from(c.data_corruption as u64)),
        ("success_pct", Value::from(c.success_pct())),
        ("boot_failure_pct", Value::from(c.boot_failure_pct())),
        (
            "resurrect_failure_pct",
            Value::from(c.resurrect_failure_pct()),
        ),
        ("data_corruption_pct", Value::from(c.data_corruption_pct())),
        ("wild_writes_landed", Value::from(c.damage.landed as u64)),
        ("wild_writes_trapped", Value::from(c.damage.trapped as u64)),
        ("wild_writes_blocked", Value::from(c.damage.blocked as u64)),
        (
            "wild_write_victims",
            Value::obj(
                c.damage
                    .victims
                    .iter()
                    .map(|(&name, &n)| (name, Value::from(n as u64))),
            ),
        ),
        ("flight_events", c.flight.to_json()),
        ("records", Value::Array(records)),
    ])
}

/// JSON form of the Table 5 rows: every campaign's aggregate counts plus
/// each effective experiment's trace-derived cause annotation, and — as a
/// worked example of the flight-recorder pipeline — one full recovered
/// flight record (events + metrics) from a seeded clean-panic microreboot.
pub fn table5_json(rows: &[Table5Row]) -> Value {
    let row_values: Vec<Value> = rows
        .iter()
        .map(|r| {
            Value::obj([
                ("application", Value::from(r.name)),
                ("unprotected", campaign_json(&r.unprotected)),
                ("protected", campaign_json(&r.protected)),
            ])
        })
        .collect();
    let sample = one_microreboot("vi", 6, &OtherworldConfig::default());
    Value::obj([
        ("schema_version", Value::from(1u64)),
        ("bench", Value::from("table5")),
        ("rows", Value::Array(row_values)),
        ("sample_flight", sample.flight.to_json()),
        ("sample_timings", sample.timings_json()),
    ])
}

/// Runs the recovery-robustness campaign (the resurrection-supervisor
/// ablation: identical seeded recovery-time faults, supervisor on vs off).
/// `jobs` is the sharded engine's worker count (`0` = auto).
pub fn recovery_table(experiments: usize, seed: u64, jobs: usize) -> RecoveryCampaignResult {
    run_recovery_campaign(&RecoveryCampaignConfig {
        experiments,
        seed,
        jobs,
    })
}

fn recovery_side_json(s: &RecoverySide, experiments: usize) -> Value {
    let survived_pct = if experiments == 0 {
        0.0
    } else {
        100.0 * s.survived() as f64 / experiments as f64
    };
    Value::obj([
        ("rolled_back", Value::from(s.rolled_back as u64)),
        ("full_resurrection", Value::from(s.full as u64)),
        ("degraded", Value::from(s.degraded as u64)),
        ("clean_restart", Value::from(s.clean_restart as u64)),
        ("gen2_restart", Value::from(s.gen2 as u64)),
        (
            "per_process_failure",
            Value::from(s.per_process_failure as u64),
        ),
        ("whole_failure", Value::from(s.whole_failure as u64)),
        ("survived", Value::from(s.survived() as u64)),
        ("survived_pct", Value::from(survived_pct)),
        ("contained_panics", Value::from(s.contained_panics)),
        ("watchdog_fires", Value::from(s.watchdog_fires)),
    ])
}

/// JSON form of the recovery-robustness table: both ablation sides plus the
/// per-experiment paired records.
pub fn recovery_json(r: &RecoveryCampaignResult) -> Value {
    let records: Vec<Value> = r
        .records
        .iter()
        .map(|rec| {
            Value::obj([
                ("fault", Value::from(rec.fault.name())),
                ("with_supervisor", Value::from(rec.with_supervisor.name())),
                (
                    "without_supervisor",
                    Value::from(rec.without_supervisor.name()),
                ),
                ("with_rollback", Value::from(rec.with_rollback.name())),
            ])
        })
        .collect();
    Value::obj([
        ("schema_version", Value::from(2u64)),
        ("bench", Value::from("recovery")),
        ("experiments", Value::from(r.experiments as u64)),
        (
            "with_supervisor",
            recovery_side_json(&r.with_supervisor, r.experiments),
        ),
        (
            "without_supervisor",
            recovery_side_json(&r.without_supervisor, r.experiments),
        ),
        (
            "with_rollback",
            recovery_side_json(&r.with_rollback, r.experiments),
        ),
        ("panic_escapes", Value::from(r.panic_escapes as u64)),
        ("records", Value::Array(records)),
    ])
}

fn shell_operational(k: &mut Kernel, term: u32) -> bool {
    // Operational = the shell echoes a probe keystroke.
    let _ = k.term_input(term, b"k");
    for _ in 0..16 {
        k.run_step();
    }
    k.term_screen(term)
        .map(|s| s.contains(&b'k'))
        .unwrap_or(false)
}

/// One Table 6 recovery configuration: a (morph, strategy) pair — one
/// column of the warm-morph matrix.
#[derive(Debug, Clone, Copy)]
pub struct Table6Mode {
    /// Stable column name (`cold_eager` .. `rollback`).
    pub name: &'static str,
    /// Morph mode the microreboot runs under.
    pub morph: ow_core::MorphMode,
    /// Page materialization strategy.
    pub strategy: ow_core::ResurrectionStrategy,
    /// Whether rollback-in-place (rung 0) is enabled. The morph/strategy
    /// pair then only governs the fall-through path, which a healthy
    /// checkpoint never takes.
    pub rollback: bool,
}

/// The recovery matrix: the paper's cold/eager pipeline, each optimization
/// alone, both together, and rollback-in-place (rung 0) on top.
pub const TABLE6_MODES: [Table6Mode; 5] = [
    Table6Mode {
        name: "cold_eager",
        morph: ow_core::MorphMode::Cold,
        strategy: ow_core::ResurrectionStrategy::CopyPages,
        rollback: false,
    },
    Table6Mode {
        name: "cold_lazy",
        morph: ow_core::MorphMode::Cold,
        strategy: ow_core::ResurrectionStrategy::Lazy,
        rollback: false,
    },
    Table6Mode {
        name: "warm_eager",
        morph: ow_core::MorphMode::Warm,
        strategy: ow_core::ResurrectionStrategy::CopyPages,
        rollback: false,
    },
    Table6Mode {
        name: "warm_lazy",
        morph: ow_core::MorphMode::Warm,
        strategy: ow_core::ResurrectionStrategy::Lazy,
        rollback: false,
    },
    Table6Mode {
        name: "rollback",
        morph: ow_core::MorphMode::Warm,
        strategy: ow_core::ResurrectionStrategy::Lazy,
        rollback: true,
    },
];

/// The Table 6 workloads, smallest to largest footprint.
pub const TABLE6_APPS: [&str; 3] = ["shell", "mysqld", "httpd"];

/// One measured cell of the Table 6 matrix.
#[derive(Debug, Clone)]
pub struct Table6Cell {
    /// The recovery configuration measured.
    pub mode: Table6Mode,
    /// Seconds from the kernel failure to the workload being operational.
    pub interruption_seconds: f64,
    /// What the morph adopted (all false in the cold columns).
    pub adoption: ow_core::AdoptionSummary,
}

/// One application row of the Table 6 matrix: the cold-boot baseline plus
/// the service interruption under each of [`TABLE6_MODES`].
#[derive(Debug, Clone)]
pub struct Table6MatrixRow {
    /// Application name.
    pub name: &'static str,
    /// Seconds from power-on to the workload being operational.
    pub boot_seconds: f64,
    /// Per-mode interruption, in [`TABLE6_MODES`] order.
    pub cells: Vec<Table6Cell>,
}

/// Runs one (app, mode) simulation: cold boot to operational, steady
/// state, kernel failure, microreboot under `mode`, back to operational.
pub fn table6_measure(
    app: &'static str,
    fast_crash_boot: bool,
    mode: Table6Mode,
) -> (f64, Table6Cell) {
    // --- Cold boot to operational ---
    let mut k = boot_eval(false);
    let (boot_seconds, mut w_opt, pid) = if app == "shell" {
        let term = k.create_terminal().expect("terminal");
        let mut spec = SpawnSpec::new("shell", Box::new(ow_apps::shell::Shell));
        spec.term = Some(term);
        let pid = ow_apps::exec(&mut k, spec, &[]);
        assert!(shell_operational(&mut k, term));
        (k.seconds(), None, pid)
    } else {
        let mut w = make_workload(app, 21);
        let pid = w.start(&mut k, 1); // first request served
        (k.seconds(), Some(w), pid)
    };

    // --- Steady state, then failure ---
    if let Some(w) = w_opt.as_mut() {
        for _ in 0..5 {
            w.drive(&mut k, pid);
        }
    }
    let t_fail = k.seconds();
    k.do_panic(PanicCause::Oops("table6 failure"));
    let config = OtherworldConfig {
        morph: mode.morph,
        strategy: mode.strategy,
        // Table 6 resurrects every resource class so the apps' crash
        // procedures can take the §3.4 continue-in-place route; the
        // interruption then measures the recovery pipeline, not an
        // app-level dump-and-restart tail common to all four modes.
        resurrect_sockets: true,
        resurrect_pipes: true,
        rollback: mode.rollback,
        crash_kernel: ow_kernel::KernelConfig {
            fast_crash_boot,
            ..ow_kernel::KernelConfig::default()
        },
        ..OtherworldConfig::default()
    };
    let (mut k2, report) = microreboot(k, &config).expect("microreboot");

    // --- Back to operational ---
    if app == "shell" {
        let new_pid = k2.procs.first().map(|p| p.pid).expect("shell resurrected");
        let term = k2.read_desc(new_pid).map(|d| d.term_id).unwrap_or(0);
        assert!(shell_operational(&mut k2, term));
    } else if let Some(w) = w_opt.as_mut() {
        let new_pid = k2.procs.first().map(|p| p.pid).expect("app alive");
        w.settle(&mut k2, new_pid);
        w.drive(&mut k2, new_pid);
    }
    let interruption_seconds = k2.seconds() - t_fail;

    (
        boot_seconds,
        Table6Cell {
            mode,
            interruption_seconds,
            adoption: report.adoption,
        },
    )
}

/// The full warm-morph matrix: every app under every recovery mode. Each
/// (app, mode) cell is an independent deterministic simulation, so the
/// sharded engine reassembles the matrix byte-identically for any worker
/// count.
pub fn table6_matrix(jobs: usize) -> Vec<Table6MatrixRow> {
    let coords: Vec<(usize, usize)> = (0..TABLE6_APPS.len())
        .flat_map(|a| (0..TABLE6_MODES.len()).map(move |m| (a, m)))
        .collect();
    let measured = ow_faultinject::parallel_map(jobs, &coords, |&(a, m), _| {
        table6_measure(TABLE6_APPS[a], false, TABLE6_MODES[m])
    });
    TABLE6_APPS
        .iter()
        .enumerate()
        .map(|(a, &app)| {
            let mut boot_seconds = 0.0;
            let cells = (0..TABLE6_MODES.len())
                .map(|m| {
                    let (boot, cell) = measured[a * TABLE6_MODES.len() + m]
                        .clone()
                        .expect("table6 cell");
                    boot_seconds = boot;
                    cell
                })
                .collect();
            Table6MatrixRow {
                name: app_label(app),
                boot_seconds,
                cells,
            }
        })
        .collect()
}

fn mode_cell<'a>(row: &'a Table6MatrixRow, name: &str) -> &'a Table6Cell {
    row.cells
        .iter()
        .find(|c| c.mode.name == name)
        .expect("mode cell")
}

/// The headline number: how much faster warm+lazy recovers the largest
/// app (the last of [`TABLE6_APPS`]) than the paper's cold/eager pipeline.
pub fn table6_headline(rows: &[Table6MatrixRow]) -> f64 {
    let row = rows.last().expect("rows");
    let cold = mode_cell(row, "cold_eager").interruption_seconds;
    let warm = mode_cell(row, "warm_lazy").interruption_seconds;
    if warm > 0.0 {
        cold / warm
    } else {
        f64::INFINITY
    }
}

/// The rung-0 headline: how much lower rollback-in-place drives the
/// largest app's interruption than the paper's cold/eager microreboot.
pub fn table6_rollback_headline(rows: &[Table6MatrixRow]) -> f64 {
    let row = rows.last().expect("rows");
    let cold = mode_cell(row, "cold_eager").interruption_seconds;
    let rb = mode_cell(row, "rollback").interruption_seconds;
    if rb > 0.0 {
        cold / rb
    } else {
        f64::INFINITY
    }
}

fn adoption_json(a: &ow_core::AdoptionSummary) -> Value {
    Value::obj([
        ("frames", Value::from(a.frames)),
        ("swap", Value::from(a.swap)),
        ("cache", Value::from(a.cache)),
    ])
}

/// JSON form of the Table 6 matrix, pinned by `BENCH_table6.json`.
pub fn table6_json(rows: &[Table6MatrixRow]) -> Value {
    let row_values: Vec<Value> = rows
        .iter()
        .map(|r| {
            Value::obj([
                ("application", Value::from(r.name)),
                ("boot_seconds", Value::from(r.boot_seconds)),
                (
                    "modes",
                    Value::obj(r.cells.iter().map(|c| {
                        (
                            c.mode.name,
                            Value::obj([
                                ("interruption_seconds", Value::from(c.interruption_seconds)),
                                ("adoption", adoption_json(&c.adoption)),
                            ]),
                        )
                    })),
                ),
            ])
        })
        .collect();
    Value::obj([
        ("schema_version", Value::from(2u64)),
        ("bench", Value::from("table6")),
        ("rows", Value::Array(row_values)),
        ("headline_speedup", Value::from(table6_headline(rows))),
        (
            "rollback_speedup",
            Value::from(table6_rollback_headline(rows)),
        ),
    ])
}

/// One microreboot of a driven app, returning the report (the sample flight
/// record of the Table 5 export).
pub fn one_microreboot(app: &str, batches: u32, config: &OtherworldConfig) -> MicrorebootReport {
    let mut k = boot_eval(false);
    make_workload(app, 17).start(&mut k, batches);
    k.do_panic(PanicCause::Oops("bench"));
    let (_k2, report) = microreboot(k, config).expect("microreboot");
    report
}
