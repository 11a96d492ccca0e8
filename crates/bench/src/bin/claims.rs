//! Regenerates the in-text quantitative claims that are not in a numbered
//! table: §5.4's "in-memory checkpointing is ~10x faster than disk" and
//! footnote 3's "mapping instead of copying significantly speeds up
//! resurrection of large processes".

#![forbid(unsafe_code)]

use ow_apps::blcr::{BlcrWorkload, CkptMode};
use ow_apps::{make_workload, Workload};
use ow_core::{LadderRung, OtherworldConfig, ProcReport, ResurrectionStrategy};
use ow_faultinject::parallel_map;
use ow_kernel::KernelConfig;

/// Simulated cycles consumed by one full checkpoint in the given mode.
fn checkpoint_cycles(pages: u64, mode: CkptMode) -> u64 {
    let mut k = ow_bench::boot_eval(false);
    let mut w = BlcrWorkload::new(pages, mode);
    w.setup(&mut k);
    // One full pass is `pages` steps; a checkpoint fires at the end of
    // every CKPT_PERIOD-th pass. Measure the *second* checkpoint — the
    // steady state, after the file's blocks are allocated.
    let steps_to_ckpt = pages * ow_apps::blcr::CKPT_PERIOD * 2;
    for _ in 0..steps_to_ckpt - 1 {
        k.run_step();
    }
    let before = k.machine.clock.now();
    k.run_step(); // the checkpointing step
    let ckpt = k.machine.clock.now() - before;
    // Subtract the cost of a plain (non-checkpoint) step.
    let before = k.machine.clock.now();
    k.run_step();
    let plain = k.machine.clock.now() - before;
    ckpt.saturating_sub(plain)
}

/// Cycles to drive one workload window under a kernel config.
fn window_cycles(config: KernelConfig, app: &str, batches: u32) -> u64 {
    let mut k = ow_apps::boot(ow_bench::eval_machine_config(), config).expect("boot");
    let mut w = make_workload(app, 13);
    let pid = w.start(&mut k, 8);
    let c0 = k.machine.clock.now();
    for _ in 0..batches {
        w.drive(&mut k, pid);
    }
    k.machine.clock.now() - c0
}

/// Footnote-3 measurement for one page count and strategy.
fn materialization(pages: u64, strategy: ResurrectionStrategy) -> (f64, ProcReport) {
    let mut k = ow_bench::boot_eval(false);
    let spec = ow_kernel::SpawnSpec::new("blcr", Box::new(ow_apps::blcr::Blcr));
    ow_apps::exec(&mut k, spec, &[pages.to_string(), "memory".to_string()]);
    // Touch all data pages once.
    for _ in 0..pages {
        k.run_step();
    }
    k.do_panic(ow_kernel::PanicCause::Oops("claims"));
    let config = OtherworldConfig {
        strategy,
        ..OtherworldConfig::default()
    };
    let (_k2, report) = ow_core::microreboot(k, &config).expect("microreboot");
    (report.resurrection_seconds, report.procs[0].clone())
}

/// One strategy's footnote-3 cell: the resurrection time and page count,
/// or, when the supervisor had to degrade the process, the rung it ended
/// on — a weaker rung's time is not a materialization time.
fn materialized(strategy: ResurrectionStrategy, seconds: f64, report: &ProcReport) -> String {
    let (pages, verb) = match strategy {
        ResurrectionStrategy::CopyPages => (report.pages_copied, "copied"),
        _ => (report.pages_mapped, "mapped"),
    };
    if report.rung == LadderRung::Full {
        format!("{strategy:?} {seconds:.4}s ({pages} {verb})")
    } else {
        format!(
            "{strategy:?} ended on {} after {} attempts",
            report.rung.name(),
            report.attempts
        )
    }
}

fn main() {
    // Every sweep below is a fixed list of independent simulator runs, so
    // they ride the same deterministic parallel engine as the campaigns
    // (`--jobs N`; output is identical for every job count because results
    // are merged in item order before printing).
    let args: Vec<String> = std::env::args().collect();
    let jobs = ow_bench::cli::flag(&args, "--jobs").unwrap_or(0);

    println!("§5.4: in-memory vs on-disk checkpointing (simulated cycles per checkpoint)");
    let ckpt_pages = [16u64, 64, 128];
    let ckpt = parallel_map(jobs, &ckpt_pages, |&pages, _| {
        (
            checkpoint_cycles(pages, CkptMode::Disk),
            checkpoint_cycles(pages, CkptMode::Memory),
        )
    });
    for (&pages, result) in ckpt_pages.iter().zip(ckpt) {
        let (disk, mem) = result.expect("checkpoint sweep");
        println!(
            "  {:>4} pages ({:>4} KiB): disk {:>12} cycles, memory {:>10} cycles -> {:>5.1}x faster",
            pages,
            pages * 4,
            disk,
            mem,
            disk as f64 / mem.max(1) as f64
        );
    }

    println!("\nFootnote 3: resurrection page materialization, copy vs map (simulated seconds)");
    let mat_pages = [64u64, 256, 512];
    let mat = parallel_map(jobs, &mat_pages, |&pages, _| {
        (
            materialization(pages, ResurrectionStrategy::CopyPages),
            materialization(pages, ResurrectionStrategy::MapPages),
        )
    });
    for (&pages, result) in mat_pages.iter().zip(mat) {
        let ((t0, p0), (t1, p1)) = result.expect("materialization sweep");
        let copy = materialized(ResurrectionStrategy::CopyPages, t0, &p0);
        let map = materialized(ResurrectionStrategy::MapPages, t1, &p1);
        let speedup = if p0.rung == LadderRung::Full && p1.rung == LadderRung::Full {
            format!(" -> map is {:.1}x faster", t0 / t1.max(1e-12))
        } else {
            String::new()
        };
        println!("  {pages:>4} pages: {copy}, {map}{speedup}");
    }

    println!("\n§4: descriptor-checksum hardening — runtime overhead of recomputing");
    println!("the checksum on every descriptor update (syscall markers, step counters):");
    let apps = ["mysqld", "volano"];
    let overheads = parallel_map(jobs, &apps, |&app, _| {
        let base = window_cycles(KernelConfig::default(), app, 150);
        let hard = window_cycles(
            KernelConfig {
                desc_checksums: true,
                ..KernelConfig::default()
            },
            app,
            150,
        );
        100.0 * (hard as f64 - base as f64) / base as f64
    });
    for (&app, overhead) in apps.iter().zip(overheads) {
        println!(
            "  {app:>7}: {:.2}% overhead (undetected descriptor corruption eliminated)",
            overhead.expect("overhead sweep")
        );
    }
}
