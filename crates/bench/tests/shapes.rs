//! Shape-regression tests: the qualitative claims of the paper's evaluation
//! (orderings, dominance, bands) must keep holding as the code evolves.
//! These guard the *reproduction* the way unit tests guard the code.

use ow_bench::tables;
use ow_kernel::RobustnessFixes;

#[test]
fn table3_overhead_ordering_matches_the_paper() {
    // MySQL < Apache << Volano on both TLB models, and the tag switch must
    // collapse the overhead: no full flush on the syscall path, only the
    // kernel working set competing for slots.
    let rows = tables::table3(80);
    let by = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
    let (mysql, apache, volano) = (by("MySQL"), by("Apache"), by("Volano"));
    type Cell = fn(&tables::Table3Row) -> tables::Table3Cell;
    for cell in [(|r| r.tagged) as Cell, |r| r.untagged] {
        assert!(
            cell(mysql).overhead_pct < cell(apache).overhead_pct,
            "{rows:?}"
        );
        assert!(
            cell(apache).overhead_pct < cell(volano).overhead_pct,
            "{rows:?}"
        );
    }
    for r in &rows {
        assert!(
            r.tagged.overhead_pct < r.untagged.overhead_pct,
            "{}: tag switch must beat flush-per-switch: {r:?}",
            r.name
        );
        assert!(
            r.tagged.tlb_increase_pct > 0.0 && r.untagged.tlb_increase_pct > 0.0,
            "protection must raise TLB misses: {r:?}"
        );
        assert_eq!(
            r.tagged.flushes, 0,
            "{}: tagged mode must never flush",
            r.name
        );
        assert!(
            r.untagged.flushes > 0,
            "{}: untagged mode flushes per switch",
            r.name
        );
        assert!(r.tagged.asid_switches > 0, "{}: {r:?}", r.name);
    }
    // The headline fix: Volano's overhead drops from double digits to below
    // 5%, at most half its untagged value, and its TLB-miss increase lands
    // within 2x of the paper's 55% instead of overshooting past 130%.
    assert!(volano.tagged.overhead_pct < 5.0, "{volano:?}");
    assert!(
        volano.tagged.overhead_pct <= 0.5 * volano.untagged.overhead_pct,
        "{volano:?}"
    );
    assert!(
        (27.5..110.0).contains(&volano.tagged.tlb_increase_pct),
        "{volano:?}"
    );
    assert!(volano.untagged.overhead_pct > 10.0, "{volano:?}");
}

#[test]
fn table4_read_sizes_grow_with_app_and_page_tables_dominate() {
    let rows = tables::table4(60);
    // Ordering: vi < JOE < MySQL < Apache < BLCR.
    for pair in rows.windows(2) {
        assert!(
            pair[0].kernel_bytes < pair[1].kernel_bytes,
            "{} ({}) !< {} ({})",
            pair[0].name,
            pair[0].kernel_bytes,
            pair[1].name,
            pair[1].kernel_bytes
        );
    }
    for r in &rows {
        assert!(
            r.page_table_pct > 50.0,
            "{}: page tables must dominate",
            r.name
        );
        // §4: a vanishing share of the address space.
        let share = r.kernel_bytes as f64 / ow_simhw::paging::VA_LIMIT as f64;
        assert!(
            share < 0.0013,
            "{}: {share} must stay below the 0.13% bound",
            r.name
        );
    }
}

#[test]
fn table5_small_campaign_stays_in_the_paper_band() {
    let rows = tables::table5(40, RobustnessFixes::default(), 0x51a9, 0);
    for r in &rows {
        assert!(
            r.unprotected.success_pct() >= 90.0,
            "{}: {:.1}%",
            r.name,
            r.unprotected.success_pct()
        );
        assert!(
            r.protected.data_corruption <= r.unprotected.data_corruption + 1,
            "{}: protection must not increase corruption",
            r.name
        );
    }
}

#[test]
fn table5_ablation_loses_the_stall_and_doublefault_classes() {
    let fixed = tables::table5(40, RobustnessFixes::default(), 0xab1a, 0);
    let legacy = tables::table5(40, RobustnessFixes::legacy(), 0xab1a, 0);
    let avg = |rows: &[tables::Table5Row]| {
        rows.iter()
            .map(|r| r.unprotected.success_pct())
            .sum::<f64>()
            / rows.len() as f64
    };
    assert!(
        avg(&legacy) + 3.0 < avg(&fixed),
        "legacy {:.1}% must trail fixed {:.1}%",
        avg(&legacy),
        avg(&fixed)
    );
}

#[test]
fn table6_interruption_is_below_cold_boot_and_fast_boot_helps() {
    let cold_eager = tables::TABLE6_MODES[0];
    for app in ["shell", "mysqld", "httpd"] {
        let (boot_seconds, normal) = tables::table6_measure(app, false, cold_eager);
        assert!(
            normal.interruption_seconds < boot_seconds,
            "{app}: interruption {:.0}s !< boot {boot_seconds:.0}s",
            normal.interruption_seconds,
        );
        let (_, fast) = tables::table6_measure(app, true, cold_eager);
        assert!(
            fast.interruption_seconds < normal.interruption_seconds / 1.3,
            "{app}: fast boot must shrink the interruption meaningfully"
        );
    }
}

#[test]
fn table6_warm_lazy_recovers_the_largest_app_at_least_5x_faster() {
    let rows = tables::table6_matrix(0);
    let headline = tables::table6_headline(&rows);
    assert!(
        headline >= 5.0,
        "warm+lazy must beat cold/eager by at least 5x on the largest app, got {headline:.2}x"
    );
    for r in &rows {
        let cold_eager = &r.cells[0];
        let warm_lazy = &r.cells[3];
        assert!(
            warm_lazy.interruption_seconds < cold_eager.interruption_seconds,
            "{}: warm/lazy {:.1}s !< cold/eager {:.1}s",
            r.name,
            warm_lazy.interruption_seconds,
            cold_eager.interruption_seconds
        );
        // Warm cells must actually adopt every validated structure; cold
        // cells must never report adoption. The rollback cell never morphs
        // at all, so it adopts nothing either.
        for c in &r.cells {
            let warm = c.mode.morph == ow_core::MorphMode::Warm && !c.mode.rollback;
            assert_eq!(
                (c.adoption.frames, c.adoption.swap, c.adoption.cache),
                (warm, warm, warm),
                "{}: {} adoption {:?}",
                r.name,
                c.mode.name,
                c.adoption
            );
        }
    }
}

#[test]
fn rollback_interruption_beats_cold_microreboot_by_50x() {
    // The rung-0 acceptance pin: rolling the records back in place must
    // drive the service interruption at least 50x below the paper's
    // cold/eager microreboot for every Table 6 app — no crash-kernel boot,
    // no resurrection, no morph, nothing replayed.
    let rows = tables::table6_matrix(0);
    for r in &rows {
        let cold = r
            .cells
            .iter()
            .find(|c| c.mode.name == "cold_eager")
            .unwrap()
            .interruption_seconds;
        let rb = r
            .cells
            .iter()
            .find(|c| c.mode.name == "rollback")
            .unwrap()
            .interruption_seconds;
        assert!(
            rb * 50.0 <= cold,
            "{}: rollback {rb:.4}s must be at least 50x below cold {cold:.2}s",
            r.name
        );
    }
    let headline = tables::table6_rollback_headline(&rows);
    assert!(headline >= 50.0, "rollback headline {headline:.1}x < 50x");
}

#[test]
fn recovery_table_shows_the_supervisor_ablation_delta() {
    let result = tables::recovery_table(10, 0x5ec0_4e4a, 0);
    assert_eq!(result.records.len(), 10);
    assert_eq!(result.panic_escapes, 0, "no panic may escape microreboot()");
    assert!(
        result.without_supervisor.whole_failure > result.with_supervisor.whole_failure,
        "supervisor must convert whole-microreboot failures: on={} off={}",
        result.with_supervisor.whole_failure,
        result.without_supervisor.whole_failure
    );
    let doc = tables::recovery_json(&result);
    for key in [
        "experiments",
        "with_supervisor",
        "without_supervisor",
        "panic_escapes",
        "records",
    ] {
        assert!(doc.get(key).is_some(), "recovery_json missing {key}");
    }
    for key in [
        "full_resurrection",
        "degraded",
        "clean_restart",
        "gen2_restart",
        "whole_failure",
    ] {
        assert!(
            doc.get("with_supervisor")
                .and_then(|s| s.get(key))
                .is_some(),
            "side json missing {key}"
        );
    }
}

#[test]
fn checkpointing_to_memory_beats_disk_by_over_10x() {
    use ow_apps::blcr::{BlcrWorkload, CkptMode, CKPT_PERIOD};
    use ow_apps::Workload;
    let cycles = |mode: CkptMode| {
        let mut k = ow_bench::boot_eval(false);
        let mut w = BlcrWorkload::new(16, mode);
        let _pid = w.setup(&mut k);
        for _ in 0..16 * CKPT_PERIOD * 2 - 1 {
            k.run_step();
        }
        let t0 = k.machine.clock.now();
        k.run_step(); // the checkpointing step
        k.machine.clock.now() - t0
    };
    let disk = cycles(CkptMode::Disk);
    let mem = cycles(CkptMode::Memory);
    assert!(
        disk > mem * 10,
        "§5.4: disk {disk} cycles must exceed 10x memory {mem} cycles"
    );
}

#[test]
fn footnote3_eager_copy_past_the_reservation_degrades_instead_of_dying() {
    // 512 touched pages do not fit the crash kernel's 512-frame allocator,
    // so the eager copy adopts dead frames once it runs out. The failed
    // attempt is scrubbed, and reaping must leave those adopted frames to
    // morph instead of freeing them through an allocator that does not
    // own them; the process then walks the ladder to a clean restart.
    let mut k = ow_bench::boot_eval(false);
    let spec = ow_kernel::SpawnSpec::new("blcr", Box::new(ow_apps::blcr::Blcr));
    ow_apps::exec(&mut k, spec, &["512".to_string(), "memory".to_string()]);
    for _ in 0..512 {
        k.run_step();
    }
    k.do_panic(ow_kernel::PanicCause::Oops("footnote 3"));
    let (_k2, report) = ow_core::microreboot(k, &ow_core::OtherworldConfig::default())
        .expect("an exhausted reservation must not fail the microreboot");
    let blcr = report.proc_named("blcr").expect("blcr report");
    assert_eq!(blcr.rung, ow_core::LadderRung::CleanRestart);
    assert_eq!(blcr.attempts, 4);
    assert_eq!(blcr.outcome, ow_core::ProcOutcome::RestartedClean);
}
