//! The benchmark drives the same system the committed tables describe: its
//! own drivers reproduce `run_campaign`, Table 6 and Table 3 exactly.

use ow_apps::make_workload;
use ow_bench::tables::{table3_jobs, table6_measure, TABLE5_SEED, TABLE6_MODES};
use ow_benchmark::campaign::{self, CellCounts};
use ow_benchmark::spans::Tracer;
use ow_benchmark::{recover, steady, Config, Size};
use std::time::Instant;

#[test]
fn campaign_cells_count_what_run_campaign_counts() {
    let cfg = Config {
        seed: TABLE5_SEED,
        jobs: 2,
        size: Size {
            effective_per_cell: 3,
            ..Size::SMOKE
        },
    };
    for (i, (app, c)) in campaign::cells(&cfg).iter().enumerate() {
        let ours = campaign::run_cell(app, c, i as u64, false, Instant::now());
        let theirs = ow_faultinject::run_campaign(|s| make_workload(app, s), c);
        let want = CellCounts {
            effective: theirs.effective,
            discarded: theirs.discarded,
            success: theirs.success,
            boot_failure: theirs.boot_failure,
            resurrect_failure: theirs.resurrect_failure,
            data_corruption: theirs.data_corruption,
        };
        assert_eq!(ours.counts, want, "{app}, protected {}", c.user_protection);
        assert_eq!(ours.panics, 0);
    }
}

#[test]
fn a_recover_op_reproduces_table6_interruption_bit_for_bit() {
    let spec = recover::OpSpec {
        app: "httpd",
        workload_seed: 21,
        batches: 6,
    };
    for name in ["cold_eager", "warm_lazy"] {
        let mode = TABLE6_MODES.iter().find(|m| m.name == name).expect("mode");
        let (_, cell) = table6_measure("httpd", false, *mode);
        let config = recover::config(mode.morph, mode.strategy);
        let mut t = Tracer::new(Instant::now(), false);
        let r = recover::recover_op(&spec, &config, &mut t).expect("recovers");
        assert_eq!(
            r.interruption_s.to_bits(),
            cell.interruption_seconds.to_bits(),
            "{name}: {} s vs Table 6's {} s",
            r.interruption_s,
            cell.interruption_seconds
        );
        assert_eq!(r.adoption, cell.adoption, "{name}");
        assert_eq!(r.verdict, ow_apps::VerifyResult::Intact, "{name}");
    }
}

#[test]
fn steady_streams_reproduce_table3_tagged_cells() {
    let streams = steady::run_streams(11, 80, false, Instant::now());
    let rows = table3_jobs(80, 1);
    for (a, row) in rows.iter().enumerate() {
        let (base, prot) = (
            &streams.results[a],
            &streams.results[a + steady::APPS.len()],
        );
        assert!(!base.protected && prot.protected && base.app == prot.app);
        let overhead = 100.0 * (prot.cycles as f64 - base.cycles as f64) / base.cycles as f64;
        let misses = 100.0 * (prot.mmu.tlb_misses as f64 - base.mmu.tlb_misses as f64)
            / base.mmu.tlb_misses as f64;
        let cell = &row.tagged;
        assert_eq!(
            overhead.to_bits(),
            cell.overhead_pct.to_bits(),
            "{}",
            row.name
        );
        assert_eq!(
            misses.to_bits(),
            cell.tlb_increase_pct.to_bits(),
            "{}",
            row.name
        );
        assert_eq!(prot.mmu.flushes, cell.flushes, "{}", row.name);
        assert_eq!(prot.mmu.asid_switches, cell.asid_switches, "{}", row.name);
        assert_eq!(prot.mmu.invalidations, cell.invalidations, "{}", row.name);
        assert!(base.intact && prot.intact, "{}", row.name);
    }
}
