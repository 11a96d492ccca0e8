//! Small seeded campaigns to validate the Table 5 machinery end to end.

use ow_apps::vi::ViWorkload;
use ow_faultinject::{run_campaign, CampaignConfig};

#[test]
fn vi_campaign_mostly_succeeds() {
    let cfg = CampaignConfig {
        effective_experiments: 25,
        seed: 42,
        ..CampaignConfig::default()
    };
    let result = run_campaign(ViWorkload::new, &cfg);
    eprintln!("campaign: {result:?}");
    assert_eq!(result.effective, 25);
    assert!(
        result.success_pct() >= 80.0,
        "success {}%",
        result.success_pct()
    );
    assert!(result.discarded > 0, "expected some quiet experiments");
}

#[test]
fn campaigns_are_deterministic_under_a_seed() {
    let cfg = CampaignConfig {
        effective_experiments: 12,
        seed: 77,
        ..CampaignConfig::default()
    };
    let a = run_campaign(ViWorkload::new, &cfg);
    let b = run_campaign(ViWorkload::new, &cfg);
    assert_eq!(a.success, b.success);
    assert_eq!(a.boot_failure, b.boot_failure);
    assert_eq!(a.resurrect_failure, b.resurrect_failure);
    assert_eq!(a.data_corruption, b.data_corruption);
    assert_eq!(a.discarded, b.discarded);
}

#[test]
fn ablation_is_strictly_worse() {
    let base = CampaignConfig {
        effective_experiments: 60,
        seed: 7,
        ..CampaignConfig::default()
    };
    let fixed = run_campaign(ViWorkload::new, &base);
    let legacy_cfg = CampaignConfig {
        fixes: ow_kernel::RobustnessFixes::legacy(),
        ..base
    };
    let legacy = run_campaign(ViWorkload::new, &legacy_cfg);
    assert!(
        legacy.success_pct() < fixed.success_pct(),
        "legacy {:.1}% must be below fixed {:.1}%",
        legacy.success_pct(),
        fixed.success_pct()
    );
}

#[test]
fn protected_campaign_never_increases_corruption() {
    let base = CampaignConfig {
        effective_experiments: 60,
        seed: 3,
        ..CampaignConfig::default()
    };
    let unprot = run_campaign(ViWorkload::new, &base);
    let prot_cfg = CampaignConfig {
        user_protection: true,
        ..base
    };
    let prot = run_campaign(ViWorkload::new, &prot_cfg);
    assert!(prot.data_corruption <= unprot.data_corruption + 1);
}

#[test]
fn every_effective_outcome_carries_a_trace_cause() {
    let cfg = CampaignConfig {
        effective_experiments: 20,
        seed: 11,
        ..CampaignConfig::default()
    };
    let result = run_campaign(ViWorkload::new, &cfg);
    assert_eq!(result.records.len(), result.effective);
    for rec in &result.records {
        assert!(
            !rec.cause.is_empty(),
            "outcome {:?} lacks a cause annotation",
            rec.outcome
        );
    }
    // The dominant case: the flight record caught the injection and the
    // panic path itself.
    let panics = result
        .records
        .iter()
        .filter(|r| r.cause.contains("panic:"))
        .count();
    assert!(
        panics * 2 > result.records.len(),
        "most causes should name a panic step: {}/{}",
        panics,
        result.records.len()
    );
    assert!(
        result
            .records
            .iter()
            .any(|r| r.cause.contains("fault_injected")),
        "some tails should show the injection itself"
    );
}

#[test]
fn single_experiment_cause_ends_at_the_panic_path() {
    // Table 5 at seed 5, vi, unprotected, experiment 10886: the wild writes
    // leave a CRC-valid handoff block whose crash reservation runs past
    // RAM. Sizing the crash kernel's allocator from it used to abort the
    // whole process, which no containment boundary can catch; the crash
    // boot now refuses it.
    let replay = CampaignConfig {
        seed: 5,
        ..CampaignConfig::default()
    };
    let seed = ow_faultinject::experiment_seed(replay.seed, 10886);
    let mut w = ViWorkload::new(ow_faultinject::workload_stream_seed(seed));
    let (rec, _damage) = ow_faultinject::run_experiment(&mut w, &replay, seed);
    assert_eq!(
        rec.outcome,
        ow_faultinject::Outcome::BootFailure("invalid: crash reservation outside RAM".into())
    );
    assert!(rec.cause.ends_with("panic:handoff"), "cause: {}", rec.cause);

    let cfg = CampaignConfig::default();
    // Scan seeds until one crashes (most do).
    for seed in 100..140 {
        let mut w = ViWorkload::new(seed);
        let (rec, _damage) = ow_faultinject::run_experiment(&mut w, &cfg, seed);
        if matches!(rec.outcome, ow_faultinject::Outcome::NoCrash) {
            continue;
        }
        assert!(rec.cause.contains("panic:"), "cause: {}", rec.cause);
        return;
    }
    panic!("no seed in 100..140 produced a crash");
}
