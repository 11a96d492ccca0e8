//! Determinism and reproduction contract of the crash-point campaign
//! (ISSUE 6, satellite 3): the JSON artifact is byte-identical for any
//! `--jobs`, any cell can be re-run in isolation by label and match the
//! full-matrix record, and the count-only discovery pass reaches a pinned
//! minimum of labeled points.

use ow_core::{MorphMode, ResurrectionStrategy};
use ow_faultinject::{
    campaign_crashpoints, crashpoints_json, discover_points, CrashpointCampaignConfig,
    CRASHPOINT_SEED,
};

/// A cross-area slice: kernel syscall/panic/kexec points plus recovery
/// readers and resurrection stages. Small enough to run three times.
const SLICE: &[&str] = &[
    "kernel.syscall.enter.marked",
    "kernel.panic.handoff.jump",
    "kernel.kexec.morph.main",
    "recovery.reader.proclist.walk",
    "recovery.resurrect.vma.rebuild",
    "recovery.ladder.clean.restart",
];

fn slice_cfg(jobs: usize) -> CrashpointCampaignConfig {
    CrashpointCampaignConfig {
        points: SLICE.iter().map(|s| (*s).to_string()).collect(),
        apps: vec!["vi".to_string()],
        modes: vec![false],
        seed: CRASHPOINT_SEED,
        jobs,
        ..CrashpointCampaignConfig::default()
    }
}

/// The warm-morph / lazy-resurrection half of the safety matrix: the same
/// adopt-and-recovery-path slice must report zero policy violations in
/// every one of the four (morph × strategy) configurations.
#[test]
fn every_recovery_configuration_passes_the_adopt_slice() {
    let points = [
        "kernel.panic.seal.write",
        "kernel.kexec.reclaim.memory",
        "kernel.kexec.adopt.frames",
        "kernel.pagefault.lazy.pull",
        "recovery.adopt.seal.validate",
        "recovery.adopt.swap.bitmap",
        "recovery.adopt.cache.rebuild",
        "recovery.reader.header.validate",
        "recovery.reader.filetable.read",
        "recovery.resurrect.pages.materialize",
    ];
    for morph in [MorphMode::Cold, MorphMode::Warm] {
        for strategy in [ResurrectionStrategy::CopyPages, ResurrectionStrategy::Lazy] {
            let res = campaign_crashpoints(&CrashpointCampaignConfig {
                points: points.iter().map(|s| (*s).to_string()).collect(),
                apps: vec!["vi".to_string()],
                modes: vec![false],
                morph,
                strategy,
                ..CrashpointCampaignConfig::default()
            });
            let bad: Vec<_> = res.cells.iter().filter(|c| !c.expected).collect();
            assert!(
                bad.is_empty(),
                "{morph:?}/{strategy:?}: unexpected cells {bad:?}"
            );
        }
    }
}

#[test]
fn campaign_json_is_identical_for_jobs_1_4_and_7() {
    let serial_cfg = slice_cfg(1);
    let serial = crashpoints_json(&serial_cfg, &campaign_crashpoints(&serial_cfg)).to_pretty();
    for jobs in [4, 7] {
        let cfg = slice_cfg(jobs);
        let parallel = crashpoints_json(&cfg, &campaign_crashpoints(&cfg)).to_pretty();
        assert_eq!(serial, parallel, "jobs={jobs} diverged from serial");
    }
}

#[test]
fn any_cell_is_reproducible_by_label_alone() {
    // The full vi/unprotected column: every registered point.
    let full = campaign_crashpoints(&CrashpointCampaignConfig {
        apps: vec!["vi".to_string()],
        modes: vec![false],
        ..CrashpointCampaignConfig::default()
    });
    assert_eq!(full.cells.len(), ow_crashpoint::REGISTRY.len());
    assert_eq!(full.unexpected, 0, "policy violated in the vi slice");

    // Re-run two cells in isolation, addressed only by their label, and
    // require the records to match the full-matrix run field for field.
    for label in [
        "kernel.pagecache.fsync.flush",
        "recovery.resurrect.files.reopen",
    ] {
        let solo = campaign_crashpoints(&CrashpointCampaignConfig {
            points: vec![label.to_string()],
            apps: vec!["vi".to_string()],
            modes: vec![false],
            ..CrashpointCampaignConfig::default()
        });
        assert_eq!(solo.cells.len(), 1);
        let a = &solo.cells[0];
        let b = full
            .cells
            .iter()
            .find(|c| c.spec.label == label)
            .expect("label present in full run");
        assert_eq!(
            a.spec.seed, b.spec.seed,
            "{label}: seed depends on matrix shape"
        );
        assert_eq!(a.outcome.kind(), b.outcome.kind(), "{label}");
        assert_eq!(a.outcome.detail(), b.outcome.detail(), "{label}");
        assert_eq!(
            (a.fired, a.phase, a.verify, a.expected),
            (b.fired, b.phase, b.verify, b.expected),
            "{label}"
        );
    }
}

#[test]
fn discovery_reaches_a_pinned_minimum_of_points() {
    for protected in [false, true] {
        let hits = discover_points("vi", protected, CRASHPOINT_SEED);
        assert!(
            hits.len() >= 20,
            "vi (protected={protected}) reached only {} points: {hits:?}",
            hits.len()
        );
        for must in [
            "kernel.syscall.enter.marked",
            "kernel.panic.handoff.jump",
            "kernel.crashboot.init.begin",
            "recovery.reader.header.validate",
            "recovery.resurrect.context.check",
        ] {
            assert!(
                hits.iter().any(|(l, n)| *l == must && *n > 0),
                "{must} not reached (protected={protected}): {hits:?}"
            );
        }
    }
}
