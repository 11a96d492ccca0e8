//! The parallel==serial determinism suite.
//!
//! The sharded campaign engine's contract: for the same seed, every job
//! count produces the *same* `CampaignResult` — down to per-experiment
//! records and flight-annotation merges — because the merger consumes
//! results in seed order and truncates to the same effective prefix the
//! serial loop would have kept. These tests pin that contract, the
//! RNG-stream decorrelation, the collision-free seed derivation, and the
//! engine's worker-panic containment.

use ow_apps::vi::ViWorkload;
use ow_apps::{VerifyResult, Workload};
use ow_faultinject::{
    experiment_seed, fault_stream_seed, run_campaign, run_recovery_campaign, workload_stream_seed,
    CampaignConfig, Outcome, RecoveryCampaignConfig,
};
use ow_kernel::Kernel;
use ow_simhw::SimRng;

fn small_cfg(jobs: usize) -> CampaignConfig {
    CampaignConfig {
        effective_experiments: 10,
        seed: 0xd00d_feed,
        jobs,
        ..CampaignConfig::default()
    }
}

#[test]
fn campaign_results_are_identical_for_jobs_1_4_and_7() {
    let serial = run_campaign(ViWorkload::new, &small_cfg(1));
    assert_eq!(serial.effective, 10);
    for jobs in [4, 7] {
        let parallel = run_campaign(ViWorkload::new, &small_cfg(jobs));
        assert_eq!(serial, parallel, "jobs={jobs} diverged from serial");
    }
}

#[test]
fn recovery_campaign_is_identical_for_jobs_1_4_and_7() {
    let cfg = |jobs| RecoveryCampaignConfig {
        experiments: 8,
        seed: 0x5ec0_4e4a,
        jobs,
    };
    let serial = run_recovery_campaign(&cfg(1));
    assert_eq!(serial.experiments, 8);
    for jobs in [4, 7] {
        let parallel = run_recovery_campaign(&cfg(jobs));
        assert_eq!(serial, parallel, "jobs={jobs} diverged from serial");
    }
}

#[test]
fn workload_and_fault_streams_are_decorrelated() {
    // The historical bug: the same seed fed both make_workload() and the
    // fault injector, so the campaign's two sources of randomness drew
    // from perfectly correlated streams. The derived substreams must
    // differ in their first k draws for every seed in a sweep — and the
    // substream seeds themselves must never coincide.
    const K: usize = 16;
    for base in 0..200u64 {
        let es = experiment_seed(0x07e5_2010, base);
        let (ws, fs) = (workload_stream_seed(es), fault_stream_seed(es));
        assert_ne!(ws, fs, "substream seeds collide for experiment {base}");
        let mut w = SimRng::seed_from_u64(ws);
        let mut f = SimRng::seed_from_u64(fs);
        let wd: Vec<u64> = (0..K).map(|_| w.next_u64()).collect();
        let fd: Vec<u64> = (0..K).map(|_| f.next_u64()).collect();
        assert_ne!(wd, fd, "streams correlated for experiment {base}");
        // Stronger than whole-vector inequality: the streams must not be
        // shifted copies of each other either.
        assert!(
            !wd.iter().any(|d| fd.contains(d)),
            "stream overlap for experiment {base}"
        );
    }
}

#[test]
fn nearby_campaign_seeds_never_share_experiment_seeds() {
    // The historical bug: `seed.wrapping_add(i)` walks made campaigns with
    // nearby base seeds overlap seed ranges (base 100 experiment 7 ==
    // base 105 experiment 2). The mixed derivation keeps every
    // (campaign, experiment) pair distinct across a dense sweep.
    let mut seen = std::collections::HashSet::new();
    for base in 0..16u64 {
        for i in 0..256u64 {
            assert!(
                seen.insert(experiment_seed(0x07e5_2010 + base, i)),
                "campaign {base} experiment {i} collides with an earlier pair"
            );
        }
    }
}

/// A workload whose driver panics on selected seeds — the harness-bug
/// stand-in for the engine's containment guarantee.
struct PanickyWorkload {
    inner: ViWorkload,
    explode: bool,
}

impl PanickyWorkload {
    fn new(seed: u64) -> Self {
        PanickyWorkload {
            inner: ViWorkload::new(seed),
            // Deterministic in the workload seed, so every job count sees
            // the same panics at the same experiments.
            explode: seed.is_multiple_of(3),
        }
    }
}

impl Workload for PanickyWorkload {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn setup(&mut self, k: &mut Kernel) -> u64 {
        self.inner.setup(k)
    }
    fn drive(&mut self, k: &mut Kernel, pid: u64) {
        assert!(!self.explode, "seeded harness panic");
        self.inner.drive(k, pid);
    }
    fn verify(&mut self, k: &mut Kernel, pid: u64) -> VerifyResult {
        self.inner.verify(k, pid)
    }
}

#[test]
fn worker_panics_become_classified_outcomes_not_poisoned_channels() {
    let cfg = |jobs| CampaignConfig {
        effective_experiments: 9,
        seed: 0xbad_cafe,
        jobs,
        ..CampaignConfig::default()
    };
    let serial = run_campaign(PanickyWorkload::new, &cfg(1));
    // The campaign completed despite panicking experiments, and the panics
    // are visible as classified resurrect failures.
    assert_eq!(serial.effective, 9);
    let contained = serial
        .records
        .iter()
        .filter(|r| match &r.outcome {
            Outcome::ResurrectFailure(why) => why.contains("harness panic contained"),
            _ => false,
        })
        .count();
    assert!(contained > 0, "expected contained harness panics");
    // And containment is scheduling-independent: the parallel run sees the
    // very same classified outcomes.
    let parallel = run_campaign(PanickyWorkload::new, &cfg(4));
    assert_eq!(serial, parallel);
}

/// Property test: any (jobs, experiments, seed) triple agrees with the
/// serial reference.
#[test]
fn any_job_count_matches_serial_property() {
    let mut rng = SimRng::seed_from_u64(0x0eaf_1e55);
    for _ in 0..6 {
        let experiments = rng.gen_range(1usize..12);
        let jobs = rng.gen_range(2usize..9);
        let seed = rng.next_u64();
        let cfg = |jobs| CampaignConfig {
            effective_experiments: experiments,
            seed,
            jobs,
            ..CampaignConfig::default()
        };
        let serial = run_campaign(ViWorkload::new, &cfg(1));
        let parallel = run_campaign(ViWorkload::new, &cfg(jobs));
        assert_eq!(
            serial, parallel,
            "divergence at experiments={experiments} jobs={jobs} seed={seed:#x}"
        );
    }
}
