//! The fault-injection experiment runner (§6, Table 5).
//!
//! Each experiment: boot the system, start the application under its driven
//! workload (progress logged in the driver's shadow model — the "remote
//! log"), inject 30 faults at a random time, observe the outcome:
//!
//! * the faults never produce a kernel fault → discarded (~20%);
//! * the handoff fails → **failure to boot the crash kernel**;
//! * corruption prevents rebuilding the process → **failure to resurrect**;
//! * the application survives but its data diverges from the remote log →
//!   **data corruption**;
//! * otherwise → **successful resurrection**.

use crate::engine;
use crate::faults::{inject_batch, DamageReport};
use crate::pipeline::{campaign_machine_config, resume, Resumed};
use ow_apps::{VerifyResult, Workload};
use ow_core::{
    microreboot, MicrorebootFailure, MorphMode, OtherworldConfig, PolicySource, ResurrectionPolicy,
    ResurrectionStrategy,
};
use ow_kernel::{KernelConfig, RobustnessFixes};
use ow_simhw::{stream_seed, SimRng};
use ow_trace::{EventCounts, FlightRecord};

/// How many trailing trace events go into each outcome's cause annotation.
/// A full handoff emits six panic-path milestones, so ten leaves room for
/// the syscall that manifested the fault and the injections before it.
const CAUSE_TAIL_EVENTS: usize = 10;

/// Stream tag deriving the workload substream of an experiment seed.
pub const STREAM_WORKLOAD: u64 = 0x574f_524b_4c4f_4144; // "WORKLOAD"

/// Stream tag deriving the fault-injection substream of an experiment seed.
pub const STREAM_FAULT: u64 = 0x4641_554c_5453_4551; // "FAULTSEQ"

/// Collision-free per-experiment seed: the campaign base seed mixed with
/// the experiment index through [`stream_seed`]. Unlike the old
/// `seed.wrapping_add(i)` walk, campaigns launched with nearby base seeds
/// (e.g. table5's per-app/per-mode runs) can no longer overlap seed ranges
/// and silently share experiments.
pub fn experiment_seed(campaign_seed: u64, index: u64) -> u64 {
    stream_seed(campaign_seed, index)
}

/// The workload's random stream for an experiment. Independent of
/// [`fault_stream_seed`] by construction: the two consumers of campaign
/// randomness must never draw from correlated streams, or the injected
/// fault sequence tracks the workload's choices and biases the Table 5
/// outcome distributions.
pub fn workload_stream_seed(experiment_seed: u64) -> u64 {
    stream_seed(experiment_seed, STREAM_WORKLOAD)
}

/// The fault injector's random stream for an experiment (see
/// [`workload_stream_seed`]).
pub fn fault_stream_seed(experiment_seed: u64) -> u64 {
    stream_seed(experiment_seed, STREAM_FAULT)
}

/// Configuration of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Experiments that must end in a kernel fault (the paper observed 400
    /// per application).
    pub effective_experiments: usize,
    /// Faults injected per experiment (the paper injects 30).
    pub faults_per_experiment: u32,
    /// Memory-protected mode (Table 5's corruption column is reported with
    /// and without it).
    pub user_protection: bool,
    /// §6 robustness fixes (disable for the 89% ablation).
    pub fixes: RobustnessFixes,
    /// Campaign seed (experiment `i` uses [`experiment_seed`]`(seed, i)`).
    pub seed: u64,
    /// Workload batches to run before/around the injection point.
    pub max_batches: u32,
    /// Worker threads for the sharded engine: `0` = auto (`OW_JOBS`, then
    /// available parallelism). Results are byte-identical for every value.
    pub jobs: usize,
    /// Morph mode for every experiment's microreboot (Table 6 reruns the
    /// campaign warm to prove adoption never changes an outcome).
    pub morph: MorphMode,
    /// Page materialization strategy for every experiment's microreboot.
    pub strategy: ResurrectionStrategy,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            effective_experiments: 400,
            faults_per_experiment: 30,
            user_protection: false,
            fixes: RobustnessFixes::default(),
            seed: 0x07e5_2010,
            max_batches: 60,
            jobs: 0,
            morph: MorphMode::Cold,
            strategy: ResurrectionStrategy::CopyPages,
        }
    }
}

/// Outcome of one experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The injected faults never crashed the kernel (discarded).
    NoCrash,
    /// Application resurrected and its data verified intact.
    Success,
    /// Control never reached the crash kernel.
    BootFailure(String),
    /// The crash kernel ran but the application could not be resurrected.
    ResurrectFailure(String),
    /// The application survived but its data diverged from the remote log.
    DataCorruption(String),
}

/// One classified experiment: the Table 5 outcome plus a trace-derived
/// cause annotation — the tail of the kernel's flight record, recovered
/// from the trace region exactly the way the crash kernel recovers it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentRecord {
    /// Table 5 classification.
    pub outcome: Outcome,
    /// Last few flight-record events, oldest first (e.g.
    /// `"fault_injected(kind=4, writes=2) -> panic:entered -> panic:halted"`).
    pub cause: String,
    /// Per-kind tally of the experiment's recovered flight record; the
    /// campaign merger folds these into [`CampaignResult::flight`] in seed
    /// order.
    pub events: EventCounts,
}

/// Aggregated campaign counts (one Table 5 row).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignResult {
    /// Effective (crashed) experiments.
    pub effective: usize,
    /// Discarded quiet experiments.
    pub discarded: usize,
    /// Successful resurrections.
    pub success: usize,
    /// Failures to boot the crash kernel.
    pub boot_failure: usize,
    /// Failures to resurrect the application.
    pub resurrect_failure: usize,
    /// Data corruption cases.
    pub data_corruption: usize,
    /// Wild-write damage accounting.
    pub damage: DamageReport,
    /// Flight-record event totals over every experiment the campaign ran
    /// (effective *and* discarded), merged per-shard in seed order.
    pub flight: EventCounts,
    /// Per-experiment records for the effective (crashed) experiments, in
    /// campaign order, each carrying its trace-derived cause annotation.
    pub records: Vec<ExperimentRecord>,
}

impl CampaignResult {
    /// Percentage helper.
    fn pct(&self, n: usize) -> f64 {
        if self.effective == 0 {
            0.0
        } else {
            100.0 * n as f64 / self.effective as f64
        }
    }

    /// Successful-resurrection percentage.
    pub fn success_pct(&self) -> f64 {
        self.pct(self.success)
    }

    /// Boot-failure percentage.
    pub fn boot_failure_pct(&self) -> f64 {
        self.pct(self.boot_failure)
    }

    /// Resurrection-failure percentage.
    pub fn resurrect_failure_pct(&self) -> f64 {
        self.pct(self.resurrect_failure)
    }

    /// Data-corruption percentage.
    pub fn data_corruption_pct(&self) -> f64 {
        self.pct(self.data_corruption)
    }
}

/// Runs a single experiment with `seed`.
///
/// The injected-fault sequence draws from [`fault_stream_seed`]`(seed)` —
/// an independent substream of the experiment seed — so it is decorrelated
/// from the workload's own randomness (which the campaign seeds with
/// [`workload_stream_seed`]`(seed)`).
pub fn run_experiment<W: Workload>(
    workload: &mut W,
    cfg: &CampaignConfig,
    seed: u64,
) -> (ExperimentRecord, DamageReport) {
    let mut rng = SimRng::seed_from_u64(fault_stream_seed(seed));
    let kernel_config = KernelConfig {
        user_protection: cfg.user_protection,
        fixes: cfg.fixes,
        ..KernelConfig::default()
    };
    let mut k = match ow_apps::boot(campaign_machine_config(), kernel_config) {
        Ok(k) => k,
        Err(e) => {
            return (
                ExperimentRecord {
                    outcome: Outcome::BootFailure(format!("cold boot: {e}")),
                    cause: "no trace (cold boot failed)".into(),
                    events: EventCounts::default(),
                },
                DamageReport::default(),
            )
        }
    };

    let pid = workload.setup(&mut k);

    // Warm up, then inject at a random batch index.
    let inject_at = rng.gen_range(4..cfg.max_batches / 2);
    let mut damage = DamageReport::default();
    let mut injected = false;
    for batch in 0..cfg.max_batches {
        if batch == inject_at {
            let (_, d) = inject_batch(&mut k, &mut rng, cfg.faults_per_experiment);
            damage = d;
            injected = true;
        }
        workload.drive(&mut k, pid);
        if k.panicked.is_some() {
            break;
        }
        // A queued stall only fires through the watchdog: model the timer
        // tick noticing the hang.
        if injected {
            if let Some(pf) = k.pending_fault {
                if pf.cause == ow_kernel::PanicCause::Stall && !pf.in_syscall {
                    k.pending_fault = None;
                    k.do_panic(ow_kernel::PanicCause::Stall);
                    break;
                }
            }
        }
    }

    // Recover the dead kernel's flight record *before* the microreboot, so
    // even boot failures (where no crash kernel ever runs) get a cause
    // annotation.
    let flight = FlightRecord::from_handoff(&k.machine.phys);
    let classified = |outcome: Outcome| ExperimentRecord {
        outcome,
        cause: flight.tail_summary(CAUSE_TAIL_EVENTS),
        events: flight.event_counts(),
    };
    if k.panicked.is_none() {
        // The faults never produced a kernel fault, so §6 discards the
        // experiment — regardless of the application's health: a wild
        // write can silently corrupt user data without ever crashing the
        // kernel, and the paper's methodology only classifies experiments
        // that ended in a kernel fault.
        return (classified(Outcome::NoCrash), damage);
    }

    // Microreboot. The resurrection supervisor is disabled here on purpose:
    // Table 5 measures the paper's original single-shot recovery semantics,
    // and the supervisor's contribution is measured separately by the
    // recovery-robustness campaign (`crate::recovery`) with an explicit
    // on/off ablation.
    let ow_config = OtherworldConfig {
        policy: PolicySource::Inline(ResurrectionPolicy::only([workload.name()])),
        morph: cfg.morph,
        strategy: cfg.strategy,
        supervisor: ow_core::SupervisorConfig { enabled: false },
        ..OtherworldConfig::default()
    };
    let (mut k2, report) = match microreboot(k, &ow_config) {
        Ok(ok) => ok,
        Err(MicrorebootFailure::SystemHalted(why) | MicrorebootFailure::CrashBootFailed(why)) => {
            return (classified(Outcome::BootFailure(why)), damage)
        }
        Err(MicrorebootFailure::RecoveryFailed(why)) => {
            return (classified(Outcome::ResurrectFailure(why)), damage)
        }
        Err(MicrorebootFailure::NotPanicked) => unreachable!("panicked checked above"),
    };

    let outcome = match resume(workload, &mut k2, &report) {
        Resumed::Absent => Outcome::ResurrectFailure("process list unreadable".into()),
        Resumed::Lost(why) => Outcome::ResurrectFailure(why),
        Resumed::Unreadable => Outcome::ResurrectFailure("descriptor unreadable".into()),
        // The supervisor is off, so no process comes back restarted clean:
        // every verified process was resurrected.
        Resumed::Verified { verdict, .. } => match verdict {
            Ok(VerifyResult::Intact) => Outcome::Success,
            Ok(VerifyResult::Corrupted(why)) => Outcome::DataCorruption(why),
            Ok(VerifyResult::Missing) => Outcome::ResurrectFailure("gone after restart".into()),
            Err(msg) => Outcome::ResurrectFailure(format!("harness panic contained: {msg}")),
        },
    };
    (classified(outcome), damage)
}

/// Runs a whole campaign: experiments until `effective_experiments` of them
/// crashed, aggregating outcomes (one Table 5 row).
///
/// Experiments are sharded across `cfg.jobs` worker threads by the
/// deterministic engine ([`crate::engine`]): workers claim experiment
/// indices, run them concurrently, and the merger consumes results in seed
/// order, stopping at the first `effective_experiments` crashed experiments
/// of that order — exactly the set the serial loop would have kept, so the
/// result (and everything derived from it, down to `--json` bytes) is
/// identical for every job count. A worker panic costs one experiment,
/// classified as a resurrect failure, never the campaign.
pub fn run_campaign<W: Workload>(
    make_workload: impl Fn(u64) -> W + Sync,
    cfg: &CampaignConfig,
) -> CampaignResult {
    let mut result = CampaignResult::default();
    engine::run_indexed(
        cfg.jobs,
        None,
        |i| {
            let seed = experiment_seed(cfg.seed, i);
            let mut workload = make_workload(workload_stream_seed(seed));
            run_experiment(&mut workload, cfg, seed)
        },
        |_, outcome| {
            let (record, damage) = outcome.unwrap_or_else(|panic_msg| {
                (
                    ExperimentRecord {
                        outcome: Outcome::ResurrectFailure(format!(
                            "harness panic contained: {panic_msg}"
                        )),
                        cause: "panic contained by the campaign engine".into(),
                        events: EventCounts::default(),
                    },
                    DamageReport::default(),
                )
            });
            result.damage.merge(&damage);
            result.flight.merge(&record.events);
            match &record.outcome {
                Outcome::NoCrash => {
                    result.discarded += 1;
                    return true;
                }
                Outcome::Success => result.success += 1,
                Outcome::BootFailure(_) => result.boot_failure += 1,
                Outcome::ResurrectFailure(_) => result.resurrect_failure += 1,
                Outcome::DataCorruption(_) => result.data_corruption += 1,
            }
            result.effective += 1;
            result.records.push(record);
            result.effective < cfg.effective_experiments
        },
    );
    result
}
