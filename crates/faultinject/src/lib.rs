//! Synthetic kernel fault injection and the crash-experiment campaign (§6).
//!
//! Reimplements the evaluation methodology of the paper: the Rio/Nooks
//! fault model ([`faults`]) and the experiment runner ([`campaign`]) that
//! produces Table 5's outcome classification over hundreds of seeded,
//! reproducible experiments per application. Every experiment family runs
//! the same boot → drive → crash → recover → resume stages, each written
//! once in [`pipeline`]. Campaigns run on the
//! deterministic parallel engine ([`engine`]): experiments are sharded
//! across worker threads and merged in seed order, so every output is
//! byte-identical to the serial run for the same seed.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod crashpoint;
pub mod engine;
pub mod faults;
pub mod pipeline;
pub mod recovery;

pub use campaign::{
    experiment_seed, fault_stream_seed, run_campaign, run_experiment, workload_stream_seed,
    CampaignConfig, CampaignResult, ExperimentRecord, Outcome,
};
pub use crashpoint::{
    campaign_crashpoints, cell_seed, crashpoints_json, discover_points, run_cell, CellOutcome,
    CellRecord, CellSpec, CrashpointCampaignConfig, CrashpointCampaignResult, CRASHPOINT_SEED,
};
pub use engine::{parallel_map, resolve_jobs, run_indexed};
pub use faults::{draw_fault, inject_batch, DamageReport, Fault, FaultKind, Manifestation};
pub use pipeline::campaign_machine_config;
pub use recovery::{
    run_recovery_campaign, run_recovery_experiment, RecoveryCampaignConfig, RecoveryCampaignResult,
    RecoveryFaultKind, RecoveryOutcome, RecoveryRecord, RecoverySide,
};
