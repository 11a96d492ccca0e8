//! `campaign`: Table 5's fault-injection study at paper size.
//!
//! One op is one experiment, discarded quiet ones included: build a fresh
//! machine, boot, drive the app, inject 30 faults, and classify the
//! microreboot's outcome against the app's remote log. The experiment is
//! the one `ow_faultinject::run_experiment` runs, timed layer by layer, and
//! each cell (app × protection mode) runs on the campaign engine until it
//! has its effective experiments, exactly as `run_campaign` does.

use crate::spans::{Span, Tracer};
use crate::{metrics, Config, Op, Pass, Segment, Values};
use ow_apps::{make_workload, workload::TABLE5_APPS, VerifyResult};
use ow_core::{
    microreboot, MicrorebootFailure, OtherworldConfig, PolicySource, ResurrectionPolicy,
    SupervisorConfig,
};
use ow_faultinject::{
    experiment_seed, fault_stream_seed, inject_batch, run_indexed, workload_stream_seed,
    CampaignConfig, Outcome,
};
use ow_kernel::{layout::HandoffBlock, Kernel, KernelConfig, PanicCause};
use ow_simhw::{machine::MachineConfig, mix64, CostModel, SimRng};
use ow_trace::FlightRecord;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The machine every campaign experiment runs on (ow-faultinject's).
fn machine_config() -> MachineConfig {
    MachineConfig {
        ram_frames: 8192, // 32 MiB
        cpus: 2,
        tlb_entries: 64,
        tlb_tagged: true,
        cost: CostModel::zero_io(),
    }
}

/// The cells of the campaign: every Table 5 app, unprotected then
/// protected.
pub fn cells(cfg: &Config) -> Vec<(&'static str, CampaignConfig)> {
    TABLE5_APPS
        .iter()
        .flat_map(|&app| {
            [false, true].map(|user_protection| {
                let campaign = CampaignConfig {
                    effective_experiments: cfg.size.effective_per_cell,
                    user_protection,
                    seed: cfg.seed,
                    jobs: cfg.jobs,
                    ..CampaignConfig::default()
                };
                (app, campaign)
            })
        })
        .collect()
}

/// What one experiment produced.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Table 5 classification.
    pub outcome: Outcome,
    /// Simulated seconds from power-on to the classification.
    pub sim_s: f64,
    /// Simulated cycles at the classification.
    pub cycles: u64,
    /// Wild writes that landed.
    pub landed: u32,
    /// Flight-record events recovered from the dead kernel.
    pub events: u64,
    /// Processes the microreboot resurrected with their data, of `procs`.
    pub procs_ok: u64,
    /// Processes the microreboot reported on.
    pub procs: u64,
}

impl Experiment {
    fn class(&self) -> u64 {
        match self.outcome {
            Outcome::NoCrash => 0,
            Outcome::Success => 1,
            Outcome::BootFailure(_) => 2,
            Outcome::ResurrectFailure(_) => 3,
            Outcome::DataCorruption(_) => 4,
        }
    }

    /// Hash of the simulated result.
    pub fn fingerprint(&self) -> u64 {
        [
            self.cycles,
            self.landed.into(),
            self.events,
            self.procs_ok,
            self.procs,
        ]
        .into_iter()
        .fold(self.class(), |h, v| mix64(h ^ v))
    }
}

fn recover_flight(k: &Kernel) -> FlightRecord {
    HandoffBlock::read(&k.machine.phys)
        .map(|(h, _)| FlightRecord::recover(&k.machine.phys, h.trace_base, h.trace_frames))
        .unwrap_or_default()
}

/// Experiment `index` of the campaign `cfg` for `app`.
pub fn experiment(app: &str, cfg: &CampaignConfig, index: u64, t: &mut Tracer) -> Experiment {
    let seed = experiment_seed(cfg.seed, index);
    let mut workload = make_workload(app, workload_stream_seed(seed));
    let mut rng = SimRng::seed_from_u64(fault_stream_seed(seed));
    let mut ended = Experiment {
        outcome: Outcome::NoCrash,
        sim_s: 0.0,
        cycles: 0,
        landed: 0,
        events: 0,
        procs_ok: 0,
        procs: 0,
    };
    let kernel_config = KernelConfig {
        user_protection: cfg.user_protection,
        fixes: cfg.fixes,
        ..KernelConfig::default()
    };
    let machine = t.span("simhw.machine_new", || {
        ow_kernel::standard_machine(machine_config())
    });
    let booted = t.span("kernel.boot_cold", || {
        Kernel::boot_cold(machine, kernel_config, ow_apps::full_registry())
    });
    let mut k = match booted {
        Ok(k) => k,
        Err(e) => {
            ended.outcome = Outcome::BootFailure(format!("cold boot: {e}"));
            return ended;
        }
    };
    let pid = t.span("apps.setup", || workload.setup(&mut k));

    let inject_at = rng.gen_range(4..cfg.max_batches / 2);
    let mut injected = false;
    for batch in 0..cfg.max_batches {
        if batch == inject_at {
            let (_, damage) = t.span("faultinject.inject", || {
                inject_batch(&mut k, &mut rng, cfg.faults_per_experiment)
            });
            ended.landed = damage.landed;
            injected = true;
        }
        t.span("apps.drive", || workload.drive(&mut k, pid));
        if k.panicked.is_some() {
            break;
        }
        // A queued stall only fires through the watchdog.
        if injected {
            if let Some(pf) = k.pending_fault {
                if pf.cause == PanicCause::Stall && !pf.in_syscall {
                    k.pending_fault = None;
                    t.span("kernel.do_panic", || k.do_panic(PanicCause::Stall));
                    break;
                }
            }
        }
    }

    let flight = t.span("trace.flight_recover", || recover_flight(&k));
    ended.events = flight.events.len() as u64;
    ended.cycles = k.machine.clock.now();
    ended.sim_s = k.seconds();
    if k.panicked.is_none() {
        return ended;
    }
    // A wild write can leave a handoff block that still validates but
    // describes a crash reservation past the end of RAM, and the crash boot
    // sizes its frame allocator from it unchecked: the allocation aborts the
    // whole process. Refuse that handoff here, as a bounds check in the crash
    // boot would.
    if let Ok((h, _)) = HandoffBlock::read(&k.machine.phys) {
        if h.crash_base.saturating_add(h.crash_frames) > k.machine.frames() {
            ended.outcome = Outcome::BootFailure("crash reservation outside RAM".into());
            return ended;
        }
    }

    let ow_config = OtherworldConfig {
        policy: PolicySource::Inline(ResurrectionPolicy::only([workload.name()])),
        morph: cfg.morph,
        strategy: cfg.strategy,
        supervisor: SupervisorConfig {
            enabled: false,
            ..SupervisorConfig::default()
        },
        ..OtherworldConfig::default()
    };
    let (mut k2, report) = match t.span("core.microreboot", || microreboot(k, &ow_config)) {
        Ok(ok) => ok,
        Err(MicrorebootFailure::SystemHalted(why) | MicrorebootFailure::CrashBootFailed(why)) => {
            ended.outcome = Outcome::BootFailure(why);
            return ended;
        }
        Err(e) => {
            ended.outcome = Outcome::ResurrectFailure(e.to_string());
            return ended;
        }
    };
    ended.procs = report.procs.len() as u64;
    ended.procs_ok = report
        .procs
        .iter()
        .filter(|p| p.outcome.is_success())
        .count() as u64;
    let resurrected = report
        .proc_named(workload.name())
        .filter(|p| p.outcome.is_success())
        .and_then(|p| p.new_pid);
    let Some(new_pid) = resurrected else {
        ended.outcome = Outcome::ResurrectFailure("not resurrected".into());
        return ended;
    };

    let verdict = t.span("apps.verify", || {
        workload.reconnect(&mut k2, new_pid);
        for _ in 0..8 {
            k2.run_step();
        }
        workload.verify(&mut k2, new_pid)
    });
    ended.outcome = match verdict {
        VerifyResult::Intact => Outcome::Success,
        VerifyResult::Corrupted(why) => Outcome::DataCorruption(why),
        VerifyResult::Missing => Outcome::ResurrectFailure("gone after restart".into()),
    };
    ended.cycles = k2.machine.clock.now();
    ended.sim_s = k2.seconds();
    ended
}

/// Table 5 counts of one cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellCounts {
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
    /// Data corruption.
    pub data_corruption: usize,
}

/// One cell run on the campaign engine.
#[derive(Debug, Default)]
pub struct Cell {
    /// Table 5 counts.
    pub counts: CellCounts,
    /// Every experiment the cell kept, in index order.
    pub ops: Vec<Op>,
    /// Experiments whose harness panicked (contained by the engine).
    pub panics: u64,
    /// Experiments started past the cell's cutoff and thrown away.
    pub overrun: u64,
    /// Host nanoseconds the cell took.
    pub wall_ns: u64,
    /// Host nanoseconds spent in experiments, thrown-away ones included.
    pub busy_ns: u64,
    /// Wild writes landed, summed over kept experiments.
    pub landed: u64,
    /// Flight-record events recovered, summed over kept experiments.
    pub events: u64,
    /// Processes resurrected with their data, summed over kept experiments.
    pub procs_ok: u64,
    /// Processes the microreboots reported on, summed over kept experiments.
    pub procs: u64,
    /// Spans of the kept experiments, when traced.
    pub spans: Vec<Span>,
}

/// Runs one cell: experiments in index order until `cfg.effective_experiments`
/// of them crashed. `cell` numbers the cell's op ids.
pub fn run_cell(app: &str, cfg: &CampaignConfig, cell: u64, traced: bool, epoch: Instant) -> Cell {
    let started = AtomicU64::new(0);
    let busy_ns = AtomicU64::new(0);
    let mut out = Cell::default();
    let start = Instant::now();
    run_indexed(
        cfg.jobs,
        None,
        |i| {
            started.fetch_add(1, Ordering::Relaxed);
            let mut t = Tracer::new(epoch, traced);
            t.set_op(cell << 32 | i);
            let start = Instant::now();
            let e = experiment(app, cfg, i, &mut t);
            let end = Instant::now();
            t.op_span(start, end);
            let ns = end.duration_since(start).as_nanos() as u64;
            busy_ns.fetch_add(ns, Ordering::Relaxed);
            (e, ns, t.take())
        },
        |_, result| {
            let c = &mut out.counts;
            let Ok((e, ns, op_spans)) = result else {
                // A panicking harness costs one experiment, classified the
                // way run_campaign classifies it.
                out.panics += 1;
                c.resurrect_failure += 1;
                c.effective += 1;
                out.ops.push(Op::FAILED);
                return c.effective < cfg.effective_experiments;
            };
            out.spans.extend(op_spans);
            out.ops.push(Op {
                host_ns: ns,
                sim_s: e.sim_s,
                fingerprint: e.fingerprint(),
                failed: false,
            });
            out.landed += u64::from(e.landed);
            out.events += e.events;
            out.procs_ok += e.procs_ok;
            out.procs += e.procs;
            match e.outcome {
                Outcome::NoCrash => {
                    c.discarded += 1;
                    return true;
                }
                Outcome::Success => c.success += 1,
                Outcome::BootFailure(_) => c.boot_failure += 1,
                Outcome::ResurrectFailure(_) => c.resurrect_failure += 1,
                Outcome::DataCorruption(_) => c.data_corruption += 1,
            }
            c.effective += 1;
            c.effective < cfg.effective_experiments
        },
    );
    out.wall_ns = start.elapsed().as_nanos() as u64;
    out.overrun = started.into_inner() - out.ops.len() as u64;
    out.busy_ns = busy_ns.into_inner();
    out
}

/// One pass: every cell, one after another; each cell is a segment.
pub fn pass(cfg: &Config, traced: bool, epoch: Instant) -> Pass {
    let run: Vec<Cell> = cells(cfg)
        .iter()
        .enumerate()
        .map(|(i, (app, c))| run_cell(app, c, i as u64, traced, epoch))
        .collect();
    let sum = |f: fn(&Cell) -> u64| run.iter().map(f).sum::<u64>() as f64;
    let experiments = sum(|c| c.ops.len() as u64);
    let sim = Values::from([
        (
            "survival_pct".into(),
            metrics::pct(
                sum(|c| c.counts.success as u64),
                sum(|c| c.counts.effective as u64),
            ),
        ),
        (
            "faultinject.discard_pct".into(),
            metrics::pct(sum(|c| c.counts.discarded as u64), experiments),
        ),
        (
            "faultinject.wild_writes_landed_per_op".into(),
            sum(|c| c.landed) / experiments,
        ),
        (
            "trace.events_per_op".into(),
            sum(|c| c.events) / experiments,
        ),
        (
            "core.proc_success_pct".into(),
            metrics::pct(sum(|c| c.procs_ok), sum(|c| c.procs)),
        ),
    ]);
    let host = Values::from([
        ("faultinject.engine.overrun_ops".into(), sum(|c| c.overrun)),
        (
            "faultinject.engine.busy_pct".into(),
            metrics::pct(sum(|c| c.busy_ns), cfg.jobs as f64 * sum(|c| c.wall_ns)),
        ),
    ]);
    let mut pass = Pass {
        sim,
        host,
        ..Pass::default()
    };
    for cell in run {
        pass.segments.push(Segment {
            ops: cell.ops.len(),
            wall_ns: cell.wall_ns,
        });
        pass.ops.extend(cell.ops);
        pass.spans.extend(cell.spans);
    }
    pass
}

/// Experiments per cell in a warm-up. With one, the set-up's peak memory
/// swings by 2 MiB with which experiment comes first.
const WARMUP_EXPERIMENTS: u64 = 4;

/// Warm-up: the first experiments of every cell, one after another.
pub fn warm_up(cfg: &Config) {
    let mut t = Tracer::new(Instant::now(), false);
    for (app, c) in cells(cfg) {
        for i in 0..WARMUP_EXPERIMENTS {
            experiment(app, &c, i, &mut t);
        }
    }
}
