//! `recover_cold` and `recover_warm`: the paper's recovery pipeline with no
//! corruption noise, under Table 6's settings.
//!
//! One op boots a fresh evaluation machine, sets up app `TABLE5_APPS[i % 5]`,
//! drives 6 to 30 batches (the count drawn from the seed), crashes the
//! kernel, microreboots it, and brings the app back: reconnect, settle, one
//! batch, verify against the remote log. The op's timed region runs from
//! the panic to the verdict; its simulated time is the service
//! interruption, panic to operational. A fresh machine per op keeps every
//! microreboot a first one (see the README's known limits).

use crate::spans::Tracer;
use crate::{metrics, Config, Op, Pass, Segment, Values};
use ow_apps::{make_workload, workload::TABLE5_APPS, VerifyResult};
use ow_core::{microreboot, AdoptionSummary, MorphMode, OtherworldConfig, ResurrectionStrategy};
use ow_kernel::{Kernel, KernelConfig, PanicCause, RobustnessFixes};
use ow_simhw::{clock::CYCLES_PER_SEC, mix64, stream_seed};
use std::collections::BTreeMap;
use std::time::Instant;

/// Stream tag of the pre-crash batch count.
const STREAM_BATCHES: u64 = 0x4241_5443_4845_5321; // "BATCHES!"

/// What one op runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpec {
    /// Application.
    pub app: &'static str,
    /// The app's workload seed.
    pub workload_seed: u64,
    /// Batches driven before the crash.
    pub batches: u32,
}

/// Op `i` of the op list of `seed`.
pub fn spec(seed: u64, i: u64) -> OpSpec {
    let workload_seed = stream_seed(seed, i);
    OpSpec {
        app: TABLE5_APPS[(i % TABLE5_APPS.len() as u64) as usize],
        workload_seed,
        batches: 6 + (stream_seed(workload_seed, STREAM_BATCHES) % 25) as u32,
    }
}

/// The microreboot configuration of Table 6's matrix.
pub fn config(morph: MorphMode, strategy: ResurrectionStrategy) -> OtherworldConfig {
    OtherworldConfig {
        morph,
        strategy,
        resurrect_sockets: true,
        resurrect_pipes: true,
        ..OtherworldConfig::default()
    }
}

/// What one recovered op produced.
#[derive(Debug, Clone)]
pub struct Recovery {
    /// Host nanoseconds from the panic to the verdict.
    pub host_ns: u64,
    /// Simulated seconds from the panic to the app being operational.
    pub interruption_s: f64,
    /// Simulated stage split of the microreboot.
    pub crash_boot_s: f64,
    /// Simulated seconds resurrecting processes.
    pub resurrection_s: f64,
    /// Simulated seconds morphing into the main kernel.
    pub morph_s: f64,
    /// Simulated seconds of the whole microreboot.
    pub total_s: f64,
    /// The morphed kernel's boot log: phase and cycles.
    pub boot_log: Vec<(String, u64)>,
    /// Dead-kernel bytes read.
    pub dead_bytes: u64,
    /// What the warm morph adopted.
    pub adoption: AdoptionSummary,
    /// Flight-record events recovered from the dead kernel.
    pub events: u64,
    /// Processes resurrected with their data, of `procs`.
    pub procs_ok: u64,
    /// Processes the microreboot reported on.
    pub procs: u64,
    /// Simulated cycles when the app was verified.
    pub cycles: u64,
    /// The app's verdict against its remote log.
    pub verdict: VerifyResult,
}

impl Recovery {
    /// Hash of the simulated result.
    pub fn fingerprint(&self) -> u64 {
        let a = &self.adoption;
        let flags = u64::from(a.frames) | u64::from(a.swap) << 1 | u64::from(a.cache) << 2;
        [
            self.interruption_s.to_bits(),
            self.total_s.to_bits(),
            self.dead_bytes,
            flags,
            self.events,
            self.procs_ok,
            self.cycles,
            u64::from(self.verdict == VerifyResult::Intact),
        ]
        .into_iter()
        .fold(self.procs, |h, v| mix64(h ^ v))
    }
}

/// Runs op `spec` under `config`.
///
/// # Errors
///
/// The microreboot failed, or no process survived it.
pub fn recover_op(
    spec: &OpSpec,
    config: &OtherworldConfig,
    t: &mut Tracer,
) -> Result<Recovery, String> {
    let machine = t.span("simhw.machine_new", || {
        ow_kernel::standard_machine(ow_bench::eval_machine_config())
    });
    let kernel_config = KernelConfig {
        user_protection: false,
        fixes: RobustnessFixes::default(),
        ..KernelConfig::default()
    };
    let mut k = t
        .span("kernel.boot_cold", || {
            Kernel::boot_cold(machine, kernel_config, ow_apps::full_registry())
        })
        .map_err(|e| format!("cold boot: {e}"))?;
    let mut w = make_workload(spec.app, spec.workload_seed);
    let pid = t.span("apps.setup", || w.setup(&mut k));
    for _ in 0..spec.batches {
        t.span("apps.drive", || w.drive(&mut k, pid));
    }

    let start = Instant::now();
    let t_fail = k.seconds();
    t.span("kernel.do_panic", || {
        k.do_panic(PanicCause::Oops("benchmark failure"))
    });
    let (mut k2, report) = t
        .span("core.microreboot", || microreboot(k, config))
        .map_err(|e| e.to_string())?;
    let new_pid = k2
        .procs
        .first()
        .map(|p| p.pid)
        .ok_or("no process survived the microreboot")?;
    // Back to operational: reconnect, settle, serve one batch; then check
    // the app's data against its remote log.
    let (interruption_s, verdict) = t.span("apps.verify", || {
        w.reconnect(&mut k2, new_pid);
        for _ in 0..8 {
            k2.run_step();
        }
        w.drive(&mut k2, new_pid);
        let interruption_s = k2.seconds() - t_fail;
        (interruption_s, w.verify(&mut k2, new_pid))
    });
    let host_ns = start.elapsed().as_nanos() as u64;

    Ok(Recovery {
        host_ns,
        interruption_s,
        crash_boot_s: report.crash_boot_seconds,
        resurrection_s: report.resurrection_seconds,
        morph_s: report.morph_seconds,
        total_s: report.total_seconds,
        boot_log: k2.boot_log.clone(),
        dead_bytes: report.stats.total_bytes,
        adoption: report.adoption,
        events: report.flight.events.len() as u64,
        procs_ok: report
            .procs
            .iter()
            .filter(|p| p.outcome.is_success())
            .count() as u64,
        procs: report.procs.len() as u64,
        cycles: k2.machine.clock.now(),
        verdict,
    })
}

/// Simulated per-layer metrics over the recovered ops of a pass.
fn sim_values(ops: &[Recovery]) -> Values {
    let mut values = Values::new();
    let n = ops.len().max(1) as f64;
    let mut p50 = |name: &str, f: &dyn Fn(&Recovery) -> f64| {
        let mut v: Vec<f64> = ops.iter().map(f).collect();
        values.insert(name.to_string(), metrics::median(&mut v));
    };
    p50("core.sim_crash_boot_s", &|r| r.crash_boot_s);
    p50("core.sim_resurrection_s", &|r| r.resurrection_s);
    p50("core.sim_morph_s", &|r| r.morph_s);
    p50("core.sim_after_morph_s", &|r| r.interruption_s - r.total_s);

    let mut phases: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (phase, cycles) in ops.iter().flat_map(|r| &r.boot_log) {
        phases
            .entry(phase.as_str())
            .or_default()
            .push(*cycles as f64 / CYCLES_PER_SEC as f64);
    }
    for (phase, mut seconds) in phases {
        values.insert(
            format!("kernel.sim_crash_boot.{phase}_s"),
            metrics::median(&mut seconds),
        );
    }

    let count = |f: fn(&Recovery) -> bool| ops.iter().filter(|r| f(r)).count() as f64;
    let sum = |f: fn(&Recovery) -> u64| ops.iter().map(f).sum::<u64>() as f64;
    values.extend([
        (
            "core.dead_kib_read".to_string(),
            sum(|r| r.dead_bytes) / 1024.0 / n,
        ),
        (
            "core.adopted_frames_pct".to_string(),
            metrics::pct(count(|r| r.adoption.frames), n),
        ),
        (
            "core.adopted_swap_pct".to_string(),
            metrics::pct(count(|r| r.adoption.swap), n),
        ),
        (
            "core.adopted_cache_pct".to_string(),
            metrics::pct(count(|r| r.adoption.cache), n),
        ),
        (
            "core.proc_success_pct".to_string(),
            metrics::pct(sum(|r| r.procs_ok), sum(|r| r.procs)),
        ),
        ("trace.events_per_op".to_string(), sum(|r| r.events) / n),
    ]);
    values
}

/// Ops per segment. Each chunk runs on the engine by itself, so a slow
/// stretch of host time costs one chunk of one pass.
const CHUNK: u64 = 500;

/// One pass over the op list, `cfg.jobs` ops at a time.
pub fn pass(
    cfg: &Config,
    morph: MorphMode,
    strategy: ResurrectionStrategy,
    traced: bool,
    epoch: Instant,
) -> Pass {
    let config = config(morph, strategy);
    let mut pass = Pass::default();
    let mut recovered = Vec::new();
    for base in (0..cfg.size.recover_ops).step_by(CHUNK as usize) {
        let len = CHUNK.min(cfg.size.recover_ops - base);
        let start = Instant::now();
        ow_faultinject::run_indexed(
            cfg.jobs,
            Some(len),
            |i| {
                let mut t = Tracer::new(epoch, traced);
                t.set_op(base + i);
                let op_start = Instant::now();
                let out = recover_op(&spec(cfg.seed, base + i), &config, &mut t);
                t.op_span(op_start, Instant::now());
                (out, t.take())
            },
            |_, result| {
                let Ok((Ok(r), spans)) = result else {
                    pass.ops.push(Op::FAILED);
                    return true;
                };
                pass.ops.push(Op {
                    host_ns: r.host_ns,
                    sim_s: r.interruption_s,
                    fingerprint: r.fingerprint(),
                    failed: r.verdict != VerifyResult::Intact,
                });
                pass.spans.extend(spans);
                recovered.push(r);
                true
            },
        );
        pass.segments.push(Segment {
            ops: len as usize,
            wall_ns: start.elapsed().as_nanos() as u64,
        });
    }
    pass.sim = sim_values(&recovered);
    let intact = pass.ops.iter().filter(|op| !op.failed).count();
    pass.sim.insert(
        "survival_pct".into(),
        metrics::pct(intact as f64, pass.ops.len() as f64),
    );
    pass
}

/// Warm-up: the first op of every app, one after another.
pub fn warm_up(cfg: &Config, morph: MorphMode, strategy: ResurrectionStrategy) {
    let config = config(morph, strategy);
    let mut t = Tracer::new(Instant::now(), false);
    for i in 0..TABLE5_APPS.len() as u64 {
        // A failing op fails again, and counts, in the measured passes.
        let _ = recover_op(&spec(cfg.seed, i), &config, &mut t);
    }
}
