//! `steady`: crash-free driven batches, the syscall, MMU and epoch-sealer
//! hot path with no recovery work.
//!
//! Six streams, Table 3's apps × {unprotected, protected} on tagged-TLB
//! evaluation machines. Each stream boots, sets up its app and drives 8
//! untimed warm-up batches (filling the TLB), then its timed batches; one
//! op is one batch, and after the last one the app's data is checked
//! against its remote log.
//!
//! The streams run in turn on the calling thread, one batch of each per
//! round, whatever `--jobs` says: a batch takes tens of microseconds, and a
//! second worker on a 2-core shared machine made their latency measure the
//! scheduler. A pass is cut into segments of [`SEGMENT_ROUNDS`] rounds, so
//! that a slow spell costs one short segment of one pass, not the pass.
//!
//! Streams are kept short and a run repeats them instead: httpd's session
//! table never reuses a deleted slot, so from about 1,500 batches on every
//! SET scans all 1,024 slots, fails, and the store diverges from the log.

use crate::spans::{Span, Tracer};
use crate::{metrics, Config, Op, Pass, Segment, Values};
use ow_apps::{make_workload, VerifyResult, Workload};
use ow_kernel::{Kernel, KernelConfig, RobustnessFixes};
use ow_simhw::{clock::CYCLES_PER_SEC, machine::MachineConfig, mix64, MmuStats};
use std::time::Instant;

/// Table 3's applications.
pub const APPS: [&str; 3] = ["mysqld", "httpd", "volano"];

/// Untimed batches before a stream's counters start.
pub const WARMUP_BATCHES: u32 = 8;

/// Rounds (one batch of every stream) per segment.
pub const SEGMENT_ROUNDS: u32 = 10;

/// Number of streams.
pub const STREAMS: usize = 2 * APPS.len();

/// Stream `s`: its app, and whether it runs protected.
pub fn stream(s: usize) -> (&'static str, bool) {
    (APPS[s % APPS.len()], s >= APPS.len())
}

/// A stream's simulated counters over its timed batches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamResult {
    /// Application.
    pub app: &'static str,
    /// Memory-protected mode.
    pub protected: bool,
    /// Timed batches driven.
    pub batches: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// MMU statistics.
    pub mmu: MmuStats,
    /// Page-table switches.
    pub pt_switches: u64,
    /// Completed syscalls.
    pub syscalls: u64,
    /// Epoch checkpoints sealed.
    pub epochs: u64,
    /// Whether a batch panicked.
    pub panicked: bool,
    /// Whether the app's data matched its remote log after the last batch.
    pub intact: bool,
}

struct Live {
    k: Kernel,
    w: Box<dyn Workload>,
    pid: u64,
    cycles: u64,
    pt_switches: u64,
    syscalls: u64,
    epochs: u64,
    batches: u64,
    panicked: bool,
}

impl Live {
    /// Boots stream `s`, sets its app up and warms it; its counters start
    /// here, as Table 3's measured window does.
    fn start(s: usize, seed: u64) -> Live {
        let (app, protected) = stream(s);
        let machine = ow_kernel::standard_machine(MachineConfig {
            tlb_tagged: true,
            ..ow_bench::eval_machine_config()
        });
        let config = KernelConfig {
            user_protection: protected,
            fixes: RobustnessFixes::default(),
            ..KernelConfig::default()
        };
        let mut k = Kernel::boot_cold(machine, config, ow_apps::full_registry())
            .expect("evaluation machine boots");
        let mut w = make_workload(app, seed);
        let pid = w.setup(&mut k);
        for _ in 0..WARMUP_BATCHES {
            w.drive(&mut k, pid);
        }
        let cycles = k.machine.clock.now();
        k.machine.mmu.reset_stats();
        Live {
            pt_switches: k.pt_switches,
            syscalls: k.syscall_seq,
            epochs: k.ckpt_epoch,
            k,
            w,
            pid,
            cycles,
            batches: 0,
            panicked: false,
        }
    }

    /// Drives one timed batch as op `op`.
    fn batch(&mut self, op: u64, t: &mut Tracer) -> Op {
        self.batches += 1;
        if self.panicked {
            return Op::FAILED;
        }
        t.set_op(op);
        let (cycles, misses) = (
            self.k.machine.clock.now(),
            self.k.machine.mmu.stats().tlb_misses,
        );
        let start = Instant::now();
        let (k, w, pid) = (&mut self.k, &mut self.w, self.pid);
        let drove = ow_core::supervisor::contain(|| t.span("apps.drive", || w.drive(k, pid)));
        let end = Instant::now();
        t.op_span(start, end);
        if drove.is_err() {
            self.panicked = true;
            return Op::FAILED;
        }
        let cycles = self.k.machine.clock.now() - cycles;
        let misses = self.k.machine.mmu.stats().tlb_misses - misses;
        Op {
            host_ns: end.duration_since(start).as_nanos() as u64,
            sim_s: cycles as f64 / CYCLES_PER_SEC as f64,
            fingerprint: mix64(cycles ^ mix64(misses)),
            failed: false,
        }
    }

    /// The stream's counters over its timed batches; then the check of
    /// the app's data.
    fn finish(mut self, s: usize) -> StreamResult {
        let (app, protected) = stream(s);
        let k = &self.k;
        let mut result = StreamResult {
            app,
            protected,
            batches: self.batches,
            cycles: k.machine.clock.now() - self.cycles,
            mmu: k.machine.mmu.stats(),
            pt_switches: k.pt_switches - self.pt_switches,
            syscalls: k.syscall_seq - self.syscalls,
            epochs: k.ckpt_epoch - self.epochs,
            panicked: self.panicked,
            intact: false,
        };
        result.intact =
            !self.panicked && self.w.verify(&mut self.k, self.pid) == VerifyResult::Intact;
        result
    }
}

/// Everything a run of the streams produced.
#[derive(Debug, Default)]
pub struct Streams {
    /// Per-stream counters, in stream order.
    pub results: Vec<StreamResult>,
    /// Every batch, round by round, in stream order within a round.
    pub ops: Vec<Op>,
    /// The timed rounds, [`SEGMENT_ROUNDS`] at a time.
    pub segments: Vec<Segment>,
    /// Spans, when traced.
    pub spans: Vec<Span>,
}

/// Starts every stream, then drives `batches` timed rounds of them.
pub fn run_streams(seed: u64, batches: u32, traced: bool, epoch: Instant) -> Streams {
    let mut live: Vec<Live> = (0..STREAMS).map(|s| Live::start(s, seed)).collect();
    let mut t = Tracer::new(epoch, traced);
    let mut out = Streams::default();
    for first in (0..batches).step_by(SEGMENT_ROUNDS as usize) {
        let rounds = first..batches.min(first + SEGMENT_ROUNDS);
        let ops = rounds.len() * STREAMS;
        let start = Instant::now();
        for b in rounds {
            for (s, stream) in live.iter_mut().enumerate() {
                let op = s as u64 * u64::from(batches) + u64::from(b);
                out.ops.push(stream.batch(op, &mut t));
            }
        }
        out.segments.push(Segment {
            ops,
            wall_ns: start.elapsed().as_nanos() as u64,
        });
    }
    // A stream whose data diverged fails its last batch.
    let last_round = out.ops.len().saturating_sub(STREAMS);
    for (s, stream) in live.into_iter().enumerate() {
        let result = stream.finish(s);
        if let (false, Some(op)) = (result.intact, out.ops.get_mut(last_round + s)) {
            op.failed = true;
        }
        out.results.push(result);
    }
    out.spans = t.take();
    out
}

/// Simulated metrics of the streams.
pub fn sim_values(results: &[StreamResult]) -> Values {
    let sum = |protected: Option<bool>, f: fn(&StreamResult) -> u64| {
        results
            .iter()
            .filter(|r| protected.is_none_or(|p| r.protected == p))
            .map(f)
            .sum::<u64>() as f64
    };
    let per_batch = |f: fn(&StreamResult) -> u64| sum(None, f) / sum(None, |r| r.batches).max(1.0);
    let cycles = |p| sum(Some(p), |r| r.cycles) / sum(Some(p), |r| r.batches).max(1.0);
    let miss_pct = |p| {
        metrics::pct(
            sum(Some(p), |r| r.mmu.tlb_misses),
            sum(Some(p), |r| r.mmu.accesses),
        )
    };
    let intact = results.iter().filter(|r| r.intact).count() as f64;
    Values::from([
        (
            "survival_pct".into(),
            metrics::pct(intact, results.len() as f64),
        ),
        (
            "sim_overhead_pct".into(),
            metrics::pct(
                sum(Some(true), |r| r.cycles),
                sum(Some(false), |r| r.cycles),
            ) - 100.0,
        ),
        ("simhw.tlb_miss_pct.unprot".into(), miss_pct(false)),
        ("simhw.tlb_miss_pct.prot".into(), miss_pct(true)),
        (
            "simhw.asid_switches_per_batch".into(),
            per_batch(|r| r.mmu.asid_switches),
        ),
        (
            "simhw.invalidations_per_batch".into(),
            per_batch(|r| r.mmu.invalidations),
        ),
        (
            "simhw.tlb_flushes_per_batch".into(),
            per_batch(|r| r.mmu.flushes),
        ),
        ("kernel.sim_cycles_per_batch.unprot".into(), cycles(false)),
        ("kernel.sim_cycles_per_batch.prot".into(), cycles(true)),
        (
            "kernel.syscalls_per_batch".into(),
            per_batch(|r| r.syscalls),
        ),
        (
            "kernel.pt_switches_per_batch".into(),
            per_batch(|r| r.pt_switches),
        ),
        (
            "kernel.ckpt_epochs_per_kbatch".into(),
            1000.0 * per_batch(|r| r.epochs),
        ),
    ])
}

/// One pass: start the streams, then time their rounds.
pub fn pass(cfg: &Config, traced: bool, epoch: Instant) -> Pass {
    let streams = run_streams(cfg.seed, cfg.size.steady_batches, traced, epoch);
    Pass {
        sim: sim_values(&streams.results),
        segments: streams.segments,
        ops: streams.ops,
        spans: streams.spans,
        ..Pass::default()
    }
}

/// Warm-up: start every stream and check it, one after another.
pub fn warm_up(cfg: &Config) {
    for s in 0..STREAMS {
        Live::start(s, cfg.seed).finish(s);
    }
}
