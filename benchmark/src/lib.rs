//! The repository benchmark: host throughput and simulated recovery metrics
//! of the Otherworld reproduction on four workloads, with a per-layer traced
//! run.
//!
//! A run makes whole passes over a workload's op list, which is fixed by the
//! seed, until the requested seconds have elapsed. Host-clock metrics take
//! every segment of the untraced run at its fastest pass: load from outside
//! the process only ever slows a segment down. Simulated metrics come
//! from the first pass, which every later pass and the traced run must
//! reproduce op for op. Per-layer metrics come from traced passes run in
//! turn with the untraced ones, whose spans time the benchmark's own calls
//! into each workspace crate.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod metrics;
pub mod recover;
pub mod spans;
pub mod steady;

use ow_trace::json::Value;
use spans::Span;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Metric values by name.
pub type Values = BTreeMap<String, f64>;

/// The benchmark's workloads, in the order `--workload all` runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 5 fault-injection experiments at paper size.
    Campaign,
    /// Crash and recover a driven app: cold morph, eager page copy.
    RecoverCold,
    /// Crash and recover a driven app: warm morph, lazy copy-on-access.
    RecoverWarm,
    /// Crash-free driven batches in both protection modes.
    Steady,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::Campaign,
        Workload::RecoverCold,
        Workload::RecoverWarm,
        Workload::Steady,
    ];

    /// The name `--workload` takes and `BENCHMARK.json` lists.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::RecoverCold => "recover_cold",
            Workload::RecoverWarm => "recover_warm",
            Workload::Steady => "steady",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed used when `--seed` is not given: the pinned Table 5
    /// campaign seed, Table 6's workload seed and Table 3's workload seed.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Campaign => ow_bench::tables::TABLE5_SEED,
            Workload::RecoverCold | Workload::RecoverWarm => 21,
            Workload::Steady => 11,
        }
    }

    /// The microreboot configuration of a recover workload.
    fn recovery_mode(self) -> (ow_core::MorphMode, ow_core::ResurrectionStrategy) {
        use ow_core::{MorphMode, ResurrectionStrategy};
        match self {
            Workload::RecoverWarm => (MorphMode::Warm, ResurrectionStrategy::Lazy),
            _ => (MorphMode::Cold, ResurrectionStrategy::CopyPages),
        }
    }
}

/// How much work one pass of each workload does.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Effective (crashed) experiments per campaign cell (app × mode).
    pub effective_per_cell: usize,
    /// Ops per recover pass.
    pub recover_ops: u64,
    /// Timed batches per steady stream.
    pub steady_batches: u32,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Size {
    /// The measured size.
    pub const FULL: Size = Size {
        effective_per_cell: 400,
        recover_ops: 5_000,
        steady_batches: 1_000,
        setup_reps: 21,
    };

    /// A size small enough for the test profile.
    pub const SMOKE: Size = Size {
        effective_per_cell: 1,
        recover_ops: 5,
        steady_batches: 20,
        setup_reps: 1,
    };
}

/// What a workload runs with.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Workload seed: the same seed gives the same ops.
    pub seed: u64,
    /// Worker threads of the campaign and recover workloads; `steady` runs
    /// on the calling thread.
    pub jobs: usize,
    /// Pass size.
    pub size: Size,
}

/// One measured op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// Host nanoseconds of the op's timed region.
    pub host_ns: u64,
    /// Simulated seconds of the op's timed region.
    pub sim_s: f64,
    /// Hash of the op's simulated result, which a repeated or traced run
    /// of the op must reproduce.
    pub fingerprint: u64,
    /// Whether the op failed.
    pub failed: bool,
}

impl Op {
    /// An op that failed.
    pub const FAILED: Op = Op {
        host_ns: 0,
        sim_s: 0.0,
        fingerprint: 0,
        failed: true,
    };
}

/// A stretch of a pass that every pass repeats: a campaign cell, a chunk
/// of recover ops, a few steady rounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Segment {
    /// Ops completed.
    pub ops: usize,
    /// Host nanoseconds it took.
    pub wall_ns: u64,
}

/// One pass over a workload's op list.
#[derive(Debug, Default)]
pub struct Pass {
    /// The ops, in op-list order.
    pub ops: Vec<Op>,
    /// The measured phase, segment by segment.
    pub segments: Vec<Segment>,
    /// Spans, when traced.
    pub spans: Vec<Span>,
    /// Metrics read from the simulation; identical on every pass of a seed.
    pub sim: Values,
    /// Host-clock counters of the pass.
    pub host: Values,
}

/// Runs one pass of `w`.
pub fn pass(w: Workload, cfg: &Config, traced: bool) -> Pass {
    let epoch = Instant::now();
    match w {
        Workload::Campaign => campaign::pass(cfg, traced, epoch),
        Workload::RecoverCold | Workload::RecoverWarm => {
            let (morph, strategy) = w.recovery_mode();
            recover::pass(cfg, morph, strategy, traced, epoch)
        }
        Workload::Steady => steady::pass(cfg, traced, epoch),
    }
}

/// One set-up of `w`: untimed warm-up ops of every kind the passes run, on
/// the calling thread. Returns how long it took.
pub fn set_up(w: Workload, cfg: &Config) -> Duration {
    let start = Instant::now();
    match w {
        Workload::Campaign => campaign::warm_up(cfg),
        Workload::RecoverCold | Workload::RecoverWarm => {
            let (morph, strategy) = w.recovery_mode();
            recover::warm_up(cfg, morph, strategy);
        }
        Workload::Steady => steady::warm_up(cfg),
    }
    start.elapsed()
}

/// Whole passes until `seconds` have elapsed: untraced ones and, when
/// `traced`, a traced pass after each. Alternating lets the two runs see
/// the same machine and the same warmed-up process.
pub fn run(w: Workload, cfg: &Config, seconds: f64, traced: bool) -> (Vec<Pass>, Vec<Pass>) {
    let start = Instant::now();
    let (mut untraced_passes, mut traced_passes) = (Vec::new(), Vec::new());
    loop {
        untraced_passes.push(pass(w, cfg, false));
        if traced {
            traced_passes.push(pass(w, cfg, true));
        }
        if start.elapsed().as_secs_f64() >= seconds {
            return (untraced_passes, traced_passes);
        }
    }
}

/// Which runs a measurement makes and which metrics it reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trace {
    /// Untraced passes for the seconds; end-to-end metrics.
    Off,
    /// Untraced and traced passes in turn for the seconds; per-layer
    /// metrics.
    On,
    /// Untraced and traced passes in turn for twice the seconds; every
    /// metric.
    Both,
}

/// Everything one workload measurement produced.
#[derive(Debug)]
pub struct Measurement {
    /// Ops attempted over every run.
    pub attempted: u64,
    /// Ops that failed, plus ops whose simulated result a repeated or
    /// traced run did not reproduce.
    pub failed: u64,
    /// Every metric computed.
    pub values: Values,
    /// The traced run's spans, pass by pass.
    pub spans: Vec<Vec<Span>>,
}

/// Measures `w`: set-ups, then the passes `trace` asks for, then the
/// checks.
pub fn measure(w: Workload, cfg: &Config, seconds: f64, trace: Trace) -> Measurement {
    // Memory is read over the set-ups, which run one op at a time on one
    // thread: the peak of two workers varies by tens of MiB between
    // processes with where the allocator places its per-thread arenas.
    metrics::reset_peak_rss();
    let mut setups: Vec<f64> = (0..cfg.size.setup_reps.max(1))
        .map(|_| set_up(w, cfg).as_secs_f64())
        .collect();
    let setup_rss_mib = metrics::peak_rss_mib();
    let seconds = if trace == Trace::Both {
        2.0 * seconds
    } else {
        seconds
    };
    let (untraced, traced) = run(w, cfg, seconds, trace != Trace::Off);

    let runs = [&untraced, &traced];
    let attempted = runs
        .iter()
        .copied()
        .flatten()
        .map(|p| p.ops.len() as u64)
        .sum();
    let mut failed = runs
        .iter()
        .copied()
        .flatten()
        .flat_map(|p| &p.ops)
        .filter(|op| op.failed)
        .count() as u64;
    // Tracing and repetition must never perturb the simulation.
    for pass in runs.iter().copied().flatten().skip(1) {
        failed += metrics::mismatches(&untraced[0], pass);
    }

    let mut values = metrics::end_to_end(&untraced, metrics::median(&mut setups), setup_rss_mib);
    let mut spans = Vec::new();
    if !traced.is_empty() {
        values.extend(metrics::per_layer(&untraced, &traced));
        spans = traced.into_iter().map(|p| p.spans).collect();
    }
    Measurement {
        attempted,
        failed,
        values,
        spans,
    }
}

/// A metric's name and unit, as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
}

/// The metrics `BENCHMARK.json` names.
#[derive(Debug, Clone)]
pub struct Spec {
    /// End-to-end metrics (the untraced run).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (the traced run).
    pub per_layer: Vec<MetricSpec>,
}

/// The benchmark definition this program was built with.
pub const SPEC_JSON: &str = include_str!("../../BENCHMARK.json");

impl Spec {
    /// Parses [`SPEC_JSON`].
    pub fn load() -> Spec {
        let doc = Value::parse(SPEC_JSON).expect("BENCHMARK.json is valid JSON");
        let field = |v: &Value, key: &str| -> String {
            v.get(key)
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json metric without `{key}`"))
                .to_string()
        };
        let metrics = |key: &str| {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
                .iter()
                .map(|m| MetricSpec {
                    name: field(m, "name"),
                    unit: field(m, "unit"),
                })
                .collect()
        };
        Spec {
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    /// The metrics `trace` reports, with their values from `values`. A
    /// per-layer metric a workload has no layer for reads 0.
    ///
    /// # Errors
    ///
    /// Names an end-to-end metric `values` lacks.
    pub fn select(&self, trace: Trace, values: &Values) -> Result<Vec<(MetricSpec, f64)>, String> {
        let mut out = Vec::new();
        if trace != Trace::On {
            for m in &self.end_to_end {
                let v = values
                    .get(&m.name)
                    .ok_or_else(|| format!("end-to-end metric `{}` was not measured", m.name))?;
                out.push((m.clone(), *v));
            }
        }
        if trace != Trace::Off {
            for m in &self.per_layer {
                out.push((m.clone(), values.get(&m.name).copied().unwrap_or(0.0)));
            }
        }
        Ok(out)
    }
}

/// The result object printed as the last line: `correct`, `attempted`,
/// `failed` and every metric with its unit.
pub fn result_json(attempted: u64, failed: u64, metrics: &[(String, MetricSpec, f64)]) -> Value {
    let metrics = metrics.iter().map(|(name, spec, v)| {
        (
            name.as_str(),
            Value::obj([
                ("value", Value::from(*v)),
                ("unit", Value::from(spec.unit.as_str())),
            ]),
        )
    });
    Value::obj([
        ("correct", Value::from(failed == 0)),
        ("attempted", Value::from(attempted)),
        ("failed", Value::from(failed)),
        ("metrics", Value::obj(metrics)),
    ])
}
