//! The benchmark keeps the contract `BENCHMARK.json` states: its limits,
//! every metric it names measured at smoke size, a repeatable simulation,
//! and the command-line result format.

use ow_benchmark::{measure, metrics, pass, Config, Size, Spec, Trace, Workload, SPEC_JSON};
use ow_trace::json::Value;
use std::collections::BTreeSet;
use std::process::{Command, Output};
use std::time::{Duration, Instant};

/// Metrics of an untraced run read from the host clock; every other one is
/// simulated.
const HOST: [&str; 5] = [
    "ops_per_s",
    "op_p50_ms",
    "bench.op_p99_ms",
    "setup_s",
    "setup_rss_mib",
];

fn smoke(w: Workload, jobs: usize) -> Config {
    Config {
        seed: w.default_seed(),
        jobs,
        size: Size::SMOKE,
    }
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Object(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("not an object: {v}"),
    }
}

fn list<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key).and_then(Value::as_array).expect(key)
}

#[test]
fn benchmark_json_keeps_its_limits() {
    let doc = Value::parse(SPEC_JSON).expect("valid JSON");
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert!(SPEC_JSON.len() <= 64 * 1024);
    let run_seconds = doc
        .get("run_seconds")
        .and_then(Value::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&run_seconds));

    let workloads = list(&doc, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            let why = w.get("why").and_then(Value::as_str).expect("why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
            let name = w.get("name").and_then(Value::as_str).expect("name");
            assert!(is_name(name), "{name}");
            name
        })
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);

    let end_to_end = list(&doc, "end_to_end");
    let per_layer = list(&doc, "per_layer");
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let mut seen = BTreeSet::new();
    let mut largest_bound = ("", 0.0);
    for (m, bounded) in end_to_end
        .iter()
        .map(|m| (m, true))
        .chain(per_layer.iter().map(|m| (m, false)))
    {
        let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k);
        let name = field("name");
        assert!(
            is_name(name) && seen.insert(name),
            "bad or repeated name {name}"
        );
        let unit = field("unit");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "unit {unit}"
        );
        assert!(["higher", "lower"].contains(&field("better")));
        if bounded {
            assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
            let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
            if bound >= largest_bound.1 {
                largest_bound = (name, bound);
            }
        } else {
            assert_eq!(keys(m), ["name", "unit", "better"]);
        }
    }
    let setup = end_to_end
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
    assert_eq!(
        setup.get("bound").and_then(Value::as_f64),
        Some(largest_bound.1),
        "setup_s has the largest bound"
    );
}

#[test]
fn a_smoke_run_measures_every_named_metric_quickly() {
    let spec = Spec::load();
    let listed: BTreeSet<&str> = spec
        .end_to_end
        .iter()
        .chain(&spec.per_layer)
        .map(|m| m.name.as_str())
        .collect();
    let start = Instant::now();
    let mut measured = BTreeSet::new();
    for w in Workload::ALL {
        let m = measure(w, &smoke(w, 2), 0.0, Trace::Both);
        assert_eq!(m.failed, 0, "{}", w.name());
        spec.select(Trace::Both, &m.values)
            .expect("every end-to-end metric");
        for e in &spec.end_to_end {
            assert!(m.values[&e.name] > 0.0, "{}: {} is 0", w.name(), e.name);
        }
        for (name, v) in &m.values {
            assert!(
                listed.contains(name.as_str()),
                "{name} is not in BENCHMARK.json"
            );
            assert!(v.is_finite(), "{}: {name} = {v}", w.name());
        }
        assert!(m.spans.iter().all(|pass| !pass.is_empty()));
        measured.extend(m.values.into_keys());
    }
    let elapsed = start.elapsed();
    for name in listed {
        assert!(measured.contains(name), "no workload measures {name}");
    }
    assert!(elapsed < Duration::from_secs(5), "smoke took {elapsed:?}");
}

/// Per op: fingerprint and simulated time; then every simulated metric, as
/// bits.
type Simulated = (Vec<(u64, u64)>, Vec<(String, u64)>);

/// What one pass of `w` simulated.
fn simulated(w: Workload, jobs: usize, traced: bool) -> Simulated {
    let p = pass(w, &smoke(w, jobs), traced);
    let ops = p
        .ops
        .iter()
        .map(|op| (op.fingerprint, op.sim_s.to_bits()))
        .collect();
    let values = metrics::end_to_end(&[p], 0.0, 0.0)
        .into_iter()
        .filter(|(name, _)| !HOST.contains(&name.as_str()))
        .map(|(name, v)| (name, v.to_bits()))
        .collect();
    (ops, values)
}

#[test]
fn the_simulation_repeats_across_runs_job_counts_and_tracing() {
    for w in Workload::ALL {
        let reference = simulated(w, 1, false);
        assert_eq!(simulated(w, 1, false), reference, "{}: rerun", w.name());
        assert_eq!(simulated(w, 2, false), reference, "{}: --jobs 2", w.name());
        assert_eq!(simulated(w, 2, true), reference, "{}: traced", w.name());
    }
}

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ow-benchmark"))
        .args(args)
        .output()
        .expect("benchmark runs")
}

fn last_line(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    Value::parse(stdout.lines().last().expect("output")).expect("JSON last line")
}

#[test]
fn jobs_beyond_the_cores_are_refused() {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let out = bench(&["--smoke", "--jobs", &(cores + 1).to_string()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

#[test]
fn each_trace_mode_prints_its_metrics_as_the_last_line() {
    let spec = Spec::load();
    for (trace, metrics) in [("0", &spec.end_to_end), ("1", &spec.per_layer)] {
        let args = [
            "--workload",
            "steady",
            "--smoke",
            "--seed",
            "3",
            "--seconds",
            "0.2",
            "--trace",
            trace,
        ];
        let out = bench(&args);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let result = last_line(&out);
        assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
        assert!(result.get("attempted").and_then(Value::as_u64) > Some(0));
        assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
        let printed = result.get("metrics").expect("metrics");
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(keys(printed), names);
        for m in metrics {
            let v = printed.get(&m.name).expect("metric");
            assert_eq!(keys(v), ["value", "unit"]);
            assert_eq!(v.get("unit").and_then(Value::as_str), Some(m.unit.as_str()));
        }
    }
}

#[test]
fn json_and_spans_files_are_written_at_exit() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let json = format!("{dir}/contract-{}.json", std::process::id());
    let spans = format!("{dir}/contract-{}.jsonl", std::process::id());
    let out = bench(&[
        "--workload",
        "recover_warm",
        "--smoke",
        "--json",
        &json,
        "--spans",
        &spans,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Value::parse(&std::fs::read_to_string(&json).expect("json")).expect("JSON");
    let metrics = doc
        .get("recover_warm")
        .and_then(|r| r.get("metrics"))
        .expect("metrics");
    assert!(metrics
        .get("core.microreboot.p50_ms")
        .and_then(|m| m.get("unit"))
        .is_some());
    let lines = std::fs::read_to_string(&spans).expect("spans");
    let written: Vec<Value> = lines
        .lines()
        .map(|l| Value::parse(l).expect("span"))
        .collect();
    assert!(written
        .iter()
        .any(|s| s.get("name").and_then(Value::as_str) == Some("core.microreboot")));
    for s in &written {
        assert_eq!(
            keys(s),
            ["workload", "pass", "name", "op", "start_ns", "end_ns", "parent"]
        );
    }
    std::fs::remove_file(json).ok();
    std::fs::remove_file(spans).ok();
}
