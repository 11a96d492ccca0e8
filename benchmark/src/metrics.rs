//! Metric arithmetic: quantiles, the process's peak memory, and the
//! end-to-end and per-layer values of a measurement.

use crate::spans::OP;
use crate::{Pass, Values};
use std::collections::BTreeMap;

/// The layer calls the benchmark times, one span name each.
pub const LAYERS: [&str; 9] = [
    "simhw.machine_new",
    "kernel.boot_cold",
    "apps.setup",
    "apps.drive",
    "faultinject.inject",
    "kernel.do_panic",
    "trace.flight_recover",
    "core.microreboot",
    "apps.verify",
];

/// The `q` quantile of `values` by nearest rank (0 for no values).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// The median of `values`.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// `part` as a percentage of `whole` (0 when either is 0).
pub fn pct(part: f64, whole: f64) -> f64 {
    if part == 0.0 || whole == 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

/// Starts a new peak-memory window (Linux: resets `VmHWM`).
pub fn reset_peak_rss() {
    // Best effort: without it the window starts earlier, which can only
    // raise the peak.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory since the last [`reset_peak_rss`], in MiB (0 where
/// the system does not report it).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Ops of `other` whose simulated result differs from `reference`'s, plus
/// ops either pass lacks, plus one if their simulated metrics differ.
pub fn mismatches(reference: &Pass, other: &Pass) -> u64 {
    let differing = reference
        .ops
        .iter()
        .zip(&other.ops)
        .filter(|(a, b)| a.fingerprint != b.fingerprint)
        .count();
    let missing = reference.ops.len().abs_diff(other.ops.len());
    (differing + missing) as u64 + u64::from(reference.sim != other.sim)
}

/// Every segment at its fastest pass: the ops completed, the host
/// nanoseconds taken, and the latencies of its ops in ms (failed ops left
/// out). Passes shaped unlike the first are skipped; they count as
/// mismatches.
pub fn fastest_segments(passes: &[Pass]) -> (usize, u64, Vec<f64>) {
    let first = &passes[0];
    let alike = |p: &&Pass| {
        p.ops.len() == first.ops.len()
            && p.segments.len() == first.segments.len()
            && p.segments
                .iter()
                .zip(&first.segments)
                .all(|(a, b)| a.ops == b.ops)
    };
    let (mut ops, mut ns, mut latencies_ms) = (0, 0, Vec::new());
    let mut start = 0;
    for (i, segment) in first.segments.iter().enumerate() {
        let fastest = passes
            .iter()
            .filter(alike)
            .min_by_key(|p| p.segments[i].wall_ns)
            .unwrap_or(first);
        ops += segment.ops;
        ns += fastest.segments[i].wall_ns;
        let seg_ops = &fastest.ops[start..start + segment.ops];
        latencies_ms.extend(
            seg_ops
                .iter()
                .filter(|op| !op.failed)
                .map(|op| op.host_ns as f64 / 1e6),
        );
        start += segment.ops;
    }
    (ops, ns, latencies_ms)
}

/// Ops per second, every segment at its fastest pass.
pub fn ops_per_s(passes: &[Pass]) -> f64 {
    let (ops, ns, _) = fastest_segments(passes);
    ops as f64 * 1e9 / ns.max(1) as f64
}

/// The end-to-end metrics of an untraced run, plus every metric read from
/// the simulation.
pub fn end_to_end(untraced: &[Pass], setup_s: f64, setup_rss_mib: f64) -> Values {
    let (_, _, mut host_ms) = fastest_segments(untraced);
    let first = &untraced[0];
    let mut sim_s: Vec<f64> = first
        .ops
        .iter()
        .filter(|op| !op.failed)
        .map(|op| op.sim_s)
        .collect();
    let mut values = first.sim.clone();
    values.extend([
        ("ops_per_s".to_string(), ops_per_s(untraced)),
        ("op_p50_ms".to_string(), quantile(&mut host_ms, 0.50)),
        ("bench.op_p99_ms".to_string(), quantile(&mut host_ms, 0.99)),
        ("setup_s".to_string(), setup_s),
        ("setup_rss_mib".to_string(), setup_rss_mib),
        (
            "sim_op_mean_s".to_string(),
            sim_s.iter().sum::<f64>() / sim_s.len().max(1) as f64,
        ),
        ("sim_op_p99_s".to_string(), quantile(&mut sim_s, 0.99)),
    ]);
    values
}

/// Per-layer metrics: the traced run's span split, its coverage and cost,
/// and the host counters of its passes.
pub fn per_layer(untraced: &[Pass], traced: &[Pass]) -> Values {
    // Per op of each pass: (op span, sum of its layer spans).
    let mut per_op: BTreeMap<(usize, u64), (u64, u64)> = BTreeMap::new();
    let mut calls: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let spans = traced
        .iter()
        .enumerate()
        .flat_map(|(p, pass)| pass.spans.iter().map(move |s| (p, s)));
    for (p, span) in spans {
        let entry = per_op.entry((p, span.op)).or_default();
        if span.name == OP {
            entry.0 += span.ns();
        } else {
            entry.1 += span.ns();
            calls.entry(span.name).or_default().push(span.ns() as f64);
        }
    }
    let op_ns: f64 = per_op.values().map(|&(op, _)| op as f64).sum();
    let layer_ns: f64 = per_op.values().map(|&(_, layers)| layers as f64).sum();

    let mut values = Values::new();
    let mut put = |name: String, v: f64| {
        values.insert(name, v);
    };
    for layer in LAYERS {
        let mut ns = calls.remove(layer).unwrap_or_default();
        put(format!("{layer}.share_pct"), pct(ns.iter().sum(), op_ns));
        if layer == "core.microreboot" {
            put(format!("{layer}.p99_ms"), quantile(&mut ns, 0.99) / 1e6);
        }
        put(format!("{layer}.p50_ms"), median(&mut ns) / 1e6);
    }
    assert!(
        calls.is_empty(),
        "spans of untimed layers: {:?}",
        calls.keys()
    );
    let mut self_ns: Vec<f64> = per_op
        .values()
        .map(|&(op, layers)| op.saturating_sub(layers) as f64)
        .collect();
    put("bench.self.share_pct".into(), pct(op_ns - layer_ns, op_ns));
    put("bench.self.p50_ms".into(), median(&mut self_ns) / 1e6);
    put("bench.span_coverage_pct".into(), pct(layer_ns, op_ns));
    put(
        "bench.trace_overhead_pct".into(),
        pct(ops_per_s(untraced), ops_per_s(traced)) - 100.0,
    );
    // Host counters: the mean over the traced passes.
    let mut sums: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, v) in traced.iter().flat_map(|p| &p.host) {
        *sums.entry(name).or_default() += v;
    }
    for (name, sum) in sums {
        put(name.to_string(), sum / traced.len() as f64);
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Span;
    use crate::{Op, Segment};

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn host_metrics_take_each_segment_at_its_fastest_pass() {
        let op = |ms: u64| Op {
            host_ns: ms * 1_000_000,
            sim_s: 0.0,
            fingerprint: 0,
            failed: false,
        };
        let pass = |ops: [u64; 3], walls: [u64; 2]| Pass {
            ops: ops.map(op).to_vec(),
            segments: vec![
                Segment {
                    ops: 2,
                    wall_ns: walls[0] * 1_000_000,
                },
                Segment {
                    ops: 1,
                    wall_ns: walls[1] * 1_000_000,
                },
            ],
            ..Pass::default()
        };
        let passes = [pass([3, 3, 1], [6, 1]), pass([1, 2, 4], [3, 4])];
        assert_eq!(
            fastest_segments(&passes),
            (3, 4_000_000, vec![1.0, 2.0, 1.0])
        );
        assert_eq!(ops_per_s(&passes), 3.0 / 4e-3);
        // A pass shaped unlike the first is left out.
        let odd = Pass {
            segments: vec![Segment { ops: 3, wall_ns: 1 }],
            ..pass([1, 1, 1], [1, 1])
        };
        assert_eq!(
            fastest_segments(&[pass([3, 3, 1], [6, 1]), odd]).1,
            7_000_000
        );
    }

    #[test]
    fn mismatches_count_differing_and_missing_ops() {
        let op = |fingerprint| Op {
            host_ns: 1,
            sim_s: 0.0,
            fingerprint,
            failed: false,
        };
        let a = Pass {
            ops: vec![op(1), op(2), op(3)],
            ..Pass::default()
        };
        let b = Pass {
            ops: vec![op(1), op(9)],
            ..Pass::default()
        };
        assert_eq!(mismatches(&a, &a), 0);
        assert_eq!(mismatches(&a, &b), 2);
    }

    #[test]
    fn self_time_is_per_op_of_each_pass() {
        let span = |name, ns| Span {
            name,
            op: 0,
            start_ns: 0,
            end_ns: ns,
        };
        // Op 0 runs in two passes, each time 10 ns of its 100 ns outside
        // every layer: its self time is 10 ns, not 20.
        let pass = || Pass {
            spans: vec![span("apps.drive", 90), span(OP, 100)],
            ..Pass::default()
        };
        let v = per_layer(&[pass()], &[pass(), pass()]);
        assert_eq!(v["bench.self.p50_ms"], 10.0 / 1e6);
    }

    #[test]
    fn layer_shares_and_self_time_add_up() {
        let span = |name, start_ns, end_ns| Span {
            name,
            op: 0,
            start_ns,
            end_ns,
        };
        let traced = vec![Pass {
            spans: vec![
                span("apps.drive", 0, 60),
                span("core.microreboot", 60, 90),
                span(OP, 0, 100),
            ],
            ..Pass::default()
        }];
        let v = per_layer(&traced, &traced);
        assert_eq!(v["apps.drive.share_pct"], 60.0);
        assert_eq!(v["core.microreboot.share_pct"], 30.0);
        assert_eq!(v["bench.self.share_pct"], 10.0);
        assert_eq!(v["bench.span_coverage_pct"], 90.0);
        assert_eq!(v["kernel.boot_cold.share_pct"], 0.0);
    }
}
