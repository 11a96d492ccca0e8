//! Runs the repository benchmark and prints every metric by name with its
//! unit; the last line of standard output is one JSON result object. Exits
//! non-zero when an op failed or a correctness check did not hold.

#![forbid(unsafe_code)]

use ow_benchmark::{measure, result_json, Config, MetricSpec, Size, Spec, Trace, Workload};
use ow_trace::json::Value;
use std::io::Write;

const USAGE: &str = "usage: ow-benchmark [--workload <name>|all] [--seed N] [--seconds S] \
[--trace 0|1] [--jobs N] [--json out.json] [--spans spans.jsonl] [--smoke]";

struct Args {
    workloads: Vec<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: Trace,
    jobs: usize,
    json: Option<String>,
    spans: Option<String>,
    size: Size,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut out = Args {
        workloads: Workload::ALL.to_vec(),
        seed: None,
        seconds: 0.0,
        trace: Trace::Both,
        jobs: cores.min(2),
        json: None,
        spans: None,
        size: Size::FULL,
    };
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            out.size = Size::SMOKE;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => out.workloads = Workload::ALL.to_vec(),
            "--workload" => out.workloads = vec![Workload::from_name(&value).ok_or_else(bad)?],
            "--seed" => out.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad())?;
                if !(out.seconds >= 0.0 && out.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => Trace::Off,
                    "1" => Trace::On,
                    _ => return Err(bad()),
                }
            }
            "--jobs" => {
                out.jobs = value.parse().map_err(|_| bad())?;
                if out.jobs == 0 || out.jobs > cores {
                    return Err(format!(
                        "--jobs {value} refused: this machine runs {cores} thread(s) at once"
                    ));
                }
            }
            "--json" => out.json = Some(value),
            "--spans" => out.spans = Some(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(out)
}

fn write_file(path: &str, contents: impl FnOnce(&mut dyn Write) -> std::io::Result<()>) {
    let written = std::fs::File::create(path).and_then(|f| {
        let mut out = std::io::BufWriter::new(f);
        contents(&mut out)?;
        out.flush()
    });
    if let Err(e) = written {
        eprintln!("ow-benchmark: writing {path}: {e}");
        std::process::exit(2);
    }
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("ow-benchmark: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let spec = Spec::load();
    let prefix = args.workloads.len() > 1;
    let (mut attempted, mut failed) = (0, 0);
    let mut all: Vec<(String, MetricSpec, f64)> = Vec::new();
    let mut per_workload = Vec::new();
    let mut spans = Vec::new();
    for &w in &args.workloads {
        let cfg = Config {
            seed: args.seed.unwrap_or_else(|| w.default_seed()),
            jobs: args.jobs,
            size: args.size,
        };
        let m = measure(w, &cfg, args.seconds, args.trace);
        let selected = spec.select(args.trace, &m.values).unwrap_or_else(|e| {
            eprintln!("ow-benchmark: {e}");
            std::process::exit(2);
        });
        for (metric, v) in &selected {
            println!(
                "{:<13} {:<40} {v:>18.6} {}",
                w.name(),
                metric.name,
                metric.unit
            );
        }
        println!(
            "{:<13} seed {} jobs {} attempted {} failed {}",
            w.name(),
            cfg.seed,
            cfg.jobs,
            m.attempted,
            m.failed
        );
        let named: Vec<_> = selected
            .into_iter()
            .map(|(metric, v)| (metric.name.clone(), metric, v))
            .collect();
        per_workload.push((w.name(), result_json(m.attempted, m.failed, &named)));
        all.extend(named.into_iter().map(|(name, metric, v)| {
            let name = if prefix {
                format!("{}.{name}", w.name())
            } else {
                name
            };
            (name, metric, v)
        }));
        attempted += m.attempted;
        failed += m.failed;
        for (pass, pass_spans) in m.spans.into_iter().enumerate() {
            spans.extend(pass_spans.into_iter().map(|s| (w.name(), pass, s)));
        }
    }

    if let Some(path) = &args.json {
        let doc = Value::obj(per_workload.iter().map(|(name, v)| (*name, v.clone())));
        write_file(path, |out| writeln!(out, "{}", doc.to_pretty()));
    }
    if let Some(path) = &args.spans {
        write_file(path, |out| {
            spans
                .iter()
                .try_for_each(|(w, pass, s)| writeln!(out, "{}", s.json_line(w, *pass)))
        });
    }
    println!("{}", result_json(attempted, failed, &all));
    if failed > 0 {
        eprintln!("ow-benchmark: {failed} of {attempted} ops failed or did not reproduce");
        std::process::exit(1);
    }
}
