//! The repository's benchmark: three seeded workloads, each run from one
//! process on one thread.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch-hd16|serve-geo|ingest-geo> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing off.
//! With `--trace 1` it records spans around the benchmark's calls into each
//! layer, writes them to `perfbench/out/`, checks that the replayed calls into
//! lower layers account for the real calls, and reports the per-layer metrics. Both
//! modes check answers against an exact oracle. The last line of standard
//! output is one JSON object; a wrong answer makes the exit code 1.

mod batch;
mod common;
mod ingest;
mod loadgen;
mod oracle;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use common::{Cfg, GpuCounts};
use stats::Ledger;
use trace::{Attribution, Tracer};

pub const WORKLOADS: [&str; 3] = ["batch-hd16", "serve-geo", "ingest-geo"];

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("p50_us", "us"),
    ("sim_response_ms", "ms"),
    ("sim_accessed_mb", "MB"),
    ("index_bytes_per_point", "B"),
    ("answered_frac", "fraction"),
];

/// Timed per-layer metrics; each is reported as `name` (median),
/// `name.tail` and `name.n`.
pub const PER_LAYER_TIMED: [(&str, &str); 21] = [
    ("geom.dist_ns", "ns"),
    ("sstree.build_s", "s"),
    ("sstree.shard_build_s", "s"),
    ("sstree.knn_us", "us"),
    ("kernels.query_us", "us"),
    ("gpu.accounting_us", "us"),
    ("gpu.launch_ms", "ms"),
    ("engine.batch_ms", "ms"),
    ("engine.self_ms", "ms"),
    ("serve.request_us", "us"),
    ("serve.self_us", "us"),
    ("serve.admission_us", "us"),
    ("serve.cache_us", "us"),
    ("router.route_us", "us"),
    ("router.self_us", "us"),
    ("dynamic.read_us", "us"),
    ("dynamic.read_self_us", "us"),
    ("dynamic.insert_us", "us"),
    ("dynamic.remove_us", "us"),
    ("loadgen.lag_us", "us"),
    ("loadgen.latency_us", "us"),
];

/// Single-valued per-layer metrics.
pub const PER_LAYER_VALUES: [(&str, &str); 21] = [
    ("kernels.nodes_visited.descend", "count/query"),
    ("kernels.nodes_visited.leaf_scan", "count/query"),
    ("kernels.nodes_visited.backtrack", "count/query"),
    ("kernels.backtracks", "count/query"),
    ("gpu.warp_efficiency", "fraction"),
    ("gpu.warp_efficiency.descend", "fraction"),
    ("gpu.warp_efficiency.leaf_scan", "fraction"),
    ("gpu.warp_efficiency.backtrack", "fraction"),
    ("gpu.global_mb", "MB/query"),
    ("gpu.transactions", "count/query"),
    ("gpu.stream_fraction", "fraction"),
    ("serve.cache_hit_frac", "fraction"),
    ("serve.rejected_frac", "fraction"),
    ("router.shards_visited", "count/query"),
    ("router.prune_rate", "fraction"),
    ("router.failovers", "count"),
    ("router.retried", "count"),
    ("loadgen.backlog", "count"),
    ("trace.overhead_us", "us"),
    ("trace.unattributed_frac", "fraction"),
    ("trace.roots", "count"),
];

/// Per workload, the prefixes of the per-layer metrics of layers its own loop
/// never calls. The result line must carry every per-layer metric, so these
/// are reported as 0, with a sample count of 0.
pub const BYPASSES: [(&str, &[&str]); 3] = [
    (
        "batch-hd16",
        &[
            "sstree.shard_build_s",
            "sstree.knn_us",
            "serve.",
            "router.",
            "dynamic.",
            "loadgen.latency_us",
        ],
    ),
    ("serve-geo", &["sstree.knn_us", "gpu.launch_ms", "engine.", "dynamic."]),
    ("ingest-geo", &["kernels.", "gpu.", "engine.", "serve.", "router.", "loadgen.latency_us"]),
];

/// Whether `workload` bypasses the layer of per-layer metric `metric`.
pub fn bypassed(workload: &str, metric: &str) -> bool {
    BYPASSES
        .iter()
        .filter(|(w, _)| *w == workload)
        .any(|(_, prefixes)| prefixes.iter().any(|p| metric.starts_with(p)))
}

/// Every per-layer metric name with its unit, timed ones expanded.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for (name, unit) in PER_LAYER_TIMED {
        out.push((name.to_string(), unit));
        out.push((format!("{name}.tail"), unit));
        out.push((format!("{name}.n"), "count"));
    }
    out.extend(PER_LAYER_VALUES.iter().map(|(n, u)| (n.to_string(), *u)));
    out
}

/// Turns a finished traced loop into per-layer metrics: checks the span
/// structure and the attribution, writes the spans out, and reports the
/// tracing overhead against the untraced per-call times `base_us`.
pub fn finish_trace(
    cfg: &Cfg,
    workload: &str,
    tracer: &Tracer,
    base_us: &[f64],
    gpu: GpuCounts,
    l: &mut Ledger,
) -> Result<(), String> {
    let a = Attribution::of(&tracer.spans)?;
    eprintln!(
        "{workload}: {} traced calls, {:.3} s in root calls\n{}",
        tracer.roots,
        a.total_s,
        a.table()
    );
    if !a.holds() {
        return Err("attribution check failed: the replays no longer account for the calls \
                    they reproduce"
            .to_string());
    }
    if tracer.roots == 0 || base_us.is_empty() {
        return Err("the traced or the untraced loop ran no calls".to_string());
    }
    l.set("trace.unattributed_frac", "fraction", a.unattributed_frac());
    l.set("trace.roots", "count", tracer.roots as f64);
    let traced_us = tracer.live_ns as f64 * 1e-3 / tracer.roots as f64;
    let base = base_us.iter().sum::<f64>() / base_us.len() as f64;
    l.set("trace.overhead_us", "us", traced_us - base);
    trace::to_ledger(&tracer.spans, l);
    gpu.into_ledger(l);

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{workload}-{}.jsonl", cfg.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("{workload}: {} spans written to {}", tracer.spans.len(), path.display());
    Ok(())
}

struct Args {
    workload: String,
    cfg: Cfg,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        cfg: Cfg {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
        },
    })
}

/// The result line: exactly the metrics the mode promises, in order.
fn result_line(rep: &common::Report, workload: &str, trace: bool) -> Result<String, String> {
    let expected: Vec<(String, &'static str)> = if trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect()
    };
    let have = rep.ledger.metrics();
    let mut metrics = String::new();
    for (i, (name, unit)) in expected.iter().enumerate() {
        let found = have.iter().find(|m| &m.name == name);
        let skip = trace && bypassed(workload, name);
        let m = match (found, skip) {
            (Some(m), false) => m.clone(),
            (None, true) => stats::Metric { name: name.clone(), value: 0.0, unit },
            (Some(_), true) => return Err(format!("metric {name} is of a bypassed layer")),
            (None, false) => return Err(format!("metric {name} was not measured")),
        };
        if m.unit != *unit || !m.value.is_finite() {
            return Err(format!(
                "metric {name} = {} {} (expected a finite value in {unit})",
                m.value, m.unit
            ));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(metrics, "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", m.value);
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        rep.failed == 0,
        rep.attempted,
        rep.failed
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "batch-hd16" => batch::run(&args.cfg),
        "serve-geo" => serve::run(&args.cfg),
        _ => ingest::run(&args.cfg),
    };
    let line = run.and_then(|rep| {
        if rep.attempted == 0 {
            return Err("no operation was attempted".to_string());
        }
        result_line(&rep, &args.workload, args.cfg.trace).map(|l| (l, rep.failed))
    });
    match line {
        Ok((line, failed)) => {
            println!("{line}");
            if failed > 0 {
                eprintln!("perfbench: {failed} answers failed the oracle check or errored");
                return ExitCode::from(1);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly the metrics
    /// and workloads this program reports.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(json) = std::fs::read_to_string(&path) else {
            return; // a checkout without the manifest has nothing to compare
        };
        let declared = json.matches("\"name\":").count();
        let names: Vec<String> = WORKLOADS
            .iter()
            .map(|w| w.to_string())
            .chain(END_TO_END.iter().map(|(n, _)| n.to_string()))
            .chain(per_layer().into_iter().map(|(n, _)| n))
            .collect();
        for n in &names {
            assert!(
                json.contains(&format!("\"name\": \"{n}\"")),
                "{n} missing from BENCHMARK.json"
            );
        }
        assert_eq!(declared, names.len(), "BENCHMARK.json declares other names too");
        for (n, u) in END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).chain(per_layer()) {
            let entry = format!("\"name\": \"{n}\", \"unit\": \"{u}\"");
            assert!(json.contains(&entry), "{n} has another unit in BENCHMARK.json");
        }
    }

    #[test]
    fn bypass_prefixes_name_real_metrics() {
        for (w, prefixes) in BYPASSES {
            assert!(WORKLOADS.contains(&w));
            for p in prefixes {
                assert!(per_layer().iter().any(|(n, _)| n.starts_with(p)), "{w}: {p}");
            }
        }
        assert!(bypassed("ingest-geo", "gpu.launch_ms.tail"));
        assert!(!bypassed("serve-geo", "gpu.accounting_us"));
        assert!(!bypassed("batch-hd16", "sstree.build_s"));
    }

    #[test]
    fn parse_requires_every_flag() {
        let a = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse(&a("--workload serve-geo --seed 3 --seconds 10 --trace 1")).is_ok());
        assert!(parse(&a("--workload serve-geo --seed 3 --seconds 10")).is_err());
        assert!(parse(&a("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse(&a("--workload serve-geo --seed x --seconds 10 --trace 0")).is_err());
    }
}
