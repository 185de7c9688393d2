//! End-to-end, layer-by-layer benchmark of the knowledge base.
//!
//! ```text
//! perfbench --workload <uni-serve|uni-churn|policy-audit> --seed N
//!           --seconds S --trace <0|1>
//! perfbench --workload all ...          # every workload, one process each
//! perfbench --workload W --repeat N ... # N seeds, median and quartiles
//! ```
//!
//! A run passes the correctness gate, sets its workload up (the median
//! of three set-ups is `setup_s`), measures for `--seconds`, checks every
//! answer against a plain-Rust oracle, and prints one JSON result as its
//! last line: the end-to-end metrics with `--trace 0`; with `--trace 1`
//! it interleaves untraced operations with traced ones (each a sequence
//! of spans around calls into the layers' public functions) and reports
//! the per-layer metrics. Any wrong answer makes the exit code non-zero.

mod churn;
mod gate;
mod gen;
mod report;
mod serve;
mod spans;

use report::{median, quantile, Outcome};
use spans::Recorder;
use std::collections::BTreeMap;
use std::process::Command;

pub const WORKLOADS: [&str; 3] = ["uni-serve", "uni-churn", "policy-audit"];

/// Every end-to-end metric, in output order.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "read_p50_ms",
    "read_p90_ms",
    "reads_per_s",
    "retrieve_p50_ms",
    "retrieve_p90_ms",
    "describe_p50_ms",
];

/// Every per-layer metric. The write-side metrics exist on `uni-churn`
/// only and read 0 on the read-only workloads, as do the layers those
/// workloads never call. `peak_rss_mb` is here rather than end to end:
/// glibc's per-thread malloc arenas make it bimodal between runs of the
/// same input (74 or 94 MB on `uni-serve`), too unsteady to bound; so is
/// `describe_p90_ms`: the describes that fan out over worker threads
/// carry it, and it follows the host's CPU steal (10-seed spreads of
/// 0.31 to 0.39).
pub const PER_LAYER: [&str; 45] = [
    "lang.parse_us",
    "lang.render_us",
    "lang.plan_hit_ratio",
    "lang.describe_cache_hit_ratio",
    "lang.kb_clone_us",
    "lang.publish_us",
    "logic.parse_us",
    "engine.plan_compile_us",
    "engine.execute_us",
    "engine.derived_per_answer",
    "engine.rounds",
    "engine.rule_firings",
    "engine.index_probes",
    "engine.full_scans",
    "engine.maintained_serve_us",
    "engine.maintain_us",
    "engine.maintain_delta",
    "engine.recomputes",
    "core.describe_us",
    "core.trees_expanded",
    "core.leaves_identified",
    "core.trees_per_theorem",
    "core.extensions_us",
    "storage.insert_us",
    "storage.refresh_us",
    "durability.wal_appends",
    "durability.wal_bytes",
    "durability.wal_fsyncs",
    "durability.checkpoints",
    "durability.checkpoint_bytes",
    "durability.checkpoint_us",
    "session.overhead_us",
    "session.reader_epoch_lag",
    "write_p50_ms",
    "write_p90_ms",
    "writes_per_s",
    "reopen_s",
    "write_amp",
    "error_rate",
    "peak_rss_mb",
    "describe_p90_ms",
    "trace.overhead_pct",
    "trace.coverage_pct",
    "trace.spans",
    "trace.requests",
];

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: Option<usize>,
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        repeat: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value()?,
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => cfg.trace = value()? == "1",
            "--repeat" => {
                cfg.repeat = Some(value()?.parse().map_err(|e| format!("--repeat: {e}"))?)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cfg.workload != "all" && !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(cfg)
}

/// Compares the traced layer self times with the untraced wall time of
/// the same operations, and reports the tracing overhead.
pub fn accounting(
    out: &mut Outcome,
    selfs: &BTreeMap<&'static str, (u64, f64)>,
    layers: &[&str],
    untraced_us: f64,
    traced_us: f64,
    remainder: &str,
) {
    let covered: f64 = layers
        .iter()
        .map(|l| selfs.get(l).map_or(0.0, |s| s.1))
        .sum();
    out.note(format!(
        "layer self time (traced) against {:.1} ms untraced wall:",
        untraced_us / 1e3
    ));
    for l in layers {
        if let Some((calls, us)) = selfs.get(l) {
            out.note(format!(
                "  {l:<24} {calls:>7} calls {:>10.2} ms {:>6.1}%",
                us / 1e3,
                100.0 * us / untraced_us
            ));
        }
    }
    let gap = untraced_us - covered;
    out.note(format!(
        "  {:<24} {:>7}       {:>10.2} ms {:>6.1}%  ({remainder})",
        "unattributed",
        "",
        gap / 1e3,
        100.0 * gap / untraced_us
    ));
    let coverage = 100.0 * covered / untraced_us;
    let largest = layers
        .iter()
        .filter_map(|l| selfs.get(l).map(|s| (*l, s.1)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |(l, _)| l);
    out.note(if (coverage - 100.0).abs() <= 10.0 {
        format!("layers account for {coverage:.1}% of untraced wall time (within 10%)")
    } else if coverage < 100.0 {
        format!(
            "layers account for {coverage:.1}% of untraced wall time; the {:.1}% gap is {remainder}",
            100.0 - coverage
        )
    } else {
        format!(
            "layers account for {coverage:.1}% of untraced wall time; the {:.1}% excess is in the \
             layer calls themselves, mostly {largest}, which ran slower traced than untraced",
            coverage - 100.0
        )
    });
    out.metric("trace.coverage_pct", coverage, "%");
    out.metric(
        "trace.overhead_pct",
        100.0 * (traced_us - untraced_us) / untraced_us,
        "%",
    );
}

/// Writes the recorded spans to `.perfbench-out/<workload>.spans.jsonl`,
/// replacing the previous traced run's file for that workload.
pub fn write_spans(cfg: &Config, rec: &Recorder, out: &mut Outcome) {
    let dir = std::path::Path::new(".perfbench-out");
    let path = dir.join(format!("{}.spans.jsonl", cfg.workload));
    match std::fs::create_dir_all(dir).and_then(|_| rec.write_jsonl(&path)) {
        Ok(()) => out.note(format!(
            "{} spans written to {}",
            rec.spans.len(),
            path.display()
        )),
        Err(e) => out.note(format!("could not write spans: {e}")),
    }
    let requests = rec.spans.iter().filter(|s| s.parent.is_none()).count();
    out.metric("trace.spans", rec.spans.len() as f64, "count");
    out.metric("trace.requests", requests as f64, "count");
}

fn run_workload(cfg: &Config) -> i32 {
    let jiffies = report::cpu_jiffies();
    let (failures, gate_checks) = gate::check();
    let mut out = match cfg.workload.as_str() {
        "uni-serve" => serve::run(cfg, serve::uni_serve(cfg.seed)),
        "policy-audit" => serve::run(cfg, serve::policy_audit(cfg.seed)),
        _ => churn::run(cfg),
    };
    out.attempted += gate_checks;
    for f in failures {
        out.wrong(format!("gate {f}"));
    }
    out.metric("error_rate", out.error_rate(), "ratio");
    let now = report::cpu_jiffies();
    out.note(format!(
        "host CPU steal during the run: {:.1}% ({} CPUs available)",
        100.0 * (now.1 - jiffies.1) as f64 / (now.0 - jiffies.0).max(1) as f64,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    println!(
        "workload {} seed {} seconds {} trace {}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for n in &out.notes {
        println!("# {n}");
    }
    for (name, value, unit) in &out.metrics {
        println!("{name:<32} {value:>14.4} {unit}");
    }
    let names: Vec<&str> = if cfg.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    for name in &names {
        if !out.metrics.iter().any(|(n, _, _)| n == name) {
            out.metrics.push((name.to_string(), 0.0, unit_of(name)));
        }
    }
    println!("{}", out.json(&names));
    i32::from(out.failed > 0)
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("per_s") {
        "1/s"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_pct") {
        "%"
    } else if name.ends_with("ratio") || name.ends_with("_amp") || name.ends_with("per_answer") {
        "ratio"
    } else if name.ends_with("_bytes") {
        "bytes"
    } else {
        "count"
    }
}

/// Runs one workload in a child process; returns its standard output
/// and exit code.
fn child(cfg: &Config, workload: &str, seed: u64) -> (String, i32) {
    let exe = std::env::current_exe().expect("own path");
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &cfg.seconds.to_string(),
            "--trace",
            if cfg.trace { "1" } else { "0" },
        ])
        .output()
        .expect("spawn workload");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    (stdout, output.status.code().unwrap_or(1))
}

/// (name, value, unit) triples, as a child run reported them.
type Metrics = Vec<(String, f64, String)>;

/// Reads `"name": {"value": v, "unit": "u"}` pairs out of a result line.
fn parse_result(line: &str) -> Option<Metrics> {
    let metrics = line.split("\"metrics\": {").nth(1)?;
    let mut out = Vec::new();
    for part in metrics.split("}, ") {
        let name = part.split('"').nth(1)?.to_string();
        let value = part
            .split("\"value\": ")
            .nth(1)?
            .split(',')
            .next()?
            .parse()
            .ok()?;
        let unit = part
            .split("\"unit\": \"")
            .nth(1)?
            .split('"')
            .next()?
            .to_string();
        out.push((name, value, unit));
    }
    Some(out)
}

/// `--workload all`: each workload in its own process, every metric it
/// measured by name with its unit (the write-side metrics and
/// `error_rate` included); non-zero exit if any run failed.
fn run_all(cfg: &Config) -> i32 {
    let mut code = 0;
    for w in WORKLOADS {
        let (stdout, c) = child(cfg, w, cfg.seed);
        code |= c;
        println!("== {w} (exit {c})");
        for line in stdout.lines().skip(1) {
            let wrong = line.starts_with("# WRONG");
            if wrong || !(line.starts_with('#') || line.starts_with('{')) {
                println!("  {line}");
            }
        }
    }
    code
}

/// `--repeat N`: N runs with seeds `seed..seed+N`, each in its own
/// process; prints every metric's median, quartiles and spread (the
/// interquartile range as a share of the median).
fn run_repeat(cfg: &Config, n: usize) -> i32 {
    let workloads: Vec<&str> = if cfg.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![cfg.workload.as_str()]
    };
    let mut code = 0;
    for w in workloads {
        let mut series: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
        for i in 0..n {
            let (stdout, c) = child(cfg, w, cfg.seed + i as u64);
            code |= c;
            let metrics = stdout.lines().last().and_then(parse_result);
            for (name, value, unit) in metrics.unwrap_or_default() {
                series
                    .entry(name)
                    .or_insert((Vec::new(), unit))
                    .0
                    .push(value);
            }
        }
        println!("== {w}: {n} runs");
        println!(
            "  {:<32} {:>12} {:>12} {:>12} {:>8}",
            "metric", "q1", "median", "q3", "spread"
        );
        for (name, (mut values, unit)) in series {
            values.sort_by(f64::total_cmp);
            let (q1, med, q3) = (
                quantile(&values, 0.25),
                median(&values),
                quantile(&values, 0.75),
            );
            let spread = if med != 0.0 { (q3 - q1) / med } else { 0.0 };
            println!("  {name:<32} {q1:>12.4} {med:>12.4} {q3:>12.4} {spread:>8.3}  {unit}");
        }
    }
    code
}

fn main() {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let code = match cfg.repeat {
        Some(n) => run_repeat(&cfg, n),
        None if cfg.workload == "all" => run_all(&cfg),
        None => run_workload(&cfg),
    };
    std::process::exit(code);
}
