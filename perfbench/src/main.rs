//! The Gurita benchmark: one command, named workloads, every output
//! checked. `BENCHMARK.json` lists the workloads steady enough to gate
//! on; `perfbench/README.md` says why the others are left out.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload k48-burst-gurita --seed 42 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it measures the per-layer metrics from a traced run,
//! writes its spans as Chrome traces under `.bench_out/`, and ends with
//! a paced `guritad` session for the daemon layer. A
//! human-readable table goes first; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. The
//! exit code is non-zero when any output check fails.

mod daemon;
mod hostspeed;
mod inputs;
mod layers;
mod offline;
mod stats;
mod trace;

use gurita_experiments::roster::SchedulerKind;
use offline::OfflineSpec;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations attempted: simulations, or daemon requests.
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Context lines for the human-readable report.
    pub notes: Vec<String>,
    /// Latency samples behind the `*_p90_*` figures.
    pub samples: usize,
}

impl Measured {
    /// Records metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Counts one failed operation or check.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Adds a line to the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// End-to-end metrics, measured with tracing off, and their units.
/// Offline workloads report times in reference seconds (see
/// [`hostspeed`]).
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_jct_mean_s", "s"),
    ("ack_p50_ms", "ms"),
    ("ack_p90_ms", "ms"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics, measured by the traced run, and their units.
/// Engine-layer figures are per simulated run (`/run`).
const PER_LAYER: [(&str, &str); 37] = [
    ("runtime.steps", "count/run"),
    ("runtime.step_p50_us", "us"),
    ("runtime.step_p99_us", "us"),
    ("runtime.step_max_ms", "ms"),
    ("runtime.self_s", "s/run"),
    ("runtime.pending_events_max", "count"),
    ("runtime.open_flows_mean", "count"),
    ("control.decide_calls", "count/run"),
    ("control.decide_s", "s/run"),
    ("control.policy_calls", "count/run"),
    ("control.policy_changes", "count/run"),
    ("control.full_pass_gap", "count/run"),
    ("bandwidth.full_passes", "count/run"),
    ("bandwidth.incremental_passes", "count/run"),
    ("bandwidth.component_calls", "count/run"),
    ("bandwidth.component_flows", "count/run"),
    ("bandwidth.flows_per_pass", "count"),
    ("bandwidth.seed_links", "count/run"),
    ("bandwidth.waterfill_passes", "count/run"),
    ("topology.path_calls", "count/run"),
    ("topology.path_s", "s/run"),
    ("topology.link_capacity_calls", "count/run"),
    ("workload.gen_s", "s"),
    ("workload.jobs", "count"),
    ("workload.flows", "count"),
    ("telemetry.records", "count/run"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("daemon.ack_p50_ms", "ms"),
    ("daemon.ack_p90_ms", "ms"),
    ("daemon.submit_rtt_p50_ms", "ms"),
    ("daemon.submit_rtt_p90_ms", "ms"),
    ("daemon.gen_late_p90_ms", "ms"),
    ("daemon.pace_lag_max_s", "s"),
    ("daemon.drain_s", "s"),
    ("daemon.held_at_submit", "count"),
    ("daemon.events", "count"),
];

/// The offline workloads by name.
fn offline_spec(name: &str) -> Option<OfflineSpec> {
    let k48 = |kind| OfflineSpec {
        kind,
        trace_driven: false,
        pods: 48,
        jobs: 40,
        subs: 48,
    };
    match name {
        "k48-burst-gurita" => Some(k48(SchedulerKind::Gurita)),
        "k48-burst-spq" => Some(k48(SchedulerKind::GuritaSpq)),
        "k8-trace-local" => Some(OfflineSpec {
            kind: SchedulerKind::GuritaLocal,
            trace_driven: true,
            pods: 8,
            jobs: 40,
            subs: 32,
        }),
        _ => None,
    }
}

const WORKLOADS: [&str; 3] = ["k48-burst-gurita", "k48-burst-spq", "k8-trace-local"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> [--seed N (42)] [--seconds S (10)] [--trace 0|1]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if offline_spec(&args.workload).is_none() {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let spec = offline_spec(&args.workload).expect("parse_args checked the name");
    let measured = offline::run(
        &spec,
        args.seed,
        args.seconds,
        args.trace,
        Path::new(".bench_out"),
        &format!("{}-seed{}", args.workload, args.seed),
    )
    .map(|mut m| {
        m.set("ok_frac", 1.0 - m.failed as f64 / m.attempted.max(1) as f64);
        m
    });
    let m = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    report(&args, &m)
}

/// Prints the table and the JSON line; the exit code reflects the
/// output checks.
fn report(args: &Args, m: &Measured) -> ExitCode {
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "perfbench {} seed {} ({} s{})",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    for line in &m.notes {
        println!("  {line}");
    }
    if !args.trace {
        match stats::tail_percentile(m.samples) {
            Some(p) => println!(
                "  latency samples: {}; highest percentile with >=10 beyond: p{p}",
                m.samples
            ),
            None => println!(
                "  latency samples: {} (too few for a tail figure)",
                m.samples
            ),
        }
    }
    let mut json = Vec::new();
    let mut missing = Vec::new();
    for &(name, unit) in table {
        let Some(&v) = m.values.get(name) else {
            missing.push(name);
            continue;
        };
        println!("  {name:<32} {v:>16.6} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(v)
        ));
    }
    if let (true, Some(r)) = (args.trace, m.values.get("trace.overhead_ratio")) {
        println!("  (traced run_s / untraced run_s = {r:.3})");
    }
    for p in &m.problems {
        println!("  FAILED: {p}");
    }
    assert!(missing.is_empty(), "metrics not measured: {missing:?}");
    let correct = m.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted,
        m.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// JSON has no NaN or infinity; those print as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
