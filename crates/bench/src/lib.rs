//! Criterion benchmark harness for the Gurita reproduction.
//!
//! One bench target per paper artifact (`fig5`…`fig8`, `ablation`,
//! `motivation`) regenerates the corresponding experiment at a reduced,
//! statistically stable scale, plus micro-benchmarks for the simulator
//! substrates (`bandwidth`, `topology`, `workload`). Run with
//! `cargo bench --workspace`; each figure's full-scale numbers come
//! from the `gurita-experiments` binaries instead.
//!
//! The library also carries the shared pieces of the perf-trajectory
//! tracker (`bench` binary, `large_baseline` example): [`Throughput`]
//! derives the events/sec numbers both report, and [`BenchMeta`] stamps
//! `results/BENCH_sim.json` with enough provenance (schema version, git
//! commit, rustc, timestamp) to compare snapshots across PRs.

use gurita_sim::stats::RunResult;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Schema version of `results/BENCH_sim.json`; bump when the report's
/// shape changes incompatibly. v3 added the intra-run parallelism block
/// (`meta.threads` / `meta.available_parallelism`, the large gate's
/// `events_per_sec_parallel` + `parallel_speedup`) and replaced the
/// scale-dead `path_arena_hit_rate` gauge with
/// `path_arena_storage_bytes` (see DESIGN.md on why the hit rate is
/// structurally 0 at k = 48). v4 added `advance_ns_per_flow`: the
/// flow-advance sweep microbenchmark over the engine's SoA hot-state
/// layout (label `soa`) — CI gates on it regressing less than 10%
/// against the committed baseline. (Its AoS A/B labels `aos` and
/// `aos_over_soa` were dropped later without a bump: readers only ever
/// required `soa`.) v5 added the large
/// gate's `events_per_sec_metrics`: the event loop with a live
/// `MetricsSink` armed (the daemon's aggregation path) — CI gates the
/// aggregation's overhead against `events_per_sec_telemetry` (the
/// armed discard-sink baseline) at <3%.
pub const BENCH_SCHEMA_VERSION: u32 = 5;

/// Benchmark-scale figure options: small enough for Criterion's
/// repeated sampling, large enough to exercise contention.
pub fn bench_options() -> gurita_experiments::figures::FigureOptions {
    gurita_experiments::figures::FigureOptions {
        jobs: 12,
        seed: 77,
        ..gurita_experiments::figures::FigureOptions::default()
    }
}

/// Provenance block recorded at the top of `results/BENCH_sim.json`.
///
/// Deserializable so trackers can diff snapshots across PRs; the
/// parallelism fields are serde-defaulted to 1 so v2 baselines (which
/// predate them) still parse.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchMeta {
    /// Report schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// `git rev-parse HEAD` of the working tree, `"unknown"` outside a
    /// repository. `-dirty` is appended when the tree has local changes.
    pub git_commit: String,
    /// `rustc --version`, `"unknown"` when rustc is not on PATH.
    pub rustc_version: String,
    /// Capture time, seconds since the Unix epoch.
    pub timestamp_unix: u64,
    /// Effective intra-run worker count used by the parallel gate run —
    /// `effective_threads(0)`, i.e. one per available core on the
    /// capture host.
    #[serde(default = "serial")]
    pub threads: usize,
    /// `std::thread::available_parallelism()` on the capture host (1
    /// when unknown). Lets CI decide whether a speedup assertion is
    /// meaningful on this runner.
    #[serde(default = "serial")]
    pub available_parallelism: usize,
}

/// Serde default for the parallelism meta fields on pre-v3 snapshots.
fn serial() -> usize {
    1
}

/// First line of `cmd args...` stdout, or `None` on any failure.
fn command_line(cmd: &str, cmd_args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd)
        .args(cmd_args)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim();
    if line.is_empty() {
        None
    } else {
        Some(line.to_owned())
    }
}

impl BenchMeta {
    /// Captures the current provenance. Never fails: unavailable fields
    /// degrade to `"unknown"` / `0` so the tracker also runs in
    /// stripped-down environments (no git, no rustc on PATH).
    pub fn capture() -> Self {
        let mut git_commit =
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_owned());
        if git_commit != "unknown"
            && command_line("git", &["status", "--porcelain"]).is_some_and(|s| !s.is_empty())
        {
            git_commit.push_str("-dirty");
        }
        Self {
            schema_version: BENCH_SCHEMA_VERSION,
            git_commit,
            rustc_version: command_line("rustc", &["--version"])
                .unwrap_or_else(|| "unknown".to_owned()),
            timestamp_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            threads: gurita_sim::pool::effective_threads(0),
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// Wall-clock throughput of one simulation run — the single definition
/// of "events/sec" shared by the `bench` binary and the
/// `large_baseline` example.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Throughput {
    /// Simulated events processed.
    pub events: u64,
    /// Wall-clock seconds.
    pub wall_sec: f64,
    /// Simulated events per wall-clock second.
    pub events_per_sec: f64,
}

impl Throughput {
    /// Derives events/sec, guarding the degenerate zero-duration case.
    pub fn new(events: u64, wall_sec: f64) -> Self {
        Self {
            events,
            wall_sec,
            events_per_sec: if wall_sec > 0.0 {
                events as f64 / wall_sec
            } else {
                0.0
            },
        }
    }
}

/// Times `run` and folds its [`RunResult`] into a [`Throughput`].
pub fn timed_run(run: impl FnOnce() -> RunResult) -> (RunResult, Throughput) {
    let start = Instant::now();
    let result = run();
    let wall = start.elapsed().as_secs_f64();
    let tp = Throughput::new(result.events, wall);
    (result, tp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_divides_events_by_wall_time() {
        let tp = Throughput::new(1000, 0.5);
        assert_eq!(tp.events_per_sec, 2000.0);
        assert_eq!(Throughput::new(1000, 0.0).events_per_sec, 0.0);
    }

    #[test]
    fn meta_capture_is_total() {
        let meta = BenchMeta::capture();
        assert_eq!(meta.schema_version, BENCH_SCHEMA_VERSION);
        assert!(!meta.git_commit.is_empty());
        assert!(!meta.rustc_version.is_empty());
        assert!(meta.threads >= 1);
        assert!(meta.available_parallelism >= 1);
    }

    #[test]
    fn v2_meta_snapshots_still_parse() {
        // A verbatim pre-parallelism (schema v2) meta block: the new
        // fields must default to 1, not fail deserialization, so
        // trajectory tooling can diff old snapshots against new ones.
        let v2 = r#"{
            "schema_version": 2,
            "git_commit": "0123abc",
            "rustc_version": "rustc 1.75.0",
            "timestamp_unix": 1700000000
        }"#;
        let meta: BenchMeta = serde_json::from_str(v2).expect("v2 meta parses");
        assert_eq!(meta.schema_version, 2);
        assert_eq!(meta.threads, 1);
        assert_eq!(meta.available_parallelism, 1);
    }
}
