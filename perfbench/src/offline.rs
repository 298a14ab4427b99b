//! The offline workloads: a suite of stratified sub-workloads, each
//! simulated to completion on a serial engine.
//!
//! One pass simulates every sub-workload once. A run makes:
//!
//! 1. a reference pass through the offline entry point
//!    (`Simulation::try_run_control`), untimed, which also warms caches;
//! 2. timed passes through the step-driven online engine
//!    (`Engine::online` + pre-start `submit_job` + `step()` loop +
//!    `finish()`), timing every step on the thread's CPU clock; with
//!    tracing on, these alternate with traced passes on the wrapped
//!    fabric and plane.
//!
//! Every pass must reproduce the reference results bit for bit.

use crate::daemon;
use crate::hostspeed;
use crate::inputs::{stratified, sub_seed};
use crate::layers::{CountingFabric, EpochCounters, TimedPlane};
use crate::stats::{median, quantile};
use crate::trace::{self, Span, Tracer};
use crate::Measured;
use gurita_experiments::roster::SchedulerKind;
use gurita_experiments::scenario::Scenario;
use gurita_model::JobSpec;
use gurita_sim::faults::FaultSchedule;
use gurita_sim::runtime::{Engine, SimConfig, Simulation, StepOutcome};
use gurita_sim::stats::RunResult;
use gurita_sim::telemetry::TelemetryConfig;
use gurita_sim::topology::{Fabric, FatTree};
use gurita_sim::SimError;
use gurita_workload::dags::StructureKind;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// One offline workload.
#[derive(Debug, Clone, Copy)]
pub struct OfflineSpec {
    /// Scheduler (and with it the control plane).
    pub kind: SchedulerKind,
    /// `true`: the 8-pod Poisson trace scenario; `false`: the bursty
    /// scenario on `pods` pods.
    pub trace_driven: bool,
    /// Fat-tree pods.
    pub pods: usize,
    /// Jobs per sub-workload.
    pub jobs: usize,
    /// Sub-workloads per suite.
    pub subs: usize,
}

impl OfflineSpec {
    fn scenario(&self, seed: u64) -> Scenario {
        if self.trace_driven {
            Scenario::trace_driven(StructureKind::FbTao, self.jobs, seed)
        } else {
            Scenario::bursty(StructureKind::FbTao, self.jobs, self.pods, seed)
        }
    }
}

/// Inputs, fabric and configuration of one run.
struct Suite<F> {
    kind: SchedulerKind,
    fabric: F,
    config: SimConfig,
    workloads: Vec<Vec<JobSpec>>,
}

/// Builds the suite: input generation, fabric build, plane build.
/// Returns the suite and the seconds spent generating inputs.
fn setup(spec: &OfflineSpec, seed: u64) -> Result<(Suite<FatTree>, f64), String> {
    let t = Instant::now();
    let workloads = (0..spec.subs as u64)
        .map(|i| {
            let s = sub_seed(seed, i);
            stratified(&spec.scenario(s).workload, s, spec.jobs)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let gen_s = t.elapsed().as_secs_f64();
    let fabric = FatTree::new(spec.pods).map_err(|e| e.to_string())?;
    let scenario = spec.scenario(seed);
    let config = SimConfig {
        tick_interval: scenario.tick_interval,
        control_latency: scenario.control_latency,
        threads: 1,
        ..SimConfig::default()
    };
    // Every simulation builds a fresh plane (planes carry scheduler
    // state); set-up builds one too, so its cost is in `setup_s`.
    drop(spec.kind.build_plane());
    Ok((
        Suite {
            kind: spec.kind,
            fabric,
            config,
            workloads,
        },
        gen_s,
    ))
}

/// Bitwise fingerprint of a result: every job and coflow record, the
/// makespan, the event count and the path-arena figures, by bits.
fn fingerprint(r: &RunResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    mix(r.events);
    mix(r.makespan.to_bits());
    for j in &r.jobs {
        for x in [j.id.index() as u64, j.num_stages as u64] {
            mix(x);
        }
        for x in [j.arrival, j.completed_at, j.jct, j.total_bytes] {
            mix(x.to_bits());
        }
    }
    for c in &r.coflows {
        for x in [
            c.id.index() as u64,
            c.job.index() as u64,
            c.dag_vertex as u64,
        ] {
            mix(x);
        }
        for x in [
            c.activated_at,
            c.completed_at,
            c.bytes,
            c.starved_total,
            c.starved_max,
        ] {
            mix(x.to_bits());
        }
    }
    mix(r.path_arena_unique as u64);
    mix(r.path_arena_interns);
    mix(r.path_arena_hit_rate.to_bits());
    mix(r.jobs_cancelled as u64);
    h
}

/// One untraced step-driven simulation, timed on the thread's CPU clock.
struct StepRun {
    events: u64,
    run_s: f64,
    /// Wall time of the same simulation, for `trace.overhead_ratio`.
    wall_s: f64,
    /// Step durations, held until the next host-speed probe.
    steps: Vec<f64>,
    /// Measured-to-reference scale from the probe that followed.
    factor: f64,
}

/// Spacing, in seconds of step CPU time, of the probe instants behind
/// the offline `ack_*` figures.
const PROBE_SPACING_S: f64 = 1e-3;

/// The wait a request would see until the engine finishes its step in
/// progress, sampled at instants spaced [`PROBE_SPACING_S`] apart along
/// the timed steps laid end to end. Long steps catch proportionally
/// more probes, which is how an arriving request meets them.
#[derive(Debug, Default)]
struct ResidualProbe {
    /// Step time laid end to end so far.
    elapsed: f64,
    /// Position of the next probe instant.
    next: f64,
    /// The wait seen at each probe so far.
    waits: Vec<f64>,
}

impl ResidualProbe {
    fn step(&mut self, d: f64) {
        let end = self.elapsed + d;
        while self.next < end {
            self.waits.push(end - self.next);
            self.next += PROBE_SPACING_S;
        }
        self.elapsed = end;
    }
}

/// Drives `engine` to drained through `step`, which steps it once.
fn drive<F: Fabric>(
    engine: &mut Engine<'_, F>,
    mut step: impl FnMut(&mut Engine<'_, F>) -> Result<StepOutcome, SimError>,
) -> Result<(), String> {
    loop {
        match step(engine).map_err(|e| e.to_string())? {
            StepOutcome::Advanced => {}
            StepOutcome::Drained => return Ok(()),
            StepOutcome::Idle => return Err("engine went idle with jobs outstanding".into()),
        }
    }
}

fn sim_err(e: SimError) -> String {
    e.to_string()
}

fn run_stepped<F: Fabric>(
    suite: &Suite<F>,
    jobs: Vec<JobSpec>,
) -> Result<(RunResult, StepRun), String> {
    let mut steps = Vec::new();
    let wall = Instant::now();
    let t0 = hostspeed::thread_cpu_s();
    let mut plane = suite.kind.build_plane();
    let mut engine = Engine::online(
        &suite.fabric,
        &suite.config,
        plane.as_mut(),
        &FaultSchedule::new(),
    )
    .map_err(sim_err)?;
    for job in jobs {
        engine.submit_job(job).map_err(sim_err)?;
    }
    // One clock read per step: each step's time runs from the previous
    // read, so the loop's own bookkeeping is charged to the next step.
    let mut last = hostspeed::thread_cpu_s();
    drive(&mut engine, |e| {
        let out = e.step();
        let now = hostspeed::thread_cpu_s();
        steps.push(now - last);
        last = now;
        out
    })?;
    let result = engine.finish();
    let run_s = hostspeed::thread_cpu_s() - t0;
    let wall_s = wall.elapsed().as_secs_f64();
    let events = result.events;
    Ok((
        result,
        StepRun {
            events,
            run_s,
            wall_s,
            steps,
            factor: f64::NAN,
        },
    ))
}

/// Counts and times from one traced pass over the suite.
#[derive(Debug, Default, Clone, PartialEq)]
struct Counts {
    steps: u64,
    pending_events_max: usize,
    open_flows_sum: u64,
    decide_calls: u64,
    policy_calls: u64,
    policy_changes: u64,
    full_passes: u64,
    incremental_passes: u64,
    component_calls: u64,
    component_flows: u64,
    seed_links: u64,
    waterfill_passes: u64,
    unsampled_epochs: u64,
    path_calls: u64,
    link_capacity_calls: u64,
    records: u64,
    events: u64,
}

#[derive(Debug, Default)]
struct TracedPass {
    counts: Counts,
    /// Per simulated run: the root span's seconds.
    run_s: Vec<f64>,
    step_s: Vec<f64>,
    step_max_s: f64,
    self_s: f64,
    decide_s: f64,
    path_s: f64,
    /// Seconds covered by the root's descendants' accounting, over the
    /// root total.
    coverage: f64,
}

fn run_traced<F: Fabric>(
    suite: &Suite<F>,
    w: usize,
    jobs: Vec<JobSpec>,
    tracer: &Tracer,
    counts: &mut Counts,
) -> Result<RunResult, String> {
    let fabric = CountingFabric::new(&suite.fabric, tracer);
    let mut plane = TimedPlane::new(suite.kind.build_plane(), tracer);
    let mut sink = EpochCounters::default();
    // Sample after every event: the engine's per-epoch waterfill count
    // is only visible in the sample that follows its epoch.
    let config = SimConfig {
        telemetry: Some(TelemetryConfig {
            sample_interval: f64::MIN_POSITIVE,
        }),
        ..suite.config.clone()
    };
    let root = tracer.begin("runtime.run", Some(w as u64));
    let result = (|| -> Result<RunResult, String> {
        let mut engine = Engine::online_traced(
            &fabric,
            &config,
            &mut plane,
            &FaultSchedule::new(),
            &mut sink,
        )
        .map_err(sim_err)?;
        for (i, job) in jobs.into_iter().enumerate() {
            tracer
                .span("runtime.submit", Some(i as u64), || engine.submit_job(job))
                .map_err(sim_err)?;
        }
        let mut step = 0u64;
        drive(&mut engine, |e| {
            let out = tracer.span("runtime.step", Some(step), || e.step());
            step += 1;
            counts.pending_events_max = counts.pending_events_max.max(e.pending_events());
            counts.open_flows_sum += e.open_flows() as u64;
            out
        })?;
        counts.steps += step;
        Ok(tracer.span("runtime.finish", None, || engine.finish()))
    })();
    tracer.end(root);
    let result = result?;
    counts.decide_calls += plane.decide_calls;
    counts.policy_calls += plane.policy.calls;
    counts.policy_changes += plane.policy.changes;
    let s = &sink.last;
    counts.full_passes += s.alloc_full_passes;
    counts.incremental_passes += s.alloc_incremental_passes;
    counts.component_calls += s.alloc_component_calls;
    counts.component_flows += s.alloc_component_flows;
    counts.seed_links += s.alloc_seed_links;
    counts.waterfill_passes += sink.waterfill_passes;
    counts.unsampled_epochs += sink.unsampled_epochs;
    counts.path_calls += fabric.path_calls.load(Ordering::Relaxed);
    counts.link_capacity_calls += fabric.link_capacity_calls.load(Ordering::Relaxed);
    counts.records += sink.records;
    counts.events += result.events;
    Ok(result)
}

fn summarize_pass(counts: Counts, spans: &[Span]) -> TracedPass {
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 * 1e-9)
            .collect()
    };
    let run_s = durations("runtime.run");
    let step_s = durations("runtime.step");
    let self_s = trace::self_s(spans, "runtime.step");
    let decide_s = trace::total_s(spans, "control.decide");
    let path_s = trace::total_s(spans, "topology.path");
    let submit_s = trace::total_s(spans, "runtime.submit");
    let finish_s = trace::total_s(spans, "runtime.finish");
    let root: f64 = run_s.iter().sum();
    let accounted = self_s + decide_s + path_s + submit_s + finish_s;
    TracedPass {
        counts,
        step_max_s: step_s.iter().copied().fold(0.0, f64::max),
        run_s,
        step_s,
        self_s,
        decide_s,
        path_s,
        coverage: accounted / root,
    }
}

/// Set-ups per run; `setup_s` is the median of their CPU times, each
/// scaled by the probe after it.
const SETUPS: usize = 9;

/// Runs one offline workload for `seconds` and returns its metrics.
/// Traced runs write their spans under `out_dir` as `<name>.*.json` and
/// end with a paced `guritad` session for the daemon layer.
pub fn run(
    spec: &OfflineSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: &Path,
    name: &str,
) -> Result<Measured, String> {
    let mut m = Measured::default();
    let (suite, _) = setup(spec, seed)?;
    let runs = measure(&suite, seconds, traced, &mut m)?;
    // Timed set-ups come after the measurement, which read the peak
    // RSS before any host-speed probe could add to it.
    let mut setups = Vec::new();
    let mut gens = Vec::new();
    for _ in 0..SETUPS {
        let t = hostspeed::thread_cpu_s();
        let (_, gen_s) = setup(spec, seed)?;
        let setup_s = hostspeed::thread_cpu_s() - t;
        setups.push(setup_s * hostspeed::factor(hostspeed::probe_s()));
        gens.push(gen_s);
    }
    m.set("setup_s", median(&setups));
    runs.set_end_to_end(&mut m);
    if traced {
        runs.set_layers(&suite, median(&gens), &mut m);
        runs.write_trace(&out_dir.join(format!("{name}.trace.json")), &mut m)?;
        daemon::session(
            seed,
            seconds,
            out_dir,
            &out_dir.join(format!("{name}.guritad.trace.json")),
            &mut m,
        )?;
    }
    Ok(m)
}

/// Everything one measurement of a suite produced.
struct SuiteRuns {
    peak_rss_mb: f64,
    reference: Vec<RunResult>,
    plain: Vec<StepRun>,
    probe: ResidualProbe,
    passes: Vec<TracedPass>,
    first_spans: Vec<Span>,
}

/// Simulates `suite` for about `seconds`: an untimed reference pass
/// through the offline entry point, then whole timed passes through
/// the step-driven engine (alternating with traced passes when
/// `traced`). Every result must match the reference bit for bit;
/// mismatches and errors are counted as failures in `m`.
fn measure<F: Fabric + Clone>(
    suite: &Suite<F>,
    seconds: f64,
    traced: bool,
    m: &mut Measured,
) -> Result<SuiteRuns, String> {
    let mut sim = Simulation::new(suite.fabric.clone(), suite.config.clone());
    let mut reference = Vec::with_capacity(suite.workloads.len());
    for jobs in &suite.workloads {
        m.attempted += 1;
        let mut plane = suite.kind.build_plane();
        let r = sim
            .try_run_control(jobs.clone(), plane.as_mut())
            .map_err(|e| format!("offline reference run failed: {e}"))?;
        if r.jobs.len() != jobs.len() {
            m.fail(format!(
                "offline run completed {} of {} jobs",
                r.jobs.len(),
                jobs.len()
            ));
        }
        reference.push(r);
    }
    let prints: Vec<u64> = reference.iter().map(fingerprint).collect();
    // The reference pass has run every simulation once, and no
    // host-speed probe has run yet: the peak so far is the program's.
    let peak_rss_mb = crate::peak_rss_mb()?;

    let mut runs = SuiteRuns {
        peak_rss_mb,
        reference,
        plain: Vec::new(),
        probe: ResidualProbe::default(),
        passes: Vec::new(),
        first_spans: Vec::new(),
    };
    let tracer = Tracer::new();
    let min_passes = if traced { 2 } else { 1 };
    let mut since_probe = 0.0;
    // Whole passes only, as many as end closest to `seconds`.
    let t0 = Instant::now();
    let mut pass = 0usize;
    let mut last_pass_s = 0.0;
    while pass < min_passes || t0.elapsed().as_secs_f64() + last_pass_s / 2.0 < seconds {
        let pass_start = Instant::now();
        let traced_pass = traced && pass % 2 == 1;
        let mut counts = Counts::default();
        for (w, jobs) in suite.workloads.iter().enumerate() {
            m.attempted += 1;
            let result = if traced_pass {
                run_traced(suite, w, jobs.clone(), &tracer, &mut counts)
            } else {
                run_stepped(suite, jobs.clone()).map(|(result, r)| {
                    since_probe += r.run_s;
                    runs.plain.push(r);
                    result
                })
            };
            match result {
                Ok(r) if fingerprint(&r) == prints[w] => {}
                Ok(_) => m.fail(format!(
                    "sub-workload {w}: {} result differs from the offline reference",
                    if traced_pass { "traced" } else { "step-driven" }
                )),
                Err(e) => m.fail(format!("sub-workload {w}: {e}")),
            }
            if since_probe >= PROBE_EVERY_S {
                runs.calibrate();
                since_probe = 0.0;
            }
        }
        runs.calibrate();
        if traced_pass {
            let spans = tracer.take();
            if runs.first_spans.is_empty() {
                runs.first_spans = spans_of_root(&spans, 0);
            }
            runs.passes.push(summarize_pass(counts, &spans));
        }
        last_pass_s = pass_start.elapsed().as_secs_f64();
        pass += 1;
    }
    if runs.plain.is_empty() {
        return Err("no step-driven simulation succeeded".into());
    }
    if traced {
        for p in &runs.passes[1..] {
            if p.counts != runs.passes[0].counts {
                m.fail("traced counts differ between passes of one run".into());
            }
        }
    }
    m.note(format!(
        "{} sub-workloads, {} timed simulations, {} traced passes",
        suite.workloads.len(),
        runs.plain.len(),
        runs.passes.len()
    ));
    Ok(runs)
}

impl StepRun {
    fn run_ref_s(&self) -> f64 {
        self.run_s * self.factor
    }
}

/// CPU time of untraced simulations between host-speed probes.
const PROBE_EVERY_S: f64 = 0.25;

impl SuiteRuns {
    /// Probes the host's speed and applies it to every simulation since
    /// the last probe.
    fn calibrate(&mut self) {
        let Some(first) = self.plain.iter().position(|r| r.factor.is_nan()) else {
            return;
        };
        let f = hostspeed::factor(hostspeed::probe_s());
        for r in &mut self.plain[first..] {
            r.factor = f;
            for d in std::mem::take(&mut r.steps) {
                self.probe.step(d * f);
            }
        }
    }

    fn wall_s(&self) -> Vec<f64> {
        self.plain.iter().map(|r| r.wall_s).collect()
    }

    /// Mean simulated JCT over every job of the suite.
    fn jct_mean(&self) -> f64 {
        let jcts: Vec<f64> = self
            .reference
            .iter()
            .flat_map(|r| r.jobs.iter().map(|j| j.jct))
            .collect();
        jcts.iter().sum::<f64>() / jcts.len() as f64
    }

    /// Stores the end-to-end metrics of an offline workload, in
    /// reference seconds (see [`hostspeed`]). The daemon's `ack_*` have
    /// an engine counterpart here: a submission waits for the step in
    /// progress, so `ack_*` are the waits seen at evenly spaced
    /// instants of the timed steps (see [`ResidualProbe`]).
    fn set_end_to_end(&self, m: &mut Measured) {
        let run_s: Vec<f64> = self.plain.iter().map(StepRun::run_ref_s).collect();
        let events: u64 = self.plain.iter().map(|r| r.events).sum();
        m.set("peak_rss_mb", self.peak_rss_mb);
        m.set("run_s", median(&run_s));
        m.set("events_per_s", events as f64 / run_s.iter().sum::<f64>());
        m.set("sim_jct_mean_s", self.jct_mean());
        let waits = &self.probe.waits;
        m.set("ack_p50_ms", quantile(waits, 0.5) * 1e3);
        m.set("ack_p90_ms", quantile(waits, 0.9) * 1e3);
        let factors: Vec<f64> = self.plain.iter().map(|r| r.factor).collect();
        let cpu_s: Vec<f64> = self.plain.iter().map(|r| r.run_s).collect();
        m.note(format!(
            "host speed: median scale {:.3} to reference seconds; unscaled run_s \
             {:.6} s CPU, {:.6} s wall",
            median(&factors),
            median(&cpu_s),
            median(&self.wall_s())
        ));
        m.samples = waits.len();
    }

    /// Stores the engine-side per-layer metrics of the traced passes.
    fn set_layers<F>(&self, suite: &Suite<F>, gen_s: f64, m: &mut Measured) {
        let passes = &self.passes;
        let c = &passes[0].counts;
        let med =
            |f: &dyn Fn(&TracedPass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        let cat = |f: &dyn Fn(&TracedPass) -> &[f64]| -> Vec<f64> {
            passes.iter().flat_map(|p| f(p).iter().copied()).collect()
        };
        let steps = cat(&|p| &p.step_s);
        let traced_runs = cat(&|p| &p.run_s);
        let recomputes = (c.full_passes + c.incremental_passes).max(1);
        let jobs: usize = suite.workloads.iter().map(Vec::len).sum();
        let flows: usize = suite
            .workloads
            .iter()
            .flat_map(|w| w.iter().map(JobSpec::num_flows))
            .sum();
        // Engine-layer counts and times are per simulated run, so they
        // read on the scale of `run_s` whatever the suite size.
        let runs = suite.workloads.len() as f64;
        let mut set = |k: &'static str, x: f64| m.set(k, x);
        let mut per_run = |k: &'static str, x: f64| set(k, x / runs);
        per_run("runtime.steps", c.steps as f64);
        per_run("runtime.self_s", med(&|p| p.self_s));
        per_run("control.decide_calls", c.decide_calls as f64);
        per_run("control.decide_s", med(&|p| p.decide_s));
        per_run("control.policy_calls", c.policy_calls as f64);
        per_run("control.policy_changes", c.policy_changes as f64);
        // The first recompute of a run is full too (no previous policy).
        per_run(
            "control.full_pass_gap",
            c.full_passes as f64 - c.policy_changes as f64 - runs,
        );
        per_run("bandwidth.full_passes", c.full_passes as f64);
        per_run("bandwidth.incremental_passes", c.incremental_passes as f64);
        per_run("bandwidth.component_calls", c.component_calls as f64);
        per_run("bandwidth.component_flows", c.component_flows as f64);
        per_run("bandwidth.seed_links", c.seed_links as f64);
        per_run("bandwidth.waterfill_passes", c.waterfill_passes as f64);
        per_run("topology.path_calls", c.path_calls as f64);
        per_run("topology.path_s", med(&|p| p.path_s));
        per_run("topology.link_capacity_calls", c.link_capacity_calls as f64);
        per_run("telemetry.records", c.records as f64);
        let mut set = |k: &'static str, x: f64| m.set(k, x);
        set("runtime.step_p50_us", quantile(&steps, 0.5) * 1e6);
        set("runtime.step_p99_us", quantile(&steps, 0.99) * 1e6);
        set("runtime.step_max_ms", med(&|p| p.step_max_s) * 1e3);
        set("runtime.pending_events_max", c.pending_events_max as f64);
        set(
            "runtime.open_flows_mean",
            c.open_flows_sum as f64 / c.steps.max(1) as f64,
        );
        set(
            "bandwidth.flows_per_pass",
            c.component_flows as f64 / recomputes as f64,
        );
        set("workload.gen_s", gen_s);
        set("workload.jobs", jobs as f64);
        set("workload.flows", flows as f64);
        set(
            "trace.overhead_ratio",
            median(&traced_runs) / median(&self.wall_s()),
        );
        set("trace.coverage", med(&|p| p.coverage));
        if c.unsampled_epochs > 0 {
            m.note(format!(
                "{} recompute epochs shared an epoch sample; \
                 bandwidth.waterfill_passes misses their passes",
                c.unsampled_epochs
            ));
        }
    }

    /// Writes the traced spans of sub-workload 0 as a Chrome trace.
    fn write_trace(&self, path: &Path, m: &mut Measured) -> Result<(), String> {
        trace::write_chrome(path, "perfbench sub-workload 0", &self.first_spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        m.note(format!("chrome trace: {}", path.display()));
        Ok(())
    }
}

/// The spans under the root span whose request id is `req`, with
/// parent indices rebased to the returned list.
fn spans_of_root(spans: &[Span], req: u64) -> Vec<Span> {
    let Some(start) = spans
        .iter()
        .position(|s| s.parent.is_none() && s.req == req)
    else {
        return Vec::new();
    };
    let end = spans[start + 1..]
        .iter()
        .position(|s| s.parent.is_none())
        .map_or(spans.len(), |i| start + 1 + i);
    spans[start..end]
        .iter()
        .map(|s| Span {
            parent: s.parent.map(|p| p - start),
            ..s.clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::{ResidualProbe, PROBE_SPACING_S};

    #[test]
    fn residual_probes_are_length_biased() {
        // One 9 ms step, then ten 0.1 ms steps: probes at 0, 1, ..., 9
        // ms; nine land in the long step, one in the short ones.
        let mut p = ResidualProbe::default();
        p.step(9.0 * PROBE_SPACING_S);
        for _ in 0..10 {
            p.step(0.1 * PROBE_SPACING_S);
        }
        assert_eq!(p.waits.len(), 10);
        let long = p
            .waits
            .iter()
            .filter(|&&w| w > 0.1 * PROBE_SPACING_S)
            .count();
        assert_eq!(long, 9);
        assert!((p.waits[0] - 9.0 * PROBE_SPACING_S).abs() < 1e-15);
        assert!(p.waits.iter().all(|&w| w > 0.0));
    }
}
