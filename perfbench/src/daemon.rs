//! The daemon layer: an in-process `guritad` driven open loop over one
//! client connection, run at the end of every traced run.
//!
//! Jobs come from the `online_arrivals` family (bursty, 128 hosts),
//! stratified like every other input, and are submitted at a fixed wall
//! rate whatever the daemon's state; every 5th job depends on its
//! predecessor, so the dependency gate holds some. Latency is timed
//! from each submission's due time. A `drain` ends the session.
//!
//! The session is not a benchmark workload of its own: its ack
//! latencies are made of thread wake-ups, which CPU steal on a shared VM
//! delays. Over five seeds the ack p50 spread (IQR over median) was 0.28
//! and the p90's 0.74 while the host was stealing, 0.13–0.19 over ten
//! seeds when it was not, so no bound of 25% can hold them; the session
//! reports per-layer figures instead.

use crate::inputs::stratified;
use crate::stats::{quantile, OpenLoopSample};
use crate::trace::{self, Tracer};
use crate::Measured;
use gurita_daemon::client::Client;
use gurita_daemon::protocol::DaemonStats;
use gurita_daemon::server::{serve, DaemonConfig, ServeReport};
use gurita_experiments::roster::SchedulerKind;
use gurita_model::JobSpec;
use gurita_workload::arrivals::ArrivalProcess;
use gurita_workload::generator::WorkloadConfig;
use std::io;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Simulated hosts (big-switch fabric).
const HOSTS: usize = 128;

/// The daemon's scheduler.
const SCHEDULER: SchedulerKind = SchedulerKind::Gurita;

/// Virtual seconds per wall second.
const PACE: f64 = 1.0;

/// Open-loop submission rate, jobs per wall second.
const RATE: f64 = 40.0;

/// How long a spawned daemon may take to accept a connection.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(20);

fn workload() -> WorkloadConfig {
    WorkloadConfig {
        num_hosts: HOSTS,
        arrivals: ArrivalProcess::Bursty {
            burst_size: 8,
            intra_gap: 2e-6,
            inter_gap: 0.05,
        },
        // Categories I-IV only: a 10 GB+ job outlives the session, and
        // which one is still in flight at the drain would decide the
        // drain time and the event count.
        category_weights: [0.50, 0.26, 0.13, 0.04, 0.0, 0.0, 0.0],
        ..WorkloadConfig::default()
    }
}

fn name(i: usize) -> String {
    format!("job-{i:05}")
}

/// A running daemon and its client connection.
struct Daemon {
    client: Client,
    thread: JoinHandle<io::Result<ServeReport>>,
    spawned: Instant,
}

/// Spawns a daemon on `socket` and waits for its first `ping`.
fn spawn(socket: &Path) -> Result<Daemon, String> {
    let config = DaemonConfig {
        socket: socket.to_path_buf(),
        hosts: HOSTS,
        scheduler: SCHEDULER,
        pace: PACE,
        threads: 1,
        ..DaemonConfig::default()
    };
    let spawned = Instant::now();
    let thread = std::thread::spawn(move || serve(&config));
    // Poll without sleeping: the daemon binds within a millisecond.
    let mut client = loop {
        match Client::connect(socket) {
            Ok(c) => break c,
            Err(e) if spawned.elapsed() > CONNECT_TIMEOUT || thread.is_finished() => {
                return Err(format!("connecting to guritad: {e}"))
            }
            Err(_) => std::thread::yield_now(),
        }
    };
    client.ping().map_err(|e| format!("ping: {e}"))?;
    Ok(Daemon {
        client,
        thread,
        spawned,
    })
}

fn join(thread: JoinHandle<io::Result<ServeReport>>) -> Result<ServeReport, String> {
    thread
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?
        .map_err(|e| format!("daemon: {e}"))
}

/// Runs a paced session and records the `daemon.*` per-layer metrics
/// in `m`: `seconds` of open-loop submissions, then a `drain`. The
/// client's spans go to `trace_out` as a Chrome trace.
pub fn session(
    seed: u64,
    seconds: f64,
    out_dir: &Path,
    trace_out: &Path,
    m: &mut Measured,
) -> Result<(), String> {
    let n = ((RATE * seconds).round() as usize).max(1);
    let jobs: Vec<JobSpec> = stratified(&workload(), seed, n)?
        .into_iter()
        .map(|j| j.with_arrival(0.0))
        .collect();
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    // Relative to the working directory: `sun_path` holds 108 bytes.
    let socket = out_dir.join(format!("guritad-{}.sock", std::process::id()));
    let Daemon {
        mut client,
        thread,
        spawned,
    } = spawn(&socket)?;

    // Open loop: job i is due at i / rate, sent then or as soon as the
    // previous reply lets the single connection send it.
    let tracer = Tracer::new();
    let session = tracer.begin("daemon.session", Some(0));
    let mut samples = Vec::with_capacity(n);
    let mut held = 0usize;
    let mut pace_lag_max = 0.0f64;
    let mut broken = None;
    let t0 = Instant::now();
    for (i, job) in jobs.iter().enumerate() {
        let due = i as f64 / RATE;
        let wait = due - t0.elapsed().as_secs_f64();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
        let deps = if i > 0 && i % 5 == 0 {
            vec![name(i - 1)]
        } else {
            Vec::new()
        };
        m.attempted += 1;
        let sent = t0.elapsed().as_secs_f64();
        let reply = tracer.span("daemon.submit", Some(i as u64), || {
            client.submit(&name(i), &deps, job)
        });
        let acked = t0.elapsed().as_secs_f64();
        match reply {
            Ok(view) => {
                held += usize::from(view.state == "held");
                samples.push(OpenLoopSample { due, sent, acked });
            }
            Err(e) => {
                m.fail(format!("submit {}: {e}", name(i)));
                if e.kind() != io::ErrorKind::Other {
                    broken = Some(i + 1);
                    break;
                }
            }
        }
        m.attempted += 1;
        match tracer.span("daemon.stats", None, || client.stats()) {
            Ok(s) => {
                let lag = spawned.elapsed().as_secs_f64() * PACE - s.vtime;
                pace_lag_max = pace_lag_max.max(lag);
            }
            Err(e) => m.fail(format!("stats: {e}")),
        }
    }
    if let Some(sent) = broken {
        for i in sent..n {
            m.attempted += 1;
            m.fail(format!("submit {}: connection lost", name(i)));
        }
    }
    m.attempted += 1;
    let drain_start = Instant::now();
    let drained = tracer.span("daemon.drain", None, || client.drain());
    let drain_s = drain_start.elapsed().as_secs_f64();
    tracer.end(session);
    drop(client);
    if drained.is_err() {
        // The serve loop only exits on drain or shutdown: without one
        // the join below would never return.
        let stopped = Client::connect(&socket).and_then(|mut c| c.shutdown());
        if let Err(e) = stopped {
            return Err(format!("drain failed and shutdown failed too: {e}"));
        }
    }
    let report = join(thread);
    let stats: DaemonStats = match drained {
        Ok(s) => s,
        Err(e) => {
            m.fail(format!("drain: {e}"));
            DaemonStats::default()
        }
    };
    match report {
        Ok(r) if r.completed.len() == n => {}
        Ok(r) => m.fail(format!(
            "daemon completed {} of {n} jobs",
            r.completed.len()
        )),
        Err(e) => m.fail(e),
    }
    if stats.jobs_done != n || stats.jobs_held != 0 || stats.jobs_cancelled != 0 {
        m.fail(format!(
            "drain reported {} done, {} held, {} cancelled of {n} submitted",
            stats.jobs_done, stats.jobs_held, stats.jobs_cancelled
        ));
    }

    let pct = |f: fn(&OpenLoopSample) -> f64, q: f64| {
        quantile(&samples.iter().map(f).collect::<Vec<_>>(), q) * 1e3
    };
    m.set("daemon.ack_p50_ms", pct(OpenLoopSample::latency, 0.5));
    m.set("daemon.ack_p90_ms", pct(OpenLoopSample::latency, 0.9));
    m.set("daemon.submit_rtt_p50_ms", pct(OpenLoopSample::rtt, 0.5));
    m.set("daemon.submit_rtt_p90_ms", pct(OpenLoopSample::rtt, 0.9));
    m.set("daemon.gen_late_p90_ms", pct(OpenLoopSample::lateness, 0.9));
    m.set("daemon.pace_lag_max_s", pace_lag_max);
    m.set("daemon.drain_s", drain_s);
    m.set("daemon.held_at_submit", held as f64);
    m.set("daemon.events", stats.events as f64);
    m.note(format!(
        "guritad session: {n} submissions at {} jobs/s, {held} held at submit, \
         {} engine events, mean simulated JCT {:.4} s",
        RATE,
        stats.events,
        stats.avg_jct.unwrap_or(f64::NAN)
    ));
    trace::write_chrome(trace_out, "perfbench guritad client", &tracer.take())
        .map_err(|e| format!("writing {}: {e}", trace_out.display()))?;
    m.note(format!("chrome trace: {}", trace_out.display()));
    Ok(())
}
