//! The service-mode acceptance invariant, property-tested: a workload
//! submitted through the **online** admission path
//! ([`Engine::submit_job`]) before the engine starts must produce a
//! [`RunResult`] **bit-for-bit identical** to the offline
//! [`Simulation`] run of the same workload — across schedulers
//! (centralized and decentralized), control latencies, and worker
//! thread counts.
//!
//! Why exact equality is attainable: online submission pushes the same
//! `JobArrival` events with the same `(time, seq)` keys the offline
//! constructor would have assigned (the engine defers its fault and
//! control-timeline seeding until the first step precisely so pre-start
//! submissions take the leading sequence numbers), and admission seeds
//! the dirty-component set exactly like a t=0 arrival, so every
//! downstream recompute sees identical inputs in an identical order.

use gurita::scheduler::{GuritaConfig, GuritaScheduler};
use gurita_experiments::roster::SchedulerKind;
use gurita_model::{HostId, JobSpec};
use gurita_sim::control::Centralized;
use gurita_sim::faults::{AgentCrash, ControlFaults, FaultSchedule, PartitionWindow};
use gurita_sim::runtime::{Engine, JobPhase, SimConfig, Simulation};
use gurita_sim::stats::RunResult;
use gurita_sim::topology::BigSwitch;
use gurita_workload::dags::StructureKind;
use gurita_workload::generator::{JobGenerator, WorkloadConfig};
use proptest::prelude::*;

const HOSTS: usize = 32;

fn workload(num_jobs: usize, seed: u64) -> Vec<JobSpec> {
    JobGenerator::new(
        WorkloadConfig {
            num_jobs,
            num_hosts: HOSTS,
            structure: StructureKind::FbTao,
            category_weights: [0.5, 0.3, 0.2, 0.0, 0.0, 0.0, 0.0],
            ..WorkloadConfig::default()
        },
        seed,
    )
    .generate()
}

fn fabric() -> BigSwitch {
    BigSwitch::new(HOSTS, gurita_model::units::GBPS_10)
}

fn sim_config(latency: f64, threads: usize, faults: Option<ControlFaults>) -> SimConfig {
    SimConfig {
        control_latency: latency,
        threads,
        control_faults: faults,
        ..SimConfig::default()
    }
}

fn run_offline(kind: SchedulerKind, jobs: &[JobSpec], config: &SimConfig) -> RunResult {
    let mut plane = kind.build_plane();
    Simulation::new(fabric(), config.clone())
        .try_run_control(jobs.to_vec(), plane.as_mut())
        .expect("offline run failed")
}

/// The online path: construct an idle engine, submit the whole workload
/// through `submit_job`, then run to drained.
fn run_online(kind: SchedulerKind, jobs: &[JobSpec], config: &SimConfig) -> RunResult {
    let mut plane = kind.build_plane();
    let fabric = fabric();
    let schedule = FaultSchedule::new();
    let mut engine = Engine::online(&fabric, config, plane.as_mut(), &schedule)
        .expect("online engine construction failed");
    for job in jobs {
        engine
            .submit_job(job.clone())
            .expect("online admission failed");
    }
    engine.run_to_drained().expect("online run failed");
    engine.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The acceptance identity: online t=0 submission ≡ offline run,
    /// bit-for-bit, across scheduler × control latency × threads.
    #[test]
    fn online_submission_is_bit_for_bit_offline(
        seed in 0u64..1_000,
        jobs in 6usize..14,
        kind_idx in 0usize..4,
        latency_idx in 0usize..2,
        threads_idx in 0usize..3,
    ) {
        let kind = [
            SchedulerKind::Gurita,
            SchedulerKind::Pfs,
            SchedulerKind::Aalo,
            SchedulerKind::GuritaLocal,
        ][kind_idx];
        let latency = [0.0, 1e-3][latency_idx];
        let threads = [1usize, 2, 4][threads_idx];
        let jobs = workload(jobs, seed);
        let config = sim_config(latency, threads, None);
        let offline = run_offline(kind, &jobs, &config);
        let online = run_online(kind, &jobs, &config);
        prop_assert!(
            offline == online,
            "online path diverged from offline for {kind:?} \
             (latency {latency}, threads {threads})"
        );
    }
}

/// A crash-and-partition profile over the decentralized plane — the
/// control-fault machinery must compose with online admission.
fn chaos(seed: u64) -> ControlFaults {
    ControlFaults {
        drop_prob: 0.2,
        duplicate_prob: 0.1,
        seed,
        staleness_bound: 0.1,
        crashes: vec![AgentCrash {
            host: HostId(3),
            at: 0.02,
            restart_after: Some(0.05),
        }],
        partitions: vec![PartitionWindow {
            start: 0.1,
            duration: 0.05,
        }],
        ..ControlFaults::default()
    }
}

/// Online submission under an armed control-fault profile: pre-start
/// admission stays bit-for-bit offline (fault seeding is deferred
/// behind the submissions), and the resilience ledger records the
/// injected chaos.
#[test]
fn online_admission_under_control_faults_keeps_the_ledger() {
    let jobs = workload(12, 21);
    let config = sim_config(1e-3, 1, Some(chaos(7)));
    let offline = run_offline(SchedulerKind::GuritaLocal, &jobs, &config);
    let online = run_online(SchedulerKind::GuritaLocal, &jobs, &config);
    assert!(
        offline == online,
        "online path diverged from offline under control faults"
    );
    assert_eq!(online.jobs.len(), jobs.len(), "chaos must not lose jobs");
    assert!(online.control.messages_sent > 0, "channel exercised");
    assert_eq!(online.control.agent_crashes, 1);
    assert_eq!(online.control.agent_restarts, 1);
    assert_eq!(online.control.partitions, 1);
}

/// Mid-run admission under the same chaos profile: jobs streamed in
/// while agents crash and the coordinator partitions still all
/// complete, and the ledger shows the faults fired.
#[test]
fn mid_run_admission_survives_control_faults() {
    let jobs = workload(12, 33);
    let config = sim_config(1e-3, 1, Some(chaos(9)));
    let mut plane = SchedulerKind::GuritaLocal.build_plane();
    let fabric = fabric();
    let schedule = FaultSchedule::new();
    let mut engine = Engine::online(&fabric, &config, plane.as_mut(), &schedule)
        .expect("online engine construction failed");
    // Stream arrivals: admit each job only once virtual time reaches
    // its arrival, so admissions interleave with crash/partition events.
    for job in &jobs {
        let arrival = job.arrival();
        engine.submit_job(job.clone()).expect("admission failed");
        engine.run_until(arrival).expect("run_until failed");
    }
    engine.run_to_drained().expect("drain failed");
    let result = engine.finish();
    assert_eq!(
        result.jobs.len(),
        jobs.len(),
        "every admitted job completes"
    );
    assert_eq!(result.control.agent_crashes, 1);
    assert_eq!(result.control.partitions, 1);
    assert!(result.control.messages_sent > 0);
}

/// Cancelling running jobs retires their control-plane state exactly as
/// completion does: after mid-flight cancels and a drain, Gurita holds
/// no per-coflow decision memo and no per-job critical-path estimator.
#[test]
fn cancelled_jobs_leave_no_scheduler_state() {
    let jobs = workload(16, 5);
    let config = sim_config(0.0, 1, None);
    let mut plane = Centralized::new(GuritaScheduler::new(GuritaConfig::default()));
    let fabric = fabric();
    let schedule = FaultSchedule::new();
    let mut engine = Engine::online(&fabric, &config, &mut plane, &schedule)
        .expect("online engine construction failed");
    for job in &jobs {
        engine.submit_job(job.clone()).expect("admission failed");
    }
    let mut cancelled = 0;
    for _ in 0..4 {
        engine.run_for(25).expect("run_for failed");
        let running = jobs.iter().map(|j| j.id()).find(|&id| {
            matches!(engine.job_phase(id), JobPhase::Running { progress } if progress.completed_coflows > 0)
        });
        if let Some(id) = running {
            assert!(engine.cancel_job(id));
            cancelled += 1;
        }
    }
    engine.run_to_drained().expect("drain failed");
    let result = engine.finish();
    assert!(
        cancelled > 0,
        "the workload must offer running jobs to cancel"
    );
    assert_eq!(result.jobs_cancelled, cancelled);
    assert_eq!(result.jobs.len() + cancelled, jobs.len());
    assert_eq!(plane.inner().tracked_coflows(), 0, "per-coflow memo leaked");
    assert_eq!(plane.inner().tracked_jobs(), 0, "per-job estimator leaked");
}
