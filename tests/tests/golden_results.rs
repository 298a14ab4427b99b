//! Golden result pins: one fixed-seed, small-fabric run per
//! [`SchedulerKind`], fingerprinted bit for bit.
//!
//! Every other equivalence suite compares the engine with itself in
//! another mode (online vs offline, parallel vs serial, incremental vs
//! full), so a refactor of the shared decision path would pass all of
//! them while silently changing the science. These pins compare against
//! constants instead: any change to a job or coflow record, the
//! makespan, or the event count of any scheduler fails here. A second
//! pin runs `Gurita@local` under control-plane chaos, where a crashed
//! host's coflows drop out of the head agent's view and come back.
//!
//! Results only see Gurita's blocking effects through its threshold
//! ladder, so a last-bit change to Ψ_J(s) (say, summing a stage's Ψ in
//! another order) rarely moves a queue. A third pin therefore
//! fingerprints every Ψ_J(s) Gurita computes over a run.
//!
//! The fingerprint is FNV-1a over the raw bits of every field
//! (`f64::to_bits` for times and bytes), so it is exact and independent
//! of float formatting. A failing pin's message gives the new
//! fingerprint and event count; when a change is *meant* to alter
//! results, paste those into the table together with an explanation of
//! why the science moved.

use gurita::scheduler::{GuritaConfig, GuritaScheduler};
use gurita_experiments::roster::SchedulerKind;
use gurita_experiments::scenario::Scenario;
use gurita_model::{CoflowId, HostId, JobId};
use gurita_sim::faults::{AgentCrash, ControlFaults, PartitionWindow};
use gurita_sim::runtime::{SimConfig, Simulation};
use gurita_sim::sched::{Assignment, Observation, Oracle, QueuePolicy, Scheduler};
use gurita_sim::stats::RunResult;
use gurita_sim::topology::FatTree;
use gurita_workload::dags::StructureKind;

/// FNV-1a over 64-bit words.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn usize(&mut self, x: usize) {
        self.word(x as u64);
    }
}

fn fingerprint(r: &RunResult) -> u64 {
    let mut h = Fingerprint::new();
    h.usize(r.jobs.len());
    for j in &r.jobs {
        h.usize(j.id.index());
        h.f64(j.arrival);
        h.f64(j.completed_at);
        h.f64(j.jct);
        h.f64(j.total_bytes);
        h.usize(j.num_stages);
        h.usize(j.fault_reroutes);
        h.usize(j.fault_parks);
    }
    h.usize(r.coflows.len());
    for c in &r.coflows {
        h.usize(c.id.index());
        h.usize(c.job.index());
        h.usize(c.dag_vertex);
        h.f64(c.activated_at);
        h.f64(c.completed_at);
        h.f64(c.bytes);
        h.f64(c.starved_total);
        h.f64(c.starved_max);
    }
    h.f64(r.makespan);
    h.word(r.events);
    h.0
}

/// A light FB-Tao mix on a 4-pod (16-host) fat-tree. The decentralized
/// kinds run at 1 ms control latency so their stale-table path is
/// exercised; centralized planes ignore the latency.
fn scenario() -> Scenario {
    let mut s = Scenario::trace_driven(StructureKind::FbTao, 24, 11);
    s.pods = 4;
    s.workload.num_hosts = 16;
    s.workload.category_weights = [0.40, 0.25, 0.15, 0.08, 0.12, 0.0, 0.0];
    s.control_latency = 1e-3;
    s
}

/// Lossy channel plus an agent crash/restart and a coordinator
/// partition: coflows whose flows all start at the crashed host drop out
/// of the head's merged view and come back after the restart.
fn chaos() -> ControlFaults {
    ControlFaults {
        drop_prob: 0.3,
        duplicate_prob: 0.1,
        reorder_prob: 0.1,
        reorder_delay: 5e-3,
        seed: 5,
        staleness_bound: 0.05,
        crashes: vec![AgentCrash {
            host: HostId(3),
            at: 0.02,
            restart_after: Some(0.1),
        }],
        partitions: vec![PartitionWindow {
            start: 0.15,
            duration: 0.05,
        }],
        ..ControlFaults::default()
    }
}

/// `(kind, fingerprint, events)` captured before the hash-free
/// decision-point refactor.
const PINS: [(SchedulerKind, u64, u64); 13] = [
    (SchedulerKind::Gurita, 0x4985_b1c4_db4c_8774, 7240),
    (SchedulerKind::GuritaSpq, 0x566e_7ee9_d770_2123, 6728),
    (SchedulerKind::GuritaNoOmega, 0xe8b0_6aa8_8cf1_8bfb, 7179),
    (SchedulerKind::GuritaNoKappa, 0x7029_47dc_215b_757d, 6988),
    (
        SchedulerKind::GuritaNoCriticalPath,
        0x31c2_c459_63c8_a67e,
        7241,
    ),
    (SchedulerKind::GuritaPlus, 0x5927_adcf_94b5_32f7, 7463),
    (SchedulerKind::Pfs, 0x83cd_83fc_3339_fb8c, 7249),
    (SchedulerKind::Baraat, 0x21bf_d051_284a_2dac, 7112),
    (SchedulerKind::Stream, 0x79ee_bec7_9311_2e8e, 6275),
    (SchedulerKind::Aalo, 0x5f74_d5d6_3bff_a028, 6618),
    (SchedulerKind::VarysSebf, 0xf97f_f494_40b7_50fe, 7057),
    (SchedulerKind::GuritaLocal, 0xeec8_238e_a88c_9f78, 7866),
    (SchedulerKind::AaloLocal, 0x545f_5d0b_dcf9_6da6, 7356),
];

/// `Gurita@local` under [`chaos`].
const CHAOS_PIN: (u64, u64) = (0xdce4_4d77_cacb_0f85, 34720);

/// `(fingerprint of every Ψ_J(s), decisions)` of [`PsiRecorder`] over
/// [`scenario`].
const PSI_PIN: (u64, u64) = (0xf106_a0db_9e5b_6081, 4133);

/// Gurita, fingerprinting the Ψ_J(s) bits of every decision it makes.
struct PsiRecorder {
    inner: GuritaScheduler,
    psis: Fingerprint,
    decisions: u64,
}

impl Scheduler for PsiRecorder {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn num_queues(&self) -> usize {
        self.inner.num_queues()
    }

    fn assign(&mut self, obs: &Observation, oracle: &Oracle<'_>) -> Assignment {
        let queues = self.inner.assign(obs, oracle);
        for &psi in self.inner.stage_blocking_effects() {
            self.psis.f64(psi);
        }
        self.decisions += 1;
        queues
    }

    fn queue_policy(&mut self, obs: &Observation) -> QueuePolicy {
        self.inner.queue_policy(obs)
    }

    fn on_coflow_completed(&mut self, coflow: CoflowId, job: JobId, now: f64) {
        self.inner.on_coflow_completed(coflow, job, now);
    }

    fn on_job_completed(&mut self, job: JobId, now: f64) {
        self.inner.on_job_completed(job, now);
    }
}

fn check(label: &str, r: &RunResult, want: (u64, u64)) -> Option<String> {
    let got = (fingerprint(r), r.events);
    (got != want).then(|| {
        format!(
            "{label}: fingerprint {:#018x} / {} events, pinned {:#018x} / {}",
            got.0, got.1, want.0, want.1
        )
    })
}

#[test]
fn every_scheduler_reproduces_its_pinned_result() {
    let s = scenario();
    let kinds: Vec<SchedulerKind> = PINS.iter().map(|p| p.0).collect();
    let results = s.run_all(&kinds);
    let failures: Vec<String> = PINS
        .iter()
        .zip(&results)
        .filter_map(|(&(kind, fp, ev), r)| {
            assert_eq!(r.jobs.len(), 24, "{}: every job completes", kind.label());
            check(kind.label(), r, (fp, ev))
        })
        .collect();
    assert!(
        failures.is_empty(),
        "results moved:\n{}",
        failures.join("\n")
    );
}

#[test]
fn decentralized_gurita_under_control_chaos_reproduces_its_pinned_result() {
    let mut s = scenario();
    s.control_faults = Some(chaos());
    let r = s.run(SchedulerKind::GuritaLocal);
    assert_eq!(r.jobs.len(), 24);
    assert!(r.control.agent_crashes == 1 && r.control.degraded_entries > 0);
    if let Some(msg) = check("Gurita@local/chaos", &r, CHAOS_PIN) {
        panic!("result moved: {msg}");
    }
}

#[test]
fn gurita_reproduces_every_pinned_blocking_effect() {
    let s = scenario();
    let mut recorder = PsiRecorder {
        inner: GuritaScheduler::new(GuritaConfig {
            threshold_base: 1.0e7,
            threshold_factor: 30.0,
            ..GuritaConfig::default()
        }),
        psis: Fingerprint::new(),
        decisions: 0,
    };
    let fabric = FatTree::new(s.pods).expect("valid pod count");
    let config = SimConfig {
        tick_interval: s.tick_interval,
        ..SimConfig::default()
    };
    let r = Simulation::new(fabric, config).run(s.jobs(), &mut recorder);
    assert_eq!(r.jobs.len(), 24);
    let got = (recorder.psis.0, recorder.decisions);
    assert_eq!(
        got, PSI_PIN,
        "Ψ_J(s) moved: fingerprint {:#018x} over {} decisions",
        got.0, got.1
    );
}
