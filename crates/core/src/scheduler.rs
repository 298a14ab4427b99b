//! The Gurita scheduler: Least-Blocking-Effect-First (Algorithm 1).
//!
//! [`GuritaScheduler`] is the deployable, decentralized design: it reads
//! only receiver-side observations (bytes received per open connection,
//! open-connection counts, dependency depth learned from parent→child
//! invocations), estimates each coflow's blocking effect
//! Ψ̂ = ω̂ × L̂_max × Ŵ × κ̂, aggregates per job stage, and maps
//! Ψ̂_J(s) through exponentially-spaced thresholds onto the switch
//! priority queues. Rule 4 is satisfied with the AVA critical-path
//! estimate; starvation is mitigated by emulating SPQ with WRR weights
//! derived from priority-queue waiting times.
//!
//! The runtime enforces the paper's TCP-reordering discipline for this
//! scheduler: live flows are only ever demoted; priority raises apply to
//! subsequently started flows.

use crate::ava::AvaEstimator;
use crate::blocking::{coflow_blocking_effect, BlockingParams, CoflowFacts};
use crate::hr::DelayedDecision;
use crate::starvation::{wrr_weights, LoadEstimator};
use crate::thresholds::ThresholdLadder;
use gurita_model::{units, CoflowId, JobId};
use gurita_sim::sched::{Observation, Oracle, QueuePolicy, Scheduler};

/// Configuration of the decentralized Gurita scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct GuritaConfig {
    /// Number of switch priority queues (the evaluation uses 4; today's
    /// commodity switches support 8).
    pub num_queues: usize,
    /// Base threshold θ_0 in Ψ units (bytes × flows).
    pub threshold_base: f64,
    /// Exponential spacing factor between consecutive thresholds.
    pub threshold_factor: f64,
    /// Blocking-effect parameters (β, κ floor, γ, rule set).
    pub blocking: BlockingParams,
    /// Cap on coflows flagged as critical per job (the paper bounds the
    /// count by the number of critical paths, < 5 in production).
    pub critical_path_cap: usize,
    /// Emulate SPQ with WRR to mitigate starvation (paper §IV.B). When
    /// false, plain strict priority is used.
    pub starvation_mitigation: bool,
    /// EWMA smoothing for the per-queue arrival-rate estimator.
    pub load_alpha: f64,
    /// Reference capacity (bytes/sec) that per-queue loads are
    /// normalized by — one NIC line rate in the evaluation.
    pub reference_capacity: f64,
    /// Head-receiver coordination latency: a priority decision computed
    /// at time t takes effect at t + latency (see [`crate::hr`]).
    /// Default 0 — the paper's simulation applies decisions at δ
    /// granularity with no extra propagation delay.
    pub decision_latency: f64,
}

impl Default for GuritaConfig {
    fn default() -> Self {
        Self {
            num_queues: 4,
            threshold_base: 1.0e7,
            threshold_factor: 20.0,
            blocking: BlockingParams::default(),
            critical_path_cap: 5,
            starvation_mitigation: true,
            load_alpha: 0.3,
            reference_capacity: units::GBPS_10,
            decision_latency: 0.0,
        }
    }
}

impl GuritaConfig {
    /// Validates all parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters (see field docs).
    pub fn validate(&self) {
        assert!(
            (1..=8).contains(&self.num_queues),
            "commodity switches support 1..=8 queues, got {}",
            self.num_queues
        );
        assert!(self.threshold_base > 0.0, "threshold base must be positive");
        assert!(
            self.threshold_factor > 1.0,
            "threshold factor must exceed 1"
        );
        self.blocking.validate();
        assert!(
            self.critical_path_cap >= 1,
            "critical-path cap must be >= 1"
        );
        assert!(
            self.load_alpha > 0.0 && self.load_alpha <= 1.0,
            "load alpha must be in (0, 1]"
        );
        assert!(self.reference_capacity > 0.0, "capacity must be positive");
        assert!(
            self.decision_latency >= 0.0 && self.decision_latency.is_finite(),
            "decision latency must be non-negative"
        );
    }
}

/// The decentralized Gurita scheduler. See the module docs.
#[derive(Debug)]
pub struct GuritaScheduler {
    config: GuritaConfig,
    ladder: ThresholdLadder,
    /// Per-job AVA over observed per-coflow L̂_max (critical-path
    /// estimation), ascending by job id.
    ava: Vec<(JobId, AvaEstimator)>,
    /// Per-coflow decision state, ascending by coflow id, so `assign`
    /// walks it in lockstep with [`Observation::coflows`].
    memo: Vec<CoflowMemo>,
    /// Coflows first seen by the current `assign`, ascending by id
    /// (scratch; merged into `memo` at the end).
    next_memo: Vec<CoflowMemo>,
    loads: LoadEstimator,
    // ---- per-decision scratch (reused across calls) ----
    flags: Vec<bool>,
    candidates: Vec<(usize, f64)>,
    psis: Vec<f64>,
    stage_psis: Vec<f64>,
    stages: Vec<(usize, f64)>,
    queue_bytes: Vec<f64>,
}

/// What [`GuritaScheduler`] remembers about one coflow between decision
/// points. Created at the coflow's first `assign`, retired by
/// [`Scheduler::on_coflow_completed`]. A coflow missing from an
/// observation keeps its entry: under control-plane faults a crashed
/// host's coflows drop out of the merged view and come back on restart.
#[derive(Debug, Clone, Copy)]
struct CoflowMemo {
    id: CoflowId,
    /// HR decision pipeline (propagation latency).
    decision: DelayedDecision,
    /// Bytes observed at the previous decision point, plus the queue the
    /// coflow was assigned then (arrival-rate estimation).
    last_bytes: f64,
    last_queue: usize,
    /// Last observed L̂_max (fed into AVA on completion).
    last_lmax: f64,
}

impl GuritaScheduler {
    /// Creates the scheduler.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`GuritaConfig::validate`]).
    pub fn new(config: GuritaConfig) -> Self {
        config.validate();
        let ladder = ThresholdLadder::exponential(
            config.num_queues,
            config.threshold_base,
            config.threshold_factor,
        );
        let loads = LoadEstimator::new(
            config.num_queues,
            config.load_alpha,
            config.reference_capacity,
        );
        Self {
            config,
            ladder,
            ava: Vec::new(),
            memo: Vec::new(),
            next_memo: Vec::new(),
            loads,
            flags: Vec::new(),
            candidates: Vec::new(),
            psis: Vec::new(),
            stage_psis: Vec::new(),
            stages: Vec::new(),
            queue_bytes: Vec::new(),
        }
    }

    /// The scheduler's configuration.
    pub fn config(&self) -> &GuritaConfig {
        &self.config
    }

    /// Coflows whose decision state the scheduler still holds (retired
    /// by [`Scheduler::on_coflow_completed`]).
    pub fn tracked_coflows(&self) -> usize {
        self.memo.len()
    }

    /// Jobs whose critical-path estimator the scheduler still holds
    /// (retired by [`Scheduler::on_job_completed`]).
    pub fn tracked_jobs(&self) -> usize {
        self.ava.len()
    }

    /// Ψ_J(s) of each coflow at the most recent `assign`, indexed like
    /// that observation's coflows: the aggregate the threshold ladder
    /// mapped to a queue.
    pub fn stage_blocking_effects(&self) -> &[f64] {
        &self.stage_psis
    }

    /// The AVA estimator of `job`, if one of its coflows completed.
    fn ava(&self, job: JobId) -> Option<&AvaEstimator> {
        self.ava
            .binary_search_by_key(&job, |a| a.0)
            .ok()
            .map(|i| &self.ava[i].1)
    }

    /// Flags up to `critical_path_cap` coflows per job whose observed
    /// L̂_max exceeds the job's AVA mean — the practical Rule 4 test.
    fn critical_flags(&mut self, obs: &Observation) {
        self.flags.clear();
        self.flags.resize(obs.coflows.len(), false);
        for job in &obs.jobs {
            let Some(&ava) = self.ava(job.id) else {
                continue;
            };
            self.candidates.clear();
            self.candidates.extend(
                job.active_coflows
                    .iter()
                    .map(|&ci| (ci, obs.coflows[ci].max_flow_bytes_received))
                    .filter(|&(_, lmax)| ava.is_above_mean(lmax)),
            );
            self.candidates
                .sort_by(|a, b| b.1.partial_cmp(&a.1).expect("observed bytes are finite"));
            for &(ci, _) in self.candidates.iter().take(self.config.critical_path_cap) {
                self.flags[ci] = true;
            }
        }
    }
}

/// Ψ_J(s) for every coflow of `obs`: `psis` summed over the coflow's
/// job-stage siblings (the paper's Ψ_J(s) = Σ Ψ_c), written to `out`
/// by coflow index. Each job's coflows are visited in
/// [`JobObs::active_coflows`](gurita_sim::sched::JobObs::active_coflows)
/// order, i.e. coflow order, so every sum replays the additions of a
/// per-(job, stage) running total over `obs.coflows` bit for bit.
/// `stages` is `(stage, sum)` scratch; a job rarely has more than a
/// couple of stages active at once, so a linear scan beats hashing.
pub(crate) fn stage_sums(
    obs: &Observation,
    psis: &[f64],
    stages: &mut Vec<(usize, f64)>,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.resize(psis.len(), 0.0);
    for job in &obs.jobs {
        stages.clear();
        for &ci in &job.active_coflows {
            let stage = obs.coflows[ci].dag_stage;
            let slot = match stages.iter().position(|&(s, _)| s == stage) {
                Some(slot) => slot,
                None => {
                    stages.push((stage, 0.0));
                    stages.len() - 1
                }
            };
            stages[slot].1 += psis[ci];
        }
        for &ci in &job.active_coflows {
            let stage = obs.coflows[ci].dag_stage;
            out[ci] = stages
                .iter()
                .find(|&&(s, _)| s == stage)
                .expect("stage summed above")
                .1;
        }
    }
}

impl Scheduler for GuritaScheduler {
    fn name(&self) -> String {
        "gurita".to_owned()
    }

    fn num_queues(&self) -> usize {
        self.config.num_queues
    }

    fn assign(&mut self, obs: &Observation, _oracle: &Oracle<'_>) -> Vec<usize> {
        // 1. Per-coflow blocking effects from receiver-side estimates.
        self.critical_flags(obs);
        self.psis.clear();
        self.psis
            .extend(obs.coflows.iter().zip(&self.flags).map(|(c, &cp)| {
                let facts = CoflowFacts {
                    l_max: c.max_flow_bytes_received,
                    l_avg: c.avg_flow_bytes_received(),
                    width: c.open_flows,
                    completed_stages: c.dag_stage,
                    total_stages: None,
                    on_critical_path: cp,
                };
                coflow_blocking_effect(&facts, &self.config.blocking)
            }));
        // 2. Aggregate Ψ_J(s) per (job, stage): a coflow is prioritized
        // by its job-stage aggregate, so sibling coflows in the same
        // stage share a fate.
        stage_sums(obs, &self.psis, &mut self.stages, &mut self.stage_psis);
        // 3. Thresholds → queues, and bookkeeping for the rate estimator
        // and critical-path AVA. Both `obs.coflows` and the memo ascend
        // by coflow id, so a cursor that only moves forward pairs them,
        // updating entries in place; entries of coflows absent from
        // `obs` stay untouched. The cursor binary-searches forward, so a
        // memo holding many more coflows than `obs` (a per-host fallback
        // agent never sees completions) costs O(log memo) per coflow.
        let mut assignment = Vec::with_capacity(obs.coflows.len());
        self.queue_bytes.clear();
        self.queue_bytes.resize(self.config.num_queues, 0.0);
        let latency = self.config.decision_latency;
        self.next_memo.clear();
        let mut at = 0;
        debug_assert!(
            obs.coflows.windows(2).all(|w| w[0].id < w[1].id),
            "observation coflows must ascend by id"
        );
        for (c, &psi_js) in obs.coflows.iter().zip(&self.stage_psis) {
            at += self.memo[at..].partition_point(|m| m.id < c.id);
            let target = self.ladder.queue_for(psi_js);
            let queue = match self.memo.get_mut(at).filter(|m| m.id == c.id) {
                Some(m) => {
                    let queue = m.decision.decide(obs.now, latency, target);
                    self.queue_bytes[m.last_queue] += (c.bytes_received - m.last_bytes).max(0.0);
                    m.last_bytes = c.bytes_received;
                    m.last_queue = queue;
                    m.last_lmax = c.max_flow_bytes_received;
                    queue
                }
                None => {
                    let mut decision = DelayedDecision::new(0);
                    let queue = decision.decide(obs.now, latency, target);
                    self.queue_bytes[queue] += c.bytes_received.max(0.0);
                    self.next_memo.push(CoflowMemo {
                        id: c.id,
                        decision,
                        last_bytes: c.bytes_received,
                        last_queue: queue,
                        last_lmax: c.max_flow_bytes_received,
                    });
                    queue
                }
            };
            assignment.push(queue);
        }
        // New coflows usually carry the largest ids yet (ids are handed
        // out monotonically), so they append; otherwise merge the two
        // ascending runs.
        let appends = match (self.memo.last(), self.next_memo.first()) {
            (Some(last), Some(first)) => last.id < first.id,
            _ => true,
        };
        self.memo.append(&mut self.next_memo);
        if !appends {
            self.memo.sort_by_key(|m| m.id);
        }
        self.loads.record(obs.now, &self.queue_bytes);
        assignment
    }

    fn queue_policy(&mut self, _obs: &Observation) -> QueuePolicy {
        if self.config.starvation_mitigation {
            QueuePolicy::Weighted(wrr_weights(&self.loads.loads()))
        } else {
            QueuePolicy::Strict
        }
    }

    fn on_coflow_completed(&mut self, coflow: CoflowId, job: JobId, _now: f64) {
        if let Ok(i) = self.memo.binary_search_by_key(&coflow, |m| m.id) {
            let m = self.memo.remove(i);
            let a = match self.ava.binary_search_by_key(&job, |a| a.0) {
                Ok(a) => a,
                Err(a) => {
                    self.ava.insert(a, (job, AvaEstimator::default()));
                    a
                }
            };
            self.ava[a].1.observe(m.last_lmax);
        }
    }

    fn on_job_completed(&mut self, job: JobId, _now: f64) {
        if let Ok(a) = self.ava.binary_search_by_key(&job, |a| a.0) {
            self.ava.remove(a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gurita_model::{CoflowSpec, FlowSpec, HostId, JobDag, JobSpec};
    use gurita_sim::runtime::{SimConfig, Simulation};
    use gurita_sim::sched::FifoScheduler;
    use gurita_sim::topology::BigSwitch;
    use std::collections::HashMap;

    const MB: f64 = units::MB;

    fn config() -> GuritaConfig {
        GuritaConfig {
            reference_capacity: 1.0 * MB,
            threshold_base: 2.0e5,
            threshold_factor: 10.0,
            ..GuritaConfig::default()
        }
    }

    fn sim() -> Simulation<BigSwitch> {
        Simulation::new(
            BigSwitch::new(16, 1.0 * MB),
            SimConfig {
                tick_interval: 0.05,
                ..SimConfig::default()
            },
        )
    }

    fn single_coflow_job(id: usize, flows: Vec<FlowSpec>) -> JobSpec {
        JobSpec::new(
            id,
            0.0,
            vec![CoflowSpec::new(flows)],
            JobDag::chain(1).unwrap(),
        )
        .unwrap()
    }

    /// Heterogeneous mix (the regime the paper's gains come from): one
    /// wide elephant job blocking a downlink plus several mice. LBEF
    /// demotes the elephant once its blocking effect crosses the first
    /// threshold, letting the mice finish near their ideal times, which
    /// lowers the average JCT versus per-flow fair sharing.
    /// No information-agnostic scheduler can separate jobs that arrived
    /// together (equal attained service), so — like the paper's trace
    /// scenarios — the gains appear once elephants have accumulated
    /// blocking effect before mice arrive.
    #[test]
    fn blocking_aware_mix_beats_fair_sharing() {
        // Elephant: 5 flows x 10 MB into host 9, arrives first; mice:
        // 1 MB singletons arriving once the elephant is established.
        let elephant = single_coflow_job(
            0,
            (0..5)
                .map(|i| FlowSpec::new(HostId(i), HostId(9), 10.0 * MB))
                .collect(),
        );
        let mice: Vec<JobSpec> = (1..5)
            .map(|j| {
                single_coflow_job(j, vec![FlowSpec::new(HostId(4 + j), HostId(9), 1.0 * MB)])
                    .with_arrival(2.0 + 0.5 * j as f64)
            })
            .collect();
        let mut jobs = vec![elephant];
        jobs.extend(mice);

        let fair = sim().run(jobs.clone(), &mut FifoScheduler::new(1));
        let mut gurita = GuritaScheduler::new(GuritaConfig {
            starvation_mitigation: false,
            ..config()
        });
        let blocked_aware = sim().run(jobs, &mut gurita);
        assert!(
            blocked_aware.avg_jct() < 0.8 * fair.avg_jct(),
            "gurita {} should clearly beat fair {}",
            blocked_aware.avg_jct(),
            fair.avg_jct()
        );
    }

    #[test]
    fn late_mouse_preempts_established_elephant() {
        // The elephant arrives at t=0 and accumulates blocking effect;
        // a 1 MB mouse arriving at t=5 must finish near its ideal 1 s
        // instead of the 2 s fair sharing would give it.
        let elephant = single_coflow_job(0, vec![FlowSpec::new(HostId(0), HostId(9), 100.0 * MB)]);
        let mouse = single_coflow_job(1, vec![FlowSpec::new(HostId(1), HostId(9), 1.0 * MB)])
            .with_arrival(5.0);
        let mut gurita = GuritaScheduler::new(GuritaConfig {
            starvation_mitigation: false,
            ..config()
        });
        let res = sim().run(vec![elephant, mouse], &mut gurita);
        let mouse_jct = res.jobs.iter().find(|j| j.id == JobId(1)).unwrap().jct;
        assert!(
            mouse_jct < 1.3,
            "mouse should finish near 1s under LBEF, took {mouse_jct}"
        );
    }

    #[test]
    fn starvation_mitigation_keeps_low_priority_moving() {
        // Continuous high-priority pressure; with WRR emulation the big
        // demoted job must still make progress (finite completion with
        // bounded stretch).
        let elephant = single_coflow_job(0, vec![FlowSpec::new(HostId(0), HostId(9), 50.0 * MB)]);
        let mice: Vec<JobSpec> = (1..6)
            .map(|j| {
                JobSpec::new(
                    j,
                    (j - 1) as f64 * 10.0,
                    vec![CoflowSpec::new(vec![FlowSpec::new(
                        HostId(1),
                        HostId(9),
                        5.0 * MB,
                    )])],
                    JobDag::chain(1).unwrap(),
                )
                .unwrap()
            })
            .collect();
        let mut jobs = vec![elephant];
        jobs.extend(mice);
        let mut with_wrr = GuritaScheduler::new(config());
        let res = sim().run(jobs, &mut with_wrr);
        assert_eq!(res.jobs.len(), 6);
    }

    #[test]
    fn new_coflows_start_at_highest_priority() {
        let mut g = GuritaScheduler::new(config());
        let obs = Observation {
            now: 0.0,
            coflows: vec![gurita_sim::sched::CoflowObs {
                id: CoflowId(0),
                job: JobId(0),
                dag_vertex: 0,
                dag_stage: 0,
                activated_at: 0.0,
                open_flows: 3,
                bytes_received: 0.0,
                max_flow_bytes_received: 0.0,
                flows: vec![],
            }],
            jobs: vec![gurita_sim::sched::JobObs {
                id: JobId(0),
                arrival: 0.0,
                completed_coflows: 0,
                completed_stages: 0,
                completed_bytes: 0.0,
                bytes_received: 0.0,
                active_coflows: vec![0],
            }],
        };
        let jobs = HashMap::new();
        let rem = |_| None;
        let size = |_| None;
        let oracle = Oracle::new(&jobs, &rem, &size);
        assert_eq!(g.assign(&obs, &oracle), vec![0]);
    }

    #[test]
    fn heavy_stage_gets_demoted() {
        let mut g = GuritaScheduler::new(config());
        let mk = |id: usize, lmax: f64, bytes: f64, width: usize| gurita_sim::sched::CoflowObs {
            id: CoflowId(id),
            job: JobId(id),
            dag_vertex: 0,
            dag_stage: 0,
            activated_at: 0.0,
            open_flows: width,
            bytes_received: bytes,
            max_flow_bytes_received: lmax,
            flows: vec![],
        };
        let obs = Observation {
            now: 1.0,
            coflows: vec![
                mk(0, 0.05 * MB, 0.1 * MB, 2),
                mk(1, 100.0 * MB, 900.0 * MB, 40),
            ],
            jobs: vec![
                gurita_sim::sched::JobObs {
                    id: JobId(0),
                    arrival: 0.0,
                    completed_coflows: 0,
                    completed_stages: 0,
                    completed_bytes: 0.0,
                    bytes_received: 0.1 * MB,
                    active_coflows: vec![0],
                },
                gurita_sim::sched::JobObs {
                    id: JobId(1),
                    arrival: 0.0,
                    completed_coflows: 0,
                    completed_stages: 0,
                    completed_bytes: 0.0,
                    bytes_received: 900.0 * MB,
                    active_coflows: vec![1],
                },
            ],
        };
        let jobs = HashMap::new();
        let rem = |_| None;
        let size = |_| None;
        let oracle = Oracle::new(&jobs, &rem, &size);
        let a = g.assign(&obs, &oracle);
        assert_eq!(a[0], 0, "tiny stage stays at top priority");
        assert!(a[1] > 0, "blocking stage must be demoted, got {:?}", a);
    }

    #[test]
    fn multi_stage_small_job_beats_tbs_intuition() {
        // A 3-stage job with tiny per-stage bytes vs a single-stage job
        // with the same total: Gurita should not punish the deep job.
        let deep = JobSpec::new(
            0,
            0.0,
            (0..3)
                .map(|s| CoflowSpec::new(vec![FlowSpec::new(HostId(s), HostId(9), 2.0 * MB)]))
                .collect(),
            JobDag::chain(3).unwrap(),
        )
        .unwrap();
        let flat = single_coflow_job(1, vec![FlowSpec::new(HostId(5), HostId(9), 6.0 * MB)]);
        let mut g = GuritaScheduler::new(GuritaConfig {
            starvation_mitigation: false,
            ..config()
        });
        let res = sim().run(vec![deep, flat], &mut g);
        assert_eq!(res.jobs.len(), 2);
        let deep_jct = res.jobs.iter().find(|j| j.id == JobId(0)).unwrap().jct;
        // Ideal deep JCT alone is 6s; with contention it must stay well
        // under double the ideal because each stage is tiny.
        assert!(deep_jct < 12.0, "deep job took {deep_jct}");
    }

    #[test]
    fn decision_latency_defers_demotion() {
        // With a large HR latency, the established elephant's demotion
        // is deferred, so a late mouse sees fair sharing for longer and
        // finishes later than with instantaneous decisions.
        let build = |latency: f64| {
            GuritaScheduler::new(GuritaConfig {
                starvation_mitigation: false,
                decision_latency: latency,
                ..config()
            })
        };
        let elephant = single_coflow_job(0, vec![FlowSpec::new(HostId(0), HostId(9), 100.0 * MB)]);
        // The mouse arrives while the slow HR's demotion message is
        // still in flight (sent ~0.5s, latency 3s), so it shares the
        // link fairly until ~3.5s under the slow configuration.
        let mouse = single_coflow_job(1, vec![FlowSpec::new(HostId(1), HostId(9), 1.0 * MB)])
            .with_arrival(2.0);
        let fast = {
            let mut g = build(0.0);
            sim().run(vec![elephant.clone(), mouse.clone()], &mut g)
        };
        let slow = {
            let mut g = build(3.0);
            sim().run(vec![elephant, mouse], &mut g)
        };
        let jct = |r: &gurita_sim::stats::RunResult| {
            r.jobs.iter().find(|j| j.id == JobId(1)).unwrap().jct
        };
        assert!(
            jct(&slow) > jct(&fast) + 0.2,
            "latency should visibly delay the mouse: {} vs {}",
            jct(&slow),
            jct(&fast)
        );
    }

    #[test]
    fn config_validation_rejects_bad_queues() {
        let cfg = GuritaConfig {
            num_queues: 9,
            ..GuritaConfig::default()
        };
        assert!(std::panic::catch_unwind(|| GuritaScheduler::new(cfg)).is_err());
    }

    fn obs_of(now: f64, coflows: Vec<gurita_sim::sched::CoflowObs>) -> Observation {
        let mut jobs: Vec<gurita_sim::sched::JobObs> = Vec::new();
        for (ci, c) in coflows.iter().enumerate() {
            match jobs.iter_mut().find(|j| j.id == c.job) {
                Some(j) => {
                    j.bytes_received += c.bytes_received;
                    j.active_coflows.push(ci);
                }
                None => jobs.push(gurita_sim::sched::JobObs {
                    id: c.job,
                    arrival: 0.0,
                    completed_coflows: 0,
                    completed_stages: 0,
                    completed_bytes: 0.0,
                    bytes_received: c.bytes_received,
                    active_coflows: vec![ci],
                }),
            }
        }
        jobs.sort_unstable_by_key(|j| j.id);
        Observation { now, coflows, jobs }
    }

    fn coflow_obs(id: usize, job: usize, stage: usize, bytes: f64) -> gurita_sim::sched::CoflowObs {
        gurita_sim::sched::CoflowObs {
            id: CoflowId(id),
            job: JobId(job),
            dag_vertex: stage,
            dag_stage: stage,
            activated_at: 0.0,
            open_flows: 1,
            bytes_received: bytes,
            max_flow_bytes_received: bytes,
            flows: vec![],
        }
    }

    #[test]
    fn completion_hooks_clean_state() {
        let mut g = GuritaScheduler::new(config());
        let jobs = HashMap::new();
        let rem = |_| None;
        let size = |_| None;
        let oracle = Oracle::new(&jobs, &rem, &size);
        g.assign(&obs_of(0.5, vec![coflow_obs(5, 2, 0, 3.0)]), &oracle);
        assert_eq!((g.tracked_coflows(), g.tracked_jobs()), (1, 0));
        g.on_coflow_completed(CoflowId(5), JobId(2), 1.0);
        assert_eq!(g.tracked_coflows(), 0);
        assert_eq!(g.ava(JobId(2)).map(AvaEstimator::count), Some(1));
        g.on_job_completed(JobId(2), 2.0);
        assert_eq!(g.tracked_jobs(), 0);
    }

    /// A coflow missing from one observation (its host's report was
    /// lost) keeps its decision state for when it reappears.
    #[test]
    fn absent_coflow_keeps_its_memo() {
        let mut g = GuritaScheduler::new(config());
        let jobs = HashMap::new();
        let rem = |_| None;
        let size = |_| None;
        let oracle = Oracle::new(&jobs, &rem, &size);
        g.assign(
            &obs_of(
                0.1,
                vec![coflow_obs(1, 1, 0, 1.0), coflow_obs(2, 2, 0, 2.0)],
            ),
            &oracle,
        );
        g.assign(&obs_of(0.2, vec![coflow_obs(2, 2, 0, 3.0)]), &oracle);
        assert_eq!(g.tracked_coflows(), 2);
        g.on_coflow_completed(CoflowId(1), JobId(1), 0.3);
        assert_eq!(g.ava(JobId(1)).map(AvaEstimator::count), Some(1));
        assert_eq!(g.tracked_coflows(), 1);
    }

    /// The pre-memo implementation, kept verbatim as a test oracle: one
    /// `HashMap` per piece of per-coflow state and a `(job, stage)` map
    /// for Ψ_J(s).
    struct HashMapGurita {
        config: GuritaConfig,
        ladder: ThresholdLadder,
        ava: HashMap<JobId, AvaEstimator>,
        last_lmax: HashMap<CoflowId, f64>,
        last_bytes: HashMap<CoflowId, (f64, usize)>,
        decisions: HashMap<CoflowId, DelayedDecision>,
        loads: LoadEstimator,
    }

    impl HashMapGurita {
        fn new(config: GuritaConfig) -> Self {
            let ladder = ThresholdLadder::exponential(
                config.num_queues,
                config.threshold_base,
                config.threshold_factor,
            );
            let loads = LoadEstimator::new(
                config.num_queues,
                config.load_alpha,
                config.reference_capacity,
            );
            Self {
                config,
                ladder,
                ava: HashMap::new(),
                last_lmax: HashMap::new(),
                last_bytes: HashMap::new(),
                decisions: HashMap::new(),
                loads,
            }
        }

        fn critical_flags(&self, obs: &Observation) -> Vec<bool> {
            let mut flags = vec![false; obs.coflows.len()];
            for job in &obs.jobs {
                let Some(ava) = self.ava.get(&job.id) else {
                    continue;
                };
                let mut candidates: Vec<(usize, f64)> = job
                    .active_coflows
                    .iter()
                    .map(|&ci| (ci, obs.coflows[ci].max_flow_bytes_received))
                    .filter(|&(_, lmax)| ava.is_above_mean(lmax))
                    .collect();
                candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
                for &(ci, _) in candidates.iter().take(self.config.critical_path_cap) {
                    flags[ci] = true;
                }
            }
            flags
        }

        fn assign(&mut self, obs: &Observation) -> Vec<usize> {
            let flags = self.critical_flags(obs);
            let psis: Vec<f64> = obs
                .coflows
                .iter()
                .zip(&flags)
                .map(|(c, &cp)| {
                    let facts = CoflowFacts {
                        l_max: c.max_flow_bytes_received,
                        l_avg: c.avg_flow_bytes_received(),
                        width: c.open_flows,
                        completed_stages: c.dag_stage,
                        total_stages: None,
                        on_critical_path: cp,
                    };
                    coflow_blocking_effect(&facts, &self.config.blocking)
                })
                .collect();
            let mut stage_sum: HashMap<(JobId, usize), f64> = HashMap::new();
            for (c, &psi) in obs.coflows.iter().zip(&psis) {
                *stage_sum.entry((c.job, c.dag_stage)).or_insert(0.0) += psi;
            }
            let mut assignment = Vec::with_capacity(obs.coflows.len());
            let mut queue_bytes = vec![0.0; self.config.num_queues];
            let latency = self.config.decision_latency;
            for c in &obs.coflows {
                let psi_js = stage_sum[&(c.job, c.dag_stage)];
                let target = self.ladder.queue_for(psi_js);
                let queue = self
                    .decisions
                    .entry(c.id)
                    .or_insert_with(|| DelayedDecision::new(0))
                    .decide(obs.now, latency, target);
                assignment.push(queue);
                let (prev_bytes, prev_queue) =
                    self.last_bytes.get(&c.id).copied().unwrap_or((0.0, queue));
                queue_bytes[prev_queue] += (c.bytes_received - prev_bytes).max(0.0);
                self.last_bytes.insert(c.id, (c.bytes_received, queue));
                self.last_lmax.insert(c.id, c.max_flow_bytes_received);
            }
            self.loads.record(obs.now, &queue_bytes);
            assignment
        }

        fn queue_policy(&mut self) -> QueuePolicy {
            if self.config.starvation_mitigation {
                QueuePolicy::Weighted(wrr_weights(&self.loads.loads()))
            } else {
                QueuePolicy::Strict
            }
        }

        fn on_coflow_completed(&mut self, coflow: CoflowId, job: JobId) {
            if let Some(lmax) = self.last_lmax.remove(&coflow) {
                self.ava.entry(job).or_default().observe(lmax);
            }
            self.last_bytes.remove(&coflow);
            self.decisions.remove(&coflow);
        }

        fn on_job_completed(&mut self, job: JobId) {
            self.ava.remove(&job);
        }
    }

    fn policy_bits(p: &QueuePolicy) -> Option<Vec<u64>> {
        match p {
            QueuePolicy::Strict => None,
            QueuePolicy::Weighted(w) => Some(w.iter().map(|x| x.to_bits()).collect()),
        }
    }

    /// A live coflow of the differential test's toy cluster.
    struct Live {
        id: usize,
        job: usize,
        stage: usize,
        width: usize,
        bytes: f64,
        lmax: f64,
        /// Missing from the observation (e.g. its host's report lost).
        hidden: bool,
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The memo walk decides exactly like the `HashMap` original over
        /// random observation sequences: coflows appear (several stages
        /// per job, some first seen after higher ids), grow, hide and
        /// reappear, complete (with hooks), or vanish without a hook
        /// (cancelled ids). Queues and the WRR weights' bits must agree
        /// after every step.
        #[test]
        fn memo_walk_matches_hashmap_original(
            steps in proptest::prelude::prop::collection::vec(
                ((0usize..6, 0usize..5), 0usize..3, 1usize..6, 0.0f64..4.0e7),
                1..60,
            ),
            num_queues in 1usize..=6,
            latency_ms in 0usize..3,
            starvation in 0usize..2,
        ) {
            let cfg = GuritaConfig {
                num_queues,
                decision_latency: latency_ms as f64 * 1e-3,
                starvation_mitigation: starvation == 1,
                ..config()
            };
            let mut memo = GuritaScheduler::new(cfg.clone());
            let mut reference = HashMapGurita::new(cfg);
            let jobs = HashMap::new();
            let rem = |_| None;
            let size = |_| None;
            let oracle = Oracle::new(&jobs, &rem, &size);
            let mut live: Vec<Live> = Vec::new();
            let mut next_id = 0;
            for (t, &((op, job), stage, width, bytes)) in steps.iter().enumerate() {
                let now = t as f64 * 1e-3;
                let pick = if live.is_empty() { None } else { Some(job * 7 % live.len()) };
                match (op, pick) {
                    // A new coflow (activation order = id order); op 1
                    // starts it hidden, so it first shows up after
                    // coflows with higher ids.
                    (0 | 1, _) | (_, None) => {
                        live.push(Live {
                            id: next_id,
                            job,
                            stage,
                            width,
                            bytes: 0.0,
                            lmax: 0.0,
                            hidden: op == 1,
                        });
                        next_id += 1;
                    }
                    // Completion through the hooks; the job completes
                    // with its last live coflow.
                    (2, Some(i)) => {
                        let c = live.remove(i);
                        memo.on_coflow_completed(CoflowId(c.id), JobId(c.job), now);
                        reference.on_coflow_completed(CoflowId(c.id), JobId(c.job));
                        if live.iter().all(|l| l.job != c.job) {
                            memo.on_job_completed(JobId(c.job), now);
                            reference.on_job_completed(JobId(c.job));
                        }
                    }
                    // Vanishes without a hook (a cancelled id).
                    (3, Some(i)) => {
                        live.remove(i);
                    }
                    // Drops out of (or comes back into) the view.
                    (4, Some(i)) => live[i].hidden = !live[i].hidden,
                    (_, Some(_)) => {}
                }
                for (k, c) in live.iter_mut().enumerate() {
                    let grow = bytes * ((k + t) % 3) as f64 / 3.0;
                    c.bytes += grow;
                    c.lmax = c.lmax.max(grow);
                }
                let coflows = live
                    .iter()
                    .filter(|c| !c.hidden)
                    .map(|c| gurita_sim::sched::CoflowObs {
                        open_flows: c.width,
                        max_flow_bytes_received: c.lmax,
                        ..coflow_obs(c.id, c.job, c.stage, c.bytes)
                    })
                    .collect();
                let obs = obs_of(now, coflows);
                let got = memo.assign(&obs, &oracle);
                let want = reference.assign(&obs);
                proptest::prop_assert_eq!(&got, &want, "step {}", t);
                proptest::prop_assert_eq!(
                    policy_bits(&memo.queue_policy(&Observation::default())),
                    policy_bits(&reference.queue_policy()),
                    "step {}", t
                );
            }
        }
    }
}
