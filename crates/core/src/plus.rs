//! GuritaPlus: the idealized Gurita with information ahead of time.
//!
//! The paper's Figure 8 oracle: "an enhanced version … where information
//! on the total amount of bytes sent per stage is available and job
//! priority can be adjusted spontaneously without concerning TCP out of
//! order problem. GuritaPlus determines the blocking effect per stage by
//! utilizing total in-flight bytes sent per stage."
//!
//! Differences from the deployable [`crate::scheduler::GuritaScheduler`]:
//!
//! * Ψ uses **exact** per-flow remaining (in-flight-unsent) bytes from
//!   the oracle instead of receiver-side byte counts;
//! * ω uses the **exact** total stage count of the job (`1 − s/s_total`);
//! * Rule 4 uses the **exact** critical path of the job DAG (weights
//!   `L_max/r`) instead of the AVA estimate;
//! * live flows may be re-prioritized in both directions (no TCP
//!   reordering concern in the idealized setting).

use crate::blocking::{coflow_blocking_effect, CoflowFacts};
use crate::scheduler::{stage_sums, GuritaConfig};
use crate::thresholds::ThresholdLadder;
use gurita_model::JobId;
use gurita_sim::sched::{Observation, Oracle, QueuePolicy, Scheduler};
use std::collections::HashMap;

/// The clairvoyant Gurita variant. See the module docs.
#[derive(Debug)]
pub struct GuritaPlus {
    config: GuritaConfig,
    ladder: ThresholdLadder,
    /// Exact critical-vertex sets per job, computed once from the DAG.
    critical: HashMap<JobId, Vec<bool>>,
}

impl GuritaPlus {
    /// Creates the scheduler. GuritaPlus shares [`GuritaConfig`] with
    /// the deployable scheduler so that Figure 8 compares the two under
    /// identical thresholds; the starvation-mitigation and load-
    /// estimation fields are ignored (GuritaPlus runs plain SPQ, as the
    /// idealized comparison in the paper does).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: GuritaConfig) -> Self {
        config.validate();
        let ladder = ThresholdLadder::exponential(
            config.num_queues,
            config.threshold_base,
            config.threshold_factor,
        );
        Self {
            config,
            ladder,
            critical: HashMap::new(),
        }
    }

    /// The scheduler's configuration.
    pub fn config(&self) -> &GuritaConfig {
        &self.config
    }

    fn critical_vertices(&mut self, job: JobId, oracle: &Oracle<'_>) -> Vec<bool> {
        if let Some(v) = self.critical.get(&job) {
            return v.clone();
        }
        let flags = match oracle.job_spec(job) {
            Some(spec) => {
                let weights: Vec<f64> = spec.coflows().iter().map(|c| c.max_flow_bytes()).collect();
                let critical = spec.dag().critical_vertices(&weights);
                let mut flags = vec![false; spec.dag().num_vertices()];
                for v in critical {
                    flags[v] = true;
                }
                flags
            }
            None => Vec::new(),
        };
        self.critical.insert(job, flags.clone());
        flags
    }
}

impl Scheduler for GuritaPlus {
    fn name(&self) -> String {
        "gurita+".to_owned()
    }

    fn num_queues(&self) -> usize {
        self.config.num_queues
    }

    fn reprioritizes_live_flows(&self) -> bool {
        true
    }

    fn queue_policy(&mut self, _obs: &Observation) -> QueuePolicy {
        QueuePolicy::Strict
    }

    fn assign(&mut self, obs: &Observation, oracle: &Oracle<'_>) -> Vec<usize> {
        // Per-coflow Ψ from exact in-flight (remaining) bytes.
        let mut psis = Vec::with_capacity(obs.coflows.len());
        for c in &obs.coflows {
            let critical = self.critical_vertices(c.job, oracle);
            let spec = oracle.job_spec(c.job);
            let total_stages = spec.map(|s| s.num_stages());
            let (l_max, l_sum, n_open) = c
                .flows
                .iter()
                .filter(|f| f.open)
                .map(|f| oracle.remaining_bytes(f.id).unwrap_or(0.0))
                .fold((0.0f64, 0.0f64, 0usize), |(mx, sum, n), r| {
                    (mx.max(r), sum + r, n + 1)
                });
            let l_avg = if n_open > 0 {
                l_sum / n_open as f64
            } else {
                0.0
            };
            let facts = CoflowFacts {
                l_max,
                l_avg,
                width: n_open,
                completed_stages: c.dag_stage,
                total_stages,
                on_critical_path: critical.get(c.dag_vertex).copied().unwrap_or(false),
            };
            psis.push(coflow_blocking_effect(&facts, &self.config.blocking));
        }
        // Aggregate Ψ_J(s) exactly as the deployable scheduler does.
        let mut psi_js = Vec::with_capacity(psis.len());
        stage_sums(obs, &psis, &mut Vec::new(), &mut psi_js);
        psi_js.iter().map(|&p| self.ladder.queue_for(p)).collect()
    }

    fn on_job_completed(&mut self, job: JobId, _now: f64) {
        self.critical.remove(&job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gurita_model::{units::MB, CoflowSpec, FlowSpec, HostId, JobDag, JobSpec};
    use gurita_sim::runtime::{SimConfig, Simulation};
    use gurita_sim::topology::BigSwitch;

    fn config() -> GuritaConfig {
        GuritaConfig {
            threshold_base: 1.0e6,
            threshold_factor: 10.0,
            reference_capacity: MB,
            ..GuritaConfig::default()
        }
    }

    fn sim() -> Simulation<BigSwitch> {
        Simulation::new(
            BigSwitch::new(16, MB),
            SimConfig {
                tick_interval: 0.05,
                ..SimConfig::default()
            },
        )
    }

    #[test]
    fn oracle_variant_runs_and_reprioritizes() {
        let g = GuritaPlus::new(config());
        assert!(g.reprioritizes_live_flows());
        assert_eq!(g.name(), "gurita+");
    }

    #[test]
    fn completes_multi_stage_jobs() {
        let jobs: Vec<JobSpec> = (0..4)
            .map(|i| {
                JobSpec::new(
                    i,
                    0.0,
                    vec![
                        CoflowSpec::new(vec![FlowSpec::new(
                            HostId(i),
                            HostId(12),
                            (1 + i) as f64 * MB,
                        )]),
                        CoflowSpec::new(vec![FlowSpec::new(HostId(12), HostId(13 + (i % 2)), MB)]),
                    ],
                    JobDag::chain(2).unwrap(),
                )
                .unwrap()
            })
            .collect();
        let mut plus = GuritaPlus::new(config());
        let res = sim().run(jobs, &mut plus);
        assert_eq!(res.jobs.len(), 4);
        assert!(res.avg_jct() > 0.0);
    }

    #[test]
    fn mouse_beats_elephant_with_exact_info() {
        let elephant = JobSpec::new(
            0,
            0.0,
            vec![CoflowSpec::new(vec![FlowSpec::new(
                HostId(0),
                HostId(9),
                100.0 * MB,
            )])],
            JobDag::chain(1).unwrap(),
        )
        .unwrap();
        let mouse = JobSpec::new(
            1,
            0.0,
            vec![CoflowSpec::new(vec![FlowSpec::new(
                HostId(1),
                HostId(9),
                1.0 * MB,
            )])],
            JobDag::chain(1).unwrap(),
        )
        .unwrap();
        let mut plus = GuritaPlus::new(config());
        let res = sim().run(vec![elephant, mouse], &mut plus);
        let mouse_jct = res
            .jobs
            .iter()
            .find(|j| j.id == gurita_model::JobId(1))
            .unwrap()
            .jct;
        // Exact information demotes the elephant from the first instant.
        assert!(mouse_jct < 1.2, "mouse took {mouse_jct}");
    }

    #[test]
    fn critical_vertex_cache_is_evicted_on_completion() {
        let mut plus = GuritaPlus::new(config());
        plus.critical.insert(JobId(3), vec![true]);
        plus.on_job_completed(JobId(3), 0.0);
        assert!(plus.critical.is_empty());
    }
}
