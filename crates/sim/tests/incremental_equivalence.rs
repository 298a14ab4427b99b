//! Property test: component-incremental rate recomputation must agree
//! with the from-scratch full pass (`SimConfig::force_full_recompute`)
//! on every completion time — under strict-priority and
//! weighted-round-robin queue policies (fixed weights, and weights that
//! change between recomputes, which make the engine's reweighted
//! passes), and across fault-overlay capacity changes (brownouts,
//! degradations, hard failures) injected mid-run.
//!
//! Since PR 9 the two modes share one canonical allocation shape — one
//! waterfill call per connected flow↔link component, whether the pass
//! re-waterfills everything or only the dirty components — so each
//! component's demand set is identical in both modes and the agreement
//! is **bitwise**: the old merged full pass (whose EPS-slack
//! stale-candidate recheck coupled freeze order across components at
//! exact floating-point ties, bounding agreement at ~1e-9 relative) is
//! gone. `check_equivalent` asserts exact equality accordingly; the
//! relative form is kept for the error messages' readability.

use gurita_model::{
    units::{GBPS_10, MB},
    CoflowSpec, FlowSpec, HostId, JobDag, JobSpec,
};
use gurita_sim::faults::{FaultEvent, FaultSchedule};
use gurita_sim::runtime::{SimConfig, Simulation};
use gurita_sim::sched::{Assignment, FifoScheduler, Observation, Oracle, QueuePolicy, Scheduler};
use gurita_sim::stats::RunResult;
use gurita_sim::topology::{Fabric, FatTree, LinkId};
use proptest::prelude::*;

const PODS: usize = 4;
const HOSTS: usize = 16; // k=4 fat-tree: k^3/4 hosts.

/// Minimal WRR scheduler: spreads coflows across queues round-robin and
/// serves them with fixed weights, so runs exercise the
/// `Discipline::WeightedRoundRobin` allocator path.
struct WrrScheduler {
    queues: usize,
}

impl Scheduler for WrrScheduler {
    fn name(&self) -> String {
        "wrr-test".to_owned()
    }

    fn num_queues(&self) -> usize {
        self.queues
    }

    fn assign(&mut self, obs: &Observation, _oracle: &Oracle<'_>) -> Assignment {
        obs.coflows
            .iter()
            .map(|c| (c.job.index() + c.dag_vertex) % self.queues)
            .collect()
    }

    fn queue_policy(&mut self, _obs: &Observation) -> QueuePolicy {
        QueuePolicy::Weighted(vec![8.0, 4.0, 2.0, 1.0])
    }
}

/// WRR scheduler whose weights move between `queue_policy` calls, the
/// way Gurita's load-derived starvation weights do: every other call
/// shifts them, so runs mix reweighted passes (weights changed) with
/// plain incremental ones (weights unchanged).
struct LiveWrrScheduler {
    inner: WrrScheduler,
    calls: usize,
}

impl Scheduler for LiveWrrScheduler {
    fn name(&self) -> String {
        "live-wrr-test".to_owned()
    }

    fn num_queues(&self) -> usize {
        self.inner.num_queues()
    }

    fn assign(&mut self, obs: &Observation, oracle: &Oracle<'_>) -> Assignment {
        self.inner.assign(obs, oracle)
    }

    fn queue_policy(&mut self, _obs: &Observation) -> QueuePolicy {
        let k = (self.calls / 2 % 5) as f64;
        self.calls += 1;
        QueuePolicy::Weighted(vec![1.0 + k, 3.0 / (1.0 + k), 0.5 + 0.3 * k, 0.7])
    }
}

/// Queue policy under test.
#[derive(Clone, Copy)]
enum Policy {
    Fifo,
    Wrr,
    LiveWrr,
}

/// One drawn job: arrival plus a chain of single-flow stages.
type JobDraw = (f64, Vec<(usize, usize, f64)>);

fn build_jobs(draws: &[JobDraw]) -> Vec<JobSpec> {
    draws
        .iter()
        .enumerate()
        .map(|(i, (arrival, flows))| {
            let coflows: Vec<CoflowSpec> = flows
                .iter()
                .map(|&(src, dst, mb)| {
                    let dst = if dst == src { (dst + 1) % HOSTS } else { dst };
                    CoflowSpec::new(vec![FlowSpec::new(HostId(src), HostId(dst), mb * MB)])
                })
                .collect();
            let dag = JobDag::chain(coflows.len()).expect("non-empty chain");
            JobSpec::new(i, *arrival, coflows, dag).expect("valid job")
        })
        .collect()
}

/// A fault script around `start`: a host brownout with recovery, one
/// degraded host-facing link, and a hard NIC-link failure that later
/// recovers (exercising reroute/park/resume on top of scale changes).
fn build_faults(start: f64, factor: f64, host: usize) -> FaultSchedule {
    let mut faults = FaultSchedule::new();
    faults
        .push(
            start,
            FaultEvent::BrownoutHost {
                host: HostId(host),
                factor,
            },
        )
        .push(
            start + 0.1,
            FaultEvent::FailLink {
                link: LinkId(HOSTS + host),
            },
        )
        .push(
            start + 0.3,
            FaultEvent::DegradeLink {
                link: LinkId((host + 1) % HOSTS),
                factor,
            },
        )
        .push(
            start + 0.8,
            FaultEvent::RecoverLink {
                link: LinkId(HOSTS + host),
            },
        )
        .push(start + 1.0, FaultEvent::RestoreHost { host: HostId(host) })
        .push(
            start + 1.3,
            FaultEvent::RestoreLink {
                link: LinkId((host + 1) % HOSTS),
            },
        );
    faults
}

/// Link capacity of the default fabric; flows finish within
/// milliseconds, so jobs rarely overlap.
const FAST: f64 = GBPS_10;
/// A slow fabric on which the drawn flows last 0.1–2 s, so jobs in
/// different queues share links and the mid-run faults hit live flows.
const SLOW: f64 = 2.0 * MB;

fn run_one(
    jobs: &[JobSpec],
    faults: &FaultSchedule,
    policy: Policy,
    capacity: f64,
    full: bool,
) -> RunResult {
    let fabric = FatTree::with_capacity(PODS, capacity).expect("valid pod count");
    assert_eq!(fabric.num_hosts(), HOSTS);
    let mut sim = Simulation::new(
        fabric,
        SimConfig {
            force_full_recompute: full,
            ..SimConfig::default()
        },
    );
    match policy {
        Policy::Fifo => sim.run_with_faults(jobs.to_vec(), &mut FifoScheduler::new(4), faults),
        Policy::Wrr => sim.run_with_faults(jobs.to_vec(), &mut WrrScheduler { queues: 4 }, faults),
        Policy::LiveWrr => sim.run_with_faults(
            jobs.to_vec(),
            &mut LiveWrrScheduler {
                inner: WrrScheduler { queues: 4 },
                calls: 0,
            },
            faults,
        ),
    }
}

fn rel_close(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Asserts the two runs completed the same jobs/coflows at bit-for-bit
/// equal times. Returns an error message for `prop_assert!`-style
/// reporting.
fn check_equivalent(inc: &RunResult, full: &RunResult) -> Result<(), String> {
    if inc.jobs.len() != full.jobs.len() || inc.coflows.len() != full.coflows.len() {
        return Err(format!(
            "completion counts diverged: {}/{} jobs, {}/{} coflows",
            inc.jobs.len(),
            full.jobs.len(),
            inc.coflows.len(),
            full.coflows.len()
        ));
    }
    let mut inc_jobs = inc.jobs.clone();
    let mut full_jobs = full.jobs.clone();
    inc_jobs.sort_by_key(|j| j.id.index());
    full_jobs.sort_by_key(|j| j.id.index());
    for (a, b) in inc_jobs.iter().zip(&full_jobs) {
        if a.id != b.id || !rel_close(a.jct, b.jct) || !rel_close(a.completed_at, b.completed_at) {
            return Err(format!(
                "job {:?} diverged: jct {} vs {}, completed {} vs {}",
                a.id, a.jct, b.jct, a.completed_at, b.completed_at
            ));
        }
    }
    let mut inc_cf = inc.coflows.clone();
    let mut full_cf = full.coflows.clone();
    inc_cf.sort_by_key(|c| (c.job.index(), c.dag_vertex));
    full_cf.sort_by_key(|c| (c.job.index(), c.dag_vertex));
    for (a, b) in inc_cf.iter().zip(&full_cf) {
        if a.job != b.job
            || a.dag_vertex != b.dag_vertex
            || !rel_close(a.cct(), b.cct())
            || !rel_close(a.completed_at, b.completed_at)
        {
            return Err(format!(
                "coflow {:?}/{} diverged: cct {} vs {}",
                a.job,
                a.dag_vertex,
                a.cct(),
                b.cct()
            ));
        }
    }
    if !rel_close(inc.makespan, full.makespan) {
        return Err(format!(
            "makespan diverged: {} vs {}",
            inc.makespan, full.makespan
        ));
    }
    Ok(())
}

/// A multi-queue component that no event touches for many weight
/// changes: two long flows in queues 0 and 1 share host 0's links,
/// while short single-queue jobs arrive and complete elsewhere in the
/// fabric. The plain incremental passes between weight changes never
/// reach the long flows' component, so the reweighted passes re-fill it
/// only because the engine remembers it as multi-queue across those
/// passes; forgetting it would leave its rates at stale weights.
#[test]
fn untouched_multi_queue_component_follows_every_weight_change() {
    let mut draws: Vec<JobDraw> = vec![(0.0, vec![(0, 1, 16.0)]), (0.0, vec![(0, 1, 16.0)])];
    draws.extend((1..=8).map(|i| (0.5 * i as f64, vec![(8, 9, 0.4)])));
    let jobs = build_jobs(&draws);
    let faults = FaultSchedule::new();
    let inc = run_one(&jobs, &faults, Policy::LiveWrr, SLOW, false);
    let full = run_one(&jobs, &faults, Policy::LiveWrr, SLOW, true);
    if let Err(e) = check_equivalent(&inc, &full) {
        panic!("{e}");
    }
    // The long flows outlive every short job: their component stays
    // untouched across all of the short jobs' passes.
    let done = |id: usize| {
        inc.jobs
            .iter()
            .find(|j| j.id.index() == id)
            .expect("job completed")
            .completed_at
    };
    let short_last = (2..draws.len()).map(done).fold(0.0, f64::max);
    assert!(short_last < done(0).min(done(1)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn incremental_matches_full_under_spq(
        draws in prop::collection::vec(
            (0.0f64..1.5, prop::collection::vec((0..HOSTS, 0..HOSTS, 0.2f64..4.0), 1..=3)),
            2..=6,
        ),
        start in 0.1f64..2.0,
        factor in 0.2f64..0.9,
        host in 0..HOSTS,
    ) {
        let jobs = build_jobs(&draws);
        let faults = build_faults(start, factor, host);
        let inc = run_one(&jobs, &faults, Policy::Fifo, FAST, false);
        let full = run_one(&jobs, &faults, Policy::Fifo, FAST, true);
        prop_assert!(
            check_equivalent(&inc, &full).is_ok(),
            "{}",
            check_equivalent(&inc, &full).unwrap_err()
        );
    }

    #[test]
    fn incremental_matches_full_under_wrr(
        draws in prop::collection::vec(
            (0.0f64..1.5, prop::collection::vec((0..HOSTS, 0..HOSTS, 0.2f64..4.0), 1..=3)),
            2..=6,
        ),
        start in 0.1f64..2.0,
        factor in 0.2f64..0.9,
        host in 0..HOSTS,
    ) {
        let jobs = build_jobs(&draws);
        let faults = build_faults(start, factor, host);
        let inc = run_one(&jobs, &faults, Policy::Wrr, FAST, false);
        let full = run_one(&jobs, &faults, Policy::Wrr, FAST, true);
        prop_assert!(
            check_equivalent(&inc, &full).is_ok(),
            "{}",
            check_equivalent(&inc, &full).unwrap_err()
        );
    }

    #[test]
    fn incremental_matches_full_under_live_wrr_weights(
        draws in prop::collection::vec(
            (0.0f64..1.5, prop::collection::vec((0..HOSTS, 0..HOSTS, 0.2f64..4.0), 1..=3)),
            2..=6,
        ),
        start in 0.1f64..2.0,
        factor in 0.2f64..0.9,
        host in 0..HOSTS,
    ) {
        let jobs = build_jobs(&draws);
        let faults = build_faults(start, factor, host);
        let inc = run_one(&jobs, &faults, Policy::LiveWrr, SLOW, false);
        let full = run_one(&jobs, &faults, Policy::LiveWrr, SLOW, true);
        prop_assert!(
            check_equivalent(&inc, &full).is_ok(),
            "{}",
            check_equivalent(&inc, &full).unwrap_err()
        );
    }

    #[test]
    fn incremental_matches_full_without_faults(
        draws in prop::collection::vec(
            (0.0f64..1.5, prop::collection::vec((0..HOSTS, 0..HOSTS, 0.2f64..4.0), 1..=3)),
            2..=6,
        ),
    ) {
        let jobs = build_jobs(&draws);
        let faults = FaultSchedule::new();
        let inc = run_one(&jobs, &faults, Policy::Fifo, FAST, false);
        let full = run_one(&jobs, &faults, Policy::Fifo, FAST, true);
        prop_assert!(
            check_equivalent(&inc, &full).is_ok(),
            "{}",
            check_equivalent(&inc, &full).unwrap_err()
        );
    }
}
