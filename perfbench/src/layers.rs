//! Bench-owned wrappers that observe one layer each from outside,
//! through the layer's public trait: the fabric (`topology`), the
//! control plane (`control`) and the telemetry sink (`bandwidth`,
//! `telemetry`). Every wrapper forwards each call unchanged, so a
//! wrapped run must produce the bit-for-bit result of a plain one (the
//! benchmark checks this).

use crate::stats::PolicyTracker;
use crate::trace::Tracer;
use gurita_model::{CoflowId, HostId, JobId};
use gurita_sim::control::{
    ControlEffects, ControlInput, ControlOutput, ControlPlane, PriorityTable,
};
use gurita_sim::faults::{ControlFaultEvent, ControlFaults};
use gurita_sim::sched::QueuePolicy;
use gurita_sim::stats::ControlResilience;
use gurita_sim::telemetry::{EpochSample, TelemetrySink, TraceRecord};
use gurita_sim::topology::{Fabric, LinkId, PathArena, PathRef};
use gurita_sim::SimError;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fabric that counts route lookups (timed as `topology.path` spans)
/// and link-capacity reads (counted only: the allocator reads them in
/// its inner loop, so they measure waterfill link work).
#[derive(Debug)]
pub struct CountingFabric<'a, F: Fabric> {
    inner: &'a F,
    tracer: &'a Tracer,
    /// Route lookups (`path` + `path_ref`).
    pub path_calls: AtomicU64,
    /// `link_capacity` reads.
    pub link_capacity_calls: AtomicU64,
}

impl<'a, F: Fabric> CountingFabric<'a, F> {
    /// Wraps `inner`, recording route-lookup spans into `tracer`.
    pub fn new(inner: &'a F, tracer: &'a Tracer) -> Self {
        Self {
            inner,
            tracer,
            path_calls: AtomicU64::new(0),
            link_capacity_calls: AtomicU64::new(0),
        }
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        self.path_calls.fetch_add(1, Ordering::Relaxed);
        self.tracer.span("topology.path", None, f)
    }
}

impl<F: Fabric> Fabric for CountingFabric<'_, F> {
    fn num_hosts(&self) -> usize {
        self.inner.num_hosts()
    }

    fn num_links(&self) -> usize {
        self.inner.num_links()
    }

    fn link_capacity(&self, l: LinkId) -> f64 {
        self.link_capacity_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.link_capacity(l)
    }

    fn path(&self, src: HostId, dst: HostId, salt: u64) -> Result<Vec<LinkId>, SimError> {
        self.timed(|| self.inner.path(src, dst, salt))
    }

    fn path_ref(
        &self,
        src: HostId,
        dst: HostId,
        salt: u64,
        arena: &mut PathArena,
    ) -> Result<PathRef, SimError> {
        self.timed(|| self.inner.path_ref(src, dst, salt, arena))
    }
}

/// A control plane that times `decide` (as `control.decide` spans) and
/// tracks how often `queue_policy()` changes its answer.
pub struct TimedPlane<'a> {
    inner: Box<dyn ControlPlane>,
    tracer: &'a Tracer,
    /// `decide` calls.
    pub decide_calls: u64,
    /// `queue_policy()` results and their changes.
    pub policy: PolicyTracker,
}

impl<'a> TimedPlane<'a> {
    /// Wraps `inner`, recording decide spans into `tracer`.
    pub fn new(inner: Box<dyn ControlPlane>, tracer: &'a Tracer) -> Self {
        Self {
            inner,
            tracer,
            decide_calls: 0,
            policy: PolicyTracker::default(),
        }
    }
}

impl ControlPlane for TimedPlane<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn num_queues(&self) -> usize {
        self.inner.num_queues()
    }

    fn reprioritizes_live_flows(&self) -> bool {
        self.inner.reprioritizes_live_flows()
    }

    fn needs_local_views(&self) -> bool {
        self.inner.needs_local_views()
    }

    fn decide(&mut self, input: ControlInput<'_>) -> ControlOutput {
        self.decide_calls += 1;
        let inner = &mut self.inner;
        self.tracer
            .span("control.decide", None, || inner.decide(input))
    }

    fn deliver(&mut self, token: u64) -> Option<PriorityTable> {
        self.inner.deliver(token)
    }

    fn queue_policy(&mut self) -> QueuePolicy {
        let p = self.inner.queue_policy();
        self.policy.observe(&p);
        p
    }

    fn pending_updates(&self) -> usize {
        self.inner.pending_updates()
    }

    fn arm_control_faults(&mut self, faults: &ControlFaults) {
        self.inner.arm_control_faults(faults);
    }

    fn on_timer(&mut self, token: u64, now: f64) -> ControlEffects {
        self.inner.on_timer(token, now)
    }

    fn control_fault(&mut self, event: &ControlFaultEvent, now: f64) -> Vec<TraceRecord> {
        self.inner.control_fault(event, now)
    }

    fn resilience(&self, now: f64) -> Option<ControlResilience> {
        self.inner.resilience(now)
    }

    fn on_coflow_completed(&mut self, coflow: CoflowId, job: JobId, now: f64) {
        self.inner.on_coflow_completed(coflow, job, now);
    }

    fn on_job_completed(&mut self, job: JobId, now: f64) {
        self.inner.on_job_completed(job, now);
    }
}

/// A telemetry sink that keeps only the allocator's epoch counters.
///
/// The engine's cumulative pass counters arrive in every
/// [`EpochSample`]; the per-epoch waterfill count only describes the
/// most recent recompute, so it is summed over samples whose cumulative
/// pass count moved by exactly one (the benchmark samples after every
/// event). Epochs that shared a sample are counted in
/// `unsampled_epochs` rather than guessed.
#[derive(Debug, Default)]
pub struct EpochCounters {
    /// Records received, of any kind.
    pub records: u64,
    /// The latest epoch sample.
    pub last: EpochSample,
    /// Waterfill passes summed over sampled recompute epochs.
    pub waterfill_passes: u64,
    /// Recompute epochs whose waterfill count no sample isolated.
    pub unsampled_epochs: u64,
}

impl TelemetrySink for EpochCounters {
    fn record(&mut self, rec: &TraceRecord) {
        self.records += 1;
        if let TraceRecord::Epoch(s) = rec {
            let passes = |e: &EpochSample| e.alloc_full_passes + e.alloc_incremental_passes;
            match passes(s) - passes(&self.last) {
                0 => {}
                1 => self.waterfill_passes += s.alloc_waterfill_passes,
                n => {
                    self.waterfill_passes += s.alloc_waterfill_passes;
                    self.unsampled_epochs += n - 1;
                }
            }
            self.last = s.clone();
        }
    }
}
