//! The benchmark's own arithmetic: order statistics, the tail-percentile
//! rule, self time from overlapping child spans, open-loop latency
//! accounting and the queue-policy change counter.

use gurita_sim::sched::QueuePolicy;

/// The value at quantile `q` (0..=1) of `xs`, by linear interpolation
/// between closest ranks. `xs` need not be sorted. Returns `NaN` for an
/// empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs` (`NaN` when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Percentile ladder the tail rule chooses from, highest last.
const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// samples beyond it out of `n`: a tail figure backed by fewer than ten
/// observations is noise. `None` when even the median lacks ten samples
/// above it (`n < 20`).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// A time interval `[start, end)` in nanoseconds.
pub type Interval = (u64, u64);

/// Self time of a parent span: its duration minus the part of it that
/// the children cover. Children may overlap each other and may stick
/// out of the parent; only the union of their clipped extents counts.
pub fn self_time(parent: Interval, children: &[Interval]) -> u64 {
    let (ps, pe) = parent;
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<Interval> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    pe.saturating_sub(ps) - covered
}

/// One open-loop request: when it was due, when the generator actually
/// sent it, and when its reply arrived (seconds on one clock).
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopSample {
    /// Scheduled send time.
    pub due: f64,
    /// Actual send time.
    pub sent: f64,
    /// Reply time.
    pub acked: f64,
}

impl OpenLoopSample {
    /// Latency as the user sees it: from when the request was due, so
    /// a stall also charges the wait it imposed on later requests.
    pub fn latency(&self) -> f64 {
        self.acked - self.due
    }

    /// How late the generator sent the request (never negative).
    pub fn lateness(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }

    /// Round trip of the request itself, send to reply.
    pub fn rtt(&self) -> f64 {
        self.acked - self.sent
    }
}

/// Counts the `queue_policy()` results a control plane returns, and how
/// many differ from the result before them. The engine runs a full
/// rate recomputation whenever the policy changes, so changes (plus the
/// first call) account for the full passes a run makes.
#[derive(Debug, Default)]
pub struct PolicyTracker {
    last: Option<QueuePolicy>,
    /// `queue_policy()` calls seen.
    pub calls: u64,
    /// Calls whose result differed from the previous call's.
    pub changes: u64,
}

impl PolicyTracker {
    /// Records one `queue_policy()` result.
    pub fn observe(&mut self, policy: &QueuePolicy) {
        self.calls += 1;
        match &self.last {
            Some(prev) if prev == policy => {}
            Some(_) => {
                self.changes += 1;
                self.last = Some(policy.clone());
            }
            None => self.last = Some(policy.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(10_000_000), Some(99.99));
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        // No children: all self.
        assert_eq!(self_time((0, 100), &[]), 100);
        // Disjoint children.
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children count their union once.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60), (35, 45)]), 50);
        // Children sticking out of the parent are clipped.
        assert_eq!(self_time((10, 100), &[(0, 20), (90, 150)]), 70);
        // Nested and touching children.
        assert_eq!(self_time((0, 100), &[(10, 20), (20, 30), (12, 18)]), 80);
        // Fully covered parent.
        assert_eq!(self_time((0, 100), &[(0, 100), (5, 6)]), 0);
        // Children outside the parent do not count.
        assert_eq!(self_time((50, 60), &[(0, 10), (70, 80)]), 10);
    }

    #[test]
    fn open_loop_times_from_due() {
        // Sent on time, acked 2 ms later.
        let a = OpenLoopSample {
            due: 1.0,
            sent: 1.0,
            acked: 1.002,
        };
        assert!((a.latency() - 0.002).abs() < 1e-12);
        assert_eq!(a.lateness(), 0.0);
        // The generator was held up 300 ms by an earlier stall: the
        // latency includes that wait, the round trip does not.
        let b = OpenLoopSample {
            due: 1.2,
            sent: 1.5,
            acked: 1.501,
        };
        assert!((b.latency() - 0.301).abs() < 1e-12);
        assert!((b.lateness() - 0.3).abs() < 1e-12);
        assert!((b.rtt() - 0.001).abs() < 1e-12);
        // Early sends are not negative lateness.
        let c = OpenLoopSample {
            due: 2.0,
            sent: 1.999,
            acked: 2.0,
        };
        assert_eq!(c.lateness(), 0.0);
    }

    #[test]
    fn policy_changes_count_consecutive_differences() {
        let mut t = PolicyTracker::default();
        let w = |x: f64| QueuePolicy::Weighted(vec![x, 1.0]);
        for p in [w(2.0), w(2.0), w(3.0), w(3.0), w(2.0), QueuePolicy::Strict] {
            t.observe(&p);
        }
        assert_eq!(t.calls, 6);
        assert_eq!(t.changes, 3);
        let mut s = PolicyTracker::default();
        for _ in 0..5 {
            s.observe(&QueuePolicy::Strict);
        }
        assert_eq!((s.calls, s.changes), (5, 0));
    }
}
