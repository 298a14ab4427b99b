//! Host-speed correction for the benchmark's timings.
//!
//! The benchmark runs on shared machines, which disturb timings in two
//! ways, and the offline workloads correct for both:
//!
//! * **CPU steal.** The hypervisor deschedules the VM's CPUs for
//!   milliseconds at a time (up to 15% of a core, measured on a 2-vCPU
//!   VM). A step that loses the CPU looks hundreds of times longer on a
//!   wall clock, which wrecks tail figures. Offline times are read from
//!   the thread's CPU clock ([`thread_cpu_s`]), which the kernel stops
//!   while the VM is descheduled.
//! * **Memory speed.** Over 10–60 s periods the simulator's time for one
//!   fixed simulation flips between two levels 1.5× apart, with no change
//!   in pure ALU speed. A fixed memory-bound probe (a 300,000-key
//!   hash-map build plus a sort) slows by the same factor: over 545
//!   interleaved samples the simulator's raw time spread (IQR over
//!   median) was 0.33, its time divided by the adjacent probe's 0.10,
//!   and over 9-second windows 0.28 against 0.04. So offline times are
//!   reported in *reference seconds*: the measured time scaled by
//!   `PROBE_REF_S / probe`, where `probe` is the probe's CPU time
//!   measured next to it. A faster program still reads faster; a slower
//!   host does not.

use std::collections::HashMap;
use std::hint::black_box;
use std::os::raw::{c_int, c_long};

/// The probe's CPU time on the reference box (2 vCPU at 2.0 GHz) in its
/// fast state. Scaled times read as seconds on that box.
pub const PROBE_REF_S: f64 = 0.030;

/// Keys the probe inserts: about 10 MB of table, more than the last-level
/// cache, so it feels the same memory contention the simulator does.
const PROBE_KEYS: u64 = 300_000;

/// Runs the probe once and returns its CPU time in seconds.
pub fn probe_s() -> f64 {
    let t = thread_cpu_s();
    let mut table: HashMap<u64, u64> = HashMap::new();
    for i in 0..black_box(PROBE_KEYS) {
        *table
            .entry(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40)
            .or_insert(0) += i;
    }
    let mut values: Vec<u64> = table.into_values().collect();
    values.sort_unstable();
    black_box(values);
    thread_cpu_s() - t
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU time the calling thread has used, in seconds. Unlike a wall
/// clock it does not advance while the thread waits or the VM is
/// descheduled. Costs about 0.4 µs a call on a 2-vCPU VM.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // 64-bit Linux) for the duration of the call, and the clock id is a
    // constant the kernel defines; the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock exists on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Scale factor from measured to reference seconds, given the probe's
/// time next to the measurement.
pub fn factor(probe: f64) -> f64 {
    PROBE_REF_S / probe
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_slow_hosts_down() {
        assert_eq!(factor(PROBE_REF_S), 1.0);
        assert!((factor(2.0 * PROBE_REF_S) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn probe_takes_measurable_time() {
        assert!(probe_s() > 0.0);
    }

    #[test]
    fn thread_cpu_clock_advances_with_work_only() {
        let t0 = thread_cpu_s();
        let mut x = 0u64;
        for i in 0..black_box(2_000_000u64) {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        black_box(x);
        let t1 = thread_cpu_s();
        assert!(t1 > t0);
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(thread_cpu_s() - t1 < 0.025, "sleeping uses no CPU");
    }
}
