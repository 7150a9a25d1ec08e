//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed changes by tens of
//! percent from one second to the next and for minutes at a time, with
//! the load other guests put on the host, so the same code timed in two
//! runs a few minutes apart can differ by more than any useful bound.
//! Every run therefore also times a fixed reference job, interleaved with
//! the measured work so that it meets the host in the same state, and
//! reports times at reference speed: each lap of measured work is scaled
//! by [`NOMINAL_NS`] over the median of the reference times taken around
//! its end. A change to the program moves the measured times and not the
//! reference, which is code of this package alone.

use crate::stat::median;
use std::collections::HashSet;
use std::hint::black_box;

/// The reference job's median time on the host the bounds were set on (a
/// two-vCPU Xeon VM, 2026-10). Times are reported as if every run had
/// found the host at that speed.
pub const NOMINAL_NS: f64 = 210_000.0;

/// Share of the measured time spent on reference jobs.
const SHARE: f64 = 0.1;

/// Reference times the local speed is the median of: at [`SHARE`], the
/// last 20 ms or so of measured time.
const WINDOW: usize = 11;

/// Nanoseconds of CPU time this process has used, over all its threads.
///
/// Single-threaded library work is timed on this clock rather than the
/// wall clock: with paravirtualised steal-time accounting, time the
/// hypervisor gave the CPU to another guest is not charged to the process.
/// Work a change moves to another thread of the process still counts.
pub fn cpu_ns() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    // `struct timespec` is two 64-bit fields only where `long` is 64 bits.
    const _: () = assert!(std::mem::size_of::<std::os::raw::c_long>() == 8);
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux), and the clock id is a valid constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 * 1e9 + ts.nsec as f64
}

/// Nanoseconds of wall time since an arbitrary fixed point.
pub fn wall_ns() -> f64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as f64
}

/// Greatest common divisor, non-negative.
fn gcd(mut a: i64, mut b: i64) -> i64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.abs()
}

/// The reference job: exact Fourier–Motzkin elimination of four of six
/// variables from two fixed pseudo-random systems of 14 inequalities,
/// with gcd normalisation and duplicate removal — the integer arithmetic,
/// small allocations, hashing and branches the solver spends its time on.
/// Returns a checksum of the projected systems.
pub fn reference_job() -> u64 {
    const VARS: usize = 6;
    const ROWS: usize = 14;
    const KEEP: usize = 40;
    let mut state = black_box(0x9e37_79b9_7f4a_7c15_u64);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 9) as i64 - 4
    };
    let mut sum = 0u64;
    for _ in 0..2 {
        let mut rows: Vec<Vec<i64>> = (0..ROWS)
            .map(|_| (0..=VARS).map(|_| next()).collect())
            .collect();
        for v in 0..4 {
            let (pos, rest): (Vec<_>, Vec<_>) = rows.into_iter().partition(|r| r[v] > 0);
            let (neg, zero): (Vec<_>, Vec<_>) = rest.into_iter().partition(|r| r[v] < 0);
            let mut seen = HashSet::new();
            let mut next_rows = Vec::new();
            for r in zero.into_iter().chain(pos.iter().flat_map(|p| {
                neg.iter().map(move |n| {
                    let (a, b) = (p[v], -n[v]);
                    p.iter()
                        .zip(n)
                        .map(|(x, y)| b * x + a * y)
                        .collect::<Vec<_>>()
                })
            })) {
                let g = r.iter().fold(0, |g, &x| gcd(g, x));
                let r: Vec<i64> = if g > 1 {
                    r.iter().map(|x| x / g).collect()
                } else {
                    r
                };
                if r.iter().any(|&x| x != 0) && seen.insert(r.clone()) {
                    next_rows.push(r);
                }
            }
            next_rows.sort();
            next_rows.truncate(KEEP);
            rows = next_rows;
        }
        for r in &rows {
            for &x in r {
                sum = sum.wrapping_mul(31).wrapping_add(x as u64);
            }
        }
    }
    black_box(sum)
}

/// Reference times of one run, taken on the clock the run measures with,
/// and the measured work timed between them in laps.
pub struct Speed {
    clock: fn() -> f64,
    samples: Vec<f64>,
    measured_ns: f64,
    spent_ns: f64,
    checksum: Option<u64>,
    /// Clock reading where the current lap began.
    lap_start: f64,
    /// The laps since the last [`Speed::restart`], at reference speed.
    laps_ns: f64,
}

impl Default for Speed {
    /// Reference times on the CPU-time clock of the library workloads.
    fn default() -> Speed {
        Speed::new(cpu_ns)
    }
}

impl Speed {
    pub fn new(clock: fn() -> f64) -> Speed {
        Speed {
            clock,
            samples: Vec::new(),
            measured_ns: 0.0,
            spent_ns: 0.0,
            checksum: None,
            lap_start: clock(),
            laps_ns: 0.0,
        }
    }

    /// Starts a new lap now, dropping the work since the last one, and
    /// clears the laps' total.
    pub fn restart(&mut self) {
        self.lap_start = (self.clock)();
        self.laps_ns = 0.0;
    }

    /// Ends the current lap of measured work: runs the reference jobs due,
    /// so that they take [`SHARE`] of all the time measured in the run,
    /// starts the next lap, and returns the one ended at reference speed.
    pub fn lap(&mut self) -> f64 {
        let ns = (self.clock)() - self.lap_start;
        self.measured_ns += ns;
        while self.spent_ns < SHARE * self.measured_ns || self.samples.is_empty() {
            let t = (self.clock)();
            let sum = reference_job();
            let ns = (self.clock)() - t;
            assert_eq!(
                *self.checksum.get_or_insert(sum),
                sum,
                "the reference job is deterministic"
            );
            self.samples.push(ns);
            self.spent_ns += ns;
        }
        let lap = self.at_reference(ns);
        self.laps_ns += lap;
        self.lap_start = (self.clock)();
        lap
    }

    /// The laps since the last [`Speed::restart`], at reference speed.
    pub fn laps_ns(&self) -> f64 {
        self.laps_ns
    }

    /// `ns` measured in the last lap, at reference speed: scaled by the
    /// nominal reference time over the median of the last [`WINDOW`]
    /// reference times.
    pub fn at_reference(&self, ns: f64) -> f64 {
        let recent = &self.samples[self.samples.len().saturating_sub(WINDOW)..];
        ns * NOMINAL_NS / median(recent)
    }

    /// Reference jobs timed.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Median reference time of the run.
    pub fn median_ns(&self) -> f64 {
        median(&self.samples)
    }

    /// How much slower than nominal the host ran over the whole run.
    pub fn slowdown(&self) -> f64 {
        self.median_ns() / NOMINAL_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_job_is_deterministic_and_clocks_advance() {
        assert_eq!(reference_job(), reference_job());
        let (t, w) = (cpu_ns(), wall_ns());
        let mut speed = Speed::new(cpu_ns);
        speed.restart();
        let lap = speed.lap();
        assert!(speed.samples() >= 1);
        assert!(cpu_ns() > t && wall_ns() > w);
        assert!(lap > 0.0 && lap == speed.laps_ns());
        assert!((speed.at_reference(1e6) - 1e6 / speed.slowdown()).abs() < 1e-6);
    }
}
