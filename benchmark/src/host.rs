//! What the benchmark reads from the host: this process's memory and
//! CPU accounting, and a calibration kernel that shows whether the host
//! itself ran at a steady speed during a timed window.

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
}

/// User + system CPU consumed by every thread of this process so far
/// (exited ones included), in milliseconds. Read from the scheduler's
/// exact accounting rather than the 10 ms tick counters of
/// `/proc/self/stat`, which sample and so can alias with the chain's 2,
/// 5 and 100 ms poll timers.
pub fn process_cpu_ms() -> f64 {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` (two 64-bit fields
    // on 64-bit Linux, the layout above) through the pointer, which
    // refers to a live, exclusively borrowed local.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    if rc != 0 {
        return f64::NAN;
    }
    now.tv_sec as f64 * 1e3 + now.tv_nsec as f64 / 1e6
}

/// Where the benchmark may write (SLURM files, span dumps): under the
/// cargo target directory, which sits inside the checkout.
pub fn scratch_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"),
        PathBuf::from,
    );
    target.join("ripki-benchmark")
}

const CALIB_TABLE: usize = 1 << 15;
const CALIB_SLICE: Duration = Duration::from_millis(50);

/// One 50 ms run of a fixed integer/memory kernel (xorshift-indexed
/// read-modify-write over a 256 KiB table; no repository code). Returns
/// millions of steps per second.
pub fn calibrate() -> f64 {
    let mut table = vec![0u64; CALIB_TABLE];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut steps: u64 = 0;
    let started = Instant::now();
    loop {
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize) & (CALIB_TABLE - 1);
            table[slot] = table[slot].wrapping_add(x);
        }
        steps += 20_000;
        if started.elapsed() >= CALIB_SLICE {
            break;
        }
    }
    std::hint::black_box(&table);
    steps as f64 / started.elapsed().as_secs_f64() / 1e6
}

/// Calibration readings taken before, inside and after a timed window.
/// `min / max` well below 1 means the host, not the code, moved.
pub struct HostGuard {
    readings: Vec<f64>,
    last: Instant,
    spent: Duration,
}

impl HostGuard {
    const EVERY: Duration = Duration::from_secs(5);

    /// Take the "before" reading.
    pub fn start() -> HostGuard {
        HostGuard {
            readings: vec![calibrate()],
            last: Instant::now(),
            spent: Duration::ZERO,
        }
    }

    /// Called between operations with the idle time available before
    /// the next one is due: takes a reading if five seconds passed and
    /// the gap can hold it.
    pub fn tick(&mut self, idle: Duration) {
        if self.last.elapsed() >= Self::EVERY && idle >= CALIB_SLICE + Duration::from_millis(20) {
            self.sample();
        }
    }

    /// Take a reading now (closed loops, where the caller subtracts
    /// [`HostGuard::spent`] from its window).
    pub fn tick_now(&mut self) {
        if self.last.elapsed() >= Self::EVERY {
            self.sample();
        }
    }

    fn sample(&mut self) {
        let started = Instant::now();
        self.readings.push(calibrate());
        self.spent += started.elapsed();
        self.last = Instant::now();
    }

    /// Wall time the in-window readings took.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// Take the "after" reading and return `(min, max)` in Mops.
    pub fn finish(mut self) -> (f64, f64) {
        self.readings.push(calibrate());
        let min = self.readings.iter().copied().fold(f64::INFINITY, f64::min);
        let max = self.readings.iter().copied().fold(0.0, f64::max);
        (min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_accounting_is_readable() {
        assert!(peak_rss_mib() > 0.5);
        let before = process_cpu_ms();
        let mops = calibrate();
        assert!(mops > 1.0);
        assert!(process_cpu_ms() >= before);
    }
}
