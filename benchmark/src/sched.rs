//! The open-loop clock: event `i` is due at `start + i × period`
//! whatever the system under test is doing, and every latency counts
//! from that due time.

use std::time::{Duration, Instant};

pub struct OpenLoop {
    start: Instant,
    period: Duration,
}

impl OpenLoop {
    /// A schedule whose event 0 is due at `start`.
    pub fn starting_at(start: Instant, period: Duration) -> OpenLoop {
        OpenLoop { start, period }
    }

    /// When event `i` is due.
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.period * i as u32
    }

    /// Time left until event `i` is due (zero if already past).
    pub fn until_due(&self, i: usize) -> Duration {
        self.due(i).saturating_duration_since(Instant::now())
    }

    /// Block until event `i` is due — never returns early — and report
    /// how late the caller is in releasing it.
    pub fn wait_until_due(&self, i: usize) -> Duration {
        let due = self.due(i);
        loop {
            let now = Instant::now();
            if now >= due {
                return now - due;
            }
            std::thread::sleep(due - now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_releases_early_and_reports_lateness() {
        let period = Duration::from_millis(15);
        let sched = OpenLoop::starting_at(Instant::now() + period, period);
        for i in 0..4 {
            let late = sched.wait_until_due(i);
            assert!(Instant::now() >= sched.due(i), "event {i} released early");
            assert!(late < Duration::from_millis(500));
        }
        // A caller that overran two periods is told so, and is not held.
        std::thread::sleep(period * 2);
        let late = sched.wait_until_due(4);
        assert!(late >= period, "lateness {late:?} hides the overrun");
        assert_eq!(sched.until_due(0), Duration::ZERO);
        assert_eq!(sched.due(3) - sched.due(1), period * 2);
    }
}
