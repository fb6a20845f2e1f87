//! Open-loop pacing with due-time accounting.
//!
//! Every visit of a step has a due time fixed before the step starts.
//! A visit's latency runs from its due time, not from when the worker
//! got to it, so a stall charges its wait to every visit queued behind
//! it (no coordinated omission).

use crate::stats::{percentile, sorted};
use crate::trace::now_ns;

/// Due times of one worker's visits in one step: `count` visits at a
/// fixed rate from `start` (nanoseconds on the [`now_ns`] clock).
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: u64,
    pub period_ns: f64,
    pub count: u64,
}

impl Schedule {
    pub fn new(start: u64, visits_per_s: f64, count: u64) -> Schedule {
        Schedule {
            start,
            period_ns: 1e9 / visits_per_s,
            count,
        }
    }

    pub fn due(&self, k: u64) -> u64 {
        self.start + (k as f64 * self.period_ns) as u64
    }
}

/// Visits per window: each window yields its own p50 and p99, and a
/// step reports the median over its windows, so a host hiccup that
/// spoils one window does not decide the step.
pub const WINDOW: usize = 1_000;

/// One worker's latency record for one step.
#[derive(Debug, Clone, Default)]
pub struct DueLog {
    /// Due time, per visit.
    pub due_ns: Vec<u64>,
    /// Completion minus due time, per visit.
    pub latency_ns: Vec<u64>,
    /// Start minus due time, per visit: how late the generator ran.
    pub late_ns: Vec<u64>,
    /// Most visits already due and still waiting when one started.
    pub backlog_max: u64,
}

impl DueLog {
    /// Records visit `k`, started at `started` and completed at `ended`.
    pub fn record(&mut self, sched: &Schedule, k: u64, started: u64, ended: u64) {
        let due = sched.due(k);
        self.due_ns.push(due);
        self.latency_ns.push(ended.saturating_sub(due));
        let late = started.saturating_sub(due);
        self.late_ns.push(late);
        self.backlog_max = self.backlog_max.max((late as f64 / sched.period_ns) as u64);
    }
}

/// Percentiles of one window of visits, in µs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    /// Median lateness: how far behind the generator ran.
    pub late_p50: f64,
}

/// Merges the workers' visits in due order and cuts them into windows
/// of [`WINDOW`] visits; a short remainder joins the last window.
pub fn windows(logs: &[DueLog]) -> Vec<WindowStats> {
    let mut visits: Vec<(u64, u64, u64)> = logs
        .iter()
        .flat_map(|l| {
            l.due_ns
                .iter()
                .zip(&l.latency_ns)
                .zip(&l.late_ns)
                .map(|((&d, &lat), &late)| (d, lat, late))
        })
        .collect();
    visits.sort_unstable();
    let count = (visits.len() / WINDOW).max(1);
    (0..count)
        .map(|i| {
            let end = if i + 1 == count {
                visits.len()
            } else {
                (i + 1) * WINDOW
            };
            let w = &visits[i * WINDOW..end];
            let lat = sorted(w.iter().map(|v| v.1 as f64 / 1e3).collect());
            let late = sorted(w.iter().map(|v| v.2 as f64 / 1e3).collect());
            WindowStats {
                p50: percentile(&lat, 50.0).unwrap_or(f64::NAN),
                p90: percentile(&lat, 90.0).unwrap_or(f64::NAN),
                p99: percentile(&lat, 99.0).unwrap_or(f64::NAN),
                late_p50: percentile(&late, 50.0).unwrap_or(f64::NAN),
            }
        })
        .collect()
}

/// Waits shorter than this are spun. On a virtual machine an idle vCPU
/// may be descheduled and take milliseconds to wake, so a worker only
/// sleeps through long gaps, and never through its final millisecond.
const SPIN_NS: u64 = 2_000_000;

/// Blocks until `due`, so a visit starts within microseconds of its due
/// time.
pub fn wait_until(due: u64) {
    loop {
        let now = now_ns();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN_NS {
            std::thread::sleep(std::time::Duration::from_nanos(left - SPIN_NS / 2));
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a schedule on a simulated clock: a visit starts at its due
    /// time or when the previous one ends, whichever is later.
    fn simulate(sched: &Schedule, service: impl Fn(u64) -> u64) -> DueLog {
        let mut log = DueLog::default();
        let mut free_at = 0;
        for k in 0..sched.count {
            let started = free_at.max(sched.due(k));
            let ended = started + service(k);
            log.record(sched, k, started, ended);
            free_at = ended;
        }
        log
    }

    #[test]
    fn stall_charges_every_later_visit() {
        // One visit per 100 ns, 10 ns each, except a 1 µs stall at k=3.
        let sched = Schedule::new(0, 1e7, 20);
        let log = simulate(&sched, |k| if k == 3 { 1_000 } else { 10 });
        assert_eq!(log.latency_ns[2], 10);
        assert_eq!(log.latency_ns[3], 1_000);
        // Visit 4 was due at 400 but could only start at 1300.
        assert_eq!(log.latency_ns[4], 910);
        assert_eq!(log.late_ns[4], 900);
        // Every visit queued behind the stall pays part of it ...
        for k in 4..=13 {
            assert!(log.latency_ns[k] > 10, "visit {k} was not charged");
        }
        // ... and the queue drains: visit 14 starts on time again.
        assert_eq!(log.latency_ns[14], 10);
        assert_eq!(log.late_ns[14], 0);
        // Nine visits were already due when visit 4 started.
        assert_eq!(log.backlog_max, 9);
    }

    #[test]
    fn on_time_visits_have_no_lateness() {
        let sched = Schedule::new(1_000, 1e6, 5);
        let log = simulate(&sched, |_| 100);
        assert!(log.late_ns.iter().all(|&l| l == 0));
        assert!(log.latency_ns.iter().all(|&l| l == 100));
        assert_eq!(log.backlog_max, 0);
        assert_eq!(sched.due(4), 1_000 + 4_000);
    }

    #[test]
    fn windows_merge_workers_in_due_order() {
        // Two workers, interleaved due times; worker 1 is slow.
        let a = Schedule::new(0, 1e6, 1_500);
        let b = Schedule::new(500, 1e6, 1_500);
        let fast = simulate(&a, |_| 10);
        let slow = simulate(&b, |_| 20);
        let w = windows(&[fast, slow]);
        // 3000 visits: three full windows.
        assert_eq!(w.len(), 3);
        assert!(w.iter().all(|s| s.p50 * 1e3 >= 10.0 && s.p99 * 1e3 == 20.0));
        // 2500 visits: the 500-visit remainder joins the second window.
        let w = windows(&[simulate(&Schedule::new(0, 1e6, 2_500), |_| 10)]);
        assert_eq!(w.len(), 2);
        // Fewer visits than a window still give one window.
        assert_eq!(
            windows(&[simulate(&Schedule::new(0, 1e6, 10), |_| 10)]).len(),
            1
        );
    }

    #[test]
    fn wait_until_returns_after_due() {
        let due = now_ns() + 200_000;
        wait_until(due);
        assert!(now_ns() >= due);
    }
}
