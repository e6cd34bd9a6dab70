//! Open-loop load: requests leave on a fixed schedule whatever the
//! system's state, so a stall delays every request due behind it.
//!
//! One generator (the calling thread) submits request `i` at its due
//! time `start + i / rate`; one collector thread waits for completions
//! in submission order. Latency runs from the due time, not the send
//! time, so time the generator spent late counts against the system;
//! the generator's own lateness is kept per request as well.

use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Due times of an open-loop schedule.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Due time of request 0.
    pub start: Instant,
    /// Requests per second.
    pub rate: f64,
}

impl Schedule {
    /// When request `i` is due.
    pub fn due(&self, i: usize) -> Instant {
        self.start + Duration::from_secs_f64(i as f64 / self.rate)
    }
}

/// What happened to one scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Request index in the schedule.
    pub id: usize,
    /// When it was due.
    pub due: Instant,
    /// When the generator actually submitted it.
    pub sent: Instant,
    /// When the collector saw it complete; `None` when it was refused.
    pub done: Option<Instant>,
    /// Completed and passed the caller's check.
    pub ok: bool,
}

impl Record {
    /// Due time to completion, µs (`None` when refused).
    pub fn latency_us(&self) -> Option<f64> {
        self.done
            .map(|d| d.saturating_duration_since(self.due).as_secs_f64() * 1e6)
    }

    /// How late the generator submitted it, µs.
    pub fn lateness_us(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e6
    }
}

/// Sleeps until `t`. The generator never spins: on one CPU a spinning
/// generator would take time from the server it measures and burn CPU
/// time that the benchmark charges to requests. Oversleeping shows up as
/// lateness.
fn wait_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Runs `n` requests on `schedule`. `submit(i)` returns a pending
/// request, or `None` when the system refused it; `complete(i, pending)`
/// waits for it on the collector thread and returns whether its result
/// passed the caller's check. Records come back sorted by id.
pub fn run<P, S, C>(schedule: Schedule, n: usize, mut submit: S, complete: C) -> Vec<Record>
where
    P: Send,
    S: FnMut(usize) -> Option<P>,
    C: Fn(usize, P) -> bool + Send,
{
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant, P)>();
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            rx.into_iter()
                .map(|(id, due, sent, pending)| {
                    let ok = complete(id, pending);
                    Record {
                        id,
                        due,
                        sent,
                        done: Some(Instant::now()),
                        ok,
                    }
                })
                .collect::<Vec<_>>()
        });
        let mut records = Vec::with_capacity(n);
        for id in 0..n {
            let due = schedule.due(id);
            wait_until(due);
            let sent = Instant::now();
            let refused = Record {
                id,
                due,
                sent,
                done: None,
                ok: false,
            };
            match submit(id) {
                // The send fails only once the collector has panicked;
                // its panic is raised at the join below.
                Some(pending) => {
                    if tx.send((id, due, sent, pending)).is_err() {
                        records.push(refused);
                    }
                }
                None => records.push(refused),
            }
        }
        drop(tx);
        records.extend(
            collector
                .join()
                .unwrap_or_else(|e| std::panic::resume_unwind(e)),
        );
        records.sort_by_key(|r| r.id);
        records
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate() {
        let start = Instant::now();
        let s = Schedule {
            start,
            rate: 4000.0,
        };
        assert_eq!(s.due(0), start);
        assert_eq!(s.due(4000) - start, Duration::from_secs(1));
        assert_eq!(s.due(1) - start, Duration::from_micros(250));
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_due_behind_it() {
        let s = Schedule {
            start: Instant::now() + Duration::from_millis(2),
            rate: 1000.0,
        };
        // Request 0 blocks the generator for 30 ms; requests 1..10 were
        // due 1..9 ms after the start, so each leaves late and its
        // latency, timed from its due time, includes the wait.
        let records = run(
            s,
            10,
            |i| {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(30));
                }
                Some(i)
            },
            |_, _| true,
        );
        assert_eq!(records.len(), 10);
        for r in &records[1..] {
            let behind_ms = 30.0 - r.id as f64;
            assert!(r.lateness_us() >= (behind_ms - 1.0) * 1e3, "{r:?}");
            assert!(r.latency_us().expect("completed") >= r.lateness_us());
        }
        assert!(records.iter().all(|r| r.ok));
    }

    #[test]
    fn refusals_and_failed_checks_are_kept() {
        let s = Schedule {
            start: Instant::now(),
            rate: 10_000.0,
        };
        let records = run(s, 6, |i| (i % 3 != 0).then_some(i), |i, _| i != 4);
        let refused: Vec<usize> = records
            .iter()
            .filter(|r| r.done.is_none())
            .map(|r| r.id)
            .collect();
        assert_eq!(refused, vec![0, 3]);
        assert!(!records[4].ok && records[5].ok);
        assert!(records[0].latency_us().is_none());
    }
}
