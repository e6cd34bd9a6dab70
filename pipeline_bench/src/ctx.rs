//! Bookkeeping shared by the sections: the tracer, the metrics measured
//! so far, and the count of operations attempted and failed.

use crate::cpu::CpuClock;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::fmt::Display;

/// One section of the benchmark: a job that is repeated, interleaved
/// with the other sections' jobs, and a report over the jobs it ran.
pub trait Section {
    /// Runs one job and keeps its figures.
    fn rep(&mut self, ctx: &mut Ctx);
    /// Records the section's metrics from the jobs run so far.
    fn report(&mut self, ctx: &mut Ctx);
}

/// One run's state.
pub struct Ctx {
    /// Spans, recorded only in a traced run.
    pub tracer: Tracer,
    /// The process CPU clock jobs are timed with.
    pub cpu_clock: CpuClock,
    metrics: BTreeMap<String, f64>,
    /// Operations attempted (jobs, requests, protocol runs, probes).
    pub attempted: u64,
    /// Operations that failed, were refused, or failed an output check.
    pub failed: u64,
    /// Whether every output check passed.
    pub correct: bool,
}

impl Ctx {
    /// A fresh context; spans are kept only when `trace` is set.
    pub fn new(trace: bool, cpu_clock: CpuClock) -> Self {
        Self {
            tracer: Tracer::new(trace),
            cpu_clock,
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            correct: true,
        }
    }

    /// Counts one attempted operation and, when it failed, one failure.
    pub fn op<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("operation failed: {what}: {e}");
                None
            }
        }
    }

    /// Records an output check; a failed check fails its operation.
    pub fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            self.failed += 1;
            self.correct = false;
            eprintln!("output check failed: {what}");
        }
    }

    /// Sets a metric (the last value set wins).
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// A metric set earlier.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }
}
