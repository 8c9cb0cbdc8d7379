//! Cooperative job control: cancellation flags and progress hooks.
//!
//! A [`JobControl`] is shared (via `Arc`) between whoever *drives* a job —
//! [`run_job`](crate::run_job), whether called directly or by a
//! [`ServicePool`](crate::ServicePool) worker — and whoever *observes* it: a
//! status endpoint polling [`JobControl::progress`], or a client requesting
//! [`JobControl::request_cancel`].  The chains themselves are untouched;
//! control is checked once per superstep, so a cancel lands within one
//! superstep of being requested and the job's state (including any pending
//! checkpoint) stays consistent.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A snapshot of a job's progress, as recorded by the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobProgress {
    /// Last completed superstep.
    pub superstep: u64,
    /// The job's superstep target (0 until the driver started).
    pub total: u64,
}

/// Shared cancellation flag + progress counters for one job.
///
/// All operations are lock-free atomics; observers may poll from any thread
/// while the job runs.
#[derive(Debug, Default)]
pub struct JobControl {
    cancel: AtomicBool,
    superstep: AtomicU64,
    total: AtomicU64,
    /// Optional pool-level superstep meter: every completed superstep also
    /// increments this shared counter, so a service can export aggregate
    /// supersteps/sec without polling per-job state.
    meter: Option<Arc<AtomicU64>>,
}

impl JobControl {
    /// A fresh control with no cancel request and zeroed progress.
    pub fn new() -> Self {
        Self::default()
    }

    /// Like [`JobControl::new`], additionally incrementing `meter` once per
    /// completed superstep (the pool-level progress hook).
    pub fn with_meter(meter: Arc<AtomicU64>) -> Self {
        Self { meter: Some(meter), ..Self::default() }
    }

    /// Ask the driver to stop before the next superstep.  Idempotent; the
    /// driver reports [`EngineError::Cancelled`](crate::EngineError) once it
    /// observes the flag.
    pub fn request_cancel(&self) {
        self.cancel.store(true, Ordering::Release);
    }

    /// Whether a cancel was requested.
    pub fn is_cancel_requested(&self) -> bool {
        self.cancel.load(Ordering::Acquire)
    }

    /// The driver-recorded progress.
    pub fn progress(&self) -> JobProgress {
        JobProgress {
            superstep: self.superstep.load(Ordering::Acquire),
            total: self.total.load(Ordering::Acquire),
        }
    }

    /// Record the job's superstep target (driver side).
    pub(crate) fn set_total(&self, total: u64) {
        self.total.store(total, Ordering::Release);
    }

    /// Record a completed superstep (driver side).
    pub(crate) fn record(&self, superstep: u64) {
        self.superstep.store(superstep, Ordering::Release);
        if let Some(meter) = &self.meter {
            meter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a resume point without ticking the meter (driver side).
    pub(crate) fn record_start(&self, superstep: u64) {
        self.superstep.store(superstep, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_flag_round_trips() {
        let control = JobControl::new();
        assert!(!control.is_cancel_requested());
        control.request_cancel();
        assert!(control.is_cancel_requested());
        control.request_cancel();
        assert!(control.is_cancel_requested(), "cancel is idempotent");
    }

    #[test]
    fn progress_is_observable_and_meter_ticks() {
        let meter = Arc::new(AtomicU64::new(0));
        let control = JobControl::with_meter(Arc::clone(&meter));
        control.set_total(10);
        control.record_start(4);
        assert_eq!(control.progress(), JobProgress { superstep: 4, total: 10 });
        assert_eq!(meter.load(Ordering::Relaxed), 0, "resume point must not tick the meter");
        control.record(5);
        control.record(6);
        assert_eq!(control.progress(), JobProgress { superstep: 6, total: 10 });
        assert_eq!(meter.load(Ordering::Relaxed), 2);
    }
}
