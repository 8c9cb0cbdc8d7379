//! [`Phase`]: the one timing primitive, feeding a histogram and a trace span
//! from one clock.
//!
//! A phase starts when its span starts (or reads the clock itself when the
//! work is untraced); on drop it reads the clock once, observes that
//! duration into its histogram and closes its span with the same duration,
//! so `/metrics` and `gesmc trace` agree on how long every phase took.

use crate::hist::Histogram;
use crate::trace::Span;
use std::time::Instant;

/// Times one phase into a histogram and, when the work is traced, into a
/// span; see the [module docs](self).
#[derive(Debug)]
#[must_use = "a phase is timed until it is dropped"]
pub struct Phase<'a> {
    /// `None` once [`cancel`](Phase::cancel)led.
    histogram: Option<&'a Histogram>,
    started: Instant,
    span: Option<Span<'a>>,
}

impl<'a> Phase<'a> {
    /// Start an untraced phase of `histogram`.
    pub fn start(histogram: &'a Histogram) -> Self {
        Self::traced(histogram, None)
    }

    /// Start a phase of `histogram` that also closes `span` when the work is
    /// traced; the phase starts when the span did.
    pub fn traced(histogram: &'a Histogram, span: Option<Span<'a>>) -> Self {
        let started = span.as_ref().map_or_else(Instant::now, Span::started);
        Self { histogram: Some(histogram), started, span }
    }

    /// The phase's span, to annotate; `None` when the work is untraced.
    pub fn span_mut(&mut self) -> Option<&mut Span<'a>> {
        self.span.as_mut()
    }

    /// Mark the phase as failed: flags its span, which keeps the trace.
    pub fn set_error(&mut self) {
        if let Some(span) = &mut self.span {
            span.set_error();
        }
    }

    /// Observe into `histogram` instead, for a phase whose series depends
    /// on how it ended (a cache probe's `result`).
    pub fn observe_into(&mut self, histogram: &'a Histogram) {
        self.histogram = Some(histogram);
    }

    /// End now without observing the histogram, for work that never became
    /// the phase (an admission the engine refused); the span still closes.
    pub fn cancel(mut self) {
        self.histogram = None;
    }

    /// Record a phase that ended before its parent span existed (a queue
    /// wait, a request read), between two instants its caller took: observe
    /// it and, under a traced `parent`, record it as the child span `name`.
    pub fn record(
        histogram: &Histogram,
        parent: Option<&Span<'_>>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let duration = end.saturating_duration_since(start);
        histogram.observe(duration);
        if let Some(parent) = parent {
            parent.record_child(name, start, duration);
        }
    }
}

impl Drop for Phase<'_> {
    fn drop(&mut self) {
        let elapsed = self.started.elapsed();
        if let Some(histogram) = self.histogram {
            histogram.observe(elapsed);
        }
        if let Some(span) = self.span.take() {
            span.end(elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanRecord, TracePolicy, Tracer, FLAG_SAMPLED};
    use std::time::Duration;

    /// Run `body` under a sampled root of a fresh tracer, backdated to
    /// `start`; the kept spans, root last.
    fn kept_spans(start: Instant, body: impl FnOnce(&Span<'_>)) -> Vec<SpanRecord> {
        let tracer = Tracer::new(TracePolicy::default());
        let root = tracer.start_root_flagged("request", FLAG_SAMPLED).started_at(start);
        body(&root);
        let trace = root.trace_id();
        drop(root);
        tracer.kept_trace(trace).unwrap().spans
    }

    #[test]
    fn the_histogram_sum_and_the_span_durations_agree() {
        let hist = Histogram::new("t", "test", &[]);
        let spans = kept_spans(Instant::now(), |root| {
            for _ in 0..3 {
                let _phase = Phase::traced(&hist, Some(root.child("compute")));
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let durations: Vec<u64> = spans[..3].iter().map(|s| s.duration_us).collect();
        let (sum_us, snapshot) = (durations.iter().sum::<u64>(), hist.snapshot());
        assert_eq!(snapshot.count, 3);
        assert!(durations.iter().all(|&us| us >= 2_000), "{durations:?}");
        // Each span holds its observation truncated to whole microseconds.
        assert!((sum_us..sum_us + 3).contains(&(snapshot.sum_ns / 1_000)), "{durations:?}");
    }

    #[test]
    fn phases_can_switch_series_cancel_or_be_recorded_after_the_fact() {
        let (hit, miss) = (Histogram::new("t", "hit", &[]), Histogram::new("t", "miss", &[]));
        let start = Instant::now();
        let spans = kept_spans(start, |root| {
            let mut probe = Phase::traced(&miss, Some(root.child("cache_probe")));
            probe.observe_into(&hit);
            drop(probe);
            let mut refused = Phase::traced(&miss, Some(root.child("compute")));
            refused.set_error();
            refused.cancel();
            Phase::record(&hit, Some(root), "read", start, start + Duration::from_millis(3));
            Phase::record(&hit, None, "read", start, start + Duration::from_millis(3));
        });
        assert_eq!((hit.snapshot().count, miss.snapshot().count), (3, 0));
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.error)).collect();
        assert_eq!(names[..3], [("cache_probe", false), ("compute", true), ("read", false)]);
        let (read, root) = (&spans[2], &spans[3]);
        assert_eq!((read.duration_us, read.start_unix_us), (3_000, root.start_unix_us));
    }
}
