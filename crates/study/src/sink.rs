//! The streaming metrics sink: mixing metrics computed on the fly.
//!
//! `gesmc batch` materialises every thinned sample (edge-list files); for a
//! mixing-time study over many thinning values that would be wasteful — the
//! paper's analysis only needs, per tracked edge and per thinning value, the
//! 2×2 transition counts of the edge's presence series.  [`MetricsSink`]
//! therefore implements the engine's [`SampleSink`] interface and folds every
//! superstep's graph directly into a [`ThinnedAutocorrelation`] accumulator
//! (plus a sparse [`ProxyTrace`] of scalar convergence proxies), so a study
//! cell's memory footprint stays `Θ(m · |thinnings|)` no matter how many
//! supersteps it runs.
//!
//! The sink is moved into its job; results come back through the shared
//! [`CellOutcome`] handle, which [`SampleSink::finish`] fills once the job's
//! last superstep completed.

use gesmc_analysis::{EdgeTracker, ProxyTrace, ThinnedAutocorrelation};
use gesmc_engine::{EngineError, JobReport, SampleContext, SampleSink, SampleView};
use gesmc_graph::EdgeListGraph;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The measurements of one finished study cell.
#[derive(Debug, Clone)]
pub struct CellMetrics {
    /// The thinning values, in the accumulator's (sorted) order.
    pub thinnings: Vec<usize>,
    /// Fraction of non-independent tracked edges per thinning value.
    pub fractions: Vec<f64>,
    /// Number of supersteps observed.
    pub observations: u64,
    /// Supersteps at which the scalar proxies were recorded.
    pub proxy_supersteps: Vec<u64>,
    /// The scalar proxy traces (triangles, clustering, assortativity).
    pub proxies: ProxyTrace,
    /// Wall-clock duration of the cell's job.
    pub wall_clock: Duration,
}

/// Shared handle through which a [`MetricsSink`] returns its [`CellMetrics`].
///
/// `None` until the job's [`SampleSink::finish`] ran.
pub type CellOutcome = Arc<Mutex<Option<CellMetrics>>>;

/// A [`SampleSink`] that computes mixing metrics instead of storing samples.
///
/// Attach it to a job with **thinning interval 1** so it observes the graph
/// after *every* superstep; the accumulator sub-samples each configured
/// thinning value internally (Sec. 6.1 of the paper).
pub struct MetricsSink {
    tracker: EdgeTracker,
    acc: ThinnedAutocorrelation,
    proxy_stride: u64,
    proxy_supersteps: Vec<u64>,
    proxies: ProxyTrace,
    outcome: CellOutcome,
}

impl MetricsSink {
    /// Create a sink tracking the edges of `initial_graph` over `thinnings`,
    /// recording scalar proxies every `proxy_stride` supersteps (`0` disables
    /// the proxy trace).
    pub fn new(initial_graph: &EdgeListGraph, thinnings: &[usize], proxy_stride: u64) -> Self {
        let tracker = EdgeTracker::initial_edges(initial_graph);
        let acc = ThinnedAutocorrelation::new(tracker.len(), thinnings);
        Self {
            tracker,
            acc,
            proxy_stride,
            proxy_supersteps: Vec::new(),
            proxies: ProxyTrace::default(),
            outcome: Arc::new(Mutex::new(None)),
        }
    }

    /// The handle the finished metrics are published through.
    pub fn outcome(&self) -> CellOutcome {
        Arc::clone(&self.outcome)
    }
}

impl SampleSink for MetricsSink {
    fn emit(&mut self, ctx: &SampleContext<'_>, view: &SampleView<'_>) -> Result<(), EngineError> {
        let sample = view.graph();
        let bits = self.tracker.presence(&sample);
        self.acc.observe(&bits);
        if self.proxy_stride > 0 && ctx.superstep % self.proxy_stride == 0 {
            self.proxy_supersteps.push(ctx.superstep);
            self.proxies.record(&sample);
        }
        Ok(())
    }

    fn finish(&mut self, report: &JobReport) -> Result<(), EngineError> {
        let metrics = CellMetrics {
            thinnings: self.acc.thinnings().to_vec(),
            fractions: self.acc.non_independent_fractions(),
            observations: report.samples,
            proxy_supersteps: std::mem::take(&mut self.proxy_supersteps),
            proxies: std::mem::take(&mut self.proxies),
            wall_clock: report.duration,
        };
        *self
            .outcome
            .lock()
            .map_err(|_| EngineError::Graph("cell outcome mutex poisoned".to_string()))? =
            Some(metrics);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesmc_engine::{default_registry, run_job, ChainSpec, GraphSource, JobControl, JobSpec};
    use gesmc_graph::gen::gnp;
    use gesmc_randx::rng_from_seed;

    #[test]
    fn sink_accumulates_through_a_real_job() {
        let graph = gnp(&mut rng_from_seed(7), 60, 0.1);
        let mut sink = MetricsSink::new(&graph, &[1, 2, 4], 4);
        let outcome = sink.outcome();
        let spec = JobSpec::new(
            "cell",
            GraphSource::InMemory(graph.clone()),
            ChainSpec::new("seq-global-es"),
        )
        .supersteps(12)
        .thinning(1)
        .seed(3);
        let report =
            run_job(default_registry(), &spec, &mut sink, None, &JobControl::new(), None).unwrap();
        assert_eq!(report.samples, 12);

        let metrics = outcome.lock().unwrap().clone().expect("finish must publish metrics");
        assert_eq!(metrics.thinnings, vec![1, 2, 4]);
        assert_eq!(metrics.fractions.len(), 3);
        assert!(metrics.fractions.iter().all(|f| (0.0..=1.0).contains(f)));
        assert_eq!(metrics.observations, 12);
        // Proxies recorded at supersteps 4, 8, 12.
        assert_eq!(metrics.proxy_supersteps, vec![4, 8, 12]);
        assert_eq!(metrics.proxies.len(), 3);
        assert!(metrics.wall_clock.as_nanos() > 0);
    }

    #[test]
    fn proxy_stride_zero_disables_the_trace() {
        let graph = gnp(&mut rng_from_seed(8), 40, 0.1);
        let mut sink = MetricsSink::new(&graph, &[1], 0);
        let outcome = sink.outcome();
        let spec =
            JobSpec::new("p0", GraphSource::InMemory(graph.clone()), ChainSpec::new("seq-es"))
                .supersteps(4)
                .thinning(1)
                .seed(1);
        run_job(default_registry(), &spec, &mut sink, None, &JobControl::new(), None).unwrap();
        let metrics = outcome.lock().unwrap().clone().unwrap();
        assert!(metrics.proxies.is_empty());
        assert!(metrics.proxy_supersteps.is_empty());
    }
}
