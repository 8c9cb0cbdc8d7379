//! Service counters and their Prometheus text rendering (`GET /metrics`).

use crate::cache::SampleCache;
use crate::cluster::ClusterMetrics;
use crate::persist::PersistMetrics;
use gesmc_engine::ServicePool;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Monotonic HTTP-layer counters plus the scrape-time gauges sourced from
/// the pool and cache.
pub struct Metrics {
    start: Instant,
    requests: AtomicU64,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_shed: AtomicU64,
    responses_5xx: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Zeroed counters, uptime starting now.
    pub fn new() -> Self {
        Self {
            start: Instant::now(),
            requests: AtomicU64::new(0),
            responses_2xx: AtomicU64::new(0),
            responses_4xx: AtomicU64::new(0),
            responses_shed: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
        }
    }

    /// Count one parsed request.
    pub fn count_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one written response by status class (429 separately: it is the
    /// load-shedding signal operators alert on).
    pub fn count_response(&self, status: u16) {
        let counter = match status {
            429 => &self.responses_shed,
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests shed with 429 so far.
    pub fn shed_total(&self) -> u64 {
        self.responses_shed.load(Ordering::Relaxed)
    }

    /// Render the Prometheus exposition text.  `persist` is the durability
    /// layer's counters; `None` (no `--data-dir`) omits the
    /// `gesmc_persist_*` family entirely.  Likewise `cluster` is the ring's
    /// snapshot; `None` (standalone node) omits the `gesmc_cluster_*`
    /// family.
    pub fn render(
        &self,
        pool: &ServicePool,
        cache: &SampleCache,
        jobs_resident: usize,
        persist: Option<&PersistMetrics>,
        cluster: Option<&ClusterMetrics>,
    ) -> String {
        // One single-sample family.  A `_total` family is a monotone
        // counter, by the Prometheus naming rule
        // `scripts/validate_prometheus.sh` holds; the rest are gauges.
        fn family(out: &mut String, name: &str, help: &str, value: f64) {
            let kind = if name.ends_with("_total") { "counter" } else { "gauge" };
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            if value.fract() == 0.0 {
                let _ = writeln!(out, "{name} {value:.0}");
            } else {
                let _ = writeln!(out, "{name} {value}");
            }
        }
        let mut out = String::with_capacity(2048);

        let _ = writeln!(out, "# HELP gesmc_build_info Build metadata as constant labels.");
        let _ = writeln!(out, "# TYPE gesmc_build_info gauge");
        let _ = writeln!(out, "gesmc_build_info{{version=\"{}\"}} 1", env!("CARGO_PKG_VERSION"));
        let uptime = self.start.elapsed().as_secs_f64();
        family(&mut out, "gesmc_uptime_seconds", "Seconds since the server started.", uptime);
        family(
            &mut out,
            "gesmc_http_requests_total",
            "Requests parsed off the wire.",
            self.requests.load(Ordering::Relaxed) as f64,
        );
        let _ =
            writeln!(out, "# HELP gesmc_http_responses_total Responses written, by status class.");
        let _ = writeln!(out, "# TYPE gesmc_http_responses_total counter");
        for (class, counter) in [
            ("2xx", &self.responses_2xx),
            ("4xx", &self.responses_4xx),
            ("429", &self.responses_shed),
            ("5xx", &self.responses_5xx),
        ] {
            let _ = writeln!(
                out,
                "gesmc_http_responses_total{{class=\"{class}\"}} {}",
                counter.load(Ordering::Relaxed)
            );
        }

        family(
            &mut out,
            "gesmc_queue_depth",
            "Jobs waiting in the engine admission queue.",
            pool.queue_depth() as f64,
        );
        family(
            &mut out,
            "gesmc_jobs_running",
            "Jobs executing on engine workers.",
            pool.running() as f64,
        );
        let (completed, failed, cancelled) = pool.job_counts();
        family(
            &mut out,
            "gesmc_jobs_completed_total",
            "Jobs finished successfully.",
            completed as f64,
        );
        family(&mut out, "gesmc_jobs_failed_total", "Jobs that failed.", failed as f64);
        family(&mut out, "gesmc_jobs_cancelled_total", "Jobs cancelled.", cancelled as f64);
        family(
            &mut out,
            "gesmc_jobs_resident",
            "Job records retained in the store.",
            jobs_resident as f64,
        );

        let stats = cache.stats();
        family(
            &mut out,
            "gesmc_cache_entries",
            "Samples resident in the warm cache.",
            stats.entries as f64,
        );
        family(
            &mut out,
            "gesmc_cache_capacity",
            "Configured warm-cache capacity.",
            cache.capacity() as f64,
        );
        family(
            &mut out,
            "gesmc_cache_hits_total",
            "Warm-cache lookups that hit.",
            stats.hits as f64,
        );
        family(
            &mut out,
            "gesmc_cache_misses_total",
            "Warm-cache lookups that missed.",
            stats.misses as f64,
        );
        family(
            &mut out,
            "gesmc_cache_evictions_total",
            "Warm-cache LRU evictions.",
            stats.evictions as f64,
        );
        let lookups = stats.hits + stats.misses;
        let hit_rate = if lookups == 0 { 0.0 } else { stats.hits as f64 / lookups as f64 };
        family(&mut out, "gesmc_cache_hit_rate", "Lifetime warm-cache hit fraction.", hit_rate);

        let supersteps = pool.supersteps_total();
        family(
            &mut out,
            "gesmc_supersteps_total",
            "Chain supersteps completed across all jobs.",
            supersteps as f64,
        );
        let rate = if uptime > 0.0 { supersteps as f64 / uptime } else { 0.0 };
        family(&mut out, "gesmc_supersteps_per_second", "Lifetime average superstep rate.", rate);

        if let Some(persist) = persist {
            for (name, help, value) in [
                (
                    "gesmc_persist_errors_total",
                    "Persistence operations that failed (absorbed or refused).",
                    persist.errors(),
                ),
                (
                    "gesmc_persist_journal_entries_total",
                    "Job journal entries appended.",
                    persist.journal_entries(),
                ),
                (
                    "gesmc_persist_journal_skipped_total",
                    "Journal entries skipped during boot replay (torn or corrupt).",
                    persist.journal_skipped(),
                ),
                (
                    "gesmc_persist_checkpoints_total",
                    "Checkpoints written for running jobs.",
                    persist.checkpoints(),
                ),
                (
                    "gesmc_persist_samples_spilled_total",
                    "Samples spilled to disk (job samples and cache entries).",
                    persist.samples_spilled(),
                ),
                (
                    "gesmc_persist_cache_rehydrated_total",
                    "Cache entries rehydrated from disk.",
                    persist.cache_rehydrated(),
                ),
                (
                    "gesmc_persist_jobs_resumed_total",
                    "In-flight jobs resumed on boot.",
                    persist.jobs_resumed(),
                ),
                (
                    "gesmc_persist_jobs_restored_total",
                    "Finished job records restored on boot.",
                    persist.jobs_restored(),
                ),
            ] {
                family(&mut out, name, help, value as f64);
            }
        }

        if let Some(cluster) = cluster {
            family(
                &mut out,
                "gesmc_cluster_peers",
                "Cluster size (peers, this node included).",
                cluster.peers as f64,
            );
            let _ = writeln!(
                out,
                "# HELP gesmc_cluster_peer_healthy Whether a remote peer is healthy (1) or ejected (0)."
            );
            let _ = writeln!(out, "# TYPE gesmc_cluster_peer_healthy gauge");
            for (peer, healthy) in &cluster.peer_health {
                let _ = writeln!(
                    out,
                    "gesmc_cluster_peer_healthy{{peer=\"{peer}\"}} {}",
                    u8::from(*healthy)
                );
            }
            family(
                &mut out,
                "gesmc_cluster_forwarded_total",
                "Sample requests forwarded to their ring owner.",
                cluster.forwarded as f64,
            );
            family(
                &mut out,
                "gesmc_cluster_forward_fallbacks_total",
                "Forwards that fell back to local computation.",
                cluster.fallbacks as f64,
            );
            family(
                &mut out,
                "gesmc_cluster_forwards_received_total",
                "Forwarded sample requests received from peers.",
                cluster.received as f64,
            );
        }

        // Process self-telemetry from procfs; each gauge is omitted (not
        // zeroed) on platforms where its /proc source is unavailable.
        let telemetry = gesmc_obs::self_telemetry();
        for (name, help, value) in [
            (
                "gesmc_process_peak_rss_bytes",
                "Peak resident set size of this process (VmHWM).",
                telemetry.peak_rss_bytes,
            ),
            (
                "gesmc_process_open_fds",
                "File descriptors currently open in this process.",
                telemetry.open_fds,
            ),
            (
                "gesmc_process_io_read_bytes_total",
                "Bytes this process fetched from the storage layer.",
                telemetry.read_bytes,
            ),
            (
                "gesmc_process_io_write_bytes_total",
                "Bytes this process sent to the storage layer.",
                telemetry.write_bytes,
            ),
        ] {
            if let Some(value) = value {
                family(&mut out, name, help, value as f64);
            }
        }

        // The observability registry (latency histograms and event counters
        // from obs-instrumented code paths) renders last so the gauge lines
        // above keep their exact shape for line-anchored scrapers.
        out.push_str(&gesmc_obs::render_prometheus());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesmc_core::ChainSpec;
    use gesmc_engine::{GraphSource, JobSpec, NullSink, QueuedJob};
    use gesmc_graph::gen::gnp;
    use gesmc_randx::rng_from_seed;

    #[test]
    fn render_reflects_counters_and_pool_state() {
        let metrics = Metrics::new();
        metrics.count_request();
        metrics.count_request();
        metrics.count_response(200);
        metrics.count_response(429);
        metrics.count_response(404);
        metrics.count_response(500);
        assert_eq!(metrics.shed_total(), 1);

        let pool = gesmc_engine::ServicePool::start(1, 0);
        let graph = gnp(&mut rng_from_seed(1), 40, 0.15);
        let spec =
            JobSpec::new("m", GraphSource::InMemory(graph), ChainSpec::new("seq-es")).supersteps(5);
        pool.submit(QueuedJob::new(spec, Box::new(NullSink::default()))).unwrap().wait();
        let cache = SampleCache::new(4);

        let text = metrics.render(&pool, &cache, 3, None, None);
        assert!(
            !text.contains("gesmc_persist_"),
            "persistence gauges must be absent without a data dir"
        );
        assert!(
            !text.contains("gesmc_cluster_"),
            "cluster gauges must be absent on a standalone node"
        );
        let persist = PersistMetrics::default();
        let text_with_persist = metrics.render(&pool, &cache, 3, Some(&persist), None);
        assert!(text_with_persist.contains("gesmc_persist_errors_total 0"));
        assert!(text_with_persist.contains("gesmc_persist_journal_entries_total 0"));
        let cluster = ClusterMetrics {
            peers: 3,
            peer_health: vec![("n2:1".to_string(), true), ("n3:1".to_string(), false)],
            forwarded: 7,
            fallbacks: 2,
            received: 4,
        };
        let text_with_cluster = metrics.render(&pool, &cache, 3, None, Some(&cluster));
        assert!(text_with_cluster.contains("gesmc_cluster_peers 3"));
        assert!(text_with_cluster.contains("gesmc_cluster_peer_healthy{peer=\"n2:1\"} 1"));
        assert!(text_with_cluster.contains("gesmc_cluster_peer_healthy{peer=\"n3:1\"} 0"));
        assert!(text_with_cluster.contains("gesmc_cluster_forwarded_total 7"));
        assert!(text_with_cluster.contains("gesmc_cluster_forward_fallbacks_total 2"));
        assert!(text_with_cluster.contains("gesmc_cluster_forwards_received_total 4"));
        assert!(text.contains("gesmc_http_requests_total 2"));
        assert!(text.contains("gesmc_http_responses_total{class=\"2xx\"} 1"));
        assert!(text.contains("gesmc_http_responses_total{class=\"429\"} 1"));
        assert!(text.contains("gesmc_http_responses_total{class=\"4xx\"} 1"));
        assert!(text.contains("gesmc_http_responses_total{class=\"5xx\"} 1"));
        assert!(text.contains("gesmc_jobs_completed_total 1"));
        assert!(text.contains("gesmc_jobs_resident 3"));
        assert!(text.contains("gesmc_supersteps_total 5"));
        assert!(text.contains("gesmc_cache_capacity 4"));
        assert!(text.contains("# TYPE gesmc_uptime_seconds gauge"));
        for text in [&text, &text_with_persist, &text_with_cluster] {
            for family in text.lines().filter_map(|line| line.strip_prefix("# TYPE ")) {
                let (name, kind) = family.split_once(' ').unwrap();
                if name.ends_with("_total") {
                    assert_eq!(kind, "counter", "{name} is monotone");
                }
            }
        }
        #[cfg(target_os = "linux")]
        {
            assert!(text.contains("gesmc_process_peak_rss_bytes"));
            assert!(text.contains("gesmc_process_open_fds"));
        }
        assert!(text
            .contains(&format!("gesmc_build_info{{version=\"{}\"}} 1", env!("CARGO_PKG_VERSION"))));
        // The obs registry render is appended after every gauge above.
        gesmc_obs::histogram("gesmc_metrics_render_test_seconds", "Test-only series.")
            .record_ns(512);
        let text = metrics.render(&pool, &cache, 3, None, None);
        assert!(text.contains("# TYPE gesmc_metrics_render_test_seconds histogram"));
        assert!(
            text.find("gesmc_uptime_seconds").unwrap()
                < text.find("gesmc_metrics_render_test_seconds").unwrap(),
            "obs families must render after the built-in gauges"
        );
        pool.shutdown();
    }
}
