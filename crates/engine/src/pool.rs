//! Job execution: the one driver every engine job runs through.

use crate::checkpoint::{Checkpoint, CheckpointSink};
use crate::control::JobControl;
use crate::error::EngineError;
use crate::job::JobSpec;
use crate::sink::{SampleContext, SampleSink};
use gesmc_core::ChainRegistry;
use std::time::{Duration, Instant};

/// What a finished job reports back.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Job name.
    pub job: String,
    /// Chain name (`SeqES`, `ParGlobalES`, …).
    pub algorithm: String,
    /// Superstep the run started from (0, or the checkpoint's counter).
    pub resumed_from: u64,
    /// Superstep the run finished at (the job's total).
    pub supersteps: u64,
    /// Samples emitted over the job's lifetime (including before a resume).
    pub samples: u64,
    /// Switches requested across the supersteps of this run.
    pub requested: u64,
    /// Switches legally applied across the supersteps of this run.
    pub legal: u64,
    /// Checkpoints written during this run.
    pub checkpoints: u64,
    /// Wall-clock duration of this run.
    pub duration: Duration,
}

impl JobReport {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let acceptance = if self.requested == 0 {
            0.0
        } else {
            100.0 * self.legal as f64 / self.requested as f64
        };
        format!(
            "{}: {} supersteps {}..{}, {} samples, {:.1}% of {} switches legal, {:.3} s",
            self.job,
            self.algorithm,
            self.resumed_from,
            self.supersteps,
            self.samples,
            acceptance,
            self.requested,
            self.duration.as_secs_f64()
        )
    }
}

/// Run one job to completion, resolving its chain against `registry`.
///
/// Drives the chain superstep by superstep, streaming every `thinning`-th
/// graph into `sink` (or only the final graph when `thinning` is 0),
/// verifying that each emitted sample preserves the input degree sequence,
/// and writing periodic checkpoints when the spec asks for them.  With
/// `resume`, the chain named by the checkpoint header is rebuilt, its state
/// restored, and the run continues at its superstep counter — bit-identically
/// to a run that was never interrupted.
///
/// A [`JobSpec::threads`] budget runs the job inside its own bounded rayon
/// pool, carrying the calling thread's trace context into it, so several
/// parallel chains can share the machine without oversubscribing it.
///
/// `control` is consulted once per superstep, so observers can poll progress
/// ([`JobControl::progress`]) and request cancellation
/// ([`JobControl::request_cancel`]) while the job runs.  A cancel surfaces as
/// [`EngineError::Cancelled`] naming the last completed superstep; the sink
/// keeps every sample emitted before the cancel, and a job that checkpoints
/// periodically can be resumed past a cancel like past any interruption.
///
/// Periodic checkpoints follow [`JobSpec::checkpoint_every`]: each capture is
/// written to [`JobSpec::checkpoint_dir`] when set, then offered to
/// `checkpoints` when given (with a sink, checkpoints are captured even
/// without a directory — the sink owns storage).
pub fn run_job(
    registry: &ChainRegistry,
    spec: &JobSpec,
    sink: &mut dyn SampleSink,
    resume: Option<&Checkpoint>,
    control: &JobControl,
    checkpoints: Option<&mut (dyn CheckpointSink + '_)>,
) -> Result<JobReport, EngineError> {
    let Some(threads) = spec.threads else {
        return drive(registry, spec, sink, resume, control, checkpoints);
    };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|e| EngineError::Graph(format!("cannot build rayon pool: {e}")))?;
    // install() may move to a pool thread: the trace context must be
    // installed there, not only on the calling thread.
    let trace = gesmc_obs::trace::current_context();
    pool.install(|| {
        gesmc_obs::trace::with_context_opt(trace, || {
            drive(registry, spec, sink, resume, control, checkpoints)
        })
    })
}

/// The superstep loop of [`run_job`], on the current thread and rayon pool.
fn drive(
    registry: &ChainRegistry,
    spec: &JobSpec,
    sink: &mut dyn SampleSink,
    resume: Option<&Checkpoint>,
    control: &JobControl,
    mut checkpoint_sink: Option<&mut (dyn CheckpointSink + '_)>,
) -> Result<JobReport, EngineError> {
    let start = Instant::now();

    // The spec a resumed run re-checkpoints under is the checkpoint's own
    // (it may carry chain-specific parameters the caller's JobSpec lacks).
    let algorithm_spec = match resume {
        Some(checkpoint) => checkpoint.chain_spec(),
        None => spec.algorithm.clone(),
    };
    let (mut chain, resumed_from, mut samples_emitted) = match resume {
        Some(checkpoint) => {
            let graph = checkpoint.snapshot.graph()?;
            let mut chain =
                registry.build_with_config(&algorithm_spec, graph, checkpoint.snapshot.config())?;
            chain.restore(&checkpoint.snapshot)?;
            (chain, checkpoint.snapshot.supersteps_done, checkpoint.samples_emitted)
        }
        None => {
            let graph = spec.source.load()?;
            (registry.build(&spec.algorithm, graph, spec.seed)?, 0, 0)
        }
    };

    // Every emitted sample must preserve the input's degree sequence; compute
    // the reference once.
    let degrees = chain.graph().degrees();

    // Per-chain superstep latency plus workspace-wide emit/capture meters.
    // Resolved once per job; the per-superstep cost is two clock reads and
    // three relaxed atomic adds into a thread-private histogram shard.
    let superstep_hist = gesmc_obs::histogram_with(
        "gesmc_superstep_duration_seconds",
        "Wall time of one Markov-chain superstep.",
        &[("chain", chain.name())],
    );
    let samples_counter = gesmc_obs::counter(
        "gesmc_samples_emitted_total",
        "Thinned samples emitted to sinks by the engine.",
    );
    let capture_hist = gesmc_obs::histogram(
        "gesmc_checkpoint_capture_duration_seconds",
        "Wall time to capture (and optionally write) one engine checkpoint.",
    );

    let mut requested = 0u64;
    let mut legal = 0u64;
    let mut checkpoints = 0u64;

    control.set_total(spec.supersteps);
    control.record_start(resumed_from);

    // One trace span for the whole superstep loop (when the submitting
    // request was traced) — per-superstep spans would swamp the bounded
    // trace buffers on long jobs; the per-superstep histogram keeps the
    // fine-grained timing.
    let mut loop_span = gesmc_obs::trace::child_of_current("supersteps");
    if let Some(span) = loop_span.as_mut() {
        span.annotate("job", spec.name.clone());
        span.annotate("chain", chain.name());
        span.annotate("supersteps", (spec.supersteps.saturating_sub(resumed_from)).to_string());
    }
    let loop_result = (|| -> Result<(), EngineError> {
        for step in resumed_from + 1..=spec.supersteps {
            if control.is_cancel_requested() {
                return Err(EngineError::Cancelled { job: spec.name.clone(), superstep: step - 1 });
            }
            let stats = gesmc_obs::span!(superstep_hist, { chain.superstep() });
            requested += stats.requested as u64;
            legal += stats.legal as u64;
            control.record(step);

            let emit = if spec.thinning == 0 {
                step == spec.supersteps
            } else {
                step % spec.thinning == 0
            };
            if emit {
                let sample = chain.graph();
                if sample.degrees() != degrees {
                    return Err(EngineError::DegreesViolated {
                        job: spec.name.clone(),
                        superstep: step,
                    });
                }
                let ctx = SampleContext {
                    job: &spec.name,
                    superstep: step,
                    sample_index: samples_emitted,
                };
                sink.emit(&ctx, &sample)?;
                samples_emitted += 1;
                samples_counter.inc();
            }

            let due = spec
                .checkpoint_every
                .is_some_and(|every| every > 0 && step % every == 0 && step < spec.supersteps);
            if due && (spec.checkpoint_dir.is_some() || checkpoint_sink.is_some()) {
                let mut ckpt_span = gesmc_obs::trace::child_of_current("checkpoint");
                if let Some(span) = ckpt_span.as_mut() {
                    span.annotate("superstep", step.to_string());
                }
                let capture_timer = gesmc_obs::Timer::start(&capture_hist);
                let checkpoint = Checkpoint::capture(
                    &spec.name,
                    chain.as_ref(),
                    &algorithm_spec,
                    spec.supersteps,
                    spec.thinning,
                    samples_emitted,
                )?;
                if let Some(dir) = &spec.checkpoint_dir {
                    checkpoint.write_to_file(dir.join(format!("{}.ckpt", spec.name)))?;
                }
                if let Some(hook) = checkpoint_sink.as_deref_mut() {
                    hook.store(&checkpoint)?;
                }
                drop(capture_timer);
                checkpoints += 1;
            }
        }
        Ok(())
    })();
    if loop_result.is_err() {
        if let Some(span) = loop_span.as_mut() {
            span.set_error();
        }
    }
    drop(loop_span);
    loop_result?;

    let report = JobReport {
        job: spec.name.clone(),
        algorithm: chain.name().to_string(),
        resumed_from,
        supersteps: spec.supersteps,
        samples: samples_emitted,
        requested,
        legal,
        checkpoints,
        duration: start.elapsed(),
    };
    gesmc_obs::debug!(
        target: "gesmc_engine",
        id: spec.name,
        "job finished: chain={} resumed_from={} supersteps={} samples={} elapsed={:.3}s",
        report.algorithm,
        report.resumed_from,
        report.supersteps,
        report.samples,
        report.duration.as_secs_f64()
    );
    sink.finish(&report)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_registry;
    use crate::job::GraphSource;
    use crate::service::{JobState, QueuedJob, ServicePool};
    use crate::sink::{CallbackSink, MemorySink, NullSink};
    use gesmc_core::ChainSpec;
    use gesmc_graph::gen::gnp;
    use gesmc_graph::EdgeListGraph;
    use gesmc_randx::rng_from_seed;
    use std::sync::{Arc, Mutex};

    fn test_graph(seed: u64) -> EdgeListGraph {
        gnp(&mut rng_from_seed(seed), 70, 0.1)
    }

    fn spec_for(name: &str, algo: &str, graph: EdgeListGraph) -> JobSpec {
        JobSpec::new(name, GraphSource::InMemory(graph), ChainSpec::new(algo))
            .supersteps(8)
            .thinning(2)
            .seed(3)
    }

    #[test]
    fn thinned_samples_are_streamed_and_degree_preserving() {
        let graph = test_graph(1);
        let degrees = graph.degrees();
        let spec = spec_for("thin", "seq-global-es", graph);
        let mut sink = MemorySink::new();
        let store = sink.store();
        let report =
            run_job(default_registry(), &spec, &mut sink, None, &JobControl::new(), None).unwrap();
        assert_eq!(report.samples, 4);
        assert_eq!(report.resumed_from, 0);
        assert!(report.legal > 0);
        let samples = store.lock().unwrap();
        assert_eq!(samples.len(), 4);
        // Supersteps 2, 4, 6, 8; every sample keeps the degree sequence and
        // consecutive samples differ (the chain is actually moving).
        assert_eq!(samples.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![2, 4, 6, 8]);
        for (_, sample) in samples.iter() {
            assert_eq!(sample.degrees(), degrees);
            assert!(sample.validate().is_ok());
        }
        assert_ne!(samples[0].1.canonical_edges(), samples[3].1.canonical_edges());
    }

    #[test]
    fn thinning_zero_emits_only_the_final_graph() {
        let spec = spec_for("final", "seq-es", test_graph(2)).thinning(0);
        let mut sink = MemorySink::new();
        let store = sink.store();
        let report =
            run_job(default_registry(), &spec, &mut sink, None, &JobControl::new(), None).unwrap();
        assert_eq!(report.samples, 1);
        assert_eq!(store.lock().unwrap()[0].0, 8);
    }

    #[test]
    fn periodic_checkpoints_are_written_and_resumable() {
        let dir = std::env::temp_dir().join("gesmc-pool-ckpt-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let graph = test_graph(3);
        let spec =
            spec_for("ck", "par-global-es", graph.clone()).supersteps(10).checkpoint(4, &dir);
        let report = run_job(
            default_registry(),
            &spec,
            &mut NullSink::default(),
            None,
            &JobControl::new(),
            None,
        )
        .unwrap();
        // Steps 4 and 8 checkpoint; step 10 is final and does not.
        assert_eq!(report.checkpoints, 2);

        let checkpoint = Checkpoint::read_from_file(dir.join("ck.ckpt")).unwrap();
        assert_eq!(checkpoint.snapshot.supersteps_done, 8);

        // Resume from the on-disk checkpoint and compare with the
        // uninterrupted run's final graph.
        let mut resumed_sink = MemorySink::new();
        let store = resumed_sink.store();
        let resumed = run_job(
            default_registry(),
            &spec,
            &mut resumed_sink,
            Some(&checkpoint),
            &JobControl::new(),
            None,
        )
        .unwrap();
        assert_eq!(resumed.resumed_from, 8);
        assert_eq!(resumed.samples, checkpoint.samples_emitted + 1);

        let mut uninterrupted_sink = MemorySink::new();
        let full_store = uninterrupted_sink.store();
        run_job(
            default_registry(),
            &spec.clone().checkpoint(0, &dir),
            &mut uninterrupted_sink,
            None,
            &JobControl::new(),
            None,
        )
        .unwrap();

        let resumed_final = store.lock().unwrap().last().unwrap().1.clone();
        let full_final = full_store.lock().unwrap().last().unwrap().1.clone();
        assert_eq!(resumed_final.canonical_edges(), full_final.canonical_edges());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn per_job_thread_budget_is_applied() {
        // The sink's emit runs inside the job's rayon scope, so it observes
        // the bounded pool run_job installed for the job, whether a service
        // worker or the caller itself runs it.
        let observed = Arc::new(Mutex::new(Vec::new()));
        let sink = || {
            let observed = Arc::clone(&observed);
            CallbackSink::new(move |_ctx: &SampleContext<'_>, _g: &EdgeListGraph| {
                observed.lock().unwrap().push(rayon::current_num_threads());
                Ok(())
            })
        };
        let spec = spec_for("budget", "par-global-es", test_graph(4)).thinning(0);
        let pool = ServicePool::start(1, 0);
        let handle =
            pool.submit(QueuedJob::new(spec.clone().threads(2), Box::new(sink()))).unwrap();
        assert!(matches!(handle.wait(), JobState::Done(_)));
        for threads in [1, 3] {
            let budgeted = spec.clone().threads(threads);
            run_job(default_registry(), &budgeted, &mut sink(), None, &JobControl::new(), None)
                .unwrap();
        }
        assert_eq!(*observed.lock().unwrap(), vec![2, 1, 3]);
    }

    #[test]
    fn resume_hands_the_checkpointed_spec_back_to_the_factory() {
        // A chain whose factory REQUIRES a chain-specific parameter: if the
        // resume path dropped the spec's params, rebuilding from the
        // checkpoint would fail here.
        use gesmc_core::{
            ChainError, ChainInfo, ChainRegistry, ChainSpec, ParamInfo, ParamKind, SeqES,
            SwitchingConfig,
        };
        fn picky_factory(
            graph: EdgeListGraph,
            config: SwitchingConfig,
            spec: &ChainSpec,
        ) -> Result<Box<dyn gesmc_core::EdgeSwitching + Send>, ChainError> {
            spec.param("depth").ok_or_else(|| ChainError::BadParam {
                chain: spec.name.clone(),
                param: "depth".to_string(),
                message: "required parameter missing".to_string(),
            })?;
            Ok(Box::new(SeqES::new(graph, config)))
        }
        let mut registry = ChainRegistry::new();
        registry.register(ChainInfo {
            name: "picky-es",
            chain_name: "SeqES",
            aliases: &[],
            summary: "test chain with a required parameter",
            exact: true,
            parallel: false,
            snapshot: true,
            params: &[ParamInfo {
                name: "depth",
                kind: ParamKind::Int,
                default: "-",
                doc: "required",
            }],
            factory: picky_factory,
        });

        let dir = std::env::temp_dir().join("gesmc-pool-picky-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = JobSpec::new(
            "picky",
            GraphSource::InMemory(test_graph(6)),
            ChainSpec::parse("picky-es?depth=2").unwrap(),
        )
        .supersteps(6)
        .checkpoint(3, &dir);
        run_job(&registry, &spec, &mut NullSink::default(), None, &JobControl::new(), None)
            .unwrap();

        let checkpoint = Checkpoint::read_from_file(dir.join("picky.ckpt")).unwrap();
        assert_eq!(checkpoint.chain_spec().to_string(), "picky-es?depth=2");
        let report = run_job(
            &registry,
            &spec,
            &mut NullSink::default(),
            Some(&checkpoint),
            &JobControl::new(),
            None,
        )
        .unwrap();
        assert_eq!(report.resumed_from, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_jobs_stop_between_supersteps_and_keep_prior_samples() {
        let control = Arc::new(JobControl::new());
        // Cancel from inside the sink after the second sample: the driver
        // observes the flag before the next superstep.
        let control_in_sink = Arc::clone(&control);
        let seen = Arc::new(Mutex::new(0u64));
        let seen_in_sink = Arc::clone(&seen);
        let mut sink = CallbackSink::new(move |ctx: &SampleContext<'_>, _g: &EdgeListGraph| {
            *seen_in_sink.lock().unwrap() += 1;
            if ctx.sample_index == 1 {
                control_in_sink.request_cancel();
            }
            Ok(())
        });
        let spec = spec_for("cancel", "seq-es", test_graph(7)).supersteps(100).thinning(2);
        let err = run_job(default_registry(), &spec, &mut sink, None, &control, None).unwrap_err();
        match err {
            EngineError::Cancelled { job, superstep } => {
                assert_eq!(job, "cancel");
                // Sample 1 lands after superstep 4; the cancel is observed
                // before superstep 5 runs.
                assert_eq!(superstep, 4);
            }
            other => panic!("expected Cancelled, got {other}"),
        }
        assert_eq!(*seen.lock().unwrap(), 2, "samples before the cancel are kept");
        let progress = control.progress();
        assert_eq!(progress.superstep, 4);
        assert_eq!(progress.total, 100);
    }

    #[test]
    fn report_summary_is_informative() {
        let spec = spec_for("sum", "seq-global-es", test_graph(5));
        let report = run_job(
            default_registry(),
            &spec,
            &mut NullSink::default(),
            None,
            &JobControl::new(),
            None,
        )
        .unwrap();
        let line = report.summary();
        assert!(line.contains("sum"));
        assert!(line.contains("SeqGlobalES"));
        assert!(line.contains("4 samples"));
    }
}
