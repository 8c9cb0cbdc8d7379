//! Job execution: the one driver every engine job runs through.

use crate::checkpoint::{
    self, publish, Checkpoint, CheckpointReader, CheckpointSink, CheckpointWriter,
};
use crate::control::JobControl;
use crate::error::EngineError;
use crate::job::{GraphSource, JobSpec};
use crate::sink::{SampleContext, SampleSink, SampleView};
use gesmc_core::{ChainRegistry, ChainSpec, EdgeSwitching, StoreSwitching, SuperstepStats};
use gesmc_exmem::ExternalEdgeStore;
use gesmc_graph::io::{BinaryEdgeListWriter, BINARY_MAGIC};
use gesmc_graph::StoreIoStats;
use gesmc_obs::Phase;
use std::io::Read;
use std::path::{Path, PathBuf};
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
/// sample into `sink` (or only the final one when `thinning` is 0),
/// verifying that each emitted sample preserves the input degree sequence,
/// and writing periodic checkpoints when the spec asks for them.  With
/// `resume`, the chain named by the checkpoint header is rebuilt, its state
/// restored, and the run continues at its superstep counter — bit-identically
/// to a run that was never interrupted.
///
/// A [`GraphSource::OutOfCore`] job runs the same loop over a store chain
/// from the registry's store factory, streaming samples and checkpoints.
/// It resumes from the checkpoint its source names and checkpoints to
/// [`JobSpec::checkpoint_dir`] only (a [`CheckpointSink`] would need the
/// whole edge array), so it takes neither `resume` nor `checkpoints`.
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

/// The chain a job drives: on the heap, or over a disk-backed store.  The
/// two differ only where the chain is opened, sampled, checkpointed and
/// finished.
enum JobChain {
    Heap(Box<dyn EdgeSwitching + Send>),
    Store { chain: Box<dyn StoreSwitching + Send>, _scratch: Scratch },
}

/// A store's scratch file, removed on drop, so it goes however the job ends
/// (finished, failed, cancelled or panicked): a checkpoint, never the
/// scratch, is what resumes a job.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

impl JobChain {
    fn name(&self) -> &'static str {
        match self {
            JobChain::Heap(chain) => chain.name(),
            JobChain::Store { chain, .. } => chain.name(),
        }
    }

    fn superstep(&mut self) -> SuperstepStats {
        match self {
            JobChain::Heap(chain) => chain.superstep(),
            JobChain::Store { chain, .. } => chain.superstep(),
        }
    }

    fn io_stats(&self) -> Option<StoreIoStats> {
        match self {
            JobChain::Heap(_) => None,
            JobChain::Store { chain, .. } => Some(chain.store_io_stats()),
        }
    }

    /// Hand the current state to `f`: a heap chain's graph, or the store.
    fn with_sample<R>(&mut self, f: impl FnOnce(&SampleView<'_>) -> R) -> R {
        match self {
            JobChain::Heap(chain) => f(&SampleView::from(&chain.graph())),
            JobChain::Store { chain, .. } => f(&SampleView::store(chain.as_mut())),
        }
    }
}

/// Each node's degree in `sample`, counted in one streamed pass; the last
/// slot counts endpoints outside the node range, so those fail a comparison.
fn degree_counts(sample: &SampleView<'_>) -> Vec<u32> {
    let n = sample.num_nodes();
    let mut counts = vec![0u32; n + 1];
    sample.for_each_edge(&mut |edge| {
        counts[(edge.u() as usize).min(n)] += 1;
        counts[(edge.v() as usize).min(n)] += 1;
    });
    counts
}

/// Build the chain of `spec`, or rebuild it from `resume` or an out-of-core
/// checkpoint: the chain, the spec it checkpoints under (a resumed run's is
/// the checkpoint's own, which may carry chain-specific parameters the
/// caller's [`JobSpec`] lacks), the superstep it starts after, and the
/// samples emitted before that.
fn open(
    registry: &ChainRegistry,
    spec: &JobSpec,
    resume: Option<&Checkpoint>,
) -> Result<(JobChain, ChainSpec, u64, u64), EngineError> {
    let GraphSource::OutOfCore { path, scratch, memory_budget } = &spec.source else {
        return Ok(match resume {
            Some(checkpoint) => {
                let algorithm_spec = checkpoint.chain_spec();
                let (graph, config) = (checkpoint.snapshot.graph()?, checkpoint.snapshot.config());
                let mut chain = registry.build_with_config(&algorithm_spec, graph, config)?;
                chain.restore(&checkpoint.snapshot)?;
                let done = checkpoint.snapshot.supersteps_done;
                (JobChain::Heap(chain), algorithm_spec, done, checkpoint.samples_emitted)
            }
            None => {
                let chain = registry.build(&spec.algorithm, spec.source.load()?, spec.seed)?;
                (JobChain::Heap(chain), spec.algorithm.clone(), 0, 0)
            }
        });
    };
    let mut file = std::fs::File::open(path)
        .map_err(|e| EngineError::Graph(format!("{}: {e}", path.display())))?;
    // A header too short to read matches neither magic.
    let mut magic = [0u8; 8];
    let _ = file.read_exact(&mut magic);
    drop(file);
    // The guard exists before the scratch does, so a failure anywhere below
    // leaves no scratch behind.
    let guard = Scratch(scratch.clone());
    let budget = *memory_budget;
    if &magic == BINARY_MAGIC {
        let mut create_span = gesmc_obs::trace::child_of_current("store_create");
        let store = ExternalEdgeStore::create(path, scratch, budget).map_err(|e| {
            if let Some(span) = create_span.as_mut() {
                span.set_error();
            }
            EngineError::Graph(format!("{}: {e}", path.display()))
        })?;
        if let Some(span) = create_span.as_mut() {
            span.annotate("input", path.display().to_string());
            span.annotate("budget_bytes", budget.to_string());
            span.annotate("max_chunks", store.max_chunks().to_string());
        }
        drop(create_span);
        let chain = registry.build_store(&spec.algorithm, Box::new(store), spec.seed)?;
        return Ok((JobChain::Store { chain, _scratch: guard }, spec.algorithm.clone(), 0, 0));
    }
    if magic != *checkpoint::MAGIC {
        return Err(EngineError::Graph(format!(
            "{}: an out-of-core source must be a binary GESMCEL1 edge list or a GESMCKP1 checkpoint",
            path.display()
        )));
    }
    let mut restore_span = gesmc_obs::trace::child_of_current("checkpoint_restore");
    let restored = restore_scratch(path, scratch);
    if let Some(span) = restore_span.as_mut() {
        match &restored {
            Ok(meta) => span.annotate("resumed_from", meta.snapshot.supersteps_done.to_string()),
            Err(_) => span.set_error(),
        }
    }
    drop(restore_span);
    let meta = restored?;
    let algorithm_spec = meta.chain_spec();
    let store = ExternalEdgeStore::adopt(scratch, budget)
        .map_err(|e| EngineError::Graph(format!("{}: {e}", scratch.display())))?;
    let mut chain = registry.build_store_with_config(
        &algorithm_spec,
        Box::new(store),
        meta.snapshot.config(),
    )?;
    chain.restore_meta(&meta.snapshot)?;
    let done = meta.snapshot.supersteps_done;
    Ok((JobChain::Store { chain, _scratch: guard }, algorithm_spec, done, meta.samples_emitted))
}

/// Stream the edges of the checkpoint at `path` into a fresh `scratch` edge
/// list and return its metadata.  The trailing checksum is verified before
/// the scratch is published: on a mismatch, `?` drops the unfinished writer,
/// which removes its temp file.
fn restore_scratch(path: &Path, scratch: &Path) -> Result<Checkpoint, EngineError> {
    let failed = |e| EngineError::Graph(format!("{}: {e}", scratch.display()));
    let mut reader = CheckpointReader::open(path)?;
    let num_nodes = reader.meta().snapshot.num_nodes as u64;
    let mut writer = BinaryEdgeListWriter::create(scratch, num_nodes).map_err(failed)?;
    for _ in 0..reader.num_edges() {
        writer
            .push(reader.next_edge()?)
            .map_err(|e| EngineError::Checkpoint(format!("invalid checkpoint edge: {e}")))?;
    }
    let meta = reader.finish()?;
    writer.finish().map_err(failed)?;
    Ok(meta)
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
    if matches!(spec.source, GraphSource::OutOfCore { .. })
        && (resume.is_some() || checkpoint_sink.is_some())
    {
        return Err(EngineError::Checkpoint(
            "an out-of-core job resumes from its source and checkpoints to its directory".into(),
        ));
    }
    let (mut chain, algorithm_spec, resumed_from, mut samples_emitted) =
        open(registry, spec, resume)?;

    // Per-chain superstep latency plus workspace-wide emit/capture meters.
    // Resolved once per job; the per-superstep cost is two clock reads and
    // two relaxed atomic adds into a thread-private histogram shard.
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

    // Every emitted sample must preserve the input's degree sequence; count
    // the reference once.
    let reference = chain.with_sample(degree_counts);
    let mut emit = |chain: &mut JobChain, superstep: u64, samples_emitted: &mut u64| {
        let ctx = SampleContext { job: &spec.name, superstep, sample_index: *samples_emitted };
        chain.with_sample(|sample| {
            if degree_counts(sample) != reference {
                return Err(EngineError::DegreesViolated { job: spec.name.clone(), superstep });
            }
            sink.emit(&ctx, sample)
        })?;
        *samples_emitted += 1;
        samples_counter.inc();
        Ok::<(), EngineError>(())
    };

    let mut requested = 0u64;
    let mut legal = 0u64;
    let mut checkpoints = 0u64;

    control.set_total(spec.supersteps);
    control.record_start(resumed_from);

    // One trace span for the whole superstep loop (when the submitting
    // request was traced) — per-superstep spans would swamp the bounded
    // trace buffers on long jobs; the per-superstep histogram keeps the
    // fine-grained timing.  Out-of-core loops also record their budget and
    // the store's chunk traffic.
    let mut loop_span = gesmc_obs::trace::child_of_current("supersteps");
    if let Some(span) = loop_span.as_mut() {
        span.annotate("job", spec.name.clone());
        span.annotate("chain", chain.name());
        span.annotate("supersteps", (spec.supersteps.saturating_sub(resumed_from)).to_string());
        if let GraphSource::OutOfCore { memory_budget, .. } = &spec.source {
            span.annotate("budget_bytes", memory_budget.to_string());
        }
    }
    let io_before = chain.io_stats();
    let loop_result = (|| -> Result<(), EngineError> {
        // A run without supersteps still emits its final (= initial) state.
        if spec.supersteps == 0 && spec.thinning == 0 {
            emit(&mut chain, 0, &mut samples_emitted)?;
        }
        for step in resumed_from + 1..=spec.supersteps {
            if control.is_cancel_requested() {
                return Err(EngineError::Cancelled { job: spec.name.clone(), superstep: step - 1 });
            }
            let stats = {
                let _phase = Phase::start(&superstep_hist);
                chain.superstep()
            };
            requested += stats.requested as u64;
            legal += stats.legal as u64;
            control.record(step);

            let due_sample = if spec.thinning == 0 {
                step == spec.supersteps
            } else {
                step % spec.thinning == 0
            };
            if due_sample {
                emit(&mut chain, step, &mut samples_emitted)?;
            }

            let due = spec
                .checkpoint_every
                .is_some_and(|every| every > 0 && step % every == 0 && step < spec.supersteps);
            if due && (spec.checkpoint_dir.is_some() || checkpoint_sink.is_some()) {
                let mut phase =
                    Phase::traced(&capture_hist, gesmc_obs::trace::child_of_current("checkpoint"));
                if let Some(span) = phase.span_mut() {
                    span.annotate("superstep", step.to_string());
                }
                let file =
                    spec.checkpoint_dir.as_ref().map(|dir| dir.join(format!("{}.ckpt", spec.name)));
                let captured = (|| -> Result<(), EngineError> {
                    match &mut chain {
                        JobChain::Heap(chain) => {
                            let checkpoint = Checkpoint::capture(
                                &spec.name,
                                chain.as_ref(),
                                &algorithm_spec,
                                spec.supersteps,
                                spec.thinning,
                                samples_emitted,
                            )?;
                            if let Some(file) = &file {
                                checkpoint.write_to_file(file)?;
                            }
                            if let Some(hook) = checkpoint_sink.as_deref_mut() {
                                hook.store(&checkpoint)?;
                            }
                        }
                        // The same bytes as the heap capture, streamed from
                        // the store through the one codec.
                        JobChain::Store { chain, .. } => {
                            let meta = Checkpoint {
                                job_name: spec.name.clone(),
                                snapshot: chain.snapshot_meta(),
                                algorithm_spec: Some(algorithm_spec.clone()),
                                total_supersteps: spec.supersteps,
                                thinning: spec.thinning,
                                samples_emitted,
                            };
                            if let Some(file) = &file {
                                publish(file, |out| {
                                    let num_edges = chain.num_edges() as u64;
                                    let mut writer = CheckpointWriter::new(out, &meta, num_edges)?;
                                    let mut pushed = Ok(());
                                    chain.stream_edges(&mut |edge| {
                                        if pushed.is_ok() {
                                            pushed = writer.push_edge(edge);
                                        }
                                    });
                                    pushed?;
                                    writer.finish().map(drop)
                                })?;
                            }
                        }
                    }
                    Ok(())
                })();
                // Every failure above flags the checkpoint span itself, not
                // only the enclosing superstep loop.
                if captured.is_err() {
                    phase.set_error();
                }
                drop(phase);
                captured?;
                checkpoints += 1;
            }
        }
        Ok(())
    })();
    if let Some(span) = loop_span.as_mut() {
        if let (Some(before), Some(after)) = (io_before, chain.io_stats()) {
            let loaded = after.chunks_loaded.saturating_sub(before.chunks_loaded);
            let written = after.chunks_written.saturating_sub(before.chunks_written);
            span.annotate("chunks_loaded", loaded.to_string());
            span.annotate("chunks_written", written.to_string());
        }
        if loop_result.is_err() {
            span.set_error();
        }
    }
    drop(loop_span);
    loop_result?;

    if let JobChain::Store { chain, .. } = &mut chain {
        chain.flush_store()?;
    }
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
    use crate::sink::{CallbackSink, EdgeListFileSink, MemorySink, NullSink};
    use gesmc_graph::gen::gnp;
    use gesmc_graph::io::{read_edge_list_binary_file, write_edge_list_binary_file};
    use gesmc_graph::EdgeListGraph;
    use gesmc_randx::rng_from_seed;
    use std::sync::{Arc, Mutex};

    fn test_graph(seed: u64) -> EdgeListGraph {
        gnp(&mut rng_from_seed(seed), 70, 0.1)
    }

    /// A fresh directory holding a binary `input.el` of a G(n, p) graph.
    fn out_of_core_setup(dir_name: &str, seed: u64) -> (PathBuf, EdgeListGraph) {
        let dir = std::env::temp_dir().join(dir_name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let graph = gnp(&mut rng_from_seed(seed), 120, 0.07);
        write_edge_list_binary_file(dir.join("input.el"), &graph).unwrap();
        (dir, graph)
    }

    /// An out-of-core source over `path` with its scratch in `dir`.
    fn out_of_core(dir: &Path, path: PathBuf, scratch: &str, memory_budget: usize) -> GraphSource {
        GraphSource::OutOfCore { path, scratch: dir.join(scratch), memory_budget }
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
        let (dir, _) = out_of_core_setup("gesmc-pool-cancel-test", 8);
        let in_memory = spec_for("cancel", "seq-es", test_graph(7));
        let source = out_of_core(&dir, dir.join("input.el"), "cancel.scratch.el", 4096);
        let store =
            JobSpec { source, algorithm: ChainSpec::new("seq-es-ext"), ..in_memory.clone() };
        for spec in [in_memory, store] {
            let spec = spec.supersteps(100).thinning(2);
            let control = Arc::new(JobControl::new());
            // Cancel from inside the sink after the second sample: the
            // driver observes the flag before the next superstep.
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
            let err =
                run_job(default_registry(), &spec, &mut sink, None, &control, None).unwrap_err();
            match err {
                EngineError::Cancelled { job, superstep } => {
                    assert_eq!(job, "cancel");
                    // Sample 1 lands after superstep 4; the cancel is
                    // observed before superstep 5 runs.
                    assert_eq!(superstep, 4);
                }
                other => panic!("expected Cancelled, got {other}"),
            }
            assert_eq!(*seen.lock().unwrap(), 2, "samples before the cancel are kept");
            let progress = control.progress();
            assert_eq!(progress.superstep, 4);
            assert_eq!(progress.total, 100);
        }
        assert!(!dir.join("cancel.scratch.el").exists(), "a cancelled job leaves no scratch");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_core_jobs_match_the_in_memory_engine_sample_for_sample() {
        let (dir, graph) = out_of_core_setup("gesmc-pool-out-of-core-run-test", 11);
        let algorithm = ChainSpec::parse("seq-es-ext?batch=64").unwrap();
        let in_memory = JobSpec::new("xjob", GraphSource::InMemory(graph), algorithm)
            .supersteps(6)
            .thinning(2)
            .seed(7);
        let mut control = MemorySink::new();
        let control_samples = control.store();
        run_job(default_registry(), &in_memory, &mut control, None, &JobControl::new(), None)
            .unwrap();

        // 1-byte budget: a single cached chunk, maximal eviction traffic.
        let source = out_of_core(&dir, dir.join("input.el"), "input.scratch.el", 1);
        let spec = JobSpec { source, ..in_memory };
        let mut sink = EdgeListFileSink::new(&dir, "xjob").unwrap().binary(true);
        let report =
            run_job(default_registry(), &spec, &mut sink, None, &JobControl::new(), None).unwrap();
        assert_eq!(report.samples, 3);
        assert_eq!(report.algorithm, "SeqESExt");
        assert!(!dir.join("input.scratch.el").exists(), "scratch removed on success");

        let control = control_samples.lock().unwrap();
        for (i, step) in [2u64, 4, 6].iter().enumerate() {
            let sample =
                read_edge_list_binary_file(dir.join(format!("xjob-s{step:06}.el"))).unwrap();
            assert_eq!(sample.edges(), control[i].1.edges(), "superstep {step}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_core_resume_is_bit_identical_to_an_uninterrupted_run() {
        let (dir, _) = out_of_core_setup("gesmc-pool-out-of-core-resume-test", 12);
        let job = |source: GraphSource| {
            JobSpec::new("job", source, ChainSpec::parse("seq-es-ext?batch=32").unwrap())
                .supersteps(8)
                .seed(3)
        };
        let run = |spec: &JobSpec, samples: &str| {
            let mut sink = EdgeListFileSink::new(dir.join(samples), "job").unwrap().binary(true);
            run_job(default_registry(), spec, &mut sink, None, &JobControl::new(), None).unwrap()
        };

        // Uninterrupted control.
        run(&job(out_of_core(&dir, dir.join("input.el"), "full.scratch.el", 4096)), "full");
        // A checkpointing run leaves its superstep-4 capture behind; resuming
        // from that mid-run file must land exactly where the control did.
        let first = job(out_of_core(&dir, dir.join("input.el"), "part.scratch.el", 4096));
        run(&first.checkpoint(4, &dir), "part");
        let resumed = job(out_of_core(&dir, dir.join("job.ckpt"), "resume.scratch.el", 4096));
        assert_eq!(run(&resumed, "resumed").resumed_from, 4);

        let full_bytes = std::fs::read(dir.join("full/job-s000008.el")).unwrap();
        let resumed_bytes = std::fs::read(dir.join("resumed/job-s000008.el")).unwrap();
        assert_eq!(full_bytes, resumed_bytes, "resume must be bit-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_out_of_core_checkpoints_leave_no_scratch_behind() {
        let (dir, _) = out_of_core_setup("gesmc-pool-out-of-core-corrupt-test", 13);
        let source = out_of_core(&dir, dir.join("input.el"), "first.scratch.el", 4096);
        let job = JobSpec::new("job", source, ChainSpec::new("seq-es-ext"))
            .supersteps(6)
            .seed(5)
            .checkpoint(3, &dir);
        run_job(default_registry(), &job, &mut NullSink::default(), None, &JobControl::new(), None)
            .unwrap();

        // Flip a bit inside the checkpoint's edge payload.
        let ckpt_path = dir.join("job.ckpt");
        let mut bytes = std::fs::read(&ckpt_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&ckpt_path, &bytes).unwrap();

        let source = out_of_core(&dir, ckpt_path, "resume.scratch.el", 4096);
        let resume = JobSpec { source, checkpoint_every: None, ..job };
        let err = run_job(
            default_registry(),
            &resume,
            &mut NullSink::default(),
            None,
            &JobControl::new(),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Checkpoint(_)), "got {err:?}");
        assert!(
            !dir.join("resume.scratch.el").exists(),
            "corrupt checkpoint must not publish a scratch store"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_core_jobs_reject_non_store_chains_with_the_capable_list() {
        let (dir, _) = out_of_core_setup("gesmc-pool-out-of-core-reject-test", 14);
        let source = out_of_core(&dir, dir.join("input.el"), "input.scratch.el", 4096);
        let spec = JobSpec::new("job", source, ChainSpec::new("seq-es"));
        let err = run_job(
            default_registry(),
            &spec,
            &mut NullSink::default(),
            None,
            &JobControl::new(),
            None,
        )
        .unwrap_err();
        match err {
            EngineError::Chain(gesmc_core::ChainError::BadParam { param, message, .. }) => {
                assert_eq!(param, "mmap");
                assert!(message.contains("seq-es-ext"), "{message}");
            }
            other => panic!("expected BadParam, got {other:?}"),
        }
        assert!(!dir.join("input.scratch.el").exists(), "a failed build leaves no scratch");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_checkpoint_flags_its_own_span() {
        struct Refuse;
        impl CheckpointSink for Refuse {
            fn store(&mut self, _: &Checkpoint) -> Result<(), EngineError> {
                Err(EngineError::Checkpoint("storage refused".to_string()))
            }
        }
        let mut spec = spec_for("refused", "seq-es", test_graph(7));
        spec.checkpoint_every = Some(2);
        let tracer = gesmc_obs::trace::tracer();
        let root = tracer.start_root_flagged("job", gesmc_obs::trace::FLAG_SAMPLED);
        let result = gesmc_obs::trace::with_context(root.context(), || {
            let control = JobControl::new();
            run_job(default_registry(), &spec, &mut NullSink::default(), None, &control, {
                Some(&mut Refuse)
            })
        });
        assert!(matches!(result, Err(EngineError::Checkpoint(_))), "{result:?}");
        let trace = root.trace_id();
        drop(root);
        let spans = tracer.kept_trace(trace).expect("a sampled trace is kept").spans;
        let checkpoint = spans.iter().find(|s| s.name == "checkpoint").expect("checkpoint span");
        assert!(checkpoint.error, "{checkpoint:?}");
        assert_eq!(checkpoint.annotations, [("superstep", "2".to_string())]);
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
