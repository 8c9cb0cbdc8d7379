//! Out-of-core job runner: drive a store-aware chain over a disk-backed
//! edge store in bounded memory.
//!
//! [`run_job`](crate::run_job) loads the whole graph onto the heap; this
//! module is its sibling for graphs that do not fit.  The chain runs over an
//! [`ExternalEdgeStore`] (a bounded chunk cache over a `GESMCEL1` scratch
//! file), samples stream straight from the store into binary edge-list files,
//! and checkpoints stream through [`CheckpointWriter`] — no step ever
//! materialises the edge array.  Peak memory is the store's budget plus
//! O(num_nodes) for the degree-invariant check.
//!
//! The chain is resolved through the [`ChainRegistry`]'s store-aware factory
//! surface ([`ChainRegistry::build_store`]); the runner has no chain-specific
//! code.  Because store-backed chains are bit-identical to their in-memory
//! twins at the same seed (the `gesmc-exmem` invariant), an out-of-core run
//! emits byte-for-byte the samples an unconstrained run would.

use crate::checkpoint::{publish, Checkpoint, CheckpointReader, CheckpointWriter};
use crate::error::EngineError;
use crate::pool::JobReport;
use gesmc_core::{ChainRegistry, ChainSpec, StoreSwitching};
use gesmc_exmem::ExternalEdgeStore;
use gesmc_graph::io::BinaryEdgeListWriter;
use gesmc_graph::Edge;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where an out-of-core job puts its thinned samples.
#[derive(Debug, Clone)]
pub enum ExternalOutput {
    /// Drop samples after the degree-invariant check (dry runs, benchmarks).
    Discard,
    /// Write each sample as a binary `GESMCEL1` file
    /// `{job}-s{superstep:06}.el` under this directory.
    Directory(PathBuf),
    /// Write every emitted sample to this exact path (each emit replaces the
    /// previous one), so after the run the file holds the final state.  The
    /// natural choice for `randomize --out`.
    FinalFile(PathBuf),
}

/// An out-of-core randomization job over a `GESMCEL1` input file.
///
/// The input is stream-validated into a private scratch copy (the input file
/// itself is never written), randomized in place under `memory_budget` bytes
/// of cached chunks, and sampled/checkpointed by streaming.
#[derive(Debug, Clone)]
pub struct ExternalJob {
    /// Job name (sample file prefix, checkpoint name, report label).
    pub name: String,
    /// Path of the binary `GESMCEL1` input.
    pub input: PathBuf,
    /// Chain to run; must be store-capable (e.g. `seq-es-ext`).
    pub algorithm: ChainSpec,
    /// Superstep target.
    pub supersteps: u64,
    /// Thinning interval: emit every `k`-th superstep (0 = final state only).
    pub thinning: u64,
    /// PRNG seed.
    pub seed: u64,
    /// Byte budget for the store's chunk cache.
    pub memory_budget: usize,
    /// Scratch file path; defaults to the input path with a `scratch.el`
    /// extension.  Removed on successful completion.
    pub scratch: Option<PathBuf>,
    /// Sample destination.
    pub output: ExternalOutput,
    /// Checkpoint cadence (requires `checkpoint_dir`).
    pub checkpoint_every: Option<u64>,
    /// Directory receiving `{name}.ckpt`, written via [`CheckpointWriter`].
    pub checkpoint_dir: Option<PathBuf>,
}

impl ExternalJob {
    /// A job with the same defaults as [`JobSpec`](crate::JobSpec): 20
    /// supersteps, thinning 0, seed 1, no checkpoints, samples discarded.
    pub fn new(
        name: impl Into<String>,
        input: impl Into<PathBuf>,
        algorithm: ChainSpec,
        memory_budget: usize,
    ) -> Self {
        Self {
            name: name.into(),
            input: input.into(),
            algorithm,
            supersteps: 20,
            thinning: 0,
            seed: 1,
            memory_budget,
            scratch: None,
            output: ExternalOutput::Discard,
            checkpoint_every: None,
            checkpoint_dir: None,
        }
    }

    /// Set the superstep target.
    pub fn supersteps(mut self, supersteps: u64) -> Self {
        self.supersteps = supersteps;
        self
    }

    /// Set the thinning interval.
    pub fn thinning(mut self, thinning: u64) -> Self {
        self.thinning = thinning;
        self
    }

    /// Set the PRNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the scratch file path.
    pub fn scratch(mut self, path: impl Into<PathBuf>) -> Self {
        self.scratch = Some(path.into());
        self
    }

    /// Set the sample destination.
    pub fn output(mut self, output: ExternalOutput) -> Self {
        self.output = output;
        self
    }

    /// Enable periodic checkpoints every `every` supersteps into `dir`.
    pub fn checkpoint(mut self, every: u64, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_every = Some(every);
        self.checkpoint_dir = Some(dir.into());
        self
    }

    fn scratch_path(&self) -> PathBuf {
        self.scratch.clone().unwrap_or_else(|| self.input.with_extension("scratch.el"))
    }
}

/// Run `job` from its input file: validate + copy into the scratch store,
/// build the chain through the registry's store-aware factory, and drive it
/// to completion in bounded memory.
pub fn run_external_job(
    registry: &ChainRegistry,
    job: &ExternalJob,
) -> Result<JobReport, EngineError> {
    let start = Instant::now();
    let scratch = job.scratch_path();
    let mut create_span = gesmc_obs::trace::child_of_current("store_create");
    let store =
        ExternalEdgeStore::create(&job.input, &scratch, job.memory_budget).map_err(|e| {
            if let Some(span) = create_span.as_mut() {
                span.set_error();
            }
            EngineError::Graph(format!("{}: {e}", job.input.display()))
        })?;
    if let Some(span) = create_span.as_mut() {
        span.annotate("input", job.input.display().to_string());
        span.annotate("budget_bytes", job.memory_budget.to_string());
        span.annotate("max_chunks", store.max_chunks().to_string());
    }
    drop(create_span);
    let chain = registry.build_store(&job.algorithm, Box::new(store), job.seed)?;
    drive(job, &scratch, chain, &job.algorithm, 0, 0, start)
}

/// Resume `job` from a checkpoint file, streaming the checkpointed edges
/// into a fresh scratch store without materialising them.
///
/// The checkpoint's FNV-1a checksum sits at the end of the file, so edges
/// stream out *before* it can be verified; the half-built scratch is only
/// published (and the chain only built) once the reader's
/// [`finish`](CheckpointReader::finish) accepts the file.  On a checksum
/// mismatch nothing is left behind.
///
/// The chain and its parameters come from the checkpoint (exactly like
/// [`run_job`](crate::run_job)'s resume path); `job.algorithm` is ignored.
pub fn resume_external_job(
    registry: &ChainRegistry,
    job: &ExternalJob,
    checkpoint: impl AsRef<Path>,
) -> Result<JobReport, EngineError> {
    let start = Instant::now();
    let scratch = job.scratch_path();
    let mut restore_span = gesmc_obs::trace::child_of_current("checkpoint_restore");
    let mut reader = CheckpointReader::open(checkpoint)?;
    let num_nodes = reader.meta().snapshot.num_nodes as u64;
    let mut writer = BinaryEdgeListWriter::create(&scratch, num_nodes)
        .map_err(|e| EngineError::Graph(format!("{}: {e}", scratch.display())))?;
    for _ in 0..reader.num_edges() {
        let edge = reader.next_edge()?;
        writer
            .push(edge)
            .map_err(|e| EngineError::Checkpoint(format!("invalid checkpoint edge: {e}")))?;
    }
    // Verify the trailing checksum BEFORE publishing the scratch file: `?`
    // here drops the unfinished writer, which unlinks its temp file.
    let meta = reader.finish().map_err(|e| {
        if let Some(span) = restore_span.as_mut() {
            span.set_error();
        }
        e
    })?;
    writer.finish().map_err(|e| EngineError::Graph(format!("{}: {e}", scratch.display())))?;
    if let Some(span) = restore_span.as_mut() {
        span.annotate("resumed_from", meta.snapshot.supersteps_done.to_string());
    }
    drop(restore_span);

    let spec = meta.chain_spec();
    let store = ExternalEdgeStore::adopt(&scratch, job.memory_budget)
        .map_err(|e| EngineError::Graph(format!("{}: {e}", scratch.display())))?;
    let mut chain =
        registry.build_store_with_config(&spec, Box::new(store), meta.snapshot.config())?;
    chain.restore_meta(&meta.snapshot)?;
    drive(job, &scratch, chain, &spec, meta.snapshot.supersteps_done, meta.samples_emitted, start)
}

/// The superstep loop shared by fresh and resumed runs.
fn drive(
    job: &ExternalJob,
    scratch: &Path,
    mut chain: Box<dyn StoreSwitching + Send>,
    algorithm_spec: &ChainSpec,
    resumed_from: u64,
    mut samples_emitted: u64,
    start: Instant,
) -> Result<JobReport, EngineError> {
    // Reference degree sequence for the per-sample invariant check: the one
    // O(num_nodes) allocation this runner makes.
    let num_nodes = chain.store_num_nodes();
    let mut degrees = vec![0u64; num_nodes];
    chain.stream_edges(&mut |edge| {
        degrees[edge.u() as usize] += 1;
        degrees[edge.v() as usize] += 1;
    });

    // Same meters as the in-memory driver, so out-of-core supersteps land in
    // the same histograms and dashboards.
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

    // One trace span over the whole loop, annotated with the store's chunk
    // traffic on completion — the per-superstep histogram keeps fine timing.
    let mut loop_span = gesmc_obs::trace::child_of_current("supersteps");
    if let Some(span) = loop_span.as_mut() {
        span.annotate("job", job.name.clone());
        span.annotate("chain", chain.name());
        span.annotate("supersteps", job.supersteps.saturating_sub(resumed_from).to_string());
        span.annotate("budget_bytes", job.memory_budget.to_string());
    }
    let io_before = chain.store_io_stats();
    let loop_result = (|| -> Result<(), EngineError> {
        for step in resumed_from + 1..=job.supersteps {
            let stats = gesmc_obs::span!(superstep_hist, { chain.superstep() });
            requested += stats.requested as u64;
            legal += stats.legal as u64;

            let emit =
                if job.thinning == 0 { step == job.supersteps } else { step % job.thinning == 0 };
            if emit {
                let out = match &job.output {
                    ExternalOutput::Discard => None,
                    ExternalOutput::Directory(dir) => {
                        Some(dir.join(format!("{}-s{step:06}.el", job.name)))
                    }
                    ExternalOutput::FinalFile(path) => Some(path.clone()),
                };
                emit_sample(chain.as_mut(), out.as_deref(), &degrees, &job.name, step)?;
                samples_emitted += 1;
                samples_counter.inc();
            }

            let due = job
                .checkpoint_every
                .is_some_and(|every| every > 0 && step % every == 0 && step < job.supersteps);
            if due {
                if let Some(dir) = &job.checkpoint_dir {
                    let mut ckpt_span = gesmc_obs::trace::child_of_current("checkpoint");
                    if let Some(span) = ckpt_span.as_mut() {
                        span.annotate("superstep", step.to_string());
                        span.annotate("edges", chain.num_edges().to_string());
                    }
                    let capture_timer = gesmc_obs::Timer::start(&capture_hist);
                    let meta = Checkpoint {
                        job_name: job.name.clone(),
                        snapshot: chain.snapshot_meta(),
                        algorithm_spec: Some(algorithm_spec.clone()),
                        total_supersteps: job.supersteps,
                        thinning: job.thinning,
                        samples_emitted,
                    };
                    publish(&dir.join(format!("{}.ckpt", job.name)), |out| {
                        let mut writer =
                            CheckpointWriter::new(out, &meta, chain.num_edges() as u64)?;
                        let mut pushed = Ok(());
                        chain.stream_edges(&mut |edge| {
                            if pushed.is_ok() {
                                pushed = writer.push_edge(edge);
                            }
                        });
                        pushed?;
                        writer.finish().map(drop)
                    })?;
                    drop(capture_timer);
                    checkpoints += 1;
                }
            }
        }
        Ok(())
    })();
    if let Some(span) = loop_span.as_mut() {
        let io = chain.store_io_stats();
        span.annotate(
            "chunks_loaded",
            io.chunks_loaded.saturating_sub(io_before.chunks_loaded).to_string(),
        );
        span.annotate(
            "chunks_written",
            io.chunks_written.saturating_sub(io_before.chunks_written).to_string(),
        );
        if loop_result.is_err() {
            span.set_error();
        }
    }
    drop(loop_span);
    loop_result?;

    chain.flush_store()?;
    let report = JobReport {
        job: job.name.clone(),
        algorithm: chain.name().to_string(),
        resumed_from,
        supersteps: job.supersteps,
        samples: samples_emitted,
        requested,
        legal,
        checkpoints,
        duration: start.elapsed(),
    };
    gesmc_obs::debug!(
        target: "gesmc_engine",
        id: job.name,
        "external job finished: chain={} budget={}B resumed_from={} supersteps={} samples={} elapsed={:.3}s",
        report.algorithm,
        job.memory_budget,
        report.resumed_from,
        report.supersteps,
        report.samples,
        report.duration.as_secs_f64()
    );
    // The scratch has served its purpose; every sample already streamed to
    // its destination.  (Error paths keep it for post-mortems.)
    drop(chain);
    let _ = std::fs::remove_file(scratch);
    Ok(report)
}

/// Stream the current store contents to `out` (when given) while checking
/// the degree-sequence invariant against `reference`.
fn emit_sample(
    chain: &mut (dyn StoreSwitching + Send),
    out: Option<&Path>,
    reference: &[u64],
    job: &str,
    step: u64,
) -> Result<(), EngineError> {
    let mut counts = vec![0u64; reference.len()];
    let mut out_of_range = false;
    let count = |edge: Edge, counts: &mut [u64], flag: &mut bool| {
        for node in [edge.u(), edge.v()] {
            match counts.get_mut(node as usize) {
                Some(c) => *c += 1,
                None => *flag = true,
            }
        }
    };
    match out {
        Some(path) => {
            let mut writer = BinaryEdgeListWriter::create(path, reference.len() as u64)
                .map_err(|e| EngineError::Graph(format!("{}: {e}", path.display())))?;
            let mut push_err = None;
            chain.stream_edges(&mut |edge| {
                count(edge, &mut counts, &mut out_of_range);
                if push_err.is_none() {
                    push_err = writer.push(edge).err();
                }
            });
            if let Some(e) = push_err {
                return Err(EngineError::Graph(format!("{}: {e}", path.display())));
            }
            writer.finish().map_err(|e| EngineError::Graph(format!("{}: {e}", path.display())))?;
        }
        None => chain.stream_edges(&mut |edge| count(edge, &mut counts, &mut out_of_range)),
    }
    if out_of_range || counts != reference {
        return Err(EngineError::DegreesViolated { job: job.to_string(), superstep: step });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::GraphSource;
    use crate::sink::MemorySink;
    use crate::{default_registry, run_job, JobControl, JobSpec};
    use gesmc_graph::gen::gnp;
    use gesmc_graph::io::{read_edge_list_binary_file, write_edge_list_binary_file};
    use gesmc_graph::EdgeListGraph;
    use gesmc_randx::rng_from_seed;

    fn setup(dir_name: &str, seed: u64) -> (PathBuf, EdgeListGraph) {
        let dir = std::env::temp_dir().join(dir_name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let graph = gnp(&mut rng_from_seed(seed), 120, 0.07);
        write_edge_list_binary_file(dir.join("input.el"), &graph).unwrap();
        (dir, graph)
    }

    /// The in-memory engine's samples for the same chain/seed, for parity.
    fn in_memory_samples(
        graph: &EdgeListGraph,
        supersteps: u64,
        thinning: u64,
    ) -> Vec<EdgeListGraph> {
        let spec = JobSpec::new(
            "control",
            GraphSource::InMemory(graph.clone()),
            ChainSpec::parse("seq-es-ext?batch=64").unwrap(),
        )
        .supersteps(supersteps)
        .thinning(thinning)
        .seed(7);
        let mut sink = MemorySink::new();
        run_job(default_registry(), &spec, &mut sink, None, &JobControl::new(), None).unwrap();
        let store = sink.store();
        let samples = store.lock().unwrap();
        samples.iter().map(|(_, g)| g.clone()).collect()
    }

    #[test]
    fn external_run_matches_the_in_memory_engine_sample_for_sample() {
        let (dir, graph) = setup("gesmc-external-run-test", 11);
        let job = ExternalJob::new(
            "xjob",
            dir.join("input.el"),
            ChainSpec::parse("seq-es-ext?batch=64").unwrap(),
            1, // 1-byte budget: a single cached chunk, maximal eviction traffic
        )
        .supersteps(6)
        .thinning(2)
        .seed(7)
        .output(ExternalOutput::Directory(dir.clone()));

        let report = run_external_job(default_registry(), &job).unwrap();
        assert_eq!(report.samples, 3);
        assert_eq!(report.algorithm, "SeqESExt");
        assert!(!dir.join("input.scratch.el").exists(), "scratch removed on success");

        let control = in_memory_samples(&graph, 6, 2);
        for (i, step) in [2u64, 4, 6].iter().enumerate() {
            let sample =
                read_edge_list_binary_file(dir.join(format!("xjob-s{step:06}.el"))).unwrap();
            assert_eq!(sample.edges(), control[i].edges(), "superstep {step}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_to_an_uninterrupted_run() {
        let (dir, _) = setup("gesmc-external-resume-test", 12);
        let algo = ChainSpec::parse("seq-es-ext?batch=32").unwrap();

        // Uninterrupted control.
        let full = ExternalJob::new("job", dir.join("input.el"), algo.clone(), 4096)
            .supersteps(8)
            .seed(3)
            .scratch(dir.join("full.scratch.el"))
            .output(ExternalOutput::FinalFile(dir.join("full.el")));
        run_external_job(default_registry(), &full).unwrap();

        // A checkpointing run leaves its superstep-4 capture behind; resuming
        // from that mid-run file must land exactly where the control did.
        let first = ExternalJob::new("job", dir.join("input.el"), algo.clone(), 4096)
            .supersteps(8)
            .seed(3)
            .scratch(dir.join("part.scratch.el"))
            .checkpoint(4, &dir);
        run_external_job(default_registry(), &first).unwrap();
        let resumed = ExternalJob::new("job", dir.join("input.el"), algo, 4096)
            .supersteps(8)
            .seed(3)
            .scratch(dir.join("resume.scratch.el"))
            .output(ExternalOutput::FinalFile(dir.join("resumed.el")));
        let report =
            resume_external_job(default_registry(), &resumed, dir.join("job.ckpt")).unwrap();
        assert_eq!(report.resumed_from, 4);

        let full_bytes = std::fs::read(dir.join("full.el")).unwrap();
        let resumed_bytes = std::fs::read(dir.join("resumed.el")).unwrap();
        assert_eq!(full_bytes, resumed_bytes, "resume must be bit-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoints_leave_no_scratch_behind() {
        let (dir, _) = setup("gesmc-external-corrupt-test", 13);
        let algo = ChainSpec::new("seq-es-ext");
        let job = ExternalJob::new("job", dir.join("input.el"), algo.clone(), 4096)
            .supersteps(6)
            .seed(5)
            .scratch(dir.join("first.scratch.el"))
            .checkpoint(3, &dir);
        run_external_job(default_registry(), &job).unwrap();

        // Flip a bit inside the checkpoint's edge payload.
        let ckpt_path = dir.join("job.ckpt");
        let mut bytes = std::fs::read(&ckpt_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&ckpt_path, &bytes).unwrap();

        let resume = ExternalJob::new("job", dir.join("input.el"), algo, 4096)
            .supersteps(6)
            .seed(5)
            .scratch(dir.join("resume.scratch.el"));
        let err = resume_external_job(default_registry(), &resume, &ckpt_path).unwrap_err();
        assert!(matches!(err, EngineError::Checkpoint(_)), "got {err:?}");
        assert!(
            !dir.join("resume.scratch.el").exists(),
            "corrupt checkpoint must not publish a scratch store"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_store_chains_are_rejected_with_the_capable_list() {
        let (dir, _) = setup("gesmc-external-reject-test", 14);
        let job = ExternalJob::new("job", dir.join("input.el"), ChainSpec::new("seq-es"), 4096);
        let err = run_external_job(default_registry(), &job).unwrap_err();
        match err {
            EngineError::Chain(gesmc_core::ChainError::BadParam { param, message, .. }) => {
                assert_eq!(param, "mmap");
                assert!(message.contains("seq-es-ext"), "{message}");
            }
            other => panic!("expected BadParam, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
