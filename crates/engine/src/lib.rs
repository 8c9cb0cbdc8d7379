//! Batched randomization job engine with checkpoint/resume and streaming
//! sample sinks.
//!
//! The chains of `gesmc-core` randomize one graph at a time.  The workload
//! the paper evaluates them for — null-model analysis over thinned chain
//! samples (Sec. 6.1) — needs more machinery around them:
//!
//! * **one run path**: [`run_job`] drives every job — batch, study, service
//!   and library calls alike, on the heap or out of core over a disk-backed
//!   store ([`GraphSource::OutOfCore`]) — inside the job's bounded rayon
//!   pool, so concurrent parallel chains do not oversubscribe the machine;
//! * **streaming samples**: every `k`-th superstep the current state is
//!   handed to a [`SampleSink`] as an independent thinned sample — to an
//!   edge-list file, an in-memory store, or a user callback — instead of
//!   keeping only the final state; a [`SampleView`] streams the sample
//!   straight from the chain, on the heap or out of core;
//! * **checkpoint/resume**: a binary [`Checkpoint`] captures the edge array,
//!   the exact PRNG stream state and the superstep counter, so interrupted
//!   chains resume *bit-identically* to an uninterrupted run instead of
//!   losing hours of switching;
//! * **one job pool**: a [`ServicePool`] multiplexes [`JobSpec`]s over a
//!   fixed set of workers behind a bounded admission queue, returns
//!   non-blocking [`JobHandle`]s with progress/cancellation ([`JobControl`]),
//!   turns a failing or panicking job into a failed handle, and shuts down
//!   gracefully (drain in-flight, reject new) — the execution layer of
//!   [`run_batch`], the study driver and the `gesmc-serve` HTTP service.
//!
//! Algorithms are selected by open, registry-resolved [`ChainSpec`]s — the
//! engine has no closed algorithm enum.  [`default_registry`] knows the five
//! `gesmc-core` chains *and* the `gesmc-baselines` chains (Global Curveball,
//! the adjacency-list ES baselines); library users with their own chains pass
//! a custom [`ChainRegistry`] to [`run_job`] / [`ServicePool::start_with`].
//!
//! The high-level entry point is [`run_batch`] over a JSON [`Manifest`]
//! (`gesmc batch manifest.json` on the command line); the pieces compose
//! individually for library use:
//!
//! ```
//! use gesmc_engine::{default_registry, run_job, ChainSpec, GraphSource, JobControl, JobSpec};
//! use gesmc_engine::MemorySink;
//! use gesmc_graph::gen::gnp;
//! use gesmc_randx::rng_from_seed;
//!
//! let graph = gnp(&mut rng_from_seed(1), 100, 0.05);
//! let chain = ChainSpec::parse("par-global-es?pl=0.01").unwrap();
//! let spec = JobSpec::new("demo", GraphSource::InMemory(graph), chain)
//!     .supersteps(10)
//!     .thinning(2)
//!     .seed(7);
//! let mut sink = MemorySink::new();
//! let report = run_job(default_registry(), &spec, &mut sink, None, &JobControl::new(), None)
//!     .unwrap();
//! assert_eq!(report.samples, 5);
//! assert_eq!(sink.store().lock().unwrap().len(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod control;
pub mod error;
pub mod job;
pub mod manifest;
pub mod pool;
pub mod service;
pub mod sink;

pub use checkpoint::{Checkpoint, CheckpointReader, CheckpointSink, CheckpointWriter};
pub use control::{JobControl, JobProgress};
pub use error::EngineError;
pub use gesmc_core::{ChainError, ChainInfo, ChainRegistry, ChainSpec, ParamValue};
pub use job::{GraphSource, JobSpec, GRAPH_FAMILIES};
pub use manifest::Manifest;
pub use pool::{run_job, JobReport};
pub use service::{Completion, JobHandle, JobState, QueuedJob, ServicePool, SubmitError};
pub use sink::{
    CallbackSink, EdgeListFileSink, MemorySink, NullSink, SampleContext, SampleSink, SampleView,
};

use std::sync::OnceLock;

/// The engine's default chain registry: the five `gesmc-core` chains, the
/// `gesmc-baselines` chains (`global-curveball`, `adjacency-es`,
/// `sorted-adjacency-es`), and the out-of-core `seq-es-ext` chain from
/// `gesmc-exmem` (with its store-aware factory, so `--mmap` runs resolve
/// through the same registry).
///
/// Everything that resolves a chain by name without an explicit registry —
/// [`run_batch`], [`ServicePool::start`], [`Manifest::parse`] — uses this
/// set.  To run chains of your own, build a [`ChainRegistry`], register
/// them, and pass it to [`run_job`] / [`ServicePool::start_with`].
pub fn default_registry() -> &'static ChainRegistry {
    static REGISTRY: OnceLock<ChainRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut registry = ChainRegistry::with_core_chains();
        gesmc_baselines::register_baselines(&mut registry);
        gesmc_exmem::register(&mut registry);
        registry
    })
}

/// Run every job of `manifest` on a [`ServicePool`] of `manifest.workers`
/// threads, streaming thinned samples into per-job edge-list files under
/// `manifest.output_dir`: binary `GESMCEL1` for [`GraphSource::OutOfCore`]
/// jobs, plain text for the rest.
///
/// Jobs that fail individually (unreadable input, violated invariants, a
/// panic) do not abort the batch: the returned handles — one per job, in
/// manifest order, every one finished — carry each job's
/// [`JobState::Done`] report or [`JobState::Failed`] error text.
pub fn run_batch(manifest: &Manifest) -> Result<Vec<JobHandle>, EngineError> {
    std::fs::create_dir_all(&manifest.output_dir)?;
    if let Some(dir) = &manifest.checkpoint_dir {
        std::fs::create_dir_all(dir)?;
    }
    let pool = ServicePool::start(manifest.workers, 0);
    let mut handles = Vec::with_capacity(manifest.jobs.len());
    for spec in &manifest.jobs {
        let out_of_core = matches!(spec.source, GraphSource::OutOfCore { .. });
        let sink = EdgeListFileSink::new(&manifest.output_dir, &spec.name)?.binary(out_of_core);
        let job = QueuedJob::new(spec.clone(), Box::new(sink));
        handles.push(pool.submit(job).expect("an unbounded running pool accepts every job"));
    }
    for handle in &handles {
        handle.wait();
    }
    Ok(handles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesmc_graph::gen::gnp;
    use gesmc_randx::rng_from_seed;

    #[test]
    fn default_registry_knows_core_chains_and_baselines() {
        let registry = default_registry();
        assert!(registry.len() >= 7, "expected core chains + baselines, got {}", registry.len());
        for name in [
            "seq-es",
            "seq-global-es",
            "par-es",
            "par-global-es",
            "naive-par-es",
            "global-curveball",
            "adjacency-es",
            "sorted-adjacency-es",
            "seq-es-ext",
        ] {
            assert!(registry.get(name).is_some(), "{name} missing from the default registry");
        }
    }

    #[test]
    fn run_batch_writes_sample_files_for_every_job() {
        let dir = std::env::temp_dir().join("gesmc-engine-batch-test");
        let _ = std::fs::remove_dir_all(&dir);
        let graph = gnp(&mut rng_from_seed(3), 80, 0.08);
        let manifest = Manifest {
            workers: 2,
            output_dir: dir.clone(),
            checkpoint_dir: None,
            jobs: (0..3)
                .map(|i| {
                    JobSpec::new(
                        format!("job{i}"),
                        GraphSource::InMemory(graph.clone()),
                        ChainSpec::new("seq-global-es"),
                    )
                    .supersteps(6)
                    .thinning(3)
                    .seed(i)
                })
                .collect(),
        };
        let handles = run_batch(&manifest).unwrap();
        assert_eq!(handles.len(), 3);
        for handle in &handles {
            match handle.state() {
                JobState::Done(report) => assert_eq!(report.samples, 2),
                other => panic!("{}: expected Done, got {}", handle.name(), other.label()),
            }
        }
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(files.len(), 6, "3 jobs x 2 thinned samples");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
