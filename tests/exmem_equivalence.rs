//! The cardinal out-of-core invariant, property-tested end to end: **the
//! storage backend never changes the sample bytes**.
//!
//! `seq-es-ext` over a heap store, over an [`ExternalEdgeStore`] at a
//! 1-byte chunk budget, and plain `seq-es` must all visit the identical
//! edge arrays at equal seeds, whatever the batch cap.  Checkpoints taken
//! by an in-memory and an out-of-core engine job must be byte-equal, and a
//! checkpoint written by one backend must resume bit-identically through
//! the other.

use gesmc::datasets::syn_gnp_graph;
use gesmc::prelude::*;
use gesmc_engine::{EdgeListFileSink, EngineError};
use gesmc_graph::io::{write_edge_list_binary, write_edge_list_binary_file};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gesmc-exmem-equiv-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Edges after `steps` supersteps of `chain_spec` built in memory through
/// the default registry.
fn in_memory_edges(spec: &ChainSpec, graph: &EdgeListGraph, seed: u64, steps: usize) -> Vec<Edge> {
    let mut chain = default_registry().build(spec, graph.clone(), seed).unwrap();
    chain.run_supersteps(steps);
    chain.graph().edges().to_vec()
}

/// Edges after `steps` supersteps of `chain_spec` over an
/// [`ExternalEdgeStore`] with the given chunk-cache budget, streamed out
/// without materialising the graph.
fn external_edges(
    dir: &Path,
    spec: &ChainSpec,
    graph: &EdgeListGraph,
    seed: u64,
    steps: usize,
    budget: usize,
) -> Vec<Edge> {
    let input = dir.join(format!("in-{seed:x}-{steps}-{budget}.el"));
    let scratch = dir.join(format!("scratch-{seed:x}-{steps}-{budget}.el"));
    write_edge_list_binary_file(&input, graph).unwrap();
    let store = ExternalEdgeStore::create(&input, &scratch, budget).unwrap();
    let mut chain = default_registry().build_store(spec, Box::new(store), seed).unwrap();
    for _ in 0..steps {
        chain.superstep();
    }
    let mut edges = Vec::new();
    chain.for_each_edge(&mut |e| edges.push(e));
    edges
}

proptest! {
    #[test]
    fn storage_backend_never_changes_the_sample(
        seed in any::<u64>(),
        steps in 1usize..4,
        batch in 1usize..130,
    ) {
        let dir = temp_dir("prop");
        let graph = syn_gnp_graph(seed ^ 0x00C0_FFEE, 60, 200);
        let reference = in_memory_edges(&ChainSpec::new("seq-es"), &graph, seed, steps);

        // seq-es-ext over the heap store, any batch cap.
        let spec = ChainSpec::parse(&format!("seq-es-ext?batch={batch}")).unwrap();
        prop_assert_eq!(&reference, &in_memory_edges(&spec, &graph, seed, steps));

        // seq-es-ext over the external store at the meanest possible budget
        // (1 byte => a single pinned chunk) and at a roomy one.
        prop_assert_eq!(&reference, &external_edges(&dir, &spec, &graph, seed, steps, 1));
        prop_assert_eq!(&reference, &external_edges(&dir, &spec, &graph, seed, steps, 1 << 20));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Captures every checkpoint the in-memory engine emits, as encoded bytes.
struct ByteSink(Vec<Vec<u8>>);

impl CheckpointSink for ByteSink {
    fn store(&mut self, checkpoint: &Checkpoint) -> Result<(), EngineError> {
        self.0.push(checkpoint.to_bytes());
        Ok(())
    }
}

#[test]
fn checkpoints_are_byte_equal_across_backends_and_resume_crosses_them() {
    let dir = temp_dir("cross");
    let graph = syn_gnp_graph(11, 400, 1400);
    let input = dir.join("input.el");
    write_edge_list_binary_file(&input, &graph).unwrap();
    let spec = ChainSpec::parse("seq-es-ext?batch=32").unwrap();

    // In-memory run with a checkpoint-capturing hook (step 4 checkpoints;
    // step 8 is final and does not).
    let job = JobSpec::new("xjob", GraphSource::InMemory(graph), spec.clone())
        .supersteps(8)
        .thinning(2)
        .seed(7);
    let mut job = job;
    job.checkpoint_every = Some(4);
    let mut sink = MemorySink::new();
    let mut captured = ByteSink(Vec::new());
    run_job(default_registry(), &job, &mut sink, None, &JobControl::new(), Some(&mut captured))
        .unwrap();
    assert_eq!(captured.0.len(), 1, "exactly the step-4 checkpoint");

    // Out-of-core run of the same job: the streamed checkpoint must be
    // byte-identical to the in-memory capture.
    let out_of_core = |path: PathBuf, scratch: &str| GraphSource::OutOfCore {
        path,
        scratch: dir.join(scratch),
        memory_budget: 4096,
    };
    let ext =
        JobSpec { source: out_of_core(input, "run.scratch.el"), ..job.clone() }.checkpoint(4, &dir);
    let mut external_final =
        EdgeListFileSink::new(dir.join("external"), "xjob").unwrap().binary(true);
    run_job(default_registry(), &ext, &mut external_final, None, &JobControl::new(), None).unwrap();
    let external_ckpt = std::fs::read(dir.join("xjob.ckpt")).unwrap();
    assert_eq!(
        external_ckpt, captured.0[0],
        "in-memory and external checkpoints of the same job must be byte-equal"
    );

    // Resume the *in-memory* checkpoint through an *out-of-core* (`--mmap`)
    // job: the final sample must match the uninterrupted in-memory run bit
    // for bit.
    let handoff = dir.join("handoff.ckpt");
    std::fs::write(&handoff, &captured.0[0]).unwrap();
    let resume = JobSpec {
        source: out_of_core(handoff, "resume.scratch.el"),
        algorithm: ChainSpec::new("seq-es-ext"),
        checkpoint_every: None,
        ..job
    };
    let mut resumed_final =
        EdgeListFileSink::new(dir.join("resumed"), "xjob").unwrap().binary(true);
    let report =
        run_job(default_registry(), &resume, &mut resumed_final, None, &JobControl::new(), None)
            .unwrap();
    assert_eq!(report.resumed_from, 4);

    let store = sink.store();
    let store = store.lock().unwrap();
    let (final_step, final_graph) = store.last().expect("the in-memory run emitted samples");
    assert_eq!(*final_step, 8);
    let mut expected = Vec::new();
    write_edge_list_binary(&mut expected, final_graph).unwrap();
    assert_eq!(
        std::fs::read(dir.join("resumed/xjob-s000008.el")).unwrap(),
        expected,
        "cross-backend resume must reproduce the uninterrupted sample bytes"
    );
    assert_eq!(
        std::fs::read(dir.join("external/xjob-s000008.el")).unwrap(),
        expected,
        "the uninterrupted external run must also match"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
