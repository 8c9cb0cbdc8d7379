//! Integration tests of the batch engine through the umbrella crate: a
//! manifest of concurrent jobs produces thinned, degree-preserving samples,
//! and job multiplexing respects submission order and per-job isolation.

use gesmc::prelude::*;
use gesmc_engine::{EdgeListFileSink, JobReport};
use gesmc_graph::gen::gnp;
use gesmc_graph::io::read_edge_list_file;
use gesmc_randx::rng_from_seed;
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gesmc-it-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The report of a finished job; panics with the job's state if it failed.
fn report_of(handle: &JobHandle) -> JobReport {
    match handle.wait() {
        JobState::Done(report) => report,
        other => panic!("{}: {other:?}", handle.name()),
    }
}

#[test]
fn manifest_batch_produces_thinned_degree_preserving_samples() {
    let dir = temp_dir("batch");
    let manifest_text = format!(
        r#"{{
            "workers": 3,
            "output_dir": "{}",
            "jobs": [
                {{ "name": "pld-par", "generate": {{ "family": "pld", "edges": 900, "gamma": 2.5, "seed": 1 }},
                   "algo": "par-global-es", "supersteps": 9, "thinning": 3, "seed": 1, "threads": 2 }},
                {{ "name": "gnp-seq", "generate": {{ "family": "gnp", "edges": 800, "seed": 2 }},
                   "algo": "seq-global-es", "supersteps": 8, "thinning": 4, "seed": 2 }},
                {{ "name": "mesh-es", "generate": {{ "family": "mesh", "edges": 700, "seed": 3 }},
                   "algo": "seq-es", "supersteps": 6, "thinning": 2, "seed": 3 }}
            ]
        }}"#,
        dir.display()
    );
    let manifest = Manifest::parse(&manifest_text).unwrap();
    let handles = run_batch(&manifest).unwrap();
    assert_eq!(handles.len(), 3);

    let expected = [("pld-par", 3usize), ("gnp-seq", 2), ("mesh-es", 3)];
    for (handle, (name, samples)) in handles.iter().zip(expected) {
        assert_eq!(handle.name(), name, "submission order must be preserved");
        let report = report_of(handle);
        assert_eq!(report.samples, samples as u64, "{name}");
        assert!(report.legal > 0, "{name} must actually switch edges");
    }

    // Every emitted sample file parses back as a valid simple graph with the
    // degree sequence of its job's input.
    for (handle, (name, samples)) in handles.iter().zip(expected) {
        let spec = manifest.jobs.iter().find(|j| j.name == handle.name()).unwrap();
        let input_degrees = spec.source.load().unwrap().degrees().sorted_desc();
        let mut found = 0usize;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let file_name = path.file_name().unwrap().to_string_lossy().to_string();
            if !file_name.starts_with(&format!("{name}-s")) {
                continue;
            }
            found += 1;
            let sample = read_edge_list_file(&path).unwrap();
            assert!(sample.validate().is_ok(), "{file_name} is not simple");
            assert_eq!(
                sample.degrees().sorted_desc(),
                input_degrees,
                "{file_name} does not preserve the degree sequence"
            );
        }
        assert_eq!(found, samples, "{name}: wrong number of sample files");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn thinned_samples_mix_between_emissions() {
    // Consecutive thinned samples of a mixing chain must differ: the sink
    // receives genuinely evolving graphs, not repeated copies.
    let graph = gnp(&mut rng_from_seed(5), 90, 0.08);
    let spec = JobSpec::new("mix", GraphSource::InMemory(graph), ChainSpec::new("par-global-es"))
        .supersteps(12)
        .thinning(4)
        .seed(9);
    let sink = MemorySink::new();
    let store = sink.store();
    let mut sink = sink;
    let report =
        run_job(default_registry(), &spec, &mut sink, None, &JobControl::new(), None).unwrap();
    assert_eq!(report.samples, 3);
    let samples = store.lock().unwrap();
    for window in samples.windows(2) {
        assert_ne!(
            window[0].1.canonical_edges(),
            window[1].1.canonical_edges(),
            "consecutive thinned samples should differ on a mixing chain"
        );
    }
}

#[test]
fn batch_mixes_core_chains_with_baseline_chains() {
    // The acceptance path of the registry redesign: one manifest drives a
    // core chain and two baselines side by side, through the same engine,
    // with per-chain parameters in both spellings.
    let dir = temp_dir("mixed-batch");
    let manifest_text = format!(
        r#"{{
            "workers": 3,
            "output_dir": "{}",
            "jobs": [
                {{ "name": "core", "generate": {{ "family": "gnp", "edges": 600, "seed": 1 }},
                   "algorithm": "par-global-es?pl=0.001", "supersteps": 6, "thinning": 3, "seed": 1 }},
                {{ "name": "curveball", "generate": {{ "family": "gnp", "edges": 600, "seed": 1 }},
                   "algorithm": "global-curveball", "supersteps": 6, "thinning": 3, "seed": 2 }},
                {{ "name": "adjacency", "generate": {{ "family": "gnp", "edges": 600, "seed": 1 }},
                   "algorithm": {{ "name": "adjacency-es" }}, "supersteps": 6, "thinning": 3, "seed": 3 }}
            ]
        }}"#,
        dir.display()
    );
    let manifest = Manifest::parse(&manifest_text).unwrap();
    let handles = run_batch(&manifest).unwrap();
    assert_eq!(handles.len(), 3);
    let expected_chains = [
        ("core", "ParGlobalES"),
        ("curveball", "GlobalCurveball"),
        ("adjacency", "AdjacencyListES"),
    ];
    for (handle, (name, chain)) in handles.iter().zip(expected_chains) {
        let report = report_of(handle);
        assert_eq!(handle.name(), name);
        assert_eq!(report.algorithm, chain, "{name}");
        assert_eq!(report.samples, 2, "{name}");
    }
    // All three jobs randomised the identical input; every sample preserves
    // its degree sequence (verified by the engine) and parses back.
    let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert_eq!(files.len(), 6, "3 jobs x 2 thinned samples");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_pool_multiplexes_many_jobs_over_few_workers() {
    let dir = temp_dir("many-jobs");
    let graph = gnp(&mut rng_from_seed(8), 60, 0.1);
    let pool = ServicePool::start(2, 0);
    let mut handles = Vec::new();
    for i in 0..8u64 {
        let spec = JobSpec::new(
            format!("j{i}"),
            GraphSource::InMemory(graph.clone()),
            ChainSpec::new("seq-global-es"),
        )
        .supersteps(5)
        .thinning(5)
        .seed(i);
        let sink = EdgeListFileSink::new(&dir, &spec.name).unwrap();
        handles.push(pool.submit(QueuedJob::new(spec, Box::new(sink))).unwrap());
    }
    for (i, handle) in handles.iter().enumerate() {
        assert_eq!(handle.name(), format!("j{i}"));
        report_of(handle);
    }
    // Different seeds must give different samples (jobs are independent).
    let j0 = read_edge_list_file(dir.join("j0-s000005.txt")).unwrap();
    let j1 = read_edge_list_file(dir.join("j1-s000005.txt")).unwrap();
    assert_ne!(j0.canonical_edges(), j1.canonical_edges());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn engine_checkpoint_files_resume_through_run_job() {
    // End-to-end through file checkpoints: run with periodic checkpointing,
    // then resume from the file and compare with the uninterrupted run.
    let ckpt_dir = temp_dir("resume-e2e");
    std::fs::create_dir_all(&ckpt_dir).unwrap();
    let graph = gnp(&mut rng_from_seed(13), 80, 0.08);
    let spec = JobSpec::new("e2e", GraphSource::InMemory(graph), ChainSpec::new("par-es"))
        .supersteps(10)
        .thinning(0)
        .seed(4)
        .checkpoint(5, &ckpt_dir);

    let full_sink = MemorySink::new();
    let full_store = full_sink.store();
    let mut full_sink = full_sink;
    run_job(default_registry(), &spec, &mut full_sink, None, &JobControl::new(), None).unwrap();

    let checkpoint = Checkpoint::read_from_file(ckpt_dir.join("e2e.ckpt")).unwrap();
    assert_eq!(checkpoint.snapshot.supersteps_done, 5);
    let resumed_sink = MemorySink::new();
    let resumed_store = resumed_sink.store();
    let mut resumed_sink = resumed_sink;
    let control = JobControl::new();
    let report =
        run_job(default_registry(), &spec, &mut resumed_sink, Some(&checkpoint), &control, None)
            .unwrap();
    assert_eq!(report.resumed_from, 5);

    let full = full_store.lock().unwrap().last().unwrap().1.canonical_edges();
    let resumed = resumed_store.lock().unwrap().last().unwrap().1.canonical_edges();
    assert_eq!(full, resumed, "file-based resume must be bit-identical");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

#[test]
fn failed_jobs_are_isolated_in_batch_outcomes() {
    // An unreadable input fails its job with an error; a pld generator with
    // gamma <= 1 panics inside its job; an out-of-core job with a chain that
    // cannot run over a store fails to build.  None may cost the batch: the
    // jobs around them still finish, and each failure reports its text.
    let dir = temp_dir("failures");
    let graph = gnp(&mut rng_from_seed(2), 50, 0.1);
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("input.el");
    gesmc_graph::io::write_edge_list_binary_file(&input, &graph).unwrap();
    let out_of_core = |name: &str, algorithm: &str| {
        let scratch = dir.join(format!("{name}.scratch.el"));
        let source = GraphSource::OutOfCore { path: input.clone(), scratch, memory_budget: 1 };
        JobSpec::new(name, source, ChainSpec::new(algorithm)).supersteps(3)
    };
    let good = |name: &str| {
        let source = GraphSource::InMemory(graph.clone());
        JobSpec::new(name, source, ChainSpec::new("seq-es")).supersteps(3)
    };
    let panicking =
        GraphSource::Generated { family: "pld".into(), nodes: 0, edges: 100, gamma: 0.5, seed: 1 };
    let manifest = Manifest {
        workers: 2,
        output_dir: dir.clone(),
        checkpoint_dir: None,
        jobs: vec![
            JobSpec::new(
                "missing-input",
                GraphSource::File("/nonexistent/input.txt".into()),
                ChainSpec::new("seq-es"),
            ),
            good("before"),
            JobSpec::new("boom", panicking, ChainSpec::new("seq-es")),
            good("after"),
            out_of_core("ooc-good", "seq-es-ext"),
            out_of_core("ooc-heap-chain", "seq-es"),
        ],
    };
    let handles = run_batch(&manifest).unwrap();
    let failure = |handle: &JobHandle| match handle.wait() {
        JobState::Failed(message) => message,
        other => panic!("{}: expected a failure, got {other:?}", handle.name()),
    };
    assert!(failure(&handles[0]).contains("input.txt"));
    assert_eq!(report_of(&handles[1]).samples, 1);
    assert!(failure(&handles[2]).contains("panicked"));
    assert_eq!(report_of(&handles[3]).samples, 1);
    assert_eq!(report_of(&handles[4]).samples, 1);
    assert!(dir.join("ooc-good-s000003.el").exists(), "out-of-core samples are binary");
    assert!(failure(&handles[5]).contains("seq-es-ext"), "the failure names the capable chains");
    let scratches: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".scratch.el"))
        .collect();
    assert!(scratches.is_empty(), "left behind: {scratches:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
