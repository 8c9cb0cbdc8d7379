//! Criterion benchmark: throughput of the study pipeline.
//!
//! Measures cells/sec of a full `run_study` sweep (spec → job pool →
//! streaming metrics sink → report files) and supersteps/sec of the
//! [`MetricsSink`] alone, isolating the per-superstep analysis cost
//! (presence tracking + transition-count accumulation) from the chains.
//! Honours the harness' `--scale {smoke,small,paper}` knob (default `smoke`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gesmc_bench::Scale;
use gesmc_datasets::syn_pld_graph;
use gesmc_engine::{default_registry, run_job, ChainSpec, GraphSource, JobControl, JobSpec};
use gesmc_study::{run_study, MetricsSink, StudyOptions, StudySpec};

fn scale_from_args() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|pair| pair[0] == "--scale")
        .and_then(|pair| Scale::parse(&pair[1]))
        .unwrap_or(Scale::Smoke)
}

fn study_spec(edges: usize, supersteps: u64) -> StudySpec {
    StudySpec::parse(&format!(
        r#"{{
            "name": "bench_study",
            "chains": ["seq-es", "seq-global-es", "par-global-es"],
            "graphs": [
                {{ "family": "pld", "edges": {edges}, "gamma": 2.5 }},
                {{ "family": "gnp", "edges": {edges} }}
            ],
            "thinnings": [1, 2, 4, 8],
            "supersteps": {supersteps},
            "seed": 1,
            "workers": 2
        }}"#
    ))
    .expect("bench spec must parse")
}

fn bench_study(c: &mut Criterion) {
    let scale = scale_from_args();
    let (edges, supersteps) = scale.pick((300usize, 8u64), (3_000, 16), (30_000, 32));
    let spec = study_spec(edges, supersteps);
    let cells = (spec.chains.len() * spec.graphs.len()) as u64;
    let out_dir = std::env::temp_dir().join("gesmc-bench-study");

    // Cells/sec of the full pipeline, report files included.
    let mut group = c.benchmark_group("study_pipeline");
    group.throughput(Throughput::Elements(cells));
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("cells_per_sec", cells), &spec, |b, spec| {
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&out_dir);
            let opts = StudyOptions { output_dir: Some(out_dir.clone()), ..Default::default() };
            run_study(spec, &opts).expect("study must succeed")
        });
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&out_dir);

    // Supersteps/sec through the MetricsSink alone (one chain, thinning 1):
    // the marginal cost of measuring instead of discarding samples.
    let graph = syn_pld_graph(1, edges / 3, 2.5);
    let mut group = c.benchmark_group("study_metrics_sink");
    group.throughput(Throughput::Elements(supersteps));
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("supersteps_per_sec", graph.num_edges()),
        &graph,
        |b, graph| {
            b.iter(|| {
                let mut sink = MetricsSink::new(graph, &[1, 2, 4, 8], 0);
                let job = JobSpec::new(
                    "sink-bench",
                    GraphSource::InMemory(graph.clone()),
                    ChainSpec::new("seq-global-es"),
                )
                .supersteps(supersteps)
                .thinning(1)
                .seed(2);
                run_job(default_registry(), &job, &mut sink, None, &JobControl::new(), None)
                    .expect("job must succeed")
            });
        },
    );
    group.finish();
}

criterion_group!(benches, bench_study);
criterion_main!(benches);
