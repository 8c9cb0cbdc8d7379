//! Criterion benchmark: throughput of the batched job engine.
//!
//! Measures jobs/sec of a multi-job batch over varying worker counts and
//! samples/sec of a thinning-heavy job mix, on the SynPld corpus.  Honours
//! the harness' `--scale {smoke,small,paper}` knob (default `smoke`, so that
//! `cargo bench` stays fast offline).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gesmc_bench::Scale;
use gesmc_datasets::syn_pld_graph;
use gesmc_engine::{ChainSpec, GraphSource, JobSpec, JobState, NullSink, QueuedJob, ServicePool};
use gesmc_graph::EdgeListGraph;

fn scale_from_args() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|pair| pair[0] == "--scale")
        .and_then(|pair| Scale::parse(&pair[1]))
        .unwrap_or(Scale::Smoke)
}

fn build_jobs(
    graph: &EdgeListGraph,
    jobs: usize,
    supersteps: u64,
    thinning: u64,
) -> Vec<QueuedJob> {
    (0..jobs)
        .map(|i| {
            let spec = JobSpec::new(
                format!("bench{i}"),
                GraphSource::InMemory(graph.clone()),
                ChainSpec::new("par-global-es"),
            )
            .supersteps(supersteps)
            .thinning(thinning)
            .seed(i as u64)
            .threads(2);
            QueuedJob::new(spec, Box::new(NullSink::default()))
        })
        .collect()
}

/// Submit every job to a fresh pool of `workers` threads and wait on the
/// handles in submission order.
fn run_all(workers: usize, jobs: Vec<QueuedJob>) {
    let pool = ServicePool::start(workers, 0);
    let handles: Vec<_> = jobs.into_iter().map(|job| pool.submit(job).unwrap()).collect();
    for handle in handles {
        assert!(matches!(handle.wait(), JobState::Done(_)), "bench job failed");
    }
}

fn bench_engine(c: &mut Criterion) {
    let scale = scale_from_args();
    let (jobs, nodes, supersteps) =
        scale.pick((6usize, 700usize, 6u64), (12, 7_000, 10), (24, 70_000, 20));
    let graph = syn_pld_graph(1, nodes, 2.5);

    // Jobs/sec: a batch of final-state-only jobs, over varying worker counts.
    let mut group = c.benchmark_group("engine_jobs");
    group.throughput(Throughput::Elements(jobs as u64));
    group.sample_size(10);
    for workers in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("jobs_per_sec", workers),
            &workers,
            |b, &workers| {
                b.iter_batched(
                    || build_jobs(&graph, jobs, supersteps, 0),
                    |jobs| run_all(workers, jobs),
                    criterion::BatchSize::LargeInput,
                );
            },
        );
    }
    group.finish();

    // Samples/sec: every superstep emits a thinned sample (thinning = 1),
    // so throughput counts sink deliveries.
    let mut group = c.benchmark_group("engine_samples");
    group.throughput(Throughput::Elements(jobs as u64 * supersteps));
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("samples_per_sec", jobs), &jobs, |b, &jobs| {
        b.iter_batched(
            || build_jobs(&graph, jobs, supersteps, 1),
            |jobs| run_all(0, jobs),
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
