//! Criterion benchmark: one superstep of every chain implementation on the
//! same mesh-like graph (the head-to-head comparison underlying Fig. 4).

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use gesmc_baselines::{AdjacencyListES, GlobalCurveball, SortedAdjacencyES};
use gesmc_core::{
    EdgeSwitching, NaiveParES, ParES, ParGlobalES, SeqES, SeqGlobalES, SwitchingConfig,
};
use gesmc_datasets::{netrep_like::family_graph, GraphFamily};
use gesmc_graph::EdgeListGraph;

fn bench_one<C, F>(
    group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>,
    name: &str,
    graph: &EdgeListGraph,
    make: F,
) where
    C: EdgeSwitching,
    F: Fn(EdgeListGraph) -> C,
{
    group.bench_with_input(BenchmarkId::new(name, graph.num_edges()), graph, |b, g| {
        b.iter_batched(
            || make(g.clone()),
            |mut chain| {
                chain.superstep();
                chain
            },
            criterion::BatchSize::LargeInput,
        );
    });
}

fn bench_chains(c: &mut Criterion) {
    let corpus = family_graph(1, GraphFamily::Mesh, 20_000);
    let graph = corpus.graph;
    let cfg = SwitchingConfig::with_seed(1);

    let mut group = c.benchmark_group("one_superstep");
    group.throughput(Throughput::Elements((graph.num_edges() / 2) as u64));
    group.sample_size(10);

    bench_one(&mut group, "SeqES", &graph, |g| SeqES::new(g, cfg));
    bench_one(&mut group, "SeqGlobalES", &graph, |g| SeqGlobalES::new(g, cfg));
    bench_one(&mut group, "ParES", &graph, |g| ParES::new(g, cfg));
    bench_one(&mut group, "ParGlobalES", &graph, |g| ParGlobalES::new(g, cfg));
    bench_one(&mut group, "NaiveParES", &graph, |g| NaiveParES::new(g, cfg));
    bench_one(&mut group, "AdjacencyListES", &graph, |g| AdjacencyListES::new(g, cfg));
    bench_one(&mut group, "SortedAdjacencyES", &graph, |g| SortedAdjacencyES::new(g, cfg));
    bench_one(&mut group, "GlobalCurveball", &graph, |g| GlobalCurveball::new(g, cfg));
    group.finish();
}

criterion_group!(benches, bench_chains);

fn main() {
    benches();
    criterion::write_json_report();
    // The timed loop above calls `superstep()` directly, below the engine's
    // instrumentation, so it records no histograms (that hot path carries
    // zero observability overhead by construction).  Run one short job
    // through the instrumented engine path afterwards so the sidecar still
    // carries a superstep-duration distribution; this does not perturb the
    // timings, which are already written.
    let corpus = family_graph(2, GraphFamily::Mesh, 2_000);
    let spec = gesmc_engine::JobSpec::new(
        "bench-sidecar",
        gesmc_engine::GraphSource::InMemory(corpus.graph),
        gesmc_core::ChainSpec::new("seq-es"),
    )
    .supersteps(8);
    let mut sink = gesmc_engine::NullSink::default();
    let control = gesmc_engine::JobControl::new();
    gesmc_engine::run_job(gesmc_engine::default_registry(), &spec, &mut sink, None, &control, None)
        .expect("sidecar job");
    // Latency-histogram sidecar (`<report stem>.hist.json`) for trajectory
    // entries that pair throughput with per-phase distributions.
    gesmc_bench::dump_obs_histograms();
}
