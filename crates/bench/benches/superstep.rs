//! Criterion micro-benchmark: throughput of `ParallelSuperstep` (Algorithm 1)
//! on one global switch, across dataset families.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gesmc_core::superstep::run_superstep_on_graph;
use gesmc_core::SeqGlobalES;
use gesmc_datasets::{netrep_like::family_graph, GraphFamily};
use gesmc_randx::permutation::random_permutation;
use gesmc_randx::rng_from_seed;

fn bench_superstep(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_superstep");
    group.sample_size(10);
    for family in [GraphFamily::Mesh, GraphFamily::PowerLaw, GraphFamily::RoadLike] {
        let corpus = family_graph(1, family, 20_000);
        let graph = corpus.graph;
        let m = graph.num_edges();
        let mut rng = rng_from_seed(7);
        let perm = random_permutation(&mut rng, m);
        let switches = SeqGlobalES::switches_from_permutation(&perm, m / 2);

        group.throughput(Throughput::Elements(switches.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("global_switch", family.label()),
            &graph,
            |b, g| {
                b.iter(|| run_superstep_on_graph(g, &switches));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_superstep);
criterion_main!(benches);
