//! Criterion benchmark: the out-of-core cost model.
//!
//! `exmem_superstep` — what does a `seq-es-ext` superstep cost over the
//! heap store vs a budget-bound [`ExternalEdgeStore`] (64 KiB = one pinned
//! chunk, and 4 MiB = everything cached), with plain `SeqES` as the
//! reference?  All four produce bit-identical samples
//! (`tests/exmem_equivalence.rs`), so the deltas here are pure storage
//! cost.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use gesmc_core::{EdgeSwitching, SeqES, SwitchingConfig};
use gesmc_datasets::{netrep_like::family_graph, GraphFamily};
use gesmc_exmem::{ExternalEdgeStore, SeqESExt};
use gesmc_graph::io::write_edge_list_binary_file;
use gesmc_graph::EdgeListGraph;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static SCRATCH_SEQ: AtomicUsize = AtomicUsize::new(0);

fn work_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gesmc-bench-exmem-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench work dir");
    dir
}

fn external_chain(input: &PathBuf, budget: usize, seed: u64) -> SeqESExt {
    let scratch =
        input.with_extension(format!("scratch{}", SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed)));
    let store = ExternalEdgeStore::create(input, &scratch, budget).expect("external store");
    SeqESExt::new(Box::new(store), SwitchingConfig::with_seed(seed))
}

fn bench_superstep(c: &mut Criterion, graph: &EdgeListGraph, input: &PathBuf) {
    let cfg = SwitchingConfig::with_seed(1);
    let m = graph.num_edges();

    let mut group = c.benchmark_group("exmem_superstep");
    group.throughput(Throughput::Elements((m / 2) as u64));
    group.sample_size(10);

    group.bench_with_input(BenchmarkId::new("SeqES-heap", m), graph, |b, g| {
        b.iter_batched(
            || SeqES::new(g.clone(), cfg),
            |mut chain| {
                chain.superstep();
                chain
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.bench_with_input(BenchmarkId::new("SeqESExt-heap", m), graph, |b, g| {
        b.iter_batched(
            || SeqESExt::from_graph(g.clone(), cfg),
            |mut chain| {
                chain.superstep();
                chain
            },
            criterion::BatchSize::LargeInput,
        );
    });
    for (label, budget) in [("SeqESExt-ext-64KiB", 64 << 10), ("SeqESExt-ext-4MiB", 4 << 20)] {
        group.bench_with_input(BenchmarkId::new(label, m), input, |b, path| {
            b.iter_batched(
                || external_chain(path, budget, 1),
                |mut chain| {
                    chain.superstep();
                    chain
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_exmem(c: &mut Criterion) {
    let corpus = family_graph(1, GraphFamily::Mesh, 20_000);
    let graph = corpus.graph;
    let dir = work_dir();
    let input = dir.join("mesh.el");
    write_edge_list_binary_file(&input, &graph).expect("write input");

    bench_superstep(c, &graph, &input);

    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_exmem);

fn main() {
    benches();
    criterion::write_json_report();
    gesmc_bench::dump_obs_histograms();
}
