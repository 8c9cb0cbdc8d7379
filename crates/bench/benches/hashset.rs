//! Criterion micro-benchmark: the edge hash set of the exact chains under
//! the insert / query / erase mix produced by edge switching, written
//! through its exclusive API (`insert_mut` / `erase_mut`, as the in-order
//! kernel writes it) and through its atomic one (as Algorithm 1 writes it),
//! on one thread.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gesmc_concurrent::ConcurrentEdgeSet;
use gesmc_graph::Edge;
use gesmc_randx::{bounded::gen_range_u64, rng_from_seed};

const OPS: u64 = 50_000;

fn mixed_workload_exclusive(n_nodes: u64) {
    let mut rng = rng_from_seed(1);
    let mut set = ConcurrentEdgeSet::with_capacity(OPS as usize);
    for _ in 0..OPS {
        let u = gen_range_u64(&mut rng, n_nodes) as u32;
        let v = gen_range_u64(&mut rng, n_nodes) as u32;
        if u == v {
            continue;
        }
        let e = Edge::new(u, v);
        match gen_range_u64(&mut rng, 3) {
            0 => {
                set.insert_mut(e);
            }
            1 => {
                set.erase_mut(e);
            }
            _ => {
                std::hint::black_box(set.contains(e));
            }
        }
    }
}

fn mixed_workload_concurrent(n_nodes: u64) {
    let mut rng = rng_from_seed(1);
    let set = ConcurrentEdgeSet::with_capacity(OPS as usize);
    for _ in 0..OPS {
        let u = gen_range_u64(&mut rng, n_nodes) as u32;
        let v = gen_range_u64(&mut rng, n_nodes) as u32;
        if u == v {
            continue;
        }
        let e = Edge::new(u, v);
        match gen_range_u64(&mut rng, 3) {
            0 => {
                set.insert(e);
            }
            1 => {
                set.erase(e);
            }
            _ => {
                std::hint::black_box(set.contains(e));
            }
        }
    }
}

fn bench_hashsets(c: &mut Criterion) {
    let mut group = c.benchmark_group("edge_hash_sets");
    group.sample_size(20);
    group.throughput(Throughput::Elements(OPS));
    for n_nodes in [1_000u64, 100_000] {
        group.bench_with_input(BenchmarkId::new("exclusive", n_nodes), &n_nodes, |b, &n| {
            b.iter(|| mixed_workload_exclusive(n));
        });
        group.bench_with_input(
            BenchmarkId::new("concurrent_single_thread", n_nodes),
            &n_nodes,
            |b, &n| {
                b.iter(|| mixed_workload_concurrent(n));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_hashsets);
criterion_main!(benches);
