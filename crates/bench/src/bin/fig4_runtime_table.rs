//! Figure 4 (table): absolute runtimes of all implementations on a sample of
//! graphs, for one processing unit and for all available cores.
//!
//! Columns mirror the paper's table: the adjacency-list baselines stand in
//! for NetworKit and Gengraph, followed by `SeqES`, `SeqGlobalES`,
//! `NaiveParES` and `ParGlobalES` on `P = 1` and on `P = max` threads.  Each
//! measurement initialises the data structures and performs 20 supersteps
//! (10 switches per edge), exactly as described in Sec. 6.2.
//!
//! ```text
//! cargo run --release -p gesmc-bench --bin fig4_runtime_table -- --scale small
//! ```

use gesmc_baselines::{AdjacencyListES, SortedAdjacencyES};
use gesmc_bench::{secs, time_supersteps, BenchArgs, BenchWriter};
use gesmc_core::{NaiveParES, ParGlobalES, SeqES, SeqGlobalES, SwitchingConfig};
use gesmc_datasets::netrep_sample;
use gesmc_graph::EdgeListGraph;
use std::time::Duration;

fn run_in_pool<F: FnOnce() -> (Duration, gesmc_core::ChainStats) + Send>(
    threads: usize,
    f: F,
) -> Duration {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool");
    pool.install(f).0
}

fn main() {
    let args = BenchArgs::parse();
    let supersteps = 20usize;
    let sizes: Vec<usize> = args.scale.pick(
        vec![2_000, 8_000],
        vec![8_000, 32_000, 128_000],
        vec![32_000, 256_000, 2_000_000],
    );
    let max_threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let seed = args.seed;

    let mut writer = BenchWriter::new(
        "results",
        "fig4_runtime_table",
        &[
            "graph",
            "n",
            "m",
            "max_degree",
            "adjacency_es_p1",
            "sorted_adjacency_es_p1",
            "seq_es_p1",
            "seq_global_es_p1",
            "naive_par_es_p1",
            "par_global_es_p1",
            "naive_par_es_pmax",
            "par_global_es_pmax",
            "threads_max",
        ],
    );
    writer.print_header();

    for size in sizes {
        for corpus_graph in netrep_sample(seed, size) {
            let graph: EdgeListGraph = corpus_graph.graph.clone();
            let cfg = SwitchingConfig::with_seed(seed);

            let t_adj = run_in_pool(1, || {
                time_supersteps(&mut AdjacencyListES::new(graph.clone(), cfg), supersteps)
            });
            let t_sorted = run_in_pool(1, || {
                time_supersteps(&mut SortedAdjacencyES::new(graph.clone(), cfg), supersteps)
            });
            let t_seq_es =
                run_in_pool(1, || time_supersteps(&mut SeqES::new(graph.clone(), cfg), supersteps));
            let t_seq_ges = run_in_pool(1, || {
                time_supersteps(&mut SeqGlobalES::new(graph.clone(), cfg), supersteps)
            });
            let t_naive_1 = run_in_pool(1, || {
                time_supersteps(&mut NaiveParES::new(graph.clone(), cfg), supersteps)
            });
            let t_par_1 = run_in_pool(1, || {
                time_supersteps(&mut ParGlobalES::new(graph.clone(), cfg), supersteps)
            });
            let t_naive_max = run_in_pool(max_threads, || {
                time_supersteps(&mut NaiveParES::new(graph.clone(), cfg), supersteps)
            });
            let t_par_max = run_in_pool(max_threads, || {
                time_supersteps(&mut ParGlobalES::new(graph.clone(), cfg), supersteps)
            });

            writer.row(&[
                corpus_graph.name.clone(),
                graph.num_nodes().to_string(),
                graph.num_edges().to_string(),
                graph.max_degree().to_string(),
                secs(t_adj),
                secs(t_sorted),
                secs(t_seq_es),
                secs(t_seq_ges),
                secs(t_naive_1),
                secs(t_par_1),
                secs(t_naive_max),
                secs(t_par_max),
                max_threads.to_string(),
            ]);
        }
    }
    let path = writer.finish().expect("write results");
    eprintln!("wrote {}", path.display());
}
