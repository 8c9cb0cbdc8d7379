//! Figure 5: runtimes of `SeqES`, `SeqGlobalES` (P = 1) and `ParGlobalES`
//! (P = max) over the corpus, and the speed-up of the parallel algorithm over
//! its sequential counterpart — with and without software prefetching (the
//! paper's left/right columns).
//!
//! ```text
//! cargo run --release -p gesmc-bench --bin fig5_speedup_scatter -- --scale small
//! ```

use gesmc_bench::{secs, time_supersteps, BenchArgs, BenchWriter};
use gesmc_core::{ParGlobalES, SeqES, SeqGlobalES, SwitchingConfig};
use gesmc_datasets::netrep_corpus;
use std::time::Duration;

fn in_pool<F: FnOnce() -> Duration + Send>(threads: usize, f: F) -> Duration {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool").install(f)
}

fn main() {
    let args = BenchArgs::parse();
    let supersteps = 20usize;
    let (min_edges, max_edges) =
        args.scale.pick((10_000, 40_000), (10_000, 160_000), (10_000, 4_000_000));
    let max_threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);

    let mut writer = BenchWriter::new(
        "results",
        "fig5_speedup_scatter",
        &[
            "graph",
            "edges",
            "prefetch",
            "seq_es_s",
            "seq_global_es_s",
            "par_global_es_s",
            "speedup",
        ],
    );
    writer.print_header();

    for corpus_graph in netrep_corpus(args.seed, min_edges, max_edges) {
        let graph = corpus_graph.graph.clone();
        for prefetch in [false, true] {
            let cfg = SwitchingConfig::with_seed(args.seed).prefetch(prefetch);
            let t_seq_es =
                in_pool(1, || time_supersteps(&mut SeqES::new(graph.clone(), cfg), supersteps).0);
            let t_seq_ges = in_pool(1, || {
                time_supersteps(&mut SeqGlobalES::new(graph.clone(), cfg), supersteps).0
            });
            let t_par = in_pool(max_threads, || {
                time_supersteps(&mut ParGlobalES::new(graph.clone(), cfg), supersteps).0
            });
            let speedup = t_seq_ges.as_secs_f64() / t_par.as_secs_f64().max(1e-9);
            writer.row(&[
                corpus_graph.name.clone(),
                graph.num_edges().to_string(),
                prefetch.to_string(),
                secs(t_seq_es),
                secs(t_seq_ges),
                secs(t_par),
                format!("{speedup:.2}"),
            ]);
        }
    }
    let path = writer.finish().expect("write results");
    eprintln!("wrote {}", path.display());
}
