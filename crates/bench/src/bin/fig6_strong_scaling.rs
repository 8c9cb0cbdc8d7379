//! Figure 6: strong scaling (self speed-up) of `ParGlobalES` for
//! `1 ≤ P ≤ max` threads on a sample of corpus graphs.
//!
//! ```text
//! cargo run --release -p gesmc-bench --bin fig6_strong_scaling -- --scale small
//! ```

use gesmc_bench::{secs, time_supersteps, BenchArgs, BenchWriter};
use gesmc_core::{ParGlobalES, SwitchingConfig};
use gesmc_datasets::netrep_sample;
use std::time::Duration;

fn in_pool<F: FnOnce() -> Duration + Send>(threads: usize, f: F) -> Duration {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool").install(f)
}

fn main() {
    let args = BenchArgs::parse();
    let supersteps = args.scale.pick(5, 10, 20);
    let size = args.scale.pick(20_000, 100_000, 1_000_000);
    let max_threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let thread_counts: Vec<usize> = {
        let mut v = vec![1usize];
        let mut p = 2;
        while p < max_threads {
            v.push(p);
            p *= 2;
        }
        if max_threads > 1 {
            v.push(max_threads);
        }
        v
    };

    let mut writer = BenchWriter::new(
        "results",
        "fig6_strong_scaling",
        &["graph", "edges", "threads", "seconds", "self_speedup"],
    );
    writer.print_header();

    for corpus_graph in netrep_sample(args.seed, size) {
        let graph = corpus_graph.graph.clone();
        let cfg = SwitchingConfig::with_seed(args.seed);
        let mut baseline: Option<f64> = None;
        for &threads in &thread_counts {
            let t = in_pool(threads, || {
                time_supersteps(&mut ParGlobalES::new(graph.clone(), cfg), supersteps).0
            });
            let secs_t = t.as_secs_f64();
            let base = *baseline.get_or_insert(secs_t);
            writer.row(&[
                corpus_graph.name.clone(),
                graph.num_edges().to_string(),
                threads.to_string(),
                secs(t),
                format!("{:.2}", base / secs_t.max(1e-9)),
            ]);
        }
    }
    let path = writer.finish().expect("write results");
    eprintln!("wrote {}", path.display());
}
