//! Figure 8: runtime per edge of `ParGlobalES` on power-law graphs as a
//! function of the degree exponent γ.
//!
//! The paper's observation (matching Theorem 3): the runtime per edge
//! increases slightly as γ approaches 2 because heavily skewed degree
//! sequences create more target dependencies and synchronisation.
//!
//! ```text
//! cargo run --release -p gesmc-bench --bin fig8_pld_exponent -- --scale small
//! ```

use gesmc_bench::{time_supersteps, BenchArgs, BenchWriter};
use gesmc_core::{ParGlobalES, SwitchingConfig};
use gesmc_datasets::syn_pld_graph;

fn main() {
    let args = BenchArgs::parse();
    let supersteps = args.scale.pick(3, 10, 20);
    let node_counts: Vec<usize> =
        args.scale.pick(vec![1 << 13], vec![1 << 15, 1 << 17], vec![1 << 20, 1 << 22, 1 << 24]);
    let gammas: Vec<f64> = vec![2.01, 2.2, 2.4, 2.6, 2.8, 3.0];

    let mut writer = BenchWriter::new(
        "results",
        "fig8_pld_exponent",
        &[
            "nodes",
            "gamma",
            "edges",
            "max_degree",
            "threads",
            "seconds",
            "seconds_per_edge",
            "mean_rounds",
        ],
    );
    writer.print_header();

    let threads = rayon::current_num_threads();
    for &n in &node_counts {
        for &gamma in &gammas {
            let graph = syn_pld_graph(args.seed ^ n as u64, n, gamma);
            let m = graph.num_edges();
            if m < 2 {
                continue;
            }
            let cfg = SwitchingConfig::with_seed(args.seed);
            let (t, stats) = time_supersteps(&mut ParGlobalES::new(graph.clone(), cfg), supersteps);
            writer.row(&[
                n.to_string(),
                format!("{gamma}"),
                m.to_string(),
                graph.max_degree().to_string(),
                threads.to_string(),
                format!("{:.3}", t.as_secs_f64()),
                format!("{:.3e}", t.as_secs_f64() / m as f64),
                format!("{:.2}", stats.mean_rounds()),
            ]);
        }
    }
    let path = writer.finish().expect("write results");
    eprintln!("wrote {}", path.display());
}
