//! Figure 7: runtime of `ParGlobalES` on `G(n, p)` graphs as a function of
//! the average degree, for several edge budgets.
//!
//! The paper's observation (a consequence of Theorem 2): for nearly-regular
//! graphs the edge probability has no significant effect on the runtime, even
//! when the average degree approaches `n − 1`.
//!
//! ```text
//! cargo run --release -p gesmc-bench --bin fig7_gnp_density -- --scale small
//! ```

use gesmc_bench::{secs, time_supersteps, BenchArgs, BenchWriter};
use gesmc_core::{ParGlobalES, SwitchingConfig};
use gesmc_datasets::{syn_gnp_graph, syn_gnp_sweep};

fn main() {
    let args = BenchArgs::parse();
    let supersteps = args.scale.pick(3, 10, 20);
    let edge_budgets: Vec<usize> = args.scale.pick(
        vec![1 << 14],
        vec![1 << 16, 1 << 18],
        vec![1 << 18, 1 << 20, 1 << 22, 1 << 24, 1 << 26],
    );
    let avg_degrees: Vec<f64> = args.scale.pick(
        vec![8.0, 64.0, 512.0],
        vec![8.0, 32.0, 128.0, 512.0, 2048.0],
        vec![8.0, 32.0, 128.0, 512.0, 2048.0, 8192.0],
    );

    let mut writer = BenchWriter::new(
        "results",
        "fig7_gnp_density",
        &["edges_target", "edges_actual", "nodes", "avg_degree", "threads", "seconds"],
    );
    writer.print_header();

    let threads = rayon::current_num_threads();
    for instance in syn_gnp_sweep(&edge_budgets, &avg_degrees) {
        let graph = syn_gnp_graph(args.seed, instance.n, instance.m);
        if graph.num_edges() < 2 {
            continue;
        }
        let cfg = SwitchingConfig::with_seed(args.seed);
        let (t, _) = time_supersteps(&mut ParGlobalES::new(graph.clone(), cfg), supersteps);
        writer.row(&[
            instance.m.to_string(),
            graph.num_edges().to_string(),
            instance.n.to_string(),
            format!("{:.1}", graph.average_degree()),
            threads.to_string(),
            secs(t),
        ]);
    }
    let path = writer.finish().expect("write results");
    eprintln!("wrote {}", path.display());
}
