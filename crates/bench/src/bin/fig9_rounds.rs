//! Figure 9: rounds per global switch of `ParGlobalES` and the fraction of
//! runtime spent outside the first round, over the NetRep-like corpus.
//!
//! ```text
//! cargo run --release -p gesmc-bench --bin fig9_rounds -- --scale small
//! ```

use gesmc_bench::{BenchArgs, BenchWriter};
use gesmc_core::{EdgeSwitching, ParGlobalES, SwitchingConfig};
use gesmc_datasets::netrep_corpus;

fn main() {
    let args = BenchArgs::parse();
    let global_switches = 20usize;
    let (min_edges, max_edges) =
        args.scale.pick((4_000, 16_000), (4_000, 128_000), (10_000, 8_000_000));

    let mut writer = BenchWriter::new(
        "results",
        "fig9_rounds",
        &[
            "graph",
            "family",
            "edges",
            "mean_rounds",
            "max_rounds",
            "fraction_time_after_first_round",
            "threads",
        ],
    );
    writer.print_header();

    let threads = rayon::current_num_threads();
    for corpus_graph in netrep_corpus(args.seed, min_edges, max_edges) {
        let graph = corpus_graph.graph.clone();
        let mut chain = ParGlobalES::new(graph.clone(), SwitchingConfig::with_seed(args.seed));
        let stats = chain.run_supersteps(global_switches);
        writer.row(&[
            corpus_graph.name.clone(),
            corpus_graph.family.label().into(),
            graph.num_edges().to_string(),
            format!("{:.2}", stats.mean_rounds()),
            stats.max_rounds().to_string(),
            format!("{:.4}", stats.mean_fraction_after_first_round()),
            threads.to_string(),
        ]);
    }
    let path = writer.finish().expect("write results");
    eprintln!("wrote {}", path.display());
}
