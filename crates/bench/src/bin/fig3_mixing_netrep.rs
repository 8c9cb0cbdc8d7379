//! Figure 3: first superstep (thinning value) at which the mean fraction of
//! non-independent edges drops below 1e-2 / 1e-3, over the NetRep-like corpus.
//!
//! ```text
//! cargo run --release -p gesmc-bench --bin fig3_mixing_netrep -- --scale small
//! ```

use gesmc_analysis::mixing_profile;
use gesmc_bench::{BenchArgs, BenchWriter};
use gesmc_core::{SeqES, SeqGlobalES, SwitchingConfig};
use gesmc_datasets::netrep_corpus;

fn main() {
    let args = BenchArgs::parse();
    let (min_edges, max_edges) = args.scale.pick((1_000, 4_000), (1_000, 32_000), (1_000, 800_000));
    let supersteps = args.scale.pick(16, 32, 64);
    let thinnings: Vec<usize> = (1..=supersteps).collect();
    let thresholds = [1e-2f64, 1e-3];

    let mut writer = BenchWriter::new(
        "results",
        "fig3_mixing_netrep",
        &["graph", "family", "edges", "density", "algorithm", "threshold", "first_superstep"],
    );
    writer.print_header();

    for corpus_graph in netrep_corpus(args.seed, min_edges, max_edges) {
        let graph = &corpus_graph.graph;
        let density = graph.density();

        let mut es = SeqES::new(graph.clone(), SwitchingConfig::with_seed(args.seed));
        let es_profile = mixing_profile(&mut es, graph, supersteps, &thinnings);
        let mut ges = SeqGlobalES::new(graph.clone(), SwitchingConfig::with_seed(args.seed));
        let ges_profile = mixing_profile(&mut ges, graph, supersteps, &thinnings);

        for (name, profile) in [("ES-MC", &es_profile), ("G-ES-MC", &ges_profile)] {
            for &tau in &thresholds {
                let first = profile
                    .first_thinning_below(tau)
                    .map(|k| k.to_string())
                    .unwrap_or_else(|| "unreached".into());
                writer.row(&[
                    corpus_graph.name.clone(),
                    corpus_graph.family.label().into(),
                    graph.num_edges().to_string(),
                    format!("{density:.6}"),
                    name.into(),
                    format!("{tau}"),
                    first,
                ]);
            }
        }
    }
    let path = writer.finish().expect("write results");
    eprintln!("wrote {}", path.display());
}
