//! Figure 2: fraction of non-independent edges vs. thinning value on SynPld.
//!
//! For each (n, γ) configuration the harness runs ES-MC and G-ES-MC for a
//! fixed number of supersteps, tracks the presence of every initial edge and
//! reports the fraction of edges whose thinned time series is still deemed
//! autocorrelated (BIC/G² criterion), per thinning value.
//!
//! ```text
//! cargo run --release -p gesmc-bench --bin fig2_mixing_synpld -- --scale small
//! ```

use gesmc_analysis::mixing_profile;
use gesmc_bench::{BenchArgs, BenchWriter};
use gesmc_core::{SeqES, SeqGlobalES, SwitchingConfig};
use gesmc_datasets::syn_pld_graph;

fn main() {
    let args = BenchArgs::parse();
    let node_counts: Vec<usize> =
        args.scale.pick(vec![1 << 7], vec![1 << 7, 1 << 10], vec![1 << 7, 1 << 10, 1 << 13]);
    let gammas: Vec<f64> =
        args.scale.pick(vec![2.01, 2.5], vec![2.01, 2.1, 2.2, 2.5], vec![2.01, 2.1, 2.2, 2.5]);
    let repetitions = args.scale.pick(2, 5, 40);
    let supersteps = args.scale.pick(32, 64, 128);
    let thinnings: Vec<usize> =
        (0..).map(|i| 1usize << i).take_while(|&k| k <= supersteps).collect();

    let mut writer = BenchWriter::new(
        "results",
        "fig2_mixing_synpld",
        &["n", "gamma", "algorithm", "thinning", "mean_non_independent", "repetitions"],
    );
    writer.print_header();

    for &n in &node_counts {
        for &gamma in &gammas {
            // Accumulate the mean fraction over repetitions per thinning value.
            let mut acc: Vec<(f64, f64)> = vec![(0.0, 0.0); thinnings.len()]; // (es, ges)
            for rep in 0..repetitions {
                let seed = args.seed + 1000 * rep as u64;
                let graph = syn_pld_graph(seed ^ n as u64, n, gamma);

                let mut es = SeqES::new(graph.clone(), SwitchingConfig::with_seed(seed));
                let es_profile = mixing_profile(&mut es, &graph, supersteps, &thinnings);

                let mut ges = SeqGlobalES::new(graph.clone(), SwitchingConfig::with_seed(seed));
                let ges_profile = mixing_profile(&mut ges, &graph, supersteps, &thinnings);

                for (i, slot) in acc.iter_mut().enumerate() {
                    slot.0 += es_profile.points[i].1;
                    slot.1 += ges_profile.points[i].1;
                }
            }
            for (i, &k) in thinnings.iter().enumerate() {
                let es_mean = acc[i].0 / repetitions as f64;
                let ges_mean = acc[i].1 / repetitions as f64;
                writer.row(&[
                    n.to_string(),
                    format!("{gamma}"),
                    "ES-MC".into(),
                    k.to_string(),
                    format!("{es_mean:.5}"),
                    repetitions.to_string(),
                ]);
                writer.row(&[
                    n.to_string(),
                    format!("{gamma}"),
                    "G-ES-MC".into(),
                    k.to_string(),
                    format!("{ges_mean:.5}"),
                    repetitions.to_string(),
                ]);
            }
        }
    }
    let path = writer.finish().expect("write results");
    eprintln!("wrote {}", path.display());
}
