//! Integer power-law degree-sequence sampler `Pld([a..b], γ)`.
//!
//! The *SynPld* dataset (Sec. 6) draws node degrees from an integer power-law
//! distribution with exponent `−γ` restricted to `[a..b]`, i.e.
//! `P[X = k] ∝ k^{−γ}` for `a ≤ k ≤ b`, with the maximum degree set to
//! `Δ = n^{1/(γ−1)}`.  The sampled sequence is then repaired to have an even
//! sum (a single degree is decremented/incremented within bounds) and can be
//! rejected/resampled until it passes the Erdős–Gallai test.

use crate::degree::DegreeSequence;
use gesmc_randx::bounded::gen_index;
use rand::Rng as _;
use rand::RngCore;

/// Configuration of the power-law sequence sampler.
#[derive(Debug, Clone, Copy)]
pub struct PowerlawConfig {
    /// Number of nodes.
    pub n: usize,
    /// Power-law exponent `γ > 1`.
    pub gamma: f64,
    /// Minimum degree (inclusive).
    pub min_degree: u32,
    /// Maximum degree (inclusive).  Use [`PowerlawConfig::natural_cutoff`] to
    /// apply the paper's `Δ = n^{1/(γ−1)}` bound.
    pub max_degree: u32,
}

impl PowerlawConfig {
    /// Standard configuration used by the paper: `Pld([1..Δ], γ)` with
    /// `Δ = n^{1/(γ−1)}`.
    pub fn paper(n: usize, gamma: f64) -> Self {
        Self { n, gamma, min_degree: 1, max_degree: Self::natural_cutoff(n, gamma) }
    }

    /// The analytic maximum-degree bound `Δ = n^{1/(γ−1)}` (at least 1, at
    /// most `n − 1`).  Panics if `gamma ≤ 1` (parsers call [`check_gamma`]).
    pub fn natural_cutoff(n: usize, gamma: f64) -> u32 {
        assert!(gamma > 1.0, "gamma must exceed 1");
        let cutoff = (n as f64).powf(1.0 / (gamma - 1.0));
        (cutoff.floor() as u32).clamp(1, n.saturating_sub(1).max(1) as u32)
    }
}

/// Check a power-law exponent before generating: the sampler needs `γ > 1`,
/// and parsers report a bad value as an error instead of a panic.
pub fn check_gamma(gamma: f64) -> Result<(), String> {
    if gamma > 1.0 {
        Ok(())
    } else {
        Err(format!("gamma must exceed 1, got {gamma}"))
    }
}

/// Tabulated discrete distribution over `[min_degree ..= max_degree]` with
/// weights `k^{−γ}`; sampling is by binary search over the CDF.
struct PowerlawTable {
    min_degree: u32,
    cdf: Vec<f64>,
}

impl PowerlawTable {
    fn new(cfg: &PowerlawConfig) -> Self {
        assert!(cfg.gamma >= 1.0, "gamma must be at least 1");
        assert!(cfg.min_degree >= 1, "minimum degree must be at least 1");
        assert!(cfg.max_degree >= cfg.min_degree, "empty degree range");
        let mut cdf = Vec::with_capacity((cfg.max_degree - cfg.min_degree + 1) as usize);
        let mut acc = 0.0f64;
        for k in cfg.min_degree..=cfg.max_degree {
            acc += (k as f64).powf(-cfg.gamma);
            cdf.push(acc);
        }
        Self { min_degree: cfg.min_degree, cdf }
    }

    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u32 {
        let total = *self.cdf.last().expect("non-empty table");
        let x = rng.gen::<f64>() * total;
        let idx = self.cdf.partition_point(|&c| c < x);
        self.min_degree + idx.min(self.cdf.len() - 1) as u32
    }
}

/// Sample a graphical power-law degree sequence.
///
/// Degrees are drawn i.i.d. from `Pld([min..max], γ)`; the sum is then made
/// even by adjusting a random entry, and the whole sequence is resampled until
/// the Erdős–Gallai test passes (for the parameter ranges used in the paper
/// the first attempt virtually always succeeds).
pub fn powerlaw_degree_sequence<R: RngCore + ?Sized>(
    rng: &mut R,
    cfg: &PowerlawConfig,
) -> DegreeSequence {
    assert!(cfg.n > 0, "need at least one node");
    let max_degree = cfg.max_degree.min(cfg.n.saturating_sub(1).max(1) as u32);
    let cfg = PowerlawConfig { max_degree, ..*cfg };
    let table = PowerlawTable::new(&cfg);

    loop {
        let mut degrees: Vec<u32> = (0..cfg.n).map(|_| table.sample(rng)).collect();

        // Repair parity: adjust one random entry up or down within bounds.
        if degrees.iter().map(|&d| d as u64).sum::<u64>() % 2 == 1 {
            let i = gen_index(rng, degrees.len());
            if degrees[i] > cfg.min_degree {
                degrees[i] -= 1;
            } else if degrees[i] < cfg.max_degree {
                degrees[i] += 1;
            } else {
                // Degenerate single-value range; flip another entry.
                continue;
            }
        }

        let seq = DegreeSequence::new(degrees);
        if seq.is_graphical() {
            return seq;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesmc_randx::rng_from_seed;

    #[test]
    fn natural_cutoff_matches_formula() {
        assert_eq!(PowerlawConfig::natural_cutoff(1024, 3.0), 32);
        assert_eq!(PowerlawConfig::natural_cutoff(128, 2.0), 127);
        // γ = 2.01, n = 2^10 → n^{1/1.01} ≈ 961
        let c = PowerlawConfig::natural_cutoff(1024, 2.01);
        assert!(c > 900 && c < 1024, "{c}");
    }

    #[test]
    fn sampled_sequence_is_graphical_and_in_range() {
        let mut rng = rng_from_seed(10);
        for &(n, gamma) in &[(128usize, 2.01f64), (1024, 2.2), (512, 2.5), (256, 3.0)] {
            let cfg = PowerlawConfig::paper(n, gamma);
            let seq = powerlaw_degree_sequence(&mut rng, &cfg);
            assert_eq!(seq.len(), n);
            assert!(seq.is_graphical());
            assert!(seq.num_edges().is_some());
            assert!(seq.min_degree() >= 1);
            assert!(seq.max_degree() <= cfg.max_degree);
        }
    }

    #[test]
    fn smaller_gamma_gives_heavier_tail() {
        let mut rng = rng_from_seed(11);
        let n = 4096;
        let heavy = powerlaw_degree_sequence(&mut rng, &PowerlawConfig::paper(n, 2.01));
        let light = powerlaw_degree_sequence(&mut rng, &PowerlawConfig::paper(n, 2.9));
        assert!(
            heavy.max_degree() > light.max_degree(),
            "heavy tail {} should exceed light tail {}",
            heavy.max_degree(),
            light.max_degree()
        );
        assert!(heavy.average_degree() > light.average_degree());
    }

    #[test]
    fn degree_one_dominates_for_large_gamma() {
        let mut rng = rng_from_seed(12);
        let seq = powerlaw_degree_sequence(&mut rng, &PowerlawConfig::paper(2000, 3.0));
        let ones = seq.degrees().iter().filter(|&&d| d == 1).count();
        // For γ = 3, P[X = 1] = 1/ζ(3) ≈ 0.83.
        assert!(ones as f64 > 0.7 * seq.len() as f64, "{ones} of {}", seq.len());
    }

    #[test]
    fn respects_custom_bounds() {
        let mut rng = rng_from_seed(13);
        let cfg = PowerlawConfig { n: 500, gamma: 2.5, min_degree: 3, max_degree: 20 };
        let seq = powerlaw_degree_sequence(&mut rng, &cfg);
        assert!(seq.min_degree() >= 3);
        assert!(seq.max_degree() <= 20);
        assert!(seq.is_graphical());
    }
}
