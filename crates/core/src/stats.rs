//! Execution statistics reported by the switching chains.
//!
//! The paper's evaluation needs more than wall-clock time: Fig. 9 reports the
//! number of rounds `ParallelSuperstep` takes per global switch and the
//! fraction of runtime spent outside the first round, and the mixing-time
//! study counts supersteps.  Every chain therefore returns a
//! [`SuperstepStats`] per superstep and aggregates them into [`ChainStats`].

use std::time::Duration;

/// Statistics of a single superstep.
#[derive(Debug, Clone, Default)]
pub struct SuperstepStats {
    /// Number of switches attempted in this superstep.
    pub requested: usize,
    /// Number of switches that were legal (applied).
    pub legal: usize,
    /// Number of switches that were rejected.
    pub illegal: usize,
    /// Number of decision rounds `ParallelSuperstep` needed (1 for the
    /// sequential chains, and for the parallel chains' supersteps run in
    /// order at one thread).
    pub rounds: usize,
    /// Wall-clock duration of each round (empty for chains that do not track
    /// per-round timing).
    pub round_durations: Vec<Duration>,
}

impl SuperstepStats {
    /// A superstep of `requested` switches, `legal` of them applied, run as
    /// one round that lasted `duration`: how the in-order kernel reports.
    pub fn one_round(requested: usize, legal: usize, duration: Duration) -> Self {
        Self {
            requested,
            legal,
            illegal: requested - legal,
            rounds: 1,
            round_durations: vec![duration],
        }
    }

    /// Time spent in rounds after the first one (Fig. 9's y-axis).
    pub fn time_after_first_round(&self) -> Duration {
        self.round_durations.iter().skip(1).sum()
    }

    /// Fraction of the round time spent after the first round; `0.0` when no
    /// per-round timing is available.
    pub fn fraction_after_first_round(&self) -> f64 {
        let total: Duration = self.round_durations.iter().sum();
        if total.is_zero() {
            return 0.0;
        }
        self.time_after_first_round().as_secs_f64() / total.as_secs_f64()
    }

    /// Acceptance rate of this superstep.
    pub fn acceptance_rate(&self) -> f64 {
        if self.requested == 0 {
            return 0.0;
        }
        self.legal as f64 / self.requested as f64
    }
}

/// Aggregated statistics over several supersteps.
#[derive(Debug, Clone, Default)]
pub struct ChainStats {
    /// Per-superstep statistics, in execution order.
    pub supersteps: Vec<SuperstepStats>,
}

impl ChainStats {
    /// Number of supersteps recorded.
    pub fn num_supersteps(&self) -> usize {
        self.supersteps.len()
    }

    /// Total number of attempted switches.
    pub fn total_requested(&self) -> usize {
        self.supersteps.iter().map(|s| s.requested).sum()
    }

    /// Total number of applied switches.
    pub fn total_legal(&self) -> usize {
        self.supersteps.iter().map(|s| s.legal).sum()
    }

    /// Mean number of rounds per superstep (Fig. 9's x-axis aggregation).
    pub fn mean_rounds(&self) -> f64 {
        if self.supersteps.is_empty() {
            return 0.0;
        }
        self.supersteps.iter().map(|s| s.rounds as f64).sum::<f64>() / self.supersteps.len() as f64
    }

    /// Maximum number of rounds over all supersteps.
    pub fn max_rounds(&self) -> usize {
        self.supersteps.iter().map(|s| s.rounds).max().unwrap_or(0)
    }

    /// Overall acceptance rate.
    pub fn acceptance_rate(&self) -> f64 {
        let total = self.total_requested();
        if total == 0 {
            return 0.0;
        }
        self.total_legal() as f64 / total as f64
    }

    /// Mean fraction of round time spent outside the first round.
    pub fn mean_fraction_after_first_round(&self) -> f64 {
        if self.supersteps.is_empty() {
            return 0.0;
        }
        self.supersteps.iter().map(|s| s.fraction_after_first_round()).sum::<f64>()
            / self.supersteps.len() as f64
    }

    /// Append another superstep record.
    pub fn push(&mut self, stats: SuperstepStats) {
        self.supersteps.push(stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(requested: usize, legal: usize, rounds: usize, durs_ms: &[u64]) -> SuperstepStats {
        SuperstepStats {
            requested,
            legal,
            illegal: requested - legal,
            rounds,
            round_durations: durs_ms.iter().map(|&d| Duration::from_millis(d)).collect(),
        }
    }

    #[test]
    fn superstep_derived_metrics() {
        let s = stats(100, 80, 3, &[90, 5, 5]);
        assert!((s.acceptance_rate() - 0.8).abs() < 1e-12);
        assert_eq!(s.time_after_first_round(), Duration::from_millis(10));
        assert!((s.fraction_after_first_round() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_superstep_is_well_defined() {
        let s = SuperstepStats::default();
        assert_eq!(s.acceptance_rate(), 0.0);
        assert_eq!(s.fraction_after_first_round(), 0.0);
    }

    #[test]
    fn chain_aggregation() {
        let mut chain = ChainStats::default();
        chain.push(stats(10, 5, 2, &[10, 2]));
        chain.push(stats(10, 10, 4, &[20, 1, 1, 2]));
        assert_eq!(chain.num_supersteps(), 2);
        assert_eq!(chain.total_requested(), 20);
        assert_eq!(chain.total_legal(), 15);
        assert!((chain.mean_rounds() - 3.0).abs() < 1e-12);
        assert_eq!(chain.max_rounds(), 4);
        assert!((chain.acceptance_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_chain_is_well_defined() {
        let chain = ChainStats::default();
        assert_eq!(chain.mean_rounds(), 0.0);
        assert_eq!(chain.max_rounds(), 0);
        assert_eq!(chain.acceptance_rate(), 0.0);
    }
}
