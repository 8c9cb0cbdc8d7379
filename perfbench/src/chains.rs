//! The chain workload: exact parallel ES-MC ([`ParES`]) randomises one
//! graph, sample after sample, the way a null-model study draws thinned
//! samples.
//!
//! The input is a G(n, m) graph of 20k edges (average degree 16): small
//! enough that one superstep takes a few milliseconds, so fixed costs per
//! window and per superstep show.  The edge count barely varies with the
//! seed, so neither does the work per sample.

use crate::{mean, ms, per, Outcome};
use gesmc_core::{EdgeSwitching, ParES, SeqES, SwitchingConfig};
use gesmc_datasets::syn_gnp_graph;
use gesmc_graph::{DegreeSequence, EdgeListGraph};
use std::time::{Duration, Instant};

/// Nodes and edges of the input graph.
const NODES: usize = 2_500;
const EDGES: usize = 20_000;
/// Supersteps between two samples (the thinning interval).
const SUPERSTEPS_PER_SAMPLE: usize = 4;
/// Set-ups per run; the reported set-up time is their median.
const SETUPS: usize = 15;
/// Most supersteps the sequential twin runs in a traced run.
const TWIN_SUPERSTEPS: usize = 200;

/// A sample is correct when it is a simple graph with the input's degrees.
fn is_valid_sample(sample: &EdgeListGraph, degrees: &DegreeSequence) -> bool {
    sample.validate().is_ok() && sample.degrees() == *degrees
}

/// Running totals of the per-layer spans of a traced run.
#[derive(Default)]
struct Spans {
    supersteps: u64,
    superstep: Duration,
    rounds: u64,
    round: Duration,
    requested: u64,
    legal: u64,
    snapshot: Duration,
}

/// Run the workload for `window`, drawing the input from `seed`.
pub fn run(seed: u64, window: Duration, trace: bool) -> Outcome {
    let input = syn_gnp_graph(seed, NODES, EDGES);
    let degrees = input.degrees();
    let config = SwitchingConfig::with_seed(seed);

    let mut setups_s = Vec::with_capacity(SETUPS);
    let mut chain = None;
    for _ in 0..SETUPS {
        // Free the previous chain first, so that every set-up after the
        // first finds the allocator in the same state.
        drop(chain.take());
        let graph = input.clone();
        let start = Instant::now();
        chain = Some(ParES::new(graph, config));
        setups_s.push(start.elapsed().as_secs_f64());
    }
    let mut chain = chain.expect("at least one set-up");

    let mut outcome = Outcome { correct: true, setups_s, ..Outcome::default() };
    let mut spans = Spans::default();
    let mut last_sample = None;
    let deadline = Instant::now() + window;
    while Instant::now() < deadline {
        outcome.attempted += 1;
        let start = Instant::now();
        for _ in 0..SUPERSTEPS_PER_SAMPLE {
            if trace {
                let step_start = Instant::now();
                let stats = chain.superstep();
                spans.superstep += step_start.elapsed();
                spans.rounds += stats.rounds as u64;
                spans.round += stats.round_durations.iter().sum::<Duration>();
                spans.requested += stats.requested as u64;
                spans.legal += stats.legal as u64;
            } else {
                chain.superstep();
            }
            spans.supersteps += 1;
        }
        let snapshot_start = Instant::now();
        let sample = chain.graph();
        spans.snapshot += snapshot_start.elapsed();
        outcome.latencies_ms.push(ms(start.elapsed()));
        outcome.correct &= is_valid_sample(&sample, &degrees);
        last_sample = Some(sample);
    }
    // A chain that never rewires anything would pass the checks above.
    let randomised =
        last_sample.is_some_and(|sample| sample.canonical_edges() != input.canonical_edges());
    outcome.correct &= randomised;

    if trace {
        let twin_ms = run_twin(&input, &degrees, config, spans.supersteps, &mut outcome);
        record_layers(&mut outcome, &spans, twin_ms);
    }
    outcome
}

/// Mean superstep time, in ms, of the sequential twin on the same input:
/// the same Markov chain on one thread, the baseline the parallel chain has
/// to beat.
fn run_twin(
    input: &EdgeListGraph,
    degrees: &DegreeSequence,
    config: SwitchingConfig,
    supersteps: u64,
    outcome: &mut Outcome,
) -> f64 {
    let steps = (supersteps as usize).clamp(1, TWIN_SUPERSTEPS);
    let mut twin = SeqES::new(input.clone(), config);
    let start = Instant::now();
    for _ in 0..steps {
        twin.superstep();
    }
    let elapsed = start.elapsed();
    outcome.correct &= is_valid_sample(&twin.graph(), degrees);
    ms(elapsed) / steps as f64
}

fn record_layers(outcome: &mut Outcome, spans: &Spans, twin_ms: f64) {
    let steps = spans.supersteps as f64;
    let superstep_ms = per(ms(spans.superstep), steps);
    let round_ms = per(ms(spans.round), steps);
    let snapshot_ms = per(ms(spans.snapshot), outcome.latencies_ms.len() as f64);
    let sample_ms = mean(&outcome.latencies_ms);
    let layers = &mut outcome.layers;
    layers.set("superstep_ms", superstep_ms);
    layers.set("round_ms", round_ms);
    layers.set("superstep_other_ms", superstep_ms - round_ms);
    layers.set("rounds_per_superstep", per(spans.rounds as f64, steps));
    layers.set("switch_acceptance", per(spans.legal as f64, spans.requested as f64));
    layers.set("supersteps", steps);
    layers.set("snapshot_ms", snapshot_ms);
    layers.set("twin_superstep_ms", twin_ms);
    layers.set(
        "unattributed_ms",
        sample_ms - SUPERSTEPS_PER_SAMPLE as f64 * superstep_ms - snapshot_ms,
    );
}
