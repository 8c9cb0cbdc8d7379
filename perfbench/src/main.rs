//! Steady end-to-end and per-layer benchmark of the gesmc chains and of the
//! sampling service.
//!
//! Run from the repository root:
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload es-small --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Every workload produces null-model samples, so every workload reports the
//! same end-to-end metrics: the mean latency of one sample over the window,
//! and the median of several set-ups.  The latency is a mean, not a median,
//! because chain samples fall into modes by the work they carry (one or two
//! hash-set rebuilds each), and a median jumps between those modes from run
//! to run while the mean does not; requests are summarised the same way so
//! that the metric means the same on every workload.
//!
//! * `es-small` — exact parallel ES-MC ([`gesmc_core::ParES`]) on a 20k-edge
//!   graph, one sample every four supersteps: the regime where
//!   per-superstep overhead (windows, allocation, dependency tables)
//!   dominates.
//! * `serve-hot` — concurrent closed-loop clients against an in-process
//!   `gesmc-serve` node, every request a warm-cache hit.
//! * `serve-cold` — the same clients and node, every request a fresh key,
//!   so a cache miss whose engine job runs exact parallel G-ES-MC.
//!
//! `--trace 1` runs the same workload with spans around each layer call and
//! reports the per-layer metrics instead (every one of them; a layer the
//! workload does not pass through reads 0).  Inputs are a pure function of
//! `--seed`.  The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`.

mod chains;
mod serve;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// Per-layer metrics and their units, in report order.
const LAYERS: &[(&str, &str)] = &[
    // Chain layer (`gesmc-core`): one superstep and its phases.
    ("superstep_ms", "ms"),
    ("round_ms", "ms"),
    ("superstep_other_ms", "ms"),
    ("rounds_per_superstep", "count"),
    ("switch_acceptance", "ratio"),
    ("supersteps", "count"),
    ("snapshot_ms", "ms"),
    ("twin_superstep_ms", "ms"),
    // Service layer (`gesmc-serve`): one request and its phases.
    ("connect_ms", "ms"),
    ("queue_wait_ms", "ms"),
    ("read_ms", "ms"),
    ("handle_ms", "ms"),
    ("write_ms", "ms"),
    ("cache_probe_ms", "ms"),
    ("compute_ms", "ms"),
    ("cache_hit_ratio", "ratio"),
    // Sample latency not covered by any layer above.
    ("unattributed_ms", "ms"),
];

/// Per-layer readings of one traced run, keyed by names from [`LAYERS`].
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Record `value` for the per-layer metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(LAYERS.iter().any(|(known, _)| *known == name), "unknown layer metric {name}");
        self.0.insert(name, value);
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every output checked was correct.
    pub correct: bool,
    /// Samples requested during the measurement.
    pub attempted: u64,
    /// Samples that failed (error or refused request).
    pub failed: u64,
    /// Latency of every completed sample, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Duration of each repetition of the set-up, in seconds.
    pub setups_s: Vec<f64>,
    /// Per-layer readings; empty unless the run was traced.
    pub layers: Layers,
}

/// The median of `values` (the lower middle one for an even count); 0 for
/// an empty slice.
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(sorted.len().saturating_sub(1) / 2).copied().unwrap_or(0.0)
}

/// Mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    per(values.iter().sum(), values.len() as f64)
}

/// Mean of a total over `count` observations; 0 when nothing was observed.
pub fn per(total: f64, count: f64) -> f64 {
    if count > 0.0 {
        total / count
    } else {
        0.0
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in raw.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(flag.trim_start_matches("--").to_string(), value.clone());
            }
            _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
        }
    }
    let mut take = |name: &str| flags.remove(name).ok_or_else(|| format!("missing --{name}"));
    let workload = take("workload")?;
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    // JSON has no NaN or infinity; a metric that cannot be computed is 0.
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn report(outcome: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = if trace {
        LAYERS
            .iter()
            .map(|(name, unit)| {
                json_metric(name, outcome.layers.0.get(name).copied().unwrap_or(0.0), unit)
            })
            .collect()
    } else {
        vec![
            json_metric("sample_ms", mean(&outcome.latencies_ms), "ms"),
            json_metric("setup_s", median(&outcome.setups_s), "s"),
        ]
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload es-small|serve-hot|serve-cold \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    // The exact parallel chains can currently decide a switch wrongly when
    // two or more threads run a superstep, and then emit a multigraph.
    // Every workload therefore runs them on one thread, so that each sample
    // checked below must be a simple graph; measuring them on more threads
    // is a benchmark change of its own once that race is fixed.  With one
    // thread the parallel executor runs every operation inline, so no
    // figure includes the cost of spawning its worker threads.
    rayon::ThreadPoolBuilder::new().num_threads(1).build_global().expect("rayon pool");
    // Per-request info lines would flood stderr; warnings still show.
    gesmc_obs::log::configure(gesmc_obs::LogFormat::Text, gesmc_obs::Level::Warn);

    let window = Duration::from_secs_f64(args.seconds);
    let outcome = match args.workload.as_str() {
        "es-small" => chains::run(args.seed, window, args.trace),
        "serve-hot" => serve::run(args.seed, window, args.trace, serve::Keys::Hot),
        "serve-cold" => serve::run(args.seed, window, args.trace, serve::Keys::Cold),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (es-small, serve-hot, serve-cold)");
            return ExitCode::from(2);
        }
    };
    if !outcome.correct {
        eprintln!("perfbench: {}: an output failed its correctness check", args.workload);
    }
    println!("{}", report(&outcome, args.trace));
    ExitCode::SUCCESS
}
