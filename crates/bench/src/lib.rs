//! Shared infrastructure of the benchmark harness.
//!
//! Every figure/table of the paper's evaluation has a dedicated binary in
//! `src/bin/` (see DESIGN.md §5 for the index).  They share:
//!
//! * [`Scale`] — the `--scale {smoke,small,paper}` knob trading fidelity for
//!   runtime.  `smoke` finishes in seconds on a laptop, `small` in minutes,
//!   `paper` approaches the parameter ranges of the publication (hours).
//! * [`BenchWriter`] — CSV + JSON result emission into a directory (the
//!   figure binaries use `results/`).
//! * [`time_supersteps`] — the common timing loop (initialise data structures
//!   and perform `k` supersteps, as in Sec. 6.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gesmc_core::{ChainStats, EdgeSwitching};
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Workload scale of a benchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds: tiny instances, useful to validate the pipeline.
    Smoke,
    /// Minutes: the default; shapes are already meaningful.
    Small,
    /// Hours: parameter ranges close to the paper's.
    Paper,
}

impl Scale {
    /// Parse from a CLI string.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "smoke" => Some(Scale::Smoke),
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Pick one of three values depending on the scale.
    pub fn pick<T>(self, smoke: T, small: T, paper: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Small => small,
            Scale::Paper => paper,
        }
    }
}

/// Parse the common CLI arguments of the figure binaries.
///
/// Supported flags: `--scale {smoke,small,paper}` (default `small`),
/// `--seed <u64>` (default 1), `--threads <usize>` (default: all cores).
pub struct BenchArgs {
    /// Requested scale.
    pub scale: Scale,
    /// Root seed.
    pub seed: u64,
}

impl BenchArgs {
    /// Parse `std::env::args`, initialising the global rayon pool if
    /// `--threads` is given.
    pub fn parse() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut scale = Scale::Small;
        let mut seed = 1u64;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| Scale::parse(s)) {
                        scale = v;
                    }
                    i += 2;
                }
                "--seed" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        seed = v;
                    }
                    i += 2;
                }
                "--threads" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        let _ = rayon::ThreadPoolBuilder::new().num_threads(v).build_global();
                    }
                    i += 2;
                }
                _ => i += 1,
            }
        }
        Self { scale, seed }
    }
}

/// One emitted result row (generic key/value payload serialised to JSON, plus
/// a flat CSV line).
#[derive(Debug)]
pub struct Row {
    /// Column names (CSV header).
    pub columns: Vec<String>,
    /// Values, one per column.
    pub values: Vec<String>,
}

/// Collects rows and writes them to `<dir>/<name>.csv` and `.json`.
pub struct BenchWriter {
    dir: PathBuf,
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl BenchWriter {
    /// Create a writer for experiment `name` with the given CSV header,
    /// writing into `dir`.
    pub fn new(dir: impl Into<PathBuf>, name: &str, header: &[&str]) -> Self {
        Self {
            dir: dir.into(),
            name: name.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header length).
    pub fn row(&mut self, values: &[String]) {
        assert_eq!(values.len(), self.header.len(), "row/header length mismatch");
        self.rows.push(values.to_vec());
        // Also echo to stdout so running a figure binary is self-contained.
        println!("{}", values.join(","));
    }

    /// Write the collected rows into the writer's directory, creating it.
    pub fn finish(&self) -> std::io::Result<PathBuf> {
        fs::create_dir_all(&self.dir)?;
        let csv_path = self.dir.join(format!("{}.csv", self.name));
        let mut csv = fs::File::create(&csv_path)?;
        writeln!(csv, "{}", self.header.join(","))?;
        for row in &self.rows {
            writeln!(csv, "{}", row.join(","))?;
        }
        let json_path = self.dir.join(format!("{}.json", self.name));
        let json_rows: Vec<serde_json::Value> = self
            .rows
            .iter()
            .map(|row| {
                let map: serde_json::Map<String, serde_json::Value> = self
                    .header
                    .iter()
                    .cloned()
                    .zip(row.iter().map(|v| serde_json::Value::String(v.clone())))
                    .collect();
                serde_json::Value::Object(map)
            })
            .collect();
        fs::write(&json_path, serde_json::to_string_pretty(&json_rows)?)?;
        Ok(csv_path)
    }

    /// Print the CSV header to stdout (call before the first row).
    pub fn print_header(&self) {
        println!("{}", self.header.join(","));
    }
}

/// Write a JSON snapshot of the observability registry (every latency
/// histogram and event counter the benchmarked code recorded) next to the
/// `GESMC_BENCH_JSON` report, as `<report stem>.hist.json`.
///
/// Benchmarks call this after `write_json_report` so a checked-in baseline
/// carries its per-phase latency distributions alongside the mean/min/max
/// rows.  A no-op (returning `None`) when `GESMC_BENCH_JSON` is unset or
/// empty, mirroring the report writer.
pub fn dump_obs_histograms() -> Option<PathBuf> {
    let report = std::env::var("GESMC_BENCH_JSON").ok().filter(|p| !p.is_empty())?;
    let report = PathBuf::from(report);
    let stem = report.file_stem()?.to_string_lossy().into_owned();
    let path = report.with_file_name(format!("{stem}.hist.json"));
    fs::write(&path, gesmc_obs::render_json()).ok()?;
    Some(path)
}

/// Time `supersteps` supersteps of `chain` (including data-structure
/// initialisation happening inside the chain constructor is the caller's
/// business, mirroring Sec. 6.2's methodology of measuring init + 20
/// supersteps together).
pub fn time_supersteps<C: EdgeSwitching>(
    chain: &mut C,
    supersteps: usize,
) -> (Duration, ChainStats) {
    let start = Instant::now();
    let stats = chain.run_supersteps(supersteps);
    (start.elapsed(), stats)
}

/// Format seconds with three decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_and_pick() {
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("bogus"), None);
        assert_eq!(Scale::Small.pick(1, 2, 3), 2);
    }

    #[test]
    fn writer_produces_csv_and_json() {
        let dir = std::env::temp_dir().join(format!("gesmc-bench-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut w = BenchWriter::new(&dir, "unit_test_rows", &["a", "b"]);
        w.row(&["1".into(), "x".into()]);
        w.row(&["2".into(), "y".into()]);
        let path = w.finish().unwrap();
        assert_eq!(path, dir.join("unit_test_rows.csv"));
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.starts_with("a,b\n1,x\n2,y"));
        let json = std::fs::read_to_string(path.with_extension("json")).unwrap();
        assert!(json.contains("\"a\": \"1\""));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn timing_helper_runs_the_requested_supersteps() {
        use gesmc_core::{SeqGlobalES, SwitchingConfig};
        let graph = gesmc_datasets::syn_gnp_graph(1, 100, 400);
        let mut chain = SeqGlobalES::new(graph, SwitchingConfig::with_seed(1));
        let (elapsed, stats) = time_supersteps(&mut chain, 3);
        assert_eq!(stats.num_supersteps(), 3);
        assert!(elapsed.as_nanos() > 0);
    }
}
