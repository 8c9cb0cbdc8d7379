//! The study driver: fan the sweep out over the engine's job pool.
//!
//! [`run_study`] enumerates the sweep cells of a [`StudySpec`], skips cells
//! already completed by an earlier run (cell-level resume), submits the rest
//! as engine jobs — each with a [`MetricsSink`] at thinning interval 1 — and
//! aggregates the per-cell metrics into a [`StudyReport`] written under the
//! study's output directory.
//!
//! ## Determinism
//!
//! Every cell's chain seed is derived from the study seed and the cell index
//! and recorded in the report, so re-running the same spec at the same scale
//! produces a bit-identical `{name}.json` / `{name}.csv` (timings live in a
//! separate side-car file).  The exact parallel chains are deterministic for
//! any thread budget; the inexact `naive-par-es` baseline is *not*, so the
//! runner pins its cells to a single thread regardless of the configured
//! per-job budget.
//!
//! ## Resume
//!
//! After the pool drains, every completed cell is written to
//! `{output_dir}/{name}.cells/cell-*.json` (atomically, via a sibling temp
//! file).  A later run with [`StudyOptions::resume`] reloads any cell file
//! whose identity — job name, seed, superstep count and thinning set — still
//! matches the spec, and only runs the remainder.  Resume granularity is one
//! cell: an interrupted cell re-runs from scratch, because the streaming
//! accumulator's state is not part of the engine's chain checkpoint.

use crate::error::StudyError;
use crate::report::{CellReport, StudyReport};
use crate::sink::{CellOutcome, MetricsSink};
use crate::spec::{CellSpec, StudyScale, StudySpec};
use gesmc_core::spec::PARAM_LOOP_PROBABILITY;
use gesmc_engine::{default_registry, GraphSource, JobSpec, JobState, QueuedJob, ServicePool};
use gesmc_graph::EdgeListGraph;
use serde_json::{Map, Value};
use std::path::{Path, PathBuf};

/// Run-time options of `gesmc study` (everything the spec does not pin).
#[derive(Debug, Clone, Default)]
pub struct StudyOptions {
    /// Workload scale (default smoke).
    pub scale: StudyScale,
    /// Override of the spec's worker count.
    pub workers: Option<usize>,
    /// Override of the spec's per-job thread budget.
    pub threads_per_job: Option<usize>,
    /// Override of the spec's output directory.
    pub output_dir: Option<PathBuf>,
    /// Reuse completed-cell files from an earlier (interrupted) run.
    pub resume: bool,
}

/// The outcome of a study run.
#[derive(Debug)]
pub struct StudyRun {
    /// The aggregated report (already written to disk).
    pub report: StudyReport,
    /// Path of the main JSON report file.
    pub json_path: PathBuf,
    /// How many cells were reloaded from an earlier run instead of re-run.
    pub resumed_cells: usize,
}

/// File name of a cell's resume file.
fn cell_file_name(cell: &CellSpec) -> String {
    format!("cell-{:03}-{}.json", cell.index, cell.job_name)
}

/// The identity of one cell's inputs: everything that, if changed in the
/// spec, must invalidate a cached cell file.  Seeds and superstep counts are
/// carried by the cell report itself; this object covers the rest (the graph
/// definition and the chain parameters).
fn cell_identity(spec: &StudySpec, cell_spec: &CellSpec) -> Value {
    let mut map = Map::new();
    map.insert("family".into(), Value::String(cell_spec.graph.family.clone()));
    map.insert("nodes".into(), Value::Number(cell_spec.graph.nodes as f64));
    map.insert("edge_budget".into(), Value::Number(cell_spec.graph.edges as f64));
    map.insert("gamma".into(), Value::Number(cell_spec.graph.gamma));
    map.insert("loop_probability".into(), Value::Number(spec.loop_probability));
    Value::Object(map)
}

/// Wrap a cell report in the envelope that identifies the run it belongs to.
fn cell_envelope(
    spec: &StudySpec,
    scale: StudyScale,
    cell_spec: &CellSpec,
    cell: &CellReport,
) -> Value {
    let mut map = Map::new();
    map.insert("study".into(), Value::String(spec.name.clone()));
    map.insert("scale".into(), Value::String(scale.name().to_string()));
    map.insert("supersteps".into(), Value::Number(spec.supersteps_at(scale) as f64));
    map.insert(
        "thinnings".into(),
        Value::Array(spec.thinnings.iter().map(|&k| Value::Number(k as f64)).collect()),
    );
    map.insert("identity".into(), cell_identity(spec, cell_spec));
    map.insert("cell".into(), cell.to_value());
    Value::Object(map)
}

/// Atomically write a completed cell's resume file.
fn write_cell_file(
    dir: &Path,
    spec: &StudySpec,
    scale: StudyScale,
    cell_spec: &CellSpec,
    cell: &CellReport,
) -> Result<(), StudyError> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(cell_file_name(cell_spec));
    let tmp = path.with_extension("json.tmp");
    let text = serde_json::to_string_pretty(&cell_envelope(spec, scale, cell_spec, cell))
        .expect("value serialisation cannot fail");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, &path)?;
    Ok(())
}

/// Try to reload a completed cell from an earlier run.  Returns `None` (not
/// an error) when the file is missing, unreadable, or belongs to a different
/// spec/scale — those cells simply re-run.
fn load_cell_file(
    dir: &Path,
    spec: &StudySpec,
    scale: StudyScale,
    cell: &CellSpec,
) -> Option<CellReport> {
    let text = std::fs::read_to_string(dir.join(cell_file_name(cell))).ok()?;
    let root = serde_json::from_str(&text).ok()?;
    if root.get("study").and_then(Value::as_str) != Some(spec.name.as_str())
        || root.get("scale").and_then(Value::as_str) != Some(scale.name())
        || root.get("supersteps").and_then(Value::as_u64) != Some(spec.supersteps_at(scale))
    {
        return None;
    }
    let thinnings: Vec<usize> = root
        .get("thinnings")?
        .as_array()?
        .iter()
        .map(|v| v.as_u64().map(|k| k as usize))
        .collect::<Option<Vec<_>>>()?;
    if thinnings != spec.thinnings {
        return None;
    }
    // The graph definition and chain parameters must be unchanged — seeds
    // alone do not cover e.g. an edited gamma or edge budget under the same
    // label.
    if root.get("identity")? != &cell_identity(spec, cell) {
        return None;
    }
    let report = CellReport::from_value(root.get("cell")?).ok()?;
    // The cell identity must match the spec-derived cell exactly.
    if report.job != cell.job_name
        || report.seed != cell.seed
        || report.graph_seed != cell.graph_seed
        || report.supersteps != cell.supersteps
    {
        return None;
    }
    Some(report)
}

/// Generate the input graph of one cell (shared by every chain sweeping the
/// same graph index — see [`CellSpec::graph_seed`]).
fn generate_cell_graph(cell: &CellSpec) -> Result<EdgeListGraph, StudyError> {
    let source = GraphSource::Generated {
        family: cell.graph.family.clone(),
        nodes: cell.graph.nodes,
        edges: cell.graph.edges,
        gamma: cell.graph.gamma,
        seed: cell.graph_seed,
    };
    Ok(source.load()?)
}

/// Build the engine job of one cell around its (pre-generated) input graph,
/// returning the queued job, the outcome handle, and the graph's actual
/// dimensions.
fn build_cell_job(
    spec: &StudySpec,
    cell: &CellSpec,
    threads: Option<usize>,
    graph: EdgeListGraph,
) -> (QueuedJob, CellOutcome, usize, usize) {
    let (nodes, edges) = (graph.num_nodes(), graph.num_edges());
    let sink = MetricsSink::new(&graph, &spec.thinnings, spec.effective_proxy_stride());
    let outcome = sink.outcome();
    // Inexact parallel chains (naive-par-es) interleave racily across
    // threads; the registry's capability flags identify them, and the runner
    // pins their cells to one thread so study reports stay reproducible.
    let racy = default_registry()
        .get(&cell.algorithm.name)
        .is_some_and(|info| info.parallel && !info.exact);
    let threads = if racy { Some(1) } else { threads };
    let mut job =
        JobSpec::new(&cell.job_name, GraphSource::InMemory(graph), cell.algorithm.clone())
            .supersteps(cell.supersteps)
            .thinning(1)
            .seed(cell.seed);
    // The study-level P_L is a default: a per-chain `pl` parameter wins.
    if cell.algorithm.param(PARAM_LOOP_PROBABILITY).is_none() {
        job = job.loop_probability(spec.loop_probability);
    }
    job.threads = threads;
    (QueuedJob::new(job, Box::new(sink)), outcome, nodes, edges)
}

/// Run a study end-to-end: sweep, measure, aggregate, write.
///
/// On a per-cell job failure, the successful cells of this run are still
/// written to the resume directory before the error is returned, so a
/// follow-up run with [`StudyOptions::resume`] picks up where this one left
/// off.
pub fn run_study(spec: &StudySpec, opts: &StudyOptions) -> Result<StudyRun, StudyError> {
    let scale = opts.scale;
    let cells = spec.cells(scale);
    let output_dir = opts.output_dir.clone().unwrap_or_else(|| spec.output_dir.clone());
    let cells_dir = output_dir.join(format!("{}.cells", spec.name));
    std::fs::create_dir_all(&output_dir)?;

    let mut completed: Vec<Option<CellReport>> = vec![None; cells.len()];
    let mut resumed_cells = 0usize;
    if opts.resume {
        for cell in &cells {
            if let Some(report) = load_cell_file(&cells_dir, spec, scale, cell) {
                completed[cell.index] = Some(report);
                resumed_cells += 1;
            }
        }
    }

    let threads = opts.threads_per_job.or(spec.threads_per_job);
    let mut jobs = Vec::new();
    let mut pending: Vec<(usize, CellOutcome, usize, usize)> = Vec::new();
    // Cells sweeping the same graph index share the identical input
    // (same family + graph_seed), so generate each distinct graph once and
    // clone it into the cells that still need to run.
    let mut graph_cache: Vec<Option<EdgeListGraph>> = vec![None; spec.graphs.len()];
    for cell in &cells {
        if completed[cell.index].is_some() {
            continue;
        }
        let graph_index = cell.index % spec.graphs.len();
        if graph_cache[graph_index].is_none() {
            graph_cache[graph_index] = Some(generate_cell_graph(cell)?);
        }
        let graph = graph_cache[graph_index].clone().expect("cache entry just filled");
        let (job, outcome, nodes, edges) = build_cell_job(spec, cell, threads, graph);
        jobs.push(job);
        pending.push((cell.index, outcome, nodes, edges));
    }
    drop(graph_cache);

    let pool = ServicePool::start(opts.workers.unwrap_or(spec.workers), 0);
    let handles: Vec<_> = jobs
        .into_iter()
        .map(|job| pool.submit(job).expect("an unbounded running pool accepts every job"))
        .collect();

    let mut first_error = None;
    for (handle, (cell_index, outcome, nodes, edges)) in handles.iter().zip(pending) {
        let cell = &cells[cell_index];
        let why = match handle.wait() {
            JobState::Done(_) => {
                let metrics = outcome
                    .lock()
                    .map_err(|_| StudyError::Report("cell outcome mutex poisoned".into()))?
                    .take()
                    .ok_or_else(|| {
                        StudyError::Report(format!(
                            "cell {:?} finished without publishing metrics",
                            cell.job_name
                        ))
                    })?;
                let report = CellReport {
                    job: cell.job_name.clone(),
                    chain: cell.algorithm.to_string(),
                    family: cell.graph.family.clone(),
                    label: cell.graph.label.clone(),
                    nodes,
                    edges,
                    gamma: cell.graph.gamma,
                    seed: cell.seed,
                    graph_seed: cell.graph_seed,
                    supersteps: cell.supersteps,
                    points: metrics.thinnings.iter().copied().zip(metrics.fractions).collect(),
                    proxy_supersteps: metrics.proxy_supersteps,
                    triangles: metrics.proxies.triangles,
                    clustering: metrics.proxies.clustering,
                    assortativity: metrics.proxies.assortativity,
                    wall_clock_secs: Some(metrics.wall_clock.as_secs_f64()),
                };
                write_cell_file(&cells_dir, spec, scale, cell, &report)?;
                completed[cell_index] = Some(report);
                continue;
            }
            JobState::Failed(e) => e,
            other => other.label().to_string(),
        };
        first_error.get_or_insert(StudyError::Job(format!("{}: {why}", cell.job_name)));
    }
    if let Some(e) = first_error {
        return Err(e);
    }

    let report = StudyReport {
        study: spec.name.clone(),
        scale: scale.name().to_string(),
        seed: spec.seed,
        supersteps: spec.supersteps_at(scale),
        thinnings: spec.thinnings.clone(),
        cells: completed
            .into_iter()
            .map(|c| c.expect("all cells completed without error"))
            .collect(),
    };
    let json_path = report.write(&output_dir)?;
    Ok(StudyRun { report, json_path, resumed_cells })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(dir: &Path) -> StudySpec {
        let mut spec = StudySpec::parse(
            r#"{
                "name": "runner_unit",
                "chains": ["seq-es", "seq-global-es"],
                "graphs": [{ "family": "gnp", "nodes": 50, "edges": 150 }],
                "thinnings": [1, 2, 4],
                "supersteps": 8,
                "seed": 3,
                "workers": 2
            }"#,
        )
        .unwrap();
        spec.output_dir = dir.to_path_buf();
        spec
    }

    #[test]
    fn runs_every_cell_and_reports_deterministically() {
        let dir = std::env::temp_dir().join("gesmc-study-runner-test");
        let _ = std::fs::remove_dir_all(&dir);
        let spec = tiny_spec(&dir);
        let opts = StudyOptions::default();

        let run = run_study(&spec, &opts).unwrap();
        assert_eq!(run.report.cells.len(), 2);
        assert_eq!(run.resumed_cells, 0);
        assert!(run.json_path.exists());
        for cell in &run.report.cells {
            assert_eq!(cell.points.len(), 3);
            assert!(cell.points.iter().all(|&(_, f)| (0.0..=1.0).contains(&f)));
            assert!(cell.wall_clock_secs.is_some_and(|s| s > 0.0));
            assert_eq!(cell.nodes, 50);
        }
        // Chain seeds differ per cell; both cells share the one input graph.
        assert_ne!(run.report.cells[0].seed, run.report.cells[1].seed);
        assert_eq!(run.report.cells[0].graph_seed, run.report.cells[1].graph_seed);
        assert_eq!(run.report.cells[0].edges, run.report.cells[1].edges);

        // Bit-identical on re-run (fresh directory, no resume).
        let first = std::fs::read_to_string(&run.json_path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let rerun = run_study(&spec, &opts).unwrap();
        let second = std::fs::read_to_string(&rerun.json_path).unwrap();
        assert_eq!(first, second);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_reuses_completed_cells() {
        let dir = std::env::temp_dir().join("gesmc-study-resume-test");
        let _ = std::fs::remove_dir_all(&dir);
        let spec = tiny_spec(&dir);

        let first = run_study(&spec, &StudyOptions::default()).unwrap();
        let resumed =
            run_study(&spec, &StudyOptions { resume: true, ..Default::default() }).unwrap();
        assert_eq!(resumed.resumed_cells, 2, "both cells must be reloaded");
        assert_eq!(first.report.to_json_string(), resumed.report.to_json_string());

        // A changed seed invalidates the cached cells.
        let mut reseeded = spec.clone();
        reseeded.seed = 99;
        let fresh =
            run_study(&reseeded, &StudyOptions { resume: true, ..Default::default() }).unwrap();
        assert_eq!(fresh.resumed_cells, 0, "stale cells must not be reused");

        // So does a changed chain/graph parameter that leaves the job names
        // and seeds untouched (here: P_L).
        let mut retuned = spec.clone();
        retuned.loop_probability = 0.25;
        let fresh =
            run_study(&retuned, &StudyOptions { resume: true, ..Default::default() }).unwrap();
        assert_eq!(fresh.resumed_cells, 0, "a changed P_L must not reuse cached cells");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failing_cell_surfaces_the_engine_error() {
        let dir = std::env::temp_dir().join("gesmc-study-fail-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = tiny_spec(&dir);
        spec.graphs[0].family = "unknown-family".into();
        match run_study(&spec, &StudyOptions::default()) {
            Err(StudyError::Engine(_)) => {}
            other => panic!("expected engine error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
