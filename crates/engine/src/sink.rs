//! Streaming sample sinks: where thinned chain samples go.
//!
//! The null-model workload of Sec. 6 consumes *every* `k`-th superstep's
//! graph as an independent sample, not just the final state.  A
//! [`SampleSink`] receives those samples as the chain produces them, so a
//! job's memory footprint stays one graph regardless of how many samples it
//! emits (unless the sink itself chooses to retain them).  A [`SampleView`]
//! streams an out-of-core sample from its disk-backed store.

use crate::error::EngineError;
use crate::pool::JobReport;
use gesmc_core::StoreSwitching;
use gesmc_graph::io::{write_edge_list_file, BinaryEdgeListWriter};
use gesmc_graph::{Edge, EdgeListGraph};
use std::borrow::Cow;
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Metadata accompanying every emitted sample.
#[derive(Debug, Clone, Copy)]
pub struct SampleContext<'a> {
    /// Name of the job that produced the sample.
    pub job: &'a str,
    /// Superstep after which the sample was taken (1-based).
    pub superstep: u64,
    /// Zero-based index of the sample within the job.
    pub sample_index: u64,
}

/// One emitted sample, borrowed from the chain that produced it: a heap
/// chain's graph, or an out-of-core chain's disk-backed store.
/// [`for_each_edge`](Self::for_each_edge) streams either one;
/// [`graph`](Self::graph) borrows the first and materialises the second.
pub struct SampleView<'a>(View<'a>);

enum View<'a> {
    Graph(&'a EdgeListGraph),
    Store(RefCell<&'a mut (dyn StoreSwitching + Send)>),
}

impl<'a> SampleView<'a> {
    /// The current state of a store chain.
    pub(crate) fn store(chain: &'a mut (dyn StoreSwitching + Send)) -> Self {
        Self(View::Store(RefCell::new(chain)))
    }

    /// Number of nodes `n`.
    pub fn num_nodes(&self) -> usize {
        match &self.0 {
            View::Graph(graph) => graph.num_nodes(),
            View::Store(chain) => chain.borrow().store_num_nodes(),
        }
    }

    /// Visit every edge in slot order.
    pub fn for_each_edge(&self, visit: &mut dyn FnMut(Edge)) {
        match &self.0 {
            View::Graph(graph) => graph.edges().iter().for_each(|&edge| visit(edge)),
            View::Store(chain) => chain.borrow_mut().stream_edges(visit),
        }
    }

    /// The sample as a graph: borrowed from a heap chain, materialised from
    /// an out-of-core one.
    pub fn graph(&self) -> Cow<'_, EdgeListGraph> {
        match &self.0 {
            View::Graph(graph) => Cow::Borrowed(*graph),
            View::Store(chain) => Cow::Owned(chain.borrow().graph()),
        }
    }

    /// Write the sample to `path` as a plain-text edge list, or as binary
    /// `GESMCEL1` streamed edge by edge (never materialising the sample).
    pub fn write_edge_list(&self, path: &Path, binary: bool) -> Result<(), EngineError> {
        if !binary {
            return Ok(write_edge_list_file(path, &self.graph())?);
        }
        let failed = |e| EngineError::Graph(format!("{}: {e}", path.display()));
        let mut writer =
            BinaryEdgeListWriter::create(path, self.num_nodes() as u64).map_err(failed)?;
        let mut pushed = Ok(());
        self.for_each_edge(&mut |edge| {
            if pushed.is_ok() {
                pushed = writer.push(edge);
            }
        });
        pushed.map_err(failed)?;
        writer.finish().map_err(failed)?;
        Ok(())
    }
}

impl<'a> From<&'a EdgeListGraph> for SampleView<'a> {
    fn from(graph: &'a EdgeListGraph) -> Self {
        Self(View::Graph(graph))
    }
}

/// A consumer of thinned chain samples.
///
/// Sinks are owned by their job and driven from the job's worker thread, so
/// implementations need `Send` but not `Sync`.
pub trait SampleSink: Send {
    /// Receive one thinned sample.
    fn emit(&mut self, ctx: &SampleContext<'_>, view: &SampleView<'_>) -> Result<(), EngineError>;

    /// Called once after the job's last superstep, with its final report.
    fn finish(&mut self, report: &JobReport) -> Result<(), EngineError> {
        let _ = report;
        Ok(())
    }
}

/// Writes each sample as an edge list `{job}-s{superstep}.txt` under a
/// directory, or as binary `GESMCEL1` `{job}-s{superstep}.el` after
/// [`binary`](Self::binary).
pub struct EdgeListFileSink {
    dir: PathBuf,
    prefix: String,
    binary: bool,
    written: Vec<PathBuf>,
}

impl EdgeListFileSink {
    /// Create the sink (and the directory, if missing).
    pub fn new(dir: impl AsRef<Path>, prefix: impl Into<String>) -> Result<Self, EngineError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir, prefix: prefix.into(), binary: false, written: Vec::new() })
    }

    /// Builder-style choice of binary `GESMCEL1` files, streamed from the
    /// chain (see [`SampleView::write_edge_list`]).
    pub fn binary(mut self, binary: bool) -> Self {
        self.binary = binary;
        self
    }

    /// Paths of the sample files written so far.
    pub fn written(&self) -> &[PathBuf] {
        &self.written
    }
}

impl SampleSink for EdgeListFileSink {
    fn emit(&mut self, ctx: &SampleContext<'_>, view: &SampleView<'_>) -> Result<(), EngineError> {
        let extension = if self.binary { "el" } else { "txt" };
        let path = self.dir.join(format!("{}-s{:06}.{extension}", self.prefix, ctx.superstep));
        view.write_edge_list(&path, self.binary)?;
        self.written.push(path);
        Ok(())
    }
}

/// Shared handle to the samples collected by a [`MemorySink`].
pub type SampleStore = Arc<Mutex<Vec<(u64, EdgeListGraph)>>>;

/// Retains every sample (with its superstep) in memory.
///
/// The store is shared: clone the handle from [`MemorySink::store`] before
/// moving the sink into a job, and read the samples after the job finished.
#[derive(Default)]
pub struct MemorySink {
    store: SampleStore,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared sample store.
    pub fn store(&self) -> SampleStore {
        Arc::clone(&self.store)
    }
}

impl SampleSink for MemorySink {
    fn emit(&mut self, ctx: &SampleContext<'_>, view: &SampleView<'_>) -> Result<(), EngineError> {
        self.store
            .lock()
            .map_err(|_| EngineError::Graph("sample store mutex poisoned".to_string()))?
            .push((ctx.superstep, view.graph().into_owned()));
        Ok(())
    }
}

/// Invokes a closure for every sample (streaming analysis without retention).
pub struct CallbackSink<F> {
    callback: F,
}

impl<F> CallbackSink<F>
where
    F: FnMut(&SampleContext<'_>, &EdgeListGraph) -> Result<(), EngineError> + Send,
{
    /// Wrap `callback` as a sink.
    pub fn new(callback: F) -> Self {
        Self { callback }
    }
}

impl<F> SampleSink for CallbackSink<F>
where
    F: FnMut(&SampleContext<'_>, &EdgeListGraph) -> Result<(), EngineError> + Send,
{
    fn emit(&mut self, ctx: &SampleContext<'_>, view: &SampleView<'_>) -> Result<(), EngineError> {
        (self.callback)(ctx, &view.graph())
    }
}

/// Counts samples and discards them (throughput benchmarks).
#[derive(Debug, Default)]
pub struct NullSink {
    /// Number of samples received.
    pub samples: u64,
}

impl SampleSink for NullSink {
    fn emit(
        &mut self,
        _ctx: &SampleContext<'_>,
        _view: &SampleView<'_>,
    ) -> Result<(), EngineError> {
        self.samples += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesmc_graph::io::read_edge_list_file;
    use gesmc_graph::Edge;

    fn sample_graph() -> EdgeListGraph {
        EdgeListGraph::new(4, vec![Edge::new(0, 1), Edge::new(2, 3)]).unwrap()
    }

    fn ctx(superstep: u64, index: u64) -> SampleContext<'static> {
        SampleContext { job: "test", superstep, sample_index: index }
    }

    #[test]
    fn file_sink_writes_readable_edge_lists() {
        let dir = std::env::temp_dir().join("gesmc-engine-sink-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut sink = EdgeListFileSink::new(&dir, "job").unwrap();
        let g = sample_graph();
        sink.emit(&ctx(5, 0), &SampleView::from(&g)).unwrap();
        sink.emit(&ctx(10, 1), &SampleView::from(&g)).unwrap();
        assert_eq!(sink.written().len(), 2);
        assert!(sink.written()[0].to_string_lossy().ends_with("job-s000005.txt"));
        let reread = read_edge_list_file(&sink.written()[1]).unwrap();
        assert_eq!(reread.canonical_edges(), g.canonical_edges());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_sink_retains_samples_with_supersteps() {
        let mut sink = MemorySink::new();
        let store = sink.store();
        sink.emit(&ctx(3, 0), &SampleView::from(&sample_graph())).unwrap();
        sink.emit(&ctx(6, 1), &SampleView::from(&sample_graph())).unwrap();
        let samples = store.lock().unwrap();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].0, 3);
        assert_eq!(samples[1].0, 6);
    }

    #[test]
    fn callback_sink_streams_and_propagates_errors() {
        let mut seen = Vec::new();
        let mut sink = CallbackSink::new(|ctx: &SampleContext<'_>, g: &EdgeListGraph| {
            seen.push((ctx.superstep, g.num_edges()));
            if ctx.superstep > 5 {
                Err(EngineError::Graph("stop".to_string()))
            } else {
                Ok(())
            }
        });
        assert!(sink.emit(&ctx(2, 0), &SampleView::from(&sample_graph())).is_ok());
        assert!(sink.emit(&ctx(8, 1), &SampleView::from(&sample_graph())).is_err());
        assert_eq!(seen, vec![(2, 2), (8, 2)]);
    }

    #[test]
    fn null_sink_counts() {
        let mut sink = NullSink::default();
        for i in 0..4 {
            sink.emit(&ctx(i, i), &SampleView::from(&sample_graph())).unwrap();
        }
        assert_eq!(sink.samples, 4);
    }
}
