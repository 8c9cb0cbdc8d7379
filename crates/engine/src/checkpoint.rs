//! The binary checkpoint format.
//!
//! A checkpoint holds a chain's edge array in slot order and its
//! [`ChainSnapshot`] (raw PRNG stream state, superstep counter, chain
//! configuration), together with the job-level progress needed to continue
//! the *job* — total superstep target, thinning interval, and how many
//! samples were already emitted — so that `resume` re-creates both the chain
//! and the job bookkeeping exactly.
//!
//! One codec reads and writes the format: [`CheckpointWriter`] and
//! [`CheckpointReader`] stream it over any [`Write`] / [`Read`] in bounded
//! memory.  [`Checkpoint::to_bytes`] / [`Checkpoint::from_bytes`] are that
//! pair over a `Vec` and a slice, [`Checkpoint::write_to_file`] /
//! [`Checkpoint::read_from_file`] the same over a file, and
//! [`run_job`](crate::run_job) streams a running chain's edges through it
//! ([`EdgeSwitching::for_each_edge`]), on the heap and out of core alike.
//!
//! ## Layout (version 1, all integers little-endian)
//!
//! ```text
//! magic           8  b"GESMCKP1"
//! version         4  u32 = 1
//! flags           4  u32 (bit 0: prefetch)
//! job name        8 + len   u64 length + UTF-8 bytes
//! algorithm       8 + len   u64 length + UTF-8 bytes (chain name, "SeqES" …)
//! seed            8  u64
//! loop_prob       8  f64 bits
//! supersteps_done 8  u64
//! total           8  u64
//! thinning        8  u64
//! samples_emitted 8  u64
//! rng state      32  4 × u64 (Pcg64 raw words; all-zero = none)
//! aux seed state  8  u64 (SeedSequence raw state; 0 = none)
//! num_nodes       8  u64
//! num_edges       8  u64
//! edges       m × 8  (u32 u, u32 v) per edge, slot order
//! chain spec  8 + len   u64 length + UTF-8 canonical ChainSpec string
//!                       (OPTIONAL trailing field: absent in files written
//!                       before the registry redesign, which therefore keep
//!                       loading; carries chain-specific parameters so
//!                       factories see them again on resume)
//! checksum        8  u64 FNV-1a over all preceding bytes
//! ```

use crate::error::EngineError;
use gesmc_core::{ChainSnapshot, ChainSpec, EdgeSwitching, SnapshotError};
use gesmc_graph::io::EDGE_BYTES;
use gesmc_graph::{Edge, EdgeListGraph, GraphError};
use gesmc_randx::{Fnv1a64, RngState};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

pub(crate) const MAGIC: &[u8; 8] = b"GESMCKP1";
const VERSION: u32 = 1;
const FLAG_PREFETCH: u32 = 1;

/// A consumer of the periodic checkpoints a running job captures at
/// superstep boundaries.
///
/// [`JobSpec::checkpoint_every`](crate::JobSpec::checkpoint_every) sets the
/// cadence; the driver ([`run_job`](crate::run_job)) calls
/// `store` with each capture in addition to (or instead of) writing a
/// `checkpoint_dir` file, so services can route checkpoints through their own
/// storage — a journaled data directory, an object store, a test double.
/// Returning an error fails the job; sinks that prefer to degrade (keep the
/// job running when durable storage hiccups) should absorb their own I/O
/// failures and return `Ok`.
pub trait CheckpointSink: Send {
    /// Persist one captured checkpoint.
    fn store(&mut self, checkpoint: &Checkpoint) -> Result<(), EngineError>;
}

/// A resumable capture of a randomization job: the chain's edges, its
/// counter-only [`ChainSnapshot`], and the job's progress.
///
/// A resume builds the chain from [`graph`](Self::graph) through the
/// registry factory a fresh run uses, then
/// [`restore`](EdgeSwitching::restore)s the snapshot into it.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Name of the checkpointed job.
    pub job_name: String,
    /// The chain's counters.
    pub snapshot: ChainSnapshot,
    /// The chain's edge array **in slot order** (chains sample slot indices,
    /// so the order is part of the state, unlike in a canonical edge set).
    /// The decoder checks the file's integrity, not that the edges form a
    /// simple graph: [`graph`](Self::graph) validates them.
    pub edges: Vec<Edge>,
    /// The job's full [`ChainSpec`], so chain-specific parameters reach the
    /// factory again on resume.  `None` for checkpoints written before the
    /// registry redesign (their chains take no parameters beyond the
    /// `pl`/`prefetch` pair already carried by the snapshot).
    pub algorithm_spec: Option<ChainSpec>,
    /// The job's total superstep target.
    pub total_supersteps: u64,
    /// The job's thinning interval.
    pub thinning: u64,
    /// Samples already emitted before the checkpoint.
    pub samples_emitted: u64,
}

impl Checkpoint {
    /// Capture a running chain together with its job progress: its
    /// snapshot, and its edges read through
    /// [`EdgeSwitching::for_each_edge`].
    ///
    /// Fails with [`SnapshotError::Unsupported`] (wrapped in
    /// [`EngineError::Snapshot`]) for chains that do not support snapshots.
    pub fn capture(
        job_name: &str,
        chain: &dyn EdgeSwitching,
        algorithm: &ChainSpec,
        total_supersteps: u64,
        thinning: u64,
        samples_emitted: u64,
    ) -> Result<Self, EngineError> {
        let mut checkpoint =
            Self::header(job_name, chain, algorithm, total_supersteps, thinning, samples_emitted)?;
        checkpoint.edges.reserve_exact(chain.num_edges());
        chain.for_each_edge(&mut |edge| checkpoint.edges.push(edge));
        Ok(checkpoint)
    }

    /// [`capture`](Self::capture) without the edges.
    pub(crate) fn header(
        job_name: &str,
        chain: &dyn EdgeSwitching,
        algorithm: &ChainSpec,
        total_supersteps: u64,
        thinning: u64,
        samples_emitted: u64,
    ) -> Result<Self, EngineError> {
        let snapshot = chain
            .snapshot()
            .ok_or(EngineError::Snapshot(SnapshotError::Unsupported(chain.name())))?;
        Ok(Self {
            job_name: job_name.to_string(),
            snapshot,
            edges: Vec::new(),
            algorithm_spec: Some(algorithm.clone()),
            total_supersteps,
            thinning,
            samples_emitted,
        })
    }

    /// The captured graph, validated as a simple graph on
    /// [`snapshot.num_nodes`](ChainSnapshot::num_nodes) nodes: the file is
    /// outside input, and a chain is built from it only after this check.
    pub fn graph(&self) -> Result<EdgeListGraph, GraphError> {
        EdgeListGraph::new(self.snapshot.num_nodes, self.edges.clone())
    }

    /// The chain name recorded in the checkpoint header (e.g. `SeqES`,
    /// `GlobalCurveball`) — resolvable by any
    /// [`ChainRegistry`](gesmc_core::ChainRegistry) that registered the
    /// chain, including [`default_registry`](crate::default_registry).
    pub fn chain_name(&self) -> &str {
        &self.snapshot.algorithm
    }

    /// The [`ChainSpec`] to rebuild the chain from on resume: the stored
    /// spec when the file carries one, otherwise (legacy files) a bare spec
    /// naming the chain via the header's chain name, which every registry
    /// spelling resolves.
    pub fn chain_spec(&self) -> ChainSpec {
        self.algorithm_spec.clone().unwrap_or_else(|| ChainSpec::new(self.chain_name()))
    }

    /// Everything before the edge payload, with `num_edges` as the declared
    /// edge count.
    fn encode_prefix(&self, num_edges: u64) -> Vec<u8> {
        let snap = &self.snapshot;
        let mut out = Vec::with_capacity(128);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        let flags = if snap.prefetch { FLAG_PREFETCH } else { 0 };
        out.extend_from_slice(&flags.to_le_bytes());
        for s in [&self.job_name, &snap.algorithm] {
            out.extend_from_slice(&(s.len() as u64).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        out.extend_from_slice(&snap.seed.to_le_bytes());
        out.extend_from_slice(&snap.loop_probability.to_bits().to_le_bytes());
        out.extend_from_slice(&snap.supersteps_done.to_le_bytes());
        out.extend_from_slice(&self.total_supersteps.to_le_bytes());
        out.extend_from_slice(&self.thinning.to_le_bytes());
        out.extend_from_slice(&self.samples_emitted.to_le_bytes());
        for word in snap.rng.to_words() {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out.extend_from_slice(&snap.aux_seed_state.to_le_bytes());
        out.extend_from_slice(&(snap.num_nodes as u64).to_le_bytes());
        out.extend_from_slice(&num_edges.to_le_bytes());
        out
    }

    /// Encode this checkpoint's header and the `num_edges` edges that
    /// `edges` visits into `out` through a [`CheckpointWriter`].
    fn encode<W: Write>(
        &self,
        out: W,
        num_edges: usize,
        edges: impl FnOnce(&mut dyn FnMut(Edge)),
    ) -> Result<W, EngineError> {
        let mut writer = CheckpointWriter::new(out, self, num_edges as u64)?;
        let mut pushed = Ok(());
        edges(&mut |edge| {
            if pushed.is_ok() {
                pushed = writer.push_edge(edge);
            }
        });
        pushed?;
        writer.finish()
    }

    /// Serialise to the binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let out = Vec::with_capacity(self.edges.len() * 8 + 256);
        self.encode(out, self.edges.len(), |visit| self.edges.iter().for_each(|&e| visit(e)))
            .expect("encoding into a Vec cannot fail")
    }

    /// Parse the binary format, verifying magic, version and checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, EngineError> {
        CheckpointReader::new(bytes, bytes.len() as u64)?.read_all()
    }

    /// Write the checkpoint to a file, atomically and durably: through a
    /// sibling temp file that is fsynced and renamed into place, so an
    /// interruption mid-write never clobbers the previous checkpoint and an
    /// acknowledged one survives a power cut.
    pub fn write_to_file(&self, path: impl AsRef<Path>) -> Result<(), EngineError> {
        let edges = |visit: &mut dyn FnMut(Edge)| self.edges.iter().for_each(|&e| visit(e));
        publish(path.as_ref(), |out| self.encode(out, self.edges.len(), edges).map(drop))
    }

    /// Write this checkpoint to a file like
    /// [`write_to_file`](Self::write_to_file), with the edges streamed from
    /// `chain` instead of [`edges`](Self::edges).
    pub(crate) fn write_chain_to_file(
        &self,
        path: &Path,
        chain: &dyn EdgeSwitching,
    ) -> Result<(), EngineError> {
        let edges = |visit: &mut dyn FnMut(Edge)| chain.for_each_edge(visit);
        publish(path, |out| self.encode(out, chain.num_edges(), edges).map(drop))
    }

    /// Read and parse a checkpoint file.
    pub fn read_from_file(path: impl AsRef<Path>) -> Result<Self, EngineError> {
        CheckpointReader::open(path)?.read_all()
    }
}

/// Publish a checkpoint file at `path`: `write` fills a sibling temp file,
/// which is fsynced and renamed into place, and then the parent directory
/// is fsynced (best-effort).  A failed write removes the temp file and
/// leaves any previous checkpoint untouched; a checkpoint this call
/// acknowledged survives a power cut, not just a process kill.
pub(crate) fn publish(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<(), EngineError>,
) -> Result<(), EngineError> {
    let tmp = path.with_extension("ckpt.tmp");
    let written = (|| -> Result<(), EngineError> {
        let mut out = BufWriter::new(File::create(&tmp)?);
        write(&mut out)?;
        out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        Ok(std::fs::rename(&tmp, path)?)
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return written;
    }
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// The `GESMCKP1` encoder: streams a checkpoint into any [`Write`] in
/// bounded memory, without ever materialising the edge array.
///
/// [`Checkpoint::to_bytes`] is this writer over a `Vec<u8>`;
/// [`Checkpoint::write_to_file`] the same over a file; out-of-core runs
/// stream the edges of graphs larger than their memory budget through it.
///
/// Usage: [`new`](Self::new) with the metadata (its `edges` are ignored;
/// pass the true count as `num_edges`), [`push_edge`](Self::push_edge) each
/// edge in slot order, then [`finish`](Self::finish).
#[derive(Debug)]
pub struct CheckpointWriter<W> {
    out: W,
    /// The format's integrity checksum, folded as the bytes stream past.
    hash: Fnv1a64,
    spec: Option<String>,
    declared_edges: u64,
    written_edges: u64,
}

impl<W: Write> CheckpointWriter<W> {
    /// Start writing a checkpoint for `meta` declaring `num_edges` edges.
    pub fn new(out: W, meta: &Checkpoint, num_edges: u64) -> Result<Self, EngineError> {
        let mut writer = Self {
            out,
            hash: Fnv1a64::new(),
            spec: meta.algorithm_spec.as_ref().map(ChainSpec::to_string),
            declared_edges: num_edges,
            written_edges: 0,
        };
        writer.put(&meta.encode_prefix(num_edges))?;
        Ok(writer)
    }

    /// Append the next edge (slot order).
    pub fn push_edge(&mut self, edge: Edge) -> Result<(), EngineError> {
        if self.written_edges == self.declared_edges {
            return Err(EngineError::Checkpoint(format!(
                "checkpoint writer overflow: {} edges declared",
                self.declared_edges
            )));
        }
        self.put(&edge.to_le_bytes())?;
        self.written_edges += 1;
        Ok(())
    }

    /// Write the optional chain-spec tail and the checksum, flush, and hand
    /// back the output.
    pub fn finish(mut self) -> Result<W, EngineError> {
        if self.written_edges != self.declared_edges {
            return Err(EngineError::Checkpoint(format!(
                "checkpoint writer finished after {} of {} declared edges",
                self.written_edges, self.declared_edges
            )));
        }
        // Absent for legacy round-trips, which thus stay byte-identical.
        if let Some(text) = self.spec.take() {
            self.put(&(text.len() as u64).to_le_bytes())?;
            self.put(text.as_bytes())?;
        }
        self.out.write_all(&self.hash.finish().to_le_bytes())?;
        self.out.flush()?;
        Ok(self.out)
    }

    /// Write `bytes`, folding them into the running checksum.
    fn put(&mut self, bytes: &[u8]) -> Result<(), EngineError> {
        self.hash.write(bytes);
        Ok(self.out.write_all(bytes)?)
    }
}

/// The `GESMCKP1` decoder: streams a checkpoint from any [`Read`] in bounded
/// memory — metadata first, then one edge at a time, then the integrity
/// verdict.
///
/// [`Checkpoint::from_bytes`] is this reader over a slice and
/// [`Checkpoint::read_from_file`] the same over a file; both collect the
/// edges and return only a verified checkpoint.  A caller streaming the edges
/// itself necessarily sees them *before* the FNV-1a checksum at the end of
/// the input can be checked, so it must treat everything streamed as
/// tentative until [`finish`](Self::finish) returns `Ok`, and discard any
/// scratch state built from the edges if it does not (the out-of-core resume
/// path deletes its scratch store).
#[derive(Debug)]
pub struct CheckpointReader<R> {
    input: R,
    hash: Fnv1a64,
    payload_len: u64,
    pos: u64,
    meta: Checkpoint,
    num_edges: u64,
    edges_read: u64,
}

impl CheckpointReader<BufReader<File>> {
    /// Open a checkpoint file and parse its header fields (see
    /// [`new`](Self::new)).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, EngineError> {
        let path = path.as_ref();
        let cannot_read = |e: std::io::Error| {
            EngineError::Checkpoint(format!("cannot read {}: {e}", path.display()))
        };
        let file = File::open(path).map_err(cannot_read)?;
        let len = file.metadata().map_err(cannot_read)?.len();
        Self::new(BufReader::new(file), len)
    }
}

impl<R: Read> CheckpointReader<R> {
    /// Parse the header fields of the `len`-byte checkpoint `input` holds.
    ///
    /// The returned reader's [`meta`](Self::meta) has **empty** `edges` and
    /// no `algorithm_spec` yet; stream the edges with
    /// [`next_edge`](Self::next_edge) and obtain the completed metadata from
    /// [`finish`](Self::finish).
    pub fn new(input: R, len: u64) -> Result<Self, EngineError> {
        if len < (MAGIC.len() + 8) as u64 {
            return Err(EngineError::Checkpoint("file too short to be a checkpoint".to_string()));
        }
        let mut this = Self {
            input,
            hash: Fnv1a64::new(),
            payload_len: len - 8,
            pos: 0,
            meta: Checkpoint {
                job_name: String::new(),
                snapshot: ChainSnapshot {
                    algorithm: String::new(),
                    num_nodes: 0,
                    rng: RngState::default(),
                    aux_seed_state: 0,
                    supersteps_done: 0,
                    seed: 0,
                    loop_probability: 0.0,
                    prefetch: false,
                },
                edges: Vec::new(),
                algorithm_spec: None,
                total_supersteps: 0,
                thinning: 0,
                samples_emitted: 0,
            },
            num_edges: 0,
            edges_read: 0,
        };

        let mut magic = [0u8; 8];
        this.take_into(&mut magic)?;
        if &magic != MAGIC {
            return Err(EngineError::Checkpoint("bad magic: not a gesmc checkpoint".to_string()));
        }
        let version = this.u32()?;
        if version != VERSION {
            return Err(EngineError::Checkpoint(format!(
                "unsupported checkpoint version {version} (this build reads version {VERSION})"
            )));
        }
        let flags = this.u32()?;
        this.meta.snapshot.prefetch = flags & FLAG_PREFETCH != 0;
        this.meta.job_name = this.string()?;
        // The chain name is resolved against a registry at *build* time, not
        // here: a checkpoint of a chain this build does not know still parses
        // (and resuming it reports the unknown name with the known list).
        this.meta.snapshot.algorithm = this.string()?;
        this.meta.snapshot.seed = this.u64()?;
        let loop_probability = f64::from_bits(this.u64()?);
        if !(0.0..1.0).contains(&loop_probability) {
            return Err(EngineError::Checkpoint(format!(
                "loop probability {loop_probability} outside [0, 1)"
            )));
        }
        this.meta.snapshot.loop_probability = loop_probability;
        this.meta.snapshot.supersteps_done = this.u64()?;
        this.meta.total_supersteps = this.u64()?;
        this.meta.thinning = this.u64()?;
        this.meta.samples_emitted = this.u64()?;
        let mut words = [0u64; 4];
        for word in &mut words {
            *word = this.u64()?;
        }
        this.meta.snapshot.rng = RngState::from_words(words);
        this.meta.snapshot.aux_seed_state = this.u64()?;
        this.meta.snapshot.num_nodes = this.u64()? as usize;
        // The count is untrusted (FNV-1a is not tamper-proof): it must fit in
        // the input, which also bounds what `read_all` allocates for it.
        this.num_edges = this.u64()?;
        let fits = this
            .num_edges
            .checked_mul(EDGE_BYTES as u64)
            .and_then(|b| this.pos.checked_add(b))
            .is_some_and(|end| end <= this.payload_len);
        if !fits {
            return Err(EngineError::Checkpoint(format!(
                "truncated checkpoint: header claims {} edges but only {} payload bytes follow",
                this.num_edges,
                this.payload_len - this.pos
            )));
        }
        Ok(this)
    }

    /// The header metadata (edge list empty, chain spec not yet read).
    pub fn meta(&self) -> &Checkpoint {
        &self.meta
    }

    /// Number of edges declared by the header.
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Read the next edge in slot order.
    pub fn next_edge(&mut self) -> Result<Edge, EngineError> {
        if self.edges_read == self.num_edges {
            return Err(EngineError::Checkpoint(format!(
                "checkpoint reader overrun: all {} edges already read",
                self.num_edges
            )));
        }
        let mut record = [0u8; EDGE_BYTES];
        self.take_into(&mut record)?;
        self.edges_read += 1;
        Ok(Edge::from_le_bytes(record))
    }

    /// Read the optional chain-spec tail, verify the checksum, and return
    /// the completed metadata (still with an empty edge list).
    pub fn finish(mut self) -> Result<Checkpoint, EngineError> {
        if self.edges_read != self.num_edges {
            return Err(EngineError::Checkpoint(format!(
                "checkpoint reader finished after {} of {} declared edges",
                self.edges_read, self.num_edges
            )));
        }
        // Files from before the registry redesign end right after the edge
        // list; newer files append the canonical chain spec.
        if self.pos < self.payload_len {
            let text = self.string()?;
            self.meta.algorithm_spec = Some(ChainSpec::parse(&text).map_err(|e| {
                EngineError::Checkpoint(format!("malformed chain spec {text:?}: {e}"))
            })?);
        }
        if self.pos != self.payload_len {
            return Err(EngineError::Checkpoint(format!(
                "{} trailing bytes after edge list",
                self.payload_len - self.pos
            )));
        }
        let mut checksum = [0u8; 8];
        self.input
            .read_exact(&mut checksum)
            .map_err(|e| EngineError::Checkpoint(format!("cannot read checksum: {e}")))?;
        let (stored, computed) = (u64::from_le_bytes(checksum), self.hash.finish());
        if stored != computed {
            return Err(EngineError::Checkpoint(format!(
                "checksum mismatch (stored {stored:#018x}, computed {computed:#018x}): \
                 the file is corrupt or truncated"
            )));
        }
        Ok(self.meta)
    }

    /// Read every remaining edge and finish: the whole checkpoint, its
    /// integrity verified.
    fn read_all(mut self) -> Result<Checkpoint, EngineError> {
        let mut edges = Vec::with_capacity((self.num_edges - self.edges_read) as usize);
        while self.edges_read < self.num_edges {
            edges.push(self.next_edge()?);
        }
        let mut checkpoint = self.finish()?;
        checkpoint.edges = edges;
        Ok(checkpoint)
    }

    /// Read exactly `buf.len()` payload bytes, folding them into the
    /// running checksum.
    fn take_into(&mut self, buf: &mut [u8]) -> Result<(), EngineError> {
        let n = buf.len() as u64;
        if n > self.payload_len - self.pos {
            return Err(EngineError::Checkpoint(format!(
                "truncated checkpoint: wanted {n} bytes at offset {}, only {} available",
                self.pos,
                self.payload_len - self.pos
            )));
        }
        self.input.read_exact(buf).map_err(|e| {
            EngineError::Checkpoint(format!("read failed at offset {}: {e}", self.pos))
        })?;
        self.hash.write(buf);
        self.pos += n;
        Ok(())
    }

    fn u32(&mut self) -> Result<u32, EngineError> {
        let mut buf = [0u8; 4];
        self.take_into(&mut buf)?;
        Ok(u32::from_le_bytes(buf))
    }

    fn u64(&mut self) -> Result<u64, EngineError> {
        let mut buf = [0u8; 8];
        self.take_into(&mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    fn string(&mut self) -> Result<String, EngineError> {
        let len = self.u64()?;
        if len > self.payload_len - self.pos {
            return Err(EngineError::Checkpoint(format!("implausible string length {len}")));
        }
        let mut buf = vec![0u8; len as usize];
        self.take_into(&mut buf)?;
        String::from_utf8(buf)
            .map_err(|_| EngineError::Checkpoint("non-UTF-8 string field".to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_registry;
    use crate::job::GraphSource;
    use gesmc_core::ChainSpec;
    use gesmc_graph::gen::gnp;
    use gesmc_randx::rng_from_seed;

    fn captured_checkpoint(name: &str) -> Checkpoint {
        let graph = gnp(&mut rng_from_seed(1), 60, 0.1);
        let spec = ChainSpec::new(name);
        let mut chain = default_registry().build(&spec, graph, 9).unwrap();
        chain.run_supersteps(4);
        Checkpoint::capture("demo", chain.as_ref(), &spec, 12, 3, 1).unwrap()
    }

    #[test]
    fn bytes_roundtrip_for_every_registered_chain() {
        // Core chains and baselines alike: every registered chain is
        // snapshot-capable and round-trips through the binary format.
        for info in default_registry().infos() {
            let ckpt = captured_checkpoint(info.name);
            let parsed = Checkpoint::from_bytes(&ckpt.to_bytes())
                .unwrap_or_else(|e| panic!("{}: {e}", info.name));
            assert_eq!(parsed, ckpt, "{} roundtrip", info.name);
            assert_eq!(parsed.chain_name(), info.chain_name);
            assert_eq!(default_registry().resolve(parsed.chain_name()).unwrap().name, info.name);
        }
    }

    #[test]
    fn file_roundtrip() {
        let path = std::env::temp_dir().join("gesmc-ckpt-test.ckpt");
        let ckpt = captured_checkpoint("seq-global-es");
        ckpt.write_to_file(&path).unwrap();
        let read = Checkpoint::read_from_file(&path).unwrap();
        assert_eq!(read, ckpt);
        let _ = std::fs::remove_file(&path);
    }

    /// `bytes` with its trailing checksum recomputed, isolating the decoder
    /// check a forged field must trip from the checksum.
    fn resealed(mut bytes: Vec<u8>) -> Vec<u8> {
        let len = bytes.len();
        let sum = gesmc_randx::fnv1a_64(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn corruption_is_detected() {
        let ckpt = captured_checkpoint("seq-es");
        let bytes = ckpt.to_bytes();

        // Flip one bit anywhere in the payload.
        let mut corrupt = bytes.clone();
        corrupt[bytes.len() / 2] ^= 0x10;
        assert!(matches!(Checkpoint::from_bytes(&corrupt), Err(EngineError::Checkpoint(_))));

        // Truncate.
        assert!(Checkpoint::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        assert!(Checkpoint::from_bytes(&[]).is_err());

        // Wrong magic.
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        match Checkpoint::from_bytes(&resealed(wrong_magic)) {
            Err(EngineError::Checkpoint(msg)) => assert!(msg.contains("magic")),
            other => panic!("expected bad-magic error, got {other:?}"),
        }

        // Forged fields behind a valid checksum: an edge count and a string
        // length of u64::MAX must fail before anything is allocated for
        // them, and bytes past the chain-spec tail must not be ignored.
        let job_len_at = 16;
        let num_edges_at = 16 + 8 + ckpt.job_name.len() + 8 + ckpt.chain_name().len() + 12 * 8;
        let spec_end = bytes.len() - 8;
        let mut huge_edges = bytes.clone();
        huge_edges[num_edges_at..num_edges_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut huge_string = bytes.clone();
        huge_string[job_len_at..job_len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut trailing = bytes[..spec_end].to_vec();
        trailing.extend_from_slice(&[0u8; 8]);
        trailing.extend_from_slice(&bytes[spec_end..]);
        let path = std::env::temp_dir().join("gesmc-ckpt-forged.ckpt");
        for (forged, expected) in [
            (huge_edges, "header claims 18446744073709551615 edges"),
            (huge_string, "implausible string length 18446744073709551615"),
            (trailing, "8 trailing bytes"),
        ] {
            let forged = resealed(forged);
            std::fs::write(&path, &forged).unwrap();
            for result in [Checkpoint::from_bytes(&forged), Checkpoint::read_from_file(&path)] {
                match result {
                    Err(EngineError::Checkpoint(msg)) => assert!(msg.contains(expected), "{msg}"),
                    other => panic!("expected {expected:?}, got {other:?}"),
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn capture_rejects_unsupported_chains() {
        // A chain whose snapshot() returns the default None.
        struct NoSnapshot;
        impl EdgeSwitching for NoSnapshot {
            fn name(&self) -> &'static str {
                "NoSnapshot"
            }
            fn num_nodes(&self) -> usize {
                0
            }
            fn num_edges(&self) -> usize {
                0
            }
            fn graph(&self) -> gesmc_graph::EdgeListGraph {
                gesmc_graph::EdgeListGraph::new(0, vec![]).unwrap()
            }
            fn superstep(&mut self) -> gesmc_core::SuperstepStats {
                gesmc_core::SuperstepStats::default()
            }
        }
        assert!(matches!(
            Checkpoint::capture("x", &NoSnapshot, &ChainSpec::new("no-snapshot"), 1, 1, 0),
            Err(EngineError::Snapshot(SnapshotError::Unsupported("NoSnapshot")))
        ));
    }

    #[test]
    fn chain_params_roundtrip_and_legacy_files_still_parse() {
        let spec = ChainSpec::parse("par-global-es?pl=0.125").unwrap();
        let graph = gnp(&mut rng_from_seed(2), 40, 0.1);
        let mut chain = default_registry().build(&spec, graph, 5).unwrap();
        chain.run_supersteps(2);
        let ckpt = Checkpoint::capture("params", chain.as_ref(), &spec, 8, 0, 0).unwrap();

        // The spec (with its parameters) survives the binary format and is
        // what resume rebuilds from.
        let parsed = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(parsed.algorithm_spec, Some(spec.clone()));
        assert_eq!(parsed.chain_spec(), spec);

        // A pre-redesign file — no trailing chain-spec field — still parses;
        // resume falls back to the header's chain name.
        let mut legacy = ckpt.clone();
        legacy.algorithm_spec = None;
        let parsed = Checkpoint::from_bytes(&legacy.to_bytes()).unwrap();
        assert_eq!(parsed.algorithm_spec, None);
        assert_eq!(parsed.chain_spec(), ChainSpec::new("ParGlobalES"));
        assert_eq!(
            default_registry().resolve(&parsed.chain_spec().name).unwrap().name,
            "par-global-es"
        );
    }

    #[test]
    fn unknown_chain_names_parse_but_fail_to_resolve() {
        // A checkpoint written by a build with an extra chain still parses;
        // the name only fails at resolution time, with the known list.
        let mut ckpt = captured_checkpoint("seq-es");
        ckpt.snapshot.algorithm = "FutureChain".to_string();
        let parsed = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(parsed.chain_name(), "FutureChain");
        assert!(default_registry().resolve(parsed.chain_name()).is_err());
    }

    #[test]
    fn streamed_writer_enforces_the_declared_edge_count() {
        let dir = std::env::temp_dir().join("gesmc-ckpt-stream-count");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = captured_checkpoint("seq-es");
        let edge = ckpt.edges[0];

        let writer = CheckpointWriter::new(Vec::new(), &ckpt, 2).unwrap();
        assert!(writer.finish().is_err(), "finish before all edges must fail");

        let mut writer = CheckpointWriter::new(Vec::new(), &ckpt, 1).unwrap();
        writer.push_edge(edge).unwrap();
        assert!(writer.push_edge(edge).is_err(), "overflowing the declared count must fail");

        // Through a file, the failed write publishes nothing, removes its
        // temp file, and keeps an earlier checkpoint intact.
        let path = dir.join("short.ckpt");
        let short =
            |out: &mut BufWriter<File>| CheckpointWriter::new(out, &ckpt, 2)?.finish().map(drop);
        assert!(publish(&path, short).is_err());
        assert!(!path.exists(), "unfinished writer must not publish a file");
        assert!(!path.with_extension("ckpt.tmp").exists(), "nor leave its temp file behind");
        ckpt.write_to_file(&path).unwrap();
        assert!(publish(&path, short).is_err());
        assert_eq!(Checkpoint::read_from_file(&path).unwrap(), ckpt);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streaming_reader_roundtrips_and_verifies_the_checksum() {
        let dir = std::env::temp_dir().join("gesmc-ckpt-stream-reader");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = captured_checkpoint("seq-es-ext");
        let path = dir.join("job.ckpt");
        ckpt.write_to_file(&path).unwrap();

        let mut reader = CheckpointReader::open(&path).unwrap();
        assert_eq!(reader.meta().job_name, ckpt.job_name);
        assert_eq!(reader.meta().snapshot.algorithm, "SeqESExt");
        assert_eq!(reader.meta().snapshot.rng, ckpt.snapshot.rng);
        assert_eq!(reader.num_edges(), ckpt.edges.len() as u64);
        let mut edges = Vec::new();
        for _ in 0..reader.num_edges() {
            edges.push(reader.next_edge().unwrap());
        }
        let mut meta = reader.finish().unwrap();
        assert_eq!(edges, ckpt.edges);
        meta.edges = edges;
        assert_eq!(meta, ckpt, "streamed read reassembles the exact checkpoint");

        // A flipped payload bit parses field-by-field but fails at finish().
        let mut corrupt = ckpt.to_bytes();
        let flip = corrupt.len() - 20; // inside the edge payload / spec tail
        corrupt[flip] ^= 0x01;
        std::fs::write(&path, &corrupt).unwrap();
        let mut reader = CheckpointReader::open(&path).unwrap();
        for _ in 0..reader.num_edges() {
            let _ = reader.next_edge();
        }
        assert!(reader.finish().is_err(), "corruption must surface at finish()");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_spec_fields_survive() {
        let ckpt = captured_checkpoint("par-global-es");
        let parsed = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(parsed.job_name, "demo");
        assert_eq!(parsed.total_supersteps, 12);
        assert_eq!(parsed.thinning, 3);
        assert_eq!(parsed.samples_emitted, 1);
        assert_eq!(parsed.snapshot.supersteps_done, 4);
        // The checkpoint's graph is usable as a resume source.
        let source = GraphSource::InMemory(parsed.graph().unwrap());
        assert!(source.load().is_ok());
    }

    #[test]
    fn a_non_simple_edge_list_parses_but_never_resumes() {
        // The decoder checks integrity; the edges are validated as a simple
        // graph where a chain is built from them.
        let mut ckpt = captured_checkpoint("seq-es");
        ckpt.edges.push(ckpt.edges[0]);
        let parsed = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert!(matches!(parsed.graph(), Err(GraphError::MultiEdge(_))));
        let graph = gnp(&mut rng_from_seed(1), 60, 0.1);
        let spec =
            crate::JobSpec::new("demo", GraphSource::InMemory(graph), ChainSpec::new("seq-es"))
                .supersteps(12);
        let control = crate::JobControl::new();
        let mut sink = crate::NullSink::default();
        let err =
            crate::run_job(default_registry(), &spec, &mut sink, Some(&parsed), &control, None)
                .unwrap_err();
        assert!(matches!(err, EngineError::Graph(_)), "{err}");
    }
}
