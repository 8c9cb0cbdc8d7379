//! The durability layer behind `--data-dir`: a write-ahead job journal,
//! checkpointed in-flight jobs, and a spill-to-disk sample cache.
//!
//! ## Data-dir layout
//!
//! ```text
//! DATA_DIR/
//! ├── jobs.journal                      write-ahead job record journal
//! ├── jobs/{id}/
//! │   ├── input.el                      inline input graph (GESMCEL1)
//! │   ├── job.ckpt                      latest checkpoint (GESMCKP1)
//! │   └── sample-{k:06}-s{step}.el      k-th thinned sample (GESMCEL1)
//! └── cache/{fp:016x}-{steps}-{slug:016x}.el   spilled one-shot samples
//! ```
//!
//! ## Journal
//!
//! Append-only; each entry is `[u32 len][u64 fnv1a(payload)][payload]` with
//! a JSON payload (`submitted` or `finished` events).  Appends are fsynced
//! before the submission is acknowledged, so **an acknowledged job is never
//! lost** — the converse (a journaled job whose 202 never reached the
//! client) is possible and documented as at-least-once.  A job's `finished`
//! event is appended by its engine completion, which the pool worker runs
//! before it publishes the terminal state: a poll that reads a job `done`
//! (or `failed`, `cancelled`) finds the event already fsynced.  On boot the
//! journal is replayed: a torn tail stops replay at the last whole entry, a
//! corrupt entry (checksum or JSON) is skipped — both are metered
//! ([`PersistMetrics::journal_skipped`]) and logged, never a panic.  Replay
//! then compacts the journal (atomic tmp + fsync + rename) to one
//! `submitted` (+ optional `finished`) pair per job.
//!
//! ## Recovery invariants
//!
//! * **No acked-lost job**: the journal append is durable before `202`,
//!   and boot re-admits every journaled unfinished job, past the admission
//!   bound (`--max-pending`) that sheds new work.
//! * **Bit-identical resume**: an interrupted job resumes from its latest
//!   `GESMCKP1` checkpoint — exact PRNG stream state — so its remaining
//!   samples are byte-identical to an uninterrupted run; with no usable
//!   checkpoint it restarts from scratch, which produces the same bytes
//!   because seeds are part of the job record.
//! * **Graceful degradation**: every persistence failure after the
//!   acknowledgement point is absorbed (metered via
//!   [`PersistMetrics::errors`], job keeps running); failures before it
//!   refuse the acknowledgement (`503`) instead of acking work that could
//!   be lost.

use crate::cache::{derive_sample_seed, encode_bodies, Bodies, CacheKey, CachedSample};
use crate::fsio::PersistIo;
use crate::jobstore::{start_job, JobRecord, Resume, SharedSamples, StoredSample};
use crate::server::ServerState;
use gesmc_core::ChainSpec;
use gesmc_engine::{
    CallbackSink, Checkpoint, CheckpointSink, EngineError, GraphSource, JobHandle, JobReport,
    JobState, SampleContext, SampleSink,
};
use gesmc_graph::io::{
    read_edge_list_binary_file, write_edge_list_binary, BinaryEdgeListReader, IoError,
};
use gesmc_graph::EdgeListGraph;
use gesmc_obs::Phase;
use gesmc_randx::fnv1a_64;
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Upper bound on a single journal entry; larger length prefixes are read
/// as torn/corrupt framing, not as allocation requests.
const MAX_JOURNAL_ENTRY: u32 = 16 * 1024 * 1024;
/// Bytes of framing per journal entry (`u32` length + `u64` checksum).
const FRAME_HEADER: usize = 12;

/// Monotone counters of the persistence layer, rendered under
/// `gesmc_persist_*` in `/metrics`.
#[derive(Debug, Default)]
pub struct PersistMetrics {
    errors: AtomicU64,
    journal_entries: AtomicU64,
    journal_skipped: AtomicU64,
    checkpoints: AtomicU64,
    samples_spilled: AtomicU64,
    cache_rehydrated: AtomicU64,
    jobs_resumed: AtomicU64,
    jobs_restored: AtomicU64,
}

impl PersistMetrics {
    /// Persistence operations that failed (and were absorbed or refused).
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Journal entries successfully appended.
    pub fn journal_entries(&self) -> u64 {
        self.journal_entries.load(Ordering::Relaxed)
    }

    /// Journal entries skipped during boot replay (torn tail or corrupt).
    pub fn journal_skipped(&self) -> u64 {
        self.journal_skipped.load(Ordering::Relaxed)
    }

    /// Checkpoints persisted for running jobs.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// Samples spilled to disk (job samples and cache entries).
    pub fn samples_spilled(&self) -> u64 {
        self.samples_spilled.load(Ordering::Relaxed)
    }

    /// Cache entries rehydrated from disk after a miss.
    pub fn cache_rehydrated(&self) -> u64 {
        self.cache_rehydrated.load(Ordering::Relaxed)
    }

    /// In-flight jobs resumed on boot.
    pub fn jobs_resumed(&self) -> u64 {
        self.jobs_resumed.load(Ordering::Relaxed)
    }

    /// Finished job records restored on boot.
    pub fn jobs_restored(&self) -> u64 {
        self.jobs_restored.load(Ordering::Relaxed)
    }

    fn count_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    fn count_skipped(&self) {
        self.journal_skipped.fetch_add(1, Ordering::Relaxed);
    }
}

/// How a journaled job's input graph is recovered on boot.
#[derive(Debug, Clone)]
pub(crate) enum PersistedGraph {
    /// Re-generate from the recorded generator parameters.
    Generated { family: String, nodes: usize, edges: usize, gamma: f64, seed: u64 },
    /// Re-read the job's `input.el` file (inline-edges submissions).
    File,
}

/// What a job was submitted with: the `submitted` journal event, and the
/// fields a job record reports.
#[derive(Debug, Clone)]
pub(crate) struct JobMeta {
    pub id: u64,
    pub name: String,
    pub chain: String,
    pub supersteps: u64,
    pub thinning: u64,
    pub seed: u64,
    pub graph: PersistedGraph,
}

/// The terminal half of a journaled job record (the `finished` event).
#[derive(Debug, Clone)]
pub(crate) struct FinishedMeta {
    pub status: String,
    pub samples: u64,
    pub superstep: u64,
    pub error: Option<String>,
}

impl FinishedMeta {
    /// The event of a job that ended in `state` after `superstep`, having
    /// emitted `samples` samples.
    pub(crate) fn new(state: &JobState, superstep: u64, samples: u64) -> Self {
        let error = match state {
            JobState::Failed(msg) => Some(msg.clone()),
            _ => None,
        };
        Self { status: state.label().to_string(), samples, superstep, error }
    }
}

/// One job as reconstructed from the journal.
#[derive(Debug, Clone)]
pub(crate) struct ReplayedJob {
    pub meta: JobMeta,
    pub finished: Option<FinishedMeta>,
}

/// The persistence engine: owns the data-dir layout and every durable
/// write, all through the injectable [`PersistIo`] seam.
pub struct Persistence {
    root: PathBuf,
    io: Arc<dyn PersistIo>,
    metrics: Arc<PersistMetrics>,
    /// Serialises journal appends so concurrent submissions cannot
    /// interleave their frames.
    journal_lock: Mutex<()>,
    // Latency histograms of the durable-write paths, cached so the
    // ack-gating journal append never takes the obs registry lock.
    journal_hist: Arc<gesmc_obs::Histogram>,
    checkpoint_hist: Arc<gesmc_obs::Histogram>,
    spill_hist: Arc<gesmc_obs::Histogram>,
}

impl std::fmt::Debug for Persistence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Persistence").field("root", &self.root).finish()
    }
}

fn frame_entry(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a_64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn json_u64(map: &Value, key: &str) -> Option<u64> {
    map.get(key).and_then(|v| v.as_u64())
}

fn encode_submitted(meta: &JobMeta) -> Value {
    let graph = match &meta.graph {
        PersistedGraph::Generated { family, nodes, edges, gamma, seed } => {
            let mut g = Map::new();
            g.insert("kind".to_string(), Value::String("generated".to_string()));
            g.insert("family".to_string(), Value::String(family.clone()));
            g.insert("nodes".to_string(), Value::Number(*nodes as f64));
            g.insert("edges".to_string(), Value::Number(*edges as f64));
            g.insert("gamma".to_string(), Value::Number(*gamma));
            g.insert("gseed".to_string(), Value::Number(*seed as f64));
            Value::Object(g)
        }
        PersistedGraph::File => {
            let mut g = Map::new();
            g.insert("kind".to_string(), Value::String("file".to_string()));
            Value::Object(g)
        }
    };
    let mut map = Map::new();
    map.insert("event".to_string(), Value::String("submitted".to_string()));
    map.insert("id".to_string(), Value::Number(meta.id as f64));
    map.insert("name".to_string(), Value::String(meta.name.clone()));
    map.insert("chain".to_string(), Value::String(meta.chain.clone()));
    map.insert("supersteps".to_string(), Value::Number(meta.supersteps as f64));
    map.insert("thinning".to_string(), Value::Number(meta.thinning as f64));
    map.insert("seed".to_string(), Value::Number(meta.seed as f64));
    map.insert("graph".to_string(), graph);
    Value::Object(map)
}

fn encode_finished(id: u64, fin: &FinishedMeta) -> Value {
    let mut map = Map::new();
    map.insert("event".to_string(), Value::String("finished".to_string()));
    map.insert("id".to_string(), Value::Number(id as f64));
    map.insert("status".to_string(), Value::String(fin.status.clone()));
    map.insert("samples".to_string(), Value::Number(fin.samples as f64));
    map.insert("superstep".to_string(), Value::Number(fin.superstep as f64));
    if let Some(error) = &fin.error {
        map.insert("error".to_string(), Value::String(error.clone()));
    }
    Value::Object(map)
}

fn warn(what: &str, err: &dyn std::fmt::Display) {
    gesmc_obs::warn!(target: "gesmc_serve::persist", "{what}: {err}");
}

/// Re-encode a spilled `GESMCEL1` sample into its two bodies.  The reader
/// checks the header, the file's exact length and every edge, so a corrupt
/// spill yields `Err`, never wrong bytes; no graph is built and duplicates
/// are not looked for.  Spills are written from the canonical binary
/// encoding (`u ≤ v`, slot order preserved), so the re-encoded bytes are
/// bit-identical to the originals.
fn rehydrate_spill(path: &Path) -> Result<Bodies, IoError> {
    let mut reader = BinaryEdgeListReader::open(path)?;
    let edges = reader.read_edges()?;
    Ok(encode_bodies(reader.num_nodes() as usize, &edges))
}

impl Persistence {
    /// Open (creating if needed) the data directory layout under `root`.
    pub fn open(root: impl Into<PathBuf>, io: Arc<dyn PersistIo>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(root.join("jobs"))?;
        std::fs::create_dir_all(root.join("cache"))?;
        Ok(Self {
            root,
            io,
            metrics: Arc::new(PersistMetrics::default()),
            journal_lock: Mutex::new(()),
            journal_hist: gesmc_obs::histogram(
                "gesmc_journal_append_duration_seconds",
                "Wall time of one journal append including its fsync.",
            ),
            checkpoint_hist: gesmc_obs::histogram(
                "gesmc_checkpoint_write_duration_seconds",
                "Wall time of one atomic checkpoint write for a running job.",
            ),
            spill_hist: gesmc_obs::histogram(
                "gesmc_spill_write_duration_seconds",
                "Wall time of one sample spill to disk (job samples and cache entries).",
            ),
        })
    }

    /// The persistence counters (shared with `/metrics`).
    pub fn metrics(&self) -> &PersistMetrics {
        &self.metrics
    }

    fn journal_path(&self) -> PathBuf {
        self.root.join("jobs.journal")
    }

    fn job_dir(&self, id: u64) -> PathBuf {
        self.root.join("jobs").join(id.to_string())
    }

    pub(crate) fn input_path(&self, id: u64) -> PathBuf {
        self.job_dir(id).join("input.el")
    }

    pub(crate) fn checkpoint_path(&self, id: u64) -> PathBuf {
        self.job_dir(id).join("job.ckpt")
    }

    fn sample_path(&self, id: u64, index: u64, superstep: u64) -> PathBuf {
        self.job_dir(id).join(format!("sample-{index:06}-s{superstep}.el"))
    }

    fn cache_path(&self, key: &CacheKey) -> PathBuf {
        self.root.join("cache").join(format!(
            "{:016x}-{}-{:016x}.el",
            key.fingerprint,
            key.supersteps,
            fnv1a_64(key.chain_slug.as_bytes())
        ))
    }

    /// Append one fsynced entry to the journal.  Propagates failures (the
    /// caller decides whether the step is ack-gating); every failure is
    /// metered.
    fn append_journal(&self, payload: &Value) -> io::Result<()> {
        let text = serde_json::to_string(payload)
            .map_err(|e| io::Error::other(format!("journal encode: {e}")))?;
        let bytes = frame_entry(text.as_bytes());
        let path = self.journal_path();
        let result = {
            let _guard = self.journal_lock.lock().expect("journal mutex poisoned");
            let _phase = Phase::start(&self.journal_hist);
            self.io.append(&path, &bytes).and_then(|()| self.io.fsync(&path))
        };
        match result {
            Ok(()) => {
                self.metrics.journal_entries.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                self.metrics.count_error();
                warn("journal append failed", &e);
                Err(e)
            }
        }
    }

    /// Journal a `submitted` event.  **Ack-gating**: failure propagates so
    /// the submission is refused instead of acknowledged-then-lost.
    pub(crate) fn journal_submitted(&self, meta: &JobMeta) -> io::Result<()> {
        self.append_journal(&encode_submitted(meta))
    }

    /// Journal a `finished` event.  Post-acknowledgement: failures are
    /// absorbed (the job already ran; at worst it re-runs after a crash).
    pub(crate) fn journal_finished(&self, id: u64, fin: &FinishedMeta) {
        let _ = self.append_journal(&encode_finished(id, fin));
    }

    /// Atomic durable write: tmp file, fsync, rename into place.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        self.io.write(&tmp, bytes)?;
        self.io.fsync(&tmp)?;
        self.io.rename(&tmp, path)
    }

    /// Persist an inline input graph as the job's `input.el`.  Ack-gating:
    /// failure propagates (and is metered).
    pub(crate) fn write_job_input(&self, id: u64, graph: &EdgeListGraph) -> io::Result<()> {
        let result = (|| {
            std::fs::create_dir_all(self.job_dir(id))?;
            let mut bytes = Vec::new();
            write_edge_list_binary(&mut bytes, graph).expect("writing to a Vec cannot fail");
            self.write_atomic(&self.input_path(id), &bytes)
        })();
        if let Err(e) = &result {
            self.metrics.count_error();
            warn("input spill failed", e);
        }
        result
    }

    /// Persist the latest checkpoint of a running job.  Absorbs failures —
    /// a storage hiccup must not kill a healthy job.
    pub(crate) fn write_checkpoint(&self, id: u64, checkpoint: &Checkpoint) {
        let result = {
            let _phase = Phase::start(&self.checkpoint_hist);
            std::fs::create_dir_all(self.job_dir(id))
                .and_then(|()| self.write_atomic(&self.checkpoint_path(id), &checkpoint.to_bytes()))
        };
        match result {
            Ok(()) => {
                self.metrics.checkpoints.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                self.metrics.count_error();
                warn("checkpoint write failed", &e);
            }
        }
    }

    /// Spill one thinned job sample to disk.  Absorbs failures.
    pub(crate) fn spill_job_sample(&self, id: u64, index: u64, superstep: u64, binary: &[u8]) {
        let result = {
            let _phase = Phase::start(&self.spill_hist);
            std::fs::create_dir_all(self.job_dir(id))
                .and_then(|()| self.write_atomic(&self.sample_path(id, index, superstep), binary))
        };
        match result {
            Ok(()) => {
                self.metrics.samples_spilled.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                self.metrics.count_error();
                warn("sample spill failed", &e);
            }
        }
    }

    /// Spill a one-shot cache entry to disk.  Absorbs failures.
    pub(crate) fn spill_cache(&self, key: &CacheKey, sample: &CachedSample) {
        let result = {
            let _phase = Phase::start(&self.spill_hist);
            self.write_atomic(&self.cache_path(key), &sample.binary)
        };
        match result {
            Ok(()) => {
                self.metrics.samples_spilled.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                self.metrics.count_error();
                warn("cache spill failed", &e);
            }
        }
    }

    /// Rehydrate a spilled cache entry.  A missing file is a plain miss; a
    /// corrupt file is metered and treated as a miss (never a wrong sample:
    /// the spill is read through the validating `GESMCEL1` reader).
    pub(crate) fn load_cached(&self, key: &CacheKey) -> Option<CachedSample> {
        let path = self.cache_path(key);
        if !path.exists() {
            return None;
        }
        match rehydrate_spill(&path) {
            Ok((text, binary)) => {
                self.metrics.cache_rehydrated.fetch_add(1, Ordering::Relaxed);
                Some(CachedSample { text, binary, seed: derive_sample_seed(key) })
            }
            Err(e) => {
                self.metrics.count_error();
                warn("corrupt cache entry skipped", &e);
                None
            }
        }
    }

    /// Load a job's spilled samples in index order, stopping at the first
    /// gap or unreadable file (metered, not fatal).
    pub(crate) fn load_job_samples(&self, id: u64) -> Vec<StoredSample> {
        let dir = self.job_dir(id);
        let Ok(entries) = std::fs::read_dir(&dir) else { return Vec::new() };
        let mut found: BTreeMap<u64, (u64, PathBuf)> = BTreeMap::new();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name.strip_prefix("sample-").and_then(|s| s.strip_suffix(".el"))
            else {
                continue;
            };
            let Some((index_raw, step_raw)) = stem.split_once("-s") else { continue };
            let (Ok(index), Ok(step)) = (index_raw.parse::<u64>(), step_raw.parse::<u64>()) else {
                continue;
            };
            found.insert(index, (step, entry.path()));
        }
        let mut samples = Vec::with_capacity(found.len());
        for (index, (superstep, path)) in found {
            if index != samples.len() as u64 {
                break; // gap: everything past it is unusable
            }
            match rehydrate_spill(&path) {
                Ok((text, binary)) => samples.push(StoredSample { superstep, text, binary }),
                Err(e) => {
                    self.metrics.count_error();
                    warn("corrupt job sample skipped", &e);
                    break;
                }
            }
        }
        samples
    }

    /// Load a job's checkpoint; a corrupt or missing file is metered (when
    /// corrupt) and treated as "no checkpoint" — the job restarts from
    /// scratch rather than resuming from damaged state.
    pub(crate) fn load_checkpoint(&self, id: u64) -> Option<Checkpoint> {
        let path = self.checkpoint_path(id);
        if !path.exists() {
            return None;
        }
        match Checkpoint::read_from_file(&path) {
            Ok(checkpoint) => Some(checkpoint),
            Err(e) => {
                self.metrics.count_error();
                warn("corrupt checkpoint skipped", &e);
                None
            }
        }
    }

    /// Replay the journal into per-job records (submission order).  A torn
    /// tail stops replay; corrupt entries are skipped; both are metered.
    pub(crate) fn replay_journal(&self) -> Vec<ReplayedJob> {
        let bytes = match std::fs::read(self.journal_path()) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Vec::new(),
            Err(e) => {
                self.metrics.count_error();
                warn("journal read failed", &e);
                return Vec::new();
            }
        };
        let mut jobs: BTreeMap<u64, ReplayedJob> = BTreeMap::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            let remaining = bytes.len() - pos;
            if remaining < FRAME_HEADER {
                self.metrics.count_skipped();
                warn("torn journal tail", &format!("{remaining} trailing bytes"));
                break;
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("length checked"));
            let stored =
                u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("length checked"));
            if len > MAX_JOURNAL_ENTRY || (len as usize) > remaining - FRAME_HEADER {
                self.metrics.count_skipped();
                warn("torn journal tail", &format!("entry length {len} overruns the file"));
                break;
            }
            let payload = &bytes[pos + FRAME_HEADER..pos + FRAME_HEADER + len as usize];
            pos += FRAME_HEADER + len as usize;
            if fnv1a_64(payload) != stored {
                self.metrics.count_skipped();
                warn("corrupt journal entry skipped", &"checksum mismatch");
                continue;
            }
            let value = match std::str::from_utf8(payload)
                .ok()
                .and_then(|text| serde_json::from_str(text).ok())
            {
                Some(value) => value,
                None => {
                    self.metrics.count_skipped();
                    warn("corrupt journal entry skipped", &"payload is not valid JSON");
                    continue;
                }
            };
            self.apply_entry(&value, &mut jobs);
        }
        jobs.into_values().collect()
    }

    fn apply_entry(&self, value: &Value, jobs: &mut BTreeMap<u64, ReplayedJob>) {
        let (Some(event), Some(id)) =
            (value.get("event").and_then(|v| v.as_str()), json_u64(value, "id"))
        else {
            self.metrics.count_skipped();
            warn("malformed journal entry skipped", &"missing event or id");
            return;
        };
        match event {
            "submitted" => {
                let graph = match value.get("graph") {
                    Some(g) if g.get("kind").and_then(|v| v.as_str()) == Some("generated") => {
                        PersistedGraph::Generated {
                            family: g
                                .get("family")
                                .and_then(|v| v.as_str())
                                .unwrap_or("gnp")
                                .to_string(),
                            nodes: json_u64(g, "nodes").unwrap_or(0) as usize,
                            edges: json_u64(g, "edges").unwrap_or(0) as usize,
                            gamma: g.get("gamma").and_then(|v| v.as_f64()).unwrap_or(2.5),
                            seed: json_u64(g, "gseed").unwrap_or(1),
                        }
                    }
                    _ => PersistedGraph::File,
                };
                let meta = JobMeta {
                    id,
                    name: value
                        .get("name")
                        .and_then(|v| v.as_str())
                        .unwrap_or("restored")
                        .to_string(),
                    chain: value
                        .get("chain")
                        .and_then(|v| v.as_str())
                        .unwrap_or("par-global-es")
                        .to_string(),
                    supersteps: json_u64(value, "supersteps").unwrap_or(1),
                    thinning: json_u64(value, "thinning").unwrap_or(0),
                    seed: json_u64(value, "seed").unwrap_or(1),
                    graph,
                };
                jobs.insert(id, ReplayedJob { meta, finished: None });
            }
            "finished" => {
                if let Some(job) = jobs.get_mut(&id) {
                    job.finished = Some(FinishedMeta {
                        status: value
                            .get("status")
                            .and_then(|v| v.as_str())
                            .unwrap_or("failed")
                            .to_string(),
                        samples: json_u64(value, "samples").unwrap_or(0),
                        superstep: json_u64(value, "superstep").unwrap_or(0),
                        error: value.get("error").and_then(|v| v.as_str()).map(str::to_string),
                    });
                }
            }
            other => {
                self.metrics.count_skipped();
                warn("unknown journal event skipped", &other);
            }
        }
    }

    /// Rewrite the journal as one `submitted` (+ `finished`) pair per job,
    /// atomically.  Absorbs failures (the old journal replays identically).
    pub(crate) fn compact(&self, jobs: &[ReplayedJob]) {
        let mut out = Vec::new();
        let encode = |value: &Value| -> Option<Vec<u8>> {
            serde_json::to_string(value).ok().map(|text| frame_entry(text.as_bytes()))
        };
        for job in jobs {
            if let Some(frame) = encode(&encode_submitted(&job.meta)) {
                out.extend_from_slice(&frame);
            }
            if let Some(fin) = &job.finished {
                if let Some(frame) = encode(&encode_finished(job.meta.id, fin)) {
                    out.extend_from_slice(&frame);
                }
            }
        }
        let path = self.journal_path();
        let result = {
            let _guard = self.journal_lock.lock().expect("journal mutex poisoned");
            self.write_atomic(&path, &out)
        };
        if let Err(e) = result {
            self.metrics.count_error();
            warn("journal compaction failed (old journal kept)", &e);
        }
    }

    /// Remove job directories whose ids no longer appear in the journal
    /// (best-effort cleanup of corrupt-entry leftovers).
    pub(crate) fn remove_orphan_job_dirs(&self, live: &std::collections::BTreeSet<u64>) {
        let Ok(entries) = std::fs::read_dir(self.root.join("jobs")) else { return };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(id) = name.to_str().and_then(|s| s.parse::<u64>().ok()) else { continue };
            if !live.contains(&id) {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
}

/// The sink of a persistent job: encodes each thinned sample once, spills
/// it to disk (absorbing failures), and publishes it into the job's shared
/// in-memory list at its sample index.
pub(crate) fn make_job_sink(
    persist: Option<Arc<Persistence>>,
    id: u64,
    samples: SharedSamples,
) -> Box<dyn SampleSink> {
    Box::new(CallbackSink::new(
        move |ctx: &SampleContext<'_>, graph: &EdgeListGraph| -> Result<(), EngineError> {
            let (text, binary) = encode_bodies(graph.num_nodes(), graph.edges());
            if let Some(persist) = &persist {
                persist.spill_job_sample(id, ctx.sample_index, ctx.superstep, &binary);
            }
            let stored = StoredSample { superstep: ctx.superstep, text, binary };
            let mut vec = samples.lock().expect("samples mutex poisoned");
            let index = ctx.sample_index as usize;
            if index < vec.len() {
                // Resumed run re-emitting a pre-checkpoint sample: the bytes
                // are identical by construction, keep the list aligned.
                vec[index] = stored;
            } else {
                vec.push(stored);
            }
            Ok(())
        },
    ))
}

/// The [`CheckpointSink`] attached to persistent jobs: routes each periodic
/// capture into the data dir, absorbing I/O failures so a storage hiccup
/// degrades durability, not availability.
pub(crate) struct JobCheckpointSink {
    pub(crate) persist: Arc<Persistence>,
    pub(crate) id: u64,
}

impl CheckpointSink for JobCheckpointSink {
    fn store(&mut self, checkpoint: &Checkpoint) -> Result<(), EngineError> {
        self.persist.write_checkpoint(self.id, checkpoint);
        Ok(())
    }
}

/// The chain and input graph a journaled job runs on again.
fn resume_input(persist: &Persistence, meta: &JobMeta) -> Result<(ChainSpec, GraphSource), String> {
    let chain =
        ChainSpec::parse(&meta.chain).map_err(|e| format!("cannot resume: bad chain spec: {e}"))?;
    let source = match &meta.graph {
        PersistedGraph::Generated { family, nodes, edges, gamma, seed } => GraphSource::Generated {
            family: family.clone(),
            nodes: *nodes,
            edges: *edges,
            gamma: *gamma,
            seed: *seed,
        },
        PersistedGraph::File => match read_edge_list_binary_file(persist.input_path(meta.id)) {
            Ok(graph) => GraphSource::InMemory(graph),
            Err(e) => {
                persist.metrics.count_error();
                return Err(format!("cannot resume: input graph unreadable: {e}"));
            }
        },
    };
    Ok((chain, source))
}

/// Boot-time recovery: replay the journal, restore finished job records,
/// resume in-flight jobs (from their checkpoints when usable), compact the
/// journal, and clean up orphaned job directories.
pub(crate) fn boot_replay(state: &Arc<ServerState>) {
    let Some(persist) = state.persist.clone() else { return };
    let jobs = persist.replay_journal();
    gesmc_obs::info!(
        target: "gesmc_serve::persist",
        "boot replay: {} journaled jobs ({} already finished)",
        jobs.len(),
        jobs.iter().filter(|job| job.finished.is_some()).count()
    );
    if let Some(max_id) = jobs.iter().map(|job| job.meta.id).max() {
        state.jobs.ensure_next_id(max_id + 1);
    }
    // Compact before resuming, so the resumed jobs' `finished` appends land
    // after the rewrite.
    persist.compact(&jobs);
    let live: std::collections::BTreeSet<u64> = jobs.iter().map(|job| job.meta.id).collect();
    persist.remove_orphan_job_dirs(&live);
    for job in jobs {
        match job.finished {
            Some(fin) => {
                if restore_finished(state, &persist, job.meta, &fin) {
                    persist.metrics.jobs_restored.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => resume_pending(state, &persist, job.meta),
        }
    }
}

/// Register the record of a job that reached a terminal state before the
/// restart: samples come back from disk, the handle is detached.  Whether
/// the store took it.
fn restore_finished(
    state: &ServerState,
    persist: &Persistence,
    meta: JobMeta,
    fin: &FinishedMeta,
) -> bool {
    let samples = persist.load_job_samples(meta.id);
    let terminal = match fin.status.as_str() {
        "done" => JobState::Done(JobReport {
            job: meta.name.clone(),
            algorithm: meta.chain.clone(),
            resumed_from: 0,
            supersteps: meta.supersteps,
            samples: samples.len() as u64,
            requested: 0,
            legal: 0,
            checkpoints: 0,
            duration: Duration::ZERO,
        }),
        "cancelled" => JobState::Cancelled(fin.superstep),
        _ => JobState::Failed(
            fin.error.clone().unwrap_or_else(|| "failed before restart".to_string()),
        ),
    };
    let handle = JobHandle::detached(meta.name.clone(), terminal, fin.superstep, meta.supersteps);
    let record = JobRecord { meta, handle, samples: Arc::new(Mutex::new(samples)) };
    state.jobs.register(record, true).is_ok()
}

/// Resume a job the previous process never finished: from its latest
/// usable checkpoint when one exists (bit-identical continuation), from
/// scratch otherwise (bit-identical by seed determinism).  A job that
/// cannot run again is journaled and restored as failed.
fn resume_pending(state: &ServerState, persist: &Arc<Persistence>, meta: JobMeta) {
    let (chain, source) = match resume_input(persist, &meta) {
        Ok(input) => input,
        Err(msg) => {
            let fin = FinishedMeta::new(&JobState::Failed(msg), 0, 0);
            persist.journal_finished(meta.id, &fin);
            restore_finished(state, persist, meta, &fin);
            return;
        }
    };

    let on_disk = persist.load_job_samples(meta.id);
    // A checkpoint is only usable if every sample it claims was emitted is
    // actually recoverable; otherwise restart from scratch (same bytes, by
    // seed determinism).
    let checkpoint = persist
        .load_checkpoint(meta.id)
        .filter(|ckpt| ckpt.samples_emitted <= on_disk.len() as u64);
    let emitted = checkpoint.as_ref().map_or(0, |ckpt| ckpt.samples_emitted as usize);
    let samples = on_disk.into_iter().take(emitted).collect();
    let id = meta.id;
    match start_job(state, meta, source, chain, Some(Resume { checkpoint, samples })) {
        Ok(_) => {
            persist.metrics.jobs_resumed.fetch_add(1, Ordering::Relaxed);
        }
        // Boot runs before anything can shut the pool down, and a resumed
        // job goes past both bounds; left unfinished, it resumes next boot.
        Err(e) => warn(&format!("cannot resume job {id}"), &format!("{e:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsio::StdFs;
    use crate::{ServeConfig, Server};
    use gesmc_cluster::wire;
    use gesmc_graph::gen::gnp;
    use gesmc_graph::io::write_edge_list;
    use gesmc_randx::rng_from_seed;

    fn temp_persistence(tag: &str) -> Persistence {
        let root = std::env::temp_dir().join(format!("gesmc-persist-test-{tag}"));
        let _ = std::fs::remove_dir_all(&root);
        Persistence::open(root, Arc::new(StdFs)).unwrap()
    }

    fn drop_persistence(p: Persistence) {
        let _ = std::fs::remove_dir_all(&p.root);
    }

    /// A server with a data dir at `p`'s root, writing through `io`, on an
    /// ephemeral port.
    fn durable_server(
        p: &Persistence,
        io: Arc<dyn PersistIo>,
        engine_workers: usize,
        max_pending: usize,
    ) -> Server {
        Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            http_workers: 2,
            engine_workers,
            max_pending,
            data_dir: Some(p.root.clone()),
            persist_io: Some(io),
            ..ServeConfig::default()
        })
        .unwrap()
    }

    /// [`StdFs`] with a journal append as slow as a busy disk's, so a
    /// `finished` event journaled after the job's status turned terminal
    /// would still be on its way when a poll reads that status.
    #[derive(Debug)]
    struct SlowJournal;

    impl PersistIo for SlowJournal {
        fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            StdFs.write(path, bytes)
        }

        fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            if path.ends_with("jobs.journal") {
                std::thread::sleep(Duration::from_millis(50));
            }
            StdFs.append(path, bytes)
        }

        fn fsync(&self, path: &Path) -> io::Result<()> {
            StdFs.fsync(path)
        }

        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            StdFs.rename(from, to)
        }
    }

    /// `GET /v1/jobs/{id}`'s status, polled until it is not queued or
    /// running.
    fn poll_until_ended(addr: &str, id: u64) -> String {
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        loop {
            let response = wire::request(addr, "GET", &format!("/v1/jobs/{id}"), &[], b"").unwrap();
            assert_eq!(response.status, 200, "job {id} must be tracked");
            let body: Value =
                serde_json::from_str(std::str::from_utf8(&response.body).unwrap()).unwrap();
            let status = body.get("status").and_then(|v| v.as_str()).unwrap().to_string();
            if status != "queued" && status != "running" {
                return status;
            }
            assert!(std::time::Instant::now() < deadline, "job {id} never ended");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn sample_meta(id: u64) -> JobMeta {
        JobMeta {
            id,
            name: format!("job-{id}"),
            chain: "par-global-es?pl=0.01".to_string(),
            supersteps: 100,
            thinning: 50,
            seed: 42,
            graph: PersistedGraph::Generated {
                family: "gnp".to_string(),
                nodes: 64,
                edges: 128,
                gamma: 2.5,
                seed: 7,
            },
        }
    }

    #[test]
    fn journal_roundtrips_submitted_and_finished_events() {
        let p = temp_persistence("roundtrip");
        p.journal_submitted(&sample_meta(1)).unwrap();
        p.journal_submitted(&sample_meta(2)).unwrap();
        p.journal_finished(
            1,
            &FinishedMeta { status: "done".to_string(), samples: 2, superstep: 100, error: None },
        );
        assert_eq!(p.metrics().journal_entries(), 3);
        let jobs = p.replay_journal();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].meta.id, 1);
        assert_eq!(jobs[0].meta.chain, "par-global-es?pl=0.01");
        let fin = jobs[0].finished.as_ref().unwrap();
        assert_eq!(fin.status, "done");
        assert_eq!(fin.samples, 2);
        assert!(jobs[1].finished.is_none(), "job 2 never finished");
        match &jobs[1].meta.graph {
            PersistedGraph::Generated { family, nodes, edges, seed, .. } => {
                assert_eq!(family, "gnp");
                assert_eq!((*nodes, *edges, *seed), (64, 128, 7));
            }
            other => panic!("wrong graph kind replayed: {other:?}"),
        }
        assert_eq!(p.metrics().journal_skipped(), 0);
        drop_persistence(p);
    }

    #[test]
    fn torn_journal_tail_stops_replay_without_losing_whole_entries() {
        let p = temp_persistence("torn");
        p.journal_submitted(&sample_meta(1)).unwrap();
        // Simulate a crash mid-append: garbage trailing bytes.
        StdFs.append(&p.journal_path(), &[0xAB; 7]).unwrap();
        let jobs = p.replay_journal();
        assert_eq!(jobs.len(), 1, "the whole entry before the tear survives");
        assert_eq!(p.metrics().journal_skipped(), 1);
        drop_persistence(p);
    }

    #[test]
    fn corrupt_journal_entry_is_skipped_and_later_entries_survive() {
        let p = temp_persistence("corrupt");
        p.journal_submitted(&sample_meta(1)).unwrap();
        let first_len = std::fs::metadata(p.journal_path()).unwrap().len();
        p.journal_submitted(&sample_meta(2)).unwrap();
        // Flip a payload byte inside the first entry (framing intact).
        let mut bytes = std::fs::read(p.journal_path()).unwrap();
        let victim = (first_len as usize) - 2;
        bytes[victim] ^= 0xFF;
        std::fs::write(p.journal_path(), &bytes).unwrap();
        let jobs = p.replay_journal();
        assert_eq!(jobs.len(), 1, "only the intact entry replays");
        assert_eq!(jobs[0].meta.id, 2);
        assert_eq!(p.metrics().journal_skipped(), 1);
        drop_persistence(p);
    }

    #[test]
    fn compaction_rewrites_one_pair_per_job_and_replays_identically() {
        let p = temp_persistence("compact");
        // Duplicate submissions (as after repeated crashes before compaction).
        for _ in 0..3 {
            p.journal_submitted(&sample_meta(1)).unwrap();
        }
        p.journal_finished(
            1,
            &FinishedMeta {
                status: "failed".to_string(),
                samples: 0,
                superstep: 17,
                error: Some("boom".to_string()),
            },
        );
        let before = p.replay_journal();
        p.compact(&before);
        let after = p.replay_journal();
        assert_eq!(after.len(), 1);
        assert_eq!(after[0].meta.name, before[0].meta.name);
        let fin = after[0].finished.as_ref().unwrap();
        assert_eq!((fin.status.as_str(), fin.superstep), ("failed", 17));
        assert_eq!(fin.error.as_deref(), Some("boom"));
        let compacted_len = std::fs::metadata(p.journal_path()).unwrap().len();
        assert!(compacted_len > 0);
        drop_persistence(p);
    }

    #[test]
    fn cache_spill_rehydrates_bit_identically_and_rejects_corruption() {
        let p = temp_persistence("cache");
        let graph = gnp(&mut rng_from_seed(5), 60, 0.1);
        let key = CacheKey {
            fingerprint: 0xDEAD_BEEF,
            chain_slug: "par-global-es".to_string(),
            supersteps: 40,
        };
        let mut text = Vec::new();
        write_edge_list(&mut text, &graph).unwrap();
        let mut binary = Vec::new();
        write_edge_list_binary(&mut binary, &graph).unwrap();
        let sample = CachedSample {
            text: Arc::new(text),
            binary: Arc::new(binary),
            seed: derive_sample_seed(&key),
        };
        assert!(p.load_cached(&key).is_none(), "nothing spilled yet");
        p.spill_cache(&key, &sample);
        assert_eq!(p.metrics().samples_spilled(), 1);
        let back = p.load_cached(&key).expect("spilled entry rehydrates");
        assert_eq!(*back.binary, *sample.binary, "binary bytes survive the round trip");
        assert_eq!(*back.text, *sample.text, "text bytes survive the round trip");
        assert_eq!(back.seed, sample.seed);
        assert_eq!(p.metrics().cache_rehydrated(), 1);
        // Corrupt the spilled file: rehydration must refuse it, not serve it.
        let path = p.cache_path(&key);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(p.load_cached(&key).is_none(), "corrupt entry must read as a miss");
        assert!(p.metrics().errors() >= 1);
        drop_persistence(p);
    }

    #[test]
    fn job_samples_load_in_index_order_and_stop_at_gaps() {
        let p = temp_persistence("samples");
        let g0 = gnp(&mut rng_from_seed(1), 40, 0.1);
        let g1 = gnp(&mut rng_from_seed(2), 40, 0.1);
        let g3 = gnp(&mut rng_from_seed(3), 40, 0.1);
        for (index, superstep, graph) in [(0, 10, &g0), (1, 20, &g1), (3, 40, &g3)] {
            let mut binary = Vec::new();
            write_edge_list_binary(&mut binary, graph).unwrap();
            p.spill_job_sample(9, index, superstep, &binary);
        }
        let loaded = p.load_job_samples(9);
        assert_eq!(loaded.len(), 2, "index 3 is unreachable past the gap at 2");
        assert_eq!(loaded[0].superstep, 10);
        assert_eq!(loaded[1].superstep, 20);
        let mut expect = Vec::new();
        write_edge_list_binary(&mut expect, &g1).unwrap();
        assert_eq!(*loaded[1].binary, expect);
        drop_persistence(p);
    }

    #[test]
    fn the_first_poll_that_reads_done_finds_the_finished_event_journaled() {
        let p = temp_persistence("done-journaled");
        let server = durable_server(&p, Arc::new(SlowJournal), 2, 64);
        let addr = server.local_addr().to_string();
        let job =
            r#"{"generate":{"family":"gnp","edges":300,"seed":5},"supersteps":6,"thinning":3}"#;
        for id in 1..=3 {
            let response = wire::request(&addr, "POST", "/v1/jobs", &[], job.as_bytes()).unwrap();
            assert_eq!(response.status, 202);
            assert_eq!(poll_until_ended(&addr, id), "done");
            let journaled = p.replay_journal();
            let job = journaled.iter().find(|job| job.meta.id == id).expect("job is journaled");
            let fin = job.finished.as_ref().expect("`finished` is journaled before `done` shows");
            assert_eq!((fin.status.as_str(), fin.samples, fin.superstep), ("done", 2, 6));
        }
        server.shutdown();
        drop_persistence(p);
    }

    #[test]
    fn boot_readmits_every_unfinished_job_past_the_admission_bound() {
        let p = temp_persistence("readmit");
        let (engine_workers, max_pending) = (1, 2);
        let jobs = (engine_workers + max_pending + 4) as u64;
        for id in 1..=jobs {
            let meta = JobMeta {
                chain: "seq-es".to_string(),
                supersteps: 4,
                thinning: 2,
                ..sample_meta(id)
            };
            p.journal_submitted(&meta).unwrap();
        }
        let server = durable_server(&p, Arc::new(StdFs), engine_workers, max_pending);
        let addr = server.local_addr().to_string();
        for id in 1..=jobs {
            assert_eq!(poll_until_ended(&addr, id), "done", "job {id}");
        }
        let journaled = p.replay_journal();
        assert!(journaled
            .iter()
            .all(|job| job.finished.as_ref().is_some_and(|f| f.status == "done")));
        server.shutdown();
        drop_persistence(p);
    }
}
