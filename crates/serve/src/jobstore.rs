//! The asynchronous job registry behind `POST /v1/jobs`.
//!
//! Each submitted job is tracked as a `JobRecord`: what was submitted, the
//! engine [`JobHandle`] (status, progress, cancellation) and the thinned
//! samples the job streamed so far, pre-encoded in both response formats.
//! Records are retained after completion so clients can fetch samples at
//! their own pace; the store is bounded, evicting the oldest *finished*
//! record once full and refusing new submissions when every resident job is
//! still live.
//!
//! `start_job` is the one way a job starts, for `POST /v1/jobs` and for a
//! journaled job resumed on boot alike.

use crate::persist::{make_job_sink, FinishedMeta, JobCheckpointSink, JobMeta};
use crate::server::ServerState;
use gesmc_core::ChainSpec;
use gesmc_engine::{Checkpoint, GraphSource, JobHandle, JobSpec, JobState, QueuedJob, SubmitError};
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One pre-encoded thinned sample of a job.
#[derive(Debug, Clone)]
pub struct StoredSample {
    /// Superstep after which the sample was taken.
    pub superstep: u64,
    /// Plain-text edge-list encoding.
    pub text: Arc<Vec<u8>>,
    /// Binary edge-list encoding (`GESMCEL1`).
    pub binary: Arc<Vec<u8>>,
}

/// Shared, append-only sample list a job's sink writes into.
pub type SharedSamples = Arc<Mutex<Vec<StoredSample>>>;

/// One tracked job.
pub(crate) struct JobRecord {
    /// What was submitted; its id is also the URL path segment.
    pub meta: JobMeta,
    /// The engine handle (status / progress / cancel).
    pub handle: JobHandle,
    /// Samples streamed so far.
    pub samples: SharedSamples,
}

impl JobRecord {
    /// The status document `GET /v1/jobs/{id}` serves.
    pub fn status_json(&self) -> Value {
        let state = self.handle.state();
        let progress = self.handle.progress();
        let meta = &self.meta;
        let mut map = Map::new();
        map.insert("id".to_string(), Value::Number(meta.id as f64));
        map.insert("name".to_string(), Value::String(meta.name.clone()));
        map.insert("chain".to_string(), Value::String(meta.chain.clone()));
        map.insert("status".to_string(), Value::String(state.label().to_string()));
        map.insert("superstep".to_string(), Value::Number(progress.superstep as f64));
        map.insert("total_supersteps".to_string(), Value::Number(meta.supersteps as f64));
        map.insert("thinning".to_string(), Value::Number(meta.thinning as f64));
        map.insert("seed".to_string(), Value::Number(meta.seed as f64));
        let samples = self.samples.lock().expect("samples mutex poisoned").len();
        map.insert("samples".to_string(), Value::Number(samples as f64));
        match &state {
            JobState::Failed(msg) => {
                map.insert("error".to_string(), Value::String(msg.clone()));
            }
            JobState::Cancelled(superstep) => {
                map.insert("cancelled_at".to_string(), Value::Number(*superstep as f64));
            }
            _ => {}
        }
        Value::Object(map)
    }
}

/// Why the store rejected a registration.
#[derive(Debug, PartialEq, Eq)]
pub enum StoreError {
    /// Every resident record is still live; retry once some finish.
    Full {
        /// Configured capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Full { capacity } => {
                write!(f, "job store is full ({capacity} live jobs)")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Bounded registry of submitted jobs, ordered by id.
pub(crate) struct JobStore {
    inner: Mutex<BTreeMap<u64, Arc<JobRecord>>>,
    next_id: AtomicU64,
    capacity: usize,
}

impl JobStore {
    /// A store retaining at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        Self { inner: Mutex::new(BTreeMap::new()), next_id: AtomicU64::new(1), capacity }
    }

    /// Reserve the id the next registered job will get (ids are assigned in
    /// submission order and never reused).
    pub fn allocate_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Raise the id counter to at least `floor` (no-op when already past
    /// it).  Boot replay uses this so restored job ids are never reissued.
    pub fn ensure_next_id(&self, floor: u64) {
        self.next_id.fetch_max(floor, Ordering::Relaxed);
    }

    /// Register a record under its id, evicting the oldest finished record
    /// when at capacity.  When every resident record is still queued or
    /// running, a `bounded` registration fails with [`StoreError::Full`];
    /// an unbounded one (a job resumed on boot) goes in past the capacity.
    pub fn register(&self, record: JobRecord, bounded: bool) -> Result<Arc<JobRecord>, StoreError> {
        let mut inner = self.inner.lock().expect("job store mutex poisoned");
        if inner.len() >= self.capacity {
            let oldest_finished =
                inner.iter().find(|(_, r)| r.handle.state().is_terminal()).map(|(&id, _)| id);
            match oldest_finished {
                Some(id) => {
                    inner.remove(&id);
                }
                None if bounded => return Err(StoreError::Full { capacity: self.capacity }),
                None => {}
            }
        }
        let record = Arc::new(record);
        inner.insert(record.meta.id, Arc::clone(&record));
        Ok(record)
    }

    /// Look a record up by id.
    pub fn get(&self, id: u64) -> Option<Arc<JobRecord>> {
        self.inner.lock().expect("job store mutex poisoned").get(&id).cloned()
    }

    /// Every resident record, in ascending id order (`/v1/debug/stats`).
    pub fn records(&self) -> Vec<Arc<JobRecord>> {
        self.inner.lock().expect("job store mutex poisoned").values().cloned().collect()
    }

    /// Number of resident records.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("job store mutex poisoned").len()
    }
}

/// Where a journaled job resumed on boot picks up.
pub(crate) struct Resume {
    /// The checkpoint to continue from (`None` = from scratch).
    pub(crate) checkpoint: Option<Checkpoint>,
    /// The samples emitted before `checkpoint`.
    pub(crate) samples: Vec<StoredSample>,
}

/// Why [`start_job`] started no job.
#[derive(Debug)]
pub(crate) enum StartError {
    /// The pool refused the submission; its completion never runs.
    Refused(SubmitError),
    /// Every resident record is live.  The job was cancelled, and its
    /// completion journals that like any other ending.
    Full(StoreError),
}

/// Start the job `meta` describes on the engine pool and register its
/// record: the one path of `POST /v1/jobs` and of boot resume.  A new
/// submission (`resume` is `None`) is admitted under the pool's and the
/// store's bounds; a resumed one goes past both, since it was acknowledged
/// before this process existed.
///
/// With a data dir the job spills its samples, checkpoints every
/// `checkpoint_every` supersteps (`0` = never) and journals its `finished`
/// event in its completion, so the event is durable before any poll reads
/// the job's terminal status.
pub(crate) fn start_job(
    state: &ServerState,
    meta: JobMeta,
    source: GraphSource,
    chain: ChainSpec,
    resume: Option<Resume>,
) -> Result<Arc<JobRecord>, StartError> {
    let id = meta.id;
    let spec = JobSpec::new(meta.name.clone(), source, chain)
        .supersteps(meta.supersteps)
        .thinning(meta.thinning)
        .seed(meta.seed);
    let readmit = resume.is_some();
    let (checkpoint, prefill) = resume.map_or((None, Vec::new()), |r| (r.checkpoint, r.samples));
    let samples: SharedSamples = Arc::new(Mutex::new(prefill));
    let sink = make_job_sink(state.persist.clone(), id, Arc::clone(&samples));
    let mut queued = QueuedJob { resume: checkpoint, ..QueuedJob::new(spec, sink) };
    if let Some(persist) = &state.persist {
        queued.spec.checkpoint_every = Some(state.config.checkpoint_every);
        queued.checkpoints = Some(Box::new(JobCheckpointSink { persist: Arc::clone(persist), id }));
        let (persist, samples) = (Arc::clone(persist), Arc::clone(&samples));
        queued = queued.on_completion(move |ended, progress| {
            let emitted = samples.lock().expect("samples mutex poisoned").len() as u64;
            persist.journal_finished(id, &FinishedMeta::new(ended, progress.superstep, emitted));
        });
    }
    let submitted = if readmit { state.pool.readmit(queued) } else { state.pool.submit(queued) };
    let handle = submitted.map_err(StartError::Refused)?;
    let record = JobRecord { meta, handle: handle.clone(), samples };
    state.jobs.register(record, !readmit).map_err(|e| {
        handle.cancel();
        StartError::Full(e)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::PersistedGraph;
    use gesmc_engine::{NullSink, ServicePool};
    use gesmc_graph::gen::gnp;
    use gesmc_randx::rng_from_seed;

    fn record_for(store: &JobStore, pool: &ServicePool, supersteps: u64) -> JobRecord {
        let id = store.allocate_id();
        let graph = gnp(&mut rng_from_seed(id), 40, 0.15);
        let spec = JobSpec::new(
            format!("job{id}"),
            GraphSource::InMemory(graph),
            ChainSpec::new("seq-es"),
        )
        .supersteps(supersteps)
        .seed(id);
        let handle = pool.submit(QueuedJob::new(spec, Box::new(NullSink::default()))).unwrap();
        let meta = JobMeta {
            id,
            name: format!("job{id}"),
            chain: "seq-es".to_string(),
            supersteps,
            thinning: 0,
            seed: id,
            graph: PersistedGraph::File,
        };
        JobRecord { meta, handle, samples: Arc::new(Mutex::new(Vec::new())) }
    }

    #[test]
    fn register_get_and_status_json() {
        let pool = ServicePool::start(1, 0);
        let store = JobStore::new(8);
        let record = store.register(record_for(&store, &pool, 4), true).unwrap();
        assert_eq!(record.meta.id, 1);
        let fetched = store.get(1).unwrap();
        fetched.handle.wait();
        let status = fetched.status_json();
        assert_eq!(status.get("status").and_then(|v| v.as_str()), Some("done"));
        assert_eq!(status.get("superstep").and_then(|v| v.as_u64()), Some(4));
        assert_eq!(status.get("chain").and_then(|v| v.as_str()), Some("seq-es"));
        assert!(store.get(99).is_none());
        pool.shutdown();
    }

    #[test]
    fn eviction_prefers_oldest_finished_and_refuses_when_all_live() {
        let pool = ServicePool::start(1, 0);
        let store = JobStore::new(2);
        let first = store.register(record_for(&store, &pool, 2), true).unwrap();
        let second = store.register(record_for(&store, &pool, 2), true).unwrap();
        first.handle.wait();
        second.handle.wait();
        // Full, but finished records may be evicted: oldest (id 1) goes.
        let third = store.register(record_for(&store, &pool, 2), true).unwrap();
        assert!(store.get(1).is_none());
        assert!(store.get(2).is_some());
        assert_eq!(third.meta.id, 3);
        pool.shutdown();

        // A store whose residents never finish refuses new registrations.
        let stuck_pool = ServicePool::start(1, 0);
        let small = JobStore::new(1);
        // Park a long job so the record stays live.
        let live = small.register(record_for(&small, &stuck_pool, 100_000), true).unwrap();
        let refused = record_for(&small, &stuck_pool, 2);
        let refused_handle = refused.handle.clone();
        match small.register(refused, true) {
            Err(StoreError::Full { capacity }) => assert_eq!(capacity, 1),
            other => panic!("expected Full, got {:?}", other.map(|r| r.meta.id)),
        }
        // A resumed job goes in past the capacity.
        let resumed = small.register(record_for(&small, &stuck_pool, 2), false).unwrap();
        assert_eq!(small.len(), 2);
        for handle in [&live.handle, &refused_handle, &resumed.handle] {
            handle.cancel();
        }
        stuck_pool.shutdown();
    }
}
