//! The job pool: non-blocking submission, job handles, bounded admission,
//! graceful shutdown.
//!
//! Every multi-job caller runs on a [`ServicePool`]: the HTTP service submits
//! jobs one at a time as requests arrive, while [`run_batch`](crate::run_batch)
//! and the study driver submit a whole sweep and wait on the handles in
//! submission order.  Each worker runs its claimed job through
//! [`run_job`] (with the job's thread budget and trace context):
//!
//! * [`ServicePool::submit`] enqueues a job and returns a [`JobHandle`]
//!   immediately; the handle polls status/progress, waits for completion, or
//!   cancels;
//! * a job that fails or panics costs one [`JobState::Failed`] carrying its
//!   error text, never the worker or the other jobs;
//! * admission is **bounded**: once `max_pending` jobs wait in the queue,
//!   further submissions fail fast with [`SubmitError::Saturated`] (the
//!   server layer turns this into `429 Retry-After`) instead of growing an
//!   unbounded backlog;
//! * [`ServicePool::readmit`] enqueues past that bound, for work acknowledged
//!   before the pool existed (a journaled job resumed on boot);
//! * every accepted job ends exactly once, done, failed, panicked, cancelled
//!   or drained by [`ServicePool::shutdown_now`]: its worker (for a drained
//!   job, the thread in `shutdown_now`) counts the terminal state, runs the
//!   job's [`QueuedJob::completion`] with it and the last [`JobProgress`],
//!   and only then publishes it, so a terminal [`JobHandle::state`] means
//!   the completion has returned.  A refused submission never runs its
//!   completion; a completion that panics is logged and costs neither the
//!   worker nor the published state;
//! * [`ServicePool::shutdown`] is the graceful path: new submissions are
//!   rejected with [`SubmitError::ShuttingDown`], already-accepted jobs are
//!   drained to completion, and the worker threads are joined.
//!   [`ServicePool::shutdown_now`] additionally cancels queued and running
//!   jobs (they stop on their next superstep boundary).

use crate::checkpoint::{Checkpoint, CheckpointSink};
use crate::control::{JobControl, JobProgress};
use crate::error::EngineError;
use crate::job::JobSpec;
use crate::pool::{run_job, JobReport};
use crate::sink::SampleSink;
use crate::{default_registry, ChainRegistry};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// What a [`QueuedJob`] runs when it ends: it receives the terminal
/// [`JobState`] and the job's last [`JobProgress`] (see the
/// [module docs](crate::service) for when it runs).
pub type Completion = Box<dyn FnOnce(&JobState, JobProgress) + Send>;

/// One unit of work for a [`ServicePool`]: a spec, its sink, an optional
/// checkpoint to resume from, and an optional completion.
pub struct QueuedJob {
    /// What to run.
    pub spec: JobSpec,
    /// Where its samples go.
    pub sink: Box<dyn SampleSink>,
    /// Resume point (`None` = start from superstep 0).
    pub resume: Option<Checkpoint>,
    /// Where periodic checkpoints go, in addition to (or instead of) the
    /// spec's `checkpoint_dir` (`None` = directory files only).
    pub checkpoints: Option<Box<dyn CheckpointSink>>,
    /// Trace context of the submitting request, if it was traced: the worker
    /// installs it so engine-side spans join the submitter's trace.
    pub trace: Option<gesmc_obs::SpanContext>,
    /// Run exactly once when the accepted job ends, before its state is
    /// published (`None` = nothing to run).
    pub completion: Option<Completion>,
}

impl QueuedJob {
    /// A job starting from scratch.
    pub fn new(spec: JobSpec, sink: Box<dyn SampleSink>) -> Self {
        Self { spec, sink, resume: None, checkpoints: None, trace: None, completion: None }
    }

    /// Builder-style attachment of the submitter's
    /// [`gesmc_obs::SpanContext`] so engine spans join its trace.
    pub fn with_trace(mut self, trace: Option<gesmc_obs::SpanContext>) -> Self {
        self.trace = trace;
        self
    }

    /// Builder-style attachment of the [`Completion`] run when the job ends.
    pub fn on_completion(
        mut self,
        completion: impl FnOnce(&JobState, JobProgress) + Send + 'static,
    ) -> Self {
        self.completion = Some(Box::new(completion));
        self
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The pool is shutting down; no new jobs are accepted.
    ShuttingDown,
    /// The admission queue is full.  Callers should retry later (or shed the
    /// request upstream); `pending` is the queue depth at rejection time.
    Saturated {
        /// Jobs waiting in the queue when the submission was rejected.
        pending: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::ShuttingDown => write!(f, "pool is shutting down"),
            SubmitError::Saturated { pending } => {
                write!(f, "admission queue is full ({pending} jobs pending)")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Terminal or in-flight state of a submitted job.
#[derive(Debug, Clone)]
pub enum JobState {
    /// Waiting in the admission queue.
    Queued,
    /// Claimed by a worker and running.
    Running,
    /// Finished successfully.
    Done(JobReport),
    /// Failed; the engine error, rendered.
    Failed(String),
    /// Cancelled after the given superstep (samples emitted before the
    /// cancel were delivered to the sink).
    Cancelled(u64),
}

impl JobState {
    /// Whether the state is terminal (`Done`, `Failed`, or `Cancelled`).
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done(_) | JobState::Failed(_) | JobState::Cancelled(_))
    }

    /// Short lowercase status label (`queued`, `running`, `done`, `failed`,
    /// `cancelled`).
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
            JobState::Cancelled(_) => "cancelled",
        }
    }
}

/// Per-job shared slot the worker publishes state transitions into.
struct JobSlot {
    state: Mutex<JobState>,
    done: Condvar,
}

/// A caller-side handle to one submitted job.
///
/// Cloneable and cheap; all methods are safe to call from any thread while
/// the job runs.
#[derive(Clone)]
pub struct JobHandle {
    name: String,
    control: Arc<JobControl>,
    slot: Arc<JobSlot>,
}

impl JobHandle {
    /// Name of the submitted job.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current state (cloned snapshot).
    pub fn state(&self) -> JobState {
        self.slot.state.lock().expect("job slot mutex poisoned").clone()
    }

    /// Driver-recorded progress (last completed superstep / target).
    pub fn progress(&self) -> JobProgress {
        self.control.progress()
    }

    /// Ask the job to stop on its next superstep boundary.  Queued jobs are
    /// cancelled without running.
    pub fn cancel(&self) {
        self.control.request_cancel();
    }

    /// Whether the job reached a terminal state.
    pub fn is_finished(&self) -> bool {
        self.state().is_terminal()
    }

    /// A handle that is not connected to a live pool job, seeded with a
    /// fixed state and progress snapshot.
    ///
    /// Used to represent jobs restored from a persistent store after a
    /// restart: the job already reached `state` in a previous process, so
    /// the handle only needs to report it (and a plausible progress
    /// snapshot), never transition.  Terminal states behave exactly like a
    /// finished live handle (`wait` returns immediately).
    pub fn detached(name: impl Into<String>, state: JobState, superstep: u64, total: u64) -> Self {
        let control = Arc::new(JobControl::new());
        control.set_total(total);
        if superstep > 0 {
            control.record_start(superstep);
        }
        Self {
            name: name.into(),
            control,
            slot: Arc::new(JobSlot { state: Mutex::new(state), done: Condvar::new() }),
        }
    }

    /// Block until the job reaches a terminal state, returning it.
    pub fn wait(&self) -> JobState {
        let mut state = self.slot.state.lock().expect("job slot mutex poisoned");
        while !state.is_terminal() {
            state = self.slot.done.wait(state).expect("job slot mutex poisoned");
        }
        state.clone()
    }
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("name", &self.name)
            .field("state", &self.state().label())
            .finish()
    }
}

/// One queued unit: the job plus its shared control and state slot.
struct ServiceJob {
    job: QueuedJob,
    control: Arc<JobControl>,
    slot: Arc<JobSlot>,
}

struct ServiceInner {
    registry: &'static ChainRegistry,
    queue: Mutex<VecDeque<ServiceJob>>,
    work_available: Condvar,
    accepting: AtomicBool,
    max_pending: usize,
    running: AtomicUsize,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    supersteps: Arc<AtomicU64>,
}

/// A fixed set of worker threads draining an open, bounded submission queue.
///
/// See the [module docs](crate::service) for the full contract.  Dropping
/// the pool performs a graceful [`shutdown`](ServicePool::shutdown).
pub struct ServicePool {
    inner: Arc<ServiceInner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl ServicePool {
    /// Start `workers` threads (`0` = hardware parallelism) resolving chains
    /// against the [`default_registry`]; at most `max_pending` jobs may wait
    /// in the queue (`0` = unbounded).
    pub fn start(workers: usize, max_pending: usize) -> Self {
        Self::start_with(default_registry(), workers, max_pending)
    }

    /// Like [`ServicePool::start`] with a caller-provided registry (leak a
    /// custom registry with `Box::leak` to obtain the `'static` borrow the
    /// worker threads need).
    pub fn start_with(
        registry: &'static ChainRegistry,
        workers: usize,
        max_pending: usize,
    ) -> Self {
        let workers = if workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            workers
        };
        let inner = Arc::new(ServiceInner {
            registry,
            queue: Mutex::new(VecDeque::new()),
            work_available: Condvar::new(),
            accepting: AtomicBool::new(true),
            max_pending,
            running: AtomicUsize::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            supersteps: Arc::new(AtomicU64::new(0)),
        });
        let handles = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || Self::worker_loop(&inner))
            })
            .collect();
        Self { inner, workers: Mutex::new(handles) }
    }

    fn worker_loop(inner: &ServiceInner) {
        loop {
            let next = {
                let mut queue = inner.queue.lock().expect("service queue mutex poisoned");
                loop {
                    if let Some(job) = queue.pop_front() {
                        break Some(job);
                    }
                    if !inner.accepting.load(Ordering::Acquire) {
                        break None;
                    }
                    queue = inner.work_available.wait(queue).expect("service queue mutex poisoned");
                }
            };
            let Some(mut work) = next else {
                // Shutdown with an empty queue: wake siblings and exit.
                inner.work_available.notify_all();
                return;
            };

            Self::publish(&work.slot, JobState::Running);
            inner.running.fetch_add(1, Ordering::Release);
            // A panicking job (a generator assert, a poisoned sink) must
            // cost one Failed state, not this worker thread: without the
            // unwind boundary the slot would never publish (waiters hang
            // forever) and the pool would lose a worker for the process
            // lifetime.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let job = &mut work.job;
                gesmc_obs::trace::with_context_opt(job.trace, || {
                    run_job(
                        inner.registry,
                        &job.spec,
                        job.sink.as_mut(),
                        job.resume.as_ref(),
                        &work.control,
                        job.checkpoints.as_deref_mut(),
                    )
                })
            }));
            inner.running.fetch_sub(1, Ordering::Release);

            let state = match result {
                Ok(Ok(report)) => JobState::Done(report),
                Ok(Err(EngineError::Cancelled { superstep, .. })) => JobState::Cancelled(superstep),
                Ok(Err(e)) => JobState::Failed(e.to_string()),
                Err(panic) => JobState::Failed(format!("job panicked: {}", panic_message(&*panic))),
            };
            Self::finish(inner, work, state);
        }
    }

    /// End an accepted job: count its terminal `state`, run its completion
    /// (a panic there is logged and absorbed), then publish the state.
    fn finish(inner: &ServiceInner, work: ServiceJob, state: JobState) {
        let counter = match &state {
            JobState::Done(_) => &inner.completed,
            JobState::Failed(_) => &inner.failed,
            _ => &inner.cancelled,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if let Some(completion) = work.job.completion {
            let progress = work.control.progress();
            let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                completion(&state, progress);
            }));
            if let Err(panic) = ran {
                gesmc_obs::warn!(
                    target: "gesmc_engine",
                    id: work.job.spec.name,
                    "job completion panicked: {}",
                    panic_message(&*panic)
                );
            }
        }
        Self::publish(&work.slot, state);
    }

    fn publish(slot: &JobSlot, state: JobState) {
        *slot.state.lock().expect("job slot mutex poisoned") = state;
        slot.done.notify_all();
    }

    /// Submit a job, returning its handle immediately.
    ///
    /// Fails with [`SubmitError::ShuttingDown`] after
    /// [`shutdown`](ServicePool::shutdown) began, and with
    /// [`SubmitError::Saturated`] when `max_pending` jobs already wait.
    pub fn submit(&self, job: QueuedJob) -> Result<JobHandle, SubmitError> {
        self.enqueue(job, true)
    }

    /// Like [`submit`](ServicePool::submit), but past the `max_pending`
    /// bound, so it fails only with [`SubmitError::ShuttingDown`]; `submit`
    /// sheds until the queue drains below the bound again.
    pub fn readmit(&self, job: QueuedJob) -> Result<JobHandle, SubmitError> {
        self.enqueue(job, false)
    }

    fn enqueue(&self, job: QueuedJob, bounded: bool) -> Result<JobHandle, SubmitError> {
        if !self.inner.accepting.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        let control = Arc::new(JobControl::with_meter(Arc::clone(&self.inner.supersteps)));
        let slot = Arc::new(JobSlot { state: Mutex::new(JobState::Queued), done: Condvar::new() });
        let handle = JobHandle {
            name: job.spec.name.clone(),
            control: Arc::clone(&control),
            slot: Arc::clone(&slot),
        };
        {
            let mut queue = self.inner.queue.lock().expect("service queue mutex poisoned");
            // Re-check under the lock so a racing shutdown cannot strand the
            // job in the queue after the workers exited.
            if !self.inner.accepting.load(Ordering::Acquire) {
                return Err(SubmitError::ShuttingDown);
            }
            if bounded && self.inner.max_pending > 0 && queue.len() >= self.inner.max_pending {
                return Err(SubmitError::Saturated { pending: queue.len() });
            }
            queue.push_back(ServiceJob { job, control, slot });
        }
        self.inner.work_available.notify_one();
        Ok(handle)
    }

    /// Worker thread count.
    pub fn workers(&self) -> usize {
        self.workers.lock().expect("worker handles mutex poisoned").len()
    }

    /// Jobs waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.lock().expect("service queue mutex poisoned").len()
    }

    /// Jobs currently executing on workers.
    pub fn running(&self) -> usize {
        self.inner.running.load(Ordering::Acquire)
    }

    /// Whether submissions are still accepted.
    pub fn is_accepting(&self) -> bool {
        self.inner.accepting.load(Ordering::Acquire)
    }

    /// Lifetime counters: (completed, failed, cancelled) jobs.
    pub fn job_counts(&self) -> (u64, u64, u64) {
        (
            self.inner.completed.load(Ordering::Relaxed),
            self.inner.failed.load(Ordering::Relaxed),
            self.inner.cancelled.load(Ordering::Relaxed),
        )
    }

    /// Total supersteps completed across all jobs (live; the pool-level
    /// progress hook).
    pub fn supersteps_total(&self) -> u64 {
        self.inner.supersteps.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: reject new submissions, drain already-accepted
    /// jobs (queued and running) to completion, join the workers.
    /// Idempotent; concurrent calls join once.
    pub fn shutdown(&self) {
        self.inner.accepting.store(false, Ordering::Release);
        // Notify under the queue mutex: a worker between its accepting-flag
        // check and its wait holds that mutex, so the wakeup cannot be lost.
        {
            let _queue = self.inner.queue.lock().expect("service queue mutex poisoned");
            self.inner.work_available.notify_all();
        }
        let handles =
            std::mem::take(&mut *self.workers.lock().expect("worker handles mutex poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Hard shutdown: like [`shutdown`](ServicePool::shutdown), but queued
    /// jobs are cancelled without running and in-flight jobs are asked to
    /// stop on their next superstep boundary.
    pub fn shutdown_now(&self) {
        self.inner.accepting.store(false, Ordering::Release);
        // In-flight jobs hold clones of their controls, so cancelling the
        // queued jobs here plus the submitters' own handles covers
        // everything.  Notifying under the queue mutex prevents a lost
        // wakeup (see `shutdown`); the drained jobs end outside it, so their
        // completions never hold up a worker's next claim.
        let drained: Vec<ServiceJob> = {
            let mut queue = self.inner.queue.lock().expect("service queue mutex poisoned");
            self.inner.work_available.notify_all();
            queue.drain(..).collect()
        };
        for work in drained {
            work.control.request_cancel();
            let superstep = work.control.progress().superstep;
            Self::finish(&self.inner, work, JobState::Cancelled(superstep));
        }
        let handles =
            std::mem::take(&mut *self.workers.lock().expect("worker handles mutex poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for ServicePool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The text of a panic payload (`&str` or `String`).
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{GraphSource, JobSpec};
    use crate::sink::{MemorySink, NullSink};
    use gesmc_core::ChainSpec;
    use gesmc_graph::gen::gnp;
    use gesmc_randx::rng_from_seed;

    fn spec(name: &str, supersteps: u64) -> JobSpec {
        let graph = gnp(&mut rng_from_seed(1), 60, 0.1);
        JobSpec::new(name, GraphSource::InMemory(graph), ChainSpec::new("seq-global-es"))
            .supersteps(supersteps)
            .thinning(2)
            .seed(7)
    }

    fn queued(name: &str, supersteps: u64) -> QueuedJob {
        QueuedJob::new(spec(name, supersteps), Box::new(NullSink::default()))
    }

    /// Each completion call: the state's label, the progress superstep, and
    /// whether the job's handle already read terminal.
    type Calls = Arc<Mutex<Vec<(&'static str, u64, bool)>>>;

    /// Submit `job` with a completion that records its call into `calls`.
    fn submit_recorded(
        pool: &ServicePool,
        job: QueuedJob,
        calls: &Calls,
    ) -> Result<JobHandle, SubmitError> {
        let (handle_tx, handle_rx) = std::sync::mpsc::channel::<JobHandle>();
        let calls = Arc::clone(calls);
        let handle = pool.submit(job.on_completion(move |state, progress| {
            let handle = handle_rx.recv().expect("the handle is sent right after submit");
            let terminal = handle.state().is_terminal();
            calls.lock().unwrap().push((state.label(), progress.superstep, terminal));
        }))?;
        handle_tx.send(handle.clone()).unwrap();
        Ok(handle)
    }

    /// A job whose generator panics inside the worker (pld with gamma <= 1).
    fn panicking(name: &str) -> QueuedJob {
        let source = GraphSource::Generated {
            family: "pld".into(),
            nodes: 0,
            edges: 100,
            gamma: 0.5,
            seed: 1,
        };
        let spec = JobSpec::new(name, source, ChainSpec::new("seq-es"));
        QueuedJob::new(spec, Box::new(NullSink::default()))
    }

    /// A job that fails: its input file does not exist.
    fn missing_input(name: &str) -> QueuedJob {
        let source = GraphSource::File("/nonexistent/missing.txt".into());
        let spec = JobSpec::new(name, source, ChainSpec::new("seq-es"));
        QueuedJob::new(spec, Box::new(NullSink::default()))
    }

    /// A gate that parks the worker inside the sink of a "blocker" job until
    /// released, so tests can deterministically occupy a worker.
    #[derive(Clone, Default)]
    struct Gate {
        state: Arc<(Mutex<bool>, Condvar)>,
    }

    impl Gate {
        fn new() -> Self {
            Self::default()
        }

        fn release(&self) {
            let (lock, cv) = &*self.state;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }

        fn wait_released(&self) {
            let (lock, cv) = &*self.state;
            let mut released = lock.lock().unwrap();
            while !*released {
                released = cv.wait(released).unwrap();
            }
        }

        /// Submit a job whose first sample emission blocks on this gate;
        /// returns once the worker is parked inside it.
        fn park_worker(&self, pool: &ServicePool) -> JobHandle {
            self.park_with(|job| pool.submit(job).unwrap())
        }

        /// [`Gate::park_worker`] with the submission left to `submit`.
        fn park_with(&self, submit: impl FnOnce(QueuedJob) -> JobHandle) -> JobHandle {
            let entered = Arc::new((Mutex::new(false), Condvar::new()));
            let entered_in_sink = Arc::clone(&entered);
            let gate = self.clone();
            let sink = crate::sink::CallbackSink::new(
                move |_ctx: &crate::sink::SampleContext<'_>, _g: &gesmc_graph::EdgeListGraph| {
                    {
                        let (lock, cv) = &*entered_in_sink;
                        *lock.lock().unwrap() = true;
                        cv.notify_all();
                    }
                    gate.wait_released();
                    Ok(())
                },
            );
            let blocker = spec("blocker", 2).thinning(1);
            let handle = submit(QueuedJob::new(blocker, Box::new(sink)));
            let (lock, cv) = &*entered;
            let mut seen = lock.lock().unwrap();
            while !*seen {
                seen = cv.wait(seen).unwrap();
            }
            handle
        }
    }

    #[test]
    fn submit_wait_roundtrip_delivers_samples() {
        let pool = ServicePool::start(2, 0);
        let sink = MemorySink::new();
        let store = sink.store();
        let handle = pool.submit(QueuedJob::new(spec("svc", 8), Box::new(sink))).unwrap();
        let state = handle.wait();
        match state {
            JobState::Done(report) => {
                assert_eq!(report.samples, 4);
                assert_eq!(report.supersteps, 8);
            }
            other => panic!("expected Done, got {:?}", other.label()),
        }
        assert_eq!(store.lock().unwrap().len(), 4);
        assert_eq!(handle.progress().superstep, 8);
        assert_eq!(pool.job_counts().0, 1);
        assert!(pool.supersteps_total() >= 8);
        pool.shutdown();
    }

    #[test]
    fn many_jobs_drain_over_few_workers() {
        let pool = ServicePool::start(2, 0);
        let handles: Vec<_> =
            (0..8).map(|i| pool.submit(queued(&format!("j{i}"), 4)).unwrap()).collect();
        for handle in &handles {
            assert!(matches!(handle.wait(), JobState::Done(_)));
        }
        assert_eq!(pool.job_counts(), (8, 0, 0));
        assert_eq!(pool.queue_depth(), 0);
        pool.shutdown();
    }

    #[test]
    fn saturated_queue_rejects_with_pending_depth() {
        // One worker, queue bound 1: park the worker inside a blocker job,
        // fill the queue, then the next submission must shed.
        let pool = ServicePool::start(1, 1);
        let gate = Gate::new();
        let blocker = gate.park_worker(&pool);
        assert_eq!(pool.running(), 1);
        let filler = pool.submit(queued("fill", 4)).unwrap();
        let calls = Calls::default();
        match submit_recorded(&pool, queued("shed", 4), &calls) {
            Err(SubmitError::Saturated { pending }) => assert_eq!(pending, 1),
            other => panic!("expected Saturated, got {other:?}"),
        }
        gate.release();
        assert!(matches!(blocker.wait(), JobState::Done(_)));
        assert!(matches!(filler.wait(), JobState::Done(_)));
        pool.shutdown();
        assert!(calls.lock().unwrap().is_empty(), "a shed job's completion must never run");
    }

    #[test]
    fn readmit_queues_past_the_bound_and_submit_sheds_until_it_drains() {
        let pool = ServicePool::start(1, 1);
        let gate = Gate::new();
        let blocker = gate.park_worker(&pool);
        let readmitted: Vec<_> =
            (0..3).map(|i| pool.readmit(queued(&format!("r{i}"), 4)).unwrap()).collect();
        assert_eq!(pool.queue_depth(), 3);
        assert!(matches!(pool.submit(queued("shed", 4)), Err(SubmitError::Saturated { .. })));
        gate.release();
        assert!(matches!(blocker.wait(), JobState::Done(_)));
        for handle in &readmitted {
            assert!(matches!(handle.wait(), JobState::Done(_)), "{handle:?}");
        }
        assert!(matches!(pool.submit(queued("fits", 4)).unwrap().wait(), JobState::Done(_)));
        pool.shutdown();
        assert!(matches!(pool.readmit(queued("late", 4)), Err(SubmitError::ShuttingDown)));
    }

    #[test]
    fn graceful_shutdown_drains_accepted_jobs_and_rejects_new_ones() {
        let pool = ServicePool::start(1, 0);
        let handles: Vec<_> =
            (0..4).map(|i| pool.submit(queued(&format!("d{i}"), 6)).unwrap()).collect();
        pool.shutdown();
        for handle in &handles {
            assert!(
                matches!(handle.state(), JobState::Done(_)),
                "accepted jobs must drain: {:?}",
                handle
            );
        }
        assert!(!pool.is_accepting());
        let calls = Calls::default();
        let late = submit_recorded(&pool, queued("late", 4), &calls);
        assert!(matches!(late, Err(SubmitError::ShuttingDown)));
        assert!(calls.lock().unwrap().is_empty(), "a refused job's completion must never run");
        // Idempotent.
        pool.shutdown();
    }

    #[test]
    fn shutdown_now_cancels_queued_jobs() {
        let pool = ServicePool::start(1, 0);
        let gate = Gate::new();
        let blocker = gate.park_worker(&pool);
        let calls = Calls::default();
        let parked: Vec<_> = (0..3)
            .map(|i| submit_recorded(&pool, queued(&format!("p{i}"), 8), &calls).unwrap())
            .collect();
        blocker.cancel();
        // shutdown_now drains (cancels) the queued jobs before joining the
        // workers; only then release the parked worker, so it can never claim
        // a queued job first.
        let pool = Arc::new(pool);
        let pool_in_thread = Arc::clone(&pool);
        let shutdown = std::thread::spawn(move || pool_in_thread.shutdown_now());
        while pool.queue_depth() > 0 {
            std::thread::yield_now();
        }
        gate.release();
        shutdown.join().unwrap();
        assert!(matches!(blocker.wait(), JobState::Cancelled(_)));
        for handle in &parked {
            assert!(
                matches!(handle.state(), JobState::Cancelled(_)),
                "queued jobs must be cancelled without running: {handle:?}"
            );
        }
        let (_, _, cancelled) = pool.job_counts();
        assert_eq!(cancelled, 4);
        // Each drained job ran its completion once, before it read Cancelled.
        assert_eq!(*calls.lock().unwrap(), vec![("cancelled", 0, false); 3]);
    }

    #[test]
    fn cancel_before_claim_skips_the_run() {
        let pool = ServicePool::start(1, 0);
        let gate = Gate::new();
        let blocker = gate.park_worker(&pool);
        let victim = pool.submit(queued("victim", 8)).unwrap();
        victim.cancel();
        blocker.cancel();
        gate.release();
        let state = victim.wait();
        match state {
            JobState::Cancelled(superstep) => assert_eq!(superstep, 0),
            other => panic!("expected Cancelled(0), got {:?}", other.label()),
        }
        pool.shutdown();
    }

    #[test]
    fn panicking_jobs_fail_without_killing_the_worker() {
        let pool = ServicePool::start(1, 0);
        // The pool must publish Failed for a job that panics, and keep its
        // worker.
        let handle = pool.submit(panicking("boom")).unwrap();
        match handle.wait() {
            JobState::Failed(msg) => assert!(msg.contains("panicked"), "{msg}"),
            other => panic!("expected Failed, got {:?}", other.label()),
        }
        // The single worker survived and still runs jobs, also after a
        // completion that panics; that job's state is still published.
        let after = queued("after", 4).on_completion(|_, _| panic!("completion panics"));
        assert!(matches!(pool.submit(after).unwrap().wait(), JobState::Done(_)));
        let last = pool.submit(queued("last", 4)).unwrap();
        assert!(matches!(last.wait(), JobState::Done(_)));
        assert_eq!(pool.job_counts(), (2, 1, 0));
        pool.shutdown();
    }

    #[test]
    fn a_completion_runs_once_before_the_state_turns_terminal_however_the_job_ends() {
        let pool = ServicePool::start(1, 0);
        let calls = Calls::default();
        let gate = Gate::new();
        let running = gate.park_with(|job| submit_recorded(&pool, job, &calls).unwrap());
        let unclaimed = submit_recorded(&pool, queued("unclaimed", 8), &calls).unwrap();
        let done = submit_recorded(&pool, queued("done", 4), &calls).unwrap();
        let failed = submit_recorded(&pool, missing_input("failed"), &calls).unwrap();
        let panicked = submit_recorded(&pool, panicking("panicked"), &calls).unwrap();
        unclaimed.cancel();
        running.cancel();
        gate.release();
        for handle in [&running, &unclaimed, &done, &failed, &panicked] {
            handle.wait();
        }
        pool.shutdown();
        // One worker runs them in submission order.  The parked job is
        // cancelled after its first superstep, the unclaimed one before any.
        let expected = vec![
            ("cancelled", 1, false),
            ("cancelled", 0, false),
            ("done", 4, false),
            ("failed", 0, false),
            ("failed", 0, false),
        ];
        assert_eq!(*calls.lock().unwrap(), expected);
    }

    #[test]
    fn failed_jobs_surface_their_error_text() {
        let pool = ServicePool::start(1, 0);
        let handle = pool.submit(missing_input("bad")).unwrap();
        match handle.wait() {
            JobState::Failed(msg) => assert!(msg.contains("missing.txt"), "{msg}"),
            other => panic!("expected Failed, got {:?}", other.label()),
        }
        assert_eq!(pool.job_counts().1, 1);
        pool.shutdown();
    }
}
