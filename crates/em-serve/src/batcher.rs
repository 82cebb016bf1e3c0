//! The request coalescer: many small `/match` requests become few
//! GEMM-sized `match_proba` calls.
//!
//! Connection threads [`submit`](Batcher::submit) their pairs into a
//! bounded queue and block on a per-job waiter; worker threads pull
//! *microbatches* off the queue, run one fused encode→scale→predict pass
//! and scatter the results back to the waiters.
//!
//! Batching is **work-conserving**: a free worker takes whatever is
//! queued — whole jobs, up to `max_batch` pairs — as soon as it sees the
//! queue non-empty, and never waits on a timer for company. Batches grow
//! with load by themselves: jobs that arrive while every worker is busy
//! coalesce into the next pop. Because every stage of
//! [`em_core::model::ModelHost::match_proba`] is row-independent, the
//! probabilities are bit-identical however requests get grouped: the
//! coalescer changes latency and throughput, never answers.
//!
//! Each microbatch snapshots the [`HostCell`] exactly once, so all of a
//! batch's requests are scored by **one model version** — the hot-swap
//! atomicity unit (see [`crate::reload`]). The scatter carries the
//! version and that version's threshold back to the waiter, so responses
//! can never mix one model's probability with another's threshold.
//!
//! Admission is explicit: a full queue rejects with
//! [`Rejected::Overloaded`] (HTTP 429), a draining batcher with
//! [`Rejected::Draining`] (HTTP 503), and an open circuit breaker with
//! [`Rejected::Unavailable`] (HTTP 503 + `Retry-After`). Shutdown is
//! *lossless* — workers keep pulling until the queue is empty, so every
//! job admitted before [`shutdown`](Batcher::shutdown) still gets its
//! answer. A worker that dies mid-batch fails that batch's waiters with
//! a typed [`ServeFailure`] (HTTP 500) instead of hanging them — the
//! supervisor ([`crate::supervisor`]) then restarts the worker loop.

use crate::reload::HostCell;
use crate::LATENCY_BOUNDS_US;
use automl::fault::ServeFaultPlan;
use em_data::RecordPair;
use par::CircuitBreaker;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Bucket bounds of the `serve.batch_pairs` histogram.
const BATCH_PAIRS_BOUNDS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// Why a submission was refused at the door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The queue already holds the configured maximum number of pairs.
    Overloaded,
    /// The batcher is shutting down and no longer admits work.
    Draining,
    /// The circuit breaker is open after repeated worker failures; retry
    /// after the embedded number of seconds.
    Unavailable {
        /// Suggested client wait before retrying, in whole seconds
        /// (the breaker cooldown remainder, rounded up, at least 1).
        retry_after_secs: u64,
    },
}

/// A successfully scored job: the job's probabilities, the identity of
/// the model version that produced them, and where the job spent its
/// time inside the batcher.
#[derive(Debug, Clone, PartialEq)]
pub struct Scored {
    /// Match probabilities, one per submitted pair, in order.
    pub probs: Vec<f32>,
    /// The model version that scored this job (exactly one per batch).
    pub version: u64,
    /// That version's validation-tuned decision threshold.
    pub threshold: f32,
    /// Index of the microbatch that scored this job — the sequence the
    /// `panic@batcher:K` / `err@predict:K` faults count in. Jobs that
    /// rode in one microbatch share it.
    pub batch: u64,
    /// Microseconds from [`Batcher::submit`] until a worker popped this
    /// job's microbatch (the `serve.queue_wait_us` observation).
    pub queue_wait_us: u64,
    /// Microseconds of the predict pass that scored this job's
    /// microbatch (the `serve.predict_us` observation; shared by every
    /// job of the batch).
    pub predict_us: u64,
}

/// Why a job that was *admitted* could not be scored. These map onto
/// typed HTTP 500s — an accepted request always gets exactly one
/// response, even when the worker underneath it died.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeFailure {
    /// The batch worker panicked while scoring this job's microbatch.
    /// The payload is the panic message; the worker restarts under
    /// supervision.
    WorkerPanic(String),
    /// The predict pass failed with a typed error (today only injected
    /// via `err@predict` fault plans); the worker survives.
    PredictError(String),
}

impl ServeFailure {
    /// Machine-readable error code for the JSON error body.
    pub fn code(&self) -> &'static str {
        match self {
            ServeFailure::WorkerPanic(_) => "worker_panic",
            ServeFailure::PredictError(_) => "predict_error",
        }
    }

    /// Human-readable description.
    pub fn message(&self) -> String {
        match self {
            ServeFailure::WorkerPanic(m) => {
                format!("batch worker panicked while scoring this request: {m}")
            }
            ServeFailure::PredictError(m) => format!("predict pass failed: {m}"),
        }
    }
}

/// How one supervised worker loop ended — consumed by the supervisor.
#[derive(Debug)]
pub enum WorkerExit {
    /// The batcher is draining and the queue ran dry: normal shutdown.
    Drained,
    /// The worker panicked mid-batch. In-flight waiters of that batch
    /// were already failed with typed errors; the supervisor decides
    /// whether and when to restart.
    Panicked {
        /// The panic message.
        message: String,
        /// Batches successfully scored since this worker (re)started —
        /// lets the supervisor reset its backoff after a healthy stretch.
        batches_done: u64,
    },
}

/// The completion slot a submitter blocks on.
#[derive(Debug, Default)]
pub struct Waiter {
    slot: Mutex<Option<Result<Scored, ServeFailure>>>,
    done: Condvar,
}

impl Waiter {
    /// Block until the worker fills in this job's outcome: the scored
    /// probabilities, or the typed failure that hit its microbatch.
    pub fn wait(&self) -> Result<Scored, ServeFailure> {
        let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(out) = slot.take() {
                return out;
            }
            slot = self.done.wait(slot).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn fill(&self, out: Result<Scored, ServeFailure>) {
        let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        *slot = Some(out);
        self.done.notify_all();
    }
}

struct Job {
    pairs: Vec<RecordPair>,
    waiter: Arc<Waiter>,
    enqueued: Instant,
}

struct State {
    queue: VecDeque<Job>,
    queued_pairs: usize,
    draining: bool,
}

/// The batcher's fixed-name metric handles, resolved once in
/// [`Batcher::new`] so the request path never takes the registry lock.
struct Meters {
    queue_depth: &'static obs::Gauge,
    batch_pairs: &'static obs::Histogram,
    batch_failures: &'static obs::Counter,
    queue_wait_us: &'static obs::Histogram,
    predict_us: &'static obs::Histogram,
}

struct Inner {
    state: Mutex<State>,
    arrived: Condvar,
    max_batch: usize,
    max_queued_pairs: usize,
    meters: Meters,
    faults: ServeFaultPlan,
    breaker: CircuitBreaker,
    /// Global microbatch sequence number — the key the serve fault plan
    /// (`panic@batcher:K`, `err@predict:K`) is indexed by.
    batch_seq: AtomicU64,
}

/// The coalescing queue handle. Cheap to clone; all clones share one
/// queue, fault plan and breaker.
#[derive(Clone)]
pub struct Batcher {
    inner: Arc<Inner>,
}

impl Batcher {
    /// Build a batcher that groups up to `max_batch` pairs per predict
    /// call, admits at most `max_queued_pairs` queued pairs, injects
    /// `faults` into its workers, and refuses admission while `breaker`
    /// is open.
    pub fn new(
        max_batch: usize,
        max_queued_pairs: usize,
        faults: ServeFaultPlan,
        breaker: CircuitBreaker,
    ) -> Self {
        Self {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    queue: VecDeque::new(),
                    queued_pairs: 0,
                    draining: false,
                }),
                arrived: Condvar::new(),
                max_batch: max_batch.max(1),
                max_queued_pairs: max_queued_pairs.max(1),
                meters: Meters {
                    queue_depth: obs::gauge("serve.queue.depth"),
                    batch_pairs: obs::histogram("serve.batch_pairs", BATCH_PAIRS_BOUNDS),
                    batch_failures: obs::counter("serve.batch_failures"),
                    queue_wait_us: obs::histogram("serve.queue_wait_us", LATENCY_BOUNDS_US),
                    predict_us: obs::histogram("serve.predict_us", LATENCY_BOUNDS_US),
                },
                faults,
                breaker,
                batch_seq: AtomicU64::new(0),
            }),
        }
    }

    /// Enqueue one job (any number of pairs ≥ 1) for the next
    /// microbatch. Returns the waiter to block on, or the typed refusal.
    /// `route` labels the per-route rejection counters
    /// (`serve.rejected.<reason>.<route>`), so `/metrics` can tell
    /// overload rejections apart from drain rejections per endpoint.
    pub fn submit(
        &self,
        pairs: Vec<RecordPair>,
        route: &'static str,
    ) -> Result<Arc<Waiter>, Rejected> {
        if !self.inner.breaker.allow() {
            let secs = self
                .inner
                .breaker
                .retry_after()
                .as_secs_f64()
                .ceil()
                .max(1.0) as u64;
            obs::counter(&format!("serve.rejected.breaker.{route}")).inc();
            return Err(Rejected::Unavailable {
                retry_after_secs: secs,
            });
        }
        let mut st = self.lock();
        if st.draining {
            obs::counter(&format!("serve.rejected.draining.{route}")).inc();
            return Err(Rejected::Draining);
        }
        if st.queued_pairs + pairs.len() > self.inner.max_queued_pairs {
            obs::counter(&format!("serve.rejected.overload.{route}")).inc();
            return Err(Rejected::Overloaded);
        }
        let waiter = Arc::new(Waiter::default());
        st.queued_pairs += pairs.len();
        st.queue.push_back(Job {
            pairs,
            waiter: Arc::clone(&waiter),
            enqueued: Instant::now(),
        });
        let depth = st.queued_pairs;
        drop(st);
        self.inner.meters.queue_depth.set(depth as f64);
        // one job needs one worker; a busy worker re-checks the queue
        // before it waits again, so no job can be missed
        self.inner.arrived.notify_one();
        Ok(waiter)
    }

    /// Stop admitting work. Already-queued jobs will still be processed;
    /// worker loops exit once the queue runs dry.
    pub fn shutdown(&self) {
        self.lock().draining = true;
        self.inner.arrived.notify_all();
    }

    /// Whether [`shutdown`](Self::shutdown) has been called (used by the
    /// supervisor to cut restart backoff short during a drain).
    pub fn is_draining(&self) -> bool {
        self.lock().draining
    }

    /// Pairs currently queued (for tests and capacity introspection).
    pub fn queued_pairs(&self) -> usize {
        self.lock().queued_pairs
    }

    /// The shared circuit breaker (admission + supervisor wiring).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.inner.breaker
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.inner.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// One supervised worker loop: pull microbatches, snapshot the model
    /// cell once per batch, score, scatter. Returns [`WorkerExit::Drained`]
    /// when the batcher is draining *and* the queue is empty — never
    /// abandoning an admitted job — or [`WorkerExit::Panicked`] after a
    /// panic, with that batch's waiters already failed with typed errors.
    ///
    /// Call from a supervisor ([`crate::supervisor::spawn_workers`]) or
    /// directly from a dedicated thread in tests.
    pub fn run_supervised(&self, cell: &HostCell) -> WorkerExit {
        let mut batches_done: u64 = 0;
        loop {
            let batch = match self.next_batch() {
                Some(b) => b,
                None => return WorkerExit::Drained,
            };
            let popped = Instant::now();
            let meters = &self.inner.meters;
            let waits: Vec<u64> = batch
                .iter()
                .map(|j| micros(popped.duration_since(j.enqueued)))
                .collect();
            for &w in &waits {
                meters.queue_wait_us.observe(w as f64);
            }
            let batch_idx = self.inner.batch_seq.fetch_add(1, Ordering::SeqCst);
            // one snapshot per microbatch: the hot-swap atomicity unit
            let snap = cell.snapshot();
            let n_pairs: usize = batch.iter().map(|j| j.pairs.len()).sum();
            meters.batch_pairs.observe(n_pairs as f64);
            // an injected slow embed stands in for a slow encode, so it
            // counts as predict time
            let predict_start = Instant::now();
            if let Some(ms) = self.inner.faults.slow_embed_ms() {
                std::thread::sleep(Duration::from_millis(ms));
            }
            let outcome: Result<Vec<f32>, ServeFailure> = if self.inner.faults.errs_at(batch_idx) {
                Err(ServeFailure::PredictError(
                    "injected fault: err@predict".into(),
                ))
            } else {
                let faults = &self.inner.faults;
                let host = &snap.host;
                let all: Vec<RecordPair> =
                    batch.iter().flat_map(|j| j.pairs.iter().cloned()).collect();
                par::catch_panic(move || {
                    if faults.panics_at(batch_idx) {
                        // marker prefix keeps test logs readable via
                        // automl::fault::silence_injected_panic_output
                        panic!("injected fault: panic@batcher (microbatch {batch_idx})");
                    }
                    host.match_proba(&all)
                })
                .map_err(ServeFailure::WorkerPanic)
            };
            match outcome {
                Ok(probs) => {
                    let predict_us = micros(predict_start.elapsed());
                    meters.predict_us.observe(predict_us as f64);
                    let threshold = snap.host.threshold();
                    let mut off = 0;
                    for (job, queue_wait_us) in batch.into_iter().zip(waits) {
                        let take = job.pairs.len();
                        job.waiter.fill(Ok(Scored {
                            probs: probs[off..off + take].to_vec(),
                            version: snap.version,
                            threshold,
                            batch: batch_idx,
                            queue_wait_us,
                            predict_us,
                        }));
                        off += take;
                    }
                    batches_done += 1;
                    // closes a half-open breaker; no-op when closed
                    self.inner.breaker.record_success();
                }
                Err(failure) => {
                    meters.batch_failures.inc();
                    for job in &batch {
                        job.waiter.fill(Err(failure.clone()));
                    }
                    if let ServeFailure::WorkerPanic(message) = failure {
                        return WorkerExit::Panicked {
                            message,
                            batches_done,
                        };
                    }
                }
            }
        }
    }

    /// Block until the queue holds work, then pop it: whole jobs up to
    /// `max_batch` pairs — always at least one job, even one that alone
    /// exceeds `max_batch`. `None` means drained + empty. There is no
    /// timed wait: a free worker takes whatever is there.
    fn next_batch(&self) -> Option<Vec<Job>> {
        let mut st = self.lock();
        while st.queue.is_empty() {
            if st.draining {
                return None;
            }
            st = self
                .inner
                .arrived
                .wait(st)
                .unwrap_or_else(|p| p.into_inner());
        }
        let mut batch = Vec::new();
        let mut pairs = 0usize;
        while let Some(job) = st.queue.front() {
            if !batch.is_empty() && pairs + job.pairs.len() > self.inner.max_batch {
                break;
            }
            pairs += job.pairs.len();
            batch.extend(st.queue.pop_front());
        }
        st.queued_pairs -= pairs;
        let depth = st.queued_pairs;
        drop(st);
        self.inner.meters.queue_depth.set(depth as f64);
        Some(batch)
    }
}

fn micros(d: Duration) -> u64 {
    d.as_micros() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::model::{ModelHost, ModelSpec};
    use em_data::Split;
    use std::thread;

    fn tiny_host() -> ModelHost {
        ModelSpec {
            scale: 0.25,
            budget_hours: 0.1,
            ..ModelSpec::fixture()
        }
        .train()
        .unwrap()
    }

    fn plain_batcher(max_batch: usize, queue: usize) -> Batcher {
        Batcher::new(
            max_batch,
            queue,
            ServeFaultPlan::none(),
            CircuitBreaker::new(1000, Duration::from_secs(60), Duration::from_millis(50)),
        )
    }

    #[test]
    fn coalesced_probs_match_direct_predict() {
        let host = tiny_host();
        let pairs: Vec<RecordPair> = host.dataset().split(Split::Test).to_vec();
        let direct = host.match_proba(&pairs);
        let threshold = host.threshold();
        let cell = HostCell::new(Arc::new(host), 1);
        let batcher = plain_batcher(8, 1024);
        thread::scope(|s| {
            let worker = {
                let b = batcher.clone();
                let c = Arc::clone(&cell);
                s.spawn(move || b.run_supervised(&c))
            };
            let waiters: Vec<_> = pairs
                .iter()
                .map(|p| batcher.submit(vec![p.clone()], "match").unwrap())
                .collect();
            for (i, w) in waiters.iter().enumerate() {
                let got = w.wait().expect("scored");
                assert_eq!(got.probs.len(), 1);
                assert_eq!(got.probs[0].to_bits(), direct[i].to_bits(), "pair {i}");
                assert_eq!(got.version, 1);
                assert_eq!(got.threshold.to_bits(), threshold.to_bits());
            }
            batcher.shutdown();
            assert!(matches!(worker.join().unwrap(), WorkerExit::Drained));
        });
    }

    #[test]
    fn jobs_queued_behind_a_busy_worker_coalesce_into_one_batch() {
        let host = tiny_host();
        let pairs: Vec<RecordPair> = host.dataset().split(Split::Test)[..6].to_vec();
        let direct = host.match_proba(&pairs);
        let cell = HostCell::new(Arc::new(host), 1);
        // every microbatch sleeps 200 ms before its predict pass, which
        // holds the only worker on job A while the next five jobs queue
        let batcher = Batcher::new(
            8,
            1024,
            ServeFaultPlan::none().slow_embed(200),
            CircuitBreaker::new(1000, Duration::from_secs(60), Duration::from_millis(50)),
        );
        thread::scope(|s| {
            let worker = {
                let b = batcher.clone();
                let c = Arc::clone(&cell);
                s.spawn(move || b.run_supervised(&c))
            };
            let a = batcher.submit(vec![pairs[0].clone()], "match").unwrap();
            // an empty queue means the worker has popped A
            while batcher.queued_pairs() > 0 {
                thread::sleep(Duration::from_millis(1));
            }
            let rest: Vec<_> = pairs[1..]
                .iter()
                .map(|p| batcher.submit(vec![p.clone()], "match").unwrap())
                .collect();
            let a = a.wait().expect("A scored");
            assert_eq!(a.batch, 0);
            assert_eq!(a.probs[0].to_bits(), direct[0].to_bits());
            // the injected slow embed counts as predict time
            assert!(a.predict_us >= 200_000, "{}", a.predict_us);
            for (i, w) in rest.iter().enumerate() {
                let got = w.wait().expect("scored");
                assert_eq!(got.batch, 1, "job {} rode in the next microbatch", i + 1);
                assert_eq!(got.probs[0].to_bits(), direct[i + 1].to_bits());
                assert!(got.predict_us >= 200_000, "{}", got.predict_us);
            }
            batcher.shutdown();
            assert!(matches!(worker.join().unwrap(), WorkerExit::Drained));
        });
    }

    #[test]
    fn overload_and_drain_reject_with_typed_errors() {
        let host = tiny_host();
        let pair = host.dataset().split(Split::Test)[0].clone();
        let batcher = plain_batcher(4, 2);
        // no worker running: fill the queue
        let _w1 = batcher.submit(vec![pair.clone()], "match").unwrap();
        let _w2 = batcher.submit(vec![pair.clone()], "match").unwrap();
        assert!(matches!(
            batcher.submit(vec![pair.clone()], "match"),
            Err(Rejected::Overloaded)
        ));
        batcher.shutdown();
        assert!(matches!(
            batcher.submit(vec![pair], "match"),
            Err(Rejected::Draining)
        ));
    }

    #[test]
    fn open_breaker_rejects_with_retry_after() {
        let host = tiny_host();
        let pair = host.dataset().split(Split::Test)[0].clone();
        let batcher = Batcher::new(
            4,
            1024,
            ServeFaultPlan::none(),
            CircuitBreaker::new(1, Duration::from_secs(60), Duration::from_secs(30)),
        );
        batcher.breaker().record_failure(); // trips immediately
        match batcher.submit(vec![pair], "match") {
            Err(Rejected::Unavailable { retry_after_secs }) => {
                assert!((1..=30).contains(&retry_after_secs));
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
    }

    #[test]
    fn shutdown_drains_every_admitted_job() {
        let host = tiny_host();
        let pairs: Vec<RecordPair> = host.dataset().split(Split::Test)[..6].to_vec();
        let cell = HostCell::new(Arc::new(host), 1);
        let batcher = plain_batcher(4, 1024);
        // queue everything BEFORE any worker exists, then shut down and
        // only then start the worker: all jobs must still be answered
        let waiters: Vec<_> = pairs
            .iter()
            .map(|p| batcher.submit(vec![p.clone()], "match").unwrap())
            .collect();
        batcher.shutdown();
        thread::scope(|s| {
            let b = batcher.clone();
            let c = Arc::clone(&cell);
            let worker = s.spawn(move || b.run_supervised(&c));
            for w in &waiters {
                assert_eq!(w.wait().expect("scored").probs.len(), 1);
            }
            assert!(matches!(worker.join().unwrap(), WorkerExit::Drained));
        });
        assert_eq!(batcher.queued_pairs(), 0);
    }

    #[test]
    fn injected_panic_fails_inflight_jobs_and_reports_exit() {
        automl::fault::silence_injected_panic_output();
        let host = tiny_host();
        let pairs = host.dataset().split(Split::Test).to_vec();
        let cell = HostCell::new(Arc::new(host), 1);
        let batcher = Batcher::new(
            8,
            1024,
            ServeFaultPlan::none().panic_batcher_at(0),
            CircuitBreaker::new(1000, Duration::from_secs(60), Duration::from_millis(50)),
        );
        let w = batcher.submit(vec![pairs[0].clone()], "match").unwrap();
        let exit = batcher.run_supervised(&cell); // processes batch 0, panics
        match exit {
            WorkerExit::Panicked {
                message,
                batches_done,
            } => {
                assert!(message.contains("panic@batcher"), "{message}");
                assert_eq!(batches_done, 0);
            }
            other => panic!("expected panic exit, got {other:?}"),
        }
        match w.wait() {
            Err(ServeFailure::WorkerPanic(m)) => assert!(m.contains("panic@batcher"), "{m}"),
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        // the next batch (index 1) scores normally on a fresh worker run
        let w2 = batcher.submit(vec![pairs[1].clone()], "match").unwrap();
        batcher.shutdown();
        assert!(matches!(batcher.run_supervised(&cell), WorkerExit::Drained));
        assert!(w2.wait().is_ok());
    }

    #[test]
    fn injected_predict_error_is_typed_and_worker_survives() {
        let host = tiny_host();
        let pairs = host.dataset().split(Split::Test).to_vec();
        let cell = HostCell::new(Arc::new(host), 1);
        let batcher = Batcher::new(
            8,
            1024,
            ServeFaultPlan::none().err_predict_at(0),
            CircuitBreaker::new(1000, Duration::from_secs(60), Duration::from_millis(50)),
        );
        let w0 = batcher.submit(vec![pairs[0].clone()], "match").unwrap();
        thread::scope(|s| {
            let b = batcher.clone();
            let c = Arc::clone(&cell);
            let worker = s.spawn(move || b.run_supervised(&c));
            match w0.wait() {
                Err(ServeFailure::PredictError(m)) => assert!(m.contains("err@predict"), "{m}"),
                other => panic!("expected PredictError, got {other:?}"),
            }
            // same worker, no restart needed: the very next job succeeds
            let w1 = batcher.submit(vec![pairs[1].clone()], "match").unwrap();
            assert!(w1.wait().is_ok());
            batcher.shutdown();
            assert!(matches!(worker.join().unwrap(), WorkerExit::Drained));
        });
    }
}
