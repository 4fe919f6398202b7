//! The workspace's thread executors: [`run_tiles`], the one compute
//! executor, and [`WorkerPool`], the serving tier's bounded
//! admission queue.
//!
//! * [`run_tiles`] fans a computation's tiles out over scoped threads
//!   with a work-stealing cursor, a cancellation check before every
//!   tile claim and results in tile order. The exact kernel's passes,
//!   the ANN forest build and scoring, and the noise engines' trial
//!   blocks all run on it, so their outputs are identical at every
//!   thread count. Tiles borrow the caller's data, and a compute call
//!   never waits on a queue another call could be holding.
//! * [`WorkerPool`] is a persistent pool of worker threads behind an
//!   earliest-deadline-first queue. Bounded submissions
//!   ([`WorkerPool::try_submit_with_deadline`]) give the serving layer
//!   its 503-style backpressure; each request job runs its compute
//!   through [`run_tiles`], never through the pool.
//!
//! This is a dependency-free leaf crate (apart from `hammer_obs`), so
//! `hammer_core` and `hammer_sim` share the executor without pulling in
//! each other. `hammer_sim`'s gate passes are serial; its only
//! parallelism is trial blocks on [`run_tiles`]. The reference oracle's
//! parallel scoring stays on plain `std::thread::scope`, because it
//! splits `&mut` output slices, not tiles.

use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

pub mod cancel;
mod tiles;

pub use cancel::{CancelToken, Cancelled};
pub use tiles::run_tiles;

/// A queued unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// One queued job with its scheduling rank: earliest deadline first,
/// undeadlined jobs after every deadlined one, FIFO (by admission
/// sequence) within a tie. The rank orders *dequeue*, so a mixed-budget
/// storm spends workers on the requests that can still make their
/// deadlines and lets already-doomed ones reach the dequeue-time shed
/// check before burning compute.
struct QueuedJob {
    deadline: Option<Instant>,
    seq: u64,
    /// When the job was admitted — observed at pop into the global
    /// `pool.queue_wait_ns` histogram so EDF queueing delay is visible.
    enqueued: Instant,
    job: Job,
}

impl QueuedJob {
    /// `BinaryHeap` pops the maximum, so "runs sooner" must compare
    /// `Greater`: earlier deadlines and earlier sequence numbers rank
    /// above later ones, and any deadline ranks above none.
    fn rank(&self, other: &Self) -> std::cmp::Ordering {
        match (self.deadline, other.deadline) {
            (Some(a), Some(b)) => b.cmp(&a),
            (Some(_), None) => std::cmp::Ordering::Greater,
            (None, Some(_)) => std::cmp::Ordering::Less,
            (None, None) => std::cmp::Ordering::Equal,
        }
        .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for QueuedJob {}
impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank(other)
    }
}

/// State behind the pool's mutex: the job queue and the shutdown latch.
struct QueueState {
    jobs: BinaryHeap<QueuedJob>,
    /// Admission counter: the FIFO tiebreaker within equal deadlines
    /// (and the whole order for undeadlined jobs).
    seq: u64,
    shutdown: bool,
}

impl QueueState {
    fn push(&mut self, deadline: Option<Instant>, job: Job) {
        let seq = self.seq;
        self.seq += 1;
        self.jobs.push(QueuedJob {
            deadline,
            seq,
            enqueued: Instant::now(),
            job,
        });
    }
}

/// Everything the worker threads share.
struct Shared {
    state: Mutex<QueueState>,
    /// Signaled when a job is queued or shutdown begins.
    wake: Condvar,
    /// Jobs whose closure panicked (the worker survives; the count is
    /// surfaced so callers can notice silently failing fire-and-forget
    /// jobs).
    panics: AtomicU64,
}

/// A persistent pool of worker threads executing boxed jobs.
///
/// * [`try_submit_with_deadline`](WorkerPool::try_submit_with_deadline)
///   — bounded, refusing instead of blocking when the queue is at the
///   configured limit (the serving layer's backpressure primitive);
/// * [`queued_jobs`](WorkerPool::queued_jobs) — the waiting depth
///   behind the `serve.queue.depth` gauge;
/// * [`begin_shutdown`](WorkerPool::begin_shutdown) — refuse new jobs
///   while the queue drains.
///
/// Dropping the pool drains every queued job, then joins the workers.
///
/// # Example
///
/// ```
/// use hammer_pool::WorkerPool;
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let sum = Arc::new(AtomicU64::new(0));
/// let pool = WorkerPool::with_queue_limit(2, 16);
/// for i in 0u64..8 {
///     let sum = Arc::clone(&sum);
///     let job = move || { sum.fetch_add(i * i, Ordering::Relaxed); };
///     assert!(pool.try_submit_with_deadline(None, job).is_ok());
/// }
/// drop(pool); // drains the queue, then joins the workers
/// assert_eq!(sum.load(Ordering::Relaxed), 140);
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    queue_limit: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.workers.len())
            .field("queue_limit", &self.queue_limit)
            .field("panics", &self.panicked_jobs())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool whose
    /// [`try_submit_with_deadline`](WorkerPool::try_submit_with_deadline)
    /// refuses once `queue_limit` jobs are waiting (jobs already
    /// *running* on workers do not count against the limit).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_queue_limit(threads: usize, queue_limit: usize) -> Self {
        assert!(threads >= 1, "need at least one worker thread");
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                jobs: BinaryHeap::new(),
                seq: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            panics: AtomicU64::new(0),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hammer-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("worker thread spawns")
            })
            .collect();
        Self {
            shared,
            workers,
            queue_limit,
        }
    }

    /// Number of jobs whose closure panicked (workers survive panics).
    #[must_use]
    pub fn panicked_jobs(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Number of jobs currently waiting in the queue (not counting jobs
    /// already running on workers). Feeds the serving layer's
    /// `serve.queue.depth` gauge.
    #[must_use]
    pub fn queued_jobs(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("pool mutex unpoisoned")
            .jobs
            .len()
    }

    /// Flips the shutdown latch without joining the workers: queued
    /// jobs still drain, but every later
    /// [`try_submit_with_deadline`](WorkerPool::try_submit_with_deadline)
    /// is refused. Lets a server reject late arrivals with `Busy` during
    /// its drain window instead of queueing work that will never be
    /// answered.
    pub fn begin_shutdown(&self) {
        let mut state = self.shared.state.lock().expect("pool mutex unpoisoned");
        state.shutdown = true;
        drop(state);
        self.shared.wake.notify_all();
    }

    /// Enqueues a job unless `queue_limit` jobs are already waiting —
    /// or shutdown has begun — in which case the job is handed back;
    /// the caller decides what "busy" means (the serving layer replies
    /// 503-style `Busy`). The shutdown check closes a hang: a job
    /// accepted after the workers decided to exit would sit in the
    /// queue forever.
    ///
    /// Queued jobs dequeue earliest-deadline-first, with undeadlined
    /// jobs (FIFO among themselves) after every deadlined one. The
    /// deadline orders the queue only — enforcing it is the job's own
    /// business (the serving layer checks its cancel token at dequeue
    /// and sheds expired work without computing).
    ///
    /// # Errors
    ///
    /// Returns `Err(job)` when the queue is full or the pool is
    /// shutting down.
    pub fn try_submit_with_deadline<F: FnOnce() + Send + 'static>(
        &self,
        deadline: Option<Instant>,
        job: F,
    ) -> Result<(), F> {
        let mut state = self.shared.state.lock().expect("pool mutex unpoisoned");
        if state.shutdown || state.jobs.len() >= self.queue_limit {
            return Err(job);
        }
        state.push(deadline, Box::new(job));
        drop(state);
        self.shared.wake.notify_one();
        Ok(())
    }
}

/// Renders a panic payload for error reporting.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool mutex unpoisoned");
            state.shutdown = true;
        }
        self.shared.wake.notify_all();
        for handle in self.workers.drain(..) {
            // Worker bodies catch job panics, so join only fails if the
            // loop itself panicked; propagate that.
            handle.join().expect("pool worker does not panic");
        }
    }
}

/// The process-wide EDF queue-wait histogram: admission-to-dequeue
/// latency across every pool in the process, on the global registry so
/// the serving tier's `MetricsSnapshot` opcode exposes it.
fn queue_wait_hist() -> &'static hammer_obs::Histogram {
    static H: std::sync::OnceLock<hammer_obs::Histogram> = std::sync::OnceLock::new();
    H.get_or_init(|| hammer_obs::Registry::global().histogram("pool.queue_wait_ns"))
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// The worker body: pop-run until shutdown *and* the queue is drained
/// (graceful shutdown finishes queued work instead of dropping it).
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool mutex unpoisoned");
            loop {
                if let Some(queued) = state.jobs.pop() {
                    queue_wait_hist().record(elapsed_ns(queued.enqueued));
                    break queued.job;
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .wake
                    .wait(state)
                    .expect("pool mutex unpoisoned while waiting");
            }
        };
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            shared.panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn more_jobs_than_threads_all_complete() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::with_queue_limit(2, usize::MAX);
            for _ in 0..64 {
                let counter = Arc::clone(&counter);
                assert!(pool
                    .try_submit_with_deadline(None, move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                    })
                    .is_ok());
            }
        }
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn try_submit_refuses_beyond_the_queue_limit() {
        // One worker, parked on a gate, so queued jobs pile up
        // deterministically.
        let pool = WorkerPool::with_queue_limit(1, 2);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        {
            let gate = Arc::clone(&gate);
            assert!(pool
                .try_submit_with_deadline(None, move || {
                    let (lock, cv) = &*gate;
                    let mut open = lock.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                })
                .is_ok());
        }
        // Wait until the worker has *dequeued* the blocker.
        loop {
            let queued = pool.shared.state.lock().unwrap().jobs.len();
            if queued == 0 {
                break;
            }
            std::thread::yield_now();
        }
        assert!(pool.try_submit_with_deadline(None, || {}).is_ok());
        assert!(pool.try_submit_with_deadline(None, || {}).is_ok());
        // Queue now holds 2 waiting jobs = the limit.
        assert!(pool.try_submit_with_deadline(None, || {}).is_err());
        // Open the gate; drop drains the rest.
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::with_queue_limit(1, usize::MAX);
            for _ in 0..32 {
                let counter = Arc::clone(&counter);
                assert!(pool
                    .try_submit_with_deadline(None, move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                    })
                    .is_ok());
            }
        }
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn workers_survive_panicking_jobs() {
        let pool = WorkerPool::with_queue_limit(1, usize::MAX);
        assert!(pool
            .try_submit_with_deadline(None, || panic!("job panic"))
            .is_ok());
        // The same single worker must still run later jobs.
        let (tx, rx) = std::sync::mpsc::channel();
        assert!(pool
            .try_submit_with_deadline(None, move || tx.send(7u32).expect("receiver alive"))
            .is_ok());
        assert_eq!(rx.recv().expect("the worker survived"), 7);
        assert_eq!(pool.panicked_jobs(), 1);
    }

    #[test]
    fn try_submit_during_shutdown_is_refused_not_hung() {
        let pool = WorkerPool::with_queue_limit(1, usize::MAX);
        pool.begin_shutdown();
        let ran = Arc::new(AtomicUsize::new(0));
        let job = {
            let ran = Arc::clone(&ran);
            move || {
                ran.fetch_add(1, Ordering::Relaxed);
            }
        };
        // Refused immediately — before this check a post-shutdown job
        // would sit in the queue forever with the workers gone.
        assert!(pool.try_submit_with_deadline(None, job).is_err());
        drop(pool);
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn drop_drain_is_bounded_with_a_slow_job_in_flight() {
        let counter = Arc::new(AtomicUsize::new(0));
        let start = std::time::Instant::now();
        {
            let pool = WorkerPool::with_queue_limit(1, usize::MAX);
            let counter_slow = Arc::clone(&counter);
            assert!(pool
                .try_submit_with_deadline(None, move || {
                    std::thread::sleep(std::time::Duration::from_millis(150));
                    counter_slow.fetch_add(1, Ordering::Relaxed);
                })
                .is_ok());
            for _ in 0..8 {
                let counter = Arc::clone(&counter);
                assert!(pool
                    .try_submit_with_deadline(None, move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                    })
                    .is_ok());
            }
        }
        // Drop drained everything — including behind the slow job — and
        // came back within the slow job's duration plus slack, not a
        // deadlock-shaped forever.
        assert_eq!(counter.load(Ordering::Relaxed), 9);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "drain took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn deadlined_jobs_dequeue_earliest_deadline_first() {
        // One worker parked on a gate, so the queue order is decided
        // before anything runs: jobs submitted with out-of-order
        // deadlines must dequeue in deadline order, undeadlined jobs
        // FIFO after every deadlined one.
        let pool = WorkerPool::with_queue_limit(1, 16);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        {
            let gate = Arc::clone(&gate);
            assert!(pool
                .try_submit_with_deadline(None, move || {
                    let (lock, cv) = &*gate;
                    let mut open = lock.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                })
                .is_ok());
        }
        loop {
            if pool.queued_jobs() == 0 {
                break;
            }
            std::thread::yield_now();
        }
        let order = Arc::new(Mutex::new(Vec::new()));
        let now = Instant::now();
        let tag = |name: &'static str| {
            let order = Arc::clone(&order);
            move || order.lock().unwrap().push(name)
        };
        let ms = |n: u64| Some(now + std::time::Duration::from_millis(n));
        assert!(pool.try_submit_with_deadline(None, tag("none-1")).is_ok());
        assert!(pool.try_submit_with_deadline(ms(300), tag("late")).is_ok());
        assert!(pool.try_submit_with_deadline(ms(100), tag("early")).is_ok());
        assert!(pool.try_submit_with_deadline(ms(200), tag("mid")).is_ok());
        assert!(pool.try_submit_with_deadline(None, tag("none-2")).is_ok());
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        drop(pool); // drains the queue in dequeue order
        assert_eq!(
            *order.lock().unwrap(),
            vec!["early", "mid", "late", "none-1", "none-2"]
        );
    }

    #[test]
    fn queued_jobs_reports_waiting_depth() {
        let pool = WorkerPool::with_queue_limit(1, 8);
        assert_eq!(pool.queued_jobs(), 0);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        {
            let gate = Arc::clone(&gate);
            assert!(pool
                .try_submit_with_deadline(None, move || {
                    let (lock, cv) = &*gate;
                    let mut open = lock.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                })
                .is_ok());
        }
        loop {
            if pool.queued_jobs() == 0 {
                break;
            }
            std::thread::yield_now();
        }
        assert!(pool.try_submit_with_deadline(None, || {}).is_ok());
        assert!(pool.try_submit_with_deadline(None, || {}).is_ok());
        assert_eq!(pool.queued_jobs(), 2);
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }
}
