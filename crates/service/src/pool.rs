//! A fixed-size worker pool over sharded, work-stealing job queues.
//!
//! Plain `std::thread` + `Mutex<VecDeque>` + `Condvar`; no external
//! dependencies. Each worker owns one queue shard: submissions
//! round-robin across shards, a worker serves its own shard first and
//! steals from siblings when it runs dry, so one slow job cannot
//! strand work queued behind it on the same shard. The *total* queue
//! bound is the service's back-pressure signal, enforced by one shared
//! counter: [`WorkerPool::submit`] never blocks — when the pool holds
//! `queue_capacity` waiting jobs it hands the job *back* to the caller,
//! which degrades to the greedy fallback instead of waiting. A job that
//! panics is caught and counted ([`WorkerPool::panics`]); its worker
//! keeps serving. Dropping
//! the pool shuts it down: queued jobs are discarded (their cache
//! reservations resolve as abandoned on drop) and workers are joined.

use crate::sync;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A unit of work for the pool.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// How long an idle worker sleeps between steal scans. A worker parks
/// on its *own* shard's condvar, so a job submitted to a sibling shard
/// while it sleeps is only discovered on wake-up; the timeout bounds
/// that discovery latency without a global wake broadcast per submit.
const STEAL_PARK: Duration = Duration::from_millis(10);

struct Shard {
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
}

struct Shared {
    shards: Vec<Shard>,
    /// Jobs waiting across all shards (not counting ones being run).
    /// This single counter is what enforces `queue_capacity` exactly,
    /// whatever shard the jobs landed on.
    queued: AtomicUsize,
    capacity: usize,
    shutdown: AtomicBool,
    steals: AtomicU64,
    panics: AtomicU64,
}

/// Fixed-size thread pool with bounded, non-blocking submission and
/// per-worker queue shards balanced by work stealing.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    next: AtomicUsize,
}

impl WorkerPool {
    /// Spawn `workers` threads, each owning one queue shard, together
    /// holding at most `queue_capacity` waiting jobs (0 is allowed:
    /// every submission beyond the workers' immediate grab is
    /// rejected).
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn new(workers: usize, queue_capacity: usize) -> WorkerPool {
        assert!(workers >= 1, "a worker pool needs at least one thread");
        let shared = Arc::new(Shared {
            shards: (0..workers)
                .map(|_| Shard { jobs: Mutex::new(VecDeque::new()), available: Condvar::new() })
                .collect(),
            queued: AtomicUsize::new(0),
            capacity: queue_capacity,
            shutdown: AtomicBool::new(false),
            steals: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("blitz-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .unwrap_or_else(|e| panic!("spawning blitz-worker-{i}: {e}"))
            })
            .collect();
        WorkerPool { shared, workers: handles, next: AtomicUsize::new(0) }
    }

    /// Enqueue `job`, or return it unchanged when the pool already
    /// holds `queue_capacity` waiting jobs (or is shutting down). Never
    /// blocks.
    pub fn submit(&self, job: Job) -> Result<(), Job> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(job);
        }
        // Reserve a queue slot against the shared bound first; only a
        // successful reservation touches a shard lock.
        let mut queued = self.shared.queued.load(Ordering::Relaxed);
        loop {
            if queued >= self.shared.capacity {
                return Err(job);
            }
            match self.shared.queued.compare_exchange_weak(
                queued,
                queued + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => queued = seen,
            }
        }
        let idx = self.next.fetch_add(1, Ordering::Relaxed) % self.shared.shards.len();
        let shard = &self.shared.shards[idx];
        sync::lock(&shard.jobs).push_back(job);
        shard.available.notify_one();
        Ok(())
    }

    /// Number of jobs currently waiting across all shards (not counting
    /// ones being run).
    pub fn depth(&self) -> usize {
        self.shared.queued.load(Ordering::Acquire)
    }

    /// Number of worker threads (= number of queue shards).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs taken from a sibling's shard rather than the worker's own —
    /// how often stealing actually rebalanced load.
    pub fn steals(&self) -> u64 {
        self.shared.steals.load(Ordering::Relaxed)
    }

    /// Jobs that panicked. Each panic is caught on the worker, which
    /// then goes on to the next job.
    pub fn panics(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }
}

/// Pop one job from `shard` without blocking.
fn pop(shard: &Shard) -> Option<Job> {
    sync::lock(&shard.jobs).pop_front()
}

fn worker_loop(shared: &Shared, me: usize) {
    let n = shared.shards.len();
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Own shard first, then a steal scan over the siblings.
        let mut job = pop(&shared.shards[me]);
        if job.is_none() {
            for k in 1..n {
                if let Some(stolen) = pop(&shared.shards[(me + k) % n]) {
                    shared.steals.fetch_add(1, Ordering::Relaxed);
                    job = Some(stolen);
                    break;
                }
            }
        }
        match job {
            Some(job) => {
                shared.queued.fetch_sub(1, Ordering::AcqRel);
                // A panicking job must not take its worker down with it:
                // the pool would shrink for good, and the shard the dead
                // worker owned would only be drained by steals. The
                // job's captured state unwinds as usual (a cache
                // reservation resolves as abandoned on drop).
                if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
                    shared.panics.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                // Nothing anywhere: park on the own-shard condvar. The
                // timeout (see [`STEAL_PARK`]) re-runs the steal scan
                // for work that landed on a sibling while parked.
                let guard = sync::lock(&shared.shards[me].jobs);
                if !guard.is_empty() || shared.shutdown.load(Ordering::Acquire) {
                    continue;
                }
                let _ = sync::wait_timeout(&shared.shards[me].available, guard, STEAL_PARK);
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for shard in &self.shared.shards {
            let discarded = {
                let mut jobs = sync::lock(&shard.jobs);
                let discarded = jobs.len();
                jobs.clear();
                discarded
            };
            self.shared.queued.fetch_sub(discarded, Ordering::AcqRel);
            shard.available.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn runs_submitted_jobs() {
        let pool = WorkerPool::new(2, 16);
        let ran = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..8 {
            let ran = Arc::clone(&ran);
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            }))
            .ok()
            .unwrap();
        }
        for _ in 0..8 {
            rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        }
        assert_eq!(ran.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn zero_capacity_rejects_while_worker_is_busy() {
        let pool = WorkerPool::new(1, 0);
        // Even an idle pool rejects: submit only succeeds by queueing,
        // and the queue holds nothing.
        let rejected = pool.submit(Box::new(|| {}));
        assert!(rejected.is_err());
    }

    #[test]
    fn bounded_queue_hands_job_back() {
        let pool = WorkerPool::new(1, 1);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        // Occupy the single worker indefinitely.
        pool.submit(Box::new(move || {
            let _ = block_rx.recv();
        }))
        .ok();
        // Eventually the worker has taken the blocker and one more job
        // fits in the queue; the next one after that must bounce.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut queued = false;
        while std::time::Instant::now() < deadline {
            if pool.submit(Box::new(|| {})).is_ok() {
                queued = true;
                break;
            }
            std::thread::yield_now();
        }
        assert!(queued, "queue slot never freed");
        // Queue now holds 1 job (the worker is still blocked) — full.
        assert!(pool.submit(Box::new(|| {})).is_err());
        block_tx.send(()).unwrap();
    }

    /// The rebalancing contract: with one worker pinned by a slow job,
    /// jobs round-robined onto *its* shard must still run — the idle
    /// sibling steals them.
    #[test]
    fn idle_worker_steals_from_busy_sibling() {
        let pool = WorkerPool::new(2, 16);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.submit(Box::new(move || {
            started_tx.send(()).unwrap();
            let _ = block_rx.recv();
        }))
        .ok()
        .unwrap();
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        // Four quick jobs round-robin across both shards — two of them
        // land behind the blocked worker and can only run by theft.
        let (done_tx, done_rx) = mpsc::channel();
        for _ in 0..4 {
            let done_tx = done_tx.clone();
            pool.submit(Box::new(move || done_tx.send(()).unwrap())).ok().unwrap();
        }
        for _ in 0..4 {
            done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert!(pool.steals() >= 1, "no steals despite a pinned sibling");
        assert_eq!(pool.depth(), 0);
        block_tx.send(()).unwrap();
    }

    /// A panicking job is counted and its worker survives to run the
    /// next one — on a one-worker pool nothing else could run it.
    #[test]
    fn worker_survives_a_panicking_job() {
        let pool = WorkerPool::new(1, 4);
        pool.submit(Box::new(|| panic!("seeded job panic"))).ok().unwrap();
        let (tx, rx) = mpsc::channel();
        pool.submit(Box::new(move || tx.send(()).unwrap())).ok().unwrap();
        rx.recv_timeout(Duration::from_secs(5)).expect("worker died with the panicking job");
        assert_eq!(pool.panics(), 1);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(3, 8);
        pool.submit(Box::new(|| {})).ok();
        drop(pool); // must not hang
    }
}
