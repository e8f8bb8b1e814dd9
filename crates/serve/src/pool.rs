//! The worker half of the event loop: a fixed thread set executing
//! request handlers off the reactor thread, handing serialised
//! responses back through a [`CompletionQueue`].
//!
//! The handoff is the concurrency-critical piece (modelled in the loom
//! lane): workers push completions under a mutex and then call the
//! [`Wake`] hook; the reactor drains the queue whenever it is woken.
//! Because the push happens *before* the wake, a reactor that drains
//! after every wake observes every completion exactly once — there is
//! no schedule in which a completion is pushed but no wake follows it.
//!
//! Jobs travel through a bounded channel, but unlike the old
//! thread-per-connection pool the bound is never the shedding
//! mechanism: the reactor's admission window (sized to the channel
//! capacity) is what limits dispatch, so `execute` failing is a
//! shutdown signal, not an overload signal — overload is shed at the
//! connection state machine with a `Connection: close` 503 instead.

use crate::http::Request;
use std::collections::VecDeque;
use std::io;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One dispatched request: which connection it came from and the
/// keep-alive verdict its response must be framed with.
pub struct Job {
    /// Reactor token of the owning connection.
    pub conn: u64,
    /// The parsed request.
    pub request: Request,
    /// Whether the response may keep the connection open.
    pub keep_alive: bool,
}

/// A finished request on its way back to the reactor.
pub struct Completion {
    /// Reactor token of the owning connection.
    pub conn: u64,
    /// The fully serialised response.
    pub bytes: Vec<u8>,
    /// Whether the connection may stay open (the handler may have
    /// downgraded a keep-alive wish, e.g. for close-delimited bodies).
    pub keep_alive: bool,
    /// Wall-clock handler latency, feeding the admission controller.
    pub latency: Duration,
}

/// How the reactor gets woken when a completion lands. In production
/// this writes a byte to the reactor's wake socket; the loom model
/// substitutes a flag.
pub trait Wake: Send + Sync {
    /// Nudge the reactor; must be safe to call from any thread and
    /// must never block.
    fn wake(&self);
}

/// The worker→reactor handoff: a mutex-guarded FIFO plus a wake hook.
pub struct CompletionQueue {
    queue: Mutex<VecDeque<Completion>>,
    waker: Box<dyn Wake>,
}

impl CompletionQueue {
    /// A fresh queue waking the reactor through `waker`.
    pub fn new(waker: Box<dyn Wake>) -> CompletionQueue {
        CompletionQueue {
            queue: Mutex::new(VecDeque::new()),
            waker,
        }
    }

    /// Push one completion and wake the reactor. Push-then-wake is the
    /// ordering the loom model checks: the wake may be spurious, but a
    /// completion without a following wake is impossible.
    pub fn push(&self, completion: Completion) {
        {
            let mut queue = self
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            queue.push_back(completion);
        }
        self.waker.wake();
    }

    /// Drain everything queued so far (reactor side).
    pub fn drain(&self) -> Vec<Completion> {
        let mut queue = self
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        queue.drain(..).collect()
    }
}

/// The request handler workers run: serialised response bytes plus the
/// final keep-alive verdict, given a request and the wish derived from
/// its framing.
pub type Handler = Arc<dyn Fn(&Request, bool) -> (Vec<u8>, bool) + Send + Sync>;

/// A fixed-size pool executing [`Job`]s and pushing [`Completion`]s.
pub struct WorkerPool {
    sender: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `workers` threads draining a queue of at most `capacity`
    /// pending jobs; each runs `handler` and pushes the result onto
    /// `completions`.
    ///
    /// Fails if the OS refuses to spawn a worker thread; threads spawned
    /// before the failure are shut down before the error is returned.
    pub fn new(
        workers: usize,
        capacity: usize,
        handler: Handler,
        completions: Arc<CompletionQueue>,
    ) -> io::Result<WorkerPool> {
        let workers = workers.max(1);
        let (sender, receiver) = sync_channel::<Job>(capacity.max(1));
        let receiver = Arc::new(Mutex::new(receiver));
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let receiver = Arc::clone(&receiver);
            let handler = Arc::clone(&handler);
            let completions = Arc::clone(&completions);
            let spawned = std::thread::Builder::new()
                .name(format!("ripki-serve-worker-{i}"))
                .spawn(move || worker_loop(receiver, handler, completions));
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    // Drop the sender so the partial pool drains and
                    // exits before we report the failure.
                    drop(sender);
                    for handle in handles {
                        let _ = handle.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(WorkerPool {
            sender: Some(sender),
            workers: handles,
        })
    }

    /// Submit a job without blocking. `Err` returns the job: either the
    /// channel is full (the admission window was sized past the channel
    /// capacity — a configuration bug, handled by shedding) or the pool
    /// is shutting down.
    pub fn execute(&self, job: Job) -> Result<(), Job> {
        let Some(sender) = &self.sender else {
            return Err(job);
        };
        sender.try_send(job).map_err(|e| match e {
            TrySendError::Full(job) | TrySendError::Disconnected(job) => job,
        })
    }

    /// Close the queue and wait for every worker to drain and exit.
    /// Every accepted job's completion is pushed before this returns.
    pub fn shutdown(&mut self) {
        self.sender.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(
    receiver: Arc<Mutex<Receiver<Job>>>,
    handler: Handler,
    completions: Arc<CompletionQueue>,
) {
    loop {
        let job = {
            // Handlers run *outside* this guard, so a panicking handler
            // cannot poison the lock; if `recv` itself ever panicked,
            // the channel is still structurally sound — recover and
            // keep the remaining workers alive.
            let guard = receiver
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            guard.recv()
        };
        match job {
            Ok(job) => {
                let started = Instant::now();
                let (bytes, keep_alive) = handler(&job.request, job.keep_alive);
                completions.push(Completion {
                    conn: job.conn,
                    bytes,
                    keep_alive,
                    latency: started.elapsed(),
                });
            }
            Err(_) => return, // all senders gone: shutdown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::parse_head;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct CountWake(AtomicUsize);
    impl Wake for CountWake {
        fn wake(&self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn request(path: &str) -> Request {
        let text = format!("GET {path} HTTP/1.1\r\n\r\n");
        parse_head(text.as_bytes()).unwrap().unwrap().0
    }

    fn echo_handler() -> Handler {
        Arc::new(|req: &Request, keep: bool| (req.path.clone().into_bytes(), keep))
    }

    #[test]
    fn jobs_produce_completions_with_a_wake_each() {
        let wakes = Arc::new(CompletionQueue::new(Box::new(CountWake(AtomicUsize::new(
            0,
        )))));
        let mut pool = WorkerPool::new(4, 16, echo_handler(), Arc::clone(&wakes)).expect("pool");
        for i in 0..32u64 {
            let mut job = Job {
                conn: i,
                request: request(&format!("/{i}")),
                keep_alive: true,
            };
            loop {
                match pool.execute(job) {
                    Ok(()) => break,
                    Err(returned) => {
                        job = returned;
                        std::thread::yield_now();
                    }
                }
            }
        }
        pool.shutdown();
        let done = wakes.drain();
        assert_eq!(done.len(), 32, "every accepted job completes");
        let mut conns: Vec<u64> = done.iter().map(|c| c.conn).collect();
        conns.sort_unstable();
        assert_eq!(conns, (0..32).collect::<Vec<_>>());
        for c in &done {
            assert_eq!(c.bytes, format!("/{}", c.conn).into_bytes());
        }
    }

    #[test]
    fn full_channel_rejects_and_returns_the_job() {
        // Zero workers is clamped to one; occupy it with a slow job.
        let completions = Arc::new(CompletionQueue::new(Box::new(CountWake(AtomicUsize::new(
            0,
        )))));
        let gate = Arc::new(std::sync::Barrier::new(2));
        let slow_gate = Arc::clone(&gate);
        let handler: Handler = Arc::new(move |req: &Request, keep: bool| {
            if req.path == "/slow" {
                slow_gate.wait();
            }
            (Vec::new(), keep)
        });
        let pool = WorkerPool::new(1, 1, handler, Arc::clone(&completions)).expect("pool");
        pool.execute(Job {
            conn: 0,
            request: request("/slow"),
            keep_alive: true,
        })
        .map_err(|_| ())
        .expect("worker slot free");
        // Give the worker a moment to pick the job up, then fill the
        // single queue slot and overflow it.
        std::thread::sleep(Duration::from_millis(20));
        let queued = pool.execute(Job {
            conn: 1,
            request: request("/q"),
            keep_alive: true,
        });
        assert!(queued.is_ok(), "queue slot free");
        let rejected = pool.execute(Job {
            conn: 2,
            request: request("/r"),
            keep_alive: true,
        });
        let returned = rejected.expect_err("full channel must reject");
        assert_eq!(returned.conn, 2, "caller keeps the rejected job");
        gate.wait();
    }
}
