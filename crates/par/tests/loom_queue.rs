//! Loom model of the work-stealing queue behind `run_indexed`.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (CI's static-analysis
//! lane), alongside the SharedView and ThreadPool models:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p ripki-par --test loom_queue
//! ```
//!
//! Three invariants are modelled:
//!
//! 1. **No lost work items** — the union of what concurrent workers pop
//!    is exactly the index set the queue was built with.
//! 2. **No double-commit** — no index is handed to two workers, even
//!    when several workers steal from the same stripe at once.
//! 3. **Shutdown drains the queue** — workers loop until `pop` returns
//!    `None`, and once every worker has exited, the queue is provably
//!    empty; this holds even when a worker dies early (its stripe is
//!    stolen by the survivors).
//!
//! The vendored `loom` is an offline stand-in (bounded randomized
//! stress, not exhaustive model checking — see `vendor/loom`), so these
//! tests explore hundreds of schedules per run rather than all of them.
#![cfg(loom)]

use loom::thread;
use ripki_par::WorkQueue;
use std::sync::Arc;

const ITEMS: usize = 9;
const WORKERS: usize = 3;

fn drain(queue: &WorkQueue, worker: usize) -> Vec<usize> {
    let mut got = Vec::new();
    while let Some(idx) = queue.pop(worker) {
        got.push(idx);
    }
    got
}

#[test]
fn concurrent_workers_pop_every_index_exactly_once() {
    loom::model(|| {
        let queue = Arc::new(WorkQueue::new(ITEMS, WORKERS));
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let queue = Arc::clone(&queue);
                thread::spawn(move || drain(&queue, w))
            })
            .collect();
        let mut all: Vec<usize> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        // Exactly once: sorted-equal to 0..ITEMS rules out both lost
        // items (missing index) and double-commit (duplicate index).
        assert_eq!(all, (0..ITEMS).collect::<Vec<_>>());
        // Every worker exited via `pop == None`, so the queue must be
        // drained for good — late arrivals see an empty queue too.
        assert_eq!(queue.pop(0), None, "queue must stay drained");
    });
}

#[test]
fn dead_worker_stripe_is_drained_by_survivors() {
    loom::model(|| {
        let queue = Arc::new(WorkQueue::new(ITEMS, WORKERS));
        // Worker 0 takes a single item and dies (models a panicked
        // worker whose thread is gone); its stripe must not strand work.
        let early = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || queue.pop(0).into_iter().collect::<Vec<_>>())
        };
        let survivors: Vec<_> = (1..WORKERS)
            .map(|w| {
                let queue = Arc::clone(&queue);
                thread::spawn(move || drain(&queue, w))
            })
            .collect();
        let mut all: Vec<usize> = early.join().unwrap();
        for h in survivors {
            all.extend(h.join().unwrap());
        }
        all.sort_unstable();
        assert_eq!(
            all,
            (0..ITEMS).collect::<Vec<_>>(),
            "survivors must steal the dead worker's stripe dry"
        );
    });
}
