//! Loom models of the serving plane's concurrency-critical pieces.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (CI's static-analysis
//! lane) so the ordinary test run never pays for schedule exploration:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p ripki-serve --test loom_model
//! ```
//!
//! Three invariants are modelled:
//!
//! 1. **`SharedView` publish/read races** — a reader must never observe
//!    the epoch moving backwards, and every view it obtains must be
//!    internally consistent (snapshot epoch == results epoch, which
//!    `EpochView::new` asserts on construction).
//! 2. **`WorkerPool` shutdown** — every job the pool *accepted* has its
//!    completion pushed before `shutdown` returns; accepted work is
//!    never dropped.
//! 3. **Reactor↔worker handoff** — `CompletionQueue` pushes under the
//!    lock *before* waking, so a reactor that drains after every wake
//!    observes every completion exactly once; no schedule loses or
//!    duplicates a completion.
//!
//! The vendored `loom` is an offline stand-in (bounded randomized
//! stress, not exhaustive model checking — see `vendor/loom`), so these
//! tests explore hundreds of schedules per run rather than all of them.
#![cfg(loom)]

use loom::thread;
use ripki::engine::StudyEngine;
use ripki::exposure::ExposureConfig;
use ripki::pipeline::StudyResults;
use ripki_serve::http::parse_head;
use ripki_serve::pool::{Completion, CompletionQueue, Job, Wake, WorkerPool};
use ripki_serve::{EpochView, SharedView};
use ripki_websim::churn::{ChurnConfig, ChurnStream};
use ripki_websim::{Scenario, ScenarioConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Two consecutive epochs of a small measured world: (snapshot, results)
/// at epoch N and at epoch N+1. Built once — each model iteration only
/// re-wraps the Arcs in fresh `EpochView`s.
type EpochPair = (
    Arc<ripki::engine::WorldSnapshot>,
    Arc<StudyResults>,
    Arc<ripki::engine::WorldSnapshot>,
    Arc<StudyResults>,
);

fn two_epochs() -> EpochPair {
    let scenario = Scenario::build(ScenarioConfig {
        seed: 23,
        ..ScenarioConfig::with_domains(8)
    });
    let engine = StudyEngine::for_scenario(&scenario, 0);
    let mut results = engine.run(&scenario.ranking);
    let snap0 = engine.snapshot();
    let res0 = Arc::new(results.clone());

    let mut stream = ChurnStream::new(&scenario, ChurnConfig::default());
    let batch = stream.next_epoch();
    engine.apply_events(&batch, &mut results);
    let snap1 = engine.snapshot();
    assert!(
        snap1.epoch() > snap0.epoch(),
        "churn must advance the epoch"
    );
    (snap0, res0, snap1, Arc::new(results))
}

fn view_from(
    snapshot: &Arc<ripki::engine::WorldSnapshot>,
    results: &Arc<StudyResults>,
) -> EpochView {
    EpochView::new(
        Arc::clone(snapshot),
        Arc::clone(results),
        None,
        ExposureConfig::default(),
    )
}

#[test]
fn shared_view_readers_never_see_epochs_regress() {
    let (snap0, res0, snap1, res1) = two_epochs();
    let first = snap0.epoch();
    let last = snap1.epoch();
    loom::model(move || {
        let shared = Arc::new(SharedView::new(view_from(&snap0, &res0)));

        let readers: Vec<_> = (0..2)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || {
                    let mut seen = 0u64;
                    for _ in 0..4 {
                        let view = shared.current();
                        let epoch = view.epoch();
                        assert!(epoch >= seen, "epoch regressed: {seen} -> {epoch}");
                        // The constructor's assert makes a torn view
                        // unrepresentable; check it held anyway.
                        assert_eq!(view.snapshot().epoch(), view.results().epoch);
                        seen = epoch;
                    }
                    seen
                })
            })
            .collect();

        let writer = {
            let shared = Arc::clone(&shared);
            let snap1 = Arc::clone(&snap1);
            let res1 = Arc::clone(&res1);
            thread::spawn(move || shared.publish(view_from(&snap1, &res1)))
        };

        for reader in readers {
            let seen = reader.join().unwrap();
            assert!(
                seen == first || seen == last,
                "reader finished on unknown epoch {seen}"
            );
        }
        writer.join().unwrap();
        assert_eq!(
            shared.current().epoch(),
            last,
            "publish must win in the end"
        );
    });
}

/// A wake hook that only counts; the handoff model below uses a
/// stronger one that drains.
struct CountWake(AtomicUsize);
impl Wake for CountWake {
    fn wake(&self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

fn model_request() -> ripki_serve::http::Request {
    parse_head(b"GET /x HTTP/1.1\r\n\r\n")
        .expect("fixture head parses")
        .expect("fixture head is complete")
        .0
}

#[test]
fn worker_pool_shutdown_completes_every_accepted_job() {
    loom::model(|| {
        let completions = Arc::new(CompletionQueue::new(Box::new(CountWake(AtomicUsize::new(
            0,
        )))));
        let handler: ripki_serve::pool::Handler = Arc::new(|_req, keep| (b"ok".to_vec(), keep));
        let mut pool =
            WorkerPool::new(2, 2, handler, Arc::clone(&completions)).expect("spawn model pool");
        let mut accepted = 0usize;
        for i in 0..6u64 {
            if pool
                .execute(Job {
                    conn: i,
                    request: model_request(),
                    keep_alive: true,
                })
                .is_ok()
            {
                accepted += 1;
            }
        }
        // Queue capacity 2 alone guarantees the first two submissions
        // land even on the least cooperative schedule.
        assert!(accepted >= 2, "bounded queue accepted {accepted}");
        pool.shutdown();
        assert_eq!(
            completions.drain().len(),
            accepted,
            "accepted jobs must all complete before shutdown returns"
        );
    });
}

#[test]
fn completion_queue_handoff_loses_nothing() {
    loom::model(|| {
        // A model reactor: the wake flag is raised by workers; the
        // "reactor" thread drains whenever it sees the flag, clearing
        // it *before* draining (the same order the real loop uses:
        // drain the wake pipe, then the queue).
        struct FlagWake(Arc<std::sync::atomic::AtomicBool>);
        impl Wake for FlagWake {
            fn wake(&self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let queue = Arc::new(CompletionQueue::new(Box::new(FlagWake(Arc::clone(&flag)))));

        const PER_WORKER: u64 = 2;
        let workers: Vec<_> = (0..2u64)
            .map(|w| {
                let queue = Arc::clone(&queue);
                thread::spawn(move || {
                    for i in 0..PER_WORKER {
                        queue.push(Completion {
                            conn: w * PER_WORKER + i,
                            bytes: Vec::new(),
                            keep_alive: true,
                            latency: std::time::Duration::ZERO,
                        });
                    }
                })
            })
            .collect();

        let reactor = {
            let queue = Arc::clone(&queue);
            let flag = Arc::clone(&flag);
            thread::spawn(move || {
                let mut seen: Vec<u64> = Vec::new();
                // Bounded spin: each worker raises the flag after its
                // final push, so polling until all four land cannot
                // miss one (push happens-before wake).
                while seen.len() < 4 {
                    if flag.swap(false, Ordering::SeqCst) {
                        seen.extend(queue.drain().iter().map(|c| c.conn));
                    }
                    thread::yield_now();
                }
                seen
            })
        };

        for worker in workers {
            worker.join().unwrap();
        }
        let mut seen = reactor.join().unwrap();
        // Late drain after joins: exactly-once means nothing is left
        // over and nothing was duplicated.
        seen.extend(queue.drain().iter().map(|c| c.conn));
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3], "handoff lost or duplicated work");
    });
}
