//! Equivalence under concurrency: hammer `/api/v1/validity` from
//! several client threads while churn epochs are applied and published,
//! and assert that **every** response matches the engine's verdict for
//! the epoch stamped into that response.
//!
//! This is the serving plane's central contract made executable: a
//! response is never a mixture of epochs — whatever epoch it claims, its
//! verdict is exactly what that epoch's snapshot computes. The epoch
//! registry is filled *before* each publish, so any epoch a client can
//! observe is already verifiable.

use ripki_net::{Asn, IpPrefix};
use ripki_serve::api::state_label;
use ripki_serve_testutil::{get, serve_scenario};
use ripki_websim::churn::{ChurnConfig, ChurnStream};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

const CLIENTS: usize = 4;
const EPOCHS: usize = 5;

#[test]
fn validity_responses_are_epoch_consistent_under_churn() {
    let fx = serve_scenario(300, 17);
    let addr = fx.server.addr();
    let engine = &fx.engine;

    // Announcements to hammer: measured pairs (some will flip state as
    // ROAs churn) plus VRP self-pairs and an uncovered control.
    let mut results = engine.run(&fx.scenario.ranking);
    let mut queries: Vec<(IpPrefix, Asn)> = Vec::new();
    for d in results.domains.iter().take(30) {
        for p in d.bare.pairs.iter().chain(&d.www.pairs) {
            queries.push((p.prefix, p.origin));
        }
    }
    for vrp in engine.snapshot().vrps().iter().take(10) {
        queries.push((vrp.prefix, vrp.asn));
        queries.push((vrp.prefix, Asn::new(4_200_000_000)));
    }
    queries.push(("198.51.100.0/24".parse().unwrap(), Asn::new(64500)));
    queries.sort();
    queries.dedup();
    assert!(queries.len() >= 10, "need a real query mix");
    let queries = Arc::new(queries);

    // Epoch → snapshot registry; always populated before that epoch
    // becomes visible through the server.
    let registry = Arc::new(Mutex::new(HashMap::new()));
    registry
        .lock()
        .unwrap()
        .insert(engine.epoch(), engine.snapshot());

    let stop = Arc::new(AtomicBool::new(false));
    let warmed_up = Arc::new(Barrier::new(CLIENTS + 1));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let queries = Arc::clone(&queries);
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            let warmed_up = Arc::clone(&warmed_up);
            std::thread::spawn(move || {
                let mut verified = 0usize;
                let mut epochs_seen = BTreeSet::new();
                let mut i = client; // stagger the rotation per client
                let mut warm = false;
                loop {
                    let (prefix, origin) = queries[i % queries.len()];
                    i += 1;
                    let reply = get(
                        addr,
                        &format!("/api/v1/validity?asn={origin}&prefix={prefix}"),
                    );
                    assert_eq!(reply.status, 200, "{}", reply.body);
                    let json = reply.json();
                    let root = json.as_object().expect("object");
                    let epoch = root
                        .get("epoch")
                        .and_then(serde_json::Value::as_u128)
                        .expect("epoch stamp") as u64;
                    let state = root
                        .get("validated_route")
                        .and_then(|v| v.as_object())
                        .and_then(|v| v.get("validity"))
                        .and_then(|v| v.as_object())
                        .and_then(|v| v.get("state"))
                        .and_then(|s| s.as_str())
                        .expect("state string")
                        .to_string();
                    // The verdict the engine computes for the epoch the
                    // response claims to be from.
                    let snapshot = registry
                        .lock()
                        .unwrap()
                        .get(&epoch)
                        .cloned()
                        .unwrap_or_else(|| panic!("response from unpublished epoch {epoch}"));
                    let expected = state_label(snapshot.validity(&prefix, origin).state);
                    assert_eq!(
                        state, expected,
                        "epoch {epoch}: {prefix} from {origin} diverged"
                    );
                    verified += 1;
                    epochs_seen.insert(epoch);
                    if !warm {
                        warm = true;
                        warmed_up.wait();
                    }
                    if stop.load(Ordering::SeqCst) {
                        return (verified, epochs_seen);
                    }
                }
            })
        })
        .collect();

    // Every client has verified at least one pre-churn response; now
    // drive the world forward while they keep hammering.
    warmed_up.wait();
    let mut stream = ChurnStream::new(&fx.scenario, ChurnConfig::default());
    for _ in 0..EPOCHS {
        let batch = stream.next_epoch();
        engine.apply_events(&batch, &mut results);
        let snapshot = engine.snapshot();
        assert_eq!(snapshot.epoch(), results.epoch);
        registry
            .lock()
            .unwrap()
            .insert(snapshot.epoch(), Arc::clone(&snapshot));
        fx.view.publish(ripki_serve::EpochView::new(
            snapshot,
            Arc::new(results.clone()),
            None,
            Default::default(),
        ));
        std::thread::sleep(Duration::from_millis(60));
    }
    stop.store(true, Ordering::SeqCst);

    let mut total_verified = 0usize;
    let mut all_epochs = BTreeSet::new();
    for client in clients {
        let (verified, epochs_seen) = client.join().expect("client thread panicked");
        assert!(verified > 0);
        total_verified += verified;
        all_epochs.extend(epochs_seen);
    }
    // The barrier guarantees epoch 1 was observed; the post-churn loop
    // iteration guarantees a later epoch was too.
    assert!(
        all_epochs.contains(&1),
        "epoch 1 never observed: {all_epochs:?}"
    );
    assert!(
        all_epochs.len() >= 2,
        "churn epochs never became visible: {all_epochs:?}"
    );
    assert_eq!(engine.epoch(), 1 + EPOCHS as u64);
    assert!(
        total_verified >= CLIENTS * (EPOCHS + 1),
        "only {total_verified} responses verified"
    );
}
