//! Loom model of the fabric's gossip channel (`ripki_proxy::comms`).
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (CI's static-analysis
//! lane), alongside the queue, SharedView, and ThreadPool models:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p ripki-proxy --test loom_comms
//! ```
//!
//! The invariant under model: **epoch monotonicity survives every hop
//! composition**. A subscriber — whether it sits directly on a unit's
//! gossip, behind a relay (combinator-shaped hop), or joins late —
//! never observes the epoch move backwards, and the final epoch always
//! gets through. `Subscription` itself asserts per-delivery
//! monotonicity (the R5 bargain), so any interleaving that could
//! deliver a regression panics the model.
#![cfg(loom)]

use loom::thread;
use ripki_net::Asn;
use ripki_payload::{PayloadUpdate, VrpPayload, VrpTriple};
use ripki_proxy::{Gossip, Subscription};

const EPOCHS: u64 = 6;

fn update(epoch: u64) -> PayloadUpdate {
    PayloadUpdate::snapshot(VrpPayload::new(
        epoch,
        [VrpTriple {
            prefix: "10.0.0.0/24".parse().expect("prefix"),
            max_length: 24,
            asn: Asn::new(u32::try_from(epoch).expect("small epoch")),
        }],
    ))
}

fn drain(mut sub: Subscription) -> Vec<u64> {
    let mut seen = Vec::new();
    while let Some(update) = sub.recv() {
        seen.push(update.epoch());
    }
    seen
}

fn assert_monotonic_to_final(seen: &[u64]) {
    // `Subscription` already asserts strict per-delivery monotonicity;
    // re-check here so the model fails even if that assert is removed.
    assert!(
        seen.windows(2).all(|w| w[0] < w[1]),
        "epochs regressed: {seen:?}"
    );
    assert_eq!(
        seen.last().copied(),
        Some(EPOCHS),
        "final epoch must always be delivered: {seen:?}"
    );
}

#[test]
fn direct_subscriber_never_sees_a_serial_regression() {
    loom::model(|| {
        let gossip = Gossip::new();
        let subscriber = {
            let sub = gossip.subscribe();
            thread::spawn(move || drain(sub))
        };
        for epoch in 1..=EPOCHS {
            assert!(gossip.publish(update(epoch)));
        }
        gossip.close();
        assert_monotonic_to_final(&subscriber.join().unwrap());
    });
}

#[test]
fn epochs_stay_monotonic_across_unit_combinator_target_hops() {
    loom::model(|| {
        // unit → (relay hop: combinator-shaped forwarder) → target.
        let unit_out = Gossip::new();
        let relay_out = Gossip::new();

        // The relay re-publishes whatever it receives, racing the unit.
        let relay = {
            let mut sub = unit_out.subscribe();
            let out = relay_out.clone();
            thread::spawn(move || {
                while let Some(update) = sub.recv() {
                    out.publish(update);
                }
                out.close();
            })
        };

        // The target drains the relay, never the unit directly.
        let target = {
            let sub = relay_out.subscribe();
            thread::spawn(move || drain(sub))
        };

        for epoch in 1..=EPOCHS {
            assert!(unit_out.publish(update(epoch)));
        }
        unit_out.close();

        relay.join().unwrap();
        assert_monotonic_to_final(&target.join().unwrap());
    });
}

#[test]
fn racing_publishers_cannot_regress_a_subscriber() {
    loom::model(|| {
        // Two producers race into one gossip (e.g. a unit restarting
        // while its replacement already publishes). The publish-side
        // refusal must serialize them into a strictly increasing view.
        let gossip = Gossip::new();
        let subscriber = {
            let sub = gossip.subscribe();
            thread::spawn(move || drain(sub))
        };
        let racer = {
            let gossip = gossip.clone();
            thread::spawn(move || {
                for epoch in [2u64, 3, 5] {
                    gossip.publish(update(epoch));
                }
            })
        };
        for epoch in [1u64, 4, EPOCHS] {
            gossip.publish(update(epoch));
        }
        racer.join().unwrap();
        gossip.close();
        let seen = subscriber.join().unwrap();
        assert!(
            seen.windows(2).all(|w| w[0] < w[1]),
            "epochs regressed: {seen:?}"
        );
        assert_eq!(seen.last().copied(), Some(EPOCHS));
    });
}

#[test]
fn late_subscriber_starts_from_the_current_epoch() {
    loom::model(|| {
        let gossip = Gossip::new();
        for epoch in 1..=3 {
            assert!(gossip.publish(update(epoch)));
        }
        // A subscription taken mid-stream sees the newest state first,
        // then only forward motion.
        let late = {
            let sub = gossip.subscribe();
            thread::spawn(move || drain(sub))
        };
        for epoch in 4..=EPOCHS {
            assert!(gossip.publish(update(epoch)));
        }
        gossip.close();
        let seen = late.join().unwrap();
        assert!(seen.first().copied() >= Some(3), "stale start: {seen:?}");
        assert_monotonic_to_final(&seen);
    });
}

#[test]
fn a_stepped_stage_loses_no_update_and_sees_the_close() {
    loom::model(|| {
        // The receive forms a fabric stage steps with: take what is
        // there without blocking, and stop once the channel is closed
        // and read out. However the steps interleave with the
        // publisher, the final epoch is taken before the close shows.
        let gossip = Gossip::new();
        let stage = {
            let mut sub = gossip.subscribe();
            thread::spawn(move || {
                let mut seen = Vec::new();
                loop {
                    while let Some(update) = sub.try_recv() {
                        seen.push(update.epoch());
                    }
                    if sub.is_closed() {
                        break;
                    }
                    thread::yield_now();
                }
                seen
            })
        };
        for epoch in 1..=EPOCHS {
            assert!(gossip.publish(update(epoch)));
        }
        gossip.close();
        assert_monotonic_to_final(&stage.join().unwrap());
    });
}
