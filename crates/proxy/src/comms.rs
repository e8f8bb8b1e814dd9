//! The gossip channel connecting units, combinators, and targets.
//!
//! A watch-style single-slot channel: publishers overwrite the slot
//! with the newest [`PayloadUpdate`]; a fabric stage takes it without
//! blocking when it is stepped ([`Subscription::try_recv`]), a
//! subscriber with a thread of its own waits for it
//! ([`Subscription::recv`]). Only the *latest* update is retained — a slow subscriber skips
//! intermediate epochs rather than queueing them (it resynchronizes
//! from the update's full payload; the delta only applies when it
//! chains, exactly the RTR Cache Reset discipline).
//!
//! This module is one of the lint catalog's *blessed epoch modules*
//! (R5): it may touch `epoch`-named fields directly and in exchange
//! carries the fabric's monotonicity enforcement at both ends:
//!
//! * [`Gossip::publish`] **refuses** updates that do not advance the
//!   published epoch (returns `false`; a unit replaying an old epoch is
//!   a no-op, not a poison pill), and
//! * every delivery **asserts** that observed epochs strictly increase
//!   — a subscriber can never witness a serial regression, no matter
//!   how hops are composed.

use ripki_payload::PayloadUpdate;
use std::sync::{Arc, Condvar, Mutex};

/// Slot state shared between one publisher and its subscribers.
#[derive(Default)]
struct Slot {
    /// Newest update published so far.
    update: Option<PayloadUpdate>,
    /// Bumped on every accepted publish; subscribers diff against it.
    seq: u64,
    /// Set once the publisher is done; subscribers drain and stop.
    closed: bool,
}

#[derive(Default)]
struct Channel {
    slot: Mutex<Slot>,
    cond: Condvar,
}

/// The publishing half of a gossip channel (unit or combinator output).
/// Clones share the same slot, so the manager can hand one clone to the
/// producing thread and keep another for wiring subscribers.
#[derive(Clone, Default)]
pub struct Gossip {
    shared: Arc<Channel>,
}

impl Gossip {
    /// A fresh channel with nothing published.
    pub fn new() -> Gossip {
        Gossip::default()
    }

    /// Publish an update. Accepted (and `true`) only when it advances
    /// the published epoch; replays and regressions are refused so
    /// subscribers can rely on strict monotonicity.
    pub fn publish(&self, update: PayloadUpdate) -> bool {
        let mut slot = self.shared.slot.lock().expect("gossip slot poisoned");
        if let Some(current) = &slot.update {
            if update.epoch() <= current.epoch() {
                return false;
            }
        }
        slot.update = Some(update);
        slot.seq += 1;
        self.shared.cond.notify_all();
        true
    }

    /// Mark the channel finished. Subscribers drain the final update
    /// (if unseen) and then observe the close.
    pub fn close(&self) {
        let mut slot = self.shared.slot.lock().expect("gossip slot poisoned");
        slot.closed = true;
        self.shared.cond.notify_all();
    }

    /// A new subscription that will see every epoch from the next
    /// publish on (plus the currently held one, if any).
    pub fn subscribe(&self) -> Subscription {
        Subscription {
            shared: Arc::clone(&self.shared),
            seen_seq: 0,
            last_epoch: None,
        }
    }
}

/// The receiving half of a gossip channel.
pub struct Subscription {
    shared: Arc<Channel>,
    seen_seq: u64,
    last_epoch: Option<u64>,
}

impl Subscription {
    /// Block until an unseen update is available (or the channel
    /// closes). `None` means closed-and-drained.
    pub fn recv(&mut self) -> Option<PayloadUpdate> {
        let mut slot = self.shared.slot.lock().expect("gossip slot poisoned");
        loop {
            if slot.seq > self.seen_seq {
                return Some(Self::take(&mut self.seen_seq, &mut self.last_epoch, &slot));
            }
            if slot.closed {
                return None;
            }
            slot = self.shared.cond.wait(slot).expect("gossip slot poisoned");
        }
    }

    /// An unseen update if one is ready right now, without blocking.
    pub fn try_recv(&mut self) -> Option<PayloadUpdate> {
        let slot = self.shared.slot.lock().expect("gossip slot poisoned");
        (slot.seq > self.seen_seq)
            .then(|| Self::take(&mut self.seen_seq, &mut self.last_epoch, &slot))
    }

    /// Whether the publisher has closed and this subscription has seen
    /// everything it published: nothing will ever arrive again.
    pub fn is_closed(&self) -> bool {
        let slot = self.shared.slot.lock().expect("gossip slot poisoned");
        slot.closed && slot.seq <= self.seen_seq
    }

    fn take(seen_seq: &mut u64, last_epoch: &mut Option<u64>, slot: &Slot) -> PayloadUpdate {
        *seen_seq = slot.seq;
        let update = slot.update.clone().expect("seq advanced without an update");
        // The fabric-wide invariant (ripki-lint R5's bargain): across
        // any composition of units, combinators, and targets, a
        // subscriber never observes the epoch move backwards or stall
        // on a delivery.
        if let Some(last) = *last_epoch {
            assert!(
                update.epoch() > last,
                "gossip delivered a non-monotonic epoch ({} after {})",
                update.epoch(),
                last,
            );
        }
        *last_epoch = Some(update.epoch());
        update
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripki_net::Asn;
    use ripki_payload::{VrpPayload, VrpTriple};

    fn payload(epoch: u64, n: u32) -> PayloadUpdate {
        PayloadUpdate::snapshot(VrpPayload::new(
            epoch,
            (0..n).map(|i| VrpTriple {
                prefix: format!("10.{}.{}.0/24", i / 256, i % 256)
                    .parse()
                    .expect("prefix"),
                max_length: 24,
                asn: Asn::new(i),
            }),
        ))
    }

    #[test]
    fn subscriber_sees_latest_update() {
        let gossip = Gossip::new();
        let mut sub = gossip.subscribe();
        assert!(gossip.publish(payload(1, 2)));
        assert_eq!(sub.recv().expect("update").epoch(), 1);
        assert_eq!(sub.try_recv(), None);
    }

    #[test]
    fn slow_subscriber_skips_to_newest() {
        let gossip = Gossip::new();
        let mut sub = gossip.subscribe();
        assert!(gossip.publish(payload(1, 1)));
        assert!(gossip.publish(payload(2, 2)));
        assert!(gossip.publish(payload(3, 3)));
        let update = sub.recv().expect("update");
        assert_eq!(update.epoch(), 3, "intermediate epochs are skipped");
        assert_eq!(sub.try_recv(), None);
    }

    #[test]
    fn replay_and_regression_are_refused() {
        let gossip = Gossip::new();
        assert!(gossip.publish(payload(5, 1)));
        assert!(!gossip.publish(payload(5, 2)), "same epoch refused");
        assert!(!gossip.publish(payload(4, 2)), "regression refused");
        let held = gossip.subscribe().try_recv().expect("the accepted update");
        assert_eq!((held.epoch(), held.payload.len()), (5, 1));
    }

    #[test]
    fn close_drains_then_ends() {
        let gossip = Gossip::new();
        let mut sub = gossip.subscribe();
        assert!(gossip.publish(payload(1, 1)));
        gossip.close();
        assert_eq!(sub.recv().expect("final update").epoch(), 1);
        assert_eq!(sub.recv(), None);
    }

    #[test]
    fn a_subscription_is_closed_only_once_it_has_seen_the_last_update() {
        let gossip = Gossip::new();
        let mut sub = gossip.subscribe();
        assert!(!sub.is_closed());
        assert!(gossip.publish(payload(1, 1)));
        gossip.close();
        assert!(!sub.is_closed(), "the final update is still unseen");
        assert_eq!(sub.try_recv().expect("final update").epoch(), 1);
        assert!(sub.is_closed());
        assert_eq!(sub.try_recv(), None);
    }

    #[test]
    fn cross_thread_handoff() {
        let gossip = Gossip::new();
        let mut sub = gossip.subscribe();
        let handle = std::thread::spawn(move || {
            let mut epochs = Vec::new();
            while let Some(update) = sub.recv() {
                epochs.push(update.epoch());
            }
            epochs
        });
        for epoch in 1..=20 {
            assert!(gossip.publish(payload(epoch, 1)));
        }
        gossip.close();
        let seen = handle.join().expect("subscriber thread");
        assert!(!seen.is_empty());
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "monotonic: {seen:?}");
        assert_eq!(*seen.last().expect("at least one"), 20);
    }
}
