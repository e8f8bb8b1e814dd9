//! The RTR chain as one seeded, single-threaded simulation, with the
//! shipped code at every node and no socket or thread:
//!
//! ```text
//! origin EpochDriver ─▶ upstream CacheServer ─ Session ⇄ ClientMachine (relay)
//!   ─▶ RelayEpochs::after_sync ─▶ Gossip ─▶ Fabric::pump ─▶ rtr_install
//!   ─▶ edge CacheServer ─ Session ⇄ ClientMachine (router)
//! ```
//!
//! The scheduler moves every byte and injects `now` (the clock is read
//! once, for its origin). Under a seeded fault schedule — deliveries
//! split at random sizes each way (single bytes included), a connection
//! dropped mid-response with epochs missed while it is down, a reader
//! that stalls until its session expires at [`WRITE_STALL`], histories
//! so short that a gap forces a Cache Reset, and an origin that
//! restarts over another world or exception set under a fresh session
//! id — it checks the chain's contract after every step:
//!
//! 1. never a blend: the set the relay's client or the router holds is
//!    the served payload of the origin epoch its serial names (the set
//!    of the serial it was answered at; empty without a serial), and
//!    every payload the relay publishes or the edge serves is the
//!    served payload of some origin epoch — compared by digest;
//! 2. the relay's published epochs and the edge's serials strictly
//!    increase, and so does the router's serial whenever it changes;
//!
//! and once the faults stop and the chain has drained,
//!
//! 3. the router holds the origin's last served payload, at the edge's
//!    serial.
//!
//! Out of scope: caches that contradict themselves (`units.rs` covers
//! those over TCP), SLURM reloads and a stage that panics. A failure
//! names its seed and step — a panic anywhere in the chain included;
//! pin [`SEEDS`] to that seed to replay it.

#![expect(clippy::disallowed_methods, reason = "R2 exempts test code")]

use crate::comms::Gossip;
use crate::log::Log;
use crate::manager::{install_stage, Fabric};
use crate::origin::{EpochDriver, Planes};
use crate::targets::rtr_install;
use crate::units::RelayEpochs;
use ripki_payload::{VrpSet, VrpTriple};
use ripki_rtr::client::{ClientMachine, Event};
use ripki_rtr::listener::{Session, WRITE_STALL};
use ripki_rtr::CacheServer;
use ripki_slurm::{ExceptionSet, PrefixAssertion, PrefixFilter, SlurmFile};
use ripki_websim::churn::{ChurnConfig, ChurnStream};
use ripki_websim::{Scenario, ScenarioConfig};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The seeds each run covers; pin one (`17..18`) to replay a failure.
const SEEDS: Range<u64> = 0..64;
/// Scheduler steps under the fault schedule, per seed.
const STEPS: usize = 200;
/// Rounds the fault-free drain may take before the chain must be quiet.
const DRAIN_ROUNDS: usize = 100;
/// The two links: the relay's, to the origin, and the router's, to the
/// edge.
const UPSTREAM: usize = 0;
const EDGE: usize = 1;
const LINK_NAMES: [&str; 2] = ["the relay's client", "the router"];

/// A splitmix64 stream: the whole schedule follows from the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// How much of `len` pending bytes one delivery moves: a single
    /// byte a quarter of the time, any split otherwise.
    fn chunk(&mut self, len: usize) -> usize {
        if self.below(4) == 0 {
            1
        } else {
            1 + self.below(len as u64) as usize
        }
    }
}

/// The digest of a router's set, comparable with a payload's.
fn digest(vrps: &BTreeSet<VrpTriple>) -> u64 {
    vrps.iter().copied().collect::<VrpSet>().digest()
}

/// A world an origin can be (re)started over, and an exception set
/// that filters one of its VRPs and asserts one of its own.
struct World {
    scenario: Scenario,
    exceptions: ExceptionSet,
}

fn worlds() -> Vec<World> {
    [11, 12]
        .into_iter()
        .map(|seed| {
            let scenario = Scenario::build(ScenarioConfig {
                seed,
                ..ScenarioConfig::with_domains(60)
            });
            let driver = EpochDriver::measure(&scenario, 1, Planes::new(None)).expect("epoch 1");
            let filtered = driver.raw().vrps().iter().next().expect("a VRP");
            let file = SlurmFile {
                filters: vec![PrefixFilter {
                    prefix: Some(filtered.prefix),
                    asn: None,
                    comment: None,
                }],
                assertions: vec![PrefixAssertion {
                    prefix: format!("192.0.{seed}.0/24").parse().expect("prefix"),
                    asn: ripki_net::Asn::new(64_500),
                    max_length: None,
                    comment: None,
                }],
                warnings: Vec::new(),
            };
            World {
                exceptions: file.compile(),
                scenario,
            }
        })
        .collect()
}

/// One origin process: a driver over a world, its churn, and the cache
/// its RTR plane installs into, under a session id of its own.
struct Origin {
    driver: EpochDriver,
    churn: ChurnStream,
    cache: Arc<CacheServer>,
}

/// One RTR connection's two ends: the router-side machine, which
/// outlives connections, and the cache's session while the link is up.
/// The bytes in flight are what each machine has not handed over yet.
#[derive(Default)]
struct Link {
    router: ClientMachine,
    session: Option<Session>,
    /// A sync is in flight; `true` if it began as a Serial Query.
    syncing: Option<bool>,
    /// The shell owes a sync: after connecting, a notify, a failure.
    owes_sync: bool,
    /// The router has stopped reading.
    stalled: bool,
}

impl Link {
    /// The connection is gone: both ends forget what was in flight.
    fn cut(&mut self) {
        self.session = None;
        self.syncing = None;
        self.stalled = false;
    }
}

/// How often each fault fired, summed over the seeds of a run.
#[derive(Debug, Default)]
struct Faults {
    single_byte_to_cache: u32,
    single_byte_to_router: u32,
    /// Per link: the relay's, the router's.
    dropped_mid_response: [u32; 2],
    reconnected_after_missed_epochs: u32,
    stalled_until_expired: u32,
    cache_resets: u32,
    origin_restarts: u32,
}

impl Faults {
    fn assert_all_fired(&self) {
        let counts = [
            self.single_byte_to_cache,
            self.single_byte_to_router,
            self.dropped_mid_response[UPSTREAM],
            self.dropped_mid_response[EDGE],
            self.reconnected_after_missed_epochs,
            self.stalled_until_expired,
            self.cache_resets,
            self.origin_restarts,
        ];
        assert!(
            counts.iter().all(|&n| n > 0),
            "a fault never fired: {self:?}"
        );
    }
}

struct Sim<'w> {
    step: usize,
    rng: Rng,
    worlds: &'w [World],
    excepted: bool,
    now: Instant,
    origin: Origin,
    links: [Link; 2],
    relay: RelayEpochs,
    gossip: Gossip,
    fabric: Fabric,
    edge: Arc<CacheServer>,
    log: Log,
    /// Digests of every payload any origin served.
    served: HashSet<u64>,
    /// The served digest per upstream `(session id, serial)`.
    upstream_sets: HashMap<(u16, u32), u64>,
    /// The digest the edge served at each of its serials.
    edge_sets: HashMap<u32, u64>,
    relay_epoch: Option<u64>,
    edge_serial: Option<u32>,
    router_serial: Option<u32>,
    faults: &'w mut Faults,
}

impl<'w> Sim<'w> {
    fn new(seed: u64, worlds: &'w [World], excepted: bool, faults: &'w mut Faults) -> Sim<'w> {
        let mut rng = Rng(seed);
        let origin = Sim::start_origin(&mut rng, worlds, excepted, 1);
        let edge = Arc::new(CacheServer::new(0xed9e).with_max_history(1 + rng.below(2) as usize));
        let gossip = Gossip::new();
        let stage = install_stage(
            "edge (rtr)".into(),
            gossip.subscribe(),
            rtr_install(Arc::clone(&edge)),
        );
        let mut sim = Sim {
            step: 0,
            rng,
            worlds,
            excepted,
            now: Instant::now(),
            origin,
            links: Default::default(),
            relay: RelayEpochs::default(),
            gossip,
            fabric: Fabric {
                stages: Mutex::new(vec![stage]),
            },
            edge,
            log: Log::sink(),
            served: HashSet::new(),
            upstream_sets: HashMap::new(),
            edge_sets: HashMap::new(),
            relay_epoch: None,
            edge_serial: None,
            router_serial: None,
            faults,
        };
        sim.record_origin();
        sim.connect(UPSTREAM);
        sim.connect(EDGE);
        sim
    }

    /// Start an origin over a world, with or without an exception set,
    /// under `session_id`, with a delta history of one to three serials.
    fn start_origin(rng: &mut Rng, worlds: &[World], excepted: bool, session_id: u16) -> Origin {
        let scenario = &worlds[rng.below(worlds.len() as u64) as usize].scenario;
        let exceptions = excepted.then(|| {
            worlds[rng.below(worlds.len() as u64) as usize]
                .exceptions
                .clone()
        });
        let history = 1 + rng.below(3) as usize;
        let cache = Arc::new(CacheServer::new(session_id).with_max_history(history));
        let planes = Planes::new(exceptions).with_rtr(Arc::clone(&cache));
        let churn = ChurnStream::new(
            scenario,
            ChurnConfig {
                seed: rng.next(),
                roa_additions: 2,
                roa_revocations: 1,
                ..ChurnConfig::default()
            },
        );
        Origin {
            driver: EpochDriver::measure(scenario, 1, planes).expect("epoch 1"),
            churn,
            cache,
        }
    }

    fn cache(&self, link: usize) -> Arc<CacheServer> {
        Arc::clone(if link == UPSTREAM {
            &self.origin.cache
        } else {
            &self.edge
        })
    }

    /// The origin committed an epoch: remember what it serves.
    fn record_origin(&mut self) {
        let served = self.origin.driver.served().digest();
        let cache = &self.origin.cache;
        self.served.insert(served);
        self.upstream_sets
            .insert((cache.session_id(), cache.serial()), served);
    }

    fn run(&mut self) {
        for step in 0..STEPS {
            self.step = step;
            self.fault_step();
            self.turn();
            self.check();
        }
        self.drain();
    }

    /// One scheduler step under the fault schedule.
    fn fault_step(&mut self) {
        let link = self.rng.below(2) as usize;
        match self.rng.below(100) {
            0..=8 => self.advance_origin(),
            9..=41 => {
                self.deliver_queries(link, false);
            }
            42..=81 => {
                self.deliver_answers(link, false);
            }
            82..=85 => {
                if let Some(session) = &self.links[link].session {
                    let mid_response = !session.wants_read() || self.links[link].syncing.is_some();
                    self.faults.dropped_mid_response[link] += u32::from(mid_response);
                    self.links[link].cut();
                }
            }
            86..=88 => {
                // The reader stalls while its session owes it bytes,
                // and time runs on past the stall bound.
                if self.links[link]
                    .session
                    .as_ref()
                    .is_some_and(|session| !session.wants_read())
                {
                    self.links[link].stalled = true;
                    self.now += WRITE_STALL;
                }
            }
            89 => {
                let session_id = self.origin.cache.session_id().wrapping_add(1);
                self.origin =
                    Sim::start_origin(&mut self.rng, self.worlds, self.excepted, session_id);
                self.record_origin();
                // The old cache went down with its process.
                self.links[UPSTREAM].cut();
                self.faults.origin_restarts += 1;
            }
            90..=95 => self.connect(link),
            _ => self.now += Duration::from_millis(self.rng.below(50)),
        }
    }

    fn advance_origin(&mut self) {
        let batch = self.origin.churn.next_epoch();
        self.origin
            .driver
            .step(&batch)
            .expect("the origin advances");
        self.record_origin();
    }

    /// Bring a link that is down up again: a new session, and the same
    /// router machine reconnected onto it.
    fn connect(&mut self, link: usize) {
        if self.links[link].session.is_some() {
            return;
        }
        let cache = self.cache(link);
        let link = &mut self.links[link];
        let missed = link
            .router
            .state()
            .is_some_and(|(_, serial)| serial != cache.serial());
        self.faults.reconnected_after_missed_epochs += u32::from(missed);
        link.router.reconnect();
        link.session = Some(Session::new(cache.serial(), self.now));
        link.owes_sync = true;
    }

    /// What the shells do every turn: drop sessions that finished or
    /// stalled past the bound, push Serial Notify to idle sessions whose
    /// cache moved on, and start the syncs the routers owe.
    fn turn(&mut self) {
        for i in [UPSTREAM, EDGE] {
            let cache = self.cache(i);
            let link = &mut self.links[i];
            let Some(session) = &mut link.session else {
                continue;
            };
            if session.expired(self.now) || session.finished() {
                self.faults.stalled_until_expired += u32::from(link.stalled);
                link.cut();
                continue;
            }
            if let Some(notify) = cache.notify_pdu() {
                session.notify(&notify, self.now);
            }
            if link.owes_sync && link.syncing.is_none() {
                link.owes_sync = false;
                link.syncing = Some(link.router.state().is_some());
                link.router.sync();
            }
        }
    }

    /// Move queued query bytes to the cache: `all` of them, or a random
    /// split. Returns whether any moved.
    fn deliver_queries(&mut self, i: usize, all: bool) -> bool {
        let cache = self.cache(i);
        let link = &mut self.links[i];
        let (Some(session), pending) = (&mut link.session, link.router.writable().len()) else {
            return false;
        };
        if pending == 0 {
            return false;
        }
        let n = if all {
            pending
        } else {
            self.rng.chunk(pending)
        };
        self.faults.single_byte_to_cache += u32::from(n == 1);
        let bytes = link.router.writable()[..n].to_vec();
        link.router.advance_write(n);
        session.received(&bytes, &cache, self.now);
        true
    }

    /// Move answer bytes to the router (unless it stalled), and act on
    /// what they complete. Returns whether any moved.
    fn deliver_answers(&mut self, i: usize, all: bool) -> bool {
        let cache = self.cache(i);
        let link = &mut self.links[i];
        let Some(session) = link.session.as_mut().filter(|_| !link.stalled) else {
            return false;
        };
        let pending = session.writable().len();
        if pending == 0 {
            return false;
        }
        let n = if all {
            pending
        } else {
            self.rng.chunk(pending)
        };
        self.faults.single_byte_to_router += u32::from(n == 1);
        let bytes = session.writable()[..n].to_vec();
        session.advance_write(n, &cache, self.now);
        let mut input = bytes.as_slice();
        while let Some(event) = self.links[i].router.received(input) {
            input = &[];
            self.on_event(i, event);
        }
        true
    }

    fn on_event(&mut self, i: usize, event: Event) {
        let link = &mut self.links[i];
        match event {
            Event::Notified(_) => link.owes_sync = true,
            Event::Failed(_) => {
                link.syncing = None;
                link.owes_sync = true;
            }
            Event::Synced(_) => {
                let serial_query = link.syncing.take() == Some(true);
                // A Serial Query answered without a delta was reset.
                self.faults.cache_resets +=
                    u32::from(serial_query && link.router.last_delta().is_none());
                if i == UPSTREAM {
                    self.publish();
                }
            }
        }
    }

    /// The relay's step after a sync: publish, and pump the fabric into
    /// the edge.
    fn publish(&mut self) {
        let client = &self.links[UPSTREAM].router;
        let Some(update) =
            self.relay
                .after_sync(client.state(), client.vrps(), client.last_delta())
        else {
            return;
        };
        let (epoch, published) = (update.epoch(), update.payload.digest());
        let last = self.relay_epoch.replace(epoch);
        assert!(
            last.is_none_or(|last| epoch > last),
            "the relay published epoch {epoch} after {last:?}"
        );
        assert!(
            self.served.contains(&published),
            "the relay published a blend at epoch {epoch}"
        );
        self.gossip.publish(update);
        self.fabric.pump(&self.log);

        let serial = self.edge.serial();
        let served = self.edge.payload().expect("installed").digest();
        let last = self.edge_serial.replace(serial);
        assert!(
            last.is_none_or(|last| serial > last),
            "the edge went to serial {serial} after {last:?}"
        );
        assert!(
            self.served.contains(&served),
            "the edge serves a blend at serial {serial}"
        );
        self.edge_sets.insert(serial, served);
    }

    /// Clauses (1) and (2) at the two routers.
    fn check(&mut self) {
        for (i, link) in self.links.iter().enumerate() {
            let (router, name) = (&link.router, LINK_NAMES[i]);
            let Some((session_id, serial)) = router.state() else {
                assert!(
                    router.vrps().is_empty(),
                    "{name} holds VRPs under no serial"
                );
                continue;
            };
            let named = if i == UPSTREAM {
                self.upstream_sets.get(&(session_id, serial))
            } else {
                self.edge_sets.get(&serial)
            };
            let held = digest(router.vrps());
            assert!(
                named == Some(&held) && self.served.contains(&held),
                "{name} holds a blend at serial {serial}: {} VRPs, digest {held:016x}",
                router.vrps().len()
            );
        }
        if let Some((_, serial)) = self.links[EDGE].router.state() {
            let last = self.router_serial.replace(serial);
            assert!(
                last.is_none_or(|last| serial >= last),
                "the router went to serial {serial} after {last:?}"
            );
        }
    }

    /// The faults stop: reconnect what is down, move every byte until
    /// nothing moves, and check clause (3).
    fn drain(&mut self) {
        for i in [UPSTREAM, EDGE] {
            self.links[i].stalled = false;
            self.connect(i);
        }
        for round in 0..DRAIN_ROUNDS {
            self.step = STEPS + round;
            self.turn();
            let mut moved = false;
            for i in [UPSTREAM, EDGE] {
                moved |= self.deliver_queries(i, true);
                moved |= self.deliver_answers(i, true);
            }
            self.check();
            let busy = self
                .links
                .iter()
                .any(|link| link.syncing.is_some() || link.owes_sync);
            if !moved && !busy {
                let router = &self.links[EDGE].router;
                let served = self.origin.driver.served();
                let held = digest(router.vrps());
                assert_eq!(held, served.digest(), "the router does not hold {served}");
                let serial = router.state().map(|(_, serial)| serial);
                assert_eq!(serial, Some(self.edge.serial()), "the router lags the edge");
                return;
            }
        }
        panic!("the chain did not quiesce");
    }
}

/// Run every seed, and name the seed and step of a failure.
fn run(excepted: bool) {
    let worlds = worlds();
    let mut faults = Faults::default();
    for seed in SEEDS {
        let mut sim = Sim::new(seed, &worlds, excepted, &mut faults);
        if let Err(panic) = panic::catch_unwind(AssertUnwindSafe(|| sim.run())) {
            let what = panic.downcast_ref::<String>().map(String::as_str);
            let what = what.or_else(|| panic.downcast_ref::<&str>().copied());
            panic!(
                "seed {seed} (excepted: {excepted}) step {}: {}",
                sim.step,
                what.unwrap_or("a panic")
            );
        }
    }
    faults.assert_all_fired();
}

#[test]
fn the_chain_never_blends_and_converges_without_exceptions() {
    run(false);
}

#[test]
fn the_chain_never_blends_and_converges_through_exceptions() {
    run(true);
}
