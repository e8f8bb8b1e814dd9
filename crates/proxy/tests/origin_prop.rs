//! The origin driver against the from-scratch oracle: after every
//! `EpochDriver::step` the HTTP view, the RTR cache and the raw payload
//! must be what rebuilding them from the engine's snapshot gives —
//! through the exception layer too, stats included — and a router must
//! be able to follow the cache by Serial Queries alone.

use ripki::exposure::ExposureConfig;
use ripki_payload::{VrpPayload, VrpTriple};
use ripki_proxy::{EpochDriver, Planes};
use ripki_rtr::{CacheServer, Client, ListenerConfig, RtrListener};
use ripki_slurm::{ExceptionSet, PrefixAssertion, PrefixFilter, SlurmFile};
use ripki_websim::churn::{ChurnConfig, ChurnStream};
use ripki_websim::{Scenario, ScenarioConfig};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

const EPOCHS: usize = 9;

/// What the churn did to the VRP set over one walk.
struct Walked {
    initial: Vec<VrpTriple>,
    announced: Vec<VrpTriple>,
    withdrawn: Vec<VrpTriple>,
}

/// Drive one origin with both planes attached through `EPOCHS` churn
/// epochs, checking every plane against the oracle after each.
fn walk(seed: u64, exceptions: Option<ExceptionSet>) -> Walked {
    let scenario = Scenario::build(ScenarioConfig {
        seed,
        ..ScenarioConfig::with_domains(150)
    });
    let cache = Arc::new(CacheServer::new(7));
    let planes = Planes::new(exceptions.clone())
        .with_http(
            Some(Arc::new(scenario.topology.clone())),
            ExposureConfig::default(),
        )
        .with_rtr(Arc::clone(&cache));
    let mut driver = EpochDriver::measure(&scenario, 0, planes).expect("epoch 1");
    let view = Arc::clone(driver.view().expect("the HTTP plane is attached"));

    let mut listener = RtrListener::spawn(
        TcpListener::bind("127.0.0.1:0").expect("bind"),
        Arc::clone(&cache),
        ListenerConfig::default(),
    )
    .expect("listener");
    let mut router = Client::new(TcpStream::connect(listener.addr()).expect("connect"));
    router.sync().expect("reset sync at epoch 1");

    let layered = exceptions.is_some();
    let exceptions = exceptions.unwrap_or_default();
    let check = |driver: &EpochDriver| {
        let snapshot = driver.engine().snapshot();
        let epoch = snapshot.epoch();
        let raw = VrpPayload::new(epoch, snapshot.vrps().iter().copied());
        assert_eq!(driver.raw(), &raw, "raw payload at epoch {epoch}");
        let (served, stats) = exceptions.excepted_with_stats(&raw);
        let current = view.current();
        assert_eq!(current.payload(), &served, "view at epoch {epoch}");
        assert_eq!(driver.served(), &served, "driver at epoch {epoch}");
        assert_eq!(cache.payload().as_ref(), Some(&served), "cache at {epoch}");
        assert_eq!(current.slurm_stats(), layered.then_some(stats));
        assert_eq!(current.epoch(), driver.engine().epoch());
        assert_eq!(u64::from(cache.serial()), epoch);
    };
    check(&driver);

    let mut walked = Walked {
        initial: driver.raw().vrps().iter().copied().collect(),
        announced: Vec::new(),
        withdrawn: Vec::new(),
    };
    let mut stream = ChurnStream::new(
        &scenario,
        ChurnConfig {
            seed: seed ^ 0x5eed,
            roa_additions: 2,
            roa_revocations: 1,
            ..ChurnConfig::default()
        },
    );
    for _ in 0..EPOCHS {
        let before = driver.raw().clone();
        let report = driver.step(&stream.next_epoch()).expect("step");
        let delta = report.raw.delta.as_ref().expect("the engine's delta");
        assert_eq!(before.apply(delta).as_ref(), Some(&report.raw.payload));
        assert_eq!(&report.raw.payload, driver.raw());
        check(&driver);
        walked.announced.extend(&report.delta.announced);
        walked.withdrawn.extend(&report.delta.withdrawn);

        // The router follows by Serial Query: an incremental answer
        // from the serial it held, never a Cache Reset.
        let held = router.state().expect("synced").1;
        router.sync().expect("serial sync");
        assert_eq!(router.last_delta().map(|d| d.from_serial), Some(held));
        assert_eq!(router.payload(), cache.payload());
    }
    listener.shutdown();
    walked
}

#[test]
fn every_plane_matches_the_from_scratch_oracle_after_every_step() {
    for seed in [17, 404] {
        let plain = walk(seed, None);
        let (added, dropped) = (plain.announced[0], plain.withdrawn[0]);
        assert!(plain.initial.contains(&dropped), "withdrawn from epoch 1");

        // Exceptions the churn runs into: an ASN filter that swallows
        // an announcement, a prefix filter over a VRP that gets
        // withdrawn, and an assertion that loses its raw backing.
        let mut covering = dropped.prefix;
        while covering.len() > 8 {
            covering = covering.parent().expect("shorter prefix");
        }
        let asserted = *plain
            .withdrawn
            .iter()
            .find(|vrp| plain.initial.contains(vrp) && !covering.covers(&vrp.prefix))
            .unwrap_or(&plain.initial[0]);
        let file = SlurmFile {
            filters: vec![
                PrefixFilter {
                    prefix: None,
                    asn: Some(added.asn),
                    comment: None,
                },
                PrefixFilter {
                    prefix: Some(covering),
                    asn: None,
                    comment: None,
                },
            ],
            assertions: vec![PrefixAssertion {
                prefix: asserted.prefix,
                asn: asserted.asn,
                max_length: Some(asserted.max_length),
                comment: None,
            }],
            warnings: Vec::new(),
        };
        walk(seed, Some(file.compile()));
    }
}
