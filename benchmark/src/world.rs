//! Seeded input generation: the web world, the RIR-scale repository
//! stream, and the SLURM file of the proxy hop. The program under test
//! only ever sees what these produce.

use ripki::pipeline::PipelineConfig;
use ripki_crypto::keystore::KeyId;
use ripki_net::{Asn, IpPrefix};
use ripki_payload::{VrpPayload, VrpTriple};
use ripki_rpki::repo::{Repository, RepositoryBuilder};
use ripki_rpki::roa::RoaPrefix;
use ripki_rpki::time::{Duration, SimTime};
use ripki_rpki::validate::Vrp;
use ripki_rpki::Resources;
use ripki_websim::{Scenario, ScenarioConfig};
use std::net::Ipv4Addr;

/// Full size is what `BENCHMARK.json` gates; smoke size is the same
/// code path at a few hundred objects (unit tests, and the reference
/// rows a traced run adds for the layers its own workload bypasses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// SplitMix64: the benchmark's own generator for request mixes and
/// picks, so the same `--seed` gives the same inputs on any host.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The web world of `study_full`, `churn_web` and `query_mixed`:
/// `ScenarioConfig::default()` (100 000 domains) under the run's seed.
pub fn web_scenario(size: Size, seed: u64) -> Scenario {
    let base = match size {
        Size::Full => ScenarioConfig::default(),
        Size::Smoke => ScenarioConfig::with_domains(500),
    };
    Scenario::build(ScenarioConfig { seed, ..base })
}

/// Engine configuration as `ripki-cli serve` spells it: library
/// defaults (threads = 0, i.e. available parallelism), no DNS noise.
pub fn serve_pipeline_config(scenario: &Scenario) -> PipelineConfig {
    PipelineConfig {
        bogus_dns_ppm: 0,
        now: scenario.now,
        ..PipelineConfig::default()
    }
}

pub fn triple(v: &Vrp) -> VrpTriple {
    VrpTriple {
        prefix: v.prefix,
        max_length: v.max_length,
        asn: v.asn,
    }
}

/// A synthetic RIR-scale repository that republishes once per epoch:
/// `tas × cas` publication points of `roas` ROAs each, four of which
/// swap one ROA per epoch.
pub struct RirStream {
    builder: RepositoryBuilder,
    /// `(ta, ca, key)` per CA, in issue order.
    cas: Vec<(usize, usize, KeyId)>,
    /// ROA swaps done so far per CA (slot arithmetic below).
    swaps: Vec<usize>,
    roas: usize,
    rng: Rng,
    epoch: usize,
    pub now: SimTime,
}

/// CAs republishing per epoch.
pub const DIRTY_CAS: usize = 4;
/// Each CA holds a /16 cut into 1024 /26 slots; ROA `k` of a CA sits
/// in slot `k mod 1024`, so a swap (retire the oldest, issue the next)
/// never collides while a CA holds fewer than 1024 ROAs.
const SLOTS: usize = 1024;

fn slot_prefix(ta: usize, ca: usize, slot: usize) -> IpPrefix {
    let offset = (slot % SLOTS) as u32 * 64;
    let addr = Ipv4Addr::new(10 + ta as u8, ca as u8, (offset >> 8) as u8, offset as u8);
    IpPrefix::new(addr.into(), 26).expect("a /26 on a 64-address boundary")
}

impl RirStream {
    pub fn dimensions(size: Size) -> (usize, usize, usize) {
        match size {
            Size::Full => (5, 50, 400),
            Size::Smoke => (5, 5, 20),
        }
    }

    /// Issue the whole hierarchy; the caller takes the first snapshot.
    pub fn issue(size: Size, seed: u64) -> RirStream {
        let (tas, cas_per_ta, roas) = RirStream::dimensions(size);
        let start = SimTime::EPOCH;
        let mut builder = RepositoryBuilder::new(seed, start);
        let mut cas = Vec::with_capacity(tas * cas_per_ta);
        for ta in 0..tas {
            let block =
                IpPrefix::new(Ipv4Addr::new(10 + ta as u8, 0, 0, 0).into(), 8).expect("a /8 block");
            let ta_key =
                builder.add_trust_anchor(&format!("TA-{ta}"), Resources::from_prefixes([block]));
            for ca in 0..cas_per_ta {
                let block = IpPrefix::new(Ipv4Addr::new(10 + ta as u8, ca as u8, 0, 0).into(), 16)
                    .expect("a /16 block");
                let key = builder
                    .add_ca(
                        ta_key,
                        &format!("CA-{ta}-{ca}"),
                        Resources::from_prefixes([block]),
                    )
                    .expect("CA block lies inside its trust anchor");
                let asn = Asn::new((1000 + ta * cas_per_ta + ca) as u32);
                for slot in 0..roas {
                    builder
                        .add_roa(key, asn, vec![RoaPrefix::exact(slot_prefix(ta, ca, slot))])
                        .expect("slot lies inside its CA block");
                }
                cas.push((ta, ca, key));
            }
        }
        RirStream {
            swaps: vec![0; cas.len()],
            builder,
            cas,
            roas,
            rng: Rng::new(seed ^ 0x5eed_c4a5),
            epoch: 0,
            now: start + Duration::days(1),
        }
    }

    /// Sign and publish the current state (the first call signs every
    /// point; later calls re-sign only what changed).
    pub fn snapshot(&mut self) -> Repository {
        self.builder.snapshot()
    }

    /// One epoch of churn: `DIRTY_CAS` distinct CAs each retire their
    /// oldest ROA and issue a fresh one; then republish.
    pub fn next_snapshot(&mut self) -> Repository {
        self.epoch += 1;
        let published = self.builder.list_roas();
        let mut picked: Vec<usize> = Vec::with_capacity(DIRTY_CAS);
        while picked.len() < DIRTY_CAS.min(self.cas.len()) {
            let i = self.rng.below(self.cas.len());
            if !picked.contains(&i) {
                picked.push(i);
            }
        }
        for i in picked {
            let (ta, ca, key) = self.cas[i];
            if let Some((_, serial, _)) = published.iter().find(|(owner, _, _)| *owner == key) {
                self.builder
                    .remove_roa(key, *serial)
                    .expect("picked CA exists");
            }
            let slot = self.roas + self.swaps[i];
            self.swaps[i] += 1;
            self.builder
                .add_roa(
                    key,
                    Asn::new(50_000 + self.epoch as u32),
                    vec![RoaPrefix::exact(slot_prefix(ta, ca, slot))],
                )
                .expect("slot lies inside its CA block");
        }
        self.builder.snapshot()
    }
}

/// The proxy hop's RFC 8416 file: 20 `prefixFilters` (five drawn from
/// VRPs actually served, fifteen over benchmarking space that match
/// nothing) and 20 `prefixAssertions` over documentation-style space.
pub fn slurm_text(initial: &VrpPayload, seed: u64) -> String {
    let mut rng = Rng::new(seed ^ 0x51_u64);
    let served: Vec<&VrpTriple> = initial.vrps().iter().collect();
    let mut filters = Vec::new();
    for _ in 0..5.min(served.len()) {
        let vrp = served[rng.below(served.len())];
        filters.push(format!("{{\"prefix\":\"{}\"}}", vrp.prefix));
    }
    while filters.len() < 20 {
        filters.push(format!("{{\"prefix\":\"198.19.{}.0/24\"}}", filters.len()));
    }
    let assertions: Vec<String> = (0..20)
        .map(|i| {
            format!(
                "{{\"prefix\":\"198.18.{i}.0/24\",\"asn\":{},\"maxPrefixLength\":24}}",
                64_496 + i
            )
        })
        .collect();
    format!(
        "{{\"slurmVersion\":1,\"validationOutputFilters\":{{\"prefixFilters\":[{}],\"bgpsecFilters\":[]}},\
         \"locallyAddedAssertions\":{{\"prefixAssertions\":[{}],\"bgpsecAssertions\":[]}}}}",
        filters.join(","),
        assertions.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripki_rpki::validate::validate;
    use ripki_slurm::SlurmFile;

    #[test]
    fn rng_is_reproducible_and_bounded() {
        let mut a = Rng::new(9);
        let mut b = Rng::new(9);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
            assert!(a.below(7) < 7);
            b.below(7);
            let u = a.unit();
            b.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn rir_stream_swaps_one_roa_in_each_dirty_ca() {
        let mut stream = RirStream::issue(Size::Smoke, 3);
        let first = validate(&stream.snapshot(), stream.now);
        assert_eq!(first.vrps.len(), 500);
        let second = validate(&stream.next_snapshot(), stream.now);
        assert_eq!(second.vrps.len(), 500);
        let gone = first
            .vrps
            .iter()
            .filter(|v| !second.vrps.contains(v))
            .count();
        assert_eq!(gone, DIRTY_CAS);
    }

    #[test]
    fn slurm_text_parses_with_twenty_of_each() {
        let payload = VrpPayload::new(
            1,
            [VrpTriple {
                prefix: "10.0.0.0/26".parse().expect("prefix"),
                max_length: 26,
                asn: Asn::new(1000),
            }],
        );
        let file = SlurmFile::parse(&slurm_text(&payload, 1)).expect("well-formed SLURM");
        assert_eq!(file.filters.len(), 20);
        assert_eq!(file.assertions.len(), 20);
    }
}
