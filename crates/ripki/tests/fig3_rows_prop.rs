//! Figure 3's HTTPArchive series, read off a study's rows, equals the
//! series a full `Resolver::resolve` of every name form from the
//! HTTPArchive vantage draws.
//!
//! The zones are generated to put per-vantage overrides where a stored
//! chain stops being the HTTPArchive chain: a CNAME over a base A and an
//! A over a base CNAME, on query names and mid-chain, override-only
//! names, loops, special-purpose answers, and CNAME ladders of
//! `MAX_CHAIN` and `MAX_CHAIN + 1` links. Studies run from two vantages
//! at three DNS corruption rates, one rank bin per domain so that no
//! disagreement can average out.

use proptest::prelude::*;
use ripki::classify::HttpArchiveClassifier;
use ripki::figures::fig3_cdn_popularity;
use ripki::{BinnedSeries, PipelineConfig, StudyEngine};
use ripki_bgp::rib::Rib;
use ripki_dns::resolver::MAX_CHAIN;
use ripki_dns::{DomainName, RecordData, Resolver, Vantage, ZoneStore};
use ripki_rpki::repo::Repository;

const PATTERN: &str = "akamai-sim.net";
/// Listed domains with random records on both forms.
const DOMAINS: usize = 6;
/// Other names the random records point at: CDN names, then plain ones.
const CDN_NAMES: usize = 4;
const PLAIN_NAMES: usize = 3;
/// Ladder lengths, each the `www` form of a listed `ladderN.example`.
const LADDERS: [usize; 2] = [MAX_CHAIN, MAX_CHAIN + 1];

fn n(s: &str) -> DomainName {
    DomainName::parse(s).unwrap()
}

/// The listed domains, in rank order.
fn ranking() -> Vec<DomainName> {
    (0..DOMAINS)
        .map(|i| n(&format!("d{i}.example")))
        .chain(LADDERS.iter().map(|len| n(&format!("ladder{len}.example"))))
        .collect()
}

/// Every name a record or override may sit on or point at: the listed
/// domains' two forms, the loose CDN and plain names, then the ladder
/// links (the query name of a ladder is its `www` form).
fn universe() -> Vec<DomainName> {
    let mut names = Vec::new();
    for i in 0..DOMAINS {
        names.push(n(&format!("www.d{i}.example")));
        names.push(n(&format!("d{i}.example")));
    }
    names.extend((0..CDN_NAMES).map(|i| n(&format!("c{i}.{PATTERN}"))));
    names.extend((0..PLAIN_NAMES).map(|i| n(&format!("h{i}.plain.net"))));
    for len in LADDERS {
        names.push(n(&format!("www.ladder{len}.example")));
        names.push(n(&format!("ladder{len}.example")));
        names.extend((1..=len).map(|i| ladder_link(len, i)));
    }
    names
}

fn ladder_link(len: usize, i: usize) -> DomainName {
    n(&format!("l{i}.ladder{len}.{PATTERN}"))
}

/// Names before the ladders: the random records' own ground.
fn loose_names() -> usize {
    2 * DOMAINS + CDN_NAMES + PLAIN_NAMES
}

/// One generated record set.
#[derive(Debug, Clone)]
enum Rec {
    /// A routable address.
    Addr(u8),
    /// An IANA special-purpose address (excluded by the study).
    Special,
    /// A CNAME to the universe name at this index.
    Cname(usize),
}

impl Rec {
    fn data(&self, names: &[DomainName]) -> RecordData {
        match self {
            Rec::Addr(x) => RecordData::A([85, 1, 2, *x].into()),
            Rec::Special => RecordData::A([127, 0, 0, 1].into()),
            Rec::Cname(i) => RecordData::Cname(names[*i].clone()),
        }
    }
}

/// Three in eight an address, one in eight special, half a CNAME.
fn arb_rec(names: usize) -> impl Strategy<Value = Rec> {
    (0u8..8, any::<u8>(), 0..names).prop_map(|(kind, x, target)| match kind {
        0..=2 => Rec::Addr(x),
        3 => Rec::Special,
        _ => Rec::Cname(target),
    })
}

/// A world: optional base records on each loose name, then overrides
/// on any name (a ladder link included), as (name, vantage, record).
#[derive(Debug, Clone)]
struct World {
    base: Vec<Option<Rec>>,
    overrides: Vec<(usize, usize, Rec)>,
}

fn arb_world() -> impl Strategy<Value = World> {
    let names = universe().len();
    let loose = loose_names();
    // One base in five absent; one override in four on a ladder link.
    let base = (0u8..5, arb_rec(names)).prop_map(|(k, rec)| (k > 0).then_some(rec));
    let override_name =
        (0u8..4, 0..loose, loose..names).prop_map(|(k, a, b)| if k == 0 { b } else { a });
    (
        prop::collection::vec(base, loose),
        prop::collection::vec(
            (override_name, 0..Vantage::ALL.len(), arb_rec(names)),
            0..10,
        ),
    )
        .prop_map(|(base, overrides)| World { base, overrides })
}

fn zones(world: &World) -> ZoneStore {
    let names = universe();
    let mut z = ZoneStore::new();
    for (name, rec) in names.iter().zip(&world.base) {
        if let Some(rec) = rec {
            z.add(name.clone(), rec.data(&names));
        }
    }
    for len in LADDERS {
        z.add_cname(n(&format!("www.ladder{len}.example")), ladder_link(len, 1));
        for i in 1..len {
            z.add_cname(ladder_link(len, i), ladder_link(len, i + 1));
        }
        z.add_addr(ladder_link(len, len), [85, 9, 9, 9].into());
    }
    for (name, vantage, rec) in &world.overrides {
        z.add_override(
            names[*name].clone(),
            Vantage::ALL[*vantage],
            rec.data(&names),
        );
    }
    z
}

/// The oracle: each form resolved in full from the HTTPArchive vantage.
fn classify_by_resolving(
    zones: &ZoneStore,
    limit: usize,
    rank: usize,
    listed: &DomainName,
) -> Option<bool> {
    if rank >= limit {
        return None;
    }
    let resolver = Resolver::new(zones, Vantage::HTTPARCHIVE_REDWOOD);
    let through_cdn = |name: &DomainName| {
        resolver
            .resolve(name)
            .is_ok_and(|res| res.cname_chain.iter().any(|link| link.has_suffix(PATTERN)))
    };
    let bare = listed.without_www();
    Some(through_cdn(&bare.with_www()) || through_cdn(&bare))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fig3_from_rows_equals_full_resolution(world in arb_world(), fault_seed in any::<u64>()) {
        let zones = zones(&world);
        let ranking = ranking();
        let mut classifier = HttpArchiveClassifier::new(&zones, vec![PATTERN.into()]);
        // The last ladder is out of coverage, so `None` samples are folded too.
        classifier.limit = ranking.len() - 1;
        let oracle = BinnedSeries::from_samples(
            ranking.iter().enumerate().map(|(rank, listed)| {
                let verdict = classify_by_resolving(&zones, classifier.limit, rank, listed);
                (rank, verdict.map(|cdn| if cdn { 1.0 } else { 0.0 }))
            }),
            ranking.len(),
            1,
        );
        for vantage in [Vantage::GOOGLE_DNS_BERLIN, Vantage::OPEN_DNS] {
            for bogus_dns_ppm in [0, 700, 200_000] {
                let config = PipelineConfig {
                    vantage,
                    bogus_dns_ppm,
                    dns_fault_seed: fault_seed,
                    threads: 1,
                    ..Default::default()
                };
                let engine =
                    StudyEngine::new(zones.clone(), Rib::new(), &Repository::default(), config);
                let results = engine.run(&ranking);
                prop_assert!(results.skipped.is_empty());
                let fig3 = fig3_cdn_popularity(&results, &classifier, 1);
                prop_assert_eq!(
                    &fig3.httparchive,
                    &oracle,
                    "from {} at {} ppm",
                    vantage,
                    bogus_dns_ppm
                );
            }
        }
    }
}
