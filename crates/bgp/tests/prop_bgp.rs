//! Property-based tests for `ripki-bgp`: ROV against a brute-force scan,
//! valley-free propagation invariants, and dump round-trips.

use proptest::prelude::*;
use ripki_bgp::dump::TableDump;
use ripki_bgp::path::AsPath;
use ripki_bgp::propagate::{accept_all, propagate, RouteKind};
use ripki_bgp::rib::{Rib, RibEntry};
use ripki_bgp::rov::{RouteOriginValidator, RpkiState, ValidityDetail, VrpTriple};
use ripki_bgp::topology::{Relationship, Topology};
use ripki_net::{Asn, Family, IpPrefix, Ipv4Prefix, VrpSet};
use std::collections::BTreeSet;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

fn arb_prefix() -> impl Strategy<Value = IpPrefix> {
    (any::<u32>(), 8u8..=28)
        .prop_map(|(bits, len)| IpPrefix::V4(Ipv4Prefix::new(Ipv4Addr::from(bits), len).unwrap()))
}

/// A prefix length for a family of `max` bits: `/0` and the host
/// length each an eighth of the time, any length otherwise.
fn pick_len(pick: u16, max: u8) -> u8 {
    match pick % 8 {
        0 => 0,
        1 => max,
        _ => ((pick / 8) % (u16::from(max) + 1)) as u8,
    }
}

/// A route: family (`true` = IPv6), address bits, length pick.
type RoutePick = (bool, u128, u16);

fn route_prefix((v6, bits, pick): RoutePick) -> IpPrefix {
    if v6 {
        IpPrefix::new(IpAddr::V6(Ipv6Addr::from(bits)), pick_len(pick, 128))
    } else {
        let addr = Ipv4Addr::from((bits >> 96) as u32);
        IpPrefix::new(IpAddr::V4(addr), pick_len(pick, 32))
    }
    .expect("length within the family")
}

/// A VRP on `route`'s address: its prefix is the route masked to a
/// drawn length (shorter than the route, equal, or longer), its max
/// length anywhere from there to the family's maximum.
fn vrp_on(route: IpPrefix, len_pick: u16, extra: u8, asn: u32) -> VrpTriple {
    let max = route.family().bits();
    let len = pick_len(len_pick, max);
    let prefix = IpPrefix::new(route.network(), len).expect("length within the family");
    VrpTriple {
        prefix,
        max_length: len + (u16::from(extra) % (u16::from(max - len) + 1)) as u8,
        asn: Asn::new(asn),
    }
}

/// Routes of both families, most VRPs drawn from their own masks (the
/// pick indexes the route), a few VRPs anywhere, the origin ASNs the
/// lookups use, and insert/remove edits over all drawn VRPs.
#[allow(clippy::type_complexity)]
fn arb_rov_case() -> impl Strategy<
    Value = (
        Vec<RoutePick>,
        Vec<(prop::sample::Index, u16, u8, u32)>,
        Vec<(RoutePick, u8, u32)>,
        Vec<(bool, prop::sample::Index)>,
    ),
> {
    let route = || (any::<bool>(), any::<u128>(), any::<u16>());
    (
        prop::collection::vec(route(), 1..4),
        prop::collection::vec(
            (
                any::<prop::sample::Index>(),
                any::<u16>(),
                any::<u8>(),
                1u32..4,
            ),
            0..24,
        ),
        prop::collection::vec((route(), any::<u8>(), 1u32..4), 0..6),
        prop::collection::vec((any::<bool>(), any::<prop::sample::Index>()), 0..24),
    )
}

/// `validator` answers every route and origin as RFC 6811 read off a
/// scan of `sorted` (the set's canonical order): a VRP covers a route
/// when its prefix covers the route's; `validate` and the three
/// `validity` lists, contents and order, must agree with that scan.
fn assert_matches_scan(
    validator: &RouteOriginValidator,
    sorted: &BTreeSet<VrpTriple>,
    routes: &[IpPrefix],
) {
    for route in routes {
        for origin in (0..5).map(Asn::new) {
            let mut expected = ValidityDetail {
                state: RpkiState::NotFound,
                matched: Vec::new(),
                unmatched_asn: Vec::new(),
                unmatched_length: Vec::new(),
            };
            for vrp in sorted.iter().filter(|v| v.prefix.covers(route)) {
                if vrp.asn != origin {
                    expected.unmatched_asn.push(*vrp);
                } else if route.len() > vrp.max_length {
                    expected.unmatched_length.push(*vrp);
                } else {
                    expected.matched.push(*vrp);
                }
            }
            expected.state = if !expected.matched.is_empty() {
                RpkiState::Valid
            } else if expected.unmatched_asn.is_empty() && expected.unmatched_length.is_empty() {
                RpkiState::NotFound
            } else {
                RpkiState::Invalid
            };
            prop_assert_eq!(
                validator.validate(route, origin),
                expected.state,
                "{} {}",
                route,
                origin
            );
            prop_assert_eq!(
                validator.validity(route, origin),
                expected,
                "{} {}",
                route,
                origin
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// ROV agrees with the RFC 6811 definition evaluated naively, over
    /// both families and every length from `/0` to host routes, with
    /// most VRPs on the routes' own masks so that Valid and Invalid
    /// verdicts are common. A validator over a set advanced by inserts
    /// and removes equals one built from scratch, down to the per-length
    /// counts its lookups probe.
    #[test]
    fn rov_matches_naive_oracle(
        (routes, own, noise, edits) in arb_rov_case(),
    ) {
        let routes: Vec<IpPrefix> = routes.into_iter().map(route_prefix).collect();
        let pool: Vec<VrpTriple> = own
            .iter()
            .map(|(i, len, extra, asn)| vrp_on(routes[i.index(routes.len())], *len, *extra, *asn))
            .chain(noise.iter().map(|(r, extra, asn)| vrp_on(route_prefix(*r), r.2 / 3, *extra, *asn)))
            .collect();
        let all: BTreeSet<VrpTriple> = pool.iter().copied().collect();
        assert_matches_scan(&RouteOriginValidator::from_vrps(pool.iter().copied()), &all, &routes);

        // Start from half the pool, then insert and remove at random.
        let mut model: BTreeSet<VrpTriple> = pool.iter().step_by(2).copied().collect();
        let mut set: VrpSet = model.iter().copied().collect();
        if !pool.is_empty() {
            for (insert, i) in &edits {
                let vrp = pool[i.index(pool.len())];
                if *insert {
                    prop_assert_eq!(set.insert(vrp), model.insert(vrp));
                } else {
                    prop_assert_eq!(set.remove(&vrp), model.remove(&vrp));
                }
            }
        }
        let advanced = RouteOriginValidator::from(set);
        let scratch = RouteOriginValidator::from_vrps(model.iter().copied());
        prop_assert!(advanced.vrps() == scratch.vrps());
        for family in [Family::V4, Family::V6] {
            prop_assert_eq!(
                advanced.vrps().length_counts(family),
                scratch.vrps().length_counts(family)
            );
        }
        assert_matches_scan(&advanced, &model, &routes);
    }
}

proptest! {
    /// Propagation over random topologies produces valley-free,
    /// loop-free, connected-to-origin routes.
    #[test]
    fn propagation_invariants(
        seed in 0u64..500,
        tier1 in 2usize..4,
        mid in 2usize..12,
        stubs in 2usize..40,
        origin_pick in any::<prop::sample::Index>(),
    ) {
        let topo = Topology::generate(seed, tier1, mid, stubs, 0.1);
        let asns: Vec<Asn> = topo.asns().collect();
        let origin = asns[origin_pick.index(asns.len())];
        let out = propagate(&topo, &[origin], &accept_all);

        // Everyone is routed: generated topologies are connected.
        prop_assert_eq!(out.routed_count(), topo.len());

        for (asn, route) in out.iter() {
            prop_assert_eq!(route.origin, origin);
            if route.kind == RouteKind::Origin {
                prop_assert_eq!(asn, origin);
                continue;
            }
            // Path ends at the origin and starts at the next hop.
            prop_assert_eq!(*route.path.last().unwrap(), origin);
            prop_assert_eq!(route.path.first().copied(), route.next_hop);
            // Loop-free.
            let mut seen = std::collections::HashSet::new();
            seen.insert(asn);
            for hop in &route.path {
                prop_assert!(seen.insert(*hop));
            }
            // Valley-free along the full path: once the walk (from the
            // traffic's perspective) goes down (provider→customer) or
            // sideways (peer), it may never go up or sideways again.
            let full: Vec<Asn> = std::iter::once(asn).chain(route.path.iter().copied()).collect();
            let mut descending = false;
            let mut peer_used = false;
            for w in full.windows(2) {
                let rel = topo.relationship(w[0], w[1]).expect("adjacent hops");
                match rel {
                    Relationship::Provider => {
                        // Traffic goes from customer up to provider.
                        prop_assert!(!descending && !peer_used, "valley in path");
                    }
                    Relationship::Peer => {
                        prop_assert!(!descending && !peer_used, "second lateral move");
                        peer_used = true;
                    }
                    Relationship::Customer => {
                        descending = true;
                    }
                }
            }
        }
    }

    /// Table dumps round-trip arbitrary RIBs.
    #[test]
    fn dump_roundtrip(
        entries in prop::collection::vec(
            (arb_prefix(), prop::collection::vec(1u32..100_000, 1..6), 1u32..100),
            0..40,
        )
    ) {
        let mut rib = Rib::new();
        for (prefix, path, peer) in &entries {
            rib.insert(RibEntry {
                prefix: *prefix,
                path: AsPath::sequence(path.iter().copied()),
                peer: Asn::new(*peer),
            });
        }
        let text = TableDump::to_string(&rib);
        let back = TableDump::parse(&text).unwrap();
        prop_assert_eq!(back.len(), rib.len());
        prop_assert_eq!(TableDump::to_string(&back), text);
    }

    /// Step-3 lookups return exactly the covering prefixes of an address.
    #[test]
    fn rib_lookup_matches_filter(
        entries in prop::collection::vec((arb_prefix(), 1u32..1000), 1..60),
        addr in any::<u32>(),
    ) {
        let mut rib = Rib::new();
        for (prefix, origin) in &entries {
            rib.insert(RibEntry {
                prefix: *prefix,
                path: AsPath::sequence([100, *origin]),
                peer: Asn::new(1),
            });
        }
        let addr = std::net::IpAddr::V4(Ipv4Addr::from(addr));
        let mapping = rib.origins_for_addr(addr);
        let mut expected: Vec<(IpPrefix, Asn)> = entries
            .iter()
            .filter(|(p, _)| p.contains_addr(addr))
            .map(|(p, o)| (*p, Asn::new(*o)))
            .collect();
        expected.sort();
        expected.dedup();
        let got: Vec<(IpPrefix, Asn)> =
            mapping.pairs.iter().map(|po| (po.prefix, po.origin)).collect();
        prop_assert_eq!(got, expected);
    }
}
