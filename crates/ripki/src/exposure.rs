//! Hijack exposure of measured domains — the paper's two halves joined.
//!
//! §2.3 supplies the attacker model (prefix hijacking of web-server
//! infrastructure); §4 measures who is protected. This module composes
//! them: for measured domains, simulate origin hijacks of their actual
//! hosting prefixes on the scenario's real AS topology, under a partially
//! ROV-deployed world using the *measured* VRPs. The result is the
//! paper's tragedy as a single number per domain: the fraction of the
//! Internet an attacker captures.
//!
//! Because popular domains are less RPKI-covered (Fig 2) their expected
//! capture rate is *higher* — "prominent websites would be better
//! protected against routing attacks without CDNs".

use crate::pipeline::DomainMeasurement;
use crate::stats::BinnedSeries;
use ripki_bgp::hijack::{run, HijackScenario};
use ripki_bgp::rov::RouteOriginValidator;
use ripki_bgp::topology::Topology;
use ripki_net::Asn;
use std::collections::BTreeSet;

/// Configuration of the exposure experiment.
#[derive(Debug, Clone)]
pub struct ExposureConfig {
    /// Fraction of ASes deploying ROV (deterministically selected).
    pub rov_deployment: f64,
    /// Attackers sampled per domain (stub ASes, deterministic).
    pub attackers_per_domain: usize,
    /// Measure every `stride`-th domain (1 = all; exposure runs a full
    /// routing propagation per attacker, so sampling keeps cost linear).
    pub stride: usize,
    /// Seed for attacker/deployment selection.
    pub seed: u64,
    /// ASes that filter Invalids regardless of the sampled
    /// `rov_deployment` fraction — counterfactual levers ("operators of
    /// the top-k ranks drop Invalid routes") layered on top of the same
    /// deterministic base deployment so baseline and what-if runs stay
    /// comparable.
    pub extra_deployers: Vec<Asn>,
}

impl Default for ExposureConfig {
    fn default() -> ExposureConfig {
        ExposureConfig {
            rov_deployment: 0.5,
            attackers_per_domain: 3,
            stride: 50,
            seed: 7,
            extra_deployers: Vec::new(),
        }
    }
}

/// Per-domain outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainExposure {
    /// Rank of the domain.
    pub rank: usize,
    /// Mean capture rate over the sampled attackers (0 = fully defended).
    pub capture_rate: f64,
    /// Whether the domain's measured pairs were all RPKI-covered.
    pub fully_covered: bool,
}

/// Run the exposure experiment over measured domains.
///
/// Domains whose measurement produced no usable (prefix, origin) pair,
/// or whose origin AS is not in the topology, are skipped.
pub fn exposure_curve<'a>(
    domains: impl IntoIterator<Item = &'a DomainMeasurement>,
    topology: &Topology,
    validator: &RouteOriginValidator,
    config: &ExposureConfig,
) -> Vec<DomainExposure> {
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xe9_05_u64);
    // Deterministic ROV deployment set.
    let mut asns: Vec<Asn> = topology.asns().collect();
    asns.shuffle(&mut rng);
    let n_deploy = ((asns.len() as f64) * config.rov_deployment).round() as usize;
    let mut deployed: BTreeSet<Asn> = asns.iter().take(n_deploy).copied().collect();
    deployed.extend(config.extra_deployers.iter().copied());
    // Attacker pool: stub ASes.
    let stubs: Vec<Asn> = topology
        .iter()
        .filter(|(_, node)| node.is_stub())
        .map(|(asn, _)| asn)
        .collect();
    if stubs.is_empty() {
        return Vec::new();
    }

    let mut out = Vec::new();
    for d in domains.into_iter().step_by(config.stride.max(1)) {
        let Some(pair) = d.bare.pairs.first() else {
            continue;
        };
        let victim = pair.origin;
        if !topology.contains(victim) {
            continue;
        }
        let mut rates = Vec::new();
        for k in 0..config.attackers_per_domain {
            let attacker = stubs[(d.rank * 31 + k * 7 + config.seed as usize) % stubs.len()];
            if attacker == victim {
                continue;
            }
            let scenario = HijackScenario::origin_hijack(victim, attacker, pair.prefix);
            let outcome = run(topology, &scenario, validator, &deployed);
            rates.push(outcome.capture_rate());
        }
        if rates.is_empty() {
            continue;
        }
        let capture_rate = rates.iter().sum::<f64>() / rates.len() as f64;
        let fully_covered = d.bare.covered_fraction() == Some(1.0);
        out.push(DomainExposure {
            rank: d.rank,
            capture_rate,
            fully_covered,
        });
    }
    out
}

/// Bin the exposure curve like the figures.
pub fn binned(exposures: &[DomainExposure], total: usize, bin: usize) -> BinnedSeries {
    BinnedSeries::from_samples(
        exposures.iter().map(|e| (e.rank, Some(e.capture_rate))),
        total,
        bin,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{NameMeasurement, PairState};
    use ripki_bgp::rov::{RpkiState, VrpTriple};
    use ripki_dns::DomainName;
    use ripki_net::IpPrefix;

    fn topology() -> Topology {
        Topology::generate(3, 3, 10, 60, 0.1)
    }

    fn dm(rank: usize, prefix: &str, origin: u32, state: RpkiState) -> DomainMeasurement {
        DomainMeasurement {
            rank,
            listed: DomainName::parse(&format!("d{rank}.example")).unwrap(),
            www: NameMeasurement::default(),
            bare: NameMeasurement {
                pairs: vec![PairState {
                    prefix: prefix.parse().unwrap(),
                    origin: Asn::new(origin),
                    state,
                }],
                ..Default::default()
            },
        }
    }

    #[test]
    fn covered_domains_are_less_exposed_under_rov() {
        let topo = topology();
        let prefix: IpPrefix = "85.1.0.0/16".parse().unwrap();
        // Victim AS 10_000 (a stub) is ROA-covered; AS 10_001 is not.
        let validator = RouteOriginValidator::from_vrps([VrpTriple {
            prefix,
            max_length: 16,
            asn: Asn::new(10_000),
        }]);
        let domains = vec![
            dm(0, "85.1.0.0/16", 10_000, RpkiState::Valid),
            dm(1, "85.2.0.0/16", 10_001, RpkiState::NotFound),
        ];
        let config = ExposureConfig {
            rov_deployment: 1.0,
            attackers_per_domain: 4,
            stride: 1,
            seed: 1,
            ..Default::default()
        };
        let exposures = exposure_curve(&domains, &topo, &validator, &config);
        assert_eq!(exposures.len(), 2);
        let covered = &exposures[0];
        let uncovered = &exposures[1];
        assert!(covered.fully_covered);
        assert_eq!(covered.capture_rate, 0.0, "full ROV + ROA = defended");
        assert!(!uncovered.fully_covered);
        assert!(uncovered.capture_rate > 0.0, "no ROA = still hijackable");
    }

    #[test]
    fn zero_rov_deployment_leaves_everyone_exposed() {
        let topo = topology();
        let prefix: IpPrefix = "85.1.0.0/16".parse().unwrap();
        let validator = RouteOriginValidator::from_vrps([VrpTriple {
            prefix,
            max_length: 16,
            asn: Asn::new(10_000),
        }]);
        let domains = vec![dm(0, "85.1.0.0/16", 10_000, RpkiState::Valid)];
        let config = ExposureConfig {
            rov_deployment: 0.0,
            attackers_per_domain: 3,
            stride: 1,
            seed: 2,
            ..Default::default()
        };
        let exposures = exposure_curve(&domains, &topo, &validator, &config);
        assert!(exposures[0].capture_rate > 0.0, "ROA without ROV is inert");
    }

    #[test]
    fn extra_deployers_filter_on_top_of_the_sampled_fraction() {
        let topo = topology();
        let prefix: IpPrefix = "85.1.0.0/16".parse().unwrap();
        let validator = RouteOriginValidator::from_vrps([VrpTriple {
            prefix,
            max_length: 16,
            asn: Asn::new(10_000),
        }]);
        let domains = vec![dm(0, "85.1.0.0/16", 10_000, RpkiState::Valid)];
        let base = ExposureConfig {
            rov_deployment: 0.0,
            attackers_per_domain: 3,
            stride: 1,
            seed: 2,
            ..Default::default()
        };
        let exposed = exposure_curve(&domains, &topo, &validator, &base);
        // Same config, but every AS additionally drops Invalids: the
        // counterfactual lever alone must flip the outcome.
        let config = ExposureConfig {
            extra_deployers: topo.asns().collect(),
            ..base
        };
        let defended = exposure_curve(&domains, &topo, &validator, &config);
        assert!(exposed[0].capture_rate > 0.0);
        assert_eq!(defended[0].capture_rate, 0.0, "extra deployers filter");
    }

    #[test]
    fn skips_unmeasurable_domains() {
        let topo = topology();
        let validator = RouteOriginValidator::new();
        let empty = DomainMeasurement {
            rank: 0,
            listed: DomainName::parse("x.example").unwrap(),
            www: NameMeasurement::default(),
            bare: NameMeasurement::default(),
        };
        let off_topology = dm(1, "9.9.0.0/16", 4_000_000, RpkiState::NotFound);
        let exposures = exposure_curve(
            &[empty, off_topology],
            &topo,
            &validator,
            &ExposureConfig {
                stride: 1,
                ..Default::default()
            },
        );
        assert!(exposures.is_empty());
    }

    #[test]
    fn stride_samples() {
        let topo = topology();
        let validator = RouteOriginValidator::new();
        let domains: Vec<DomainMeasurement> = (0..10)
            .map(|r| dm(r, "85.1.0.0/16", 10_000, RpkiState::NotFound))
            .collect();
        let exposures = exposure_curve(
            &domains,
            &topo,
            &validator,
            &ExposureConfig {
                stride: 4,
                attackers_per_domain: 1,
                ..Default::default()
            },
        );
        assert_eq!(exposures.len(), 3); // ranks 0, 4, 8
        let series = binned(&exposures, 10, 5);
        assert_eq!(series.len(), 2);
    }
}
