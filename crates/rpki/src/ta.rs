//! Trust anchors.
//!
//! The RPKI has five roots, one per Regional Internet Registry. Relying
//! parties learn them out-of-band through Trust Anchor Locators (TALs);
//! here the [`TrustAnchor`] value itself plays the TAL's role: holding one
//! means trusting its self-signed certificate.

use crate::cert::Cert;
use std::fmt;

/// The five RIR trust anchors the paper collects ROAs from.
pub const RIR_NAMES: [&str; 5] = ["AFRINIC", "APNIC", "ARIN", "LACNIC", "RIPE"];

/// A trust anchor: a named, self-signed CA certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrustAnchor {
    /// Registry name, e.g. `"RIPE"`.
    pub name: String,
    /// The self-signed certificate.
    pub cert: Cert,
}

impl TrustAnchor {
    /// Wrap a self-signed certificate as a trust anchor.
    ///
    /// Panics in debug builds if the certificate is not self-signed;
    /// the repository builder only produces conforming anchors.
    pub fn new(name: impl Into<String>, cert: Cert) -> TrustAnchor {
        debug_assert!(cert.is_self_signed(), "trust anchors must be self-signed");
        TrustAnchor {
            name: name.into(),
            cert,
        }
    }
}

impl fmt::Display for TrustAnchor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TA {} ({})", self.name, self.cert)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::Resources;
    use crate::time::{Duration, SimTime, Validity};
    use ripki_crypto::keystore::Keypair;

    #[test]
    fn wraps_self_signed_cert() {
        let keys = Keypair::derive(11, "ta/test");
        let cert = Cert::issue(
            1,
            "test root",
            keys.public,
            &keys.secret,
            keys.key_id,
            Validity::starting(SimTime::EPOCH, Duration::years(10)),
            Resources::empty(),
            true,
        );
        let ta = TrustAnchor::new("TEST", cert);
        assert!(ta.cert.is_self_signed());
        assert!(ta.to_string().contains("TA TEST"));
    }

    #[test]
    fn five_rirs() {
        assert_eq!(RIR_NAMES.len(), 5);
        assert!(RIR_NAMES.contains(&"RIPE"));
        assert!(RIR_NAMES.contains(&"ARIN"));
    }
}
