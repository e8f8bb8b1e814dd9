//! Route Origin Authorizations (RFC 6482, simplified).
//!
//! A ROA states: "origin AS *a* is authorized to announce these prefixes,
//! each up to `maxLength` specific". Real ROAs are CMS signed-objects
//! wrapped around a one-time end-entity certificate; we keep exactly that
//! two-layer structure — [`Roa::ee`] is an EE certificate issued by the
//! publishing CA, and the ROA content is signed by the EE key — because
//! the paper's step 4 relies on the full chain being checked.

use crate::cert::Cert;
use crate::time::Validity;
use ripki_crypto::keystore::{KeyId, Keypair};
use ripki_crypto::schnorr::{SecretKey, Signature};
use ripki_crypto::sha256::{sha256, Digest};
use ripki_crypto::tlv::{Reader, TlvError, Writer};
use ripki_net::{Asn, IpPrefix, PrefixSet};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One prefix entry of a ROA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RoaPrefix {
    /// The authorized prefix.
    pub prefix: IpPrefix,
    /// Longest more-specific announcement permitted. `None` means "the
    /// prefix length itself" (RFC 6482 default).
    pub max_length: Option<u8>,
}

impl RoaPrefix {
    /// Entry with the default max-length.
    pub fn exact(prefix: IpPrefix) -> RoaPrefix {
        RoaPrefix {
            prefix,
            max_length: None,
        }
    }

    /// Entry allowing more-specifics up to `max_length`.
    pub fn up_to(prefix: IpPrefix, max_length: u8) -> RoaPrefix {
        RoaPrefix {
            prefix,
            max_length: Some(max_length),
        }
    }

    /// Effective max length (the prefix's own length if unset).
    pub fn effective_max_length(&self) -> u8 {
        self.max_length.unwrap_or_else(|| self.prefix.len())
    }

    /// Whether the entry is internally consistent:
    /// `prefix.len() <= maxLength <= family bits`.
    pub fn is_well_formed(&self) -> bool {
        let ml = self.effective_max_length();
        self.prefix.len() <= ml && ml <= self.prefix.family().bits()
    }
}

impl fmt::Display for RoaPrefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.max_length {
            Some(ml) => write!(f, "{}-{}", self.prefix, ml),
            None => write!(f, "{}", self.prefix),
        }
    }
}

/// A Route Origin Authorization signed object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Roa {
    /// The embedded one-time end-entity certificate (issued by the
    /// publishing CA; its resources must cover the ROA's prefixes).
    pub ee: Cert,
    /// The authorized origin AS.
    pub asn: Asn,
    /// The authorized prefixes.
    pub prefixes: Vec<RoaPrefix>,
    /// EE-key signature over the content bytes.
    pub signature: Signature,
}

impl Roa {
    /// Canonical encoding of the ROA content (the signed part).
    pub fn content_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u32(0x01, self.asn.value());
        w.put_u32(0x02, self.prefixes.len() as u32);
        for rp in &self.prefixes {
            w.put_str(0x03, &rp.prefix.to_string());
            w.put_u8(0x04, rp.max_length.map_or(0, |m| m + 1));
        }
        w.finish().to_vec()
    }

    /// Full encoding (EE cert + content + signature); hashed in manifests.
    pub fn encoded(&self) -> Vec<u8> {
        let mut bytes = self.ee.encoded();
        bytes.extend_from_slice(&self.content_bytes());
        bytes.extend_from_slice(&self.signature.to_bytes());
        bytes
    }

    /// SHA-256 of the full encoding.
    pub fn digest(&self) -> Digest {
        sha256(&self.encoded())
    }

    /// Self-delimiting encoding for archives: the EE certificate,
    /// content, and signature each framed in an outer TLV.
    pub fn archive_encoded(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_bytes(0x20, &self.ee.encoded());
        w.put_bytes(0x21, &self.content_bytes());
        w.put_bytes(0x22, &self.signature.to_bytes());
        w.finish().to_vec()
    }

    /// Decode from [`archive_encoded`](Roa::archive_encoded) bytes.
    pub fn decode(bytes: &[u8]) -> Result<Roa, TlvError> {
        let mut r = Reader::new(bytes);
        let ee = crate::cert::Cert::decode(r.get_bytes(0x20)?)?;
        let content = r.get_bytes(0x21)?;
        let sig_raw = r.get_bytes(0x22)?;
        if sig_raw.len() != 32 {
            return Err(TlvError::BadLength {
                tag: 0x22,
                expected: 32,
                found: sig_raw.len(),
            });
        }
        r.finish()?;
        let mut c = Reader::new(content);
        let asn = Asn::new(c.get_u32(0x01)?);
        let count = c.get_u32(0x02)?;
        let mut prefixes = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let prefix: IpPrefix = c.get_str(0x03)?.parse().map_err(|_| TlvError::BadUtf8)?;
            let raw_ml = c.get_u8(0x04)?;
            let max_length = if raw_ml == 0 { None } else { Some(raw_ml - 1) };
            prefixes.push(RoaPrefix { prefix, max_length });
        }
        c.finish()?;
        let mut sig_bytes = [0u8; 32];
        sig_bytes.copy_from_slice(sig_raw);
        Ok(Roa {
            ee,
            asn,
            prefixes,
            signature: Signature::from_bytes(&sig_bytes),
        })
    }

    /// The prefix set claimed by the ROA (for resource checks).
    pub fn claimed_prefixes(&self) -> PrefixSet {
        PrefixSet::from_prefixes(self.prefixes.iter().map(|rp| rp.prefix))
    }

    /// Verify the EE signature over the content (not the chain; the
    /// validator does chain checks).
    pub fn verify_content_signature(&self) -> bool {
        self.ee
            .subject_key
            .verify(&self.content_bytes(), &self.signature)
            .is_ok()
    }

    /// Create a ROA: derives a one-time EE key, has the CA issue the EE
    /// certificate over exactly the ROA's prefixes, and signs the content.
    ///
    /// `ee_seed` must be unique per ROA (the builder passes a counter).
    pub fn create(
        ca_secret: &SecretKey,
        ca_key_id: KeyId,
        ee_serial: u64,
        ee_seed: (u64, &str),
        asn: Asn,
        prefixes: Vec<RoaPrefix>,
        validity: Validity,
    ) -> Roa {
        let ee_keys = Keypair::derive(ee_seed.0, ee_seed.1);
        let resources =
            crate::resources::Resources::from_prefixes(prefixes.iter().map(|rp| rp.prefix));
        let ee = Cert::issue(
            ee_serial,
            &format!("ROA EE for {asn}"),
            ee_keys.public,
            ca_secret,
            ca_key_id,
            validity,
            resources,
            false,
        );
        let mut roa = Roa {
            ee,
            asn,
            prefixes,
            signature: Signature { e: 1, s: 0 },
        };
        roa.signature = ee_keys.secret.sign(&roa.content_bytes());
        roa
    }
}

impl fmt::Display for Roa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ROA {} ← [", self.asn)?;
        for (i, rp) in self.prefixes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{rp}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{Duration, SimTime};

    fn p(s: &str) -> IpPrefix {
        s.parse().unwrap()
    }

    fn make() -> (Keypair, Roa) {
        let ca = Keypair::derive(3, "roa-ca");
        let roa = Roa::create(
            &ca.secret,
            ca.key_id,
            100,
            (3, "roa-ee-1"),
            Asn::new(65010),
            vec![
                RoaPrefix::exact(p("203.0.113.0/24")),
                RoaPrefix::up_to(p("198.51.100.0/24"), 28),
            ],
            Validity::starting(SimTime::EPOCH, Duration::years(1)),
        );
        (ca, roa)
    }

    #[test]
    fn create_verifies_end_to_end() {
        let (ca, roa) = make();
        assert!(roa.verify_content_signature());
        assert!(roa.ee.verify_signature(&ca.public));
        assert!(!roa.ee.is_ca);
        assert_eq!(roa.ee.issuer_key_id, ca.key_id);
    }

    #[test]
    fn ee_resources_cover_exactly_the_roa_prefixes() {
        let (_, roa) = make();
        assert!(roa
            .ee
            .resources
            .prefixes
            .encompasses(&roa.claimed_prefixes()));
        assert_eq!(roa.ee.resources.prefixes.len(), 2);
    }

    #[test]
    fn content_tamper_detected() {
        let (_, roa) = make();
        let mut t = roa.clone();
        t.asn = Asn::new(65011);
        assert!(!t.verify_content_signature());

        let mut t = roa.clone();
        t.prefixes[0] = RoaPrefix::exact(p("203.0.112.0/24"));
        assert!(!t.verify_content_signature());

        let mut t = roa.clone();
        t.prefixes[1].max_length = Some(30);
        assert!(!t.verify_content_signature());

        // maxLength None vs Some(len) must encode differently.
        let mut t = roa.clone();
        t.prefixes[0].max_length = Some(24);
        assert!(!t.verify_content_signature());
    }

    #[test]
    fn digests_differ_between_roas() {
        let (ca, roa) = make();
        let other = Roa::create(
            &ca.secret,
            ca.key_id,
            101,
            (3, "roa-ee-2"),
            Asn::new(65010),
            vec![RoaPrefix::exact(p("192.0.2.0/24"))],
            Validity::starting(SimTime::EPOCH, Duration::years(1)),
        );
        assert_ne!(roa.digest(), other.digest());
    }

    #[test]
    fn roa_prefix_well_formedness() {
        assert!(RoaPrefix::exact(p("10.0.0.0/8")).is_well_formed());
        assert!(RoaPrefix::up_to(p("10.0.0.0/8"), 24).is_well_formed());
        assert!(!RoaPrefix::up_to(p("10.0.0.0/8"), 7).is_well_formed());
        assert!(!RoaPrefix::up_to(p("10.0.0.0/8"), 33).is_well_formed());
        assert!(RoaPrefix::up_to(p("2001:db8::/32"), 128).is_well_formed());
        assert_eq!(RoaPrefix::exact(p("10.0.0.0/8")).effective_max_length(), 8);
        assert_eq!(
            RoaPrefix::up_to(p("10.0.0.0/8"), 24).effective_max_length(),
            24
        );
    }

    #[test]
    fn display_forms() {
        let (_, roa) = make();
        let s = roa.to_string();
        assert!(s.contains("AS65010"));
        assert!(s.contains("203.0.113.0/24"));
        assert!(s.contains("198.51.100.0/24-28"));
    }
}
