//! Resource certificates (RFC 6487, simplified).
//!
//! One struct serves both certificate kinds:
//!
//! * **CA certificates** (`is_ca = true`) delegate resources down the
//!   hierarchy; their subject keys sign child certificates, CRLs, and
//!   manifests.
//! * **End-entity certificates** (`is_ca = false`) are one-time keys that
//!   sign a single object (a ROA).
//!
//! The to-be-signed (TBS) portion is the canonical TLV encoding of all
//! fields except the signature; the issuer signs exactly those bytes, so
//! any field mutation is detected at verification time.

use crate::resources::Resources;
use crate::time::Validity;
use ripki_crypto::keystore::KeyId;
use ripki_crypto::schnorr::{PublicKey, SecretKey, Signature};
use ripki_crypto::sha256::{sha256, Digest};
use ripki_crypto::tlv::{Reader, TlvError, Writer};
use std::fmt;

/// A resource certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cert {
    /// Serial number, unique per issuer (CRLs revoke by serial).
    pub serial: u64,
    /// Human-readable subject, e.g. `"RIPE"` or `"ISP-204 production"`.
    pub subject: String,
    /// The subject's public key.
    pub subject_key: PublicKey,
    /// Authority key identifier: hash of the issuer's public key. For
    /// self-signed trust-anchor certificates this equals the subject's own
    /// key id.
    pub issuer_key_id: KeyId,
    /// Validity window.
    pub validity: Validity,
    /// RFC 3779 resources the certificate speaks for.
    pub resources: Resources,
    /// Whether the subject may act as a CA.
    pub is_ca: bool,
    /// Issuer's signature over [`tbs_bytes`](Cert::tbs_bytes).
    pub signature: Signature,
}

impl Cert {
    /// Canonical to-be-signed encoding.
    pub fn tbs_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(0x01, self.serial)
            .put_str(0x02, &self.subject)
            .put_u128(0x03, self.subject_key.element())
            .put_bytes(0x04, self.issuer_key_id.0.as_bytes())
            .put_u64(0x05, self.validity.not_before.0)
            .put_u64(0x06, self.validity.not_after.0)
            .put_u8(0x07, self.is_ca as u8);
        self.resources.encode(&mut w);
        w.finish().to_vec()
    }

    /// Full canonical encoding including the signature — the bytes whose
    /// hash appears in manifests.
    pub fn encoded(&self) -> Vec<u8> {
        let mut bytes = self.tbs_bytes();
        bytes.extend_from_slice(&self.signature.to_bytes());
        bytes
    }

    /// SHA-256 over [`encoded`](Cert::encoded); manifests list this.
    pub fn digest(&self) -> Digest {
        sha256(&self.encoded())
    }

    /// Key identifier of the subject key.
    pub fn subject_key_id(&self) -> KeyId {
        KeyId::of(&self.subject_key)
    }

    /// Whether this certificate claims to be self-signed (a trust anchor).
    pub fn is_self_signed(&self) -> bool {
        self.subject_key_id() == self.issuer_key_id
    }

    /// Verify the signature against the issuer's public key.
    pub fn verify_signature(&self, issuer_key: &PublicKey) -> bool {
        issuer_key
            .verify(&self.tbs_bytes(), &self.signature)
            .is_ok()
    }

    /// Decode a certificate from its [`encoded`](Cert::encoded) bytes.
    pub fn decode(bytes: &[u8]) -> Result<Cert, TlvError> {
        if bytes.len() < 32 {
            return Err(TlvError::Truncated);
        }
        let (tbs, sig) = bytes.split_at(bytes.len() - 32);
        let mut r = Reader::new(tbs);
        let serial = r.get_u64(0x01)?;
        let subject = r.get_str(0x02)?.to_string();
        let subject_key = PublicKey::from_element(r.get_u128(0x03)?);
        let issuer_raw = r.get_bytes(0x04)?;
        if issuer_raw.len() != 32 {
            return Err(TlvError::BadLength {
                tag: 0x04,
                expected: 32,
                found: issuer_raw.len(),
            });
        }
        let mut issuer_digest = [0u8; 32];
        issuer_digest.copy_from_slice(issuer_raw);
        let not_before = crate::time::SimTime(r.get_u64(0x05)?);
        let not_after = crate::time::SimTime(r.get_u64(0x06)?);
        let is_ca = r.get_u8(0x07)? != 0;
        let resources = Resources::decode(&mut r)?;
        r.finish()?;
        let mut sig_bytes = [0u8; 32];
        sig_bytes.copy_from_slice(sig);
        Ok(Cert {
            serial,
            subject,
            subject_key,
            issuer_key_id: KeyId(ripki_crypto::sha256::Digest(issuer_digest)),
            validity: Validity::new(not_before, not_after),
            resources,
            is_ca,
            signature: Signature::from_bytes(&sig_bytes),
        })
    }

    /// Issue a certificate: fills all fields and signs with `issuer_key`.
    #[allow(clippy::too_many_arguments)]
    pub fn issue(
        serial: u64,
        subject: &str,
        subject_key: PublicKey,
        issuer_secret: &SecretKey,
        issuer_key_id: KeyId,
        validity: Validity,
        resources: Resources,
        is_ca: bool,
    ) -> Cert {
        let mut cert = Cert {
            serial,
            subject: subject.to_string(),
            subject_key,
            issuer_key_id,
            validity,
            resources,
            is_ca,
            signature: Signature { e: 1, s: 0 },
        };
        cert.signature = issuer_secret.sign(&cert.tbs_bytes());
        cert
    }
}

impl fmt::Display for Cert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cert #{} \"{}\" ({})",
            if self.is_ca { "CA" } else { "EE" },
            self.serial,
            self.subject,
            self.validity,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{Duration, SimTime};
    use ripki_crypto::keystore::Keypair;
    use ripki_net::IpPrefix;

    fn keys(label: &str) -> Keypair {
        Keypair::derive(1, label)
    }

    fn validity() -> Validity {
        Validity::starting(SimTime::EPOCH, Duration::years(1))
    }

    fn issue_simple(issuer: &Keypair, subject: &Keypair, is_ca: bool) -> Cert {
        Cert::issue(
            7,
            "test subject",
            subject.public,
            &issuer.secret,
            issuer.key_id,
            validity(),
            Resources::from_prefixes(vec!["10.0.0.0/8".parse::<IpPrefix>().unwrap()]),
            is_ca,
        )
    }

    #[test]
    fn issue_and_verify() {
        let issuer = keys("issuer");
        let subject = keys("subject");
        let cert = issue_simple(&issuer, &subject, true);
        assert!(cert.verify_signature(&issuer.public));
        assert!(!cert.verify_signature(&subject.public));
        assert!(!cert.is_self_signed());
        assert_eq!(cert.subject_key_id(), subject.key_id);
    }

    #[test]
    fn self_signed_detection() {
        let ta = keys("ta");
        let cert = Cert::issue(
            1,
            "root",
            ta.public,
            &ta.secret,
            ta.key_id,
            validity(),
            Resources::empty(),
            true,
        );
        assert!(cert.is_self_signed());
        assert!(cert.verify_signature(&ta.public));
    }

    #[test]
    fn any_field_mutation_breaks_signature() {
        let issuer = keys("issuer");
        let subject = keys("subject");
        let cert = issue_simple(&issuer, &subject, true);

        let mut m = cert.clone();
        m.serial += 1;
        assert!(!m.verify_signature(&issuer.public));

        let mut m = cert.clone();
        m.subject.push('x');
        assert!(!m.verify_signature(&issuer.public));

        let mut m = cert.clone();
        m.validity.not_after = m.validity.not_after + Duration::years(10);
        assert!(!m.verify_signature(&issuer.public));

        let mut m = cert.clone();
        m.resources = Resources::from_prefixes(vec![
            "10.0.0.0/8".parse::<IpPrefix>().unwrap(),
            "11.0.0.0/8".parse::<IpPrefix>().unwrap(),
        ]);
        assert!(!m.verify_signature(&issuer.public));

        let mut m = cert.clone();
        m.is_ca = false;
        assert!(!m.verify_signature(&issuer.public));

        let mut m = cert.clone();
        m.subject_key = keys("other").public;
        assert!(!m.verify_signature(&issuer.public));
    }

    #[test]
    fn digest_covers_signature() {
        let issuer = keys("issuer");
        let subject = keys("subject");
        let a = issue_simple(&issuer, &subject, true);
        let mut b = a.clone();
        b.signature = Signature {
            e: a.signature.e ^ 1,
            s: a.signature.s,
        };
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn display_mentions_kind() {
        let issuer = keys("issuer");
        let subject = keys("subject");
        assert!(issue_simple(&issuer, &subject, true)
            .to_string()
            .starts_with("CA"));
        assert!(issue_simple(&issuer, &subject, false)
            .to_string()
            .starts_with("EE"));
    }
}
