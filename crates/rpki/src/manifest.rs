//! Manifests (RFC 6486, simplified).
//!
//! A manifest enumerates every object published at a publication point
//! together with its SHA-256 hash. Validators use it to detect deleted,
//! substituted, or corrupted repository content: an object missing from
//! the repository, present but absent from the manifest, or hashing to a
//! different value than listed makes the publication point inconsistent.

use crate::time::{SimTime, Validity};
use ripki_crypto::keystore::KeyId;
use ripki_crypto::schnorr::{PublicKey, SecretKey, Signature};
use ripki_crypto::sha256::Digest;
use ripki_crypto::tlv::{Reader, TlvError, Writer};
use std::collections::BTreeMap;
use std::fmt;

/// A per-publication-point manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Key id of the publishing CA.
    pub issuer_key_id: KeyId,
    /// Monotonically increasing manifest number.
    pub manifest_number: u64,
    /// File name → SHA-256 digest, sorted by name (canonical).
    pub entries: BTreeMap<String, Digest>,
    /// thisUpdate/nextUpdate currency window.
    pub validity: Validity,
    /// CA signature over the TBS bytes.
    pub signature: Signature,
}

impl Manifest {
    /// Canonical to-be-signed encoding.
    pub fn tbs_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_bytes(0x01, self.issuer_key_id.0.as_bytes())
            .put_u64(0x02, self.manifest_number)
            .put_u64(0x03, self.validity.not_before.0)
            .put_u64(0x04, self.validity.not_after.0)
            .put_u32(0x05, self.entries.len() as u32);
        for (name, digest) in &self.entries {
            w.put_str(0x06, name);
            w.put_bytes(0x07, digest.as_bytes());
        }
        w.finish().to_vec()
    }

    /// Full encoding including the signature (for archives).
    pub fn encoded(&self) -> Vec<u8> {
        let mut bytes = self.tbs_bytes();
        bytes.extend_from_slice(&self.signature.to_bytes());
        bytes
    }

    /// Decode a manifest from its [`encoded`](Manifest::encoded) bytes.
    pub fn decode(bytes: &[u8]) -> Result<Manifest, TlvError> {
        if bytes.len() < 32 {
            return Err(TlvError::Truncated);
        }
        let (tbs, sig) = bytes.split_at(bytes.len() - 32);
        let mut r = Reader::new(tbs);
        let issuer_raw = r.get_bytes(0x01)?;
        if issuer_raw.len() != 32 {
            return Err(TlvError::BadLength {
                tag: 0x01,
                expected: 32,
                found: issuer_raw.len(),
            });
        }
        let mut issuer_digest = [0u8; 32];
        issuer_digest.copy_from_slice(issuer_raw);
        let manifest_number = r.get_u64(0x02)?;
        let not_before = SimTime(r.get_u64(0x03)?);
        let not_after = SimTime(r.get_u64(0x04)?);
        let count = r.get_u32(0x05)?;
        let mut entries = BTreeMap::new();
        for _ in 0..count {
            let name = r.get_str(0x06)?.to_string();
            let digest_raw = r.get_bytes(0x07)?;
            if digest_raw.len() != 32 {
                return Err(TlvError::BadLength {
                    tag: 0x07,
                    expected: 32,
                    found: digest_raw.len(),
                });
            }
            let mut d = [0u8; 32];
            d.copy_from_slice(digest_raw);
            entries.insert(name, Digest(d));
        }
        r.finish()?;
        let mut sig_bytes = [0u8; 32];
        sig_bytes.copy_from_slice(sig);
        Ok(Manifest {
            issuer_key_id: KeyId(Digest(issuer_digest)),
            manifest_number,
            entries,
            validity: Validity::new(not_before, not_after),
            signature: ripki_crypto::schnorr::Signature::from_bytes(&sig_bytes),
        })
    }

    /// Issue a manifest signed by the CA.
    pub fn issue(
        issuer_secret: &SecretKey,
        issuer_key_id: KeyId,
        manifest_number: u64,
        entries: impl IntoIterator<Item = (String, Digest)>,
        validity: Validity,
    ) -> Manifest {
        let mut mft = Manifest {
            issuer_key_id,
            manifest_number,
            entries: entries.into_iter().collect(),
            validity,
            signature: Signature { e: 1, s: 0 },
        };
        mft.signature = issuer_secret.sign(&mft.tbs_bytes());
        mft
    }

    /// Verify the CA's signature.
    pub fn verify_signature(&self, issuer_key: &PublicKey) -> bool {
        issuer_key
            .verify(&self.tbs_bytes(), &self.signature)
            .is_ok()
    }

    /// Whether the manifest is current at `now`.
    pub fn is_current(&self, now: SimTime) -> bool {
        self.validity.contains(now)
    }

    /// The listed digest for `name`, if present.
    pub fn digest_of(&self, name: &str) -> Option<&Digest> {
        self.entries.get(name)
    }
}

impl fmt::Display for Manifest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "manifest #{} by {} ({} entries, {})",
            self.manifest_number,
            self.issuer_key_id,
            self.entries.len(),
            self.validity,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;
    use ripki_crypto::keystore::Keypair;
    use ripki_crypto::sha256::sha256;

    fn make() -> (Keypair, Manifest) {
        let ca = Keypair::derive(4, "mft-ca");
        let mft = Manifest::issue(
            &ca.secret,
            ca.key_id,
            1,
            vec![
                ("roa-1.roa".to_string(), sha256(b"roa one")),
                ("ca.crl".to_string(), sha256(b"the crl")),
            ],
            Validity::starting(SimTime::EPOCH, Duration::days(1)),
        );
        (ca, mft)
    }

    #[test]
    fn issue_and_verify() {
        let (ca, mft) = make();
        assert!(mft.verify_signature(&ca.public));
        assert_eq!(mft.digest_of("roa-1.roa"), Some(&sha256(b"roa one")));
        assert_eq!(mft.digest_of("absent"), None);
    }

    #[test]
    fn entry_tamper_detected() {
        let (ca, mft) = make();
        let mut t = mft.clone();
        t.entries.insert("roa-1.roa".to_string(), sha256(b"evil"));
        assert!(!t.verify_signature(&ca.public));

        let mut t = mft.clone();
        t.entries.remove("ca.crl");
        assert!(!t.verify_signature(&ca.public));

        let mut t = mft.clone();
        t.entries.insert("extra.roa".to_string(), sha256(b"x"));
        assert!(!t.verify_signature(&ca.public));

        let mut t = mft.clone();
        t.manifest_number += 1;
        assert!(!t.verify_signature(&ca.public));
    }

    #[test]
    fn currency() {
        let (_, mft) = make();
        assert!(mft.is_current(SimTime::EPOCH + Duration::hours(12)));
        assert!(!mft.is_current(SimTime::EPOCH + Duration::days(2)));
    }

    #[test]
    fn entries_are_canonically_sorted() {
        let ca = Keypair::derive(4, "mft-ca");
        let ab = |order: [(&str, &[u8]); 2]| {
            Manifest::issue(
                &ca.secret,
                ca.key_id,
                1,
                order
                    .iter()
                    .map(|(n, d)| (n.to_string(), sha256(d)))
                    .collect::<Vec<_>>(),
                Validity::starting(SimTime::EPOCH, Duration::days(1)),
            )
        };
        let m1 = ab([("a", b"1"), ("b", b"2")]);
        let m2 = ab([("b", b"2"), ("a", b"1")]);
        assert_eq!(m1.tbs_bytes(), m2.tbs_bytes());
        assert_eq!(m1.signature, m2.signature);
    }
}
