//! Certificate revocation lists (RFC 6487 §5, simplified).
//!
//! Each CA publishes exactly one CRL at its publication point. Validators
//! must reject certificates whose serial appears on their issuer's current
//! CRL, and must treat a publication point with a stale CRL as unusable.

use crate::time::{SimTime, Validity};
use ripki_crypto::keystore::KeyId;
use ripki_crypto::schnorr::{PublicKey, SecretKey, Signature};
use ripki_crypto::sha256::{sha256, Digest};
use ripki_crypto::tlv::{Reader, TlvError, Writer};
use std::collections::BTreeSet;
use std::fmt;

/// A CA's revocation list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Crl {
    /// Key id of the issuing CA.
    pub issuer_key_id: KeyId,
    /// Serials of revoked certificates, sorted (canonical).
    pub revoked_serials: BTreeSet<u64>,
    /// thisUpdate/nextUpdate window during which the CRL is current.
    pub validity: Validity,
    /// CA signature over the TBS bytes.
    pub signature: Signature,
}

impl Crl {
    /// Canonical to-be-signed encoding.
    pub fn tbs_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_bytes(0x01, self.issuer_key_id.0.as_bytes())
            .put_u64(0x02, self.validity.not_before.0)
            .put_u64(0x03, self.validity.not_after.0)
            .put_u32(0x04, self.revoked_serials.len() as u32);
        for serial in &self.revoked_serials {
            w.put_u64(0x05, *serial);
        }
        w.finish().to_vec()
    }

    /// Full encoding including signature; hashed into manifests.
    pub fn encoded(&self) -> Vec<u8> {
        let mut bytes = self.tbs_bytes();
        bytes.extend_from_slice(&self.signature.to_bytes());
        bytes
    }

    /// SHA-256 of the full encoding.
    pub fn digest(&self) -> Digest {
        sha256(&self.encoded())
    }

    /// Decode a CRL from its [`encoded`](Crl::encoded) bytes.
    pub fn decode(bytes: &[u8]) -> Result<Crl, TlvError> {
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
        let not_before = crate::time::SimTime(r.get_u64(0x02)?);
        let not_after = crate::time::SimTime(r.get_u64(0x03)?);
        let count = r.get_u32(0x04)?;
        let mut revoked_serials = BTreeSet::new();
        for _ in 0..count {
            revoked_serials.insert(r.get_u64(0x05)?);
        }
        r.finish()?;
        let mut sig_bytes = [0u8; 32];
        sig_bytes.copy_from_slice(sig);
        Ok(Crl {
            issuer_key_id: KeyId(ripki_crypto::sha256::Digest(issuer_digest)),
            revoked_serials,
            validity: Validity::new(not_before, not_after),
            signature: Signature::from_bytes(&sig_bytes),
        })
    }

    /// Issue a CRL signed by `issuer_secret`.
    pub fn issue(
        issuer_secret: &SecretKey,
        issuer_key_id: KeyId,
        revoked_serials: impl IntoIterator<Item = u64>,
        validity: Validity,
    ) -> Crl {
        let mut crl = Crl {
            issuer_key_id,
            revoked_serials: revoked_serials.into_iter().collect(),
            validity,
            signature: Signature { e: 1, s: 0 },
        };
        crl.signature = issuer_secret.sign(&crl.tbs_bytes());
        crl
    }

    /// Verify the CA's signature.
    pub fn verify_signature(&self, issuer_key: &PublicKey) -> bool {
        issuer_key
            .verify(&self.tbs_bytes(), &self.signature)
            .is_ok()
    }

    /// Whether `serial` is revoked by this CRL.
    pub fn is_revoked(&self, serial: u64) -> bool {
        self.revoked_serials.contains(&serial)
    }

    /// Whether the CRL is current at `now`.
    pub fn is_current(&self, now: SimTime) -> bool {
        self.validity.contains(now)
    }
}

impl fmt::Display for Crl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CRL by {} ({} revoked, {})",
            self.issuer_key_id,
            self.revoked_serials.len(),
            self.validity,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;
    use ripki_crypto::keystore::Keypair;

    fn make() -> (Keypair, Crl) {
        let ca = Keypair::derive(9, "crl-ca");
        let crl = Crl::issue(
            &ca.secret,
            ca.key_id,
            [5, 3, 5, 9],
            Validity::starting(SimTime::EPOCH, Duration::days(7)),
        );
        (ca, crl)
    }

    #[test]
    fn issue_verify_and_membership() {
        let (ca, crl) = make();
        assert!(crl.verify_signature(&ca.public));
        assert!(crl.is_revoked(3));
        assert!(crl.is_revoked(5));
        assert!(crl.is_revoked(9));
        assert!(!crl.is_revoked(4));
        // Duplicates collapsed.
        assert_eq!(crl.revoked_serials.len(), 3);
    }

    #[test]
    fn currency_window() {
        let (_, crl) = make();
        assert!(crl.is_current(SimTime::EPOCH));
        assert!(crl.is_current(SimTime::EPOCH + Duration::days(7)));
        assert!(!crl.is_current(SimTime::EPOCH + Duration::days(8)));
    }

    #[test]
    fn adding_revocation_breaks_signature() {
        let (ca, crl) = make();
        let mut tampered = crl.clone();
        tampered.revoked_serials.insert(77);
        assert!(!tampered.verify_signature(&ca.public));
        assert_ne!(tampered.digest(), crl.digest());
    }

    #[test]
    fn removing_revocation_breaks_signature() {
        let (ca, crl) = make();
        let mut tampered = crl.clone();
        tampered.revoked_serials.remove(&3);
        assert!(!tampered.verify_signature(&ca.public));
    }

    #[test]
    fn wrong_issuer_rejected() {
        let (_, crl) = make();
        let other = Keypair::derive(10, "other");
        assert!(!crl.verify_signature(&other.public));
    }

    #[test]
    fn empty_crl_is_valid() {
        let ca = Keypair::derive(9, "crl-ca");
        let crl = Crl::issue(
            &ca.secret,
            ca.key_id,
            [],
            Validity::starting(SimTime::EPOCH, Duration::days(7)),
        );
        assert!(crl.verify_signature(&ca.public));
        assert!(!crl.is_revoked(1));
    }
}
