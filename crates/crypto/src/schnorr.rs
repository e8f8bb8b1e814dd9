//! Schnorr-style signatures over the multiplicative group modulo the
//! Mersenne prime `p = 2^127 - 1`.
//!
//! The scheme:
//!
//! * parameters: `p = 2^127 - 1` (prime), generator `g = 7`,
//!   exponent modulus `q = p - 1` (by Fermat, `a^q ≡ 1 (mod p)` for every
//!   non-zero `a`, which the verifier exploits to avoid inversions);
//! * keys: secret scalar `x ∈ [1, q)`, public `y = g^x mod p`;
//! * sign(msg): nonce `k = HMAC(x, msg) mod q` (deterministic, RFC 6979
//!   style), commitment `r = g^k`, challenge
//!   `e = H(r ‖ y ‖ msg) mod q`, response `s = k + e·x mod q`;
//!   signature is `(e, s)`;
//! * verify: recompute `r' = g^s · y^(q−e)` and accept iff
//!   `H(r' ‖ y ‖ msg) mod q == e`.
//!
//! Every power of `g` (the public key, the commitment, the verifier's
//! `g^s`) is read off a table of `g^(d·16^i)` built at compile time, at
//! most 32 multiplications each; the verifier's `y^(q−e)` uses a 4-bit
//! window. Both agree with the binary [`pow_mod_p`], which stays as
//! their reference.
//!
//! **Not secure** (see the crate-level disclaimer) — a 127-bit group is
//! toy-sized and `q` is composite — but functionally a real signature
//! scheme: verification fails for any bit flip in the message, signature,
//! or public key, which is all the RPKI validator needs.

use crate::hmac::hmac_sha256;
use crate::sha256::Sha256;
use std::fmt;

/// The Mersenne prime `2^127 - 1`.
pub const P: u128 = (1u128 << 127) - 1;
/// Group exponent: `p - 1`.
pub const Q: u128 = P - 1;
/// Generator of a large subgroup.
pub const G: u128 = 7;

/// Full 256-bit product of two 128-bit integers, as `(hi, lo)`.
const fn widening_mul(a: u128, b: u128) -> (u128, u128) {
    const MASK: u128 = (1u128 << 64) - 1;
    let (a1, a0) = (a >> 64, a & MASK);
    let (b1, b0) = (b >> 64, b & MASK);
    let ll = a0 * b0;
    let lh = a0 * b1;
    let hl = a1 * b0;
    let hh = a1 * b1;
    // middle = lh + hl, may carry one bit into hi.
    let (mid, mid_carry) = lh.overflowing_add(hl);
    let (lo, lo_carry) = ll.overflowing_add(mid << 64);
    let hi = hh
        .wrapping_add(mid >> 64)
        .wrapping_add((mid_carry as u128) << 64)
        .wrapping_add(lo_carry as u128);
    (hi, lo)
}

/// Reduce `hi·2^128 + lo` modulo the Mersenne prime `p`.
///
/// Uses `2^127 ≡ 1 (mod p)`: fold the high bits down twice, then a final
/// conditional subtraction.
const fn reduce_p(hi: u128, lo: u128) -> u128 {
    // value = hi·2^128 + lo ≡ 2·hi + (lo >> 127) + (lo & P)  (mod p)
    debug_assert!(hi < 1u128 << 126, "inputs must each be < 2^127");
    let t = 2 * hi + (lo >> 127) + (lo & P);
    let t = (t >> 127) + (t & P);
    if t >= P {
        t - P
    } else {
        t
    }
}

/// `a·b mod p` for `a, b < p`.
pub const fn mul_mod_p(a: u128, b: u128) -> u128 {
    let (hi, lo) = widening_mul(a, b);
    reduce_p(hi, lo)
}

/// `base^exp mod p` by binary square-and-multiply: ≈ 190 multiplications
/// for a full-width exponent. The reference for `pow_g` and
/// `pow_window`.
pub fn pow_mod_p(base: u128, mut exp: u128) -> u128 {
    let mut result: u128 = 1;
    let mut acc = base % P;
    while exp > 0 {
        if exp & 1 == 1 {
            result = mul_mod_p(result, acc);
        }
        acc = mul_mod_p(acc, acc);
        exp >>= 1;
    }
    result
}

/// `G_TABLE[i][d] = g^(d·16^i) mod p`: one row per hex digit of a
/// 128-bit exponent (8 KiB, evaluated at compile time).
static G_TABLE: [[u128; 16]; 32] = g_table();

const fn g_table() -> [[u128; 16]; 32] {
    let mut table = [[1u128; 16]; 32];
    // g^(16^i) for the row being filled.
    let mut base = G;
    let mut i = 0;
    while i < 32 {
        let mut d = 1;
        while d < 16 {
            table[i][d] = mul_mod_p(table[i][d - 1], base);
            d += 1;
        }
        base = mul_mod_p(table[i][15], base);
        i += 1;
    }
    table
}

/// `g^exp mod p`: one [`G_TABLE`] multiplication per non-zero hex digit
/// of `exp`, and no squarings.
fn pow_g(exp: u128) -> u128 {
    let mut result = 1;
    for (i, row) in G_TABLE.iter().enumerate() {
        let digit = (exp >> (4 * i)) & 0xf;
        if digit != 0 {
            result = mul_mod_p(result, row[digit as usize]);
        }
    }
    result
}

/// `base^exp mod p` by a fixed 4-bit window: 15 multiplications tabulate
/// `base^0..base^15`, then each hex digit of `exp` from the top costs four
/// squarings and at most one multiplication (≈ 175 in all for a
/// full-width exponent).
fn pow_window(base: u128, exp: u128) -> u128 {
    let base = base % P;
    let mut powers = [1u128; 16];
    for d in 1..16 {
        powers[d] = mul_mod_p(powers[d - 1], base);
    }
    let hex_digits = (128 - exp.leading_zeros()).div_ceil(4);
    let mut result = 1;
    for i in (0..hex_digits).rev() {
        for _ in 0..4 {
            result = mul_mod_p(result, result);
        }
        let digit = (exp >> (4 * i)) & 0xf;
        if digit != 0 {
            result = mul_mod_p(result, powers[digit as usize]);
        }
    }
    result
}

/// `(a + b) mod m` without overflow, for `a, b < m`.
fn add_mod(a: u128, b: u128, m: u128) -> u128 {
    if a >= m - b {
        a - (m - b)
    } else {
        a + b
    }
}

/// `a·b mod m` by peasant multiplication, for `a, b < m`. Used only for
/// the handful of scalar multiplications per signature; speed is
/// irrelevant there.
fn mul_mod(a: u128, mut b: u128, m: u128) -> u128 {
    let mut acc = a % m;
    let mut result: u128 = 0;
    while b > 0 {
        if b & 1 == 1 {
            result = add_mod(result, acc, m);
        }
        acc = add_mod(acc, acc, m);
        b >>= 1;
    }
    result
}

/// Interpret a 32-byte digest as a scalar in `[1, q)`.
fn digest_to_scalar(bytes: &[u8; 32]) -> u128 {
    let mut raw = [0u8; 16];
    raw.copy_from_slice(&bytes[..16]);
    let v = u128::from_be_bytes(raw) % Q;
    if v == 0 {
        1
    } else {
        v
    }
}

/// A secret signing key.
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey {
    scalar: u128,
    /// `g^scalar`, derived once at key generation.
    public: u128,
}

/// A public verification key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublicKey {
    element: u128,
}

/// A signature: challenge `e` and response `s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// The challenge scalar.
    pub e: u128,
    /// The response scalar.
    pub s: u128,
}

/// Why a signature failed to verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignatureError {
    /// Recomputed challenge did not match — message, signature, or key was
    /// wrong or tampered with.
    BadSignature,
    /// Scalars outside their domain (e.g. forged `s ≥ q`).
    MalformedSignature,
}

impl fmt::Display for SignatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignatureError::BadSignature => write!(f, "signature verification failed"),
            SignatureError::MalformedSignature => write!(f, "malformed signature"),
        }
    }
}

impl std::error::Error for SignatureError {}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        write!(f, "SecretKey(…)")
    }
}

impl SecretKey {
    /// Derive a secret key deterministically from seed bytes.
    pub fn from_seed(seed: &[u8]) -> SecretKey {
        let mut h = Sha256::new();
        h.update(b"ripki-crypto/keygen/v1").update(seed);
        let scalar = digest_to_scalar(h.finalize().as_bytes());
        SecretKey {
            scalar,
            public: pow_g(scalar),
        }
    }

    /// The corresponding public key.
    pub fn public_key(&self) -> PublicKey {
        PublicKey {
            element: self.public,
        }
    }

    /// Sign `message` deterministically.
    pub fn sign(&self, message: &[u8]) -> Signature {
        let sk_bytes = self.scalar.to_be_bytes();
        let k = digest_to_scalar(hmac_sha256(&sk_bytes, message).as_bytes());
        let r = pow_g(k);
        let e = challenge(r, self.public, message);
        let s = add_mod(k, mul_mod(e, self.scalar, Q), Q);
        Signature { e, s }
    }
}

/// Challenge hash `H(r ‖ y ‖ msg)` mapped to `[1, q)`.
fn challenge(r: u128, y: u128, message: &[u8]) -> u128 {
    let mut h = Sha256::new();
    h.update(b"ripki-crypto/challenge/v1")
        .update(&r.to_be_bytes())
        .update(&y.to_be_bytes())
        .update(message);
    digest_to_scalar(h.finalize().as_bytes())
}

impl PublicKey {
    /// The raw group element.
    pub fn element(&self) -> u128 {
        self.element
    }

    /// Reconstruct from a raw group element (e.g. decoded from TLV).
    pub fn from_element(element: u128) -> PublicKey {
        PublicKey { element }
    }

    /// Canonical byte encoding (16 bytes, big-endian).
    pub fn to_bytes(&self) -> [u8; 16] {
        self.element.to_be_bytes()
    }

    /// Verify `signature` over `message`.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), SignatureError> {
        if signature.e == 0
            || signature.e >= Q
            || signature.s >= Q
            || self.element == 0
            || self.element >= P
        {
            return Err(SignatureError::MalformedSignature);
        }
        // r' = g^s · y^(q - e)   (y^q = 1 by Fermat, so y^(q-e) = y^(-e))
        let r = mul_mod_p(
            pow_g(signature.s),
            pow_window(self.element, Q - signature.e),
        );
        if challenge(r, self.element, message) == signature.e {
            Ok(())
        } else {
            Err(SignatureError::BadSignature)
        }
    }
}

impl Signature {
    /// Canonical byte encoding (32 bytes: `e` then `s`, big-endian).
    pub fn to_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        out[..16].copy_from_slice(&self.e.to_be_bytes());
        out[16..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Decode from the 32-byte encoding.
    pub fn from_bytes(bytes: &[u8; 32]) -> Signature {
        let mut e = [0u8; 16];
        let mut s = [0u8; 16];
        e.copy_from_slice(&bytes[..16]);
        s.copy_from_slice(&bytes[16..]);
        Signature {
            e: u128::from_be_bytes(e),
            s: u128::from_be_bytes(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The verifier before the table and the window: both powers by
    /// binary square-and-multiply.
    fn verify_binary(y: u128, message: &[u8], sig: &Signature) -> Result<(), SignatureError> {
        if sig.e == 0 || sig.e >= Q || sig.s >= Q || y == 0 || y >= P {
            return Err(SignatureError::MalformedSignature);
        }
        let r = mul_mod_p(pow_mod_p(G, sig.s), pow_mod_p(y, Q - sig.e));
        if challenge(r, y, message) == sig.e {
            Ok(())
        } else {
            Err(SignatureError::BadSignature)
        }
    }

    /// A 128-bit value, with the domain edges drawn often.
    fn edgy_u128() -> impl Strategy<Value = u128> {
        prop_oneof![
            Just(0u128),
            Just(1),
            Just(Q - 1),
            Just(Q),
            Just(P),
            Just(u128::MAX),
            0u128..1 << 20,
            any::<u128>(),
            any::<u128>(),
        ]
    }

    proptest! {
        // Under Miri the binary references make each case slow.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

        /// The fixed-base table and the window compute exactly what binary
        /// square-and-multiply does.
        #[test]
        fn table_and_window_match_binary(base in edgy_u128(), exp in edgy_u128()) {
            prop_assert_eq!(pow_g(exp), pow_mod_p(G, exp));
            prop_assert_eq!(pow_window(base, exp), pow_mod_p(base, exp));
        }

        /// `verify` accepts and rejects exactly as the binary verifier does,
        /// over honest, tampered and out-of-domain `(e, s, y, msg)`.
        #[test]
        fn verify_matches_binary_verifier(
            seed in prop::collection::vec(any::<u8>(), 0..16),
            message in prop::collection::vec(any::<u8>(), 0..64),
            case in 0u8..6,
            a in edgy_u128(),
            b in edgy_u128(),
        ) {
            let sk = SecretKey::from_seed(&seed);
            prop_assert_eq!(sk.public_key().element(), pow_mod_p(G, sk.scalar));
            let honest = sk.sign(&message);
            let mut y = sk.public_key().element();
            let mut message = message;
            let sig = match case {
                0 => honest,
                1 => Signature { e: honest.e ^ (1 << (a % 128)), ..honest },
                2 => Signature { s: honest.s ^ (1 << (a % 128)), ..honest },
                3 => {
                    let at = a as usize % (message.len() + 1);
                    match message.get_mut(at) {
                        Some(byte) => *byte ^= 1 << (b % 8),
                        None => message.push(b as u8),
                    }
                    honest
                }
                4 => {
                    y = a;
                    honest
                }
                _ => Signature { e: a, s: b },
            };
            let got = PublicKey::from_element(y).verify(&message, &sig);
            prop_assert_eq!(got, verify_binary(y, &message, &sig));
            if case == 0 {
                prop_assert_eq!(got, Ok(()));
            }
        }
    }

    #[test]
    fn widening_mul_known_values() {
        assert_eq!(widening_mul(0, 12345), (0, 0));
        assert_eq!(widening_mul(1, u128::MAX), (0, u128::MAX));
        // (2^64)·(2^64) = 2^128 → (1, 0)
        assert_eq!(widening_mul(1 << 64, 1 << 64), (1, 0));
        // (2^127 - 1)^2 = 2^254 - 2^128 + 1
        let (hi, lo) = widening_mul(P, P);
        assert_eq!(hi, (1u128 << 126) - 1);
        assert_eq!(lo, 1);
    }

    #[test]
    fn mul_mod_p_agrees_with_naive_small() {
        for a in [0u128, 1, 2, 7, 12345, P - 1, P - 2] {
            for b in [0u128, 1, 3, 99999, P - 1] {
                let want = naive_mul_mod(a, b, P);
                assert_eq!(mul_mod_p(a, b), want, "{a} * {b}");
            }
        }
    }

    fn naive_mul_mod(a: u128, b: u128, m: u128) -> u128 {
        mul_mod(a, b, m)
    }

    #[test]
    fn fermat_little_theorem_holds() {
        // a^(p-1) ≡ 1 (mod p) — exercises the full pow/mul pipeline.
        for a in [2u128, 7, 123456789, P - 2] {
            assert_eq!(pow_mod_p(a, Q), 1, "a = {a}");
        }
    }

    #[test]
    fn pow_edge_cases() {
        assert_eq!(pow_mod_p(G, 0), 1);
        assert_eq!(pow_mod_p(G, 1), G);
        assert_eq!(pow_mod_p(0, 5), 0);
        assert_eq!(pow_mod_p(P, 3), 0); // P ≡ 0
    }

    #[test]
    fn sign_verify_roundtrip() {
        let sk = SecretKey::from_seed(b"trust anchor 1");
        let pk = sk.public_key();
        let msg = b"route origin authorization";
        let sig = sk.sign(msg);
        assert!(pk.verify(msg, &sig).is_ok());
    }

    #[test]
    fn deterministic_signatures() {
        let sk = SecretKey::from_seed(b"seed");
        assert_eq!(sk.sign(b"m"), sk.sign(b"m"));
        assert_ne!(sk.sign(b"m"), sk.sign(b"n"));
    }

    #[test]
    fn tampered_message_rejected() {
        let sk = SecretKey::from_seed(b"seed");
        let pk = sk.public_key();
        let sig = sk.sign(b"payload");
        assert_eq!(
            pk.verify(b"payloae", &sig),
            Err(SignatureError::BadSignature)
        );
        assert_eq!(pk.verify(b"", &sig), Err(SignatureError::BadSignature));
    }

    #[test]
    fn tampered_signature_rejected() {
        let sk = SecretKey::from_seed(b"seed");
        let pk = sk.public_key();
        let msg = b"payload";
        let sig = sk.sign(msg);
        let bad_e = Signature {
            e: sig.e ^ 1,
            ..sig
        };
        let bad_s = Signature {
            s: sig.s ^ 1,
            ..sig
        };
        assert!(pk.verify(msg, &bad_e).is_err());
        assert!(pk.verify(msg, &bad_s).is_err());
    }

    #[test]
    fn wrong_key_rejected() {
        let sk1 = SecretKey::from_seed(b"one");
        let sk2 = SecretKey::from_seed(b"two");
        let msg = b"msg";
        let sig = sk1.sign(msg);
        assert!(sk2.public_key().verify(msg, &sig).is_err());
    }

    #[test]
    fn malformed_scalars_rejected_without_panic() {
        let sk = SecretKey::from_seed(b"seed");
        let pk = sk.public_key();
        let sig = sk.sign(b"m");
        for bad in [
            Signature { e: 0, s: sig.s },
            Signature { e: Q, s: sig.s },
            Signature { e: sig.e, s: Q },
            Signature {
                e: u128::MAX,
                s: u128::MAX,
            },
        ] {
            assert_eq!(
                pk.verify(b"m", &bad),
                Err(SignatureError::MalformedSignature)
            );
        }
        let zero_pk = PublicKey::from_element(0);
        assert_eq!(
            zero_pk.verify(b"m", &sig),
            Err(SignatureError::MalformedSignature)
        );
    }

    #[test]
    fn signature_byte_roundtrip() {
        let sk = SecretKey::from_seed(b"seed");
        let sig = sk.sign(b"m");
        assert_eq!(Signature::from_bytes(&sig.to_bytes()), sig);
    }

    #[test]
    fn distinct_seeds_distinct_keys() {
        let a = SecretKey::from_seed(b"a").public_key();
        let b = SecretKey::from_seed(b"b").public_key();
        assert_ne!(a, b);
    }

    #[test]
    fn secret_key_debug_hides_material() {
        let sk = SecretKey::from_seed(b"hidden");
        assert_eq!(format!("{sk:?}"), "SecretKey(…)");
    }
}
