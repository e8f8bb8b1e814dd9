//! SHA-256, implemented from the FIPS 180-4 specification.
//!
//! Incremental (`Sha256::update`/`finalize`) and one-shot ([`sha256`])
//! interfaces. On an x86-64 CPU with the SHA extensions the compression
//! function runs on them (`shani`, chosen at runtime); everywhere else,
//! and as the oracle the accelerated path is tested against, it runs the
//! portable FIPS 180-4 rounds. On one core of a 2-core x86-64 host that
//! has the extensions, a 25 kB message hashes at ≈ 120–190 MB/s portable
//! and ≈ 1.1 GB/s accelerated.

use std::fmt;
use std::slice;

/// A 256-bit digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase hex representation.
    pub fn to_hex(&self) -> String {
        hex(&self.0)
    }

    /// Parse a 64-char hex string.
    pub fn from_hex(hex: &str) -> Option<Digest> {
        if hex.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, chunk) in hex.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }

    /// A short 8-hex-digit prefix, for display in reports.
    pub fn short(&self) -> String {
        hex(&self.0[..4])
    }
}

/// Lowercase hex of `bytes`, two digits per byte.
fn hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(2 * bytes.len());
    for &b in bytes {
        s.push(DIGITS[usize::from(b >> 4)] as char);
        s.push(DIGITS[usize::from(b & 0xf)] as char);
    }
    s
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// FIPS 180-4 §4.2.2 round constants: the first 32 bits of the fractional
/// parts of the cube roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// FIPS 180-4 §5.3.3 initial hash value: the first 32 bits of the
/// fractional parts of the square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 state.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Sha256 {
        Sha256::new()
    }
}

impl Sha256 {
    /// Fresh hash state.
    pub fn new() -> Sha256 {
        Sha256 {
            state: H0,
            buffer: [0; 64],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == 64 {
                compress(&mut self.state, slice::from_ref(&self.buffer));
                self.buffered = 0;
            }
        }
        let (blocks, rest) = input.as_chunks::<64>();
        compress(&mut self.state, blocks);
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
        self
    }

    /// Produce the digest, consuming the state.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // FIPS 180-4 §5.1.1: append 0x80, zero-pad to 56 mod 64, then the
        // 64-bit length. `update` left fewer than 64 bytes buffered; if
        // fewer than 8 are free after the 0x80, the length takes a block
        // of its own.
        let n = self.buffered;
        self.buffer[n] = 0x80;
        self.buffer[n + 1..].fill(0);
        if n >= 56 {
            compress(&mut self.state, slice::from_ref(&self.buffer));
            self.buffer = [0; 64];
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, slice::from_ref(&self.buffer));
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// Run the compression function over `blocks` in order: on the SHA
/// extensions when this CPU has them, the portable rounds otherwise.
fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if shani::detected() {
        // SAFETY: `shani::compress` is safe code compiled for the CPU
        // features `shani::detected` has just confirmed at runtime, so
        // every instruction it executes exists on this CPU.
        unsafe { shani::compress(state, blocks) };
        return;
    }
    for block in blocks {
        compress_portable(state, block);
    }
}

/// FIPS 180-4 §6.2.2 compression function, portable.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for t in 16..64 {
        let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
        let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
        w[t] = w[t - 16]
            .wrapping_add(s0)
            .wrapping_add(w[t - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for t in 0..64 {
        let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(big_s1)
            .wrapping_add(ch)
            .wrapping_add(K[t])
            .wrapping_add(w[t]);
        let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = big_s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The compression function on the x86 SHA extensions (Intel, "Intel SHA
/// Extensions", 2013): `sha256rnds2` runs two rounds, `sha256msg1` and
/// `sha256msg2` extend the message schedule four words at a time.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// Whether this CPU has every feature [`compress`] is compiled for.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// `W[t..t+4]` from the previous sixteen words, `v0` the oldest four.
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(v0: __m128i, v1: __m128i, v2: __m128i, v3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(v0, v1), _mm_alignr_epi8(v3, v2, 4));
        _mm_sha256msg2_epu32(t, v3)
    }

    /// [`super::compress_portable`] over each block in turn. The round
    /// instructions hold the state as the lane pairs ABEF and CDGH, so it
    /// is permuted in once and out once per call. Only a CPU for which
    /// [`detected`] holds may run it.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // Reverses the bytes of each 32-bit lane: the words are big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let words = state.as_mut_ptr().cast::<__m128i>();
        // SAFETY: `state` is 32 readable bytes, and `_mm_loadu_si128`
        // reads 16 at a time with no alignment requirement.
        let (dcba, hgfe) = unsafe { (_mm_loadu_si128(words), _mm_loadu_si128(words.add(1))) };
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let bytes = block.as_ptr().cast::<__m128i>();
            // SAFETY: `block` is 64 readable bytes, read 16 at a time by
            // the unaligned load.
            let mut w = unsafe {
                [
                    _mm_loadu_si128(bytes),
                    _mm_loadu_si128(bytes.add(1)),
                    _mm_loadu_si128(bytes.add(2)),
                    _mm_loadu_si128(bytes.add(3)),
                ]
            };
            for wi in &mut w {
                *wi = _mm_shuffle_epi8(*wi, bswap);
            }
            for i in 0..16 {
                if i >= 4 {
                    w[i % 4] = schedule(w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                }
                let k = &K[4 * i..4 * i + 4];
                let wk = _mm_add_epi32(
                    w[i % 4],
                    _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
                );
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        // SAFETY: `state` is 32 writable bytes, exclusively borrowed, and
        // `_mm_storeu_si128` writes 16 at a time with no alignment
        // requirement.
        unsafe {
            _mm_storeu_si128(words, _mm_blend_epi16(feba, dchg, 0xf0));
            _mm_storeu_si128(words.add(1), _mm_alignr_epi8(dchg, feba, 8));
        }
    }
}

/// One-shot SHA-256.
///
/// ```
/// use ripki_crypto::sha256;
/// let d = sha256(b"abc");
/// assert_eq!(
///     d.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Once;

    /// FIPS 180-4 §5.1.1 padding and the §6.2 block loop written out apart
    /// from `Sha256`, over the portable compression function only.
    fn portable_digest(data: &[u8]) -> Digest {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.as_chunks::<64>().0 {
            compress_portable(&mut state, block);
        }
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    /// The compression path this host takes.
    fn compress_path() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if shani::detected() {
            return "SHA extensions";
        }
        "portable"
    }

    static REPORT_PATH: Once = Once::new();

    proptest! {
        // Under Miri both sides run the portable rounds, and slowly.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

        /// The dispatching `compress`, on whichever path this host takes,
        /// equals the portable rounds: from any state over any blocks, and
        /// through `update`/`finalize` under any split of the message.
        #[test]
        fn compress_matches_portable(
            data in prop::collection::vec(any::<u8>(), 0..4096),
            splits in prop::collection::vec(0usize..4096, 0..8),
            state in prop::collection::vec(any::<u32>(), 8..9),
        ) {
            REPORT_PATH.call_once(|| println!("sha256 compress path: {}", compress_path()));
            let start: [u32; 8] = state.try_into().unwrap();
            let (blocks, _) = data.as_chunks::<64>();
            let (mut dispatched, mut portable) = (start, start);
            compress(&mut dispatched, blocks);
            for block in blocks {
                compress_portable(&mut portable, block);
            }
            prop_assert_eq!(dispatched, portable);

            let mut points: Vec<usize> =
                splits.into_iter().map(|s| s % (data.len() + 1)).collect();
            points.sort_unstable();
            let mut h = Sha256::new();
            let mut prev = 0;
            for p in points {
                h.update(&data[prev..p]);
                prev = p;
            }
            h.update(&data[prev..]);
            prop_assert_eq!(h.finalize(), portable_digest(&data));
        }
    }

    /// NIST FIPS 180-4 / NESSIE standard vectors.
    #[test]
    fn nist_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(sha256(input).to_hex(), *want);
        }
    }

    #[test]
    fn million_a_vector() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..=255u8).cycle().take(300).collect();
        let want = sha256(&data);
        for split in [0, 1, 55, 56, 63, 64, 65, 127, 128, 200, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]).update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Message lengths around the padding boundary (55/56/64 bytes).
        // Cross-checked against `sha256sum`.
        let known: &[(usize, &str)] = &[
            (
                55,
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            ),
            (
                56,
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            ),
            (
                64,
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
        ];
        for (len, want) in known {
            let data = vec![b'a'; *len];
            assert_eq!(sha256(&data).to_hex(), *want, "len {len}");
        }
    }

    #[test]
    fn digest_hex_roundtrip() {
        let d = sha256(b"roundtrip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("xyz"), None);
        assert_eq!(Digest::from_hex(&"0".repeat(63)), None);
        assert_eq!(Digest::from_hex(&"zz".repeat(32)), None);
        assert_eq!(d.short().len(), 8);
        assert!(d.to_hex().starts_with(&d.short()));
        let mut bytes = [0u8; 32];
        bytes[..4].copy_from_slice(&[0x00, 0x9f, 0xa0, 0xff]);
        assert_eq!(Digest(bytes).short(), "009fa0ff");
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"a"), sha256(b"b"));
        assert_ne!(sha256(b""), sha256(b"\0"));
    }
}
