//! SHA-256 implemented from scratch per FIPS 180-4.
//!
//! The paper adopts SHA-256 as the hash function that maps data identifiers
//! into the virtual space (Section III). We implement the full compression
//! function here rather than pulling in a cryptography crate, twice: on the
//! x86 SHA extensions (SHA-NI) when the CPU has them, detected at run time,
//! and as portable rounds otherwise. The unit tests below call both
//! directly, check them against the official NIST test vectors, and check
//! them against each other on random states, blocks and messages.

/// A 32-byte SHA-256 digest.
///
/// ```
/// use gred_hash::sha256;
/// let d = sha256::digest(b"abc");
/// assert_eq!(d.as_bytes().len(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest([u8; 32]);

impl Digest {
    /// The raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase hex rendering of the digest.
    pub fn to_hex(&self) -> String {
        crate::hex::encode(&self.0)
    }

    /// The last eight bytes of the digest split into two big-endian `u32`s.
    ///
    /// This is the exact reduction the paper performs to obtain the 2D
    /// virtual-space coordinates of a data item.
    pub fn tail_u32_pair(&self) -> (u32, u32) {
        let x = u32::from_be_bytes([self.0[24], self.0[25], self.0[26], self.0[27]]);
        let y = u32::from_be_bytes([self.0[28], self.0[29], self.0[30], self.0[31]]);
        (x, y)
    }

    /// The first eight bytes of the digest as a big-endian `u64`.
    ///
    /// Used by the Chord baseline to derive ring identifiers and by the
    /// `H(d) mod s` server-selection rule.
    pub fn head_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("slice is 8 bytes"))
    }

    /// The digest a final hash state spells: its words, big-endian.
    fn from_state(state: &[u32; 8]) -> Self {
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Digest> for [u8; 32] {
    fn from(d: Digest) -> Self {
        d.0
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes (FIPS 180-4 §4.2.2).
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

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use gred_hash::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered until a full 64-byte block is available.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            compress(
                &mut self.state,
                block.try_into().expect("block is 64 bytes"),
            );
            rest = tail;
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finishes the hash and returns the digest.
    pub fn finalize(mut self) -> Digest {
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length —
        // one block, or two when the length no longer fits behind the
        // buffered bytes.
        let mut tail = [0u8; 128];
        tail[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        tail[self.buf_len] = 0x80;
        let end = if self.buf_len < 56 { 64 } else { 128 };
        tail[end - 8..end].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        for block in tail[..end].chunks_exact(64) {
            compress(
                &mut self.state,
                block.try_into().expect("block is 64 bytes"),
            );
        }
        Digest::from_state(&self.state)
    }
}

/// Folds one 64-byte block into `state`: on the CPU's SHA extensions
/// when it has them, with the portable rounds otherwise.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    if !compress_shani(state, block) {
        compress_portable(state, block);
    }
}

/// The FIPS 180-4 compression function, one round at a time.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("chunk is 4 bytes"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(add);
    }
}

/// The same compression on the x86 SHA extensions. Returns `false`, with
/// `state` untouched, on a CPU that lacks them.
#[cfg(target_arch = "x86_64")]
fn compress_shani(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
    if !(is_x86_feature_detected!("sha") && is_x86_feature_detected!("sse4.1")) {
        return false;
    }
    // SAFETY: `shani::compress` executes SHA, SSSE3 and SSE4.1
    // instructions, and the runtime check above found all of them on this
    // CPU (SSE4.1 implies SSSE3). Its memory accesses stay inside `state`
    // and `block`, both borrowed for the call.
    unsafe { shani::compress(state, block) };
    true
}

/// No SHA extensions off x86-64: the portable rounds always run.
#[cfg(not(target_arch = "x86_64"))]
fn compress_shani(_state: &mut [u32; 8], _block: &[u8; 64]) -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// One block through `sha256rnds2`, four rounds per step, with the
    /// message schedule kept as a ring of four 4-word vectors.
    ///
    /// # Safety
    ///
    /// The CPU must support the SHA, SSSE3 and SSE4.1 extensions.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        // Byte order within each 32-bit word: big-endian message words.
        let be = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // `sha256rnds2` wants the state as (a, b, e, f) and (c, d, g, h).
        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
        let (abef_in, cdgh_in) = (abef, cdgh);

        let mut w = [0, 16, 32, 48]
            .map(|at| _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(at).cast()), be));
        // Sixteen steps of four rounds. Step `4 * quad + j` uses ring slot
        // `j`; from the second quad on, the slot first advances four
        // words: W[t..t+4] from W[t-16..], W[t-12..], W[t-8..] and
        // W[t-4..], which are slots j, j+1, j+2 and j+3.
        for quad in 0..4 {
            for j in 0..4 {
                if quad > 0 {
                    let (w16, w12, w8, w4) = (w[j], w[(j + 1) % 4], w[(j + 2) % 4], w[(j + 3) % 4]);
                    let sum =
                        _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8(w4, w8, 4));
                    w[j] = _mm_sha256msg2_epu32(sum, w4);
                }
                let k = _mm_loadu_si128(K.as_ptr().add(16 * quad + 4 * j).cast());
                let wk = _mm_add_epi32(w[j], k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgef);
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

/// One-shot SHA-256 of `data`.
///
/// ```
/// use gred_hash::sha256;
/// assert_eq!(
///     sha256::digest(b"").to_hex(),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
/// );
/// ```
pub fn digest(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Compress = fn(&mut [u32; 8], &[u8; 64]);

    /// Both compression functions, called directly: on a CPU with the SHA
    /// extensions the dispatcher never runs the portable rounds. Without
    /// them only the portable one is returned, and the skip is said.
    fn paths() -> Vec<(&'static str, Compress)> {
        let mut paths: Vec<(&'static str, Compress)> = vec![("portable", compress_portable)];
        if compress_shani(&mut H0.clone(), &[0; 64]) {
            paths.push(("sha-ni", |state, block| {
                assert!(compress_shani(state, block))
            }));
        } else {
            eprintln!("SHA-NI half skipped: this CPU lacks the SHA or SSE4.1 extensions");
        }
        paths
    }

    /// SHA-256 of `data` through `compress` alone, padded here rather
    /// than by [`Sha256::finalize`].
    fn digest_via(compress: Compress, data: &[u8]) -> Digest {
        let mut message = data.to_vec();
        message.push(0x80);
        while message.len() % 64 != 56 {
            message.push(0);
        }
        message.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in message.chunks_exact(64) {
            compress(&mut state, block.try_into().unwrap());
        }
        Digest::from_state(&state)
    }

    /// NIST FIPS 180-4 / NESSIE test vectors.
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
        for (input, expected) in cases {
            assert_eq!(&digest(input).to_hex(), expected, "input {input:?}");
            for (path, compress) in paths() {
                let got = digest_via(compress, input).to_hex();
                assert_eq!(&got, expected, "{path}, input {input:?}");
            }
        }
    }

    #[test]
    fn million_a() {
        const EXPECTED: &str = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(h.finalize().to_hex(), EXPECTED);
        let message = vec![b'a'; 1_000_000];
        for (path, compress) in paths() {
            assert_eq!(digest_via(compress, &message).to_hex(), EXPECTED, "{path}");
        }
    }

    #[test]
    fn incremental_matches_oneshot_at_block_boundaries() {
        // Cover lengths that straddle the 64-byte block and 56-byte padding
        // boundaries, where padding bugs hide.
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 121, 128, 1000] {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let one = digest(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), one, "len={len}");
        }
    }

    #[test]
    fn tail_and_head_extraction() {
        let d = digest(b"abc");
        let (x, y) = d.tail_u32_pair();
        let bytes = d.as_bytes();
        assert_eq!(x.to_be_bytes(), bytes[24..28]);
        assert_eq!(y.to_be_bytes(), bytes[28..32]);
        assert_eq!(d.head_u64().to_be_bytes(), bytes[..8]);
    }

    #[test]
    fn display_is_hex() {
        let d = digest(b"abc");
        assert_eq!(d.to_string(), d.to_hex());
    }

    proptest! {
        /// The two compressions agree on any state and block, not just on
        /// the states a real message reaches.
        #[test]
        fn prop_compressions_agree(
            state in proptest::collection::vec(any::<u32>(), 8usize),
            block in proptest::collection::vec(any::<u8>(), 64usize),
        ) {
            let state: [u32; 8] = state.try_into().unwrap();
            let block: [u8; 64] = block.try_into().unwrap();
            let mut want = state;
            compress_portable(&mut want, &block);
            for (path, compress) in paths() {
                let mut got = state;
                compress(&mut got, &block);
                prop_assert_eq!(got, want, "{}", path);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Every length 0–300 — the 55/56, 63/64 and 119/120 padding
        /// edges included — hashes alike through either compression and
        /// through `finalize`'s block padding.
        #[test]
        fn prop_digests_agree_for_every_length_to_300(
            data in proptest::collection::vec(any::<u8>(), 300usize),
        ) {
            for len in 0..=data.len() {
                let want = digest(&data[..len]);
                for (path, compress) in paths() {
                    prop_assert_eq!(digest_via(compress, &data[..len]), want, "{} len={}", path, len);
                }
            }
        }
    }

    proptest! {
        /// Splitting the input arbitrarily never changes the digest.
        #[test]
        fn prop_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512), split in 0usize..512) {
            let split = split.min(data.len());
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), digest(&data));
        }

        /// Distinct single-byte extensions change the digest (trivial
        /// collision sanity check).
        #[test]
        fn prop_extension_changes_digest(data in proptest::collection::vec(any::<u8>(), 0..64), b in any::<u8>()) {
            let mut ext = data.clone();
            ext.push(b);
            prop_assert_ne!(digest(&ext), digest(&data));
        }
    }
}
