//! SHA-256 (FIPS 180-4). A streaming [`Sha256`] hasher plus the one-shot
//! [`sha256`] convenience function.
//!
//! A compression runs on the x86 SHA extensions where the CPU has them,
//! else on the scalar rounds here, which are also the tests' reference.

#[cfg(target_arch = "x86_64")]
use crate::x86;

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;

pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data`. Whole 64-byte blocks are compressed straight from the
    /// input slice; only a trailing partial block is copied into the buffer.
    pub fn update(&mut self, mut data: &[u8]) -> &mut Self {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < 64 {
                return self;
            }
            self.state = compress(self.state, std::slice::from_ref(&self.buffer));
        }
        let (blocks, rest) = data.as_chunks::<64>();
        self.state = compress(self.state, blocks);
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
        self
    }

    /// The chain state and the bytes absorbed, when they end on a block
    /// boundary: where another chain may take over.
    pub(crate) fn boundary(&self) -> Option<([u32; 8], u64)> {
        (self.buffer_len == 0).then_some((self.state, self.total_len))
    }

    /// A hasher whose chain is at `state` after `len` bytes, `len` a
    /// multiple of 64: the inverse of [`Self::boundary`].
    pub(crate) fn resumed(state: [u32; 8], len: u64) -> Sha256 {
        Sha256 {
            state,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: len,
        }
    }

    /// Finish and return the 32-byte digest.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        // Padding: 0x80, zeros, then the 8-byte big-endian bit length closing
        // the first block it fits in. `buffer_len < 64` always.
        let used = self.buffer_len;
        let mut pad = [[0u8; 64]; 2];
        pad[0][..used].copy_from_slice(&self.buffer[..used]);
        pad[0][used] = 0x80;
        let blocks = if used < 56 { 1 } else { 2 };
        let bit_len = self.total_len.wrapping_mul(8);
        pad[blocks - 1][56..].copy_from_slice(&bit_len.to_be_bytes());
        digest(&compress(self.state, &pad[..blocks]))
    }
}

/// The big-endian bytes of a state: the digest, once the last block is in.
pub(crate) fn digest(state: &[u32; 8]) -> [u8; DIGEST_LEN] {
    let mut out = [0u8; DIGEST_LEN];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Runs `blocks` through `state`, one after another: on the SHA extensions
/// if detected (per call, never per block).
pub(crate) fn compress(mut state: [u32; 8], blocks: &[[u8; 64]]) -> [u32; 8] {
    #[cfg(target_arch = "x86_64")]
    if x86::run(x86::Job::Chain {
        state: &mut state,
        blocks,
    }) {
        return state;
    }
    for block in blocks {
        rounds(&mut state, words(block));
    }
    state
}

/// [`compress`] for two independent chains, in lockstep on the SHA
/// extensions while both have blocks (two chains fill the latency one
/// leaves the unit), one after another elsewhere.
pub(crate) fn compress_pair(mut states: [[u32; 8]; 2], blocks: [&[[u8; 64]]; 2]) -> [[u32; 8]; 2] {
    #[cfg(target_arch = "x86_64")]
    if x86::run(x86::Job::Pair {
        states: &mut states,
        blocks,
    }) {
        return states;
    }
    [0, 1].map(|l| compress(states[l], blocks[l]))
}

/// A block's big-endian message words.
pub(crate) fn words(block: &[u8; 64]) -> [u32; 16] {
    let bytes = block.as_chunks::<4>().0;
    std::array::from_fn(|i| u32::from_be_bytes(bytes[i]))
}

/// One compression of the message words `w`, the scalar reference: sixteen
/// rounds per pass over a rolling 16-word schedule.
pub(crate) fn rounds(state: &mut [u32; 8], mut w: [u32; 16]) {
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for pass in 0..4 {
        for i in 0..16 {
            if pass > 0 {
                let w15 = w[(i + 1) & 15];
                let w2 = w[(i + 14) & 15];
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                w[i] = w[i]
                    .wrapping_add(s0)
                    .wrapping_add(w[(i + 9) & 15])
                    .wrapping_add(s1);
            }
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = g ^ (e & (f ^ g));
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[pass * 16 + i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) | (c & (a | b));
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(s0).wrapping_add(maj);
        }
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

/// Render a digest (or any byte slice) as lowercase hex, handy in logs and
/// protocol transcripts.
pub fn to_hex(bytes: &[u8]) -> String {
    const NIBBLES: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.extend([b >> 4, b & 0xf].map(|nibble| NIBBLES[usize::from(nibble)] as char));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nist_vector_empty() {
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_vector_abc() {
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_vector_448_bits() {
        assert_eq!(
            to_hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            to_hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(10_000).collect();
        let one_shot = sha256(&data);
        let mut h = Sha256::new();
        // Feed in awkward chunk sizes to exercise buffering.
        for chunk in data.chunks(17) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), one_shot);
    }

    /// Lengths on either side of where the padding spills into a second
    /// block (56) and of the block size: one-shot, byte-at-a-time and
    /// split-at-every-offset digests agree.
    #[test]
    fn padding_boundaries_agree_however_the_message_is_fed() {
        for len in [0usize, 55, 56, 63, 64, 65, 119, 120, 128] {
            let data: Vec<u8> = (0..len).map(|i| (i * 13 + 5) as u8).collect();
            let one_shot = sha256(&data);
            let mut bytewise = Sha256::new();
            for byte in &data {
                bytewise.update(&[*byte]);
            }
            assert_eq!(bytewise.finalize(), one_shot, "len {len} bytewise");
            for split in 0..=len {
                let mut h = Sha256::new();
                h.update(&data[..split]).update(&data[split..]);
                assert_eq!(h.finalize(), one_shot, "len {len} split {split}");
            }
        }
    }

    /// The two published vectors, fed a byte at a time.
    #[test]
    fn nist_vectors_bytewise() {
        for (msg, digest) in [
            (
                &b"abc"[..],
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                &b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"[..],
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ] {
            let mut h = Sha256::new();
            for byte in msg {
                h.update(&[*byte]);
            }
            assert_eq!(to_hex(&h.finalize()), digest);
        }
    }

    /// The scalar rounds on their own, whatever the CPU runs for the hasher:
    /// "abc", padded by hand, from the initial state.
    #[test]
    fn scalar_rounds_reproduce_nist_abc() {
        let mut block = [0u8; 64];
        block[..3].copy_from_slice(b"abc");
        block[3] = 0x80;
        block[63] = 24;
        let mut state = H0;
        rounds(&mut state, words(&block));
        assert_eq!(
            to_hex(&digest(&state)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(sha256(b"hello"), sha256(b"hellp"));
    }

    #[test]
    fn to_hex_formats() {
        assert_eq!(to_hex(&[0x00, 0xff, 0x10]), "00ff10");
    }
}
