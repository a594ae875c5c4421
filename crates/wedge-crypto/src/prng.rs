//! Deterministic PRNG used throughout the reproduction.
//!
//! The paper's defence in §5.1.1 hinges on *who generates the server's
//! random contribution* to the session key, so randomness flows are modelled
//! explicitly. We use a xoshiro256** generator: deterministic when seeded by
//! tests/benches (reproducible experiments), and seedable from the `rand`
//! crate's entropy when callers want fresh values.

use rand::RngCore;

/// xoshiro256** PRNG with explicit, inspectable seeding.
#[derive(Debug, Clone)]
pub struct WedgeRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl WedgeRng {
    /// Create a generator from a 64-bit seed (expanded via splitmix64).
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        WedgeRng { s }
    }

    /// Create a generator seeded from OS entropy (via the `rand` crate).
    pub fn from_entropy() -> Self {
        let mut seed = [0u8; 8];
        rand::thread_rng().fill_bytes(&mut seed);
        Self::from_seed(u64::from_le_bytes(seed))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Fill `buf` with random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut i = 0;
        while i < buf.len() {
            let word = self.next_u64().to_le_bytes();
            let take = (buf.len() - i).min(8);
            buf[i..i + take].copy_from_slice(&word[..take]);
            i += take;
        }
    }

    /// Produce `n` random bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n];
        self.fill_bytes(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = WedgeRng::from_seed(42);
        let mut b = WedgeRng::from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = WedgeRng::from_seed(1);
        let mut b = WedgeRng::from_seed(2);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn fill_bytes_covers_partial_words() {
        let mut rng = WedgeRng::from_seed(3);
        let b = rng.bytes(13);
        assert_eq!(b.len(), 13);
        // Vanishingly unlikely to be all zero.
        assert!(b.iter().any(|&x| x != 0));
    }

    #[test]
    fn entropy_seeded_generators_differ() {
        let mut a = WedgeRng::from_entropy();
        let mut b = WedgeRng::from_entropy();
        // 64 bits of collision chance — effectively never equal.
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }
}
