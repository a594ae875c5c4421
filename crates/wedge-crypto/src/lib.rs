//! # wedge-crypto — toy cryptographic substrate
//!
//! The Wedge paper's Apache/OpenSSL and OpenSSH case studies revolve around
//! *which compartment may see which cryptographic value* (the server's RSA
//! private key, the premaster secret, the session and MAC keys, the hashed
//! `finished_state`). To reproduce those experiments we need a cryptographic
//! substrate whose **structure** matches SSL/SSH — public-key
//! encrypt/decrypt and sign/verify, hashing, HMAC, key derivation, a
//! symmetric record cipher — but whose strength is irrelevant to the
//! evaluation.
//!
//! **This crate is NOT a secure cryptography implementation.** The RSA-like
//! trapdoor permutation uses 64-bit moduli applied block-wise, which is
//! trivially breakable. It exists only so the reproduction exercises the
//! same data flows as the paper (who holds the private key, who can compute
//! the session key, what a callgate's return value reveals). The SHA-256 and
//! HMAC implementations are, however, real and verified against published
//! test vectors so that hashing-based reasoning in the paper (e.g. the
//! non-invertibility argument for `finished_state`) carries over.
//!
//! Modules:
//!
//! * [`mod@sha256`] — FIPS 180-4 SHA-256.
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104).
//! * [`prng`] — a deterministic xoshiro-style PRNG plus convenience seeding.
//! * [`rsa`] — toy RSA: Miller-Rabin prime generation, 64-bit modulus
//!   keypairs, block-wise encrypt/decrypt and sign/verify.
//! * [`stream`] — a counter-mode keystream cipher built from SHA-256.
//! * [`kdf`] — TLS-PRF-style key derivation from premaster + randoms.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hmac;
pub mod kdf;
pub mod prng;
pub mod rsa;
pub mod sha256;
pub mod stream;

pub use hmac::{hmac_sha256, HmacSha256};
pub use kdf::{derive_key_block, KeyMaterial};
pub use prng::WedgeRng;
pub use rsa::{RsaKeyPair, RsaPrivateKey, RsaPublicKey};
pub use sha256::{sha256, Sha256};
pub use stream::StreamCipher;

/// Constant-time-ish comparison of two byte slices (length leak is fine for
/// the simulation; we avoid early exit on content so tests that reason about
/// MAC comparison behaviour are realistic).
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"abcd"));
        assert!(ct_eq(b"", b""));
    }
}
