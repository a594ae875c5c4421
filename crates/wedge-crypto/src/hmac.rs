//! HMAC-SHA-256 (RFC 2104). Used for the SSL record-layer MAC and for the
//! key-derivation PRF.
//!
//! **Cost model.** [`HmacSha256::new`] compresses the ipad and opad blocks
//! once (two compressions, plus hashing a key longer than a block); a holder
//! that MACs many messages under one key — the record layer — clones that
//! state per message. Each message then costs one compression per 64 bytes
//! plus two to finish, and no allocation. The one-shot [`hmac_sha256`] pays
//! the key schedule on every call.

use std::fmt;

use crate::sha256::{sha256, Sha256, DIGEST_LEN};

const BLOCK_LEN: usize = 64;

/// Streaming HMAC-SHA-256: the key is absorbed once, the message in pieces.
#[derive(Clone)]
pub struct HmacSha256 {
    /// Has absorbed `key ^ ipad`, then the message so far.
    inner: Sha256,
    /// Has absorbed `key ^ opad`.
    outer: Sha256,
}

/// Both hash states are key-derived; none of it is printed.
impl fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HmacSha256").finish_non_exhaustive()
    }
}

impl HmacSha256 {
    /// Start a MAC under `key`.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            key_block[..DIGEST_LEN].copy_from_slice(&sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&key_block.map(|b| b ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(&key_block.map(|b| b ^ 0x5c));
        HmacSha256 { inner, outer }
    }

    /// Absorb a piece of the message.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.inner.update(data);
        self
    }

    /// Finish and return the 32-byte tag.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        self.outer.update(&self.inner.finalize());
        self.outer.finalize()
    }
}

/// Compute `HMAC-SHA256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let data = b"Hi There";
        assert_eq!(
            to_hex(&hmac_sha256(&key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        assert_eq!(
            to_hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            to_hex(&hmac_sha256(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let data = b"Test Using Larger Than Block-Size Key - Hash Key First";
        assert_eq!(
            to_hex(&hmac_sha256(&key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn tag_depends_on_key_and_message() {
        let tag = hmac_sha256(b"k", b"msg");
        assert_eq!(hmac_sha256(b"k", b"msg"), tag);
        assert_ne!(hmac_sha256(b"k", b"msg2"), tag);
        assert_ne!(hmac_sha256(b"k2", b"msg"), tag);
    }

    /// RFC 4231 case 2 through the streaming interface, one byte per update,
    /// from a primed state that is cloned rather than rebuilt.
    #[test]
    fn rfc4231_case_2_streamed_bytewise() {
        let primed = HmacSha256::new(b"Jefe");
        for _ in 0..2 {
            let mut mac = primed.clone();
            for byte in b"what do ya want for nothing?" {
                mac.update(&[*byte]);
            }
            assert_eq!(
                to_hex(&mac.finalize()),
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
            );
        }
    }

    #[test]
    fn debug_shows_no_key_material() {
        let mac = HmacSha256::new(&[0xC7u8; 20]);
        assert_eq!(format!("{mac:?}"), "HmacSha256 { .. }");
    }
}
