//! Key derivation in the style of the TLS PRF.
//!
//! §5.1.1 of the paper: "The SSL session key derives from three inputs that
//! traverse the network: random values supplied by the server and client,
//! both sent in clear ... and another random value supplied by the client,
//! sent over the network encrypted with the server's public key. ... Because
//! the session key is a cryptographic hash over three inputs, one of which
//! is random from the attacker's perspective, he cannot usefully influence
//! the generated session key."
//!
//! [`derive_key_block`] is that hash: an HMAC-based expansion of
//! `premaster ‖ client_random ‖ server_random` into the session key
//! material, split by [`KeyMaterial`] into encryption and MAC keys for each
//! direction.

use crate::hmac::HmacSha256;
use crate::sha256::DIGEST_LEN;

/// Session key material derived from the handshake inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyMaterial {
    /// Key used to encrypt client→server records.
    pub client_write_key: Vec<u8>,
    /// Key used to encrypt server→client records.
    pub server_write_key: Vec<u8>,
    /// MAC key for client→server records.
    pub client_mac_key: Vec<u8>,
    /// MAC key for server→client records.
    pub server_mac_key: Vec<u8>,
}

impl KeyMaterial {
    /// A compact fingerprint of the whole key block (used in tests and
    /// transcripts to compare "did both sides derive the same keys" without
    /// exposing the keys themselves).
    pub fn fingerprint(&self) -> [u8; 32] {
        let mut all = Vec::new();
        all.extend_from_slice(&self.client_write_key);
        all.extend_from_slice(&self.server_write_key);
        all.extend_from_slice(&self.client_mac_key);
        all.extend_from_slice(&self.server_mac_key);
        crate::sha256::sha256(&all)
    }
}

/// P_hash-style expansion: HMAC(secret, label ‖ seed ‖ counter) chained
/// until `out_len` bytes are produced, the seed in two pieces. The HMAC key
/// schedule runs once; each message clones it.
fn p_hash(secret: &[u8], label: &[u8], [s0, s1]: [&[u8]; 2], out_len: usize) -> Vec<u8> {
    let keyed = HmacSha256::new(secret);
    let mac = |parts: &[&[u8]]| {
        let mut mac = keyed.clone();
        parts.iter().fold(&mut mac, |mac, part| mac.update(part));
        mac.finalize()
    };
    let mut out = Vec::with_capacity(out_len + DIGEST_LEN);
    let mut a = mac(&[label, s0, s1]);
    for counter in 0u32.. {
        out.extend_from_slice(&mac(&[&a, label, s0, s1, &counter.to_be_bytes()]));
        if out.len() >= out_len {
            break;
        }
        a = mac(&[&a]);
    }
    out.truncate(out_len);
    out
}

/// Derive the master secret from the premaster secret and the two
/// handshake randoms (mirrors `master_secret = PRF(premaster, "master
/// secret", client_random ‖ server_random)`).
pub fn derive_master_secret(
    premaster: &[u8],
    client_random: &[u8],
    server_random: &[u8],
) -> Vec<u8> {
    let randoms = [client_random, server_random];
    p_hash(premaster, b"master secret", randoms, 48)
}

/// Derive the full key block (two write keys + two MAC keys, 32 bytes each)
/// from the premaster secret and the handshake randoms.
pub fn derive_key_block(
    premaster: &[u8],
    client_random: &[u8],
    server_random: &[u8],
) -> KeyMaterial {
    let master = derive_master_secret(premaster, client_random, server_random);
    let randoms = [server_random, client_random];
    let block = p_hash(&master, b"key expansion", randoms, 128);
    KeyMaterial {
        client_write_key: block[0..32].to_vec(),
        server_write_key: block[32..64].to_vec(),
        client_mac_key: block[64..96].to_vec(),
        server_mac_key: block[96..128].to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_inputs_same_keys() {
        let a = derive_key_block(b"pm", b"cr", b"sr");
        let b = derive_key_block(b"pm", b"cr", b"sr");
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn any_input_change_changes_all_keys() {
        let base = derive_key_block(b"pm", b"cr", b"sr");
        for variant in [
            derive_key_block(b"pm2", b"cr", b"sr"),
            derive_key_block(b"pm", b"cr2", b"sr"),
            derive_key_block(b"pm", b"cr", b"sr2"),
        ] {
            assert_ne!(base.fingerprint(), variant.fingerprint());
            assert_ne!(base.client_write_key, variant.client_write_key);
            assert_ne!(base.server_mac_key, variant.server_mac_key);
        }
    }

    #[test]
    fn keys_are_pairwise_distinct() {
        let k = derive_key_block(b"premaster", b"client-random", b"server-random");
        let all = [
            &k.client_write_key,
            &k.server_write_key,
            &k.client_mac_key,
            &k.server_mac_key,
        ];
        for i in 0..all.len() {
            for j in i + 1..all.len() {
                assert_ne!(all[i], all[j]);
            }
        }
    }

    #[test]
    fn master_secret_is_48_bytes() {
        assert_eq!(derive_master_secret(b"pm", b"cr", b"sr").len(), 48);
    }

    #[test]
    fn key_lengths_are_32_bytes() {
        let k = derive_key_block(b"pm", b"cr", b"sr");
        assert_eq!(k.client_write_key.len(), 32);
        assert_eq!(k.server_write_key.len(), 32);
        assert_eq!(k.client_mac_key.len(), 32);
        assert_eq!(k.server_mac_key.len(), 32);
    }

    /// Pinned outputs of fixed inputs: both handshake ends derive these
    /// bytes, so no rewrite of the expansion may change them.
    #[test]
    fn pinned_key_block_fingerprint() {
        let k = derive_key_block(b"pm", b"cr", b"sr");
        assert_eq!(
            crate::sha256::to_hex(&k.fingerprint()),
            "c8e492a3e7e3ce66965e5d21b29d32134720c7638b21c292f72dba3e147fd6eb"
        );
        assert_eq!(
            crate::sha256::to_hex(&derive_master_secret(b"pm", b"cr", b"sr")),
            "351d9a95444cadc8ad5aa062ecd9e88f5691c382c52356628a8354a4fb46e5c5\
             f253b3168b53180fec1eb4218a3b5ed0"
        );
    }

    #[test]
    fn empty_inputs_still_derive() {
        let k = derive_key_block(b"", b"", b"");
        assert_eq!(k.client_write_key.len(), 32);
    }
}
