//! AES-256 (FIPS-197) and its counter mode (NIST SP 800-38A §6.5), the
//! block cipher under [`StreamCipher`](crate::StreamCipher).
//!
//! [`expand`] and [`ctr`] run on AES-NI where the CPU has it, else on the
//! scalar key schedule and block function here, which are also the tests'
//! reference. The scalar block function is table-driven (one combined
//! SubBytes·MixColumns table, built at compile time), so its timing depends
//! on the key and data: it is not constant-time.

#[cfg(target_arch = "x86_64")]
use crate::x86;

/// AES's block size in bytes.
pub(crate) const BLOCK: usize = 16;

/// AES-256's fifteen round keys, in FIPS-197's byte order.
pub(crate) type RoundKeys = [[u8; BLOCK]; 15];

/// The S-box from its definition: the inverse in GF(2^8) (0 for 0), then
/// the affine map. `p` walks the field's units as powers of 3 and `q` their
/// inverses as powers of 3's inverse.
const SBOX: [u8; 256] = {
    let mut sbox = [0x63u8; 256];
    let (mut p, mut q) = (1u8, 1u8);
    loop {
        p ^= xtime(p);
        q ^= q << 1;
        q ^= q << 2;
        q ^= q << 4;
        if q & 0x80 != 0 {
            q ^= 0x09;
        }
        sbox[p as usize] =
            0x63 ^ q ^ q.rotate_left(1) ^ q.rotate_left(2) ^ q.rotate_left(3) ^ q.rotate_left(4);
        if p == 1 {
            break;
        }
    }
    sbox
};

/// `T[x]`: `S[x]` through MixColumns' first column `[2, 1, 1, 3]`, as a
/// little-endian column word. The other three columns are its rotations.
const T: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        table[x] = u32::from_le_bytes([xtime(s), s, s, xtime(s) ^ s]);
        x += 1;
    }
    table
};

/// Multiplication by `x` in GF(2^8) modulo AES's polynomial.
const fn xtime(byte: u8) -> u8 {
    (byte << 1) ^ if byte & 0x80 != 0 { 0x1b } else { 0 }
}

/// The round keys for `key`: on AES-NI if detected.
pub(crate) fn expand(key: &[u8; 32]) -> RoundKeys {
    #[cfg(target_arch = "x86_64")]
    {
        let mut keys = [[0; BLOCK]; 15];
        if x86::run(x86::Job::Expand {
            key,
            keys: &mut keys,
        }) {
            return keys;
        }
    }
    schedule(key)
}

/// The key expansion of FIPS-197 §5.2 for `Nk = 8`, word by word.
pub(crate) fn schedule(key: &[u8; 32]) -> RoundKeys {
    let mut keys = [[0; BLOCK]; 15];
    let words = keys.as_flattened_mut();
    words[..32].copy_from_slice(key);
    let mut rcon = 1;
    for i in 8..60 {
        let mut t: [u8; 4] = words[4 * i - 4..4 * i].try_into().expect("a word");
        if i % 8 == 0 {
            t = [t[1], t[2], t[3], t[0]].map(|byte| SBOX[usize::from(byte)]);
            t[0] ^= rcon;
            rcon = xtime(rcon);
        } else if i % 8 == 4 {
            t = t.map(|byte| SBOX[usize::from(byte)]);
        }
        for (b, t) in t.into_iter().enumerate() {
            words[4 * i + b] = words[4 * i - 32 + b] ^ t;
        }
    }
    keys
}

/// One AES-256 block, the scalar reference: the state as four little-endian
/// column words, thirteen table rounds and a last round without MixColumns.
pub(crate) fn encrypt(keys: &RoundKeys, block: [u8; BLOCK]) -> [u8; BLOCK] {
    let column = |bytes: &[u8; BLOCK], c: usize| u32::from_le_bytes(bytes.as_chunks::<4>().0[c]);
    // Row `r` of column `c` after ShiftRows comes from column `c + r`.
    let at =
        |state: &[u32; 4], c: usize, r: usize| usize::from((state[(c + r) % 4] >> (8 * r)) as u8);
    let mut state: [u32; 4] = std::array::from_fn(|c| column(&block, c) ^ column(&keys[0], c));
    for key in &keys[1..14] {
        state = std::array::from_fn(|c| {
            T[at(&state, c, 0)]
                ^ T[at(&state, c, 1)].rotate_left(8)
                ^ T[at(&state, c, 2)].rotate_left(16)
                ^ T[at(&state, c, 3)].rotate_left(24)
                ^ column(key, c)
        });
    }
    std::array::from_fn(|i| SBOX[at(&state, i / 4, i % 4)] ^ keys[14][i])
}

/// XORs `data` with the keystream from counter block `counter` on (each
/// block the counter's `be128`, incremented mod 2^128) and returns the
/// keystream of the block `data` ends in: on AES-NI if detected, in one
/// call for the whole run.
pub(crate) fn ctr(keys: &RoundKeys, counter: u128, data: &mut [u8]) -> [u8; BLOCK] {
    #[cfg(target_arch = "x86_64")]
    {
        let mut last = [0; BLOCK];
        if x86::run(x86::Job::Ctr {
            keys,
            counter,
            data: &mut *data,
            last: &mut last,
        }) {
            return last;
        }
    }
    scalar_ctr(keys, counter, data)
}

/// [`ctr`] on the scalar block function: the fallback, and the kernel's
/// reference.
pub(crate) fn scalar_ctr(keys: &RoundKeys, counter: u128, data: &mut [u8]) -> [u8; BLOCK] {
    let mut last = [0; BLOCK];
    for (j, piece) in (0..).zip(data.chunks_mut(BLOCK)) {
        last = encrypt(keys, counter.wrapping_add(j).to_be_bytes());
        xor(piece, &last);
    }
    last
}

/// XORs `keystream` into `data`, as far as the shorter goes.
pub(crate) fn xor(data: &mut [u8], keystream: &[u8]) {
    for (byte, ks) in data.iter_mut().zip(keystream) {
        *byte ^= ks;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sha256::to_hex;

    /// FIPS-197 Appendix C.3: AES-256, key `00 01 … 1f`.
    pub(crate) const C3_KEY: [u8; 32] = {
        let mut key = [0; 32];
        let mut i = 0;
        while i < 32 {
            key[i] = i as u8;
            i += 1;
        }
        key
    };
    pub(crate) const C3_PLAINTEXT: u128 = 0x00112233_44556677_8899aabb_ccddeeff;
    pub(crate) const C3_CIPHERTEXT: &str = "8ea2b7ca516745bfeafc49904b496089";

    /// SP 800-38A F.5.5, CTR-AES256.Encrypt: key, initial counter block,
    /// plaintext and ciphertext, four blocks.
    pub(crate) const F55_KEY: &str =
        "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4";
    pub(crate) const F55_COUNTER: u128 = 0xf0f1f2f3_f4f5f6f7_f8f9fafb_fcfdfeff;
    pub(crate) const F55_PLAINTEXT: &str = "6bc1bee22e409f96e93d7e117393172a\
                                            ae2d8a571e03ac9c9eb76fac45af8e51\
                                            30c81c46a35ce411e5fbc1191a0a52ef\
                                            f69f2445df4f9b17ad2b417be66c3710";
    pub(crate) const F55_CIPHERTEXT: &str = "601ec313775789a5b7a7f504bbf3d228\
                                             f443e3ca4d62b59aca84e990cacaf5c5\
                                             2b0930daa23de94ce87017ba2d84988d\
                                             dfc9c58db67aada613c2dd08457941a6";

    pub(crate) fn from_hex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
            .collect()
    }

    #[test]
    fn sbox_matches_fips_197() {
        assert_eq!(
            [SBOX[0x00], SBOX[0x01], SBOX[0x53], SBOX[0xff]],
            [0x63, 0x7c, 0xed, 0x16]
        );
    }

    #[test]
    fn scalar_block_matches_fips_197_c3() {
        let keys = schedule(&C3_KEY);
        // C.3's last round key.
        assert_eq!(to_hex(&keys[14]), "24fc79ccbf0979e9371ac23c6d68de36");
        assert_eq!(
            to_hex(&encrypt(&keys, C3_PLAINTEXT.to_be_bytes())),
            C3_CIPHERTEXT
        );
    }

    #[test]
    fn scalar_ctr_matches_sp_800_38a_f55() {
        let key: [u8; 32] = from_hex(F55_KEY).try_into().expect("32 bytes");
        let mut data = from_hex(F55_PLAINTEXT);
        let last = scalar_ctr(&schedule(&key), F55_COUNTER, &mut data);
        assert_eq!(to_hex(&data), F55_CIPHERTEXT);
        let plaintext = from_hex(F55_PLAINTEXT);
        let keystream: Vec<u8> = (48..64).map(|i| data[i] ^ plaintext[i]).collect();
        assert_eq!(last.to_vec(), keystream, "the last block's keystream");
    }
}
