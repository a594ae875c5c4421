//! Property tests for the SSL-like substrate: the MAC'd record layer that the
//! man-in-the-middle defence of §5.1.2 relies on ("Data injected by the
//! attacker will be rejected by the client handler sthread"), and the wire
//! codecs used by the handshake compartments.

use proptest::prelude::*;

use wedge_crypto::sha256::{sha256, to_hex};
use wedge_tls::messages::{ClientHello, ClientKeyExchange, Finished, ServerHello, RANDOM_LEN};
use wedge_tls::{RecordLayer, SessionId, SessionKeys};

fn arb_keys() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (
        prop::collection::vec(any::<u8>(), 1..48),
        prop::collection::vec(any::<u8>(), 1..48),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Sealing at one endpoint and opening at the other returns the original
    /// plaintext, for any key material and any message sequence.
    #[test]
    fn record_seal_open_roundtrip(
        (cipher_key, mac_key) in arb_keys(),
        messages in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..256), 1..8),
    ) {
        let mut sender = RecordLayer::new(&cipher_key, &mac_key);
        let mut receiver = RecordLayer::new(&cipher_key, &mac_key);
        for plaintext in &messages {
            let record = sender.seal(plaintext);
            let opened = receiver.open(&record).expect("genuine record opens");
            prop_assert_eq!(&opened, plaintext);
        }
        prop_assert_eq!(sender.sent(), messages.len() as u64);
        prop_assert_eq!(receiver.received(), messages.len() as u64);
    }

    /// Any single-byte corruption of a sealed record — in the sequence
    /// prefix, the ciphertext, or the MAC — is rejected. This is the
    /// integrity property the client-handler compartment depends on.
    #[test]
    fn record_rejects_any_single_byte_corruption(
        (cipher_key, mac_key) in arb_keys(),
        plaintext in prop::collection::vec(any::<u8>(), 0..256),
        corrupt_at in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let mut sender = RecordLayer::new(&cipher_key, &mac_key);
        let mut receiver = RecordLayer::new(&cipher_key, &mac_key);
        let mut record = sender.seal(&plaintext);
        let index = corrupt_at.index(record.len());
        record[index] ^= flip;
        prop_assert!(receiver.open(&record).is_err());
    }

    /// Records cannot be replayed or reordered: each must arrive exactly at
    /// the sequence position it was sealed for.
    #[test]
    fn record_rejects_replay_and_reorder(
        (cipher_key, mac_key) in arb_keys(),
        first in prop::collection::vec(any::<u8>(), 0..64),
        second in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut sender = RecordLayer::new(&cipher_key, &mac_key);
        let mut receiver = RecordLayer::new(&cipher_key, &mac_key);
        let r1 = sender.seal(&first);
        let r2 = sender.seal(&second);

        // Reorder: the second record cannot be opened first.
        prop_assert!(receiver.open(&r2).is_err());

        // In order both open...
        prop_assert_eq!(receiver.open(&r1).expect("first"), first);
        prop_assert_eq!(receiver.open(&r2).expect("second"), second);

        // ...and replaying either afterwards is rejected.
        prop_assert!(receiver.open(&r1).is_err());
        prop_assert!(receiver.open(&r2).is_err());
    }

    /// A record layer resumed at explicit sequence positions (the
    /// ssl_read/ssl_write callgates persist these in tagged memory between
    /// invocations) interoperates with a continuously used peer.
    #[test]
    fn resumed_record_layer_continues_the_stream(
        (cipher_key, mac_key) in arb_keys(),
        messages in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 2..6),
    ) {
        let mut sender = RecordLayer::new(&cipher_key, &mac_key);
        for (opened, plaintext) in messages.iter().enumerate() {
            let record = sender.seal(plaintext);
            // Each open happens in a freshly resumed layer, as a short-lived
            // callgate activation would do.
            let mut gate = RecordLayer::resume(&cipher_key, &mac_key, 0, opened as u64);
            prop_assert_eq!(&gate.open(&record).expect("opens"), plaintext);
        }
    }

    /// Handshake message codecs round-trip and never panic on truncation.
    #[test]
    fn handshake_codecs_roundtrip_and_reject_truncation(
        client_random in any::<[u8; RANDOM_LEN]>(),
        server_random in any::<[u8; RANDOM_LEN]>(),
        session_bytes in any::<[u8; 16]>(),
        resumed in any::<bool>(),
        offer_resumption in any::<bool>(),
        premaster in prop::collection::vec(any::<u8>(), 1..96),
        verify in prop::collection::vec(any::<u8>(), 1..64),
        cut in any::<prop::sample::Index>(),
    ) {
        let session_id = SessionId::from_bytes(&session_bytes).expect("16-byte id");

        let ch = ClientHello {
            client_random,
            session_id: if offer_resumption { Some(session_id) } else { None },
        };
        prop_assert_eq!(ClientHello::decode(&ch.encode()).expect("ch"), ch.clone());

        let sh = ServerHello { server_random, session_id, resumed };
        prop_assert_eq!(ServerHello::decode(&sh.encode()).expect("sh"), sh.clone());

        let cke = ClientKeyExchange { encrypted_premaster: premaster };
        prop_assert_eq!(
            ClientKeyExchange::decode(&cke.encode()).expect("cke"),
            cke.clone()
        );

        let fin = Finished { verify_data: verify };
        prop_assert_eq!(Finished::decode(&fin.encode()).expect("fin"), fin.clone());

        // Truncating any encoding strictly is an error, never a panic.
        for encoded in [ch.encode(), sh.encode(), cke.encode(), fin.encode()] {
            let len = cut.index(encoded.len().max(1));
            if len < encoded.len() {
                let truncated = &encoded[..len];
                prop_assert!(ClientHello::decode(truncated).is_err());
                prop_assert!(ServerHello::decode(truncated).is_err());
                prop_assert!(ClientKeyExchange::decode(truncated).is_err());
                prop_assert!(Finished::decode(truncated).is_err());
            }
        }
    }

    /// Session-key derivation is deterministic in its inputs and sensitive to
    /// every one of them — the reason the setup_session_key callgate can deny
    /// the exploited worker any useful influence (§5.1.1): changing the
    /// server random (which the callgate generates itself) changes the keys.
    #[test]
    fn session_key_derivation_is_deterministic_and_input_sensitive(
        premaster in prop::collection::vec(any::<u8>(), 1..64),
        client_random in any::<[u8; RANDOM_LEN]>(),
        server_random in any::<[u8; RANDOM_LEN]>(),
        other_server_random in any::<[u8; RANDOM_LEN]>(),
    ) {
        let a = SessionKeys::derive(&premaster, &client_random, &server_random);
        let b = SessionKeys::derive(&premaster, &client_random, &server_random);
        prop_assert_eq!(a.fingerprint(), b.fingerprint());

        prop_assume!(server_random != other_server_random);
        let c = SessionKeys::derive(&premaster, &client_random, &other_server_random);
        prop_assert_ne!(a.fingerprint(), c.fingerprint());
    }
}

fn pinned_keys() -> (Vec<u8>, Vec<u8>) {
    ((0u8..32).collect(), (100u8..132).collect())
}

fn bulk_plaintext(len: u32) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + i / 251) as u8).collect()
}

/// Sealed records captured from the per-byte cipher and copying record layer
/// this implementation replaced: the wire format, bit for bit. The 16 KiB
/// records are pinned by their SHA-256.
#[test]
fn sealed_records_match_the_pinned_wire_vectors() {
    let (cipher_key, mac_key) = pinned_keys();
    let short: Vec<u8> = (0..45u32).map(|i| (i * 7 + 3) as u8).collect();
    let long = bulk_plaintext(16 * 1024);
    let pinned = [
        (0u64, &[][..], "0000000000000000d8223ec2f41ab2cf0dbc4c655f0c686a38565a29ea187543712016957b7d4722"),
        (0, &short[..], "0000000000000000ecba21e3402934b519404ffd1541b77e5b6753f6487a13c66467d5d955e312590de2077f83bf85e4548fb8e29cdc3c64a26c96f4e1b944aac5ab0673b7e5070c29c001015be88d426386caaa1d"),
        (0, &long[..], "f9ee86eebafaa8c305a807b9596fe66050ecf7909960c3a78a21e50ce7f15c2e"),
        (3, &[][..], "000000000000000392ce0dce1109df338f7abc65b69ef946b77e0788b7ccce10124b59ad299da14a"),
        (3, &short[..], "0000000000000003e6303094e088a44357cea93b15b499c195f93930d3edc2619349bacc73d488cb29ba4958862d6446241bfbd88ef9458ab2194822e5a8f4f34421daafae3c3dc9c515d95574f71ed39742a2044d"),
        (3, &long[..], "272a5e79b00920f359d1fab4a0466dd2c0c510bbf456efdadf70f399d8682891"),
    ];
    for (seq, plaintext, expected) in pinned {
        let record = RecordLayer::resume(&cipher_key, &mac_key, seq, 0).seal(plaintext);
        let shown = if plaintext.len() > short.len() {
            to_hex(&sha256(&record))
        } else {
            to_hex(&record)
        };
        assert_eq!(
            shown,
            expected,
            "seq {seq}, {}-byte plaintext",
            plaintext.len()
        );
        let opened = RecordLayer::resume(&cipher_key, &mac_key, 0, seq).open(&record);
        assert_eq!(opened.expect("pinned record opens"), plaintext);
    }
}

/// The benchmark's bulk body travels as one 128 KiB record.
#[test]
fn a_128_kib_record_round_trips() {
    let (cipher_key, mac_key) = pinned_keys();
    let plaintext = bulk_plaintext(128 * 1024);
    let mut sender = RecordLayer::new(&cipher_key, &mac_key);
    let mut receiver = RecordLayer::new(&cipher_key, &mac_key);
    for _ in 0..2 {
        let record = sender.seal(&plaintext);
        assert_ne!(&record[8..8 + plaintext.len()], &plaintext[..]);
        assert_eq!(receiver.open(&record).expect("opens"), plaintext);
    }
}

/// A rejected record — bad MAC, wrong sequence number, or truncated anywhere
/// around the 8-byte prefix and the 40-byte minimum — consumes no sequence
/// number, and the genuine record still opens afterwards.
#[test]
fn rejected_records_leave_the_receiver_where_it_was() {
    let (cipher_key, mac_key) = pinned_keys();
    let mut sender = RecordLayer::new(&cipher_key, &mac_key);
    let mut receiver = RecordLayer::new(&cipher_key, &mac_key);
    let first = sender.seal(b"first");
    let second = sender.seal(b"second");
    assert_eq!(receiver.open(&first).expect("opens"), b"first");

    let mut bad_mac = second.clone();
    *bad_mac.last_mut().expect("non-empty") ^= 0x80;
    let mut rejected = vec![bad_mac, first.clone(), sender.seal(b"third")];
    rejected.extend([0, 7, 8, 39, 40].map(|len| second[..len].to_vec()));
    for record in &rejected {
        assert!(receiver.open(record).is_err(), "{} bytes", record.len());
        assert_eq!(receiver.received(), 1);
    }
    assert_eq!(receiver.open(&second).expect("still opens"), b"second");
    assert_eq!(receiver.received(), 2);
}

/// `seal` returns `seq ‖ ciphertext ‖ mac` in a buffer sized for exactly that.
#[test]
fn seal_allocates_exactly_the_record() {
    let mut layer = RecordLayer::new(b"write-key", b"mac-key");
    for len in [0usize, 1, 45, 16 * 1024] {
        let record = layer.seal(&vec![0x5Au8; len]);
        assert_eq!(record.len(), 8 + len + 32);
        assert_eq!(record.capacity(), record.len(), "{len}-byte plaintext");
    }
}
