//! Property tests for the SSL-like substrate: the MAC'd record layer that the
//! man-in-the-middle defence of §5.1.2 relies on ("Data injected by the
//! attacker will be rejected by the client handler sthread"), and the wire
//! codecs used by the handshake compartments.

use proptest::prelude::*;

use wedge_crypto::sha256::{sha256, to_hex};
use wedge_net::duplex_pair;
use wedge_tls::handshake::ServerConnection;
use wedge_tls::messages::{ClientHello, ClientKeyExchange, Finished, ServerHello, RANDOM_LEN};
use wedge_tls::record::{RecordError, MAX_PLAINTEXT};
use wedge_tls::{RecordLayer, SessionId, SessionKeys, TlsError};

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

    /// A message of any length travels as ⌈len / 2^14⌉ records (one when
    /// empty) and opens whole.
    #[test]
    fn messages_of_any_length_round_trip(
        (cipher_key, mac_key) in arb_keys(),
        len in 0usize..4 * MAX_PLAINTEXT + 100,
        fill in any::<u8>(),
    ) {
        let message: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(fill)).collect();
        let mut sender = RecordLayer::new(&cipher_key, &mac_key);
        let mut receiver = RecordLayer::new(&cipher_key, &mac_key);
        let records = seal_records(&mut sender, &message);
        prop_assert_eq!(records.len(), len.div_ceil(MAX_PLAINTEXT).max(1));
        prop_assert_eq!(open_records(&mut receiver, &records).expect("opens"), message);
        prop_assert_eq!(receiver.received(), sender.sent());
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

/// Sealed records computed by an independent model of the format (Python's
/// `hashlib` and `hmac` with OpenSSL's AES-256-CTR, which reproduced the
/// previous SHA-256 counter keystream's records byte for byte under that
/// definition): the wire format, bit for bit. The empty records carry no
/// ciphertext, so they read as under every keystream. The 16 KiB records are
/// pinned by their SHA-256.
#[test]
fn sealed_records_match_the_pinned_wire_vectors() {
    let (cipher_key, mac_key) = pinned_keys();
    let short: Vec<u8> = (0..45u32).map(|i| (i * 7 + 3) as u8).collect();
    let long = bulk_plaintext(16 * 1024);
    let pinned = [
        (0u64, &[][..], "0000000000000000d8223ec2f41ab2cf0dbc4c655f0c686a38565a29ea187543712016957b7d4722"),
        (0, &short[..], "00000000000000008b2a4ac15a682555fbd42a2e9748ac6b6ea10e8b26beb68504b34f3dc69474a02f818ba83b500c2e914a2b6f8c64e951fc85bf29cd73056a7a69d81eaed19dd7f02f953da623f946bddfd501f4"),
        (0, &long[..], "0e224d5b8ca6989b417e1bc5e043f878b2cf8fdd1540c3bc492425c2a52d5988"),
        (3, &[][..], "000000000000000392ce0dce1109df338f7abc65b69ef946b77e0788b7ccce10124b59ad299da14a"),
        (3, &short[..], "000000000000000313eaed253be00567a48a41e31a48be176728aa1842c4544603ffa12a63319739f9d9ab0dd49b3209f05e202461c0625968e24ab22423a1338fdf06045e2296758b57f1c869743873f6e64c661b"),
        (3, &long[..], "3a617f9697388be9d32fdc2154f53e52e51772b1ea34d2ed7594f873c72ebccf"),
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
        // A message of at most 2^14 bytes is that same record, bit for bit.
        let mut streamer = RecordLayer::resume(&cipher_key, &mac_key, seq, 0);
        assert_eq!(seal_records(&mut streamer, plaintext), [record]);
    }
}

/// `seal_message`'s records, in the order it sent them.
fn seal_records(sender: &mut RecordLayer, message: &[u8]) -> Vec<Vec<u8>> {
    let mut records = Vec::new();
    sender
        .seal_message(message, |record| {
            records.push(record);
            Ok::<_, RecordError>(())
        })
        .expect("sending into a Vec cannot fail");
    records
}

/// `open_message` over `records`; running out of them is a transport error,
/// as a closed link would be.
fn open_records(receiver: &mut RecordLayer, records: &[Vec<u8>]) -> Result<Vec<u8>, TlsError> {
    let mut arriving = records.iter().cloned();
    receiver.open_message(|| {
        arriving
            .next()
            .ok_or_else(|| TlsError::Transport("link closed".to_string()))
    })
}

fn header(record: &[u8]) -> u64 {
    u64::from_be_bytes(record[..8].try_into().expect("8-byte header"))
}

const MORE: u64 = 1 << 63;

/// The lengths around the record boundary and the benchmark's bulk body
/// (128 KiB plus a response header's worth) split into records of at most
/// 2^14 plaintext bytes; all but the last carry the "more" bit, and the
/// message opens whole, twice in a row on one pair of layers.
#[test]
fn messages_split_at_the_record_limit_and_open_whole() {
    let (cipher_key, mac_key) = pinned_keys();
    let mut sender = RecordLayer::new(&cipher_key, &mac_key);
    let mut receiver = RecordLayer::new(&cipher_key, &mac_key);
    for (len, count) in [
        (0, 1),
        (1, 1),
        (16_383, 1),
        (16_384, 1),
        (16_385, 2),
        (128 * 1024 + 47, 9),
    ] {
        let message = bulk_plaintext(len as u32);
        for _ in 0..2 {
            let first_seq = sender.sent();
            let records = seal_records(&mut sender, &message);
            assert_eq!(records.len(), count, "{len}-byte message");
            for (i, record) in records.iter().enumerate() {
                let more = if i + 1 < count { MORE } else { 0 };
                assert_eq!(header(record), (first_seq + i as u64) | more);
                assert!(record.len() <= MAX_PLAINTEXT + 40, "{len}-byte message");
                // Every record, not just the first, is encrypted.
                let chunk =
                    &message[(i * MAX_PLAINTEXT).min(len)..((i + 1) * MAX_PLAINTEXT).min(len)];
                let body = &record[8..record.len() - 32];
                assert_eq!(body.len(), chunk.len(), "{len}-byte message, record {i}");
                if !chunk.is_empty() {
                    assert_ne!(body, chunk, "{len}-byte message, record {i} in the clear");
                }
            }
            let opened = open_records(&mut receiver, &records).expect("opens");
            assert_eq!(opened, message, "{len}-byte message");
            assert_eq!(opened.capacity(), len, "one buffer of the message's size");
        }
    }
    assert_eq!(receiver.received(), sender.sent());
}

/// `seal`/`open`, the one-record case, still carry a 128 KiB plaintext as
/// one encrypted record.
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

/// A message arrives whole or not at all. A flipped "more" bit, a reordered
/// record, a replayed record, a record injected mid-message and a missing
/// final record each fail the message, and the receiver stays where it was
/// before it, so the genuine message still opens afterwards.
#[test]
fn a_tampered_message_is_rejected_whole() {
    let (cipher_key, mac_key) = pinned_keys();
    let message = bulk_plaintext(3 * MAX_PLAINTEXT as u32 + 5);
    let mut sender = RecordLayer::new(&cipher_key, &mac_key);
    let earlier = seal_records(&mut sender, b"earlier");
    let records = seal_records(&mut sender, &message);
    assert_eq!(records.len(), 4);
    let mut receiver = RecordLayer::new(&cipher_key, &mac_key);
    assert_eq!(
        open_records(&mut receiver, &earlier).expect("opens"),
        b"earlier"
    );

    let mut tampered = Vec::new();
    for at in [0, 3] {
        let mut flipped = records.clone();
        flipped[at][0] ^= 0x80;
        tampered.push(("flipped more bit", flipped));
    }
    let mut reordered = records.clone();
    reordered.swap(1, 2);
    tampered.push(("reordered", reordered));
    let mut replayed = records.clone();
    replayed.insert(2, records[1].clone());
    tampered.push(("replayed", replayed));
    let mut injected = records.clone();
    let mut forger = RecordLayer::new(b"attacker key", b"attacker mac");
    injected.insert(2, seal_records(&mut forger, b"evil")[0].clone());
    tampered.push(("injected", injected));
    let mut stale = records.clone();
    stale.insert(2, earlier[0].clone());
    tampered.push(("stale", stale));
    tampered.push(("final record dropped", records[..3].to_vec()));
    tampered.push(("first record alone", records[..1].to_vec()));
    for (what, arriving) in tampered {
        assert!(open_records(&mut receiver, &arriving).is_err(), "{what}");
        assert_eq!(receiver.received(), 1, "{what}");
    }
    // A record that opens a longer message is not a whole message either.
    assert_eq!(receiver.open(&records[0]), Err(RecordError::BadMac));
    assert_eq!(
        open_records(&mut receiver, &records).expect("opens"),
        message
    );
}

/// Over a real link, a dropped final record makes `recv` fail, never return
/// the prefix that did arrive.
#[test]
fn recv_without_the_final_record_is_an_error() {
    let keys = SessionKeys::derive(b"premaster", b"client random", b"server random");
    let layer = || {
        RecordLayer::new(
            &keys.material.client_write_key,
            &keys.material.client_mac_key,
        )
    };
    let mut server = ServerConnection {
        from_client: layer(),
        to_client: layer(),
        session_id: SessionId::from_bytes(&[7; 16]).expect("16 bytes"),
        keys: keys.clone(),
        resumed: false,
    };
    let records = seal_records(&mut layer(), &bulk_plaintext(2 * MAX_PLAINTEXT as u32 + 1));
    let (client_link, server_link) = duplex_pair("client", "server");
    for record in &records[..2] {
        client_link.send(record).expect("link open");
    }
    drop(client_link);
    assert!(matches!(
        server.recv(&server_link),
        Err(TlsError::Transport(_))
    ));
    assert_eq!(server.from_client.received(), 0);
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

/// Record `seq` by its definition, one record at a time: `seal` at that
/// sequence number gives the ciphertext, and the header (with the "more"
/// bit when `more`) and its MAC are computed here from the format.
fn record_by_definition(plaintext: &[u8], seq: u64, more: bool) -> Vec<u8> {
    let (cipher_key, mac_key) = pinned_keys();
    let sealed = RecordLayer::resume(&cipher_key, &mac_key, seq, 0).seal(plaintext);
    let header = if more { seq | MORE } else { seq };
    let mut record = header.to_be_bytes().to_vec();
    record.extend_from_slice(&sealed[8..sealed.len() - 32]);
    let tag = wedge_crypto::hmac_sha256(&mac_key, &record);
    record.extend_from_slice(&tag);
    record
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `seal_message`, which seals two records per pass after the first,
    /// writes exactly the records `seal` defines one at a time at the same
    /// sequence numbers, and `open_message`, which opens two per pass,
    /// returns what opening those records one after another returns. The
    /// lengths reach five records and one byte, so record counts are odd
    /// and even.
    #[test]
    fn paired_messages_match_records_one_at_a_time(
        len in prop_oneof![
            Just(0usize),
            Just(MAX_PLAINTEXT),
            Just(2 * MAX_PLAINTEXT),
            Just(2 * MAX_PLAINTEXT + 1),
            Just(5 * MAX_PLAINTEXT + 1),
            0usize..=5 * MAX_PLAINTEXT + 1,
        ],
        first_seq in 0u64..1_000,
    ) {
        let (cipher_key, mac_key) = pinned_keys();
        let message = bulk_plaintext(len as u32);
        let mut sender = RecordLayer::resume(&cipher_key, &mac_key, first_seq, 0);
        let records = seal_records(&mut sender, &message);
        let chunks: Vec<&[u8]> = if message.is_empty() {
            vec![&[]]
        } else {
            message.chunks(MAX_PLAINTEXT).collect()
        };
        prop_assert_eq!(records.len(), chunks.len());
        for (i, (record, chunk)) in records.iter().zip(&chunks).enumerate() {
            let more = i + 1 < chunks.len();
            let expected = record_by_definition(chunk, first_seq + i as u64, more);
            prop_assert!(record == &expected, "record {} of a {}-byte message", i, len);
        }
        let mut paired = RecordLayer::resume(&cipher_key, &mac_key, 0, first_seq);
        prop_assert_eq!(open_records(&mut paired, &records).expect("opens"), message.clone());
        // One at a time: each record by itself is the last of a one-record
        // message only if it carries no "more" bit, so open the definition's
        // single records (the same ciphertext without the bit) in turn.
        let mut one_by_one = RecordLayer::resume(&cipher_key, &mac_key, 0, first_seq);
        let mut sequential = Vec::new();
        for (i, chunk) in chunks.iter().enumerate() {
            let single = record_by_definition(chunk, first_seq + i as u64, false);
            sequential.extend(one_by_one.open(&single).expect("opens"));
        }
        prop_assert_eq!(&sequential, &message);
        prop_assert_eq!(paired.received(), one_by_one.received());
    }
}

/// A forged first record that claims more records follow is rejected after
/// exactly one `next`: the receiver reads nothing past it, so the genuine
/// stream behind it stays in step.
#[test]
fn a_forged_first_record_costs_exactly_one_next() {
    let (cipher_key, mac_key) = pinned_keys();
    let mut forger = RecordLayer::new(b"attacker key", b"attacker mac");
    let forged = seal_records(&mut forger, &bulk_plaintext(3 * MAX_PLAINTEXT as u32));
    assert_ne!(
        header(&forged[0]) & MORE,
        0,
        "the forgery claims more records"
    );
    let mut receiver = RecordLayer::new(&cipher_key, &mac_key);
    let mut arriving = forged.iter().cloned();
    let mut reads = 0;
    let opened = receiver.open_message(|| {
        reads += 1;
        arriving
            .next()
            .ok_or_else(|| TlsError::Transport("link closed".to_string()))
    });
    assert!(matches!(opened, Err(TlsError::Record(RecordError::BadMac))));
    assert_eq!(reads, 1);
    assert_eq!(receiver.received(), 0);
}

/// A bad second record of a pair (a flipped byte, or a record from another
/// key) ends the message: an error, no plaintext, and `received` where it
/// was before the message, so the genuine message opens afterwards.
#[test]
fn a_bad_second_record_of_a_pair_ends_the_message() {
    let (cipher_key, mac_key) = pinned_keys();
    let message = bulk_plaintext(4 * MAX_PLAINTEXT as u32 + 9);
    let records = seal_records(&mut RecordLayer::new(&cipher_key, &mac_key), &message);
    assert_eq!(records.len(), 5, "record 0 alone, then two pairs");
    let mut forger = RecordLayer::resume(b"attacker key", b"attacker mac", 2, 0);
    let mut foreign = forger.seal(&bulk_plaintext(MAX_PLAINTEXT as u32));
    foreign[0] |= 0x80;
    for second in [2, 4] {
        let mut flipped = records.clone();
        let at = flipped[second].len() / 2;
        flipped[second][at] ^= 0x01;
        let mut swapped = records.clone();
        swapped[second] = foreign.clone();
        for (what, arriving) in [("flipped", flipped), ("foreign", swapped)] {
            let mut receiver = RecordLayer::new(&cipher_key, &mac_key);
            let opened = open_records(&mut receiver, &arriving);
            assert!(opened.is_err(), "{what} record {second}");
            assert_eq!(receiver.received(), 0, "{what} record {second}");
            assert_eq!(
                open_records(&mut receiver, &records).expect("opens"),
                message
            );
        }
    }
}
