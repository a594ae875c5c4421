//! Framing fuzz tests: decoding is *total* (never panics, never
//! over-reads) and round-trips every valid frame bit-exactly, while
//! truncation, trailing garbage and foreign headers are all refused with
//! structured errors.

use proptest::prelude::*;

use wedge_cachenet::{
    ProtoError, Request, Response, MAGIC, TRACE_EXT_LEN, TRACE_EXT_TAG, WIRE_VERSION,
};
use wedge_telemetry::TraceContext;
use wedge_tls::SessionId;

fn arb_session_id() -> impl Strategy<Value = SessionId> {
    prop::collection::vec(any::<u8>(), 16)
        .prop_map(|bytes| SessionId::from_bytes(&bytes).expect("16 bytes"))
}

/// Every request.
fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        arb_session_id().prop_map(Request::Lookup),
        (arb_session_id(), prop::collection::vec(any::<u8>(), 0..256))
            .prop_map(|(id, premaster)| Request::Insert(id, premaster)),
        arb_session_id().prop_map(Request::Invalidate),
        Just(Request::Ping),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (any::<u64>(), prop::collection::vec(any::<u8>(), 0..256))
            .prop_map(|(epoch, premaster)| Response::Hit { epoch, premaster }),
        any::<u64>().prop_map(|epoch| Response::Miss { epoch }),
        any::<u64>().prop_map(|epoch| Response::Ok { epoch }),
        (
            any::<u64>(),
            prop::collection::vec(32u8..127, 0..64)
                .prop_map(|bytes| String::from_utf8(bytes).expect("printable ascii"))
        )
            .prop_map(|(epoch, message)| Response::Err { epoch, message }),
    ]
}

proptest! {
    /// Any byte string decodes to exactly one frame or one structured
    /// error — never a panic (the "framing fuzz" half of the protocol's
    /// contract).
    #[test]
    fn arbitrary_bytes_never_panic_either_decoder(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    /// Every request round-trips bit-exactly.
    #[test]
    fn requests_round_trip(request in arb_request()) {
        let wire = request.encode();
        let framed = Request::decode(&wire).expect("self-encoded frame");
        prop_assert_eq!(framed.request, request);
        prop_assert_eq!(framed.trace, None, "a plain frame carries no trace");
    }

    /// Every response round-trips bit-exactly, and the epoch accessor
    /// agrees with the decoded frame.
    #[test]
    fn responses_round_trip(response in arb_response()) {
        let wire = response.encode();
        let decoded = Response::decode(&wire).expect("self-encoded frame");
        prop_assert_eq!(decoded.epoch(), response.epoch());
        prop_assert_eq!(decoded, response);
    }

    /// Truncating a valid frame anywhere never decodes to a frame — a
    /// partial read cannot be mistaken for a shorter valid message.
    #[test]
    fn truncations_never_decode(request in arb_request(), cut in 0usize..64) {
        let wire = request.encode();
        if cut < wire.len() {
            let truncated = &wire[..wire.len() - 1 - cut.min(wire.len() - 1)];
            prop_assert!(Request::decode(truncated).is_err());
        }
    }

    /// Appending garbage to a valid frame is always refused (frames are
    /// exact, so desynchronised framing surfaces loudly).
    #[test]
    fn trailing_garbage_never_decodes(request in arb_request(), extra in 1usize..16) {
        let mut wire = request.encode();
        wire.extend(std::iter::repeat_n(0xAAu8, extra));
        prop_assert!(matches!(
            Request::decode(&wire),
            Err(ProtoError::TrailingBytes(_)) | Err(ProtoError::BadLength { .. })
        ));
    }

    /// A frame from any other protocol version — the retired versions 1,
    /// 2 and 3 (drawn three times in four) as much as one never defined —
    /// is refused by the header, whatever follows.
    #[test]
    fn foreign_versions_are_refused(
        request in arb_request(),
        version in prop_oneof![Just(1u8), Just(2u8), Just(3u8), any::<u8>()],
    ) {
        prop_assume!(version != WIRE_VERSION);
        let mut wire = request.encode();
        wire[1] = version;
        prop_assert_eq!(Request::decode(&wire), Err(ProtoError::BadVersion(version)));
    }

    /// The magic byte gates everything: without it nothing decodes.
    #[test]
    fn foreign_magic_is_refused(request in arb_request(), magic in any::<u8>()) {
        prop_assume!(magic != MAGIC);
        let mut wire = request.encode();
        wire[0] = magic;
        prop_assert_eq!(Request::decode(&wire), Err(ProtoError::BadMagic(magic)));
    }

    /// The trace extension round-trips bit-exactly — trace id and span
    /// id over their whole spaces — without disturbing the request. The
    /// wire does not carry ancestry, so the decoded context always has
    /// `parent_id` 0.
    #[test]
    fn trace_extension_round_trips(
        request in arb_request(),
        trace_id in any::<u64>(),
        span_id in any::<u32>(),
    ) {
        let ctx = TraceContext { trace_id, span_id, parent_id: 0 };
        let wire = request.encode_traced(Some(ctx));
        let framed = Request::decode(&wire).expect("traced frame");
        prop_assert_eq!(framed.trace, Some(ctx));
        prop_assert_eq!(framed.request, request);
    }

    /// `encode_traced(.., None)` is byte-identical to `encode` — an
    /// untraced client is indistinguishable from a peer that predates
    /// the extension, so the two interoperate by construction.
    #[test]
    fn untraced_encoding_is_byte_identical(request in arb_request()) {
        prop_assert_eq!(request.encode_traced(None), request.encode());
    }

    /// Arbitrary bytes in the extension position never panic the
    /// decoder: only a whole, tagged block decodes (to *some* context);
    /// every other trailer stays structured trailing-bytes garbage.
    #[test]
    fn arbitrary_extension_bytes_never_panic(
        request in arb_request(),
        trailer in prop::collection::vec(any::<u8>(), 1..2 * TRACE_EXT_LEN),
    ) {
        let mut wire = request.encode();
        wire.extend_from_slice(&trailer);
        match Request::decode(&wire) {
            Ok(framed) => {
                // Decoding succeeded, so the trailer must have been a
                // well-formed extension block — nothing else is accepted.
                prop_assert_eq!(trailer.len(), TRACE_EXT_LEN);
                prop_assert_eq!(trailer[0], TRACE_EXT_TAG);
                prop_assert_eq!(framed.request, request);
                prop_assert!(framed.trace.is_some());
            }
            Err(err) => prop_assert!(matches!(
                err,
                ProtoError::TrailingBytes(_) | ProtoError::BadLength { .. }
            )),
        }
    }
}
