//! The cachenet wire protocol: compact, length-prefixed, versioned
//! frames spoken over a [`wedge_net::Duplex`] link.
//!
//! One frame per link message. Version 2 — what this build speaks —
//! stamps every frame with a **`u16` request id** right after the 3-byte
//! header `[MAGIC, VERSION, opcode]`, so a client can keep many requests
//! in flight on one link (pipelining) and pair each reply with its
//! request no matter the order replies arrive in. Fixed-size fields are
//! little-endian, variable-size fields carry a `u16` length prefix, and
//! the session id is always its full 16 bytes. Responses additionally
//! carry the serving node's **epoch** (see `node.rs`) right after the
//! request id, so clients detect a restarted node from any reply.
//!
//! ```text
//! hdr      := MAGIC ver(1) opcode rid(2)       ; ver = 2
//! request  := hdr id(16)                       ; Lookup / Invalidate
//!           | hdr id(16) len(2) bytes          ; Insert
//!           | hdr                              ; Ping
//!           | hdr n(2) id(16)*n                ; LookupBatch
//!           | hdr n(2) (id(16) len(2) bytes)*n ; InsertBatch
//! response := hdr epoch(8) len(2) bytes        ; Hit / Err
//!           | hdr epoch(8)                     ; Miss / Ok
//!           | hdr epoch(8) n(2) result*n       ; Batch
//! result   := 0x00 | 0x01 len(2) bytes         ; per-key miss / hit
//! ext      := 0x54 trace_id(8) span_id(4)      ; optional, requests only
//! ```
//!
//! **Trace extension:** a *request* may append one optional trailing
//! block `ext := 0x54 trace_id(8) span_id(4)` carrying the sender's
//! request-trace context, so a remote node's server-side spans join the
//! same causal trace. The block is exactly [`TRACE_EXT_LEN`] bytes, so a
//! decoder can tell "body then extension" from "body then garbage"
//! without ambiguity: anything trailing that is not a whole, tagged
//! extension stays a [`ProtoError::TrailingBytes`] error. Peers that
//! predate the extension never send it ([`Request::encode`] emits none)
//! and never receive it unless asked ([`Request::encode_traced`] with
//! `None` is byte-identical to [`Request::encode`]). Responses never
//! carry it.
//!
//! **Versions:** one. Any version byte but [`WIRE_VERSION`] — the retired
//! id-less version 1 included — fails with [`ProtoError::BadVersion`]; a
//! mixed-version ring degrades to cache misses, never to corruption.
//!
//! Decoding is total: any byte string either decodes to exactly one frame
//! or fails with a structured [`ProtoError`] — never a panic, and never a
//! partial parse (trailing bytes are an error, so a frame boundary can
//! never silently swallow the start of the next frame). Batches are
//! bounded by [`MAX_BATCH_KEYS`] at decode time, so a hostile length
//! prefix cannot force a giant allocation. The fuzz tests in
//! `tests/proto_fuzz.rs` pin all of these properties.

use wedge_telemetry::TraceContext;
use wedge_tls::SessionId;

/// First header byte of every cachenet frame.
pub const MAGIC: u8 = 0xC5;

/// Tag byte opening the optional trailing trace extension on a request
/// frame (`'T'`).
pub const TRACE_EXT_TAG: u8 = 0x54;

/// Total size of the trace extension: tag + trace id + span id.
pub const TRACE_EXT_LEN: usize = 1 + 8 + 4;

/// The wire protocol version: v2 (request ids + batch ops), the only one
/// encoded or decoded.
pub const WIRE_VERSION: u8 = 2;

/// Longest premaster secret (or error message) a frame can carry.
pub const MAX_PAYLOAD: usize = u16::MAX as usize;

/// Most keys one `LookupBatch`/`InsertBatch`/`Batch` frame can carry.
/// Decoders refuse larger counts with [`ProtoError::BatchTooLarge`]
/// before allocating, so a hostile count prefix cannot balloon memory.
pub const MAX_BATCH_KEYS: usize = 1024;

const OP_LOOKUP: u8 = 0x01;
const OP_INSERT: u8 = 0x02;
const OP_INVALIDATE: u8 = 0x03;
const OP_PING: u8 = 0x04;
const OP_LOOKUP_BATCH: u8 = 0x05;
const OP_INSERT_BATCH: u8 = 0x06;
const OP_HIT: u8 = 0x81;
const OP_MISS: u8 = 0x82;
const OP_OK: u8 = 0x83;
const OP_ERR: u8 = 0x84;
const OP_BATCH: u8 = 0x85;

const ID_LEN: usize = 16;

/// A client → node frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Fetch the premaster for a session id.
    Lookup(SessionId),
    /// Store the premaster for a session id (write-through from a ring).
    Insert(SessionId, Vec<u8>),
    /// Drop a session id outright (compromise response).
    Invalidate(SessionId),
    /// Health probe; also refreshes the client's view of the node epoch.
    Ping,
    /// Fetch many premasters in one round trip. Answered by
    /// [`Response::Batch`] with one result per key, in key order.
    LookupBatch(Vec<SessionId>),
    /// Store many sessions in one round trip. All-or-nothing:
    /// a single oversize premaster refuses the whole batch.
    InsertBatch(Vec<(SessionId, Vec<u8>)>),
}

/// A node → client frame. Every variant carries the node's current epoch
/// so any response doubles as a restart detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The session was found; its premaster follows.
    Hit {
        /// The serving node's epoch.
        epoch: u64,
        /// The stored premaster secret.
        premaster: Vec<u8>,
    },
    /// The session is unknown (or was stale and has been invalidated).
    Miss {
        /// The serving node's epoch.
        epoch: u64,
    },
    /// An `Insert`/`Invalidate`/`Ping`/`InsertBatch` was applied.
    Ok {
        /// The serving node's epoch.
        epoch: u64,
    },
    /// The node could not act on the frame (bad version, malformed
    /// payload, oversize value). The link stays usable.
    Err {
        /// The serving node's epoch.
        epoch: u64,
        /// Human-readable reason, for logs and tests.
        message: String,
    },
    /// Per-key results for a `LookupBatch`, in request key order:
    /// `Some(premaster)` is a hit, `None` a miss.
    Batch {
        /// The serving node's epoch.
        epoch: u64,
        /// One entry per requested key, in request order.
        results: Vec<Option<Vec<u8>>>,
    },
}

/// A decoded request plus its framing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FramedRequest {
    /// The pipelining id to echo on the reply.
    pub request_id: u16,
    /// The decoded request.
    pub request: Request,
    /// The sender's trace context, when the frame carried the trace
    /// extension (`parent_id` 0 — the wire does not ship span ancestry;
    /// a node joins the trace with [`wedge_telemetry::Tracer::join_remote`],
    /// parenting its server-side span on `span_id`).
    pub trace: Option<TraceContext>,
}

/// A decoded response plus its framing, mirroring [`FramedRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FramedResponse {
    /// The request id this reply answers.
    pub request_id: u16,
    /// The decoded response.
    pub response: Response,
}

/// Why a byte string failed to decode as a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Fewer bytes than the smallest frame of this kind.
    Truncated,
    /// The first byte was not [`MAGIC`].
    BadMagic(u8),
    /// The version byte was not [`WIRE_VERSION`].
    BadVersion(u8),
    /// The opcode is not defined (or is a response opcode in a request
    /// position, and vice versa).
    BadOpcode(u8),
    /// The declared payload length disagrees with the bytes present.
    BadLength {
        /// Bytes the length prefix promised.
        declared: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A batch frame declared more keys than [`MAX_BATCH_KEYS`].
    BatchTooLarge(usize),
    /// A `Batch` per-key result tag was neither miss (0) nor hit (1).
    BadBatchTag(u8),
    /// Well-formed frame followed by garbage.
    TrailingBytes(usize),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "frame truncated"),
            ProtoError::BadMagic(b) => write!(f, "bad magic byte 0x{b:02x}"),
            ProtoError::BadVersion(v) => {
                write!(f, "unsupported wire version {v} (speaking {WIRE_VERSION})")
            }
            ProtoError::BadOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            ProtoError::BadLength {
                declared,
                available,
            } => write!(
                f,
                "length prefix says {declared} bytes, {available} present"
            ),
            ProtoError::BatchTooLarge(n) => {
                write!(f, "batch declares {n} keys, limit {MAX_BATCH_KEYS}")
            }
            ProtoError::BadBatchTag(tag) => write!(f, "bad batch result tag 0x{tag:02x}"),
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Write a `u16`-length-prefixed field. Payloads are capped at
/// [`MAX_PAYLOAD`] by the frame format itself; encoding something larger
/// is a caller bug (real premasters are 48 bytes, error messages a few
/// dozen) — debug builds assert, release builds truncate rather than
/// emit an undecodable frame. Nodes independently refuse oversize
/// `Insert` values, so a truncated secret can never be *stored* silently.
fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    debug_assert!(
        bytes.len() <= MAX_PAYLOAD,
        "cachenet frame payload exceeds MAX_PAYLOAD ({} > {MAX_PAYLOAD})",
        bytes.len()
    );
    let len = bytes.len().min(MAX_PAYLOAD);
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&bytes[..len]);
}

/// Write a batch count. Encoding more than [`MAX_BATCH_KEYS`] entries is
/// a caller bug (the ring caps its coalescing far below it) — debug
/// builds assert; release builds emit the true count, which the decoder
/// then refuses with [`ProtoError::BatchTooLarge`] rather than parsing a
/// silently truncated batch.
fn put_count(out: &mut Vec<u8>, n: usize) {
    debug_assert!(
        n <= MAX_BATCH_KEYS,
        "cachenet batch exceeds MAX_BATCH_KEYS ({n} > {MAX_BATCH_KEYS})"
    );
    out.extend_from_slice(&(n.min(u16::MAX as usize) as u16).to_le_bytes());
}

/// A cursor over a frame body with total (never-panicking) reads.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.bytes.len() - self.at < n {
            return Err(ProtoError::Truncated);
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn session_id(&mut self) -> Result<SessionId, ProtoError> {
        let bytes = self.take(ID_LEN)?;
        Ok(SessionId::from_bytes(bytes).expect("16 bytes"))
    }

    fn var_bytes(&mut self) -> Result<Vec<u8>, ProtoError> {
        let declared = self.u16()? as usize;
        let available = self.bytes.len() - self.at;
        if available < declared {
            return Err(ProtoError::BadLength {
                declared,
                available,
            });
        }
        Ok(self.take(declared)?.to_vec())
    }

    fn batch_count(&mut self) -> Result<usize, ProtoError> {
        let declared = self.u16()? as usize;
        if declared > MAX_BATCH_KEYS {
            return Err(ProtoError::BatchTooLarge(declared));
        }
        Ok(declared)
    }

    fn finish(self) -> Result<(), ProtoError> {
        let rest = self.bytes.len() - self.at;
        if rest == 0 {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes(rest))
        }
    }

    /// Consume the optional trailing trace extension of a request.
    /// Exactly nothing, or exactly one whole tagged block, may follow
    /// the body — any other trailer is the same [`ProtoError::TrailingBytes`]
    /// garbage it always was.
    fn finish_with_trace_ext(mut self) -> Result<Option<TraceContext>, ProtoError> {
        let rest = self.bytes.len() - self.at;
        if rest == 0 {
            return Ok(None);
        }
        if rest != TRACE_EXT_LEN || self.bytes[self.at] != TRACE_EXT_TAG {
            return Err(ProtoError::TrailingBytes(rest));
        }
        self.at += 1;
        let trace_id = self.u64()?;
        let span_id = u32::from_le_bytes(self.take(4)?.try_into().expect("4"));
        self.finish()?;
        Ok(Some(TraceContext {
            trace_id,
            span_id,
            parent_id: 0,
        }))
    }
}

/// Parse the common header. Returns the opcode, the request id and a
/// reader positioned at the body.
fn header(bytes: &[u8]) -> Result<(u8, u16, Reader<'_>), ProtoError> {
    if bytes.len() < 3 {
        return Err(ProtoError::Truncated);
    }
    if bytes[0] != MAGIC {
        return Err(ProtoError::BadMagic(bytes[0]));
    }
    if bytes[1] != WIRE_VERSION {
        return Err(ProtoError::BadVersion(bytes[1]));
    }
    let mut reader = Reader { bytes, at: 3 };
    let request_id = reader.u16()?;
    Ok((bytes[2], request_id, reader))
}

fn frame(opcode: u8, request_id: u16) -> Vec<u8> {
    let mut out = vec![MAGIC, WIRE_VERSION, opcode];
    out.extend_from_slice(&request_id.to_le_bytes());
    out
}

/// Cheaply extract the request id of a frame without decoding the body —
/// what a node's error path uses to echo the id of a frame whose body it
/// could not parse. `None` for anything too mangled to carry an id.
pub fn peek_request_id(bytes: &[u8]) -> Option<u16> {
    if bytes.len() >= 5 && bytes[0] == MAGIC && bytes[1] == WIRE_VERSION {
        Some(u16::from_le_bytes([bytes[3], bytes[4]]))
    } else {
        None
    }
}

impl Request {
    fn body(&self, out: &mut Vec<u8>) {
        match self {
            Request::Lookup(id) | Request::Invalidate(id) => {
                out.extend_from_slice(id.as_bytes());
            }
            Request::Insert(id, premaster) => {
                out.extend_from_slice(id.as_bytes());
                put_bytes(out, premaster);
            }
            Request::Ping => {}
            Request::LookupBatch(ids) => {
                put_count(out, ids.len());
                for id in ids.iter().take(MAX_BATCH_KEYS) {
                    out.extend_from_slice(id.as_bytes());
                }
            }
            Request::InsertBatch(entries) => {
                put_count(out, entries.len());
                for (id, premaster) in entries.iter().take(MAX_BATCH_KEYS) {
                    out.extend_from_slice(id.as_bytes());
                    put_bytes(out, premaster);
                }
            }
        }
    }

    fn opcode(&self) -> u8 {
        match self {
            Request::Lookup(_) => OP_LOOKUP,
            Request::Insert(..) => OP_INSERT,
            Request::Invalidate(_) => OP_INVALIDATE,
            Request::Ping => OP_PING,
            Request::LookupBatch(_) => OP_LOOKUP_BATCH,
            Request::InsertBatch(_) => OP_INSERT_BATCH,
        }
    }

    /// Encode to one wire frame stamped with `request_id`.
    pub fn encode(&self, request_id: u16) -> Vec<u8> {
        let mut out = frame(self.opcode(), request_id);
        self.body(&mut out);
        out
    }

    /// [`Request::encode`], optionally appending the trace extension.
    /// `trace: None` is byte-identical to [`Request::encode`], so an
    /// untraced client is indistinguishable from one predating the
    /// extension.
    pub fn encode_traced(&self, request_id: u16, trace: Option<TraceContext>) -> Vec<u8> {
        let mut out = self.encode(request_id);
        if let Some(ctx) = trace {
            out.push(TRACE_EXT_TAG);
            out.extend_from_slice(&ctx.trace_id.to_le_bytes());
            out.extend_from_slice(&ctx.span_id.to_le_bytes());
        }
        out
    }

    /// Decode one wire frame. Total: returns a structured
    /// error for any input that is not exactly one valid request frame.
    pub fn decode(bytes: &[u8]) -> Result<FramedRequest, ProtoError> {
        let (opcode, request_id, mut reader) = header(bytes)?;
        let request = match opcode {
            OP_LOOKUP => Request::Lookup(reader.session_id()?),
            OP_INSERT => {
                let id = reader.session_id()?;
                let premaster = reader.var_bytes()?;
                Request::Insert(id, premaster)
            }
            OP_INVALIDATE => Request::Invalidate(reader.session_id()?),
            OP_PING => Request::Ping,
            OP_LOOKUP_BATCH => {
                let count = reader.batch_count()?;
                let mut ids = Vec::with_capacity(count);
                for _ in 0..count {
                    ids.push(reader.session_id()?);
                }
                Request::LookupBatch(ids)
            }
            OP_INSERT_BATCH => {
                let count = reader.batch_count()?;
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let id = reader.session_id()?;
                    let premaster = reader.var_bytes()?;
                    entries.push((id, premaster));
                }
                Request::InsertBatch(entries)
            }
            other => return Err(ProtoError::BadOpcode(other)),
        };
        let trace = reader.finish_with_trace_ext()?;
        Ok(FramedRequest {
            request_id,
            request,
            trace,
        })
    }
}

impl Response {
    fn body(&self, out: &mut Vec<u8>) {
        match self {
            Response::Hit { epoch, premaster } => {
                out.extend_from_slice(&epoch.to_le_bytes());
                put_bytes(out, premaster);
            }
            Response::Miss { epoch } | Response::Ok { epoch } => {
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            Response::Err { epoch, message } => {
                out.extend_from_slice(&epoch.to_le_bytes());
                put_bytes(out, message.as_bytes());
            }
            Response::Batch { epoch, results } => {
                out.extend_from_slice(&epoch.to_le_bytes());
                put_count(out, results.len());
                for result in results.iter().take(MAX_BATCH_KEYS) {
                    match result {
                        Some(premaster) => {
                            out.push(1);
                            put_bytes(out, premaster);
                        }
                        None => out.push(0),
                    }
                }
            }
        }
    }

    fn opcode(&self) -> u8 {
        match self {
            Response::Hit { .. } => OP_HIT,
            Response::Miss { .. } => OP_MISS,
            Response::Ok { .. } => OP_OK,
            Response::Err { .. } => OP_ERR,
            Response::Batch { .. } => OP_BATCH,
        }
    }

    /// Encode to one wire frame echoing `request_id`.
    pub fn encode(&self, request_id: u16) -> Vec<u8> {
        let mut out = frame(self.opcode(), request_id);
        self.body(&mut out);
        out
    }

    /// Decode one wire frame. Total, like [`Request::decode`].
    pub fn decode(bytes: &[u8]) -> Result<FramedResponse, ProtoError> {
        let (opcode, request_id, mut reader) = header(bytes)?;
        let response = match opcode {
            OP_HIT => {
                let epoch = reader.u64()?;
                let premaster = reader.var_bytes()?;
                Response::Hit { epoch, premaster }
            }
            OP_MISS => Response::Miss {
                epoch: reader.u64()?,
            },
            OP_OK => Response::Ok {
                epoch: reader.u64()?,
            },
            OP_ERR => {
                let epoch = reader.u64()?;
                let message = String::from_utf8_lossy(&reader.var_bytes()?).into_owned();
                Response::Err { epoch, message }
            }
            OP_BATCH => {
                let epoch = reader.u64()?;
                let count = reader.batch_count()?;
                let mut results = Vec::with_capacity(count);
                for _ in 0..count {
                    match reader.u8()? {
                        0 => results.push(None),
                        1 => results.push(Some(reader.var_bytes()?)),
                        tag => return Err(ProtoError::BadBatchTag(tag)),
                    }
                }
                Response::Batch { epoch, results }
            }
            other => return Err(ProtoError::BadOpcode(other)),
        };
        reader.finish()?;
        Ok(FramedResponse {
            request_id,
            response,
        })
    }

    /// The epoch stamped on this response, whatever the variant.
    pub fn epoch(&self) -> u64 {
        match self {
            Response::Hit { epoch, .. }
            | Response::Miss { epoch }
            | Response::Ok { epoch }
            | Response::Err { epoch, .. }
            | Response::Batch { epoch, .. } => *epoch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(byte: u8) -> SessionId {
        SessionId::from_bytes(&[byte; 16]).unwrap()
    }

    #[test]
    fn requests_round_trip_with_their_ids() {
        for (rid, request) in [
            (0u16, Request::Lookup(id(1))),
            (1, Request::Insert(id(2), b"premaster-bytes".to_vec())),
            (u16::MAX, Request::Insert(id(3), Vec::new())),
            (7, Request::Invalidate(id(4))),
            (42, Request::Ping),
            (9, Request::LookupBatch(vec![])),
            (10, Request::LookupBatch(vec![id(5), id(6)])),
            (11, Request::InsertBatch(vec![])),
            (
                12,
                Request::InsertBatch(vec![(id(7), b"a".to_vec()), (id(8), Vec::new())]),
            ),
        ] {
            let wire = request.encode(rid);
            let framed = Request::decode(&wire).unwrap();
            assert_eq!(framed.request_id, rid, "{request:?}");
            assert_eq!(framed.request, request, "{request:?}");
        }
    }

    #[test]
    fn responses_round_trip_with_their_ids() {
        for (rid, response) in [
            (
                3u16,
                Response::Hit {
                    epoch: 7,
                    premaster: b"secret".to_vec(),
                },
            ),
            (0, Response::Miss { epoch: 0 }),
            (u16::MAX, Response::Ok { epoch: u64::MAX }),
            (
                5,
                Response::Err {
                    epoch: 3,
                    message: "bad version".to_string(),
                },
            ),
            (
                6,
                Response::Batch {
                    epoch: 2,
                    results: vec![Some(b"pm".to_vec()), None, Some(Vec::new())],
                },
            ),
            (
                8,
                Response::Batch {
                    epoch: 1,
                    results: vec![],
                },
            ),
        ] {
            let wire = response.encode(rid);
            let framed = Response::decode(&wire).unwrap();
            assert_eq!(framed.request_id, rid, "{response:?}");
            assert_eq!(framed.response, response, "{response:?}");
        }
    }

    #[test]
    fn header_errors_are_structured() {
        assert_eq!(Request::decode(&[]), Err(ProtoError::Truncated));
        assert_eq!(
            Request::decode(&[MAGIC, WIRE_VERSION]),
            Err(ProtoError::Truncated)
        );
        // A v2 header cut off before its request id is truncated too.
        assert_eq!(
            Request::decode(&[MAGIC, WIRE_VERSION, OP_PING, 0]),
            Err(ProtoError::Truncated)
        );
        let mut wire = Request::Ping.encode(0);
        wire[0] ^= 0xFF;
        assert!(matches!(
            Request::decode(&wire),
            Err(ProtoError::BadMagic(_))
        ));
        // The retired version 1 is as foreign as one not yet invented.
        for version in [1, WIRE_VERSION + 1] {
            let mut wire = Request::Ping.encode(0);
            wire[1] = version;
            assert_eq!(Request::decode(&wire), Err(ProtoError::BadVersion(version)));
        }
        let mut wire = Request::Ping.encode(0);
        wire[2] = 0x7F;
        assert_eq!(Request::decode(&wire), Err(ProtoError::BadOpcode(0x7F)));
    }

    #[test]
    fn response_opcodes_do_not_decode_as_requests() {
        let wire = Response::Miss { epoch: 1 }.encode(0);
        assert!(matches!(
            Request::decode(&wire),
            Err(ProtoError::BadOpcode(_))
        ));
        let wire = Request::Ping.encode(0);
        assert!(matches!(
            Response::decode(&wire),
            Err(ProtoError::BadOpcode(_))
        ));
    }

    #[test]
    fn length_prefix_must_match_the_bytes_present() {
        let mut wire = Request::Insert(id(5), b"12345678".to_vec()).encode(0);
        // Claim more bytes than follow (header is 5 bytes in v2).
        let len_at = 5 + 16;
        wire[len_at] = 0xFF;
        wire[len_at + 1] = 0x00;
        assert!(matches!(
            Request::decode(&wire),
            Err(ProtoError::BadLength { .. })
        ));
        // Trailing garbage after a well-formed frame is refused too.
        let mut wire = Request::Lookup(id(6)).encode(0);
        wire.push(0xAA);
        assert_eq!(Request::decode(&wire), Err(ProtoError::TrailingBytes(1)));
    }

    #[test]
    fn oversize_and_truncated_batches_are_refused() {
        // A count beyond MAX_BATCH_KEYS fails before any allocation.
        let mut wire = frame(OP_LOOKUP_BATCH, 1);
        wire.extend_from_slice(&((MAX_BATCH_KEYS + 1) as u16).to_le_bytes());
        assert_eq!(
            Request::decode(&wire),
            Err(ProtoError::BatchTooLarge(MAX_BATCH_KEYS + 1))
        );
        // A count promising more keys than present is truncated.
        let mut wire = frame(OP_LOOKUP_BATCH, 1);
        wire.extend_from_slice(&3u16.to_le_bytes());
        wire.extend_from_slice(&[0u8; ID_LEN]); // only one key follows
        assert_eq!(Request::decode(&wire), Err(ProtoError::Truncated));
        // A batch response with a junk per-key tag is refused.
        let mut wire = frame(OP_BATCH, 1);
        wire.extend_from_slice(&1u64.to_le_bytes());
        wire.extend_from_slice(&1u16.to_le_bytes());
        wire.push(9);
        assert_eq!(Response::decode(&wire), Err(ProtoError::BadBatchTag(9)));
    }

    #[test]
    fn peek_request_id_reads_v2_headers_only() {
        let mut wire = Request::Ping.encode(0xBEEF);
        assert_eq!(peek_request_id(&wire), Some(0xBEEF));
        wire[1] = 1;
        assert_eq!(peek_request_id(&wire), None);
        assert_eq!(peek_request_id(&[MAGIC, WIRE_VERSION]), None);
        assert_eq!(peek_request_id(b"junk-bytes"), None);
    }
}
