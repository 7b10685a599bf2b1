//! Protocol v3's length-prefixed binary codec and the connect-time
//! handshake that negotiates it.
//!
//! The JSON line protocol ([`crate::protocol`]) stays the debuggable,
//! `netcat`-able encoding every old client speaks.  The binary codec is the
//! fast path a new client negotiates at connect time:
//!
//! ```text
//! client ──► "TPLR" ┃ version u32 LE ┃ codec u8          (9-byte hello)
//! client ◄── "TPLR" ┃ version u32 LE ┃ codec u8 | 0xFF   (9-byte ack)
//! ```
//!
//! A connection whose first bytes are *not* the magic is a plain JSON-lines
//! session — no handshake, no version gate beyond the per-envelope `version`
//! field.  A binary connection checks the version exactly once, in the
//! handshake, so binary envelopes do not repeat it per message.
//!
//! After a successful binary handshake, each direction carries
//! length-prefixed frames whose header exposes the correlation id *before*
//! the body is decoded — a shedding server can answer an overload without
//! parsing the request:
//!
//! ```text
//! request:  ┃ len u32 LE ┃ id u64 LE ┃ RequestBody value ┃
//! response: ┃ len u32 LE ┃ id u64 LE ┃ status u8 ┃ body value ┃
//! ```
//!
//! `len` counts everything after itself; `status` is 0 for success
//! (`ResponseBody` follows) and 1 for failure (`ApiError` follows).  Values
//! are the [`serde::Value`] data model in a tagged, varint-compressed form —
//! no string escaping, no float formatting, no re-tokenizing on decode.
//! The codec itself is [`serde::binary`], shared with the snapshot
//! sections; the frame functions stream bodies through
//! [`serde::Serialize::encode`] and [`serde::decode`], field by field, and
//! never build a `Value` tree.
//!
//! Framing violations are *typed* ([`CodecError`]): truncated buffers,
//! frames above the negotiated size cap, unknown tags, handshake mismatches.
//! The wire-visible projection ([`CodecError::to_api_error`]) keeps the v3
//! taxonomy — no new `ApiError` variants, so mixed-generation JSON peers are
//! unaffected by this codec's existence.

use crate::error::ApiError;
use crate::protocol::{RequestBody, ResponseBody, PROTOCOL_VERSION};
use serde::Serialize;
use std::fmt;

/// First bytes of a binary-capable client's hello.  Chosen so it can never
/// be confused with a JSON line (which starts with `{` or whitespace).
pub const HANDSHAKE_MAGIC: [u8; 4] = *b"TPLR";

/// Size of hello and ack: magic + version + codec byte.
pub const HANDSHAKE_LEN: usize = 9;

/// The ack's codec byte when the server refuses the hello (version or codec
/// it does not speak).  The connection is closed after the ack.
pub const HANDSHAKE_REJECTED: u8 = 0xFF;

/// Default upper bound on one frame's `len` field (16 MiB).  A frame above
/// the cap is rejected without buffering its body.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// The two encodings a connection can speak after the handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireCodec {
    /// Newline-delimited JSON protocol lines (the v3 line protocol).
    Json,
    /// Length-prefixed binary frames.
    Binary,
}

impl WireCodec {
    fn to_byte(self) -> u8 {
        match self {
            WireCodec::Json => 0,
            WireCodec::Binary => 1,
        }
    }

    fn from_byte(byte: u8) -> Result<Self, CodecError> {
        match byte {
            0 => Ok(WireCodec::Json),
            1 => Ok(WireCodec::Binary),
            other => Err(CodecError::UnknownCodec { byte: other }),
        }
    }
}

/// Every way the binary codec can fail, as data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the announced structure did.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes it had.
        have: usize,
    },
    /// A frame announced a length above the negotiated cap.
    Oversized {
        /// The announced frame length.
        len: usize,
        /// The cap it violated.
        max: usize,
    },
    /// A frame too short to carry its own header.
    Runt {
        /// The announced frame length.
        len: usize,
        /// The minimum a frame of this kind needs.
        min: usize,
    },
    /// The hello/ack did not start with [`HANDSHAKE_MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// Handshake protocol-generation mismatch.
    Version {
        /// The generation this build speaks.
        expected: u32,
        /// The generation the peer announced.
        found: u32,
    },
    /// The hello/ack named a codec this build does not implement.
    UnknownCodec {
        /// The codec byte found.
        byte: u8,
    },
    /// The server's ack refused the connection.
    Rejected,
    /// A structurally invalid value body (unknown tag, bad UTF-8, trailing
    /// bytes, nesting past the depth bound).
    Malformed {
        /// The decoder's diagnostic.
        detail: String,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, have } => {
                write!(
                    f,
                    "truncated frame: needed {needed} more bytes, have {have}"
                )
            }
            CodecError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            CodecError::Runt { len, min } => {
                write!(
                    f,
                    "runt frame: {len} bytes cannot carry a {min}-byte header"
                )
            }
            CodecError::BadMagic { found } => {
                write!(f, "handshake does not start with TPLR magic: {found:?}")
            }
            CodecError::Version { expected, found } => write!(
                f,
                "handshake version mismatch: peer speaks v{found}, this build speaks v{expected}"
            ),
            CodecError::UnknownCodec { byte } => write!(f, "unknown codec byte {byte:#04x}"),
            CodecError::Rejected => write!(f, "server refused the handshake"),
            CodecError::Malformed { detail } => write!(f, "malformed binary value: {detail}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A body that failed to decode keeps the frame taxonomy: running out of
/// bytes is [`CodecError::Truncated`], everything else — a broken value or
/// one that does not fit the body type — is [`CodecError::Malformed`].
impl From<serde::Error> for CodecError {
    fn from(e: serde::Error) -> Self {
        match e {
            serde::Error::Truncated { needed, have } => CodecError::Truncated { needed, have },
            serde::Error::Malformed(detail) => CodecError::Malformed { detail },
            serde::Error::Data(_) => CodecError::Malformed {
                detail: e.to_string(),
            },
        }
    }
}

impl CodecError {
    /// Project onto the wire taxonomy a v3 client already understands.
    pub fn to_api_error(&self) -> ApiError {
        match self {
            CodecError::Version { expected, found } => ApiError::VersionMismatch {
                expected: *expected,
                found: *found,
            },
            other => ApiError::MalformedEnvelope {
                detail: other.to_string(),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

/// The client's 9-byte hello for `codec` at this build's protocol version.
pub fn encode_hello(codec: WireCodec) -> [u8; HANDSHAKE_LEN] {
    let mut hello = [0u8; HANDSHAKE_LEN];
    hello[..4].copy_from_slice(&HANDSHAKE_MAGIC);
    hello[4..8].copy_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    hello[8] = codec.to_byte();
    hello
}

/// Parse a client hello.  Returns the codec the client asked for; the
/// version gate fires here, once per connection.
pub fn decode_hello(hello: &[u8; HANDSHAKE_LEN]) -> Result<WireCodec, CodecError> {
    if hello[..4] != HANDSHAKE_MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(&hello[..4]);
        return Err(CodecError::BadMagic { found });
    }
    let version = u32::from_le_bytes(hello[4..8].try_into().expect("four bytes"));
    if version != PROTOCOL_VERSION {
        return Err(CodecError::Version {
            expected: PROTOCOL_VERSION,
            found: version,
        });
    }
    WireCodec::from_byte(hello[8])
}

/// The server's 9-byte ack: the accepted codec, or a rejection byte (the
/// ack still carries the server's version so a mismatched client learns
/// what to speak).
pub fn encode_ack(accepted: Option<WireCodec>) -> [u8; HANDSHAKE_LEN] {
    let mut ack = [0u8; HANDSHAKE_LEN];
    ack[..4].copy_from_slice(&HANDSHAKE_MAGIC);
    ack[4..8].copy_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    ack[8] = accepted.map_or(HANDSHAKE_REJECTED, WireCodec::to_byte);
    ack
}

/// Parse a server ack from the client side.
pub fn decode_ack(ack: &[u8; HANDSHAKE_LEN]) -> Result<WireCodec, CodecError> {
    if ack[..4] != HANDSHAKE_MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(&ack[..4]);
        return Err(CodecError::BadMagic { found });
    }
    let version = u32::from_le_bytes(ack[4..8].try_into().expect("four bytes"));
    if ack[8] == HANDSHAKE_REJECTED {
        // Prefer the version diagnosis when the server speaks another
        // generation — that is what the client must fix.
        if version != PROTOCOL_VERSION {
            return Err(CodecError::Version {
                expected: PROTOCOL_VERSION,
                found: version,
            });
        }
        return Err(CodecError::Rejected);
    }
    if version != PROTOCOL_VERSION {
        return Err(CodecError::Version {
            expected: PROTOCOL_VERSION,
            found: version,
        });
    }
    WireCodec::from_byte(ack[8])
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// Bytes of a request frame's fixed header after the length prefix.
const REQUEST_HEADER: usize = 8;
/// Bytes of a response frame's fixed header after the length prefix: id +
/// status.
const RESPONSE_HEADER: usize = 9;

const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;

/// Encode one request as a complete frame (length prefix included).
pub fn encode_request_frame(id: u64, body: &RequestBody) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(&id.to_le_bytes());
    body.encode(&mut out);
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
    out
}

/// Decode a request frame's payload (everything after the length prefix).
/// The correlation id decodes even when the body does not, so the error
/// response can still be matched to its request.
pub fn decode_request_frame(
    payload: &[u8],
) -> Result<(u64, Result<RequestBody, CodecError>), CodecError> {
    if payload.len() < REQUEST_HEADER {
        return Err(CodecError::Runt {
            len: payload.len(),
            min: REQUEST_HEADER,
        });
    }
    let id = u64::from_le_bytes(payload[..8].try_into().expect("eight bytes"));
    let body = serde::decode::<RequestBody>(&payload[REQUEST_HEADER..]).map_err(CodecError::from);
    Ok((id, body))
}

/// Read just the correlation id off a request frame's payload — what a
/// shedding server needs to answer an overload without decoding the body.
pub fn peek_request_id(payload: &[u8]) -> Option<u64> {
    payload
        .get(..8)
        .map(|bytes| u64::from_le_bytes(bytes.try_into().expect("eight bytes")))
}

/// Encode one response as a complete frame (length prefix included).
pub fn encode_response_frame(id: u64, outcome: &Result<ResponseBody, ApiError>) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(&id.to_le_bytes());
    match outcome {
        Ok(body) => {
            out.push(STATUS_OK);
            body.encode(&mut out);
        }
        Err(err) => {
            out.push(STATUS_ERR);
            err.encode(&mut out);
        }
    }
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
    out
}

/// Decode a response frame's payload (everything after the length prefix).
pub fn decode_response_frame(
    payload: &[u8],
) -> Result<(u64, Result<ResponseBody, ApiError>), CodecError> {
    if payload.len() < RESPONSE_HEADER {
        return Err(CodecError::Runt {
            len: payload.len(),
            min: RESPONSE_HEADER,
        });
    }
    let id = u64::from_le_bytes(payload[..8].try_into().expect("eight bytes"));
    let body = &payload[RESPONSE_HEADER..];
    let outcome = match payload[8] {
        STATUS_OK => Ok(serde::decode::<ResponseBody>(body)?),
        STATUS_ERR => Err(serde::decode::<ApiError>(body)?),
        status => {
            return Err(CodecError::Malformed {
                detail: format!("unknown response status byte {status:#04x}"),
            })
        }
    };
    Ok((id, outcome))
}

/// Validate a frame's announced length against the cap before buffering its
/// body.
pub fn check_frame_len(len: usize, max: usize) -> Result<(), CodecError> {
    if len > max {
        return Err(CodecError::Oversized { len, max });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::TranslateRequest;
    use serde::binary::{put_varint, MAX_DEPTH, TAG_NULL, TAG_SEQ};
    use serde::Value;
    use templar_core::{Keyword, KeywordMetadata};

    /// The shared value codec, seen through the frame taxonomy.
    fn decode_value(bytes: &[u8]) -> Result<Value, CodecError> {
        Ok(serde::decode_value(bytes)?)
    }

    fn sample_request() -> RequestBody {
        RequestBody::Translate(
            TranslateRequest::new(
                "mas",
                "papers after 2000",
                vec![(Keyword::new("papers"), KeywordMetadata::select())],
            )
            .with_lambda(0.4)
            .with_trace(),
        )
    }

    #[test]
    fn request_frames_round_trip() {
        let body = sample_request();
        let frame = encode_request_frame(7, &body);
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - 4);
        let (id, decoded) = decode_request_frame(&frame[4..]).unwrap();
        assert_eq!(id, 7);
        assert_eq!(decoded.unwrap(), body);
        assert_eq!(peek_request_id(&frame[4..]), Some(7));
    }

    #[test]
    fn response_frames_round_trip_both_arms() {
        let ok: Result<ResponseBody, ApiError> = Ok(ResponseBody::SqlAccepted);
        let frame = encode_response_frame(9, &ok);
        let (id, outcome) = decode_response_frame(&frame[4..]).unwrap();
        assert_eq!((id, outcome), (9, ok));

        let err: Result<ResponseBody, ApiError> = Err(ApiError::Backpressure);
        let frame = encode_response_frame(10, &err);
        let (id, outcome) = decode_response_frame(&frame[4..]).unwrap();
        assert_eq!(id, 10);
        assert_eq!(outcome, Err(ApiError::Backpressure));
    }

    #[test]
    fn truncation_is_typed_at_every_boundary() {
        let frame = encode_request_frame(3, &sample_request());
        let payload = &frame[4..];
        for cut in REQUEST_HEADER + 1..payload.len() {
            let (_, body) = decode_request_frame(&payload[..cut]).unwrap();
            match body {
                Err(CodecError::Truncated { .. }) | Err(CodecError::Malformed { .. }) => {}
                other => panic!("cut at {cut}: expected typed failure, got {other:?}"),
            }
        }
        // Below the header the id itself is unrecoverable.
        assert!(matches!(
            decode_request_frame(&payload[..4]),
            Err(CodecError::Runt { len: 4, min: 8 })
        ));
    }

    #[test]
    fn oversized_frames_are_rejected_by_length_alone() {
        assert_eq!(
            check_frame_len(MAX_FRAME_BYTES + 1, MAX_FRAME_BYTES),
            Err(CodecError::Oversized {
                len: MAX_FRAME_BYTES + 1,
                max: MAX_FRAME_BYTES
            })
        );
        assert_eq!(check_frame_len(MAX_FRAME_BYTES, MAX_FRAME_BYTES), Ok(()));
    }

    #[test]
    fn hostile_collection_counts_cannot_preallocate() {
        // A seq claiming u64::MAX elements in a 3-byte body must fail as
        // truncated, not attempt a huge Vec::with_capacity.
        let mut bytes = vec![TAG_SEQ];
        put_varint(u64::MAX, &mut bytes);
        assert!(matches!(
            decode_value(&bytes),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn nested_hostile_counts_cannot_multiply_preallocation() {
        // Every nesting level claims a count that individually passes the
        // remaining-bytes bound (~500k elements in a 1 MiB body), so the
        // per-level byte check alone would let MAX_DEPTH live parent Vecs
        // each reserve hundreds of megabytes before the depth bound or
        // Truncated is reached.  With capped pre-allocation this decodes
        // (and fails) in microseconds with trivial memory.
        let mut bytes = Vec::new();
        while bytes.len() < 1024 * 1024 {
            bytes.push(TAG_SEQ);
            put_varint(500_000, &mut bytes);
        }
        assert!(matches!(
            decode_value(&bytes),
            Err(CodecError::Malformed { .. }) // depth bound trips first
        ));
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_malformed() {
        assert!(matches!(
            decode_value(&[0x7F]),
            Err(CodecError::Malformed { .. })
        ));
        assert!(matches!(
            decode_value(&[TAG_NULL, TAG_NULL]),
            Err(CodecError::Malformed { .. })
        ));
    }

    #[test]
    fn depth_bound_rejects_hostile_nesting() {
        let mut bytes = Vec::new();
        for _ in 0..(MAX_DEPTH + 2) {
            bytes.push(TAG_SEQ);
            bytes.push(1); // one element each
        }
        bytes.push(TAG_NULL);
        match decode_value(&bytes) {
            Err(CodecError::Malformed { detail }) => assert!(detail.contains("depth")),
            other => panic!("expected depth rejection, got {other:?}"),
        }
    }

    #[test]
    fn handshake_round_trips_and_gates_versions() {
        let hello = encode_hello(WireCodec::Binary);
        assert_eq!(decode_hello(&hello).unwrap(), WireCodec::Binary);
        let hello = encode_hello(WireCodec::Json);
        assert_eq!(decode_hello(&hello).unwrap(), WireCodec::Json);

        let mut old = encode_hello(WireCodec::Binary);
        old[4..8].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(
            decode_hello(&old),
            Err(CodecError::Version {
                expected: PROTOCOL_VERSION,
                found: 2
            })
        );

        let mut garbage = encode_hello(WireCodec::Binary);
        garbage[..4].copy_from_slice(b"HTTP");
        assert_eq!(
            decode_hello(&garbage),
            Err(CodecError::BadMagic { found: *b"HTTP" })
        );
    }

    #[test]
    fn acks_carry_acceptance_and_rejection() {
        let ack = encode_ack(Some(WireCodec::Binary));
        assert_eq!(decode_ack(&ack).unwrap(), WireCodec::Binary);
        let ack = encode_ack(None);
        assert_eq!(decode_ack(&ack), Err(CodecError::Rejected));
        // A rejecting ack from another generation diagnoses the version.
        let mut ack = encode_ack(None);
        ack[4..8].copy_from_slice(&9u32.to_le_bytes());
        assert_eq!(
            decode_ack(&ack),
            Err(CodecError::Version {
                expected: PROTOCOL_VERSION,
                found: 9
            })
        );
    }

    #[test]
    fn codec_errors_project_onto_the_v3_taxonomy() {
        assert_eq!(
            CodecError::Version {
                expected: 3,
                found: 2
            }
            .to_api_error(),
            ApiError::VersionMismatch {
                expected: 3,
                found: 2
            }
        );
        match (CodecError::Oversized { len: 99, max: 10 }).to_api_error() {
            ApiError::MalformedEnvelope { detail } => assert!(detail.contains("99")),
            other => panic!("expected MalformedEnvelope, got {other:?}"),
        }
    }

    #[test]
    fn binary_encoding_is_denser_than_json_for_real_bodies() {
        let body = sample_request();
        let frame = encode_request_frame(1, &body);
        let json = crate::protocol::encode_request(&crate::protocol::RequestEnvelope::new(1, body));
        assert!(
            frame.len() < json.len(),
            "binary frame ({} B) should undercut the JSON line ({} B)",
            frame.len(),
            json.len()
        );
    }
}
