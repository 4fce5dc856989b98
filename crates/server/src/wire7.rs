//! Protocol frames: the version handshake and tagged, pipelined
//! requests and responses.
//!
//! Every payload carried by the [`crate::wire`] transport (u32 BE
//! length prefix, [`MAX_FRAME`](crate::wire::MAX_FRAME) cap) is one
//! typed frame:
//!
//! ```text
//! payload := [ 7u8 | frame_kind u8 | frame-specific bytes ]
//!
//! frame_kind 0  Hello       [ max_version u8 | client_id u64 | class u8 ]
//! frame_kind 1  HelloAck    [ version u8 | window u64 ]
//! frame_kind 2  Request     [ tag u32 LE | request kind u8 | body ]
//! frame_kind 3  Response    [ tag u32 LE | response kind u8 | body ]
//! ```
//!
//! A conversation *must* open with `Hello`/`HelloAck`; after the
//! handshake every request carries a client-chosen `tag` and its
//! response echoes that tag, so responses may complete out of order.
//! Anything else as a first payload — or a `Hello` offering less than
//! [`WIRE_VERSION`] — is answered with one
//! [`FaultKind::Version`](crate::wire::FaultKind::Version) fault on
//! [`CONTROL_TAG`] and a close.
//!
//! # Bodies
//!
//! Request and response bodies are defined in [`crate::wire`] over the
//! shared [`paq_relational::codec`]: `RegisterTable` ships its table in
//! crc-guarded column chunks with null bitmaps and width-packed
//! delta-encoded integers, and `Executed` ships its member pairs as two
//! width-packed u64 columns.
//!
//! # Tags
//!
//! Tags are opaque to the server: it never interprets them beyond
//! echoing. [`CONTROL_TAG`] (`u32::MAX`) is reserved for
//! connection-level responses that cannot be matched to a request (an
//! accept-time `Busy`, a refused or stalled first frame, a frame whose
//! body failed to decode past the tag); clients must not issue it.

use std::io::{Read, Write};

use paq_relational::codec::{put_u32, put_u64, Cursor};

use crate::error::{WireError, WireResult};
use crate::wire::{self, Request, Response, ShedClass, WIRE_VERSION};

/// Reserved response tag for connection-level faults that cannot be
/// matched to a request. Clients never submit it.
pub const CONTROL_TAG: u32 = u32::MAX;

/// Frame kind: client handshake opener.
pub const KIND_HELLO: u8 = 0;
/// Frame kind: server handshake answer.
pub const KIND_HELLO_ACK: u8 = 1;
/// Frame kind: tagged request.
pub const KIND_REQUEST: u8 = 2;
/// Frame kind: tagged response.
pub const KIND_RESPONSE: u8 = 3;

// ---------------------------------------------------------------------
// Handshake frames
// ---------------------------------------------------------------------

/// The first frame of a conversation, client → server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Highest protocol version the client speaks. The server serves
    /// [`WIRE_VERSION`] only: anything lower is refused with a typed
    /// `Version` fault.
    pub max_version: u8,
    /// Client-chosen identity for per-client admission quotas. `0`
    /// asks the server to assign one (each anonymous connection is its
    /// own client); any other value groups connections under one quota.
    pub client_id: u64,
    /// The admission class this connection's requests are queued under.
    pub class: ShedClass,
}

impl Hello {
    /// Encode into a standalone payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![WIRE_VERSION, KIND_HELLO, self.max_version];
        put_u64(&mut out, self.client_id);
        out.push(self.class.wire_byte());
        out
    }

    /// Decode a payload produced by [`Hello::encode`].
    pub fn decode(payload: &[u8]) -> WireResult<Hello> {
        let mut c = open_frame(payload, KIND_HELLO)?;
        let hello = Hello {
            max_version: c.u8()?,
            client_id: c.u64()?,
            class: ShedClass::from_wire(c.u8()?)?,
        };
        c.finish()?;
        Ok(hello)
    }

    /// Write this handshake as one frame.
    pub fn write_to<W: Write>(&self, w: &mut W) -> WireResult<()> {
        wire::write_frame(w, &self.encode())
    }
}

/// The server's answer to [`Hello`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloAck {
    /// The agreed protocol version — always [`WIRE_VERSION`].
    pub version: u8,
    /// The server's per-connection pipeline window: at most this many
    /// requests may be in flight on the connection at once. A hint for
    /// client pacing — the server enforces it regardless.
    pub window: u64,
}

impl HelloAck {
    /// Encode into a standalone payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![WIRE_VERSION, KIND_HELLO_ACK, self.version];
        put_u64(&mut out, self.window);
        out
    }

    /// Decode a payload produced by [`HelloAck::encode`].
    pub fn decode(payload: &[u8]) -> WireResult<HelloAck> {
        let mut c = open_frame(payload, KIND_HELLO_ACK)?;
        let ack = HelloAck {
            version: c.u8()?,
            window: c.u64()?,
        };
        c.finish()?;
        Ok(ack)
    }

    /// Write this answer as one frame.
    pub fn write_to<W: Write>(&self, w: &mut W) -> WireResult<()> {
        wire::write_frame(w, &self.encode())
    }

    /// Read one HelloAck frame; `Ok(None)` when the peer closed.
    pub fn read_from<R: Read>(r: &mut R) -> WireResult<Option<HelloAck>> {
        match wire::read_frame(r)? {
            Some(payload) => Ok(Some(HelloAck::decode(&payload)?)),
            None => Ok(None),
        }
    }
}

/// A cursor over `payload` positioned past its version and kind bytes,
/// both checked.
fn open_frame(payload: &[u8], want_kind: u8) -> WireResult<Cursor<'_>> {
    let mut c = Cursor::new(payload);
    let got = c.u8()?;
    if got != WIRE_VERSION {
        return Err(WireError::Version {
            got,
            want: WIRE_VERSION,
        });
    }
    let kind = c.u8()?;
    if kind != want_kind {
        return Err(WireError::Malformed(format!(
            "frame kind {kind}, expected {want_kind}"
        )));
    }
    Ok(c)
}

// ---------------------------------------------------------------------
// Tagged requests and responses
// ---------------------------------------------------------------------

/// Encode a tagged request.
pub fn encode_request_v7(tag: u32, request: &Request) -> Vec<u8> {
    let mut out = vec![WIRE_VERSION, KIND_REQUEST];
    put_u32(&mut out, tag);
    wire::put_request_body(&mut out, request);
    out
}

/// Decode a payload produced by [`encode_request_v7`], returning the
/// tag alongside the request.
pub fn decode_request_v7(payload: &[u8]) -> WireResult<(u32, Request)> {
    let mut c = open_frame(payload, KIND_REQUEST)?;
    let tag = c.u32()?;
    let request = wire::get_request_body(&mut c)?;
    c.finish()?;
    Ok((tag, request))
}

/// Recover just the tag from a request payload — used to answer a
/// request whose *body* failed to decode with an error carrying the
/// right tag (so the pipelined client does not hang on a lost tag).
/// Falls back to [`CONTROL_TAG`] semantics at the caller when this
/// fails too.
pub(crate) fn request_frame_tag(payload: &[u8]) -> WireResult<u32> {
    Ok(open_frame(payload, KIND_REQUEST)?.u32()?)
}

/// Encode a tagged response.
pub fn encode_response_v7(tag: u32, response: &Response) -> Vec<u8> {
    let mut out = vec![WIRE_VERSION, KIND_RESPONSE];
    put_u32(&mut out, tag);
    wire::put_response_body(&mut out, response);
    out
}

/// Decode a payload produced by [`encode_response_v7`], returning the
/// tag alongside the response.
pub fn decode_response_v7(payload: &[u8]) -> WireResult<(u32, Response)> {
    let mut c = open_frame(payload, KIND_RESPONSE)?;
    let tag = c.u32()?;
    let response = wire::get_response_body(&mut c)?;
    c.finish()?;
    Ok((tag, response))
}

#[cfg(test)]
mod tests {
    use super::*;
    use paq_relational::codec::put_string;

    #[test]
    fn hello_roundtrip_and_version_typed() {
        let hello = Hello {
            max_version: 7,
            client_id: 42,
            class: ShedClass::Bulk,
        };
        assert_eq!(Hello::decode(&hello.encode()).unwrap(), hello);
        let ack = HelloAck {
            version: 7,
            window: 32,
        };
        assert_eq!(HelloAck::decode(&ack.encode()).unwrap(), ack);
        // Any other leading byte is a typed version mismatch.
        let mut payload = encode_request_v7(0, &Request::Stats);
        payload[0] = WIRE_VERSION - 1;
        assert!(matches!(
            decode_request_v7(&payload),
            Err(WireError::Version { got: 6, want: 7 })
        ));
    }

    #[test]
    fn tags_round_trip_and_survive_a_bad_body() {
        let payload = encode_request_v7(0xDEAD_BEEF, &Request::Metrics);
        let (tag, back) = decode_request_v7(&payload).unwrap();
        assert_eq!((tag, back), (0xDEAD_BEEF, Request::Metrics));
        let mut broken = payload.clone();
        broken.push(0);
        match decode_request_v7(&broken) {
            Err(WireError::Malformed(d)) => assert!(d.contains("trailing"), "{d}"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(request_frame_tag(&broken).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn tagged_busy_carries_shed_class() {
        let busy = Response::Busy {
            in_flight: 3,
            max_in_flight: 4,
            retry_after_ms: 50,
            shed_class: Some(ShedClass::Normal),
        };
        let payload = encode_response_v7(7, &busy);
        assert_eq!(decode_response_v7(&payload).unwrap(), (7, busy));
    }

    #[test]
    fn metrics_response_round_trips() {
        let registry = paq_obs::Registry::new();
        registry.incr("db.route.model");
        registry.add("solver.nodes", 42);
        registry.set_gauge("db.cache.entries", -3);
        for n in [1u64, 5, 900, 70_000, 70_000] {
            registry.observe_nanos("server.handle", n);
        }
        for snapshot in [registry.snapshot(), paq_obs::RegistrySnapshot::default()] {
            let payload = encode_response_v7(1, &Response::Metrics(snapshot.clone()));
            match decode_response_v7(&payload).unwrap().1 {
                Response::Metrics(decoded) => assert_eq!(decoded, snapshot),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn metrics_response_out_of_range_bucket_rejected() {
        // Hand-craft a Metrics response whose single histogram carries
        // a bucket index past the fixed bucket array.
        let mut out = vec![WIRE_VERSION, KIND_RESPONSE, 0, 0, 0, 0, 8];
        put_u64(&mut out, 0); // counters
        put_u64(&mut out, 0); // gauges
        put_u64(&mut out, 1); // histograms
        put_string(&mut out, "h");
        for _ in 0..5 {
            put_u64(&mut out, 1); // count, sum, min, max, buckets
        }
        out.push(paq_obs::histogram::BUCKET_COUNT as u8);
        put_u64(&mut out, 1);
        match decode_response_v7(&out) {
            Err(WireError::Malformed(d)) => assert!(d.contains("bucket"), "{d}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn corrupt_sequence_count_rejected_without_allocation() {
        // An AppendRow whose row count claims u64::MAX elements.
        let mut out = vec![WIRE_VERSION, KIND_REQUEST, 0, 0, 0, 0, 2];
        put_string(&mut out, "T");
        put_u64(&mut out, u64::MAX);
        match decode_request_v7(&out) {
            Err(WireError::Malformed(d)) => assert!(d.contains("count"), "{d}"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
