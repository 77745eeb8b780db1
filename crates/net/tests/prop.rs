//! Property tests for the wire protocol: decoding must be total (never
//! panic on arbitrary bytes) and inverse to encoding.

use bytes::Bytes;
use ecc_net::protocol::{
    decode_get_many, decode_keys, decode_stats, decode_statuses, decode_with_trace,
    encode_get_many, encode_keys, encode_stats, encode_statuses, encode_traced, read_frame,
    write_frame, Request, Response, Status, TraceContext, TRACE_EXT_OPCODE, TRACE_EXT_VERSION,
};
use proptest::prelude::*;

/// A request value outlives the strategy that generated it, so generated
/// payloads are leaked (a few KiB per test run).
fn leak(v: Vec<u8>) -> &'static [u8] {
    Box::leak(v.into_boxed_slice())
}

fn arb_request() -> impl Strategy<Value = Request<'static>> {
    prop_oneof![
        any::<u64>().prop_map(|key| Request::Get { key }),
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..200)).prop_map(|(key, v)| {
            Request::Put {
                key,
                value: leak(v),
            }
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(lo, hi)| Request::Keys { lo, hi }),
        Just(Request::Stats),
        Just(Request::ObsDump),
        proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..64)),
            0..20,
        )
        .prop_map(|items| Request::PutMany {
            items: items.into_iter().map(|(k, v)| (k, leak(v))).collect(),
        }),
        proptest::collection::vec(any::<u64>(), 0..50).prop_map(|keys| Request::GetMany { keys }),
        proptest::collection::vec(any::<u64>(), 0..50).prop_map(|keys| Request::EvictMany { keys }),
    ]
}

proptest! {
    #[test]
    fn request_roundtrip(req in arb_request()) {
        prop_assert_eq!(Request::decode(&req.encode()), Some(req));
    }

    #[test]
    fn response_roundtrip(
        status in prop_oneof![
            Just(Status::Ok),
            Just(Status::NotFound),
            Just(Status::Overflow),
            Just(Status::BadRequest),
        ],
        body in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let resp = Response { status, body: Bytes::from(body) };
        prop_assert_eq!(Response::decode(resp.encode()), Some(resp));
    }

    /// Decoding is total: arbitrary bytes either parse or return None —
    /// never panic, never loop (a malicious peer cannot crash a server).
    #[test]
    fn request_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = Request::decode(&bytes);
    }

    #[test]
    fn response_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = Response::decode(Bytes::from(bytes));
    }

    #[test]
    fn key_list_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = decode_keys(Bytes::from(bytes.clone()));
        let _ = decode_stats(Bytes::from(bytes));
    }

    #[test]
    fn batch_body_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = decode_statuses(Bytes::from(bytes.clone()));
        let _ = decode_get_many(&bytes);
    }

    #[test]
    fn status_lists_roundtrip(
        statuses in proptest::collection::vec(
            prop_oneof![
                Just(Status::Ok),
                Just(Status::NotFound),
                Just(Status::Overflow),
                Just(Status::BadRequest),
            ],
            0..100,
        ),
    ) {
        prop_assert_eq!(decode_statuses(encode_statuses(&statuses)), Some(statuses));
    }

    #[test]
    fn get_many_bodies_roundtrip(
        entries in proptest::collection::vec(
            prop_oneof![
                2 => proptest::collection::vec(any::<u8>(), 0..64).prop_map(Some),
                1 => Just(None),
            ],
            0..30,
        ),
    ) {
        prop_assert_eq!(decode_get_many(&encode_get_many(&entries)), Some(entries));
    }

    #[test]
    fn key_lists_roundtrip(keys in proptest::collection::vec(any::<u64>(), 0..100)) {
        prop_assert_eq!(decode_keys(encode_keys(&keys)), Some(keys));
    }

    #[test]
    fn obs_dump_bodies_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = ecc_obs::decode_dump(&bytes);
    }

    #[test]
    fn stats_roundtrip(used: u64, count: u64, cap: u64) {
        prop_assert_eq!(decode_stats(encode_stats(used, count, cap)), Some((used, count, cap)));
    }

    /// Adding `ObsDump` (0x0D) and retiring `Remove` (0x03), `Sweep`
    /// (0x04), `Ping` (0x07), `Shutdown` (0x08) and the range statistics
    /// (0x09) must not disturb how any other opcode encodes: the first
    /// payload byte is pinned per variant.
    #[test]
    fn opcode_bytes_are_stable_across_protocol_growth(req in arb_request()) {
        let enc = req.encode();
        let expected = match &req {
            Request::Get { .. } => 0x01u8,
            Request::Put { .. } => 0x02,
            Request::Keys { .. } => 0x05,
            Request::Stats => 0x06,
            Request::PutMany { .. } => 0x0A,
            Request::GetMany { .. } => 0x0B,
            Request::EvictMany { .. } => 0x0C,
            Request::ObsDump => 0x0D,
        };
        prop_assert_eq!(enc.first().copied(), Some(expected));
    }

    /// The trace extension wraps *any* request losslessly, and plain
    /// frames pass through `decode_with_trace` exactly as `Request::decode`
    /// sees them — a traceless peer and a tracing peer agree on every
    /// untraced frame.
    #[test]
    fn traced_frames_roundtrip_and_plain_frames_pass_through(
        req in arb_request(),
        trace_id: u64,
        span_id: u64,
        parent: u64,
        sampled: bool,
    ) {
        let ctx = TraceContext { trace_id, span_id, parent_span_id: parent, sampled };
        let traced = encode_traced(&ctx, &req);
        let (got_ctx, got_req) = decode_with_trace(&traced).unwrap();
        prop_assert_eq!(got_ctx, Some(ctx));
        prop_assert_eq!(&got_req, &req);

        let enc = req.encode();
        prop_assert_eq!(decode_with_trace(&enc), Request::decode(&enc).map(|r| (None, r)));
    }

    /// `decode_with_trace` is total on arbitrary bytes, like `decode`.
    #[test]
    fn decode_with_trace_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode_with_trace(&bytes);
    }

    /// Frames written then read give back the payload; truncated frames
    /// error instead of hanging or panicking.
    #[test]
    fn frames_roundtrip_and_truncation_errors(
        payload in proptest::collection::vec(any::<u8>(), 0..500),
        cut in any::<prop::sample::Index>(),
    ) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(buf.clone());
        let frame = read_frame(&mut cursor).unwrap();
        prop_assert_eq!(frame.as_ref(), &payload[..]);

        if buf.len() > 1 {
            let cut_at = 1 + cut.index(buf.len() - 1);
            if cut_at < buf.len() {
                let mut cursor = std::io::Cursor::new(&buf[..cut_at]);
                prop_assert!(read_frame(&mut cursor).is_err());
            }
        }
    }
}

/// Forward-compatibility guard: response bodies captured from the wire
/// *before* the `ObsDump` op existed must keep decoding bit-for-bit after
/// the protocol grew. These byte strings are frozen — if one of these
/// tests fails, the change broke every deployed peer.
mod golden_bytes {
    use super::*;

    /// A pre-ObsDump 24-byte `Stats` body: used=0x0102030405060708,
    /// count=0x1112131415161718, capacity=0x2122232425262728 (LE).
    #[test]
    fn legacy_stats_body_still_decodes() {
        let frozen: [u8; 24] = [
            0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // used
            0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11, // count
            0x28, 0x27, 0x26, 0x25, 0x24, 0x23, 0x22, 0x21, // capacity
        ];
        assert_eq!(
            decode_stats(Bytes::copy_from_slice(&frozen)),
            Some((0x0102030405060708, 0x1112131415161718, 0x2122232425262728))
        );
        // And the serializer still emits exactly those bytes.
        assert_eq!(
            encode_stats(0x0102030405060708, 0x1112131415161718, 0x2122232425262728).as_ref(),
            &frozen[..]
        );
    }

    /// A pre-ObsDump `Stats` request frame is a single 0x06 byte. It must
    /// decode unchanged, and the new opcode must not shadow it.
    #[test]
    fn legacy_request_frames_still_decode() {
        assert_eq!(Request::decode(&[0x06]), Some(Request::Stats));
        // The new opcode decodes strictly: exactly one byte, no payload.
        assert_eq!(Request::decode(&[0x0D]), Some(Request::ObsDump));
        assert_eq!(Request::decode(&[0x0D, 0x00]), None);
    }

    /// The v1 traced `GET` frame, byte for byte: `0x0E` marker, version 1,
    /// 25-byte extension (flags=1 sampled, trace/span/parent ids LE), then
    /// the ordinary 9-byte GET payload. Frozen: a tracing client built today
    /// must emit exactly this against every future server.
    #[test]
    fn traced_frame_bytes_are_frozen() {
        let ctx = TraceContext {
            trace_id: 0x1122334455667788,
            span_id: 0x0000_0A00_0000_0001, // origin 10, seq 1
            parent_span_id: 0,
            sampled: true,
        };
        let frozen: [u8; 37] = [
            0x0E, 0x01, 0x19, // marker, version, ext_len = 25
            0x01, // flags: sampled
            0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, // trace_id
            0x01, 0x00, 0x00, 0x00, 0x00, 0x0A, 0x00, 0x00, // span_id
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // parent
            0x01, // inner opcode: GET
            0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // key = 42
        ];
        assert_eq!(TRACE_EXT_OPCODE, 0x0E);
        assert_eq!(TRACE_EXT_VERSION, 0x01);
        assert_eq!(
            encode_traced(&ctx, &Request::Get { key: 42 }).as_ref(),
            &frozen[..]
        );
        assert_eq!(
            decode_with_trace(&frozen),
            Some((Some(ctx), Request::Get { key: 42 }))
        );
    }

    /// A `GetMany` response body for `[Some("abc"), None, Some("")]`: the
    /// encoder and a live server (which writes each entry straight into
    /// its write queue) must both emit exactly these bytes.
    #[test]
    fn get_many_response_bytes_are_frozen() {
        let frozen: [u8; 18] = [
            0x03, 0x00, 0x00, 0x00, // count = 3
            0x00, 0x03, 0x00, 0x00, 0x00, b'a', b'b', b'c', // Ok, len 3, "abc"
            0x01, // NotFound
            0x00, 0x00, 0x00, 0x00, 0x00, // Ok, len 0
        ];
        let entries = [Some(&b"abc"[..]), None, Some(&b""[..])];
        assert_eq!(encode_get_many(&entries).as_ref(), &frozen[..]);
        assert_eq!(
            decode_get_many(&frozen[..]),
            Some(vec![Some(b"abc".to_vec()), None, Some(vec![])])
        );

        let mut server = ecc_net::server::CacheServer::spawn(10_000, 16).unwrap();
        let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
        for (key, value) in [(1u64, &b"abc"[..]), (3, b"")] {
            let put = Request::Put { key, value };
            write_frame(&mut raw, &put.encode()).unwrap();
            assert_eq!(read_frame(&mut raw).unwrap().as_ref(), [Status::Ok as u8]);
        }
        let get = Request::GetMany {
            keys: vec![1, 2, 3],
        };
        write_frame(&mut raw, &get.encode()).unwrap();
        let reply = read_frame(&mut raw).unwrap();
        assert_eq!(reply[0], Status::Ok as u8);
        assert_eq!(&reply[1..], &frozen[..]);
        server.stop();
    }

    /// The extension marker must never collide with a request opcode: a
    /// traced frame is unambiguous at the first byte.
    #[test]
    fn trace_marker_is_not_an_opcode() {
        assert_eq!(ecc_net::protocol::Op::from_u8(TRACE_EXT_OPCODE), None);
    }
}
