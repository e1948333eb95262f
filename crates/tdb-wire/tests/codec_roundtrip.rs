//! Wire-codec roundtrip and robustness properties.
//!
//! The protocol is the trust boundary between client and server, so the
//! codec must (a) round-trip every value losslessly — in particular the
//! `(ErrorKind, message)` error pair, whose `is_retryable` classification
//! drives client retry loops — and (b) never panic on malformed input,
//! only return `Err`.

use proptest::prelude::*;
use std::io::{BufReader, Cursor, Read, Write};
use std::ops::Bound;
use tdb::session::SessionStats;
use tdb::{Durability, Error, ErrorKind, IndexKind, IndexSpec, Key, ObjectId};
use tdb_wire::{
    append_frame, decode_error_kind, encode_error_kind, read_frame, write_frame, Hello, Request,
    Response, WireError, MAX_FRAME, PROTOCOL_VERSION,
};

const ALL_KINDS: [ErrorKind; 11] = [
    ErrorKind::Tamper,
    ErrorKind::Replay,
    ErrorKind::OutOfSpace,
    ErrorKind::LockTimeout,
    ErrorKind::Deadlock,
    ErrorKind::Io,
    ErrorKind::Codec,
    ErrorKind::NotFound,
    ErrorKind::Constraint,
    ErrorKind::Usage,
    ErrorKind::Other,
];

#[test]
fn error_kind_roundtrips_losslessly() {
    for kind in ALL_KINDS {
        let back = decode_error_kind(encode_error_kind(kind));
        assert_eq!(kind, back, "{kind:?} did not survive the wire");
        // The retryability contract is derived from the kind, so a
        // lossless kind means a lossless is_retryable on the far side.
        let orig = Error::new(kind, "m");
        let remote = Error::new(back, "m");
        assert_eq!(orig.is_retryable(), remote.is_retryable(), "{kind:?}");
    }
}

#[test]
fn error_response_preserves_kind_and_message() {
    for kind in ALL_KINDS {
        let e = Error::new(kind, format!("layer said: {kind:?}"));
        let resp = Response::from_error(&e);
        let decoded = Response::decode(&resp.encode()).unwrap();
        let back = decoded.into_error();
        assert_eq!(back.kind(), e.kind());
        assert_eq!(back.to_string(), e.to_string());
        assert_eq!(back.is_retryable(), e.is_retryable());
    }
}

#[test]
fn every_request_variant_roundtrips() {
    let key = Key::Composite(vec![
        Key::I64(-3),
        Key::Str("k".into()),
        Key::Bytes(vec![7]),
    ]);
    let spec = IndexSpec::new("by-id", "tpcb.id", true, IndexKind::Hash).immutable();
    let requests = vec![
        Request::Ping,
        Request::Begin,
        Request::Commit(Durability::Durable),
        Request::Commit(Durability::Lazy),
        Request::Abort,
        Request::EnsureCollection {
            coll: "c".into(),
            specs: vec![spec, IndexSpec::new("l", "x", false, IndexKind::List)],
        },
        Request::Insert {
            coll: "c".into(),
            bytes: vec![1, 2, 3],
        },
        Request::LookupIds {
            coll: "c".into(),
            index: "i".into(),
            key: key.clone(),
        },
        Request::TxnRead {
            coll: "c".into(),
            oid: ObjectId(42),
        },
        Request::GetForUpdate {
            coll: "c".into(),
            oid: ObjectId(7),
        },
        Request::WriteBack {
            coll: "c".into(),
            oid: ObjectId(7),
            bytes: vec![9; 100],
        },
        Request::BeginRead,
        Request::BeginReadProven,
        Request::FinishRead,
        Request::RCommitSeq,
        Request::RCount { coll: "c".into() },
        Request::RExact {
            coll: "c".into(),
            index: "i".into(),
            key: Key::U64(u64::MAX),
        },
        Request::RScan {
            coll: "c".into(),
            index: "i".into(),
        },
        Request::RRange {
            coll: "c".into(),
            index: "i".into(),
            min: Bound::Included(Key::I64(i64::MIN)),
            max: Bound::Excluded(key.clone()),
        },
        Request::RRange {
            coll: "c".into(),
            index: "i".into(),
            min: Bound::Unbounded,
            max: Bound::Unbounded,
        },
        Request::RGet { oid: ObjectId(0) },
        Request::RReadProven {
            oid: ObjectId(u64::MAX),
        },
        Request::RExactProven {
            coll: "c".into(),
            index: "i".into(),
            key: Key::Str(String::new()),
        },
        Request::TrustAnchor,
        Request::Stats,
        Request::Checkpoint,
        Request::BackupFull,
        Request::BackupIncremental,
        Request::RestoreLatest,
    ];
    for req in requests {
        let back = Request::decode(&req.encode()).unwrap();
        assert_eq!(req, back);
    }
}

#[test]
fn every_response_variant_roundtrips() {
    let responses = vec![
        Response::Ok,
        Response::Welcome {
            version: PROTOCOL_VERSION,
            session: 99,
        },
        Response::Id(ObjectId(5)),
        Response::Bytes(vec![0xAB; 33]),
        Response::Ids(vec![ObjectId(1), ObjectId(2)]),
        Response::Entries(vec![
            (Key::U64(1), ObjectId(10)),
            (Key::Composite(vec![Key::I64(-1)]), ObjectId(11)),
        ]),
        Response::Count(123_456),
        Response::ProvenBytes {
            value: Some(vec![1, 2]),
            commit_seq: 17,
            proof: vec![3; 64],
        },
        Response::ProvenBytes {
            value: None,
            commit_seq: 0,
            proof: vec![],
        },
        Response::ProvenEntries {
            entries: vec![(Key::Str("a".into()), ObjectId(3))],
            proof: vec![8; 16],
        },
        Response::Stats(SessionStats {
            disk_size: 1,
            bytes_appended: 2,
            shards: 3,
            group_size_count: 4,
            group_size_sum: 9,
        }),
        Response::Err {
            kind: ErrorKind::LockTimeout,
            message: "lock wait timed out".into(),
        },
    ];
    for resp in responses {
        let back = Response::decode(&resp.encode()).unwrap();
        assert_eq!(resp, back);
    }
}

#[test]
fn hello_roundtrips_and_rejects_bad_magic() {
    let hello = Hello {
        version: PROTOCOL_VERSION,
        tenant: "tenant-a".into(),
    };
    assert_eq!(Hello::decode(&hello.encode()).unwrap(), hello);

    let mut garbage = hello.encode();
    garbage[0] ^= 0xFF;
    assert!(Hello::decode(&garbage).is_err(), "bad magic must not parse");
}

#[test]
fn frames_roundtrip_and_oversized_lengths_are_refused() {
    let payload = vec![0x5A; 1000];
    let mut buf = Vec::new();
    write_frame(&mut buf, &payload).unwrap();
    let back = read_frame(&mut Cursor::new(&buf)).unwrap();
    assert_eq!(back, payload);

    // A length prefix past the cap is refused before any allocation.
    let huge = (MAX_FRAME + 1).to_le_bytes();
    match read_frame(&mut Cursor::new(&huge[..])) {
        Err(WireError::FrameTooLarge(n)) => assert_eq!(n, MAX_FRAME + 1),
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
}

#[test]
fn truncated_frames_error_cleanly() {
    let payload = vec![7u8; 256];
    let mut buf = Vec::new();
    write_frame(&mut buf, &payload).unwrap();
    for cut in 0..buf.len() {
        assert!(
            read_frame(&mut Cursor::new(&buf[..cut])).is_err(),
            "truncation at {cut} must error, not hang or panic"
        );
    }
}

/// A writer that counts `write` calls.
#[derive(Default)]
struct CountingWriter {
    writes: usize,
    bytes: Vec<u8>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// On a `TCP_NODELAY` socket every `write` can leave as its own segment:
/// a frame's length prefix and payload must go out together.
#[test]
fn a_frame_is_written_with_one_write_call() {
    for len in [0usize, 1, 300, 70_000] {
        let payload = vec![0x42; len];
        let mut w = CountingWriter::default();
        write_frame(&mut w, &payload).unwrap();
        assert_eq!(w.writes, 1, "{len}-byte payload took {} writes", w.writes);
        assert_eq!(read_frame(&mut Cursor::new(&w.bytes)).unwrap(), payload);
    }
}

/// A reader that hands out its bytes in the given chunk sizes (cycled),
/// the way a socket delivers a pipelined batch in arbitrary pieces.
struct Trickle {
    data: Vec<u8>,
    pos: usize,
    sizes: Vec<usize>,
    call: usize,
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let want = self.sizes[self.call % self.sizes.len()];
        self.call += 1;
        let n = want.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn key_strategy() -> impl Strategy<Value = Key> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Key::I64),
        any::<u64>().prop_map(Key::U64),
        proptest::collection::vec(any::<u8>(), 0..24)
            .prop_map(|b| { Key::Str(b.iter().map(|c| (b'a' + c % 26) as char).collect()) }),
        proptest::collection::vec(any::<u8>(), 0..24).prop_map(Key::Bytes),
    ];
    prop_oneof![
        4 => leaf,
        1 => proptest::collection::vec(
            prop_oneof![
                any::<i64>().prop_map(Key::I64),
                any::<u64>().prop_map(Key::U64),
            ],
            0..4,
        )
        .prop_map(Key::Composite),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn random_keys_roundtrip_through_requests(key in key_strategy(), oid in any::<u64>()) {
        let req = Request::LookupIds { coll: "c".into(), index: "i".into(), key: key.clone() };
        prop_assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        let resp = Response::Entries(vec![(key, ObjectId(oid))]);
        prop_assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn truncated_request_decode_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
        cut in any::<u16>(),
    ) {
        let req = Request::WriteBack { coll: "c".into(), oid: ObjectId(1), bytes };
        let encoded = req.encode();
        let cut = (cut as usize) % (encoded.len() + 1);
        // Either a clean decode of a prefix that happens to parse, or an
        // error — never a panic.
        let _ = Request::decode(&encoded[..cut]);
        let _ = Response::decode(&encoded[..cut]);
        let _ = Hello::decode(&encoded[..cut]);
    }

    #[test]
    fn frames_decode_identically_however_the_bytes_arrive(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..300), 1..8),
        sizes in proptest::collection::vec(1usize..64, 1..16),
        buffered in any::<bool>(),
    ) {
        let mut data = Vec::new();
        for p in &payloads {
            append_frame(&mut data, p).unwrap();
        }
        let trickle = Trickle { data, pos: 0, sizes, call: 0 };
        let mut reader: Box<dyn Read> = if buffered {
            Box::new(BufReader::with_capacity(16, trickle))
        } else {
            Box::new(trickle)
        };
        for p in &payloads {
            prop_assert_eq!(&read_frame(&mut reader).unwrap(), p);
        }
        // Clean end of stream after the last frame.
        prop_assert!(read_frame(&mut reader).is_err());
    }

    #[test]
    fn garbage_bytes_never_panic_the_decoders(
        bytes in proptest::collection::vec(any::<u8>(), 0..120),
    ) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let _ = Hello::decode(&bytes);
        let _ = read_frame(&mut Cursor::new(&bytes));
    }
}
