//! Property suite for the wire protocol — the safety claims
//! `docs/SERVING_NET.md` makes, checked over seeded cases:
//!
//! * every [`Request`]/[`Response`] round-trips encode → decode
//!   bit-exactly (floats travel as IEEE-754 bit patterns);
//! * every strict prefix of a valid body decodes to a clean
//!   [`WireError`] — truncation never panics and never aliases to a
//!   different message;
//! * arbitrary byte soup never panics the decoders;
//! * hostile element counts are rejected before allocation;
//! * [`FrameReader`] reassembles frames fed in arbitrary chunk sizes,
//!   losing nothing, agrees with
//!   [`read_frame_blocking`], and hands out every valid frame before an
//!   oversized length prefix behind them;
//! * [`Response::encode_frame`] appends exactly the bytes of
//!   [`write_frame`] over [`Response::encode`].

use ivdss_net::proto::{
    read_frame_blocking, write_frame, CompletionMsg, ErrorCode, FrameReader, ReadEvent, ReportMsg,
    Request, Response, RouteMsg, ShedMsg, SubmitSpec, MAX_FRAME_LEN,
};
use proptest::prelude::*;

/// Derives one submit spec from a raw seed. All floats are finite and
/// non-NaN so struct equality is usable; bit diversity comes from the
/// fractional digits.
fn spec_from_seed(seed: u64) -> SubmitSpec {
    let tables: Vec<u32> = (0..1 + (seed % 5))
        .map(|i| ((seed >> i) % 64) as u32)
        .collect();
    SubmitSpec {
        id: seed,
        tables,
        weight: 0.1 + (seed % 997) as f64 * 0.013,
        selectivity: ((seed % 999) as f64 + 1.0) / 1000.0,
        business_value: 0.5 + (seed % 101) as f64 * 0.25,
        submitted_at: if seed.is_multiple_of(3) {
            None
        } else {
            Some((seed % 10_000) as f64 * 0.37)
        },
    }
}

/// Derives one completion from a raw seed; same finiteness rules.
fn completion_from_seed(seed: u64) -> CompletionMsg {
    CompletionMsg {
        query: seed,
        shard: (seed % 7) as u32,
        delivered_iv: (seed % 503) as f64 * 0.017,
        cl: (seed % 91) as f64 * 0.11,
        sl: (seed % 83) as f64 * 0.13,
        waited: (seed % 67) as f64 * 0.19,
        finish: (seed % 7919) as f64 * 0.23,
        iv_lost: (seed % 29) as f64 * 0.07,
        replanned: seed % 2 == 1,
    }
}

/// Builds a full report (routing + sheds + completions) from seeds.
fn report_from_seeds(route_seed: u64, shed_seeds: &[u64], done_seeds: &[u64]) -> ReportMsg {
    ReportMsg {
        routed: if route_seed.is_multiple_of(4) {
            None
        } else {
            Some(RouteMsg {
                shard: (route_seed % 11) as u32,
                covered: (route_seed % 6) as u32,
                missing: (route_seed % 3) as u32,
            })
        },
        shed: shed_seeds
            .iter()
            .map(|&s| ShedMsg {
                shard: if s.is_multiple_of(5) {
                    None
                } else {
                    Some((s % 9) as u32)
                },
                query: s,
            })
            .collect(),
        completions: done_seeds
            .iter()
            .map(|&s| completion_from_seed(s))
            .collect(),
    }
}

/// Builds one of every request kind, indexed by `pick`, parameterized
/// by the seeds.
fn request_from_seeds(pick: u8, seed: u64, batch_seeds: &[u64]) -> Request {
    match pick % 9 {
        0 => Request::Hello {
            version: seed as u32,
        },
        1 => Request::Ping { token: seed },
        2 => Request::Submit(spec_from_seed(seed)),
        3 => Request::SubmitBatch(batch_seeds.iter().map(|&s| spec_from_seed(s)).collect()),
        4 => Request::AdvanceTo {
            to: (seed % 100_000) as f64 * 0.41,
        },
        5 => Request::Drain,
        6 => Request::Metrics,
        7 => Request::Audit { query: seed },
        _ => Request::Shutdown,
    }
}

/// Builds one of every response kind, indexed by `pick`.
fn response_from_seeds(pick: u8, seed: u64, shed_seeds: &[u64], done_seeds: &[u64]) -> Response {
    let text: String = format!("text-{seed}-\u{2603}").repeat((seed % 4) as usize + 1);
    match pick % 7 {
        0 => Response::Welcome {
            version: seed as u32,
        },
        1 => Response::Pong { token: seed },
        2 => Response::Report(report_from_seeds(seed, shed_seeds, done_seeds)),
        3 => Response::Metrics { text },
        4 => Response::Audit {
            found: seed.is_multiple_of(2),
            text,
        },
        5 => Response::Error {
            code: match seed % 4 {
                0 => ErrorCode::Malformed,
                1 => ErrorCode::Plan,
                2 => ErrorCode::Busy,
                _ => ErrorCode::Internal,
            },
            message: text,
        },
        _ => Response::Bye,
    }
}

/// A reader that serves a byte vector in chunks of the given sizes,
/// cycled — the shape of a socket whose reads return whatever has
/// arrived.
struct ChunkedReader {
    data: Vec<u8>,
    at: usize,
    sizes: Vec<usize>,
    next: usize,
}

impl std::io::Read for ChunkedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes[self.next % self.sizes.len()];
        self.next += 1;
        let n = size.min(buf.len()).min(self.data.len() - self.at);
        buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// Drives a [`FrameReader`] over `r` to EOF or the first error, taking
/// every frame each read completed, as the server's connection threads do.
fn assemble(r: &mut impl std::io::Read) -> (Vec<Vec<u8>>, std::io::Result<()>) {
    let mut assembler = FrameReader::new();
    let mut got = Vec::new();
    loop {
        match assembler.poll(r) {
            Ok(ReadEvent::Data) => loop {
                match assembler.next_frame() {
                    Ok(Some(body)) => got.push(body.to_vec()),
                    Ok(None) => break,
                    Err(e) => return (got, Err(e)),
                }
            },
            Ok(ReadEvent::Eof) => return (got, Ok(())),
            Err(e) => return (got, Err(e)),
        }
    }
}

/// Reads frames with [`read_frame_blocking`] to EOF or the first error.
fn read_all_blocking(stream: Vec<u8>) -> (Vec<Vec<u8>>, std::io::Result<()>) {
    let mut cursor = std::io::Cursor::new(stream);
    let mut got = Vec::new();
    loop {
        match read_frame_blocking(&mut cursor) {
            Ok(Some(body)) => got.push(body),
            Ok(None) => return (got, Ok(())),
            Err(e) => return (got, Err(e)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Every request kind round-trips bit-exactly.
    #[test]
    fn request_round_trips(
        pick in 0u8..9,
        seed in 0u64..u64::MAX,
        batch_seeds in prop::collection::vec(0u64..u64::MAX, 0..6),
    ) {
        let req = request_from_seeds(pick, seed, &batch_seeds);
        prop_assert_eq!(Request::decode(&req.encode()), Ok(req));
    }

    /// Every response kind round-trips bit-exactly, including reports
    /// with routing, sheds and completions, and its in-place frame is
    /// `write_frame`'s.
    #[test]
    fn response_round_trips(
        pick in 0u8..7,
        seed in 0u64..u64::MAX,
        shed_seeds in prop::collection::vec(0u64..u64::MAX, 0..5),
        done_seeds in prop::collection::vec(0u64..u64::MAX, 0..5),
    ) {
        let resp = response_from_seeds(pick, seed, &shed_seeds, &done_seeds);
        let mut framed = vec![0xAB];
        resp.encode_frame(&mut framed).expect("the frame fits");
        let mut expected = vec![0xAB];
        write_frame(&mut expected, &resp.encode()).expect("in-memory write");
        prop_assert_eq!(framed, expected);
        prop_assert_eq!(Response::decode(&resp.encode()), Ok(resp));
    }

    /// Truncating a valid body at ANY byte boundary yields a clean
    /// error from both decoders — never a panic, never a silent
    /// reinterpretation as some other valid message.
    #[test]
    fn truncated_bodies_error_cleanly(
        pick in 0u8..9,
        seed in 0u64..u64::MAX,
        batch_seeds in prop::collection::vec(0u64..u64::MAX, 1..4),
    ) {
        let body = request_from_seeds(pick, seed, &batch_seeds).encode();
        for cut in 0..body.len() {
            prop_assert!(
                Request::decode(&body[..cut]).is_err(),
                "prefix of {} bytes decoded", cut
            );
        }
        let body = response_from_seeds(pick, seed, &batch_seeds, &batch_seeds).encode();
        for cut in 0..body.len() {
            prop_assert!(
                Response::decode(&body[..cut]).is_err(),
                "prefix of {} bytes decoded", cut
            );
        }
    }

    /// Arbitrary byte soup never panics either decoder. (It may decode
    /// successfully — e.g. `[0x06]` is a legitimate `Drain` — the claim
    /// is totality, not rejection.)
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    /// Flipping one byte of a valid body never panics the decoders.
    /// This walks the interesting boundary cases random soup rarely
    /// hits: corrupted tags, counts, length prefixes, UTF-8.
    #[test]
    fn single_byte_corruption_never_panics(
        pick in 0u8..9,
        seed in 0u64..u64::MAX,
        batch_seeds in prop::collection::vec(0u64..u64::MAX, 1..4),
        flip in any::<u8>(),
    ) {
        let mut body = request_from_seeds(pick, seed, &batch_seeds).encode();
        for i in 0..body.len() {
            let orig = body[i];
            body[i] ^= flip;
            let _ = Request::decode(&body);
            body[i] = orig;
        }
        let mut body =
            response_from_seeds(pick, seed, &batch_seeds, &batch_seeds).encode();
        for i in 0..body.len() {
            let orig = body[i];
            body[i] ^= flip;
            let _ = Response::decode(&body);
            body[i] = orig;
        }
    }

    /// A hostile element count with no payload behind it is rejected
    /// before any allocation of that size can happen.
    #[test]
    fn hostile_counts_rejected(count in 1_000u32..u32::MAX) {
        // SubmitBatch claiming `count` specs, zero bytes of specs.
        let mut body = vec![0x04u8];
        body.extend_from_slice(&count.to_le_bytes());
        prop_assert!(Request::decode(&body).is_err());

        // A report claiming `count` completions after no routing/sheds.
        let mut body = vec![0x83u8, 0x00]; // Report, routed = None
        body.extend_from_slice(&0u32.to_le_bytes()); // no sheds
        body.extend_from_slice(&count.to_le_bytes()); // hostile completions
        prop_assert!(Response::decode(&body).is_err());
    }

    /// Frames fed through a chunked reader come out whole, in order,
    /// with a clean EOF at the end — regardless of how the chunk
    /// boundaries fall relative to frame boundaries — and as
    /// `read_frame_blocking` reads them. Chunks run from single bytes
    /// to many frames at once; every other body is filler up to ~40 KB,
    /// past the reader's initial buffer, so the buffer has to grow. An
    /// oversized length prefix behind the frames is an error only after
    /// every valid frame is out.
    #[test]
    fn frame_reader_reassembles_any_chunking(
        seeds in prop::collection::vec(0u64..u64::MAX, 1..6),
        chunks in prop::collection::vec((any::<bool>(), 1usize..40_000), 1..8),
        oversized in any::<bool>(),
    ) {
        let frames: Vec<Vec<u8>> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                if i % 2 == 0 {
                    request_from_seeds((s % 9) as u8, s, &seeds).encode()
                } else {
                    vec![s as u8; (s % 40_000) as usize]
                }
            })
            .collect();
        let mut stream = Vec::new();
        for frame in &frames {
            write_frame(&mut stream, frame).expect("in-memory write");
        }
        if oversized {
            stream.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
            stream.extend_from_slice(&[0; 16]);
        }
        let sizes = chunks
            .iter()
            .map(|&(small, n)| if small { n % 64 + 1 } else { n })
            .collect();

        let mut reader = ChunkedReader { data: stream.clone(), at: 0, sizes, next: 0 };
        let (got, end) = assemble(&mut reader);
        let (blocking, blocking_end) = read_all_blocking(stream);
        prop_assert_eq!(&got, &frames);
        prop_assert_eq!(&blocking, &frames);
        let kinds = (end.err().map(|e| e.kind()), blocking_end.err().map(|e| e.kind()));
        let expected = oversized.then_some(std::io::ErrorKind::InvalidData);
        prop_assert_eq!(kinds, (expected, expected));
    }

    /// The blocking reader agrees with the incremental one.
    #[test]
    fn blocking_reader_round_trips(seed in 0u64..u64::MAX) {
        let body = request_from_seeds((seed % 9) as u8, seed, &[seed]).encode();
        let mut stream = Vec::new();
        write_frame(&mut stream, &body).expect("in-memory write");
        let mut cursor = std::io::Cursor::new(stream);
        let read = read_frame_blocking(&mut cursor).expect("frame reads");
        prop_assert_eq!(read, Some(body));
        prop_assert_eq!(read_frame_blocking(&mut cursor).expect("clean EOF"), None);
    }
}

/// Semantic validation is separate from wire validation: a
/// wire-well-formed spec with an empty footprint or broken profile is
/// refused by `to_request`, so the engine's panicking constructors are
/// unreachable from the network.
#[test]
fn semantic_validation_rejects_bad_specs() {
    use ivdss_simkernel::time::SimTime;
    let good = spec_from_seed(1);
    let now = SimTime::ZERO;
    assert!(good.to_request(now).is_ok());

    let cases: Vec<SubmitSpec> = vec![
        SubmitSpec {
            tables: vec![],
            ..good.clone()
        },
        SubmitSpec {
            weight: 0.0,
            ..good.clone()
        },
        SubmitSpec {
            weight: f64::NAN,
            ..good.clone()
        },
        SubmitSpec {
            weight: f64::INFINITY,
            ..good.clone()
        },
        SubmitSpec {
            selectivity: 0.0,
            ..good.clone()
        },
        SubmitSpec {
            selectivity: 1.5,
            ..good.clone()
        },
        SubmitSpec {
            business_value: -1.0,
            ..good.clone()
        },
        SubmitSpec {
            business_value: f64::NAN,
            ..good.clone()
        },
        SubmitSpec {
            submitted_at: Some(f64::NAN),
            ..good.clone()
        },
        SubmitSpec {
            submitted_at: Some(f64::INFINITY),
            ..good.clone()
        },
        SubmitSpec {
            submitted_at: Some(f64::NEG_INFINITY),
            ..good.clone()
        },
    ];
    for bad in cases {
        assert!(bad.to_request(now).is_err(), "accepted {bad:?}");
    }
}
