//! End-to-end tests of the ingest service: wire-ingested runs must be
//! bit-identical to in-process `push`, protocol violations must be
//! typed and single-connection, and the service gauges must be
//! monotonic across connection churn.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_core::wire::{FrameError, Head};
use sss_core::{JoinSchema, MultiSpec, MultiSummary, Portable, Summary};
use sss_net::protocol;
use sss_net::{IngestClient, NetError, QueryClient, RunningServer, ServerConfig};
use sss_stream::runtime::RuntimeConfig;
use sss_stream::{Partition, ShardedRuntime};
use std::io::{Read, Write};
use std::net::TcpStream;

/// A small spec every test agrees on (seeded, so fingerprints match
/// across independently constructed copies).
fn spec(seed: u64) -> MultiSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    MultiSpec::new(JoinSchema::fagms(2, 64, &mut rng), &mut rng)
        .distinct_precision(6)
        .quantile_k(64)
}

fn server(seed: u64, shards: usize, partition: Partition) -> RunningServer {
    let config = ServerConfig {
        runtime: RuntimeConfig {
            shards,
            queue_depth: 8,
            partition,
        },
        ..ServerConfig::default()
    };
    RunningServer::start(config, &spec(seed)).expect("server starts")
}

/// Read one `[len][type][payload]` frame from a raw socket.
fn read_raw_frame(stream: &mut TcpStream) -> Option<(u8, Vec<u8>)> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).ok()?;
    let len = u32::from_le_bytes(len) as usize;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).ok()?;
    Some((body[0], body[1..].to_vec()))
}

/// Complete the banner handshake on a raw socket (echoing the head),
/// for tests that then violate the protocol deliberately.
fn raw_handshake(stream: &mut TcpStream) -> Vec<u8> {
    let (tag, banner) = read_raw_frame(stream).expect("banner");
    assert_eq!(tag, protocol::FRAME_HELLO_OK);
    let mut hello = Vec::new();
    protocol::write_frame(&mut hello, protocol::FRAME_HELLO, &banner);
    stream.write_all(&hello).unwrap();
    let (tag, _) = read_raw_frame(stream).expect("handshake ack");
    assert_eq!(tag, protocol::FRAME_HELLO_OK);
    banner
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance-criteria pin: a stream ingested over the wire by
    /// one connection produces a merged summary **bit-identical** to
    /// in-process `push` of the same batches into an identically
    /// configured runtime (same spec, same shard count, same batch
    /// boundaries — KLL is insertion-order-dependent, so the guarantee
    /// is stated for an identical delivery schedule, exactly as the
    /// in-process linearity tests state it).
    #[test]
    fn wire_ingest_is_bit_identical_to_in_process_push(
        keys in prop::collection::vec(any::<u64>(), 1..600),
        chunk in 1usize..97,
        shards in 1usize..3,
        seed in 0u64..1000,
    ) {
        let config = RuntimeConfig {
            shards,
            queue_depth: 8,
            partition: Partition::RoundRobin,
        };

        // In-process reference.
        let prototype = spec(seed).summary().unwrap();
        let mut reference = ShardedRuntime::new(config, &prototype).unwrap();
        for batch in keys.chunks(chunk) {
            reference.push(batch).unwrap();
        }
        let expect = reference.into_merged().unwrap();

        // Same batches over the wire.
        let srv = RunningServer::start(
            ServerConfig { runtime: config, ..ServerConfig::default() },
            &spec(seed),
        ).unwrap();
        let mut client = IngestClient::connect(srv.ingest_addr()).unwrap();
        for batch in keys.chunks(chunk) {
            client.send_batch(batch).unwrap();
        }
        client.sync().unwrap();
        client.finish().unwrap();
        let got = srv.shutdown_and_wait().unwrap();

        prop_assert_eq!(got.encode().unwrap(), expect.encode().unwrap());
    }
}

#[test]
fn handshake_rejects_wrong_fingerprint_and_kind_with_typed_codes() {
    let srv = server(42, 1, Partition::RoundRobin);

    // Wrong fingerprint: same kind/format, different configuration.
    let bad = Head {
        kind: MultiSummary::KIND.to_string(),
        format: MultiSummary::FORMAT,
        fingerprint: 0xdead_beef,
    };
    match IngestClient::connect_checked(srv.ingest_addr(), &bad) {
        Err(NetError::Core(sss_core::Error::Frame(FrameError::Rejected { code, .. }))) => {
            assert_eq!(code, protocol::ERR_FINGERPRINT);
        }
        other => panic!("expected a fingerprint rejection, got {other:?}"),
    }

    // Wrong kind entirely.
    let alien = Head {
        kind: "join".to_string(),
        format: 1,
        fingerprint: 1,
    };
    match IngestClient::connect_checked(srv.ingest_addr(), &alien) {
        Err(NetError::Core(sss_core::Error::Frame(FrameError::Rejected { code, .. }))) => {
            assert_eq!(code, protocol::ERR_WIRE_MISMATCH);
        }
        other => panic!("expected a wire-mismatch rejection, got {other:?}"),
    }

    // The rejections closed only their own connections: a correct
    // client still gets through and ingests.
    let mut good = IngestClient::connect(srv.ingest_addr()).unwrap();
    good.send_batch(&[1, 2, 3]).unwrap();
    good.sync().unwrap();
    assert_eq!(srv.stats().tuples_ingested(), 3);
    assert_eq!(srv.stats().protocol_errors(), 2);
    srv.shutdown_and_wait().unwrap();
}

#[test]
fn malformed_frames_close_one_connection_and_spare_the_rest() {
    let srv = server(7, 2, Partition::Hash);
    let mut good = IngestClient::connect(srv.ingest_addr()).unwrap();
    good.send_batch(&[10, 20, 30, 40]).unwrap();
    good.sync().unwrap();

    // An HTTP client wanders in: its request line reads as an absurd
    // length prefix. The server must answer with a typed ERROR frame
    // and close that connection only.
    let mut http = TcpStream::connect(srv.ingest_addr()).unwrap();
    let _banner = read_raw_frame(&mut http).expect("banner");
    http.write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let (tag, payload) = read_raw_frame(&mut http).expect("error frame");
    assert_eq!(tag, protocol::FRAME_ERROR);
    assert!(matches!(
        protocol::decode_error(&payload),
        FrameError::Rejected {
            code: protocol::ERR_PROTOCOL,
            ..
        }
    ));
    let mut rest = Vec::new();
    http.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server closes after the error frame");

    // A batch before the handshake is its own typed violation.
    let mut eager = TcpStream::connect(srv.ingest_addr()).unwrap();
    let _banner = read_raw_frame(&mut eager).expect("banner");
    let mut frame = Vec::new();
    protocol::write_batch(&mut frame, &[1, 2, 3]);
    eager.write_all(&frame).unwrap();
    let (tag, payload) = read_raw_frame(&mut eager).expect("error frame");
    assert_eq!(tag, protocol::FRAME_ERROR);
    let detail = protocol::decode_error(&payload).to_string();
    assert!(detail.contains("handshake"), "got: {detail}");

    // A batch whose key count contradicts its length, on a completed
    // handshake.
    let mut liar = TcpStream::connect(srv.ingest_addr()).unwrap();
    raw_handshake(&mut liar);
    let mut bad_batch = Vec::new();
    // Claims 7 keys, carries 1.
    let payload: Vec<u8> = 7u32
        .to_le_bytes()
        .iter()
        .chain(42u64.to_le_bytes().iter())
        .copied()
        .collect();
    protocol::write_frame(&mut bad_batch, protocol::FRAME_BATCH, &payload);
    liar.write_all(&bad_batch).unwrap();
    let (tag, _) = read_raw_frame(&mut liar).expect("error frame");
    assert_eq!(tag, protocol::FRAME_ERROR);

    // Through all three failures the good connection kept streaming,
    // and no partial batch leaked into the gauges.
    good.send_batch(&[50, 60]).unwrap();
    good.sync().unwrap();
    let stats = srv.stats();
    assert_eq!(stats.tuples_ingested(), 6);
    assert_eq!(stats.protocol_errors(), 3);
    let merged = srv.shutdown_and_wait().unwrap();
    // Exactly the good client's six tuples were sketched: an
    // identically configured in-process runtime fed the same batches
    // (same delivery schedule — KLL is insertion-order-dependent)
    // produces the same bytes.
    let mut reference = ShardedRuntime::new(
        RuntimeConfig {
            shards: 2,
            queue_depth: 8,
            partition: Partition::Hash,
        },
        &spec(7).summary().unwrap(),
    )
    .unwrap();
    reference.push(&[10, 20, 30, 40]).unwrap();
    reference.push(&[50, 60]).unwrap();
    let expect = reference.into_merged().unwrap();
    assert_eq!(merged.encode().unwrap(), expect.encode().unwrap());
}

#[test]
fn gauges_are_monotonic_across_reconnects_and_mid_batch_disconnects() {
    let srv = server(9, 1, Partition::RoundRobin);
    let stats = srv.stats();

    // First client: 5 tuples, then a clean disconnect.
    let mut first = IngestClient::connect(srv.ingest_addr()).unwrap();
    first.send_batch(&[1, 2, 3, 4, 5]).unwrap();
    first.sync().unwrap();
    first.finish().unwrap();
    assert_eq!(stats.tuples_ingested(), 5);
    assert_eq!(stats.batches_ingested(), 1);

    // Reconnect: the gauge continues, it does not reset with the
    // connection.
    let mut second = IngestClient::connect(srv.ingest_addr()).unwrap();
    second.send_batch(&[6, 7]).unwrap();
    second.sync().unwrap();
    assert_eq!(stats.tuples_ingested(), 7);

    // A third client dies mid-frame: the truncated batch must count as
    // a protocol error, never as ingested tuples.
    let mut dying = TcpStream::connect(srv.ingest_addr()).unwrap();
    raw_handshake(&mut dying);
    let mut frame = Vec::new();
    protocol::write_batch(&mut frame, &[100, 200, 300]);
    dying.write_all(&frame[..frame.len() / 2]).unwrap();
    drop(dying);

    // The disconnect lands asynchronously; the still-open connection
    // keeps working while we wait for it to register.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while stats.protocol_errors() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(stats.protocol_errors(), 1, "truncated stream is typed");
    assert_eq!(stats.tuples_ingested(), 7, "partial batch never counted");

    second.send_batch(&[8]).unwrap();
    second.sync().unwrap();
    assert_eq!(stats.tuples_ingested(), 8);
    assert!(stats.tuples_per_sec() > 0.0);
    assert_eq!(stats.connections_accepted(), 3);
    srv.shutdown_and_wait().unwrap();
}

#[test]
fn query_plane_answers_all_four_families_and_shutdown_snapshots() {
    let dir = std::env::temp_dir().join(format!("sss-net-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = dir.join("final.sss");

    let config = ServerConfig {
        runtime: RuntimeConfig {
            shards: 2,
            queue_depth: 8,
            partition: Partition::RoundRobin,
        },
        snapshot_path: Some(snapshot.clone()),
        ..ServerConfig::default()
    };
    let srv = RunningServer::start(config, &spec(3)).unwrap();

    let keys: Vec<u64> = (0..500u64).map(|i| i % 50).collect();
    let mut client = IngestClient::connect(srv.ingest_addr()).unwrap();
    for batch in keys.chunks(64) {
        client.send_batch(batch).unwrap();
    }
    client.sync().unwrap();

    let mut queries = QueryClient::connect(srv.query_addr()).unwrap();

    // All four query families answer ok, with interval fields when a
    // confidence level rides along.
    let sj = queries
        .request("{\"cmd\":\"self_join\",\"confidence\":0.95}")
        .unwrap();
    assert!(sj.contains("\"ok\":true"), "{sj}");
    assert!(sj.contains("half_width_chebyshev"), "{sj}");
    let distinct = queries.request("{\"cmd\":\"distinct\"}").unwrap();
    assert!(distinct.contains("\"ok\":true"), "{distinct}");
    let quantile = queries.request("{\"cmd\":\"quantile\",\"q\":0.5}").unwrap();
    assert!(quantile.contains("\"lo\""), "{quantile}");
    let topk = queries.request("{\"cmd\":\"topk\",\"k\":5}").unwrap();
    assert!(topk.contains("\"top\":["), "{topk}");
    let stats_line = queries.stats_line().unwrap();
    assert!(stats_line.contains("\"tuples\":500"), "{stats_line}");

    // A malformed query line is an error *response*, not a dropped
    // connection.
    let bad = queries.request("{\"q\":0.5}").unwrap();
    assert!(bad.contains("\"ok\":false"), "{bad}");
    let still = queries.request("{\"cmd\":\"distinct\"}").unwrap();
    assert!(still.contains("\"ok\":true"), "{still}");

    // The wire answer matches the in-process oracle bit for bit.
    let server_value = queries.self_join_bits().unwrap();
    let mut oracle = spec(3).summary().unwrap();
    oracle.update_batch(&keys);
    use sss_core::JoinQuery;
    assert_eq!(
        server_value.to_bits(),
        oracle.self_join_estimate().value.to_bits(),
        "slim replica answer must be bit-identical to the sequential oracle"
    );

    // Client-driven shutdown: drains, snapshots, exits. The merged
    // state is bit-identical to an identically sharded in-process run
    // of the same batches (the flat `oracle` above only pins the
    // linear self-join value — KLL bytes depend on the shard split).
    queries.shutdown().unwrap();
    let merged = srv.wait().unwrap();
    let mut reference = ShardedRuntime::new(
        RuntimeConfig {
            shards: 2,
            queue_depth: 8,
            partition: Partition::RoundRobin,
        },
        &spec(3).summary().unwrap(),
    )
    .unwrap();
    for batch in keys.chunks(64) {
        reference.push(batch).unwrap();
    }
    let expect = reference.into_merged().unwrap();
    assert_eq!(merged.encode().unwrap(), expect.encode().unwrap());

    // The final snapshot is a loadable Portable payload of the same
    // state.
    let bytes = std::fs::read(&snapshot).unwrap();
    let decoded = MultiSummary::decode(&bytes).unwrap();
    assert_eq!(decoded.encode().unwrap(), merged.encode().unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

/// Every integer value of `field` in a reply line, in reply order (the
/// per-entry fields of a top-k reply).
fn reply_fields(line: &str, field: &str) -> Vec<u64> {
    line.split(&format!("\"{field}\":"))
        .skip(1)
        .map(|rest| rest[..rest.find([',', '}']).unwrap()].parse().unwrap())
        .collect()
}

/// The served answers are the in-process answers, bit for bit: after a
/// `SYNC` on a `max_pending = 0` server, each of the four query families
/// replies with exactly what the slim projection of the merged summary
/// answers in process (value, variance, quantile bracket, top-k keys and
/// values).
#[test]
fn served_answers_equal_the_in_process_slim_answers_bit_for_bit() {
    use sss_core::{DistinctQuery, JoinQuery, QuantileQuery, SlimQuery, TopKQuery};
    let config = ServerConfig {
        runtime: RuntimeConfig {
            shards: 2,
            queue_depth: 8,
            partition: Partition::RoundRobin,
        },
        max_pending: 0,
        ..ServerConfig::default()
    };
    let srv = RunningServer::start(config, &spec(5)).unwrap();
    let keys: Vec<u64> = (0..3_000u64).map(|i| (i * i) % 397).collect();
    let mut client = IngestClient::connect(srv.ingest_addr()).unwrap();
    for batch in keys.chunks(100) {
        client.send_batch(batch).unwrap();
    }
    client.sync().unwrap();

    let mut queries = QueryClient::connect(srv.query_addr()).unwrap();
    let sj = queries.request("{\"cmd\":\"self_join\"}").unwrap();
    let distinct = queries.request("{\"cmd\":\"distinct\"}").unwrap();
    let quantile = queries.request("{\"cmd\":\"quantile\",\"q\":0.3}").unwrap();
    let topk = queries.request("{\"cmd\":\"topk\",\"k\":7}").unwrap();
    client.finish().unwrap();
    queries.shutdown().unwrap();
    let slim = srv.wait().unwrap().slim();

    let bits = |line: &str, field: &str| -> u64 {
        protocol::response_field(line, field).unwrap_or_else(|| panic!("{field} in {line}"))
    };
    let est = slim.self_join_estimate();
    assert_eq!(bits(&sj, "value_bits"), est.value.to_bits(), "{sj}");
    assert_eq!(bits(&sj, "variance_bits"), est.variance.to_bits(), "{sj}");
    let est = slim.distinct_estimate();
    assert_eq!(
        bits(&distinct, "value_bits"),
        est.value.to_bits(),
        "{distinct}"
    );
    assert_eq!(
        bits(&distinct, "variance_bits"),
        est.variance.to_bits(),
        "{distinct}"
    );
    let value = slim.quantile(0.3).unwrap();
    let (lo, hi) = slim.quantile_bounds(0.3).unwrap();
    assert_eq!(bits(&quantile, "value_bits"), value.to_bits(), "{quantile}");
    assert_eq!(bits(&quantile, "lo_bits"), lo.to_bits(), "{quantile}");
    assert_eq!(bits(&quantile, "hi_bits"), hi.to_bits(), "{quantile}");
    let top: Vec<u64> = slim.top_k(7).into_iter().map(|(key, _)| key).collect();
    assert_eq!(top.len(), 7);
    assert_eq!(reply_fields(&topk, "key"), top, "{topk}");
    let expect: Vec<u64> = top
        .iter()
        .map(|&key| slim.frequency_estimate(key).value.to_bits())
        .collect();
    assert_eq!(reply_fields(&topk, "value_bits"), expect, "{topk}");
}

/// A client that pipelines requests and never reads its replies is
/// throttled: once its unsent replies pass the server's backlog mark the
/// server stops reading its socket, so the client's non-blocking writes
/// stall at `WouldBlock` after a bounded number of bytes (kernel socket
/// buffers plus the requests answered before the mark). Another client
/// keeps getting answers meanwhile, and the pipeliner, once it reads,
/// gets one reply per complete request it sent.
#[test]
fn never_reading_pipeliner_stalls_within_a_byte_bound_and_spares_others() {
    /// Request bytes the stalled pipeliner may have written: loopback
    /// send and receive buffers of a few MiB, plus the requests whose
    /// replies fill the server's send buffer and backlog mark (a `stats`
    /// reply is about 20 times its request).
    const BOUND: usize = 16 << 20;
    const STALL: std::time::Duration = std::time::Duration::from_millis(500);
    let srv = server(23, 1, Partition::RoundRobin);
    let timeout = Some(std::time::Duration::from_secs(10));
    let mut calm = QueryClient::connect(srv.query_addr()).unwrap();

    let request = b"{\"cmd\":\"stats\"}\n";
    let chunk: Vec<u8> = request
        .iter()
        .copied()
        .cycle()
        .take(request.len() * 4096)
        .collect();
    let mut hog = TcpStream::connect(srv.query_addr()).unwrap();
    hog.set_nonblocking(true).unwrap();
    let mut written = 0usize;
    let mut stalled_since: Option<std::time::Instant> = None;
    loop {
        let at = written % chunk.len();
        match hog.write(&chunk[at..]) {
            Ok(n) => {
                written += n;
                stalled_since = None;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if stalled_since
                    .get_or_insert_with(std::time::Instant::now)
                    .elapsed()
                    > STALL
                {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Err(e) => panic!("pipeliner write failed: {e}"),
        }
        assert!(
            written <= BOUND,
            "the server kept reading a client that never reads: {written} bytes accepted"
        );
        // While the pipeliner is stalled, another client is answered.
        if stalled_since.is_some() {
            let line = calm.stats_line().unwrap();
            assert!(line.contains("\"ok\":true"), "{line}");
        }
    }

    // Reading resumes the pipeliner: every complete request is answered.
    hog.set_nonblocking(false).unwrap();
    hog.set_read_timeout(timeout).unwrap();
    let expect = written / request.len();
    let mut reader = std::io::BufReader::new(hog);
    let mut line = String::new();
    for i in 0..expect {
        line.clear();
        std::io::BufRead::read_line(&mut reader, &mut line)
            .unwrap_or_else(|e| panic!("reply {i} of {expect}: {e}"));
        assert!(line.starts_with("{\"ok\":true,\"cmd\":\"stats\""), "{line}");
    }
    srv.shutdown_and_wait().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The frame reader survives arbitrary corruption: any byte soup,
    /// delivered in any chunking, yields frames or one typed error —
    /// never a panic, never an untyped failure.
    #[test]
    fn frame_reader_never_panics_on_corrupt_streams(
        bytes in prop::collection::vec(any::<u8>(), 0..2000),
        chunk in 1usize..64,
    ) {
        let mut reader = protocol::FrameReader::new();
        'outer: for piece in bytes.chunks(chunk) {
            reader.extend(piece);
            loop {
                match reader.next_frame() {
                    Ok(Some((_tag, payload))) => {
                        // Decoders on arbitrary payloads must also be
                        // typed-total.
                        let mut sink = Vec::new();
                        let _ = protocol::decode_batch_into(payload, &mut sink);
                        let _ = protocol::decode_sync(payload);
                        let _ = protocol::decode_error(payload);
                    }
                    Ok(None) => break,
                    Err(_typed) => break 'outer,
                }
            }
        }
        // finish() is equally total.
        let _ = reader.finish();
    }
}

/// Fragments that stress the query parser's string handling: escapes
/// (valid, truncated and unpaired), raw control and non-ASCII characters,
/// and the structural bytes of a flat object.
const FRAGMENTS: [&str; 18] = [
    "\\", "\"", "\\\"", "\\u", "d83d", "\\ude00", "\\u0041", "\u{1}", "\u{7f}", "é", "a", ",", ":",
    "}", "{", " ", "\\n", "0.5",
];

/// One request line: raw bytes, or a flat object whose key and string
/// value are spliced from [`FRAGMENTS`]. Never contains a newline.
fn query_line() -> impl Strategy<Value = Vec<u8>> {
    let fragments = || prop::collection::vec(0..FRAGMENTS.len(), 0..8);
    (
        any::<bool>(),
        prop::collection::vec(any::<u8>(), 0..48),
        fragments(),
        fragments(),
    )
        .prop_map(|(raw, bytes, key, value)| {
            let line = if raw {
                bytes
            } else {
                let splice =
                    |ix: Vec<usize>| ix.into_iter().map(|i| FRAGMENTS[i]).collect::<String>();
                format!("{{\"{}\":\"{}\"}}", splice(key), splice(value)).into_bytes()
            };
            line.into_iter()
                .filter(|&b| b != b'\n')
                .collect::<Vec<u8>>()
        })
        .prop_filter("must not stop the server", |line| {
            protocol::parse_query_line(&String::from_utf8_lossy(line))
                .map_or(true, |req| req.cmd != "shutdown")
        })
}

/// A strict RFC 8259 validator, local to the tests so the server's own
/// JSON code cannot vouch for itself: true iff `text` is exactly one
/// JSON value.
fn is_strict_json(text: &str) -> bool {
    struct Parser<'a>(&'a [u8], usize);
    impl Parser<'_> {
        fn peek(&self) -> Option<u8> {
            self.0.get(self.1).copied()
        }
        fn eat(&mut self, c: u8) -> bool {
            let hit = self.peek() == Some(c);
            self.1 += usize::from(hit);
            hit
        }
        fn ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.1 += 1;
            }
        }
        fn digits(&mut self) -> bool {
            let start = self.1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.1 += 1;
            }
            self.1 > start
        }
        fn string(&mut self) -> bool {
            if !self.eat(b'"') {
                return false;
            }
            while let Some(c) = self.peek() {
                self.1 += 1;
                match c {
                    b'"' => return true,
                    b'\\' if self.eat(b'u') => {
                        for _ in 0..4 {
                            if !self.peek().is_some_and(|h| h.is_ascii_hexdigit()) {
                                return false;
                            }
                            self.1 += 1;
                        }
                    }
                    b'\\' if !b"\"\\/bfnrt".iter().any(|&e| self.eat(e)) => return false,
                    0..=0x1f => return false,
                    _ => {}
                }
            }
            false
        }
        /// The items of an object or array up to `close`.
        fn items(&mut self, close: u8, item: fn(&mut Self) -> bool) -> bool {
            self.ws();
            if self.eat(close) {
                return true;
            }
            loop {
                if !item(self) {
                    return false;
                }
                self.ws();
                if self.eat(close) {
                    return true;
                }
                if !self.eat(b',') {
                    return false;
                }
            }
        }
        fn value(&mut self) -> bool {
            self.ws();
            let literal = [&b"true"[..], b"false", b"null"]
                .into_iter()
                .find(|lit| self.0[self.1..].starts_with(lit));
            let ok = if let Some(lit) = literal {
                self.1 += lit.len();
                true
            } else if self.eat(b'{') {
                self.items(b'}', |p| {
                    p.ws();
                    p.string()
                        && {
                            p.ws();
                            p.eat(b':')
                        }
                        && p.value()
                })
            } else if self.eat(b'[') {
                self.items(b']', Self::value)
            } else if self.peek() == Some(b'"') {
                self.string()
            } else {
                self.eat(b'-');
                (self.eat(b'0') || self.digits())
                    && (!self.eat(b'.') || self.digits())
                    && (!(self.eat(b'e') || self.eat(b'E')) || {
                        let _ = self.eat(b'+') || self.eat(b'-');
                        self.digits()
                    })
            };
            self.ws();
            ok
        }
    }
    let mut parser = Parser(text.as_bytes(), 0);
    parser.value() && parser.1 == text.len()
}

#[test]
fn strict_json_checker_rejects_rust_debug_escapes() {
    for good in [
        r#"{"ok":false,"error":"bad \"x\" \\ \u0001"}"#,
        r#"{"a":[1,-2.5e+3,0.25,true,false,null,{}],"b":[]}"#,
        "\"é\"",
    ] {
        assert!(is_strict_json(good), "{good}");
    }
    for bad in [
        // Rust's `{:?}` escape for a control byte is not JSON.
        r#"{"ok":false,"error":"bad \u{1}"}"#,
        "{\"error\":\"raw \u{1}\"}",
        r#"{"a":01}"#,
        r#"{"a":1,}"#,
        r#"{"a":1} x"#,
        r#"{"a":.5}"#,
        "",
    ] {
        assert!(!is_strict_json(bad), "{bad}");
    }
}

/// A query client that never sends a newline cannot grow the server's
/// line buffer: past `MAX_QUERY_LINE` it gets exactly one valid-JSON
/// error line and then EOF, while another client keeps being answered.
/// Every read has a timeout, so a server that never answers fails the
/// test instead of hanging it.
#[test]
fn overlong_query_line_gets_one_error_then_eof_and_spares_others() {
    let srv = server(22, 1, Partition::RoundRobin);
    let timeout = Some(std::time::Duration::from_secs(10));
    let calm = TcpStream::connect(srv.query_addr()).unwrap();
    calm.set_read_timeout(timeout).unwrap();
    let mut calm_writer = calm.try_clone().unwrap();
    let mut calm_reader = std::io::BufReader::new(calm);
    let mut stats = || {
        calm_writer.write_all(b"{\"cmd\":\"stats\"}\n").unwrap();
        let mut reply = String::new();
        std::io::BufRead::read_line(&mut calm_reader, &mut reply).expect("calm reply");
        assert!(reply.starts_with(r#"{"ok":true,"cmd":"stats""#), "{reply}");
    };
    stats();

    let hostile = TcpStream::connect(srv.query_addr()).unwrap();
    hostile.set_read_timeout(timeout).unwrap();
    hostile.set_write_timeout(timeout).unwrap();
    let mut flood_writer = hostile.try_clone().unwrap();
    // 1 MiB without a newline, from its own thread so the read below runs
    // while bytes still arrive; a write error after the close is expected.
    let flood = std::thread::spawn(move || {
        let _ = flood_writer.write_all(&vec![b'x'; 1 << 20]);
    });
    let mut reply = String::new();
    (&hostile)
        .read_to_string(&mut reply)
        .expect("one UTF-8 error line, then EOF");
    flood.join().unwrap();
    assert_eq!(reply.matches('\n').count(), 1, "{reply:?}");
    let line = reply.trim_end_matches('\n');
    assert!(line.starts_with(r#"{"ok":false"#), "{line}");
    assert!(is_strict_json(line), "{line}");

    stats();
    srv.shutdown_and_wait().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Hostile bytes on the query plane: every request line, whatever its
    /// bytes, gets exactly one reply line, and that line is valid UTF-8
    /// and strict JSON. A `stats` sentinel after each line proves no
    /// request produced a second line or swallowed the next one.
    #[test]
    fn any_query_line_gets_exactly_one_valid_json_reply(
        lines in prop::collection::vec(query_line(), 1..12),
    ) {
        let srv = server(21, 1, Partition::RoundRobin);
        let stream = TcpStream::connect(srv.query_addr()).unwrap();
        stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = std::io::BufReader::new(stream);
        let mut read_line = || {
            let mut reply = Vec::new();
            std::io::BufRead::read_until(&mut reader, b'\n', &mut reply).unwrap();
            assert_eq!(reply.pop(), Some(b'\n'), "reply line must be terminated");
            String::from_utf8(reply).expect("reply is UTF-8")
        };
        for line in &lines {
            writer.write_all(line).unwrap();
            writer.write_all(b"\n{\"cmd\":\"stats\"}\n").unwrap();
            let reply = read_line();
            prop_assert!(is_strict_json(&reply), "{:?} -> {reply:?}", String::from_utf8_lossy(line));
            let sentinel = read_line();
            prop_assert!(
                sentinel.starts_with("{\"ok\":true,\"cmd\":\"stats\""),
                "{:?} -> extra line {sentinel:?}",
                String::from_utf8_lossy(line)
            );
        }
        srv.shutdown_and_wait().unwrap();
    }
}
