//! Wire-protocol robustness: hostile or broken clients get typed errors and
//! never take the server down or poison other connections.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use tofu_core::recursive::PartitionOptions;
use tofu_core::request_fingerprint;
use tofu_serve::client::{ClientError, PlanClient};
use tofu_serve::protocol::{
    encode_partition, read_frame, write_frame, ErrorCode, ProtocolError, Request, Response,
};
use tofu_serve::server::{PlanServer, ServeConfig};

fn small_server() -> PlanServer {
    PlanServer::bind(
        "127.0.0.1:0",
        ServeConfig { solver_threads: 1, queue_cap: 8, max_frame: 64 * 1024, ..Default::default() },
    )
    .expect("bind")
}

fn read_response(stream: &mut TcpStream) -> Response {
    let payload = read_frame(stream, 1 << 20).expect("read frame").expect("response frame");
    Response::from_bytes(&payload).expect("parse response")
}

#[test]
fn oversized_length_prefix_gets_typed_error_then_close() {
    let server = small_server();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    // Advertise a 1 GiB payload; send nothing else.
    stream.write_all(&(1u32 << 30).to_be_bytes()).expect("write header");
    match read_response(&mut stream) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Oversized),
        other => panic!("expected oversized error, got {other:?}"),
    }
    // The connection is closed afterwards (stream cannot be resynced)…
    assert!(read_frame(&mut stream, 1 << 20).expect("clean close").is_none());
    // …but the server still serves new connections.
    PlanClient::connect(server.addr()).expect("reconnect").ping().expect("ping after abuse");
    server.shutdown();
}

#[test]
fn malformed_json_gets_typed_error_and_connection_survives() {
    let server = small_server();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write_frame(&mut stream, b"{this is not json").expect("send garbage");
    match read_response(&mut stream) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected bad_request, got {other:?}"),
    }
    // Same connection still answers ping: frame boundaries were preserved.
    write_frame(&mut stream, br#"{"type":"ping","id":9}"#).expect("send ping");
    match read_response(&mut stream) {
        Response::Pong { id } => assert_eq!(id, 9),
        other => panic!("expected pong, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn unknown_request_type_echoes_id() {
    let server = small_server();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write_frame(&mut stream, br#"{"type":"frobnicate","id":1234}"#).expect("send");
    match read_response(&mut stream) {
        Response::Error { id, code, message } => {
            assert_eq!(id, 1234, "error must echo the request id");
            assert_eq!(code, ErrorCode::UnknownType);
            assert!(message.contains("frobnicate"), "message was {message:?}");
        }
        other => panic!("expected unknown_type error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn truncated_frame_does_not_kill_the_server() {
    let server = small_server();
    {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        // Promise 100 bytes, deliver 3, hang up.
        stream.write_all(&100u32.to_be_bytes()).expect("header");
        stream.write_all(b"abc").expect("partial payload");
    } // dropped: connection dies mid-frame
    PlanClient::connect(server.addr()).expect("reconnect").ping().expect("server survived");
    server.shutdown();
}

#[test]
fn malformed_partition_request_is_bad_request() {
    let server = small_server();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    // Structurally valid JSON, but the graph references a tensor that does
    // not exist yet.
    let req = br#"{"type":"partition","id":7,"tenant":"t","workers":4,"graph":{"tensors":[{"io":"op","shape":[2,2],"node":{"op":"relu","name":"r","inputs":[5]}}]}}"#;
    write_frame(&mut stream, req).expect("send");
    match read_response(&mut stream) {
        Response::Error { id, code, .. } => {
            assert_eq!(id, 7);
            assert_eq!(code, ErrorCode::BadRequest);
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    // Zero workers is also structural nonsense.
    write_frame(
        &mut stream,
        br#"{"type":"partition","id":8,"tenant":"t","workers":0,"graph":{"tensors":[]}}"#,
    )
    .expect("send");
    match read_response(&mut stream) {
        Response::Error { id, code, .. } => {
            assert_eq!(id, 8);
            assert_eq!(code, ErrorCode::BadRequest);
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn an_attribute_integer_that_is_not_one_is_bad_request() {
    let server = small_server();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut g = tofu_graph::Graph::new();
    let x = g.add_input("x", tofu_tensor::Shape::new(vec![4, 6]));
    let axis = tofu_graph::Attrs::new().with_int("axis", 1);
    g.add_op("sum_axis", "s", &[x], axis).expect("sum_axis");
    let opts = tofu_core::recursive::PartitionOptions { workers: 2, ..Default::default() };
    let honest = String::from_utf8(encode_partition(1, "t", &g, &opts, None)).expect("utf-8");
    // Truncated, `1.5` would be a valid axis and `1e300` an absurd one.
    for (id, value) in [(1u64, "1.5"), (2, "1e300"), (3, "-1e300")] {
        let req = honest
            .replacen(r#""id":1"#, &format!(r#""id":{id}"#), 1)
            .replace(r#""axis":{"i":1}"#, &format!(r#""axis":{{"i":{value}}}"#));
        assert!(req.contains(value), "the encoded graph carries the axis as {{\"i\":1}}");
        write_frame(&mut stream, req.as_bytes()).expect("send");
        match read_response(&mut stream) {
            Response::Error { id: rid, code, message } => {
                assert_eq!((rid, code), (id, ErrorCode::BadRequest), "axis {value}");
                assert!(message.contains("axis"), "message was {message:?}");
            }
            other => panic!("expected bad_request for axis {value}, got {other:?}"),
        }
    }
    // Same connection: the bad attribute cost one error each, nothing more.
    write_frame(&mut stream, br#"{"type":"ping","id":4}"#).expect("send ping");
    assert!(matches!(read_response(&mut stream), Response::Pong { id: 4 }));
    server.shutdown();
}

#[test]
fn a_shape_whose_element_count_overflows_is_bad_request() {
    // 2^66 elements: `Shape::volume` would wrap to 0 and the plan would
    // price the tensor at 0 B.
    let req = br#"{"type":"partition","id":3,"tenant":"t","workers":2,"graph":{"tensors":[{"io":"input","name":"x","shape":[4194304,4194304,4194304]},{"io":"op","shape":[4194304,4194304,4194304],"node":{"op":"relu","name":"r","inputs":[0]}}]}}"#;
    match Request::from_bytes(req) {
        Err(ProtocolError::BadRequest(m)) => assert!(m.contains("tensor 0"), "message was {m:?}"),
        other => panic!("expected bad_request naming tensor 0, got {other:?}"),
    }
}

#[test]
fn client_surfaces_server_errors_typed() {
    let server = small_server();
    let mut client = PlanClient::connect(server.addr()).expect("connect");
    // A graph the registry rejects (matmul of mismatched shapes) travels as
    // a bad_request all the way into the typed client error.
    let mut g = tofu_graph::Graph::new();
    g.add_input("x", tofu_tensor::Shape::new(vec![3, 5]));
    let opts = tofu_core::recursive::PartitionOptions { workers: 3, ..Default::default() };
    // 3 workers over a 3×5 input with no ops: the search itself fails
    // (nothing to partition is fine, but odd shapes may be) — accept either
    // a served plan or a typed error; what must NOT happen is a transport
    // error or hang.
    match client.partition("t", &g, &opts, None) {
        Ok(_) | Err(ClientError::Server { .. }) => {}
        Err(other) => panic!("expected typed outcome, got {other}"),
    }
    client.ping().expect("connection still healthy");
    server.shutdown();
}

#[test]
fn deeply_nested_frame_is_bad_request_not_a_stack_overflow() {
    // Well under the default 8 MiB frame limit, and deep enough that an
    // unbounded recursive parser overflows the connection thread's 2 MiB
    // stack — which aborts the whole process, past any `catch_unwind`.
    let server = PlanServer::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write_frame(&mut stream, "[".repeat(200_000).as_bytes()).expect("send nested frame");
    match read_response(&mut stream) {
        Response::Error { id, code, message } => {
            assert_eq!((id, code), (0, ErrorCode::BadRequest));
            assert!(message.contains("nesting"), "message was {message:?}");
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    // Same connection, same process: the frame cost one error, nothing more.
    write_frame(&mut stream, br#"{"type":"ping","id":2}"#).expect("send ping");
    assert!(matches!(read_response(&mut stream), Response::Pong { id: 2 }));
    PlanClient::connect(server.addr()).expect("reconnect").ping().expect("ping after abuse");
    server.shutdown();
}

#[test]
fn malformed_fingerprint_is_bad_request() {
    let server = small_server();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let hex31 = "0".repeat(31);
    for (id, fingerprint) in [
        (1, "\"\"".to_string()),
        (2, format!("\"{hex31}\"")),
        (3, format!("\"{hex31}00\"")),
        (4, format!("\"{hex31}g\"")),
        // `from_str_radix` alone would take a sign.
        (5, format!("\"+{hex31}\"")),
        (6, "12345".to_string()),
        (7, "null".to_string()),
    ] {
        let req = format!(r#"{{"type":"lookup","id":{id},"fingerprint":{fingerprint}}}"#);
        write_frame(&mut stream, req.as_bytes()).expect("send");
        match read_response(&mut stream) {
            Response::Error { id: rid, code, .. } => {
                assert_eq!((rid, code), (id, ErrorCode::BadRequest), "request {req}");
            }
            other => panic!("expected bad_request for {req}, got {other:?}"),
        }
    }
    // A well-formed fingerprint nobody filed a plan under is a different,
    // equally typed answer; upper-case hex is the same number.
    let req = format!(r#"{{"type":"lookup","id":8,"fingerprint":"{}F"}}"#, hex31);
    write_frame(&mut stream, req.as_bytes()).expect("send");
    match read_response(&mut stream) {
        Response::Error { id, code, .. } => assert_eq!((id, code), (8, ErrorCode::NotCached)),
        other => panic!("expected not_cached, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn lookup_round_trips_and_stays_small() {
    let fingerprint = 0x0123_4567_89ab_cdef_0011_2233_4455_6677u128;
    for deadline_ms in [None, Some(250u64)] {
        let bytes = Request::Lookup { id: 8_999_999_999_999_999, fingerprint, deadline_ms }.to_bytes();
        assert!(bytes.len() + 4 < 128, "a lookup frame is {} bytes", bytes.len() + 4);
        match Request::from_bytes(&bytes).expect("parse lookup") {
            Request::Lookup { id, fingerprint: fp, deadline_ms: d } => {
                assert_eq!((id, fp, d), (8_999_999_999_999_999, fingerprint, deadline_ms));
            }
            other => panic!("expected lookup, got {other:?}"),
        }
    }
}

/// The decode a quadratic parser made cost 83 ms on this host (1 MB/s) and
/// that grows with the square of the model: a WResNet-50-1 upload must
/// decode — parse, graph rebuild, shape inference — well inside the bound,
/// and a frame-limit-sized string in a fraction of it.
#[test]
fn request_decode_is_linear_in_the_payload() {
    let model = tofu_models::wresnet(&tofu_models::WResNetConfig {
        layers: 50,
        width: 1,
        batch: 8,
        image: 16,
        classes: 8,
        with_updates: true,
    })
    .expect("wresnet");
    let opts = tofu_core::recursive::PartitionOptions::default();
    let payload = encode_partition(1, "tenant", &model.graph, &opts, None);
    assert!(payload.len() > 100_000, "payload is only {} bytes", payload.len());
    let t0 = Instant::now();
    let decoded = Request::from_bytes(&payload).expect("decode upload");
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(2), "decoding {} bytes took {took:?}", payload.len());
    match decoded {
        Request::Partition { req, .. } => {
            assert_eq!(req.graph.num_nodes(), model.graph.num_nodes());
            assert_eq!(req.graph.num_tensors(), model.graph.num_tensors());
        }
        other => panic!("expected partition, got {other:?}"),
    }

    // 8 MiB (the default frame limit) of one tenant name: ~3·10^13 byte
    // visits for a parser that rescans its input per character.
    let mut huge = br#"{"type":"ping","id":1,"tenant":""#.to_vec();
    huge.resize(huge.len() + (8 << 20), b'x');
    huge.extend_from_slice(b"\"}");
    let t0 = Instant::now();
    assert!(matches!(Request::from_bytes(&huge), Ok(Request::Ping { id: 1 })));
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(2), "parsing {} bytes took {took:?}", huge.len());
    assert!(matches!(
        Request::from_bytes(&huge[..huge.len() - 2]),
        Err(ProtocolError::BadJson(_))
    ));
}

/// A partition request whose `options` value is `options`, otherwise valid.
fn partition_with_options(options: &str) -> String {
    format!(
        r#"{{"type":"partition","id":5,"tenant":"t","workers":2,"options":{options},"graph":{{"tensors":[]}}}}"#
    )
}

#[test]
fn options_the_server_would_ignore_are_bad_requests() {
    assert!(Request::from_bytes(partition_with_options(r#"{"beam":8}"#).as_bytes()).is_ok());
    // Each of these used to decode to a default-options request: a plan for
    // a question the client did not ask.
    for (options, named) in
        [("5", "5"), (r#"{"beem":8}"#, "beem"), (r#"{"tuning":"reference"}"#, "tuning")]
    {
        match Request::from_bytes(partition_with_options(options).as_bytes()) {
            Err(ProtocolError::BadRequest(m)) => {
                assert!(m.contains(named), "options {options}: message was {m:?}")
            }
            other => panic!("expected bad_request for options {options}, got {other:?}"),
        }
    }
}

/// Every search option is part of the request: changing any one field alone
/// changes the fingerprint a plan is cached under, and the field survives
/// the wire. The destructuring names every field, so a new one fails to
/// compile here until it is covered.
#[test]
fn every_option_changes_the_fingerprint_and_travels() {
    let mut g = tofu_graph::Graph::new();
    let x = g.add_input("x", tofu_tensor::Shape::new(vec![4, 6]));
    g.add_op("relu", "r", &[x], tofu_graph::Attrs::new()).expect("relu");
    let base = PartitionOptions { workers: 2, ..Default::default() };
    let PartitionOptions { workers, allow_reduce, state_bound, internal_bound, beam, fetch_buffer_floor } =
        base;
    let variants = [
        PartitionOptions { workers: workers + 1, ..base },
        PartitionOptions { allow_reduce: !allow_reduce, ..base },
        PartitionOptions { state_bound: state_bound + 1, ..base },
        PartitionOptions { internal_bound: internal_bound + 1, ..base },
        PartitionOptions { beam: beam + 1, ..base },
        PartitionOptions { fetch_buffer_floor: fetch_buffer_floor + 1, ..base },
    ];
    let key = request_fingerprint(&g, &base);
    for opts in [base].iter().chain(&variants) {
        if opts != &base {
            assert_ne!(request_fingerprint(&g, opts), key, "{opts:?} is missing from the key");
        }
        match Request::from_bytes(&encode_partition(1, "t", &g, opts, None)) {
            Ok(Request::Partition { req, .. }) => assert_eq!(&req.options, opts, "lost on the wire"),
            other => panic!("expected partition, got {other:?}"),
        }
    }
}
