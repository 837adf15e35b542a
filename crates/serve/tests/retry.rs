//! Reconnect-with-retry semantics of [`PlanClient::connect_with_retry`]:
//! transport failures are retried against the same address with seeded
//! backoff, typed server errors pass through untouched, and an exhausted
//! attempt budget surrenders with the typed `Exhausted` error.

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::thread::JoinHandle;
use std::time::Duration;

use tofu_core::recursive::{partition, PartitionOptions};
use tofu_models::{mlp, MlpConfig};
use tofu_serve::client::{ClientError, PlanClient, RetryOptions};
use tofu_serve::protocol::{plan_to_json, read_frame, write_frame, ErrorCode};
use tofu_serve::server::{PlanServer, ServeConfig};

fn fast_retry(attempts: usize) -> RetryOptions {
    RetryOptions {
        attempts,
        backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(5),
        jitter_seed: 42,
        request_timeout: Some(Duration::from_secs(5)),
    }
}

fn model() -> tofu_graph::Graph {
    mlp(&MlpConfig { batch: 24, dims: vec![48, 24], classes: 24, with_updates: true })
        .expect("model")
        .graph
}

#[test]
fn dead_server_exhausts_the_attempt_budget_with_a_typed_error() {
    // Reserve a port, then free it: nothing listens there afterwards.
    let addr = {
        let l = TcpListener::bind("127.0.0.1:0").expect("reserve port");
        l.local_addr().expect("addr").to_string()
    };
    match PlanClient::connect_with_retry(&addr, fast_retry(3)) {
        Err(ClientError::Exhausted { attempts, last }) => {
            assert_eq!(attempts, 3);
            assert!(
                matches!(*last, ClientError::Protocol(_)),
                "last failure should be a transport error, got {last}"
            );
        }
        Err(other) => panic!("expected Exhausted, got {other}"),
        Ok(_) => panic!("connected to a dead address"),
    }
}

#[test]
fn a_dropped_connection_is_reconnected_and_the_request_resent() {
    let server = PlanServer::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let mut client = PlanClient::connect_with_retry(&addr, fast_retry(4)).expect("connect");
    client.ping().expect("ping over the first connection");

    // Sever the established connection under the client: the next request's
    // first attempt fails at the transport layer and must transparently
    // reconnect to the (still live) server and resend.
    client.stream_mut().shutdown(Shutdown::Both).expect("sever connection");
    client.ping().expect("ping resent over a fresh connection");

    let g = model();
    let opts = PartitionOptions { workers: 4, ..Default::default() };
    let served = client.partition("tenant-a", &g, &opts, None).expect("plan after reconnect");
    assert!(!served.fingerprint.is_empty());
    server.shutdown();
}

#[test]
fn typed_server_errors_are_never_retried() {
    let server = PlanServer::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let mut client = PlanClient::connect_with_retry(&addr, fast_retry(5)).expect("connect");
    let g = model();
    let opts = PartitionOptions { workers: 4, ..Default::default() };
    // A zero deadline is a *served answer* (deadline_missed), not a
    // transport failure: it must come back as Server, not Exhausted, and
    // the connection must stay usable (no reconnect churn).
    match client.partition("tenant-a", &g, &opts, Some(0)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::DeadlineMissed),
        other => panic!("expected a typed server error, got {other:?}"),
    }
    client.ping().expect("connection survived the typed error");
    server.shutdown();
}

#[test]
fn without_retry_a_severed_connection_is_a_plain_protocol_error() {
    let server = PlanServer::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut client = PlanClient::connect(server.addr()).expect("connect");
    client.ping().expect("ping");
    client.stream_mut().shutdown(Shutdown::Both).expect("sever connection");
    match client.ping() {
        Err(ClientError::Protocol(_)) => {}
        other => panic!("expected a protocol error, got {other:?}"),
    }
    server.shutdown();
}

/// A frame-forwarding proxy in front of `upstream` that serves two
/// connections: the first is cut, both ways, after `exchanges` complete
/// request/response pairs; the second forwards until the client hangs up.
/// Returns the exchanges each connection carried.
fn severing_proxy(upstream: SocketAddr, exchanges: usize) -> (String, JoinHandle<[usize; 2]>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().expect("proxy addr").to_string();
    let proxy = std::thread::spawn(move || {
        [Some(exchanges), None].map(|cut| {
            let (mut client, _) = listener.accept().expect("accept");
            let mut server = TcpStream::connect(upstream).expect("dial upstream");
            let mut carried = 0;
            while Some(carried) != cut {
                let Ok(Some(request)) = read_frame(&mut client, 8 << 20) else { break };
                write_frame(&mut server, &request).expect("forward request");
                let answer = read_frame(&mut server, 8 << 20).expect("read answer").expect("answer");
                write_frame(&mut client, &answer).expect("forward answer");
                carried += 1;
            }
            let _ = client.shutdown(Shutdown::Both);
            carried
        })
    });
    (addr, proxy)
}

#[test]
fn a_connection_severed_between_probe_and_upload_is_retried() {
    let server = PlanServer::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    // The probe and its `not_cached` answer get through; the connection is
    // gone by the time the client turns to upload the graph.
    let (addr, proxy) = severing_proxy(server.addr(), 1);
    let mut client = PlanClient::connect_with_retry(&addr, fast_retry(4)).expect("connect");
    let g = model();
    let opts = PartitionOptions { workers: 4, ..Default::default() };
    let served = client.partition("tenant-a", &g, &opts, None).expect("plan despite the cut");
    assert!(!served.cached, "the upload is the first request for this fingerprint");
    let local = partition(&g, &opts).expect("local plan");
    assert_eq!(served.plan.to_json(), plan_to_json(&local).to_json());

    drop(client);
    // Only the upload was resent, over a second connection: the probe had
    // been answered and is not asked again.
    assert_eq!(proxy.join().expect("proxy thread"), [1, 1]);
    let c = server.counters();
    assert_eq!(c.requests.load(Ordering::Relaxed), 1);
    assert_eq!(c.misses.load(Ordering::Relaxed), 1);
    server.shutdown();
}
