//! A small synchronous client for the plan service.
//!
//! One [`PlanClient`] wraps one TCP connection and issues one request at a
//! time (send frame, read frame); correlation ids are still checked so a
//! protocol bug surfaces as an error rather than a mismatched answer.
//!
//! [`PlanClient::partition`] asks by fingerprint first: it hashes the request
//! locally and sends a ~100-byte `lookup`; only when the server answers
//! `not_cached` does the graph travel, as a full `partition` upload. A hit
//! therefore costs one small frame out and the plan back (see the protocol
//! module's "Fingerprint first").
//!
//! [`PlanClient::connect_with_retry`] adds fleet-churn resilience: transport
//! failures (connection refused, reset mid-request, read timeout) trigger a
//! reconnect-and-resend loop paced by the runtime's seeded
//! [`BackoffSchedule`] — deterministic delays for a given seed — while typed
//! server errors are **never** retried (the server answered; asking again
//! buys nothing). Resending is safe because plan requests are idempotent:
//! answers are a pure function of the request fingerprint, and the server's
//! response cache dedupes repeats. When the attempt budget runs out the
//! client surrenders with the typed [`ClientError::Exhausted`], carrying the
//! last underlying failure.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use tofu_core::recursive::PartitionOptions;
use tofu_graph::Graph;
use tofu_obs::json::Json;
use tofu_runtime::BackoffSchedule;

use crate::protocol::{
    encode_partition, read_frame, write_frame, ErrorCode, ProtocolError, Request, Response,
    DEFAULT_MAX_FRAME,
};

/// A served plan answer.
#[derive(Debug, Clone)]
pub struct ServedPlan {
    /// True when answered from the server's response cache.
    pub cached: bool,
    /// The request fingerprint (hex).
    pub fingerprint: String,
    /// The canonical plan JSON (see [`crate::protocol::plan_to_json`]).
    pub plan: Json,
}

/// Client-side failure: either a transport/protocol error or a typed
/// error response from the server.
#[derive(Debug)]
pub enum ClientError {
    /// Frame or message-layer failure.
    Protocol(ProtocolError),
    /// The server answered with a typed error.
    Server {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server answered something unexpected for this request.
    UnexpectedResponse(String),
    /// The reconnect-with-retry budget ran out; `last` is the final
    /// underlying failure.
    Exhausted {
        /// Total attempts made (initial try included).
        attempts: usize,
        /// The failure of the last attempt.
        last: Box<ClientError>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Protocol(e) => write!(f, "{e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error [{}]: {message}", code.as_str())
            }
            ClientError::UnexpectedResponse(m) => write!(f, "unexpected response: {m}"),
            ClientError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempt(s); last error: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Exhausted { last, .. } => Some(&**last),
            _ => None,
        }
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> ClientError {
        ClientError::Protocol(e)
    }
}

/// A blocking connection to a [`crate::server::PlanServer`].
///
/// # Examples
///
/// ```no_run
/// use tofu_core::recursive::PartitionOptions;
/// use tofu_serve::client::PlanClient;
/// # let graph = tofu_graph::Graph::new();
///
/// let mut client = PlanClient::connect("127.0.0.1:7070").unwrap();
/// let opts = PartitionOptions { workers: 8, ..Default::default() };
/// let plan = client.partition("tenant-a", &graph, &opts, None).unwrap();
/// println!("cached: {} fp: {}", plan.cached, plan.fingerprint);
/// ```
pub struct PlanClient {
    stream: TcpStream,
    max_frame: usize,
    next_id: u64,
    retry: Option<RetryState>,
}

/// Reconnect-and-resend behaviour for [`PlanClient::connect_with_retry`].
#[derive(Debug, Clone)]
pub struct RetryOptions {
    /// Total attempts per operation, initial try included (0 means 1).
    pub attempts: usize,
    /// Base delay of the seeded decorrelated-jitter backoff.
    pub backoff: Duration,
    /// Backoff cap.
    pub max_backoff: Duration,
    /// Jitter seed: equal seeds give the identical delay sequence, so a
    /// churn scenario's retry timing replays deterministically.
    pub jitter_seed: u64,
    /// Per-request read timeout on the socket; a served answer must start
    /// arriving within it or the attempt counts as failed. `None` blocks
    /// forever.
    pub request_timeout: Option<Duration>,
}

impl Default for RetryOptions {
    fn default() -> RetryOptions {
        RetryOptions {
            attempts: 5,
            backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            jitter_seed: 0x7e70,
            request_timeout: Some(Duration::from_secs(5)),
        }
    }
}

struct RetryState {
    addr: String,
    opts: RetryOptions,
    backoff: BackoffSchedule,
}

impl PlanClient {
    /// Connects to a plan server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<PlanClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(PlanClient { stream, max_frame: DEFAULT_MAX_FRAME, next_id: 1, retry: None })
    }

    /// Connects with reconnect-and-resend resilience: the initial connect
    /// gets the full attempt budget, and later transport failures
    /// (including per-request timeouts) make the client reconnect to `addr`
    /// and resend before giving up with [`ClientError::Exhausted`]. Typed
    /// server errors pass through unretried.
    pub fn connect_with_retry(addr: &str, opts: RetryOptions) -> Result<PlanClient, ClientError> {
        let attempts = opts.attempts.max(1);
        let mut backoff = BackoffSchedule::new(opts.backoff, opts.max_backoff, opts.jitter_seed);
        let mut last: Option<ClientError> = None;
        for attempt in 1..=attempts {
            if attempt > 1 {
                let d = backoff.next_delay();
                if !d.is_zero() {
                    std::thread::sleep(d);
                }
            }
            match Self::dial(addr, opts.request_timeout) {
                Ok(stream) => {
                    return Ok(PlanClient {
                        stream,
                        max_frame: DEFAULT_MAX_FRAME,
                        next_id: 1,
                        retry: Some(RetryState { addr: addr.to_string(), opts, backoff }),
                    });
                }
                Err(e) => last = Some(ClientError::Protocol(ProtocolError::Io(e))),
            }
        }
        Err(ClientError::Exhausted {
            attempts,
            last: Box::new(last.expect("at least one connect attempt ran")),
        })
    }

    fn dial(addr: &str, timeout: Option<Duration>) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(timeout)?;
        Ok(stream)
    }

    /// The underlying stream (tests use this to inject raw frames).
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    fn round_trip(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.round_trip_bytes(&req.to_bytes())
    }

    fn round_trip_once(&mut self, payload: &[u8]) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, payload)?;
        let payload = read_frame(&mut self.stream, self.max_frame)?
            .ok_or(ProtocolError::Truncated { want: 0 })?;
        Ok(Response::from_bytes(&payload)?)
    }

    fn round_trip_bytes(&mut self, payload: &[u8]) -> Result<Response, ClientError> {
        let mut last = match self.round_trip_once(payload) {
            Ok(r) => return Ok(r),
            // Only transport failures are retryable; a typed server error
            // or a correlation mismatch means the server actually answered.
            Err(e @ ClientError::Protocol(_)) if self.retry.is_some() => e,
            Err(e) => return Err(e),
        };
        let attempts = self.retry.as_ref().map(|r| r.opts.attempts.max(1)).unwrap_or(1);
        for _ in 2..=attempts {
            {
                let r = self.retry.as_mut().expect("retry state checked above");
                let d = r.backoff.next_delay();
                if !d.is_zero() {
                    std::thread::sleep(d);
                }
                match Self::dial(&r.addr, r.opts.request_timeout) {
                    Ok(stream) => self.stream = stream,
                    Err(e) => {
                        last = ClientError::Protocol(ProtocolError::Io(e));
                        continue;
                    }
                }
            }
            match self.round_trip_once(payload) {
                Ok(r) => return Ok(r),
                Err(e @ ClientError::Protocol(_)) => last = e,
                Err(e) => return Err(e),
            }
        }
        Err(ClientError::Exhausted { attempts, last: Box::new(last) })
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Requests a partition plan. `deadline_ms` is a relative deadline the
    /// server enforces; expired requests come back as
    /// [`ErrorCode::DeadlineMissed`].
    ///
    /// The server is asked by fingerprint first; the graph is uploaded only
    /// if it holds no plan for it (each of the two messages is retried on its
    /// own under [`connect_with_retry`](PlanClient::connect_with_retry)).
    pub fn partition(
        &mut self,
        tenant: &str,
        graph: &Graph,
        options: &PartitionOptions,
        deadline_ms: Option<u64>,
    ) -> Result<ServedPlan, ClientError> {
        let id = self.fresh_id();
        let fingerprint = tofu_core::request_fingerprint(graph, options);
        let probe = self.round_trip(&Request::Lookup { id, fingerprint, deadline_ms })?;
        if !matches!(probe, Response::Error { code: ErrorCode::NotCached, .. }) {
            return served(id, probe);
        }
        let id = self.fresh_id();
        // Encode from borrowed parts: no Graph clone per request.
        let payload = encode_partition(id, tenant, graph, options, deadline_ms);
        served(id, self.round_trip_bytes(&payload)?)
    }

    /// Fetches the server's statistics document.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        let id = self.fresh_id();
        match self.round_trip(&Request::Stats { id })? {
            Response::Stats { id: rid, body } if rid == id => Ok(body),
            Response::Error { code, message, .. } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Liveness probe; errors if the server does not answer pong.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let id = self.fresh_id();
        match self.round_trip(&Request::Ping { id })? {
            Response::Pong { id: rid } if rid == id => Ok(()),
            Response::Error { code, message, .. } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }
}

/// Reads the answer to plan request `id` (a `lookup` or a `partition`).
fn served(id: u64, response: Response) -> Result<ServedPlan, ClientError> {
    match response {
        Response::Plan { id: rid, cached, fingerprint, plan } if rid == id => {
            Ok(ServedPlan { cached, fingerprint, plan })
        }
        Response::Error { code, message, .. } => Err(ClientError::Server { code, message }),
        other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
    }
}
