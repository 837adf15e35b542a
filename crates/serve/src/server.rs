//! The plan server: TCP acceptor, connection handlers and the solver pool.
//!
//! # Architecture
//!
//! ```text
//!  clients ──TCP──► acceptor ──► one handler thread per connection
//!                                  │  parse frame; key = the fingerprint a
//!                                  │  `lookup` names, or the server's own
//!                                  │  hash of an uploaded `partition` graph
//!                                  │
//!                     response cache (fingerprint → plan JSON)
//!                       hit ──► answer immediately (cached=true)
//!                       in-flight ──► join as waiter (single-flight)
//!                       miss, lookup ──► `not_cached` (client uploads)
//!                       miss, upload ──► FairScheduler (per-tenant
//!                                round-robin, bounded → `overloaded`)
//!                                  │
//!                          solver pool (N threads)
//!                        partition_with_obs (no memo below)
//!                                  │
//!                  file plan or provable rejection; answer
//!                       leader + all joined waiters
//! ```
//!
//! Only an upload can fill the response cache, and only under the hash the
//! server computed from the decoded graph (see the protocol module's
//! "Fingerprint first"): a `lookup` reads an entry or joins its flight, never
//! creates one.
//!
//! The response cache is the service's one memo and its one flight: it maps
//! a whole request fingerprint ([`tofu_core::request_fingerprint`]) to the
//! finished plan JSON *or* to a provable rejection (no strategy, unusable
//! worker count), so a repeated infeasible request is answered
//! `search_failed` without a second search. Transient failures (bounds,
//! panics, deadlines) are never filed. Nothing finer is shared between
//! requests: every miss runs the whole search, analysing each distinct
//! operator's strategies once.
//!
//! Every served plan is bit-identical to what a single-threaded
//! [`tofu_core::partition`] call produces for the same request: the cache
//! keys on exact structural identity and stores a pure function of its key,
//! and at most one solver computes a key, so concurrency only reorders which
//! key is computed first.

use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tofu_core::recursive::{partition_with_obs, PartitionOptions};
use tofu_core::request_fingerprint;
use tofu_graph::Graph;
use tofu_obs::json::Json;
use tofu_obs::{Collector, Track};

use crate::protocol::{
    encode_plan_response, fingerprint_hex, plan_to_json, read_frame, write_frame, ErrorCode,
    PartitionRequest, ProtocolError, Request, Response, DEFAULT_MAX_FRAME,
};
use crate::scheduler::FairScheduler;

/// Server tuning knobs.
#[derive(Clone)]
pub struct ServeConfig {
    /// Solver threads computing cache misses (clamped up to 1).
    pub solver_threads: usize,
    /// Admission cap: total queued misses before `overloaded` rejections.
    /// Zero rejects every cold request (hits still serve).
    pub queue_cap: usize,
    /// Maximum accepted frame payload in bytes.
    pub max_frame: usize,
    /// Optional observability sink: serve counters and per-solve spans land
    /// here on [`Track::serve`].
    pub collector: Option<Collector>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            solver_threads: 2,
            queue_cap: 64,
            max_frame: DEFAULT_MAX_FRAME,
            collector: None,
        }
    }
}

/// Monotonic serve-level counters (all `Relaxed`; consistency across fields
/// is not required for stats reporting).
#[derive(Default)]
pub struct ServeCounters {
    /// Plan requests taken on: every `partition` upload, and every `lookup`
    /// that found an entry. A `lookup` answered `not_cached` is not one —
    /// the upload that follows it is.
    pub requests: AtomicU64,
    /// Found finished in the response cache.
    pub hits: AtomicU64,
    /// Computed fresh (single-flight leaders).
    pub misses: AtomicU64,
    /// Joined an in-flight identical computation.
    pub joined: AtomicU64,
    /// Rejected by admission control.
    pub rejected: AtomicU64,
    /// Answered `deadline_missed`.
    pub deadline_missed: AtomicU64,
    /// Answered `shutting_down` (arrived after drain began; deliberately
    /// *not* counted in `requests`, which tallies only admitted-or-rejected
    /// work so `hits + misses + joined + rejected == requests` holds).
    pub shutting_down: AtomicU64,
    /// Answered `search_failed` or `internal`: the search errored or
    /// panicked, or a hit found a filed rejection.
    pub search_failed: AtomicU64,
    /// Frames or messages that failed to parse.
    pub protocol_errors: AtomicU64,
    /// Bytes of request frames read, length prefixes included (any message
    /// kind): what clients paid on the wire to ask.
    pub request_bytes: AtomicU64,
    /// Bytes of response frames written, length prefixes included (any
    /// message kind): what clients read back.
    pub response_bytes: AtomicU64,
}

/// A response destination: the connection's shared write half plus the
/// request's correlation id and deadline.
struct Waiter {
    conn: Arc<Mutex<TcpStream>>,
    id: u64,
    deadline: Option<Instant>,
}

/// A finished plan for one fingerprint. The plan is kept pre-serialized:
/// answering a hit splices the canonical text into the response frame
/// instead of cloning a JSON tree.
struct PlanPayload {
    fingerprint: String,
    plan_text: String,
}

/// The filed answer for one fingerprint: a plan, or the message of a
/// provable rejection (answered `search_failed`).
type Answer = Result<PlanPayload, String>;

enum PlanEntry {
    /// Computed; answer hits immediately.
    Ready(Arc<Answer>),
    /// A leader is computing; these waiters joined behind it.
    Pending(Vec<Waiter>),
}

/// One queued cache miss (the single-flight leader's work order).
struct Job {
    fp: u128,
    graph: Graph,
    opts: PartitionOptions,
    leader: Waiter,
}

struct Shared {
    cfg: ServeConfig,
    plans: Mutex<HashMap<u128, PlanEntry>>,
    sched: FairScheduler<Job>,
    counters: ServeCounters,
    stop: AtomicBool,
    /// Graceful-shutdown latch: set by [`PlanServer::begin_drain`]. New
    /// partition requests are answered `shutting_down`; queued ones drain.
    draining: AtomicBool,
    /// try_clone'd handles used solely to shutdown sockets on close.
    conns: Mutex<Vec<TcpStream>>,
    started: Instant,
}

impl Shared {
    fn new(cfg: ServeConfig) -> Shared {
        Shared {
            sched: FairScheduler::new(cfg.queue_cap),
            cfg,
            plans: Mutex::new(HashMap::new()),
            counters: ServeCounters::default(),
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            started: Instant::now(),
        }
    }

    fn bump(&self, counter: &AtomicU64, name: &'static str) {
        counter.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = &self.cfg.collector {
            c.add_total(name, 1.0);
        }
    }
}

/// A running plan service bound to a TCP address.
///
/// # Examples
///
/// ```no_run
/// use tofu_serve::server::{PlanServer, ServeConfig};
///
/// let server = PlanServer::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
/// println!("serving on {}", server.addr());
/// server.shutdown();
/// ```
pub struct PlanServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// Solver-pool threads, joined first during a drain so every queued
    /// request is answered before any connection closes.
    solvers: Vec<JoinHandle<()>>,
    handles: Vec<JoinHandle<()>>,
}

impl PlanServer {
    /// Binds, spawns the acceptor and solver pool, and returns immediately.
    /// Use address `"127.0.0.1:0"` for an OS-assigned test port.
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServeConfig) -> std::io::Result<PlanServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let solver_threads = cfg.solver_threads.max(1);
        let shared = Arc::new(Shared::new(cfg));
        let mut solvers = Vec::new();
        for i in 0..solver_threads {
            let shared = Arc::clone(&shared);
            solvers.push(
                std::thread::Builder::new()
                    .name(format!("tofu-solver-{i}"))
                    .spawn(move || solver_loop(&shared))
                    .expect("spawn solver"),
            );
        }
        let mut handles = Vec::new();
        {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name("tofu-accept".to_string())
                    .spawn(move || accept_loop(&listener, &shared))
                    .expect("spawn acceptor"),
            );
        }
        Ok(PlanServer { addr: local, shared, solvers, handles })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serve-level counters.
    pub fn counters(&self) -> &ServeCounters {
        &self.shared.counters
    }

    /// Stops accepting, drains solvers, closes connections, joins threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Flips the server into draining mode without closing anything: new
    /// partition requests are answered with a typed
    /// [`ErrorCode::ShuttingDown`] error, no further work is admitted, and
    /// the solver pool keeps answering everything already queued. Pings and
    /// stats still serve (stats report `"draining": true`). Idempotent;
    /// complete the shutdown with [`drain`](PlanServer::drain).
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.sched.close();
    }

    /// Graceful shutdown: [`begin_drain`](PlanServer::begin_drain), then
    /// wait for the solver pool to answer every queued request — no
    /// in-flight request is ever dropped — and only then close connections
    /// and join the remaining threads.
    pub fn drain(mut self) {
        self.begin_drain();
        // Solvers exit once the closed queue runs dry; joining them first
        // guarantees every admitted request was answered while its
        // connection was still open.
        for h in self.solvers.drain(..) {
            let _ = h.join();
        }
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.sched.close();
        for conn in self.shared.conns.lock().expect("conns lock").iter() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for h in self.solvers.drain(..).chain(self.handles.drain(..)) {
            let _ = h.join();
        }
    }
}

impl Drop for PlanServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().expect("conns lock").push(clone);
        }
        let shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("tofu-conn".to_string())
            .spawn(move || connection_loop(stream, &shared));
    }
}

/// Sends a response over a shared write half; write errors mean the peer is
/// gone and are deliberately ignored (the server must outlive any client).
fn send(shared: &Shared, conn: &Arc<Mutex<TcpStream>>, resp: &Response) {
    send_bytes(shared, conn, &resp.to_bytes());
}

/// Counts the frame before writing it, so a client that has read its
/// answer finds it counted.
fn send_bytes(shared: &Shared, conn: &Arc<Mutex<TcpStream>>, payload: &[u8]) {
    shared.counters.response_bytes.fetch_add(payload.len() as u64 + 4, Ordering::Relaxed);
    let mut stream = conn.lock().expect("conn write lock");
    let _ = write_frame(&mut *stream, payload);
}

fn send_error(
    shared: &Shared,
    conn: &Arc<Mutex<TcpStream>>,
    id: u64,
    code: ErrorCode,
    message: String,
) {
    send(shared, conn, &Response::Error { id, code, message });
}

/// Best-effort extraction of a request id from a payload that failed full
/// parsing, so error responses can still be correlated.
fn extract_id(payload: &[u8]) -> u64 {
    std::str::from_utf8(payload)
        .ok()
        .and_then(|t| tofu_obs::json::parse(t).ok())
        .and_then(|v| v.get("id").and_then(Json::as_f64))
        .filter(|f| *f >= 0.0 && f.fract() == 0.0)
        .map(|f| f as u64)
        .unwrap_or(0)
}

fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let writer = Arc::new(Mutex::new(stream));
    run_connection(&mut reader, &writer, shared);
    // The shutdown-registry holds another clone of this socket, so dropping
    // our handles alone would leave it open and the peer would never see
    // EOF; send FIN explicitly.
    let _ = reader.shutdown(Shutdown::Both);
}

fn run_connection(reader: &mut TcpStream, writer: &Arc<Mutex<TcpStream>>, shared: &Arc<Shared>) {
    let max = shared.cfg.max_frame;
    loop {
        let payload = match read_frame(reader, max) {
            Ok(Some(p)) => p,
            // Clean close, or a stream error we cannot answer on.
            Ok(None) | Err(ProtocolError::Truncated { .. }) | Err(ProtocolError::Io(_)) => return,
            Err(e @ ProtocolError::Oversized { .. }) => {
                // The payload was never read, so the stream cannot be
                // re-synchronized: answer, then close.
                shared.bump(&shared.counters.protocol_errors, "serve/protocol_errors");
                send_error(shared, writer, 0, ErrorCode::Oversized, e.to_string());
                return;
            }
            Err(_) => return,
        };
        shared.counters.request_bytes.fetch_add(payload.len() as u64 + 4, Ordering::Relaxed);
        match Request::from_bytes(&payload) {
            Ok(Request::Ping { id }) => send(shared, writer, &Response::Pong { id }),
            Ok(Request::Stats { id }) => send(shared, writer, &stats_response(shared, id)),
            Ok(Request::Lookup { id, fingerprint, deadline_ms }) => {
                handle_plan_request(shared, writer, id, deadline_ms, fingerprint, None);
            }
            Ok(Request::Partition { id, req }) => {
                // The key of an upload is always the server's own hash of
                // the graph it decoded, whatever the message claimed.
                let fp = request_fingerprint(&req.graph, &req.options);
                handle_plan_request(shared, writer, id, req.deadline_ms, fp, Some(*req));
            }
            Err(e) => {
                shared.bump(&shared.counters.protocol_errors, "serve/protocol_errors");
                // A payload that is not JSON has no id to find.
                let id = match e {
                    ProtocolError::BadJson(_) => 0,
                    _ => extract_id(&payload),
                };
                let code = match &e {
                    ProtocolError::UnknownType(_) => ErrorCode::UnknownType,
                    _ => ErrorCode::BadRequest,
                };
                send_error(shared, writer, id, code, e.to_string());
            }
        }
    }
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Answers one request for the plan filed under `fp`. `upload` is the
/// request body when the graph came along (`partition`), `None` when the
/// client only named the fingerprint (`lookup`): without a body there is
/// nothing to solve, so an unknown fingerprint is answered `not_cached`.
fn handle_plan_request(
    shared: &Arc<Shared>,
    writer: &Arc<Mutex<TcpStream>>,
    id: u64,
    deadline_ms: Option<u64>,
    fp: u128,
    upload: Option<PartitionRequest>,
) {
    // Checked before `requests` is bumped: late arrivals are turned away,
    // not admitted, so the `hits + misses + joined + rejected == requests`
    // invariant is unaffected by a drain.
    if shared.draining.load(Ordering::SeqCst) {
        shared.bump(&shared.counters.shutting_down, "serve/shutting_down");
        let msg = "server is draining for shutdown".to_string();
        send_error(shared, writer, id, ErrorCode::ShuttingDown, msg);
        return;
    }
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));

    let mut plans = shared.plans.lock().expect("plans lock");
    match (plans.get_mut(&fp), upload) {
        (None, None) => {
            drop(plans);
            // No counter moves, `requests` included: the upload this answer
            // asks for is the request.
            let msg = "no plan under this fingerprint".to_string();
            send_error(shared, writer, id, ErrorCode::NotCached, msg);
        }
        (Some(PlanEntry::Ready(answer)), _) => {
            let answer = Arc::clone(answer);
            drop(plans);
            shared.bump(&shared.counters.requests, "serve/requests");
            shared.bump(&shared.counters.hits, "serve/hits");
            answer_one(shared, &Waiter { conn: Arc::clone(writer), id, deadline }, true, &answer);
        }
        (Some(PlanEntry::Pending(waiters)), _) => {
            shared.bump(&shared.counters.requests, "serve/requests");
            shared.bump(&shared.counters.joined, "serve/joined");
            waiters.push(Waiter { conn: Arc::clone(writer), id, deadline });
        }
        (None, Some(req)) => {
            shared.bump(&shared.counters.requests, "serve/requests");
            plans.insert(fp, PlanEntry::Pending(Vec::new()));
            let job = Job {
                fp,
                graph: req.graph,
                opts: req.options,
                leader: Waiter { conn: Arc::clone(writer), id, deadline },
            };
            // Lock order note: `plans` is held across `sched.push` (which
            // only takes the scheduler's own lock and never blocks); solver
            // threads take the scheduler lock inside `pop` and release it
            // before touching `plans`, so the order is acyclic.
            match shared.sched.push(&req.tenant, job) {
                Ok(()) => {
                    shared.bump(&shared.counters.misses, "serve/misses");
                }
                Err(job) => {
                    // Not admitted: roll the in-flight entry back. No waiter
                    // can have joined — the lock was never released.
                    plans.remove(&fp);
                    drop(plans);
                    shared.bump(&shared.counters.rejected, "serve/rejected");
                    // A closed queue means a drain began after the entry
                    // check above; either way the request counted, so it is
                    // a rejection — but tell the client the honest reason.
                    let (code, msg) = if shared.draining.load(Ordering::SeqCst) {
                        (ErrorCode::ShuttingDown, "server is draining for shutdown".to_string())
                    } else {
                        (
                            ErrorCode::Overloaded,
                            format!("miss queue at capacity ({})", shared.cfg.queue_cap),
                        )
                    };
                    send_error(shared, &job.leader.conn, job.leader.id, code, msg);
                }
            }
        }
    }
}

/// Removes a fingerprint's in-flight entry, returning its joined waiters.
fn take_waiters(shared: &Shared, fp: u128) -> Vec<Waiter> {
    // One guard for the whole exchange: a scrutinee's temporary guard lives
    // to the end of the `match`, so re-locking inside an arm self-deadlocks.
    let mut plans = shared.plans.lock().expect("plans lock");
    match plans.remove(&fp) {
        Some(PlanEntry::Pending(w)) => w,
        Some(ready @ PlanEntry::Ready(_)) => {
            // Should not happen (only the solver owning the job fills it);
            // restore rather than drop cached work.
            plans.insert(fp, ready);
            Vec::new()
        }
        None => Vec::new(),
    }
}

fn fail_all(shared: &Shared, leader: &Waiter, waiters: &[Waiter], code: ErrorCode, msg: &str, counter: &AtomicU64, name: &'static str) {
    for w in std::iter::once(leader).chain(waiters.iter()) {
        shared.bump(counter, name);
        send_error(shared, &w.conn, w.id, code, msg.to_string());
    }
}

/// Removes a job's in-flight entry when its leader and every joined waiter
/// are past their deadlines, returning the waiters; `None` (someone still
/// waits in time) leaves the flight to be solved. One lock covers the check
/// and the removal, so a waiter cannot join in between and be failed unseen.
fn take_expired_flight(shared: &Shared, job: &Job) -> Option<Vec<Waiter>> {
    if !expired(job.leader.deadline) {
        return None;
    }
    let mut plans = shared.plans.lock().expect("plans lock");
    let Some(PlanEntry::Pending(waiters)) = plans.get_mut(&job.fp) else {
        return Some(Vec::new());
    };
    if !waiters.iter().all(|w| expired(w.deadline)) {
        return None;
    }
    let waiters = std::mem::take(waiters);
    plans.remove(&job.fp);
    Some(waiters)
}

fn solver_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.sched.pop() {
        if let Some(waiters) = take_expired_flight(shared, &job) {
            fail_all(
                shared,
                &job.leader,
                &waiters,
                ErrorCode::DeadlineMissed,
                "deadline elapsed while queued",
                &shared.counters.deadline_missed,
                "serve/deadline_missed",
            );
            continue;
        }
        let start = shared.cfg.collector.as_ref().map(|c| c.now_us());
        let result = catch_unwind(AssertUnwindSafe(|| {
            partition_with_obs(&job.graph, &job.opts, shared.cfg.collector.as_ref())
        }));
        if let (Some(c), Some(s)) = (&shared.cfg.collector, start) {
            let name = format!(
                "solve {} ({} workers, {} nodes)",
                &fingerprint_hex(job.fp)[..8],
                job.opts.workers,
                job.graph.num_nodes()
            );
            c.complete(Track::serve(), "serve", &name, s, c.now_us());
        }
        let answer = match result {
            Ok(Ok(plan)) => Ok(PlanPayload {
                fingerprint: fingerprint_hex(job.fp),
                plan_text: plan_to_json(&plan).to_json(),
            }),
            // A provable rejection is filed like a plan, so a repeat is
            // answered without a search.
            Ok(Err(e)) if e.is_provable() => Err(format!("partition search failed: {e}")),
            // Transient failures answer this flight and file nothing.
            Ok(Err(e)) => {
                let waiters = take_waiters(shared, job.fp);
                fail_all(
                    shared,
                    &job.leader,
                    &waiters,
                    ErrorCode::SearchFailed,
                    &format!("partition search failed: {e}"),
                    &shared.counters.search_failed,
                    "serve/search_failed",
                );
                continue;
            }
            Err(_) => {
                let waiters = take_waiters(shared, job.fp);
                fail_all(
                    shared,
                    &job.leader,
                    &waiters,
                    ErrorCode::Internal,
                    "partition search panicked",
                    &shared.counters.search_failed,
                    "serve/search_failed",
                );
                continue;
            }
        };
        let answer = Arc::new(answer);
        let waiters = {
            let mut plans = shared.plans.lock().expect("plans lock");
            match plans.insert(job.fp, PlanEntry::Ready(Arc::clone(&answer))) {
                Some(PlanEntry::Pending(w)) => w,
                _ => Vec::new(),
            }
        };
        for w in std::iter::once(&job.leader).chain(waiters.iter()) {
            answer_one(shared, w, false, &answer);
        }
    }
}

/// Sends a filed answer to one waiter: the plan (`cached` says whether it
/// was found filed), `search_failed` for a filed rejection, or
/// `deadline_missed` once the waiter's deadline has passed.
fn answer_one(shared: &Shared, w: &Waiter, cached: bool, answer: &Answer) {
    if expired(w.deadline) {
        shared.bump(&shared.counters.deadline_missed, "serve/deadline_missed");
        send_error(shared, &w.conn, w.id, ErrorCode::DeadlineMissed, "deadline elapsed".into());
        return;
    }
    match answer {
        Ok(p) => send_bytes(
            shared,
            &w.conn,
            &encode_plan_response(w.id, cached, &p.fingerprint, &p.plan_text),
        ),
        Err(msg) => {
            shared.bump(&shared.counters.search_failed, "serve/search_failed");
            send_error(shared, &w.conn, w.id, ErrorCode::SearchFailed, msg.clone());
        }
    }
}

fn stats_response(shared: &Shared, id: u64) -> Response {
    let c = &shared.counters;
    let load = |a: &AtomicU64| Json::from(a.load(Ordering::Relaxed));
    // Filed plans and filed rejections; flights still computing are not
    // entries yet.
    let entries = {
        let plans = shared.plans.lock().expect("plans lock");
        plans.values().filter(|e| matches!(e, PlanEntry::Ready(_))).count()
    };
    let body = Json::obj(vec![
        ("type", Json::from("stats")),
        ("id", Json::from(id)),
        (
            "serve",
            Json::obj(vec![
                ("requests", load(&c.requests)),
                ("hits", load(&c.hits)),
                ("misses", load(&c.misses)),
                ("joined", load(&c.joined)),
                ("rejected", load(&c.rejected)),
                ("deadline_missed", load(&c.deadline_missed)),
                ("shutting_down", load(&c.shutting_down)),
                ("search_failed", load(&c.search_failed)),
                ("protocol_errors", load(&c.protocol_errors)),
                ("request_bytes", load(&c.request_bytes)),
                ("response_bytes", load(&c.response_bytes)),
                ("queued", Json::from(shared.sched.queued())),
                ("draining", Json::from(shared.draining.load(Ordering::SeqCst))),
                ("uptime_seconds", Json::Num(shared.started.elapsed().as_secs_f64())),
            ]),
        ),
        (
            "cache",
            Json::obj(vec![("entries", Json::from(entries))]),
        ),
    ]);
    Response::Stats { id, body }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `take_waiters` on an already-`Ready` entry must put it back and
    /// return, not re-lock `plans` under its own guard.
    #[test]
    fn take_waiters_restores_a_ready_entry_without_deadlocking() {
        let shared = Arc::new(Shared::new(ServeConfig::default()));
        let ready = Arc::new(Ok(PlanPayload { fingerprint: "f".into(), plan_text: "{}".into() }));
        shared.plans.lock().unwrap().insert(7, PlanEntry::Ready(ready));
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = Arc::clone(&shared);
        std::thread::spawn(move || tx.send(take_waiters(&helper, 7).len()));
        let waiters = rx.recv_timeout(Duration::from_secs(5)).expect("take_waiters hung");
        assert_eq!(waiters, 0);
        assert!(matches!(shared.plans.lock().unwrap().get(&7), Some(PlanEntry::Ready(_))));
    }
}
