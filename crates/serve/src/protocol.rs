//! The wire protocol: length-prefixed JSON frames over TCP.
//!
//! Every message is one *frame*: a 4-byte big-endian payload length followed
//! by that many bytes of UTF-8 JSON. Frames larger than the receiver's
//! configured maximum are rejected with a typed error before any payload
//! byte is read, so a hostile length prefix cannot make the server allocate.
//!
//! The JSON layer is `tofu-obs`'s zero-dependency [`Json`] value — the
//! workspace has no crates.io access, and the serve crate deliberately adds
//! no new dependencies.
//!
//! # Requests
//!
//! ```json
//! {"type":"lookup","id":1,"fingerprint":"<32 hex digits>","deadline_ms":250}
//! {"type":"partition","id":2,"tenant":"acme","workers":8,
//!  "deadline_ms":250,"options":{"allow_reduce":true},"graph":{...}}
//! {"type":"stats","id":3}
//! {"type":"ping","id":4}
//! ```
//!
//! # Responses
//!
//! ```json
//! {"type":"plan","id":1,"cached":true,"fingerprint":"...","plan":{...}}
//! {"type":"error","id":1,"code":"not_cached","message":"..."}
//! {"type":"error","id":2,"code":"overloaded","message":"..."}
//! {"type":"stats","id":3,"serve":{...},"cache":{"entries":2}}
//! {"type":"pong","id":4}
//! ```
//!
//! # Fingerprint first
//!
//! A plan is a pure function of [`tofu_core::request_fingerprint`] — a hash
//! of the graph and the search options — and the response cache is keyed by
//! it. The graph is ~1000× larger than its hash, so a client asks by hash
//! first (TensorFlow's register-once, run-by-handle idiom):
//!
//! 1. [`PlanClient::partition`](crate::client::PlanClient::partition) hashes
//!    the request locally with the server's own
//!    [`tofu_core::request_fingerprint`] — every option travels, so both
//!    sides hash the same request — and sends a ~100-byte `lookup`.
//! 2. If the server holds a finished plan under that key it answers with the
//!    usual `plan` response (`cached: true`); if a solver is computing it,
//!    the lookup joins that flight and is answered (`cached: false`) when it
//!    lands. Either way the graph never travels.
//! 3. Otherwise the server answers `not_cached` and the client uploads the
//!    full `partition` request — the one and only miss path.
//!
//! **Who computes which fingerprint.** The client's hash is only ever a
//! *read* key. The server recomputes the fingerprint of every uploaded graph
//! itself, after decoding and shape-checking it, and inserts under that value
//! alone; a `fingerprint` field on a `partition` request is ignored. A
//! client that sends a wrong or forged hash can therefore at worst read a
//! plan that is already shared across tenants, or miss and pay for the
//! upload — it can never make the server file a plan under a key the plan
//! does not hash to, which every later reader of that key would then be
//! served.
//!
//! The `plan` object is produced by [`plan_to_json`] and is **canonical**:
//! two bit-identical [`PartitionPlan`]s serialize to byte-identical JSON, so
//! clients (and the bench harness) verify served plans by comparing the
//! compact serialization against a locally computed
//! [`tofu_core::partition`] plan.

use std::io::{Read, Write};

use tofu_core::recursive::{PartitionOptions, PartitionPlan};
use tofu_core::{ConcreteOut, ConcreteReq, NodeChoice};
use tofu_graph::{AttrValue, Attrs, Graph, NodeId, NodeTags, TensorId, TensorKind};
use tofu_obs::json::{parse, Json};
use tofu_tensor::Shape;

/// Default maximum frame payload size accepted by either side (8 MiB — a
/// WResNet-152 training graph serializes well under 2 MiB).
pub const DEFAULT_MAX_FRAME: usize = 8 << 20;

/// Errors of the frame and message layer.
#[derive(Debug)]
pub enum ProtocolError {
    /// An I/O error on the socket.
    Io(std::io::Error),
    /// The peer closed the connection mid-frame.
    Truncated {
        /// Bytes the frame header promised.
        want: usize,
    },
    /// The frame length prefix exceeds the configured maximum.
    Oversized {
        /// Advertised payload length.
        len: usize,
        /// The receiver's limit.
        max: usize,
    },
    /// The payload is not valid JSON.
    BadJson(String),
    /// The payload is valid JSON but not a valid message.
    BadRequest(String),
    /// The message's `type` field names no known request.
    UnknownType(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "io error: {e}"),
            ProtocolError::Truncated { want } => {
                write!(f, "connection closed mid-frame ({want} byte payload promised)")
            }
            ProtocolError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max} byte limit")
            }
            ProtocolError::BadJson(e) => write!(f, "malformed json: {e}"),
            ProtocolError::BadRequest(e) => write!(f, "bad request: {e}"),
            ProtocolError::UnknownType(t) => write!(f, "unknown request type {t:?}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> ProtocolError {
        ProtocolError::Io(e)
    }
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (the peer closed at
/// a frame boundary); [`ProtocolError::Truncated`] is a close mid-frame.
/// An oversized length prefix errors *before* reading the payload.
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut len_buf = [0u8; 4];
    match r.read(&mut len_buf[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(ProtocolError::Io(e)),
    }
    r.read_exact(&mut len_buf[1..]).map_err(|e| map_eof(e, 4))?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > max {
        return Err(ProtocolError::Oversized { len, max });
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf).map_err(|e| map_eof(e, len))?;
    Ok(Some(buf))
}

fn map_eof(e: std::io::Error, want: usize) -> ProtocolError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        ProtocolError::Truncated { want }
    } else {
        ProtocolError::Io(e)
    }
}

/// Writes one frame (length prefix + payload) and flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtocolError> {
    let len = u32::try_from(payload.len())
        .map_err(|_| ProtocolError::BadRequest("frame exceeds u32 length".into()))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// One partition request's business fields (everything but the envelope).
#[derive(Debug, Clone)]
pub struct PartitionRequest {
    /// Tenant the request is billed to (drives fair scheduling).
    pub tenant: String,
    /// The model graph to partition.
    pub graph: Graph,
    /// Search options (workers inside; unspecified fields are defaults).
    pub options: PartitionOptions,
    /// Relative deadline: the server answers `deadline_missed` instead of
    /// queueing past this. `None` = no deadline.
    pub deadline_ms: Option<u64>,
}

/// A parsed client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Partition a model graph.
    Partition {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// The request body.
        req: Box<PartitionRequest>,
    },
    /// Ask for the plan filed under a request fingerprint without sending
    /// the graph; answered `plan` or [`ErrorCode::NotCached`].
    Lookup {
        /// Correlation id.
        id: u64,
        /// The [`tofu_core::request_fingerprint`] of the request the client
        /// would otherwise upload (32 hex digits on the wire).
        fingerprint: u128,
        /// Relative deadline, as on a partition request.
        deadline_ms: Option<u64>,
    },
    /// Fetch service and cache statistics.
    Stats {
        /// Correlation id.
        id: u64,
    },
    /// Liveness probe.
    Ping {
        /// Correlation id.
        id: u64,
    },
}

/// Machine-readable error category in an error response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The miss queue is full; retry later (admission control).
    Overloaded,
    /// The request's deadline elapsed before an answer was ready.
    DeadlineMissed,
    /// The message was structurally invalid.
    BadRequest,
    /// The `type` field named no known request.
    UnknownType,
    /// A frame exceeded the server's size limit.
    Oversized,
    /// The partition search itself failed (e.g. no strategy for an op).
    SearchFailed,
    /// An internal server error (a solver panic).
    Internal,
    /// The server is draining for shutdown and accepts no new work; queued
    /// requests still get answers, but this one arrived too late.
    ShuttingDown,
    /// A `lookup` named a fingerprint with no finished or in-flight plan:
    /// upload the full `partition` request.
    NotCached,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineMissed => "deadline_missed",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownType => "unknown_type",
            ErrorCode::Oversized => "oversized",
            ErrorCode::SearchFailed => "search_failed",
            ErrorCode::Internal => "internal",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::NotCached => "not_cached",
        }
    }

    /// Parses the wire spelling.
    pub fn from_wire(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "overloaded" => ErrorCode::Overloaded,
            "deadline_missed" => ErrorCode::DeadlineMissed,
            "bad_request" => ErrorCode::BadRequest,
            "unknown_type" => ErrorCode::UnknownType,
            "oversized" => ErrorCode::Oversized,
            "search_failed" => ErrorCode::SearchFailed,
            "internal" => ErrorCode::Internal,
            "shutting_down" => ErrorCode::ShuttingDown,
            "not_cached" => ErrorCode::NotCached,
            _ => return None,
        })
    }
}

/// A server response.
#[derive(Debug, Clone)]
pub enum Response {
    /// A finished plan.
    Plan {
        /// Echoed correlation id.
        id: u64,
        /// True when answered from the shared response cache (vs computed
        /// for this request, possibly shared with concurrent duplicates).
        cached: bool,
        /// Hex request fingerprint (the response-cache key).
        fingerprint: String,
        /// The canonical plan object (see [`plan_to_json`]).
        plan: Json,
    },
    /// A typed failure.
    Error {
        /// Echoed correlation id (0 when the request had none readable).
        id: u64,
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Service + cache statistics.
    Stats {
        /// Echoed correlation id.
        id: u64,
        /// The statistics document (see the server for its fields).
        body: Json,
    },
    /// Liveness reply.
    Pong {
        /// Echoed correlation id.
        id: u64,
    },
}

// ---------------------------------------------------------------------------
// JSON helpers
// ---------------------------------------------------------------------------

fn bad(msg: impl Into<String>) -> ProtocolError {
    ProtocolError::BadRequest(msg.into())
}

fn get_u64(obj: &Json, key: &str) -> Result<u64, ProtocolError> {
    opt_u64(obj, key)?.ok_or_else(|| bad(format!("missing field {key:?}")))
}

fn opt_u64(obj: &Json, key: &str) -> Result<Option<u64>, ProtocolError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => u64_value(v, key).map(Some),
    }
}

fn u64_value(v: &Json, key: &str) -> Result<u64, ProtocolError> {
    let f = v.as_f64().ok_or_else(|| bad(format!("field {key:?} is not a number")))?;
    if f < 0.0 || f.fract() != 0.0 || f > 9e15 {
        return Err(bad(format!("field {key:?} is not an unsigned integer")));
    }
    Ok(f as u64)
}

fn get_str<'a>(obj: &'a Json, key: &str) -> Result<&'a str, ProtocolError> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| bad(format!("missing string field {key:?}")))
}

fn get_arr<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], ProtocolError> {
    obj.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| bad(format!("missing array field {key:?}")))
}

fn usize_item(v: &Json, what: &str) -> Result<usize, ProtocolError> {
    let f = v.as_f64().ok_or_else(|| bad(format!("{what} is not a number")))?;
    if f < 0.0 || f.fract() != 0.0 || f > 9e15 {
        return Err(bad(format!("{what} is not an unsigned integer")));
    }
    Ok(f as usize)
}

fn shape_json(s: &Shape) -> Json {
    Json::Arr(s.dims().iter().map(|&d| Json::from(d)).collect())
}

fn shape_from_json(v: &Json) -> Result<Shape, ProtocolError> {
    let items = v.as_array().ok_or_else(|| bad("shape is not an array"))?;
    let dims = items
        .iter()
        .map(|d| usize_item(d, "shape dim"))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Shape::new(dims))
}

/// A shape's byte count, or `None` when its element or byte count overflows
/// (`Shape::volume` would wrap, and the plan would price the tensor at 0 B).
fn checked_bytes(s: &Shape) -> Option<u64> {
    let elems = s.dims().iter().try_fold(1usize, |n, &d| n.checked_mul(d))?;
    u64::try_from(elems).ok()?.checked_mul(4)
}

// ---------------------------------------------------------------------------
// Graph codec
// ---------------------------------------------------------------------------

fn attrs_json(attrs: &Attrs) -> Json {
    Json::Obj(
        attrs
            .entries()
            .map(|(k, v)| {
                let val = match v {
                    AttrValue::Int(i) => Json::obj(vec![("i", Json::Num(*i as f64))]),
                    AttrValue::Float(f) => Json::obj(vec![("f", Json::Num(*f))]),
                    AttrValue::Str(s) => Json::obj(vec![("s", Json::from(s.as_str()))]),
                    AttrValue::IntVec(v) => Json::obj(vec![(
                        "iv",
                        Json::Arr(v.iter().map(|&i| Json::Num(i as f64)).collect()),
                    )]),
                };
                (k.to_string(), val)
            })
            .collect(),
    )
}

/// An attribute integer, rejected unless it is one exactly: a fraction would
/// be truncated and a huge value saturated before shape inference saw it.
/// Within ±2^53 every integer is exact in a JSON number (NaN and the
/// infinities fail the same tests).
fn attr_int(v: &Json, k: &str) -> Result<i64, ProtocolError> {
    let f = v.as_f64().ok_or_else(|| bad(format!("attr {k:?}: int is not a number")))?;
    if f.fract() != 0.0 || f.abs() > (1u64 << 53) as f64 {
        return Err(bad(format!("attr {k:?}: {f} is not an integer within ±2^53")));
    }
    Ok(f as i64)
}

fn attrs_from_json(v: &Json) -> Result<Attrs, ProtocolError> {
    let Json::Obj(pairs) = v else { return Err(bad("attrs is not an object")) };
    let mut attrs = Attrs::new();
    for (k, val) in pairs {
        if let Some(i) = val.get("i") {
            attrs.set(k, AttrValue::Int(attr_int(i, k)?));
        } else if let Some(f) = val.get("f") {
            attrs.set(k, AttrValue::Float(f.as_f64().ok_or_else(|| bad("attr float"))?));
        } else if let Some(s) = val.get("s") {
            attrs.set(
                k,
                AttrValue::Str(s.as_str().ok_or_else(|| bad("attr str"))?.to_string()),
            );
        } else if let Some(iv) = val.get("iv") {
            let items = iv.as_array().ok_or_else(|| bad("attr intvec"))?;
            let ints = items.iter().map(|i| attr_int(i, k)).collect::<Result<Vec<_>, _>>()?;
            attrs.set(k, AttrValue::IntVec(ints));
        } else {
            return Err(bad(format!("attr {k:?} has no recognized value tag")));
        }
    }
    Ok(attrs)
}

fn tags_json(tags: &NodeTags) -> Option<Json> {
    let mut pairs: Vec<(&str, Json)> = Vec::new();
    if tags.is_backward {
        pairs.push(("bw", Json::Bool(true)));
    }
    if let Some(f) = tags.fw_origin {
        pairs.push(("fw", Json::from(f.0)));
    }
    if let Some(l) = tags.layer {
        pairs.push(("layer", Json::from(l)));
    }
    if let Some(t) = tags.timestep {
        pairs.push(("ts", Json::from(t)));
    }
    if let Some(c) = &tags.cell_position {
        pairs.push(("cell", Json::from(c.as_str())));
    }
    if pairs.is_empty() {
        None
    } else {
        Some(Json::obj(pairs))
    }
}

fn tags_from_json(v: Option<&Json>, num_nodes: usize) -> Result<NodeTags, ProtocolError> {
    let mut tags = NodeTags::default();
    let Some(v) = v else { return Ok(tags) };
    tags.is_backward = v.get("bw").and_then(Json::as_bool).unwrap_or(false);
    if let Some(f) = v.get("fw") {
        let idx = usize_item(f, "fw_origin")?;
        if idx >= num_nodes {
            return Err(bad(format!("fw_origin {idx} refers to a later node")));
        }
        tags.fw_origin = Some(NodeId(idx));
    }
    if let Some(l) = v.get("layer") {
        tags.layer = Some(usize_item(l, "layer")?);
    }
    if let Some(t) = v.get("ts") {
        tags.timestep = Some(usize_item(t, "timestep")?);
    }
    if let Some(c) = v.get("cell") {
        tags.cell_position =
            Some(c.as_str().ok_or_else(|| bad("cell tag is not a string"))?.to_string());
    }
    Ok(tags)
}

/// Serializes a graph for the wire: one entry per tensor in id order
/// (operator outputs carry their producing node), plus gradient links.
/// [`graph_from_json`] reconstructs a graph with identical tensor and node
/// ids, shapes, attrs, coarsening tags and control dependencies.
pub fn graph_to_json(g: &Graph) -> Json {
    let mut tensors = Vec::with_capacity(g.num_tensors());
    for t in g.tensor_ids() {
        let meta = g.tensor(t);
        let entry = match meta.kind {
            TensorKind::Input => Json::obj(vec![
                ("io", Json::from("input")),
                ("name", Json::from(meta.name.as_str())),
                ("shape", shape_json(&meta.shape)),
            ]),
            TensorKind::Weight => Json::obj(vec![
                ("io", Json::from("weight")),
                ("name", Json::from(meta.name.as_str())),
                ("shape", shape_json(&meta.shape)),
            ]),
            TensorKind::Intermediate => {
                let node = g.node(g.producer(t).expect("intermediate has a producer"));
                let mut n = vec![
                    ("op", Json::from(node.op.as_str())),
                    ("name", Json::from(node.name.as_str())),
                    (
                        "inputs",
                        Json::Arr(node.inputs.iter().map(|&i| Json::from(i.0)).collect()),
                    ),
                ];
                if !node.attrs.is_empty() {
                    n.push(("attrs", attrs_json(&node.attrs)));
                }
                if let Some(tags) = tags_json(&node.tags) {
                    n.push(("tags", tags));
                }
                if !node.control_deps.is_empty() {
                    n.push((
                        "deps",
                        Json::Arr(node.control_deps.iter().map(|&d| Json::from(d.0)).collect()),
                    ));
                }
                Json::obj(vec![
                    ("io", Json::from("op")),
                    ("shape", shape_json(&meta.shape)),
                    ("node", Json::obj(n)),
                ])
            }
        };
        tensors.push(entry);
    }
    let grads: Vec<Json> = g
        .tensor_ids()
        .filter_map(|t| {
            g.tensor(t)
                .grad_of
                .map(|f| Json::Arr(vec![Json::from(t.0), Json::from(f.0)]))
        })
        .collect();
    let mut pairs = vec![("tensors", Json::Arr(tensors))];
    if !grads.is_empty() {
        pairs.push(("grads", Json::Arr(grads)));
    }
    Json::obj(pairs)
}

/// Rebuilds a [`Graph`] from [`graph_to_json`]'s format, re-running shape
/// inference and verifying it reproduces the declared output shapes (so a
/// request built against a different operator registry fails loudly instead
/// of being partitioned under wrong shapes).
pub fn graph_from_json(v: &Json) -> Result<Graph, ProtocolError> {
    let tensors = get_arr(v, "tensors")?;
    let mut g = Graph::new();
    for (idx, entry) in tensors.iter().enumerate() {
        let io = get_str(entry, "io")?;
        let declared = shape_from_json(
            entry.get("shape").ok_or_else(|| bad(format!("tensor {idx} missing shape")))?,
        )?;
        if checked_bytes(&declared).is_none() {
            return Err(bad(format!(
                "tensor {idx}: shape {:?} has more elements or bytes than 64 bits count",
                declared.dims()
            )));
        }
        let made = match io {
            "input" => g.add_input(get_str(entry, "name")?, declared.clone()),
            "weight" => g.add_weight(get_str(entry, "name")?, declared.clone()),
            "op" => {
                let node =
                    entry.get("node").ok_or_else(|| bad(format!("tensor {idx} missing node")))?;
                let op = get_str(node, "op")?;
                let name = get_str(node, "name")?;
                let inputs = get_arr(node, "inputs")?
                    .iter()
                    .map(|i| {
                        let t = usize_item(i, "node input")?;
                        if t >= idx {
                            return Err(bad(format!(
                                "node {name:?} consumes tensor {t} before it exists"
                            )));
                        }
                        Ok(TensorId(t))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let attrs = match node.get("attrs") {
                    Some(a) => attrs_from_json(a)?,
                    None => Attrs::new(),
                };
                let tags = tags_from_json(node.get("tags"), g.num_nodes())?;
                let out = g
                    .add_op_tagged(op, name, &inputs, attrs, tags)
                    .map_err(|e| bad(format!("node {name:?}: {e}")))?;
                if let Some(deps) = node.get("deps") {
                    let after = g.producer(out).expect("just added");
                    for d in deps.as_array().ok_or_else(|| bad("deps is not an array"))? {
                        let before = usize_item(d, "control dep")?;
                        if before >= after.0 {
                            return Err(bad(format!(
                                "node {name:?} control-depends on a later node {before}"
                            )));
                        }
                        g.add_control_dep(after, NodeId(before));
                    }
                }
                out
            }
            other => return Err(bad(format!("tensor {idx} has unknown io {other:?}"))),
        };
        if made.0 != idx {
            return Err(bad(format!("tensor ids diverged at {idx} (got {})", made.0)));
        }
        if g.tensor(made).shape != declared {
            return Err(bad(format!(
                "tensor {idx}: declared shape {:?} but shape inference produced {:?}",
                declared.dims(),
                g.tensor(made).shape.dims()
            )));
        }
    }
    if let Some(grads) = v.get("grads") {
        for pair in grads.as_array().ok_or_else(|| bad("grads is not an array"))? {
            let items = pair.as_array().ok_or_else(|| bad("grad pair is not an array"))?;
            if items.len() != 2 {
                return Err(bad("grad pair must have two elements"));
            }
            let grad = usize_item(&items[0], "grad tensor")?;
            let fwd = usize_item(&items[1], "forward tensor")?;
            if grad >= g.num_tensors() || fwd >= g.num_tensors() {
                return Err(bad("grad pair out of range"));
            }
            g.set_grad_of(TensorId(grad), TensorId(fwd));
        }
    }
    Ok(g)
}

// ---------------------------------------------------------------------------
// Options codec
// ---------------------------------------------------------------------------

/// Decodes `options`: an object holding any of the [`PartitionOptions`]
/// fields but `workers` (which travels at the top level). Absent or `null`
/// — the whole object or one value — means the default. Anything else that
/// is not an object, or an unknown key, is a bad request: serving a
/// default-options plan instead would answer a question the client did not
/// ask.
fn options_from_json(v: &Json, workers: usize) -> Result<PartitionOptions, ProtocolError> {
    let mut opts = PartitionOptions { workers, ..Default::default() };
    let pairs = match v {
        Json::Null => return Ok(opts),
        Json::Obj(pairs) => pairs,
        other => return Err(bad(format!("options is not an object: {}", other.to_json()))),
    };
    for (key, val) in pairs.iter().filter(|(_, val)| val != &Json::Null) {
        let n = || u64_value(val, key);
        match key.as_str() {
            "allow_reduce" => {
                opts.allow_reduce = val.as_bool().ok_or_else(|| bad("allow_reduce is not a bool"))?
            }
            "state_bound" => opts.state_bound = n()? as usize,
            "internal_bound" => opts.internal_bound = n()? as usize,
            "beam" => opts.beam = n()? as usize,
            "fetch_buffer_floor" => opts.fetch_buffer_floor = n()?,
            other => return Err(bad(format!("unknown option {other:?}"))),
        }
    }
    Ok(opts)
}

fn options_json(opts: &PartitionOptions) -> Json {
    Json::obj(vec![
        ("allow_reduce", Json::Bool(opts.allow_reduce)),
        ("state_bound", Json::from(opts.state_bound)),
        ("internal_bound", Json::from(opts.internal_bound)),
        ("beam", Json::from(opts.beam)),
        ("fetch_buffer_floor", Json::from(opts.fetch_buffer_floor)),
    ])
}

// ---------------------------------------------------------------------------
// Request / Response codec
// ---------------------------------------------------------------------------

impl Request {
    /// Parses a request frame's payload.
    pub fn from_bytes(payload: &[u8]) -> Result<Request, ProtocolError> {
        let text = std::str::from_utf8(payload)
            .map_err(|_| ProtocolError::BadJson("payload is not utf-8".into()))?;
        let v = parse(text).map_err(ProtocolError::BadJson)?;
        let ty = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing string field \"type\""))?
            .to_string();
        let id = get_u64(&v, "id")?;
        match ty.as_str() {
            "ping" => Ok(Request::Ping { id }),
            "stats" => Ok(Request::Stats { id }),
            "lookup" => Ok(Request::Lookup {
                id,
                fingerprint: fingerprint_from_hex(get_str(&v, "fingerprint")?)?,
                deadline_ms: opt_u64(&v, "deadline_ms")?,
            }),
            "partition" => {
                let tenant = get_str(&v, "tenant")?.to_string();
                let workers = get_u64(&v, "workers")? as usize;
                if workers == 0 {
                    return Err(bad("workers must be >= 1"));
                }
                let options =
                    options_from_json(v.get("options").unwrap_or(&Json::Null), workers)?;
                let deadline_ms = opt_u64(&v, "deadline_ms")?;
                let graph = graph_from_json(
                    v.get("graph").ok_or_else(|| bad("missing field \"graph\""))?,
                )?;
                Ok(Request::Partition {
                    id,
                    req: Box::new(PartitionRequest { tenant, graph, options, deadline_ms }),
                })
            }
            other => Err(ProtocolError::UnknownType(other.to_string())),
        }
    }

    /// Serializes the request to a frame payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let v = match self {
            Request::Ping { id } => {
                Json::obj(vec![("type", Json::from("ping")), ("id", Json::from(*id))])
            }
            Request::Stats { id } => {
                Json::obj(vec![("type", Json::from("stats")), ("id", Json::from(*id))])
            }
            Request::Lookup { id, fingerprint, deadline_ms } => {
                let mut pairs = vec![
                    ("type", Json::from("lookup")),
                    ("id", Json::from(*id)),
                    ("fingerprint", Json::from(fingerprint_hex(*fingerprint))),
                ];
                if let Some(ms) = deadline_ms {
                    pairs.push(("deadline_ms", Json::from(*ms)));
                }
                Json::obj(pairs)
            }
            Request::Partition { id, req } => {
                return encode_partition(*id, &req.tenant, &req.graph, &req.options, req.deadline_ms)
            }
        };
        v.to_json().into_bytes()
    }
}

/// Encodes a partition-request payload from borrowed parts (the client's hot
/// path: no graph clone). Byte-identical to
/// `Request::Partition{..}.to_bytes()`.
pub fn encode_partition(
    id: u64,
    tenant: &str,
    graph: &Graph,
    options: &PartitionOptions,
    deadline_ms: Option<u64>,
) -> Vec<u8> {
    let mut pairs = vec![
        ("type", Json::from("partition")),
        ("id", Json::from(id)),
        ("tenant", Json::from(tenant)),
        ("workers", Json::from(options.workers)),
        ("options", options_json(options)),
    ];
    if let Some(ms) = deadline_ms {
        pairs.push(("deadline_ms", Json::from(ms)));
    }
    pairs.push(("graph", graph_to_json(graph)));
    Json::obj(pairs).to_json().into_bytes()
}

/// Builds a plan-response payload around an already-serialized plan (the
/// server's hot path: answering a cache hit splices the canonical plan text
/// instead of cloning and re-serializing its JSON tree). Byte-identical to
/// `Response::Plan{..}.to_bytes()` — the fingerprint is hex and the plan
/// text is canonical JSON, so no escaping is needed.
pub fn encode_plan_response(id: u64, cached: bool, fingerprint: &str, plan_json: &str) -> Vec<u8> {
    format!(
        "{{\"type\":\"plan\",\"id\":{id},\"cached\":{cached},\
         \"fingerprint\":\"{fingerprint}\",\"plan\":{plan_json}}}"
    )
    .into_bytes()
}

impl Response {
    /// Parses a response frame's payload.
    pub fn from_bytes(payload: &[u8]) -> Result<Response, ProtocolError> {
        let text = std::str::from_utf8(payload)
            .map_err(|_| ProtocolError::BadJson("payload is not utf-8".into()))?;
        let mut v = parse(text).map_err(ProtocolError::BadJson)?;
        let ty = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("response missing \"type\""))?
            .to_string();
        let id = get_u64(&v, "id")?;
        match ty.as_str() {
            "pong" => Ok(Response::Pong { id }),
            "plan" => Ok(Response::Plan {
                id,
                cached: v.get("cached").and_then(Json::as_bool).unwrap_or(false),
                fingerprint: get_str(&v, "fingerprint")?.to_string(),
                // The plan is nearly all of the message: move it out of the
                // parsed envelope, which is dropped right after.
                plan: match &mut v {
                    Json::Obj(pairs) => pairs.iter_mut().find(|(k, _)| k == "plan"),
                    _ => None,
                }
                .map(|(_, plan)| std::mem::replace(plan, Json::Null))
                .ok_or_else(|| bad("plan response missing plan"))?,
            }),
            "error" => {
                let code_str = get_str(&v, "code")?;
                let code = ErrorCode::from_wire(code_str)
                    .ok_or_else(|| bad(format!("unknown error code {code_str:?}")))?;
                Ok(Response::Error {
                    id,
                    code,
                    message: v.get("message").and_then(Json::as_str).unwrap_or("").to_string(),
                })
            }
            "stats" => Ok(Response::Stats { id, body: v }),
            other => Err(ProtocolError::UnknownType(other.to_string())),
        }
    }

    /// Serializes the response to a frame payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let v = match self {
            Response::Pong { id } => {
                Json::obj(vec![("type", Json::from("pong")), ("id", Json::from(*id))])
            }
            Response::Plan { id, cached, fingerprint, plan } => Json::obj(vec![
                ("type", Json::from("plan")),
                ("id", Json::from(*id)),
                ("cached", Json::Bool(*cached)),
                ("fingerprint", Json::from(fingerprint.as_str())),
                ("plan", plan.clone()),
            ]),
            Response::Error { id, code, message } => Json::obj(vec![
                ("type", Json::from("error")),
                ("id", Json::from(*id)),
                ("code", Json::from(code.as_str())),
                ("message", Json::from(message.as_str())),
            ]),
            Response::Stats { id, body } => {
                // `body` already carries type/id when built by the server;
                // rebuild the envelope for robustness.
                let mut pairs = vec![
                    ("type".to_string(), Json::from("stats")),
                    ("id".to_string(), Json::from(*id)),
                ];
                if let Json::Obj(fields) = body {
                    for (k, val) in fields {
                        if k != "type" && k != "id" {
                            pairs.push((k.clone(), val.clone()));
                        }
                    }
                }
                Json::Obj(pairs)
            }
        };
        v.to_json().into_bytes()
    }
}

// ---------------------------------------------------------------------------
// Plan codec (one-way, canonical)
// ---------------------------------------------------------------------------

fn req_json(r: &ConcreteReq) -> Json {
    match r {
        ConcreteReq::Unused => Json::from("unused"),
        ConcreteReq::Replicated => Json::from("replicated"),
        ConcreteReq::Split { dim, halo } => Json::obj(vec![
            ("dim", Json::from(*dim)),
            ("halo", Json::Num(*halo)),
        ]),
    }
}

/// Serializes a [`PartitionPlan`] canonically: bit-identical plans produce
/// byte-identical compact JSON. `search_time` is deliberately excluded — it
/// varies run to run and is not part of the plan's identity.
pub fn plan_to_json(plan: &PartitionPlan) -> Json {
    let steps: Vec<Json> = plan
        .steps
        .iter()
        .map(|s| {
            let choices: Vec<Json> = s
                .plan
                .node_choice
                .iter()
                .map(|c| match c {
                    NodeChoice::Ewise(spec) => {
                        Json::obj(vec![("ewise", Json::from(u64::from(spec.enc())))])
                    }
                    NodeChoice::Strategy(st) => {
                        let out = match st.out {
                            ConcreteOut::Split(d) => Json::from(d),
                            ConcreteOut::Reduce => Json::from("reduce"),
                        };
                        let mut pairs = vec![
                            ("id", Json::from(st.id.as_str())),
                            ("var", Json::from(st.var)),
                            ("var_extent", Json::from(st.var_extent)),
                            ("out", out),
                        ];
                        if let Some(r) = &st.reducer {
                            pairs.push(("reducer", Json::from(format!("{r}"))));
                        }
                        pairs.push(("inputs", Json::Arr(st.inputs.iter().map(req_json).collect())));
                        Json::obj(pairs)
                    }
                })
                .collect();
            Json::obj(vec![
                ("ways", Json::from(s.ways)),
                ("groups_before", Json::from(s.groups_before)),
                ("comm_bytes", Json::Num(s.plan.comm_bytes)),
                (
                    "tensor_spec",
                    Json::Arr(
                        s.plan
                            .tensor_spec
                            .iter()
                            .map(|spec| Json::from(u64::from(spec.enc())))
                            .collect(),
                    ),
                ),
                ("node_choice", Json::Arr(choices)),
            ])
        })
        .collect();
    let tiling: Vec<Json> = plan
        .tiling
        .iter()
        .map(|per_step| {
            Json::Arr(
                per_step
                    .iter()
                    .map(|d| d.map(Json::from).unwrap_or(Json::Null))
                    .collect(),
            )
        })
        .collect();
    Json::obj(vec![
        ("workers", Json::from(plan.workers)),
        ("total_comm_bytes", Json::Num(plan.total_comm_bytes())),
        ("steps", Json::Arr(steps)),
        ("tiling", Json::Arr(tiling)),
    ])
}

/// Formats a fingerprint for the wire (32 hex digits).
pub fn fingerprint_hex(fp: u128) -> String {
    format!("{fp:032x}")
}

/// Inverse of [`fingerprint_hex`]: exactly 32 hex digits, nothing else.
fn fingerprint_from_hex(s: &str) -> Result<u128, ProtocolError> {
    if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(bad("fingerprint is not 32 hex digits"));
    }
    Ok(u128::from_str_radix(s, 16).expect("32 hex digits fit a u128"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"x\":1}").unwrap();
        let mut r = &buf[..];
        let got = read_frame(&mut r, 1024).unwrap().unwrap();
        assert_eq!(got, b"{\"x\":1}");
        assert!(read_frame(&mut r, 1024).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_is_rejected_before_payload() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        let err = read_frame(&mut &buf[..], 1024).unwrap_err();
        assert!(matches!(err, ProtocolError::Oversized { .. }));
    }

    #[test]
    fn truncated_frame_is_typed() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&100u32.to_be_bytes());
        buf.extend_from_slice(b"short");
        let err = read_frame(&mut &buf[..], 1024).unwrap_err();
        assert!(matches!(err, ProtocolError::Truncated { want: 100 }));
    }

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::Overloaded,
            ErrorCode::DeadlineMissed,
            ErrorCode::BadRequest,
            ErrorCode::UnknownType,
            ErrorCode::Oversized,
            ErrorCode::SearchFailed,
            ErrorCode::Internal,
            ErrorCode::ShuttingDown,
            ErrorCode::NotCached,
        ] {
            assert_eq!(ErrorCode::from_wire(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::from_wire("nope"), None);
    }

    #[test]
    fn unknown_request_type_is_typed() {
        let err = Request::from_bytes(br#"{"type":"frobnicate","id":3}"#).unwrap_err();
        assert!(matches!(err, ProtocolError::UnknownType(t) if t == "frobnicate"));
    }

    #[test]
    fn fast_path_encoders_match_struct_codecs() {
        let mut g = Graph::new();
        let x = g.add_input("x", vec![8, 4].into());
        let w = g.add_weight("w", vec![4, 4].into());
        let _ = g
            .add_op("matmul", "y", &[x, w], tofu_graph::Attrs::new())
            .unwrap();
        let opts = PartitionOptions { workers: 4, ..Default::default() };
        for deadline in [None, Some(250u64)] {
            let via_struct = Request::Partition {
                id: 9,
                req: Box::new(PartitionRequest {
                    tenant: "t0".into(),
                    graph: g.clone(),
                    options: opts,
                    deadline_ms: deadline,
                }),
            }
            .to_bytes();
            assert_eq!(via_struct, encode_partition(9, "t0", &g, &opts, deadline));
        }

        let plan_json = "{\"workers\":4,\"steps\":[]}";
        let via_struct = Response::Plan {
            id: 7,
            cached: true,
            fingerprint: "00ff".into(),
            plan: parse(plan_json).unwrap(),
        }
        .to_bytes();
        assert_eq!(via_struct, encode_plan_response(7, true, "00ff", plan_json));
    }

    #[test]
    fn malformed_json_is_typed() {
        assert!(matches!(
            Request::from_bytes(b"{not json"),
            Err(ProtocolError::BadJson(_))
        ));
        assert!(matches!(
            Request::from_bytes(&[0xff, 0xfe]),
            Err(ProtocolError::BadJson(_))
        ));
    }
}
