//! Binary shard and manifest codecs with end-to-end checksums.
//!
//! A durable checkpoint is a set of *shard* blobs (one per tensor, binary)
//! plus one *manifest* blob (checksummed JSON) that names every shard and
//! records its expected size and checksum. The manifest is written last and
//! is the commit point: a checkpoint without a readable, self-consistent
//! manifest does not exist as far as recovery is concerned.
//!
//! Both codecs are designed to fail loudly. Every decode path is
//! bounds-checked and returns a typed [`CodecError`]; no input — truncated,
//! bit-flipped, or adversarial — may cause a panic or an over-allocation.

use std::fmt;

use tofu_obs::json::{parse, Json};
use tofu_tensor::{Shape, Tensor};

/// Magic prefix of the shard binary format (`TFSH` = "Tofu shard").
pub const SHARD_MAGIC: [u8; 4] = *b"TFSH";
/// Current shard/manifest format version.
pub const FORMAT_VERSION: u32 = 1;
/// Upper bound on tensor rank accepted by the decoder. Real graphs use rank
/// ≤ 4; the bound keeps a corrupt header from requesting a huge dims read.
pub const MAX_RANK: u32 = 16;

/// 64-bit FNV-1a over raw bytes — one *byte* per multiply step, the standard
/// function, so it covers headers and JSON text too. The runtime's in-memory
/// `payload_checksum` (`crates/runtime/src/worker.rs`) uses the same offset
/// basis and prime but folds one whole f32 *word* per step: a different
/// function over the same constants, not interchangeable with this one.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Typed decode failure. Every corrupt input maps to exactly one of these;
/// decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the declared structure did (torn write).
    Truncated {
        /// Bytes required to finish the current field.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The magic prefix is not `TFSH`.
    BadMagic,
    /// The format version is newer than this decoder understands.
    UnsupportedVersion(u32),
    /// The declared shape is unusable (rank too large, or volume does not
    /// match the payload length implied by the blob size).
    BadShape(String),
    /// The trailing checksum does not match the bytes that precede it.
    ChecksumMismatch {
        /// Checksum recorded in the blob.
        stored: u64,
        /// Checksum recomputed over the payload actually read.
        actual: u64,
    },
    /// The manifest JSON is unreadable or structurally wrong.
    BadManifest(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { need, have } => {
                write!(f, "truncated: need {need} more bytes, have {have}")
            }
            CodecError::BadMagic => write!(f, "bad magic (not a TFSH shard)"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::BadShape(d) => write!(f, "bad shape: {d}"),
            CodecError::ChecksumMismatch { stored, actual } => {
                write!(f, "checksum mismatch: stored {stored:016x}, actual {actual:016x}")
            }
            CodecError::BadManifest(d) => write!(f, "bad manifest: {d}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Result alias for codec operations.
pub type CodecResult<T> = std::result::Result<T, CodecError>;

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        let have = self.buf.len() - self.pos;
        if have < n {
            return Err(CodecError::Truncated { need: n - have, have });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> CodecResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> CodecResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }
}

/// Encode one tensor shard.
///
/// Layout (all little-endian):
/// `TFSH | version:u32 | tensor:u64 | rank:u32 | dims:u64×rank |
///  payload:f32-bits×volume | fnv1a64 over everything before it:u64`.
pub fn encode_shard(tensor: u64, t: &Tensor) -> Vec<u8> {
    let dims = t.shape().dims();
    let mut out = Vec::with_capacity(4 + 4 + 8 + 4 + 8 * dims.len() + 4 * t.data().len() + 8);
    out.extend_from_slice(&SHARD_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&tensor.to_le_bytes());
    out.extend_from_slice(&(dims.len() as u32).to_le_bytes());
    for &d in dims {
        out.extend_from_slice(&(d as u64).to_le_bytes());
    }
    for &v in t.data() {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Decode one tensor shard, validating magic, version, shape bounds, exact
/// blob length and the trailing checksum. Returns the tensor id recorded in
/// the header alongside the reconstructed tensor.
pub fn decode_shard(bytes: &[u8]) -> CodecResult<(u64, Tensor)> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != SHARD_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let tensor = r.u64()?;
    let rank = r.u32()?;
    if rank > MAX_RANK {
        return Err(CodecError::BadShape(format!("rank {rank} exceeds limit {MAX_RANK}")));
    }
    let mut dims = Vec::with_capacity(rank as usize);
    for _ in 0..rank {
        let d = r.u64()?;
        if d > u32::MAX as u64 {
            return Err(CodecError::BadShape(format!("dimension {d} out of range")));
        }
        dims.push(d as usize);
    }
    // Validate the declared volume against the bytes actually present
    // *before* allocating the payload, so a corrupt header cannot request
    // an absurd allocation.
    let remaining = bytes.len().saturating_sub(r.pos).saturating_sub(8);
    let volume: usize = dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d)).ok_or_else(
        || CodecError::BadShape("volume overflows usize".to_string()),
    )?;
    if volume.checked_mul(4) != Some(remaining) {
        return Err(CodecError::BadShape(format!(
            "volume {volume} does not match the {remaining} payload bytes present"
        )));
    }
    let payload = r.take(volume * 4)?;
    let stored = r.u64()?;
    let actual = fnv1a64(&bytes[..bytes.len() - 8]);
    if stored != actual {
        return Err(CodecError::ChecksumMismatch { stored, actual });
    }
    let mut data = Vec::with_capacity(volume);
    for c in payload.chunks_exact(4) {
        data.push(f32::from_bits(u32::from_le_bytes([c[0], c[1], c[2], c[3]])));
    }
    let t = Tensor::from_vec(Shape::new(dims), data)
        .map_err(|e| CodecError::BadShape(e.to_string()))?;
    Ok((tensor, t))
}

/// One shard as recorded in a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// Tensor id the shard stores.
    pub tensor: u64,
    /// Blob name of the shard.
    pub file: String,
    /// Exact encoded size in bytes.
    pub bytes: u64,
    /// `fnv1a64` over the full encoded shard blob.
    pub checksum: u64,
}

/// A decoded checkpoint manifest: the authoritative record of which shards
/// make up checkpoint `ckpt` and what each must hash to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Format version (currently always [`FORMAT_VERSION`]).
    pub version: u32,
    /// Checkpoint ordinal this manifest commits.
    pub ckpt: u64,
    /// Checkpoint cadence (original steps between barriers) the run used.
    pub every: u64,
    /// Every shard of the checkpoint, sorted by tensor id.
    pub shards: Vec<ShardEntry>,
}

impl Manifest {
    /// Encode to the on-disk form: a first line holding the 16-hex-digit
    /// FNV-1a of the JSON body, then the body itself. Shards are sorted by
    /// tensor id so the encoding is deterministic.
    pub fn encode(&self) -> Vec<u8> {
        let mut shards = self.shards.clone();
        shards.sort_by_key(|s| s.tensor);
        let body = Json::obj(vec![
            ("version", Json::Num(self.version as f64)),
            ("ckpt", Json::Num(self.ckpt as f64)),
            ("every", Json::Num(self.every as f64)),
            (
                "shards",
                Json::Arr(
                    shards
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("tensor", Json::Num(s.tensor as f64)),
                                ("file", Json::Str(s.file.clone())),
                                ("bytes", Json::Num(s.bytes as f64)),
                                ("checksum", Json::Str(format!("{:016x}", s.checksum))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .to_json();
        let mut out = format!("{:016x}\n", fnv1a64(body.as_bytes())).into_bytes();
        out.extend_from_slice(body.as_bytes());
        out
    }

    /// Decode and validate a manifest blob: the leading checksum line must
    /// match the body, and the body must be well-formed JSON with every
    /// required field in range.
    pub fn decode(bytes: &[u8]) -> CodecResult<Manifest> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| CodecError::BadManifest(format!("not utf-8: {e}")))?;
        let (sum_line, body) = text
            .split_once('\n')
            .ok_or_else(|| CodecError::BadManifest("missing checksum line".to_string()))?;
        let stored = u64::from_str_radix(sum_line.trim(), 16)
            .map_err(|_| CodecError::BadManifest("unparseable checksum line".to_string()))?;
        let actual = fnv1a64(body.as_bytes());
        if stored != actual {
            return Err(CodecError::ChecksumMismatch { stored, actual });
        }
        let j = parse(body).map_err(CodecError::BadManifest)?;
        let version = field_u64(&j, "version")? as u32;
        if version != FORMAT_VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        let ckpt = field_u64(&j, "ckpt")?;
        let every = field_u64(&j, "every")?;
        if every == 0 {
            return Err(CodecError::BadManifest("zero cadence".to_string()));
        }
        let arr = j
            .get("shards")
            .and_then(|s| s.as_array())
            .ok_or_else(|| CodecError::BadManifest("missing shards array".to_string()))?;
        let mut shards = Vec::with_capacity(arr.len());
        for s in arr {
            let file = s
                .get("file")
                .and_then(|f| f.as_str())
                .ok_or_else(|| CodecError::BadManifest("shard missing file".to_string()))?
                .to_string();
            let checksum = s
                .get("checksum")
                .and_then(|c| c.as_str())
                .and_then(|c| u64::from_str_radix(c, 16).ok())
                .ok_or_else(|| CodecError::BadManifest("shard missing checksum".to_string()))?;
            shards.push(ShardEntry {
                tensor: field_u64(s, "tensor")?,
                file,
                bytes: field_u64(s, "bytes")?,
                checksum,
            });
        }
        let sorted = shards.windows(2).all(|w| w[0].tensor < w[1].tensor);
        if !sorted {
            return Err(CodecError::BadManifest("shards not sorted by tensor id".to_string()));
        }
        Ok(Manifest { version, ckpt, every, shards })
    }
}

fn field_u64(j: &Json, name: &str) -> CodecResult<u64> {
    let v = j
        .get(name)
        .and_then(|v| v.as_f64())
        .ok_or_else(|| CodecError::BadManifest(format!("missing numeric field {name:?}")))?;
    if !(v.is_finite() && v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64) {
        return Err(CodecError::BadManifest(format!("field {name:?} out of range: {v}")));
    }
    Ok(v as u64)
}

/// Blob name of checkpoint `ckpt`'s manifest.
pub fn manifest_name(ckpt: u64) -> String {
    format!("ckpt-{ckpt:08}.manifest")
}

/// Blob name of the shard storing tensor `tensor` of checkpoint `ckpt`.
pub fn shard_name(ckpt: u64, tensor: u64) -> String {
    format!("ckpt-{ckpt:08}-t{tensor:07}.shard")
}

/// Parse a manifest blob name back to its checkpoint ordinal.
pub fn parse_manifest_name(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?.strip_suffix(".manifest")?.parse().ok()
}

/// Parse a shard blob name back to its checkpoint ordinal.
pub fn parse_shard_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("ckpt-")?.strip_suffix(".shard")?;
    let (ckpt, _tensor) = rest.split_once("-t")?;
    ckpt.parse().ok()
}
