//! Checkpoint/restore plumbing: the stable `updown-snapshot/v2` on-disk
//! format, the field codec layer used to serialize per-thread software
//! state across processes, and the [`ReplayCheck`] gate for the
//! record-replay verifier.
//!
//! # Two snapshot tiers
//!
//! The engine offers two snapshot representations with different fidelity
//! (see `docs/checkpoint.md`):
//!
//! - **In-memory [`crate::Snapshot`]** — a full deep copy of the simulator
//!   state, including the observability buffers (trace events, print log,
//!   phase spans) and the probe/race recordings. Restoring one rewinds the
//!   engine *exactly*; `MachineConfig::checkpoint_every` uses it for its
//!   round-trip self-check at every boundary.
//! - **On-disk `updown-snapshot/v2`** — the *functional* machine state
//!   (calendars, arenas, lane slabs + scratchpads, DRAM banks, channel /
//!   NIC / fabric occupancy, counters), written with the compact binary
//!   encoding in this module and framed by a `sim::json` header. It
//!   deliberately excludes observability buffers and probe/race clocks:
//!   a restoring process re-drives the same deterministic workload and
//!   reproduces those byte-identically up to the checkpoint window, then
//!   swaps in the decoded machine state (see `Engine::run`).
//!
//! # File framing
//!
//! ```text
//! magic  "UDSNAPv1\n"                     (9 bytes)
//! u32    header length                    (little-endian)
//! bytes  JSON header                      (schema, machine shape, window)
//! u64    body length
//! bytes  binary body                      (see engine/codec.rs)
//! u64    FNV-1a hash of the body
//! ```
//!
//! Every multi-byte integer in the binary body is little-endian. Decoding
//! is bounds-checked end to end: a truncated or corrupted file yields a
//! clean [`SnapshotError`], never a panic.

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::json::{JsonValue, JsonWriter};

/// Magic bytes opening every snapshot file. Names the *framing* (magic,
/// JSON header, body, checksum), which is the same for every schema so far.
pub const SNAP_MAGIC: &[u8] = b"UDSNAPv1\n";

/// Schema string recorded in the JSON header. `v2` renumbered the pending
/// ids the body carries (a lane's run entry is the lane's id and owns no
/// slab slot) and lists them `u32::MAX`-terminated; a `v1` file is refused
/// with [`SnapshotError::Incompatible`] rather than reinterpreted.
pub const SNAP_SCHEMA: &str = "updown-snapshot/v2";

/// Errors from snapshot encode/decode. Decoding a corrupted or truncated
/// snapshot always surfaces here — the decoder never panics.
#[derive(Debug)]
pub enum SnapshotError {
    /// Structurally invalid bytes: bad magic, truncation, checksum
    /// mismatch, or an inconsistent section.
    Format(String),
    /// A well-formed snapshot of a *different* machine (node/lane shape
    /// or allocation table mismatch).
    Incompatible(String),
    /// A live software thread state whose type has no registered
    /// [`SnapState`] codec (see `Engine::register_state_codec`).
    UnencodableState(String),
    /// Filesystem failure while reading or writing a snapshot file.
    Io(std::io::Error),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Format(s) => write!(f, "invalid snapshot: {s}"),
            SnapshotError::Incompatible(s) => write!(f, "incompatible snapshot: {s}"),
            SnapshotError::UnencodableState(s) => {
                write!(f, "thread state has no snapshot codec: {s}")
            }
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

/// FNV-1a over the body bytes — the checksum that closes a snapshot file:
/// cheap, deterministic, dependency-free. It is also the hash every pinned
/// document, trace and table in the tests is compared by.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Little-endian append-only encoder for the snapshot body.
#[derive(Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed bytes that `fill` writes in place, for a caller
    /// that does not hold them in one slice.
    pub(crate) fn bytes_with(&mut self, len: usize, fill: impl FnOnce(&mut [u8])) {
        self.u64(len as u64);
        let at = self.buf.len();
        self.buf.resize(at + len, 0);
        fill(&mut self.buf[at..]);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Bounds-checked little-endian decoder over a snapshot body. Every read
/// returns `Err(SnapshotError::Format)` past the end of the buffer.
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn need(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Format(format!(
                "truncated: needed {n} bytes at offset {}, only {} left",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.need(1)?[0])
    }

    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Format(format!("bad bool byte {b:#x}"))),
        }
    }

    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.need(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.need(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.need(8)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Format(format!("length {v} overflows usize")))
    }

    /// A length used to pre-size a collection: bounds-checked against the
    /// bytes actually remaining so a corrupted length can't over-allocate.
    pub fn len(&mut self, elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.usize()?;
        if n.saturating_mul(elem_bytes.max(1)) > self.remaining() {
            return Err(SnapshotError::Format(format!(
                "corrupt length {n} (x{elem_bytes}B) exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.len(1)?;
        self.need(n)
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, SnapshotError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|e| SnapshotError::Format(format!("bad utf-8 string: {e}")))
    }

    /// Fail unless the whole buffer was consumed (trailing-garbage check).
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Format(format!(
                "{} trailing bytes after snapshot body",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// A field value encodable into a snapshot body. Implemented for the
/// primitive word types, `Option`, `Vec`, fixed arrays, and the simulator
/// id types; application crates add their own nested structs with
/// [`crate::snap_fields!`].
pub trait SnapField: Sized {
    fn put(&self, w: &mut SnapWriter);
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError>;
}

macro_rules! prim_field {
    ($ty:ty, $put:ident, $take:ident) => {
        impl SnapField for $ty {
            fn put(&self, w: &mut SnapWriter) {
                w.$put(*self);
            }
            fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
                r.$take()
            }
        }
    };
}

prim_field!(u8, u8, u8);
prim_field!(u16, u16, u16);
prim_field!(u32, u32, u32);
prim_field!(u64, u64, u64);
prim_field!(f64, f64, f64);
prim_field!(bool, bool, bool);
prim_field!(usize, usize, usize);

impl SnapField for String {
    fn put(&self, w: &mut SnapWriter) {
        w.str(self);
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(r.str()?.to_string())
    }
}

impl<T: SnapField> SnapField for Option<T> {
    fn put(&self, w: &mut SnapWriter) {
        match self {
            None => w.bool(false),
            Some(v) => {
                w.bool(true);
                v.put(w);
            }
        }
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(if r.bool()? { Some(T::take(r)?) } else { None })
    }
}

impl<T: SnapField> SnapField for Vec<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.put(w);
        }
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.len(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::take(r)?);
        }
        Ok(out)
    }
}

impl<T: SnapField, const N: usize> SnapField for [T; N] {
    fn put(&self, w: &mut SnapWriter) {
        for v in self {
            v.put(w);
        }
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::take(r)?);
        }
        out.try_into()
            .map_err(|_| SnapshotError::Format("array length".into()))
    }
}

impl<T: SnapField> SnapField for std::collections::VecDeque<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.put(w);
        }
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.len(1)?;
        let mut out = std::collections::VecDeque::with_capacity(n);
        for _ in 0..n {
            out.push_back(T::take(r)?);
        }
        Ok(out)
    }
}

impl<K: SnapField + Ord, V: SnapField> SnapField for std::collections::BTreeMap<K, V> {
    fn put(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for (k, v) in self {
            k.put(w);
            v.put(w);
        }
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.len(2)?;
        let mut out = std::collections::BTreeMap::new();
        for _ in 0..n {
            let k = K::take(r)?;
            let v = V::take(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl SnapField for crate::memory::VAddr {
    fn put(&self, w: &mut SnapWriter) {
        w.u64(self.0);
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(crate::memory::VAddr(r.u64()?))
    }
}

impl SnapField for crate::ids::NetworkId {
    fn put(&self, w: &mut SnapWriter) {
        w.u32(self.0);
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(crate::ids::NetworkId(r.u32()?))
    }
}

impl SnapField for crate::ids::EventLabel {
    fn put(&self, w: &mut SnapWriter) {
        w.u16(self.0);
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(crate::ids::EventLabel(r.u16()?))
    }
}

impl SnapField for crate::ids::ThreadId {
    fn put(&self, w: &mut SnapWriter) {
        w.u16(self.0);
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(crate::ids::ThreadId(r.u16()?))
    }
}

impl SnapField for crate::ids::EventWord {
    fn put(&self, w: &mut SnapWriter) {
        w.u64(self.raw());
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(crate::ids::EventWord::from_raw(r.u64()?))
    }
}

/// A software thread state serializable across processes. A typed event
/// (`udweave::ThreadType::event`, `udweave::event`) registers its state's
/// codec; a handler registered raw that keeps its state with
/// `EventCtx::state_mut` registers it with
/// `Engine::register_state_codec::<T>()`. Live thread states of
/// unregistered types make `Engine::snapshot_bytes` fail with a clean
/// [`SnapshotError::UnencodableState`] naming the type.
///
/// `KEY` must be unique and stable across versions — it is the on-disk
/// name of the codec.
pub trait SnapState: Send + Clone + Default + 'static {
    const KEY: &'static str;
    fn save(&self, w: &mut SnapWriter);
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError>;
}

/// A bare `u64` counter is a common thread state in tests and simple
/// kernels; the engine registers this codec by default.
impl SnapState for u64 {
    const KEY: &'static str = "sim.u64";
    fn save(&self, w: &mut SnapWriter) {
        w.u64(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        r.u64()
    }
}

/// Implement [`SnapState`] for a named-field struct by listing **all** of
/// its fields (the generated `load` constructs the struct literally, so a
/// missed field is a compile error):
///
/// ```ignore
/// snap_state!(MasterState, "kvmsr.master", { job, keys, emitted, cont_raw });
/// ```
#[macro_export]
macro_rules! snap_state {
    ($ty:ty, $key:literal, { $($f:ident),* $(,)? }) => {
        impl $crate::snapshot::SnapState for $ty {
            const KEY: &'static str = $key;
            fn save(&self, w: &mut $crate::snapshot::SnapWriter) {
                $($crate::snapshot::SnapField::put(&self.$f, w);)*
            }
            fn load(
                r: &mut $crate::snapshot::SnapReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                Ok(Self { $($f: $crate::snapshot::SnapField::take(r)?),* })
            }
        }
    };
}

/// Implement [`SnapField`] for a nested named-field struct, listing all
/// fields, so it can appear inside a [`snap_state!`] state:
///
/// ```ignore
/// snap_fields!(KeyRange, { start, end });
/// ```
#[macro_export]
macro_rules! snap_fields {
    ($ty:ty, { $($f:ident),* $(,)? }) => {
        impl $crate::snapshot::SnapField for $ty {
            fn put(&self, w: &mut $crate::snapshot::SnapWriter) {
                $($crate::snapshot::SnapField::put(&self.$f, w);)*
            }
            fn take(
                r: &mut $crate::snapshot::SnapReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                Ok(Self { $($f: $crate::snapshot::SnapField::take(r)?),* })
            }
        }
    };
}

/// Parsed JSON header of a snapshot file: schema, machine shape, and the
/// absolute window count at which the snapshot was taken.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapHeader {
    pub nodes: u32,
    pub accels_per_node: u32,
    pub lanes_per_accel: u32,
    /// `Engine::windows` at snapshot time — the boundary at which a
    /// re-driving process swaps the decoded state in.
    pub window: u64,
    /// Events executed up to the snapshot (informational).
    pub events: u64,
}

impl SnapHeader {
    fn to_json(&self, body_len: usize) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("schema").string(SNAP_SCHEMA);
        w.key("nodes").u64(self.nodes as u64);
        w.key("accels_per_node").u64(self.accels_per_node as u64);
        w.key("lanes_per_accel").u64(self.lanes_per_accel as u64);
        w.key("window").u64(self.window);
        w.key("events").u64(self.events);
        w.key("body_bytes").u64(body_len as u64);
        w.end_obj();
        w.finish()
    }

    fn from_json(s: &str) -> Result<SnapHeader, SnapshotError> {
        let v = JsonValue::parse(s)
            .map_err(|e| SnapshotError::Format(format!("bad header json: {e}")))?;
        let schema = v.get("schema").and_then(|x| x.as_str()).unwrap_or("");
        if schema != SNAP_SCHEMA {
            return Err(SnapshotError::Incompatible(format!(
                "schema {schema:?}, expected {SNAP_SCHEMA:?}"
            )));
        }
        let field = |k: &str| -> Result<u64, SnapshotError> {
            v.get(k)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| SnapshotError::Format(format!("header missing {k:?}")))
        };
        Ok(SnapHeader {
            nodes: field("nodes")? as u32,
            accels_per_node: field("accels_per_node")? as u32,
            lanes_per_accel: field("lanes_per_accel")? as u32,
            window: field("window")?,
            events: field("events")?,
        })
    }
}

/// Frame a header + body into the full `updown-snapshot/v2` byte stream.
pub(crate) fn frame(header: &SnapHeader, body: &[u8]) -> Vec<u8> {
    let hj = header.to_json(body.len());
    let mut out = Vec::with_capacity(SNAP_MAGIC.len() + hj.len() + body.len() + 24);
    out.extend_from_slice(SNAP_MAGIC);
    out.extend_from_slice(&(hj.len() as u32).to_le_bytes());
    out.extend_from_slice(hj.as_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&fnv1a(body).to_le_bytes());
    out
}

/// Split a full snapshot byte stream into its header and verified body.
pub(crate) fn unframe(bytes: &[u8]) -> Result<(SnapHeader, &[u8]), SnapshotError> {
    let mut r = SnapReader::new(bytes);
    let magic = r.need(SNAP_MAGIC.len())?;
    if magic != SNAP_MAGIC {
        return Err(SnapshotError::Format(
        "bad magic (not an updown-snapshot/v2 file)".into(),
        ));
    }
    let hlen = r.u32()? as usize;
    let hbytes = r.need(hlen)?;
    let hjson = std::str::from_utf8(hbytes)
        .map_err(|e| SnapshotError::Format(format!("header not utf-8: {e}")))?;
    let header = SnapHeader::from_json(hjson)?;
    let blen = r.usize()?;
    let body = r.need(blen)?;
    let want = r.u64()?;
    r.finish()?;
    let got = fnv1a(body);
    if got != want {
        return Err(SnapshotError::Format(format!(
            "body checksum mismatch: computed {got:#018x}, stored {want:#018x}"
        )));
    }
    Ok((header, body))
}

/// Parse only the header of a snapshot file — used by CLI frontends to
/// validate a `--restore` argument up front with a clean error.
pub fn read_header(path: &std::path::Path) -> Result<SnapHeader, SnapshotError> {
    let bytes = std::fs::read(path)?;
    Ok(unframe(&bytes)?.0)
}

/// Verdict on one recorded scheduler invocation (a run, or the part of
/// one between checkpoint pauses): every shard was replayed in isolation
/// against the recorded cross-shard schedule and its execution stream
/// compared to the recording.
#[derive(Clone, Debug, Default)]
pub struct ReplayRunReport {
    pub shards: u32,
    /// Conservative windows in the recording.
    pub rounds: u64,
    /// Events executed in the recording, summed over shards.
    pub events: u64,
    /// Human-readable divergence descriptions, each naming its shard and
    /// the recording's window range; empty when every shard replayed
    /// byte-identically.
    pub mismatches: Vec<String>,
}

impl ReplayRunReport {
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

#[derive(Default)]
struct ReplayInner {
    runs: Vec<ReplayRunReport>,
}

/// Shared handle gating record-replay verification (`--replay` on
/// `repro`), in the same shape as
/// [`ProtocolProbe`](crate::ProtocolProbe): keep one clone, put another in
/// [`MachineConfig::replay`](crate::MachineConfig). `Engine::run` records
/// every scheduler invocation, replays each shard of it alone before it
/// goes on, and pushes one verdict here per invocation.
#[derive(Clone, Default)]
pub struct ReplayCheck {
    inner: Arc<Mutex<ReplayInner>>,
}

impl fmt::Debug for ReplayCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ReplayCheck")
    }
}

impl ReplayCheck {
    pub fn new() -> ReplayCheck {
        ReplayCheck::default()
    }

    pub(crate) fn push_run(&self, report: ReplayRunReport) {
        self.inner.lock().unwrap().runs.push(report);
    }

    /// All verdicts accumulated so far, in verification order.
    pub fn reports(&self) -> Vec<ReplayRunReport> {
        self.inner.lock().unwrap().runs.clone()
    }

    /// True when any verified run diverged on replay.
    pub fn dirty(&self) -> bool {
        self.inner.lock().unwrap().runs.iter().any(|r| !r.ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.bool(true);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(0.85);
        w.str("hello");
        w.bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap(), 0.85);
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_error_cleanly() {
        let mut w = SnapWriter::new();
        w.u32(5);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..2]);
        assert!(matches!(r.u32(), Err(SnapshotError::Format(_))));
        // A corrupt huge length must not over-allocate.
        let mut w = SnapWriter::new();
        w.u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.bytes(), Err(SnapshotError::Format(_))));
    }

    #[test]
    fn field_codecs_roundtrip() {
        let mut w = SnapWriter::new();
        Some(42u64).put(&mut w);
        Option::<u64>::None.put(&mut w);
        vec![1u32, 2, 3].put(&mut w);
        [7u64, 8].put(&mut w);
        crate::memory::VAddr(0x1234).put(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(<Option<u64> as SnapField>::take(&mut r).unwrap(), Some(42));
        assert_eq!(<Option<u64> as SnapField>::take(&mut r).unwrap(), None);
        assert_eq!(Vec::<u32>::take(&mut r).unwrap(), vec![1, 2, 3]);
        assert_eq!(<[u64; 2]>::take(&mut r).unwrap(), [7, 8]);
        assert_eq!(
            crate::memory::VAddr::take(&mut r).unwrap(),
            crate::memory::VAddr(0x1234)
        );
        r.finish().unwrap();
    }

    #[test]
    fn frame_unframe_roundtrip_and_corruption() {
        let h = SnapHeader {
            nodes: 4,
            accels_per_node: 2,
            lanes_per_accel: 8,
            window: 17,
            events: 12345,
        };
        let body = vec![9u8; 100];
        let framed = frame(&h, &body);
        let (h2, b2) = unframe(&framed).unwrap();
        assert_eq!(h, h2);
        assert_eq!(b2, &body[..]);

        // Bad magic.
        let mut bad = framed.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(unframe(&bad), Err(SnapshotError::Format(_))));
        // Truncated file.
        assert!(matches!(
            unframe(&framed[..framed.len() - 9]),
            Err(SnapshotError::Format(_))
        ));
        // Flipped body byte trips the checksum.
        let mut bad = framed.clone();
        let last_body_byte = bad.len() - 8 - 1; // body is followed by the u64 hash
        bad[last_body_byte] ^= 1;
        assert!(matches!(unframe(&bad), Err(SnapshotError::Format(_))));
    }

    #[test]
    fn header_schema_checked() {
        assert!(matches!(
            SnapHeader::from_json("{\"schema\":\"other/v9\"}"),
            Err(SnapshotError::Incompatible(_))
        ));
        assert!(matches!(
            SnapHeader::from_json("not json"),
            Err(SnapshotError::Format(_))
        ));
    }

    #[test]
    fn replay_check_accumulates() {
        let rc = ReplayCheck::new();
        assert!(!rc.dirty());
        rc.push_run(ReplayRunReport {
            shards: 2,
            rounds: 10,
            events: 100,
            mismatches: vec![],
        });
        assert!(!rc.dirty());
        rc.push_run(ReplayRunReport {
            shards: 2,
            rounds: 3,
            events: 7,
            mismatches: vec!["shard 1 diverged".into()],
        });
        assert!(rc.dirty());
        assert_eq!(rc.reports().len(), 2);
    }
}
