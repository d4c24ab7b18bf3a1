//! Crash-safe persistence primitives: atomic writes, a checksummed
//! container format, a tiny binary codec, and a cross-process advisory
//! lock.
//!
//! Everything the tool persists to disk goes through this module so the
//! same guarantees hold everywhere:
//!
//! - **Atomic visibility** ([`atomic_write`]): bytes are written to a
//!   temporary file *in the target directory*, fsync'd, and renamed over
//!   the destination, then the directory is fsync'd. A reader (or a crash
//!   at any instant) observes either the complete old file or the complete
//!   new file, never a half-written one.
//! - **Self-describing integrity** ([`write_container_addressed`] /
//!   [`read_container`]): every persisted artifact carries a magic number,
//!   a format version, a kind tag, a caller-supplied fingerprint
//!   (toolchain and options), the payload length, and a trailing FNV-1a checksum over
//!   the whole preceding byte stream. Any torn write, truncation, bit
//!   flip, version skew, or foreign file fails validation with a typed
//!   [`ContainerError`] — never a panic, never silently-wrong data. The
//!   writer also returns the content address (FNV-1a of the whole
//!   container) from the same pass that computes the footer; stores that
//!   name files by content check it with [`read_container_addressed`].
//! - **Cross-process exclusion** ([`DirLock`]): an advisory lock file with
//!   the owner's pid, stale-lock detection (dead owner ⇒ takeover), and
//!   bounded waiting, so concurrent invocations sharing a cache directory
//!   serialize their load/store critical sections.
//!
//! Under the `fault-injection` cargo feature the write path
//! ([`atomic_write`]) and the read path ([`read_file_raw`]) host armable
//! faultpoints (see [`faultpoint`]) simulating
//! torn writes, short reads, and bit flips; the crash-consistency tests in
//! `crates/core/tests/session_persist.rs` kill the writer at every one of
//! them and assert the cache stays loadable.

use crate::error::{Error, Result};
use crate::faultpoint;
use crate::hash::{fnv1a, StableHasher};
use std::collections::BTreeSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Magic bytes opening every container file.
pub const MAGIC: &[u8; 8] = b"ARAAPRS\0";

/// Current container format version. Bump on any layout change; readers
/// reject other versions (the cache then quarantines and recomputes).
/// Version 2: `RgnRow` entries carry a per-row source-line range.
/// Version 3: access records carry `precision`/`via_index`, summaries carry
/// index-array facts.
/// Version 4: index-array facts carry `init_end_pos` (the flow gate for
/// same-procedure consumers).
/// Version 5: session entries drop the propagated summary (re-derived on
/// load) and the session manifest drops the recursion-cut flag.
pub const FORMAT_VERSION: u32 = 5;

/// Write-path faultpoints registered inside [`atomic_write`] and the
/// store layers above it, in the order they fire. CI arms each one in turn
/// against the cache round-trip test.
pub const WRITE_FAULTPOINTS: &[&str] = &[
    "persist::torn_write",
    "persist::pre_sync",
    "persist::pre_rename",
    "persist::post_rename",
];

/// Read-path faultpoints applied by [`read_file_raw`] to the in-memory
/// buffer *before* validation — proving the checksum catches short reads
/// and bit flips.
pub const READ_FAULTPOINTS: &[&str] = &["persist::short_read", "persist::bit_flip"];

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

/// Append-only byte buffer with typed little-endian writers — the encoding
/// half of the persistence codec.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian two's complement.
    pub fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a `usize` widened to 64 bits.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }
}

/// Bounds-checked cursor over encoded bytes — the decoding half of the
/// codec. Every read returns a typed [`Error::Format`] on truncation or
/// malformed data; nothing here panics on hostile input.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn truncated(&self, what: &str) -> Error {
        Error::Format(format!(
            "truncated persisted data: wanted {what} at byte {}, {} left",
            self.pos,
            self.remaining()
        ))
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.truncated(&format!("{n} bytes")));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool, rejecting anything but 0/1.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(Error::Format(format!("invalid bool byte {other}"))),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(i64::from_le_bytes(a))
    }

    /// Reads a `usize`, rejecting values beyond the remaining buffer when
    /// used as a length (callers combine with [`take`](Self::take)).
    pub fn usize(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| Error::Format(format!("length {v} overflows usize")))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let len = self.usize()?;
        if len > self.remaining() {
            return Err(self.truncated(&format!("string of {len} bytes")));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::Format("persisted string is not UTF-8".to_string()))
    }

    /// Errors unless every byte was consumed — trailing garbage means the
    /// payload does not match the format that was claimed for it.
    pub fn finish(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(Error::Format(format!(
                "{} trailing bytes after persisted payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Types that can round-trip through the persistence codec. Implementations
/// must be total on the encode side and return [`Error::Format`] (never
/// panic) on any malformed decode input.
pub trait Persist: Sized {
    /// Encodes `self` onto `w`.
    fn save(&self, w: &mut ByteWriter);
    /// Decodes one value from `r`.
    fn load(r: &mut ByteReader<'_>) -> Result<Self>;
}

impl Persist for u64 {
    fn save(&self, w: &mut ByteWriter) {
        w.u64(*self);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        r.u64()
    }
}

impl Persist for i64 {
    fn save(&self, w: &mut ByteWriter) {
        w.i64(*self);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        r.i64()
    }
}

impl Persist for u32 {
    fn save(&self, w: &mut ByteWriter) {
        w.u32(*self);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        r.u32()
    }
}

impl Persist for u8 {
    fn save(&self, w: &mut ByteWriter) {
        w.u8(*self);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        r.u8()
    }
}

impl Persist for bool {
    fn save(&self, w: &mut ByteWriter) {
        w.bool(*self);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        r.bool()
    }
}

impl Persist for String {
    fn save(&self, w: &mut ByteWriter) {
        w.str(self);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        r.str()
    }
}

impl<T: Persist> Persist for Option<T> {
    fn save(&self, w: &mut ByteWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            other => Err(Error::Format(format!("invalid Option tag {other}"))),
        }
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn save(&self, w: &mut ByteWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        let len = r.usize()?;
        // Pre-size conservatively: a corrupt length must not OOM before the
        // per-element reads run out of bytes.
        let mut out = Vec::with_capacity(len.min(r.remaining().max(1)));
        for _ in 0..len {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn save(&self, w: &mut ByteWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

// ---------------------------------------------------------------------------
// Container format
// ---------------------------------------------------------------------------

/// Why a container failed validation. Stores use the variant to pick a
/// quarantine suffix and a degradation message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    /// The file is too short to hold even the fixed header + footer.
    Truncated,
    /// The magic bytes are wrong — not one of our files.
    BadMagic,
    /// A different (older/newer) format version.
    BadVersion(u32),
    /// A container of a different kind (e.g. a proc entry where the
    /// manifest was expected).
    BadKind(String),
    /// Written by a different toolchain version or with different analysis
    /// options.
    BadFingerprint { expected: u64, found: u64 },
    /// The checksum over the byte stream does not match the footer.
    BadChecksum,
    /// The container's FNV-1a over all of its bytes differs from the content
    /// address recorded for it (see [`read_container_addressed`]).
    BadAddress,
    /// Structurally invalid header fields.
    Malformed(String),
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainerError::Truncated => write!(f, "truncated container"),
            ContainerError::BadMagic => write!(f, "bad magic (not an ARAA container)"),
            ContainerError::BadVersion(v) => {
                write!(f, "unsupported container version {v} (want {FORMAT_VERSION})")
            }
            ContainerError::BadKind(k) => write!(f, "unexpected container kind `{k}`"),
            ContainerError::BadFingerprint { expected, found } => write!(
                f,
                "toolchain/options fingerprint mismatch (want {expected:016x}, found {found:016x})"
            ),
            ContainerError::BadChecksum => write!(f, "checksum mismatch (corrupt container)"),
            ContainerError::BadAddress => {
                write!(f, "contents do not match their recorded content address")
            }
            ContainerError::Malformed(m) => write!(f, "malformed container: {m}"),
        }
    }
}

impl From<ContainerError> for Error {
    fn from(e: ContainerError) -> Error {
        Error::Format(e.to_string())
    }
}

/// A short quarantine-file suffix naming the failure class.
pub fn quarantine_suffix(e: &ContainerError) -> &'static str {
    match e {
        ContainerError::Truncated => "truncated",
        ContainerError::BadMagic => "badmagic",
        ContainerError::BadVersion(_) => "version",
        ContainerError::BadKind(_) => "kind",
        ContainerError::BadFingerprint { .. } => "fingerprint",
        ContainerError::BadChecksum | ContainerError::BadAddress => "checksum",
        ContainerError::Malformed(_) => "malformed",
    }
}

/// Fixed container overhead: magic(8) + version(4) + kind len(8) + fp(8) +
/// payload len(8) + checksum(8).
const MIN_CONTAINER_LEN: usize = 44;

/// Wraps `payload` in the versioned, checksummed container format —
/// magic, version, kind, fingerprint, length, payload, FNV-1a footer —
/// and returns it with its content address: `fnv1a` over all of its
/// bytes, footer included. FNV-1a streams, so the footer's hasher
/// continued over the 8 footer bytes is that address and every byte is
/// hashed once.
pub fn write_container_addressed(kind: &str, fingerprint: u64, payload: &[u8]) -> (Vec<u8>, u64) {
    let mut w = ByteWriter::new();
    w.bytes(MAGIC);
    w.u32(FORMAT_VERSION);
    w.str(kind);
    w.u64(fingerprint);
    w.usize(payload.len());
    w.bytes(payload);
    let mut h = StableHasher::new();
    h.write_bytes(&w.buf);
    let checksum = h.finish();
    w.u64(checksum);
    h.write_u64(checksum);
    (w.into_bytes(), h.finish())
}

/// The footer-checked body (everything before the checksum) of a
/// container whose byte stream FNV-1a-hashes to `body_sum`.
fn checked_body(bytes: &[u8], body_sum: u64) -> std::result::Result<&[u8], ContainerError> {
    if bytes.len() < MIN_CONTAINER_LEN {
        return Err(ContainerError::Truncated);
    }
    let (body, footer) = bytes.split_at(bytes.len() - 8);
    let mut fb = [0u8; 8];
    fb.copy_from_slice(footer);
    if body_sum != u64::from_le_bytes(fb) {
        return Err(ContainerError::BadChecksum);
    }
    Ok(body)
}

/// Parses a footer-checked body: magic, version, kind, fingerprint and
/// payload length, in that order. Returns `(kind, fingerprint, payload)`.
fn parse_body(body: &[u8]) -> std::result::Result<(String, u64, &[u8]), ContainerError> {
    let mut r = ByteReader::new(body);
    let magic = r.take(8).map_err(|_| ContainerError::Truncated)?;
    if magic != MAGIC {
        return Err(ContainerError::BadMagic);
    }
    let version = r.u32().map_err(|_| ContainerError::Truncated)?;
    if version != FORMAT_VERSION {
        return Err(ContainerError::BadVersion(version));
    }
    let found_kind = r
        .str()
        .map_err(|e| ContainerError::Malformed(e.to_string()))?;
    let found_fp = r.u64().map_err(|_| ContainerError::Truncated)?;
    let len = r
        .usize()
        .map_err(|e| ContainerError::Malformed(e.to_string()))?;
    if len != r.remaining() {
        return Err(ContainerError::Malformed(format!(
            "payload length {len} disagrees with container size {}",
            r.remaining()
        )));
    }
    let payload = r
        .take(len)
        .map_err(|_| ContainerError::Truncated)?;
    Ok((found_kind, found_fp, payload))
}

/// The kind and fingerprint checks [`read_container`] applies after
/// structural validation.
fn expect_kind_and_fingerprint(
    found_kind: String,
    found_fp: u64,
    kind: &str,
    fingerprint: u64,
) -> std::result::Result<(), ContainerError> {
    if found_kind != kind {
        return Err(ContainerError::BadKind(found_kind));
    }
    if found_fp != fingerprint {
        return Err(ContainerError::BadFingerprint { expected: fingerprint, found: found_fp });
    }
    Ok(())
}

/// Validates a container's structural integrity — minimum length, trailing
/// checksum, magic, version, payload length — and returns its `(kind,
/// fingerprint, payload)` *without* checking kind or fingerprint. The tool
/// for inspection paths (`dragon cache verify`) that must classify any
/// valid container regardless of who wrote it.
pub fn read_container_loose(
    bytes: &[u8],
) -> std::result::Result<(String, u64, Vec<u8>), ContainerError> {
    let body_sum = fnv1a(&bytes[..bytes.len().saturating_sub(8)]);
    let (kind, fp, payload) = parse_body(checked_body(bytes, body_sum)?)?;
    Ok((kind, fp, payload.to_vec()))
}

/// Validates a container byte-for-byte and returns its payload. Checks, in
/// order: minimum length, the trailing checksum over everything before the
/// footer, magic, version, kind, fingerprint, and payload length.
pub fn read_container(
    bytes: &[u8],
    kind: &str,
    fingerprint: u64,
) -> std::result::Result<Vec<u8>, ContainerError> {
    let (found_kind, found_fp, payload) = read_container_loose(bytes)?;
    expect_kind_and_fingerprint(found_kind, found_fp, kind, fingerprint)?;
    Ok(payload)
}

/// Validates a container recorded under the content `address` that
/// [`write_container_addressed`] returned for it, and borrows its payload.
/// Checks the address first ([`ContainerError::BadAddress`]), then exactly
/// what [`read_container`] checks, in the same order with the same errors.
/// One pass hashes every byte once: the hasher's state 8 bytes before the
/// end is the footer checksum.
pub fn read_container_addressed<'a>(
    bytes: &'a [u8],
    kind: &str,
    fingerprint: u64,
    address: u64,
) -> std::result::Result<&'a [u8], ContainerError> {
    let (body, footer) = bytes.split_at(bytes.len().saturating_sub(8));
    let mut h = StableHasher::new();
    h.write_bytes(body);
    let body_sum = h.finish();
    h.write_bytes(footer);
    if h.finish() != address {
        return Err(ContainerError::BadAddress);
    }
    let (found_kind, found_fp, payload) = parse_body(checked_body(bytes, body_sum)?)?;
    expect_kind_and_fingerprint(found_kind, found_fp, kind, fingerprint)?;
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Text-artifact checksum trailers
// ---------------------------------------------------------------------------

/// Prefix of the checksum trailer line appended to text artifacts
/// (`.rgn`, `.dgn`, `.cfg`). `#` opens a comment in both our CSV dialect's
/// consumers (the trailer is stripped before parsing) and Graphviz DOT.
pub const TEXT_CHECKSUM_PREFIX: &str = "#checksum,";

/// Appends a `#checksum,<fnv1a hex>` trailer line covering everything
/// currently in `doc`.
pub fn append_text_checksum(doc: &mut String) {
    let sum = fnv1a(doc.as_bytes());
    if !doc.is_empty() && !doc.ends_with('\n') {
        doc.push('\n');
    }
    doc.push_str(TEXT_CHECKSUM_PREFIX);
    doc.push_str(&format!("{sum:016x}\n"));
}

/// Verifies and strips a trailing `#checksum,<hex>` line, returning the
/// document body. Documents without a trailer pass through unchanged
/// (artifacts written by older versions, or hand-edited files that dropped
/// the line — absence is tolerated, corruption is not). A trailer that is
/// present but wrong is an [`Error::Format`].
pub fn verify_text_checksum(doc: &str) -> Result<&str> {
    // The trailer is the final (newline-terminated) line.
    let t = doc.strip_suffix('\n').unwrap_or(doc);
    let (body_end, last) = match t.rfind('\n') {
        Some(i) => (i + 1, &t[i + 1..]),
        None => (0, t),
    };
    let Some(hex) = last.strip_prefix(TEXT_CHECKSUM_PREFIX) else {
        return Ok(doc);
    };
    let expected = u64::from_str_radix(hex.trim(), 16)
        .map_err(|_| Error::Format(format!("malformed checksum trailer `{last}`")))?;
    // Only the canonical form the writer emits is accepted: otherwise a
    // mutated trailer byte (e.g. a hex digit's case flipped) could still
    // parse to the recorded value and slip through undetected.
    if hex != format!("{expected:016x}") {
        return Err(Error::Format(format!(
            "non-canonical checksum trailer `{last}`"
        )));
    }
    let body = &doc[..body_end];
    let actual = fnv1a(body.as_bytes());
    if actual != expected {
        return Err(Error::Format(format!(
            "artifact checksum mismatch (recorded {expected:016x}, computed {actual:016x}) — \
             the file was corrupted or partially written"
        )));
    }
    Ok(body)
}

// ---------------------------------------------------------------------------
// Atomic file operations
// ---------------------------------------------------------------------------

/// Per-process sequence number keeping temp-file names unique.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The suffix marking this module's temporary files; stale ones (left by a
/// crashed writer) are swept by [`cleanup_stale_tmp`].
const TMP_MARKER: &str = ".araa-tmp";

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename over the destination, fsync the directory. A crash (or an
/// injected fault) at any instant leaves `path` either absent/old or fully
/// new — never torn.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| Error::Format(format!("atomic_write: bad path {}", path.display())))?;
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp_name = format!(
        "{file_name}{TMP_MARKER}.{}.{seq}",
        std::process::id()
    );
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => PathBuf::from(&tmp_name),
    };
    let ctx = |what: &str| format!("{what} {}", tmp.display());
    let res = (|| -> Result<()> {
        let mut f = std::fs::File::create(&tmp).map_err(|e| Error::io(ctx("creating"), e))?;
        // Torn-write injection: half the bytes land, then the "process
        // dies" (the armed faultpoint panics). The destination must stay
        // untouched and the torn temp file must never validate.
        let half = bytes.len() / 2;
        f.write_all(&bytes[..half]).map_err(|e| Error::io(ctx("writing"), e))?;
        faultpoint::hit("persist::torn_write");
        f.write_all(&bytes[half..]).map_err(|e| Error::io(ctx("writing"), e))?;
        faultpoint::hit("persist::pre_sync");
        f.sync_all().map_err(|e| Error::io(ctx("syncing"), e))?;
        drop(f);
        faultpoint::hit("persist::pre_rename");
        std::fs::rename(&tmp, path)
            .map_err(|e| Error::io(format!("renaming {} over {}", tmp.display(), path.display()), e))?;
        faultpoint::hit("persist::post_rename");
        // Persist the rename itself. Directory fsync is best-effort: some
        // filesystems reject opening directories for sync.
        if let Some(d) = dir {
            if let Ok(dh) = std::fs::File::open(d) {
                let _ = dh.sync_all();
            }
        }
        Ok(())
    })();
    if res.is_err() {
        // Best-effort cleanup on failure; a leak is swept later.
        let _ = std::fs::remove_file(&tmp);
    }
    res
}

/// Reads a file's raw bytes, with read-side fault injection: under the
/// `fault-injection` feature the returned buffer may be truncated
/// (`persist::short_read`) or bit-flipped (`persist::bit_flip`) — the
/// container checksum downstream must catch both.
pub fn read_file_raw(path: &Path) -> std::io::Result<Vec<u8>> {
    let mut bytes = std::fs::read(path)?;
    if faultpoint::fires("persist::short_read") {
        bytes.truncate(bytes.len() / 2);
    }
    if faultpoint::fires("persist::bit_flip") {
        let mid = bytes.len() / 2;
        if let Some(b) = bytes.get_mut(mid) {
            *b ^= 0x10;
        }
    }
    Ok(bytes)
}

/// Removes temporary files a crashed writer left behind in `dir`. Returns
/// how many were swept. Only files carrying this module's temp marker are
/// touched; never user data.
pub fn cleanup_stale_tmp(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    let mut swept = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.contains(TMP_MARKER) && std::fs::remove_file(entry.path()).is_ok() {
            swept += 1;
        }
    }
    if swept > 0 {
        crate::obs::add(crate::obs::Counter::TmpSwept, swept as u64);
    }
    swept
}

/// Maximum number of files kept in a `quarantine/` directory. Quarantine
/// exists so corrupt artifacts stay inspectable, not as an archive: once
/// the cap is exceeded, [`quarantine_file`] evicts oldest-first (by mtime,
/// then name). Callers already hold the store's [`DirLock`], so the GC
/// never races another process on the same cache.
pub const QUARANTINE_MAX_FILES: usize = 64;

/// Byte-size ceiling for a `quarantine/` directory, enforced alongside the
/// file-count cap with the same oldest-first policy.
pub const QUARANTINE_MAX_BYTES: u64 = 16 * 1024 * 1024;

/// Count and total byte size of a store's `quarantine/` directory (for
/// `dragon cache stats`). `(0, 0)` when there is no quarantine yet.
pub fn quarantine_usage(store_dir: &Path) -> (usize, u64) {
    let qdir = store_dir.join("quarantine");
    let Ok(entries) = std::fs::read_dir(&qdir) else { return (0, 0) };
    let mut count = 0usize;
    let mut bytes = 0u64;
    for entry in entries.flatten() {
        let Ok(meta) = entry.metadata() else { continue };
        if meta.is_file() {
            count += 1;
            bytes += meta.len();
        }
    }
    (count, bytes)
}

/// Evicts oldest quarantined files until `qdir` is back under both caps.
/// Returns how many files were removed.
fn quarantine_gc(qdir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(qdir) else { return 0 };
    // (mtime, name, path, len) — name as tie-break keeps eviction order
    // deterministic on coarse-mtime filesystems.
    let mut files: Vec<(std::time::SystemTime, std::ffi::OsString, PathBuf, u64)> = Vec::new();
    for entry in entries.flatten() {
        let Ok(meta) = entry.metadata() else { continue };
        if !meta.is_file() {
            continue;
        }
        let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
        files.push((mtime, entry.file_name(), entry.path(), meta.len()));
    }
    files.sort();
    let mut total: u64 = files.iter().map(|f| f.3).sum();
    let mut count = files.len();
    let mut evicted = 0;
    for (_, _, path, len) in files {
        if count <= QUARANTINE_MAX_FILES && total <= QUARANTINE_MAX_BYTES {
            break;
        }
        if std::fs::remove_file(&path).is_ok() {
            evicted += 1;
            count -= 1;
            total = total.saturating_sub(len);
        }
    }
    if evicted > 0 {
        crate::obs::add(crate::obs::Counter::QuarantineEvicted, evicted as u64);
    }
    evicted
}

/// Moves `path` aside into `<dir>/quarantine/<name>.<suffix>[.N]` instead
/// of deleting it, so corrupt artifacts stay inspectable. Returns the
/// quarantine destination.
pub fn quarantine_file(path: &Path, suffix: &str) -> Result<PathBuf> {
    let dir = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."));
    let qdir = dir.join("quarantine");
    std::fs::create_dir_all(&qdir)
        .map_err(|e| Error::io(format!("creating {}", qdir.display()), e))?;
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| Error::Format(format!("quarantine: bad path {}", path.display())))?;
    let mut dest = qdir.join(format!("{name}.{suffix}"));
    let mut n = 0u32;
    while dest.exists() {
        n += 1;
        dest = qdir.join(format!("{name}.{suffix}.{n}"));
    }
    std::fs::rename(path, &dest).map_err(|e| {
        Error::io(format!("quarantining {} to {}", path.display(), dest.display()), e)
    })?;
    crate::obs::incr(crate::obs::Counter::QuarantineEvents);
    // Keep quarantine bounded: evict oldest entries beyond the caps. The
    // just-quarantined file is the newest, so it always survives its own GC.
    quarantine_gc(&qdir);
    Ok(dest)
}

// ---------------------------------------------------------------------------
// Advisory directory lock
// ---------------------------------------------------------------------------

/// Directories locked by *this* process — `create_new` on a lock file
/// cannot arbitrate between two sessions inside one process, so an
/// in-process registry backs the on-disk file.
static HELD: Mutex<Option<BTreeSet<PathBuf>>> = Mutex::new(None);

fn held() -> std::sync::MutexGuard<'static, Option<BTreeSet<PathBuf>>> {
    HELD.lock().unwrap_or_else(|p| p.into_inner())
}

/// True when `pid` names a live process. On Linux this consults `/proc`;
/// elsewhere it conservatively answers `true` (never steal a lock we
/// cannot prove stale).
fn process_alive(pid: u32) -> bool {
    if pid == 0 {
        return false;
    }
    #[cfg(target_os = "linux")]
    {
        Path::new(&format!("/proc/{pid}")).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        true
    }
}

/// How a [`DirLock`] acquisition went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquired {
    /// The lock was free.
    Fresh,
    /// A dead owner's stale lock file was taken over.
    TookOverStale,
}

/// A held advisory lock on a directory. Released (file removed) on drop —
/// including on panic unwind, so an injected fault inside a store
/// operation does not wedge the directory.
#[derive(Debug)]
pub struct DirLock {
    path: PathBuf,
    dir: PathBuf,
    /// How the lock was obtained (fresh vs. stale takeover).
    pub acquired: Acquired,
}

/// Name of the lock file inside a locked directory.
pub const LOCK_FILE: &str = "LOCK";

impl DirLock {
    /// Acquires the advisory lock for `dir`, waiting up to `wait` (polling
    /// every 10 ms) for a live owner to release it. A lock file whose owner
    /// pid is provably dead is quarantine-free stale state and is taken
    /// over immediately. Errors with [`Error::Io`] (`WouldBlock`) when the
    /// wait budget runs out.
    pub fn acquire(dir: &Path, wait: Duration) -> Result<DirLock> {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::io(format!("creating {}", dir.display()), e))?;
        let canon = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
        let path = dir.join(LOCK_FILE);
        let deadline = std::time::Instant::now() + wait;
        let mut acquired = Acquired::Fresh;
        loop {
            // In-process arbitration first: the file cannot distinguish two
            // sessions of one pid.
            let in_process_free = {
                let mut g = held();
                let set = g.get_or_insert_with(BTreeSet::new);
                if set.contains(&canon) {
                    false
                } else {
                    set.insert(canon.clone());
                    true
                }
            };
            if in_process_free {
                match std::fs::OpenOptions::new().write(true).create_new(true).open(&path) {
                    Ok(mut f) => {
                        let _ = writeln!(f, "{}", std::process::id());
                        let _ = f.sync_all();
                        // A fresh lock also sweeps temp litter from any
                        // previous crashed writer.
                        cleanup_stale_tmp(dir);
                        return Ok(DirLock { path, dir: canon, acquired });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                        held().get_or_insert_with(BTreeSet::new).remove(&canon);
                        let owner: Option<u32> = std::fs::read_to_string(&path)
                            .ok()
                            .and_then(|s| s.trim().parse().ok());
                        let stale = match owner {
                            // Our own pid on disk but not in the in-process
                            // registry: a previous incarnation crashed hard.
                            Some(pid) if pid == std::process::id() => true,
                            Some(pid) => !process_alive(pid),
                            // Unreadable/empty lock file: racing with the
                            // owner writing it, or garbage. Retry; treat as
                            // stale only if still unreadable near deadline.
                            None => std::time::Instant::now() >= deadline,
                        };
                        if stale {
                            let _ = std::fs::remove_file(&path);
                            acquired = Acquired::TookOverStale;
                            // The dead owner may have crashed mid-write:
                            // sweep its temp litter right at takeover, not
                            // just on the (racy) re-acquire that follows.
                            cleanup_stale_tmp(dir);
                            continue;
                        }
                    }
                    Err(e) => {
                        held().get_or_insert_with(BTreeSet::new).remove(&canon);
                        return Err(Error::io(format!("locking {}", path.display()), e));
                    }
                }
            }
            if std::time::Instant::now() >= deadline {
                let owner = std::fs::read_to_string(&path).unwrap_or_default();
                return Err(Error::io(
                    format!(
                        "cache directory {} is locked by pid {}",
                        dir.display(),
                        owner.trim()
                    ),
                    std::io::Error::new(std::io::ErrorKind::WouldBlock, "lock held"),
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
        if let Some(set) = held().as_mut() {
            set.remove(&self.dir);
        }
    }
}

/// Mixes the crate version and container format version into a toolchain
/// fingerprint; callers fold in their own options salt. Any toolchain
/// upgrade invalidates (quarantines) old caches instead of trusting them.
pub fn toolchain_fingerprint() -> u64 {
    let mut h = StableHasher::new();
    h.write_str("araa-toolchain");
    h.write_str(env!("CARGO_PKG_VERSION"));
    h.write_u32(FORMAT_VERSION);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        crate::testdir::unique_dir(tag)
    }

    #[test]
    fn container_round_trips() {
        let payload = b"hello world".to_vec();
        let bytes = write_container_addressed("test", 42, &payload).0;
        assert_eq!(read_container(&bytes, "test", 42).unwrap(), payload);
    }

    #[test]
    fn container_rejects_every_single_byte_mutation() {
        let bytes = write_container_addressed("test", 7, b"payload bytes here").0;
        for i in 0..bytes.len() {
            for mask in [0x01u8, 0x80] {
                let mut m = bytes.clone();
                m[i] ^= mask;
                assert!(
                    read_container(&m, "test", 7).is_err(),
                    "mutation at byte {i} mask {mask:#x} was accepted"
                );
            }
        }
    }

    #[test]
    fn container_rejects_truncation_and_garbage() {
        let bytes = write_container_addressed("test", 7, b"data").0;
        for cut in 0..bytes.len() {
            assert!(read_container(&bytes[..cut], "test", 7).is_err());
        }
        let mut appended = bytes.clone();
        appended.extend_from_slice(b"junk");
        assert!(read_container(&appended, "test", 7).is_err());
        assert_eq!(read_container(&[], "test", 7), Err(ContainerError::Truncated));
    }

    #[test]
    fn addressed_writer_returns_the_content_address() {
        let (bytes, address) = write_container_addressed("test", 7, b"payload");
        assert_eq!(bytes, write_container_addressed("test", 7, b"payload").0);
        assert_eq!(address, fnv1a(&bytes));
    }

    #[test]
    fn addressed_reader_checks_the_address_then_agrees_with_read_container() {
        let (bytes, address) = write_container_addressed("test", 7, b"payload bytes here");
        assert_eq!(
            read_container_addressed(&bytes, "test", 7, address).unwrap(),
            b"payload bytes here"
        );
        assert_eq!(
            read_container_addressed(&bytes, "test", 7, address ^ 1),
            Err(ContainerError::BadAddress)
        );
        // Given each damaged file's own address, the addressed reader must
        // fail exactly where and how `read_container` does.
        let mut damaged: Vec<Vec<u8>> = (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
        for i in 0..bytes.len() {
            let mut m = bytes.clone();
            m[i] ^= 0x01;
            damaged.push(m);
        }
        damaged.push(write_container_addressed("other", 7, b"x").0);
        damaged.push(write_container_addressed("test", 8, b"x").0);
        for m in &damaged {
            assert_eq!(
                read_container_addressed(m, "test", 7, fnv1a(m)).map(<[u8]>::to_vec),
                read_container(m, "test", 7),
                "{m:?}"
            );
        }
    }

    #[test]
    fn container_checks_kind_and_fingerprint() {
        let bytes = write_container_addressed("manifest", 1, b"x").0;
        assert!(matches!(
            read_container(&bytes, "entry", 1),
            Err(ContainerError::BadKind(k)) if k == "manifest"
        ));
        assert!(matches!(
            read_container(&bytes, "manifest", 2),
            Err(ContainerError::BadFingerprint { .. })
        ));
    }

    #[test]
    fn atomic_write_replaces_contents() {
        let dir = tmp_dir("persist_atomic");
        let path = dir.join("file.bin");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second version").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second version");
        // No temp litter.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cleanup_sweeps_only_tmp_files() {
        let dir = tmp_dir("persist_sweep");
        std::fs::write(dir.join(format!("a{TMP_MARKER}.1.2")), b"x").unwrap();
        std::fs::write(dir.join("keep.bin"), b"y").unwrap();
        assert_eq!(cleanup_stale_tmp(&dir), 1);
        assert!(dir.join("keep.bin").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_moves_not_deletes() {
        let dir = tmp_dir("persist_quar");
        let p = dir.join("bad.bin");
        std::fs::write(&p, b"corrupt").unwrap();
        let dest = quarantine_file(&p, "checksum").unwrap();
        assert!(!p.exists());
        assert_eq!(std::fs::read(&dest).unwrap(), b"corrupt");
        // A second quarantine of the same name gets a numbered slot.
        std::fs::write(&p, b"corrupt2").unwrap();
        let dest2 = quarantine_file(&p, "checksum").unwrap();
        assert_ne!(dest, dest2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_cap_evicts_oldest_first() {
        let dir = tmp_dir("persist_quar_cap");
        std::fs::create_dir_all(&dir).unwrap();
        let qdir = dir.join("quarantine");
        std::fs::create_dir_all(&qdir).unwrap();
        // Pre-fill the quarantine to exactly the cap with files whose
        // mtimes tick upward, oldest = old000.
        for i in 0..QUARANTINE_MAX_FILES {
            let p = qdir.join(format!("old{i:03}.bin"));
            std::fs::write(&p, b"stale").unwrap();
            let t = std::time::SystemTime::now() - Duration::from_secs(1000 - i as u64);
            let f = std::fs::File::open(&p).unwrap();
            f.set_modified(t).unwrap();
        }
        // One more quarantine pushes it over: the oldest goes, the newest
        // (just-quarantined) file survives.
        let victim = dir.join("fresh.bin");
        std::fs::write(&victim, b"corrupt").unwrap();
        let dest = quarantine_file(&victim, "checksum").unwrap();
        let (count, bytes) = quarantine_usage(&dir);
        assert_eq!(count, QUARANTINE_MAX_FILES, "back at the cap after GC");
        assert!(bytes <= QUARANTINE_MAX_BYTES);
        assert!(dest.exists(), "newest entry survives its own GC");
        assert!(!qdir.join("old000.bin").exists(), "oldest evicted");
        assert!(qdir.join("old001.bin").exists(), "only the overflow evicted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_byte_cap_evicts_oldest_first() {
        let dir = tmp_dir("persist_quar_bytes");
        std::fs::create_dir_all(&dir).unwrap();
        let qdir = dir.join("quarantine");
        std::fs::create_dir_all(&qdir).unwrap();
        // Two huge old files put the directory over the byte cap even
        // though the count is tiny.
        let big = vec![0u8; (QUARANTINE_MAX_BYTES / 2 + 1024) as usize];
        for (i, name) in ["huge_a.bin", "huge_b.bin"].iter().enumerate() {
            let p = qdir.join(name);
            std::fs::write(&p, &big).unwrap();
            let t = std::time::SystemTime::now() - Duration::from_secs(100 - i as u64);
            std::fs::File::open(&p).unwrap().set_modified(t).unwrap();
        }
        let victim = dir.join("small.bin");
        std::fs::write(&victim, b"corrupt").unwrap();
        let dest = quarantine_file(&victim, "checksum").unwrap();
        let (_, bytes) = quarantine_usage(&dir);
        assert!(bytes <= QUARANTINE_MAX_BYTES, "byte cap enforced, got {bytes}");
        assert!(dest.exists());
        assert!(!qdir.join("huge_a.bin").exists(), "oldest big file evicted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_usage_empty_when_missing() {
        let dir = tmp_dir("persist_quar_none");
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(quarantine_usage(&dir), (0, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_takeover_sweeps_crashed_writer_tmp() {
        let dir = tmp_dir("persist_takeover_sweep");
        std::fs::create_dir_all(&dir).unwrap();
        // Simulate a writer that died mid-commit: stale lock + temp litter.
        std::fs::write(dir.join(LOCK_FILE), b"4000000000\n").unwrap();
        std::fs::write(dir.join(format!("entry{TMP_MARKER}.123.7")), b"partial").unwrap();
        std::fs::write(dir.join("manifest.araa"), b"committed").unwrap();
        let lock = DirLock::acquire(&dir, Duration::from_millis(200)).unwrap();
        assert_eq!(lock.acquired, Acquired::TookOverStale);
        let litter: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(TMP_MARKER))
            .collect();
        assert!(litter.is_empty(), "takeover must sweep temp litter: {litter:?}");
        assert!(dir.join("manifest.araa").exists(), "committed data untouched");
        drop(lock);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lock_excludes_second_acquirer_and_releases_on_drop() {
        let dir = tmp_dir("persist_lock");
        let lock = DirLock::acquire(&dir, Duration::from_millis(50)).unwrap();
        assert_eq!(lock.acquired, Acquired::Fresh);
        let err = DirLock::acquire(&dir, Duration::from_millis(30));
        assert!(err.is_err(), "second acquisition must time out");
        drop(lock);
        let again = DirLock::acquire(&dir, Duration::from_millis(50)).unwrap();
        drop(again);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_lock_of_dead_pid_is_taken_over() {
        let dir = tmp_dir("persist_stale");
        std::fs::create_dir_all(&dir).unwrap();
        // A pid beyond any realistic pid_max: provably dead on /proc.
        std::fs::write(dir.join(LOCK_FILE), b"4000000000\n").unwrap();
        let lock = DirLock::acquire(&dir, Duration::from_millis(200)).unwrap();
        assert_eq!(lock.acquired, Acquired::TookOverStale);
        drop(lock);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn live_foreign_lock_times_out() {
        let dir = tmp_dir("persist_live");
        std::fs::create_dir_all(&dir).unwrap();
        // pid 1 is always alive in the container/host.
        std::fs::write(dir.join(LOCK_FILE), b"1\n").unwrap();
        let err = DirLock::acquire(&dir, Duration::from_millis(40));
        assert!(err.is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn codec_round_trips_compound_values() {
        let mut w = ByteWriter::new();
        let v: Vec<(String, Option<u64>)> =
            vec![("a".into(), Some(1)), ("b".into(), None)];
        v.save(&mut w);
        true.save(&mut w);
        (-5i64).save(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back: Vec<(String, Option<u64>)> = Persist::load(&mut r).unwrap();
        assert_eq!(back, v);
        assert!(bool::load(&mut r).unwrap());
        assert_eq!(i64::load(&mut r).unwrap(), -5);
        r.finish().unwrap();
    }

    #[test]
    fn text_checksum_round_trips_and_catches_corruption() {
        let mut doc = String::from("proc,array\nverify,xcr\n");
        append_text_checksum(&mut doc);
        assert!(doc.lines().last().unwrap().starts_with(TEXT_CHECKSUM_PREFIX));
        let body = verify_text_checksum(&doc).unwrap();
        assert_eq!(body, "proc,array\nverify,xcr\n");
        // No trailer: passes through untouched (backward compatibility).
        assert_eq!(verify_text_checksum("a,b\n").unwrap(), "a,b\n");
        assert_eq!(verify_text_checksum("").unwrap(), "");
        // Any body mutation fails verification.
        let corrupted = doc.replace("xcr", "xce");
        assert!(verify_text_checksum(&corrupted).is_err());
        // A mangled trailer fails too.
        let bad_trailer = format!("a,b\n{TEXT_CHECKSUM_PREFIX}nothex\n");
        assert!(verify_text_checksum(&bad_trailer).is_err());
    }

    #[test]
    fn loose_read_reports_kind_and_fingerprint() {
        let bytes = write_container_addressed("entry", 99, b"pp").0;
        let (kind, fp, payload) = read_container_loose(&bytes).unwrap();
        assert_eq!((kind.as_str(), fp, payload.as_slice()), ("entry", 99, b"pp".as_slice()));
    }

    #[test]
    fn reader_rejects_hostile_lengths() {
        // A Vec length far beyond the buffer must error, not OOM or panic.
        let mut w = ByteWriter::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let res: Result<Vec<u8>> = Persist::load(&mut r);
        assert!(res.is_err());
        let mut r2 = ByteReader::new(&bytes);
        assert!(r2.str().is_err());
    }
}
