//! Durable, crash-safe log segments — the binary storage spine.
//!
//! A segment is an append-only file of length-prefixed, CRC-checksummed
//! *frames*. The first frame is a header carrying the run's dimension
//! tables (vocabulary, deployment) and the pre-declared
//! `expected_records` count; every following frame carries one sealed
//! sink [`Chunk`] in the fixed-width record encoding of
//! [`causeway_core::wire`]; a final *seal* frame records the totals of a
//! clean shutdown. A process can therefore stream its chunks to disk as
//! producers seal them, and a crash loses at most the chunks that were
//! never appended — Magpie logs events durably for exactly this reason,
//! and Chukwa-style collectors use the same append-segment shape.
//!
//! ## Frame layout
//!
//! ```text
//! file  := magic frame*
//! magic := "CWSEG01\n"                      (8 bytes)
//! frame := len:u32le crc:u32le payload      (crc = CRC-32/IEEE of payload)
//! payload[0] — frame kind:
//!   0 HEADER  version:u16  expected:opt-u64  vocab  deployment
//!   1 CHUNK   thread:u32   count:u32  count × 121-byte records
//!   2 SEAL    records:u64  expected:opt-u64
//! ```
//!
//! ## Recovery rules
//!
//! [`recover_run_log`] trusts the longest clean prefix: it verifies each
//! frame's checksum in order and **truncates at the first torn or
//! bad-checksum frame** — everything after it is discarded, even frames
//! that would verify, because an interior tear means the writer's
//! append-only discipline was violated. The header frame is the one
//! non-negotiable part: a segment whose header cannot be verified has no
//! dimension tables and recovery fails outright. The recovered
//! [`RunLog`] carries the header's (or seal's) `expected_records`, so
//! the shortfall of a crashed run surfaces through
//! [`RunLog::missing_records`] exactly like a stranded-chunk harvest.
//!
//! Checksum verification and record decoding are sharded across
//! [`pool`] workers frame-by-frame, so binary ingest of a large segment
//! parallelizes the same way JSONL line parsing does — without serde
//! and without per-line scanning, since the fixed record width makes
//! every split point pure arithmetic.

pub use bytes::BufMut;
use causeway_core::deploy::{Deployment, NodeInfo, ProcessInfo};
use causeway_core::ids::{CpuTypeId, InterfaceId, LogicalThreadId, NodeId, ObjectId, ProcessId};
use causeway_core::names::{ComponentId, InterfaceEntry, ObjectEntry, VocabSnapshot};
use causeway_core::pool;
use causeway_core::record::ProbeRecord;
use causeway_core::runlog::RunLog;
use causeway_core::sink::Chunk;
use causeway_core::wire::{self, RECORD_WIRE_LEN};
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The 8-byte file magic opening every segment.
pub const SEGMENT_MAGIC: &[u8; 8] = b"CWSEG01\n";

const KIND_HEADER: u8 = 0;
const KIND_CHUNK: u8 = 1;
const KIND_SEAL: u8 = 2;

const HEADER_VERSION: u16 = 1;

/// Sanity bound on one frame's payload. The reader rejects larger length
/// words as corruption, so the writer must never produce one: frames over
/// this size would be written successfully and then dropped (along with
/// everything after them) as a torn tail on recovery.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Most records one chunk frame can carry without its payload exceeding
/// [`MAX_FRAME_BYTES`] (9 bytes of chunk framing precede the records).
pub const MAX_CHUNK_RECORDS: usize = (MAX_FRAME_BYTES - 9) / RECORD_WIRE_LEN;
const _: () = assert!(9 + MAX_CHUNK_RECORDS * RECORD_WIRE_LEN <= MAX_FRAME_BYTES);

/// Records per chunk frame when serializing a flat [`RunLog`] (the live
/// writer instead frames whatever the sink sealed).
pub const DEFAULT_FRAME_RECORDS: usize = 4096;

/// Errors produced by the segment reader and writer.
#[derive(Debug)]
#[non_exhaustive]
pub enum SegmentError {
    /// An I/O operation failed.
    Io(io::Error),
    /// The bytes are not a recoverable segment (bad magic, unverifiable
    /// header, or — in strict mode — any torn frame or trailing garbage).
    Corrupt(String),
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::Io(e) => write!(f, "segment i/o failed: {e}"),
            SegmentError::Corrupt(msg) => write!(f, "corrupt segment: {msg}"),
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<io::Error> for SegmentError {
    fn from(e: io::Error) -> SegmentError {
        SegmentError::Io(e)
    }
}

fn corrupt(message: impl Into<String>) -> SegmentError {
    SegmentError::Corrupt(message.into())
}

// ---------------------------------------------------------------------------
// Frame primitives (shared with the analyzer's history and exemplar spills).
// ---------------------------------------------------------------------------

/// Appends one `[len][crc][payload]` frame to `buf`.
///
/// # Panics
///
/// Panics when `payload` exceeds [`MAX_FRAME_BYTES`] — such a frame could
/// never be read back (use [`write_frame`] for a fallible check).
pub fn put_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    assert!(
        payload.len() <= MAX_FRAME_BYTES,
        "frame payload of {} bytes exceeds MAX_FRAME_BYTES and would be unreadable",
        payload.len()
    );
    buf.put_u32_le(payload.len() as u32);
    buf.put_u32_le(wire::crc32(payload));
    buf.put_slice(payload);
}

/// Writes one frame to an output stream.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidInput`] when `payload` exceeds
/// [`MAX_FRAME_BYTES`] — the reader treats oversized frames as torn, so
/// writing one would silently discard it (and everything after it) on
/// recovery. Otherwise propagates the underlying I/O error.
pub fn write_frame(out: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame payload of {} bytes exceeds the {MAX_FRAME_BYTES}-byte frame bound",
                payload.len()
            ),
        ));
    }
    out.write_all(&(payload.len() as u32).to_le_bytes())?;
    out.write_all(&wire::crc32(payload).to_le_bytes())?;
    out.write_all(payload)
}

/// One frame lifted out of a byte stream by [`next_frame`].
#[derive(Debug, Clone, Copy)]
pub struct RawFrame<'a> {
    /// The checksummed payload (first byte is the frame kind).
    pub payload: &'a [u8],
    /// Offset of the first byte past this frame.
    pub end: usize,
    /// The stored checksum — compare against `wire::crc32(payload)`;
    /// deferred so bulk verification can run on pool workers.
    pub crc: u32,
}

/// Lifts the frame starting at `offset` out of `bytes` without verifying
/// its checksum. Returns `None` at clean end-of-input **and** on a torn
/// frame (not enough bytes for the declared length) — recovery treats
/// both as "the log ends here".
pub fn next_frame(bytes: &[u8], offset: usize) -> Option<RawFrame<'_>> {
    let rest = bytes.get(offset..)?;
    if rest.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_BYTES || rest.len() < 8 + len {
        return None;
    }
    let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
    Some(RawFrame { payload: &rest[8..8 + len], end: offset + 8 + len, crc })
}

/// An append-only file of `magic frame*` — the one crash-safe file
/// primitive under segments ([`SegmentWriter`]) and the analyzer's history
/// and exemplar spills, which differ only in their magic and payload codec.
///
/// Every [`FrameFile::append`] flushes its frames through the OS before it
/// returns, so a crash loses only frames never appended; reopening with
/// [`FrameFile::open`] keeps the longest verified frame prefix and
/// truncates the torn tail. Both only ever rewrite a file carrying the
/// expected magic: any other non-empty file is refused (`InvalidData`),
/// so a mistyped path cannot wipe an unrelated file.
#[derive(Debug)]
pub struct FrameFile {
    path: PathBuf,
    out: BufWriter<File>,
    /// Offset one past the last complete frame (the append position).
    end: u64,
}

impl FrameFile {
    /// Creates the file at `path` — replacing an earlier file with the same
    /// magic — and writes and flushes `magic`.
    ///
    /// # Errors
    ///
    /// Refuses (`InvalidData`) a non-empty file whose first bytes are not
    /// (a prefix of) `magic`; only those first `magic.len()` bytes are
    /// read. Otherwise propagates open, truncate and write failures.
    pub fn create(path: impl AsRef<Path>, magic: &[u8]) -> io::Result<FrameFile> {
        let path = path.as_ref();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut prefix = Vec::with_capacity(magic.len());
        (&mut file).take(magic.len() as u64).read_to_end(&mut prefix)?;
        if !magic.starts_with(&prefix) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{} exists but is not a {} file; refusing to overwrite it",
                    path.display(),
                    String::from_utf8_lossy(magic).trim_end()
                ),
            ));
        }
        file.set_len(0)?;
        file.rewind()?;
        let mut out = BufWriter::new(file);
        out.write_all(magic)?;
        out.flush()?;
        Ok(FrameFile { path: path.to_path_buf(), out, end: magic.len() as u64 })
    }

    /// Reopens the file at `path` to append after its intact frames, or
    /// creates it when it is missing, empty, or holds only a torn magic.
    ///
    /// Each complete, checksum-verified frame is handed to `accept` with
    /// its `(offset, len)` span (`len` counts the 8 framing bytes). The
    /// scan stops at the first torn frame, checksum mismatch, or frame
    /// `accept` refuses; everything from there on is truncated away and
    /// appends continue at the end of the last accepted frame.
    ///
    /// # Errors
    ///
    /// Refuses (`InvalidData`) a non-empty file that does not start with
    /// `magic`. Otherwise propagates read, truncate and seek failures.
    pub fn open(
        path: impl AsRef<Path>,
        magic: &[u8],
        mut accept: impl FnMut((u64, u32), &[u8]) -> bool,
    ) -> io::Result<FrameFile> {
        let path = path.as_ref();
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        if !bytes.starts_with(magic) {
            // Nothing to keep: `create` rewrites an empty file or a torn
            // magic from an interrupted create, and refuses anything else.
            return FrameFile::create(path, magic);
        }
        let mut at = magic.len();
        while let Some(frame) = next_frame(&bytes, at) {
            let span = (at as u64, (frame.end - at) as u32);
            if wire::crc32(frame.payload) != frame.crc || !accept(span, frame.payload) {
                break;
            }
            at = frame.end;
        }
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(at as u64)?; // drop the torn tail, if any
        file.seek(SeekFrom::End(0))?;
        Ok(FrameFile { path: path.to_path_buf(), out: BufWriter::new(file), end: at as u64 })
    }

    /// Writes each payload as one frame, then flushes once, and returns
    /// every frame's `(offset, len)` span for [`FrameFile::read_at`].
    ///
    /// # Errors
    ///
    /// Propagates [`write_frame`]'s refusal of oversized payloads and any
    /// write or flush failure; the append position only advances after a
    /// successful flush.
    pub fn append<P: AsRef<[u8]>>(
        &mut self,
        payloads: impl IntoIterator<Item = P>,
    ) -> io::Result<Vec<(u64, u32)>> {
        let mut spans = Vec::new();
        let mut at = self.end;
        for payload in payloads {
            let payload = payload.as_ref();
            write_frame(&mut self.out, payload)?;
            let len = (payload.len() + 8) as u32;
            spans.push((at, len));
            at += u64::from(len);
        }
        self.out.flush()?;
        self.end = at;
        Ok(spans)
    }

    /// Reads one frame back through a fresh file handle and returns its
    /// payload once the checksum verifies. `None` when the span no longer
    /// reads back intact (file removed, truncated, or damaged since).
    pub fn read_at(&self, offset: u64, len: u32) -> Option<Vec<u8>> {
        let mut file = File::open(&self.path).ok()?;
        file.seek(SeekFrom::Start(offset)).ok()?;
        let mut buf = vec![0u8; len as usize];
        file.read_exact(&mut buf).ok()?;
        let frame = next_frame(&buf, 0)?;
        (wire::crc32(frame.payload) == frame.crc).then(|| frame.payload.to_vec())
    }

    /// Syncs the appended (already flushed) frames to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates the sync failure.
    pub fn sync(&self) -> io::Result<()> {
        self.out.get_ref().sync_all()
    }

    /// Bytes in the file: the magic plus every complete frame.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// The file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Bounds-checked little-endian cursor over a frame payload: every
/// accessor returns `None` past the end, so a short or malformed payload
/// decodes to `None`, never a panic. Encoders write the same layout with
/// [`BufMut`]'s `put_*_le` methods.
#[derive(Debug)]
pub struct PayloadCursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> PayloadCursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> PayloadCursor<'a> {
        PayloadCursor { bytes, at: 0 }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let out = self.bytes.get(self.at..self.at.checked_add(n)?)?;
        self.at += n;
        Some(out)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N).map(|b| b.try_into().expect("N bytes"))
    }

    /// The next byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.array().map(u8::from_le_bytes)
    }

    /// The next little-endian `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next little-endian `u128`.
    pub fn u128(&mut self) -> Option<u128> {
        self.array().map(u128::from_le_bytes)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }
}

// ---------------------------------------------------------------------------
// Payload codecs.
// ---------------------------------------------------------------------------

/// [`PayloadCursor`] with the segment reader's error reporting.
struct Reader<'a>(PayloadCursor<'a>);

fn truncated() -> SegmentError {
    corrupt("frame payload truncated")
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader(PayloadCursor::new(bytes))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SegmentError> {
        self.0.take(n).ok_or_else(truncated)
    }

    fn u8(&mut self) -> Result<u8, SegmentError> {
        self.0.u8().ok_or_else(truncated)
    }

    fn u16(&mut self) -> Result<u16, SegmentError> {
        self.0.u16().ok_or_else(truncated)
    }

    fn u32(&mut self) -> Result<u32, SegmentError> {
        self.0.u32().ok_or_else(truncated)
    }

    fn u64(&mut self) -> Result<u64, SegmentError> {
        self.0.u64().ok_or_else(truncated)
    }

    fn str(&mut self) -> Result<String, SegmentError> {
        let len = self.u32()? as usize;
        if len > MAX_FRAME_BYTES {
            return Err(corrupt("string length exceeds sanity bound"));
        }
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| corrupt("invalid utf-8 in header string"))
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, SegmentError> {
        let present = self.u8()?;
        let value = self.u64()?;
        match present {
            0 => Ok(None),
            1 => Ok(Some(value)),
            other => Err(corrupt(format!("bad option flag {other}"))),
        }
    }

    fn done(&self) -> Result<(), SegmentError> {
        match self.0.remaining() {
            0 => Ok(()),
            n => Err(corrupt(format!("{n} trailing payload bytes"))),
        }
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    buf.put_u8(v.is_some() as u8);
    buf.put_u64_le(v.unwrap_or(0));
}

fn encode_header(
    vocab: &VocabSnapshot,
    deployment: &Deployment,
    expected_records: Option<u64>,
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1024);
    buf.put_u8(KIND_HEADER);
    buf.put_u16_le(HEADER_VERSION);
    put_opt_u64(&mut buf, expected_records);
    buf.put_u32_le(vocab.interfaces.len() as u32);
    for iface in &vocab.interfaces {
        put_str(&mut buf, &iface.name);
        buf.put_u32_le(iface.methods.len() as u32);
        for method in &iface.methods {
            put_str(&mut buf, method);
        }
    }
    buf.put_u32_le(vocab.components.len() as u32);
    for c in &vocab.components {
        put_str(&mut buf, c);
    }
    buf.put_u32_le(vocab.cpu_types.len() as u32);
    for c in &vocab.cpu_types {
        put_str(&mut buf, c);
    }
    buf.put_u32_le(vocab.objects.len() as u32);
    for (id, entry) in &vocab.objects {
        buf.put_u64_le(id.0);
        put_str(&mut buf, &entry.label);
        buf.put_u32_le(entry.interface.0);
        buf.put_u32_le(entry.component.0);
        buf.put_u16_le(entry.process.0);
    }
    buf.put_u32_le(deployment.nodes.len() as u32);
    for node in &deployment.nodes {
        put_str(&mut buf, &node.name);
        buf.put_u16_le(node.cpu_type.0);
    }
    buf.put_u32_le(deployment.processes.len() as u32);
    for process in &deployment.processes {
        put_str(&mut buf, &process.name);
        buf.put_u16_le(process.node.0);
    }
    buf
}

struct Header {
    vocab: VocabSnapshot,
    deployment: Deployment,
    expected_records: Option<u64>,
}

fn decode_header(payload: &[u8]) -> Result<Header, SegmentError> {
    let mut r = Reader::new(payload);
    if r.u8()? != KIND_HEADER {
        return Err(corrupt("first frame is not a header"));
    }
    let version = r.u16()?;
    if version != HEADER_VERSION {
        return Err(corrupt(format!("unsupported segment version {version}")));
    }
    let expected_records = r.opt_u64()?;
    let mut vocab = VocabSnapshot::default();
    let bounded = |n: u32| -> Result<usize, SegmentError> {
        let n = n as usize;
        if n > MAX_FRAME_BYTES { Err(corrupt("count exceeds sanity bound")) } else { Ok(n) }
    };
    for _ in 0..bounded(r.u32()?)? {
        let name = r.str()?;
        let mut methods = Vec::new();
        for _ in 0..bounded(r.u32()?)? {
            methods.push(r.str()?);
        }
        vocab.interfaces.push(InterfaceEntry { name, methods });
    }
    for _ in 0..bounded(r.u32()?)? {
        vocab.components.push(r.str()?);
    }
    for _ in 0..bounded(r.u32()?)? {
        vocab.cpu_types.push(r.str()?);
    }
    for _ in 0..bounded(r.u32()?)? {
        let id = ObjectId(r.u64()?);
        let label = r.str()?;
        let interface = InterfaceId(r.u32()?);
        let component = ComponentId(r.u32()?);
        let process = ProcessId(r.u16()?);
        vocab.objects.push((id, ObjectEntry { label, interface, component, process }));
    }
    let mut deployment = Deployment::new();
    for _ in 0..bounded(r.u32()?)? {
        let name = r.str()?;
        let cpu_type = CpuTypeId(r.u16()?);
        deployment.nodes.push(NodeInfo { name, cpu_type });
    }
    for _ in 0..bounded(r.u32()?)? {
        let name = r.str()?;
        let node = NodeId(r.u16()?);
        deployment.processes.push(ProcessInfo { name, node });
    }
    r.done()?;
    Ok(Header { vocab, deployment, expected_records })
}

fn encode_chunk(thread: LogicalThreadId, records: &[ProbeRecord]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(9 + records.len() * RECORD_WIRE_LEN);
    buf.put_u8(KIND_CHUNK);
    buf.put_u32_le(thread.0);
    buf.put_u32_le(records.len() as u32);
    for record in records {
        wire::encode_record(record, &mut buf);
    }
    buf
}

fn decode_chunk(payload: &[u8]) -> Result<Chunk, SegmentError> {
    let mut r = Reader::new(payload);
    if r.u8()? != KIND_CHUNK {
        return Err(corrupt("not a chunk frame"));
    }
    let thread = LogicalThreadId(r.u32()?);
    let count = r.u32()? as usize;
    let body = r.take(
        count
            .checked_mul(RECORD_WIRE_LEN)
            .ok_or_else(|| corrupt("chunk record count overflows"))?,
    )?;
    r.done()?;
    let records = wire::decode_records(body)
        .map_err(|e| corrupt(format!("chunk record decode failed: {e}")))?;
    Ok(Chunk { thread, records })
}

fn encode_seal(records: u64, expected_records: Option<u64>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(18);
    buf.put_u8(KIND_SEAL);
    buf.put_u64_le(records);
    put_opt_u64(&mut buf, expected_records);
    buf
}

fn decode_seal(payload: &[u8]) -> Result<(u64, Option<u64>), SegmentError> {
    let mut r = Reader::new(payload);
    if r.u8()? != KIND_SEAL {
        return Err(corrupt("not a seal frame"));
    }
    let records = r.u64()?;
    let expected = r.opt_u64()?;
    r.done()?;
    Ok((records, expected))
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

/// Streams a run's sealed chunks to an append-only segment file.
///
/// The header frame is written (and flushed) on creation, so even a
/// process killed immediately afterwards leaves a recoverable — if empty
/// — segment behind. Every appended chunk frame is flushed through the
/// OS before `append_chunk` returns: a crash loses only chunks the sink
/// had not yet sealed, never bytes buffered inside this writer.
///
/// # Example
///
/// ```
/// use causeway_collector::segment::{self, SegmentWriter};
/// use causeway_core::{deploy::Deployment, names::VocabSnapshot, sink::Chunk};
/// use causeway_core::ids::LogicalThreadId;
///
/// let path = std::env::temp_dir().join("segment_doc_example.cwseg");
/// let mut writer =
///     SegmentWriter::create(&path, &VocabSnapshot::default(), &Deployment::new(), Some(0))
///         .unwrap();
/// writer.append_chunk(&Chunk { thread: LogicalThreadId(0), records: vec![] }).unwrap();
/// writer.finish(Some(0)).unwrap();
/// let recovery = segment::recover_run_log(&std::fs::read(&path).unwrap()).unwrap();
/// assert!(recovery.sealed);
/// # std::fs::remove_file(&path).ok();
/// ```
#[derive(Debug)]
pub struct SegmentWriter {
    file: FrameFile,
    records_written: u64,
}

impl SegmentWriter {
    /// Creates a segment file and writes its header frame. An earlier
    /// segment at `path` is replaced; any other non-empty file is refused.
    ///
    /// `expected_records` is the pre-declared record count, when the
    /// workload knows it up front — it is what lets recovery of a crashed
    /// run report an exact shortfall. Pass `None` for open-ended runs and
    /// declare the final expectation at [`SegmentWriter::finish`].
    ///
    /// # Errors
    ///
    /// Refuses (`InvalidData`) a non-empty file at `path` that is not a
    /// segment (see [`FrameFile::create`]); otherwise propagates
    /// file-creation and write errors.
    pub fn create(
        path: impl AsRef<Path>,
        vocab: &VocabSnapshot,
        deployment: &Deployment,
        expected_records: Option<u64>,
    ) -> io::Result<SegmentWriter> {
        let mut file = FrameFile::create(path, SEGMENT_MAGIC)?;
        file.append([encode_header(vocab, deployment, expected_records)])?;
        Ok(SegmentWriter { file, records_written: 0 })
    }

    /// Appends one sealed sink chunk as a checksummed frame and flushes.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn append_chunk(&mut self, chunk: &Chunk) -> io::Result<()> {
        self.append_records(chunk.thread, &chunk.records)
    }

    /// Appends an explicit record batch as chunk frames and flushes. A
    /// batch larger than [`MAX_CHUNK_RECORDS`] is split across several
    /// frames, so no frame ever exceeds the [`MAX_FRAME_BYTES`] bound the
    /// reader enforces.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn append_records(
        &mut self,
        thread: LogicalThreadId,
        records: &[ProbeRecord],
    ) -> io::Result<()> {
        self.append_records_capped(thread, records, MAX_CHUNK_RECORDS)
    }

    fn append_records_capped(
        &mut self,
        thread: LogicalThreadId,
        records: &[ProbeRecord],
        records_per_frame: usize,
    ) -> io::Result<()> {
        // An empty batch still leaves one (empty) chunk frame behind.
        let empty = records.is_empty().then(|| encode_chunk(thread, records));
        let frames = records
            .chunks(records_per_frame.max(1))
            .map(|batch| encode_chunk(thread, batch));
        self.file.append(frames.chain(empty))?;
        self.records_written += records.len() as u64;
        Ok(())
    }

    /// Records appended so far.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Writes the seal frame and syncs the file to stable storage.
    ///
    /// `expected_records` supersedes the header's declaration (an
    /// open-ended run learns its expectation only at shutdown).
    ///
    /// # Errors
    ///
    /// Propagates write and sync errors.
    pub fn finish(mut self, expected_records: Option<u64>) -> io::Result<()> {
        self.file.append([encode_seal(self.records_written, expected_records)])?;
        self.file.sync()
    }
}

/// Serializes a whole run log to segment bytes with the default framing.
pub fn write_run_log(run: &RunLog) -> Vec<u8> {
    write_run_log_with_frame(run, DEFAULT_FRAME_RECORDS)
}

/// Serializes a run log, packing `records_per_frame` records into each
/// chunk frame (smaller frames recover at finer granularity and shard
/// wider; the tests use tiny frames to exercise many boundaries). The
/// count is clamped to `1..=`[`MAX_CHUNK_RECORDS`] so every frame stays
/// within the reader's [`MAX_FRAME_BYTES`] bound.
pub fn write_run_log_with_frame(run: &RunLog, records_per_frame: usize) -> Vec<u8> {
    let records_per_frame = records_per_frame.clamp(1, MAX_CHUNK_RECORDS);
    let mut buf = Vec::with_capacity(
        16 + run.records.len() * (RECORD_WIRE_LEN + 2) + 1024,
    );
    buf.put_slice(SEGMENT_MAGIC);
    put_frame(&mut buf, &encode_header(&run.vocab, &run.deployment, run.expected_records));
    for batch in run.records.chunks(records_per_frame) {
        let thread = batch.first().map(|r| r.site.thread).unwrap_or(LogicalThreadId(0));
        put_frame(&mut buf, &encode_chunk(thread, batch));
    }
    put_frame(&mut buf, &encode_seal(run.records.len() as u64, run.expected_records));
    buf
}

// ---------------------------------------------------------------------------
// Recovery.
// ---------------------------------------------------------------------------

/// The outcome of [`recover_run_log`].
#[derive(Debug)]
pub struct Recovery {
    /// The recovered run: the longest clean frame prefix, with
    /// `expected_records` restored from the header (or seal) so
    /// [`RunLog::missing_records`] reports the crash's shortfall.
    pub run: RunLog,
    /// `true` when a valid seal frame closed the segment — a clean
    /// shutdown, not a crash.
    pub sealed: bool,
    /// Chunk frames recovered.
    pub chunk_frames: usize,
    /// Bytes discarded after the last verifiable frame (0 for a clean
    /// file).
    pub truncated_bytes: u64,
}

impl Recovery {
    /// `true` when the segment was complete: sealed, nothing discarded.
    pub fn is_clean(&self) -> bool {
        self.sealed && self.truncated_bytes == 0
    }
}

/// Body of one verified non-header frame.
enum FrameBody {
    Chunk(Chunk),
    Seal { records: u64, expected: Option<u64> },
}

fn verify_frame(frame: &RawFrame<'_>) -> Result<FrameBody, SegmentError> {
    if wire::crc32(frame.payload) != frame.crc {
        return Err(corrupt("frame checksum mismatch"));
    }
    match frame.payload.first() {
        Some(&KIND_CHUNK) => decode_chunk(frame.payload).map(FrameBody::Chunk),
        Some(&KIND_SEAL) => {
            decode_seal(frame.payload).map(|(records, expected)| FrameBody::Seal { records, expected })
        }
        Some(&KIND_HEADER) => Err(corrupt("header frame repeated mid-segment")),
        Some(&kind) => Err(corrupt(format!("unknown frame kind {kind}"))),
        None => Err(corrupt("empty frame")),
    }
}

/// Recovers a run log from segment bytes, truncating at the first torn
/// or bad-checksum frame, on [`pool::configured_threads`] workers.
///
/// # Errors
///
/// Returns [`SegmentError::Corrupt`] only when the magic or the header
/// frame itself cannot be verified — past the header, damage truncates
/// instead of failing.
pub fn recover_run_log(bytes: &[u8]) -> Result<Recovery, SegmentError> {
    recover_run_log_with_threads(bytes, pool::configured_threads())
}

/// Like [`recover_run_log`] with an explicit worker count. Results are
/// identical at any thread count.
///
/// # Errors
///
/// Returns [`SegmentError::Corrupt`] when the magic or header frame is
/// unverifiable.
pub fn recover_run_log_with_threads(
    bytes: &[u8],
    threads: usize,
) -> Result<Recovery, SegmentError> {
    if bytes.len() < SEGMENT_MAGIC.len() || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return Err(corrupt("missing segment magic"));
    }
    let header_frame = next_frame(bytes, SEGMENT_MAGIC.len())
        .ok_or_else(|| corrupt("header frame torn"))?;
    if wire::crc32(header_frame.payload) != header_frame.crc {
        return Err(corrupt("header frame checksum mismatch"));
    }
    let header = decode_header(header_frame.payload)?;

    // Serial scan: frame boundaries only (length hops — no checksums yet).
    let mut frames: Vec<RawFrame<'_>> = Vec::new();
    let mut cursor = header_frame.end;
    while let Some(frame) = next_frame(bytes, cursor) {
        cursor = frame.end;
        frames.push(frame);
    }

    // Parallel verify + decode; the fold below truncates at the first
    // frame that fails, exactly as a serial scan would.
    let verified = pool::par_map(&frames, threads, verify_frame);

    let mut run = RunLog::new(Vec::new(), header.vocab, header.deployment);
    run.expected_records = header.expected_records;
    let mut sealed = false;
    let mut chunk_frames = 0usize;
    let mut good_end = header_frame.end;
    for (frame, body) in frames.iter().zip(verified) {
        match body {
            // A chunk after the seal means the writer was violated; the
            // seal stays authoritative and the rest is discarded.
            Ok(FrameBody::Chunk(chunk)) if !sealed => {
                run.push_chunk(chunk);
                chunk_frames += 1;
                good_end = frame.end;
            }
            Ok(FrameBody::Seal { records, expected }) if !sealed => {
                if records != run.records.len() as u64 {
                    // The seal disagrees with what precedes it: trust the
                    // verified chunks, drop the seal.
                    break;
                }
                sealed = true;
                run.expected_records = expected;
                good_end = frame.end;
            }
            _ => break,
        }
    }
    Ok(Recovery {
        run,
        sealed,
        chunk_frames,
        truncated_bytes: (bytes.len() - good_end) as u64,
    })
}

/// Strictly reads a *complete* segment: sealed, checksums verified,
/// nothing truncated, on [`pool::configured_threads`] workers.
///
/// # Errors
///
/// Returns [`SegmentError::Corrupt`] for anything [`recover_run_log`]
/// would have had to repair.
pub fn read_run_log(bytes: &[u8]) -> Result<RunLog, SegmentError> {
    read_run_log_with_threads(bytes, pool::configured_threads())
}

/// Like [`read_run_log`] with an explicit worker count.
///
/// # Errors
///
/// Returns [`SegmentError::Corrupt`] on any damage or incompleteness.
pub fn read_run_log_with_threads(bytes: &[u8], threads: usize) -> Result<RunLog, SegmentError> {
    let recovery = recover_run_log_with_threads(bytes, threads)?;
    if !recovery.sealed {
        return Err(corrupt("segment is not sealed (crashed writer?)"));
    }
    if recovery.truncated_bytes != 0 {
        return Err(corrupt(format!(
            "{} bytes of damaged or trailing frames",
            recovery.truncated_bytes
        )));
    }
    Ok(recovery.run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use causeway_core::event::{CallKind, TraceEvent};
    use causeway_core::ids::MethodIndex;
    use causeway_core::record::{CallSite, FunctionKey};
    use causeway_core::uuid::Uuid;

    fn rec(seq: u64) -> ProbeRecord {
        ProbeRecord {
            uuid: Uuid(seq as u128 + 7),
            seq,
            event: TraceEvent::ALL[(seq % 4) as usize],
            kind: CallKind::Sync,
            site: CallSite {
                node: NodeId(0),
                process: ProcessId((seq % 3) as u16),
                thread: LogicalThreadId((seq % 5) as u32),
            },
            func: FunctionKey::new(InterfaceId(1), MethodIndex(0), ObjectId(seq)),
            wall_start: Some(seq * 10),
            wall_end: Some(seq * 10 + 5),
            cpu_start: None,
            cpu_end: None,
            oneway_child: None,
            oneway_parent: None,
        }
    }

    fn sample_run(records: usize) -> RunLog {
        let mut vocab = VocabSnapshot::default();
        vocab.interfaces.push(InterfaceEntry {
            name: "Pipe::Stage".into(),
            methods: vec!["run".into(), "notify".into()],
        });
        vocab.components.push("StageComponent".into());
        vocab.cpu_types.push("HPUX".into());
        vocab.objects.push((
            ObjectId(0),
            ObjectEntry {
                label: "stage#0".into(),
                interface: InterfaceId(0),
                component: ComponentId(0),
                process: ProcessId(1),
            },
        ));
        let mut deployment = Deployment::new();
        let n = deployment.add_node("hp1", CpuTypeId(0));
        deployment.add_process("client", n);
        deployment.add_process("server", n);
        let mut run =
            RunLog::new((0..records as u64).map(rec).collect(), vocab, deployment);
        run.expected_records = Some(records as u64);
        run
    }

    #[test]
    fn round_trips_bit_identically() {
        let run = sample_run(100);
        let bytes = write_run_log(&run);
        let restored = read_run_log(&bytes).unwrap();
        assert_eq!(restored, run);
        // And re-serialization is byte-identical: the format is canonical.
        assert_eq!(write_run_log(&restored), bytes);
    }

    #[test]
    fn empty_run_round_trips() {
        let run = sample_run(0);
        let recovery = recover_run_log(&write_run_log(&run)).unwrap();
        assert!(recovery.is_clean());
        assert_eq!(recovery.run, run);
    }

    #[test]
    fn recovery_truncates_at_a_flipped_bit() {
        let run = sample_run(64);
        let mut bytes = write_run_log_with_frame(&run, 16);
        // Flip one record byte inside the third chunk frame.
        let target = bytes.len() - 200;
        bytes[target] ^= 0x40;
        let recovery = recover_run_log(&bytes).unwrap();
        assert!(!recovery.is_clean());
        assert!(recovery.chunk_frames < 4);
        assert_eq!(
            recovery.run.records,
            run.records[..recovery.run.records.len()],
            "recovered records are a clean prefix"
        );
        assert_eq!(
            recovery.run.missing_records(),
            Some(64 - recovery.run.records.len() as u64),
            "shortfall is exact"
        );
        assert!(read_run_log(&bytes).is_err(), "strict mode refuses damage");
    }

    #[test]
    fn unsealed_segment_recovers_but_fails_strict_read() {
        let run = sample_run(32);
        let full = write_run_log_with_frame(&run, 8);
        // Drop the seal frame (1 + 8 + 9 payload + 8 framing = 26 bytes).
        let seal_len = 8 + 18;
        let bytes = &full[..full.len() - seal_len];
        let recovery = recover_run_log(bytes).unwrap();
        assert!(!recovery.sealed);
        assert_eq!(recovery.run.records, run.records);
        assert_eq!(recovery.run.expected_records, Some(32), "header expectation survives");
        assert!(read_run_log(bytes).is_err());
    }

    #[test]
    fn bad_magic_and_torn_header_fail_outright() {
        assert!(recover_run_log(b"").is_err());
        assert!(recover_run_log(b"NOTSEG!\n rest").is_err());
        let bytes = write_run_log(&sample_run(4));
        // Cut inside the header frame.
        assert!(recover_run_log(&bytes[..SEGMENT_MAGIC.len() + 6]).is_err());
        // Corrupt the header payload.
        let mut broken = bytes.clone();
        broken[SEGMENT_MAGIC.len() + 12] ^= 0xFF;
        assert!(recover_run_log(&broken).is_err());
    }

    #[test]
    fn frames_after_the_seal_are_discarded() {
        let run = sample_run(8);
        let mut bytes = write_run_log_with_frame(&run, 8);
        put_frame(&mut bytes, &encode_chunk(LogicalThreadId(9), &[rec(99)]));
        let recovery = recover_run_log(&bytes).unwrap();
        assert!(recovery.sealed);
        assert_eq!(recovery.run.records, run.records);
        assert!(recovery.truncated_bytes > 0);
        assert!(read_run_log(&bytes).is_err());
    }

    #[test]
    fn recovery_is_thread_count_invariant() {
        let run = sample_run(200);
        let mut bytes = write_run_log_with_frame(&run, 16);
        let target = bytes.len() - 500;
        bytes[target] ^= 1;
        let serial = recover_run_log_with_threads(&bytes, 1).unwrap();
        for threads in [2, 4, 7] {
            let parallel = recover_run_log_with_threads(&bytes, threads).unwrap();
            assert_eq!(parallel.run, serial.run);
            assert_eq!(parallel.truncated_bytes, serial.truncated_bytes);
            assert_eq!(parallel.chunk_frames, serial.chunk_frames);
        }
    }

    #[test]
    fn write_frame_refuses_payloads_the_reader_would_drop() {
        let payload = vec![0u8; MAX_FRAME_BYTES + 1];
        let err = write_frame(&mut Vec::new(), &payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // At the bound itself the frame is still writable and readable.
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload[..MAX_FRAME_BYTES]).unwrap();
        assert!(next_frame(&buf, 0).is_some());
    }

    #[test]
    fn oversized_batches_split_into_multiple_recoverable_frames() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("segment_split_test_{}.cwseg", std::process::id()));
        let run = sample_run(10);
        {
            let mut writer =
                SegmentWriter::create(&path, &run.vocab, &run.deployment, Some(10)).unwrap();
            // A tiny per-frame cap stands in for MAX_CHUNK_RECORDS: one
            // append call, several frames, nothing dropped.
            writer
                .append_records_capped(run.records[0].site.thread, &run.records, 3)
                .unwrap();
            assert_eq!(writer.records_written(), 10);
            writer.finish(Some(10)).unwrap();
        }
        let recovery = recover_run_log(&std::fs::read(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(recovery.is_clean());
        assert_eq!(recovery.chunk_frames, 4, "10 records at 3 per frame");
        assert_eq!(recovery.run.records, run.records);
    }

    #[test]
    fn writer_streams_chunks_and_survives_a_missing_seal() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("segment_writer_test_{}.cwseg", std::process::id()));
        let run = sample_run(40);
        {
            let mut writer =
                SegmentWriter::create(&path, &run.vocab, &run.deployment, Some(40)).unwrap();
            for batch in run.records.chunks(16) {
                writer
                    .append_records(batch[0].site.thread, batch)
                    .unwrap();
            }
            assert_eq!(writer.records_written(), 40);
            // No finish(): simulate a crash before the seal.
        }
        let recovery = recover_run_log(&std::fs::read(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(!recovery.sealed);
        assert_eq!(recovery.run.records, run.records);
        assert_eq!(recovery.run.expected_records, Some(40));
        assert_eq!(recovery.run.missing_records(), None, "nothing was lost");
    }

    #[test]
    fn writer_refuses_to_overwrite_foreign_files() {
        let path = std::env::temp_dir()
            .join(format!("segment_foreign_test_{}.cwseg", std::process::id()));
        let run = sample_run(4);
        let create = || SegmentWriter::create(&path, &run.vocab, &run.deployment, Some(4));
        for foreign in [&b"important unrelated data"[..], b"CWX"] {
            std::fs::write(&path, foreign).unwrap();
            assert_eq!(create().unwrap_err().kind(), io::ErrorKind::InvalidData);
            assert_eq!(std::fs::read(&path).unwrap(), foreign, "the foreign file is untouched");
        }
        // Empty files and earlier segments carry nothing to protect; the
        // rewritten segment is byte-identical to the in-memory encoding.
        for replaceable in [Vec::new(), write_run_log(&sample_run(50))] {
            std::fs::write(&path, replaceable).unwrap();
            let mut writer = create().unwrap();
            writer.append_records(run.records[0].site.thread, &run.records).unwrap();
            writer.finish(Some(4)).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), write_run_log(&run));
        }
        std::fs::remove_file(&path).ok();
    }
}
