//! The record log behind every blob store: one engine, two media.
//!
//! [`Log`] is an append-only log of CRC-checked records over a [`Medium`]
//! — a file for [`crate::FileStore`], a byte buffer for
//! [`crate::MemoryStore`]. Framing, the recovery scan, chunk ingest,
//! manifests and blob readback exist once, here; a backend only decides
//! where the bytes live.
//!
//! Record layout (little-endian), one frame per record:
//!
//! ```text
//! +--------+----------+-----------+-------------+
//! | marker | len: u32 | crc32: u32| payload     |
//! +--------+----------+-----------+-------------+
//! ```
//!
//! Three markers share the framing (storage engine v2):
//!
//! * `0x4B` ('K') — a **v1 blob**: the payload is the logical blob verbatim.
//!   The only record type with chunking off ([`ChunkConfig::disabled`]
//!   produces bit-identical v1 logs), and still what sub-minimum payloads
//!   write.
//! * `0x43` ('C') — a **chunk**: the payload is a stored-form chunk
//!   (`[flag][data]`, optionally compressed — see [`crate::chunk`]).
//!   Chunks get dense ords in append order and are shared across blobs.
//! * `0x4D` ('M') — a **manifest**: one logical blob as
//!   `[raw_len: u64][nchunks: u32][chunk ord: u32 × n]`. A manifest is
//!   always appended *after* every chunk it references, so torn-tail
//!   recovery composes: a blob exists iff its manifest survived.
//!
//! The single-byte record marker plus the CRC over the payload makes torn
//! tail writes detectable: on open, the log is scanned, every intact record
//! is indexed, and the first damaged/truncated record ends recovery — the
//! medium is truncated back to the last intact boundary, exactly the
//! recovery contract of a write-ahead log.
//!
//! **Reads**: [`CheckpointStore::get`] reads each chunk record, header
//! included, with one [`Medium::read_at`] into a buffer reused across the
//! blob's chunks (none for records still in the group-commit buffer),
//! checks its CRC in place on a device, and decodes the chunk straight
//! into the output.
//!
//! **Group commit**: puts append frames to an in-process buffer on the
//! session thread, in plan order, and the buffer reaches the medium at the
//! next [`CheckpointStore::sync`], [`CheckpointStore::flush_barrier`], size
//! threshold, or drop. Reads are served from the buffer transparently, so
//! the logical view never depends on when the buffer drains; with
//! [`Log::set_sync_on_put`] each barrier also syncs the medium.

use std::io;
use std::sync::Mutex;

use crate::chunk::{decode_chunk, stored_chunk_raw_len, ChunkConfig, ChunkLedger, ChunkStats};
use crate::crc32::crc32;
use crate::dedup::content_key;
use crate::{BlobId, CheckpointStore, PutReceipt, StoreStats};

/// Marker of a v1 full-blob record.
pub const MARKER_V1: u8 = 0x4B; // 'K'
/// Marker of a v2 chunk record.
pub const MARKER_CHUNK: u8 = 0x43; // 'C'
/// Marker of a v2 manifest record.
pub const MARKER_MANIFEST: u8 = 0x4D; // 'M'

/// Bytes of framing in front of every record payload.
pub const HEADER_LEN: u64 = 1 + 4 + 4;

/// Group-commit buffer flush threshold: bounds memory, not durability.
const PENDING_FLUSH_BYTES: usize = 8 << 20;

/// Where a log's bytes live. The log only ever writes at its current end
/// and truncates on recovery, so a medium is a resizable byte array.
pub trait Medium {
    /// Current length in bytes.
    fn size(&mut self) -> io::Result<u64>;
    /// Append the `len` bytes starting at `off` to `out`.
    fn read_at(&mut self, off: u64, len: usize, out: &mut Vec<u8>) -> io::Result<()>;
    /// Write `bytes` starting at `off`.
    fn write_at(&mut self, off: u64, bytes: &[u8]) -> io::Result<()>;
    /// Cut the medium back to `len` bytes.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
    /// Make everything written so far durable.
    fn sync(&mut self) -> io::Result<()>;
    /// Whether the medium is a device outside process memory (a file).
    /// Reads from a device can come back torn or rotted, so the log
    /// CRC-checks them, and its operations are I/O, so the log traces them
    /// as `file.*` spans; a buffer in process memory needs neither.
    fn is_device(&self) -> bool {
        true
    }
}

impl<M: Medium + ?Sized> Medium for Box<M> {
    fn size(&mut self) -> io::Result<u64> {
        (**self).size()
    }
    fn read_at(&mut self, off: u64, len: usize, out: &mut Vec<u8>) -> io::Result<()> {
        (**self).read_at(off, len, out)
    }
    fn write_at(&mut self, off: u64, bytes: &[u8]) -> io::Result<()> {
        (**self).write_at(off, bytes)
    }
    fn truncate(&mut self, len: u64) -> io::Result<()> {
        (**self).truncate(len)
    }
    fn sync(&mut self) -> io::Result<()> {
        (**self).sync()
    }
    fn is_device(&self) -> bool {
        (**self).is_device()
    }
}

/// Append a `marker`-framed record to `out`.
fn frame(out: &mut Vec<u8>, marker: u8, payload: &[u8]) {
    out.push(marker);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// One logical blob in the index.
#[derive(Debug)]
enum BlobEntry {
    /// v1 record: (payload offset, payload len).
    V1(u64, u32),
    /// v2 blob: chunk ords in payload order.
    Chunked { raw_len: u64, ords: Vec<u32> },
}

/// Append-only record log with CRC-checked records and recovery, over any
/// [`Medium`].
pub struct Log<M: Medium> {
    medium: Mutex<M>,
    index: Vec<BlobEntry>,
    /// (payload offset, payload len) of each chunk record, by ord.
    chunk_index: Vec<(u64, u32)>,
    ledger: ChunkLedger,
    cfg: ChunkConfig,
    /// Bytes already in the medium (the group-commit buffer starts here).
    flushed_end: u64,
    /// Framed records accepted by `put` but not yet written to the medium.
    pending: Vec<u8>,
    payload_bytes: u64,
    /// The medium is a device: reads are CRC-checked, operations traced
    /// ([`Medium::is_device`]).
    device: bool,
    sync_on_put: bool,
    trace: kishu_trace::Trace,
}

impl<M: Medium> std::fmt::Debug for Log<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Log")
            .field("blobs", &self.index.len())
            .field("chunks", &self.chunk_index.len())
            .field("bytes", &self.end_offset())
            .finish()
    }
}

impl<M: Medium> Log<M> {
    /// Open a log over `medium`, recovering its index by scanning. A torn
    /// or corrupt tail is truncated away; everything before it stays
    /// readable. The scan accepts any mix of v1 and v2 records regardless
    /// of `cfg` — the config only governs how *future* puts are
    /// represented, so logs written under other settings (or by older
    /// versions) stay readable.
    pub fn recover(mut medium: M, cfg: ChunkConfig) -> io::Result<Self> {
        let medium_len = medium.size()?;
        let mut index = Vec::new();
        let mut chunk_index: Vec<(u64, u32)> = Vec::new();
        let mut ledger = ChunkLedger::new();
        let mut payload_bytes = 0u64;
        let mut offset = 0u64;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        let mut buf = Vec::new();
        while offset + HEADER_LEN <= medium_len {
            header.clear();
            medium.read_at(offset, HEADER_LEN as usize, &mut header)?;
            let marker = header[0];
            if !matches!(marker, MARKER_V1 | MARKER_CHUNK | MARKER_MANIFEST) {
                break; // garbage: end recovery here
            }
            let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]);
            let crc = u32::from_le_bytes([header[5], header[6], header[7], header[8]]);
            let payload_off = offset + HEADER_LEN;
            if payload_off + len as u64 > medium_len {
                break; // torn write
            }
            buf.clear();
            medium.read_at(payload_off, len as usize, &mut buf)?;
            if crc32(&buf) != crc {
                break; // corrupted record
            }
            match marker {
                MARKER_V1 => {
                    index.push(BlobEntry::V1(payload_off, len));
                    payload_bytes += len as u64;
                }
                MARKER_CHUNK => {
                    let Ok(raw_len) = stored_chunk_raw_len(&buf) else {
                        break; // CRC-valid but malformed: treat as tail damage
                    };
                    let ord = chunk_index.len() as u32;
                    ledger.register(content_key(&buf), ord, raw_len, len as u64);
                    chunk_index.push((payload_off, len));
                }
                _ => {
                    let Some((raw_len, ords)) = parse_manifest(&buf) else {
                        break;
                    };
                    if ords.iter().any(|&o| o as usize >= chunk_index.len()) {
                        break; // references a chunk recovery never saw
                    }
                    ledger.add_refs(ords.len() as u64);
                    index.push(BlobEntry::Chunked { raw_len, ords });
                    payload_bytes += raw_len;
                }
            }
            offset = payload_off + len as u64;
        }
        // Truncate away anything after the last intact record so appends
        // never interleave with garbage.
        medium.truncate(offset)?;
        let device = medium.is_device();
        Ok(Log {
            medium: Mutex::new(medium),
            index,
            chunk_index,
            ledger,
            cfg,
            flushed_end: offset,
            pending: Vec::new(),
            payload_bytes,
            device,
            sync_on_put: false,
            trace: kishu_trace::Trace::disabled(),
        })
    }

    /// Sync the medium at every [`CheckpointStore::flush_barrier`]
    /// (durability over throughput): the fsync a burst of puts would each
    /// have paid is amortized into one per barrier.
    pub fn set_sync_on_put(&mut self, on: bool) {
        self.sync_on_put = on;
    }

    /// The whole log as bytes — exactly what the medium holds once the
    /// group-commit buffer drains.
    pub fn image(&self) -> io::Result<Vec<u8>> {
        let mut out = Vec::with_capacity(self.end_offset() as usize);
        let medium_len = self.flushed_end as usize;
        self.medium.lock().expect("store lock poisoned").read_at(0, medium_len, &mut out)?;
        out.extend_from_slice(&self.pending);
        Ok(out)
    }

    /// Next append position (medium bytes + buffered bytes).
    fn end_offset(&self) -> u64 {
        self.flushed_end + self.pending.len() as u64
    }

    /// Write the group-commit buffer to the medium (no sync).
    fn flush_pending(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let mut sp = self.trace.span("file.flush_pending");
        sp.arg("bytes", self.pending.len());
        let medium = self.medium.get_mut().expect("store lock poisoned");
        medium.write_at(self.flushed_end, &self.pending)?;
        self.flushed_end += self.pending.len() as u64;
        self.pending.clear();
        Ok(())
    }

    /// Append one framed record to the group-commit buffer, returning its
    /// payload offset.
    fn append_frame(&mut self, marker: u8, payload: &[u8]) -> io::Result<u64> {
        let payload_off = self.end_offset() + HEADER_LEN;
        frame(&mut self.pending, marker, payload);
        if self.pending.len() >= PENDING_FLUSH_BYTES {
            self.flush_pending()?;
        }
        Ok(payload_off)
    }

    /// Read a record's payload (from the buffer if not yet flushed). On a
    /// device the header in front of it is read in the same observation
    /// and its CRC checked against the bytes; `what` names the record in
    /// the error.
    fn read_verified(
        &self,
        payload_off: u64,
        len: u32,
        what: impl FnOnce() -> String,
    ) -> io::Result<Vec<u8>> {
        let mut scratch = Vec::new();
        let record = self.read_record(payload_off, len, &mut scratch)?;
        Ok(self.checked(record, what)?.to_vec())
    }

    /// The whole record, header included, whose payload of `len` bytes
    /// starts at `payload_off`: sliced from the group-commit buffer if not
    /// yet flushed, else read into `scratch` with one read.
    fn read_record<'a>(
        &'a self,
        payload_off: u64,
        len: u32,
        scratch: &'a mut Vec<u8>,
    ) -> io::Result<&'a [u8]> {
        let start = payload_off - HEADER_LEN;
        let total = HEADER_LEN as usize + len as usize;
        if start >= self.flushed_end {
            let i = (start - self.flushed_end) as usize;
            return Ok(&self.pending[i..i + total]);
        }
        scratch.clear();
        self.medium.lock().expect("store lock poisoned").read_at(start, total, scratch)?;
        Ok(scratch)
    }

    /// The payload of one whole `record` (header included). On a device
    /// its CRC is checked first; `what` names the record in the error.
    fn checked<'a>(&self, record: &'a [u8], what: impl FnOnce() -> String) -> io::Result<&'a [u8]> {
        let payload = &record[HEADER_LEN as usize..];
        if self.device {
            let crc = u32::from_le_bytes([record[5], record[6], record[7], record[8]]);
            if crc32(payload) != crc {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{} failed its integrity check", what()),
                ));
            }
        }
        Ok(payload)
    }
}

/// Manifest payload: `[raw_len: u64][nchunks: u32][ord: u32 × n]`.
fn encode_manifest(raw_len: u64, ords: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + 4 * ords.len());
    out.extend_from_slice(&raw_len.to_le_bytes());
    out.extend_from_slice(&(ords.len() as u32).to_le_bytes());
    for &o in ords {
        out.extend_from_slice(&o.to_le_bytes());
    }
    out
}

fn parse_manifest(payload: &[u8]) -> Option<(u64, Vec<u32>)> {
    if payload.len() < 12 {
        return None;
    }
    let raw_len = u64::from_le_bytes(payload[..8].try_into().ok()?);
    let n = u32::from_le_bytes(payload[8..12].try_into().ok()?) as usize;
    if payload.len() != 12 + 4 * n {
        return None;
    }
    let ords = payload[12..]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Some((raw_len, ords))
}

impl<M: Medium> CheckpointStore for Log<M> {
    fn put(&mut self, bytes: &[u8]) -> io::Result<BlobId> {
        self.put_with_receipt(bytes).map(|r| r.id)
    }

    fn put_with_receipt(&mut self, bytes: &[u8]) -> io::Result<PutReceipt> {
        if bytes.len() > u32::MAX as usize {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "blob too large"));
        }
        let mut sp = self.trace.span("file.put");
        sp.arg("bytes", bytes.len());
        self.trace.observe("file.put_bytes", bytes.len() as u64);
        let id = self.index.len() as BlobId;

        if !self.cfg.chunks_payload(bytes.len()) {
            let payload_off = self.append_frame(MARKER_V1, bytes)?;
            self.index.push(BlobEntry::V1(payload_off, bytes.len() as u32));
            self.payload_bytes += bytes.len() as u64;
            return Ok(PutReceipt {
                id,
                bytes_written: HEADER_LEN + bytes.len() as u64,
                ..PutReceipt::default()
            });
        }

        // Chunked put: new chunks first, then the manifest that makes the
        // blob exist — recovery-ordering invariant of the v2 format.
        let mut ledger = std::mem::take(&mut self.ledger);
        let cfg = self.cfg.clone();
        let result = ledger.ingest(bytes, &cfg, |stored| {
            let payload_off = self.append_frame(MARKER_CHUNK, stored)?;
            let ord = self.chunk_index.len() as u32;
            self.chunk_index.push((payload_off, stored.len() as u32));
            Ok(ord)
        });
        self.ledger = ledger;
        let (ords, r) = result?;
        let manifest = encode_manifest(bytes.len() as u64, &ords);
        let manifest_len = manifest.len() as u64;
        self.append_frame(MARKER_MANIFEST, &manifest)?;
        self.index.push(BlobEntry::Chunked {
            raw_len: bytes.len() as u64,
            ords,
        });
        self.payload_bytes += bytes.len() as u64;
        self.trace.observe("file.chunks_written", r.chunks_written);
        self.trace.observe("file.chunks_deduped", r.chunks_deduped);
        Ok(PutReceipt {
            id,
            bytes_written: r.stored_bytes_written
                + r.chunks_written * HEADER_LEN
                + HEADER_LEN
                + manifest_len,
            chunks_written: r.chunks_written,
            chunks_deduped: r.chunks_deduped,
            bytes_compressed: r.raw_bytes_written.saturating_sub(r.stored_bytes_written),
        })
    }

    fn get(&self, id: BlobId) -> io::Result<Vec<u8>> {
        let entry = self
            .index
            .get(id as usize)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no blob {id}")))?;
        let mut sp = self.trace.span("file.get");
        sp.arg("blob", id);
        match entry {
            BlobEntry::V1(off, len) => {
                sp.arg("bytes", *len);
                self.trace.observe("file.get_bytes", *len as u64);
                self.read_verified(*off, *len, || format!("blob {id}"))
            }
            BlobEntry::Chunked { raw_len, ords } => {
                sp.arg("bytes", *raw_len);
                self.trace.observe("file.get_bytes", *raw_len);
                let mut out = Vec::with_capacity(*raw_len as usize);
                let mut scratch = Vec::new();
                for &ord in ords {
                    let (off, len) = *self.chunk_index.get(ord as usize).ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("blob {id} references missing chunk {ord}"),
                        )
                    })?;
                    let record = self.read_record(off, len, &mut scratch)?;
                    let stored = self.checked(record, || format!("blob {id} chunk {ord}"))?;
                    decode_chunk(stored, &mut out)?;
                }
                if out.len() as u64 != *raw_len {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("blob {id} reassembled to the wrong length"),
                    ));
                }
                Ok(out)
            }
        }
    }

    fn blob_count(&self) -> u64 {
        self.index.len() as u64
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            blobs: self.index.len() as u64,
            payload_bytes: self.payload_bytes,
            physical_bytes: self.end_offset(),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        let _sp = self.trace.span("file.sync");
        self.flush_pending()?;
        self.medium.get_mut().expect("store lock poisoned").sync()
    }

    fn flush_barrier(&mut self) -> io::Result<()> {
        let _sp = self.trace.span("file.flush_barrier");
        self.flush_pending()?;
        if self.sync_on_put {
            // The syncs the burst of puts skipped, amortized into one.
            self.medium.get_mut().expect("store lock poisoned").sync()?;
        }
        Ok(())
    }

    fn chunk_stats(&self) -> Option<ChunkStats> {
        self.cfg.enabled.then(|| self.ledger.stats())
    }

    fn chunk_config(&self) -> Option<ChunkConfig> {
        Some(self.cfg.clone())
    }

    fn attach_trace(&mut self, trace: &kishu_trace::Trace) {
        if self.device {
            self.trace = trace.clone();
        }
    }
}

impl<M: Medium> Drop for Log<M> {
    fn drop(&mut self) {
        // Best-effort: buffered records reach the medium before the handle
        // goes away (crash simulations that *want* lost buffers truncate
        // the file instead of dropping the store).
        let _ = self.flush_pending();
    }
}
