//! Content-defined chunking for the storage engine v2.
//!
//! Blob-level dedup misses the dominant notebook pattern: one large object
//! mutated slightly each cell produces a brand-new sealed payload every
//! time, so whole-payload content keys never match. Splitting payloads at
//! *content-determined* boundaries (a Gear rolling hash, as in FastCDC and
//! its ancestors) fixes that: a one-byte edit moves at most the chunk it
//! lands in and its immediate neighbor, and every other chunk keeps its
//! exact bytes — and therefore its dedup key.
//!
//! This module owns the three pieces the stores share:
//!
//! * [`ChunkConfig`] — the representation settings, fixed at store
//!   construction and passed in by the caller (this crate reads no
//!   environment);
//! * [`chunk_spans`] — the deterministic cutter;
//! * [`ChunkLedger`] — chunk-level dedup (by stored-form content key) with
//!   refcounts and the [`ChunkStats`] aggregate.
//!
//! Chunks are persisted in their **stored form**: a one-byte flag (`0` =
//! stored raw, `1` = compressed with [`kishu_testkit::compress`]) followed
//! by the data. A chunk is compressed only if the encoder's early exit lets
//! it finish (its first KiB saves at least 1/16 —
//! [`compress::try_compress_into`]) and the result is smaller than the raw
//! bytes; otherwise it is stored raw, so an incompressible chunk costs one
//! flag byte and about a KiB of encoding work. Both decisions depend only
//! on the chunk's bytes, and the compressor is canonical (same input, same
//! output), so deduplicating on the stored form is equivalent to
//! deduplicating on the raw chunk bytes — and lets the log's recovery scan
//! rebuild the dedup map from disk without decompressing anything. Logs
//! written before the early exit existed hold a chunk that compresses only
//! past its first KiB in compressed form; put again, it misses dedup
//! against that record and is stored once more, raw.
//!
//! The cutter's rolling hash depends only on the last 64 bytes it saw, so
//! it starts each chunk's hash `min − 64` bytes in: no cut can fall before
//! `min`, and the bytes it skips would have shifted out of the hash anyway.
//!
//! Everything here is representation-only: with chunking on or off, a
//! store's logical view (ids, payloads, stats minus physical bytes) is
//! byte-identical. The kill-switch ([`ChunkConfig::disabled`]) produces
//! bit-identical v1 log frames.

use std::collections::HashMap;
use std::io;

use kishu_testkit::compress;

use crate::dedup::{content_key, ContentKey};

/// Chunk stored-form flag: raw bytes follow.
pub const CHUNK_STORED: u8 = 0;
/// Chunk stored-form flag: compressed bytes follow.
pub const CHUNK_COMPRESSED: u8 = 1;

/// 256-entry Gear table, fixed for the lifetime of the on-disk format
/// (changing it re-cuts every payload and orphans existing chunks).
/// Generated by splitmix64 from a fixed seed at compile time.
static GEAR: [u64; 256] = gear_table();

const fn gear_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut state: u64 = 0x4B49_5348_5543_4443; // "KISHUCDC"
    let mut i = 0;
    while i < 256 {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        table[i] = z ^ (z >> 31);
        i += 1;
    }
    table
}

/// Chunking/compression settings, fixed at store construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkConfig {
    /// Master switch (default on). Off means every put writes a
    /// bit-identical v1 frame.
    pub enabled: bool,
    /// Per-chunk compression (default on).
    pub compress: bool,
    /// Minimum chunk size; payloads smaller than this bypass chunking
    /// entirely.
    pub min: usize,
    /// Target average chunk size; rounded up to a power of two for the
    /// boundary mask.
    pub avg: usize,
    /// Hard maximum chunk size.
    pub max: usize,
}

impl Default for ChunkConfig {
    fn default() -> Self {
        ChunkConfig {
            enabled: true,
            compress: true,
            min: 2048,
            avg: 8192,
            max: 65536,
        }
    }
}

impl ChunkConfig {
    /// The v1 behavior: no chunking, no compression.
    pub fn disabled() -> Self {
        ChunkConfig {
            enabled: false,
            compress: false,
            ..ChunkConfig::default()
        }
    }

    /// Whether `len` payload bytes should be chunked at all under this
    /// config (tiny payloads stay v1 frames even with chunking on).
    pub fn chunks_payload(&self, len: usize) -> bool {
        self.enabled && len >= self.min
    }

    /// Boundary mask: a cut point is where the rolling hash has this many
    /// trailing zeros, giving `avg.next_power_of_two()` expected spacing.
    fn mask(&self) -> u64 {
        (self.avg.next_power_of_two() as u64) - 1
    }
}

/// Bytes of input the Gear hash remembers: each step shifts the hash one
/// bit left, so a byte's contribution is gone 64 steps later.
const GEAR_WINDOW: usize = 64;

/// Split `bytes` at content-determined boundaries. Deterministic: the cut
/// points depend only on the bytes and the config. Every span is within
/// `[min, max]` except possibly the final one (which may be shorter).
///
/// A span ends after the first byte, at least `min` bytes in, where the
/// Gear hash of the span so far has no bits under the mask set, or after
/// `max` bytes if none does.
pub fn chunk_spans(bytes: &[u8], cfg: &ChunkConfig) -> Vec<std::ops::Range<usize>> {
    let mask = cfg.mask();
    let (min, max) = (cfg.min.max(1), cfg.max.max(1));
    let mut spans = Vec::with_capacity(bytes.len() / cfg.avg.max(1) + 1);
    let mut start = 0usize;
    while start < bytes.len() {
        let limit = bytes.len().min(start + max);
        // The first byte a cut may follow, and the window of bytes before
        // it that its hash still remembers.
        let first = (start + min - 1).min(limit);
        let warm = (start + min).saturating_sub(GEAR_WINDOW).clamp(start, first);
        let mut hash = 0u64;
        for &b in &bytes[warm..first] {
            hash = (hash << 1).wrapping_add(GEAR[b as usize]);
        }
        let mut end = limit;
        for (pos, &b) in bytes[first..limit].iter().enumerate() {
            hash = (hash << 1).wrapping_add(GEAR[b as usize]);
            if hash & mask == 0 {
                end = first + pos + 1;
                break;
            }
        }
        spans.push(start..end);
        start = end;
    }
    spans
}

/// Encode one raw chunk into its stored form: `[flag][data]`, compressed
/// only when the encoder's early exit lets it finish and the result is
/// smaller than the raw bytes.
pub fn encode_chunk(raw: &[u8], compress_enabled: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + raw.len());
    if compress_enabled {
        out.push(CHUNK_COMPRESSED);
        // `out` holds the flag byte too: the stream is shorter than `raw`.
        if compress::try_compress_into(raw, &mut out) && out.len() <= raw.len() {
            return out;
        }
        out.clear();
    }
    out.push(CHUNK_STORED);
    out.extend_from_slice(raw);
    out
}

/// Decode a stored-form chunk, appending its raw bytes to `out`.
pub fn decode_chunk(stored: &[u8], out: &mut Vec<u8>) -> io::Result<()> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    match stored.split_first() {
        Some((&CHUNK_STORED, data)) => out.extend_from_slice(data),
        Some((&CHUNK_COMPRESSED, data)) => {
            compress::decompress_into(data, out).ok_or_else(|| bad("chunk failed to decompress"))?;
        }
        Some(_) => return Err(bad("unknown chunk flag")),
        None => return Err(bad("empty chunk record")),
    }
    Ok(())
}

/// Raw (pre-compression) length of a stored-form chunk, without
/// decompressing: the compressed stream leads with a varint of its raw
/// length, and a stored chunk's raw length is just its data length.
pub fn stored_chunk_raw_len(stored: &[u8]) -> io::Result<u64> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    match stored.split_first() {
        Some((&CHUNK_STORED, data)) => Ok(data.len() as u64),
        Some((&CHUNK_COMPRESSED, data)) => {
            let mut v = 0u64;
            let mut shift = 0u32;
            for &byte in data.iter().take(10) {
                v |= u64::from(byte & 0x7F) << shift;
                if byte & 0x80 == 0 {
                    return Ok(v);
                }
                shift += 7;
            }
            Err(bad("chunk varint header truncated"))
        }
        Some(_) => Err(bad("unknown chunk flag")),
        None => Err(bad("empty chunk record")),
    }
}

/// Aggregate chunk-level accounting for a store
/// ([`crate::CheckpointStore::chunk_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkStats {
    /// Distinct stored chunks.
    pub chunks: u64,
    /// Total references onto them (≥ `chunks`; the gap is dedup wins).
    pub chunk_refs: u64,
    /// Raw bytes across distinct chunks (pre-compression).
    pub raw_bytes: u64,
    /// Stored bytes across distinct chunks (post-compression, incl. flag).
    pub stored_bytes: u64,
}

impl ChunkStats {
    /// Logical-over-physical dedup ratio at the chunk level.
    pub fn dedup_ratio(&self) -> f64 {
        if self.chunks == 0 {
            return 1.0;
        }
        self.chunk_refs as f64 / self.chunks as f64
    }

    /// Raw-over-stored compression ratio across distinct chunks.
    pub fn compression_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            return 1.0;
        }
        self.raw_bytes as f64 / self.stored_bytes as f64
    }
}

/// Per-put attribution deltas returned by [`ChunkLedger::ingest`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestReceipt {
    /// New chunks this payload appended to the store.
    pub chunks_written: u64,
    /// Chunks this payload shared with already-stored data.
    pub chunks_deduped: u64,
    /// Stored bytes the new chunks occupy (what was physically appended).
    pub stored_bytes_written: u64,
    /// Raw bytes the new chunks represent (so `raw - stored` is the
    /// compression saving on the written portion).
    pub raw_bytes_written: u64,
}

/// Chunk-level dedup index and accounting.
///
/// Ords are dense, assigned in append order by the owning store; the
/// ledger maps stored-form content keys to ords so repeat chunks resolve
/// to the existing ord without touching the store.
#[derive(Debug, Default)]
pub struct ChunkLedger {
    dedup: HashMap<ContentKey, u32>,
    stats: ChunkStats,
}

impl ChunkLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Chunk a payload into the store: cut spans, encode each chunk, and
    /// either dedup it against the ledger or hand it to `append` (which
    /// stores the bytes and returns the new ord). Returns the manifest
    /// (ord per span, in payload order) and the attribution deltas.
    pub fn ingest<F>(
        &mut self,
        bytes: &[u8],
        cfg: &ChunkConfig,
        mut append: F,
    ) -> io::Result<(Vec<u32>, IngestReceipt)>
    where
        F: FnMut(&[u8]) -> io::Result<u32>,
    {
        let spans = chunk_spans(bytes, cfg);
        let mut ords = Vec::with_capacity(spans.len());
        let mut receipt = IngestReceipt::default();
        for span in spans {
            let raw = &bytes[span];
            let stored = encode_chunk(raw, cfg.compress);
            let key = content_key(&stored);
            let ord = match self.dedup.get(&key) {
                Some(&ord) => {
                    receipt.chunks_deduped += 1;
                    ord
                }
                None => {
                    let ord = append(&stored)?;
                    self.register(key, ord, raw.len() as u64, stored.len() as u64);
                    receipt.chunks_written += 1;
                    receipt.stored_bytes_written += stored.len() as u64;
                    receipt.raw_bytes_written += raw.len() as u64;
                    ord
                }
            };
            ords.push(ord);
        }
        self.add_refs(ords.len() as u64);
        Ok((ords, receipt))
    }

    /// Record an already-stored chunk (recovery on `open` replays the log
    /// through this). `ord` must be the next dense ord.
    pub fn register(&mut self, key: ContentKey, ord: u32, raw_len: u64, stored_len: u64) {
        debug_assert_eq!(ord as u64, self.stats.chunks, "ords must stay dense");
        self.dedup.insert(key, ord);
        self.stats.chunks += 1;
        self.stats.raw_bytes += raw_len;
        self.stats.stored_bytes += stored_len;
    }

    /// Count `n` more manifest slots pointing at stored chunks.
    pub fn add_refs(&mut self, n: u64) {
        self.stats.chunk_refs += n;
    }

    /// Aggregate accounting.
    pub fn stats(&self) -> ChunkStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kishu_testkit::rng::Rng;

    fn payload(seed: u64, len: usize) -> Vec<u8> {
        // Low-entropy structured bytes: compressible like real sealed
        // payloads, varied enough to produce distinct chunks.
        let mut rng = Rng::seed_from_u64(seed);
        (0..len).map(|i| ((rng.next_u64() % 17) as u8).wrapping_add((i / 512) as u8)).collect()
    }

    #[test]
    fn spans_partition_the_payload() {
        let cfg = ChunkConfig::default();
        let data = payload(1, 300_000);
        let spans = chunk_spans(&data, &cfg);
        let mut expect = 0usize;
        for s in &spans {
            assert_eq!(s.start, expect, "spans are contiguous");
            assert!(s.end > s.start);
            expect = s.end;
        }
        assert_eq!(expect, data.len(), "spans cover the payload");
        for s in &spans[..spans.len() - 1] {
            assert!(s.len() >= cfg.min && s.len() <= cfg.max, "span {}B", s.len());
        }
        assert!(spans.last().expect("nonempty").len() <= cfg.max);
        assert!(spans.len() > 2, "300KB must cut into several chunks");
    }

    /// The per-byte cutter: hashes every byte of every span from its
    /// start, and checks the cut rule at every position.
    fn reference_spans(bytes: &[u8], cfg: &ChunkConfig) -> Vec<std::ops::Range<usize>> {
        let mask = cfg.mask();
        let mut spans = Vec::new();
        let mut start = 0usize;
        let mut hash = 0u64;
        for (pos, &b) in bytes.iter().enumerate() {
            hash = (hash << 1).wrapping_add(GEAR[b as usize]);
            let len = pos - start + 1;
            if (len >= cfg.min && hash & mask == 0) || len >= cfg.max {
                spans.push(start..pos + 1);
                start = pos + 1;
                hash = 0;
            }
        }
        if start < bytes.len() {
            spans.push(start..bytes.len());
        }
        spans
    }

    #[test]
    fn skip_ahead_cutter_matches_the_per_byte_reference() {
        let mut rng = Rng::seed_from_u64(0x6EA2);
        let random: Vec<u8> = (0..200_000).map(|_| rng.next_u64() as u8).collect();
        let inputs = [
            ("random", random),
            ("structured", payload(5, 200_000)),
            ("zeros", vec![0u8; 200_000]),
            ("short", payload(6, 100)),
            ("empty", Vec::new()),
        ];
        let cfg = |min, avg, max| ChunkConfig { min, avg, max, ..ChunkConfig::default() };
        let configs = [
            ChunkConfig::default(),
            cfg(0, 16, 64),
            cfg(1, 32, 100),
            cfg(16, 64, 256),
            cfg(63, 128, 1024),
            cfg(64, 128, 1024),
            cfg(65, 128, 1024),
            cfg(100, 256, 150),
            cfg(512, 64, 4096),
            cfg(4096, 1024, 1000),
        ];
        for (name, data) in &inputs {
            for c in &configs {
                assert_eq!(
                    chunk_spans(data, c),
                    reference_spans(data, c),
                    "{name} input, min {} avg {} max {}",
                    c.min,
                    c.avg,
                    c.max
                );
            }
        }
    }

    #[test]
    fn cutting_is_deterministic() {
        let cfg = ChunkConfig::default();
        let data = payload(2, 100_000);
        assert_eq!(chunk_spans(&data, &cfg), chunk_spans(&data, &cfg));
    }

    #[test]
    fn one_byte_insert_changes_o1_chunks() {
        // The boundary-stability property that makes CDC beat fixed-size
        // blocks: an insert only re-cuts the chunk it lands in (plus, at
        // worst, a neighbor); all other chunks keep their exact bytes.
        let cfg = ChunkConfig::default();
        let base = payload(3, 400_000);
        let mut edited = base.clone();
        edited.insert(base.len() / 2, 0xEE);

        let keys = |data: &[u8]| -> std::collections::HashSet<ContentKey> {
            chunk_spans(data, &cfg).into_iter().map(|s| content_key(&data[s])).collect()
        };
        let a = keys(&base);
        let b = keys(&edited);
        let changed = a.symmetric_difference(&b).count();
        assert!(a.len() > 20, "enough chunks to make the property meaningful");
        assert!(
            changed <= 6,
            "a 1-byte insert changed {changed} of {} chunks (want O(1))",
            a.len()
        );
    }

    fn decoded(stored: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        decode_chunk(stored, &mut out).expect("decode");
        out
    }

    #[test]
    fn encode_decode_roundtrip_and_incompressible_cost() {
        let compressible = vec![7u8; 10_000];
        let stored = encode_chunk(&compressible, true);
        assert_eq!(stored[0], CHUNK_COMPRESSED);
        assert!(stored.len() < 1_000);
        assert_eq!(decoded(&stored), compressible);
        assert_eq!(stored_chunk_raw_len(&stored).expect("raw len"), 10_000);

        let mut rng = Rng::seed_from_u64(9);
        let incompressible: Vec<u8> = (0..4096).map(|_| rng.next_u64() as u8).collect();
        let stored = encode_chunk(&incompressible, true);
        assert_eq!(stored[0], CHUNK_STORED, "compression that loses is not kept");
        assert_eq!(stored.len(), incompressible.len() + 1, "exactly one flag byte of cost");
        assert_eq!(decoded(&stored), incompressible);
        assert_eq!(stored_chunk_raw_len(&stored).expect("raw len"), 4096);

        let plain = encode_chunk(&compressible, false);
        assert_eq!(plain[0], CHUNK_STORED);
        assert_eq!(decoded(&plain), compressible);
    }

    #[test]
    fn a_chunk_the_early_exit_declines_is_stored_raw() {
        // Compressible as a whole, but its first KiB is noise.
        let mut rng = Rng::seed_from_u64(10);
        let mut raw: Vec<u8> = (0..1024).map(|_| rng.next_u64() as u8).collect();
        raw.resize(8192, 0);
        assert!(compress::compress(&raw).len() < raw.len() / 2);
        let stored = encode_chunk(&raw, true);
        assert_eq!(stored[0], CHUNK_STORED);
        assert_eq!(decoded(&stored), raw);
    }

    #[test]
    fn ledger_dedups_repeat_chunks() {
        let cfg = ChunkConfig::default();
        let mut ledger = ChunkLedger::new();
        let mut store: Vec<Vec<u8>> = Vec::new();
        let mut append = |chunks: &mut Vec<Vec<u8>>, stored: &[u8]| -> io::Result<u32> {
            chunks.push(stored.to_vec());
            Ok((chunks.len() - 1) as u32)
        };

        let data = payload(4, 120_000);
        let (ords1, r1) = ledger.ingest(&data, &cfg, |s| append(&mut store, s)).expect("ingest");
        assert_eq!(r1.chunks_deduped, 0);
        assert_eq!(r1.chunks_written as usize, store.len());

        // The same payload again: every chunk dedups, nothing is appended.
        let before = store.len();
        let (ords2, r2) = ledger.ingest(&data, &cfg, |s| append(&mut store, s)).expect("ingest");
        assert_eq!(ords2, ords1);
        assert_eq!(store.len(), before, "no new chunks");
        assert_eq!(r2.chunks_written, 0);
        assert_eq!(r2.chunks_deduped, ords1.len() as u64);
        assert_eq!(r2.stored_bytes_written, 0);

        // A small mutation: only a couple of chunks are new.
        let mut edited = data.clone();
        edited[60_000] ^= 0xFF;
        let (_, r3) = ledger.ingest(&edited, &cfg, |s| append(&mut store, s)).expect("ingest");
        assert!(
            r3.chunks_written <= 3,
            "1-byte edit rewrote {} chunks of {}",
            r3.chunks_written,
            ords1.len()
        );
        assert!(r3.chunks_deduped as usize >= ords1.len() - 3);

        let st = ledger.stats();
        assert_eq!(st.chunks, store.len() as u64);
        assert_eq!(st.chunk_refs, (ords1.len() + ords2.len()) as u64 + r3.chunks_written + r3.chunks_deduped);
        assert!(st.dedup_ratio() > 2.0, "ratio {}", st.dedup_ratio());
    }

    #[test]
    fn env_defaults_are_sane() {
        let cfg = ChunkConfig::default();
        assert!(cfg.enabled && cfg.compress);
        assert!(cfg.min <= cfg.avg && cfg.avg <= cfg.max);
        let off = ChunkConfig::disabled();
        assert!(!off.enabled && !off.compress);
        assert!(!off.chunks_payload(1 << 20));
        assert!(cfg.chunks_payload(cfg.min) && !cfg.chunks_payload(cfg.min - 1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use kishu_testkit::prelude::*;

    /// Chunk-sized payloads: noise, low-entropy runs, and the two mixed
    /// around the encoder's early-exit probe.
    fn chunk() -> BoxedStrategy<Vec<u8>> {
        let noise = || prop::collection::vec(any::<u8>(), 0usize..4096);
        let runs = || prop::collection::vec(0u8..3, 0usize..8192);
        prop_oneof![
            noise().boxed(),
            runs().boxed(),
            (noise(), runs()).prop_map(|(a, b)| [a, b].concat()).boxed(),
            (runs(), noise()).prop_map(|(a, b)| [a, b].concat()).boxed(),
        ]
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn stored_form_is_canonical_and_round_trips(raw in chunk()) {
            let stored = encode_chunk(&raw, true);
            let full = compress::compress(&raw);
            match stored[0] {
                // Compressed chunks hold exactly the full encoder's bytes,
                // and only when those are smaller.
                CHUNK_COMPRESSED => {
                    prop_assert_eq!(&stored[1..], &full[..]);
                    prop_assert!(full.len() < raw.len());
                }
                _ => prop_assert_eq!(&stored[1..], &raw[..]),
            }
            let mut out = vec![0xEE];
            decode_chunk(&stored, &mut out).expect("decode");
            prop_assert_eq!(&out[1..], &raw[..]);
            prop_assert_eq!(stored_chunk_raw_len(&stored).expect("raw len"), raw.len() as u64);
        }
    }
}
