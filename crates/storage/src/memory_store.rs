//! In-memory blob store: the record log ([`crate::record_log`]) held in a
//! byte buffer.

use std::io;

use crate::chunk::ChunkConfig;
use crate::record_log::{Log, Medium};

/// Blob store backed by process memory — the paper's §6.1 notes users can
/// pick one "to maximize checkpointing/checkout efficiency" — and the
/// default for unit tests and algorithm-isolating benchmarks.
///
/// It is the same record log as [`crate::FileStore`], so its buffer holds
/// exactly the bytes a file store would write for the same puts, and its
/// physical accounting (receipts, `stats().physical_bytes`) includes the
/// record framing.
pub type MemoryStore = Log<Vec<u8>>;

impl Medium for Vec<u8> {
    fn size(&mut self) -> io::Result<u64> {
        Ok(self.len() as u64)
    }
    fn read_at(&mut self, off: u64, len: usize, out: &mut Vec<u8>) -> io::Result<()> {
        let start = off as usize;
        out.extend_from_slice(self.get(start..start + len).ok_or(io::ErrorKind::UnexpectedEof)?);
        Ok(())
    }
    fn write_at(&mut self, off: u64, bytes: &[u8]) -> io::Result<()> {
        Vec::truncate(self, off as usize);
        self.extend_from_slice(bytes);
        Ok(())
    }
    fn truncate(&mut self, len: u64) -> io::Result<()> {
        Vec::truncate(self, len as usize);
        Ok(())
    }
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
    fn is_device(&self) -> bool {
        false
    }
}

impl Default for MemoryStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryStore {
    /// Empty store with the default chunking configuration.
    pub fn new() -> Self {
        Self::with_config(ChunkConfig::default())
    }

    /// Empty store with an explicit chunking configuration.
    pub fn with_config(cfg: ChunkConfig) -> Self {
        Log::recover(Vec::new(), cfg).expect("an empty buffer always recovers")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{each_chunk_config, CheckpointStore};

    #[test]
    fn ids_are_dense_and_ordered() {
        for cfg in each_chunk_config() {
            let mut s = MemoryStore::with_config(cfg);
            assert_eq!(s.put(b"a").expect("put"), 0);
            assert_eq!(s.put(b"b").expect("put"), 1);
            assert_eq!(s.get(1).expect("get"), b"b");
        }
    }

    #[test]
    fn missing_blob_is_not_found() {
        for cfg in each_chunk_config() {
            let s = MemoryStore::with_config(cfg);
            let err = s.get(3).expect_err("missing");
            assert_eq!(err.kind(), io::ErrorKind::NotFound);
        }
    }

    #[test]
    fn chunked_blobs_roundtrip_and_dedup() {
        let mut s = MemoryStore::with_config(ChunkConfig::default());
        let big: Vec<u8> = (0..200_000u32).map(|i| (i % 13) as u8 ^ (i / 999) as u8).collect();
        let r1 = s.put_with_receipt(&big).expect("put");
        assert!(r1.chunks_written > 1, "large payload must chunk");
        assert_eq!(s.get(r1.id).expect("get"), big);

        // A small mutation shares almost every chunk with the original.
        let mut edited = big.clone();
        edited[100_000] ^= 0x55;
        let r2 = s.put_with_receipt(&edited).expect("put");
        assert!(r2.chunks_written <= 3, "wrote {} chunks", r2.chunks_written);
        assert!(r2.chunks_deduped > r2.chunks_written);
        assert!(r2.bytes_written < big.len() as u64 / 4);
        assert_eq!(s.get(r2.id).expect("get"), edited);

        // Logical stats are representation-independent; physical shrinks.
        let st = s.stats();
        assert_eq!(st.blobs, 2);
        assert_eq!(st.payload_bytes, 2 * big.len() as u64);
        assert!(st.physical_bytes < st.payload_bytes);
        let cs = s.chunk_stats().expect("chunking on");
        assert!(cs.chunk_refs > cs.chunks, "dedup must have fired");
    }

    #[test]
    fn disabled_config_reports_no_chunk_stats() {
        let mut s = MemoryStore::with_config(ChunkConfig::disabled());
        let big = vec![3u8; 100_000];
        let r = s.put_with_receipt(&big).expect("put");
        assert_eq!(r.bytes_written, big.len() as u64 + 9, "v1 writes one framed record");
        assert_eq!(r.chunks_written, 0);
        assert_eq!(s.chunk_stats(), None);
        assert_eq!(s.stats().physical_bytes, big.len() as u64 + 9);
    }
}
