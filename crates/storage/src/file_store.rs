//! Durable blob store: the record log ([`crate::record_log`]) over a file.
//!
//! The file holds exactly the log's bytes — record framing, torn-tail
//! recovery on open and group commit are the engine's; this module only
//! opens the file and adapts it to the [`Medium`] interface.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::chunk::ChunkConfig;
use crate::record_log::{Log, Medium};

/// Append-only log-file blob store with CRC-checked records and recovery.
pub type FileStore = Log<File>;

impl Medium for File {
    fn size(&mut self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }
    fn read_at(&mut self, off: u64, len: usize, out: &mut Vec<u8>) -> io::Result<()> {
        let start = out.len();
        out.resize(start + len, 0);
        self.seek(SeekFrom::Start(off))?;
        self.read_exact(&mut out[start..])
    }
    fn write_at(&mut self, off: u64, bytes: &[u8]) -> io::Result<()> {
        self.seek(SeekFrom::Start(off))?;
        self.write_all(bytes)
    }
    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.set_len(len)
    }
    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }
}

/// Open `path` read-write; `create` makes a new, empty file (truncating
/// any existing one) instead of requiring an existing one.
pub(crate) fn open_file(path: &Path, create: bool) -> io::Result<File> {
    OpenOptions::new().read(true).write(true).create(create).truncate(create).open(path)
}

impl FileStore {
    /// Create a new, empty log at `path` (truncating any existing file),
    /// with the default chunking configuration.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::create_with(path, ChunkConfig::default())
    }

    /// Create with an explicit chunking configuration.
    pub fn create_with(path: impl AsRef<Path>, cfg: ChunkConfig) -> io::Result<Self> {
        Log::recover(open_file(path.as_ref(), true)?, cfg)
    }

    /// Open an existing log, recovering its index by scanning. A torn or
    /// corrupt tail is truncated away; everything before it stays readable.
    /// New puts use the default chunking configuration.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::open_with(path, ChunkConfig::default())
    }

    /// Open with an explicit chunking configuration, which governs only
    /// how future puts are represented (see [`Log::recover`]).
    pub fn open_with(path: impl AsRef<Path>, cfg: ChunkConfig) -> io::Result<Self> {
        Log::recover(open_file(path.as_ref(), false)?, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc32::crc32;
    use crate::each_chunk_config;
    use crate::record_log::{HEADER_LEN, MARKER_CHUNK, MARKER_MANIFEST, MARKER_V1};
    use crate::CheckpointStore;
    use kishu_testkit::hash::xxh64;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kishu-fs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn roundtrip_and_reopen() {
        for cfg in each_chunk_config() {
            let path = temp_path("reopen.log");
            {
                let mut s = FileStore::create_with(&path, cfg.clone()).expect("create");
                s.put(b"one").expect("put");
                s.put(b"two").expect("put");
                s.sync().expect("sync");
            }
            let s = FileStore::open_with(&path, cfg.clone()).expect("open");
            assert_eq!(s.blob_count(), 2);
            assert_eq!(s.get(0).expect("get"), b"one");
            assert_eq!(s.get(1).expect("get"), b"two");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn torn_tail_is_recovered() {
        for cfg in each_chunk_config() {
            let path = temp_path("torn.log");
            {
                // Chunking off so the 5000-byte record is a single v1 frame
                // whose tail tear removes exactly one blob.
                let mut s = FileStore::create_with(&path, ChunkConfig::disabled()).expect("create");
                s.put(b"intact-record").expect("put");
                s.put(&vec![9u8; 5000]).expect("put");
                s.sync().expect("sync");
            }
            // Tear the tail: chop 100 bytes off the last record.
            let len = std::fs::metadata(&path).expect("meta").len();
            let f = OpenOptions::new().write(true).open(&path).expect("open raw");
            f.set_len(len - 100).expect("truncate");
            drop(f);

            let mut s = FileStore::open_with(&path, cfg.clone()).expect("recover");
            assert_eq!(s.blob_count(), 1, "only the intact record survives");
            assert_eq!(s.get(0).expect("get"), b"intact-record");
            // Appends after recovery work.
            let id = s.put(b"after-recovery").expect("put");
            assert_eq!(s.get(id).expect("get"), b"after-recovery");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn corrupted_payload_is_detected() {
        for cfg in each_chunk_config() {
            let path = temp_path("corrupt.log");
            {
                let mut s = FileStore::create_with(&path, cfg.clone()).expect("create");
                s.put(b"precious-data").expect("put");
                s.sync().expect("sync");
            }
            // 13 bytes stay one v1 record, the first in the file.
            let off = HEADER_LEN;
            // Flip a payload byte on disk.
            let mut f = OpenOptions::new().read(true).write(true).open(&path).expect("raw");
            f.seek(SeekFrom::Start(off + 2)).expect("seek");
            f.write_all(&[0xFF]).expect("write");
            drop(f);

            // A live handle (index built before corruption) must detect it.
            let s = FileStore::open_with(&path, cfg.clone());
            if let Ok(s) = s {
                // If recovery kept it (it shouldn't), reading must fail.
                assert!(s.blob_count() == 0 || s.get(0).is_err());
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn live_handle_detects_a_flipped_byte_in_a_middle_chunk() {
        let path = temp_path("corrupt-chunk.log");
        let mut rng = kishu_testkit::rng::Rng::seed_from_u64(0xF11B);
        let blob: Vec<u8> = (0..200_000).map(|_| rng.next_u64() as u8).collect();
        let mut s = FileStore::create_with(&path, ChunkConfig::default()).expect("create");
        let id = s.put(&blob).expect("put");
        s.sync().expect("sync");
        assert_eq!(s.get(id).expect("get"), blob);

        // Walk the log's frames to the middle chunk record of the blob.
        let bytes = std::fs::read(&path).expect("read log");
        let mut chunks = Vec::new();
        let mut off = 0usize;
        while off < bytes.len() {
            let len = u32::from_le_bytes(bytes[off + 1..off + 5].try_into().expect("4 bytes"));
            if bytes[off] == MARKER_CHUNK {
                chunks.push(off + HEADER_LEN as usize);
            }
            off += HEADER_LEN as usize + len as usize;
        }
        assert!(chunks.len() >= 3, "the blob spans {} chunks", chunks.len());
        let mut f = OpenOptions::new().write(true).open(&path).expect("raw");
        f.seek(SeekFrom::Start(chunks[chunks.len() / 2] as u64 + 10)).expect("seek");
        f.write_all(&[0x5A ^ bytes[chunks[chunks.len() / 2] + 10]]).expect("write");
        drop(f);

        let err = s.get(id).expect_err("a flipped byte must not read back");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_marker_stops_recovery() {
        for cfg in each_chunk_config() {
            let path = temp_path("garbage.log");
            {
                let mut s = FileStore::create_with(&path, cfg.clone()).expect("create");
                s.put(b"good").expect("put");
                s.sync().expect("sync");
            }
            // Append garbage that does not start with any record marker.
            let mut f = OpenOptions::new().append(true).open(&path).expect("raw");
            f.write_all(&[0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09])
                .expect("write");
            drop(f);
            let s = FileStore::open_with(&path, cfg.clone()).expect("recover");
            assert_eq!(s.blob_count(), 1);
            assert_eq!(s.get(0).expect("get"), b"good");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn physical_bytes_include_framing() {
        for cfg in each_chunk_config() {
            let path = temp_path("framing.log");
            let mut s = FileStore::create_with(&path, cfg.clone()).expect("create");
            s.put(&[0u8; 100]).expect("put");
            let st = s.stats();
            assert_eq!(st.payload_bytes, 100);
            assert_eq!(st.physical_bytes, 100 + HEADER_LEN, "sub-minimum payloads stay v1");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn chunked_log_dedups_reopens_and_reads_back() {
        let path = temp_path("chunked.log");
        let big: Vec<u8> = (0..300_000u32).map(|i| (i % 11) as u8 ^ (i / 777) as u8).collect();
        let mut edited = big.clone();
        edited[150_000] ^= 0xAA;
        {
            let mut s = FileStore::create_with(&path, ChunkConfig::default()).expect("create");
            let r1 = s.put_with_receipt(&big).expect("put");
            assert!(r1.chunks_written > 2);
            assert_eq!(r1.chunks_deduped, 0);
            let r2 = s.put_with_receipt(&edited).expect("put");
            assert!(r2.chunks_written <= 3, "1-byte edit rewrote {}", r2.chunks_written);
            assert!(r2.bytes_written < (big.len() / 4) as u64);
            // Reads are served correctly while everything is still in the
            // group-commit buffer.
            assert_eq!(s.get(0).expect("get"), big);
            assert_eq!(s.get(1).expect("get"), edited);
            s.sync().expect("sync");
        }
        // Reopen with the config pinned: the dedup assertions below need
        // post-reopen puts on the chunked path.
        let s = FileStore::open_with(&path, ChunkConfig::default()).expect("reopen");
        assert_eq!(s.blob_count(), 2);
        assert_eq!(s.get(0).expect("get"), big);
        assert_eq!(s.get(1).expect("get"), edited);
        // The rebuilt ledger keeps deduplicating: re-putting the original
        // payload appends no new chunks.
        let mut s = s;
        let r3 = s.put_with_receipt(&big).expect("put");
        assert_eq!(r3.chunks_written, 0, "reopen must rebuild the dedup map");
        assert!(r3.chunks_deduped > 2, "every chunk resolves to a recovered ord");
        assert!(r3.bytes_written < 200, "only the manifest frame is appended");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kill_switch_writes_bit_identical_v1_frames() {
        // Kill-switch contract: the log bytes with chunking disabled
        // are exactly the v1 format, record for record.
        let payloads: Vec<Vec<u8>> = vec![
            vec![1u8; 10],
            (0..50_000u32).map(|i| (i % 9) as u8).collect(),
            vec![],
        ];
        let path = temp_path("v1twin.log");
        {
            let mut s = FileStore::create_with(&path, ChunkConfig::disabled()).expect("create");
            for p in &payloads {
                s.put(p).expect("put");
            }
            s.sync().expect("sync");
        }
        let got = std::fs::read(&path).expect("read");
        let mut want = Vec::new();
        for p in &payloads {
            want.push(MARKER_V1);
            want.extend_from_slice(&(p.len() as u32).to_le_bytes());
            want.extend_from_slice(&crc32(p).to_le_bytes());
            want.extend_from_slice(p);
        }
        assert_eq!(got, want, "kill switch must produce the v1 byte stream");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_frame_golden_bytes() {
        // Format drift guard for the v2 chunked frame. A fixed payload
        // under a fixed config must produce exactly this record structure
        // — and exactly these file bytes (pinned by hash). If this test
        // fails, the on-disk format changed: that must be deliberate, and
        // needs a compat story for existing logs.
        let cfg = ChunkConfig {
            enabled: true,
            compress: true,
            min: 64,
            avg: 64,
            max: 128,
        };
        let payload: Vec<u8> = (0..300u32).map(|i| (i % 7) as u8).collect();
        let path = temp_path("golden.log");
        {
            let mut s = FileStore::create_with(&path, cfg).expect("create");
            s.put(&payload).expect("put");
        }
        let log = std::fs::read(&path).expect("read");

        // Walk the records: chunk frames first, then one manifest.
        let mut markers = Vec::new();
        let mut off = 0usize;
        let mut manifest_payload = Vec::new();
        while off + HEADER_LEN as usize <= log.len() {
            let marker = log[off];
            let len =
                u32::from_le_bytes([log[off + 1], log[off + 2], log[off + 3], log[off + 4]])
                    as usize;
            let body = &log[off + HEADER_LEN as usize..off + HEADER_LEN as usize + len];
            if marker == MARKER_MANIFEST {
                manifest_payload = body.to_vec();
            }
            markers.push(marker);
            off += HEADER_LEN as usize + len;
        }
        assert_eq!(off, log.len(), "log ends on a record boundary");
        let n_chunks = markers.iter().filter(|&&m| m == MARKER_CHUNK).count();
        assert!(n_chunks >= 2, "300B at max=128 must cut into at least 3 chunks");
        assert_eq!(
            markers.last(),
            Some(&MARKER_MANIFEST),
            "manifest comes after every chunk it references"
        );
        // Manifest: raw_len=300, nchunks, ords 0..n in order.
        let mut want = Vec::new();
        want.extend_from_slice(&300u64.to_le_bytes());
        want.extend_from_slice(&(n_chunks as u32).to_le_bytes());
        for ord in 0..n_chunks as u32 {
            want.extend_from_slice(&ord.to_le_bytes());
        }
        assert_eq!(manifest_payload, want, "manifest layout drifted");
        // Pinned whole-file hash: catches any byte-level drift (framing,
        // chunk cut points, compressor output) in one assertion.
        assert_eq!(
            xxh64(&log, 0),
            0x695F_5C8F_4477_61D3,
            "v2 log bytes drifted; update deliberately with a compat note"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn group_commit_buffer_survives_barrier_and_drop() {
        for cfg in each_chunk_config() {
            let path = temp_path("gcommit.log");
            let payload = vec![5u8; 300];
            {
                let mut s = FileStore::create_with(&path, ChunkConfig::disabled()).expect("create");
                s.set_sync_on_put(true);
                s.put(&payload).expect("put");
                // Buffered: the file is still empty, but reads work.
                assert_eq!(std::fs::metadata(&path).expect("meta").len(), 0);
                assert_eq!(s.get(0).expect("get"), payload);
                s.flush_barrier().expect("barrier");
                assert_eq!(
                    std::fs::metadata(&path).expect("meta").len(),
                    HEADER_LEN + payload.len() as u64
                );
                s.put(b"tail").expect("put");
                // Dropped without sync: Drop flushes best-effort.
            }
            let s = FileStore::open_with(&path, cfg.clone()).expect("open");
            assert_eq!(s.blob_count(), 2);
            assert_eq!(s.get(0).expect("get"), payload);
            assert_eq!(s.get(1).expect("get"), b"tail");
            std::fs::remove_file(&path).ok();
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::crc32::crc32;
    use crate::{CheckpointStore, MemoryStore};
    use kishu_testkit::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn random_blob_sequences_roundtrip(
            blobs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0usize..2000), 1usize..20)
        ) {
            let dir = std::env::temp_dir().join(format!("kishu-fsprop-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("mkdir");
            let path = dir.join(format!("p{}.log", crc32(&blobs.concat())));
            for cfg in crate::each_chunk_config() {
                let _ = std::fs::remove_file(&path);
                {
                    let mut s = FileStore::create_with(&path, cfg.clone()).expect("create");
                    for b in &blobs {
                        s.put(b).expect("put");
                    }
                    s.sync().expect("sync");
                }
                let s = FileStore::open_with(&path, cfg).expect("open");
                prop_assert_eq!(s.blob_count(), blobs.len() as u64);
                for (i, b) in blobs.iter().enumerate() {
                    prop_assert_eq!(&s.get(i as u64).expect("get"), b);
                }
            }
            std::fs::remove_file(&path).ok();
        }

        #[test]
        fn chunked_and_v1_logs_agree_logically(
            blobs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0usize..30_000), 1usize..8)
        ) {
            let dir = std::env::temp_dir().join(format!("kishu-fsprop-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("mkdir");
            let tag = crc32(&blobs.concat());
            let p_on = dir.join(format!("on{tag}.log"));
            let p_off = dir.join(format!("off{tag}.log"));
            let mut on = FileStore::create_with(&p_on, ChunkConfig::default()).expect("create");
            let mut off = FileStore::create_with(&p_off, ChunkConfig::disabled()).expect("create");
            let mut mem_on = MemoryStore::with_config(ChunkConfig::default());
            let mut mem_off = MemoryStore::with_config(ChunkConfig::disabled());
            for b in &blobs {
                let id = on.put(b).expect("put");
                prop_assert_eq!(id, off.put(b).expect("put"));
                prop_assert_eq!(id, mem_on.put(b).expect("put"));
                prop_assert_eq!(id, mem_off.put(b).expect("put"));
            }
            for (i, b) in blobs.iter().enumerate() {
                prop_assert_eq!(&on.get(i as u64).expect("get"), b);
                prop_assert_eq!(&off.get(i as u64).expect("get"), b);
            }
            prop_assert_eq!(on.blob_count(), off.blob_count());
            let (s_on, s_off) = (on.stats(), off.stats());
            prop_assert_eq!(s_on.blobs, s_off.blobs);
            prop_assert_eq!(s_on.payload_bytes, s_off.payload_bytes);
            // One engine: the same puts leave byte-identical logs in a file
            // and in memory, v1, chunked and mixed alike.
            on.sync().expect("sync");
            off.sync().expect("sync");
            prop_assert_eq!(std::fs::read(&p_on).expect("read"), mem_on.image().expect("image"));
            prop_assert_eq!(std::fs::read(&p_off).expect("read"), mem_off.image().expect("image"));
            prop_assert_eq!(s_on, mem_on.stats());
            std::fs::remove_file(&p_on).ok();
            std::fs::remove_file(&p_off).ok();
        }
    }
}
