//! A delegating [`CheckpointStore`] that records a span around every store
//! call the session makes.
//!
//! Every trait method is overridden and forwarded, including the ones with
//! defaults (`put_with_receipt`, `flush_barrier`, `chunk_stats`,
//! `chunk_config`, `attach_trace`, `integrity_sweep`): a default left in
//! place would answer for the inner store and, for instance, hide its chunk
//! layer from the session, changing what is measured. The wrapper only
//! reads `stats()` and `chunk_stats()` around puts to attribute physical
//! bytes and chunks; the test in
//! `tests/wrapper_transparency.rs` proves runs with and without it
//! identical.

use std::io;

use kishu_storage::{
    BlobId, CheckpointStore, ChunkConfig, ChunkStats, IntegrityReport, PutReceipt, StoreStats,
};

use crate::spans::{Kind, SharedRecorder};

/// Span-recording decorator over any store.
pub struct TracingStore<S> {
    inner: S,
    rec: SharedRecorder,
}

impl<S: CheckpointStore> TracingStore<S> {
    pub fn new(inner: S, rec: SharedRecorder) -> Self {
        TracingStore { inner, rec }
    }

    fn traced_put<T>(
        &mut self,
        bytes: &[u8],
        put: impl FnOnce(&mut S, &[u8]) -> io::Result<T>,
        receipt: impl Fn(&T) -> Option<PutReceipt>,
    ) -> io::Result<T> {
        let before = (self.inner.stats(), self.inner.chunk_stats());
        self.rec.borrow_mut().begin(Kind::Put);
        let out = put(&mut self.inner, bytes);
        let mut rec = self.rec.borrow_mut();
        let span = rec.end();
        span.bytes = bytes.len() as u64;
        span.physical = self
            .inner
            .stats()
            .physical_bytes
            .saturating_sub(before.0.physical_bytes);
        if let Some(r) = out.as_ref().ok().and_then(receipt) {
            span.chunks_written = r.chunks_written;
            span.chunks_deduped = r.chunks_deduped;
            span.bytes_compressed = r.bytes_compressed;
        } else if let (Some(b), Some(a)) = (before.1, self.inner.chunk_stats()) {
            // A plain `put` has no receipt; the chunk ledger's growth tells
            // the same story.
            let new_chunks = a.chunks.saturating_sub(b.chunks);
            span.chunks_written = new_chunks;
            span.chunks_deduped = a
                .chunk_refs
                .saturating_sub(b.chunk_refs)
                .saturating_sub(new_chunks);
            span.bytes_compressed = a
                .raw_bytes
                .saturating_sub(b.raw_bytes)
                .saturating_sub(a.stored_bytes.saturating_sub(b.stored_bytes));
        }
        out
    }
}

impl<S: CheckpointStore> CheckpointStore for TracingStore<S> {
    fn put(&mut self, bytes: &[u8]) -> io::Result<BlobId> {
        self.traced_put(bytes, |s, b| s.put(b), |_| None)
    }

    fn put_with_receipt(&mut self, bytes: &[u8]) -> io::Result<PutReceipt> {
        self.traced_put(bytes, |s, b| s.put_with_receipt(b), |r| Some(*r))
    }

    fn get(&self, id: BlobId) -> io::Result<Vec<u8>> {
        self.rec.borrow_mut().begin(Kind::Get);
        let out = self.inner.get(id);
        let mut rec = self.rec.borrow_mut();
        rec.end().bytes = out.as_ref().map_or(0, |b| b.len() as u64);
        out
    }

    fn blob_count(&self) -> u64 {
        self.inner.blob_count()
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }

    fn flush_barrier(&mut self) -> io::Result<()> {
        self.rec.borrow_mut().begin(Kind::Barrier);
        let out = self.inner.flush_barrier();
        self.rec.borrow_mut().end();
        out
    }

    fn chunk_stats(&self) -> Option<ChunkStats> {
        self.inner.chunk_stats()
    }

    fn chunk_config(&self) -> Option<ChunkConfig> {
        self.inner.chunk_config()
    }

    fn attach_trace(&mut self, trace: &kishu_trace::Trace) {
        self.inner.attach_trace(trace)
    }

    fn integrity_sweep(&self) -> IntegrityReport {
        self.inner.integrity_sweep()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Recorder;
    use kishu_storage::MemoryStore;

    #[test]
    fn forwards_every_call_and_records_store_spans() {
        let rec = Recorder::shared();
        let mut plain = MemoryStore::new();
        let mut wrapped = TracingStore::new(MemoryStore::new(), rec.clone());
        let payload: Vec<u8> = (0..50_000u32).map(|i| (i * 7 % 251) as u8).collect();
        for s in [&mut plain as &mut dyn CheckpointStore, &mut wrapped] {
            s.put(b"small").expect("put");
            s.put_with_receipt(&payload).expect("put");
            s.flush_barrier().expect("barrier");
            s.sync().expect("sync");
        }
        assert_eq!(plain.stats(), wrapped.stats());
        assert_eq!(plain.blob_count(), wrapped.blob_count());
        assert_eq!(plain.chunk_config(), wrapped.chunk_config());
        assert_eq!(plain.chunk_stats(), wrapped.chunk_stats());
        assert_eq!(plain.get(1).expect("get"), wrapped.get(1).expect("get"));
        assert_eq!(plain.integrity_sweep(), wrapped.integrity_sweep());
        let r = rec.borrow();
        let kinds: Vec<Kind> = r.spans().iter().map(|s| s.kind).collect();
        assert_eq!(kinds, [Kind::Put, Kind::Put, Kind::Barrier, Kind::Get]);
        assert_eq!(r.spans()[1].bytes, payload.len() as u64);
        assert_eq!(r.spans()[3].bytes, payload.len() as u64);
    }
}
