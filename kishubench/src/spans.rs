//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around every public session call it makes
//! and, through [`crate::store::TracingStore`], around every store call
//! the session makes underneath. A store span's parent is the session
//! span open at the time, so a layer's self time is its duration minus the
//! part its children cover. Spans stay in memory until the run ends.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use crate::clock::thread_cpu_ns;

/// The benchmark's span families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// `KishuSession::run_cell`.
    RunCell,
    /// `KishuSession::persist`.
    Persist,
    /// `KishuSession::checkout`.
    Checkout,
    /// `KishuSession::resume`.
    Resume,
    /// `FileStore::open`.
    Open,
    /// `KishuSession::diff`.
    Diff,
    /// `KishuSession::diff_deep`.
    DiffDeep,
    /// `KishuSession::history`.
    History,
    /// `KishuSession::search`.
    Search,
    /// `CheckpointStore::put` / `put_with_receipt`.
    Put,
    /// `CheckpointStore::get`.
    Get,
    /// `CheckpointStore::flush_barrier`.
    Barrier,
}

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    pub dur_ns: u64,
    /// CPU time of the recording thread inside the span.
    pub cpu_ns: u64,
    /// Payload bytes the call moved (store spans).
    pub bytes: u64,
    /// Physical bytes the call appended (store puts).
    pub physical: u64,
    /// Chunks newly stored / deduplicated and bytes saved by compression
    /// (store puts with a receipt).
    pub chunks_written: u64,
    pub chunks_deduped: u64,
    pub bytes_compressed: u64,
}

struct Open {
    index: usize,
    start: Instant,
    cpu0: u64,
}

/// Append-only span log with a stack of open spans.
#[derive(Default)]
pub struct Recorder {
    spans: Vec<Span>,
    open: Vec<Open>,
}

/// Shared handle: the workload loop and the store wrapper record into one log.
pub type SharedRecorder = Rc<RefCell<Recorder>>;

impl Recorder {
    pub fn shared() -> SharedRecorder {
        Rc::new(RefCell::new(Recorder::default()))
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, kind: Kind) {
        let parent = self.open.last().map(|o| o.index as u32);
        let start = Instant::now();
        let index = self.spans.len();
        self.spans.push(Span {
            kind,
            parent,
            dur_ns: 0,
            cpu_ns: 0,
            bytes: 0,
            physical: 0,
            chunks_written: 0,
            chunks_deduped: 0,
            bytes_compressed: 0,
        });
        self.open.push(Open {
            index,
            start,
            cpu0: thread_cpu_ns(),
        });
    }

    /// Close the innermost open span; returns it for annotation.
    pub fn end(&mut self) -> &mut Span {
        let o = self.open.pop().expect("end without begin");
        let span = &mut self.spans[o.index];
        span.dur_ns = o.start.elapsed().as_nanos() as u64;
        span.cpu_ns = thread_cpu_ns().saturating_sub(o.cpu0);
        span
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        assert!(self.open.is_empty(), "spans read while some are open");
        &self.spans
    }

    /// Forget every span recorded so far (set-up is not measured).
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "clear while spans are open");
        self.spans.clear();
    }
}

/// Run `f` inside a span of `kind` when a recorder is attached.
pub fn within<T>(rec: Option<&SharedRecorder>, kind: Kind, f: impl FnOnce() -> T) -> T {
    match rec {
        None => f(),
        Some(r) => {
            r.borrow_mut().begin(kind);
            let out = f();
            r.borrow_mut().end();
            out
        }
    }
}

/// Per-span self time: duration minus the time covered by direct children.
/// Children of one span never overlap (the session is single-threaded at
/// every traced boundary), so their durations add.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur_ns;
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns.saturating_sub(c))
        .collect()
}

/// The kind of the top-level span that `index` descends from.
pub fn root_kind(spans: &[Span], mut index: usize) -> Kind {
    while let Some(p) = spans[index].parent {
        index = p as usize;
    }
    spans[index].kind
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let rec = Recorder::shared();
        within(Some(&rec), Kind::RunCell, || {
            within(Some(&rec), Kind::Put, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            within(Some(&rec), Kind::Barrier, || ());
        });
        within(Some(&rec), Kind::Checkout, || ());
        let r = rec.borrow();
        let spans = r.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!(root_kind(spans, 2), Kind::RunCell);
        let selfs = self_times(spans);
        assert_eq!(
            selfs[0],
            spans[0].dur_ns - spans[1].dur_ns - spans[2].dur_ns
        );
        assert!(spans[1].dur_ns >= 2_000_000);
        assert!(selfs[0] < spans[0].dur_ns);
    }
}
