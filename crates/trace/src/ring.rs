//! Bounded span retention for the always-on flight recorder.
//!
//! PR 5's trace accumulated every [`SpanRecord`] in an unbounded vector,
//! which is fine for a short `repro` run but rules out leaving tracing on
//! under production traffic. [`SpanRing`] replaces that vector with a
//! fixed-budget ring: records are charged an approximate in-memory cost
//! and the oldest records are evicted once the budget
//! ([`ObsConfig::ring_bytes`], default 4 MiB) is exceeded. Two properties
//! make the ring honest enough to operate against:
//!
//! * **Truthful drop accounting.** `recorded == retained + dropped` at
//!   every instant — an evicted span either moves to the slow-span
//!   reservoir or bumps `spans_dropped`; nothing vanishes silently.
//! * **Tail-biased sampling.** Evicted spans compete for a small
//!   reservoir keyed by duration, so the rare slow span an operator
//!   actually wants to see survives long after its FIFO slot is gone.
//!   The reservoir keeps the slowest `reservoir_spans` evictees.
//!
//! Snapshots are *sanitized*: a record whose parent was evicted is
//! re-rooted (`parent = None`) so exports never contain dangling
//! parent/child links (property-tested in `crates/trace` tests).

use std::collections::{HashSet, VecDeque};

use crate::SpanRecord;

/// Flight-recorder tuning, fixed at [`crate::Trace`] construction
/// ([`crate::Trace::with_obs`]).
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Ring budget in (approximate, in-memory) bytes.
    pub ring_bytes: usize,
    /// Slow-span reservoir capacity in records.
    pub reservoir_spans: usize,
    /// Event-journal capacity in events.
    pub journal_events: usize,
    /// Base slow-span threshold in nanoseconds (scaled per op family by
    /// [`crate::events::slow_threshold_ns`]).
    pub slow_ns: u64,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig {
            ring_bytes: 4 << 20,
            reservoir_spans: 256,
            journal_events: 1024,
            slow_ns: 50_000_000,
        }
    }
}

/// Occupancy and accounting snapshot of a [`SpanRing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RingStats {
    /// Spans ever pushed into the ring.
    pub recorded: u64,
    /// Spans currently held (FIFO window + reservoir).
    pub retained: u64,
    /// Spans evicted and not rescued by the reservoir. The truthful
    /// counter: `recorded == retained + dropped` always.
    pub dropped: u64,
    /// Approximate bytes charged against the budget by the FIFO window.
    pub bytes: u64,
    /// The configured budget.
    pub cap_bytes: u64,
    /// Records currently in the slow-span reservoir.
    pub reservoir: u64,
}

impl RingStats {
    /// FIFO occupancy as a fraction of the budget, for `%health`.
    pub fn occupancy(&self) -> f64 {
        if self.cap_bytes == 0 {
            0.0
        } else {
            self.bytes as f64 / self.cap_bytes as f64
        }
    }
}

/// Approximate in-memory cost of one record: struct overhead plus the
/// heap payloads (name and args). Close enough to bound real memory —
/// the soak test checks actual retention against this charge.
pub fn record_cost(r: &SpanRecord) -> usize {
    let args: usize = r.args.iter().map(|(k, v)| 48 + k.len() + v.len()).sum();
    96 + r.name.len() + args
}

/// The bounded span store: a FIFO window under a byte budget plus a
/// duration-keyed reservoir of evicted slow spans.
#[derive(Debug)]
pub struct SpanRing {
    cap_bytes: usize,
    reservoir_cap: usize,
    window: VecDeque<SpanRecord>,
    bytes: usize,
    /// Slowest evicted spans, unordered; bounded by `reservoir_cap`.
    reservoir: Vec<SpanRecord>,
    /// Cached `(index, dur_ns)` of the reservoir's fastest record, so the
    /// common eviction case — a fast evictee losing to a full reservoir —
    /// is O(1) instead of a scan. Kept valid whenever `reservoir` is
    /// non-empty; rescanned only when the minimum itself is displaced.
    reservoir_min: Option<(usize, u64)>,
    recorded: u64,
    dropped: u64,
}

impl SpanRing {
    pub fn new(cap_bytes: usize, reservoir_cap: usize) -> SpanRing {
        SpanRing {
            cap_bytes: cap_bytes.max(1),
            reservoir_cap,
            window: VecDeque::new(),
            bytes: 0,
            reservoir: Vec::new(),
            reservoir_min: None,
            recorded: 0,
            dropped: 0,
        }
    }

    /// Append one record, evicting from the front until the budget holds.
    pub fn push(&mut self, record: SpanRecord) {
        self.recorded += 1;
        self.bytes += record_cost(&record);
        self.window.push_back(record);
        while self.bytes > self.cap_bytes && self.window.len() > 1 {
            let evicted = self.window.pop_front().expect("len > 1");
            self.bytes -= record_cost(&evicted);
            self.offer_reservoir(evicted);
        }
    }

    /// An evicted span competes for the reservoir by duration; the loser
    /// (it, or the reservoir's current fastest) is dropped for good.
    fn offer_reservoir(&mut self, evicted: SpanRecord) {
        if self.reservoir_cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.reservoir.len() < self.reservoir_cap {
            if self.reservoir_min.is_none_or(|(_, d)| evicted.dur_ns < d) {
                self.reservoir_min = Some((self.reservoir.len(), evicted.dur_ns));
            }
            self.reservoir.push(evicted);
            return;
        }
        let (min_at, min_dur) = self
            .reservoir_min
            .expect("full reservoir has a cached minimum");
        if evicted.dur_ns > min_dur {
            self.reservoir[min_at] = evicted;
            // The displaced record *was* the minimum; rescan for the new
            // one. Replacements get rarer as the reservoir accumulates
            // genuinely slow spans, so this scan amortizes away and the
            // fast-evictee path above stays O(1).
            self.reservoir_min = self
                .reservoir
                .iter()
                .enumerate()
                .map(|(i, r)| (i, r.dur_ns))
                .min_by_key(|&(_, d)| d);
        }
        self.dropped += 1;
    }

    /// Everything retained, id-sorted, with dangling parent links
    /// re-rooted so exports stay well-formed after eviction.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = self
            .reservoir
            .iter()
            .chain(self.window.iter())
            .cloned()
            .collect();
        out.sort_by_key(|r| r.id);
        let present: HashSet<u64> = out.iter().map(|r| r.id).collect();
        for r in &mut out {
            if let Some(p) = r.parent {
                if !present.contains(&p) {
                    r.parent = None;
                }
            }
        }
        out
    }

    pub fn stats(&self) -> RingStats {
        RingStats {
            recorded: self.recorded,
            retained: (self.window.len() + self.reservoir.len()) as u64,
            dropped: self.dropped,
            bytes: self.bytes as u64,
            cap_bytes: self.cap_bytes as u64,
            reservoir: self.reservoir.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: "op",
            start_ns: id * 10,
            dur_ns,
            tid: 0,
            args: vec![],
        }
    }

    #[test]
    fn accounting_is_truthful_under_eviction() {
        let mut ring = SpanRing::new(1024, 4);
        for i in 1..=1000 {
            ring.push(span(i, None, i));
        }
        let st = ring.stats();
        assert_eq!(st.recorded, 1000);
        assert_eq!(st.recorded, st.retained + st.dropped, "nothing vanishes");
        assert!(st.dropped > 0, "tiny budget must evict");
        assert!(st.bytes <= st.cap_bytes, "budget holds: {st:?}");
    }

    #[test]
    fn reservoir_keeps_the_slow_tail() {
        let mut ring = SpanRing::new(512, 3);
        // One early, very slow span followed by a flood of fast ones.
        ring.push(span(1, None, 9_999_999));
        for i in 2..=500 {
            ring.push(span(i, None, 10));
        }
        let snap = ring.snapshot();
        assert!(
            snap.iter().any(|r| r.id == 1),
            "slow span survives FIFO eviction via the reservoir"
        );
    }

    #[test]
    fn snapshot_reroots_orphaned_children() {
        let mut ring = SpanRing::new(400, 0);
        ring.push(span(1, None, 5));
        for i in 2..=100 {
            ring.push(span(i, Some(1), 5));
        }
        let snap = ring.snapshot();
        assert!(!snap.iter().any(|r| r.id == 1), "parent evicted");
        for r in &snap {
            assert_eq!(r.parent, None, "children of evicted spans re-rooted");
        }
    }

    #[test]
    fn zero_pressure_ring_retains_everything_in_order() {
        let mut ring = SpanRing::new(1 << 20, 8);
        for i in 1..=50 {
            ring.push(span(i, if i > 1 { Some(i - 1) } else { None }, 100));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 50);
        assert!(snap.windows(2).all(|w| w[0].id < w[1].id));
        assert_eq!(ring.stats().dropped, 0);
        assert_eq!(snap[10].parent, Some(10));
    }
}
