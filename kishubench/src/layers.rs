//! Per-layer metrics of a traced pass, and the attribution table.
//!
//! Session-layer times come from the program's own reports (read through
//! [`crate::adapter`]); store-layer times come from the benchmark's spans
//! around store calls, attributed to the session call that caused them.
//! Times are means per call of the span or report they come from; counts
//! and bytes are totals over the timed phase.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::run::PassResult;
use crate::spans::{root_kind, self_times, Kind, Span};
use crate::stats::{mean, median};

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn mean_of(xs: impl Iterator<Item = u64>) -> f64 {
    let v: Vec<f64> = xs.map(|x| x as f64).collect();
    mean(&v)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Spans of `kind` that descend from a session call (store calls made
/// outside any traced session call — a replay round's set-up, the untimed
/// persist that ends a session — are ignored).
fn rooted<'a>(spans: &'a [Span], kind: Kind) -> impl Iterator<Item = (usize, &'a Span)> + 'a {
    spans
        .iter()
        .enumerate()
        .filter(move |(_, s)| s.kind == kind && s.parent.is_some())
}

fn top<'a>(spans: &'a [Span], kind: Kind) -> impl Iterator<Item = &'a Span> + 'a {
    spans
        .iter()
        .filter(move |s| s.kind == kind && s.parent.is_none())
}

/// Every per-layer metric of one traced pass, by name. `overhead_pct` is
/// the traced pass's mean primary-op latency over the untraced pass's.
pub fn layer_metrics(p: &PassResult, overhead_pct: f64) -> BTreeMap<&'static str, f64> {
    let sp = &p.spans;
    let mut m = BTreeMap::new();
    let cells = &p.cells;

    // Cell side: exec, tracking, write pipeline.
    let run_cell_ms = ms(mean_of(top(sp, Kind::RunCell).map(|s| s.dur_ns)));
    let exec = ms(mean_of(cells.iter().map(|c| c.exec_ns)));
    let track = ms(mean_of(cells.iter().map(|c| c.track_ns)));
    let ckpt = ms(mean_of(cells.iter().map(|c| c.ckpt_ns)));
    m.insert("core.run_cell_ms", run_cell_ms);
    m.insert("minipy.exec_ms", exec);
    m.insert("core.track_ms", track);
    m.insert(
        "core.track.candidates",
        cells.iter().map(|c| c.candidates_checked).sum::<u64>() as f64,
    );
    m.insert(
        "core.covars_updated",
        cells.iter().map(|c| c.covars_updated).sum::<u64>() as f64,
    );
    m.insert("core.ckpt_ms", ckpt);
    m.insert(
        "core.serialize_ms",
        ms(mean_of(cells.iter().map(|c| c.serialize_ns))),
    );
    m.insert(
        "core.write_ms",
        ms(mean_of(cells.iter().map(|c| c.write_ns))),
    );
    m.insert(
        "core.cell.residual_ms",
        if cells.is_empty() {
            0.0
        } else {
            run_cell_ms - exec - track - ckpt
        },
    );

    // Store writes made by cells and by persists.
    let puts: Vec<&Span> = rooted(sp, Kind::Put).map(|(_, s)| s).collect();
    m.insert("storage.put.calls", puts.len() as f64);
    m.insert("storage.put_ms", ms(mean_of(puts.iter().map(|s| s.dur_ns))));
    m.insert(
        "storage.put_cpu_ms",
        ms(mean_of(puts.iter().map(|s| s.cpu_ns))),
    );
    m.insert(
        "storage.put.bytes_in",
        puts.iter().map(|s| s.bytes).sum::<u64>() as f64,
    );
    m.insert(
        "storage.put.bytes_physical",
        puts.iter().map(|s| s.physical).sum::<u64>() as f64,
    );
    m.insert(
        "storage.put.dedup_hits",
        puts.iter()
            .filter(|s| s.chunks_written == 0 && s.chunks_deduped > 0)
            .count() as f64,
    );
    m.insert(
        "storage.chunks_written",
        puts.iter().map(|s| s.chunks_written).sum::<u64>() as f64,
    );
    m.insert(
        "storage.chunks_deduped",
        puts.iter().map(|s| s.chunks_deduped).sum::<u64>() as f64,
    );
    m.insert(
        "storage.bytes_compressed",
        puts.iter().map(|s| s.bytes_compressed).sum::<u64>() as f64,
    );

    // Durability.
    let barriers: Vec<&Span> = rooted(sp, Kind::Barrier).map(|(_, s)| s).collect();
    m.insert("storage.barrier.calls", barriers.len() as f64);
    m.insert(
        "storage.barrier_ms",
        ms(mean_of(barriers.iter().map(|s| s.dur_ns))),
    );
    m.insert(
        "storage.barrier_wait_ms",
        ms(mean_of(
            barriers.iter().map(|s| s.dur_ns.saturating_sub(s.cpu_ns)),
        )),
    );

    // Graph persistence: the whole call, and its self time (snapshot
    // encoding and sealing) without the store calls it makes.
    m.insert(
        "core.persist_ms",
        ms(mean_of(top(sp, Kind::Persist).map(|s| s.dur_ns))),
    );
    let selfs = self_times(sp);
    m.insert(
        "core.persist.self_ms",
        ms(mean_of(
            sp.iter()
                .zip(&selfs)
                .filter(|(s, _)| s.kind == Kind::Persist && s.parent.is_none())
                .map(|(_, t)| *t),
        )),
    );
    m.insert(
        "core.persist.bytes",
        rooted(sp, Kind::Put)
            .filter(|(i, _)| root_kind(sp, *i) == Kind::Persist)
            .map(|(_, s)| s.bytes)
            .sum::<u64>() as f64,
    );

    // Read pipeline.
    let cos = &p.checkouts;
    let co_total = ms(mean_of(top(sp, Kind::Checkout).map(|s| s.dur_ns)));
    let fetch = ms(mean_of(cos.iter().map(|c| c.fetch_ns)));
    let verify = ms(mean_of(cos.iter().map(|c| c.verify_ns)));
    let apply = ms(mean_of(cos.iter().map(|c| c.apply_ns)));
    m.insert("core.checkout_ms", co_total);
    m.insert("core.checkout.fetch_ms", fetch);
    m.insert("core.checkout.verify_ms", verify);
    m.insert("core.checkout.apply_ms", apply);
    m.insert(
        "core.checkout.residual_ms",
        if cos.is_empty() {
            0.0
        } else {
            co_total - fetch - verify - apply
        },
    );
    m.insert(
        "core.checkout.loaded",
        cos.iter().map(|c| c.loaded.len() as u64).sum::<u64>() as f64,
    );
    m.insert(
        "core.checkout.identical",
        cos.iter().map(|c| c.identical).sum::<u64>() as f64,
    );
    m.insert(
        "core.checkout.recomputed",
        cos.iter().map(|c| c.recomputed.len() as u64).sum::<u64>() as f64,
    );
    m.insert(
        "core.checkout.bytes_loaded",
        cos.iter().map(|c| c.bytes_loaded).sum::<u64>() as f64,
    );

    // Store reads and the read cache. The session consults the cache only
    // for blobs it has read before, so a first read never shows up as a
    // cache miss in `CacheStats`; counting every store get made inside a
    // checkout as a miss gives the ratio a user experiences.
    let gets: Vec<(usize, &Span)> = rooted(sp, Kind::Get).collect();
    m.insert("storage.get.calls", gets.len() as f64);
    m.insert(
        "storage.get_ms",
        ms(mean_of(gets.iter().map(|(_, s)| s.dur_ns))),
    );
    m.insert(
        "storage.get.bytes",
        gets.iter().map(|(_, s)| s.bytes).sum::<u64>() as f64,
    );
    let cached: u64 = cos.iter().map(|c| c.blobs_cached).sum();
    let checkout_gets = gets
        .iter()
        .filter(|(i, _)| root_kind(sp, *i) == Kind::Checkout)
        .count() as u64;
    m.insert(
        "storage.cache.hit_ratio",
        ratio(cached, cached + checkout_gets),
    );
    let (hits, misses) = (p.cache.hits, p.cache.misses);
    m.insert("storage.cache.stats_hit_ratio", ratio(hits, hits + misses));
    m.insert("storage.cache.evictions", p.cache.evictions as f64);

    // Open and resume.
    let resumes = top(sp, Kind::Resume).count() as u64;
    m.insert(
        "storage.open_ms",
        ms(mean_of(top(sp, Kind::Open).map(|s| s.dur_ns))),
    );
    m.insert(
        "core.resume_ms",
        ms(mean_of(top(sp, Kind::Resume).map(|s| s.dur_ns))),
    );
    let resume_gets: Vec<&Span> = gets
        .iter()
        .filter(|(i, _)| root_kind(sp, *i) == Kind::Resume)
        .map(|(_, s)| *s)
        .collect();
    m.insert(
        "core.resume.blobs_read",
        ratio(resume_gets.len() as u64, resumes),
    );
    m.insert(
        "core.resume.bytes_read",
        ratio(resume_gets.iter().map(|s| s.bytes).sum(), resumes),
    );

    // Queries.
    for (kind, p50, count) in [
        (
            Kind::Diff,
            "core.query.diff_us.p50",
            "core.query.diff.count",
        ),
        (
            Kind::DiffDeep,
            "core.query.diff_deep_us.p50",
            "core.query.diff_deep.count",
        ),
        (
            Kind::History,
            "core.query.history_us.p50",
            "core.query.history.count",
        ),
        (
            Kind::Search,
            "core.query.search_us.p50",
            "core.query.search.count",
        ),
    ] {
        let us: Vec<f64> = top(sp, kind).map(|s| s.dur_ns as f64 / 1e3).collect();
        m.insert(p50, if us.is_empty() { 0.0 } else { median(&us) });
        m.insert(count, us.len() as f64);
    }
    m.insert(
        "core.query.diff_memo_hit_ratio",
        ratio(p.memo.diff_hits, p.memo.diff_hits + p.memo.diff_misses),
    );

    m.insert("trace.overhead_pct", overhead_pct);
    m
}

/// The attribution table: for `run_cell` and `checkout`, the traced
/// end-to-end time per call, each layer, and the residual. Sections a
/// workload does not exercise are left out.
pub fn attribution_table(m: &BTreeMap<&'static str, f64>) -> String {
    let mut t = String::new();
    let row = |t: &mut String, label: &str, key: &str| {
        let _ = writeln!(t, "  {label:<44} {:>12.4} ms", m[key]);
    };
    if m["core.run_cell_ms"] > 0.0 {
        let _ = writeln!(t, "run_cell, mean per call");
        row(&mut t, "end to end (run_cell span)", "core.run_cell_ms");
        row(&mut t, "exec (minipy, libsim)", "minipy.exec_ms");
        row(&mut t, "tracking (core delta/vargraph)", "core.track_ms");
        row(&mut t, "checkpoint (serialize + write)", "core.ckpt_ms");
        row(&mut t, "  of which serialize + seal", "core.serialize_ms");
        row(
            &mut t,
            "  of which write (store puts + barrier)",
            "core.write_ms",
        );
        row(
            &mut t,
            "residual (total - exec - track - ckpt)",
            "core.cell.residual_ms",
        );
        row(
            &mut t,
            "persist (graph snapshot), per call",
            "core.persist_ms",
        );
        row(
            &mut t,
            "  of which encode + seal (self time)",
            "core.persist.self_ms",
        );
        row(&mut t, "store put, per call", "storage.put_ms");
        row(&mut t, "store barrier, per call", "storage.barrier_ms");
    }
    if m["core.checkout_ms"] > 0.0 {
        let _ = writeln!(t, "checkout, mean per call");
        row(&mut t, "end to end (checkout span)", "core.checkout_ms");
        row(
            &mut t,
            "fetch (store reads, cache)",
            "core.checkout.fetch_ms",
        );
        row(
            &mut t,
            "verify (CRC, decode charge)",
            "core.checkout.verify_ms",
        );
        row(&mut t, "apply (loads, namespace)", "core.checkout.apply_ms");
        row(
            &mut t,
            "residual (total - fetch - verify - apply)",
            "core.checkout.residual_ms",
        );
    }
    if m["storage.get.calls"] > 0.0 {
        row(&mut t, "store get, per call", "storage.get_ms");
    }
    t
}
