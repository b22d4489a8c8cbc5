//! The crash "black box": when the process panics (or a session hits an
//! error with dumps enabled), write the flight recorder's current state
//! — ring tail, event journal, drop accounting — to
//! `target/flightrec/` so the telemetry explaining a failure survives
//! it.
//!
//! Dumps are JSONL (one object per line: a `header` line, then `span`
//! lines, then `event` lines) so they are greppable and stream-parsable
//! even if truncated mid-write by the dying process. The directory is
//! rotated to the newest [`KEEP_FILES`] dumps so repeated crashes (or
//! repeated local runs) never accumulate unboundedly.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use kishu_testkit::json::Json;

use crate::events::{event_json, Event};
use crate::ring::RingStats;
use crate::{SpanRecord, Trace};

/// Default dump directory, relative to the working directory.
pub const DEFAULT_DIR: &str = "target/flightrec";
/// Newest dumps kept per directory; older ones are deleted on write.
pub const KEEP_FILES: usize = 8;
/// Ring-tail spans included in a dump (the most recent ones).
pub const TAIL_SPANS: usize = 512;

fn span_json(s: &SpanRecord) -> Json {
    let mut fields = vec![
        ("kind", Json::Str("span".into())),
        ("id", Json::Int(s.id as i64)),
    ];
    if let Some(p) = s.parent {
        fields.push(("parent", Json::Int(p as i64)));
    }
    fields.push(("name", Json::Str(s.name.to_string())));
    fields.push(("start_ns", Json::Int(s.start_ns as i64)));
    fields.push(("dur_ns", Json::Int(s.dur_ns as i64)));
    fields.push(("tid", Json::Int(s.tid as i64)));
    fields.push((
        "args",
        Json::Object(
            s.args
                .iter()
                .map(|(k, v)| (k.to_string(), Json::Str(v.clone())))
                .collect(),
        ),
    ));
    Json::obj(fields)
}

/// Render a dump: header line (reason + truthful accounting), then the
/// ring tail, then the journal. Pure over its inputs.
pub fn black_box_jsonl(
    reason: &str,
    spans_tail: &[SpanRecord],
    events: &[Event],
    ring: &RingStats,
) -> String {
    let mut out = String::new();
    let header = Json::obj(vec![
        ("kind", Json::Str("header".into())),
        ("reason", Json::Str(reason.into())),
        ("spans_recorded", Json::Int(ring.recorded as i64)),
        ("spans_dropped", Json::Int(ring.dropped as i64)),
        ("spans_in_dump", Json::Int(spans_tail.len() as i64)),
        ("events_in_dump", Json::Int(events.len() as i64)),
    ]);
    out.push_str(&header.dump());
    out.push('\n');
    for s in spans_tail {
        out.push_str(&span_json(s).dump());
        out.push('\n');
    }
    for e in events {
        // Wrapped rather than flattened: the event's own `kind` (e.g.
        // `slow_span`) must not collide with the line discriminator.
        let line = Json::obj(vec![
            ("kind", Json::Str("event".into())),
            ("event", event_json(e)),
        ]);
        out.push_str(&line.dump());
        out.push('\n');
    }
    out
}

/// Next dump file name in `dir`: `flightrec-<n>.jsonl` with `n` one past
/// the largest existing index (scan, not clock — deterministic and safe
/// in a panic hook).
fn next_path(dir: &Path) -> PathBuf {
    let next = list_dumps(dir)
        .iter()
        .filter_map(|p| {
            p.file_stem()?
                .to_str()?
                .strip_prefix("flightrec-")?
                .parse::<u64>()
                .ok()
        })
        .max()
        .map_or(1, |n| n + 1);
    dir.join(format!("flightrec-{next:05}.jsonl"))
}

/// All dump files in `dir`, sorted by name (== by index, zero-padded).
fn list_dumps(dir: &Path) -> Vec<PathBuf> {
    let mut dumps: Vec<PathBuf> = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flightrec-") && n.ends_with(".jsonl"))
        })
        .collect();
    dumps.sort();
    dumps
}

/// Delete all but the newest [`KEEP_FILES`] dumps in `dir`.
pub fn rotate(dir: &Path) {
    let dumps = list_dumps(dir);
    if dumps.len() > KEEP_FILES {
        for old in &dumps[..dumps.len() - KEEP_FILES] {
            let _ = fs::remove_file(old);
        }
    }
}

/// Write a black-box dump of `trace` into `dir` (created if missing),
/// rotating old dumps. Returns the dump path. No-op `Err` on a disabled
/// trace.
pub fn dump(trace: &Trace, dir: &Path, reason: &str) -> io::Result<PathBuf> {
    if !trace.is_enabled() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "black box dump on a disabled trace",
        ));
    }
    let spans = trace.spans();
    let tail_start = spans.len().saturating_sub(TAIL_SPANS);
    let body = black_box_jsonl(
        reason,
        &spans[tail_start..],
        &trace.events(),
        &trace.ring_stats(),
    );
    fs::create_dir_all(dir)?;
    let path = next_path(dir);
    fs::write(&path, body)?;
    rotate(dir);
    Ok(path)
}

static HOOK: OnceLock<()> = OnceLock::new();

/// Install a panic hook that black-boxes `trace` to
/// [`DEFAULT_DIR`] before delegating to the previous hook. Installs at
/// most once per process (later calls are no-ops, returning `false`);
/// the hook itself never panics — dump failures are swallowed.
pub fn install_panic_hook(trace: &Trace) -> bool {
    if !trace.is_enabled() || HOOK.get().is_some() {
        return false;
    }
    let mut installed = false;
    HOOK.get_or_init(|| {
        let trace = trace.clone();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let reason = format!("panic: {info}");
            let _ = dump(&trace, Path::new(DEFAULT_DIR), &reason);
            prev(info);
        }));
        installed = true;
    });
    installed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Severity;

    #[test]
    fn dump_writes_header_spans_and_events_and_rotates() {
        let dir = std::env::temp_dir().join(format!("kishu-flightrec-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let t = Trace::enabled();
        t.span("ckpt").end();
        t.event(Severity::Error, "barrier_failed", vec![("shard".into(), "2".into())]);
        // KEEP_FILES + 3 dumps: rotation holds the count at KEEP_FILES.
        let mut last = PathBuf::new();
        for i in 0..KEEP_FILES + 3 {
            last = dump(&t, &dir, &format!("test {i}")).expect("dump");
        }
        let dumps = list_dumps(&dir);
        assert_eq!(dumps.len(), KEEP_FILES, "rotation bounds the directory");
        assert_eq!(dumps.last(), Some(&last), "newest dump survives");
        let body = fs::read_to_string(&last).unwrap();
        let mut lines = body.lines();
        let header = Json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(
            header.get("kind").and_then(Json::as_str),
            Some("header")
        );
        assert_eq!(
            header.get("reason").and_then(Json::as_str),
            Some(format!("test {}", KEEP_FILES + 2).as_str())
        );
        assert!(body.contains("\"name\":\"ckpt\""), "{body}");
        assert!(body.contains("barrier_failed"), "{body}");
        // Every line is standalone JSON.
        for line in body.lines() {
            Json::parse(line).expect("jsonl line parses");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dump_refuses_disabled_traces() {
        let t = Trace::disabled();
        assert!(dump(&t, Path::new("target/flightrec-nope"), "x").is_err());
    }
}
