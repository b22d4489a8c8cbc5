//! The one place the `KISHU_*` configuration variables are read.
//!
//! Library crates take explicit configuration and never read the process
//! environment. The programs at the edge — `repro`, the `kishu-repl`
//! binary and the root integration tests — resolve these variables once,
//! through [`Settings::from_env`], and hand the result down:
//!
//! | variable | field | parse rule |
//! |---|---|---|
//! | `KISHU_CHECKPOINT_WORKERS` | [`KishuConfig::checkpoint_workers`] | integer, clamped to ≥1 |
//! | `KISHU_RESTORE_WORKERS` | [`KishuConfig::restore_workers`] | integer, clamped to ≥1 |
//! | `KISHU_MINIPY_VM` | [`KishuConfig::minipy_vm`] | `0` selects the tree-walker |
//! | `KISHU_CHUNKING` | [`ChunkConfig::enabled`] | `0`, `false`, `off` or empty turn it off |
//! | `KISHU_OBS_RING_BYTES` | [`ObsConfig::ring_bytes`] | integer |
//! | `KISHU_OBS_JOURNAL` | [`ObsConfig::journal_events`] | integer |
//! | `KISHU_TRACE` | [`Settings::trace_path`] | non-empty: enable tracing, export here |
//!
//! An unset or unparseable value leaves the library default in place.

use kishu::{KishuConfig, KishuSession};
use kishu_storage::{ChunkConfig, MemoryStore};
use kishu_trace::{ObsConfig, Trace};

/// Configuration resolved from `KISHU_*` variables over library defaults.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Session configuration.
    pub kishu: KishuConfig,
    /// Store representation for stores the edge constructs.
    pub chunk: ChunkConfig,
    /// Flight-recorder bounds for traces the edge constructs.
    pub obs: ObsConfig,
    /// `KISHU_TRACE`: when set, tracing is on and (for `repro`) the Chrome
    /// trace is exported to this path.
    pub trace_path: Option<String>,
}

impl Settings {
    /// Resolve from the process environment.
    pub fn from_env() -> Settings {
        Settings::from_lookup(|name| std::env::var(name).ok())
    }

    /// Resolve from `get`, which maps a variable name to its value (`None`
    /// = unset). Tests pass a table here instead of mutating the process
    /// environment.
    pub fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Settings {
        let parse = |name: &str| get(name).and_then(|v| v.trim().parse::<u64>().ok());
        let mut kishu = KishuConfig::default();
        if let Some(n) = parse("KISHU_CHECKPOINT_WORKERS") {
            kishu.checkpoint_workers = (n as usize).max(1);
        }
        if let Some(n) = parse("KISHU_RESTORE_WORKERS") {
            kishu.restore_workers = (n as usize).max(1);
        }
        if get("KISHU_MINIPY_VM").is_some_and(|v| v.trim() == "0") {
            kishu.minipy_vm = false;
        }
        let mut chunk = ChunkConfig::default();
        if let Some(v) = get("KISHU_CHUNKING") {
            chunk.enabled = !matches!(v.trim(), "0" | "false" | "off" | "");
        }
        let mut obs = ObsConfig::default();
        if let Some(n) = parse("KISHU_OBS_RING_BYTES") {
            obs.ring_bytes = n as usize;
        }
        if let Some(n) = parse("KISHU_OBS_JOURNAL") {
            obs.journal_events = n as usize;
        }
        let trace_path = get("KISHU_TRACE").filter(|p| !p.is_empty());
        Settings {
            kishu,
            chunk,
            obs,
            trace_path,
        }
    }

    /// A fresh recording trace with the resolved flight-recorder bounds.
    pub fn trace(&self) -> Trace {
        Trace::with_obs(self.obs.clone())
    }

    /// An empty in-memory store with the resolved chunk configuration.
    pub fn memory_store(&self) -> MemoryStore {
        MemoryStore::with_config(self.chunk.clone())
    }

    /// A session on [`Self::memory_store`] with the resolved session
    /// configuration.
    pub fn in_memory_session(&self) -> KishuSession {
        self.in_memory_session_with(self.kishu.clone())
    }

    /// A session on [`Self::memory_store`] with an explicit session
    /// configuration.
    pub fn in_memory_session_with(&self, config: KishuConfig) -> KishuSession {
        KishuSession::new(Box::new(self.memory_store()), config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve(vars: &[(&str, &str)]) -> Settings {
        Settings::from_lookup(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn worker_counts_clamp_to_one_and_fall_back_on_garbage() {
        let d = KishuConfig::default();
        let s = resolve(&[
            ("KISHU_CHECKPOINT_WORKERS", "0"),
            ("KISHU_RESTORE_WORKERS", " 8 "),
        ]);
        assert_eq!(s.kishu.checkpoint_workers, 1);
        assert_eq!(s.kishu.restore_workers, 8);
        let s = resolve(&[
            ("KISHU_CHECKPOINT_WORKERS", "many"),
            ("KISHU_RESTORE_WORKERS", "-2"),
        ]);
        assert_eq!(s.kishu.checkpoint_workers, d.checkpoint_workers);
        assert_eq!(s.kishu.restore_workers, d.restore_workers);
    }

    #[test]
    fn every_chunking_spelling() {
        for off in ["0", "false", "off", "", " off "] {
            assert!(
                !resolve(&[("KISHU_CHUNKING", off)]).chunk.enabled,
                "{off:?}"
            );
        }
        for on in ["1", "true", "on", "yes"] {
            assert!(resolve(&[("KISHU_CHUNKING", on)]).chunk.enabled, "{on:?}");
        }
        // Only the switch moves; the rest of the representation stays.
        let off = resolve(&[("KISHU_CHUNKING", "0")]).chunk;
        assert_eq!(
            off,
            ChunkConfig {
                enabled: false,
                ..ChunkConfig::default()
            }
        );
    }

    #[test]
    fn engine_switch() {
        assert!(!resolve(&[("KISHU_MINIPY_VM", "0")]).kishu.minipy_vm);
        assert!(!resolve(&[("KISHU_MINIPY_VM", " 0\n")]).kishu.minipy_vm);
        for vm in ["1", "", "tree"] {
            assert!(
                resolve(&[("KISHU_MINIPY_VM", vm)]).kishu.minipy_vm,
                "{vm:?}"
            );
        }
    }

    #[test]
    fn obs_sizes_and_trace_path() {
        let s = resolve(&[
            ("KISHU_OBS_RING_BYTES", "16384"),
            ("KISHU_OBS_JOURNAL", "64"),
            ("KISHU_TRACE", "target/t.json"),
        ]);
        assert_eq!(s.obs.ring_bytes, 16384);
        assert_eq!(s.obs.journal_events, 64);
        assert_eq!(s.trace_path.as_deref(), Some("target/t.json"));
        let d = ObsConfig::default();
        let s = resolve(&[("KISHU_OBS_RING_BYTES", "big"), ("KISHU_TRACE", "")]);
        assert_eq!(s.obs.ring_bytes, d.ring_bytes);
        assert_eq!(s.trace_path, None);
    }

    #[test]
    fn all_unset_equals_the_library_defaults() {
        let s = resolve(&[]);
        let d = KishuConfig::default();
        assert_eq!(
            (
                s.kishu.checkpoint_workers,
                s.kishu.restore_workers,
                s.kishu.minipy_vm
            ),
            (d.checkpoint_workers, d.restore_workers, d.minipy_vm)
        );
        assert_eq!(s.kishu.checkout_cache_bytes, d.checkout_cache_bytes);
        assert_eq!(s.chunk, ChunkConfig::default());
        let (o, od) = (&s.obs, ObsConfig::default());
        assert_eq!(
            (o.ring_bytes, o.reservoir_spans, o.journal_events, o.slow_ns),
            (
                od.ring_bytes,
                od.reservoir_spans,
                od.journal_events,
                od.slow_ns
            )
        );
        assert_eq!(s.trace_path, None);
    }
}
