//! Uniform driver over every time-travel method, so experiments run each
//! mechanism through the same loop: execute cell → checkpoint → (later)
//! restore to a version.

use std::sync::Arc;
use std::time::{Duration, Instant};

use kishu::session::{KishuConfig, KishuSession};
use kishu::NodeId;
use kishu_baselines::criu::{CriuFull, CriuIncremental};
use kishu_baselines::det_replay::DetReplay;
use kishu_baselines::dump_session::DumpSession;
use kishu_baselines::elastic::ElasticNotebook;
use kishu_baselines::MethodError;
use kishu_libsim::Registry;
use kishu_minipy::Interp;
use kishu_storage::MemoryStore;
use kishu_workloads::Cell;

/// The evaluated methods, in the paper's plotting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodKind {
    /// Kishu (ours).
    Kishu,
    /// Kishu with deterministic-cell replay.
    KishuDetReplay,
    /// Full OS-level snapshots.
    CriuFull,
    /// Dirty-page OS-level snapshots.
    CriuIncremental,
    /// Whole-state pickling.
    DumpSession,
    /// Profiled store-vs-recompute replication.
    ElasticNotebook,
}

impl MethodKind {
    /// All methods, plotting order.
    pub const ALL: [MethodKind; 6] = [
        MethodKind::Kishu,
        MethodKind::KishuDetReplay,
        MethodKind::CriuFull,
        MethodKind::CriuIncremental,
        MethodKind::DumpSession,
        MethodKind::ElasticNotebook,
    ];

    /// Display label as in the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            MethodKind::Kishu => "Kishu",
            MethodKind::KishuDetReplay => "Kishu+Det-replay",
            MethodKind::CriuFull => "CRIU",
            MethodKind::CriuIncremental => "CRIU-Incremental",
            MethodKind::DumpSession => "DumpSession",
            MethodKind::ElasticNotebook => "ElasticNotebook",
        }
    }
}

/// Per-cell cost of one method.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellCost {
    /// Cell execution time (method-independent work).
    pub cell_time: Duration,
    /// Checkpoint (serialize + write + bookkeeping) time.
    pub ckpt_time: Duration,
    /// Checkpoint bytes written.
    pub ckpt_bytes: u64,
}

/// Cost of one restore.
#[derive(Debug, Clone, Copy, Default)]
pub struct RestoreCost {
    /// Wall time end to end.
    pub time: Duration,
    /// Bytes read.
    pub bytes_read: u64,
}

/// A method driving its own kernel through a notebook.
pub struct Driver {
    kind: MethodKind,
    inner: Inner,
    /// First checkpoint failure, if any (the method keeps executing cells
    /// but stops checkpointing — the Fig 12/13 FAIL marker).
    pub failed: Option<String>,
    versions: usize,
}

enum Inner {
    Kishu {
        session: KishuSession,
        nodes: Vec<NodeId>,
    },
    DetReplay {
        session: DetReplay,
        nodes: Vec<NodeId>,
    },
    External {
        interp: Interp,
        mech: Mech,
    },
}

enum Mech {
    CriuFull(CriuFull),
    CriuInc(CriuIncremental),
    Dump(DumpSession),
    Elastic(ElasticNotebook),
}

impl Driver {
    /// Fresh kernel + method, checkpointing into an in-memory store.
    pub fn new(kind: MethodKind) -> Self {
        let registry = Arc::new(Registry::standard());
        let inner = match kind {
            MethodKind::Kishu => Inner::Kishu {
                session: KishuSession::in_memory(KishuConfig::default()),
                nodes: Vec::new(),
            },
            MethodKind::KishuDetReplay => Inner::DetReplay {
                session: DetReplay::in_memory(KishuConfig::default()),
                nodes: Vec::new(),
            },
            other => {
                let mut interp = Interp::new();
                kishu_libsim::install(&mut interp, registry.clone());
                let store = Box::new(MemoryStore::new());
                let mech = match other {
                    MethodKind::CriuFull => Mech::CriuFull(CriuFull::new(store, registry)),
                    MethodKind::CriuIncremental => {
                        Mech::CriuInc(CriuIncremental::new(store, registry))
                    }
                    MethodKind::DumpSession => Mech::Dump(DumpSession::new(store, registry)),
                    MethodKind::ElasticNotebook => {
                        Mech::Elastic(ElasticNotebook::new(store, registry))
                    }
                    _ => unreachable!("handled above"),
                };
                Inner::External { interp, mech }
            }
        };
        Driver {
            kind,
            inner,
            failed: None,
            versions: 0,
        }
    }

    /// Which method this drives.
    pub fn kind(&self) -> MethodKind {
        self.kind
    }

    /// Number of checkpoints successfully taken.
    pub fn versions(&self) -> usize {
        self.versions
    }

    /// Execute one cell and checkpoint after it. Checkpoint failures mark
    /// the driver failed but do not stop cell execution.
    pub fn run_cell(&mut self, cell: &Cell) -> CellCost {
        match &mut self.inner {
            Inner::Kishu { session, nodes } => {
                let report = session.run_cell(&cell.src).expect("workload cells parse");
                assert!(
                    report.outcome.error.is_none(),
                    "workload cell raised: {:?}",
                    report.outcome.error
                );
                nodes.push(report.node.expect("auto-checkpoint committed"));
                self.versions += 1;
                CellCost {
                    cell_time: report.outcome.wall_time,
                    ckpt_time: Duration::from_nanos(report.ckpt_wall_ns) + report.tracking_time,
                    ckpt_bytes: report.checkpoint_bytes,
                }
            }
            Inner::DetReplay { session, nodes } => {
                let report = session
                    .run_cell(&cell.src, cell.deterministic)
                    .expect("workload cells parse");
                assert!(report.outcome.error.is_none());
                nodes.push(report.node.expect("auto-checkpoint committed"));
                self.versions += 1;
                CellCost {
                    cell_time: report.outcome.wall_time,
                    ckpt_time: Duration::from_nanos(report.ckpt_wall_ns) + report.tracking_time,
                    ckpt_bytes: report.checkpoint_bytes,
                }
            }
            Inner::External { interp, mech } => {
                let outcome = interp.run_cell(&cell.src).expect("workload cells parse");
                assert!(outcome.error.is_none(), "{:?}", outcome.error);
                let mut cost = CellCost {
                    cell_time: outcome.wall_time,
                    ..CellCost::default()
                };
                if self.failed.is_none() {
                    let result = match mech {
                        Mech::CriuFull(m) => m.checkpoint(interp),
                        Mech::CriuInc(m) => m.checkpoint(interp),
                        Mech::Dump(m) => m.checkpoint(interp),
                        Mech::Elastic(m) => {
                            m.checkpoint(interp, &cell.src, outcome.wall_time, &outcome.access)
                        }
                    };
                    match result {
                        Ok(stats) => {
                            cost.ckpt_time = stats.time;
                            cost.ckpt_bytes = stats.bytes;
                            self.versions += 1;
                        }
                        Err(e) => {
                            self.failed = Some(e.to_string());
                        }
                    }
                }
                cost
            }
        }
    }

    /// Restore the state as of checkpoint `version` (0-based cell index).
    pub fn restore_to(&mut self, version: usize) -> Result<RestoreCost, MethodError> {
        if self.failed.is_some() {
            return Err(MethodError::Io(format!(
                "method failed earlier: {}",
                self.failed.clone().expect("just checked")
            )));
        }
        match &mut self.inner {
            Inner::Kishu { session, nodes } => {
                let node = *nodes
                    .get(version)
                    .ok_or(MethodError::UnknownVersion(version))?;
                let start = Instant::now();
                let report = session
                    .checkout(node)
                    .map_err(|e| MethodError::Io(e.to_string()))?;
                Ok(RestoreCost {
                    time: start.elapsed(),
                    bytes_read: report.bytes_loaded,
                })
            }
            Inner::DetReplay { session, nodes } => {
                let node = *nodes
                    .get(version)
                    .ok_or(MethodError::UnknownVersion(version))?;
                let start = Instant::now();
                let report = session
                    .checkout(node)
                    .map_err(|e| MethodError::Io(e.to_string()))?;
                Ok(RestoreCost {
                    time: start.elapsed(),
                    bytes_read: report.bytes_loaded,
                })
            }
            Inner::External { interp, mech } => {
                let (fresh, stats) = match mech {
                    Mech::CriuFull(m) => m.restore(version)?,
                    Mech::CriuInc(m) => m.restore(version)?,
                    Mech::Dump(m) => m.restore(version)?,
                    Mech::Elastic(m) => m.restore(version)?,
                };
                *interp = fresh;
                Ok(RestoreCost {
                    time: stats.time,
                    bytes_read: stats.bytes_read,
                })
            }
        }
    }

    /// Evaluate an expression in the live kernel (correctness probes).
    pub fn probe(&mut self, expr: &str) -> Option<String> {
        let interp = match &mut self.inner {
            Inner::Kishu { session, .. } => &mut session.interp,
            Inner::DetReplay { session, .. } => &mut session.session().interp,
            Inner::External { interp, .. } => interp,
        };
        let out = interp.run_cell(&format!("{expr}\n")).ok()?;
        if out.error.is_some() {
            return None;
        }
        out.value_repr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kishu_workloads::cell;

    #[test]
    fn every_driver_runs_and_restores_a_simple_notebook() {
        let cells = vec![
            cell("x = [1, 2, 3]\n"),
            cell("y = sum(x)\n"),
            cell("x.append(4)\n"),
        ];
        for kind in MethodKind::ALL {
            let mut d = Driver::new(kind);
            for c in &cells {
                d.run_cell(c);
            }
            assert!(d.failed.is_none(), "{}: {:?}", kind.label(), d.failed);
            assert_eq!(d.versions(), 3);
            assert_eq!(d.probe("len(x)").as_deref(), Some("4"), "{}", kind.label());
            d.restore_to(1).unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
            assert_eq!(d.probe("len(x)").as_deref(), Some("3"), "{}", kind.label());
            assert_eq!(d.probe("y").as_deref(), Some("6"), "{}", kind.label());
        }
    }

    #[test]
    fn criu_drivers_fail_on_off_process_state() {
        let cells = [cell("t = lib_obj('torch.Tensor', 256, 1)\n")];
        for kind in [MethodKind::CriuFull, MethodKind::CriuIncremental] {
            let mut d = Driver::new(kind);
            d.run_cell(&cells[0]);
            assert!(d.failed.is_some(), "{} should fail", kind.label());
            assert!(d.restore_to(0).is_err());
        }
        // Kishu and DumpSession sail through.
        for kind in [MethodKind::Kishu, MethodKind::DumpSession] {
            let mut d = Driver::new(kind);
            d.run_cell(&cells[0]);
            assert!(d.failed.is_none(), "{}", kind.label());
        }
    }

    #[test]
    fn dump_session_fails_on_unserializable_state() {
        let mut d = Driver::new(MethodKind::DumpSession);
        d.run_cell(&cell("g = make_generator()\n"));
        assert!(d.failed.is_some());
        // Kishu tolerates it (fallback recomputation).
        let mut d = Driver::new(MethodKind::Kishu);
        d.run_cell(&cell("g = make_generator()\n"));
        assert!(d.failed.is_none());
    }
}
