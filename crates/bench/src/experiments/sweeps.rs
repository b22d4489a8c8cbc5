//! Fig 18 (performance vs shared referencing) and Fig 19 (scalability to
//! long notebook sessions).

use std::time::{Duration, Instant};

use kishu::session::{KishuConfig, KishuSession};
use kishu_workloads::sweeps::{long_session, shared_ref_workload};
use kishu_workloads::notebooks;

use crate::methods::{Driver, MethodKind};
use crate::report::{fmt_bytes, fmt_duration, Table};

/// Fig 18: ten equal arrays; a growing prefix of them lives inside one list
/// co-variable; one array inside the list is modified per test cell.
/// Measures Kishu's checkpoint size/time and undo time against DumpSession
/// and CRIU-Incremental as the co-variable's share of the state grows.
pub fn fig18(array_len: usize) -> Table {
    let mut t = Table::new(
        "Fig 18",
        "checkpoint/checkout efficiency vs % of state in the updated list co-variable",
        &[
            "% state in co-var",
            "Kishu ckpt", "Kishu undo",
            "DumpSession ckpt", "DumpSession undo",
            "CRIU-Inc ckpt", "CRIU-Inc undo",
        ],
    );
    for in_list in 1..=10usize {
        let (setup, modify) = shared_ref_workload(array_len, 10, in_list);
        let mut row = vec![format!("{}%", in_list * 10)];
        for kind in [
            MethodKind::Kishu,
            MethodKind::DumpSession,
            MethodKind::CriuIncremental,
        ] {
            let mut d = Driver::new(kind);
            for c in &setup {
                d.run_cell(c);
            }
            let undo_target = d.versions() - 1;
            let cost = d.run_cell(&modify);
            let restore = d.restore_to(undo_target).expect("restore");
            row.push(fmt_bytes(cost.ckpt_bytes));
            row.push(fmt_duration(restore.time));
        }
        t.row(row);
    }
    t.note("paper: Kishu is best while the co-variable is small (the typical case, avg 2.57% per Table 7) and converges to DumpSession at 100%; CRIU-Inc's ckpt stays flat but its restore reads the whole chain");
    t
}

/// Fig 19: re-execute HW-LM / Qiskit cells up to `max_cells` executions,
/// then report Checkpoint Graph size and state-difference computation time
/// for undoing 0..max_cells cells from the final state.
pub fn fig19(max_cells: usize, scale: f64) -> Table {
    let mut t = Table::new(
        "Fig 19",
        "scalability vs number of cell executions",
        &[
            "Notebook", "cells", "graph metadata",
            "state-diff @25%", "state-diff @50%", "state-diff @100%",
        ],
    );
    for base in [notebooks::hw_lm(scale), notebooks::qiskit(scale)] {
        let cells = long_session(&base, max_cells, 42);
        let mut s = KishuSession::in_memory(KishuConfig::default());
        let mut nodes = Vec::with_capacity(cells.len());
        let mut errored = 0usize;
        for c in &cells {
            // Random re-execution can legitimately raise (a real in-progress
            // session does too); the half-executed cell still checkpoints.
            let r = s.run_cell(&c.src).expect("parses");
            if r.outcome.error.is_some() {
                errored += 1;
            }
            nodes.push(r.node.expect("auto-checkpoint committed"));
        }
        let _ = errored;
        let meta = s.graph().metadata_bytes();
        let head = s.head();
        let diff_time = |fraction: f64| {
            let back = ((nodes.len() - 1) as f64 * fraction) as usize;
            let target = nodes[nodes.len() - 1 - back];
            let start = Instant::now();
            let plan = s.graph().diff(head, target);
            let elapsed = start.elapsed();
            let _ = plan;
            fmt_duration(elapsed)
        };
        t.row(vec![
            base.name.to_string(),
            cells.len().to_string(),
            fmt_bytes(meta as u64),
            diff_time(0.25),
            diff_time(0.5),
            diff_time(1.0),
        ]);
    }
    t.note("paper: graph size linear in cells (≤9 MB at 1000); diff time linear in the cell count of the two states (≤81 ms at 1000)");
    t
}

/// The Fig 4 walk-through, as a printable artifact: incremental checkpoint
/// of the mapping cell stores only the one list co-variable, and undoing it
/// loads only that co-variable.
pub fn fig4(n_rows: usize) -> Table {
    let mut t = Table::new(
        "Fig 4",
        "motivating example: text-mining undo at co-variable granularity",
        &["step", "observation"],
    );
    let mut s = KishuSession::in_memory(KishuConfig::default());
    for c in kishu_workloads::sweeps::fig4_text_mining(n_rows) {
        let r = s.run_cell(&c.src).expect("parses");
        assert!(r.outcome.error.is_none());
    }
    // The mapping cell is the last one; its delta is the sad_ls co-variable.
    let metrics = s.metrics().cells.clone();
    let mapping = metrics.last().expect("cells ran");
    let total: u64 = metrics.iter().map(|c| c.checkpoint_bytes).sum();
    t.row(vec![
        "cell 4 incremental checkpoint".into(),
        format!(
            "{} of {} total ({} co-variable(s) in delta)",
            fmt_bytes(mapping.checkpoint_bytes),
            fmt_bytes(total),
            mapping.covars_updated
        ),
    ]);
    let before_mapping = s.graph().node(mapping.node.expect("committed")).parent.expect("has parent");
    let report = s.checkout(before_mapping).expect("undo");
    t.row(vec![
        "undo cell 4".into(),
        format!(
            "loaded {} co-variable(s), {} read, {} identical untouched, in {}",
            report.loaded.len(),
            fmt_bytes(report.bytes_loaded),
            report.identical,
            fmt_duration(Duration::from_nanos(report.co_wall_ns))
        ),
    ]);
    let sad = s.run_cell("sad_ls[0]\n").expect("parses");
    t.row(vec![
        "restored value".into(),
        sad.outcome.value_repr.unwrap_or_default(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig18_kishu_delta_grows_with_covariable_share() {
        // Kishu's checkpoint for the modify cell scales with the
        // co-variable, not the touched array.
        let measure = |in_list: usize| -> u64 {
            let (setup, modify) = shared_ref_workload(20_000, 10, in_list);
            let mut d = Driver::new(MethodKind::Kishu);
            for c in &setup {
                d.run_cell(c);
            }
            d.run_cell(&modify).ckpt_bytes
        };
        let small = measure(1);
        let large = measure(10);
        assert!(
            large > 5 * small,
            "10-array co-variable ({large}) must dwarf 1-array ({small})"
        );
    }

    #[test]
    fn fig18_criu_inc_checkpoint_stays_flat() {
        let measure = |in_list: usize| -> u64 {
            let (setup, modify) = shared_ref_workload(20_000, 10, in_list);
            let mut d = Driver::new(MethodKind::CriuIncremental);
            for c in &setup {
                d.run_cell(c);
            }
            d.run_cell(&modify).ckpt_bytes
        };
        let small = measure(1);
        let large = measure(10);
        assert!(
            large < 3 * small,
            "page-level delta is independent of the co-variable ({small} vs {large})"
        );
    }

    #[test]
    fn fig19_graph_grows_linearly() {
        let base = notebooks::qiskit(0.05);
        let cells = long_session(&base, 300, 1);
        let mut s = KishuSession::in_memory(KishuConfig::default());
        let mut sizes = Vec::new();
        for (i, c) in cells.iter().enumerate() {
            let r = s.run_cell(&c.src).expect("parses");
            assert!(r.outcome.error.is_none());
            if (i + 1) % 100 == 0 {
                sizes.push(s.graph().metadata_bytes());
            }
        }
        let d1 = sizes[1] - sizes[0];
        let d2 = sizes[2] - sizes[1];
        assert!(
            (d2 as f64) < 2.0 * d1 as f64,
            "metadata growth should stay linear: {sizes:?}"
        );
    }

    #[test]
    fn fig4_walkthrough_produces_three_steps() {
        let t = fig4(300);
        assert_eq!(t.rows.len(), 3);
        assert!(
            t.rows[2][1].contains("sad text"),
            "the mapping ('text' -> 'txt') must be undone: {:?}",
            t.rows[2]
        );
    }
}
