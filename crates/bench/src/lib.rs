//! # kishu-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§7) on the
//! synthesized workloads. The `repro` binary drives it:
//!
//! ```text
//! repro all                 # every experiment
//! repro fig13 --scale 0.5   # one experiment at a given workload scale
//! repro table6 --json out.json
//! ```
//!
//! Experiment inventory (module → paper artifact):
//!
//! | module | artifacts |
//! |---|---|
//! | [`experiments::workload_tables`] | Table 2, Table 7, Table 8, Fig 2/25 |
//! | [`experiments::robustness`] | Fig 12, Table 4, Table 5 |
//! | [`experiments::checkpoint`] | Fig 13 (sizes), Fig 14 (times) |
//! | [`experiments::checkout`] | Fig 15 (undo), Fig 16 (branch switch) |
//! | [`experiments::tracking`] | Table 6, Fig 17 |
//! | [`experiments::sweeps`] | Fig 18 (shared referencing), Fig 19 (scalability) |
//!
//! Absolute numbers differ from the paper (simulated kernel, scaled-down
//! data, different storage); the *shapes* — who wins, by what ballpark
//! factor, where the crossovers sit — are the reproduction targets, and
//! EXPERIMENTS.md records both sides.

pub mod experiments;
pub mod gate;
pub mod methods;
pub mod report;
pub mod settings;
