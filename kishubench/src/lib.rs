//! End-to-end benchmark of a FileStore-backed Kishu session.
//!
//! Three user-facing latencies define the product: a cell run until its
//! checkpoint is durable (`run_cell` + `persist`), a checkout until the
//! namespace is restored, and a dashboard view (`diff` + `history` +
//! `search`). Each workload drives one of them from one client thread in a
//! closed loop, against the program's public API only, and checks every
//! answer outside the timed regions. A traced rerun of the same seed splits
//! the latencies into the layers that serve them.
//!
//! Run one workload with
//! `cargo run --release --manifest-path kishubench/Cargo.toml -- --workload undo-redo --seed 1 --seconds 20 --trace 0`
//! from the repository root.

pub mod adapter;
pub mod clock;
pub mod fingerprint;
pub mod layers;
pub mod output;
pub mod plan;
pub mod run;
pub mod spans;
pub mod stats;
pub mod store;
