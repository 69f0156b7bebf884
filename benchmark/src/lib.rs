//! The monitoring-cycle benchmark of cpm-suite: one event batch in ->
//! every subscriber `Replica` updated, on four workloads, with a per-layer
//! ledger measured from outside (public calls timed, public counters
//! read). See `README.md` for the metric glossary and how to run it.

pub mod check;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod system;
pub mod trace;
pub mod twins;

use std::path::PathBuf;

/// Where trace files go: `out/` beside this package's manifest (cargo
/// sets `CARGO_MANIFEST_DIR` for `cargo run` and `cargo test`; the
/// compile-time value covers a binary started by hand).
pub fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}
