//! # tlt-bench
//!
//! Benchmark harness for the TLT reproduction: shared experiment setups, a small
//! text-table reporter with JSON export, and the `experiments` binary that
//! regenerates every table and figure of the paper's evaluation section plus the
//! online-serving study (run
//! `cargo run -p tlt-bench --release --bin experiments -- all`;
//! add `--json <path>` to also write the results as machine-readable JSON).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod report;
pub mod setups;

pub use report::{Report, Table};
