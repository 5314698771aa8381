//! # decay-bench
//!
//! The experiment harness reproducing every claim of *Beyond Geometry*
//! (PODC 2014) as a runnable experiment (the paper is a theory paper with
//! no numeric tables; each theorem becomes a table here — see DESIGN.md §4
//! for the index and EXPERIMENTS.md for recorded outcomes).
//!
//! Run everything:
//!
//! ```text
//! cargo run --release -p decay-bench --bin run_experiments
//! ```
//!
//! or a selection: `run_experiments E4 E9`. Criterion benchmarks for the
//! algorithmic kernels live under `benches/`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
mod table;

pub use table::{fmt_f, fmt_ok, Table};
