//! Benchmark of the Gradient TRIX experiment harness.
//!
//! Four workloads run harness scenarios through the public entry points
//! the `gradient-trix-experiments` binary uses (`trix_bench::exp_*`,
//! `trix_bench::suite::run_scenarios`, `trix_bench::common`). An untraced
//! run reports the end-to-end metrics; a traced run rebuilds the same
//! scenarios out of spanned calls into each crate and reports per-layer
//! metrics. Every pass is checked against the harness oracles and, for
//! the default seed, against reference digests of its canonical records.
//! See `README.md` in this directory.

#![forbid(unsafe_code)]

pub mod check;
pub mod host;
pub mod run;
pub mod trace;
pub mod workload;
