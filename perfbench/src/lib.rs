//! The posit training and serving benchmark.
//!
//! The binary (`src/main.rs`, driven by `run.py`) runs three workloads
//! through the program's public entry points only. This library holds the
//! parts the benchmark's own tests share with it:
//!
//! * [`trace`]: pass-through timing wrappers around the `Layer` and
//!   `Store` traits, recording spans in memory;
//! * [`stats`]: medians, quantiles and the one-line JSON result;
//! * [`recipe`]: the datasets, configs and models of each workload, and
//!   the pinned loss fingerprints.

#![forbid(unsafe_code)]

pub mod recipe;
pub mod stats;
pub mod trace;
