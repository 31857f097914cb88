//! Benchmark harness crate.
//!
//! Holds the `repro` binary that regenerates every table and figure of
//! the paper, the
//! [`tsdb_ops`] storage-engine workload behind `repro tsdb`, the
//! [`gemm_ops`] matrix-multiply microbenchmark behind `repro gemm`, and
//! the [`serve_ops`] inference-server workload behind `repro serve`.
//! See the workspace `DESIGN.md` for the experiment index.

#![warn(missing_docs)]

pub mod gemm_ops;
pub mod serve_ops;
pub mod tsdb_ops;
