//! Benchmark harness crate.
//!
//! Holds the `repro` binary that regenerates every table and figure of
//! the paper, the [`tsdb_ops`] storage-engine workload behind
//! `repro tsdb`, and the [`gemm_ops`] matrix-multiply microbenchmark
//! behind `repro gemm`. See the workspace `DESIGN.md` for the
//! experiment index.

#![warn(missing_docs)]

pub mod gemm_ops;
pub mod tsdb_ops;
