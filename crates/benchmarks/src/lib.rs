//! The paper's evaluation benchmarks (Section 5 / Figure 8).
//!
//! Seven benchmarks — the paper's four (Reduce, Transpose, Scan, MM)
//! plus Histogram (atomic contention), ReduceShfl (warp shuffles) and
//! Stencil (overlapping windows) — each in two versions measured on
//! the same simulator:
//!
//! 1. **Descend**: a program in Descend source (generated for the
//!    requested size by [`sources`]), compiled by this repository's
//!    compiler;
//! 2. **CUDA baseline**: a handwritten kernel in simulator IR
//!    ([`baselines`]) transcribing the canonical CUDA implementation with
//!    the same optimizations and access patterns — the role the authors'
//!    handwritten CUDA played.
//!
//! [`runner`] holds one host program per benchmark and runs it once
//! with each version's kernels, so both see identical inputs, launch
//! shapes and launch order; it validates their results against scalar
//! references ([`crate::reference`]) and reports modeled cycles. The
//! `figure8` binary prints the relative runtimes.
//!
//! Footprints are scaled down from the paper's 256 MB–1 GB to
//! interpreter scale (see `docs/DESIGN.md` §7); the *relative*
//! measurements the figure reports are preserved.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod reference;
pub mod runner;
pub mod sources;

pub use runner::{
    footprints, run_benchmark, run_benchmark_traced, trace_param, BenchKind, BenchResult,
    SizeClass, ALL_BENCHMARKS,
};
