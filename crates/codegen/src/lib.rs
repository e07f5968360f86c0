//! Code generation: the shared lowering from elaborated kernels to the
//! simulator IR.
//!
//! The paper's Section 5 describes the translation: `sched` dissolves
//! into the SPMD kernel model (the bound execution-resource variables
//! become `blockIdx`/`threadIdx`), selects and views compile into raw
//! index arithmetic by the reverse-order transformation implemented in
//! [`descend_places::lower_scalar_access`], `split` becomes a coordinate
//! condition, and `sync` becomes a barrier.
//!
//! This crate owns the *semantic* half of that translation — the
//! [`kernel_to_ir`] lowering the simulator executes and
//! [`ir_gen::access_index_expr`], the one function from an access to its
//! index expression. The *textual* half (CUDA C++, OpenCL C, WGSL, C)
//! lives downstream in `descend_backends`, whose emitters call that same
//! function for every index they print, so every target's text and the
//! simulated kernel are renderings of one lowering.

#![deny(missing_docs)]

pub mod ir_gen;

pub use ir_gen::{kernel_to_ir, CodegenError};

use descend_typeck::MonoKernel;

/// Convenience: lowers every kernel of a checked program to IR.
///
/// # Errors
///
/// Propagates the first lowering failure (see [`CodegenError`]).
pub fn all_kernels_to_ir(kernels: &[MonoKernel]) -> Result<Vec<gpu_sim::KernelIr>, CodegenError> {
    kernels.iter().map(kernel_to_ir).collect()
}
