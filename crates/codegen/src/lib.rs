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
//! This crate owns the *semantic* half of that translation: each access
//! of a kernel is lowered once, into the kernel's [`IndexTable`], whose
//! entries [`kernel_to_ir`] instantiates per unrolled iteration and the
//! printers of `descend_backends` (CUDA C++, OpenCL C, WGSL, C) print,
//! so every target's text and the simulated kernel share one lowering.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod index;
pub mod ir_gen;

pub use index::{IndexEntry, IndexTable};
pub use ir_gen::{kernel_to_ir, CodegenError};

use descend_typeck::MonoKernel;

/// Convenience: lowers every kernel of a checked program to IR, each
/// through its own [`IndexTable`].
///
/// # Errors
///
/// Propagates the first lowering failure (see [`CodegenError`]).
pub fn all_kernels_to_ir(kernels: &[MonoKernel]) -> Result<Vec<gpu_sim::KernelIr>, CodegenError> {
    kernels
        .iter()
        .map(|k| kernel_to_ir(k, &mut IndexTable::new(k)))
        .collect()
}
