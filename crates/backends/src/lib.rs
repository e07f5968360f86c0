//! Multi-target code emission behind one shared lowering.
//!
//! The paper's Section 5 translation is deliberately target-agnostic:
//! `sched` dissolves into an SPMD kernel, views become index arithmetic,
//! `split` becomes a coordinate condition and `sync` a barrier. This
//! crate factors the *rendering* of that translation behind the
//! [`KernelBackend`] trait so one safe front end serves many GPU
//! targets. Four backends ship today:
//!
//! - [`CudaBackend`] — CUDA C++ (`__global__`, `__shared__`,
//!   `__syncthreads()`), byte-identical to the historical emitter,
//! - [`OpenClBackend`] — OpenCL C (`__kernel`, `__local`,
//!   `barrier(CLK_LOCAL_MEM_FENCE)`),
//! - [`WgslBackend`] — WGSL compute shaders (`@compute`,
//!   `var<workgroup>`, `workgroupBarrier()`; one module per kernel),
//! - [`CBackend`] — portable C11 with OpenMP, the one target this
//!   repository can *execute*: blocks become `#pragma omp parallel for`
//!   iterations, barriers become loop fission over the threads of a
//!   block, and the differential harness runs the result against the
//!   simulator (see `crates/native` and `tests/native_diff.rs`).
//!
//! # The trait contract
//!
//! A backend supplies *syntax only*: scalar-type spellings
//! ([`KernelBackend::scalar_type`]), coordinate-builtin spellings
//! ([`KernelBackend::builtin`]), literal formats
//! ([`KernelBackend::literal`]), local-declaration shape
//! ([`KernelBackend::local_decl`]), the barrier statement
//! ([`KernelBackend::barrier`]), atomic RMW calls
//! ([`KernelBackend::atomic_rmw`] — CUDA `atomicAdd(&p, v)`, OpenCL
//! `atomic_add((volatile __global int*)&p, v)` plus f32 CAS-loop
//! helpers, WGSL `atomicAdd` on `array<atomic<T>>` with
//! `atomicStore`/`atomicLoad` for plain accesses to the same buffer),
//! and the framing: one kernel ([`KernelBackend::emit_kernel`]), one
//! host stub ([`KernelBackend::emit_host_fn`]), the translation unit's
//! [`KernelBackend::prelude`] and, where a target needs one (C's
//! `main`), its [`KernelBackend::epilogue`].
//!
//! Everything *semantic* is shared and non-overridable in practice:
//! statement and expression bodies render through [`shared::BodyCx`]
//! (the C backend's phase-fissioning walker keeps the same discipline),
//! and — crucially — every memory-access index is built by
//! [`descend_codegen::ir_gen::access_index_expr`], the one function the
//! simulator IR ([`descend_codegen::kernel_to_ir`]) is lowered with, and
//! printed by [`render_ir_expr`]. No backend has its own copy of index
//! lowering or index printing, so all targets are structurally what the
//! simulator executes by construction; the cross-backend consistency
//! test in the workspace root checks the printed text against the IR.
//!
//! The layout of a translation unit is decided once as well:
//! [`KernelBackend::assemble_program`] joins already rendered kernel
//! texts with the prelude, host stubs and epilogue, and
//! [`KernelBackend::emit_program`] is "render each kernel, then
//! assemble". A caller that already holds the kernel texts (the
//! incremental compiler caches them per kernel) assembles without
//! rendering anything twice.
//!
//! Adding a target (Metal, a PTX-like sim dialect, ...) means
//! implementing the syntax hooks plus the framing methods and
//! registering the backend in [`all_backends`] — the lowering itself is
//! untouched.
//!
//! # Example
//!
//! ```
//! use descend_backends::{all_backends, backend_by_name};
//!
//! let names: Vec<&str> = all_backends().iter().map(|b| b.name()).collect();
//! assert_eq!(names, ["cuda", "opencl", "wgsl", "c"]);
//! assert_eq!(backend_by_name("wgsl").unwrap().file_extension(), "wgsl");
//! assert!(backend_by_name("metal").is_none());
//! ```

#![deny(missing_docs)]

pub mod c;
pub mod cuda;
pub mod opencl;
pub mod shared;
pub mod wgsl;

pub use c::CBackend;
pub use cuda::CudaBackend;
pub use opencl::OpenClBackend;
pub use shared::{atomic_targets, for_each_stmt, ir_index_exprs, render_ir_expr, Builtin};
pub use wgsl::WgslBackend;

use descend_ast::term::{AtomicOp, ShflKind};
use descend_codegen::CodegenError;
use descend_typeck::{CheckedProgram, HostStmt, MonoKernel, ScalarKind};
use gpu_sim::ir::Axis;

/// A code-emission target.
///
/// Implementations provide target syntax; the semantics (index
/// arithmetic, statement structure) come from the shared lowering in
/// [`shared`]. See the crate docs for the full contract.
pub trait KernelBackend {
    /// The registry name (`"cuda"`, `"opencl"`, `"wgsl"`, `"c"`).
    fn name(&self) -> &'static str;

    /// Conventional source-file extension (without the dot).
    fn file_extension(&self) -> &'static str;

    /// Spelling of a scalar element type.
    fn scalar_type(&self, k: ScalarKind) -> &'static str;

    /// Spelling of a hardware coordinate builtin along an axis
    /// (e.g. `blockIdx.x`, `get_group_id(0)`, `block_idx.x`).
    fn builtin(&self, b: Builtin, axis: Axis) -> String;

    /// The block-wide barrier statement, without indentation.
    fn barrier(&self) -> &'static str;

    /// Spelling of a scalar literal of the given kind.
    fn literal(&self, kind: ScalarKind, v: f64) -> String;

    /// A thread-private local declaration with initializer, without
    /// indentation or trailing newline (e.g. `double x = 0.0;` or
    /// `var x: f32 = 0.0;`).
    fn local_decl(&self, elem: ScalarKind, name: &str, init: &str) -> String;

    /// Wraps a rendered buffer *load* for targets whose buffer element
    /// spelling differs from the value type (default: identity; WGSL
    /// converts `u32`-carried bools back to `bool`).
    fn load_conversion(&self, _elem: ScalarKind, text: String) -> String {
        text
    }

    /// Wraps a rendered value about to be *stored* to a buffer
    /// (default: identity; see [`KernelBackend::load_conversion`]).
    fn store_conversion(&self, _elem: ScalarKind, text: String) -> String {
        text
    }

    /// Renders one atomic RMW statement (without indentation or trailing
    /// newline). `target` is the rendered lvalue (e.g. `hist[idx]`),
    /// `value` the rendered operand; `global` says whether the target
    /// lives in global (true) or shared/workgroup (false) memory —
    /// OpenCL's address-space-qualified helpers need the distinction.
    fn atomic_rmw(
        &self,
        op: AtomicOp,
        elem: ScalarKind,
        global: bool,
        target: &str,
        value: &str,
    ) -> String;

    /// Renders a warp-shuffle expression over the rendered operand:
    /// CUDA `__shfl_down_sync(0xffffffff, v, d)` /
    /// `__shfl_xor_sync(0xffffffff, v, d)`, OpenCL
    /// `sub_group_shuffle` (general form, source index clamped for
    /// `Down`) / `sub_group_shuffle_xor` — both from
    /// `cl_khr_subgroup_shuffle`, whose pragma the prelude emits — and
    /// WGSL `subgroupShuffleDown` / `subgroupShuffleXor` (gated by
    /// `enable subgroups;`).
    ///
    /// The contract is the simulator's (and CUDA's) semantics: a `Down`
    /// source beyond the warp boundary yields the lane's own value.
    /// Targets whose intrinsic leaves that case undefined (OpenCL,
    /// WGSL) must emit an explicit clamp — without making the
    /// *collective* call itself conditional: every lane must execute
    /// the shuffle intrinsic (WGSL selects between the unconditionally
    /// computed result and the lane's own value; OpenCL clamps the
    /// source index of the general `sub_group_shuffle`).
    fn shuffle(&self, kind: ShflKind, value: &str, delta: u32) -> String;

    /// Renders a *plain* store to a buffer that is an atomic target
    /// elsewhere in the kernel (default: ordinary assignment; WGSL must
    /// spell `atomicStore` — with a `bitcast<u32>` for f32 targets,
    /// whose buffers are declared `atomic<u32>`).
    fn atomic_buffer_store(&self, _elem: ScalarKind, target: &str, value: &str) -> String {
        format!("{target} = {value};")
    }

    /// Wraps a *plain* load from a buffer that is an atomic target
    /// elsewhere in the kernel (default: identity; WGSL spells
    /// `atomicLoad`, bitcast back to f32 for f32 targets).
    fn atomic_buffer_load(&self, _elem: ScalarKind, text: String) -> String {
        text
    }

    /// Spelling of an explicit scalar conversion (used for the emitted
    /// scatter-index temporary). Default is the C-style cast shared by
    /// CUDA C++ and OpenCL C; WGSL overrides with a value constructor.
    fn cast(&self, to: ScalarKind, text: &str) -> String {
        format!("({})({text})", self.scalar_type(to))
    }

    /// Spelling of the scatter-index temporary where it is *used* inside
    /// an element-address expression (default: the bare name). WGSL
    /// wraps it in `u32(...)`: its coordinate builtins make address
    /// arithmetic u32-typed and the language has no implicit integer
    /// conversions, so a bare i32 temporary would not validate when the
    /// target place carries a static coordinate offset. A negative index
    /// wraps to a huge u32 and fails the `< len` guard, preserving the
    /// bounds check.
    fn scatter_index_use(&self, name: &str) -> String {
        name.to_string()
    }

    /// Renders one kernel.
    ///
    /// # Errors
    ///
    /// Propagates lowering failures (see [`CodegenError`]).
    fn emit_kernel(&self, k: &MonoKernel) -> Result<String, CodegenError>;

    /// Renders the host-side stub for one host function.
    ///
    /// # Errors
    ///
    /// Propagates lowering failures (see [`CodegenError`]).
    fn emit_host_fn(
        &self,
        name: &str,
        stmts: &[HostStmt],
        kernels: &[MonoKernel],
    ) -> Result<String, CodegenError>;

    /// Target-specific translation-unit header (includes, pragmas,
    /// narrowing notes); may inspect the program to decide what is
    /// needed.
    fn prelude(&self, checked: &CheckedProgram) -> String;

    /// Target-specific translation-unit trailer, after the host stubs
    /// (default: none; C appends the `main` that dispatches to them).
    fn epilogue(&self, _checked: &CheckedProgram) -> String {
        String::new()
    }

    /// Lays out a complete translation unit from already rendered
    /// kernels: prelude, `kernel_texts` (one per `checked.kernels`
    /// entry, in order), host stubs, epilogue. The one place the layout
    /// is decided — backends do not override it.
    ///
    /// # Errors
    ///
    /// Propagates host-stub lowering failures (see [`CodegenError`]).
    fn assemble_program(
        &self,
        checked: &CheckedProgram,
        kernel_texts: &[String],
    ) -> Result<String, CodegenError> {
        let mut out = self.prelude(checked);
        for text in kernel_texts {
            out.push_str(text);
            out.push('\n');
        }
        for (name, stmts) in &checked.host_fns {
            out.push_str(&self.emit_host_fn(name, stmts, &checked.kernels)?);
            out.push('\n');
        }
        out.push_str(&self.epilogue(checked));
        Ok(out)
    }

    /// Renders a complete translation unit: every kernel through
    /// [`KernelBackend::emit_kernel`], then
    /// [`KernelBackend::assemble_program`].
    ///
    /// # Errors
    ///
    /// Propagates lowering failures (see [`CodegenError`]).
    fn emit_program(&self, checked: &CheckedProgram) -> Result<String, CodegenError> {
        let kernel_texts = checked
            .kernels
            .iter()
            .map(|k| self.emit_kernel(k))
            .collect::<Result<Vec<_>, _>>()?;
        self.assemble_program(checked, &kernel_texts)
    }
}

/// The registry names, in registry order.
pub const BACKEND_NAMES: &[&str] = &["cuda", "opencl", "wgsl", "c"];

/// All registered backends, in [`BACKEND_NAMES`] order.
pub fn all_backends() -> Vec<Box<dyn KernelBackend>> {
    vec![
        Box::new(CudaBackend),
        Box::new(OpenClBackend),
        Box::new(WgslBackend),
        Box::new(CBackend),
    ]
}

/// Looks up a backend by registry name.
pub fn backend_by_name(name: &str) -> Option<Box<dyn KernelBackend>> {
    match name {
        "cuda" => Some(Box::new(CudaBackend)),
        "opencl" => Some(Box::new(OpenClBackend)),
        "wgsl" => Some(Box::new(WgslBackend)),
        "c" => Some(Box::new(CBackend)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_consistent() {
        let all = all_backends();
        assert_eq!(all.len(), BACKEND_NAMES.len());
        for (be, name) in all.iter().zip(BACKEND_NAMES) {
            assert_eq!(be.name(), *name);
            let found = backend_by_name(name).expect("registered");
            assert_eq!(found.name(), *name);
        }
        assert!(backend_by_name("ptx").is_none());
    }

    #[test]
    fn scalar_maps_cover_every_kind() {
        for be in all_backends() {
            for k in [
                ScalarKind::F64,
                ScalarKind::F32,
                ScalarKind::I32,
                ScalarKind::U32,
                ScalarKind::Bool,
            ] {
                assert!(!be.scalar_type(k).is_empty(), "{}/{k:?}", be.name());
                assert!(!be.literal(k, 1.0).is_empty());
            }
        }
    }

    #[test]
    fn barrier_spellings_differ_per_target() {
        assert_eq!(CudaBackend.barrier(), "__syncthreads();");
        assert_eq!(OpenClBackend.barrier(), "barrier(CLK_LOCAL_MEM_FENCE);");
        assert_eq!(WgslBackend.barrier(), "workgroupBarrier();");
    }
}
