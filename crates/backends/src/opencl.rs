//! The OpenCL C backend.
//!
//! Kernels render as `__kernel` functions with `__global` buffer
//! parameters and `__local` staging arrays; `sync` becomes
//! `barrier(CLK_LOCAL_MEM_FENCE)`. Host functions render as C stubs
//! against the OpenCL runtime API (`clCreateBuffer`,
//! `clEnqueueNDRangeKernel`, ...). Index expressions come from the
//! shared lowering in [`crate::shared`], so they are structurally the
//! ones the simulator executes — only the coordinate spellings
//! (`get_group_id(0)` for `blockIdx.x`, ...) differ from CUDA.

use crate::shared::{
    builtin_spelling, for_each_stmt, indent, kernel_uses_scalar, kernel_uses_shuffle, render_body,
    Builtin, HostSizes, Nested,
};
use crate::KernelBackend;
use descend_ast::term::{AtomicOp, ShflKind};
use descend_codegen::{CodegenError, IndexTable};
use descend_typeck::{CheckedProgram, ElabStmt, HostStmt, MonoKernel, ScalarKind};
use gpu_sim::ir::Axis;
use std::fmt::Write as _;

/// The OpenCL C target.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpenClBackend;

/// Buffer element spelling at the kernel ABI boundary: `bool` is not a
/// valid OpenCL kernel-argument or buffer element type, so bool buffers
/// travel as `uchar` (locals keep `bool`).
fn buffer_type(k: ScalarKind) -> &'static str {
    match k {
        ScalarKind::F64 => "double",
        ScalarKind::F32 => "float",
        ScalarKind::I32 => "int",
        ScalarKind::U32 => "uint",
        ScalarKind::Bool => "uchar",
    }
}

/// Whether any kernel performs an f32 `atomic_add` (which OpenCL C has
/// no native intrinsic for; the prelude then defines CAS-loop helpers
/// over the bit pattern, one per address space).
fn uses_f32_atomic_add(checked: &CheckedProgram) -> bool {
    let mut hit = false;
    for k in &checked.kernels {
        for_each_stmt(&k.body, &mut |s| {
            if let ElabStmt::Atomic { op, access, .. } = s {
                hit |= *op == AtomicOp::Add && access.elem == ScalarKind::F32;
            }
        });
    }
    hit
}

impl KernelBackend for OpenClBackend {
    fn name(&self) -> &'static str {
        "opencl"
    }

    fn file_extension(&self) -> &'static str {
        "cl"
    }

    fn scalar_type(&self, k: ScalarKind) -> &'static str {
        match k {
            ScalarKind::F64 => "double",
            ScalarKind::F32 => "float",
            ScalarKind::I32 => "int",
            ScalarKind::U32 => "uint",
            ScalarKind::Bool => "bool",
        }
    }

    fn builtin(&self, b: Builtin, axis: Axis) -> &'static str {
        builtin_spelling(
            &[
                ["get_group_id(0)", "get_group_id(1)", "get_group_id(2)"],
                ["get_local_id(0)", "get_local_id(1)", "get_local_id(2)"],
                [
                    "get_local_size(0)",
                    "get_local_size(1)",
                    "get_local_size(2)",
                ],
                [
                    "get_num_groups(0)",
                    "get_num_groups(1)",
                    "get_num_groups(2)",
                ],
            ],
            b,
            axis,
        )
    }

    fn barrier(&self) -> &'static str {
        "barrier(CLK_LOCAL_MEM_FENCE);"
    }

    fn literal(&self, kind: ScalarKind, v: f64) -> String {
        match kind {
            ScalarKind::F64 => format!("{v:?}"),
            ScalarKind::F32 => format!("{v:?}f"),
            ScalarKind::I32 => format!("{}", v as i64),
            ScalarKind::U32 => format!("{}u", v as i64),
            ScalarKind::Bool => format!("{}", v != 0.0),
        }
    }

    fn atomic_rmw(
        &self,
        op: AtomicOp,
        elem: ScalarKind,
        global: bool,
        target: &str,
        value: &str,
    ) -> String {
        let space = if global { "__global" } else { "__local" };
        // OpenCL 1.x atomic functions take `volatile <space> T*`
        // pointers; f32 add goes through the CAS-loop helpers the
        // prelude defines (f32 exchange is native `atomic_xchg`).
        if elem == ScalarKind::F32 && op == AtomicOp::Add {
            let helper = if global {
                "descend_atomic_add_f32_global"
            } else {
                "descend_atomic_add_f32_local"
            };
            return format!("{helper}(&{target}, {value});");
        }
        let f = match op {
            AtomicOp::Add => "atomic_add",
            AtomicOp::Min => "atomic_min",
            AtomicOp::Max => "atomic_max",
            AtomicOp::Exch => "atomic_xchg",
        };
        let t = self.scalar_type(elem);
        format!("{f}((volatile {space} {t}*)&{target}, {value});")
    }

    fn shuffle(&self, kind: ShflKind, value: &str, delta: u32) -> String {
        // The simulator (and CUDA's `__shfl_down_sync`) define the
        // out-of-range case: lanes whose source would cross the warp
        // boundary keep their own value. OpenCL's
        // `sub_group_shuffle_down` leaves it undefined — and guarding
        // the *call* with a ternary would be worse: sub-group shuffles
        // are collective, so a lane that skips the call makes every
        // lane's result undefined. Instead the general
        // `sub_group_shuffle` (cl_khr_subgroup_shuffle, whose pragma is
        // already emitted) executes unconditionally on all lanes, and
        // only the *source index* is clamped to the lane's own id when
        // it would cross the boundary. Xor masks < 32 are always in
        // range.
        match kind {
            ShflKind::Down => format!(
                "sub_group_shuffle({value}, (get_sub_group_local_id() + {delta}u < 32u ? \
                 get_sub_group_local_id() + {delta}u : get_sub_group_local_id()))"
            ),
            ShflKind::Xor => format!("sub_group_shuffle_xor({value}, {delta}u)"),
        }
    }

    fn local_decl(&self, elem: ScalarKind, name: &str, init: &str) -> String {
        format!("{} {name} = {init};", self.scalar_type(elem))
    }

    fn emit_kernel<'k>(
        &self,
        k: &'k MonoKernel,
        table: &mut IndexTable<'k>,
    ) -> Result<String, CodegenError> {
        let mut out = String::new();
        if kernel_uses_shuffle(k) {
            // The host must pick a kernel-enqueue local size whose
            // sub-group size is 32 (matching the simulated warp width);
            // `intel_reqd_sub_group_size` pins it where supported.
            out.push_str("__attribute__((intel_reqd_sub_group_size(32)))\n");
        }
        let _ = write!(out, "__kernel void {}(", k.name);
        for (i, p) in k.params.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            if p.uniq {
                let _ = write!(out, "__global {}* {}", buffer_type(p.elem), p.name);
            } else {
                let _ = write!(out, "__global const {}* {}", buffer_type(p.elem), p.name);
            }
        }
        out.push_str(") {\n");
        for s in &k.shared {
            indent(&mut out, 1);
            let total: u64 = s.dims.iter().product();
            let _ = writeln!(
                out,
                "__local {} {}[{}];",
                buffer_type(s.elem),
                s.name,
                total
            );
        }
        let mut out = render_body(self, k, table, Nested::new(out))?.out;
        out.push_str("}\n");
        Ok(out)
    }

    fn emit_host_fn(&self, name: &str, stmts: &[HostStmt], kernels: &[MonoKernel]) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "/* Host stub; assumes a cl_context `ctx`, an in-order cl_command_queue `queue`,\n \
             * and one cl_kernel `k_<name>` per kernel, built from this translation unit. */"
        );
        let _ = writeln!(out, "void {name}(void) {{");
        let mut sizes = HostSizes::default();
        for s in stmts {
            sizes.record(s);
            indent(&mut out, 1);
            match s {
                HostStmt::AllocCpu { name, elem, len } => {
                    let t = buffer_type(*elem);
                    let _ = writeln!(out, "{t}* {name} = ({t}*)calloc({len}, sizeof({t}));");
                }
                HostStmt::AllocGpu { name, elem, len } => {
                    let t = buffer_type(*elem);
                    let _ = writeln!(
                        out,
                        "cl_mem {name} = clCreateBuffer(ctx, CL_MEM_READ_WRITE, {len} * sizeof({t}), NULL, NULL); {{ {t} zero = 0; clEnqueueFillBuffer(queue, {name}, &zero, sizeof({t}), 0, {len} * sizeof({t}), 0, NULL, NULL); }}"
                    );
                }
                HostStmt::AllocGpuCopy { name, src, elem } => {
                    let (_, len) = sizes.get(src);
                    let t = buffer_type(*elem);
                    let _ = writeln!(
                        out,
                        "cl_mem {name} = clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, {len} * sizeof({t}), {src}, NULL);"
                    );
                }
                HostStmt::CopyToHost { dst, src } => {
                    let (elem, len) = sizes.get(dst);
                    let t = buffer_type(elem);
                    let _ = writeln!(
                        out,
                        "clEnqueueReadBuffer(queue, {src}, CL_TRUE, 0, {len} * sizeof({t}), {dst}, 0, NULL, NULL);"
                    );
                }
                HostStmt::CopyToGpu { dst, src } => {
                    let (elem, len) = sizes.get(dst);
                    let t = buffer_type(elem);
                    let _ = writeln!(
                        out,
                        "clEnqueueWriteBuffer(queue, {dst}, CL_TRUE, 0, {len} * sizeof({t}), {src}, 0, NULL, NULL);"
                    );
                }
                HostStmt::Launch { kernel, args } => {
                    let k = &kernels[*kernel];
                    let mut set_args = String::new();
                    for (i, a) in args.iter().enumerate() {
                        let _ = write!(
                            set_args,
                            "clSetKernelArg(k_{}, {i}, sizeof(cl_mem), &{a}); ",
                            k.name
                        );
                    }
                    let gws = [
                        k.grid_dim[0] * k.block_dim[0],
                        k.grid_dim[1] * k.block_dim[1],
                        k.grid_dim[2] * k.block_dim[2],
                    ];
                    let _ = writeln!(
                        out,
                        "{{ {set_args}size_t gws[3] = {{{}, {}, {}}}; size_t lws[3] = {{{}, {}, {}}}; clEnqueueNDRangeKernel(queue, k_{}, 3, NULL, gws, lws, 0, NULL, NULL); }}",
                        gws[0],
                        gws[1],
                        gws[2],
                        k.block_dim[0],
                        k.block_dim[1],
                        k.block_dim[2],
                        k.name
                    );
                }
            }
        }
        out.push_str("}\n");
        out
    }

    fn prelude(&self, checked: &CheckedProgram) -> String {
        let mut out = String::new();
        if checked
            .kernels
            .iter()
            .any(|k| kernel_uses_scalar(k, ScalarKind::F64))
        {
            out.push_str("#pragma OPENCL EXTENSION cl_khr_fp64 : enable\n\n");
        }
        if checked.kernels.iter().any(kernel_uses_shuffle) {
            // Both emitted intrinsics — the general `sub_group_shuffle`
            // (boundary-clamped `Down`) and `sub_group_shuffle_xor` —
            // live in cl_khr_subgroup_shuffle; the `_relative` extension
            // (shuffle_up/down) is not used.
            out.push_str(
                "#pragma OPENCL EXTENSION cl_khr_subgroups : enable\n\
                 #pragma OPENCL EXTENSION cl_khr_subgroup_shuffle : enable\n\n",
            );
        }
        if uses_f32_atomic_add(checked) {
            out.push_str(
                "/* f32 atomic add is not native in OpenCL C: compare-and-swap on the bit\n \
                 * pattern, per address space (volatile, as the atomic builtins require). */\n\
                 inline void descend_atomic_add_f32_global(volatile __global float* p, float v) {\n\
                 \x20   union { unsigned int u; float f; } old_val, new_val;\n\
                 \x20   do {\n\
                 \x20       old_val.f = *p;\n\
                 \x20       new_val.f = old_val.f + v;\n\
                 \x20   } while (atomic_cmpxchg((volatile __global unsigned int*)p, old_val.u, new_val.u) != old_val.u);\n\
                 }\n\
                 inline void descend_atomic_add_f32_local(volatile __local float* p, float v) {\n\
                 \x20   union { unsigned int u; float f; } old_val, new_val;\n\
                 \x20   do {\n\
                 \x20       old_val.f = *p;\n\
                 \x20       new_val.f = old_val.f + v;\n\
                 \x20   } while (atomic_cmpxchg((volatile __local unsigned int*)p, old_val.u, new_val.u) != old_val.u);\n\
                 }\n\n",
            );
        }
        out
    }
}
