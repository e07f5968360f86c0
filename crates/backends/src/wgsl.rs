//! The WGSL (WebGPU Shading Language) backend.
//!
//! Each kernel renders as a standalone WGSL module: storage-buffer
//! bindings at `@group(0)`, `var<workgroup>` staging arrays, and a
//! `@compute` entry point whose `@workgroup_size` attribute carries the
//! block shape. `blockIdx`/`threadIdx` become the `workgroup_id` and
//! `local_invocation_id` builtins (declared as entry-point parameters
//! `block_idx`/`thread_idx`), and `sync` becomes `workgroupBarrier()`.
//!
//! WGSL has no `f64`, so `f64` buffers and locals are narrowed to `f32`
//! (flagged by a comment in the module header). Index expressions come
//! from the shared lowering in [`crate::shared`] and are structurally
//! the ones the simulator executes.
//!
//! Host functions have no WGSL spelling — the host side of WebGPU is
//! JavaScript — so they render as a commented WebGPU sketch that keeps
//! allocation sizes, dispatch shapes and copy directions reviewable.

use crate::shared::{
    atomic_targets, axis_name, kernel_uses_scalar, kernel_uses_shuffle, render_body, Builtin,
    HostSizes, Nested,
};
use crate::KernelBackend;
use descend_ast::term::{AtomicOp, ShflKind};
use descend_codegen::CodegenError;
use descend_typeck::{CheckedProgram, HostStmt, MemKind, MonoKernel, ScalarKind};
use gpu_sim::ir::Axis;
use std::fmt::Write as _;

/// The WGSL target.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WgslBackend;

/// Buffer element spelling: `bool` is not host-shareable in WGSL, so
/// bool storage/workgroup arrays travel as `u32` (locals keep `bool`).
fn buffer_type(be: &WgslBackend, k: ScalarKind) -> &'static str {
    match k {
        ScalarKind::Bool => "u32",
        other => be.scalar_type(other),
    }
}

/// Element spelling for buffers that are atomic targets: WGSL only has
/// `atomic<i32>`/`atomic<u32>`, so f32 atomic targets are declared as
/// `atomic<u32>` carrying the float's bit pattern (updated by the
/// CAS-loop helper noted in the module header).
fn atomic_elem_type(k: ScalarKind) -> &'static str {
    match k {
        ScalarKind::I32 => "atomic<i32>",
        // f64 never reaches atomics (checker-rejected); bool either.
        _ => "atomic<u32>",
    }
}

/// Narrowed element size in bytes on the WGSL side (`f64` -> `f32`).
fn wgsl_size_bytes(k: ScalarKind) -> u64 {
    match k {
        ScalarKind::F64
        | ScalarKind::F32
        | ScalarKind::I32
        | ScalarKind::U32
        | ScalarKind::Bool => 4,
    }
}

/// The JavaScript typed-array constructor matching a (narrowed) scalar.
fn typed_array(k: ScalarKind) -> &'static str {
    match k {
        ScalarKind::F64 | ScalarKind::F32 => "Float32Array",
        ScalarKind::I32 => "Int32Array",
        ScalarKind::U32 | ScalarKind::Bool => "Uint32Array",
    }
}

impl KernelBackend for WgslBackend {
    fn name(&self) -> &'static str {
        "wgsl"
    }

    fn file_extension(&self) -> &'static str {
        "wgsl"
    }

    fn scalar_type(&self, k: ScalarKind) -> &'static str {
        match k {
            // WGSL has no f64; doubles are narrowed (see module docs).
            ScalarKind::F64 => "f32",
            ScalarKind::F32 => "f32",
            ScalarKind::I32 => "i32",
            ScalarKind::U32 => "u32",
            ScalarKind::Bool => "bool",
        }
    }

    fn builtin(&self, b: Builtin, axis: Axis) -> String {
        let base = match b {
            Builtin::BlockIdx => "block_idx",
            Builtin::ThreadIdx => "thread_idx",
            Builtin::BlockDim => "block_dim",
            Builtin::GridDim => "grid_dim",
        };
        format!("{base}.{}", axis_name(axis))
    }

    fn barrier(&self) -> &'static str {
        "workgroupBarrier();"
    }

    fn literal(&self, kind: ScalarKind, v: f64) -> String {
        match kind {
            // Abstract-typed literals; WGSL converts them to the
            // surrounding f32/i32/u32 context.
            ScalarKind::F64 | ScalarKind::F32 => format!("{v:?}"),
            ScalarKind::I32 => format!("{}", v as i64),
            ScalarKind::U32 => format!("{}u", v as i64),
            ScalarKind::Bool => format!("{}", v != 0.0),
        }
    }

    fn atomic_rmw(
        &self,
        op: AtomicOp,
        elem: ScalarKind,
        _global: bool,
        target: &str,
        value: &str,
    ) -> String {
        if elem == ScalarKind::F32 {
            // No `atomic<f32>` in WGSL: the buffer is declared
            // `atomic<u32>` and updated by a CAS loop over the bit
            // pattern (helper sketched in the module header note).
            return match op {
                AtomicOp::Add => format!("descendAtomicAddF32(&{target}, {value});"),
                AtomicOp::Exch => format!("atomicExchange(&{target}, bitcast<u32>({value}));"),
                // Rejected by the type checker; panic loudly rather than
                // silently inventing an undefined helper.
                AtomicOp::Min | AtomicOp::Max => {
                    unreachable!("f32 atomic min/max are rejected by the type checker")
                }
            };
        }
        let f = match op {
            AtomicOp::Add => "atomicAdd",
            AtomicOp::Min => "atomicMin",
            AtomicOp::Max => "atomicMax",
            AtomicOp::Exch => "atomicExchange",
        };
        format!("{f}(&{target}, {value});")
    }

    fn atomic_buffer_store(&self, elem: ScalarKind, target: &str, value: &str) -> String {
        // f32 atomic targets are declared atomic<u32> (bit pattern).
        if elem == ScalarKind::F32 || elem == ScalarKind::F64 {
            format!("atomicStore(&{target}, bitcast<u32>({value}));")
        } else {
            format!("atomicStore(&{target}, {value});")
        }
    }

    fn cast(&self, to: ScalarKind, text: &str) -> String {
        format!("{}({text})", self.scalar_type(to))
    }

    fn scatter_index_use(&self, name: &str) -> String {
        format!("u32({name})")
    }

    fn for_loop(&self, var: &str, lo: u64, hi: u64) -> String {
        // `u32`, the type of the coordinate builtins the loop variable
        // combines with in index arithmetic (no implicit conversions).
        format!("for (var {var}: u32 = {lo}u; {var} < {hi}u; {var}++) {{")
    }

    fn atomic_buffer_load(&self, elem: ScalarKind, text: String) -> String {
        if elem == ScalarKind::F32 || elem == ScalarKind::F64 {
            format!("bitcast<f32>(atomicLoad(&{text}))")
        } else {
            format!("atomicLoad(&{text})")
        }
    }

    fn shuffle(&self, kind: ShflKind, value: &str, delta: u32) -> String {
        // Subgroup builtins (behind `enable subgroups;`, emitted in the
        // module header when the kernel shuffles). The simulator (and
        // CUDA) define out-of-range `Down` sources to keep the lane's
        // own value; WGSL's `subgroupShuffleDown` leaves them
        // indeterminate, so the top `delta` lanes select their own value
        // (the lane id is `thread_idx.x % 32` under the module's 32-lane
        // subgroup assumption). Xor masks < 32 are always in range.
        match kind {
            ShflKind::Down => format!(
                "select(subgroupShuffleDown({value}, {delta}u), {value}, thread_idx.x % 32u + {delta}u >= 32u)"
            ),
            ShflKind::Xor => format!("subgroupShuffleXor({value}, {delta}u)"),
        }
    }

    fn local_decl(&self, elem: ScalarKind, name: &str, init: &str) -> String {
        format!("var {name}: {} = {init};", self.scalar_type(elem))
    }

    fn load_conversion(&self, elem: ScalarKind, text: String) -> String {
        // Bool buffers are carried as u32 (not host-shareable as bool);
        // convert back at the use site.
        if elem == ScalarKind::Bool {
            format!("({text} != 0)")
        } else {
            text
        }
    }

    fn store_conversion(&self, elem: ScalarKind, text: String) -> String {
        if elem == ScalarKind::Bool {
            format!("select(0u, 1u, {text})")
        } else {
            text
        }
    }

    fn emit_kernel(&self, k: &MonoKernel) -> Result<String, CodegenError> {
        let atomics = atomic_targets(k);
        let mut out = String::new();
        let _ = writeln!(out, "// Kernel `{}` — standalone WGSL module.", k.name);
        if kernel_uses_shuffle(k) {
            // Subgroup builtins need the extension; the simulated warp
            // width assumes a 32-lane subgroup (note for the host side,
            // which can check `subgroupMinSize`/`subgroupMaxSize`).
            out.push_str("enable subgroups;\n");
            out.push_str("// note: shuffles assume a 32-lane subgroup.\n");
        }
        if kernel_uses_scalar(k, ScalarKind::F64) {
            out.push_str("// note: f64 narrowed to f32 (WGSL has no f64).\n");
        }
        let f32_atomic =
            k.params.iter().enumerate().any(|(i, p)| {
                p.elem == ScalarKind::F32 && atomics.contains(&MemKind::GlobalParam(i))
            }) || k
                .shared
                .iter()
                .enumerate()
                .any(|(i, s)| s.elem == ScalarKind::F32 && atomics.contains(&MemKind::Shared(i)));
        if f32_atomic {
            out.push_str(
                "// note: WGSL has no atomic<f32>; f32 atomic targets are declared\n\
                 // atomic<u32> over the float bit pattern, and descendAtomicAddF32 is\n\
                 // a CAS loop: loop { let o = atomicLoad(p); if atomicCompareExchangeWeak(p,\n\
                 // o, bitcast<u32>(bitcast<f32>(o) + v)).exchanged { break; } }\n",
            );
        }
        for (i, p) in k.params.iter().enumerate() {
            let total: u64 = p.dims.iter().product();
            let access = if p.uniq { "read_write" } else { "read" };
            let elem_text = if atomics.contains(&MemKind::GlobalParam(i)) {
                atomic_elem_type(p.elem)
            } else {
                buffer_type(self, p.elem)
            };
            let _ = writeln!(
                out,
                "@group(0) @binding({i}) var<storage, {access}> {}: array<{elem_text}, {total}>;",
                p.name
            );
        }
        for (i, s) in k.shared.iter().enumerate() {
            let total: u64 = s.dims.iter().product();
            let elem_text = if atomics.contains(&MemKind::Shared(i)) {
                atomic_elem_type(s.elem)
            } else {
                buffer_type(self, s.elem)
            };
            let _ = writeln!(
                out,
                "var<workgroup> {}: array<{elem_text}, {total}>;",
                s.name
            );
        }
        // `block_dim` has no runtime builtin in WGSL (the workgroup
        // size is a compile-time attribute), so declare it as a module
        // constant; every coordinate builtin the shared renderer can
        // produce then names a declared identifier.
        let _ = writeln!(
            out,
            "const block_dim: vec3<u32> = vec3<u32>({}, {}, {});",
            k.block_dim[0], k.block_dim[1], k.block_dim[2]
        );
        out.push('\n');
        let _ = writeln!(
            out,
            "@compute @workgroup_size({}, {}, {})",
            k.block_dim[0], k.block_dim[1], k.block_dim[2]
        );
        let _ = writeln!(
            out,
            "fn {}(@builtin(workgroup_id) block_idx: vec3<u32>, @builtin(local_invocation_id) thread_idx: vec3<u32>, @builtin(num_workgroups) grid_dim: vec3<u32>) {{",
            k.name
        );
        let mut out = render_body(self, k, Nested::new(out))?.out;
        out.push_str("}\n");
        Ok(out)
    }

    fn emit_host_fn(&self, name: &str, stmts: &[HostStmt], kernels: &[MonoKernel]) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "// Host function `{name}` (WebGPU JavaScript sketch;");
        out.push_str("// WGSL has no host side — sizes, dispatches and copies only):\n");
        let mut sizes = HostSizes::new();
        for s in stmts {
            sizes.record(s);
            match s {
                HostStmt::AllocCpu { name, elem, len } => {
                    let _ = writeln!(
                        out,
                        "//   const {name} = new {}({len});",
                        typed_array(*elem)
                    );
                }
                HostStmt::AllocGpu { name, elem, len } => {
                    let _ = writeln!(
                        out,
                        "//   const {name} = device.createBuffer({{ size: {}, usage: STORAGE | COPY_SRC | COPY_DST }});",
                        len * wgsl_size_bytes(*elem)
                    );
                }
                HostStmt::AllocGpuCopy { name, src, elem } => {
                    let (_, len) = sizes.get(src);
                    let _ = writeln!(
                        out,
                        "//   const {name} = device.createBuffer({{ size: {}, usage: STORAGE | COPY_SRC | COPY_DST }});",
                        len * wgsl_size_bytes(*elem)
                    );
                    let _ = writeln!(out, "//   device.queue.writeBuffer({name}, 0, {src});");
                }
                HostStmt::CopyToHost { dst, src } => {
                    let _ = writeln!(
                        out,
                        "//   await readBack({src}, {dst});  // staging copy + mapAsync"
                    );
                }
                HostStmt::CopyToGpu { dst, src } => {
                    let _ = writeln!(out, "//   device.queue.writeBuffer({dst}, 0, {src});");
                }
                HostStmt::Launch { kernel, args } => {
                    let k = &kernels[*kernel];
                    let _ = writeln!(
                        out,
                        "//   dispatch('{}', [{}, {}, {}], [{}]);  // workgroups x bindings",
                        k.name,
                        k.grid_dim[0],
                        k.grid_dim[1],
                        k.grid_dim[2],
                        args.join(", ")
                    );
                }
            }
        }
        out
    }

    fn prelude(&self, _checked: &CheckedProgram) -> String {
        String::from(
            "// WGSL translation unit: one standalone module per kernel\n\
             // (bindings restart at @group(0) @binding(0) in each section).\n\n",
        )
    }
}
