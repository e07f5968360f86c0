//! The CUDA C++ backend.
//!
//! Produces the text a real Descend compiler would hand to `nvcc`. The
//! output is golden-tested against the paper's benchmark kernels; we
//! cannot run it (no NVIDIA toolchain in this reproduction — see
//! DESIGN.md), but its index expressions are byte-for-byte the ones the
//! simulator executes, via the shared lowering in [`crate::shared`].

use crate::shared::{builtin_spelling, indent, render_body, Builtin, HostSizes, Nested};
use crate::KernelBackend;
use descend_ast::term::{AtomicOp, ShflKind};
use descend_codegen::{CodegenError, IndexTable};
use descend_typeck::{CheckedProgram, HostStmt, MonoKernel, ScalarKind};
use gpu_sim::ir::Axis;
use std::fmt::Write as _;

/// The CUDA C++ target.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CudaBackend;

impl KernelBackend for CudaBackend {
    fn name(&self) -> &'static str {
        "cuda"
    }

    fn file_extension(&self) -> &'static str {
        "cu"
    }

    fn scalar_type(&self, k: ScalarKind) -> &'static str {
        k.cuda_name()
    }

    fn builtin(&self, b: Builtin, axis: Axis) -> &'static str {
        builtin_spelling(
            &[
                ["blockIdx.x", "blockIdx.y", "blockIdx.z"],
                ["threadIdx.x", "threadIdx.y", "threadIdx.z"],
                ["blockDim.x", "blockDim.y", "blockDim.z"],
                ["gridDim.x", "gridDim.y", "gridDim.z"],
            ],
            b,
            axis,
        )
    }

    fn barrier(&self) -> &'static str {
        "__syncthreads();"
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
        _elem: ScalarKind,
        _global: bool,
        target: &str,
        value: &str,
    ) -> String {
        // CUDA's intrinsics overload on the pointee type (f32
        // `atomicAdd`/`atomicExch` are native; the checker restricts
        // min/max to integer places).
        let f = match op {
            AtomicOp::Add => "atomicAdd",
            AtomicOp::Min => "atomicMin",
            AtomicOp::Max => "atomicMax",
            AtomicOp::Exch => "atomicExch",
        };
        format!("{f}(&{target}, {value});")
    }

    fn shuffle(&self, kind: ShflKind, value: &str, delta: u32) -> String {
        // The full-warp member mask: the checker guarantees every lane
        // of the warp executes the shuffle (no lane-space splits).
        let f = match kind {
            ShflKind::Down => "__shfl_down_sync",
            ShflKind::Xor => "__shfl_xor_sync",
        };
        format!("{f}(0xffffffff, {value}, {delta})")
    }

    fn local_decl(&self, elem: ScalarKind, name: &str, init: &str) -> String {
        format!("{} {name} = {init};", self.scalar_type(elem))
    }

    fn for_loop(&self, var: &str, lo: u64, hi: u64) -> String {
        // Unrolled by nvcc, as the simulator (which runs the unrolled
        // copies) models it.
        format!("#pragma unroll\nfor (int {var} = {lo}; {var} < {hi}; {var}++) {{")
    }

    fn emit_kernel<'k>(
        &self,
        k: &'k MonoKernel,
        table: &mut IndexTable<'k>,
    ) -> Result<String, CodegenError> {
        let mut out = String::new();
        let _ = write!(out, "__global__ void {}(", k.name);
        for (i, p) in k.params.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            if p.uniq {
                let _ = write!(out, "{}* {}", self.scalar_type(p.elem), p.name);
            } else {
                let _ = write!(out, "const {}* {}", self.scalar_type(p.elem), p.name);
            }
        }
        out.push_str(") {\n");
        for s in &k.shared {
            indent(&mut out, 1);
            let total: u64 = s.dims.iter().product();
            let _ = writeln!(
                out,
                "__shared__ {} {}[{}];",
                self.scalar_type(s.elem),
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
        let _ = writeln!(out, "void {name}() {{");
        let mut sizes = HostSizes::default();
        for s in stmts {
            sizes.record(s);
            indent(&mut out, 1);
            match s {
                HostStmt::AllocCpu { name, elem, len } => {
                    let t = self.scalar_type(*elem);
                    let _ = writeln!(out, "{t}* {name} = ({t}*)calloc({len}, sizeof({t}));");
                }
                HostStmt::AllocGpu { name, elem, len } => {
                    let t = self.scalar_type(*elem);
                    let _ = writeln!(
                        out,
                        "{t}* {name}; cudaMalloc(&{name}, {len} * sizeof({t})); cudaMemset({name}, 0, {len} * sizeof({t}));"
                    );
                }
                HostStmt::AllocGpuCopy { name, src, elem } => {
                    let (_, len) = sizes.get(src);
                    let t = self.scalar_type(*elem);
                    let _ = writeln!(
                        out,
                        "{t}* {name}; cudaMalloc(&{name}, {len} * sizeof({t})); cudaMemcpy({name}, {src}, {len} * sizeof({t}), cudaMemcpyHostToDevice);"
                    );
                }
                HostStmt::CopyToHost { dst, src } => {
                    let (elem, len) = sizes.get(dst);
                    let t = self.scalar_type(elem);
                    let _ = writeln!(
                        out,
                        "cudaMemcpy({dst}, {src}, {len} * sizeof({t}), cudaMemcpyDeviceToHost);"
                    );
                }
                HostStmt::CopyToGpu { dst, src } => {
                    let (elem, len) = sizes.get(dst);
                    let t = self.scalar_type(elem);
                    let _ = writeln!(
                        out,
                        "cudaMemcpy({dst}, {src}, {len} * sizeof({t}), cudaMemcpyHostToDevice);"
                    );
                }
                HostStmt::Launch { kernel, args } => {
                    let k = &kernels[*kernel];
                    let _ = writeln!(
                        out,
                        "{}<<<dim3({}, {}, {}), dim3({}, {}, {})>>>({});",
                        k.name,
                        k.grid_dim[0],
                        k.grid_dim[1],
                        k.grid_dim[2],
                        k.block_dim[0],
                        k.block_dim[1],
                        k.block_dim[2],
                        args.join(", ")
                    );
                }
            }
        }
        out.push_str("}\n");
        out
    }

    fn prelude(&self, _checked: &CheckedProgram) -> String {
        String::from("#include <cuda_runtime.h>\n#include <cstdlib>\n\n")
    }
}
