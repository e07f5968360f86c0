//! The portable C11 (+OpenMP) backend — the one target this repository
//! can *execute*.
//!
//! The other backends render for hardware we do not have; this one
//! renders for the host CPU so the differential harness
//! (`descend-native`, `tests/native_diff.rs`) can compile emitted code
//! with the system `cc` and compare real runs against the simulator and
//! sequential references.
//!
//! # Execution model
//!
//! - **Blocks** become iterations of an outer
//!   `#pragma omp parallel for` loop: blocks are independent except for
//!   global atomics, which render as `#pragma omp atomic` /
//!   `__atomic_compare_exchange_n` CAS loops.
//! - **Threads** become iterations of inner sequential loops, one loop
//!   per *barrier phase*: the kernel body is fissioned at every `sync`
//!   (and at every shuffle staging point), and each phase runs all
//!   threads of the block to completion before the next phase starts.
//!   Running a whole phase for thread 0, then thread 1, ... is exactly
//!   the barrier guarantee, and the checker has already proven each
//!   interval race-free, so the serialization cannot change results.
//! - **Warp shuffles** stage through a per-block scratch array indexed
//!   by the linear thread id: the shuffle operand is written to
//!   `__shfl<n>[__t]`, the phase is broken (all lanes stage before any
//!   lane reads — the checker guarantees warp-uniform control flow
//!   around shuffles), and the continuation reads the partner lane's
//!   slot (`__t ^ delta`, or `__t + delta` clamped at the warp edge
//!   with the lane's own value, matching CUDA/simulator semantics).
//! - **Thread-private locals** become per-block arrays indexed by the
//!   linear thread id, because a local written in one phase may be read
//!   in a later one (the warp-shuffle reduction does exactly this).
//!   They are declared with the *compute* type — `double` for both
//!   float widths, `int64_t` for both integer widths — mirroring the
//!   simulator, which computes in f64/i64 and narrows only at buffer
//!   stores; see `docs/DESIGN.md` for the divergences this does and
//!   does not close.
//!
//! Host functions render as real runnable C: `calloc`/`memcpy` for the
//! alloc/copy statements, plain calls for launches, plus a tiny stdin/
//! stdout protocol (`descend_load_inputs` / `descend_buf_dump`) so the
//! harness can feed the same inputs the simulator sees and read back
//! every CPU buffer. A generated `main` dispatches on `argv[1]`.

use crate::shared::{
    atomic_targets, axis_name, buffer_name, for_each_stmt, indent, render_access, scatter_index,
    space_coord, Builtin, HostSizes,
};
use crate::KernelBackend;
use descend_ast::term::{AtomicOp, BinOp as AstBinOp, ShflKind, UnOp as AstUnOp};
use descend_codegen::CodegenError;
use descend_typeck::{
    CheckedProgram, ElabAccess, ElabExpr, ElabStmt, HostStmt, MemKind, MonoKernel, ScalarKind,
};
use gpu_sim::ir::Axis;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// The portable C11 (+OpenMP) target.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CBackend;

/// The arithmetic type a scalar kind is *computed* in, mirroring the
/// simulator's value representation (f64 for both float widths, i64 for
/// both integer widths; narrowing happens only at buffer stores).
fn compute_type(k: ScalarKind) -> &'static str {
    match k {
        ScalarKind::F64 | ScalarKind::F32 => "double",
        ScalarKind::I32 | ScalarKind::U32 => "int64_t",
        ScalarKind::Bool => "bool",
    }
}

impl KernelBackend for CBackend {
    fn name(&self) -> &'static str {
        "c"
    }

    fn file_extension(&self) -> &'static str {
        "c"
    }

    fn scalar_type(&self, k: ScalarKind) -> &'static str {
        // Buffer element spellings: exact fixed-width types so the
        // native run's memory layout matches the simulator's model.
        match k {
            ScalarKind::F64 => "double",
            ScalarKind::F32 => "float",
            ScalarKind::I32 => "int32_t",
            ScalarKind::U32 => "uint32_t",
            ScalarKind::Bool => "bool",
        }
    }

    fn builtin(&self, b: Builtin, axis: Axis) -> String {
        let base = match b {
            Builtin::BlockIdx => "blockIdx",
            Builtin::ThreadIdx => "threadIdx",
            Builtin::BlockDim => "blockDim",
            Builtin::GridDim => "gridDim",
        };
        // Plain `int64_t` locals derived from the loop counters; the
        // kernel frame declares exactly the ones the body references.
        format!("{base}_{}", axis_name(axis))
    }

    fn barrier(&self) -> &'static str {
        // Never emitted: `sync` is compiled away into phase fission (a
        // new thread loop), which *is* the barrier.
        "/* barrier: phase boundary */"
    }

    fn literal(&self, kind: ScalarKind, v: f64) -> String {
        match kind {
            // f32 literals are spelled as doubles on purpose: the
            // simulator computes f32 in f64 and rounds only at buffer
            // stores, and the C rendering does the same.
            ScalarKind::F64 | ScalarKind::F32 => format!("{v:?}"),
            ScalarKind::I32 | ScalarKind::U32 => format!("{}", v as i64),
            ScalarKind::Bool => format!("{}", v != 0.0),
        }
    }

    fn local_decl(&self, elem: ScalarKind, name: &str, init: &str) -> String {
        format!("{} {name} = {init};", compute_type(elem))
    }

    fn load_conversion(&self, elem: ScalarKind, text: String) -> String {
        match elem {
            // Promote f32 loads so whole expressions evaluate in
            // double, like the simulator (a float intermediate would
            // double-round chained arithmetic).
            ScalarKind::F32 => format!("(double)({text})"),
            // Promote u32 loads to a signed 64-bit value: the simulator
            // computes unsigned buffers in i64, so comparisons and
            // subtraction with negative intermediates must not wrap to
            // huge unsigned values. i32 loads are left alone — C's
            // `int` covers the full i32 range, and index parity with
            // the other backends pins the unwrapped spelling.
            ScalarKind::U32 => format!("(int64_t)({text})"),
            ScalarKind::F64 | ScalarKind::I32 | ScalarKind::Bool => text,
        }
    }

    fn store_conversion(&self, elem: ScalarKind, text: String) -> String {
        match elem {
            // Narrow at the buffer boundary, exactly where the
            // simulator quantizes.
            ScalarKind::F32 => format!("(float)({text})"),
            ScalarKind::I32 => format!("(int32_t)({text})"),
            ScalarKind::U32 => format!("(uint32_t)({text})"),
            ScalarKind::F64 | ScalarKind::Bool => text,
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
        if !global {
            // Shared memory is per-block and each block runs its
            // threads sequentially, so shared atomics need no
            // synchronization at all — plain read-modify-write.
            return match op {
                AtomicOp::Add => format!("{target} += {value};"),
                AtomicOp::Exch => format!("{target} = {value};"),
                AtomicOp::Min => format!("if ({value} < {target}) {{ {target} = {value}; }}"),
                AtomicOp::Max => format!("if ({value} > {target}) {{ {target} = {value}; }}"),
            };
        }
        // Global targets are contended across OpenMP block iterations.
        match op {
            AtomicOp::Add => format!("#pragma omp atomic update\n{target} += {value};"),
            AtomicOp::Exch => format!("#pragma omp atomic write\n{target} = {value};"),
            AtomicOp::Min | AtomicOp::Max => {
                // No OpenMP atomic min/max statement form in C11-era
                // OpenMP; use the CAS helpers from the prelude. The
                // checker restricts min/max to integer places.
                let f = match (op, elem) {
                    (AtomicOp::Min, ScalarKind::U32) => "descend_atomic_min_u32",
                    (AtomicOp::Max, ScalarKind::U32) => "descend_atomic_max_u32",
                    (AtomicOp::Min, _) => "descend_atomic_min_i32",
                    (AtomicOp::Max, _) => "descend_atomic_max_i32",
                    _ => unreachable!("add/exch handled above"),
                };
                format!("{f}(&{target}, {value});")
            }
        }
    }

    fn shuffle(&self, kind: ShflKind, value: &str, delta: u32) -> String {
        // `value` is the *staging array name* (see the module docs):
        // the operand was written to `value[__t]` in the previous
        // phase, and this expression reads the partner lane's slot.
        // Warps are groups of 32 consecutive linear thread ids, exactly
        // the simulator's warp grouping.
        match kind {
            ShflKind::Xor => format!("{value}[(__t ^ {delta})]"),
            // A Down source past the warp edge yields the lane's own
            // value (CUDA/simulator semantics).
            ShflKind::Down => {
                format!("((((__t % 32) + {delta}) < 32) ? {value}[(__t + {delta})] : {value}[__t])")
            }
        }
    }

    fn emit_kernel(&self, k: &MonoKernel) -> Result<String, CodegenError> {
        let mut cx = CKernelCx::new(self, k);
        cx.stmts(&k.body)?;
        cx.render(k)
    }

    fn emit_host_fn(
        &self,
        name: &str,
        stmts: &[HostStmt],
        kernels: &[MonoKernel],
    ) -> Result<String, CodegenError> {
        let mut out = String::new();
        let _ = writeln!(out, "void descend_host_{name}(void) {{");
        let mut sizes = HostSizes::new();
        // CPU buffers dump (in allocation order) after the body runs;
        // every allocation is freed on the way out.
        let mut cpu_bufs: Vec<(String, ScalarKind, u64)> = Vec::new();
        let mut frees: Vec<String> = Vec::new();
        for s in stmts {
            sizes.record(s);
            indent(&mut out, 1);
            match s {
                HostStmt::AllocCpu { name, elem, len } => {
                    let t = self.scalar_type(*elem);
                    let _ = writeln!(out, "{t}* {name} = ({t}*)calloc({len}, sizeof({t}));");
                    indent(&mut out, 1);
                    let _ = writeln!(
                        out,
                        "descend_buf_init(\"{name}\", {name}, {len}, {});",
                        elem_enum(*elem)
                    );
                    cpu_bufs.push((name.clone(), *elem, *len));
                    frees.push(name.clone());
                }
                HostStmt::AllocGpu { name, elem, len } => {
                    let t = self.scalar_type(*elem);
                    let _ = writeln!(out, "{t}* {name} = ({t}*)calloc({len}, sizeof({t}));");
                    frees.push(name.clone());
                }
                HostStmt::AllocGpuCopy { name, src, elem } => {
                    let (_, len) = sizes.get(src);
                    let t = self.scalar_type(*elem);
                    let _ = writeln!(
                        out,
                        "{t}* {name} = ({t}*)malloc({len} * sizeof({t})); memcpy({name}, {src}, {len} * sizeof({t}));"
                    );
                    frees.push(name.clone());
                }
                HostStmt::CopyToHost { dst, src } | HostStmt::CopyToGpu { dst, src } => {
                    let (elem, len) = sizes.get(dst);
                    let t = self.scalar_type(elem);
                    let _ = writeln!(out, "memcpy({dst}, {src}, {len} * sizeof({t}));");
                }
                HostStmt::Launch { kernel, args } => {
                    let _ = writeln!(out, "{}({});", kernels[*kernel].name, args.join(", "));
                }
            }
        }
        for (name, elem, len) in &cpu_bufs {
            indent(&mut out, 1);
            let _ = writeln!(
                out,
                "descend_buf_dump(\"{name}\", {name}, {len}, {});",
                elem_enum(*elem)
            );
        }
        for name in &frees {
            indent(&mut out, 1);
            let _ = writeln!(out, "free({name});");
        }
        out.push_str("}\n");
        Ok(out)
    }

    fn prelude(&self, checked: &CheckedProgram) -> String {
        let mut out = String::from("#include <stdint.h>\n#include <stdbool.h>\n");
        let has_host = !checked.host_fns.is_empty();
        if has_host {
            out.push_str("#include <stdio.h>\n#include <stdlib.h>\n#include <string.h>\n");
        }
        out.push('\n');
        if needs_cas_helpers(checked) {
            out.push_str(CAS_HELPERS);
        }
        if has_host {
            out.push_str(HOST_RUNTIME);
        }
        out
    }

    fn epilogue(&self, checked: &CheckedProgram) -> String {
        if checked.host_fns.is_empty() {
            String::new()
        } else {
            dispatcher(checked)
        }
    }
}

/// The `descend_elem` enum spelling for a scalar kind.
fn elem_enum(k: ScalarKind) -> &'static str {
    match k {
        ScalarKind::F64 => "DESCEND_F64",
        ScalarKind::F32 => "DESCEND_F32",
        ScalarKind::I32 => "DESCEND_I32",
        ScalarKind::U32 => "DESCEND_U32",
        ScalarKind::Bool => "DESCEND_BOOL",
    }
}

/// Whether any kernel performs a global atomic min/max (the only
/// operations that need the CAS helpers).
fn needs_cas_helpers(checked: &CheckedProgram) -> bool {
    let mut hit = false;
    for k in &checked.kernels {
        for_each_stmt(&k.body, &mut |s| {
            if let ElabStmt::Atomic { op, access, .. } = s {
                hit |= matches!(op, AtomicOp::Min | AtomicOp::Max)
                    && matches!(access.mem, MemKind::GlobalParam(_));
            }
        });
    }
    hit
}

/// CAS loops for global integer atomic min/max (no OpenMP statement
/// form exists for them). `static inline` so unused helpers do not trip
/// `-Wall -Werror`.
const CAS_HELPERS: &str = "\
static inline void descend_atomic_min_i32(int32_t* p, int32_t v) {
    int32_t old = __atomic_load_n(p, __ATOMIC_RELAXED);
    while (v < old
           && !__atomic_compare_exchange_n(p, &old, v, 0, __ATOMIC_RELAXED, __ATOMIC_RELAXED)) {
    }
}

static inline void descend_atomic_max_i32(int32_t* p, int32_t v) {
    int32_t old = __atomic_load_n(p, __ATOMIC_RELAXED);
    while (v > old
           && !__atomic_compare_exchange_n(p, &old, v, 0, __ATOMIC_RELAXED, __ATOMIC_RELAXED)) {
    }
}

static inline void descend_atomic_min_u32(uint32_t* p, uint32_t v) {
    uint32_t old = __atomic_load_n(p, __ATOMIC_RELAXED);
    while (v < old
           && !__atomic_compare_exchange_n(p, &old, v, 0, __ATOMIC_RELAXED, __ATOMIC_RELAXED)) {
    }
}

static inline void descend_atomic_max_u32(uint32_t* p, uint32_t v) {
    uint32_t old = __atomic_load_n(p, __ATOMIC_RELAXED);
    while (v > old
           && !__atomic_compare_exchange_n(p, &old, v, 0, __ATOMIC_RELAXED, __ATOMIC_RELAXED)) {
    }
}

";

/// The stdin/stdout harness runtime: `name count v0 v1 ...` records on
/// stdin seed CPU buffers (with the simulator's exact quantization);
/// every CPU buffer's final contents print one `name count v0 ...` line
/// on stdout. `%.17g` round-trips every double exactly.
const HOST_RUNTIME: &str = "\
typedef enum {
    DESCEND_F64,
    DESCEND_F32,
    DESCEND_I32,
    DESCEND_U32,
    DESCEND_BOOL
} descend_elem;

#define DESCEND_MAX_INPUTS 64
static struct {
    char name[64];
    long long len;
    double* vals;
} descend_inputs[DESCEND_MAX_INPUTS];
static int descend_input_count = 0;

static inline void descend_load_inputs(void) {
    char name[64];
    long long len;
    while (descend_input_count < DESCEND_MAX_INPUTS && scanf(\"%63s %lld\", name, &len) == 2) {
        double* vals = (double*)calloc(len > 0 ? (size_t)len : 1, sizeof(double));
        for (long long i = 0; i < len; i++) {
            if (scanf(\"%lf\", &vals[i]) != 1) {
                break;
            }
        }
        strcpy(descend_inputs[descend_input_count].name, name);
        descend_inputs[descend_input_count].len = len;
        descend_inputs[descend_input_count].vals = vals;
        descend_input_count++;
    }
}

static inline int32_t descend_quant_i32(double v) {
    if (v != v) {
        return 0;
    }
    if (v >= 2147483647.0) {
        return INT32_MAX;
    }
    if (v <= -2147483648.0) {
        return INT32_MIN;
    }
    return (int32_t)v;
}

static inline uint32_t descend_quant_u32(double v) {
    if (v != v || v <= 0.0) {
        return 0;
    }
    if (v >= 4294967295.0) {
        return UINT32_MAX;
    }
    return (uint32_t)v;
}

static inline void descend_buf_init(const char* name, void* buf, long long len, descend_elem k) {
    for (int i = 0; i < descend_input_count; i++) {
        if (strcmp(descend_inputs[i].name, name) != 0) {
            continue;
        }
        long long n = descend_inputs[i].len < len ? descend_inputs[i].len : len;
        for (long long j = 0; j < n; j++) {
            double v = descend_inputs[i].vals[j];
            switch (k) {
            case DESCEND_F64:
                ((double*)buf)[j] = v;
                break;
            case DESCEND_F32:
                ((float*)buf)[j] = (float)v;
                break;
            case DESCEND_I32:
                ((int32_t*)buf)[j] = descend_quant_i32(v);
                break;
            case DESCEND_U32:
                ((uint32_t*)buf)[j] = descend_quant_u32(v);
                break;
            case DESCEND_BOOL:
                ((bool*)buf)[j] = v != 0.0;
                break;
            }
        }
        return;
    }
}

static inline void descend_buf_dump(const char* name, const void* buf, long long len,
                                    descend_elem k) {
    printf(\"%s %lld\", name, len);
    for (long long j = 0; j < len; j++) {
        switch (k) {
        case DESCEND_F64:
            printf(\" %.17g\", ((const double*)buf)[j]);
            break;
        case DESCEND_F32:
            printf(\" %.17g\", (double)((const float*)buf)[j]);
            break;
        case DESCEND_I32:
            printf(\" %lld\", (long long)((const int32_t*)buf)[j]);
            break;
        case DESCEND_U32:
            printf(\" %llu\", (unsigned long long)((const uint32_t*)buf)[j]);
            break;
        case DESCEND_BOOL:
            printf(\" %d\", ((const bool*)buf)[j] ? 1 : 0);
            break;
        }
    }
    printf(\"\\n\");
}

";

/// The generated `main`: loads stdin inputs once, then dispatches
/// `argv[1]` (default `main` if the program has one, else the first
/// host function) to its `descend_host_*` stub.
fn dispatcher(checked: &CheckedProgram) -> String {
    let default = if checked.host_fns.iter().any(|(n, _)| n == "main") {
        "main"
    } else {
        &checked.host_fns[0].0
    };
    let mut out = String::new();
    let _ = writeln!(out, "int main(int argc, char** argv) {{");
    let _ = writeln!(
        out,
        "    const char* fn = argc > 1 ? argv[1] : \"{default}\";"
    );
    let _ = writeln!(out, "    descend_load_inputs();");
    for (name, _) in &checked.host_fns {
        let _ = writeln!(out, "    if (strcmp(fn, \"{name}\") == 0) {{");
        let _ = writeln!(out, "        descend_host_{name}();");
        let _ = writeln!(out, "        return 0;");
        let _ = writeln!(out, "    }}");
    }
    let _ = writeln!(
        out,
        "    fprintf(stderr, \"unknown host function %s\\n\", fn);"
    );
    let _ = writeln!(out, "    return 1;");
    let _ = writeln!(out, "}}");
    out
}

/// One barrier interval: everything between two phase breaks, rendered
/// as one sequential all-threads loop.
#[derive(Default)]
struct Phase {
    chunks: Vec<Chunk>,
}

/// A maximal run of consecutive statements under one split-condition
/// stack within a phase.
struct Chunk {
    conds: Vec<String>,
    stmts: Vec<String>,
}

/// The C kernel walker. Unlike [`crate::shared::BodyCx`] (which renders
/// nested `if`/barrier statements in place), this walker *fissions* the
/// body into phases at `sync` and shuffle-staging points, then renders
/// each phase as its own thread loop — the local-name discipline is
/// kept statement-for-statement identical to `BodyCx`, and every index
/// comes from the same [`render_access`] / [`scatter_index`].
struct CKernelCx<'a> {
    be: &'a CBackend,
    kernel: &'a MonoKernel,
    /// Rendered array name per live local (uniquified on rebinding).
    local_names: HashMap<String, String>,
    /// Declared element kind per live local (for shuffle staging).
    local_elems: HashMap<String, ScalarKind>,
    decl_counter: usize,
    atomic_bufs: HashSet<MemKind>,
    scatter_counter: usize,
    /// Hoisted per-thread local arrays, in declaration order.
    decls: Vec<(String, ScalarKind)>,
    /// Shuffle staging arrays, in staging order.
    shfl_decls: Vec<(String, ScalarKind)>,
    /// The active split-condition stack.
    conds: Vec<String>,
    phases: Vec<Phase>,
}

impl<'a> CKernelCx<'a> {
    fn new(be: &'a CBackend, kernel: &'a MonoKernel) -> CKernelCx<'a> {
        CKernelCx {
            be,
            kernel,
            local_names: HashMap::new(),
            local_elems: HashMap::new(),
            decl_counter: 0,
            atomic_bufs: atomic_targets(kernel),
            scatter_counter: 0,
            decls: Vec::new(),
            shfl_decls: Vec::new(),
            conds: Vec::new(),
            phases: vec![Phase::default()],
        }
    }

    /// Appends one (possibly multi-line) statement to the current
    /// phase, merging into the last chunk when the condition stack is
    /// unchanged.
    fn emit_line(&mut self, text: String) {
        let phase = self.phases.last_mut().expect("always one open phase");
        match phase.chunks.last_mut() {
            Some(c) if c.conds == self.conds => c.stmts.push(text),
            _ => phase.chunks.push(Chunk {
                conds: self.conds.clone(),
                stmts: vec![text],
            }),
        }
    }

    /// Ends the current barrier interval: subsequent statements land in
    /// a fresh thread loop.
    fn break_phase(&mut self) {
        self.phases.push(Phase::default());
    }

    fn expr(&mut self, e: &ElabExpr, out: &mut String) -> Result<(), CodegenError> {
        match e {
            ElabExpr::Lit(kind, v) => out.push_str(&self.be.literal(*kind, *v)),
            ElabExpr::Local(name) => {
                let n = self
                    .local_names
                    .get(name)
                    .ok_or_else(|| CodegenError::UnknownLocal(name.clone()))?;
                let _ = write!(out, "{n}[__t]");
            }
            ElabExpr::Load(a) => {
                let mut text = String::new();
                self.access(a, &mut text)?;
                if self.atomic_bufs.contains(&a.mem) {
                    text = self.be.atomic_buffer_load(a.elem, text);
                }
                out.push_str(&self.be.load_conversion(a.elem, text));
            }
            ElabExpr::Binary(op, x, y) => {
                out.push('(');
                self.expr(x, out)?;
                let _ = write!(out, " {} ", ast_binop(*op));
                self.expr(y, out)?;
                out.push(')');
            }
            ElabExpr::Unary(op, x) => {
                out.push_str(match op {
                    AstUnOp::Neg => "-",
                    AstUnOp::Not => "!",
                });
                out.push('(');
                self.expr(x, out)?;
                out.push(')');
            }
            ElabExpr::Shfl { kind, value, delta } => {
                // Stage the operand for every lane, end the phase (the
                // staging write must be visible to partner lanes before
                // any lane reads), and continue with the partner-slot
                // read in the next phase.
                let mut v = String::new();
                self.expr(value, &mut v)?;
                let elem = self.expr_kind(value);
                let arr = format!("__shfl{}", self.shfl_decls.len());
                self.shfl_decls.push((arr.clone(), elem));
                self.emit_line(format!("{arr}[__t] = {v};"));
                self.break_phase();
                out.push_str(&self.be.shuffle(*kind, &arr, *delta));
            }
        }
        Ok(())
    }

    /// The scalar kind an elaborated expression evaluates to (for
    /// shuffle staging array types).
    fn expr_kind(&self, e: &ElabExpr) -> ScalarKind {
        match e {
            ElabExpr::Lit(k, _) => *k,
            ElabExpr::Local(name) => self
                .local_elems
                .get(name)
                .copied()
                .unwrap_or(ScalarKind::F64),
            ElabExpr::Load(a) => a.elem,
            ElabExpr::Binary(op, a, _) => match op {
                AstBinOp::Lt
                | AstBinOp::Le
                | AstBinOp::Gt
                | AstBinOp::Ge
                | AstBinOp::Eq
                | AstBinOp::Ne
                | AstBinOp::And
                | AstBinOp::Or => ScalarKind::Bool,
                _ => self.expr_kind(a),
            },
            ElabExpr::Unary(AstUnOp::Not, _) => ScalarKind::Bool,
            ElabExpr::Unary(AstUnOp::Neg, a) => self.expr_kind(a),
            ElabExpr::Shfl { value, .. } => self.expr_kind(value),
        }
    }

    fn access(&self, a: &ElabAccess, out: &mut String) -> Result<(), CodegenError> {
        render_access(self.be, self.kernel, a, out)
    }

    fn stmts(&mut self, body: &[ElabStmt]) -> Result<(), CodegenError> {
        for s in body {
            match s {
                ElabStmt::Local { name, elem, init } => {
                    // Initializer first, against the *previous* binding
                    // (shadowing `let x = x + ...` reads the old `x`),
                    // exactly like `BodyCx` and the IR lowering.
                    let mut init_text = String::new();
                    self.expr(init, &mut init_text)?;
                    let rendered = if self.local_names.contains_key(name) {
                        self.decl_counter += 1;
                        format!("{name}_{}", self.decl_counter)
                    } else {
                        name.clone()
                    };
                    self.local_names.insert(name.clone(), rendered.clone());
                    self.local_elems.insert(name.clone(), *elem);
                    self.decls.push((rendered.clone(), *elem));
                    self.emit_line(format!("{rendered}[__t] = {init_text};"));
                }
                ElabStmt::AssignLocal { name, value } => {
                    let mut text = String::new();
                    self.expr(value, &mut text)?;
                    let n = self
                        .local_names
                        .get(name)
                        .ok_or_else(|| CodegenError::UnknownLocal(name.clone()))?
                        .clone();
                    self.emit_line(format!("{n}[__t] = {text};"));
                }
                ElabStmt::Store { access, value } => {
                    let mut value_text = String::new();
                    self.expr(value, &mut value_text)?;
                    let value_text = self.be.store_conversion(access.elem, value_text);
                    let mut target = String::new();
                    self.access(access, &mut target)?;
                    if self.atomic_bufs.contains(&access.mem) {
                        self.emit_line(self.be.atomic_buffer_store(
                            access.elem,
                            &target,
                            &value_text,
                        ));
                    } else {
                        self.emit_line(format!("{target} = {value_text};"));
                    }
                }
                ElabStmt::Split {
                    space,
                    dim,
                    threshold,
                    fst,
                    snd,
                } => {
                    let coord = space_coord(self.be, *space, *dim, self.kernel);
                    self.conds.push(format!("{coord} < {threshold}"));
                    self.stmts(fst)?;
                    self.conds.pop();
                    if !snd.is_empty() {
                        self.conds.push(format!("{coord} >= {threshold}"));
                        self.stmts(snd)?;
                        self.conds.pop();
                    }
                }
                ElabStmt::Atomic {
                    op,
                    access,
                    index,
                    value,
                } => {
                    let mut value_text = String::new();
                    self.expr(value, &mut value_text)?;
                    let global = matches!(access.mem, MemKind::GlobalParam(_));
                    match index {
                        None => {
                            let mut target = String::new();
                            self.access(access, &mut target)?;
                            let call =
                                self.be
                                    .atomic_rmw(*op, access.elem, global, &target, &value_text);
                            self.emit_line(call);
                        }
                        Some(ie) => {
                            // Scatter target: bind the runtime index
                            // once, then guard — same shape as `BodyCx`,
                            // but multi-line so an OpenMP pragma inside
                            // the guard stays on its own line.
                            let mut idx_init = String::new();
                            self.expr(ie, &mut idx_init)?;
                            let tmp = format!("descend_idx_{}", self.scatter_counter);
                            self.scatter_counter += 1;
                            let init = self.be.cast(ScalarKind::I32, &idx_init);
                            let (idx_text, total) =
                                scatter_index(self.be, self.kernel, access, &tmp)?;
                            let target =
                                format!("{}[{idx_text}]", buffer_name(self.kernel, access.mem));
                            let call =
                                self.be
                                    .atomic_rmw(*op, access.elem, global, &target, &value_text);
                            let mut text = String::new();
                            let _ = writeln!(text, "int32_t {tmp} = {init};");
                            let _ =
                                writeln!(text, "if (0 <= {idx_text} && {idx_text} < {total}) {{");
                            for line in call.lines() {
                                let _ = writeln!(text, "    {line}");
                            }
                            let _ = write!(text, "}}");
                            self.emit_line(text);
                        }
                    }
                }
                ElabStmt::Sync => self.break_phase(),
                // Source markers carry trace attribution only.
                ElabStmt::Src(_) => {}
            }
        }
        Ok(())
    }

    /// Assembles the collected phases into the kernel function text.
    fn render(self, k: &MonoKernel) -> Result<String, CodegenError> {
        let be = self.be;
        let [gx, gy, gz] = k.grid_dim;
        let [bx, by, bz] = k.block_dim;
        let grid_total = gx * gy * gz;
        let block_total = bx * by * bz;

        // Everything the body references, for declaring only the
        // coordinate locals that are actually used (`-Wall -Werror`).
        let mut all_text = String::new();
        for p in &self.phases {
            for c in &p.chunks {
                for s in &c.stmts {
                    all_text.push_str(s);
                }
                for cond in &c.conds {
                    all_text.push_str(cond);
                }
            }
        }

        let mut out = String::new();
        let _ = write!(out, "void {}(", k.name);
        for (i, p) in k.params.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            if p.uniq {
                let _ = write!(out, "{}* {}", be.scalar_type(p.elem), p.name);
            } else {
                let _ = write!(out, "const {}* {}", be.scalar_type(p.elem), p.name);
            }
        }
        out.push_str(") {\n");
        for (axis, dim) in [(Axis::X, bx), (Axis::Y, by), (Axis::Z, bz)] {
            let n = format!("blockDim_{}", axis_name(axis));
            if all_text.contains(&n) {
                let _ = writeln!(out, "    const int64_t {n} = {dim};");
            }
        }
        for (axis, dim) in [(Axis::X, gx), (Axis::Y, gy), (Axis::Z, gz)] {
            let n = format!("gridDim_{}", axis_name(axis));
            if all_text.contains(&n) {
                let _ = writeln!(out, "    const int64_t {n} = {dim};");
            }
        }
        out.push_str("    #pragma omp parallel for\n");
        let _ = writeln!(
            out,
            "    for (int64_t __b = 0; __b < {grid_total}; __b++) {{"
        );
        if all_text.contains("blockIdx_x") {
            let _ = writeln!(out, "        const int64_t blockIdx_x = __b % {gx};");
        }
        if all_text.contains("blockIdx_y") {
            let _ = writeln!(
                out,
                "        const int64_t blockIdx_y = (__b / {gx}) % {gy};"
            );
        }
        if all_text.contains("blockIdx_z") {
            let _ = writeln!(out, "        const int64_t blockIdx_z = __b / {};", gx * gy);
        }
        for s in &k.shared {
            let total: u64 = s.dims.iter().product();
            let _ = writeln!(
                out,
                "        {} {}[{}] = {{0}};",
                be.scalar_type(s.elem),
                s.name,
                total
            );
        }
        for (name, elem) in &self.decls {
            let _ = writeln!(
                out,
                "        {} {}[{}] = {{0}};",
                compute_type(*elem),
                name,
                block_total
            );
        }
        for (name, elem) in &self.shfl_decls {
            let _ = writeln!(
                out,
                "        {} {}[{}] = {{0}};",
                compute_type(*elem),
                name,
                block_total
            );
        }
        for phase in &self.phases {
            if phase.chunks.is_empty() {
                continue;
            }
            let mut ptext = String::new();
            for c in &phase.chunks {
                for s in &c.stmts {
                    ptext.push_str(s);
                }
                for cond in &c.conds {
                    ptext.push_str(cond);
                }
            }
            let _ = writeln!(
                out,
                "        for (int64_t __t = 0; __t < {block_total}; __t++) {{"
            );
            if ptext.contains("threadIdx_x") {
                let _ = writeln!(out, "            const int64_t threadIdx_x = __t % {bx};");
            }
            if ptext.contains("threadIdx_y") {
                let _ = writeln!(
                    out,
                    "            const int64_t threadIdx_y = (__t / {bx}) % {by};"
                );
            }
            if ptext.contains("threadIdx_z") {
                let _ = writeln!(
                    out,
                    "            const int64_t threadIdx_z = __t / {};",
                    bx * by
                );
            }
            for chunk in &phase.chunks {
                for (d, cond) in chunk.conds.iter().enumerate() {
                    indent(&mut out, 3 + d);
                    let _ = writeln!(out, "if ({cond}) {{");
                }
                let depth = 3 + chunk.conds.len();
                for stmt in &chunk.stmts {
                    for line in stmt.lines() {
                        indent(&mut out, depth);
                        out.push_str(line);
                        out.push('\n');
                    }
                }
                for d in (0..chunk.conds.len()).rev() {
                    indent(&mut out, 3 + d);
                    out.push_str("}\n");
                }
            }
            out.push_str("        }\n");
        }
        out.push_str("    }\n}\n");
        Ok(out)
    }
}

fn ast_binop(op: AstBinOp) -> &'static str {
    match op {
        AstBinOp::Add => "+",
        AstBinOp::Sub => "-",
        AstBinOp::Mul => "*",
        AstBinOp::Div => "/",
        AstBinOp::Mod => "%",
        AstBinOp::Lt => "<",
        AstBinOp::Le => "<=",
        AstBinOp::Gt => ">",
        AstBinOp::Ge => ">=",
        AstBinOp::Eq => "==",
        AstBinOp::Ne => "!=",
        AstBinOp::And => "&&",
        AstBinOp::Or => "||",
    }
}
