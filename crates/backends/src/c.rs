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
//! The statement text is the shared walker's, as for every backend;
//! this module only supplies the C spellings and the `Phased` layout
//! the walker renders into (split conditions as a condition stack,
//! phase breaks, hoisted locals, shuffle staging).
//!
//! Host functions render as real runnable C: `calloc`/`memcpy` for the
//! alloc/copy statements, plain calls for launches, plus a tiny stdin/
//! stdout protocol (`descend_load_inputs` / `descend_buf_dump`) so the
//! harness can feed the same inputs the simulator sees and read back
//! every CPU buffer. A generated `main` dispatches on `argv[1]`.

use crate::shared::{
    builtin_spelling, for_each_stmt, indent, render_body, Builtin, HostSizes, Layout,
};
use crate::KernelBackend;
use descend_ast::term::{AtomicOp, ShflKind};
use descend_codegen::{CodegenError, IndexTable};
use descend_typeck::{CheckedProgram, ElabStmt, HostStmt, MemKind, MonoKernel, ScalarKind};
use gpu_sim::ir::Axis;
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

    fn builtin(&self, b: Builtin, axis: Axis) -> &'static str {
        // Plain `int64_t` locals derived from the loop counters; the
        // kernel frame declares exactly the ones the body references.
        builtin_spelling(
            &[
                ["blockIdx_x", "blockIdx_y", "blockIdx_z"],
                ["threadIdx_x", "threadIdx_y", "threadIdx_z"],
                ["blockDim_x", "blockDim_y", "blockDim_z"],
                ["gridDim_x", "gridDim_y", "gridDim_z"],
            ],
            b,
            axis,
        )
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
        // Only the scatter-index temporary is declared in place; every
        // other local is a hoisted per-thread array (see the module
        // docs).
        format!("{} {name} = {init};", self.scalar_type(elem))
    }

    fn guard(&self, cond: &str, call: &str) -> String {
        // Multi-line, so an OpenMP pragma inside the guard stays on its
        // own line.
        let mut text = format!("if ({cond}) {{\n");
        for line in call.lines() {
            let _ = writeln!(text, "    {line}");
        }
        text.push('}');
        text
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

    fn emit_kernel<'k>(
        &self,
        k: &'k MonoKernel,
        table: &mut IndexTable<'k>,
    ) -> Result<String, CodegenError> {
        Ok(render_body(self, k, table, Phased::default())?.render(self, k))
    }

    fn emit_host_fn(&self, name: &str, stmts: &[HostStmt], kernels: &[MonoKernel]) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "void descend_host_{name}(void) {{");
        let mut sizes = HostSizes::default();
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
        out
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

/// The phase-fissioning layout: split conditions become a condition
/// stack, every `sync` and shuffle staging point ends the current
/// all-threads loop, locals are hoisted per-thread arrays `x[__t]`, and
/// a rolled loop stays inside the thread loop of its phase.
#[derive(Default)]
struct Phased {
    /// The active split-condition stack.
    conds: Vec<String>,
    /// The conditions the current phase's last statement was opened
    /// under (its `if`s are still open in `phase`).
    open: Vec<String>,
    /// The current barrier interval's thread-loop body.
    phase: String,
    /// Finished barrier intervals, in order.
    phases: Vec<String>,
    /// Hoisted per-thread local arrays, in declaration order.
    locals: Vec<(String, ScalarKind)>,
    /// Shuffle staging arrays, in staging order.
    staged: Vec<(String, ScalarKind)>,
    /// The statement being rendered (reused).
    stmt: String,
    /// Rolled loops open around the current statement. A rolled body
    /// holds no barrier or shuffle, so a loop never spans phases.
    loops: usize,
}

impl Phased {
    /// Appends one (possibly multi-line) statement to the current phase,
    /// under the same `if`s as the previous one when the condition stack
    /// is unchanged.
    fn push_stmt(&mut self, text: &str) {
        if self.phase.is_empty() || self.open != self.conds {
            self.close_conds();
            for (d, cond) in self.conds.iter().enumerate() {
                indent(&mut self.phase, 3 + d);
                let _ = writeln!(self.phase, "if ({cond}) {{");
            }
            self.open.clone_from(&self.conds);
        }
        for line in text.lines() {
            indent(&mut self.phase, 3 + self.open.len() + self.loops);
            self.phase.push_str(line);
            self.phase.push('\n');
        }
    }

    fn close_conds(&mut self) {
        for d in (0..self.open.len()).rev() {
            indent(&mut self.phase, 3 + d);
            self.phase.push_str("}\n");
        }
        self.open.clear();
    }

    /// Ends the current barrier interval: subsequent statements land in
    /// a fresh thread loop.
    fn break_phase(&mut self) {
        self.close_conds();
        if !self.phase.is_empty() {
            self.phases.push(std::mem::take(&mut self.phase));
        }
    }

    /// Assembles the collected phases into the kernel function text.
    fn render(mut self, be: &CBackend, k: &MonoKernel) -> String {
        self.break_phase();
        let [gx, gy, gz] = k.grid_dim;
        let [bx, by, bz] = k.block_dim;
        let block_total = bx * by * bz;
        // Declare only the coordinate locals the body references
        // (`-Wall -Werror`).
        let used = |name: &str| self.phases.iter().any(|p| p.contains(name));

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
        for (name, dim) in [
            ("blockDim_x", bx),
            ("blockDim_y", by),
            ("blockDim_z", bz),
            ("gridDim_x", gx),
            ("gridDim_y", gy),
            ("gridDim_z", gz),
        ] {
            if used(name) {
                let _ = writeln!(out, "    const int64_t {name} = {dim};");
            }
        }
        out.push_str("    #pragma omp parallel for\n");
        let _ = writeln!(
            out,
            "    for (int64_t __b = 0; __b < {}; __b++) {{",
            gx * gy * gz
        );
        if used("blockIdx_x") {
            let _ = writeln!(out, "        const int64_t blockIdx_x = __b % {gx};");
        }
        if used("blockIdx_y") {
            let _ = writeln!(
                out,
                "        const int64_t blockIdx_y = (__b / {gx}) % {gy};"
            );
        }
        if used("blockIdx_z") {
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
        for (name, elem) in self.locals.iter().chain(&self.staged) {
            let _ = writeln!(
                out,
                "        {} {}[{}] = {{0}};",
                compute_type(*elem),
                name,
                block_total
            );
        }
        for phase in &self.phases {
            let _ = writeln!(
                out,
                "        for (int64_t __t = 0; __t < {block_total}; __t++) {{"
            );
            if phase.contains("threadIdx_x") {
                let _ = writeln!(out, "            const int64_t threadIdx_x = __t % {bx};");
            }
            if phase.contains("threadIdx_y") {
                let _ = writeln!(
                    out,
                    "            const int64_t threadIdx_y = (__t / {bx}) % {by};"
                );
            }
            if phase.contains("threadIdx_z") {
                let _ = writeln!(
                    out,
                    "            const int64_t threadIdx_z = __t / {};",
                    bx * by
                );
            }
            out.push_str(phase);
            out.push_str("        }\n");
        }
        out.push_str("    }\n}\n");
        out
    }
}

impl Layout for Phased {
    fn begin(&mut self) -> String {
        std::mem::take(&mut self.stmt)
    }

    fn end(&mut self, mut stmt: String) {
        self.push_stmt(&stmt);
        stmt.clear();
        self.stmt = stmt;
    }

    fn split_fst(&mut self, coord: &str, threshold: u64) {
        self.conds.push(format!("{coord} < {threshold}"));
    }

    fn split_snd(&mut self, coord: &str, threshold: u64) {
        self.conds.pop();
        self.conds.push(format!("{coord} >= {threshold}"));
    }

    fn split_end(&mut self) {
        self.conds.pop();
    }

    fn sync(&mut self, _be: &dyn KernelBackend) {
        // The phase break *is* the barrier.
        self.break_phase();
    }

    fn declare(
        &mut self,
        _be: &dyn KernelBackend,
        elem: ScalarKind,
        name: String,
        init: &str,
        out: &mut String,
    ) -> String {
        let spelling = format!("{name}[__t]");
        let _ = write!(out, "{spelling} = {init};");
        self.locals.push((name, elem));
        spelling
    }

    fn shuffle(&mut self, operand: String, elem: ScalarKind) -> String {
        // Stage the operand for every lane, end the phase (the staging
        // write must be visible to partner lanes before any lane reads),
        // and hand the shuffle the staging array, whose partner slot the
        // next phase reads.
        let arr = format!("__shfl{}", self.staged.len());
        self.push_stmt(&format!("{arr}[__t] = {operand};"));
        self.break_phase();
        self.staged.push((arr.clone(), elem));
        arr
    }

    fn loop_begin(&mut self, header: &str) {
        self.push_stmt(header);
        self.loops += 1;
    }

    fn loop_end(&mut self) {
        self.loops -= 1;
        self.push_stmt("}");
    }
}
