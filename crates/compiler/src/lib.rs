//! The Descend compiler driver.
//!
//! Ties the pipeline together: parsing ([`descend_parser`]), type checking
//! and extended borrow checking ([`descend_typeck`]), the shared lowering
//! to the simulator IR ([`descend_codegen`]), and text emission for every
//! registered backend ([`descend_backends`]: CUDA C++, OpenCL C, WGSL,
//! and executable C11 + OpenMP).
//! A small host interpreter executes the elaborated host functions against
//! the simulated GPU, making `.descend` programs runnable end to end.
//!
//! # Examples
//!
//! ```
//! use descend_compiler::Compiler;
//!
//! let src = r#"
//!     fn scale(v: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<2>, X<32>>]-> () {
//!         sched(X) block in grid {
//!             sched(X) thread in block {
//!                 (*v).group::<32>[[block]][[thread]] =
//!                     (*v).group::<32>[[block]][[thread]] * 3.0;
//!             }
//!         }
//!     }
//!
//!     fn main() -[t: cpu.thread]-> () {
//!         let h = alloc::<cpu.mem, [f64; 64]>();
//!         let d = gpu_alloc_copy(&h);
//!         scale<<<X<2>, X<32>>>>(&uniq d);
//!         copy_mem_to_host(&uniq h, &d);
//!     }
//! "#;
//! let compiled = Compiler::new().compile_source(src).expect("compiles");
//! // Every backend rendered the program from the one shared lowering.
//! assert_eq!(
//!     compiled.targets().keys().collect::<Vec<_>>(),
//!     ["c", "cuda", "opencl", "wgsl"]
//! );
//! let mut inputs = std::collections::HashMap::new();
//! inputs.insert("h".to_string(), vec![2.0; 64]);
//! let run = compiled.run_host("main", &inputs, &Default::default()).expect("runs");
//! assert_eq!(run.cpu["h"], vec![6.0; 64]);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod profile;
mod query;
pub mod server;

pub use query::{CompileSession, QueryCounter, QueryStats};

use descend_ast::term::Program;
use descend_backends::{backend_by_name, BACKEND_NAMES};
use descend_codegen::ir_gen::elem_ty;
use descend_codegen::CodegenError;
use descend_typeck::{CheckedProgram, HostStmt, MonoKernel, TypeError};
use gpu_sim::device::BufId;
use gpu_sim::trace::LaunchTrace;
use gpu_sim::{Gpu, KernelIr, LaunchConfig, LaunchStats, SimError};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Which pipeline stage failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Lexing/parsing.
    Parse,
    /// Type checking / borrow checking.
    Type,
    /// Lowering to IR or backend text.
    Codegen,
}

/// A compilation error with a pre-rendered, paper-style diagnostic.
#[derive(Clone, Debug)]
pub struct CompileError {
    /// The failing stage.
    pub stage: Stage,
    /// The rendered diagnostic (with source snippet for type errors).
    pub rendered: String,
    /// The structured diagnostic: stable code, labelled spans, help
    /// notes. `rendered` is its cached rendering against the source, so
    /// warm-session replays stay byte-identical. Boxed (like
    /// `type_error`) to keep the `Err` variant of compile results
    /// small.
    pub diag: Box<descend_diag::Diagnostic>,
    /// The structured type error, when `stage == Stage::Type` (boxed to
    /// keep the `Err` variant of the compile results small).
    pub type_error: Option<Box<TypeError>>,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.rendered.trim_end())
    }
}

impl std::error::Error for CompileError {}

/// One compiled kernel instance: elaboration, IR, and per-backend text.
#[derive(Clone, Debug)]
pub struct CompiledKernel {
    /// The monomorphized, elaborated kernel.
    pub mono: MonoKernel,
    /// The simulator IR.
    pub ir: KernelIr,
    /// Kernel text per selected backend, keyed by registry name.
    pub targets: BTreeMap<String, String>,
}

impl CompiledKernel {
    /// The CUDA C++ rendering — the historical primary target (empty
    /// when the `cuda` backend is deselected).
    pub fn cuda(&self) -> &str {
        self.targets.get("cuda").map(String::as_str).unwrap_or("")
    }
}

/// The result of compiling a program.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The parsed AST.
    pub ast: Program,
    /// The type checker's elaborated output.
    pub checked: CheckedProgram,
    /// All kernel instances.
    pub kernels: Vec<CompiledKernel>,
    /// Complete translation units per selected backend, keyed by
    /// registry name.
    pub target_sources: BTreeMap<String, String>,
}

/// The compiler.
#[derive(Clone, Debug)]
pub struct Compiler {
    /// Selected backend registry names, validated at construction.
    backend_names: Vec<String>,
}

impl Default for Compiler {
    fn default() -> Compiler {
        Compiler {
            backend_names: BACKEND_NAMES.iter().map(|s| s.to_string()).collect(),
        }
    }
}

impl Compiler {
    /// Creates a compiler emitting every registered backend.
    pub fn new() -> Compiler {
        Compiler::default()
    }

    /// Creates a compiler emitting only the named backends
    /// (`"cuda"`, `"opencl"`, `"wgsl"`).
    ///
    /// # Errors
    ///
    /// The first unknown backend name.
    pub fn with_backends(names: &[&str]) -> Result<Compiler, String> {
        for n in names {
            if backend_by_name(n).is_none() {
                return Err(format!(
                    "unknown backend `{n}` (registered: {})",
                    BACKEND_NAMES.join(", ")
                ));
            }
        }
        Ok(Compiler {
            backend_names: names.iter().map(|s| s.to_string()).collect(),
        })
    }

    /// The selected backend names, in emission order.
    pub fn backends(&self) -> &[String] {
        &self.backend_names
    }

    /// Compiles Descend source text through the whole pipeline.
    ///
    /// Each call runs in a fresh single-shot [`CompileSession`]; hold a
    /// session of your own to reuse its caches across compiles.
    ///
    /// # Errors
    ///
    /// A [`CompileError`] carrying a rendered diagnostic for the first
    /// parse, type, or lowering failure.
    pub fn compile_source(&self, src: &str) -> Result<Compiled, CompileError> {
        self.session().compile_source(src)
    }

    /// Compiles an already parsed program.
    ///
    /// # Errors
    ///
    /// Same as [`Compiler::compile_source`], minus parse errors.
    pub fn compile_ast(&self, ast: Program, src: &str) -> Result<Compiled, CompileError> {
        self.session().compile_ast(ast, src)
    }

    /// A fresh session over this compiler's backend selection.
    pub fn session(&self) -> CompileSession {
        let names: Vec<&str> = self.backend_names.iter().map(String::as_str).collect();
        CompileSession::with_backends(&names).expect("backend names are validated at construction")
    }
}

fn codegen_err(e: &CodegenError) -> CompileError {
    let diag = descend_diag::Diagnostic::coded(
        descend_diag::registry::LOWERING_FAILED,
        descend_ast::Span::DUMMY,
        format!("{e}"),
    );
    CompileError {
        stage: Stage::Codegen,
        rendered: diag.render(""),
        diag: Box::new(diag),
        type_error: None,
    }
}

/// Errors from running a compiled program's host function.
#[derive(Clone, Debug)]
pub enum RunError {
    /// The named host function does not exist.
    NoSuchHostFn(String),
    /// A provided input does not match an allocation.
    BadInput(String),
    /// A simulation failure (race, divergence, out of bounds, ...).
    Sim(SimError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::NoSuchHostFn(n) => write!(f, "no host function `{n}`"),
            RunError::BadInput(m) => write!(f, "bad input: {m}"),
            RunError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<SimError> for RunError {
    fn from(e: SimError) -> RunError {
        RunError::Sim(e)
    }
}

/// The observable result of a host-function run.
#[derive(Clone, Debug, Default)]
pub struct HostRun {
    /// Final contents of every CPU buffer, as f64 values whatever the
    /// buffer's element kind (f32 contents are quantized, i32 exact,
    /// bool 0.0/1.0).
    pub cpu: HashMap<String, Vec<f64>>,
    /// Per-launch statistics, in launch order.
    pub launches: Vec<LaunchStats>,
}

impl HostRun {
    /// Total modeled cycles across all launches.
    pub fn total_cycles(&self) -> u64 {
        self.launches.iter().map(|s| s.cycles).sum()
    }
}

impl Compiled {
    /// Looks up a compiled kernel by mangled instance name.
    pub fn kernel(&self, name: &str) -> Option<&CompiledKernel> {
        self.kernels.iter().find(|k| k.mono.name == name)
    }

    /// Complete translation units per selected backend, keyed by
    /// registry name (`"cuda"`, `"opencl"`, `"wgsl"`).
    pub fn targets(&self) -> &BTreeMap<String, String> {
        &self.target_sources
    }

    /// The translation unit for one backend, if it was selected.
    pub fn target_source(&self, backend: &str) -> Option<&str> {
        self.target_sources.get(backend).map(String::as_str)
    }

    /// The complete CUDA C++ translation unit — the historical primary
    /// target (empty when the `cuda` backend is deselected).
    pub fn cuda_source(&self) -> &str {
        self.target_source("cuda").unwrap_or("")
    }

    /// Runs a host function against the simulated GPU.
    ///
    /// `inputs` optionally seeds CPU allocations by variable name (the
    /// allocation is zero-initialized otherwise). Buffers carry f64
    /// values host-side whatever their kernel scalar kind: f32 inputs
    /// are quantized on allocation, i32 truncated, bool tested against
    /// zero — matching what the simulated kernel stores.
    ///
    /// # Errors
    ///
    /// See [`RunError`].
    pub fn run_host(
        &self,
        name: &str,
        inputs: &HashMap<String, Vec<f64>>,
        cfg: &LaunchConfig,
    ) -> Result<HostRun, RunError> {
        self.run_host_inner(name, inputs, cfg, false)
            .map(|(r, _)| r)
    }

    /// Runs a host function like [`Compiled::run_host`] while recording
    /// a [`LaunchTrace`] per kernel launch (same order as
    /// [`HostRun::launches`]).
    ///
    /// The traces are deterministic: byte-identical exports across
    /// [`gpu_sim::ExecMode`]s and workpool thread counts (wall-clock
    /// worker spans excluded).
    ///
    /// # Errors
    ///
    /// See [`RunError`].
    pub fn run_host_traced(
        &self,
        name: &str,
        inputs: &HashMap<String, Vec<f64>>,
        cfg: &LaunchConfig,
    ) -> Result<(HostRun, Vec<LaunchTrace>), RunError> {
        self.run_host_inner(name, inputs, cfg, true)
    }

    fn run_host_inner(
        &self,
        name: &str,
        inputs: &HashMap<String, Vec<f64>>,
        cfg: &LaunchConfig,
        tracing: bool,
    ) -> Result<(HostRun, Vec<LaunchTrace>), RunError> {
        let stmts = self
            .checked
            .host_fn(name)
            .ok_or_else(|| RunError::NoSuchHostFn(name.to_string()))?;
        // Every input key must seed a CPU allocation of this host
        // function; a typo'd buffer name would otherwise seed nothing
        // and the run would "succeed" on zeros.
        for key in inputs.keys() {
            let seeds_alloc = stmts
                .iter()
                .any(|s| matches!(s, HostStmt::AllocCpu { name, .. } if name == key));
            if !seeds_alloc {
                return Err(RunError::BadInput(format!(
                    "input `{key}` does not match any CPU allocation of `{name}`"
                )));
            }
        }
        let mut gpu = Gpu::new();
        let mut cpu: HashMap<String, Vec<f64>> = HashMap::new();
        let mut dev: HashMap<String, BufId> = HashMap::new();
        let mut run = HostRun::default();
        let mut traces: Vec<LaunchTrace> = Vec::new();
        for s in stmts {
            match s {
                HostStmt::AllocCpu { name, elem, len } => {
                    let mut data = vec![0.0f64; *len as usize];
                    if let Some(init) = inputs.get(name) {
                        if init.len() != data.len() {
                            return Err(RunError::BadInput(format!(
                                "input `{name}` has {} elements, allocation has {}",
                                init.len(),
                                data.len()
                            )));
                        }
                        data.copy_from_slice(init);
                    }
                    // Quantize through the element kind so the host-side
                    // view matches what the GPU will store (f32 rounding,
                    // i32 truncation).
                    let e = elem_ty(*elem);
                    for v in &mut data {
                        *v = gpu_sim::device::quantize_scalar(e, *v);
                    }
                    cpu.insert(name.clone(), data);
                }
                HostStmt::AllocGpu { name, elem, len } => {
                    let id = gpu.alloc_scalars(elem_ty(*elem), &vec![0.0; *len as usize]);
                    dev.insert(name.clone(), id);
                }
                HostStmt::AllocGpuCopy { name, src, elem } => {
                    let data = cpu.get(src).ok_or_else(|| {
                        RunError::BadInput(format!("`{src}` is not a CPU buffer"))
                    })?;
                    let id = gpu.alloc_scalars(elem_ty(*elem), data);
                    dev.insert(name.clone(), id);
                }
                HostStmt::CopyToHost { dst, src } => {
                    let id = *dev.get(src).ok_or_else(|| {
                        RunError::BadInput(format!("`{src}` is not a GPU buffer"))
                    })?;
                    let data = gpu.read_scalars(id);
                    let slot = cpu.get_mut(dst).ok_or_else(|| {
                        RunError::BadInput(format!("`{dst}` is not a CPU buffer"))
                    })?;
                    *slot = data;
                }
                HostStmt::CopyToGpu { dst, src } => {
                    let id = *dev.get(dst).ok_or_else(|| {
                        RunError::BadInput(format!("`{dst}` is not a GPU buffer"))
                    })?;
                    let data = cpu.get(src).ok_or_else(|| {
                        RunError::BadInput(format!("`{src}` is not a CPU buffer"))
                    })?;
                    gpu.write_scalars(id, data);
                }
                HostStmt::Launch { kernel, args } => {
                    let ck = &self.kernels[*kernel];
                    let bufs: Vec<BufId> = args
                        .iter()
                        .map(|a| {
                            dev.get(a).copied().ok_or_else(|| {
                                RunError::BadInput(format!("`{a}` is not a GPU buffer"))
                            })
                        })
                        .collect::<Result<_, _>>()?;
                    let stats = if tracing {
                        let (stats, trace) = gpu.launch_traced(
                            &ck.ir,
                            ck.mono.grid_dim,
                            ck.mono.block_dim,
                            &bufs,
                            cfg,
                        )?;
                        traces.push(trace);
                        stats
                    } else {
                        gpu.launch(&ck.ir, ck.mono.grid_dim, ck.mono.block_dim, &bufs, cfg)?
                    };
                    run.launches.push(stats);
                }
            }
        }
        run.cpu = cpu;
        Ok((run, traces))
    }
}
