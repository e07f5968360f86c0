//! `run_small`: source text to CPU buffers the way `descendc run` does
//! it, for the 14 corpus programs with a host `main`. Per-launch fixed
//! cost is most of the work and per-instruction cost almost none — the
//! opposite of `sim_paper`.

use crate::alloc;
use crate::corpus::{host_inputs, host_programs, Program};
use crate::harness::{passes_for, put, Exact, Metrics, OpRecord, Workload};
use crate::sim::launch_config;
use crate::spans::Spans;
use crate::util::{bitwise_eq, timed, Rng, SIM_WORKERS};
use descend::codegen::all_kernels_to_ir;
use descend::codegen::ir_gen::elem_ty;
use descend::compiler::{Compiled, Compiler};
use descend::sim::device::{quantize_scalar, BufId};
use descend::sim::{ExecMode, Gpu, KernelIr, LaunchConfig, LaunchStats};
use descend::typeck::{CheckedProgram, HostStmt};
use descend::{parser, typeck};
use std::collections::HashMap;

pub type Buffers = HashMap<String, Vec<f64>>;

/// A host program with seeded inputs and the buffers it must produce.
pub struct Case {
    pub program: Program,
    pub inputs: Buffers,
    pub expected: Buffers,
}

pub fn buffers_match(got: &Buffers, want: &Buffers) -> bool {
    got.len() == want.len()
        && want
            .iter()
            .all(|(k, w)| got.get(k).is_some_and(|g| bitwise_eq(g, w)))
}

/// Compiles `programs` and draws inputs for each; the expected buffers
/// come from running the same program under `exec` with races checked.
pub fn build_cases(
    programs: Vec<Program>,
    backends: &[&str],
    exec: ExecMode,
    rng: &mut Rng,
) -> Result<Vec<(Case, Compiled)>, String> {
    let compiler = Compiler::with_backends(backends)?;
    let cfg = launch_config(true, SIM_WORKERS, exec);
    programs
        .into_iter()
        .map(|program| {
            let compiled = compiler
                .compile_source(&program.src)
                .map_err(|e| format!("{}: {e}", program.name))?;
            let stmts = compiled
                .checked
                .host_fn("main")
                .ok_or_else(|| format!("{}: no host `main`", program.name))?;
            let inputs = host_inputs(stmts, rng);
            let expected = compiled
                .run_host("main", &inputs, &cfg)
                .map_err(|e| format!("{}: {e}", program.name))?
                .cpu;
            let case = Case {
                program,
                inputs,
                expected,
            };
            Ok((case, compiled))
        })
        .collect()
}

/// `--self-test`: one element of one expected buffer is wrong.
pub fn corrupt_first(cases: &mut [Case]) {
    if let Some(buffer) = cases[0].expected.values_mut().find(|v| !v.is_empty()) {
        buffer[0] += 1.0;
    }
}

pub struct RunSmall {
    cases: Vec<Case>,
    compiler: Compiler,
    cfg: LaunchConfig,
    cycles: Vec<u64>,
}

impl RunSmall {
    pub fn setup(seed: u64, corrupt: bool) -> Result<RunSmall, String> {
        let built = build_cases(
            host_programs()?,
            &[],
            ExecMode::Reference,
            &mut Rng::new(seed),
        )?;
        let mut cases: Vec<Case> = built.into_iter().map(|(case, _)| case).collect();
        if corrupt {
            corrupt_first(&mut cases);
        }
        Ok(RunSmall {
            cycles: vec![0; cases.len()],
            cases,
            compiler: Compiler::with_backends(&[])?,
            cfg: launch_config(true, SIM_WORKERS, ExecMode::Warp),
        })
    }

    /// The untraced operation, as `descendc run` does it: compile with no
    /// backend selected, then `run_host` with races checked.
    fn op(&mut self, i: usize) -> OpRecord {
        let case = &self.cases[i];
        let allocs = alloc::calls();
        let ((run, sim_secs), secs) = timed(|| {
            let Ok(compiled) = self.compiler.compile_source(&case.program.src) else {
                return (None, 0.0);
            };
            let (run, sim_secs) = timed(|| compiled.run_host("main", &case.inputs, &self.cfg));
            (run.ok().map(|r| (r.cpu, r.launches)), sim_secs)
        });
        self.record(i, secs, sim_secs, alloc::calls() - allocs, run)
    }

    fn record(
        &mut self,
        i: usize,
        secs: f64,
        sim_secs: f64,
        allocs: u64,
        run: Option<(Buffers, Vec<LaunchStats>)>,
    ) -> OpRecord {
        let (cpu, launches) = run.unwrap_or_default();
        self.cycles[i] = launches.iter().map(|s| s.cycles).sum();
        OpRecord {
            program: Some(i),
            secs,
            allocs,
            sim_secs,
            sim_instr: launches.iter().map(|s| s.instructions).sum(),
            ok: buffers_match(&cpu, &self.cases[i].expected),
        }
    }

    /// The traced operation: parse, check, lower, then the host function
    /// walked here as `Compiled::run_host` walks it, so that every launch
    /// gets a span of its own and the host interpreter's share separates
    /// from the simulator's.
    fn staged_op(&mut self, i: usize, spans: &mut Spans) -> OpRecord {
        let case = &self.cases[i];
        let src = case.program.src.as_str();
        let allocs = alloc::calls();
        let ((run, sim_secs), secs) = timed(|| {
            spans.span("run_small", &case.program.name, |spans| {
                let mut staged = || -> Option<_> {
                    let ast = spans
                        .span("parser.parse", "", |_| parser::parse(src))
                        .ok()?;
                    let checked = spans
                        .span("typeck.check", "", |_| typeck::check_program(&ast))
                        .ok()?;
                    let irs = spans
                        .span("codegen.lower", "", |_| all_kernels_to_ir(&checked.kernels))
                        .ok()?;
                    Some((checked, irs))
                };
                let Some((checked, irs)) = staged() else {
                    return (None, 0.0);
                };
                let (run, sim_secs) = timed(|| {
                    spans.span("compiler.host_interp", "", |spans| {
                        walk_host(&checked, &irs, &case.inputs, &self.cfg, spans)
                    })
                });
                (run.ok(), sim_secs)
            })
        });
        self.record(i, secs, sim_secs, alloc::calls() - allocs, run)
    }

    /// `compiler.host_interp_us` needs the real `run_host` beside the
    /// walk's launch spans: one call per program, in a span of its own.
    fn run_host_whole(&self, i: usize, spans: &mut Spans) -> Result<(), String> {
        let case = &self.cases[i];
        let name = &case.program.name;
        let compiled = self
            .compiler
            .compile_source(&case.program.src)
            .map_err(|e| format!("{name}: {e}"))?;
        spans
            .span("compiler.run_host", name, |_| {
                compiled.run_host("main", &case.inputs, &self.cfg)
            })
            .map(|_| ())
            .map_err(|e| format!("{name}: {e}"))
    }
}

/// Walks host function `main` the way `Compiled::run_host` does, with
/// each `Gpu::launch` inside a `gpu_sim.launch` span and everything else
/// (the host interpreter's share) outside. Returns the CPU buffers and
/// the launches' statistics.
fn walk_host(
    checked: &CheckedProgram,
    irs: &[KernelIr],
    inputs: &Buffers,
    cfg: &LaunchConfig,
    spans: &mut Spans,
) -> Result<(Buffers, Vec<LaunchStats>), String> {
    let stmts = checked.host_fn("main").ok_or("no host `main`")?;
    let mut gpu = Gpu::new();
    let mut cpu: Buffers = HashMap::new();
    let mut dev: HashMap<&str, BufId> = HashMap::new();
    let mut launches = Vec::new();
    let missing = |what: &str| format!("`{what}` is not allocated");
    for s in stmts {
        match s {
            HostStmt::AllocCpu { name, elem, len } => {
                let mut data = inputs
                    .get(name)
                    .cloned()
                    .unwrap_or_else(|| vec![0.0; *len as usize]);
                for v in &mut data {
                    *v = quantize_scalar(elem_ty(*elem), *v);
                }
                cpu.insert(name.clone(), data);
            }
            HostStmt::AllocGpu { name, elem, len } => {
                dev.insert(
                    name,
                    gpu.alloc_scalars(elem_ty(*elem), &vec![0.0; *len as usize]),
                );
            }
            HostStmt::AllocGpuCopy { name, src, elem } => {
                let data = cpu.get(src).ok_or_else(|| missing(src))?;
                dev.insert(name, gpu.alloc_scalars(elem_ty(*elem), data));
            }
            HostStmt::CopyToHost { dst, src } => {
                let id = *dev.get(src.as_str()).ok_or_else(|| missing(src))?;
                cpu.insert(dst.clone(), gpu.read_scalars(id));
            }
            HostStmt::CopyToGpu { dst, src } => {
                let id = *dev.get(dst.as_str()).ok_or_else(|| missing(dst))?;
                gpu.write_scalars(id, cpu.get(src).ok_or_else(|| missing(src))?);
            }
            HostStmt::Launch { kernel, args } => {
                let (mono, ir) = (&checked.kernels[*kernel], &irs[*kernel]);
                let bufs: Vec<BufId> = args
                    .iter()
                    .map(|a| dev.get(a.as_str()).copied().ok_or_else(|| missing(a)))
                    .collect::<Result<_, _>>()?;
                let stats = spans.span("gpu_sim.launch", "", |_| {
                    gpu.launch(ir, mono.grid_dim, mono.block_dim, &bufs, cfg)
                });
                launches.push(stats.map_err(|e| e.to_string())?);
            }
        }
    }
    Ok((cpu, launches))
}

impl Workload for RunSmall {
    fn pass(&mut self, rng: &mut Rng) -> Vec<OpRecord> {
        rng.order(self.cases.len())
            .into_iter()
            .map(|i| self.op(i))
            .collect()
    }

    fn probe(
        &mut self,
        budget: f64,
        rng: &mut Rng,
        spans: &mut Spans,
        out: &mut Metrics,
    ) -> Result<Vec<Vec<OpRecord>>, String> {
        let mut failed = None;
        let passes = passes_for(budget, |_| {
            rng.order(self.cases.len())
                .into_iter()
                .map(|i| {
                    if let Err(e) = self.run_host_whole(i, spans) {
                        failed = Some(e);
                    }
                    self.staged_op(i, spans)
                })
                .collect()
        });
        if let Some(e) = failed {
            return Err(e);
        }
        let whole = spans.median_sum("compiler.run_host");
        let launches = spans.median_sum("gpu_sim.launch");
        put(
            out,
            "compiler.host_interp_us",
            (whole - launches) * 1e6,
            "us",
        );
        // The smallest corpus kernel is the one whose median launch is
        // shortest: all fixed cost, next to no instructions.
        let fixed = spans
            .program_medians("gpu_sim.launch")
            .values()
            .copied()
            .fold(f64::INFINITY, f64::min);
        put(out, "gpu_sim.launch_fixed_us", fixed * 1e6, "us");
        Ok(passes)
    }

    fn exact(&self) -> Exact {
        Exact {
            sim_cycles: Some(self.cycles.iter().sum()),
            ..Exact::default()
        }
    }
}
