//! `sim_paper` and `sim_paper_races`: one `Gpu::launch` of a
//! Descend-compiled Figure-8 kernel at paper scale, race detection off
//! or on. Evaluation dominates the first, the race shadow the second.

use crate::alloc;
use crate::corpus::{fig8_programs, FIG8, FIG8_PAPER, FIG8_TRACE};
use crate::harness::{passes_for, put, Exact, Metrics, OpRecord, Workload};
use crate::spans::Spans;
use crate::util::{approx_eq, geomean, median, par_workers, timed, Rng, SIM_WORKERS};
use descend::benchmarks::sources::{BLOCK_SIZE, HIST_BINS, HIST_BLOCK, STENCIL_BLOCK};
use descend::benchmarks::{baselines, reference};
use descend::compiler::Compiler;
use descend::sim::device::BufId;
use descend::sim::trace::{chrome_trace, launch_trace_json};
use descend::sim::{ElemTy, ExecMode, Gpu, KernelIr, LaunchConfig, LaunchStats};

/// A compiled kernel with its seeded arguments and the scalar
/// reference's answer for every buffer it writes.
pub struct Kernel {
    pub name: &'static str,
    ir: KernelIr,
    grid: [u64; 3],
    block: [u64; 3],
    args: Vec<(ElemTy, Vec<f64>)>,
    /// (argument index, expected contents).
    expect: Vec<(usize, Vec<f64>)>,
}

pub fn launch_config(detect_races: bool, workers: usize, exec: ExecMode) -> LaunchConfig {
    LaunchConfig {
        detect_races,
        exec,
        workers: Some(workers),
        ..LaunchConfig::default()
    }
}

fn uniform(n: usize, rng: &mut Rng) -> Vec<f64> {
    (0..n).map(|_| rng.unit()).collect()
}

fn exclusive_scan(sums: &[f64]) -> Vec<f64> {
    let mut acc = 0.0;
    sums.iter()
        .map(|s| {
            let before = acc;
            acc += s;
            before
        })
        .collect()
}

/// Compiles the eight kernels at `params` and draws their inputs.
fn build_kernels(params: &[usize; 8], rng: &mut Rng) -> Result<Vec<Kernel>, String> {
    let compiler = Compiler::with_backends(&[])?;
    let f64s = |v: Vec<f64>| (ElemTy::F64, v);
    let mut kernels = Vec::new();
    for (i, program) in fig8_programs(params).into_iter().enumerate() {
        let compiled = compiler
            .compile_source(&program.src)
            .map_err(|e| format!("{}: {e}", program.name))?;
        let k = compiled
            .kernels
            .first()
            .ok_or_else(|| format!("{}: no kernel", program.name))?;
        let n = params[i];
        let bs = BLOCK_SIZE;
        let (args, expect) = match FIG8[i] {
            "reduce" | "reduce_shfl" => {
                let data = uniform(n, rng);
                let sums = reference::block_sums(&data, bs);
                (vec![f64s(data), f64s(vec![0.0; n / bs])], vec![(1, sums)])
            }
            "scan_blocks" => {
                let data = uniform(n, rng);
                let scanned: Vec<f64> = data
                    .chunks(bs)
                    .flat_map(reference::inclusive_scan)
                    .collect();
                let sums = reference::block_sums(&data, bs);
                (
                    vec![f64s(data), f64s(vec![0.0; n / bs])],
                    vec![(0, scanned), (1, sums)],
                )
            }
            "scan_add" => {
                let data = uniform(n, rng);
                let scanned: Vec<f64> = data
                    .chunks(bs)
                    .flat_map(reference::inclusive_scan)
                    .collect();
                let offsets = exclusive_scan(&reference::block_sums(&data, bs));
                let full = reference::inclusive_scan(&data);
                (vec![f64s(scanned), f64s(offsets)], vec![(0, full)])
            }
            "histogram" => {
                debug_assert!(n.is_multiple_of(HIST_BLOCK));
                let data: Vec<f64> = (0..n).map(|_| rng.below(4096) as f64).collect();
                let bins = reference::histogram(&data, HIST_BINS);
                (
                    vec![(ElemTy::I32, data), (ElemTy::I32, vec![0.0; HIST_BINS])],
                    vec![(1, bins)],
                )
            }
            "stencil" => {
                debug_assert!(n.is_multiple_of(STENCIL_BLOCK));
                let data = uniform(n + 2, rng);
                let out = reference::stencil3(&data);
                (vec![f64s(data), f64s(vec![0.0; n])], vec![(1, out)])
            }
            "transpose" => {
                let data = uniform(n * n, rng);
                let out = reference::transpose(&data, n);
                (vec![f64s(data), f64s(vec![0.0; n * n])], vec![(1, out)])
            }
            "mm" => {
                let (a, b) = (uniform(n * n, rng), uniform(n * n, rng));
                let c = reference::matmul(&a, &b, n);
                (vec![f64s(a), f64s(b), f64s(vec![0.0; n * n])], vec![(2, c)])
            }
            other => return Err(format!("unknown Figure-8 kernel {other}")),
        };
        kernels.push(Kernel {
            name: FIG8[i],
            ir: k.ir.clone(),
            grid: k.mono.grid_dim,
            block: k.mono.block_dim,
            args,
            expect,
        });
    }
    Ok(kernels)
}

/// The handwritten baseline kernel standing beside `kernels[i]`.
fn baseline_ir(i: usize, n: usize) -> KernelIr {
    match FIG8[i] {
        "reduce" => baselines::reduce(n, BLOCK_SIZE),
        "reduce_shfl" => baselines::reduce_shuffle(n, BLOCK_SIZE),
        "scan_blocks" => baselines::scan_blocks(n, BLOCK_SIZE),
        "scan_add" => baselines::scan_add_offsets(n, BLOCK_SIZE),
        "histogram" => baselines::histogram(n, HIST_BLOCK, HIST_BINS),
        "stencil" => baselines::stencil(n, STENCIL_BLOCK),
        "transpose" => baselines::transpose(n),
        _ => baselines::matmul(n),
    }
}

/// The seven Figure-8 benchmarks as sets of kernel indices (Scan is two
/// kernels).
const BENCHMARKS: [&[usize]; 7] = [&[0], &[1], &[2, 3], &[4], &[5], &[6], &[7]];

impl Kernel {
    fn alloc(&self) -> (Gpu, Vec<BufId>) {
        let mut gpu = Gpu::new();
        let bufs = self
            .args
            .iter()
            .map(|(elem, data)| gpu.alloc_scalars(*elem, data))
            .collect();
        (gpu, bufs)
    }

    fn outputs(&self, gpu: &Gpu, bufs: &[BufId]) -> Vec<Vec<f64>> {
        self.expect
            .iter()
            .map(|(arg, _)| gpu.read_scalars(bufs[*arg]))
            .collect()
    }

    fn check(&self, outputs: &[Vec<f64>]) -> bool {
        self.expect.iter().zip(outputs).all(|((_, want), got)| {
            want.len() == got.len() && want.iter().zip(got).all(|(w, g)| approx_eq(*w, *g))
        })
    }

    /// Fresh buffers, one launch of `ir`; returns the stats, the seconds
    /// inside `launch`, and whether the outputs match.
    fn run(&self, ir: &KernelIr, cfg: &LaunchConfig) -> Result<(LaunchStats, f64, bool), String> {
        let (mut gpu, bufs) = self.alloc();
        let (stats, secs) = timed(|| gpu.launch(ir, self.grid, self.block, &bufs, cfg));
        let stats = stats.map_err(|e| format!("{}: {e}", self.name))?;
        Ok((stats, secs, self.check(&self.outputs(&gpu, &bufs))))
    }
}

pub struct SimPaper {
    /// `sim_paper` or `sim_paper_races`: also the root span's name.
    name: &'static str,
    races: bool,
    seed: u64,
    kernels: Vec<Kernel>,
    baseline_cycles: [u64; 8],
    stats: [LaunchStats; 8],
}

impl SimPaper {
    pub fn setup(seed: u64, races: bool, corrupt: bool) -> Result<SimPaper, String> {
        let mut kernels = build_kernels(&FIG8_PAPER, &mut Rng::new(seed))?;
        // The baselines run once, here, on the same inputs.
        let cfg = launch_config(false, SIM_WORKERS, ExecMode::Warp);
        let mut baseline_cycles = [0; 8];
        for (i, k) in kernels.iter().enumerate() {
            let (stats, _, ok) = k.run(&baseline_ir(i, FIG8_PAPER[i]), &cfg)?;
            if !ok {
                return Err(format!(
                    "{}: the handwritten baseline's output is wrong",
                    k.name
                ));
            }
            baseline_cycles[i] = stats.cycles;
        }
        if corrupt {
            kernels[0].expect[0].1[0] += 1.0;
        }
        Ok(SimPaper {
            name: if races {
                "sim_paper_races"
            } else {
                "sim_paper"
            },
            races,
            seed,
            kernels,
            baseline_cycles,
            stats: Default::default(),
        })
    }

    /// One operation. Only the launch is timed; allocation, readback
    /// and the check sit in spans of their own around it.
    fn op(&mut self, i: usize, spans: &mut Spans) -> OpRecord {
        let k = &self.kernels[i];
        let cfg = launch_config(self.races, SIM_WORKERS, ExecMode::Warp);
        let launch_span = if self.races {
            "gpu_sim.launch_on"
        } else {
            "gpu_sim.launch_off"
        };
        let (stats, secs, allocs, ok) = spans.span(self.name, k.name, |spans| {
            let (mut gpu, bufs) = spans.span("gpu_sim.alloc", "", |_| k.alloc());
            let allocs = alloc::calls();
            let (stats, secs) = timed(|| {
                spans.span(launch_span, "", |_| {
                    gpu.launch(&k.ir, k.grid, k.block, &bufs, &cfg)
                })
            });
            let allocs = alloc::calls() - allocs;
            let outputs = spans.span("gpu_sim.readback", "", |_| k.outputs(&gpu, &bufs));
            let ok = spans.span("bench.check", "", |_| k.check(&outputs));
            (stats, secs, allocs, ok)
        });
        let ok = match stats {
            Ok(stats) => {
                self.stats[i] = stats;
                ok
            }
            Err(_) => false,
        };
        OpRecord {
            program: Some(i),
            secs,
            allocs,
            sim_secs: secs,
            sim_instr: self.stats[i].instructions,
            ok,
        }
    }

    /// The launches the layer metrics need beyond the operation's own:
    /// the other race setting, and races off on `par_workers()` threads.
    fn extra_launches(&self, i: usize, spans: &mut Spans) {
        let k = &self.kernels[i];
        let (other, other_span) = if self.races {
            (false, "gpu_sim.launch_off")
        } else {
            (true, "gpu_sim.launch_on")
        };

        for (cfg, span) in [
            (
                launch_config(other, SIM_WORKERS, ExecMode::Warp),
                other_span,
            ),
            (
                launch_config(false, par_workers(), ExecMode::Warp),
                "gpu_sim.launch_par",
            ),
        ] {
            let (mut gpu, bufs) = k.alloc();
            let stats = spans.span(span, k.name, |_| {
                gpu.launch(&k.ir, k.grid, k.block, &bufs, &cfg)
            });
            std::hint::black_box(stats.is_ok());
        }
    }

    /// `gpu_sim.reference_over_warp`, `trace.overhead_ratio` and
    /// `trace.export_ms`, at the `trace_param` footprints.
    fn small_footprint_metrics(&self, out: &mut Metrics) -> Result<(), String> {
        const REPS: usize = 5;
        let small = build_kernels(&FIG8_TRACE, &mut Rng::new(self.seed))?;
        let warp = launch_config(false, SIM_WORKERS, ExecMode::Warp);
        let reference = launch_config(false, SIM_WORKERS, ExecMode::Reference);
        let (mut warp_s, mut reference_s, mut traced_s) = (0.0, 0.0, 0.0);
        let mut traces = Vec::new();
        for k in &small {
            let mut times = [Vec::new(), Vec::new(), Vec::new()];
            for rep in 0..REPS {
                times[0].push(k.run(&k.ir, &warp)?.1);
                times[1].push(k.run(&k.ir, &reference)?.1);
                let (mut gpu, bufs) = k.alloc();
                let (traced, secs) =
                    timed(|| gpu.launch_traced(&k.ir, k.grid, k.block, &bufs, &warp));
                times[2].push(secs);
                if rep == 0 {
                    traces.push(traced.map_err(|e| format!("{}: {e}", k.name))?.1);
                }
            }
            warp_s += median(&times[0]);
            reference_s += median(&times[1]);
            traced_s += median(&times[2]);
        }
        let export: Vec<f64> = (0..REPS)
            .map(|_| {
                timed(|| {
                    let per_launch: usize = traces.iter().map(|t| launch_trace_json(t).len()).sum();
                    per_launch + chrome_trace(&traces, false).len()
                })
                .1
            })
            .collect();
        put(
            out,
            "gpu_sim.reference_over_warp",
            reference_s / warp_s,
            "ratio",
        );
        put(out, "trace.overhead_ratio", traced_s / warp_s, "ratio");
        put(out, "trace.export_ms", median(&export) * 1e3, "ms");
        Ok(())
    }
}

impl Workload for SimPaper {
    fn pass(&mut self, rng: &mut Rng) -> Vec<OpRecord> {
        let mut off = Spans::new(false);
        rng.order(self.kernels.len())
            .into_iter()
            .map(|i| self.op(i, &mut off))
            .collect()
    }

    fn probe(
        &mut self,
        budget: f64,
        rng: &mut Rng,
        spans: &mut Spans,
        out: &mut Metrics,
    ) -> Result<Vec<Vec<OpRecord>>, String> {
        let passes = passes_for(budget, |_| {
            rng.order(self.kernels.len())
                .into_iter()
                .map(|i| {
                    let op = self.op(i, spans);
                    self.extra_launches(i, spans);
                    op
                })
                .collect()
        });
        let off = spans.program_medians("gpu_sim.launch_off");
        let on = spans.program_medians("gpu_sim.launch_on");
        for k in FIG8 {
            let (off, on) = (
                off.get(k).copied().unwrap_or(0.0),
                on.get(k).copied().unwrap_or(0.0),
            );
            put(out, &format!("gpu_sim.launch_ms.{k}"), off * 1e3, "ms");
            put(out, &format!("gpu_sim.race_ms.{k}"), (on - off) * 1e3, "ms");
        }
        let off_s = spans.median_sum("gpu_sim.launch_off");
        let sum = |f: fn(&LaunchStats) -> u64| self.stats.iter().map(f).sum::<u64>() as f64;
        put(
            out,
            "gpu_sim.ns_per_instr",
            off_s * 1e9 / sum(|s| s.instructions),
            "ns",
        );
        put(
            out,
            "gpu_sim.race_over_eval",
            spans.median_sum("gpu_sim.launch_on") / off_s,
            "ratio",
        );
        put(
            out,
            "gpu_sim.alloc_ms",
            spans.median_sum("gpu_sim.alloc") * 1e3,
            "ms",
        );
        put(
            out,
            "gpu_sim.readback_ms",
            spans.median_sum("gpu_sim.readback") * 1e3,
            "ms",
        );
        put(
            out,
            "gpu_sim.seq_over_par",
            off_s / spans.median_sum("gpu_sim.launch_par"),
            "ratio",
        );
        put(
            out,
            "gpu_sim.instructions",
            sum(|s| s.instructions),
            "count",
        );
        put(
            out,
            "gpu_sim.global_accesses",
            sum(|s| s.global_accesses),
            "count",
        );
        put(
            out,
            "gpu_sim.shared_accesses",
            sum(|s| s.shared_accesses),
            "count",
        );
        put(out, "gpu_sim.barriers", sum(|s| s.barriers), "count");
        put(out, "gpu_sim.blocks", sum(|s| s.blocks), "count");
        self.small_footprint_metrics(out)?;
        Ok(passes)
    }

    fn exact(&self) -> Exact {
        let cycles = |set: &[usize], of: &dyn Fn(usize) -> u64| {
            set.iter().map(|&i| of(i)).sum::<u64>() as f64
        };
        let ratios: Vec<f64> = BENCHMARKS
            .iter()
            .map(|set| {
                cycles(set, &|i| self.stats[i].cycles) / cycles(set, &|i| self.baseline_cycles[i])
            })
            .collect();
        Exact {
            sim_cycles: Some(self.stats.iter().map(|s| s.cycles).sum()),
            descend_over_cuda: Some(geomean(&ratios)),
            emitted_bytes: None,
        }
    }
}
