//! `native`: the C backend's output through the host C compiler and
//! run as a process — the only path where generated code runs on real
//! hardware. Descend → C happens in set-up.

use crate::alloc;
use crate::corpus::{pass_programs, NATIVE};
use crate::harness::{passes_for, put, Metrics, OpRecord, Workload};
use crate::run_small::{build_cases, corrupt_first, Buffers, Case};
use crate::spans::Spans;
use crate::util::{bitwise_eq, timed, Rng};
use descend::native::{format_inputs, parse_dump, NativeError, Toolchain};
use descend::sim::ExecMode;
use std::io::Write as _;
use std::process::{Command, Stdio};
use std::sync::OnceLock;

pub struct Native {
    toolchain: Toolchain,
    cases: Vec<Case>,
    c_sources: Vec<String>,
}

/// `reduce_atomic` sums f32 across blocks in whatever order the OpenMP
/// threads arrive: the tolerance of `tests/native_props.rs`.
fn close_enough(program: &str, got: &Buffers, want: &Buffers) -> bool {
    got.len() == want.len()
        && want.iter().all(|(name, w)| {
            got.get(name).is_some_and(|g| {
                if program == "reduce_atomic" {
                    g.len() == w.len()
                        && g.iter()
                            .zip(w)
                            .all(|(a, b)| (a - b).abs() <= 1e-4 * b.abs().max(1.0))
                } else {
                    bitwise_eq(g, w)
                }
            })
        })
}

/// The host C compiler, looked for once per process and not in every
/// set-up: `Toolchain::detect` spawns the compiler twice, which is four
/// fifths of a set-up and as unsteady as the machine's process creation
/// (the same run reads 49 or 65 ms), so `setup_s` would report the box.
fn toolchain() -> Option<Toolchain> {
    static DETECTED: OnceLock<Option<Toolchain>> = OnceLock::new();
    DETECTED.get_or_init(Toolchain::detect).clone()
}

impl Native {
    /// `Ok(None)` when the host has no C compiler: the workload is
    /// skipped, with zero operations attempted.
    pub fn setup(seed: u64, corrupt: bool) -> Result<Option<Native>, String> {
        let Some(toolchain) = toolchain() else {
            return Ok(None);
        };
        let mut programs = pass_programs()?;
        programs.retain(|p| NATIVE.contains(&p.name.as_str()));
        // The expected buffers are the simulator's.
        let built = build_cases(programs, &["c"], ExecMode::Warp, &mut Rng::new(seed))?;
        let mut cases = Vec::new();
        let mut c_sources = Vec::new();
        for (case, compiled) in built {
            let c = compiled
                .target_source("c")
                .ok_or("the c backend is registered")?;
            c_sources.push(c.to_string());
            cases.push(case);
        }
        if corrupt {
            corrupt_first(&mut cases);
        }
        Ok(Some(Native {
            toolchain,
            cases,
            c_sources,
        }))
    }

    /// The untraced operation: `cc`, then `CompiledNative::run` (which
    /// formats the inputs, spawns, and parses the dump).
    fn op(&self, i: usize) -> OpRecord {
        let case = &self.cases[i];
        let allocs = alloc::calls();
        let (got, secs) = timed(|| {
            let exe = self.toolchain.compile(&self.c_sources[i])?;
            exe.run("main", &case.inputs)
        });
        self.record(i, secs, alloc::calls() - allocs, got)
    }

    fn record(
        &self,
        i: usize,
        secs: f64,
        allocs: u64,
        got: Result<Buffers, NativeError>,
    ) -> OpRecord {
        let case = &self.cases[i];
        let ok = got.is_ok_and(|g| close_enough(&case.program.name, &g, &case.expected));
        OpRecord::unsimulated(Some(i), secs, allocs, ok)
    }

    /// The traced operation: the stages of `CompiledNative::run` one by
    /// one, so that the process and the two text codecs separate.
    fn staged_op(&self, i: usize, spans: &mut Spans) -> OpRecord {
        let case = &self.cases[i];
        let allocs = alloc::calls();
        let (got, secs) = timed(|| {
            spans.span("native", &case.program.name, |spans| {
                let exe = spans.span("native.cc", "", |_| {
                    self.toolchain.compile(&self.c_sources[i])
                })?;
                let text = spans.span("native.format_inputs", "", |_| format_inputs(&case.inputs));
                let stdout = spans.span("native.run", "", |_| -> Result<String, NativeError> {
                    let mut child = Command::new(exe.exe())
                        .arg("main")
                        .stdin(Stdio::piped())
                        .stdout(Stdio::piped())
                        .stderr(Stdio::piped())
                        .spawn()?;
                    // Dropping stdin closes it, which ends the program's
                    // read loop; `wait_with_output` reaps the child.
                    let fed = child
                        .stdin
                        .take()
                        .map(|mut stdin| stdin.write_all(text.as_bytes()));
                    let out = child.wait_with_output()?;
                    if let Some(Err(e)) = fed {
                        return Err(e.into());
                    }
                    if !out.status.success() {
                        return Err(NativeError::Run(
                            String::from_utf8_lossy(&out.stderr).into_owned(),
                        ));
                    }
                    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
                })?;
                spans.span("native.parse_dump", "", |_| parse_dump(&stdout))
            })
        });
        self.record(i, secs, alloc::calls() - allocs, got)
    }
}

/// What a traced run reports for this layer on a host without a C
/// compiler.
pub fn skipped_layers(out: &mut Metrics) {
    for (name, unit) in [
        ("native.cc_ms", "ms"),
        ("native.run_ms", "ms"),
        ("native.format_inputs_us", "us"),
        ("native.parse_dump_us", "us"),
        ("native.c_bytes", "bytes"),
    ] {
        put(out, name, 0.0, unit);
    }
}

impl Workload for Native {
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
        let passes = passes_for(budget, |_| {
            rng.order(self.cases.len())
                .into_iter()
                .map(|i| self.staged_op(i, spans))
                .collect()
        });
        put(
            out,
            "native.cc_ms",
            spans.median_sum("native.cc") * 1e3,
            "ms",
        );
        put(
            out,
            "native.run_ms",
            spans.median_sum("native.run") * 1e3,
            "ms",
        );
        put(
            out,
            "native.format_inputs_us",
            spans.median_sum("native.format_inputs") * 1e6,
            "us",
        );
        put(
            out,
            "native.parse_dump_us",
            spans.median_sum("native.parse_dump") * 1e6,
            "us",
        );
        let c_bytes: usize = self.c_sources.iter().map(String::len).sum();
        put(out, "native.c_bytes", c_bytes as f64, "bytes");
        Ok(passes)
    }
}
