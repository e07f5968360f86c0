//! The repository's benchmark: one Descend program going from source
//! text to result buffers, six workloads, measured end to end and layer
//! by layer from outside. README.md beside this file defines every
//! workload and metric; `BENCHMARK.json` at the repository root is the
//! contract (command, bounds) later changes are judged by.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--json PATH]
//! benchmark --compare A.json B.json
//! benchmark --self-test
//! ```
//!
//! Without `--workload`, every workload runs in a child process of this
//! executable, so peak memory is per workload.

mod alloc;
mod compare;
mod compile;
mod corpus;
mod harness;
mod native;
mod run_small;
mod selftest;
mod serve;
mod sim;
mod spans;
mod util;

use descend::compiler::server::{parse_json, Json};
use harness::{
    end_to_end, measure, pass_op_ms, passes_for, put, tally, timed_setups, Metrics, Workload,
};
use spans::Spans;
use std::process::{Command, ExitCode, Stdio};
use util::{median, out_dir, Rng};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

pub const WORKLOADS: [&str; 6] = [
    "compile_cold",
    "serve_edit",
    "sim_paper",
    "sim_paper_races",
    "run_small",
    "native",
];

/// Sets a workload up. `Ok(None)`: it cannot run on this host (`native`
/// without a C compiler).
pub fn build(
    workload: &str,
    seed: u64,
    corrupt: bool,
) -> Result<Option<Box<dyn Workload>>, String> {
    fn some<W: Workload + 'static>(w: W) -> Option<Box<dyn Workload>> {
        Some(Box::new(w))
    }
    Ok(match workload {
        "compile_cold" => some(compile::CompileCold::setup(corrupt)?),
        "serve_edit" => some(serve::ServeEdit::setup(corrupt)?),
        "sim_paper" => some(sim::SimPaper::setup(seed, false, corrupt)?),
        "sim_paper_races" => some(sim::SimPaper::setup(seed, true, corrupt)?),
        "run_small" => some(run_small::RunSmall::setup(seed, corrupt)?),
        "native" => native::Native::setup(seed, corrupt)?.map(|w| Box::new(w) as Box<dyn Workload>),
        other => {
            return Err(format!(
                "unknown workload `{other}` (one of {})",
                WORKLOADS.join(", ")
            ))
        }
    })
}

/// What one run of one workload reports.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// The untraced run: the end-to-end metrics.
fn run_untraced(workload: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (built, setup) = timed_setups(|| build(workload, seed, false))?;
    let Some(mut w) = built else {
        eprintln!("{workload}: skipped (no host C compiler)");
        return Ok(Outcome {
            attempted: 0,
            failed: 0,
            metrics: end_to_end(&[], setup, Default::default()),
        });
    };
    let passes = measure(w.as_mut(), seconds, &mut Rng::new(seed));
    let (attempted, failed) = tally(&passes);
    Ok(Outcome {
        attempted,
        failed,
        metrics: end_to_end(&passes, setup, w.exact()),
    })
}

/// The workloads whose traced passes a traced run of `workload` drives:
/// every layer is measured in every traced run, the workload's own
/// stages with nearly all of the time and the others for one pass. The
/// two simulator workloads exercise the same layers, so only one runs.
fn probes(workload: &str) -> Vec<&'static str> {
    WORKLOADS
        .into_iter()
        .filter(|w| match *w {
            "sim_paper" => workload != "sim_paper_races",
            "sim_paper_races" => workload == "sim_paper_races",
            _ => true,
        })
        .collect()
}

/// The traced run: the per-layer metrics, the share table, the spans.
fn run_traced(workload: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let began = std::time::Instant::now();
    let mut spans = Spans::new(true);
    let mut metrics = Metrics::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut order = probes(workload);
    // The workload's own passes come last and get the time that is left.
    order.sort_by_key(|w| *w == workload);
    for probe in order {
        let mut rng = Rng::new(seed);
        let Some(mut w) = build(probe, seed, false)? else {
            eprintln!("{probe}: skipped (no host C compiler)");
            native::skipped_layers(&mut metrics);
            if probe == workload {
                put(&mut metrics, "bench.trace_overhead_ratio", 1.0, "ratio");
            }
            continue;
        };
        if probe != workload {
            w.probe(0.0, &mut rng, &mut spans, &mut metrics)?;
            continue;
        }
        // A fifth of what is left goes to untraced passes, so that the
        // traced-over-untraced ratio comes from one process.
        let left = (seconds - began.elapsed().as_secs_f64()).max(1.0);
        w.pass(&mut rng);
        let plain = passes_for(left * 0.2, |_| w.pass(&mut rng));
        let traced = w.probe(left * 0.8, &mut rng, &mut spans, &mut metrics)?;
        let op_ms = |passes: &[Vec<harness::OpRecord>]| {
            median(&passes.iter().map(|p| pass_op_ms(p)).collect::<Vec<_>>())
        };
        let ratio = op_ms(&traced) / op_ms(&plain);
        put(&mut metrics, "bench.trace_overhead_ratio", ratio, "ratio");
        (attempted, failed) = tally(&traced);
    }
    println!("share of operation wall-clock per layer (self time), {workload}:");
    print!("{}", spans.share_table(workload));
    let path = out_dir().join(format!("trace-{workload}.json"));
    std::fs::write(&path, spans.chrome_trace()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "spans: {} ({} spans, Chrome trace)",
        path.display(),
        spans.spans.len()
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

fn num(v: f64) -> Json {
    Json::Num(if v.is_finite() { v } else { 0.0 })
}

/// An outcome as JSON. The result line the contract asks for has
/// exactly `correct`, `attempted`, `failed`, `metrics`, each metric
/// exactly value and unit; the `rich` form kept in `--json` files adds
/// the quartiles and sample count `--compare` needs.
fn outcome_json(o: &Outcome, rich: bool) -> Json {
    let metrics = o
        .metrics
        .iter()
        .map(|(name, v)| {
            let mut fields = vec![
                ("value".to_string(), num(v.value)),
                ("unit".to_string(), Json::Str(v.unit.to_string())),
            ];
            if rich {
                fields.extend([
                    ("q1".to_string(), num(v.q1)),
                    ("q3".to_string(), num(v.q3)),
                    ("n".to_string(), num(v.n as f64)),
                ]);
            }
            (name.clone(), Json::Obj(fields))
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(o.failed == 0)),
        ("attempted".into(), num(o.attempted as f64)),
        ("failed".into(), num(o.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

fn print_metrics(workload: &str, o: &Outcome) {
    println!(
        "{workload}: {} operations, {} failed",
        o.attempted, o.failed
    );
    for (name, v) in &o.metrics {
        let spread = if v.n > 1 {
            format!("  (q1 {:.6}, q3 {:.6}, n {})", v.q1, v.q3, v.n)
        } else {
            String::new()
        };
        println!("  {name:<36} {:>18.6} {}{spread}", v.value, v.unit);
    }
    if o.attempted > 0 {
        println!(
            "  {:<36} {:>18.6} ratio",
            "fail_share",
            o.failed as f64 / o.attempted as f64
        );
    }
    println!(
        "  (this process: {} heap allocations, {} bytes requested)",
        alloc::calls(),
        alloc::bytes()
    );
}

fn results_file(seed: u64, workloads: Vec<(String, Json)>) -> String {
    Json::Obj(vec![
        ("schema".into(), Json::Str("descend-benchmark/1".into())),
        ("seed".into(), num(seed as f64)),
        ("workloads".into(), Json::Obj(workloads)),
    ])
    .to_string_compact()
        + "\n"
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<String>,
}

/// One workload in this process. Once the result line is out the exit
/// code is 0: failed operations are in the line.
fn run_one(workload: &str, args: &Args) -> Result<bool, String> {
    // The native path compiles in a scratch directory under the system's
    // temporary directory; keep it inside the target directory.
    let tmp = out_dir().join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);
    let outcome = if args.trace {
        run_traced(workload, args.seed, args.seconds)?
    } else {
        run_untraced(workload, args.seed, args.seconds)?
    };
    print_metrics(workload, &outcome);
    if let Some(path) = &args.json {
        let key = if args.trace {
            format!("{workload}.layers")
        } else {
            workload.to_string()
        };
        std::fs::write(
            path,
            results_file(args.seed, vec![(key, outcome_json(&outcome, true))]),
        )
        .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", outcome_json(&outcome, false).to_string_compact());
    Ok(true)
}

/// Every workload, each in a child process of this executable; with
/// `--trace`, each once more traced.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut merged = Vec::new();
    let mut correct = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            let part = out_dir().join(format!("part-{workload}-{}.json", u8::from(trace)));
            let out = Command::new(&exe)
                .args(["--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--json")
                .arg(&part)
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("{workload}: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let lines: Vec<&str> = text.lines().collect();
            // All but the machine-readable last line is for the reader.
            for line in &lines[..lines.len().saturating_sub(1)] {
                println!("{line}");
            }
            println!();
            if !out.status.success() {
                return Err(format!("{workload}: the child process failed"));
            }
            let file =
                std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
            if let Some(Json::Obj(w)) = parse_json(&file)?.get("workloads") {
                correct &= w
                    .iter()
                    .all(|(_, o)| o.get("correct") == Some(&Json::Bool(true)));
                merged.extend(w.iter().cloned());
            }
        }
    }
    if let Some(path) = &args.json {
        std::fs::write(path, results_file(args.seed, merged))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(correct)
}

fn usage() -> String {
    format!(
        "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--json PATH]\n\
         \x20      benchmark --compare A.json B.json\n\
         \x20      benchmark --self-test\n\
         workloads: {}",
        WORKLOADS.join(", ")
    )
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        json: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or(format!("{a} needs {what}\n{}", usage()))
        };
        match a.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--json" => args.json = Some(value("a path")?),
            "--trace" => {
                // A bare `--trace` means on; the driver passes 0 or 1.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--compare" => {
                let (a, b) = (value("two result files")?, value("two result files")?);
                return compare::compare(&a, &b);
            }
            "--self-test" => return selftest::self_test(args.seed),
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(true);
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    match args.workload.clone() {
        Some(w) => run_one(&w, &args),
        None => run_all(&args),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
