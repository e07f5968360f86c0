//! `descendc` — the Descend command-line compiler.
//!
//! ```text
//! descendc check  <file.descend>                  type-check only
//! descendc emit   <file.descend> [--emit=TARGETS] emit generated source
//! descendc cuda   <file.descend>                  emit CUDA C++ (same as --emit=cuda)
//! descendc run    <file.descend> [--fn f] [--native]
//!                                                 run a host function on the simulator
//!                                                 (or natively via the C backend)
//! descendc profile <file.descend> [--fn f] [--json] [--chrome-trace=PATH]
//!                                                 run + per-source-line cost profile
//! descendc kernels <file.descend>                 list compiled kernel instances
//! descendc serve                                  line-delimited JSON compile server
//! ```
//!
//! `TARGETS` is `cuda`, `opencl`, `wgsl`, `c`, a comma-separated list,
//! or `all` (the default for `emit`). With a single target the
//! translation unit prints bare; with several, each is preceded by a
//! `// ==== backend: <name> ====` separator.
//!
//! `run --native` compiles the C backend's translation unit with the
//! host C compiler (`$CC`, `cc`, `gcc`, or `clang`; OpenMP when
//! available) and executes it, printing the final CPU buffers in the
//! same format as the simulated run — the two outputs are directly
//! diffable. It fails if no host C compiler is installed.
//!
//! Argument parsing is strict: unknown commands, unknown flags, flags a
//! command does not take, stray positionals, and flag-like `--fn` values
//! all exit 2 with the usage text (see [`descend_compiler::cli`]).
//!
//! `run` executes with the dynamic race detector enabled and prints the
//! final CPU buffers and per-launch statistics.
//!
//! `profile` runs the same way while recording a launch trace, then
//! prints source lines ranked by modeled cycles (with `--json`, the
//! machine document, schema `descend-profile/1`). `--chrome-trace=PATH`
//! additionally writes a Chrome-trace (Perfetto) timeline of blocks
//! over SMs. Both outputs are deterministic: byte-identical across
//! executor modes and simulation thread counts.
//!
//! `serve` reads one JSON request per stdin line and answers one JSON
//! response per stdout line against a persistent incremental
//! [`descend_compiler::CompileSession`]; see
//! [`descend_compiler::server`] for the protocol (including `batch`
//! fan-out over a worker pool and cache `stats`).

#![forbid(unsafe_code)]

use descend_compiler::cli::{parse_args, Command};
use descend_compiler::{profile, server, Compiler};
use gpu_sim::trace::chrome_trace;
use gpu_sim::LaunchConfig;
use std::collections::HashMap;
use std::process::ExitCode;

fn usage() {
    eprintln!(
        "usage: descendc <check|emit|cuda|run|profile|kernels> <file.descend> [--fn NAME] [--emit=cuda|opencl|wgsl|c|all] [--native] [--json] [--chrome-trace=PATH]\n\
         \x20      descendc explain <E0xxx>\n\
         \x20      descendc serve\n\
         \n\
         check    type-check and report diagnostics (--json for the machine-readable\n\
                  descend-diagnostics/1 document)\n\
         emit     emit generated source to stdout (default --emit=all)\n\
         cuda     emit the CUDA C++ translation unit to stdout\n\
         run      execute a host function on the simulated GPU (default: main);\n\
         \x20         with --native, compile the emitted C with the host toolchain and run it\n\
         profile  run + rank source lines by modeled cost (--json for machine output,\n\
                  --chrome-trace=PATH for a Perfetto timeline)\n\
         kernels  list compiled kernel instances and their launch shapes\n\
         explain  print the explanation for a stable error code\n\
         serve    answer line-delimited JSON check/emit/profile requests on stdin"
    );
}

/// Prints the final CPU buffers, sorted by name, each as its first
/// eight values and its length — the one format `run` and `run --native`
/// share.
fn print_buffers(bufs: &HashMap<String, Vec<f64>>) {
    let mut names: Vec<_> = bufs.keys().collect();
    names.sort();
    for name in names {
        let data = &bufs[name];
        let preview: Vec<String> = data.iter().take(8).map(|v| format!("{v}")).collect();
        println!(
            "{name}: [{}{}] ({} elements)",
            preview.join(", "),
            if data.len() > 8 { ", ..." } else { "" },
            data.len()
        );
    }
}

/// `run --native`: compile the C backend's translation unit with the
/// host toolchain and execute the chosen host function on empty inputs
/// (zero-initialized buffers — exactly what the simulated `run` uses).
/// The buffer lines print in the simulated run's format so the two are
/// directly diffable.
fn run_native(compiled: &descend_compiler::Compiled, host_fn: &str) -> ExitCode {
    let Some(tc) = descend_native::Toolchain::detect() else {
        eprintln!("error: `--native` needs a host C compiler (tried $CC, cc, gcc, clang)");
        return ExitCode::FAILURE;
    };
    let c_source = compiled.target_source("c").expect("c backend selected");
    if !descend_native::has_host_main(c_source) {
        eprintln!("error: `--native` needs a host function; this program has none");
        return ExitCode::FAILURE;
    }
    let exe = match tc.compile(c_source) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match exe.run(host_fn, &HashMap::new()) {
        Ok(bufs) => {
            eprintln!(
                "native: {} ({})",
                tc.cc,
                if tc.openmp {
                    "OpenMP"
                } else {
                    "sequential, no OpenMP"
                }
            );
            print_buffers(&bufs);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("runtime error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n");
            usage();
            return ExitCode::from(2);
        }
    };

    if let Command::Serve = cmd {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        return match server::serve(stdin.lock(), stdout.lock()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Command::Explain { code } = &cmd {
        return match descend_diag::registry::lookup(code) {
            Some(info) => {
                println!("{}: {}", info.code, info.title);
                println!();
                println!("{}", info.explanation);
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "error: unknown error code `{code}`; see docs/DIAGNOSTICS.md for the index"
                );
                ExitCode::FAILURE
            }
        };
    }

    let path = match &cmd {
        Command::Check { path, .. }
        | Command::Emit { path, .. }
        | Command::Run { path, .. }
        | Command::Profile { path, .. }
        | Command::Kernels { path } => path.clone(),
        Command::Serve | Command::Explain { .. } => unreachable!("handled above"),
    };
    let src = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read `{path}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Only the emitting commands pay for text emission; check/run/kernels
    // compile IR-only — except a native run, which needs the C unit.
    let selected: Vec<&str> = match &cmd {
        Command::Emit { targets, .. } => targets.clone(),
        Command::Run { native: true, .. } => vec!["c"],
        _ => vec![],
    };
    let compiler = Compiler::with_backends(&selected).expect("targets are validated");
    let compiled = match compiler.compile_source(&src) {
        Ok(c) => c,
        Err(e) => {
            // Diagnostics go to stderr; `check --json` additionally
            // prints the machine document to stdout. Either way the
            // exit code is 1.
            if let Command::Check { json: true, .. } = &cmd {
                print!(
                    "{}",
                    descend_diag::render_json(&path, &src, std::slice::from_ref(e.diag.as_ref()))
                );
            }
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match &cmd {
        Command::Check { json, .. } => {
            if *json {
                print!("{}", descend_diag::render_json(&path, &src, &[]));
            } else {
                println!(
                    "ok: {} kernel instance(s), {} host function(s)",
                    compiled.kernels.len(),
                    compiled.checked.host_fns.len()
                );
            }
            ExitCode::SUCCESS
        }
        Command::Emit { targets, .. } => {
            let many = targets.len() > 1;
            for (i, name) in targets.iter().enumerate() {
                if many {
                    if i > 0 {
                        println!();
                    }
                    println!("// ==== backend: {name} ====");
                }
                print!("{}", compiled.target_source(name).expect("registered"));
            }
            ExitCode::SUCCESS
        }
        Command::Kernels { .. } => {
            for k in &compiled.kernels {
                let m = &k.mono;
                println!(
                    "{}  grid ({}, {}, {})  block ({}, {}, {})  params {}  shared {}",
                    m.name,
                    m.grid_dim[0],
                    m.grid_dim[1],
                    m.grid_dim[2],
                    m.block_dim[0],
                    m.block_dim[1],
                    m.block_dim[2],
                    m.params.len(),
                    m.shared.len()
                );
            }
            ExitCode::SUCCESS
        }
        Command::Run {
            host_fn,
            native: true,
            ..
        } => run_native(&compiled, host_fn),
        Command::Run { host_fn, .. } => {
            let cfg = LaunchConfig {
                detect_races: true,
                ..LaunchConfig::default()
            };
            match compiled.run_host(host_fn, &HashMap::new(), &cfg) {
                Ok(run) => {
                    print_buffers(&run.cpu);
                    for (i, s) in run.launches.iter().enumerate() {
                        // One table per launch, via the canonical
                        // LaunchStats rendering (no hand-picked fields).
                        println!("launch {i}:");
                        for l in s.to_string().lines() {
                            println!("  {l}");
                        }
                    }
                    println!("total modeled cycles: {}", run.total_cycles());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("runtime error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Command::Profile {
            host_fn,
            json,
            chrome_trace: chrome_path,
            ..
        } => {
            let cfg = LaunchConfig {
                detect_races: true,
                ..LaunchConfig::default()
            };
            match compiled.run_host_traced(host_fn, &HashMap::new(), &cfg) {
                Ok((run, traces)) => {
                    if let Some(p) = chrome_path {
                        let timeline = chrome_trace(&traces, false);
                        if let Err(e) = std::fs::write(p, timeline) {
                            eprintln!("error: cannot write `{p}`: {e}");
                            return ExitCode::FAILURE;
                        }
                        eprintln!("wrote chrome trace to {p}");
                    }
                    let profiles = profile::profile_launches(&src, &run.launches, &traces);
                    if *json {
                        print!("{}", profile::render_json(&path, host_fn, &profiles));
                    } else {
                        print!("{}", profile::render_text(&profiles));
                        println!("total modeled cycles: {}", run.total_cycles());
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("runtime error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Command::Serve | Command::Explain { .. } => unreachable!("handled above"),
    }
}
