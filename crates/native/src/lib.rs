//! Host C toolchain driver for the executable C backend.
//!
//! The C backend (`CBackend` in `descend_backends`) emits a portable
//! C11 (+OpenMP) translation unit whose host functions speak a tiny
//! stdin/stdout protocol: `name count v0 v1 ...` records seed the CPU
//! buffers, and every CPU buffer's final contents print back as one
//! `name count v0 ...` line. This crate closes the loop on a developer
//! machine: it finds a working host C compiler, probes OpenMP support,
//! compiles the emitted source in a scratch directory, runs the binary
//! on the same inputs the simulator consumes, and parses the dump back
//! into `HashMap<String, Vec<f64>>` — the simulator's own buffer
//! representation — so callers can compare the two executions value
//! for value.
//!
//! Everything degrades gracefully: [`Toolchain::detect`] returns
//! `None` when no compiler answers `--version` (CI and tests skip with
//! a notice), and a compiler without OpenMP still works — the probe
//! falls back to `-Wno-unknown-pragmas`, which turns the `#pragma omp`
//! lines into no-ops and runs the kernels sequentially. The phased
//! execution model is correct either way; OpenMP only adds block-level
//! parallelism.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

/// Errors from compiling or running an emitted translation unit.
#[derive(Debug)]
pub enum NativeError {
    /// The C compiler exited nonzero; carries its stderr.
    Compile(String),
    /// The compiled binary exited nonzero; carries its stderr.
    Run(String),
    /// The binary's stdout did not parse as `name count v0 ...` lines.
    Protocol(String),
    /// Filesystem or process-spawn failure.
    Io(std::io::Error),
}

impl fmt::Display for NativeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NativeError::Compile(s) => write!(f, "C compilation failed:\n{s}"),
            NativeError::Run(s) => write!(f, "native binary failed:\n{s}"),
            NativeError::Protocol(s) => write!(f, "malformed buffer dump: {s}"),
            NativeError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for NativeError {}

impl From<std::io::Error> for NativeError {
    fn from(e: std::io::Error) -> Self {
        NativeError::Io(e)
    }
}

/// A detected host C compiler and whether it accepts `-fopenmp`.
#[derive(Debug, Clone)]
pub struct Toolchain {
    /// Compiler executable (`$CC`, `cc`, `gcc`, or `clang`).
    pub cc: String,
    /// Whether `-fopenmp` compiled and linked a probe program.
    pub openmp: bool,
}

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// A process-unique scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> Result<PathBuf, NativeError> {
    let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("descend-native-{}-{n}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Probe `cc --version`; a zero exit means the executable exists and
/// behaves like a compiler driver.
fn answers_version(cc: &str) -> bool {
    Command::new(cc)
        .arg("--version")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

impl Toolchain {
    /// Find a host C compiler: `$CC` if set, then `cc`, `gcc`, `clang`.
    /// Returns `None` if none answers `--version` — callers should skip
    /// native execution with a notice rather than fail.
    pub fn detect() -> Option<Toolchain> {
        let mut candidates: Vec<String> = Vec::new();
        if let Ok(cc) = std::env::var("CC") {
            if !cc.trim().is_empty() {
                candidates.push(cc);
            }
        }
        for cc in ["cc", "gcc", "clang"] {
            candidates.push(cc.to_string());
        }
        let cc = candidates.into_iter().find(|c| answers_version(c))?;
        let openmp = probe_openmp(&cc);
        Some(Toolchain { cc, openmp })
    }

    /// The flag set every compile uses: strict C11 with warnings as
    /// errors, plus `-fopenmp` when the probe succeeded (otherwise the
    /// OpenMP pragmas are silenced and the program runs sequentially).
    pub fn flags(&self) -> Vec<&'static str> {
        let mut flags = vec!["-std=c11", "-Wall", "-Werror", "-O1"];
        if self.openmp {
            flags.push("-fopenmp");
        } else {
            flags.push("-Wno-unknown-pragmas");
        }
        flags
    }

    /// Compile a full translation unit (one with a generated `main`)
    /// to an executable in a scratch directory.
    pub fn compile(&self, c_source: &str) -> Result<CompiledNative, NativeError> {
        let dir = scratch_dir("exe")?;
        let src = dir.join("program.c");
        let exe = dir.join("program");
        std::fs::write(&src, c_source)?;
        let out = Command::new(&self.cc)
            .args(self.flags())
            .arg("-o")
            .arg(&exe)
            .arg(&src)
            .arg("-lm")
            .output()?;
        if !out.status.success() {
            let err = String::from_utf8_lossy(&out.stderr).into_owned();
            let _ = std::fs::remove_dir_all(&dir);
            return Err(NativeError::Compile(err));
        }
        Ok(CompiledNative { dir, exe })
    }

    /// Compile-check a kernel-only translation unit (no host `main`)
    /// as an object file. Used by the corpus-wide "everything we emit
    /// is valid C" sweep.
    pub fn compile_object(&self, c_source: &str) -> Result<(), NativeError> {
        let dir = scratch_dir("obj")?;
        let src = dir.join("unit.c");
        let obj = dir.join("unit.o");
        std::fs::write(&src, c_source)?;
        let out = Command::new(&self.cc)
            .args(self.flags())
            .arg("-c")
            .arg("-o")
            .arg(&obj)
            .arg(&src)
            .output()?;
        let ok = out.status.success();
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        let _ = std::fs::remove_dir_all(&dir);
        if ok {
            Ok(())
        } else {
            Err(NativeError::Compile(err))
        }
    }
}

/// Whether an emitted translation unit carries a generated host `main`
/// (and can therefore be linked and run) or is kernel-only (compile as
/// an object with [`Toolchain::compile_object`]).
pub fn has_host_main(c_source: &str) -> bool {
    c_source.contains("int main(")
}

/// Test-compile a one-line OpenMP program; failure means the driver
/// lacks `-fopenmp` (or libgomp) and we fall back to sequential.
fn probe_openmp(cc: &str) -> bool {
    let Ok(dir) = scratch_dir("probe") else {
        return false;
    };
    let src = dir.join("probe.c");
    let exe = dir.join("probe");
    let program = "#include <omp.h>\nint main(void) {\n    int n = 0;\n#pragma omp parallel\n    {\n        n += omp_get_thread_num() >= 0;\n    }\n    return n > 0 ? 0 : 1;\n}\n";
    if std::fs::write(&src, program).is_err() {
        let _ = std::fs::remove_dir_all(&dir);
        return false;
    }
    let ok = Command::new(cc)
        .args(["-std=c11", "-fopenmp"])
        .arg("-o")
        .arg(&exe)
        .arg(&src)
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false);
    let _ = std::fs::remove_dir_all(&dir);
    ok
}

/// A compiled native binary in its scratch directory; the directory is
/// removed on drop.
#[derive(Debug)]
pub struct CompiledNative {
    dir: PathBuf,
    exe: PathBuf,
}

impl CompiledNative {
    /// Path of the executable (inside the scratch directory).
    pub fn exe(&self) -> &Path {
        &self.exe
    }

    /// Run one host function on the given inputs and parse the buffer
    /// dump. `inputs` uses the simulator's representation: every buffer
    /// is `Vec<f64>` regardless of element type; the binary quantizes
    /// exactly like the simulator's `scalar_to_bits`.
    pub fn run(
        &self,
        host_fn: &str,
        inputs: &HashMap<String, Vec<f64>>,
    ) -> Result<HashMap<String, Vec<f64>>, NativeError> {
        let mut child = Command::new(&self.exe)
            .arg(host_fn)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()?;
        // Feed every input record, then close stdin so the scanf loop
        // terminates.
        {
            let mut stdin = child.stdin.take().expect("piped stdin");
            stdin.write_all(format_inputs(inputs).as_bytes())?;
        }
        let out = child.wait_with_output()?;
        if !out.status.success() {
            return Err(NativeError::Run(
                String::from_utf8_lossy(&out.stderr).into_owned(),
            ));
        }
        parse_dump(&String::from_utf8_lossy(&out.stdout))
    }
}

impl Drop for CompiledNative {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Render simulator-style inputs as the stdin protocol the generated
/// `main` reads: one `name count v0 v1 ...` record per buffer. Values
/// print with Rust's shortest round-trip formatting, which `scanf
/// %lf` parses exactly. Records are name-sorted so the stream is
/// deterministic.
pub fn format_inputs(inputs: &HashMap<String, Vec<f64>>) -> String {
    let mut names: Vec<&String> = inputs.keys().collect();
    names.sort();
    let mut out = String::new();
    for name in names {
        let vals = &inputs[name];
        out.push_str(name);
        out.push(' ');
        out.push_str(&vals.len().to_string());
        for v in vals {
            out.push(' ');
            out.push_str(&format!("{v:?}"));
        }
        out.push('\n');
    }
    out
}

/// Parse the binary's stdout — one `name count v0 v1 ...` line per CPU
/// buffer — back into the simulator's buffer representation.
pub fn parse_dump(stdout: &str) -> Result<HashMap<String, Vec<f64>>, NativeError> {
    let mut out = HashMap::new();
    for line in stdout.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut toks = line.split_whitespace();
        let name = toks
            .next()
            .ok_or_else(|| NativeError::Protocol(format!("empty record: {line:?}")))?;
        let count: usize = toks
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| NativeError::Protocol(format!("missing count: {line:?}")))?;
        let vals: Vec<f64> = toks
            .map(|t| {
                t.parse::<f64>()
                    .map_err(|_| NativeError::Protocol(format!("bad value {t:?} in {name}")))
            })
            .collect::<Result<_, _>>()?;
        if vals.len() != count {
            return Err(NativeError::Protocol(format!(
                "{name}: header says {count} values, line has {}",
                vals.len()
            )));
        }
        out.insert(name.to_string(), vals);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_round_trip_through_the_protocol() {
        let mut inputs = HashMap::new();
        inputs.insert("h".to_string(), vec![1.0, -2.5, 3.25]);
        inputs.insert("a".to_string(), vec![7.0]);
        let text = format_inputs(&inputs);
        // Name-sorted, one record per line, parseable by scanf %lf.
        assert_eq!(text, "a 1 7.0\nh 3 1.0 -2.5 3.25\n");
        // The dump format is the same shape; parse_dump inverts it.
        let parsed = parse_dump("a 1 7\nh 3 1 -2.5 3.25\n").unwrap();
        assert_eq!(parsed, inputs);
    }

    #[test]
    fn parse_dump_rejects_malformed_records() {
        assert!(matches!(
            parse_dump("h two 1 2"),
            Err(NativeError::Protocol(_))
        ));
        assert!(matches!(
            parse_dump("h 3 1 2"),
            Err(NativeError::Protocol(_))
        ));
        assert!(matches!(
            parse_dump("h 1 abc"),
            Err(NativeError::Protocol(_))
        ));
        assert!(parse_dump("").unwrap().is_empty());
    }

    #[test]
    fn main_detection_distinguishes_kernel_only_units() {
        assert!(has_host_main("int main(int argc, char** argv) {"));
        assert!(!has_host_main("void kernel(double* v) {}"));
    }
}
