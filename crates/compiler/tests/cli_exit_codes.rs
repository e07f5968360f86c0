//! Exit-code and stream contracts of the real `descendc` binary.
//!
//! The CLI is part of the machine interface: build systems key on exit
//! codes (0 = clean, 1 = diagnostics/failure, 2 = usage error) and on
//! which stream carries what (diagnostics on stderr, machine documents
//! on stdout). These tests spawn the actual binary via
//! `CARGO_BIN_EXE_descendc` and pin all of it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn descendc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_descendc"))
        .args(args)
        .output()
        .expect("spawn descendc")
}

fn repo_file(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn check_ok_exits_zero_with_summary_on_stdout() {
    let path = repo_file("examples/descend/dot.descend");
    let out = descendc(&["check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).starts_with("ok: "), "{}", stdout(&out));
    assert!(stderr(&out).is_empty(), "{}", stderr(&out));
}

#[test]
fn check_failure_exits_one_with_coded_diagnostic_on_stderr() {
    let path = repo_file("examples/descend/fail/sync_under_split.descend");
    let out = descendc(&["check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(
        err.contains("error[E0104]: barrier not allowed here"),
        "{err}"
    );
    assert!(err.contains("-->"), "{err}");
    assert!(err.contains("= help:"), "{err}");
    // No machine document without --json.
    assert!(stdout(&out).is_empty(), "{}", stdout(&out));
}

#[test]
fn check_json_failure_prints_document_on_stdout_and_exits_one() {
    let path = repo_file("examples/descend/fail/sync_under_split.descend");
    let out = descendc(&["check", path.to_str().unwrap(), "--json"]);
    assert_eq!(out.status.code(), Some(1));
    let doc = stdout(&out);
    assert!(
        doc.contains("\"schema\": \"descend-diagnostics/1\""),
        "{doc}"
    );
    assert!(doc.contains("\"ok\": false"), "{doc}");
    assert!(doc.contains("\"code\":\"E0104\""), "{doc}");
    // The human rendering still goes to stderr.
    assert!(stderr(&out).contains("error[E0104]"), "{}", stderr(&out));
}

#[test]
fn check_json_success_prints_empty_document_and_exits_zero() {
    let path = repo_file("examples/descend/dot.descend");
    let out = descendc(&["check", path.to_str().unwrap(), "--json"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let doc = stdout(&out);
    assert!(doc.contains("\"ok\": true"), "{doc}");
    assert!(doc.contains("\"diagnostics\": []"), "{doc}");
}

#[test]
fn json_on_unsupported_subcommands_exits_two() {
    let path = repo_file("examples/descend/dot.descend");
    for cmd in ["run", "kernels", "emit", "cuda"] {
        let out = descendc(&[cmd, path.to_str().unwrap(), "--json"]);
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        let err = stderr(&out);
        assert!(err.contains("--json"), "{cmd}: {err}");
        assert!(err.contains("usage:"), "{cmd}: {err}");
        assert!(stdout(&out).is_empty(), "{cmd}");
    }
}

#[test]
fn unknown_arguments_exit_two() {
    let out = descendc(&["frobnicate", "x.descend"]);
    assert_eq!(out.status.code(), Some(2));
    let out = descendc(&[]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unreadable_file_exits_one() {
    let out = descendc(&["check", "/nonexistent/nope.descend"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("cannot read"), "{}", stderr(&out));
}

#[test]
fn explain_prints_registry_entry() {
    let out = descendc(&["explain", "E0104"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let doc = stdout(&out);
    assert!(
        doc.starts_with("E0104: barrier not allowed here\n"),
        "{doc}"
    );
    assert!(doc.contains("Hoist the `sync`"), "{doc}");
}

#[test]
fn explain_unknown_code_exits_one() {
    let out = descendc(&["explain", "E9999"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("E9999"), "{}", stderr(&out));
    let out = descendc(&["explain"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn emit_all_prints_every_backend_in_registry_order() {
    let path = repo_file("examples/descend/scale.descend");
    let out = descendc(&["emit", path.to_str().unwrap(), "--emit=all"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let doc = stdout(&out);
    let headers: Vec<&str> = doc
        .lines()
        .filter(|l| l.starts_with("// ==== backend: "))
        .collect();
    let expected: Vec<String> = descend_backends::BACKEND_NAMES
        .iter()
        .map(|name| format!("// ==== backend: {name} ===="))
        .collect();
    assert_eq!(headers, expected, "{doc}");
}

/// `run --native` prints the final CPU buffers in exactly the simulated
/// `run`'s format, so the two outputs diff cleanly.
#[test]
fn run_and_run_native_print_identical_buffer_lines() {
    if descend_native::Toolchain::detect().is_none() {
        eprintln!("NOTICE: no host C compiler; skipping the native leg");
        return;
    }
    let path = repo_file("examples/descend/scale.descend");
    let sim = descendc(&["run", path.to_str().unwrap()]);
    assert_eq!(sim.status.code(), Some(0), "{}", stderr(&sim));
    let native = descendc(&["run", path.to_str().unwrap(), "--native"]);
    assert_eq!(native.status.code(), Some(0), "{}", stderr(&native));
    // The simulated run follows its buffers with per-launch statistics.
    let sim_out = stdout(&sim);
    let sim_buffers: Vec<&str> = sim_out
        .lines()
        .take_while(|l| !l.starts_with("launch "))
        .collect();
    assert!(!sim_buffers.is_empty(), "{sim_out}");
    assert_eq!(stdout(&native).lines().collect::<Vec<_>>(), sim_buffers);
}
