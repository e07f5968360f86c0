//! The launch-trace observability layer is deterministic by
//! construction: over the whole pass corpus, the recorded traces (and
//! therefore the Chrome-trace export) are byte-identical across the
//! warp-vectorized and reference executors and across workpool thread
//! counts, the reconstructed totals equal the simulator's `LaunchStats`
//! field for field, and recording a trace never changes the stats.

use descend::compiler::Compiler;
use descend::sim::trace::chrome_trace;
use descend::sim::{ExecMode, LaunchConfig};
use std::collections::HashMap;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/descend")
}

fn pass_corpus() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("corpus dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "descend"))
        .collect();
    files.sort();
    files
}

/// Launch configs the trace must be invariant across: warp executor at
/// 1, 2 and 8 workers, plus the lane-stepping reference interpreter.
fn configs() -> Vec<(String, LaunchConfig)> {
    let mut cfgs = Vec::new();
    for workers in [1usize, 2, 8] {
        cfgs.push((
            format!("warp/{workers}"),
            LaunchConfig {
                exec: ExecMode::Warp,
                workers: Some(workers),
                detect_races: true,
                ..LaunchConfig::default()
            },
        ));
    }
    cfgs.push((
        "reference".into(),
        LaunchConfig {
            exec: ExecMode::Reference,
            detect_races: true,
            ..LaunchConfig::default()
        },
    ));
    cfgs
}

#[test]
fn traces_identical_across_modes_and_thread_counts() {
    let compiler = Compiler::new();
    let mut checked = 0;
    for f in pass_corpus() {
        let src = std::fs::read_to_string(&f).unwrap();
        let compiled = compiler
            .compile_source(&src)
            .unwrap_or_else(|e| panic!("{f:?} failed to compile:\n{e}"));
        if compiled.checked.host_fn("main").is_none() {
            continue;
        }
        let mut golden: Option<String> = None;
        for (name, cfg) in configs() {
            let (_, traces) = compiled
                .run_host_traced("main", &HashMap::new(), &cfg)
                .unwrap_or_else(|e| panic!("{f:?} [{name}] failed to run: {e}"));
            // Deterministic export: wall-clock worker spans excluded.
            let rendered = chrome_trace(&traces, false);
            match &golden {
                None => golden = Some(rendered),
                Some(g) => assert_eq!(
                    g, &rendered,
                    "{f:?}: chrome trace differs under {name} vs warp/1"
                ),
            }
        }
        checked += 1;
    }
    assert!(checked >= 5, "corpus should exercise several programs");
}

#[test]
fn trace_totals_equal_launch_stats() {
    let compiler = Compiler::new();
    let cfg = LaunchConfig {
        detect_races: true,
        ..LaunchConfig::default()
    };
    let mut launches_checked = 0;
    for f in pass_corpus() {
        let src = std::fs::read_to_string(&f).unwrap();
        let compiled = compiler.compile_source(&src).unwrap();
        if compiled.checked.host_fn("main").is_none() {
            continue;
        }
        let (run, traces) = compiled
            .run_host_traced("main", &HashMap::new(), &cfg)
            .unwrap_or_else(|e| panic!("{f:?} failed to run: {e}"));
        assert_eq!(
            run.launches.len(),
            traces.len(),
            "{f:?}: one trace per launch"
        );
        for (stats, trace) in run.launches.iter().zip(&traces) {
            let t = trace.totals();
            assert_eq!(t.cycles, stats.cycles, "{f:?}: cycles");
            assert_eq!(
                t.global_transactions, stats.global_transactions,
                "{f:?}: global transactions"
            );
            assert_eq!(
                t.global_accesses, stats.global_accesses,
                "{f:?}: global accesses"
            );
            assert_eq!(
                t.shared_replays, stats.shared_replays,
                "{f:?}: shared replays"
            );
            assert_eq!(
                t.shared_accesses, stats.shared_accesses,
                "{f:?}: shared accesses"
            );
            assert_eq!(t.instructions, stats.instructions, "{f:?}: instructions");
            assert_eq!(t.barriers, stats.barriers, "{f:?}: barriers");
            assert_eq!(
                t.atomic_accesses, stats.atomic_accesses,
                "{f:?}: atomic accesses"
            );
            assert_eq!(
                t.atomic_serializations, stats.atomic_serializations,
                "{f:?}: atomic serializations"
            );
            assert_eq!(t.shuffles, stats.shuffles, "{f:?}: shuffles");
            assert_eq!(t.blocks, stats.blocks, "{f:?}: blocks");
            // The ranked profile conserves cost: per-span rows sum to
            // the total work (sum of per-block cycles) and per-span
            // transactions sum to the launch's transaction count.
            let rows = trace.profile_rows();
            let cycle_sum: u64 = rows.iter().map(|r| r.cycles).sum();
            assert_eq!(cycle_sum, t.work_cycles, "{f:?}: profile cycles conserve");
            let txn_sum: u64 = rows.iter().map(|r| r.transactions).sum();
            assert_eq!(
                txn_sum, stats.global_transactions,
                "{f:?}: profile transactions conserve"
            );
            launches_checked += 1;
        }
    }
    assert!(
        launches_checked >= 5,
        "corpus should exercise several launches"
    );
}

#[test]
fn tracing_never_changes_stats() {
    let compiler = Compiler::new();
    let cfg = LaunchConfig {
        detect_races: true,
        ..LaunchConfig::default()
    };
    for f in pass_corpus() {
        let src = std::fs::read_to_string(&f).unwrap();
        let compiled = compiler.compile_source(&src).unwrap();
        if compiled.checked.host_fn("main").is_none() {
            continue;
        }
        let plain = compiled.run_host("main", &HashMap::new(), &cfg).unwrap();
        let (traced, _) = compiled
            .run_host_traced("main", &HashMap::new(), &cfg)
            .unwrap();
        assert_eq!(
            plain.launches, traced.launches,
            "{f:?}: stats drift under tracing"
        );
        for (name, buf) in &plain.cpu {
            assert_eq!(buf, &traced.cpu[name], "{f:?}: results drift under tracing");
        }
    }
}
