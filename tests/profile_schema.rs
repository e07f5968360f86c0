//! Validates the `descendc profile --json` document for every
//! pass-corpus program against the checked-in JSON Schema
//! (`schemas/profile.schema.json`), through the shared reader and
//! schema-subset validator in `tests/support`.

mod support;

use descend::compiler::{profile, Compiler};
use descend::sim::LaunchConfig;
use std::collections::HashMap;
use std::path::PathBuf;
use support::{parse, validate};

fn pass_corpus() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/descend");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("corpus dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "descend"))
        .collect();
    files.sort();
    files
}

#[test]
fn profile_json_matches_schema_for_whole_corpus() {
    let schema_text = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("schemas/profile.schema.json"),
    )
    .expect("schema file");
    let schema = parse(&schema_text);
    let compiler = Compiler::new();
    let cfg = LaunchConfig {
        detect_races: true,
        ..LaunchConfig::default()
    };
    let mut validated = 0;
    for f in pass_corpus() {
        let src = std::fs::read_to_string(&f).unwrap();
        let compiled = compiler.compile_source(&src).unwrap();
        if compiled.checked.host_fn("main").is_none() {
            continue;
        }
        let (run, traces) = compiled
            .run_host_traced("main", &HashMap::new(), &cfg)
            .unwrap_or_else(|e| panic!("{f:?} failed to run: {e}"));
        let profiles = profile::profile_launches(&src, &run.launches, &traces);
        let json = profile::render_json(&f.display().to_string(), "main", &profiles);
        let doc = parse(&json);
        validate(&schema, &doc, "$");
        validated += 1;
    }
    assert!(validated >= 5, "corpus should exercise several programs");
}
