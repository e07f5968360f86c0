//! Doc-coverage: the language reference must mention every corpus
//! program and every view form, so `docs/LANGUAGE.md` cannot drift from
//! `examples/descend/` or from `descend_places::ViewStep`; and every
//! documented `cargo run -p … --bin …` command must name a real binary.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

fn repo_file(rel: &str) -> String {
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("cannot read {p:?}: {e}"))
}

fn corpus_file_names(rel: &str) -> Vec<String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel);
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {dir:?}: {e}"))
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "descend"))
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// Every `.descend` program (pass and fail corpus) is mentioned by file
/// name in the language reference.
#[test]
fn every_corpus_program_is_documented() {
    let md = repo_file("docs/LANGUAGE.md");
    let mut missing = Vec::new();
    for name in corpus_file_names("examples/descend")
        .into_iter()
        .chain(corpus_file_names("examples/descend/fail"))
    {
        if !md.contains(&name) {
            missing.push(name);
        }
    }
    assert!(
        missing.is_empty(),
        "docs/LANGUAGE.md does not mention these corpus programs: {missing:?}\n\
         add them to the corpus index so the reference tracks the corpus"
    );
}

/// Every view form of `descend_places::ViewStep` is documented. The
/// spellings here are the surface names of the seven forms; the
/// exhaustive match keeps this list in lock-step with the enum — adding
/// a variant without documenting it fails to compile, and the assertion
/// catches a missing reference entry.
#[test]
fn every_view_step_form_is_documented() {
    use descend::places::ViewStep;
    let surface_name = |v: &ViewStep| -> &'static str {
        match v {
            ViewStep::Group { .. } => "group::<",
            ViewStep::Transpose => "transpose",
            ViewStep::Reverse { .. } => "rev",
            ViewStep::SplitAt { .. } | ViewStep::SplitPart { .. } => "split::<",
            ViewStep::Map(_) => "map(",
            ViewStep::Windows { .. } => "windows::<",
            ViewStep::Zip => "zip(",
        }
    };
    use descend::ast::Nat;
    use descend::exec::Side;
    let all_forms = [
        ViewStep::Group { k: Nat::lit(2) },
        ViewStep::Transpose,
        ViewStep::Reverse { n: Nat::lit(2) },
        ViewStep::SplitAt { pos: Nat::lit(1) },
        ViewStep::SplitPart {
            pos: Nat::lit(1),
            side: Side::Fst,
        },
        ViewStep::Map(vec![]),
        ViewStep::Windows {
            w: Nat::lit(2),
            s: Nat::lit(1),
        },
        ViewStep::Zip,
    ];
    let md = repo_file("docs/LANGUAGE.md");
    for form in &all_forms {
        let name = surface_name(form);
        assert!(
            md.contains(name),
            "docs/LANGUAGE.md does not document the `{name}` view form"
        );
    }
}

/// The error-code index covers the entire registry: every code of
/// every `ErrorKind` (plus the lexer/parser/lowering codes — i.e. the
/// whole registry) appears in `docs/DIAGNOSTICS.md` with its title, and
/// the index is linked from the README and the architecture document.
/// Adding an `ErrorKind` or registry entry without documenting it fails
/// here.
#[test]
fn every_error_code_is_documented() {
    let md = repo_file("docs/DIAGNOSTICS.md");
    use descend::typeck::ErrorKind;
    for kind in ErrorKind::ALL {
        assert!(
            md.contains(kind.code()),
            "docs/DIAGNOSTICS.md does not mention {} ({kind:?})",
            kind.code()
        );
    }
    for info in descend::diag::registry::REGISTRY {
        assert!(
            md.contains(info.code),
            "docs/DIAGNOSTICS.md does not mention {}",
            info.code
        );
        assert!(
            md.contains(info.title),
            "docs/DIAGNOSTICS.md does not carry the `{}` title `{}`",
            info.code,
            info.title
        );
    }
    assert!(
        repo_file("README.md").contains("docs/DIAGNOSTICS.md"),
        "README must link docs/DIAGNOSTICS.md"
    );
    assert!(
        repo_file("docs/ARCHITECTURE.md").contains("DIAGNOSTICS.md"),
        "docs/ARCHITECTURE.md must link DIAGNOSTICS.md"
    );
}

/// Every workspace package, mapped to its binaries: `[[bin]]` targets
/// and auto-discovered `src/bin/*.rs`.
fn workspace_binaries() -> BTreeMap<String, BTreeSet<String>> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let manifest = repo_file("Cargo.toml");
    let members = manifest
        .split_once("\nmembers = [")
        .and_then(|(_, rest)| rest.split_once(']'))
        .expect("root Cargo.toml lists workspace members")
        .0;
    let mut packages = BTreeMap::new();
    for member in members.split(',').map(|m| m.trim().trim_matches('"')) {
        if member.is_empty() {
            continue;
        }
        let (mut section, mut package, mut bins) = (String::new(), None, BTreeSet::new());
        for line in repo_file(&format!("{member}/Cargo.toml")).lines() {
            let line = line.trim();
            if line.starts_with('[') {
                section = line.to_string();
            } else if let Some(name) = line.strip_prefix("name = ") {
                let name = name.trim_matches('"').to_string();
                match section.as_str() {
                    "[package]" => package = Some(name),
                    "[[bin]]" => {
                        bins.insert(name);
                    }
                    _ => {}
                }
            }
        }
        let package = package.unwrap_or_else(|| panic!("{member}/Cargo.toml has no package name"));
        if let Ok(entries) = std::fs::read_dir(root.join(member).join("src/bin")) {
            for p in entries.filter_map(|e| e.ok()).map(|e| e.path()) {
                if p.extension().is_some_and(|x| x == "rs") {
                    bins.insert(p.file_stem().unwrap().to_string_lossy().into_owned());
                }
            }
        }
        packages.insert(package, bins);
    }
    packages
}

/// Every `cargo run … -p <pkg> … --bin <bin>` command in the README, the
/// documents under `docs/` and the verify skill names a workspace
/// package and one of its binaries, so a moved or deleted binary cannot
/// leave a stale command behind.
#[test]
fn documented_cargo_run_commands_name_real_binaries() {
    let packages = workspace_binaries();
    let mut docs = vec![
        "README.md".to_string(),
        ".claude/skills/verify/SKILL.md".to_string(),
    ];
    docs.extend(
        std::fs::read_dir(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("docs"))
            .expect("docs/ exists")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".md"))
            .map(|name| format!("docs/{name}")),
    );
    let mut checked = 0;
    for doc in &docs {
        for line in repo_file(doc).lines() {
            let Some(at) = line.find("cargo run") else {
                continue;
            };
            // Cargo's own arguments end at `--`; the rest is the program's.
            let words: Vec<&str> = line[at..]
                .split_whitespace()
                .take_while(|w| *w != "--")
                .map(|w| w.trim_matches('`'))
                .collect();
            let arg = |flag: &str| words.windows(2).find(|w| w[0] == flag).map(|w| w[1]);
            let Some(package) = arg("-p") else {
                continue;
            };
            let bins = packages.get(package).unwrap_or_else(|| {
                panic!(
                    "{doc}: `{}` names `{package}`, not a workspace package",
                    line.trim()
                )
            });
            if let Some(bin) = arg("--bin") {
                assert!(
                    bins.contains(bin),
                    "{doc}: `{}` names binary `{bin}`, which `{package}` does not have \
                     (it has {bins:?})",
                    line.trim()
                );
            }
            checked += 1;
        }
    }
    assert!(checked > 0, "no `cargo run -p` command found in {docs:?}");
}

/// The architecture document links the consolidated design notes, and
/// the design notes cover the divergences they promise.
#[test]
fn design_notes_are_linked_and_complete() {
    assert!(
        repo_file("README.md").contains("docs/DESIGN.md"),
        "README must link docs/DESIGN.md"
    );
    assert!(
        repo_file("docs/ARCHITECTURE.md").contains("DESIGN.md"),
        "docs/ARCHITECTURE.md must link DESIGN.md"
    );
    let design = repo_file("docs/DESIGN.md");
    for topic in [
        "Atomic",
        "DYN_IDX",
        "WARP_SIZE = 32",
        "CAS",
        "windows_overlap",
        "zip",
    ] {
        assert!(design.contains(topic), "DESIGN.md must cover `{topic}`");
    }
}
