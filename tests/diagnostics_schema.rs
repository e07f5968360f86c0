//! Validates the `descendc check --json` document against the
//! checked-in JSON Schema (`schemas/diagnostics.schema.json`) for the
//! whole corpus: every failing example, every conformance program, and
//! every passing example (whose documents must be `ok: true` with an
//! empty diagnostics array). A `descendc serve` batch of failing
//! programs is validated the same way — the in-band `diagnostics`
//! objects of a compile-failure response are the same items the schema
//! describes.
//!
//! Reading and validation go through `tests/support` (the server's JSON
//! reader plus the one schema-subset validator), shared with
//! `tests/profile_schema.rs`.

mod support;

use descend::compiler::{server, Compiler};
use std::path::PathBuf;
use support::{parse, validate, Json};

fn repo_dir(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn descend_files(dir: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(repo_dir(dir))
        .unwrap_or_else(|_| panic!("missing {dir}"))
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "descend"))
        .collect();
    files.sort();
    files
}

fn schema() -> Json {
    let text =
        std::fs::read_to_string(repo_dir("schemas/diagnostics.schema.json")).expect("schema file");
    parse(&text)
}

/// Every failing program in the tree — the fail corpus and the
/// conformance suite — must produce a schema-valid document with
/// `ok: false` and at least one registry-coded diagnostic.
#[test]
fn failing_corpus_documents_match_schema() {
    let schema = schema();
    let compiler = Compiler::new();
    let mut validated = 0;
    for f in [
        descend_files("examples/descend/fail"),
        descend_files("conformance"),
    ]
    .concat()
    {
        let src = std::fs::read_to_string(&f).unwrap();
        let err = compiler
            .compile_source(&src)
            .map(|_| ())
            .expect_err("fail corpus must fail");
        let json = descend::diag::render_json(
            &f.display().to_string(),
            &src,
            std::slice::from_ref(err.diag.as_ref()),
        );
        let doc = parse(&json);
        validate(&schema, &doc, "$");
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)), "{f:?}");
        let Some(Json::Arr(diags)) = doc.get("diagnostics") else {
            panic!("{f:?}: diagnostics not an array");
        };
        assert!(!diags.is_empty(), "{f:?}: no diagnostics in failing doc");
        validated += 1;
    }
    assert!(validated >= 30, "only {validated} failing documents");
}

/// Every passing program's document is `ok: true` with an empty
/// diagnostics array — and still schema-valid.
#[test]
fn passing_corpus_documents_match_schema() {
    let schema = schema();
    let compiler = Compiler::new();
    let mut validated = 0;
    for f in descend_files("examples/descend") {
        let src = std::fs::read_to_string(&f).unwrap();
        compiler
            .compile_source(&src)
            .unwrap_or_else(|e| panic!("{f:?} must pass: {e}"));
        let json = descend::diag::render_json(&f.display().to_string(), &src, &[]);
        let doc = parse(&json);
        validate(&schema, &doc, "$");
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{f:?}");
        assert_eq!(doc.get("diagnostics"), Some(&Json::Arr(vec![])), "{f:?}");
        validated += 1;
    }
    assert!(validated >= 5, "only {validated} passing documents");
}

/// A `descendc serve` batch over the fail corpus: every response's
/// in-band `diagnostics` array must hold objects that validate against
/// the schema's diagnostic item subschema.
#[test]
fn serve_batch_errors_are_schema_valid_diagnostics() {
    let schema = schema();
    let item_schema = schema
        .get("properties")
        .and_then(|p| p.get("diagnostics"))
        .and_then(|d| d.get("items"))
        .expect("schema has a diagnostic item subschema")
        .clone();

    // One batch request holding every failing example.
    let fails = descend_files("examples/descend/fail");
    let requests: Vec<String> = fails
        .iter()
        .map(|f| {
            let src = std::fs::read_to_string(f).unwrap();
            format!(
                r#"{{"cmd":"check","src":"{}"}}"#,
                src.replace('\\', "\\\\")
                    .replace('"', "\\\"")
                    .replace('\n', "\\n")
            )
        })
        .collect();
    let batch = format!(r#"{{"cmd":"batch","requests":[{}]}}"#, requests.join(","));

    // The exact loop `descendc serve` runs, on an in-memory pipe.
    let input = format!("{batch}\n");
    let mut out = Vec::new();
    server::serve(input.as_bytes(), &mut out).expect("serve runs");
    let line = String::from_utf8(out).expect("utf8 response");
    let resp = parse(line.trim());
    let Some(Json::Arr(results)) = resp.get("results") else {
        panic!("batch response missing `results`: {line}");
    };
    assert_eq!(results.len(), fails.len());
    for (f, r) in fails.iter().zip(results) {
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{f:?} must fail");
        let Some(Json::Arr(diags)) = r.get("diagnostics") else {
            panic!("{f:?}: response has no diagnostics array: {r:?}");
        };
        assert!(!diags.is_empty(), "{f:?}: empty diagnostics");
        for (i, d) in diags.iter().enumerate() {
            validate(&item_schema, d, &format!("{}[{i}]", f.display()));
        }
    }
}

/// Every keyword the validator claims to handle actually rejects a
/// violation — guards against it rotting into a yes-machine.
#[test]
fn validator_rejects_broken_documents() {
    let schema = parse(
        r#"{"type": "object", "required": ["code"],
            "properties": {
                "code": {"type": ["string", "null"], "pattern": "^E[0-9]{4}$"},
                "version": {"const": 1},
                "n": {"type": "integer", "minimum": 0},
                "ratio": {"type": "number"},
                "pair": {"type": "array", "minItems": 2, "maxItems": 2,
                         "items": {"type": "string"}}},
            "additionalProperties": {"type": "boolean"}}"#,
    );
    for good in [
        r#"{"code": "E0104"}"#,
        r#"{"code": null, "version": 1, "n": 0, "ratio": 2, "pair": ["a", "b"], "x": true}"#,
    ] {
        validate(&schema, &parse(good), "$");
    }
    for (bad, what) in [
        (r#"[]"#, "type"),
        (r#"{}"#, "required"),
        (r#"{"code": 7}"#, "union type"),
        (r#"{"code": "X123"}"#, "pattern"),
        (r#"{"code": null, "version": 2}"#, "const"),
        (r#"{"code": null, "n": -1}"#, "minimum"),
        (r#"{"code": null, "n": 0.5}"#, "integer"),
        (r#"{"code": null, "pair": ["a"]}"#, "minItems"),
        (r#"{"code": null, "pair": ["a", "b", "c"]}"#, "maxItems"),
        (r#"{"code": null, "pair": ["a", 1]}"#, "items"),
        (r#"{"code": null, "x": "y"}"#, "additionalProperties"),
    ] {
        let doc = parse(bad);
        let rejected = std::panic::catch_unwind(|| validate(&schema, &doc, "$")).is_err();
        assert!(rejected, "{what} violation must fail: {bad}");
    }
}
