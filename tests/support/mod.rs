//! Shared by the schema tests: the repository's one JSON reader
//! (`descend::compiler::server::parse_json`) and a validator for the
//! JSON Schema subset the checked-in schemas use — `type` (including
//! union lists), `const`, `pattern`, `minimum`, `required`,
//! `properties`, `additionalProperties`, `items`, `minItems`,
//! `maxItems`. Validation is driven by the schema *file*, not a
//! hard-coded mirror — editing a schema changes what the tests enforce.
//! The Python validators in CI are the independent outside check.

pub use descend::compiler::server::Json;

/// Parses a document the test itself produced or read from the tree.
pub fn parse(text: &str) -> Json {
    descend::compiler::server::parse_json(text).unwrap_or_else(|e| panic!("invalid JSON: {e}"))
}

fn type_name(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "boolean",
        Json::Num(n) if n.fract() == 0.0 => "integer",
        Json::Num(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    }
}

/// The one regular expression the schemas use. A general engine is not
/// warranted in a test validator; any new pattern in a schema must be
/// taught here explicitly (the panic below enforces that).
fn matches_pattern(pattern: &str, s: &str) -> bool {
    match pattern {
        "^E[0-9]{4}$" => {
            s.len() == 5 && s.starts_with('E') && s[1..].chars().all(|c| c.is_ascii_digit())
        }
        other => panic!("validator does not know pattern `{other}`; teach it here"),
    }
}

/// Validates `doc` against `schema`; panics with a path on the first
/// violation.
pub fn validate(schema: &Json, doc: &Json, path: &str) {
    // An integer is also a valid "number".
    let is = |want: &Json| {
        want.as_str()
            .is_some_and(|w| w == type_name(doc) || (w == "number" && type_name(doc) == "integer"))
    };
    match schema.get("type") {
        Some(want @ Json::Str(_)) => {
            assert!(
                is(want),
                "{path}: expected type {want:?}, got {}",
                type_name(doc)
            );
        }
        // Union types: the document may be any of the listed types.
        Some(Json::Arr(wants)) => {
            let got = type_name(doc);
            assert!(
                wants.iter().any(is),
                "{path}: type {got} not in union {wants:?}"
            );
        }
        _ => {}
    }
    if let Some(want) = schema.get("const") {
        assert_eq!(doc, want, "{path}: const mismatch");
    }
    if let (Some(Json::Str(pattern)), Json::Str(s)) = (schema.get("pattern"), doc) {
        assert!(
            matches_pattern(pattern, s),
            "{path}: `{s}` does not match pattern `{pattern}`"
        );
    }
    if let (Some(Json::Num(min)), Json::Num(n)) = (schema.get("minimum"), doc) {
        assert!(n >= min, "{path}: {n} below minimum {min}");
    }
    if let Some(Json::Arr(required)) = schema.get("required") {
        for key in required.iter().filter_map(Json::as_str) {
            assert!(doc.get(key).is_some(), "{path}: missing required `{key}`");
        }
    }
    if let Json::Obj(fields) = doc {
        let props = schema.get("properties");
        let additional = schema.get("additionalProperties");
        for (key, value) in fields {
            if let Some(sub) = props.and_then(|p| p.get(key)).or(additional) {
                validate(sub, value, &format!("{path}.{key}"));
            }
        }
    }
    if let Json::Arr(items) = doc {
        if let Some(Json::Num(min)) = schema.get("minItems") {
            assert!(
                items.len() as f64 >= *min,
                "{path}: {} items below minItems {min}",
                items.len()
            );
        }
        if let Some(Json::Num(max)) = schema.get("maxItems") {
            assert!(
                items.len() as f64 <= *max,
                "{path}: {} items above maxItems {max}",
                items.len()
            );
        }
        if let Some(item_schema) = schema.get("items") {
            for (i, item) in items.iter().enumerate() {
                validate(item_schema, item, &format!("{path}[{i}]"));
            }
        }
    }
}
