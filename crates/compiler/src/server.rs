//! `descendc serve` — a long-running compile server over stdin/stdout.
//!
//! The protocol is line-delimited JSON: one request object per input
//! line, one response object per output line, in request order. Requests
//! carry the program *source* (not a path), so editors and build daemons
//! can feed unsaved buffers:
//!
//! ```text
//! {"cmd":"check","src":"fn main() -[t: cpu.thread]-> () { }"}
//! {"cmd":"emit","src":"...","targets":["cuda","wgsl"]}
//! {"cmd":"profile","src":"...","fn":"main"}
//! {"cmd":"batch","requests":[{"cmd":"check","src":"..."}, ...]}
//! {"cmd":"stats"}
//! ```
//!
//! Responses always carry `"ok"`: `{"ok":true,...}` with
//! command-specific payload (`kernels`/`host_fns` for `check`,
//! `sources` for `emit`, `profile` — the `descend-profile/1` document —
//! for `profile`), or `{"ok":false,"error":"..."}` with the same
//! rendered diagnostic the CLI prints. Compile failures additionally
//! carry `"diagnostics"`: an array of structured diagnostics (stable
//! `code`, labelled `spans`, `help` notes) shaped like the
//! `descend-diagnostics/1` schema's `diagnostics[]` items, so clients
//! need not scrape the rendering. A malformed request line answers with
//! an error response; the server keeps serving.
//!
//! Sequential requests share one persistent [`CompileSession`], so an
//! edit-recheck loop re-runs only the queries whose inputs changed.
//! `batch` fans its requests out over the vendored [`workpool`] with a
//! fresh session per worker (results in request order) — the shape a
//! build daemon submitting a whole project wants. `stats` reports the
//! persistent session's cumulative query hit/miss counters.
//!
//! JSON parsing and serialization are hand-rolled here (no external
//! dependencies, like every artifact writer in this repo); the parser
//! accepts arbitrary JSON including `\uXXXX` escapes and surrogate
//! pairs.

use crate::profile;
use crate::{CompileSession, Compiled, QueryCounter};
use descend_diag::json_escape;
use gpu_sim::LaunchConfig;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, Write};

/// A JSON value. Objects preserve insertion order so serialization is
/// deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as f64, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value under `key`, when this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (single line, no spaces after separators).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => {
                out.push('"');
                out.push_str(&json_escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&json_escape(k));
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Parses one JSON document (surrounding whitespace allowed). Arrays
/// and objects may nest at most [`MAX_DEPTH`] deep.
///
/// # Errors
///
/// A message with the byte offset of the first syntax error.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// The deepest array/object nesting [`parse_json`] accepts. The parser
/// recurses once per level, so without a cap one request line of a few
/// hundred thousand `[` overflows the stack and takes the server — and
/// every client's warm session — down with it. No document this
/// repository reads or writes nests deeper than ten.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(open @ (b'[' | b'{')) => {
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: the low half must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err("unpaired surrogate".to_string());
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err("unpaired surrogate".to_string());
                                }
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid codepoint {code:#x}"))?,
                            );
                        }
                        other => return Err(format!("invalid escape `\\{}`", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 char (the input is a &str, so
                    // boundaries are valid by construction).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or("truncated \\u escape")?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape".to_string())?;
        self.pos = end;
        Ok(v)
    }
}

fn err_response(msg: impl Into<String>) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Str(msg.into())),
    ])
}

fn compile(session: &mut CompileSession, req: &Json) -> Result<Compiled, Json> {
    let src = req
        .get("src")
        .and_then(Json::as_str)
        .ok_or_else(|| err_response("request needs a string `src` field"))?;
    session.compile_source(src).map_err(|e| {
        // Alongside the legacy rendered `error` string, ship the
        // structured diagnostic (code, spans, help) so clients need not
        // scrape the human rendering. One object per the
        // `descend-diagnostics/1` schema's `diagnostics[]` items.
        let diag = parse_json(&e.diag.to_json(src)).expect("diagnostic JSON is well-formed");
        Json::Obj(vec![
            ("ok".into(), Json::Bool(false)),
            ("error".into(), Json::Str(e.rendered.trim_end().into())),
            ("diagnostics".into(), Json::Arr(vec![diag])),
        ])
    })
}

/// Handles one non-batch request against a session, producing the
/// response object.
fn handle_single(session: &mut CompileSession, req: &Json) -> Json {
    let Some(cmd) = req.get("cmd").and_then(Json::as_str) else {
        return err_response("request needs a string `cmd` field");
    };
    match cmd {
        "check" => match compile(session, req) {
            Ok(c) => Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("kernels".into(), Json::Num(c.kernels.len() as f64)),
                (
                    "host_fns".into(),
                    Json::Num(c.checked.host_fns.len() as f64),
                ),
            ]),
            Err(e) => e,
        },
        "emit" => {
            let targets: Vec<String> = match req.get("targets").and_then(Json::as_arr) {
                Some(items) => {
                    let mut names = Vec::new();
                    for t in items {
                        match t.as_str() {
                            Some(s) => names.push(s.to_string()),
                            None => return err_response("`targets` must be an array of strings"),
                        }
                    }
                    names
                }
                None => session.backends().to_vec(),
            };
            for t in &targets {
                if !session.backends().iter().any(|b| b == t) {
                    return err_response(format!("unknown backend `{t}`"));
                }
            }
            match compile(session, req) {
                Ok(c) => {
                    let sources = targets
                        .iter()
                        .map(|t| {
                            let text = c.target_source(t).expect("targets validated above");
                            (t.clone(), Json::Str(text.to_string()))
                        })
                        .collect();
                    Json::Obj(vec![
                        ("ok".into(), Json::Bool(true)),
                        ("sources".into(), Json::Obj(sources)),
                    ])
                }
                Err(e) => e,
            }
        }
        "profile" => {
            let host_fn = req
                .get("fn")
                .and_then(Json::as_str)
                .unwrap_or("main")
                .to_string();
            let file = req.get("file").and_then(Json::as_str).unwrap_or("<serve>");
            let src = match req.get("src").and_then(Json::as_str) {
                Some(s) => s.to_string(),
                None => return err_response("request needs a string `src` field"),
            };
            let compiled = match compile(session, req) {
                Ok(c) => c,
                Err(e) => return e,
            };
            let cfg = LaunchConfig {
                detect_races: true,
                ..LaunchConfig::default()
            };
            match compiled.run_host_traced(&host_fn, &HashMap::new(), &cfg) {
                Ok((run, traces)) => {
                    let profiles = profile::profile_launches(&src, &run.launches, &traces);
                    let doc = profile::render_json(file, &host_fn, &profiles);
                    let value = parse_json(&doc)
                        .expect("render_json emits valid JSON (schema-checked in CI)");
                    Json::Obj(vec![
                        ("ok".into(), Json::Bool(true)),
                        ("profile".into(), value),
                    ])
                }
                Err(e) => err_response(format!("runtime error: {e}")),
            }
        }
        "stats" => Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("stats".into(), stats_json(session)),
        ]),
        "batch" => err_response("`batch` cannot nest"),
        other => err_response(format!(
            "unknown cmd `{other}` (use check, emit, profile, batch, stats)"
        )),
    }
}

fn stats_json(session: &CompileSession) -> Json {
    let s = session.stats();
    let counter = |c: QueryCounter| {
        Json::Obj(vec![
            ("hits".into(), Json::Num(c.hits as f64)),
            ("misses".into(), Json::Num(c.misses as f64)),
        ])
    };
    Json::Obj(vec![
        ("parse".into(), counter(s.parse)),
        ("typeck".into(), counter(s.typeck)),
        ("lower".into(), counter(s.lower)),
        ("emit".into(), counter(s.emit)),
        ("emit_program".into(), counter(s.emit_program)),
    ])
}

/// Handles one request line (any form, including `batch`).
fn handle_request(session: &mut CompileSession, line: &str) -> Json {
    let req = match parse_json(line) {
        Ok(v) => v,
        Err(e) => return err_response(format!("malformed request: {e}")),
    };
    if req.get("cmd").and_then(Json::as_str) == Some("batch") {
        let Some(requests) = req.get("requests").and_then(Json::as_arr) else {
            return err_response("`batch` needs a `requests` array");
        };
        // Fan out over the workpool with a fresh session per worker;
        // results come back in request order. The batch does not warm
        // the persistent session (worker sessions are dropped), but
        // requests within the batch share each worker's caches.
        let pool = workpool::Pool::new(workpool::Pool::available_workers());
        let results = pool.run_with(requests.len(), CompileSession::new, |worker_session, i| {
            handle_single(worker_session, &requests[i])
        });
        return Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("results".into(), Json::Arr(results)),
        ]);
    }
    handle_single(session, &req)
}

/// Runs the serve loop: reads request lines from `input` until EOF,
/// writing one response line per request to `output`. Blank lines are
/// skipped. The persistent session serving sequential requests lives
/// for the whole loop.
///
/// # Errors
///
/// Only I/O errors on the transport; every protocol-level problem is
/// reported in-band as an `{"ok":false,...}` response.
pub fn serve(input: impl BufRead, mut output: impl Write) -> std::io::Result<()> {
    let mut session = CompileSession::new();
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let response = handle_request(&mut session, &line);
        writeln!(output, "{}", response.to_string_compact())?;
        output.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK_SRC: &str = r#"
        fn scale(v: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<2>, X<32>>]-> () {
            sched(X) block in grid {
                sched(X) thread in block {
                    (*v).group::<32>[[block]][[thread]] =
                        (*v).group::<32>[[block]][[thread]] * 3.0;
                }
            }
        }

        fn main() -[t: cpu.thread]-> () {
            let h = alloc::<cpu.mem, [f64; 64]>();
            let d = gpu_alloc_copy(&h);
            scale<<<X<2>, X<32>>>>(&uniq d);
            copy_mem_to_host(&uniq h, &d);
        }
    "#;

    fn roundtrip(text: &str) -> String {
        parse_json(text).expect("parses").to_string_compact()
    }

    #[test]
    fn json_roundtrips() {
        assert_eq!(roundtrip("null"), "null");
        assert_eq!(roundtrip("[1, 2.5, -3]"), "[1,2.5,-3]");
        assert_eq!(
            roundtrip(r#"{"a": true, "b": [false, null]}"#),
            r#"{"a":true,"b":[false,null]}"#
        );
        assert_eq!(roundtrip(r#""a\nb\u0041\ud83d\ude00""#), "\"a\\nbA😀\"");
        assert_eq!(roundtrip("{ }"), "{}");
        assert_eq!(roundtrip("[ ]"), "[]");
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(parse_json("").is_err());
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("nul").is_err());
        assert!(parse_json("{} {}").is_err());
        assert!(parse_json("\"\\q\"").is_err());
    }

    /// A high surrogate must be followed by a *low* one: `\ud800\u0041`
    /// used to underflow `lo - 0xDC00` (panic in debug builds, U+2441 in
    /// release).
    #[test]
    fn json_rejects_a_high_surrogate_without_a_low_one() {
        for bad in [
            r#""\ud800\u0041""#,
            r#""\ud800\ud800""#,
            r#""\ud800x""#,
            r#""\ud800""#,
        ] {
            assert_eq!(
                parse_json(bad),
                Err("unpaired surrogate".to_string()),
                "{bad}"
            );
        }
        assert_eq!(
            parse_json(r#""\udbff\udfff""#),
            Ok(Json::Str("\u{10ffff}".into()))
        );
    }

    #[test]
    fn json_nesting_is_capped() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_json(&nest(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse_json(&nest(MAX_DEPTH + 1)),
            Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}"
            ))
        );
        // Mixed containers count together, and unclosed input that would
        // have recursed a few hundred thousand frames is an error, not a
        // stack overflow.
        let mixed = "{\"a\":[".repeat(MAX_DEPTH);
        assert!(parse_json(&mixed)
            .unwrap_err()
            .starts_with("nesting deeper"));
        assert!(parse_json(&"[".repeat(400_000))
            .unwrap_err()
            .starts_with("nesting deeper"));
        // Siblings do not accumulate depth.
        let wide = format!("[{}]", vec![nest(MAX_DEPTH - 1); 3].join(","));
        assert!(parse_json(&wide).is_ok());
    }

    fn request(session: &mut CompileSession, line: &str) -> Json {
        handle_request(session, line)
    }

    #[test]
    fn check_and_emit_respond() {
        let mut s = CompileSession::new();
        let req = Json::Obj(vec![
            ("cmd".into(), Json::Str("check".into())),
            ("src".into(), Json::Str(OK_SRC.into())),
        ]);
        let resp = request(&mut s, &req.to_string_compact());
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(resp.get("kernels"), Some(&Json::Num(1.0)));
        assert_eq!(resp.get("host_fns"), Some(&Json::Num(1.0)));

        let req = Json::Obj(vec![
            ("cmd".into(), Json::Str("emit".into())),
            ("src".into(), Json::Str(OK_SRC.into())),
            ("targets".into(), Json::Arr(vec![Json::Str("cuda".into())])),
        ]);
        let resp = request(&mut s, &req.to_string_compact());
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        let cuda = resp
            .get("sources")
            .and_then(|s| s.get("cuda"))
            .and_then(Json::as_str)
            .expect("cuda source");
        assert!(cuda.contains("__global__"), "{cuda}");

        // The emit served typeck from the check's cache.
        assert_eq!(s.stats().typeck.hits, 2);
    }

    #[test]
    fn errors_are_in_band() {
        let mut s = CompileSession::new();
        let resp = request(&mut s, "not json at all");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        let resp = request(&mut s, r#"{"cmd":"frobnicate"}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        let resp = request(&mut s, r#"{"cmd":"check","src":"fn"}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert!(
            resp.get("error")
                .and_then(Json::as_str)
                .is_some_and(|e| e.contains("syntax error")),
            "{resp:?}"
        );
        // Compile failures also ship the structured diagnostic.
        let diags = resp
            .get("diagnostics")
            .and_then(Json::as_arr)
            .expect("diagnostics array");
        assert_eq!(diags.len(), 1);
        assert_eq!(
            diags[0].get("code"),
            Some(&Json::Str("E0002".into())),
            "{resp:?}"
        );
        assert!(diags[0].get("spans").and_then(Json::as_arr).is_some());
        // Protocol errors (not compile errors) have no diagnostics.
        let resp = request(&mut s, r#"{"cmd":"frobnicate"}"#);
        assert!(resp.get("diagnostics").is_none());
    }

    #[test]
    fn batch_preserves_order() {
        let mut s = CompileSession::new();
        let bad = Json::Obj(vec![
            ("cmd".into(), Json::Str("check".into())),
            ("src".into(), Json::Str("fn ???".into())),
        ]);
        let good = Json::Obj(vec![
            ("cmd".into(), Json::Str("check".into())),
            ("src".into(), Json::Str(OK_SRC.into())),
        ]);
        let req = Json::Obj(vec![
            ("cmd".into(), Json::Str("batch".into())),
            ("requests".into(), Json::Arr(vec![bad, good])),
        ]);
        let resp = request(&mut s, &req.to_string_compact());
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        let results = resp.get("results").and_then(Json::as_arr).expect("results");
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].get("ok"), Some(&Json::Bool(false)));
        assert_eq!(results[1].get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn serve_loop_round_trips() {
        let req = Json::Obj(vec![
            ("cmd".into(), Json::Str("check".into())),
            ("src".into(), Json::Str(OK_SRC.into())),
        ]);
        let input = format!("{}\n\n{}\n", req.to_string_compact(), r#"{"cmd":"stats"}"#);
        let mut out = Vec::new();
        serve(input.as_bytes(), &mut out).expect("io");
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2, "blank line skipped");
        let check = parse_json(lines[0]).unwrap();
        assert_eq!(check.get("ok"), Some(&Json::Bool(true)));
        let stats = parse_json(lines[1]).unwrap();
        let typeck = stats.get("stats").and_then(|s| s.get("typeck")).unwrap();
        assert_eq!(typeck.get("misses"), Some(&Json::Num(2.0)));
    }

    /// Hostile request lines are answered in band and the connection —
    /// with its warm session — keeps serving.
    #[test]
    fn serve_survives_hostile_lines() {
        let check = Json::Obj(vec![
            ("cmd".into(), Json::Str("check".into())),
            ("src".into(), Json::Str(OK_SRC.into())),
        ])
        .to_string_compact();
        let input = format!(
            "{check}\n{}\n{}\n{check}\n",
            "[".repeat(400_000),
            r#"{"cmd":"check","src":"\ud800\u0041"}"#
        );
        let mut out = Vec::new();
        serve(input.as_bytes(), &mut out).expect("io");
        let lines: Vec<Json> = std::str::from_utf8(&out)
            .unwrap()
            .lines()
            .map(|l| parse_json(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 4);
        let error = |v: &Json| v.get("error").and_then(Json::as_str).map(str::to_string);
        assert_eq!(lines[0].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            error(&lines[1]),
            Some(format!(
                "malformed request: nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}"
            ))
        );
        assert_eq!(
            error(&lines[2]),
            Some("malformed request: unpaired surrogate".to_string())
        );
        assert_eq!(lines[3].get("ok"), Some(&Json::Bool(true)));
    }
}
