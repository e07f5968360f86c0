//! `serve_edit`: request lines through `descend::compiler::server::serve`,
//! one client, the next request sent when the reply has arrived. The
//! front end used the other way round from `compile_cold`: cache hits,
//! span rebasing and JSON instead of cold misses.
//!
//! A pass is one server session of 850 requests against a fresh
//! `CompileSession`, so passes are alike and the session's caches (which
//! never evict) stay bounded whatever `--seconds` is.

use crate::alloc;
use crate::corpus::{pass_programs, reject_programs, Reject};
use crate::harness::{passes_for, put, Metrics, OpRecord, Workload};
use crate::spans::Spans;
use crate::util::{percentile, Rng};
use descend::ast::term::Item;
use descend::ast::ty::ExecTy;
use descend::compiler::server::{parse_json, serve, Json};
use descend::compiler::Compiler;
use descend::{diag, parser, typeck};
use std::io::{BufRead, Read, Write};
use std::time::Instant;

/// How a corpus-pass program is edited before it is sent again.
#[derive(Clone, Copy)]
enum Edit {
    /// The text as it stands: every query hits.
    Touch,
    /// A blank line before the first item: every function moves, none
    /// changes.
    Shift,
    /// The number in one kernel's `// rev N` comment changes: that
    /// function's queries miss, the others hit.
    Body,
}

/// Per session and per corpus-pass program: (edit, `check` requests,
/// `emit` requests). With every corpus-reject program sent three times
/// (`break`: twice `check`, once `emit`) and `STATS` `stats` requests, a
/// session is 850 requests: touch 28 %, shift 25 %, body 28 %, break
/// 14 %, stats 5 %; check 69 %, emit 26 %.
const MIX: [(Edit, usize, usize); 3] = [
    (Edit::Touch, 12, 4),
    (Edit::Shift, 10, 4),
    (Edit::Body, 12, 4),
];
const STATS: usize = 42;
/// One `emit` reply in this many is compared with a cold compile.
const SAMPLE: usize = 50;

/// A corpus-pass program under edit: `shift` grows `newlines`, `body`
/// rewrites the number in a `// rev N` comment inside its first kernel.
#[derive(Clone)]
struct Slot {
    newlines: usize,
    head: String,
    rev: u64,
    tail: String,
}

impl Slot {
    /// Splits `src` before the closing brace of its first GPU function.
    fn new(src: &str) -> Result<Slot, String> {
        let ast = parser::parse(src).map_err(|e| e.to_string())?;
        let end = ast
            .items
            .iter()
            .find_map(|item| match item {
                Item::Fn(f) if matches!(f.sig.exec_ty, ExecTy::GpuGrid(..)) => {
                    Some(f.span.end as usize)
                }
                _ => None,
            })
            .ok_or("no GPU function")?;
        let brace = src[..end].rfind('}').ok_or("GPU function without a body")?;
        Ok(Slot {
            newlines: 0,
            head: src[..brace].to_string(),
            rev: 0,
            tail: src[brace..].to_string(),
        })
    }

    fn text(&self) -> String {
        format!(
            "{}{}// rev {}\n{}",
            "\n".repeat(self.newlines),
            self.head,
            self.rev,
            self.tail
        )
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Cmd {
    Check,
    Emit,
    Stats,
}

struct Request {
    /// The request line, newline included.
    line: String,
    cmd: Cmd,
    /// Index into pass programs, then rejects; `None` for `stats`.
    program: Option<usize>,
    /// For a sampled `emit`, the program text the reply must match.
    sample: Option<String>,
}

/// The client's sending half: hands `serve` one line at a time and
/// notes when (and at what allocation count) each line went out.
struct Sender<'a> {
    requests: &'a [Request],
    current: usize,
    pos: usize,
    sent: Vec<(Instant, u64)>,
}

impl Read for Sender<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Sender<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.sent.len() == self.current && self.current < self.requests.len() {
            self.sent.push((Instant::now(), alloc::calls()));
        }
        match self.requests.get(self.current) {
            Some(r) => Ok(&r.line.as_bytes()[self.pos..]),
            None => Ok(&[]),
        }
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
        if self
            .requests
            .get(self.current)
            .is_some_and(|r| self.pos >= r.line.len())
        {
            self.current += 1;
            self.pos = 0;
        }
    }
}

/// The receiving half: `serve` flushes after every response line, which
/// is when the reply is complete.
struct Receiver {
    bytes: Vec<u8>,
    /// (end offset in `bytes`, arrival, allocation count).
    received: Vec<(usize, Instant, u64)>,
}

impl Write for Receiver {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.received
            .push((self.bytes.len(), Instant::now(), alloc::calls()));
        Ok(())
    }
}

pub struct ServeEdit {
    names: Vec<String>,
    slots: Vec<Slot>,
    rejects: Vec<Reject>,
    hit_ratio: f64,
}

impl ServeEdit {
    pub fn setup(corrupt: bool) -> Result<ServeEdit, String> {
        let programs = pass_programs()?;
        let mut rejects = reject_programs()?;
        if corrupt {
            rejects[0].code = Some("E9999".to_string());
        }
        let slots = programs
            .iter()
            .map(|p| Slot::new(&p.src).map_err(|e| format!("{}: {e}", p.name)))
            .collect::<Result<Vec<_>, _>>()?;
        let names = programs
            .iter()
            .map(|p| &p.name)
            .chain(rejects.iter().map(|r| &r.program.name))
            .cloned()
            .collect();
        Ok(ServeEdit {
            names,
            slots,
            rejects,
            hit_ratio: 0.0,
        })
    }

    /// The request sequence of one session. What a session asks is fixed
    /// (see `MIX`): the seed shuffles the order, which decides what each
    /// request finds in the caches, and draws the `body` edits' numbers.
    fn plan(&self, rng: &mut Rng) -> Vec<Request> {
        #[derive(Clone, Copy)]
        enum Ask {
            Edit(usize, Edit, Cmd),
            Break(usize, Cmd),
            Stats,
        }
        let mut asks = Vec::new();
        for slot in 0..self.slots.len() {
            for (edit, checks, emits) in MIX {
                asks.extend((0..checks).map(|_| Ask::Edit(slot, edit, Cmd::Check)));
                asks.extend((0..emits).map(|_| Ask::Edit(slot, edit, Cmd::Emit)));
            }
        }
        for r in 0..self.rejects.len() {
            asks.extend([
                Ask::Break(r, Cmd::Check),
                Ask::Break(r, Cmd::Check),
                Ask::Break(r, Cmd::Emit),
            ]);
        }
        asks.extend([Ask::Stats; STATS]);
        rng.shuffle(&mut asks);
        // The closing `stats` reports the session's hit ratio.
        asks.push(Ask::Stats);

        let mut slots = self.slots.clone();
        let mut emits = 0;
        asks.into_iter()
            .map(|ask| {
                let (program, cmd, text) = match ask {
                    Ask::Stats => {
                        return Request {
                            line: "{\"cmd\":\"stats\"}\n".to_string(),
                            cmd: Cmd::Stats,
                            program: None,
                            sample: None,
                        }
                    }
                    Ask::Break(r, cmd) => {
                        (slots.len() + r, cmd, self.rejects[r].program.src.clone())
                    }
                    Ask::Edit(slot, edit, cmd) => {
                        match edit {
                            Edit::Touch => {}
                            Edit::Shift => slots[slot].newlines += 1,
                            Edit::Body => slots[slot].rev = rng.next_u64() % 1_000_000,
                        }
                        (slot, cmd, slots[slot].text())
                    }
                };
                let name = if cmd == Cmd::Emit { "emit" } else { "check" };
                let line = Json::Obj(vec![
                    ("cmd".into(), Json::Str(name.into())),
                    ("src".into(), Json::Str(text.clone())),
                ])
                .to_string_compact();
                let sampled = cmd == Cmd::Emit && program < slots.len() && {
                    emits += 1;
                    emits % SAMPLE == 1
                };
                Request {
                    line: line + "\n",
                    cmd,
                    program: Some(program),
                    sample: sampled.then_some(text),
                }
            })
            .collect()
    }

    /// Whether `reply` is the right answer to `request`.
    fn verify(&self, request: &Request, reply: &str) -> bool {
        let rejected = request
            .program
            .and_then(|p| p.checked_sub(self.slots.len()));
        match (rejected, &request.sample) {
            (None, None) => reply.starts_with("{\"ok\":true"),
            (None, Some(text)) => {
                let Ok(cold) = Compiler::new().compile_source(text) else {
                    return false;
                };
                let Ok(reply) = parse_json(reply) else {
                    return false;
                };
                cold.target_sources.iter().all(|(t, want)| {
                    reply
                        .get("sources")
                        .and_then(|s| s.get(t))
                        .and_then(Json::as_str)
                        == Some(want)
                })
            }
            (Some(r), _) => {
                let want = &self.rejects[r];
                let Ok(reply) = parse_json(reply) else {
                    return false;
                };
                let first = reply
                    .get("diagnostics")
                    .and_then(Json::as_arr)
                    .and_then(|d| d.first());
                let field = |key: &str| first.and_then(|d| d.get(key)).and_then(Json::as_str);
                let at = |key: &str| match first?.get("spans")?.as_arr()?.first()?.get(key)? {
                    Json::Num(n) => Some(*n as u64),
                    _ => None,
                };
                reply.get("ok") == Some(&Json::Bool(false))
                    && want
                        .code
                        .as_deref()
                        .is_none_or(|c| field("code") == Some(c))
                    && want
                        .title
                        .as_deref()
                        .is_none_or(|t| field("title") == Some(t))
                    && want
                        .span
                        .is_none_or(|(l, c)| at("line") == Some(l) && at("col") == Some(c))
            }
        }
    }

    /// One session: plans the requests, serves them, checks every reply
    /// (after the session, so outside every timed span).
    fn session(&mut self, rng: &mut Rng, spans: &mut Spans) -> Vec<OpRecord> {
        let requests = self.plan(rng);
        let mut sender = Sender {
            requests: &requests,
            current: 0,
            pos: 0,
            sent: Vec::with_capacity(requests.len()),
        };
        let mut receiver = Receiver {
            bytes: Vec::with_capacity(32 << 20),
            received: Vec::with_capacity(requests.len()),
        };
        let served =
            serve(&mut sender, &mut receiver).is_ok() && receiver.received.len() == requests.len();
        let mut begin = 0;
        let mut ops = Vec::with_capacity(requests.len());
        for (i, request) in requests.iter().enumerate() {
            let Some(&(end, arrived, allocs_after)) = receiver.received.get(i) else {
                break;
            };
            let (sent, allocs_before) = sender.sent[i];
            let reply = std::str::from_utf8(&receiver.bytes[begin..end]).unwrap_or("");
            begin = end;
            let span = match request.cmd {
                Cmd::Check => "compiler.server.check",
                Cmd::Emit => "compiler.server.emit",
                Cmd::Stats => "compiler.server.stats",
            };
            let program = request
                .program
                .map_or("(stats)", |p| self.names[p].as_str());
            spans.record(
                "serve_edit",
                span,
                program,
                sent,
                arrived,
                allocs_after - allocs_before,
            );
            if i + 1 == requests.len() {
                self.hit_ratio = hit_ratio(reply).unwrap_or(0.0);
            }
            ops.push(OpRecord::unsimulated(
                request.program,
                arrived.duration_since(sent).as_secs_f64(),
                allocs_after - allocs_before,
                served && self.verify(request, reply),
            ));
            // `compiler.server.json_us`: what the protocol's own JSON costs —
            // `parse_json` of the request line, `to_string_compact` of the
            // reply.
            if let (true, Ok(reply)) = (spans.enabled(), parse_json(reply)) {
                spans.span("compiler.server.json", "(json)", |_| {
                    (
                        parse_json(&request.line).is_ok(),
                        reply.to_string_compact().len(),
                    )
                });
            }
        }
        ops
    }

    /// `typeck.reject_us` and `diag.render_us` over corpus-reject.
    fn reject_pass(&self, spans: &mut Spans) {
        for r in &self.rejects {
            let (name, src) = (&r.program.name, r.program.src.as_str());
            spans.span("typeck.reject", name, |_| match parser::parse(src) {
                Ok(ast) => typeck::check_program(&ast).is_err(),
                Err(_) => true,
            });
            if let Err(e) = Compiler::new().compile_source(src) {
                spans.span("diag.render", name, |_| {
                    e.diag.render(src).len()
                        + diag::render_json(name, src, std::slice::from_ref(&*e.diag)).len()
                });
            }
        }
    }
}

/// hits / (hits + misses) over every query kind of a `stats` reply.
fn hit_ratio(reply: &str) -> Option<f64> {
    let reply = parse_json(reply).ok()?;
    let Json::Obj(kinds) = reply.get("stats")? else {
        return None;
    };
    let (mut hits, mut misses) = (0.0, 0.0);
    for (_, counter) in kinds {
        if let (Some(Json::Num(h)), Some(Json::Num(m))) =
            (counter.get("hits"), counter.get("misses"))
        {
            hits += h;
            misses += m;
        }
    }
    Some(hits / (hits + misses))
}

impl Workload for ServeEdit {
    fn pass(&mut self, rng: &mut Rng) -> Vec<OpRecord> {
        self.session(rng, &mut Spans::new(false))
    }

    fn probe(
        &mut self,
        budget: f64,
        rng: &mut Rng,
        spans: &mut Spans,
        out: &mut Metrics,
    ) -> Result<Vec<Vec<OpRecord>>, String> {
        let passes = passes_for(budget, |_| {
            self.reject_pass(spans);
            self.session(rng, spans)
        });
        put(
            out,
            "typeck.reject_us",
            spans.median_sum("typeck.reject") * 1e6,
            "us",
        );
        put(
            out,
            "diag.render_us",
            spans.median_sum("diag.render") * 1e6,
            "us",
        );
        put(out, "compiler.query_hit_ratio", self.hit_ratio, "ratio");
        for (cmd, span) in [
            ("check", "compiler.server.check"),
            ("emit", "compiler.server.emit"),
        ] {
            let us: Vec<f64> = spans.durations(span).iter().map(|s| s * 1e6).collect();
            put(
                out,
                &format!("compiler.server.{cmd}_us_p50"),
                percentile(&us, 50.0),
                "us",
            );
            put(
                out,
                &format!("compiler.server.{cmd}_us_p99"),
                percentile(&us, 99.0),
                "us",
            );
        }
        let json = spans.durations("compiler.server.json");
        put(
            out,
            "compiler.server.json_us",
            json.iter().sum::<f64>() * 1e6 / json.len().max(1) as f64,
            "us",
        );
        Ok(passes)
    }
}
