//! In-memory spans around the calls into each layer.
//!
//! A span is (name, start, end, parent, operation id, allocation
//! calls); the layer is the name up to its first `.`. Spans are pushed
//! to a `Vec` owned here and written once, at exit, as a Chrome trace.
//! A span's self time is its duration minus its children's.

use crate::alloc;
use crate::util::median;
use descend::diag::json_escape;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    /// The program the enclosing operation works on.
    pub program: u32,
    /// Shared by every span of one operation.
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The recorder. Disabled (the untraced run), `span` only calls its
/// closure.
pub struct Spans {
    enabled: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    programs: Vec<String>,
    next_op: u64,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            programs: Vec::new(),
            next_op: 0,
        }
    }

    fn program_id(&mut self, program: &str) -> u32 {
        match self.programs.iter().position(|p| p == program) {
            Some(i) => i as u32,
            None => {
                self.programs.push(program.to_string());
                (self.programs.len() - 1) as u32
            }
        }
    }

    /// Runs `f` inside a span. A span opened while none is open starts a
    /// new operation on `program`; nested spans inherit both.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        program: &str,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let parent = self.stack.last().copied();
        let (op, program) = match parent {
            Some(p) => (self.spans[p].op, self.spans[p].program),
            None => {
                self.next_op += 1;
                (self.next_op, self.program_id(program))
            }
        };
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            program,
            op,
            parent,
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
        });
        self.stack.push(id);
        let allocs = alloc::calls();
        let start = self.t0.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.t0.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id];
        span.start_ns = start;
        span.end_ns = end;
        span.allocs = alloc::calls() - allocs;
        self.stack.pop();
        out
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records an operation timed elsewhere (a server request, stamped by
    /// the client's two halves): a root span `root` with one child `name`
    /// over the same interval.
    pub fn record(
        &mut self,
        root: &'static str,
        name: &'static str,
        program: &str,
        start: Instant,
        end: Instant,
        allocs: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.next_op += 1;
        let program = self.program_id(program);
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        let parent = self.spans.len();
        for (name, parent) in [(root, None), (name, Some(parent))] {
            self.spans.push(Span {
                name,
                program,
                op: self.next_op,
                parent,
                start_ns,
                end_ns,
                allocs,
            });
        }
    }

    /// Sum over programs of each program's median duration of `name`, in
    /// seconds: how every per-layer time is defined.
    pub fn median_sum(&self, name: &str) -> f64 {
        self.per_program(name, Span::secs)
            .values()
            .map(|v| median(v))
            .sum()
    }

    /// Like [`Spans::median_sum`] for allocation calls.
    pub fn median_allocs(&self, name: &str) -> f64 {
        self.per_program(name, |s| s.allocs as f64)
            .values()
            .map(|v| median(v))
            .sum()
    }

    /// Per program name, the median duration of `name` in seconds.
    pub fn program_medians(&self, name: &str) -> BTreeMap<&str, f64> {
        self.per_program(name, Span::secs)
            .into_iter()
            .map(|(p, v)| (self.programs[p as usize].as_str(), median(&v)))
            .collect()
    }

    /// Every duration of `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Per program, one value per operation: spans of the same name
    /// inside one operation (a host program's several launches) add up.
    fn per_program(&self, name: &str, f: impl Fn(&Span) -> f64) -> BTreeMap<u32, Vec<f64>> {
        let mut per_op: BTreeMap<(u32, u64), f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *per_op.entry((s.program, s.op)).or_default() += f(s);
        }
        let mut by: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for ((program, _), v) in per_op {
            by.entry(program).or_default().push(v);
        }
        by
    }

    /// Per program and in total, the share of operation wall-clock each
    /// layer owns (self times) and the mean operation time, for the
    /// operations rooted at `root`. The root's own self time is the
    /// harness's and shows as layer `bench`.
    pub fn share_table(&self, root: &str) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        // Per program: operations seen, and self nanoseconds per layer.
        type Row = (u64, BTreeMap<&'static str, u64>);
        let mut rows: BTreeMap<u32, Row> = BTreeMap::new();
        let mut layers: Vec<&'static str> = Vec::new();
        // A span follows its parent in the Vec, so one sweep decides
        // which spans sit under a `root` operation.
        let mut in_root = vec![false; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            in_root[i] = match s.parent {
                Some(p) => in_root[p],
                None => s.name == root,
            };
            if !in_root[i] {
                continue;
            }
            let layer = if s.parent.is_none() {
                "bench"
            } else {
                s.layer()
            };
            let row = rows.entry(s.program).or_default();
            row.0 += u64::from(s.parent.is_none());
            *row.1.entry(layer).or_default() += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            if !layers.contains(&layer) {
                layers.push(layer);
            }
        }
        let mut out = format!("{:<34}", "program");
        for l in &layers {
            out.push_str(&format!(" {l:>9}"));
        }
        out.push_str("    mean op\n");
        let line = |label: &str, (ops, row): &Row| {
            let sum: u64 = row.values().sum();
            let mut text = format!("{label:<34}");
            for l in &layers {
                let share = *row.get(l).unwrap_or(&0) as f64 / sum.max(1) as f64;
                text.push_str(&format!(" {:>8.1}%", share * 100.0));
            }
            text.push_str(&format!(
                " {:>9.3}ms\n",
                sum as f64 / 1e6 / (*ops).max(1) as f64
            ));
            text
        };
        let mut total = Row::default();
        for (program, row) in &rows {
            out.push_str(&line(&self.programs[*program as usize], row));
            total.0 += row.0;
            for (l, ns) in &row.1 {
                *total.1.entry(l).or_default() += ns;
            }
        }
        out.push_str(&line("ALL", &total));
        out
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"op\":{},\"program\":\"{}\",\"parent\":{},\"allocs\":{}}}}}",
                s.name,
                s.layer(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                json_escape(&self.programs[s.program as usize]),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.allocs,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}
