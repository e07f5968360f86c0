//! The closed loop every workload runs in, and the end-to-end metrics
//! computed from it.
//!
//! One thread drives one operation at a time. A run is: set-up (several
//! times, median reported), one untimed warm-up pass, then timed passes
//! until `--seconds` have gone by. Every timed metric is the median over
//! passes of the per-pass value — never a minimum, never one total.

use crate::spans::Spans;
use crate::util::{geomean, median, peak_rss_mb, summarize, timed, Rng, Summary};
use std::collections::BTreeMap;
use std::time::Instant;

/// One checked operation.
pub struct OpRecord {
    /// Index into the workload's program set (`None`: no program, as a
    /// `stats` request).
    pub program: Option<usize>,
    pub secs: f64,
    /// Heap allocation calls made during the operation.
    pub allocs: u64,
    /// Host seconds inside `Gpu::launch` / `run_host`, and the warp
    /// instructions simulated there.
    pub sim_secs: f64,
    pub sim_instr: u64,
    pub ok: bool,
}

impl OpRecord {
    /// An operation that simulates nothing.
    pub fn unsimulated(program: Option<usize>, secs: f64, allocs: u64, ok: bool) -> OpRecord {
        OpRecord {
            program,
            secs,
            allocs,
            sim_secs: 0.0,
            sim_instr: 0,
            ok,
        }
    }
}

/// The metrics that are counts of simulated or emitted work per pass:
/// identical on every pass and every run of the same code and seed.
#[derive(Clone, Copy, Default)]
pub struct Exact {
    pub sim_cycles: Option<u64>,
    pub emitted_bytes: Option<u64>,
    pub descend_over_cuda: Option<f64>,
}

pub trait Workload {
    /// One untraced pass over the workload's programs, in an order drawn
    /// from `rng`.
    fn pass(&mut self, rng: &mut Rng) -> Vec<OpRecord>;

    /// Traced passes, driven stage by stage with every call inside a
    /// span, until `budget` seconds have gone by (one pass at least);
    /// writes the metrics of the layers this workload exercises to `out`.
    fn probe(
        &mut self,
        budget: f64,
        rng: &mut Rng,
        spans: &mut Spans,
        out: &mut Metrics,
    ) -> Result<Vec<Vec<OpRecord>>, String>;

    fn exact(&self) -> Exact {
        Exact::default()
    }
}

/// Calls `pass` until `budget` seconds have gone by, once at least.
pub fn passes_for(budget: f64, mut pass: impl FnMut(bool) -> Vec<OpRecord>) -> Vec<Vec<OpRecord>> {
    let began = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || began.elapsed().as_secs_f64() < budget {
        passes.push(pass(passes.is_empty()));
    }
    passes
}

/// A reported number: the value, its unit, and (for timed metrics) the
/// quartiles and count of the per-pass sample behind it.
#[derive(Clone, Debug)]
pub struct Value {
    pub value: f64,
    pub unit: &'static str,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Value {
    pub fn exact(value: f64, unit: &'static str) -> Value {
        Value {
            value,
            unit,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    pub fn sampled(s: Summary, unit: &'static str) -> Value {
        Value {
            value: s.median,
            unit,
            q1: s.q1,
            q3: s.q3,
            n: s.n,
        }
    }
}

pub type Metrics = BTreeMap<String, Value>;

/// Records a per-layer metric.
pub fn put(out: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    out.insert(name.to_string(), Value::exact(value, unit));
}

/// Names, units and direction of the end-to-end metrics, in the order
/// of `BENCHMARK.json`. `fail_share` is printed beside them but travels
/// in the result line's `attempted` and `failed`: the contract wants
/// metrics that are never 0, and at the baseline it is.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("programs_per_s", "1/s"),
    ("op_ms_geomean", "ms"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("sim_cycles", "cycles"),
    ("descend_over_cuda_geomean", "ratio"),
    ("emitted_bytes", "bytes"),
    ("allocs_per_program", "count"),
    ("peak_rss_mb", "MB"),
];

/// Sets up `build` several times and returns the last result with the
/// median set-up time: dear set-ups three times, cheap ones for half a
/// second, so that a millisecond set-up reports a steady median.
pub fn timed_setups<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, Value), String> {
    let began = Instant::now();
    let mut times = Vec::new();
    loop {
        let (built, secs) = timed(&mut build);
        let built = built?;
        times.push(secs);
        let elapsed = began.elapsed().as_secs_f64();
        let enough = elapsed > 1.5 || (times.len() >= 15 && elapsed > 0.5) || times.len() >= 2000;
        if times.len() >= 3 && enough {
            return Ok((built, Value::sampled(summarize(&times), "s")));
        }
        drop(built);
    }
}

/// Warm-up pass, then timed passes for `seconds`.
pub fn measure(w: &mut dyn Workload, seconds: f64, rng: &mut Rng) -> Vec<Vec<OpRecord>> {
    w.pass(rng);
    passes_for(seconds, |_| w.pass(rng))
}

/// Operations attempted and failed over all passes.
pub fn tally(passes: &[Vec<OpRecord>]) -> (u64, u64) {
    let ops = passes.iter().flatten();
    (
        ops.clone().count() as u64,
        ops.filter(|o| !o.ok).count() as u64,
    )
}

/// Per program, the median time of its operations in `ops`.
fn program_medians<'a>(ops: impl Iterator<Item = &'a OpRecord>) -> Vec<f64> {
    let mut by: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for o in ops {
        if let Some(p) = o.program {
            by.entry(p).or_default().push(o.secs);
        }
    }
    by.values().map(|v| median(v)).collect()
}

/// The median operation time of one pass, in ms: what
/// `bench.trace_overhead_ratio` compares between traced and untraced.
pub fn pass_op_ms(pass: &[OpRecord]) -> f64 {
    geomean(&program_medians(pass.iter())) * 1e3
}

/// The end-to-end metrics of a run. A metric the workload does not
/// define prints 1, so that every workload prints every metric.
pub fn end_to_end(passes: &[Vec<OpRecord>], setup: Value, exact: Exact) -> Metrics {
    let per_pass = |f: &dyn Fn(&[OpRecord]) -> f64| -> Summary {
        summarize(&passes.iter().map(|p| f(p)).collect::<Vec<_>>())
    };
    let secs = |p: &[OpRecord]| p.iter().map(|o| o.secs).sum::<f64>();
    let mut m = Metrics::new();
    m.insert("setup_s".into(), setup);
    m.insert(
        "programs_per_s".into(),
        Value::sampled(per_pass(&|p| p.len() as f64 / secs(p)), "1/s"),
    );
    // The value is the geometric mean over programs of each program's
    // median over the whole run; the quartiles are of the same figure
    // taken pass by pass.
    let mut geo = Value::sampled(per_pass(&pass_op_ms), "ms");
    geo.value = geomean(&program_medians(passes.iter().flatten())) * 1e3;
    m.insert("op_ms_geomean".into(), geo);
    let simulated = passes.iter().flatten().any(|o| o.sim_instr > 0);
    m.insert(
        "sim_minstr_per_s".into(),
        if simulated {
            Value::sampled(
                per_pass(&|p| {
                    p.iter().map(|o| o.sim_instr).sum::<u64>() as f64
                        / p.iter().map(|o| o.sim_secs).sum::<f64>()
                        / 1e6
                }),
                "Minstr/s",
            )
        } else {
            Value::exact(1.0, "Minstr/s")
        },
    );
    m.insert(
        "sim_cycles".into(),
        Value::exact(exact.sim_cycles.map_or(1.0, |c| c as f64), "cycles"),
    );
    m.insert(
        "descend_over_cuda_geomean".into(),
        Value::exact(exact.descend_over_cuda.unwrap_or(1.0), "ratio"),
    );
    m.insert(
        "emitted_bytes".into(),
        Value::exact(exact.emitted_bytes.map_or(1.0, |b| b as f64), "bytes"),
    );
    m.insert(
        "allocs_per_program".into(),
        Value::sampled(
            per_pass(&|p| p.iter().map(|o| o.allocs).sum::<u64>() as f64 / p.len() as f64),
            "count",
        ),
    );
    m.insert("peak_rss_mb".into(), Value::exact(peak_rss_mb(), "MB"));
    m
}
