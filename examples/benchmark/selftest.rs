//! `--self-test`: proof that the checks are alive and the exact metrics
//! exact.

use crate::harness::{put, tally, Metrics};
use crate::spans::Spans;
use crate::util::{repo_root, Rng};
use crate::{build, WORKLOADS};
use descend::compiler::server::{parse_json, Json};
use descend::native::Toolchain;

/// The per-layer metrics of one traced pass of each of `workloads`,
/// with `compile_cold`'s emitted bytes and `sim_paper`'s cycles beside
/// them.
fn layer_metrics(workloads: &[&str], seed: u64) -> Result<Metrics, String> {
    let mut all = Metrics::new();
    for workload in workloads {
        let Some(mut w) = build(workload, seed, false)? else {
            continue;
        };
        let mut rng = Rng::new(seed);
        w.pass(&mut rng);
        w.probe(0.0, &mut rng, &mut Spans::new(true), &mut all)?;
        let exact = w.exact();
        if let Some(bytes) = exact.emitted_bytes {
            put(
                &mut all,
                "compile_cold: emitted_bytes",
                bytes as f64,
                "bytes",
            );
        }
        if let Some(cycles) = exact.sim_cycles {
            put(
                &mut all,
                &format!("{workload}: sim_cycles"),
                cycles as f64,
                "cycles",
            );
        }
    }
    Ok(all)
}

/// Names and units of a `BENCHMARK.json` metric list.
fn declared(contract: &Json, key: &str) -> Vec<(String, String)> {
    contract
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

pub fn self_test(seed: u64) -> Result<bool, String> {
    let mut ok = true;
    let mut say = |what: String, passed: bool| {
        println!("{} {what}", if passed { "ok  " } else { "FAIL" });
        ok &= passed;
    };
    // 1. One corrupted expected value per workload must fail operations.
    for workload in WORKLOADS {
        match build(workload, seed, true)? {
            Some(mut w) => {
                let (attempted, failed) = tally(&[w.pass(&mut Rng::new(seed))]);
                say(
                    format!(
                        "{workload}: corrupted expectation gives fail_share {failed}/{attempted}"
                    ),
                    failed > 0,
                );
            }
            None => println!("skip {workload}: no host C compiler"),
        }
    }
    // 2. Counts of a second run of `compile_cold` and `sim_paper` repeat
    //    exactly.
    let first = layer_metrics(
        &[
            "compile_cold",
            "serve_edit",
            "sim_paper",
            "run_small",
            "native",
        ],
        seed,
    )?;
    let second = layer_metrics(&["compile_cold", "sim_paper"], seed)?;
    for (name, b) in second
        .iter()
        .filter(|(_, v)| ["count", "bytes", "cycles"].contains(&v.unit))
    {
        let a = first.get(name).map_or(f64::NAN, |v| v.value);
        say(
            format!("{name} repeats exactly ({a} / {})", b.value),
            a == b.value,
        );
    }
    // 3. The contract names what this program prints.
    let path = repo_root()?.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let contract = parse_json(&text)?;
    let printed: Vec<(String, String)> = crate::harness::END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    say(
        "BENCHMARK.json end_to_end matches the metrics printed".to_string(),
        declared(&contract, "end_to_end") == printed,
    );
    let mut layers: Vec<(String, String)> = first
        .iter()
        .filter(|(name, _)| !name.contains(": "))
        .map(|(name, v)| (name.clone(), v.unit.to_string()))
        .chain([(
            "bench.trace_overhead_ratio".to_string(),
            "ratio".to_string(),
        )])
        .collect();
    layers.sort();
    let mut declared_layers = declared(&contract, "per_layer");
    declared_layers.sort();
    say(
        "BENCHMARK.json per_layer matches the metrics a traced run prints".to_string(),
        Toolchain::detect().is_none() || declared_layers == layers,
    );
    let workloads: Vec<&str> = contract
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    say(
        "BENCHMARK.json workloads match".to_string(),
        workloads == WORKLOADS,
    );
    Ok(ok)
}
