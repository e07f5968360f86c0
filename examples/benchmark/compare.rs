//! `--compare A.json B.json`: the one ratchet rule. Applies the bounds
//! of `BENCHMARK.json` to two result files (A the parent, B the change)
//! and prints one row per metric and workload.

use crate::util::repo_root;
use descend::compiler::server::{parse_json, Json};

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn number(j: Option<&Json>) -> Option<f64> {
    match j? {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

fn fields(j: Option<&Json>) -> &[(String, Json)] {
    match j {
        Some(Json::Obj(f)) => f,
        _ => &[],
    }
}

/// Inter-quartile range as a share of the median.
fn spread(m: &Json) -> f64 {
    let (Some(v), Some(q1), Some(q3)) = (
        number(m.get("value")),
        number(m.get("q1")),
        number(m.get("q3")),
    ) else {
        return 0.0;
    };
    if v == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / v.abs()
    }
}

/// Returns whether B is no worse than A: no metric `worse`, no higher
/// `fail_share`.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let contract = load(&repo_root()?.join("BENCHMARK.json").to_string_lossy())?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut ok = true;
    println!(
        "{:<16} {:<26} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "spread", "bound"
    );
    for (workload, wa) in fields(a.get("workloads")) {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(workload)) else {
            continue;
        };
        for def in contract
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
        {
            let (Some(name), Some(bound)) = (
                def.get("name").and_then(Json::as_str),
                number(def.get("bound")),
            ) else {
                return Err("BENCHMARK.json: an end_to_end entry lacks name or bound".to_string());
            };
            let lower = def.get("better").and_then(Json::as_str) == Some("lower");
            let (Some(ma), Some(mb)) = (
                wa.get("metrics").and_then(|m| m.get(name)),
                wb.get("metrics").and_then(|m| m.get(name)),
            ) else {
                continue;
            };
            let (Some(va), Some(vb)) = (number(ma.get("value")), number(mb.get("value"))) else {
                continue;
            };
            // How much worse B is, as a share of A.
            let worse = if lower { vb - va } else { va - vb } / va.abs().max(f64::MIN_POSITIVE);
            let spread = spread(ma).max(spread(mb));
            let verdict = if worse.abs() <= spread && spread > bound {
                "unresolved"
            } else if worse > bound {
                ok = false;
                "worse"
            } else if worse < -bound {
                "better"
            } else {
                "within"
            };
            println!(
                "{workload:<16} {name:<26} {va:>14.4} {vb:>14.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {verdict}",
                (vb - va) / va.abs().max(f64::MIN_POSITIVE) * 100.0,
                spread * 100.0,
                bound * 100.0,
            );
        }
        let share = |w: &Json| {
            number(w.get("failed")).unwrap_or(0.0)
                / number(w.get("attempted")).unwrap_or(0.0).max(1.0)
        };
        let (fa, fb) = (share(wa), share(wb));
        let verdict = if fb > fa {
            ok = false;
            "worse"
        } else {
            "within"
        };
        println!(
            "{workload:<16} {:<26} {fa:>14.6} {fb:>14.6} {:>8} {:>7} {:>7}  {verdict}",
            "fail_share", "", "", "0%"
        );
    }
    Ok(ok)
}
