//! `compare A.json B.json`: B's end-to-end medians against A's, per
//! workload, each judged against the metric's bound.

use serde_json::Value;

use crate::metrics::END_TO_END;
use crate::stats::Summary;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn summary(v: &Value) -> Option<Summary> {
    let num = |k: &str| v.get(k).and_then(Value::as_f64);
    Some(Summary {
        median: num("median")?,
        q1: num("q1")?,
        q3: num("q3")?,
        n: v.get("n").and_then(Value::as_u64)? as usize,
    })
}

/// Prints one row per (workload, metric) and returns whether any metric
/// regressed beyond its bound.
///
/// # Errors
///
/// Fails when a file is unreadable or is not a results file.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let workloads = |v: &Value, p: &str| {
        v.get("workloads")
            .and_then(Value::as_object)
            .cloned()
            .ok_or_else(|| format!("{p}: no \"workloads\" object"))
    };
    let (wa, wb) = (workloads(&a, a_path)?, workloads(&b, b_path)?);
    let mut regressed = false;
    println!(
        "{:<22} {:<12} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    for (name, wa) in wa.iter() {
        let Some(wb) = wb.get(name) else {
            println!("{name:<22} missing from {b_path}");
            continue;
        };
        for m in &END_TO_END {
            let get = |w: &Value| {
                w.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(summary)
            };
            let (Some(sa), Some(sb)) = (get(wa), get(wb)) else {
                println!("{name:<22} {:<12} missing", m.name);
                continue;
            };
            let worse = m.better.worsening(sa.median, sb.median);
            let verdict = if sa.rel_iqr() > m.bound || sb.rel_iqr() > m.bound {
                "unresolved (IQR wider than the bound)"
            } else if worse > m.bound {
                regressed = true;
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "{name:<22} {:<12} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%  {verdict}",
                m.name,
                sa.median,
                sb.median,
                worse * 100.0,
                m.bound * 100.0
            );
        }
        let digest = |w: &Value| {
            w.get("report_digest")
                .and_then(Value::as_str)
                .map(str::to_string)
        };
        let same = digest(wa) == digest(wb);
        println!(
            "{name:<22} report_digest {}",
            if same {
                "identical"
            } else {
                "DIFFERS: simulated statistics changed"
            }
        );
    }
    Ok(regressed)
}
