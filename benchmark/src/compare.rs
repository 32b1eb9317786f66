//! `compare a.json b.json`: do two result files agree?
//!
//! For each (workload, end-to-end metric) in both files: both medians, the
//! ratio b/a, the bound, and a verdict. A host-clock metric is `regressed`
//! when b is worse than a by more than the bound, `unresolved` when either
//! side's quartile distance is wider than the bound (the runs cannot tell),
//! `ok` otherwise. A simulated or accounting metric must be bit-equal.

use crate::json::Json;
use crate::spec::{self, Clock};
use std::collections::BTreeSet;

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

fn parse_file(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn load(path: &str) -> Result<Json, String> {
    let json = parse_file(path)?;
    if json.get("quick").and_then(Json::as_bool) != Some(false) {
        return Err(format!(
            "{path}: a --quick result is a smoke test, not a measurement"
        ));
    }
    Ok(json)
}

fn workloads(result: &Json) -> &[Json] {
    result
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
}

pub fn verdict(m: &spec::EndToEnd, a: &Json, b: &Json) -> Option<(f64, f64, Verdict)> {
    let value = |j: &Json| j.get("value").and_then(Json::as_f64);
    let (va, vb) = (value(a)?, value(b)?);
    let v = if m.clock != Clock::Host {
        if va.to_bits() == vb.to_bits() {
            Verdict::Ok
        } else {
            Verdict::Regressed
        }
    } else {
        let worse = if m.higher_is_better {
            (va - vb) / va
        } else {
            (vb - va) / va
        };
        let spread =
            |j: &Json| j.get("iqr").and_then(Json::as_f64).unwrap_or(0.0) / value(j).unwrap_or(1.0);
        if worse > m.bound {
            Verdict::Regressed
        } else if spread(a) > m.bound || spread(b) > m.bound {
            Verdict::Unresolved
        } else {
            Verdict::Ok
        }
    };
    Some((va, vb, v))
}

pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for wa in workloads(a) {
        let name = wa
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        let Some(wb) = workloads(b)
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        let failed = |w: &Json| w.get("ops_failed").and_then(Json::as_f64);
        if failed(wa) != failed(wb) {
            return Err(format!(
                "{name}: ops_failed differs: {:?} vs {:?}",
                failed(wa),
                failed(wb)
            ));
        }
        for m in &spec::END_TO_END {
            let cell = |w: &'_ Json| w.get("end_to_end").and_then(|e| e.get(m.name)).cloned();
            let (Some(ca), Some(cb)) = (cell(wa), cell(wb)) else {
                continue;
            };
            if let Some((va, vb, v)) = verdict(m, &ca, &cb) {
                rows.push(Row {
                    workload: name.to_string(),
                    metric: m.name,
                    a: va,
                    b: vb,
                    bound: m.bound,
                    verdict: v,
                });
            }
        }
    }
    if rows.is_empty() {
        return Err("the two results share no workload".into());
    }
    Ok(rows)
}

/// Prints the table; `Ok(true)` when every row is `ok`.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let rows = compare(&load(path_a)?, &load(path_b)?)?;
    println!(
        "{:<16} {:<30} {:>16} {:>16} {:>8} {:>6}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "bound"
    );
    for r in &rows {
        let verdict = match r.verdict {
            Verdict::Ok => "ok",
            Verdict::Regressed
                if spec::end_to_end(r.metric).is_some_and(|m| m.clock != Clock::Host) =>
            {
                "regressed (not bit-equal)"
            }
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        };
        println!(
            "{:<16} {:<30} {:>16.6} {:>16.6} {:>8.4} {:>6.2}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.b / r.a,
            r.bound,
            verdict
        );
    }
    Ok(rows.iter().all(|r| r.verdict == Verdict::Ok))
}

/// `check a.json b.json BENCHMARK.json`, the assertions behind `check.sh`:
/// all three files parse; `BENCHMARK.json` is exactly what `spec` prints;
/// the two (traced) results name exactly the workloads and metrics it
/// lists; and every simulated or accounting metric is bit-equal between
/// them. Quick results are welcome here — this checks names, not speed.
pub fn check(path_a: &str, path_b: &str, path_spec: &str) -> Result<(), String> {
    if parse_file(path_spec)? != spec::benchmark_json() {
        return Err(format!(
            "{path_spec} differs from what `spec` prints; regenerate it"
        ));
    }
    let (a, b) = (parse_file(path_a)?, parse_file(path_b)?);
    for (path, result) in [(path_a, &a), (path_b, &b)] {
        let names = |section: &str| -> BTreeSet<String> {
            workloads(result)
                .iter()
                .filter_map(|w| w.get(section))
                .filter_map(|s| match s {
                    Json::Obj(pairs) => Some(pairs.iter().map(|(k, _)| k.clone())),
                    _ => None,
                })
                .flatten()
                .collect()
        };
        let expect = |want: Vec<&str>, got: BTreeSet<String>, what: &str| {
            let want: BTreeSet<String> = want.into_iter().map(String::from).collect();
            if want == got {
                return Ok(());
            }
            let diff: Vec<_> = want.symmetric_difference(&got).collect();
            Err(format!(
                "{path}: {what} names differ from BENCHMARK.json: {diff:?}"
            ))
        };
        let listed: BTreeSet<String> = workloads(result)
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(String::from))
            .collect();
        expect(
            spec::WORKLOADS.iter().map(|w| w.0).collect(),
            listed,
            "workload",
        )?;
        expect(
            spec::END_TO_END.iter().map(|m| m.name).collect(),
            names("end_to_end"),
            "end-to-end",
        )?;
        expect(
            spec::PER_LAYER.iter().map(|m| m.0).collect(),
            names("per_layer"),
            "per-layer",
        )?;
    }
    for r in compare(&a, &b)? {
        let exact = spec::end_to_end(r.metric).is_some_and(|m| m.clock != Clock::Host);
        if exact && r.verdict != Verdict::Ok {
            return Err(format!(
                "{} {}: {} vs {} is not bit-equal",
                r.workload, r.metric, r.a, r.b
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(value: f64, iqr: f64) -> Json {
        Json::obj([("value", Json::Num(value)), ("iqr", Json::Num(iqr))])
    }

    #[test]
    fn host_metrics_are_judged_against_their_bound_and_spread() {
        let rate = spec::end_to_end("boots_per_s").unwrap();
        let v = |a, b| verdict(rate, &a, &b).unwrap().2;
        let (inside, outside) = (
            100.0 * (1.0 - rate.bound / 2.0),
            100.0 * (1.0 - rate.bound * 1.1),
        );
        assert_eq!(v(cell(100.0, 1.0), cell(inside, 1.0)), Verdict::Ok);
        assert_eq!(v(cell(100.0, 1.0), cell(150.0, 1.0)), Verdict::Ok);
        assert_eq!(v(cell(100.0, 1.0), cell(outside, 1.0)), Verdict::Regressed);
        assert_eq!(
            v(cell(100.0, 110.0 * rate.bound), cell(99.0, 1.0)),
            Verdict::Unresolved
        );
        // Lower is better: growing is what counts as worse.
        let setup = spec::end_to_end("setup_s").unwrap();
        let v = |b| verdict(setup, &cell(1.0, 0.0), &cell(b, 0.0)).unwrap().2;
        assert_eq!(v(1.0 + setup.bound / 2.0), Verdict::Ok);
        assert_eq!(v(0.5), Verdict::Ok);
        assert_eq!(v(1.0 + setup.bound * 1.1), Verdict::Regressed);
    }

    #[test]
    fn exact_metrics_must_be_bit_equal() {
        let m = spec::end_to_end("sim_register_s").unwrap();
        let x = 20.939;
        assert_eq!(
            verdict(m, &cell(x, 0.0), &cell(x, 0.0)).unwrap().2,
            Verdict::Ok
        );
        let y = f64::from_bits(x.to_bits() + 1);
        assert_eq!(
            verdict(m, &cell(x, 0.0), &cell(y, 0.0)).unwrap().2,
            Verdict::Regressed
        );
    }

    #[test]
    fn differing_failure_counts_are_refused() {
        let w = |failed: f64| {
            Json::obj([(
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("name", Json::str("ingest")),
                    ("ops_failed", Json::Num(failed)),
                    ("end_to_end", Json::obj([("setup_s", cell(1.0, 0.0))])),
                ])]),
            )])
        };
        assert!(compare(&w(0.0), &w(0.0)).is_ok());
        assert!(compare(&w(0.0), &w(1.0))
            .unwrap_err()
            .contains("ops_failed"));
    }
}
