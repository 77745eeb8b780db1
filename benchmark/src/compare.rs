//! `compare A.jsonl B.jsonl`: one row per (workload, metric) of two sets
//! of runs recorded with `--out`, judged by the direction and bound
//! `BENCHMARK.json` gives the metric.
//!
//! A row is `unresolved` when either set's own run-to-run spread (the
//! distance between its quartiles over its median) is wider than the
//! bound: such a pair of medians cannot show a change of that size.
//! Per-layer metrics have no bound and are listed for information.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::stats;

/// What `BENCHMARK.json` says about one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rule {
    higher_is_better: bool,
    bound: Option<f64>,
}

/// Verdict on one (workload, metric) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A by more than the bound.
    Better,
    /// The medians differ by no more than the bound.
    Same,
    /// B is worse than A by more than the bound.
    Worse,
    /// A set's own spread is wider than the bound.
    Unresolved,
    /// No bound to judge by (per-layer metric).
    Info,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
        }
    }
}

/// Judge medians `a` → `b` with the sets' spreads under `rule`. Returns
/// the verdict and the worsening as a share of `a` (positive = worse).
fn judge(rule: Rule, a: f64, b: f64, spread_a: f64, spread_b: f64) -> (Verdict, f64) {
    let change = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    let worsening = if rule.higher_is_better {
        -change
    } else {
        change
    };
    let verdict = match rule.bound {
        None => Verdict::Info,
        Some(bound) if spread_a.max(spread_b) > bound => Verdict::Unresolved,
        Some(bound) if worsening > bound => Verdict::Worse,
        Some(bound) if worsening < -bound => Verdict::Better,
        Some(_) => Verdict::Same,
    };
    (verdict, worsening)
}

fn rules(manifest: &Value) -> Result<BTreeMap<String, Rule>, String> {
    let mut out = BTreeMap::new();
    for list in ["end_to_end", "per_layer"] {
        let metrics = manifest
            .get(list)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no {list} list"))?;
        for m in metrics {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let better = m.get("better").and_then(Value::as_str).unwrap_or("lower");
            out.insert(
                name.to_owned(),
                Rule {
                    higher_is_better: better == "higher",
                    bound: m.get("bound").and_then(Value::as_f64),
                },
            );
        }
    }
    Ok(out)
}

/// `(workload, metric) → values`, in file order, of the runs in `text`.
fn load(text: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let workload = record
            .get("detail")
            .and_then(|d| d.get("workload"))
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no detail.workload", i + 1))?;
        let metrics = record
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("line {}: no result.metrics", i + 1))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                out.entry((workload.to_owned(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

fn median_and_spread(values: &[f64]) -> (f64, f64) {
    match stats::quartiles(values) {
        Some((_, med, _)) => (med, stats::quartile_spread(values).unwrap_or(0.0)),
        None => (values.first().copied().unwrap_or(0.0), 0.0),
    }
}

/// Render the comparison of two result sets. Returns the table and
/// whether any row is worse.
fn render(manifest: &Value, a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    use std::fmt::Write as _;
    let rules = rules(manifest)?;
    let a = load(a_text)?;
    let b = load(b_text)?;
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<22} {:<36} {:>3} {:>14} {:>8} {:>3} {:>14} {:>8} {:>9} {:>6}  verdict",
        "workload",
        "metric",
        "nA",
        "median A",
        "spread A",
        "nB",
        "median B",
        "spread B",
        "worsening",
        "bound"
    );
    let mut any_worse = false;
    for ((workload, metric), a_values) in &a {
        let Some(b_values) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let Some(rule) = rules.get(metric) else {
            continue;
        };
        let (med_a, spread_a) = median_and_spread(a_values);
        let (med_b, spread_b) = median_and_spread(b_values);
        let (verdict, worsening) = judge(*rule, med_a, med_b, spread_a, spread_b);
        any_worse |= verdict == Verdict::Worse;
        let bound = rule.bound.map_or("-".to_owned(), |b| format!("{b:.2}"));
        let _ = writeln!(
            table,
            "{workload:<22} {metric:<36} {:>3} {med_a:>14.4} {spread_a:>8.4} {:>3} {med_b:>14.4} {spread_b:>8.4} {worsening:>+9.4} {bound:>6}  {}",
            a_values.len(),
            b_values.len(),
            verdict.word()
        );
    }
    Ok((table, any_worse))
}

/// Entry point of the `compare` subcommand. `Ok(true)` when a row is
/// worse.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: ecc-benchmark compare A.jsonl B.jsonl".to_owned());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let manifest_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest = json::parse(&read(manifest_path)?)?;
    let (table, any_worse) = render(&manifest, &read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule {
        higher_is_better: false,
        bound: Some(0.10),
    };
    const HIGHER: Rule = Rule {
        higher_is_better: true,
        bound: Some(0.10),
    };

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        assert_eq!(judge(LOWER, 100.0, 105.0, 0.02, 0.02).0, Verdict::Same);
        assert_eq!(judge(LOWER, 100.0, 115.0, 0.02, 0.02).0, Verdict::Worse);
        assert_eq!(judge(LOWER, 100.0, 85.0, 0.02, 0.02).0, Verdict::Better);
        assert_eq!(judge(HIGHER, 100.0, 115.0, 0.02, 0.02).0, Verdict::Better);
        assert_eq!(judge(HIGHER, 100.0, 85.0, 0.02, 0.02).0, Verdict::Worse);
        // A spread wider than the bound hides any change of that size.
        assert_eq!(judge(LOWER, 100.0, 150.0, 0.02, 0.3).0, Verdict::Unresolved);
        let info = Rule {
            higher_is_better: false,
            bound: None,
        };
        assert_eq!(judge(info, 1.0, 9.0, 0.0, 0.0), (Verdict::Info, 8.0));
    }

    fn run_line(workload: &str, latency: f64) -> String {
        json::obj([
            ("detail", json::obj([("workload", json::str(workload))])),
            (
                "result",
                json::obj([(
                    "metrics",
                    json::obj([(
                        "lat_p50_us",
                        json::obj([("value", json::num(latency)), ("unit", json::str("us"))]),
                    )]),
                )]),
            ),
        ])
        .to_line()
    }

    #[test]
    fn renders_one_row_per_workload_and_metric() {
        let manifest = json::parse(
            r#"{"end_to_end": [{"name": "lat_p50_us", "unit": "us", "better": "lower", "bound": 0.1}],
                "per_layer": []}"#,
        )
        .unwrap();
        let set = |w: &str, base: f64| -> String {
            (0..5)
                .map(|i| run_line(w, base + i as f64 * 0.1))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let a = format!("{}\n{}", set("low", 100.0), set("high", 40.0));
        let b = format!("{}\n{}", set("low", 130.0), set("high", 40.5));
        let (table, any_worse) = render(&manifest, &a, &b).unwrap();
        assert!(any_worse);
        let rows: Vec<&str> = table.lines().skip(1).collect();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].starts_with("high") && rows[0].ends_with("same"));
        assert!(rows[1].starts_with("low") && rows[1].ends_with("worse"));
        assert!(!render(&manifest, &a, &a).unwrap().1);
        assert!(render(&manifest, "not json", &a).is_err());
    }
}
