//! Metric definitions (read from `BENCHMARK.json`), the end-to-end metrics
//! of an untraced pass, and the result line.

use std::collections::BTreeMap;

use kishu_testkit::json::Json;

use crate::run::PassResult;
use crate::stats::{median, percentile, pick_percentile};

/// The benchmark definition this binary was built against.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
}

fn defs(section: &str) -> Vec<MetricDef> {
    let json = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    json.get(section)
        .and_then(Json::as_array)
        .expect("BENCHMARK.json lists the section")
        .iter()
        .map(|m| MetricDef {
            name: m
                .get("name")
                .and_then(Json::as_str)
                .expect("metric name")
                .to_string(),
            unit: m
                .get("unit")
                .and_then(Json::as_str)
                .expect("metric unit")
                .to_string(),
        })
        .collect()
}

/// The `end_to_end` metrics, in declaration order.
pub fn end_to_end_defs() -> Vec<MetricDef> {
    defs("end_to_end")
}

/// The `per_layer` metrics, in declaration order.
pub fn per_layer_defs() -> Vec<MetricDef> {
    defs("per_layer")
}

/// A metric value and the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

/// End-to-end metrics of an untraced pass, plus the tail percentile used.
pub fn end_to_end(
    p: &PassResult,
    tail_cap: f64,
) -> Result<(BTreeMap<&'static str, Value>, f64), String> {
    let n = p.primary.len();
    let tail = pick_percentile(n, tail_cap).ok_or_else(|| format!("only {n} timed operations"))?;
    let op_ms: Vec<f64> = p.primary.iter().map(|t| t.wall_ns as f64 / 1e6).collect();
    let ops = n + p.secondary.len();
    let cpu_ms: f64 = p.primary.iter().map(|t| t.cpu_ns as f64 / 1e6).sum();
    let v = |value, samples| Value { value, samples };
    let mut m = BTreeMap::new();
    m.insert("setup_s", v(median(&p.setup_s), p.setup_s.len()));
    m.insert("op_ms.p50", v(median(&op_ms), n));
    m.insert("op_ms.tail", v(percentile(&op_ms, tail), n));
    m.insert("op_cpu_ms.mean", v(cpu_ms / n as f64, n));
    m.insert("ops_per_s", v(ops as f64 / p.timed_s, ops));
    m.insert("resume_ms", v(median(&p.resume_ms), p.resume_ms.len()));
    m.insert(
        "stored_bytes_per_logical_byte",
        v(
            p.frozen_file_bytes as f64 / p.frozen_logical_bytes.max(1) as f64,
            1,
        ),
    );
    m.insert("peak_rss_mb", v(p.peak_rss_mib, 1));
    Ok((m, tail))
}

fn num(x: f64) -> Json {
    Json::Float(if x.is_finite() { x } else { 0.0 })
}

/// The result line: `correct`, `attempted`, `failed` and every declared
/// metric of `defs` with its unit. Fails if a declared metric is missing.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let metrics = defs
        .iter()
        .map(|d| {
            let x = values
                .get(d.name.as_str())
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            Ok((
                d.name.clone(),
                Json::obj(vec![
                    ("value", num(*x)),
                    ("unit", Json::Str(d.unit.clone())),
                ]),
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", Json::Object(metrics)),
    ])
    .dump())
}

/// Human-readable metric table: name, value, unit, samples.
pub fn table(
    defs: &[MetricDef],
    values: &BTreeMap<&'static str, f64>,
    samples: &BTreeMap<&'static str, usize>,
) -> String {
    let mut out = String::new();
    for d in defs {
        let value = values.get(d.name.as_str()).copied().unwrap_or(f64::NAN);
        let n = samples
            .get(d.name.as_str())
            .map_or(String::new(), |n| format!("  (n={n})"));
        out.push_str(&format!(
            "  {:<36} {:>16.6} {:<8}{n}\n",
            d.name, value, d.unit
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn definitions_parse_and_names_are_unique() {
        let mut names: Vec<String> = end_to_end_defs()
            .into_iter()
            .chain(per_layer_defs())
            .map(|d| d.name)
            .collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(end_to_end_defs()
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn result_line_names_every_metric_with_its_unit() {
        let defs = end_to_end_defs();
        let values: BTreeMap<&'static str, f64> = defs
            .iter()
            .map(|d| (&*Box::leak(d.name.clone().into_boxed_str()), 1.25))
            .collect();
        let line = result_line(true, 3, 0, &defs, &values).expect("complete");
        let json = Json::parse(&line).expect("valid JSON");
        let metrics = json.get("metrics").expect("metrics");
        for d in &defs {
            let m = metrics.get(&d.name).expect("metric present");
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit.as_str()));
            assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
        }
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(3));
        let mut missing = values.clone();
        missing.remove("setup_s");
        assert!(result_line(true, 3, 0, &defs, &missing).is_err());
    }
}
