//! `compare A B`: two files of run records (one JSON object per line, as
//! `--out` appends them) → one row per (workload, metric) with both
//! medians and quartiles, judged against the metric's fixed bound.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{self, Better};
use crate::stats::quartiles;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Regression,
    /// The runs of one side spread wider than the bound: the metric can
    /// be called neither unchanged nor regressed.
    Unresolved,
    /// The metric has no bound (a per-layer metric).
    Unbounded,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    /// (first quartile, median, third quartile, runs)
    pub a: (f64, f64, f64, usize),
    pub b: (f64, f64, f64, usize),
    pub bound: Option<f64>,
    pub verdict: Verdict,
}

type Series = BTreeMap<(String, String), Vec<f64>>;

/// Collects `metrics.<name>.value` of every run record in `text`.
pub fn read_runs(text: &str) -> Result<Series, String> {
    let mut series = Series::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = Json::parse(line).map_err(|e| format!("line {}: {e}", number + 1))?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", number + 1))?;
        let fields = record
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("line {}: no metrics", number + 1))?;
        for (name, metric) in fields {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                series
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(series)
}

fn spread(q: (f64, f64, f64, usize)) -> f64 {
    if q.1 == 0.0 {
        0.0
    } else {
        (q.2 - q.0) / q.1.abs()
    }
}

fn judge(
    better: Better,
    bound: Option<f64>,
    a: (f64, f64, f64, usize),
    b: (f64, f64, f64, usize),
) -> Verdict {
    let Some(bound) = bound else {
        return Verdict::Unbounded;
    };
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => (b.1 - a.1) / a.1.abs(),
        Better::Higher => (a.1 - b.1) / a.1.abs(),
    };
    if a.1 != 0.0 && worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// Rows for every (workload, metric) both sides measured.
pub fn compare(a: &Series, b: &Series) -> Vec<Row> {
    let mut rows = Vec::new();
    for (key, a_values) in a {
        let Some(b_values) = b.get(key) else { continue };
        let known = metrics::find(&key.1);
        let summary = |values: &[f64]| {
            let (q1, median, q3) = quartiles(values);
            (q1, median, q3, values.len())
        };
        let (qa, qb) = (summary(a_values), summary(b_values));
        let bound = known.and_then(|m| m.bound);
        rows.push(Row {
            workload: key.0.clone(),
            metric: key.1.clone(),
            unit: known.map_or("", |m| m.unit).to_string(),
            a: qa,
            b: qb,
            bound,
            verdict: judge(known.map_or(Better::Lower, |m| m.better), bound, qa, qb),
        });
    }
    rows
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<11} {:<28} {:>9} | {:>13} {:>13} {:>13} {:>3} | {:>13} {:>13} {:>13} {:>3} | {:>6} {:>8}  verdict\n",
        "workload", "metric", "unit", "A q1", "A median", "A q3", "n", "B q1", "B median", "B q3", "n", "bound", "B vs A"
    );
    for row in rows {
        let change = if row.a.1 == 0.0 {
            0.0
        } else {
            (row.b.1 - row.a.1) / row.a.1.abs() * 100.0
        };
        out.push_str(&format!(
            "{:<11} {:<28} {:>9} | {:>13.4} {:>13.4} {:>13.4} {:>3} | {:>13.4} {:>13.4} {:>13.4} {:>3} | {:>6} {:>+7.1}%  {}\n",
            row.workload,
            row.metric,
            row.unit,
            row.a.0,
            row.a.1,
            row.a.2,
            row.a.3,
            row.b.0,
            row.b.1,
            row.b.2,
            row.b.3,
            row.bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            change,
            match row.verdict {
                Verdict::Ok => "ok",
                Verdict::Regression => "REGRESSION",
                Verdict::Unresolved => "unresolved",
                Verdict::Unbounded => "",
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(workload: &str, metric: &str, values: &[f64]) -> String {
        values
            .iter()
            .map(|v| {
                format!(
                    "{{\"workload\": \"{workload}\", \"metrics\": {{\"{metric}\": {{\"value\": {v}, \"unit\": \"x\"}}}}}}\n"
                )
            })
            .collect()
    }

    fn verdict_of(metric: &str, a: &[f64], b: &[f64]) -> Verdict {
        let a = read_runs(&runs("firehose", metric, a)).unwrap();
        let b = read_runs(&runs("firehose", metric, b)).unwrap();
        let rows = compare(&a, &b);
        assert_eq!(rows.len(), 1);
        rows[0].verdict
    }

    /// `steady` scaled so that the median moves by the metric's bound
    /// plus `beyond` (negative: stays inside the bound).
    fn scaled(metric: &str, up: bool, beyond: f64) -> Vec<f64> {
        let bound = metrics::find(metric)
            .and_then(|m| m.bound)
            .expect("bounded");
        let factor = if up {
            1.0 + bound + beyond
        } else {
            1.0 - bound - beyond
        };
        STEADY.iter().map(|v| v * factor).collect()
    }

    /// Quartile distance 1.5% of the median: inside every bound but
    /// `stored_bytes_per_sample`'s.
    const STEADY: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    #[test]
    fn a_slowdown_beyond_the_bound_is_a_regression_in_the_metrics_direction() {
        for metric in ["reply_tail_ms", "cpu_us_per_sample"] {
            // Lower is better: up past the bound regresses, down never.
            assert_eq!(verdict_of(metric, &STEADY, &STEADY), Verdict::Ok);
            assert_eq!(
                verdict_of(metric, &STEADY, &scaled(metric, true, 0.02)),
                Verdict::Regression
            );
            assert_eq!(
                verdict_of(metric, &STEADY, &scaled(metric, true, -0.02)),
                Verdict::Ok
            );
            assert_eq!(
                verdict_of(metric, &STEADY, &scaled(metric, false, 0.2)),
                Verdict::Ok
            );
        }
        // samples_per_s: higher is better, so the directions flip.
        let metric = "samples_per_s";
        assert_eq!(
            verdict_of(metric, &STEADY, &scaled(metric, true, 0.02)),
            Verdict::Ok
        );
        assert_eq!(
            verdict_of(metric, &STEADY, &scaled(metric, false, 0.02)),
            Verdict::Regression
        );
        assert_eq!(
            verdict_of(metric, &STEADY, &scaled(metric, false, -0.02)),
            Verdict::Ok
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        // Quartile distance 30% of the median: wider than any bound.
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            verdict_of("reply_tail_ms", &noisy, &STEADY),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict_of("reply_tail_ms", &STEADY, &noisy),
            Verdict::Unresolved
        );
    }

    #[test]
    fn per_layer_metrics_have_no_verdict() {
        assert_eq!(
            verdict_of("stream.durable_ns_per_sample", &[1.0, 2.0], &[5.0, 6.0]),
            Verdict::Unbounded
        );
    }

    #[test]
    fn rows_pair_up_by_workload_and_metric() {
        let a = read_runs(
            &(runs("firehose", "reply_tail_ms", &[1.0, 2.0, 3.0])
                + &runs("dashboard", "reply_tail_ms", &[7.0])),
        )
        .unwrap();
        let b = read_runs(&runs("firehose", "reply_tail_ms", &[2.0, 2.0, 2.0])).unwrap();
        let rows = compare(&a, &b);
        assert_eq!(rows.len(), 1, "dashboard has no B side");
        assert_eq!(rows[0].a, (1.0, 2.0, 3.0, 3));
        assert_eq!(rows[0].b.1, 2.0);
        assert!(render(&rows).contains("unresolved"));
        assert!(read_runs("{\"metrics\": {}}").is_err());
        assert!(read_runs("not json").is_err());
    }
}
