//! # hierod-bench
//!
//! Shared plumbing for the `repro_*` binaries (one per table/figure of the
//! paper, see EXPERIMENTS.md) and the criterion benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

use hierod_synth::ScenarioBuilder;

/// Renders a horizontal ASCII bar chart. `rows` are `(label, value)`;
/// `width` is the maximal bar length in characters.
pub fn ascii_bars(rows: &[(String, f64)], width: usize) -> String {
    let max = rows.iter().map(|(_, v)| *v).fold(0.0_f64, f64::max);
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, value) in rows {
        let bar_len = if max > 0.0 {
            ((value / max) * width as f64).round() as usize
        } else {
            0
        };
        out.push_str(&format!(
            "{label:<label_w$} | {} {value:.0}\n",
            "#".repeat(bar_len)
        ));
    }
    out
}

/// Renders a small ASCII line plot of a series (for Fig.-1 shapes):
/// `height` character rows, one column per (bucketed) sample.
pub fn ascii_plot(values: &[f64], width: usize, height: usize) -> String {
    if values.is_empty() || height == 0 || width == 0 {
        return String::new();
    }
    // Downsample to `width` columns by mean.
    let cols: Vec<f64> = (0..width.min(values.len()))
        .map(|c| {
            let lo = c * values.len() / width.min(values.len());
            let hi = ((c + 1) * values.len() / width.min(values.len())).max(lo + 1);
            values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect();
    let min = cols.iter().copied().fold(f64::INFINITY, f64::min);
    let max = cols.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-12);
    let mut grid = vec![vec![' '; cols.len()]; height];
    for (c, v) in cols.iter().enumerate() {
        let r = ((v - min) / span * (height - 1) as f64).round() as usize;
        grid[height - 1 - r][c] = '*';
    }
    let mut out = String::new();
    for row in grid {
        out.push_str(&row.into_iter().collect::<String>());
        out.push('\n');
    }
    out
}

/// The standard evaluation scenario used by `repro_alg1` / `repro_ablation`
/// (documented in EXPERIMENTS.md): 3 machines × 20 jobs, 3-fold redundancy,
/// 30 % of jobs carry one injection, half of those are measurement errors.
pub fn standard_scenario(seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::new(seed)
        .machines(3)
        .jobs_per_machine(20)
        .redundancy(3)
        .phase_samples(60)
        .anomaly_rate(0.3)
        .measurement_error_fraction(0.5)
        .magnitude_sigmas(12.0)
}

/// Formats an `Option<f64>` metric as a fixed-width cell.
pub fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.3}"),
        None => "  n/a".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_scale_to_max() {
        let rows = vec![("a".to_string(), 10.0), ("bb".to_string(), 5.0)];
        let s = ascii_bars(&rows, 10);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].matches('#').count() == 10);
        assert!(lines[1].matches('#').count() == 5);
        // Labels aligned.
        assert!(lines[0].starts_with("a  |"));
    }

    #[test]
    fn bars_handle_all_zero() {
        let rows = vec![("x".to_string(), 0.0)];
        let s = ascii_bars(&rows, 10);
        assert!(s.contains("x |  0"));
    }

    #[test]
    fn plot_has_requested_height() {
        let values: Vec<f64> = (0..100).map(|i| (i as f64 * 0.2).sin()).collect();
        let p = ascii_plot(&values, 40, 8);
        assert_eq!(p.lines().count(), 8);
        assert!(p.contains('*'));
        assert_eq!(ascii_plot(&[], 10, 5), "");
    }

    #[test]
    fn plot_marks_extremes_on_first_and_last_rows() {
        let values = vec![0.0, 1.0, 0.0, 1.0];
        let p = ascii_plot(&values, 4, 3);
        let lines: Vec<&str> = p.lines().collect();
        assert!(lines[0].contains('*')); // max row
        assert!(lines[2].contains('*')); // min row
    }

    #[test]
    fn standard_scenario_is_reproducible() {
        let a = standard_scenario(1).build();
        let b = standard_scenario(1).build();
        assert_eq!(a.plant, b.plant);
        assert_eq!(a.plant.machine_count(), 3);
        assert_eq!(a.plant.job_count(), 60);
    }

    #[test]
    fn fmt_opt_formats() {
        assert_eq!(fmt_opt(Some(0.5)), "0.500");
        assert_eq!(fmt_opt(None), "  n/a");
    }
}
