//! Rule `zero-copy`: the data-plane hot paths must not deep-copy series.
//!
//! PR 2 rebuilt `TimeSeries` on shared `Arc` storage so level-view
//! materialization and window scoring are O(1) per series; this rule is the
//! structured successor to the old CI grep gate (`series: s.clone()` in
//! `view.rs`). In the listed hot-path files it flags:
//!
//! * `.to_vec()` on a series-shaped receiver (`series`, `storage`, `values`,
//!   `timestamps`, or the conventional series binding `s`) or on any call or
//!   index expression (`at.series.timestamps().to_vec()`,
//!   `values[a..b].to_vec()`) — a window/row/storage materialization, and
//! * `.clone()` on series-shaped receivers — shared-storage handles must be
//!   propagated with `.share()` so intent stays explicit.
//!
//! Identifier copies (`machine_id.clone()`, `job.id.clone()`, a control
//! event's `sensors.to_vec()` inventory) are cheap and deliberate; a plain
//! binding that is not series-shaped does not match the receiver test.

use crate::findings::{Finding, Rule};
use crate::scan::Source;

/// The hot-path files the rule applies to (workspace-relative).
pub const HOT_PATHS: [&str; 5] = [
    "crates/hierarchy/src/view.rs",
    "crates/detect/src/adapt.rs",
    "crates/stream/src/detector.rs",
    "crates/core/src/detect_level.rs",
    "crates/server/src/conn.rs",
];

/// Receiver names treated as series storage.
const SERIES_RECEIVERS: [&str; 5] = ["series", "storage", "values", "timestamps", "s"];

/// Scans one hot-path source file (non-test code).
pub fn check(src: &Source) -> Vec<Finding> {
    let mut out = Vec::new();
    let to_vec = "hot path materializes a copy with .to_vec(); borrow a view/slice instead";
    let clone = "series storage is deep-cloned; propagate the Arc with .share()";
    scan_method(src, ".to_vec()", true, to_vec, &mut out);
    scan_method(src, ".clone()", false, clone, &mut out);
    out.sort_by_key(|f| f.line);
    out
}

/// Finds `receiver.method()` occurrences whose last receiver path segment
/// is series-shaped; with `expressions`, a receiver that is no plain
/// binding at all (a call or index expression) matches too.
fn scan_method(
    src: &Source,
    method: &str,
    expressions: bool,
    message: &str,
    out: &mut Vec<Finding>,
) {
    let masked = &src.masked;
    let mut search = 0;
    while let Some(rel) = masked[search..].find(method) {
        let at = search + rel;
        search = at + method.len();
        if src.offset_in_test(at) {
            continue;
        }
        let receiver = last_path_segment(&masked[..at]);
        let matches = if receiver.is_empty() {
            expressions
        } else {
            SERIES_RECEIVERS.contains(&receiver.as_str())
        };
        if !matches {
            continue;
        }
        out.push(Finding {
            rule: Rule::ZeroCopy,
            file: src.path.clone(),
            line: src.line_of(at),
            excerpt: src.excerpt(at),
            message: message.to_string(),
        });
    }
}

/// The identifier directly before a method call: `a.b.series` → `series`.
fn last_path_segment(prefix: &str) -> String {
    prefix
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(text: &str) -> Vec<Finding> {
        check(&Source::new("crates/hierarchy/src/view.rs", text))
    }

    #[test]
    fn flags_series_clone_and_to_vec() {
        assert_eq!(
            findings("let v = SensorView { series: s.clone() };").len(),
            1
        );
        assert_eq!(findings("let c = job.series.clone();").len(), 1);
        assert_eq!(findings("let w = window.values().to_vec();").len(), 1);
        assert_eq!(findings("let w = pipe.timestamps.to_vec();").len(), 1);
        assert_eq!(findings("let w = raw[start..].to_vec();").len(), 1);
    }

    #[test]
    fn accepts_share_and_identifier_clones() {
        assert!(findings("let v = SensorView { series: s.share() };").is_empty());
        assert!(findings("let m = line.machine_id.clone();").is_empty());
        assert!(findings("let j = job.id.clone();").is_empty());
        assert!(findings("let inventory = sensors.to_vec();").is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn t() { let c = s.clone(); } }\n";
        assert!(findings(src).is_empty());
    }
}
