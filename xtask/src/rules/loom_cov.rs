//! Rule `loom-coverage`: no unmodeled lock-free code.
//!
//! Modeled on `taxonomy`: every library
//! file that *owns* concurrency state — an `Atomic*` type or an
//! `UnsafeCell` outside `#[cfg(test)]` — must be mapped in [`MODEL_MAP`]
//! to a named loom model test, and every mapped test must actually exist
//! under the expected name. New lock-free code therefore cannot land
//! without a model, and a renamed model cannot silently detach from the
//! file it covers. Files that merely *operate on* atomics owned elsewhere
//! (e.g. bumping a counter through a shared reference) are covered by the
//! owning file's model and do not trigger.

use crate::findings::{Finding, Rule};
use crate::scan::Source;

/// lib file → (loom test file, named model test fn) mapping. Entries whose
/// lib file does not exist in the tree being linted are skipped, so lint
/// fixtures with synthetic workspaces are not forced to carry the repo's
/// models.
pub const MODEL_MAP: &[(&str, &str, &str)] = &[
    (
        "crates/detect/src/engine/scheduler.rs",
        "crates/detect/tests/loom_pool.rs",
        "every_task_runs_exactly_once_under_all_interleavings",
    ),
    (
        "crates/server/src/queue.rs",
        "crates/server/tests/loom_queue.rs",
        "handoff_queue_delivers_every_item_under_all_interleavings",
    ),
    (
        "crates/server/src/lib.rs",
        "crates/server/tests/loom_queue.rs",
        "drain_unblocks_parked_workers_under_all_interleavings",
    ),
    // Mutex-only, so nothing triggers it — mapped so the model that walks
    // the registry's map and per-plant locks cannot be renamed away.
    (
        "crates/stream/src/tenant.rs",
        "crates/service/tests/loom_registry.rs",
        "ingest_finish_and_admit_on_one_plant_conserve_samples_under_all_interleavings",
    ),
];

/// The first non-test line where the file declares concurrency state
/// (an `Atomic*` type name or `UnsafeCell`), if any.
pub fn trigger_line(src: &Source) -> Option<usize> {
    let bytes = src.masked.as_bytes();
    let mut best: Option<usize> = None;
    for token in ["Atomic", "UnsafeCell"] {
        let mut search = 0;
        while let Some(rel) = src.masked[search..].find(token) {
            let at = search + rel;
            search = at + token.len();
            if at > 0 && is_ident(bytes[at - 1]) {
                continue;
            }
            if token == "Atomic" {
                // A type name: `Atomic` followed by an uppercase letter
                // (AtomicBool, AtomicUsize, …), not the bare word in an
                // identifier like `atomic_rename`.
                if !bytes
                    .get(at + token.len())
                    .is_some_and(u8::is_ascii_uppercase)
                {
                    continue;
                }
            } else if bytes.get(at + token.len()).is_some_and(|&b| is_ident(b)) {
                continue;
            }
            if src.offset_in_test(at) {
                continue;
            }
            let line = src.line_of(at);
            best = Some(best.map_or(line, |b| b.min(line)));
        }
    }
    best
}

/// Cross-checks triggering files against [`MODEL_MAP`]. `exists` answers
/// whether a workspace-relative path is present; `read` returns a file's
/// text (empty when missing).
pub fn check(
    triggers: &[(String, usize)],
    exists: &dyn Fn(&str) -> bool,
    read: &dyn Fn(&str) -> String,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (file, line) in triggers {
        if MODEL_MAP.iter().any(|(lib, _, _)| lib == file) {
            continue;
        }
        out.push(Finding {
            rule: Rule::LoomCoverage,
            file: file.clone(),
            line: *line,
            excerpt: "atomics/UnsafeCell without a loom model".to_string(),
            message: "file owns concurrency state but maps to no loom model test; add a \
                      model and a MODEL_MAP entry in xtask/src/rules/loom_cov.rs"
                .to_string(),
        });
    }
    for (lib, test_file, test_fn) in MODEL_MAP {
        if !exists(lib) {
            continue;
        }
        let text = read(test_file);
        if text.is_empty() {
            out.push(Finding {
                rule: Rule::LoomCoverage,
                file: (*test_file).to_string(),
                line: 1,
                excerpt: format!("mapped from {lib}"),
                message: "loom model file named in MODEL_MAP is missing".to_string(),
            });
        } else if !text.contains(&format!("fn {test_fn}")) {
            out.push(Finding {
                rule: Rule::LoomCoverage,
                file: (*test_file).to_string(),
                line: 1,
                excerpt: format!("expected `fn {test_fn}`"),
                message: format!(
                    "loom model for {lib} lost its named test fn (renamed without \
                     updating MODEL_MAP?)"
                ),
            });
        }
    }
    out
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trig(text: &str) -> Option<usize> {
        trigger_line(&Source::new("f.rs", text))
    }

    #[test]
    fn atomic_types_and_unsafecell_trigger() {
        assert_eq!(trig("use std::sync::atomic::AtomicUsize;\n"), Some(1));
        assert_eq!(trig("fn f() {}\nstruct S { c: UnsafeCell<u64> }"), Some(2));
        assert_eq!(trig("static N: AtomicU64 = AtomicU64::new(0);"), Some(1));
    }

    #[test]
    fn prose_tests_and_op_only_files_do_not_trigger() {
        // Comment mention is masked; `atomic_rename` is not a type; an
        // op through a reference does not *own* state.
        assert_eq!(trig("/// Atomically renames.\nfn atomic_rename() {}"), None);
        assert_eq!(
            trig("fn lib() {}\n#[cfg(test)]\nmod t { use std::sync::atomic::AtomicBool; }"),
            None
        );
        assert_eq!(
            trig("fn bump(s: &Shared) { s.n.fetch_add(1, Ordering::Relaxed); }"),
            None
        );
    }

    #[test]
    fn unmapped_trigger_is_a_finding() {
        let triggers = vec![("crates/new/src/lockfree.rs".to_string(), 7)];
        let findings = check(&triggers, &|_| true, &|_| "fn anything".to_string());
        assert!(findings
            .iter()
            .any(|f| f.file == "crates/new/src/lockfree.rs" && f.line == 7));
        assert!(findings.iter().all(|f| f.rule == Rule::LoomCoverage));
    }

    #[test]
    fn mapped_file_requires_the_named_test_fn() {
        let triggers = vec![("crates/server/src/queue.rs".to_string(), 1)];
        // The model file exists and has the named fn: clean.
        let ok = check(&triggers, &|p| p == "crates/server/src/queue.rs", &|p| {
            if p == "crates/server/tests/loom_queue.rs" {
                "fn handoff_queue_delivers_every_item_under_all_interleavings() {}".to_string()
            } else {
                String::new()
            }
        });
        assert!(ok.is_empty());
        // The model file lost the fn: finding.
        let bad = check(&triggers, &|p| p == "crates/server/src/queue.rs", &|p| {
            if p == "crates/server/tests/loom_queue.rs" {
                "fn renamed() {}".to_string()
            } else {
                String::new()
            }
        });
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("named test fn"));
    }

    #[test]
    fn absent_lib_files_skip_the_map_side() {
        // A fixture workspace without the repo's crates must not be
        // forced to carry its loom models.
        let findings = check(&[], &|_| false, &|_| String::new());
        assert!(findings.is_empty());
    }
}
