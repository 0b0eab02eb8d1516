//! `cargo xtask lint` — repo-specific static analysis.
//!
//! Eight rule families keep the reproduction faithful and production-safe
//! (DESIGN.md §4.12, §4.17): `nan-cmp` (no force-unwrapped `partial_cmp`),
//! `panic-site` (a shrinking panic surface in library code), `taxonomy`
//! (Table 1 ↔ registry ↔ engine catalog ↔ tests ↔ docs cross-check),
//! `zero-copy` (no deep series copies on the data-plane hot paths),
//! `unsafe-audit` (every `unsafe` carries a `// SAFETY:` invariant),
//! `atomic-ordering` (an inventory of every atomic op; `SeqCst` needs an
//! `// ORDERING:` justification), `lock-order` (whole-repo lock graph,
//! ABBA cycles are hard failures), and `loom-coverage` (every file owning
//! atomics/`UnsafeCell` maps to a named loom model test).
//! Findings are machine-readable ([`Finding`]); grandfathered sites live in
//! the committed count-ratchet allowlist `xtask/lint.allow`
//! ([`Allowlist`]).

#![forbid(unsafe_code)]

pub mod allowlist;
pub mod findings;
pub mod rules;
pub mod scan;

pub use allowlist::{Allowlist, Violation};
pub use findings::{Finding, Rule};
pub use scan::Source;

use std::fs;
use std::path::{Path, PathBuf};

use rules::atomic::AtomicSite;
use rules::lockorder::{LockEdge, LockScan};
use rules::taxonomy::{TaxonomyInputs, CATALOG, COVERAGE, DESIGN, REGISTRY};

/// Where the allowlist lives, workspace-relative.
pub const ALLOWLIST_PATH: &str = "xtask/lint.allow";

/// The crates whose library code is under the `panic-site` rule.
const PANIC_SCOPE: [&str; 15] = [
    "crates/detect/src/",
    "crates/core/src/",
    "crates/hierarchy/src/",
    "crates/timeseries/src/",
    "crates/stream/src/",
    "crates/store/src/",
    "crates/service/src/",
    "crates/wire/src/",
    "crates/server/src/",
    "crates/history/src/",
    "crates/olap/src/",
    "crates/eval/src/",
    "crates/synth/src/",
    "crates/corpus/src/",
    "crates/adapt/src/",
];

/// The crates under the `nan-cmp` rule (library *and* test code).
const NAN_SCOPE: [&str; 13] = [
    "crates/detect/",
    "crates/core/",
    "crates/stream/",
    "crates/store/",
    "crates/service/",
    "crates/wire/",
    "crates/server/",
    "crates/history/",
    "crates/olap/",
    "crates/eval/",
    "crates/synth/",
    "crates/corpus/",
    "crates/adapt/",
];

/// The result of a lint run.
#[derive(Debug)]
pub struct LintOutcome {
    /// Every raw finding, allowlisted or not.
    pub findings: Vec<Finding>,
    /// The atomic-operation inventory (every load/store/RMW/fence with
    /// the orderings it names), for the JSON report.
    pub atomics: Vec<AtomicSite>,
    /// The lock graph: every nested acquisition, observed or declared.
    pub lock_edges: Vec<LockEdge>,
    /// Ratchet violations after applying the allowlist.
    pub violations: Vec<Violation>,
}

impl LintOutcome {
    /// Whether the tree is clean under the committed allowlist.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Collects every `.rs` file under `crates/` and `src/`, workspace-relative
/// and `/`-separated, in deterministic order. `target/`, `shims/` (offline
/// dependency stand-ins), and `xtask/` (whose fixtures are deliberately
/// bad) are out of scope.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for top in ["crates", "src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Raw scan output: findings plus the atomic-op inventory.
#[derive(Debug)]
pub struct Report {
    /// Every raw finding, allowlisted or not.
    pub findings: Vec<Finding>,
    /// Every atomic op in non-test library code, with its orderings.
    pub atomics: Vec<AtomicSite>,
    /// Every edge of the lock graph (`held` → `acquired under it`).
    pub lock_edges: Vec<LockEdge>,
}

/// Whether a path is library/binary source (the concurrency rules' scope:
/// everything under a `src/` directory, but not integration tests or
/// benches, whose concurrency is the test harness's business).
fn in_src(relpath: &str) -> bool {
    relpath.starts_with("src/") || relpath.contains("/src/")
}

/// Runs every rule over the workspace at `root`.
///
/// # Errors
/// I/O errors reading sources (a cross-checked file that is *missing* is a
/// taxonomy finding, not an error).
pub fn collect_report(root: &Path) -> std::io::Result<Report> {
    let mut findings = Vec::new();
    let mut atomics = Vec::new();
    let mut locks = LockScan::default();
    let mut loom_triggers: Vec<(String, usize)> = Vec::new();
    for path in workspace_sources(root)? {
        let relpath = rel(root, &path);
        let text = fs::read_to_string(&path)?;
        let src = Source::new(relpath.clone(), text);
        if NAN_SCOPE.iter().any(|p| relpath.starts_with(p)) {
            findings.extend(rules::nan::check(&src));
        }
        if PANIC_SCOPE.iter().any(|p| relpath.starts_with(p)) {
            findings.extend(rules::panic::check(&src));
        }
        if rules::zerocopy::HOT_PATHS.contains(&relpath.as_str()) {
            findings.extend(rules::zerocopy::check(&src));
        }
        if in_src(&relpath) {
            findings.extend(rules::unsafe_audit::check(&src));
            let (sites, seqcst) = rules::atomic::check(&src);
            atomics.extend(sites);
            findings.extend(seqcst);
            let scan = rules::lockorder::scan(&src);
            locks.edges.extend(scan.edges);
            locks.acquired.extend(scan.acquired);
            locks.declared.extend(scan.declared);
            // Binaries (bench drivers, the CLI) are not lib code: their
            // atomics never cross a thread boundary an API user can hit.
            if !relpath.contains("/bin/") {
                if let Some(line) = rules::loom_cov::trigger_line(&src) {
                    loom_triggers.push((relpath.clone(), line));
                }
            }
        }
    }
    findings.extend(rules::lockorder::check(&locks.edges));
    findings.extend(rules::lockorder::check_declared(
        &locks.declared,
        &locks.acquired,
    ));
    let exists = |p: &str| root.join(p).is_file();
    let read = |p: &str| fs::read_to_string(root.join(p)).unwrap_or_default();
    findings.extend(rules::loom_cov::check(&loom_triggers, &exists, &read));
    let (registry, catalog, coverage, design) =
        (read(REGISTRY), read(CATALOG), read(COVERAGE), read(DESIGN));
    findings.extend(rules::taxonomy::check(&TaxonomyInputs {
        registry: &registry,
        catalog: &catalog,
        coverage: &coverage,
        design: &design,
    }));
    findings.sort_by(|a, b| (a.rule, &a.file, a.line).cmp(&(b.rule, &b.file, b.line)));
    atomics.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(Report {
        findings,
        atomics,
        lock_edges: locks.edges,
    })
}

/// Runs every rule over the workspace at `root`, returning raw findings.
///
/// # Errors
/// As [`collect_report`].
pub fn collect_findings(root: &Path) -> std::io::Result<Vec<Finding>> {
    collect_report(root).map(|r| r.findings)
}

/// Runs the lint against the committed allowlist.
///
/// # Errors
/// I/O failures, or a malformed allowlist (message describes the line).
pub fn run_lint(root: &Path) -> Result<LintOutcome, String> {
    let report = collect_report(root).map_err(|e| format!("scanning sources: {e}"))?;
    let allow_text = fs::read_to_string(root.join(ALLOWLIST_PATH)).unwrap_or_default();
    let allowlist = Allowlist::parse(&allow_text).map_err(|e| format!("{ALLOWLIST_PATH}: {e}"))?;
    let violations = allowlist.check(&report.findings);
    Ok(LintOutcome {
        findings: report.findings,
        atomics: report.atomics,
        lock_edges: report.lock_edges,
        violations,
    })
}

/// Rewrites the allowlist to exactly match the current findings (the
/// ratchet update after a burndown).
///
/// # Errors
/// I/O failures while scanning or writing.
pub fn update_allowlist(root: &Path) -> Result<usize, String> {
    let findings = collect_findings(root).map_err(|e| format!("scanning sources: {e}"))?;
    let text = Allowlist::render_for(&findings);
    fs::write(root.join(ALLOWLIST_PATH), text)
        .map_err(|e| format!("writing {ALLOWLIST_PATH}: {e}"))?;
    Ok(findings.iter().filter(|f| f.rule.allowlistable()).count())
}

/// The workspace root: the parent of this crate's manifest directory.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}
