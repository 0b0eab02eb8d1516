//! `cargo xtask lint` — repo-specific static analysis.
//!
//! Nine rule families keep the reproduction faithful and production-safe
//! (DESIGN.md §4.12, §4.17): `nan-cmp` (no force-unwrapped `partial_cmp`),
//! `panic-site` (no panic surface in library code), `taxonomy`
//! (Table 1 ↔ registry ↔ engine catalog ↔ tests ↔ docs cross-check),
//! `zero-copy` (no deep series copies on the data-plane hot paths),
//! `unsafe-audit` (every `unsafe` carries a `// SAFETY:` invariant),
//! `atomic-ordering` (an inventory of every atomic op; `SeqCst` needs an
//! `// ORDERING:` justification), `lock-order` (whole-repo lock graph,
//! ABBA cycles are hard failures), `loom-coverage` (every file owning
//! atomics/`UnsafeCell` maps to a named loom model test), and
//! `workflow-yaml` (no plain scalar in `.github/workflows/*` holds `: ` or
//! ` #`, which would stop the workflow from parsing).
//! Findings are machine-readable ([`Finding`]), and every rule is a hard
//! gate: the tree is clean iff a run reports no finding at all.
//!
//! [`reach`] is the other gate, `cargo xtask reach`: the library `pub`
//! items that only tests reach, or that only their own crate names, must
//! be exactly a checked-in keep-list.

#![forbid(unsafe_code)]

pub mod findings;
pub mod reach;
pub mod rules;
pub mod scan;

pub use findings::{Finding, Rule};
pub use scan::Source;

use std::fs;
use std::path::{Path, PathBuf};

use rules::atomic::AtomicSite;
use rules::lockorder::{LockEdge, LockScan};
use rules::taxonomy::{TaxonomyInputs, CATALOG, COVERAGE, DESIGN, REGISTRY};

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

/// Appends every `.rs` file under `dir` to `out`, in directory order.
pub(crate) fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
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

/// The CI workflow files, `.github/workflows/*.yml` and `*.yaml`, in
/// name order; none when the directory is absent.
fn workflow_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let dir = root.join(".github/workflows");
    if !dir.is_dir() {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "yml" || e == "yaml") {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// The result of a lint run.
#[derive(Debug)]
pub struct Report {
    /// Every finding; each one fails the lint.
    pub findings: Vec<Finding>,
    /// Every atomic op in non-test library code, with its orderings (the
    /// `atomic-ordering` inventory, for the JSON report).
    pub atomics: Vec<AtomicSite>,
    /// Every edge of the lock graph (`held` → `acquired under it`),
    /// observed or declared.
    pub lock_edges: Vec<LockEdge>,
}

impl Report {
    /// Whether the tree is clean: no rule reported anything.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
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
pub fn run_lint(root: &Path) -> std::io::Result<Report> {
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
    for path in workflow_files(root)? {
        let relpath = rel(root, &path);
        findings.extend(rules::workflow_yaml::check(
            &relpath,
            &fs::read_to_string(&path)?,
        ));
    }
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

/// The workspace root: the parent of this crate's manifest directory.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}
