//! End-to-end lint behaviour over synthetic workspaces: every rule is a
//! hard gate, so a single finding of any rule fails the lint and fixing it
//! makes the tree clean again. A final test pins the real repository at
//! zero findings.

use std::fs;
use std::path::{Path, PathBuf};

use xtask::{run_lint, workspace_root, Rule};

/// A throwaway workspace under the target-adjacent temp dir.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Self {
        let root = std::env::temp_dir().join(format!("xtask-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let f = Self { root };
        f.write_consistent_taxonomy();
        f
    }

    fn write(&self, rel: &str, text: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(path, text).expect("write fixture");
    }

    /// A registry/catalog/coverage/design quartet that satisfies the
    /// `taxonomy` rule (21 keys, build fns in-file, covered, documented).
    fn write_consistent_taxonomy(&self) {
        let keys: Vec<String> = (0..21).map(|i| format!("algo-{i}")).collect();
        let mut registry = String::new();
        for k in &keys {
            let f = k.replace('-', "_");
            registry.push_str(&format!("fn build_{f}() {{}}\n"));
            registry.push_str(&format!(
                "RegistryEntry {{ key: \"{k}\", build: build_{f} }}\n"
            ));
        }
        let covered: Vec<String> = keys.iter().map(|k| format!("\"{k}\"")).collect();
        let coverage = format!(
            "const COVERED_KEYS: [&str; 21] = [{}];\n",
            covered.join(", ")
        );
        let design: Vec<String> = keys.iter().map(|k| format!("`{k}`")).collect();
        self.write("crates/detect/src/registry.rs", &registry);
        self.write("crates/detect/src/engine/catalog.rs", "");
        self.write("crates/detect/tests/engine_spec_props.rs", &coverage);
        self.write("DESIGN.md", &design.join(", "));
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

const BAD_LIB: &str = "pub fn f(xs: &mut [f64]) -> f64 {\n\
     xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
     *xs.first().unwrap()\n\
}\n";

/// The rules whose findings `report` holds, in order, deduplicated.
fn rules_of(report: &xtask::Report) -> Vec<Rule> {
    let mut rules: Vec<Rule> = report.findings.iter().map(|f| f.rule).collect();
    rules.dedup();
    rules
}

#[test]
fn any_single_finding_fails_and_fixing_it_cleans_the_tree() {
    let fx = Fixture::new("gate");
    assert!(run_lint(&fx.root).expect("lint").clean());

    fx.write("crates/detect/src/da/bad.rs", BAD_LIB);
    let out = run_lint(&fx.root).expect("lint");
    assert!(!out.clean());
    assert_eq!(rules_of(&out), [Rule::NanCmp, Rule::PanicSite]);

    // One panic site alone fails: there is no budget to absorb it.
    fx.write(
        "crates/detect/src/da/bad.rs",
        "pub fn g(v: &[f64]) -> f64 { v[0] }\n",
    );
    let out = run_lint(&fx.root).expect("lint");
    assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
    assert!(!out.clean());

    fx.write(
        "crates/detect/src/da/bad.rs",
        "pub fn g(v: &[f64]) -> f64 { v.first().copied().unwrap_or(0.0) }\n",
    );
    assert!(run_lint(&fx.root).expect("lint").clean());
}

#[test]
fn zero_copy_finding_fails_the_lint() {
    let fx = Fixture::new("zerocopy");
    fx.write(
        "crates/detect/src/adapt.rs",
        "pub fn embed(values: &[f64]) -> Vec<f64> {\n    values.to_vec()\n}\n",
    );
    let out = run_lint(&fx.root).expect("lint");
    assert_eq!(rules_of(&out), [Rule::ZeroCopy]);
    assert!(!out.clean());
}

#[test]
fn taxonomy_drift_fails_the_lint() {
    let fx = Fixture::new("taxonomy");
    // Break the cross-check: one key vanishes from the coverage list.
    fx.write(
        "crates/detect/tests/engine_spec_props.rs",
        "const COVERED_KEYS: [&str; 1] = [\"algo-0\"];\n",
    );
    let out = run_lint(&fx.root).expect("lint");
    assert_eq!(rules_of(&out), [Rule::Taxonomy]);
    assert!(!out.clean());
}

#[test]
fn unsafe_audit_flags_only_uncommented_blocks() {
    let fx = Fixture::new("unsafe");
    fx.write(
        "crates/detect/src/da/raw.rs",
        "pub fn f(p: *const u8) -> u8 {\n\
         \x20   // SAFETY: the caller passes a valid, aligned pointer.\n\
         \x20   unsafe { *p }\n\
         }\n\
         pub fn g(p: *const u8) -> u8 {\n\
         \x20   unsafe { *p }\n\
         }\n",
    );
    let out = run_lint(&fx.root).expect("lint");
    let hits: Vec<_> = out
        .findings
        .iter()
        .filter(|f| f.rule == Rule::UnsafeAudit)
        .collect();
    assert_eq!(hits.len(), 1, "only the SAFETY-less block: {hits:?}");
    assert_eq!(hits[0].line, 6);
    assert!(!out.clean());
}

#[test]
fn atomic_ordering_inventories_ops_and_gates_seqcst() {
    let fx = Fixture::new("atomics");
    fx.write(
        "crates/stream/src/flag.rs",
        "pub fn publish(f: &AtomicBool) {\n\
         \x20   f.store(true, Ordering::Release);\n\
         }\n\
         pub fn handshake(f: &AtomicBool) -> bool {\n\
         \x20   // ORDERING: Dekker-style flag pair needs a total store order.\n\
         \x20   f.swap(true, Ordering::SeqCst)\n\
         }\n\
         pub fn sloppy(f: &AtomicBool) -> bool {\n\
         \x20   f.load(Ordering::SeqCst)\n\
         }\n",
    );
    let out = run_lint(&fx.root).expect("lint");
    // The inventory carries every op with its orderings.
    let ops: Vec<&str> = out.atomics.iter().map(|a| a.op.as_str()).collect();
    assert_eq!(ops, ["store", "swap", "load"]);
    // Only the unjustified SeqCst is a finding.
    let hits: Vec<_> = out
        .findings
        .iter()
        .filter(|f| f.rule == Rule::AtomicOrdering)
        .collect();
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].line, 9);
    // The file holds an AtomicBool with no loom model mapped: the
    // coverage gate fires too.
    assert_eq!(rules_of(&out), [Rule::AtomicOrdering, Rule::LoomCoverage]);
    assert!(!out.clean());
}

#[test]
fn lock_order_cycles_fail_the_lint() {
    let fx = Fixture::new("lockorder");
    fx.write(
        "crates/store/src/ab.rs",
        "pub fn ab(&self) {\n\
         \x20   let a = self.wal.lock();\n\
         \x20   let b = self.index.lock();\n\
         \x20   drop(b);\n\
         \x20   drop(a);\n\
         }\n",
    );
    fx.write(
        "crates/store/src/ba.rs",
        "pub fn ba(&self) {\n\
         \x20   let b = self.index.lock();\n\
         \x20   let a = self.wal.lock();\n\
         \x20   drop(a);\n\
         \x20   drop(b);\n\
         }\n",
    );
    let out = run_lint(&fx.root).expect("lint");
    assert!(
        out.findings.iter().any(|f| f.rule == Rule::LockOrder),
        "ABBA across files must surface: {:?}",
        out.findings
    );
    assert!(!out.clean());
}

/// The serving path's order is cache slot → registry map → tenant slot.
/// A fixture shaped like the real code — the map → slot nesting of
/// `admit_tenant`, and a cache slot held across a service call whose
/// locks are declared with `// LOCKS:` — is clean; taking the map under
/// a tenant's slot, or a cache slot under the map, closes a cycle.
#[test]
fn lock_order_rejects_acquiring_leftwards_of_the_serving_order() {
    let registry = "pub fn admit(&self) {\n\
         \x20   let mut plants = lock(&self.plants);\n\
         \x20   let mut seat = lock(&slot);\n\
         \x20   drop(plants);\n\
         }\n";
    let server = "fn tick(state: &State) {\n\
         \x20   let mut cache = lock(&cached);\n\
         \x20   // LOCKS: crates/stream::plants, crates/stream::slot\n\
         \x20   state.service.tick(plant);\n\
         }\n";
    let lock_findings = |fx: &Fixture| -> Vec<String> {
        let out = run_lint(&fx.root).expect("lint");
        let hits = out.findings.into_iter();
        hits.filter(|f| f.rule == Rule::LockOrder)
            .map(|f| format!("{}:{} {}", f.file, f.line, f.excerpt))
            .collect()
    };

    let fx = Fixture::new("lockorder-serving");
    fx.write("crates/stream/src/tenant.rs", registry);
    fx.write("crates/server/src/conn.rs", server);
    assert_eq!(lock_findings(&fx), Vec::<String>::new());
    let out = run_lint(&fx.root).expect("lint");
    let edges: Vec<_> = out.lock_edges.iter().map(|e| (&*e.from, &*e.to)).collect();
    assert_eq!(
        edges,
        [
            ("crates/server::cached", "crates/stream::plants"),
            ("crates/server::cached", "crates/stream::slot"),
            ("crates/stream::plants", "crates/stream::slot"),
        ]
    );

    // Tenant → map: a by-id call that re-enters the map under its slot.
    fx.write(
        "crates/stream/src/inverted.rs",
        "pub fn relookup(&self) {\n\
         \x20   let seat = lock(&slot);\n\
         \x20   let plants = lock(&self.plants);\n\
         }\n",
    );
    let found = lock_findings(&fx);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].contains("crates/stream::plants -> crates/stream::slot"));
    fs::remove_file(fx.root.join("crates/stream/src/inverted.rs")).expect("remove");

    // Map → cache slot, across crates: only the declaration can say so.
    fx.write(
        "crates/stream/src/inverted.rs",
        "pub fn notify(&self) {\n\
         \x20   let plants = lock(&self.plants);\n\
         \x20   // LOCKS: crates/server::cached\n\
         \x20   (self.on_change)();\n\
         }\n",
    );
    let found = lock_findings(&fx);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].contains("crates/server::cached -> crates/stream::plants"));
    fs::remove_file(fx.root.join("crates/stream/src/inverted.rs")).expect("remove");

    // A declaration that outlived a rename is itself a finding.
    fx.write(
        "crates/server/src/conn.rs",
        &server.replace("crates/stream::slot", "crates/stream::seat"),
    );
    let found = lock_findings(&fx);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].contains("// LOCKS: crates/stream::seat"));
}

/// The real tree's graph has every edge of the serving order DESIGN.md
/// §4.16 writes down (and, being clean, none that closes a cycle).
#[test]
fn repository_lock_graph_holds_the_serving_order() {
    let out = run_lint(&workspace_root()).expect("lint");
    for (from, to) in [
        ("crates/server::slot", "crates/stream::plants"),
        ("crates/server::slot", "crates/stream::slot"),
        ("crates/stream::plants", "crates/stream::slot"),
    ] {
        assert!(
            out.lock_edges.iter().any(|e| e.from == from && e.to == to),
            "missing {from} -> {to} in {:#?}",
            out.lock_edges
        );
    }
}

#[test]
fn loom_coverage_requires_the_named_model_test() {
    let fx = Fixture::new("loomcov");
    // An atomics-bearing file at a MODEL_MAP path, with no model file.
    fx.write(
        "crates/server/src/queue.rs",
        "pub struct Q { closed: AtomicBool }\n",
    );
    let out = run_lint(&fx.root).expect("lint");
    assert!(out.findings.iter().any(|f| f.rule == Rule::LoomCoverage));
    // The mapped model file must contain the named test fn...
    fx.write("crates/server/tests/loom_queue.rs", "fn unrelated() {}\n");
    let out = run_lint(&fx.root).expect("lint");
    assert!(out.findings.iter().any(|f| f.rule == Rule::LoomCoverage));
    // ...and once it does, the gate is satisfied.
    fx.write(
        "crates/server/tests/loom_queue.rs",
        "#[test]\nfn handoff_queue_delivers_every_item_under_all_interleavings() {}\n",
    );
    let out = run_lint(&fx.root).expect("lint");
    assert!(
        out.findings.iter().all(|f| f.rule != Rule::LoomCoverage),
        "{:?}",
        out.findings
    );
}

/// The step of `.github/workflows/ci.yml` (as of commit 7bce747) whose
/// unquoted name holds `locks: ingest`: a YAML parser stops there, so the
/// workflow did not run until the name was quoted.
const UNQUOTED_STEP: &str = "\
      - name: Loom model checks (registry map + per-plant locks: ingest × finish × admit)
        run: cargo test -q -p hierod-service --features loom --test loom_registry
";

#[test]
fn an_unquoted_workflow_scalar_holding_a_colon_fails_the_lint() {
    let fx = Fixture::new("workflow");
    let today = fs::read_to_string(workspace_root().join(".github/workflows/ci.yml"))
        .expect("the repository's workflow");
    fx.write(".github/workflows/ci.yml", &today);
    assert!(run_lint(&fx.root).expect("lint").clean());

    let broken = format!("{today}{UNQUOTED_STEP}");
    fx.write(".github/workflows/ci.yml", &broken);
    let out = run_lint(&fx.root).expect("lint");
    assert_eq!(rules_of(&out), [Rule::WorkflowYaml]);
    assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
    assert_eq!(out.findings[0].file, ".github/workflows/ci.yml");
    assert_eq!(out.findings[0].line, today.lines().count() + 1);

    // Quoted, it is the step name it reads as.
    let quoted = UNQUOTED_STEP
        .replacen("name: Loom", "name: \"Loom", 1)
        .replacen("admit)\n", "admit)\"\n", 1);
    fx.write(".github/workflows/ci.yml", &format!("{today}{quoted}"));
    assert!(run_lint(&fx.root).expect("lint").clean());
}

/// The real repository has zero findings of every rule — the same check
/// CI runs via `cargo xtask lint`.
#[test]
fn repository_has_zero_findings() {
    let out = run_lint(&workspace_root()).expect("lint");
    let rendered: Vec<String> = out.findings.iter().map(|f| f.render()).collect();
    assert!(out.clean(), "{}", rendered.join("\n"));
    // The concurrency sweep holds: the atomic inventory is populated and
    // no site in it needs SeqCst.
    assert!(
        !out.atomics.is_empty(),
        "atomic inventory must be populated"
    );
    assert!(out
        .atomics
        .iter()
        .all(|a| a.orderings.iter().all(|o| o != "SeqCst")));
}

/// Structured output stays machine-parseable (CI consumes it).
#[test]
fn findings_serialize_to_json() {
    let fx = Fixture::new("json");
    fx.write("crates/detect/src/da/bad.rs", BAD_LIB);
    let out = run_lint(&fx.root).expect("lint");
    let f = out
        .findings
        .iter()
        .find(|f| f.rule == Rule::NanCmp)
        .expect("nan finding");
    let json = f.to_json();
    assert!(json.contains("\"rule\":\"nan-cmp\""), "{json}");
    assert!(json.contains("\"file\":\"crates/detect/src/da/bad.rs\""));
}

/// `workspace_sources` must skip shims/ and xtask/ (their own fixtures are
/// deliberately bad) but cover every crate source.
#[test]
fn source_walk_scopes_to_crates() {
    let files = xtask::workspace_sources(&workspace_root()).expect("walk");
    assert!(files.iter().all(|p| {
        let s = p.to_string_lossy();
        !s.contains("/shims/") && !s.contains("/xtask/") && !s.contains("/target/")
    }));
    assert!(files
        .iter()
        .any(|p| p.ends_with(Path::new("crates/detect/src/engine/scheduler.rs"))));
}
