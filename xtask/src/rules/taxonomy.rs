//! Rule `taxonomy`: the paper's Table 1 and the code must not drift apart.
//!
//! The Table-1 registry (`crates/detect/src/registry.rs`) is the single
//! source of truth for the 21 techniques; this rule statically cross-checks
//! that each row (and each supplemental catalog entry):
//!
//! 1. declares a `build:` constructor whose `fn` exists in the same file
//!    (the engine catalog entry),
//! 2. is named in the static coverage list of
//!    `crates/detect/tests/engine_spec_props.rs` (so the property suite
//!    demonstrably exercises it), and
//! 3. is named in `DESIGN.md` (so the documented taxonomy matches).
//!
//! It also pins the registry's cardinality at the paper's 21 rows.

use crate::findings::{Finding, Rule};

/// Paths of the four cross-checked files, workspace-relative.
pub const REGISTRY: &str = "crates/detect/src/registry.rs";
/// The supplemental engine catalog.
pub const CATALOG: &str = "crates/detect/src/engine/catalog.rs";
/// The property-test coverage list.
pub const COVERAGE: &str = "crates/detect/tests/engine_spec_props.rs";
/// The design document naming every technique.
pub const DESIGN: &str = "DESIGN.md";

/// The file contents the cross-check runs over (injected so fixtures can
/// drive the rule in unit tests).
#[derive(Debug)]
pub struct TaxonomyInputs<'a> {
    /// `registry.rs` text.
    pub registry: &'a str,
    /// `catalog.rs` text.
    pub catalog: &'a str,
    /// `engine_spec_props.rs` text.
    pub coverage: &'a str,
    /// `DESIGN.md` text.
    pub design: &'a str,
}

/// One parsed `RegistryEntry { .. key: "..", build: .., .. }` literal.
#[derive(Debug)]
struct EntryRef {
    key: String,
    build: Option<String>,
    line: usize,
}

/// Extracts `key: "..."` / `build: ident` pairs from registry-entry
/// literals, with the key's 1-based line.
fn entries(text: &str) -> Vec<EntryRef> {
    let mut out = Vec::new();
    let mut search = 0;
    while let Some(rel) = text[search..].find("key:") {
        let at = search + rel;
        search = at + 4;
        let rest = &text[at + 4..];
        // Only `key: "literal"` counts — skip the struct field declaration
        // (`pub key: &'static str`) and other non-literal uses.
        let value_at = rest.len() - rest.trim_start().len();
        if !rest[value_at..].starts_with('"') {
            continue;
        }
        let q1 = value_at;
        let Some(q2) = rest[q1 + 1..].find('"') else {
            continue;
        };
        let key = rest[q1 + 1..q1 + 1 + q2].to_string();
        // The `build:` field of the same entry literal sits within the next
        // few fields; the entry ends at the closing `}` / next `key:`.
        let window_end = rest.find("key:").unwrap_or(rest.len());
        let build = rest[..window_end].find("build:").map(|b| {
            rest[b + 6..]
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect::<String>()
        });
        out.push(EntryRef {
            key,
            build,
            line: text[..at].bytes().filter(|&b| b == b'\n').count() + 1,
        });
    }
    out
}

fn finding(file: &str, line: usize, excerpt: &str, message: String) -> Finding {
    Finding {
        rule: Rule::Taxonomy,
        file: file.to_string(),
        line,
        excerpt: excerpt.to_string(),
        message,
    }
}

/// Runs the cross-check.
pub fn check(inputs: &TaxonomyInputs<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    let registry_entries = entries(inputs.registry);
    let catalog_entries = entries(inputs.catalog);

    if registry_entries.len() != 21 {
        out.push(finding(
            REGISTRY,
            1,
            "",
            format!(
                "Table-1 registry must hold exactly the paper's 21 rows; found {}",
                registry_entries.len()
            ),
        ));
    }

    for (file, text, list) in [
        (REGISTRY, inputs.registry, &registry_entries),
        (CATALOG, inputs.catalog, &catalog_entries),
    ] {
        for e in list.iter() {
            let excerpt = format!("key: \"{}\"", e.key);
            match &e.build {
                None => out.push(finding(
                    file,
                    e.line,
                    &excerpt,
                    format!("registry entry `{}` declares no build: constructor", e.key),
                )),
                Some(b) => {
                    if !text.contains(&format!("fn {b}")) {
                        out.push(finding(
                            file,
                            e.line,
                            &excerpt,
                            format!(
                                "entry `{}` references build fn `{b}` which is not defined \
                                 in {file}",
                                e.key
                            ),
                        ));
                    }
                }
            }
            let quoted = format!("\"{}\"", e.key);
            if !inputs.coverage.contains(&quoted) {
                out.push(finding(
                    file,
                    e.line,
                    &excerpt,
                    format!(
                        "key `{}` is missing from the COVERED_KEYS list in {COVERAGE}",
                        e.key
                    ),
                ));
            }
            if !inputs.design.contains(&format!("`{}`", e.key)) {
                out.push(finding(
                    file,
                    e.line,
                    &excerpt,
                    format!(
                        "key `{}` is not named in {DESIGN} (registry key index)",
                        e.key
                    ),
                ));
            }
        }
    }

    // The coverage list must not name keys that no longer exist (stale
    // coverage reads as tested when nothing runs).
    if let Some(at) = inputs.coverage.find("COVERED_KEYS") {
        let live: Vec<&str> = registry_entries
            .iter()
            .chain(catalog_entries.iter())
            .map(|e| e.key.as_str())
            .collect();
        let tail = &inputs.coverage[at..];
        // Skip past the `=` so the `;` inside a `[&str; N]` type annotation
        // doesn't truncate the initializer.
        let body = &tail[tail.find('=').map(|e| e + 1).unwrap_or(0)..];
        let end = body.find(';').unwrap_or(body.len());
        let mut rest = &body[..end];
        while let Some(q1) = rest.find('"') {
            let Some(q2) = rest[q1 + 1..].find('"') else {
                break;
            };
            let name = &rest[q1 + 1..q1 + 1 + q2];
            if !live.contains(&name) {
                out.push(finding(
                    COVERAGE,
                    inputs.coverage[..at]
                        .bytes()
                        .filter(|&b| b == b'\n')
                        .count()
                        + 1,
                    "COVERED_KEYS",
                    format!("coverage list names `{name}`, which no registry/catalog entry has"),
                ));
            }
            rest = &rest[q1 + 1 + q2 + 1..];
        }
    } else {
        out.push(finding(
            COVERAGE,
            1,
            "",
            format!("{COVERAGE} carries no COVERED_KEYS coverage list"),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD_REGISTRY: &str = r#"
        fn build_ar(s: &AlgoSpec) -> Result<BoxedScorer> { todo() }
        pub fn registry() -> Vec<RegistryEntry> {
            vec![RegistryEntry { key: "ar", params: &["order"], build: build_ar }]
        }
    "#;
    const GOOD_COVERAGE: &str = "const COVERED_KEYS: [&str; 1] = [\"ar\"];";
    const GOOD_DESIGN: &str = "| `ar` | Autoregressive Model |";

    fn run(registry: &str, catalog: &str, coverage: &str, design: &str) -> Vec<Finding> {
        check(&TaxonomyInputs {
            registry,
            catalog,
            coverage,
            design,
        })
    }

    #[test]
    fn consistent_inputs_pass_except_cardinality() {
        let f = run(GOOD_REGISTRY, "", GOOD_COVERAGE, GOOD_DESIGN);
        // The only complaint is the 21-row pin (the fixture has 1 row).
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("21 rows"));
    }

    #[test]
    fn missing_build_fn_is_flagged() {
        let reg = r#"vec![RegistryEntry { key: "ar", build: build_missing }]"#;
        let f = run(reg, "", GOOD_COVERAGE, GOOD_DESIGN);
        assert!(f
            .iter()
            .any(|f| f.message.contains("build fn `build_missing`")));
    }

    #[test]
    fn key_absent_from_coverage_or_design_is_flagged() {
        let f = run(
            GOOD_REGISTRY,
            "",
            "const COVERED_KEYS: [&str; 0] = [];",
            GOOD_DESIGN,
        );
        assert!(f.iter().any(|f| f.message.contains("COVERED_KEYS")));
        let f = run(GOOD_REGISTRY, "", GOOD_COVERAGE, "no keys here");
        assert!(f.iter().any(|f| f.message.contains("DESIGN.md")));
    }

    #[test]
    fn stale_coverage_key_is_flagged() {
        let cov = "const COVERED_KEYS: [&str; 2] = [\"ar\", \"ghost\"];";
        let f = run(GOOD_REGISTRY, "", cov, GOOD_DESIGN);
        assert!(f.iter().any(|f| f.message.contains("`ghost`")));
    }

    #[test]
    fn missing_coverage_list_is_flagged() {
        let f = run(GOOD_REGISTRY, "", "", GOOD_DESIGN);
        assert!(f.iter().any(|f| f.message.contains("no COVERED_KEYS")));
    }
}
