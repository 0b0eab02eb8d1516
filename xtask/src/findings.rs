//! The machine-readable finding type shared by every lint rule.

use std::fmt;

/// The rule families of `cargo xtask lint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// NaN-unsafe float comparison: `partial_cmp(..).unwrap()/expect(..)`
    /// on `f64` instead of `f64::total_cmp` or an explicit NaN policy.
    NanCmp,
    /// Panic surface in library code: `unwrap`/`expect`/`panic!`-family
    /// macros and direct indexing in non-test code of the core crates.
    PanicSite,
    /// Taxonomy drift: a Table-1 registry row missing its catalog `build`
    /// entry, the `engine_spec_props` coverage list, or DESIGN.md.
    Taxonomy,
    /// Deep copies of series storage (`.to_vec()`, series `.clone()`) in
    /// the zero-copy hot paths.
    ZeroCopy,
    /// An `unsafe` block/fn/impl in library code without a preceding
    /// `// SAFETY:` comment stating the invariant that makes it sound.
    UnsafeAudit,
    /// An atomic operation using `Ordering::SeqCst` without an adjacent
    /// `// ORDERING:` comment justifying why Acquire/Release is not enough.
    AtomicOrdering,
    /// A cycle in the whole-repo lock-acquisition graph: two mutexes taken
    /// in opposite nesting orders somewhere (potential ABBA deadlock).
    LockOrder,
    /// A library file using atomics or `UnsafeCell` that is not mapped to a
    /// named loom model test (unmodeled lock-free code).
    LoomCoverage,
    /// A plain (unquoted) scalar in a CI workflow holding `: ` or ` #`,
    /// which YAML reads as a mapping value or a comment, not as text.
    WorkflowYaml,
}

impl Rule {
    /// Stable machine-readable identifier.
    pub fn id(self) -> &'static str {
        match self {
            Rule::NanCmp => "nan-cmp",
            Rule::PanicSite => "panic-site",
            Rule::Taxonomy => "taxonomy",
            Rule::ZeroCopy => "zero-copy",
            Rule::UnsafeAudit => "unsafe-audit",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::LockOrder => "lock-order",
            Rule::LoomCoverage => "loom-coverage",
            Rule::WorkflowYaml => "workflow-yaml",
        }
    }

    /// All rules, in report order.
    pub const ALL: [Rule; 9] = [
        Rule::NanCmp,
        Rule::PanicSite,
        Rule::Taxonomy,
        Rule::ZeroCopy,
        Rule::UnsafeAudit,
        Rule::AtomicOrdering,
        Rule::LockOrder,
        Rule::LoomCoverage,
        Rule::WorkflowYaml,
    ];
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One lint finding, anchored to a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// Workspace-relative path (`/`-separated).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The trimmed source line.
    pub excerpt: String,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl Finding {
    /// Renders the finding as one human-readable report line.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}\n    {}",
            self.file, self.line, self.rule, self.message, self.excerpt
        )
    }

    /// Renders the finding as a JSON object (hand-rolled: the workspace is
    /// offline and carries no serde).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\",\"excerpt\":\"{}\"}}",
            self.rule,
            json_escape(&self.file),
            self.line,
            json_escape(&self.message),
            json_escape(&self.excerpt)
        )
    }
}

/// Escapes a string for embedding in a JSON literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_distinct() {
        let mut ids: Vec<&str> = Rule::ALL.iter().map(|r| r.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), Rule::ALL.len());
    }

    #[test]
    fn json_rendering_escapes() {
        let f = Finding {
            rule: Rule::NanCmp,
            file: "a.rs".into(),
            line: 3,
            excerpt: "x.partial_cmp(\"y\")".into(),
            message: "msg".into(),
        };
        let j = f.to_json();
        assert!(j.contains("\\\"y\\\""));
        assert!(j.contains("\"line\":3"));
        assert_eq!(json_escape("a\nb"), "a\\nb");
    }
}
