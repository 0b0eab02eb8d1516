//! Rule `workflow-yaml`: no plain YAML scalar in a CI workflow holds
//! `: ` or ` #`.
//!
//! In a plain (unquoted) scalar, `: ` starts a mapping value and ` #` a
//! comment, so `- name: Loom checks (map + locks: ingest × finish)` is
//! not a step name that holds a colon: the YAML parser stops there, and
//! the workflow does not run at all. The step name that did this kept
//! `ci.yml` from parsing for more than twenty changes. This rule reads
//! every `.github/workflows/*.yml` / `*.yaml` line by line — std only,
//! no YAML parser — and flags a plain value (after `key: ` or a
//! sequence's `- `) that holds `: `, ends in `:`, or holds ` #`. Quoted
//! values, flow collections (`[..]`, `{..}`), anchors, aliases, tags
//! and the lines of a block scalar (`|`, `>`) are not plain and are
//! skipped.

use crate::findings::{Finding, Rule};

/// Scans one workflow file (`path` is workspace-relative).
pub fn check(path: &str, text: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    // The indentation of the key whose block scalar is being read.
    let mut block: Option<usize> = None;
    for (index, line) in text.lines().enumerate() {
        let indent = line.len() - line.trim_start().len();
        let body = line.trim();
        if let Some(key_indent) = block {
            if body.is_empty() || indent > key_indent {
                continue;
            }
            block = None;
        }
        if body.is_empty() || body.starts_with('#') {
            continue;
        }
        let mut entry = body;
        while let Some(rest) = entry.strip_prefix("- ") {
            entry = rest.trim_start();
        }
        let value = match entry.split_once(": ") {
            Some((_key, value)) => value.trim(),
            None if entry.ends_with(':') => continue,
            None if entry == body => continue,
            None => entry,
        };
        if value.starts_with(['|', '>']) {
            // The key's column: its line's indentation plus any `- `.
            block = Some(indent + body.len() - entry.len());
            continue;
        }
        if value.is_empty() || value.starts_with(['"', '\'', '[', '{', '&', '*', '!']) {
            continue;
        }
        if value.contains(": ") || value.ends_with(':') || value.contains(" #") {
            out.push(Finding {
                rule: Rule::WorkflowYaml,
                file: path.to_string(),
                line: index + 1,
                excerpt: body.to_string(),
                message: "a plain YAML scalar holding `: ` or ` #` does not parse as the \
                          text it reads as; quote it"
                    .to_string(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(text: &str) -> Vec<usize> {
        check("ci.yml", text).iter().map(|f| f.line).collect()
    }

    #[test]
    fn plain_values_with_a_mapping_or_comment_indicator_are_flagged() {
        let text = "jobs:\n\
                    \x20 test:\n\
                    \x20   steps:\n\
                    \x20     - name: Loom checks (locks: ingest × finish)\n\
                    \x20       run: cargo test -q # quick\n\
                    \x20     - name: trailing colon:\n\
                    \x20     - cargo test: a list item\n\
                    \x20     - name: \"Loom checks (locks: ingest)\"\n\
                    \x20     - name: 'quoted # fine'\n\
                    \x20     - name: Plain (crash ≡ no-crash), no#comment\n";
        assert_eq!(lines(text), [4, 5, 6]);
    }

    #[test]
    fn block_scalars_flow_collections_and_comments_are_not_plain() {
        let text = "on:\n\
                    \x20 push:\n\
                    \x20   branches: [main, \"a: b\"]\n\
                    # a comment: with # both\n\
                    jobs:\n\
                    \x20 steps:\n\
                    \x20   - name: Fault suite\n\
                    \x20     # a step comment: fine\n\
                    \x20     run: |\n\
                    \x20       cargo test -q # a shell comment: fine\n\
                    \n\
                    \x20       echo done: yes\n\
                    \x20   - name: Next\n\
                    \x20     run: >-\n\
                    \x20       folded: text # too\n\
                    \x20     env: { A: \"b: c\" }\n\
                    \x20     with: &anchor\n\
                    \x20   - just a plain item\n";
        assert_eq!(lines(text), Vec::<usize>::new());
        // The first line after the block at the key's indentation is read.
        let after = "steps:\n  - run: |\n      a: b\n    name: x: y\n";
        assert_eq!(lines(after), [4]);
    }
}
