//! Rule `lock-order`: a whole-repo lock-acquisition graph with an ABBA
//! cycle gate.
//!
//! The loom shim catches lock-order inversions *dynamically*, but only on
//! the code paths a model exercises. This rule makes the guarantee static
//! and whole-repo: every file is scanned for nested `.lock()` scopes (and
//! the server's `lock(..)` helper); each "lock B acquired while lock A is
//! held" observation becomes a directed edge A → B; and any cycle in the
//! union graph — two mutexes ever taken in opposite orders — fails the
//! lint: a potential deadlock must not land.
//!
//! Node naming is heuristic but deliberate: a receiver's *last field or
//! variable identifier* (index/call groups stripped) names the mutex,
//! keyed per-crate so `state.queue.lock()` in two files of one crate is
//! the same node, while `self.lock()` helper methods are keyed per-file
//! (two structs' internal helpers must not alias). Guards bound by a
//! simple `let` are held to the end of their brace scope (or an explicit
//! `drop(guard)`); guard temporaries in a longer call chain are held to
//! the end of the statement. Same-name nesting is skipped (lock arrays
//! like `deques[i]`/`deques[j]` alias one node; loom's dynamic checker
//! owns that axis).
//!
//! The scan stops at function boundaries, so a guard held across a call
//! into another function — or another crate — needs the callee's locks
//! written down where the guard is held: a `// LOCKS: <node>, <node>`
//! line comment declares that the code below it acquires those nodes
//! (fully qualified, `crates/stream::plants`) while every guard held at
//! the comment is still held. Each declared node becomes an edge from
//! each held guard, exactly as a nested `.lock()` would. A declaration is
//! checked, not trusted blindly: it must sit under at least one held
//! guard, and every node it names must be acquired *somewhere* in the
//! scanned tree — renaming the mutex without updating the declaration
//! fails the lint instead of silently detaching the edge.

use std::collections::{BTreeMap, BTreeSet};

use crate::findings::{json_escape, Finding, Rule};
use crate::scan::Source;

/// One observed nested acquisition: `to` acquired while `from` was held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// The lock already held.
    pub from: String,
    /// The lock acquired under it.
    pub to: String,
    /// File of the inner acquisition.
    pub file: String,
    /// 1-based line of the inner acquisition.
    pub line: usize,
}

impl LockEdge {
    /// JSON object for the lint report (hand-rolled: no serde offline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"from\":\"{}\",\"to\":\"{}\",\"file\":\"{}\",\"line\":{}}}",
            json_escape(&self.from),
            json_escape(&self.to),
            json_escape(&self.file),
            self.line
        )
    }
}

/// One `// LOCKS:` declaration: `node` is acquired by code the scan
/// cannot see into, under `held` guards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Declared {
    /// The declared node, as written.
    pub node: String,
    /// How many guards were held at the declaration.
    pub held: usize,
    /// File of the declaration.
    pub file: String,
    /// 1-based line of the declaration.
    pub line: usize,
}

/// What one file contributes to the lock graph.
#[derive(Debug, Default)]
pub struct LockScan {
    /// Nested acquisitions, observed and declared.
    pub edges: Vec<LockEdge>,
    /// Every node this file acquires syntactically.
    pub acquired: BTreeSet<String>,
    /// Every `// LOCKS:` declaration.
    pub declared: Vec<Declared>,
}

const DECLARATION: &str = "// LOCKS:";

#[derive(Debug)]
struct Held {
    name: String,
    /// Binding variable when scope-held via `let` (released by `drop(v)`).
    var: Option<String>,
    /// Brace depth at acquisition (scope-held guards die when it closes).
    depth: usize,
    /// Scope-held (`let g = m.lock()...;`) vs. statement temporary.
    scoped: bool,
}

/// Scans one file: edges, acquired nodes and `// LOCKS:` declarations.
pub fn scan(src: &Source) -> LockScan {
    let crate_key = crate_of(&src.path);
    let bytes = src.masked.as_bytes();
    let raw = src.text.as_bytes();
    let mut held: Vec<Held> = Vec::new();
    let mut out: Vec<LockEdge> = Vec::new();
    let mut acquired = BTreeSet::new();
    let mut declared = Vec::new();
    let mut depth = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        // A line comment (masked to spaces) that opens with the tag, and
        // is not the tail of a `///` doc comment.
        if b == b' '
            && raw[i..].starts_with(DECLARATION.as_bytes())
            && (i == 0 || raw[i - 1] != b'/')
            && !src.offset_in_test(i)
        {
            let line = src.line_of(i);
            let end = raw[i..]
                .iter()
                .position(|&c| c == b'\n')
                .map_or(raw.len(), |n| i + n);
            let names = String::from_utf8_lossy(&raw[i + DECLARATION.len()..end]).into_owned();
            for node in names.split(',').map(str::trim).filter(|n| !n.is_empty()) {
                for h in held.iter().filter(|h| h.name != node) {
                    out.push(LockEdge {
                        from: h.name.clone(),
                        to: node.to_string(),
                        file: src.path.clone(),
                        line,
                    });
                }
                declared.push(Declared {
                    node: node.to_string(),
                    held: held.len(),
                    file: src.path.clone(),
                    line,
                });
            }
            i = end;
            continue;
        }
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth = depth.saturating_sub(1);
                held.retain(|h| !(h.scoped && h.depth > depth));
            }
            b';' => held.retain(|h| h.scoped),
            b'f' if word_at(bytes, i, "fn") => {
                // A new item body: nothing carries across functions.
                held.clear();
            }
            b'd' if word_at(bytes, i, "drop") => {
                if let Some(var) = single_ident_arg(bytes, i + "drop".len()) {
                    held.retain(|h| h.var.as_deref() != Some(var.as_str()));
                }
            }
            _ => {}
        }
        let acquisition = if src.masked[i..].starts_with(".lock()") {
            receiver(bytes, i).map(|r| (r, i + ".lock()".len()))
        } else if word_at(bytes, i, "lock")
            && bytes.get(i + 4) == Some(&b'(')
            && (i == 0 || bytes[i - 1] != b'.')
        {
            // The server's `lock(&mutex)` poison-tolerant helper: the
            // argument's last identifier names the mutex.
            balanced_close(bytes, i + 5)
                .and_then(|close| last_ident(&bytes[i + 5..close]).map(|r| (r, close + 1)))
        } else {
            None
        };
        if let Some((receiver, after)) = acquisition {
            if !src.offset_in_test(i) {
                let name = if receiver == "self" {
                    format!("self@{}", src.path)
                } else {
                    format!("{crate_key}::{receiver}")
                };
                let line = src.line_of(i);
                acquired.insert(name.clone());
                for h in &held {
                    if h.name != name {
                        out.push(LockEdge {
                            from: h.name.clone(),
                            to: name.clone(),
                            file: src.path.clone(),
                            line,
                        });
                    }
                }
                let (scoped, var) = binding(src, bytes, i, after);
                held.push(Held {
                    name,
                    var,
                    depth,
                    scoped,
                });
            }
            i = after;
            continue;
        }
        i += 1;
    }
    let mut seen = BTreeSet::new();
    out.retain(|e| seen.insert((e.from.clone(), e.to.clone())));
    LockScan {
        edges: out,
        acquired,
        declared,
    }
}

/// Findings for `// LOCKS:` declarations that declare nothing: no guard
/// was held where they stand, or the node they name is acquired nowhere
/// in the scanned tree.
pub fn check_declared(declared: &[Declared], acquired: &BTreeSet<String>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for d in declared {
        let message = if d.held == 0 {
            "LOCKS declaration with no guard held: it adds no edge to the lock graph"
        } else if !acquired.contains(&d.node) {
            "LOCKS declaration names a node that nothing acquires (renamed mutex?)"
        } else {
            continue;
        };
        findings.push(Finding {
            rule: Rule::LockOrder,
            file: d.file.clone(),
            line: d.line,
            excerpt: format!("{DECLARATION} {}", d.node),
            message: message.to_string(),
        });
    }
    findings
}

/// `crates/server/src/lib.rs` → `crates/server`; `src/main.rs` → `src`.
fn crate_of(path: &str) -> String {
    let mut it = path.split('/');
    match (it.next(), it.next()) {
        (Some("crates"), Some(c)) => format!("crates/{c}"),
        (Some(top), _) => top.to_string(),
        _ => path.to_string(),
    }
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether `word` starts at `i` on identifier boundaries.
fn word_at(bytes: &[u8], i: usize, word: &str) -> bool {
    bytes[i..].starts_with(word.as_bytes())
        && (i == 0 || !is_ident(bytes[i - 1]))
        && bytes.get(i + word.len()).is_none_or(|&b| !is_ident(b))
}

/// Offset of the `)` closing the group whose contents start at `start`.
fn balanced_close(bytes: &[u8], start: usize) -> Option<usize> {
    let mut depth = 1usize;
    for (k, &b) in bytes.iter().enumerate().skip(start) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// The last identifier in a byte range (e.g. `&shared.queue` → `queue`).
fn last_ident(bytes: &[u8]) -> Option<String> {
    let end = bytes.iter().rposition(|&b| is_ident(b))? + 1;
    let mut start = end;
    while start > 0 && is_ident(bytes[start - 1]) {
        start -= 1;
    }
    Some(String::from_utf8_lossy(&bytes[start..end]).into_owned())
}

/// The receiver segment naming the mutex in `<recv>.lock()`: the last
/// identifier before the dot, with trailing `[..]`/`(..)` groups stripped
/// (`deques[w].lock()` → `deques`, `state.inner().lock()` → `inner`).
fn receiver(bytes: &[u8], dot: usize) -> Option<String> {
    let mut k = dot.checked_sub(1)?;
    loop {
        let (open, close) = match bytes[k] {
            b']' => (b'[', b']'),
            b')' => (b'(', b')'),
            _ => break,
        };
        let mut bal = 0i32;
        loop {
            if bytes[k] == close {
                bal += 1;
            } else if bytes[k] == open {
                bal -= 1;
                if bal <= 0 {
                    break;
                }
            }
            k = k.checked_sub(1)?;
        }
        k = k.checked_sub(1)?;
    }
    if !is_ident(bytes[k]) {
        return None;
    }
    let end = k + 1;
    let mut start = end;
    while start > 0 && is_ident(bytes[start - 1]) {
        start -= 1;
    }
    Some(String::from_utf8_lossy(&bytes[start..end]).into_owned())
}

/// The single identifier inside `drop( … )`, if that is all there is.
fn single_ident_arg(bytes: &[u8], open: usize) -> Option<String> {
    if bytes.get(open) != Some(&b'(') {
        return None;
    }
    let close = balanced_close(bytes, open + 1)?;
    let inner: Vec<u8> = bytes[open + 1..close]
        .iter()
        .copied()
        .filter(|b| !b.is_ascii_whitespace())
        .collect();
    if !inner.is_empty() && inner.iter().all(|&b| is_ident(b)) {
        Some(String::from_utf8_lossy(&inner).into_owned())
    } else {
        None
    }
}

/// Classifies an acquisition at `at` (chain resuming at `after`): scope-
/// held via a simple `let` binding, or a statement temporary.
fn binding(src: &Source, bytes: &[u8], at: usize, after: usize) -> (bool, Option<String>) {
    // Forward: skip guard-preserving suffixes; a `;` right after means the
    // guard IS the bound value, anything else means a longer chain whose
    // temporary dies at the statement end.
    let mut j = after;
    loop {
        let rest = &src.masked[j..];
        let suffix = [".unwrap()", ".expect(", ".unwrap_or_else("]
            .into_iter()
            .find(|s| rest.starts_with(s));
        match suffix {
            Some(s) if s.ends_with('(') => match balanced_close(bytes, j + s.len()) {
                Some(close) => j = close + 1,
                None => return (false, None),
            },
            Some(s) => j += s.len(),
            None => break,
        }
    }
    while bytes.get(j).is_some_and(|b| b.is_ascii_whitespace()) {
        j += 1;
    }
    if bytes.get(j) != Some(&b';') {
        return (false, None);
    }
    // Backward: the statement must start with `let [mut] <ident> =`.
    let stmt_start = src.masked[..at].rfind([';', '{', '}']).map_or(0, |p| p + 1);
    let stmt = src.masked[stmt_start..at].trim_start();
    let Some(rest) = stmt.strip_prefix("let ") else {
        return (false, None);
    };
    let rest = rest.trim_start().trim_start_matches("mut ").trim_start();
    let ident: String = rest
        .bytes()
        .take_while(|&b| is_ident(b))
        .map(char::from)
        .collect();
    let tail = rest[ident.len()..].trim_start();
    if !ident.is_empty() && tail.starts_with('=') {
        (true, Some(ident))
    } else {
        (false, None)
    }
}

/// Detects cycles in the union graph; one finding per back edge.
pub fn check(all: &[LockEdge]) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for e in all {
        adj.entry(&e.from).or_default().push(e);
        nodes.insert(&e.from);
        nodes.insert(&e.to);
    }
    // Iterative DFS with tri-color marking; a back edge to a gray node
    // closes a cycle, reported at the inner acquisition that closes it.
    let mut color: BTreeMap<&str, u8> = BTreeMap::new(); // 0 white 1 gray 2 black
    let mut findings = Vec::new();
    for &start in &nodes {
        if color.get(start).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut path: Vec<&str> = vec![start];
        color.insert(start, 1);
        while let Some(&(node, idx)) = stack.last() {
            let out = adj.get(node).map(Vec::as_slice).unwrap_or(&[]);
            if let Some(edge) = out.get(idx) {
                if let Some(top) = stack.last_mut() {
                    top.1 += 1;
                }
                match color.get(edge.to.as_str()).copied().unwrap_or(0) {
                    0 => {
                        color.insert(edge.to.as_str(), 1);
                        stack.push((edge.to.as_str(), 0));
                        path.push(edge.to.as_str());
                    }
                    1 => {
                        let from = path
                            .iter()
                            .position(|&n| n == edge.to)
                            .unwrap_or(path.len() - 1);
                        let mut cycle: Vec<&str> = path[from..].to_vec();
                        cycle.push(edge.to.as_str());
                        findings.push(Finding {
                            rule: Rule::LockOrder,
                            file: edge.file.clone(),
                            line: edge.line,
                            excerpt: format!("cycle: {}", cycle.join(" -> ")),
                            message: "lock-order cycle (potential ABBA deadlock); acquire \
                                      these mutexes in one global order"
                                .to_string(),
                        });
                    }
                    _ => {}
                }
            } else {
                color.insert(node, 2);
                stack.pop();
                path.pop();
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges_of(text: &str) -> Vec<LockEdge> {
        scan(&Source::new("crates/x/src/f.rs", text)).edges
    }

    #[test]
    fn nested_let_guards_make_an_edge() {
        let e = edges_of(
            "fn f(a: &M, b: &M) {\n\
             let ga = a.lock().unwrap();\n\
             let gb = b.lock().unwrap();\n\
             }",
        );
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].from, "crates/x::a");
        assert_eq!(e[0].to, "crates/x::b");
        assert_eq!(e[0].line, 3);
    }

    #[test]
    fn sequential_temporaries_do_not_nest() {
        // A temporary guard dies at the end of its statement.
        let e = edges_of(
            "fn f() {\n\
             deques[w].lock().unwrap_or_else(PoisonError::into_inner).pop_back();\n\
             slots[w].lock().unwrap_or_else(PoisonError::into_inner).push(t);\n\
             }",
        );
        assert!(e.is_empty());
    }

    #[test]
    fn within_statement_nesting_is_an_edge() {
        let e = edges_of("fn f() { a.lock().unwrap().push(b.lock().unwrap().pop()); }");
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].from, "crates/x::a");
        assert_eq!(e[0].to, "crates/x::b");
    }

    #[test]
    fn drop_and_scope_end_release_guards() {
        let e = edges_of(
            "fn f() {\n\
             let ga = a.lock().unwrap();\n\
             drop(ga);\n\
             let gb = b.lock().unwrap();\n\
             }",
        );
        assert!(e.is_empty(), "explicit drop releases before b");
        let e = edges_of(
            "fn f() {\n\
             { let ga = a.lock().unwrap(); }\n\
             let gb = b.lock().unwrap();\n\
             }",
        );
        assert!(e.is_empty(), "scope end releases before b");
        let e = edges_of("fn f() { let ga = a.lock().unwrap(); }\nfn g() { b.lock().unwrap(); }");
        assert!(e.is_empty(), "guards never cross a fn boundary");
    }

    #[test]
    fn helper_and_field_receivers_normalize() {
        // The free-function helper and field receivers share per-crate
        // nodes; `self.lock()` helpers are per-file.
        let e = edges_of(
            "fn f() {\n\
             let g = lock(&shared.queue);\n\
             let h = state.cache.lock().unwrap();\n\
             }",
        );
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].from, "crates/x::queue");
        assert_eq!(e[0].to, "crates/x::cache");
        let e = edges_of("fn f(&self) { let g = self.lock(); let h = other.lock().unwrap(); }");
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].from, "self@crates/x/src/f.rs");
    }

    #[test]
    fn same_name_and_test_code_are_skipped() {
        assert!(edges_of(
            "fn f() { let a = deques[i].lock().unwrap(); let b = deques[j].lock().unwrap(); }"
        )
        .is_empty());
        assert!(edges_of(
            "fn lib() {}\n#[cfg(test)]\nmod t {\n fn f() { let g = a.lock().unwrap(); let h = b.lock().unwrap(); }\n}"
        )
        .is_empty());
    }

    #[test]
    fn declared_locks_become_edges_from_every_held_guard() {
        let s = scan(&Source::new(
            "crates/x/src/f.rs",
            "fn f(&self) {\n\
             let cache = lock(&slot);\n\
             // LOCKS: crates/y::plants, crates/y::seat\n\
             service.tick(plant);\n\
             }\n\
             fn g() {\n\
             // LOCKS: crates/y::plants\n\
             service.tick(plant);\n\
             }\n\
             /// LOCKS: prose in a doc comment declares nothing\n\
             fn h() {}",
        ));
        let pairs: Vec<_> = s.edges.iter().map(|e| (&*e.from, &*e.to, e.line)).collect();
        assert_eq!(
            pairs,
            [
                ("crates/x::slot", "crates/y::plants", 3),
                ("crates/x::slot", "crates/y::seat", 3)
            ]
        );
        assert_eq!(s.declared.len(), 3);
        // Under no guard (in `g`), and naming nodes nothing acquires.
        let acquired = BTreeSet::from(["crates/y::plants".to_string()]);
        let stale = check_declared(&s.declared, &acquired);
        let lines: Vec<_> = stale.iter().map(|f| (f.line, &*f.excerpt)).collect();
        assert_eq!(
            lines,
            [
                (3, "// LOCKS: crates/y::seat"),
                (7, "// LOCKS: crates/y::plants")
            ]
        );
    }

    #[test]
    fn cycle_detection_flags_abba_only() {
        let ab = LockEdge {
            from: "a".into(),
            to: "b".into(),
            file: "f.rs".into(),
            line: 1,
        };
        let bc = LockEdge {
            from: "b".into(),
            to: "c".into(),
            file: "f.rs".into(),
            line: 2,
        };
        assert!(check(&[ab.clone(), bc.clone()]).is_empty(), "a DAG is fine");
        let ba = LockEdge {
            from: "b".into(),
            to: "a".into(),
            file: "g.rs".into(),
            line: 9,
        };
        let findings = check(&[ab, bc, ba]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, Rule::LockOrder);
        assert!(findings[0].excerpt.contains("a -> b -> a"));
        assert_eq!(findings[0].file, "g.rs");
    }
}
