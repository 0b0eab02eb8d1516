//! Rule `panic-site`: the panic surface of non-test library code.
//!
//! Industrial deployments die on partial failures, not accuracy: a single
//! `unwrap()` on an empty sensor stream takes the whole plant report down.
//! This rule flags every potential panic site in non-test library code —
//! `.unwrap()`, `.expect(..)`, `panic!`/`unreachable!`/`todo!`/
//! `unimplemented!`, and direct `container[index]` indexing (no `.get`) —
//! and each one fails the lint: rows are reached through iterators,
//! `chunks_exact`, `get`, or slice patterns instead.
//!
//! Test modules (`#[cfg(test)]`), integration tests, benches, and examples
//! are out of scope: panicking is how tests fail.

use crate::findings::{Finding, Rule};
use crate::scan::Source;

const MACROS: [&str; 4] = ["panic!(", "unreachable!(", "todo!(", "unimplemented!("];

/// Scans one source file (library code only; the driver filters paths).
pub fn check(src: &Source) -> Vec<Finding> {
    let mut out = Vec::new();
    scan_token(
        src,
        ".unwrap()",
        "unwrap() panics; propagate an error instead",
        &mut out,
    );
    scan_token(
        src,
        ".expect(",
        "expect(..) panics; propagate an error instead",
        &mut out,
    );
    for m in MACROS {
        scan_token(src, m, "panicking macro in library code", &mut out);
    }
    scan_indexing(src, &mut out);
    out.sort_by_key(|f| f.line);
    out
}

fn scan_token(src: &Source, token: &str, message: &str, out: &mut Vec<Finding>) {
    let mut search = 0;
    while let Some(rel) = src.masked[search..].find(token) {
        let at = search + rel;
        search = at + token.len();
        if src.offset_in_test(at) {
            continue;
        }
        // `.expect(` must not also swallow `.expect_err(` etc.: the token
        // list already includes the open paren, so it cannot.
        out.push(Finding {
            rule: Rule::PanicSite,
            file: src.path.clone(),
            line: src.line_of(at),
            excerpt: src.excerpt(at),
            message: message.to_string(),
        });
    }
}

/// Flags `expr[..]` indexing: a `[` directly following an identifier
/// character, `)` or `]`. Attribute (`#[..]`), macro (`name![..]`), slice
/// type (`&[..]`, `<[..]`), and array literal positions do not match the
/// prefix test, so they never fire.
fn scan_indexing(src: &Source, out: &mut Vec<Finding>) {
    let bytes = src.masked.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1];
        let indexes = prev.is_ascii_alphanumeric() || prev == b'_' || prev == b')' || prev == b']';
        if !indexes {
            continue;
        }
        if src.offset_in_test(i) {
            continue;
        }
        out.push(Finding {
            rule: Rule::PanicSite,
            file: src.path.clone(),
            line: src.line_of(i),
            excerpt: src.excerpt(i),
            message: "direct indexing panics out of bounds; prefer .get(..) or a checked \
                      pattern"
                .to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(text: &str) -> Vec<Finding> {
        check(&Source::new("f.rs", text))
    }

    #[test]
    fn flags_unwrap_expect_and_macros() {
        assert_eq!(findings("let a = x.unwrap();").len(), 1);
        assert_eq!(findings("let a = x.expect(\"boom\");").len(), 1);
        assert_eq!(findings("panic!(\"boom\");").len(), 1);
        assert_eq!(findings("unreachable!()").len(), 1);
    }

    #[test]
    fn flags_direct_indexing_but_not_types_or_macros() {
        assert_eq!(findings("let a = v[i];").len(), 1);
        assert_eq!(findings("let a = m[i][j];").len(), 2);
        assert!(findings("fn f(x: &[f64]) -> Vec<[u8; 4]> { vec![] }").is_empty());
        assert!(findings("#[derive(Debug)]\nstruct S;").is_empty());
        assert!(findings("let v = vec![1, 2];").is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); v[0]; }\n}\n";
        assert!(findings(src).is_empty());
        let src = "fn lib() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }\n";
        assert_eq!(findings(src).len(), 1);
    }

    #[test]
    fn unwrap_or_variants_are_fine() {
        assert!(findings("let a = x.unwrap_or(0);").is_empty());
        assert!(findings("let a = x.unwrap_or_else(|| 0);").is_empty());
        assert!(findings("let a = x.unwrap_or_default();").is_empty());
    }
}
