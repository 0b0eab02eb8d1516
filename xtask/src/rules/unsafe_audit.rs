//! Rule `unsafe-audit`: every `unsafe` site must state its invariant.
//!
//! Library crates `#![forbid(unsafe_code)]`; what `unsafe` remains (the
//! bench allocator shims, test fixtures) concentrates the repo's
//! soundness obligations into a handful of blocks. Each one is only
//! correct *relative to an invariant* (layout forwarded unchanged, index
//! in bounds, slot initialized); this rule makes that invariant part of
//! the source: every `unsafe` keyword in non-test library code must carry
//! a `// SAFETY:` comment — on its own line or in the contiguous comment
//! block immediately above — or it is a finding.
//! Findings are count-ratcheted via `lint.allow` like `panic-site`, with a
//! target budget of zero: new unsafe code cannot land unannotated.

use crate::findings::{Finding, Rule};
use crate::scan::Source;

/// The justification tag an `unsafe` site must carry.
pub const TAG: &str = "SAFETY:";

/// Scans one source file for unannotated `unsafe` sites.
pub fn check(src: &Source) -> Vec<Finding> {
    let mut out = Vec::new();
    let bytes = src.masked.as_bytes();
    let mut search = 0;
    while let Some(rel) = src.masked[search..].find("unsafe") {
        let at = search + rel;
        search = at + "unsafe".len();
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let after_ok = bytes.get(at + "unsafe".len()).is_none_or(|&b| !is_ident(b));
        if !before_ok || !after_ok || src.offset_in_test(at) {
            continue;
        }
        if src.comment_tagged(at, TAG) {
            continue;
        }
        out.push(Finding {
            rule: Rule::UnsafeAudit,
            file: src.path.clone(),
            line: src.line_of(at),
            excerpt: src.excerpt(at),
            message: "unsafe without a `// SAFETY:` comment; state the invariant that \
                      makes this sound"
                .to_string(),
        });
    }
    out
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(text: &str) -> Vec<Finding> {
        check(&Source::new("f.rs", text))
    }

    #[test]
    fn flags_unannotated_unsafe_block_fn_and_impl() {
        assert_eq!(findings("fn f() { unsafe { g() } }").len(), 1);
        assert_eq!(findings("unsafe fn g() {}").len(), 1);
        assert_eq!(findings("unsafe impl Send for X {}").len(), 1);
    }

    #[test]
    fn safety_comment_above_or_inline_satisfies() {
        assert!(findings("// SAFETY: single consumer owns the slot.\nunsafe { g() }").is_empty());
        assert!(findings("let v = unsafe { g() }; // SAFETY: index < mask + 1.").is_empty());
        // A multi-line comment block with the tag on its first line.
        assert!(findings(
            "// SAFETY: the producer published this slot with Release,\n\
             // and head < tail guarantees it is initialized.\n\
             unsafe { slot.assume_init_read() }"
        )
        .is_empty());
        // Attributes between the comment and the item are transparent.
        assert!(findings("// SAFETY: no aliasing.\n#[inline]\nunsafe fn g() {}").is_empty());
    }

    #[test]
    fn unrelated_comment_does_not_satisfy() {
        assert_eq!(findings("// fast path\nunsafe { g() }").len(), 1);
        // A SAFETY comment separated by code does not carry over.
        assert_eq!(
            findings("// SAFETY: for h only.\nfn h() {}\nunsafe fn g() {}").len(),
            1
        );
    }

    #[test]
    fn masked_and_test_occurrences_are_exempt() {
        assert!(findings("let s = \"unsafe\"; // unsafe in prose").is_empty());
        assert!(
            findings("fn lib() {}\n#[cfg(test)]\nmod tests { fn t() { unsafe { g() } } }")
                .is_empty()
        );
        // Identifier containing the word is not the keyword.
        assert!(findings("fn unsafely() {} fn not_unsafe() {}").is_empty());
    }
}
