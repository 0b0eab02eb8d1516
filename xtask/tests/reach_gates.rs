//! `cargo xtask reach` over a two-crate workspace: `alpha` defines the
//! items, `beta` and its tests name some of them, and an example of the
//! root package calls `beta`. The scan runs cargo on the fixture, so each
//! verdict here is the compiler's, not a text search's.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::process::Command;

use xtask::reach::{run_reach, Flag, KEEP_LIST};

/// A throwaway workspace under the target directory, removed on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Self {
        let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("reach-{name}"));
        let _ = fs::remove_dir_all(&root);
        let f = Self { root };
        f.write(
            "Cargo.toml",
            "[workspace]\nmembers = [\"crates/*\"]\nresolver = \"2\"\n\n\
             [package]\nname = \"fixture\"\nversion = \"0.1.0\"\nedition = \"2021\"\n\n\
             [dependencies]\nbeta = { path = \"crates/beta\" }\n",
        );
        f.write("src/lib.rs", "");
        f.write(
            "examples/demo.rs",
            "fn main() {\n    let _ = beta::call();\n}\n",
        );
        f.write(
            "crates/alpha/Cargo.toml",
            "[package]\nname = \"alpha\"\nversion = \"0.1.0\"\nedition = \"2021\"\n",
        );
        f.write(
            "crates/alpha/src/lib.rs",
            "mod hidden;\n\
             \n\
             pub use hidden::only_reexported;\n\
             \n\
             pub const LIMIT: u8 = 7;\n\
             \n\
             pub fn shared() -> u8 {\n    helper()\n}\n\
             \n\
             pub fn helper() -> u8 {\n    LIMIT\n}\n\
             \n\
             pub fn for_tests() -> u8 {\n    1\n}\n\
             \n\
             pub trait Shape {\n    fn sides(&self) -> u8;\n}\n\
             \n\
             pub struct Lonely {\n    value: u8,\n}\n\
             \n\
             impl Lonely {\n    fn make() -> Lonely {\n        Lonely { value: 3 }\n    }\n}\n\
             \n\
             impl Shape for Lonely {\n    fn sides(&self) -> u8 {\n        Lonely::make().value\n    }\n}\n",
        );
        f.write(
            "crates/alpha/src/hidden.rs",
            "pub fn only_reexported() {}\n",
        );
        f.write(
            "crates/beta/Cargo.toml",
            "[package]\nname = \"beta\"\nversion = \"0.1.0\"\nedition = \"2021\"\n\n\
             [dependencies]\nalpha = { path = \"../alpha\" }\n",
        );
        f.write(
            "crates/beta/src/lib.rs",
            "pub fn call() -> u8 {\n    alpha::shared()\n}\n",
        );
        f.write(
            "crates/beta/tests/uses.rs",
            "#[test]\nfn for_tests_answers() {\n    assert_eq!(alpha::for_tests(), 1);\n}\n",
        );
        f
    }

    fn write(&self, rel: &str, text: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(path, text).expect("write fixture");
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// Each flagged item with whether non-test code reaches it and whether
/// anything outside its crate names it, in key order.
fn verdicts(flagged: &BTreeMap<String, Flag>) -> Vec<(&str, bool, bool)> {
    flagged
        .iter()
        .map(|(item, f)| (item.as_str(), f.reached, f.outside))
        .collect()
}

#[test]
fn the_scan_flags_what_only_tests_or_only_the_own_crate_names() {
    let f = Fixture::new("verdicts");
    f.write(
        KEEP_LIST,
        "fn alpha::for_tests  beta's tests call it\nfn alpha::gone  deleted\n",
    );
    let report = run_reach(&f.root).expect("the fixture builds");
    assert_eq!(
        verdicts(&report.flagged),
        [
            // Used inside its crate only: narrow it.
            ("const alpha::LIMIT", true, false),
            // Only beta's tests call it: named outside, reached by none.
            ("fn alpha::for_tests", false, true),
            ("fn alpha::helper", true, false),
            // Only a `pub use` names it: the re-export is not a use.
            ("fn alpha::hidden::only_reexported", false, false),
            // Named only inside its own `impl` blocks.
            ("struct alpha::Lonely", false, false),
            // Implemented only in its own crate.
            ("trait alpha::Shape", false, false),
        ]
    );
    // `alpha::shared` (named by beta) and `beta::call` (named by the
    // root's example) stay `pub` unflagged; a test-only user counts as
    // outside the crate, so `for_tests` is not to be narrowed.
    assert_eq!(
        report.unlisted(),
        [
            "const alpha::LIMIT",
            "fn alpha::helper",
            "fn alpha::hidden::only_reexported",
            "struct alpha::Lonely",
            "trait alpha::Shape"
        ]
    );
    assert_eq!(report.stale(), ["fn alpha::gone"]);
    assert!(!report.clean());
}

#[test]
fn a_field_built_but_never_read_warns_once_its_struct_is_crate_private() {
    let f = Fixture::new("fields");
    f.write(
        "crates/alpha/src/lib.rs",
        "pub struct Open {\n    pub read: u8,\n    pub unread: u8,\n}\n\
         \n\
         pub(crate) struct Narrowed {\n    pub read: u8,\n    pub unread: u8,\n}\n\
         \n\
         pub fn read_both() -> u8 {\n    \
             Open { read: 1, unread: 2 }.read + Narrowed { read: 1, unread: 2 }.read\n}\n",
    );
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let out = Command::new(cargo)
        .current_dir(&f.root)
        .env("CARGO_TARGET_DIR", f.root.join("target"))
        .env_remove("RUSTFLAGS")
        .args(["check", "-p", "alpha", "--message-format", "short"])
        .output()
        .expect("cargo runs");
    let diagnostics = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{diagnostics}");
    // One warning, for `Narrowed`: the same field of the `pub` struct
    // `Open` is public API, so rustc says nothing of it.
    assert_eq!(
        diagnostics.matches("field `unread` is never read").count(),
        1,
        "{diagnostics}"
    );
    assert!(diagnostics.contains("lib.rs:8:"), "{diagnostics}");
}
