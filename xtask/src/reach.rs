//! `cargo xtask reach` — the library functions that nothing but tests call.
//!
//! A search by name cannot tell one `len` from another; the compiler can.
//! The scan copies the repository into `target/reach/tree`, puts
//! `#[deprecated(note = "IDn")]` on every non-test `pub fn` under
//! `crates/*/src` and `src/` (binaries excluded), and runs
//! `cargo check --workspace --lib --bins --examples` there, then
//! `cargo check --manifest-path benchmark/Cargo.toml`. A use of a marked
//! function anywhere but its own body draws a deprecation warning that
//! carries its ID — same-crate uses and `use` re-exports included — so a
//! function that draws none has no caller in any library, binary, example
//! or `benchmark/` target: tests reach it, or nothing does. A caller that
//! is itself unreached still counts, so deleting one function can expose
//! the next.
//!
//! The run passes when those functions are exactly the ones listed in
//! [`KEEP_LIST`]: one per line, the function's path, then why it stays.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::scan::Source;

/// The checked-in keep-list, relative to the workspace root.
pub const KEEP_LIST: &str = "xtask/reach.keep";

/// Where the marked copy and its build live, relative to the root.
const SCRATCH: &str = "target/reach";

/// Directory names never copied: build outputs and version control.
const SKIP_DIRS: [&str; 4] = [".git", "target", "out", ".bench_build"];

/// One marked function: its path (`crate::module::Type::name`) and the
/// byte offset of its `pub` keyword in the file, where the attribute goes.
#[derive(Debug)]
struct PubFn {
    item: String,
    offset: usize,
}

/// What a scan found, against the keep-list.
#[derive(Debug, Default)]
pub struct ReachReport {
    /// Every function nothing but tests reaches, sorted.
    pub unreached: BTreeSet<String>,
    /// The keep-list: function → why it stays.
    pub keep: BTreeMap<String, String>,
}

impl ReachReport {
    /// Unreached functions the keep-list does not name.
    pub fn unlisted(&self) -> Vec<&str> {
        self.unreached
            .iter()
            .filter(|item| !self.keep.contains_key(*item))
            .map(String::as_str)
            .collect()
    }

    /// Keep-list entries that are reached (or no longer exist).
    pub fn stale(&self) -> Vec<&str> {
        self.keep
            .keys()
            .filter(|item| !self.unreached.contains(*item))
            .map(String::as_str)
            .collect()
    }

    /// Whether the unreached functions are exactly the keep-list.
    pub fn clean(&self) -> bool {
        self.unlisted().is_empty() && self.stale().is_empty()
    }
}

/// A block opened by `{`: what it is, as far as paths go.
#[derive(Debug, Clone)]
enum Block {
    Module(String),
    Impl(String),
    Other,
}

/// Whether `masked[at..]` starts with the keyword `word` on word
/// boundaries.
fn keyword_at(masked: &str, at: usize, word: &str) -> bool {
    let bytes = masked.as_bytes();
    let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    masked[at..].starts_with(word)
        && (at == 0 || !ident(bytes[at - 1]))
        && bytes.get(at + word.len()).is_none_or(|&b| !ident(b))
}

/// The identifier starting at `text`'s first non-blank character.
fn ident(text: &str) -> &str {
    let text = text.trim_start();
    let end = text
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(text.len());
    &text[..end]
}

/// The self type named by an `impl` header (the text between `impl` and
/// its `{`): generics skipped, last path segment.
fn impl_type(header: &str) -> String {
    let mut rest = header.trim_start();
    if rest.starts_with('<') {
        let mut depth = 0_usize;
        let mut prev = ' ';
        for (k, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' if prev != '-' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        rest = &rest[k + 1..];
                        break;
                    }
                }
                _ => {}
            }
            prev = c;
        }
    }
    let path: String = rest
        .trim_start()
        .chars()
        .take_while(|&c| c.is_alphanumeric() || c == '_' || c == ':')
        .collect();
    path.rsplit("::").next().unwrap_or("").to_string()
}

/// If a `pub fn` (or `pub const|unsafe|async fn`) starts at `at`, its name.
fn pub_fn_name(masked: &str, at: usize) -> Option<&str> {
    if !keyword_at(masked, at, "pub") {
        return None;
    }
    let mut rest = masked[at + 3..].trim_start();
    if rest.len() == masked.len() - at - 3 {
        return None; // `pub(crate)` and the like: not public
    }
    for qualifier in ["const", "unsafe", "async"] {
        if ident(rest) == qualifier {
            rest = rest.trim_start()[qualifier.len()..].trim_start();
        }
    }
    (ident(rest) == "fn").then(|| ident(&rest.trim_start()[2..]))
}

/// Every non-test `pub fn` of one source file whose module path is
/// `module` (e.g. `hierod_adapt::drift`), in file order.
fn pub_fns(module: &str, src: &Source) -> Vec<PubFn> {
    let masked = src.masked.as_str();
    let mut out = Vec::new();
    let mut blocks: Vec<Block> = Vec::new();
    let mut pending: Option<Block> = None;
    for (at, c) in masked.char_indices() {
        match c {
            '{' => blocks.push(pending.take().unwrap_or(Block::Other)),
            '}' => {
                blocks.pop();
            }
            ';' => pending = None,
            'i' if keyword_at(masked, at, "impl") => {
                let header_end = masked[at..]
                    .find(['{', ';'])
                    .map_or(masked.len(), |k| at + k);
                pending = Some(Block::Impl(impl_type(&masked[at + 4..header_end])));
            }
            'm' if keyword_at(masked, at, "mod") => {
                pending = Some(Block::Module(ident(&masked[at + 3..]).to_string()));
            }
            'p' => {
                let Some(name) = pub_fn_name(masked, at) else {
                    continue;
                };
                if src.offset_in_test(at) {
                    continue;
                }
                let mut path = vec![module.to_string()];
                path.extend(blocks.iter().filter_map(|b| match b {
                    Block::Module(m) => Some(m.clone()),
                    _ => None,
                }));
                let owner = blocks.iter().rev().find_map(|b| match b {
                    Block::Impl(t) => Some(t.clone()),
                    _ => None,
                });
                path.extend(owner);
                path.push(name.to_string());
                out.push(PubFn {
                    item: path.join("::"),
                    offset: at,
                });
            }
            _ => {}
        }
    }
    out
}

/// `text` with `#[deprecated(note = "IDn")]` put before each function,
/// `fns` pairing each `pub` offset with its ID.
fn mark(text: &str, fns: &[(usize, usize)]) -> String {
    let mut out = String::with_capacity(text.len() + fns.len() * 32);
    let mut from = 0;
    for &(offset, id) in fns {
        out.push_str(&text[from..offset]);
        out.push_str(&format!("#[deprecated(note = \"ID{id}\")] "));
        from = offset;
    }
    out.push_str(&text[from..]);
    out
}

/// The IDs named by `use of deprecated …: IDn` warnings in cargo output.
fn warned_ids(output: &str) -> BTreeSet<usize> {
    output
        .lines()
        .filter(|line| line.contains("use of deprecated"))
        .filter_map(|line| {
            let tail = &line[line.rfind("`: ID")? + 5..];
            let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().ok()
        })
        .collect()
}

/// Parses the keep-list: `#` comments and blank lines skipped, otherwise
/// a path, whitespace, and a reason.
///
/// # Errors
/// A line with a path and no reason.
fn parse_keep(text: &str) -> Result<BTreeMap<String, String>, String> {
    let mut keep = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (item, reason) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        if reason.trim().is_empty() {
            return Err(format!("{KEEP_LIST}:{}: `{item}` gives no reason", n + 1));
        }
        keep.insert(item.to_string(), reason.trim().to_string());
    }
    Ok(keep)
}

/// The module path of a library source file: `crates/adapt/src/drift.rs`
/// in crate `hierod_adapt` is `hierod_adapt::drift`; `lib.rs` and
/// `mod.rs` name their directory's module.
fn module_path(krate: &str, in_src: &Path) -> String {
    let mut parts = vec![krate.to_string()];
    let comps: Vec<String> = in_src
        .with_extension("")
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    for (k, c) in comps.iter().enumerate() {
        let last = k + 1 == comps.len();
        if !(last && (c == "lib" || c == "mod")) {
            parts.push(c.clone());
        }
    }
    parts.join("::")
}

/// The `[package]` name of a manifest, `-` folded to `_`.
fn crate_name(manifest: &Path) -> io::Result<String> {
    let text = fs::read_to_string(manifest)?;
    text.lines()
        .find_map(|l| {
            let (key, value) = l.split_once('=')?;
            (key.trim() == "name").then(|| value.trim().trim_matches('"').replace('-', "_"))
        })
        .ok_or_else(|| io::Error::other(format!("{}: no package name", manifest.display())))
}

/// Library source roots: `(crate name, src directory)`.
fn library_roots(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut roots = vec![(crate_name(&root.join("Cargo.toml"))?, root.join("src"))];
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    crates.sort();
    for dir in crates {
        if dir.join("Cargo.toml").is_file() && dir.join("src").is_dir() {
            roots.push((crate_name(&dir.join("Cargo.toml"))?, dir.join("src")));
        }
    }
    Ok(roots)
}

/// Copies `from` into `to`, writing only files whose bytes differ (so
/// cargo keeps what it built last time) and removing what `from` no
/// longer has. Build outputs and `.git` are skipped.
fn sync(from: &Path, to: &Path, marked: &BTreeMap<PathBuf, String>) -> io::Result<()> {
    fs::create_dir_all(to)?;
    let mut wanted = BTreeSet::new();
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let name = entry.file_name();
        let (src, dst) = (entry.path(), to.join(&name));
        if src.is_dir() {
            if SKIP_DIRS.iter().any(|s| name == *s) {
                continue;
            }
            sync(&src, &dst, marked)?;
        } else {
            let bytes = match marked.get(&src) {
                Some(text) => text.as_bytes().to_vec(),
                None => fs::read(&src)?,
            };
            if fs::read(&dst).ok().as_deref() != Some(bytes.as_slice()) {
                fs::write(&dst, bytes)?;
            }
        }
        wanted.insert(name);
    }
    for entry in fs::read_dir(to)? {
        let entry = entry?;
        if !wanted.contains(&entry.file_name()) {
            if entry.path().is_dir() {
                fs::remove_dir_all(entry.path())?;
            } else {
                fs::remove_file(entry.path())?;
            }
        }
    }
    Ok(())
}

/// Runs `cargo check` with `args` in `dir`; its diagnostics on success.
fn check(dir: &Path, target: &Path, args: &[&str]) -> io::Result<String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let out = Command::new(cargo)
        .current_dir(dir)
        .env("CARGO_TARGET_DIR", target)
        .env_remove("RUSTFLAGS")
        .args(["check", "--message-format", "short"])
        .args(args)
        .output()?;
    let diagnostics = String::from_utf8_lossy(&out.stderr).into_owned();
    if !out.status.success() {
        return Err(io::Error::other(format!(
            "cargo check {} failed:\n{diagnostics}",
            args.join(" ")
        )));
    }
    Ok(diagnostics)
}

/// Runs the scan over the workspace at `root` and reads its keep-list.
///
/// # Errors
/// I/O errors, a copy that does not build, or a malformed keep-list.
pub fn run_reach(root: &Path) -> io::Result<ReachReport> {
    let keep = parse_keep(&fs::read_to_string(root.join(KEEP_LIST))?).map_err(io::Error::other)?;
    let mut items: Vec<String> = Vec::new();
    let mut marked = BTreeMap::new();
    for (krate, src_dir) in library_roots(root)? {
        let mut files = Vec::new();
        crate::walk(&src_dir, &mut files)?;
        files.sort();
        for path in files {
            let in_src = path.strip_prefix(&src_dir).unwrap_or(&path);
            if in_src.starts_with("bin") || in_src == Path::new("main.rs") {
                continue;
            }
            let text = fs::read_to_string(&path)?;
            let src = Source::new(path.to_string_lossy(), text.clone());
            let fns = pub_fns(&module_path(&krate, in_src), &src);
            if fns.is_empty() {
                continue;
            }
            let ids: Vec<(usize, usize)> = fns
                .iter()
                .map(|f| {
                    items.push(f.item.clone());
                    (f.offset, items.len() - 1)
                })
                .collect();
            marked.insert(path, mark(&text, &ids));
        }
    }
    let tree = root.join(SCRATCH).join("tree");
    let target = root.join(SCRATCH).join("target");
    sync(root, &tree, &marked)?;
    let mut diagnostics = check(
        &tree,
        &target,
        &["--workspace", "--lib", "--bins", "--examples"],
    )?;
    diagnostics += &check(&tree, &target, &["--manifest-path", "benchmark/Cargo.toml"])?;
    let warned = warned_ids(&diagnostics);
    let reached: BTreeSet<&str> = warned
        .iter()
        .filter_map(|&id| items.get(id).map(String::as_str))
        .collect();
    let unreached = items
        .iter()
        .filter(|item| !reached.contains(item.as_str()))
        .cloned()
        .collect();
    Ok(ReachReport { unreached, keep })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(text: &str) -> Vec<String> {
        let src = Source::new("lib.rs", text);
        pub_fns("k::m", &src).into_iter().map(|f| f.item).collect()
    }

    #[test]
    fn free_functions_and_methods_get_their_paths() {
        let text = "pub fn a() {}\n\
                    pub(crate) fn hidden() {}\n\
                    fn private() {}\n\
                    impl<S: Storage, F: Fn() -> u8> Stream<S, F> where S: Send {\n\
                        pub fn open(x: impl Fn()) -> Self { let s = \"pub fn fake\"; todo!() }\n\
                        // pub fn commented() {}\n\
                        pub const fn width() -> u8 { 1 }\n\
                    }\n\
                    impl Default for Stream<u8> { fn default() -> Self { todo!() } }\n\
                    pub fn after() {}\n";
        assert_eq!(
            items(text),
            [
                "k::m::a",
                "k::m::Stream::open",
                "k::m::Stream::width",
                "k::m::after"
            ]
        );
    }

    #[test]
    fn inline_modules_nest_and_test_code_is_skipped() {
        let text = "pub mod inner {\n\
                        pub struct T;\n\
                        impl crate::inner::T { pub fn f(&self) {} }\n\
                    }\n\
                    mod decl;\n\
                    #[cfg(test)]\n\
                    mod tests {\n\
                        pub fn helper() {}\n\
                    }\n\
                    pub fn last() {}\n";
        assert_eq!(items(text), ["k::m::inner::T::f", "k::m::last"]);
    }

    #[test]
    fn marking_inserts_one_attribute_per_function() {
        let text = "pub fn a() {}\nimpl S { pub fn b() {} }\n";
        let src = Source::new("lib.rs", text);
        let ids: Vec<(usize, usize)> = pub_fns("k", &src)
            .iter()
            .enumerate()
            .map(|(id, f)| (f.offset, id + 7))
            .collect();
        assert_eq!(
            mark(text, &ids),
            "#[deprecated(note = \"ID7\")] pub fn a() {}\n\
             impl S { #[deprecated(note = \"ID8\")] pub fn b() {} }\n"
        );
    }

    #[test]
    fn warnings_name_their_ids() {
        let out = "src/a.rs:3:5: warning: use of deprecated function `k::f`: ID12\n\
                   src/a.rs:4:5: warning: use of deprecated associated function `k::S::new`: ID3\n\
                   src/a.rs:9:1: warning: unused variable: `ID4`\n\
                   warning: `k` (lib) generated 2 warnings\n";
        assert_eq!(warned_ids(out), BTreeSet::from([3, 12]));
    }

    #[test]
    fn module_paths_follow_the_file_layout() {
        let path = |p: &str| module_path("hierod_detect", Path::new(p));
        assert_eq!(path("lib.rs"), "hierod_detect");
        assert_eq!(path("engine/mod.rs"), "hierod_detect::engine");
        assert_eq!(
            path("engine/standardize.rs"),
            "hierod_detect::engine::standardize"
        );
    }

    #[test]
    fn the_keep_list_needs_a_reason_per_line() {
        let keep = parse_keep("# header\n\nk::f   pins\tand tests\n").expect("parses");
        assert_eq!(
            keep.get("k::f").map(String::as_str),
            Some("pins\tand tests")
        );
        assert!(parse_keep("k::g\n").is_err());
        let report = ReachReport {
            unreached: BTreeSet::from(["k::f".to_string(), "k::new".to_string()]),
            keep: parse_keep("k::f pins\nk::gone pins\n").expect("parses"),
        };
        assert_eq!(report.unlisted(), ["k::new"]);
        assert_eq!(report.stale(), ["k::gone"]);
        assert!(!report.clean());
    }
}
