//! `cargo xtask reach` — the public items that nothing outside tests, or
//! nothing outside their own crate, names.
//!
//! A search by name cannot tell one `len` from another; the compiler can.
//! The scan copies the repository into `target/reach/tree` and puts
//! `#[deprecated(note = "IDn")]` on every non-test `pub` fn, struct, enum,
//! trait, const, static and type alias under `crates/*/src` and `src/`
//! (binaries excluded). It then checks the copy twice: the workspace's
//! lib, bin and example targets and `benchmark/` (the code that runs), and
//! its test and bench targets with every feature on (so the loom models
//! count). Each use of a marked item draws a deprecation warning that
//! carries its ID and its position. A warning counts as a use unless it
//! lies
//!
//! * inside the item's own definition,
//! * inside an `impl` block of the item in its own crate (`impl Foo`,
//!   `impl Display for Foo`, or for a trait `impl Tr for X`): a type's
//!   constructor or a trait's implementation is not a caller, or
//! * on a `use` item: a `pub use` re-export is not a call, and a plain
//!   import is followed by the uses it imports for.
//!
//! Two verdicts follow. An item is *reached* when non-test code uses it;
//! one that only tests reach is dead code or a fixture. An item is *named
//! outside* when a use lies outside its crate's library: another crate's
//! lib, bin, example, test or bench, this crate's integration tests, or
//! `benchmark/`. One that only its own crate names should be
//! `pub(crate)`, where rustc's `dead_code` lint then sees its fields that
//! are never read and its variants that are never built (a marker cannot:
//! a marked field warns at every construction). Doc-tests are not
//! compiled; a doc-test that names a narrowed item fails `cargo test`.
//! A user that is itself dead still counts, so deleting one item can
//! expose the next.
//!
//! The run passes when the items that fail either verdict are exactly the
//! ones listed in [`KEEP_LIST`]: one per line, the kind, the item's path,
//! then why it stays.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Component, Path, PathBuf};
use std::process::Command;

use crate::scan::Source;

/// The checked-in keep-list, relative to the workspace root.
pub const KEEP_LIST: &str = "xtask/reach.keep";

/// Where the marked copy and its build live, relative to the root.
const SCRATCH: &str = "target/reach";

/// Directory names never copied: build outputs and version control.
const SKIP_DIRS: [&str; 4] = [".git", "target", "out", ".bench_build"];

/// The item kinds the scan marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Fn,
    Struct,
    Enum,
    Trait,
    Const,
    Static,
    Type,
}

impl Kind {
    const ALL: [Kind; 7] = [
        Kind::Fn,
        Kind::Struct,
        Kind::Enum,
        Kind::Trait,
        Kind::Const,
        Kind::Static,
        Kind::Type,
    ];

    /// The keyword that declares the kind, which is also its keep-list
    /// spelling.
    pub fn keyword(self) -> &'static str {
        match self {
            Kind::Fn => "fn",
            Kind::Struct => "struct",
            Kind::Enum => "enum",
            Kind::Trait => "trait",
            Kind::Const => "const",
            Kind::Static => "static",
            Kind::Type => "type",
        }
    }

    fn parse(word: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.keyword() == word)
    }

    /// Whether the definition ends with a `{ .. }` body rather than `;`.
    fn braced(self) -> bool {
        matches!(self, Kind::Fn | Kind::Struct | Kind::Enum | Kind::Trait)
    }
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// One `pub` item of a source file.
#[derive(Debug)]
struct Def {
    kind: Kind,
    /// `crate::module::Type::name`.
    path: String,
    /// Byte offset of its `pub` keyword, where the attribute goes.
    offset: usize,
    /// 1-based line of `offset`.
    line: usize,
    /// Its definition, from `pub` to the closing `}` or `;`.
    span: Range<usize>,
}

/// One marked item.
#[derive(Debug)]
struct PubItem {
    def: Def,
    /// The last path segment.
    name: String,
    /// The library crate that defines it.
    krate: String,
    /// Workspace-relative file.
    file: PathBuf,
}

/// An `impl` block of a library file.
#[derive(Debug)]
struct ImplBlock {
    /// The implemented trait's last path segment, if any.
    trait_name: Option<String>,
    /// The self type's last path segment.
    self_name: String,
    span: Range<usize>,
}

/// What the scan found out about one flagged item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flag {
    /// Where the item is defined: `file:line`.
    pub location: String,
    /// Non-test code uses it.
    pub reached: bool,
    /// Something outside its crate's library names it.
    pub outside: bool,
}

impl Flag {
    /// What is wrong with the item, for the report.
    pub fn verdict(&self) -> &'static str {
        match (self.reached, self.outside) {
            (false, false) => "nothing outside its crate's tests names it",
            (false, true) => "only tests reach it",
            (true, false) => "only its own crate names it: narrow it to pub(crate)",
            (true, true) => "reached and named outside its crate",
        }
    }
}

/// What a scan found, against the keep-list.
#[derive(Debug, Default)]
pub struct ReachReport {
    /// Every `pub` item the scan marked.
    pub marked: usize,
    /// Every item that fails a verdict, keyed `kind path`.
    pub flagged: BTreeMap<String, Flag>,
    /// The keep-list: `kind path` → why it stays.
    pub keep: BTreeMap<String, String>,
}

impl ReachReport {
    /// Flagged items the keep-list does not name.
    pub fn unlisted(&self) -> Vec<&str> {
        self.flagged
            .keys()
            .filter(|item| !self.keep.contains_key(*item))
            .map(String::as_str)
            .collect()
    }

    /// Keep-list entries that pass both verdicts (or no longer exist).
    pub fn stale(&self) -> Vec<&str> {
        self.keep
            .keys()
            .filter(|item| !self.flagged.contains_key(*item))
            .map(String::as_str)
            .collect()
    }

    /// Whether the flagged items are exactly the keep-list.
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

/// Whether the keyword at `at` starts an item: it follows the start of
/// the file, a `{`, `}`, `;` or attribute `]`, or `unsafe`. An `impl` in
/// a type (`-> impl Iterator`, `x: impl Fn()`) does not.
fn item_position(masked: &str, at: usize) -> bool {
    let before = masked[..at].trim_end();
    before.is_empty() || before.ends_with(['{', '}', ';', ']']) || before.ends_with("unsafe")
}

/// `text` with a leading `<..>` generic list removed.
fn skip_generics(text: &str) -> &str {
    let text = text.trim_start();
    if !text.starts_with('<') {
        return text;
    }
    let mut depth = 0_usize;
    let mut prev = ' ';
    for (k, c) in text.char_indices() {
        match c {
            '<' => depth += 1,
            '>' if prev != '-' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return &text[k + 1..];
                }
            }
            _ => {}
        }
        prev = c;
    }
    ""
}

/// The last segment of the path `text` starts with (`&`, `dyn` and
/// generic arguments skipped).
fn last_segment(text: &str) -> String {
    let text = text.trim_start().trim_start_matches('&').trim_start();
    let text = text.strip_prefix("dyn ").unwrap_or(text);
    let path: String = text
        .trim_start()
        .chars()
        .take_while(|&c| c.is_alphanumeric() || c == '_' || c == ':')
        .collect();
    path.rsplit("::").next().unwrap_or("").to_string()
}

/// The trait and self type named by an `impl` header (the text between
/// `impl` and its `{`).
fn impl_header(header: &str) -> (Option<String>, String) {
    let rest = skip_generics(header);
    let rest = rest
        .char_indices()
        .find(|&(k, _)| keyword_at(rest, k, "where"))
        .map_or(rest, |(k, _)| &rest[..k]);
    let mut depth = 0_i32;
    for (k, c) in rest.char_indices() {
        match c {
            '<' | '(' => depth += 1,
            '>' if !rest[..k].ends_with('-') => depth -= 1,
            ')' => depth -= 1,
            'f' if depth == 0 && keyword_at(rest, k, "for") => {
                return (Some(last_segment(&rest[..k])), last_segment(&rest[k + 3..]));
            }
            _ => {}
        }
    }
    (None, last_segment(rest))
}

/// If a marked item kind's `pub` (optionally `pub const|unsafe|async fn`)
/// starts at `at`, its kind and name.
fn pub_item(masked: &str, at: usize) -> Option<(Kind, &str)> {
    if !keyword_at(masked, at, "pub") {
        return None;
    }
    let mut rest = masked[at + 3..].trim_start();
    if rest.len() == masked.len() - at - 3 {
        return None; // `pub(crate)` and the like: not public
    }
    let mut probe = rest;
    while let qualifier @ ("const" | "unsafe" | "async") = ident(probe) {
        probe = probe[qualifier.len()..].trim_start();
    }
    if ident(probe) == "fn" {
        rest = probe;
    }
    let kind = Kind::parse(ident(rest))?;
    let mut name = ident(&rest[kind.keyword().len()..]);
    if kind == Kind::Static && name == "mut" {
        name = ident(&rest[kind.keyword().len()..].trim_start()[3..]);
    }
    (!name.is_empty()).then_some((kind, name))
}

/// The end of the definition starting at `at`: just past its `;` at
/// depth 0, or past the `}` that closes its body when `braced`.
fn definition_end(masked: &str, at: usize, braced: bool) -> usize {
    let mut depth = 0_usize;
    let mut opened = false;
    for (k, b) in masked.bytes().enumerate().skip(at) {
        match b {
            b'(' | b'[' => depth += 1,
            b'{' => {
                opened |= depth == 0 && braced;
                depth += 1;
            }
            b')' | b']' | b'}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 && opened {
                    return k + 1;
                }
            }
            b';' if depth == 0 => return k + 1,
            _ => {}
        }
    }
    masked.len()
}

/// The non-test items and `impl` blocks of one library source file whose
/// module path is `module` (e.g. `hierod_adapt::drift`), in file order.
fn scan_file(module: &str, src: &Source) -> (Vec<Def>, Vec<ImplBlock>) {
    let masked = src.masked.as_str();
    let mut items = Vec::new();
    let mut impls = Vec::new();
    let mut blocks: Vec<Block> = Vec::new();
    let mut pending: Option<Block> = None;
    for (at, c) in masked.char_indices() {
        match c {
            '{' => blocks.push(pending.take().unwrap_or(Block::Other)),
            '}' => {
                blocks.pop();
            }
            ';' => pending = None,
            'i' if keyword_at(masked, at, "impl") && item_position(masked, at) => {
                let header_end = masked[at..]
                    .find(['{', ';'])
                    .map_or(masked.len(), |k| at + k);
                let (trait_name, self_name) = impl_header(&masked[at + 4..header_end]);
                impls.push(ImplBlock {
                    trait_name,
                    self_name: self_name.clone(),
                    span: at..definition_end(masked, at, true),
                });
                pending = Some(Block::Impl(self_name));
            }
            'm' if keyword_at(masked, at, "mod") => {
                pending = Some(Block::Module(ident(&masked[at + 3..]).to_string()));
            }
            'p' => {
                let Some((kind, name)) = pub_item(masked, at) else {
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
                items.push(Def {
                    kind,
                    path: path.join("::"),
                    offset: at,
                    line: src.line_of(at),
                    span: at..definition_end(masked, at, kind.braced()),
                });
            }
            _ => {}
        }
    }
    (items, impls)
}

/// The byte spans of the `use` items in `masked`.
fn use_spans(masked: &str) -> Vec<Range<usize>> {
    let mut spans = Vec::new();
    let mut from = 0;
    while let Some(k) = masked[from..].find("use") {
        let at = from + k;
        from = at + 3;
        if keyword_at(masked, at, "use") && !masked[at + 3..].trim_start().starts_with('<') {
            let end = masked[at..].find(';').map_or(masked.len(), |e| at + e + 1);
            spans.push(at..end);
            from = end;
        }
    }
    spans
}

/// `text` with `#[deprecated(note = "IDn")]` put before each item,
/// `ids` pairing each `pub` offset with its ID, in offset order.
fn mark(text: &str, ids: &[(usize, usize)]) -> String {
    let mut out = String::with_capacity(text.len() + ids.len() * 32);
    let mut from = 0;
    for &(offset, id) in ids {
        out.push_str(&text[from..offset]);
        out.push_str(&format!("#[deprecated(note = \"ID{id}\")] "));
        from = offset;
    }
    out.push_str(&text[from..]);
    out
}

/// One `use of deprecated …: IDn` warning: where it is and which ID.
#[derive(Debug, PartialEq, Eq)]
struct Warning {
    file: PathBuf,
    line: usize,
    column: usize,
    id: usize,
}

/// The deprecation warnings in cargo's short-format output, their paths
/// as printed.
fn warnings(output: &str) -> Vec<Warning> {
    output
        .lines()
        .filter_map(|line| {
            let (location, message) = line.split_once(": warning: use of deprecated")?;
            let tail = &message[message.rfind("`: ID")? + 5..];
            let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
            let mut parts = location.rsplitn(3, ':');
            let column = parts.next()?.parse().ok()?;
            let line = parts.next()?.parse().ok()?;
            Some(Warning {
                file: PathBuf::from(parts.next()?),
                line,
                column,
                id: digits.parse().ok()?,
            })
        })
        .collect()
}

/// Parses the keep-list: `#` comments and blank lines skipped, otherwise
/// a kind, a path, whitespace, and a reason. Keys are `kind path`.
///
/// # Errors
/// A line with an unknown kind, or with no reason.
fn parse_keep(text: &str) -> Result<BTreeMap<String, String>, String> {
    let mut keep = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut words = line.splitn(3, char::is_whitespace);
        let (kind, item) = (words.next().unwrap_or(""), words.next().unwrap_or(""));
        let reason = words.next().unwrap_or("").trim();
        if Kind::parse(kind).is_none() {
            return Err(format!(
                "{KEEP_LIST}:{}: `{kind}` is not an item kind",
                n + 1
            ));
        }
        if item.is_empty() || reason.is_empty() {
            return Err(format!("{KEEP_LIST}:{}: `{item}` gives no reason", n + 1));
        }
        keep.insert(format!("{kind} {item}"), reason.to_string());
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

/// Library source roots, workspace-relative: `(crate name, src
/// directory)`.
fn library_roots(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut roots = vec![(crate_name(&root.join("Cargo.toml"))?, PathBuf::from("src"))];
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    crates.sort();
    for dir in crates {
        if dir.join("Cargo.toml").is_file() && dir.join("src").is_dir() {
            let rel = dir.strip_prefix(root).unwrap_or(&dir).join("src");
            roots.push((crate_name(&dir.join("Cargo.toml"))?, rel));
        }
    }
    Ok(roots)
}

/// The library crate a workspace-relative file belongs to, if it is
/// library source (not a binary, test, bench, example or `benchmark/`).
fn library_of<'a>(roots: &'a [(String, PathBuf)], file: &Path) -> Option<&'a str> {
    roots.iter().find_map(|(krate, src)| {
        let in_src = file.strip_prefix(src).ok()?;
        let binary = in_src.starts_with("bin") || in_src == Path::new("main.rs");
        (!binary).then_some(krate.as_str())
    })
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

/// `path` relative to `tree`, with `.` and `..` resolved. Cargo prints
/// workspace members' paths relative to the workspace it was run for and
/// other path dependencies' absolute.
fn tree_relative(tree: &Path, base: &Path, path: &Path) -> PathBuf {
    let mut out = PathBuf::new();
    for c in base.join(path).components() {
        match c {
            Component::ParentDir => {
                out.pop();
            }
            Component::CurDir => {}
            other => out.push(other),
        }
    }
    out.strip_prefix(tree)
        .map_or(out.clone(), Path::to_path_buf)
}

/// Byte offset of a 1-based line and character column.
fn offset_of(text: &str, line: usize, column: usize) -> usize {
    let start: usize = text
        .split_inclusive('\n')
        .take(line.saturating_sub(1))
        .map(str::len)
        .sum();
    let rest = &text[start.min(text.len())..];
    start
        + rest
            .char_indices()
            .nth(column.saturating_sub(1))
            .map_or(rest.len(), |(k, _)| k)
}

/// A source file's text and the spans the exclusions need.
struct FileFacts {
    text: String,
    uses: Vec<Range<usize>>,
}

/// Runs the scan over the workspace at `root` and reads its keep-list.
///
/// # Errors
/// I/O errors, a copy that does not build, or a malformed keep-list.
pub fn run_reach(root: &Path) -> io::Result<ReachReport> {
    let keep = parse_keep(&fs::read_to_string(root.join(KEEP_LIST))?).map_err(io::Error::other)?;
    let roots = library_roots(root)?;
    let mut items: Vec<PubItem> = Vec::new();
    let mut impls: BTreeMap<PathBuf, Vec<ImplBlock>> = BTreeMap::new();
    let mut marked = BTreeMap::new();
    for (krate, src_dir) in &roots {
        let mut files = Vec::new();
        crate::walk(&root.join(src_dir), &mut files)?;
        files.sort();
        for path in files {
            let file = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            if library_of(&roots, &file).is_none() {
                continue;
            }
            let in_src = file.strip_prefix(src_dir).unwrap_or(&file);
            let text = fs::read_to_string(&path)?;
            let src = Source::new(file.to_string_lossy(), text.clone());
            let (found, blocks) = scan_file(&module_path(krate, in_src), &src);
            impls.insert(file.clone(), blocks);
            if found.is_empty() {
                continue;
            }
            let mut ids = Vec::new();
            for def in found {
                ids.push((def.offset, items.len()));
                items.push(PubItem {
                    name: def.path.rsplit("::").next().unwrap_or("").to_string(),
                    def,
                    krate: krate.clone(),
                    file: file.clone(),
                });
            }
            marked.insert(path, mark(&text, &ids));
        }
    }

    let tree = root.join(SCRATCH).join("tree");
    let target = root.join(SCRATCH).join("target");
    sync(root, &tree, &marked)?;
    let code = ["--workspace", "--lib", "--bins", "--examples"];
    let tests = ["--workspace", "--tests", "--benches", "--all-features"];
    let mut runs = vec![
        (true, tree.clone(), check(&tree, &target, &code)?),
        (false, tree.clone(), check(&tree, &target, &tests)?),
    ];
    if tree.join("benchmark/Cargo.toml").is_file() {
        let bench = tree.join("benchmark");
        runs.push((true, bench.clone(), check(&bench, &target, &["--bins"])?));
        runs.push((false, bench.clone(), check(&bench, &target, &["--tests"])?));
    }

    let mut files: BTreeMap<PathBuf, Option<FileFacts>> = BTreeMap::new();
    let mut reached = vec![false; items.len()];
    let mut outside = vec![false; items.len()];
    for (is_code, base, output) in &runs {
        for w in warnings(output) {
            let Some(item) = items.get(w.id) else {
                continue;
            };
            let file = tree_relative(&tree, base, &w.file);
            let facts = files.entry(file.clone()).or_insert_with(|| {
                let text = fs::read_to_string(tree.join(&file)).ok()?;
                let uses = use_spans(&Source::new("", text.as_str()).masked);
                Some(FileFacts { text, uses })
            });
            let Some(facts) = facts else {
                continue;
            };
            // Positions are in the marked copy; item and `impl` spans are
            // in the original.
            let in_copy = offset_of(&facts.text, w.line, w.column);
            let in_use = facts.uses.iter().any(|u| u.contains(&in_copy));
            let at = unmarked_offset(&facts.text, in_copy);
            let home = library_of(&roots, &file);
            let own_impl = home == Some(item.krate.as_str())
                && impls.get(&file).is_some_and(|blocks| {
                    blocks.iter().any(|b| {
                        b.span.contains(&at)
                            && match item.def.kind {
                                Kind::Trait => b.trait_name.as_deref() == Some(&item.name),
                                Kind::Struct | Kind::Enum | Kind::Type => b.self_name == item.name,
                                _ => false,
                            }
                    })
                });
            let own_definition = file == item.file && item.def.span.contains(&at);
            if own_definition || own_impl || in_use {
                continue;
            }
            reached[w.id] |= *is_code;
            outside[w.id] |= home != Some(item.krate.as_str());
        }
    }

    let mut flagged = BTreeMap::new();
    for (id, item) in items.iter().enumerate() {
        if reached[id] && outside[id] {
            continue;
        }
        flagged.insert(
            format!("{} {}", item.def.kind, item.def.path),
            Flag {
                location: format!("{}:{}", item.file.display(), item.def.line),
                reached: reached[id],
                outside: outside[id],
            },
        );
    }
    Ok(ReachReport {
        marked: items.len(),
        flagged,
        keep,
    })
}

/// The offset in the unmarked file of offset `at` in its marked text:
/// every `#[deprecated(note = "IDn")] ` before `at` is taken out.
fn unmarked_offset(marked: &str, at: usize) -> usize {
    let at = at.min(marked.len());
    let mut removed = 0;
    let mut from = 0;
    while let Some(k) = marked[from..at].find("#[deprecated(note = \"ID") {
        let start = from + k;
        let end = marked[start..]
            .find(")] ")
            .map_or(marked.len(), |e| start + e + 3);
        removed += end.min(at) - start;
        from = end.min(at);
    }
    at - removed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(text: &str) -> Vec<String> {
        let src = Source::new("lib.rs", text);
        scan_file("k::m", &src)
            .0
            .into_iter()
            .map(|d| format!("{} {}", d.kind, d.path))
            .collect()
    }

    #[test]
    fn every_kind_gets_its_path() {
        let text = "pub fn a() {}\n\
                    pub(crate) fn hidden() {}\n\
                    fn private() {}\n\
                    pub struct S { pub field: u8 }\n\
                    pub struct T(pub u8);\n\
                    pub enum E { A, B }\n\
                    pub trait Tr { fn go(&self); }\n\
                    pub const C: S = S { field: 1 };\n\
                    pub static mut M: u8 = 0;\n\
                    pub type Al = Vec<u8>;\n\
                    impl<S: Storage, F: Fn() -> u8> Stream<S, F> where S: Send {\n\
                        pub fn open(x: impl Fn()) -> Self { let s = \"pub fn fake\"; todo!() }\n\
                        // pub fn commented() {}\n\
                        pub const fn width() -> u8 { 1 }\n\
                        pub const unsafe fn raw() -> u8 { 1 }\n\
                        pub const K: u8 = 3;\n\
                    }\n\
                    impl Default for Stream<u8> { fn default() -> Self { todo!() } }\n\
                    pub fn after() {}\n";
        assert_eq!(
            items(text),
            [
                "fn k::m::a",
                "struct k::m::S",
                "struct k::m::T",
                "enum k::m::E",
                "trait k::m::Tr",
                "const k::m::C",
                "static k::m::M",
                "type k::m::Al",
                "fn k::m::Stream::open",
                "fn k::m::Stream::width",
                "fn k::m::Stream::raw",
                "const k::m::Stream::K",
                "fn k::m::after"
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
        assert_eq!(
            items(text),
            [
                "struct k::m::inner::T",
                "fn k::m::inner::T::f",
                "fn k::m::last"
            ]
        );
    }

    #[test]
    fn definitions_and_impl_blocks_have_their_spans() {
        let text = "pub const C: S = S { a: 1 };\npub fn f() -> u8 { { 1 } }\n\
                    impl<T> fmt::Display for Wrap<T>\nwhere\n    F: for<'a> Fn(&'a T),\n{ fn x() {} }\n\
                    fn g() -> impl Iterator<Item = u8> { todo!() }\n";
        let src = Source::new("lib.rs", text);
        let (found, impls) = scan_file("k", &src);
        let spans: Vec<&str> = found.iter().map(|d| &text[d.span.clone()]).collect();
        assert_eq!(
            spans,
            ["pub const C: S = S { a: 1 };", "pub fn f() -> u8 { { 1 } }"]
        );
        assert_eq!(impls.len(), 1, "`-> impl Trait` is not a block");
        assert_eq!(impls[0].trait_name.as_deref(), Some("Display"));
        assert_eq!(impls[0].self_name, "Wrap");
        assert!(text[impls[0].span.clone()].ends_with("fn x() {} }"));
    }

    #[test]
    fn use_items_span_to_their_semicolon() {
        let text = "pub use m::{\n    a,\n    b,\n};\nfn reuse() { used(); }\n";
        let spans = use_spans(&Source::new("lib.rs", text).masked);
        assert_eq!(spans.len(), 1);
        assert_eq!(&text[spans[0].clone()], "use m::{\n    a,\n    b,\n};");
    }

    #[test]
    fn marking_inserts_one_attribute_per_item_and_positions_unmark() {
        let text = "pub fn a() {}\nimpl S { pub fn b() {} }\n";
        let src = Source::new("lib.rs", text);
        let ids: Vec<(usize, usize)> = scan_file("k", &src)
            .0
            .iter()
            .enumerate()
            .map(|(id, d)| (d.offset, id + 7))
            .collect();
        let marked = mark(text, &ids);
        assert_eq!(
            marked,
            "#[deprecated(note = \"ID7\")] pub fn a() {}\n\
             impl S { #[deprecated(note = \"ID8\")] pub fn b() {} }\n"
        );
        let b = marked.find("pub fn b").expect("marked");
        assert_eq!(
            unmarked_offset(&marked, b),
            text.find("pub fn b").expect("b")
        );
        assert_eq!(offset_of(text, 2, 10), text.find("pub fn b").expect("b"));
    }

    #[test]
    fn warnings_name_their_positions_and_ids() {
        let out = "src/a.rs:3:5: warning: use of deprecated function `k::f`: ID12\n\
                   src/a.rs:4:5: warning: use of deprecated associated function `k::S::new`: ID3\n\
                   src/a.rs:9:1: warning: unused variable: `ID4`\n\
                   warning: `k` (lib) generated 2 warnings\n";
        let found = warnings(out);
        assert_eq!(found.len(), 2);
        assert_eq!(
            found[0],
            Warning {
                file: PathBuf::from("src/a.rs"),
                line: 3,
                column: 5,
                id: 12
            }
        );
        assert_eq!(found[1].id, 3);
        let tree = Path::new("/w/tree");
        assert_eq!(
            tree_relative(
                tree,
                &tree.join("benchmark"),
                Path::new("../crates/a/src/x.rs")
            ),
            Path::new("crates/a/src/x.rs")
        );
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
    fn the_keep_list_needs_a_kind_and_a_reason_per_line() {
        let keep = parse_keep("# header\n\nfn k::f   pins\tand tests\n").expect("parses");
        assert_eq!(
            keep.get("fn k::f").map(String::as_str),
            Some("pins\tand tests")
        );
        assert!(parse_keep("fn k::g\n").is_err());
        assert!(parse_keep("k::g because\n").is_err());
        let flag = Flag {
            location: "src/lib.rs:1".to_string(),
            reached: false,
            outside: true,
        };
        let report = ReachReport {
            marked: 3,
            flagged: BTreeMap::from([
                ("fn k::f".to_string(), flag.clone()),
                ("struct k::S".to_string(), flag),
            ]),
            keep: parse_keep("fn k::f pins\nfn k::gone pins\n").expect("parses"),
        };
        assert_eq!(report.unlisted(), ["struct k::S"]);
        assert_eq!(report.stale(), ["fn k::gone"]);
        assert!(!report.clean());
    }
}
