//! `cargo xtask` — workspace automation:
//!
//! ```text
//! cargo xtask lint [--format json] [--root PATH]
//! cargo xtask reach [--root PATH]
//! ```
//!
//! `lint` runs the rule suite; `reach` lists the `pub` items that only
//! tests reach or only their own crate names, and compares them with
//! `xtask/reach.keep`.
//!
//! Exit codes: 0 clean, 1 lint findings or a keep-list mismatch, 2 usage
//! or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::reach::{run_reach, KEEP_LIST};
use xtask::{run_lint, workspace_root, Rule};

fn usage() -> ExitCode {
    eprintln!("usage: cargo xtask lint [--format json] [--root PATH]");
    eprintln!("       cargo xtask reach [--root PATH]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first().map(|(c, r)| (c.as_str(), r)) {
        Some(("lint", rest)) => lint(rest),
        Some(("reach", rest)) => reach(rest),
        _ => usage(),
    }
}

/// Prints every flagged item, one per line with its verdict and its
/// keep-list reason, then what differs from the keep-list.
fn reach(args: &[String]) -> ExitCode {
    let root = match args {
        [] => workspace_root(),
        [flag, path] if flag == "--root" => PathBuf::from(path),
        _ => return usage(),
    };
    let report = match run_reach(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask reach: {e}");
            return ExitCode::from(2);
        }
    };
    for (item, flag) in &report.flagged {
        let reason = report.keep.get(item).map_or("", String::as_str);
        println!("{item}\t{}\t{reason}", flag.verdict());
    }
    for item in report.unlisted() {
        let flag = &report.flagged[item];
        eprintln!(
            "{}: {item}: {}, and {KEEP_LIST} does not list it",
            flag.location,
            flag.verdict()
        );
    }
    for item in report.stale() {
        eprintln!(
            "{item}: listed in {KEEP_LIST}, but named outside its crate by code that runs, or gone"
        );
    }
    eprintln!(
        "xtask reach: {} pub items, {} flagged, {} kept — {}",
        report.marked,
        report.flagged.len(),
        report.keep.len(),
        if report.clean() { "clean" } else { "failed" }
    );
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn lint(rest: &[String]) -> ExitCode {
    let mut json = false;
    let mut root = workspace_root();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("json") => json = true,
                Some("text") => json = false,
                _ => return usage(),
            },
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    let report = match run_lint(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: scanning sources: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        let body: Vec<String> = report.findings.iter().map(|f| f.to_json()).collect();
        let atomics: Vec<String> = report.atomics.iter().map(|a| a.to_json()).collect();
        let lock_edges: Vec<String> = report.lock_edges.iter().map(|e| e.to_json()).collect();
        println!(
            "{{\"clean\":{},\"violations\":[{}],\"atomics\":[{}],\"lock_edges\":[{}]}}",
            report.clean(),
            body.join(","),
            atomics.join(","),
            lock_edges.join(",")
        );
    } else {
        for f in &report.findings {
            eprintln!("{}", f.render());
        }
        let per_rule: Vec<String> = Rule::ALL
            .iter()
            .map(|r| {
                let n = report.findings.iter().filter(|f| f.rule == *r).count();
                format!("{r}: {n}")
            })
            .collect();
        eprintln!(
            "xtask lint: {} findings ({}) — {}",
            report.findings.len(),
            per_rule.join(", "),
            if report.clean() { "clean" } else { "failed" }
        );
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
