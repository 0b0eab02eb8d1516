//! `cargo xtask` — workspace automation. Currently one subcommand:
//!
//! ```text
//! cargo xtask lint [--format json] [--root PATH]
//! ```
//!
//! Exit codes: 0 clean, 1 lint findings, 2 usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::{run_lint, workspace_root, Rule};

fn usage() -> ExitCode {
    eprintln!("usage: cargo xtask lint [--format json] [--root PATH]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(("lint", rest)) = args.split_first().map(|(c, r)| (c.as_str(), r)) else {
        return usage();
    };
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
