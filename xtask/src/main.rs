//! `cargo xtask` — workspace automation. Currently one subcommand:
//!
//! ```text
//! cargo xtask lint [--update-allowlist] [--format json] [--root PATH]
//! ```
//!
//! Exit codes: 0 clean, 1 lint violations, 2 usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::{run_lint, update_allowlist, workspace_root, Rule};

fn usage() -> ExitCode {
    eprintln!("usage: cargo xtask lint [--update-allowlist] [--format json] [--root PATH]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(("lint", rest)) = args.split_first().map(|(c, r)| (c.as_str(), r)) else {
        return usage();
    };
    let mut update = false;
    let mut json = false;
    let mut root = workspace_root();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--update-allowlist" => update = true,
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

    if update {
        return match update_allowlist(&root) {
            Ok(n) => {
                eprintln!("xtask lint: allowlist rewritten ({n} grandfathered sites)");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("xtask lint: {e}");
                ExitCode::from(2)
            }
        };
    }

    let outcome = match run_lint(&root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        let body: Vec<String> = outcome
            .violations
            .iter()
            .flat_map(|v| v.sites.iter())
            .map(|f| f.to_json())
            .collect();
        let atomics: Vec<String> = outcome.atomics.iter().map(|a| a.to_json()).collect();
        let lock_edges: Vec<String> = outcome.lock_edges.iter().map(|e| e.to_json()).collect();
        println!(
            "{{\"clean\":{},\"violations\":[{}],\"atomics\":[{}],\"lock_edges\":[{}]}}",
            outcome.clean(),
            body.join(","),
            atomics.join(","),
            lock_edges.join(",")
        );
    } else {
        for v in &outcome.violations {
            eprint!("{}", v.render());
        }
        let per_rule: Vec<String> = Rule::ALL
            .iter()
            .map(|r| {
                let n = outcome.findings.iter().filter(|f| f.rule == *r).count();
                format!("{r}: {n}")
            })
            .collect();
        eprintln!(
            "xtask lint: {} findings under ratchet ({}) — {}",
            outcome.findings.len(),
            per_rule.join(", "),
            if outcome.clean() {
                "clean".to_string()
            } else {
                format!("{} violation(s)", outcome.violations.len())
            }
        );
    }
    if outcome.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
