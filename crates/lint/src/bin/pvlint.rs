//! `pvlint` — run the workspace static-analysis pass and report.
//!
//! ```text
//! pvlint [--root DIR] [--json PATH] [--list-rules]
//! ```
//!
//! Exits 0 when the tree is clean, 1 on any unsuppressed finding (or a
//! stale/malformed suppression) and on I/O errors, which are printed as
//! `Error: …` per the workspace bin convention. `--json` additionally
//! writes the machine-readable artifact validated by `check_bench_json`.

use pv_lint::{lint_workspace, render_human, report_json, rules};
use pv_runtime::flags::{self, Flag};
use std::path::PathBuf;
use std::process::ExitCode;

/// Compiled-in default: the workspace root relative to this crate, so
/// the bin works from any working directory.
const DEFAULT_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Parsed command line.
#[derive(Debug, PartialEq, Eq)]
struct PvlintArgs {
    /// Workspace root to scan.
    root: PathBuf,
    /// Where to write the JSON artifact, if anywhere.
    json: Option<PathBuf>,
    /// Print the rule table and exit.
    list_rules: bool,
}

const PVLINT_FLAGS: &[Flag] = &[
    Flag::value("--root"),
    Flag::value("--json"),
    Flag::switch("--list-rules"),
];

/// Pure argument parser, unit-testable without a process.
fn parse_pvlint_args(args: &[String]) -> Result<PvlintArgs, String> {
    let flags = flags::parse(args, PVLINT_FLAGS, "")?;
    Ok(PvlintArgs {
        root: PathBuf::from(flags.value("--root").unwrap_or(DEFAULT_ROOT)),
        json: flags.value("--json").map(PathBuf::from),
        list_rules: flags.has("--list-rules"),
    })
}

/// Runs the pass; `Ok(true)` means the tree is clean.
fn run(args: &PvlintArgs) -> Result<bool, String> {
    if args.list_rules {
        for rule in rules::RULES {
            println!("{}  [{}]  {}", rule.id, rule.severity, rule.summary);
        }
        return Ok(true);
    }
    let report =
        lint_workspace(&args.root).map_err(|e| format!("scanning {}: {e}", args.root.display()))?;
    print!("{}", render_human(&report));
    if let Some(path) = &args.json {
        std::fs::write(path, report_json(&report))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(report.is_clean())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_pvlint_args(&args).and_then(|parsed| run(&parsed)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("Error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_root_json_and_list_rules() {
        let parsed = parse_pvlint_args(&strings(&[
            "--root",
            "/tmp/ws",
            "--json",
            "out.json",
            "--list-rules",
        ]))
        .expect("valid args");
        assert_eq!(parsed.root, PathBuf::from("/tmp/ws"));
        assert_eq!(parsed.json, Some(PathBuf::from("out.json")));
        assert!(parsed.list_rules);
    }

    #[test]
    fn error_paths_return_messages_not_panics() {
        assert!(parse_pvlint_args(&strings(&["--root"]))
            .unwrap_err()
            .contains("--root needs"));
        assert!(parse_pvlint_args(&strings(&["--json"]))
            .unwrap_err()
            .contains("--json needs"));
        assert!(parse_pvlint_args(&strings(&["--bogus"]))
            .unwrap_err()
            .contains("unknown flag '--bogus'"));
    }

    #[test]
    fn default_root_is_the_workspace() {
        let parsed = parse_pvlint_args(&[]).expect("no args is valid");
        assert!(parsed.root.join("Cargo.toml").exists());
        assert!(parsed.json.is_none());
    }
}
