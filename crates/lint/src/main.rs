//! The `decay-lint` CLI.
//!
//! ```text
//! decay-lint [--root <dir>] [--check] [--json <path>] [--quiet] [--list-rules]
//! ```
//!
//! * `--root`  workspace root (default: walk up from the current
//!   directory to the first `Cargo.toml` + `crates/` pair)
//! * `--check` exit nonzero when violations exist (the CI mode)
//! * `--json`  write the `decay-lint-report-v1` artifact
//! * `--quiet` suppress the text report when clean
//! * `--list-rules` print the rule glossary and exit

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut check = false;
    let mut json: Option<PathBuf> = None;
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory"),
            },
            "--check" => check = true,
            "--json" => match args.next() {
                Some(path) => json = Some(PathBuf::from(path)),
                None => return usage("--json needs a path"),
            },
            "--quiet" | "-q" => quiet = true,
            "--list-rules" => {
                print!("{}", rule_glossary());
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root.or_else(find_root) {
        Some(r) => r,
        None => {
            eprintln!("decay-lint: no workspace root found (looked for Cargo.toml + crates/)");
            return ExitCode::from(2);
        }
    };

    let report = match decay_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("decay-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = json {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("decay-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if !quiet || !report.violations.is_empty() {
        print!("{}", report.to_text());
    }
    if check && !report.violations.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("decay-lint: {err}");
    }
    eprintln!(
        "usage: decay-lint [--root <dir>] [--check] [--json <path>] [--quiet] [--list-rules]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn rule_glossary() -> String {
    [
        "D1 hash-iteration    no HashMap/HashSet in trace-affecting crates without a",
        "                     lookup-only annotation; iteration over them always flagged",
        "D2 wall-clock        no Instant::now/SystemTime outside telemetry-timing-gated",
        "                     code or annotated report-only sites",
        "D3 ambient-entropy   no thread_rng/rand::random/from_entropy/OsRng anywhere;",
        "                     all randomness flows from explicit seeds",
        "",
        "allow syntax: // decay-lint: allow(<rule>[, <rule>]) — <mandatory justification>",
    ]
    .join("\n")
        + "\n"
}
