//! `decay-lint`: the workspace determinism static-analysis pass.
//!
//! Every claim this reproduction makes — ζ(t) trajectories, PRR
//! series, golden trace digests — rests on runs being bit-identical
//! across backends and resume splits. That contract is
//! exercised dynamically by the proptest suites; this crate enforces
//! it *statically*, so a stray `HashMap` iteration or an ungated
//! `Instant::now` is caught at lint time instead of after a fuzz
//! divergence is minimized.
//!
//! See [`rules`] for the rule glossary (D1–D3), [`lexer`] for the
//! lightweight Rust lexer feeding them, and the README section
//! "Static analysis & the determinism contract" for how each rule maps
//! onto the bit-identical-trace guarantees.

pub mod lexer;
pub mod report;
pub mod rules;
pub mod walk;

use std::path::Path;

pub use lexer::FileModel;
pub use report::Report;
pub use rules::{check_file, Config, Violation};

/// Lints one in-memory source file — the fixture-test entry point.
pub fn lint_source(rel_path: &str, source: &str, cfg: &Config) -> rules::CheckResult {
    check_file(&FileModel::lex(rel_path, source), cfg)
}

/// Lints the workspace rooted at `root` with the workspace scopes.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let cfg = Config::workspace();
    let files = walk::rust_sources(root)?;
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    for rel in files {
        let source = std::fs::read_to_string(root.join(&rel))
            .map_err(|e| format!("cannot read {rel}: {e}"))?;
        let result = check_file(&FileModel::lex(&rel, &source), &cfg);
        report.violations.extend(result.violations);
        report.allows.extend(result.allows);
    }
    Ok(report)
}
