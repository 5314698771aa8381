//! Smoke test and golden for the experiment registry: every registered
//! experiment runs, none reports a violated claim, and every table
//! without its wall-clock columns matches `tests/golden/experiments.txt`
//! line for line. This is the executable version of EXPERIMENTS.md.
//!
//! To bless an intentional change, rerun with `SCENARIO_GOLDEN_UPDATE=1`
//! and commit the rewritten golden file.

use std::sync::OnceLock;

use decay_bench::experiments;
use decay_bench::Table;
use decay_scenario::golden;

/// Every experiment's table, run once and shared by the tests below.
fn tables() -> &'static [Table] {
    static TABLES: OnceLock<Vec<Table>> = OnceLock::new();
    TABLES.get_or_init(|| experiments::all().iter().map(|e| (e.run)()).collect())
}

#[test]
fn all_experiments_run_without_violations() {
    for (exp, table) in experiments::all().iter().zip(tables()) {
        assert_eq!(table.id, exp.id);
        assert!(!table.rows.is_empty(), "{} produced no rows", exp.id);
        assert!(
            !table.verdict.contains("VIOLATED"),
            "{} reports a violation: {}",
            exp.id,
            table.verdict
        );
        // Tables render and serialize.
        assert!(!table.to_string().is_empty());
        assert!(table.to_csv().lines().count() == table.rows.len() + 1);
    }
}

#[test]
fn registry_matches_golden() {
    let actual: String = tables()
        .iter()
        .map(|t| format!("{}\n", t.without_wall_clock()))
        .collect();
    let path = golden::golden_dir().join("experiments.txt");
    if golden::updates_enabled() {
        std::fs::write(&path, &actual).expect("write the registry golden");
        eprintln!("registry golden rewritten (SCENARIO_GOLDEN_UPDATE=1)");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "no registry golden at {} ({e}); run with SCENARIO_GOLDEN_UPDATE=1 to record it",
            path.display()
        )
    });
    if let Some(diff) = first_difference(&expected, &actual) {
        panic!("{diff}\n(if intentional, rerun with SCENARIO_GOLDEN_UPDATE=1 and commit)");
    }
}

/// The experiment id a rendered table's first line names.
fn table_id(line: &str) -> Option<&str> {
    line.strip_prefix("=== ")?.split(' ').next()
}

/// Names the first line where `actual` departs from `expected`: its
/// experiment, its line in that experiment's table and in the file, and
/// both texts. `None` when the two agree.
fn first_difference(expected: &str, actual: &str) -> Option<String> {
    let (mut exp, mut act) = (expected.lines(), actual.lines());
    let (mut id, mut table_start) = ("(no table yet)", 1);
    for line in 1.. {
        let (e, a) = (exp.next(), act.next());
        if let Some(found) = e.and_then(table_id) {
            (id, table_start) = (found, line);
        }
        if e != a {
            return Some(format!(
                "registry golden differs first in {id}, line {} of its table \
                 (line {line} of the golden)\n  expected: {}\n  actual:   {}",
                line - table_start + 1,
                e.unwrap_or("<end of golden>"),
                a.unwrap_or("<end of output>"),
            ));
        }
        if e.is_none() {
            break;
        }
    }
    None
}

#[test]
fn golden_mismatch_names_the_first_differing_line() {
    let golden = "=== E1 — a ===\nx\n\n=== E2 — b ===\nclaim\n  1  2\n";
    assert_eq!(first_difference(golden, golden), None);
    let report = first_difference(golden, &golden.replace("  1  2", "  1  3")).expect("differs");
    assert!(report.contains("in E2, line 3 of its table (line 6 of the golden)"));
    assert!(report.contains("expected:   1  2") && report.contains("actual:     1  3"));
    let short = first_difference(golden, "=== E1 — a ===\n").expect("differs");
    assert!(short.contains("in E1, line 2") && short.contains("<end of output>"));
}

#[test]
fn experiment_ids_are_unique() {
    let mut ids: Vec<&str> = experiments::all().iter().map(|e| e.id).collect();
    let before = ids.len();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), before);
}
