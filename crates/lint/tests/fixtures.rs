//! Per-rule fixture tests: each rule catches its violation, an
//! annotated site passes, and out-of-scope code (tests, timing-gated
//! regions, excluded crates) is exempt.

use decay_lint::rules::{
    Config, RULE_ALLOW_SYNTAX, RULE_AMBIENT_ENTROPY, RULE_HASH_ITERATION, RULE_WALL_CLOCK,
};
use decay_lint::{lint_source, Violation};

fn cfg() -> Config {
    Config::workspace()
}

fn rules_of(violations: &[Violation]) -> Vec<&'static str> {
    violations.iter().map(|v| v.rule).collect()
}

// ---------------------------------------------------------------- D1

#[test]
fn d1_hash_decl_in_trace_crate_is_flagged() {
    let src = "pub struct S {\n    map: HashMap<u64, u32>,\n}\n";
    let r = lint_source("crates/core/src/x.rs", src, &cfg());
    assert_eq!(rules_of(&r.violations), vec![RULE_HASH_ITERATION]);
    assert_eq!(r.violations[0].line, 2);
}

#[test]
fn d1_annotated_lookup_only_decl_passes() {
    let src = concat!(
        "pub struct S {\n",
        "    // decay-lint: allow(hash-iteration) — lookup-only: keyed get/insert\n",
        "    map: HashMap<u64, u32>,\n",
        "}\n",
    );
    let r = lint_source("crates/core/src/x.rs", src, &cfg());
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert!(r.allows[0].used);
}

#[test]
fn d1_iteration_over_tracked_binding_is_flagged_even_when_decl_is_annotated() {
    let src = concat!(
        "// decay-lint: allow(hash-iteration) — lookup-only: keyed access\n",
        "let map: HashMap<u64, u32> = HashMap::new();\n",
        "for (k, v) in map.iter() {\n",
        "    use_it(k, v);\n",
        "}\n",
    );
    let r = lint_source("crates/core/src/x.rs", src, &cfg());
    assert_eq!(rules_of(&r.violations), vec![RULE_HASH_ITERATION]);
    assert_eq!(r.violations[0].line, 3, "the .iter() call site");
}

#[test]
fn d1_for_loop_over_tracked_binding_is_flagged() {
    let src = concat!(
        "// decay-lint: allow(hash-iteration) — lookup-only: keyed access\n",
        "let seen: HashSet<u64> = HashSet::new();\n",
        "for id in &seen {\n",
        "    use_it(id);\n",
        "}\n",
    );
    let r = lint_source("crates/core/src/x.rs", src, &cfg());
    assert_eq!(rules_of(&r.violations), vec![RULE_HASH_ITERATION]);
    assert_eq!(r.violations[0].line, 3);
}

#[test]
fn d1_does_not_apply_outside_trace_affecting_crates() {
    let src = "pub struct S {\n    map: HashMap<u64, u32>,\n}\n";
    let r = lint_source("crates/bench/src/x.rs", src, &cfg());
    assert!(r.violations.is_empty(), "{:?}", r.violations);
}

#[test]
fn d1_test_code_is_exempt() {
    let src = concat!(
        "#[cfg(test)]\n",
        "mod tests {\n",
        "    fn t() {\n",
        "        let map: HashMap<u64, u32> = HashMap::new();\n",
        "        for (k, _) in map.iter() {}\n",
        "    }\n",
        "}\n",
    );
    let r = lint_source("crates/core/src/x.rs", src, &cfg());
    assert!(r.violations.is_empty(), "{:?}", r.violations);
}

// ---------------------------------------------------------------- D2

#[test]
fn d2_ungated_instant_now_is_flagged() {
    let src = "fn f() {\n    let t = Instant::now();\n}\n";
    let r = lint_source("crates/engine/src/x.rs", src, &cfg());
    assert_eq!(rules_of(&r.violations), vec![RULE_WALL_CLOCK]);
    assert_eq!(r.violations[0].line, 2);
}

#[test]
fn d2_timing_gated_code_passes() {
    let src = concat!(
        "#[cfg(feature = \"telemetry-timing\")]\n",
        "fn f() {\n",
        "    let t = Instant::now();\n",
        "}\n",
    );
    let r = lint_source("crates/engine/src/x.rs", src, &cfg());
    assert!(r.violations.is_empty(), "{:?}", r.violations);
}

#[test]
fn d2_annotated_report_only_site_passes() {
    let src = concat!(
        "fn f() {\n",
        "    // decay-lint: allow(wall-clock) — report-only elapsed display\n",
        "    let t = Instant::now();\n",
        "}\n",
    );
    let r = lint_source("crates/engine/src/x.rs", src, &cfg());
    assert!(r.violations.is_empty(), "{:?}", r.violations);
}

#[test]
fn d2_excluded_crates_and_imports_are_exempt() {
    let bench = "fn f() {\n    let t = Instant::now();\n}\n";
    let r = lint_source("crates/bench/src/x.rs", bench, &cfg());
    assert!(r.violations.is_empty(), "bench is report-only harness");

    let import = "use std::time::Instant;\nfn f() {}\n";
    let r = lint_source("crates/engine/src/x.rs", import, &cfg());
    assert!(r.violations.is_empty(), "imports alone leak nothing");
}

#[test]
fn d2_systemtime_is_flagged() {
    let src = "fn f() -> SystemTime {\n    SystemTime::now()\n}\n";
    let r = lint_source("crates/core/src/x.rs", src, &cfg());
    assert_eq!(
        rules_of(&r.violations),
        vec![RULE_WALL_CLOCK, RULE_WALL_CLOCK]
    );
}

// ---------------------------------------------------------------- D3

#[test]
fn d3_ambient_entropy_is_flagged_everywhere_even_in_tests() {
    let src = concat!(
        "#[cfg(test)]\n",
        "mod tests {\n",
        "    fn t() {\n",
        "        let mut rng = thread_rng();\n",
        "    }\n",
        "}\n",
    );
    // Support files (benches, integration tests) get D3 too.
    for path in ["crates/core/src/x.rs", "crates/bench/benches/x.rs"] {
        let r = lint_source(path, src, &cfg());
        assert_eq!(
            rules_of(&r.violations),
            vec![RULE_AMBIENT_ENTROPY],
            "{path}"
        );
        assert_eq!(r.violations[0].line, 4);
    }
}

#[test]
fn d3_all_entropy_tokens_are_caught() {
    for snippet in [
        "let r = rand::random::<u64>();",
        "let rng = SmallRng::from_entropy();",
        "let mut os = OsRng;",
        "getrandom(&mut buf);",
    ] {
        let src = format!("fn f() {{\n    {snippet}\n}}\n");
        let r = lint_source("crates/core/src/x.rs", &src, &cfg());
        assert_eq!(
            rules_of(&r.violations),
            vec![RULE_AMBIENT_ENTROPY],
            "{snippet}"
        );
    }
}

#[test]
fn d3_never_fires_on_comments_or_strings() {
    let src = "// thread_rng is forbidden\nlet s = \"thread_rng\";\n";
    let r = lint_source("crates/core/src/x.rs", src, &cfg());
    assert!(r.violations.is_empty(), "{:?}", r.violations);
}

#[test]
fn d3_seeded_rng_passes() {
    let src = "let rng = SmallRng::seed_from_u64(seed);\n";
    let r = lint_source("crates/core/src/x.rs", src, &cfg());
    assert!(r.violations.is_empty(), "{:?}", r.violations);
}

// ------------------------------------------------------- allow-syntax

#[test]
fn bare_allow_without_justification_is_a_violation_and_suppresses_nothing() {
    let src = concat!(
        "// decay-lint: allow(wall-clock)\n",
        "let t = Instant::now();\n",
    );
    let r = lint_source("crates/engine/src/x.rs", src, &cfg());
    let rules = rules_of(&r.violations);
    assert!(rules.contains(&RULE_ALLOW_SYNTAX), "{rules:?}");
    assert!(
        rules.contains(&RULE_WALL_CLOCK),
        "bare allow must not suppress"
    );
}

#[test]
fn unknown_rule_name_in_allow_is_a_violation() {
    let src = "// decay-lint: allow(hash-order) — typo'd rule name\nlet x = 1;\n";
    let r = lint_source("crates/core/src/x.rs", src, &cfg());
    assert_eq!(rules_of(&r.violations), vec![RULE_ALLOW_SYNTAX]);
    assert!(r.violations[0].message.contains("hash-order"));
}

#[test]
fn unused_allow_is_reported_but_not_a_violation() {
    let src = "// decay-lint: allow(wall-clock) — stale: the call moved away\nlet x = 1;\n";
    let r = lint_source("crates/engine/src/x.rs", src, &cfg());
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert_eq!(r.allows.len(), 1);
    assert!(!r.allows[0].used);
}

#[test]
fn allow_only_suppresses_the_named_rule() {
    let src = concat!(
        "// decay-lint: allow(hash-iteration) — wrong rule for this site\n",
        "let t = Instant::now();\n",
    );
    let r = lint_source("crates/engine/src/x.rs", src, &cfg());
    assert_eq!(rules_of(&r.violations), vec![RULE_WALL_CLOCK]);
}
