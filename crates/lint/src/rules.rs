//! The decay-lint rule engine: three determinism rules over lexed
//! files, with per-site allow annotations.
//!
//! | rule | guards |
//! |------|--------|
//! | D1 `hash-iteration`   | no `HashMap`/`HashSet` in trace-affecting crates without an attested keyed-lookup-only annotation; iteration over them is always flagged |
//! | D2 `wall-clock`       | no `Instant::now` / `SystemTime` outside `telemetry-timing`-gated code or annotated report-only sites |
//! | D3 `ambient-entropy`  | no `thread_rng` / `rand::random` / `from_entropy` / `OsRng` anywhere — randomness flows from seeds |
//!
//! Suppression: `// decay-lint: allow(<rule>) — <justification>` on the
//! violating line or the line above. The justification is mandatory; a
//! bare annotation is itself a violation (`allow-syntax`).

use crate::lexer::FileModel;

pub const RULE_HASH_ITERATION: &str = "hash-iteration";
pub const RULE_WALL_CLOCK: &str = "wall-clock";
pub const RULE_AMBIENT_ENTROPY: &str = "ambient-entropy";
/// Meta-rule: malformed / unjustified / unknown-rule annotations.
pub const RULE_ALLOW_SYNTAX: &str = "allow-syntax";

/// Every rule an `allow(...)` may name.
pub const ALL_RULES: [&str; 4] = [
    RULE_HASH_ITERATION,
    RULE_WALL_CLOCK,
    RULE_AMBIENT_ENTROPY,
    RULE_ALLOW_SYNTAX,
];

/// One finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    pub rule: &'static str,
    pub path: String,
    pub line: usize,
    pub module_path: String,
    pub message: String,
    pub snippet: String,
}

/// One annotation, with whether it suppressed anything.
#[derive(Debug, Clone)]
pub struct AllowReport {
    pub path: String,
    pub line: usize,
    pub rules: Vec<String>,
    pub justification: String,
    pub used: bool,
}

/// The outcome of checking one file.
#[derive(Debug, Default)]
pub struct CheckResult {
    pub violations: Vec<Violation>,
    pub allows: Vec<AllowReport>,
}

/// Rule scopes.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates whose `src/` is trace-affecting for D1.
    pub d1_crates: Vec<String>,
    /// Crates exempt from D2 (report-only harnesses and this linter).
    pub d2_excluded_crates: Vec<String>,
}

impl Config {
    /// The workspace's scopes.
    pub fn workspace() -> Config {
        Config {
            d1_crates: ["core", "engine", "channel", "sinr", "scenario"]
                .map(String::from)
                .to_vec(),
            d2_excluded_crates: ["bench", "lint"].map(String::from).to_vec(),
        }
    }
}

/// How a file participates in the rule scopes.
#[derive(Debug, PartialEq)]
enum FileKind {
    /// `crates/<name>/src/**` (or the facade `src/`).
    CrateSrc(String),
    /// Integration tests, benches, examples: D3 only.
    Support,
}

fn classify(rel: &str) -> FileKind {
    if let Some(rest) = rel.strip_prefix("crates/") {
        let mut parts = rest.splitn(2, '/');
        let krate = parts.next().unwrap_or("");
        if let Some(tail) = parts.next() {
            if tail.starts_with("src/") {
                return FileKind::CrateSrc(krate.to_string());
            }
        }
        return FileKind::Support;
    }
    if rel.starts_with("src/") {
        return FileKind::CrateSrc("beyond-geometry".to_string());
    }
    FileKind::Support
}

/// Byte offsets where `token` occurs in `code` with non-identifier
/// characters (or the line edge) on both sides.
fn token_positions(code: &str, token: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find(token) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let end = at + token.len();
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + token.len().max(1);
    }
    out
}

/// Runs every rule over one lexed file.
pub fn check_file(model: &FileModel, cfg: &Config) -> CheckResult {
    let kind = classify(&model.rel_path);
    let mut raw: Vec<Violation> = Vec::new();

    rule_ambient_entropy(model, &mut raw);
    if let FileKind::CrateSrc(krate) = &kind {
        if cfg.d1_crates.iter().any(|c| c == krate) {
            rule_hash_iteration(model, &mut raw);
        }
        if !cfg.d2_excluded_crates.iter().any(|c| c == krate) {
            rule_wall_clock(model, &mut raw);
        }
    }

    // Apply allow annotations: a justified allow on the violating line
    // (or attached from the line above) suppresses a matching rule.
    let mut used = vec![false; model.allows.len()];
    let violations: Vec<Violation> = raw
        .into_iter()
        .filter(|v| {
            let mut suppressed = false;
            for (i, a) in model.allows.iter().enumerate() {
                if a.target_line == v.line
                    && a.rules.iter().any(|r| r == v.rule)
                    && !a.justification.is_empty()
                {
                    used[i] = true;
                    suppressed = true;
                }
            }
            !suppressed
        })
        .collect();

    let mut result = CheckResult {
        violations,
        allows: model
            .allows
            .iter()
            .zip(&used)
            .map(|(a, &used)| AllowReport {
                path: model.rel_path.clone(),
                line: a.line,
                rules: a.rules.clone(),
                justification: a.justification.clone(),
                used,
            })
            .collect(),
    };

    // Meta-rule: annotations must be well-formed and justified.
    for a in &model.allows {
        if a.justification.is_empty() {
            result.violations.push(violation(
                RULE_ALLOW_SYNTAX,
                model,
                a.line,
                "allow annotation without the mandatory justification (`— <why>`)".to_string(),
            ));
        }
        for r in &a.rules {
            if !ALL_RULES.contains(&r.as_str()) {
                result.violations.push(violation(
                    RULE_ALLOW_SYNTAX,
                    model,
                    a.line,
                    format!("allow annotation names unknown rule `{r}`"),
                ));
            }
        }
        if a.rules.is_empty() {
            result.violations.push(violation(
                RULE_ALLOW_SYNTAX,
                model,
                a.line,
                "allow annotation lists no rules".to_string(),
            ));
        }
    }

    result.violations.sort_by_key(|v| v.line);
    result
}

fn violation(rule: &'static str, model: &FileModel, line: usize, message: String) -> Violation {
    Violation {
        rule,
        path: model.rel_path.clone(),
        line,
        module_path: model.line(line).module_path.clone(),
        message,
        snippet: model.line(line).raw.trim().to_string(),
    }
}

// ---------------------------------------------------------------- D1

const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "extract_if",
];

/// D1: hash containers in trace-affecting crates.
///
/// * Any `HashMap`/`HashSet` *type mention* (declaration, field,
///   signature) must carry an annotation attesting keyed-lookup-only
///   use — constructor paths (`HashMap::new`) and `use` imports ride on
///   the declaration's annotation.
/// * Iteration-order methods (`iter`, `keys`, `values`, `drain`, ...)
///   on a tracked binding, and `for _ in <tracked>` loops, are flagged
///   at the call site: hash order must never leak into a trace.
fn rule_hash_iteration(model: &FileModel, out: &mut Vec<Violation>) {
    let mut tracked: Vec<String> = Vec::new();

    for (idx, line) in model.lines.iter().enumerate() {
        if line.in_test || line.code.trim_start().starts_with("use ") {
            continue;
        }
        for ty in HASH_TYPES {
            for pos in token_positions(&line.code, ty) {
                let after = &line.code[pos + ty.len()..];
                if after.starts_with("::") {
                    continue; // constructor/assoc path; decl already flagged
                }
                out.push(violation(
                    RULE_HASH_ITERATION,
                    model,
                    idx + 1,
                    format!(
                        "`{ty}` in a trace-affecting crate: keyed lookup is fine, iteration \
                         order is not — annotate the declaration as lookup-only or use a \
                         `BTreeMap`/sorted keys"
                    ),
                ));
                if let Some(name) = binder_before(&line.code, pos) {
                    if !tracked.contains(&name) {
                        tracked.push(name);
                    }
                }
            }
        }
    }

    for (idx, line) in model.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for name in &tracked {
            for pos in token_positions(&line.code, name) {
                let rest = line.code[pos + name.len()..].trim_start();
                let Some(m) = rest.strip_prefix('.') else {
                    continue;
                };
                let method: String = m
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if ITER_METHODS.contains(&method.as_str()) {
                    out.push(violation(
                        RULE_HASH_ITERATION,
                        model,
                        idx + 1,
                        format!(
                            "iteration over hash container `{name}` (`.{method}`): hash order \
                             is nondeterministic across runs and must not reach a trace"
                        ),
                    ));
                }
            }
        }
        // `for x in &tracked { ... }`
        if let Some(in_pos) = line.code.find(" in ") {
            if line.code.contains("for ") {
                let expr = line.code[in_pos + 4..]
                    .split('{')
                    .next()
                    .unwrap_or("")
                    .trim()
                    .trim_start_matches('&')
                    .trim_start_matches("mut ")
                    .trim();
                let last = expr.rsplit('.').next().unwrap_or(expr);
                if !last.contains('(') && tracked.iter().any(|t| t == last) {
                    out.push(violation(
                        RULE_HASH_ITERATION,
                        model,
                        idx + 1,
                        format!(
                            "`for` loop over hash container `{last}`: order is nondeterministic"
                        ),
                    ));
                }
            }
        }
    }
}

/// The identifier bound at a `name: [&'a mut] HashMap<...>` or
/// `let [mut] name: HashMap<...>` declaration ending at `pos`.
fn binder_before(code: &str, pos: usize) -> Option<String> {
    let head = code[..pos].trim_end();
    // Strip reference/lifetime/mut noise between `:` and the type.
    let head = head
        .trim_end_matches(|c: char| c.is_alphanumeric() || c == '_' || c == '\'')
        .trim_end()
        .trim_end_matches('&')
        .trim_end();
    let head = head.strip_suffix(':')?.trim_end();
    let name: String = head
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    if name.is_empty() || name == "mut" {
        None
    } else {
        Some(name)
    }
}

// ---------------------------------------------------------------- D2

/// D2: wall clock outside `telemetry-timing` regions or annotated
/// report-only sites.
fn rule_wall_clock(model: &FileModel, out: &mut Vec<Violation>) {
    for (idx, line) in model.lines.iter().enumerate() {
        if line.in_test || line.in_timing {
            continue;
        }
        if line.code.trim_start().starts_with("use ") {
            // Imports are harmless; call sites are what leak time.
            continue;
        }
        for token in ["Instant::now", "SystemTime"] {
            if !token_positions(&line.code, token).is_empty() {
                out.push(violation(
                    RULE_WALL_CLOCK,
                    model,
                    idx + 1,
                    format!(
                        "`{token}` outside `telemetry-timing`-gated code: wall clock must \
                         never influence a trace — gate it, or annotate a report-only site"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------- D3

/// D3: ambient entropy, forbidden everywhere (tests, benches and
/// examples included) — every random draw flows from an explicit seed.
fn rule_ambient_entropy(model: &FileModel, out: &mut Vec<Violation>) {
    for (idx, line) in model.lines.iter().enumerate() {
        for token in ["thread_rng", "from_entropy", "OsRng", "getrandom"] {
            if !token_positions(&line.code, token).is_empty() {
                out.push(violation(
                    RULE_AMBIENT_ENTROPY,
                    model,
                    idx + 1,
                    format!("`{token}`: ambient entropy is forbidden — thread the run seed"),
                ));
            }
        }
        if line.code.contains("rand::random") {
            out.push(violation(
                RULE_AMBIENT_ENTROPY,
                model,
                idx + 1,
                "`rand::random`: ambient entropy is forbidden — thread the run seed".to_string(),
            ));
        }
    }
}
