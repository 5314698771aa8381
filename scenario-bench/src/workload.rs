//! Workload definitions (`workloads.json`, compiled in) and the spec
//! generator that turns one of them plus `--seed` into scenario JSON.

use decay_core::json::{self, int, JsonValue};

const DEFINITIONS: &str = include_str!("../workloads.json");

/// How one submission drives its session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Misses the compile cache; parks and resumes at every pause
    /// strictly inside `(0, horizon)`.
    Cold,
    /// Hits the compile cache; runs uninterrupted.
    Warm,
}

/// One workload: a corpus of generated specs and the submissions one
/// round makes of each.
#[derive(Debug)]
pub struct Workload {
    pub name: String,
    /// Generated spec JSON, in corpus order.
    pub specs: Vec<String>,
    /// The modes each spec is submitted in, per round.
    pub per_spec: Vec<Mode>,
    /// Whether timed submissions attach a runlog.
    pub runlog: bool,
}

/// The names `--workload` accepts.
pub fn names() -> Vec<String> {
    definitions()
        .iter()
        .filter_map(|w| w.get("name").and_then(JsonValue::as_str))
        .map(str::to_string)
        .collect()
}

fn definitions() -> Vec<JsonValue> {
    let doc = json::parse(DEFINITIONS).expect("workloads.json is valid JSON");
    doc.get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads.json has a workloads array")
        .to_vec()
}

/// Generates workload `name` for `seed`, or `None` for an unknown name.
pub fn generate(name: &str, seed: u64) -> Option<Workload> {
    let def = definitions()
        .into_iter()
        .find(|w| w.get("name").and_then(JsonValue::as_str) == Some(name))?;
    let field = |key: &str| {
        def.get(key)
            .unwrap_or_else(|| panic!("{name}: missing {key}"))
    };
    let shapes = field("shapes").as_array().expect("shapes is an array");
    let corpus = field("corpus").as_u64().expect("corpus is an integer");
    let specs = (0..corpus)
        .map(|i| {
            let shape = &shapes[i as usize % shapes.len()];
            let mut spec = shape.clone();
            let base = shape
                .get("name")
                .and_then(JsonValue::as_str)
                .unwrap_or("spec");
            set(&mut spec, "name", JsonValue::String(format!("{base}-{i}")));
            reseed(&mut spec, &format!("{seed}/{i}"));
            spec.compact()
        })
        .collect();
    let per_spec = field("per_spec")
        .as_array()
        .expect("per_spec is an array")
        .iter()
        .map(|m| match m.as_str() {
            Some("cold") => Mode::Cold,
            Some("warm") => Mode::Warm,
            other => panic!("{name}: unknown mode {other:?}"),
        })
        .collect();
    Some(Workload {
        name: name.to_string(),
        specs,
        per_spec,
        runlog: field("runlog").as_bool().expect("runlog is a boolean"),
    })
}

fn set(v: &mut JsonValue, key: &str, value: JsonValue) {
    if let JsonValue::Object(pairs) = v {
        if let Some(slot) = pairs.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        }
    }
}

/// Replaces every `seed` key in the tree with a value derived from the
/// key's path under `salt`, so each layer (run, placement, mobility,
/// shadowing, fading) draws an independent stream.
fn reseed(v: &mut JsonValue, salt: &str) {
    match v {
        JsonValue::Object(pairs) => {
            for (key, value) in pairs.iter_mut() {
                let path = format!("{salt}/{key}");
                if key == "seed" {
                    // Specs carry integers only up to 2^53.
                    *value = int(fnv1a(&path) >> 11);
                } else {
                    reseed(value, &path);
                }
            }
        }
        JsonValue::Array(items) => {
            for (i, item) in items.iter_mut().enumerate() {
                reseed(item, &format!("{salt}/{i}"));
            }
        }
        _ => {}
    }
}

/// FNV-1a over the path, finished with the splitmix64 mixer so paths
/// that differ in one character land far apart.
fn fnv1a(text: &str) -> u64 {
    let h = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    let z = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
