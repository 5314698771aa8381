//! The golden-trace suite: every spec shipped under `scenarios/` is a
//! regression test. For each spec the suite (1) runs it on all three
//! decay backends and through a mid-run checkpoint/resume cycle,
//! asserting the four digests are bit-identical, and (2) compares the
//! digest against the recording under `tests/golden/`, failing on drift.
//!
//! To bless an intentional behavior change, rerun with
//! `SCENARIO_GOLDEN_UPDATE=1` and commit the rewritten digest files.

use decay_scenario::golden::{self, GoldenOutcome};
use decay_scenario::{BackendSpec, RunOptions, ScenarioRunner};

#[test]
fn shipped_specs_have_stable_cross_backend_digests() {
    let specs = golden::load_specs(&golden::scenario_dir()).expect("scenarios/ loads");
    assert!(
        specs.len() >= 3,
        "expected at least three shipped scenario fixtures, found {}",
        specs.len()
    );
    let mut drifted = Vec::new();
    for spec in specs {
        let name = spec.name.clone();
        let horizon = spec.horizon;
        let runner = ScenarioRunner::new(spec).expect("shipped specs validate");
        let declared = runner
            .run(RunOptions::default())
            .expect("declared-backend run");

        // Conformance: the digest must not depend on the backend (the
        // declared one already ran; only the other one needs a run)...
        for backend in [BackendSpec::Dense, BackendSpec::Lazy]
            .into_iter()
            .filter(|&b| b != runner.spec().backend)
        {
            let other = runner
                .run(RunOptions {
                    backend: Some(backend),
                    ..RunOptions::default()
                })
                .expect("cross-backend run");
            assert_eq!(
                declared.digest, other.digest,
                "{name}: digest differs on {backend:?}"
            );
        }
        // ...nor on a checkpoint/resume cycle. Split inside the ticks
        // the run actually executes (completion may end it well before
        // the horizon) so the cycle genuinely fires, and assert that it
        // did — a split past the run's end silently skips the
        // checkpoint, which would leave codec regressions untested.
        let split = (declared.digest.completed_at.unwrap_or(horizon) / 2).max(1);
        let resumed = runner
            .run(RunOptions {
                resume_at: Some(split),
                ..RunOptions::default()
            })
            .expect("resumed run");
        assert_eq!(
            resumed.checkpointed,
            Some(split),
            "{name}: checkpoint cycle never ran (split {split})"
        );
        assert_eq!(
            declared.digest, resumed.digest,
            "{name}: digest differs after checkpoint/resume"
        );

        // Regression: compare against the recorded golden.
        match golden::check(&declared.digest) {
            GoldenOutcome::Match => {}
            GoldenOutcome::Updated => {
                eprintln!("{name}: golden digest rewritten (SCENARIO_GOLDEN_UPDATE=1)");
            }
            GoldenOutcome::Missing { path } => {
                drifted.push(format!(
                    "{name}: no golden recorded at {path}; run with \
                     SCENARIO_GOLDEN_UPDATE=1 to record it"
                ));
            }
            GoldenOutcome::Drift { expected, actual } => {
                drifted.push(format!(
                    "{name}: digest drift\n--- recorded ---\n{expected}\
                     --- actual ---\n{actual}\
                     (if intentional, rerun with SCENARIO_GOLDEN_UPDATE=1 and commit)"
                ));
            }
        }
    }
    assert!(drifted.is_empty(), "{}", drifted.join("\n\n"));
}
