//! The declarative-scenario experiment (E37): sweep every spec shipped
//! under `scenarios/`, checking cross-backend digest conformance and
//! reporting the collected metrics — the experiment-harness view of the
//! golden-trace suite.

use decay_scenario::{golden, BackendSpec, RunOptions, ScenarioRunner};

use crate::table::{fmt_f, fmt_ok, Table};

/// E37 — scenario sweep: every shipped JSON spec compiles, runs, and
/// produces the same trace digest on the dense and lazy backends.
pub fn e37_scenario_sweep() -> Table {
    let mut t = Table::new(
        "E37",
        "declarative scenario sweep",
        "a scenario spec is the unit of reproducibility: the same JSON file \
         yields a bit-identical event trace on every decay backend, so new \
         workloads are config files, not code changes",
        &[
            "scenario",
            "nodes",
            "events",
            "deliveries",
            "prr",
            "mean_lat",
            "completed",
            "backends_agree",
        ],
    );
    let specs = match golden::load_specs(&golden::scenario_dir()) {
        Ok(specs) => specs,
        Err(err) => {
            t.push_row(vec![
                "load failure".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                err.to_string(),
            ]);
            t.set_verdict("VIOLATED: scenario directory unreadable");
            return t;
        }
    };
    let mut all_agree = true;
    let count = specs.len();
    for spec in specs {
        let name = spec.name.clone();
        let runner = ScenarioRunner::new(spec).expect("shipped specs validate");
        let report = runner
            .run(RunOptions::default())
            .expect("declared-backend run");
        let agree = [BackendSpec::Dense, BackendSpec::Lazy]
            .into_iter()
            .filter(|&b| b != runner.spec().backend)
            .all(|b| {
                runner
                    .run(RunOptions {
                        backend: Some(b),
                        ..RunOptions::default()
                    })
                    .map(|r| r.digest == report.digest)
                    .unwrap_or(false)
            });
        all_agree &= agree;
        t.push_row(vec![
            name,
            report.nodes.to_string(),
            report.digest.stats.events.to_string(),
            report.digest.stats.deliveries.to_string(),
            fmt_f(report.metrics.prr),
            fmt_f(report.metrics.mean_latency),
            match report.metrics.completed_at {
                Some(tick) => tick.to_string(),
                None => "-".into(),
            },
            fmt_ok(agree),
        ]);
    }
    t.set_verdict(if all_agree {
        format!("digests agree across both backends on {count}/{count} specs")
    } else {
        "VIOLATED: backend digest divergence".to_string()
    });
    t
}
