//! Runs the experiment suite and prints each table.
//!
//! Usage:
//!
//! ```text
//! run_experiments              # all experiments
//! run_experiments E4 E9 E16    # a selection
//! run_experiments --csv out/   # also dump CSVs per experiment
//! run_experiments --json out/  # also dump JSON per experiment (CI artifacts)
//! ```

use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut csv_dir: Option<String> = None;
    let mut json_dir: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--csv" {
            csv_dir = it.next();
            if csv_dir.is_none() {
                eprintln!("--csv requires a directory argument");
                std::process::exit(2);
            }
        } else if a == "--json" {
            json_dir = it.next();
            if json_dir.is_none() {
                eprintln!("--json requires a directory argument");
                std::process::exit(2);
            }
        } else {
            ids.push(a);
        }
    }
    let experiments: Vec<decay_bench::experiments::Experiment> = if ids.is_empty() {
        decay_bench::experiments::all()
    } else {
        ids.iter()
            .map(|id| {
                decay_bench::experiments::by_id(id).unwrap_or_else(|| {
                    eprintln!("unknown experiment id: {id}");
                    std::process::exit(2);
                })
            })
            .collect()
    };
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create csv directory");
    }
    if let Some(dir) = &json_dir {
        std::fs::create_dir_all(dir).expect("create json directory");
    }
    #[expect(clippy::disallowed_methods, reason = "report-only harness timing")]
    let total = Instant::now();
    for exp in experiments {
        #[expect(clippy::disallowed_methods, reason = "report-only harness timing")]
        let started = Instant::now();
        let table = (exp.run)();
        println!("{table}");
        println!("  [{} finished in {:.2?}]\n", exp.id, started.elapsed());
        if let Some(dir) = &csv_dir {
            let path = format!("{dir}/{}.csv", exp.id.to_lowercase());
            std::fs::write(&path, table.to_csv()).expect("write csv");
        }
        if let Some(dir) = &json_dir {
            let path = format!("{dir}/{}.json", exp.id.to_lowercase());
            std::fs::write(&path, table.to_json_string()).expect("write json");
        }
    }
    println!("total: {:.2?}", total.elapsed());
}
