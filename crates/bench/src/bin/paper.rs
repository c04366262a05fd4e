//! Regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! cargo run -p experiments --release --bin paper -- <experiment-id|all> [smoke|quick|paper] [--json <dir>]
//! ```
//!
//! `experiment-id` is one of the identifiers listed by `--list` (for example
//! `fig4_3` or `tab3_2`). The optional scale (default `quick`) controls the
//! batch sizes; `paper` uses the full batch sizes of the study and can take
//! hours per figure. An unknown scale is rejected with exit status 2. With
//! `--json <dir>` every table is also written to `<dir>/<id>.json`; a write
//! that fails stops the run with exit status 1.
//!
//! All experiments of one invocation share the process-wide level-1 store
//! and level-2 result memo (see `experiments::harness`), so `all` simulates
//! each distinct design point and matrix once.

use std::path::Path;

use experiments::harness::{Scale, Table};
use experiments::{all_experiment_ids, run_experiment};

const USAGE: &str = "usage: paper <experiment-id|all|--list> [smoke|quick|paper] [--json <dir>]";

/// Prints `msg` and the usage line, then exits with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// Writes `table` as `<dir>/<id>.json`, creating `dir` if needed.
fn write_json(dir: &Path, id: &str, table: &Table) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("{id}.json")), table.to_json())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    if args[0] == "--list" {
        for id in all_experiment_ids() {
            println!("{id}");
        }
        return;
    }

    let scale = match args.get(1).map(String::as_str) {
        None | Some("--json") => Scale::Quick,
        Some(name) => Scale::parse(name)
            .unwrap_or_else(|| usage_error(&format!("unknown scale {name:?} (expected smoke, quick or paper)"))),
    };
    let json_dir = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).unwrap_or_else(|| usage_error("--json needs a directory")).clone());

    let ids: Vec<String> = if args[0] == "all" {
        all_experiment_ids().into_iter().map(String::from).collect()
    } else {
        vec![args[0].clone()]
    };

    for id in ids {
        let started = std::time::Instant::now();
        match run_experiment(&id, scale) {
            Ok(table) => {
                println!("{table}");
                eprintln!("[{}] finished in {:.1} s", id, started.elapsed().as_secs_f64());
                if let Some(dir) = &json_dir {
                    if let Err(e) = write_json(Path::new(dir), &id, &table) {
                        eprintln!("error: cannot write {dir}/{id}.json: {e}");
                        std::process::exit(1);
                    }
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
}
