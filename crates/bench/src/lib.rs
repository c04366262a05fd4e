//! # experiments
//!
//! The benchmark harness of the reproduction: one entry point per table and
//! figure of the paper's evaluation (Chapters 3–5 of the dissertation text,
//! i.e. the ISCA 2007 paper plus its measurement follow-on).
//!
//! Every experiment is a plain function that returns a [`harness::Table`];
//! the `paper` binary prints the requested experiment (or all of them) and
//! optionally dumps the rows as JSON. Criterion benches in `benches/` call
//! the same functions at smoke scale so `cargo bench` exercises every
//! experiment end to end.
//!
//! All figure drivers run on one execution path. Chapter 4 cells go through
//! the [`sweep::SweepRunner`] and its batched engine; Chapter 5 runs go
//! through `platform_emu::PlatformExperiment`. Both draw level-1 points from
//! the process-wide [`harness::shared_store`], and whole `run_matrix` /
//! `policy_runs` results are kept in process-wide memos keyed by every
//! input of the call. A process that renders many figures therefore
//! characterizes each design point once and simulates each distinct matrix
//! once. The store and the memos live only as long as the process and hold
//! only deterministic results, so a table is the same whether its figure
//! runs first, last or twice (`tests/paper_smoke_golden.rs` checks this
//! against the pinned smoke tables).
//!
//! ```no_run
//! use experiments::{ch4, harness::Scale};
//! let table = ch4::fig4_3(Scale::Smoke);
//! println!("{table}");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ch3;
pub mod ch4;
pub mod ch5;
pub mod harness;
pub mod sweep;

use harness::{Scale, Table};

/// Returns the list of all experiment identifiers, in paper order.
pub fn all_experiment_ids() -> Vec<&'static str> {
    vec![
        "tab3_1", "tab3_2", "tab3_3", "tab4_3", "tab4_4", "fig4_2", "fig4_3", "fig4_4", "fig4_5_8", "fig4_9",
        "fig4_10", "fig4_11", "fig4_12", "fig4_13", "fig4_14", "fig5_4", "fig5_5", "fig5_6", "fig5_7", "fig5_8",
        "fig5_9", "fig5_10", "fig5_11", "fig5_12", "fig5_13", "fig5_14", "fig5_15",
    ]
}

/// Runs one experiment by identifier.
///
/// # Errors
///
/// Returns an error string when the identifier is unknown.
pub fn run_experiment(id: &str, scale: Scale) -> Result<Table, String> {
    let table = match id {
        "tab3_1" => ch3::tab3_1(),
        "tab3_2" => ch3::tab3_2(),
        "tab3_3" => ch3::tab3_3(),
        "tab4_3" => ch4::tab4_3(),
        "tab4_4" => ch4::tab4_4(),
        "fig4_2" => ch4::fig4_2(scale),
        "fig4_3" => ch4::fig4_3(scale),
        "fig4_4" => ch4::fig4_4(scale),
        "fig4_5_8" => ch4::fig4_5_8(scale),
        "fig4_9" => ch4::fig4_9(scale),
        "fig4_10" => ch4::fig4_10(scale),
        "fig4_11" => ch4::fig4_11(scale),
        "fig4_12" => ch4::fig4_12(scale),
        "fig4_13" => ch4::fig4_13(scale),
        "fig4_14" => ch4::fig4_14(scale),
        "fig5_4" => ch5::fig5_4(scale),
        "fig5_5" => ch5::fig5_5(scale),
        "fig5_6" => ch5::fig5_6(scale),
        "fig5_7" => ch5::fig5_7(scale),
        "fig5_8" => ch5::fig5_8(scale),
        "fig5_9" => ch5::fig5_9(scale),
        "fig5_10" => ch5::fig5_10(scale),
        "fig5_11" => ch5::fig5_11(scale),
        "fig5_12" => ch5::fig5_12(scale),
        "fig5_13" => ch5::fig5_13(scale),
        "fig5_14" => ch5::fig5_14(scale),
        "fig5_15" => ch5::fig5_15(scale),
        other => return Err(format!("unknown experiment id: {other}")),
    };
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_experiment_is_runnable_by_id() {
        // Only the cheap, simulation-free tables are actually executed here;
        // the id dispatch itself is what this test guards.
        for id in ["tab3_1", "tab3_2", "tab3_3", "tab4_3", "tab4_4"] {
            let t = run_experiment(id, Scale::Smoke).unwrap();
            assert!(!t.rows.is_empty());
        }
        assert!(run_experiment("fig9_9", Scale::Smoke).is_err());
        assert_eq!(all_experiment_ids().len(), 27);
    }
}
