//! Chapter 4 experiments: the simulation study of the DTM schemes.

use std::sync::Arc;

use memtherm::dtm::policy::DtmPolicy;
use memtherm::prelude::*;
use memtherm::sim::memspot::MemSpotResult;

use crate::harness::{f1, f3, mean, shared_runner, Memo, Scale, Table};
use crate::sweep::SweepScenario;

/// Which policy variant a matrix run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicySpec {
    /// No thermal limit (normalization baseline).
    NoLimit,
    /// DTM-TS.
    Ts,
    /// DTM-BW, optionally PID-driven.
    Bw {
        /// Use the PID formal controller.
        pid: bool,
    },
    /// DTM-ACG, optionally PID-driven.
    Acg {
        /// Use the PID formal controller.
        pid: bool,
    },
    /// DTM-CDVFS, optionally PID-driven.
    Cdvfs {
        /// Use the PID formal controller.
        pid: bool,
    },
    /// DTM-CBW: per-channel bandwidth caps keyed to each channel's hottest
    /// layer, optionally PID-driven.
    Cbw {
        /// Use the PID formal controller (one pair per channel).
        pid: bool,
    },
    /// DTM-MIG: migration-aware traffic steering away from the hottest
    /// DIMM position (global fail-safe on the DTM-BW ladder).
    Mig,
}

impl PolicySpec {
    /// The full set evaluated by Figure 4.3 (threshold and PID variants).
    pub fn figure_4_3_set() -> Vec<PolicySpec> {
        vec![
            PolicySpec::Ts,
            PolicySpec::Bw { pid: false },
            PolicySpec::Acg { pid: false },
            PolicySpec::Cdvfs { pid: false },
            PolicySpec::Bw { pid: true },
            PolicySpec::Acg { pid: true },
            PolicySpec::Cdvfs { pid: true },
        ]
    }

    /// The threshold-only set used by the integrated-model experiments.
    pub fn threshold_set() -> Vec<PolicySpec> {
        vec![
            PolicySpec::Ts,
            PolicySpec::Bw { pid: false },
            PolicySpec::Acg { pid: false },
            PolicySpec::Cdvfs { pid: false },
        ]
    }

    /// The spatially aware comparison set: the paper's global DTM-BW and
    /// DTM-ACG references next to the per-channel and migration-aware
    /// policies that exploit the resolved thermal field.
    pub fn spatial_set() -> Vec<PolicySpec> {
        vec![
            PolicySpec::Bw { pid: false },
            PolicySpec::Acg { pid: false },
            PolicySpec::Cbw { pid: false },
            PolicySpec::Cbw { pid: true },
            PolicySpec::Mig,
        ]
    }

    /// Builds the concrete policy object.
    pub fn build(self, cpu: &CpuConfig, limits: ThermalLimits) -> Box<dyn DtmPolicy> {
        match self {
            PolicySpec::NoLimit => Box::new(memtherm::dtm::NoLimit::new(cpu)),
            PolicySpec::Ts => Box::new(DtmTs::new(cpu.clone(), limits)),
            PolicySpec::Bw { pid: false } => Box::new(DtmBw::new(cpu.clone(), limits)),
            PolicySpec::Bw { pid: true } => Box::new(DtmBw::with_pid(cpu.clone(), limits)),
            PolicySpec::Acg { pid: false } => Box::new(DtmAcg::new(cpu.clone(), limits)),
            PolicySpec::Acg { pid: true } => Box::new(DtmAcg::with_pid(cpu.clone(), limits)),
            PolicySpec::Cdvfs { pid: false } => Box::new(DtmCdvfs::new(cpu.clone(), limits)),
            PolicySpec::Cdvfs { pid: true } => Box::new(DtmCdvfs::with_pid(cpu.clone(), limits)),
            PolicySpec::Cbw { pid: false } => Box::new(DtmCbw::new(cpu.clone(), limits)),
            PolicySpec::Cbw { pid: true } => Box::new(DtmCbw::with_pid(cpu.clone(), limits)),
            PolicySpec::Mig => Box::new(DtmMig::new(cpu.clone(), limits)),
        }
    }
}

/// One run of the Chapter 4 matrix.
#[derive(Debug, Clone)]
pub struct MatrixRun {
    /// Cooling configuration label.
    pub cooling: String,
    /// Workload mix identifier.
    pub workload: String,
    /// Policy name.
    pub policy: String,
    /// Full simulation result.
    pub result: MemSpotResult,
}

/// Every input of one [`run_matrix`] call: the key of its level-2 memo.
#[derive(Debug, Clone, PartialEq, Eq)]
struct MatrixKey {
    scale: Scale,
    spreader: HeatSpreader,
    air_velocity_bits: u64,
    integrated: bool,
    interaction_degree_bits: Option<u64>,
    stack: StackKind,
    specs: Vec<PolicySpec>,
}

/// Level-2 memo of [`run_matrix`] results, one entry per distinct call.
static MATRIX_MEMO: Memo<MatrixKey, Vec<MatrixRun>> = Memo::new();

/// Runs every mix under every policy (plus the no-limit baseline) for one
/// cooling configuration. Each mix becomes one [`SweepScenario`]; a
/// [`SweepRunner`](crate::sweep::SweepRunner) fans the individual {mix,
/// policy} cells across cores, and every cell draws its level-1 points from
/// the process-wide [`shared_store`](crate::harness::shared_store).
///
/// The result is memoized for the rest of the process under the full set
/// of inputs, so figures that report different metrics of one matrix
/// simulate it once.
pub fn run_matrix(
    scale: Scale,
    cooling: CoolingConfig,
    integrated: bool,
    interaction_degree: Option<f64>,
    specs: &[PolicySpec],
) -> Arc<Vec<MatrixRun>> {
    let mut all_specs = vec![PolicySpec::NoLimit];
    all_specs.extend_from_slice(specs);
    let key = MatrixKey {
        scale,
        spreader: cooling.spreader,
        air_velocity_bits: cooling.air_velocity_mps.to_bits(),
        integrated,
        interaction_degree_bits: interaction_degree.map(f64::to_bits),
        stack: StackKind::Fbdimm,
        specs: all_specs.clone(),
    };
    MATRIX_MEMO.get_or_compute(key, || {
        let scenarios: Vec<SweepScenario> = scale
            .ch4_mixes()
            .into_iter()
            .map(|mix| SweepScenario {
                cooling,
                integrated,
                interaction_degree,
                stack: StackKind::Fbdimm,
                mix,
                specs: all_specs.clone(),
                dtm_interval_s: None,
            })
            .collect();
        shared_runner().run(&scenarios, |cooling| scale.memspot_config(cooling)).runs
    })
}

/// One isolated-model scenario per (cooling, mix) pair, cooling-major, each
/// evaluating `specs`.
fn isolated_grid(scale: Scale, coolings: &[CoolingConfig], specs: &[PolicySpec]) -> Vec<SweepScenario> {
    coolings
        .iter()
        .flat_map(|&cooling| {
            scale.ch4_mixes().into_iter().map(move |mix| SweepScenario::isolated(cooling, mix, specs.to_vec()))
        })
        .collect()
}

fn baseline<'a>(runs: &'a [MatrixRun], cooling: &str, workload: &str, policy: &str) -> Option<&'a MatrixRun> {
    runs.iter().find(|r| r.cooling == cooling && r.workload == workload && r.policy == policy)
}

/// Table 4.3: thermal emergency levels and the per-scheme running levels.
pub fn tab4_3() -> Table {
    let cpu = CpuConfig::paper_quad_core();
    let mut t = Table::new(
        "tab4_3",
        "Thermal emergency levels and default DTM settings (Table 4.3)",
        &["level", "AMB range degC", "DRAM range degC", "DTM-BW", "DTM-ACG cores", "DTM-CDVFS"],
    );
    let ranges_amb = ["(-,108)", "[108,109)", "[109,109.5)", "[109.5,110)", "[110,-)"];
    let ranges_dram = ["(-,83)", "[83,84)", "[84,84.5)", "[84.5,85)", "[85,-)"];
    for (i, level) in EmergencyLevel::ALL.iter().enumerate() {
        let bw = scheme_mode(DtmScheme::Bw, *level, &cpu);
        let acg = scheme_mode(DtmScheme::Acg, *level, &cpu);
        let cdvfs = scheme_mode(DtmScheme::Cdvfs, *level, &cpu);
        let bw_str = match bw.bandwidth_cap {
            None => "no limit".to_string(),
            Some(0.0) => "off".to_string(),
            Some(c) => format!("{:.1} GB/s", c / 1e9),
        };
        let cdvfs_str = if cdvfs.makes_progress() {
            format!("{:.1} GHz @ {:.2} V", cdvfs.op.freq_ghz, cdvfs.op.voltage)
        } else {
            "stopped".to_string()
        };
        t.push_row([
            level.to_string(),
            ranges_amb[i].to_string(),
            ranges_dram[i].to_string(),
            bw_str,
            acg.active_cores.to_string(),
            cdvfs_str,
        ]);
    }
    t
}

/// Table 4.4: processor power consumption per DTM running state.
pub fn tab4_4() -> Table {
    let power = PaperCpuPower::new();
    let ladder = CpuConfig::paper_quad_core().dvfs;
    let mut t = Table::new(
        "tab4_4",
        "Processor power consumption of DTM schemes (Table 4.4)",
        &["scheme", "setting", "power W"],
    );
    for n in 0..=4usize {
        t.push_row(["DTM-ACG", &format!("{n} active cores"), &f1(power.power_watts(n, &ladder.top()))]);
    }
    t.push_row(["DTM-CDVFS", "stopped", &f1(power.halted_watts())]);
    for i in (0..4).rev() {
        let op = ladder.point(i);
        t.push_row([
            "DTM-CDVFS",
            &format!("{:.2} V, {:.1} GHz", op.voltage, op.freq_ghz),
            &f1(power.power_watts(4, &op)),
        ]);
    }
    t
}

/// Figure 4.2: DTM-TS running time with varied thermal release point.
pub fn fig4_2(scale: Scale) -> Table {
    let mut t = Table::new(
        "fig4_2",
        "Performance of DTM-TS with varied TRP (normalized running time vs no thermal limit)",
        &["cooling", "swept TRP degC", "workload", "normalized time"],
    );
    let cases = [
        (CoolingConfig::fdhs_1_0(), "DRAM", vec![81.0, 82.0, 83.0, 84.0, 84.5]),
        (CoolingConfig::aohs_1_5(), "AMB", vec![106.0, 107.0, 108.0, 109.0, 109.5]),
    ];
    for (cooling, device, trps) in cases {
        // The no-limit baselines, then one sweep of DTM-TS cells per TRP.
        // The release point only reaches the policy: the thermal scene reads
        // just the TDPs from the limits, so every sweep shares the baseline.
        let base = run_matrix(scale, cooling, false, None, &[]);
        let scenarios = isolated_grid(scale, &[cooling], &[PolicySpec::Ts]);
        let swept: Vec<Vec<MatrixRun>> = trps
            .iter()
            .map(|&trp| {
                let limits = if device == "DRAM" {
                    ThermalLimits::paper_fbdimm().with_dram_trp(trp)
                } else {
                    ThermalLimits::paper_fbdimm().with_amb_trp(trp)
                };
                shared_runner().run(&scenarios, |c| MemSpotConfig { limits, ..scale.memspot_config(c) }).runs
            })
            .collect();
        for (m, base) in base.iter().enumerate() {
            for (&trp, runs) in trps.iter().zip(&swept) {
                t.push_row([
                    cooling.label(),
                    format!("{device} {trp:.1}"),
                    base.workload.clone(),
                    f3(runs[m].result.normalized_time(&base.result)),
                ]);
            }
        }
    }
    t
}

fn normalized_table(
    id: &str,
    title: &str,
    scale: Scale,
    metric: impl Fn(&MemSpotResult, &MemSpotResult) -> f64,
    base_policy: &str,
    specs: &[PolicySpec],
) -> Table {
    let mut t = Table::new(id, title, &["cooling", "workload", "policy", "value"]);
    for cooling in [CoolingConfig::fdhs_1_0(), CoolingConfig::aohs_1_5()] {
        let runs = run_matrix(scale, cooling, false, None, specs);
        for r in runs.iter() {
            if r.policy == base_policy {
                continue;
            }
            let Some(base) = baseline(&runs, &r.cooling, &r.workload, base_policy) else {
                continue;
            };
            t.push_row([r.cooling.clone(), r.workload.clone(), r.policy.clone(), f3(metric(&r.result, &base.result))]);
        }
    }
    t
}

/// Figure 4.3: normalized running time of all DTM schemes (± PID), both
/// cooling configurations, isolated thermal model.
pub fn fig4_3(scale: Scale) -> Table {
    normalized_table(
        "fig4_3",
        "Normalized running time for DTM schemes (vs no thermal limit)",
        scale,
        |r, b| r.normalized_time(b),
        "No-limit",
        &PolicySpec::figure_4_3_set(),
    )
}

/// Figure 4.4: normalized total memory traffic of all DTM schemes.
pub fn fig4_4(scale: Scale) -> Table {
    normalized_table(
        "fig4_4",
        "Normalized total memory traffic for DTM schemes (vs no thermal limit)",
        scale,
        |r, b| r.normalized_traffic(b),
        "No-limit",
        &PolicySpec::figure_4_3_set(),
    )
}

/// Figures 4.5–4.8: AMB temperature traces of W1 under AOHS_1.5 for DTM-TS,
/// DTM-BW, DTM-ACG and DTM-CDVFS (sampled every 10 s of the first 1000 s).
pub fn fig4_5_8(scale: Scale) -> Table {
    let scenario = SweepScenario::isolated(CoolingConfig::aohs_1_5(), mixes::w1(), PolicySpec::threshold_set());
    // The traces need every window: the batched engine records them when
    // fast-forward is off.
    let runs = shared_runner()
        .with_batch_options(BatchOptions::literal())
        .run(&[scenario], |c| MemSpotConfig { record_temp_trace: true, ..scale.memspot_config(c) })
        .runs;

    let mut t = Table::new(
        "fig4_5_8",
        "AMB temperature of W1 under AOHS_1.5 (first 1000 s, 10 s samples)",
        &["scheme", "time s", "AMB degC", "active cores", "freq GHz"],
    );
    for r in &runs {
        for sample in r.result.temp_trace.iter().filter(|s| s.time_s <= 1000.0).step_by(10) {
            t.push_row([
                r.policy.clone(),
                f1(sample.time_s),
                f1(sample.amb_c),
                sample.active_cores.to_string(),
                f1(sample.freq_ghz),
            ]);
        }
    }
    t
}

/// Figure 4.9: normalized FBDIMM energy consumption (vs DTM-TS).
pub fn fig4_9(scale: Scale) -> Table {
    normalized_table(
        "fig4_9",
        "Normalized energy consumption of FBDIMM for DTM schemes (vs DTM-TS)",
        scale,
        |r, b| r.normalized_memory_energy(b),
        "DTM-TS",
        &PolicySpec::figure_4_3_set(),
    )
}

/// Figure 4.10: normalized processor energy consumption (vs DTM-TS).
pub fn fig4_10(scale: Scale) -> Table {
    normalized_table(
        "fig4_10",
        "Normalized energy consumption of processors for DTM schemes (vs DTM-TS)",
        scale,
        |r, b| r.normalized_cpu_energy(b),
        "DTM-TS",
        &PolicySpec::figure_4_3_set(),
    )
}

/// Figure 4.11: average normalized running time for different DTM intervals.
pub fn fig4_11(scale: Scale) -> Table {
    let intervals_ms = [1.0, 10.0, 20.0, 100.0];
    let mut t = Table::new(
        "fig4_11",
        "Normalized average running time for different DTM intervals (vs the 10 ms interval)",
        &["cooling", "policy", "interval ms", "normalized avg time"],
    );
    let coolings = [CoolingConfig::fdhs_1_0(), CoolingConfig::aohs_1_5()];
    let scenarios = isolated_grid(scale, &coolings, &PolicySpec::threshold_set());
    // The grid once per DTM interval, as one dispatch; the simulation window
    // stays at the scale's default. Cells are interleaved interval-minor
    // (cell `k` of interval `i` at `k * intervals + i`), so every guided
    // chunk mixes the heavy 1 ms cells with the lighter ones.
    let mut columns: Vec<_> = intervals_ms
        .iter()
        .map(|&interval| {
            let dtm_interval_s = interval / 1000.0;
            let resolve =
                |s: &SweepScenario| s.resolve(|c| MemSpotConfig { dtm_interval_s, ..scale.memspot_config(c) });
            scenarios.iter().flat_map(resolve).collect::<Vec<_>>().into_iter()
        })
        .collect();
    let mut cells = Vec::new();
    while let Some(cell) = columns[cells.len() % intervals_ms.len()].next() {
        cells.push(cell);
    }
    let runs = shared_runner().dispatch(cells).runs;
    let sweeps: Vec<Vec<&MatrixRun>> =
        (0..intervals_ms.len()).map(|i| runs.iter().skip(i).step_by(intervals_ms.len()).collect()).collect();
    let cpu = CpuConfig::paper_quad_core();
    for cooling in coolings {
        for spec in PolicySpec::threshold_set() {
            let name = spec.build(&cpu, ThermalLimits::paper_fbdimm()).name();
            // Average running time over the mixes, per interval.
            let per_interval: Vec<f64> = sweeps
                .iter()
                .map(|runs| {
                    let times: Vec<f64> = runs
                        .iter()
                        .filter(|r| r.cooling == cooling.label() && r.policy == name)
                        .map(|r| r.result.running_time_s)
                        .collect();
                    mean(&times)
                })
                .collect();
            let reference = per_interval[1].max(1e-9); // 10 ms column
            for (&interval, &avg) in intervals_ms.iter().zip(&per_interval) {
                t.push_row([cooling.label(), name.clone(), f1(interval), f3(avg / reference)]);
            }
        }
    }
    t
}

/// Figure 4.12: normalized running time under the *integrated* thermal
/// model.
pub fn fig4_12(scale: Scale) -> Table {
    let mut t = Table::new(
        "fig4_12",
        "Normalized running time for DTM schemes under the integrated thermal model",
        &["cooling", "workload", "policy", "normalized time"],
    );
    for cooling in [CoolingConfig::fdhs_1_0(), CoolingConfig::aohs_1_5()] {
        let runs = run_matrix(scale, cooling, true, None, &PolicySpec::threshold_set());
        for r in runs.iter() {
            if r.policy == "No-limit" {
                continue;
            }
            let Some(base) = baseline(&runs, &r.cooling, &r.workload, "No-limit") else { continue };
            t.push_row([
                r.cooling.clone(),
                r.workload.clone(),
                r.policy.clone(),
                f3(r.result.normalized_time(&base.result)),
            ]);
        }
    }
    t
}

fn interaction_runs(scale: Scale, degree: f64) -> Arc<Vec<MatrixRun>> {
    run_matrix(scale, CoolingConfig::fdhs_1_0(), true, Some(degree), &PolicySpec::threshold_set())
}

/// Figure 4.13: average normalized running time for different degrees of
/// CPU→memory thermal interaction.
pub fn fig4_13(scale: Scale) -> Table {
    let mut t = Table::new(
        "fig4_13",
        "Average normalized running time with different degrees of thermal interaction (FDHS_1.0)",
        &["interaction degree", "policy", "avg normalized time"],
    );
    for degree in [1.0, 1.5, 2.0] {
        let runs = interaction_runs(scale, degree);
        for policy in ["DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS"] {
            let values: Vec<f64> = runs
                .iter()
                .filter(|r| r.policy == policy)
                .filter_map(|r| {
                    baseline(&runs, &r.cooling, &r.workload, "No-limit").map(|b| r.result.normalized_time(&b.result))
                })
                .collect();
            t.push_row([f1(degree), policy.to_string(), f3(mean(&values))]);
        }
    }
    t
}

/// Figure 4.14: average performance improvement of DTM-ACG and DTM-CDVFS
/// over DTM-BW for different degrees of thermal interaction.
pub fn fig4_14(scale: Scale) -> Table {
    let mut t = Table::new(
        "fig4_14",
        "Average improvement of DTM-ACG / DTM-CDVFS over DTM-BW vs thermal-interaction degree (FDHS_1.0)",
        &["interaction degree", "policy", "improvement %"],
    );
    for degree in [1.0, 1.5, 2.0] {
        let runs = interaction_runs(scale, degree);
        for policy in ["DTM-ACG", "DTM-CDVFS"] {
            let improvements: Vec<f64> = runs
                .iter()
                .filter(|r| r.policy == policy)
                .filter_map(|r| {
                    baseline(&runs, &r.cooling, &r.workload, "DTM-BW")
                        .map(|bw| 100.0 * (1.0 - r.result.running_time_s / bw.result.running_time_s.max(1e-9)))
                })
                .collect();
            t.push_row([f1(degree), policy.to_string(), f1(mean(&improvements))]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tab4_3_and_tab4_4_have_the_expected_shape() {
        let t = tab4_3();
        assert_eq!(t.rows.len(), 5);
        assert_eq!(t.cell("DTM-ACG cores", |r| r[0] == "L3"), Some("2"));
        let p = tab4_4();
        assert_eq!(p.cell("power W", |r| r[0] == "DTM-ACG" && r[1] == "4 active cores"), Some("260.0"));
        assert_eq!(p.cell("power W", |r| r[1].contains("0.95 V")), Some("80.6"));
    }

    #[test]
    fn policy_specs_build_the_right_policies() {
        let cpu = CpuConfig::paper_quad_core();
        let limits = ThermalLimits::paper_fbdimm();
        assert_eq!(PolicySpec::Ts.build(&cpu, limits).name(), "DTM-TS");
        assert_eq!(PolicySpec::Acg { pid: true }.build(&cpu, limits).name(), "DTM-ACG+PID");
        assert_eq!(PolicySpec::Cbw { pid: false }.build(&cpu, limits).name(), "DTM-CBW");
        assert_eq!(PolicySpec::Cbw { pid: true }.build(&cpu, limits).name(), "DTM-CBW+PID");
        assert_eq!(PolicySpec::Mig.build(&cpu, limits).name(), "DTM-MIG");
        assert_eq!(PolicySpec::figure_4_3_set().len(), 7);
        assert_eq!(PolicySpec::threshold_set().len(), 4);
        assert_eq!(PolicySpec::spatial_set().len(), 5);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "runs a smoke-scale simulation matrix; run with --release")]
    fn fig4_3_smoke_produces_sane_normalized_times() {
        let t = fig4_3(Scale::Smoke);
        assert!(!t.rows.is_empty());
        for row in &t.rows {
            let v: f64 = row[3].parse().unwrap();
            assert!(v > 0.9 && v < 5.0, "normalized time {v} out of range");
        }
    }
}
