//! Chapter 5 experiments: the server-platform case study.
//!
//! Every level-2 run of the chapter is a [`Ch5Run`]: a server, a workload
//! mix and a policy at one scale, with or without a recorded temperature
//! trace. A figure driver lists the runs it needs and reads them through a
//! process-wide memo with one entry per run. The runs it misses are
//! resolved into sweep cells ([`Ch5Run::cell`]) and simulated by one
//! [`SweepRunner::dispatch`], which fans the cells of every server the
//! figure needs across all cores (one batched engine per server hardware
//! inside a chunk). Each distinct run is thus simulated once per process:
//! Figures 5.8–5.11 and the 90 °C column of Figure 5.14 read the runs of
//! Figure 5.6, and Figure 5.13 reads its DTM-BW reference from them.
//!
//! The cells are configured by the same [`Server::memspot_config`] as
//! `platform_emu::PlatformExperiment` and dispatched with
//! [`BatchOptions::literal`], so every result is bit-identical to that
//! per-run driver's. The software policies read a noisy sensor, so no
//! fast-forward tier could take them over anyway; the literal options keep
//! the no-limit baseline, which the steady-state fast-forward would
//! otherwise replay, exact too.

use std::sync::Arc;

use memtherm::dtm::policy::DtmPolicy;
use memtherm::dtm::NoLimit;
use memtherm::sim::batch::BatchOptions;
use memtherm::sim::memspot::{MemSpotConfig, MemSpotResult};
use platform_emu::experiment::average_amb_c;
use platform_emu::{Measurement, PlatformPolicy, PolicyKind, Server, TimeSliceModel};
use workloads::{mixes, WorkloadMix};

use crate::harness::{f1, f3, mean, shared_runner, Memo, Scale, Table};
use crate::sweep::{SweepCell, SweepRunner};

fn ch5_mixes(scale: Scale) -> Vec<WorkloadMix> {
    match scale {
        Scale::Smoke => vec![mixes::w1(), mixes::w8()],
        _ => mixes::all_ch4_mixes(),
    }
}

/// The policy of one Chapter 5 run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ch5Policy {
    /// No thermal management: the baseline of the normalized figures.
    NoLimit,
    /// A software DTM policy.
    Platform {
        /// Which policy.
        kind: PolicyKind,
        /// A cpufreq operating-point index the processor is pinned to
        /// (Figure 5.13), or `None` for the policy's own frequency control.
        fixed_frequency_index: Option<usize>,
    },
}

impl Ch5Policy {
    /// A software policy with its own frequency control.
    pub fn platform(kind: PolicyKind) -> Self {
        Ch5Policy::Platform { kind, fixed_frequency_index: None }
    }

    /// The policy's row label in the figures.
    fn label(self) -> String {
        match self {
            Ch5Policy::NoLimit => "No-limit".to_string(),
            Ch5Policy::Platform { kind, .. } => kind.to_string(),
        }
    }
}

/// The no-limit baseline followed by every software policy: the runs of
/// one (server, mix) pair in the normalized-time figures.
const POLICY_SET: [Ch5Policy; 5] = [
    Ch5Policy::NoLimit,
    Ch5Policy::Platform { kind: PolicyKind::Bw, fixed_frequency_index: None },
    Ch5Policy::Platform { kind: PolicyKind::Acg, fixed_frequency_index: None },
    Ch5Policy::Platform { kind: PolicyKind::Cdvfs, fixed_frequency_index: None },
    Ch5Policy::Platform { kind: PolicyKind::Comb, fixed_frequency_index: None },
];

/// Every input of one Chapter 5 level-2 run, and the key of its memo
/// entry. The server and mix are compared field by field, so a changed
/// ambient or TDP is a different run.
#[derive(Debug, Clone, PartialEq)]
pub struct Ch5Run {
    /// Batch size and instruction scale of the run.
    pub scale: Scale,
    /// The server the run emulates.
    pub server: Server,
    /// The workload mix.
    pub mix: WorkloadMix,
    /// The DTM policy.
    pub policy: Ch5Policy,
    /// Whether the temperature trace is recorded (the homogeneous curves of
    /// Figures 5.4 and 5.5).
    pub trace: bool,
}

impl Ch5Run {
    /// A software-policy (or no-limit) run without a trace.
    pub fn new(scale: Scale, server: &Server, mix: &WorkloadMix, policy: Ch5Policy) -> Self {
        Ch5Run { scale, server: server.clone(), mix: mix.clone(), policy, trace: false }
    }

    /// A no-limit run of one copy of `app` per core of the server, with its
    /// temperature trace recorded.
    pub fn homogeneous_curve(scale: Scale, server: &Server, app: &workloads::AppBehavior) -> Self {
        let mix = WorkloadMix::homogeneous(app.clone(), server.cpu.cores);
        Ch5Run { trace: true, ..Self::new(scale, server, &mix, Ch5Policy::NoLimit) }
    }

    /// The sweep cell that simulates this run on the server's hardware.
    pub fn cell(&self) -> SweepCell {
        let server = &self.server;
        let config = MemSpotConfig {
            record_temp_trace: self.trace,
            ..server.memspot_config(self.scale.platform_runs_per_app(), self.scale.platform_instruction_scale())
        };
        let policy: Box<dyn DtmPolicy> = match self.policy {
            Ch5Policy::NoLimit => Box::new(NoLimit::new(&server.cpu)),
            Ch5Policy::Platform { kind, fixed_frequency_index } => {
                let policy = PlatformPolicy::new(kind, server.clone());
                match fixed_frequency_index {
                    Some(index) => Box::new(policy.with_fixed_frequency_index(index)),
                    None => Box::new(policy),
                }
            }
        };
        SweepCell { cpu: server.cpu.clone(), mem: server.mem, config, mix: self.mix.clone(), policy }
    }
}

/// Simulates `runs` as one dispatch on `runner` with literal batch options
/// and returns their results in order.
pub fn dispatch<'a>(runner: &SweepRunner, runs: impl IntoIterator<Item = &'a Ch5Run>) -> Vec<MemSpotResult> {
    let cells = runs.into_iter().map(Ch5Run::cell).collect();
    let outcome = runner.clone().with_batch_options(BatchOptions::literal()).dispatch(cells);
    outcome.runs.into_iter().map(|run| run.result).collect()
}

/// Level-2 memo of Chapter 5 runs, one entry per distinct run.
static RUN_MEMO: Memo<Ch5Run, MemSpotResult> = Memo::new();

/// The results of `runs`, in order, memoized for the rest of the process.
/// The runs not yet in the memo are simulated together in one dispatch on
/// all cores against the shared level-1 store.
fn simulate(runs: &[Ch5Run]) -> Vec<Arc<MemSpotResult>> {
    RUN_MEMO.get_or_compute_all(runs.to_vec(), |missing| dispatch(&shared_runner(), missing.iter().copied()))
}

/// One `(mix, policy, measurement)` row per run, mix-major.
type PolicyRuns = Vec<(String, String, Measurement)>;

/// Runs every mix without DTM and under each software policy on every
/// server, and returns one row list per server.
fn policy_runs(scale: Scale, servers: &[Server], mixes_list: &[WorkloadMix]) -> Vec<PolicyRuns> {
    let runs: Vec<Ch5Run> = servers
        .iter()
        .flat_map(|server| {
            mixes_list.iter().flat_map(move |mix| POLICY_SET.iter().map(move |&p| Ch5Run::new(scale, server, mix, p)))
        })
        .collect();
    let rows: Vec<(String, String, Measurement)> = runs
        .iter()
        .zip(simulate(&runs))
        .map(|(run, result)| (run.mix.id.clone(), run.policy.label(), Measurement::from_result(&run.server, &result)))
        .collect();
    rows.chunks((mixes_list.len() * POLICY_SET.len()).max(1)).map(<[_]>::to_vec).collect()
}

/// [`policy_runs`] of the SR1500AL alone (Figures 5.9–5.11).
fn sr1500al_policy_runs(scale: Scale) -> PolicyRuns {
    policy_runs(scale, &[Server::sr1500al()], &ch5_mixes(scale)).pop().unwrap_or_default()
}

fn find<'a>(runs: &'a [(String, String, Measurement)], mix: &str, policy: &str) -> Option<&'a Measurement> {
    runs.iter().find(|(m, p, _)| m == mix && p == policy).map(|(_, _, meas)| meas)
}

/// Homogeneous-curve runs of the named SPEC CPU2000 applications on
/// `server`.
fn homogeneous_runs(scale: Scale, server: &Server, apps: &[&str]) -> Vec<Ch5Run> {
    apps.iter()
        .map(|name| {
            let app = workloads::spec2000::by_name(name).expect("known application");
            Ch5Run::homogeneous_curve(scale, server, &app)
        })
        .collect()
}

/// Figure 5.4: AMB temperature of the first 500 s of homogeneous workloads
/// on the SR1500AL (no DTM control).
pub fn fig5_4(scale: Scale) -> Table {
    let apps = ["swim", "mgrid", "galgel", "apsi", "vpr"];
    let mut t = Table::new(
        "fig5_4",
        "AMB temperature curve for the first 500 s of homogeneous workloads on the SR1500AL",
        &["application", "time s", "AMB degC"],
    );
    let results = simulate(&homogeneous_runs(scale, &Server::sr1500al(), &apps));
    for (name, result) in apps.iter().zip(results) {
        for sample in result.temp_trace.iter().filter(|s| s.time_s <= 500.0).step_by(10) {
            t.push_row([name.to_string(), f1(sample.time_s), f1(sample.amb_c)]);
        }
    }
    t
}

/// Figure 5.5: average AMB temperature of homogeneous SPEC CPU2000 workloads
/// on the PE1950 without DTM control.
pub fn fig5_5(scale: Scale) -> Table {
    let mut t = Table::new(
        "fig5_5",
        "Average AMB temperature when memory is driven by homogeneous workloads on the PE1950 (no DTM)",
        &["application", "avg AMB degC"],
    );
    let apps = match scale {
        Scale::Smoke => vec!["swim", "galgel", "vpr"],
        _ => workloads::spec2000::all().iter().map(|a| a.name).collect(),
    };
    let results = simulate(&homogeneous_runs(scale, &Server::pe1950(), &apps));
    for (name, result) in apps.iter().zip(results) {
        t.push_row([name.to_string(), f1(average_amb_c(&result.temp_trace))]);
    }
    t
}

fn normalized_time_table(
    id: &str,
    title: &str,
    scale: Scale,
    servers: &[Server],
    mixes_list: &[workloads::WorkloadMix],
) -> Table {
    let mut t = Table::new(id, title, &["server", "workload", "policy", "normalized time"]);
    for (server, runs) in servers.iter().zip(policy_runs(scale, servers, mixes_list)) {
        for (mix, policy, m) in runs.iter() {
            if policy == "No-limit" {
                continue;
            }
            let Some(base) = find(&runs, mix, "No-limit") else { continue };
            t.push_row([server.kind.to_string(), mix.clone(), policy.clone(), f3(m.normalized_time(base))]);
        }
    }
    t
}

/// Figure 5.6: normalized running time of the SPEC CPU2000 workloads on both
/// servers under the four software DTM policies.
pub fn fig5_6(scale: Scale) -> Table {
    normalized_time_table(
        "fig5_6",
        "Normalized running time of SPEC CPU2000 workloads (PE1950 and SR1500AL)",
        scale,
        &[Server::pe1950(), Server::sr1500al()],
        &ch5_mixes(scale),
    )
}

/// Figure 5.7: normalized running time of the SPEC CPU2006 workloads on the
/// PE1950.
pub fn fig5_7(scale: Scale) -> Table {
    normalized_time_table(
        "fig5_7",
        "Normalized running time of SPEC CPU2006 workloads on the PE1950",
        scale,
        &[Server::pe1950()],
        &[mixes::w11(), mixes::w12()],
    )
}

/// Figure 5.8: normalized number of L2 cache misses (vs DTM-BW).
pub fn fig5_8(scale: Scale) -> Table {
    let mut t = Table::new(
        "fig5_8",
        "Normalized numbers of L2 cache misses (vs DTM-BW)",
        &["server", "workload", "policy", "normalized L2 misses"],
    );
    let servers = [Server::pe1950(), Server::sr1500al()];
    for (server, runs) in servers.iter().zip(policy_runs(scale, &servers, &ch5_mixes(scale))) {
        for (mix, policy, m) in runs.iter() {
            if policy == "No-limit" || policy == "DTM-BW" {
                continue;
            }
            let Some(base) = find(&runs, mix, "DTM-BW") else { continue };
            t.push_row([server.kind.to_string(), mix.clone(), policy.clone(), f3(m.normalized_llc_misses(base))]);
        }
    }
    t
}

/// Figure 5.9: measured memory inlet temperature per policy on the SR1500AL.
pub fn fig5_9(scale: Scale) -> Table {
    let runs = sr1500al_policy_runs(scale);
    let mut t = Table::new(
        "fig5_9",
        "Measured memory inlet (CPU exhaust) temperature on the SR1500AL",
        &["workload", "policy", "memory inlet degC"],
    );
    for (mix, policy, m) in runs.iter() {
        if policy == "No-limit" {
            continue;
        }
        t.push_row([mix.clone(), policy.clone(), f1(m.memory_inlet_c)]);
    }
    t
}

/// Figure 5.10: CPU power consumption per policy on the SR1500AL
/// (normalized to DTM-BW).
pub fn fig5_10(scale: Scale) -> Table {
    let runs = sr1500al_policy_runs(scale);
    let mut t = Table::new(
        "fig5_10",
        "CPU power consumption on the SR1500AL (normalized to DTM-BW)",
        &["workload", "policy", "CPU power W", "normalized"],
    );
    for (mix, policy, m) in runs.iter() {
        if policy == "No-limit" {
            continue;
        }
        let Some(base) = find(&runs, mix, "DTM-BW") else { continue };
        t.push_row([mix.clone(), policy.clone(), f1(m.cpu_power_w), f3(m.cpu_power_w / base.cpu_power_w.max(1e-9))]);
    }
    t
}

/// Figure 5.11: normalized CPU + memory energy per policy on the SR1500AL
/// (vs DTM-BW).
pub fn fig5_11(scale: Scale) -> Table {
    let runs = sr1500al_policy_runs(scale);
    let mut t = Table::new(
        "fig5_11",
        "Normalized energy consumption (CPU + memory) of DTM policies on the SR1500AL (vs DTM-BW)",
        &["workload", "policy", "normalized energy"],
    );
    for (mix, policy, m) in runs.iter() {
        if policy == "No-limit" || policy == "DTM-BW" {
            continue;
        }
        let Some(base) = find(&runs, mix, "DTM-BW") else { continue };
        t.push_row([mix.clone(), policy.clone(), f3(m.normalized_energy(base))]);
    }
    t
}

/// Figure 5.12: normalized running time on the SR1500AL at a room ambient of
/// 26 °C with a 90 °C AMB TDP.
pub fn fig5_12(scale: Scale) -> Table {
    let server = Server::sr1500al().with_ambient_c(26.0).with_amb_tdp(90.0);
    normalized_time_table(
        "fig5_12",
        "Normalized running time on the SR1500AL at 26 degC system ambient (90 degC AMB TDP)",
        scale,
        &[server],
        &ch5_mixes(scale),
    )
}

/// Figure 5.13: DTM-ACG vs DTM-BW at two fixed processor frequencies on the
/// SR1500AL.
pub fn fig5_13(scale: Scale) -> Table {
    let mut t = Table::new(
        "fig5_13",
        "DTM-ACG vs DTM-BW under two processor frequencies on the SR1500AL (normalized to DTM-BW at 3.0 GHz)",
        &["workload", "policy", "frequency GHz", "normalized time"],
    );
    let server = Server::sr1500al();
    let mixes_list = ch5_mixes(scale);
    // Per mix: the reference (DTM-BW at full frequency), then each policy
    // at each fixed frequency (cpufreq index, GHz).
    let variants: Vec<(PolicyKind, usize, f64)> =
        [PolicyKind::Bw, PolicyKind::Acg].into_iter().flat_map(|kind| [(kind, 0, 3.0), (kind, 3, 2.0)]).collect();
    let runs: Vec<Ch5Run> = mixes_list
        .iter()
        .flat_map(|mix| {
            let pinned = variants
                .iter()
                .map(|&(kind, index, _)| Ch5Policy::Platform { kind, fixed_frequency_index: Some(index) });
            std::iter::once(Ch5Policy::platform(PolicyKind::Bw))
                .chain(pinned)
                .map(|policy| Ch5Run::new(scale, &server, mix, policy))
                .collect::<Vec<_>>()
        })
        .collect();
    let results = simulate(&runs);
    for (mix, group) in mixes_list.iter().zip(results.chunks(variants.len() + 1)) {
        let reference = Measurement::from_result(&server, &group[0]);
        for (&(kind, _, freq_ghz), result) in variants.iter().zip(&group[1..]) {
            let m = Measurement::from_result(&server, result);
            t.push_row([mix.id.clone(), kind.to_string(), f1(freq_ghz), f3(m.normalized_time(&reference))]);
        }
    }
    t
}

/// Figure 5.14: average normalized running time on the PE1950 for AMB TDPs
/// of 88, 90 and 92 °C.
pub fn fig5_14(scale: Scale) -> Table {
    let mut t = Table::new(
        "fig5_14",
        "Normalized running time averaged over all workloads on the PE1950 with different AMB TDPs",
        &["AMB TDP degC", "policy", "avg normalized time"],
    );
    let tdps = [88.0, 90.0, 92.0];
    let servers: Vec<Server> = tdps.iter().map(|&tdp| Server::pe1950().with_amb_tdp(tdp)).collect();
    for (tdp, runs) in tdps.into_iter().zip(policy_runs(scale, &servers, &ch5_mixes(scale))) {
        for kind in PolicyKind::ALL {
            let policy = kind.to_string();
            let values: Vec<f64> = runs
                .iter()
                .filter(|(_, p, _)| *p == policy)
                .filter_map(|(mix, _, m)| find(&runs, mix, "No-limit").map(|b| m.normalized_time(b)))
                .collect();
            t.push_row([f1(tdp), policy, f3(mean(&values))]);
        }
    }
    t
}

/// Figure 5.15: normalized running time and L2 misses vs the scheduler time
/// slice used when two programs share a core under DTM-ACG.
pub fn fig5_15(_scale: Scale) -> Table {
    let mut t = Table::new(
        "fig5_15",
        "Normalized running time and L2 misses vs scheduler time slice (DTM-ACG core sharing, PE1950)",
        &["time slice ms", "normalized L2 misses", "normalized running time"],
    );
    let apps: Vec<_> = mixes::all_ch4_mixes().into_iter().flat_map(|m| m.apps).collect();
    let reference = TimeSliceModel::linux_default();
    let ref_misses = reference.mix_miss_inflation(&apps);
    let ref_time = mean(&apps.iter().map(|a| reference.runtime_inflation(a)).collect::<Vec<_>>());
    for slice_ms in [5.0, 10.0, 20.0, 50.0, 100.0, 200.0] {
        let model = TimeSliceModel::linux_default().with_time_slice_s(slice_ms / 1000.0);
        let misses = model.mix_miss_inflation(&apps);
        let time = mean(&apps.iter().map(|a| model.runtime_inflation(a)).collect::<Vec<_>>());
        t.push_row([f1(slice_ms), f3(misses / ref_misses), f3(time / ref_time)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_15_penalty_grows_as_the_slice_shrinks() {
        let t = fig5_15(Scale::Smoke);
        let first: f64 = t.rows.first().unwrap()[2].parse().unwrap(); // 5 ms
        let last: f64 = t.rows.last().unwrap()[2].parse().unwrap(); // 200 ms
        assert!(first > last, "5 ms slice must be slower than 200 ms");
        assert!(last <= 1.001);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "runs smoke-scale platform simulations; run with --release")]
    fn fig5_6_smoke_has_rows_for_both_servers() {
        let t = fig5_6(Scale::Smoke);
        assert!(t.rows.iter().any(|r| r[0] == "PE1950"));
        assert!(t.rows.iter().any(|r| r[0] == "SR1500AL"));
    }
}
