//! The Chapter 5 experiment driver.
//!
//! [`PlatformExperiment`] wires a [`Server`] specification into the
//! two-level simulator: the Xeon 5160 processor complex and the server's
//! FBDIMM subsystem form the level-1 substrate, the integrated thermal model
//! (with the server's ambient temperature and CPU→memory interaction
//! strength) forms the level-2 plant, and the software DTM policies of
//! Section 5.2.2 act on it once per second through noisy AMB sensors.
//!
//! The driver runs one mix under one policy per call on the per-cell
//! engine ([`MemSpot::run`]). It is the reference for single runs, tests
//! and examples. The Chapter 5 figure drivers do not call it: they hand
//! whole batches of runs to the batched sweep dispatcher. Both paths build
//! their configuration with [`Server::memspot_config`], and the batched
//! path reproduces this driver's results bit for bit.
//!
use std::sync::Arc;

use memtherm::dtm::no_limit::NoLimit;
use memtherm::sim::characterize::CharStore;
use memtherm::sim::memspot::{MemSpot, MemSpotConfig, MemSpotResult, TempSample};
use workloads::{AppBehavior, WorkloadMix};

use crate::measurement::Measurement;
use crate::policies::{PlatformPolicy, PolicyKind};
use crate::server::Server;

/// Result of one policy run on a server: the raw MEMSpot result plus the
/// condensed Chapter 5 measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformRun {
    /// Condensed measurement (counters, power, energy).
    pub measurement: Measurement,
    /// Full simulation result (traces, residency, totals).
    pub result: MemSpotResult,
}

/// Experiment driver for one server.
#[derive(Debug)]
pub struct PlatformExperiment {
    server: Server,
    /// Simulator for the policy runs; records no temperature trace.
    spot: MemSpot,
    /// Simulator for the homogeneous-workload curves, the only runs whose
    /// temperature trace is read. Shares `spot`'s level-1 store.
    curve_spot: MemSpot,
    runs_per_app: usize,
}

impl PlatformExperiment {
    /// Creates the driver with the study's batch sizes (ten runs of every
    /// CPU2000 application, five of every CPU2006 application — approximated
    /// here by a configurable `runs_per_app`).
    pub fn new(server: Server) -> Self {
        Self::with_scale(server, 4, 0.2)
    }

    /// Creates the driver with an explicit batch size and instruction scale
    /// (tests use small values; normalized results are preserved) and a
    /// private level-1 store.
    pub fn with_scale(server: Server, runs_per_app: usize, instruction_scale: f64) -> Self {
        Self::with_store(server, runs_per_app, instruction_scale, Arc::new(CharStore::new()))
    }

    /// [`Self::with_scale`] with the level-1 characterizations kept in (and
    /// shared through) an external [`CharStore`]. Drivers that run many
    /// experiments in one process pass one store to all of them, so each
    /// design point of a server's hardware is characterized once. The store
    /// key carries a hardware fingerprint, so experiments on different
    /// servers can share a store without aliasing. Results are identical to
    /// a private store's.
    pub fn with_store(server: Server, runs_per_app: usize, instruction_scale: f64, store: Arc<CharStore>) -> Self {
        let cfg = server.memspot_config(runs_per_app, instruction_scale);
        let curve_cfg = MemSpotConfig { record_temp_trace: true, ..cfg };
        let curve_spot = MemSpot::with_store(server.cpu.clone(), server.mem, curve_cfg, Arc::clone(&store));
        let spot = MemSpot::with_store(server.cpu.clone(), server.mem, cfg, store);
        PlatformExperiment { server, spot, curve_spot, runs_per_app }
    }

    /// The server being emulated.
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Number of copies of each application in the batch.
    pub fn runs_per_app(&self) -> usize {
        self.runs_per_app
    }

    /// Runs a workload mix under one software DTM policy.
    pub fn run_policy(&mut self, mix: &WorkloadMix, kind: PolicyKind) -> PlatformRun {
        let mut policy = PlatformPolicy::new(kind, self.server.clone());
        self.run_with(mix, &mut policy)
    }

    /// Runs a workload mix under an explicitly constructed policy (used for
    /// the fixed-frequency comparison of Figure 5.13).
    pub fn run_with(&mut self, mix: &WorkloadMix, policy: &mut PlatformPolicy) -> PlatformRun {
        let result = self.spot.run(mix, policy);
        PlatformRun { measurement: Measurement::from_result(&self.server, &result), result }
    }

    /// Runs a workload mix with no thermal management at all — the baseline
    /// the study's "no-limit" bars normalize against (obtained on the
    /// SR1500AL by lowering the ambient temperature so no emergency occurs).
    pub fn run_no_limit(&mut self, mix: &WorkloadMix) -> PlatformRun {
        let mut policy = NoLimit::new(&self.server.cpu);
        let result = self.spot.run(mix, &mut policy);
        PlatformRun { measurement: Measurement::from_result(&self.server, &result), result }
    }

    /// Runs four copies of one application with no DTM control and returns
    /// the AMB temperature trace of the first `duration_s` seconds — the
    /// experiment behind Figures 5.4 and 5.5. These are the only runs of the
    /// driver that record a trace.
    pub fn homogeneous_temperature_curve(&mut self, app: &AppBehavior, duration_s: f64) -> Vec<TempSample> {
        let mix = WorkloadMix::homogeneous(app.clone(), self.server.cpu.cores);
        let mut policy = NoLimit::new(&self.server.cpu);
        let result = self.curve_spot.run(&mix, &mut policy);
        result.temp_trace.into_iter().filter(|s| s.time_s <= duration_s).collect()
    }

    /// Average AMB temperature over a homogeneous run of one application
    /// (Figure 5.5), with the hottest 0.5 % of samples filtered as sensor
    /// spikes.
    pub fn homogeneous_average_amb(&mut self, app: &AppBehavior) -> f64 {
        average_amb_c(&self.homogeneous_temperature_curve(app, f64::INFINITY))
    }
}

/// Average AMB temperature of a recorded trace with the hottest 0.5 % of
/// samples filtered as sensor spikes (the quantity of Figure 5.5); 0 for an
/// empty trace.
pub fn average_amb_c(trace: &[TempSample]) -> f64 {
    let samples: Vec<f64> = trace.iter().map(|s| s.amb_c).collect();
    let filtered = crate::sensors::filter_spikes(samples, 0.005);
    if filtered.is_empty() {
        return 0.0;
    }
    filtered.iter().sum::<f64>() / filtered.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{mixes, spec2000};

    fn small(server: Server) -> PlatformExperiment {
        // One copy of each application at full length: batches of a few
        // hundred simulated seconds, enough for the servers to heat into
        // their emergency ranges.
        PlatformExperiment::with_scale(server, 1, 1.0)
    }

    #[test]
    fn memory_intensive_workload_triggers_emergencies_on_the_sr1500al() {
        let mut exp = small(Server::sr1500al());
        let run = exp.run_policy(&mixes::w1(), PolicyKind::Bw);
        assert!(run.result.completed);
        assert!(run.measurement.max_amb_c > exp.server().emergency_bounds_c[0], "never reached an emergency level");
        assert!(run.measurement.max_amb_c < exp.server().amb_tdp_c + 1.0);
        assert!(run.measurement.memory_inlet_c > exp.server().system_ambient_c + 2.0, "CPU pre-heating missing");
    }

    #[test]
    fn acg_and_cdvfs_beat_bw_on_the_sr1500al() {
        let mut exp = small(Server::sr1500al());
        let bw = exp.run_policy(&mixes::w1(), PolicyKind::Bw);
        let acg = exp.run_policy(&mixes::w1(), PolicyKind::Acg);
        let cdvfs = exp.run_policy(&mixes::w1(), PolicyKind::Cdvfs);
        assert!(acg.measurement.running_time_s < bw.measurement.running_time_s * 1.02);
        assert!(cdvfs.measurement.running_time_s < bw.measurement.running_time_s * 1.02);
        // CDVFS lowers CPU power relative to BW (Figure 5.10).
        assert!(cdvfs.measurement.cpu_power_w < bw.measurement.cpu_power_w);
    }

    #[test]
    fn pe1950_stand_alone_box_stays_cooler_than_the_hot_box() {
        let mut pe = small(Server::pe1950());
        let mut sr = small(Server::sr1500al());
        let a = pe.run_no_limit(&mixes::w5());
        let b = sr.run_no_limit(&mixes::w5());
        assert!(a.measurement.max_amb_c < b.measurement.max_amb_c);
    }

    #[test]
    fn homogeneous_swim_heats_up_within_the_first_minutes() {
        let mut exp = small(Server::sr1500al());
        let curve = exp.homogeneous_temperature_curve(&spec2000::swim(), 500.0);
        assert!(curve.len() > 50);
        let start = curve.first().unwrap().amb_c;
        let end = curve.last().unwrap().amb_c;
        assert!(end > start + 5.0, "AMB should heat from {start:.1} to well above, got {end:.1}");
    }

    #[test]
    fn memory_intensive_apps_average_hotter_than_moderate_ones() {
        let mut exp = small(Server::pe1950());
        let hot = exp.homogeneous_average_amb(&spec2000::swim());
        let cool = exp.homogeneous_average_amb(&spec2000::vpr());
        assert!(hot > cool, "swim {hot:.1} vs vpr {cool:.1}");
    }
}
