//! Software DTM policies for the server platforms (Section 5.2.2).
//!
//! The policies quantize the hottest AMB temperature into the four thermal
//! emergency levels of Table 5.1 and map each level to a thermal running
//! level: a bandwidth cap (DTM-BW), a number of online cores (DTM-ACG), a
//! cpufreq operating point (DTM-CDVFS) or both (DTM-COMB). At the highest
//! emergency level the chipset's open-loop bandwidth throttling is enabled
//! for every policy as a fail-safe. Temperatures are read through a noisy
//! AMB sensor, and actuation goes through the hotplug / cpufreq emulation.

use cpu_model::RunningMode;
use memtherm::dtm::plan::ActuationPlan;
use memtherm::dtm::policy::{DtmPolicy, DtmScheme};
use memtherm::thermal::scene::ThermalObservation;

use crate::actuation::{CpuFreqControl, CpuHotplug};
use crate::sensors::ThermalSensor;
use crate::server::Server;

/// Which software policy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// No thermal management (baseline, only safe at low ambient).
    NoLimit,
    /// Bandwidth throttling through the chipset (the reference policy).
    Bw,
    /// Adaptive core gating through CPU hotplug.
    Acg,
    /// Coordinated DVFS through cpufreq.
    Cdvfs,
    /// Combined gating + DVFS (the policy proposed in Chapter 5).
    Comb,
}

impl PolicyKind {
    /// All policies evaluated in the Chapter 5 study.
    pub const ALL: [PolicyKind; 4] = [PolicyKind::Bw, PolicyKind::Acg, PolicyKind::Cdvfs, PolicyKind::Comb];

    /// The scheme identifier used for reporting.
    pub fn scheme(self) -> DtmScheme {
        match self {
            PolicyKind::NoLimit => DtmScheme::NoLimit,
            PolicyKind::Bw => DtmScheme::Bw,
            PolicyKind::Acg => DtmScheme::Acg,
            PolicyKind::Cdvfs => DtmScheme::Cdvfs,
            PolicyKind::Comb => DtmScheme::Comb,
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.scheme())
    }
}

/// A software DTM policy bound to one server.
#[derive(Debug)]
pub struct PlatformPolicy {
    kind: PolicyKind,
    server: Server,
    sensor: ThermalSensor,
    hotplug: CpuHotplug,
    cpufreq: CpuFreqControl,
    last_level: usize,
    cpu_freq_override_index: Option<usize>,
}

impl PlatformPolicy {
    /// Creates a policy of the given kind for a server, with a noisy AMB
    /// sensor seeded deterministically.
    pub fn new(kind: PolicyKind, server: Server) -> Self {
        let cores = server.cpu.cores;
        let ladder = server.cpu.dvfs.clone();
        PlatformPolicy {
            kind,
            server,
            sensor: ThermalSensor::amb(0xA3B1),
            hotplug: CpuHotplug::new(cores),
            cpufreq: CpuFreqControl::new(ladder),
            last_level: 0,
            cpu_freq_override_index: None,
        }
    }

    /// Uses an ideal (noise-free) sensor — useful for deterministic tests.
    pub fn with_ideal_sensor(mut self) -> Self {
        self.sensor = ThermalSensor::ideal();
        self
    }

    /// Forces DTM-BW / DTM-ACG to run the processor at a fixed cpufreq index
    /// (Figure 5.13 compares them at 3.0 GHz and 2.0 GHz).
    pub fn with_fixed_frequency_index(mut self, index: usize) -> Self {
        self.cpu_freq_override_index = Some(index);
        self
    }

    /// The kind of policy.
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// The emergency level (0-based) selected at the last decision.
    pub fn last_level(&self) -> usize {
        self.last_level
    }

    /// Hotplug actuation state (for inspection).
    pub fn hotplug(&self) -> &CpuHotplug {
        &self.hotplug
    }

    /// cpufreq actuation state (for inspection).
    pub fn cpufreq(&self) -> &CpuFreqControl {
        &self.cpufreq
    }

    fn emergency_level(&self, sensed_amb_c: f64) -> usize {
        self.server.emergency_bounds_c.iter().filter(|&&b| sensed_amb_c >= b).count()
    }

    fn mode_for_level(&mut self, level: usize) -> RunningMode {
        let cpu = &self.server.cpu;
        let mut mode = RunningMode::full_speed(cpu);
        if let Some(idx) = self.cpu_freq_override_index {
            mode = mode.with_op(cpu.dvfs.point(idx));
        }
        let failsafe = level >= 3;
        match self.kind {
            PolicyKind::NoLimit => {}
            PolicyKind::Bw => {
                if level >= 1 {
                    mode = mode.with_bandwidth_cap_gbps(self.server.bw_limits_gbps[(level - 1).min(2)]);
                }
            }
            PolicyKind::Acg => {
                // 4 / 3 / 2 / 2 online cores; at least one core per socket
                // stays online to keep both L2 caches usable (Section 5.2.2).
                let target = match level {
                    0 => 4,
                    1 => 3,
                    _ => 2,
                };
                let online = self.hotplug.set_online_count(target);
                mode = mode.with_active_cores(online);
                if failsafe {
                    mode = mode.with_bandwidth_cap_gbps(self.server.failsafe_cap_gbps);
                }
            }
            PolicyKind::Cdvfs => {
                let op = self.cpufreq.set_index(level.min(3));
                mode = mode.with_op(op);
                if failsafe {
                    mode = mode.with_bandwidth_cap_gbps(self.server.failsafe_cap_gbps);
                }
            }
            PolicyKind::Comb => {
                let target = match level {
                    0 => 4,
                    1 => 3,
                    _ => 2,
                };
                let online = self.hotplug.set_online_count(target);
                let op = self.cpufreq.set_index(level.min(3));
                mode = mode.with_active_cores(online).with_op(op);
                if failsafe {
                    mode = mode.with_bandwidth_cap_gbps(self.server.failsafe_cap_gbps);
                }
            }
        }
        // DTM-BW's highest level already applies its own (equal) cap.
        if failsafe && self.kind == PolicyKind::Bw {
            mode = mode.with_bandwidth_cap_gbps(self.server.failsafe_cap_gbps);
        }
        mode
    }
}

impl DtmPolicy for PlatformPolicy {
    /// Reads the observation's hottest AMB through the noisy sensor — the
    /// software stack only has the chipset's worst-case AMB register, not
    /// the full temperature field — and always actuates globally (a scalar
    /// plan).
    fn decide(&mut self, observation: &ThermalObservation, _dt_s: f64) -> ActuationPlan {
        let sensed = self.sensor.read(observation.max_amb_c);
        let level = if self.kind == PolicyKind::NoLimit { 0 } else { self.emergency_level(sensed) };
        self.last_level = level;
        self.mode_for_level(level).into()
    }

    fn scheme(&self) -> DtmScheme {
        self.kind.scheme()
    }

    /// `decide` reads only `max_amb_c`, so the batched engine may observe
    /// the cell from its running device maxima.
    fn observes_field(&self) -> bool {
        false
    }

    fn name(&self) -> String {
        format!("{} ({})", self.kind.scheme(), self.server.kind)
    }

    fn reset(&mut self) {
        self.last_level = 0;
        self.hotplug.set_online_count(self.server.cpu.cores);
        self.cpufreq.set_index(self.cpu_freq_override_index.unwrap_or(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;

    fn acg() -> PlatformPolicy {
        PlatformPolicy::new(PolicyKind::Acg, Server::sr1500al()).with_ideal_sensor()
    }

    #[test]
    fn emergency_levels_follow_table_5_1() {
        let mut p = PlatformPolicy::new(PolicyKind::Bw, Server::sr1500al()).with_ideal_sensor();
        p.decide_temps(80.0, 0.0, 1.0);
        assert_eq!(p.last_level(), 0);
        p.decide_temps(87.0, 0.0, 1.0);
        assert_eq!(p.last_level(), 1);
        p.decide_temps(91.0, 0.0, 1.0);
        assert_eq!(p.last_level(), 2);
        p.decide_temps(95.0, 0.0, 1.0);
        assert_eq!(p.last_level(), 3);
    }

    #[test]
    fn bw_limits_match_table_5_1() {
        let mut p = PlatformPolicy::new(PolicyKind::Bw, Server::sr1500al()).with_ideal_sensor();
        assert_eq!(p.decide_temps(80.0, 0.0, 1.0).bandwidth_cap, None);
        let caps: Vec<f64> =
            [87.0, 91.0, 95.0].iter().map(|&t| p.decide_temps(t, 0.0, 1.0).bandwidth_cap.unwrap() / 1e9).collect();
        assert_eq!(caps, vec![5.0, 4.0, 3.0]);
    }

    #[test]
    fn acg_keeps_one_core_per_socket_online() {
        let mut p = acg();
        let hot = p.decide_temps(95.0, 0.0, 1.0);
        assert_eq!(hot.active_cores, 2);
        // Cores 0 and 1 remain online (one per socket is the intent; the
        // emulation gates the highest-numbered cores first).
        assert!(p.hotplug().is_online(0) && p.hotplug().is_online(1));
        // Fail-safe cap applies at the highest level.
        assert!((hot.bandwidth_cap.unwrap() / 1e9 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn cdvfs_walks_the_xeon_ladder() {
        let mut p = PlatformPolicy::new(PolicyKind::Cdvfs, Server::pe1950()).with_ideal_sensor();
        let freqs: Vec<f64> =
            [70.0, 77.0, 81.0, 85.0].iter().map(|&t| p.decide_temps(t, 0.0, 1.0).op.freq_ghz).collect();
        assert_eq!(freqs, vec![3.0, 2.667, 2.333, 2.0]);
        assert!(p.cpufreq().transitions() >= 3);
    }

    #[test]
    fn comb_combines_both_actuators() {
        let mut p = PlatformPolicy::new(PolicyKind::Comb, Server::pe1950()).with_ideal_sensor();
        let mode = p.decide_temps(81.0, 0.0, 1.0);
        assert_eq!(mode.active_cores, 2);
        assert!((mode.op.freq_ghz - 2.333).abs() < 1e-9);
    }

    #[test]
    fn fixed_frequency_override_pins_bw_and_acg() {
        let mut p =
            PlatformPolicy::new(PolicyKind::Acg, Server::sr1500al()).with_ideal_sensor().with_fixed_frequency_index(3);
        let cool = p.decide_temps(70.0, 0.0, 1.0);
        assert!((cool.op.freq_ghz - 2.0).abs() < 1e-9);
        assert_eq!(cool.active_cores, 4);
    }

    #[test]
    fn reset_restores_full_performance_actuation() {
        let mut p = acg();
        p.decide_temps(95.0, 0.0, 1.0);
        assert_eq!(p.hotplug().online_count(), 2);
        p.reset();
        assert_eq!(p.hotplug().online_count(), 4);
        assert_eq!(p.name(), "DTM-ACG (SR1500AL)");
    }

    #[test]
    fn no_limit_never_reacts() {
        let mut p = PlatformPolicy::new(PolicyKind::NoLimit, Server::sr1500al()).with_ideal_sensor();
        let mode = p.decide_temps(120.0, 0.0, 1.0);
        assert_eq!(mode.active_cores, 4);
        assert_eq!(mode.bandwidth_cap, None);
        assert_eq!(p.kind(), PolicyKind::NoLimit);
    }
}
