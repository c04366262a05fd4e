//! The two server platforms of the Chapter 5 study.

use cpu_model::CpuConfig;
use fbdimm_sim::FbdimmConfig;
use memtherm::prelude::{CoolingConfig, HeatSpreader, ThermalLimits};
use memtherm::sim::memspot::MemSpotConfig;

/// Which of the two study machines is being emulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServerKind {
    /// Dell PowerEdge 1950: stand-alone in an air-conditioned room (26 °C),
    /// strong fans, two 2 GB FBDIMMs, artificial AMB TDP of 90 °C.
    Pe1950,
    /// Intel SR1500AL: instrumented testbed in a hot box (36 °C system
    /// ambient), four 2 GB FBDIMMs, conservative AMB TDP of 100 °C, one
    /// processor directly upstream of the DIMMs (strong thermal
    /// interaction).
    Sr1500al,
}

impl std::fmt::Display for ServerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerKind::Pe1950 => write!(f, "PE1950"),
            ServerKind::Sr1500al => write!(f, "SR1500AL"),
        }
    }
}

/// Full specification of an emulated server.
#[derive(Debug, Clone, PartialEq)]
pub struct Server {
    /// Which machine this is.
    pub kind: ServerKind,
    /// Processor complex (two dual-core Xeon 5160).
    pub cpu: CpuConfig,
    /// FBDIMM memory subsystem.
    pub mem: FbdimmConfig,
    /// Effective DIMM cooling (heat-spreader model + air velocity chosen to
    /// match the observed idle and loaded AMB temperatures; see DESIGN.md).
    pub cooling: CoolingConfig,
    /// System ambient (front panel) temperature in °C.
    pub system_ambient_c: f64,
    /// CPU→memory thermal interaction degree (Ψ_CPU_MEM × ξ of Eq. 3.6).
    pub interaction_degree: f64,
    /// AMB thermal design point used by the study on this machine, °C.
    pub amb_tdp_c: f64,
    /// Boundaries of thermal emergency levels L2..L4 for the AMB (Table 5.1).
    pub emergency_bounds_c: [f64; 3],
    /// DTM-BW bandwidth limits for running levels L2..L4, GB/s (Table 5.1).
    pub bw_limits_gbps: [f64; 3],
    /// Fail-safe open-loop bandwidth cap enforced at the highest emergency
    /// level (2 GB/s on the PE1950, 3 GB/s on the SR1500AL).
    pub failsafe_cap_gbps: f64,
    /// DTM (policy trigger) interval in seconds — one second in the study.
    pub dtm_interval_s: f64,
}

impl Server {
    /// The Dell PowerEdge 1950 configuration (Section 5.3.1).
    pub fn pe1950() -> Self {
        Server {
            kind: ServerKind::Pe1950,
            cpu: CpuConfig::xeon_5160_dual_socket(),
            mem: FbdimmConfig::server(2),
            cooling: CoolingConfig { spreader: HeatSpreader::Aohs, air_velocity_mps: 3.0 },
            system_ambient_c: 26.0,
            interaction_degree: 2.0,
            amb_tdp_c: 90.0,
            emergency_bounds_c: [76.0, 80.0, 84.0],
            bw_limits_gbps: [4.0, 3.0, 2.0],
            failsafe_cap_gbps: 2.0,
            dtm_interval_s: 1.0,
        }
    }

    /// The Intel SR1500AL configuration (Section 5.3.1), at its default hot
    /// box ambient of 36 °C.
    pub fn sr1500al() -> Self {
        Server {
            kind: ServerKind::Sr1500al,
            cpu: CpuConfig::xeon_5160_dual_socket(),
            mem: FbdimmConfig::server(4),
            cooling: CoolingConfig { spreader: HeatSpreader::Aohs, air_velocity_mps: 2.2 },
            system_ambient_c: 36.0,
            interaction_degree: 3.0,
            amb_tdp_c: 100.0,
            emergency_bounds_c: [86.0, 90.0, 94.0],
            bw_limits_gbps: [5.0, 4.0, 3.0],
            failsafe_cap_gbps: 3.0,
            dtm_interval_s: 1.0,
        }
    }

    /// Returns a copy with a different system ambient temperature
    /// (Figure 5.12 reruns the SR1500AL at 26 °C with a 90 °C TDP).
    pub fn with_ambient_c(mut self, ambient_c: f64) -> Self {
        self.system_ambient_c = ambient_c;
        self
    }

    /// Returns a copy with a different AMB TDP, shifting the emergency-level
    /// boundaries so the level spacing of Table 5.1 is preserved
    /// (Figure 5.14 sweeps 88 / 90 / 92 °C on the PE1950).
    pub fn with_amb_tdp(mut self, tdp_c: f64) -> Self {
        let shift = tdp_c - self.amb_tdp_c;
        self.amb_tdp_c = tdp_c;
        for b in &mut self.emergency_bounds_c {
            *b += shift;
        }
        self
    }

    /// Thermal limits in the form the `memtherm` policies and simulator
    /// expect. The DRAM devices are never the hot spot on these machines
    /// (Section 5.3.1), so the DRAM limit is set far above any reachable
    /// temperature.
    pub fn thermal_limits(&self) -> ThermalLimits {
        ThermalLimits {
            amb_tdp_c: self.amb_tdp_c,
            dram_tdp_c: 1_000.0,
            amb_trp_c: self.amb_tdp_c - 2.0,
            dram_trp_c: 999.0,
        }
    }

    /// The MEMSpot configuration every Chapter 5 run on this server uses:
    /// the integrated thermal model with the server's interaction degree,
    /// its thermal limits, system ambient and DTM interval, and a batch of
    /// `runs_per_app` copies of each application at `instruction_scale`.
    /// [`PlatformExperiment`](crate::PlatformExperiment) and the batched
    /// Chapter 5 figure drivers both build their runs from it.
    pub fn memspot_config(&self, runs_per_app: usize, instruction_scale: f64) -> MemSpotConfig {
        MemSpotConfig {
            limits: self.thermal_limits(),
            ambient_override_c: Some(self.system_ambient_c),
            dtm_interval_s: self.dtm_interval_s,
            copies_per_app: runs_per_app,
            instruction_scale,
            characterization_budget: 40_000,
            max_sim_time_s: 40_000.0,
            ..MemSpotConfig::paper(self.cooling).with_integrated(Some(self.interaction_degree))
        }
    }

    /// The memory-inlet temperature seen by the DIMMs when the processors
    /// are idle (the system ambient, before any CPU pre-heating).
    pub fn idle_memory_inlet_c(&self) -> f64 {
        self.system_ambient_c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_two_servers_match_section_5_3() {
        let pe = Server::pe1950();
        assert_eq!(pe.kind.to_string(), "PE1950");
        assert_eq!(pe.mem.dimms_per_channel, 2);
        assert_eq!(pe.amb_tdp_c, 90.0);
        assert_eq!(pe.emergency_bounds_c, [76.0, 80.0, 84.0]);
        assert_eq!(pe.failsafe_cap_gbps, 2.0);

        let sr = Server::sr1500al();
        assert_eq!(sr.kind.to_string(), "SR1500AL");
        assert_eq!(sr.mem.dimms_per_channel, 4);
        assert_eq!(sr.amb_tdp_c, 100.0);
        assert_eq!(sr.emergency_bounds_c, [86.0, 90.0, 94.0]);
        assert_eq!(sr.bw_limits_gbps, [5.0, 4.0, 3.0]);
        assert_eq!(sr.dtm_interval_s, 1.0);
    }

    #[test]
    fn both_use_dual_socket_xeon_5160() {
        for s in [Server::pe1950(), Server::sr1500al()] {
            assert_eq!(s.cpu.cores, 4);
            assert_eq!(s.cpu.l2_count, 2);
            assert!((s.cpu.dvfs.top().freq_ghz - 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn sr1500al_has_stronger_thermal_interaction() {
        assert!(Server::sr1500al().interaction_degree > Server::pe1950().interaction_degree);
    }

    #[test]
    fn tdp_sweep_shifts_emergency_levels_together() {
        let s = Server::pe1950().with_amb_tdp(88.0);
        assert_eq!(s.amb_tdp_c, 88.0);
        assert_eq!(s.emergency_bounds_c, [74.0, 78.0, 82.0]);
        let limits = s.thermal_limits();
        assert_eq!(limits.amb_tdp_c, 88.0);
        assert!(limits.dram_tdp_c > 500.0, "DRAM is never the hot spot on the servers");
    }

    #[test]
    fn memspot_config_carries_the_server_environment() {
        let s = Server::sr1500al().with_ambient_c(26.0).with_amb_tdp(90.0);
        let cfg = s.memspot_config(2, 0.5);
        assert!(cfg.integrated);
        assert_eq!(cfg.interaction_degree, Some(s.interaction_degree));
        assert_eq!(cfg.ambient_override_c, Some(26.0));
        assert_eq!(cfg.limits, s.thermal_limits());
        assert_eq!(cfg.cooling, s.cooling);
        assert_eq!(cfg.dtm_interval_s, 1.0);
        assert_eq!((cfg.copies_per_app, cfg.instruction_scale), (2, 0.5));
        assert!(!cfg.record_temp_trace);
    }

    #[test]
    fn ambient_override_is_plumbed_through() {
        let s = Server::sr1500al().with_ambient_c(26.0);
        assert_eq!(s.system_ambient_c, 26.0);
        assert_eq!(s.idle_memory_inlet_c(), 26.0);
    }
}
