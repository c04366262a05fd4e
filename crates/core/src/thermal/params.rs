//! Thermal parameters (Tables 3.2 and 3.3), thermal design points, and the
//! device-stack topologies the scene generalizes over.
//!
//! The paper models one AMB + DRAM pair per DIMM; [`StackTopology`] lifts
//! that into an ordered stack of [`DeviceLayer`]s per position — the legacy
//! FBDIMM pair, DDR4/5-style rank pairs, or CoMeT-style 3D stacks with
//! vertical (TSV) coupling resistances between dies — while keeping the
//! same steady-state formalism: layer temperatures are superpositions of
//! per-layer powers through a Ψ coupling matrix (Eqs. 3.3–3.4 generalized
//! to N layers).

/// Type of heat spreader mounted on the FBDIMM (Section 3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeatSpreader {
    /// AMB-Only Heat Spreader: covers only the AMB.
    Aohs,
    /// Full-DIMM Heat Spreader: covers the AMB and the DRAM devices.
    Fdhs,
}

impl std::fmt::Display for HeatSpreader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeatSpreader::Aohs => write!(f, "AOHS"),
            HeatSpreader::Fdhs => write!(f, "FDHS"),
        }
    }
}

/// Thermal resistances of one FBDIMM for a given cooling configuration
/// (Table 3.2), in °C per watt, plus the thermal RC time constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalResistances {
    /// Ψ_AMB: AMB power to AMB temperature.
    pub psi_amb: f64,
    /// Ψ_DRAM_AMB: DRAM power to AMB temperature.
    pub psi_dram_amb: f64,
    /// Ψ_DRAM: DRAM power to DRAM temperature.
    pub psi_dram: f64,
    /// Ψ_AMB_DRAM: AMB power to DRAM temperature.
    pub psi_amb_dram: f64,
    /// τ_AMB: AMB thermal time constant in seconds (Table 3.2: 50 s).
    pub tau_amb_s: f64,
    /// τ_DRAM: DRAM thermal time constant in seconds (Table 3.2: 100 s).
    pub tau_dram_s: f64,
}

/// A cooling configuration: heat spreader type and cooling-air velocity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoolingConfig {
    /// Heat spreader type.
    pub spreader: HeatSpreader,
    /// Cooling-air velocity in m/s (Table 3.2 tabulates 1.0, 1.5 and 3.0).
    pub air_velocity_mps: f64,
}

impl CoolingConfig {
    /// `AOHS_1.5`: AMB-only heat spreader with 1.5 m/s air (one of the two
    /// configurations used in the experiments).
    pub fn aohs_1_5() -> Self {
        CoolingConfig { spreader: HeatSpreader::Aohs, air_velocity_mps: 1.5 }
    }

    /// `FDHS_1.0`: full-DIMM heat spreader with 1.0 m/s air (the other
    /// experimental configuration).
    pub fn fdhs_1_0() -> Self {
        CoolingConfig { spreader: HeatSpreader::Fdhs, air_velocity_mps: 1.0 }
    }

    /// A short identifier (`"AOHS_1.5"`, `"FDHS_1.0"`, ...).
    pub fn label(&self) -> String {
        format!("{}_{:.1}", self.spreader, self.air_velocity_mps)
    }

    /// Thermal resistances for this cooling configuration (Table 3.2). Air
    /// velocities between table columns are linearly interpolated; values
    /// outside the table range are clamped to the nearest column.
    pub fn resistances(&self) -> ThermalResistances {
        // Table columns: air velocity 1.0, 1.5, 3.0 m/s.
        const VELOCITIES: [f64; 3] = [1.0, 1.5, 3.0];
        let (psi_amb, psi_dram_amb, psi_dram, psi_amb_dram): ([f64; 3], [f64; 3], [f64; 3], [f64; 3]) =
            match self.spreader {
                HeatSpreader::Aohs => ([11.2, 9.3, 6.6], [4.3, 3.4, 2.2], [4.9, 4.0, 2.7], [5.3, 4.1, 2.6]),
                HeatSpreader::Fdhs => ([8.0, 7.0, 5.5], [4.4, 3.7, 2.9], [4.0, 3.3, 2.3], [5.7, 4.5, 2.9]),
            };
        let interp = |col: &[f64; 3]| -> f64 {
            let v = self.air_velocity_mps;
            if v <= VELOCITIES[0] {
                return col[0];
            }
            if v >= VELOCITIES[2] {
                return col[2];
            }
            let (lo, hi, a, b) = if v <= VELOCITIES[1] {
                (VELOCITIES[0], VELOCITIES[1], col[0], col[1])
            } else {
                (VELOCITIES[1], VELOCITIES[2], col[1], col[2])
            };
            a + (b - a) * (v - lo) / (hi - lo)
        };
        ThermalResistances {
            psi_amb: interp(&psi_amb),
            psi_dram_amb: interp(&psi_dram_amb),
            psi_dram: interp(&psi_dram),
            psi_amb_dram: interp(&psi_amb_dram),
            tau_amb_s: 50.0,
            tau_dram_s: 100.0,
        }
    }

    /// Default memory ambient (inlet) temperature for the *isolated* thermal
    /// model under this configuration (Table 3.3): 50 °C for AOHS_1.5 and
    /// 45 °C for FDHS_1.0.
    pub fn isolated_ambient_c(&self) -> f64 {
        match self.spreader {
            HeatSpreader::Aohs => 50.0,
            HeatSpreader::Fdhs => 45.0,
        }
    }

    /// Default *system inlet* temperature for the integrated thermal model
    /// (Table 3.3): 45 °C for AOHS_1.5 and 40 °C for FDHS_1.0.
    pub fn integrated_inlet_c(&self) -> f64 {
        self.isolated_ambient_c() - 5.0
    }
}

/// Parameters of the DRAM-ambient (memory inlet) model of Section 3.5 /
/// Table 3.3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmbientParams {
    /// System inlet temperature in °C.
    pub system_inlet_c: f64,
    /// Combined coefficient Ψ_CPU_MEM × ξ of Equation 3.6 (1.5 in the
    /// integrated model, 0.0 in the isolated model).
    pub psi_cpu_mem_xi: f64,
    /// Thermal RC constant of the CPU→DRAM ambient path, seconds (20 s).
    pub tau_cpu_dram_s: f64,
}

impl AmbientParams {
    /// Isolated-model parameters: the ambient is a constant equal to the
    /// configured memory inlet temperature.
    pub fn isolated(cooling: &CoolingConfig) -> Self {
        AmbientParams { system_inlet_c: cooling.isolated_ambient_c(), psi_cpu_mem_xi: 0.0, tau_cpu_dram_s: 20.0 }
    }

    /// Integrated-model parameters (Table 3.3): lower inlet temperature plus
    /// processor heating with Ψ_CPU_MEM × ξ = 1.5.
    pub fn integrated(cooling: &CoolingConfig) -> Self {
        AmbientParams { system_inlet_c: cooling.integrated_inlet_c(), psi_cpu_mem_xi: 1.5, tau_cpu_dram_s: 20.0 }
    }

    /// Returns a copy with a different thermal-interaction degree
    /// (Section 4.5.2 sweeps 1.0, 1.5, 2.0).
    pub fn with_interaction_degree(mut self, degree: f64) -> Self {
        self.psi_cpu_mem_xi = degree;
        self
    }

    /// Stable DRAM-ambient temperature given the processors' Σ(V_i × IPC_i)
    /// activity term (Equation 3.6).
    pub fn stable_ambient_c(&self, sum_voltage_ipc: f64) -> f64 {
        self.system_inlet_c + self.psi_cpu_mem_xi * sum_voltage_ipc.max(0.0)
    }
}

/// What kind of device a stack layer is; selects the power source it draws
/// from and the thermal limit that applies to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceLayerKind {
    /// A buffer / interface die (the FBDIMM AMB, a 3D stack's base logic
    /// die). Judged against the AMB thermal limits.
    Buffer,
    /// A DRAM die or rank. Judged against the DRAM thermal limits.
    Dram,
}

/// One layer of a device stack: its kind, display name, RC time constant,
/// and the share of each power source (buffer power, DRAM power) deposited
/// into it.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceLayer {
    /// What the layer is (selects limits and power source).
    pub kind: DeviceLayerKind,
    /// Display name ("AMB", "rank0", "die2", ...).
    pub name: String,
    /// Thermal RC time constant of the layer, seconds.
    pub tau_s: f64,
    /// Share of the position's buffer (AMB-equivalent) power deposited here.
    pub buffer_share: f64,
    /// Share of the position's DRAM power deposited here.
    pub dram_share: f64,
}

/// Vertical die-to-die (TSV field / thinned silicon) thermal resistance used
/// by the built-in 3D-stack topologies, °C/W per interface. The 3-D memory
/// integration literature puts thinned-die + TSV interfaces well under
/// 1 °C/W, which is what makes vertical stacks thermally coupled at all.
pub const TSV_INTERFACE_C_PER_W: f64 = 0.4;

/// PCB coupling resistance between the two ranks of a DDR4/5-style
/// double-sided DIMM, °C/W.
pub const RANK_BOARD_COUPLING_C_PER_W: f64 = 3.0;

/// The device-stack topology of one DIMM/module position: an ordered list of
/// layers plus the Ψ coupling matrix mapping per-layer power to steady-state
/// layer temperatures (the N-layer generalization of Eqs. 3.3–3.4).
///
/// `psi[i][j]` is the temperature rise of layer `i` (above the memory
/// ambient) per watt dissipated in layer `j`. The legacy FBDIMM topology
/// carries Table 3.2's measured 2×2 matrix verbatim; the rank-pair and
/// 3D-stack topologies derive their matrices from a one-dimensional
/// resistance ladder (lateral paths to the cooling air plus vertical
/// inter-layer coupling), solved exactly by inverting the conductance
/// matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct StackTopology {
    name: String,
    layers: Vec<DeviceLayer>,
    /// Row-major depth × depth coupling matrix, °C/W.
    psi: Vec<f64>,
    /// True when layer 0 takes exactly the buffer power and layer 1 exactly
    /// the DRAM power — the legacy FBDIMM fast path that keeps the
    /// pre-refactor trajectories bit-identical.
    identity_split: bool,
    buffer_layer: Option<usize>,
}

impl StackTopology {
    /// Builds a topology from explicit layers and a row-major Ψ matrix.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty, the matrix is not layers² long, any
    /// time constant is not strictly positive, or a power source's shares
    /// do not sum to 1 across the stack (0 is also accepted — an unused
    /// source — but a partial sum would silently create or destroy watts
    /// every step, violating the energy-conservation invariant of
    /// [`StackTopology::split_watts_into`]).
    pub fn from_matrix(name: impl Into<String>, layers: Vec<DeviceLayer>, psi: Vec<f64>) -> Self {
        assert!(!layers.is_empty(), "a stack needs at least one layer");
        assert_eq!(psi.len(), layers.len() * layers.len(), "psi must be a layers x layers matrix");
        assert!(layers.iter().all(|l| l.tau_s > 0.0), "layer time constants must be positive");
        for (source, sum) in [
            ("buffer", layers.iter().map(|l| l.buffer_share).sum::<f64>()),
            ("dram", layers.iter().map(|l| l.dram_share).sum::<f64>()),
        ] {
            assert!(
                (sum - 1.0).abs() < 1e-9 || sum.abs() < 1e-9,
                "{source} power shares must sum to 1 (or 0 for an unused source), got {sum}"
            );
        }
        let buffer_layer = layers.iter().position(|l| l.kind == DeviceLayerKind::Buffer);
        let identity_split = layers.len() == 2
            && layers[0].buffer_share == 1.0
            && layers[0].dram_share == 0.0
            && layers[1].buffer_share == 0.0
            && layers[1].dram_share == 1.0;
        StackTopology { name: name.into(), layers, psi, identity_split, buffer_layer }
    }

    /// The paper's FBDIMM stack: one AMB above the DRAM devices, coupled by
    /// Table 3.2's measured Ψ matrix. The two-layer instance of the general
    /// machinery; its trajectories are bit-identical to the pre-stack scene.
    pub fn fbdimm(r: &ThermalResistances) -> Self {
        let layers = vec![
            DeviceLayer {
                kind: DeviceLayerKind::Buffer,
                name: "AMB".to_string(),
                tau_s: r.tau_amb_s,
                buffer_share: 1.0,
                dram_share: 0.0,
            },
            DeviceLayer {
                kind: DeviceLayerKind::Dram,
                name: "DRAM".to_string(),
                tau_s: r.tau_dram_s,
                buffer_share: 0.0,
                dram_share: 1.0,
            },
        ];
        Self::from_matrix("fbdimm", layers, vec![r.psi_amb, r.psi_dram_amb, r.psi_amb_dram, r.psi_dram])
    }

    /// A DDR4/5-style double-sided DIMM: two DRAM ranks, no buffer die.
    /// Each rank has its own lateral path to the cooling air (Ψ_DRAM of the
    /// cooling configuration) and the ranks couple through the PCB
    /// ([`RANK_BOARD_COUPLING_C_PER_W`]). The register/PMIC (the
    /// buffer-power source) has no die of its own — its power splits evenly
    /// into the two ranks.
    pub fn ddr_rank_pair(r: &ThermalResistances) -> Self {
        let rank = |i: usize| DeviceLayer {
            kind: DeviceLayerKind::Dram,
            name: format!("rank{i}"),
            tau_s: r.tau_dram_s,
            buffer_share: 0.5,
            dram_share: 0.5,
        };
        let psi = ladder_psi(&[1.0 / r.psi_dram, 1.0 / r.psi_dram], &[1.0 / RANK_BOARD_COUPLING_C_PER_W]);
        StackTopology::from_matrix("rank-pair", vec![rank(0), rank(1)], psi)
    }

    /// A 3D-stacked DRAM device: a base buffer (logic/interface) die plus
    /// `dies` vertically stacked DRAM dies, CoMeT-style. Heat leaves through
    /// the package balls under the base die (2·Ψ_AMB — the board is a poor
    /// sink) and through the heat spreader above the top die (Ψ_DRAM of the
    /// cooling configuration); every die-to-die interface adds a
    /// [`TSV_INTERFACE_C_PER_W`] vertical resistance, so the dies in the
    /// middle of the stack — farthest from both exits — run hottest.
    ///
    /// # Panics
    ///
    /// Panics if `dies` is zero.
    pub fn stacked_3d(dies: usize, r: &ThermalResistances) -> Self {
        assert!(dies > 0, "a 3D stack needs at least one DRAM die");
        let mut layers = Vec::with_capacity(dies + 1);
        layers.push(DeviceLayer {
            kind: DeviceLayerKind::Buffer,
            name: "base".to_string(),
            tau_s: r.tau_amb_s,
            buffer_share: 1.0,
            dram_share: 0.0,
        });
        for i in 0..dies {
            layers.push(DeviceLayer {
                kind: DeviceLayerKind::Dram,
                name: format!("die{i}"),
                tau_s: r.tau_dram_s,
                buffer_share: 0.0,
                dram_share: 1.0 / dies as f64,
            });
        }
        let depth = dies + 1;
        let mut g_ambient = vec![0.0; depth];
        g_ambient[0] = 1.0 / (2.0 * r.psi_amb);
        g_ambient[depth - 1] = 1.0 / r.psi_dram;
        let g_vertical = vec![1.0 / TSV_INTERFACE_C_PER_W; depth - 1];
        let psi = ladder_psi(&g_ambient, &g_vertical);
        StackTopology::from_matrix(format!("3d-{dies}h"), layers, psi)
    }

    /// Short identifier of the topology ("fbdimm", "rank-pair", "3d-4h").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of layers in the stack.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// The ordered layers, bottom to top.
    pub fn layers(&self) -> &[DeviceLayer] {
        &self.layers
    }

    /// Index of the buffer layer, if the stack has one (DDR4/5 rank pairs
    /// do not).
    pub fn buffer_layer(&self) -> Option<usize> {
        self.buffer_layer
    }

    /// Whether any layer is a buffer die.
    pub fn has_buffer(&self) -> bool {
        self.buffer_layer.is_some()
    }

    /// Ψ coupling of layer `i`'s temperature to layer `j`'s power, °C/W.
    pub fn psi(&self, i: usize, j: usize) -> f64 {
        self.psi[i * self.layers.len() + j]
    }

    /// Row `i` of the Ψ matrix (one coefficient per power-source layer).
    pub fn psi_row(&self, i: usize) -> &[f64] {
        let n = self.layers.len();
        &self.psi[i * n..(i + 1) * n]
    }

    /// Whether the split is the legacy identity (layer 0 = buffer power,
    /// layer 1 = DRAM power) and the fast path preserves bit-identity.
    pub fn is_identity_split(&self) -> bool {
        self.identity_split
    }

    /// Distributes a position's power sources over the layers:
    /// `out[l] = buffer_share[l]·amb_watts + dram_share[l]·dram_watts`.
    /// Shares sum to 1 per source across the stack, so the total power into
    /// the stack equals `amb_watts + dram_watts` (energy conservation).
    ///
    /// Callers are expected to size the scratch once (lane build, scene
    /// construction) rather than per window; the length check is therefore a
    /// debug assertion.
    pub fn split_watts_into(&self, amb_watts: f64, dram_watts: f64, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.layers.len(), "one output slot per layer required");
        if self.identity_split {
            out[0] = amb_watts;
            out[1] = dram_watts;
            return;
        }
        for (w, layer) in out.iter_mut().zip(&self.layers) {
            *w = layer.buffer_share * amb_watts + layer.dram_share * dram_watts;
        }
    }

    /// Ψ-superposed steady-state rise of `layer` over the memory ambient for
    /// the given per-layer watts: `Σ_j watts[j] · Ψ[layer][j]`, accumulated
    /// left to right from zero.
    ///
    /// Every non-identity stable-state computation in the crate (the
    /// per-cell `DimmThermalScene::step`, the RC fixed point, and the
    /// batched tier's cached superposition terms) goes through this helper
    /// so the floating-point operation order — and hence the rounding — is
    /// identical at every site.
    #[inline]
    pub fn psi_superpose(&self, watts: &[f64], layer: usize) -> f64 {
        let mut s = 0.0;
        for (w, psi) in watts.iter().zip(self.psi_row(layer)) {
            s += w * psi;
        }
        s
    }

    /// Allocating convenience over [`StackTopology::split_watts_into`].
    pub fn split_watts(&self, amb_watts: f64, dram_watts: f64) -> Vec<f64> {
        let mut out = vec![0.0; self.layers.len()];
        self.split_watts_into(amb_watts, dram_watts, &mut out);
        out
    }
}

/// Solves a one-dimensional thermal ladder for its Ψ matrix: node `i` has
/// conductance `g_ambient[i]` to the (grounded) memory ambient and
/// conductance `g_vertical[i]` to node `i + 1`. Builds the tridiagonal
/// conductance matrix and inverts it by Gaussian elimination with partial
/// pivoting — `Ψ = G⁻¹`, the exact steady-state superposition solution.
///
/// # Panics
///
/// Panics if the ladder is disconnected from the ambient (singular matrix)
/// or the slice lengths are inconsistent.
fn ladder_psi(g_ambient: &[f64], g_vertical: &[f64]) -> Vec<f64> {
    let n = g_ambient.len();
    assert_eq!(g_vertical.len() + 1, n, "a ladder of n nodes has n-1 vertical links");
    let mut g = vec![0.0; n * n];
    for i in 0..n {
        let mut diag = g_ambient[i];
        if i > 0 {
            diag += g_vertical[i - 1];
            g[i * n + i - 1] = -g_vertical[i - 1];
        }
        if i + 1 < n {
            diag += g_vertical[i];
            g[i * n + i + 1] = -g_vertical[i];
        }
        g[i * n + i] = diag;
    }
    // Augmented [G | I] elimination.
    let mut inv = vec![0.0; n * n];
    for i in 0..n {
        inv[i * n + i] = 1.0;
    }
    for col in 0..n {
        let pivot_row = (col..n)
            .max_by(|&a, &b| g[a * n + col].abs().partial_cmp(&g[b * n + col].abs()).expect("finite conductances"))
            .expect("non-empty ladder");
        assert!(g[pivot_row * n + col].abs() > 1e-15, "thermal ladder is disconnected from the ambient");
        if pivot_row != col {
            for k in 0..n {
                g.swap(col * n + k, pivot_row * n + k);
                inv.swap(col * n + k, pivot_row * n + k);
            }
        }
        let pivot = g[col * n + col];
        for k in 0..n {
            g[col * n + k] /= pivot;
            inv[col * n + k] /= pivot;
        }
        for row in 0..n {
            if row == col {
                continue;
            }
            let factor = g[row * n + col];
            if factor == 0.0 {
                continue;
            }
            for k in 0..n {
                g[row * n + k] -= factor * g[col * n + k];
                inv[row * n + k] -= factor * inv[col * n + k];
            }
        }
    }
    inv
}

/// A named, `Copy`-able selector for the built-in stack topologies — the
/// scenario-axis value carried by sweep configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StackKind {
    /// The paper's AMB + DRAM FBDIMM pair (the default; bit-identical to the
    /// pre-stack scene).
    #[default]
    Fbdimm,
    /// DDR4/5-style double-sided rank pair, no buffer die.
    RankPair,
    /// 3D stack: base buffer die plus `dies` DRAM dies with TSV coupling.
    Stacked3d {
        /// Number of stacked DRAM dies (4-high, 8-high, ...).
        dies: usize,
    },
}

impl StackKind {
    /// The 4-high 3D stack.
    pub fn stacked4() -> Self {
        StackKind::Stacked3d { dies: 4 }
    }

    /// The 8-high 3D stack.
    pub fn stacked8() -> Self {
        StackKind::Stacked3d { dies: 8 }
    }

    /// Builds the concrete topology under a cooling configuration.
    pub fn topology(&self, cooling: &CoolingConfig) -> StackTopology {
        let r = cooling.resistances();
        match self {
            StackKind::Fbdimm => StackTopology::fbdimm(&r),
            StackKind::RankPair => StackTopology::ddr_rank_pair(&r),
            StackKind::Stacked3d { dies } => StackTopology::stacked_3d(*dies, &r),
        }
    }

    /// Short label ("fbdimm", "rank-pair", "3d-4h").
    pub fn label(&self) -> String {
        match self {
            StackKind::Fbdimm => "fbdimm".to_string(),
            StackKind::RankPair => "rank-pair".to_string(),
            StackKind::Stacked3d { dies } => format!("3d-{dies}h"),
        }
    }
}

/// Thermal design points (TDP) and release points (TRP) of the AMB and the
/// DRAM devices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalLimits {
    /// AMB thermal design point in °C.
    pub amb_tdp_c: f64,
    /// DRAM thermal design point in °C.
    pub dram_tdp_c: f64,
    /// AMB thermal release point in °C (DTM-TS re-enables below this).
    pub amb_trp_c: f64,
    /// DRAM thermal release point in °C.
    pub dram_trp_c: f64,
}

impl ThermalLimits {
    /// The FBDIMM limits used in the simulation study (Section 4.3.3):
    /// AMB TDP 110 °C, DRAM TDP 85 °C, release points 1 °C below.
    pub fn paper_fbdimm() -> Self {
        ThermalLimits { amb_tdp_c: 110.0, dram_tdp_c: 85.0, amb_trp_c: 109.0, dram_trp_c: 84.0 }
    }

    /// Returns a copy with a different AMB TRP (Figure 4.2 sweeps this).
    pub fn with_amb_trp(mut self, trp_c: f64) -> Self {
        self.amb_trp_c = trp_c;
        self
    }

    /// Returns a copy with a different DRAM TRP (Figure 4.2 sweeps this).
    pub fn with_dram_trp(mut self, trp_c: f64) -> Self {
        self.dram_trp_c = trp_c;
        self
    }

    /// Returns a copy with a different AMB TDP, shifting the TRP to keep the
    /// same margin (Figure 5.14 sweeps the TDP).
    pub fn with_amb_tdp(mut self, tdp_c: f64) -> Self {
        let margin = self.amb_tdp_c - self.amb_trp_c;
        self.amb_tdp_c = tdp_c;
        self.amb_trp_c = tdp_c - margin;
        self
    }

    /// Returns a copy with a different DRAM TDP, shifting the TRP to keep
    /// the same margin. Bufferless topologies (DDR4/5 rank pairs, 3D
    /// stacks) are DRAM-limited, so this is their equivalent of the Figure
    /// 5.14 AMB-TDP sweep.
    pub fn with_dram_tdp(mut self, tdp_c: f64) -> Self {
        let margin = self.dram_tdp_c - self.dram_trp_c;
        self.dram_tdp_c = tdp_c;
        self.dram_trp_c = tdp_c - margin;
        self
    }

    /// The thermal design point that applies to a stack layer of the given
    /// kind: buffer dies are judged against the AMB limit, DRAM dies and
    /// ranks against the DRAM limit.
    pub fn tdp_for(&self, kind: DeviceLayerKind) -> f64 {
        match kind {
            DeviceLayerKind::Buffer => self.amb_tdp_c,
            DeviceLayerKind::Dram => self.dram_tdp_c,
        }
    }

    /// The thermal release point that applies to a stack layer of the given
    /// kind.
    pub fn trp_for(&self, kind: DeviceLayerKind) -> f64 {
        match kind {
            DeviceLayerKind::Buffer => self.amb_trp_c,
            DeviceLayerKind::Dram => self.dram_trp_c,
        }
    }
}

impl Default for ThermalLimits {
    fn default() -> Self {
        Self::paper_fbdimm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_3_2_columns_are_reproduced_exactly() {
        let aohs15 = CoolingConfig::aohs_1_5().resistances();
        assert!((aohs15.psi_amb - 9.3).abs() < 1e-12);
        assert!((aohs15.psi_dram_amb - 3.4).abs() < 1e-12);
        assert!((aohs15.psi_dram - 4.0).abs() < 1e-12);
        assert!((aohs15.psi_amb_dram - 4.1).abs() < 1e-12);

        let fdhs10 = CoolingConfig::fdhs_1_0().resistances();
        assert!((fdhs10.psi_amb - 8.0).abs() < 1e-12);
        assert!((fdhs10.psi_dram_amb - 4.4).abs() < 1e-12);
        assert!((fdhs10.psi_dram - 4.0).abs() < 1e-12);
        assert!((fdhs10.psi_amb_dram - 5.7).abs() < 1e-12);

        assert_eq!(aohs15.tau_amb_s, 50.0);
        assert_eq!(aohs15.tau_dram_s, 100.0);
    }

    #[test]
    fn faster_air_always_cools_better() {
        for spreader in [HeatSpreader::Aohs, HeatSpreader::Fdhs] {
            let slow = CoolingConfig { spreader, air_velocity_mps: 1.0 }.resistances();
            let fast = CoolingConfig { spreader, air_velocity_mps: 3.0 }.resistances();
            assert!(fast.psi_amb < slow.psi_amb);
            assert!(fast.psi_dram < slow.psi_dram);
        }
    }

    #[test]
    fn interpolation_is_monotone_and_clamped() {
        let mid = CoolingConfig { spreader: HeatSpreader::Aohs, air_velocity_mps: 2.0 }.resistances();
        assert!(mid.psi_amb < 9.3 && mid.psi_amb > 6.6);
        let low = CoolingConfig { spreader: HeatSpreader::Aohs, air_velocity_mps: 0.5 }.resistances();
        assert!((low.psi_amb - 11.2).abs() < 1e-12);
        let high = CoolingConfig { spreader: HeatSpreader::Aohs, air_velocity_mps: 9.0 }.resistances();
        assert!((high.psi_amb - 6.6).abs() < 1e-12);
    }

    #[test]
    fn table_3_3_ambient_temperatures() {
        assert_eq!(CoolingConfig::aohs_1_5().isolated_ambient_c(), 50.0);
        assert_eq!(CoolingConfig::fdhs_1_0().isolated_ambient_c(), 45.0);
        assert_eq!(CoolingConfig::aohs_1_5().integrated_inlet_c(), 45.0);
        assert_eq!(CoolingConfig::fdhs_1_0().integrated_inlet_c(), 40.0);
    }

    #[test]
    fn ambient_params_reflect_model_choice() {
        let cooling = CoolingConfig::aohs_1_5();
        let iso = AmbientParams::isolated(&cooling);
        let int = AmbientParams::integrated(&cooling);
        assert_eq!(iso.psi_cpu_mem_xi, 0.0);
        assert_eq!(int.psi_cpu_mem_xi, 1.5);
        // Isolated ambient never responds to processor activity.
        assert_eq!(iso.stable_ambient_c(4.0), 50.0);
        assert!(int.stable_ambient_c(4.0) > int.stable_ambient_c(0.0));
        assert_eq!(int.with_interaction_degree(2.0).psi_cpu_mem_xi, 2.0);
    }

    #[test]
    fn thermal_limits_default_to_110_and_85() {
        let l = ThermalLimits::paper_fbdimm();
        assert_eq!(l.amb_tdp_c, 110.0);
        assert_eq!(l.dram_tdp_c, 85.0);
        assert_eq!(l.amb_trp_c, 109.0);
        assert_eq!(l.dram_trp_c, 84.0);
        let shifted = l.with_amb_tdp(100.0);
        assert_eq!(shifted.amb_trp_c, 99.0);
        assert_eq!(l.with_amb_trp(108.5).amb_trp_c, 108.5);
        assert_eq!(l.with_dram_trp(83.0).dram_trp_c, 83.0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(CoolingConfig::aohs_1_5().label(), "AOHS_1.5");
        assert_eq!(CoolingConfig::fdhs_1_0().label(), "FDHS_1.0");
    }

    #[test]
    fn fbdimm_topology_carries_table_3_2_verbatim() {
        let r = CoolingConfig::aohs_1_5().resistances();
        let t = StackTopology::fbdimm(&r);
        assert_eq!(t.depth(), 2);
        assert!(t.is_identity_split());
        assert_eq!(t.buffer_layer(), Some(0));
        assert_eq!(t.psi_row(0), &[r.psi_amb, r.psi_dram_amb]);
        assert_eq!(t.psi_row(1), &[r.psi_amb_dram, r.psi_dram]);
        assert_eq!(t.layers()[0].tau_s, r.tau_amb_s);
        assert_eq!(t.layers()[1].tau_s, r.tau_dram_s);
        assert_eq!(t.name(), "fbdimm");
        // Identity split hands the sources through untouched, bit-for-bit.
        let w = t.split_watts(6.5, 2.0);
        assert_eq!(w, vec![6.5, 2.0]);
    }

    #[test]
    fn rank_pair_has_no_buffer_and_spreads_interface_power() {
        let r = CoolingConfig::fdhs_1_0().resistances();
        let t = StackTopology::ddr_rank_pair(&r);
        assert_eq!(t.depth(), 2);
        assert!(!t.has_buffer());
        assert!(t.layers().iter().all(|l| l.kind == DeviceLayerKind::Dram));
        let w = t.split_watts(1.0, 3.0);
        assert!((w[0] - 2.0).abs() < 1e-12 && (w[1] - 2.0).abs() < 1e-12);
        // Symmetric ladder: equal self-coupling, nonzero cross-coupling.
        assert!((t.psi(0, 0) - t.psi(1, 1)).abs() < 1e-12);
        assert!(t.psi(0, 1) > 0.0 && (t.psi(0, 1) - t.psi(1, 0)).abs() < 1e-12);
        assert!(t.psi(0, 1) < t.psi(0, 0), "cross-coupling is weaker than self-heating");
    }

    #[test]
    fn ladder_psi_row_sums_reproduce_the_isolated_rank_resistance() {
        // Two identical ranks powered identically push no heat through the
        // PCB link, so each behaves like an isolated rank: row sums of the
        // Ψ matrix must equal the lateral resistance.
        let r = CoolingConfig::aohs_1_5().resistances();
        let t = StackTopology::ddr_rank_pair(&r);
        for i in 0..2 {
            let sum: f64 = t.psi_row(i).iter().sum();
            assert!((sum - r.psi_dram).abs() < 1e-9, "row {i} sums to {sum}");
        }
    }

    #[test]
    fn stacked_3d_heats_inner_dies_most_under_uniform_power() {
        let r = CoolingConfig::aohs_1_5().resistances();
        let t = StackTopology::stacked_3d(4, &r);
        assert_eq!(t.depth(), 5);
        assert_eq!(t.buffer_layer(), Some(0));
        assert_eq!(t.layers()[1].name, "die0");
        // Uniform per-layer power: steady-state rise of layer i is the Ψ row
        // sum. Heat overwhelmingly exits through the spreader above the top
        // die (the board path under the base is poor), so temperature falls
        // monotonically toward that exit: the inner die buried next to the
        // base is the hottest DRAM die and the spreader-side outer die the
        // coolest — the CoMeT-style stacked-memory gradient.
        let rises: Vec<f64> = (0..t.depth()).map(|i| t.psi_row(i).iter().sum()).collect();
        assert!(rises[1] > rises[2] && rises[2] > rises[3] && rises[3] > rises[4], "die gradient {rises:?}");
        assert!(rises[0] > rises[1], "the powered base die sits above the inner die");
        // DRAM power splits evenly across the dies and conserves energy.
        let w = t.split_watts(6.0, 2.0);
        assert!((w.iter().sum::<f64>() - 8.0).abs() < 1e-12);
        assert_eq!(w[0], 6.0);
        assert!((w[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ladder_inverse_actually_inverts_the_conductance_matrix() {
        // Ψ·G = I for a 4-node ladder with mixed conductances.
        let g_amb = [0.25, 0.0, 0.0, 0.125];
        let g_v = [2.0, 1.5, 3.0];
        let psi = ladder_psi(&g_amb, &g_v);
        let n = 4;
        let mut g = vec![0.0; n * n];
        for i in 0..n {
            let mut diag = g_amb[i];
            if i > 0 {
                diag += g_v[i - 1];
                g[i * n + i - 1] = -g_v[i - 1];
            }
            if i + 1 < n {
                diag += g_v[i];
                g[i * n + i + 1] = -g_v[i];
            }
            g[i * n + i] = diag;
        }
        for i in 0..n {
            for j in 0..n {
                let mut dot = 0.0;
                for k in 0..n {
                    dot += psi[i * n + k] * g[k * n + j];
                }
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-9, "(Ψ·G)[{i}][{j}] = {dot}");
            }
        }
    }

    #[test]
    fn stack_kinds_build_their_topologies() {
        let cooling = CoolingConfig::aohs_1_5();
        assert_eq!(StackKind::default(), StackKind::Fbdimm);
        assert_eq!(StackKind::Fbdimm.topology(&cooling).name(), "fbdimm");
        assert_eq!(StackKind::RankPair.topology(&cooling).name(), "rank-pair");
        assert_eq!(StackKind::stacked4().topology(&cooling).depth(), 5);
        assert_eq!(StackKind::stacked8().topology(&cooling).depth(), 9);
        assert_eq!(StackKind::stacked4().label(), "3d-4h");
        assert_eq!(StackKind::RankPair.label(), "rank-pair");
        assert_eq!(StackKind::Fbdimm.label(), "fbdimm");
    }

    #[test]
    fn per_layer_limits_select_by_kind() {
        let l = ThermalLimits::paper_fbdimm();
        assert_eq!(l.tdp_for(DeviceLayerKind::Buffer), 110.0);
        assert_eq!(l.tdp_for(DeviceLayerKind::Dram), 85.0);
        assert_eq!(l.trp_for(DeviceLayerKind::Buffer), 109.0);
        assert_eq!(l.trp_for(DeviceLayerKind::Dram), 84.0);
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn floating_ladders_are_rejected() {
        let _ = ladder_psi(&[0.0, 0.0], &[1.0]);
    }
}
