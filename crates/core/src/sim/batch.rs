//! Batched execution of many level-2 runs: lockstep lanes, lane-parallel
//! stepping, and analytic fast-forward (steady-state, limit-cycle and
//! envelope).
//!
//! The sweep stack is a five-tier execution ladder. Each tier reproduces
//! the one below it under a stated guarantee — bit-for-bit for the layout
//! tiers, a pinned relative tolerance for the analytic ones:
//!
//! 1. **Per-cell (literal)** — [`SimEngine`](crate::sim::SimEngine)
//!    advances one (mix, policy, cooling) cell at a time; the reference
//!    semantics everything else is measured against.
//! 2. **Batched lockstep** — [`BatchedSimEngine::run`] groups cells into
//!    lanes and steps each lane over a shared matrix; *bit-identical* to
//!    tier 1 (a pure memory-layout transformation).
//! 3. **Lane-parallel** — [`BatchedSimEngine::run_with_workers`] fans the
//!    lanes of tier 2 across OS threads, column-chunking dominant lanes so
//!    every worker has work; still *bit-identical* (lanes are independent
//!    and chunking only reorders independent per-cell operations). The
//!    per-window DTM/accounting pass is column-split: post-step
//!    bookkeeping, decisions, and deferred column removals run as separate
//!    column-disjoint phases, so nothing in the window loop is serial on
//!    lane-global state.
//! 4. **Steady / periodic fast-forward** — on top of any of the above, the
//!    steady-state and periodic (limit-cycle) detectors replay
//!    provably-predictable window spans analytically, keeping every
//!    reported quantity within relative 1e-9 of literal stepping. Window
//!    counts, simulated time and job-completion windows stay *exact*.
//! 5. **Contraction-certified envelope** — orbits that are confined but
//!    not exactly predictable (slipping limit cycles whose duty ratio is
//!    irrational at the paper's 10 ms cadence, sliding-mode threshold
//!    chatter, and long monotone approaches to a distant fixed point) are
//!    replayed under certificates built on the RC map's contraction:
//!    frozen-plan segments licensed by [`DtmPolicy::is_steady_band`] /
//!    [`DtmPolicy::plan_decided_by_region`] over the exact traversed
//!    temperature range collapse to closed form through λ-powered lo/hi
//!    maps of the exact two-exponential row response, and chattering
//!    segments whose decisions cannot be frozen are *replayed decision for
//!    decision* at scalar cost from the policy's pure decision key
//!    ([`DtmPolicy::decision_key`]) with a dominance certificate covering
//!    the non-binding rows. Every reported quantity stays within relative
//!    1e-9 of literal stepping; window counts, simulated time and
//!    completion windows stay *exact*, and a drift audit against the band
//!    falls the cell back to literal stepping the moment confinement
//!    fails. Tolerance and opt-out via
//!    [`BatchOptions::envelope_tolerance`].
//!
//! Opt out of every analytic tier at once with [`BatchOptions::literal`].
//!
//! A design-space sweep runs hundreds of cells whose window loops are
//! completely independent yet structurally identical. The
//! [`BatchedSimEngine`] exploits that: cells whose scenes share a device
//! stack, a step length and an ambient time constant are grouped into
//! **lanes**, and each lane steps all of its cells in lockstep over one
//! shared temperature/peak matrix stored column by column (column = cell,
//! row = `position × depth + layer`, each cell's rows contiguous).
//!
//! # The literal window step
//!
//! A literal window costs one RC sweep plus one DTM/accounting pass per
//! member, and both are built around what stays constant between plan
//! changes:
//!
//! - **Cell-outer RC kernel** (`lane_rc`). The per-layer decay factors
//!   and device kinds are expanded into per-row lane tables when the lane
//!   is built; each window then walks every member's rows in one
//!   contiguous pass. Lanes are narrow in practice (a guided sweep
//!   dispatch hands each engine 1–3 cells), and a row-major sweep across
//!   cells spent most of its time there on per-row loop overhead. Each
//!   row's stable temperature is evaluated by one helper (`row_stable`)
//!   from power terms cached per column, in
//!   exactly the float-op order of `DimmThermalScene::step` — the
//!   identity-split FBDIMM sum `ambient + w_b·ψ_b + w_d·ψ_d`, or `ambient +
//!   sup` from the cached Ψ superposition on non-identity stacks. No
//!   `mul_add`: a fused multiply-add rounds once where the scene rounds
//!   twice, which would break bit-identity with [`SimEngine::run`].
//! - **Per-plan memo** (`PlanEntry`). Everything a plan change rebuilds —
//!   mode, window power, the cached power terms of the lane column, the
//!   throttled-channel mask and the per-window accounting amounts — is
//!   built once per distinct plan by
//!   `build_plan_entry` and kept in a small per-cell memo (bounded by
//!   `PLAN_MEMO_CAP`, overwritten round-robin when full). A plan flip
//!   back to a known plan is a memo hit and a column copy. The envelope
//!   burst takes its plan entries from the memo or the same builder and
//!   hands its active entry back to the memo when it falls back to the
//!   lane.
//!
//! Everything that is *per-cell logic* (DTM decisions, batch progress,
//! energy accounting) is executed cell-by-cell in the same order as
//! [`SimEngine::run`], and every cached value is the very expression the
//! per-cell loop evaluates, so every cell's trajectory is
//! **bit-identical** to a per-cell run. Cells that finish (batch complete
//! or safety stop) drop out of the hot lane by a column swap-remove, which
//! moves no arithmetic and therefore cannot perturb the remaining cells.
//! Policies that declare they read only the scalar device maxima
//! ([`DtmPolicy::observes_field`]) are observed straight from the sweep's
//! running per-cell maxima (`f64::max` over a fixed node set is
//! order-independent, so the bits match a full scene fold) instead of
//! re-synthesizing the per-position field at every DTM interval.
//!
//! # Steady-state fast-forward
//!
//! Long runs spend most of their windows in a fixed point: the actuation
//! plan stops changing and every RC node sits within ε of the temperature
//! it would converge to under the frozen window power. From there the
//! remaining trajectory is closed-form. At each DTM decision the batched
//! engine checks (all opt-in via [`BatchOptions::fast_forward`]):
//!
//! 1. the plan has been unchanged for [`BatchOptions::steady_decisions`]
//!    consecutive decisions,
//! 2. the policy itself guarantees steadiness under a 2ε temperature drift
//!    ([`DtmPolicy::is_steady`]) — stateful controllers (PID) answer
//!    `false` and are never fast-forwarded,
//! 3. the shared ambient node is (bitwise, for isolated scenes) at its own
//!    fixed point, and
//! 4. every layer temperature is within [`BatchOptions::steady_epsilon_c`]
//!    of its RC fixed point ([`DimmThermalScene::fixed_point_into`]).
//!
//! When all four hold, the cell leaves the lane and its remaining windows
//! are replayed analytically: time still advances by the literal repeated
//! float additions (so `running_time_s` and the window **count** are
//! bit-identical to the stepped run), batch completion events are resolved
//! by bulk-retiring whole spans of windows in which no job can finish plus
//! one literal window at each completion boundary (preserving the
//! round-robin refill interleaving exactly), and the final temperatures
//! follow `t_end = t* + (t0 − t*)·(1 − α)^W`. Accumulated quantities
//! (energy, instructions, residency) use `rate × W` instead of `W` repeated
//! additions and therefore agree with the literal run to relative 1e-9
//! rather than bitwise; the golden suite pins both contracts.
//!
//! # Periodic (limit-cycle) fast-forward
//!
//! Threshold-driven policies (DTM-ACG, DTM-CDVFS, DTM-BW) never reach a
//! fixed plan: they relax into a **limit cycle**, alternating between
//! adjacent emergency levels forever. The steady-state detector can't
//! touch those runs, so a second detector handles them. At every DTM
//! decision of an eligible cell (fast-forward on, no temperature trace, a
//! pure memoryless policy, and a step equal to the DTM interval) the
//! engine fingerprints the decision (plan + layer temperatures); when the
//! recent history is periodic with some period `k ≤ 16` and the
//! temperatures recur within ε, it records one full cycle — plans,
//! observations, per-window stable points, powers and retire amounts —
//! and then **verifies** the cycle is a genuine attractor: the recorded
//! temperatures must sit within ε of the cycle's closed-form fixed point
//! (per layer, contraction `a = λᵏ`), and the policy must reproduce every
//! recorded plan from anywhere inside the contraction ball
//! ([`DtmPolicy::is_steady`] against each phase's fixed-point
//! observation). Verified cycles are replayed analytically: whole cycles
//! advance by closed-form temperature decay toward the cycle attractor
//! with `rate × cycles` accounting, job completions are resolved by
//! replaying the completion cycle literally (retire amounts are exact
//! integers, so completions land on identical windows), and time advances
//! by the literal repeated additions — window counts are conserved
//! exactly and every reported quantity stays within 1e-9 of literal
//! stepping. Quasiperiodic orbits (the common case at the paper's 10 ms
//! cadence, where the duty cycle between levels is irrational) fail
//! verification and keep stepping literally — the detector engages only
//! when the replay is provably exact.
//!
//! # Contraction-certified envelope fast-forward
//!
//! The envelope tier picks up the orbits both detectors refuse: confined
//! but never exactly periodic. A cell that failed cycle verification
//! enters a private **burst** loop (decisions and the RC sweep bit-exact
//! per window, lane overhead gone), and inside the burst two analytic
//! mechanisms fire, both derived from the same fact — each RC row relaxes
//! through an exact two-exponential response `t(k) = S + a·λ_l^k +
//! c·λ_amb^k` whose λ-powers are contractions:
//!
//! - **Frozen segment jumps.** While the plan holds still, the closed-form
//!   lo/hi maps of every row's response bound the exact traversed
//!   temperature range, and [`DtmPolicy::is_steady_band`] (single frozen
//!   plan) or [`DtmPolicy::plan_decided_by_region`] (a decision-region
//!   certificate attesting a whole plan *sequence* is invariant over the
//!   traced observation rectangle) licenses collapsing the segment to its
//!   endpoint with `rate × W` accounting. In-segment extremes come from
//!   the closed-form interior extremum of the two-exponential (the two
//!   modes pulling in opposite directions), so reported peaks are exact to
//!   the same tolerance.
//! - **Exact decision replay.** Sliding-mode chatter (DTM-BW hugging its
//!   throttle threshold at 10 ms) flips plans every couple of windows, so
//!   no frozen certificate can hold. For policies whose decisions are a
//!   pure function of the device maxima ([`DtmPolicy::decision_key`] /
//!   [`DtmPolicy::plan_for_key`]), the replayer iterates only the
//!   *binding* (hottest) row per device layer plus the ambient with
//!   bitwise-literal recurrences, re-evaluates the decision key per
//!   virtual window, and proves every other row stays dominated via a
//!   per-entry forcing-gap certificate (convex-combination dominance with
//!   a strict gap, bitwise twins folded into their binding row). Plan
//!   run-length-encoded occupancy counts give closed-form accounting over
//!   the whole replayed span, and dominated rows are closed per plan-run
//!   with the same two-exponential maps — decisions exact, windows and
//!   completion boundaries conserved bit for bit, scalars within 1e-9.
//!
//! A drift audit guards both mechanisms: every commit re-checks the
//! reconstructed rows against the confinement band, and any violation
//! falls the cell back to literal stepping at the next decision boundary
//! with nothing lost — the envelope tier only ever trades wall clock, not
//! soundness.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use cpu_model::{CpuConfig, PaperCpuPower, RunningMode};
use fbdimm_sim::{DimmTraffic, FbdimmConfig};
use workloads::{BatchJob, WorkloadMix};

use crate::dtm::plan::{ActuationPlan, PlanTrafficStats};
use crate::dtm::policy::DtmPolicy;
use crate::power::fbdimm::{FbdimmPowerBreakdown, FbdimmPowerModel};
use crate::sim::characterize::{CharStore, CharacterizationTable, ModeKey};
use crate::sim::energy::EnergyAccumulator;
use crate::sim::engine::{assemble_result, RunTotals, SimEngine, WindowPower};
use crate::sim::memspot::{MemSpotConfig, MemSpotResult, TempSample};
use crate::thermal::params::DeviceLayerKind;
use crate::thermal::rc::ThermalNode;
use crate::thermal::scene::{DimmThermalScene, ThermalObservation};

/// How close the shared ambient node must sit to its own fixed point before
/// a cell may fast-forward. Isolated scenes hold the inlet temperature
/// bitwise, so this is only a gate for integrated (processor-heated)
/// ambients; it is an order of magnitude tighter than the 1e-9 agreement
/// the fast-forward promises so the frozen-ambient approximation cannot
/// consume the error budget.
const AMBIENT_FF_EPS_C: f64 = 1e-10;

/// Once a cell's plan streak reaches the steadiness threshold, the (fairly
/// expensive) fixed-point convergence test runs only every this many further
/// decisions. Engaging the fast-forward a few windows late merely steps a
/// handful of extra literal windows — strictly *more* accurate — while the
/// transient dies out, instead of recomputing the fixed point every window.
const FF_CHECK_PERIOD: u32 = 8;

/// Longest decision-sequence period the limit-cycle detector searches for.
/// The paper's threshold policies oscillate between two adjacent emergency
/// levels (period 2–4 at the DTM cadence); anything longer is almost
/// certainly not a cycle worth the verification cost.
const MAX_CYCLE_DECISIONS: usize = 16;

/// After a failed cycle verification (the recorded windows turned out not
/// to replay), how many further decisions the detector waits before it may
/// start recording again — verification is much more expensive than
/// tracking, so hopeless cells must not re-verify every window. Each
/// further failure doubles the wait (capped by
/// [`CYCLE_BACKOFF_DOUBLINGS`]): quasiperiodic orbits pinned at a threshold
/// recur in ambient and plans at every lag and pass the candidate checks
/// forever, and only the doubling keeps their recording + verification
/// cost amortized to nothing over a long run.
const CYCLE_RETRY_BACKOFF: u32 = 64;

/// Cap on the backoff doublings: the wait saturates at
/// `CYCLE_RETRY_BACKOFF << CYCLE_BACKOFF_DOUBLINGS` (4096) decisions, so a
/// cell whose orbit genuinely locks late is still retried every few
/// thousand windows rather than written off.
const CYCLE_BACKOFF_DOUBLINGS: u32 = 6;

/// Shortest frozen-plan run (in envelope-burst windows) before the burst
/// probes for a closed-form segment jump. Shorter runs are cheaper to step
/// than to license.
const ENV_JUMP_MIN: u64 = 16;

/// Key space of [`DtmPolicy::decision_key`]: the dense pure-decision keys
/// the exact decision replay indexes its key → plan-entry table with.
const REPLAY_KEYS: usize = 16;

/// Frozen-plan run length at which the exact decision replay hands the
/// segment back to the closed-form probe: a run this long is no longer
/// sliding-mode chatter but a monotone approach, which the frozen-plan
/// contraction jump advances in O(1) instead of O(windows). Also bounds
/// every in-replay run length, so the per-layer λ-power tables cover every
/// run the plan-occupancy accounting has to close.
const REPLAY_RUN_EXIT: usize = 256;

/// Dominance margin (°C) of the exact decision replay: every non-binding
/// row must provably stay at least this far below its device's binding
/// (hottest) row over the whole replayed segment, so the binding scalar the
/// replay iterates *is* the device maximum every virtual window. The
/// convex-combination bound the audit uses is exact in real arithmetic;
/// the margin only has to dominate the ~1e-13 °C accumulated rounding of
/// the literal recurrences it stands in for.
const REPLAY_GAP_C: f64 = 1e-9;

/// Floating-point shadowing guard (°C) every contraction certificate keeps
/// between its traced rectangle and the nearest decision boundary. The
/// closed-form segment endpoint differs from literally iterated stepping by
/// rounding (~1e-12 °C), and a jump that lands *on* a boundary hands that
/// perturbation to a decision whose margin is even smaller — on a
/// near-tangential approach a 1e-12 °C shift moves the crossing by hundreds
/// of windows. With the guard, every boundary approach ends in literal
/// windows; the row maps contract (λ < 1), so by the time the trajectory
/// has drifted a guard's width the state has collapsed bit-exactly onto the
/// literal orbit, and crossings land on the same window literal stepping
/// puts them. Contraction is exponential in the window count while the
/// crossing margin is linear, so the guard is sound at every approach rate:
/// fast chatter arms give up ~1 window per jump, slow tangential approaches
/// give up thousands — exactly the windows whose decisions are fragile.
const ENV_FP_GUARD_C: f64 = 1e-7;

/// How many consecutive unchanged decisions arm the frozen-approach
/// envelope trigger: long enough that the steady-state fast-forward has had
/// several engagement checks and keeps refusing (the temperatures are still
/// far from their fixed point), short relative to the tens of thousands of
/// windows a slow thermal transient spans at the paper's 10 ms cadence.
const ENV_FROZEN_STREAK: u32 = 64;

/// Bound on a cell's per-plan memo ([`CellState::plans`]). On the
/// 12-cell stateful-policy benchmark grid (DTM-TS, BW/ACG/CDVFS+PID, CBW
/// and MIG, 10 ms) every cell but MIG's decides 2–5 distinct plans, and
/// 429,660 of its 429,814 plan changes are memo hits; MIG's steering plans
/// (47 and 72 distinct per cell) never recur. Once the memo is full a new
/// plan overwrites the slots round-robin, so a cell like MIG's costs one
/// entry build per plan change — what every plan change cost without the
/// memo.
const PLAN_MEMO_CAP: usize = 16;

/// Tuning knobs of the batched execution tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchOptions {
    /// Enables steady-state fast-forward. When `false` the batched engine
    /// is purely a memory-layout transformation and every result is
    /// bit-identical to [`SimEngine::run`].
    pub fast_forward: bool,
    /// Convergence radius ε: every layer must be within this many degrees
    /// of its RC fixed point before a cell may fast-forward. Policies are
    /// consulted with a `2ε` drift bound.
    pub steady_epsilon_c: f64,
    /// Number of consecutive DTM decisions that must return an unchanged
    /// plan before a cell is considered for fast-forward.
    pub steady_decisions: u32,
    /// Envelope fast-forward tolerance ε_env: the widest per-layer
    /// temperature band (in degrees) a slipping orbit may span and still be
    /// taken over by the envelope replayer. `0.0` (or any non-positive
    /// value) disables the envelope tier entirely; it is also disabled by
    /// [`BatchOptions::literal`] and anywhere the limit-cycle detector is
    /// ineligible (traced cells, impure policies, `step ≠ dtm_interval`).
    pub envelope_tolerance: f64,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions { fast_forward: true, steady_epsilon_c: 0.05, steady_decisions: 3, envelope_tolerance: 0.05 }
    }
}

impl BatchOptions {
    /// Literal batched execution: lockstep lanes, no fast-forward (steady,
    /// periodic or envelope). Every cell's result carries identical bits to
    /// a per-cell run.
    pub fn literal() -> Self {
        BatchOptions { fast_forward: false, envelope_tolerance: 0.0, ..Default::default() }
    }
}

/// Per-cell execution counters returned alongside each [`MemSpotResult`].
/// Kept outside the result so golden suites can keep comparing results with
/// `==` while still asserting how each cell was executed.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellRunStats {
    /// Windows executed literally (stepped through the lane RC loop).
    pub stepped_windows: u64,
    /// Windows replayed analytically by a fast-forward (steady-state,
    /// periodic or envelope), counted toward the same conservation identity
    /// as stepped windows: `stepped + fast_forwarded` equals the literal
    /// window count.
    pub fast_forwarded_windows: u64,
    /// Whole limit cycles replayed by the periodic fast-forward. The
    /// windows inside them are already counted in `fast_forwarded_windows`;
    /// this only records that the cell left via the cycle detector (zero
    /// for steady-state fast-forwards).
    pub periodic_cycles: u64,
    /// Pseudo-cycles replayed by the envelope tier: closed-form segment
    /// jumps plus (for slipping orbits) the replayed windows divided by the
    /// orbit's detected period. Zero whenever the envelope never engaged.
    pub envelope_cycles: u64,
    /// Envelope bursts abandoned by the drift audit: the trajectory left
    /// its certified band and the cell fell back to literal lane stepping
    /// (with the replayed windows kept — they were themselves literal).
    pub envelope_fallbacks: u64,
    /// Estimated wall-clock nanoseconds spent in the cycle/envelope
    /// detectors (sampled 1-in-64 and extrapolated; excluded from `==`).
    pub detector_ns: u64,
    /// Wall-clock nanoseconds spent verifying candidate cycles and building
    /// envelope certificates (excluded from `==`).
    pub verify_ns: u64,
    /// Wall-clock nanoseconds spent inside analytic replays (steady,
    /// periodic and envelope fast-forwards; excluded from `==`).
    pub replay_ns: u64,
}

/// Equality deliberately ignores the wall-clock phase counters: golden
/// suites compare stats across runs whose timings can never match.
impl PartialEq for CellRunStats {
    fn eq(&self, other: &Self) -> bool {
        self.stepped_windows == other.stepped_windows
            && self.fast_forwarded_windows == other.fast_forwarded_windows
            && self.periodic_cycles == other.periodic_cycles
            && self.envelope_cycles == other.envelope_cycles
            && self.envelope_fallbacks == other.envelope_fallbacks
    }
}

impl Eq for CellRunStats {}

/// One sweep cell: a run configuration, a workload mix, a policy and the
/// mix's level-1 characterization table.
#[derive(Debug)]
pub struct BatchCell {
    /// The run configuration (cooling, stack, cadences, …).
    pub config: MemSpotConfig,
    /// The workload mix to run.
    pub mix: WorkloadMix,
    /// The DTM policy deciding each interval.
    pub policy: Box<dyn DtmPolicy>,
    /// Level-1 characterization table for `mix` (backed by a shared
    /// [`CharStore`] when built via [`BatchCell::new`]).
    pub table: CharacterizationTable,
}

impl BatchCell {
    /// Builds a cell whose characterization table shares `store`, so level-1
    /// results are computed once per distinct (mix, mode, budget, geometry)
    /// across the whole batch.
    pub fn new(
        cpu: &CpuConfig,
        mem: &FbdimmConfig,
        config: MemSpotConfig,
        mix: WorkloadMix,
        policy: Box<dyn DtmPolicy>,
        store: Arc<CharStore>,
    ) -> Self {
        let table = CharacterizationTable::with_store(
            cpu.clone(),
            *mem,
            mix.id.clone(),
            mix.apps.clone(),
            config.characterization_budget,
            store,
        );
        BatchCell { config, mix, policy, table }
    }

    /// Caps the level-1 rotation-averaging thread count (sweep engines pass
    /// 1 so cell-level parallelism composes deterministically).
    pub fn with_rotation_threads(mut self, threads: usize) -> Self {
        self.table = self.table.with_rotation_threads(threads);
        self
    }
}

/// The batched lockstep simulation engine. See the module docs for the
/// execution model and its bit-identity contract.
#[derive(Debug)]
pub struct BatchedSimEngine<'a> {
    cpu: &'a CpuConfig,
    mem: &'a FbdimmConfig,
    power: &'a FbdimmPowerModel,
    cpu_power: &'a PaperCpuPower,
}

impl<'a> BatchedSimEngine<'a> {
    /// Borrows the hardware models shared by every cell of the batch.
    pub fn new(
        cpu: &'a CpuConfig,
        mem: &'a FbdimmConfig,
        power: &'a FbdimmPowerModel,
        cpu_power: &'a PaperCpuPower,
    ) -> Self {
        BatchedSimEngine { cpu, mem, power, cpu_power }
    }

    /// Runs every cell to completion on the calling thread and returns one
    /// `(result, stats)` pair per cell, in input order. With
    /// [`BatchOptions::literal`] each result is bit-identical to
    /// [`SimEngine::run`] on the same cell.
    ///
    /// # Panics
    ///
    /// Panics if any cell's configuration fails [`MemSpotConfig::validate`].
    pub fn run(&self, cells: Vec<BatchCell>, options: &BatchOptions) -> Vec<(MemSpotResult, CellRunStats)> {
        self.run_with_workers(cells, options, 1)
    }

    /// Like [`BatchedSimEngine::run`], but fans the lanes across up to
    /// `workers` OS threads. Lanes are independent by construction (cells
    /// never interact), so lane-parallel execution is **bit-identical** to
    /// the single-threaded run: each cell's trajectory depends only on its
    /// own column, never on which lane hosts it or which thread steps it.
    /// When the batch degenerates to fewer lanes than workers, the largest
    /// lanes are split column-wise into chunks until every worker has a
    /// lane to step (splitting a lane changes only the interleaving of
    /// per-cell operations, not any cell's operation sequence).
    ///
    /// # Panics
    ///
    /// Panics if any cell's configuration fails [`MemSpotConfig::validate`].
    pub fn run_with_workers(
        &self,
        cells: Vec<BatchCell>,
        options: &BatchOptions,
        workers: usize,
    ) -> Vec<(MemSpotResult, CellRunStats)> {
        let workers = workers.max(1);
        let configs: Vec<MemSpotConfig> = cells.iter().map(|c| c.config).collect();
        let engines: Vec<SimEngine<'_>> = configs
            .iter()
            .map(|config| SimEngine::new(self.cpu, self.mem, self.power, self.cpu_power, config))
            .collect();
        let states: Vec<CellState> =
            cells.into_iter().zip(engines.iter()).map(|(cell, engine)| CellState::new(cell, engine, options)).collect();
        let total = states.len();
        let mut groups = lane_groups(&states);
        if workers > 1 {
            split_groups(&mut groups, workers, total);
        }
        let mut works = lane_works(states, groups);
        if workers <= 1 || works.len() <= 1 {
            for work in &mut works {
                run_lane_work(work, &engines, options);
            }
        } else {
            // The parallel_map idiom from the sweep runner: an atomic cursor
            // over the lane list, each worker claiming whole lanes and
            // stepping them to completion. Every lane index is claimed by
            // exactly one worker, so the per-lane mutexes are uncontended —
            // they only move ownership into and back out of the pool.
            let tasks: Vec<std::sync::Mutex<LaneWork>> = works.into_iter().map(std::sync::Mutex::new).collect();
            let cursor = std::sync::atomic::AtomicUsize::new(0);
            let engines_ref = &engines;
            std::thread::scope(|scope| {
                for _ in 0..workers.min(tasks.len()) {
                    scope.spawn(|| loop {
                        let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= tasks.len() {
                            break;
                        }
                        let mut work = tasks[i].lock().expect("lane worker panicked");
                        run_lane_work(&mut work, engines_ref, options);
                    });
                }
            });
            works = tasks.into_iter().map(|m| m.into_inner().expect("lane worker panicked")).collect();
        }
        let mut results: Vec<Option<(MemSpotResult, CellRunStats)>> = (0..total).map(|_| None).collect();
        for work in works {
            for (local, result) in work.results.into_iter().enumerate() {
                results[work.globals[local]] = result;
            }
        }
        results.into_iter().map(|r| r.expect("every cell finalizes exactly once")).collect()
    }
}

/// One unit of lane-parallel work: a lane, the states of its member cells
/// (locally indexed `0..n`), their result slots, and the mapping back to
/// the batch's global cell order.
#[derive(Debug)]
struct LaneWork {
    /// `globals[local]` is the batch-order index of local cell `local`
    /// (used to pick its engine and to scatter its result).
    globals: Vec<usize>,
    lane: Lane,
    states: Vec<CellState>,
    results: Vec<Option<(MemSpotResult, CellRunStats)>>,
}

/// Steps one lane to completion (the whole single-lane execution loop).
fn run_lane_work(work: &mut LaneWork, engines: &[SimEngine<'_>], options: &BatchOptions) {
    let LaneWork { globals, lane, states, results } = work;
    lane_pre(lane, globals, engines, states, options, results);
    while !lane.members.is_empty() {
        lane_rc(lane);
        lane_post_pre(lane, globals, engines, states, options, results);
    }
}

/// The full mutable state of one in-flight cell — a field-for-field mirror
/// of the locals of [`SimEngine::run`], plus the batched-tier bookkeeping
/// (plan streak, execution stats, scratch buffers).
#[derive(Debug)]
struct CellState {
    mix: WorkloadMix,
    policy: Box<dyn DtmPolicy>,
    table: CharacterizationTable,
    batch: BatchJob,
    scene: DimmThermalScene,
    energy: EnergyAccumulator,
    full_shares: Vec<f64>,
    idle: Vec<FbdimmPowerBreakdown>,
    observation: ThermalObservation,
    /// Planned-traffic scratch of [`build_plan_entry`].
    plan_traffic: Vec<DimmTraffic>,
    step_s: f64,
    time_s: f64,
    next_dtm_s: f64,
    next_trace_s: f64,
    /// The per-plan memo (at most [`PLAN_MEMO_CAP`] entries); `plans[cur]`
    /// is the active plan with everything derived from it.
    plans: Vec<PlanEntry>,
    cur: usize,
    /// The slot the next build overwrites once the memo is full.
    memo_next: usize,
    /// Whether the current window pays the DTM switch overhead (its
    /// decision changed the plan).
    overheaded: bool,
    total_instructions: f64,
    total_bytes: f64,
    total_misses: f64,
    migrated_bytes: f64,
    max_amb: f64,
    max_dram: f64,
    ambient_sum: f64,
    ambient_samples: u64,
    residency: BTreeMap<ModeKey, f64>,
    trace: Vec<TempSample>,
    channel_throttle_s: Vec<f64>,
    plan_streak: u32,
    ff_allowed: bool,
    /// Whether the policy reads the observation's spatial field
    /// ([`DtmPolicy::observes_field`]); scalar policies get a cheap
    /// maxima-only observation straight from the lane's RC sweep.
    wants_field: bool,
    stats: CellRunStats,
    /// Whether the limit-cycle detector runs for this cell: fast-forward
    /// allowed, a pure-memoryless policy ([`DtmPolicy::decide_is_pure`])
    /// and a step that equals the DTM interval bitwise (so every window is
    /// exactly one decision and the replayed decision cadence is
    /// structurally identical to the stepped run).
    cycle_enabled: bool,
    cycle: CycleTracker,
    /// Whether the envelope fast-forward may engage for this cell: the
    /// limit-cycle eligibility conditions plus a positive
    /// [`BatchOptions::envelope_tolerance`].
    env_enabled: bool,
    /// Engage the envelope burst at the next DTM decision (set by the
    /// frozen-approach trigger, which fires mid-decision where the burst
    /// cannot start cleanly).
    env_pending: bool,
    /// Decisions left before the envelope may engage again after a band
    /// violation pushed the cell back to literal stepping.
    env_backoff: u32,
    /// Envelope fallbacks so far (saturating) — sets the next backoff's
    /// doubling exponent.
    env_fails: u32,
    /// Fixed-point scratch for the fast-forward engagement check.
    fp: Vec<f64>,
}

impl CellState {
    fn new(cell: BatchCell, engine: &SimEngine<'_>, options: &BatchOptions) -> Self {
        let BatchCell { config, mix, mut policy, mut table } = cell;
        let batch = BatchJob::new(mix.clone(), config.copies_per_app, engine.cpu.cores, config.instruction_scale);
        let scene = engine.make_scene();
        let full_mode = RunningMode::full_speed(engine.cpu);
        let full_shares = table.point(&full_mode).core_share.clone();
        let idle = engine.idle_powers();
        let observation = scene.observe();
        let (max_amb, max_dram) = scene.max_temps_c();
        policy.reset();
        let cycle_enabled = options.fast_forward
            && !config.record_temp_trace
            && policy.decide_is_pure()
            && !policy.observes_field()
            && config.window_s.min(config.dtm_interval_s).to_bits() == config.dtm_interval_s.to_bits();
        let mut st = CellState {
            batch,
            energy: EnergyAccumulator::new(),
            full_shares,
            idle,
            observation,
            plan_traffic: Vec::new(),
            step_s: config.window_s.min(config.dtm_interval_s),
            time_s: 0.0,
            next_dtm_s: 0.0,
            next_trace_s: 0.0,
            plans: Vec::new(),
            cur: 0,
            memo_next: 0,
            overheaded: false,
            total_instructions: 0.0,
            total_bytes: 0.0,
            total_misses: 0.0,
            migrated_bytes: 0.0,
            max_amb,
            max_dram,
            ambient_sum: 0.0,
            ambient_samples: 0,
            residency: BTreeMap::new(),
            trace: Vec::new(),
            channel_throttle_s: vec![0.0; engine.mem.logical_channels],
            plan_streak: 0,
            ff_allowed: options.fast_forward && !config.record_temp_trace,
            wants_field: policy.observes_field(),
            stats: CellRunStats::default(),
            cycle_enabled,
            cycle: CycleTracker::default(),
            env_enabled: cycle_enabled && options.envelope_tolerance > 0.0,
            env_pending: false,
            env_backoff: 0,
            env_fails: 0,
            fp: Vec::new(),
            mix,
            policy,
            table,
            scene,
        };
        st.switch_plan(engine, ActuationPlan::global(full_mode));
        st
    }

    /// The active plan's memo entry.
    fn entry(&self) -> &PlanEntry {
        &self.plans[self.cur]
    }

    /// Makes `plan` the active plan: a memo hit just re-points
    /// [`CellState::cur`]; a miss builds the entry through
    /// [`build_plan_entry`] (the one builder every tier shares) and adopts
    /// it.
    fn switch_plan(&mut self, engine: &SimEngine<'_>, plan: ActuationPlan) {
        if let Some(i) = self.plans.iter().position(|e| e.plan == plan) {
            self.cur = i;
            return;
        }
        let entry = build_plan_entry(self, engine, plan);
        self.adopt(entry);
    }

    /// Makes an already built entry the active plan: re-points to the
    /// memo's copy when it holds the plan, otherwise stores `entry`,
    /// overwriting the memo round-robin once it holds [`PLAN_MEMO_CAP`]
    /// entries.
    fn adopt(&mut self, entry: PlanEntry) {
        if let Some(i) = self.plans.iter().position(|e| e.plan == entry.plan) {
            self.cur = i;
        } else if self.plans.len() < PLAN_MEMO_CAP {
            self.cur = self.plans.len();
            self.plans.push(entry);
        } else {
            self.cur = self.memo_next;
            self.memo_next = (self.memo_next + 1) % PLAN_MEMO_CAP;
            self.plans[self.cur] = entry;
        }
    }
}

/// One lockstep lane: the cells whose scenes share a device stack, a step
/// length and an ambient time constant, plus the shared temperature/peak
/// matrix they step over. Member position `c` owns matrix column `c` — the
/// contiguous rows `c·rows .. (c+1)·rows` of every per-row matrix; removing
/// a member swap-removes its column (a pure copy, so the surviving cells'
/// bits are untouched).
#[derive(Debug)]
struct Lane {
    members: Vec<usize>,
    rows: usize,
    depth: usize,
    /// Per-row matrices, one contiguous `rows`-long column per member.
    temps: Vec<f64>,
    peaks: Vec<f64>,
    /// Each member's cached per-row power terms ([`PlanEntry::stab_a`] /
    /// [`PlanEntry::stab_b`] of its active plan), copied in on plan change;
    /// the RC kernel's stable temperature is
    /// [`row_stable`]`(amb, term_a, term_b)`.
    term_a: Vec<f64>,
    term_b: Vec<f64>,
    /// Per-window scratch: each member's post-step ambient.
    amb: Vec<f64>,
    /// Whether the stack routes buffer watts to layer 0 and DRAM watts to
    /// layer 1 verbatim (the 2-layer FBDIMM case; see [`row_stable`]).
    identity_split: bool,
    /// Per-window scratch: each member's hottest buffer / DRAM
    /// temperature, accumulated inside the RC kernel.
    max_buffer: Vec<f64>,
    max_dram: Vec<f64>,
    /// Whether the lane's shared stack has a buffer die (`false` ⇒ the
    /// observation reports `NaN` for the buffer maximum).
    has_buffer: bool,
    ambient_alpha: f64,
    layer_alphas: Vec<f64>,
    /// The per-layer decay factor and device kind expanded to one entry per
    /// row of a column, so the RC kernel walks a column in one flat pass.
    row_alphas: Vec<f64>,
    row_is_buffer: Vec<bool>,
}

impl Lane {
    /// Member `j`'s slice of every per-row matrix.
    fn col(&self, j: usize) -> std::ops::Range<usize> {
        j * self.rows..(j + 1) * self.rows
    }

    /// Removes member `j`, moving the last member's column into slot `j`.
    /// The column-split pass defers removals until after every survivor's
    /// pre-step, so the moved column carries the state the next RC sweep
    /// reads: temperatures, peaks, power terms and the fresh post-step
    /// ambient. The per-member maxima are rewritten by that sweep before
    /// anything reads them again and need no move.
    fn remove(&mut self, j: usize) {
        let last = self.members.len() - 1;
        if j != last {
            let (from, to) = (self.col(last), j * self.rows);
            for m in [&mut self.temps, &mut self.peaks, &mut self.term_a, &mut self.term_b] {
                m.copy_within(from.clone(), to);
            }
            self.amb[j] = self.amb[last];
        }
        self.members.swap_remove(j);
    }

    /// Points member `j`'s power-term column at plan entry `e` (after a plan
    /// change).
    fn write_power_column(&mut self, j: usize, e: &PlanEntry) {
        let col = self.col(j);
        self.term_a[col.clone()].copy_from_slice(&e.stab_a);
        self.term_b[col].copy_from_slice(&e.stab_b);
    }

    /// The stable (fixed-point target) temperature the next RC sweep uses
    /// for member `j`, row `r` — the kernel's own [`row_stable`] call on the
    /// same cached terms, so a recorded cycle window replays the very bits
    /// the lane would have stepped.
    fn stable_for(&self, j: usize, r: usize) -> f64 {
        let i = j * self.rows + r;
        row_stable(self.amb[j], self.term_a[i], self.term_b[i], self.identity_split)
    }
}

/// The RC stable temperature of one row: the post-step ambient plus the
/// row's cached power terms, in the float-op order of
/// `DimmThermalScene::step`. Identity-split (FBDIMM) stacks accumulate
/// ambient-first, `(ambient + w_b·ψ_b) + w_d·ψ_d` with `a = w_b·ψ_b` and
/// `b = w_d·ψ_d`; other stacks add the Ψ superposition `a` last and carry
/// no `b`. Every tier that evaluates a row's stable temperature — the lane
/// kernel, cycle recording and the envelope burst — goes through here.
/// Always inlined: `envelope_burst` is large enough that the optimizer
/// otherwise keeps this as a call inside its per-window replay loop, which
/// measured ~6% slower on the fast-forwarded benchmark grid (2-vCPU
/// x86-64 host).
#[inline(always)]
fn row_stable(amb: f64, a: f64, b: f64, identity_split: bool) -> f64 {
    if identity_split {
        amb + a + b
    } else {
        amb + a
    }
}

/// Groups cell indices into lockstep-compatible lanes: cells share a lane
/// iff their scenes share a device stack, a step length (bitwise) and an
/// ambient time constant (bitwise).
fn lane_groups(states: &[CellState]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, st) in states.iter().enumerate() {
        let step_bits = st.step_s.to_bits();
        let tau_bits = st.scene.ambient_params().tau_cpu_dram_s.to_bits();
        let found = groups.iter_mut().find(|g| {
            let rep = &states[g[0]];
            rep.step_s.to_bits() == step_bits
                && rep.scene.ambient_params().tau_cpu_dram_s.to_bits() == tau_bits
                && rep.scene.topology() == st.scene.topology()
        });
        match found {
            Some(g) => g.push(i),
            None => groups.push(vec![i]),
        }
    }
    groups
}

/// Splits the largest groups column-wise until there is one group per
/// worker (or no group can be split further) so a degenerate grid — e.g. a
/// homogeneous sweep that collapses into one dominant lane — still keeps
/// every worker busy. Splitting only changes which lane hosts a cell,
/// never the cell's own operation sequence, so results stay bit-identical.
fn split_groups(groups: &mut Vec<Vec<usize>>, workers: usize, total_cells: usize) {
    while groups.len() < workers.min(total_cells) {
        let Some((idx, len)) =
            groups.iter().enumerate().filter(|(_, g)| g.len() >= 2).map(|(i, g)| (i, g.len())).max_by_key(|&(_, l)| l)
        else {
            break;
        };
        let tail = groups[idx].split_off(len / 2);
        groups.insert(idx + 1, tail);
    }
}

/// Packages each group into an independently steppable [`LaneWork`]: the
/// group's states move out of the batch-order vector, the lane is built
/// over the local order, and `globals` remembers the way back.
fn lane_works(states: Vec<CellState>, groups: Vec<Vec<usize>>) -> Vec<LaneWork> {
    let mut slots: Vec<Option<CellState>> = states.into_iter().map(Some).collect();
    groups
        .into_iter()
        .map(|globals| {
            let states: Vec<CellState> =
                globals.iter().map(|&g| slots[g].take().expect("each cell belongs to exactly one lane")).collect();
            let members: Vec<usize> = (0..states.len()).collect();
            let lane = build_lane(&states, members);
            let results = states.iter().map(|_| None).collect();
            LaneWork { globals, lane, states, results }
        })
        .collect()
}

/// Builds one lane over `members` (indices into `states`) and seeds its
/// matrices from the cells' freshly built scenes and active plan entries.
fn build_lane(states: &[CellState], members: Vec<usize>) -> Lane {
    let rep = &states[members[0]];
    let depth = rep.scene.depth();
    let rows = rep.scene.len() * depth;
    let width = members.len();
    let step_s = rep.step_s;
    let topology = rep.scene.topology();
    let layer_alphas: Vec<f64> = topology.layers().iter().map(|l| ThermalNode::decay_alpha(l.tau_s, step_s)).collect();
    let row_alphas: Vec<f64> = (0..rows).map(|r| layer_alphas[r % depth]).collect();
    let row_is_buffer: Vec<bool> =
        (0..rows).map(|r| topology.layers()[r % depth].kind == DeviceLayerKind::Buffer).collect();
    let mut temps = Vec::with_capacity(rows * width);
    let mut peaks = Vec::with_capacity(rows * width);
    let mut term_a = Vec::with_capacity(rows * width);
    let mut term_b = Vec::with_capacity(rows * width);
    // Seed the per-member maxima from the initial field so a first-window
    // scalar observation (before any lane sweep has refreshed the
    // accumulators) sees the same maxima a fresh `observe` would.
    let mut max_buffer = vec![f64::NEG_INFINITY; width];
    let mut max_dram = vec![f64::NEG_INFINITY; width];
    for (c, &cell) in members.iter().enumerate() {
        let st = &states[cell];
        temps.extend_from_slice(st.scene.layer_temps_flat());
        peaks.extend_from_slice(st.scene.layer_peaks_flat());
        term_a.extend_from_slice(&st.entry().stab_a);
        term_b.extend_from_slice(&st.entry().stab_b);
        for (&t, &buffer) in st.scene.layer_temps_flat().iter().zip(&row_is_buffer) {
            let m = if buffer { &mut max_buffer[c] } else { &mut max_dram[c] };
            *m = m.max(t);
        }
    }
    Lane {
        rows,
        depth,
        temps,
        peaks,
        term_a,
        term_b,
        amb: vec![0.0; width],
        identity_split: topology.is_identity_split(),
        max_buffer,
        max_dram,
        has_buffer: topology.has_buffer(),
        ambient_alpha: ThermalNode::decay_alpha(rep.scene.ambient_params().tau_cpu_dram_s, step_s),
        layer_alphas,
        row_alphas,
        row_is_buffer,
        members,
    }
}

/// The per-cell pre-step for lane member `j`: loop condition (finalizing a
/// finished cell), DTM decision (+ fast-forward engagement), batch
/// progress, and the cell's ambient step (the first thing
/// [`DimmThermalScene::step`] does) — each operation in exactly the order
/// of [`SimEngine::run`]. Returns `true` if the member stayed in the lane,
/// `false` if it departed (finalized or fast-forwarded out). The caller
/// defers the column removal to the end of the pass, which is what makes
/// every operation in here column-disjoint (`write_power_column`,
/// `amb[j]`, the maxima reads all touch only column `j`).
///
/// A plan change costs a memo lookup ([`CellState::switch_plan`]) and a
/// power-term column copy, and the window's accounting amounts come
/// precomputed from the active [`PlanEntry`] — each the very expression
/// the per-cell loop evaluates, so the bits are unchanged.
fn member_pre(
    lane: &mut Lane,
    j: usize,
    globals: &[usize],
    engines: &[SimEngine<'_>],
    states: &mut [CellState],
    options: &BatchOptions,
    results: &mut [Option<(MemSpotResult, CellRunStats)>],
) -> bool {
    let cell = lane.members[j];
    let engine = &engines[globals[cell]];
    let cfg = engine.config;
    let st = &mut states[cell];
    {
        if st.batch.is_complete() || st.time_s >= cfg.max_sim_time_s {
            st.scene.set_layer_temps(&lane.temps[lane.col(j)]);
            st.scene.set_layer_peaks(&lane.peaks[lane.col(j)]);
            results[cell] = Some(finalize(st, engine));
            return false;
        }
        st.overheaded = false;
        if st.time_s + 1e-12 >= st.next_dtm_s {
            st.env_backoff = st.env_backoff.saturating_sub(1);
            // A completed cycle recording is verified *before* this
            // decision: on success the cell leaves the lane without
            // deciding (the jump replays the recorded decisions, which a
            // pure policy is guaranteed to reproduce), on failure the
            // detector backs off before recording again — and the envelope
            // tier gets its slipping-orbit shot: the cycle failed to close
            // exactly, but a confined orbit can still be replayed under a
            // band certificate.
            if st.cycle_enabled && st.cycle.recording.as_ref().is_some_and(|r| r.windows.len() == r.period) {
                let vt = std::time::Instant::now();
                let verdict = cycle_verify(lane, j, st, options);
                st.stats.verify_ns += vt.elapsed().as_nanos() as u64;
                match verdict {
                    Some(jump) => {
                        results[cell] = Some(fast_forward_periodic(lane, j, st, engine, jump));
                        return false;
                    }
                    None => {
                        let period = st.cycle.recording.as_ref().map_or(0, |r| r.period);
                        st.cycle.recording = None;
                        st.cycle.backoff = CYCLE_RETRY_BACKOFF << st.cycle.fails.min(CYCLE_BACKOFF_DOUBLINGS);
                        st.cycle.fails = st.cycle.fails.saturating_add(1);
                        if st.env_enabled && st.env_backoff == 0 {
                            let bt = std::time::Instant::now();
                            let band = env_band_slipping(lane, j, st, options, period);
                            st.stats.verify_ns += bt.elapsed().as_nanos() as u64;
                            if let Some(band) = band {
                                return match envelope_burst(lane, j, st, engine, band) {
                                    Some(result) => {
                                        results[cell] = Some(result);
                                        false
                                    }
                                    // A band violation already ran this
                                    // window's pre-step inside the burst.
                                    None => true,
                                };
                            }
                        }
                    }
                }
            }
            // Frozen-approach envelope engagement, armed by the previous
            // decision's trigger (which fires mid-decision, too late to
            // start a burst cleanly, so it waits one window).
            if st.env_pending {
                st.env_pending = false;
                if st.env_enabled && st.env_backoff == 0 {
                    let bt = std::time::Instant::now();
                    let band = env_band_frozen(lane, j, st);
                    st.stats.verify_ns += bt.elapsed().as_nanos() as u64;
                    if let Some(band) = band {
                        return match envelope_burst(lane, j, st, engine, band) {
                            Some(result) => {
                                results[cell] = Some(result);
                                false
                            }
                            None => true,
                        };
                    }
                }
            }
            if st.wants_field {
                st.scene.observe_lane_into(&lane.temps[lane.col(j)], &mut st.observation);
            } else {
                // Scalar policies read only the device maxima and the
                // ambient; the maxima are exactly the lane sweep's running
                // accumulators for this member (`f64::max` over the same
                // node set), so the full per-position field synthesis is
                // skipped. Spatial fields of the observation go stale and
                // must not be read (`DtmPolicy::observes_field`).
                st.observation.max_amb_c = if lane.has_buffer { lane.max_buffer[j] } else { f64::NAN };
                st.observation.max_dram_c = lane.max_dram[j];
                st.observation.ambient_c = st.scene.ambient_c();
            }
            let new_plan = st.policy.decide(&st.observation, cfg.dtm_interval_s);
            let plan_changed = new_plan != st.entry().plan;
            if plan_changed {
                st.plan_streak = 0;
                st.overheaded = true;
                st.switch_plan(engine, new_plan);
                lane.write_power_column(j, st.entry());
            } else {
                st.plan_streak = st.plan_streak.saturating_add(1);
                if st.ff_allowed
                    && st.plan_streak >= options.steady_decisions
                    && (st.plan_streak - options.steady_decisions).is_multiple_of(FF_CHECK_PERIOD)
                    && ff_engages(lane, j, st, options)
                {
                    results[cell] = Some(fast_forward(lane, j, st, engine));
                    return false;
                }
                // Frozen-approach envelope trigger: the plan has been
                // frozen far longer than the steady-state engagement needs,
                // yet the fast-forward keeps refusing — the temperatures
                // are still sliding toward a distant fixed point. Arm the
                // envelope burst for the next decision.
                if st.env_enabled && !st.env_pending && st.env_backoff == 0 && st.plan_streak >= ENV_FROZEN_STREAK {
                    st.env_pending = true;
                }
            }
            if st.cycle_enabled {
                // The tracker's cost is sampled 1-in-64 and extrapolated: a
                // per-window clock read would cost more than the tracking.
                if st.stats.stepped_windows.is_multiple_of(64) {
                    let dt0 = std::time::Instant::now();
                    cycle_track(lane, j, st, plan_changed, options);
                    st.stats.detector_ns += 64 * dt0.elapsed().as_nanos() as u64;
                } else {
                    cycle_track(lane, j, st, plan_changed, options);
                }
            }
            st.next_dtm_s += cfg.dtm_interval_s;
        }
        let e = &st.plans[st.cur];
        if e.progressing {
            let (instr, bytes, misses, migrated, retires) = e.amounts(st.overheaded);
            st.total_instructions += instr;
            st.total_bytes += bytes;
            st.total_misses += misses;
            st.migrated_bytes += migrated;
            for (core, &amount) in retires.iter().enumerate() {
                if amount > 0 {
                    st.batch.retire(core, amount);
                }
            }
        }
        lane.amb[j] = st.scene.step_ambient(e.window.v_ipc, lane.ambient_alpha);
        if st.cycle_enabled && st.cycle.recording.is_some() {
            cycle_record_window(lane, j, st);
        }
    }
    true
}

/// The per-cell post-step bookkeeping for lane member `j`, mirroring the
/// tail of the per-cell window loop (energy, maxima, residency, throttle
/// accounting, trace, clock).
fn member_post(lane: &Lane, j: usize, globals: &[usize], engines: &[SimEngine<'_>], states: &mut [CellState]) {
    let cell = lane.members[j];
    let cfg = engines[globals[cell]].config;
    let st = &mut states[cell];
    let e = &st.plans[st.cur];
    st.energy.add(e.window.mem_w, e.window.cpu_w, st.step_s);
    let amb_now = if lane.has_buffer { lane.max_buffer[j] } else { f64::NAN };
    let dram_now = lane.max_dram[j];
    st.max_amb = st.max_amb.max(amb_now);
    st.max_dram = st.max_dram.max(dram_now);
    st.ambient_sum += st.scene.ambient_c();
    st.ambient_samples += 1;
    *st.residency.entry(e.mode_key).or_insert(0.0) += st.step_s;
    for (throttled_s, &throttled) in st.channel_throttle_s.iter_mut().zip(&e.throttled) {
        if throttled {
            *throttled_s += st.step_s;
        }
    }
    if cfg.record_temp_trace && st.time_s + 1e-12 >= st.next_trace_s {
        st.trace.push(TempSample {
            time_s: st.time_s,
            amb_c: amb_now,
            dram_c: dram_now,
            ambient_c: st.scene.ambient_c(),
            active_cores: e.mode.active_cores,
            freq_ghz: e.mode.op.freq_ghz,
        });
        st.next_trace_s += cfg.temp_trace_interval_s;
    }
    st.time_s += st.step_s;
    st.stats.stepped_windows += 1;
}

/// The pre-step pass over a whole lane: every member's [`member_pre`], then
/// the departures it flagged, removed in **descending** slot order —
/// [`Lane::remove`] swap-fills the hole with the current last column, and
/// with the highest slot removed first the fill column is never itself a
/// pending departure, so deferring removals moves no arithmetic.
fn lane_pre(
    lane: &mut Lane,
    globals: &[usize],
    engines: &[SimEngine<'_>],
    states: &mut [CellState],
    options: &BatchOptions,
    results: &mut [Option<(MemSpotResult, CellRunStats)>],
) {
    let mut departed = Vec::new();
    for j in 0..lane.members.len() {
        if !member_pre(lane, j, globals, engines, states, options, results) {
            departed.push(j);
        }
    }
    while let Some(j) = departed.pop() {
        lane.remove(j);
    }
}

/// Each member's post-step bookkeeping for the window just stepped, then
/// the next window's pre-step pass ([`lane_pre`]). The per-cell operation
/// order of [`SimEngine::run`] is preserved exactly (cell `i`'s window-`k`
/// tail always precedes its window-`k+1` head; cells are mutually
/// independent, so their interleaving is free), and every phase is a loop
/// of column-disjoint member operations with no intervening column swaps.
fn lane_post_pre(
    lane: &mut Lane,
    globals: &[usize],
    engines: &[SimEngine<'_>],
    states: &mut [CellState],
    options: &BatchOptions,
    results: &mut [Option<(MemSpotResult, CellRunStats)>],
) {
    for j in 0..lane.members.len() {
        member_post(lane, j, globals, engines, states);
    }
    lane_pre(lane, globals, engines, states, options, results);
}

/// The lane's RC update: the cell-outer kernel. Per member, one flat pass
/// over its contiguous column steps every row by `t += (s − t)·α` with `s`
/// from [`row_stable`] — the exact float-op sequence of
/// `DimmThermalScene::step`, so the bits match the per-cell engine — folds
/// the row into its peak, and accumulates the member's per-device-kind
/// running maximum of the freshly stepped temperatures (`f64::max` over a
/// fixed set is order-independent, so the values carry bits identical to a
/// post-step scene fold). The per-row decay factors and device kinds are
/// hoisted into lane tables at build time, so the pass does no per-row
/// index arithmetic beyond the column walk; lanes are 1–3 cells wide under
/// the guided sweep dispatch, where a row-major sweep across cells spent
/// most of its time in per-row loop overhead. No `mul_add` here: a fused
/// multiply-add rounds once where the scene rounds twice, which would
/// break bit-identity with [`SimEngine::run`].
fn lane_rc(lane: &mut Lane) {
    let Lane {
        members,
        rows,
        temps,
        peaks,
        term_a,
        term_b,
        amb,
        identity_split,
        max_buffer,
        max_dram,
        row_alphas,
        row_is_buffer,
        ..
    } = lane;
    let (rows, identity_split) = (*rows, *identity_split);
    for c in 0..members.len() {
        let col = c * rows..(c + 1) * rows;
        let (t_col, p_col) = (&mut temps[col.clone()], &mut peaks[col.clone()]);
        let (a_col, b_col) = (&term_a[col.clone()], &term_b[col]);
        let amb_c = amb[c];
        let (mut m_buf, mut m_dram) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        let terms = a_col.iter().zip(b_col);
        let layers = row_alphas.iter().zip(row_is_buffer.iter());
        for (((t, p), (&a, &b)), (&alpha, &buffer)) in t_col.iter_mut().zip(p_col.iter_mut()).zip(terms).zip(layers) {
            let s = row_stable(amb_c, a, b, identity_split);
            *t += (s - *t) * alpha;
            *p = p.max(*t);
            if buffer {
                m_buf = m_buf.max(*t);
            } else {
                m_dram = m_dram.max(*t);
            }
        }
        max_buffer[c] = m_buf;
        max_dram[c] = m_dram;
    }
}

/// Whether the cell at lane column `j` satisfies every fast-forward
/// condition: a provably steady policy, an ambient at its fixed point and
/// every layer within ε of its RC fixed point (left in `st.fp` for the
/// jump). The streak and trace conditions are checked by the caller.
fn ff_engages(lane: &Lane, j: usize, st: &mut CellState, options: &BatchOptions) -> bool {
    let drift_c = 2.0 * options.steady_epsilon_c;
    let e = &st.plans[st.cur];
    if !st.policy.is_steady(&st.observation, &e.plan, drift_c) {
        return false;
    }
    let stable_ambient = st.scene.ambient_params().stable_ambient_c(e.window.v_ipc);
    // `!(x <= eps)` deliberately refuses to fast-forward on NaN.
    let ambient_settled = (st.scene.ambient_c() - stable_ambient).abs() <= AMBIENT_FF_EPS_C;
    if !ambient_settled {
        return false;
    }
    st.scene.fixed_point_into(&e.window.positions, e.window.v_ipc, &mut st.fp);
    lane.temps[lane.col(j)].iter().zip(&st.fp).all(|(t, f)| (t - f).abs() <= options.steady_epsilon_c)
}

/// Replays the cell's remaining windows in closed form and finalizes it.
///
/// The plan is frozen (guaranteed by [`DtmPolicy::is_steady`] under the 2ε
/// drift bound), so every remaining window carries the same power, zero DTM
/// overhead and the same per-core retire rates. Batch completion is
/// resolved event-by-event: windows in which no job copy can possibly
/// finish are bulk-retired in one call per core (pure subtraction — order
/// cannot matter), and each window in which a copy *does* finish is retired
/// literally, core by core, so the round-robin refill from the pending
/// queue interleaves exactly as in the stepped run. Simulated time advances
/// by the literal repeated additions throughout, keeping `running_time_s`
/// and the total window count bit-identical.
fn fast_forward(lane: &Lane, j: usize, st: &mut CellState, engine: &SimEngine<'_>) -> (MemSpotResult, CellRunStats) {
    let started = std::time::Instant::now();
    let cfg = engine.config;
    let cores = engine.cpu.cores;
    let step = st.step_s;
    // The frozen plan's per-window amounts at zero overhead (the
    // `effective_s = step` expressions of the literal loop).
    let e = &st.plans[st.cur];
    let (instr, bytes, misses, migrated, rates) = e.amounts(false);

    let mut w_total: u64 = 0;
    while !st.batch.is_complete() && st.time_s < cfg.max_sim_time_s {
        // Windows until the earliest possible job-copy completion (none if
        // the cell makes no progress or no core retires instructions).
        let target: Option<u64> = if e.progressing {
            (0..cores)
                .filter(|&core| rates[core] > 0)
                .filter_map(|core| st.batch.slot(core).map(|s| s.remaining_instructions.div_ceil(rates[core]).max(1)))
                .min()
        } else {
            None
        };
        let mut m: u64 = 0;
        match target {
            Some(t) => {
                while m < t && st.time_s < cfg.max_sim_time_s {
                    st.time_s += step;
                    m += 1;
                }
            }
            None => {
                while st.time_s < cfg.max_sim_time_s {
                    st.time_s += step;
                    m += 1;
                }
            }
        }
        if m == 0 {
            break;
        }
        let mf = m as f64;
        if e.progressing {
            st.total_instructions += instr * mf;
            st.total_bytes += bytes * mf;
            st.total_misses += misses * mf;
            st.migrated_bytes += migrated * mf;
            // A core whose share is not positive has a zero rate, and
            // retiring zero instructions is a no-op.
            if target == Some(m) {
                // `m - 1` completion-free windows in bulk, then the
                // completion window itself replayed literally.
                if m > 1 {
                    for (core, &rate) in rates.iter().enumerate() {
                        st.batch.retire(core, rate * (m - 1));
                    }
                }
                for (core, &rate) in rates.iter().enumerate() {
                    st.batch.retire(core, rate);
                }
            } else {
                for (core, &rate) in rates.iter().enumerate() {
                    st.batch.retire(core, rate * m);
                }
            }
        }
        st.energy.add(e.window.mem_w, e.window.cpu_w, step * mf);
        *st.residency.entry(e.mode_key).or_insert(0.0) += step * mf;
        for (throttled_s, &throttled) in st.channel_throttle_s.iter_mut().zip(&e.throttled) {
            if throttled {
                *throttled_s += step * mf;
            }
        }
        st.ambient_sum += st.scene.ambient_c() * mf;
        st.ambient_samples += m;
        w_total += m;
    }

    // Closed-form end state: each layer decays geometrically toward its
    // fixed point, `t_end = t* + (t0 − t*)·λ^W` with `λ = 1 − α` (computed
    // as `exp(W·ln λ)`; `λ = 0` yields `exp(−∞) = 0`, i.e. exactly the
    // fixed point). Trajectories are monotone, so the running maxima and
    // peaks only need the endpoint folded in — `t0` already contributed
    // when its window stepped.
    let col = lane.col(j);
    let temps_end: Vec<f64> = lane.temps[col.clone()]
        .iter()
        .zip(&lane.row_alphas)
        .zip(&st.fp)
        .map(|((&t0, &alpha), &fp)| {
            let decay = if w_total == 0 { 1.0 } else { (w_total as f64 * (1.0 - alpha).ln()).exp() };
            fp + (t0 - fp) * decay
        })
        .collect();
    st.scene.set_layer_temps(&temps_end);
    let peaks_end: Vec<f64> = lane.peaks[col].iter().zip(&temps_end).map(|(p, &t)| p.max(t)).collect();
    st.scene.set_layer_peaks(&peaks_end);
    let (amb_now, dram_now) = st.scene.max_temps_c();
    st.max_amb = st.max_amb.max(amb_now);
    st.max_dram = st.max_dram.max(dram_now);
    st.stats.fast_forwarded_windows = w_total;
    st.stats.replay_ns += started.elapsed().as_nanos() as u64;
    finalize(st, engine)
}

/// The limit-cycle detector state of one cell (only populated when
/// [`CellState::cycle_enabled`]). Tracking is cheap — one snapshot per DTM
/// decision — and recording/verification only run once the plan sequence
/// already looks periodic.
#[derive(Debug, Default)]
struct CycleTracker {
    /// The most recent decisions, newest last (capped at
    /// `2·MAX_CYCLE_DECISIONS + 1` so any period up to the maximum can be
    /// checked against one full prior repetition).
    history: VecDeque<DecisionSnap>,
    /// The in-flight (or completed, pending verification) cycle recording.
    recording: Option<CycleRecording>,
    /// Decisions left before the detector may record again after a failed
    /// verification.
    backoff: u32,
    /// Failed verifications so far (saturating) — sets the next backoff's
    /// doubling exponent.
    fails: u32,
}

/// What the detector remembers about one DTM decision.
#[derive(Debug)]
struct DecisionSnap {
    plan: ActuationPlan,
    /// The cell's lane temperature column at decision time (pre-window).
    temps: Vec<f64>,
    /// The scene ambient at decision time. Candidate selection demands the
    /// same tight recurrence verification will ([`AMBIENT_FF_EPS_C`]), so a
    /// slowly drifting orbit — whose layer temperatures recur within ε over
    /// any short lag — never starts a recording it is bound to fail.
    ambient: f64,
}

/// One full candidate limit cycle, recorded window by window as it is
/// stepped literally. Everything the periodic fast-forward needs to replay
/// the cycle — plans, stable temperatures, per-window amounts — is captured
/// from the very values the stepped windows used.
#[derive(Debug)]
struct CycleRecording {
    /// The cycle length in windows (= decisions, since recording only runs
    /// when the step equals the DTM interval).
    period: usize,
    /// The scene ambient at the recording's first decision (pre-window);
    /// verification requires it to recur at the closing decision.
    start_ambient: f64,
    windows: Vec<CycleWindow>,
}

/// One recorded window of a candidate limit cycle.
#[derive(Debug)]
struct CycleWindow {
    plan: ActuationPlan,
    /// The observation this window's decision consumed (kept so
    /// verification can ask [`DtmPolicy::is_steady`] about *every* phase of
    /// the cycle, not just the closing one).
    observation: ThermalObservation,
    /// The per-row stable temperatures the RC sweep used
    /// ([`Lane::stable_for`]) — replaying them reproduces the sweep's bits.
    stables: Vec<f64>,
    mode_key: ModeKey,
    mem_w: f64,
    cpu_w: f64,
    instr: f64,
    bytes: f64,
    misses: f64,
    migrated: f64,
    /// Per-core retired-instruction amounts (exact integers, so completion
    /// events replay at the very window they would step at).
    retires: Vec<u64>,
    progressing: bool,
    /// Per-channel throttle flags of this window's plan.
    throttled: Vec<bool>,
    /// The scene ambient after this window's ambient step (the value the
    /// stepped run folds into `ambient_sum`).
    ambient_c: f64,
}

/// Per-cycle affine-map data computed by [`cycle_verify`] and consumed by
/// [`fast_forward_periodic`]: over one whole cycle each layer contracts as
/// `t ← a·t + c` toward the phase-0 fixed point `t* = c / (1 − a)`.
#[derive(Debug)]
struct CycleJump {
    /// Per-layer whole-cycle decay `a = λ^k`.
    layer_a: Vec<f64>,
    /// Per-row phase-0 fixed point of the cycle map.
    fixed: Vec<f64>,
}

/// Pushes one decision snapshot and, when the recent history shows a
/// period-`k` plan sequence whose temperatures recur within ε, starts
/// recording one full cycle for verification. Runs at every DTM decision of
/// a cycle-enabled cell (after the decision, before the window steps).
// The negated comparison is load-bearing: `!(x <= eps)` refuses on NaN
// where `x > eps` would accept it.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn cycle_track(lane: &Lane, j: usize, st: &mut CellState, changed: bool, options: &BatchOptions) {
    let streak = st.plan_streak as usize;
    let tracker = &mut st.cycle;
    // A plan frozen for the full history depth cannot take part in any
    // detectable cycle (a candidate must change the plan inside its two
    // repetitions), so tracking pauses for settled cells — dropping the
    // stale history keeps snapshot lags contiguous — until the plan next
    // changes. Without this gate the scan below is the batched tier's
    // dominant per-window cost on frozen-plan cells.
    if !changed && streak >= 2 * MAX_CYCLE_DECISIONS {
        tracker.history.clear();
        return;
    }
    // Once a recording is in flight the history is never read again — a
    // verified cycle removes the cell from the lane, a failed verification
    // clears the history into backoff — so both states idle at one branch
    // per decision instead of snapshotting.
    if tracker.recording.is_some() {
        return;
    }
    // Early backoff idles without snapshotting (the history is stale and
    // dropped); snapshotting resumes for the final `2·MAX + 1` decisions so
    // a full history is ready the moment the scan re-arms — detection
    // timing is exactly that of snapshotting throughout.
    let disarmed = tracker.backoff > 0;
    if disarmed {
        tracker.backoff -= 1;
        if tracker.backoff as usize > 2 * MAX_CYCLE_DECISIONS {
            tracker.history.clear();
            return;
        }
    }
    // Recycle the oldest snapshot's allocation once the history is full.
    let mut temps = if tracker.history.len() > 2 * MAX_CYCLE_DECISIONS {
        let mut old = tracker.history.pop_front().expect("history is non-empty");
        old.temps.clear();
        old.temps
    } else {
        Vec::with_capacity(lane.rows)
    };
    temps.extend_from_slice(&lane.temps[lane.col(j)]);
    let plan = st.plans[st.cur].plan.clone();
    tracker.history.push_back(DecisionSnap { plan, temps, ambient: st.scene.ambient_c() });
    if disarmed {
        return;
    }
    let h = &tracker.history;
    let n = h.len();
    for k in 2..=MAX_CYCLE_DECISIONS {
        if n < 2 * k {
            break;
        }
        // The last 2k decisions must repeat with period k, actually change
        // the plan at least once (a frozen plan is the steady-state
        // fast-forward's domain), and land on recurring temperatures. The
        // change requirement is the O(1) `plan_streak` test — the last
        // change must fall inside the candidate's two repetitions — and
        // filters before any plan is compared.
        if streak >= 2 * k {
            continue;
        }
        // Ambient recurrence to verification's own tolerance comes next —
        // one subtract rules most lags out (and refuses on NaN) before any
        // plan or temperature vector is compared.
        if !((h[n - 1].ambient - h[n - 1 - k].ambient).abs() <= AMBIENT_FF_EPS_C) {
            continue;
        }
        if !(0..k).all(|i| h[n - 1 - i].plan == h[n - 1 - i - k].plan) {
            continue;
        }
        let now = &h[n - 1].temps;
        let then = &h[n - 1 - k].temps;
        if !now.iter().zip(then).all(|(a, b)| (a - b).abs() <= options.steady_epsilon_c) {
            continue;
        }
        tracker.recording =
            Some(CycleRecording { period: k, start_ambient: st.scene.ambient_c(), windows: Vec::with_capacity(k) });
        return;
    }
}

/// Captures the window just prepared by [`member_pre`] into the in-flight
/// cycle recording (called after the cell's ambient step, so
/// [`Lane::stable_for`] reads exactly what the next RC sweep will use).
fn cycle_record_window(lane: &Lane, j: usize, st: &mut CellState) {
    let scene = &st.scene;
    let Some(rec) = st.cycle.recording.as_mut() else { return };
    if rec.windows.len() >= rec.period {
        return;
    }
    let stables: Vec<f64> = (0..lane.rows).map(|r| lane.stable_for(j, r)).collect();
    let e = &st.plans[st.cur];
    let (instr, bytes, misses, migrated, retires) = e.amounts(st.overheaded);
    rec.windows.push(CycleWindow {
        plan: e.plan.clone(),
        observation: st.observation.clone(),
        stables,
        mode_key: e.mode_key,
        mem_w: e.window.mem_w,
        cpu_w: e.window.cpu_w,
        instr,
        bytes,
        misses,
        migrated,
        retires: retires.to_vec(),
        progressing: e.progressing,
        throttled: e.throttled.clone(),
        ambient_c: scene.ambient_c(),
    });
}

/// Verifies a completed cycle recording against the cell's current state
/// and, on success, returns the cycle's affine-map data for the jump.
///
/// The detector's heuristics got us here; this is where correctness lives.
/// Over one cycle each layer evolves as `t ← a·t + c` with `a = λ^k` and
/// `c` the recorded stables folded from zero, so the cycle has a phase-0
/// fixed point `t* = c / (1 − a)` (with `1 − a` evaluated as `α·Σλ^i` to
/// dodge the cancellation at `λ → 1`). Requirements:
///
/// 1. the scene ambient recurs (bitwise for isolated scenes) at the cycle
///    boundary,
/// 2. the recorded plans actually change within the cycle (else the
///    steady-state fast-forward owns the cell),
/// 3. every row sits within ε of its cycle fixed point (`B = max |t − t*|`),
///    and
/// 4. the policy guarantees, for every phase `w`, that any observation
///    within `max(B, d_w)` of the *phase fixed-point* observation decides
///    the recorded plan ([`DtmPolicy::is_steady`] centered on the
///    fixed-point maxima). All future phase-`w` boundary temperatures stay
///    within `B` of the phase fixed point (whole-cycle contraction from the
///    current `B`, intra-cycle contraction `≤ 1`), and `d_w` — the recorded
///    observation's own distance to the fixed-point observation — pulls the
///    *recorded* decision into the same ball, so the level that is constant
///    over the ball is exactly the recorded plan's.
// The negated comparisons are load-bearing: `!(x <= eps)` refuses on NaN
// where `x > eps` would accept it.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn cycle_verify(lane: &Lane, j: usize, st: &CellState, options: &BatchOptions) -> Option<CycleJump> {
    let rec = st.cycle.recording.as_ref()?;
    let k = rec.period;
    // `!(x <= eps)` deliberately refuses on NaN.
    if !((st.scene.ambient_c() - rec.start_ambient).abs() <= AMBIENT_FF_EPS_C) {
        return None;
    }
    if !rec.windows.iter().any(|w| w.plan != rec.windows[0].plan) {
        return None;
    }
    let depth = lane.depth;
    let mut layer_a = vec![0.0; depth];
    let mut one_minus_a = vec![0.0; depth];
    for l in 0..depth {
        let alpha = lane.layer_alphas[l];
        let lambda = 1.0 - alpha;
        let mut geo = 0.0;
        let mut p = 1.0;
        for _ in 0..k {
            geo += p;
            p *= lambda;
        }
        layer_a[l] = lambda.powi(k as i32);
        one_minus_a[l] = alpha * geo;
    }
    let mut fixed = vec![0.0; lane.rows];
    let mut deviation: f64 = 0.0;
    for (r, slot) in fixed.iter_mut().enumerate() {
        let alpha = lane.layer_alphas[r % depth];
        let mut c = 0.0;
        for win in &rec.windows {
            c += (win.stables[r] - c) * alpha;
        }
        let t_star = c / one_minus_a[r % depth];
        if !t_star.is_finite() {
            return None;
        }
        *slot = t_star;
        deviation = deviation.max((lane.temps[j * lane.rows + r] - t_star).abs());
    }
    if !(deviation <= options.steady_epsilon_c) {
        return None;
    }
    // Walk the phase fixed points through the cycle and consult the policy
    // at each one: `t_star` holds the phase-`w` boundary temperatures of
    // the exactly periodic orbit, whose device maxima are what a converged
    // cycle's decision at phase `w` observes.
    let layers = st.scene.topology().layers();
    let has_buffer = st.scene.topology().has_buffer();
    let mut t_star = fixed.clone();
    let mut probe = rec.windows[0].observation.clone();
    for win in &rec.windows {
        let mut amb_star = f64::NEG_INFINITY;
        let mut dram_star = f64::NEG_INFINITY;
        for (r, &t) in t_star.iter().enumerate() {
            match layers[r % depth].kind {
                DeviceLayerKind::Buffer => amb_star = amb_star.max(t),
                DeviceLayerKind::Dram => dram_star = dram_star.max(t),
            }
        }
        let amb_star = if has_buffer { amb_star } else { f64::NAN };
        let d_w = {
            let da = if has_buffer { (win.observation.max_amb_c - amb_star).abs() } else { 0.0 };
            let dd = (win.observation.max_dram_c - dram_star).abs();
            da.max(dd)
        };
        if !d_w.is_finite() {
            return None;
        }
        probe.max_amb_c = amb_star;
        probe.max_dram_c = dram_star;
        probe.ambient_c = win.observation.ambient_c;
        let radius_c = deviation.max(d_w) + 1e-9;
        if !st.policy.is_steady(&probe, &win.plan, radius_c) {
            return None;
        }
        for (r, t) in t_star.iter_mut().enumerate() {
            *t += (win.stables[r] - *t) * lane.layer_alphas[r % depth];
        }
    }
    Some(CycleJump { layer_a, fixed })
}

/// Literal RC fold of the recorded windows `[from, to)` over the working
/// temperature state (the exact per-window float ops of [`lane_rc`], peaks
/// folded per window).
fn fold_cycle_temps(windows: &[CycleWindow], layer_alphas: &[f64], depth: usize, t_cur: &mut [f64], peaks: &mut [f64]) {
    for win in windows {
        for (r, t) in t_cur.iter_mut().enumerate() {
            *t += (win.stables[r] - *t) * layer_alphas[r % depth];
            peaks[r] = peaks[r].max(*t);
        }
    }
}

/// Replays one recorded window's accounting (everything except time and
/// temperatures, which the callers handle).
fn replay_cycle_window(st: &mut CellState, win: &CycleWindow, step: f64) {
    if win.progressing {
        st.total_instructions += win.instr;
        st.total_bytes += win.bytes;
        st.total_misses += win.misses;
        st.migrated_bytes += win.migrated;
        for (core, &amount) in win.retires.iter().enumerate() {
            st.batch.retire(core, amount);
        }
    }
    st.energy.add(win.mem_w, win.cpu_w, step);
    *st.residency.entry(win.mode_key).or_insert(0.0) += step;
    for (channel, throttled_s) in st.channel_throttle_s.iter_mut().enumerate() {
        if win.throttled[channel] {
            *throttled_s += step;
        }
    }
    st.ambient_sum += win.ambient_c;
    st.ambient_samples += 1;
}

/// Replays the cell's remaining windows whole limit cycles at a time and
/// finalizes it.
///
/// The verified recording guarantees every future cycle re-decides the
/// recorded plans, so the trajectory is periodic forever. Completion events
/// are resolved cycle-by-cycle the way [`fast_forward`] resolves them
/// window-by-window: whole cycles in which no job copy can finish are
/// bulk-accounted (`amount × cycles` per recorded window — pure
/// accumulation, order-free), and the cycle containing a completion is
/// replayed literally window-by-window so the round-robin refill
/// interleaves exactly as stepped. Simulated time advances by the literal
/// repeated additions throughout (bit-identical window count), and the
/// per-core retire amounts are the recorded exact integers, so completions
/// land on the very windows the stepped run would step.
///
/// Temperatures across a bulk span: the first and last cycles are folded
/// literally (per-(phase, row) trajectories are monotone across cycles, so
/// those two bound every intermediate peak) and the middle collapses to the
/// closed form `t ← t* + (t − t*)·a^(cycles − 2)` per layer.
fn fast_forward_periodic(
    lane: &Lane,
    j: usize,
    st: &mut CellState,
    engine: &SimEngine<'_>,
    jump: CycleJump,
) -> (MemSpotResult, CellRunStats) {
    let started = std::time::Instant::now();
    let cfg = engine.config;
    let cores = engine.cpu.cores;
    let step = st.step_s;
    let max = cfg.max_sim_time_s;
    let rec = st.cycle.recording.take().expect("verified recording present");
    let k = rec.period;
    let depth = lane.depth;

    // Whole-cycle per-core retire totals (job-independent; zero on cores
    // without a positive share, where retiring is a no-op).
    let mut cycle_retires = vec![0u64; cores];
    for win in &rec.windows {
        if win.progressing {
            for (core, total) in cycle_retires.iter_mut().enumerate() {
                *total += win.retires[core];
            }
        }
    }
    let any_progress = rec.windows.iter().any(|w| w.progressing);

    let mut t_cur: Vec<f64> = lane.temps[lane.col(j)].to_vec();
    let mut peaks: Vec<f64> = lane.peaks[lane.col(j)].to_vec();
    let mut w_total: u64 = 0;
    let mut cycles_total: u64 = 0;

    while !st.batch.is_complete() && st.time_s < max {
        // Whole cycles until the earliest possible job-copy completion.
        let target: Option<u64> = if any_progress {
            (0..cores)
                .filter(|&core| cycle_retires[core] > 0)
                .filter_map(|core| {
                    st.batch.slot(core).map(|s| s.remaining_instructions.div_ceil(cycle_retires[core]).max(1))
                })
                .min()
        } else {
            None
        };
        let bulk: u64 = match target {
            Some(t) => t - 1,
            None => u64::MAX,
        };
        // Advance the completion-free span, literal time additions.
        let mut cycles: u64 = 0;
        let mut partial: usize = 0;
        'bulk: while cycles < bulk {
            for w in 0..k {
                if st.time_s >= max {
                    partial = w;
                    break 'bulk;
                }
                st.time_s += step;
            }
            cycles += 1;
        }
        w_total += cycles * k as u64 + partial as u64;
        cycles_total += cycles;
        if cycles > 0 {
            let cf = cycles as f64;
            for win in &rec.windows {
                if win.progressing {
                    st.total_instructions += win.instr * cf;
                    st.total_bytes += win.bytes * cf;
                    st.total_misses += win.misses * cf;
                    st.migrated_bytes += win.migrated * cf;
                }
                st.energy.add(win.mem_w, win.cpu_w, step * cf);
                *st.residency.entry(win.mode_key).or_insert(0.0) += step * cf;
                for (channel, throttled_s) in st.channel_throttle_s.iter_mut().enumerate() {
                    if win.throttled[channel] {
                        *throttled_s += step * cf;
                    }
                }
                st.ambient_sum += win.ambient_c * cf;
                st.ambient_samples += cycles;
            }
            if any_progress {
                for (core, &total) in cycle_retires.iter().enumerate() {
                    st.batch.retire(core, total * cycles);
                }
            }
            fold_cycle_temps(&rec.windows, &lane.layer_alphas, depth, &mut t_cur, &mut peaks);
            if cycles >= 2 {
                if cycles > 2 {
                    for (r, t) in t_cur.iter_mut().enumerate() {
                        let a = jump.layer_a[r % depth];
                        let decay = ((cycles - 2) as f64 * a.ln()).exp();
                        *t = jump.fixed[r] + (*t - jump.fixed[r]) * decay;
                    }
                }
                fold_cycle_temps(&rec.windows, &lane.layer_alphas, depth, &mut t_cur, &mut peaks);
            }
        }
        if partial > 0 {
            // Time capped mid-cycle: the executed prefix already advanced
            // the clock, replay its accounting and temperatures and stop.
            for win in &rec.windows[..partial] {
                replay_cycle_window(st, win, step);
            }
            fold_cycle_temps(&rec.windows[..partial], &lane.layer_alphas, depth, &mut t_cur, &mut peaks);
            break;
        }
        if st.time_s >= max {
            break;
        }
        // The completion cycle: replayed literally window-by-window with
        // the stepped loop's checks at each window head.
        let mut done = 0;
        for win in &rec.windows {
            if st.batch.is_complete() || st.time_s >= max {
                break;
            }
            replay_cycle_window(st, win, step);
            fold_cycle_temps(std::slice::from_ref(win), &lane.layer_alphas, depth, &mut t_cur, &mut peaks);
            st.time_s += step;
            w_total += 1;
            done += 1;
        }
        if done == k {
            cycles_total += 1;
        }
    }

    st.scene.set_layer_temps(&t_cur);
    st.scene.set_layer_peaks(&peaks);
    let (amb_pk, dram_pk) = st.scene.peak_temps_c();
    st.max_amb = st.max_amb.max(amb_pk);
    st.max_dram = st.max_dram.max(dram_pk);
    st.stats.fast_forwarded_windows = w_total;
    st.stats.periodic_cycles = cycles_total;
    st.stats.replay_ns += started.elapsed().as_nanos() as u64;
    finalize(st, engine)
}

/// A proven per-row temperature confinement band for the envelope replay,
/// plus how to convert replayed windows into pseudo-cycles for
/// [`CellRunStats::envelope_cycles`].
#[derive(Debug)]
struct EnvBand {
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// The detected orbit period at engagement (slipping orbits); `1` for
    /// frozen-approach engagements.
    period: u64,
    /// Whether the engagement came from the slipping-orbit trigger (a
    /// failed cycle verification on a confined trajectory).
    slipping: bool,
}

/// Everything a cell derives from one actuation plan, built once per
/// distinct plan by [`build_plan_entry`] so a plan change never re-derives
/// characterization points, window powers or accounting amounts. The
/// literal lane step keeps these in the per-cell memo
/// ([`CellState::plans`]); the envelope burst keeps an index-stable list of
/// them, copied from the memo or built, and hands its active entry back on
/// fallback.
#[derive(Debug, Clone)]
struct PlanEntry {
    plan: ActuationPlan,
    mode: RunningMode,
    mode_key: ModeKey,
    progressing: bool,
    window: WindowPower,
    /// Per-row power terms of the RC stable temperature: row `r` steps
    /// toward [`row_stable`]`(ambient, stab_a[r], stab_b[r])` — the lane
    /// column the kernel reads while this plan is active.
    stab_a: Vec<f64>,
    stab_b: Vec<f64>,
    /// Per-window accounted amounts at the full step and at the overheaded
    /// (plan-change) step — the literal expressions evaluated once; zero
    /// when the plan makes no progress.
    instr: f64,
    bytes: f64,
    misses: f64,
    migrated: f64,
    instr_oh: f64,
    bytes_oh: f64,
    misses_oh: f64,
    migrated_oh: f64,
    /// Per-core retired instructions per window (zero on cores without a
    /// positive full-speed share, where retiring is a no-op).
    retires: Vec<u64>,
    retires_oh: Vec<u64>,
    /// Per-channel throttle flags ([`ActuationPlan::throttles_channel`]).
    throttled: Vec<bool>,
}

impl PlanEntry {
    /// One window's `(instructions, bytes, misses, migrated bytes, per-core
    /// retires)`, with or without the DTM switch overhead.
    fn amounts(&self, overheaded: bool) -> (f64, f64, f64, f64, &[u64]) {
        if overheaded {
            (self.instr_oh, self.bytes_oh, self.misses_oh, self.migrated_oh, &self.retires_oh)
        } else {
            (self.instr, self.bytes, self.misses, self.migrated, &self.retires)
        }
    }
}

/// Builds the entry for `plan` through the very expressions
/// [`SimEngine::run`] evaluates on a plan change and per window, so every
/// cached value carries the bits the literal window loop would compute.
/// (The scene is only consulted for geometry by
/// [`SimEngine::window_power`], never for temperatures, so an entry stays
/// valid for the whole run.)
fn build_plan_entry(st: &mut CellState, engine: &SimEngine<'_>, plan: ActuationPlan) -> PlanEntry {
    let cfg = engine.config;
    let cores = engine.cpu.cores;
    let mode = plan.mode;
    let mode_key = ModeKey::from_mode(&mode);
    let point = st.table.point(&mode);
    let progressing = mode.makes_progress() && point.instr_rate_total > 0.0;
    let (plan_stats, window) = if plan.is_scalar() {
        (
            PlanTrafficStats::identity(),
            engine.window_power(&st.scene, &st.idle, &point, &point.dimm_traffic, &mode, progressing),
        )
    } else {
        let stats = plan.apply_traffic_into(
            &point.dimm_traffic,
            engine.mem.logical_channels,
            engine.mem.dimms_per_channel,
            &mut st.plan_traffic,
        );
        (stats, engine.window_power(&st.scene, &st.idle, &point, &st.plan_traffic, &mode, progressing))
    };
    // The stable-temperature terms, split exactly as `DimmThermalScene::step`
    // splits them: identity stacks multiply each source by its Ψ
    // coefficient (summed ambient-first by [`row_stable`]), other stacks
    // superpose Ψ from zero.
    let topology = st.scene.topology();
    let depth = topology.depth();
    let identity = topology.is_identity_split();
    let rows = window.positions.len() * depth;
    let (mut stab_a, mut stab_b) = (Vec::with_capacity(rows), Vec::with_capacity(rows));
    let mut watts = vec![0.0; depth];
    for p in &window.positions {
        topology.split_watts_into(p.amb_watts, p.dram_watts, &mut watts);
        for l in 0..depth {
            if identity {
                let psi = topology.psi_row(l);
                stab_a.push(watts[0] * psi[0]);
                stab_b.push(watts[1] * psi[1]);
            } else {
                stab_a.push(topology.psi_superpose(&watts, l));
                stab_b.push(0.0);
            }
        }
    }
    let mut amounts = [(0.0, 0.0, 0.0, 0.0, vec![0u64; cores]), (0.0, 0.0, 0.0, 0.0, vec![0u64; cores])];
    if progressing {
        for (slot, overhead) in amounts.iter_mut().zip([0.0, cfg.dtm_overhead_s]) {
            let effective_s = (st.step_s - overhead).max(0.0);
            let instr = point.instr_rate_total * plan_stats.service_scale * effective_s;
            slot.0 = instr;
            slot.1 = point.total_gbps() * plan_stats.service_scale * 1e9 * effective_s;
            slot.2 = point.l2_misses_per_instr * instr;
            slot.3 = plan_stats.migrated_gbps * 1e9 * effective_s;
            for (core, amount) in slot.4.iter_mut().enumerate() {
                let share = st.full_shares.get(core).copied().unwrap_or(0.0);
                if share > 0.0 {
                    *amount = (instr * share) as u64;
                }
            }
        }
    }
    let [(instr, bytes, misses, migrated, retires), (instr_oh, bytes_oh, misses_oh, migrated_oh, retires_oh)] = amounts;
    let throttled = (0..st.channel_throttle_s.len()).map(|ch| plan.throttles_channel(ch)).collect();
    PlanEntry {
        plan,
        mode,
        mode_key,
        progressing,
        window,
        stab_a,
        stab_b,
        instr,
        bytes,
        misses,
        migrated,
        instr_oh,
        bytes_oh,
        misses_oh,
        migrated_oh,
        retires,
        retires_oh,
        throttled,
    }
}

/// Slipping-orbit band: the cycle detector's decision history (plus the
/// cell's current temperatures) spans the orbit; if every row's raw span
/// fits inside [`BatchOptions::envelope_tolerance`] the orbit is confined
/// and the band — inflated by half a span per side to absorb the slow slip
/// — becomes the burst's audit certificate.
///
/// A *wide-swing* orbit (span beyond the tolerance) is still admitted when
/// its recorded decision sequence is exactly periodic and the policy can
/// certify decision regions ([`DtmPolicy::plan_decided_by_region`]): such a
/// sliding-mode orbit is replayed under per-phase contraction certificates
/// — every in-burst segment jump carries its own λ-powered proof — so the
/// band only has to confine the literal audit between jumps, not bound the
/// replay error. Refuses on NaN anywhere.
// The negated comparison is load-bearing: `!(x <= tol)` refuses on NaN.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn env_band_slipping(lane: &Lane, j: usize, st: &CellState, options: &BatchOptions, period: usize) -> Option<EnvBand> {
    if !lane.layer_alphas.iter().all(|&a| a > 0.0 && a <= 1.0) {
        return None;
    }
    let rows = lane.rows;
    let h = &st.cycle.history;
    // At least two orbit periods of snapshots, so the band has seen every
    // phase of the orbit at least twice.
    if period < 2 || h.len() < 2 * period {
        return None;
    }
    let mut lo = vec![f64::INFINITY; rows];
    let mut hi = vec![f64::NEG_INFINITY; rows];
    for snap in h.iter() {
        if snap.temps.len() != rows {
            return None;
        }
        for (r, &t) in snap.temps.iter().enumerate() {
            lo[r] = lo[r].min(t);
            hi[r] = hi[r].max(t);
        }
    }
    for ((lo, hi), &t) in lo.iter_mut().zip(hi.iter_mut()).zip(&lane.temps[lane.col(j)]) {
        *lo = lo.min(t);
        *hi = hi.max(t);
    }
    let mut width: f64 = 0.0;
    for (lo, hi) in lo.iter().zip(&hi) {
        width = width.max(hi - lo);
    }
    if !width.is_finite() {
        return None;
    }
    if !(width <= options.envelope_tolerance) {
        // Wide-swing sliding-mode admission: the heuristic confinement test
        // failed, but a policy whose decisions can be keyed
        // ([`DtmPolicy::decision_key`]) is replayed decision for decision
        // by the burst's exact decision replay — the band is only an audit
        // backstop, never a bound on the replay error — and a policy that
        // certifies decision regions ([`DtmPolicy::plan_decided_by_region`])
        // over an exactly periodic recorded sequence gets the same
        // guarantee from per-segment contraction certificates.
        let keyed = st.policy.decision_key(f64::NAN, f64::NAN).is_some();
        let periodic = h.iter().enumerate().all(|(i, snap)| snap.plan == h[i % period].plan);
        if !keyed && (!periodic || st.policy.plan_decided_by_region(&st.observation, 0.0, 0.0).is_none()) {
            return None;
        }
    }
    for (lo, hi) in lo.iter_mut().zip(hi.iter_mut()) {
        let margin = 0.5 * (*hi - *lo) + 1e-6;
        *lo -= margin;
        *hi += margin;
    }
    Some(EnvBand { lo, hi, period: period as u64, slipping: true })
}

/// Frozen-approach band: under a long-frozen plan each row slides
/// monotonically from its current temperature toward its RC fixed point, so
/// the directed interval between the two (plus a small margin for plan
/// flips near the end) confines the whole approach. Width is deliberately
/// *not* gated by the tolerance — every segment jump carries its own
/// [`DtmPolicy::is_steady_band`] certificate over the exact traversed
/// range, and the audit catches real escapes.
fn env_band_frozen(lane: &Lane, j: usize, st: &mut CellState) -> Option<EnvBand> {
    if !lane.layer_alphas.iter().all(|&a| a > 0.0 && a <= 1.0) {
        return None;
    }
    let window = &st.plans[st.cur].window;
    st.scene.fixed_point_into(&window.positions, window.v_ipc, &mut st.fp);
    let rows = lane.rows;
    let mut lo = vec![0.0; rows];
    let mut hi = vec![0.0; rows];
    for ((lo, hi), (&t, &f)) in lo.iter_mut().zip(hi.iter_mut()).zip(lane.temps[lane.col(j)].iter().zip(&st.fp)) {
        if !(t.is_finite() && f.is_finite()) {
            return None;
        }
        let (a, b) = if t <= f { (t, f) } else { (f, t) };
        let margin = 0.05 * (b - a) + 1e-6;
        *lo = a - margin;
        *hi = b + margin;
    }
    Some(EnvBand { lo, hi, period: 1, slipping: false })
}

/// Exact range of the discrete two-exponential row response
/// `f(k) = a·λ^k + b·λ_a^k` over `k ∈ {0, …, n}` — a row relaxing toward
/// its stable while the shared ambient relaxes toward its own. Returns
/// `(f(n), min, max)`. The response has at most one interior stationary
/// point, so the discrete extremes sit at the endpoints or at the two
/// integers bracketing it; `f(0)` is evaluated directly (never through
/// `0 · ln λ`), so a fully-relaxed row cannot produce NaN.
fn env_row_range(a: f64, b: f64, lambda: f64, lambda_a: f64, nf: f64) -> (f64, f64, f64) {
    let f = |k: f64| {
        if k <= 0.0 {
            a + b
        } else {
            a * (k * lambda.ln()).exp() + b * (k * lambda_a.ln()).exp()
        }
    };
    let f0 = a + b;
    let fe = f(nf);
    let (mut lo, mut hi) = if f0 <= fe { (f0, fe) } else { (fe, f0) };
    if a != 0.0 && b != 0.0 && (a > 0.0) != (b > 0.0) && lambda > 0.0 && lambda_a > 0.0 {
        let ratio = -(b * lambda_a.ln()) / (a * lambda.ln());
        if ratio > 0.0 {
            let kstar = ratio.ln() / (lambda.ln() - lambda_a.ln());
            if kstar > 0.0 && kstar < nf {
                for k in [kstar.floor().max(1.0), kstar.ceil().min(nf)] {
                    let v = f(k);
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
            }
        }
    }
    (fe, lo, hi)
}

/// Adds the burst's per-entry residency accumulators to the cell's
/// residency map (one reassociation per entry instead of one map probe per
/// window).
fn env_flush_residency(st: &mut CellState, entries: &[PlanEntry], residency_s: &[f64]) {
    for (e, &seconds) in entries.iter().zip(residency_s) {
        if seconds > 0.0 {
            *st.residency.entry(e.mode_key).or_insert(0.0) += seconds;
        }
    }
}

/// Flushes the burst's accumulators, syncs the scene and finalizes the
/// departed cell.
#[allow(clippy::too_many_arguments)]
fn env_finish(
    st: &mut CellState,
    engine: &SimEngine<'_>,
    entries: &[PlanEntry],
    residency_s: &[f64],
    rows_t: &[f64],
    peaks: &[f64],
    env_windows: u64,
    pseudo_cycles: u64,
    started: std::time::Instant,
) -> (MemSpotResult, CellRunStats) {
    st.scene.set_layer_temps(rows_t);
    st.scene.set_layer_peaks(peaks);
    env_flush_residency(st, entries, residency_s);
    st.stats.fast_forwarded_windows += env_windows;
    st.stats.envelope_cycles += pseudo_cycles;
    st.stats.replay_ns += started.elapsed().as_nanos() as u64;
    finalize(st, engine)
}

/// The envelope replay burst: takes a cell whose trajectory is confined to
/// `band` out of the lane's lockstep and replays its windows privately —
/// literal decisions, bit-exact RC, literal per-window accounting — with
/// two analytic exits: closed-form segment jumps over frozen-plan spans,
/// and exact decision replay over chattering spans whose plans never hold
/// still. Every window's sweep is audited against the band; a violation
/// hands the cell back to the lane (`None`), with the lane column, plan
/// state and detector bookkeeping restored so literal stepping continues
/// seamlessly. `Some(result)` means the cell ran to completion inside the
/// burst.
///
/// Relative to literal stepping the burst skips only: the cycle detector,
/// plan-flip window-power rebuilds (cached per plan entry), per-window
/// residency map probes (per-entry accumulator, flushed on exit) and — for
/// licensed jumps — the skipped windows' decisions, ambient steps and RC
/// sweeps. Frozen-jump licensing ([`DtmPolicy::is_steady_band`] for a
/// single frozen plan, [`DtmPolicy::plan_decided_by_region`] for a whole
/// invariant plan sequence, both over the exact traversed temperature
/// rectangle — each row's two-exponential response to the frozen plan and
/// the relaxing ambient, extremes included — plus a completion-safe retire
/// cap) and the decision replay's certificates (bitwise-literal binding
/// recurrences, per-entry forcing-gap dominance, plan-run-length
/// occupancy accounting) pin every reported quantity within the envelope
/// tier's 1e-9 relative claim; window counts, simulated time and job
/// completion windows stay exact (literal repeated additions and exact
/// integer retires throughout). An already-settled ambient (within
/// [`AMBIENT_FF_EPS_C`]) degenerates to the frozen single-exponential
/// form.
// Negated comparisons refuse on NaN throughout.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn envelope_burst(
    lane: &mut Lane,
    j: usize,
    st: &mut CellState,
    engine: &SimEngine<'_>,
    band: EnvBand,
) -> Option<(MemSpotResult, CellRunStats)> {
    let started = std::time::Instant::now();
    let cfg = engine.config;
    let cores = engine.cpu.cores;
    let step = st.step_s;
    let dt = cfg.dtm_interval_s;
    let max = cfg.max_sim_time_s;
    let rows = lane.rows;
    let depth = lane.depth;
    let identity_split = lane.identity_split;
    let ambient_alpha = lane.ambient_alpha;
    let has_buffer = lane.has_buffer;
    let kinds: Vec<DeviceLayerKind> = st.scene.topology().layers().iter().map(|l| l.kind).collect();

    // Private column state (written back on fallback, synced on finalize).
    let mut rows_t: Vec<f64> = lane.temps[lane.col(j)].to_vec();
    let mut peaks: Vec<f64> = lane.peaks[lane.col(j)].to_vec();
    let mut cur_max_buf = lane.max_buffer[j];
    let mut cur_max_dram = lane.max_dram[j];

    // The plan entries the burst uses, in order of first use, each with the
    // residency seconds accumulated while it was active (flushed into the
    // cell's residency map when the burst exits). The burst indexes them
    // (decision keys, run logs, audit caches), so it keeps its own list
    // rather than the cell's bounded memo, which may overwrite a slot: a
    // plan the memo holds is copied from it, any other is built, and a
    // fallback hands the active entry back ([`CellState::adopt`]).
    let mut entries: Vec<PlanEntry> = vec![st.entry().clone()];
    let mut residency_s: Vec<f64> = vec![0.0];
    let mut cur: usize = 0;

    // Per-row closed-form coefficients of the licensed segment jump
    // (stable, λ_r-coefficient, λ_a-coefficient), filled by the licensing
    // pass and consumed by the apply pass.
    let mut jump_s: Vec<f64> = vec![0.0; rows];
    let mut jump_a: Vec<f64> = vec![0.0; rows];
    let mut jump_k: Vec<f64> = vec![0.0; rows];

    let mut env_windows: u64 = 0;
    let mut jumps: u64 = 0;
    let mut violation = false;
    // In-burst frozen-plan run length and the next run length at which a
    // segment jump is probed (doubles on a refused probe so hopeless cells
    // never pay the license check per window; resets on plan change).
    let mut run: u64 = 0;
    let mut next_attempt: u64 = ENV_JUMP_MIN;
    // Whether the policy can attest decision regions. When it can, frozen
    // segment jumps are licensed *exclusively* through the per-axis region
    // certificate: it proves the unique decision over the traced range is
    // the frozen plan itself. The legacy shared-arm band query only proves
    // the decision is *unchanging* over the range — if the trajectory
    // crossed a boundary during the very window that scheduled the probe,
    // the whole traced range sits on the far side, the level is perfectly
    // unique, and the jump would freeze the stale plan across a flip the
    // literal path takes immediately.
    let supports_region = st.policy.plan_decided_by_region(&st.observation, 0.0, 0.0).is_some();
    // Run length at which a fresh frozen run arms its first probe. Starts
    // at [`ENV_JUMP_MIN`]; drops to 2 once a probe comes back
    // certificate-limited — the signature of sliding-mode chatter, where
    // every run ends at the same decision boundary and waiting
    // [`ENV_JUMP_MIN`] literal windows per half-cycle forfeits most of it.
    let mut arm: u64 = ENV_JUMP_MIN;

    // Exact decision replay: sliding-mode chatter defeats the frozen-run
    // probe above (`run` resets on every plan flip, and an orbit whose
    // duty ratio slips never repeats an exact plan period), so when a
    // probe threshold arrives with the frozen run still short, the burst
    // replays decisions *exactly* instead of certifying them away: a
    // policy whose decisions are keyed by the device maxima
    // ([`DtmPolicy::decision_key`]) is re-evaluated per virtual window
    // from bitwise-literal binding-row and ambient scalars, while every
    // other row is reconstructed at segment close from the plan-occupancy
    // weights. `chatter_next` schedules the attempts (in burst windows).
    let mut chatter_next: u64 = 2 * ENV_JUMP_MIN;
    let replay_keys = st.policy.decision_key(f64::NAN, f64::NAN).is_some();
    // Dominance-certificate reuse across consecutive replay segments: the
    // forcing-gap half of the audit (per row, against the binding rows it
    // was derived for) depends only on the cached plan entries, not on the
    // segment's start state, so consecutive segments re-use it and re-check
    // only the O(rows) start-state gaps. `(entry_count, b_buf, b_dram)`
    // keys the cache; per row it stores (same-layer forcing gap holds,
    // forcings bitwise-equal to binding, max forcing over entries).
    let mut replay_audit_key = (usize::MAX, usize::MAX, usize::MAX);
    let mut replay_audit: Vec<(bool, bool, f64)> = Vec::new();

    loop {
        // B: the window's pre-step — the envelope tier requires
        // `step == dtm_interval` bitwise, so every window is exactly one
        // DTM decision and the stepped run's decision-due test is always
        // true here.
        st.observation.max_amb_c = if has_buffer { cur_max_buf } else { f64::NAN };
        st.observation.max_dram_c = cur_max_dram;
        st.observation.ambient_c = st.scene.ambient_c();
        let new_plan = st.policy.decide(&st.observation, dt);
        let overheaded = new_plan != entries[cur].plan;
        if overheaded {
            st.plan_streak = 0;
            run = 0;
            next_attempt = arm;
            cur = match entries.iter().position(|e| e.plan == new_plan) {
                Some(i) => i,
                None => {
                    let entry = match st.plans.iter().find(|e| e.plan == new_plan) {
                        Some(e) => e.clone(),
                        None => build_plan_entry(st, engine, new_plan),
                    };
                    entries.push(entry);
                    residency_s.push(0.0);
                    entries.len() - 1
                }
            };
        } else {
            st.plan_streak = st.plan_streak.saturating_add(1);
            run += 1;
        }
        st.next_dtm_s += dt;
        let e = &entries[cur];
        if e.progressing {
            let (instr, bytes, misses, migrated, retires) = if overheaded {
                (e.instr_oh, e.bytes_oh, e.misses_oh, e.migrated_oh, &e.retires_oh)
            } else {
                (e.instr, e.bytes, e.misses, e.migrated, &e.retires)
            };
            st.total_instructions += instr;
            st.total_bytes += bytes;
            st.total_misses += misses;
            st.migrated_bytes += migrated;
            for (core, &amount) in retires.iter().enumerate() {
                st.batch.retire(core, amount);
            }
        }
        let amb = st.scene.step_ambient(entries[cur].window.v_ipc, ambient_alpha);

        // C: a band violation in the previous window's sweep hands the
        // cell back to the lane. The invariant at this point: the current
        // window's pre-step is done, its RC sweep is not — exactly what
        // returning `true` from [`member_pre`] promises, so the lane's RC
        // and post-step pick the window up seamlessly.
        if violation {
            let col = lane.col(j);
            lane.temps[col.clone()].copy_from_slice(&rows_t);
            lane.peaks[col].copy_from_slice(&peaks);
            lane.max_buffer[j] = cur_max_buf;
            lane.max_dram[j] = cur_max_dram;
            lane.amb[j] = amb;
            env_flush_residency(st, &entries, &residency_s);
            st.adopt(entries.swap_remove(cur));
            st.overheaded = overheaded;
            lane.write_power_column(j, st.entry());
            // The detector's history went stale while the burst ran.
            st.cycle.history.clear();
            st.cycle.recording = None;
            st.env_backoff = CYCLE_RETRY_BACKOFF << st.env_fails.min(CYCLE_BACKOFF_DOUBLINGS);
            st.env_fails = st.env_fails.saturating_add(1);
            st.stats.fast_forwarded_windows += env_windows;
            st.stats.envelope_cycles += jumps + if band.slipping { env_windows / band.period } else { 0 };
            st.stats.envelope_fallbacks += 1;
            st.stats.replay_ns += started.elapsed().as_nanos() as u64;
            return None;
        }

        // D: the private RC sweep ([`lane_rc`]'s float ops on one column),
        // the band audit and the window's post-step bookkeeping.
        let e = &entries[cur];
        cur_max_buf = f64::NEG_INFINITY;
        cur_max_dram = f64::NEG_INFINITY;
        let mut in_band = true;
        for r in 0..rows {
            let l = r % depth;
            let s = row_stable(amb, e.stab_a[r], e.stab_b[r], identity_split);
            let t = &mut rows_t[r];
            *t += (s - *t) * lane.layer_alphas[l];
            peaks[r] = peaks[r].max(*t);
            match kinds[l] {
                DeviceLayerKind::Buffer => cur_max_buf = cur_max_buf.max(*t),
                DeviceLayerKind::Dram => cur_max_dram = cur_max_dram.max(*t),
            }
            in_band &= band.lo[r] <= *t && *t <= band.hi[r];
        }
        violation = !in_band;
        st.energy.add(e.window.mem_w, e.window.cpu_w, step);
        st.max_amb = st.max_amb.max(if has_buffer { cur_max_buf } else { f64::NAN });
        st.max_dram = st.max_dram.max(cur_max_dram);
        st.ambient_sum += st.scene.ambient_c();
        st.ambient_samples += 1;
        for (channel, &thr) in e.throttled.iter().enumerate() {
            if thr {
                st.channel_throttle_s[channel] += step;
            }
        }
        residency_s[cur] += step;
        st.time_s += step;
        env_windows += 1;

        // A: the stepped loop's window-head condition.
        if st.batch.is_complete() || st.time_s >= max {
            let pseudo = jumps + if band.slipping { env_windows / band.period } else { 0 };
            return Some(env_finish(st, engine, &entries, &residency_s, &rows_t, &peaks, env_windows, pseudo, started));
        }

        // Segment jump: a frozen-plan run long enough to probe is advanced
        // in closed form when (1) the whole traversed temperature range —
        // the exact two-exponential response of each row to a frozen plan
        // and a relaxing ambient — stays inside the band, and (2) the
        // policy certifies every skipped decision over that exact range
        // ([`DtmPolicy::is_steady_band`]), so each skipped decision
        // provably re-returns the frozen plan. The ambient node itself is
        // advanced in closed form too, so warmup approaches are jumped
        // long before the ambient settles.
        let chatter_probe = env_windows >= chatter_next;
        if violation || (run < next_attempt && !chatter_probe) {
            continue;
        }
        // Exact decision replay: sliding-mode chatter defeats the frozen
        // probe (the run resets on every plan flip, and an orbit whose
        // duty ratio slips never repeats an exact plan period), so a
        // policy whose decisions are keyed by the device maxima
        // ([`DtmPolicy::decision_key`]) is advanced by re-evaluating every
        // decision instead of certifying it away. Three scalars carry the
        // literal bits every decision reads — the binding (hottest) row of
        // each device kind and the shared ambient, iterated with exactly
        // the literal recurrences — while a dominance certificate proves
        // every other row stays strictly below its binding row for the
        // whole segment: each row is a convex combination of its start
        // temperature and its per-window forcings, so a margin on the
        // start gap and on every per-entry forcing gap bounds the entire
        // trajectory without tracing it. Accounting collapses to
        // plan-occupancy closed forms (per-entry window counts times the
        // cached per-window amounts), and the dominated rows are
        // reconstructed at segment close from the run log: within one plan
        // run the ambient is a single exponential, so each row follows the
        // exact two-exponential response `t = S_r + a·λ_l^k + c·λ_a^k` and
        // a run costs O(1) per row — endpoint from the λ-power ladders,
        // in-run extremes via [`env_row_range`] only when the two modes
        // pull in opposite directions.
        if run < next_attempt {
            if !replay_keys {
                // The policy cannot key decisions (PID state, spatial
                // observation): no replay, ever — stop probing.
                chatter_next = u64::MAX;
                continue;
            }
            let vt = std::time::Instant::now();
            // Key → entry table over the plans materialized so far; an
            // unseen key suspends the replay at the window that needs it
            // so the literal loop can build its entry.
            let nent = entries.len();
            if nent > REPLAY_KEYS {
                // A keyed policy materializes at most one plan per key;
                // more entries than keys means the contract is broken.
                chatter_next = u64::MAX;
                continue;
            }
            let mut key_entry = [usize::MAX; REPLAY_KEYS];
            for (k, ke) in key_entry.iter_mut().enumerate() {
                if let Some(p) = st.policy.plan_for_key(k as u8) {
                    if let Some(i) = entries.iter().position(|e| e.plan == p) {
                        *ke = i;
                    }
                }
            }
            // Binding (hottest) rows per device kind.
            let mut b_buf = usize::MAX;
            let mut b_dram = usize::MAX;
            for r in 0..rows {
                match kinds[r % depth] {
                    DeviceLayerKind::Buffer => {
                        if b_buf == usize::MAX || rows_t[r] > rows_t[b_buf] {
                            b_buf = r;
                        }
                    }
                    DeviceLayerKind::Dram => {
                        if b_dram == usize::MAX || rows_t[r] > rows_t[b_dram] {
                            b_dram = r;
                        }
                    }
                }
            }
            if b_dram == usize::MAX || !rows_t.iter().all(|t| t.is_finite()) {
                chatter_next = u64::MAX;
                continue;
            }
            let off = |e: &PlanEntry, r: usize| -> f64 {
                if identity_split {
                    e.stab_a[r] + e.stab_b[r]
                } else {
                    e.stab_a[r]
                }
            };
            // Forcing-gap half of the dominance certificate, reused across
            // consecutive segments (it depends only on the cached entries
            // and the binding rows, never on the segment's start state).
            if replay_audit_key != (nent, b_buf, b_dram) {
                replay_audit.clear();
                for r in 0..rows {
                    let b = match kinds[r % depth] {
                        DeviceLayerKind::Buffer => b_buf,
                        DeviceLayerKind::Dram => b_dram,
                    };
                    let same_layer = b != usize::MAX && r % depth == b % depth;
                    let gap_ok = same_layer && entries.iter().all(|e| off(e, r) - off(e, b) <= -REPLAY_GAP_C);
                    let twin_ok = same_layer
                        && entries
                            .iter()
                            .all(|e| e.stab_a[r] == e.stab_a[b] && (!identity_split || e.stab_b[r] == e.stab_b[b]));
                    let hi_off = entries.iter().map(|e| off(e, r)).fold(f64::NEG_INFINITY, f64::max);
                    replay_audit.push((gap_ok, twin_ok, hi_off));
                }
                replay_audit_key = (nent, b_buf, b_dram);
            }
            // Segment ambient range for the cross-layer dominance bound:
            // the ambient is itself a convex combination of its start
            // value and the per-entry stable targets.
            let amb0 = st.scene.ambient_c();
            let stab_amb: Vec<f64> = {
                let ap = st.scene.ambient_params();
                entries.iter().map(|e| ap.stable_ambient_c(e.window.v_ipc)).collect()
            };
            let amb_min = stab_amb.iter().fold(amb0, |m, &s| m.min(s));
            let amb_max = stab_amb.iter().fold(amb0, |m, &s| m.max(s));
            // Start-state half of the certificate. Roles for the close
            // pass: 1 = binding, 2 = bitwise twin of its binding row
            // (equal state, forcing and band — stays bitwise equal, so the
            // binding scalar tracks it exactly), 0 = dominated, closed via
            // occupancy weights.
            let mut roles: Vec<u8> = vec![0; rows];
            roles[b_dram] = 1;
            if b_buf != usize::MAX {
                roles[b_buf] = 1;
            }
            let mut sound = true;
            for r in 0..rows {
                if roles[r] == 1 {
                    continue;
                }
                let b = match kinds[r % depth] {
                    DeviceLayerKind::Buffer => b_buf,
                    DeviceLayerKind::Dram => b_dram,
                };
                let (gap_ok, twin_ok, hi_off) = replay_audit[r];
                if twin_ok && rows_t[r] == rows_t[b] && band.lo[r] == band.lo[b] && band.hi[r] == band.hi[b] {
                    roles[r] = 2;
                } else if r % depth == b % depth {
                    sound &= gap_ok && rows_t[r] - rows_t[b] <= -REPLAY_GAP_C;
                } else {
                    let lo_off_b = entries.iter().map(|e| off(e, b)).fold(f64::INFINITY, f64::min);
                    let hi_r = rows_t[r].max(amb_max + hi_off);
                    let lo_b = rows_t[b].min(amb_min + lo_off_b);
                    sound &= hi_r <= lo_b - REPLAY_GAP_C;
                }
            }
            if !sound {
                st.stats.verify_ns += vt.elapsed().as_nanos() as u64;
                chatter_next = env_windows.saturating_mul(2).max(env_windows.saturating_add(ENV_JUMP_MIN));
                continue;
            }
            // Completion-safe cap: strictly fewer windows than the
            // earliest possible job-copy completion at the fastest cached
            // retire rate, so the bulk retires at segment close land
            // before any completion and `is_complete` flips exactly where
            // literal stepping puts it.
            let mut w_cap = u64::MAX;
            for core in 0..cores {
                let rate = entries
                    .iter()
                    .filter(|e| e.progressing)
                    .map(|e| e.retires[core].max(e.retires_oh[core]))
                    .max()
                    .unwrap_or(0);
                if rate == 0 {
                    continue;
                }
                if let Some(s) = st.batch.slot(core) {
                    w_cap = w_cap.min(s.remaining_instructions.div_ceil(rate).max(1) - 1);
                }
            }
            if w_cap == 0 {
                st.stats.verify_ns += vt.elapsed().as_nanos() as u64;
                chatter_next = env_windows.saturating_add(ENV_JUMP_MIN);
                continue;
            }
            // Per-layer and ambient λ-power ladders closing the logged
            // runs (every in-replay run is at most [`REPLAY_RUN_EXIT`]
            // long). The close pass needs the mode-splitting coefficient
            // `c = α_l·A·λ_a/(λ_a − λ_l)`; a degenerate lane whose layer
            // shares the ambient decay rate has no two-exponential split,
            // so the replay refuses it once and for all.
            let lambda_amb = 1.0 - ambient_alpha;
            if lane.layer_alphas.iter().any(|&al| (lambda_amb - (1.0 - al)).abs() < 1e-9) {
                st.stats.verify_ns += vt.elapsed().as_nanos() as u64;
                chatter_next = u64::MAX;
                continue;
            }
            let mut lam_tab: Vec<f64> = Vec::with_capacity(depth * (REPLAY_RUN_EXIT + 1));
            for l in 0..depth {
                let lambda = 1.0 - lane.layer_alphas[l];
                let mut p = 1.0;
                for _ in 0..=REPLAY_RUN_EXIT {
                    lam_tab.push(p);
                    p *= lambda;
                }
            }
            let mut laa_tab: Vec<f64> = Vec::with_capacity(REPLAY_RUN_EXIT + 1);
            {
                let mut p = 1.0;
                for _ in 0..=REPLAY_RUN_EXIT {
                    laa_tab.push(p);
                    p *= lambda_amb;
                }
            }
            // Binding-scalar constants: everything a virtual window reads.
            let a_dram = lane.layer_alphas[b_dram % depth];
            let sa_dram: Vec<f64> = entries.iter().map(|e| e.stab_a[b_dram]).collect();
            let sb_dram: Vec<f64> = entries.iter().map(|e| e.stab_b[b_dram]).collect();
            let (a_buf, sa_buf, sb_buf) = if b_buf != usize::MAX {
                (
                    lane.layer_alphas[b_buf % depth],
                    entries.iter().map(|e| e.stab_a[b_buf]).collect::<Vec<f64>>(),
                    entries.iter().map(|e| e.stab_b[b_buf]).collect::<Vec<f64>>(),
                )
            } else {
                (0.0, Vec::new(), Vec::new())
            };
            st.stats.verify_ns += vt.elapsed().as_nanos() as u64;
            // The run log: (entry, in-replay length, ambient at run entry)
            // per maximal constant-plan span — everything the close pass
            // needs to replay a dominated row run by run in closed form.
            let mut runs_log: Vec<(u32, u32, f64)> = Vec::new();
            let mut counts: Vec<u64> = vec![0; nent];
            let mut counts_oh: Vec<u64> = vec![0; nent];
            let mut amb_l = amb0;
            let mut time_l = st.time_s;
            let mut t_dram = cur_max_dram;
            let mut t_buf = if has_buffer { cur_max_buf } else { f64::NAN };
            let mut peak_dram = f64::NEG_INFINITY;
            let mut peak_buf = f64::NEG_INFINITY;
            let mut w: u64 = 0;
            let mut cur_l = cur;
            let mut run_l = run;
            let mut run_len: usize = 0;
            let mut flipped = false;
            let mut amb_sum = 0.0;
            let mut finished = false;
            let mut viol = false;
            let mut amb_run0 = amb0;
            // The replay loop: per virtual window, the literal decision
            // (from the binding maxima), the literal ambient step, the
            // literal binding-row sweeps with their band audit, and the
            // per-entry occupancy counts. A frozen run reaching
            // [`REPLAY_RUN_EXIT`] hands back to the closed-form probe —
            // a monotone approach is O(1) there, O(windows) here.
            loop {
                if run_l >= REPLAY_RUN_EXIT as u64 || w >= w_cap {
                    break;
                }
                let Some(key) = st.policy.decision_key(t_buf, t_dram) else {
                    break;
                };
                let ei = key_entry.get(key as usize).copied().unwrap_or(usize::MAX);
                if ei == usize::MAX {
                    break;
                }
                if ei != cur_l {
                    if run_len > 0 {
                        runs_log.push((cur_l as u32, run_len as u32, amb_run0));
                    }
                    amb_run0 = amb_l;
                    run_len = 1;
                    run_l = 0;
                    flipped = true;
                    cur_l = ei;
                    counts_oh[ei] += 1;
                } else {
                    run_len += 1;
                    run_l += 1;
                    counts[ei] += 1;
                }
                amb_l += (stab_amb[cur_l] - amb_l) * ambient_alpha;
                let s = row_stable(amb_l, sa_dram[cur_l], sb_dram[cur_l], identity_split);
                t_dram += (s - t_dram) * a_dram;
                peak_dram = peak_dram.max(t_dram);
                let mut in_band = band.lo[b_dram] <= t_dram && t_dram <= band.hi[b_dram];
                if has_buffer {
                    let s = row_stable(amb_l, sa_buf[cur_l], sb_buf[cur_l], identity_split);
                    t_buf += (s - t_buf) * a_buf;
                    peak_buf = peak_buf.max(t_buf);
                    in_band &= band.lo[b_buf] <= t_buf && t_buf <= band.hi[b_buf];
                }
                amb_sum += amb_l;
                time_l += step;
                w += 1;
                viol = !in_band;
                finished = time_l >= max;
                if viol || finished {
                    break;
                }
            }
            if w == 0 {
                // Nothing replayed: a long frozen run belongs to the
                // closed-form probe; an unseen key needs one literal
                // window to materialize its entry.
                if run_l >= REPLAY_RUN_EXIT as u64 {
                    next_attempt = run;
                    chatter_next = env_windows.saturating_add(2 * ENV_JUMP_MIN);
                } else {
                    chatter_next = env_windows.saturating_add(1);
                }
                continue;
            }
            if run_len > 0 {
                runs_log.push((cur_l as u32, run_len as u32, amb_run0));
            }
            // Close the segment: exact binding/twin write-back, then each
            // dominated row replayed run by run in closed form — within
            // one run the ambient is a single exponential, so the row is
            // the exact two-exponential `t(k) = S_r + a·λ_l^k + c·λ_a^k`
            // with `c = α_l·A·λ_a/(λ_a − λ_l)` (A the ambient's offset
            // from its run target). Run endpoints come from the power
            // ladders; in-run extremes need [`env_row_range`] only when
            // the modes pull in opposite directions (rare — the ambient
            // and the row usually chase the same plan flip), so a run is
            // O(1) per row against O(len) literal windows. The close also
            // audits every reconstructed row against the band.
            // Per-run constants. The row endpoint map is affine with
            // shared coefficients per (run, layer) — `t' = t·λ_l^n +
            // base_{l} + off_r·(1 − λ_l^n)` — so a dominated row costs two
            // multiplies per run, and `ambx` (the run's highest possible
            // forcing ambient) pre-filters the in-run extremum search: any
            // in-run value is bounded by `max(t_start, ambx + off_r)`.
            // The dominated rows, scanned run-major with the rows in the
            // inner loop: each row's endpoint recurrence is a serial
            // dependency chain over tens of thousands of runs, so keeping
            // the rows innermost interleaves the chains (one independent
            // chain per row) instead of serializing on one. Rows are
            // grouped per layer so the affine coefficients are scalar
            // constants inside the inner loop. The in-run extremum search
            // stays out of the hot loop: an interior extreme needs the row
            // mode and the ambient mode pulling in opposite directions AND
            // a forcing ceiling (`ambx + off_r`, which bounds any in-run
            // value together with the running peak) above the recorded
            // peak — chatter runs chase the same plan flip, so the slow
            // path is cold.
            let mut lay_rows: Vec<Vec<usize>> = vec![Vec::new(); depth];
            for r in 0..rows {
                if roles[r] == 0 {
                    lay_rows[r % depth].push(r);
                }
            }
            for (l, rl) in lay_rows.iter().enumerate() {
                let n = rl.len();
                if n == 0 {
                    continue;
                }
                let lambda = 1.0 - lane.layer_alphas[l];
                let mut t: Vec<f64> = rl.iter().map(|&r| rows_t[r]).collect();
                let mut pk: Vec<f64> = rl.iter().map(|&r| peaks[r]).collect();
                let mut offs: Vec<f64> = vec![0.0; nent * n];
                for (e2, e) in entries.iter().enumerate() {
                    for (j, &r) in rl.iter().enumerate() {
                        offs[e2 * n + j] = off(e, r);
                    }
                }
                // Two run-level certificates keep per-row work minimal.
                // `pkm[e]` under-approximates `min_r (pk_r − off_er)`: when
                // a run's `ambx` sits below it, every in-run value of every
                // row (bounded by `max(t, ambx + off_r)` with the `t ≤ pk`
                // invariant) stays under the recorded peaks, so the run
                // needs only the endpoint map. `pkM[e]` over-approximates
                // `max_r (pk_r − off_er)`: when the run's ambient mode
                // falls (`c < 0`) and `pkM[e] < S_amb,e + c`, every row
                // starts below its two-exponential target with both modes
                // pulling the same way — no interior extreme exists and the
                // in-run max is the endpoint. `pk` only grows, so a stale
                // `pkm` is conservative, while `pkM` is refreshed whenever
                // a peak moved before it is trusted again.
                let mut pkm: Vec<f64> = vec![f64::NEG_INFINITY; nent];
                let mut pkx: Vec<f64> = vec![f64::INFINITY; nent];
                let refresh_pkm = |pkm: &mut Vec<f64>, pkx: &mut Vec<f64>, pk: &[f64], offs: &[f64]| {
                    for e2 in 0..nent {
                        let ob = &offs[e2 * n..(e2 + 1) * n];
                        let mut m = f64::INFINITY;
                        let mut x = f64::NEG_INFINITY;
                        for j in 0..n {
                            m = m.min(pk[j] - ob[j]);
                            x = x.max(pk[j] - ob[j]);
                        }
                        pkm[e2] = m;
                        pkx[e2] = x;
                    }
                };
                refresh_pkm(&mut pkm, &mut pkx, &pk, &offs);
                let mut dirty = false;
                // The per-run affine coefficients are recomputed inline
                // from the λ-power ladders (the division in `c` hoists to
                // the per-layer constant `q`) — cheaper than building and
                // re-streaming megabytes of per-run coefficient arrays.
                let q = lane.layer_alphas[l] * lambda_amb / (lambda_amb - (1.0 - lane.layer_alphas[l]));
                let lt = &lam_tab[l * (REPLAY_RUN_EXIT + 1)..(l + 1) * (REPLAY_RUN_EXIT + 1)];
                for &(ei, len, amb0r) in runs_log.iter() {
                    let s_amb_e = stab_amb[ei as usize];
                    let lp = lt[len as usize];
                    let k1 = 1.0 - lp;
                    let c = (amb0r - s_amb_e) * q;
                    let base = s_amb_e * k1 + c * (laa_tab[len as usize] - lp);
                    let ambx = amb0r.max(s_amb_e);
                    let ob = &offs[ei as usize * n..(ei as usize + 1) * n];
                    if ambx <= pkm[ei as usize] {
                        for j in 0..n {
                            t[j] = t[j] * lp + base + ob[j] * k1;
                        }
                        continue;
                    }
                    if dirty {
                        refresh_pkm(&mut pkm, &mut pkx, &pk, &offs);
                        dirty = false;
                    }
                    if c < 0.0 && pkx[ei as usize] < s_amb_e + c {
                        // Endpoint-only body: peaks can move, extremes not.
                        for j in 0..n {
                            let tn = t[j] * lp + base + ob[j] * k1;
                            dirty |= tn > pk[j];
                            pk[j] = pk[j].max(tn);
                            t[j] = tn;
                        }
                        continue;
                    }
                    let mut hot = false;
                    for j in 0..n {
                        let ofr = ob[j];
                        let tn = t[j] * lp + base + ofr * k1;
                        let pkn = pk[j].max(tn);
                        let a = (t[j] - s_amb_e - ofr) - c;
                        hot |= ((a > 0.0) != (c > 0.0)) & (a != 0.0) & (c != 0.0) & (ambx + ofr > pkn);
                        dirty |= tn > pk[j];
                        t[j] = tn;
                        pk[j] = pkn;
                    }
                    if hot {
                        // Cold path: some row may peak inside the run.
                        // Recover each row's run-entry state by inverting
                        // the affine endpoint map (λ^len > 0; the ~1 ulp
                        // inversion slop only feeds the peak bound, which
                        // tolerates far more than the 1e-9 guarantee).
                        for j in 0..n {
                            let ofr = ob[j];
                            let s_r = s_amb_e + ofr;
                            let tp = (t[j] - base - ofr * k1) / lp;
                            let a = (tp - s_r) - c;
                            if a != 0.0 && c != 0.0 && (a > 0.0) != (c > 0.0) && ambx + ofr > pk[j] {
                                let (_, _, hi) = env_row_range(a, c, lambda, lambda_amb, len as f64);
                                dirty |= s_r + hi > pk[j];
                                pk[j] = pk[j].max(s_r + hi);
                            }
                        }
                    }
                }
                for (j, &r) in rl.iter().enumerate() {
                    rows_t[r] = t[j];
                    peaks[r] = pk[j];
                }
            }
            for r in 0..rows {
                let new_t = match roles[r] {
                    1 | 2 => match kinds[r % depth] {
                        DeviceLayerKind::Dram => {
                            peaks[r] = peaks[r].max(peak_dram);
                            t_dram
                        }
                        DeviceLayerKind::Buffer => {
                            peaks[r] = peaks[r].max(peak_buf);
                            t_buf
                        }
                    },
                    _ => rows_t[r],
                };
                rows_t[r] = new_t;
                viol |= !(band.lo[r] <= new_t && new_t <= band.hi[r]);
            }
            cur_max_dram = t_dram;
            cur_max_buf = if has_buffer { t_buf } else { f64::NEG_INFINITY };
            st.max_dram = st.max_dram.max(peak_dram);
            if has_buffer {
                st.max_amb = st.max_amb.max(peak_buf);
            }
            st.scene.set_ambient_c(amb_l);
            st.ambient_sum += amb_sum;
            st.ambient_samples += w;
            for _ in 0..w {
                st.time_s += step;
                st.next_dtm_s += dt;
            }
            for (i, e) in entries.iter().enumerate() {
                let (c, coh) = (counts[i], counts_oh[i]);
                if c + coh == 0 {
                    continue;
                }
                let (cf, cohf) = (c as f64, coh as f64);
                let totf = cf + cohf;
                residency_s[i] += step * totf;
                if e.progressing {
                    st.total_instructions += e.instr * cf + e.instr_oh * cohf;
                    st.total_bytes += e.bytes * cf + e.bytes_oh * cohf;
                    st.total_misses += e.misses * cf + e.misses_oh * cohf;
                    st.migrated_bytes += e.migrated * cf + e.migrated_oh * cohf;
                    for (core, (&r, &r_oh)) in e.retires.iter().zip(&e.retires_oh).enumerate() {
                        st.batch.retire(core, r * c + r_oh * coh);
                    }
                }
                st.energy.add(e.window.mem_w, e.window.cpu_w, step * totf);
                for (channel, &thr) in e.throttled.iter().enumerate() {
                    if thr {
                        st.channel_throttle_s[channel] += step * totf;
                    }
                }
            }
            env_windows += w;
            jumps += 1;
            cur = cur_l;
            run = run_l;
            st.plan_streak = if flipped {
                run_l.min(u64::from(u32::MAX)) as u32
            } else {
                st.plan_streak.saturating_add(w.min(u64::from(u32::MAX)) as u32)
            };
            // The replay owns chatter now, so the fast re-arm of
            // certificate-limited closed-form jumps is rolled back; a long
            // frozen tail is handed straight to the closed-form probe,
            // anything else re-enters the replay after one literal window.
            arm = ENV_JUMP_MIN;
            if run_l >= REPLAY_RUN_EXIT as u64 {
                next_attempt = run;
                chatter_next = env_windows.saturating_add(2 * ENV_JUMP_MIN);
            } else {
                next_attempt = run.max(ENV_JUMP_MIN);
                chatter_next = env_windows;
            }
            if finished || st.batch.is_complete() || st.time_s >= max {
                let pseudo = jumps + if band.slipping { env_windows / band.period } else { 0 };
                return Some(env_finish(
                    st,
                    engine,
                    &entries,
                    &residency_s,
                    &rows_t,
                    &peaks,
                    env_windows,
                    pseudo,
                    started,
                ));
            }
            violation = viol;
            continue;
        }
        let e = &entries[cur];
        let stable_ambient = st.scene.ambient_params().stable_ambient_c(e.window.v_ipc);
        let lambda_a = 1.0 - ambient_alpha;
        let amb_c = st.scene.ambient_c();
        let mut a0 = amb_c - stable_ambient;
        // A settled (or non-relaxing) ambient degenerates to the frozen
        // single-exponential form: zero λ_a-coefficient everywhere.
        let amb_static = !(lambda_a > 0.0 && lambda_a < 1.0) || a0.abs() <= AMBIENT_FF_EPS_C;
        if amb_static {
            a0 = 0.0;
        }
        // Completion-safe cap: strictly fewer windows than the earliest
        // possible job-copy completion, so bulk retires land on the same
        // windows literal stepping would. The wall-time cap keeps the
        // licensed range exactly the applied range.
        let cap: u64 = if e.progressing {
            (0..cores)
                .filter(|&c| e.retires[c] > 0)
                .filter_map(|c| st.batch.slot(c).map(|s| s.remaining_instructions.div_ceil(e.retires[c]).max(1) - 1))
                .min()
                .unwrap_or(u64::MAX)
        } else {
            u64::MAX
        };
        let time_cap = (((max - st.time_s) / step).ceil().max(1.0)) as u64;
        let n_max = cap.min(time_cap);
        let n0 = run.min(n_max);
        if n0 == 0 {
            next_attempt = run.saturating_mul(2);
            continue;
        }
        // Horizon-independent row coefficients of the frozen-plan
        // two-exponential (stable point, λ_r- and λ_a-coefficients),
        // shared by every trial horizon below.
        let mut licensed = true;
        for (r, &t_r) in rows_t.iter().enumerate() {
            let l = r % depth;
            let lambda = 1.0 - lane.layer_alphas[l];
            let off = if identity_split { e.stab_a[r] + e.stab_b[r] } else { e.stab_a[r] };
            let (s_r, kcoef) = if amb_static {
                (amb_c + off, 0.0)
            } else {
                let gap = lambda_a - lambda;
                if gap.abs() < 1e-9 {
                    licensed = false;
                    break;
                }
                (stable_ambient + off, (1.0 - lambda) * a0 * lambda_a / gap)
            };
            jump_s[r] = s_r;
            jump_a[r] = t_r - s_r - kcoef;
            jump_k[r] = kcoef;
        }
        if !licensed {
            next_attempt = run.saturating_mul(2);
            continue;
        }
        // The exact maxima ranges the trajectory traces over a trial
        // horizon, with the burst band audited per row; `None` refuses
        // the horizon outright.
        let range_for = |nf: f64| -> Option<(f64, f64, f64, f64)> {
            let (mut buf_lo, mut buf_hi) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
            let (mut dram_lo, mut dram_hi) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
            for r in 0..rows {
                let l = r % depth;
                let lambda = 1.0 - lane.layer_alphas[l];
                let (t_end, lo_f, hi_f) = env_row_range(jump_a[r], jump_k[r], lambda, lambda_a, nf);
                let (lo_r, hi_r) = (jump_s[r] + lo_f, jump_s[r] + hi_f);
                if !(t_end.is_finite() && band.lo[r] <= lo_r && hi_r <= band.hi[r]) {
                    return None;
                }
                match kinds[l] {
                    DeviceLayerKind::Buffer => {
                        buf_lo = buf_lo.max(lo_r);
                        buf_hi = buf_hi.max(hi_r);
                    }
                    DeviceLayerKind::Dram => {
                        dram_lo = dram_lo.max(lo_r);
                        dram_hi = dram_hi.max(hi_r);
                    }
                }
            }
            Some((buf_lo, buf_hi, dram_lo, dram_hi))
        };
        // The frozen-plan attestations: the legacy shared-arm band query
        // (kept for policies without decision-region support) and the
        // per-axis region certificate — the device axes trace independent
        // ranges, so a wide buffer swing no longer inflates the DRAM arm
        // across a threshold it never approaches.
        let steady_at = |rg: &(f64, f64, f64, f64), obs: &mut ThermalObservation| -> bool {
            let (buf_lo, buf_hi, dram_lo, dram_hi) = *rg;
            let (mut below, mut above) = (0.0f64, 0.0f64);
            if has_buffer {
                below = below.max((cur_max_buf - buf_lo).max(0.0));
                above = above.max((buf_hi - cur_max_buf).max(0.0));
            }
            below = below.max((cur_max_dram - dram_lo).max(0.0)) + ENV_FP_GUARD_C;
            above = above.max((dram_hi - cur_max_dram).max(0.0)) + ENV_FP_GUARD_C;
            if !(below.is_finite() && above.is_finite()) {
                return false;
            }
            obs.max_amb_c = if has_buffer { cur_max_buf } else { f64::NAN };
            obs.max_dram_c = cur_max_dram;
            obs.ambient_c = amb_c;
            st.policy.is_steady_band(obs, &e.plan, below, above)
        };
        let region_at = |rg: &(f64, f64, f64, f64), obs: &mut ThermalObservation| -> bool {
            let (buf_lo, buf_hi, dram_lo, dram_hi) = *rg;
            let dram_span = (dram_hi - dram_lo) + 2.0 * ENV_FP_GUARD_C;
            let amb_span = if has_buffer { (buf_hi - buf_lo) + 2.0 * ENV_FP_GUARD_C } else { 0.0 };
            if !(dram_span.is_finite() && amb_span.is_finite()) {
                return false;
            }
            obs.max_amb_c = if has_buffer { buf_lo - ENV_FP_GUARD_C } else { f64::NAN };
            obs.max_dram_c = dram_lo - ENV_FP_GUARD_C;
            obs.ambient_c = amb_c;
            st.policy.plan_decided_by_region(obs, amb_span, dram_span).as_ref() == Some(&e.plan)
        };
        let attest = |rg: &(f64, f64, f64, f64), obs: &mut ThermalObservation| -> bool {
            if supports_region {
                region_at(rg, obs)
            } else {
                steady_at(rg, obs)
            }
        };
        // The licensed horizon: attested ranges nest as the horizon
        // shrinks, so licensing is monotone in n and binary search finds
        // the largest licensed horizon exactly. The horizon is NOT bounded
        // by the observed run length — the certificate itself proves plan
        // invariance over the traced range — so a run hugging a threshold
        // from one side is jumped to the chatter boundary in one segment,
        // and a monotone approach is jumped to its completion or wall cap.
        let mut n = n0;
        let ok = if match range_for(n0 as f64) {
            Some(rg) => attest(&rg, &mut st.observation),
            None => false,
        } {
            if n0 < n_max {
                let full = match range_for(n_max as f64) {
                    Some(rg) => attest(&rg, &mut st.observation),
                    None => false,
                };
                if full {
                    n = n_max;
                } else {
                    let (mut lo, mut hi) = (n0, n_max);
                    while hi - lo > 1 {
                        let mid = lo + (hi - lo) / 2;
                        let good = match range_for(mid as f64) {
                            Some(rg) => attest(&rg, &mut st.observation),
                            None => false,
                        };
                        if good {
                            lo = mid;
                        } else {
                            hi = mid;
                        }
                    }
                    n = lo;
                }
            }
            true
        } else if n0 > 1
            && match range_for(1.0) {
                Some(rg) => attest(&rg, &mut st.observation),
                None => false,
            }
        {
            // Near a decision boundary the largest licensed horizon is
            // shorter than the run that scheduled the probe.
            let (mut lo, mut hi) = (1u64, n0);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                let good = match range_for(mid as f64) {
                    Some(rg) => attest(&rg, &mut st.observation),
                    None => false,
                };
                if good {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            n = lo;
            true
        } else {
            false
        };
        if !ok {
            next_attempt = run.saturating_mul(2);
            continue;
        }
        // A certificate-limited horizon marks a chattering cell: the plan
        // flips right past the jump, so future runs re-arm fast instead of
        // paying [`ENV_JUMP_MIN`] literal windows per chatter half-cycle.
        if n < n_max {
            arm = 2;
        }
        // Apply the jump: literal time/decision-clock additions (exact
        // window counts), `rate × m` accounting, closed-form ambient
        // (endpoint and running sum from the geometric series), and
        // closed-form temperatures with each row's in-segment extremes —
        // not just the endpoints — folded into peaks and maxima.
        let mut m: u64 = 0;
        while m < n && st.time_s < max {
            st.time_s += step;
            st.next_dtm_s += dt;
            m += 1;
        }
        if m == 0 {
            continue;
        }
        let mf = m as f64;
        if e.progressing {
            st.total_instructions += e.instr * mf;
            st.total_bytes += e.bytes * mf;
            st.total_misses += e.misses * mf;
            st.migrated_bytes += e.migrated * mf;
            for (core, &rate) in e.retires.iter().enumerate() {
                st.batch.retire(core, rate * m);
            }
        }
        st.energy.add(e.window.mem_w, e.window.cpu_w, step * mf);
        for (channel, &thr) in e.throttled.iter().enumerate() {
            if thr {
                st.channel_throttle_s[channel] += step * mf;
            }
        }
        if amb_static {
            st.ambient_sum += amb_c * mf;
        } else {
            st.ambient_sum += st.scene.ambient_segment_moments(stable_ambient, a0, lambda_a, mf);
        }
        st.ambient_samples += m;
        cur_max_buf = f64::NEG_INFINITY;
        cur_max_dram = f64::NEG_INFINITY;
        let mut peak_buf = f64::NEG_INFINITY;
        let mut peak_dram = f64::NEG_INFINITY;
        for r in 0..rows {
            let l = r % depth;
            let lambda = 1.0 - lane.layer_alphas[l];
            let (t_end, _, hi_f) = env_row_range(jump_a[r], jump_k[r], lambda, lambda_a, mf);
            let t = jump_s[r] + t_end;
            let hi = jump_s[r] + hi_f;
            rows_t[r] = t;
            peaks[r] = peaks[r].max(hi);
            match kinds[l] {
                DeviceLayerKind::Buffer => {
                    cur_max_buf = cur_max_buf.max(t);
                    peak_buf = peak_buf.max(hi);
                }
                DeviceLayerKind::Dram => {
                    cur_max_dram = cur_max_dram.max(t);
                    peak_dram = peak_dram.max(hi);
                }
            }
        }
        st.max_amb = st.max_amb.max(if has_buffer { peak_buf } else { f64::NAN });
        st.max_dram = st.max_dram.max(peak_dram);
        residency_s[cur] += step * mf;
        st.plan_streak = st.plan_streak.saturating_add(m.min(u64::from(u32::MAX)) as u32);
        run += m;
        next_attempt = run;
        env_windows += m;
        jumps += 1;
        if st.batch.is_complete() || st.time_s >= max {
            let pseudo = jumps + if band.slipping { env_windows / band.period } else { 0 };
            return Some(env_finish(st, engine, &entries, &residency_s, &rows_t, &peaks, env_windows, pseudo, started));
        }
    }
}

/// Folds a finished cell's accumulators into its result through the same
/// [`assemble_result`] path as the per-cell engine. The caller must have
/// synchronized the cell's scene (temperatures and peaks) beforehand.
fn finalize(st: &mut CellState, engine: &SimEngine<'_>) -> (MemSpotResult, CellRunStats) {
    let totals = RunTotals {
        completed: st.batch.is_complete(),
        time_s: st.time_s,
        total_instructions: st.total_instructions,
        total_bytes: st.total_bytes,
        total_misses: st.total_misses,
        migrated_bytes: st.migrated_bytes,
        max_amb: st.max_amb,
        max_dram: st.max_dram,
        ambient_sum: st.ambient_sum,
        ambient_samples: st.ambient_samples,
        residency: std::mem::take(&mut st.residency),
        trace: std::mem::take(&mut st.trace),
        channel_throttle_s: std::mem::take(&mut st.channel_throttle_s),
    };
    let result = assemble_result(&st.mix, engine.config, st.policy.as_ref(), &st.scene, &st.energy, totals);
    (result, st.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtm::acg::DtmAcg;
    use crate::dtm::no_limit::NoLimit;
    use crate::dtm::ts::DtmTs;
    use crate::thermal::params::{CoolingConfig, StackKind, ThermalLimits};
    use workloads::mixes;

    fn hardware() -> (CpuConfig, FbdimmConfig, FbdimmPowerModel, PaperCpuPower) {
        (
            CpuConfig::paper_quad_core(),
            FbdimmConfig::ddr2_667_paper(),
            FbdimmPowerModel::paper_defaults(),
            PaperCpuPower::new(),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn reference(
        cpu: &CpuConfig,
        mem: &FbdimmConfig,
        power: &FbdimmPowerModel,
        cpu_power: &PaperCpuPower,
        config: &MemSpotConfig,
        mix: &WorkloadMix,
        policy: &mut dyn DtmPolicy,
        store: Arc<CharStore>,
    ) -> MemSpotResult {
        let mut table = CharacterizationTable::with_store(
            cpu.clone(),
            *mem,
            mix.id.clone(),
            mix.apps.clone(),
            config.characterization_budget,
            store,
        )
        .with_rotation_threads(1);
        SimEngine::new(cpu, mem, power, cpu_power, config).run(&mut table, mix, policy)
    }

    #[test]
    fn literal_batched_results_are_bit_identical_to_the_per_cell_engine() {
        let (cpu, mem, power, cpu_power) = hardware();
        let store = Arc::new(CharStore::new());
        let limits = ThermalLimits::paper_fbdimm();
        let configs = [
            MemSpotConfig::tiny(CoolingConfig::aohs_1_5()),
            MemSpotConfig::tiny(CoolingConfig::aohs_1_5()).with_integrated(None),
            MemSpotConfig::tiny(CoolingConfig::fdhs_1_0()).with_stack(StackKind::RankPair),
        ];
        let policies: [Box<dyn DtmPolicy>; 3] = [
            Box::new(NoLimit::new(&cpu)),
            Box::new(DtmTs::new(cpu.clone(), limits)),
            Box::new(DtmAcg::new(cpu.clone(), limits)),
        ];
        let cells: Vec<BatchCell> = configs
            .iter()
            .zip(policies)
            .map(|(config, policy)| {
                BatchCell::new(&cpu, &mem, *config, mixes::w1(), policy, Arc::clone(&store)).with_rotation_threads(1)
            })
            .collect();
        let engine = BatchedSimEngine::new(&cpu, &mem, &power, &cpu_power);
        let batched = engine.run(cells, &BatchOptions::literal());

        let expectations: [Box<dyn DtmPolicy>; 3] = [
            Box::new(NoLimit::new(&cpu)),
            Box::new(DtmTs::new(cpu.clone(), limits)),
            Box::new(DtmAcg::new(cpu.clone(), limits)),
        ];
        for ((config, mut policy), (got, stats)) in configs.iter().zip(expectations).zip(&batched) {
            let want =
                reference(&cpu, &mem, &power, &cpu_power, config, &mixes::w1(), policy.as_mut(), Arc::clone(&store));
            assert_eq!(*got, want, "batched run diverged from the per-cell engine");
            assert_eq!(stats.fast_forwarded_windows, 0, "literal mode must never fast-forward");
            assert!(stats.stepped_windows > 0);
        }
    }

    /// Forwards every call the window loop makes to `inner` and records
    /// each distinct plan `inner` decides, so a test can tell how many
    /// memo entries a cell needed.
    #[derive(Debug)]
    struct PlanRecorder {
        inner: Box<dyn DtmPolicy>,
        seen: Arc<std::sync::Mutex<Vec<ActuationPlan>>>,
    }

    impl DtmPolicy for PlanRecorder {
        fn decide(&mut self, observation: &ThermalObservation, dt_s: f64) -> ActuationPlan {
            let plan = self.inner.decide(observation, dt_s);
            let mut seen = self.seen.lock().expect("recorder lock");
            if !seen.contains(&plan) {
                seen.push(plan.clone());
            }
            plan
        }

        fn scheme(&self) -> crate::dtm::policy::DtmScheme {
            self.inner.scheme()
        }

        fn uses_pid(&self) -> bool {
            self.inner.uses_pid()
        }

        fn reset(&mut self) {
            self.inner.reset();
        }

        fn observes_field(&self) -> bool {
            self.inner.observes_field()
        }
    }

    #[test]
    fn literal_grid_policies_are_bit_identical_across_lane_widths_and_a_full_plan_memo() {
        // The stateful policy set no analytic tier certifies (DTM-TS, the
        // PID variants, CBW, MIG) in three lanes of widths 3, 2 and 1 —
        // the last a non-identity 3D stack, so the kernel's superposition
        // branch runs — each cell bit-identical to a per-cell MemSpot run.
        // MIG's steering weights are continuous, so its cell decides more
        // distinct plans than the memo holds and exercises the round-robin
        // overwrite.
        let (cpu, mem, power, cpu_power) = hardware();
        let store = Arc::new(CharStore::new());
        let config = |cooling: CoolingConfig, stack: StackKind| MemSpotConfig {
            copies_per_app: 4,
            instruction_scale: 1.0,
            characterization_budget: 8_000,
            max_sim_time_s: 2_000.0,
            ..MemSpotConfig::paper(cooling).with_stack(stack)
        };
        let (aohs, fdhs) = (CoolingConfig::aohs_1_5(), CoolingConfig::fdhs_1_0());
        let limits = ThermalLimits::paper_fbdimm();
        let specs: Vec<(MemSpotConfig, WorkloadMix, u8)> = vec![
            (config(aohs, StackKind::Fbdimm), mixes::w2(), 0),
            (config(aohs, StackKind::Fbdimm), mixes::w2(), 1),
            (config(aohs, StackKind::Fbdimm), mixes::w2(), 2),
            (config(fdhs, StackKind::Fbdimm), mixes::w2(), 3),
            (config(fdhs, StackKind::Fbdimm), mixes::w5(), 4),
            (config(aohs, StackKind::stacked4()), mixes::w5(), 5),
        ];
        let make = |kind: u8| -> Box<dyn DtmPolicy> {
            match kind {
                0 => Box::new(DtmTs::new(cpu.clone(), limits)),
                1 => Box::new(crate::dtm::bw::DtmBw::with_pid(cpu.clone(), limits)),
                2 => Box::new(DtmAcg::with_pid(cpu.clone(), limits)),
                3 => Box::new(crate::dtm::cdvfs::DtmCdvfs::with_pid(cpu.clone(), limits)),
                4 => Box::new(crate::dtm::cbw::DtmCbw::new(cpu.clone(), limits)),
                _ => Box::new(crate::dtm::mig::DtmMig::new(cpu.clone(), limits)),
            }
        };
        let seen: Vec<Arc<std::sync::Mutex<Vec<ActuationPlan>>>> = specs.iter().map(|_| Arc::default()).collect();
        let cells: Vec<BatchCell> = specs
            .iter()
            .zip(&seen)
            .map(|((config, mix, kind), seen)| {
                let policy = Box::new(PlanRecorder { inner: make(*kind), seen: Arc::clone(seen) });
                BatchCell::new(&cpu, &mem, *config, mix.clone(), policy, Arc::clone(&store)).with_rotation_threads(1)
            })
            .collect();
        let engine = BatchedSimEngine::new(&cpu, &mem, &power, &cpu_power);
        let batched = engine.run(cells, &BatchOptions::literal());

        let configs: Vec<MemSpotConfig> = specs.iter().map(|s| s.0).collect();
        let sim_engines: Vec<SimEngine<'_>> =
            configs.iter().map(|c| SimEngine::new(&cpu, &mem, &power, &cpu_power, c)).collect();
        let opts = BatchOptions::literal();
        let states: Vec<CellState> = specs
            .iter()
            .zip(&sim_engines)
            .map(|((config, mix, kind), e)| {
                let cell = BatchCell::new(&cpu, &mem, *config, mix.clone(), make(*kind), Arc::clone(&store));
                CellState::new(cell, e, &opts)
            })
            .collect();
        let mut widths: Vec<usize> = lane_groups(&states).iter().map(Vec::len).collect();
        widths.sort_unstable();
        assert_eq!(widths, [1, 2, 3], "the cells must form lanes of widths 1, 2 and 3");

        for (i, (((config, mix, kind), (got, stats)), seen)) in specs.iter().zip(&batched).zip(&seen).enumerate() {
            let mut spot = crate::sim::memspot::MemSpot::with_store(cpu.clone(), mem, *config, Arc::clone(&store));
            spot.set_level1_rotation_threads(1);
            let want = spot.run(mix, make(*kind).as_mut());
            assert_eq!(*got, want, "cell {i} ({}) diverged from the per-cell engine", want.policy);
            assert_eq!(stats.fast_forwarded_windows, 0, "literal mode must never fast-forward");
            assert!(stats.stepped_windows > 0);
            // Every cell throttles, so plan flips return to memoized plans.
            let distinct = seen.lock().expect("recorder lock").len();
            assert!(distinct >= 2, "cell {i} ({}) never changed its plan", want.policy);
            if *kind == 5 {
                assert!(distinct > PLAN_MEMO_CAP, "MIG decided only {distinct} distinct plans");
            }
        }
    }

    #[test]
    fn plan_memo_stays_bounded_and_reuses_held_and_adopted_entries() {
        // More distinct plans than the memo holds: it stays at its bound
        // with the requested plan active. A plan it still holds is a hit
        // (nothing stored), and an entry handed back by an envelope burst
        // is re-pointed to when held and stored once otherwise.
        let (cpu, mem, power, cpu_power) = hardware();
        let config = MemSpotConfig::tiny(CoolingConfig::aohs_1_5());
        let engine = SimEngine::new(&cpu, &mem, &power, &cpu_power, &config);
        let cell = BatchCell::new(&cpu, &mem, config, mixes::w5(), Box::new(NoLimit::new(&cpu)), Arc::default());
        let mut st = CellState::new(cell.with_rotation_threads(1), &engine, &BatchOptions::literal());
        let base = st.entry().plan.clone();
        let plan = |k: usize| base.clone().with_channel_service(vec![(k + 1) as f64 / 64.0; mem.logical_channels]);
        let held_plans = |st: &CellState| st.plans.iter().map(|e| e.plan.clone()).collect::<Vec<_>>();
        for k in 0..PLAN_MEMO_CAP + 4 {
            st.switch_plan(&engine, plan(k));
            assert_eq!(st.entry().plan, plan(k));
            assert!(st.plans.len() <= PLAN_MEMO_CAP);
        }
        assert_eq!(st.plans.len(), PLAN_MEMO_CAP);

        let memo = held_plans(&st);
        st.switch_plan(&engine, plan(PLAN_MEMO_CAP + 1));
        assert_eq!(st.entry().plan, plan(PLAN_MEMO_CAP + 1));
        assert_eq!(held_plans(&st), memo, "a hit must not store anything");
        let rebuilt = build_plan_entry(&mut st, &engine, plan(PLAN_MEMO_CAP + 1));
        assert_eq!((&st.entry().stab_a, &st.entry().stab_b), (&rebuilt.stab_a, &rebuilt.stab_b));
        assert_eq!(st.entry().instr.to_bits(), rebuilt.instr.to_bits());

        st.switch_plan(&engine, plan(PLAN_MEMO_CAP + 2));
        st.adopt(rebuilt);
        assert_eq!(st.entry().plan, plan(PLAN_MEMO_CAP + 1));
        assert_eq!(held_plans(&st), memo, "adopting a held plan must re-point, not store");

        let fresh = build_plan_entry(&mut st, &engine, plan(999));
        st.adopt(fresh);
        assert_eq!(st.entry().plan, plan(999));
        assert_eq!(st.plans.len(), PLAN_MEMO_CAP);
        assert_eq!(st.plans.iter().filter(|e| e.plan == plan(999)).count(), 1);
    }

    #[test]
    fn an_envelope_fallback_hands_the_burst_plan_back_to_the_cell() {
        // The cell enters a burst on a throttled plan its policy leaves at
        // the first decision, and the band holds no temperature, so the
        // burst falls back at its second window head on a plan other than
        // the one it entered on. That plan must come back active, with its
        // power terms in the lane column, and both plans stay memoized.
        let (cpu, mem, power, cpu_power) = hardware();
        let config = MemSpotConfig::tiny(CoolingConfig::aohs_1_5());
        let engine = SimEngine::new(&cpu, &mem, &power, &cpu_power, &config);
        let cell = BatchCell::new(&cpu, &mem, config, mixes::w1(), Box::new(NoLimit::new(&cpu)), Arc::default());
        let mut st = CellState::new(cell.with_rotation_threads(1), &engine, &BatchOptions::literal());
        let full = st.entry().plan.clone();
        let throttled = full.clone().with_channel_service(vec![0.5; mem.logical_channels]);
        st.switch_plan(&engine, throttled.clone());

        let mut works = lane_works(vec![st], vec![vec![0]]);
        let LaneWork { lane, states, .. } = &mut works[0];
        let band = EnvBand {
            lo: vec![f64::INFINITY; lane.rows],
            hi: vec![f64::NEG_INFINITY; lane.rows],
            period: 1,
            slipping: false,
        };
        assert!(envelope_burst(lane, 0, &mut states[0], &engine, band).is_none(), "the burst must fall back");
        let st = &states[0];
        assert_eq!(st.stats.envelope_fallbacks, 1);
        assert_eq!(st.entry().plan, full);
        assert_eq!(lane.term_a[lane.col(0)], st.entry().stab_a[..]);
        assert_eq!(lane.term_b[lane.col(0)], st.entry().stab_b[..]);
        assert_eq!(st.plans.len(), 2);
        assert!(st.plans.iter().any(|e| e.plan == throttled));
    }

    #[test]
    fn stable_for_reproduces_the_stable_temperature_the_kernel_stepped() {
        // One window on an identity-split (FBDIMM) and a stacked
        // (non-identity) lane: the lane temperatures must equal a per-cell
        // scene step bit for bit, and `stable_for` must return, for every
        // row, the stable value that step relaxed toward.
        let (cpu, mem, power, cpu_power) = hardware();
        let store = Arc::new(CharStore::new());
        let limits = ThermalLimits::paper_fbdimm();
        for stack in [StackKind::Fbdimm, StackKind::stacked4()] {
            let configs = [
                MemSpotConfig::tiny(CoolingConfig::aohs_1_5()).with_stack(stack),
                MemSpotConfig::tiny(CoolingConfig::aohs_1_5()).with_stack(stack),
            ];
            let sim_engines: Vec<SimEngine<'_>> =
                configs.iter().map(|c| SimEngine::new(&cpu, &mem, &power, &cpu_power, c)).collect();
            let policies: [Box<dyn DtmPolicy>; 2] =
                [Box::new(NoLimit::new(&cpu)), Box::new(crate::dtm::bw::DtmBw::with_pid(cpu.clone(), limits))];
            let opts = BatchOptions::literal();
            let states: Vec<CellState> = configs
                .iter()
                .zip(policies)
                .zip(&sim_engines)
                .map(|((config, policy), e)| {
                    let cell = BatchCell::new(&cpu, &mem, *config, mixes::w1(), policy, Arc::clone(&store));
                    CellState::new(cell.with_rotation_threads(1), e, &opts)
                })
                .collect();
            let mut scenes: Vec<DimmThermalScene> = states.iter().map(|st| st.scene.clone()).collect();
            let mut works = lane_works(states, vec![vec![0, 1]]);
            let LaneWork { globals, lane, states, results } = &mut works[0];
            assert_eq!(lane.identity_split, stack == StackKind::Fbdimm);
            lane_pre(lane, globals, &sim_engines, states, &opts, results);
            assert_eq!(lane.members.len(), 2);
            let before = lane.temps.clone();
            lane_rc(lane);
            for (j, &cell) in lane.members.iter().enumerate() {
                let st = &states[cell];
                let scene = &mut scenes[cell];
                scene.step(&st.entry().window.positions, st.entry().window.v_ipc, st.step_s);
                assert_eq!(scene.ambient_c().to_bits(), lane.amb[j].to_bits());
                for (r, (&t, &reference)) in lane.temps[lane.col(j)].iter().zip(scene.layer_temps_flat()).enumerate() {
                    assert_eq!(t.to_bits(), reference.to_bits(), "{stack:?} member {j} row {r}: kernel vs scene step");
                    let t0 = before[j * lane.rows + r];
                    let replayed = t0 + (lane.stable_for(j, r) - t0) * lane.row_alphas[r];
                    assert_eq!(replayed.to_bits(), t.to_bits(), "{stack:?} member {j} row {r}: stable_for");
                }
            }
        }
    }

    #[test]
    fn lanes_group_by_stack_step_and_ambient() {
        let (cpu, mem, _, _) = hardware();
        let store = Arc::new(CharStore::new());
        let mk = |config: MemSpotConfig| {
            BatchCell::new(&cpu, &mem, config, mixes::w1(), Box::new(NoLimit::new(&cpu)), Arc::clone(&store))
        };
        let cells = vec![
            mk(MemSpotConfig::tiny(CoolingConfig::aohs_1_5())),
            mk(MemSpotConfig::tiny(CoolingConfig::aohs_1_5())),
            mk(MemSpotConfig::tiny(CoolingConfig::fdhs_1_0())),
            mk(MemSpotConfig::tiny(CoolingConfig::aohs_1_5()).with_stack(StackKind::RankPair)),
        ];
        let power = FbdimmPowerModel::paper_defaults();
        let cpu_power = PaperCpuPower::new();
        let configs: Vec<MemSpotConfig> = cells.iter().map(|c| c.config).collect();
        let sim_engines: Vec<SimEngine<'_>> =
            configs.iter().map(|c| SimEngine::new(&cpu, &mem, &power, &cpu_power, c)).collect();
        let opts = BatchOptions::default();
        let states: Vec<CellState> =
            cells.into_iter().zip(sim_engines.iter()).map(|(cell, e)| CellState::new(cell, e, &opts)).collect();
        let groups = lane_groups(&states);
        // aohs FBDIMM pair share a lane; fdhs and the rank pair each get
        // their own (different resistances => different topology taus).
        assert_eq!(groups.len(), 3);
        let works = lane_works(states, groups);
        assert_eq!(works.iter().map(|w| w.lane.members.len()).max(), Some(2));
        for work in &works {
            let lane = &work.lane;
            assert_eq!(lane.temps.len(), lane.rows * lane.members.len());
            assert_eq!(lane.term_a.len(), lane.temps.len());
            assert_eq!(work.globals.len(), work.states.len());
        }
    }

    #[test]
    fn splitting_groups_chunks_the_dominant_lane() {
        // One dominant 6-cell group plus a singleton: asking for 4 workers
        // must chunk the big group (6 → 3+3 → 3+2+1... stopping at 4 total)
        // while never splitting below one cell per group.
        let mut groups = vec![vec![0, 1, 2, 3, 4, 5], vec![6]];
        split_groups(&mut groups, 4, 7);
        assert_eq!(groups.len(), 4);
        assert_eq!(groups.iter().map(|g| g.len()).sum::<usize>(), 7);
        assert!(groups.iter().all(|g| !g.is_empty()));
        // Membership is preserved, only partitioned.
        let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..7).collect::<Vec<_>>());

        // More workers than cells: every group ends up a singleton, no spin.
        let mut groups = vec![vec![0, 1, 2]];
        split_groups(&mut groups, 16, 3);
        assert_eq!(groups.len(), 3);
    }
}
