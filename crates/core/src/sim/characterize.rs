//! Level-1 design-point characterization.
//!
//! The first level of the two-level simulator (Section 4.3.1) produces, for
//! every workload mix and every running mode the DTM schemes can select, the
//! performance and memory-throughput numbers the second level replays:
//! aggregate instruction rate, per-core weights, read/write throughput, the
//! per-DIMM local/bypass traffic split and the shared-cache miss statistics.
//! Each point costs one closed-loop `cpu-model` + `fbdimm-sim` run — by far
//! the most expensive unit of work in a scenario sweep — so the module is
//! built around sharing them:
//!
//! * [`CharStore`] is the process-wide, thread-safe home of every computed
//!   point, keyed by [`CharStoreKey`] (mix id, quantized [`ModeKey`],
//!   characterization budget, memory geometry, hardware-config
//!   fingerprint). The level-1 outcome is
//!   independent of the cooling configuration and the DTM policy, so a sweep
//!   grid that revisits the same mix under different cooling setups or
//!   policies characterizes each design point exactly once per process.
//!   Concurrent requests for the same key are deduplicated (losers block on
//!   the winner's in-flight computation), and hit/miss counters expose how
//!   much work the sharing saved. The store is sharded by a process-stable
//!   key hash ([`key_hash`]) — [`STORE_SHARDS`] independent lock domains in
//!   memory, [`crate::sim::diskcache::DISK_SHARDS`] cache files on disk —
//!   so workers resolving different design points never contend on a lock
//!   or a stats cache line (see the shard map diagram on [`CharStore`]).
//! * [`CharStore::with_disk_cache`] extends the sharing **across
//!   processes**: points already in the cache file load at startup (and
//!   count as hits), and every point computed by this process is appended,
//!   so repeated sweeps, examples and CI runs skip level-1 entirely once
//!   the file is warm. The file is a versioned, line-delimited JSON format
//!   (see [`crate::sim::diskcache`]); entries are keyed by the full
//!   [`CharStoreKey`] — including the hardware fingerprint, so caches from
//!   different hardware configurations coexist without aliasing — and a
//!   format-version mismatch discards the file wholesale rather than
//!   risking stale semantics. Floats round-trip bit-exactly: a reloaded
//!   point is indistinguishable from a computed one.
//! * [`CharacterizationTable`] is the per-run view: it keeps a lock-free
//!   local cache of `Arc<CharPoint>` handles for the modes it has already
//!   resolved and falls through to the shared store on local misses.
//!   Lookups return `Arc<CharPoint>` — a cache hit never deep-clones the
//!   point's inner vectors. This is the analogue of the paper's `Wi × D`
//!   trace set.
//!   [`CharacterizationTable::points`] resolves a whole batch of modes at
//!   once, fanning the distinct missing design points (and, for a single
//!   gated point, its application rotations) across cores — closed-loop
//!   runs are independent and deterministic, so the parallelism changes
//!   wall-clock only, never a result.
//! * The closed-loop runs borrow a `MulticoreSim` from a small process-wide
//!   pool for the duration of one point and hand it back. A simulator owns
//!   multi-megabyte shared-cache buffers; pooling allocates them once per
//!   process instead of once per table, so a long run of sweeps does not
//!   churn them between its long-lived allocations. Reuse cannot change a
//!   result: every run starts from the warm-start state of its own inputs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use cpu_model::{CpuConfig, MulticoreSim, RunMeasurement, RunningMode};
use fbdimm_sim::{DimmTraffic, FbdimmConfig};
use workloads::AppBehavior;

use crate::sim::diskcache::DiskCache;

/// One characterized design point.
#[derive(Debug, Clone, PartialEq)]
pub struct CharPoint {
    /// The running mode this point describes.
    pub mode: RunningMode,
    /// Aggregate committed-instruction rate, instructions per second.
    pub instr_rate_total: f64,
    /// Per-core share of the aggregate instruction rate (sums to 1 over the
    /// active cores; inactive cores are 0).
    pub core_share: Vec<f64>,
    /// Memory read throughput in GB/s.
    pub read_gbps: f64,
    /// Memory write throughput in GB/s.
    pub write_gbps: f64,
    /// Per-DIMM-position traffic split (for the AMB/DRAM power models).
    pub dimm_traffic: Vec<DimmTraffic>,
    /// Sum over cores of reference-cycle IPC (the Σ IPC term of Eq. 3.6).
    pub ipc_ref_sum: f64,
    /// Shared-L2 miss rate over the run.
    pub l2_miss_rate: f64,
    /// L2 misses per committed instruction.
    pub l2_misses_per_instr: f64,
    /// Memory traffic per committed instruction, bytes.
    pub bytes_per_instr: f64,
}

impl CharPoint {
    /// Derives a point from a raw first-level measurement.
    pub fn from_measurement(m: &RunMeasurement) -> Self {
        let total_instr: u64 = m.cores.iter().map(|c| c.instructions).sum();
        let total_misses: u64 = m.cores.iter().map(|c| c.l2_misses).sum();
        let secs = m.elapsed_secs().max(1e-12);
        let core_share = if total_instr == 0 {
            vec![0.0; m.cores.len()]
        } else {
            m.cores.iter().map(|c| c.instructions as f64 / total_instr as f64).collect()
        };
        CharPoint {
            mode: m.mode,
            instr_rate_total: total_instr as f64 / secs,
            core_share,
            read_gbps: m.traffic.read_gbps,
            write_gbps: m.traffic.write_gbps,
            dimm_traffic: m.traffic.dimms.clone(),
            ipc_ref_sum: m.total_ipc_ref(),
            l2_miss_rate: m.l2_miss_rate(),
            l2_misses_per_instr: if total_instr == 0 { 0.0 } else { total_misses as f64 / total_instr as f64 },
            bytes_per_instr: m.bytes_per_instruction(),
        }
    }

    /// Total memory throughput in GB/s.
    pub fn total_gbps(&self) -> f64 {
        self.read_gbps + self.write_gbps
    }

    /// An all-zero point for modes that make no progress.
    pub fn idle(mode: RunningMode, cores: usize, mem_cfg: &FbdimmConfig) -> Self {
        let dimm_traffic = mem_cfg.idle_dimm_traffic();
        CharPoint {
            mode,
            instr_rate_total: 0.0,
            core_share: vec![0.0; cores],
            read_gbps: 0.0,
            write_gbps: 0.0,
            dimm_traffic,
            ipc_ref_sum: 0.0,
            l2_miss_rate: 0.0,
            l2_misses_per_instr: 0.0,
            bytes_per_instr: 0.0,
        }
    }
}

/// Quantized key identifying a running mode (so nearly identical floating
/// point modes share one characterization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModeKey {
    /// Number of active cores.
    pub active_cores: usize,
    /// Core frequency quantized to MHz.
    pub freq_mhz: u32,
    /// Bandwidth cap quantized to MB/s (`u32::MAX` = unlimited, 0 = off).
    pub cap_mbps: u32,
}

impl ModeKey {
    /// Quantizes a running mode.
    pub fn from_mode(mode: &RunningMode) -> Self {
        ModeKey {
            active_cores: mode.active_cores,
            freq_mhz: (mode.op.freq_ghz * 1000.0).round() as u32,
            cap_mbps: match mode.bandwidth_cap {
                None => u32::MAX,
                Some(cap) => (cap / 1e6).round() as u32,
            },
        }
    }

    /// Whether the quantized mode makes any forward progress (mirrors
    /// [`RunningMode::makes_progress`] at quantization granularity).
    pub fn makes_progress(&self) -> bool {
        self.active_cores > 0 && self.cap_mbps > 0
    }
}

/// Identity of one shared level-1 design point: the workload mix, the
/// quantized running mode, the characterization budget, the memory geometry
/// and a fingerprint of the full hardware configuration (everything the
/// closed-loop level-1 run depends on — notably *not* the cooling
/// configuration or the DTM policy).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CharStoreKey {
    /// Workload mix identifier.
    pub mix_id: String,
    /// Quantized running mode.
    pub mode: ModeKey,
    /// Demand L2 accesses simulated per design point.
    pub budget: u64,
    /// Logical memory channels.
    pub channels: usize,
    /// DIMMs per channel.
    pub dimms_per_channel: usize,
    /// Fingerprint of the complete `CpuConfig` + `FbdimmConfig` pair, so
    /// simulators sharing a store with different hardware (cache sizes,
    /// DVFS ladders, memory timings, ...) but identical geometry never alias
    /// each other's points. Stable within a process, which is the store's
    /// lifetime.
    pub hw_fingerprint: u64,
}

/// FNV-1a fingerprint of the hardware configurations' canonical (`Debug`)
/// rendering — cheap, collision-resistant enough for a per-process cache
/// key, and automatically covers every field the configs grow.
fn hardware_fingerprint(cpu: &CpuConfig, mem: &FbdimmConfig) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{cpu:?}\u{1f}{mem:?}").bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Number of in-memory shards in a [`CharStore`]. A power of two so the
/// shard index is a mask of [`key_hash`]'s low bits.
pub const STORE_SHARDS: usize = 16;

/// Deterministic FNV-1a hash of a store key's canonical field encoding.
///
/// This hash routes a key to both its in-memory [`CharStore`] shard (low
/// `log2(STORE_SHARDS)` bits) and its disk-cache shard file (low
/// `log2(DISK_SHARDS)` bits, see [`crate::sim::diskcache`]), so it must be
/// stable across processes and runs — `std`'s seeded `RandomState` would
/// scatter one process's cache entries across another process's shard
/// files. Fields are folded in declaration order with `0x1f` separators and
/// little-endian integer encodings.
pub fn key_hash(key: &CharStoreKey) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(key.mix_id.as_bytes());
    eat(&[0x1f]);
    eat(&(key.mode.active_cores as u64).to_le_bytes());
    eat(&key.mode.freq_mhz.to_le_bytes());
    eat(&key.mode.cap_mbps.to_le_bytes());
    eat(&key.budget.to_le_bytes());
    eat(&(key.channels as u64).to_le_bytes());
    eat(&(key.dimms_per_channel as u64).to_le_bytes());
    eat(&key.hw_fingerprint.to_le_bytes());
    hash
}

/// One lock domain of the sharded [`CharStore`]: a key map plus the shard's
/// own hit/miss counters, so neither lookups nor stat bumps on different
/// shards ever touch the same cache line under contention.
#[derive(Debug, Default)]
struct StoreShard {
    cells: Mutex<HashMap<CharStoreKey, Arc<OnceLock<Arc<CharPoint>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Thread-safe, process-wide store of level-1 characterization points.
///
/// Sweep cells that revisit the same `(mix, mode, budget, geometry)` design
/// point — e.g. the same workload under two cooling configurations, or two
/// DTM policies exploring the same running level — share one `Arc<CharPoint>`
/// instead of recomputing the closed-loop level-1 run. Concurrent first
/// requests for one key are collapsed: a single caller computes while the
/// others block on the entry's [`OnceLock`] and then share the result, so a
/// design point is simulated at most once per process no matter how the
/// sweep is parallelized.
///
/// The store is sharded so concurrent workers on *different* keys almost
/// never contend — each key hashes to one of [`STORE_SHARDS`] independent
/// lock domains, and the same hash routes disk persistence:
///
/// ```text
///                     key_hash(key)          (FNV-1a, process-stable)
///                          │
///        ┌─ low 4 bits ────┤
///        ▼                 └─ low 2 bits ─┐
///  in-memory shard 0..16                  ▼
///  ┌───────────────────────┐      disk shard 0..4
///  │ Mutex<HashMap<K, …>>  │      cache.<shard>.jsonl
///  │ hits / misses atomics │      (own lock + compaction)
///  └───────────────────────┘
/// ```
///
/// The per-key `OnceLock` in-flight dedup lives inside a shard's map, and
/// the hit/miss counters are per-shard atomics folded on read — a
/// read-mostly sweep bumps a shard-local counter instead of funneling every
/// stat update through one cache line.
#[derive(Debug)]
pub struct CharStore {
    shards: Box<[StoreShard; STORE_SHARDS]>,
    /// Optional disk backing: pre-loaded at construction, appended on miss.
    disk: Option<DiskCache>,
}

impl Default for CharStore {
    fn default() -> Self {
        CharStore { shards: Box::new(std::array::from_fn(|_| StoreShard::default())), disk: None }
    }
}

impl CharStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shard holding `key`.
    fn shard(&self, key: &CharStoreKey) -> &StoreShard {
        &self.shards[key_hash(key) as usize & (STORE_SHARDS - 1)]
    }

    /// Creates a store backed by a results-cache file at `path`: every entry
    /// already on disk is served as a hit (zero level-1 work), and every
    /// point computed by this process is appended, so repeated sweeps,
    /// examples and CI runs skip level-1 entirely once the cache is warm.
    /// The file is versioned ([`crate::sim::diskcache::FORMAT_VERSION`]) and
    /// keyed by the full [`CharStoreKey`] including the hardware
    /// fingerprint; a stale format version discards the file, while entries
    /// from other hardware configurations simply never match.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from reading an existing cache file (a missing
    /// file is not an error — it is created on first append).
    pub fn with_disk_cache(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let (disk, entries) = DiskCache::open(path)?;
        let store = CharStore { disk: Some(disk), ..Self::default() };
        for (key, point) in entries {
            let mut cells = store.shard(&key).cells.lock().expect("CharStore lock poisoned");
            let cell: &Arc<OnceLock<Arc<CharPoint>>> = cells.entry(key).or_default();
            let _ = cell.set(Arc::new(point));
        }
        Ok(store)
    }

    /// Path of the disk cache backing this store, if any.
    pub fn disk_cache_path(&self) -> Option<&std::path::Path> {
        self.disk.as_ref().map(DiskCache::path)
    }

    /// Number of computed points the disk cache failed to persist (always 0
    /// without a disk cache). Such points are still served from memory.
    pub fn disk_write_failures(&self) -> u64 {
        self.disk.as_ref().map_or(0, DiskCache::write_failures)
    }

    /// Returns the point for `key`, running `compute` (at most once per key
    /// process-wide) if it is not stored yet. Freshly computed points are
    /// appended to the disk cache, when one is attached.
    pub fn get_or_compute(&self, key: CharStoreKey, compute: impl FnOnce() -> CharPoint) -> Arc<CharPoint> {
        let shard = self.shard(&key);
        let cell = {
            let mut cells = shard.cells.lock().expect("CharStore lock poisoned");
            Arc::clone(cells.entry(key.clone()).or_default())
        };
        // The shard lock is released before computing: a miss on one key
        // never blocks progress on another. Racing callers of the *same* key
        // block here until the winner's computation lands.
        let mut computed = false;
        let point = Arc::clone(cell.get_or_init(|| {
            computed = true;
            Arc::new(compute())
        }));
        if computed {
            shard.misses.fetch_add(1, Ordering::Relaxed);
            if let Some(disk) = &self.disk {
                disk.append(&key, &point);
            }
        } else {
            shard.hits.fetch_add(1, Ordering::Relaxed);
        }
        point
    }

    /// Returns the point for `key` if it is already computed, without
    /// blocking on (or joining) an in-flight computation. A found point
    /// counts as a hit; an absent or still-computing one is not counted at
    /// all.
    pub fn peek(&self, key: &CharStoreKey) -> Option<Arc<CharPoint>> {
        let shard = self.shard(key);
        let cells = shard.cells.lock().expect("CharStore lock poisoned");
        let point = cells.get(key).and_then(|cell| cell.get()).cloned();
        drop(cells);
        if point.is_some() {
            shard.hits.fetch_add(1, Ordering::Relaxed);
        }
        point
    }

    /// Number of lookups that found an already-computed point, folded over
    /// all shards.
    pub fn hits(&self) -> u64 {
        self.shards.iter().map(|s| s.hits.load(Ordering::Relaxed)).sum()
    }

    /// Number of lookups that had to run the level-1 simulation, folded over
    /// all shards.
    pub fn misses(&self) -> u64 {
        self.shards.iter().map(|s| s.misses.load(Ordering::Relaxed)).sum()
    }

    /// Number of design points stored, folded over all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.cells.lock().expect("CharStore lock poisoned").values().filter(|c| c.get().is_some()).count())
            .sum()
    }

    /// Whether the store holds no completed design point.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Most idle level-1 simulators the process keeps for reuse: enough for
/// every worker of a characterization fan-out on a small host. Beyond it
/// the least recently returned simulator is dropped.
const SIM_POOL_CAP: usize = 8;

/// Idle level-1 simulators, least recently returned first.
static SIM_POOL: Mutex<Vec<MulticoreSim>> = Mutex::new(Vec::new());

/// Runs `f` on an idle simulator for `cpu`/`mem` taken from the
/// process-wide pool (a new one when none matches) and returns the
/// simulator to the pool afterwards.
fn with_pooled_sim<R>(cpu: &CpuConfig, mem: &FbdimmConfig, f: impl FnOnce(&mut MulticoreSim) -> R) -> R {
    let idle = {
        let mut pool = SIM_POOL.lock().expect("simulator pool lock poisoned");
        let found = pool.iter().rposition(|sim| sim.cpu_config() == cpu && sim.memory_config() == mem);
        found.map(|i| pool.remove(i))
    };
    let mut sim = idle.unwrap_or_else(|| MulticoreSim::new(cpu.clone(), *mem));
    let result = f(&mut sim);
    let mut pool = SIM_POOL.lock().expect("simulator pool lock poisoned");
    if pool.len() >= SIM_POOL_CAP {
        pool.remove(0);
    }
    pool.push(sim);
    result
}

/// Per-run view of one workload mix's characterization across running modes.
///
/// The table keeps a lock-free local cache of the modes it has already
/// resolved; local misses fall through to the shared [`CharStore`], and the
/// points that must be computed run on pooled simulators. Lookups hand out
/// `Arc<CharPoint>` handles, never deep clones.
#[derive(Debug)]
pub struct CharacterizationTable {
    cpu: CpuConfig,
    mem: FbdimmConfig,
    mix_id: String,
    apps: Vec<AppBehavior>,
    budget: u64,
    hw_fingerprint: u64,
    store: Arc<CharStore>,
    local: HashMap<ModeKey, Arc<CharPoint>>,
    /// Worker threads for rotation-averaged (core-gated) design points; the
    /// rotations are independent deterministic simulations, so fanning them
    /// out changes wall-clock only, never results. Set to 1 inside engines
    /// that already parallelize at a coarser granularity.
    rotation_threads: usize,
}

impl CharacterizationTable {
    /// Creates a table for the given mix of applications with a private
    /// store (no cross-table sharing). `budget` is the number of demand L2
    /// accesses simulated per design point (larger = more accurate, slower).
    pub fn new(cpu: CpuConfig, mem: FbdimmConfig, apps: Vec<AppBehavior>, budget: u64) -> Self {
        Self::with_store(cpu, mem, String::new(), apps, budget, Arc::new(CharStore::new()))
    }

    /// Creates a table whose points live in (and are shared through) an
    /// external [`CharStore`]. `mix_id` identifies the application mix in
    /// the store key, so every table created for the same mix against the
    /// same store shares one set of design points.
    ///
    /// # Panics
    ///
    /// Panics if either hardware configuration is invalid.
    pub fn with_store(
        cpu: CpuConfig,
        mem: FbdimmConfig,
        mix_id: impl Into<String>,
        apps: Vec<AppBehavior>,
        budget: u64,
        store: Arc<CharStore>,
    ) -> Self {
        cpu.validate().expect("invalid CPU configuration");
        mem.validate().expect("invalid FBDIMM configuration");
        let hw_fingerprint = hardware_fingerprint(&cpu, &mem);
        CharacterizationTable {
            cpu,
            mem,
            mix_id: mix_id.into(),
            apps,
            budget,
            hw_fingerprint,
            store,
            local: HashMap::new(),
            rotation_threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        }
    }

    /// Sets the number of worker threads used for rotation-averaged design
    /// points (minimum 1). Results are bit-identical for any value; engines
    /// that already fan out at cell granularity pass 1 to avoid
    /// oversubscription.
    pub fn with_rotation_threads(mut self, threads: usize) -> Self {
        self.rotation_threads = threads.max(1);
        self
    }

    /// Number of design points this table has resolved so far.
    pub fn len(&self) -> usize {
        self.local.len()
    }

    /// Whether no design point has been resolved yet.
    pub fn is_empty(&self) -> bool {
        self.local.is_empty()
    }

    /// The applications of the mix being characterized.
    pub fn apps(&self) -> &[AppBehavior] {
        &self.apps
    }

    /// The shared store backing this table.
    pub fn store(&self) -> &Arc<CharStore> {
        &self.store
    }

    /// Returns the characterization of `mode`, simulating it on first use
    /// (process-wide, when the backing store is shared).
    ///
    /// For modes that gate some cores (DTM-ACG / DTM-COMB), the schemes
    /// rotate the gated cores round-robin among the applications for
    /// fairness; the characterization therefore averages over all rotations
    /// of the application list, so every application's cache behaviour
    /// contributes to the gated design point.
    pub fn point(&mut self, mode: &RunningMode) -> Arc<CharPoint> {
        let key = ModeKey::from_mode(mode);
        if let Some(p) = self.local.get(&key) {
            return Arc::clone(p);
        }
        let store_key = self.store_key(key);
        let point = self.store.get_or_compute(store_key, || {
            compute_point(&self.cpu, &self.mem, &self.apps, self.budget, self.rotation_threads, mode)
        });
        self.local.insert(key, Arc::clone(&point));
        point
    }

    /// Resolves a whole batch of modes, computing the distinct *missing*
    /// design points concurrently (they are independent closed-loop runs, so
    /// the results are bit-identical to resolving them one at a time).
    /// Grid engines and benches use this to characterize a mode lattice at
    /// full hardware parallelism. Each finished point is registered through
    /// the shared store (and appended to its disk cache, when present);
    /// points another table or an earlier process already computed are
    /// adopted up front and never scheduled.
    pub fn points(&mut self, modes: &[RunningMode]) -> Vec<Arc<CharPoint>> {
        let mut missing: Vec<RunningMode> = Vec::new();
        let mut missing_keys: Vec<ModeKey> = Vec::new();
        for mode in modes {
            let key = ModeKey::from_mode(mode);
            if !self.local.contains_key(&key) && !missing_keys.contains(&key) {
                // Adopt points already present in the (possibly disk-backed)
                // shared store instead of scheduling work for them.
                if let Some(point) = self.store.peek(&self.store_key(key)) {
                    self.local.insert(key, point);
                    continue;
                }
                missing_keys.push(key);
                missing.push(*mode);
            }
        }
        if self.rotation_threads > 1 && missing.len() > 1 {
            let (cpu, mem) = (&self.cpu, &self.mem);
            let apps = &self.apps;
            let budget = self.budget;
            let store = &self.store;
            // A few threads per core, timesliced by the OS: design points
            // differ widely in cost (a gated point is several rotation
            // runs), and on small shared hosts letting many points progress
            // concurrently rebalances around stalls better than a static
            // assignment of points to workers. The worker count is capped so
            // a large mode lattice cannot spawn hundreds of threads (and
            // simulators) at once; surplus points queue behind a shared
            // cursor. Rotations inside a worker stay sequential — the
            // point-level workers already cover the cores.
            let workers = missing.len().min(self.rotation_threads.saturating_mul(4));
            let jobs: Vec<(RunningMode, CharStoreKey)> =
                missing.iter().zip(missing_keys.iter()).map(|(m, k)| (*m, self.store_key(*k))).collect();
            let cursor = std::sync::atomic::AtomicUsize::new(0);
            let resolved: Vec<Vec<(ModeKey, Arc<CharPoint>)>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let (jobs, cursor) = (&jobs, &cursor);
                        scope.spawn(move || {
                            let mut done = Vec::new();
                            loop {
                                let j = cursor.fetch_add(1, Ordering::Relaxed);
                                let Some((mode, store_key)) = jobs.get(j) else { break };
                                let point = store.get_or_compute(store_key.clone(), || {
                                    compute_point(cpu, mem, apps, budget, 1, mode)
                                });
                                done.push((ModeKey::from_mode(mode), point));
                            }
                            done
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("batch point worker panicked")).collect()
            });
            for (key, point) in resolved.into_iter().flatten() {
                self.local.insert(key, point);
            }
        }
        modes.iter().map(|mode| self.point(mode)).collect()
    }

    fn store_key(&self, key: ModeKey) -> CharStoreKey {
        CharStoreKey {
            mix_id: self.mix_id.clone(),
            mode: key,
            budget: self.budget,
            channels: self.mem.logical_channels,
            dimms_per_channel: self.mem.dimms_per_channel,
            hw_fingerprint: self.hw_fingerprint,
        }
    }
}

/// Computes one design point on pooled simulators (`rotation_threads` only
/// affects wall-clock, never results).
fn compute_point(
    cpu: &CpuConfig,
    mem: &FbdimmConfig,
    apps: &[AppBehavior],
    budget: u64,
    rotation_threads: usize,
    mode: &RunningMode,
) -> CharPoint {
    if mode.makes_progress() {
        let active = mode.active_cores.min(apps.len()).min(cpu.cores);
        if active < apps.len() {
            rotation_averaged_point(cpu, mem, apps, budget, rotation_threads, mode)
        } else {
            with_pooled_sim(cpu, mem, |sim| CharPoint::from_measurement(&sim.run(apps, mode, budget)))
        }
    } else {
        CharPoint::idle(*mode, cpu.cores, mem)
    }
}

/// Characterizes a core-gated mode as the average over all cyclic rotations
/// of the application list (Section 4.3.1 fairness).
fn rotation_averaged_point(
    cpu: &CpuConfig,
    mem: &FbdimmConfig,
    apps: &[AppBehavior],
    table_budget: u64,
    rotation_threads: usize,
    mode: &RunningMode,
) -> CharPoint {
    let n = apps.len();
    let rotations = n.max(1);
    let cores = cpu.cores;
    let budget = (table_budget / rotations as u64).max(1_000);

    // Each rotation is an independent, deterministic closed-loop run (fresh
    // memory system and cores per run), so the rotations fan out across
    // threads; the results are folded *in rotation order* below, which keeps
    // every floating-point sum identical to a sequential pass. Applications
    // are handed to the simulator by reference — the rotated orders borrow
    // from `apps` instead of cloning the behaviour models once per rotation.
    let rotation = |sim: &mut MulticoreSim, offset: usize| {
        let rotated: Vec<&AppBehavior> = (0..n).map(|i| &apps[(offset + i) % n]).collect();
        CharPoint::from_measurement(&sim.run_order(&rotated, mode, budget))
    };
    let points: Vec<CharPoint> = if rotation_threads > 1 && rotations > 1 {
        let workers = rotation_threads.min(rotations);
        let mut slots: Vec<Option<CharPoint>> = (0..rotations).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let rotation = &rotation;
                    scope.spawn(move || {
                        // One simulator per worker, reused across its
                        // rotations.
                        with_pooled_sim(cpu, mem, |sim| {
                            (w..rotations)
                                .step_by(workers)
                                .map(|offset| (offset, rotation(sim, offset)))
                                .collect::<Vec<_>>()
                        })
                    })
                })
                .collect();
            for handle in handles {
                for (offset, point) in handle.join().expect("rotation worker panicked") {
                    slots[offset] = Some(point);
                }
            }
        });
        slots.into_iter().map(|p| p.expect("every rotation computed")).collect()
    } else {
        with_pooled_sim(cpu, mem, |sim| (0..rotations).map(|offset| rotation(sim, offset)).collect())
    };
    fold_rotations(points, cores, n, mode)
}

/// Folds per-rotation measurements into one averaged design point. The fold
/// runs in rotation order with fixed arithmetic, so the result is identical
/// however the rotations were scheduled.
fn fold_rotations(points: Vec<CharPoint>, cores: usize, n: usize, mode: &RunningMode) -> CharPoint {
    let rotations = points.len().max(1);
    let mut acc: Option<CharPoint> = None;
    let mut app_share = vec![0.0f64; cores.max(n)];
    for (offset, p) in points.into_iter().enumerate() {
        // Attribute each core's share back to the application that was
        // running on it under this rotation.
        for (core_pos, share) in p.core_share.iter().enumerate() {
            let app_index = (offset + core_pos) % n;
            app_share[app_index] += share / rotations as f64;
        }
        acc = Some(match acc {
            None => p,
            Some(mut a) => {
                a.instr_rate_total += p.instr_rate_total;
                a.read_gbps += p.read_gbps;
                a.write_gbps += p.write_gbps;
                a.ipc_ref_sum += p.ipc_ref_sum;
                a.l2_miss_rate += p.l2_miss_rate;
                a.l2_misses_per_instr += p.l2_misses_per_instr;
                a.bytes_per_instr += p.bytes_per_instr;
                for (d, pd) in a.dimm_traffic.iter_mut().zip(p.dimm_traffic.iter()) {
                    d.local_gbps += pd.local_gbps;
                    d.bypass_gbps += pd.bypass_gbps;
                    d.read_fraction += pd.read_fraction;
                }
                a
            }
        });
    }
    let mut avg = acc.expect("at least one rotation");
    let r = rotations as f64;
    avg.instr_rate_total /= r;
    avg.read_gbps /= r;
    avg.write_gbps /= r;
    avg.ipc_ref_sum /= r;
    avg.l2_miss_rate /= r;
    avg.l2_misses_per_instr /= r;
    avg.bytes_per_instr /= r;
    for d in avg.dimm_traffic.iter_mut() {
        d.local_gbps /= r;
        d.bypass_gbps /= r;
        d.read_fraction /= r;
    }
    // Shares are per application; they already average to 1 across apps.
    app_share.truncate(cores.max(n));
    avg.core_share = app_share;
    avg.mode = *mode;
    avg
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::mixes;

    fn table() -> CharacterizationTable {
        CharacterizationTable::new(
            CpuConfig::paper_quad_core(),
            FbdimmConfig::ddr2_667_paper(),
            mixes::w1().apps,
            15_000,
        )
    }

    #[test]
    fn points_are_cached_and_deterministic() {
        let mut t = table();
        let full = RunningMode::full_speed(&CpuConfig::paper_quad_core());
        let a = t.point(&full);
        assert_eq!(t.len(), 1);
        let b = t.point(&full);
        assert_eq!(t.len(), 1, "second lookup must hit the cache");
        assert_eq!(a, b);
        assert!(!t.is_empty());
        assert_eq!(t.apps().len(), 4);
    }

    #[test]
    fn full_speed_point_has_plausible_w1_characteristics() {
        let mut t = table();
        let p = t.point(&RunningMode::full_speed(&CpuConfig::paper_quad_core()));
        assert!(p.total_gbps() > 8.0, "W1 aggregate throughput {}", p.total_gbps());
        assert!(p.instr_rate_total > 1e9, "instruction rate {}", p.instr_rate_total);
        assert!(p.ipc_ref_sum > 0.2 && p.ipc_ref_sum < 8.0);
        assert!((p.core_share.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.l2_miss_rate > 0.2 && p.l2_miss_rate <= 1.0);
        assert!(p.bytes_per_instr > 0.1);
        assert!(!p.dimm_traffic.is_empty());
    }

    #[test]
    fn gated_point_reduces_traffic_and_misses_per_instruction() {
        let mut t = table();
        let cpu = CpuConfig::paper_quad_core();
        let full = t.point(&RunningMode::full_speed(&cpu));
        let two = t.point(&RunningMode::full_speed(&cpu).with_active_cores(2));
        assert!(two.total_gbps() < full.total_gbps());
        assert!(two.l2_misses_per_instr < full.l2_misses_per_instr);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn shut_off_mode_characterizes_as_idle_without_simulation() {
        let mut t = table();
        let cpu = CpuConfig::paper_quad_core();
        let off = RunningMode { active_cores: 0, op: cpu.dvfs.bottom(), bandwidth_cap: Some(0.0) };
        let p = t.point(&off);
        assert_eq!(p.instr_rate_total, 0.0);
        assert_eq!(p.total_gbps(), 0.0);
        assert_eq!(p.dimm_traffic.len(), 8);
    }

    #[test]
    fn mode_quantization_merges_equivalent_modes() {
        let mut t = table();
        let cpu = CpuConfig::paper_quad_core();
        let a = RunningMode::full_speed(&cpu).with_bandwidth_cap_gbps(6.4);
        let mut b = a;
        b.bandwidth_cap = Some(6.4e9 + 10.0); // negligible difference
        t.point(&a);
        t.point(&b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn pooled_simulators_carry_no_state_between_points() {
        // A point computed right after other mixes and modes ran on the
        // pooled simulators must match a fresh simulator bit for bit.
        let cpu = CpuConfig::paper_quad_core();
        let mem = FbdimmConfig::ddr2_667_paper();
        let full = RunningMode::full_speed(&cpu);
        let fresh =
            CharPoint::from_measurement(&MulticoreSim::new(cpu.clone(), mem).run(&mixes::w1().apps, &full, 15_000));
        let mut other = CharacterizationTable::new(cpu.clone(), mem, mixes::w6().apps, 15_000).with_rotation_threads(1);
        other.point(&full.with_active_cores(2));
        other.point(&full);
        let mut table = CharacterizationTable::new(cpu, mem, mixes::w1().apps, 15_000).with_rotation_threads(1);
        assert_eq!(*table.point(&full), fresh);
    }

    #[test]
    fn shared_store_deduplicates_points_across_tables() {
        let store = Arc::new(CharStore::new());
        let make = || {
            CharacterizationTable::with_store(
                CpuConfig::paper_quad_core(),
                FbdimmConfig::ddr2_667_paper(),
                "W1",
                mixes::w1().apps,
                15_000,
                Arc::clone(&store),
            )
        };
        let mut first = make();
        let mut second = make();
        let full = RunningMode::full_speed(&CpuConfig::paper_quad_core());
        let a = first.point(&full);
        assert_eq!((store.hits(), store.misses()), (0, 1));
        let b = second.point(&full);
        assert_eq!((store.hits(), store.misses()), (1, 1), "second table must reuse the stored point");
        assert!(Arc::ptr_eq(&a, &b), "a store hit must hand out the same allocation, not a deep clone");
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
    }

    #[test]
    fn table_local_cache_hits_do_not_touch_the_store() {
        let mut t = table();
        let full = RunningMode::full_speed(&CpuConfig::paper_quad_core());
        let a = t.point(&full);
        let b = t.point(&full);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(t.store().misses(), 1);
        assert_eq!(t.store().hits(), 0, "repeat lookups are absorbed by the table-local cache");
    }

    #[test]
    fn concurrent_requests_for_one_key_compute_once() {
        let store = Arc::new(CharStore::new());
        let key = || CharStoreKey {
            mix_id: "W1".to_string(),
            mode: ModeKey { active_cores: 4, freq_mhz: 3200, cap_mbps: u32::MAX },
            budget: 1_000,
            channels: 2,
            dimms_per_channel: 4,
            hw_fingerprint: 0,
        };
        let computations = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let store = Arc::clone(&store);
                let computations = Arc::clone(&computations);
                scope.spawn(move || {
                    store.get_or_compute(key(), || {
                        computations.fetch_add(1, Ordering::Relaxed);
                        CharPoint::idle(
                            RunningMode::full_speed(&CpuConfig::paper_quad_core()),
                            4,
                            &FbdimmConfig::ddr2_667_paper(),
                        )
                    });
                });
            }
        });
        assert_eq!(computations.load(Ordering::Relaxed), 1, "exactly one thread computes");
        assert_eq!(store.misses(), 1);
        assert_eq!(store.hits(), 3);
    }

    /// A synthetic key for store-sharding tests: `n` varies the budget so
    /// distinct `n` produce distinct keys spread across shards.
    fn hammer_key(n: u64) -> CharStoreKey {
        CharStoreKey {
            mix_id: "W1".to_string(),
            mode: ModeKey { active_cores: 4, freq_mhz: 3200, cap_mbps: u32::MAX },
            budget: 1_000 + n,
            channels: 2,
            dimms_per_channel: 4,
            hw_fingerprint: 0,
        }
    }

    fn cheap_point() -> CharPoint {
        CharPoint::idle(RunningMode::full_speed(&CpuConfig::paper_quad_core()), 4, &FbdimmConfig::ddr2_667_paper())
    }

    #[test]
    fn key_hash_is_deterministic_and_spreads_keys_over_shards() {
        // The hash routes disk persistence, so it must be a pure function of
        // the key's fields — recomputing it must never disagree.
        for n in 0..64 {
            assert_eq!(key_hash(&hammer_key(n)), key_hash(&hammer_key(n)));
        }
        let shards: std::collections::HashSet<usize> =
            (0..64).map(|n| key_hash(&hammer_key(n)) as usize & (STORE_SHARDS - 1)).collect();
        assert!(shards.len() >= STORE_SHARDS / 2, "64 keys hit at least half the shards (got {})", shards.len());
        // Every key field must influence the hash.
        let base = hammer_key(0);
        let mut other = base.clone();
        other.mix_id = "W2".to_string();
        assert_ne!(key_hash(&base), key_hash(&other));
        let mut other = base.clone();
        other.mode.freq_mhz += 1;
        assert_ne!(key_hash(&base), key_hash(&other));
        let mut other = base.clone();
        other.hw_fingerprint += 1;
        assert_ne!(key_hash(&base), key_hash(&other));
    }

    #[test]
    fn stats_stay_exact_when_many_threads_hammer_many_keys() {
        // N threads × K keys: the per-shard counters, folded on read, must
        // account for exactly K misses and N·K−K hits — sharding the stats
        // must not lose or double-count a single lookup.
        const THREADS: u64 = 8;
        const KEYS: u64 = 24;
        let store = Arc::new(CharStore::new());
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    // A per-thread deterministic key order (rotated by the
                    // thread index) keeps the interleavings diverse without
                    // any randomness.
                    for i in 0..KEYS {
                        let n = (i + t * 7) % KEYS;
                        store.get_or_compute(hammer_key(n), cheap_point);
                    }
                });
            }
        });
        assert_eq!(store.misses(), KEYS, "each key computes exactly once");
        assert_eq!(store.hits(), THREADS * KEYS - KEYS, "every other lookup is a hit");
        assert_eq!(store.len() as u64, KEYS);
    }

    #[test]
    fn sharded_store_hands_out_one_allocation_per_key_under_contention() {
        // Seeded multi-thread hammer: every thread resolves every key and
        // records the allocation it got; all threads must agree per key, and
        // peek must find every point afterwards.
        const THREADS: usize = 6;
        const KEYS: u64 = 16;
        let store = Arc::new(CharStore::new());
        let per_thread: Vec<Vec<Arc<CharPoint>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let store = Arc::clone(&store);
                    scope.spawn(move || {
                        (0..KEYS)
                            .map(|i| store.get_or_compute(hammer_key((i + t as u64) % KEYS), cheap_point))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("hammer thread panicked")).collect()
        });
        for t in 1..THREADS {
            for i in 0..KEYS as usize {
                // Thread t resolved key (i + t) % KEYS at slot i; thread 0
                // resolved key k at slot k.
                let key = (i + t) % KEYS as usize;
                assert!(
                    Arc::ptr_eq(&per_thread[0][key], &per_thread[t][i]),
                    "all threads share one allocation per key"
                );
            }
        }
        for n in 0..KEYS {
            assert!(store.peek(&hammer_key(n)).is_some(), "peek finds every hammered key");
        }
    }

    #[test]
    fn different_hardware_with_identical_geometry_never_aliases() {
        // Same mix, budget and channel geometry but a different CPU config:
        // the hardware fingerprint must keep the store entries apart.
        let store = Arc::new(CharStore::new());
        let mut paper = CharacterizationTable::with_store(
            CpuConfig::paper_quad_core(),
            FbdimmConfig::ddr2_667_paper(),
            "W1",
            mixes::w1().apps,
            15_000,
            Arc::clone(&store),
        );
        let mut small_l2 = CpuConfig::paper_quad_core();
        small_l2.l2.capacity_bytes /= 4;
        let mut shrunk = CharacterizationTable::with_store(
            small_l2.clone(),
            FbdimmConfig::ddr2_667_paper(),
            "W1",
            mixes::w1().apps,
            15_000,
            Arc::clone(&store),
        );
        let full = RunningMode::full_speed(&CpuConfig::paper_quad_core());
        let a = paper.point(&full);
        let b = shrunk.point(&full);
        assert_eq!(store.misses(), 2, "distinct hardware must characterize separately");
        assert_eq!(store.hits(), 0);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(b.l2_miss_rate > a.l2_miss_rate, "a quarter-size L2 must miss more");
    }

    #[test]
    fn batch_points_match_sequential_points_exactly() {
        let cpu = CpuConfig::paper_quad_core();
        let full = RunningMode::full_speed(&cpu);
        let modes = [full, full.with_active_cores(2), full.with_bandwidth_cap_gbps(6.4)];
        let mut sequential = table();
        let expected: Vec<_> = modes.iter().map(|m| sequential.point(m)).collect();
        let mut batched = table();
        let got = batched.points(&modes);
        for (a, b) in expected.iter().zip(got.iter()) {
            assert_eq!(**a, **b, "parallel batch resolution must be bit-identical");
        }
        assert_eq!(batched.len(), 3);
        // A second batch over the same modes is served from the local cache.
        let again = batched.points(&modes);
        for (a, b) in got.iter().zip(again.iter()) {
            assert!(Arc::ptr_eq(a, b));
        }
    }

    #[test]
    fn batch_points_deduplicate_repeated_modes() {
        let cpu = CpuConfig::paper_quad_core();
        let full = RunningMode::full_speed(&cpu);
        let mut t = table();
        let got = t.points(&[full, full, full]);
        assert_eq!(got.len(), 3);
        assert!(Arc::ptr_eq(&got[0], &got[1]) && Arc::ptr_eq(&got[1], &got[2]));
        assert_eq!(t.store().misses(), 1, "one computation for three requests");
    }

    /// A unique temp file path for disk-cache tests.
    fn temp_cache_path(tag: &str) -> std::path::PathBuf {
        let unique = format!("memtherm_char_cache_{}_{}_{tag}.jsonl", std::process::id(), {
            use std::sync::atomic::{AtomicU64, Ordering};
            static NEXT: AtomicU64 = AtomicU64::new(0);
            NEXT.fetch_add(1, Ordering::Relaxed)
        });
        std::env::temp_dir().join(unique)
    }

    /// Removes a test cache's base file and shard files.
    fn remove_cache_files(base: &std::path::Path) {
        use crate::sim::diskcache::{shard_path, DISK_SHARDS};
        let _ = std::fs::remove_file(base);
        for shard in 0..DISK_SHARDS {
            let _ = std::fs::remove_file(shard_path(base, shard));
        }
    }

    fn disk_table(path: &std::path::Path) -> (Arc<CharStore>, CharacterizationTable) {
        let store = Arc::new(CharStore::with_disk_cache(path).expect("open disk cache"));
        let table = CharacterizationTable::with_store(
            CpuConfig::paper_quad_core(),
            FbdimmConfig::ddr2_667_paper(),
            "W1",
            mixes::w1().apps,
            15_000,
            Arc::clone(&store),
        );
        (store, table)
    }

    #[test]
    fn disk_cache_round_trips_points_bit_exactly_and_eliminates_misses() {
        let path = temp_cache_path("roundtrip");
        let cpu = CpuConfig::paper_quad_core();
        let full = RunningMode::full_speed(&cpu);
        let modes = [full, full.with_active_cores(2), full.with_bandwidth_cap_gbps(6.4)];

        // First process: cold cache, three misses, entries appended.
        let (store, mut table) = disk_table(&path);
        let computed: Vec<_> = modes.iter().map(|m| table.point(m)).collect();
        assert_eq!(store.misses(), 3);
        drop(table);
        drop(store);

        // Second process: warm cache — identical points, zero level-1 work.
        let (store2, mut table2) = disk_table(&path);
        assert_eq!(store2.len(), 3, "all entries load at startup");
        for (mode, original) in modes.iter().zip(computed.iter()) {
            let reloaded = table2.point(mode);
            assert_eq!(**original, *reloaded, "disk round-trip must be bit-identical");
        }
        assert_eq!(store2.misses(), 0, "a warm disk cache serves every lookup");
        assert_eq!(store2.hits(), 3);
        remove_cache_files(&path);
    }

    #[test]
    fn disk_write_failures_are_counted_and_points_are_still_served() {
        use crate::sim::diskcache::{shard_path, DISK_SHARDS};
        assert_eq!(CharStore::new().disk_write_failures(), 0, "a memory-only store has no disk to fail");
        let path = temp_cache_path("unwritable");
        let (store, mut table) = disk_table(&path);
        // A shard path that is a directory cannot be opened as a file, not
        // even by a privileged user.
        for shard in 0..DISK_SHARDS {
            std::fs::create_dir(shard_path(&path, shard)).expect("create blocking directory");
        }
        let cpu = CpuConfig::paper_quad_core();
        let full = RunningMode::full_speed(&cpu);
        let point = table.point(&full);
        assert_eq!(store.misses(), 1);
        assert_eq!(store.disk_write_failures(), 1, "the failed append is counted");
        assert_eq!(*table.point(&full), *point, "the point is served from memory");
        table.point(&full.with_active_cores(2));
        assert_eq!(store.disk_write_failures(), 2, "the next append retries the open and fails again");
        assert_eq!(store.len(), 2);
        for shard in 0..DISK_SHARDS {
            std::fs::remove_dir(shard_path(&path, shard)).expect("remove blocking directory");
        }
        remove_cache_files(&path);
    }

    #[test]
    fn disk_cache_version_bump_invalidates_cleanly() {
        use crate::sim::diskcache::{shard_path, DISK_SHARDS};
        let path = temp_cache_path("version");
        {
            let (store, mut table) = disk_table(&path);
            table.point(&RunningMode::full_speed(&CpuConfig::paper_quad_core()));
            assert_eq!(store.misses(), 1);
        }
        // Rewrite every shard file's header with a bumped version; entries
        // must be ignored.
        let bumped = format!(
            "{{\"format\": \"memtherm-char-cache\", \"version\": {}}}",
            crate::sim::diskcache::FORMAT_VERSION + 1
        );
        for shard in 0..DISK_SHARDS {
            let spath = shard_path(&path, shard);
            if let Ok(body) = std::fs::read_to_string(&spath) {
                let mut lines: Vec<&str> = body.lines().collect();
                lines[0] = &bumped;
                std::fs::write(&spath, lines.join("\n")).unwrap();
            }
        }

        let (store, mut table) = disk_table(&path);
        assert!(store.is_empty(), "a future format version must not be trusted");
        table.point(&RunningMode::full_speed(&CpuConfig::paper_quad_core()));
        assert_eq!(store.misses(), 1, "the point is recomputed");
        drop(table);

        // The invalidated shard was rewritten: a third store sees the fresh
        // entry under the current version again.
        let (store3, _) = disk_table(&path);
        assert_eq!(store3.len(), 1);
        remove_cache_files(&path);
    }

    #[test]
    fn disk_cache_entries_of_other_hardware_never_alias() {
        let path = temp_cache_path("hw");
        {
            let (store, mut table) = disk_table(&path);
            table.point(&RunningMode::full_speed(&CpuConfig::paper_quad_core()));
            assert_eq!(store.misses(), 1);
        }
        // Same mix/budget/geometry, different L2 size: the fingerprint in the
        // stored key must keep the entry from matching.
        let store = Arc::new(CharStore::with_disk_cache(&path).expect("open disk cache"));
        assert_eq!(store.len(), 1, "the entry itself still loads");
        let mut small_l2 = CpuConfig::paper_quad_core();
        small_l2.l2.capacity_bytes /= 4;
        let mut shrunk = CharacterizationTable::with_store(
            small_l2,
            FbdimmConfig::ddr2_667_paper(),
            "W1",
            mixes::w1().apps,
            15_000,
            Arc::clone(&store),
        );
        shrunk.point(&RunningMode::full_speed(&CpuConfig::paper_quad_core()));
        assert_eq!(store.misses(), 1, "different hardware must recompute, not reuse");
        assert_eq!(store.hits(), 0);
        remove_cache_files(&path);
    }

    #[test]
    fn mode_key_progress_mirrors_running_mode() {
        let cpu = CpuConfig::paper_quad_core();
        let full = RunningMode::full_speed(&cpu);
        assert!(ModeKey::from_mode(&full).makes_progress());
        let off = RunningMode { active_cores: 0, op: cpu.dvfs.bottom(), bandwidth_cap: Some(0.0) };
        assert!(!ModeKey::from_mode(&off).makes_progress());
        let shut = full.with_bandwidth_cap_gbps(0.0);
        assert!(!ModeKey::from_mode(&shut).makes_progress());
    }
}
