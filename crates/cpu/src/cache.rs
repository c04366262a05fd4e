//! Set-associative cache model with true LRU replacement.
//!
//! The shared L2 cache is the piece of the processor that matters most to
//! the thermal study: its miss rate under different numbers of co-running
//! programs determines the memory traffic, which determines DRAM/AMB heat
//! generation. The model is a tag-only set-associative cache with per-set
//! LRU, dirty bits for write-back traffic, and hit/miss/write-back
//! statistics.
//!
//! The cache is touched on every demand access of the closed-loop level-1
//! simulation *and* on every warm-start prefill line, so its storage is a
//! single contiguous `sets × ways` buffer: one allocation, set lookup by
//! power-of-two masking (with a division fallback for odd set counts), and a
//! layout that clones with a straight `memcpy` — which is what makes the
//! warm-state images of [`crate::multicore::MulticoreSim`] cheap to reuse.

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        (self.capacity_bytes / self.line_bytes / self.associativity as u64).max(1) as usize
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns an error message if any dimension is zero or the capacity is
    /// not an exact multiple of `associativity * line_bytes`.
    pub fn validate(&self) -> Result<(), String> {
        if self.capacity_bytes == 0 || self.line_bytes == 0 || self.associativity == 0 {
            return Err("cache dimensions must be positive".into());
        }
        if !self.capacity_bytes.is_multiple_of(self.line_bytes * self.associativity as u64) {
            return Err("capacity must be a multiple of associativity x line size".into());
        }
        Ok(())
    }
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent; if a dirty victim was evicted its line address is
    /// carried here so the caller can issue the write-back.
    Miss {
        /// Dirty victim evicted by the fill, if any.
        writeback: Option<u64>,
    },
}

impl AccessOutcome {
    /// Returns `true` for hits.
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// Aggregate cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Total misses.
    pub misses: u64,
    /// Dirty evictions (write-backs generated).
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]`; 0 when no accesses were made.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Valid bit of a way's metadata byte.
const META_VALID: u8 = 0b01;
/// Dirty bit of a way's metadata byte.
const META_DIRTY: u8 = 0b10;

/// A set-associative, write-back, allocate-on-miss cache with LRU
/// replacement, addressed by 64-byte line address.
///
/// Storage is three contiguous `sets × ways` arrays in structure-of-arrays
/// layout (set `s` occupies index range `s*assoc .. (s+1)*assoc` of each):
/// the hit scan walks one cache-line-sized run of tags, the LRU scan one run
/// of timestamps, and the valid/dirty bits live in a byte array an order of
/// magnitude smaller than either. A power-of-two set count resolves the set
/// index with a mask instead of a division.
#[derive(Debug, Clone, PartialEq)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    /// Flat `sets × associativity` tag array.
    tags: Vec<u64>,
    /// Monotonic last-use timestamps (larger = more recent), same layout.
    lru: Vec<u64>,
    /// Per-way `META_VALID` / `META_DIRTY` bits, same layout.
    meta: Vec<u8>,
    /// Number of sets (`tags.len() / cfg.associativity`).
    sets: usize,
    /// `sets - 1` when the set count is a power of two, else 0.
    set_mask: u64,
    /// `log2(sets)` when the set count is a power of two, else 0.
    set_shift: u32,
    stats: CacheStats,
    clock: u64,
}

impl SetAssocCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`CacheConfig::validate`]).
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate().expect("invalid cache configuration");
        let sets = cfg.sets();
        let entries = sets * cfg.associativity;
        let (set_mask, set_shift) =
            if sets.is_power_of_two() { ((sets - 1) as u64, sets.trailing_zeros()) } else { (0, 0) };
        SetAssocCache {
            cfg,
            tags: vec![0; entries],
            lru: vec![0; entries],
            meta: vec![0; entries],
            sets,
            set_mask,
            set_shift,
            stats: CacheStats::default(),
            clock: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn index_and_tag(&self, line: u64) -> (usize, u64) {
        if self.set_mask != 0 {
            ((line & self.set_mask) as usize, line >> self.set_shift)
        } else {
            let sets = self.sets as u64;
            ((line % sets) as usize, line / sets)
        }
    }

    /// Accesses `line`; `is_write` marks the line dirty on hit or fill.
    /// Returns whether the access hit and, on a miss, any dirty victim whose
    /// write-back the caller must issue.
    pub fn access(&mut self, line: u64, is_write: bool) -> AccessOutcome {
        self.clock += 1;
        self.stats.accesses += 1;
        let (set_idx, tag) = self.index_and_tag(line);
        let sets = self.sets as u64;
        let assoc = self.cfg.associativity;
        let base = set_idx * assoc;
        let set_tags = &self.tags[base..base + assoc];
        let set_meta = &self.meta[base..base + assoc];

        // Hit path: one scan over the (cache-line-sized) tag run.
        for w in 0..assoc {
            if set_meta[w] & META_VALID != 0 && set_tags[w] == tag {
                self.lru[base + w] = self.clock;
                if is_write {
                    self.meta[base + w] |= META_DIRTY;
                }
                return AccessOutcome::Hit;
            }
        }

        // Miss: fill into the first invalid way or evict the LRU way.
        self.stats.misses += 1;
        let victim = match set_meta.iter().position(|&m| m & META_VALID == 0) {
            Some(w) => w,
            None => {
                let set_lru = &self.lru[base..base + assoc];
                let mut best = 0;
                for w in 1..assoc {
                    if set_lru[w] < set_lru[best] {
                        best = w;
                    }
                }
                best
            }
        };
        let victim_meta = self.meta[base + victim];
        let writeback = if victim_meta & (META_VALID | META_DIRTY) == META_VALID | META_DIRTY {
            self.stats.writebacks += 1;
            Some(self.tags[base + victim] * sets + set_idx as u64)
        } else {
            None
        };
        self.tags[base + victim] = tag;
        self.lru[base + victim] = self.clock;
        self.meta[base + victim] = META_VALID | if is_write { META_DIRTY } else { 0 };
        AccessOutcome::Miss { writeback }
    }

    /// Invalidates the whole cache, discarding dirty data (used when a
    /// program's copy finishes and its footprint is recycled).
    pub fn flush(&mut self) {
        self.tags.fill(0);
        self.lru.fill(0);
        self.meta.fill(0);
    }

    /// Resets the cache to its just-constructed state: empty contents, zero
    /// statistics, zero clock.
    pub fn reset(&mut self) {
        self.flush();
        self.stats = CacheStats::default();
        self.clock = 0;
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.meta.iter().filter(|&&m| m & META_VALID != 0).count()
    }

    /// Fills this (empty, just-reset) cache with the round-robin warm-start
    /// prefill the level-1 simulator uses, producing *exactly* the state of
    /// the equivalent access loop
    ///
    /// ```text
    /// for offset in 0..max_hot {
    ///     for (base, hot) in entries {
    ///         if offset < hot { self.access(base + offset, false); }
    ///     }
    /// }
    /// ```
    ///
    /// but constructed directly: since every prefilled line is distinct,
    /// each access is a miss that fills ways round-robin per set, so the
    /// final contents of a set are simply its last `associativity` arrivals
    /// — which can be written once each, with their exact LRU timestamps,
    /// without simulating the tens of thousands of earlier accesses that
    /// would be overwritten anyway. The whole cache state (contents, LRU
    /// clock, statistics) is defined by this call, so no prior reset is
    /// needed — unfilled ways are written back to their empty state. Falls
    /// back to reset plus the literal loop for geometries the closed form
    /// does not cover (non-power-of-two set counts, bases that are not
    /// set-aligned, or overlapping ranges).
    pub fn warm_fill_round_robin(&mut self, entries: &[(u64, u64)]) {
        let sets = self.sets as u64;
        let assoc = self.cfg.associativity;

        let closed_form_applies = self.set_mask != 0
            && entries.iter().all(|&(base, _)| base % sets == 0)
            && entries.iter().enumerate().all(|(i, &(base, hot))| {
                entries.iter().skip(i + 1).all(|&(b2, h2)| base + hot <= b2 || b2 + h2 <= base)
            });
        if !closed_form_applies {
            self.reset();
            for offset in 0..entries.iter().map(|&(_, hot)| hot).max().unwrap_or(0) {
                for &(base, hot) in entries {
                    if offset < hot {
                        self.access(base + offset, false);
                    }
                }
            }
            return;
        }

        let total: u64 = entries.iter().map(|&(_, hot)| hot).sum();
        for s in 0..sets {
            // Arrivals to set `s` are offsets o ≡ s (mod sets), entry-major
            // within one offset. Count them, then materialize only the last
            // `assoc` (the survivors), walking offsets downward.
            let mut n_s: u64 = 0;
            let mut o_max: u64 = 0;
            for &(_, hot) in entries {
                if hot > s {
                    let k = (hot - 1 - s) / sets + 1;
                    n_s += k;
                    o_max = o_max.max(s + (k - 1) * sets);
                }
            }
            let survivors = (n_s).min(assoc as u64);
            // Ways beyond the arrival count stay (or return to) empty.
            for w in (n_s.min(assoc as u64) as usize)..assoc {
                let idx = (s as usize) * assoc + w;
                self.tags[idx] = 0;
                self.lru[idx] = 0;
                self.meta[idx] = 0;
            }
            let mut m = n_s; // arrival ordinal within the set, walked downward
            let mut o = o_max;
            let mut placed = 0;
            while placed < survivors {
                for (i, &(base, hot)) in entries.iter().enumerate().rev() {
                    if hot > o {
                        if placed < survivors {
                            // Way filled by arrival m (1-indexed): ways cycle
                            // round-robin, so the m-th arrival lands in way
                            // (m-1) % assoc; walking the top `assoc` ordinals
                            // touches each way exactly once.
                            let way = ((m - 1) % assoc as u64) as usize;
                            // Exact clock of this access: all accesses at
                            // earlier offsets, plus earlier entries at this
                            // offset, plus one.
                            let mut clock = 1;
                            for (j, &(_, hot_j)) in entries.iter().enumerate() {
                                clock += hot_j.min(o) + u64::from(j < i && hot_j > o);
                            }
                            let idx = (s as usize) * assoc + way;
                            self.tags[idx] = (base + o) >> self.set_shift;
                            self.lru[idx] = clock;
                            self.meta[idx] = META_VALID;
                            placed += 1;
                        }
                        m -= 1;
                    }
                }
                if o < sets {
                    break;
                }
                o -= sets;
            }
        }
        self.clock = total;
        self.stats = CacheStats { accesses: total, misses: total, writebacks: 0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> SetAssocCache {
        // 64 lines, 4-way, 16 sets.
        SetAssocCache::new(CacheConfig { capacity_bytes: 64 * 64, associativity: 4, line_bytes: 64 })
    }

    #[test]
    fn config_geometry_is_consistent() {
        let cfg = CacheConfig { capacity_bytes: 4 * 1024 * 1024, associativity: 8, line_bytes: 64 };
        cfg.validate().unwrap();
        assert_eq!(cfg.sets(), 8192);
    }

    #[test]
    fn invalid_geometry_is_rejected() {
        assert!(CacheConfig { capacity_bytes: 0, associativity: 8, line_bytes: 64 }.validate().is_err());
        assert!(CacheConfig { capacity_bytes: 1000, associativity: 8, line_bytes: 64 }.validate().is_err());
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = small_cache();
        assert!(!c.access(42, false).is_hit());
        assert!(c.access(42, false).is_hit());
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn working_set_larger_than_cache_always_misses_on_second_pass_with_lru() {
        let mut c = small_cache(); // 64 lines capacity
                                   // Stream 128 distinct lines twice; LRU means nothing survives.
        for _pass in 0..2 {
            for line in 0..128u64 {
                c.access(line, false);
            }
        }
        assert_eq!(c.stats().misses, 256);
    }

    #[test]
    fn working_set_smaller_than_cache_hits_on_second_pass() {
        let mut c = small_cache();
        for line in 0..32u64 {
            c.access(line, false);
        }
        let misses_after_first = c.stats().misses;
        for line in 0..32u64 {
            assert!(c.access(line, false).is_hit());
        }
        assert_eq!(c.stats().misses, misses_after_first);
    }

    #[test]
    fn dirty_eviction_produces_writeback_of_correct_line() {
        // Direct-mapped single-set cache of 1 way to force eviction.
        let mut c = SetAssocCache::new(CacheConfig { capacity_bytes: 64, associativity: 1, line_bytes: 64 });
        c.access(5, true);
        match c.access(6, false) {
            AccessOutcome::Miss { writeback: Some(line) } => assert_eq!(line, 5),
            other => panic!("expected dirty eviction, got {other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_produces_no_writeback() {
        let mut c = SetAssocCache::new(CacheConfig { capacity_bytes: 64, associativity: 1, line_bytes: 64 });
        c.access(5, false);
        match c.access(6, false) {
            AccessOutcome::Miss { writeback } => assert!(writeback.is_none()),
            other => panic!("expected miss, got {other:?}"),
        }
    }

    #[test]
    fn lru_keeps_recently_used_lines() {
        // 2-way, 1 set.
        let mut c = SetAssocCache::new(CacheConfig { capacity_bytes: 128, associativity: 2, line_bytes: 64 });
        c.access(0, false);
        c.access(1, false);
        c.access(0, false); // 0 is now MRU
        c.access(2, false); // evicts 1
        assert!(c.access(0, false).is_hit(), "MRU line must survive");
        assert!(!c.access(1, false).is_hit(), "LRU line must have been evicted");
    }

    #[test]
    fn flush_empties_the_cache() {
        let mut c = small_cache();
        for line in 0..32u64 {
            c.access(line, true);
        }
        assert!(c.resident_lines() > 0);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.access(0, false).is_hit());
    }

    /// Literal prefill loop the closed form must reproduce exactly.
    fn loop_warm_fill(cache: &mut SetAssocCache, entries: &[(u64, u64)]) {
        for offset in 0..entries.iter().map(|&(_, hot)| hot).max().unwrap_or(0) {
            for &(base, hot) in entries {
                if offset < hot {
                    cache.access(base + offset, false);
                }
            }
        }
    }

    #[test]
    fn closed_form_warm_fill_matches_access_loop_exactly() {
        // Sweep geometries around the interesting boundaries: fewer arrivals
        // than ways, exactly full sets, and many-times-overwritten sets, with
        // unequal per-entry hot sizes (the rotation-averaged case).
        let geometries = [
            (64 * 64u64, 4usize), // 16 sets, 4-way
            (64 * 64, 8),         // 8 sets, 8-way
            (4 * 1024 * 1024, 8), // the paper L2
        ];
        let hot_sets: &[&[u64]] = &[
            &[3],
            &[1, 1, 1, 1],
            &[40, 17],
            &[8192, 16384, 12800, 40960], // W1 hot regions
            &[5, 100, 33, 7],
        ];
        for &(capacity, assoc) in &geometries {
            let cfg = CacheConfig { capacity_bytes: capacity, associativity: assoc, line_bytes: 64 };
            for hots in hot_sets {
                let entries: Vec<(u64, u64)> =
                    hots.iter().enumerate().map(|(i, &h)| (((i as u64) + 1) << 34, h)).collect();
                let mut direct = SetAssocCache::new(cfg);
                direct.warm_fill_round_robin(&entries);
                let mut looped = SetAssocCache::new(cfg);
                loop_warm_fill(&mut looped, &entries);
                assert_eq!(direct, looped, "cfg {cfg:?} hots {hots:?}");
            }
        }
    }

    #[test]
    fn warm_fill_fully_overwrites_a_dirty_cache() {
        // The fill defines the complete state, so filling a cache full of
        // unrelated dirty lines must equal filling a fresh one.
        let cfg = CacheConfig { capacity_bytes: 64 * 64, associativity: 4, line_bytes: 64 };
        let entries = [((1u64) << 34, 40u64), ((2u64) << 34, 7)];
        let mut fresh = SetAssocCache::new(cfg);
        fresh.warm_fill_round_robin(&entries);
        let mut dirty = SetAssocCache::new(cfg);
        for line in 0..500u64 {
            dirty.access(line * 3, true);
        }
        dirty.warm_fill_round_robin(&entries);
        assert_eq!(fresh, dirty);
        // Same contract on the fallback (unaligned) path.
        let unaligned = [(3u64, 40u64), (1 << 20, 17)];
        let mut fresh = SetAssocCache::new(cfg);
        fresh.warm_fill_round_robin(&unaligned);
        let mut dirty = SetAssocCache::new(cfg);
        for line in 0..500u64 {
            dirty.access(line * 3, true);
        }
        dirty.warm_fill_round_robin(&unaligned);
        assert_eq!(fresh, dirty);
    }

    #[test]
    fn warm_fill_falls_back_for_unaligned_bases() {
        // A base that is not a multiple of the set count forces the literal
        // loop; the result must still match it (trivially, by being it).
        let cfg = CacheConfig { capacity_bytes: 64 * 64, associativity: 4, line_bytes: 64 };
        let entries = [(3u64, 40u64), (1 << 20, 17)];
        let mut direct = SetAssocCache::new(cfg);
        direct.warm_fill_round_robin(&entries);
        let mut looped = SetAssocCache::new(cfg);
        loop_warm_fill(&mut looped, &entries);
        assert_eq!(direct, looped);
    }

    #[test]
    fn miss_rate_is_fraction_of_accesses() {
        let mut c = small_cache();
        c.access(1, false);
        c.access(1, false);
        c.access(2, false);
        c.access(2, false);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
    }
}
