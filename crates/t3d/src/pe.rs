//! Per-PE state: cycle counter, cache, prefetch queue, statistics.

use crate::cache::Cache;
use crate::config::MachineConfig;
use crate::faults::FaultStats;
use crate::metrics::CycleBreakdown;

/// Event counters for one PE (and, summed, for the machine).
#[derive(Clone, Copy, Default, Debug)]
pub struct PeStats {
    pub cache_hits: u64,
    pub local_fills: u64,
    pub remote_fills: u64,
    /// `Fresh` reads that hit an old-phase line and re-fetched.
    pub refresh_fills: u64,
    /// Bypass (uncached) shared reads.
    pub bypass_reads: u64,
    /// Uncached shared reads of the BASE scheme.
    pub uncached_reads: u64,
    pub writes_local: u64,
    pub writes_remote: u64,
    pub line_prefetches_issued: u64,
    pub line_prefetches_dropped: u64,
    pub vector_prefetches_issued: u64,
    pub vector_words_moved: u64,
    /// Consumed reads that had to wait for an in-flight prefetch.
    pub prefetch_late: u64,
    /// Misses refilled from the local staging buffer (data landed there via
    /// a vector prefetch this phase) instead of the remote home.
    pub staged_fills: u64,
    /// Cycles spent stalled on memory (fills, uncached reads, waits).
    pub mem_stall_cycles: u64,
    /// Cycles spent issuing prefetches.
    pub prefetch_cycles: u64,
    /// Cycles spent waiting at barriers.
    pub barrier_wait_cycles: u64,

    // -- hardware-coherence counters (MESI / Dragon backends) --------------
    /// Snooping-bus transactions issued (BusRd / BusRdX / BusUpgr / BusUpd).
    pub bus_txns: u64,
    /// Remote copies invalidated by this PE's BusRdX/BusUpgr transactions.
    pub bus_invalidations: u64,
    /// Remote copies patched in place by this PE's BusUpd transactions.
    pub bus_updates: u64,

    // -- prefetch quality counters (see `metrics::PrefetchQuality`) -------
    /// Cached reads executed with `Fresh` handling (the potentially-stale
    /// reads the plan must cover).
    pub fresh_reads: u64,
    /// `Fresh` reads served by a line prefetched in the current phase.
    pub fresh_hits_prefetched: u64,
    /// Cache hits on prefetch-installed lines (any handling).
    pub prefetched_line_hits: u64,
    /// Words installed in the cache by prefetches (line and vector).
    pub prefetch_words_issued: u64,
    /// Prefetched words subsequently read at least once.
    pub prefetch_words_used: u64,

    /// Injected-fault accounting (all zero unless a `FaultPlan` is active).
    pub faults: FaultStats,

    /// Per-category attribution of every cycle this PE spent; its total
    /// equals the PE's final cycle counter exactly.
    pub breakdown: CycleBreakdown,
}

impl PeStats {
    pub fn add(&mut self, o: &PeStats) {
        self.cache_hits += o.cache_hits;
        self.local_fills += o.local_fills;
        self.remote_fills += o.remote_fills;
        self.refresh_fills += o.refresh_fills;
        self.bypass_reads += o.bypass_reads;
        self.uncached_reads += o.uncached_reads;
        self.writes_local += o.writes_local;
        self.writes_remote += o.writes_remote;
        self.line_prefetches_issued += o.line_prefetches_issued;
        self.line_prefetches_dropped += o.line_prefetches_dropped;
        self.vector_prefetches_issued += o.vector_prefetches_issued;
        self.vector_words_moved += o.vector_words_moved;
        self.prefetch_late += o.prefetch_late;
        self.staged_fills += o.staged_fills;
        self.mem_stall_cycles += o.mem_stall_cycles;
        self.prefetch_cycles += o.prefetch_cycles;
        self.barrier_wait_cycles += o.barrier_wait_cycles;
        self.bus_txns += o.bus_txns;
        self.bus_invalidations += o.bus_invalidations;
        self.bus_updates += o.bus_updates;
        self.fresh_reads += o.fresh_reads;
        self.fresh_hits_prefetched += o.fresh_hits_prefetched;
        self.prefetched_line_hits += o.prefetched_line_hits;
        self.prefetch_words_issued += o.prefetch_words_issued;
        self.prefetch_words_used += o.prefetch_words_used;
        self.faults.add(&o.faults);
        self.breakdown.add(&o.breakdown);
    }
}

/// One processing element.
pub struct Pe {
    pub id: usize,
    /// Cycle counter.
    pub now: u64,
    pub cache: Cache,
    /// In-flight prefetches: (ready_at, words). Pruned lazily.
    pub inflight: Vec<(u64, usize)>,
    /// Owner PE of the last prefetch target (DTB Annex amortization).
    pub annex_pe: Option<usize>,
    /// Cache lines whose data a vector prefetch staged into local buffer
    /// memory during the current phase: conflict evictions of such lines
    /// refill locally instead of re-crossing the network.
    pub staged: std::collections::HashSet<u64>,
    /// Phase `staged` belongs to.
    pub staged_phase: u32,
    pub stats: PeStats,
    /// Scratch for read values during statement evaluation.
    pub scratch: Vec<f64>,
}

impl Pe {
    pub fn new(id: usize, cfg: &MachineConfig) -> Pe {
        Pe {
            id,
            now: 0,
            cache: Cache::new(cfg.cache_lines, cfg.line_words),
            inflight: Vec::new(),
            annex_pe: None,
            staged: std::collections::HashSet::new(),
            staged_phase: 0,
            stats: PeStats::default(),
            scratch: Vec::with_capacity(8),
        }
    }

    /// Words currently in flight in the prefetch queue.
    pub fn inflight_words(&mut self) -> usize {
        let now = self.now;
        self.inflight.retain(|&(ready, _)| ready > now);
        self.inflight.iter().map(|&(_, w)| w).sum()
    }

    /// Try to reserve queue space for a prefetch of `words` words arriving
    /// at `ready_at`; false when the queue is full (prefetch dropped).
    pub fn queue_reserve(&mut self, words: usize, ready_at: u64, capacity: usize) -> bool {
        if self.inflight_words() + words > capacity {
            return false;
        }
        self.inflight.push((ready_at, words));
        true
    }

    /// Record vector-prefetched lines in the local staging buffer.
    pub fn stage_lines(&mut self, phase: u32, lines: impl Iterator<Item = u64>) {
        if self.staged_phase != phase {
            self.staged.clear();
            self.staged_phase = phase;
        }
        self.staged.extend(lines);
    }

    /// Is the line staged locally (valid this phase)?
    pub fn is_staged(&self, phase: u32, line: u64) -> bool {
        self.staged_phase == phase && self.staged.contains(&line)
    }

    /// Pay the DTB Annex setup if the prefetch target owner changed.
    pub fn annex_cost(&mut self, owner: usize, cfg: &MachineConfig) -> u64 {
        if self.annex_pe == Some(owner) {
            0
        } else {
            self.annex_pe = Some(owner);
            cfg.annex_setup
        }
    }
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn queue_capacity_enforced() {
        let cfg = MachineConfig::t3d(2);
        let mut pe = Pe::new(0, &cfg);
        // 16-word queue, 4-word lines: 4 concurrent line prefetches.
        for _ in 0..4 {
            assert!(pe.queue_reserve(4, 100, cfg.queue_words));
        }
        assert!(!pe.queue_reserve(4, 100, cfg.queue_words));
        // Time passes; entries drain.
        pe.now = 101;
        assert!(pe.queue_reserve(4, 200, cfg.queue_words));
    }

    #[test]
    fn annex_amortizes_same_owner() {
        let cfg = MachineConfig::t3d(4);
        let mut pe = Pe::new(0, &cfg);
        assert_eq!(pe.annex_cost(2, &cfg), cfg.annex_setup);
        assert_eq!(pe.annex_cost(2, &cfg), 0);
        assert_eq!(pe.annex_cost(3, &cfg), cfg.annex_setup);
    }

    #[test]
    fn stats_add() {
        let mut a = PeStats { cache_hits: 1, ..Default::default() };
        let b = PeStats { cache_hits: 2, remote_fills: 5, ..Default::default() };
        a.add(&b);
        assert_eq!(a.cache_hits, 3);
        assert_eq!(a.remote_fills, 5);
    }
}
