//! Coherence backends: the seam between the interpreter and "what happens
//! on a shared read/write".
//!
//! Every scheme the simulator executes is a [`CoherenceBackend`]: the
//! interpreter's tree walker routes **all** shared-data reads and writes
//! through the trait, so one dispatch point decides state lookup, remote
//! traffic, cycle charges, and stats. The software schemes (SEQ / BASE /
//! CCDP / INV) are *static* backends — their per-reference decisions are
//! fixed by the scheme and the prefetch plan, which is why the compiled
//! trace can specialize them into [`crate::compiled::AccessKind`] at
//! compile time (the `compiled_equivalence` property test pins the two
//! paths together). The hardware schemes (MESI / Dragon) are *dynamic*
//! backends: they carry a line-state machine per (cache slot, PE) in a
//! snoop directory plus a snooping-bus model, and both execution paths
//! dispatch them through the trait
//! ([`crate::compiled::AccessKind::Hardware`]).
//!
//! # Hardware backends: data model
//!
//! Both hardware backends keep the **data shadow write-through**: every
//! store still updates main memory (bumping the word's version) exactly as
//! the software schemes do, so the coherence oracle and the golden-numerics
//! check apply unchanged. What the protocol state machine governs is the
//! *sharing traffic*: which accesses ride the snooping bus, which remote
//! copies get invalidated (MESI) or patched in place (Dragon), and what
//! that costs. A correct protocol keeps every cached copy current, so both
//! backends are oracle-coherent by construction; the oracle still checks
//! every consumed read, so a protocol bug shows up as a genuine stale value.
//!
//! Dirty-line writeback on eviction is *not* modelled (the shadow keeps
//! memory current, so there is nothing to write back); the protocols here
//! cost the transaction structure — misses, upgrades, updates — not the
//! writeback stream.
//!
//! # Snoop directory
//!
//! Every PE's cache is direct-mapped with the same geometry, so a line can
//! occupy only one slot. Both hardware backends therefore keep their line
//! states in one flat slot-major array (`SnoopDirectory`): the entry for
//! (slot, PE) sits at `[slot * P + pe]` and holds the slot's tag and state,
//! `None` meaning Invalid. A snoop scans the `P` contiguous entries of one
//! slot; an install overwrites the slot's entry, which is the conflict
//! eviction. Only the backends change a hardware run's cache residency,
//! and each change updates the directory in the same call, so an entry is
//! valid exactly when the PE's cache holds its line (asserted on the hit
//! paths and property-tested in `unit`).
//!
//! # Bus model
//!
//! One shared snooping bus, modelled without a global event queue (PEs
//! simulate independently between barriers): each transaction charges the
//! issuing PE its own occupancy `bus_txn` ([`CycleCategory::BusTxn`]) plus
//! the *mean residual occupancy* of the other `P - 1` contending PEs,
//! `bus_txn * (P - 1) / 2` ([`CycleCategory::BusWait`]) — deterministic,
//! order-independent, and monotone in `P`, which is the contention shape a
//! shared bus imposes. On top of that, each PE owns a **delayed-message
//! queue** (after cachesim-rs-mp's `delayed_q`): a transaction's snoop
//! traffic stays outstanding for `bus_txn * (P - 1)` cycles after issue,
//! and a PE with [`MachineConfig::bus_queue`] messages outstanding stalls
//! until the oldest drains. Fault-plan queue storms shrink this capacity
//! through the same [`FaultEngine::effective_queue`] hook that storms the
//! prefetch queue, and latency spikes multiply miss-fill latency through
//! `fill_multiplier` — fault injection applies uniformly through the
//! trait's charge points.
//!
//! Snoop side effects (invalidations, updates) are applied eagerly at the
//! writer's transaction. PEs execute sequentially within a phase, so this
//! is the same "writes land in simulation order" convention every software
//! scheme already uses; programs free of same-phase cross-PE races (what
//! `ccdp-lint`'s phase-race detection verifies) observe identical values
//! either way, and all effects have landed by the barrier.

use ccdp_ir::RefId;

use crate::config::MachineConfig;
use crate::interp::Simulator;
use crate::metrics::{CycleCategory, TraceEventKind};
use crate::Scheme;

/// What happens on a shared-data access under one execution scheme.
///
/// Methods take the [`Simulator`] explicitly (the backend is moved out of
/// the simulator for the duration of a call), so a backend composes the
/// simulator's charge/trace/oracle primitives instead of duplicating them.
pub trait CoherenceBackend {
    /// Scheme name this backend implements ("MESI", "CCDP", ...).
    fn name(&self) -> &'static str;

    /// Execute one shared read: return the value the program observes,
    /// charging all cycles and feeding the oracle. `craft` is the array's
    /// CRAFT local-access overhead (consulted only by the BASE backend).
    fn read_shared(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        rid: RefId,
        addr: usize,
        craft: u64,
    ) -> f64;

    /// Execute one shared write of `value`. `craft_local` is the array's
    /// CRAFT local-access overhead (BASE backend only).
    fn write_shared(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        addr: usize,
        craft_local: u64,
        value: f64,
    );

    /// Does this backend execute explicit prefetch statements and pipelined
    /// prefetches? Only the plan-directed CCDP backend does; hardware
    /// backends resolve coherence dynamically and need no plan.
    fn executes_prefetches(&self) -> bool {
        false
    }
}

/// Build the backend for a scheme. The machine's PE count and cache
/// geometry size the hardware backends' bus queues and snoop directory.
pub(crate) fn backend_for(scheme: &Scheme, cfg: &MachineConfig) -> Box<dyn CoherenceBackend> {
    match scheme {
        Scheme::Sequential => Box::new(SeqBackend),
        Scheme::Base => Box::new(BaseBackend),
        Scheme::Ccdp { .. } => Box::new(CcdpBackend),
        Scheme::InvalidateOnly { .. } => Box::new(InvalidateOnlyBackend),
        Scheme::Mesi => Box::new(Mesi::new(cfg)),
        Scheme::Dragon => Box::new(Dragon::new(cfg)),
    }
}

// -- software backends ----------------------------------------------------
//
// Stateless: the scheme (and its plan) lives in the simulator, and the
// access primitives (`cached_read` / `base_read` / `bypass_read` /
// `write_shared_addr`) already implement the semantics. These impls are
// what the compiled trace specializes into `AccessKind`s.

/// Uniprocessor reference scheme: everything cached, `Normal` handling.
struct SeqBackend;

impl CoherenceBackend for SeqBackend {
    fn name(&self) -> &'static str {
        "SEQ"
    }

    fn read_shared(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        rid: RefId,
        addr: usize,
        _craft: u64,
    ) -> f64 {
        sim.cached_read(pe, rid, addr, ccdp_prefetch::Handling::Normal)
    }

    fn write_shared(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        addr: usize,
        craft_local: u64,
        value: f64,
    ) {
        sim.write_shared_addr(pe, addr, craft_local, value);
    }
}

/// CRAFT BASE scheme: local shared data cached plus index arithmetic,
/// remote shared data uncached.
struct BaseBackend;

impl CoherenceBackend for BaseBackend {
    fn name(&self) -> &'static str {
        "BASE"
    }

    fn read_shared(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        rid: RefId,
        addr: usize,
        craft: u64,
    ) -> f64 {
        sim.base_read(pe, rid, addr, craft)
    }

    fn write_shared(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        addr: usize,
        craft_local: u64,
        value: f64,
    ) {
        sim.write_shared_addr(pe, addr, craft_local, value);
    }
}

/// Plan-directed CCDP scheme: reads follow the plan's handling, prefetch
/// statements execute.
struct CcdpBackend;

impl CoherenceBackend for CcdpBackend {
    fn name(&self) -> &'static str {
        "CCDP"
    }

    fn read_shared(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        rid: RefId,
        addr: usize,
        _craft: u64,
    ) -> f64 {
        match sim.handling_of(rid) {
            ccdp_prefetch::Handling::Bypass => sim.bypass_read(pe, addr),
            h => sim.cached_read(pe, rid, addr, h),
        }
    }

    fn write_shared(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        addr: usize,
        craft_local: u64,
        value: f64,
    ) {
        sim.write_shared_addr(pe, addr, craft_local, value);
    }

    fn executes_prefetches(&self) -> bool {
        true
    }
}

/// Invalidate-only software baseline: same plan-directed engine as CCDP
/// (its plan bypasses every potentially-stale read), but no prefetches.
struct InvalidateOnlyBackend;

impl CoherenceBackend for InvalidateOnlyBackend {
    fn name(&self) -> &'static str {
        "INV"
    }

    fn read_shared(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        rid: RefId,
        addr: usize,
        _craft: u64,
    ) -> f64 {
        match sim.handling_of(rid) {
            ccdp_prefetch::Handling::Bypass => sim.bypass_read(pe, addr),
            h => sim.cached_read(pe, rid, addr, h),
        }
    }

    fn write_shared(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        addr: usize,
        craft_local: u64,
        value: f64,
    ) {
        sim.write_shared_addr(pe, addr, craft_local, value);
    }
}

// -- snooping bus ----------------------------------------------------------

/// The shared snooping bus: contention charges plus a per-PE bounded queue
/// of outstanding snoop messages (the delayed-message queue).
struct Bus {
    /// Per-PE outstanding messages: cycle at which each drains. Pruned
    /// lazily against the PE clock, like `Pe::inflight`.
    delayed_q: Vec<Vec<u64>>,
}

impl Bus {
    fn new(n_pes: usize) -> Bus {
        Bus { delayed_q: vec![Vec::new(); n_pes] }
    }

    /// Charge one bus transaction issued by `pe`: arbitration wait (mean
    /// residual occupancy of the other `P - 1` requesters), own occupancy,
    /// and a delayed-queue stall when too many of this PE's snoop messages
    /// are still outstanding. Returns after the PE clock has advanced past
    /// the transaction.
    fn transaction(&mut self, sim: &mut Simulator, pe: usize) {
        let txn = sim.cfg.bus_txn;
        let p = sim.cfg.n_pes as u64;
        // Delayed-message queue: block until the oldest outstanding snoop
        // drains if the queue is at capacity. Fault-plan queue storms
        // shrink the capacity through the same hook as the prefetch queue.
        let mut cap = sim.cfg.bus_queue;
        if let Some(f) = sim.faults.as_mut() {
            let (c, began) = f.effective_queue(pe, cap);
            cap = c;
            if began {
                sim.pes[pe].stats.faults.queue_storms += 1;
            }
        }
        let now = sim.pes[pe].now;
        let q = &mut self.delayed_q[pe];
        q.retain(|&drain| drain > now);
        if q.len() >= cap.max(1) {
            // A storm (cap 0) still admits one message once the queue is
            // empty — the bus degrades, it does not deadlock.
            let oldest = *q.iter().min().expect("non-empty queue");
            let stall = oldest - now;
            sim.charge(pe, CycleCategory::BusWait, stall);
            sim.pes[pe].stats.mem_stall_cycles += stall;
            let now = sim.pes[pe].now;
            self.delayed_q[pe].retain(|&drain| drain > now);
        }
        sim.charge(pe, CycleCategory::BusWait, txn * (p - 1) / 2);
        sim.charge(pe, CycleCategory::BusTxn, txn);
        sim.pes[pe].stats.bus_txns += 1;
        // The snoop traffic stays outstanding while every other cache
        // processes it; the PE itself does not block on that.
        let drain = sim.pes[pe].now + txn * (p - 1);
        self.delayed_q[pe].push(drain);
    }
}

// -- snoop directory -------------------------------------------------------

/// One (cache slot, PE) entry of a [`SnoopDirectory`]: the line the slot
/// last held and its protocol state (`None` = Invalid).
#[derive(Clone, Copy)]
struct DirEntry<S> {
    tag: u64,
    state: Option<S>,
}

impl<S: Copy> DirEntry<S> {
    /// This entry's state for `line`: `None` when the slot is invalid or
    /// holds a different line.
    #[inline]
    fn state_for(&self, line: u64) -> Option<S> {
        if self.tag == line {
            self.state
        } else {
            None
        }
    }
}

/// Protocol state of every PE's cache, slot-major: entry `[slot * P + pe]`
/// (see the module docs, *Snoop directory*). Invariant: an entry is valid
/// for a line exactly when that PE's cache holds the line.
struct SnoopDirectory<S> {
    n_pes: usize,
    slot_mask: usize,
    line_words: usize,
    entries: Vec<DirEntry<S>>,
}

impl<S: Copy> SnoopDirectory<S> {
    fn new(cfg: &MachineConfig) -> SnoopDirectory<S> {
        SnoopDirectory {
            n_pes: cfg.n_pes,
            slot_mask: cfg.cache_lines - 1,
            line_words: cfg.line_words,
            entries: vec![DirEntry { tag: 0, state: None }; cfg.cache_lines * cfg.n_pes],
        }
    }

    /// Line address of a word address (same as `Cache::line_addr`).
    #[inline]
    fn line(&self, addr: usize) -> u64 {
        (addr / self.line_words) as u64
    }

    /// The `P` entries of the slot `line` maps to, indexed by PE.
    #[inline]
    fn row(&self, line: u64) -> &[DirEntry<S>] {
        let base = (line as usize & self.slot_mask) * self.n_pes;
        &self.entries[base..base + self.n_pes]
    }

    #[inline]
    fn row_mut(&mut self, line: u64) -> &mut [DirEntry<S>] {
        let base = (line as usize & self.slot_mask) * self.n_pes;
        &mut self.entries[base..base + self.n_pes]
    }

    /// `pe`'s state for `line` (`None` = Invalid).
    #[inline]
    fn get(&self, pe: usize, line: u64) -> Option<S> {
        self.row(line)[pe].state_for(line)
    }

    /// `pe`'s state for the line holding word `addr`.
    #[cfg(test)]
    fn state_of(&self, pe: usize, addr: usize) -> Option<S> {
        self.get(pe, self.line(addr))
    }

    /// Record that `pe` holds `line` in state `st`, replacing whatever line
    /// the slot held before.
    #[inline]
    fn set(&mut self, pe: usize, line: u64, st: S) {
        self.row_mut(line)[pe] = DirEntry { tag: line, state: Some(st) };
    }
}

// -- MESI ------------------------------------------------------------------

/// MESI line states. Invalid is a `None` directory entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MesiState {
    Modified,
    Exclusive,
    Shared,
}

/// Snooping MESI (invalidate-based) hardware coherence.
///
/// Transactions: read miss → `BusRd` (install Shared if any other cache
/// holds the line, else Exclusive; remote Modified/Exclusive copies
/// downgrade to Shared); write to a Shared line → `BusUpgr` (invalidate
/// every remote copy, go Modified); write miss → `BusRdX` (invalidate,
/// fill, go Modified); write to Exclusive → Modified silently.
pub(crate) struct Mesi {
    bus: Bus,
    dir: SnoopDirectory<MesiState>,
}

impl Mesi {
    pub(crate) fn new(cfg: &MachineConfig) -> Mesi {
        Mesi { bus: Bus::new(cfg.n_pes), dir: SnoopDirectory::new(cfg) }
    }

    /// Invalidate every remote copy of `addr`'s line (BusUpgr / BusRdX
    /// snoop effect). Returns how many copies were killed.
    fn invalidate_others(&mut self, sim: &mut Simulator, pe: usize, addr: usize) -> u64 {
        let line = self.dir.line(addr);
        let mut n = 0;
        for (other, e) in self.dir.row_mut(line).iter_mut().enumerate() {
            if other != pe && e.state_for(line).is_some() {
                e.state = None;
                sim.pes[other].cache.invalidate(addr);
                n += 1;
            }
        }
        if n > 0 {
            sim.pes[pe].stats.bus_invalidations += n;
            sim.trace_event(pe, TraceEventKind::BusInvalidate, addr);
        }
        n
    }

    /// Snoop a BusRd: downgrade every remote Modified/Exclusive copy to
    /// Shared. Returns whether any other cache holds the line.
    fn snoop_read(&mut self, pe: usize, line: u64) -> bool {
        let mut shared = false;
        for (other, e) in self.dir.row_mut(line).iter_mut().enumerate() {
            if other != pe && e.state_for(line).is_some() {
                shared = true;
                e.state = Some(MesiState::Shared);
            }
        }
        shared
    }

}

impl CoherenceBackend for Mesi {
    fn name(&self) -> &'static str {
        "MESI"
    }

    fn read_shared(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        rid: RefId,
        addr: usize,
        _craft: u64,
    ) -> f64 {
        let line = self.dir.line(addr);
        if let Some(hit) = sim.pes[pe].cache.lookup(addr) {
            debug_assert!(self.dir.get(pe, line).is_some(), "hit on a directory-invalid line");
            return sim.hw_cached_hit(pe, rid, addr, hit);
        }
        // Read miss: BusRd.
        self.bus.transaction(sim, pe);
        let shared = self.snoop_read(pe, line);
        sim.hw_fill(pe, addr);
        let st = if shared { MesiState::Shared } else { MesiState::Exclusive };
        self.dir.set(pe, line, st);
        sim.mem.read_shared(addr).0
    }

    fn write_shared(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        addr: usize,
        _craft_local: u64,
        value: f64,
    ) {
        let line = self.dir.line(addr);
        match self.dir.get(pe, line) {
            Some(MesiState::Modified) => {}
            Some(MesiState::Exclusive) => {
                // Silent upgrade: no bus traffic.
                self.dir.set(pe, line, MesiState::Modified);
            }
            Some(MesiState::Shared) => {
                // BusUpgr: kill every remote copy, then own the line.
                self.bus.transaction(sim, pe);
                self.invalidate_others(sim, pe, addr);
                self.dir.set(pe, line, MesiState::Modified);
            }
            None => {
                // Write miss: BusRdX (read-for-ownership).
                self.bus.transaction(sim, pe);
                self.invalidate_others(sim, pe, addr);
                sim.hw_fill(pe, addr);
                self.dir.set(pe, line, MesiState::Modified);
            }
        }
        sim.hw_store(pe, addr, value);
    }
}

// -- Dragon ----------------------------------------------------------------

/// Dragon line states (no Invalid in the write path: writes update remote
/// copies instead of killing them). A `None` directory entry = not cached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DragonState {
    /// Exclusive clean.
    Exclusive,
    /// Shared clean.
    SharedClean,
    /// Shared modified: this cache last wrote the (shared) line.
    SharedModified,
    /// Modified, no other copies.
    Modified,
}

/// Dragon (update-based) hardware coherence.
///
/// Read miss → `BusRd` (Exclusive if nobody else holds the line, else
/// SharedClean; a remote Modified owner downgrades to SharedModified).
/// Write to a shared line → `BusUpd`: every remote copy is patched in
/// place (and downgraded to SharedClean); the writer becomes SharedModified
/// — or Modified when the snoop finds no sharers left. Write to
/// Exclusive/Modified is bus-silent.
pub(crate) struct Dragon {
    bus: Bus,
    dir: SnoopDirectory<DragonState>,
}

impl Dragon {
    pub(crate) fn new(cfg: &MachineConfig) -> Dragon {
        Dragon { bus: Bus::new(cfg.n_pes), dir: SnoopDirectory::new(cfg) }
    }

    /// Does any PE other than `pe` hold `line`?
    fn has_sharers(&self, pe: usize, line: u64) -> bool {
        self.dir
            .row(line)
            .iter()
            .enumerate()
            .any(|(other, e)| other != pe && e.state_for(line).is_some())
    }

    /// BusUpd: patch every sharer's copy of `addr` with the freshly written
    /// word and settle the writer's state (SharedModified while sharers
    /// remain, Modified otherwise). The write itself (memory + own cache)
    /// has already happened via `hw_store`, which leaves other PEs'
    /// entries untouched, so the sharers are those the snoop saw.
    fn bus_update(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        addr: usize,
        value: f64,
        version: u32,
    ) {
        let line = self.dir.line(addr);
        let mut n = 0;
        for (other, e) in self.dir.row_mut(line).iter_mut().enumerate() {
            if other != pe && e.state_for(line).is_some() {
                e.state = Some(DragonState::SharedClean);
                sim.pes[other].cache.update_word(addr, value, version);
                n += 1;
            }
        }
        sim.pes[pe].stats.bus_updates += n;
        sim.trace_event(pe, TraceEventKind::BusUpdate, addr);
        let st = if n == 0 { DragonState::Modified } else { DragonState::SharedModified };
        self.dir.set(pe, line, st);
    }
}

impl CoherenceBackend for Dragon {
    fn name(&self) -> &'static str {
        "DRAGON"
    }

    fn read_shared(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        rid: RefId,
        addr: usize,
        _craft: u64,
    ) -> f64 {
        let line = self.dir.line(addr);
        if let Some(hit) = sim.pes[pe].cache.lookup(addr) {
            debug_assert!(self.dir.get(pe, line).is_some(), "hit on a directory-invalid line");
            return sim.hw_cached_hit(pe, rid, addr, hit);
        }
        // Read miss: BusRd. Remote exclusive holders downgrade to shared
        // (a Modified owner keeps write responsibility as SharedModified).
        self.bus.transaction(sim, pe);
        let mut shared = false;
        for (other, e) in self.dir.row_mut(line).iter_mut().enumerate() {
            if other == pe {
                continue;
            }
            if let Some(st) = e.state_for(line) {
                shared = true;
                e.state = Some(match st {
                    DragonState::Modified => DragonState::SharedModified,
                    DragonState::Exclusive => DragonState::SharedClean,
                    s => s,
                });
            }
        }
        sim.hw_fill(pe, addr);
        let st = if shared { DragonState::SharedClean } else { DragonState::Exclusive };
        self.dir.set(pe, line, st);
        sim.mem.read_shared(addr).0
    }

    fn write_shared(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        addr: usize,
        _craft_local: u64,
        value: f64,
    ) {
        let line = self.dir.line(addr);
        match self.dir.get(pe, line) {
            Some(DragonState::Modified) => {
                sim.hw_store(pe, addr, value);
            }
            Some(DragonState::Exclusive) => {
                self.dir.set(pe, line, DragonState::Modified);
                sim.hw_store(pe, addr, value);
            }
            Some(DragonState::SharedClean) | Some(DragonState::SharedModified) => {
                // BusUpd (the snoop also reveals whether sharers remain).
                self.bus.transaction(sim, pe);
                let ver = sim.hw_store(pe, addr, value);
                self.bus_update(sim, pe, addr, value, ver);
            }
            None => {
                // Write miss: fill first (BusRd), then update sharers if
                // the snoop found any.
                self.bus.transaction(sim, pe);
                let shared = self.has_sharers(pe, line);
                sim.hw_fill(pe, addr);
                if shared {
                    self.bus.transaction(sim, pe);
                    let ver = sim.hw_store(pe, addr, value);
                    self.bus_update(sim, pe, addr, value, ver);
                } else {
                    self.dir.set(pe, line, DragonState::Modified);
                    sim.hw_store(pe, addr, value);
                }
            }
        }
    }
}

#[cfg(test)]
mod unit {
    use super::*;
    use ccdp_dist::Layout;
    use ccdp_ir::{Program, ProgramBuilder};
    use crate::config::{MachineConfig, SimOptions};

    /// A two-PE fixture with one shared array laid out blockwise: words
    /// 0..8 live on PE 0, words 8..16 on PE 1.
    fn fixture() -> Program {
        let mut pb = ProgramBuilder::new("coh");
        let a = pb.shared("A", &[16]);
        pb.serial_epoch("touch", |e| {
            e.assign(a.at1(0), a.at1(0).rd() + 0.0);
        });
        pb.finish().unwrap()
    }

    fn sim_for(p: &Program, scheme: Scheme) -> Simulator<'_> {
        let layout = Layout::new(p, 2);
        let cfg = MachineConfig::t3d(2);
        Simulator::new(p, layout, cfg, scheme, SimOptions::default())
    }

    /// Drive a backend directly: reads/writes against the raw simulator
    /// state, checking protocol-state transitions one at a time.
    #[test]
    fn mesi_read_miss_installs_exclusive_then_shared() {
        let p = fixture();
        let mut sim = sim_for(&p, Scheme::Mesi);
        let mut m = Mesi::new(&sim.cfg);
        let rid = RefId(0);
        // PE 0 read miss: nobody else caches the line → Exclusive.
        m.read_shared(&mut sim, 0, rid, 0, 0);
        assert_eq!(m.dir.state_of(0, 0), Some(MesiState::Exclusive));
        // PE 1 reads the same line: both go Shared.
        m.read_shared(&mut sim, 1, rid, 0, 0);
        assert_eq!(m.dir.state_of(0, 0), Some(MesiState::Shared));
        assert_eq!(m.dir.state_of(1, 0), Some(MesiState::Shared));
        assert_eq!(sim.pes[0].stats.bus_txns + sim.pes[1].stats.bus_txns, 2);
    }

    #[test]
    fn mesi_write_upgrades_and_invalidates() {
        let p = fixture();
        let mut sim = sim_for(&p, Scheme::Mesi);
        let mut m = Mesi::new(&sim.cfg);
        let rid = RefId(0);
        m.read_shared(&mut sim, 0, rid, 0, 0);
        m.read_shared(&mut sim, 1, rid, 0, 0);
        // PE 0 writes a Shared line: BusUpgr kills PE 1's copy.
        m.write_shared(&mut sim, 0, 0, 0, 7.0);
        assert_eq!(m.dir.state_of(0, 0), Some(MesiState::Modified));
        assert_eq!(m.dir.state_of(1, 0), None, "remote copy invalidated");
        assert!(sim.pes[1].cache.lookup(0).is_none());
        assert_eq!(sim.pes[0].stats.bus_invalidations, 1);
        // A second write to the now-Modified line is bus-silent.
        let txns = sim.pes[0].stats.bus_txns;
        m.write_shared(&mut sim, 0, 0, 0, 8.0);
        assert_eq!(sim.pes[0].stats.bus_txns, txns);
        // Exclusive → Modified is silent too.
        m.read_shared(&mut sim, 1, rid, 8, 0);
        assert_eq!(m.dir.state_of(1, 8), Some(MesiState::Exclusive));
        let txns = sim.pes[1].stats.bus_txns;
        m.write_shared(&mut sim, 1, 8, 0, 1.0);
        assert_eq!(m.dir.state_of(1, 8), Some(MesiState::Modified));
        assert_eq!(sim.pes[1].stats.bus_txns, txns);
    }

    #[test]
    fn mesi_write_miss_is_busrdx() {
        let p = fixture();
        let mut sim = sim_for(&p, Scheme::Mesi);
        let mut m = Mesi::new(&sim.cfg);
        let rid = RefId(0);
        m.read_shared(&mut sim, 1, rid, 0, 0);
        // PE 0 write miss: BusRdX invalidates PE 1 and installs Modified.
        m.write_shared(&mut sim, 0, 0, 0, 3.5);
        assert_eq!(m.dir.state_of(0, 0), Some(MesiState::Modified));
        assert_eq!(m.dir.state_of(1, 0), None);
        // The readback sees the new value, version-current (oracle-clean).
        let v = m.read_shared(&mut sim, 0, rid, 0, 0);
        assert_eq!(v, 3.5);
        assert_eq!(sim.oracle.stale_reads, 0);
    }

    #[test]
    fn dragon_updates_remote_copies_in_place() {
        let p = fixture();
        let mut sim = sim_for(&p, Scheme::Dragon);
        let mut d = Dragon::new(&sim.cfg);
        let rid = RefId(0);
        d.read_shared(&mut sim, 0, rid, 0, 0);
        assert_eq!(d.dir.state_of(0, 0), Some(DragonState::Exclusive));
        d.read_shared(&mut sim, 1, rid, 0, 0);
        assert_eq!(d.dir.state_of(0, 0), Some(DragonState::SharedClean));
        // PE 0 writes: BusUpd patches PE 1's copy instead of killing it.
        d.write_shared(&mut sim, 0, 0, 0, 9.25);
        assert_eq!(d.dir.state_of(0, 0), Some(DragonState::SharedModified));
        assert_eq!(d.dir.state_of(1, 0), Some(DragonState::SharedClean));
        assert!(sim.pes[1].cache.lookup(0).is_some(), "copy survives");
        assert_eq!(sim.pes[0].stats.bus_updates, 1);
        // PE 1 reads its patched copy: current value, no stale read.
        let v = d.read_shared(&mut sim, 1, rid, 0, 0);
        assert_eq!(v, 9.25);
        assert_eq!(sim.oracle.stale_reads, 0);
    }

    #[test]
    fn dragon_modified_owner_downgrades_to_shared_modified() {
        let p = fixture();
        let mut sim = sim_for(&p, Scheme::Dragon);
        let mut d = Dragon::new(&sim.cfg);
        let rid = RefId(0);
        // PE 0 write miss with no sharers → Modified.
        d.write_shared(&mut sim, 0, 0, 0, 2.0);
        assert_eq!(d.dir.state_of(0, 0), Some(DragonState::Modified));
        // PE 1 reads: owner goes SharedModified, reader SharedClean.
        let v = d.read_shared(&mut sim, 1, rid, 0, 0);
        assert_eq!(v, 2.0);
        assert_eq!(d.dir.state_of(0, 0), Some(DragonState::SharedModified));
        assert_eq!(d.dir.state_of(1, 0), Some(DragonState::SharedClean));
        // PE 1 now writes: BusUpd; PE 1 becomes the SharedModified owner
        // and PE 0's copy downgrades to SharedClean, patched in place.
        d.write_shared(&mut sim, 1, 0, 0, 4.0);
        assert_eq!(d.dir.state_of(1, 0), Some(DragonState::SharedModified));
        assert_eq!(d.dir.state_of(0, 0), Some(DragonState::SharedClean));
        let v = d.read_shared(&mut sim, 0, rid, 0, 0);
        assert_eq!(v, 4.0);
        assert_eq!(sim.oracle.stale_reads, 0);
    }

    #[test]
    fn dragon_exclusive_write_is_silent() {
        let p = fixture();
        let mut sim = sim_for(&p, Scheme::Dragon);
        let mut d = Dragon::new(&sim.cfg);
        let rid = RefId(0);
        d.read_shared(&mut sim, 0, rid, 0, 0);
        let txns = sim.pes[0].stats.bus_txns;
        d.write_shared(&mut sim, 0, 0, 0, 1.0);
        assert_eq!(d.dir.state_of(0, 0), Some(DragonState::Modified));
        assert_eq!(sim.pes[0].stats.bus_txns, txns, "E→M write is bus-silent");
        assert_eq!(sim.pes[0].stats.bus_updates, 0);
    }

    #[test]
    fn conflicting_install_purges_the_evicted_lines_state() {
        let p = {
            let mut pb = ProgramBuilder::new("big");
            // Big enough that two addresses map to the same direct-mapped
            // cache slot: line count 256, line words 4 → stride 1024 words.
            let a = pb.shared("A", &[4096]);
            pb.serial_epoch("touch", |e| {
                e.assign(a.at1(0), a.at1(0).rd() + 0.0);
            });
            pb.finish().unwrap()
        };
        let mut sim = sim_for(&p, Scheme::Mesi);
        let mut m = Mesi::new(&sim.cfg);
        let rid = RefId(0);
        m.read_shared(&mut sim, 0, rid, 0, 0);
        assert_eq!(m.dir.state_of(0, 0), Some(MesiState::Exclusive));
        // Address 1024 conflicts with address 0 (same slot, different tag).
        m.read_shared(&mut sim, 0, rid, 1024, 0);
        assert!(sim.pes[0].cache.lookup(0).is_none(), "conflict evicted");
        assert_eq!(m.dir.state_of(0, 0), None, "state purged with the line");
        assert_eq!(m.dir.state_of(0, 1024), Some(MesiState::Exclusive));
    }

    /// Every (PE, line) of a `words`-word shared space: the directory entry
    /// is valid exactly when the PE's cache holds the line, and every valid
    /// entry names a line the cache really holds in that slot.
    fn assert_lockstep<S: Copy>(dir: &SnoopDirectory<S>, sim: &Simulator, words: usize, op: usize) {
        for pe in 0..sim.cfg.n_pes {
            let cache = &sim.pes[pe].cache;
            for addr in (0..words).step_by(sim.cfg.line_words) {
                let line = dir.line(addr);
                assert_eq!(
                    dir.get(pe, line).is_some(),
                    cache.lookup(addr).is_some(),
                    "op {op}: PE {pe} line {line}: directory and cache disagree"
                );
            }
            for slot in 0..sim.cfg.cache_lines {
                let e = dir.entries[slot * sim.cfg.n_pes + pe];
                if e.state.is_some() {
                    let addr = e.tag as usize * sim.cfg.line_words;
                    assert!(
                        cache.lookup(addr).is_some_and(|h| h.line == slot),
                        "op {op}: PE {pe} slot {slot}: valid entry for an uncached line"
                    );
                }
            }
        }
    }

    /// Seeded random reads/writes on 2–4 PEs with a 4-line cache (so
    /// conflict evictions are frequent), through one hardware backend,
    /// checking the directory/cache lockstep invariant after every access
    /// and a clean oracle at the end.
    fn lockstep_run<B: CoherenceBackend, S: Copy>(
        make: fn(&MachineConfig) -> B,
        dir: fn(&B) -> &SnoopDirectory<S>,
        scheme: Scheme,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const WORDS: usize = 64;
        let p = {
            let mut pb = ProgramBuilder::new("lockstep");
            let a = pb.shared("A", &[WORDS]);
            pb.serial_epoch("touch", |e| {
                e.assign(a.at1(0), a.at1(0).rd() + 0.0);
            });
            pb.finish().unwrap()
        };
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n_pes = rng.gen_range(2..=4usize);
            let mut cfg = MachineConfig::t3d(n_pes);
            cfg.cache_lines = 4;
            let layout = Layout::new(&p, n_pes);
            let mut sim = Simulator::new(&p, layout, cfg, scheme.clone(), SimOptions::default());
            let mut b = make(&sim.cfg);
            for op in 0..400 {
                let pe = rng.gen_range(0..n_pes);
                let addr = rng.gen_range(0..WORDS);
                if rng.gen_range(0..3u32) == 0 {
                    b.write_shared(&mut sim, pe, addr, 0, op as f64);
                } else {
                    let v = b.read_shared(&mut sim, pe, RefId(0), addr, 0);
                    assert_eq!(v, sim.mem.read_shared(addr).0, "seed {seed} op {op}");
                }
                assert_lockstep(dir(&b), &sim, WORDS, op);
            }
            assert_eq!(sim.oracle.stale_reads, 0, "seed {seed}");
        }
    }

    #[test]
    fn directory_stays_in_lockstep_with_caches() {
        lockstep_run(Mesi::new, |m| &m.dir, Scheme::Mesi);
        lockstep_run(Dragon::new, |d| &d.dir, Scheme::Dragon);
    }

    #[test]
    fn bus_queue_stalls_when_full() {
        let p = fixture();
        let mut sim = sim_for(&p, Scheme::Mesi);
        // Tiny queue: every second transaction must wait for a drain.
        sim.cfg.bus_queue = 1;
        let mut bus = Bus::new(2);
        bus.transaction(&mut sim, 0);
        let wait0 = sim.pes[0].stats.breakdown.get(CycleCategory::BusWait);
        bus.transaction(&mut sim, 0);
        let wait1 = sim.pes[0].stats.breakdown.get(CycleCategory::BusWait);
        // Second transaction paid the contention wait AND a queue stall.
        // Mean-residual arbitration with P=2: txn * (P - 1) / 2.
        let contention = sim.cfg.bus_txn / 2;
        assert!(
            wait1 - wait0 > contention,
            "expected a queue stall on top of contention: {} vs {}",
            wait1 - wait0,
            contention
        );
        // Every charge is attributed: breakdown total equals the clock.
        assert_eq!(sim.pes[0].stats.breakdown.total(), sim.pes[0].now);
    }
}
