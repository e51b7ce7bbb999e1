//! The program interpreter: executes IR programs on the modelled machine,
//! accumulating per-PE cycle counts and feeding the coherence oracle.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use ccdp_dist::{chunks, doall_range_for_pe, Layout};
use ccdp_ir::{
    cond_core, Affine, ArrayId, ArrayRef, Assign, CmpOp, Cond, Epoch, EpochKind, Loop, LoopId,
    LoopKind, PrefetchKind, PrefetchStmt, Program, ProgramItem, RefId, Stmt, VarEnv,
};
use ccdp_prefetch::Handling;

use crate::cache::Hit;
use crate::coherence::{backend_for, CoherenceBackend};
use crate::compiled::{
    compile_loop, AccessKind, CAssign, CompileCtx, CompiledBody, CRead, CStmt, SlotSpec,
    SlotState,
};
use crate::config::{MachineConfig, Scheme, SimAbort, SimOptions};
use crate::faults::FaultEngine;
use crate::mem::Memory;
use crate::metrics::{CycleCategory, EpochCycles, EventTrace, MemEvent, TraceEventKind};
use crate::pe::Pe;
use crate::result::{OracleReport, SimResult, StaleReadExample};

/// Loaded-read values of one compiled statement live in a stack buffer of
/// this many slots; statements with more reads (validator-legal but unseen
/// in practice) fall back to the PE's scratch vector.
const READ_BUF: usize = 12;

/// Snapshot of one loop header, for vector-prefetch section evaluation.
#[derive(Clone, Debug)]
struct LoopHeader {
    var: ccdp_ir::VarId,
    lo: Affine,
    hi: Affine,
    step: i64,
    kind: LoopKind,
    align: Option<ArrayId>,
}

/// Executes one program under one scheme on one machine configuration.
pub struct Simulator<'p> {
    program: &'p Program,
    layout: Layout,
    pub(crate) cfg: MachineConfig,
    scheme: Scheme,
    opts: SimOptions,
    pub(crate) mem: Memory,
    pub(crate) pes: Vec<Pe>,
    env: VarEnv,
    phase: u32,
    pub(crate) oracle: OracleReport,
    extrapolated: bool,
    loop_headers: HashMap<LoopId, LoopHeader>,
    /// Subscripts of every read reference (vector prefetches name targets by
    /// `RefId`).
    ref_index: HashMap<RefId, (ArrayId, Vec<Affine>)>,
    /// FLOP cost per assignment, keyed by the write reference id.
    flops: HashMap<RefId, u32>,
    /// BASE-scheme CRAFT local-access overhead per array (depends on the
    /// array's distribution kind).
    craft_cost: Vec<u64>,
    coords: Vec<i64>,
    /// Per-epoch cycle accounting, in first-execution order.
    epochs: Vec<EpochCycles>,
    /// Epoch id → index into `epochs`.
    epoch_slots: HashMap<u32, usize>,
    /// Slot all cycle charges currently accumulate into.
    cur_epoch: Option<usize>,
    /// Pseudo-slot for Repeat extrapolation cycles.
    extrap_slot: Option<usize>,
    trace: EventTrace,
    /// Fault injectors (`None` when the plan injects nothing, which keeps
    /// fault-free runs byte-identical to a build without the subsystem).
    pub(crate) faults: Option<FaultEngine>,
    /// The coherence backend executing this scheme's shared accesses. Moved
    /// out (`Option::take`) for the duration of each dispatched access so
    /// the backend can borrow the simulator mutably; always `Some` between
    /// accesses.
    backend: Option<Box<dyn CoherenceBackend>>,
    /// Source epoch currently executing (targeted fault injection).
    cur_epoch_id: Option<u32>,
    /// Compiled loop bodies, keyed by loop id (the scheme — the other half
    /// of the cache key — is fixed per simulator). Reused across epochs,
    /// `Repeat` iterations, and PEs.
    compiled: HashMap<LoopId, Rc<CompiledBody<'p>>>,
    /// Pool of slot-state frames, recycled across loop entries so steady
    /// state allocates nothing.
    frames: Vec<Vec<SlotState>>,
    /// Run loops through the reference tree walker instead of the compiled
    /// trace (`SimOptions::force_treewalk`).
    treewalk: bool,
    /// Interpreter steps executed (loop iterations across all PEs and both
    /// execution paths). Drives `SimOptions::step_budget` and paces the
    /// wall-clock deadline check.
    steps: u64,
    /// Set once a budget or deadline trips; every execution loop checks it
    /// and unwinds, so the abort reaches `try_run` in O(program size).
    abort: Option<SimAbort>,
    /// Any budget or deadline configured (precomputed so the fault-free,
    /// budget-free hot path pays one predictable branch per iteration).
    budgeted: bool,
}

impl<'p> Simulator<'p> {
    /// Build a simulator. `program` must be the transformed program when the
    /// scheme is `Ccdp` (its plan indexes the same `RefId` space).
    pub fn new(
        program: &'p Program,
        layout: Layout,
        cfg: MachineConfig,
        scheme: Scheme,
        opts: SimOptions,
    ) -> Simulator<'p> {
        assert_eq!(
            layout.n_pes(),
            cfg.n_pes,
            "layout and machine config disagree on PE count"
        );
        let mem = Memory::new(program, &layout);
        let pes = (0..cfg.n_pes).map(|i| Pe::new(i, &cfg)).collect();
        let craft_cost: Vec<u64> = program
            .arrays
            .iter()
            .map(|a| match layout.distribution(a.id) {
                ccdp_dist::Distribution::GeneralizedBlock { .. } => cfg.craft_generalized,
                _ => cfg.craft_local,
            })
            .collect();
        let mut loop_headers = HashMap::new();
        let mut ref_index = HashMap::new();
        let mut flops = HashMap::new();
        let mut seen = HashSet::new();
        for e in program.epochs() {
            if !seen.insert(e.id) {
                continue;
            }
            index_stmts(&e.stmts, &mut loop_headers, &mut ref_index, &mut flops);
        }
        let faults =
            (!opts.faults.is_none()).then(|| FaultEngine::new(opts.faults, cfg.n_pes));
        let backend = Some(backend_for(&scheme, &cfg));
        let treewalk = opts.force_treewalk;
        let budgeted = opts.cycle_budget.is_some()
            || opts.step_budget.is_some()
            || opts.wall_deadline.is_some();
        Simulator {
            program,
            layout,
            cfg,
            scheme,
            opts,
            mem,
            pes,
            env: VarEnv::new(program.var_names.len()),
            phase: 0,
            oracle: OracleReport::default(),
            extrapolated: false,
            loop_headers,
            ref_index,
            flops,
            craft_cost,
            coords: Vec::with_capacity(4),
            epochs: Vec::new(),
            epoch_slots: HashMap::new(),
            cur_epoch: None,
            extrap_slot: None,
            trace: EventTrace::new(opts.trace_capacity),
            faults,
            backend,
            cur_epoch_id: None,
            compiled: HashMap::new(),
            frames: Vec::new(),
            treewalk,
            steps: 0,
            abort: None,
            budgeted,
        }
    }

    /// Run to completion, panicking if a budget or deadline aborts the run.
    /// Callers that configure budgets must use [`Simulator::try_run`].
    pub fn run(self) -> SimResult {
        match self.try_run() {
            Ok(r) => r,
            Err(a) => panic!("simulation aborted without a budget-aware caller: {a}"),
        }
    }

    /// Run to completion, or abort with a structured [`SimAbort`] when a
    /// cycle/step budget or the wall-clock deadline trips. Both execution
    /// paths (compiled trace and tree walker) check budgets at every loop
    /// iteration, so a runaway program terminates promptly; the partially
    /// simulated state is discarded.
    pub fn try_run(mut self) -> Result<SimResult, SimAbort> {
        let items = self.program.items.as_slice();
        self.exec_items(items);
        if let Some(a) = self.abort.take() {
            return Err(a);
        }
        let cycles = self.global_now();
        Ok(SimResult {
            scheme: self.scheme.name(),
            cycles,
            per_pe: self.pes.iter().map(|p| p.stats).collect(),
            oracle: self.oracle,
            memory: self.mem,
            phases: self.phase,
            extrapolated: self.extrapolated,
            epochs: self.epochs,
            trace: self.trace,
        })
    }

    // -- run budgets -------------------------------------------------------

    /// One interpreter step (a loop iteration on `pe`). Returns `false` —
    /// and records the abort — once a budget or the deadline is exhausted;
    /// every execution loop bails out on `false`. With no budgets configured
    /// this is a counter increment and one predictable branch.
    #[inline]
    fn tick(&mut self, pe: usize) -> bool {
        self.steps += 1;
        if !self.budgeted {
            return true;
        }
        self.tick_slow(pe)
    }

    #[cold]
    fn tick_slow(&mut self, pe: usize) -> bool {
        if self.abort.is_some() {
            return false;
        }
        if let Some(b) = self.opts.cycle_budget {
            let cycles = self.pes[pe].now;
            if cycles > b {
                self.abort =
                    Some(SimAbort::BudgetExceeded { pe, cycles, steps: self.steps });
                return false;
            }
        }
        if let Some(b) = self.opts.step_budget {
            if self.steps > b {
                let cycles = self.pes[pe].now;
                self.abort =
                    Some(SimAbort::BudgetExceeded { pe, cycles, steps: self.steps });
                return false;
            }
        }
        if let Some(d) = self.opts.wall_deadline {
            // Sampling the host clock every iteration would dominate the
            // simulation; every few thousand steps bounds the overshoot to
            // well under a millisecond.
            if self.steps.is_multiple_of(4096) && std::time::Instant::now() >= d {
                self.abort = Some(SimAbort::WallTimeout { pe, steps: self.steps });
                return false;
            }
        }
        true
    }

    // -- cycle accounting --------------------------------------------------

    /// Advance a PE's cycle counter, attributing the cycles to `cat` in the
    /// PE's breakdown and the current epoch slot. Every cycle the simulator
    /// charges goes through here, which is what makes the invariant
    /// `breakdown.total() == pe.now` hold exactly.
    #[inline]
    pub(crate) fn charge(&mut self, pe: usize, cat: CycleCategory, cycles: u64) {
        let p = &mut self.pes[pe];
        p.now += cycles;
        p.stats.breakdown.charge(cat, cycles);
        if let Some(slot) = self.cur_epoch {
            self.epochs[slot].per_pe[pe].charge(cat, cycles);
        }
    }

    /// Charge the same amount to every PE.
    fn charge_all(&mut self, cat: CycleCategory, cycles: u64) {
        for pe in 0..self.pes.len() {
            self.charge(pe, cat, cycles);
        }
    }

    /// Record a memory-system event (no-op unless tracing is enabled;
    /// recording never changes cycle counts).
    #[inline]
    pub(crate) fn trace_event(&mut self, pe: usize, kind: TraceEventKind, addr: usize) {
        if self.trace.enabled() {
            self.trace.record(MemEvent {
                cycle: self.pes[pe].now,
                pe: pe as u32,
                phase: self.phase,
                kind,
                addr: addr as u64,
            });
        }
    }

    /// Accounting slot for a source epoch (created on first execution).
    fn epoch_slot(&mut self, id: u32, label: &str) -> usize {
        if let Some(&s) = self.epoch_slots.get(&id) {
            return s;
        }
        let s = self.epochs.len();
        self.epochs.push(EpochCycles::new(label, self.cfg.n_pes));
        self.epoch_slots.insert(id, s);
        s
    }

    fn global_now(&self) -> u64 {
        self.pes.iter().map(|p| p.now).max().unwrap_or(0)
    }

    /// Does the current backend execute explicit prefetch statements and
    /// pipelined prefetches? (Only the plan-directed CCDP backend does.)
    fn prefetching(&self) -> bool {
        self.backend.as_ref().is_some_and(|b| b.executes_prefetches())
    }

    pub(crate) fn handling_of(&self, r: RefId) -> Handling {
        match &self.scheme {
            Scheme::Ccdp { plan } | Scheme::InvalidateOnly { plan } => plan.handling_of(r),
            _ => Handling::Normal,
        }
    }

    // -- backend dispatch --------------------------------------------------

    /// One shared read through the coherence backend. `craft` is the
    /// array's CRAFT local-access overhead (BASE backend only).
    pub(crate) fn backend_read(&mut self, pe: usize, rid: RefId, addr: usize, craft: u64) -> f64 {
        let mut b = self.backend.take().expect("backend re-entered");
        let v = b.read_shared(self, pe, rid, addr, craft);
        self.backend = Some(b);
        v
    }

    /// One shared write through the coherence backend.
    pub(crate) fn backend_write(&mut self, pe: usize, addr: usize, craft_local: u64, v: f64) {
        let mut b = self.backend.take().expect("backend re-entered");
        b.write_shared(self, pe, addr, craft_local, v);
        self.backend = Some(b);
    }

    // -- program structure ---------------------------------------------

    fn exec_items(&mut self, items: &'p [ProgramItem]) {
        for item in items {
            if self.abort.is_some() {
                return;
            }
            match item {
                ProgramItem::Epoch(e) => self.exec_epoch(e),
                ProgramItem::Call(r) => {
                    let prog = self.program;
                    self.exec_items(&prog.routine(*r).items);
                }
                ProgramItem::Repeat { count, body } => self.exec_repeat(*count, body),
            }
        }
    }

    fn exec_repeat(&mut self, count: u32, body: &'p [ProgramItem]) {
        let sample = self.opts.repeat_sample.unwrap_or(u32::MAX).max(2);
        if count <= sample {
            for _ in 0..count {
                self.exec_items(body);
                if self.abort.is_some() {
                    return;
                }
            }
            return;
        }
        let mut marks = Vec::with_capacity(sample as usize + 1);
        marks.push(self.global_now());
        for _ in 0..sample {
            self.exec_items(body);
            if self.abort.is_some() {
                return; // partial sample: no extrapolation from aborted runs
            }
            marks.push(self.global_now());
        }
        // Steady-state per-iteration delta: skip the first (cold caches).
        let steady = (marks[sample as usize] - marks[1]) / (sample as u64 - 1);
        let extra = steady * (count - sample) as u64;
        // Extrapolated cycles accumulate in a pseudo-epoch of their own so
        // the per-epoch accounting still sums to the per-PE totals.
        let slot = match self.extrap_slot {
            Some(s) => s,
            None => {
                let s = self.epochs.len();
                self.epochs.push(EpochCycles::new("(extrapolated)", self.cfg.n_pes));
                self.extrap_slot = Some(s);
                s
            }
        };
        let prev = self.cur_epoch.replace(slot);
        self.charge_all(CycleCategory::Extrapolated, extra);
        self.cur_epoch = prev;
        self.extrapolated = true;
    }

    fn exec_epoch(&mut self, e: &'p Epoch) {
        let slot = self.epoch_slot(e.id.0, &e.label);
        let prev = self.cur_epoch.replace(slot);
        let prev_id = self.cur_epoch_id.replace(e.id.0);
        match e.kind {
            EpochKind::Serial => {
                self.exec_stmts_on_pe(0, &e.stmts);
                self.barrier();
            }
            EpochKind::Parallel => self.exec_wrapper(&e.stmts),
        }
        self.cur_epoch_id = prev_id;
        self.cur_epoch = prev;
    }

    /// Execute the wrapper region of a parallel epoch: serial loops and
    /// branches run redundantly (index work only), prefetch statements run
    /// per-PE, the DOALL runs as a barrier phase.
    fn exec_wrapper(&mut self, stmts: &'p [Stmt]) {
        for s in stmts {
            if self.abort.is_some() {
                return;
            }
            match s {
                Stmt::Loop(l) if l.kind.is_doall() => self.exec_doall(l),
                Stmt::Loop(l) => {
                    let lo = l.lo.eval(&self.env);
                    let hi = l.hi.eval(&self.env);
                    let mut v = lo;
                    while v <= hi {
                        if !self.tick(0) {
                            break;
                        }
                        self.env.set(l.var, v);
                        self.charge_all(CycleCategory::LoopOverhead, self.cfg.loop_overhead);
                        self.exec_wrapper(&l.body);
                        v += l.step;
                    }
                    self.env.unset(l.var);
                }
                Stmt::If(i) => {
                    self.charge_all(CycleCategory::LoopOverhead, 1);
                    if self.eval_cond(&i.cond) {
                        self.exec_wrapper(&i.then_branch);
                    } else {
                        self.exec_wrapper(&i.else_branch);
                    }
                }
                Stmt::Prefetch(pf) => {
                    if self.prefetching() {
                        for pe in 0..self.cfg.n_pes {
                            self.exec_prefetch(pe, pf);
                        }
                    }
                }
                Stmt::Assign(_) => {
                    unreachable!("validator forbids assignments in wrapper code")
                }
            }
        }
    }

    fn exec_doall(&mut self, l: &'p Loop) {
        let lo = l.lo.eval(&self.env);
        let hi = l.hi.eval(&self.env);
        // Parallel-loop startup, charged once per DOALL instance (= per
        // barrier phase): CRAFT's `doshared` setup vs the CCDP codes'
        // direct iteration assignment (paper §5.2).
        let (setup, per_iter) = match self.scheme {
            Scheme::Sequential => (0, 0),
            Scheme::Base => (self.cfg.base_epoch_overhead, self.cfg.base_doshared_iter),
            // The CCDP codes' direct iteration assignment; the
            // invalidate-only baseline and the hardware-coherent machines
            // run the same manually scheduled loops.
            Scheme::Ccdp { .. } | Scheme::InvalidateOnly { .. } | Scheme::Mesi | Scheme::Dragon => {
                (self.cfg.ccdp_epoch_overhead, 0)
            }
        };
        self.charge_all(CycleCategory::EpochSetup, setup);
        let cb = (!self.treewalk).then(|| self.compiled_body(l));
        match l.kind {
            LoopKind::DoAllStatic => self.exec_doall_static(l, lo, hi, per_iter, cb.as_deref()),
            LoopKind::DoAllDynamic { chunk } => {
                for c in chunks(lo, hi, l.step, chunk) {
                    if self.abort.is_some() {
                        break;
                    }
                    // Next chunk goes to the earliest-available PE.
                    let pe = (0..self.cfg.n_pes)
                        .min_by_key(|&p| self.pes[p].now)
                        .unwrap();
                    self.charge(pe, CycleCategory::SchedOverhead, self.cfg.dynamic_chunk_overhead);
                    self.run_doall_range(pe, l, c.lo, c.hi, per_iter, cb.as_deref());
                }
            }
            LoopKind::Serial => unreachable!(),
        }
        self.env.unset(l.var);
        self.barrier();
    }

    /// The schedule of a static DOALL: PEs execute their ranges one after
    /// another, in ascending order, on the shared machine state.
    fn exec_doall_static(
        &mut self,
        l: &'p Loop,
        lo: i64,
        hi: i64,
        per_iter: u64,
        cb: Option<&CompiledBody<'p>>,
    ) {
        for pe in 0..self.cfg.n_pes {
            if self.abort.is_some() {
                break;
            }
            let range = match l.align {
                Some(aid) => ccdp_dist::aligned_range_for_pe(
                    &self.layout,
                    self.program.array(aid),
                    lo,
                    hi,
                    l.step,
                    pe,
                ),
                None => doall_range_for_pe(lo, hi, l.step, pe, self.cfg.n_pes),
            };
            if let Some(r) = range {
                self.run_doall_range(pe, l, r.lo, r.hi, per_iter, cb);
            }
        }
    }

    /// One PE's contiguous slice of a DOALL's iterations (a static range or
    /// a dynamic chunk). `cb` selects the compiled trace; `None` runs the
    /// reference tree walker.
    fn run_doall_range(
        &mut self,
        pe: usize,
        l: &'p Loop,
        lo: i64,
        hi: i64,
        per_iter: u64,
        cb: Option<&CompiledBody<'p>>,
    ) {
        if lo > hi {
            return;
        }
        let Some(body) = cb else {
            let mut v = lo;
            while v <= hi {
                if !self.tick(pe) {
                    break;
                }
                self.env.set(l.var, v);
                self.charge(pe, CycleCategory::LoopOverhead, self.cfg.loop_overhead);
                self.charge(pe, CycleCategory::SchedOverhead, per_iter);
                self.exec_stmts_on_pe(pe, &l.body);
                v += l.step;
            }
            return;
        };
        self.exec_compiled_range(pe, l, lo, hi, body, |sim, _| {
            sim.charge(pe, CycleCategory::SchedOverhead, per_iter);
        });
    }

    fn barrier(&mut self) {
        let m = self.global_now();
        let cost = match self.scheme {
            Scheme::Sequential => 0,
            _ => self.cfg.barrier,
        };
        for pe in 0..self.pes.len() {
            let wait = m - self.pes[pe].now;
            self.pes[pe].stats.barrier_wait_cycles += wait;
            self.charge(pe, CycleCategory::BarrierWait, wait);
            self.charge(pe, CycleCategory::BarrierCost, cost);
        }
        self.trace_event(0, TraceEventKind::Barrier, 0);
        self.phase += 1;
    }

    // -- statements on one PE -------------------------------------------

    fn exec_stmts_on_pe(&mut self, pe: usize, stmts: &'p [Stmt]) {
        for s in stmts {
            if self.abort.is_some() {
                return;
            }
            match s {
                Stmt::Assign(a) => self.exec_assign(pe, a),
                Stmt::Loop(l) => self.exec_loop_on_pe(pe, l),
                Stmt::If(i) => {
                    self.charge(pe, CycleCategory::LoopOverhead, 1);
                    if self.eval_cond(&i.cond) {
                        self.exec_stmts_on_pe(pe, &i.then_branch);
                    } else {
                        self.exec_stmts_on_pe(pe, &i.else_branch);
                    }
                }
                Stmt::Prefetch(pf) => {
                    if self.prefetching() {
                        self.exec_prefetch(pe, pf);
                    }
                }
            }
        }
    }

    fn exec_loop_on_pe(&mut self, pe: usize, l: &'p Loop) {
        debug_assert_eq!(l.kind, LoopKind::Serial, "DOALL nested in PE code");
        if self.treewalk {
            self.exec_loop_treewalk(pe, l);
        } else {
            let body = self.compiled_body(l);
            self.exec_compiled_loop(pe, l, &body);
        }
    }

    /// Reference interpreter for a serial loop: re-evaluates every subscript
    /// and re-resolves every dispatch per access. Kept as the equivalence
    /// oracle for the compiled trace (`SimOptions::force_treewalk`).
    fn exec_loop_treewalk(&mut self, pe: usize, l: &'p Loop) {
        let lo = l.lo.eval(&self.env);
        let hi = l.hi.eval(&self.env);
        if lo > hi {
            return;
        }
        let pipelined = self.prefetching() && !l.pipeline.is_empty();
        if pipelined {
            self.pipeline_prologue(pe, l, lo, hi);
        }
        let mut v = lo;
        while v <= hi {
            if !self.tick(pe) {
                break;
            }
            self.env.set(l.var, v);
            self.charge(pe, CycleCategory::LoopOverhead, self.cfg.loop_overhead);
            if pipelined {
                self.pipeline_steady(pe, l, lo, hi, v);
            }
            self.exec_stmts_on_pe(pe, &l.body);
            v += l.step;
        }
        self.env.unset(l.var);
    }

    /// Software-pipelining prologue: prefetch the first `distance`
    /// iterations' targets before the loop starts.
    fn pipeline_prologue(&mut self, pe: usize, l: &'p Loop, lo: i64, hi: i64) {
        let trip = (hi - lo) / l.step + 1;
        for pf in &l.pipeline {
            let d = pf.distance as i64;
            let every = pf.every.max(1) as i64;
            for k in (0..d.min(trip)).step_by(every as usize) {
                self.env.set(l.var, lo + (k - d) * l.step);
                self.issue_line_prefetch(pe, pf.array, &pf.index);
            }
        }
    }

    /// Software-pipelining steady state: at iteration `v`, prefetch the
    /// targets of iteration `v + distance` (when on cadence and in range).
    fn pipeline_steady(&mut self, pe: usize, l: &'p Loop, lo: i64, hi: i64, v: i64) {
        for pf in &l.pipeline {
            let k = (v - lo) / l.step;
            if k % pf.every.max(1) as i64 == 0 && v + pf.distance as i64 * l.step <= hi {
                self.issue_line_prefetch(pe, pf.array, &pf.index);
            }
        }
    }

    // -- compiled-trace execution ---------------------------------------

    /// The compiled body for a loop, compiling on first encounter.
    fn compiled_body(&mut self, l: &'p Loop) -> Rc<CompiledBody<'p>> {
        if let Some(b) = self.compiled.get(&l.id) {
            return Rc::clone(b);
        }
        let body = {
            let ctx = CompileCtx {
                program: self.program,
                mem: &self.mem,
                scheme: &self.scheme,
                craft_cost: &self.craft_cost,
            };
            Rc::new(compile_loop(l, &ctx))
        };
        self.compiled.insert(l.id, Rc::clone(&body));
        body
    }

    /// Execute a serial loop through its compiled body. Cycle-for-cycle
    /// identical to [`Simulator::exec_loop_treewalk`]: the same memory-op
    /// helpers charge at the same points; only the per-access subscript
    /// evaluation, bounds assertion, and dispatch matching are hoisted.
    fn exec_compiled_loop(&mut self, pe: usize, l: &'p Loop, body: &CompiledBody<'p>) {
        let lo = l.lo.eval(&self.env);
        let hi = l.hi.eval(&self.env);
        if lo > hi {
            return;
        }
        let pipelined = self.prefetching() && !l.pipeline.is_empty();
        if pipelined {
            self.pipeline_prologue(pe, l, lo, hi);
        }
        self.exec_compiled_range(pe, l, lo, hi, body, |sim, v| {
            if pipelined {
                sim.pipeline_steady(pe, l, lo, hi, v);
            }
        });
        self.env.unset(l.var);
    }

    /// The per-iteration loop shared by compiled DOALL ranges and compiled
    /// serial loops: enter the slot recurrences for `lo..=hi` (`lo <= hi`),
    /// then per iteration tick the run budgets, bind the loop variable,
    /// charge the loop overhead, run the caller's `each` hook (scheduling
    /// charge or pipelined prefetch), execute the body, and advance the
    /// recurrences; finally recycle the frame. The same points, in the same
    /// order, as the tree walker's loops.
    #[inline]
    fn exec_compiled_range(
        &mut self,
        pe: usize,
        l: &'p Loop,
        lo: i64,
        hi: i64,
        body: &CompiledBody<'p>,
        mut each: impl FnMut(&mut Self, i64),
    ) {
        let trip = (hi - lo) / l.step + 1;
        let last = lo + (trip - 1) * l.step;
        let mut frame = self.frames.pop().unwrap_or_default();
        frame.clear();
        for spec in &body.slots {
            frame.push(spec.enter(&self.env, lo, last, l.step));
        }
        let mut v = lo;
        while v <= hi {
            if !self.tick(pe) {
                break;
            }
            self.env.set(l.var, v);
            self.charge(pe, CycleCategory::LoopOverhead, self.cfg.loop_overhead);
            each(self, v);
            self.exec_cstmts(pe, &body.stmts, &body.slots, &frame);
            for st in frame.iter_mut() {
                st.off += st.doff;
            }
            v += l.step;
        }
        self.frames.push(frame);
    }

    fn exec_cstmts(
        &mut self,
        pe: usize,
        stmts: &[CStmt<'p>],
        slots: &[SlotSpec<'p>],
        frame: &[SlotState],
    ) {
        for s in stmts {
            if self.abort.is_some() {
                return;
            }
            match s {
                CStmt::Assign(a) => self.exec_cassign(pe, a, slots, frame),
                CStmt::If { cond, then_branch, else_branch } => {
                    self.charge(pe, CycleCategory::LoopOverhead, 1);
                    if self.eval_cond(cond) {
                        self.exec_cstmts(pe, then_branch, slots, frame);
                    } else {
                        self.exec_cstmts(pe, else_branch, slots, frame);
                    }
                }
                CStmt::Loop(cl) => {
                    debug_assert_eq!(cl.l.kind, LoopKind::Serial, "DOALL nested in PE code");
                    self.exec_compiled_loop(pe, cl.l, &cl.body);
                }
                CStmt::Prefetch(pf) => self.exec_prefetch(pe, pf),
            }
        }
    }

    /// Word address of a compiled reference: the strength-reduced recurrence
    /// when the whole range was proven in bounds at entry, else the original
    /// per-access evaluation (identical panic behaviour for genuinely
    /// out-of-bounds subscripts).
    #[inline]
    fn caddr(&mut self, base: usize, slot: u32, slots: &[SlotSpec<'p>], frame: &[SlotState]) -> usize {
        let st = frame[slot as usize];
        if st.fast {
            base + st.off as usize
        } else {
            let spec = &slots[slot as usize];
            base + self.addr_of(spec.array, spec.index)
        }
    }

    /// One compiled read: resolve the address, dispatch on the pre-resolved
    /// [`AccessKind`].
    #[inline]
    fn cread(&mut self, pe: usize, r: &CRead, slots: &[SlotSpec<'p>], frame: &[SlotState]) -> f64 {
        let addr = self.caddr(r.base, r.slot, slots, frame);
        match r.kind {
            AccessKind::Private => {
                self.charge(pe, CycleCategory::CacheHit, self.cfg.cache_hit);
                self.mem.read_private(pe, addr)
            }
            AccessKind::Base { craft } => self.base_read(pe, r.rid, addr, craft),
            AccessKind::Cached(h) => self.cached_read(pe, r.rid, addr, h),
            AccessKind::Bypass => self.bypass_read(pe, addr),
            AccessKind::Hardware => self.backend_read(pe, r.rid, addr, 0),
        }
    }

    fn exec_cassign(
        &mut self,
        pe: usize,
        a: &CAssign,
        slots: &[SlotSpec<'p>],
        frame: &[SlotState],
    ) {
        let n = a.reads.len();
        let v = if n <= READ_BUF {
            // Loaded values live in a fixed stack buffer — no PE scratch
            // vector traffic on the hot path.
            let mut buf = [0.0f64; READ_BUF];
            for (dst, r) in buf.iter_mut().zip(&a.reads) {
                *dst = self.cread(pe, r, slots, frame);
            }
            a.expr.eval(&buf[..n], &self.env)
        } else {
            let mut vals = std::mem::take(&mut self.pes[pe].scratch);
            vals.clear();
            for r in &a.reads {
                let v = self.cread(pe, r, slots, frame);
                vals.push(v);
            }
            let v = a.expr.eval(&vals, &self.env);
            self.pes[pe].scratch = vals;
            v
        };
        let addr = self.caddr(a.write.base, a.write.slot, slots, frame);
        if a.write.shared {
            self.backend_write(pe, addr, a.write.craft, v);
        } else {
            self.charge(pe, CycleCategory::WriteLocal, self.cfg.write_local);
            self.mem.write_private(pe, addr, v);
        }
        self.charge(pe, CycleCategory::FpWork, a.cost);
    }

    fn exec_assign(&mut self, pe: usize, a: &'p Assign) {
        let mut vals = std::mem::take(&mut self.pes[pe].scratch);
        vals.clear();
        for r in &a.reads {
            let v = self.exec_read(pe, r);
            vals.push(v);
        }
        let v = a.expr.eval(&vals, &self.env);
        self.pes[pe].scratch = vals;
        self.exec_write(pe, &a.write, v);
        let fl = *self.flops.get(&a.write.id).unwrap_or(&0);
        self.charge(pe, CycleCategory::FpWork, fl as u64 + a.extra_cost as u64);
    }

    // -- memory operations ------------------------------------------------

    /// Evaluate a reference's subscripts and return the word address within
    /// its array's space, with a hard bounds check.
    fn addr_of(&mut self, r_array: ArrayId, index: &[Affine]) -> usize {
        let decl = self.program.array(r_array);
        self.coords.clear();
        for ix in index {
            self.coords.push(ix.eval(&self.env));
        }
        let mut off = 0usize;
        let mut stride = 1usize;
        for (d, &c) in self.coords.iter().enumerate() {
            assert!(
                c >= 0 && (c as usize) < decl.extents[d],
                "{}: index {} out of bounds 0..{} (dim {})",
                decl.name,
                c,
                decl.extents[d],
                d
            );
            off += c as usize * stride;
            stride *= decl.extents[d];
        }
        off
    }

    fn exec_read(&mut self, pe: usize, r: &'p ArrayRef) -> f64 {
        let off = self.addr_of(r.array, &r.index);
        if !self.mem.is_shared(r.array) {
            self.charge(pe, CycleCategory::CacheHit, self.cfg.cache_hit);
            return self.mem.read_private(pe, self.mem.base(r.array) + off);
        }
        let addr = self.mem.base(r.array) + off;
        let craft = self.craft_cost[r.array.index()];
        self.backend_read(pe, r.id, addr, craft)
    }

    /// BASE-scheme shared read. `craft` is the array's CRAFT local-access
    /// overhead. Shared by the tree walker and the compiled trace.
    pub(crate) fn base_read(&mut self, pe: usize, rid: RefId, addr: usize, craft: u64) -> f64 {
        let local = self.mem.owner(addr) == pe;
        if local {
            // The T3D caches all local memory; CRAFT pays only the
            // distribution index arithmetic on top.
            self.charge(pe, CycleCategory::CraftOverhead, craft);
            self.cached_read(pe, rid, addr, Handling::Normal)
        } else {
            // Remote shared data is never cached under CRAFT.
            let lat = self.cfg.remote_uncached;
            self.charge(pe, CycleCategory::CraftOverhead, self.cfg.craft_remote);
            self.charge(pe, CycleCategory::UncachedRead, lat);
            let p = &mut self.pes[pe];
            p.stats.mem_stall_cycles += lat;
            p.stats.uncached_reads += 1;
            self.trace_event(pe, TraceEventKind::UncachedRead, addr);
            self.mem.read_shared(addr).0
        }
    }

    /// CCDP `Bypass` read: always reads main memory, never the cache.
    /// Shared by the tree walker and the compiled trace.
    pub(crate) fn bypass_read(&mut self, pe: usize, addr: usize) -> f64 {
        let local = self.mem.owner(addr) == pe;
        let lat = if local { self.cfg.local_uncached } else { self.cfg.remote_uncached };
        self.charge(pe, CycleCategory::BypassRead, lat);
        let p = &mut self.pes[pe];
        p.stats.mem_stall_cycles += lat;
        p.stats.bypass_reads += 1;
        self.trace_event(pe, TraceEventKind::BypassRead, addr);
        self.mem.read_shared(addr).0
    }

    pub(crate) fn cached_read(&mut self, pe: usize, rid: RefId, addr: usize, h: Handling) -> f64 {
        let phase = self.phase;
        if h == Handling::Fresh {
            self.pes[pe].stats.fresh_reads += 1;
        }
        if let Some(hit) = self.pes[pe].cache.lookup(addr) {
            let fresh_ok = h != Handling::Fresh || hit.filled_phase == phase;
            if fresh_ok {
                // Prefetch quality accounting: was this served by data a
                // prefetch moved, and is this the first touch of the word?
                if self.pes[pe].cache.is_prefetched(hit.line) {
                    let p = &mut self.pes[pe];
                    p.stats.prefetched_line_hits += 1;
                    if p.cache.mark_used(hit.line, addr) {
                        p.stats.prefetch_words_used += 1;
                    }
                    if h == Handling::Fresh {
                        p.stats.fresh_hits_prefetched += 1;
                    }
                }
                let now = self.pes[pe].now;
                if hit.ready_at > now {
                    let wait = hit.ready_at - now;
                    let p = &mut self.pes[pe];
                    p.stats.prefetch_late += 1;
                    p.stats.mem_stall_cycles += wait + self.cfg.queue_pop;
                    self.charge(pe, CycleCategory::PrefetchWait, wait);
                    self.charge(pe, CycleCategory::QueuePop, self.cfg.queue_pop);
                    self.trace_event(pe, TraceEventKind::PrefetchWait, addr);
                } else {
                    self.charge(pe, CycleCategory::CacheHit, self.cfg.cache_hit);
                    self.trace_event(pe, TraceEventKind::CacheHit, addr);
                }
                let p = &mut self.pes[pe];
                p.stats.cache_hits += 1;
                let (v, ver) = p.cache.read(hit.line, addr);
                self.oracle_check(pe, rid, addr, ver);
                return v;
            }
            // Fresh read over an old-phase line: coherent re-fetch.
            self.pes[pe].stats.refresh_fills += 1;
        }
        // Miss (or refresh): fill from memory — or from the local staging
        // buffer when a vector prefetch already moved the line over.
        let line_base = self.pes[pe].cache.line_base(addr);
        let line_id = self.pes[pe].cache.line_addr(addr);
        let local = self.mem.owner(addr) == pe;
        let staged = !local && self.pes[pe].is_staged(phase, line_id);
        let base_lat = if local || staged { self.cfg.local_fill } else { self.cfg.remote_fill };
        // Fault injection: latency spikes stall demand fills on the remote
        // path, and a demand fill of a line whose prefetch was faulted is
        // the graceful-degradation fallback the invariant relies on.
        let mut lat = base_lat;
        let mut fallback = false;
        if let Some(f) = self.faults.as_mut() {
            if !local && !staged {
                lat = base_lat * f.fill_multiplier(pe);
            }
            fallback = f.take_fallback(pe, line_id);
        }
        if lat > base_lat {
            let fs = &mut self.pes[pe].stats.faults;
            fs.fills_delayed += 1;
            fs.delay_extra_cycles += lat - base_lat;
        }
        if fallback {
            self.pes[pe].stats.faults.demand_fallbacks += 1;
            self.trace_event(pe, TraceEventKind::FaultFallback, addr);
        }
        let (cat, ev) = if local {
            (CycleCategory::LocalFill, TraceEventKind::LocalFill)
        } else if staged {
            (CycleCategory::StagedFill, TraceEventKind::StagedFill)
        } else {
            (CycleCategory::RemoteFill, TraceEventKind::RemoteFill)
        };
        self.charge(pe, cat, lat);
        self.trace_event(pe, ev, addr);
        let lw = self.cfg.line_words;
        let shared_words = self.mem.shared_words();
        {
            let mem = &self.mem;
            let words = (0..lw).map(|k| {
                let a = line_base + k;
                if a < shared_words {
                    mem.read_shared(a)
                } else {
                    (0.0, 0)
                }
            });
            let p = &mut self.pes[pe];
            p.stats.mem_stall_cycles += lat;
            if local {
                p.stats.local_fills += 1;
            } else if staged {
                p.stats.staged_fills += 1;
            } else {
                p.stats.remote_fills += 1;
            }
            let now = p.now;
            p.cache.install(addr, phase, now, words);
        }
        self.mem.read_shared(addr).0
    }

    fn exec_write(&mut self, pe: usize, w: &'p ArrayRef, v: f64) {
        let off = self.addr_of(w.array, &w.index);
        if !self.mem.is_shared(w.array) {
            self.charge(pe, CycleCategory::WriteLocal, self.cfg.write_local);
            self.mem.write_private(pe, self.mem.base(w.array) + off, v);
            return;
        }
        let addr = self.mem.base(w.array) + off;
        self.backend_write(pe, addr, self.craft_cost[w.array.index()], v);
    }

    /// Feed one consumed cached read to the coherence oracle: reading a
    /// word older than main memory is a stale-read violation (and the stale
    /// value really is returned by the caller).
    pub(crate) fn oracle_check(&mut self, pe: usize, rid: RefId, addr: usize, cached_version: u32) {
        let mem_ver = self.mem.version(addr);
        if cached_version < mem_ver {
            self.oracle.stale_reads += 1;
            if self.oracle.examples.len() < self.opts.oracle_examples {
                self.oracle.examples.push(StaleReadExample {
                    reference: rid,
                    pe,
                    addr,
                    cached_version,
                    memory_version: mem_ver,
                    phase: self.phase,
                });
            }
        }
    }

    // -- hardware-backend primitives ---------------------------------------
    //
    // The MESI/Dragon backends compose these: a plain cache hit (no
    // prefetch machinery — hardware schemes never prefetch), a demand fill
    // with the fault-injection latency hook, and a write-through store
    // without the software schemes' owner-cache patching (the protocol
    // keeps remote copies coherent itself).

    /// Hardware-scheme cache hit: charge, trace, count, oracle-check.
    pub(crate) fn hw_cached_hit(&mut self, pe: usize, rid: RefId, addr: usize, hit: Hit) -> f64 {
        self.charge(pe, CycleCategory::CacheHit, self.cfg.cache_hit);
        self.trace_event(pe, TraceEventKind::CacheHit, addr);
        let p = &mut self.pes[pe];
        p.stats.cache_hits += 1;
        let (v, ver) = p.cache.read(hit.line, addr);
        self.oracle_check(pe, rid, addr, ver);
        v
    }

    /// Hardware-scheme demand fill: fetch `addr`'s line from its home
    /// memory into `pe`'s cache (write-allocate on both reads and writes).
    /// Injected latency spikes stretch remote fills through the same
    /// `fill_multiplier` hook as the software schemes.
    pub(crate) fn hw_fill(&mut self, pe: usize, addr: usize) {
        let local = self.mem.owner(addr) == pe;
        let base_lat = if local { self.cfg.local_fill } else { self.cfg.remote_fill };
        let mut lat = base_lat;
        if let Some(f) = self.faults.as_mut() {
            if !local {
                lat = base_lat * f.fill_multiplier(pe);
            }
        }
        if lat > base_lat {
            let fs = &mut self.pes[pe].stats.faults;
            fs.fills_delayed += 1;
            fs.delay_extra_cycles += lat - base_lat;
        }
        let (cat, ev) = if local {
            (CycleCategory::LocalFill, TraceEventKind::LocalFill)
        } else {
            (CycleCategory::RemoteFill, TraceEventKind::RemoteFill)
        };
        self.charge(pe, cat, lat);
        self.trace_event(pe, ev, addr);
        let line_base = self.pes[pe].cache.line_base(addr);
        let lw = self.cfg.line_words;
        let shared_words = self.mem.shared_words();
        let phase = self.phase;
        let mem = &self.mem;
        let words = (0..lw).map(|k| {
            let a = line_base + k;
            if a < shared_words {
                mem.read_shared(a)
            } else {
                (0.0, 0)
            }
        });
        let p = &mut self.pes[pe];
        p.stats.mem_stall_cycles += lat;
        if local {
            p.stats.local_fills += 1;
        } else {
            p.stats.remote_fills += 1;
        }
        let now = p.now;
        p.cache.install(addr, phase, now, words);
    }

    /// Hardware-scheme store: write-through to home memory (bumping the
    /// word's version) and patch the writer's own cached copy. Remote
    /// copies are the protocol's problem — the backend invalidates (MESI)
    /// or updates (Dragon) them around this call. Returns the word's new
    /// memory version (Dragon patches sharers with it).
    pub(crate) fn hw_store(&mut self, pe: usize, addr: usize, v: f64) -> u32 {
        let local = self.mem.owner(addr) == pe;
        let ver = self.mem.write_shared(addr, v);
        let lat = if local { self.cfg.write_local } else { self.cfg.write_remote };
        let (cat, ev) = if local {
            (CycleCategory::WriteLocal, TraceEventKind::WriteLocal)
        } else {
            (CycleCategory::WriteRemote, TraceEventKind::WriteRemote)
        };
        self.charge(pe, cat, lat);
        self.trace_event(pe, ev, addr);
        let p = &mut self.pes[pe];
        if local {
            p.stats.writes_local += 1;
        } else {
            p.stats.writes_remote += 1;
        }
        p.cache.update_word(addr, v, ver);
        ver
    }

    /// Shared-array store. `craft_local` is the array's CRAFT local-access
    /// overhead (consulted only under the BASE scheme). Shared by the tree
    /// walker and the compiled trace.
    pub(crate) fn write_shared_addr(&mut self, pe: usize, addr: usize, craft_local: u64, v: f64) {
        let owner = self.mem.owner(addr);
        let local = owner == pe;
        let ver = self.mem.write_shared(addr, v);
        let craft = match self.scheme {
            Scheme::Base => {
                if local {
                    craft_local
                } else {
                    self.cfg.craft_remote
                }
            }
            _ => 0,
        };
        let lat = if local { self.cfg.write_local } else { self.cfg.write_remote };
        self.charge(pe, CycleCategory::CraftOverhead, craft);
        let (cat, ev) = if local {
            (CycleCategory::WriteLocal, TraceEventKind::WriteLocal)
        } else {
            (CycleCategory::WriteRemote, TraceEventKind::WriteRemote)
        };
        self.charge(pe, cat, lat);
        self.trace_event(pe, ev, addr);
        {
            let p = &mut self.pes[pe];
            if local {
                p.stats.writes_local += 1;
            } else {
                p.stats.writes_remote += 1;
            }
        }
        // Hardware keeps the *owner's* cache consistent with its own memory
        // (incoming remote stores update/invalidate the owner's line), and
        // the writer's own cached copy is updated write-through. Copies on
        // third-party PEs are NOT updated — that is the coherence problem.
        if !matches!(self.scheme, Scheme::Base) || local {
            self.pes[pe].cache.update_word(addr, v, ver);
        }
        self.pes[owner].cache.update_word(addr, v, ver);
    }

    // -- prefetch operations ----------------------------------------------

    fn issue_line_prefetch(&mut self, pe: usize, array: ArrayId, index: &[Affine]) {
        let off = self.addr_of(array, index);
        if !self.mem.is_shared(array) {
            return; // prefetching private data is a no-op
        }
        let addr = self.mem.base(array) + off;
        let owner = self.mem.owner(addr);
        let annex = self.pes[pe].annex_cost(owner, &self.cfg);
        let issue = self.cfg.prefetch_issue + annex;
        self.charge(pe, CycleCategory::PrefetchIssue, issue);
        self.pes[pe].stats.prefetch_cycles += issue;
        // Fault injection: the issue cycles above are already charged; a
        // dropped prefetch costs its issue but never delivers data.
        let line_id = self.pes[pe].cache.line_addr(addr);
        let epoch = self.cur_epoch_id;
        let mut qw = self.cfg.queue_words;
        let mut mult = 1u64;
        let mut inj_dropped = false;
        let mut storm_began = false;
        if let Some(f) = self.faults.as_mut() {
            if f.should_drop(pe, epoch) {
                f.note_faulted(pe, line_id);
                inj_dropped = true;
            } else {
                let (cap, began) = f.effective_queue(pe, qw);
                qw = cap;
                storm_began = began;
                if owner != pe {
                    mult = f.fill_multiplier(pe);
                }
            }
        }
        if inj_dropped {
            self.pes[pe].stats.faults.prefetches_dropped += 1;
            self.trace_event(pe, TraceEventKind::FaultDrop, addr);
            return;
        }
        if storm_began {
            self.pes[pe].stats.faults.queue_storms += 1;
        }
        let base_lat = if owner == pe { self.cfg.local_fill } else { self.cfg.remote_fill };
        let lat = base_lat * mult;
        if mult > 1 {
            // A latency spike on a prefetch is not a PE stall — it only
            // pushes the arrival time out (possibly into a PrefetchWait).
            let fs = &mut self.pes[pe].stats.faults;
            fs.fills_delayed += 1;
            fs.delay_extra_cycles += lat - base_lat;
        }
        let ready = self.pes[pe].now + lat;
        let lw = self.cfg.line_words;
        if !self.pes[pe].queue_reserve(lw, ready, qw) {
            self.pes[pe].stats.line_prefetches_dropped += 1;
            if qw < self.cfg.queue_words {
                // Lost to injected capacity shrink / overflow storm rather
                // than natural queue pressure.
                self.pes[pe].stats.faults.storm_drops += 1;
                if let Some(f) = self.faults.as_mut() {
                    f.note_faulted(pe, line_id);
                }
            }
            self.trace_event(pe, TraceEventKind::PrefetchDropped, addr);
            return;
        }
        let line_base = self.pes[pe].cache.line_base(addr);
        let shared_words = self.mem.shared_words();
        {
            let mem = &self.mem;
            let words = (0..lw).map(|k| {
                let a = line_base + k;
                if a < shared_words {
                    mem.read_shared(a)
                } else {
                    (0.0, 0)
                }
            });
            let phase = self.phase;
            let p = &mut self.pes[pe];
            p.cache.install_prefetch(addr, phase, ready, words);
            p.stats.line_prefetches_issued += 1;
            p.stats.prefetch_words_issued += lw as u64;
        }
        self.trace_event(pe, TraceEventKind::LinePrefetch, addr);
        // Early-eviction injection: the line arrived, but a conflict kicks
        // it out before its first use. A successful (surviving) install
        // masks any fault recorded for the line earlier.
        let mut evict = false;
        if let Some(f) = self.faults.as_mut() {
            if f.should_evict(pe) {
                f.note_faulted(pe, line_id);
                evict = true;
            } else {
                f.clear_faulted(pe, line_id);
            }
        }
        if evict {
            self.pes[pe].cache.invalidate(addr);
            self.pes[pe].stats.faults.early_evictions += 1;
            self.trace_event(pe, TraceEventKind::FaultEvict, addr);
        }
    }

    fn exec_prefetch(&mut self, pe: usize, pf: &'p PrefetchStmt) {
        match &pf.kind {
            PrefetchKind::Line { array, index, .. } => {
                self.issue_line_prefetch(pe, *array, index);
            }
            PrefetchKind::Vector { covers, array, over } => {
                self.exec_vector_prefetch(pe, *covers, *array, over);
            }
        }
    }

    fn exec_vector_prefetch(
        &mut self,
        pe: usize,
        covers: RefId,
        array: ArrayId,
        over: &[LoopId],
    ) {
        let Some((_, index)) = self.ref_index.get(&covers) else { return };
        let index = index.clone();
        // Iteration intervals of the pulled loops, for this PE.
        let mut intervals: Vec<(ccdp_ir::VarId, i64, i64, i64)> = Vec::new();
        for lid in over {
            let h = self.loop_headers.get(lid).expect("unknown pulled loop").clone();
            let lo = h.lo.eval(&self.env);
            let hi = h.hi.eval(&self.env);
            if lo > hi {
                return;
            }
            let (lo, hi) = match h.kind {
                LoopKind::Serial => (lo, hi),
                LoopKind::DoAllStatic => {
                    let range = match h.align {
                        Some(aid) => ccdp_dist::aligned_range_for_pe(
                            &self.layout,
                            self.program.array(aid),
                            lo,
                            hi,
                            h.step,
                            pe,
                        ),
                        None => doall_range_for_pe(lo, hi, h.step, pe, self.cfg.n_pes),
                    };
                    match range {
                        Some(r) => (r.lo, r.hi),
                        None => return,
                    }
                }
                LoopKind::DoAllDynamic { .. } => return, // never scheduled
            };
            intervals.push((h.var, lo, hi, h.step));
        }
        // Enumerate the per-dimension value lists of the target section.
        let decl = self.program.array(array);
        let mut dim_values: Vec<Vec<i64>> = Vec::with_capacity(index.len());
        let mut words = 1usize;
        for ix in &index {
            let vals = enumerate_affine(ix, &intervals, &self.env);
            words = words.saturating_mul(vals.len());
            if words > 1 << 20 {
                return; // runaway guard; scheduler caps footprints well below
            }
            dim_values.push(vals);
        }
        if words == 0 {
            return;
        }
        // Collect the distinct cache lines covered.
        let lw = self.cfg.line_words;
        let base = self.mem.base(array);
        let mut line_addrs: Vec<usize> = Vec::with_capacity(words / lw + 1);
        let mut coords = vec![0i64; dim_values.len()];
        collect_lines(&dim_values, decl, base, lw, &mut coords, 0, &mut line_addrs);
        line_addrs.sort_unstable();
        line_addrs.dedup();

        // Costs: the PE blocks for the issue; data arrives when the block
        // transfer completes.
        let issue = self.cfg.vector_issue;
        let transfer =
            self.cfg.vector_startup + words as u64 * self.cfg.vector_per_word_tenths / 10;
        self.charge(pe, CycleCategory::VectorIssue, issue);
        {
            let p = &mut self.pes[pe];
            p.stats.prefetch_cycles += issue;
            p.stats.vector_prefetches_issued += 1;
        }
        // Fault injection: one drop decision per vector statement (the whole
        // block transfer is lost, issue cycles stay charged), and latency
        // spikes stretch the transfer completion.
        let epoch = self.cur_epoch_id;
        let mut mult = 1u64;
        let mut inj_dropped = false;
        if let Some(f) = self.faults.as_mut() {
            if f.should_drop(pe, epoch) {
                for &la in &line_addrs {
                    f.note_faulted(pe, la as u64);
                }
                inj_dropped = true;
            } else {
                mult = f.fill_multiplier(pe);
            }
        }
        if inj_dropped {
            self.pes[pe].stats.faults.prefetches_dropped += 1;
            self.trace_event(
                pe,
                TraceEventKind::FaultDrop,
                line_addrs.first().map_or(0, |&la| la * lw),
            );
            return;
        }
        if mult > 1 {
            let fs = &mut self.pes[pe].stats.faults;
            fs.fills_delayed += 1;
            fs.delay_extra_cycles += transfer * (mult - 1);
        }
        self.pes[pe].stats.vector_words_moved += words as u64;
        let ready = self.pes[pe].now + transfer * mult;
        let phase = self.phase;
        let shared_words = self.mem.shared_words();
        self.pes[pe].stage_lines(phase, line_addrs.iter().map(|&la| la as u64));
        self.trace_event(
            pe,
            TraceEventKind::VectorPrefetch,
            line_addrs.first().map_or(0, |&la| la * lw),
        );
        for &la in &line_addrs {
            let line_base = la * lw;
            let mem = &self.mem;
            let words_iter = (0..lw).map(|k| {
                let a = line_base + k;
                if a < shared_words {
                    mem.read_shared(a)
                } else {
                    (0.0, 0)
                }
            });
            let p = &mut self.pes[pe];
            p.cache.install_prefetch(line_base, phase, ready, words_iter);
            p.stats.prefetch_words_issued += lw as u64;
        }
        // As in the line-prefetch path: conflict pressure can evict any of
        // the freshly staged lines before first use; survivors mask any
        // earlier fault on the line.
        let mut evicted: Vec<usize> = Vec::new();
        if let Some(f) = self.faults.as_mut() {
            for &la in &line_addrs {
                if f.should_evict(pe) {
                    f.note_faulted(pe, la as u64);
                    evicted.push(la);
                } else {
                    f.clear_faulted(pe, la as u64);
                }
            }
        }
        for &la in &evicted {
            self.pes[pe].cache.invalidate(la * lw);
            self.pes[pe].stats.faults.early_evictions += 1;
            self.trace_event(pe, TraceEventKind::FaultEvict, la * lw);
        }
    }

    fn eval_cond(&self, c: &Cond) -> bool {
        match cond_core(c) {
            Cond::Cmp { lhs, op, rhs } => {
                let l = lhs.eval(&self.env);
                let r = rhs.eval(&self.env);
                match op {
                    CmpOp::Eq => l == r,
                    CmpOp::Ne => l != r,
                    CmpOp::Lt => l < r,
                    CmpOp::Le => l <= r,
                    CmpOp::Gt => l > r,
                    CmpOp::Ge => l >= r,
                }
            }
            Cond::NonAffine(_) => unreachable!("cond_core unwraps"),
        }
    }
}

/// Values an affine subscript takes over the pulled-loop intervals (other
/// variables read from `env`). Sorted ascending, deduplicated.
fn enumerate_affine(
    ix: &Affine,
    intervals: &[(ccdp_ir::VarId, i64, i64, i64)],
    env: &VarEnv,
) -> Vec<i64> {
    // Constant contribution from variables not in the intervals.
    let mut base = ix.constant_term();
    let mut ranging: Vec<(i64, i64, i64, i64)> = Vec::new(); // (coeff, lo, hi, step)
    for &(v, c) in ix.terms() {
        if let Some(&(_, lo, hi, step)) = intervals.iter().find(|(iv, ..)| *iv == v) {
            ranging.push((c, lo, hi, step));
        } else {
            base += c * env.get(v);
        }
    }
    let mut vals = vec![base];
    for (c, lo, hi, step) in ranging {
        let mut next = Vec::with_capacity(vals.len() * ((hi - lo) / step + 1) as usize);
        for v0 in vals {
            let mut v = lo;
            while v <= hi {
                next.push(v0 + c * v);
                v += step;
            }
        }
        vals = next;
    }
    vals.sort_unstable();
    vals.dedup();
    vals
}

/// Cartesian walk over the per-dim value lists, collecting line addresses.
fn collect_lines(
    dim_values: &[Vec<i64>],
    decl: &ccdp_ir::ArrayDecl,
    base: usize,
    line_words: usize,
    coords: &mut [i64],
    dim: usize,
    out: &mut Vec<usize>,
) {
    if dim == dim_values.len() {
        let mut off = 0usize;
        let mut stride = 1usize;
        for (d, &c) in coords.iter().enumerate() {
            if c < 0 || c as usize >= decl.extents[d] {
                return; // sections may over-approximate at edges; skip
            }
            off += c as usize * stride;
            stride *= decl.extents[d];
        }
        out.push((base + off) / line_words);
        return;
    }
    for &v in &dim_values[dim] {
        coords[dim] = v;
        collect_lines(dim_values, decl, base, line_words, coords, dim + 1, out);
    }
}

fn index_stmts(
    stmts: &[Stmt],
    loops: &mut HashMap<LoopId, LoopHeader>,
    refs: &mut HashMap<RefId, (ArrayId, Vec<Affine>)>,
    flops: &mut HashMap<RefId, u32>,
) {
    for s in stmts {
        match s {
            Stmt::Assign(a) => {
                for r in &a.reads {
                    refs.insert(r.id, (r.array, r.index.clone()));
                }
                flops.insert(a.write.id, a.expr.flops());
            }
            Stmt::Loop(l) => {
                loops.insert(
                    l.id,
                    LoopHeader {
                        var: l.var,
                        lo: l.lo.clone(),
                        hi: l.hi.clone(),
                        step: l.step,
                        kind: l.kind,
                        align: l.align,
                    },
                );
                index_stmts(&l.body, loops, refs, flops);
            }
            Stmt::If(i) => {
                index_stmts(&i.then_branch, loops, refs, flops);
                index_stmts(&i.else_branch, loops, refs, flops);
            }
            Stmt::Prefetch(_) => {}
        }
    }
}

#[cfg(test)]
mod tests;
