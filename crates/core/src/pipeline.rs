//! Pipeline orchestration: analyze → plan → simulate → compare.

use ccdp_analysis::{analyze_stale, StaleAnalysis};
use ccdp_dist::Layout;
use ccdp_ir::Program;
use ccdp_prefetch::{
    plan_prefetches, PlanStats, PrefetchPlan, ScheduleOptions, TargetOptions,
};
use t3d_sim::{
    ConfigError, FaultPlan, MachineConfig, Scheme as SimScheme, SimAbort, SimOptions,
    SimResult, Simulator, StaleReadExample,
};

/// Why a pipeline run failed. The pipeline no longer panics on a broken
/// plan: callers (bins, harnesses, tests) decide how to surface the error.
#[derive(Debug, Clone)]
pub enum PipelineError {
    /// A cached-scheme run consumed data older than main memory. Carries
    /// the oracle's evidence; an intact CCDP pipeline never produces this
    /// (the failure-injection tests manufacture it deliberately).
    CoherenceViolation {
        /// Scheme name of the offending run ("CCDP", "INV", ...).
        scheme: &'static str,
        /// Number of stale reads the oracle observed.
        stale_reads: u64,
        /// First few concrete violations.
        examples: Vec<StaleReadExample>,
    },
    /// The machine configuration or fault plan is internally inconsistent
    /// (caught by `MachineConfig::validate` / `FaultPlan::validate` before
    /// any simulation runs).
    InvalidConfig(ConfigError),
    /// The input program is structurally invalid (caught by
    /// `ccdp_ir::validate` before any simulation runs). Same class of
    /// up-front rejection as `InvalidConfig`, but about the program rather
    /// than the machine.
    InvalidProgram(ccdp_ir::ValidateError),
    /// A simulation exhausted its cycle or step budget
    /// (`SimOptions::cycle_budget` / `step_budget`) — the structured
    /// termination of a runaway program.
    BudgetExceeded { pe: usize, cycles: u64, steps: u64 },
    /// A simulation ran past its cooperative wall-clock deadline
    /// (`SimOptions::wall_deadline`).
    Timeout { pe: usize, steps: u64 },
    /// The static soundness verifier (`ccdp-lint`) proved the compiled plan
    /// does not discharge every coverage obligation. Only produced when
    /// [`PipelineConfig::with_verify`] is on; carries the error-severity
    /// findings. Unlike [`PipelineError::CoherenceViolation`] this fires
    /// *before* any simulation — the static counterpart of the dynamic
    /// oracle.
    Unsound { findings: Vec<ccdp_lint::Finding> },
}

impl PipelineError {
    /// Stable machine-readable error code, used as the `code` field of the
    /// service layer's JSON error envelope and safe to match on across
    /// releases (unlike the human-facing `Display` text).
    pub fn code(&self) -> &'static str {
        match self {
            PipelineError::CoherenceViolation { .. } => "coherence_violation",
            PipelineError::InvalidConfig(_) => "invalid_config",
            PipelineError::InvalidProgram(_) => "invalid_program",
            PipelineError::BudgetExceeded { .. } => "budget_exceeded",
            PipelineError::Timeout { .. } => "timeout",
            PipelineError::Unsound { .. } => "unsound",
        }
    }
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::CoherenceViolation { scheme, stale_reads, examples } => {
                write!(f, "{scheme} run violated coherence: {stale_reads} stale read(s)")?;
                if let Some(e) = examples.first() {
                    write!(
                        f,
                        "; first: ref {:?} on PE {} read addr {} at version {} (memory at {}) in phase {}",
                        e.reference, e.pe, e.addr, e.cached_version, e.memory_version, e.phase
                    )?;
                }
                Ok(())
            }
            PipelineError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
            PipelineError::InvalidProgram(e) => write!(f, "invalid program: {e}"),
            PipelineError::BudgetExceeded { pe, cycles, steps } => write!(
                f,
                "simulation budget exceeded on PE {pe}: {cycles} cycles after {steps} steps"
            ),
            PipelineError::Timeout { pe, steps } => write!(
                f,
                "simulation wall-clock deadline passed on PE {pe} after {steps} steps"
            ),
            PipelineError::Unsound { findings } => {
                write!(f, "prefetch plan failed static verification: {} error finding(s)", findings.len())?;
                if let Some(first) = findings.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<ConfigError> for PipelineError {
    fn from(e: ConfigError) -> PipelineError {
        PipelineError::InvalidConfig(e)
    }
}

impl From<ccdp_ir::ValidateError> for PipelineError {
    fn from(e: ccdp_ir::ValidateError) -> PipelineError {
        PipelineError::InvalidProgram(e)
    }
}

impl From<SimAbort> for PipelineError {
    fn from(a: SimAbort) -> PipelineError {
        match a {
            SimAbort::BudgetExceeded { pe, cycles, steps } => {
                PipelineError::BudgetExceeded { pe, cycles, steps }
            }
            SimAbort::WallTimeout { pe, steps } => PipelineError::Timeout { pe, steps },
        }
    }
}

/// Fail if a cached-scheme run came back incoherent.
fn check_coherent(r: &SimResult) -> Result<(), PipelineError> {
    if r.oracle.is_coherent() {
        Ok(())
    } else {
        Err(PipelineError::CoherenceViolation {
            scheme: r.scheme,
            stale_reads: r.oracle.stale_reads,
            examples: r.oracle.examples.clone(),
        })
    }
}

/// Everything needed to compile and run one kernel at one PE count.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    pub n_pes: usize,
    pub machine: MachineConfig,
    pub target: TargetOptions,
    pub schedule: ScheduleOptions,
    pub sim: SimOptions,
    /// Optional custom layout (defaults to block along the last dimension).
    pub layout: Option<Layout>,
    /// Run the `ccdp-lint` static soundness verifier over every compiled
    /// plan and fail with [`PipelineError::Unsound`] on any error finding.
    pub verify: bool,
}

impl PipelineConfig {
    /// T3D defaults at a given PE count. Refine with the `with_*` builder
    /// methods: `PipelineConfig::t3d(8).with_layout(..).with_sim(..)`.
    pub fn t3d(n_pes: usize) -> PipelineConfig {
        PipelineConfig {
            n_pes,
            machine: MachineConfig::t3d(n_pes),
            target: TargetOptions::default(),
            schedule: ScheduleOptions::default(),
            sim: SimOptions::default(),
            layout: None,
            verify: false,
        }
    }

    /// Replace the machine model (PE count must match `n_pes`).
    pub fn with_machine(mut self, machine: MachineConfig) -> PipelineConfig {
        self.machine = machine;
        self
    }

    /// Use a custom data layout instead of the default block layout.
    pub fn with_layout(mut self, layout: Layout) -> PipelineConfig {
        self.layout = Some(layout);
        self
    }

    /// Replace the prefetch target analysis options.
    pub fn with_target(mut self, target: TargetOptions) -> PipelineConfig {
        self.target = target;
        self
    }

    /// Replace the prefetch scheduling options.
    pub fn with_schedule(mut self, schedule: ScheduleOptions) -> PipelineConfig {
        self.schedule = schedule;
        self
    }

    /// Replace the simulation options.
    pub fn with_sim(mut self, sim: SimOptions) -> PipelineConfig {
        self.sim = sim;
        self
    }

    /// Inject a deterministic fault plan into every simulation this config
    /// drives (see `t3d_sim::FaultPlan`).
    pub fn with_faults(mut self, faults: FaultPlan) -> PipelineConfig {
        self.sim.faults = faults;
        self
    }

    /// Statically verify every compiled plan with `ccdp-lint` before
    /// simulating (see [`PipelineError::Unsound`]).
    pub fn with_verify(mut self, verify: bool) -> PipelineConfig {
        self.verify = verify;
        self
    }

    /// Check the machine model, fault plan and thread count before
    /// simulating.
    pub fn validate(&self) -> Result<(), PipelineError> {
        self.machine.validate()?;
        self.sim.faults.validate()?;
        if self.sim.sim_threads > 1 {
            return Err(ConfigError::SimThreads { value: self.sim.sim_threads }.into());
        }
        Ok(())
    }

    /// The layout used for analysis and simulation.
    pub fn layout_for(&self, program: &Program) -> Layout {
        self.layout
            .clone()
            .unwrap_or_else(|| Layout::new(program, self.n_pes))
    }

    /// Same costs, single PE — the sequential reference machine.
    fn seq_machine(&self) -> MachineConfig {
        let mut m = self.machine.clone();
        m.n_pes = 1;
        m
    }
}

/// Coherence-scheme selector for the unified entry point
/// [`PipelineConfig::run`].
///
/// Distinct from the simulator-level `t3d_sim::Scheme`: that enum carries
/// the compiled [`PrefetchPlan`] payload a simulation executes, while this
/// one names what the *pipeline* should build and run. `Sequential` is
/// deliberately absent — the 1-PE reference run ([`run_seq`]) is the
/// speedup denominator every scheme is measured against, not a rival.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Scheme {
    /// CRAFT-style software shared memory: shared data never cached.
    Base,
    /// Compiler-directed cache coherence with data prefetching (the paper).
    Ccdp,
    /// The CCDP plan's stale-read handlings without its prefetches —
    /// isolates the caching contribution from the latency-hiding one.
    InvalidateOnly,
    /// Snooping invalidate-based hardware coherence (MESI) over a shared
    /// bus — the "what if the T3D had hardware coherence" rival.
    Mesi,
    /// Snooping update-based hardware coherence (Dragon) over a shared bus.
    Dragon,
}

impl Scheme {
    /// Every scheme, in canonical table order.
    pub const ALL: [Scheme; 5] =
        [Scheme::Base, Scheme::Ccdp, Scheme::InvalidateOnly, Scheme::Mesi, Scheme::Dragon];

    /// Stable display name; matches the simulator's `SimResult::scheme`.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Base => "BASE",
            Scheme::Ccdp => "CCDP",
            Scheme::InvalidateOnly => "INV",
            Scheme::Mesi => "MESI",
            Scheme::Dragon => "DRAGON",
        }
    }

    /// Lower-case key used in JSON reports (`"base"`, `"ccdp"`, `"inv"`,
    /// `"mesi"`, `"dragon"`).
    pub fn key(self) -> &'static str {
        match self {
            Scheme::Base => "base",
            Scheme::Ccdp => "ccdp",
            Scheme::InvalidateOnly => "inv",
            Scheme::Mesi => "mesi",
            Scheme::Dragon => "dragon",
        }
    }

    /// Parse a scheme name ([`Scheme::name`] or [`Scheme::key`] spelling),
    /// case-insensitively.
    pub fn parse(s: &str) -> Option<Scheme> {
        Scheme::ALL.iter().copied().find(|sc| sc.name().eq_ignore_ascii_case(s))
    }

    /// Event-driven hardware protocol? Hardware schemes need no prefetch
    /// plan and skip the plan-coverage half of static verification (only
    /// the CCDP003 phase-race audit applies; see
    /// [`ccdp_lint::verify_hardware`]).
    pub fn is_hardware(self) -> bool {
        matches!(self, Scheme::Mesi | Scheme::Dragon)
    }
}

/// Output of the CCDP compilation pipeline for one kernel/PE-count.
#[derive(Clone)]
pub struct CcdpArtifacts {
    pub stale: StaleAnalysis,
    pub transformed: Program,
    pub plan: PrefetchPlan,
}

/// Run the compiler side only: stale reference analysis, prefetch target
/// analysis, prefetch scheduling, materialization.
pub fn compile_ccdp(program: &Program, cfg: &PipelineConfig) -> CcdpArtifacts {
    let layout = cfg.layout_for(program);
    let stale = analyze_stale(program, &layout);
    let (transformed, plan) =
        plan_prefetches(program, &layout, &stale, &cfg.target, &cfg.schedule);
    CcdpArtifacts { stale, transformed, plan }
}

/// Up-front rejection shared by every entry point: machine model, fault
/// plan, and program structure are all checked before any simulation runs,
/// so malformed inputs surface as `InvalidConfig` / `InvalidProgram` rather
/// than as a simulator panic.
fn check_inputs(program: &Program, cfg: &PipelineConfig) -> Result<(), PipelineError> {
    cfg.validate()?;
    ccdp_ir::validate(program)?;
    Ok(())
}

/// Fail if the static verifier found an error-severity finding.
fn check_sound(report: ccdp_lint::LintReport) -> Result<(), PipelineError> {
    if report.is_sound() {
        Ok(())
    } else {
        Err(PipelineError::Unsound {
            findings: report
                .findings
                .into_iter()
                .filter(|f| f.severity == ccdp_lint::Severity::Error)
                .collect(),
        })
    }
}

/// Sequential reference run (1 PE, everything cached and local).
pub fn run_seq(program: &Program, cfg: &PipelineConfig) -> Result<SimResult, PipelineError> {
    check_inputs(program, cfg)?;
    let layout = Layout::new(program, 1);
    Simulator::new(program, layout, cfg.seq_machine(), SimScheme::Sequential, cfg.sim)
        .try_run()
        .map_err(PipelineError::from)
}

impl PipelineConfig {
    /// Run one coherence scheme end to end — the single entry point for
    /// every scheme:
    ///
    /// * `Base` — CRAFT-style software shared memory, shared data uncached.
    /// * `Ccdp` — compile (stale analysis → prefetch planning →
    ///   materialization), optionally verify statically
    ///   ([`PipelineConfig::with_verify`]), then execute the transformed
    ///   program. The compiler artifacts ride along in the returned
    ///   [`SchemeRun`].
    /// * `InvalidateOnly` — the plan's `Bypass` handlings without its
    ///   prefetches, over the original program.
    /// * `Mesi` / `Dragon` — event-driven snooping hardware coherence; no
    ///   plan is compiled, and `with_verify` runs only the plan-independent
    ///   CCDP003 phase-race audit ([`ccdp_lint::verify_hardware`]).
    ///
    /// Every cached scheme is checked against the coherence oracle; a stale
    /// read fails with [`PipelineError::CoherenceViolation`].
    pub fn run(&self, program: &Program, scheme: Scheme) -> Result<SchemeRun, PipelineError> {
        check_inputs(program, self)?;
        let layout = self.layout_for(program);
        match scheme {
            Scheme::Base => {
                let result = Simulator::new(
                    program,
                    layout,
                    self.machine.clone(),
                    SimScheme::Base,
                    self.sim,
                )
                .try_run()?;
                Ok(SchemeRun { scheme, result, artifacts: None })
            }
            Scheme::Ccdp => {
                let art = compile_ccdp(program, self);
                if self.verify {
                    let opt = ccdp_lint::LintOptions::from_schedule(&self.schedule);
                    check_sound(ccdp_lint::verify(&art.transformed, &art.plan, &layout, &opt))?;
                }
                let result = Simulator::new(
                    &art.transformed,
                    layout,
                    self.machine.clone(),
                    SimScheme::Ccdp { plan: art.plan.clone() },
                    self.sim,
                )
                .try_run()?;
                check_coherent(&result)?;
                Ok(SchemeRun { scheme, result, artifacts: Some(art) })
            }
            Scheme::InvalidateOnly => {
                let stale = analyze_stale(program, &layout);
                let plan = PrefetchPlan::bypass_all(program, &stale);
                let result = Simulator::new(
                    program,
                    layout,
                    self.machine.clone(),
                    SimScheme::InvalidateOnly { plan: plan.clone() },
                    self.sim,
                )
                .try_run()?;
                check_coherent(&result)?;
                let artifacts =
                    CcdpArtifacts { stale, transformed: program.clone(), plan };
                Ok(SchemeRun { scheme, result, artifacts: Some(artifacts) })
            }
            Scheme::Mesi | Scheme::Dragon => {
                if self.verify {
                    check_sound(ccdp_lint::verify_hardware(program, &layout))?;
                }
                let sim_scheme = match scheme {
                    Scheme::Mesi => SimScheme::Mesi,
                    _ => SimScheme::Dragon,
                };
                let result = Simulator::new(
                    program,
                    layout,
                    self.machine.clone(),
                    sim_scheme,
                    self.sim,
                )
                .try_run()?;
                check_coherent(&result)?;
                Ok(SchemeRun { scheme, result, artifacts: None })
            }
        }
    }
}

/// One scheme's simulation plus, for the plan-driven schemes, the compiler
/// artifacts that produced it.
#[derive(Clone)]
pub struct SchemeRun {
    pub scheme: Scheme,
    pub result: SimResult,
    /// `Some` for `Ccdp` (the full pipeline's output) and `InvalidateOnly`
    /// (stale analysis + bypass-all plan over the original program); `None`
    /// for `Base` and the hardware schemes, which compile nothing.
    pub artifacts: Option<CcdpArtifacts>,
}

/// N-way comparison for one kernel at one PE count: every requested scheme
/// against the shared sequential denominator — the paper's Tables 1/2
/// generalized to the hardware rivals.
#[derive(Clone)]
pub struct SchemeMatrix {
    pub n_pes: usize,
    /// The 1-PE sequential reference run (speedup denominator).
    pub seq: SimResult,
    /// One run per requested scheme, in request order.
    pub runs: Vec<SchemeRun>,
    /// Potentially-stale shared reads found by the analysis.
    pub stale_reads: usize,
    /// All shared reads in the program.
    pub shared_reads: usize,
    /// Statistics of the CCDP prefetch plan (compiled once per matrix even
    /// when `Ccdp` is not among the requested schemes, so reports always
    /// describe what the compiler would emit).
    pub plan_stats: PlanStats,
}

impl SchemeMatrix {
    /// The run of one scheme, if it was requested.
    pub fn get(&self, s: Scheme) -> Option<&SchemeRun> {
        self.runs.iter().find(|r| r.scheme == s)
    }

    /// Simulated cycles of one scheme's run.
    pub fn cycles(&self, s: Scheme) -> Option<u64> {
        self.get(s).map(|r| r.result.cycles)
    }

    /// Table 1 generalization: `seq_cycles / scheme_cycles`.
    pub fn speedup(&self, s: Scheme) -> Option<f64> {
        self.cycles(s).map(|c| self.seq.cycles as f64 / c as f64)
    }

    /// Percentage improvement in execution time of `s` over BASE.
    pub fn improvement_over_base(&self, s: Scheme) -> Option<f64> {
        let base = self.cycles(Scheme::Base)? as f64;
        let c = self.cycles(s)? as f64;
        Some(100.0 * (base - c) / base)
    }

    /// The paper's Table 2 number: improvement of CCDP over BASE.
    pub fn improvement_pct(&self) -> Option<f64> {
        self.improvement_over_base(Scheme::Ccdp)
    }
}

/// Run the requested schemes plus the sequential denominator and compute
/// the paper's metrics. Fails on the first coherence violation.
pub fn compare(
    program: &Program,
    cfg: &PipelineConfig,
    schemes: &[Scheme],
) -> Result<SchemeMatrix, PipelineError> {
    let seq = run_seq(program, cfg)?;
    compare_with_seq(program, cfg, seq, schemes)
}

/// [`compare`] with the sequential denominator supplied by the caller. The
/// sequential run is independent of `cfg.n_pes` (it always executes on one
/// PE with the sequential machine), so sweeps over PE counts can run it
/// once per kernel and reuse the result for every cell.
pub fn compare_with_seq(
    program: &Program,
    cfg: &PipelineConfig,
    seq: SimResult,
    schemes: &[Scheme],
) -> Result<SchemeMatrix, PipelineError> {
    let mut runs = Vec::with_capacity(schemes.len());
    for &s in schemes {
        runs.push(cfg.run(program, s)?);
    }
    // Analysis stats come from the CCDP compile; reuse the run's artifacts
    // when CCDP was requested, compile (statically — no simulation) if not.
    let (stale_reads, shared_reads, plan_stats) = match runs
        .iter()
        .find(|r| r.scheme == Scheme::Ccdp)
        .and_then(|r| r.artifacts.as_ref())
    {
        Some(a) => (a.stale.n_stale(), a.stale.n_shared_reads, a.plan.stats),
        None => {
            let a = compile_ccdp(program, cfg);
            (a.stale.n_stale(), a.stale.n_shared_reads, a.plan.stats)
        }
    };
    Ok(SchemeMatrix {
        n_pes: cfg.n_pes,
        seq,
        runs,
        stale_reads,
        shared_reads,
        plan_stats,
    })
}

#[cfg(test)]
mod unit {
    use super::*;
    use ccdp_ir::ProgramBuilder;

    fn kernel() -> Program {
        let mut pb = ProgramBuilder::new("k");
        let a = pb.shared("A", &[256]);
        let b = pb.shared("B", &[256]);
        pb.parallel_epoch("w", |e| {
            e.doall("i", 0, 255, |e, i| e.assign(a.at1(i), 3.0));
        });
        pb.parallel_epoch("r", |e| {
            e.doall("i", 0, 255, |e, i| {
                e.assign(b.at1(i), a.at1(255 - i).rd() + 1.0);
            });
        });
        pb.finish().unwrap()
    }

    #[test]
    fn compare_produces_consistent_metrics() {
        let p = kernel();
        let cmp =
            compare(&p, &PipelineConfig::t3d(4), &[Scheme::Base, Scheme::Ccdp])
                .expect("coherent");
        assert!(cmp.speedup(Scheme::Base).unwrap() > 0.0);
        assert!(cmp.speedup(Scheme::Ccdp).unwrap() > 0.0);
        let base = cmp.cycles(Scheme::Base).unwrap() as f64;
        let ccdp = cmp.cycles(Scheme::Ccdp).unwrap() as f64;
        let recomputed = 100.0 * (1.0 - ccdp / base);
        assert!((cmp.improvement_pct().unwrap() - recomputed).abs() < 1e-9);
        assert!(cmp.stale_reads > 0);
        assert!(cmp.shared_reads >= cmp.stale_reads);
        // Unrequested schemes read as absent, not as zero.
        assert!(cmp.get(Scheme::Mesi).is_none());
        assert!(cmp.speedup(Scheme::Dragon).is_none());
    }

    #[test]
    fn invalidate_only_sits_between_base_and_ccdp_here() {
        let p = kernel();
        let cfg = PipelineConfig::t3d(4);
        let base = cfg.run(&p, Scheme::Base).expect("valid config").result;
        let inv = cfg.run(&p, Scheme::InvalidateOnly).expect("coherent").result;
        let ccdp = cfg.run(&p, Scheme::Ccdp).expect("coherent").result;
        assert!(inv.oracle.is_coherent());
        assert_eq!(inv.scheme, "INV");
        // Caching clean data already beats BASE; prefetching beats both.
        assert!(inv.cycles <= base.cycles);
        assert!(ccdp.cycles <= inv.cycles);
    }

    #[test]
    fn hardware_schemes_run_coherent_without_a_plan() {
        let p = kernel();
        let cfg = PipelineConfig::t3d(4).with_verify(true);
        let seq = run_seq(&p, &cfg).unwrap();
        for scheme in [Scheme::Mesi, Scheme::Dragon] {
            let run = cfg.run(&p, scheme).expect("coherent");
            assert!(run.artifacts.is_none(), "hardware schemes compile nothing");
            assert_eq!(run.result.scheme, scheme.name());
            assert!(run.result.oracle.is_coherent());
            // Numerics must match the sequential golden run exactly.
            for a in p.arrays.iter() {
                assert_eq!(
                    run.result.array_values(&p, a.id),
                    seq.array_values(&p, a.id),
                    "{} numerics diverged",
                    scheme.name()
                );
            }
            let stats = run.result.total_stats();
            assert!(stats.bus_txns > 0, "{} issued no bus transactions", scheme.name());
        }
    }

    #[test]
    fn scheme_names_parse_and_classify() {
        assert_eq!(Scheme::ALL.len(), 5);
        for s in Scheme::ALL {
            assert_eq!(Scheme::parse(s.name()), Some(s));
            assert_eq!(Scheme::parse(s.key()), Some(s));
            assert_eq!(s.key(), s.name().to_ascii_lowercase());
        }
        assert_eq!(Scheme::parse("mesi"), Some(Scheme::Mesi));
        assert_eq!(Scheme::parse("bogus"), None);
        assert!(Scheme::Mesi.is_hardware() && Scheme::Dragon.is_hardware());
        assert!(!Scheme::Ccdp.is_hardware() && !Scheme::Base.is_hardware());
    }

    /// `run(Scheme)` is the one entry point (the 0.2 `run_base`/`run_ccdp`/
    /// `run_invalidate_only` shims are gone): it must be deterministic per
    /// scheme and carry artifacts exactly for the plan-driven schemes.
    #[test]
    fn run_is_deterministic_and_carries_artifacts_per_scheme() {
        let p = kernel();
        let cfg = PipelineConfig::t3d(4);
        let base = cfg.run(&p, Scheme::Base).unwrap();
        assert_eq!(base.result.cycles, cfg.run(&p, Scheme::Base).unwrap().result.cycles);
        assert!(base.artifacts.is_none(), "BASE compiles nothing");
        let ccdp = cfg.run(&p, Scheme::Ccdp).unwrap();
        assert_eq!(ccdp.result.cycles, cfg.run(&p, Scheme::Ccdp).unwrap().result.cycles);
        let art = ccdp.artifacts.expect("CCDP runs carry artifacts");
        assert!(art.plan.stats.targets > 0);
        let inv = cfg.run(&p, Scheme::InvalidateOnly).unwrap();
        assert_eq!(
            inv.result.cycles,
            cfg.run(&p, Scheme::InvalidateOnly).unwrap().result.cycles
        );
        assert!(inv.artifacts.is_some(), "INV carries the bypass-all plan");
    }

    #[test]
    fn builder_methods_compose() {
        let p = kernel();
        let layout = ccdp_dist::Layout::new(&p, 4);
        let cfg = PipelineConfig::t3d(4)
            .with_machine(MachineConfig::t3d(4))
            .with_layout(layout)
            .with_target(TargetOptions::default())
            .with_schedule(ScheduleOptions::default())
            .with_sim(SimOptions { oracle_examples: 2, ..Default::default() });
        assert!(cfg.layout.is_some());
        assert_eq!(cfg.sim.oracle_examples, 2);
        let schemes = [Scheme::Base, Scheme::Ccdp];
        let cmp = compare(&p, &cfg, &schemes).expect("coherent");
        // The explicit layout is the default one, so results must match the
        // un-customized run.
        let plain = compare(&p, &PipelineConfig::t3d(4), &schemes).expect("coherent");
        assert_eq!(cmp.cycles(Scheme::Ccdp), plain.cycles(Scheme::Ccdp));
    }

    #[test]
    fn coherence_error_reports_evidence() {
        // A sequential run is coherent; manufacture an incoherent result by
        // faking an oracle report through the error path.
        let err = PipelineError::CoherenceViolation {
            scheme: "CCDP",
            stale_reads: 3,
            examples: vec![],
        };
        let msg = format!("{err}");
        assert!(msg.contains("CCDP"), "{msg}");
        assert!(msg.contains("3 stale read(s)"), "{msg}");
        let _: &dyn std::error::Error = &err;
    }

    #[test]
    fn invalid_machine_and_fault_plans_are_rejected_up_front() {
        let p = kernel();
        let mut cfg = PipelineConfig::t3d(4);
        cfg.machine.queue_words = 1; // < line_words
        let Err(err) = run_seq(&p, &cfg) else { panic!("invalid machine accepted") };
        assert!(matches!(err, PipelineError::InvalidConfig(_)), "{err}");
        assert!(format!("{err}").contains("invalid configuration"), "{err}");

        let cfg = PipelineConfig::t3d(4)
            .with_faults(FaultPlan::none().with_drop_rate(1.5));
        for scheme in Scheme::ALL {
            assert!(
                matches!(cfg.run(&p, scheme), Err(PipelineError::InvalidConfig(_))),
                "{} accepted an invalid fault plan",
                scheme.name()
            );
        }
        assert!(matches!(
            compare(&p, &cfg, &[Scheme::Base]),
            Err(PipelineError::InvalidConfig(_))
        ));
    }

    #[test]
    fn sim_threads_above_one_is_rejected() {
        let p = kernel();
        for t in [0, 1] {
            let mut cfg = PipelineConfig::t3d(4);
            cfg.sim.sim_threads = t;
            assert!(cfg.validate().is_ok(), "sim_threads = {t} rejected");
        }
        let mut cfg = PipelineConfig::t3d(4);
        cfg.sim.sim_threads = 2;
        let Err(err) = cfg.run(&p, Scheme::Ccdp) else { panic!("sim_threads = 2 accepted") };
        assert!(
            matches!(err, PipelineError::InvalidConfig(ConfigError::SimThreads { value: 2 })),
            "{err}"
        );
        assert!(format!("{err}").contains("sharded engine was removed"), "{err}");
    }

    #[test]
    fn with_faults_threads_the_plan_into_simulation() {
        let p = kernel();
        let plan = FaultPlan::none().with_seed(5).with_drop_rate(1.0);
        let cfg = PipelineConfig::t3d(4).with_faults(plan);
        assert_eq!(cfg.sim.faults, plan);
        let r = cfg.run(&p, Scheme::Ccdp).expect("coherent under faults").result;
        let fs = r.fault_stats();
        assert!(fs.prefetches_dropped > 0, "rate-1.0 drop plan injected nothing");
        // Graceful degradation: still coherent, numerics still correct.
        let seq = run_seq(&p, &PipelineConfig::t3d(4)).unwrap();
        for a in p.arrays.iter() {
            assert_eq!(r.array_values(&p, a.id), seq.array_values(&p, a.id));
        }
    }

    #[test]
    fn with_verify_passes_sound_plans_and_rejects_races() {
        let p = kernel();
        let cfg = PipelineConfig::t3d(4).with_verify(true);
        cfg.run(&p, Scheme::Ccdp).expect("planner output must verify");

        // A constant-subscript write inside a DOALL is a cross-PE race the
        // verifier flags statically, before any simulation runs — for the
        // software schemes AND the hardware ones (no protocol fixes a
        // same-phase write-write race).
        let mut pb = ProgramBuilder::new("racy");
        let a = pb.shared("A", &[64]);
        pb.parallel_epoch("w", |e| {
            e.doall("i", 0, 63, |e, _i| e.assign(a.at1(0), 1.0));
        });
        let racy = pb.finish().unwrap();
        for scheme in [Scheme::Ccdp, Scheme::Mesi, Scheme::Dragon] {
            let Err(err) = cfg.run(&racy, scheme) else {
                panic!("{} must reject the race", scheme.name())
            };
            let PipelineError::Unsound { findings } = &err else {
                panic!("expected Unsound, got {err}");
            };
            assert!(!findings.is_empty());
            assert!(format!("{err}").contains("static verification"), "{err}");
        }
    }

    #[test]
    fn compile_artifacts_expose_plan() {
        let p = kernel();
        let art = compile_ccdp(&p, &PipelineConfig::t3d(8));
        assert!(art.stale.n_stale() > 0);
        assert!(art.plan.stats.targets > 0);
        let printed = ccdp_ir::print_program(&art.transformed);
        assert!(printed.contains("prefetch"), "{printed}");
    }
}
