//! Equivalence of the two execution paths: the compiled trace (default)
//! must be **cycle-for-cycle and byte-for-byte identical** to the reference
//! tree walker (`SimOptions::force_treewalk` / `CCDP_FORCE_TREEWALK=1`) —
//! cycles, per-PE totals, epoch attribution, prefetch quality, oracle
//! verdicts, fault stats, event traces, and the final memory image.
//!
//! Coverage: every scheme on all four paper kernels at every PE count of
//! the paper's tables (seed 0), plus property-style sweeps over synthesized
//! programs × schemes × fault plans.

use ccdp_bench::synth::{random_program, SynthConfig};
use ccdp_bench::{cell_config, paper_kernels, Scale, PAPER_PES};
use ccdp_core::{run_seq, EnvOverrides, PipelineConfig, Scheme};
use ccdp_ir::Program;
use ccdp_json::ToJson;
use t3d_sim::{FaultPlan, SimResult};

fn with_treewalk(cfg: &PipelineConfig) -> PipelineConfig {
    let mut c = cfg.clone();
    c.sim.force_treewalk = true;
    c
}

/// Full-result identity: the serialized report (which covers cycles,
/// per-PE/per-epoch breakdowns, prefetch quality, oracle, fault stats, and
/// the event trace) plus the bit pattern of every shared array.
fn assert_identical(program: &Program, fast: &SimResult, slow: &SimResult, what: &str) {
    assert_eq!(
        fast.to_json().to_pretty(),
        slow.to_json().to_pretty(),
        "compiled vs treewalk result mismatch: {what}"
    );
    for a in &program.arrays {
        if !fast.memory.is_shared(a.id) {
            continue;
        }
        let fb: Vec<u64> =
            fast.memory.array_values(program, a.id).iter().map(|v| v.to_bits()).collect();
        let sb: Vec<u64> =
            slow.memory.array_values(program, a.id).iter().map(|v| v.to_bits()).collect();
        assert_eq!(fb, sb, "memory mismatch in {} ({what})", a.name);
    }
}

/// Run each of `schemes` through both paths and compare. CCDP and INV
/// transform the program, so memory is compared through the program the
/// run actually executed.
fn check_schemes(program: &Program, cfg: &PipelineConfig, schemes: &[Scheme], what: &str) {
    let tw = with_treewalk(cfg);
    for &scheme in schemes {
        let f = cfg.run(program, scheme).expect("compiled run");
        let s = tw.run(program, scheme).expect("treewalk run");
        let prog = f.artifacts.as_ref().map_or(program, |a| &a.transformed);
        assert_identical(prog, &f.result, &s.result, &format!("{what} {}", scheme.name()));
    }
}

fn check_seq(program: &Program, cfg: &PipelineConfig, what: &str) {
    let tw = with_treewalk(cfg);
    let f = run_seq(program, cfg).expect("seq (compiled)");
    let s = run_seq(program, &tw).expect("seq (treewalk)");
    assert_identical(program, &f, &s, &format!("{what} SEQ"));
}

/// The acceptance sweep: every scheme on all four paper kernels × every PE
/// count of the tables, at seed 0 (no faults). The sequential scheme is checked once per
/// kernel — it is independent of the PE count.
#[test]
fn paper_kernels_identical_at_every_pe_count() {
    for k in &paper_kernels(Scale::Quick) {
        check_seq(&k.program, &cell_config(k, PAPER_PES[0]), k.name);
        for &n in &PAPER_PES {
            let cfg = cell_config(k, n);
            check_schemes(&k.program, &cfg, &Scheme::ALL, &format!("{} pes={n}", k.name));
        }
    }
}

/// Synthesized programs across seeds: random epoch/loop/subscript shapes,
/// including ones the strength reducer must reject (guarded edge accesses).
#[test]
fn synthesized_programs_identical() {
    let cfg = SynthConfig::default();
    for seed in 0..8u64 {
        let p = random_program(seed, &cfg);
        for n in [1, 3, 8] {
            let pc = PipelineConfig::t3d(n);
            check_seq(&p, &pc, &format!("synth seed={seed}"));
            let what = format!("synth seed={seed} pes={n}");
            check_schemes(&p, &pc, &[Scheme::Base, Scheme::Ccdp], &what);
        }
    }
}

/// Fault injection perturbs latencies, prefetch drops, and queue capacity —
/// the two paths must agree on every fault decision and its accounting.
#[test]
fn faulted_runs_identical() {
    const FAULTED: [Scheme; 3] = [Scheme::Base, Scheme::Ccdp, Scheme::InvalidateOnly];
    let plans = [
        FaultPlan { seed: 7, drop_rate: 0.3, delay_rate: 0.2, delay_mult: 4, ..FaultPlan::none() },
        FaultPlan { seed: 11, queue_cap: Some(4), storm_rate: 0.2, storm_len: 3, evict_rate: 0.25, ..FaultPlan::none() },
    ];
    let kernels = paper_kernels(Scale::Quick);
    for plan in plans {
        for (k, n) in [(&kernels[0], 8usize), (&kernels[2], 4)] {
            let mut cfg = cell_config(k, n);
            cfg.sim.faults = plan;
            let what = format!("{} pes={n} faults seed={}", k.name, plan.seed);
            check_schemes(&k.program, &cfg, &FAULTED, &what);
        }
        let p = random_program(3, &SynthConfig::default());
        let mut pc = PipelineConfig::t3d(6);
        pc.sim.faults = plan;
        check_schemes(&p, &pc, &FAULTED, &format!("synth faults seed={}", plan.seed));
    }
}

/// Event traces are part of the identity contract: with tracing enabled,
/// both paths must record the same events at the same cycles.
#[test]
fn traced_runs_identical() {
    let kernels = paper_kernels(Scale::Quick);
    let k = &kernels[1]; // VPENTA: serial + DOALL mix.
    let mut cfg = cell_config(k, 8);
    cfg.sim.trace_capacity = 4096;
    check_schemes(&k.program, &cfg, &Scheme::ALL, "VPENTA pes=8 traced");
}

/// The `CCDP_FORCE_TREEWALK` env var — applied through the single
/// `EnvOverrides` parsing point — selects the same reference path as
/// `SimOptions::force_treewalk`. (Runs on a small kernel; if another test
/// in this binary races the env var, both sides degrade to the treewalk and
/// the assertion still holds — the flag is equivalence-preserving by
/// contract.)
#[test]
fn env_flag_matches_option_flag() {
    let kernels = paper_kernels(Scale::Quick);
    let k = &kernels[0];
    let cfg = cell_config(k, 4);
    std::env::set_var("CCDP_FORCE_TREEWALK", "1");
    let mut env_cfg = cfg.clone();
    EnvOverrides::from_env().expect("valid env").apply(&mut env_cfg);
    std::env::remove_var("CCDP_FORCE_TREEWALK");
    assert!(env_cfg.sim.force_treewalk, "env override must set the treewalk flag");
    let via_env = env_cfg.run(&k.program, Scheme::Base).expect("base (env treewalk)").result;
    let via_opt =
        with_treewalk(&cfg).run(&k.program, Scheme::Base).expect("base (opt treewalk)").result;
    assert_identical(&k.program, &via_env, &via_opt, "env flag vs option flag");
}
