//! The simulator is serial, and the host-thread knob must not change what
//! it computes. `SimOptions::sim_threads` survives only as provenance for
//! the benchmark: its accepted values (0, the default, and 1) must produce
//! **byte-identical** results — cycles, per-PE totals, epoch attribution,
//! prefetch quality, oracle verdicts, fault stats, event traces, and the
//! final memory image — and any value above 1 must be refused with
//! `ConfigError::SimThreads` before a single cycle is simulated, never run
//! silently on the serial path.
//!
//! Coverage: every `Scheme::ALL` member on all four paper kernels at the
//! paper's PE counts, seeded fault plans, and traced runs. Compiled vs
//! tree-walk identity for the same cells lives in `compiled_equivalence`.

use ccdp_bench::{cell_config, paper_kernels, Scale, PAPER_PES};
use ccdp_core::{PipelineConfig, PipelineError, Scheme};
use ccdp_ir::Program;
use ccdp_json::ToJson;
use t3d_sim::{ConfigError, FaultPlan, SimResult};

fn with_threads(cfg: &PipelineConfig, t: usize) -> PipelineConfig {
    let mut c = cfg.clone();
    c.sim.sim_threads = t;
    c
}

/// Full-result identity: the serialized report (cycles, per-PE/per-epoch
/// breakdowns, prefetch quality, oracle, fault stats, event trace) plus the
/// bit pattern of every shared array.
fn assert_identical(program: &Program, a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(
        a.to_json().to_pretty(),
        b.to_json().to_pretty(),
        "sim_threads 0 vs 1 result mismatch: {what}"
    );
    for arr in &program.arrays {
        if !a.memory.is_shared(arr.id) {
            continue;
        }
        let ab: Vec<u64> =
            a.memory.array_values(program, arr.id).iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u64> =
            b.memory.array_values(program, arr.id).iter().map(|v| v.to_bits()).collect();
        assert_eq!(ab, bb, "memory mismatch in {} ({what})", arr.name);
    }
}

/// Run one scheme at both accepted knob values and compare, then check
/// that the removed multi-threaded values are refused.
fn check_scheme(program: &Program, cfg: &PipelineConfig, scheme: Scheme, what: &str) {
    let zero = with_threads(cfg, 0).run(program, scheme).expect("sim_threads = 0 run");
    let one = with_threads(cfg, 1).run(program, scheme).expect("sim_threads = 1 run");
    // CCDP/INV transform the program; compare memory through the program
    // the run actually executed.
    let prog = zero.artifacts.as_ref().map_or(program, |a| &a.transformed);
    assert_identical(prog, &zero.result, &one.result, &format!("{what} {}", scheme.name()));
    for t in [2, 4] {
        match with_threads(cfg, t).run(program, scheme) {
            Err(PipelineError::InvalidConfig(ConfigError::SimThreads { value })) => {
                assert_eq!(value, t, "{what} {}: wrong value reported", scheme.name())
            }
            Err(e) => panic!(
                "{what} {}: sim_threads = {t} refused for the wrong reason: {e}",
                scheme.name()
            ),
            Ok(_) => panic!("{what} {}: sim_threads = {t} accepted", scheme.name()),
        }
    }
}

/// The acceptance sweep: every scheme on all four kernels across the
/// paper's PE counts.
#[test]
fn all_schemes_identical_at_every_pe_count() {
    for k in &paper_kernels(Scale::Quick) {
        for &n in &PAPER_PES {
            let cfg = cell_config(k, n);
            for scheme in Scheme::ALL {
                check_scheme(&k.program, &cfg, scheme, &format!("{} pes={n}", k.name));
            }
        }
    }
}

/// Fault injection draws from per-PE RNG streams: drops, latency spikes,
/// storms, and evictions must land on exactly the same accesses whatever
/// the knob says.
#[test]
fn faulted_runs_identical() {
    let plans = [
        FaultPlan { seed: 7, drop_rate: 0.3, delay_rate: 0.2, delay_mult: 4, ..FaultPlan::none() },
        FaultPlan {
            seed: 11,
            queue_cap: Some(4),
            storm_rate: 0.2,
            storm_len: 3,
            evict_rate: 0.25,
            ..FaultPlan::none()
        },
    ];
    let kernels = paper_kernels(Scale::Quick);
    for plan in plans {
        for (k, n) in [(&kernels[0], 8usize), (&kernels[2], 4)] {
            let mut cfg = cell_config(k, n);
            cfg.sim.faults = plan;
            for scheme in [Scheme::Base, Scheme::Ccdp, Scheme::InvalidateOnly] {
                check_scheme(
                    &k.program,
                    &cfg,
                    scheme,
                    &format!("{} pes={n} faults seed={}", k.name, plan.seed),
                );
            }
        }
    }
}

/// Event traces are part of the identity contract, including ring
/// wrap-around.
#[test]
fn traced_runs_identical() {
    let kernels = paper_kernels(Scale::Quick);
    let k = &kernels[1]; // VPENTA: serial + DOALL mix.
    let mut cfg = cell_config(k, 8);
    cfg.sim.trace_capacity = 4096;
    for scheme in Scheme::ALL {
        check_scheme(&k.program, &cfg, scheme, "VPENTA pes=8 traced");
    }
}
